"""Benchmark runner: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``worker.py``) whose environment is isolated from the caller's
shell: every ``REPRO_*`` variable is removed (plane backend, tracing, trace
directory, store root, full-experiment switches), ``PYTHONPATH`` points at
the checkout's ``src``, and BLAS/OpenMP threads are capped at the number of
usable CPUs.  Workers run one at a time.

``--trace 0`` starts :data:`SETUP_PROBES` set-up-only workers and then one
measuring worker, and reports the end-to-end metrics: simulated
trial-phases per second, the median call time, the median set-up time over
all of those workers, and the measuring worker's peak RSS.  Times are scaled
to nominal machine speed (``speed.py``).  ``--trace 1`` starts one worker
that runs half the time untraced and half under the layer ledger
(``ledger.py``) and reports the per-layer metrics.  ``README.md`` defines
every metric.

``--workload all`` runs every workload once and prints one table (a quick
look, not a driver mode).  Otherwise the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when the checkout holds
no ``src/repro`` or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: Set-up-only workers started before the measuring worker (whose set-up
#: time is one more sample of the reported median).
SETUP_PROBES = 4

#: Whole-run budget; workers still running past it are killed.
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    cpus = usable_cpus()
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            env[var] = str(cpus)
    return env


def run_worker(args, mode: str, scratch: Path, deadline: float) -> dict:
    """Start one worker, wait for it and return its JSON result."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--t0", repr(t0), "--scratch", str(scratch),
    ]
    try:
        done = subprocess.run(
            command, env=worker_env(), cwd=CHECKOUT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"{mode} worker ran past the {DEADLINE_S:.0f} s budget") from error
    if done.returncode != 0:
        raise WorkerError(f"{mode} worker exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def code_version() -> dict[str, str]:
    """Git commit when the checkout is a repository, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    version = {"src_sha256": digest.hexdigest()[:16]}
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = ""
        if commit:
            version["git_commit"] = commit
    return version


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args, deadline: float) -> dict:
    """All the workers of one workload run; returns the merged worker result."""
    scratch_parent = CHECKOUT / ".perfbench-tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    try:
        if args.trace:
            return run_worker(args, "trace", scratch, deadline)
        setups = [
            run_worker(args, "setup", scratch, deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = run_worker(args, "measure", scratch, deadline)
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run still owns a directory in it


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name.endswith("trial_phases_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.startswith("call_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_share", ".overhead", ".speed")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def describe(args, result: dict) -> list[str]:
    """Human-readable lines: fingerprint, metrics with units, failures, ledger."""
    lines = [
        "fingerprint: " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": usable_cpus(), "cpu": cpu_model(),
            "python": platform.python_version(), **result["fingerprint"], **code_version(),
        }, sort_keys=True),
    ]
    for name, value in result["metrics"].items():
        unit = unit_of(name)
        extra = f"  (n={result['samples']})" if name.startswith("call_ms") else ""
        lines.append(f"{args.workload:16s} {name:40s} {value:14.6g} {unit}{extra}")
    for name, value in result.get("unscaled", {}).items():
        lines.append(f"{args.workload:16s} {name:40s} {value:14.6g} {unit_of(name)}  (unscaled)")
    failed_frac = result["failed"] / max(1, result["attempted"])
    lines.append(
        f"{args.workload:16s} {'failed_frac':40s} {failed_frac:14.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    lines.extend(f"FAILED: {reason}" for reason in result["failures"])
    if args.trace:
        lines.extend(
            f"{args.workload:16s} largest self time: {label} {share:.1%}"
            for label, share in result["largest_layers"]
        )
        if not result["within_residual"]:
            lines.append(
                f"LEDGER RESIDUAL EXCEEDED: traced.unattributed_share = "
                f"{result['metrics']['traced.unattributed_share']:.3f}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = [w["name"] for w in json.loads((CHECKOUT / "BENCHMARK.json").read_text())["workloads"]]
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            single = argparse.Namespace(**{**vars(args), "workload": name})
            try:
                print("\n".join(describe(single, run_workload(single, deadline))), flush=True)
            except WorkerError as error:
                print(f"perfbench: {name}: {error}", file=sys.stderr)
                return 1
        return 0

    deadline = time.monotonic() + DEADLINE_S
    try:
        result = run_workload(args, deadline)
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print("\n".join(describe(args, result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
