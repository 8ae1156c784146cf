"""One benchmark workload in one process (started by ``run.py``, never by hand).

Modes:

* ``setup``   -- import the program, make one untimed warm-up call, report
  the time since ``--t0`` (the parent's monotonic clock just before it
  started this process);
* ``measure`` -- set up, then run the timed closed loop with tracing off and
  report the end-to-end numbers;
* ``trace``   -- set up, run half the time untraced and half with the layer
  ledger installed, and report the per-layer numbers.

The last line of standard output is one JSON object.
"""

import time  # first, so nothing else runs before the set-up clock starts

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import speed


def segment(workloads, name, seed, seconds, checker, first_call, scratch, ledger=None):
    """Closed loop of calls for at least ``seconds``; returns (log, next call, wall ns).

    A calibration runs before the first call and after every call, and each
    call's timings are scaled by the mean of the two around it (``speed.py``).
    The returned wall time leaves the calibrations out.
    """
    log = workloads.OpLog()
    runner = (
        workloads.SweepStoreRunner(scratch, ledger) if name == workloads.SWEEP_WORKLOAD else None
    )
    calibrator = speed.Calibrator()
    calibration_ns = 0

    def calibrate() -> float:
        nonlocal calibration_ns
        started = time.perf_counter_ns()
        seconds = calibrator.seconds()
        calibration_ns += time.perf_counter_ns() - started
        return seconds

    call = first_call
    started_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    try:
        while True:
            index = workloads.pool_index(seed, call)
            call += 1
            mark = log.mark()
            if runner is not None:
                runner.op(index, checker, log)
            else:
                workloads.engine_op(name, index, checker, log)
            after = calibrate()
            log.scale_since(mark, 2 * speed.NOMINAL_S / (before + after))
            before = after
            # A sweep-store run ends on a store-cycle boundary, so every run
            # weighs the cheap and the expensive passes of a cycle alike.
            if time.perf_counter() >= deadline and (runner is None or runner.cycle_done):
                break
        wall_ns = time.perf_counter_ns() - started_ns - calibration_ns
    finally:
        if runner is not None:
            runner.close()
            log.bytes_written = runner.retired_bytes
    return log, call, wall_ns


def throughput(log) -> float:
    """Trial-phases per second at nominal machine speed."""
    busy = sum(seconds for seconds, _ in log.ops)
    return sum(phases for _, phases in log.ops) / busy if busy else 0.0


def raw_throughput(log) -> float:
    """Trial-phases per wall-clock second, unscaled."""
    return sum(phases for _, phases in log.ops) / log.raw_busy_s if log.raw_busy_s else 0.0


def fingerprint(workloads, name) -> dict:
    import numpy as np

    from repro.engine import select_engine
    from repro.simulator.planes import resolve_backend
    from repro.sweeps.store import STORE_SCHEMA_VERSION

    if name == workloads.SWEEP_WORKLOAD:
        engines = sorted({
            select_engine(point.protocol, point.adversary, trials=point.trials, n=point.n)
            for point in workloads.sweep_spec(0).expand()
        })
    else:
        config = workloads.ENGINE_WORKLOADS[name]
        engines = [select_engine(
            config["protocol"], config["adversary"], trials=config["trials"], n=config["n"],
            topology=config.get("topology", "clique"), loss=config.get("loss", 0.0),
        )]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "engine": ",".join(engines),
        "plane_backend": resolve_backend(None).name,
        "store_schema": STORE_SCHEMA_VERSION,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    name = args.workload
    warmup = workloads.OpLog()
    if name == workloads.SWEEP_WORKLOAD:
        runner = workloads.SweepStoreRunner(args.scratch)
        try:
            runner.op(workloads.WARMUP_INDEX, None, warmup)
        finally:
            runner.close()
    else:
        workloads.engine_op(name, workloads.WARMUP_INDEX, None, warmup)
    raw_setup_s = time.monotonic() - args.t0
    setup_s = raw_setup_s * speed.Calibrator().factor()
    if warmup.failed:
        print(f"warm-up failed: {warmup.failures}", file=sys.stderr)
        return 1
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    checker = workloads.Checker(workloads.load_reference())
    out = {"setup_s": setup_s, "fingerprint": fingerprint(workloads, name)}
    if args.mode == "measure":
        log, _, _ = segment(workloads, name, args.seed, args.seconds, checker, 0, args.scratch)
        out["metrics"] = {
            "trial_phases_per_s": throughput(log),
            "call_ms.p50": 1e3 * statistics.median(log.call_s) if log.call_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["samples"] = len(log.call_s)
        out["unscaled"] = {
            "raw.trial_phases_per_s": raw_throughput(log),
            "machine.speed": statistics.median(log.factors),
        }
    else:
        from ledger import Ledger, largest_layers, ledger_metrics

        half = args.seconds / 2
        plain, next_call, _ = segment(workloads, name, args.seed, half, checker, 0, args.scratch)
        with Ledger() as ledger:
            log, _, wall_ns = segment(
                workloads, name, args.seed, half, checker, next_call, args.scratch, ledger
            )
        metrics, within = ledger_metrics(ledger, wall_ns)
        metrics["store.bytes_written"] = log.bytes_written
        metrics["traced.overhead"] = (
            throughput(log) / throughput(plain) if throughput(plain) else 0.0
        )
        metrics["raw.trial_phases_per_s"] = raw_throughput(plain)
        metrics["machine.speed"] = statistics.median(plain.factors)
        metrics["call_ms.p90"] = (
            1e3 * statistics.quantiles(plain.call_s, n=10)[-1] if len(plain.call_s) > 1 else 0.0
        )
        metrics["sweeps.warm_pass_ms"] = (
            1e3 * statistics.median(plain.warm_pass_s) if plain.warm_pass_s else 0.0
        )
        out["metrics"] = metrics
        out["within_residual"] = within
        out["largest_layers"] = largest_layers(ledger)
        out["samples"] = len(plain.call_s)
        log.attempted += plain.attempted
        log.failed += plain.failed
        log.failures = plain.failures + log.failures
    out.update(attempted=log.attempted, failed=log.failed, failures=log.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
