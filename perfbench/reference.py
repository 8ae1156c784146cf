"""Regenerate ``reference.json``: the checked aggregates of every pool entry.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/reference.py

For each engine workload the file holds, per pool index, the call's
(agreement rate, mean phases, mean messages); for ``sweep-store``, per pass,
an 8-hex digest of each point's aggregates.  Each workload also gets the
pool mean and standard deviation of those aggregates (per call, or per pass
averaged over its points), the band the statistical check uses after a
randomness-stream change.  ``store_schema`` records the
``STORE_SCHEMA_VERSION`` the values were made under; regenerate the file
whenever a change is meant to move results, and say so in the change.

Every pool entry is also put through the structural checks (phase cap,
Las Vegas agreement, censoring), so a pool that breaks them is never written.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import workloads
from repro.sweeps.executor import run_spec
from repro.sweeps.store import STORE_SCHEMA_VERSION, ResultsStore


def band(rows: list[tuple[float, ...]]) -> dict[str, list[float]]:
    columns = list(zip(*rows))
    return {
        "mean": [statistics.fmean(column) for column in columns],
        "std": [statistics.pstdev(column) for column in columns],
    }


def engine_entry(name: str) -> dict:
    results = [workloads.run_engine_call(name, index) for index in range(workloads.POOL)]
    calls = [list(workloads.aggregates(result)) for result in results]
    entry = {"calls": calls, "band": band([tuple(row) for row in calls])}
    checker = workloads.Checker({"store_schema": STORE_SCHEMA_VERSION, "workloads": {name: entry}})
    for index, result in enumerate(results):
        problems = checker.engine_call(name, index, result)
        if problems:
            raise RuntimeError(f"{name} pool entry {index}: {problems}")
    return entry


def sweep_entry(scratch: str) -> dict:
    digests, passes, all_results = [], [], []
    for index in range(workloads.POOL):
        root = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
        try:
            spec = workloads.sweep_spec(index)
            store = ResultsStore(root)
            results = workloads.read_pass(store, run_spec(spec, store=store).outcomes)
        finally:
            shutil.rmtree(root)
        digests.append([workloads.digest(workloads.aggregates(result)) for _, result in results])
        passes.append(workloads.pass_aggregates([result for _, result in results]))
        all_results.append(results)
    entry = {"digests": digests, "band": band(passes)}
    checker = workloads.Checker(
        {"store_schema": STORE_SCHEMA_VERSION, "workloads": {workloads.SWEEP_WORKLOAD: entry}}
    )
    for index, results in enumerate(all_results):
        problems = [p for point in checker.sweep_pass(index, results) for p in point]
        if problems:
            raise RuntimeError(f"sweep-store pool pass {index}: {problems}")
    return entry


def build(name: str, scratch: str) -> tuple[str, dict]:
    if name == workloads.SWEEP_WORKLOAD:
        return name, sweep_entry(scratch)
    return name, engine_entry(name)


def main() -> int:
    (Path.cwd() / ".perfbench-tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=Path.cwd() / ".perfbench-tmp"))
    try:
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(build, name, str(scratch)) for name in workloads.WORKLOADS]
            entries = dict(future.result() for future in futures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = {
        "store_schema": STORE_SCHEMA_VERSION,
        "pool": workloads.POOL,
        "workloads": {name: entries[name] for name in workloads.WORKLOADS},
    }
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.REFERENCE_PATH} ({workloads.POOL} entries per workload)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
