"""Shared benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md's experiment index
(E1–E10) by calling the corresponding ``repro.experiments.<module>.run``
function, timing it with pytest-benchmark, printing the resulting table and
saving it under ``benchmarks/results/`` twice: the human-readable
``<id>.txt`` table (the files EXPERIMENTS.md is assembled from) and a
machine-readable ``<id>.json`` record (rows, notes and wall-clock timing) so
CI and later changes can track the result/perf trajectory.

All wall-clock timings are additionally folded into one consolidated
``benchmarks/results/summary.json`` (one entry per experiment or throughput
probe, via :func:`update_summary`), so the perf trajectory across PRs is
machine-readable from a single file.

Scale control
-------------
By default the quick sweeps are used so the whole benchmark suite completes in
a few minutes.  Set the environment variable ``REPRO_FULL_EXPERIMENTS=1`` to
run the full sweeps recorded in EXPERIMENTS.md (tens of minutes).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.metrics.reporting import ExperimentReport

#: Directory where rendered experiment tables are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Consolidated machine-readable timing record, one entry per experiment or
#: throughput probe, updated in place by every benchmark run.
SUMMARY_PATH = RESULTS_DIR / "summary.json"



def _json_cell(value: object) -> object:
    """Make one table cell JSON-serialisable (NumPy scalars -> Python)."""
    if hasattr(value, "item"):
        return value.item()
    return value


def update_summary(entry_id: str, payload: dict) -> Path:
    """Merge one timing entry into ``benchmarks/results/summary.json``.

    Args:
        entry_id: Stable key (an experiment id such as ``"E9"``, or a
            throughput-probe name such as ``"baseline-throughput/rabin"``).
        payload: JSON-serialisable record; a ``recorded_at`` timestamp is
            stamped on automatically.

    Returns:
        The summary file's path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    if SUMMARY_PATH.exists():
        try:
            summary = json.loads(SUMMARY_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            summary = {}
    summary[entry_id] = {
        **{key: _json_cell(value) for key, value in payload.items()},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    SUMMARY_PATH.write_text(
        json.dumps(dict(sorted(summary.items())), indent=2) + "\n", encoding="utf-8"
    )
    return SUMMARY_PATH


def write_json_result(
    report: ExperimentReport, *, mode: str, seconds: float | None
) -> Path:
    """Persist a machine-readable record of one experiment run.

    Writes ``<id>.json`` and folds the run's timing into ``summary.json``.
    """
    payload = {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "mode": mode,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seconds": seconds,
        "notes": list(report.notes),
        "columns": list(report.columns) if report.columns else None,
        "rows": [
            {key: _json_cell(cell) for key, cell in row.items()} for row in report.rows
        ],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    output_path = RESULTS_DIR / f"{report.experiment_id}.json"
    output_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    update_summary(
        report.experiment_id,
        {"kind": "experiment", "mode": mode, "seconds": seconds, "rows": len(report.rows)},
    )
    return output_path


def full_experiments_requested() -> bool:
    """True when the full (EXPERIMENTS.md-scale) sweeps were requested."""
    return os.environ.get("REPRO_FULL_EXPERIMENTS", "0") not in ("", "0", "false", "no")


def run_and_record(benchmark, experiment_fn) -> ExperimentReport:
    """Time one experiment, print its table and persist it to results/.

    Args:
        benchmark: The pytest-benchmark fixture.
        experiment_fn: ``repro.experiments.<module>.run``.

    Returns:
        The rendered :class:`ExperimentReport`.
    """
    quick = not full_experiments_requested()
    started = time.perf_counter()
    report = benchmark.pedantic(experiment_fn, kwargs={"quick": quick}, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    text = report.render()
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    output_path = RESULTS_DIR / f"{report.experiment_id}.txt"
    mode = "full" if not quick else "quick"
    output_path.write_text(f"(sweep mode: {mode})\n{text}\n", encoding="utf-8")
    write_json_result(report, mode=mode, seconds=elapsed)
    return report
