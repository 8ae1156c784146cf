"""Adaptive vs uniform trial allocation: savings and reproducibility.

A precision target makes the sweep executor promise two things on the
library's ``crossover-adaptive`` spec:

1. **Precision**: every point of the E5 crossover grid reaches the spec's
   CI-width target (both the agreement Wilson width and the relative
   mean-rounds CI width at or below ``precision``) without hitting the
   trial ceiling.
2. **Savings**: it does so with measurably fewer trials than the uniform
   alternative — a sweep that gives *every* point the trial count the
   worst (highest-variance) point needed.  The variance heterogeneity of
   the crossover region is real, so the savings floor is asserted, not
   just recorded.

Both are measured here and written to ``benchmarks/results/summary.json``,
together with a resume check: re-running the converged spec (and a run
interrupted after a few batches, then resumed) must reproduce the identical
accumulated per-trial results — adaptivity changes how many trials run,
never what any trial computes.
"""

from __future__ import annotations

import dataclasses
import time

from repro.sweeps import ResultsStore, get_spec, result_from_record, run_spec

#: Uniform sweeps cannot see per-point variance, so an honest uniform
#: comparator must size every point for the worst one.  Precision-targeted
#: allocation must beat that by at least this fraction of total trials.
MIN_TRIAL_SAVINGS = 0.2


def _trial_tuples(result) -> list[tuple]:
    return [dataclasses.astuple(summary) for summary in result.trials]


def test_adaptive_allocation_converges_with_fewer_trials(tmp_path):
    """crossover-adaptive: all points converged, >= 20% fewer trials than
    a worst-point-sized uniform sweep, resume bit-identical."""
    spec = get_spec("crossover-adaptive")

    started = time.perf_counter()
    store = ResultsStore(tmp_path / "store")
    report = run_spec(spec, store=store)
    adaptive_seconds = time.perf_counter() - started

    # 1. Precision: every point converged below the target, none at ceiling.
    assert report.converged == report.total, (
        f"only {report.converged}/{report.total} points reached CI width "
        f"{report.targets.precision}"
    )
    assert report.at_ceiling == 0
    for outcome in report.outcomes:
        assert outcome.estimate.width <= report.targets.precision

    # 2. Savings vs the uniform worst-case sizing.
    per_point = [outcome.trials for outcome in report.outcomes]
    worst = max(per_point)
    adaptive_total = sum(per_point)
    uniform_total = worst * report.total
    savings = 1.0 - adaptive_total / uniform_total
    assert min(per_point) < worst, (
        "crossover-adaptive allocation degenerated to uniform — the spec no "
        "longer spans heterogeneous variance"
    )
    assert savings >= MIN_TRIAL_SAVINGS, (
        f"adaptive used {adaptive_total} trials vs uniform {uniform_total} "
        f"({savings:.1%} saved; floor {MIN_TRIAL_SAVINGS:.0%})"
    )

    # 3. Reproducibility: a second invocation computes nothing, and an
    # interrupted-then-resumed run reproduces identical per-trial results.
    rerun = run_spec(spec, store=ResultsStore(tmp_path / "store"))
    assert rerun.computed_trials == 0
    interrupted = run_spec(spec, store=ResultsStore(tmp_path / "resume"), limit=7)
    assert interrupted.computed_batches == 7
    resume_store = ResultsStore(tmp_path / "resume")
    resumed = run_spec(spec, store=resume_store)
    for res, full in zip(resumed.outcomes, report.outcomes):
        assert _trial_tuples(result_from_record(resume_store.get(res.key))) == (
            _trial_tuples(result_from_record(store.get(full.key)))
        ), "resumed adaptive run diverged from the uninterrupted one"

    print(
        f"\nadaptive allocation ({spec.name}, precision "
        f"{report.targets.precision:g}): {adaptive_total} trials across "
        f"{report.total} points (per-point {min(per_point)}..{worst}) vs "
        f"uniform {uniform_total}, saving {savings:.1%} "
        f"({adaptive_seconds:.2f}s, resume bit-identical)"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "adaptive-allocation/crossover",
        {
            "kind": "allocation",
            "spec": spec.name,
            "precision": report.targets.precision,
            "batch_size": report.targets.batch_size,
            "max_trials": report.targets.max_trials,
            "points": report.total,
            "adaptive_trials": adaptive_total,
            "per_point_trials": per_point,
            "uniform_trials": uniform_total,
            "savings": savings,
            "savings_floor": MIN_TRIAL_SAVINGS,
            "all_converged": True,
            "seconds": adaptive_seconds,
            "resume_bit_identical": True,
        },
    )
