"""Resumable, batch-wise sweep execution.

:func:`run_spec` drives every point of a :class:`SweepSpec` through
:func:`repro.engine.run_sweep` in *batches* and appends each point's
accumulated record to a :class:`~repro.sweeps.store.ResultsStore` as soon as
a batch completes, so an interrupted sweep (Ctrl-C, OOM kill, pre-empted CI
runner) can simply be re-invoked: only the remainder executes.

Every point is first topped up to its ``trials``.  Without a precision target
the run stops there — a uniform sweep.  With one (the spec's ``adaptive``
block or an explicit ``precision``), further batches go, one at a time, to
the open point whose error bars are widest (:mod:`repro.sweeps.adaptive`).

Reproducibility contract
------------------------
Batches run with ``trial_offset`` set to the point's accumulated trial
count, so batch trials draw from the same global counter streams — Philox
key ``(base_seed, k)`` on the vectorised kernels, master seed
``base_seed + k`` on the object engines — they would use in one unsplit
sweep.  An accumulated record is therefore **bit-identical** to a one-shot
run at the same total, which is what lets one trials-independent store key
(:func:`~repro.sweeps.store.point_key`) serve every trial count: a record
holding at least ``trials`` trials is a cache hit served as its first
``trials``, a shorter one is topped up from where it stops.  The greedy
allocation depends only on the accumulated results (ties broken by grid
order), so an interrupted-and-resumed run replays the identical batch
sequence.  Multi-core machines additionally get trial-range sharding for
free — ``workers > 1`` splits every batch over a process pool, bit-identical
to running it in one process.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.engine import SweepResult, run_sweep, select_engine
from repro.observability.tracer import current_tracer
from repro.sweeps.adaptive import (
    PointEstimate,
    PrecisionTargets,
    estimate_point,
    resolve_targets,
)
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.sweeps.store import (
    ResultsStore,
    point_key,
    result_from_record,
    sweep_record,
)

#: Progress callback: ``(outcome, index, total)``, called once per point in
#: grid order and again after every precision-driven batch.
ProgressCallback = Callable[["PointOutcome", int, int], None]


@dataclass(frozen=True)
class PointOutcome:
    """What one sweep run did to one point (so far)."""

    point: SweepPoint
    key: str
    status: str  # "cached" | "computed" | "pending"
    engine: str = "-"
    seconds: float = 0.0
    #: Trials the store holds for the point.
    trials: int = 0
    #: Trials and batches this invocation computed for the point.
    computed_trials: int = 0
    batches: int = 0
    #: Precision state; set only when a precision target is in force.
    estimate: PointEstimate | None = None


@dataclass
class SweepRunReport:
    """Outcome of one :func:`run_spec` (or :func:`status_spec`) invocation."""

    spec: SweepSpec
    engine: str
    outcomes: list[PointOutcome]
    targets: PrecisionTargets | None = None
    seconds: float = 0.0
    #: Store-cache counters of this invocation (also counted on the active
    #: tracer as ``store.cache_hit`` / ``store.cache_miss``): a hit is a point
    #: whose record already held its trials, a miss a point that had to
    #: execute (or stayed pending).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(outcome.status == status for outcome in self.outcomes)

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def computed(self) -> int:
        return self.count("computed")

    @property
    def pending(self) -> int:
        return self.count("pending")

    @property
    def total_trials(self) -> int:
        return sum(outcome.trials for outcome in self.outcomes)

    @property
    def computed_trials(self) -> int:
        return sum(outcome.computed_trials for outcome in self.outcomes)

    @property
    def computed_batches(self) -> int:
        return sum(outcome.batches for outcome in self.outcomes)

    @property
    def converged(self) -> int:
        return sum(outcome.estimate.converged for outcome in self.outcomes)

    @property
    def at_ceiling(self) -> int:
        return sum(
            outcome.estimate.ceiling_hit and not outcome.estimate.converged
            for outcome in self.outcomes
        )

    def summary_line(self) -> str:
        """One machine-greppable line (asserted by the CI smoke jobs)."""
        if self.targets is not None:
            return (
                f"adaptive sweep {self.spec.name}: {self.total} points, "
                f"{self.total_trials} trials (+{self.computed_trials} computed), "
                f"{self.converged} converged, {self.at_ceiling} at ceiling, "
                f"precision {self.targets.precision:g} (engine {self.engine}, "
                f"{self.seconds:.2f}s)"
            )
        return (
            f"sweep {self.spec.name}: {self.total} points, "
            f"{self.computed} computed, {self.cached} cached, "
            f"{self.pending} pending (engine {self.engine}, "
            f"{self.seconds:.2f}s)"
        )

    def cache_line(self) -> str:
        """The store-cache counter line (printed below the summary line)."""
        return (
            f"store cache: {self.cache_hits} hits, {self.cache_misses} misses "
            f"({self.computed} points computed, {self.cached} served from cache)"
        )


def spec_keys(
    spec: SweepSpec, *, engine: str | None = None
) -> list[tuple[SweepPoint, str]]:
    """Expand a spec and compute each point's content key.

    The key depends on the *result family* that would run the point
    (``select_engine`` per point — "auto" may resolve differently per
    configuration), never on the worker count or the trial count.
    """
    requested = engine if engine is not None else spec.engine
    pairs = []
    for point in spec.expand():
        family = select_engine(
            point.protocol,
            point.adversary,
            engine=requested,
            max_rounds=point.max_rounds,
            topology=point.topology,
            loss=point.loss,
        )
        pairs.append((point, point_key(point, family)))
    return pairs


def _targets(
    spec: SweepSpec, precision: float | None, **overrides: Any
) -> PrecisionTargets | None:
    """The precision stopping rule in force, or None for a uniform sweep."""
    if precision is None and spec.precision is None:
        return None
    return resolve_targets(spec, precision=precision, **overrides)


def _stored_result(
    record: Mapping[str, Any] | None,
    point: SweepPoint,
    targets: PrecisionTargets | None,
) -> SweepResult | None:
    """A point's stored result as the sweep sees it: without a precision
    target a longer record is served as its first ``point.trials`` trials."""
    if record is None:
        return None
    result = result_from_record(record)
    if targets is None and result.num_trials > point.trials:
        result = SweepResult(
            experiment=result.experiment,
            trials=result.trials[: point.trials],
            engine=result.engine,
        )
    return result


def run_spec(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
    workers: int | None = None,
    backend: str | None = None,
    limit: int | None = None,
    progress: ProgressCallback | None = None,
    precision: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
    z: float = 1.96,
) -> SweepRunReport:
    """Bring every point of ``spec`` to its trials (and precision target).

    Args:
        store: Results store; each point's record is read on entry and its
            accumulated record appended after every completed batch.
        engine: Engine override (defaults to the spec's own choice).
        workers: Process count; ``workers > 1`` shards every batch's trial
            range over a process pool (results never depend on it).
        backend: Plane-backend selection for the vectorised kernels
            (:mod:`repro.simulator.planes`).  Backends are bit-identical,
            so it is pure execution policy: cache keys ignore it, and points
            computed under one backend are cache hits under any other.
        limit: Execute at most this many *batches*, leaving the rest for a
            later (resumed) invocation.  A point without a precision target
            is one batch, so this counts points for a uniform sweep (the CI
            resume checks use it to emulate an interrupted run).
        progress: Called once per point in grid order, cached or computed,
            then once after every precision-driven batch.
        precision / max_trials / batch_size / z: Stopping-rule overrides
            (see :func:`repro.sweeps.adaptive.resolve_targets`); a
            ``precision`` makes any spec precision-targeted.

    Returns:
        A :class:`SweepRunReport`; interruptions (KeyboardInterrupt) are NOT
        swallowed, but every batch completed before one is already durable
        in the store.
    """
    started = time.perf_counter()
    targets = _targets(
        spec, precision, max_trials=max_trials, batch_size=batch_size, z=z
    )
    target_block = (
        None if targets is None
        else {**dataclasses.asdict(targets), "initial_trials": spec.trials}
    )
    pairs = spec_keys(spec, engine=engine)
    requested = engine if engine is not None else spec.engine
    outcomes: list[PointOutcome] = []
    results: list[SweepResult | None] = []
    executed = hits = 0
    tracer = current_tracer()

    def budget_left() -> bool:
        return limit is None or executed < limit

    def run_batch(index: int, count: int) -> None:
        nonlocal executed
        outcome, stored = outcomes[index], results[index]
        point = outcome.point
        batch_started = time.perf_counter()
        # The span records the batch's offset and size and — via annotate —
        # the width it landed on: a trace replays the width trajectory.
        with tracer.span(
            "sweep.point", point=point.label(), key=outcome.key[:12],
            offset=outcome.trials, trials=count,
        ) as span:
            result = run_sweep(
                experiment=point.experiment(),
                trials=count,
                base_seed=point.base_seed,
                engine=requested,
                workers=workers,
                backend=backend,
                trial_offset=outcome.trials,
            )
            if stored is not None:
                result = SweepResult(
                    experiment=result.experiment,
                    trials=stored.trials + result.trials,
                    engine=result.engine,
                )
            store.put(outcome.key, sweep_record(point, result, result.engine, target_block))
            estimate = None
            if targets is not None or tracer.enabled:
                estimate = estimate_point(point, outcome.key, result, targets)
                span.annotate(
                    total_trials=result.num_trials,
                    width=estimate.width,
                    converged=estimate.converged,
                )
        executed += 1
        results[index] = result
        outcomes[index] = dataclasses.replace(
            outcome,
            status="computed",
            engine=result.engine,
            seconds=outcome.seconds + time.perf_counter() - batch_started,
            trials=result.num_trials,
            computed_trials=outcome.computed_trials + count,
            batches=outcome.batches + 1,
            estimate=None if targets is None else estimate,
        )

    # Phase 1, in grid order: every point is served from the store or
    # topped up to its trials.  Only the stored trial count decides a
    # hit; trial rows are rebuilt only to top up or measure precision.
    for index, (point, key) in enumerate(pairs):
        record = store.get(key) if key in store else None
        stored = 0 if record is None else record["point"]["trials"]
        hit = stored >= point.trials
        hits += hit
        tracer.count("store.cache_hit" if hit else "store.cache_miss")
        results.append(
            _stored_result(record, point, targets)
            if targets is not None or not hit else None
        )
        outcomes.append(
            PointOutcome(
                point=point,
                key=key,
                status="cached" if hit else "pending",
                engine="-" if record is None else record.get("engine", "-"),
                trials=stored,
                estimate=(
                    None if targets is None
                    else estimate_point(point, key, results[index], targets)
                ),
            )
        )
        if not hit and budget_left():
            run_batch(index, point.trials - stored)
        if progress is not None:
            progress(outcomes[index], index, len(pairs))
    # Phase 2, precision targets only: variance-greedy allocation.  Every
    # decision depends only on the accumulated results (max() keeps the
    # first of tied widths, and points iterate in grid order), so an
    # interrupted run resumed from the store replays the identical batch
    # sequence.
    while targets is not None and budget_left():
        open_points = [
            index
            for index, outcome in enumerate(outcomes)
            if outcome.point.trials <= outcome.trials < targets.max_trials
            and not outcome.estimate.converged
        ]
        if not open_points:
            break
        widest = max(open_points, key=lambda index: outcomes[index].estimate.width)
        run_batch(
            widest,
            min(targets.batch_size, targets.max_trials - outcomes[widest].trials),
        )
        if progress is not None:
            progress(outcomes[widest], widest, len(pairs))
    return SweepRunReport(
        spec=spec,
        engine=requested,
        outcomes=outcomes,
        targets=targets,
        seconds=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=len(pairs) - hits,
    )


def status_spec(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
    **overrides: Any,
) -> SweepRunReport:
    """Coverage (and precision) of ``spec`` in ``store`` without executing."""
    return run_spec(spec, store=store, engine=engine, limit=0, **overrides)


def report_rows(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
    precision: float | None = None,
    **overrides: Any,
) -> list[dict[str, Any]]:
    """Result table of a spec, read entirely from the store.

    One row per point, measured on the trials the sweep would serve (the
    first ``trials`` of a longer record without a precision target, the whole
    accumulation with one); uncomputed points appear with empty measurement
    cells so coverage gaps are visible rather than silently dropped.
    """
    targets = _targets(spec, precision, **overrides)
    rows = []
    for point, key in spec_keys(spec, engine=engine):
        record = store.get(key)
        result = _stored_result(record, point, targets)
        estimate = estimate_point(point, key, result, targets)
        agreement = estimate.agreement
        rows.append(
            {
                "protocol": point.protocol,
                "adversary": point.adversary,
                "inputs": point.inputs,
                "n": point.n,
                "t": point.t,
                "alpha": point.alpha,
                "trials": estimate.trials or None,
                "engine": None if record is None else record.get("engine"),
                "agreement_rate": None if agreement is None else agreement.rate,
                "agree_low": None if agreement is None else agreement.low,
                "agree_high": None if agreement is None else agreement.high,
                "mean_rounds": estimate.rounds_mean,
                "rounds_low": estimate.rounds_low,
                "rounds_high": estimate.rounds_high,
                "mean_messages": None if result is None else result.mean_messages,
                "validity_rate": None if result is None else result.validity_rate,
                "ci_width": None if estimate.trials == 0 else estimate.width,
                "status": estimate.status,
            }
        )
    return rows
