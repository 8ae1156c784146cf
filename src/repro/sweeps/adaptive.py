"""Precision targets: when a sweep point has enough trials.

The executor (:mod:`repro.sweeps.executor`) runs every
:class:`~repro.sweeps.spec.SweepPoint` in *batches*.  Without a precision
target a point stops at its ``trials``.  With one, the executor measures two
confidence intervals via :mod:`repro.analysis.statistics` after every
batch —

* the **Wilson interval** on the agreement rate (its full width), and
* the **relative CI width** on mean rounds (full width over the mean),

and keeps allocating further batches — always to the point whose widest of
the two measures is largest ("variance-greedy") — until every point is below
the ``precision`` target or at its ``max_trials`` ceiling.  This module
owns that stopping rule: resolving the targets (:func:`resolve_targets`)
and measuring a point against them (:func:`estimate_point`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.analysis.statistics import (
    RateEstimate,
    mean_confidence_interval,
    relative_ci_width,
    success_rate,
)
from repro.engine import SweepResult
from repro.exceptions import ConfigurationError
from repro.sweeps.spec import SweepPoint, SweepSpec

#: Default per-point ceiling, in batches, when neither the spec nor the
#: caller sets ``max_trials`` explicitly.
DEFAULT_CEILING_BATCHES = 64


@dataclass(frozen=True)
class PrecisionTargets:
    """The resolved stopping rule of one adaptive invocation."""

    precision: float
    batch_size: int
    max_trials: int
    z: float = 1.96

    def __post_init__(self) -> None:
        if not 0.0 < self.precision < 1.0:
            raise ConfigurationError(
                f"precision must lie in (0, 1), got {self.precision}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.max_trials < 1:
            raise ConfigurationError(
                f"max_trials must be positive, got {self.max_trials}"
            )
        if self.z <= 0:
            raise ConfigurationError(f"z must be positive, got {self.z}")


def resolve_targets(
    spec: SweepSpec,
    *,
    precision: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
    z: float = 1.96,
) -> PrecisionTargets:
    """Resolve the stopping rule: explicit overrides > spec fields > defaults.

    The spec's ``trials`` is the initial batch every point receives;
    ``batch_size`` defaults to it, and ``max_trials`` defaults to
    :data:`DEFAULT_CEILING_BATCHES` batches.
    """
    chosen_precision = precision if precision is not None else spec.precision
    if chosen_precision is None:
        raise ConfigurationError(
            f"spec {spec.name!r} has no precision target; set the spec's "
            "'adaptive' block or pass --precision"
        )
    chosen_batch = batch_size if batch_size is not None else spec.batch_size
    if chosen_batch is None:
        chosen_batch = spec.trials
    chosen_ceiling = max_trials if max_trials is not None else spec.max_trials
    if chosen_ceiling is None:
        chosen_ceiling = DEFAULT_CEILING_BATCHES * chosen_batch
    if chosen_ceiling < spec.trials:
        raise ConfigurationError(
            f"max_trials ({chosen_ceiling}) must be >= the initial "
            f"trials ({spec.trials})"
        )
    return PrecisionTargets(
        precision=float(chosen_precision),
        batch_size=int(chosen_batch),
        max_trials=int(chosen_ceiling),
        z=z,
    )


@dataclass(frozen=True)
class PointEstimate:
    """The current precision state of one point."""

    point: SweepPoint
    key: str
    trials: int
    agreement: RateEstimate | None
    rounds_mean: float | None
    rounds_low: float | None
    rounds_high: float | None
    rounds_rel_width: float | None
    width: float  # max(agreement width, rounds relative width); inf if no data
    converged: bool
    ceiling_hit: bool

    @property
    def status(self) -> str:
        if self.trials == 0:
            return "pending"
        if self.converged:
            return "converged"
        if self.ceiling_hit:
            return "ceiling"
        return "partial"


def estimate_point(
    point: SweepPoint,
    key: str,
    result: SweepResult | None,
    targets: PrecisionTargets | None,
) -> PointEstimate:
    """Measure one point's precision state from its accumulated result.

    Without ``targets`` a point converges once it holds its own ``trials``
    (a uniform sweep is the no-target case); both intervals are still
    measured, at 95% confidence.
    """
    if result is None or result.num_trials == 0:
        return PointEstimate(
            point=point, key=key, trials=0, agreement=None, rounds_mean=None,
            rounds_low=None, rounds_high=None, rounds_rel_width=None,
            width=math.inf, converged=False, ceiling_hit=False,
        )
    z = 1.96 if targets is None else targets.z
    trials = result.num_trials
    successes = sum(trial.agreement for trial in result.trials)
    agreement = success_rate(successes, trials, z=z)
    rounds = [float(trial.rounds) for trial in result.trials]
    mean, low, high = mean_confidence_interval(rounds, z=z)
    rel_width = relative_ci_width(rounds, z=z)
    width = max(agreement.width, rel_width)
    if targets is None:
        converged = ceiling_hit = trials >= point.trials
    else:
        converged = width <= targets.precision
        ceiling_hit = trials >= targets.max_trials
    return PointEstimate(
        point=point,
        key=key,
        trials=trials,
        agreement=agreement,
        rounds_mean=mean,
        rounds_low=low,
        rounds_high=high,
        rounds_rel_width=rel_width,
        width=width,
        converged=converged,
        ceiling_hit=ceiling_hit,
    )


# ----------------------------------------------------------------------
# Deterministic allocation-plan table (embedded in docs/sweeps.md)
# ----------------------------------------------------------------------
def adaptive_plan_table(spec: SweepSpec) -> list[dict[str, Any]]:
    """The deterministic allocation plan of an adaptive spec, as table rows.

    Everything here is derivable without running a single trial: the
    expanded grid, each point's seed range start, the initial batch, the
    increment and the ceiling.  Rendered (for the ``crossover-adaptive``
    library spec) into ``docs/sweeps.md`` as a drift-guarded example table.
    """
    from repro.sweeps.executor import spec_keys

    targets = resolve_targets(spec)
    rows = []
    for index, (point, key) in enumerate(spec_keys(spec)):
        rows.append(
            {
                "#": index,
                "protocol": point.protocol,
                "adversary": point.adversary,
                "n": point.n,
                "t": point.t,
                "base_seed": point.base_seed,
                "initial": point.trials,
                "batch": targets.batch_size,
                "ceiling": targets.max_trials,
                "precision": targets.precision,
                "key": key[:12],
            }
        )
    return rows


def markdown_adaptive_plan() -> str:
    """The ``crossover-adaptive`` allocation plan as a marked markdown block.

    ``docs/sweeps.md`` embeds this block between the same markers and
    ``tests/test_docs.py`` asserts the embedded copy is byte-identical, so
    the documented adaptive example can never drift from the live spec.
    """
    from repro.metrics.reporting import format_markdown_table
    from repro.sweeps.library import get_spec

    table = format_markdown_table(adaptive_plan_table(get_spec("crossover-adaptive")))
    return (
        "<!-- sweeps:adaptive-plan:begin -->\n"
        f"{table}\n"
        "<!-- sweeps:adaptive-plan:end -->"
    )


__all__ = [
    "DEFAULT_CEILING_BATCHES",
    "PointEstimate",
    "PrecisionTargets",
    "adaptive_plan_table",
    "estimate_point",
    "markdown_adaptive_plan",
    "resolve_targets",
]
