"""Protocol parameters and complexity formulas.

Algorithm 3 groups the ``n`` nodes into

``c = min{ alpha * ceil(t^2 / n) * log n,  3 * alpha * t / log n }``

committees of uniform size ``s = n / c`` (the last committee may be smaller)
and runs one two-round phase per committee.  This module computes these
quantities, detects which regime a configuration falls into
(``t <= n / log^2 n`` — the regime where the paper's bound strictly improves
on Chor–Coan — versus ``t > n / log^2 n`` where the two bounds match), and
provides the analytic round- and message-complexity predictions used by the
benchmark harness.

Logarithms are base 2 throughout; the paper's asymptotic statements are
insensitive to the base and base 2 matches the bit-counting conventions of
the CONGEST model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


class Regime(enum.Enum):
    """Which branch of the ``min`` in the committee-count formula is active."""

    #: ``t <= n / log^2 n`` — committee count ``alpha * ceil(t^2/n) * log n``;
    #: the paper's bound strictly improves on Chor–Coan here.
    QUADRATIC = "quadratic"
    #: ``t > n / log^2 n`` — committee count ``3 * alpha * t / log n``;
    #: the bound matches Chor–Coan's ``O(t / log n)``.
    LINEAR = "linear"


def log2n(n: int) -> float:
    """``log_2 n`` guarded against degenerate sizes (returns at least 1)."""
    return max(1.0, math.log2(max(2, n)))


def validate_n_t(n: int, t: int) -> None:
    """Validate a network size / fault bound pair.

    Raises:
        ConfigurationError: If ``n < 1``, ``t < 0``, or ``t >= n/3`` (the
            protocol's optimal resilience bound, Section 1.1).
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if t < 0:
        raise ConfigurationError(f"t must be non-negative, got {t}")
    if 3 * t >= n:
        raise ConfigurationError(
            f"the protocol tolerates only t < n/3 Byzantine nodes; got t={t}, n={n}"
        )


def max_tolerable_t(n: int) -> int:
    """Largest ``t`` with ``3t < n`` (optimal resilience in the full-information model)."""
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    return max(0, (n - 1) // 3)


@dataclass(frozen=True)
class ProtocolParameters:
    """Derived parameters of Algorithm 3 for a given ``(n, t, alpha)``.

    Attributes:
        n: Number of nodes.
        t: Declared Byzantine bound (``t < n/3``).
        alpha: The constant ``alpha >= 1`` from the committee-count formula.
            The paper's analysis needs ``alpha - 4*sqrt(alpha) >= gamma`` for a
            failure probability of ``n^-gamma``; practical simulations use a
            smaller value (default 4.0) and the ablation experiment E10 sweeps
            it.
        num_phases: ``c`` — the number of phases (committees) the protocol runs.
        committee_size: ``s = ceil(n / c)`` — the size of each committee.
        regime: Which branch of the ``min`` produced ``c``.
    """

    n: int
    t: int
    alpha: float
    num_phases: int
    committee_size: int
    regime: Regime

    @classmethod
    def derive(cls, n: int, t: int, alpha: float = 4.0) -> "ProtocolParameters":
        """Compute the committee parameters from the paper's formula.

        ``c = min{alpha * ceil(t^2/n) * log n, 3*alpha*t/log n}``, clamped to
        ``[1, n]`` so that degenerate inputs (``t = 0``, tiny ``n``) remain
        runnable; ``s = ceil(n/c)``.
        """
        validate_n_t(n, t)
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        log_n = log2n(n)
        quadratic_branch = alpha * math.ceil((t * t) / n) * log_n if t > 0 else 0.0
        linear_branch = 3.0 * alpha * t / log_n
        c_raw = min(quadratic_branch, linear_branch)
        c = int(min(n, max(1, math.ceil(c_raw))))
        s = max(1, math.ceil(n / c))
        regime = Regime.QUADRATIC if quadratic_branch <= linear_branch else Regime.LINEAR
        return cls(n=n, t=t, alpha=alpha, num_phases=c, committee_size=s, regime=regime)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_committees(self) -> int:
        """Number of non-empty committees the ID partition actually yields.

        Rounding can make ``ceil(n/s)`` smaller than ``num_phases``; phases
        then cycle through the committees (phase ``i`` uses committee
        ``(i-1) mod num_committees``), which is also how the Las Vegas variant
        of Section 3.2 proceeds.
        """
        return max(1, math.ceil(self.n / self.committee_size))

    @property
    def total_rounds(self) -> int:
        """Worst-case communication rounds: two per phase plus the final
        flush phase used by finishing nodes (see
        :class:`repro.core.agreement.CommitteeAgreementNode`)."""
        return 2 * (self.num_phases + 1)

    def committee_range(self, committee_index: int) -> range:
        """Node ids belonging to committee ``committee_index`` (0-based)."""
        if not 0 <= committee_index < self.num_committees:
            raise ConfigurationError(
                f"committee index {committee_index} out of range "
                f"(have {self.num_committees} committees)"
            )
        start = committee_index * self.committee_size
        stop = min(self.n, start + self.committee_size)
        return range(start, stop)

    def committee_for_phase(self, phase: int) -> int:
        """Committee index used in phase ``phase`` (1-based, cycling)."""
        if phase < 1:
            raise ConfigurationError(f"phases are 1-based, got {phase}")
        return (phase - 1) % self.num_committees

    def summary(self) -> dict[str, object]:
        """Compact dictionary of the derived parameters."""
        return {
            "n": self.n,
            "t": self.t,
            "alpha": self.alpha,
            "num_phases": self.num_phases,
            "committee_size": self.committee_size,
            "num_committees": self.num_committees,
            "regime": self.regime.value,
            "total_rounds": self.total_rounds,
        }


# ----------------------------------------------------------------------
# Analytic complexity predictions (Theorem 2, Section 1.2 and Section 4)
# ----------------------------------------------------------------------
def predicted_rounds(n: int, t: int, alpha: float = 1.0) -> float:
    """The paper's round bound ``O(min{t^2 log n / n, t / log n})``.

    Returned without the hidden constant (``alpha`` scales it) so that curves
    can be compared shape-wise against measurements.
    """
    if t <= 0:
        return 1.0
    log_n = log2n(n)
    return alpha * min(t * t * log_n / n, t / log_n) + 1.0


def predicted_rounds_chor_coan(n: int, t: int, alpha: float = 1.0) -> float:
    """Chor–Coan's (expected) ``O(t / log n)`` round bound."""
    if t <= 0:
        return 1.0
    return alpha * t / log2n(n) + 1.0


def predicted_rounds_deterministic(t: int) -> float:
    """The deterministic ``t + 1`` round lower bound / ``O(t)`` upper bound."""
    return float(t + 1)


def lower_bound_bar_joseph_ben_or(n: int, t: int, alpha: float = 1.0) -> float:
    """Bar-Joseph & Ben-Or's ``Omega(t / sqrt(n log n))`` lower bound (Theorem 1)."""
    if t <= 0:
        return 1.0
    return alpha * t / math.sqrt(n * log2n(n)) + 1.0


def predicted_messages(n: int, t: int, alpha: float = 1.0) -> float:
    """The paper's message bound ``O(min{n t^2 log n, n^2 t / log n})`` (Section 1.2)."""
    if t <= 0:
        return float(n * n)
    log_n = log2n(n)
    return alpha * min(n * t * t * log_n, n * n * t / log_n)


def predicted_messages_chor_coan(n: int, t: int, alpha: float = 1.0) -> float:
    """Chor–Coan's message complexity ``O(n^2 t / log n)``."""
    if t <= 0:
        return float(n * n)
    return alpha * n * n * t / log2n(n)


def regime_of(n: int, t: int) -> Regime:
    """Return which regime ``(n, t)`` falls into (``t <= n/log^2 n`` or not)."""
    validate_n_t(n, t)
    log_n = log2n(n)
    return Regime.QUADRATIC if t <= n / (log_n * log_n) else Regime.LINEAR


def crossover_t(n: int) -> float:
    """The fault bound ``t = n / log^2 n`` at which the two branches meet.

    For ``t`` below this value the paper's bound is strictly smaller than
    Chor–Coan's; above it the two coincide asymptotically (Section 1.2).
    """
    log_n = log2n(n)
    return n / (log_n * log_n)
