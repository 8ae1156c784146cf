"""The four benchmark workloads, their per-call seeds and their correctness checks.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned.  Calls go through the program's public entry
points with its defaults (engine ``auto``, no ``backend=``, no ``workers=``):

* ``clique-straddle``, ``masked-er`` and ``lossy`` call
  :func:`repro.engine.run_sweep` once per operation;
* ``sweep-store`` runs the ``e6-quick`` grid through
  :func:`repro.sweeps.executor.run_spec` -- a cold pass that computes and
  writes all 48 points, then a warm pass over a reopened store that must be
  served entirely from cache.  An operation is one point.

Call ``i`` of a run with workload seed ``s`` uses pool entry
:func:`pool_index` ``(s, i)``; pool entries map to disjoint trial ranges, so
no two calls of a run share trials while fewer than :data:`POOL` calls run.
``reference.json`` holds the aggregates of every pool entry, which is what
lets the benchmark check each call's output bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro.engine
import repro.sweeps.executor
from repro.engine import SweepResult
from repro.simulator.vectorized import build_vectorized_simulator
from repro.sweeps.library import get_spec
from repro.sweeps.store import STORE_SCHEMA_VERSION, ResultsStore, result_from_record

#: Pool entries per workload; a run that makes more calls wraps around.
POOL = 256

#: Band half-width, in pool standard deviations, of the statistical check
#: used once the randomness stream changes (``STORE_SCHEMA_VERSION`` bump).
BAND_SIGMAS = 6.0

#: Passes that share one fresh store before it is retired.  Sixteen passes
#: of 48 records take the store past the 512-record index-amortisation
#: threshold, and retiring it keeps per-pass costs independent of how many
#: passes a run manages.
CYCLE_PASSES = 16

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

ENGINE_WORKLOADS: dict[str, dict[str, Any]] = {
    "clique-straddle": dict(
        n=2000, t=250, protocol="committee-ba-las-vegas", adversary="coin-attack",
        inputs="split", trials=100,
    ),
    "masked-er": dict(
        n=512, t=64, protocol="committee-ba-las-vegas", adversary="null",
        inputs="split", trials=16, topology="erdos-renyi", allow_timeout=True,
    ),
    "lossy": dict(
        n=128, t=16, protocol="committee-ba-las-vegas", adversary="null",
        inputs="split", trials=256, loss=0.05, allow_timeout=True,
    ),
}
SWEEP_WORKLOAD = "sweep-store"
SWEEP_SPEC = "e6-quick"
WORKLOADS = (*ENGINE_WORKLOADS, SWEEP_WORKLOAD)

#: Workloads whose every trial must terminate with agreement and validity:
#: the Las Vegas protocol on the loss-free clique, the paper's model.  Message
#: loss is outside that model, and a lossy trial can stall until the phase
#: cap (pool entry 30 of ``lossy`` has one), so ``lossy`` accepts censored
#: trials and its reference aggregates pin how many there are.
LAS_VEGAS_CLIQUE = ("clique-straddle",)
#: Workloads whose every trial must be censored at the phase cap.
CENSORED = ("masked-er",)


def pool_index(seed: int, call: int) -> int:
    """Pool entry of call ``call`` in a run with workload seed ``seed``."""
    return (seed * 97 + call) % POOL


def engine_base_seed(index: int) -> int:
    """``base_seed`` of an engine call; trial ``k`` uses Philox key ``(base_seed, k)``."""
    return 10_000 + index


def sweep_spec(index: int):
    """The ``e6-quick`` grid at pass ``index``: 48 ``by-point`` seeds per pass."""
    return dataclasses.replace(get_spec(SWEEP_SPEC), base_seed=100_000 + 64 * index)


#: Pool index of the untimed warm-up call (outside the checked pool).
WARMUP_INDEX = -1


def aggregates(result: SweepResult) -> tuple[float, float, float]:
    """The checked aggregates of one call: agreement rate, mean phases, mean messages."""
    return (result.agreement_rate, result.mean_phases, result.mean_messages)


def digest(values: tuple[float, float, float]) -> str:
    """Short digest of a point's aggregates (``repr`` keeps every float digit)."""
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:8]


@functools.lru_cache(maxsize=None)
def phase_cap(protocol: str, n: int, t: int) -> int:
    """The engine's phase cap: ``max_phases`` for Las Vegas runs, else ``num_phases``."""
    simulator = build_vectorized_simulator(n, t, protocol=protocol)
    return simulator.max_phases if simulator.las_vegas else simulator.params.num_phases


# ----------------------------------------------------------------------
# Reference and checks
# ----------------------------------------------------------------------
def load_reference() -> dict[str, Any]:
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Checker:
    """Checks call outputs against ``reference.json``.

    While the reference's ``store_schema`` equals the program's
    ``STORE_SCHEMA_VERSION`` the aggregates must match bit for bit.  After a
    documented stream bump they must fall within :data:`BAND_SIGMAS` pool
    standard deviations of the pool mean (a value with no spread in the pool,
    such as a censored phase count, must still match exactly).
    """

    reference: dict[str, Any]

    @property
    def exact(self) -> bool:
        return self.reference["store_schema"] == STORE_SCHEMA_VERSION

    def _band(self, values: tuple[float, ...], band: dict[str, list[float]]) -> list[str]:
        problems = []
        for name, value, mean, std in zip(
            ("agreement_rate", "mean_phases", "mean_messages"), values, band["mean"], band["std"]
        ):
            if abs(value - mean) > BAND_SIGMAS * std + 1e-9 * max(1.0, abs(mean)):
                problems.append(f"{name} {value!r} outside {mean!r} +- {BAND_SIGMAS} x {std!r}")
        return problems

    def engine_call(self, workload: str, index: int, result: SweepResult) -> list[str]:
        """Reasons the call at pool ``index`` is wrong (empty when it is right)."""
        config = ENGINE_WORKLOADS[workload]
        problems = []
        cap = phase_cap(config["protocol"], config["n"], config["t"])
        if any(trial.phases > cap for trial in result.trials):
            problems.append(f"a trial ran past the {cap}-phase cap")
        if any(trial.timed_out and trial.phases != cap for trial in result.trials):
            problems.append(f"a trial timed out before the {cap}-phase cap")
        if workload in LAS_VEGAS_CLIQUE and not all(
            trial.agreement and trial.validity and not trial.timed_out for trial in result.trials
        ):
            problems.append("a Las Vegas clique trial lost agreement/validity or timed out")
        if workload in CENSORED and not all(
            trial.timed_out and trial.phases == cap for trial in result.trials
        ):
            problems.append(f"a trial was not censored at the {cap}-phase cap")
        if len(result.trials) != config["trials"]:
            problems.append(f"{len(result.trials)} trials instead of {config['trials']}")
        values = aggregates(result)
        entry = self.reference["workloads"][workload]
        if self.exact:
            expected = tuple(entry["calls"][index])
            if values != expected:
                problems.append(f"aggregates {values!r} != reference {expected!r}")
        else:
            problems.extend(self._band(values, entry["band"]))
        return problems

    def sweep_pass(
        self, index: int, results: list[tuple[Any, SweepResult]]
    ) -> list[list[str]]:
        """Per-point reasons the cold pass at pool ``index`` is wrong."""
        entry = self.reference["workloads"][SWEEP_WORKLOAD]
        problems: list[list[str]] = []
        for position, (point, result) in enumerate(results):
            point_problems = []
            cap = phase_cap(point.protocol, point.n, point.t)
            if any(trial.phases > cap for trial in result.trials):
                point_problems.append(f"{point.label()}: a trial ran past the {cap}-phase cap")
            if self.exact:
                expected = entry["digests"][index][position]
                if digest(aggregates(result)) != expected:
                    point_problems.append(f"{point.label()}: aggregates digest != reference")
            problems.append(point_problems)
        if not self.exact:
            pass_values = pass_aggregates([result for _, result in results])
            band_problems = self._band(pass_values, entry["band"])
            if band_problems:
                problems = [point + band_problems for point in problems]
        return problems


def pass_aggregates(results: list[SweepResult]) -> tuple[float, float, float]:
    """Mean of the per-point aggregates over one sweep pass."""
    columns = list(zip(*(aggregates(result) for result in results)))
    return tuple(statistics.fmean(column) for column in columns)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass
class OpLog:
    """What one measured segment did."""

    #: (seconds, trial-phases) of each timed engine call or cold sweep pass.
    ops: list[tuple[float, int]] = dataclasses.field(default_factory=list)
    #: Latency samples: one per engine call, one per computed sweep point.
    call_s: list[float] = dataclasses.field(default_factory=list)
    #: Unscaled seconds of ``ops`` and the speed factor applied after each op.
    raw_busy_s: float = 0.0
    factors: list[float] = dataclasses.field(default_factory=list)
    warm_pass_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    bytes_written: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)

    def mark(self) -> tuple[int, int, int]:
        return len(self.ops), len(self.call_s), len(self.warm_pass_s)

    def scale_since(self, mark: tuple[int, int, int], factor: float) -> None:
        """Scale the timings recorded since ``mark`` to nominal machine speed."""
        ops, calls, warm = mark
        self.raw_busy_s += sum(seconds for seconds, _ in self.ops[ops:])
        self.ops[ops:] = [(seconds * factor, phases) for seconds, phases in self.ops[ops:]]
        self.call_s[calls:] = [seconds * factor for seconds in self.call_s[calls:]]
        self.warm_pass_s[warm:] = [seconds * factor for seconds in self.warm_pass_s[warm:]]
        self.factors.append(factor)


def run_engine_call(workload: str, index: int) -> SweepResult:
    return repro.engine.run_sweep(base_seed=engine_base_seed(index), **ENGINE_WORKLOADS[workload])


def engine_op(workload: str, index: int, checker: Checker | None, log: OpLog) -> None:
    """One timed ``run_sweep`` call, checked against the reference."""
    log.attempted += 1
    started = time.perf_counter()
    try:
        result = run_engine_call(workload, index)
    except Exception as error:  # a raising call is a failed operation
        log.fail(f"call {index} raised {type(error).__name__}: {error}")
        return
    elapsed = time.perf_counter() - started
    log.call_s.append(elapsed)
    log.ops.append((elapsed, sum(trial.phases for trial in result.trials)))
    if checker is not None:
        for problem in checker.engine_call(workload, index, result):
            log.fail(f"call {index}: {problem}")


def read_pass(store: ResultsStore, outcomes) -> list[tuple[Any, SweepResult]]:
    """The stored result of every point a ``run_spec`` report lists."""
    results = []
    for outcome in outcomes:
        record = store.get(outcome.key)
        if record is None:
            raise LookupError(f"point {outcome.point.label()} missing from the store")
        results.append((outcome.point, result_from_record(record)))
    return results


class SweepStoreRunner:
    """Cold + warm ``run_spec`` passes over temp stores under ``scratch``.

    Every store is a fresh directory made here and deleted when it retires,
    after :data:`CYCLE_PASSES` passes or at :meth:`close`.  The program's
    default store root is never touched.
    """

    def __init__(self, scratch: Path, ledger=None) -> None:
        self.scratch = scratch
        self.ledger = ledger
        self.root: Path | None = None
        self.passes = 0
        self.retired_bytes = 0

    def _retire(self) -> None:
        if self.root is not None:
            self.retired_bytes += sum(path.stat().st_size for path in self.root.glob("*.jsonl"))
            shutil.rmtree(self.root)
            self.root = None

    def close(self) -> None:
        self._retire()

    @property
    def cycle_done(self) -> bool:
        """True when the current store has served all its passes."""
        return self.passes == CYCLE_PASSES

    def op(self, index: int, checker: Checker | None, log: OpLog) -> None:
        """One cold pass (48 computed points) and one warm all-cached pass."""
        if self.root is None or self.passes >= CYCLE_PASSES:
            self._retire()
            self.root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
            self.passes = 0
        self.passes += 1
        spec = sweep_spec(index)
        points = len(spec.expand())
        log.attempted += 2 * points

        marks: list[float] = []
        started = time.perf_counter()
        try:
            store = ResultsStore(self.root)
            report = repro.sweeps.executor.run_spec(
                spec, store=store,
                progress=lambda outcome, i, total: marks.append(time.perf_counter()),
            )
        except Exception as error:
            log.fail(f"pass {index} raised {type(error).__name__}: {error}", 2 * points)
            return
        elapsed = time.perf_counter() - started
        log.call_s.extend(b - a for a, b in zip([started, *marks], marks))
        if report.computed != points:
            log.fail(f"pass {index}: {report.computed} of {points} points computed cold")

        try:
            with self.ledger.pause() if self.ledger else contextlib.nullcontext():
                results = read_pass(store, report.outcomes)
        except LookupError as error:
            log.fail(f"pass {index}: {error}", points)
            results = []
        log.ops.append(
            (elapsed, sum(trial.phases for _, result in results for trial in result.trials))
        )
        if checker is not None and results:
            for problems in checker.sweep_pass(index, results):
                if problems:
                    log.fail(f"pass {index}: {'; '.join(problems)}")

        started = time.perf_counter()
        try:
            warm = repro.sweeps.executor.run_spec(spec, store=ResultsStore(self.root))
        except Exception as error:
            log.fail(f"warm pass {index} raised {type(error).__name__}: {error}", points)
            return
        log.warm_pass_s.append(time.perf_counter() - started)
        if warm.cached != points:
            log.fail(
                f"warm pass {index}: only {warm.cached} of {points} points cached",
                points - warm.cached,
            )
