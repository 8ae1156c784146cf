"""Unified sweep execution — one entry point, two result families.

Every multi-trial experiment in the repository is a *sweep*: the same
``(n, t, protocol, adversary, inputs)`` configuration repeated over a seed
range.  Two result families can run a sweep:

``vectorized``
    A batched NumPy kernel: all trials execute simultaneously on
    ``(trials, n)`` arrays.  The committee-family protocols run on the engine
    of :mod:`repro.simulator.vectorized`; every other baseline protocol has a
    dedicated kernel in :mod:`repro.baselines.kernels`.  Which
    ``(protocol, adversary)`` pairs qualify is recorded in the
    :data:`PROTOCOL_KERNELS` capability registry; qualifying sweeps run orders
    of magnitude faster than the object simulator and are the only practical
    option at thousand-node scale.

``object``
    The faithful per-message object simulator
    (:mod:`repro.simulator.scheduler`), one seeded run per trial.  Supports
    every protocol and adversary.

:func:`run_sweep` auto-dispatches between them (``engine="auto"``) or obeys an
explicit choice.  The decision logic is exposed separately as
:func:`select_engine` so callers (and the README's dispatch table) can see
which configurations take the fast path.  :func:`run_coin_sweep` provides the
same dispatch for the standalone common-coin Monte-Carlo (experiment E2).

Parallelism is orthogonal to the family: ``workers > 1`` splits the trial
counter range over a ``ProcessPoolExecutor`` in contiguous chunks, whichever
family runs them.  Trial ``k`` always draws from its global counter — Philox
key ``(base_seed, k)`` on the kernels, master seed ``base_seed + k`` on the
object simulator (the ``trial_offset`` contract) — and the chunks' trials are
concatenated in range order, so a sharded sweep is bit-identical to the
single-process one; only wall-clock time changes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.adversary.kernels.capabilities import derive_behaviours
from repro.baselines.kernels import (
    BASELINE_KERNELS,
    CoinTrialsResult,
    KernelSpec,
    run_coin_trials,
)
from repro.core.parameters import ProtocolParameters
from repro.core.runner import (
    ADVERSARIES,
    PROTOCOLS,
    AgreementExperiment,
    TrialsResult,
    TrialSummary,
    run_single_trial,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.observability.export import read_trace, write_trace
from repro.observability.tracer import Tracer, activate, current_tracer
from repro.simulator.vectorized import (
    COMMITTEE_ENGINE_HOOKS,
    COMMITTEE_PROTOCOLS,
    run_vectorized_trials,
)

#: Engine names accepted by :func:`run_sweep`: ``auto`` or a result family.
#: The family decides the results (and the sweep-store key); ``workers``
#: alone decides how many processes compute them.
ENGINES = ("auto", "vectorized", "object")

#: Object-simulator adversary names -> committee-engine behaviours, derived
#: from the committee engine's full hook surface (the vectorised names
#: themselves are accepted as aliases so existing callers of
#: ``run_vectorized_trials`` can migrate without renaming).  Every registered
#: adversary strategy has a committee-family fast path.
ADVERSARY_FAST_PATH = derive_behaviours(COMMITTEE_ENGINE_HOOKS)

#: The committee engine's bit-identity guarantee is against its own
#: single-trial vectorised path (same (seed, k) Philox keys), not the object
#: simulator — the object nodes draw committee shares from per-node streams —
#: so every committee fast-path pair is recorded as statistically validated.
_COMMITTEE_EXACT: frozenset[str] = frozenset()


def _committee_spec(protocol: str) -> KernelSpec:
    """Capability record for one committee-family protocol."""
    return KernelSpec(
        name="committee",
        run_trials=partial(run_vectorized_trials, protocol=protocol),
        hooks=COMMITTEE_ENGINE_HOOKS,
        exact=_COMMITTEE_EXACT,
        supports_params=True,
        supports_topology=True,
        supports_backend=True,
        protocol_kwargs=frozenset({"alpha"}),
    )


#: protocol -> kernel capability record: which adversaries (and options) have
#: a vectorised fast path.  Committee-family entries point at the committee
#: engine; the baselines bring their own kernels.
PROTOCOL_KERNELS: dict[str, KernelSpec] = {
    **{
        protocol: _committee_spec(protocol)
        for protocol in COMMITTEE_PROTOCOLS
    },
    **BASELINE_KERNELS,
}

#: Protocols with a vectorised implementation (for some adversaries).
VECTORIZED_PROTOCOLS = tuple(sorted(PROTOCOL_KERNELS))

#: Below this much estimated work (``trials * n^2`` message deliveries) the
#: process-pool startup cost outweighs the parallelism.
_MIN_WORK_FOR_PROCESSES = 5_000_000

#: Trial-range chunks handed out per worker, per family.  A kernel batch is
#: cheapest whole, so each worker takes one; object-simulator trials vary in
#: run time, so four chunks per worker keep the pool load-balanced.
_CHUNKS_PER_WORKER = {"vectorized": 1, "object": 4}


@dataclass
class SweepResult(TrialsResult):
    """A :class:`TrialsResult` that also records the result family that
    produced it (``"vectorized"`` or ``"object"``)."""

    engine: str = "object"


def vectorizable(
    protocol: str,
    adversary: str,
    *,
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
) -> bool:
    """True when the configuration has a modelled vectorised equivalent.

    The decision is a :data:`PROTOCOL_KERNELS` lookup: the pair must have a
    registered fault behaviour, any custom round cap must be honoured by the
    kernel, an off-clique topology or positive message loss requires the
    kernel's masked communication planes (``supports_topology``), protocol
    kwargs must be within the kernel's modelled set, and any adversary kwargs
    (e.g. explicit target lists or per-phase spend limits) force the object
    path.
    """
    spec = PROTOCOL_KERNELS.get(protocol)
    if spec is None:
        return False
    if adversary not in spec.behaviours:
        return False
    if max_rounds is not None and not spec.supports_max_rounds:
        return False
    if (topology != "clique" or loss > 0.0) and not spec.supports_topology:
        return False
    if adversary_kwargs:
        return False
    if protocol_kwargs and set(protocol_kwargs) - set(spec.protocol_kwargs):
        return False
    return True


def select_engine(
    protocol: str,
    adversary: str,
    *,
    engine: str = "auto",
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
    trials: int | None = None,
    n: int | None = None,
) -> str:
    """Resolve ``engine`` to the result family that runs the configuration.

    ``"auto"`` takes ``"vectorized"`` whenever :func:`vectorizable` holds and
    ``"object"`` otherwise; an explicit family is returned as given.  The
    sweep size (``trials``, ``n``) is accepted for existing callers but never
    changes the family: only the pool size depends on it
    (:func:`_pool_size`).

    Raises:
        ConfigurationError: For unknown engine names, or when
            ``engine="vectorized"`` is forced for a configuration no kernel
            models.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; available: {ENGINES}")
    fast = vectorizable(
        protocol,
        adversary,
        max_rounds=max_rounds,
        topology=topology,
        loss=loss,
        protocol_kwargs=protocol_kwargs,
        adversary_kwargs=adversary_kwargs,
    )
    if engine == "vectorized" and not fast:
        raise ConfigurationError(
            f"no vectorized kernel for protocol={protocol!r} "
            f"adversary={adversary!r} with the given options; "
            "use engine='object' (or 'auto')"
        )
    if engine == "auto":
        return "vectorized" if fast else "object"
    return engine


def _pool_size(
    engine: str, family: str, trials: int, n: int, workers: int | None
) -> int:
    """How many processes a sweep runs on.

    An explicit ``workers`` is honoured for either family (at most one
    process per trial).  Without one, only ``engine="auto"`` escalates: a
    large object sweep — big enough for the pool startup to pay off — gets
    one process per CPU.  An explicit engine without ``workers`` never spawns
    a process.
    """
    if workers is None:
        large = trials > 1 and trials * n * n >= _MIN_WORK_FOR_PROCESSES
        if engine != "auto" or family != "object" or not large:
            return 1
        workers = os.cpu_count() or 1
    return max(1, min(workers, trials))


def _run_range(
    experiment: AgreementExperiment,
    family: str,
    count: int,
    base_seed: int,
    trial_offset: int,
    params: ProtocolParameters | None,
    backend: str | None,
) -> list[TrialSummary]:
    """Run one contiguous trial range serially on ``family``.

    Trial ``k`` of the range uses the global counter ``trial_offset + k``:
    master seed ``base_seed + trial_offset + k`` on the object simulator,
    the counter-based Philox key ``(base_seed, trial_offset + k)`` on the
    kernels, which record that counter as the trial's ``seed``
    (:func:`repro.simulator.phase_engine.finalize_planes`).
    """
    if family == "object":
        start = base_seed + trial_offset
        return [run_single_trial(experiment, start + k) for k in range(count)]
    spec = PROTOCOL_KERNELS[experiment.protocol]
    kwargs: dict[str, Any] = {
        key: value
        for key, value in experiment.protocol_kwargs.items()
        if key in spec.protocol_kwargs
    }
    if spec.supports_params:
        kwargs["params"] = params
        if experiment.alpha is not None:
            kwargs["alpha"] = experiment.alpha
        else:
            kwargs.setdefault("alpha", 4.0)
    if spec.supports_max_rounds and experiment.max_rounds is not None:
        kwargs["max_rounds"] = experiment.max_rounds
    # Backends are bit-identical, so the choice is pure execution policy:
    # it never reaches the sweep-store keys, and kernels without plane state
    # (closed-form tallies) simply ignore it by not receiving it.
    if spec.supports_backend and backend is not None:
        kwargs["backend"] = backend
    # The clique/loss-free default passes *no* masking kwargs, keeping the
    # historical code path (and its results) bit for bit.
    if experiment.topology != "clique" or experiment.loss > 0.0:
        from repro.topology import build_topology

        if experiment.topology != "clique":
            kwargs["adjacency"] = build_topology(experiment.topology, experiment.n)
        kwargs["loss"] = experiment.loss
    summaries = spec.run_trials(
        experiment.n,
        experiment.t,
        adversary=spec.behaviours[experiment.adversary],
        inputs=experiment.inputs,
        trials=count,
        seed=base_seed,
        trial_offset=trial_offset,
        **kwargs,
    )
    if not experiment.allow_timeout and any(summary.timed_out for summary in summaries):
        raise SimulationError(
            f"{experiment.protocol} sweep exceeded its round cap; "
            "pass allow_timeout=True to accept censored trials"
        )
    return summaries


def _run_shard(payload: tuple[tuple, tuple[int, str] | None]) -> list[TrialSummary]:
    """Worker entry point: one chunk of a sharded sweep.

    ``payload`` is the chunk's :func:`_run_range` arguments plus, when the
    parent is tracing, a ``(shard_index, path)`` child-trace assignment: the
    worker then runs under its own shard-tagged :class:`Tracer`, records the
    chunk as one ``sweep.shard`` span and exports the trace to ``path`` for
    the parent to absorb (tracers are per process, never inherited through
    the pool).
    """
    range_args, trace_spec = payload
    if trace_spec is None:
        return _run_range(*range_args)
    shard_index, trace_path = trace_spec
    tracer = Tracer(run_id=f"shard-{shard_index}", shard=shard_index)
    count, trial_offset = range_args[2], range_args[4]
    with activate(tracer), tracer.span(
        "sweep.shard", trial_offset=trial_offset, trials=count
    ):
        summaries = _run_range(*range_args)
    write_trace(tracer, trace_path)
    return summaries


def _run_sharded(
    experiment: AgreementExperiment,
    family: str,
    trials: int,
    base_seed: int,
    trial_offset: int,
    params: ProtocolParameters | None,
    backend: str | None,
    pool_size: int,
) -> list[TrialSummary]:
    """Split ``[trial_offset, trial_offset + trials)`` over a process pool.

    The range is cut into contiguous chunks (``_CHUNKS_PER_WORKER`` per
    worker); each chunk runs :func:`_run_range` at its own ``trial_offset``,
    so every trial draws from the key it would use in one unsplit batch, and
    the chunks' trials are concatenated in range order — bit-identical to
    the single-process sweep.
    """
    chunks = min(trials, pool_size * _CHUNKS_PER_WORKER[family])
    size = -(-trials // chunks)
    tracer = current_tracer()
    child_dir = (
        tempfile.mkdtemp(prefix="repro-trace-shards-") if tracer.enabled else None
    )
    payloads = [
        (
            (
                experiment, family, min(size, trials - start), base_seed,
                trial_offset + start, params, backend,
            ),
            None
            if child_dir is None
            else (shard, os.path.join(child_dir, f"shard-{shard:03d}.jsonl")),
        )
        for shard, start in enumerate(range(0, trials, size))
    ]
    try:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_run_shard, payloads))
        # Absorb the child traces in chunk order; each child's events keep
        # their own sequence numbers, so the merged trace orders
        # deterministically by (shard, sequence) regardless of scheduling.
        for _, trace_spec in payloads:
            if trace_spec is not None and os.path.exists(trace_spec[1]):
                tracer.absorb(read_trace(trace_spec[1]), shard=trace_spec[0])
    finally:
        if child_dir is not None:
            shutil.rmtree(child_dir, ignore_errors=True)
    return [summary for part in parts for summary in part]


def run_sweep(
    n: int | None = None,
    t: int | None = None,
    *,
    experiment: AgreementExperiment | None = None,
    protocol: str = "committee-ba",
    adversary: str = "coin-attack",
    inputs: str = "split",
    trials: int = 10,
    base_seed: int = 0,
    alpha: float | None = None,
    engine: str = "auto",
    workers: int | None = None,
    params: ProtocolParameters | None = None,
    max_rounds: int | None = None,
    allow_timeout: bool = False,
    topology: str = "clique",
    loss: float = 0.0,
    backend: str | None = None,
    trial_offset: int = 0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
) -> SweepResult:
    """Run a multi-trial sweep on the most appropriate engine.

    Either pass an :class:`AgreementExperiment` via ``experiment`` or describe
    the configuration with ``n``/``t`` and the keyword fields.

    Args:
        engine: ``"auto"`` (default) picks the batched vectorised kernel
            whenever :data:`PROTOCOL_KERNELS` registers one for the
            ``(protocol, adversary)`` pair and otherwise falls back to the
            object simulator; ``"vectorized"`` / ``"object"`` force a
            result family.
        workers: Process count; ``workers > 1`` shards the trial range over
            a process pool for either family.  ``None`` runs in-process,
            except that ``engine="auto"`` gives a large object sweep one
            process per CPU.  Results never depend on it.
        params: Committee-geometry override for the committee-family kernels
            (used by E3 to decouple the declared ``t`` from the attack
            budget).
        trials: Number of independent trials; trial ``k`` uses master seed
            ``base_seed + k`` (object simulator) or Philox key
            ``(base_seed, k)`` (vectorised kernels).
        trial_offset: Start of the call's trial-counter range (default 0).
            Trial ``k`` of the call uses the *global* counter
            ``trial_offset + k`` — master seed ``base_seed + trial_offset +
            k`` on the object simulator, Philox key ``(base_seed,
            trial_offset + k)`` on the vectorised kernels — so concatenating
            batches run at consecutive offsets is bit-identical to one
            unsplit sweep.  This is the contract sharded runs and sweep
            top-ups build on.
        backend: Plane-backend selection for the vectorised kernels (a
            :func:`repro.simulator.planes.available_backends` name; ``None``
            defers to ``$REPRO_PLANE_BACKEND`` then ``numpy``).  Backends
            are bit-identical, so results — and sweep-store cache keys —
            never depend on it; the object simulator and closed-form kernels
            have no planes and ignore it.

    Returns:
        A :class:`SweepResult` whose ``trials`` list and aggregate properties
        match :func:`repro.core.runner.run_trials`, with ``engine`` recording
        the result family that produced them.
    """
    if trials < 1:
        raise ConfigurationError(f"num_trials must be positive, got {trials}")
    if trial_offset < 0:
        raise ConfigurationError(f"trial_offset must be >= 0, got {trial_offset}")
    if experiment is None:
        if n is None or t is None:
            raise ConfigurationError("run_sweep needs either (n, t) or experiment=")
        experiment = AgreementExperiment(
            n=n,
            t=t,
            protocol=protocol,
            adversary=adversary,
            inputs=inputs,
            alpha=alpha,
            max_rounds=max_rounds,
            allow_timeout=allow_timeout,
            topology=topology,
            loss=loss,
            protocol_kwargs=dict(protocol_kwargs or {}),
            adversary_kwargs=dict(adversary_kwargs or {}),
        )
    elif n is not None or t is not None:
        raise ConfigurationError("pass either (n, t) or experiment=, not both")

    tracer = current_tracer()
    with tracer.span(
        "dispatch.select_engine",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        requested=engine,
    ):
        family = select_engine(
            experiment.protocol,
            experiment.adversary,
            engine=engine,
            max_rounds=experiment.max_rounds,
            topology=experiment.topology,
            loss=experiment.loss,
            protocol_kwargs=experiment.protocol_kwargs,
            adversary_kwargs=experiment.adversary_kwargs,
        )
    if params is not None and (
        family != "vectorized"
        or not PROTOCOL_KERNELS[experiment.protocol].supports_params
    ):
        raise ConfigurationError(
            "a committee-geometry override (params=) requires a vectorized "
            "committee-family kernel"
        )

    tracer.count(
        "dispatch.kernel_path" if family == "vectorized" else "dispatch.object_path"
    )
    pool_size = _pool_size(engine, family, trials, experiment.n, workers)
    with tracer.span(
        f"sweep.{family}",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        n=experiment.n,
        trials=trials,
    ):
        range_args = (
            experiment, family, trials, base_seed, trial_offset, params, backend,
        )
        if pool_size == 1:
            summaries = _run_range(*range_args)
        else:
            summaries = _run_sharded(*range_args, pool_size)
    return SweepResult(experiment=experiment, trials=summaries, engine=family)


# ----------------------------------------------------------------------
# Common-coin Monte-Carlo dispatch (experiment E2)
# ----------------------------------------------------------------------
def run_coin_sweep(
    n: int,
    budget: int,
    *,
    trials: int = 100,
    base_seed: int = 0,
    engine: str = "auto",
) -> CoinTrialsResult:
    """Monte-Carlo sweep of the standalone common coin under the straddle.

    ``engine="auto"``/``"vectorized"`` runs the batched kernel
    (:func:`repro.baselines.kernels.run_coin_trials`): the whole
    ``(trials, n)`` flip plane is drawn at once and every trial's outcome is
    evaluated vectorised.  ``engine="object"`` repeats
    :func:`repro.core.common_coin.run_common_coin` with the full scheduler and
    a live :class:`~repro.adversary.strategies.coin_attack.CoinAttackAdversary`
    over seeds ``base_seed + k`` — the serial loop experiment E2 originally
    shipped, kept for cross-validation.  The two draw different randomness, so
    they agree statistically, not bit-for-bit.
    """
    if engine in ("auto", "vectorized"):
        return run_coin_trials(n, budget, trials=trials, seed=base_seed)
    if engine != "object":
        raise ConfigurationError(
            f"unknown coin-sweep engine {engine!r}; "
            "available: ('auto', 'vectorized', 'object')"
        )
    from repro.adversary.strategies.coin_attack import CoinAttackAdversary
    from repro.core.common_coin import run_common_coin

    common = np.zeros(trials, dtype=bool)
    values = np.zeros(trials, dtype=np.int8)
    for k in range(trials):
        outcome = run_common_coin(n, CoinAttackAdversary(budget), seed=base_seed + k)
        common[k] = outcome.common
        values[k] = outcome.value or 0
    return CoinTrialsResult(
        n=n, budget=budget, trials=trials, common=common, values=values, engine="object"
    )


# ----------------------------------------------------------------------
# Introspection tables (README / `python -m repro engines`)
# ----------------------------------------------------------------------
def dispatch_table() -> list[dict[str, str]]:
    """One row per protocol × adversary pair: which engine ``auto`` picks.

    Rendered in the README and by ``python -m repro engines``.  ``kernel``
    names the batched kernel serving the fast path and ``validation`` records
    whether that pair is bit-identical to the object simulator or
    statistically cross-validated.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        for adversary in sorted(ADVERSARIES):
            fast = vectorizable(protocol, adversary)
            if fast and spec:
                if adversary in spec.inapplicable:
                    validation = "exact (no-op)"
                elif adversary in spec.exact:
                    validation = "exact"
                else:
                    validation = "statistical"
            else:
                validation = "-"
            rows.append(
                {
                    "protocol": protocol,
                    "adversary": adversary,
                    "auto engine": "vectorized" if fast else "object",
                    "kernel": spec.name if fast and spec else "-",
                    "fast-path behaviour": spec.behaviours[adversary] if fast and spec else "-",
                    "validation": validation,
                }
            )
    return rows


def kernel_support_table() -> list[dict[str, str]]:
    """One row per protocol: its kernel and the adversaries it vectorises.

    ``inapplicable`` lists — explicitly — the strategies with no lever on the
    protocol (their object implementations provably no-op; the fast path runs
    the exact failure-free behaviour for them), and ``object only`` the pairs
    whose lever the kernels do not model.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        if spec is None:
            rows.append(
                {
                    "protocol": protocol,
                    "kernel": "-",
                    "vectorized adversaries": "-",
                    "inapplicable": "-",
                    "object only": "-",
                    "max_rounds": "-",
                    "plane backend": "-",
                }
            )
            continue
        inapplicable = sorted(spec.inapplicable)
        supported = sorted(
            name
            for name in spec.behaviours
            if name in ADVERSARIES and name not in spec.inapplicable
        )
        unmodelled = sorted(
            name for name in ADVERSARIES if name not in spec.behaviours
        )
        rows.append(
            {
                "protocol": protocol,
                "kernel": spec.name,
                "vectorized adversaries": ", ".join(supported),
                "inapplicable": ", ".join(inapplicable) if inapplicable else "-",
                "object only": ", ".join(unmodelled) if unmodelled else "-",
                "max_rounds": "yes" if spec.supports_max_rounds else "object only",
                "topology/loss": "masked" if spec.supports_topology else "object only",
                # Backend-*kind*, not the backend list: the docs embed this
                # table byte-for-byte.
                "plane backend": (
                    "selectable" if spec.supports_backend else "numpy-bool"
                ),
            }
        )
    return rows


#: Off-clique validation tier per protocol, shown in the topology-support
#: table.  Deterministic protocols with replayable randomness stay *exact*
#: off-clique at ``loss == 0`` for the randomness-free behaviours; everything
#: else on the masked planes is statistical (the kernels and the object
#: nodes consume different streams); protocols without masked planes run
#: off-clique configurations on the object simulator only.
_TOPOLOGY_VALIDATION = {
    "phase-king": "exact (null/silent, loss=0); statistical otherwise",
    "rabin": "exact (null/silent, loss=0); statistical otherwise",
    "ben-or": "statistical",
}


def topology_support_table() -> list[dict[str, str]]:
    """One row per protocol: how off-clique / lossy configurations execute.

    ``off-clique engine`` reports where a ``topology != "clique"`` or
    ``loss > 0`` sweep runs (the masked vectorised planes, or the object
    simulator's per-round drop sets), and ``off-clique validation`` the
    cross-validation tier the test suite holds that path to.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        if spec is not None and spec.supports_topology:
            engine_name = "vectorized (masked planes)"
            validation = _TOPOLOGY_VALIDATION.get(protocol, "statistical")
        else:
            engine_name = "object (per-round drops)"
            validation = "object only"
        rows.append(
            {
                "protocol": protocol,
                "kernel": spec.name if spec is not None else "-",
                "off-clique engine": engine_name,
                "off-clique validation": validation,
            }
        )
    return rows


def markdown_engine_tables() -> dict[str, str]:
    """The introspection tables as marked, embeddable markdown blocks.

    Returns one block per table name (``"kernel-support"``, ``"dispatch"``,
    ``"topology-support"``): a GitHub-flavoured markdown table wrapped in
    ``<!-- engines:<name>:begin/end -->`` marker comments.  ``python -m repro
    engines --markdown`` prints these blocks verbatim; the README and
    ``docs/`` embed them between the same markers, and
    ``tests/test_docs.py`` asserts every embedded copy is byte-identical to
    this function's output — so the documented tables can never drift from
    the live :data:`PROTOCOL_KERNELS` registry.
    """
    from repro.metrics.reporting import format_markdown_table

    tables = {
        "kernel-support": format_markdown_table(kernel_support_table()),
        "dispatch": format_markdown_table(dispatch_table()),
        "topology-support": format_markdown_table(topology_support_table()),
    }
    return {
        name: (
            f"<!-- engines:{name}:begin -->\n"
            f"{table}\n"
            f"<!-- engines:{name}:end -->"
        )
        for name, table in tables.items()
    }


__all__ = [
    "ADVERSARY_FAST_PATH",
    "ENGINES",
    "PROTOCOL_KERNELS",
    "SweepResult",
    "VECTORIZED_PROTOCOLS",
    "dispatch_table",
    "kernel_support_table",
    "markdown_engine_tables",
    "run_coin_sweep",
    "run_sweep",
    "select_engine",
    "topology_support_table",
    "vectorizable",
]
