"""Outside-in layer ledger: self time and counts at the simulator's layer boundaries.

The benchmark does not edit the program to trace it.  :class:`Ledger`
replaces the public functions and methods of each layer with timing wrappers
at run time (module and class attributes), and :meth:`Ledger.uninstall` puts
every original object back.  A wrapper records

* ``calls`` -- entries that are not nested inside the same layer (a kernel
  hook calling ``super()`` is one call, not two);
* self time -- its inclusive time minus the inclusive time of the wrapped
  calls nested inside it;
* layer counters computed from the call's arguments or result (share draws,
  loss draws, live rows, store hits).

Because self times telescope, the self times of all layers plus the traced
time covered by no wrapper add up to the traced wall time exactly, in
integer nanoseconds; :func:`ledger_metrics` checks that identity and flags a
run whose uncovered share exceeds :data:`RESIDUAL_LIMIT`.

``README.md`` maps each layer to its metrics and to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

#: Largest share of traced wall time that may stay outside every wrapper.
#: The uncovered time is the benchmark's own loop (correctness checks,
#: temp-store set-up), which the run keeps small.
RESIDUAL_LIMIT = 0.05

#: Every label a wrapper reports under (fixed, so every workload reports the
#: same metric names; a layer a workload bypasses reads 0).
LABELS = (
    "engine.select_engine",
    "engine.run_sweep",
    "vectorized.trial_generator",
    "vectorized.inputs",
    "phase_engine.run_batch",
    "phase_engine.draw_shares",
    "phase_engine.finalize",
    "planes.ops",
    "adversary.setup",
    "adversary.round1",
    "adversary.pre_coin",
    "adversary.round2",
    "adversary.compact",
    "topology.build",
    "topology.counting.receive_counts",
    "topology.counting.signed_counts",
    "topology.counting.delivered_edges",
    "topology.loss.sample",
    "sweeps.run_spec",
    "sweeps.spec_keys",
    "store.open",
    "store.put",
    "store.get",
    "store.flush_index",
    "store.contains",
)

COUNTERS = (
    "draw_shares.trial_draws",
    "draw_shares.live_rows",
    "draw_shares.batch_rows",
    "loss.draws",
    "store.hits",
    "store.lookups",
)

_ADVERSARY_HOOKS = ("setup", "round1", "pre_coin", "round2", "compact")


def _running_rows(running: Any) -> int:
    return int(np.count_nonzero(running))


@dataclass
class Ledger:
    """Layer wrappers plus the self-time / count accounting they feed."""

    self_ns: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    #: Inclusive time of outermost wrapped calls (the covered part of wall time).
    covered_ns: int = 0
    #: While True, wrappers call straight through and record nothing (the
    #: benchmark's own read-backs and checks stay out of the layers).
    paused: bool = False
    _child_ns: list[int] = field(default_factory=list)
    _active: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABELS, 0))
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- accounting ------------------------------------------------------
    def _wrap(
        self,
        label: str,
        fn: Callable,
        count: Callable[[Ledger, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        stack = self._child_ns
        active = self._active
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if not active[label]:
                calls[label] += 1
            active[label] += 1
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                active[label] -= 1
                self_ns[label] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_ns += elapsed

        wrapper.__ledger_original__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap_function(self, fn: Callable, label: str, count=None) -> None:
        """Rebind ``fn`` to its wrapper in every loaded ``repro`` module."""
        wrapper = self._wrap(label, fn, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _wrap_method(self, cls: type, name: str, label: str, count=None) -> None:
        """Wrap ``cls.name`` when ``cls`` itself defines it."""
        if name in vars(cls):
            self._patch(cls, name, self._wrap(label, vars(cls)[name], count))

    def install(self) -> None:
        """Wrap every layer boundary (the labels in :data:`LABELS`)."""
        if self._patches:
            raise RuntimeError("ledger wrappers are already installed")
        import repro.engine as engine
        import repro.simulator.phase_engine as phase_engine
        import repro.simulator.vectorized as vectorized
        import repro.sweeps.executor as executor
        import repro.topology as topology
        import repro.topology.counting as counting
        import repro.topology.loss as loss
        from repro.adversary.kernels import ADVERSARY_PLANE_KERNELS, AdversaryKernel
        from repro.simulator.planes import resolve_backend
        from repro.sweeps.store import ResultsStore

        def draw_counts(ledger: Ledger, args: tuple, kwargs: dict, result: Any) -> None:
            running = args[1]
            live = _running_rows(running)
            ledger.counters["draw_shares.trial_draws"] += live
            ledger.counters["draw_shares.live_rows"] += live
            ledger.counters["draw_shares.batch_rows"] += len(running)

        def loss_counts(ledger: Ledger, args: tuple, kwargs: dict, result: Any) -> None:
            n, running = args[2], args[4]
            ledger.counters["loss.draws"] += _running_rows(running) * n * n

        def contains_counts(ledger: Ledger, args: tuple, kwargs: dict, result: Any) -> None:
            ledger.counters["store.lookups"] += 1
            ledger.counters["store.hits"] += bool(result)

        self._wrap_function(engine.select_engine, "engine.select_engine")
        self._wrap_function(engine.run_sweep, "engine.run_sweep")
        self._wrap_function(vectorized.trial_generator, "vectorized.trial_generator")
        self._wrap_function(vectorized._trial_inputs, "vectorized.inputs")
        self._wrap_method(phase_engine.PhaseEngine, "run_batch", "phase_engine.run_batch")
        self._wrap_function(
            phase_engine.draw_committee_shares, "phase_engine.draw_shares", draw_counts
        )
        self._wrap_function(phase_engine.finalize_planes, "phase_engine.finalize")

        plane_class = type(resolve_backend(None).zeros(1, 1))
        for name, value in list(vars(plane_class).items()):
            if callable(value) and not name.startswith("_"):
                self._wrap_method(plane_class, name, "planes.ops")

        for cls in {AdversaryKernel, *ADVERSARY_PLANE_KERNELS.values()}:
            for hook in _ADVERSARY_HOOKS:
                self._wrap_method(cls, hook, f"adversary.{hook}")

        self._wrap_function(topology.build_topology, "topology.build")
        channels = (
            counting.AdjacencyCounter,
            counting.DenseDeliveredChannel,
            counting.PackedDeliveredChannel,
        )
        for cls in channels:
            for name in ("receive_counts", "receive_counts_words"):
                self._wrap_method(cls, name, "topology.counting.receive_counts")
            self._wrap_method(cls, "signed_counts", "topology.counting.signed_counts")
            for name in ("delivered_edges", "delivered_edges_words"):
                self._wrap_method(cls, name, "topology.counting.delivered_edges")
        self._wrap_function(loss.sample_delivered, "topology.loss.sample", loss_counts)
        self._wrap_function(loss.sample_delivered_words, "topology.loss.sample", loss_counts)

        self._wrap_function(executor.run_spec, "sweeps.run_spec")
        self._wrap_function(executor.spec_keys, "sweeps.spec_keys")
        self._wrap_method(ResultsStore, "__init__", "store.open")
        self._wrap_method(ResultsStore, "put", "store.put")
        self._wrap_method(ResultsStore, "get", "store.get")
        self._wrap_method(ResultsStore, "flush_index", "store.flush_index")
        self._wrap_method(ResultsStore, "__contains__", "store.contains", contains_counts)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Record nothing inside the block (its time stays unattributed)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def __enter__(self) -> Ledger:
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def ledger_metrics(ledger: Ledger, wall_ns: int) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one traced segment of ``wall_ns`` nanoseconds.

    Returns the metrics and whether the uncovered share stayed within
    :data:`RESIDUAL_LIMIT`.  Raises ``RuntimeError`` when the ledger does not
    close (layer self times plus uncovered time differ from the wall time),
    which would mean the accounting itself is broken.
    """
    unattributed = wall_ns - ledger.covered_ns
    if sum(ledger.self_ns.values()) + unattributed != wall_ns or unattributed < 0:
        raise RuntimeError(
            f"layer ledger does not close: self {sum(ledger.self_ns.values())} ns "
            f"+ unattributed {unattributed} ns != wall {wall_ns} ns"
        )
    self_s = {label: ns / 1e9 for label, ns in ledger.self_ns.items()}
    calls = ledger.calls
    counters = ledger.counters
    metrics: dict[str, float] = {
        "engine.select_engine.calls": calls["engine.select_engine"],
        "engine.select_engine.self_s": self_s["engine.select_engine"],
        "engine.run_sweep.self_s": self_s["engine.run_sweep"],
        "vectorized.trial_generator.calls": calls["vectorized.trial_generator"],
        "vectorized.trial_generator.self_s": self_s["vectorized.trial_generator"],
        "vectorized.inputs.self_s": self_s["vectorized.inputs"],
        "phase_engine.run_batch.self_s": self_s["phase_engine.run_batch"],
        "phase_engine.draw_shares.calls": calls["phase_engine.draw_shares"],
        "phase_engine.draw_shares.self_s": self_s["phase_engine.draw_shares"],
        "phase_engine.draw_shares.trial_draws": counters["draw_shares.trial_draws"],
        "phase_engine.live_row_frac": (
            counters["draw_shares.live_rows"] / counters["draw_shares.batch_rows"]
            if counters["draw_shares.batch_rows"]
            else 0.0
        ),
        "phase_engine.finalize.self_s": self_s["phase_engine.finalize"],
        "planes.ops.calls": calls["planes.ops"],
        "planes.ops.self_s": self_s["planes.ops"],
    }
    for hook in _ADVERSARY_HOOKS:
        metrics[f"adversary.{hook}.calls"] = calls[f"adversary.{hook}"]
        metrics[f"adversary.{hook}.self_s"] = self_s[f"adversary.{hook}"]
    metrics["topology.build.self_s"] = self_s["topology.build"]
    for op in ("receive_counts", "signed_counts", "delivered_edges"):
        metrics[f"topology.counting.{op}.calls"] = calls[f"topology.counting.{op}"]
        metrics[f"topology.counting.{op}.self_s"] = self_s[f"topology.counting.{op}"]
    metrics["topology.loss.sample.calls"] = calls["topology.loss.sample"]
    metrics["topology.loss.sample.self_s"] = self_s["topology.loss.sample"]
    metrics["topology.loss.sample.draws"] = counters["loss.draws"]
    metrics["sweeps.run_spec.self_s"] = self_s["sweeps.run_spec"]
    metrics["sweeps.spec_keys.self_s"] = self_s["sweeps.spec_keys"]
    metrics["store.open.self_s"] = self_s["store.open"]
    for op in ("put", "get", "flush_index"):
        metrics[f"store.{op}.calls"] = calls[f"store.{op}"]
        metrics[f"store.{op}.self_s"] = self_s[f"store.{op}"]
    metrics["store.contains.self_s"] = self_s["store.contains"]
    metrics["store.hit_frac"] = (
        counters["store.hits"] / counters["store.lookups"] if counters["store.lookups"] else 0.0
    )
    metrics["traced.unattributed_share"] = unattributed / wall_ns
    return metrics, unattributed / wall_ns <= RESIDUAL_LIMIT


def largest_layers(ledger: Ledger, top: int = 4) -> list[tuple[str, float]]:
    """The ``top`` layers by self time, as (label, share of covered time)."""
    total = sum(ledger.self_ns.values()) or 1
    ranked = sorted(ledger.self_ns.items(), key=lambda item: item[1], reverse=True)
    return [(label, ns / total) for label, ns in ranked[:top]]
