"""Cross-backend bit identity on the masked / lossy communication path.

PR 10 lifted the numpy pin: masked-topology and lossy runs now route their
per-recipient tallies through backend-aware channels
(:mod:`repro.topology.counting`), so the packed backend's AND+popcount word
tallies must reproduce the float32-sgemm reference *bit for bit* — the
delivered-edge Philox draws are sampled outside the backends, and every
tally is an exact integer either way.  Acceptance surfaces:

* **engine identity**: ``run_vectorized_trials`` under ``backend="packed"``
  matches ``"numpy"`` field-for-field over *every* topology generator
  crossed with loss in {0.0, 0.05, 0.3};
* **sharded identity**: a masked lossy ``workers=2`` sweep matches the
  single-process numpy reference trial-for-trial;
* **store keys**: a masked/lossy sweep point computed under one backend is
  a pure cache hit under the other (``point_key`` has no backend field);
* **kernel identity**: the phase-king baseline kernel accepts the backend
  kwarg and is bit-identical across backends off-clique and under loss;
* **tally unit behaviour**: :class:`~repro.topology.counting.MaskedCounter`
  and the packed :class:`~repro.topology.counting.AdjacencyCounter` strategy
  match the dense reference on ragged widths and signed (±1 share) planes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kernels.phase_king import run_phase_king_trials
from repro.engine import run_sweep
from repro.simulator.planes import pack_bools
from repro.simulator.vectorized import run_vectorized_trials
from repro.sweeps import ResultsStore, SweepSpec, run_spec
from repro.topology import TOPOLOGIES, build_topology
from repro.topology.counting import AdjacencyCounter, MaskedCounter, word_width

#: Every registered generator — the masked path must hold on all of them.
ALL_TOPOLOGIES = tuple(sorted(TOPOLOGIES))

#: Loss grid: the loss-free static-counter path, a light-loss path, and a
#: heavy-loss path where per-round delivered masks dominate.
LOSSES = (0.0, 0.05, 0.3)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_packed_matches_numpy_on_every_generator(self, topology, loss):
        adjacency = None if topology == "clique" else build_topology(topology, 24)
        kwargs = dict(
            adversary="static", inputs="split", trials=4, seed=13,
            adjacency=adjacency, loss=loss,
        )
        reference = run_vectorized_trials(24, 2, backend="numpy", **kwargs)
        packed = run_vectorized_trials(24, 2, backend="packed", **kwargs)
        assert packed == reference

    def test_sharded_masked_lossy_sweep_matches_serial_numpy(self):
        kwargs = dict(
            protocol="committee-ba", adversary="equivocate", inputs="split",
            trials=6, base_seed=21, topology="erdos-renyi", loss=0.05,
            allow_timeout=True,
        )
        serial = run_sweep(26, 3, engine="vectorized", backend="numpy", **kwargs)
        sharded = run_sweep(
            26, 3, engine="vectorized", workers=2, backend="packed", **kwargs
        )
        assert sharded.engine == "vectorized"
        assert [s.__dict__ for s in sharded.trials] == [
            s.__dict__ for s in serial.trials
        ]


class TestStoreKeysIgnoreTheBackend:
    def test_masked_lossy_points_cache_hit_across_backends(self, tmp_path):
        spec = SweepSpec(
            name="masked-backend-cache",
            protocols=("committee-ba",),
            adversaries=("static",),
            n_values=(20,),
            t_specs=("quarter",),
            topologies=("ring", "erdos-renyi"),
            losses=(0.0, 0.1),
            trials=2,
            seed_policy="by-point",
            base_seed=60,
        )
        store = ResultsStore(tmp_path / "store")
        first = run_spec(spec, store=store, backend="packed")
        assert first.computed == first.total
        second = run_spec(spec, store=store, backend="numpy")
        assert second.computed == 0
        assert second.cached == second.total


class TestPhaseKingKernelBackends:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("topology", ("ring", "erdos-renyi", "grid"))
    def test_backend_kwarg_is_bit_identical(self, topology, loss):
        adjacency = build_topology(topology, 21)
        kwargs = dict(
            adversary="equivocate", inputs="split",
            trials=4, seed=31, adjacency=adjacency, loss=loss,
        )
        reference = run_phase_king_trials(21, 5, backend="numpy", **kwargs)
        packed = run_phase_king_trials(21, 5, backend="packed", **kwargs)
        assert packed == reference


class TestTallyUnits:
    @pytest.mark.parametrize("n", (7, 64, 70, 130))
    def test_masked_counter_matches_bool_einsum_on_ragged_widths(self, n):
        rng = np.random.default_rng(n)
        batch = 5
        incoming = rng.random((batch, n, n)) < 0.6  # kept[b, j, i] layout
        words = np.zeros((batch, n, word_width(n)), dtype=np.uint64)
        for b in range(batch):
            words[b] = pack_bools(incoming[b].T.copy(), n)
        sent = rng.random((batch, n)) < 0.5
        expected = np.einsum(
            "bj,bji->bi", sent.astype(np.int64), incoming.astype(np.int64)
        )
        counter = MaskedCounter(words, n)
        got = counter.counts(pack_bools(sent, n))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", (70, 128))
    def test_packed_adjacency_strategy_matches_dense(self, n):
        rng = np.random.default_rng(2 * n)
        adjacency = rng.random((n, n)) < 0.5
        np.fill_diagonal(adjacency, True)
        adjacency &= adjacency.T
        dense = AdjacencyCounter(adjacency, packed=False)
        packed = AdjacencyCounter(adjacency, packed=True)
        assert not dense.wants_words
        assert packed.wants_words
        sent = rng.random((5, n)) < 0.5
        np.testing.assert_array_equal(
            packed.receive_counts(sent), dense.receive_counts(sent)
        )
        np.testing.assert_array_equal(
            packed.receive_counts_words(pack_bools(sent, n)),
            dense.receive_counts(sent),
        )
        np.testing.assert_array_equal(
            packed.delivered_edges_words(pack_bools(sent, n)),
            dense.delivered_edges(sent),
        )
        shares = rng.integers(-1, 2, size=(5, n)).astype(np.int8)
        np.testing.assert_array_equal(
            packed.signed_counts(shares), dense.signed_counts(shares)
        )
