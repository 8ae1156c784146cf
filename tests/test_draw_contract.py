"""The engine's randomness contract: raw-word draws equal the historical calls.

:class:`~repro.simulator.phase_engine.TrialBits` draws the committee shares
and the private-coin planes from raw Philox words and tracks each trial's
buffered uint32 half itself; the loss sampler compares raw words against an
integer threshold.  These tests pin both to the calls they replaced:

* every :meth:`TrialBits.draw` equals ``Generator.integers(0, 2, size=c)``
  on a twin generator, over random live masks, odd and zero counts, a
  generator that starts with a buffered half, interleaved ``random`` /
  ``binomial`` draws and compaction, and the synced generator state matches;
* after :meth:`PhaseEngine.run_batch` every generator — including trials
  archived by compaction — is in exactly the state the per-trial path leaves
  (committee, private-coin and lossy configurations);
* the loss sampler keeps exactly the edges of ``random() >= loss``;
* the straddle kernel's narrow adjustment plane gives the int64 coin at the
  edges of its dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.simulator.phase_engine as phase_engine
from repro.adversary.kernels import build_adversary_kernel
from repro.adversary.kernels.base import KernelContext
from repro.adversary.kernels.straddle import StraddleKernel
from repro.core.inputs import input_row
from repro.core.parameters import ProtocolParameters
from repro.exceptions import ConfigurationError
from repro.simulator.phase_engine import (
    PhaseEngine,
    TrialBits,
    committee_coin,
    draw_committee_shares,
)
from repro.simulator.vectorized import VectorizedAgreementSimulator, trial_generator
from repro.topology.loss import sample_delivered, sample_delivered_words

#: Committee width of the property test's share planes.
WIDTH = 9


def _twins(count: int, seed: int = 5):
    return (
        [trial_generator(seed, k) for k in range(count)],
        [trial_generator(seed, k) for k in range(count)],
    )


def _states_equal(left: np.random.Generator, right: np.random.Generator) -> bool:
    a, b = left.bit_generator.state, right.bit_generator.state
    if a.keys() != b.keys():
        return False
    for key in a:
        if isinstance(a[key], dict):
            if a[key].keys() != b[key].keys() or not all(
                np.array_equal(a[key][k], b[key][k]) for k in a[key]
            ):
                return False
        elif not np.array_equal(a[key], b[key]):
            return False
    return True


class IntegersBits:
    """The historical draw: one ``integers(0, 2, size=count)`` call per request."""

    def __init__(self, rngs):
        self._rngs = list(rngs)

    def draw(self, row, count):
        bits = self._rngs[row].integers(0, 2, size=count).astype(np.uint8)
        return (bits << 7).tobytes()

    def sync(self, rows):
        pass

    def compact(self, keep):
        self._rngs = [self._rngs[i] for i in keep]


# ----------------------------------------------------------------------
# TrialBits against Generator.integers
# ----------------------------------------------------------------------
_STEP = st.one_of(
    st.tuples(
        st.just("shares"),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.lists(st.lists(st.booleans(), min_size=WIDTH, max_size=WIDTH),
                 min_size=6, max_size=6),
    ),
    st.tuples(st.just("random"), st.integers(0, 5), st.integers(0, 3)),
    st.tuples(st.just("binomial"), st.integers(0, 5), st.integers(1, 4)),
    st.tuples(st.just("coin"), st.integers(0, 5), st.integers(0, 7)),
    st.tuples(st.just("compact"), st.lists(st.booleans(), min_size=6, max_size=6)),
)


class TestTrialBits:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        batch=st.integers(1, 6),
        buffered=st.lists(st.integers(0, 5), min_size=6, max_size=6),
        steps=st.lists(_STEP, max_size=25),
    )
    def test_draws_and_states_match_integers(self, batch, buffered, steps):
        mine, ref = _twins(batch)
        # Pre-draws of any length: odd ones leave a buffered half behind.
        for b in range(batch):
            for rng in (mine[b], ref[b]):
                rng.integers(0, 2, size=buffered[b])
        all_mine, all_ref = list(mine), list(ref)
        bits = TrialBits(mine)
        for step in steps:
            live = len(mine)
            kind = step[0]
            if kind == "shares":
                running = np.array(step[1][:live], dtype=bool)
                active = np.array(step[2][:live], dtype=bool) & running[:, None]
                shares = draw_committee_shares(bits, running, active)
                expected = np.zeros_like(shares)
                for b in range(live):
                    if running[b]:
                        drawn = ref[b].integers(0, 2, size=int(active[b].sum()))
                        expected[b, active[b]] = 2 * drawn - 1
                assert np.array_equal(shares, expected)
            elif kind == "coin":
                b, count = step[1] % live, step[2]
                drawn = np.frombuffer(bits.draw(b, count), dtype=np.uint8) >> 7
                assert np.array_equal(drawn, ref[b].integers(0, 2, size=count))
            elif kind == "random":
                b, count = step[1] % live, step[2]
                assert np.array_equal(mine[b].random(count), ref[b].random(count))
            elif kind == "binomial":
                b, trials = step[1] % live, step[2]
                assert np.array_equal(
                    mine[b].binomial(trials, 0.5, size=3),
                    ref[b].binomial(trials, 0.5, size=3),
                )
            else:
                keep_mask = np.array(step[1][:live], dtype=bool)
                if not keep_mask.any():
                    continue
                keep = np.flatnonzero(keep_mask)
                bits.sync(np.flatnonzero(~keep_mask))
                bits.compact(keep)
                mine = [mine[i] for i in keep]
                ref = [ref[i] for i in keep]
        bits.sync(range(len(mine)))
        for left, right in zip(all_mine, all_ref):
            assert _states_equal(left, right)

    def test_buffered_half_is_consumed_first(self):
        mine, ref = _twins(1)
        for rng in (mine[0], ref[0]):
            rng.integers(0, 2, size=3)  # leaves one half buffered
        bits = TrialBits(mine)
        for count in (1, 0, 2, 5, 1, 4):
            drawn = np.frombuffer(bits.draw(0, count), dtype=np.uint8) >> 7
            assert np.array_equal(drawn, ref[0].integers(0, 2, size=count))
        bits.sync([0])
        assert _states_equal(mine[0], ref[0])
        # Back on the generator, the next uint32 draw sees the same buffer.
        assert np.array_equal(
            mine[0].integers(0, 2, size=7), ref[0].integers(0, 2, size=7)
        )

    def test_rejects_shared_and_unbuffered_generators(self):
        rng = trial_generator(1, 0)
        with pytest.raises(ConfigurationError):
            TrialBits([rng, rng])
        with pytest.raises(ConfigurationError):
            TrialBits([np.random.Generator(np.random.MT19937(0))])


# ----------------------------------------------------------------------
# Generator state after run_batch
# ----------------------------------------------------------------------
class RecordingBits(TrialBits):
    """TrialBits that remembers how many rows compaction archived."""

    archived = 0

    def compact(self, keep):
        RecordingBits.archived += len(self._raw) - len(keep)
        super().compact(keep)


def _engine_case(name):
    """(PhaseEngine kwargs, adversary kernel) of one run_batch configuration."""
    n, t = 47, 7
    params = ProtocolParameters.derive(n, t)
    committee = dict(
        n=n, t=t, params=params, coin="committee", las_vegas=True,
        num_phases=params.num_phases, max_phases=60,
    )
    skeleton = dict(
        n=n, t=t, params=params, coin="private",
        las_vegas=True, num_phases=params.num_phases, max_phases=60,
        rotate_committee=False,
    )
    return {
        "committee-straddle": (committee, "straddle"),
        "committee-noise": (committee, "random-noise"),
        "committee-lossy": ({**committee, "loss": 0.05}, "none"),
        "ben-or": (skeleton, "none"),
        "ben-or-straddle": (skeleton, "straddle"),
        "ben-or-lossy": ({**skeleton, "loss": 0.05}, "none"),
    }[name]


def _run(config, adversary, inputs, rngs):
    engine = PhaseEngine(**config)
    kernel = build_adversary_kernel(
        adversary, n=config["n"], t=config["t"], params=config["params"]
    )
    return engine.run_batch(inputs, rngs, kernel)


class TestRunBatchState:
    TRIALS = 12

    def _inputs(self, rngs, n):
        # Odd n: each trial enters the engine with a buffered half.  The
        # first third turns unanimous, so those trials finish early and
        # compaction archives them while the rest still run.
        rows = np.stack([input_row(n, "random", rng) for rng in rngs])
        rows[: len(rngs) // 3] = 1
        return rows

    @pytest.mark.parametrize("adversary", ["straddle", "none"])
    def test_committee_matches_per_trial_run(self, monkeypatch, adversary):
        monkeypatch.setattr(phase_engine, "TrialBits", RecordingBits)
        RecordingBits.archived = 0
        n, t = 47, 7
        simulator = VectorizedAgreementSimulator(
            n=n, t=t, params=ProtocolParameters.derive(n, t), adversary=adversary
        )
        batch_rngs, loop_rngs = _twins(self.TRIALS, seed=8)
        inputs = self._inputs(batch_rngs, n)
        assert np.array_equal(inputs, self._inputs(loop_rngs, n))
        batched = simulator.run_batch(inputs, batch_rngs)
        looped = [
            simulator.run(inputs[k], loop_rngs[k], k) for k in range(self.TRIALS)
        ]
        assert batched == looped
        assert RecordingBits.archived > 0
        for left, right in zip(batch_rngs, loop_rngs):
            assert _states_equal(left, right)

    @pytest.mark.parametrize("name", [
        "committee-straddle", "committee-noise", "committee-lossy",
        "ben-or", "ben-or-straddle", "ben-or-lossy",
    ])
    def test_state_matches_integers_path(self, monkeypatch, name):
        config, adversary = _engine_case(name)
        n = config["n"]
        batch_rngs, ref_rngs = _twins(self.TRIALS, seed=9)
        inputs = self._inputs(batch_rngs, n)
        self._inputs(ref_rngs, n)
        monkeypatch.setattr(phase_engine, "TrialBits", RecordingBits)
        RecordingBits.archived = 0
        batched = _run(config, adversary, inputs, batch_rngs)
        assert RecordingBits.archived > 0
        # Reference: the same batch on the historical integers draws.
        monkeypatch.setattr(phase_engine, "TrialBits", IntegersBits)
        reference = _run(config, adversary, inputs, ref_rngs)
        for field in ("output", "corrupted", "messages", "phases", "timed_out"):
            assert np.array_equal(batched[field], reference[field]), field
        for k in range(self.TRIALS):
            assert _states_equal(batch_rngs[k], ref_rngs[k]), k
        if config["coin"] != "committee":
            # Lazy share draws follow the batch (every running trial draws
            # once any trial can reach the coin case), so only the committee
            # coin has a batch-independent per-trial draw schedule.
            return
        # Each trial alone, still on the integers draws.
        _, single_rngs = _twins(self.TRIALS, seed=9)
        self._inputs(single_rngs, n)
        for k in range(self.TRIALS):
            _run(config, adversary, inputs[k : k + 1], [single_rngs[k]])
            assert _states_equal(batch_rngs[k], single_rngs[k]), k


# ----------------------------------------------------------------------
# Loss draws as an integer threshold
# ----------------------------------------------------------------------
class TestLossThreshold:
    @pytest.mark.parametrize("loss", [1e-9, 0.05, 0.1, 0.3, 0.999])
    def test_matches_float_draws(self, loss):
        n, batch = 23, 4
        adjacency = np.ones((n, n), dtype=bool)
        adjacency[0, 5] = adjacency[5, 0] = False
        running = np.array([True, False, True, True])
        mine, ref = _twins(batch, seed=3)
        delivered = sample_delivered(adjacency, loss, n, mine, running)
        words = sample_delivered_words(adjacency, loss, n, ref, running)
        for b in range(batch):
            if not running[b]:
                assert not delivered[b].any() and not words[b].any()
                continue
            kept = (trial_generator(3, b).random((n, n)) >= loss) & adjacency
            np.fill_diagonal(kept, True)
            assert np.array_equal(delivered[b], kept)
            packed = np.packbits(kept, axis=0).T
            assert np.array_equal(words[b].view(np.uint8)[:, : packed.shape[1]], packed)
        for left, right in zip(mine, ref):
            assert _states_equal(left, right)

    @pytest.mark.parametrize("loss", [0.1, 0.25, 1e-9])
    def test_threshold_is_exact_at_the_boundary(self, loss):
        # Words straddling ceil(loss * 2**53) << 11, fed through the sampler,
        # keep exactly the edges the float draw (w >> 11) * 2**-53 >= loss does.
        threshold = int(np.ceil(loss * 2.0**53)) << 11
        words = np.array(
            [0, threshold - 2049, threshold - 1, threshold,
             threshold + 2047, 2**64 - 1, threshold - 2048, 1, 0],
            dtype=np.uint64,
        )

        class Words:
            bit_generator = None

            def random_raw(self, size):
                return words[:size].copy()

        fake = Words()
        fake.bit_generator = fake
        delivered = sample_delivered(None, loss, 3, [fake], np.array([True]))
        expected = ((words >> np.uint64(11)) * 2.0**-53 >= loss).reshape(3, 3)
        np.fill_diagonal(expected, True)
        assert np.array_equal(delivered[0], expected)
        assert not expected[0, 2] and expected[1, 0]  # both sides present


# ----------------------------------------------------------------------
# The straddle kernel's narrow adjustment plane
# ----------------------------------------------------------------------
class TestStraddleDtypeEdge:
    @pytest.mark.parametrize("width", [126, 127, 128, 255])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coin_matches_int64_reference(self, width, sign):
        n, t = 2 * width + 3, width + 1
        params = ProtocolParameters.derive(n, (n - 1) // 3)
        kernel = StraddleKernel(n=n, t=t, params=params)
        batch = 3
        active = np.ones((batch, n), dtype=bool)
        shares = np.full((batch, width), sign, dtype=np.int8)
        # Row 2 keeps one committee share of the other sign: |S| = width - 2.
        shares[2, 0] = -sign
        share_sum = shares.sum(axis=1, dtype=np.int64)
        ctx = KernelContext(
            n=n, t=t, params=params, phase=1,
            committee_start=0, committee_stop=width,
            value=np.zeros((batch, n), dtype=bool),
            decided=np.zeros((batch, n), dtype=bool),
            active=active,
            corrupted=np.zeros((batch, n), dtype=bool),
            can_update=np.ones((batch, n), dtype=bool),
            budget=np.array([t, t, 0], dtype=np.int64),  # row 2 cannot pay
            messages=np.zeros(batch, dtype=np.int64),
            running=np.ones(batch, dtype=bool),
            shares=shares,
        )
        zeros = np.zeros(batch, dtype=np.int64)
        adjustment = np.asarray(kernel.round2(ctx, zeros, zeros, share_sum).shares)
        assert adjustment.dtype == (np.int8 if width < 128 else np.int16)
        coin = committee_coin(share_sum, adjustment)
        reference = (share_sum[:, None] + adjustment.astype(np.int64)) >= 0
        assert np.array_equal(coin, reference)
        # Spoiled rows split their live recipients in half; row 2 keeps sign(S).
        for b in range(2):
            live = ctx.active[b]
            assert np.count_nonzero(~coin[b, live]) == np.count_nonzero(live) // 2
        assert coin[2].tolist() == [sign > 0] * n
