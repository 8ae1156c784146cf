"""The i.i.d. per-edge message-loss model.

Loss is sampled per *directed* edge per communication round: a message from
``j`` to ``i`` (``j != i``) is dropped independently with probability
``loss``.  Self-delivery never fails — a node's own value is local state,
not a network message — so the diagonal of every delivered-edge matrix is
forced True.  Directed sampling (the ``j -> i`` and ``i -> j`` draws are
independent) matches the object simulator, where each
:class:`~repro.simulator.messages.Message` is dropped individually.

Two consumers share this module:

* the masked :class:`~repro.simulator.phase_engine.PhaseEngine` draws one
  ``(n, n)`` plane of raw 64-bit words per (running trial, round) from the
  trial's own Philox generator via :func:`sample_delivered` (or its packed
  sibling :func:`sample_delivered_words`; both share one draw loop) — trials
  draw only from their own generators, so per-trial results stay independent
  of batching and compaction, exactly like the committee share draws;
* the object :class:`~repro.simulator.scheduler.SynchronousScheduler` turns
  the same Bernoulli model into per-round ``(sender, recipient)`` drop sets
  via :func:`sample_drops`, drawing from a dedicated network stream of the
  run's :class:`~repro.simulator.rng.RandomnessSource`.

The engine's draw is the historical ``Generator.random`` plane without the
float pass: ``random()`` maps a raw word ``w`` to ``(w >> 11) * 2**-53``, so
``random() >= loss`` holds exactly when ``w >= ceil(loss * 2**53) << 11``,
and the sampler compares the raw words against that integer threshold.  The
same ``n * n`` words are consumed and the same edges kept, so results and
store keys are unchanged.  Whole-word draws never touch the generator's
buffered uint32 half, which the engine's fair-bit draws
(:class:`~repro.simulator.phase_engine.TrialBits`) track.

The two paths consume *different* streams, so off-clique/lossy
cross-validation between them is statistical, never bit-exact.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "sample_delivered",
    "sample_delivered_words",
    "sample_drops",
    "validate_loss",
]


def validate_loss(loss: float) -> float:
    """Validate a per-edge loss probability (``0 <= loss < 1``)."""
    loss = float(loss)
    if not 0.0 <= loss < 1.0:
        raise ConfigurationError(
            f"loss must be a probability in [0, 1), got {loss}"
        )
    return loss


def _kept_edges(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """The one per-trial loss draw loop behind both samplers.

    Yields ``(b, kept)`` for each running trial ``b`` in order, ``kept``
    being its ``(n, n)`` boolean delivered-edge matrix (sender-major, True
    diagonal).  ``kept`` is one reused buffer, valid until the next step.

    Each trial consumes ``n * n`` raw 64-bit words of its generator and keeps
    an edge when its word clears the integer threshold that is exact for
    ``random() >= loss`` (see the module docstring).
    """
    threshold = np.uint64(math.ceil(loss * 2.0**53) << 11)
    kept = np.empty((n, n), dtype=bool)
    for b in np.flatnonzero(running):
        words = rngs[b].bit_generator.random_raw(n * n).reshape(n, n)
        np.greater_equal(words, threshold, out=kept)
        if adjacency is not None:
            kept &= adjacency
        np.einsum("ii->i", kept)[:] = True
        yield b, kept


def sample_delivered(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One round's delivered-edge matrices for a batch of trials.

    Args:
        adjacency: ``(n, n)`` boolean topology, or ``None`` for the clique.
        loss: Per-edge drop probability (> 0; the loss-free masked path uses
            the constant adjacency directly and draws nothing).
        n: Network size.
        rngs: Per-trial generators; trial ``b`` draws ``n * n`` raw words
            — only if it is still running, so finished (compacted-away)
            trials never consume loss randomness.
        running: ``(B,)`` liveness mask.
        out: Optional ``(B, n, n)`` float32 buffer to fill and return in
            place of the boolean allocation.  The lossy engines contract the
            delivered matrices as float32 anyway (sgemm; exact for counts up
            to 2^24), so writing the buffer directly spares a fresh
            ``(B, n, n)`` boolean batch *and* a full-batch float cast every
            round — the dominant allocation cost of the lossy path.  The
            consumed Philox stream is identical either way.

    Returns:
        ``(B, n, n)`` delivered-edge matrices (boolean, or ``out``): entry
        ``[b, j, i]`` is nonzero when ``j``'s round message reaches ``i`` in
        trial ``b``.  The diagonal is always delivered; non-running rows are
        all-zero (they carry no traffic).
    """
    batch = len(running)
    if out is None:
        delivered = np.zeros((batch, n, n), dtype=bool)
    else:
        delivered = out
        idle = ~np.asarray(running, dtype=bool)
        if idle.any():
            delivered[idle] = 0.0
    for b, kept in _kept_edges(adjacency, loss, n, rngs, running):
        delivered[b] = kept
    return delivered


def sample_delivered_words(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One round's delivered-edge matrices, bit-packed recipient-major.

    The packed-backend sibling of :func:`sample_delivered`: the *same*
    per-trial draws in the same order (the shared draw loop), but each
    trial's kept matrix is emitted as ``(n, ceil(n/64))`` uint64 words — row
    ``i`` packs the senders whose round messages reach recipient ``i``, in
    the :func:`repro.simulator.planes.packed.pack_bools` layout — so the
    masked tallies can run as AND+popcount word contractions
    (:class:`repro.topology.counting.PackedDeliveredChannel`) without the
    float32 round-trip.  Packing transposes for free: ``np.packbits`` along
    the sender axis yields the recipient-major byte rows directly.

    Args:
        out: Optional ``(B, n, ceil(n/64))`` uint64 buffer.  Must start
            zeroed the first time (the pad bytes beyond ``ceil(n/8)`` are
            never written and rely on staying zero — the packed tail-bit
            invariant); rows of trials that stop running are re-zeroed here,
            exactly like the float32 buffer contract.

    Returns:
        ``(B, n, ceil(n/64))`` uint64 words (``out`` when given): bit ``j``
        of row ``[b, i]`` is set when ``j``'s round message reaches ``i``
        in trial ``b``.  The diagonal is always delivered; non-running rows
        are all-zero.
    """
    batch = len(running)
    width = max(1, -(-n // 64))
    if out is None:
        delivered = np.zeros((batch, n, width), dtype=np.uint64)
    else:
        delivered = out
        idle = ~np.asarray(running, dtype=bool)
        if idle.any():
            delivered[idle] = 0
    nbytes = (n + 7) // 8
    for b, kept in _kept_edges(adjacency, loss, n, rngs, running):
        # packbits over axis 0 packs each *column* (= each recipient's
        # incoming senders) MSB-first; the transpose assignment lands them
        # as recipient-major byte rows of the little-endian word view.
        delivered[b].view(np.uint8)[:, :nbytes] = np.packbits(kept, axis=0).T
    return delivered


def sample_drops(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rng: np.random.Generator | None,
) -> set[tuple[int, int]]:
    """One round's ``(sender, recipient)`` drop set for the object simulator.

    The complement view of :func:`sample_delivered`: every directed
    non-self pair that is either outside the topology or loss-sampled away
    this round.  One ``(n, n)`` uniform plane is drawn from ``rng`` per call
    when ``loss > 0`` (none when the loss model is off), so the per-round
    draw schedule is a deterministic function of the round count.
    """
    dropped = np.zeros((n, n), dtype=bool)
    if adjacency is not None:
        dropped |= ~adjacency
    if loss > 0.0:
        dropped |= rng.random((n, n)) < loss
    np.einsum("ii->i", dropped)[:] = False
    senders, recipients = np.nonzero(dropped)
    return {(int(j), int(i)) for j, i in zip(senders, recipients)}
