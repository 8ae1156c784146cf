"""Exact per-recipient receive tallies against adjacency and delivered masks.

The masked communication planes need ``counts[b, i] = sum_j sent[b, j] *
A[j, i]`` — a ``(B, n) x (n, n)`` contraction per tally.  A dense float32
sgemm is the right tool only in the middle of the density range *and* only
when the sender planes live as boolean arrays; at either extreme the same
exact counts are far cheaper as segment sums over the sparse side of the
mask, and on the bit-packed plane backend the contraction is an
AND+popcount over uint64 words:

* **complement** — near-complete graphs (most importantly the all-True
  adjacency, which must stay within the benchmark's 2x overhead bar of the
  unmasked clique path): subtract segment sums over the few *missing*
  edges from each trial's total;
* **direct** — sparse graphs (ring, chain, star, grid, tree all have
  ``O(n)`` edges): segment sums over the delivering edges only;
* **dense** — the middle of the density range (``erdos-renyi`` at density
  ~0.5) on the boolean backend: the float32 sgemm;
* **packed** — the same middle band when the plane backend holds
  :func:`~repro.simulator.planes.packed.pack_bools`-layout uint64 words
  (``backend.packed_words``): a
  :class:`MaskedCounter` computing ``popcount(sent_words &
  incoming_words[recipient])`` directly on the words, skipping the bool
  unpack and the float32 cast entirely.

The per-round *delivered-edge* masks of the lossy path get the same split:
:class:`DenseDeliveredChannel` wraps the float32 ``(B, n, n)`` batch the
historical path contracted with a batched sgemm, and
:class:`PackedDeliveredChannel` wraps the ``(B, n, ceil(n/64))`` uint64
words of :func:`repro.topology.loss.sample_delivered_words` — where the
AND+popcount form measures ~3x faster than the batched sgemm at ``n=512``
(see ``benchmarks/bench_topology_throughput.py``).

Every strategy produces bit-identical ``int64`` counts: the segment and
popcount paths sum in integer arithmetic, and float32 partial sums are
exact below ``2**24``, far above any per-recipient tally this engine can
produce.  The shared **channel protocol** (duck-typed; consumed by the
plane ops in :mod:`repro.simulator.planes.base`) is:

* ``wants_words`` — True when the channel tallies uint64 words natively;
* ``receive_counts(sent)`` — boolean sender plane -> per-recipient counts;
* ``receive_counts_words(sent_words)`` — the word form (``wants_words``
  channels only);
* ``signed_counts(plane)`` — small-integer planes (the ±1 coin shares);
* ``delivered_edges(senders)`` / ``delivered_edges_words(words)`` — the
  masked CONGEST message counter.

Telemetry: every word tally counts ``masked_tally.packed`` and every
float32 contraction counts ``masked_tally.sgemm`` (segment passes count
``masked_tally.segment``), so trace reports show which engine carried a
masked run.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracer import current_tracer
from repro.simulator.planes.packed import pack_bools

#: A segment-sum pass costs one gathered add per stored edge, against the
#: sgemm's two fused flops per matrix cell — but BLAS throughput per cell
#: is an order of magnitude higher, so the sparse paths only pay off well
#: below full density.  The packed mid-band tally has the same word cost
#: regardless of density, so the segment thresholds serve both backends.
_SEGMENT_FRACTION = 8


def word_width(n: int) -> int:
    """uint64 words per ``n``-node bit row (``ceil(n / 64)``, at least 1)."""
    return max(1, -(-n // 64))


class MaskedCounter:
    """AND+popcount per-recipient tallies over packed incoming-edge words.

    ``incoming`` holds, for each recipient ``i``, the bit row of senders
    whose messages reach ``i``: shape ``(n, W)`` for a fixed adjacency mask
    (shared by every trial) or ``(B, n, W)`` for one round's per-trial
    delivered-edge masks.  :meth:`counts` contracts a ``(B, W)`` packed
    sender plane against it one word column at a time — the ``(B, n)``
    uint64 AND / popcount / accumulate loop measures ~3x faster than the
    equivalent float32 batched sgemm at ``n=512`` and never materialises a
    ``(B, n, W)`` intermediate.
    """

    def __init__(self, incoming: np.ndarray, n: int) -> None:
        self.incoming = incoming
        self.n = n
        self.width = incoming.shape[-1]
        # Per-word popcounts are <= 64 and there are ceil(n/64) of them, so
        # the per-recipient total is bounded by n: uint16 accumulation is
        # exact up to 65535 nodes and meaningfully faster than int64.
        self._acc_dtype = np.uint16 if n < (1 << 16) else np.int64

    def counts(self, sent_words: np.ndarray) -> np.ndarray:
        """``(B, n)`` int64 tallies of a ``(B, W)`` packed sender plane."""
        current_tracer().count("masked_tally.packed")
        batch = sent_words.shape[0]
        static = self.incoming.ndim == 2
        acc = np.zeros((batch, self.n), dtype=self._acc_dtype)
        joined = np.empty((batch, self.n), dtype=np.uint64)
        percount = np.empty((batch, self.n), dtype=np.uint8)
        for w in range(self.width):
            column = (
                self.incoming[None, :, w] if static else self.incoming[:, :, w]
            )
            np.bitwise_and(sent_words[:, w, None], column, out=joined)
            np.bitwise_count(joined, out=percount)
            acc += percount
        return acc.astype(np.int64)


def _column_segments(matrix: np.ndarray):
    """CSR-style grouping of ``matrix``'s True cells by recipient column.

    Returns ``(sender, starts, nonempty)``: the sender indices concatenated
    in recipient order, the start offset of each *nonempty* recipient's run
    (``np.add.reduceat`` yields the wrong answer for empty segments, so
    those are excluded and scattered back as zero), and the boolean mask of
    recipients that have at least one incoming edge.
    """
    n = matrix.shape[0]
    recipient, sender = np.nonzero(matrix.T)
    lengths = np.bincount(recipient, minlength=n)
    nonempty = lengths > 0
    starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    return sender, starts[nonempty], nonempty


class AdjacencyCounter:
    """Receive-count engine for a fixed loss-free adjacency mask.

    Strategy selection happens once at construction — density-aware at the
    extremes, backend-aware in the middle (``packed=True`` swaps the dense
    float32 sgemm for a :class:`MaskedCounter` word tally, fed uint64 words
    straight off the bit-packed planes) — and every tally afterwards is
    exact-integer equivalent across strategies, so callers can treat the
    choice as invisible.
    """

    def __init__(self, adjacency: np.ndarray, *, packed: bool = False) -> None:
        n = adjacency.shape[0]
        self.n = n
        #: Delivered out-degree per sender (self included), for the
        #: delivered-edge CONGEST accounting.
        self.outdeg = adjacency.sum(axis=1, dtype=np.int64)
        limit = (n * n) // _SEGMENT_FRACTION
        complement = ~adjacency
        if int(complement.sum()) <= limit:
            self.strategy = "complement"
            self._segments = _column_segments(complement)
        elif int(adjacency.sum()) <= limit:
            self.strategy = "direct"
            self._segments = _column_segments(adjacency)
        elif packed:
            self.strategy = "packed"
            # Row i packs column i of the mask: the senders reaching i.
            self._masked = MaskedCounter(
                pack_bools(np.ascontiguousarray(adjacency.T), n), n
            )
        else:
            self.strategy = "dense"
            self._adjacency_f = adjacency.astype(np.float32)

    # ------------------------------------------------------------------
    @property
    def wants_words(self) -> bool:
        """True when this channel tallies packed uint64 words natively."""
        return self.strategy == "packed"

    def _segment_counts(self, plane: np.ndarray) -> np.ndarray:
        sender, starts, nonempty = self._segments
        counts = np.zeros((plane.shape[0], self.n), dtype=np.int64)
        if sender.size:
            counts[:, nonempty] = np.add.reduceat(plane[:, sender], starts, axis=1)
        return counts

    def receive_counts(self, sent: np.ndarray) -> np.ndarray:
        """Per-recipient tallies of ``sent`` (a boolean or small-integer
        plane, e.g. coin shares in ``{-1, +1}``) over delivering edges.

        Returns a ``(B, n)`` plane — or a broadcastable ``(B, 1)`` column
        when the mask is the complete graph, where every recipient's tally
        is the same total (callers must therefore broadcast rather than
        reduce over the recipient axis).
        """
        if self.strategy == "packed":
            return self._masked.counts(
                pack_bools(np.ascontiguousarray(sent, dtype=bool), self.n)
            )
        if self.strategy == "dense":
            current_tracer().count("masked_tally.sgemm")
            return (sent.astype(np.float32) @ self._adjacency_f).astype(np.int64)
        current_tracer().count("masked_tally.segment")
        plane = sent.astype(np.int64)
        if self.strategy == "direct":
            return self._segment_counts(plane)
        totals = plane.sum(axis=1)[:, None]
        if not self._segments[0].size:
            return totals
        return totals - self._segment_counts(plane)

    def receive_counts_words(self, sent_words: np.ndarray) -> np.ndarray:
        """Word-form tallies (``wants_words`` strategies only)."""
        return self._masked.counts(sent_words)

    def signed_counts(self, plane: np.ndarray) -> np.ndarray:
        """Per-recipient sums of a small-integer plane (the ±1 shares).

        The packed strategy decomposes the plane into its positive and
        negative supports and differences the two word tallies — exact
        integers, so bit-identical to the arithmetic strategies.
        """
        if self.strategy == "packed":
            plus = self._masked.counts(pack_bools(plane > 0, self.n))
            minus = self._masked.counts(pack_bools(plane < 0, self.n))
            return plus - minus
        return self.receive_counts(plane)

    def delivered_edges(self, senders: np.ndarray) -> np.ndarray:
        """Delivered edges per trial — the masked CONGEST message counter."""
        return senders.astype(np.int64) @ self.outdeg

    def delivered_edges_words(self, sent_words: np.ndarray) -> np.ndarray:
        """Word-form delivered-edge counter (``wants_words`` only)."""
        return self._masked.counts(sent_words).sum(axis=1, dtype=np.int64)


class DenseDeliveredChannel:
    """One round's lossy delivered masks as a float32 ``(B, n, n)`` batch.

    The historical lossy contraction: a per-trial batched sgemm (exact for
    counts below ``2**24``) over the buffer
    :func:`repro.topology.loss.sample_delivered` filled.
    """

    wants_words = False

    def __init__(self, delivered_f: np.ndarray) -> None:
        self._delivered = delivered_f

    def receive_counts(self, sent: np.ndarray) -> np.ndarray:
        current_tracer().count("masked_tally.sgemm")
        counts = (sent.astype(np.float32)[:, None, :] @ self._delivered)[:, 0, :]
        return counts.astype(np.int64)

    signed_counts = receive_counts

    def delivered_edges(self, senders: np.ndarray) -> np.ndarray:
        current_tracer().count("masked_tally.sgemm")
        return np.einsum(
            "bj,bji->b", senders.astype(np.float32), self._delivered
        ).astype(np.int64)


class PackedDeliveredChannel:
    """One round's lossy delivered masks as ``(B, n, ceil(n/64))`` words.

    Wraps the output of :func:`repro.topology.loss.sample_delivered_words`
    in a :class:`MaskedCounter`; same Philox draws, AND+popcount in place
    of the batched sgemm.
    """

    wants_words = True

    def __init__(self, delivered_words: np.ndarray, n: int) -> None:
        self._masked = MaskedCounter(delivered_words, n)
        self.n = n

    def receive_counts(self, sent: np.ndarray) -> np.ndarray:
        return self._masked.counts(
            pack_bools(np.ascontiguousarray(sent, dtype=bool), self.n)
        )

    def receive_counts_words(self, sent_words: np.ndarray) -> np.ndarray:
        return self._masked.counts(sent_words)

    def signed_counts(self, plane: np.ndarray) -> np.ndarray:
        plus = self._masked.counts(pack_bools(plane > 0, self.n))
        minus = self._masked.counts(pack_bools(plane < 0, self.n))
        return plus - minus

    def delivered_edges(self, senders: np.ndarray) -> np.ndarray:
        return self.delivered_edges_words(
            pack_bools(np.ascontiguousarray(senders, dtype=bool), self.n)
        )

    def delivered_edges_words(self, sent_words: np.ndarray) -> np.ndarray:
        return self._masked.counts(sent_words).sum(axis=1, dtype=np.int64)
