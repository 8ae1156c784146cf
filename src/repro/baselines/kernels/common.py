"""Shared machinery for the batched baseline-protocol kernels.

Every kernel in this package follows the conventions established by the
committee engine (:mod:`repro.simulator.vectorized`):

* a sweep of ``B`` trials executes simultaneously on ``(B, n)`` boolean
  planes, with per-node updates expressed as XOR-blend boolean algebra and
  per-row tallies computed by byte-packing + popcount;
* trial ``k`` of master seed ``s`` draws its randomness from the
  counter-based Philox generator keyed ``(s, trial_offset + k)``
  (:func:`batch_setup`), so per-trial results are independent of how trials
  are batched together;
* the final planes go through the one finaliser,
  :func:`repro.simulator.phase_engine.finalize_planes`, which returns one
  :class:`~repro.core.runner.TrialSummary` per trial with the global trial
  counter as its ``seed`` — the record :func:`repro.engine.run_sweep` hands
  on unchanged.

This module collects the pieces the kernels share: the per-trial input/RNG
setup, the live CONGEST payload-size table and the finaliser.
"""

from __future__ import annotations

from repro.simulator.bitplanes import row_popcount
from repro.simulator.messages import (
    CoinShare,
    CombinedAnnouncement,
    KingValue,
    SampleReply,
    SampleRequest,
    ValueAnnouncement,
)
from repro.simulator.phase_engine import finalize_planes
from repro.simulator.vectorized import batch_setup

__all__ = [
    "PAYLOAD_BITS",
    "batch_setup",
    "finalize_planes",
    "row_popcount",
]

#: CONGEST payload sizes (bits) by payload kind, derived from the live
#: ``bit_size()`` definitions in :mod:`repro.simulator.messages` so the
#: kernels' bit accounting can never drift from the object simulator's.
PAYLOAD_BITS: dict[str, int] = {
    payload.kind(): payload.bit_size()
    for payload in (
        ValueAnnouncement(phase=1, round_in_phase=1, value=0, decided=False),
        CombinedAnnouncement(phase=1, value=0, decided=False, share=None),
        CoinShare(phase=1, share=1),
        KingValue(phase=1, value=0),
        SampleRequest(phase=1),
        SampleReply(phase=1, value=0),
    )
}
