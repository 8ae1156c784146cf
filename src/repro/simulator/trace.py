"""Execution traces.

A trace records, per round, the externally observable facts of an execution:
which nodes were corrupted, how many honest nodes had decided, how many had
terminated, how many messages/bits flowed, and (for committee protocols) which
phase and committee were active.  Traces are the raw material for the metrics
layer and for debugging adversary strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulator.node import HonestNodeRecord


@dataclass(frozen=True)
class RoundRecord:
    """Everything the trace remembers about a single round."""

    round_index: int
    newly_corrupted: tuple[int, ...]
    corrupted_total: int
    honest_decided: int
    honest_terminated: int
    honest_values: tuple[int, ...]
    message_count: int
    bit_count: int
    phase: int | None = None
    annotations: dict[str, object] = field(default_factory=dict, compare=False)


@dataclass
class ExecutionTrace:
    """Chronological record of an execution.

    Attributes:
        records: One :class:`RoundRecord` per simulated round.
        node_snapshots: Final snapshot of every honest node.
    """

    records: list[RoundRecord] = field(default_factory=list)
    node_snapshots: list[HonestNodeRecord] = field(default_factory=list)

    def add(self, record: RoundRecord) -> None:
        """Append a round record."""
        self.records.append(record)

    @property
    def rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self.records)

    def corruption_schedule(self) -> list[tuple[int, int]]:
        """Return ``(round_index, node_id)`` pairs in corruption order."""
        schedule: list[tuple[int, int]] = []
        for record in self.records:
            for node_id in record.newly_corrupted:
                schedule.append((record.round_index, node_id))
        return schedule

    def decided_counts(self) -> list[int]:
        """Number of honest nodes with ``decided=True`` after each round."""
        return [record.honest_decided for record in self.records]

    def first_round_all_decided(self, honest_count: int) -> int | None:
        """First round index after which every honest node had decided, or ``None``."""
        for record in self.records:
            if record.honest_decided >= honest_count:
                return record.round_index
        return None

    def value_distribution(self, round_index: int) -> dict[int, int]:
        """Histogram of honest values after the given round."""
        record = self.records[round_index]
        histogram: dict[int, int] = {}
        for value in record.honest_values:
            histogram[value] = histogram.get(value, 0) + 1
        return histogram

    def summary(self) -> dict[str, object]:
        """Compact dictionary describing the trace (suitable for logging)."""
        if not self.records:
            return {"rounds": 0}
        last = self.records[-1]
        return {
            "rounds": self.rounds,
            "final_corrupted": last.corrupted_total,
            "final_decided": last.honest_decided,
            "final_terminated": last.honest_terminated,
            "total_messages": sum(r.message_count for r in self.records),
            "total_bits": sum(r.bit_count for r in self.records),
        }
