"""Operation counters for cost instrumentation.

The paper argues about *relative* operator costs (e.g. that ``⊃d`` "is
significantly more expensive than the simple inclusion operation ⊃", Section
3.1).  To make those costs observable without relying on wall-clock noise,
every algebra operator reports its work to an :class:`OperationCounters`
object: number of operator applications, region comparisons performed, and
regions produced.  The paper-claims test asserts ratios of these tallies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class OperationCounters:
    """Mutable tally of algebra work.

    Attributes
    ----------
    operations:
        Count of operator applications, keyed by operator symbol
        (``"∪"``, ``"∩"``, ``"−"``, ``"σ"``, ``"ι"``, ``"ω"``, ``"⊃"``,
        ``"⊂"``, ``"⊃d"``, ``"⊂d"``, ``"name"``).
    comparisons:
        Region comparisons (inclusion tests, betweenness probes, merge
        steps) performed by the operators.
    regions_out:
        Total regions produced across all operator applications.
    bytes_scanned:
        Bytes of raw file text read (only non-index paths: selection content
        checks, candidate-region parsing).
    """

    operations: Counter = field(default_factory=Counter)
    comparisons: int = 0
    regions_out: int = 0
    bytes_scanned: int = 0

    def record(self, operator: str, comparisons: int = 0, produced: int = 0) -> None:
        self.operations[operator] += 1
        self.comparisons += comparisons
        self.regions_out += produced

    def scan(self, byte_count: int) -> None:
        self.bytes_scanned += byte_count

    def merge(self, other: "OperationCounters") -> None:
        """Fold another tally into this one."""
        self.operations.update(other.operations)
        self.comparisons += other.comparisons
        self.regions_out += other.regions_out
        self.bytes_scanned += other.bytes_scanned

    @property
    def total_operations(self) -> int:
        return sum(self.operations.values())

    def snapshot(self) -> dict[str, int]:
        """A flat dict view, convenient for benchmark reporting."""
        summary = {f"op:{symbol}": count for symbol, count in sorted(self.operations.items())}
        summary["comparisons"] = self.comparisons
        summary["regions_out"] = self.regions_out
        summary["bytes_scanned"] = self.bytes_scanned
        return summary

    def reset(self) -> None:
        self.operations.clear()
        self.comparisons = 0
        self.regions_out = 0
        self.bytes_scanned = 0
