"""Index size accounting.

Section 7: "There is a tradeoff between performance and the number of
regions being indexed."  To make the tradeoff measurable, every index
structure reports its entry counts and an estimated byte footprint (two
4-byte offsets per region entry, one 4-byte offset per word posting — the
granularity PAT-era systems used).
"""

from __future__ import annotations

from dataclasses import dataclass, field

BYTES_PER_REGION_ENTRY = 8
BYTES_PER_WORD_POSTING = 4


@dataclass(frozen=True)
class IndexStatistics:
    """Sizes of one engine's index structures."""

    region_entries: dict[str, int] = field(default_factory=dict)
    word_postings: int = 0
    vocabulary_size: int = 0
    text_bytes: int = 0

    @classmethod
    def measure(cls, engine) -> "IndexStatistics":
        region_entries = {
            name: len(region_set) for name, region_set in engine.instance.items()
        }
        word_postings = engine.word_index.posting_count if engine.word_index else 0
        vocabulary = engine.word_index.vocabulary_size if engine.word_index else 0
        return cls(
            region_entries=region_entries,
            word_postings=word_postings,
            vocabulary_size=vocabulary,
            text_bytes=len(engine.text),
        )

    @property
    def total_region_entries(self) -> int:
        return sum(self.region_entries.values())

    @property
    def estimated_bytes(self) -> int:
        return (
            self.total_region_entries * BYTES_PER_REGION_ENTRY
            + self.word_postings * BYTES_PER_WORD_POSTING
        )

    @property
    def index_to_text_ratio(self) -> float:
        """Index footprint relative to the raw text size."""
        if not self.text_bytes:
            return 0.0
        return self.estimated_bytes / self.text_bytes

    def to_dict(self) -> dict:
        """A JSON-ready view (used by the CLI's ``--json`` stats output)."""
        return {
            "text_bytes": self.text_bytes,
            "region_entries": dict(self.region_entries),
            "total_region_entries": self.total_region_entries,
            "word_postings": self.word_postings,
            "vocabulary_size": self.vocabulary_size,
            "estimated_bytes": self.estimated_bytes,
            "index_to_text_ratio": self.index_to_text_ratio,
        }

    def summary(self) -> str:
        lines = [
            f"text bytes:        {self.text_bytes}",
            f"region entries:    {self.total_region_entries} "
            f"(over {len(self.region_entries)} names)",
            f"word postings:     {self.word_postings} "
            f"(vocabulary {self.vocabulary_size})",
        ]
        lines.append(
            f"estimated index:   {self.estimated_bytes} bytes "
            f"({self.index_to_text_ratio:.2f}x text)"
        )
        return "\n".join(lines)
