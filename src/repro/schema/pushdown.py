"""Query push-down into instantiation ([ACM93], Sections 4.1 and 6.2).

"The structuring schema can be optimized by 'pushing' the query into the
parsing process, so that only objects that meet the query selection criteria
are built.  Parsing using an optimized schema reduces the construction of
unnecessary database objects."

We realise this with a :class:`PathTrie`: the set of attribute paths a query
actually touches, as a prefix tree.  Instantiation walks the parse tree and
builds database values only along trie branches; everything else is skipped.
The number of values built is reported, so benchmarks can show the
construction savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class PathTrie:
    """A prefix tree of attribute paths.

    ``all_below`` means the whole subtree is needed (produced by ``*X`` path
    variables and by output paths that select entire objects).
    """

    children: dict[str, "PathTrie"] = field(default_factory=dict)
    all_below: bool = False

    @classmethod
    def everything(cls) -> "PathTrie":
        return cls(all_below=True)

    @classmethod
    def from_paths(cls, paths: Iterable[Sequence[str | None]]) -> "PathTrie":
        """Build from attribute paths.  ``None`` inside a path means "any
        attributes from here on" (a ``*X`` variable): the subtree is marked
        fully needed."""
        root = cls()
        for path in paths:
            node = root
            for step in path:
                if step is None:
                    node.all_below = True
                    break
                node = node.children.setdefault(step, cls())
            else:
                # A path ending at a value needs that whole value.
                node.all_below = True
        return root

    def child(self, attribute: str) -> "PathTrie | None":
        """The trie below ``attribute``; ``None`` when the attribute is not
        needed.  A fully-needed trie returns itself for any attribute."""
        if self.all_below:
            return _EVERYTHING
        return self.children.get(attribute)

    def wants(self, attribute: str) -> bool:
        return self.all_below or attribute in self.children

    @property
    def is_empty(self) -> bool:
        return not self.all_below and not self.children

    def fingerprint(self) -> tuple:
        """A canonical hashable key for the set of paths this trie keeps.

        Two queries touching the same attribute paths fingerprint equally,
        so candidate parses can be shared between them (the parse memo keys
        on this).  A fully-needed subtree normalises to ``(True,)`` — its
        children are irrelevant, ``child()`` ignores them.
        """
        if self.all_below:
            return (True,)
        return (
            False,
            tuple(
                (attribute, child.fingerprint())
                for attribute, child in sorted(self.children.items())
            ),
        )


_EVERYTHING = PathTrie(all_below=True)


@dataclass
class AnchoredTrie:
    """A trie that applies ``inner`` from the first occurrence of
    ``anchor`` downwards, and keeps everything above/outside it.

    Used by the full-scan pipeline: the query's path trie is rooted at the
    source *class*, but instantiation starts at the grammar root — documents
    wrap their references in outer structure that must be kept.
    """

    anchor: str
    inner: PathTrie
    all_below: bool = False

    def child(self, attribute: str) -> "PathTrie | AnchoredTrie":
        if attribute == self.anchor:
            return self.inner
        return self

    def wants(self, attribute: str) -> bool:
        return True


@dataclass
class InstantiationStats:
    """How much database material instantiation actually built."""

    values_built: int = 0
    values_skipped: int = 0
    nodes_visited: int = 0

