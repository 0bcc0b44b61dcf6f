"""Named fault points: the places a test can make the engine fail.

Production code calls :func:`fault_point` with a name wherever a crash,
a hang or an I/O error must be testable: between the commit steps of a
journal append, a compaction, a split and a scrub repair, at the start
of every shard attempt, when the scatter abandons a shard, and before
every worker-pool task.  Nothing sets a hook in production, so a point
costs one global read and one ``is None`` test.

A test installs one process-wide hook with :func:`set_fault_hook`; the
hook receives every point name and may raise or sleep there.  It sees
every engine in the process, so a test sets it around the faulted call
only.  The chaos scenarios (``tests/chaos/scenarios.py``) list every
point name.
"""

from __future__ import annotations

from typing import Callable

_hook: Callable[[str], None] | None = None


def fault_point(name: str) -> None:
    """Call the fault hook, when one is set, with the point ``name``."""
    hook = _hook
    if hook is not None:
        hook(name)


def set_fault_hook(
    hook: Callable[[str], None] | None,
) -> Callable[[str], None] | None:
    """Install ``hook`` (``None`` clears it); returns the hook it replaces."""
    global _hook
    previous, _hook = _hook, hook
    return previous
