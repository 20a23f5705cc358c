"""The package's memo tables and the one call that empties them.

Every process-wide cache in kaninj is a ``BoundedCache``: the verdict
cache behind ``injectivity.verdict``, the extension tables of
``injectivity._extensions``, the reflections of ``chain.reflect``, the
hom-sets of ``hom_poset`` and of the injectivity cross-check, the
strong part of a closure-check sample, and ``all_posets``.  Each key
carries everything that changes the stored answer; for a result of a
capped search that includes the cap it ran under
(``config.size_cap()``, or for a cross-check hom-set the fixed
budget it was given), so a smaller cap set later searches again and
raises ``SizeCapExceeded`` where a fresh process would.  A failed
computation stores nothing.  A stored value is handed to every caller
that asks for it: it is shared and must not be mutated.

Each table keeps at most ``BOUND`` entries and drops the least recently
used one beyond that.  ``clear_caches()`` empties every table.

Tables derived from one immutable object are not process-wide memo
tables and are not kept here: a poset's cached properties and its join
memo (``Poset.join_mask``, at most ``BOUND`` masks, stored while there is
room), and a map's ``below`` table.  Each is keyed only on its own
object, so nothing can make it stale, and it dies with that object.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable

# entries per table; the largest working set measured, about 540
# hom-sets in one extend-sweep benchmark repetition, fits under it
BOUND = 1024

_TABLES: list = []


class BoundedCache:
    """A memo table keeping the BOUND most recently used entries."""

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        _TABLES.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, compute: Callable):
        """The value stored under key, or compute() stored under it."""
        try:
            self._entries.move_to_end(key)
            return self._entries[key]
        except KeyError:
            pass
        value = compute()
        self._entries[key] = value
        if len(self._entries) > BOUND:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()


def clear_caches() -> None:
    """Empty every memo table in the package."""
    for table in _TABLES:
        table.clear()
