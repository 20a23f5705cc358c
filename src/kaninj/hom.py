"""Hom-sets, left Kan extensions along a map, and density.

``left_kan(f, h)`` computes the least monotone g with f <= g∘h, taking
"least" globally: when the candidates only have several incomparable
minimal elements, the extension does not exist.  One routine on plain
tuples, ``_least_extension``, answers every extension problem in the
library: left_kan's, those of the injectivity scan and preservation
check, and those of ``extend_along_unit``.  It returns the extension's
values and the route it took.  The pointwise join formula is used when every needed join exists (and is
provably the least candidate then): along h it reads the caller's copy
of the map's memoized ``MonotoneMap.below`` table and looks each join
up in the target's memo by value mask (``Poset.join_mask``).  Otherwise
it reads the exact set of values the candidates take at each point
(``monotone_value_sets``, as the even step does) and takes the least of
each, which is the least candidate whenever every set has a least
element.  Both routes are checked against a brute-force oracle by the
test-suite, the second also on targets where every join exists.
``is_dense(f)`` is ``left_kan(f, f)`` compared with the identity.

Whether a poset is strong along a class, and whether a map preserves
extensions, are decided in ``injectivity`` with the same routine.

A hom-set hom(a, x) is held as the sorted assignment tuples of every
monotone map a -> x; its order is pointwise and is not built.
``hom_poset(a, x)`` runs under ``config.size_cap()``, read when it
runs, like every search, and is memoised in a bounded table keyed on
both posets and that cap, so its answer, a hom-set or
``SizeCapExceeded``, never depends on earlier calls.  The injectivity
cross-check reads its hom-sets through ``_hom_at_most``, under a fixed
budget of its own: it stops at the map after its limit, and keeps the
hom-set, or None when there are more maps or the budget runs out, in
the same table, keyed also on the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .cache import BoundedCache
from .config import size_cap
from .errors import DomainMismatch, SizeCapExceeded
from .poset import (
    MonotoneMap,
    Poset,
    _bound_row,
    iter_monotone_assignments,
    monotone_value_sets,
)

_HOMS = BoundedCache()


def hom_poset(a: Poset, x: Poset) -> tuple:
    """hom(a, x): the sorted assignment tuples of the monotone maps
    a -> x, memoised per (a, x, size cap)."""
    cap = size_cap()
    return _HOMS.get(
        (a.key, x.key, cap),
        lambda: tuple(sorted(iter_monotone_assignments(a, x, cap=cap))),
    )


def _hom_at_most(a: Poset, x: Poset, most: int, cap: int) -> Optional[tuple]:
    """hom(a, x), as hom_poset gives it, when it has at most ``most``
    maps, None when it has more or its search visits more than cap
    nodes first.  The search stops at the map after ``most``, and the
    outcome, either one, is memoised in hom_poset's table per
    (a, x, cap, most)."""

    def build() -> Optional[tuple]:
        try:
            found = list(islice(iter_monotone_assignments(a, x, cap=cap), most + 1))
        except SizeCapExceeded:
            return None
        return tuple(sorted(found)) if len(found) <= most else None

    return _HOMS.get((a.key, x.key, cap, most), build)


@dataclass(frozen=True)
class KanResult:
    """Outcome of a left Kan extension computation."""

    exists: bool
    extension: Optional[MonotoneMap]
    strict: bool
    method: str

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "strict": self.strict,
            "extension": self.extension.as_dict() if self.extension else None,
        }


def _least_extension(target: Poset, vals, h: MonotoneMap, below: tuple) -> tuple:
    """(values, route): the least extension along h of a map with values
    vals, where vals[a] is its value at a in dom(h) and below = h.below()
    lists at each b of cod(h) the a with h(a) <= b; values is None when
    there is none.  The one routine behind every extension problem.

    The pointwise route takes at each b the join in target of vals[a]
    over below[b], looked up by value mask (``Poset.join_mask``).  When
    one of those joins is missing, the value-set route takes at each b
    the least value that the monotone g: cod(h) -> target with
    vals[a] <= g(h(a)) take there (one row of ``monotone_value_sets``,
    the routine the even step asks at its points), and fails when a set
    is empty or has no least element."""
    join_mask = target.join_mask
    out = []
    for under in below:
        if len(under) == 1:
            out.append(vals[under[0]])
            continue
        vmask = 0
        for a in under:
            vmask |= 1 << vals[a]
        j = join_mask(vmask)
        if j is None:
            break
        out.append(j)
    else:
        return out, "pointwise"
    sets = monotone_value_sets(h.cod, target, _bound_row(h, target, [vals]))[0]
    least = None if sets is None else [target.least_of(m) for m in sets]
    return (None if least is None or None in least else least), "value_sets"


def left_kan(f: MonotoneMap, h: MonotoneMap) -> KanResult:
    """Least g: cod(h) -> cod(f) with f <= g∘h, together with strictness
    (whether g∘h equals f on the nose).

    Without every pointwise join, g exists exactly when the set of
    values the candidates take at each b has a least element, and is
    then that map (``_least_extension``'s value-set route): a least
    candidate takes the least value everywhere, and the least values are
    monotone because, for b <= b', a candidate taking the least value at
    b' bounds the least value at b."""
    if f.dom.key != h.dom.key:
        raise DomainMismatch("left_kan needs f and h with a common domain")
    assign, method = _least_extension(f.cod, f.assignment, h, h.below())
    if assign is None:
        return KanResult(False, None, False, method)
    strict = tuple(assign[v] for v in h.assignment) == f.assignment
    return KanResult(True, MonotoneMap(h.cod, f.cod, assign), strict, method)


def is_dense(f: MonotoneMap) -> bool:
    """Whether the identity is the least g with f <= g∘f, i.e. whether
    (identity, identity 2-cell) is the left Kan extension of f along f.
    The identity is always a candidate, so this holds exactly when each
    v is the least value any candidate takes at v."""
    r = left_kan(f, f)
    return r.exists and r.extension == MonotoneMap.identity(f.cod)
