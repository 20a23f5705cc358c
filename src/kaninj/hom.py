"""Hom-posets, left Kan extensions along a map, density and Beck–Chevalley.

``left_kan(f, h)`` computes the least monotone g with f <= g∘h, taking
"least" globally: when the candidates only have several incomparable
minimal elements, the extension does not exist.  A pointwise join formula
is used when every needed join exists (and is provably the least candidate
then); otherwise it reads the exact set of values the candidates take at
each point (``monotone_value_sets``, as the even step does) and takes
the least of each, which is the least candidate whenever every set has
a least element.  Both routes are checked against a brute-force oracle
by the test-suite, the second also on targets where every join exists.
``is_dense(f)`` is ``left_kan(f, f)`` compared with the identity.

Both routes work on plain tuples and are shared with the preservation
check in ``injectivity`` and with ``extend_along_unit``: the pointwise
route is ``_span_join``, which along h reads the map's memoized
``MonotoneMap.below`` table and looks each join up in the target's memo
by value mask (``Poset.join_mask``), and the value-set route is
``_least_values``.  The callers keep the join inline and take the value
sets only where a join is missing.

Whether a poset is strong along a class, and whether a map preserves
extensions, are decided in ``injectivity`` with ``left_kan``'s two
routes.

Every search runs under ``config.size_cap()``, read when it runs.
``hom_poset(a, x, cap=None)`` alone takes a budget of its own and is
memoised in a bounded table keyed on both posets and
``config.effective_cap(cap)``, so its answer, a hom-poset or
``SizeCapExceeded``, never depends on earlier calls.  The injectivity
cross-check reads its hom-posets through ``_hom_at_most``, under a
fixed budget: it stops at the map after its limit, and keeps the
hom-poset, or None when there are more maps or the budget runs out, in
the same table, keyed also on the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Optional

from .cache import BoundedCache
from .config import effective_cap
from .errors import DomainMismatch, NotInjectiveContext, SizeCapExceeded
from .poset import (
    MonotoneMap,
    Poset,
    _bound_row,
    _fibers,
    _preimage,
    iter_monotone_assignments,
    monotone_value_sets,
    left_adjoint,
)

_HOMS = BoundedCache()


class HomPoset:
    """The poset of monotone maps a -> x under the pointwise order, from
    the assignment tuples of all of them."""

    def __init__(self, a: Poset, x: Poset, assignments: Iterable[tuple]):
        self.a = a
        self.x = x
        self.assignments = tuple(sorted(assignments))
        self.index = {t: k for k, t in enumerate(self.assignments)}

    def __len__(self) -> int:
        return len(self.assignments)

    @cached_property
    def as_poset(self) -> Poset:
        m = len(self.assignments)
        width = max(3, len(str(max(m - 1, 0))))
        labels = [f"m{k:0{width}d}" for k in range(m)]
        up = [(1 << m) - 1] * m
        for k in range(self.a.n):
            # the maps whose value at k is each value, then at or above it
            fibers = _fibers([g[k] for g in self.assignments], self.x.n)
            above = [_preimage(fibers, u) for u in self.x.up_masks]
            up = [mask & above[g[k]] for mask, g in zip(up, self.assignments)]
        return Poset(labels, up, validate=False)


def hom_poset(a: Poset, x: Poset, cap: Optional[int] = None) -> HomPoset:
    """hom(a, x), memoised per (a, x, effective cap)."""
    return _HOMS.get(
        (a.key, x.key, effective_cap(cap)),
        lambda: HomPoset(a, x, iter_monotone_assignments(a, x, cap=cap)),
    )


def _hom_at_most(a: Poset, x: Poset, most: int, cap: int) -> Optional[HomPoset]:
    """hom(a, x) when it has at most ``most`` maps, None when it has
    more or its search visits more than cap nodes first.  The search
    stops at the map after ``most``, and the outcome, either one, is
    memoised in hom_poset's table per (a, x, cap, most)."""

    def build() -> Optional[HomPoset]:
        try:
            found = list(islice(iter_monotone_assignments(a, x, cap=cap), most + 1))
        except SizeCapExceeded:
            return None
        return HomPoset(a, x, found) if len(found) <= most else None

    return _HOMS.get((a.key, x.key, cap, most), build)


def precompose(h: MonotoneMap, x: Poset) -> MonotoneMap:
    """Restriction K(h, x): hom(cod h, x) -> hom(dom h, x), g -> g∘h,
    as a monotone map between the hom-posets."""
    return _restriction(h, hom_poset(h.cod, x), hom_poset(h.dom, x))


def _restriction(h: MonotoneMap, src: HomPoset, tgt: HomPoset) -> MonotoneMap:
    """precompose(h, x) on the hom-posets src = hom(cod h, x) and
    tgt = hom(dom h, x) already in hand."""
    assign = [
        tgt.index[tuple(g[v] for v in h.assignment)] for g in src.assignments
    ]
    return MonotoneMap(src.as_poset, tgt.as_poset, assign, validate=False)


def postcompose(a: Poset, p: MonotoneMap) -> MonotoneMap:
    """K(a, p): hom(a, dom p) -> hom(a, cod p), t -> p∘t."""
    src = hom_poset(a, p.dom)
    tgt = hom_poset(a, p.cod)
    assign = [tgt.index[tuple(p.assignment[v] for v in t)] for t in src.assignments]
    return MonotoneMap(src.as_poset, tgt.as_poset, assign, validate=False)


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


def _span_join(target: Poset, vals, below: tuple) -> Optional[list]:
    """The pointwise least extension along h of a map with values vals,
    where vals[a] is its value at a in dom(h) and below = h.below(): at
    each b of cod(h), the join in target of vals[a] over the a in
    below[b], looked up by value mask (``Poset.join_mask``).  None when
    one of those joins does not exist (left_kan's pointwise route, on
    plain tuples)."""
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
            return None
        out.append(j)
    return out


def _least_values(target: Poset, vals, h: MonotoneMap) -> Optional[list]:
    """What _span_join answers when a join is missing: at each b of
    cod(h), the least value that the monotone g: cod(h) -> target with
    vals[a] <= g(h(a)) take at b (a one-row ``monotone_value_sets`` call
    at every b, the routine the even step asks at its points); None when
    a set of values is empty or has no least element."""
    sets = monotone_value_sets(h.cod, target, _bound_row(h, target, [vals]))[0]
    least = None if sets is None else [target.least_of(m) for m in sets]
    return None if least is None or None in least else least


def left_kan(f: MonotoneMap, h: MonotoneMap) -> KanResult:
    """Least g: cod(h) -> cod(f) with f <= g∘h, together with strictness
    (whether g∘h equals f on the nose).

    Without every pointwise join, g exists exactly when the set of
    values the candidates take at each b has a least element, and is
    then that map (``_least_values``): a least candidate takes the least
    value everywhere, and the least values are monotone because, for
    b <= b', a candidate taking the least value at b' bounds the least
    value at b."""
    if f.dom.key != h.dom.key:
        raise DomainMismatch("left_kan needs f and h with a common domain")
    assign = _span_join(f.cod, f.assignment, h.below())
    method = "pointwise"
    if assign is None:
        assign, method = _least_values(f.cod, f.assignment, h), "value_sets"
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


def beck_chevalley(p: MonotoneMap, h: MonotoneMap) -> bool:
    """Commutation of extension with postcomposition at the hom-poset level:
    K(cod h, p) ∘ (-/h) = (-/h) ∘ K(dom h, p).

    The extension functors are taken as left adjoints of the restriction
    maps; NotInjectiveContext when either adjoint is missing."""
    ext_x = left_adjoint(precompose(h, p.dom))
    ext_xp = left_adjoint(precompose(h, p.cod))
    if ext_x is None or ext_xp is None:
        raise NotInjectiveContext("restriction map has no left adjoint")
    post_a = postcompose(h.dom, p)
    post_apr = postcompose(h.cod, p)
    return ext_x.then(post_apr) == post_a.then(ext_xp)
