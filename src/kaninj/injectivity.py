"""Weak and strong left Kan injectivity of posets and monotone maps.

A poset X is weakly injective along h: A -> B when every f: A -> X has a
least extension along h, and (strongly) injective when each of those
extensions restricts back to f on the nose.  A monotone map is injective
when its endpoints are and it commutes with taking extensions.  The
mapping cone turns every weak question into a strong one about a single
associated inclusion.

Both of the library's core decisions are made here: whether a poset is
strong along the class, and whether a map preserves extensions.  One
scan, ``_scan``, yields every extension problem (h, f: dom h -> x) on
assignment tuples as (h_index, f, extension, strictness, route), each
answered by ``hom._least_extension``, the routine behind left_kan and
``extend_along_unit``, over the class map's memoized ``below`` table.
``_extensions`` keeps those tuples as the extension table, with the
keys of the poset and of the maps they were scanned for, and
``_unpreserved`` is the one preservation check over it, deciding each
problem with the same routine; the map verdicts, ``preserves_kan``, the
saturation closure checks and ``kz_laws`` all run it.  Those callers
ask for the same tables again and again, so each table is kept once per
(poset, maps, size cap) in a bounded cache and shared: it must not be
mutated, and a build that raises stores nothing.  Maps and
``KanResult`` rows, equal to left_kan's answers, method included, are
built from the tuples (``_as_row``) only for a public report's
witnesses, and a map for the f of each failure.

``is_injective`` and ``is_weakly_injective`` decide from the scan and
share one adjoint cross-check (``_cross_check``), one per class map h:
the restriction map m = hom(h, x) must have a left adjoint t, with
m∘t = id for the strong verdict.  It is decided on the hom-sets'
assignment tuples, without building the order of either hom-set or m:
t(f) exists when the maps g with f <= g∘h take a least value at every
point of cod h, and is then the map of those least values.  Every
search runs under ``config.size_cap()`` except the cross-check's
hom-sets (``hom._hom_at_most``), which get a fixed budget of their own
(``50 * CROSS_CHECK_CAP`` nodes) and stop at the map after
``CROSS_CHECK_CAP``; h is skipped when either runs out, and that
outcome is memoised with the hom-sets.  Both verdicts decide from
scratch every time, over rows of their own (not the cached table), and
return the evidence, so a caller that only asks for a verdict stores no
table.  The ``is_injective`` report, without its witnesses, is kept
once per (poset, class maps, size cap) in a bounded cache and decided
on the scanned tuples, building no map but the f of each failure:
``verdict`` returns its verdict string, so a caller that only needs to
know whether a target is strong, such as ``extend_along_unit`` on every
call, pays for the scan and its cross-check once.  The map verdict
(``_map_verdict``, behind ``is_injective_map`` and the verify suites)
reads both endpoint reports from it and builds no witness.  A report
whose cross-check disagrees with its verdict raises
``PostconditionFailed`` instead of being stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cache import BoundedCache
from .catalog import MapClass, all_posets
from .colimits import cocomma
from .config import size_cap
from .errors import (
    DomainMismatch,
    NotComposable,
    NotInjectiveContext,
    PostconditionFailed,
)
from .hom import KanResult, _hom_at_most, _least_extension
from .poset import MonotoneMap, Poset, _check_monotone, _fibers, _preimage, iter_monotone_assignments

__all__ = [
    "InjectivityReport",
    "is_weakly_injective",
    "is_injective",
    "is_injective_map",
    "preserves_kan",
    "verdict",
    "mapping_cone",
    "cone_class",
    "strong_objects",
]

# the adjoint cross-check along h is skipped when hom(cod h, x) or
# hom(dom h, x) has more maps than this, and its enumeration stops at
# the map after it; the direct per-map route is exact either way
CROSS_CHECK_CAP = 400


def _subject(x: Poset) -> str:
    return "{" + ",".join(x.elements) + "}"


@dataclass(frozen=True)
class InjectivityReport:
    """Verdict plus the per-(h, f) evidence it rests on.

    witnesses holds one (h_index, f, KanResult) entry per extension
    problem examined; failures lists the problems with no least extension
    (and, for maps, the extensions the map fails to preserve), so the
    failure list is empty exactly when the verdict is weak or strong.
    cross_check reports agreement with the adjoint characterization of
    the verdict, None when the hom-sets were too large to try.
    """

    subject: str
    verdict: str  # "strong" | "weak" | "neither"
    witnesses: tuple = ()
    failures: tuple = ()
    cross_check: Optional[bool] = None

    @property
    def weak(self) -> bool:
        return self.verdict != "neither"

    @property
    def strong(self) -> bool:
        return self.verdict == "strong"

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "witnesses": [
                {"h": hi, "f": f.as_dict(), **res.to_json()}
                for hi, f, res in self.witnesses
            ],
            "failures": [
                {"h": hi, "f": f.as_dict(), "reason": reason}
                for hi, f, reason in self.failures
            ],
            "cross_check": self.cross_check,
        }


def _scan(x: Poset, maps: Sequence):
    """Every extension problem (h in maps, f: dom(h) -> x), in class and
    enumeration order, as (h_index, f, extension, strict, route) on
    assignment tuples, answered by ``_least_extension`` and named by
    route as left_kan names its method.  extension is None when f has
    no least extension; one that breaks a cover pair of cod(h) raises
    NotMonotone (``_check_monotone``), as left_kan's validated map does."""
    for hi, h in enumerate(maps):
        below = h.below()
        for f in sorted(iter_monotone_assignments(h.dom, x)):
            ext, route = _least_extension(x, f, h, below)
            if ext is None:
                yield hi, f, None, False, route
                continue
            _check_monotone(h.cod, x, ext)
            yield hi, f, ext, tuple(ext[v] for v in h.assignment) == f, route


def _as_row(x: Poset, maps: Sequence, hi, f, ext, strict, route) -> tuple:
    """A scanned problem as (h_index, f, left_kan(f, h))."""
    h = maps[hi]
    g = None if ext is None else MonotoneMap(h.cod, x, ext, validate=False)
    res = KanResult(ext is not None, g, strict, route)
    return hi, MonotoneMap(h.dom, x, f, validate=False), res


_EXTENSIONS = BoundedCache()


def _extensions(x: Poset, maps: Sequence) -> tuple:
    """(x.key, the maps' keys, the scanned problems of ``_scan``), built
    once per (x, maps, size cap) and then read from a bounded cache; the
    table is shared."""
    keys = (x.key, tuple(h.key() for h in maps))
    return _EXTENSIONS.get(keys + (size_cap(),), lambda: keys + (tuple(_scan(x, maps)),))


def _all_strong(table: tuple) -> bool:
    """Whether every extension in the table exists and restricts back."""
    return all(ext is not None and strict for _, _, ext, strict, _ in table[2])


def _unpreserved(p: MonotoneMap, maps: Sequence, table: tuple):
    """The problems (h_index, f) of a table into p.dom, built by
    _extensions over maps, whose extension p does not carry onto the
    extension of p∘f.  Every extension into both endpoints must exist.

    Each problem is decided on plain tuples: the extension of p∘f along
    h (``_least_extension``) must be p∘ext.  NotComposable when the
    table is not into p.dom and DomainMismatch when it was scanned for
    other maps, both read off the table's keys once per call: the errors
    composing and left_kan raise.
    """
    x_key, map_keys, rows = table
    if x_key != p.dom.key:
        raise NotComposable("codomain/domain mismatch")
    if map_keys != tuple(h.key() for h in maps):
        raise DomainMismatch("the extension table was scanned along other maps")
    pa, target = p.assignment, p.cod
    belows = [h.below() for h in maps]
    for hi, f, ext, _, _ in rows:
        joined, _ = _least_extension(target, [pa[v] for v in f], maps[hi], belows[hi])
        if joined != [pa[v] for v in ext]:
            yield hi, f


def _cross_check(h: MonotoneMap, x: Poset, strong: bool) -> Optional[bool]:
    """Whether the restriction map m = hom(h, x): hom(cod h, x) ->
    hom(dom h, x), g -> g∘h, has a left adjoint t, with m∘t = id when
    strong; None when either hom-set has more than CROSS_CHECK_CAP maps
    or its search runs out of its budget (``_hom_at_most``).

    Decided on the hom-sets' assignment tuples, without building the
    order of either hom-set or the map m.  t(f) is the least g in
    U_f = {g : f <= g∘h}, the AND over a in dom h of the maps whose
    value at h(a) lies in the up-set of f(a): a bitmask over
    hom(cod h, x), read off the fibers of each coordinate.  A least
    element of U_f takes the least value at every b, so t(f) exists
    exactly when each set of values U_f takes at b has a least element
    l(b); then t(f) is l.  l lies in U_f with no test: it is monotone
    (for b <= b', a g in U_f with g(b') = l(b') bounds l(b)), and l(h(a))
    is a value that maps in U_f take at h(a), so it lies above f(a).
    m∘t = id at f when l∘h = f."""
    hb = _hom_at_most(h.cod, x, CROSS_CHECK_CAP, 50 * CROSS_CHECK_CAP)
    if hb is None:
        return None
    ha = _hom_at_most(h.dom, x, CROSS_CHECK_CAP, 50 * CROSS_CHECK_CAP)
    if ha is None:
        return None
    up, least_of = x.up_masks, x.least_of
    fibers = [_fibers([g[b] for g in hb], x.n) for b in range(h.cod.n)]
    taken = [[(1 << v, fib[v]) for v in range(x.n) if fib[v]] for fib in fibers]
    full = (1 << len(hb)) - 1
    pre, leasts = {}, {}
    for f in ha:
        u = full
        for b, v in zip(h.assignment, f):
            p = pre.get((b, v))
            if p is None:
                p = pre[b, v] = _preimage(fibers[b], up[v])
            u &= p
        least = []
        for col in taken:
            vmask = 0
            for bit, fiber in col:
                if fiber & u:
                    vmask |= bit
            try:
                l = leasts[vmask]
            except KeyError:
                l = leasts[vmask] = least_of(vmask)
            if l is None:
                return False
            least.append(l)
        if strong and tuple(least[b] for b in h.assignment) != f:
            return False
    return True


def _decide(x: Poset, klass: MapClass, strong: bool, witnesses: bool = True) -> InjectivityReport:
    """The scan and cross-check behind both object verdicts.

    With strong, x holds along h when every extension exists and is
    strict, and the cross-check (``_cross_check``) asks for the
    restriction map m to be a rali: a left adjoint t with m∘t = id;
    without, existence is enough and the cross-check asks for a left
    adjoint.  Without witnesses the report carries none, and the only
    maps built are the f of the failures.
    """
    maps = klass.maps
    table, failures = [], []
    held = [True] * len(maps)
    for row in _scan(x, maps):
        hi, f, ext, strict, _ = row
        if witnesses:
            table.append(_as_row(x, maps, *row))
        if ext is None:
            fmap = MonotoneMap(maps[hi].dom, x, f, validate=False)
            failures.append((hi, fmap, "no least extension"))
        held[hi] = held[hi] and ext is not None and (strict or not strong)
    if failures:
        verdict = "neither"
    elif strong and all(held):
        verdict = "strong"
    else:
        verdict = "weak"
    cross = None
    for hi, h in enumerate(maps):
        adjoint = _cross_check(h, x, strong)
        if adjoint is None:
            continue
        agree = adjoint == held[hi]
        cross = agree if cross is None else (cross and agree)
    return InjectivityReport(_subject(x), verdict, tuple(table), tuple(failures), cross)


def is_weakly_injective(x: Poset, klass: MapClass) -> InjectivityReport:
    """Weak verdict: every f has a least extension along every h.

    Cross-checked, where feasible, against the equivalent statement that
    each restriction map hom(cod h, x) -> hom(dom h, x) has a left
    adjoint.
    """
    return _decide(x, klass, strong=False)


def is_injective(x: Poset, klass: MapClass) -> InjectivityReport:
    """Strong verdict: every extension exists and is strict; weak when
    all exist but some fail to restrict back; neither otherwise.

    Cross-checked, where feasible, against the adjoint characterization:
    strength along h is precisely the restriction map being a rali.
    """
    return _decide(x, klass, strong=True)


_VERDICTS = BoundedCache()


def _report(x: Poset, klass: MapClass) -> InjectivityReport:
    """is_injective(x, klass) without its witnesses, decided once per
    (x, maps of klass, size cap) and then read from a bounded cache.
    A report whose cross-check disagrees raises PostconditionFailed, and
    neither it nor a raised SizeCapExceeded is stored."""

    def decide() -> InjectivityReport:
        rep = _decide(x, klass, strong=True, witnesses=False)
        if rep.cross_check is False:
            raise PostconditionFailed(
                f"{rep.verdict} verdict on {rep.subject} disagrees with the adjoint cross-check"
            )
        return rep

    key = (x.key, tuple(h.key() for h in klass.maps), size_cap())
    return _VERDICTS.get(key, decide)


def verdict(x: Poset, klass: MapClass) -> str:
    """is_injective(x, klass).verdict, decided once per (x, maps of
    klass, size cap); PostconditionFailed when the adjoint cross-check
    disagrees with it."""
    return _report(x, klass).verdict


def _map_verdict(p: MonotoneMap, klass: MapClass) -> tuple:
    """(verdict, unpreserved) of p, as is_injective_map decides it, with
    unpreserved the problems (h_index, f) whose extension p does not
    carry (``_unpreserved``); it is empty when an endpoint is neither,
    since the comparison needs both extensions to exist.  Reads the
    cached endpoint reports and builds no witness."""
    dom_rep = _report(p.dom, klass)
    cod_rep = _report(p.cod, klass)
    if not (dom_rep.weak and cod_rep.weak):
        return "neither", ()
    maps = klass.maps
    lost = tuple(_unpreserved(p, maps, _extensions(p.dom, maps)))
    if lost:
        return "neither", lost
    return ("strong" if dom_rep.strong and cod_rep.strong else "weak"), ()


def is_injective_map(p: MonotoneMap, klass: MapClass) -> InjectivityReport:
    """Verdict for a monotone map: strong when both endpoints are strong
    and p sends each extension f/h to (p∘f)/h; weak when the endpoints
    are merely weak and p still preserves the extensions.

    The verdict is ``_map_verdict``'s.  The endpoint reports come from
    the verdict cache, and their failures are copied into the failure
    list with a side tag, followed by the extensions p does not
    preserve; the witnesses are the domain's extension table, given only
    when both endpoints are at least weak.
    """
    verdict, lost = _map_verdict(p, klass)
    dom_rep = _report(p.dom, klass)
    cod_rep = _report(p.cod, klass)
    maps = klass.maps
    failures = [
        (hi, f, "domain: " + reason) for hi, f, reason in dom_rep.failures
    ] + [
        (hi, f, "codomain: " + reason) for hi, f, reason in cod_rep.failures
    ] + [
        (hi, MonotoneMap(maps[hi].dom, p.dom, f, validate=False), "extension not preserved")
        for hi, f in lost
    ]
    witnesses = ()
    if dom_rep.weak and cod_rep.weak:
        witnesses = tuple(_as_row(p.dom, maps, *row) for row in _extensions(p.dom, maps)[2])
    crosses = [c for c in (dom_rep.cross_check, cod_rep.cross_check) if c is not None]
    cross = all(crosses) if crosses else None
    subject = _subject(p.dom) + "->" + _subject(p.cod)
    return InjectivityReport(subject, verdict, witnesses, tuple(failures), cross)


def preserves_kan(p: MonotoneMap, h: MonotoneMap) -> bool:
    """Whether p sends the extension of f along h to the extension of p∘f,
    for every f.  Both endpoints of p must be strongly injective along h;
    NotInjectiveContext otherwise."""
    table = _extensions(p.dom, (h,))
    if not _all_strong(table):
        raise NotInjectiveContext("domain of p is not strongly Kan-injective")
    if not _all_strong(_extensions(p.cod, (h,))):
        raise NotInjectiveContext("codomain of p is not strongly Kan-injective")
    return not any(_unpreserved(p, (h,), table))


def mapping_cone(h: MonotoneMap):
    """Cocomma object of the identity with h.

    Returns (C, i, j, rho) with i the domain leg, j the codomain leg and
    rho: i => j∘h the universal inequality.  Being weakly injective along
    h is the same as being strongly injective along i: the least map out
    of C extending f: dom(h) -> X is f on the domain copy paired with
    f/h on the codomain copy, and it restricts along i to f exactly.
    """
    res = cocomma(MonotoneMap.identity(h.dom), h)
    i, j = res.injections
    return res.object, i, j, res.two_cell


def cone_class(klass: MapClass) -> MapClass:
    """The class of cone legs {i_h : h in klass}."""
    return MapClass(
        "cone(" + klass.name + ")",
        tuple(mapping_cone(h)[1] for h in klass),
    )


def strong_objects(max_n: int, klass: MapClass) -> tuple:
    """Representatives of every isomorphism class with at most max_n
    elements that are strongly injective for the class, in the fixed
    enumeration order."""
    return tuple(p for p in all_posets(max_n) if verdict(p, klass) == "strong")
