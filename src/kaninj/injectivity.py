"""Weak and strong left Kan injectivity of posets and monotone maps.

A poset X is weakly injective along h: A -> B when every f: A -> X has a
least extension along h, and (strongly) injective when each of those
extensions restricts back to f on the nose.  A monotone map is injective
when its endpoints are and it commutes with taking extensions.  The
mapping cone turns every weak question into a strong one about a single
associated inclusion.

Both of the library's core decisions are made here: whether a poset is
strong along the class, and whether a map preserves extensions.
``_extensions`` lists every extension problem (h, f: dom h -> x) with
its ``left_kan`` answer, and ``_unpreserved`` is the one preservation
check over such a table; the map verdicts, ``preserves_kan``, the
saturation closure checks and ``kz_laws`` all run it.  Those callers
ask for the same tables again and again, so each table is kept once
per (poset, maps, size cap) in a bounded cache and shared: it must not
be mutated, and a build that raises stores nothing.  The check decides
each row on plain tuples with left_kan's two routes, which
``extend_along_unit`` also uses: the pointwise join ``hom._span_join``
over each class map's memoized ``below`` table, and, for a row where a
join is missing, the least of each exact value set
(``hom._least_values``).

``is_injective`` and ``is_weakly_injective`` share one scan and one
adjoint cross-check, which builds one adjoint per class map h: the
restriction map m = hom(h, x) must have a left adjoint t, with m∘t = id
for the strong verdict.  Every search runs under ``config.size_cap()``
except the cross-check's hom-posets, which get a fixed budget of their
own (``50 * CROSS_CHECK_CAP`` nodes) and are skipped when it runs out.
Both decide from scratch every time, over a table of their own
(``_extension_rows``, not the cached one), and return the evidence, so
a caller that only asks for a verdict stores no table.  The
``is_injective`` report, without its witnesses, is kept once per
(poset, class maps, size cap) in a bounded cache: ``verdict`` returns
its verdict string, so a caller that only needs to know whether a
target is strong, such as ``extend_along_unit`` on every call, pays for
the scan and its cross-check once, and ``is_injective_map`` reads both
endpoint reports from it.  A report
whose cross-check disagrees with its verdict raises
``PostconditionFailed`` instead of being stored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    SizeCapExceeded,
)
from .hom import _least_values, _restriction, _span_join, hom_poset, left_kan
from .poset import MonotoneMap, Poset, enumerate_monotone, left_adjoint

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

# hom-posets larger than this skip the adjoint cross-check; the direct
# per-map route is exact either way
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
    the verdict, None when the hom-posets were too large to try.
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


def _extension_rows(x: Poset, maps: Sequence) -> tuple:
    """Every extension problem (h in maps, f: dom(h) -> x), in class and
    enumeration order, as rows (h_index, f, left_kan(f, h))."""
    return tuple(
        (hi, f, left_kan(f, h))
        for hi, h in enumerate(maps)
        for f in enumerate_monotone(h.dom, x)
    )


_EXTENSIONS = BoundedCache()


def _extensions(x: Poset, maps: Sequence) -> tuple:
    """_extension_rows(x, maps), built once per (x, maps, size cap) and
    then read from a bounded cache; the table is shared."""
    key = (x.key, tuple(h.key() for h in maps), size_cap())
    return _EXTENSIONS.get(key, lambda: _extension_rows(x, maps))


def _all_strong(table: tuple) -> bool:
    """Whether every extension in the table exists and restricts back."""
    return all(res.exists and res.strict for _, _, res in table)


def _unpreserved(p: MonotoneMap, maps: Sequence, table: tuple):
    """The problems (h_index, f) of a table into p.dom, built by
    _extensions over maps, whose extension p does not carry onto the
    extension of p∘f.  Every extension into both endpoints must exist.

    Each row is decided on plain tuples, by left_kan's routes for p∘f
    along h: at each b of cod(h), the join in p.cod of p(f(a)) over the
    a with h(a) <= b (``_span_join``), or, when a join is missing, the
    least of each exact value set (``hom._least_values``).  The row is
    preserved when that is p∘ext.  NotComposable when the table is not
    into p.dom, checked on the first row, and DomainMismatch when f and
    h have different domains, checked on every row: the errors composing
    and left_kan raise.
    """
    if table and table[0][1].cod.key != p.dom.key:
        raise NotComposable("codomain/domain mismatch")
    pa = p.assignment
    for hi, f, res in table:
        h = maps[hi]
        if f.dom.key != h.dom.key:
            raise DomainMismatch("left_kan needs f and h with a common domain")
        vals = [pa[v] for v in f.assignment]
        joined = _span_join(p.cod, vals, h.below())
        if joined is None:
            joined = _least_values(p.cod, vals, h)
        if joined != [pa[v] for v in res.extension.assignment]:
            yield hi, f


def _small_precompose(h: MonotoneMap, x: Poset) -> Optional[MonotoneMap]:
    """Restriction map between hom-posets, or None when too large."""
    try:
        hb = hom_poset(h.cod, x, cap=50 * CROSS_CHECK_CAP)
        ha = hom_poset(h.dom, x, cap=50 * CROSS_CHECK_CAP)
    except SizeCapExceeded:
        return None
    if len(hb) > CROSS_CHECK_CAP or len(ha) > CROSS_CHECK_CAP:
        return None
    return _restriction(h, hb, ha)


def _decide(x: Poset, klass: MapClass, strong: bool) -> InjectivityReport:
    """The scan and cross-check behind both object verdicts.

    With strong, x holds along h when every extension exists and is
    strict, and the cross-check asks for the restriction map m to be a
    rali: a left adjoint t with m∘t = id (``t.then(m)`` the identity);
    without, existence is enough and the cross-check asks for a left
    adjoint.
    """
    table = _extension_rows(x, klass.maps)
    failures = tuple((hi, f, "no least extension") for hi, f, res in table if not res.exists)
    held = [True] * len(klass.maps)
    for hi, _, res in table:
        held[hi] = held[hi] and res.exists and (res.strict or not strong)
    if failures:
        verdict = "neither"
    elif strong and all(held):
        verdict = "strong"
    else:
        verdict = "weak"
    cross = None
    for hi, h in enumerate(klass.maps):
        m = _small_precompose(h, x)
        if m is None:
            continue
        t = left_adjoint(m)
        adjoint = t is not None and (not strong or t.then(m) == MonotoneMap.identity(m.cod))
        agree = adjoint == held[hi]
        cross = agree if cross is None else (cross and agree)
    return InjectivityReport(_subject(x), verdict, table, failures, cross)


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
        rep = is_injective(x, klass)
        if rep.cross_check is False:
            raise PostconditionFailed(
                f"{rep.verdict} verdict on {rep.subject} disagrees with the adjoint cross-check"
            )
        return replace(rep, witnesses=())

    key = (x.key, tuple(h.key() for h in klass.maps), size_cap())
    return _VERDICTS.get(key, decide)


def verdict(x: Poset, klass: MapClass) -> str:
    """is_injective(x, klass).verdict, decided once per (x, maps of
    klass, size cap); PostconditionFailed when the adjoint cross-check
    disagrees with it."""
    return _report(x, klass).verdict


def is_injective_map(p: MonotoneMap, klass: MapClass) -> InjectivityReport:
    """Verdict for a monotone map: strong when both endpoints are strong
    and p sends each extension f/h to (p∘f)/h; weak when the endpoints
    are merely weak and p still preserves the extensions.

    The endpoint reports come from the verdict cache, and their failures
    are copied into the failure list with a side tag; preservation is
    only evaluated when both endpoints are at least weak, since the
    comparison needs both extensions to exist.
    """
    dom_rep = _report(p.dom, klass)
    cod_rep = _report(p.cod, klass)
    witnesses = ()
    failures = [
        (hi, f, "domain: " + reason) for hi, f, reason in dom_rep.failures
    ] + [
        (hi, f, "codomain: " + reason) for hi, f, reason in cod_rep.failures
    ]
    if dom_rep.weak and cod_rep.weak:
        witnesses = _extensions(p.dom, klass.maps)
        failures += [
            (hi, f, "extension not preserved")
            for hi, f in _unpreserved(p, klass.maps, witnesses)
        ]
    if failures:
        verdict = "neither"
    elif dom_rep.strong and cod_rep.strong:
        verdict = "strong"
    else:
        verdict = "weak"
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
