"""Weak and strong left Kan injectivity of posets and monotone maps.

A poset X is weakly injective along h: A -> B when every f: A -> X has a
least extension along h, and (strongly) injective when each of those
extensions restricts back to f on the nose.  A monotone map is injective
when its endpoints are and it commutes with taking extensions.  The
mapping cone turns every weak question into a strong one about a single
associated inclusion.

``is_injective``, ``is_weakly_injective`` and ``is_injective_map``
decide from scratch every time and return the evidence.  ``verdict``
returns only the verdict string and decides each (poset, class maps,
effective cap) once per process: a caller that only needs to know
whether a target is strong, such as ``extend_along_unit`` on every call,
pays for the scan and its adjoint cross-check once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import BoundedCache
from .catalog import MapClass, all_posets
from .colimits import cocomma
from .config import effective_cap
from .errors import SizeCapExceeded
from .hom import _restriction, hom_poset, left_kan
from .poset import (
    MonotoneMap,
    Poset,
    classify_adjoint,
    enumerate_monotone,
    left_adjoint,
)

__all__ = [
    "InjectivityReport",
    "is_weakly_injective",
    "is_injective",
    "is_injective_map",
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


def _scan(x: Poset, klass: MapClass, cap: Optional[int]):
    """Run every extension problem (h in klass, f: dom(h) -> x) once."""
    witnesses = []
    failures = []
    exists_per_h = []
    strict_per_h = []
    for hi, h in enumerate(klass):
        all_exist = True
        all_strict = True
        for f in enumerate_monotone(h.dom, x, cap=cap):
            res = left_kan(f, h, cap=cap)
            witnesses.append((hi, f, res))
            if not res.exists:
                failures.append((hi, f, "no least extension"))
                all_exist = False
                all_strict = False
            elif not res.strict:
                all_strict = False
        exists_per_h.append(all_exist)
        strict_per_h.append(all_strict)
    return tuple(witnesses), tuple(failures), exists_per_h, strict_per_h


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


def is_weakly_injective(x: Poset, klass: MapClass, cap: Optional[int] = None) -> InjectivityReport:
    """Weak verdict: every f has a least extension along every h.

    Cross-checked, where feasible, against the equivalent statement that
    each restriction map hom(cod h, x) -> hom(dom h, x) has a left
    adjoint.
    """
    witnesses, failures, exists_per_h, _ = _scan(x, klass, cap)
    verdict = "weak" if not failures else "neither"
    cross = None
    for hi, h in enumerate(klass):
        m = _small_precompose(h, x)
        if m is None:
            continue
        agree = (left_adjoint(m) is not None) == exists_per_h[hi]
        cross = agree if cross is None else (cross and agree)
    return InjectivityReport(_subject(x), verdict, witnesses, failures, cross)


def is_injective(x: Poset, klass: MapClass, cap: Optional[int] = None) -> InjectivityReport:
    """Strong verdict: every extension exists and is strict; weak when
    all exist but some fail to restrict back; neither otherwise.

    Cross-checked, where feasible, against the adjoint characterization:
    strength along h is precisely the restriction map being a rali.
    """
    witnesses, failures, exists_per_h, strict_per_h = _scan(x, klass, cap)
    if failures:
        verdict = "neither"
    elif all(strict_per_h):
        verdict = "strong"
    else:
        verdict = "weak"
    cross = None
    for hi, h in enumerate(klass):
        m = _small_precompose(h, x)
        if m is None:
            continue
        agree = classify_adjoint(m).is_rali == (exists_per_h[hi] and strict_per_h[hi])
        cross = agree if cross is None else (cross and agree)
    return InjectivityReport(_subject(x), verdict, witnesses, failures, cross)


_VERDICTS = BoundedCache()


def verdict(x: Poset, klass: MapClass, cap: Optional[int] = None) -> str:
    """is_injective(x, klass, cap).verdict, decided once per (x, maps of
    klass, effective cap) and then read from a bounded cache.  Only the
    string is kept; SizeCapExceeded is raised, never stored."""
    key = (x.key, tuple(h.key() for h in klass.maps), effective_cap(cap))
    return _VERDICTS.get(key, lambda: is_injective(x, klass, cap=cap).verdict)


def is_injective_map(p: MonotoneMap, klass: MapClass, cap: Optional[int] = None) -> InjectivityReport:
    """Verdict for a monotone map: strong when both endpoints are strong
    and p sends each extension f/h to (p∘f)/h; weak when the endpoints
    are merely weak and p still preserves the extensions.

    Endpoint failures are copied into the failure list with a side tag;
    preservation is only evaluated when both endpoints are at least weak,
    since the comparison needs both extensions to exist.
    """
    dom_rep = is_injective(p.dom, klass, cap=cap)
    cod_rep = is_injective(p.cod, klass, cap=cap)
    witnesses = []
    failures = [
        (hi, f, "domain: " + reason) for hi, f, reason in dom_rep.failures
    ] + [
        (hi, f, "codomain: " + reason) for hi, f, reason in cod_rep.failures
    ]
    if dom_rep.weak and cod_rep.weak:
        for hi, h in enumerate(klass):
            for f in enumerate_monotone(h.dom, p.dom, cap=cap):
                res = left_kan(f, h, cap=cap)
                witnesses.append((hi, f, res))
                pushed = left_kan(f.then(p), h, cap=cap)
                if res.extension.then(p) != pushed.extension:
                    failures.append((hi, f, "extension not preserved"))
    if failures:
        verdict = "neither"
    elif dom_rep.strong and cod_rep.strong:
        verdict = "strong"
    else:
        verdict = "weak"
    crosses = [c for c in (dom_rep.cross_check, cod_rep.cross_check) if c is not None]
    cross = all(crosses) if crosses else None
    subject = _subject(p.dom) + "->" + _subject(p.cod)
    return InjectivityReport(subject, verdict, tuple(witnesses), tuple(failures), cross)


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


def strong_objects(max_n: int, klass: MapClass, cap: Optional[int] = None) -> tuple:
    """Representatives of every isomorphism class with at most max_n
    elements that are strongly injective for the class, in the fixed
    enumeration order."""
    return tuple(p for p in all_posets(max_n) if verdict(p, klass, cap=cap) == "strong")
