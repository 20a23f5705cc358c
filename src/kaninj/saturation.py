"""Constructions that stay inside the saturation of a map class.

The saturation of a class is everything each strongly injective object
and map stays injective to.  Membership is not decidable from finite
data, so it is handled constructively: each sat_* function wraps its
output in a witness recording the recipe used, and closure_check
falsifies a witness against a finite sample of injectives.  A raw
MonotoneMap is accepted wherever a witness is expected and treated as an
assumed member of the base class.

Strength along the produced map and preservation of its extensions are
decided by ``injectivity``'s extension table and preservation check, the
same ones behind the map verdicts; each sampled object's table is built
once per check and shared by the maps out of it.

Every search runs under ``config.size_cap()``.  The strong objects and
strong maps of a (class, sample) pair are found once per size cap and
kept in a bounded cache, so repeated closure checks against one sample
share them; ``clear_caches()`` empties it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cache import BoundedCache
from .catalog import MapClass
from .colimits import cocomma, pushout, wide_pushout
from .config import size_cap
from .errors import DomainMismatch, NotLari, SquareDoesNotCommute
from .injectivity import _all_strong, _extensions, _unpreserved, verdict
from .poset import MonotoneMap, classify_adjoint, enumerate_monotone, right_adjoint

__all__ = [
    "SaturationWitness",
    "sat_lari",
    "sat_iso",
    "sat_compose",
    "sat_pushout",
    "sat_wide_pushout",
    "sat_reflection",
    "closure_check",
    "closure_failures",
]


@dataclass(frozen=True)
class SaturationWitness:
    """A map together with the construction that placed it in the
    saturation."""

    produced: MonotoneMap
    recipe: str
    inputs: tuple = ()

    def to_json(self) -> dict:
        return {"recipe": self.recipe, "produced": self.produced.as_dict()}


def _as_witness(m) -> SaturationWitness:
    if isinstance(m, SaturationWitness):
        return m
    return SaturationWitness(m, "assumed", ())


def sat_lari(l: MonotoneMap) -> SaturationWitness:
    """Any lari is saturated: its right adjoint splits every extension
    problem.  NotLari when l has no right adjoint r with r∘l = id."""
    if not classify_adjoint(l).is_lari:
        raise NotLari("map is not a left adjoint right inverse")
    return SaturationWitness(l, "lari", (l,))


def sat_iso(w, phi: MonotoneMap, psi: MonotoneMap) -> SaturationWitness:
    """Isomorphism replacement: conjugate a witness by isos on both ends
    (phi into the old domain, psi out of the old codomain)."""
    w = _as_witness(w)
    if not (phi.is_order_iso() and psi.is_order_iso()):
        raise ValueError("sat_iso needs isomorphisms on both sides")
    return SaturationWitness(
        phi.then(w.produced).then(psi), "iso-replacement", (w, phi, psi)
    )


def sat_compose(f, g) -> SaturationWitness:
    """Composite g∘f of two witnesses (f applied first)."""
    f, g = _as_witness(f), _as_witness(g)
    return SaturationWitness(f.produced.then(g.produced), "compose", (f, g))


def sat_pushout(h, f: MonotoneMap, mode: str = "pushout") -> SaturationWitness:
    """The leg opposite h in the pushout or cocomma of (f, h): saturation
    is stable under pushing a member along an arbitrary map."""
    h = _as_witness(h)
    if mode not in ("pushout", "cocomma"):
        raise ValueError("mode must be 'pushout' or 'cocomma'")
    if f.dom.key != h.produced.dom.key:
        raise DomainMismatch("f must share its domain with the witness")
    res = pushout(f, h.produced) if mode == "pushout" else cocomma(f, h.produced)
    return SaturationWitness(res.injections[0], mode, (h, f))


def sat_wide_pushout(hs: Sequence) -> SaturationWitness:
    """Diagonal of the wide pushout of a family of witnesses with a
    common domain."""
    ws = [_as_witness(h) for h in hs]
    if not ws:
        raise ValueError("need at least one leg")
    apex = ws[0].produced.dom
    for w in ws[1:]:
        if w.produced.dom.key != apex.key:
            raise DomainMismatch("wide pushout legs must share their domain")
    res = wide_pushout(apex, [w.produced for w in ws])
    diag = ws[0].produced.then(res.injections[0])
    for k, w in enumerate(ws):
        if w.produced.then(res.injections[k]) != diag:
            raise SquareDoesNotCommute(f"wide pushout leg {k} does not commute")
    return SaturationWitness(diag, "wide-pushout", tuple(ws))


def sat_reflection(
    h,
    l1: MonotoneMap,
    l2: MonotoneMap,
    r1: MonotoneMap,
    r2: MonotoneMap,
    s: MonotoneMap,
) -> SaturationWitness:
    """A retract s of a witness h along lari squares is saturated.

    l1: dom(s) -> dom(h) and l2: cod(s) -> cod(h) must be laris with the
    stated right adjoints, and both squares must commute exactly:
    h∘l1 = l2∘s and s∘r1 = r2∘h.
    """
    h = _as_witness(h)
    for l, r in ((l1, r1), (l2, r2)):
        if not classify_adjoint(l).is_lari:
            raise NotLari("square leg is not a lari")
        if right_adjoint(l) != r:
            raise NotLari("stated right adjoint does not match")
    if l1.then(h.produced) != s.then(l2):
        raise SquareDoesNotCommute("lari square does not commute")
    if r1.then(s) != h.produced.then(r2):
        raise SquareDoesNotCommute("adjoint square does not commute")
    return SaturationWitness(s, "reflection-square", (h, l1, l2, r1, r2, s))


_STRONG_PARTS = BoundedCache()


def _strong_part(klass: MapClass, sample: Sequence):
    """The strong objects of the sample and the strong maps between
    them, found once per (class maps, sample, size cap)."""
    key = (
        tuple(h.key() for h in klass.maps),
        tuple(x.key for x in sample),
        size_cap(),
    )
    return _STRONG_PARTS.get(key, lambda: _find_strong_part(klass, sample))


def _find_strong_part(klass: MapClass, sample: Sequence):
    strong = [x for x in sample if verdict(x, klass) == "strong"]
    maps = []
    for x in strong:
        table = _extensions(x, klass.maps)
        for y in strong:
            for p in enumerate_monotone(x, y):
                if not any(_unpreserved(p, klass.maps, table)):
                    maps.append(p)
    return strong, maps


def closure_failures(w, klass: MapClass, sample: Sequence) -> list:
    """Counterexamples to the witness respecting the sample: strong
    objects that fail injectivity along the produced map, then (only if
    none) strong maps that fail to preserve extensions along it."""
    along = (_as_witness(w).produced,)
    strong, maps = _strong_part(klass, sample)
    tables = {x.key: _extensions(x, along) for x in strong}
    out = [("object", x) for x in strong if not _all_strong(tables[x.key])]
    if out:
        return out
    return [("map", p) for p in maps if any(_unpreserved(p, along, tables[p.dom.key]))]


def closure_check(w, klass: MapClass, sample: Sequence) -> bool:
    """True when every sampled strong object stays strong along the
    witness and every sampled strong map keeps preserving extensions.
    A falsifier over the sample, not a decision procedure."""
    return not closure_failures(w, klass, sample)
