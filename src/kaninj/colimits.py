"""Colimits of finite posets: coproducts, pushouts, wide pushouts, cocomma
objects, coinserters, coequifiers, coequinserters, and chain colimits.

Everything reduces to one gluing engine: lay the input posets side by side,
add the stated identifications and inserted inequalities as generating
pairs, and hand the presentation to ``poset.close_and_collapse``, which
collapses each strongly connected component of the pairs to one element
and orders the elements by reachability.  The pairs travel as one
integer index array from the caller to the closure, and the result
keeps that array; the tuple ``gen_pairs`` is built from it only when
something reads it.  Each result keeps its generating presentation
(labels, pairs, collapse map), from which ``verify_universal`` proves
the universal property: the order pulled back to the generators must be
the reachability of the generating pairs, computed there without the
closure code.

Element identity is tracked by provenance labels "tag:original" so that a
glued element names where it came from; classes are named after their
least member.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainMismatch,
    InvalidTwoCell,
    NotMonotone,
    NotParallel,
    PostconditionFailed,
)
from .poset import MonotoneMap, Poset, TwoCell, close_and_collapse

_RECORDERS: list = []


@contextlib.contextmanager
def record_colimits():
    """Collect every ColimitResult produced inside the block."""
    bucket: list = []
    _RECORDERS.append(bucket)
    try:
        yield bucket
    finally:
        _RECORDERS.pop()


@dataclass(frozen=True)
class ColimitResult:
    """A computed colimit together with its generating presentation.

    ``pairs`` is the read-only (m, 2) intp array of generating pairs,
    indices into ``gen_labels``; ``gen_pairs`` is the same pairs as a
    tuple of int tuples, built on first read.  Equality compares the
    pairs too."""

    kind: str
    object: Poset
    injections: tuple
    tags: tuple
    gen_labels: tuple
    pairs: np.ndarray = field(compare=False)
    collapse: tuple
    two_cell: Optional[TwoCell] = field(default=None, compare=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in dataclasses.fields(self) if f.compare
        ) and np.array_equal(self.pairs, other.pairs)

    @cached_property
    def gen_pairs(self) -> tuple:
        return tuple(zip(*self.pairs.T.tolist()))

    @property
    def piece_offsets(self) -> tuple:
        out = []
        k = 0
        for inj in self.injections:
            out.append(k)
            k += inj.dom.n
        return tuple(out)


def glue(
    kind: str,
    pieces: Sequence,
    ineq_pairs=(),
    eq_pairs=(),
) -> ColimitResult:
    """Glue ``pieces`` = [(tag, poset), ...] along identifications
    (eq_pairs) and inserted inequalities (ineq_pairs), both given as
    ((piece_index, element_index), (piece_index, element_index)): nested
    tuples, or an integer array of shape (m, 2, 2).  An index outside the
    pieces, or outside its piece, raises ValueError.

    The generating pairs are, in order: each piece's cover pairs, the
    ineq pairs, then each eq pair followed by its reverse, all as indices
    into ``gen_labels`` (the pieces laid end to end).  They are built
    once, as the index array that ``close_and_collapse`` reads and the
    result keeps as ``pairs``; no tuple is made per pair unless
    ``gen_pairs`` is read.

    An injection is monotone exactly when the glued order keeps its
    piece's cover pairs, so those are checked in one pass over the flat
    list of cover pair ends, with NotMonotone for one the glued object
    drops, and the injections are then built unvalidated."""
    tags = tuple(tag for tag, _ in pieces)
    if len(set(tags)) != len(tags):
        raise ValueError("piece tags must be distinct")
    posets = [p for _, p in pieces]
    offsets = []
    k = 0
    for p in posets:
        offsets.append(k)
        k += p.n
    if len(pieces) == 1:
        gen_labels = tuple(posets[0].elements)
    else:
        gen_labels = tuple(
            f"{tag}:{lbl}" for (tag, p) in pieces for lbl in p.elements
        )

    given = np.asarray(ineq_pairs, dtype=np.intp).reshape(-1, 2, 2)
    eq = np.asarray(eq_pairs, dtype=np.intp).reshape(-1, 2, 2)
    if len(eq):
        # each eq pair, then its reverse
        given = np.concatenate([given, np.concatenate([eq, eq[:, ::-1]], axis=1).reshape(-1, 2, 2)])
    piece, elem = given.reshape(-1, 2).T
    # Read as unsigned, a negative index is huge.  Pieces past the end
    # map to a sentinel column of size 0, so every bad index fails one
    # comparison with its piece's size.
    table = np.array([offsets + [0], [p.n for p in posets] + [0]], dtype=np.intp)
    start, size = table[:, np.minimum(piece.view(np.uintp), len(posets))]
    if (elem.view(np.uintp) >= size.view(np.uintp)).any():
        bad = next(
            (pi, ei) for pi, ei in given.reshape(-1, 2).tolist()
            if not (0 <= pi < len(posets) and 0 <= ei < posets[pi].n)
        )
        raise ValueError(f"glue index {bad} is outside the pieces")
    # flat cover pair ends, so no tuple per pair
    cover = [o + v for o, p in zip(offsets, posets) for pair in p.cover_pairs for v in pair]
    ends = np.concatenate([np.array(cover, dtype=np.intp).reshape(-1, 2), (start + elem).reshape(-1, 2)])
    ends.setflags(write=False)

    obj, collapse = close_and_collapse(gen_labels, ends)
    up = obj.up_masks
    it = iter(cover)
    for i, j in zip(it, it):
        if not up[collapse[i]] >> collapse[j] & 1:
            raise NotMonotone(f"injection is not monotone on {gen_labels[i]} <= {gen_labels[j]}")
    injections = tuple(
        MonotoneMap(p, obj, collapse[offsets[pi] : offsets[pi] + p.n], validate=False)
        for pi, p in enumerate(posets)
    )
    result = ColimitResult(
        kind=kind,
        object=obj,
        injections=injections,
        tags=tags,
        gen_labels=gen_labels,
        pairs=ends,
        collapse=collapse,
    )
    for bucket in _RECORDERS:
        bucket.append(result)
    return result


# -- the constructions -------------------------------------------------------


def coproduct(xs: Sequence) -> ColimitResult:
    pieces = [(str(k), x) for k, x in enumerate(xs)]
    return glue("coproduct", pieces)


def pushout(f: MonotoneMap, h: MonotoneMap) -> ColimitResult:
    """Pushout of the span cod(f) <- A -> cod(h).  injections[0] is the
    leg under cod(f), injections[1] the leg under cod(h) (the pushout of
    h along f)."""
    if f.dom.key != h.dom.key:
        raise DomainMismatch("pushout needs a common span domain")
    eq = [((0, f.assignment[a]), (1, h.assignment[a])) for a in range(f.dom.n)]
    return glue("pushout", [("0", f.cod), ("1", h.cod)], eq_pairs=eq)


def wide_pushout(apex: Poset, legs: Sequence) -> ColimitResult:
    """Wide pushout of any number of legs out of ``apex``.  Zero legs
    return the apex itself (nullary convention)."""
    for leg in legs:
        if leg.dom.key != apex.key:
            raise DomainMismatch("wide pushout legs must share the apex")
    if not legs:
        return glue("wide_pushout", [("0", apex)])
    pieces = [(str(k), leg.cod) for k, leg in enumerate(legs)]
    eq = []
    for k in range(1, len(legs)):
        for a in range(apex.n):
            eq.append(((0, legs[0].assignment[a]), (k, legs[k].assignment[a])))
    return glue("wide_pushout", pieces, eq_pairs=eq)


def cocomma(f: MonotoneMap, g: MonotoneMap) -> ColimitResult:
    """Cocomma object of cod(f) <- A -> cod(g): both codomains side by
    side with f(a) <= g(a) inserted.  two_cell is the universal
    inequality inj0∘f => inj1∘g."""
    if f.dom.key != g.dom.key:
        raise DomainMismatch("cocomma needs a common span domain")
    ineq = [((0, f.assignment[a]), (1, g.assignment[a])) for a in range(f.dom.n)]
    res = glue("cocomma", [("0", f.cod), ("1", g.cod)], ineq_pairs=ineq)
    cell = TwoCell(f.then(res.injections[0]), g.then(res.injections[1]))
    return dataclasses.replace(res, two_cell=cell)


def coinserter(f: MonotoneMap, g: MonotoneMap) -> ColimitResult:
    """Universal quotient of the common codomain making f <= g."""
    if f.dom.key != g.dom.key or f.cod.key != g.cod.key:
        raise NotParallel("coinserter needs a parallel pair")
    ineq = [((0, f.assignment[b]), (0, g.assignment[b])) for b in range(f.dom.n)]
    res = glue("coinserter", [("0", f.cod)], ineq_pairs=ineq)
    cell = TwoCell(f.then(res.injections[0]), g.then(res.injections[0]))
    return dataclasses.replace(res, two_cell=cell)


def coequifier(sigma: TwoCell, tau: TwoCell) -> ColimitResult:
    """Universal way of forcing two parallel 2-cells equal.  Hom-posets
    are thin, so parallel 2-cells already agree and the coequifier is an
    identity quotient."""
    if sigma.src != tau.src or sigma.tgt != tau.tgt:
        raise NotParallel("coequifier needs 2-cells with equal boundary")
    if sigma != tau:
        raise PostconditionFailed("thinness violated")
    return glue("coequifier", [("0", sigma.src.cod)])


def coequinserter(
    h: MonotoneMap, f: MonotoneMap, g: MonotoneMap, gamma: TwoCell
) -> ColimitResult:
    """Universal 1-cell i with a 2-cell i∘f => i∘g restricting along h to
    i∘gamma.  Since 2-cells are unique, the restriction condition is
    automatic and the coequinserter is the coinserter of (f, g); the
    associated coequifier step is trivial.  The test-suite checks both
    universal properties directly."""
    if f.dom.key != g.dom.key or f.cod.key != g.cod.key:
        raise NotParallel("coequinserter needs a parallel pair")
    if h.cod.key != f.dom.key:
        raise DomainMismatch("h must land in the domain of the parallel pair")
    if gamma.src != h.then(f) or gamma.tgt != h.then(g):
        raise InvalidTwoCell("gamma must run from f∘h to g∘h")
    return dataclasses.replace(coinserter(f, g), kind="coequinserter")


def chain_colimit(stages: Sequence, connectors: Sequence) -> ColimitResult:
    """Colimit of a finite chain prefix X0 -> X1 -> ... -> Xk; each stage
    element is identified with its image one stage later."""
    if len(connectors) != len(stages) - 1:
        raise ValueError("need one connector per adjacent stage pair")
    for i, c in enumerate(connectors):
        if c.dom.key != stages[i].key or c.cod.key != stages[i + 1].key:
            raise DomainMismatch(f"connector {i} does not match its stages")
    pieces = [(str(i), s) for i, s in enumerate(stages)]
    eq = []
    for i, c in enumerate(connectors):
        for z in range(stages[i].n):
            eq.append(((i, z), (i + 1, c.assignment[z])))
    return glue("chain", pieces, eq_pairs=eq)


# -- universal property checking ---------------------------------------------


@dataclass(frozen=True)
class UniversalityReport:
    ok: bool
    failure: Optional[str]

    def to_json(self) -> dict:
        return {"ok": self.ok, "failure": self.failure}


def verify_universal(res: ColimitResult) -> UniversalityReport:
    """Prove or refute the colimit's universal property.

    Structural part: the object is a valid poset, the quotient map hits
    every element, respects every generating pair, and matches the
    stored injections.  Certificate: a presented poset is the colimit
    exactly when its order, pulled back along the quotient map, is the
    reflexive-transitive reachability of the generating pairs.  The
    structural part gives one inclusion; the other is checked against
    reachability computed here as plain-int bitsets by depth-first
    search over ``gen_pairs``, without ``close_and_collapse`` or numpy.
    Generators of one class that are not mutually reachable fail as
    ``cocone not constant on class of <label>``; any other order
    relation that the pairs do not derive fails as ``mediating map not
    monotone``.
    """
    obj = res.object
    try:
        obj.validate()
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        return UniversalityReport(False, f"object invalid: {exc}")
    n_gen = len(res.gen_labels)
    collapse = res.collapse
    for i, j in res.gen_pairs:
        if not obj.up_masks[collapse[i]] >> collapse[j] & 1:
            return UniversalityReport(
                False,
                f"quotient drops generating pair {res.gen_labels[i]} <= {res.gen_labels[j]}",
            )
    if set(collapse) != set(range(obj.n)) and n_gen:
        return UniversalityReport(False, "quotient map is not surjective")
    if obj.n and not n_gen:
        return UniversalityReport(False, "object has elements but no generators")
    offsets = res.piece_offsets
    for pi, inj in enumerate(res.injections):
        base = offsets[pi]
        if tuple(inj.assignment) != tuple(collapse[base : base + inj.dom.n]):
            return UniversalityReport(False, f"injection {pi} disagrees with quotient")

    succ = [[] for _ in range(n_gen)]
    for i, j in res.gen_pairs:
        succ[i].append(j)
    reach = []
    for s in range(n_gen):
        seen = 1 << s
        stack = [s]
        while stack:
            for w in succ[stack.pop()]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        reach.append(seen)

    members = [0] * obj.n
    least = [None] * obj.n
    for s in range(n_gen):
        members[collapse[s]] |= 1 << s
        r = least[collapse[s]]
        if r is None:
            least[collapse[s]] = s
        elif not (reach[s] >> r & 1 and reach[r] >> s & 1):
            return UniversalityReport(
                False, f"cocone not constant on class of {res.gen_labels[s]}"
            )
    # the generators at or above each element (classes are disjoint)
    above = [sum(members[b] for b in range(obj.n) if up >> b & 1) for up in obj.up_masks]
    for i in range(n_gen):
        if above[collapse[i]] & ~reach[i]:
            return UniversalityReport(False, "mediating map not monotone")
    return UniversalityReport(True, None)
