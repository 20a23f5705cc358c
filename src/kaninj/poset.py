"""Finite posets, monotone maps, and the adjoint calculus between them.

Conventions used throughout the package:

* A poset holds a sorted tuple of string labels plus its order as
  up-set bitmasks, ``up_masks[i]`` with bit j set iff i <= j: plain
  ints, the one stored form of the order, which every algorithm here
  reads.  The dense ``leq`` matrix (numpy bool, frozen) is built only
  when read, and nothing in the package reads it.  ``n`` and
  ``full_mask`` are plain attributes set at construction, since the
  extension path reads them millions of times.
* A presentation (labels plus generating inequalities) becomes a poset
  in one place, ``close_and_collapse``: the strongly connected components
  of the generating pairs are the elements, and their reachability
  bitmasks are the order, both from one Tarjan pass (``_reach``) over
  successor lists kept in arc order.  ``build_poset`` and every colimit
  go through it.
* The minimal elements of a set (``Poset.minimal``, and so the cover
  pairs) are read off one ranking per poset, ``_ranked``: the elements
  ranked top first, with every up-set renumbered by rank.  The highest
  bit of a set is then one of its minimal elements, and
  ``int.bit_length`` finds it in O(1).  A poset from
  ``close_and_collapse`` gets the order in which ``_reach`` finished its
  components, which runs top first, with their reachability masks; any
  other ranks its elements by up-set size, smallest first.
* Monotone maps are total index assignments, validated against the cover
  relation of the domain.  Down-sets and value sets are int bitmasks
  too, and value-set propagation and the adjoints work on those: an
  adjoint reads each value off a table from up-set mask to element.
* One backtracking search (``_search``) finds monotone maps, over a value
  mask per element: ``iter_monotone_assignments`` enumerates with it, and
  ``monotone_value_sets``, the one value-set routine, certifies each
  value with it, pinned at one point, unless the cover graph of the
  domain is a forest.  That routine answers many maps out of one domain
  in one call, one row of starting domains each: the even step asks it
  once per class map and pass, with a row per span, and ``left_kan``
  with one row.  Each row has its own node budget, and on a forest of
  covers the passes are planned once per call.
* Joins are memoized: ``join_mask`` keeps each poset's answers keyed by
  the mask of the elements joined, at most ``cache.BOUND`` of them, and a
  map keeps its ``below`` table after the first call.  Both live and die
  with their object.
* Hom-sets are locally thin: a 2-cell between parallel maps exists exactly
  when the source is pointwise below the target, and carries no data.
  ``TwoCell`` therefore only records its boundary.
* Iteration order is deterministic everywhere: element labels are sorted at
  construction and enumerations are emitted in lexicographic assignment
  order, so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import cache, config
from .errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidTwoCell,
    NotComposable,
    NotMonotone,
    NotParallel,
    SizeCapExceeded,
    UnknownLabel,
)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_masks(mat: np.ndarray) -> list:
    """Row i of a boolean matrix as an int with bit j set iff mat[i, j]."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Inverse of ``_row_masks``: int bitmasks below 2**n as the rows of
    a (len(masks), n) 0/1 matrix."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")


def _renumber(masks: Sequence[int], order: Sequence[int]) -> list:
    """The masks with bit order[k] moved to bit k, for a permutation
    ``order`` of range(n), 1024 rows at a time: no n x n matrix is built."""
    out = []
    for s in range(0, len(masks), 1024):
        out += _row_masks(_mask_rows(masks[s : s + 1024], len(order)).take(order, 1))
    return out


def _minimal(ranked: Sequence[int], masks: Sequence[int], order: Sequence[int]) -> tuple:
    """(ks, vs): k and order[q] for each minimal bit q of masks[k], with
    bits numbered top first, by a reversed linear extension whose
    up-sets are ``ranked``.  The highest bit left is minimal, found in
    O(1) by ``bit_length``; dropping its up-set leaves the rest."""
    ks, vs = [], []
    for k, left in enumerate(masks):
        while left:
            q = left.bit_length() - 1
            ks.append(k)
            vs.append(order[q])
            left ^= left & ranked[q]
    return ks, vs


def _transitive(up: Sequence[int]) -> bool:
    """Whether a relation given by row bitmasks (bit j of up[i] iff i is
    related to j) is transitive: each row holds the rows of its bits."""
    return all(up[j] & ~row == 0 for row in up for j in _bits(row))


# arcs per slice when _reach builds its adjacency lists
_SLICE = 1 << 16


def _reach(n: int, src: np.ndarray, dst: np.ndarray) -> tuple:
    """``(comp, reach)`` for the arcs src[k] -> dst[k] on range(n):
    comp[v] is v's strongly connected component, numbered as they finish
    (sinks first), and bit d of reach[c] is set iff c reaches d.

    An iterative Tarjan (SIAM J. Comput. 1972), so no recursion limit
    applies.  v's successors are listed in arc order, the lists filled
    from ``_SLICE`` arcs at a time: no sorted copy is made, and besides
    the lists only one slice of arcs is held as Python ints, which keeps
    the peak of a large closure down.  Each frame of the path keeps an
    iterator over its node's list, which resumes where it stopped when
    the node returns to the top.  A component is the stack from its
    root's position up; it finishes after every component it reaches,
    so its mask is the OR of the masks its arcs enter, its own aside."""
    succ: list = [[] for _ in range(n)]
    for s in range(0, len(src), _SLICE):
        for u, w in zip(src[s : s + _SLICE].tolist(), dst[s : s + _SLICE].tolist()):
            succ[u].append(w)
    seen = [-1] * n  # discovery number, -1 until reached
    low = [0] * n
    comp = [-1] * n  # -1 until v's component finishes
    stack: list = []
    reach: list = []
    count = 0
    for root in range(n):
        if seen[root] >= 0:
            continue
        seen[root] = low[root] = count
        count += 1
        # (node, its next successors, its position on the stack)
        path = [(root, iter(succ[root]), len(stack))]
        stack.append(root)
        while path:
            v, arcs, spot = path[-1]
            for w in arcs:
                if seen[w] < 0:
                    seen[w] = low[w] = count
                    count += 1
                    path.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if comp[w] < 0 and seen[w] < low[v]:
                    low[v] = seen[w]
            else:
                path.pop()
                if low[v] < seen[v]:
                    # not a root, so v has a parent on the path
                    if low[v] < low[path[-1][0]]:
                        low[path[-1][0]] = low[v]
                    continue
                c = len(reach)
                members = stack[spot:]
                del stack[spot:]
                for u in members:
                    comp[u] = c
                mask = 1 << c
                for u in members:
                    for w in succ[u]:
                        d = comp[w]
                        if d != c:
                            mask |= reach[d]
                reach.append(mask)
    return comp, reach


class Poset:
    """Immutable finite poset on string labels, with its order given by
    up-set bitmasks: bit j of ``up[i]`` is set iff i <= j."""

    def __init__(self, elements: Sequence[str], up: Sequence[int], validate: bool = True):
        self.elements = tuple(elements)
        self.up_masks = tuple(up)
        self.n = len(self.elements)
        self.full_mask = (1 << self.n) - 1
        self._joins: dict = {}
        self._trees: dict = {}
        if validate:
            self.validate()

    def validate(self) -> None:
        """Re-check all poset invariants (reflexive, antisymmetric, closed)."""
        if len(set(self.elements)) != self.n:
            raise DuplicateLabel("duplicate element labels")
        if len(self.up_masks) != self.n or any(m < 0 or m > self.full_mask for m in self.up_masks):
            raise ValueError("up-set masks do not match the elements")
        if any(not m >> i & 1 for i, m in enumerate(self.up_masks)):
            raise ValueError("leq is not reflexive")
        up = self.up_masks
        if any(up[j] >> i & 1 for i, m in enumerate(up) for j in _bits(m ^ 1 << i)):
            raise CycleDetected("leq is not antisymmetric")
        if not _transitive(up):
            raise ValueError("leq is not transitively closed")

    # -- basic access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        return {lbl: i for i, lbl in enumerate(self.elements)}

    def le(self, a: str, b: str) -> bool:
        return bool(self.up_masks[self.index[a]] >> self.index[b] & 1)

    @cached_property
    def leq(self) -> np.ndarray:
        """The order as a frozen n x n boolean matrix, built on first read
        for code outside the package; nothing in the package reads it."""
        mat = _mask_rows(self.up_masks, self.n).astype(bool)
        mat.setflags(write=False)
        return mat

    @cached_property
    def key(self) -> bytes:
        """The labels, then the ``leq`` matrix packed row-major at a bit
        per entry.  A block of 1024 rows fills whole bytes, so packing
        the rows a block at a time gives the same bytes without an
        n x n matrix."""
        blocks = (_mask_rows(self.up_masks[s : s + 1024], self.n) for s in range(0, self.n, 1024))
        packed = b"".join(np.packbits(block).tobytes() for block in blocks)
        return "\x00".join(self.elements).encode() + b"\x01" + packed

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)!r}, {sum(m.bit_count() for m in self.up_masks)} pairs)"

    # -- derived structure -----------------------------------------------

    @cached_property
    def down_masks(self) -> tuple:
        """down_masks[j] = bitmask of {i : i <= j}: the up-set masks
        transposed in tiles of 1024 x 1024 bits, one block of 1024
        columns at a time, so no n x n matrix is built and each tile's
        transpose stays in cache."""
        n, out = self.n, []
        for s in range(0, n, 1024):
            width = min(1024, n - s)
            cut = (1 << width) - 1
            cols = _mask_rows([m >> s & cut for m in self.up_masks], width)
            tiles = [cols[r : r + 1024].T for r in range(0, n, 1024)]
            packed = np.concatenate([np.packbits(t, axis=1, bitorder="little") for t in tiles], axis=1)
            out += [int.from_bytes(row.tobytes(), "little") for row in packed]
        return tuple(out)

    @cached_property
    def _ranked(self) -> tuple:
        """(order, masks): the elements ranked top first, a linear extension
        reversed, and the up-set of order[p] as masks[p], bit q standing
        for order[q]: every element above order[p] has a bit below p.
        Here the ranking is by up-set size, smallest first, since an
        up-set is larger than those of the elements above; a poset from
        ``close_and_collapse`` is given its components' finishing order
        instead."""
        up = self.up_masks
        order = sorted(range(self.n), key=lambda i: up[i].bit_count())
        return order, _renumber([up[i] for i in order], order)

    def minimal(self, masks: Sequence[int]) -> tuple:
        """(ks, vs), with a k in ks and the v at the same place in vs for
        each minimal element v of the set masks[k]."""
        order, ranked = self._ranked
        return _minimal(ranked, _renumber(masks, order), order)

    @cached_property
    def cover_pairs(self) -> tuple:
        """(i, j) for each j covering i, ascending: the minimal elements
        of i's strict up-set."""
        order, ranked = self._ranked
        ps, vs = _minimal(ranked, [m ^ 1 << p for p, m in enumerate(ranked)], order)
        return tuple(sorted([(order[p], v) for p, v in zip(ps, vs)]))

    @cached_property
    def lower_covers(self) -> list:
        out = [[] for _ in range(self.n)]
        for i, j in self.cover_pairs:
            out[j].append(i)
        return out

    @cached_property
    def cover_forest(self) -> bool:
        """True when the undirected cover graph is acyclic: a graph is a
        forest exactly when it has one edge fewer than nodes per
        component, counted by ``_reach`` over the cover pairs both ways."""
        ends = np.array(self.cover_pairs, dtype=np.intp).reshape(-1, 2)
        src, dst = np.concatenate([ends, ends[:, ::-1]]).T
        return len(ends) == self.n - len(_reach(self.n, src, dst)[1])

    def cover_tree(self, r: int) -> tuple:
        """(members, arcs) for r's component of the cover graph: members as a
        bitmask, arcs as (child, parent, child_below) with the parent one
        step nearer r.  Arcs are listed leaves first, so each arc into a
        node comes before the arc out of it.  The arcs span a tree of the
        component, which is all of it when the cover graph is a forest
        (``cover_forest``).  Built in O(n + e), for e cover pairs, on the
        first call for r and kept in ``_trees``."""
        if r not in self._trees:
            nbrs = [[] for _ in range(self.n)]
            for i, j in self.cover_pairs:
                nbrs[i].append((j, False))
                nbrs[j].append((i, True))
            members, arcs, queue = 1 << r, [], [r]
            for p in queue:
                for c, below in nbrs[p]:
                    if not members >> c & 1:
                        members |= 1 << c
                        arcs.append((c, p, below))
                        queue.append(c)
            self._trees[r] = (members, tuple(reversed(arcs)))
        return self._trees[r]

    @cached_property
    def topo_order(self) -> tuple:
        """A linear extension: ascending by size of the down-set."""
        sizes = [self.down_masks[i].bit_count() for i in range(self.n)]
        return tuple(sorted(range(self.n), key=lambda i: (sizes[i], i)))

    # -- bounds ------------------------------------------------------------

    def least_of(self, mask: int) -> Optional[int]:
        """Least element of the subset given by ``mask``, if any."""
        for i in _bits(mask):
            if mask & ~self.up_masks[i] == 0:
                return i
        return None

    def join_mask(self, vmask: int) -> Optional[int]:
        """Least upper bound of the elements whose bits are set in vmask
        (the least element for 0); None when it does not exist.  Answers
        are memoized per poset, keyed by the mask; a new one is stored
        while fewer than ``cache.BOUND`` are, which covers every mask of
        a poset with at most 10 elements."""
        try:
            return self._joins[vmask]
        except KeyError:
            pass
        upper = self.full_mask
        for i in _bits(vmask):
            upper &= self.up_masks[i]
        j = self.least_of(upper)
        if len(self._joins) < cache.BOUND:
            self._joins[vmask] = j
        return j

    def dual(self) -> "Poset":
        return Poset(self.elements, self.down_masks, validate=False)

    # -- isomorphism -------------------------------------------------------

    @cached_property
    def _refined_signature(self) -> tuple:
        """Per-element signatures stable under isomorphism (iterated degrees)."""
        n = self.n
        sig = [
            (self.down_masks[i].bit_count(), self.up_masks[i].bit_count()) for i in range(n)
        ]
        below = [list(_bits(self.down_masks[i] & ~(1 << i))) for i in range(n)]
        above = [list(_bits(self.up_masks[i] & ~(1 << i))) for i in range(n)]
        while True:
            ordered = sorted(set(sig))
            ids = {s: k for k, s in enumerate(ordered)}
            lab = [ids[s] for s in sig]
            new = [
                (lab[i], tuple(sorted(lab[j] for j in below[i])), tuple(sorted(lab[j] for j in above[i])))
                for i in range(n)
            ]
            if len(set(new)) == len(ordered):
                return tuple(new)
            sig = new

    def canonical_form(self) -> bytes:
        """Canonical encoding: equal for isomorphic posets, distinct otherwise.

        Refines element classes by iterated degree signatures, then searches
        class-respecting orderings for the lexicographically least relation
        encoding.  Intended for small posets (raises above 14 elements).
        """
        n = self.n
        if n > 14:
            raise ValueError("canonical_form supports at most 14 elements")
        if n == 0:
            return b"0"
        sig = self._refined_signature
        ordered = sorted(set(sig))
        ids = {s: k for k, s in enumerate(ordered)}
        cls = [ids[s] for s in sig]
        blocks = [sorted(i for i in range(n) if cls[i] == k) for k in range(len(ordered))]
        ups = self.up_masks
        best: Optional[tuple] = None

        def rec(placed: list, used: int, enc: tuple):
            nonlocal best
            if best is not None and enc > best[: len(enc)]:
                return
            if len(placed) == n:
                if best is None or enc < best:
                    best = enc
                return
            block = next(b for b in blocks if any(not (used >> i) & 1 for i in b))
            cands = [i for i in block if not (used >> i) & 1]
            steps = []
            for e in cands:
                down = sum(1 << t for t, p in enumerate(placed) if ups[e] >> p & 1)
                up = sum(1 << t for t, p in enumerate(placed) if ups[p] >> e & 1)
                steps.append(((down, up), e))
            low = min(s for s, _ in steps)
            for s, e in steps:
                if s == low:
                    rec(placed + [e], used | (1 << e), enc + s)

        rec([], 0, ())
        return (str(n) + "|" + ",".join(map(str, best))).encode()


def _check_monotone(dom: Poset, cod: Poset, values: Sequence[int]) -> None:
    """NotMonotone when the assignment values: dom -> cod breaks one of
    dom's cover pairs, naming the first such pair."""
    up = cod.up_masks
    for i, j in dom.cover_pairs:
        if not up[values[i]] >> values[j] & 1:
            raise NotMonotone(f"map is not monotone on {dom.elements[i]} <= {dom.elements[j]}")


class MonotoneMap:
    """Order-preserving map between posets, stored as an index assignment."""

    __slots__ = ("dom", "cod", "assignment", "_key", "_below")

    def __init__(self, dom: Poset, cod: Poset, assignment: Sequence[int], validate: bool = True):
        self.dom = dom
        self.cod = cod
        self.assignment = tuple(map(int, assignment))
        self._key = None
        self._below = None
        if validate:
            if len(self.assignment) != dom.n:
                raise ValueError("assignment length mismatch")
            if any(a < 0 or a >= cod.n for a in self.assignment):
                raise ValueError("assignment out of range")
            _check_monotone(dom, cod, self.assignment)

    @staticmethod
    def identity(p: Poset) -> "MonotoneMap":
        return MonotoneMap(p, p, range(p.n), validate=False)

    def __call__(self, label: str) -> str:
        return self.cod.elements[self.assignment[self.dom.index[label]]]

    def then(self, g: "MonotoneMap") -> "MonotoneMap":
        """Composite ``g ∘ self`` (apply self first)."""
        if self.cod.key != g.dom.key:
            raise NotComposable("codomain/domain mismatch")
        return MonotoneMap(
            self.dom, g.cod, tuple(g.assignment[a] for a in self.assignment), validate=False
        )

    def as_dict(self) -> dict:
        return {
            self.dom.elements[i]: self.cod.elements[a] for i, a in enumerate(self.assignment)
        }

    def below(self) -> tuple:
        """below()[b] lists the a of dom with self(a) <= b, for each b of
        cod; built on the first call and kept on the map."""
        if self._below is None:
            ups = [self.cod.up_masks[v] for v in self.assignment]
            self._below = tuple(
                tuple(a for a, up in enumerate(ups) if up >> b & 1) for b in range(self.cod.n)
            )
        return self._below

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.dom.key, self.cod.key, self.assignment)
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, MonotoneMap) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"MonotoneMap({self.as_dict()!r})"

    def is_order_iso(self) -> bool:
        """Bijective and order-reflecting (hence an isomorphism of posets)."""
        a = self.assignment
        if self.dom.n != self.cod.n or len(set(a)) != self.dom.n:
            return False
        return _renumber([self.cod.up_masks[w] for w in a], a) == list(self.dom.up_masks)

    def pointwise_leq(self, other: "MonotoneMap") -> bool:
        if self.dom.key != other.dom.key or self.cod.key != other.cod.key:
            raise NotParallel("maps are not parallel")
        up = self.cod.up_masks
        return all(up[a] >> b & 1 for a, b in zip(self.assignment, other.assignment))


@dataclass(frozen=True)
class TwoCell:
    """A 2-cell src => tgt between parallel maps.  Thinness: no data beyond
    the boundary, and construction fails when the inequality does not hold."""

    src: MonotoneMap
    tgt: MonotoneMap

    def __post_init__(self):
        if self.src.dom.key != self.tgt.dom.key or self.src.cod.key != self.tgt.cod.key:
            raise NotParallel("two-cell endpoints are not parallel")
        if not self.src.pointwise_leq(self.tgt):
            raise InvalidTwoCell("source is not pointwise below target")


def two_cell_exists(f: MonotoneMap, g: MonotoneMap) -> bool:
    try:
        return f.pointwise_leq(g)
    except NotParallel:
        return False


# -- construction ----------------------------------------------------------


def close_and_collapse(labels: Sequence[str], index_pairs) -> tuple:
    """The poset presented by generators and inequalities between them.

    ``index_pairs`` holds generating inequalities (i, j) between indices
    into ``labels``: an (m, 2) integer array, or anything ``np.asarray``
    turns into one, such as a list of pairs.  An index outside
    ``range(len(labels))`` raises ValueError.  The relation is closed
    reflexively and transitively, and each class of generators forced
    equal becomes one element, named after its least label; elements
    are sorted by name.  Returns ``(poset, collapse)`` with
    ``collapse[i]`` the element that generator i lands on.  This is the
    only place a relation is closed and collapsed: every poset built
    from a presentation and every colimit comes from here.

    The classes are the strongly connected components of the pairs, and
    the order is their reachability, both from one pass of ``_reach``
    over successor lists read from the index array, with the
    reachability masks renumbered by label (``_renumber``, faster here
    than a second OR sweep in label numbering).  The masks as ``_reach``
    numbers them are kept as the poset's ``_ranked``, which then needs
    no sort and no second renumbering.  Repeated pairs are harmless.
    """
    n = len(labels)
    ends = np.asarray(index_pairs, dtype=np.intp).reshape(-1, 2)
    if len(ends) and (ends.min() < 0 or ends.max() >= n):
        bad = next(p for p in ends.tolist() if not (0 <= p[0] < n and 0 <= p[1] < n))
        raise ValueError(f"generator pair {tuple(bad)} out of range for {n} generators")
    cls_of, reach = _reach(n, ends[:, 0], ends[:, 1])
    # a class takes its least label; the sort is stable, so ties keep least-generator order
    class_label: dict = {}
    for lbl, c in zip(labels, cls_of):
        if c not in class_label or lbl < class_label[c]:
            class_label[c] = lbl
    order = sorted(class_label, key=class_label.__getitem__)
    rank = {c: pos for pos, c in enumerate(order)}
    closed = _renumber([reach[c] for c in order], order)
    poset = Poset([class_label[c] for c in order], closed, validate=False)
    # _reach numbers the components top first, so reach is a ranking as it is
    poset._ranked = ([rank[c] for c in range(len(reach))], reach)
    return poset, tuple(rank[c] for c in cls_of)


def build_poset(labels: Iterable[str], pairs: Iterable) -> Poset:
    """Poset from labels and generating inequalities (closure is implied).

    Raises DuplicateLabel, UnknownLabel, or CycleDetected when the input is
    not a presentation of a poset.
    """
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("duplicate labels in poset description")
    elements = sorted(labels)
    index = {lbl: i for i, lbl in enumerate(elements)}
    index_pairs = []
    for a, b in pairs:
        if a not in index or b not in index:
            raise UnknownLabel(f"unknown label in pair ({a!r}, {b!r})")
        index_pairs.append((index[a], index[b]))
    poset, collapse = close_and_collapse(elements, index_pairs)
    if poset.n != len(elements):
        i = next(k for k, c in enumerate(collapse) if collapse.count(c) > 1)
        j = collapse.index(collapse[i], i + 1)
        raise CycleDetected(
            f"labels {elements[i]!r} and {elements[j]!r} are forced equal"
        )
    return poset


# -- enumeration -----------------------------------------------------------


def _bound_row(h: "MonotoneMap", x: Poset, floors) -> list:
    """The starting domains of the maps g: cod(h) -> x with
    floor[a] <= g(h(a)) for every a, one row per floor of ``floors``
    (an (S, |dom h|) int array, or a list of S floors), for
    ``monotone_value_sets``: row[b] is the meet of the up-sets of the
    floor[a] with h(a) = b, ``x.full_mask`` where there is none.  The
    rows are built column by column, and a lone bound's up-set is kept
    itself, not copied."""
    up, full = x.up_masks, [x.full_mask] * len(floors)
    cols = [full] * h.cod.n
    for b, col in zip(h.assignment, np.asarray(floors).T.tolist()):
        ups = [up[v] for v in col]
        cols[b] = ups if cols[b] is full else [m & u for m, u in zip(cols[b], ups)]
    return list(zip(*cols)) if cols else [() for _ in floors]


def _search(a: Poset, x: Poset, masks: Sequence[int], cap: int, spent: list):
    """Yield the assignments of monotone maps a -> x that take a value in
    masks[e] at each e.  Backtracks over a linear extension with bitmask
    pruning, counting each value tried in spent[0], which the searches
    of one value-set row share; SizeCapExceeded once the count passes cap.

    One loop over an explicit stack: left[k] holds the values still to
    try at the k-th element of the extension, lowest first, and is set
    when the search steps down to it, from masks and the values already
    placed at the element's lower covers.  Values are tried, counted
    and yielded in the order of a depth-first recursion."""
    n = a.n
    if n == 0:
        yield ()
        return
    order = a.topo_order
    lower_cov = a.lower_covers
    up = x.up_masks
    assign = [0] * n
    levels = [(masks[e], lower_cov[e]) for e in order]
    left = [0] * n
    left[0] = levels[0][0]
    last = n - 1
    k = 0
    while k >= 0:
        mask = left[k]
        if not mask:
            k -= 1
            continue
        low = mask & -mask
        left[k] = mask ^ low
        spent[0] += 1
        if spent[0] > cap:
            raise SizeCapExceeded(cap, n, x.n, spent[0])
        assign[order[k]] = low.bit_length() - 1
        if k == last:
            yield tuple(assign)
            continue
        k += 1
        mask, covers = levels[k]
        for c in covers:
            mask &= up[assign[c]]
        left[k] = mask


def iter_monotone_assignments(a: Poset, x: Poset, cap: Optional[int] = None):
    """Yield assignment tuples of monotone maps a -> x.  One ``_search``
    with its own budget of ``cap`` visited nodes, ``config.size_cap()``
    when None; raises SizeCapExceeded when it is exhausted."""
    cap = config.size_cap() if cap is None else cap
    yield from _search(a, x, [x.full_mask] * a.n, cap, [0])


def enumerate_monotone(a: Poset, x: Poset) -> list:
    """All monotone maps a -> x, each exactly once, in lexicographic
    assignment order."""
    out = sorted(iter_monotone_assignments(a, x))
    return [MonotoneMap(a, x, t, validate=False) for t in out]


def _union(masks: list, mask: int) -> int:
    """Union of masks[v] over the bits v of mask, for masks that are the
    up-sets or the down-sets of a poset.  Those are transitive, so a bit
    the running union already covers adds nothing and is dropped."""
    out = 0
    while mask:
        out |= masks[(mask & -mask).bit_length() - 1]
        mask &= ~out
    return out


def _forest_plan(a: Poset, points: Sequence[int]) -> list:
    """The directional passes of ``monotone_value_sets`` on a forest of
    covers: (r, arcs) for each point r, then for the lowest-indexed
    element r of each component with no point.  An arc is (c, p, kind),
    leaves first: kind 0 when the child c lies above its parent p, 1 when
    it lies below and its domain is still an up-set, 2 when it lies
    below and its domain may no longer be one (an arc of kind 0 entered
    its subtree)."""
    roots, rest = list(points), a.full_mask
    for r in roots:
        rest &= ~a.cover_tree(r)[0]
    while rest:
        roots.append((rest & -rest).bit_length() - 1)
        rest &= ~a.cover_tree(roots[-1])[0]
    plan = []
    for r in roots:
        upset = [True] * a.n
        arcs = []
        for c, p, below in a.cover_tree(r)[1]:
            if not below:
                arcs.append((c, p, 0))
                upset[p] = False
            else:
                arcs.append((c, p, 1 if upset[c] else 2))
        plan.append((r, arcs))
    return plan


def monotone_value_sets(
    a: Poset,
    x: Poset,
    rows: Sequence[Sequence[int]],
    points: Optional[Sequence[int]] = None,
) -> list:
    """One result per row of ``rows``: for each element of ``points``
    (all of ``a`` when None), in that order, the bitmask of values that
    some monotone map a -> x takes there, among the maps that take a
    value in row[e] at each e of a; None when no such map exists.  Each
    row[e] is an intersection of up-sets of x (``x.full_mask`` when e
    has no lower bound), so a row is the starting domains of one map's
    search, and a caller with many maps out of ``a`` asks for all of
    them in one call.

    When the cover graph of ``a`` is a forest, each point's set comes
    from directional arc consistency toward it (Freuder, "A sufficient
    condition for backtrack-free search", JACM 1982): the arcs of its
    tree are revised leaves first, so every value left at a node extends
    to the subtree hanging below it, and the values left at the point
    are exactly its set.  A component with no point gets one such pass,
    toward its lowest-indexed element, to decide whether it has a map
    at all.  Every starting domain is an up-set, and intersecting with
    the union of the up-sets over an up-set keeps it one.  So an arc
    whose child lies below its parent intersects with the child's domain
    directly while that domain is still an up-set; only an arc whose
    child lies above its parent needs the union, and its parent's domain
    is no longer known to be an up-set.  Which arcs are which depends on
    ``a`` and ``points`` alone, so the passes are planned once per call
    (``_forest_plan``) and every row runs the same plan.

    Otherwise, for each row, arc consistency over the cover constraints
    runs to a fixpoint, and each surviving value v at every element i,
    requested or not, is certified by the monotone search itself
    (``_search``), with the domains pinned at i: v at i, below v under
    i, above v over i; the first map it finds certifies v.  So an empty
    ``points`` still decides existence.  The certification searches of
    one row share one budget of ``config.size_cap()`` visited nodes and
    raise SizeCapExceeded when it runs out; each row has a budget of its
    own.
    """
    up = x.up_masks
    points = range(a.n) if points is None else points
    if a.cover_forest:
        plan = _forest_plan(a, points)
        down = x.down_masks if any(k == 0 for _, arcs in plan for _, _, k in arcs) else None
        npoints = len(points)
        out = []
        for row in rows:
            sets = []
            for r, arcs in plan:
                dom = list(row)
                for c, p, kind in arcs:
                    if kind == 1:
                        dom[p] &= dom[c]
                    else:
                        dom[p] &= _union(up if kind == 2 else down, dom[c])
                if not dom[r]:
                    sets = None
                    break
                sets.append(dom[r])
            out.append(None if sets is None else sets[:npoints])
        return out
    cap = config.size_cap()
    return [_certified_sets(a, x, list(row), cap, points) for row in rows]


def _certified_sets(a: Poset, x: Poset, cand: list, cap: int, points: Sequence[int]) -> Optional[list]:
    """``monotone_value_sets`` for one row when the cover graph of ``a``
    is not a forest: the fixpoint, then the certification searches under
    one budget of ``cap`` nodes."""
    up, down, pairs = x.up_masks, x.down_masks, a.cover_pairs
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            new_j = cand[j] & _union(up, cand[i])
            new_i = cand[i] & _union(down, cand[j])
            if new_j != cand[j]:
                cand[j] = new_j
                changed = True
            if new_i != cand[i]:
                cand[i] = new_i
                changed = True
        if any(c == 0 for c in cand):
            return None
    spent = [0]
    exact = []
    for i in range(a.n):
        m = 0
        for v in _bits(cand[i]):
            pinned = list(cand)
            for e in _bits(a.down_masks[i]):
                pinned[e] &= down[v]
            for e in _bits(a.up_masks[i]):
                pinned[e] &= up[v]
            pinned[i] = 1 << v
            if next(_search(a, x, pinned, cap, spent), None) is not None:
                m |= 1 << v
        if m == 0:
            return None
        exact.append(m)
    return [exact[r] for r in points]


# -- adjoints ----------------------------------------------------------------


def _fibers(values: Sequence[int], size: int) -> list:
    """fibers[v] = bitmask of the positions i with values[i] == v, for
    each v in range(size); for a map's assignment, what it sends to v."""
    out = [0] * size
    for i, v in enumerate(values):
        out[v] |= 1 << i
    return out


def _preimage(fibers: list, mask: int) -> int:
    """Bitmask of the elements sent into ``mask``, from their fibers."""
    out = 0
    for v in _bits(mask):
        out |= fibers[v]
    return out


def right_adjoint(m: MonotoneMap) -> Optional[MonotoneMap]:
    """The right adjoint of ``m`` (so m ⊣ result), or None: the left
    adjoint of m between the dual posets, since reversing both orders
    swaps the sides of an adjunction.  Pointwise, result(b) is the
    greatest a with m(a) <= b."""
    t = left_adjoint(MonotoneMap(m.dom.dual(), m.cod.dual(), m.assignment, validate=False))
    return None if t is None else MonotoneMap(m.cod, m.dom, t.assignment, validate=False)


def left_adjoint(m: MonotoneMap) -> Optional[MonotoneMap]:
    """The left adjoint of ``m`` (so result ⊣ m), or None.

    Pointwise: result(b) is the least a with b <= m(a).  The preimage
    of the up-set of b is an up-set, and an up-set has a least element
    l exactly when it is l's up-set, so l is one lookup in a table from
    up-set mask to element, built once per call.  Then b <= m(a) iff
    result(b) <= a, which is the adjunction and also makes the result
    monotone.
    """
    a, b = m.dom, m.cod
    fibers = _fibers(m.assignment, b.n)
    least = {up: i for i, up in enumerate(a.up_masks)}
    assign = []
    for j in range(b.n):
        l = least.get(_preimage(fibers, b.up_masks[j]))
        if l is None:
            return None
        assign.append(l)
    return MonotoneMap(b, a, assign, validate=False)


@dataclass(frozen=True)
class AdjointFlags:
    """Classification of a map by adjoints with identity (co)unit.

    lari: has a right adjoint r with r∘m = id (left adjoint right inverse).
    rali: has a left adjoint t with m∘t = id (right adjoint left inverse).
    lali: is a left adjoint and m∘r = id on the codomain side.
    rari: is a right adjoint and t∘m = id on the domain side.
    """

    is_lari: bool
    is_rali: bool
    is_lali: bool
    is_rari: bool


def classify_adjoint(m: MonotoneMap) -> AdjointFlags:
    r = right_adjoint(m)
    t = left_adjoint(m)
    ida = MonotoneMap.identity(m.dom)
    idb = MonotoneMap.identity(m.cod)
    is_lari = r is not None and m.then(r) == ida
    is_lali = r is not None and r.then(m) == idb
    is_rali = t is not None and t.then(m) == idb
    is_rari = t is not None and m.then(t) == ida
    return AdjointFlags(is_lari=is_lari, is_rali=is_rali, is_lali=is_lali, is_rari=is_rari)
