"""Stock posets, the standard map classes, and small-poset enumeration.

The two workhorse maps are the inclusion of the empty poset into the point
(freely adjoining a bottom) and the inclusion of the two-element antichain
into the wedge a, b < top (freely adjoining a binary join).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cache import BoundedCache
from .poset import MonotoneMap, Poset, _transitive, build_poset


def empty() -> Poset:
    return build_poset([], [])


def point(label: str = "pt") -> Poset:
    return build_poset([label], [])


def chain(n: int, prefix: str = "c") -> Poset:
    labels = [f"{prefix}{i}" for i in range(n)]
    return build_poset(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def antichain(n: int, prefix: str = "a") -> Poset:
    return build_poset([f"{prefix}{i}" for i in range(n)], [])


def vee() -> Poset:
    """Two incomparable elements under a common top."""
    return build_poset(["a", "b", "top"], [("a", "top"), ("b", "top")])


def diamond() -> Poset:
    """Four-element lattice: bot < a, b < top."""
    return build_poset(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


@dataclass(frozen=True)
class MapClass:
    """A named class of maps used as the injectivity parameter."""

    name: str
    maps: tuple

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return len(self.maps)


def bottom_map() -> MonotoneMap:
    """empty -> point; injectivity along it adjoins a least element."""
    return MonotoneMap(empty(), point(), [])


def join_map() -> MonotoneMap:
    """antichain(2) -> vee; injectivity along it adjoins binary joins."""
    src = antichain(2)
    tgt = vee()
    return MonotoneMap(src, tgt, [tgt.index["a"], tgt.index["b"]])


def class_bottom() -> MapClass:
    return MapClass("bot", (bottom_map(),))


def class_join() -> MapClass:
    return MapClass("join", (join_map(),))


def class_bottom_join() -> MapClass:
    return MapClass("bot+join", (bottom_map(), join_map()))


def standard_classes() -> tuple:
    return (class_bottom(), class_join(), class_bottom_join())


_POSETS = BoundedCache()


def all_posets(max_n: int) -> tuple:
    """One representative per isomorphism class of posets with <= max_n
    elements, in a fixed deterministic order: all_posets(max_n - 1),
    then those with max_n elements.  Kept once per max_n, so each size
    is enumerated once.

    Enumerates transitive strict upper-triangular relations (every poset
    admits a linear extension, so each class appears) and dedupes by
    canonical form.  Counts match the known sequence 1, 1, 2, 5, 16, 63,
    318 for sizes 0 through 6.
    """
    if max_n < 0:
        return ()
    return _POSETS.get(max_n, lambda: all_posets(max_n - 1) + _posets_of_size(max_n))


def _posets_of_size(n: int) -> tuple:
    seen = {}
    pair_list = list(combinations(range(n), 2))
    npairs = len(pair_list)
    for mask in range(1 << npairs):
        up = [1 << i for i in range(n)]
        for t, (i, j) in enumerate(pair_list):
            if (mask >> t) & 1:
                up[i] |= 1 << j
        if not _transitive(up):
            continue
        p = Poset([f"p{i}" for i in range(n)], up, validate=False)
        key = p.canonical_form()
        if key not in seen:
            seen[key] = p
    return tuple(seen[k] for k in sorted(seen))


def product(x: Poset, y: Poset) -> tuple:
    """Cartesian product with componentwise order, plus both projections.

    Products are the easy half of the bilimit story: strong injectivity
    passes through them coordinatewise.  The order is generated by a
    cover pair of one factor with the other coordinate held fixed.
    """
    where = {f"({a},{b})": (i, j) for i, a in enumerate(x.elements) for j, b in enumerate(y.elements)}
    label = {ij: lbl for lbl, ij in where.items()}
    pairs = [(label[i, j], label[k, j]) for i, k in x.cover_pairs for j in range(y.n)]
    pairs += [(label[i, j], label[i, k]) for j, k in y.cover_pairs for i in range(x.n)]
    p = build_poset(where, pairs)
    pi1 = MonotoneMap(p, x, [where[l][0] for l in p.elements])
    pi2 = MonotoneMap(p, y, [where[l][1] for l in p.elements])
    return p, pi1, pi2
