"""Pinned digests: the exact bytes of five layers over fixed corpora.

The answers are checked against brute-force oracles in the other tests;
these pins hold their exact output instead, so a change that keeps every
answer but moves one byte, or the order of two, shows up.  Each
generator below yields, in order, the byte strings that are hashed, and
``PINNED`` holds their count and sha256.
"""

import hashlib
import random

import numpy as np
import pytest

from kaninj import (
    MapClass,
    MonotoneMap,
    SizeCapExceeded,
    all_posets,
    build_poset,
    chain,
    cone_class,
    dumps,
    enumerate_monotone,
    is_dense,
    is_injective,
    is_injective_map,
    is_weakly_injective,
    left_kan,
    point,
    preserves_kan,
    reflect,
    size_cap,
    standard_classes,
    verdict,
)
from kaninj.poset import _search, close_and_collapse, iter_monotone_assignments

from test_chain import chain_digest


def presentation(rng: random.Random, n: int, m: int, back: float) -> tuple:
    labels = [f"g{v}" for v in rng.sample(range(10 * n + 1), n)]
    pairs = []
    for _ in range(m if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        if i > j and rng.random() >= back:
            i, j = j, i
        pairs.append((i, j))
    return labels, np.array(pairs, dtype=np.intp).reshape(-1, 2)


def presentations():
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randrange(41)
        yield presentation(rng, n, rng.randrange(3 * n + 1), rng.choice((0.0, 0.02, 0.1, 0.5)))
    labels, pairs = presentation(rng, 3000, 69700, 0.0)
    # back arcs, so that some cycles collapse
    back = [(i, i - rng.randrange(1, 200)) for i in rng.sample(range(200, 3000), 300)]
    yield labels, np.concatenate([pairs, np.array(back, dtype=np.intp)])


def closures():
    """Close and collapse a seeded set of random presentations.

    This pins the exact output of the closure, including the ranking
    that ``close_and_collapse`` hands the poset as ``_ranked``, which
    follows the order in which ``_reach`` finishes its components.  So a
    change to the traversal that keeps every order but finishes the
    components in another order shows up here.  The presentations are
    400 small ones (0 to 40 generators, arcs mostly upward with some
    back arcs, so cycles collapse; repeated arcs and self-loops
    included) and one of 3000 generators and 70,000 arcs, 300 of them
    back arcs, which fills more than one slice of ``_reach``'s adjacency
    lists.  Labels are random, so the label order is not the generator
    order.  Each presentation yields the ``repr`` of the elements,
    ``up_masks``, ``collapse`` and both halves of ``_ranked``.
    """
    for labels, pairs in presentations():
        poset, collapse = close_and_collapse(labels, pairs)
        order, masks = poset._ranked
        yield repr((poset.elements, poset.up_masks, collapse, tuple(order), tuple(masks))).encode()


def random_poset(rng: random.Random, n: int):
    names = [f"p{v}" for v in rng.sample(range(10 * n), n)]
    density = rng.choice((0.15, 0.3, 0.5))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return build_poset(names, pairs)


def search_cases():
    small = all_posets(4)
    for cap in (60, size_cap()):
        for a in small:
            for x in small:
                yield a, x, cap
    rng = random.Random(20261021)
    for _ in range(120):
        yield random_poset(rng, rng.randint(5, 8)), random_poset(rng, rng.randint(5, 8)), 2000


def search_run(a, x, cap) -> tuple:
    """The yielded sequence, the nodes visited and the cap trip."""
    seq, trip = [], None
    try:
        for t in iter_monotone_assignments(a, x, cap=cap):
            seq.append(t)
    except SizeCapExceeded as exc:
        trip = exc.visited
    # the same search, to read its node count
    spent = [0]
    try:
        for _ in _search(a, x, [x.full_mask] * a.n, cap, spent):
            pass
    except SizeCapExceeded:
        pass
    return seq, spent[0], trip


def searches():
    """Run the monotone search over a fixed set of poset pairs, with its
    node count and cap trip.

    The oracle tests compare sorted sets of maps; this pins the exact
    order in which ``iter_monotone_assignments`` yields them instead,
    the number of nodes ``_search`` visits, and where it stops when it
    runs out of its budget.  So a change to the search that keeps every
    map but yields them in another order, visits one node more or less,
    or trips its cap at another node shows up here.  The pairs are every
    (a, x) of ``all_posets(4)``, under a cap of 60 nodes, which trips
    mid-search on the larger hom-sets, and under the default cap; then
    120 seeded pairs of random posets with 5 to 8 elements, each under a
    cap of 2000 nodes.  Each case yields the ``repr`` of the yielded
    tuples, in the order yielded, then the nodes visited, then the
    ``visited`` of the ``SizeCapExceeded`` that ended it (None when the
    search finished).
    """
    for a, x, cap in search_cases():
        yield repr(search_run(a, x, cap)).encode()


def chains():
    """Reflect every poset with at most 4 elements along each shipped
    class and its cone class.

    The reflections are checked against oracles and closed forms in
    ``test_chain``, and ``test_chain.test_wide_chain_digest`` pins four
    wide chains; this pins the whole chain of every small one instead:
    its stages, connectors, span records (stage, class map index, f, the
    coprojection and ``strict_square``), gamma records and unit, as
    hashed by ``test_chain.chain_digest``.  So a change to the odd or
    even step, or to what a span record holds, that keeps every
    reflection but changes a stage, a record or the order of either
    shows up here.  The corpus is ``all_posets(4)`` under each of
    ``standard_classes()`` and ``cone_class`` of each.  Each reflection
    yields the class name and the chain digest.
    """
    classes = list(standard_classes())
    for klass in classes + [cone_class(k) for k in classes]:
        for x in all_posets(4):
            yield f"{klass.name} {chain_digest(reflect(x, klass))}\n".encode()


def maps_along() -> list:
    found = {}
    for klass in standard_classes():
        for h in klass.maps + cone_class(klass).maps:
            found.setdefault(h.key(), h)
    collapse = MonotoneMap(chain(2), point(), [0, 0])
    found.setdefault(collapse.key(), collapse)
    return list(found.values())


def kan(f, h) -> tuple:
    r = left_kan(f, h)
    ext = r.extension.assignment if r.extension else None
    return "kan", h.assignment, f.assignment, r.exists, r.strict, r.method, ext


def kan_answers():
    """Compute left Kan extensions, preservation and density over small
    posets.

    This pins their exact output, including the route ``left_kan`` names
    as its method, which the verdict digest leaves out.  The maps h are
    those of each standard class and of its cone class, then the
    collapse map chain(2) -> point, each once, in that order.  It yields
    the ``repr`` of, in turn:

    - for each h, each x in ``all_posets(4)`` and each f: dom h -> x in
      ``enumerate_monotone`` order, ``left_kan(f, h)``'s exists, strict,
      method and extension assignment;
    - the same for every monotone h between posets with at most 3
      elements and every f: dom h -> x with x of at most 3 elements,
      where the value-set route also finds extensions, strict and not;
    - for each h, each monotone p between posets with at most 3 elements
      that are both strong along h, ``preserves_kan(p, h)``;
    - for each monotone map f between posets with at most 3 elements,
      ``is_dense(f)``.

    Posets run in ``all_posets`` order, domain before codomain.
    """
    hs = maps_along()
    small = all_posets(3)
    for h in hs:
        for x in all_posets(4):
            for f in enumerate_monotone(h.dom, x):
                yield repr(kan(f, h)).encode()
    for a in small:
        for b in small:
            for h in enumerate_monotone(a, b):
                for x in small:
                    for f in enumerate_monotone(a, x):
                        yield repr(kan(f, h)).encode()
    for h in hs:
        along = MapClass("h", (h,))
        strong = [x for x in small if verdict(x, along) == "strong"]
        for x in strong:
            for y in strong:
                for p in enumerate_monotone(x, y):
                    yield repr(("preserves", p.assignment, preserves_kan(p, h))).encode()
    for x in small:
        for y in small:
            for f in enumerate_monotone(x, y):
                yield repr(("dense", f.assignment, is_dense(f))).encode()


def verdicts():
    """Decide every poset with at most 5 elements for each standard class
    and its cone class, and a fixed sample of maps.

    This pins the exact output of every report, so that a change to the
    scan or to the adjoint cross-check that keeps every verdict but
    moves one witness, one failure or one ``cross_check`` value shows
    up.  It yields the canonical JSON (``dumps``) of, class by class
    (each standard class, then its cone class) and poset by poset in
    ``all_posets(5)`` order, the ``is_injective`` report, the
    ``is_weakly_injective`` report and the ``verdict`` string; then,
    class by class, the ``is_injective_map`` report of every monotone
    map between posets with at most 3 elements, in ``all_posets(3)``
    order of domain and codomain and ``enumerate_monotone`` order of map.
    """
    classes = [c for k in standard_classes() for c in (k, cone_class(k))]
    for klass in classes:
        for x in all_posets(5):
            yield dumps(is_injective(x, klass).to_json()).encode()
            yield dumps(is_weakly_injective(x, klass).to_json()).encode()
            yield dumps(verdict(x, klass)).encode()
    small = all_posets(3)
    for klass in classes:
        for x in small:
            for y in small:
                for p in enumerate_monotone(x, y):
                    yield dumps(is_injective_map(p, klass).to_json()).encode()


# name -> (generator, number of byte strings it yields, sha256 of them all)
PINNED = {
    "closure": (closures, 401, "c5bf14e2f1726480c33fe0659269dcbcd8e6f964d9ff4d56684b0c64b25065ad"),
    "search": (searches, 1370, "ea051c3a35a42d8e26f3814a7b57307b0bc95b4de5f3807f134984f33d30c544"),
    "chain": (chains, 150, "9bb9ece67452125404ab6ea90250c303ce3031dc86f296302257407983b870b1"),
    "kan": (kan_answers, 42143, "62511f84ab65c9d29b447d4449be90529d2a94a221fd808a68add3cd2f87d59c"),
    "verdict": (verdicts, 4494, "5bf41aeedf8d7c1b975f560653ab662ba72568c799fa96726e14cbcd803b6bcf"),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_digest(name):
    answers, count, want = PINNED[name]
    digest = hashlib.sha256()
    n = 0
    for chunk in answers():
        digest.update(chunk)
        n += 1
    assert (n, digest.hexdigest()) == (count, want)
