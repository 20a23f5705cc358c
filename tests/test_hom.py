from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from kaninj import (
    MonotoneMap,
    all_posets,
    antichain,
    bottom_map,
    build_poset,
    chain,
    class_join,
    diamond,
    empty,
    enumerate_monotone,
    is_dense,
    join_map,
    left_kan,
    point,
    preserves_kan,
    vee,
)
from kaninj import clear_caches, hom
from kaninj.errors import DomainMismatch, NotInjectiveContext, SizeCapExceeded
from kaninj.hom import hom_poset
from kaninj.poset import Poset

from oracles import brute_dense, brute_kan, brute_monotone


def _kan_route(f, h):
    """left_kan(f, h) checked against the brute-force oracle; its route."""
    got = left_kan(f, h)
    exists, least, strict = brute_kan(tuple(f.assignment), h, f.cod)
    assert got.exists == exists, (f, h)
    if exists:
        assert tuple(got.extension.assignment) == least, (f, h)
        assert got.strict == strict, (f, h)
    return got.method


def test_left_kan_matches_brute_everywhere(monkeypatch):
    """Grid sweep: every f into every small target, along both shapes;
    a second pass without pointwise joins (every ``Poset.join_mask``
    missing) sends every row to value sets."""
    hs = [bottom_map(), join_map(), MonotoneMap(chain(2), chain(3), [0, 1])]
    targets = [empty(), point(), chain(2), antichain(2), vee(), diamond(), chain(3)]
    for joins in (True, False):
        if not joins:
            monkeypatch.setattr(Poset, "join_mask", lambda self, vmask: None)
        routes = Counter(
            _kan_route(f, h)
            for h in hs
            for x in targets
            for f in enumerate_monotone(h.dom, x)
        )
        assert sum(routes.values()) > 50
        assert joins or set(routes) == {"value_sets"}


def test_left_kan_matches_brute_along_cyclic_targets():
    """Every h into a 4-element poset whose cover graph has a cycle, where
    value sets are certified by search, and every f into a small poset."""
    cyclic = [b for b in all_posets(4) if b.n == 4 and not b.cover_forest]
    assert len(cyclic) == 2  # the diamond and the 2+2 bowtie
    routes = Counter(
        _kan_route(f, h)
        for b in cyclic
        for a in all_posets(2)
        for h in enumerate_monotone(a, b)
        for x in all_posets(3)
        for f in enumerate_monotone(a, x)
    )
    assert routes["value_sets"] > 0


@st.composite
def small_posets(draw):
    """A poset on p0..p<n-1>, n <= 5, from random forward pairs."""
    n = draw(st.integers(0, 5))
    pairs = [(i, j) for i, j in combinations(range(n), 2) if draw(st.booleans())]
    return build_poset([f"p{i}" for i in range(n)], [(f"p{i}", f"p{j}") for i, j in pairs])


@st.composite
def kan_problems(draw):
    """(f, h): random monotone maps out of one random poset."""
    a, b, x = draw(small_posets()), draw(small_posets()), draw(small_posets())
    hs, fs = enumerate_monotone(a, b), enumerate_monotone(a, x)
    assume(hs and fs)
    return draw(st.sampled_from(fs)), draw(st.sampled_from(hs))


@settings(max_examples=300, deadline=None)
@given(kan_problems())
def test_left_kan_matches_brute_on_random_posets(problem):
    _kan_route(*problem)


def test_left_kan_requires_common_domain():
    f = MonotoneMap(chain(2), vee(), [0, 2])
    with pytest.raises(DomainMismatch):
        left_kan(f, bottom_map())


def test_left_kan_identity_strict():
    f = MonotoneMap.identity(diamond())
    r = left_kan(f, f)
    assert r.exists and r.strict and r.extension == f


def test_left_kan_nonexistence():
    # the twist on a 2-antichain has no join to extend into
    tw = MonotoneMap(antichain(2), antichain(2), [1, 0])
    r = left_kan(tw, join_map())
    assert not r.exists and r.extension is None


def test_hom_poset_enumerates_every_monotone_map():
    for a in all_posets(3):
        for x in all_posets(3):
            assert hom_poset(a, x) == tuple(brute_monotone(a, x)), (a.elements, x.elements)


def test_hom_poset_of_empty_ends():
    # no map into the empty poset, and exactly one out of it
    assert len(hom_poset(point(), empty())) == 0
    assert hom_poset(empty(), vee()) == ((),)


def test_is_dense_matches_brute():
    cases = [
        MonotoneMap.identity(vee()),
        MonotoneMap(antichain(2), vee(), [0, 1]),
        MonotoneMap(chain(2), chain(3), [0, 1]),
        MonotoneMap(point(), chain(2), [1]),
        MonotoneMap(point(), chain(2), [0]),
    ]
    for f in cases:
        assert is_dense(f) == brute_dense(f), f.assignment
    missing_join = Counter()
    for a in all_posets(3):
        for y in all_posets(4):
            for f in enumerate_monotone(a, y):
                assert is_dense(f) == brute_dense(f), f
                _, route = hom._least_extension(y, f.assignment, f, f.below())
                missing_join[route == "value_sets"] += 1
    assert missing_join[True] and missing_join[False]


def test_below_matches_definition_and_is_built_once():
    checked = 0
    for dom in all_posets(3):
        for cod in all_posets(3):
            for h in enumerate_monotone(dom, cod):
                want = tuple(
                    tuple(a for a in range(dom.n) if cod.leq[h.assignment[a], b])
                    for b in range(cod.n)
                )
                below = h.below()
                assert below == want
                assert h.below() is below
                checked += 1
    assert checked > 100


def test_preserves_kan_requires_strong_endpoints():
    f = MonotoneMap(antichain(2), antichain(2), [0, 1])
    with pytest.raises(NotInjectiveContext):
        preserves_kan(f, join_map())


def test_preserves_kan_verdicts():
    # join-preserving map between join-semilattices
    keep = MonotoneMap(vee(), chain(2), [0, 1, 1])
    assert preserves_kan(keep, join_map())
    # collapsing the legs but not their formal join breaks preservation
    pinch = MonotoneMap(vee(), chain(2), [0, 0, 1])
    assert not preserves_kan(pinch, join_map())
    # vee -> diamond leg that sends the formal join to the top but the
    # legs to the middle layer preserves joins too; break it instead by
    # landing both legs on incomparable middles with a taller join
    d = diamond()
    bot = d.index["bot"]
    top = d.index["top"]
    mid = [i for i in range(4) if i not in (bot, top)]
    squash = MonotoneMap(vee(), d, [mid[0], mid[1], top])
    assert preserves_kan(squash, join_map())
    crush = MonotoneMap(vee(), d, [bot, bot, top])
    assert not preserves_kan(crush, join_map())


def test_clear_caches_runs():
    left_kan(MonotoneMap.identity(vee()), MonotoneMap.identity(vee()))
    clear_caches()


def test_hom_poset_honours_cap_after_uncapped_call(monkeypatch):
    # the answer must not depend on call history: a cached hom-poset
    # found under the default cap does not answer a call with a smaller one
    full = hom_poset(chain(3), vee())
    monkeypatch.setenv("KANINJ_SIZE_CAP", "2")
    with pytest.raises(SizeCapExceeded):
        hom_poset(chain(3), vee())
    assert len(full) == len(brute_monotone(chain(3), vee()))
