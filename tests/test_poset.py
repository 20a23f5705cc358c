import numpy as np
import pytest

from kaninj import (
    MonotoneMap,
    Poset,
    SizeCapExceeded,
    all_posets,
    poset_to_json,
    antichain,
    build_poset,
    chain,
    diamond,
    empty,
    enumerate_monotone,
    point,
    two_cell_exists,
    vee,
)
from kaninj.errors import CycleDetected, NotMonotone, NotParallel
from kaninj.poset import TwoCell, iter_monotone_assignments, monotone_value_sets

from oracles import brute_monotone


def test_catalog_axioms():
    for p in [empty(), point(), chain(3), antichain(3), vee(), diamond()]:
        n = p.n
        assert all(p.leq[i, i] for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j and p.leq[i, j]:
                    assert not p.leq[j, i]
                for k in range(n):
                    if p.leq[i, j] and p.leq[j, k]:
                        assert p.leq[i, k]


def test_build_poset_closes_transitively():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq[p.index["a"], p.index["c"]]


def test_validate_rejects_cycle():
    leq = np.array([[True, True], [True, True]])
    with pytest.raises(Exception):
        Poset(["a", "b"], leq)


def test_build_poset_cycle_message():
    with pytest.raises(CycleDetected, match=r"^labels 'a' and 'b' are forced equal$"):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def wide_diamond(k: int):
    """bot < m000, ..., m<k-1> < top: k paths from bot to top."""
    mids = [f"m{i:03d}" for i in range(k)]
    pairs = [("bot", m) for m in mids] + [(m, "top") for m in mids]
    return build_poset(["bot", "top"] + mids, pairs)


def test_covers_exact_past_255_paths():
    # 256 paths from bot to top: an 8-bit path count wraps to 0 there
    p = wide_diamond(256)
    bot, top = p.index["bot"], p.index["top"]
    assert not p.covers[bot, top]
    assert (bot, top) not in p.cover_pairs
    assert len(p.cover_pairs) == 512
    assert len(poset_to_json(p)["leq"]) == 512


def test_validate_accepts_wide_closed_poset():
    # with bot and top themselves, 256 elements lie between bot and top
    p = wide_diamond(254)
    assert Poset(p.elements, p.leq) == p


def test_duplicate_labels_rejected():
    with pytest.raises(Exception):
        build_poset(["a", "a"], [])


def test_monotone_map_rejects_order_violation():
    with pytest.raises(NotMonotone):
        MonotoneMap(chain(2), antichain(2), [0, 1])


def test_composition_and_identity():
    f = MonotoneMap(chain(2), chain(3), [0, 2])
    g = MonotoneMap(chain(3), chain(2), [0, 0, 1])
    assert f.then(g).assignment == (0, 1)
    assert f.then(MonotoneMap.identity(chain(3))) == f
    assert MonotoneMap.identity(chain(2)).then(f) == f


def test_enumerate_monotone_matches_brute():
    shapes = [empty(), point(), chain(2), antichain(2), vee(), chain(3)]
    for a in shapes:
        for x in shapes:
            got = {tuple(m.assignment) for m in enumerate_monotone(a, x)}
            assert got == set(brute_monotone(a, x)), (a.elements, x.elements)


def test_enumerate_monotone_lex_sorted():
    maps = [tuple(m.assignment) for m in enumerate_monotone(antichain(2), vee())]
    assert maps == sorted(maps)


def test_iter_cap_raises():
    with pytest.raises(SizeCapExceeded):
        list(iter_monotone_assignments(antichain(4), chain(4), cap=3))


def test_monotone_value_sets_forest_exact():
    # vee's cover graph is a tree, so arc consistency is exact there
    a, x = vee(), chain(3)
    sets = monotone_value_sets(a, x)
    for b in range(a.n):
        feasible = {m[b] for m in brute_monotone(a, x)}
        got = {v for v in range(x.n) if sets[b] >> v & 1}
        assert got == feasible


def test_monotone_value_sets_respects_lower():
    a, x = chain(2), chain(3)
    sets = monotone_value_sets(a, x, lower={0: [2]})
    assert sets[0] == 1 << 2
    assert sets[1] == 1 << 2


def test_monotone_value_sets_infeasible():
    assert monotone_value_sets(chain(2), empty()) is None


def test_two_cells():
    f = MonotoneMap(chain(2), chain(3), [0, 1])
    g = MonotoneMap(chain(2), chain(3), [1, 2])
    assert two_cell_exists(f, g)
    assert not two_cell_exists(g, f)
    TwoCell(f, g)
    with pytest.raises(Exception):
        TwoCell(g, f)
    with pytest.raises(NotParallel):
        TwoCell(f, MonotoneMap(chain(2), chain(2), [0, 1]))


def test_dual_is_involution_and_reverses():
    for p in [chain(3), vee(), diamond()]:
        d = p.dual()
        assert d.elements == p.elements
        for i in range(p.n):
            for j in range(p.n):
                assert bool(d.leq[i, j]) == bool(p.leq[j, i])
        assert (d.dual().leq == p.leq).all()


def test_masks_are_plain_ints():
    # bit tricks downstream break on numpy scalars
    p = diamond()
    for m in p.up_masks + p.down_masks:
        assert type(m) is int


def test_all_posets_counts():
    # cumulative: every iso class with at most n elements
    assert [len(all_posets(n)) for n in range(6)] == [1, 2, 4, 9, 25, 88]


def test_all_posets_no_duplicate_classes():
    from oracles import brute_iso

    ps = all_posets(3)
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            assert not brute_iso(p, q)


def test_join_of():
    v = vee()
    top = v.index["top"]
    assert v.join_of([v.index["a"], v.index["b"]]) == top
    assert v.join_of([]) is None  # no bottom in V
    assert antichain(2).join_of([0, 1]) is None


def test_is_order_iso():
    ident = MonotoneMap.identity(vee())
    assert ident.is_order_iso()
    collapse = MonotoneMap(chain(2), point(), [0, 0])
    assert not collapse.is_order_iso()
    # monotone bijection that is not an order iso
    b = MonotoneMap(antichain(2), chain(2), [0, 1])
    assert not b.is_order_iso()


def test_cap_error_names_the_search():
    with pytest.raises(SizeCapExceeded) as info:
        list(iter_monotone_assignments(antichain(4), chain(4), cap=3))
    err = info.value
    assert (err.cap, err.dom_n, err.cod_n, err.visited) == (3, 4, 4, 4)
    assert "from a 4-element poset into a 4-element poset" in str(err)
    assert "cap of 3 nodes" in str(err)
