import functools
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kaninj import (
    MonotoneMap,
    Poset,
    SizeCapExceeded,
    all_posets,
    poset_to_json,
    antichain,
    build_poset,
    chain,
    class_bottom_join,
    diamond,
    empty,
    enumerate_monotone,
    point,
    product,
    reflect,
    two_cell_exists,
    vee,
)
from kaninj import cache, config
from kaninj.errors import CycleDetected, NotMonotone, NotParallel
from kaninj.poset import (
    _SLICE,
    TwoCell,
    _mask_rows,
    _reach,
    _row_masks,
    _search,
    classify_adjoint,
    close_and_collapse,
    iter_monotone_assignments,
    left_adjoint,
    monotone_value_sets,
    right_adjoint,
)

from oracles import (
    brute_adjoints,
    brute_bounded,
    brute_close_and_collapse,
    brute_monotone,
    brute_posets,
    brute_search,
    masks_of,
)


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
    with pytest.raises(CycleDetected):
        Poset(["a", "b"], masks_of(leq))


def test_build_poset_cycle_message():
    with pytest.raises(CycleDetected, match=r"^labels 'a' and 'b' are forced equal$"):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


@st.composite
def presentations(draw):
    """Labels out of index order, with random pairs plus mutual pairs, a
    longer cycle and repeated pairs mixed in."""
    n = draw(st.integers(0, 9))
    labels = draw(st.permutations([f"g{k}" for k in range(n)]))
    if n == 0:
        return labels, []
    idx = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(idx, idx), max_size=2 * n))
    for a, b in draw(st.lists(st.tuples(idx, idx), max_size=n)):
        pairs += [(a, b), (b, a)]
    cycle = draw(st.lists(idx, max_size=4))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return labels, draw(st.permutations(pairs))


def oracle_poset(names, leq) -> Poset:
    return Poset(names, masks_of(leq), validate=False)


@settings(max_examples=400, deadline=None)
@given(presentations())
def test_close_and_collapse_matches_oracle(pres):
    labels, pairs = pres
    got, collapse = close_and_collapse(labels, pairs)
    names, leq, want = brute_close_and_collapse(labels, pairs)
    assert got.key == oracle_poset(names, leq).key
    assert collapse == want
    # build_poset sorts the labels first and names the two least labels
    # of the first class that collapses
    elements = sorted(labels)
    at = {lbl: k for k, lbl in enumerate(elements)}
    sorted_pairs = [(at[labels[a]], at[labels[b]]) for a, b in pairs]
    names, leq, cls = brute_close_and_collapse(elements, sorted_pairs)
    label_pairs = [(labels[a], labels[b]) for a, b in pairs]
    merged = [i for i in range(len(cls)) if cls.count(cls[i]) > 1]
    if not merged:
        assert build_poset(labels, label_pairs).key == oracle_poset(names, leq).key
        return
    i = merged[0]
    j = cls.index(cls[i], i + 1)
    with pytest.raises(CycleDetected) as err:
        build_poset(labels, label_pairs)
    assert str(err.value) == f"labels {elements[i]!r} and {elements[j]!r} are forced equal"


def check_reach(n, src, dst, reaches):
    """_reach's (comp, reach) on the arcs src -> dst against ``reaches``,
    the reflexive reachability as an n x n boolean matrix."""
    comp, reach = _reach(n, np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))
    assert sorted(set(comp)) == list(range(len(reach)))
    mutual = reaches & reaches.T
    assert all(mutual[u, v] == (comp[u] == comp[v]) for u in range(n) for v in range(n))
    # sinks first: an arc never enters a later component
    assert all(comp[d] <= comp[s] for s, d in zip(src, dst))
    for u in range(n):
        want = sum(1 << c for c in {comp[v] for v in np.flatnonzero(reaches[u])})
        assert reach[comp[u]] == want


def warshall(n, src, dst) -> np.ndarray:
    r = np.eye(n, dtype=bool)
    r[np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)] = True
    for k in range(n):
        r |= r[:, k, None] & r[None, k, :]
    return r


@st.composite
def digraphs(draw):
    """Arcs on 0 to 12 nodes in random order, with self-loops and
    repeated arcs mixed in."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    idx = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(idx, idx), max_size=3 * n))
    arcs += [(v, v) for v in draw(st.lists(idx, max_size=3))]
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=4))
    return n, draw(st.permutations(arcs))


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_reach_matches_brute_reachability(graph):
    n, arcs = graph
    src, dst = [a for a, _ in arcs], [b for _, b in arcs]
    check_reach(n, src, dst, warshall(n, src, dst))


def test_reach_across_a_slice_boundary():
    # more arcs than one slice of the adjacency lists, mostly upward with
    # some back arcs, so most nodes' lists are filled from both slices
    rng = random.Random(7)
    n, m = 600, _SLICE + 4000
    arcs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(m - 100)]
    arcs += [(i, i - rng.randrange(1, 40)) for i in rng.sample(range(40, n), 100)]
    rng.shuffle(arcs)
    src, dst = [a for a, _ in arcs], [b for _, b in arcs]
    assert len(arcs) > _SLICE
    reaches = warshall(n, src, dst)
    assert 1 < len(set(map(bytes, reaches & reaches.T))) < n
    check_reach(n, src, dst, reaches)


def test_all_posets_extends_the_smaller_sizes():
    # each size is enumerated once and appended to the sizes below it,
    # which gives the enumeration from scratch
    cache.clear_caches()
    for n in range(6):
        got = all_posets(n)
        assert [p.key for p in got] == [p.key for p in brute_posets(n)]
        assert got[: len(all_posets(n - 1))] == all_posets(n - 1)
    assert [len(all_posets(n)) for n in range(6)] == [1, 2, 4, 9, 25, 88]


def wide_diamond(k: int):
    """bot < m000, ..., m<k-1> < top: k paths from bot to top."""
    mids = [f"m{i:03d}" for i in range(k)]
    pairs = [("bot", m) for m in mids] + [(m, "top") for m in mids]
    return build_poset(["bot", "top"] + mids, pairs)


def test_covers_exact_past_255_paths():
    # 256 paths from bot to top: an 8-bit path count wraps to 0 there
    p = wide_diamond(256)
    bot, top = p.index["bot"], p.index["top"]
    assert (bot, top) not in p.cover_pairs
    assert len(p.cover_pairs) == 512
    assert len(poset_to_json(p)["leq"]) == 512


def covers_by_definition(p) -> list:
    """(i, j) with i < j and no k strictly between, in ascending order."""
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    return [
        (i, j)
        for i in range(p.n)
        for j in range(p.n)
        if strict[i, j] and not (strict[i] & strict[:, j]).any()
    ]


def test_cover_pairs_match_definition():
    for p in list(all_posets(5)) + [wide_diamond(256), chain(40), antichain(7)]:
        assert p.cover_pairs == tuple(covers_by_definition(p))


def has_cycle(n: int, edges) -> bool:
    """Whether the undirected simple graph on range(n) has a cycle: a
    depth-first search meets a seen node other than the one it came from."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1)]
        while stack:
            v, came = stack.pop()
            for w in nbrs[v]:
                if w == came:
                    continue
                if seen[w]:
                    return True
                seen[w] = True
                stack.append((w, v))
    return False


def test_cover_forest_matches_definition():
    shapes = list(all_posets(5)) + [chain(40), antichain(7)]
    verdicts = [p.cover_forest for p in shapes]
    assert verdicts == [not has_cycle(p.n, covers_by_definition(p)) for p in shapes]
    assert True in verdicts and False in verdicts


def test_cover_forest_builds_no_trees():
    # the components come from one pass; the per-root trees are built
    # only when a value-set pass reads them, and only for its roots
    for p, forest in [(chain(1500), True), (wide_diamond(254), False)]:
        assert p.cover_forest is forest
        assert p._trees == {}
    p = chain(1500)
    assert value_sets(p, chain(2), points=[0]) == [0b11]
    assert list(p._trees) == [0]


def random_presentation(rng, n: int, density: float) -> list:
    pairs = np.argwhere(rng.random((n, n)) < density)
    return [tuple(pair) for pair in rng.permutation(pairs).tolist()]


@pytest.mark.parametrize("n", [40, 120])
@pytest.mark.parametrize("density", [0.01, 0.04, 0.3])
def test_close_and_collapse_matches_oracle_at_scale(n, density):
    # the hypothesis test reaches 9 generators; these reach 120, with
    # labels out of index order and, at low density, many classes.
    # Repeated labels make classes tie on their names.
    rng = np.random.default_rng(n * 1000 + int(density * 100))
    distinct = [f"g{k:03d}" for k in rng.permutation(n)]
    repeated = [f"g{k % 9}" for k in rng.permutation(n)]
    order = rng.permutation(n).tolist()
    cycle = list(zip(order, order[1:] + order[:1]))
    hub = int(rng.integers(n))
    hub_pairs = [(hub, k) for k in range(n)] + [(k, hub) for k in range(n)]
    base = random_presentation(rng, n, density)
    for labels in (distinct, repeated):
        for pairs in (base, base + cycle, base + hub_pairs, base + [(hub, k) for k in range(n)]):
            got, collapse = close_and_collapse(labels, pairs)
            names, leq, want = brute_close_and_collapse(labels, pairs)
            assert got.elements == tuple(names)
            assert got.key == oracle_poset(names, leq).key
            assert collapse == want


def test_close_and_collapse_has_no_recursion_limit():
    n = 5000
    labels = [f"g{k:04d}" for k in range(n)]
    path = [(k, k + 1) for k in range(n - 1)]
    p, collapse = close_and_collapse(labels, path)
    assert p.elements == tuple(labels) and collapse == tuple(range(n))
    assert np.array_equal(p.leq, np.triu(np.ones((n, n), dtype=bool)))
    assert p.cover_pairs == tuple(path)
    p, collapse = close_and_collapse(labels, path[::-1] + [(n - 1, 0)])
    assert p.elements == ("g0000",) and collapse == (0,) * n


def test_validate_rejects_intransitive_leq():
    leq = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    with pytest.raises(ValueError, match="^leq is not transitively closed$"):
        Poset(["a", "b", "c"], masks_of(leq))


def test_validate_rejects_malformed_masks():
    # c's mask lacks c's own bit
    with pytest.raises(ValueError, match="^leq is not reflexive$"):
        Poset(["a", "b", "c"], [0b111, 0b110, 0b000])
    # one mask short, one too many, a bit past the last element, a negative mask
    for up in ([0b11], [0b11, 0b10, 0b100], [0b11, 0b110], [0b11, -2]):
        with pytest.raises(ValueError, match="^up-set masks do not match the elements$"):
            Poset(["a", "b"], up)


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_down_masks_transpose_the_order(pres):
    p = close_and_collapse(*pres)[0]
    assert p.down_masks == tuple(_row_masks(p.leq.T))


def test_down_masks_transpose_past_one_tile():
    # down_masks transposes tiles of 1024 x 1024 bits; these posets
    # cross tile edges in the rows and in the columns
    rng = np.random.default_rng(3)
    n = 2100
    forward = [(i, j) for i, j in rng.integers(n, size=(6000, 2)).tolist() if i < j]
    big = close_and_collapse([f"g{k:04d}" for k in range(n)], forward)[0]
    for p in (wide_diamond(1100), big):
        assert p.n > 1024
        assert p.down_masks == tuple(_row_masks(p.leq.T))


def test_mask_rows_inverts_row_masks():
    rng = np.random.default_rng(11)
    for n in (0, 1, 7, 8, 9, 65):
        m = rng.random((5, n)) < 0.4
        assert np.array_equal(_mask_rows(_row_masks(m), n).astype(bool), m)


def test_close_and_collapse_rejects_out_of_range_generators():
    for pairs in ([(0, 2)], [(-1, 0)], [(0, 1), (1, -2)]):
        with pytest.raises(ValueError, match="out of range"):
            close_and_collapse(["a", "b"], pairs)
    with pytest.raises(ValueError, match="out of range"):
        close_and_collapse([], [(0, 0)])


def test_validate_reads_antisymmetry_off_the_up_sets():
    # a cycle is reported before the missing a <= c it also leaves
    with pytest.raises(CycleDetected):
        Poset(["a", "b", "c"], [0b011, 0b111, 0b100])
    p = wide_diamond(1100)
    p.validate()
    assert "down_masks" not in vars(p)


def test_minimal_pairs_close_like_all_forced_pairs():
    # the even step inserts t <= v only for the minimal v of each forced
    # mask; with the cover pairs they close to the same poset and collapse.
    # all_posets lists each poset with its index order a linear extension,
    # so the duals are here for posets where it is not.  Both rank by
    # up-set size; rebuilt through close_and_collapse, they rank by the
    # order in which _reach finished their components.
    rng = random.Random(19)
    posets = [*all_posets(5), *(q.dual() for q in all_posets(5))]
    posets += [close_and_collapse(q.elements, list(q.cover_pairs))[0] for q in posets]
    for p in posets:
        up = p.up_masks
        for _ in range(6):
            forced = [rng.getrandbits(p.n) & ~up[t] for t in range(p.n)]
            full = [(t, v) for t, m in enumerate(forced) for v in range(p.n) if m >> v & 1]
            reduced = list(zip(*p.minimal(forced)))
            want = close_and_collapse(p.elements, list(p.cover_pairs) + full)
            got = close_and_collapse(p.elements, list(p.cover_pairs) + reduced)
            assert got[0].key == want[0].key and got[1] == want[1]
            for t, m in enumerate(forced):
                members = [v for v in range(p.n) if m >> v & 1]
                assert sorted(v for k, v in reduced if k == t) == [
                    v for v in members if not any(u != v and up[u] >> v & 1 for u in members)
                ]


def test_validate_accepts_wide_closed_poset():
    # with bot and top themselves, 256 elements lie between bot and top
    p = wide_diamond(254)
    assert Poset(p.elements, masks_of(p.leq)) == p


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


def bowtie():
    """The 2+2 bowtie: a, b both below c and d, a 4-cycle of covers."""
    return build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def lower_row(a, x, lower) -> list:
    """The row of starting domains that pointwise lower bounds give:
    row[i] is the meet of the up-sets of the elements lower[i] lists,
    all of x where lower has no entry."""
    row = [x.full_mask] * a.n
    for i, vals in (lower or {}).items():
        for v in vals:
            row[i] &= x.up_masks[v]
    return row


def value_sets(a, x, lower=None, points=None):
    """monotone_value_sets for the one row of starting domains that the
    lower bounds give."""
    return monotone_value_sets(a, x, [lower_row(a, x, lower)], points)[0]


def random_lower(rng, a, x) -> dict:
    lower = {}
    for i in range(a.n):
        if rng.random() < 0.5:
            lower[i] = rng.sample(range(x.n), rng.randint(1, min(2, x.n)))
    return lower


def test_enumerate_monotone_matches_brute():
    shapes = [empty(), point(), chain(2), antichain(2), vee(), chain(3)]
    for a in shapes:
        for x in shapes:
            got = {tuple(m.assignment) for m in enumerate_monotone(a, x)}
            assert got == set(brute_monotone(a, x)), (a.elements, x.elements)
    # domains whose cover graph has a cycle, under seeded lower bounds
    rng = random.Random(5)
    for a in [diamond(), bowtie()]:
        for x in shapes + [diamond(), bowtie()]:
            for trial in range(3):
                lower = random_lower(rng, a, x) if trial and x.n else {}
                got = sorted(_search(a, x, lower_row(a, x, lower), config.size_cap(), [0]))
                assert got == sorted(brute_bounded(a, x, lower)), (a.elements, x.elements, lower)


def test_enumerate_monotone_lex_sorted():
    maps = [tuple(m.assignment) for m in enumerate_monotone(antichain(2), vee())]
    assert maps == sorted(maps)


def test_iter_cap_raises():
    with pytest.raises(SizeCapExceeded):
        list(iter_monotone_assignments(antichain(4), chain(4), cap=3))


def _drain(search, a, x, masks, cap, spent, most=None) -> tuple:
    """The first ``most`` tuples a search yields (all when None), the
    node count it leaves in spent and the visited of its cap trip."""
    out = []
    try:
        for t in search(a, x, masks, cap, spent):
            out.append(t)
            if len(out) == most:
                break
    except SizeCapExceeded as exc:
        return out, spent[0], exc.visited
    return out, spent[0], None


def _pinned_rows(a, x):
    """The rows ``_certified_sets`` certifies v at i with: v at i, below
    v under i, above v over i, for every i of a and v of x."""
    for i in range(a.n):
        for v in range(x.n):
            row = [x.full_mask] * a.n
            for e in range(a.n):
                if a.down_masks[i] >> e & 1:
                    row[e] &= x.down_masks[v]
                if a.up_masks[i] >> e & 1:
                    row[e] &= x.up_masks[v]
            row[i] = 1 << v
            yield row


def test_search_matches_recursive_reference():
    rng = random.Random(11)
    shapes = list(all_posets(3)) + [diamond(), bowtie(), antichain(4), chain(4)]
    pairs = [(a, x) for a in shapes for x in shapes]
    for _ in range(30):
        ends = []
        for _ in range(2):
            names = [f"p{k}" for k in rng.sample(range(60), rng.randint(5, 6))]
            ends.append(build_poset(names, [(p, q) for p, q in combinations(names, 2) if rng.random() < 0.3]))
        pairs.append(tuple(ends))
    big = 10**9
    tripped = 0
    for a, x in pairs:
        rows = [[x.full_mask] * a.n, lower_row(a, x, random_lower(rng, a, x) if x.n else {})]
        for row in rows:
            want = _drain(brute_search, a, x, row, big, [0])
            assert _drain(_search, a, x, row, big, [0]) == want, (a.elements, x.elements, row)
            # a cap that trips mid-search, with the same count and visited
            cap = want[1] // 2
            if want[1] > 1:
                want = _drain(brute_search, a, x, row, cap, [0])
                assert want[2] == cap + 1
                assert _drain(_search, a, x, row, cap, [0]) == want, (a.elements, x.elements, cap)
                tripped += 1
        # the certification searches of one row share one count, and
        # each stops at its first map
        pinned = list(_pinned_rows(a, x))
        for cap in (big, rng.randint(1, 4 * len(pinned) + 1)):
            mine, ref = [0], [0]
            for row in pinned:
                want = _drain(brute_search, a, x, row, cap, ref, most=1)
                assert _drain(_search, a, x, row, cap, mine, most=1) == want, (a.elements, x.elements, row)
                if want[2] is not None:
                    tripped += 1
                    break
    assert tripped > 100


def test_monotone_value_sets_forest_exact():
    # vee's cover graph is a tree, so arc consistency is exact there
    a, x = vee(), chain(3)
    sets = value_sets(a, x)
    for b in range(a.n):
        feasible = {m[b] for m in brute_monotone(a, x)}
        got = {v for v in range(x.n) if sets[b] >> v & 1}
        assert got == feasible


def test_monotone_value_sets_respects_lower():
    a, x = chain(2), chain(3)
    sets = value_sets(a, x, lower={0: [2]})
    assert sets[0] == 1 << 2
    assert sets[1] == 1 << 2


def test_monotone_value_sets_match_enumeration():
    # the union, per element, of every monotone map's value; non-forest
    # domains such as the diamond go through the certified search
    rng = random.Random(7)
    shapes = all_posets(4)
    assert any(not a.cover_forest for a in shapes)
    for a in shapes:
        for x in shapes:
            for trial in range(3):
                lower = random_lower(rng, a, x) if trial and x.n else {}
                maps = brute_bounded(a, x, lower)
                sets = value_sets(a, x, lower=lower)
                if not maps:
                    assert sets is None, (a.elements, x.elements, lower)
                    continue
                want = [
                    functools.reduce(lambda acc, m: acc | 1 << m[i], maps, 0)
                    for i in range(a.n)
                ]
                assert sets == want, (a.elements, x.elements, lower)


def then(f, g):
    """Assignment of g after f, or None when either is missing."""
    return None if f is None or g is None else tuple(g[v] for v in f)


def test_adjoints_match_definition():
    shapes = all_posets(3)
    checked = 0
    for x in shapes:
        for y in shapes:
            for m in enumerate_monotone(x, y):
                right, left = brute_adjoints(m)
                r, t = right_adjoint(m), left_adjoint(m)
                assert (r and r.assignment) == right, m.assignment
                assert (t and t.assignment) == left, m.assignment
                ida, idb = tuple(range(x.n)), tuple(range(y.n))
                flags = classify_adjoint(m)
                assert flags.is_lari == (then(m.assignment, right) == ida)
                assert flags.is_lali == (then(right, m.assignment) == idb)
                assert flags.is_rali == (then(left, m.assignment) == idb)
                assert flags.is_rari == (then(m.assignment, left) == ida)
                checked += 1
    assert checked == 485


@st.composite
def small_maps(draw):
    """A random monotone map between posets of at most 5 elements, each
    built from random pairs along a random order of its labels."""
    ends = []
    for _ in range(2):
        n = draw(st.integers(0, 5))
        names = draw(st.permutations([f"p{i}" for i in range(n)]))
        pairs = [(names[i], names[j]) for i, j in combinations(range(n), 2) if draw(st.booleans())]
        ends.append(build_poset(names, pairs))
    maps = enumerate_monotone(*ends)
    assume(maps)
    return draw(st.sampled_from(maps))


@settings(max_examples=300, deadline=None)
@given(small_maps())
def test_adjoints_match_brute_on_random_posets(m):
    right, left = brute_adjoints(m)
    r, t = right_adjoint(m), left_adjoint(m)
    assert (r and r.assignment) == right
    assert (t and t.assignment) == left


def test_monotone_value_sets_infeasible():
    assert value_sets(chain(2), empty()) is None


def test_monotone_value_sets_certification_is_capped(monkeypatch):
    # the diamond's cover graph has a cycle, so its values are certified
    # by search, and that search counts its nodes against the cap
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded) as info:
        value_sets(diamond(), chain(3))
    err = info.value
    assert (err.cap, err.dom_n, err.cod_n, err.visited) == (1, 4, 3, 2)
    monkeypatch.delenv("KANINJ_SIZE_CAP")
    # every constant map exists, so each element takes every value
    assert value_sets(diamond(), chain(3)) == [0b111] * 4
    # the searches of one call share one budget: 48 nodes in all here,
    # and 64 for the bowtie into the diamond
    for a, x, total in [(diamond(), chain(3), 48), (bowtie(), diamond(), 64)]:
        monkeypatch.setenv("KANINJ_SIZE_CAP", str(total - 1))
        with pytest.raises(SizeCapExceeded) as info:
            value_sets(a, x)
        assert info.value.visited == total
        monkeypatch.setenv("KANINJ_SIZE_CAP", str(total))
        assert value_sets(a, x) == [x.full_mask] * 4


def test_monotone_value_sets_on_points_match_brute_force():
    # every map h between posets with at most 3 elements, and every h
    # from a poset with at most 2 elements into a 4-element poset whose
    # cover graph has a cycle, into every poset with at most 4 elements;
    # the sets at the points outside h's image, as the even step asks
    # them, and at no point, against the filtered brute force
    rng = random.Random(11)
    small = all_posets(3)
    cyclic = [c for c in all_posets(4) if not c.cover_forest]
    assert len(cyclic) == 2
    maps = [h for a in small for b in small for h in enumerate_monotone(a, b)]
    maps += [h for a in all_posets(2) for b in cyclic for h in enumerate_monotone(a, b)]
    seen = {"infeasible": 0, "child_above": 0, "cyclic": 0}
    for h in maps:
        b = h.cod
        points = [v for v in range(b.n) if v not in h.assignment]
        if not b.cover_forest:
            seen["cyclic"] += 1
        elif any(not below for r in points for _, _, below in b.cover_tree(r)[1]):
            seen["child_above"] += 1
        for x in all_posets(4):
            for trial in range(3):
                lower = {}
                if trial and x.n:
                    for v in range(b.n):
                        if rng.random() < 0.5:
                            lower[v] = rng.sample(range(x.n), rng.randint(1, min(2, x.n)))
                found = brute_bounded(b, x, lower)
                got = value_sets(b, x, lower=lower, points=points)
                none = value_sets(b, x, lower=lower, points=[])
                case = (h.assignment, b.elements, x.elements, lower)
                if not found:
                    seen["infeasible"] += 1
                    assert got is None and none is None, case
                    continue
                want = [
                    functools.reduce(lambda acc, m: acc | 1 << m[v], found, 0) for v in points
                ]
                assert got == want, case
                assert none == [], case
    assert all(seen.values()), seen


def test_monotone_value_sets_batches_rows(monkeypatch):
    # one call with many rows answers each row as a call of its own,
    # on forest and non-forest domains (the diamond, the bowtie), with
    # rows that have no map and points in any order
    rng = random.Random(20)
    targets = all_posets(3)
    seen = {"forest": 0, "cyclic": 0, "none": 0}
    for a in all_posets(4):
        for x in targets:
            for _ in range(2):
                lowers = [random_lower(rng, a, x) if x.n else {} for _ in range(5)]
                rows = [lower_row(a, x, lower) for lower in lowers]
                points = rng.sample(range(a.n), rng.randint(0, a.n))
                got = monotone_value_sets(a, x, rows, points)
                assert got == [monotone_value_sets(a, x, [row], points)[0] for row in rows]
                for lower, sets in zip(lowers, got):
                    found = brute_bounded(a, x, lower)
                    want = [functools.reduce(lambda acc, m: acc | 1 << m[v], found, 0) for v in points]
                    assert sets == (want if found else None), (a.elements, x.elements, lower, points)
                    seen["none"] += not found
                seen["forest" if a.cover_forest else "cyclic"] += 1
    assert all(seen.values()), seen
    # each row has a budget of its own: one full row of the diamond into
    # chain(3) needs 48 nodes, so three fit under a cap of 48 and none
    # under 47, which fails the way one call does
    d, x = diamond(), chain(3)
    full = [x.full_mask] * d.n
    monkeypatch.setenv("KANINJ_SIZE_CAP", "48")
    assert monotone_value_sets(d, x, [full] * 3) == [[x.full_mask] * 4] * 3
    monkeypatch.setenv("KANINJ_SIZE_CAP", "47")
    with pytest.raises(SizeCapExceeded) as lone:
        monotone_value_sets(d, x, [full])
    with pytest.raises(SizeCapExceeded) as batched:
        monotone_value_sets(d, x, [[1 << 2] * d.n, full])
    assert batched.value.visited == lone.value.visited == 48


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


def test_product_is_componentwise():
    for x in all_posets(3):
        for y in all_posets(3):
            p, pi1, pi2 = product(x, y)
            assert len(set(zip(pi1.assignment, pi2.assignment))) == p.n == x.n * y.n
            for i in range(p.n):
                for j in range(p.n):
                    want = x.leq[pi1.assignment[i], pi1.assignment[j]] and y.leq[pi2.assignment[i], pi2.assignment[j]]
                    assert p.leq[i, j] == want, (x, y, i, j)


def test_dual_is_involution_and_reverses():
    for p in [chain(3), vee(), diamond()]:
        d = p.dual()
        assert d.elements == p.elements
        for i in range(p.n):
            for j in range(p.n):
                assert bool(d.leq[i, j]) == bool(p.leq[j, i])
        assert (d.dual().leq == p.leq).all()


def test_key_bytes_are_pinned():
    # the presentation digests hash Poset.key: the labels, then the leq
    # matrix, here built bit by bit from up_masks, packed row-major.  The
    # stages of antichain(5) have sizes that are not multiples of 8, and
    # wide_diamond(1100) has more than 1024 rows
    stages = reflect(antichain(5), class_bottom_join()).trace.stages
    assert any(s.n % 8 for s in stages)
    for p in [*all_posets(5), *stages, wide_diamond(1100)]:
        m = np.array([[up >> j & 1 for j in range(p.n)] for up in p.up_masks], dtype=bool)
        want = "\x00".join(p.elements).encode() + b"\x01" + np.packbits(m).tobytes()
        assert p.key == want, p


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
    assert v.join_mask(1 << v.index["a"] | 1 << v.index["b"]) == top
    assert v.join_mask(0) is None  # no bottom in V
    assert antichain(2).join_mask(0b11) is None


def brute_join(p, vmask: int):
    """The least upper bound of the elements in vmask, read off leq."""
    members = [i for i in range(p.n) if vmask >> i & 1]
    upper = [u for u in range(p.n) if all(p.leq[i, u] for i in members)]
    least = [u for u in upper if all(p.leq[u, v] for v in upper)]
    return least[0] if least else None


def test_join_mask_matches_definition():
    for p in all_posets(5):
        for vmask in range(1 << p.n):
            want = brute_join(p, vmask)
            assert p.join_mask(vmask) == want, (p, vmask)
            assert p.join_mask(vmask) == want  # from the memo


def test_join_mask_memo_is_bounded():
    a = antichain(12)
    p = Poset(a.elements, a.up_masks)  # a fresh memo
    masks = range(1 << p.n)
    assert len(masks) > cache.BOUND
    # twice, the second time from the top: masks past the bound are
    # computed afresh and must still be right
    for vmask in [*masks, *reversed(masks)]:
        want = vmask.bit_length() - 1 if vmask.bit_count() == 1 else None
        assert p.join_mask(vmask) == want
        assert len(p._joins) <= cache.BOUND
    assert len(p._joins) == cache.BOUND


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
