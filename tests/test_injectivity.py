import dataclasses
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from kaninj import (
    DomainMismatch,
    MapClass,
    MonotoneMap,
    NotComposable,
    NotInjectiveContext,
    NotMonotone,
    PostconditionFailed,
    SizeCapExceeded,
    all_posets,
    antichain,
    build_poset,
    chain,
    class_bottom,
    class_bottom_join,
    class_join,
    clear_caches,
    closure_check,
    cone_class,
    diamond,
    empty,
    enumerate_monotone,
    extend_along_unit,
    is_injective,
    is_injective_map,
    is_weakly_injective,
    join_map,
    mapping_cone,
    point,
    preserves_kan,
    reflect,
    standard_classes,
    strong_objects,
    two_cell_exists,
    vee,
    verdict,
)
from kaninj import cache, hom, injectivity
from kaninj.chain import _REFLECTIONS
from kaninj.hom import hom_poset, left_kan
from kaninj.injectivity import (
    _EXTENSIONS,
    _VERDICTS,
    _extensions,
    _report,
    _scan,
    _unpreserved,
)
from kaninj.poset import Poset, iter_monotone_assignments
from kaninj.verify import _cone_classes

from oracles import (
    brute_kan,
    brute_monotone,
    brute_preserves,
    brute_strong,
    brute_weak,
    restriction_adjoint,
)


def collapse_class():
    return MapClass("collapse", (MonotoneMap(chain(2), point(), [0, 0]),))


def test_object_verdicts_match_brute():
    classes = list(standard_classes()) + [collapse_class()]
    for klass in classes:
        for x in all_posets(3):
            rep = is_injective(x, klass)
            w = brute_weak(x, klass)
            s = brute_strong(x, klass)
            assert rep.weak == w, (klass.name, x.elements)
            assert rep.strong == s, (klass.name, x.elements)
            assert is_weakly_injective(x, klass).weak == w


def test_weak_and_strong_differ_along_collapse():
    # every poset extends along the collapse, but strictness forces
    # constant maps only; the 2-chain separates the notions
    rep = is_injective(chain(2), collapse_class())
    assert rep.weak and not rep.strong
    rep2 = is_injective(antichain(2), collapse_class())
    assert rep2.strong


def test_verdict_labels():
    assert is_injective(vee(), class_join()).verdict == "strong"
    assert is_injective(antichain(2), class_join()).verdict == "neither"
    assert is_injective(chain(2), collapse_class()).verdict == "weak"


def test_failures_carry_reasons():
    rep = is_injective(antichain(2), class_join())
    assert rep.failures
    assert any("extension" in r for _, _, r in rep.failures)


def test_map_verdicts_match_brute():
    shapes = [p for p in all_posets(3)]
    for klass in list(standard_classes()) + [collapse_class()]:
        for x in shapes:
            for y in shapes:
                for f in enumerate_monotone(x, y):
                    rep = is_injective_map(f, klass)
                    dw, cw = brute_weak(x, klass), brute_weak(y, klass)
                    ds, cs = brute_strong(x, klass), brute_strong(y, klass)
                    if not (dw and cw):
                        assert rep.verdict == "neither", (klass.name, f.assignment)
                        continue
                    pres = brute_preserves(tuple(f.assignment), x, y, klass)
                    if not pres:
                        assert rep.verdict == "neither", (klass.name, f.assignment)
                    elif ds and cs:
                        assert rep.verdict == "strong", (klass.name, f.assignment)
                    else:
                        assert rep.verdict == "weak", (klass.name, f.assignment)


def test_preserves_kan_matches_brute():
    checked = 0
    for klass in standard_classes():
        for h in klass.maps:
            along = MapClass("h", (h,))
            strong = [x for x in all_posets(3) if brute_strong(x, along)]
            for x in strong:
                for y in strong:
                    for p in enumerate_monotone(x, y):
                        want = brute_preserves(tuple(p.assignment), x, y, along)
                        assert preserves_kan(p, h) == want, (klass.name, p.assignment)
                        checked += 1
    assert checked > 100


def test_preserves_kan_names_the_weak_endpoint():
    with pytest.raises(NotInjectiveContext, match="^domain"):
        preserves_kan(MonotoneMap(antichain(2), point(), [0, 0]), join_map())
    with pytest.raises(NotInjectiveContext, match="^codomain"):
        preserves_kan(MonotoneMap(point(), antichain(2), [0]), join_map())


def _answer_with(monkeypatch, x, table):
    """Make the extension table of the poset object x be table."""
    build = injectivity._extensions
    monkeypatch.setattr(
        injectivity, "_extensions", lambda y, maps: table if y is x else build(y, maps)
    )


def test_table_not_into_the_domain_is_not_composable(monkeypatch):
    # a table into a relabelled 2-chain cannot be pushed along p
    p = MonotoneMap(chain(2), chain(3), [0, 2])
    klass = class_join()
    clear_caches()
    assert verdict(p.dom, klass) == verdict(p.cod, klass) == "strong"
    _answer_with(monkeypatch, p.dom, _extensions(chain(2, prefix="z"), klass.maps))
    with pytest.raises(NotComposable):
        preserves_kan(p, klass.maps[0])
    with pytest.raises(NotComposable):
        is_injective_map(p, klass)


def test_table_for_another_map_is_a_domain_mismatch(monkeypatch):
    # rows extending along the bottom map, checked against the join map
    p = MonotoneMap(chain(2), chain(3), [0, 2])
    klass = class_join()
    clear_caches()
    assert verdict(p.dom, klass) == verdict(p.cod, klass) == "strong"
    _answer_with(monkeypatch, p.dom, _extensions(chain(2), class_bottom().maps))
    with pytest.raises(DomainMismatch):
        preserves_kan(p, klass.maps[0])
    with pytest.raises(DomainMismatch):
        is_injective_map(p, klass)


def _weak_maps(klass):
    """Every map between posets with at most 3 elements that are at
    least weakly injective for the class."""
    weak = [x for x in all_posets(3) if brute_weak(x, klass)]
    return [p for x in weak for y in weak for p in enumerate_monotone(x, y)]


def test_unpreserved_rows_match_brute():
    rows = unpreserved = nonstrict = 0
    for klass in _cone_classes():
        for p in _weak_maps(klass):
            table = _extensions(p.dom, klass.maps)
            want = []
            for hi, f, *_ in table[2]:
                h = klass.maps[hi]
                _, ext, strict = brute_kan(f, h, p.dom)
                pushed = tuple(p.assignment[v] for v in f)
                _, pushed_ext, _ = brute_kan(pushed, h, p.cod)
                if tuple(p.assignment[v] for v in ext) != tuple(pushed_ext):
                    want.append((hi, f))
                rows += 1
                nonstrict += not strict
            got = list(_unpreserved(p, klass.maps, table))
            assert got == want, (klass.name, p)
            unpreserved += len(want)
    # both outcomes and non-strict extensions (the collapse class) occur
    assert 0 < unpreserved < rows
    assert nonstrict


def test_unpreserved_falls_back_to_left_kan(monkeypatch):
    cases = []
    for klass in _cone_classes():
        for p in _weak_maps(klass):
            table = _extensions(p.dom, klass.maps)
            cases.append((p, klass.maps, table, list(_unpreserved(p, klass.maps, table))))
    assert any(rows for *_, rows in cases)
    routes = Counter()
    least_extension = injectivity._least_extension

    def counted(*args):
        ext, route = least_extension(*args)
        routes[route] += 1
        return ext, route

    # with every join missing, each problem takes the value-set route
    monkeypatch.setattr(Poset, "join_mask", lambda self, vmask: None)
    monkeypatch.setattr(injectivity, "_least_extension", counted)
    for p, maps, table, rows in cases:
        assert list(_unpreserved(p, maps, table)) == rows
    assert routes == {"value_sets": sum(len(table[2]) for _, _, table, _ in cases)}


def test_map_verdict_decides_each_endpoint_once(monkeypatch):
    calls = []
    decide = injectivity._decide

    def counted(x, klass, *args, **kwargs):
        calls.append(x.key)
        return decide(x, klass, *args, **kwargs)

    monkeypatch.setattr(injectivity, "_decide", counted)
    clear_caches()
    p = MonotoneMap(vee(), chain(2), [0, 1, 1])
    for _ in range(2):
        assert is_injective_map(p, class_join()).strong
    assert sorted(calls) == sorted([vee().key, chain(2).key])


def test_cached_verdict_raises_on_cross_check_disagreement(monkeypatch):
    # with no left adjoint, the cross-check reads vee's strong verdict as wrong
    monkeypatch.setattr(injectivity, "_cross_check", lambda h, x, strong: False)
    clear_caches()
    with pytest.raises(PostconditionFailed):
        verdict(vee(), class_join())
    assert not len(_VERDICTS)  # the disagreeing report is not stored


def _shipped_and_cone_classes():
    return [c for k in standard_classes() for c in (k, cone_class(k))]


def test_cached_verdict_matches_the_public_report():
    routes = set()
    for klass in _shipped_and_cone_classes():
        for x in all_posets(4):
            rep = is_injective(x, klass)
            assert _report(x, klass) == dataclasses.replace(rep, witnesses=()), (klass.name, x)
            for decided in (rep, is_weakly_injective(x, klass)):
                for hi, f, res in decided.witnesses:
                    assert res == left_kan(f, klass.maps[hi]), (klass.name, x, f)
                    routes.add(res.method)
    # both of left_kan's routes are compared, method included
    assert routes == {"pointwise", "value_sets"}


def test_scan_raises_on_a_non_monotone_extension(monkeypatch):
    # an extension sending the top of vee below its atoms, as a wrong
    # join would, is caught on the cover pairs like left_kan's map
    monkeypatch.setattr(
        injectivity,
        "_least_extension",
        lambda t, vals, h, below: ([t.n - 1] * (len(below) - 1) + [0], "pointwise"),
    )
    clear_caches()
    for decide in (verdict, is_injective, is_weakly_injective):
        with pytest.raises(NotMonotone, match="not monotone on a <= top"):
            decide(chain(3), class_join())
    assert not len(_VERDICTS)


def _old_cross_check(x, klass, cap):
    """The cross-check from full hom-sets under a budget of 50 * cap
    nodes, skipping h when either has more than cap maps; held along h
    from the brute-force oracle."""
    cross = None
    for h in klass.maps:
        try:
            hb = list(iter_monotone_assignments(h.cod, x, cap=50 * cap))
            ha = list(iter_monotone_assignments(h.dom, x, cap=50 * cap))
        except SizeCapExceeded:
            continue
        if len(hb) > cap or len(ha) > cap:
            continue
        agree = restriction_adjoint(h, x, hb, ha, True) == brute_strong(x, MapClass("h", (h,)))
        cross = agree if cross is None else (cross and agree)
    return cross


def test_cross_check_stops_at_its_cap(monkeypatch):
    cap = 4
    monkeypatch.setattr(injectivity, "CROSS_CHECK_CAP", cap)
    cases = [(x, k) for k in _shipped_and_cone_classes() for x in all_posets(3)]
    clear_caches()
    want = [_old_cross_check(x, k, cap) for x, k in cases]
    sizes = {}
    for x, klass in cases:
        for h in klass.maps:
            for a in (h.dom, h.cod):
                try:
                    sizes[a.key, x.key] = len(list(iter_monotone_assignments(a, x, cap=50 * cap)))
                except SizeCapExceeded:
                    sizes[a.key, x.key] = None
    assert None in want and True in want
    assert any(n is not None and n > cap for n in sizes.values())

    taken = []
    enumerate_all = hom.iter_monotone_assignments

    def spy(a, x, cap=None):
        taken.append([(a.key, x.key), 0])
        for t in enumerate_all(a, x, cap=cap):
            taken[-1][1] += 1
            yield t

    clear_caches()
    monkeypatch.setattr(hom, "iter_monotone_assignments", spy)
    assert [is_injective(x, k).cross_check for x, k in cases] == want
    # each hom-set is enumerated once, and never past the map after the cap
    assert len({key for key, _ in taken}) == len(taken)
    for key, n in taken:
        if sizes[key] is None or sizes[key] > cap:
            assert n <= cap + 1, key
        else:
            assert n == sizes[key], key
    assert any(n == cap + 1 for _, n in taken)

    # the outcome, hom-poset or too large, is kept with the hom-posets
    seen = len(taken)
    _VERDICTS.clear()
    for x, klass in cases:
        copy = Poset(list(x.elements), list(x.up_masks))
        assert verdict(copy, klass) == verdict(x, klass)
    assert len(taken) == seen


def _adjoint_of_restriction(h, x, strong):
    """The cross-check along h by the full hom-posets, None when either
    has more than CROSS_CHECK_CAP maps."""
    hb, ha = hom_poset(h.cod, x), hom_poset(h.dom, x)
    if max(len(hb), len(ha)) > injectivity.CROSS_CHECK_CAP:
        return None
    return restriction_adjoint(h, x, hb, ha, strong)


def _check_cross_check(h, x, seen):
    """_cross_check along h into x, strong and weak, against the
    hom-posets; records the pair of answers in seen."""
    got = tuple(injectivity._cross_check(h, x, strong) for strong in (True, False))
    want = tuple(_adjoint_of_restriction(h, x, strong) for strong in (True, False))
    assert got == want, (h, x.elements)
    seen.add(want)


def test_cross_check_matches_the_restriction_adjoint():
    seen = set()
    classes = _shipped_and_cone_classes() + [collapse_class()]
    for klass in classes:
        for x in all_posets(3):
            for h in klass.maps:
                _check_cross_check(h, x, seen)
    # the empty poset as x and as dom h, and an empty hom(dom h, x)
    into_point = MonotoneMap(empty(), point(), [])
    for h in (into_point, MonotoneMap.identity(empty()), class_join().maps[0]):
        for x in (empty(), point(), antichain(2), vee()):
            _check_cross_check(h, x, seen)
    assert injectivity._cross_check(class_join().maps[0], empty(), True) is True
    assert injectivity._cross_check(into_point, empty(), False) is False
    # no adjoint, an adjoint but no rali, and a rali
    assert seen == {(False, False), (False, True), (True, True)}


@st.composite
def _posets(draw, most=5):
    n = draw(st.integers(0, most))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i, j in combinations(range(n), 2) if draw(st.booleans())]
    return build_poset(names, pairs)


@st.composite
def _restrictions(draw):
    """A random monotone h between posets of at most 5 elements, and a
    poset x of at most 5."""
    dom, cod = draw(_posets()), draw(_posets())
    maps = enumerate_monotone(dom, cod)
    assume(maps)
    return draw(st.sampled_from(maps)), draw(_posets())


@settings(max_examples=300, deadline=None)
@given(_restrictions())
def test_cross_check_matches_the_restriction_adjoint_on_random_posets(case):
    h, x = case
    _check_cross_check(h, x, set())


def test_mapping_cone_shape_for_join():
    h = class_join().maps[0]
    c, i, j, rho = mapping_cone(h)
    assert c.n == h.dom.n + h.cod.n
    assert rho.src == i
    assert rho.tgt == h.then(j)
    assert two_cell_exists(i, h.then(j))


def test_cone_trick_objects_small():
    for klass in standard_classes():
        cone = cone_class(klass)
        for x in all_posets(3):
            assert brute_weak(x, klass) == is_injective(x, cone).strong


def test_cone_class_names_and_arity():
    cone = cone_class(class_bottom_join())
    assert len(cone.maps) == 2
    assert cone.name.startswith("cone(")


def test_strong_objects_counts():
    # strong for bottom = has a least element
    bots = strong_objects(3, class_bottom())
    assert all(any(all(p.leq[b, k] for k in range(p.n)) for b in range(p.n)) for p in bots)
    assert all(brute_strong(p, class_bottom()) for p in bots)
    # every class member is found: compare against brute filter
    expect = sum(1 for p in all_posets(3) if brute_strong(p, class_bottom()))
    assert len(bots) == expect


def test_adjoint_cross_check_populated():
    rep = is_injective(vee(), class_join())
    assert rep.cross_check is True
    for klass in list(standard_classes()) + [collapse_class()]:
        for x in all_posets(4):
            assert is_injective(x, klass).cross_check is True, (klass.name, x.elements)
            assert is_weakly_injective(x, klass).cross_check is True, (klass.name, x.elements)


def test_verdict_matches_is_injective():
    classes = list(standard_classes()) + [collapse_class()]
    classes += [cone_class(k) for k in classes]
    clear_caches()
    for klass in classes:
        for x in all_posets(4):
            want = is_injective(x, klass).verdict
            assert verdict(x, klass) == want, (klass.name, x.elements)
            assert verdict(x, klass) == want  # answered from the cache


def test_verdict_cache_honours_a_later_cap(monkeypatch):
    assert verdict(chain(3), class_join()) == "strong"
    entries = len(_VERDICTS)
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded):
        verdict(chain(3), class_join())
    assert len(_VERDICTS) == entries  # a raised search stores nothing


def test_verdict_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(cache, "BOUND", 3)
    clear_caches()
    for x in all_posets(3):
        assert verdict(x, class_join()) == is_injective(x, class_join()).verdict
        assert len(_VERDICTS) <= 3
    # evicted entries are decided again, with the same answer
    assert verdict(point(), class_join()) == "strong"
    assert len(_VERDICTS) == 3


def _scanned(x, maps):
    """The extension table of x along maps, scanned afresh."""
    return x.key, tuple(h.key() for h in maps), tuple(_scan(x, maps))


def test_extension_tables_are_shared_but_verdicts_decide_afresh(monkeypatch):
    klass = class_join()
    clear_caches()
    assert is_injective(vee(), klass).strong and is_weakly_injective(vee(), klass).weak
    assert verdict(vee(), klass) == "strong"
    assert not len(_EXTENSIONS)  # the verdicts build tables of their own
    table = _extensions(vee(), klass.maps)
    assert table == _scanned(vee(), klass.maps)
    assert _extensions(vee(), klass.maps) is table
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded):
        _extensions(vee(), klass.maps)
    assert len(_EXTENSIONS) == 1  # a raised search stores nothing


def test_reflection_and_extension_caches_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(cache, "BOUND", 3)
    klass = class_join()
    clear_caches()
    first = reflect(point(), klass)
    for x in all_posets(3):
        r = reflect(x, klass)
        assert reflect(x, klass) is r
        assert _extensions(x, klass.maps) == _scanned(x, klass.maps)
        assert len(_REFLECTIONS) <= 3 and len(_EXTENSIONS) <= 3
    # evicted entries are computed again, with the same answer
    again = reflect(point(), klass)
    assert again is not first and again == first
    assert len(_REFLECTIONS) == 3


def test_clear_caches_empties_every_cache():
    x = antichain(2)
    klass = class_join()
    r = reflect(x, klass)
    extend_along_unit(MonotoneMap(x, vee(), [0, 1]), r, klass)
    closure_check(join_map(), klass, all_posets(2))
    assert len(_REFLECTIONS) and len(_EXTENSIONS)
    assert all(len(table) for table in cache._TABLES)
    clear_caches()
    assert not len(_REFLECTIONS) and not len(_EXTENSIONS)
    assert not any(len(table) for table in cache._TABLES)
