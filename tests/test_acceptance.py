"""Contract-level acceptance runs, one test per criterion.

Criteria 1 through 5 share one computation pass (the module fixture),
executed under colimit recording so criterion 6 can audit every
construction they triggered.  Each test emits a single
"criterion k: PASS" or "criterion k: FAIL" line; run with -s to see
them stream.

The oracle side never calls the library's search or formula paths: maps
are enumerated by full product scan, least extensions by candidate
filtering, strength by definition.  Shared caches keyed by the exact
poset encodings keep the quantifier ranges affordable.
"""

import random
import time

import pytest

from kaninj import (
    MonotoneMap,
    SUITES,
    SaturationWitness,
    TwoCell,
    all_posets,
    antichain,
    build_poset,
    chain,
    chain_colimit,
    class_bottom,
    class_bottom_join,
    class_join,
    closure_check,
    coequinserter,
    coinserter,
    cone_class,
    dumps,
    empty,
    extend_along_unit,
    is_injective,
    is_injective_map,
    is_weakly_injective,
    kz_laws,
    point,
    record_colimits,
    reflect,
    run_suite,
    standard_classes,
    strong_objects,
    two_cell_exists,
    vee,
    verify_universal,
)
from oracles import brute_iso, brute_monotone, oracle_least_strict

CORPUS = all_posets(4)


def _diamond():
    return build_poset(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def goldens():
    return [
        (chain(2), class_bottom(), chain(3)),
        (antichain(2), class_join(), vee()),
        (antichain(2), class_bottom_join(), _diamond()),
    ]


# -- cached brute helpers -----------------------------------------------------

_MONO = {}


def mono(dom, cod):
    k = (dom.key, cod.key)
    if k not in _MONO:
        _MONO[k] = brute_monotone(dom, cod)
    return _MONO[k]


_RANK = {}


def _ranks(x):
    """A linear extension of x as value ranks; a pointwise-least
    assignment, when one exists, is lex-least under it."""
    if x.key not in _RANK:
        order = sorted(range(x.n), key=lambda i: (int(x.leq[:, i].sum()), i))
        rank = [0] * x.n
        for pos, i in enumerate(order):
            rank[i] = pos
        _RANK[x.key] = rank
    return _RANK[x.key]


_KAN = {}


def kan(f_vals, h, x):
    """Least g with f <= g∘h in x, or None; cached per exact instance."""
    k = (x.key, h.key(), tuple(f_vals))
    if k in _KAN:
        return _KAN[k]
    cands = [
        g
        for g in mono(h.cod, x)
        if all(x.leq[f_vals[a], g[h.assignment[a]]] for a in range(h.dom.n))
    ]
    least = None
    if cands:
        rank = _ranks(x)
        best = min(cands, key=lambda g: tuple(rank[v] for v in g))
        if all(
            all(x.leq[best[i], g[i]] for i in range(h.cod.n)) for g in cands
        ):
            least = best
    _KAN[k] = least
    return least


def strong_by_definition(x, klass):
    for h in klass:
        for f in mono(h.dom, x):
            g = kan(f, h, x)
            if g is None:
                return False
            if any(g[h.assignment[a]] != f[a] for a in range(h.dom.n)):
                return False
    return True


_PRES = {}


def preserving(a, b, klass):
    """All monotone a -> b sending least extensions to least extensions."""
    k = (a.key, b.key, klass.name)
    if k in _PRES:
        return _PRES[k]
    out = []
    for q in mono(a, b):
        ok = True
        for h in klass:
            for f in mono(h.dom, a):
                e = kan(f, h, a)
                if e is None:
                    continue
                pushed = kan(tuple(q[v] for v in f), h, b)
                if pushed is None or tuple(q[v] for v in e) != pushed:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(q)
    _PRES[k] = out
    return out


def generated_set(img, klass, a):
    """Closure of img under taking least-extension values inside a."""
    s = set(img)
    changed = True
    while changed:
        changed = False
        for h in klass:
            for f in mono(h.dom, a):
                if not set(f) <= s:
                    continue
                g = kan(f, h, a)
                if g is not None and not set(g) <= s:
                    s |= set(g)
                    changed = True
    return s


def reflection_satisfiers(x, klass, strongs):
    """Every (a, d) presenting a reflection of x among the given strong
    posets: d generates a, and precomposition with d is a bijection from
    extension-preserving maps a -> b onto all maps x -> b, for every
    strong b in the sample."""
    out = []
    for a in strongs:
        for d in mono(x, a):
            if generated_set(set(d), klass, a) != set(range(a.n)):
                continue
            if all(_bijective_over(x, a, d, klass, b) for b in strongs):
                out.append((a, d))
    return out


def _bijective_over(x, a, d, klass, b):
    counts = {p: 0 for p in mono(x, b)}
    for q in preserving(a, b, klass):
        counts[tuple(q[d[i]] for i in range(x.n))] += 1
    return all(c == 1 for c in counts.values())


def factors_through(small, f_vals, inj):
    """Monotone m: small -> dom(inj) with inj∘m == f, by backtracking
    over the preimage choices."""
    pre = [
        [z for z in range(inj.dom.n) if inj.assignment[z] == f_vals[i]]
        for i in range(small.n)
    ]
    if any(not p for p in pre):
        return False
    assign = [0] * small.n

    def rec(k):
        if k == small.n:
            return True
        for v in pre[k]:
            ok = True
            for j in range(k):
                if small.leq[j, k] and not inj.dom.leq[assign[j], v]:
                    ok = False
                    break
                if small.leq[k, j] and not inj.dom.leq[v, assign[j]]:
                    ok = False
                    break
            if ok:
                assign[k] = v
                if rec(k + 1):
                    return True
        return False

    return rec(0)


# -- shared computation pass --------------------------------------------------


class World:
    pass


@pytest.fixture(scope="module")
def world():
    w = World()
    w.reflects = {}
    w.c1_failures = []
    w.c3_reports = {}
    w.c4_failures = []
    w.c4_maps_checked = 0
    w.c5_rows = []

    with record_colimits() as bucket:
        t0 = time.time()
        for klass in standard_classes():
            strong5 = [p for p in all_posets(5) if strong_by_definition(p, klass)]
            lib5 = strong_objects(5, klass)
            if [p.key for p in strong5] != [p.key for p in lib5]:
                w.c1_failures.append((klass.name, "strong target sets disagree"))
            for x in CORPUS:
                r = reflect(x, klass)
                w.reflects[x.key, klass.name] = r
                if not (r.converged and r.stages_used <= 16):
                    w.c1_failures.append((klass.name, x.elements, "no convergence"))
                    continue
                if not strong_by_definition(r.reflected, klass):
                    w.c1_failures.append((klass.name, x.elements, "result not strong"))
                    continue
                unit = r.unit.assignment
                if len(set(unit)) != x.n:
                    w.c1_failures.append((klass.name, x.elements, "unit not injective"))
                    continue
                for tgt in strong5:
                    for p_vals in mono(x, tgt):
                        p = MonotoneMap(x, tgt, list(p_vals))
                        got = extend_along_unit(p, r, klass)
                        pins = {unit[i]: p_vals[i] for i in range(x.n)}
                        want = oracle_least_strict(r.reflected, tgt, pins)
                        if want is None or tuple(got.assignment) != want:
                            w.c1_failures.append(
                                (klass.name, x.elements, tgt.elements, p_vals)
                            )
                        elif r.unit.then(got) != p:
                            w.c1_failures.append(
                                (klass.name, x.elements, tgt.elements, p_vals, "loose")
                            )
        w.c1_elapsed = time.time() - t0

        for klass in standard_classes():
            for x in CORPUS:
                w.c3_reports[x.key, klass.name] = kz_laws(x, klass)

        for klass in standard_classes():
            cones = cone_class(klass)
            for x in CORPUS:
                if is_weakly_injective(x, klass).weak != is_injective(x, cones).strong:
                    w.c4_failures.append((klass.name, x.elements))
            for x in CORPUS:
                for y in CORPUS:
                    for p_vals in mono(x, y):
                        p = MonotoneMap(x, y, list(p_vals))
                        weak_h = is_injective_map(p, klass).verdict != "neither"
                        strong_cone = is_injective_map(p, cones).verdict == "strong"
                        w.c4_maps_checked += 1
                        if weak_h != strong_cone:
                            w.c4_failures.append(
                                (klass.name, x.elements, y.elements, p_vals)
                            )

        from kaninj import witness_menu

        for klass in standard_classes():
            for wit in witness_menu(klass):
                w.c5_rows.append(
                    (klass.name, wit.recipe, closure_check(wit, klass, CORPUS))
                )

    w.bucket = list(bucket)
    return w


def _announce(k, body):
    try:
        body()
    except BaseException:
        print(f"criterion {k}: FAIL", flush=True)
        raise
    print(f"criterion {k}: PASS", flush=True)


def test_criterion_1(world):
    def body():
        assert world.c1_failures == []
        assert world.c1_elapsed < 300
        assert len(world.reflects) == len(CORPUS) * 3

    _announce(1, body)


def test_criterion_2():
    def body():
        for x, klass, expect in goldens():
            strongs = [p for p in all_posets(6) if strong_by_definition(p, klass)]
            sats = reflection_satisfiers(x, klass, strongs)
            assert sats, klass.name
            assert all(brute_iso(a, expect) for a, _ in sats), klass.name
            r = reflect(x, klass)
            assert brute_iso(r.reflected, expect), klass.name
            matched = any(
                a.n == r.reflected.n
                and any(
                    all(perm[r.unit.assignment[i]] == d[i] for i in range(x.n))
                    for perm in _iso_maps(r.reflected, a)
                )
                for a, d in sats
            )
            assert matched, klass.name

    _announce(2, body)


def _iso_maps(p, q):
    import itertools

    if p.n != q.n:
        return []
    out = []
    for perm in itertools.permutations(range(q.n)):
        if all(
            bool(p.leq[i, j]) == bool(q.leq[perm[i], perm[j]])
            for i in range(p.n)
            for j in range(p.n)
        ):
            out.append(perm)
    return out


def test_criterion_3(world):
    def body():
        assert len(world.c3_reports) == len(CORPUS) * 3
        for (xk, kname), rep in world.c3_reports.items():
            assert rep.unit_dense, kname
            assert rep.restriction_identity, kname
            assert rep.algebra_equivalence, kname
            assert rep.ok, kname

    _announce(3, body)


def test_criterion_4(world):
    def body():
        assert world.c4_failures == []
        assert world.c4_maps_checked == 19727 * 3

    _announce(4, body)


def test_criterion_5(world):
    def body():
        assert world.c5_rows and all(ok for _, _, ok in world.c5_rows)
        fake = SaturationWitness(MonotoneMap(chain(2), point(), [0, 0]), "assumed")
        for klass in standard_classes():
            assert not closure_check(fake, klass, CORPUS)

    _announce(5, body)


def test_criterion_6(world):
    def body():
        seen = {}
        for res in world.bucket:
            key = (res.kind, res.gen_labels, res.gen_pairs, res.object.key)
            seen.setdefault(key, res)
        assert seen
        for res in seen.values():
            rep = verify_universal(res)
            assert rep.ok, (res.kind, res.object.n, rep.failure)

        rng = random.Random(20260819)
        corpus3 = [p for p in all_posets(3) if p.n >= 1]
        made = 0
        while made < 200:
            a = rng.choice(corpus3)
            b = rng.choice(corpus3)
            maps = mono(a, b)
            if not maps:
                continue
            f = MonotoneMap(a, b, list(rng.choice(maps)))
            g = MonotoneMap(a, b, list(rng.choice(maps)))
            if two_cell_exists(f, g):
                h = MonotoneMap.identity(a)
            else:
                h = MonotoneMap(empty(), a, [])
            gamma = TwoCell(h.then(f), h.then(g))
            eq = coequinserter(h, f, g, gamma)
            co = coinserter(f, g)
            assert eq.object == co.object
            assert eq.injections == co.injections
            assert eq.gen_pairs == co.gen_pairs
            assert eq.collapse == co.collapse
            assert eq.two_cell == co.two_cell
            made += 1
        assert made == 200

    _announce(6, body)


def test_criterion_7(world):
    def body():
        chains = [r for r in world.bucket if r.kind == "chain"]
        for x, klass, _ in goldens():
            r = reflect(x, klass)
            for k in range(1, len(r.trace.stages) + 1):
                chains.append(
                    chain_colimit(r.trace.stages[:k], r.trace.connectors[: k - 1])
                )
            trunc = reflect(x, klass, max_steps=2)
            if trunc.omega is not None:
                chains.append(trunc.omega)
        trunc = reflect(antichain(3), class_join(), max_steps=2)
        assert trunc.omega is not None
        chains.append(trunc.omega)
        full = reflect(antichain(3), class_join())
        chains.append(chain_colimit(full.trace.stages, full.trace.connectors))
        assert len(chains) >= 8

        for cc in chains:
            assert verify_universal(cc).ok
            for small in CORPUS:
                for f_vals in mono(small, cc.object):
                    assert any(
                        factors_through(small, f_vals, inj)
                        for inj in cc.injections
                    ), (small.elements, f_vals, cc.object.elements)

    _announce(7, body)


def test_criterion_8(world):
    def body():
        def full_suite():
            return [dumps(run_suite(name, size=3).to_json()) for name in sorted(SUITES)]

        first = full_suite()
        second = full_suite()
        assert first == second
        assert all(isinstance(s, str) and s.endswith("\n") for s in first)

    _announce(8, body)
