import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from kaninj import (
    DomainMismatch,
    MapClass,
    MonotoneMap,
    NotMonotone,
    PostconditionFailed,
    SizeCapExceeded,
    all_posets,
    antichain,
    bottom_map,
    build_poset,
    chain,
    class_bottom,
    class_bottom_join,
    class_join,
    clear_caches,
    diamond,
    dumps,
    enumerate_monotone,
    extend_along_unit,
    init_chain,
    is_dense,
    is_injective,
    join_map,
    kz_laws,
    left_kan,
    map_to_json,
    poset_to_json,
    record_colimits,
    reflect,
    standard_classes,
    step_even,
    step_odd,
    strong_objects,
    vee,
    verdict,
)

from kaninj.chain import _REFLECTIONS
from kaninj.poset import Poset

from oracles import brute_iso, closed_form_failure, oracle_least_strict


def dsb():
    """Diamond without its bottom: a, b < t < top."""
    return build_poset(["a", "b", "t", "top"], [("a", "t"), ("b", "t"), ("t", "top")])


def test_golden_bottom_completion():
    r = reflect(chain(2), class_bottom())
    assert r.converged
    assert brute_iso(r.reflected, chain(3))
    # the unit lands above the adjoined bottom
    assert is_dense(r.unit)


def test_golden_join_completion():
    r = reflect(antichain(2), class_join())
    assert r.converged
    assert brute_iso(r.reflected, vee())


def test_golden_bottom_join_completion():
    r = reflect(antichain(2), class_bottom_join())
    assert r.converged
    assert brute_iso(r.reflected, build_poset(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    ))


def test_algebra_reflects_to_free_algebra():
    # V is already strong for joins, yet the reflection freely adds a
    # join below the existing top; the unit is not an isomorphism
    r = reflect(vee(), class_join())
    assert r.converged
    assert brute_iso(r.reflected, dsb())
    assert not r.unit.is_order_iso()


def test_fixed_point_converges_immediately():
    r = reflect(chain(3), class_join())
    assert r.converged and r.stages_used == 0
    assert r.unit.is_order_iso()


def test_reflection_matches_the_closed_form():
    # the free completion for each shipped class is a family of
    # down-sets under inclusion, read through the unit
    cases = [(x, k) for x in all_posets(5) for k in standard_classes()]
    assert len(cases) == 264
    for x, klass in cases:
        r = reflect(x, klass)
        assert r.converged
        assert closed_form_failure(x, klass.name, r) is None, (x.elements, klass.name)


def test_free_join_semilattice_on_three():
    # nonempty subsets of a 3-element set under union
    r = reflect(antichain(3), class_join())
    assert r.converged and r.reflected.n == 7
    labels = ["".join(s) for k in range(1, 4) for s in itertools.combinations("abc", k)]
    rels = []
    for s in labels:
        for t in labels:
            if set(s) <= set(t) and s != t:
                rels.append((s, t))
    assert brute_iso(r.reflected, build_poset(labels, rels))


def test_free_powerset_on_three():
    r = reflect(antichain(3), class_bottom_join())
    assert r.converged and r.reflected.n == 8


def test_non_convergence_returns_prefix():
    r = reflect(antichain(2), class_join(), max_steps=2)
    assert not r.converged
    assert r.omega is not None
    assert r.omega.kind == "chain"
    assert r.reflected.n == r.omega.object.n


def test_step_parity_guards():
    st = init_chain(antichain(2))
    with pytest.raises(ValueError):
        step_even(st, class_join())
    st1 = step_odd(st, class_join())
    with pytest.raises(ValueError):
        step_odd(st1, class_join())


def test_no_spans_gives_identity_stage():
    st = init_chain(chain(2))
    st1 = step_odd(st, class_bottom())
    st2 = step_even(st1, class_bottom())
    st3 = step_odd(st2, class_bottom())
    # the bottom witness was minted once; nothing new afterwards
    assert st3.stages[3].n == st3.stages[2].n
    assert st3.connectors[2].is_order_iso()


def test_extend_along_unit_matches_oracle_slice():
    klass = class_join()
    x = antichain(2)
    res = reflect(x, klass)
    for p_target in strong_objects(4, klass):
        for p in enumerate_monotone(x, p_target):
            pins = {
                res.unit.assignment[i]: p.assignment[i] for i in range(x.n)
            }
            want = oracle_least_strict(res.reflected, p_target, pins)
            got = extend_along_unit(p, res, klass)
            assert want is not None
            assert tuple(got.assignment) == want
            # strictness: the extension restricts back to p on the nose
            assert res.unit.then(got) == p


def _lattices():
    """Finite lattices, strong for every shipped class: the powerset of
    3, the diamond, a 4-chain and the pentagon N5."""
    powerset = build_poset(
        ["0", "a", "b", "c", "ab", "ac", "bc", "abc"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("a", "ac"), ("b", "ab"),
         ("b", "bc"), ("c", "ac"), ("c", "bc"), ("ab", "abc"), ("ac", "abc"), ("bc", "abc")],
    )
    pentagon = build_poset(
        ["0", "x", "y", "z", "1"], [("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"), ("z", "1")]
    )
    return [powerset, diamond(), chain(4), pentagon]


def _join(t, elems):
    """The join in t of elems, the least element of t for none, from the
    order matrix."""
    upper = [u for u in range(t.n) if all(t.leq[e, u] for e in elems)]
    least = [u for u in upper if all(t.leq[u, v] for v in upper)]
    assert len(least) == 1, (t.elements, elems)
    return least[0]


@pytest.mark.parametrize("n", [5, 6])
def test_extend_along_unit_matches_the_closed_form(n):
    # for a unit d that is an order-embedding, the least extension of p
    # along d is ext(s) = join of p(i) over the i with d(i) <= s: the
    # pointwise left Kan extension of the KZ down-set monad
    x = antichain(n)
    rng = random.Random(n)
    checked = 0
    for klass in standard_classes():
        r = reflect(x, klass)
        d, top = r.unit.assignment, r.reflected
        assert all(top.leq[d[i], d[j]] == x.leq[i, j] for i in range(n) for j in range(n))
        for t in _lattices():
            assert verdict(t, klass) == "strong", (klass.name, t.elements)
            for _ in range(20):
                p = MonotoneMap(x, t, [rng.randrange(t.n) for _ in range(n)])
                want = tuple(
                    _join(t, [p.assignment[i] for i in range(n) if top.leq[d[i], s]])
                    for s in range(top.n)
                )
                assert extend_along_unit(p, r, klass).assignment == want, (klass.name, p)
                checked += 1
    assert checked == 3 * 4 * 20


def _swapped_join() -> MapClass:
    """The join map with its two legs swapped: the same dom and cod."""
    v = vee()
    return MapClass("swap", (MonotoneMap(antichain(2), v, [v.index["b"], v.index["a"]]),))


@pytest.mark.parametrize(
    "built, used",
    [
        (class_bottom_join(), class_join()),
        (class_join(), class_bottom()),
        (class_bottom_join(), class_bottom()),
        (class_join(), _swapped_join()),
    ],
    ids=lambda k: k.name,
)
def test_extend_with_another_class_is_a_domain_mismatch(built, used):
    x = antichain(2)
    r = reflect(x, built)
    p = MonotoneMap(x, chain(2), [0, 1])
    with pytest.raises(DomainMismatch, match="does not match the reflection"):
        extend_along_unit(p, r, used)


def test_extend_with_more_maps_than_the_reflection_used():
    # only the map at each span's index is compared: a target strong for
    # the join and the bottom map is strong for the join alone
    x = antichain(2)
    r = reflect(x, class_join())
    p = MonotoneMap(x, chain(2), [0, 1])
    more = MapClass("join+bottom", (join_map(), bottom_map()))
    got = extend_along_unit(p, r, more)
    assert got == extend_along_unit(p, r, class_join())
    assert got == left_kan(p, r.unit).extension


def _extension_cases() -> list:
    """(p, reflection, class) for every map from a poset of all_posets(3)
    into a strong target of strong_objects(4, class), for each shipped
    class."""
    cases = []
    for klass in standard_classes():
        targets = strong_objects(4, klass)
        for x in all_posets(3):
            r = reflect(x, klass)
            for tgt in targets:
                cases.extend((p, r, klass) for p in enumerate_monotone(x, tgt))
    return cases


def _extend_all(cases) -> list:
    return [dumps(map_to_json(extend_along_unit(p, r, k))) for p, r, k in cases]


def _counting_replays(monkeypatch) -> list:
    """Spy on the stagewise replay; one entry per call that fell back."""
    chain_mod = sys.modules["kaninj.chain"]
    replay = chain_mod._replay
    calls = []

    def counted(*args):
        calls.append(args[0])
        return replay(*args)

    monkeypatch.setattr(chain_mod, "_replay", counted)
    return calls


def test_support_route_matches_the_replay(monkeypatch):
    # the support route answers every shipped case without falling back,
    # with the bytes of the replay; with the support joins forced
    # missing, every call falls back and gives the same bytes again
    clear_caches()
    cases = _extension_cases()
    chain_mod = sys.modules["kaninj.chain"]
    replays = _counting_replays(monkeypatch)
    supported = _extend_all(cases)
    assert not replays
    results = {id(r): r for _, r, _ in cases}
    plans = {i: dict(r.plans) for i, r in results.items()}
    assert all(len(entries) == 1 for entries in plans.values())

    with monkeypatch.context() as m:
        m.setattr(chain_mod, "_support_joins", lambda *args: None)
        assert _extend_all(cases) == supported
    assert len(replays) == len(cases)

    replays.clear()
    support_joins = chain_mod._support_joins

    def without_joins(*args):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Poset, "join_mask", lambda self, vmask: None)
            return support_joins(*args)

    monkeypatch.setattr(chain_mod, "_support_joins", without_joins)
    assert _extend_all(cases) == supported
    # a plan with no support at all (the empty poset, reflected along
    # the join map) takes no join, so only those calls keep the route
    assert len(replays) == sum(1 for _, r, _ in cases if r.reflected.n)
    # later calls on the same reflection and class reuse the plan entry
    for i, r in results.items():
        assert r.plans.keys() == plans[i].keys()
        assert all(r.plans[key] is plan for key, plan in plans[i].items())


@pytest.mark.parametrize(
    "mask, kind", [(0b011, "equal"), (0b001, "ordered")], ids=["equal", "ordered"]
)
def test_a_corrupted_support_falls_back_to_the_replay(monkeypatch, mask, kind):
    # x = {a < b, c} along the join map, p = (0, 0, 1) into chain(2): the
    # support {c} joins to 1 and {a, b} to 0.  Putting {c} in place of
    # {a, b} breaks the pair {b} = {a, b} only, in place of {a} the pair
    # {a} <= {b} only; either way the call must fall back to the replay
    x = build_poset(["a", "b", "c"], [("a", "b")])
    klass = class_join()
    r = reflect(x, klass)
    p = MonotoneMap(x, chain(2), [0, 0, 1])
    want = left_kan(p, r.unit).extension
    assert extend_along_unit(p, r, klass) == want
    key = tuple(h.key() for h in klass.maps)
    steps, supports = r.plans[key]
    masks = list(supports.masks)
    s = masks.index(mask)
    other = "ordered" if kind == "equal" else "equal"
    assert any(s in pair for pair in getattr(supports, kind))
    assert not any(s in pair for pair in getattr(supports, other))
    masks[s] = 0b100
    monkeypatch.setitem(r.plans, key, (steps, supports._replace(masks=tuple(masks))))
    replays = _counting_replays(monkeypatch)
    assert extend_along_unit(p, r, klass) == want
    assert len(replays) == 1


def test_extend_fallback_to_left_kan_agrees_with_the_joins(monkeypatch):
    # No shipped class ever misses a join, so force every call onto the
    # replay and every span onto the left_kan fallback and compare the
    # extensions byte for byte.
    cases = _extension_cases()
    joined = _extend_all(cases)
    chain_mod = sys.modules["kaninj.chain"]
    monkeypatch.setattr(chain_mod, "_support_joins", lambda *args: None)
    least_extension = chain_mod._least_extension
    routes = []

    def without_joins(*args):
        # every join missing for the replay only; the direct left_kan of
        # the postcondition keeps its joins
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Poset, "join_mask", lambda self, vmask: None)
            ext, route = least_extension(*args)
        routes.append(route)
        return ext, route

    monkeypatch.setattr(chain_mod, "_least_extension", without_joins)
    assert _extend_all(cases) == joined
    assert routes and set(routes) == {"value_sets"}


def test_extend_checks_each_stage_is_monotone(monkeypatch):
    # a wrong extension that restricts back to f but sends the one point
    # outside h's image to f's first value, below the other: the replay's
    # own check is the first to see it, before any quotient or postcondition
    def below_the_image(target, vals, h, below):
        ext = [vals[0]] * h.cod.n
        for a, b in enumerate(h.assignment):
            ext[b] = vals[a]
        return ext, "pointwise"

    chain_mod = sys.modules["kaninj.chain"]
    monkeypatch.setattr(chain_mod, "_support_joins", lambda *args: None)
    monkeypatch.setattr(chain_mod, "_least_extension", below_the_image)
    x = antichain(2)
    r = reflect(x, class_join())
    with pytest.raises(NotMonotone, match=r"^map is not monotone on s1x0000 <= s1x0004$"):
        extend_along_unit(MonotoneMap(x, vee(), [0, 1]), r, class_join())


def test_kz_laws_on_goldens():
    for x, klass in [
        (chain(2), class_bottom()),
        (antichain(2), class_join()),
        (antichain(2), class_bottom_join()),
        (vee(), class_join()),
        (chain(3), class_join()),
    ]:
        rep = kz_laws(x, klass)
        assert rep.unit_dense
        assert rep.restriction_identity
        assert rep.algebra_equivalence
        assert rep.ok


def test_kz_algebra_strong_field_tracks_strength():
    assert kz_laws(vee(), class_join()).algebra_strong
    assert not kz_laws(antichain(2), class_join()).algebra_strong


def test_kz_free_algebra_law_skipped_when_large():
    rep = kz_laws(antichain(3), class_join(), free_cap=0)
    assert rep.free_algebra is None
    assert rep.ok


def test_reflection_result_is_strong_and_dense():
    for klass in [class_bottom(), class_join(), class_bottom_join()]:
        r = reflect(antichain(2), klass)
        assert is_injective(r.reflected, klass).strong
        assert is_dense(r.unit)


def test_registry_dedup_regression():
    # the same span must not be minted twice across stages; if it were,
    # stage sizes would grow between rounds instead of stabilizing
    r = reflect(antichain(3), class_join())
    even = [s.n for s in r.trace.stages[::2]]
    assert even[-1] == even[-2] == 7


_FORCED_FAILURES = """
import sys
import kaninj
from kaninj import MonotoneMap, PostconditionFailed, antichain, class_join, reflect

chain_mod = sys.modules["kaninj.chain"]
print("optimize", sys.flags.optimize)
r = reflect(antichain(2), class_join())

chain_mod.is_dense = lambda f: False
kaninj.clear_caches()  # a cached reflection would skip the postcondition
try:
    reflect(antichain(2), class_join())
except PostconditionFailed as exc:
    print("reflect:", exc)
chain_mod.is_dense = kaninj.is_dense

# one wrong join for every support: every pair still holds
chain_mod._support_joins = lambda target, values, masks: [0] * len(masks)
try:
    chain_mod.extend_along_unit(r.unit, r, class_join())
except PostconditionFailed as exc:
    print("extend:", exc)

chain_mod._support_joins = lambda target, values, masks: None
chain_mod._least_extension = lambda target, vals, h, below: ([target.n - 1] * len(below), "pointwise")
try:
    chain_mod.extend_along_unit(r.unit, r, class_join())
except PostconditionFailed as exc:
    print("extend:", exc)
"""


def test_postconditions_survive_optimize():
    clear_caches()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_FAILURES],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == [
        "optimize 1",
        "reflect: reflection unit is not dense",
        "extend: stagewise extension is not the least extension",
        "extend: span at stage 0 has no strict extension into the target",
    ]


_TAMPERED_SPAN = """
import dataclasses
import sys
from kaninj import antichain, class_join, init_chain, step_even, step_odd
from kaninj.chain import ChainState
from kaninj.errors import SquareDoesNotCommute

print("optimize", sys.flags.optimize)
st = step_odd(init_chain(antichain(2)), class_join())
k, rec = next(
    (k, r) for k, r in enumerate(st.span_registry) if len(set(r.f)) == 2
)
# swap the witness values at h(0) and h(1): the square no longer commutes
h = class_join().maps[rec.h_index]
w = list(rec.coproj)
w[h.assignment[0]], w[h.assignment[1]] = w[h.assignment[1]], w[h.assignment[0]]
bad = dataclasses.replace(rec, coproj=tuple(w))
spans = st.span_registry[:k] + (bad,) + st.span_registry[k + 1 :]
# the same swap in the span's carried witness row
idx, fs, ws = st.pushed[rec.h_index]
ws = ws.copy()
ws[idx.index(k)] = w
pushed = {**st.pushed, rec.h_index: (idx, fs, ws)}
try:
    step_even(ChainState(st.stages, st.connectors, spans, st.gamma_registry, pushed), class_join())
except SquareDoesNotCommute as exc:
    print(exc)
"""


def test_step_even_checks_the_witness_premise():
    # step_even only computes value sets outside h's image, which is
    # sound because the witness equals the floor on the image; a state
    # that breaks this is refused, also under python -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_SPAN],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert len(out) == 2
    assert out[1].startswith("span ") and "differs from its floor on the image of h" in out[1]


_TAMPERED_PUSHOUT = """
import dataclasses
import sys
from kaninj import MonotoneMap, antichain, class_join, init_chain, step_odd
from kaninj.errors import SquareDoesNotCommute

chain_module = sys.modules["kaninj.chain"]
glue = chain_module.glue
h = class_join().maps[0]


def tampered(kind, pieces, ineq_pairs=(), eq_pairs=()):
    # swap the values at h(0) and h(1) of the first span injection that
    # tells them apart: that span's square no longer commutes
    res = glue(kind, pieces, ineq_pairs, eq_pairs)
    injections = list(res.injections)
    k, inj = next(
        (k, m) for k, m in enumerate(injections[1:], 1)
        if m.assignment[h.assignment[0]] != m.assignment[h.assignment[1]]
    )
    w = list(inj.assignment)
    w[h.assignment[0]], w[h.assignment[1]] = w[h.assignment[1]], w[h.assignment[0]]
    injections[k] = MonotoneMap(inj.dom, inj.cod, w, validate=False)
    return dataclasses.replace(res, injections=tuple(injections))


print("optimize", sys.flags.optimize)
chain_module.glue = tampered
try:
    step_odd(init_chain(antichain(2)), class_join())
except SquareDoesNotCommute as exc:
    print(exc)
"""


def test_step_odd_checks_each_square():
    # step_odd checks every pushout square on the assignments of the wide
    # pushout's injections; a wide pushout whose injection breaks one is
    # refused, also under python -O
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_PUSHOUT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == ["optimize 1", "pushout square must commute exactly"]


def test_step_even_passes_its_cap_to_the_value_sets(monkeypatch):
    # cod(h) is the diamond, whose cover graph has a cycle, so the even
    # step certifies its value sets by a search under the cap
    d = diamond()
    klass = MapClass("diamond", (MonotoneMap(antichain(2), d, [d.index["a"], d.index["b"]]),))
    st = step_odd(init_chain(antichain(2)), klass)
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded):
        step_even(st, klass)
    monkeypatch.delenv("KANINJ_SIZE_CAP")
    assert step_even(st, klass).top == 2


# sha256 of the whole chain of reflect(antichain(4), class): its odd
# stages reach 94-151 elements, beyond the <=4-element corpus the golden
# trace covers.  Recorded with an engine that closed every generator and
# composed connectors record by record, so the pins hold the faster
# engine to the same stages, connectors, spans and gamma records.
WIDE_DIGESTS = {
    "join": "556ed29b27c2729d26e464bb244fee79b8128dc3601b7bc565602301c7ead88d",
    "bot+join": "1f04c3b2a24361f57bebca3326eba17b3256f8486242a1ae89bb954ceac66b86",
}

# The same digest for antichain(5), whose odd stages reach 705-736
# elements.  Recorded with an even step that computed every value set of
# every span through monotone_value_sets.
WIDE5_DIGESTS = {
    "join": "6185862cb2084a9b1968d2c6fce360fec862ca0b39b2569e8e643697af2b4f83",
    "bot+join": "cc515a54bcdb6f07ce9b22403519faa14cd4545376cd208e4a246001052ca8e9",
}


def chain_digest(r) -> str:
    t = r.trace
    doc = {
        "converged": r.converged,
        "stages_used": r.stages_used,
        "stages": [poset_to_json(s) for s in t.stages],
        "connectors": [list(c.assignment) for c in t.connectors],
        "spans": [
            [s.stage, s.h_index, list(s.f), list(s.coproj), s.strict_square]
            for s in t.span_registry
        ],
        "gammas": [[g.stage, g.span_index, g.realized, g.pairs] for g in t.gamma_registry],
        "unit": list(r.unit.assignment),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "n,klass",
    [pytest.param(4, k, id=k.name) for k in (class_join(), class_bottom_join())]
    + [pytest.param(5, k, id=f"antichain5-{k.name}") for k in (class_join(), class_bottom_join())],
)
def test_wide_chain_digest(n, klass):
    clear_caches()  # a fresh chain, whose posets have not been read
    r = reflect(antichain(n), klass)
    assert chain_digest(r) == {4: WIDE_DIGESTS, 5: WIDE5_DIGESTS}[n][klass.name]
    # the order is kept as up-set masks: no poset on the reflection path
    # builds its dense leq matrix
    posets = [*r.trace.stages, r.reflected, r.unit.dom, r.unit.cod]
    assert not [p for p in posets if "leq" in vars(p)]
    # each composite agrees with composing connector by connector
    state = r.trace
    for i in range(state.top + 1):
        m = MonotoneMap.identity(state.stages[i])
        for j in range(i, -1, -1):
            assert state.connector(j, i) == m, (j, i)
            if j:
                m = state.connectors[j - 1].then(m)


def carried_by_definition(state) -> dict:
    """ChainState.pushed recomputed from the registry: each record's floor
    and witness pushed to the top stage through ``connector``."""
    to_top = [state.connector(j, state.top).assignment for j in range(state.top + 1)]
    want: dict = {}
    for si, rec in enumerate(state.span_registry):
        idx, fs, ws = want.setdefault(rec.h_index, ([], [], []))
        idx.append(si)
        fs.append([to_top[rec.stage][v] for v in rec.f])
        ws.append([to_top[rec.stage + 1][v] for v in rec.coproj])
    return want


@pytest.mark.parametrize(
    "n,klass",
    [pytest.param(4, k, id=k.name) for k in (class_join(), class_bottom_join())]
    + [pytest.param(5, k, id=f"antichain5-{k.name}") for k in (class_join(), class_bottom_join())],
)
def test_carried_spans_match_the_registry(n, klass):
    # after every step the carried floors and witnesses are the records
    # pushed forward, in registry order within each class map
    clear_caches()  # a fresh chain
    r = reflect(antichain(n), klass)
    state = init_chain(antichain(n))
    while state.top < r.trace.top:
        state = (step_even if state.top % 2 else step_odd)(state, klass)
        want = carried_by_definition(state)
        assert sorted(state.pushed) == sorted(want)
        for hi, (idx, fs, ws) in state.pushed.items():
            assert (list(idx), fs.tolist(), ws.tolist()) == want[hi], (state.top, hi)
            assert fs.dtype == ws.dtype == np.intp
            assert not fs.flags.writeable and not ws.flags.writeable
    assert state == r.trace


@pytest.mark.parametrize(
    "n,klass",
    [pytest.param(4, k, id=k.name) for k in (class_join(), class_bottom_join())]
    + [pytest.param(5, k, id=f"antichain5-{k.name}") for k in (class_join(), class_bottom_join())],
)
def test_recorder_changes_only_the_inserted_pairs(n, klass, monkeypatch):
    # outside a recorder the even step inserts t <= v only for the
    # minimal v of each forced mask, inside one every forced pair; the
    # chain is the same either way
    clear_caches()  # the first reflect must run the chain, not hit the cache
    inserted = []
    glue = sys.modules["kaninj.chain"].glue

    def spy(kind, pieces, ineq_pairs=(), eq_pairs=()):
        if kind == "coequinserter":
            inserted.append((pieces[0][1], [(int(t), int(v)) for t, v in ineq_pairs[:, :, 1]]))
        return glue(kind, pieces, ineq_pairs, eq_pairs)

    monkeypatch.setattr(sys.modules["kaninj.chain"], "glue", spy)
    outside = reflect(antichain(n), klass)
    reduced, inserted[:] = inserted[:], []
    with record_colimits():
        inside = reflect(antichain(n), klass)
    assert chain_digest(outside) == chain_digest(inside)
    assert chain_digest(outside) == {4: WIDE_DIGESTS, 5: WIDE5_DIGESTS}[n][klass.name]
    assert len(reduced) == len(inserted)
    for (cur, few), (_, every) in zip(reduced, inserted):
        assert set(few) <= set(every) and every == sorted(every)
        lows: dict = {}
        for t, v in few:
            lows.setdefault(t, []).append(v)
        up = cur.up_masks
        # each t's inserted v form an antichain below every v forced on t
        for t, v in every:
            assert any(up[u] >> v & 1 for u in lows[t])
        for vs in lows.values():
            assert not any(u != v and up[u] >> v & 1 for u in vs for v in vs)
    assert sum(len(few) for _, few in reduced) < sum(len(every) for _, every in inserted)


def test_a_recorder_sees_every_glue_of_a_cached_reflection():
    # inside record_colimits() the chain runs afresh and is not stored,
    # so two reflects of one input record the same presentations
    x, klass = antichain(2), class_join()
    clear_caches()
    r = reflect(x, klass)
    assert reflect(x, klass) is r
    logs = []
    for _ in range(2):
        with record_colimits() as log:
            inside = reflect(x, klass)
        assert inside is not r and chain_digest(inside) == chain_digest(r)
        logs.append(log)
    assert logs[0] and logs[0] == logs[1]
    assert len(_REFLECTIONS) == 1 and reflect(x, klass) is r


def test_reflection_cache_keys_on_max_steps():
    x, klass = antichain(2), class_join()
    clear_caches()
    full = reflect(x, klass)
    short = reflect(x, klass, max_steps=2)
    assert full.converged and full.trace.top == 4
    assert not short.converged and short.trace.top == 2 and short.omega is not None
    assert reflect(x, klass) is full and reflect(x, klass, max_steps=2) is short


def test_reflection_cache_honours_a_later_cap(monkeypatch):
    clear_caches()
    assert reflect(antichain(2), class_join()).converged
    entries = len(_REFLECTIONS)
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded):
        reflect(antichain(2), class_join())
    assert len(_REFLECTIONS) == entries  # a raised search stores nothing


def test_failed_postcondition_is_not_cached(monkeypatch):
    clear_caches()
    monkeypatch.setattr(sys.modules["kaninj.chain"], "is_dense", lambda f: False)
    with pytest.raises(PostconditionFailed):
        reflect(antichain(2), class_join())
    assert not len(_REFLECTIONS)
    monkeypatch.undo()
    assert reflect(antichain(2), class_join()).converged
