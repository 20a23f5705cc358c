import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaninj import (
    MonotoneMap,
    all_posets,
    antichain,
    build_poset,
    chain,
    class_bottom_join,
    class_join,
    diamond,
    empty,
    enumerate_monotone,
    point,
    reflect,
    standard_classes,
    two_cell_exists,
    vee,
)
from kaninj.colimits import (
    chain_colimit,
    cocomma,
    coequifier,
    coequinserter,
    coinserter,
    coproduct,
    glue,
    pushout,
    record_colimits,
    verify_universal,
    wide_pushout,
)
from kaninj import colimits
from kaninj.errors import NotMonotone, NotParallel
from kaninj.poset import Poset, TwoCell
from kaninj.verify import _sample_colimits

from oracles import brute_close_and_collapse, brute_monotone, masks_of


def brute_unique_mediator(res, targets):
    """Re-verify the universal property from scratch.

    A cocone is a choice of monotone map per piece that respects every
    generating pair; each must factor through the computed object by
    exactly one monotone map.
    """
    pieces = [inj.dom for inj in res.injections]
    offsets = res.piece_offsets
    for t in targets:
        piece_maps = [brute_monotone(p, t) for p in pieces]
        import itertools

        for combo in itertools.product(*piece_maps):
            slots = [None] * len(res.gen_labels)
            for pi, m in enumerate(combo):
                for k, v in enumerate(m):
                    slots[offsets[pi] + k] = v
            if any(slots[i] is None for i in range(len(slots))):
                return False
            if not all(t.leq[slots[i], slots[j]] for i, j in res.gen_pairs):
                continue
            mediators = [
                u
                for u in brute_monotone(res.object, t)
                if all(
                    u[res.injections[pi].assignment[k]] == combo[pi][k]
                    for pi in range(len(pieces))
                    for k in range(pieces[pi].n)
                )
            ]
            if len(mediators) != 1:
                return False
    return True


def test_coproduct_universal_brute():
    res = coproduct([chain(2), antichain(2)])
    assert res.object.n == 4
    assert brute_unique_mediator(res, [chain(2), vee(), antichain(2)])


def test_coproduct_empty_family():
    res = coproduct([])
    assert res.object.n == 0


def test_pushout_universal_brute():
    f = MonotoneMap(antichain(2), vee(), [0, 1])
    h = MonotoneMap(antichain(2), chain(2), [0, 1])
    res = pushout(f, h)
    assert brute_unique_mediator(res, [chain(3), diamond()])
    # legs agree on the shared span
    assert f.then(res.injections[0]) == h.then(res.injections[1])


def test_wide_pushout_three_legs():
    legs = [MonotoneMap(point(), chain(2), [0]) for _ in range(3)]
    res = wide_pushout(point(), legs)
    # three chains glued at the bottom point
    assert res.object.n == 4
    assert brute_unique_mediator(res, [vee(), chain(2)])


def test_cocomma_of_identity_is_cylinder():
    h = MonotoneMap(antichain(2), vee(), [0, 1])
    res = cocomma(MonotoneMap.identity(antichain(2)), h)
    i, j = res.injections
    assert res.object.n == antichain(2).n + vee().n
    assert res.two_cell is not None
    assert two_cell_exists(i, h.then(j))


def test_coinserter_forces_inequality():
    f = MonotoneMap(point(), antichain(2), [0])
    g = MonotoneMap(point(), antichain(2), [1])
    res = coinserter(f, g)
    q = res.injections[0]
    assert two_cell_exists(f.then(q), g.then(q))
    assert brute_unique_mediator(res, [chain(2), vee()])


def test_coinserter_requires_parallel_pair():
    f = MonotoneMap(point(), antichain(2), [0])
    g = MonotoneMap(point(), chain(2), [0])
    with pytest.raises(NotParallel):
        coinserter(f, g)


def test_coequifier_is_identity_quotient():
    # posets are locally thin, so coequifiers never merge anything
    f = MonotoneMap(point(), chain(2), [0])
    g = MonotoneMap(point(), chain(2), [1])
    sigma = TwoCell(f, g)
    tau = TwoCell(f, g)
    res = coequifier(sigma, tau)
    assert res.object.n == chain(2).n
    assert res.injections[0].is_order_iso()


def test_coequinserter_equals_coinserter():
    # comparable pair: the mediating cell lives over the identity
    f = MonotoneMap(point(), chain(2), [0])
    g = MonotoneMap(point(), chain(2), [1])
    h = MonotoneMap.identity(point())
    gamma = TwoCell(h.then(f), h.then(g))
    a = coinserter(f, g)
    b = coequinserter(h, f, g, gamma)
    assert a.object.key == b.object.key
    assert sorted(a.gen_pairs) == sorted(b.gen_pairs)
    # incomparable pair: restrict along the empty shape instead
    f2 = MonotoneMap(point(), antichain(2), [0])
    g2 = MonotoneMap(point(), antichain(2), [1])
    h2 = MonotoneMap(empty(), point(), [])
    gamma2 = TwoCell(h2.then(f2), h2.then(g2))
    a2 = coinserter(f2, g2)
    b2 = coequinserter(h2, f2, g2, gamma2)
    assert a2.object.key == b2.object.key
    assert [tuple(m.assignment) for m in a2.injections] == [
        tuple(m.assignment) for m in b2.injections
    ]


def test_coequinserter_validates_gamma():
    f = MonotoneMap(point(), antichain(2), [0])
    g = MonotoneMap(point(), antichain(2), [1])
    h = MonotoneMap.identity(point())
    bad = TwoCell(
        MonotoneMap(point(), antichain(2), [0]),
        MonotoneMap(point(), antichain(2), [0]),
    )
    with pytest.raises(Exception):
        coequinserter(h, f, g, bad)


def test_chain_colimit_of_inclusions():
    stages = [chain(1), chain(2), chain(3)]
    conns = [
        MonotoneMap(chain(1), chain(2), [0]),
        MonotoneMap(chain(2), chain(3), [0, 1]),
    ]
    res = chain_colimit(stages, conns)
    assert res.object.n == 3
    # every stage element survives into the colimit coherently
    for k in range(2):
        assert conns[k].then(res.injections[k + 1]) == res.injections[k]


def test_chain_colimit_validates_shapes():
    with pytest.raises(Exception):
        chain_colimit([chain(1), chain(2)], [])


def test_verify_universal_healthy_and_mutated():
    f = MonotoneMap(antichain(2), vee(), [0, 1])
    h = MonotoneMap(antichain(2), chain(2), [0, 1])
    res = pushout(f, h)
    rep = verify_universal(res)
    assert rep.ok
    broken = dataclasses.replace(res, pairs=res.pairs[:-1])
    rep2 = verify_universal(broken)
    assert not rep2.ok
    assert rep2.failure == "cocone not constant on class of 1:c1"


# sha256 over json [ok, failure] of every single-pair drop below (905
# drops from 79 colimits); recorded with the budgeted cocone search into
# all_posets(4), which finished on every one of them.
SINGLE_DROP_REPORTS = (
    "7e83b06d84ec9bb3f7dc960cb59f933466f2dceec581b9039fecd5ee9cae4a53"
)


def test_single_pair_drop_reports_are_pinned():
    # every distinct colimit with at most 12 generators that reflect
    # glues on the <=4-element corpus, plus the colimits suite's sample
    with record_colimits() as log:
        for klass in standard_classes():
            for x in all_posets(4):
                reflect(x, klass)
    seen = {}
    for r in list(log) + _sample_colimits():
        if len(r.gen_labels) <= 12:
            seen.setdefault((r.kind, r.gen_labels, r.gen_pairs, r.object.key), r)
    h = hashlib.sha256()
    for r in seen.values():
        for k in range(len(r.pairs)):
            kept = np.delete(r.pairs, k, axis=0)
            rep = verify_universal(dataclasses.replace(r, pairs=kept))
            h.update(json.dumps([rep.ok, rep.failure]).encode())
    assert h.hexdigest() == SINGLE_DROP_REPORTS


def test_verify_universal_refutes_a_large_broken_presentation():
    # The odd-step wide pushout of chain(2) + point under join has 53
    # generators; without its first pair it is not the colimit.  A
    # cocone search capped at 50k nodes gave up on it and passed it.
    x = build_poset(["p0", "p1", "p2"], [("p0", "p1")])
    with record_colimits() as log:
        reflect(x, class_join())
    res = log[2]
    assert (res.kind, len(res.gen_labels), len(res.gen_pairs)) == ("wide_pushout", 53, 101)
    assert verify_universal(res).ok
    kept = res.gen_pairs[1:]
    _, leq, collapse = brute_close_and_collapse(res.gen_labels, kept)
    assert leq != res.object.leq.tolist()
    rep = verify_universal(dataclasses.replace(res, pairs=res.pairs[1:]))
    assert not rep.ok
    assert rep.failure == "mediating map not monotone"


def test_glue_single_piece_keeps_labels():
    res = glue("quotient", [("q", vee())], ineq_pairs=[((0, 2), (0, 0))])
    # top <= a collapses the poset to a and b with a,b joined... check labels
    assert set(res.object.elements) <= {"a", "b", "top"}
    # merged class takes the smallest label
    assert "a" in res.object.elements


def test_glue_multi_piece_label_scheme():
    res = glue("sum", [("l", point("x")), ("r", point("x"))])
    assert sorted(res.object.elements) == ["l:x", "r:x"]


def test_glue_rejects_indices_outside_the_pieces():
    pieces = [("a", chain(2)), ("b", chain(2))]
    # a negative element would wrap to b:c1; one past a's end would
    # spill into b
    for bad in [((0, -1), (1, 0)), ((0, 2), (0, 0)), ((2, 0), (0, 0)), ((-1, 0), (0, 1))]:
        with pytest.raises(ValueError, match="outside the pieces"):
            glue("q", pieces, ineq_pairs=[bad])
        with pytest.raises(ValueError, match="outside the pieces"):
            glue("q", pieces, eq_pairs=np.array([bad]))
    with pytest.raises(ValueError, match="outside the pieces"):
        glue("q", [], ineq_pairs=[((0, 0), (0, 0))])


def _discrete(labels, pairs):
    """The right elements for a presentation, with none of its order."""
    n = len(labels)
    return Poset(labels, [1 << i for i in range(n)], validate=False), tuple(range(n))


def test_glue_checks_its_injections(monkeypatch):
    # a closure that drops the pieces' own order leaves every injection
    # non-monotone; glue refuses it instead of building the maps
    monkeypatch.setattr(colimits, "close_and_collapse", _discrete)
    assert glue("sum", [("l", antichain(2)), ("r", point())]).object.n == 3
    with pytest.raises(NotMonotone, match="not monotone on r:c0 <= r:c1"):
        glue("sum", [("l", antichain(2)), ("r", chain(2))])


_DISCRETE_CLOSURE = """
import sys
from kaninj import chain, colimits
from kaninj.errors import NotMonotone
from kaninj.poset import Poset

print("optimize", sys.flags.optimize)
colimits.close_and_collapse = lambda labels, pairs: (
    Poset(labels, [1 << i for i in range(len(labels))], validate=False),
    tuple(range(len(labels))),
)
try:
    colimits.glue("sum", [("l", chain(3)), ("r", chain(2))])
except NotMonotone as exc:
    print(exc)
"""


def test_glue_checks_its_injections_under_optimize():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DISCRETE_CLOSURE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out == ["optimize 1", "injection is not monotone on l:c0 <= l:c1"]


@st.composite
def gluings(draw):
    """A few pieces from the <=3-element corpus, some possibly empty,
    with ineq and eq pairs between their elements."""
    corpus = all_posets(3)
    pieces = [
        (f"t{k}", draw(st.sampled_from(corpus)))
        for k in range(draw(st.integers(0, 4)))
    ]
    slots = [(pi, ei) for pi, (_, p) in enumerate(pieces) for ei in range(p.n)]
    if not slots:
        return pieces, [], []
    pair = st.tuples(st.sampled_from(slots), st.sampled_from(slots))
    return pieces, draw(st.lists(pair, max_size=6)), draw(st.lists(pair, max_size=4))


def reference_glue(pieces, ineq, eq):
    """gen_labels, gen_pairs, object and collapse of a gluing, built
    from the definition on brute_close_and_collapse."""
    offsets, k = [], 0
    for _, p in pieces:
        offsets.append(k)
        k += p.n
    if len(pieces) == 1:
        labels = list(pieces[0][1].elements)
    else:
        labels = [f"{tag}:{lbl}" for tag, p in pieces for lbl in p.elements]
    pairs = [(o + i, o + j) for o, (_, p) in zip(offsets, pieces) for i, j in p.cover_pairs]
    pairs += [(offsets[pi] + ei, offsets[pj] + ej) for (pi, ei), (pj, ej) in ineq]
    for (pi, ei), (pj, ej) in eq:
        a, b = offsets[pi] + ei, offsets[pj] + ej
        pairs += [(a, b), (b, a)]
    names, leq, collapse = brute_close_and_collapse(labels, pairs)
    obj = Poset(names, masks_of(leq), validate=False)
    return tuple(labels), tuple(pairs), obj, collapse, offsets


@settings(max_examples=300, deadline=None)
@given(gluings())
def test_glue_matches_reference(g):
    pieces, ineq, eq = g
    res = glue("g", pieces, ineq_pairs=ineq, eq_pairs=eq)
    labels, pairs, obj, collapse, offsets = reference_glue(pieces, ineq, eq)
    assert res.gen_labels == labels
    assert res.gen_pairs == pairs
    assert res.collapse == collapse
    assert res.object.key == obj.key
    assert res.tags == tuple(tag for tag, _ in pieces)
    assert [(m.dom.key, m.cod.key) for m in res.injections] == [(p.key, obj.key) for _, p in pieces]
    assert [m.assignment for m in res.injections] == [
        collapse[o : o + p.n] for o, (_, p) in zip(offsets, pieces)
    ]
    as_arrays = glue(
        "g",
        pieces,
        ineq_pairs=np.array(ineq, dtype=np.int64).reshape(-1, 2, 2),
        eq_pairs=np.array(eq, dtype=np.int32).reshape(-1, 2, 2),
    )
    assert as_arrays == res
    assert type(as_arrays.gen_pairs) is tuple
    assert all(type(i) is int and type(j) is int for i, j in as_arrays.gen_pairs)


@settings(max_examples=300, deadline=None)
@given(gluings(), st.data())
def test_verify_universal_matches_reference(g, data):
    pieces, ineq, eq = g
    res = glue("g", pieces, ineq_pairs=ineq, eq_pairs=eq)
    assert verify_universal(res).ok
    keep = data.draw(st.lists(st.booleans(), min_size=len(res.gen_pairs), max_size=len(res.gen_pairs)))
    kept = tuple(p for p, k in zip(res.gen_pairs, keep) if k)
    names, leq, collapse = brute_close_and_collapse(res.gen_labels, kept)
    same = (
        names == list(res.object.elements)
        and leq == res.object.leq.tolist()
        and collapse == res.collapse
    )
    dropped = dataclasses.replace(res, pairs=res.pairs[np.array(keep, dtype=bool)])
    assert verify_universal(dropped).ok == same


def test_gen_pairs_are_built_on_first_read():
    with record_colimits() as log:
        reflect(antichain(4), class_join())
    assert log
    assert not any("gen_pairs" in vars(r) for r in log)
    for r in log:
        first = r.gen_pairs
        assert first == tuple(zip(*r.pairs.T.tolist()))
        assert r.gen_pairs is first


def test_gluings_differing_in_one_pair_are_unequal():
    pieces = [("0", chain(2)), ("1", point())]
    ineq = [((0, 0), (1, 0)), ((0, 1), (1, 0))]
    res = glue("g", pieces, ineq_pairs=ineq)
    assert res == glue("g", pieces, ineq_pairs=ineq)
    # 0:c0 <= 1:pt follows from the other pairs, so only the pairs differ
    assert res.gen_pairs == ((0, 1), (0, 2), (1, 2))
    pairs = res.pairs.copy()
    pairs[1] = (1, 2)
    other = dataclasses.replace(res, pairs=pairs)
    assert verify_universal(other).ok
    assert other != res and res != other
    assert other.gen_pairs != res.gen_pairs


def test_record_colimits_captures():
    with record_colimits() as log:
        coproduct([point(), point("y")])
        pushout(
            MonotoneMap(antichain(2), vee(), [0, 1]),
            MonotoneMap(antichain(2), chain(2), [0, 1]),
        )
    kinds = [r.kind for r in log]
    assert "coproduct" in kinds and "pushout" in kinds


def presentation_digest(results) -> str:
    """sha256 over (kind, gen_labels, gen_pairs, collapse, object.key) of
    each result, in order."""
    h = hashlib.sha256()
    for r in results:
        doc = [r.kind, list(r.gen_labels), [list(p) for p in r.gen_pairs], list(r.collapse)]
        h.update(json.dumps(doc).encode())
        h.update(r.object.key)
    return h.hexdigest()


# 100 results, 24,975 generating pairs.  Recorded with a glue that built
# gen_pairs in a Python loop over nested ((piece, element), (piece,
# element)) pairs.
REFLECT_PRESENTATIONS = (
    "126dbbdaff3f12e99bd98c25dc8d8a12c14c541ba323120e972d09def83fb8ba"
)


def test_reflection_presentations_are_pinned():
    # every colimit reflect glues on the <=3-element corpus for each
    # standard class, and on antichain(4) under join and bot+join
    runs = [(x, k) for k in standard_classes() for x in all_posets(3)]
    runs += [(antichain(4), class_join()), (antichain(4), class_bottom_join())]
    with record_colimits() as log:
        for x, klass in runs:
            reflect(x, klass)
    for r in log:
        assert type(r.gen_pairs) is tuple and type(r.collapse) is tuple
        assert all(type(p) is tuple and len(p) == 2 for p in r.gen_pairs)
        assert all(type(i) is int and type(j) is int for i, j in r.gen_pairs)
    assert presentation_digest(log) == REFLECT_PRESENTATIONS
