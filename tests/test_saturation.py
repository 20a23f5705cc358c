import pytest

from kaninj import (
    MonotoneMap,
    SaturationWitness,
    SizeCapExceeded,
    all_posets,
    antichain,
    chain,
    class_bottom,
    class_bottom_join,
    class_join,
    classify_adjoint,
    clear_caches,
    closure_check,
    closure_failures,
    empty,
    enumerate_monotone,
    point,
    sat_compose,
    sat_iso,
    sat_lari,
    sat_pushout,
    sat_reflection,
    sat_wide_pushout,
    witness_menu,
)
from kaninj.errors import DomainMismatch, NotLari, SquareDoesNotCommute
from kaninj.saturation import _STRONG_PARTS, _strong_part

SAMPLE = all_posets(3)


def bottom_incl():
    return MonotoneMap(point(), chain(2), [0])


def test_sat_lari_accepts_and_rejects():
    w = sat_lari(bottom_incl())
    assert w.recipe == "lari"
    # picking one leg of an antichain has no right adjoint
    with pytest.raises(NotLari):
        sat_lari(MonotoneMap(point(), antichain(2), [0]))
    # top inclusion is a rari, not a lari
    with pytest.raises(NotLari):
        sat_lari(MonotoneMap(point(), chain(2), [1]))


def test_menu_closes_for_every_class():
    for klass in (class_bottom(), class_join(), class_bottom_join()):
        for w in witness_menu(klass):
            assert closure_check(w, klass, SAMPLE), (klass.name, w.recipe)


def test_negative_control_fails_closure():
    fake = SaturationWitness(MonotoneMap(chain(2), point(), [0, 0]), "assumed")
    for klass in (class_bottom(), class_join(), class_bottom_join()):
        fails = closure_failures(fake, klass, SAMPLE)
        assert fails
        assert fails[0][0] == "object"


def test_sat_iso_demands_isos():
    w = sat_lari(bottom_incl())
    not_iso = MonotoneMap(point(), chain(2), [0])
    with pytest.raises(ValueError):
        sat_iso(w, MonotoneMap.identity(point()), not_iso)
    relabel = MonotoneMap(chain(2), chain(2, prefix="z"), [0, 1])
    conj = sat_iso(w, MonotoneMap(point("q"), point(), [0]), relabel)
    assert conj.produced.dom.elements == ("q",)
    assert conj.produced.cod.key == chain(2, prefix="z").key


def test_sat_compose_chains_witnesses():
    first = sat_lari(bottom_incl())
    second = sat_lari(MonotoneMap(chain(2), chain(3), [0, 1]))
    w = sat_compose(first, second)
    assert w.produced == bottom_incl().then(second.produced)


def test_sat_pushout_validation():
    h = bottom_incl()
    with pytest.raises(ValueError):
        sat_pushout(h, MonotoneMap.identity(point()), "coproduct")
    with pytest.raises(DomainMismatch):
        sat_pushout(h, MonotoneMap.identity(chain(2)))


def test_sat_pushout_produces_opposite_leg():
    h = bottom_incl()
    f = MonotoneMap(point(), antichain(2), [0])
    w = sat_pushout(h, f)
    assert w.produced.dom.key == antichain(2).key
    assert closure_check(w, class_bottom(), SAMPLE)
    wc = sat_pushout(h, f, "cocomma")
    assert wc.produced.dom.key == antichain(2).key
    assert closure_check(wc, class_bottom(), SAMPLE)


def test_sat_wide_pushout_diagonal():
    with pytest.raises(ValueError):
        sat_wide_pushout([])
    h = bottom_incl()
    w = sat_wide_pushout([h, h, h])
    assert w.produced.dom.key == point().key
    with pytest.raises(DomainMismatch):
        sat_wide_pushout([h, MonotoneMap(chain(2), chain(3), [0, 1])])


def test_sat_reflection_retract():
    # the empty-to-point member retracts off empty-to-chain via lari
    # corner squares; everything commutes vacuously on the empty side
    h = MonotoneMap(empty(), chain(2), [])
    s = MonotoneMap(empty(), point(), [])
    l1 = MonotoneMap.identity(empty())
    l2 = bottom_incl()
    r2 = MonotoneMap(chain(2), point(), [0, 0])
    w = sat_reflection(h, l1, l2, l1, r2, s)
    assert w.recipe == "reflection-square"
    assert closure_check(w, class_bottom(), SAMPLE)


def test_sat_reflection_rejects_bad_squares():
    h = bottom_incl()
    ident_d = MonotoneMap.identity(point())
    ident_c = MonotoneMap.identity(chain(2))
    top_incl = MonotoneMap(point(), chain(2), [1])
    with pytest.raises(NotLari):
        sat_reflection(h, ident_d, top_incl, ident_d, ident_c, h)
    with pytest.raises(NotLari):
        sat_reflection(h, ident_d, ident_c, ident_d, MonotoneMap(chain(2), chain(2), [1, 1]), h)
    collapse = MonotoneMap(chain(2), point(), [0, 0])
    with pytest.raises(NotLari):
        sat_reflection(h, ident_d, ident_c, collapse.then(bottom_incl()), ident_c, h)
    wrong_s = MonotoneMap(point(), chain(2), [1])
    with pytest.raises(SquareDoesNotCommute):
        sat_reflection(h, ident_d, ident_c, ident_d, ident_c, wrong_s)


def test_every_small_lari_is_closed():
    # soundness of the lari rule itself, quantified over all laris
    # between posets of at most three elements
    laris = []
    for dom in SAMPLE:
        if dom.n == 0:
            continue
        for cod in SAMPLE:
            for l in enumerate_monotone(dom, cod):
                if classify_adjoint(l).is_lari:
                    laris.append(l)
    assert len(laris) > 20
    for klass in (class_bottom(), class_join()):
        for l in laris:
            assert closure_check(sat_lari(l), klass, SAMPLE)


def test_witness_serialization():
    w = sat_lari(bottom_incl())
    d = w.to_json()
    assert d["recipe"] == "lari"
    assert d["produced"] == {"pt": "c0"}


def test_raw_map_is_assumed_member():
    h = MonotoneMap(empty(), point(), [])
    w = sat_compose(h, sat_lari(bottom_incl()))
    assert w.produced.cod.key == chain(2).key
    assert closure_check(h, class_bottom(), SAMPLE)


def test_strong_part_cache_keys_on_effective_cap_and_clears(monkeypatch):
    strong, _ = _strong_part(class_join(), SAMPLE)
    assert strong and len(_STRONG_PARTS) >= 1
    # a cap set later is honoured, not answered from the default-cap entry
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    with pytest.raises(SizeCapExceeded):
        _strong_part(class_join(), SAMPLE)
    monkeypatch.delenv("KANINJ_SIZE_CAP")
    clear_caches()
    assert len(_STRONG_PARTS) == 0
