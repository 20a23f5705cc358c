import hashlib

import pytest

from kaninj import SUITES, dumps, run_suite, standard_classes, witness_menu

EXPECTED = {"kz", "saturation", "cone", "bilimits", "colimits", "smallness"}

# sha256 of the canonical JSON of all twelve size-3 reports, suites in
# sorted order, each healthy then mutated; recorded while every row of
# the preservation check still went through left_kan and the smallness
# suite re-enumerated each stage for every map into the colimit
SIZE3_REPORTS_SHA256 = "3fa053cf95aeae8975b47268aa9b7c069036cadb0b90f8528f9f74f0f533b440"


def test_registry_names():
    assert set(SUITES) == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_passes_healthy(name):
    rep = run_suite(name, size=3)
    assert rep.passed, [c for c in rep.checks if not c.ok][:3]
    assert rep.suite == name
    assert rep.checks


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_fails_mutated(name):
    rep = run_suite(name, size=3, mutate=True)
    assert not rep.passed
    # a mutated run must fail for the declared reason, not crash: every
    # check still carries a label and a detail string
    bad = [c for c in rep.checks if not c.ok]
    assert bad and all(c.label for c in bad)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_reports_are_deterministic():
    for name in sorted(EXPECTED):
        a = dumps(run_suite(name, size=3).to_json())
        b = dumps(run_suite(name, size=3).to_json())
        assert a == b


def test_size3_reports_are_pinned():
    text = "".join(
        dumps(run_suite(name, size=3, mutate=mutate).to_json())
        for name in sorted(EXPECTED)
        for mutate in (False, True)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SIZE3_REPORTS_SHA256


def test_menu_covers_every_recipe():
    recipes = {
        "lari",
        "iso-replacement",
        "compose",
        "pushout",
        "cocomma",
        "wide-pushout",
        "reflection-square",
    }
    for klass in standard_classes():
        menu = witness_menu(klass)
        assert {w.recipe for w in menu} == recipes
