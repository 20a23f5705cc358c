import hashlib

import pytest

from kaninj import SUITES, dumps, run_suite, standard_classes, witness_menu

EXPECTED = {"kz", "saturation", "cone", "bilimits", "colimits", "smallness"}

# sha256 of the canonical JSON of all twelve size-3 reports, suites in
# sorted order, each healthy then mutated; recorded while every row of
# the preservation check still went through left_kan and the smallness
# suite re-enumerated each stage for every map into the colimit
SIZE3_REPORTS_SHA256 = "3fa053cf95aeae8975b47268aa9b7c069036cadb0b90f8528f9f74f0f533b440"

# (suite, mutate) -> sha256 of the canonical JSON of its size-4 report,
# recorded while every row of the preservation check still went through
# left_kan
SIZE4_REPORTS_SHA256 = {
    ("bilimits", False): "7adc46a4a7693a93b95515d4956d9429cb3b7897b416ca03707890071ac158ba",
    ("bilimits", True): "0e3b1c570e20432e4d339276047cf7e505343724374f061ad7f54f38ef2fe26f",
    ("colimits", False): "c86b68c24b0f0ad2917a9c207ba32aae994510c5e3df47ef5a3e841fa4222fd6",
    ("colimits", True): "8edc315b9721e26e2298d9283f277eafedaee55318c6d17f70f9e36fa74fc7f9",
    ("cone", False): "40716f35d8590aa51dce6918eb0bc3dbea0fd77c254771db8343541ce8c1c3c0",
    ("cone", True): "2fe6e678a08df97345a9f64019c15ff72091281fabc53d2d69226ac4592114ba",
    ("kz", False): "1b5a141ecd1a2809f159a9779eab1e577fd1e59350f47c5d86facfb63c864636",
    ("kz", True): "d65e1239a0681420e39b2d6d22510a55d92d4a4c4d1b6bd1a906c5623fcad3fd",
    ("saturation", False): "9fc45a8dfa3ad4624978420beebc2f104112a8b71945068239b3ea6883c2c5ef",
    ("saturation", True): "94efc7a06e7c99ae5afbdabde883235f2f99e4fb38e0f7f9b0bfb3d311d0059c",
    ("smallness", False): "ff017a0f828194f12f850c25ef268613556ce0700d062e9dc5f114173e2a49b1",
    ("smallness", True): "73ebf5eb493d41b0fa75f8d87e65218a4c381202348a7534c529bf6bcc68c2a5",
}


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


@pytest.mark.parametrize("name, mutate", sorted(SIZE4_REPORTS_SHA256))
def test_size4_reports_are_pinned(name, mutate):
    # each healthy report passes and each mutated one fails
    rep = run_suite(name, size=4, mutate=mutate)
    assert rep.passed != mutate
    digest = hashlib.sha256(dumps(rep.to_json()).encode()).hexdigest()
    assert digest == SIZE4_REPORTS_SHA256[(name, mutate)]


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
