"""One search budget: KANINJ_SIZE_CAP, read by every search when it runs.

Only the injectivity cross-check gives its hom-posets a budget of their
own, so only the one public function it reaches,
``iter_monotone_assignments``, takes a ``cap`` parameter.
"""

import importlib
import inspect

import pytest

from kaninj import (
    MapClass,
    MonotoneMap,
    all_posets,
    antichain,
    build_poset,
    chain,
    class_join,
    clear_caches,
    closure_check,
    diamond,
    left_kan,
    reflect,
    run_suite,
    verdict,
    witness_menu,
)
from kaninj.errors import SizeCapExceeded

MODULES = ["kaninj", "kaninj.chain", "kaninj.injectivity", "kaninj.saturation", "kaninj.verify"]


def test_only_the_cross_check_searches_take_a_cap():
    taking = set()
    for name in MODULES:
        for attr, obj in vars(importlib.import_module(name)).items():
            public = not attr.startswith("_")
            if public and inspect.isfunction(obj) and "cap" in inspect.signature(obj).parameters:
                taking.add(obj.__name__)
    assert taking == {"iter_monotone_assignments"}


def _searching_calls():
    """Calls that each run a monotone-map search.  left_kan along h into
    the bowtie misses the join of its two minimal elements, so it takes
    the value sets over the diamond, whose cover graph has a cycle and
    whose values are certified by search."""
    d = diamond()
    h = MonotoneMap(antichain(2), d, [d.index["a"], d.index["b"]])
    bowtie = build_poset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    f = MonotoneMap(antichain(2), bowtie, [0, 1])
    return {
        "reflect": lambda: reflect(antichain(2), MapClass("diamond", (h,))),
        "left_kan": lambda: left_kan(f, h).method,
        "verdict": lambda: verdict(chain(3), class_join()),
        "closure_check": lambda: closure_check(
            witness_menu(class_join())[0], class_join(), all_posets(2)
        ),
        "run_suite": lambda: run_suite("colimits").passed,
    }


def test_every_search_reads_the_environment_cap(monkeypatch):
    clear_caches()
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    for name, call in _searching_calls().items():
        with pytest.raises(SizeCapExceeded, match="cap of 1 nodes"):
            call()
    monkeypatch.delenv("KANINJ_SIZE_CAP")
    answers = {name: call() for name, call in _searching_calls().items()}
    assert answers["reflect"].converged
    assert answers["left_kan"] == "value_sets"
    assert answers["verdict"] == "strong"
    assert answers["closure_check"] is True
    assert answers["run_suite"] is True
