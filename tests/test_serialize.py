import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from kaninj import (
    MonotoneMap,
    build_poset,
    chain,
    class_bottom_join,
    class_from_json,
    class_to_json,
    diamond,
    dumps,
    enumerate_monotone,
    map_from_json,
    map_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    vee,
)


def test_poset_round_trip():
    for p in (chain(3), vee(), diamond()):
        q = poset_from_json(poset_to_json(p))
        assert q.key == p.key


def test_poset_json_closes_generators():
    data = {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}
    p = poset_from_json(data)
    assert p.le("a", "c")
    # writing back emits covers only, not the transitive pair
    assert ["a", "c"] not in poset_to_json(p)["leq"]


def test_map_round_trip():
    m = MonotoneMap(chain(2), vee(), [0, 2])
    back = map_from_json(map_to_json(m))
    assert back == m


def test_class_round_trip():
    c = class_bottom_join()
    back = class_from_json(class_to_json(c))
    assert back.name == c.name
    assert tuple(back.maps) == tuple(c.maps)


def test_malformed_inputs_raise():
    with pytest.raises(ValueError, match="expected an object"):
        poset_from_json([1, 2])
    with pytest.raises(ValueError, match="'elements' must be a list"):
        poset_from_json({"elements": "abc"})
    with pytest.raises(ValueError, match="list of pairs"):
        poset_from_json({"elements": ["a"], "leq": [["a"]]})
    # labels are strings: nothing else is turned into one
    with pytest.raises(ValueError, match="'elements' must be a list of labels"):
        poset_from_json({"elements": [["a"], 7, None]})
    with pytest.raises(ValueError, match="list of pairs of labels"):
        poset_from_json({"elements": ["a", "b"], "leq": [[["a"], "b"]]})
    with pytest.raises(ValueError, match="expected dom/cod/map"):
        map_from_json({"dom": poset_to_json(chain(2))})
    with pytest.raises(ValueError, match="does not cover label"):
        map_from_json(
            {
                "dom": poset_to_json(chain(2)),
                "cod": poset_to_json(chain(2)),
                "map": {"c0": "c0"},
            }
        )
    with pytest.raises(ValueError, match="expected name/maps"):
        class_from_json({"name": "H"})
    # a map entry outside the domain is not dropped, and a class name is
    # not turned into a string
    with pytest.raises(ValueError, match="malformed map description: 'zzz' is not in the domain"):
        map_from_json(
            {
                "dom": poset_to_json(chain(2)),
                "cod": poset_to_json(chain(2)),
                "map": {"c0": "c0", "c1": "c1", "zzz": "c1"},
            }
        )
    with pytest.raises(ValueError, match="malformed class description: 'name' must be a label"):
        class_from_json({"name": ["x", 1], "maps": []})


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [2, 3]})
    b = dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_round_trip_is_byte_stable():
    m = MonotoneMap(chain(2), diamond(), [0, 3])
    once = dumps(map_to_json(m))
    again = dumps(map_to_json(map_from_json(map_to_json(m))))
    assert once == again


@st.composite
def labelled_posets(draw):
    """A poset on up to 5 arbitrary labels, from random pairs that follow
    the order the labels were drawn in."""
    labels = draw(st.lists(st.text(max_size=4), max_size=5, unique=True))
    pairs = [(a, b) for a, b in combinations(labels, 2) if draw(st.booleans())]
    return build_poset(labels, pairs)


@st.composite
def labelled_maps(draw):
    maps = enumerate_monotone(draw(labelled_posets()), draw(labelled_posets()))
    assume(maps)
    return draw(st.sampled_from(maps))


@settings(max_examples=200, deadline=None)
@given(labelled_maps())
def test_round_trip_is_byte_stable_on_random_maps(m):
    for doc, load, save in (
        (poset_to_json(m.dom), poset_from_json, poset_to_json),
        (map_to_json(m), map_from_json, map_to_json),
    ):
        once = dumps(doc)
        assert dumps(save(load(json.loads(once)))) == once


def test_dot_output():
    p = build_poset(["lo", 'q"x', "hi"], [("lo", 'q"x'), ('q"x', "hi")])
    dot = poset_to_dot(p, name="demo")
    assert dot.startswith('digraph "demo" {')
    assert '"lo" -> "q\\"x";' in dot
    assert dot.count("->") == 2
    assert dot.endswith("}\n")
