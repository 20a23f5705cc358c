"""JSON and DOT encodings.

Poset files are {"elements": [...], "leq": [[a, b], ...]} where the pair
list is any generating set of inequalities; the closure is implied and
cover pairs are what gets written back.  Map files are {"dom": poset,
"cod": poset, "map": {label: label}}; class files are {"name": ...,
"maps": [map, ...]}.  Every label is a JSON string; anything else is
malformed input (ValueError).  All emission is deterministically
ordered so equal inputs give byte-equal output.
"""

from __future__ import annotations

import json

from .catalog import MapClass
from .poset import MonotoneMap, Poset, build_poset

__all__ = [
    "poset_to_json",
    "poset_from_json",
    "map_to_json",
    "map_from_json",
    "class_to_json",
    "class_from_json",
    "poset_to_dot",
    "dumps",
]


def poset_to_json(p: Poset) -> dict:
    return {
        "elements": list(p.elements),
        "leq": sorted([p.elements[i], p.elements[j]] for i, j in p.cover_pairs),
    }


def _shape_error(msg: str) -> ValueError:
    return ValueError("malformed poset description: " + msg)


def poset_from_json(data) -> Poset:
    if not isinstance(data, dict):
        raise _shape_error("expected an object")
    elements = data.get("elements")
    if not isinstance(elements, list) or any(not isinstance(e, str) for e in elements):
        raise _shape_error("'elements' must be a list of labels")
    pairs = data.get("leq", [])
    if not isinstance(pairs, list) or any(
        not isinstance(q, (list, tuple)) or len(q) != 2 or not all(isinstance(e, str) for e in q)
        for q in pairs
    ):
        raise _shape_error("'leq' must be a list of pairs of labels")
    return build_poset(elements, [tuple(q) for q in pairs])


def map_to_json(m: MonotoneMap) -> dict:
    return {
        "dom": poset_to_json(m.dom),
        "cod": poset_to_json(m.cod),
        "map": m.as_dict(),
    }


def map_from_json(data) -> MonotoneMap:
    if not isinstance(data, dict) or not isinstance(data.get("map"), dict):
        raise ValueError("malformed map description: expected dom/cod/map")
    if any(not isinstance(v, str) for v in data["map"].values()):
        raise ValueError("malformed map description: 'map' values must be labels")
    dom = poset_from_json(data.get("dom"))
    cod = poset_from_json(data.get("cod"))
    stray = [lbl for lbl in data["map"] if lbl not in dom.index]
    if stray:
        raise ValueError(f"malformed map description: {stray[0]!r} is not in the domain")
    try:
        assignment = [cod.index[data["map"][lbl]] for lbl in dom.elements]
    except KeyError as e:
        raise ValueError(f"map does not cover label {e}") from None
    return MonotoneMap(dom, cod, assignment)


def class_to_json(c: MapClass) -> dict:
    return {"name": c.name, "maps": [map_to_json(m) for m in c.maps]}


def class_from_json(data) -> MapClass:
    if not isinstance(data, dict) or not isinstance(data.get("maps"), list):
        raise ValueError("malformed class description: expected name/maps")
    name = data.get("name", "H")
    if not isinstance(name, str):
        raise ValueError("malformed class description: 'name' must be a label")
    return MapClass(name, tuple(map_from_json(m) for m in data["maps"]))


def _q(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    """Hasse diagram: one edge per cover pair, drawn upward."""
    lines = ["digraph " + _q(name) + " {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for lbl in p.elements:
        lines.append(f"  {_q(lbl)};")
    for i, j in sorted(p.cover_pairs):
        lines.append(f"  {_q(p.elements[i])} -> {_q(p.elements[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
