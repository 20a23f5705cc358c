"""Byte-level golden test for ``kaninj reflect --trace``.

The digest of every traced reflection of the <=4-element corpus under
each shipped class is pinned in ``golden_reflect_trace.json``.  The
document hashed is exactly what the CLI prints: stages, connectors,
reflected, unit and stage sizes, as canonical JSON.  Any change to an
intermediate stage, a connector, or the labels of either shows up here,
not only changes to the final reflection.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python3 tests/test_trace_golden.py > tests/golden_reflect_trace.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from kaninj import all_posets, poset_to_json, standard_classes
from kaninj.cli import main
from kaninj.serialize import class_to_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reflect_trace.json")


def trace_digests(directory: str) -> dict:
    out = {}
    for klass in standard_classes():
        kpath = os.path.join(directory, f"class-{klass.name}.json")
        with open(kpath, "w", encoding="utf-8") as fh:
            json.dump(class_to_json(klass), fh)
        for k, x in enumerate(all_posets(4)):
            xpath = os.path.join(directory, f"x{k}.json")
            with open(xpath, "w", encoding="utf-8") as fh:
                json.dump(poset_to_json(x), fh)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["reflect", xpath, kpath, "--trace"])
            key = f"{klass.name}/{k}"
            out[key] = {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    return out


def test_reflect_trace_bytes_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = trace_digests(str(tmp_path))
    assert len(got) == 75
    assert sorted(got) == sorted(golden)
    changed = [k for k in golden if got[k] != golden[k]]
    assert not changed, f"trace output changed for {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write(json.dumps(trace_digests(d), sort_keys=True, indent=2) + "\n")
