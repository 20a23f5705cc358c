"""Write perfbench/reference.json, the outputs every benchmark run is
checked against.

Run once, from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It records the sha256 of the canonical JSON of {reflected, unit} for
every reflection the reflect workloads make, and the extend-sweep query
pool: for every class, every poset X with at most 4 elements and every
strong target P with at most 5, up to POOL_PER_STRATUM maps p: X -> P
drawn with a fixed seed, each with the truncated sha256 of the
canonical JSON of its extension along the unit.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kaninj  # noqa: E402
from workloads import (  # noqa: E402
    extension_digest,
    poset_id,
    reflect_key,
    reflection_digest,
)

POOL_PER_STRATUM = 3
POOL_SEED = 0


def main() -> None:
    classes = kaninj.standard_classes()
    corpus = kaninj.all_posets(4)
    reflect_digests = {}
    units = {}
    for k in classes:
        for x in corpus:
            r = kaninj.reflect(x, k)
            units[(k.name, poset_id(x))] = r
            reflect_digests[reflect_key(k.name, x)] = reflection_digest(r)
    for k in (kaninj.class_join(), kaninj.class_bottom_join()):
        for n in (4, 5):
            x = kaninj.antichain(n)
            reflect_digests[reflect_key(k.name, x)] = reflection_digest(kaninj.reflect(x, k))

    posets: list = []
    index: dict = {}

    def intern(p) -> int:
        pid = poset_id(p)
        if pid not in index:
            index[pid] = len(posets)
            posets.append(pid)
        return index[pid]

    rng = random.Random(POOL_SEED)
    queries = []
    for k in classes:
        for x in corpus:
            r = units[(k.name, poset_id(x))]
            for tgt in kaninj.strong_objects(5, k):
                maps = kaninj.enumerate_monotone(x, tgt)
                for p in rng.sample(maps, min(POOL_PER_STRATUM, len(maps))):
                    g = kaninj.extend_along_unit(p, r, k)
                    queries.append(
                        [k.name, intern(x), intern(tgt), list(p.assignment), extension_digest(g)]
                    )

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    # one table row per line, so a changed digest shows as a one-line diff
    rows = ",\n".join(json.dumps(q, separators=(",", ":")) for q in queries)
    with open(path, "w") as fh:
        fh.write('{"reflect": ' + json.dumps(reflect_digests, sort_keys=True, indent=1) + ",\n")
        fh.write('"extend": {"posets": ' + json.dumps(posets, indent=1) + ",\n")
        fh.write('"queries": [\n' + rows + "\n]}}\n")
    print(f"wrote {len(reflect_digests)} reflection and {len(queries)} extension digests to {path}")


if __name__ == "__main__":
    main()
