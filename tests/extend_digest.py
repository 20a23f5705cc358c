"""Extend every map from each poset with at most 4 elements into every
strong target with at most 5 elements, for each standard class, and pin
the bytes of all 123,754 extensions.

The same extensions are checked one by one against a test oracle in the
acceptance tests (criterion 1); this script pins their exact output
instead, so that a change to the extension path that keeps every verdict
but moves one value shows up.  It takes about 12 s on a shared 2-vCPU
VM, about three quarters of it in the JSON and the hashing, so it is a
script rather than a test (pytest collects only ``test_*.py``).  The
digest is the sha256 of the concatenated canonical JSON (``dumps``) of
``map_to_json(extension)``, walked class by class, then poset by poset
in ``all_posets(4)`` order, target by target in ``strong_objects(5)``
order and map by map in ``enumerate_monotone`` order.  Exit status 0
when the count and the digest match, 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src python tests/extend_digest.py
"""

import hashlib
import sys
import time

from kaninj import (
    all_posets,
    dumps,
    enumerate_monotone,
    extend_along_unit,
    map_to_json,
    reflect,
    standard_classes,
    strong_objects,
)

COUNT = 123754
DIGEST = "3eb9d9bae277c6016a3f5abe0c8d0d7b75f4a64d3a5d2f4a472d246df0cf610d"


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    for klass in standard_classes():
        targets = strong_objects(5, klass)
        for x in all_posets(4):
            r = reflect(x, klass)
            for tgt in targets:
                for p in enumerate_monotone(x, tgt):
                    digest.update(dumps(map_to_json(extend_along_unit(p, r, klass))).encode())
                    count += 1
    got = digest.hexdigest()
    print(f"{count} extensions in {time.perf_counter() - start:.1f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} extensions, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
