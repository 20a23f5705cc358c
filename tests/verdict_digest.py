"""Decide every poset with at most 5 elements for each standard class and
its cone class, and a fixed sample of maps, and pin the bytes of every
report.

The verdicts are checked against brute-force oracles in the tests; this
script pins their exact output instead, so that a change to the scan or
to the adjoint cross-check that keeps every verdict but moves one
witness, one failure or one ``cross_check`` value shows up.  The digest
is the sha256 of the concatenated canonical JSON (``dumps``) of, class
by class (each standard class, then its cone class) and poset by poset
in ``all_posets(5)`` order, the ``is_injective`` report, the
``is_weakly_injective`` report and the ``verdict`` string; then, class
by class, of the ``is_injective_map`` report of every monotone map
between posets with at most 3 elements, in ``all_posets(3)`` order of
domain and codomain and ``enumerate_monotone`` order of map.  Exit
status 0 when the count and the digest match, 1 otherwise.  Run from
the repository root:

    PYTHONPATH=src python tests/verdict_digest.py
"""

import hashlib
import sys
import time

from kaninj import (
    all_posets,
    cone_class,
    dumps,
    enumerate_monotone,
    is_injective,
    is_injective_map,
    is_weakly_injective,
    standard_classes,
    verdict,
)

COUNT = 4494
DIGEST = "5bf41aeedf8d7c1b975f560653ab662ba72568c799fa96726e14cbcd803b6bcf"


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    classes = [c for k in standard_classes() for c in (k, cone_class(k))]
    for klass in classes:
        for x in all_posets(5):
            digest.update(dumps(is_injective(x, klass).to_json()).encode())
            digest.update(dumps(is_weakly_injective(x, klass).to_json()).encode())
            digest.update(dumps(verdict(x, klass)).encode())
            count += 3
    small = all_posets(3)
    for klass in classes:
        for x in small:
            for y in small:
                for p in enumerate_monotone(x, y):
                    digest.update(dumps(is_injective_map(p, klass).to_json()).encode())
                    count += 1
    got = digest.hexdigest()
    print(f"{count} reports in {time.perf_counter() - start:.2f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} reports, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
