"""Run the monotone search over a fixed set of poset pairs and pin the
bytes of every sequence it yields, with its node count and cap trip.

The enumeration is checked against a brute-force oracle in the tests,
which compare sorted sets of maps; this script pins the exact order in
which ``iter_monotone_assignments`` yields them instead, the number of
nodes ``_search`` visits, and where it stops when it runs out of its
budget.  So a change to the search that keeps every map but yields
them in another order, visits one node more or less, or trips its cap
at another node shows up here.  The pairs are every (a, x) of
``all_posets(4)``, under a cap of 60 nodes, which trips mid-search on
the larger hom-sets, and under the default cap; then 120 seeded pairs
of random posets with 5 to 8 elements, each under a cap of 2000 nodes.
For each case the digest takes the ``repr`` of the yielded tuples, in
the order yielded, then the nodes visited, then the ``visited`` of the
``SizeCapExceeded`` that ended it (None when the search finished).  It
is the sha256 of all of them, case by case.  Exit status 0 when the
count and the digest match, 1 otherwise.  Run from the repository
root:

    PYTHONPATH=src python tests/search_digest.py
"""

import hashlib
import random
import sys
import time

from kaninj import SizeCapExceeded, all_posets, build_poset, size_cap
from kaninj.poset import _search, iter_monotone_assignments

COUNT = 1370
DIGEST = "ea051c3a35a42d8e26f3814a7b57307b0bc95b4de5f3807f134984f33d30c544"


def random_poset(rng: random.Random, n: int):
    names = [f"p{v}" for v in rng.sample(range(10 * n), n)]
    density = rng.choice((0.15, 0.3, 0.5))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return build_poset(names, pairs)


def cases():
    small = all_posets(4)
    for cap in (60, size_cap()):
        for a in small:
            for x in small:
                yield a, x, cap
    rng = random.Random(20261021)
    for _ in range(120):
        yield random_poset(rng, rng.randint(5, 8)), random_poset(rng, rng.randint(5, 8)), 2000


def run(a, x, cap) -> tuple:
    """The yielded sequence, the nodes visited and the cap trip."""
    seq, trip = [], None
    try:
        for t in iter_monotone_assignments(a, x, cap=cap):
            seq.append(t)
    except SizeCapExceeded as exc:
        trip = exc.visited
    # the same search, to read its node count
    spent = [0]
    try:
        for _ in _search(a, x, [x.full_mask] * a.n, cap, spent):
            pass
    except SizeCapExceeded:
        pass
    return seq, spent[0], trip


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    for a, x, cap in cases():
        digest.update(repr(run(a, x, cap)).encode())
        count += 1
    got = digest.hexdigest()
    print(f"{count} searches in {time.perf_counter() - start:.2f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} searches, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
