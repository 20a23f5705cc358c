"""Close and collapse a seeded set of random presentations and pin the
bytes of every result.

The closure is checked against a brute-force oracle in the tests; this
script pins its exact output instead, including the ranking that
``close_and_collapse`` hands the poset as ``_ranked``, which follows
the order in which ``_reach`` finishes its components.  So a change to
the traversal that keeps every order but finishes the components in
another order shows up here.  The presentations are 400 small ones (0
to 40 generators, arcs mostly upward with some back arcs, so cycles
collapse; repeated arcs and self-loops included) and one of 3000
generators and 70,000 arcs, 300 of them back arcs, which fills more
than one slice of ``_reach``'s adjacency lists.  Labels are random,
so the label order is not the generator order.  The digest is the
sha256 of the ``repr`` of, presentation by presentation, the elements,
``up_masks``, ``collapse`` and both halves of ``_ranked``.  Exit status
0 when the count and the digest match, 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src python tests/closure_digest.py
"""

import hashlib
import random
import sys
import time

import numpy as np

from kaninj.poset import close_and_collapse

COUNT = 401
DIGEST = "c5bf14e2f1726480c33fe0659269dcbcd8e6f964d9ff4d56684b0c64b25065ad"


def presentation(rng: random.Random, n: int, m: int, back: float) -> tuple:
    labels = [f"g{v}" for v in rng.sample(range(10 * n + 1), n)]
    pairs = []
    for _ in range(m if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        if i > j and rng.random() >= back:
            i, j = j, i
        pairs.append((i, j))
    return labels, np.array(pairs, dtype=np.intp).reshape(-1, 2)


def presentations():
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randrange(41)
        yield presentation(rng, n, rng.randrange(3 * n + 1), rng.choice((0.0, 0.02, 0.1, 0.5)))
    labels, pairs = presentation(rng, 3000, 69700, 0.0)
    # back arcs, so that some cycles collapse
    back = [(i, i - rng.randrange(1, 200)) for i in rng.sample(range(200, 3000), 300)]
    yield labels, np.concatenate([pairs, np.array(back, dtype=np.intp)])


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    for labels, pairs in presentations():
        poset, collapse = close_and_collapse(labels, pairs)
        order, masks = poset._ranked
        digest.update(
            repr((poset.elements, poset.up_masks, collapse, tuple(order), tuple(masks))).encode()
        )
        count += 1
    got = digest.hexdigest()
    print(f"{count} presentations in {time.perf_counter() - start:.1f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} presentations, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
