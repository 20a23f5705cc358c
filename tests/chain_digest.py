"""Reflect every poset with at most 4 elements along each shipped class
and its cone class, and pin the bytes of every chain.

The reflections are checked against oracles and closed forms in the
tests, and ``test_chain.test_wide_chain_digest`` pins four wide chains;
this script pins the whole chain of every small one instead: its
stages, connectors, span records (stage, class map index, f, the
coprojection and ``strict_square``), gamma records and unit, as hashed
by ``test_chain.chain_digest``.  So a change to the odd or even step,
or to what a span record holds, that keeps every reflection but
changes a stage, a record or the order of either shows up here.  The
corpus is ``all_posets(4)`` under each of ``standard_classes()`` and
``cone_class`` of each.  The digest is the sha256 of, reflection by
reflection, the class name and the chain digest.  Exit status 0 when
the count and the digest match, 1 otherwise.  Run from the repository
root:

    PYTHONPATH=src python tests/chain_digest.py
"""

import hashlib
import sys
import time

from kaninj import all_posets, cone_class, reflect, standard_classes

from test_chain import chain_digest

COUNT = 150
DIGEST = "9bb9ece67452125404ab6ea90250c303ce3031dc86f296302257407983b870b1"


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    classes = list(standard_classes())
    for klass in classes + [cone_class(k) for k in classes]:
        for x in all_posets(4):
            digest.update(f"{klass.name} {chain_digest(reflect(x, klass))}\n".encode())
            count += 1
    got = digest.hexdigest()
    print(f"{count} chains in {time.perf_counter() - start:.1f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} chains, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
