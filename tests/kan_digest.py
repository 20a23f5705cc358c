"""Compute left Kan extensions, preservation and density over small
posets and pin the bytes of every answer.

The answers are checked against brute-force oracles in the tests; this
script pins their exact output instead, including the route
``left_kan`` names as its method, which the verdict digest leaves out.
The maps h are those of each standard class and of its cone class, then
the collapse map chain(2) -> point, each once, in that order.  The
digest is the sha256 of the ``repr`` of, in turn:

- for each h, each x in ``all_posets(4)`` and each f: dom h -> x in
  ``enumerate_monotone`` order, ``left_kan(f, h)``'s exists, strict,
  method and extension assignment;
- the same for every monotone h between posets with at most 3 elements
  and every f: dom h -> x with x of at most 3 elements, where the
  value-set route also finds extensions, strict and not;
- for each h, each monotone p between posets with at most 3 elements
  that are both strong along h, ``preserves_kan(p, h)``;
- for each monotone map f between posets with at most 3 elements,
  ``is_dense(f)``.

Posets run in ``all_posets`` order, domain before codomain.  Exit status
0 when the count and the digest match, 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src python tests/kan_digest.py
"""

import hashlib
import sys
import time

from kaninj import (
    MapClass,
    MonotoneMap,
    all_posets,
    chain,
    cone_class,
    enumerate_monotone,
    is_dense,
    left_kan,
    point,
    preserves_kan,
    standard_classes,
    verdict,
)

COUNT = 42143
DIGEST = "62511f84ab65c9d29b447d4449be90529d2a94a221fd808a68add3cd2f87d59c"


def maps_along() -> list:
    found = {}
    for klass in standard_classes():
        for h in klass.maps + cone_class(klass).maps:
            found.setdefault(h.key(), h)
    collapse = MonotoneMap(chain(2), point(), [0, 0])
    found.setdefault(collapse.key(), collapse)
    return list(found.values())


def kan(f, h) -> tuple:
    r = left_kan(f, h)
    ext = r.extension.assignment if r.extension else None
    return "kan", h.assignment, f.assignment, r.exists, r.strict, r.method, ext


def answers():
    hs = maps_along()
    small = all_posets(3)
    for h in hs:
        for x in all_posets(4):
            for f in enumerate_monotone(h.dom, x):
                yield kan(f, h)
    for a in small:
        for b in small:
            for h in enumerate_monotone(a, b):
                for x in small:
                    for f in enumerate_monotone(a, x):
                        yield kan(f, h)
    for h in hs:
        along = MapClass("h", (h,))
        strong = [x for x in small if verdict(x, along) == "strong"]
        for x in strong:
            for y in strong:
                for p in enumerate_monotone(x, y):
                    yield "preserves", p.assignment, preserves_kan(p, h)
    for x in small:
        for y in small:
            for f in enumerate_monotone(x, y):
                yield "dense", f.assignment, is_dense(f)


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    start = time.perf_counter()
    for answer in answers():
        digest.update(repr(answer).encode())
        count += 1
    got = digest.hexdigest()
    print(f"{count} answers in {time.perf_counter() - start:.2f} s, sha256 {got}")
    failures = []
    if count != COUNT:
        failures.append(f"{count} answers, expected {COUNT}")
    if got != DIGEST:
        failures.append(f"digest {got}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
