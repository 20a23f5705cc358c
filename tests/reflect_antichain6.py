"""Reflect antichain(6) under bot+join and check the whole chain.

This is the largest reflection that finishes: its odd stages reach 2822
elements and it takes several seconds, so it is a script rather than a
test (pytest collects only ``test_*.py``) and tier-1 does not pay for it.
It checks convergence, the stage sizes, the 64 elements of the reflected
poset and the whole-chain digest of ``test_chain.chain_digest``, recorded
with an even step that computed every value set of every span.  Exit
status 0 when all hold, 1 otherwise.  Run from the repository root:

    PYTHONPATH=src python tests/reflect_antichain6.py
"""

import sys
import time

from kaninj import antichain, class_bottom_join, reflect

from test_chain import chain_digest

STAGE_SIZES = [6, 43, 22, 470, 57, 2822, 64, 911, 64]
ELEMENTS = 64
DIGEST = "3500452b41970cb3c0891089561e33798f736554c03b536e9df5d74b3075f793"


def main() -> int:
    start = time.perf_counter()
    r = reflect(antichain(6), class_bottom_join())
    elapsed = time.perf_counter() - start
    sizes = [s.n for s in r.trace.stages]
    digest = chain_digest(r)
    print(f"reflect(antichain(6), bot+join): {elapsed:.1f} s, stages {sizes}")
    failures = []
    if not r.converged:
        failures.append("did not converge")
    if sizes != STAGE_SIZES:
        failures.append(f"stage sizes {sizes}, expected {STAGE_SIZES}")
    if r.reflected.n != ELEMENTS:
        failures.append(f"{r.reflected.n} elements, expected {ELEMENTS}")
    if digest != DIGEST:
        failures.append(f"chain digest {digest}, expected {DIGEST}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
