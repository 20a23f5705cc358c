"""Reflect antichain(6) under bot+join and check the whole chain.

This is the largest reflection that finishes: its odd stages reach 2822
elements and it takes several seconds, so it is a script rather than a
test (pytest collects only ``test_*.py``) and tier-1 does not pay for it.
It checks convergence, the stage sizes, the 64 elements of the reflected
poset and the whole-chain digest of ``test_chain.chain_digest``, recorded
with an even step that computed every value set of every span.  It also
checks the closed form of the free bot+join completion: with unit d, the
map phi(r) = {x : d(x) <= r} is an order-isomorphism from the reflection
onto the down-sets of antichain(6), all 64 subsets.  It prints its time
and peak RSS.  Exit status 0 when all hold, 1 otherwise.  Run from the
repository root:

    PYTHONPATH=src python tests/reflect_antichain6.py
"""

import resource
import sys
import time

from kaninj import antichain, class_bottom_join, reflect

from test_chain import chain_digest

STAGE_SIZES = [6, 43, 22, 470, 57, 2822, 64, 911, 64]
ELEMENTS = 64
DIGEST = "3500452b41970cb3c0891089561e33798f736554c03b536e9df5d74b3075f793"


def down_sets(x) -> set:
    """Every down-set of x as a bitmask over its elements."""
    return {
        mask for mask in range(1 << x.n)
        if all(x.down_masks[i] & ~mask == 0 for i in range(x.n) if mask >> i & 1)
    }


def closed_form_failure(x, r):
    """None when phi(s) = {i : unit(i) <= s} is an order-isomorphism from
    r.reflected onto the down-sets of x, else what fails."""
    refl, unit = r.reflected, r.unit.assignment
    phi = [sum(1 << i for i in range(x.n) if refl.leq[unit[i], s]) for s in range(refl.n)]
    if set(phi) != down_sets(x) or len(phi) != len(set(phi)):
        return "phi is not a bijection onto the down-sets"
    for s in range(refl.n):
        for t in range(refl.n):
            if bool(refl.leq[s, t]) != (phi[s] & ~phi[t] == 0):
                return f"phi does not preserve and reflect {refl.elements[s]} <= {refl.elements[t]}"
    return None


def main() -> int:
    x = antichain(6)
    start = time.perf_counter()
    r = reflect(x, class_bottom_join())
    elapsed = time.perf_counter() - start
    sizes = [s.n for s in r.trace.stages]
    digest = chain_digest(r)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"reflect(antichain(6), bot+join): {elapsed:.1f} s, peak RSS {rss_mb:.0f} MB, stages {sizes}")
    failures = []
    if not r.converged:
        failures.append("did not converge")
    if sizes != STAGE_SIZES:
        failures.append(f"stage sizes {sizes}, expected {STAGE_SIZES}")
    if r.reflected.n != ELEMENTS:
        failures.append(f"{r.reflected.n} elements, expected {ELEMENTS}")
    if digest != DIGEST:
        failures.append(f"chain digest {digest}, expected {DIGEST}")
    if r.converged:
        bad = closed_form_failure(x, r)
        if bad:
            failures.append(f"closed form: {bad}")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
