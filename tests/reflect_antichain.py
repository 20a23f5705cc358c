"""Reflect antichain(6), antichain(7) and, when named, antichain(8) under bot+join.

The odd stages of antichain(7) reach 9059 elements and those of
antichain(8) 39223, so this is a script rather than a test (pytest
collects only ``test_*.py``) and tier-1 does not pay for it.  For each
size it checks convergence, the stage sizes, the elements of the
reflected poset and the whole-chain digest of
``test_chain.chain_digest``; the antichain(6) digest was recorded with
an even step that computed every value set of every span, the
antichain(7) one with the dense closure that predates bitset
reachability, and the antichain(8) one with the even step that first
inserted only the minimal forced pairs, the first to finish it.  It
also checks the closed form of the free bot+join completion
(``oracles.closed_form_failure``): with unit d, the map
phi(r) = {x : d(x) <= r} is an order-isomorphism from the reflection
onto the down-sets of antichain(n), all 2^n subsets.  It prints each
run's time and the peak RSS of the process after it; sizes run in ascending order, so that is
the peak of the run just printed, and it fails when that peak passes
the size's ceiling in ``PEAK_RSS_CEILING_MB``.  ``reflect`` keeps each
result in its bounded cache, so that peak also holds the smaller
reflections run before it in the same process.  Exit status 0 when all
hold, 1 otherwise.  Run from the repository root, optionally naming
sizes; with none it runs 6 and 7, since 8 (``OPT_IN``) takes about half
a minute and 1.8 GB:

    PYTHONPATH=src python tests/reflect_antichain.py [6] [7] [8]
"""

import resource
import sys
import time

from kaninj import antichain, class_bottom_join, reflect

from oracles import closed_form_failure
from test_chain import chain_digest

# n -> (stage sizes, elements of the reflection, whole-chain digest)
EXPECTED = {
    6: (
        [6, 43, 22, 470, 57, 2822, 64, 911, 64],
        64,
        "3500452b41970cb3c0891089561e33798f736554c03b536e9df5d74b3075f793",
    ),
    7: (
        [7, 57, 29, 821, 99, 9059, 128, 6711, 128],
        128,
        "9edf68e3f283f7964187fb4033beb1089747674c4dba30ed676529231a9c6c68",
    ),
    8: (
        [8, 73, 37, 1342, 163, 25363, 256, 39223, 256],
        256,
        "c4b0a4511bd7d1afdd248c29560e320b7f230a040b105b542804bb3881c78ec1",
    ),
}

# sizes that run only when named
OPT_IN = {8}

# n -> most MB of peak RSS allowed after reflecting antichain(n): about
# 25 % above 67, 182 and 2000 MB, measured on x86-64 Linux with the even
# step inserting only the minimal forced pairs (105 and 679 MB for
# antichain(6) and antichain(7) when it inserted every forced pair, 115
# and 803 MB when every poset also kept an n x n boolean matrix, 1353 MB
# for antichain(7) when glue built a tuple per pair).  With the even step
# asking for every span's value sets of a class map in one call, the
# peaks were 66, 169-172 and 1766 MB.
PEAK_RSS_CEILING_MB = {6: 84, 7: 228, 8: 2500}


def check(n: int) -> list:
    """Reflect antichain(n), print its time and peak RSS, return failures."""
    stage_sizes, elements, expected_digest = EXPECTED[n]
    x = antichain(n)
    start = time.perf_counter()
    r = reflect(x, class_bottom_join())
    elapsed = time.perf_counter() - start
    sizes = [s.n for s in r.trace.stages]
    digest = chain_digest(r)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"reflect(antichain({n}), bot+join): {elapsed:.1f} s, peak RSS {rss_mb:.0f} MB, stages {sizes}")
    failures = []
    if not r.converged:
        failures.append("did not converge")
    if sizes != stage_sizes:
        failures.append(f"stage sizes {sizes}, expected {stage_sizes}")
    if r.reflected.n != elements:
        failures.append(f"{r.reflected.n} elements, expected {elements}")
    if digest != expected_digest:
        failures.append(f"chain digest {digest}, expected {expected_digest}")
    if rss_mb > PEAK_RSS_CEILING_MB[n]:
        failures.append(f"peak RSS {rss_mb:.0f} MB, ceiling {PEAK_RSS_CEILING_MB[n]} MB")
    if r.converged:
        bad = closed_form_failure(x, "bot+join", r)
        if bad:
            failures.append(f"closed form: {bad}")
    return [f"antichain({n}): {line}" for line in failures]


def main(argv) -> int:
    sizes = sorted(int(a) for a in argv) or sorted(set(EXPECTED) - OPT_IN)
    failures = [line for n in sizes for line in check(n)]
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
