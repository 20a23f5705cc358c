"""Run all six verify suites at size 4, healthy and mutated, and check
every report.

At size 4 the suites take several seconds, so this is a script rather
than a test (pytest collects only ``test_*.py``) and tier-1 does not pay
for it; tier-1 pins the size-3 reports instead.  Each healthy report must
pass and each mutated one must fail, and the sha256 of each report's
canonical JSON must match the digest below, recorded while every row of
the preservation check still went through left_kan.  Exit status 0 when
all hold, 1 otherwise.  Run from the repository root:

    PYTHONPATH=src python tests/verify_size4.py
"""

import hashlib
import sys
import time

from kaninj import SUITES, dumps, run_suite

# (suite, mutate) -> sha256 of dumps(report.to_json())
DIGESTS = {
    ("bilimits", False): "7adc46a4a7693a93b95515d4956d9429cb3b7897b416ca03707890071ac158ba",
    ("bilimits", True): "0e3b1c570e20432e4d339276047cf7e505343724374f061ad7f54f38ef2fe26f",
    ("colimits", False): "c86b68c24b0f0ad2917a9c207ba32aae994510c5e3df47ef5a3e841fa4222fd6",
    ("colimits", True): "8edc315b9721e26e2298d9283f277eafedaee55318c6d17f70f9e36fa74fc7f9",
    ("cone", False): "40716f35d8590aa51dce6918eb0bc3dbea0fd77c254771db8343541ce8c1c3c0",
    ("cone", True): "2fe6e678a08df97345a9f64019c15ff72091281fabc53d2d69226ac4592114ba",
    ("kz", False): "1b5a141ecd1a2809f159a9779eab1e577fd1e59350f47c5d86facfb63c864636",
    ("kz", True): "d65e1239a0681420e39b2d6d22510a55d92d4a4c4d1b6bd1a906c5623fcad3fd",
    ("saturation", False): "9fc45a8dfa3ad4624978420beebc2f104112a8b71945068239b3ea6883c2c5ef",
    ("saturation", True): "94efc7a06e7c99ae5afbdabde883235f2f99e4fb38e0f7f9b0bfb3d311d0059c",
    ("smallness", False): "ff017a0f828194f12f850c25ef268613556ce0700d062e9dc5f114173e2a49b1",
    ("smallness", True): "73ebf5eb493d41b0fa75f8d87e65218a4c381202348a7534c529bf6bcc68c2a5",
}


def main() -> int:
    failures = []
    start = time.perf_counter()
    for name in sorted(SUITES):
        for mutate in (False, True):
            t = time.perf_counter()
            rep = run_suite(name, size=4, mutate=mutate)
            digest = hashlib.sha256(dumps(rep.to_json()).encode()).hexdigest()
            tag = f"{name}{' mutated' if mutate else ''}"
            print(f"{tag}: {time.perf_counter() - t:.2f} s, passed={rep.passed}")
            if rep.passed == mutate:
                failures.append(f"{tag} passed={rep.passed}, expected {not mutate}")
            if digest != DIGESTS[(name, mutate)]:
                failures.append(f"{tag} digest {digest}, expected {DIGESTS[(name, mutate)]}")
    print(f"all suites at size 4: {time.perf_counter() - start:.1f} s")
    for line in failures:
        print("FAIL:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
