"""Runtime knobs.

The only knob is the enumeration cap: a bound on the number of
backtracking nodes any single monotone-map search may visit (the
searches that certify one row of a ``monotone_value_sets`` call share
one).  It guards the |X|^|A| blowup without punishing searches that
prune well.
The environment variable KANINJ_SIZE_CAP overrides the default; a value
that is not a positive integer is an error, not a silent fallback.
Every search reads it when it runs; only the injectivity cross-check's
hom-sets give a search a fixed budget of its own, through
``iter_monotone_assignments``'s ``cap``.
"""

import os

DEFAULT_SIZE_CAP = 10_000_000


def size_cap() -> int:
    raw = os.environ.get("KANINJ_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0  # rejected below, with the raw text in the message
    if value <= 0:
        raise ValueError(f"KANINJ_SIZE_CAP must be a positive integer, got {raw!r}")
    return value
