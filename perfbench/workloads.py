"""The four benchmark workloads, their inputs and their output checks.

Each workload's ``setup(seed, ref)`` builds everything a pass needs and
returns a list of ``Op``s.  An op is one call into the library
(``run``) plus the check of its output (``check``, which returns None
when the output is right and a reason otherwise).  The seed fixes the
call order (except for verify-suites, see there) and, for extend-sweep,
which pool query each stratum uses.

Every library function is looked up on the ``kaninj`` package at call
time, so the tracing wrappers installed after set-up are the ones called.

Why these workloads:

* reflect-small: many small reflections (every poset with at most 4
  elements, each shipped class).  No input repeats, so a verdict cache
  cannot hit; time is spread over glue, monotone_value_sets and the
  is_injective postcondition.
* reflect-wide: four reflections whose odd stages reach hundreds of
  elements; step_even and the connector recomposition dominate, and the
  peak memory is set here.
* extend-sweep: extend_along_unit over a stratified sample of maps into
  strong targets; 25 targets per class are re-decided on every call and
  glue is never reached.
* verify-suites: all six verify suites, healthy and mutated; the only
  workload that reaches closure_check, verify_universal and the suites.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import kaninj

# stored extension digests are truncated to this many hex digits
EXT_DIGEST_HEX = 16


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def poset_id(p) -> str:
    """Compact canonical JSON of a poset; the key of reference tables."""
    return json.dumps(kaninj.poset_to_json(p), separators=(",", ":"))


def reflection_digest(r) -> str:
    doc = {"reflected": kaninj.poset_to_json(r.reflected), "unit": kaninj.map_to_json(r.unit)}
    return hashlib.sha256(kaninj.dumps(doc).encode()).hexdigest()


def extension_digest(g) -> str:
    return hashlib.sha256(kaninj.dumps(kaninj.map_to_json(g)).encode()).hexdigest()[:EXT_DIGEST_HEX]


def reflect_key(klass_name: str, x) -> str:
    return klass_name + " " + poset_id(x)


# -- closed forms --------------------------------------------------------


def down_set_count(x) -> int:
    """Number of down-sets of x (the empty one included), by brute force
    over subset bitmasks of its order matrix."""
    n = x.n
    below = [0] * n
    for j in range(n):
        for i in range(n):
            if x.leq[i, j]:
                below[j] |= 1 << i
    return sum(
        all(not (s >> j) & 1 or below[j] & ~s == 0 for j in range(n))
        for s in range(1 << n)
    )


def expected_size(x, klass_name: str) -> int:
    """Size of the free strong completion of x: a new bottom for bot,
    the non-empty down-sets for join, all down-sets for bot+join."""
    if klass_name == "bot":
        return x.n + 1
    if klass_name == "join":
        return down_set_count(x) - 1
    if klass_name == "bot+join":
        return down_set_count(x)
    raise ValueError(f"no closed form for class {klass_name!r}")


# -- workloads -----------------------------------------------------------


def _reflect_op(x, klass, ref) -> Op:
    key = reflect_key(klass.name, x)
    want_size = expected_size(x, klass.name)
    want_digest = ref["reflect"].get(key)

    def check(r) -> Optional[str]:
        if not r.converged:
            return f"{key}: not converged"
        if r.reflected.n != want_size:
            return f"{key}: size {r.reflected.n}, closed form {want_size}"
        if want_digest is None:
            return f"{key}: no reference digest"
        if reflection_digest(r) != want_digest:
            return f"{key}: canonical JSON changed"
        return None

    return Op(lambda: kaninj.reflect(x, klass), check)


def setup_reflect_small(seed: int, ref) -> list:
    corpus = kaninj.all_posets(4)
    ops = [_reflect_op(x, k, ref) for k in kaninj.standard_classes() for x in corpus]
    random.Random(seed).shuffle(ops)
    return ops


def setup_reflect_wide(seed: int, ref) -> list:
    ops = [
        _reflect_op(kaninj.antichain(n), k, ref)
        for k in (kaninj.class_join(), kaninj.class_bottom_join())
        for n in (4, 5)
    ]
    random.Random(seed).shuffle(ops)
    return ops


def setup_extend_sweep(seed: int, ref) -> list:
    classes = kaninj.standard_classes()
    corpus = kaninj.all_posets(4)
    targets = {k.name: kaninj.strong_objects(5, k) for k in classes}
    units = {(k.name, poset_id(x)): kaninj.reflect(x, k) for k in classes for x in corpus}
    by_id = {poset_id(p): p for p in corpus}
    for k in classes:
        by_id.update((poset_id(p), p) for p in targets[k.name])
    klass_of = {k.name: k for k in classes}

    table = ref["extend"]
    pool: dict = {}
    for cls, xi, pi, assignment, digest in table["queries"]:
        pool.setdefault((cls, xi, pi), []).append((assignment, digest))
    rng = random.Random(seed)
    ops = []
    for (cls, xi, pi), choices in sorted(pool.items()):
        assignment, digest = rng.choice(choices)
        x, tgt = by_id[table["posets"][xi]], by_id[table["posets"][pi]]
        p = kaninj.MonotoneMap(x, tgt, assignment)
        ops.append(_extend_op(p, units[(cls, table["posets"][xi])], klass_of[cls], digest))
    rng.shuffle(ops)
    return ops


def _extend_op(p, r, klass, digest) -> Op:
    unit = r.unit.assignment

    def check(g) -> Optional[str]:
        if tuple(g.assignment[u] for u in unit) != p.assignment:
            return f"{klass.name} {p!r}: extension does not restrict to p"
        if extension_digest(g) != digest:
            return f"{klass.name} {p!r}: canonical JSON changed"
        return None

    return Op(lambda: kaninj.extend_along_unit(p, r, klass), check)


def setup_verify_suites(seed: int, ref) -> list:
    # The order is fixed, not drawn from the seed: the suites share
    # process-wide caches, so reordering them moves cost from one call
    # to another and makes the per-call median depend on the seed.
    return [_suite_op(name, mutate) for name in sorted(kaninj.SUITES) for mutate in (False, True)]


def _suite_op(name: str, mutate: bool) -> Op:
    def check(report) -> Optional[str]:
        if report.passed == mutate:
            state = "mutated" if mutate else "healthy"
            return f"{state} suite {name} {'passed' if mutate else 'failed'}"
        return None

    return Op(lambda: kaninj.run_suite(name, 3, mutate=mutate), check)


SETUPS = {
    "reflect-small": setup_reflect_small,
    "reflect-wide": setup_reflect_wide,
    "extend-sweep": setup_extend_sweep,
    "verify-suites": setup_verify_suites,
}
