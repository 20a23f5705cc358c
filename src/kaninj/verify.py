"""Named verification suites over a small canonical corpus.

Each suite runs one family of structural properties and returns a
deterministic report: kz (the lax-idempotent laws), saturation (closure
witnesses), cone (the weak-to-strong reduction), bilimits (finite
products of injectives), colimits (universal properties of recorded
constructions), smallness (factorization through finite chain stages,
plus enumeration counts).  ``mutate=True`` deliberately corrupts the
construction under test; a healthy suite must then fail, which is how
the suites themselves are tested.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .catalog import (
    MapClass,
    all_posets,
    antichain,
    chain,
    point,
    product,
    standard_classes,
    vee,
)
from .chain import kz_laws, reflect
from .colimits import (
    chain_colimit,
    cocomma,
    coequinserter,
    coinserter,
    coproduct,
    pushout,
    record_colimits,
    verify_universal,
    wide_pushout,
)
from .errors import NotConverged
from .hom import is_dense
from .injectivity import _subject, is_injective_map, is_weakly_injective, mapping_cone, verdict
from .poset import (
    MonotoneMap,
    TwoCell,
    enumerate_monotone,
    iter_monotone_assignments,
    two_cell_exists,
)
from .saturation import (
    SaturationWitness,
    closure_check,
    sat_compose,
    sat_iso,
    sat_lari,
    sat_pushout,
    sat_reflection,
    sat_wide_pushout,
)

__all__ = ["Check", "SuiteReport", "SUITES", "run_suite", "witness_menu"]


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"label": self.label, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def suite_kz(size: int = 3, mutate: bool = False) -> SuiteReport:
    """Laws of the induced KZ structure over every poset up to ``size``
    and every standard class.  Mutation replaces each reflection by a
    version with a stray isolated point, which density must catch."""
    checks = []
    for klass in standard_classes():
        for x in all_posets(size):
            label = f"kz[{klass.name}]{_subject(x)}"
            if mutate:
                result = reflect(x, klass)
                broken = coproduct([result.reflected, point("stray")])
                unit = result.unit.then(broken.injections[0])
                checks.append(
                    Check(label, is_dense(unit), "mutated unit should not be dense")
                )
                continue
            try:
                report = kz_laws(x, klass, free_cap=6)
            except NotConverged:
                checks.append(Check(label, False, "chain did not stabilize"))
                continue
            detail = "" if report.ok else str(report.to_json())
            checks.append(Check(label, report.ok, detail))
    return SuiteReport("kz", tuple(checks))


def witness_menu(klass: MapClass) -> list:
    """A spread of saturation witnesses built from the class and from
    scratch, at least one per construction rule."""
    out = []
    bottom_incl = MonotoneMap(point(), chain(2), [0])
    out.append(sat_lari(MonotoneMap.identity(vee())))
    out.append(sat_lari(bottom_incl))
    zchain = chain(2, prefix="z")
    out.append(
        sat_iso(
            sat_lari(bottom_incl),
            MonotoneMap(point("q"), point(), [0]),
            MonotoneMap(chain(2), zchain, [0, 1]),
        )
    )
    step = MonotoneMap(chain(2), chain(3), [0, 1])
    out.append(sat_compose(sat_lari(bottom_incl), sat_lari(step)))
    for h in klass.maps:
        fs = enumerate_monotone(h.dom, chain(2))
        if fs:
            out.append(sat_pushout(h, fs[0], "pushout"))
        out.append(sat_pushout(h, MonotoneMap.identity(h.dom), "cocomma"))
        out.append(sat_wide_pushout([h, h]))
        ident_d = MonotoneMap.identity(h.dom)
        ident_c = MonotoneMap.identity(h.cod)
        out.append(sat_reflection(h, ident_d, ident_c, ident_d, ident_c, h))
    # a retract with distinct endpoints: the identity on the point sits
    # inside the bottom inclusion via lari corners, which is sound for
    # every class; class-specific retracts live in the test-suite
    out.append(
        sat_reflection(
            sat_lari(bottom_incl),
            MonotoneMap.identity(point()),
            bottom_incl,
            MonotoneMap.identity(point()),
            MonotoneMap(chain(2), point(), [0, 0]),
            MonotoneMap.identity(point()),
        )
    )
    return out


def suite_saturation(size: int = 3, mutate: bool = False) -> SuiteReport:
    """Every constructed witness must pass closure_check on the sample;
    the deliberately unsaturated collapse map must fail on the posets
    with at most max(size, 2) elements, as one element cannot refute it.
    Mutation flips that expectation, so a healthy run then fails."""
    checks = []
    sample = all_posets(size)
    for klass in standard_classes():
        for k, w in enumerate(witness_menu(klass)):
            ok = closure_check(w, klass, sample)
            checks.append(Check(f"sat[{klass.name}]:{k}:{w.recipe}", ok))
        fake = SaturationWitness(MonotoneMap(chain(2), point(), [0, 0]), "assumed")
        fake_ok = closure_check(fake, klass, all_posets(max(size, 2)))
        expected = fake_ok if mutate else not fake_ok
        checks.append(
            Check(
                f"sat[{klass.name}]:negative-control",
                expected,
                "collapsing a 2-chain onto a point must fail closure",
            )
        )
    return SuiteReport("saturation", tuple(checks))


def _cone_classes() -> list:
    """Standard classes plus the collapse map, where the weak and strong
    notions genuinely differ."""
    collapse = MapClass("collapse", (MonotoneMap(chain(2), point(), [0, 0]),))
    return list(standard_classes()) + [collapse]


def suite_cone(size: int = 3, mutate: bool = False) -> SuiteReport:
    """Weak injectivity along a class is strong injectivity along the
    cone legs, for objects and for maps.  Mutation swaps in the codomain
    leg of each cone, which breaks the equivalence."""
    checks = []
    for klass in _cone_classes():
        leg = 2 if mutate else 1
        cones = MapClass(
            f"cone({klass.name})", tuple(mapping_cone(h)[leg] for h in klass.maps)
        )
        for x in all_posets(size):
            weak = is_weakly_injective(x, klass).weak
            strong = verdict(x, cones) == "strong"
            checks.append(
                Check(
                    f"cone-obj[{klass.name}]{_subject(x)}",
                    weak == strong,
                    f"weak={weak} cone-strong={strong}",
                )
            )
        disagreements = 0
        small = all_posets(max(size - 1, 2))
        for x in small:
            for y in small:
                for p in enumerate_monotone(x, y):
                    weak = is_injective_map(p, klass).weak
                    strong = is_injective_map(p, cones).strong
                    if weak != strong:
                        disagreements += 1
        checks.append(
            Check(
                f"cone-maps[{klass.name}]",
                disagreements == 0,
                f"{disagreements} map-level disagreements",
            )
        )
    return SuiteReport("cone", tuple(checks))


def suite_bilimits(size: int = 3, mutate: bool = False) -> SuiteReport:
    """Finite products of strong objects are strong and the projections
    are strong maps.  Mutation tests the coproduct instead, which is not
    a product and must fail."""
    checks = []
    for klass in standard_classes():
        strong = [x for x in all_posets(size) if verdict(x, klass) == "strong"]
        for i, x in enumerate(strong):
            for y in strong[i:]:
                label = f"prod[{klass.name}]{_subject(x)}x{_subject(y)}"
                if mutate:
                    wrong = coproduct([x, y]).object
                    checks.append(
                        Check(
                            label,
                            verdict(wrong, klass) == "strong",
                            "coproduct posing as product",
                        )
                    )
                    continue
                prod, pi1, pi2 = product(x, y)
                ok = (
                    verdict(prod, klass) == "strong"
                    and is_injective_map(pi1, klass).strong
                    and is_injective_map(pi2, klass).strong
                )
                checks.append(Check(label, ok))
    return SuiteReport("bilimits", tuple(checks))


def _sample_colimits() -> list:
    """Deterministic spread of colimit computations: two reflections run
    under recording, plus one of each standalone construction."""
    with record_colimits() as rec:
        reflect(chain(2), standard_classes()[0])
        reflect(antichain(2), standard_classes()[1])
        f = MonotoneMap(antichain(2), chain(2), [0, 1])
        pushout(f, standard_classes()[1].maps[0])
        cocomma(f, MonotoneMap.identity(antichain(2)))
        coproduct([vee(), chain(2)])
        wide_pushout(antichain(2), [f, f])
        g = MonotoneMap(antichain(2), chain(2), [1, 1])
        coinserter(f, g)
        stages = [chain(1), chain(2), chain(3)]
        conns = [
            MonotoneMap(chain(1), chain(2), [0]),
            MonotoneMap(chain(2), chain(3), [0, 1]),
        ]
        chain_colimit(stages, conns)
    seen = {}
    for res in rec:
        key = (res.kind, res.gen_labels, res.gen_pairs, res.object.key)
        seen.setdefault(key, res)
    return list(seen.values())


def suite_colimits(size: int = 3, mutate: bool = False) -> SuiteReport:
    """verify_universal over a recorded spread of computations, plus the
    thin-setting identity coequinserter = coinserter on generated
    parallel pairs.  Mutation drops a generating pair from one result.
    verify_universal is a complete proof, so ``size`` does not change
    these checks."""
    checks = []
    sampled = _sample_colimits()
    if mutate:
        victim = max(
            (r for r in sampled if len(r.pairs)),
            key=lambda r: len(r.pairs),
        )
        sampled = [dataclasses.replace(victim, pairs=victim.pairs[:-1])]
    for k, res in enumerate(sampled):
        rep = verify_universal(res)
        checks.append(Check(f"universal[{k}:{res.kind}]", rep.ok, rep.failure or ""))
    count = 0
    pool = all_posets(2)
    empty = chain(0, prefix="e")
    for u in pool:
        for x in pool:
            for f in enumerate_monotone(u, x):
                for g in enumerate_monotone(u, x):
                    if count >= 25:
                        continue
                    if two_cell_exists(f, g):
                        h = MonotoneMap.identity(u)
                    else:
                        h = MonotoneMap(empty, u, [])
                    gamma = TwoCell(h.then(f), h.then(g))
                    ci = coinserter(f, g)
                    ce = coequinserter(h, f, g, gamma)
                    same = (
                        ce.object == ci.object
                        and ce.injections == ci.injections
                        and ce.gen_pairs == ci.gen_pairs
                    )
                    checks.append(Check(f"coequinserter=coinserter[{count}]", same))
                    count += 1
    return SuiteReport("colimits", tuple(checks))


_KNOWN_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def suite_smallness(size: int = 3, mutate: bool = False) -> SuiteReport:
    """Every map from a small poset into a chain-prefix colimit factors
    through a finite stage, and the poset enumeration matches the known
    isomorphism counts.  Mutation only offers the first stage to factor
    through.

    A map m: a -> colimit factors when its assignment is one of the
    composite tuples inj_i∘g over the usable stages i and g: a -> X_i.
    Those are gathered into one set per poset a, stage by stage in
    order and only as far as the first map that is not yet in it needs,
    so each stage is enumerated at most once per a."""
    checks = []
    for n in range(min(size + 2, 5) + 1):
        got = len(all_posets(n)) - (len(all_posets(n - 1)) if n else 0)
        checks.append(
            Check(f"count[{n}]", got == _KNOWN_COUNTS[n], f"{got} classes of size {n}")
        )
    instances = [
        (chain(2), standard_classes()[0]),
        (antichain(2), standard_classes()[1]),
        (antichain(2), standard_classes()[2]),
    ]
    for x, klass in instances:
        result = reflect(x, klass, max_steps=4)
        state = result.trace
        omega = chain_colimit(state.stages, state.connectors)
        usable = 1 if mutate else len(state.stages)
        bad = 0
        for a in all_posets(size):
            # inj_i∘g for every g: a -> stage i, i < reached; a stage is
            # enumerated once, and only when some map needs it
            through: set = set()
            reached = 0
            for m in enumerate_monotone(a, omega.object):
                while m.assignment not in through and reached < usable:
                    inj = omega.injections[reached].assignment
                    through.update(
                        tuple(inj[v] for v in g)
                        for g in iter_monotone_assignments(a, state.stages[reached])
                    )
                    reached += 1
                if m.assignment not in through:
                    bad += 1
        checks.append(
            Check(
                f"factor[{klass.name}]",
                bad == 0,
                f"{len(state.stages)} stages, {bad} unfactored maps",
            )
        )
    return SuiteReport("smallness", tuple(checks))


SUITES = {
    "kz": suite_kz,
    "saturation": suite_saturation,
    "cone": suite_cone,
    "bilimits": suite_bilimits,
    "colimits": suite_colimits,
    "smallness": suite_smallness,
}


def run_suite(name: str, size: int = 3, mutate: bool = False) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](size=size, mutate=mutate)
