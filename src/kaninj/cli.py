"""Command line front end.

Exit codes are uniform across commands: 0 success (or strong verdict),
1 property failure (or neither verdict), 2 invalid input, 3 weak-only
verdict, 4 reflection did not converge.  All structured output is JSON
on stdout with sorted keys; diagnostics go to stderr.  The search budget
is the environment's KANINJ_SIZE_CAP (``config.size_cap()``), checked
before any command runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import MapClass, all_posets
from .chain import extend_along_unit, reflect
from .config import size_cap
from .errors import KanInjError, NotConverged, NotInjectiveTarget
from .hom import is_dense, left_kan
from .injectivity import is_injective, is_weakly_injective, mapping_cone
from .poset import MonotoneMap, Poset
from .saturation import closure_check
from .serialize import (
    class_from_json,
    dumps,
    map_from_json,
    map_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from .verify import SUITES, run_suite, witness_menu

__all__ = ["main", "console_main"]


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _poset(path: str, dual: bool) -> Poset:
    p = poset_from_json(_load(path))
    return p.dual() if dual else p


def _map(path: str, dual: bool) -> MonotoneMap:
    m = map_from_json(_load(path))
    if dual:
        # duality keeps element labels, so the assignment carries over
        return MonotoneMap(m.dom.dual(), m.cod.dual(), m.assignment)
    return m


def _class(path: str, dual: bool) -> MapClass:
    k = class_from_json(_load(path))
    if dual:
        maps = tuple(
            MonotoneMap(h.dom.dual(), h.cod.dual(), h.assignment) for h in k.maps
        )
        return MapClass(k.name, maps)
    return k


def cmd_kan(args: argparse.Namespace) -> int:
    f = _map(args.f, args.dual)
    h = _map(args.h, args.dual)
    res = left_kan(f, h)
    print(dumps(res.to_json()), end="")
    return 0 if res.exists else 1


def cmd_dense(args: argparse.Namespace) -> int:
    f = _map(args.f, args.dual)
    ok = is_dense(f)
    print(dumps({"dense": ok, "map": map_to_json(f)}), end="")
    return 0 if ok else 1


def cmd_injective(args: argparse.Namespace) -> int:
    x = _poset(args.poset, args.dual)
    klass = _class(args.klass, args.dual)
    if args.weak:
        rep = is_weakly_injective(x, klass)
        print(dumps(rep.to_json()), end="")
        return 0 if rep.weak else 1
    rep = is_injective(x, klass)
    print(dumps(rep.to_json()), end="")
    if rep.strong:
        return 0
    return 3 if rep.weak else 1


def _write_dot(directory: str, name: str, p: Poset) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".dot")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_dot(p))


def cmd_reflect(args: argparse.Namespace) -> int:
    x = _poset(args.poset, args.dual)
    klass = _class(args.klass, args.dual)
    result = reflect(x, klass, max_steps=args.max_steps)
    out = {
        "converged": result.converged,
        "stages_used": result.stages_used,
        "reflected": poset_to_json(result.reflected),
        "unit": map_to_json(result.unit),
        "stage_sizes": [s.n for s in result.trace.stages],
    }
    if args.trace:
        out["stages"] = [poset_to_json(s) for s in result.trace.stages]
        out["connectors"] = [map_to_json(c) for c in result.trace.connectors]
    print(dumps(out), end="")
    if args.dot_dir:
        for i, s in enumerate(result.trace.stages):
            _write_dot(args.dot_dir, f"stage{i}", s)
        _write_dot(args.dot_dir, "reflected", result.reflected)
    return 0 if result.converged else 4


def cmd_extend(args: argparse.Namespace) -> int:
    p = _map(args.map, args.dual)
    klass = _class(args.klass, args.dual)
    result = reflect(p.dom, klass, max_steps=args.max_steps)
    ext = extend_along_unit(p, result, klass)
    out = {
        "unit": map_to_json(result.unit),
        "extension": map_to_json(ext),
        "stages_used": result.stages_used,
    }
    print(dumps(out), end="")
    return 0


def cmd_cone(args: argparse.Namespace) -> int:
    klass = _class(args.klass, args.dual)
    cones = []
    for h in klass:
        c, i, j, _rho = mapping_cone(h)
        cones.append(
            {
                "h": map_to_json(h),
                "cone": poset_to_json(c),
                "i": map_to_json(i),
                "j": map_to_json(j),
            }
        )
    print(dumps({"name": klass.name, "cones": cones}), end="")
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    klass = _class(args.klass, args.dual)
    sample = all_posets(args.size)
    rows = []
    ok_all = True
    for w in witness_menu(klass):
        ok = closure_check(w, klass, sample)
        ok_all = ok_all and ok
        rows.append(
            {"recipe": w.recipe, "map": map_to_json(w.produced), "ok": ok}
        )
    print(dumps({"name": klass.name, "witnesses": rows, "ok": ok_all}), end="")
    return 0 if ok_all else 1


def cmd_verify(args: argparse.Namespace) -> int:
    rep = run_suite(args.suite, size=args.size, mutate=args.mutate)
    print(dumps(rep.to_json()), end="")
    return 0 if rep.passed else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    posets = all_posets(args.n)
    out = {
        "max_elements": args.n,
        "count": len(posets),
        "posets": [poset_to_json(p) for p in posets],
    }
    print(dumps(out), end="")
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _steps(text: str) -> int:
    value = int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"must be even and at least 2, got {text}")
    return value


def _add_common(sp: argparse.ArgumentParser, run) -> None:
    """The command default and --dual, for the subcommands that read files."""
    sp.set_defaults(run=run)
    sp.add_argument("--dual", action="store_true",
                    help="order-reverse all inputs (right Kan injectivity)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kaninj",
        description="Kan injectivity and free-algebra reflections in finite posets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kan", help="least extension of f along h")
    sp.add_argument("f", help="JSON file for f")
    sp.add_argument("h", help="JSON file for h")
    _add_common(sp, cmd_kan)

    sp = sub.add_parser("dense", help="whether a map is dense")
    sp.add_argument("f", help="JSON file for the map")
    _add_common(sp, cmd_dense)

    sp = sub.add_parser("injective", help="injectivity verdict for a poset")
    sp.add_argument("poset", help="JSON file for the poset")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--weak", action="store_true",
                    help="ask only for extension existence")
    _add_common(sp, cmd_injective)

    sp = sub.add_parser("reflect", help="run the reflection chain")
    sp.add_argument("poset", help="JSON file for the poset")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--max-steps", type=_steps, default=16, dest="max_steps")
    sp.add_argument("--trace", action="store_true",
                    help="include every stage in the output")
    sp.add_argument("--dot", dest="dot_dir", default=None, metavar="DIR",
                    help="write Hasse diagrams of all stages to DIR")
    _add_common(sp, cmd_reflect)

    sp = sub.add_parser("extend", help="extend a map along the reflection unit")
    sp.add_argument("map", help="JSON file for p: X -> P, P strongly injective")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--max-steps", type=_steps, default=16, dest="max_steps")
    _add_common(sp, cmd_extend)

    sp = sub.add_parser("cone", help="mapping cones of a class")
    sp.add_argument("klass", help="JSON file for the map class")
    _add_common(sp, cmd_cone)

    sp = sub.add_parser("saturate", help="closure-check generated witnesses")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--size", type=_positive, default=3,
                    help="the closure sample holds the posets with at most this "
                         "many elements; the search budget is KANINJ_SIZE_CAP")
    _add_common(sp, cmd_saturate)

    sp = sub.add_parser("verify", help="run a named invariant suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--size", type=_positive, default=3,
                    help="the suite's corpus holds the posets with at most this "
                         "many elements; the search budget is KANINJ_SIZE_CAP")
    sp.add_argument("--mutate", action="store_true",
                    help="corrupt the construction; the suite must fail")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("enumerate", help="all posets up to n elements")
    sp.add_argument("n", type=int)
    sp.set_defaults(run=cmd_enumerate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        size_cap()  # a malformed KANINJ_SIZE_CAP fails every command up front
        return args.run(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotInjectiveTarget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KanInjError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
