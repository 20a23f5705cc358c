"""Command line front end.

Exit codes are uniform across commands: 0 success (or strong verdict),
1 property failure (or neither verdict), 2 invalid input, 3 weak-only
verdict, 4 reflection did not converge.  All structured output is JSON
on stdout with sorted keys; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

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

__all__ = ["RunConfig", "main", "console_main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one invocation needs."""

    command: str
    paths: tuple = ()
    cap: Optional[int] = None
    size: int = 3
    max_steps: int = 16
    trace: bool = False
    dot_dir: Optional[str] = None
    dual: bool = False
    weak: bool = False
    mutate: bool = False
    count: int = 0

    def __post_init__(self):
        if self.max_steps < 2 or self.max_steps % 2:
            raise ValueError("--max-steps must be even and at least 2")
        if self.cap is not None and self.cap <= 0:
            raise ValueError("--cap must be positive")
        if self.size <= 0:
            raise ValueError("--size-cap must be positive")


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


def cmd_kan(cfg: RunConfig) -> int:
    f = _map(cfg.paths[0], cfg.dual)
    h = _map(cfg.paths[1], cfg.dual)
    res = left_kan(f, h, cap=cfg.cap)
    print(dumps(res.to_json()), end="")
    return 0 if res.exists else 1


def cmd_dense(cfg: RunConfig) -> int:
    f = _map(cfg.paths[0], cfg.dual)
    ok = is_dense(f)
    print(dumps({"dense": ok, "map": map_to_json(f)}), end="")
    return 0 if ok else 1


def cmd_injective(cfg: RunConfig) -> int:
    x = _poset(cfg.paths[0], cfg.dual)
    klass = _class(cfg.paths[1], cfg.dual)
    if cfg.weak:
        rep = is_weakly_injective(x, klass, cap=cfg.cap)
        print(dumps(rep.to_json()), end="")
        return 0 if rep.weak else 1
    rep = is_injective(x, klass, cap=cfg.cap)
    print(dumps(rep.to_json()), end="")
    if rep.strong:
        return 0
    return 3 if rep.weak else 1


def _write_dot(directory: str, name: str, p: Poset) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".dot")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_dot(p))


def cmd_reflect(cfg: RunConfig) -> int:
    x = _poset(cfg.paths[0], cfg.dual)
    klass = _class(cfg.paths[1], cfg.dual)
    result = reflect(x, klass, max_steps=cfg.max_steps, cap=cfg.cap)
    out = {
        "converged": result.converged,
        "stages_used": result.stages_used,
        "reflected": poset_to_json(result.reflected),
        "unit": map_to_json(result.unit),
        "stage_sizes": [s.n for s in result.trace.stages],
    }
    if cfg.trace:
        out["stages"] = [poset_to_json(s) for s in result.trace.stages]
        out["connectors"] = [map_to_json(c) for c in result.trace.connectors]
    print(dumps(out), end="")
    if cfg.dot_dir:
        for i, s in enumerate(result.trace.stages):
            _write_dot(cfg.dot_dir, f"stage{i}", s)
        _write_dot(cfg.dot_dir, "reflected", result.reflected)
    return 0 if result.converged else 4


def cmd_extend(cfg: RunConfig) -> int:
    p = _map(cfg.paths[0], cfg.dual)
    klass = _class(cfg.paths[1], cfg.dual)
    result = reflect(p.dom, klass, max_steps=cfg.max_steps, cap=cfg.cap)
    ext = extend_along_unit(p, result, klass, cap=cfg.cap)
    out = {
        "unit": map_to_json(result.unit),
        "extension": map_to_json(ext),
        "stages_used": result.stages_used,
    }
    print(dumps(out), end="")
    return 0


def cmd_cone(cfg: RunConfig) -> int:
    klass = _class(cfg.paths[0], cfg.dual)
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


def cmd_saturate(cfg: RunConfig) -> int:
    klass = _class(cfg.paths[0], cfg.dual)
    sample = all_posets(cfg.size)
    rows = []
    ok_all = True
    for w in witness_menu(klass):
        ok = closure_check(w, klass, sample, cap=cfg.cap)
        ok_all = ok_all and ok
        rows.append(
            {"recipe": w.recipe, "map": map_to_json(w.produced), "ok": ok}
        )
    print(dumps({"name": klass.name, "witnesses": rows, "ok": ok_all}), end="")
    return 0 if ok_all else 1


def cmd_verify(cfg: RunConfig) -> int:
    rep = run_suite(cfg.paths[0], size=cfg.size, mutate=cfg.mutate, cap=cfg.cap)
    print(dumps(rep.to_json()), end="")
    return 0 if rep.passed else 1


def cmd_enumerate(cfg: RunConfig) -> int:
    posets = all_posets(cfg.count)
    out = {
        "max_elements": cfg.count,
        "count": len(posets),
        "posets": [poset_to_json(p) for p in posets],
    }
    print(dumps(out), end="")
    return 0


_DISPATCH = {
    "kan": cmd_kan,
    "dense": cmd_dense,
    "injective": cmd_injective,
    "reflect": cmd_reflect,
    "extend": cmd_extend,
    "cone": cmd_cone,
    "saturate": cmd_saturate,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cap", type=int, default=None,
                    help="search budget override (default: KANINJ_SIZE_CAP)")
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
    _add_common(sp)

    sp = sub.add_parser("dense", help="whether a map is dense")
    sp.add_argument("f", help="JSON file for the map")
    _add_common(sp)

    sp = sub.add_parser("injective", help="injectivity verdict for a poset")
    sp.add_argument("poset", help="JSON file for the poset")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--weak", action="store_true",
                    help="ask only for extension existence")
    _add_common(sp)

    sp = sub.add_parser("reflect", help="run the reflection chain")
    sp.add_argument("poset", help="JSON file for the poset")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--max-steps", type=int, default=16, dest="max_steps")
    sp.add_argument("--trace", action="store_true",
                    help="include every stage in the output")
    sp.add_argument("--dot", dest="dot_dir", default=None, metavar="DIR",
                    help="write Hasse diagrams of all stages to DIR")
    _add_common(sp)

    sp = sub.add_parser("extend", help="extend a map along the reflection unit")
    sp.add_argument("map", help="JSON file for p: X -> P, P strongly injective")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--max-steps", type=int, default=16, dest="max_steps")
    _add_common(sp)

    sp = sub.add_parser("cone", help="mapping cones of a class")
    sp.add_argument("klass", help="JSON file for the map class")
    _add_common(sp)

    sp = sub.add_parser("saturate", help="closure-check generated witnesses")
    sp.add_argument("klass", help="JSON file for the map class")
    sp.add_argument("--size-cap", type=int, default=3, dest="size",
                    help="corpus bound for the closure sample")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run a named invariant suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--size-cap", type=int, default=3, dest="size",
                    help="corpus bound for the suite")
    sp.add_argument("--mutate", action="store_true",
                    help="corrupt the construction; the suite must fail")
    _add_common(sp)

    sp = sub.add_parser("enumerate", help="all posets up to n elements")
    sp.add_argument("n", type=int)
    _add_common(sp)

    return ap


def _config_from(args: argparse.Namespace) -> RunConfig:
    paths = []
    for name in ("f", "h", "poset", "map", "klass", "suite"):
        val = getattr(args, name, None)
        if val is not None:
            paths.append(val)
    n = getattr(args, "n", 0)
    if args.command == "enumerate" and n < 0:
        raise ValueError("n must be nonnegative")
    size_cap()  # a malformed KANINJ_SIZE_CAP fails every command up front
    return RunConfig(
        command=args.command,
        paths=tuple(paths),
        cap=getattr(args, "cap", None),
        size=getattr(args, "size", 3),
        max_steps=getattr(args, "max_steps", 16),
        trace=getattr(args, "trace", False),
        dot_dir=getattr(args, "dot_dir", None),
        dual=getattr(args, "dual", False),
        weak=getattr(args, "weak", False),
        mutate=getattr(args, "mutate", False),
        count=n,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from(args)
        return _DISPATCH[cfg.command](cfg)
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
