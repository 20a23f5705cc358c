"""Spans around kaninj's layer entry points, installed from outside.

``install(tracer)`` replaces each entry point in ``LAYERS`` by a wrapper
under every name a kaninj module looks it up by (``kaninj.chain.glue``,
``kaninj.chain.is_injective``, ...).  Modules are reached through
``sys.modules``: the package attribute ``kaninj.chain`` is the catalog
function, not the module.

A span records its id, the benchmark call (request) it belongs to, its
parent span, its layer name, its start and end, and its self time: its
duration minus the part covered by its child spans.  A generator entry
point is timed only while it runs (each resumption is one segment), so
the consumer's work between items is not charged to it.  Spans stay in
memory until ``write``.

Self times are reported in seconds (``<layer>.self_s``) and as shares of
the time spent inside benchmark calls (``<layer>.self_share``, with
``trace.call_s`` as the base).  BENCHMARK.json lists the shares: a layer
a workload never reaches has self time exactly 0 on every run, and the
shares are not times.

Counts that explain the times (stage sizes, spans minted, even-step
pairs, glue sizes, left_kan methods) are read from return values and
kept in ``Tracer.counts``; they repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # (id, request, parent, name_id, start, end, self_s)
        self.stack: list = []  # open frames: [id, start, child_s]
        self.request = -1
        self._next_id = 0
        self.counts: Counter = Counter()
        self.injective_seen: set = set()
        self.stage_sizes: list = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def parent_id(self) -> int:
        return self.stack[-1][0] if self.stack else -1

    def enter(self, sid: int) -> list:
        frame = [sid, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> tuple:
        """Close frame; return (end, self time) and charge its duration
        to the enclosing frame."""
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        if self.stack:
            self.stack[-1][2] += dur
        return end, dur - frame[2]

    def record(self, sid, parent, nid, start, end, self_s) -> None:
        self.spans.append((sid, self.request, parent, nid, start, end, self_s))

    def call(self, request: int, fn):
        """Run one benchmark call as the root span of its request."""
        self.request = request
        return self.span(self.name_id("bench.call"), fn, (), {})

    def span(self, nid: int, fn, args, kwargs):
        sid, parent = self.new_id(), self.parent_id()
        frame = self.enter(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            end, self_s = self.leave(frame)
            self.record(sid, parent, nid, frame[1], end, self_s)

    # -- aggregation ----------------------------------------------------

    def layer_totals(self) -> dict:
        """{layer: (calls, self_s)} over every recorded span."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for _, _, _, nid, _, _, s in self.spans:
            calls[nid] += 1
            self_s[nid] += s
        return {self.names[n]: (calls[n], self_s[n]) for n in calls}

    def children_named(self, parent_layer: str, child_layer: str) -> int:
        """Spans of parent_layer with at least one direct child span of
        child_layer."""
        pid, cid = self._name_ids.get(parent_layer), self._name_ids.get(child_layer)
        parents = {s[0] for s in self.spans if s[3] == pid}
        return len({s[2] for s in self.spans if s[3] == cid and s[2] in parents})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["id", "request", "parent", "name", "start", "end", "self_s"],
                    "spans": sorted(self.spans),
                },
                fh,
                separators=(",", ":"),
            )


# -- wrappers --------------------------------------------------------------


def wrap_function(tracer: Tracer, layer, fn, after=None):
    """layer is the span name, or a function of the call's arguments
    that returns it; after(tracer, args, kwargs, result) records counts."""
    fixed = None if callable(layer) else tracer.name_id(layer)

    def traced(*args, **kwargs):
        nid = fixed if fixed is not None else tracer.name_id(layer(args, kwargs))
        out = tracer.span(nid, fn, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return traced


def wrap_generator(tracer: Tracer, layer: str, fn, yielded_key: str):
    nid = tracer.name_id(layer)

    def traced(*args, **kwargs):
        sid, parent = tracer.new_id(), tracer.parent_id()
        start = perf_counter()
        self_s = 0.0
        gen = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self_s += tracer.leave(frame)[1]
                tracer.counts[yielded_key] += 1
                yield item
        finally:
            gen.close()
            tracer.record(sid, parent, nid, start, perf_counter(), self_s)

    return traced


# -- count hooks -------------------------------------------------------------


def _glue(t, args, kwargs, res):
    t.counts["colimits.glue.n_in"] += len(res.gen_labels)
    t.counts["colimits.glue.n_out"] += res.object.n


def _step_odd(t, args, kwargs, out):
    t.counts["chain.step_odd.spans_minted"] += len(out.span_registry) - len(args[0].span_registry)
    t.counts["chain.step_odd.stage_n"] += out.stages[-1].n


def _step_even(t, args, kwargs, out):
    fresh = out.gamma_registry[len(args[0].gamma_registry):]
    t.counts["chain.step_even.pairs"] += sum(g.pairs for g in fresh)
    t.counts["chain.step_even.stage_n"] += out.stages[-1].n


def _reflect(t, args, kwargs, r):
    sizes = [s.n for s in r.trace.stages]
    t.stage_sizes.append(sizes)
    t.counts["chain.reflect.reflected_n"] += r.reflected.n
    t.counts["chain.reflect.odd_minted"] += sum(sizes[1::2])


def _is_injective(t, args, kwargs, rep):
    x = args[0]
    klass = args[1] if len(args) > 1 else kwargs["klass"]
    t.injective_seen.add((x.key, tuple(h.key() for h in klass.maps)))


def _left_kan(t, args, kwargs, res):
    t.counts["hom.left_kan.pointwise"] += res.method == "pointwise"


def _suite_layer(args, kwargs) -> str:
    return "verify.run_suite." + (args[0] if args else kwargs["name"])


# (module, attribute, span name, count hook); the span name of run_suite
# carries the suite
LAYERS = (
    ("kaninj.poset", "monotone_value_sets", "poset.monotone_value_sets", None),
    ("kaninj.poset", "classify_adjoint", "poset.classify_adjoint", None),
    ("kaninj.hom", "left_kan", "hom.left_kan", _left_kan),
    ("kaninj.hom", "hom_poset", "hom.hom_poset", None),
    ("kaninj.injectivity", "is_injective", "injectivity.is_injective", _is_injective),
    ("kaninj.injectivity", "is_weakly_injective", "injectivity.is_weakly_injective", None),
    ("kaninj.injectivity", "is_injective_map", "injectivity.is_injective_map", None),
    ("kaninj.colimits", "glue", "colimits.glue", _glue),
    ("kaninj.colimits", "verify_universal", "colimits.verify_universal", None),
    ("kaninj.chain", "step_odd", "chain.step_odd", _step_odd),
    ("kaninj.chain", "step_even", "chain.step_even", _step_even),
    ("kaninj.chain", "reflect", "chain.reflect", _reflect),
    ("kaninj.chain", "extend_along_unit", "chain.extend_along_unit", None),
    ("kaninj.saturation", "closure_check", "saturation.closure_check", None),
    ("kaninj.verify", "run_suite", _suite_layer, None),
)


def _rebind(orig, wrapped) -> None:
    """Point every kaninj module-level name bound to orig at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kaninj" or mod_name.startswith("kaninj.")):
            continue
        for attr in [a for a, v in vars(mod).items() if v is orig]:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    mods = sys.modules
    for mod_name, attr, layer, after in LAYERS:
        orig = getattr(mods[mod_name], attr)
        _rebind(orig, wrap_function(tracer, layer, orig, after))
    orig = mods["kaninj.poset"].iter_monotone_assignments
    _rebind(
        orig,
        wrap_generator(
            tracer, "poset.iter_monotone_assignments", orig, "poset.iter_monotone_assignments.yielded"
        ),
    )
    chain_state = mods["kaninj.chain"].ChainState
    chain_state.connector = wrap_function(tracer, "chain.connector", chain_state.connector)


# -- per-layer metrics ---------------------------------------------------------
#
# Which end-to-end figure each layer should move, and where:
#   glue (calls, self_s, n_in, n_out, out_share): pass_s on reflect-small,
#     less on reflect-wide, never on extend-sweep.
#   monotone_value_sets, iter_monotone_assignments: pass_s on reflect-*.
#   connector: pass_s on reflect-wide.
#   step_odd/step_even and their counts, reflect.kept_ratio: pass_s and
#     peak_rss_mb on reflect-wide.
#   reflect / extend_along_unit: op_p50_ms on reflect-* / extend-sweep.
#   is_injective (calls/distinct is the re-decision ratio), the weak and
#     map verdicts: pass_s and op_p50_ms on extend-sweep, and about
#     15-20 % of reflect-small.
#   classify_adjoint: pass_s on extend-sweep and verify-suites.
#   left_kan (pointwise_share is the share settled without search),
#     hom_poset: op_p50_ms on extend-sweep, peak_rss_mb on verify-suites.
#   closure_check, verify_universal, run_suite per suite: pass_s on
#     verify-suites.

TIMED_LAYERS = (
    "colimits.glue",
    "poset.monotone_value_sets",
    "poset.iter_monotone_assignments",
    "chain.connector",
    "chain.step_odd",
    "chain.step_even",
    "chain.reflect",
    "chain.extend_along_unit",
    "injectivity.is_injective",
    "injectivity.is_weakly_injective",
    "injectivity.is_injective_map",
    "poset.classify_adjoint",
    "hom.left_kan",
    "saturation.closure_check",
    "colimits.verify_universal",
)
SUITES = ("bilimits", "colimits", "cone", "kz", "saturation", "smallness")
COUNTS = (
    "colimits.glue.n_in",
    "colimits.glue.n_out",
    "poset.iter_monotone_assignments.yielded",
    "chain.step_odd.spans_minted",
    "chain.step_odd.stage_n",
    "chain.step_even.pairs",
    "chain.step_even.stage_n",
    "hom.left_kan.pointwise",
)


def _share(num, den) -> float:
    """num/den, or 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    totals = t.layer_totals()
    call_s = sum(s[5] - s[4] for s in t.spans if s[2] == -1 and t.names[s[3]] == "bench.call")
    out = {"trace.call_s": call_s}
    for layer in TIMED_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[layer + ".calls"] = calls
        out[layer + ".self_s"] = self_s
        out[layer + ".self_share"] = _share(self_s, call_s)
    for key in COUNTS:
        out[key] = t.counts[key]
    c = t.counts
    out["colimits.glue.out_share"] = _share(c["colimits.glue.n_out"], c["colimits.glue.n_in"])
    out["chain.reflect.kept_ratio"] = _share(
        c["chain.reflect.reflected_n"], c["chain.reflect.odd_minted"]
    )
    out["hom.left_kan.pointwise_share"] = _share(
        c["hom.left_kan.pointwise"], out["hom.left_kan.calls"]
    )
    out["injectivity.is_injective.distinct"] = len(t.injective_seen)
    out["injectivity.is_injective.calls_per_distinct"] = _share(
        out["injectivity.is_injective.calls"], len(t.injective_seen)
    )
    out["hom.hom_poset.calls"] = totals.get("hom.hom_poset", (0, 0.0))[0]
    out["hom.hom_poset.built"] = t.children_named("hom.hom_poset", "poset.iter_monotone_assignments")
    suite_total = 0.0
    for suite in SUITES:
        s = totals.get("verify.run_suite." + suite, (0, 0.0))[1]
        out[f"verify.run_suite.{suite}.self_s"] = s
        out[f"verify.run_suite.{suite}.self_share"] = _share(s, call_s)
        suite_total += s
    out["verify.run_suite.self_s"] = suite_total
    out["verify.run_suite.self_share"] = _share(suite_total, call_s)
    return out
