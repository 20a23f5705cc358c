"""The Kan-injective reflection chain in posets.

Starting from X0 = X the chain alternates two moves.  The odd step
freely adjoins an extension witness for every span (h in the class,
f: dom(h) -> current stage): each span contributes the pushout of f
along h, and all pushouts are glued into one wide pushout over the
stage.  The even step quotients the previous odd stage until those
witnesses behave like least extensions: for every span recorded at any
even stage so far and every competing map g above the span's image, the
witness is forced below g.  The chain stops when one odd/even round
changes nothing up to isomorphism; the stage it stabilized on is the
reflection and the connecting map from X0 is the unit.

Thinness degenerates the bookkeeping pleasantly: every pushout square
commutes on the nose (checked), parallel 2-cells are equal so the
coequifier half of the even step contributes nothing (checked), and
all compositors of the chain are identities because connectors compose
as functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import config
from .cache import BoundedCache
from .catalog import MapClass
from .colimits import _RECORDERS, ColimitResult, chain_colimit, glue
from .errors import (
    DomainMismatch,
    NotConverged,
    NotInjectiveTarget,
    PostconditionFailed,
    QuotientViolation,
    SquareDoesNotCommute,
)
from .hom import _least_extension, is_dense, left_kan
from .injectivity import _extensions, _unpreserved, strong_objects, verdict
from .poset import (
    MonotoneMap,
    Poset,
    _bits,
    _bound_row,
    _check_monotone,
    enumerate_monotone,
    iter_monotone_assignments,
    monotone_value_sets,
)

__all__ = [
    "SpanRecord",
    "GammaRecord",
    "ChainState",
    "ReflectionResult",
    "KZReport",
    "init_chain",
    "step_odd",
    "step_even",
    "reflect",
    "extend_along_unit",
    "kz_laws",
]


@dataclass(frozen=True)
class SpanRecord:
    """One span processed by an odd step.

    stage is the even index the span was found at: f is the assignment
    of a map dom(h) -> X_stage and coproj that of the coprojection
    f//h: cod(h) -> X_{stage+1}.  h is the class map the span was minted
    for, at index h_index of its class, shared and not copied.
    strict_square records that the pushout square commuted exactly
    (always true here; kept because the construction only promises an
    inequality).
    """

    stage: int
    h_index: int
    h: MonotoneMap
    f: tuple
    coproj: tuple
    strict_square: bool


@dataclass(frozen=True)
class GammaRecord:
    """One span's contribution to an even step: whether any competing map
    g realized the 2-cell at that stage, and how many inequality pairs it
    generated."""

    stage: int
    span_index: int
    realized: bool
    pairs: int


@dataclass(frozen=True)
class ChainState:
    """Immutable snapshot of the chain: stages X0..Xk, one-step
    connectors, and the span/gamma registries the even steps quantify
    over.

    ``pushed`` carries every registered span pushed forward to the top
    stage, per class map: pushed[h index] is (its spans' registry
    indices, ascending; F; W), read-only intp arrays with a row per span
    of its floor x_{j,top}∘f and its witness x_{j+1,top}∘(f//h), for a
    span recorded at stage j.  Each step moves them on through its
    connector, so no step walks the registry.  Equality ignores them,
    since the registry determines them."""

    stages: tuple
    connectors: tuple
    span_registry: tuple = ()
    gamma_registry: tuple = ()
    pushed: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def top(self) -> int:
        return len(self.stages) - 1

    def connector(self, i: int, j: int) -> MonotoneMap:
        """Composite x_{i,j} of the connectors from stage i to stage j;
        x_{i,i} is the identity.  Composites of composites agree
        strictly, so all compositors are identities."""
        out = tuple(range(self.stages[i].n))
        for c in self.connectors[i:j]:
            step = c.assignment
            out = tuple(step[v] for v in out)
        return MonotoneMap(self.stages[i], self.stages[j], out, validate=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _push(pushed: dict, conn: np.ndarray) -> dict:
    """``ChainState.pushed`` moved on along a connector's intp assignment."""
    return {hi: (idx, _frozen(conn[fs]), _frozen(conn[ws])) for hi, (idx, fs, ws) in pushed.items()}


@dataclass(frozen=True)
class ReflectionResult:
    """Outcome of running the chain.

    When converged, reflected = X_i for the first even i with x_{i,i+2}
    an isomorphism, unit = x_{0,i}, and stages_used = i.  When not,
    reflected/unit describe the colimit of the computed prefix (the
    omega stage) and omega holds its full colimit presentation.  plans
    holds the extension plans of extend_along_unit, one per class,
    built on first use: the stages to replay and, compiled from them,
    the support route each call takes first (``_extension_plan``).  A
    result ``reflect`` returns is shared through its cache, so its plans
    live as long as the cached result.
    """

    reflected: Poset
    unit: MonotoneMap
    converged: bool
    stages_used: int
    trace: ChainState
    omega: Optional[ColimitResult] = field(default=None, compare=False)
    plans: dict = field(default_factory=dict, compare=False, repr=False)


def init_chain(x: Poset) -> ChainState:
    return ChainState((x,), ())


def _relabel(p: Poset, stage: int) -> Poset:
    """Copy of p with flat labels s<stage>x<k>, in p's index order, so a
    map into p is the same assignment into the copy.  Keeps stage posets
    from accumulating nested gluing tags.  The copy shares p's ranking
    (``Poset._ranked``), which labels do not change."""
    width = max(4, len(str(max(p.n - 1, 0))))
    labels = [f"s{stage}x{k:0{width}d}" for k in range(p.n)]
    out = Poset(labels, p.up_masks, validate=False)
    out._ranked = p._ranked
    return out


def step_odd(state: ChainState, klass: MapClass) -> ChainState:
    """Adjoin a pushout witness for every span out of the current stage.

    The spans are the monotone maps f: dom(h) -> stage for each h of the
    class, taken as sorted assignment tuples.  A span whose witness was
    already minted at an earlier stage is not minted again: its
    registered record, pushed forward along the connectors, is the same
    span, and the even steps keep constraining that copy.  Re-minting
    would only create a duplicate that the next quotient merges back,
    and the duplicates dominate the chain's cost.  The minted spans are
    read off the rows of the carried floors (``ChainState.pushed``), and
    a map is built only for a span that is minted.

    The witnesses for the remaining spans are glued in one step: one
    copy of the stage plus one copy of cod(h) per span, identified along
    the span legs.  That is the wide pushout of the spanwise pushouts,
    without materializing a full copy of the stage per span.  The
    relabelled stage keeps the pushout's index order, so the connector
    and each coprojection take the assignments of its injections as
    they are.  Every carried floor and witness moves on through the
    connector with one gather, and the minted spans' rows are appended
    as one array per class map.  Each square is checked on those rows,
    conn(f(a)) == coproj(h(a)) for every a; SquareDoesNotCommute
    otherwise.

    With no spans at all (empty class, or nothing maps in) the stage is
    repeated with an identity connector.
    """
    i = state.top
    if i % 2:
        raise ValueError("odd step must start from an even stage")
    xi = state.stages[i]
    minted = {(hi, tuple(f)) for hi, (_, fs, _) in state.pushed.items() for f in fs.tolist()}
    spans = [
        (hi, h, f)
        for hi, h in enumerate(klass)
        for f in sorted(iter_monotone_assignments(h.dom, xi))
        if (hi, f) not in minted
    ]
    if not spans:
        ident = MonotoneMap.identity(xi)
        return ChainState(
            state.stages + (xi,),
            state.connectors + (ident,),
            state.span_registry,
            state.gamma_registry,
            state.pushed,
        )
    pieces = [("x", xi)] + [
        ("w%d" % k, h.cod) for k, (_, h, _) in enumerate(spans)
    ]
    # per (span k, a): (x, f(a)) identified with (w_k, h(a))
    eq = np.array(
        [
            (0, fa, k, ha)
            for k, (_, h, f) in enumerate(spans, 1)
            for fa, ha in zip(f, h.assignment)
        ],
        dtype=np.intp,
    ).reshape(-1, 2, 2)
    wide = glue("wide_pushout", pieces, eq_pairs=eq)
    nxt = _relabel(wide.object, i + 1)
    conn = wide.injections[0].assignment
    coprojs = [inj.assignment for inj in wide.injections[1:]]
    push = np.array(conn, dtype=np.intp)
    pushed = _push(state.pushed, push)
    for hi, h in enumerate(klass):
        ks = [k for k, span in enumerate(spans) if span[0] == hi]
        if not ks:
            continue
        fs = push[np.array([spans[k][2] for k in ks], dtype=np.intp).reshape(len(ks), h.dom.n)]
        ws = np.array([coprojs[k] for k in ks], dtype=np.intp)
        if (ws[:, list(h.assignment)] != fs).any():
            raise SquareDoesNotCommute("pushout square must commute exactly")
        idx, old_fs, old_ws = pushed.get(hi, ((), fs[:0], ws[:0]))
        idx += tuple(len(state.span_registry) + k for k in ks)
        fs, ws = np.concatenate([old_fs, fs]), np.concatenate([old_ws, ws])
        pushed[hi] = (idx, _frozen(fs), _frozen(ws))
    records = tuple(
        SpanRecord(i, hi, h, f, coproj, True) for (hi, h, f), coproj in zip(spans, coprojs)
    )
    return ChainState(
        state.stages + (nxt,),
        state.connectors + (MonotoneMap(xi, nxt, conn, validate=False),),
        state.span_registry + records,
        state.gamma_registry,
        pushed,
    )


def step_even(state: ChainState, klass: MapClass) -> ChainState:
    """Quotient the odd stage by every coequinserter constraint.

    For each recorded span (h, f at even stage j) and each g out of
    cod(h) with x_{j,top}∘f <= g∘h, the span's witness must fall below g:
    insert (x_{j+1,top}∘(f//h))(b) <= g(b) for every b.  The union of
    those pairs over all g is, coordinatewise, {witness(b)} x {values
    some admissible g takes at b}, so value sets are computed once per
    span instead of enumerating every g.  The coequifier half
    contributes nothing: parallel 2-cells between monotone maps coincide.

    Only the points of cod(h) outside h's image can force a pair.  The
    pushout square of every span commutes exactly (step_odd checks it),
    so at b = h(a) the witness value is the floor value f(a), pushed
    forward; every admissible g has g(b) above it, and the set at b lies
    inside the up-set of the witness.  So per span the pass computes
    only whether an admissible g exists and the exact value set at each
    point outside the image (``poset.monotone_value_sets`` with those
    points).  The premise is checked on entry, once per class map on the
    carried rows (``ChainState.pushed``): SquareDoesNotCommute naming
    the first span whose witness at h(a) is not its floor at a.  The
    size cap bounds the value-set search of a cod(h) whose cover graph
    is not a forest.

    Quotienting can make further maps admissible (merging two witnesses
    creates upper bounds that did not exist before), so the constraint
    pass repeats on the quotient until nothing new is forced.  Without
    the inner fixpoint each odd step mints witnesses over not-yet-merged
    elements faster than single passes can retire them and the chain
    never stabilizes.  Each pass shrinks the stage or grows its order
    relation, so the loop terminates.

    The floors and witnesses arrive pushed forward to the odd stage and
    grouped by class map.  A pass gathers them through the quotient map
    so far, an intp array: for each class map h it builds one row of
    starting domains per span, column by column, row[h(a)] the meet of
    the up-sets of conn(floor(a)) (``poset._bound_row``), and asks
    ``monotone_value_sets`` for every row of h in one call.  The pairs
    a span forces at b are the bits of its set at b outside the up-set
    of its witness value; a pass collects them as one bitmask per
    witness value t, and drops its value sets before the quotient.  The
    quotient gets t <= v only for the minimal v of t's mask
    (``Poset.minimal``), which close to the same order; while a
    ``record_colimits()`` bucket is open it gets every forced pair, in
    ascending (t, v) order, so a recorded presentation lists them all.
    The carried rows leave through the even connector.
    """
    i1 = state.top
    if i1 % 2 == 0:
        raise ValueError("even step must start from an odd stage")
    x1 = state.stages[i1]
    # (h, points outside h's image, registry indices, floors, witnesses at the points)
    groups = []
    bad = []
    for hi, (idx, fs, ws) in sorted(state.pushed.items()):
        h = klass.maps[hi]
        wrong = (ws[:, list(h.assignment)] != fs).any(axis=1)
        if wrong.any():
            bad.append(idx[int(wrong.argmax())])
        points = [b for b in range(h.cod.n) if b not in h.assignment]
        groups.append((h, points, idx, fs, ws[:, points]))
    if bad:
        raise SquareDoesNotCommute(
            f"span {min(bad)}: its witness differs from its floor on the image of h"
        )
    cur = x1
    conn = np.arange(x1.n, dtype=np.intp)
    realized = [False] * len(state.span_registry)
    added_total = [0] * len(state.span_registry)
    while True:
        forced = [0] * cur.n
        up = cur.up_masks
        for h, points, idx, fs, tops in groups:
            rows = _bound_row(h, cur, conn[fs])
            # the value sets live only as long as this loop, not across glue
            for si, ts, sets in zip(
                idx, conn[tops].tolist(), monotone_value_sets(h.cod, cur, rows, points)
            ):
                realized[si] = sets is not None
                if sets is None:
                    continue
                added = 0
                for t, m in zip(ts, sets):
                    new = m & ~up[t]
                    if new:
                        forced[t] |= new
                        added += new.bit_count()
                added_total[si] += added
        if not any(forced):
            break
        ts = [t for t, m in enumerate(forced) if m]
        masks = [forced[t] for t in ts]
        if _RECORDERS:
            ks = [k for k, m in enumerate(masks) for _ in _bits(m)]
            vs = [v for m in masks for v in _bits(m)]
        else:
            ks, vs = cur.minimal(masks)
        pairs = np.zeros((len(vs), 2, 2), dtype=np.intp)
        pairs[:, 0, 1] = [ts[k] for k in ks]
        pairs[:, 1, 1] = vs
        res = glue("coequinserter", [("q", cur)], ineq_pairs=pairs)
        cur = res.object
        conn = np.array(res.injections[0].assignment, dtype=np.intp)[conn]
    gammas = tuple(
        GammaRecord(i1, si, realized[si], added_total[si])
        for si in range(len(state.span_registry))
    )
    return ChainState(
        state.stages + (cur,),
        state.connectors + (MonotoneMap(x1, cur, conn.tolist(), validate=False),),
        state.span_registry,
        state.gamma_registry + gammas,
        _push(state.pushed, conn),
    )


_REFLECTIONS = BoundedCache()


def reflect(x: Poset, klass: MapClass, max_steps: int = 16) -> ReflectionResult:
    """Run the chain until one odd/even round is an isomorphism.

    On convergence the reflected stage is checked to be strongly
    injective and the unit dense.  Hitting max_steps without converging
    is reported, not raised: the result then carries the colimit of the
    prefix, which is where the construction would continue from.

    The result depends only on x, the class's maps, max_steps and the
    size cap, so it is kept once per (x, class maps, max_steps,
    ``config.size_cap()``) in a bounded cache, and a later call returns
    the same object: it is shared and must not be mutated.  A call that
    raises stores nothing.  While a ``record_colimits()`` bucket is
    open the chain runs afresh and is not stored, so every glue it
    makes is recorded.
    """
    if max_steps < 2 or max_steps % 2:
        raise ValueError("max_steps must be even and at least 2")
    if _RECORDERS:
        return _run_chain(x, klass, max_steps)
    key = (x.key, tuple(h.key() for h in klass.maps), max_steps, config.size_cap())
    return _REFLECTIONS.get(key, lambda: _run_chain(x, klass, max_steps))


def _run_chain(x: Poset, klass: MapClass, max_steps: int) -> ReflectionResult:
    state = init_chain(x)
    while state.top < max_steps:
        state = step_odd(state, klass)
        state = step_even(state, klass)
        i = state.top - 2
        if state.connector(i, i + 2).is_order_iso():
            reflected = state.stages[i]
            unit = state.connector(0, i)
            if verdict(reflected, klass) != "strong":
                raise PostconditionFailed("reflected stage is not strongly injective")
            if not is_dense(unit):
                raise PostconditionFailed("reflection unit is not dense")
            return ReflectionResult(reflected, unit, True, i, state)
    omega = chain_colimit(state.stages, state.connectors)
    return ReflectionResult(
        omega.object, omega.injections[0], False, state.top, state, omega
    )


class _Supports(NamedTuple):
    """The support route of an extension plan.

    Along the pointwise route, every value the stagewise replay computes
    is the join in the target of p over a fixed subset of X, its support: stage-0 element k has
    {k}, a connector carries supports forward, and a span witness at b
    gets the union of the supports of f(a) over the a with h(a) <= b.
    masks are the distinct supports, as bitmasks over X; equal and
    ordered are (s, t) index pairs into masks whose joins must be equal,
    or ordered join s <= join t; result is the index of the support of
    each element of the reflection."""

    masks: tuple
    equal: tuple
    ordered: tuple
    result: tuple


def _put_support(support: list, at: tuple, masks, equal: set) -> None:
    """support[at[k]] = masks[k] where unset; a support that meets
    another one already there joins ``equal`` as a pair of masks."""
    for w, m in zip(at, masks):
        old = support[w]
        if old is None:
            support[w] = m
        elif old != m:
            equal.add((old, m))


def _compile_supports(n: int, steps: tuple) -> Optional[_Supports]:
    """The support route of the plan's steps over an X with n elements,
    walking them as the replay does; None when a stage is left with an
    element no connector or witness reaches.

    The pairs are those the replay compares by value: two supports put
    on one element (a quotient merge, or coprojections landing on one
    element) and each span's restriction, the witness at h(a) against
    f(a), must have equal joins; each stage's cover pairs (i, j) must
    have ordered ones.  A pair of equal masks, or a cover pair whose
    lower support lies inside the upper one, holds whenever the joins
    exist, so it is left out."""
    cur = [1 << k for k in range(n)]
    equal, ordered, seen = set(), set(), set(cur)
    for nxt, conn, spans in steps:
        support = [None] * nxt.n
        _put_support(support, conn, cur, equal)
        for h, f, coproj, below in spans:
            fs = [cur[a] for a in f]
            ext = []
            for under in below:
                m = 0
                for a in under:
                    m |= fs[a]
                ext.append(m)
            equal.update((ext[b], fa) for b, fa in zip(h.assignment, fs) if ext[b] != fa)
            _put_support(support, coproj, ext, equal)
        if None in support:
            return None
        ordered.update(
            (support[i], support[j]) for i, j in nxt.cover_pairs if support[i] & ~support[j]
        )
        seen.update(support)
        cur = support
    for pair in equal:
        seen.update(pair)
    masks = tuple(sorted(seen))
    index = {m: k for k, m in enumerate(masks)}
    return _Supports(
        masks,
        tuple(sorted((index[s], index[t]) for s, t in equal)),
        tuple(sorted((index[s], index[t]) for s, t in ordered)),
        tuple(index[m] for m in cur),
    )


def _extension_plan(result: ReflectionResult, klass: MapClass) -> tuple:
    """The plan extend_along_unit follows for this reflection and class,
    built on first use and kept on the result under the class's map keys.

    (steps, supports).  steps has one entry per stage i < stages_used:
    (X_{i+1}, the connector's assignment, the spans recorded at stage
    i).  A span is (h, f, coproj, h.below()), f and coproj the record's
    assignments and entry b of h.below() the a in dom(h) with h(a) <= b.
    supports is the support route compiled from those steps
    (``_compile_supports``), or None.  DomainMismatch when the class has
    no map at a span's index, or a map there other than the span's h
    (``MonotoneMap.key``): the class does not match the reflection.
    """
    key = tuple(h.key() for h in klass.maps)
    plan = result.plans.get(key)
    if plan is not None:
        return plan
    state = result.trace
    spans_at: dict = {}
    for rec in state.span_registry:
        if rec.stage >= result.stages_used:
            continue
        if rec.h_index >= len(klass.maps):
            raise DomainMismatch(
                f"class {klass.name} does not match the reflection: it has no map {rec.h_index}"
            )
        h = klass.maps[rec.h_index]
        if h.key() != rec.h.key():
            raise DomainMismatch(
                f"class {klass.name} does not match the reflection: "
                f"its map {rec.h_index} is not the one the span at stage {rec.stage} used"
            )
        spans_at.setdefault(rec.stage, []).append((h, rec.f, rec.coproj, h.below()))
    steps = tuple(
        (
            state.stages[i + 1],
            state.connectors[i].assignment,
            tuple(spans_at.get(i, ())),
        )
        for i in range(result.stages_used)
    )
    plan = (steps, _compile_supports(state.stages[0].n, steps))
    result.plans[key] = plan
    return plan


def _support_joins(target: Poset, values: tuple, masks: tuple) -> Optional[list]:
    """The join in target of the values over each support in masks, or
    None when one of those joins is missing."""
    join_mask = target.join_mask
    joins = []
    for m in masks:
        vmask = 0
        for k in _bits(m):
            vmask |= 1 << values[k]
        j = join_mask(vmask)
        if j is None:
            return None
        joins.append(j)
    return joins


def _put(values: list, at: tuple, vals, i: int, nxt: Poset) -> None:
    """values[at[k]] = vals[k] for every k; QuotientViolation when an
    element of stage i + 1 is given two different values."""
    for w, v in zip(at, vals):
        old = values[w]
        if old is None:
            values[w] = v
        elif old != v:
            raise QuotientViolation(
                f"stage {i + 1} element {nxt.elements[w]} received two values"
            )


def _replay(target: Poset, cur, steps: tuple) -> list:
    """The values of the extension of cur along the plan's steps, walked
    stage by stage: each span's witnesses take the least extension
    (p_i∘f)/h (``hom._least_extension``), which must restrict back to
    p_i∘f exactly, and each stage's values must be monotone."""
    for i, (nxt, conn, spans) in enumerate(steps):
        values = [None] * nxt.n
        _put(values, conn, cur, i, nxt)
        for h, f, coproj, below in spans:
            vals = [cur[a] for a in f]
            ext, _ = _least_extension(target, vals, h, below)
            if ext is None or [ext[b] for b in h.assignment] != vals:
                raise PostconditionFailed(
                    f"span at stage {i} has no strict extension into the target"
                )
            _put(values, coproj, ext, i, nxt)
        if None in values:
            unset = values.count(None)
            raise QuotientViolation(f"stage {i + 1} left {unset} elements unset")
        _check_monotone(nxt, target, values)
        cur = values
    return list(cur)


def extend_along_unit(p: MonotoneMap, result: ReflectionResult, klass: MapClass) -> MonotoneMap:
    """Transport p: X -> P along the unit, stage by stage.

    P must be strongly injective for the class; that is decided once per
    target and read from the verdict cache afterwards.  Odd stages are covered
    by the previous stage together with the span witnesses, which go to
    the least extensions (p_i∘f)/h; even stages are quotients, so the
    previous values must be constant on classes.  QuotientViolation
    signals a value clash across a quotient and means a bug: the
    construction guarantees well-definedness.

    The stages, connectors and spans are read from an extension plan
    built once per reflection and class (``_extension_plan``) and kept
    on the result.  Along the pointwise route every value of the chain
    is the join in P of p over its support, a subset of X, and a join of
    joins is the join of the union, so a call takes one join per
    distinct support of the plan (``_support_joins``), compares the
    plan's pairs (values merged by a quotient or a coprojection, and
    each span's restriction back to p_i∘f, equal; each stage's cover
    pairs ordered) and reads the reflection's values off it.  When a
    join is missing, a pair fails or the plan left an element without a
    support, the call replays the stages (``_replay``): each span's
    witness values are the least extension (p_i∘f)/h by left_kan's
    routine (``hom._least_extension``), the join or, where a join is
    missing, the least of each exact value set; each span's extension
    must restrict back to p_i∘f exactly and each stage map must be
    monotone (NotMonotone otherwise).  The replay raises exactly where
    a failed pair would, with its own message.  Either way the result
    is the least extension of p along the unit and restricts back to p
    exactly (both checked against the direct Kan computation;
    PostconditionFailed otherwise).

    Of the class, only the map at the index of each recorded span is
    compared with the map that span was minted for: DomainMismatch when
    the class has no map there or another one.  Maps at other indices,
    and further maps, are not compared.  So a reflection built along
    the join map extends along a class of the join map and the bottom
    map: a target strong for both is strong for the join, and the
    result is the least extension, as the postcondition checks.
    """
    if not result.converged:
        raise NotConverged("cannot extend along a unit that never stabilized")
    if p.dom.key != result.trace.stages[0].key:
        raise DomainMismatch("p must start at the base of the chain")
    if verdict(p.cod, klass) != "strong":
        raise NotInjectiveTarget("extension target is not strongly Kan-injective")

    target = p.cod
    steps, supports = _extension_plan(result, klass)
    joins = None if supports is None else _support_joins(target, p.assignment, supports.masks)
    up = target.up_masks
    if (
        joins is not None
        and all(joins[s] == joins[t] for s, t in supports.equal)
        and all(up[joins[s]] >> joins[t] & 1 for s, t in supports.ordered)
    ):
        values = [joins[s] for s in supports.result]
    else:
        values = _replay(target, p.assignment, steps)
    # either route checked these values on the cover pairs of the last
    # stage, which is result.reflected
    ext_map = MonotoneMap(result.reflected, target, values, validate=False)

    direct = left_kan(p, result.unit)
    if not (direct.exists and direct.strict and ext_map == direct.extension):
        raise PostconditionFailed("stagewise extension is not the least extension")
    if tuple(values[d] for d in result.unit.assignment) != p.assignment:
        raise PostconditionFailed("extension does not restrict back to p")
    return ext_map


@dataclass(frozen=True)
class KZReport:
    """The lax-idempotent laws checked on one (X, class) instance.

    unit_dense: the unit is dense.
    restriction_identity: (f∘d)/d = f for every sampled extension-
        preserving f out of the reflection into a sampled strong target.
    algebra_equivalence: X is strong exactly when the identity extends
        along the unit to a retraction a with a∘d = id and a left adjoint
        to d.
    algebra_strong: the strong verdict on X itself, for context.
    free_algebra: the same retraction laws one level up, on the
        reflection of the reflection; None when the reflection was too
        large to rerun.
    """

    unit_dense: bool
    restriction_identity: bool
    algebra_equivalence: bool
    algebra_strong: bool
    free_algebra: Optional[bool]
    maps_checked: int

    @property
    def ok(self) -> bool:
        return (
            self.unit_dense
            and self.restriction_identity
            and self.algebra_equivalence
            and self.free_algebra is not False
        )

    def to_json(self) -> dict:
        return {
            "unit_dense": self.unit_dense,
            "restriction_identity": self.restriction_identity,
            "algebra_equivalence": self.algebra_equivalence,
            "algebra_strong": self.algebra_strong,
            "free_algebra": self.free_algebra,
            "maps_checked": self.maps_checked,
            "ok": self.ok,
        }


def kz_laws(x: Poset, klass: MapClass, free_cap: int = 8) -> KZReport:
    """Check the KZ laws for one object; raises NotConverged when the
    chain does not stabilize within reflect's default of 16 steps.

    The targets are all strong posets with at most 3 elements; maps out
    of the reflection are enumerated in lexicographic order and
    truncated at 1000 per target.  The free-algebra law reruns the whole
    construction on the reflection, so it is skipped (None) when the
    reflection has more than free_cap elements.
    """
    result = reflect(x, klass)
    if not result.converged:
        raise NotConverged("kz_laws needs a stabilized reflection")
    xs, d = result.reflected, result.unit

    law1 = is_dense(d)

    law2 = True
    checked = 0
    # the restriction identity quantifies over maps of the subcategory,
    # so each candidate f must send extensions to extensions.  Both
    # endpoints are strong by construction (the reflection by the chain
    # invariant, the targets by enumeration), so the check runs over one
    # extension table of the reflection.
    table = _extensions(xs, klass.maps)
    for tgt in strong_objects(3, klass):
        for f in enumerate_monotone(xs, tgt)[:1000]:
            if any(_unpreserved(f, klass.maps, table)):
                continue
            r = left_kan(d.then(f), d)
            if not (r.exists and r.extension == f):
                law2 = False
            checked += 1

    strong = verdict(x, klass) == "strong"
    r_id = left_kan(MonotoneMap.identity(x), d)
    retraction = False
    if r_id.exists and r_id.strict:
        a = r_id.extension
        # a ⊣ d with identity counit: a∘d = id on X, id <= d∘a on the reflection
        retraction = d.then(a) == MonotoneMap.identity(x) and MonotoneMap.identity(
            xs
        ).pointwise_leq(a.then(d))
    law3 = strong == retraction

    law4 = None
    if xs.n <= free_cap:
        again = reflect(xs, klass)
        if not again.converged:
            law4 = False
        else:
            comparison = extend_along_unit(MonotoneMap.identity(xs), again, klass)
            law4 = (
                again.unit.then(comparison) == MonotoneMap.identity(xs)
                and MonotoneMap.identity(again.reflected).pointwise_leq(
                    comparison.then(again.unit)
                )
            )

    return KZReport(law1, law2, law3, strong, law4, checked)
