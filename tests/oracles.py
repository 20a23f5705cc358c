"""Brute-force reference implementations the tests compare against.

Everything here recomputes predicates straight from definitions with
plain enumeration or backtracking, independent of the library's search
and formula paths.  Slow on purpose; only run at desk scale.
"""

import itertools

from kaninj.errors import SizeCapExceeded


def brute_monotone(dom, cod):
    """Every monotone assignment dom -> cod by full product scan."""
    out = []
    for vals in itertools.product(range(cod.n), repeat=dom.n):
        if all(
            (not dom.leq[i, j]) or cod.leq[vals[i], vals[j]]
            for i in range(dom.n)
            for j in range(dom.n)
        ):
            out.append(vals)
    return out


def brute_posets(max_n):
    """One poset per isomorphism class with <= max_n elements, in the
    order of ``all_posets``, enumerated from scratch for every size: the
    transitive strict upper-triangular relations, deduped by canonical
    form, keeping the first relation of each class in mask order, and
    sorted by it within each size."""
    from kaninj import Poset

    out = []
    for n in range(max_n + 1):
        seen = {}
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            up = [1 << i for i in range(n)]
            for t, (i, j) in enumerate(pairs):
                if mask >> t & 1:
                    up[i] |= 1 << j
            if any(up[j] & ~up[i] for i in range(n) for j in range(n) if up[i] >> j & 1):
                continue
            p = Poset([f"p{i}" for i in range(n)], up, validate=False)
            seen.setdefault(p.canonical_form(), p)
        out += [seen[k] for k in sorted(seen)]
    return out


def brute_bounded(dom, cod, lower):
    """brute_monotone(dom, cod) with lower[i] below the value at each i."""
    return [
        m
        for m in brute_monotone(dom, cod)
        if all(cod.leq[v, m[i]] for i, vals in lower.items() for v in vals)
    ]


def brute_kan(f_vals, h, x):
    """Least g: cod(h) -> x with f <= g∘h.

    Returns (exists, least_assignment, strict) where strict means
    g(h(a)) == f(a) for every a.
    """
    cands = []
    for g in brute_monotone(h.cod, x):
        if all(x.leq[f_vals[a], g[h.assignment[a]]] for a in range(h.dom.n)):
            cands.append(g)
    for g in cands:
        if all(
            all(x.leq[g[i], g2[i]] for i in range(h.cod.n)) for g2 in cands
        ):
            strict = all(
                g[h.assignment[a]] == f_vals[a] for a in range(h.dom.n)
            )
            return True, g, strict
    return False, None, False


def brute_weak(x, klass):
    return all(
        brute_kan(f, h, x)[0]
        for h in klass
        for f in brute_monotone(h.dom, x)
    )


def brute_strong(x, klass):
    for h in klass:
        for f in brute_monotone(h.dom, x):
            exists, _, strict = brute_kan(f, h, x)
            if not (exists and strict):
                return False
    return True


def brute_preserves(q_vals, p_dom, p_cod, klass):
    """Whether q sends each least extension to the pushed-forward one.

    Only meaningful when both endpoints are strong for the class.
    """
    for h in klass:
        for g in brute_monotone(h.dom, p_dom):
            _, e, _ = brute_kan(g, h, p_dom)
            pushed = tuple(q_vals[v] for v in g)
            _, e2, _ = brute_kan(pushed, h, p_cod)
            if tuple(q_vals[v] for v in e) != e2:
                return False
    return True


def brute_iso(p, q):
    if p.n != q.n:
        return False
    for perm in itertools.permutations(range(q.n)):
        if all(
            bool(p.leq[i, j]) == bool(q.leq[perm[i], perm[j]])
            for i in range(p.n)
            for j in range(p.n)
        ):
            return True
    return False


def brute_dense(f):
    """f dense iff the identity is the least g with f <= g∘f."""
    exists, least, _ = brute_kan(tuple(f.assignment), f, f.cod)
    return exists and least == tuple(range(f.cod.n))


def _topo(leq, n):
    return sorted(range(n), key=lambda i: (int(leq[:, i].sum()), i))


_TABLES = {}


def _completion_exists(dom, cod, pins):
    """Any monotone dom -> cod assignment honoring pins, backtracking."""
    key = dom.key
    if key not in _TABLES:
        order = _topo(dom.leq, dom.n)
        pred = [
            [
                (j, bool(dom.leq[j, i]), bool(dom.leq[i, j]))
                for j in order[:k]
                if dom.leq[j, i] or dom.leq[i, j]
            ]
            for k, i in enumerate(order)
        ]
        _TABLES[key] = (order, pred)
    order, pred = _TABLES[key]
    n = dom.n
    assign = [None] * n

    def rec(k):
        if k == n:
            return True
        i = order[k]
        vals = (pins[i],) if i in pins else range(cod.n)
        for v in vals:
            ok = True
            for j, below, above in pred[k]:
                w = assign[j]
                if below and not cod.leq[w, v]:
                    ok = False
                    break
                if above and not cod.leq[v, w]:
                    ok = False
                    break
            if ok:
                assign[i] = v
                if rec(k + 1):
                    return True
                assign[i] = None
        return False

    return rec(0)


def oracle_least_strict(dom, cod, pins):
    """Least monotone dom -> cod extending the pinned values exactly.

    The value set of each free element is probed one value at a time;
    the pointwise least candidate, when the value sets all have minima
    and the resulting vector is monotone, is the least strict extension.
    Returns its assignment tuple, or None when no least one exists.
    """
    if not _completion_exists(dom, cod, pins):
        return None
    t = [None] * dom.n
    for y in range(dom.n):
        if y in pins:
            t[y] = pins[y]
            continue
        vals = []
        for v in range(cod.n):
            clash = any(
                (dom.leq[j, y] and not cod.leq[w, v])
                or (dom.leq[y, j] and not cod.leq[v, w])
                for j, w in pins.items()
            )
            if not clash and _completion_exists(dom, cod, {**pins, y: v}):
                vals.append(v)
        mins = [v for v in vals if all(cod.leq[v, w] for w in vals)]
        if not mins:
            return None
        t[y] = mins[0]
    for i in range(dom.n):
        for j in range(dom.n):
            if dom.leq[i, j] and not cod.leq[t[i], t[j]]:
                return None
    return tuple(t)


def brute_close_and_collapse(labels, pairs):
    """Closure and collapse of a presentation straight from the definition.

    Warshall closure of the generating pairs, then the symmetric classes;
    a class is named after its least label and elements are sorted by
    name (ties by least generator).  Returns (names, leq rows, collapse).
    """
    n = len(labels)
    r = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        r[a][b] = True
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                for j in range(n):
                    if r[k][j]:
                        r[i][j] = True
    first = [min(j for j in range(n) if r[i][j] and r[j][i]) for i in range(n)]
    name = {c: min(labels[i] for i in range(n) if first[i] == c) for c in set(first)}
    order = sorted(name, key=lambda c: (name[c], c))
    pos = {c: k for k, c in enumerate(order)}
    leq = [[r[a][b] for b in order] for a in order]
    return [name[c] for c in order], leq, tuple(pos[first[i]] for i in range(n))


def masks_of(rows):
    """The rows of a 0/1 matrix as bitmasks, bit j of mask i set iff
    rows[i][j]: the up-set masks a ``Poset`` takes."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in rows]


def brute_adjoints(m):
    """(right, left) adjoint assignments of m by scanning every monotone
    map back, from the adjunction's definition; None where none exists."""
    a, b = m.dom, m.cod
    pairs = [(i, j) for i in range(a.n) for j in range(b.n)]
    right = left = None
    for r in brute_monotone(b, a):
        if all(bool(b.leq[m.assignment[i], j]) == bool(a.leq[i, r[j]]) for i, j in pairs):
            right = r
        if all(bool(a.leq[r[j], i]) == bool(b.leq[j, m.assignment[i]]) for i, j in pairs):
            left = r
    return right, left


def pointwise_leq(x, f, g):
    """f <= g in the pointwise order of maps into x, on assignments."""
    return all(x.leq[u, v] for u, v in zip(f, g))


def restriction_adjoint(h, x, hom_cod, hom_dom, strong):
    """Whether the restriction m: g -> g∘h from hom_cod = hom(cod h, x)
    to hom_dom = hom(dom h, x), both lists of assignments under the
    pointwise order, has a left adjoint t, with m∘t = id when strong.
    From the adjunction's definition: t(f) is the least g with
    f <= m(g), so t exists exactly when each such set of g has a least
    element (it is an up-set, so it is then the up-set of that g)."""
    for f in hom_dom:
        above = [g for g in hom_cod if pointwise_leq(x, f, [g[v] for v in h.assignment])]
        least = [g for g in above if all(pointwise_leq(x, g, g2) for g2 in above)]
        if not least:
            return False
        if strong and tuple(least[0][v] for v in h.assignment) != tuple(f):
            return False
    return True


def brute_search(a, x, masks, cap, spent):
    """The monotone search as a recursive generator, one ``yield from``
    per level: the reference order, node count and cap trip for
    ``poset._search``."""
    n = a.n
    order = a.topo_order
    lower_cov = a.lower_covers
    up = x.up_masks
    assign = [0] * n

    def rec(k: int):
        if k == n:
            yield tuple(assign)
            return
        e = order[k]
        mask = masks[e]
        for c in lower_cov[e]:
            mask &= up[assign[c]]
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            spent[0] += 1
            if spent[0] > cap:
                raise SizeCapExceeded(cap, n, x.n, spent[0])
            assign[e] = v
            yield from rec(k + 1)

    yield from rec(0)


def down_sets(x) -> set:
    """Every down-set of x as a bitmask over its elements."""
    return {
        mask for mask in range(1 << x.n)
        if all(mask >> i & 1 for j in range(x.n) if mask >> j & 1 for i in range(x.n) if x.leq[i, j])
    }


def completion_family(x, name: str) -> set:
    """The down-sets of x, as bitmasks, that the free completion of x for
    the shipped class ``name`` is isomorphic to, under inclusion (the KZ
    down-set monad, Kock 1995): for bot, the empty set plus the
    principal down-sets; for join, the non-empty down-sets; for
    bot+join, all of them."""
    if name == "bot":
        return {0} | {sum(1 << i for i in range(x.n) if x.leq[i, j]) for j in range(x.n)}
    if name == "join":
        return down_sets(x) - {0}
    if name == "bot+join":
        return down_sets(x)
    raise ValueError(f"no closed form for class {name!r}")


def closed_form_failure(x, name: str, r):
    """None when phi(s) = {i : unit(i) <= s} is an order-isomorphism from
    r.reflected onto ``completion_family(x, name)``, else what fails."""
    refl, unit = r.reflected, r.unit.assignment
    phi = [sum(1 << i for i in range(x.n) if refl.leq[unit[i], s]) for s in range(refl.n)]
    if set(phi) != completion_family(x, name) or len(phi) != len(set(phi)):
        return f"phi is not a bijection onto the {name} family of down-sets"
    for s in range(refl.n):
        for t in range(refl.n):
            if bool(refl.leq[s, t]) != (phi[s] & ~phi[t] == 0):
                return f"phi does not preserve and reflect {refl.elements[s]} <= {refl.elements[t]}"
    return None
