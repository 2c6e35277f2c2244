"""Independent reference implementations used only by the test suite.

Everything here is deliberately written along a *different* route from the
library: direct G2 sums instead of score differences, literal trail
enumeration instead of reachability, dict-tally or sort-based counting
instead of mixed-radix bincounts, exhaustive DAG enumeration instead of
dynamic programming, and full joint enumeration instead of variable
elimination.
Agreement between the two routes is the point of the tests.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np


# ---------------------------------------------------------------------------
# counting / scores (dict-tally and row-sort routes)


def tally(rows, cols):
    """Count occurrences of each tuple of values of ``cols`` across rows."""
    if len(cols) == 0:
        return {(): len(rows)} if len(rows) else {}
    if len(cols) == 1:
        pick = operator.itemgetter(cols[0])
        keyer = lambda row: (pick(row),)  # noqa: E731
    else:
        keyer = operator.itemgetter(*cols)
    out = {}
    for row in rows:
        key = keyer(row)
        out[key] = out.get(key, 0) + 1
    return out


def bic_direct(rows, cards, x, z):
    """BIC local score computed straight from the formula with dict tallies."""
    z = sorted(z)
    n_xz = tally(rows, [x] + z)
    n_z = tally(rows, z)
    ll = 0.0
    for key, nxz in n_xz.items():
        nz = n_z[key[1:]]
        ll += nxz * math.log(nxz / nz)
    dim = (cards[x] - 1) * math.prod(cards[c] for c in z)
    return ll - 0.5 * math.log(len(rows)) * dim


def g2_direct(rows, cards, u, v, z):
    """Classical G2 statistic 2 sum N_uvz ln(N_uvz N_z / (N_uz N_vz)).

    ``rows`` is a (rows, variables) array of state indices, or anything
    ``np.asarray`` makes one of. The joint tally sorts the rows of the
    ``u, v, z`` columns lexicographically and counts each run of equal
    rows. The margins are integer sums of that one tally, so they equal
    what a separate pass over the rows would count.
    """
    z = sorted(z)
    cols = np.asarray(rows)[:, [u, v] + z]
    ordered = cols[np.lexsort(cols.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(ordered)])
    n_uvz = dict(zip(map(tuple, ordered[starts].tolist()), counts.tolist()))
    n_uz, n_vz, n_z = {}, {}, {}
    for key, c in n_uvz.items():
        ku, kv, kz = key[0], key[1], key[2:]
        n_uz[(ku,) + kz] = n_uz.get((ku,) + kz, 0) + c
        n_vz[(kv,) + kz] = n_vz.get((kv,) + kz, 0) + c
        n_z[kz] = n_z.get(kz, 0) + c
    stat = 0.0
    for key, nuvz in n_uvz.items():
        ku, kv, kz = key[0], key[1], key[2:]
        stat += nuvz * math.log(nuvz * n_z[kz] / (n_uz[(ku,) + kz] * n_vz[(kv,) + kz]))
    return 2.0 * stat


# ---------------------------------------------------------------------------
# graphs (literal-definition route)


def brute_force_dsep(n, arcs, u, v, z):
    """d-separation by enumerating every simple trail and applying the
    blocking definition node by node."""
    z = set(z)
    children = {i: set() for i in range(n)}
    parents = {i: set() for i in range(n)}
    for a, b in arcs:
        children[a].add(b)
        parents[b].add(a)

    def descendants(x):
        seen, stack = set(), [x]
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def active(trail):
        # trail: list of nodes; inspect every interior node
        for i in range(1, len(trail) - 1):
            prev, node, nxt = trail[i - 1], trail[i], trail[i + 1]
            # collider iff both neighbouring edges point into the node
            collider = (node in children[prev]) and (node in children[nxt])
            if collider:
                if node not in z and not (descendants(node) & z):
                    return False
            else:
                if node in z:
                    return False
        return True

    found_active = False

    def dfs(trail, visited):
        nonlocal found_active
        if found_active:
            return
        last = trail[-1]
        if last == v:
            if active(trail):
                found_active = True
            return
        for nb in sorted(children[last] | parents[last]):
            if nb not in visited:
                dfs(trail + [nb], visited | {nb})

    dfs([u], {u})
    return not found_active


def all_dags(n):
    """Every labelled DAG on n nodes, as sorted arc tuples."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(pairs)):
        arcs = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        arcset = set(arcs)
        if any((b, a) in arcset for a, b in arcs):
            continue
        if _is_acyclic(n, arcs):
            out.append(tuple(sorted(arcs)))
    return out


def _is_acyclic(n, arcs):
    children = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for a, b in arcs:
        children[a].append(b)
        indeg[b] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for c in children[x]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return seen == n


def dag_score(rows, cards, arcs, n):
    parents = {i: [] for i in range(n)}
    for a, b in arcs:
        parents[b].append(a)
    return sum(bic_direct(rows, cards, x, parents[x]) for x in range(n))


def exhaustive_best_dags(rows, cards, n, k):
    """All argmax DAGs (and the max score) over every DAG with in-degree <= k.

    Each family (x, sorted parents) is scored once per call and summed in
    node order, so a DAG's score is the float :func:`dag_score` gives; four
    nodes have 32 distinct families across their 543 DAGs.
    """
    family: dict[tuple[int, tuple[int, ...]], float] = {}

    def score(x, ps):
        key = (x, tuple(sorted(ps)))
        if key not in family:
            family[key] = bic_direct(rows, cards, x, key[1])
        return family[key]

    best, argmax = -math.inf, []
    for arcs in all_dags(n):
        parents = {i: [] for i in range(n)}
        for a, b in arcs:
            parents[b].append(a)
        if any(len(ps) > k for ps in parents.values()):
            continue
        s = sum(score(x, parents[x]) for x in range(n))
        if s > best + 1e-12:
            best, argmax = s, [arcs]
        elif abs(s - best) <= 1e-12:
            argmax.append(arcs)
    return best, argmax


# ---------------------------------------------------------------------------
# joints (full-enumeration route)


def exact_joint(cards, arcs, cpts):
    """Joint distribution as a dict {full assignment tuple: probability},
    multiplying CPT rows over an explicit enumeration of all assignments.

    ``cpts[x]`` is indexed [parent config][state] with parent configs
    enumerated lexicographically over parents sorted by id.
    """
    n = len(cards)
    parents = {i: [] for i in range(n)}
    for a, b in arcs:
        parents[b].append(a)
    for x in parents:
        parents[x] = sorted(parents[x])
    joint = {}
    for assign in itertools.product(*(range(c) for c in cards)):
        p = 1.0
        for x in range(n):
            cfg = 0
            for pa in parents[x]:
                cfg = cfg * cards[pa] + assign[pa]
            p *= cpts[x][cfg][assign[x]]
        joint[assign] = p
    return joint


def mi_from_exact_joint(joint, cards, x, y, z=()):
    """Conditional mutual information I(X;Y|Z) from a full joint dict."""
    z = tuple(sorted(z))
    pxyz, pxz, pyz, pz = {}, {}, {}, {}
    for assign, p in joint.items():
        kx, ky = assign[x], assign[y]
        kz = tuple(assign[c] for c in z)
        pxyz[(kx, ky, kz)] = pxyz.get((kx, ky, kz), 0.0) + p
        pxz[(kx, kz)] = pxz.get((kx, kz), 0.0) + p
        pyz[(ky, kz)] = pyz.get((ky, kz), 0.0) + p
        pz[kz] = pz.get(kz, 0.0) + p
    mi = 0.0
    for (kx, ky, kz), p in pxyz.items():
        if p <= 0.0:
            continue
        mi += p * math.log(p * pz[kz] / (pxz[(kx, kz)] * pyz[(ky, kz)]))
    return mi
