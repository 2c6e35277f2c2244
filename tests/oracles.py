"""Independent reference implementations used only by the test suite.

Everything here is deliberately written along a *different* route from the
library: a whole-file CSV read instead of row blocks, direct G2 sums instead of score differences, literal trail
enumeration instead of reachability, dict-tally or sort-based counting
instead of mixed-radix bincounts, one tally per family instead of subset
tallies and an entropy filter, a check of every parent subset instead of
running maxima, exhaustive DAG enumeration instead of dynamic programming,
and full joint enumeration instead of variable elimination.
Agreement between the two routes is the point of the tests.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator

import numpy as np

from latentdag import Dataset, VariableMeta
from latentdag.scoring import log_likelihood


# ---------------------------------------------------------------------------
# CSV ingest (whole-file route)


def load_dataset_whole(path, delimiter=","):
    """The CSV loader as it read before ingest ran in row blocks: every row
    is kept as a list of cells, then each column is coded straight into its
    sorted labels. Same checks, in the same order, with the same messages;
    a line number is ``reader.line_num``, the physical line a record ends on.
    """
    try:
        csv.reader((), delimiter=delimiter)
    except TypeError as exc:
        raise ValueError(f"bad delimiter {delimiter!r}: {exc}") from None
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file (missing header)") from None
            if any(not h.strip() for h in header):
                raise ValueError(f"{path}: blank column name in header")
            for i, h in enumerate(header):
                if h in header[:i]:
                    raise ValueError(f"{path}: duplicate column name {h!r}")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{reader.line_num}: ragged row ({len(row)} cells, "
                        f"expected {len(header)})"
                    )
                if "" in row:
                    raise ValueError(f"{path}:{reader.line_num}: missing value")
                rows.append(row)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                             f"at offset {exc.start})") from None
        raise
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    variables = []
    cols = np.empty((len(header), len(rows)), dtype=np.int64)
    for i, name in enumerate(header):
        labels = sorted({row[i] for row in rows})
        if len(labels) < 2:
            raise ValueError(
                f"{path}: column {name!r} has a single state; "
                "variables must take at least two values"
            )
        variables.append(VariableMeta(name, tuple(labels)))
        lookup = {lab: j for j, lab in enumerate(labels)}
        cols[i] = [lookup[row[i]] for row in rows]
    return Dataset(variables, cols.T)


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


def per_family_scores(d, k):
    """Every family (x, S) with |S| <= k of the dataset ``d``, each scored
    from its own tally: one bincount per family into the (configuration,
    child state) layout, through the library's log-likelihood kernel, with
    the score table's penalty expression. So each score is the float the
    table holds for a family it keeps. Returns one ``{parent mask: score}``
    per node, the mask over all variables (bit ``i`` = variable ``i``)."""
    cards = d.cardinalities
    n = d.n_variables
    half_log_n = 0.5 * math.log(d.n_rows)
    out = [dict() for _ in range(n)]
    for x in range(n):
        others = [v for v in range(n) if v != x]
        for size in range(min(k, n - 1) + 1):
            for ps in itertools.combinations(others, size):
                code = np.zeros(d.n_rows, dtype=np.int64)
                n_cfg = 1
                for p in ps:
                    code = code * cards[p] + d.values[:, p]
                    n_cfg *= cards[p]
                counts = np.bincount(code * cards[x] + d.values[:, x],
                                     minlength=n_cfg * cards[x])
                ll = log_likelihood(counts.reshape(1, n_cfg, cards[x]).astype(float), axis=2)[0]
                out[x][sum(1 << p for p in ps)] = ll - half_log_n * (cards[x] - 1) * n_cfg
    return out


def dominated_families(scores):
    """The families that some proper subset of their parents matches or
    beats, by a check of every subset: one set of parent masks per node,
    from :func:`per_family_scores`' dicts."""
    out = []
    for row in scores:
        out.append({
            mask for mask, s in row.items()
            if any(row[sub] >= s for sub in _proper_submasks(mask))
        })
    return out


def _proper_submasks(mask):
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    for size in range(len(bits)):
        for sub in itertools.combinations(bits, size):
            yield sum(1 << b for b in sub)


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


def markov_classes(n):
    """Every labelled DAG on n nodes grouped by skeleton and v-structures
    (Verma and Pearl's criterion), each read straight off the arc list:
    ``{key: [arc tuples]}``."""
    classes = {}
    for arcs in all_dags(n):
        skel = frozenset(frozenset(a) for a in arcs)
        colliders = frozenset(
            (a, b, c) for a, b in arcs for c, d in arcs
            if d == b and a < c and frozenset((a, c)) not in skel
        )
        classes.setdefault((skel, colliders), []).append(arcs)
    return classes


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
