"""Score-based DAG structure learners.

Two engines behind one config:

* ``learn_exact`` — global optimum of the decomposable BIC under a parent
  cap, by (1) scoring every parent set of size <= k for every node, from
  one joint tally per variable subset of size <= k + 1 (a subset's tally
  serves all of its families, and sibling subsets are tallied in one
  bincount by :class:`~latentdag.data.BatchTally`, the batch tally the
  probes and the climber share), straight into one dense array per node
  indexed by the parent mask, (2) running maxima over supersets in those
  same arrays, one node's row at a time, and (3) dynamic programming over
  node subsets, layer by popcount, that keeps only each subset's best
  score (a strictly better sink replaces a smaller one, so exact ties keep
  the smallest id); the graph is rebuilt by peeling sinks, each subset's
  sink re-derived as the smallest member whose candidate attains its best.
  Feasible up to 20 nodes with k <= 4. One rule sets the processes of
  all three steps, checked as the table and as the DP start. Each runs in
  one process on a single CPU, where ``fork`` is missing or unsafe, or in
  a process that ``multiprocessing`` started (the outermost layer with
  independent work takes the CPUs, and nothing inside it forks again).
  Otherwise step (1) takes the usable CPUs from ``_FORK_MIN_SUBSETS``
  table subsets, and steps (2) and (3) two processes each from
  ``_FORK_MIN_DP_NODES`` nodes. Step (1) splits its branches (the subsets
  by smallest member), and step (2) its rows, through ``fork`` into
  arrays in shared memory; step (3) splits on the top node. Every array
  is bit-identical at every worker count.
* ``learn_hill_climb`` — add/remove/reverse local search with best-improvement
  moves and seeded random restarts. The climber keeps n x n arrays of add
  and remove deltas and recomputes a node's column only when its parent set
  changes (every node at the start): the adds from one batch tally of its
  one-parent extensions (:func:`~latentdag.scoring.fill_bic`), the removes
  from one tally of its family (:func:`~latentdag.scoring.drop_bic`). A
  reverse scores the remove plus the opposite add. Each iteration masks the
  illegal moves with the adjacency matrix and one transitive closure and
  takes the first maximum over the (add, remove, reverse) stack. The climb
  runs on that boolean matrix alone, and its score is the sum of the local
  scores it already holds; the winning restart's matrix becomes the
  :class:`~latentdag.graphs.Dag` once, at the end.

Both return plain :class:`~latentdag.graphs.Dag` objects. Each takes an
optional :class:`~latentdag.scoring.ScoreContext` so that a discovery run
keeps one memo of scores from learning through the probes.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .graphs import Dag
from .scoring import ScoreContext, bic, drop_bic, fill_bic, log_likelihood

__all__ = ["LearnerConfig", "LocalScoreTable", "learn_exact", "learn_hill_climb", "learn"]

EXACT_MAX_NODES = 20
EXACT_MAX_PARENTS = 4


@dataclass(frozen=True)
class LearnerConfig:
    max_parents: int = 4
    mode: str = "auto"  # "exact" | "hill_climb" | "auto"
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_parents", "restarts", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but True parents or restarts is a slip
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.mode not in ("exact", "hill_climb", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")


class LocalScoreTable:
    """Every local score ``(x, S)`` with ``|S| <= k``, in the DP's layout.

    ``scores`` is an ``(n, 2**(n-1))`` float64 array. Row ``x`` is indexed by
    the parent mask with ``x``'s own bit removed (bits above ``x`` shift down
    one slot, as :func:`_drop_bit` does); sets of more than ``k`` parents
    hold ``-inf``. :func:`build_local_scores` fills the array in anonymous
    shared memory, from one process per usable CPU (one on a single CPU,
    where ``fork`` is missing or unsafe, or in a ``multiprocessing`` child).
    :func:`learn_exact` then turns it, in place, into running maxima over
    supersets, its rows split over at most two processes. The bits of both
    do not depend on the number of processes.
    """

    def __init__(self, n: int, k: int, scores: np.ndarray):
        self.n = n
        self.k = k
        self.scores = scores

    @property
    def node_scores(self) -> list[dict[int, float]]:
        """Each node's stored families as ``{full parent mask: score}``, the
        mask over all variables (bit ``i`` = variable ``i``)."""
        idx = np.flatnonzero(_popcounts(max(self.n - 1, 0)) <= self.k)
        return [dict(zip(_insert_bit(idx, x).tolist(), self.scores[x, idx].tolist()))
                for x in range(self.n)]


def build_local_scores(ctx: ScoreContext, k: int) -> LocalScoreTable:
    """Score all (node, parent set <= k) families from one tally per subset.

    Every variable subset T with 1 <= |T| <= k + 1 is tallied once, and the
    |T| families (x, T - {x}) are scored from that joint table. Subsets are
    enumerated depth-first in ascending-id order: a prefix P extends its
    mixed-radix row code to each child subset P + {y}, y > max(P), and one
    bincount tallies a batch of those children side by side. Moving x's axis
    of a joint to the last place gives exactly the (configuration, child
    state) table of the family, so each score is the float a separate tally
    of that family would give. The scores fill the dense arrays of
    :class:`LocalScoreTable`, hence at most ``EXACT_MAX_NODES`` variables.

    Branch ``y`` holds the subsets of two or more members whose smallest
    member is ``y``. The branches are split over the usable CPUs, and each
    share but the first is scored in a process forked for it, all into one
    array in shared memory. Every family is scored from one subset, in the
    same steps in whichever process, so the table is bit-identical at every
    worker count. It is built serially on one CPU, where ``fork`` is
    missing or unsafe (beside other threads), in a process that
    ``multiprocessing`` started (a benchmark repetition in its pool, say,
    whose pool already holds the CPUs), and below ``_FORK_MIN_SUBSETS``
    subsets, where a fork costs more than it saves.
    """
    n = ctx.dataset.n_variables
    if n > EXACT_MAX_NODES:
        raise ValueError(f"exact mode handles at most {EXACT_MAX_NODES} variables, got {n}")
    if n == 0:
        return LocalScoreTable(0, k, np.empty((0, 0)))
    t = _Tallies(ctx, k)
    # the empty-parent families, one per single-member subset
    _score(t, (), 0, 1)
    shares = _shares(_branch_sizes(n, k), _workers(n, k)[0])
    if len(shares) == 1:
        _run_share(t, shares[0])
    else:
        _fork_shares(lambda share: _run_share(t, share), shares, "score table", "branches")
    return LocalScoreTable(n, k, t.scores)


def _branch_sizes(n: int, k: int) -> list[int]:
    """Branch y's subset count, for each y; with k = 0 there are no branches."""
    return [sum(math.comb(n - 1 - y, d) for d in range(1, k + 1))
            for y in range(n - 1 if k else 0)]


# Tables of fewer subsets are built serially. On 2 cores a second worker
# paid off from about 400 subsets at 50 rows, and from about 1,000 in a
# process holding 400 MB, whose fork copies more page tables.
_FORK_MIN_SUBSETS = 1500
# The DP over fewer nodes runs in one process. On 2 cores, with child at
# 5k rows cut to its first m nodes, forking both DP stages cost 5-9 ms at
# 12-16 nodes and saved 11 ms at 17 and 34 ms at 18.
_FORK_MIN_DP_NODES = 17


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(n: int, k: int) -> tuple[int, int]:
    """How many processes build the score table of ``n`` nodes under the
    cap ``k``, and how many run each DP stage over those nodes.

    The DP takes at most two: its layer split has two halves, and the
    superset maxima have been timed on no more than two CPUs.
    """
    table = n + sum(_branch_sizes(n, k)) >= _FORK_MIN_SUBSETS
    dp = n >= _FORK_MIN_DP_NODES
    if not (table or dp):
        return 1, 1
    cpus = _usable_cpus()
    if cpus < 2:
        return 1, 1
    import multiprocessing
    import threading
    # a process that multiprocessing started is one of several doing work in
    # parallel already, and a forked child could inherit a lock that another
    # thread of this process holds
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None or threading.active_count() > 1):
        return 1, 1
    return cpus if table else 1, 2 if dp else 1


def _shares(sizes: list[int], workers: int) -> list[list[int]]:
    """Split the branches, whose subset counts are ``sizes``, into at most
    ``workers`` non-empty shares: longest processing time first, each branch
    to the lightest share so far (the first on ties)."""
    shares: list[list[int]] = [[] for _ in range(max(1, min(workers, len(sizes))))]
    loads = [0] * len(shares)
    for y in sorted(range(len(sizes)), key=lambda y: -sizes[y]):
        i = loads.index(min(loads))
        shares[i].append(y)
        loads[i] += sizes[y]
    return shares


def _fork_shares(run, shares: list, stage: str, unit: str) -> None:
    """Call ``run(shares[0])`` in this process and ``run(share)`` for each
    other share in a forked child, which writes its results into shared
    memory. A child that fails fails the call, naming ``stage`` and the
    child's ``unit`` and share; a failure here stops the children first."""
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    procs = []
    try:
        for share in shares[1:]:
            p = fork.Process(target=run, args=(share,), name=f"latentdag {stage}")
            p.start()
            procs.append(p)
        run(shares[0])
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join()
    failed = [(share, p.exitcode) for share, p in zip(shares[1:], procs) if p.exitcode]
    if failed:
        raise RuntimeError(f"{stage} worker failed: " + ", ".join(
            f"{unit} {share} exited with code {code}" for share, code in failed))


def _run_share(t: _Tallies, share: list[int]) -> None:
    for y in share:
        _enter(t, (), 0, 1, y)


class _Tallies:
    """State of one :func:`build_local_scores` call: the shared batch tally,
    the prefix codes and the score array being filled, which lives in
    anonymous shared memory so that forked workers write into it."""

    def __init__(self, ctx: ScoreContext, k: int):
        d = ctx.dataset
        self.n = d.n_variables
        self.k = k
        self.cards = d.cardinalities
        self.half_log_n = 0.5 * ctx.log_n
        self.tally = ctx.tally
        # row code of the current prefix at each depth; depth 0 is empty
        self.prefix_codes = np.zeros((k + 1, d.n_rows), dtype=np.int64)
        shape = (self.n, 1 << (self.n - 1))
        self.scores = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]),
                                    dtype=np.float64).reshape(shape)
        self.scores.fill(-np.inf)


def _visit(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int) -> None:
    """Score the families of every subset ``prefix + (y,)``, y above the
    prefix, then recurse into those subsets that can take another member."""
    _score(t, prefix, mask, n_cfg)
    if len(prefix) < t.k:
        for y in range(prefix[-1] + 1, t.n - 1):
            _enter(t, prefix, mask, n_cfg, y)


def _enter(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int, y: int) -> None:
    """Extend the prefix's row code by ``y`` and visit ``prefix + (y,)``."""
    depth = len(prefix)
    child_code = t.prefix_codes[depth + 1]
    np.multiply(t.prefix_codes[depth], t.cards[y], out=child_code)
    child_code += t.tally.cols[y]
    _visit(t, prefix + (y,), mask | (1 << y), n_cfg * t.cards[y])


def _score(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int) -> None:
    """Score the families of every subset ``prefix + (y,)``, y above the
    prefix, from batch tallies of the prefix's row code."""
    depth = len(prefix)
    first = prefix[-1] + 1 if prefix else 0
    cards = t.cards
    code = t.prefix_codes[depth]
    pcards = [cards[p] for p in prefix]
    for ys, joint in t.tally.joints(code, n_cfg, range(first, t.n)):
        m, _, width = joint.shape
        # x = y: the joint is already the (configuration, child) table, and
        # the prefix lies below y, so the parent index is the prefix mask;
        # padding cells count zero, so no table gains a positive cell.
        # Penalties keep the association of 0.5 * log n * (|x| - 1) * configs.
        # Scores are written one at a time: numpy calls on a batch of at most
        # n scores cost more than the loop.
        lls = log_likelihood(joint, axis=2)
        for y, ll in zip(ys, lls):
            t.scores[y, mask] = ll - t.half_log_n * (cards[y] - 1) * n_cfg

        # x = a prefix member: move its axis last; the parents are the rest
        # of the prefix, then y, whose bit lands one slot down above x
        grid = joint.reshape(m, *pcards, width)
        for i, x in enumerate(prefix):
            cx = pcards[i]
            axes = (0, *range(1, i + 1), *range(i + 2, depth + 2), i + 1)
            tables = grid.transpose(axes).reshape(m, n_cfg // cx * width, cx)
            lls = log_likelihood(tables, axis=2)
            penalty = t.half_log_n * (cx - 1)
            row = t.scores[x]
            rest = _drop_bit(mask ^ (1 << x), x)
            for y, ll in zip(ys, lls):
                row[rest | 1 << (y - 1)] = ll - penalty * (n_cfg // cx * cards[y])


def _popcounts(n_bits: int) -> np.ndarray:
    """Popcount of every mask below ``1 << n_bits``, built by doubling (the
    upper half counts one more than the lower), so that no temporary is
    wider than the uint8 result."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n_bits):
        counts = np.concatenate([counts, counts + 1])
    return counts


def _drop_bit(masks, x: int):
    """Remove bit ``x`` from each mask, shifting higher bits down one slot."""
    low = (1 << x) - 1
    return (masks & low) | ((masks >> (x + 1)) << x)


def _insert_bit(masks, x: int):
    """Inverse of :func:`_drop_bit`: open a zero bit at slot ``x``."""
    low = (1 << x) - 1
    return (masks & low) | ((masks >> x) << (x + 1))


def _context(d: Dataset, ctx: ScoreContext | None) -> ScoreContext:
    if ctx is None:
        return ScoreContext(d)
    if ctx.dataset is not d:
        raise ValueError("the score context is bound to another dataset")
    return ctx


def learn_exact(d: Dataset, cfg: LearnerConfig = LearnerConfig(),
                ctx: ScoreContext | None = None) -> Dag:
    """Globally optimal DAG under the parent cap (subset dynamic program)."""
    n = d.n_variables
    if cfg.max_parents > EXACT_MAX_PARENTS:
        raise ValueError(
            f"exact mode caps max_parents at {EXACT_MAX_PARENTS}, got {cfg.max_parents}"
        )
    k = min(cfg.max_parents, n - 1) if n > 1 else 0
    bps = build_local_scores(_context(d, ctx), k).scores
    if n == 0:
        return Dag(0, [])
    # the table's rule, checked again now that the DP is about to fork
    dp_workers = _workers(n, k)[1]

    # bps[x][T] becomes x's best stored score inside T: running maxima over
    # supersets, each row on its own, so the rows split over the workers
    shares = _shares([1] * n, dp_workers)
    if len(shares) == 1:
        _superset_maxima(bps, shares[0])
    else:
        _fork_shares(lambda rows: _superset_maxima(bps, rows), shares, "superset maxima", "rows")

    # best score of each variable subset, in shared memory for the layers'
    # second process
    popcnt = _popcounts(n - 1)
    dp = np.frombuffer(mmap.mmap(-1, 8 << n), dtype=np.float64)
    dp.fill(-np.inf)
    dp[0] = 0.0
    if dp_workers == 1 or n < 2:
        _layers(dp, bps, popcnt)
    else:
        _fork_layers(dp, bps, popcnt)

    # peel the sinks: a subset's sink is the smallest x whose candidate
    # attains its best, the one the layers kept. A sink's parents are the
    # first stored set in the remaining variables, by fewest members then
    # smallest mask, whose running maximum equals the best there; that set
    # scores the best itself.
    stored = np.concatenate([np.flatnonzero(popcnt == size) for size in range(k + 1)])
    g = Dag(n, [v.name for v in d.variables])
    mask = (1 << n) - 1
    while mask:
        x = next(x for x in range(n) if mask >> x & 1 and dp[mask ^ 1 << x]
                 + bps[x][_drop_bit(mask ^ 1 << x, x)] == dp[mask])
        mask ^= 1 << x
        within = _drop_bit(mask, x)
        fits = stored[stored & ~within == 0]
        pmask = _insert_bit(int(fits[np.argmax(bps[x][fits] == bps[x][within])]), x)
        for p in range(n):
            if pmask >> p & 1:
                g.add_arc(p, x)
    return g


def _superset_maxima(bps: np.ndarray, rows) -> None:
    """Turn each row of ``rows`` into running maxima over supersets, a row
    at a time so that the row stays in cache across bits."""
    for x in rows:
        for b in range(len(bps) - 1):
            view = bps[x].reshape(-1, 2, 1 << b)
            np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])


def _layers(dp: np.ndarray, bps: np.ndarray, popcnt: np.ndarray,
            top: bool | None = None, sync=None) -> None:
    """Fill ``dp`` layer by layer, by popcount: each subset of layer s takes
    the best of ``dp[T - {x}] + bps[x][T - {x}]`` over its members x.

    ``top`` None fills every subset. Otherwise only those with (True) or
    without (False) node n - 1 are filled, and ``sync()`` runs between
    layers; the fill stops where it returns a false value. A subset without
    node n - 1 reads only others without it, while one with it reads,
    through x = n - 1, the previous layer of the others. Parent masks j
    below ``1 << (n - 2)`` lack node n - 1 for every x < n - 1, so each half
    takes a contiguous slice of the ascending j; each subset sees its
    members in ascending order either way.
    """
    n = len(bps)
    for s in range(1, n + 1):
        js = np.flatnonzero(popcnt == s - 1)
        if top is None:
            spans = [(x, js) for x in range(n)]
        else:
            if s > 1 and not sync():
                return
            cut = int(np.searchsorted(js, 1 << (n - 2)))
            spans = [(x, js[cut:] if top else js[:cut]) for x in range(n - 1)]
            if top:
                spans.append((n - 1, js))
        for x, j in spans:
            prev = _insert_bit(j, x)
            sel = prev | 1 << x
            cand = dp[prev] + bps[x][j]
            # numpy's maximum returns its second argument on ties, so only a
            # strictly larger candidate replaces the best so far, and the
            # smallest sink keeps an exact tie
            np.maximum(cand, dp[sel], out=cand)
            dp[sel] = cand


def _fork_layers(dp: np.ndarray, bps: np.ndarray, popcnt: np.ndarray) -> None:
    """Run :func:`_layers` in two processes, split on node n - 1: a forked
    child fills the subsets without it, and this process the others.
    Between layers the child writes a byte to a pipe and this process reads
    one, so it waits only for the child's previous layer; an end of file
    means the child failed, and the join reports its exit code. The split
    uses at most two processes."""
    n = len(bps)
    shares = [f"with node {n - 1}", f"without node {n - 1}"]
    r, w = os.pipe()
    write_end = [w]

    def run(share: str) -> None:
        if share == shares[1]:
            _layers(dp, bps, popcnt, False, lambda: os.write(w, b"\0"))
        else:
            # without this process's write end, the child's exit closes
            # the pipe
            os.close(write_end.pop())
            _layers(dp, bps, popcnt, True, lambda: os.read(r, 1))

    try:
        _fork_shares(run, shares, "DP layer", "subsets")
    finally:
        for fd in (r, *write_end):
            os.close(fd)


def _random_start(adj: np.ndarray, k: int, rng: np.random.Generator) -> None:
    """Fill the empty arc matrix ``adj`` with a random DAG: pick a node
    order, then sprinkle forward arcs under the cap."""
    n = len(adj)
    order = rng.permutation(n)
    for j in range(1, n):
        v = int(order[j])
        for i in range(j):
            if adj[:, v].sum() >= k:
                break
            if rng.random() < 0.15:
                adj[int(order[i]), v] = True


def learn_hill_climb(d: Dataset, cfg: LearnerConfig = LearnerConfig(),
                     ctx: ScoreContext | None = None) -> Dag:
    """Best-improvement local search over add/remove/reverse moves."""
    ctx = _context(d, ctx)
    n = d.n_variables
    best = np.zeros((n, n), dtype=bool)
    best_score = -math.inf
    for restart in range(cfg.restarts):
        adj = np.zeros((n, n), dtype=bool)
        if restart > 0:
            _random_start(adj, cfg.max_parents, np.random.default_rng([cfg.seed, restart]))
        score = _climb(ctx, adj, cfg.max_parents)
        if score > best_score + 1e-12:
            best_score, best = score, adj
    return Dag.from_arcs(n, np.argwhere(best).tolist(), [v.name for v in d.variables])


def _legal_moves(adj: np.ndarray, k: int) -> np.ndarray:
    """Masks of the moves that keep the graph acyclic and every parent set
    within ``k``: ``[kind, u, v]`` for the arc ``u -> v``, kinds in the
    order add, remove, reverse. ``adj[u, v]`` marks the arc ``u -> v``."""
    # paths of one or more arcs, by squaring until no longer path appears
    reach = adj
    while True:
        longer = reach | reach @ reach
        if (longer == reach).all():
            break
        reach = longer
    room = adj.sum(axis=0) < k
    # adding u -> v between non-adjacent nodes closes a cycle iff v reaches
    # u; reversing u -> v closes one iff a path of two or more arcs leads
    # from u to v
    add = ~(adj | adj.T | reach.T | np.eye(len(adj), dtype=bool)) & room
    reverse = adj & ~(adj @ reach) & room[:, None]
    return np.stack([add, adj, reverse])


def _climb(ctx: ScoreContext, adj: np.ndarray, k: int) -> float:
    """Apply the best strictly improving move to the arc matrix ``adj``
    (``adj[u, v]`` marks ``u -> v``) until none is left, and return the
    final graph's score: its local scores summed in node order."""
    n = len(adj)
    if n < 2:
        return sum(bic(ctx, x) for x in range(n))  # no move exists
    local = np.zeros(n)
    # score deltas of adding and of removing u -> v, at [u, v]; a target's
    # column is recomputed whenever its parent set changes, and reversing
    # u -> v scores remove[u, v] + add[v, u]
    add = np.zeros((n, n))
    remove = np.zeros((n, n))
    stale = range(n)
    while True:
        for v in stale:
            pa = np.flatnonzero(adj[:, v]).tolist()
            drops = drop_bic(ctx, v, pa, pa)
            local[v] = bic(ctx, v, pa)
            remove[pa, v] = drops - local[v]
            if len(pa) < k:
                cands = [u for u in range(n) if u != v and not adj[u, v]]
                add[cands, v] = fill_bic(ctx, v, pa, cands)[0] - local[v]

        # the largest delta above 1e-10 wins; the first maximum in
        # (kind, u, v) order takes exact ties
        deltas = np.where(_legal_moves(adj, k), np.stack([add, remove, remove + add.T]),
                          -np.inf)
        best = int(deltas.argmax())
        if not deltas.flat[best] > 1e-10:
            return sum(local.tolist())
        kind, arc = divmod(best, n * n)
        u, v = divmod(arc, n)
        adj[u, v] = kind == 0  # an add sets the arc; a remove or reverse clears it
        stale = (v,)
        if kind == 2:
            adj[v, u] = True
            stale = (u, v)


def learn(d: Dataset, cfg: LearnerConfig = LearnerConfig(),
          ctx: ScoreContext | None = None) -> Dag:
    """Dispatch on ``cfg.mode``; ``auto`` uses the exact engine when feasible.

    ``ctx``, when given, must be bound to ``d``; its memo then outlives the
    call, for the probes that follow learning.
    """
    if cfg.mode == "exact":
        return learn_exact(d, cfg, ctx)
    if cfg.mode == "hill_climb":
        return learn_hill_climb(d, cfg, ctx)
    if d.n_variables <= EXACT_MAX_NODES and cfg.max_parents <= EXACT_MAX_PARENTS:
        return learn_exact(d, cfg, ctx)
    return learn_hill_climb(d, cfg, ctx)
