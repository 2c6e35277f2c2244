"""Score-based DAG structure learners.

Two engines behind one config:

* ``learn_exact`` — global optimum of the decomposable BIC under a parent
  cap, in three steps. (1) Score, for every node, the parent sets of size
  <= k that beat every proper subset of themselves, the only ones an
  optimal graph can read, into a compact table of one column per stored
  parent set; every other family holds ``-inf``. Two passes tally variable
  subsets of size <= k + 1. The first tallies every subset, sibling
  subsets in one bincount, with :class:`~latentdag.data.BatchTally` (the
  batch tally that the probes and the climber share), keeps H(T) =
  sum N ln N of each and rules out each family that a subset beats by more
  than a bound on both routes' rounding. The second tallies again, one
  bincount each, the subsets that hold the remaining families, and scores
  those exactly from their joints. The filter between the passes and the
  last one after them work on every node's scores at once. (2) Rank each
  node's finite families by best score, then fewest members, then
  smallest mask, in one sort over those of all nodes; each ``-inf`` family
  holds one sentinel rank, which the DP never reads. (3) Run dynamic
  programming over node subsets, layer by popcount (each layer found by
  one scan of every mask's popcount), that keeps only each subset's best
  score, a value that no candidate order can change; each layer first
  derives, from the layer before, the rank of each node's best family
  inside each parent mask it reads, as the minimum of the mask's own rank
  and those of the masks one member short, so no array spans every parent
  mask. The graph is rebuilt by peeling sinks, and the peel sets the tie
  rule: each subset's sink is the smallest member whose candidate attains
  its best, and its parents are its best-ranked family in the remaining
  nodes, the first of its finite families in rank order that fits there,
  found for every member at once. Feasible up to 20 nodes with k <= 4,
  where the best scores (8 MB) are the largest array, the table 0.8 MB.
  One rule sets the processes of the table and of the DP, checked as each
  starts. Each runs in one process on a single CPU, where ``fork`` is
  missing or unsafe, or in a process that ``multiprocessing`` started
  (the outermost layer with independent work takes the CPUs, and nothing
  inside it forks again). Otherwise each pass of step (1) splits its
  branches (the subsets by smallest member) over the usable CPUs from
  ``_FORK_MIN_SUBSETS`` units of work, a unit being a subset tallied or a
  family scored exactly, and step (3) splits on the top node into two
  processes from ``_FORK_MIN_DP_NODES`` nodes, each half deriving the
  ranks it reads in its own arrays. Both fork into arrays in shared
  memory. Every array is bit-identical at every worker count.
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
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_integer, _check_seed
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
            _check_integer(name, getattr(self, name))
        if self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.mode not in ("exact", "hill_climb", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")


class LocalScoreTable:
    """Every local score ``(x, S)`` with ``|S| <= k`` that no proper subset
    of ``S`` matches, one column per set.

    The table owns the layout of the stored families. ``masks`` lists the
    ``M`` parent masks of at most ``k`` members over ``n - 1`` bits, in
    ascending order, and ``scores`` is an ``(n, M)`` float64 array whose
    column ``c`` holds ``masks[c]``: row ``x``'s masks have ``x``'s own bit
    removed (bits above ``x`` shift down one slot, as :func:`_drop_bit`
    does). A family that some proper subset of its parents matches or beats
    holds ``-inf``: that subset ranks before it (by score, then by fewer
    members), so it is never the best-ranked family inside a parent mask and
    no optimal graph reads it. Every other entry, the empty set's always, is
    the float a tally of that family alone gives. :func:`build_local_scores`
    fills the array in anonymous shared memory, from one process per usable
    CPU (one on a single CPU, where ``fork`` is missing or unsafe, or in a
    ``multiprocessing`` child); its bits do not depend on the number of
    processes.
    """

    def __init__(self, n: int, k: int, masks: np.ndarray, scores: np.ndarray):
        self.n = n
        self.k = k
        self.masks = masks
        self.scores = scores

    @property
    def node_scores(self) -> list[np.ndarray]:
        """Each node's score row, in ``masks`` order."""
        return list(self.scores)


def build_local_scores(ctx: ScoreContext, k: int) -> LocalScoreTable:
    """Score every (node, parent set <= k) family that beats each proper
    subset of its parents, in two passes over subset tallies.

    Each pass enumerates variable subsets T with 1 <= |T| <= k + 1
    depth-first in ascending-id order: a prefix P extends its mixed-radix
    row code to each child subset P + {y}, y > max(P).

    Pass 1 tallies every subset, a batch of sibling subsets side by side in
    one bincount, and keeps one number of each, H(T) = sum N ln N over the
    cells of its joint (one lookup in a table of N ln N per batch). A family
    (x, S) then scores H(S + {x}) - H(S) less its penalty, within half of a
    slack of its exact score (:func:`_entropy_scores`), so a family that
    some proper subset beats by more than the slack there is beaten exactly
    too, and drops out. Pass 2
    tallies again, by one bincount each, the subsets that hold a remaining
    family (:func:`_plan`), and scores those families exactly from the
    subset's joint. Moving x's axis of a joint to the last place gives
    exactly the (configuration, child state) table of the family, so each
    score is the float a separate tally of that family would give. Last,
    each family that a proper subset matches or beats in these exact scores
    becomes ``-inf``. The scores fill the columns of
    :class:`LocalScoreTable`, each placed through a lookup over every mask,
    hence at most ``EXACT_MAX_NODES`` variables.

    Branch ``y`` holds the subsets of two or more members whose smallest
    member is ``y``. In each pass the branches are split over the usable
    CPUs, balanced by their work (pass 1 tallies each subset; pass 2 also
    scores each kept family exactly, a unit of work each), and each share
    but the first runs in a process forked for it, all into one array in
    shared memory. Every value comes from one subset, in the same steps in
    whichever process, so the table is bit-identical at every worker count.
    A pass runs serially on one CPU, where ``fork`` is missing or unsafe
    (beside other threads), in a process that ``multiprocessing`` started
    (a benchmark repetition in its pool, say, whose pool already holds the
    CPUs), and below ``_FORK_MIN_SUBSETS`` units of work, where a fork
    costs more than it saves.
    """
    _check_integer("k", k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = ctx.dataset.n_variables
    if n > EXACT_MAX_NODES:
        raise ValueError(f"exact mode handles at most {EXACT_MAX_NODES} variables, got {n}")
    if n == 0:
        return LocalScoreTable(0, k, np.empty(0, dtype=np.intp), np.empty((0, 0)))
    t = _Tallies(ctx, k)
    _run_pass(t, _entropies, n, _branch_sizes(n, k))
    approx, slack = _entropy_scores(t)
    keep = approx >= _subset_maxima(t, approx) - slack[:, None]
    _run_pass(t, _score, *_plan(t, keep))
    # a family that a proper subset matches ranks after it, by fewer members
    t.scores[~(t.scores > _subset_maxima(t, t.scores))] = -np.inf
    return LocalScoreTable(n, k, t.masks, t.scores)


def _run_pass(t: _Tallies, step, here: int, sizes: list[int]) -> None:
    """Run ``step`` on the singletons here, then on every branch, split over
    the processes that :func:`_workers` allows for the pass's work: ``here``
    units on the singletons and ``sizes`` on the branches, a unit being a
    subset tallied or a family scored exactly."""
    t.step = step
    step(t, (), 0, 1)
    shares = _shares(sizes, _workers(t.n, t.k, here + sum(sizes))[0])
    _fork_shares(lambda share: _run_share(t, share), shares, "score table", "branches")


def _branch_sizes(n: int, k: int) -> list[int]:
    """Branch y's subset count, for each y; with k = 0 there are no branches."""
    return [sum(math.comb(n - 1 - y, d) for d in range(1, k + 1))
            for y in range(n - 1 if k else 0)]


# A pass of the table with less work runs serially. Its work counts a unit
# per subset tallied and per family scored exactly: a subset that shares
# pass 1's batches and a pass-2 tally or exact score each cost about
# 10-20 us at 5k rows. On 2 vCPUs, timing passes of child samples at 1 and
# 2 workers in alternation, a second worker paid off in pass 1 from about
# 1,000 units (child cut to 11 nodes at 5k rows) while the second vCPU was
# free, and lost up to 3,500 while it was busy; in pass 2 it paid off from
# about 1,300 units (3k rows) in one set and from about 1,900 (5k rows) in
# another, and never below 900.
_FORK_MIN_SUBSETS = 1500
# The DP over fewer nodes runs in one process. On 2 cores, with child at
# 5k rows cut to its first m nodes, forking the DP (then in two stages)
# cost a median 4 ms at 15 nodes and 1-2 ms at 16, and saved 9-11 ms at
# 17 and 24-30 ms at 18.
_FORK_MIN_DP_NODES = 17


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_budget() -> int:
    """How many processes this one may run its work in: one inside a process
    that ``multiprocessing`` started (the outermost layer with independent
    work takes the CPUs, and nothing inside it forks again), and the usable
    CPUs otherwise. The exact learner and the benchmark grid both read it."""
    import multiprocessing
    return 1 if multiprocessing.parent_process() is not None else _usable_cpus()


def _workers(n: int, k: int, work: int | None = None) -> tuple[int, int]:
    """How many processes run a pass of the table that does ``work`` units
    (subsets tallied plus families scored exactly; by default a first pass
    over ``n`` nodes under the cap ``k``, which tallies every subset), and
    how many run the DP over those nodes: at most two, one per half of its
    layer split."""
    if work is None:
        work = n + sum(_branch_sizes(n, k))
    table = work >= _FORK_MIN_SUBSETS
    dp = n >= _FORK_MIN_DP_NODES
    if not (table or dp):
        return 1, 1
    cpus = _cpu_budget()
    if cpus < 2:
        return 1, 1
    import multiprocessing
    import threading
    # a forked child could inherit a lock that another thread of this
    # process holds
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1, 1
    return cpus if table else 1, 2 if dp else 1


def _shares(sizes: list[int], workers: int) -> list[list[int]]:
    """Split the non-empty branches, whose subset counts are ``sizes``, into
    at most ``workers`` non-empty shares: longest processing time first,
    each branch to the lightest share so far (the first on ties)."""
    branches = sorted((y for y in range(len(sizes)) if sizes[y]), key=lambda y: -sizes[y])
    shares: list[list[int]] = [[] for _ in range(max(1, min(workers, len(branches))))]
    loads = [0] * len(shares)
    for y in branches:
        i = loads.index(min(loads))
        shares[i].append(y)
        loads[i] += sizes[y]
    return shares


def _fork_shares(run, shares: list, stage: str, unit: str) -> None:
    """Call ``run(shares[0])`` in this process and ``run(share)`` for each
    other share in a forked child, which writes its results into shared
    memory; a single share runs here without ``multiprocessing``. A child
    that fails fails the call, naming ``stage`` and the child's ``unit``
    and share; a failure here stops the children first."""
    if len(shares) == 1:
        return run(shares[0])
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
            f"{unit} {', '.join(map(str, share))} exited with code {code}"
            for share, code in failed))


def _run_share(t: _Tallies, share: list[int]) -> None:
    for y in share:
        _visit(t, (), 0, 1, y)


class _Tallies:
    """State of one :func:`build_local_scores` call: the shared batch tally,
    the prefix codes, the stored masks, each parent mask's column, the
    pass's step and the score array being filled, which lives in anonymous
    shared memory so that forked workers write into it. Pass 1 leaves there
    H(T) of each subset T, in the slot of the family (max T, T - {max T});
    pass 2 reads the families to ``keep``, the ``kept`` subsets that hold
    them and the prefixes to ``extend`` (see :func:`_plan`)."""

    def __init__(self, ctx: ScoreContext, k: int):
        d = ctx.dataset
        self.n = d.n_variables
        self.k = k
        self.cards = d.cardinalities
        self.half_log_n = 0.5 * ctx.log_n
        self.tally = ctx.tally
        # row code of the current prefix at each depth, depth 0 empty; pass 2
        # codes each subset it tallies one depth below its prefix
        self.prefix_codes = np.zeros((k + 2, d.n_rows), dtype=np.int64)
        members = _popcounts(self.n - 1)
        self.masks = np.flatnonzero(members <= k)
        self.columns = np.full(1 << (self.n - 1), -1, dtype=np.int32)
        self.columns[self.masks] = np.arange(len(self.masks))
        # the columns of each member count p >= 1, and for each of their
        # p members the columns of the masks without it
        self.layers = []
        for p in range(1, k + 1):
            cols = np.flatnonzero(members[self.masks] == p)
            masks, drops = self.masks[cols], []
            rest = masks
            for _ in range(p):
                low = rest & -rest
                rest = rest ^ low
                drops.append(self.columns[masks ^ low])
            self.layers.append((cols, drops))
        # indexed by Python ints, as the tallies read one column at a time
        self.column = memoryview(self.columns)
        self.scores = np.frombuffer(mmap.mmap(-1, 8 * self.n * len(self.masks)),
                                    dtype=np.float64).reshape(self.n, -1)
        counts = np.arange(d.n_rows + 1, dtype=np.float64)
        self.nlogn = counts * np.log(np.maximum(counts, 1))
        # set by each pass
        self.step = self.keep = self.kept = self.extend = None


def _visit(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int, y: int) -> None:
    """Extend the prefix's row code by ``y``, run the pass's step on every
    subset ``prefix + (y, z)``, z above y, then visit those subsets that can
    take another member; pass 2 skips a prefix that no needed subset
    starts with."""
    if t.extend is not None and mask | 1 << y not in t.extend:
        return
    _extend(t, len(prefix), y)
    prefix, mask, n_cfg = prefix + (y,), mask | 1 << y, n_cfg * t.cards[y]
    t.step(t, prefix, mask, n_cfg)
    if len(prefix) < t.k:
        for z in range(y + 1, t.n - 1):
            _visit(t, prefix, mask, n_cfg, z)


def _extend(t: _Tallies, depth: int, y: int) -> np.ndarray:
    """Write the row code of the depth-``depth`` prefix extended by ``y``
    into the next depth's buffer, and return it."""
    code = t.prefix_codes[depth + 1]
    np.multiply(t.prefix_codes[depth], t.cards[y], out=code)
    code += t.tally.cols[y]
    return code


def _entropies(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int) -> None:
    """Pass 1: H of every subset ``prefix + (y,)``, y above the prefix, from
    batch tallies of the prefix's row code, into the slot of the family
    (y, prefix). The ys of a batch are consecutive ids, so each owns one
    run of its joint's columns."""
    first = prefix[-1] + 1 if prefix else 0
    c = t.column[mask]
    for ys, joint, at in t.tally.joints(t.prefix_codes[len(prefix)], n_cfg, range(first, t.n)):
        cells = np.add.reduce(t.nlogn.take(joint), axis=0)
        t.scores[ys.start:ys.stop, c] = np.add.reduceat(cells, at)


def _score(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int) -> None:
    """Pass 2: tally each kept subset ``prefix + (y,)``, y above the prefix,
    by one bincount of the prefix's row code extended by y, and score its
    kept families from that joint."""
    first = prefix[-1] + 1 if prefix else 0
    pcards = [t.cards[p] for p in prefix]
    for y in range(first, t.n):
        if mask | 1 << y in t.kept:
            cy = t.cards[y]
            counts = np.bincount(_extend(t, len(prefix), y), minlength=n_cfg * cy)
            _score_subset(t, [*prefix, y], counts.reshape(*pcards, cy))


def _score_subset(t: _Tallies, members: list[int], grid: np.ndarray) -> None:
    """Score the kept families (x, members - {x}) from the joint ``grid``
    of ``members``, one axis per member in ascending order. Moving x's axis
    last gives exactly the (configuration, child state) table of the family,
    and its positive cells come in the order of a tally of that family
    alone. Penalties keep the association 0.5 * log n * (|x| - 1) * configs.
    """
    mask = sum(1 << v for v in members)
    for i, x in enumerate(members):
        c = t.column[_drop_bit(mask ^ 1 << x, x)]
        if t.keep[x, c]:
            cx = t.cards[x]
            table = grid.transpose(*range(i), *range(i + 1, len(members)), i)
            ll = log_likelihood(table.reshape(1, -1, cx), axis=2)[0]
            t.scores[x, c] = ll - t.half_log_n * (cx - 1) * (grid.size // cx)


def _entropy_scores(t: _Tallies) -> tuple[np.ndarray, np.ndarray]:
    """Every node's family scores from the H values that pass 1 left, in
    the table's layout, and each node's slack: twice a bound on how far any
    of its scores can fall from the exact score that pass 2 would give."""
    nodes = np.arange(t.n)[:, None]
    parents = _insert_bit(t.masks, nodes)
    h_family = _entropy_of(t, parents | 1 << nodes)
    # the empty set's one cell counts every row
    h_parents = np.full(parents.shape, t.nlogn[-1])
    h_parents[:, 1:] = _entropy_of(t, parents[:, 1:])
    # the configurations of a parent mask: those of the mask without its
    # lowest member, times that member's states, built by member count
    cards = np.array(t.cards)
    slots = np.arange(t.n - 1)
    others = cards[slots + (slots >= nodes)]  # row x: the cards of x's parent slots
    configs = np.ones(parents.shape, dtype=np.int64)
    for cols, drops in t.layers:
        low = t.masks[cols] & -t.masks[cols]
        configs[:, cols] = configs[:, drops[0]] * others[:, np.frexp(low)[1] - 1]
    penalties = t.half_log_n * (cards[:, None] - 1) * configs
    # Either route adds at most N nonzero terms (a joint has at most N
    # occupied cells), whose sizes sum to at most A = N (1 + ln N): a count
    # N_c weighs at most ln N, in N_c ln N_c and in N_xz ln(N_xz / N_z).
    # With every division, log and product within four ulps, each of the
    # three sums (the family's and the two H values) is within
    # (1.01 N + 9) u A of its real value, u = eps / 2; with their difference
    # and the penalty subtractions, the two scores differ by at most
    # (3.03 N + 30) u (A + P) < (3N + 16) eps (A + P).
    n_rows = len(t.nlogn) - 1
    bound = ((3 * n_rows + 16) * np.finfo(np.float64).eps
             * (n_rows * (1 + math.log(n_rows)) + penalties.max(axis=1)))
    return h_family - h_parents - penalties, 2 * bound


def _entropy_of(t: _Tallies, sets: np.ndarray) -> np.ndarray:
    """H of each non-empty subset in ``sets`` (masks over all variables),
    read from its slot after pass 1: its highest member's row, at the
    column of the rest."""
    top = np.frexp(sets)[1] - 1
    return t.scores[top, t.columns[sets ^ (1 << top)]]


def _subset_maxima(t: _Tallies, scores: np.ndarray) -> np.ndarray:
    """For every node's row of ``scores``, each family's best score over the
    proper subsets of its parents: the largest ``scores[x, c']`` over the
    masks ``c'`` strictly inside ``masks[c]``, ``-inf`` for the empty set.
    Built by member count, from the best inside each mask one member short,
    for all nodes at once."""
    below = np.full(scores.shape, -np.inf)
    inside = scores.copy()
    for cols, drops in t.layers:
        best = below[:, cols]
        for sub in drops:
            np.maximum(best, inside[:, sub], out=best)
        below[:, cols] = best
        inside[:, cols] = np.maximum(scores[:, cols], best)
    return below


def _plan(t: _Tallies, keep: np.ndarray) -> tuple[int, list[int]]:
    """Set pass 2 up for the families that ``keep`` marks, and return its
    work (a unit per subset tallied and per family scored) on the
    singletons and on each branch: ``kept`` holds every subset that holds a
    kept family, ``extend`` every prefix that such a subset starts with,
    and the table is reset to ``-inf`` for pass 2 to fill."""
    t.keep = keep
    x, c = np.nonzero(keep)
    subsets, families = np.unique(_insert_bit(t.masks[c], x) | 1 << x, return_counts=True)
    t.kept = set(subsets.tolist())
    t.extend = set()
    for prefix in t.kept:
        prefix ^= 1 << prefix.bit_length() - 1
        while prefix:
            t.extend.add(prefix)
            prefix ^= 1 << prefix.bit_length() - 1
    # a subset of two or more members lies in the branch of its lowest one
    low = subsets & -subsets
    work = 1 + families
    single = subsets == low
    branches = np.bincount(np.frexp(low[~single])[1] - 1, work[~single],
                           minlength=len(_branch_sizes(t.n, t.k)))
    t.scores.fill(-np.inf)
    return int(work[single].sum()), branches.astype(np.int64).tolist()


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
    table = build_local_scores(_context(d, ctx), k)
    if n == 0:
        return Dag(0, [])
    scores, stored = table.scores, table.masks
    # the table's rule, checked again now that the DP is about to fork
    dp_workers = _workers(n, k)[1]

    # rank each node's finite families by best score, then fewest members,
    # then smallest mask; the DP's halves derive from the ranks the rank of
    # x's best family inside each parent mask, a layer at a time. The empty
    # set is stored and finite, so every mask holds a finite family, and the
    # table's -inf families, which share a sentinel rank, are never read.
    rank_of, vals, best = _rank(scores, stored)

    # best score of each variable subset, in shared memory for the layers'
    # second process
    dp = np.frombuffer(mmap.mmap(-1, 8 << n), dtype=np.float64)
    dp.fill(-np.inf)
    dp[0] = 0.0
    _fork_layers(dp, vals, rank_of, stored, k, dp_workers)

    # peel the sinks, which sets the tie rule: a subset's sink is the
    # smallest x whose candidate attains its best. A sink's parents are its
    # best-ranked family in the remaining variables: the first stored set,
    # by fewest members then smallest mask, that scores the best there.
    g = Dag(n, [v.name for v in d.variables])
    nodes = np.arange(n)
    mask = (1 << n) - 1
    while mask:
        xs = nodes[mask >> nodes & 1 == 1]
        rest = mask ^ 1 << xs
        # each member's best-ranked family inside the other members; the
        # empty set fits any, so the first fit lies among the finite ranks
        fit = (best[xs] & ~_drop_bit(rest, xs)[:, None] == 0).argmax(axis=1)
        i = int((dp[rest] + vals[xs, fit] == dp[mask]).argmax())
        x = int(xs[i])
        mask ^= 1 << x
        pmask = _insert_bit(int(best[x, fit[i]]), x)
        for p in range(n):
            if pmask >> p & 1:
                g.add_arc(p, x)
    return g


def _rank(scores: np.ndarray, stored: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each node's finite families by best score, then fewest members,
    then smallest mask, in one sort over those of all rows. Returns each
    family's rank in stored order (uint16; each -inf family holds the
    sentinel ``np.iinfo(np.uint16).max``, which no layer's minimum reaches,
    as the empty set is finite), and the scores and the masks of each node's
    finite families in rank order, padded with -inf and -1 to the longest
    such run."""
    n = len(scores)
    members = _popcounts(n - 1)[stored]
    xs, cs = np.nonzero(scores > -np.inf)
    order = np.lexsort((members[cs], -scores[xs, cs], xs))
    xs, cs = xs[order], cs[order]
    heads = np.bincount(xs, minlength=n)
    rank = np.arange(len(xs)) - (np.cumsum(heads) - heads)[xs]
    rank_of = np.full(scores.shape, np.iinfo(np.uint16).max, dtype=np.uint16)
    rank_of[xs, cs] = rank
    vals = np.full((n, heads.max()), -np.inf)
    vals[xs, rank] = scores[xs, cs]
    best = np.full(vals.shape, -1, dtype=stored.dtype)
    best[xs, rank] = stored[cs]
    return rank_of, vals, best


def _rank_layer(rank_of: np.ndarray, rows: slice, stored: np.ndarray, k: int,
                masks: np.ndarray, below: tuple[int, np.ndarray] | None,
                place: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of each of ``rows``' best stored family inside each parent
    mask j of ``masks``, p-member masks in ascending order, returned as the
    layer's (place of its first mask, ranks) and derived from ``below``,
    the layer before in that form: the minimum over the masks j - b, for b
    among the min(p, k + 1) lowest members of j (a stored family has at most
    k members, so it misses one of any k + 1 members of j), taken with j's
    own rank while p <= k. ``rank_of[x]`` holds x's ranks in ``stored``
    order, so every value is an exact minimum of them.

    ``place[m]`` is m's position among the masks of its popcount, in
    ascending order. Each layer is a contiguous run of those, so a mask's
    position in ``below`` is its place less that of the run's first mask.
    The minima are taken a row at a time, so that no temporary is as large
    as the ranks."""
    p = int(masks[0]).bit_count() if len(masks) else 0
    ranks = rank_of[rows].take(np.searchsorted(stored, masks), axis=1) if p <= k else None
    rest, at = masks.copy(), np.empty_like(masks)
    for _ in range(min(p, k + 1)):
        np.negative(rest, out=at)
        at &= rest  # b, the lowest member left in rest
        rest ^= at
        at ^= masks  # j - b
        np.subtract(place[at], below[0], out=at)  # its position in below
        if ranks is None:
            ranks = below[1].take(at, axis=1)
            continue
        for row, prev in zip(ranks, below[1]):
            np.minimum(row, prev.take(at), out=row)
    return int(place[masks[0]]) if len(masks) else 0, ranks


def _layers(dp: np.ndarray, vals: np.ndarray, rank_of: np.ndarray, stored: np.ndarray,
            k: int, top: bool, sync) -> None:
    """Fill the subsets of ``dp`` with (``top`` True) or without (False)
    node n - 1, layer by popcount: each subset of layer s takes the best of
    ``dp[T - {x}] + vals[x][r]`` over its members x, where r is the rank of
    x's best family inside the parent mask ``T - {x}``. ``sync()`` runs
    before each layer's subsets.

    Parent masks j below ``half = 1 << (n - 2)`` lack node n - 1 for every
    x < n - 1, so each half takes a contiguous slice of the ascending j, and
    ranks, by :func:`_rank_layer`, the layer of masks it reads from the
    layer before, in its own arrays (two layers of ranks, an int32 place
    and a uint8 popcount per parent mask): the half without the node the
    low masks of rows x < n - 1; the other the high ones, whose masks j - b
    reach the low masks of the first k + 1 layers, so it ranks those too,
    and all masks of row n - 1. So a half's ranks depend on nothing that
    the other writes, and are taken before ``sync()``. A subset without
    node n - 1 reads only others without it, while one with it reads,
    through x = n - 1, the previous layer of the others. ``dp`` holds
    values only, so neither the order of the candidates nor that of
    ``np.maximum``'s arguments changes a bit, signed zeros aside; the peel
    in :func:`learn_exact` sets the tie rule.
    """
    n = len(vals)
    half = 1 << max(n - 2, 0)
    groups = [slice(0, n - 1), slice(n - 1, n)] if top else [slice(0, n - 1)]
    below = [None] * len(groups)
    popcnt = _popcounts(max(n - 1, 0))
    place = np.empty(len(popcnt), dtype=np.int32)
    for s in range(1, n + 1):
        js = np.flatnonzero(popcnt == s - 1)
        place[js] = np.arange(len(js))
        cut = int(np.searchsorted(js, half))
        picks = [js if s - 1 <= k else js[cut:], js] if top else [js[:cut]]
        below = [_rank_layer(rank_of, rows, stored, k, masks, prev, place)
                 for rows, masks, prev in zip(groups, picks, below)]
        sync()
        _fill_layer(dp, vals, js, cut, top, [ranks for _, ranks in below])


def _fill_layer(dp: np.ndarray, vals: np.ndarray, js: np.ndarray, cut: int, top: bool,
                ranks: list[np.ndarray]) -> None:
    """Give each subset of one layer of a :func:`_layers` half its best
    candidate: the parent masks ``js`` of the layer before, with ``cut`` of
    them low, and the ranks of each of the half's groups of rows; the ranks
    of the half's own slice of ``js`` end each row of the first group. One
    set of index and value buffers serves every node of the layer."""
    n = len(vals)
    mine = js[cut:] if top else js[:cut]
    spans = [(x, mine, ranks[0][x, ranks[0].shape[1] - len(mine):]) for x in range(n - 1)]
    if top:
        spans.append((n - 1, js, ranks[1][0]))
    size = len(js) if top else len(mine)
    sel, idx, cand, other = (np.empty(size, dtype=dtype)
                             for dtype in (np.intp, np.intp, np.float64, np.float64))
    for x, j, r in spans:
        m = len(j)
        if x < n - 1:
            # _insert_bit(j, x) into sel; node n - 1's masks lie below its bit
            np.right_shift(j, x, out=idx[:m])
            np.left_shift(idx[:m], x + 1, out=idx[:m])
            np.bitwise_and(j, (1 << x) - 1, out=sel[:m])
            j = np.bitwise_or(sel[:m], idx[:m], out=sel[:m])
        # the indices are in range, so "clip" takes them unbuffered
        np.take(dp, j, out=cand[:m], mode="clip")
        np.copyto(idx[:m], r)
        np.take(vals[x], idx[:m], out=other[:m], mode="clip")
        cand[:m] += other[:m]
        np.bitwise_or(j, 1 << x, out=sel[:m])
        np.take(dp, sel[:m], out=other[:m], mode="clip")
        np.maximum(cand[:m], other[:m], out=cand[:m])
        dp[sel[:m]] = cand[:m]


def _fork_layers(dp: np.ndarray, vals: np.ndarray, rank_of: np.ndarray, stored: np.ndarray,
                 k: int, workers: int) -> None:
    """Run both halves of :func:`_layers`, split on node n - 1. Before each
    layer the half without the node, in this process, writes a byte to a
    pipe and the other reads one, so it waits only for the first's previous
    layer. Two ``workers`` run the half with the node in a forked child
    beside it, and one runs that half afterwards here, where the pipe
    already holds every byte. The reader never waits for an end of file: a
    failure here terminates the child, and a failed child fails the join."""
    n = len(vals)
    top, rest = f"with node {n - 1}", f"without node {n - 1}"
    shares = [[rest], [top]] if workers > 1 else [[rest, top]]
    r, w = os.pipe()
    syncs = {rest: lambda: os.write(w, b"\0"), top: lambda: os.read(r, 1)}

    def run(share: list[str]) -> None:
        for half in share:
            _layers(dp, vals, rank_of, stored, k, half == top, syncs[half])

    try:
        _fork_shares(run, shares, "DP layer", "subsets")
    finally:
        os.close(r)
        os.close(w)


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
    if cfg.restarts > 1:  # each later restart seeds a generator from the seed
        _check_seed(cfg.seed)
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
