"""Score-based DAG structure learners.

Two engines behind one config:

* ``learn_exact`` — global optimum of the decomposable BIC under a parent
  cap, by (1) scoring every parent set of size <= k for every node, from
  one joint tally per variable subset of size <= k + 1 (a subset's tally
  serves all of its families, and sibling subsets are tallied in one
  bincount), (2) a max-over-supersets transform, and (3) dynamic
  programming over node subsets choosing the last sink. Feasible up to 20
  nodes with k <= 4.
* ``learn_hill_climb`` — add/remove/reverse local search with best-improvement
  moves, per-node delta caching and seeded random restarts.

Both return plain :class:`~latentdag.graphs.Dag` objects. Each takes an
optional :class:`~latentdag.scoring.ScoreContext` so that a discovery run
keeps one memo of scores from learning through the probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .graphs import Dag
from .scoring import ScoreContext, bic, log_likelihood

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
        if self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.mode not in ("exact", "hill_climb", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")


class LocalScoreTable:
    """Every local score ``(x, S)`` with ``|S| <= k``, keyed by parent bitmask.

    ``node_scores[x]`` maps a bitmask over all variables (bit ``i`` = variable
    ``i``, never containing ``x``'s own bit) to the BIC local score of ``x``
    with that parent set.
    """

    def __init__(self, n: int, k: int, node_scores: list[dict[int, float]]):
        self.n = n
        self.k = k
        self.node_scores = node_scores

    def best_within(self, x: int, avail_mask: int) -> tuple[float, int]:
        """Highest-scoring stored parent set of ``x`` inside ``avail_mask``.

        Ties break toward fewer parents, then the smallest mask, so
        reconstruction is deterministic.
        """
        best = -math.inf
        best_mask = 0
        best_key = (0, 0)
        for mask, s in self.node_scores[x].items():
            if mask & ~avail_mask:
                continue
            key = (bin(mask).count("1"), mask)
            if s > best or (s == best and key < best_key):
                best, best_mask, best_key = s, mask, key
        return best, best_mask


def build_local_scores(ctx: ScoreContext, k: int) -> LocalScoreTable:
    """Score all (node, parent set <= k) families from one tally per subset.

    Every variable subset T with 1 <= |T| <= k + 1 is tallied once, and the
    |T| families (x, T - {x}) are scored from that joint table. Subsets are
    enumerated depth-first in ascending-id order: a prefix P extends its
    mixed-radix row code to each child subset P + {y}, y > max(P), and one
    bincount tallies a batch of those children side by side. Moving x's axis
    of a joint to the last place gives exactly the (configuration, child
    state) table of the family, so each score is the float a separate tally
    of that family would give.
    """
    t = _Tallies(ctx, k)
    _visit(t, (), 0, 1)
    return LocalScoreTable(t.n, k, t.node_scores)


# Cap on the elements of one batch's row codes and of its joint tally, so a
# batch's temporaries stay small for long data and for wide domains alike.
_BATCH_ELEMENTS = 1 << 20


class _Tallies:
    """State of one :func:`build_local_scores` call: the columns, workspace
    buffers sized once, and the dicts being filled."""

    def __init__(self, ctx: ScoreContext, k: int):
        d = ctx.dataset
        self.n = d.n_variables
        self.k = k
        self.cards = d.cardinalities
        self.half_log_n = 0.5 * ctx.log_n
        self.cols = np.ascontiguousarray(d.values.T, dtype=np.int64)
        self.batch_rows = max(1, min(self.n, _BATCH_ELEMENTS // d.n_rows))
        self.codes = np.empty((self.batch_rows, d.n_rows), dtype=np.int64)
        self.scaled = np.empty(d.n_rows, dtype=np.int64)
        # row code of the current prefix at each depth; depth 0 is empty
        self.prefix_codes = np.zeros((k + 1, d.n_rows), dtype=np.int64)
        self.node_scores: list[dict[int, float]] = [dict() for _ in range(self.n)]
        # one int object per parent mask, shared by every node's dict
        self.masks: dict[int, int] = {}


def _visit(t: _Tallies, prefix: tuple[int, ...], mask: int, n_cfg: int) -> None:
    """Score the families of every subset ``prefix + (y,)``, y above the
    prefix, then recurse into those subsets that can take another member."""
    depth = len(prefix)
    first = prefix[-1] + 1 if prefix else 0
    cards = t.cards
    code = t.prefix_codes[depth]
    pcards = [cards[p] for p in prefix]
    step = max(1, min(t.batch_rows, _BATCH_ELEMENTS // (n_cfg * max(cards))))
    for lo in range(first, t.n, step):
        hi = min(lo + step, t.n)
        m = hi - lo
        # child j's joint sits at offset j * n_cfg * width as a
        # (prefix configuration, y state) grid padded to the widest y; the
        # padding cells count zero, so no table gains a positive cell
        width = max(cards[lo:hi])
        codes = t.codes[:m]
        np.multiply(code, width, out=t.scaled)
        np.add(t.cols[lo:hi], t.scaled, out=codes)
        codes += np.arange(0, m * n_cfg * width, n_cfg * width)[:, None]
        joint = np.bincount(codes.ravel(), minlength=m * n_cfg * width)

        # x = y: the joint is already the (configuration, child) table.
        # Penalties keep the association of 0.5 * log n * (|x| - 1) * configs.
        lls = log_likelihood(joint.reshape(m, n_cfg, width), axis=2)
        for y, ll in zip(range(lo, hi), lls):
            t.node_scores[y][mask] = ll - t.half_log_n * (cards[y] - 1) * n_cfg

        # x = a prefix member: move its axis last; the parents are the rest
        # of the prefix, then y
        grid = joint.reshape(m, *pcards, width)
        for i, x in enumerate(prefix):
            cx = pcards[i]
            axes = (0, *range(1, i + 1), *range(i + 2, depth + 2), i + 1)
            tables = grid.transpose(axes).reshape(m, n_cfg // cx * width, cx)
            lls = log_likelihood(tables, axis=2)
            rest = mask ^ (1 << x)
            scored = t.node_scores[x]
            penalty = t.half_log_n * (cx - 1)
            for y, ll in zip(range(lo, hi), lls):
                pm = rest | (1 << y)
                scored[t.masks.setdefault(pm, pm)] = ll - penalty * (n_cfg // cx * cards[y])

    if depth == t.k:
        return
    child_code = t.prefix_codes[depth + 1]
    for y in range(first, t.n - 1):
        np.multiply(code, cards[y], out=child_code)
        child_code += t.cols[y]
        grown = mask | (1 << y)
        _visit(t, prefix + (y,), t.masks.setdefault(grown, grown), n_cfg * cards[y])


def _popcounts(n_bits: int) -> np.ndarray:
    v = np.arange(1 << n_bits, dtype=np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return ((v * 0x01010101) >> 24).astype(np.uint8)


def _drop_bit(masks: np.ndarray, x: int) -> np.ndarray:
    """Remove bit ``x`` from each mask, shifting higher bits down one slot."""
    low = (1 << x) - 1
    return (masks & low) | ((masks >> (x + 1)) << x)


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
    if n > EXACT_MAX_NODES:
        raise ValueError(
            f"exact mode handles at most {EXACT_MAX_NODES} variables, got {n}"
        )
    if cfg.max_parents > EXACT_MAX_PARENTS:
        raise ValueError(
            f"exact mode caps max_parents at {EXACT_MAX_PARENTS}, got {cfg.max_parents}"
        )
    k = min(cfg.max_parents, n - 1) if n > 1 else 0
    table = build_local_scores(_context(d, ctx), k)

    # best achievable score of x over any stored parent set inside each mask
    # of the other variables: seed with the exact table, then take running
    # maxima over supersets one bit at a time.
    full = 1 << n
    half = 1 << (n - 1)
    bps = []
    for x in range(n):
        arr = np.full(half, -np.inf)
        masks = np.fromiter(table.node_scores[x].keys(), dtype=np.int64)
        vals = np.fromiter(table.node_scores[x].values(), dtype=np.float64)
        arr[_drop_bit(masks, x)] = vals
        for b in range(n - 1):
            view = arr.reshape(-1, 2, 1 << b)
            np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
        bps.append(arr)

    popcnt = _popcounts(n)
    order = np.argsort(popcnt, kind="stable").astype(np.int32)
    layer_starts = np.searchsorted(popcnt[order], np.arange(n + 2))
    dp = np.full(full, -np.inf)
    dp[0] = 0.0
    for s in range(1, n + 1):
        layer = order[layer_starts[s]:layer_starts[s + 1]]
        for x in range(n):
            sel = layer[(layer >> x) & 1 == 1]
            if sel.size == 0:
                continue
            prev = sel ^ (1 << x)
            cand = dp[prev] + bps[x][_drop_bit(prev, x)]
            dp[sel] = np.maximum(dp[sel], cand)

    # walk the table back: peel one sink at a time, smallest id on ties
    g = Dag(n, [v.name for v in d.variables])
    mask = full - 1
    while mask:
        for x in range(n):
            bit = 1 << x
            if not mask & bit:
                continue
            prev = mask ^ bit
            reach = dp[prev] + bps[x][_drop_bit(np.array([prev]), x)[0]]
            if reach == dp[mask]:
                score, pmask = table.best_within(x, prev)
                for p in range(n):
                    if pmask & (1 << p):
                        g.add_arc(p, x)
                mask = prev
                break
        else:  # pragma: no cover - defensive; dp always admits a sink
            raise AssertionError("sink reconstruction failed")
    return g


def _dag_score(ctx: ScoreContext, g: Dag) -> float:
    return sum(bic(ctx, x, g.parents(x)) for x in range(g.n_nodes))


def _random_start(g: Dag, k: int, rng: np.random.Generator) -> None:
    """Fill the empty ``g`` with a random DAG: pick a node order, then
    sprinkle forward arcs under the cap."""
    n = g.n_nodes
    order = rng.permutation(n)
    for j in range(1, n):
        v = int(order[j])
        for i in range(j):
            u = int(order[i])
            if len(g.parents(v)) >= k:
                break
            if rng.random() < 0.15:
                g.add_arc(u, v)


def learn_hill_climb(d: Dataset, cfg: LearnerConfig = LearnerConfig(),
                     ctx: ScoreContext | None = None) -> Dag:
    """Best-improvement local search over add/remove/reverse moves."""
    ctx = _context(d, ctx)
    names = [v.name for v in d.variables]
    best: Dag | None = None
    best_score = -math.inf
    for restart in range(cfg.restarts):
        g = Dag(d.n_variables, names)
        if restart > 0:
            _random_start(g, cfg.max_parents, np.random.default_rng([cfg.seed, restart]))
        _climb(ctx, g, cfg.max_parents)
        score = _dag_score(ctx, g)
        if score > best_score + 1e-12:
            best_score, best = score, g
    return best


def _moves(g: Dag, k: int):
    """Every add, remove and reverse move that keeps ``g`` acyclic and every
    parent set within ``k``, as ``(kind, u, v)`` on the arc ``u -> v``."""
    n = g.n_nodes
    room = [len(g.parents(x)) < k for x in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if g.has_arc(u, v):
                yield ("remove", u, v)
                if room[u] and not g.reaches(u, v):
                    yield ("reverse", u, v)
            elif room[v] and not g.has_arc(v, u) and not g.reaches(v, u):
                yield ("add", u, v)


def _climb(ctx: ScoreContext, g: Dag, k: int) -> None:
    """Apply the best strictly improving move to ``g`` until none is left."""
    local = [bic(ctx, x, g.parents(x)) for x in range(g.n_nodes)]

    # move deltas keyed by (kind, u, v); entries are dropped whenever a node
    # whose parent set they read gets touched by an applied move
    deltas: dict[tuple[str, int, int], float] = {}

    def delta_of(kind: str, u: int, v: int) -> float:
        key = (kind, u, v)
        got = deltas.get(key)
        if got is not None:
            return got
        if kind == "add":
            val = bic(ctx, v, g.parents(v) | {u}) - local[v]
        elif kind == "remove":
            val = bic(ctx, v, g.parents(v) - {u}) - local[v]
        else:  # reverse u -> v  becomes  v -> u
            val = (bic(ctx, v, g.parents(v) - {u}) - local[v]) + (
                bic(ctx, u, g.parents(u) | {v}) - local[u]
            )
        deltas[key] = val
        return val

    while True:
        # the largest delta above 1e-10 wins; exact ties go to the
        # smallest (kind, u, v)
        best_key: tuple[str, int, int] | None = None
        best_delta = 1e-10
        for key in _moves(g, k):
            dd = delta_of(*key)
            if dd > best_delta or (dd == best_delta and best_key and key < best_key):
                best_delta, best_key = dd, key
        if best_key is None:
            return
        kind, u, v = best_key
        if kind == "add":
            g.add_arc(u, v)
            touched = {v}
        elif kind == "remove":
            g.remove_arc(u, v)
            touched = {v}
        else:
            g.remove_arc(u, v)
            g.add_arc(v, u)
            touched = {u, v}
        for x in touched:
            local[x] = bic(ctx, x, g.parents(x))
        deltas = {
            key: val
            for key, val in deltas.items()
            if not (
                key[2] in touched
                or (key[0] == "reverse" and key[1] in touched)
            )
        }


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
