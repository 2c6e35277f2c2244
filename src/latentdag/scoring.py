"""Local BIC scores, the score-difference independence statistic, and
chi-square critical values.

The independence statistic for (U, V | Z) is computed as a difference of two
local scores plus the penalty rebate::

    stat = 2 * ( S(U | Z ∪ {V}) - S(U | Z) + 0.5 * ln|D| * dof )
    dof  = (|dom U| - 1) * (|dom V| - 1) * prod_{X in Z} |dom X|

which algebraically collapses to the classical likelihood-ratio (G-test)
statistic of the U x V table stratified by Z. The test suite checks that
identity against a direct G computation on random tables; here the score
route is the only one implemented, so the learner and the independence
search share one memoised code path.

:func:`drop_bic` is the one route by which a single family is tallied:
one :func:`~latentdag.data.count` table of ``(x, S)`` scores that family and,
by summing over a member p's axis, each listed ``(x, S - {p})``. The hill
climber lists every parent (its remove moves), :func:`f_bic` lists v (both
families of its statistic) and :func:`bic` lists none. :func:`fill_bic`
scores the families ``(x, S ∪ {y})`` of many candidates y from one shared
batch tally (:class:`~latentdag.data.BatchTally`, the routine the exact
learner's score table runs on) and returns them as arrays in candidate
order: the separator search calls it once per step and the hill climber
once per stale target. Each table either scores is, integer for integer
and in the same memory order, the table ``count`` builds for that family,
so both memoise and return the floats a tally of the family alone gives.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import BatchTally, Dataset, _check_integer, count

__all__ = ["ScoreContext", "IndepVerdict", "log_likelihood", "bic", "fill_bic", "drop_bic",
           "f_bic", "chi2_critical", "is_independent"]

# risk level of an independence test unless the caller names one
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class IndepVerdict:
    """Outcome of one conditional-independence test.

    ``critical`` and ``independent`` are None when only the statistic was
    requested (no risk level supplied).
    """

    statistic: float
    dof: int
    critical: float | None = None
    independent: bool | None = None


class ScoreContext:
    """Memoised local-score evaluator bound to one dataset.

    Lookups are cheap dict reads. The batch-tally workspace, which reads the
    dataset's own columns, is kept for the context's lifetime. The memo holds
    scores, not verdicts: each :func:`is_independent` call reads its two
    scores from it.
    """

    def __init__(self, dataset: Dataset):
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows; scores need at least one")
        self.dataset = dataset
        self.log_n = math.log(dataset.n_rows)
        self._scores: dict[tuple[int, frozenset[int]], float] = {}
        self.tally = BatchTally(dataset)


def log_likelihood(counts: np.ndarray, axis: int) -> list[float]:
    """sum_xz N_xz * ln(N_xz / N_z) of each table in a stack, with 0 * ln 0 = 0.

    ``counts`` is a 3-D stack of 2-D count tables, ``counts[i]`` being table
    ``i``; the child states of every table run along ``axis`` (1 or 2). The
    counts may be integer or float. Returns one float per table.

    Each table's sum runs over its positive cells in memory order and is
    taken by its own ``np.sum``, so a table scores the same float alone or
    in a batch. Two layouts of the same counts may differ in the last bits:
    each caller keeps the layout it has always used.
    """
    # N_z by einsum, which sums a short last axis many times faster than
    # ndarray.sum; the counts are whole numbers, so any order is exact. An
    # empty configuration gets N_z = 1, which no positive cell reads.
    n_z = np.einsum(counts, [0, 1, 2], [0, 3 - axis])
    np.maximum(n_z, 1, out=n_z)
    shape = list(counts.shape)
    shape[axis] = 1
    flat = counts.ravel()
    cells = flat.nonzero()[0]
    terms = flat.take(cells) * np.log((counts / n_z.reshape(shape)).ravel().take(cells))
    # table i owns flat cells [i * size, (i + 1) * size)
    size = counts[0].size
    ends = cells.searchsorted(np.arange(size, size * len(counts) + 1, size)).tolist()
    return [float(terms[a:b].sum()) for a, b in zip([0, *ends], ends)]


def bic(ctx: ScoreContext, x: int, z=()) -> float:
    """Local BIC score of variable ``x`` given parent set ``z``.

    The penalty counts the full Cartesian product of parent configurations,
    observed or not; strata never seen in the data contribute nothing to the
    likelihood term but still enlarge the dimension.
    """
    zset = frozenset(int(v) for v in z)
    if x in zset:
        raise ValueError("x may not appear in its own conditioning set")
    key = (int(x), zset)
    cached = ctx._scores.get(key)
    if cached is None:
        drop_bic(ctx, key[0], zset, ())
        cached = ctx._scores[key]
    return cached


def _memoise(ctx: ScoreContext, x: int, keys, tables: np.ndarray) -> None:
    """Score a stack of ``x``'s tables in :func:`~latentdag.data.count`'s
    layout, ``(child state, parent configuration)``, into the memo."""
    dim = (ctx.dataset.cardinalities[x] - 1) * tables.shape[2]
    for key, ll in zip(keys, log_likelihood(tables, axis=1)):
        ctx._scores[key] = ll - 0.5 * ctx.log_n * dim


def fill_bic(ctx: ScoreContext, x: int, base, ys, drop: int | None = None) -> list[np.ndarray]:
    """``bic(x, base ∪ {y})`` for every y of ``ys``, from batch tallies.

    Returns one float64 array in ``ys`` order; with ``drop``, a member of
    ``base``, a second array holds ``bic(x, (base - {drop}) ∪ {y})``, got
    from the same joints by summing over ``drop``'s axis (exact on
    integers). One bincount per batch tallies the joints of (x, base, y) for
    all y, and only keys missing from the memo are computed and memoised.
    Each table is ``count``'s, integer for integer and in the same memory
    order, so every value is the float :func:`bic` would store.
    """
    base = sorted(int(p) for p in base)
    sets = [base] if drop is None else [base, [p for p in base if p != drop]]
    memo = ctx._scores
    keys = [[(x, frozenset((*s, y))) for y in ys] for s in sets]
    missing = [{y: key for y, key in zip(ys, row) if key not in memo} for row in keys]
    todo = sorted(set().union(*missing))
    if todo:
        cards = ctx.dataset.cardinalities
        base_cards = [cards[p] for p in base]
        tally = ctx.tally
        code = tally.code([x, *base])
        for chunk, joint in tally.joints(code, cards[x] * math.prod(base_cards), todo):
            grid = joint.reshape(len(chunk), cards[x], *base_cards, -1)
            _fill_from(ctx, x, base, chunk, grid, missing[0])
            if drop is not None:
                _fill_from(ctx, x, sets[1], chunk, grid.sum(axis=2 + base.index(drop)),
                           missing[1])
    return [np.array([memo[key] for key in row], dtype=np.float64) for row in keys]


def _fill_from(ctx: ScoreContext, x: int, parents: list[int], chunk, grid: np.ndarray,
               missing: dict) -> None:
    """Memoise ``bic(x, parents ∪ {y})`` under ``missing[y]`` for the ys of
    ``chunk`` it names; ``grid[j]`` counts (x, *parents, y) for ``chunk[j]``,
    y's axis padded.

    The tables of the ys of one cardinality share one stack and one kernel
    call. y's axis goes to its sorted slot among the parents; the ys of a
    slot are consecutive in ``chunk``, so each slot fills its block of the
    stack with one transposed copy.
    """
    cards = ctx.dataset.cardinalities
    pcards = [cards[p] for p in parents]
    groups: dict[int, list[int]] = {}
    for j, y in enumerate(chunk):
        if y in missing:
            groups.setdefault(cards[y], []).append(j)
    last = len(pcards) + 2  # grid axes: row, x, parents, y
    for c, js in groups.items():
        stack = np.empty((len(js), cards[x], math.prod(pcards) * c), dtype=np.int64)
        lo = 0
        for slot, run in itertools.groupby(js, lambda j: bisect.bisect(parents, chunk[j])):
            hi = lo + len(list(run))
            axes = (0, 1, *range(2, 2 + slot), last, *range(2 + slot, last))
            block = stack[lo:hi].reshape(hi - lo, cards[x], *pcards[:slot], c, *pcards[slot:])
            block[...] = grid[js[lo:hi], ..., :c].transpose(axes)
            lo = hi
        _memoise(ctx, x, [missing[chunk[j]] for j in js], stack)


def drop_bic(ctx: ScoreContext, x: int, parents, drops) -> np.ndarray:
    """``bic(x, parents - {p})`` for each p of ``drops``, members of
    ``parents``, as one float64 array; ``bic(x, parents)`` is memoised on
    the way.

    When any of these keys is missing, one tally of (x, *parents) fills them
    all: summing it over p's axis gives, integer for integer and in the same
    memory order, ``count``'s table of (x, parents - {p}).
    """
    parents = sorted(int(p) for p in parents)
    memo = ctx._scores
    full = (x, frozenset(parents))
    keys = [(x, full[1] - {p}) for p in drops]
    missing = [i for i, key in enumerate(keys) if key not in memo]
    if missing or full not in memo:
        table = count(ctx.dataset, x, parents)
        if full not in memo:
            _memoise(ctx, x, [full], table[None])
        cards = ctx.dataset.cardinalities
        grid = table.reshape(cards[x], *(cards[p] for p in parents))
        groups: dict[int, list[int]] = {}
        for i in missing:
            groups.setdefault(cards[drops[i]], []).append(i)
        for idx in groups.values():
            stack = np.stack([grid.sum(axis=1 + parents.index(drops[i])).reshape(cards[x], -1)
                              for i in idx])
            _memoise(ctx, x, [keys[i] for i in idx], stack)
    return np.array([memo[key] for key in keys], dtype=np.float64)


def _dof(ctx: ScoreContext, u: int, v: int, zset) -> int:
    """(|dom u| - 1) * (|dom v| - 1) * the product of |dom x| over ``zset``."""
    cards = ctx.dataset.cardinalities
    d = (cards[u] - 1) * (cards[v] - 1)
    for x in zset:
        d *= cards[x]
    return d


def _statistic(ctx: ScoreContext, with_v, without_v, dof):
    """The statistic of the module docstring from u's scores with and without
    v; elementwise when the arguments are arrays."""
    return 2.0 * (with_v - without_v + 0.5 * ctx.log_n * dof)


def f_bic(ctx: ScoreContext, u: int, v: int, z=()) -> IndepVerdict:
    """Score-difference independence statistic for (u, v | z); no verdict.

    Both families of u come from one tally of (u, z ∪ {v}) when either is
    missing from the memo."""
    zset = frozenset(int(x) for x in z)
    n = ctx.dataset.n_variables
    for x in (u, v, *zset):
        if not 0 <= x < n:
            raise KeyError(f"variable id {x} out of range")
    if u == v:
        raise ValueError("u and v must differ")
    if u in zset or v in zset:
        raise ValueError("u and v may not appear in the conditioning set")
    dof = _dof(ctx, u, v, zset)
    drop_bic(ctx, u, zset | {v}, (v,))
    stat = _statistic(ctx, bic(ctx, u, zset | {v}), bic(ctx, u, zset), dof)
    return IndepVerdict(statistic=stat, dof=dof)


def chi2_critical(dof: int, alpha: float) -> float:
    """Upper-tail critical value: the x with chi-square survival(x) = alpha."""
    # imported here: scipy.special is most of a cold package import
    from scipy.special import chdtri

    _check_integer("dof", dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return float(chdtri(dof, alpha))


def is_independent(ctx: ScoreContext, u: int, v: int, z=(),
                   alpha: float = DEFAULT_ALPHA) -> IndepVerdict:
    """Full test: statistic below the critical value means independent.

    The statistic is :func:`f_bic`'s for the ordered pair (min, max), so
    both orders of a pair get the same verdict. No verdict is cached: each
    call reads the two scores from the context's memo and takes the critical
    value afresh.
    """
    partial = f_bic(ctx, min(u, v), max(u, v), z)
    crit = chi2_critical(partial.dof, alpha)
    return IndepVerdict(
        statistic=partial.statistic,
        dof=partial.dof,
        critical=crit,
        independent=bool(partial.statistic < crit),
    )
