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
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2

from .data import Dataset, count

__all__ = ["ScoreContext", "IndepVerdict", "log_likelihood", "bic", "f_bic", "chi2_critical",
           "is_independent"]


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

    Lookups are cheap dict reads; insertion is guarded by a lock so
    concurrent scorers cannot corrupt the tables (recomputed values are
    bit-identical, so a lost race is harmless).
    """

    def __init__(self, dataset: Dataset):
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows; scores need at least one")
        self.dataset = dataset
        self.log_n = math.log(dataset.n_rows)
        self._scores: dict[tuple[int, frozenset[int]], float] = {}
        self._verdicts: dict[tuple[int, int, frozenset[int], float], IndepVerdict] = {}
        self._lock = threading.Lock()

    @property
    def n_rows(self) -> int:
        return self.dataset.n_rows

    def cardinality(self, x: int) -> int:
        return self.dataset.variables[x].cardinality


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
    if cached is not None:
        return cached

    table = count(ctx.dataset, x, zset)
    dim = (ctx.cardinality(x) - 1) * table.n_configs
    value = log_likelihood(table.counts[None], axis=1)[0] - 0.5 * ctx.log_n * dim
    with ctx._lock:
        ctx._scores[key] = value
    return value


def _dof(ctx: ScoreContext, u: int, v: int, zset: frozenset[int]) -> int:
    d = (ctx.cardinality(u) - 1) * (ctx.cardinality(v) - 1)
    for x in zset:
        d *= ctx.cardinality(x)
    return d


def f_bic(ctx: ScoreContext, u: int, v: int, z=()) -> IndepVerdict:
    """Score-difference independence statistic for (u, v | z); no verdict."""
    zset = frozenset(int(x) for x in z)
    if u == v:
        raise ValueError("u and v must differ")
    if u in zset or v in zset:
        raise ValueError("u and v may not appear in the conditioning set")
    dof = _dof(ctx, u, v, zset)
    stat = 2.0 * (
        bic(ctx, u, zset | {v}) - bic(ctx, u, zset) + 0.5 * ctx.log_n * dof
    )
    return IndepVerdict(statistic=stat, dof=dof)


def chi2_critical(dof: int, alpha: float) -> float:
    """Upper-tail critical value: the x with chi-square survival(x) = alpha."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return float(_chi2.isf(alpha, dof))


def is_independent(ctx: ScoreContext, u: int, v: int, z=(), alpha: float = 0.05) -> IndepVerdict:
    """Full test: statistic below the critical value means independent.

    Verdicts are cached per (unordered pair, conditioning set, alpha) for the
    lifetime of the context, so repeated queries during a discovery run cost
    one dict lookup.
    """
    zset = frozenset(int(x) for x in z)
    a, b = (u, v) if u <= v else (v, u)
    key = (a, b, zset, alpha)
    hit = ctx._verdicts.get(key)
    if hit is not None:
        return hit
    partial = f_bic(ctx, a, b, zset)
    crit = chi2_critical(partial.dof, alpha)
    verdict = IndepVerdict(
        statistic=partial.statistic,
        dof=partial.dof,
        critical=crit,
        independent=bool(partial.statistic < crit),
    )
    with ctx._lock:
        ctx._verdicts[key] = verdict
    return verdict
