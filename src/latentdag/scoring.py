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
import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import BatchTally, Dataset, _check_id, _check_integer, count

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
    n = ctx.dataset.n_variables
    x = _check_id("variable id", x, n)
    zset = frozenset([_check_id("variable id", v, n) for v in z])
    if x in zset:
        raise ValueError("x may not appear in its own conditioning set")
    key = (x, zset)
    cached = ctx._scores.get(key)
    if cached is None:
        drop_bic(ctx, x, zset, ())
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
    n = ctx.dataset.n_variables
    x = _check_id("variable id", x, n)
    base = sorted([_check_id("variable id", p, n) for p in base])
    ys = [_check_id("variable id", y, n) for y in ys]
    if x in base or x in ys:
        raise ValueError("x may not appear in its own conditioning set")
    if not set(base).isdisjoint(ys):
        raise ValueError("a candidate y may not be a member of base")
    if drop is not None:
        drop = _check_id("variable id", drop, n)
        if drop not in base:
            raise ValueError(f"drop {drop} is not a member of base")
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
    n = ctx.dataset.n_variables
    x = _check_id("variable id", x, n)
    parents = sorted([_check_id("variable id", p, n) for p in parents])
    drops = [_check_id("variable id", p, n) for p in drops]
    for p in drops:
        if p not in parents:
            raise ValueError(f"drop {p} is not one of the parents")
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
    n = ctx.dataset.n_variables
    u, v = _check_id("variable id", u, n), _check_id("variable id", v, n)
    zset = frozenset([_check_id("variable id", x, n) for x in z])
    for x in (u, v):
        if ctx.dataset.cardinalities[x] < 2:
            raise ValueError(f"variable {ctx.dataset.variables[x].name!r} has a single state; "
                             "variables must take at least two values")
    if u == v:
        raise ValueError("u and v must differ")
    if u in zset or v in zset:
        raise ValueError("u and v may not appear in the conditioning set")
    dof = _dof(ctx, u, v, zset)
    drop_bic(ctx, u, zset | {v}, (v,))
    stat = _statistic(ctx, bic(ctx, u, zset | {v}), bic(ctx, u, zset), dof)
    return IndepVerdict(statistic=stat, dof=dof)


def _check_alpha(alpha) -> float:
    """``alpha`` as a float, when it is a real number strictly between 0 and
    1; otherwise a ``ValueError`` naming it."""
    if not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return float(alpha)


# lgamma(dof/2 + 1) in the Newton bracket overflows a float from about
# dof = 5.1e305 on
_MAX_DOF = 10**305


def chi2_critical(dof: int, alpha: float) -> float:
    """Upper-tail critical value: the x with chi-square survival(x) = alpha.

    The survival function is the regularised upper incomplete gamma function
    Q(dof/2, x/2) (DiDonato & Morris, ACM TOMS 12, 1986): its power series
    or Legendre's continued fraction, and Temme's uniform expansion for
    dof/2 >= 10^4 near the mean. Newton steps on it, with the chi-square
    density as slope, start from the Wilson-Hilferty value (PNAS 17, 1931).
    Against ``scipy.special.chdtri`` the values agree within 1.7e-15
    relative over dof 1-10, 16, 25, 128, 1296, 5000, 7776 and 10^5-10^15
    at alpha 0.001-0.999. ``dof`` is an integer from 1 to 10**305.
    Results are cached per ``(dof, alpha)``.
    """
    _check_integer("dof", dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if dof > _MAX_DOF:
        raise ValueError("dof must be at most 10**305")
    return _chi2_isf(int(dof), _check_alpha(alpha))


_EPS = sys.float_info.epsilon

# Taylor coefficients in eta of C_0, C_1 and C_2, the terms of Temme's
# uniform expansion of Q(a, x) in powers of 1/a (SIAM J. Math. Anal. 10, 1979)
_TEMME = (
    (-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600, 1 / 25515, -571 / 261273600),
    (-1 / 540, -1 / 288, 1 / 378, -77 / 77760, 1 / 4860),
    (25 / 6048, -139 / 51840, 1 / 1296),
)
# lgamma(a) less its Stirling approximation, times a, as a series in 1/a^2
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _poly(coefs, t: float) -> float:
    """sum of coefs[i] * t**i, by Horner's rule."""
    s = 0.0
    for c in reversed(coefs):
        s = s * t + c
    return s


def _log_kernel(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)).

    From 20 up, lgamma's Stirling form takes a ln a - a out analytically;
    with t = (x - a) / a what remains, a (log1p(t) - t), keeps its digits
    where lgamma(a) alone would be too large to leave any.
    """
    if a < 20:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    return (a * (math.log1p(t) - t) + 0.5 * math.log(a / (2 * math.pi))
            - _poly(_STIRLING, 1 / (a * a)) / a)


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    """The regularised incomplete gamma functions P(a, x) and
    Q(a, x) = 1 - P(a, x), for a >= 1/2 and x > 0. Where a method yields
    one of them, the other is its complement, which is at least 0.08 there."""
    t = (x - a) / a
    if a >= 1e4 and abs(t) < 0.1:
        # Temme: the normal tail at eta plus a correction in powers of 1/a
        eta = math.copysign(math.sqrt(2 * (t - math.log1p(t))), t)
        w = eta * math.sqrt(a / 2)
        r = (math.exp(-w * w) / math.sqrt(2 * math.pi * a)
             * _poly([_poly(cs, eta) for cs in _TEMME], 1 / a))
        return 0.5 * math.erfc(-w) - r, 0.5 * math.erfc(w) + r
    kernel = math.exp(_log_kernel(a, x))
    if x < a + 1:
        # P(a, x) = kernel * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1 / a
        n = a
        while term > total * _EPS:
            n += 1
            term *= x / n
            total += term
        p = kernel * total
        return p, 1 - p
    # Legendre's continued fraction, by Lentz's method
    b = x + 1 - a
    c = math.inf
    d = h = 1 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1) <= _EPS:
            q = kernel * h
            return 1 - q, q


@functools.lru_cache(maxsize=1024)
def _chi2_isf(dof: int, alpha: float) -> float:
    """The x with Q(dof/2, x/2) = alpha, by Newton's method from the
    Wilson-Hilferty value; every evaluation narrows a bracket on x, and a
    step that would leave it bisects instead. Above alpha = 0.5 the steps
    solve P = 1 - alpha, which keeps the digits that Q - alpha would lose."""
    a = dof / 2
    z = -NormalDist().inv_cdf(alpha)
    c = 2 / (9 * dof)
    x = dof * max(1 - c + z * math.sqrt(c), 0.0) ** 3
    # P(a, y) < y^a / Gamma(a + 1), so P = 1 - alpha needs y above this
    lo = 2 * math.exp((math.log1p(-alpha) + math.lgamma(a + 1)) / a)
    x, hi = max(x, lo), math.inf
    while True:
        p, q = _gamma_pq(a, x / 2)
        # how far Q(dof/2, x/2) lies above alpha
        excess = q - alpha if alpha <= 0.5 else (1 - alpha) - p
        if excess > 0:
            lo = x
        else:
            hi = x
        density = math.exp(_log_kernel(a, x / 2)) / x
        new = x + excess / density if density > 0 else math.nan
        if not lo < new < hi:  # also a nan step
            new = 2 * x if hi == math.inf else (lo + hi) / 2
        if abs(new - x) <= 2 * _EPS * x:
            return new
        x = new


def is_independent(ctx: ScoreContext, u: int, v: int, z=(),
                   alpha: float = DEFAULT_ALPHA) -> IndepVerdict:
    """Full test: statistic below the critical value means independent.

    The statistic is :func:`f_bic`'s for the ordered pair (min, max), so
    both orders of a pair get the same verdict. No verdict is cached: each
    call reads the two scores from the context's memo and the critical value
    from :func:`chi2_critical`'s cache.
    """
    partial = f_bic(ctx, min(u, v), max(u, v), z)
    crit = chi2_critical(partial.dof, alpha)
    return IndepVerdict(
        statistic=partial.statistic,
        dof=partial.dof,
        critical=crit,
        independent=bool(partial.statistic < crit),
    )
