"""Greedy search for a separating set: grow Z one variable at a time,
always adding the candidate that drives the independence statistic lowest.

The search is deliberately not exhaustive. A returned failure means the
greedy path found no separator within the size budget — it is *evidence* of
dependence, not a proof. Callers (triangle classification in particular)
treat it exactly that way.

Each step scores its candidates from one batched tally: :func:`fill_bic`
returns ``bic(u, Z ∪ {v, y})`` and ``bic(u, Z ∪ {y})`` for every candidate
y as two arrays, and the step takes all statistics at once through the
formula :func:`~latentdag.scoring.f_bic` uses, so each is the float
``f_bic`` gives. The statistics take the pair in the orientation
:func:`~latentdag.scoring.is_independent` tests, u = min and v = max of the
query's two ids, so a step's least statistic is the next verdict's
statistic, and the verdict reads both its scores from the step's batch.
A query and its swap make the same search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _check_id, _check_integer
from .scoring import (DEFAULT_ALPHA, ScoreContext, _check_alpha, _dof, _statistic, fill_bic,
                      is_independent)

__all__ = ["SeparatorQuery", "SeparatorResult", "check_probe_options", "find_separator"]

# separator size cap unless the caller names one
DEFAULT_H = 7


def check_probe_options(h: int, alpha: float) -> None:
    """Reject a separator size cap ``h`` that is not an integer of at least
    0, or a risk level ``alpha`` outside (0, 1)."""
    _check_integer("h", h)
    if h < 0:
        raise ValueError("h must be >= 0")
    _check_alpha(alpha)


@dataclass(frozen=True)
class SeparatorQuery:
    """Inputs of one separator search.

    ``compulsory`` variables are forced into Z before the search starts;
    ``forbidden`` ones may never enter it. ``h`` caps |Z|. Every variable is
    named by its integer id; :func:`find_separator` checks that each lies
    inside its dataset.
    """

    u: int
    v: int
    h: int = DEFAULT_H
    alpha: float = DEFAULT_ALPHA
    compulsory: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "compulsory", frozenset(self.compulsory))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        for x in (self.u, self.v, *self.compulsory, *self.forbidden):
            _check_integer("variable id", x)
        if self.u == self.v:
            raise ValueError("u and v must differ")
        check_probe_options(self.h, self.alpha)
        if self.u in self.compulsory or self.v in self.compulsory:
            raise ValueError("u and v may not be compulsory")
        if self.compulsory & self.forbidden:
            raise ValueError("compulsory and forbidden sets overlap")


@dataclass
class SeparatorResult:
    found: bool
    z: frozenset[int] | None = None
    trace: list[tuple[int, float]] = field(default_factory=list)


def find_separator(q: SeparatorQuery, ctx: ScoreContext) -> SeparatorResult:
    """Search for Z with u independent of v given Z, |Z| <= h.

    Z starts as the compulsory set. If the current Z does not separate, the
    candidate whose addition yields the smallest statistic is committed
    (ties break toward the lowest variable id) and the test repeats, until
    independence is reached or the size budget is spent.
    """
    n_vars = ctx.dataset.n_variables
    for x in (q.u, q.v, *q.compulsory, *q.forbidden):
        _check_id("variable id", x, n_vars)
    # the orientation is_independent tests, so each step's batch fills the
    # scores of the next verdict
    u, v = min(q.u, q.v), max(q.u, q.v)
    z = set(q.compulsory)
    blocked = set(q.forbidden) | {u, v}
    trace: list[tuple[int, float]] = []

    if len(z) > q.h:
        return SeparatorResult(found=False, trace=trace)
    cards = ctx.dataset.cardinalities
    while not is_independent(ctx, u, v, z, q.alpha).independent:
        cands = [y for y in range(n_vars) if y not in z and y not in blocked]
        if len(z) == q.h or not cands:
            # no separator within the budget: Z holds h members, or no
            # candidate is left
            return SeparatorResult(found=False, trace=trace)
        with_v, without_v = fill_bic(ctx, u, z | {v}, cands, drop=v)
        # f_bic's statistic for every candidate y
        dof = _dof(ctx, u, v, z) * np.array([cards[y] for y in cands])
        stats = _statistic(ctx, with_v, without_v, dof)
        i = int(np.argmin(stats))  # the first minimum: ties keep the lowest id
        best, best_stat = cands[i], float(stats[i])
        z.add(best)
        trace.append((best, best_stat))
    return SeparatorResult(found=True, z=frozenset(z), trace=trace)
