"""Greedy separating-set search with compulsory/forbidden constraints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentdag import (
    Dag,
    Dataset,
    ScoreContext,
    SeparatorQuery,
    VariableMeta,
    SeparatorResult,
    d_separated,
    f_bic,
    find_separator,
    is_independent,
    sample,
    DiscreteBayesNet,
)


def bn_dataset(arcs, cpts, n, seed, names=None, n_nodes=None):
    n_nodes = n_nodes or max(max(a, b) for a, b in arcs) + 1
    names = names or [f"V{i}" for i in range(n_nodes)]
    vs = [VariableMeta(nm, ("s0", "s1")) for nm in names]
    g = Dag.from_arcs(n_nodes, arcs, names=names)
    bn = DiscreteBayesNet(vs, g, {k: np.asarray(v, dtype=float) for k, v in cpts.items()})
    return sample(bn, n, seed=seed), g


def chain_data(n=20000, seed=3):
    # U -> Z -> V with strong links
    return bn_dataset(
        [(0, 1), (1, 2)],
        {0: [[0.4, 0.6]],
         1: [[0.85, 0.15], [0.2, 0.8]],
         2: [[0.9, 0.1], [0.15, 0.85]]},
        n, seed,
    )


def collider_data(n=20000, seed=4):
    # U -> W <- V
    return bn_dataset(
        [(0, 2), (1, 2)],
        {0: [[0.5, 0.5]],
         1: [[0.3, 0.7]],
         2: [[0.95, 0.05], [0.4, 0.6], [0.6, 0.4], [0.05, 0.95]]},
        n, seed,
    )


def hidden_pair_data(n=50000, seed=11):
    """C -> A <- L -> B <- D sampled with L subsequently dropped.

    Returns the observed dataset with columns C, D, A, B (ids 0..3).
    """
    from latentdag import project

    vs = [VariableMeta(nm, ("s0", "s1")) for nm in ["C", "D", "L", "A", "B"]]
    g = Dag.from_arcs(5, [(0, 3), (2, 3), (2, 4), (1, 4)],
                      names=["C", "D", "L", "A", "B"])
    p1 = {(0, 0): 0.05, (1, 0): 0.45, (0, 1): 0.50, (1, 1): 0.90}
    t = np.zeros((4, 2))
    for i, (u, l) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        t[i] = [1 - p1[(u, l)], p1[(u, l)]]
    bn = DiscreteBayesNet(vs, g, {
        0: np.array([[0.6, 0.4]]),
        1: np.array([[0.4, 0.6]]),
        2: np.array([[0.5, 0.5]]),
        3: t.copy(),
        4: t.copy(),
    })
    full = sample(bn, n, seed=seed)
    return project(full, ["C", "D", "A", "B"])


class TestQueryValidation:
    def test_u_equals_v_rejected(self):
        with pytest.raises(ValueError):
            SeparatorQuery(u=1, v=1)

    def test_endpoint_in_compulsory_rejected(self):
        with pytest.raises(ValueError):
            SeparatorQuery(u=0, v=1, compulsory=frozenset({0}))

    def test_compulsory_forbidden_overlap_rejected(self):
        with pytest.raises(ValueError):
            SeparatorQuery(u=0, v=1, compulsory=frozenset({2}),
                           forbidden=frozenset({2}))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SeparatorQuery(u=0, v=1, h=-1)

    @pytest.mark.parametrize("h", [1.5, True, "3"])
    def test_non_integer_budget_rejected(self, h):
        # a budget of 1.5 would let a separator of two members through
        with pytest.raises(ValueError, match=f"h must be an integer, got {h!r}"):
            SeparatorQuery(u=0, v=1, h=h)


class TestFindSeparator:
    def test_compulsory_larger_than_budget_fails_immediately(self):
        d, _ = chain_data(n=200)
        ctx = ScoreContext(d)
        q = SeparatorQuery(u=0, v=2, h=0, compulsory=frozenset({1}))
        r = find_separator(q, ctx)
        assert not r.found
        assert r.trace == []

    def test_chain_separated_by_middle(self):
        d, g = chain_data()
        ctx = ScoreContext(d)
        r = find_separator(SeparatorQuery(u=0, v=2), ctx)
        assert r.found
        assert r.z == frozenset({1})
        assert d_separated(g, 0, 2, set(r.z))

    def test_collider_separated_by_empty_set(self):
        d, _ = collider_data()
        ctx = ScoreContext(d)
        r = find_separator(SeparatorQuery(u=0, v=1), ctx)
        assert r.found
        assert r.z == frozenset()
        assert r.trace == []

    def test_forbidden_variable_never_used(self):
        d, _ = chain_data()
        ctx = ScoreContext(d)
        r = find_separator(
            SeparatorQuery(u=0, v=2, forbidden=frozenset({1})), ctx)
        # the only true separator is forbidden; greedy must fail
        assert not r.found

    def test_compulsory_included_in_result(self):
        d, _ = chain_data()
        ctx = ScoreContext(d)
        r = find_separator(SeparatorQuery(u=0, v=2, compulsory=frozenset({1})), ctx)
        assert r.found
        assert frozenset({1}) <= r.z

    def test_hidden_pair_children_inseparable(self):
        # A and B share a hidden parent: no observed set screens them
        d = hidden_pair_data()
        ctx = ScoreContext(d)
        a, b = 2, 3
        r = find_separator(SeparatorQuery(u=a, v=b), ctx)
        assert not r.found

    def test_hidden_pair_grandparent_pair_separable_without_middle(self):
        # B and C separate once A is off-limits (the footprint probe shape)
        d = hidden_pair_data()
        ctx = ScoreContext(d)
        c_id, b = 0, 3
        r = find_separator(
            SeparatorQuery(u=b, v=c_id, forbidden=frozenset({2})), ctx)
        assert r.found
        assert 2 not in r.z
        # and the found separator stops working once A joins it
        v = is_independent(ctx, b, c_id, tuple(sorted(r.z | {2})), 0.05)
        assert v.independent is False

    def test_result_constraints_hold(self):
        d, _ = chain_data()
        ctx = ScoreContext(d)
        q = SeparatorQuery(u=0, v=2, h=2, compulsory=frozenset(),
                           forbidden=frozenset())
        r = find_separator(q, ctx)
        assert r.found
        assert len(r.z) <= q.h
        assert not (r.z & {q.u, q.v})
        assert is_independent(ctx, q.u, q.v, tuple(sorted(r.z)), q.alpha).independent

    def test_deterministic(self):
        d, _ = chain_data()
        ctx = ScoreContext(d)
        q = SeparatorQuery(u=0, v=2)
        r1 = find_separator(q, ctx)
        r2 = find_separator(q, ScoreContext(d))
        assert r1.found == r2.found and r1.z == r2.z and r1.trace == r2.trace

    def test_trace_records_greedy_growth(self):
        d, _ = chain_data()
        ctx = ScoreContext(d)
        r = find_separator(SeparatorQuery(u=0, v=2), ctx)
        assert len(r.trace) == 1
        node, stat = r.trace[0]
        assert node == 1
        assert stat >= 0.0


class TestGreedyStatisticSelection:
    def test_picks_strongest_screener_first(self):
        # two candidate screens: Z1 fully mediates, Z2 is noise
        rng = np.random.default_rng(9)
        n = 30000
        u = rng.integers(0, 2, n)
        z1 = np.where(rng.random(n) < 0.9, u, 1 - u)
        v = np.where(rng.random(n) < 0.9, z1, 1 - z1)
        z2 = rng.integers(0, 2, n)
        arr = np.column_stack([u, z1, v, z2]).astype(np.int32)
        vs = tuple(VariableMeta(nm, ("s0", "s1")) for nm in "ABCD")
        ctx = ScoreContext(Dataset(vs, arr))
        r = find_separator(SeparatorQuery(u=0, v=2), ctx)
        assert r.found
        assert r.z == frozenset({1})
        assert r.trace[0][0] == 1


def find_separator_per_candidate(q, ctx):
    """The search with one f_bic tally pair per candidate and no batch fill,
    kept as the reference the batched search must equal exactly."""
    z = set(q.compulsory)
    blocked = set(q.forbidden) | {q.u, q.v}
    trace = []
    if len(z) > q.h:
        return SeparatorResult(found=False, trace=trace)
    if is_independent(ctx, q.u, q.v, z, q.alpha).independent:
        return SeparatorResult(found=True, z=frozenset(z), trace=trace)
    while len(z) < q.h:
        best, best_stat = None, float("inf")
        for y in range(ctx.dataset.n_variables):
            if y in z or y in blocked:
                continue
            stat = f_bic(ctx, q.u, q.v, z | {y}).statistic
            if stat < best_stat:
                best, best_stat = y, stat
        if best is None:
            break
        z.add(best)
        trace.append((best, best_stat))
        if is_independent(ctx, q.u, q.v, z, q.alpha).independent:
            return SeparatorResult(found=True, z=frozenset(z), trace=trace)
    return SeparatorResult(found=False, trace=trace)


@st.composite
def separator_cases(draw):
    """Dependent columns of 2 to 5 states (each a noisy function of earlier
    ones) and one query with random compulsory and forbidden sets."""
    n_vars = draw(st.integers(3, 7))
    cards = draw(st.lists(st.integers(2, 5), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(20, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for i, c in enumerate(cards):
        parents = [j for j in range(i) if rng.random() < 0.6]
        col = sum((cols[j] for j in parents), np.zeros(n_rows, dtype=np.int64)) % c
        noise = rng.random(n_rows) < 0.25
        cols.append(np.where(noise, rng.integers(0, c, n_rows), col))
    u, v, *rest = draw(st.permutations(range(n_vars)))
    compulsory = draw(st.sets(st.sampled_from(rest), max_size=1)) if rest else set()
    forbidden = draw(st.sets(st.sampled_from(rest), max_size=1)) - compulsory if rest else set()
    query = SeparatorQuery(u=u, v=v, h=draw(st.integers(1, 6)),
                           alpha=draw(st.sampled_from([0.001, 0.05, 0.5])),
                           compulsory=compulsory, forbidden=forbidden)
    return cols, cards, query


class TestBatchedSteps:
    def test_exact_tie_keeps_lowest_id(self):
        # V3 copies the mediator V2, and both sit above u and v, so their
        # tables and statistics are equal to the last bit
        rng = np.random.default_rng(3)
        n = 400
        u = rng.integers(0, 2, n)
        z = np.where(rng.random(n) < 0.8, u, 1 - u)
        v = np.where(rng.random(n) < 0.8, z, 1 - z)
        vs = tuple(VariableMeta(f"V{i}", ("s0", "s1")) for i in range(4))
        d = Dataset(vs, np.column_stack([u, v, z, z]).astype(np.int32))
        q = SeparatorQuery(u=0, v=1)
        got = find_separator(q, ScoreContext(d))
        want = find_separator_per_candidate(q, ScoreContext(d))
        assert got.trace[0][0] == 2
        assert (got.found, got.z, got.trace) == (want.found, want.z, want.trace)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(separator_cases())
    def test_equals_per_candidate_search(self, case):
        cols, cards, q = case
        vs = tuple(VariableMeta(f"V{i}", tuple(f"s{j}" for j in range(c)))
                   for i, c in enumerate(cards))
        d = Dataset(vs, np.column_stack(cols).astype(np.int32))
        got = find_separator(q, ScoreContext(d))
        want = find_separator_per_candidate(q, ScoreContext(d))
        assert (got.found, got.z, got.trace) == (want.found, want.z, want.trace)
