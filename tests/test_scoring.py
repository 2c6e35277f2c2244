"""BIC local scores, the score-difference independence statistic, and the
chi-square critical values they are compared against."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentdag import (
    Dataset,
    ScoreContext,
    VariableMeta,
    bic,
    chi2_critical,
    count,
    f_bic,
    is_independent,
)
from latentdag.scoring import log_likelihood
from oracles import bic_direct, g2_direct


def make_context(columns, cards=None):
    arr = np.array(columns, dtype=np.int32).T
    if cards is None:
        cards = [int(arr[:, i].max()) + 1 for i in range(arr.shape[1])]
    vs = tuple(
        VariableMeta(f"V{i}", tuple(f"s{j}" for j in range(cards[i])))
        for i in range(arr.shape[1])
    )
    return ScoreContext(Dataset(vs, arr))


def random_context(rng, n_vars=4, max_card=4, min_rows=100, max_rows=3000):
    n_rows = int(rng.integers(min_rows, max_rows + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_vars)]
    cols = [list(rng.integers(0, c, n_rows)) for c in cards]
    ctx = make_context(cols, cards)
    rows = list(zip(*cols))
    return ctx, rows, cards


def single_table_log_likelihood(table, axis):
    """The one-table kernel the batched one generalises, kept as the
    reference it must equal bit for bit."""
    n_z = table.sum(axis=axis, keepdims=True)
    pos = table > 0
    ratio = np.divide(table, n_z, out=np.ones_like(table), where=pos)
    return float((table * np.log(ratio, where=pos, out=np.zeros_like(ratio)))[pos].sum())


class TestLogLikelihood:
    @pytest.mark.parametrize("axis", [1, 2])
    def test_batch_equals_single_table_reference(self, axis):
        rng = np.random.default_rng(31)
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, [6, 30, 7]))
            stack = rng.integers(0, int(rng.integers(1, 5000)), size=shape)
            stack *= rng.random(shape) < rng.random()  # zero cells, empty rows
            want = [single_table_log_likelihood(t.astype(float), axis - 1) for t in stack]
            assert log_likelihood(stack, axis) == want
            assert log_likelihood(stack.astype(float), axis) == want

    def test_bic_equals_single_table_reference(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            ctx, _, cards = random_context(rng, min_rows=50, max_rows=2000)
            x = int(rng.integers(4))
            z = [v for v in range(4) if v != x and rng.random() < 0.6]
            table = count(ctx.dataset, x, z).counts.astype(float)
            want = (single_table_log_likelihood(table, 0)
                    - 0.5 * ctx.log_n * (cards[x] - 1) * table.shape[1])
            assert bic(ctx, x, z) == want


class TestBic:
    def test_marginal_binary_example(self):
        # counts [3, 1] over 4 rows: 3 ln(3/4) + ln(1/4) - 0.5 ln 4
        ctx = make_context([[0, 0, 0, 1]])
        assert bic(ctx, 0, ()) == pytest.approx(-2.9424877590351786, abs=1e-12)

    def test_degenerate_column_scores_pure_penalty(self):
        # all rows in state 0 of a declared 2-state domain: N ln(N/N) = 0
        ctx = make_context([[0, 0, 0, 0, 0]], cards=[2])
        assert bic(ctx, 0, ()) == pytest.approx(-0.5 * math.log(5), abs=1e-12)

    def test_penalty_multiplies_with_parent_domain(self):
        rng = np.random.default_rng(5)
        ctx, rows, cards = random_context(rng, n_vars=3, max_card=3)
        # perfectly uniform independent data is not needed; compare dims via
        # the oracle, which uses the same literal dim formula
        for parents in ([], [1], [1, 2]):
            assert bic(ctx, 0, tuple(parents)) == pytest.approx(
                bic_direct(rows, cards, 0, parents), abs=1e-8
            )

    def test_child_in_parents_rejected(self):
        ctx = make_context([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            bic(ctx, 0, (0,))

    def test_unseen_parent_config_counts_in_dim(self):
        # z never takes state 2, but dim must still use |dom z| = 3
        ctx = make_context([[0, 1, 0, 1], [0, 0, 1, 1]], cards=[2, 3])
        got = bic(ctx, 0, (1,))
        want = bic_direct([(0, 0), (1, 0), (0, 1), (1, 1)], [2, 3], 0, [1])
        assert got == pytest.approx(want, abs=1e-12)
        # and the penalty term visibly reflects 1 * 3 parameters
        ll = 2 * math.log(1 / 2) * 2  # each stratum splits 1/1
        assert got == pytest.approx(ll - 0.5 * math.log(4) * 3, abs=1e-12)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            ctx, rows, cards = random_context(rng)
            for x in range(4):
                others = [y for y in range(4) if y != x]
                for parents in ([], others[:1], others[:2], others):
                    assert bic(ctx, x, tuple(parents)) == pytest.approx(
                        bic_direct(rows, cards, x, parents), abs=1e-8
                    )

    def test_memoized_value_identical(self):
        ctx = make_context([[0, 1, 0, 1, 1], [1, 1, 0, 0, 1]])
        first = bic(ctx, 0, (1,))
        second = bic(ctx, 0, (1,))
        assert first == second  # bit-for-bit

    def test_concurrent_reads_are_safe(self):
        rng = np.random.default_rng(17)
        ctx, rows, cards = random_context(rng, n_vars=5, max_card=3)
        results = [[] for _ in range(8)]

        def worker(k):
            for x in range(5):
                for y in range(5):
                    if x != y:
                        results[k].append(bic(ctx, x, (y,)))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(1, 8):
            assert results[k] == results[0]


class TestFBic:
    def test_flat_table_scores_zero(self):
        ctx = make_context([[0, 0, 1, 1], [0, 1, 0, 1]])
        v = f_bic(ctx, 0, 1, ())
        assert v.statistic == pytest.approx(0.0, abs=1e-12)
        assert v.dof == 1

    def test_equals_direct_g2_on_random_tables(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            ctx, rows, cards = random_context(rng)
            for u, v, z in [(0, 1, ()), (0, 2, (1,)), (2, 3, (0, 1))]:
                stat = f_bic(ctx, u, v, z).statistic
                want = g2_direct(rows, cards, u, v, list(z))
                assert stat == pytest.approx(want, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        ctx, rows, cards = random_context(rng)
        a = f_bic(ctx, 0, 3, (1,)).statistic
        b = f_bic(ctx, 3, 0, (1,)).statistic
        assert a == pytest.approx(b, abs=1e-9)

    def test_dof_is_product_of_reduced_cardinalities(self):
        ctx = make_context(
            [[0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1]],
            cards=[3, 3, 2],
        )
        assert f_bic(ctx, 0, 1, ()).dof == 4       # (3-1)(3-1)
        assert f_bic(ctx, 0, 1, (2,)).dof == 8     # (3-1)(3-1)*2
        assert f_bic(ctx, 0, 2, (1,)).dof == 6     # (3-1)(2-1)*3

    def test_endpoint_in_conditioning_set_rejected(self):
        ctx = make_context([[0, 1], [1, 0], [0, 1]][:2])
        with pytest.raises(ValueError):
            f_bic(ctx, 0, 1, (0,))


class TestChi2Critical:
    def test_frozen_table_values(self):
        assert chi2_critical(1, 0.05) == pytest.approx(3.841, abs=1e-3)
        assert chi2_critical(4, 0.05) == pytest.approx(9.488, abs=1e-3)
        assert chi2_critical(10, 0.01) == pytest.approx(23.209, abs=1e-3)

    def test_monotone_decreasing_in_alpha(self):
        values = [chi2_critical(3, a) for a in (0.01, 0.05, 0.2, 0.5, 0.9, 0.999)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05  # alpha -> 1 drives the critical value to 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi2_critical(0, 0.05)
        with pytest.raises(ValueError):
            chi2_critical(3, 0.0)
        with pytest.raises(ValueError):
            chi2_critical(3, 1.0)


class TestIsIndependent:
    def test_uniform_table_is_independent(self):
        ctx = make_context([[0, 0, 1, 1], [0, 1, 0, 1]])
        v = is_independent(ctx, 0, 1, (), 0.05)
        assert v.independent is True
        assert v.critical == pytest.approx(3.841, abs=1e-3)

    def test_copied_column_is_dependent(self):
        col = [i % 2 for i in range(1000)]
        ctx = make_context([col, col])
        v = is_independent(ctx, 0, 1, (), 0.05)
        assert v.independent is False
        # identical binary columns: G2 = 2 N ln 2
        assert v.statistic == pytest.approx(2 * 1000 * math.log(2), abs=1e-9)

    def test_calibration_on_independent_samples(self):
        # at alpha = 0.05 the test should accept independence most of the time
        accepted = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cols = [list(rng.integers(0, 2, 100_000)) for _ in range(2)]
            ctx = make_context(cols, cards=[2, 2])
            if is_independent(ctx, 0, 1, (), 0.05).independent:
                accepted += 1
        assert accepted >= 90

    def test_verdict_cached_and_symmetric(self):
        ctx = make_context([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
        a = is_independent(ctx, 0, 2, (1,), 0.05)
        b = is_independent(ctx, 2, 0, (1,), 0.05)
        assert a is b  # canonicalized pair order shares the cache entry


@st.composite
def stat_cases(draw):
    """Small random tables plus a pair (u, v) and a conditioning set z."""
    n_vars = draw(st.integers(3, 4))
    cards = draw(st.lists(st.integers(2, 3), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(1, 120))
    cols = [draw(st.lists(st.integers(0, c - 1), min_size=n_rows, max_size=n_rows))
            for c in cards]
    u, v = draw(st.permutations(range(n_vars)))[:2]
    z = draw(st.sets(st.sampled_from([i for i in range(n_vars) if i not in (u, v)])))
    return cols, cards, u, v, tuple(sorted(z))


class TestStatisticProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(stat_cases())
    def test_nonnegative_symmetric_and_equal_to_g2(self, case):
        cols, cards, u, v, z = case
        ctx = make_context(cols, cards)
        stat = f_bic(ctx, u, v, z).statistic
        assert stat >= -1e-9
        assert f_bic(ctx, v, u, z).statistic == pytest.approx(stat, abs=1e-9)
        assert stat == pytest.approx(g2_direct(list(zip(*cols)), cards, u, v, list(z)),
                                     abs=1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(stat_cases())
    def test_verdict_shared_by_both_pair_orders(self, case):
        cols, cards, u, v, z = case
        ctx = make_context(cols, cards)
        assert is_independent(ctx, u, v, z) is is_independent(ctx, v, u, z)
