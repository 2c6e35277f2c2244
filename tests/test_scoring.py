"""BIC local scores, the score-difference independence statistic, and the
chi-square critical values they are compared against."""

import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentdag import (
    Dataset,
    ScoreContext,
    SeparatorQuery,
    VariableMeta,
    bic,
    chi2_critical,
    count,
    f_bic,
    find_separator,
    is_independent,
)
from latentdag import data, scoring
from latentdag.scoring import drop_bic, fill_bic, log_likelihood
from oracles import bic_direct, g2_direct
from test_cli import write_csv
from test_confounder import planted_dataset
from test_data import twenty_ten_state_columns


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
            table = count(ctx.dataset, x, z).astype(float)
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

    @pytest.mark.parametrize("probe, bad", [
        (lambda ctx: f_bic(ctx, 0, 7), 7),
        (lambda ctx: f_bic(ctx, -1, 2), -1),
        (lambda ctx: is_independent(ctx, 0, 1, (9,)), 9),
        (lambda ctx: find_separator(SeparatorQuery(u=0, v=1, compulsory={9}), ctx), 9),
        (lambda ctx: bic(ctx, 0, (9,)), 9),
    ], ids=["f_bic", "f_bic-negative", "is_independent", "find_separator", "bic"])
    def test_out_of_range_id_is_named(self, probe, bad):
        ctx = make_context([[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1]])
        with pytest.raises(KeyError, match=f"variable id {bad} out of range"):
            probe(ctx)

    @pytest.mark.parametrize("probe", [
        lambda ctx: f_bic(ctx, 0, 1),
        lambda ctx: is_independent(ctx, 2, 1, (0,)),
        lambda ctx: find_separator(SeparatorQuery(u=1, v=0), ctx),
    ], ids=["f_bic", "is_independent", "find_separator"])
    def test_one_state_endpoint_is_named(self, probe):
        # a Dataset built in code may hold a one-state variable, which a
        # test cannot take: its statistic has no degrees of freedom
        ctx = make_context([[0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 1]], cards=[2, 1, 2])
        with pytest.raises(ValueError, match="variable 'V1' has a single state; "
                                             "variables must take at least two values"):
            probe(ctx)


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

    @pytest.mark.parametrize("dof", [1.5, True, "3"])
    def test_non_integer_dof_is_named(self, dof):
        # 1.5 would read a fractional table and True the table of one
        with pytest.raises(ValueError, match=f"dof must be an integer, got {dof!r}"):
            chi2_critical(dof, 0.05)

    @pytest.mark.parametrize("dof", [10**306, 10**400], ids=["1e306", "1e400"])
    def test_dof_too_large_for_a_float_is_named(self, dof):
        with pytest.raises(ValueError, match=re.escape("dof must be at most 10**305")):
            chi2_critical(dof, 0.05)

    def test_largest_dof_has_a_finite_critical_value(self):
        assert math.isfinite(chi2_critical(10**305, 0.05))

    @pytest.mark.parametrize("alpha", ["0.05", None, [0.05]])
    def test_non_numeric_alpha_is_named(self, alpha):
        # [0.05] is unhashable: the check must come before the cache
        message = f"alpha must be a real number, got {alpha!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            chi2_critical(3, alpha)

    @pytest.mark.parametrize("dof", [*range(1, 11), 16, 25, 128, 1296, 5000, 7776,
                                     10**5, 10**6, 10**9, 10**12, 10**15])
    def test_matches_scipy(self, dof):
        special = pytest.importorskip("scipy.special")
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.5, 0.9, 0.999):
            want = float(special.chdtri(dof, alpha))
            assert chi2_critical(dof, alpha) == pytest.approx(want, rel=1e-11, abs=0), alpha

    def test_numpy_arguments_give_the_python_answer(self):
        assert chi2_critical(np.int64(6), np.float64(0.01)) == chi2_critical(6, 0.01)


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

    def test_verdict_symmetric(self):
        ctx = make_context([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
        a = is_independent(ctx, 0, 2, (1,), 0.05)
        b = is_independent(ctx, 2, 0, (1,), 0.05)
        assert a == b  # both orders test the canonical pair (min, max)


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
        stats = []
        for a, b in [(u, v), (v, u)]:
            ctx = make_context(cols, cards)
            with mock.patch.object(scoring, "count", wraps=data.count) as tally:
                got = f_bic(ctx, a, b, z)
            assert tally.call_count == 1  # both families from one tally
            # bit for bit the statistic of two separately tallied families
            fresh = make_context(cols, cards)
            assert got.statistic == 2.0 * (bic(fresh, a, (*z, b)) - bic(fresh, a, z)
                                           + 0.5 * fresh.log_n * got.dof)
            stats.append(got.statistic)
        stat = stats[0]
        assert stat >= -1e-9
        assert stats[1] == pytest.approx(stat, abs=1e-9)
        assert stat == pytest.approx(g2_direct(list(zip(*cols)), cards, u, v, list(z)),
                                     abs=1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(stat_cases())
    def test_verdict_equal_for_both_pair_orders(self, case):
        cols, cards, u, v, z = case
        ctx = make_context(cols, cards)
        assert is_independent(ctx, u, v, z) == is_independent(ctx, v, u, z)


@st.composite
def batch_cases(draw):
    """A dataset of 2 to 6 columns with 2 to 6 states, and one fill_bic call:
    child x, base set, candidates, an optional dropped base member, keys
    already memoised, and the batch cap."""
    n_vars = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(2, 6), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(1, 150))
    cols = [draw(st.lists(st.integers(0, c - 1), min_size=n_rows, max_size=n_rows))
            for c in cards]
    x = draw(st.integers(0, n_vars - 1))
    others = [i for i in range(n_vars) if i != x]
    base = sorted(draw(st.sets(st.sampled_from(others), max_size=n_vars - 2)))
    ys = sorted(draw(st.sets(st.sampled_from([i for i in others if i not in base]),
                             min_size=1)))
    drop = draw(st.sampled_from([None, *base]))
    sets = [base] if drop is None else [base, [p for p in base if p != drop]]
    keys = [frozenset((*s, y)) for s in sets for y in ys]
    cached = draw(st.sets(st.sampled_from(keys)))
    cap = draw(st.sampled_from([1 << 20, 1, 9, 100]))
    return cols, cards, x, base, ys, drop, keys, cached, cap


class TestCodeOverflow:
    @pytest.mark.parametrize("call, message", [
        (lambda ctx: bic(ctx, 0, range(1, 20)), r"variables \[0, 1, .*, 19\] number 10{20},"),
        (lambda ctx: fill_bic(ctx, 0, range(1, 19), [19]),
         r"variables \[0, 1, .*, 18\] number 10{19},"),
        # the base code fits, but not once widened by the candidate's states
        (lambda ctx: fill_bic(ctx, 0, range(1, 18), [18]),
         r"cells of 10{18} base configurations by the states of variables \[18\] number 10{19},"),
    ], ids=["bic", "fill_bic-base", "fill_bic-widened"])
    def test_names_the_variables_past_int64(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(ScoreContext(twenty_ten_state_columns()))


class TestFillBic:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(batch_cases())
    def test_memo_equals_fresh_per_family_bic(self, case):
        cols, cards, x, base, ys, drop, keys, cached, cap = case
        ctx = make_context(cols, cards)
        # a memoised key is left alone, whatever it holds
        for key in cached:
            ctx._scores[(x, key)] = -1.0
        with mock.patch.object(data, "_BATCH_ELEMENTS", cap):
            got = fill_bic(ctx, x, base, ys, drop)
        assert set(ctx._scores) == {(x, key) for key in keys}
        fresh = make_context(cols, cards)
        for key in keys:
            want = -1.0 if key in cached else bic(fresh, x, key)
            assert ctx._scores[(x, key)] == want
        # one array per parent set, in ys order, each entry the memo's value
        assert [a.dtype for a in got] == [np.float64] * len(got)
        assert [a.tolist() for a in got] == [
            [ctx._scores[(x, key)] for key in keys[i * len(ys):(i + 1) * len(ys)]]
            for i in range(len(got))]
        assert len(got) == (1 if drop is None else 2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(batch_cases(), st.data())
    def test_drop_bic_equals_fresh_per_family_bic(self, case, draw):
        cols, cards, x, base, _, _, _, _, _ = case
        # every parent, as the climber drops them, or a subset of them
        drops = draw.draw(st.sampled_from([base, *(base[i::2] for i in range(2))]))
        ctx = make_context(cols, cards)
        keys = [frozenset(base) - {p} for p in drops]
        # a memoised key is left alone, whatever it holds
        if keys:
            ctx._scores[(x, keys[0])] = -1.0
        got = drop_bic(ctx, x, base, drops)
        fresh = make_context(cols, cards)
        want = [bic(fresh, x, key) for key in keys]
        if keys:
            want[0] = -1.0
        assert got.dtype == np.float64
        assert got.tolist() == want
        assert ctx._scores[(x, frozenset(base))] == bic(fresh, x, base)
        assert set(ctx._scores) == {(x, key) for key in [*keys, frozenset(base)]}

    def test_empty_base_and_unobserved_configurations(self):
        # 6 x 5 x 4 grid over 12 rows: most configurations never occur
        rng = np.random.default_rng(8)
        cards = [6, 5, 4, 3]
        cols = [list(rng.integers(0, c, 12)) for c in cards]
        ctx = make_context(cols, cards)
        fill_bic(ctx, 0, (), [1, 2, 3])
        fill_bic(ctx, 1, (0, 2), [3], drop=0)
        fresh = make_context(cols, cards)
        for x, parents in [(0, {1}), (0, {2}), (0, {3}), (1, {0, 2, 3}), (1, {2, 3})]:
            assert ctx._scores[(x, frozenset(parents))] == bic(fresh, x, parents)


def test_import_leaves_scipy_unloaded(tmp_path):
    # the package computes its chi-square critical values itself, so neither
    # the import nor a discover run that asks independence tests loads scipy;
    # multiprocessing loads only when a score table is large enough to fork
    # for, and statistics (with fractions and decimal) only for a first
    # critical value
    csv = tmp_path / "planted.csv"
    write_csv(csv, planted_dataset(n=2000))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(src), os.environ.get("PYTHONPATH", "")] if p))
    script = (
        "import sys\n"
        "import latentdag, latentdag.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert not {'statistics', 'fractions', 'decimal'} & set(sys.modules)\n"
        f"assert latentdag.cli.main(['discover', '--input', {str(csv)!r}]) == 0\n"
        "assert latentdag.scoring._chi2_isf.cache_info().misses > 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert latentdag.chi2_critical(1, 0.05) == 3.8414588206941285\n"
    )
    r = subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
