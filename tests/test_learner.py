"""Structure learners vs. exhaustive enumeration and known structures."""

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentdag import (
    Dag,
    Dataset,
    DiscreteBayesNet,
    LearnerConfig,
    ScoreContext,
    VariableMeta,
    bic,
    bn_from_json,
    build_local_scores,
    d_separated,
    discover_confounders,
    learn,
    learn_exact,
    learn_hill_climb,
    markov_equivalent,
    sample,
)
from latentdag import data, learner

from oracles import (
    all_dags,
    dag_score,
    dominated_families,
    entropy_scores_per_node,
    exact_joint,
    exhaustive_best_dags,
    mi_from_exact_joint,
    per_family_scores,
    ranks_per_row,
    subset_maxima_per_node,
)


def make_dataset(columns, cards=None):
    arr = np.column_stack([np.asarray(c, dtype=np.int32) for c in columns])
    cards = cards or [int(arr[:, j].max()) + 1 for j in range(arr.shape[1])]
    vs = tuple(
        VariableMeta(f"V{j}", tuple(f"s{i}" for i in range(cards[j])))
        for j in range(arr.shape[1])
    )
    return Dataset(vs, arr)


def full_mask_scores(table):
    """Each node's stored families as ``{full parent mask: score}``, the mask
    over all variables (bit ``i`` = variable ``i``)."""
    return [dict(zip(learner._insert_bit(table.masks, x).tolist(), row.tolist()))
            for x, row in enumerate(table.node_scores)]


def assert_kept_as_oracle(table, want):
    """The table's contract against the per-family scores ``want``: the
    same families, ``-inf`` exactly on those that a proper subset of their
    parents matches or beats there, and every other entry the same float."""
    dominated = dominated_families(want)
    for x, (got, row, out) in enumerate(zip(full_mask_scores(table), want, dominated)):
        assert got.keys() == row.keys()
        assert {m for m, s in got.items() if s == -math.inf} == out, x
        assert {m: s for m, s in got.items() if s != -math.inf} == {
            m: s for m, s in row.items() if m not in out}, x


def every_family_kept(monkeypatch):
    """Make every family a candidate and none dominated, so that the table
    holds each family's exact score."""
    monkeypatch.setattr(learner, "_subset_maxima",
                        lambda t, scores: np.full(scores.shape, -np.inf))


def total_bic(d, g, k):
    ctx = ScoreContext(d)
    return sum(
        bic(ctx, x, tuple(sorted(g.parents(x)))) for x in range(d.n_variables)
    )


def random_instance(rng, n_rows=2000, n=4):
    """A dataset drawn from a random 4-node BN with random binary CPTs."""
    arcs = []
    order = rng.permutation(n)
    for i, v in enumerate(order):
        for u in order[:i]:
            if rng.random() < 0.5:
                arcs.append((int(u), int(v)))
    g = Dag.from_arcs(n, arcs)
    cpts = {}
    for v in range(n):
        n_cfg = 2 ** len(g.parents(v))
        p1 = rng.uniform(0.1, 0.9, size=n_cfg)
        cpts[v] = np.column_stack([1 - p1, p1])
    vs = [VariableMeta(f"V{j}", ("s0", "s1")) for j in range(n)]
    bn = DiscreteBayesNet(vs, g, cpts)
    return sample(bn, n_rows, seed=int(rng.integers(2**31)))


def identical_columns():
    """Five copies of one column."""
    col = np.random.default_rng(42).integers(0, 2, (300, 1))
    return make_dataset(list(np.tile(col, (1, 5)).T))


def recoded_pair():
    """V0, V1, their recoding V2 = 2 V0 + V1, and a noisy XOR V3 of both."""
    rng = np.random.default_rng(11)
    a, b = rng.integers(0, 2, 2000), rng.integers(0, 2, 2000)
    x = np.where(rng.random(2000) < 0.8, a ^ b, rng.integers(0, 2, 2000))
    return make_dataset([a, b, 2 * a + b, x], [2, 2, 4, 2])


class TestExact:
    def test_independent_columns_give_empty_graph(self):
        rng = np.random.default_rng(0)
        d = make_dataset([rng.integers(0, 2, 5000) for _ in range(4)])
        g = learn_exact(d, LearnerConfig(max_parents=3))
        assert g.arcs() == []

    def test_collider_recovered_up_to_equivalence(self):
        rng = np.random.default_rng(1)
        n = 20000
        a = rng.integers(0, 2, n)
        b = rng.integers(0, 2, n)
        c = np.where(rng.random(n) < 0.9, a ^ b, 1 - (a ^ b))
        d = make_dataset([a, b, c])
        g = learn_exact(d, LearnerConfig(max_parents=2))
        want = Dag.from_arcs(3, [(0, 2), (1, 2)])
        assert markov_equivalent(g, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = random_instance(rng)
        k = 3
        g = learn_exact(d, LearnerConfig(max_parents=k))
        got = total_bic(d, g, k)
        rows = [tuple(r) for r in d.values]
        cards = [len(v.states) for v in d.variables]
        best, argmax = exhaustive_best_dags(rows, cards, 4, k)
        assert got == pytest.approx(best, abs=1e-9)
        assert any(
            markov_equivalent(g, Dag.from_arcs(4, list(a))) for a in argmax
        )

    def test_respects_parent_cap(self):
        rng = np.random.default_rng(2)
        # V3 is the parity of three strong inputs: wants all three parents
        n = 30000
        xs = [rng.integers(0, 2, n) for _ in range(3)]
        y = np.where(rng.random(n) < 0.95, xs[0] ^ xs[1] ^ xs[2],
                     1 - (xs[0] ^ xs[1] ^ xs[2]))
        d = make_dataset(xs + [y])
        g = learn_exact(d, LearnerConfig(max_parents=2))
        assert all(len(g.parents(v)) <= 2 for v in range(4))

    def test_ceiling_rejected(self):
        rng = np.random.default_rng(3)
        d = make_dataset([rng.integers(0, 2, 50) for _ in range(21)])
        with pytest.raises(ValueError, match="20"):
            learn_exact(d, LearnerConfig(max_parents=2))
        d4 = make_dataset([rng.integers(0, 2, 50) for _ in range(4)])
        with pytest.raises(ValueError, match="4"):
            learn_exact(d4, LearnerConfig(max_parents=5))

    def test_ties_between_identical_columns(self):
        # every tree over copies scores the same: the smallest sink wins at
        # each subset, and the parent set with fewest members, then the
        # smallest mask
        g = learn_exact(identical_columns(), LearnerConfig(max_parents=3))
        assert g.arcs() == [(1, 0), (2, 1), (3, 2), (4, 3)]

    def test_ties_between_two_pairs_of_copies(self):
        # V0 = V1 and V2 = V3, with V2 a noisy copy of V0: V1 may take V2 or
        # V3 as its parent at the same score, and takes the smaller mask
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, 500)
        c = np.where(rng.random(500) < 0.9, a, 1 - a)
        g = learn_exact(make_dataset([a, a, c, c]), LearnerConfig(max_parents=2))
        assert g.arcs() == [(1, 0), (2, 1), (3, 2)]

    def test_ties_between_parent_sets_of_different_sizes(self):
        # V2 = 2 V0 + V1 recodes {V0, V1}, so V3, a noisy XOR of V0 and V1,
        # scores the same with either parent set: the one-member set wins
        g = learn_exact(recoded_pair(), LearnerConfig(max_parents=2))
        assert g.arcs() == [(0, 2), (2, 1), (2, 3)]

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        d = random_instance(rng)
        g1 = learn_exact(d, LearnerConfig(max_parents=3))
        g2 = learn_exact(d, LearnerConfig(max_parents=3))
        assert g1.arcs() == g2.arcs()


class TestLocalScoreTable:
    def test_contains_every_small_parent_set(self):
        rng = np.random.default_rng(5)
        d = make_dataset([rng.integers(0, 2, 500) for _ in range(4)])
        tbl = build_local_scores(ScoreContext(d), 2)
        for x in range(4):
            others = [i for i in range(4) if i != x]
            n_sets = 1 + len(others) + 3  # sizes 0,1,2 of 3 others
            assert len(tbl.node_scores[x]) == n_sets

    def test_scores_match_direct_bic(self):
        rng = np.random.default_rng(6)
        d = make_dataset([rng.integers(0, 3, 400) for _ in range(4)])
        ctx = ScoreContext(d)
        tbl = build_local_scores(ctx, 3)
        kept = 0
        for x in range(4):
            for mask, s in full_mask_scores(tbl)[x].items():
                z = tuple(i for i in range(4) if mask >> i & 1)
                if s == -math.inf:
                    # a proper subset of the parents scores at least as well
                    assert any(bic(ctx, x, sub) >= bic(ctx, x, z) - 1e-9
                               for size in range(len(z))
                               for sub in itertools.combinations(z, size))
                else:
                    kept += 1
                    assert s == pytest.approx(bic(ctx, x, z), abs=1e-9)
        assert kept >= 4  # the empty sets at least

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_family_tallies_on_random_data(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(4, 7))
        cards = [int(c) for c in rng.integers(2, 5, size=n)]
        n_rows = int(rng.integers(20, 3000))
        # skewed margins, so some configurations stay empty
        d = make_dataset(
            [rng.choice(c, n_rows, p=rng.dirichlet(np.ones(c))) for c in cards], cards)
        k = int(rng.integers(1, min(4, n - 1) + 1))
        tbl = build_local_scores(ScoreContext(d), k)
        assert_kept_as_oracle(tbl, per_family_scores(d, k))

    def test_equals_per_family_tallies_on_edge_inputs(self):
        rng = np.random.default_rng(308)
        cases = [
            # a single variable, no parent sets beyond the empty one
            (make_dataset([rng.integers(0, 3, 100)]), 0),
            # a variable with one state
            (make_dataset([np.zeros(400, dtype=int)] + [rng.integers(0, 3, 400)
                                                        for _ in range(3)],
                          [1, 3, 3, 3]), 3),
            # a grid of 6**5 cells over 30 rows
            (make_dataset([rng.integers(0, 6, 30) for _ in range(5)], [6] * 5), 4),
            # one row
            (make_dataset([rng.integers(0, 2, 1) for _ in range(4)], [2] * 4), 3),
        ]
        for d, k in cases:
            tbl = build_local_scores(ScoreContext(d), k)
            assert_kept_as_oracle(tbl, per_family_scores(d, k))

    def test_equals_per_family_tallies_when_batches_split(self, monkeypatch):
        # a small batch cap splits each prefix's children over several
        # bincounts, as long data or wide domains do under the real cap
        monkeypatch.setattr(data, "_BATCH_ELEMENTS", 1000)
        rng = np.random.default_rng(309)
        cards = [2, 5, 3, 4, 2, 6]
        d = make_dataset([rng.integers(0, c, 400) for c in cards], cards)
        tbl = build_local_scores(ScoreContext(d), 3)
        assert_kept_as_oracle(tbl, per_family_scores(d, 3))

    @pytest.mark.parametrize("k, message", [
        (1.5, "k must be an integer, got 1.5"),
        (True, "k must be an integer, got True"),
        (-1, "k must be >= 0, got -1"),
    ])
    def test_bad_cap_is_named(self, k, message):
        d = make_dataset([[0, 1, 1, 0], [1, 1, 0, 0]])
        with pytest.raises(ValueError, match=message):
            build_local_scores(ScoreContext(d), k)

    def test_equals_per_family_tallies_on_child(self):
        assets = Path(__file__).resolve().parents[1] / "assets"
        d = sample(bn_from_json((assets / "child.json").read_text()), 2000, seed=5)
        tbl = build_local_scores(ScoreContext(d), 4)
        assert sum(len(s) for s in tbl.node_scores) == 100_720
        assert_kept_as_oracle(tbl, per_family_scores(d, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_every_family_exact_when_all_are_kept(self, monkeypatch, seed):
        # with no family filtered out, the second pass scores every family,
        # most of them from sums over a larger subset's joint
        every_family_kept(monkeypatch)
        rng = np.random.default_rng(320 + seed)
        n = int(rng.integers(4, 7))
        cards = [int(c) for c in rng.integers(2, 6, size=n)]
        n_rows = int(rng.integers(20, 3000))
        d = make_dataset(
            [rng.choice(c, n_rows, p=rng.dirichlet(np.ones(c))) for c in cards], cards)
        k = int(rng.integers(1, n))
        assert full_mask_scores(build_local_scores(ScoreContext(d), k)) == per_family_scores(d, k)

    @pytest.mark.parametrize("n_rows", [5000, 50000])
    def test_entropy_scores_stay_within_half_the_slack(self, monkeypatch, n_rows):
        every_family_kept(monkeypatch)
        entropy_scores, got = learner._entropy_scores, []

        def spy(t):
            got.append(entropy_scores(t))
            return got[-1]

        monkeypatch.setattr(learner, "_entropy_scores", spy)
        exact = build_local_scores(ScoreContext(child_sample(n_rows, 1)), 4).scores
        assert np.isfinite(exact).all()
        [(approxes, slacks)] = got
        assert approxes.shape == exact.shape and slacks.shape == (len(exact),)
        for approx, slack, row in zip(approxes, slacks, exact):
            # measured 1.6e-11 at 5,000 rows and 2.6e-10 at 50,000
            assert np.abs(approx - row).max() < slack / 2
            # far below the gaps that separate dominated families on child
            assert slack < 1e-3

    def test_same_table_from_any_scores_within_half_the_slack(self, monkeypatch):
        # entropy scores that err by just under half of a slack far wider
        # than the gaps on child, up for parent sets of even size and down
        # for odd ones, so that a family and a subset one member short lean
        # apart, still give the table built from the real ones
        d = child_sample(2000, 3)
        table = build_local_scores(ScoreContext(d), 4)
        want = table.scores.copy()
        with monkeypatch.context() as patch:
            every_family_kept(patch)
            exact = build_local_scores(ScoreContext(d), 4).scores.copy()
        slack = 10.0
        lean = np.where(learner._popcounts(d.n_variables - 1)[table.masks] % 2, -0.499, 0.499)
        monkeypatch.setattr(learner, "_entropy_scores",
                            lambda t: (exact + lean * slack, np.full(len(exact), slack)))
        got = build_local_scores(ScoreContext(d), 4).scores
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def table_cases(draw):
    """A dataset of 2-7 columns over 30-2,000 rows with 2-6 states each,
    skewed margins, and columns that copy an earlier one, relabel its
    states or code two earlier ones jointly; and a parent cap of 1-4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(30, 2000))
    cols, cards = [], []
    for j in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(["fresh", "copy", "relabel", "pair"]) if j else st.just("fresh"))
        a = draw(st.integers(0, j - 1)) if j else 0
        b = draw(st.integers(0, j - 1)) if j else 0
        if kind == "copy":
            col, card = cols[a], cards[a]
        elif kind == "relabel":
            col, card = rng.permutation(cards[a])[cols[a]], cards[a]
        elif kind == "pair" and a != b and cards[a] * cards[b] <= 6:
            col, card = cols[a] * cards[b] + cols[b], cards[a] * cards[b]
        else:
            card = draw(st.integers(2, 6))
            col = rng.choice(card, n_rows, p=rng.dirichlet(np.ones(card)))
        cols.append(col)
        cards.append(card)
    return make_dataset(cols, cards), draw(st.integers(1, 4))


class TestKeptFamilies:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(table_cases())
    def test_pruned_table_learns_what_the_full_table_learns(self, case):
        from unittest import mock
        d, k = case
        n = d.n_variables
        want = per_family_scores(d, k)
        table = build_local_scores(ScoreContext(d), k)
        assert_kept_as_oracle(table, want)

        # learning from the pruned table and from the oracle's full one
        # gives the same graph and the same best score of every subset
        full = np.array([[want[x][m] for m in learner._insert_bit(table.masks, x).tolist()]
                         for x in range(n)])
        fork_layers, dps, arcs = learner._fork_layers, [], []

        def spy(dp, *rest):
            fork_layers(dp, *rest)
            dps.append(dp.tobytes())

        with mock.patch.object(learner, "_fork_layers", spy):
            arcs.append(learn_exact(d, LearnerConfig(max_parents=k)).arcs())
            oracle_table = learner.LocalScoreTable(n, table.k, table.masks, full)
            with mock.patch.object(learner, "build_local_scores",
                                   lambda ctx, cap: oracle_table):
                arcs.append(learn_exact(d, LearnerConfig(max_parents=k)).arcs())
        assert arcs[0] == arcs[1]
        assert dps[0] == dps[1]


class TestAllNodeBookkeeping:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(table_cases())
    def test_equals_the_per_node_reference(self, case):
        from unittest import mock
        d, k = case
        t = learner._Tallies(ScoreContext(d), k)
        learner._run_pass(t, learner._entropies, t.n, learner._branch_sizes(t.n, k))
        approx, slack = learner._entropy_scores(t)
        keep = approx >= learner._subset_maxima(t, approx) - slack[:, None]
        for x in range(t.n):
            want, want_slack = entropy_scores_per_node(t, x)
            assert approx[x].tobytes() == want.tobytes()
            assert slack[x] == want_slack
            assert np.array_equal(keep[x],
                                  want >= subset_maxima_per_node(t, want) - want_slack)

        # the table built through the per-node reference has the same bits
        def per_node_scores(t):
            rows = [entropy_scores_per_node(t, x) for x in range(t.n)]
            return np.array([row for row, _ in rows]), np.array([sl for _, sl in rows])

        def per_node_maxima(t, scores):
            return np.array([subset_maxima_per_node(t, row) for row in scores])

        table = build_local_scores(ScoreContext(d), k).scores
        with mock.patch.object(learner, "_entropy_scores", per_node_scores), \
                mock.patch.object(learner, "_subset_maxima", per_node_maxima):
            want_table = build_local_scores(ScoreContext(d), k).scores
        assert table.tobytes() == want_table.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_ranks_equal_one_sort_per_row(self, n, seed):
        # stored parent masks over n - 1 bits, the empty one among them, and
        # few distinct scores, so that ties between members and masks decide
        rng = np.random.default_rng(seed)
        others = 1 + rng.permutation((1 << (n - 1)) - 1)
        stored = np.sort(np.concatenate([[0], others[:rng.integers(0, len(others) + 1)]]))
        m = len(stored)
        scores = rng.choice([-np.inf, -3.0, -2.5, -1.0, -0.0, 0.0], size=(n, m))
        scores[:, 0] = rng.choice([-2.0, -1.0], size=n)  # the empty set, finite
        rank_of, vals, best = learner._rank(scores, stored)
        members = np.array([int(v).bit_count() for v in stored])
        want = ranks_per_row(scores, members)
        assert np.array_equal(rank_of, want)
        for x in range(n):
            assert vals[x].tobytes() == scores[x][np.argsort(want[x])].tobytes()
            finite = np.argsort(want[x])[:np.count_nonzero(scores[x] > -np.inf)]
            assert best[x, :len(finite)].tolist() == stored[finite].tolist()
            assert (best[x, len(finite):] == -1).all()

    @pytest.mark.parametrize("n_bits", [0, 1, 2, 4, 5, 7, 19])
    def test_masks_by_popcount_equal_a_scan_per_count(self, n_bits):
        popcnt = learner._popcounts(n_bits)
        layers = list(learner._masks_by_popcount(n_bits))
        assert len(layers) == n_bits + 1
        for p, layer in enumerate(layers):
            assert layer.dtype == np.intp
            assert np.array_equal(layer, np.flatnonzero(popcnt == p))


def forced_workers(monkeypatch, workers):
    """Build tables with ``workers`` processes and run the DP with up to
    two, whatever the size and the machine's CPU count; return the (stage,
    share count) of each fork, a single share running in this process."""
    monkeypatch.setattr(learner, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(learner, "_FORK_MIN_SUBSETS", 0)
    monkeypatch.setattr(learner, "_FORK_MIN_DP_NODES", 0)
    forked = []
    fork_shares = learner._fork_shares

    def spy(run, shares, stage, unit):
        if len(shares) > 1:
            forked.append((stage, len(shares)))
        fork_shares(run, shares, stage, unit)

    monkeypatch.setattr(learner, "_fork_shares", spy)
    return forked


def table_forks(monkeypatch, n, k, workers):
    """Watch the table's second pass; return a function giving the (stage,
    share count) of each table pass that forks, as ``forced_workers``
    records them, once a table of ``n`` nodes under the cap ``k`` is built
    with ``workers`` processes."""
    plan, second = learner._plan, []

    def spy(t, keep):
        second.append(plan(t, keep))
        return second[-1]

    monkeypatch.setattr(learner, "_plan", spy)

    def forks():
        shares = [len(learner._shares(sizes, workers))
                  for sizes in (learner._branch_sizes(n, k), second[-1][1])]
        return [("score table", count) for count in shares if count > 1]

    return forks


def child_sample(n_rows, seed):
    assets = Path(__file__).resolve().parents[1] / "assets"
    return sample(bn_from_json((assets / "child.json").read_text()), n_rows, seed=seed)


def mixed_sample(seed, n=13, n_rows=1500):
    rng = np.random.default_rng(seed)
    cards = [int(c) for c in rng.integers(2, 6, size=n)]
    return make_dataset(
        [rng.choice(c, n_rows, p=rng.dirichlet(np.ones(c))) for c in cards], cards)


class TestForkedTable:
    @pytest.mark.parametrize("make", [lambda: child_sample(5000, 1), lambda: mixed_sample(310)],
                             ids=["child-5k", "mixed-13"])
    def test_bits_equal_at_every_worker_count(self, monkeypatch, make):
        d = make()
        bits = {}
        for workers in (1, 2, 3):
            forked = forced_workers(monkeypatch, workers)
            forks = table_forks(monkeypatch, d.n_variables, 4, workers)
            bits[workers] = build_local_scores(ScoreContext(d), 4).scores.view(np.int64)
            assert forked[:1] == ([] if workers == 1 else [("score table", workers)])
            assert forked == forks()
        assert np.array_equal(bits[1], bits[2])
        assert np.array_equal(bits[1], bits[3])

    def test_split_covers_each_branch_once(self):
        sizes = [5035, 4047, 3212, 2516, 1940, 1470, 1091, 790, 556, 378, 246, 151]
        for workers in (1, 2, 3, 5, 20):
            shares = learner._shares(sizes, workers)
            assert len(shares) == min(workers, len(sizes))
            assert sorted(y for share in shares for y in share) == list(range(len(sizes)))
        assert learner._shares([], 3) == [[]]

    def test_small_tables_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 4)
        size = 13 + sum(learner._branch_sizes(13, 4))
        monkeypatch.setattr(learner, "_FORK_MIN_SUBSETS", size + 1)
        assert learner._workers(13, 4) == (1, 1)
        monkeypatch.setattr(learner, "_FORK_MIN_SUBSETS", size)
        assert learner._workers(13, 4) == (4, 1)
        # the DP forks by its node count alone, into at most two processes
        assert learner._workers(learner._FORK_MIN_DP_NODES - 1, 1) == (1, 1)
        assert learner._workers(learner._FORK_MIN_DP_NODES, 1) == (1, 2)
        assert learner._workers(20, 4) == (4, 2)
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 1)
        assert learner._workers(20, 4) == (1, 1)

    @pytest.mark.parametrize("make, work, forks", [
        (lambda: child_sample(5000, 1), (854, 1090), [("score table", 2)] * 2),
        (lambda: mixed_sample(310), (13, 13), [("score table", 2)]),
    ], ids=["child-5k", "mixed-13"])
    def test_second_pass_splits_by_its_tallies_and_scorings(self, monkeypatch, make, work,
                                                            forks):
        # two usable CPUs and the real floors: the first pass of either table
        # splits, and the second splits where its subset tallies and exact
        # scorings together reach the floor, though child's 854 subsets
        # alone would not
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
        forked, planned = [], []
        fork_shares, plan = learner._fork_shares, learner._plan

        def fork_spy(run, shares, stage, unit):
            if len(shares) > 1:
                forked.append((stage, len(shares)))
            fork_shares(run, shares, stage, unit)

        def plan_spy(t, keep):
            work = plan(t, keep)
            planned.append((work, len(t.kept), int(keep.sum())))
            return work

        monkeypatch.setattr(learner, "_fork_shares", fork_spy)
        monkeypatch.setattr(learner, "_plan", plan_spy)
        build_local_scores(ScoreContext(make()), 4)
        [((here, sizes), subsets, families)] = planned
        assert (subsets, families) == work
        assert here + sum(sizes) == subsets + families
        assert subsets < learner._FORK_MIN_SUBSETS
        assert forked == forks

    def test_no_fork_inside_a_multiprocessing_child(self, monkeypatch):
        import concurrent.futures
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 4)
        assert learner._workers(20, 4) == (4, 2)
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(learner._workers, 20, 4).result(timeout=60) == (1, 1)
            # the rule's one home, which the benchmark grid reads too
            assert pool.submit(learner._cpu_budget).result(timeout=60) == 1
        assert learner._cpu_budget() == 4

    def test_no_fork_beside_another_thread(self, monkeypatch):
        import threading
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 4)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(10,))
        other.start()
        try:
            assert learner._workers(20, 4) == (1, 1)
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()
        assert learner._workers(20, 4) == (4, 2)

    def test_no_worker_outlives_a_built_table(self, monkeypatch):
        import multiprocessing
        forced_workers(monkeypatch, 3)
        tbl = build_local_scores(ScoreContext(mixed_sample(311)), 4)
        assert np.isfinite(tbl.scores[:, 0]).all()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failed_share_fails_the_table(self, monkeypatch, where):
        import multiprocessing
        import os
        forced_workers(monkeypatch, 3)
        run_share = learner._run_share
        parent = os.getpid()

        def failing(t, share):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError("share failed on purpose")
            run_share(t, share)

        monkeypatch.setattr(learner, "_run_share", failing)
        expected = ("score table worker failed: branches .* exited with code 1"
                    if where == "child" else "share failed on purpose")
        got = []
        with pytest.raises((RuntimeError, ArithmeticError), match=expected):
            got.append(build_local_scores(ScoreContext(mixed_sample(312)), 4))
        assert got == []
        assert multiprocessing.active_children() == []

    def test_a_failed_second_pass_fails_the_table(self, monkeypatch):
        import multiprocessing
        import os
        forked = forced_workers(monkeypatch, 3)
        score, parent = learner._score, os.getpid()

        def failing(t, *args):
            if os.getpid() != parent:
                raise ArithmeticError("second pass failed on purpose")
            score(t, *args)

        monkeypatch.setattr(learner, "_score", failing)
        with pytest.raises(RuntimeError, match="score table worker failed: branches "):
            build_local_scores(ScoreContext(child_sample(2000, 2)), 4)
        assert forked == [("score table", 3)] * 2
        assert multiprocessing.active_children() == []


def dense_running_maxima(table):
    """The table spread over every parent mask, ``-inf`` where none is
    stored, then turned into running maxima over supersets as the DP once
    held them: ``bps[x][T]`` is x's best stored score inside T."""
    n = table.n
    bps = np.full((n, 1 << (n - 1)), -np.inf)
    bps[:, table.masks] = table.scores
    for b in range(n - 1):
        view = bps.reshape(n, -1, 2, 1 << b)
        np.maximum(view[:, :, 1], view[:, :, 0], out=view[:, :, 1])
    return bps


def recorded_sink_dp(bps, n):
    """The layer loop as it stood with a sink array: a strictly larger
    candidate records its sink, so exact ties keep the smallest."""
    dp = np.full(1 << n, -np.inf)
    dp[0] = 0.0
    sink = np.zeros(1 << n, dtype=np.uint8)
    popcnt = learner._popcounts(n - 1)
    for s in range(1, n + 1):
        js = np.flatnonzero(popcnt == s - 1)
        for x in range(n):
            prev = learner._insert_bit(js, x)
            cand = dp[prev] + bps[x][js]
            win = cand > dp[prev | 1 << x]
            dp[(prev | 1 << x)[win]] = cand[win]
            sink[(prev | 1 << x)[win]] = x
    return dp, sink


def peel_recorded_sinks(bps, sink, n, k):
    """Arcs peeled from recorded sinks; parents as :func:`learn_exact`
    picks them, the first stored set by fewest members then smallest mask
    whose running maximum equals the best."""
    popcnt = learner._popcounts(n - 1)
    stored = np.concatenate([np.flatnonzero(popcnt == size) for size in range(k + 1)])
    arcs = []
    mask = (1 << n) - 1
    while mask:
        x = int(sink[mask])
        mask ^= 1 << x
        within = learner._drop_bit(mask, x)
        fits = stored[stored & ~within == 0]
        pmask = learner._insert_bit(int(fits[np.argmax(bps[x][fits] == bps[x][within])]), x)
        arcs += [(p, x) for p in range(n) if pmask >> p & 1]
    return sorted(arcs)


def smallest_attaining_sinks(dp, bps, n):
    """Each nonempty subset's smallest member x with dp[T - x] +
    bps[x][T - x] == dp[T], over every subset at once."""
    masks = np.arange(1, 1 << n)
    sink = np.full(len(masks), -1)
    for x in reversed(range(n)):
        has = np.flatnonzero(masks >> x & 1)
        prev = masks[has] ^ 1 << x
        hit = dp[prev] + bps[x][learner._drop_bit(prev, x)] == dp[masks[has]]
        sink[has[hit]] = x
    return sink


def child_nodes(cols, n_rows=2000):
    """Child at ``n_rows`` rows cut to the nodes ``cols``."""
    return data.project(child_sample(n_rows, 2), cols)


class TestForkedDp:
    @pytest.mark.parametrize("make, k", [
        (lambda: child_sample(5000, 1), 4), (lambda: mixed_sample(310), 4),
        (identical_columns, 3), (recoded_pair, 2),
        (lambda: child_nodes([0], 500), 1), (lambda: child_nodes([11, 0]), 1),
        (lambda: child_nodes([1, 2, 11, 14, 15, 16, 17]), 1),
        (lambda: child_nodes([1, 2, 11, 14, 15, 16, 17]), 2),
    ], ids=["child-5k", "mixed-13", "identical-columns", "recoded-pair",
            "one-node", "two-nodes", "child-7-k1", "child-7-k2"])
    def test_bits_equal_at_every_worker_count(self, monkeypatch, make, k):
        import mmap
        d = make()
        n = d.n_variables
        table = build_local_scores(ScoreContext(d), k)
        bps = dense_running_maxima(table)
        arcs, bits = {}, {}
        layers, seen = learner._layers, []

        def spy(dp, *rest):
            seen.append(dp)
            layers(dp, *rest)

        # every layer's ranks, in whichever process, select the dense running
        # maxima of the table; the layers ranked here and in a child are
        # counted in shared memory
        rank_layer, parent = learner._rank_layer, os.getpid()
        counts = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

        def check(rank_of, rows, stored, k, masks, *rest):
            first, ranks = rank_layer(rank_of, rows, stored, k, masks, *rest)
            nodes = np.arange(n)[rows]
            vals = np.empty((len(nodes), len(stored)))
            np.put_along_axis(vals, rank_of[rows].astype(np.intp), table.scores[nodes], axis=1)
            assert np.array_equal(np.take_along_axis(vals, ranks.astype(np.intp), axis=1),
                                  bps[nodes][:, masks])
            counts[int(os.getpid() != parent)] += 1
            return first, ranks

        monkeypatch.setattr(learner, "_layers", spy)
        monkeypatch.setattr(learner, "_rank_layer", check)
        for workers in (1, 2, 3):
            forked = forced_workers(monkeypatch, workers)
            forks = table_forks(monkeypatch, n, k, workers)
            seen.clear()
            counts[:] = 0
            arcs[workers] = learn_exact(d, LearnerConfig(max_parents=k)).arcs()
            assert forked == forks() + ([] if workers == 1 else [("DP layer", 2)])
            # this process fills one DP array, in shared memory: both halves
            # in turn, or the half without the top node beside a forked child
            assert len(seen) == (2 if workers == 1 else 1)
            assert all(other is seen[0] for other in seen)
            bits[workers] = seen[0].view(np.int64).copy()
            # a layer per half and group of rows: the half without the top
            # node ranks the nodes below it, the other those and the top node
            assert counts.tolist() == ([3 * n, 0] if workers == 1 else [n, 2 * n])
        assert arcs[1] == arcs[2] == arcs[3]
        assert np.array_equal(bits[1], bits[2])
        assert np.array_equal(bits[1], bits[3])
        # from the dense running maxima, the recorded-sink loop gives the same
        # bits, each subset's recorded sink is the smallest that attains its
        # best, and peeling the recorded sinks, with parents found by a scan
        # of the stored sets, gives the same graph
        want, sink = recorded_sink_dp(bps, n)
        assert np.array_equal(bits[1], want.view(np.int64))
        assert np.array_equal(smallest_attaining_sinks(want, bps, n), sink[1:])
        assert arcs[1] == peel_recorded_sinks(bps, sink, n, k)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_buffer_as_large_as_a_dense_table(self, monkeypatch, workers):
        import mmap
        forced_workers(monkeypatch, workers)
        real, sizes = mmap.mmap, []

        def spy(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real(fileno, length, *args, **kwargs)

        monkeypatch.setattr(learner.mmap, "mmap", spy)
        d = child_sample(5000, 1)
        n = d.n_variables
        learn_exact(d, LearnerConfig(max_parents=4))
        # a float per node and parent mask would take 83,886,080 bytes; the
        # largest buffer is the best score per variable subset
        assert max(sizes) < n * (1 << (n - 1)) * 8 == 83_886_080
        assert max(sizes) == 8 << n == 8_388_608

    def test_dp_allocates_far_less_than_a_rank_per_parent_mask(self, monkeypatch):
        import tracemalloc
        forced_workers(monkeypatch, 1)
        fork_layers, peaks = learner._fork_layers, []

        def traced(*args):
            tracemalloc.start()
            try:
                fork_layers(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(learner, "_fork_layers", traced)
        d = child_sample(5000, 1)
        n = d.n_variables
        learn_exact(d, LearnerConfig(max_parents=4))
        # both halves run here; a uint16 rank per node and parent mask took
        # 20,971,520 bytes, and dp lives in an mmap, which is not traced
        assert n * (1 << (n - 1)) * 2 == 20_971_520
        assert peaks[0] < 20_971_520 // 2

    def test_every_rank_fits_in_uint16(self):
        n, k = learner.EXACT_MAX_NODES, learner.EXACT_MAX_PARENTS
        families = np.count_nonzero(learner._popcounts(n - 1) <= k)
        assert families == sum(math.comb(n - 1, size) for size in range(k + 1)) == 5036
        assert families - 1 <= np.iinfo(np.uint16).max

    def test_one_process_asks_for_no_fork_context(self, monkeypatch):
        import multiprocessing

        def no_fork(*args):
            raise AssertionError("asked for a fork context with one process")

        forked = forced_workers(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        arcs = learn_exact(child_sample(5000, 1), LearnerConfig(max_parents=4)).arcs()
        assert forked == []
        assert arcs == [
            (1, 7), (2, 7), (2, 8), (3, 9), (4, 10), (5, 12), (11, 0), (11, 13), (11, 14),
            (11, 15), (11, 16), (11, 18), (11, 19), (14, 6), (15, 1), (16, 1), (16, 2),
            (17, 2), (17, 3), (17, 4), (17, 5), (17, 11), (18, 4), (19, 5), (19, 13)]

    @pytest.mark.parametrize("where", ["child", "parent"])
    @pytest.mark.parametrize("stage", ["_rank_layer", "_layers"], ids=["maxima", "layers"])
    def test_a_failed_stage_fails_learning(self, monkeypatch, stage, where):
        import multiprocessing
        import time
        forced_workers(monkeypatch, 2)
        run = getattr(learner, stage)
        parent = os.getpid()

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError("stage failed on purpose")
            if where == "parent":
                time.sleep(60)  # only a terminated child ends this early
            return run(*args)

        monkeypatch.setattr(learner, stage, failing)
        d = mixed_sample(312)
        got = []
        start = time.perf_counter()
        # the ranks of the best families (their scores' running maxima) fail
        # inside a DP half, the forked one with the top node
        expected = "DP layer worker failed: subsets with node 12 exited with code 1"
        with pytest.raises(RuntimeError if where == "child" else ArithmeticError,
                           match=expected if where == "child" else "on purpose"):
            got.append(learn_exact(d, LearnerConfig(max_parents=4)))
        assert time.perf_counter() - start < 30
        assert got == []
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_dp_pipe_leaks_no_descriptor(self, monkeypatch, workers):
        import multiprocessing
        forced_workers(monkeypatch, workers)
        d = mixed_sample(313)
        want = learn_exact(d, LearnerConfig(max_parents=4)).arcs()  # imports settle
        multiprocessing.active_children()
        before = len(os.listdir("/proc/self/fd"))
        assert learn_exact(d, LearnerConfig(max_parents=4)).arcs() == want
        layers = learner._layers
        for failing_top in (False, True):
            def failing(dp, vals, rank_of, stored, k, top, sync):
                if top == failing_top:
                    raise ArithmeticError("half failed on purpose")
                layers(dp, vals, rank_of, stored, k, top, sync)

            monkeypatch.setattr(learner, "_layers", failing)
            with pytest.raises((ArithmeticError, RuntimeError)):
                learn_exact(d, LearnerConfig(max_parents=4))
        # a finished child's sentinel closes once multiprocessing reaps it
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == before


def moves_per_candidate(g, k):
    """Every add, remove and reverse move that keeps ``g`` acyclic and every
    parent set within ``k``, as ``(kind, u, v)`` on the arc ``u -> v``, from
    one ``Dag.reaches`` search per candidate."""
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


def climb_per_move(ctx, g, k):
    """The climber with one delta per candidate move, each score from its own
    tally, kept as the reference the array climber must equal exactly."""
    local = [bic(ctx, x, g.parents(x)) for x in range(g.n_nodes)]

    # move deltas keyed by (kind, u, v); entries are dropped whenever a node
    # whose parent set they read gets touched by an applied move
    deltas = {}

    def delta_of(kind, u, v):
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
        best_key = None
        best_delta = 1e-10
        for key in moves_per_candidate(g, k):
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


def random_start_per_arc(g, k, rng):
    """The random restart drawn on a ``Dag``, arc by arc: a node order, then
    forward arcs under the cap, each kept with probability 0.15."""
    order = rng.permutation(g.n_nodes)
    for j in range(1, g.n_nodes):
        v = int(order[j])
        for i in range(j):
            if len(g.parents(v)) >= k:
                break
            if rng.random() < 0.15:
                g.add_arc(int(order[i]), v)


def learn_hill_climb_per_move(d, cfg, ctx):
    """``learn_hill_climb``'s restarts around :func:`climb_per_move`."""
    names = [v.name for v in d.variables]
    best, best_score = None, -np.inf
    for restart in range(cfg.restarts):
        g = Dag(d.n_variables, names)
        if restart > 0:
            random_start_per_arc(g, cfg.max_parents,
                                 np.random.default_rng([cfg.seed, restart]))
        climb_per_move(ctx, g, cfg.max_parents)
        score = sum(bic(ctx, x, g.parents(x)) for x in range(g.n_nodes))
        if score > best_score + 1e-12:
            best_score, best = score, g
    return best


@st.composite
def climb_cases(draw):
    """Dependent columns of 2 to 5 states, each a noisy function of earlier
    ones, plus a parent cap and a restart count."""
    n_vars = draw(st.integers(2, 7))
    cards = draw(st.lists(st.integers(2, 5), min_size=n_vars, max_size=n_vars))
    n_rows = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for i, c in enumerate(cards):
        parents = [j for j in range(i) if rng.random() < 0.5]
        col = sum((cols[j] for j in parents), np.zeros(n_rows, dtype=np.int64)) % c
        cols.append(np.where(rng.random(n_rows) < 0.3, rng.integers(0, c, n_rows), col))
    cfg = LearnerConfig(max_parents=draw(st.integers(1, 3)), restarts=draw(st.integers(1, 3)),
                        seed=draw(st.integers(0, 9)))
    return make_dataset(cols, cards), cfg


class TestHillClimb:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(climb_cases())
    def test_equals_per_move_climber(self, case):
        d, cfg = case
        ctx = ScoreContext(d)
        got = learn_hill_climb(d, cfg, ctx).arcs()
        ref_ctx = ScoreContext(d)
        want = learn_hill_climb_per_move(d, cfg, ref_ctx).arcs()
        assert got == want
        assert all(ctx._scores[key] == v for key, v in ref_ctx._scores.items())

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 8), st.integers(1, 4), st.floats(0.0, 0.8),
           st.integers(0, 2**32 - 1))
    def test_legal_moves_agree_with_reaches(self, n, k, density, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        g = Dag(n)
        for j in range(n):
            for i in range(j):
                if rng.random() < density:
                    g.add_arc(int(order[i]), int(order[j]))
        adj = np.zeros((n, n), dtype=bool)
        for u, v in g.arcs():
            adj[u, v] = True
        want = np.zeros((3, n, n), dtype=bool)
        for kind, u, v in moves_per_candidate(g, k):
            want[("add", "remove", "reverse").index(kind), u, v] = True
        assert (learner._legal_moves(adj, k) == want).all()

    def test_never_beats_exact(self):
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            d = random_instance(rng)
            k = 3
            ge = learn_exact(d, LearnerConfig(max_parents=k))
            gh = learn_hill_climb(d, LearnerConfig(max_parents=k, restarts=3))
            assert total_bic(d, gh, k) <= total_bic(d, ge, k) + 1e-9

    def test_chain_recovered_up_to_equivalence(self):
        rng = np.random.default_rng(7)
        n = 20000
        a = rng.integers(0, 2, n)
        b = np.where(rng.random(n) < 0.85, a, 1 - a)
        c = np.where(rng.random(n) < 0.85, b, 1 - b)
        d = make_dataset([a, b, c])
        g = learn_hill_climb(d, LearnerConfig(max_parents=2))
        assert markov_equivalent(g, Dag.from_arcs(3, [(0, 1), (1, 2)]))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        d = random_instance(rng, n_rows=1000)
        cfg = LearnerConfig(max_parents=3, restarts=4, seed=9)
        g1 = learn_hill_climb(d, cfg)
        g2 = learn_hill_climb(d, cfg)
        assert g1.arcs() == g2.arcs()

    def test_restarts_only_improve(self):
        rng = np.random.default_rng(9)
        d = random_instance(rng, n_rows=1500)
        k = 3
        s1 = total_bic(d, learn_hill_climb(d, LearnerConfig(max_parents=k)), k)
        s5 = total_bic(
            d, learn_hill_climb(d, LearnerConfig(max_parents=k, restarts=5)), k)
        assert s5 >= s1 - 1e-9

    def test_respects_parent_cap_and_acyclic(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            d = random_instance(rng, n_rows=800, n=4)
            g = learn_hill_climb(d, LearnerConfig(max_parents=2, restarts=2))
            assert all(len(g.parents(v)) <= 2 for v in range(4))
            g.topological_order()  # raises if cyclic


class TestConfig:
    # a cap of 2.5 let the climber give a node three parents and made exact
    # mode fail with a bare TypeError; restarts=1.5 failed inside range
    @pytest.mark.parametrize("field, value, mode", [
        ("max_parents", 2.5, "hill_climb"), ("max_parents", 2.5, "exact"),
        ("max_parents", True, "auto"), ("max_parents", "3", "auto"),
        ("restarts", 1.5, "hill_climb"), ("restarts", False, "auto"),
        ("seed", 0.5, "hill_climb"), ("seed", True, "auto"),
    ])
    def test_non_integers_are_named(self, field, value, mode):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            LearnerConfig(mode=mode, **{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = LearnerConfig(max_parents=np.int64(2), restarts=np.int32(2), seed=np.uint8(3))
        assert (cfg.max_parents, cfg.restarts, cfg.seed) == (2, 2, 3)


class TestDispatch:
    def test_auto_uses_exact_for_small_problems(self):
        rng = np.random.default_rng(11)
        d = random_instance(rng)
        g_auto = learn(d, LearnerConfig(max_parents=3, mode="auto"))
        g_exact = learn_exact(d, LearnerConfig(max_parents=3))
        assert g_auto.arcs() == g_exact.arcs()

    def test_auto_falls_back_to_climbing_on_wide_data(self):
        rng = np.random.default_rng(12)
        d = make_dataset([rng.integers(0, 2, 300) for _ in range(21)])
        g = learn(d, LearnerConfig(max_parents=2, mode="auto"))
        assert g.n_nodes == 21  # exact would have raised

    def test_explicit_modes(self):
        rng = np.random.default_rng(13)
        d = random_instance(rng, n_rows=500)
        ge = learn(d, LearnerConfig(max_parents=2, mode="exact"))
        gh = learn(d, LearnerConfig(max_parents=2, mode="hill_climb"))
        assert ge.arcs() == learn_exact(d, LearnerConfig(max_parents=2)).arcs()
        assert gh.arcs() == learn_hill_climb(d, LearnerConfig(max_parents=2)).arcs()

    def test_shared_context_keeps_scores_for_later_callers(self):
        rng = np.random.default_rng(14)
        d = random_instance(rng, n_rows=500)
        cfg = LearnerConfig(max_parents=2, mode="hill_climb")
        ctx = ScoreContext(d)
        assert learn(d, cfg, ctx).arcs() == learn(d, cfg).arcs()
        assert ctx._scores  # the climb's scores stay cached for the probes
        with pytest.raises(ValueError, match="another dataset"):
            learn(random_instance(rng, n_rows=500), cfg, ctx)

    def test_zero_rows_rejected_by_every_entry_point(self):
        d = make_dataset([np.zeros(0, dtype=np.int32)] * 3, cards=[2, 2, 2])
        for run in (learn_exact, learn_hill_climb, discover_confounders):
            with pytest.raises(ValueError, match="no rows"):
                run(d, LearnerConfig(max_parents=2))

    def test_zero_variables_give_the_empty_graph(self):
        d = Dataset([], np.zeros((5, 0), dtype=np.int64))
        assert build_local_scores(ScoreContext(d), 0).node_scores == []
        assert learn_exact(d).n_nodes == 0
        assert learn_hill_climb(d).n_nodes == 0
        for mode in ("exact", "hill_climb"):
            cfg = LearnerConfig(mode=mode)
            assert learn(d, cfg).n_nodes == 0
            result = discover_confounders(d, cfg)
            assert result.cpdag.to_json() == json.dumps(
                {"nodes": [], "directed": [], "undirected": [], "latents": []}, indent=2)
            assert result.latents == []


class TestMinimalIMap:
    def test_learnt_separations_hold_in_the_true_joint(self):
        """Every d-separation of the learnt DAG is a true independence.

        The learnt graph at large sample size must be an I-map of the
        generating distribution: check exact conditional mutual information
        (from the closed-form joint) under each asserted separation.
        """
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "ABCD"]
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        g = Dag.from_arcs(4, arcs, names=list("ABCD"))
        cpts = {
            0: np.array([[0.45, 0.55]]),
            1: np.array([[0.8, 0.2], [0.25, 0.75]]),
            2: np.array([[0.7, 0.3], [0.15, 0.85]]),
            3: np.array([[0.9, 0.1], [0.35, 0.65], [0.6, 0.4], [0.05, 0.95]]),
        }
        bn = DiscreteBayesNet(vs, g, cpts)
        d = sample(bn, 100_000, seed=21)
        learnt = learn_exact(d, LearnerConfig(max_parents=3))

        cards = [2, 2, 2, 2]
        cpt_lists = {v: cpts[v].tolist() for v in range(4)}
        joint = exact_joint(cards, arcs, cpt_lists)
        others = set(range(4))
        checked = 0
        for u in range(4):
            for v in range(u + 1, 4):
                rest = sorted(others - {u, v})
                for mask in range(2 ** len(rest)):
                    z = {rest[i] for i in range(len(rest)) if mask >> i & 1}
                    if d_separated(learnt, u, v, z):
                        cmi = mi_from_exact_joint(
                            joint, cards, u, v, tuple(sorted(z)))
                        assert cmi < 1e-3
                        checked += 1
        assert checked  # the learnt DAG asserts at least one independence


class TestOracleSelfChecks:
    def test_dag_counts(self):
        assert len(all_dags(2)) == 3
        assert len(all_dags(3)) == 25
        assert len(all_dags(4)) == 543

    def test_oracle_score_agrees_with_library(self):
        rng = np.random.default_rng(14)
        d = random_instance(rng, n_rows=700)
        rows = [tuple(r) for r in d.values]
        cards = [len(v.states) for v in d.variables]
        for arcs in [(), ((0, 1),), ((0, 1), (2, 3)), ((0, 1), (1, 2), (2, 3))]:
            g = Dag.from_arcs(4, list(arcs))
            assert dag_score(rows, cards, arcs, 4) == pytest.approx(
                total_bic(d, g, 3), abs=1e-8)
