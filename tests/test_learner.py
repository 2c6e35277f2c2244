"""Structure learners vs. exhaustive enumeration and known structures."""

import itertools
from pathlib import Path

import numpy as np
import pytest

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
from latentdag import learner
from latentdag.scoring import log_likelihood

from oracles import (
    all_dags,
    dag_score,
    exact_joint,
    exhaustive_best_dags,
    mi_from_exact_joint,
)


def make_dataset(columns, cards=None):
    arr = np.column_stack([np.asarray(c, dtype=np.int32) for c in columns])
    cards = cards or [int(arr[:, j].max()) + 1 for j in range(arr.shape[1])]
    vs = tuple(
        VariableMeta(f"V{j}", tuple(f"s{i}" for i in range(cards[j])))
        for j in range(arr.shape[1])
    )
    return Dataset(vs, arr)


def per_family_scores(d, k):
    """Every (x, S) with |S| <= k scored from its own tally: one bincount
    per family into the (configuration, child state) layout, through the
    kernel alone, with the table's penalty expression."""
    ctx = ScoreContext(d)
    cards = d.cardinalities
    n = d.n_variables
    out = [dict() for _ in range(n)]
    for x in range(n):
        others = [v for v in range(n) if v != x]
        for size in range(min(k, n - 1) + 1):
            for ps in itertools.combinations(others, size):
                code = np.zeros(d.n_rows, dtype=np.int64)
                n_cfg = 1
                for p in ps:
                    code = code * cards[p] + d.values[:, p]
                    n_cfg *= cards[p]
                counts = np.bincount(code * cards[x] + d.values[:, x],
                                     minlength=n_cfg * cards[x])
                ll = log_likelihood(counts.reshape(1, n_cfg, cards[x]).astype(float), axis=2)[0]
                out[x][sum(1 << p for p in ps)] = ll - 0.5 * ctx.log_n * (cards[x] - 1) * n_cfg
    return out


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
        for x in range(4):
            for mask, s in tbl.node_scores[x].items():
                z = tuple(i for i in range(4) if mask >> i & 1)
                assert s == pytest.approx(bic(ctx, x, z), abs=1e-9)

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
        assert tbl.node_scores == per_family_scores(d, k)

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
            assert tbl.node_scores == per_family_scores(d, k)

    def test_equals_per_family_tallies_when_batches_split(self, monkeypatch):
        # a small batch cap splits each prefix's children over several
        # bincounts, as long data or wide domains do under the real cap
        monkeypatch.setattr(learner, "_BATCH_ELEMENTS", 1000)
        rng = np.random.default_rng(309)
        cards = [2, 5, 3, 4, 2, 6]
        d = make_dataset([rng.integers(0, c, 400) for c in cards], cards)
        tbl = build_local_scores(ScoreContext(d), 3)
        assert tbl.node_scores == per_family_scores(d, 3)

    def test_equals_per_family_tallies_on_child(self):
        assets = Path(__file__).resolve().parents[1] / "assets"
        d = sample(bn_from_json((assets / "child.json").read_text()), 2000, seed=5)
        tbl = build_local_scores(ScoreContext(d), 4)
        assert sum(len(s) for s in tbl.node_scores) == 100_720
        assert tbl.node_scores == per_family_scores(d, 4)


class TestHillClimb:
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
