"""Generative models, confounder injection and benchmark evaluation."""

import json
import math
import multiprocessing

import numpy as np
import pytest

from latentdag import (
    CausalModel,
    Dag,
    DiscreteBayesNet,
    InjectionConfig,
    InjectionError,
    Pdag,
    VariableMeta,
    bn_from_json,
    bn_to_json,
    causal_model_to_bn,
    compare_confounders,
    compare_cpdags,
    cpdag_of,
    dependence_thresholds,
    inject_confounders,
    joint_marginal,
    mutual_information,
    recreate_latents,
    run_benchmark,
    sample,
)

from oracles import exact_joint, mi_from_exact_joint


def diamond_bn():
    """A -> B, A -> C, B -> D, C -> D with assorted binary tables."""
    vs = [VariableMeta(nm, ("s0", "s1")) for nm in "ABCD"]
    g = Dag.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)], names=list("ABCD"))
    cpts = {
        0: np.array([[0.45, 0.55]]),
        1: np.array([[0.8, 0.2], [0.25, 0.75]]),
        2: np.array([[0.7, 0.3], [0.15, 0.85]]),
        3: np.array([[0.9, 0.1], [0.35, 0.65], [0.6, 0.4], [0.05, 0.95]]),
    }
    return DiscreteBayesNet(vs, g, cpts)


def diamond_joint():
    bn = diamond_bn()
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    cpts = {v: bn.cpts[v].tolist() for v in range(4)}
    return exact_joint([2, 2, 2, 2], arcs, cpts)


def sibling_bn(hi_x=0.85, hi_y=0.75):
    """A -> X, A -> Y: one common-parent pair, conditionally independent."""
    vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AXY"]
    g = Dag.from_arcs(3, [(0, 1), (0, 2)], names=list("AXY"))
    cpts = {
        0: np.array([[0.5, 0.5]]),
        1: np.array([[hi_x, 1 - hi_x], [1 - hi_x, hi_x]]),
        2: np.array([[hi_y, 1 - hi_y], [1 - hi_y, hi_y]]),
    }
    return DiscreteBayesNet(vs, g, cpts)


class TestBayesNetModel:
    def test_json_round_trip(self):
        bn = diamond_bn()
        again = bn_from_json(bn_to_json(bn))
        assert [v.name for v in again.variables] == list("ABCD")
        assert again.dag.arcs() == bn.dag.arcs()
        for x in range(4):
            np.testing.assert_allclose(again.cpts[x], bn.cpts[x], atol=1e-15)

    def test_rows_must_normalise(self):
        vs = [VariableMeta("A", ("s0", "s1"))]
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteBayesNet(vs, Dag(1, ["A"]), {0: np.array([[0.5, 0.6]])})

    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan]],
                             ids=["negative", "nan", "inf", "all-nan"])
    def test_negative_or_non_finite_entries_are_named(self, row):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        with pytest.raises(ValueError, match="CPT of 'B' has a negative or non-finite entry"):
            DiscreteBayesNet(vs, g, {0: np.array([[0.5, 0.5]]), 1: np.array([[0.3, 0.7], row])})
        # the JSON reader builds the same model, so it rejects the same rows
        doc = json.loads(bn_to_json(diamond_bn()))
        doc["cpts"]["C"][2:] = row
        with pytest.raises(ValueError, match="CPT of 'C' has a negative or non-finite entry"):
            bn_from_json(json.dumps(doc))

    def test_cpt_shape_checked(self):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        with pytest.raises(ValueError, match="shape"):
            DiscreteBayesNet(vs, g, {
                0: np.array([[0.5, 0.5]]),
                1: np.array([[0.5, 0.5]]),  # needs 2 rows (one per A state)
            })

    def test_json_arc_to_undeclared_variable(self):
        doc = json.loads(bn_to_json(diamond_bn()))
        doc["arcs"].append(["A", "NOPE"])
        with pytest.raises(ValueError, match="'arcs' names undeclared variable 'NOPE'"):
            bn_from_json(json.dumps(doc))

    def test_json_cpt_of_undeclared_variable(self):
        doc = json.loads(bn_to_json(diamond_bn()))
        doc["cpts"]["GHOST"] = [0.5, 0.5]
        with pytest.raises(ValueError, match="'cpts' names undeclared variable 'GHOST'"):
            bn_from_json(json.dumps(doc))

    def test_json_variable_without_cpt(self):
        doc = json.loads(bn_to_json(diamond_bn()))
        del doc["cpts"]["C"]
        with pytest.raises(ValueError, match="variable 'C' has no entry in 'cpts'"):
            bn_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["variables", "arcs", "cpts"])
    def test_json_missing_top_level_key(self, key):
        doc = json.loads(bn_to_json(diamond_bn()))
        del doc[key]
        with pytest.raises(ValueError, match=f"network JSON has no '{key}' key"):
            bn_from_json(json.dumps(doc))

    def test_json_variable_without_states(self):
        doc = json.loads(bn_to_json(diamond_bn()))
        del doc["variables"][1]["states"]
        with pytest.raises(ValueError, match="variable 'B' has no 'states' field"):
            bn_from_json(json.dumps(doc))

    def test_json_variable_without_name(self):
        doc = json.loads(bn_to_json(diamond_bn()))
        del doc["variables"][2]["name"]
        with pytest.raises(ValueError, match="variable number 2 has no 'name' field"):
            bn_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: 5, "network JSON must be an object, not int"),
        (lambda doc: {**doc, "arcs": 3}, "network JSON's 'arcs' must be a list, not int"),
        (lambda doc: {**doc, "cpts": [0.5, 0.5]}, "network JSON's 'cpts' must be a dict, not list"),
        (lambda doc: {**doc, "arcs": [["A"]]}, r"'arcs' entry \['A'\] is not a \[from, to\] pair"),
        (lambda doc: {**doc, "variables": "AB"},
         "network JSON's 'variables' must be a list, not str"),
        (lambda doc: {**doc, "variables": ["A"]}, "variable number 0 is not an object: 'A'"),
        (lambda doc: {**doc, "arcs": [[["A"], "B"]]},
         r"'arcs' entry \[\['A'\], 'B'\] is not a \[from, to\] pair of names"),
        (lambda doc: {**doc, "variables": [{"name": "A", "states": 3}]},
         "variable 'A' has 'states' that are not a list of labels: 3"),
        (lambda doc: {**doc, "variables": [{"name": "A", "states": [["x"], ["y"]]}]},
         r"variable 'A' has 'states' that are not a list of labels: \[\['x'\], \['y'\]\]"),
        (lambda doc: {**doc, "variables": [{"name": ["A"], "states": ["x", "y"]}]},
         r"variable number 0 has a 'name' that is not a string: \['A'\]"),
        (lambda doc: {**doc, "cpts": {**doc["cpts"], "A": {"p": 1}}},
         "CPT of 'A' is not a flat list of numbers: {'p': 1}"),
        (lambda doc: {**doc, "cpts": {**doc["cpts"], "A": "0.45 0.55"}},
         "CPT of 'A' is not a flat list of numbers: '0.45 0.55'"),
        (lambda doc: {**doc, "cpts": {**doc["cpts"], "A": [True, False]}},
         r"CPT of 'A' is not a flat list of numbers: \[True, False\]"),
        (lambda doc: {**doc, "cpts": {**doc["cpts"], "A": [0.45, "0.55"]}},
         r"CPT of 'A' is not a flat list of numbers: \[0.45, '0.55'\]"),
        (lambda doc: {**doc, "cpts": {**doc["cpts"], "A": [[0.45, 0.55]]}},
         r"CPT of 'A' is not a flat list of numbers: \[\[0.45, 0.55\]\]"),
        (lambda doc: {**doc, "variables": [*doc["variables"], doc["variables"][1]]},
         "duplicate node name 'B'"),
    ], ids=["not-an-object", "arcs-not-a-list", "cpts-not-an-object", "arc-not-a-pair",
            "variables-not-a-list", "variable-not-an-object", "arc-name-not-a-string",
            "states-not-a-list", "state-not-a-label", "name-not-a-string",
            "cpt-an-object", "cpt-a-string", "cpt-of-booleans", "cpt-entry-a-string",
            "cpt-nested", "variable-repeated"])
    def test_json_of_the_wrong_shape_is_named(self, edit, message):
        doc = edit(json.loads(bn_to_json(diamond_bn())))
        with pytest.raises(ValueError, match=message):
            bn_from_json(json.dumps(doc))

    def test_missing_cpt_is_named_by_the_model(self):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        with pytest.raises(ValueError, match="variable 'A' has no entry in 'cpts'"):
            DiscreteBayesNet(vs, Dag(2, ["A", "B"]), {})

    def test_copy_is_deep(self):
        bn = diamond_bn()
        c = bn.copy()
        c.cpts[0][0, 0] = 0.999
        assert bn.cpts[0][0, 0] == pytest.approx(0.45)


class TestSampling:
    def test_deterministic_per_seed(self):
        bn = diamond_bn()
        a = sample(bn, 1000, seed=3)
        b = sample(bn, 1000, seed=3)
        c = sample(bn, 1000, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_root_frequencies_match(self):
        bn = diamond_bn()
        d = sample(bn, 100_000, seed=5)
        freq = np.bincount(d.values[:, 0], minlength=2) / d.n_rows
        np.testing.assert_allclose(freq, [0.45, 0.55], atol=0.02)

    def test_deterministic_mechanism_propagates(self):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        bn = DiscreteBayesNet(vs, g, {
            0: np.array([[0.3, 0.7]]),
            1: np.array([[1.0, 0.0], [0.0, 1.0]]),  # B copies A exactly
        })
        d = sample(bn, 5000, seed=6)
        assert np.array_equal(d.values[:, 0], d.values[:, 1])

    def test_negative_row_count_is_named(self):
        with pytest.raises(ValueError, match="row count must be >= 0, got -1"):
            sample(diamond_bn(), -1)
        assert sample(diamond_bn(), 0).n_rows == 0

    @pytest.mark.parametrize("kw, message", [
        ({"n": 1.5}, "row count must be an integer, got 1.5"),
        ({"n": True}, "row count must be an integer, got True"),
        ({"n": 10, "seed": 0.5}, "seed must be an integer, got 0.5"),
        ({"n": 10, "seed": False}, "seed must be an integer, got False"),
    ])
    def test_non_integer_arguments_are_named(self, kw, message):
        with pytest.raises(ValueError, match=message):
            sample(diamond_bn(), **kw)
        assert sample(diamond_bn(), np.int64(10), seed=np.int64(3)).n_rows == 10

    def test_empirical_conditionals_approach_the_tables(self):
        bn = diamond_bn()
        d = sample(bn, 100_000, seed=7)
        a, b = d.values[:, 0], d.values[:, 1]
        for pa in (0, 1):
            rows = b[a == pa]
            freq = np.bincount(rows, minlength=2) / rows.size
            np.testing.assert_allclose(freq, bn.cpts[1][pa], atol=0.02)


class TestJointMarginal:
    def test_matches_exhaustive_enumeration(self):
        bn = diamond_bn()
        joint = diamond_joint()
        for targets in [(0,), (3,), (0, 3), (1, 2), (0, 1, 2, 3), (2, 0)]:
            got = joint_marginal(bn, targets)
            want = np.zeros([2] * len(targets))
            for cfg, p in joint.items():
                want[tuple(cfg[t] for t in targets)] += p
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_targets_are_named(self):
        with pytest.raises(ValueError, match="node id 0 is named twice"):
            joint_marginal(diamond_bn(), (0, 0))
        with pytest.raises(KeyError, match="node 4 out of range"):
            joint_marginal(diamond_bn(), (1, 4))


class TestMutualInformation:
    def test_exact_route_matches_oracle(self):
        bn = diamond_bn()
        joint = diamond_joint()
        cards = [2, 2, 2, 2]
        for x, y, given in [(0, 1, ()), (0, 3, ()), (1, 2, ()), (1, 2, (0,)),
                            (0, 3, (1, 2)), (2, 3, (0,))]:
            got = mutual_information(bn, x, y, given)
            want = mi_from_exact_joint(joint, cards, x, y, given)
            assert got == pytest.approx(want, abs=1e-9)

    def test_conditionally_independent_pair_scores_zero(self):
        bn = sibling_bn()
        assert mutual_information(bn, 1, 2, (0,)) == pytest.approx(0.0, abs=1e-12)

    def test_big_sparse_net_still_takes_the_exact_route(self):
        # 24 binary nodes in a chain: the full joint has 2^24 cells but the
        # elimination never builds a factor beyond a handful of cells, so
        # the answer must be exact, not sampled
        from latentdag.bench import EXACT_JOINT_CEILING, _ancestral, _eliminate
        bn = chain_bn(24, hi=0.85)
        assert 2 ** bn.n_nodes > EXACT_JOINT_CEILING
        # nodes 2..23 descend from the targets: none takes part, and the
        # largest factor is the 4-cell table of node 1
        assert _eliminate(bn, (0, 1), ceiling=4).shape == (2, 2)
        assert _eliminate(bn, (0, 1), ceiling=3) is None
        assert _ancestral(bn, (5,)) == [0, 1, 2, 3, 4, 5]
        h15 = -(0.15 * np.log(0.15) + 0.85 * np.log(0.85))
        assert mutual_information(bn, 0, 1) == pytest.approx(
            np.log(2) - h15, abs=1e-12)

    def test_pruned_elimination_matches_oracle_on_random_nets(self):
        from latentdag.bench import _ancestral
        rng = np.random.default_rng(11)
        n = 8
        pruned = 0
        for _ in range(5):
            cards = [int(c) for c in rng.integers(2, 4, n)]
            arcs = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3]
            bn = random_bn(cards, arcs, rng)
            joint = exact_joint(cards, arcs, {v: bn.cpts[v].tolist() for v in range(n)})
            for _ in range(6):
                x, y, *zs = (int(v) for v in rng.choice(n, size=2 + int(rng.integers(0, 3)),
                                                        replace=False))
                pruned += len(_ancestral(bn, (x, y, *zs))) < n
                got = mutual_information(bn, x, y, zs)
                want = mi_from_exact_joint(joint, cards, x, y, zs)
                assert got == pytest.approx(want, abs=1e-12)
        # the seed gives queries whose ancestral set leaves nodes out
        assert pruned >= 20

    def test_bad_ids_are_named_before_elimination(self):
        bn = diamond_bn()
        with pytest.raises(KeyError, match="node 99 out of range"):
            mutual_information(bn, 0, 99)
        with pytest.raises(KeyError, match="node -1 out of range"):
            mutual_information(bn, 0, 1, (-1,))
        with pytest.raises(ValueError, match="node id 1 is named twice"):
            mutual_information(bn, 1, 1)
        with pytest.raises(ValueError, match="node id 2 is named twice"):
            mutual_information(bn, 0, 2, (2, 3))

    def test_plugin_route_past_the_factor_ceiling(self, monkeypatch):
        import latentdag.bench as bench_mod
        monkeypatch.setattr(bench_mod, "EXACT_JOINT_CEILING", 3)
        bn = chain_bn(24, hi=0.85)
        got = mutual_information(bn, 0, 1)
        h15 = -(0.15 * np.log(0.15) + 0.85 * np.log(0.85))
        assert got == pytest.approx(np.log(2) - h15, abs=0.01)
        assert got != pytest.approx(np.log(2) - h15, abs=1e-12)  # sampled
        # fixed sampling seed: the estimate is reproducible
        assert mutual_information(bn, 0, 1) == got


class TestDependenceThresholds:
    def test_single_sibling_pair_closed_form(self):
        bn = sibling_bn()
        thr_mi, thr_cmi = dependence_thresholds(bn)
        joint = exact_joint([2, 2, 2], [(0, 1), (0, 2)],
                            {v: bn.cpts[v].tolist() for v in range(3)})
        assert thr_mi == pytest.approx(
            mi_from_exact_joint(joint, [2, 2, 2], 1, 2), abs=1e-9)
        assert thr_cmi == pytest.approx(0.0, abs=1e-12)

    def test_no_common_parent_pairs(self):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        bn = DiscreteBayesNet(vs, g, {
            0: np.array([[0.5, 0.5]]),
            1: np.array([[0.8, 0.2], [0.2, 0.8]]),
        })
        assert dependence_thresholds(bn) == (0.0, 0.0)


def random_bn(cards, arcs, rng):
    """Network over ``arcs`` whose CPT rows are Dirichlet(1) draws."""
    n = len(cards)
    vs = [VariableMeta(f"V{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)]
    g = Dag.from_arcs(n, arcs)
    cpts = {}
    for x in range(n):
        n_cfg = math.prod(cards[p] for p in g.parents(x))
        cpts[x] = rng.dirichlet(np.ones(cards[x]), size=n_cfg)
    return DiscreteBayesNet(vs, g, cpts)


def chain_bn(n=6, hi=0.8):
    vs = [VariableMeta(f"V{i}", ("s0", "s1")) for i in range(n)]
    g = Dag.from_arcs(n, [(i, i + 1) for i in range(n - 1)])
    cpts = {0: np.array([[0.5, 0.5]])}
    for i in range(1, n):
        cpts[i] = np.array([[hi, 1 - hi], [1 - hi, hi]])
    return DiscreteBayesNet(vs, g, cpts)


class TestInjection:
    def test_shape_and_bookkeeping(self):
        bn = chain_bn()
        cfg = InjectionConfig(n_confounders=2, latent_cardinality=3, seed=1)
        injected, truth = inject_confounders(bn, cfg)
        assert injected.n_nodes == bn.n_nodes + 2
        assert [name for name, _ in truth] == ["L1", "L2"]
        children = set()
        for name, (a, b) in truth:
            lid = injected.id_of(name)
            assert injected.cardinality(lid) == 3
            np.testing.assert_allclose(injected.cpts[lid], np.full((1, 3), 1 / 3))
            ia, ib = injected.id_of(a), injected.id_of(b)
            assert injected.dag.has_arc(lid, ia)
            assert injected.dag.has_arc(lid, ib)
            children.update((ia, ib))
            # eligibility judged on the original graph
            for c in (ia, ib):
                assert 1 <= len(bn.dag.parents(c)) <= 2
        assert len(children) == 4  # no child reused across confounders

    def test_zero_confounders_is_identity(self):
        bn = chain_bn()
        injected, truth = inject_confounders(bn, InjectionConfig(n_confounders=0))
        assert truth == []
        assert injected.dag.arcs() == bn.dag.arcs()
        for x in range(bn.n_nodes):
            np.testing.assert_allclose(injected.cpts[x], bn.cpts[x])

    def test_deterministic_for_seed(self):
        bn = chain_bn()
        cfg = InjectionConfig(n_confounders=2, seed=9)
        _, t1 = inject_confounders(bn, cfg)
        _, t2 = inject_confounders(bn, cfg)
        assert t1 == t2

    def test_thresholds_computed_once_per_network(self, monkeypatch):
        from latentdag import bench
        thresholds, calls = bench.dependence_thresholds, []

        def counted(net):
            calls.append(net)
            return thresholds(net)

        monkeypatch.setattr(bench, "dependence_thresholds", counted)
        monkeypatch.setattr(bench, "_last_thresholds", None)
        bn = chain_bn()
        cfg = InjectionConfig(n_confounders=1, seed=1)
        want = inject_confounders(bn, cfg)[1]
        # an equal network, even another copy, reuses them
        assert inject_confounders(bn.copy(), cfg)[1] == want
        assert len(calls) == 1
        # the same shapes with other table entries do not
        bn.cpts[2] = bn.cpts[2][::-1].copy()
        inject_confounders(bn, cfg)
        assert len(calls) == 2

    def test_admissibility_holds_post_hoc(self):
        bn = chain_bn()
        thr_mi, thr_cmi = dependence_thresholds(bn)
        injected, truth = inject_confounders(
            bn, InjectionConfig(n_confounders=2, seed=2))
        n_obs = bn.n_nodes
        for name, (a, b) in truth:
            ia, ib = injected.id_of(a), injected.id_of(b)
            given = tuple(sorted(
                {p for p in injected.dag.parents(ia) if p < n_obs}
                | {p for p in injected.dag.parents(ib) if p < n_obs}
            ))
            assert mutual_information(injected, ia, ib) > thr_mi
            assert mutual_information(injected, ia, ib, given) > thr_cmi

    def test_unreachable_thresholds_raise(self):
        # deterministic copies make the sibling MI ln 2; the bounded mixture
        # family cannot reach it, so every draw is rejected
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AXY"]
        g = Dag.from_arcs(3, [(0, 1), (0, 2)], names=list("AXY"))
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        bn = DiscreteBayesNet(vs, g, {
            0: np.array([[0.5, 0.5]]), 1: eye.copy(), 2: eye.copy(),
        })
        with pytest.raises(InjectionError, match="no admissible tables"):
            inject_confounders(bn, InjectionConfig(n_confounders=1, seed=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InjectionConfig(n_confounders=-1)
        with pytest.raises(ValueError):
            InjectionConfig(latent_cardinality=1)

    @pytest.mark.parametrize("kw", [{"n_confounders": 1.5}, {"latent_cardinality": 2.0},
                                    {"seed": 0.5}, {"seed": True}])
    def test_non_integer_config_rejected(self, kw):
        (name, value), = kw.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            InjectionConfig(**kw)


class TestCompareConfounders:
    def test_mixed_hits_and_misses(self):
        truth = [("L1", ("A", "B")), ("L2", ("C", "D"))]
        learned = [("Lx", ("B", "A")), ("Ly", ("C", "E"))]
        r = compare_confounders(truth, learned)
        assert (r.ok, r.not_ok) == (1, 1)
        assert r.precision == pytest.approx(0.5)
        assert r.recall == pytest.approx(0.5)
        assert r.f1 == pytest.approx(0.5)

    def test_duplicate_claim_counts_once(self):
        truth = [("L1", ("A", "B"))]
        learned = [("Lx", ("A", "B")), ("Ly", ("A", "B"))]
        r = compare_confounders(truth, learned)
        assert (r.ok, r.not_ok) == (1, 1)

    def test_empty_cases(self):
        r = compare_confounders([("L1", ("A", "B"))], [])
        assert (r.ok, r.not_ok) == (0, 0)
        assert r.precision is None
        assert r.recall == 0.0
        r2 = compare_confounders([], [("Lx", ("A", "B"))])
        assert r2.recall is None
        assert r2.precision == 0.0

    def test_accepts_discovery_result(self):
        g = Dag.from_arcs(4, [(0, 2), (2, 3), (0, 3), (1, 3)],
                          names=["C", "D", "A", "B"])
        from test_confounder import accepted_classification
        from latentdag import Triangle
        c = accepted_classification(Triangle(0, 2, 3), children=(2, 3), outside=0)
        res = recreate_latents(g, [c])
        r = compare_confounders([("L1", ("A", "B"))], res)
        assert (r.ok, r.not_ok) == (1, 0)


class TestCompareCpdags:
    def test_identical_graphs(self):
        g = Dag.from_arcs(4, [(0, 1), (1, 3), (2, 3)])
        r = compare_cpdags(cpdag_of(g), cpdag_of(g))
        assert r.cpdag_ok == 3
        assert (r.miss, r.rev, r.type_err, r.xs) == (0, 0, 0, 0)

    def test_reversal_miss_and_excess(self):
        truth = cpdag_of(Dag.from_arcs(3, [(0, 1), (2, 1)], names=list("ABC")))
        learned = cpdag_of(Dag.from_arcs(3, [(1, 0), (2, 0)], names=list("ABC")))
        r = compare_cpdags(truth, learned)
        assert r.rev == 1      # A-B arc flipped
        assert r.miss == 1     # C -> B vanished
        assert r.xs == 1       # C -> A appeared
        assert r.cpdag_ok == 0

    def test_orientation_vs_undirected_is_a_type_error(self):
        truth = cpdag_of(Dag.from_arcs(3, [(0, 1), (1, 2)], names=list("ABC")))
        learned = cpdag_of(Dag.from_arcs(3, [(0, 1), (2, 1)], names=list("ABC")))
        r = compare_cpdags(truth, learned)
        assert r.type_err == 2  # both chain links are undirected in truth
        assert r.miss == 0 and r.xs == 0

    def test_swap_symmetry(self):
        t = cpdag_of(Dag.from_arcs(4, [(0, 1), (1, 3), (2, 3)], names=list("ABCD")))
        l = cpdag_of(Dag.from_arcs(4, [(0, 1), (0, 3), (2, 3)], names=list("ABCD")))
        r1 = compare_cpdags(t, l)
        r2 = compare_cpdags(l, t)
        assert r1.cpdag_ok == r2.cpdag_ok
        assert r1.rev == r2.rev
        assert r1.type_err == r2.type_err
        assert (r1.miss, r1.xs) == (r2.xs, r2.miss)

    def test_latents_align_by_child_pair_not_name(self):
        def pdag_with_latent(latent_name):
            g = Dag.from_arcs(3, [(2, 0), (2, 1)],
                              names=["A", "B", latent_name])
            p = cpdag_of(g)
            p.latents = [(latent_name, (0, 1))]
            return p

        r = compare_cpdags(pdag_with_latent("L1"), pdag_with_latent("Lfoo"))
        assert r.cpdag_ok == 2
        assert (r.miss, r.rev, r.type_err, r.xs) == (0, 0, 0, 0)

    def test_unmatched_latent_links_become_miss_and_excess(self):
        g1 = Dag.from_arcs(3, [(2, 0), (2, 1)], names=["A", "B", "L1"])
        p1 = cpdag_of(g1)
        p1.latents = [("L1", (0, 1))]
        p2 = Pdag(2, names=["A", "B"])
        r = compare_cpdags(p1, p2)
        assert r.miss == 2 and r.xs == 0

    def test_two_latents_over_one_pair_keep_their_own_links(self):
        def pdag_with_latents(*names):
            g = Dag.from_arcs(2 + len(names), [(2 + i, c) for i in range(len(names))
                                               for c in (0, 1)],
                              names=["A", "B", *names])
            p = cpdag_of(g)
            p.latents = [(name, (0, 1)) for name in names]
            return p

        truth = pdag_with_latents("L1", "L2")
        r = compare_cpdags(truth, pdag_with_latents())
        assert (r.cpdag_ok, r.miss, r.xs) == (0, 4, 0)
        r = compare_cpdags(truth, pdag_with_latents("H1", "H2"))
        assert r.cpdag_ok == 4
        assert (r.miss, r.rev, r.type_err, r.xs) == (0, 0, 0, 0)

    def test_observed_mismatch_rejected(self):
        p1 = Pdag(2, names=["A", "B"])
        p2 = Pdag(2, names=["A", "C"])
        with pytest.raises(ValueError, match="observed"):
            compare_cpdags(p1, p2)


class TestCausalModel:
    def test_dirac_noise_reduces_to_mechanism(self):
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        cm = CausalModel(
            variables=vs, dag=g,
            disturbance={0: np.array([0.3, 0.7]), 1: np.array([1.0])},
            mechanism={
                0: np.array([[1, 0], [0, 1]], dtype=float),
                1: np.array([[0, 1], [1, 0]], dtype=float),  # B = not A
            },
        )
        bn = causal_model_to_bn(cm)
        np.testing.assert_allclose(bn.cpts[0], [[0.3, 0.7]])
        np.testing.assert_allclose(bn.cpts[1], [[0, 1], [1, 0]])

    def test_noise_marginalised_by_expansion(self):
        # B = A xor noise, noise ~ Ber(0.2): P(B != A) = 0.2
        vs = [VariableMeta(nm, ("s0", "s1")) for nm in "AB"]
        g = Dag.from_arcs(2, [(0, 1)], names=list("AB"))
        mech_b = np.array([
            [1, 0],  # A=0, xi=0 -> 0
            [0, 1],  # A=0, xi=1 -> 1
            [0, 1],  # A=1, xi=0 -> 1
            [1, 0],  # A=1, xi=1 -> 0
        ], dtype=float)
        cm = CausalModel(
            variables=vs, dag=g,
            disturbance={0: np.array([0.5, 0.5]), 1: np.array([0.8, 0.2])},
            mechanism={0: np.array([[1, 0], [0, 1]], dtype=float), 1: mech_b},
        )
        bn = causal_model_to_bn(cm)
        np.testing.assert_allclose(bn.cpts[1], [[0.8, 0.2], [0.2, 0.8]])
        # and the mechanism table re-expands to the same joint it came from
        d = sample(bn, 50_000, seed=8)
        flips = (d.values[:, 0] != d.values[:, 1]).mean()
        assert flips == pytest.approx(0.2, abs=0.01)

    def test_validation(self):
        vs = [VariableMeta("A", ("s0", "s1"))]
        g = Dag(1, ["A"])
        with pytest.raises(ValueError, match="sum"):
            CausalModel(vs, g, {0: np.array([0.5, 0.6])},
                        {0: np.array([[1, 0], [0, 1]], dtype=float)})
        with pytest.raises(ValueError, match="0/1"):
            CausalModel(vs, g, {0: np.array([0.5, 0.5])},
                        {0: np.array([[0.5, 0.5], [0, 1]])})
        with pytest.raises(ValueError, match="shape"):
            CausalModel(vs, g, {0: np.array([0.5, 0.5])},
                        {0: np.array([[1, 0]], dtype=float)})
        with pytest.raises(ValueError, match="one 1 per row"):
            CausalModel(vs, g, {0: np.array([0.5, 0.5])},
                        {0: np.array([[1, 1], [0, 1]], dtype=float)})

    @pytest.mark.parametrize("pxi", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]],
                             ids=["negative", "nan", "inf"])
    def test_negative_or_non_finite_disturbance_is_named(self, pxi):
        vs = [VariableMeta("A", ("s0", "s1"))]
        with pytest.raises(ValueError, match="disturbance of node 0 has a negative or non-finite"):
            CausalModel(vs, Dag(1, ["A"]), {0: np.array(pxi)},
                        {0: np.array([[1, 0], [0, 1]], dtype=float)})


class TestRunBenchmark:
    def small_net(self):
        """Seven binary nodes, two sibling pairs, strong channels."""
        vs = [VariableMeta(f"V{i}", ("s0", "s1")) for i in range(7)]
        arcs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        g = Dag.from_arcs(7, arcs)
        cpts = {0: np.array([[0.5, 0.5]])}
        for i in range(1, 7):
            cpts[i] = np.array([[0.8, 0.2], [0.2, 0.8]])
        return DiscreteBayesNet(vs, g, cpts)

    def test_table_shape_and_determinism(self):
        from latentdag import LearnerConfig
        bn = self.small_net()
        inj = InjectionConfig(n_confounders=1, seed=5)
        cfg = LearnerConfig(max_parents=3)
        csv1, fail1, timing1 = run_benchmark(bn, [500, 2000], 2, inj, cfg)
        csv2, fail2, _ = run_benchmark(bn, [500, 2000], 2, inj, cfg)
        assert csv1 == csv2  # byte-identical reruns
        assert fail1 == fail2
        lines = csv1.strip().split("\n")
        assert lines[0] == "size,ok,nok,precision,recall,f1,cpdag_ok,miss,rev,type,xs"
        assert len(lines) == 3
        assert lines[1].startswith("500,") and lines[2].startswith("2000,")
        assert timing1 and all("mean learn" in t for t in timing1)

    def test_zero_confounders_gives_na_recall(self):
        from latentdag import LearnerConfig
        bn = self.small_net()
        csv, failures, _ = run_benchmark(
            bn, [400], 1, InjectionConfig(n_confounders=0, seed=1),
            LearnerConfig(max_parents=3))
        assert failures == []
        row = csv.strip().split("\n")[1].split(",")
        recall = row[4]
        assert recall == "na"

    @pytest.mark.parametrize("kw, message", [
        ({"reps": 0}, "reps must be >= 1"),
        ({"reps": -4}, "reps must be >= 1"),
        ({"h": -3}, "h must be >= 0"),
        ({"alpha": 7.0}, "alpha must lie strictly between 0 and 1"),
        ({"alpha": 0.0}, "alpha must lie strictly between 0 and 1"),
        ({"reps": 1.5}, "reps must be an integer, got 1.5"),
        ({"reps": True}, "reps must be an integer, got True"),
        ({"h": 2.5}, "h must be an integer, got 2.5"),
    ])
    def test_bad_options_rejected_before_injecting(self, monkeypatch, kw, message):
        from latentdag import LearnerConfig, bench

        def no_injection(*args):
            raise AssertionError("injected before checking the options")

        monkeypatch.setattr(bench, "inject_confounders", no_injection)
        with pytest.raises(ValueError, match=message):
            run_benchmark(self.small_net(), [400], injection=InjectionConfig(seed=1),
                          learner=LearnerConfig(max_parents=3), **{"reps": 1, **kw})

    @pytest.mark.parametrize("sizes, bad", [([-5], -5), ([200, 0], 0)])
    def test_bad_sizes_rejected_before_injecting(self, monkeypatch, sizes, bad):
        from latentdag import LearnerConfig, bench

        def no_injection(*args):
            raise AssertionError("injected before checking the sizes")

        monkeypatch.setattr(bench, "inject_confounders", no_injection)
        with pytest.raises(ValueError, match=f"dataset size {bad} must be >= 1"):
            run_benchmark(self.small_net(), sizes, 1, InjectionConfig(seed=1),
                          LearnerConfig(max_parents=3))

    @pytest.mark.parametrize("size", [200.5, True])
    def test_non_integer_size_rejected_before_injecting(self, monkeypatch, size):
        from latentdag import LearnerConfig, bench

        def no_injection(*args):
            raise AssertionError("injected before checking the sizes")

        monkeypatch.setattr(bench, "inject_confounders", no_injection)
        with pytest.raises(ValueError, match=f"dataset size must be an integer, got {size!r}"):
            run_benchmark(self.small_net(), [400, size], 1, InjectionConfig(seed=1),
                          LearnerConfig(max_parents=3))

    def test_one_failed_injection_leaves_the_others_in_the_table(self, monkeypatch):
        from latentdag import LearnerConfig, bench, learner
        bn = self.small_net()
        inj = InjectionConfig(n_confounders=1, seed=5)
        cfg = LearnerConfig(max_parents=3)
        kept = [bench._run_rep(bn, [500], inj, cfg, bench.DEFAULT_H, bench.DEFAULT_ALPHA, r)[0]
                for r in (0, 2)]
        # one CPU: the repetitions run in this process, under the patch below
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 1)
        inject = bench.inject_confounders

        def fail_repetition_1(net, cfg_):
            if cfg_.seed == inj.seed + 1_000_003 * 2:
                raise InjectionError("no admissible tables")
            return inject(net, cfg_)

        monkeypatch.setattr(bench, "inject_confounders", fail_repetition_1)
        csv, failures, timing = run_benchmark(bn, [500], 3, inj, cfg)
        assert failures == ["repetition 1: injection failed: no admissible tables"]
        assert len(timing) == 1 and timing[0].endswith("over 2 repetitions")
        header, row = csv.split("\n")
        got = dict(zip(header.split(","), row.split(",")))
        # means over repetitions 0 and 2 only
        for key in ("ok", "nok", "cpdag_ok", "miss", "rev", "type", "xs"):
            assert got[key] == f"{(kept[0][key] + kept[1][key]) / 2:.4f}", key

    @staticmethod
    def net20():
        from pathlib import Path

        from latentdag import bn_from_json
        net = Path(__file__).resolve().parent.parent / "assets" / "net20.json"
        return bn_from_json(net.read_text(encoding="utf-8"))

    def test_parallel_run_matches_serial(self, monkeypatch):
        from latentdag import LearnerConfig, learner
        bn = self.net20()
        inj = InjectionConfig(seed=0)
        for mode in ("hill_climb", "exact"):
            cfg = LearnerConfig(mode=mode)
            runs = []
            # one CPU runs the repetitions here, two in a pool of two
            for cpus in (1, 2):
                monkeypatch.setattr(learner, "_usable_cpus", lambda cpus=cpus: cpus)
                runs.append(run_benchmark(bn, [1000], 2, inj, cfg)[:2])
            assert "\n1000," in runs[0][0]  # a scored row, not just the header
            assert runs[1] == runs[0]

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="pool workers inherit the spies only when forked")
    def test_pool_workers_build_their_tables_serially(self, monkeypatch, tmp_path):
        import os

        from latentdag import (LearnerConfig, ScoreContext, build_local_scores, learn_exact,
                               learner, sample)
        bn = self.net20()
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
        # the DP's own size floor cannot be what keeps it in one process
        monkeypatch.setattr(learner, "_FORK_MIN_DP_NODES", 0)
        log = tmp_path / "calls"
        workers, fork_shares = learner._workers, learner._fork_shares

        def note(call):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {call}\n")

        def workers_spy(*args):
            got = workers(*args)
            note(f"workers {got[0]} {got[1]}")
            return got

        def fork_shares_spy(run, shares, stage, unit):
            if len(shares) > 1:  # a single share runs in the calling process
                note(f"fork {stage} {len(shares)}")
            fork_shares(run, shares, stage, unit)

        monkeypatch.setattr(learner, "_workers", workers_spy)
        monkeypatch.setattr(learner, "_fork_shares", fork_shares_spy)
        csv, _, _ = run_benchmark(bn, [1000], 2, InjectionConfig(seed=0),
                                  LearnerConfig(mode="exact"))
        assert "\n1000," in csv
        # per repetition, in a pool worker, the rule is checked once for each
        # pass of the table and once for the DP, and nothing forks there:
        # neither the table nor the DP
        calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert [call for _, call in calls] == ["workers 1 1"] * 6
        assert str(os.getpid()) not in {pid for pid, _ in calls}
        # in this process each pass of the same table forks two shares (the
        # second tallies 2,229 subsets and scores 2,738 families, 4,967
        # units of work, above the floor), and learning forks its table's
        # passes and its DP into two each
        log.unlink()
        d = sample(bn, 1000, seed=0)
        build_local_scores(ScoreContext(d), 4)
        table = ["workers 2 2", "fork score table 2"] * 2
        assert log.read_text() == "".join(f"{os.getpid()} {call}\n" for call in table)
        log.unlink()
        learn_exact(d)
        assert [line.split(" ", 1)[1] for line in log.read_text().splitlines()] == [
            *table, "workers 2 2", "fork DP layer 2"]

    def test_grid_inside_a_pool_worker_runs_in_process(self, monkeypatch):
        from latentdag import LearnerConfig, learner
        args = (self.net20(), [200], 2, InjectionConfig(seed=0), LearnerConfig(mode="hill_climb"))
        # two CPUs: at the top level the grid would take a pool of two, but
        # a pool worker is not allowed children of its own
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
        with multiprocessing.Pool(1) as pool:
            got = pool.apply_async(run_benchmark, args).get(timeout=120)
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 1)
        want = run_benchmark(*args)
        assert "\n200," in want[0]
        assert got[:2] == want[:2]

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="pool workers inherit the patched injection only when forked")
    def test_failed_repetition_stops_the_grid(self, monkeypatch, tmp_path):
        import time

        from latentdag import LearnerConfig, bench, learner
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
        inj = InjectionConfig(seed=0)

        def fail_first_or_sleep(net, cfg_):
            rep = cfg_.seed // 1_000_003 - 1
            if rep == 0:
                raise ValueError("repetition 0 failed")
            (tmp_path / f"rep{rep}").write_text("")
            time.sleep(1)
            raise InjectionError("slept")

        monkeypatch.setattr(bench, "inject_confounders", fail_first_or_sleep)
        with pytest.raises(ValueError, match="repetition 0 failed"):
            run_benchmark(self.small_net(), [200], 8, inj, LearnerConfig(max_parents=3))
        # the pool stops while the first repetitions a worker took still sleep
        assert len(list(tmp_path.iterdir())) < 4
        assert multiprocessing.active_children() == []
