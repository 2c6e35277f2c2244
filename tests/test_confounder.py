"""Triangle classification and latent rewiring."""

import numpy as np
import pytest

from latentdag import (
    AugmentedResult,
    Dag,
    Dataset,
    DiscreteBayesNet,
    LearnerConfig,
    ScoreContext,
    Triangle,
    TriangleClassification,
    TriangleVerdict,
    VariableMeta,
    classify_triangle,
    confirm_child_side,
    confirm_parent_side,
    discover_confounders,
    enumerate_triangles,
    project,
    recreate_latents,
    sample,
)


def collider_dataset(n=40000, seed=5):
    """Columns X, Y, W, D: X and Y drive W through a non-multiplicative
    gate (so conditioning on W couples them); D is pure noise.

    Any two of {X->W, Y->W} are strongly dependent; X and Y separate at the
    empty set and reconnect given W. Assigning triangle roles over these
    three nodes exercises every classification branch from one dataset.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    p1 = np.array([0.05, 0.6, 0.6, 0.95])[2 * x + y]
    w = (rng.random(n) < p1).astype(np.int32)
    d_col = rng.integers(0, 2, n)
    arr = np.column_stack([x, y, w, d_col]).astype(np.int32)
    vs = tuple(VariableMeta(nm, ("s0", "s1")) for nm in ["X", "Y", "W", "D"])
    return Dataset(vs, arr)


X, Y, W, D = 0, 1, 2, 3


def planted_model():
    """C -> A <- L -> B <- D with L hidden: the canonical confounder bait."""
    vs = [VariableMeta(nm, ("s0", "s1")) for nm in ["C", "D", "L", "A", "B"]]
    g = Dag.from_arcs(5, [(0, 3), (2, 3), (2, 4), (1, 4)],
                      names=["C", "D", "L", "A", "B"])
    p1 = {(0, 0): 0.05, (1, 0): 0.45, (0, 1): 0.50, (1, 1): 0.90}
    t = np.zeros((4, 2))
    for i, (u, l) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        t[i] = [1 - p1[(u, l)], p1[(u, l)]]
    return DiscreteBayesNet(vs, g, {
        0: np.array([[0.6, 0.4]]),
        1: np.array([[0.4, 0.6]]),
        2: np.array([[0.5, 0.5]]),
        3: t.copy(),
        4: t.copy(),
    })


def planted_dataset(n=50000, seed=11):
    return project(sample(planted_model(), n, seed=seed), ["C", "D", "A", "B"])


class TestEnumerateTriangles:
    def test_chain_has_none(self):
        g = Dag.from_arcs(3, [(0, 1), (1, 2)])
        assert enumerate_triangles(g) == []

    def test_single_triangle_roles(self):
        g = Dag.from_arcs(4, [(0, 1), (1, 2), (0, 2), (3, 0)])
        assert enumerate_triangles(g) == [Triangle(source=0, middle=1, sink=2)]

    def test_complete_four_clique(self):
        g = Dag.from_arcs(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        ts = enumerate_triangles(g)
        assert ts == [
            Triangle(0, 1, 2),
            Triangle(0, 1, 3),
            Triangle(0, 2, 3),
            Triangle(1, 2, 3),
        ]

    def test_unshielded_collider_is_not_a_triangle(self):
        g = Dag.from_arcs(3, [(0, 2), (1, 2)])
        assert enumerate_triangles(g) == []


class TestClassifyTriangle:
    def test_parent_side_slot(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=X, middle=W, sink=Y), ctx)
        assert c.verdict is TriangleVerdict.PARENT_SIDE
        assert c.latent_children == (W, Y)
        assert c.outside == X
        assert c.witness is not None and X not in c.witness
        assert c.pair_results[(Y, X)] == (True, True)
        assert c.pair_results[(W, Y)] == (False, False)
        assert c.pair_results[(X, W)] == (False, False)

    def test_child_side_slot(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=W, middle=X, sink=Y), ctx)
        assert c.verdict is TriangleVerdict.CHILD_SIDE
        assert c.latent_children == (W, X)
        assert c.outside == Y
        assert c.witness is not None

    def test_dead_slot_reports_genuine(self):
        # the separable pair lands on (source, middle): detected but not acted on
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=X, middle=Y, sink=W), ctx)
        assert c.verdict is TriangleVerdict.GENUINE
        assert c.latent_children is None
        assert c.pair_results[(X, Y)] == (True, True)

    def test_fully_coupled_triangle_is_genuine(self):
        rng = np.random.default_rng(6)
        n = 40000
        a = rng.integers(0, 2, n)
        b = np.where(rng.random(n) < 0.85, a, 1 - a)
        hi = np.array([0.15, 0.85, 0.85, 0.9])[2 * a + b]
        c_col = (rng.random(n) < hi).astype(np.int32)
        arr = np.column_stack([a, b, c_col]).astype(np.int32)
        vs = tuple(VariableMeta(nm, ("s0", "s1")) for nm in "ABC")
        ctx = ScoreContext(Dataset(vs, arr))
        cls = classify_triangle(Triangle(source=0, middle=1, sink=2), ctx)
        assert cls.verdict is TriangleVerdict.GENUINE
        assert all(v == (False, False) for v in cls.pair_results.values())


class TestConfirmations:
    def triangle_graph(self, with_extra_parent=False, with_stub_parent=False):
        # source X -> {W, Y}, middle W -> Y, sink Y (ids as in the dataset)
        arcs = [(X, W), (X, Y), (W, Y)]
        if with_extra_parent:
            arcs.append((D, Y))
        if with_stub_parent:
            arcs.append((D, X))
        return Dag.from_arcs(4, arcs, names=["X", "Y", "W", "D"])

    def test_parent_side_needs_third_parent_on_sink(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=X, middle=W, sink=Y), ctx)
        assert not confirm_parent_side(c, self.triangle_graph())
        assert confirm_parent_side(c, self.triangle_graph(with_extra_parent=True))

    def test_parent_side_rejects_wrong_verdict(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=W, middle=X, sink=Y), ctx)
        with pytest.raises(ValueError):
            confirm_parent_side(c, self.triangle_graph())

    def test_child_side_needs_corroborating_neighbour(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=W, middle=X, sink=Y), ctx)
        # W -> X, W -> Y, X -> Y; latent children (W, X); outside Y
        g_bare = Dag.from_arcs(4, [(W, X), (W, Y), (X, Y)],
                               names=["X", "Y", "W", "D"])
        assert not confirm_child_side(c, g_bare, ctx)
        assert c.support is None
        g_with_d = Dag.from_arcs(4, [(W, X), (W, Y), (X, Y), (D, X)],
                                 names=["X", "Y", "W", "D"])
        assert confirm_child_side(c, g_with_d, ctx)
        d_node, z = c.support
        assert d_node == D
        assert W in z  # the compulsory source stayed in the separator

    def test_child_side_rejects_wrong_verdict(self):
        ctx = ScoreContext(collider_dataset())
        c = classify_triangle(Triangle(source=X, middle=W, sink=Y), ctx)
        with pytest.raises(ValueError):
            confirm_child_side(c, self.triangle_graph(), ctx)


def accepted_classification(tri, children, outside, verdict=TriangleVerdict.PARENT_SIDE):
    return TriangleClassification(
        triangle=tri,
        verdict=verdict,
        latent_children=children,
        outside=outside,
        witness=frozenset(),
    )


class TestRecreateLatents:
    def fingerprint_graph(self):
        # C -> A -> B, C -> B, D -> B (ids C=0, D=1, A=2, B=3)
        return Dag.from_arcs(
            4, [(0, 2), (2, 3), (0, 3), (1, 3)], names=["C", "D", "A", "B"])

    def test_no_acceptances_is_identity(self):
        g = self.fingerprint_graph()
        r = recreate_latents(g, [])
        assert r.dag.arcs() == g.arcs()
        assert r.latents == [] and r.conflicts == []

    def test_single_rewiring(self):
        g = self.fingerprint_graph()
        c = accepted_classification(Triangle(0, 2, 3), children=(2, 3), outside=0)
        r = recreate_latents(g, [c])
        assert r.latents == [("L1", (2, 3))]
        lid = r.dag.names.index("L1")
        assert not r.dag.has_arc(2, 3)          # spurious A -> B dropped
        assert not r.dag.adjacent(0, 3)         # B's link to the outside dropped
        assert r.dag.has_arc(lid, 2) and r.dag.has_arc(lid, 3)
        assert r.dag.has_arc(0, 2) and r.dag.has_arc(1, 3)  # rest untouched
        assert r.cpdag.latents == [("L1", (2, 3))]

    def test_child_side_rewiring_drops_the_arc_out_of_b(self):
        # A -> B -> C, A -> C, D -> B (ids A=0, B=1, C=2, D=3)
        g = Dag.from_arcs(4, [(0, 1), (1, 2), (0, 2), (3, 1)], names=["A", "B", "C", "D"])
        c = accepted_classification(Triangle(0, 1, 2), children=(0, 1), outside=2,
                                    verdict=TriangleVerdict.CHILD_SIDE)
        r = recreate_latents(g, [c])
        assert r.latents == [("L1", (0, 1))] and r.conflicts == []
        lid = r.dag.names.index("L1")
        assert r.dag.arcs() == sorted([(0, 2), (3, 1), (lid, 0), (lid, 1)])

    def test_two_disjoint_rewirings_numbered_canonically(self):
        arcs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Dag.from_arcs(6, arcs)
        c1 = accepted_classification(Triangle(0, 1, 2), children=(1, 2), outside=0)
        c2 = accepted_classification(Triangle(3, 4, 5), children=(4, 5), outside=3)
        # pass in reverse; canonical triangle order decides the numbering
        r = recreate_latents(g, [c2, c1])
        assert r.latents == [("L1", (1, 2)), ("L2", (4, 5))]
        assert r.conflicts == []

    def test_overlapping_rewirings_conflict(self):
        # two triangles sharing the arc A -> B: second one must be skipped
        arcs = [(0, 2), (2, 3), (0, 3), (1, 2), (1, 3)]
        g = Dag.from_arcs(4, arcs)
        c1 = accepted_classification(Triangle(0, 2, 3), children=(2, 3), outside=0)
        c2 = accepted_classification(Triangle(1, 2, 3), children=(2, 3), outside=1)
        r = recreate_latents(g, [c1, c2])
        assert r.latents == [("L1", (2, 3))]
        assert r.conflicts == [Triangle(1, 2, 3)]

    def test_rejects_genuine_classification(self):
        g = self.fingerprint_graph()
        bad = TriangleClassification(
            triangle=Triangle(0, 2, 3), verdict=TriangleVerdict.GENUINE)
        with pytest.raises(ValueError):
            recreate_latents(g, [bad])


class TestDiscoverEndToEnd:
    def test_planted_confounder_recovered(self):
        d = planted_dataset()
        r = discover_confounders(d, LearnerConfig(max_parents=3))
        assert isinstance(r, AugmentedResult)
        assert len(r.latents) == 1
        name, (a, b) = r.latents[0]
        assert name == "L1"
        assert {d.variables[a].name, d.variables[b].name} == {"A", "B"}
        pside = [c for c in r.classifications
                 if c.verdict is TriangleVerdict.PARENT_SIDE]
        assert len(pside) == 1
        assert r.cpdag.latents == r.latents
        assert r.learn_seconds > 0 and r.post_seconds > 0
        lid = r.dag.names.index("L1")
        assert r.dag.has_arc(lid, a) and r.dag.has_arc(lid, b)
        assert not r.dag.adjacent(a, b)

    def test_no_triangles_means_no_latents(self):
        rng = np.random.default_rng(12)
        n = 20000
        a = rng.integers(0, 2, n)
        b = np.where(rng.random(n) < 0.8, a, 1 - a)
        c = np.where(rng.random(n) < 0.8, b, 1 - b)
        arr = np.column_stack([a, b, c]).astype(np.int32)
        vs = tuple(VariableMeta(nm, ("s0", "s1")) for nm in "ABC")
        r = discover_confounders(Dataset(vs, arr), LearnerConfig(max_parents=2))
        assert r.latents == []
        assert r.classifications == []

    @pytest.mark.parametrize("h, alpha, message", [
        (-3, 0.05, "h must be >= 0"),
        (7, 7.0, "alpha must lie strictly between 0 and 1"),
        (7, 1.0, "alpha must lie strictly between 0 and 1"),
        (7, "0.05", "alpha must be a real number, got '0.05'"),
        (2.5, 0.05, "h must be an integer, got 2.5"),
    ])
    def test_bad_probe_options_rejected_before_learning(self, monkeypatch, h, alpha,
                                                        message):
        from latentdag import confounder

        def no_learning(*args):
            raise AssertionError("learnt before checking the options")

        monkeypatch.setattr(confounder, "learn", no_learning)
        with pytest.raises(ValueError, match=message):
            discover_confounders(planted_dataset(n=200), h=h, alpha=alpha)

    @pytest.mark.parametrize("asset, mode", [("net20", "hill_climb"), ("child", "exact")])
    def test_row_order_does_not_matter(self, asset, mode):
        """Every tally is an integer count, blind to the order of the rows,
        so a permuted sample gives the same CPDAG byte for byte."""
        from pathlib import Path

        from latentdag import InjectionConfig, bn_from_json, inject_confounders
        path = Path(__file__).resolve().parent.parent / "assets" / f"{asset}.json"
        bn = bn_from_json(path.read_text(encoding="utf-8"))
        injected, _ = inject_confounders(bn, InjectionConfig(seed=3))
        d = project(sample(injected, 2000, seed=3), [v.name for v in bn.variables])
        shuffled = Dataset(d.variables, d.values[np.random.default_rng(3).permutation(2000)])
        cfg = LearnerConfig(mode=mode)
        want = discover_confounders(d, cfg).cpdag
        assert want.directed or want.undirected
        assert discover_confounders(shuffled, cfg).cpdag.to_json() == want.to_json()

    def test_hidden_cause_footprint_forms_reliably(self):
        """The confounded pair stays adjacent in the learnt DAG, and the
        observed parent of the arc's tail closes a clique around the pair.

        The tail side is orientation-dependent (the two orientations are
        score-equivalent here), so the expected clique partner is the tail's
        own parent: C when the arc runs A -> B, D when it runs B -> A.
        """
        from latentdag import learn_exact

        bn = planted_model()
        hits = 0
        seeds = range(30, 40)
        for s in seeds:
            d = project(sample(bn, 100_000, seed=s), ["C", "D", "A", "B"])
            g = learn_exact(d, LearnerConfig(max_parents=3))
            a, b = d.id_of("A"), d.id_of("B")
            c, dd = d.id_of("C"), d.id_of("D")
            if not g.adjacent(a, b):
                continue
            partner = c if g.has_arc(a, b) else dd
            if g.adjacent(a, partner) and g.adjacent(b, partner):
                hits += 1
        assert hits >= 0.8 * len(seeds)
