"""DAG/PDAG structures, d-separation, CPDAG completion, Markov equivalence."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latentdag import (
    Dag,
    Pdag,
    cpdag_of,
    d_separated,
    enumerate_trails,
    markov_equivalent,
    skeleton,
    v_structures,
)
from oracles import all_dags, brute_force_dsep, markov_classes


def confounded_pair_graph():
    """C -> A <- L -> B <- D, the canonical hidden-common-cause layout.

    Node ids: C=0, D=1, L=2, A=3, B=4.
    """
    return Dag.from_arcs(5, [(0, 3), (2, 3), (2, 4), (1, 4)],
                         names=["C", "D", "L", "A", "B"])


C, D, L, A, B = range(5)


class TestDagMutation:
    def test_add_arc(self):
        g = Dag(2)
        g.add_arc(0, 1)
        assert g.arcs() == [(0, 1)]

    def test_cycle_rejected(self):
        g = Dag.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="cycle"):
            g.add_arc(2, 0)

    def test_self_arc_rejected(self):
        g = Dag(2)
        with pytest.raises(ValueError):
            g.add_arc(1, 1)

    def test_both_directions_rejected(self):
        g = Dag(2)
        g.add_arc(0, 1)
        with pytest.raises(ValueError):
            g.add_arc(1, 0)
        with pytest.raises(ValueError):
            g.add_arc(0, 1)

    def test_remove_arc(self):
        g = Dag.from_arcs(2, [(0, 1)])
        g.remove_arc(0, 1)
        assert g.arcs() == []
        with pytest.raises(ValueError):
            g.remove_arc(0, 1)

    def test_add_node_grows_graph(self):
        g = Dag.from_arcs(2, [(0, 1)], names=["X", "Y"])
        new = g.add_node("Z")
        assert new == 2
        assert g.n_nodes == 3
        assert g.names[2] == "Z"

    def test_duplicate_node_name_leaves_graph_unchanged(self):
        g = Dag.from_arcs(2, [(0, 1)], names=["A", "B"])
        with pytest.raises(ValueError, match="duplicate node name 'A'"):
            g.add_node("A")
        assert g.n_nodes == 2
        assert g.names == ["A", "B"]
        assert g.arcs() == [(0, 1)]
        assert g.add_node("C") == 2
        assert g.names == ["A", "B", "C"] and g.parents(2) == set()
        # the default name is checked too
        g = Dag(2, ["X2", "B"])
        with pytest.raises(ValueError, match="duplicate node name 'X2'"):
            g.add_node()
        assert g.n_nodes == 2 and g.names == ["X2", "B"]

    @pytest.mark.parametrize("name", ["", 7])
    def test_added_node_name_is_checked(self, name):
        g = Dag(2, ["A", "B"])
        with pytest.raises(ValueError, match=f"node name {name!r} is not a non-empty string"):
            g.add_node(name)
        assert g.n_nodes == 2 and g.names == ["A", "B"]

    def test_copy_is_independent(self):
        g = Dag.from_arcs(2, [(0, 1)])
        h = g.copy()
        h.remove_arc(0, 1)
        assert g.has_arc(0, 1) and not h.has_arc(0, 1)

    def test_topological_order_prefers_small_ids(self):
        g = Dag.from_arcs(4, [(2, 0), (3, 0)])
        order = g.topological_order()
        assert order.index(2) < order.index(0)
        assert order.index(3) < order.index(0)
        assert order == [1, 2, 3, 0]

    def test_id_of_a_name(self):
        g = confounded_pair_graph()
        assert [g.id_of(n) for n in "CDLAB"] == [C, D, L, A, B]
        with pytest.raises(KeyError, match="unknown node 'Q'"):
            g.id_of("Q")

    def test_json_round_trip(self):
        g = Dag.from_arcs(3, [(0, 1), (2, 1)], names=["a", "b", "c"])
        h = Dag.from_json(g.to_json())
        assert h == g and h.names == g.names


@pytest.mark.parametrize("cls", [Dag, Pdag])
@pytest.mark.parametrize("doc, message", [
    ([["A", "B"]], "graph JSON must be an object, not list"),
    ({"arcs": []}, "graph JSON needs 'nodes', a list of node names"),
    ({"nodes": "AB"}, "graph JSON needs 'nodes', a list of node names"),
    ({"nodes": ["A", ["B"]]}, "graph JSON needs 'nodes', a list of node names"),
    ({"nodes": ["A", "B"], "@": [["A"]]}, r"'@' entry \['A'\] is not a \[from, to\] pair"),
    ({"nodes": ["A", "B"], "@": ["AB"]}, r"'@' entry 'AB' is not a \[from, to\] pair"),
    ({"nodes": ["A", "B"], "@": [["A", "C"]]}, "names unknown node 'C'"),
    ({"nodes": ["A", "B"], "@": [[["A"], "B"]]}, r"names unknown node \['A'\]"),
    ({"nodes": ["A", "B"], "@": "AB"}, "'@' must be a list of"),
    ({"nodes": ["A", "A"]}, "duplicate node name 'A'"),
    ({"nodes": ["A", "B"], "@": [["B", "B"]]}, "self-(arc|link)"),
    ({"nodes": ["A", "B", "C", "B"]}, "duplicate node name 'B'"),
    ({"nodes": ["A", ""]}, "node name '' is not a non-empty string"),
])
def test_malformed_graph_json_is_named(cls, doc, message):
    # "@" stands for the link field of each class
    field = "arcs" if cls is Dag else "directed"
    text = json.dumps(doc).replace("@", field)
    with pytest.raises(ValueError, match=message.replace("@", field)):
        cls.from_json(text)


def test_pdag_json_undirected_self_link_is_named():
    text = json.dumps({"nodes": ["A", "B"], "undirected": [["A", "A"]]})
    with pytest.raises(ValueError, match="self-link on A"):
        Pdag.from_json(text)


@pytest.mark.parametrize("latents, message", [
    (7, "'latents' must be a list, not 7"),
    ([5], "latents entry 5 is not an object"),
    ([{"name": "L1"}], r"latents entry \{'name': 'L1'\} is not an object .* 'children' pair"),
    ([{"name": 3, "children": ["A", "B"]}], "latents entry .* with a string 'name'"),
    ([{"name": "L1", "children": ["A", "A"]}],
     r"latents entry \{'name': 'L1', 'children': \['A', 'A'\]\} names one child twice"),
])
def test_pdag_json_malformed_latent_is_named(latents, message):
    text = json.dumps({"nodes": ["A", "B"], "latents": latents})
    with pytest.raises(ValueError, match=message):
        Pdag.from_json(text)


def test_pdag_json_unknown_latent_child_is_named():
    text = json.dumps({"nodes": ["A", "B"],
                       "latents": [{"name": "L1", "children": ["A", "Q"]}]})
    with pytest.raises(ValueError, match="latent children entry .* unknown node 'Q'"):
        Pdag.from_json(text)


class TestAncestry:
    def test_leaf_has_no_descendants(self):
        g = Dag.from_arcs(3, [(0, 1), (1, 2)])
        assert g.descendants(2) == set()

    def test_chain_descendants(self):
        g = Dag.from_arcs(3, [(0, 1), (1, 2)])
        assert g.descendants(0) == {1, 2}

    def test_hidden_parent_descendants(self):
        g = confounded_pair_graph()
        assert g.descendants(L) == {A, B}
        assert g.ancestors(B) == {L, D}


class TestDSeparation:
    def test_hidden_common_cause_connects_children(self):
        g = confounded_pair_graph()
        assert not d_separated(g, A, B, set())

    def test_grandparents_stay_separated(self):
        g = confounded_pair_graph()
        assert d_separated(g, C, D, set())
        assert d_separated(g, C, D, {A})
        assert d_separated(g, C, D, {B})
        # conditioning on both children opens both colliders
        assert not d_separated(g, C, D, {A, B})

    def test_collider(self):
        g = Dag.from_arcs(3, [(0, 2), (1, 2)])
        assert d_separated(g, 0, 1, set())
        assert not d_separated(g, 0, 1, {2})

    def test_collider_descendant_opens_path(self):
        g = Dag.from_arcs(4, [(0, 2), (1, 2), (2, 3)])
        assert d_separated(g, 0, 1, set())
        assert not d_separated(g, 0, 1, {3})

    def test_set_arguments(self):
        g = confounded_pair_graph()
        assert d_separated(g, {C}, {D}, set())
        assert not d_separated(g, {C, D}, {B}, set())

    def test_overlap_rejected(self):
        g = confounded_pair_graph()
        with pytest.raises(ValueError):
            d_separated(g, A, B, {A})
        with pytest.raises(ValueError):
            d_separated(g, {A, C}, {C}, set())

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            perm = rng.permutation(n)
            arcs = [
                (int(perm[i]), int(perm[j]))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.45
            ]
            g = Dag.from_arcs(n, arcs)
            for u in range(n):
                for v in range(u + 1, n):
                    rest = [w for w in range(n) if w not in (u, v)]
                    for r in range(len(rest) + 1):
                        for z in itertools.combinations(rest, r):
                            assert d_separated(g, u, v, set(z)) == \
                                brute_force_dsep(n, arcs, u, v, set(z))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_sets_match_brute_force_over_every_pair(self, data):
        # each node lands in u, v, z or none of them
        n = data.draw(st.integers(2, 7))
        order = data.draw(st.permutations(range(n)))
        arcs = [(order[i], order[j]) for i, j in itertools.combinations(range(n), 2)
                if data.draw(st.booleans())]
        role = data.draw(st.lists(st.sampled_from("uvz-"), min_size=n, max_size=n))
        us, vs, zs = ({x for x in range(n) if role[x] == r} for r in "uvz")
        assume(us and vs)
        want = all(brute_force_dsep(n, arcs, u, v, zs) for u in us for v in vs)
        assert d_separated(Dag.from_arcs(n, arcs), us, vs, zs) == want


class TestTrails:
    def test_all_simple_trails_enumerated(self):
        g = confounded_pair_graph()
        trails = list(enumerate_trails(g, C, D))
        assert len(trails) == 1
        assert trails[0].nodes == (C, A, L, B, D)
        assert trails[0].forward == (True, False, True, False)

    def test_blocking_index(self):
        g = confounded_pair_graph()
        trail = next(iter(enumerate_trails(g, C, D)))
        # colliders A and B; empty z blocks at the first collider
        assert trail.blocked_by(g, set()) == 1
        assert trail.blocked_by(g, {A}) == 3
        assert trail.blocked_by(g, {A, B}) is None

    @pytest.mark.parametrize("x, y", [(C, 9), (9, C)])
    def test_both_ends_are_checked_at_the_call(self, x, y):
        # the far end used to go unchecked, and the iterator was empty
        with pytest.raises(KeyError, match="node 9 out of range"):
            enumerate_trails(confounded_pair_graph(), x, y)


class TestSkeletonAndVStructures:
    def test_single_arc(self):
        assert skeleton(Dag.from_arcs(2, [(0, 1)])) == {(0, 1)}

    def test_triangle_has_three_edges(self):
        g = Dag.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        assert skeleton(g) == {(0, 1), (0, 2), (1, 2)}
        assert v_structures(g) == set()  # shielded collider is no v-structure

    def test_empty(self):
        assert skeleton(Dag(3)) == set()

    def test_collider(self):
        g = Dag.from_arcs(3, [(0, 2), (1, 2)])
        assert v_structures(g) == {(0, 2, 1)}

    def test_marginal_fingerprint_graph(self):
        # C->A, C->B, A->B, D->B: colliders at B from (A,D) and (C,D)
        g = Dag.from_arcs(4, [(0, 2), (0, 3), (2, 3), (1, 3)],
                          names=["C", "D", "A", "B"])
        assert v_structures(g) == {(0, 3, 1), (1, 3, 2)}


class TestCpdag:
    def test_chain_goes_fully_undirected(self):
        p = cpdag_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
        assert p.directed == set()
        assert p.undirected == {(0, 1), (1, 2)}

    def test_collider_stays_directed(self):
        p = cpdag_of(Dag.from_arcs(3, [(0, 2), (1, 2)]))
        assert p.directed == {(0, 2), (1, 2)}
        assert p.undirected == set()

    def test_full_triangle_goes_undirected(self):
        p = cpdag_of(Dag.from_arcs(3, [(0, 1), (1, 2), (0, 2)]))
        assert p.directed == set()
        assert p.undirected == {(0, 1), (0, 2), (1, 2)}

    def test_orientation_propagates_downstream(self):
        # 0->2<-1 plus 2->3: the trailing arc must stay directed, else a new
        # v-structure at 2 would appear when reversed
        p = cpdag_of(Dag.from_arcs(4, [(0, 2), (1, 2), (2, 3)]))
        assert p.directed == {(0, 2), (1, 2), (2, 3)}
        assert p.undirected == set()

    def test_marginal_fingerprint_cpdag(self):
        # C->A, C->B, A->B, D->B: B's three incoming arcs are compelled,
        # the C-A edge is reversible
        g = Dag.from_arcs(4, [(0, 2), (0, 3), (2, 3), (1, 3)],
                          names=["C", "D", "A", "B"])
        p = cpdag_of(g)
        assert p.directed == {(0, 3), (2, 3), (1, 3)}
        assert p.undirected == {(0, 2)}

    def test_shielded_fan_in_forces_remaining_edge(self):
        # c->a<-d v-structure plus b adjacent to a, c, d: b-a becomes b->a,
        # while b-c and b-d stay reversible
        b, c, d, a = 0, 1, 2, 3
        g = Dag.from_arcs(4, [(b, c), (b, d), (b, a), (c, a), (d, a)])
        p = cpdag_of(g)
        assert (c, a) in p.directed and (d, a) in p.directed
        assert (b, a) in p.directed
        assert p.undirected == {(b, c), (b, d)}

    def test_equivalent_dags_share_cpdag(self):
        for arcs1, arcs2 in [
            ([(0, 1), (1, 2)], [(1, 0), (1, 2)]),
            ([(0, 1), (1, 2)], [(2, 1), (1, 0)]),
        ]:
            g1 = Dag.from_arcs(3, arcs1)
            g2 = Dag.from_arcs(3, arcs2)
            assert markov_equivalent(g1, g2)
            assert cpdag_of(g1).to_json() == cpdag_of(g2).to_json()

    def test_equivalence_iff_same_cpdag_n3(self):
        dags = [Dag.from_arcs(3, list(arcs)) for arcs in all_dags(3)]
        assert len(dags) == 25
        reprs = [cpdag_of(g).to_json() for g in dags]
        for i in range(len(dags)):
            for j in range(len(dags)):
                assert markov_equivalent(dags[i], dags[j]) == (reprs[i] == reprs[j])

    @pytest.mark.parametrize("n", [4, 5])
    def test_directed_iff_every_class_member_agrees(self, n):
        # Chickering's definition: an edge of the CPDAG is directed iff all
        # DAGs of the Markov-equivalence class orient it the same way
        classes = markov_classes(n)
        assert sum(map(len, classes.values())) == {4: 543, 5: 29281}[n]
        for members in classes.values():
            compelled = set.intersection(*map(set, members))
            reversible = {(min(a), max(a)) for a in members[0]} - {
                (min(a), max(a)) for a in compelled}
            for arcs in members:
                p = cpdag_of(Dag.from_arcs(n, arcs))
                assert p.directed == compelled
                assert p.undirected == reversible


class TestMarkovEquivalent:
    def test_chain_reversal(self):
        assert markov_equivalent(
            Dag.from_arcs(3, [(0, 1), (1, 2)]),
            Dag.from_arcs(3, [(1, 0), (2, 1)]),
        )

    def test_chain_vs_collider(self):
        assert not markov_equivalent(
            Dag.from_arcs(3, [(0, 1), (1, 2)]),
            Dag.from_arcs(3, [(0, 1), (2, 1)]),
        )

    def test_different_skeletons(self):
        # A->B, D->B versus C->A, C->B, A->B, D->B restricted shapes
        g1 = Dag.from_arcs(4, [(2, 3), (1, 3)], names=["C", "D", "A", "B"])
        g2 = Dag.from_arcs(4, [(0, 2), (0, 3), (2, 3), (1, 3)],
                           names=["C", "D", "A", "B"])
        assert not markov_equivalent(g1, g2)

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            markov_equivalent(Dag(2), Dag(3))


class TestPdag:
    def test_json_round_trip_with_latents(self):
        p = Pdag(4, names=["A", "B", "C", "L1"])
        p.add_directed(3, 0)
        p.add_directed(3, 1)
        p.add_undirected(1, 2)
        p.latents.append(("L1", (0, 1)))
        q = Pdag.from_json(p.to_json())
        assert q == p
        assert q.latents == [("L1", (0, 1))]

    @pytest.mark.parametrize("graph", [Dag, Pdag])
    @pytest.mark.parametrize("n_nodes", [2.0, True, "2"])
    def test_non_integer_node_count_is_named(self, graph, n_nodes):
        with pytest.raises(ValueError, match=f"n_nodes must be an integer, got {n_nodes!r}"):
            graph(n_nodes)

    def test_directed_undirected_conflict_rejected(self):
        p = Pdag(2, names=["A", "B"])
        p.add_directed(0, 1)
        with pytest.raises(ValueError):
            p.add_undirected(0, 1)

    @pytest.mark.parametrize("method", ["add_directed", "add_undirected"])
    @pytest.mark.parametrize("u, v, bad", [(0, 5, 5), (-1, 1, -1)])
    def test_node_ids_range_checked(self, method, u, v, bad):
        p = Pdag(2, names=["A", "B"])
        with pytest.raises(KeyError, match=f"node {bad} out of range"):
            getattr(p, method)(u, v)
        assert not p.directed and not p.undirected

    def test_json_schema_fields(self):
        p = cpdag_of(confounded_pair_graph())
        blob = json.loads(p.to_json())
        assert set(blob) == {"nodes", "directed", "undirected", "latents"}
        assert blob["nodes"] == ["C", "D", "L", "A", "B"]


@pytest.mark.parametrize("cls", [Dag, Pdag])
@pytest.mark.parametrize("n, names, message", [
    (-1, None, "n_nodes must be >= 0"),
    (2, ["A"], "names length must equal n_nodes"),
    (2, ["A", "A"], "duplicate node name 'A'"),
    (3, ["A", "B", "B"], "duplicate node name 'B'"),
    (2, [1, 2], "node name 1 is not a non-empty string"),
    (2, ["A", ""], "node name '' is not a non-empty string"),
    (1, [None], "node name None is not a non-empty string"),
])
def test_bad_node_list_is_named(cls, n, names, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(n, names)
