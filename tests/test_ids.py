"""The package's one id rule, through every public entry point that takes a
variable or node id: an id is an integer in 0..n-1, NumPy integers
included; a float or a bool fails, naming it, and an id out of range raises
``KeyError``."""

import re

import numpy as np
import pytest

from latentdag import (
    Dag,
    Dataset,
    DiscreteBayesNet,
    Pdag,
    ScoreContext,
    SeparatorQuery,
    VariableMeta,
    bic,
    count,
    d_separated,
    enumerate_trails,
    f_bic,
    find_separator,
    is_independent,
    joint_marginal,
    mutual_information,
    project,
)
from latentdag.scoring import drop_bic, fill_bic

VARIABLES = [VariableMeta(name, ("s0", "s1")) for name in "ABCD"]
# A -> B -> C -> D plus A -> D
GRAPH = Dag.from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 3)], names=list("ABCD"))
NET = DiscreteBayesNet(VARIABLES, GRAPH, {
    0: np.array([[0.4, 0.6]]),
    1: np.array([[0.9, 0.1], [0.2, 0.8]]),
    2: np.array([[0.85, 0.15], [0.3, 0.7]]),
    3: np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5], [0.1, 0.9]]),
})

DATA = Dataset(VARIABLES, np.random.default_rng(5).integers(0, 2, (300, 4)))


def _directed(u, v) -> str:
    p = Pdag(4, list("ABCD"))
    p.add_directed(u, v)
    return p.to_json()


# each entry point with the id under test in one slot; ids 0 and 1 are free
# there, so a float that turned into either would read a real variable
ID_SLOT = {
    "count": lambda x: count(DATA, x, [2]).tolist(),
    "project": lambda x: project(DATA, [x, 2]).values.tolist(),
    "Dataset.column": lambda x: DATA.column(x).tolist(),
    "bic": lambda x: bic(ScoreContext(DATA), x, [2]),
    "fill_bic": lambda x: [a.tolist() for a in fill_bic(ScoreContext(DATA), x, [2], [3])],
    "fill_bic-candidate": lambda y: fill_bic(ScoreContext(DATA), 0, [2], [y])[0].tolist(),
    "drop_bic": lambda x: drop_bic(ScoreContext(DATA), x, [2, 3], [3]).tolist(),
    "f_bic": lambda x: f_bic(ScoreContext(DATA), x, 2, [3]),
    "is_independent": lambda x: is_independent(ScoreContext(DATA), x, 2, [3]),
    "find_separator": lambda x: find_separator(SeparatorQuery(u=x, v=2), ScoreContext(DATA)),
    "Dag.add_arc": lambda x: Dag(4).add_arc(x, 2).arcs(),
    "Dag.has_arc": lambda x: GRAPH.has_arc(x, 2),
    "Dag.has_arc-head": lambda v: GRAPH.has_arc(0, v),
    "Dag.adjacent": lambda x: GRAPH.adjacent(x, 2),
    "Dag.adjacent-second": lambda y: GRAPH.adjacent(3, y),
    "Pdag.add_directed": lambda x: _directed(x, 2),
    "d_separated": lambda x: d_separated(GRAPH, x, 3, {2}),
    "enumerate_trails": lambda x: list(enumerate_trails(GRAPH, x, 3)),
    "mutual_information": lambda x: mutual_information(NET, x, 2),
    "joint_marginal": lambda x: joint_marginal(NET, (x, 2)).tolist(),
}

# the same entry points with the id inside a set of ids: the parents, the
# kept variables, the conditioning set or the targets
SET_SLOT = {
    "count": lambda z: count(DATA, 0, [z, 2]).tolist(),
    "project": lambda z: project(DATA, [0, z]).values.tolist(),
    "bic": lambda z: bic(ScoreContext(DATA), 0, [z, 2]),
    "fill_bic": lambda z: [a.tolist() for a in fill_bic(ScoreContext(DATA), 0, [z, 2], [3],
                                                         drop=2)],
    "fill_bic-drop": lambda z: [a.tolist() for a in fill_bic(ScoreContext(DATA), 0, [1, 2], [3],
                                                              drop=z)],
    "drop_bic": lambda z: drop_bic(ScoreContext(DATA), 0, [z, 2], [2]).tolist(),
    "drop_bic-drops": lambda z: drop_bic(ScoreContext(DATA), 0, [1, 2], [z]).tolist(),
    "f_bic": lambda z: f_bic(ScoreContext(DATA), 0, 2, [z]),
    "is_independent": lambda z: is_independent(ScoreContext(DATA), 0, 2, [z]),
    "find_separator": lambda z: find_separator(
        SeparatorQuery(u=0, v=2, compulsory={z}), ScoreContext(DATA)),
    "d_separated": lambda z: d_separated(GRAPH, 0, 2, {z}),
    "mutual_information": lambda z: mutual_information(NET, 0, 2, [z]),
    "joint_marginal": lambda z: joint_marginal(NET, (0, 2, z)).tolist(),
}

NON_INTEGERS = [
    *[pytest.param(call, bad, id=f"{name}-{bad!r}")
      for name, call in ID_SLOT.items() for bad in (0.5, True)],
    *[pytest.param(call, 1.5, id=f"{name}-set-1.5") for name, call in SET_SLOT.items()],
]


@pytest.mark.parametrize("call, bad", NON_INTEGERS)
def test_non_integer_id_is_named(call, bad):
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        call(bad)


@pytest.mark.parametrize("call", ID_SLOT.values(), ids=list(ID_SLOT))
def test_id_out_of_range_is_named(call):
    with pytest.raises(KeyError, match="9 out of range"):
        call(9)


@pytest.mark.parametrize("call", [
    *[pytest.param(call, id=name) for name, call in ID_SLOT.items()],
    *[pytest.param(call, id=f"{name}-set") for name, call in SET_SLOT.items()],
])
def test_numpy_integer_id_gives_the_int_answer(call):
    assert call(np.int64(1)) == call(1)


@pytest.mark.parametrize("call, message", [
    (lambda: fill_bic(ScoreContext(DATA), 0, [1], [3], drop=2), "drop 2 is not a member of base"),
    (lambda: drop_bic(ScoreContext(DATA), 0, [1, 2], [1, 3]), "drop 3 is not one of the parents"),
    (lambda: fill_bic(ScoreContext(DATA), 0, [0], [3]), "x may not appear in its own"),
    (lambda: fill_bic(ScoreContext(DATA), 0, [1], [0]), "x may not appear in its own"),
    (lambda: fill_bic(ScoreContext(DATA), 0, [1], [1]), "a candidate y may not be a member"),
], ids=["fill_bic-drop", "drop_bic-drops", "fill_bic-x-in-base", "fill_bic-x-candidate",
        "fill_bic-candidate-in-base"])
def test_id_in_the_wrong_set_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
