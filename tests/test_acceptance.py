"""End-to-end acceptance checks.

Each test here is one gate: it exercises a whole subsystem against an
independent oracle or a frozen reference value, enforces the numeric
tolerance *and* the wall-clock budget, and records a single PASS/FAIL
line (echoed in the terminal summary by conftest.py) so a run can be
audited at a glance.

A gate's wall-clock budget covers the library calls under test and
nothing else. Where a gate also runs a pure-Python oracle or builds its
own random inputs, that time is reported on the gate's line as the
whole-gate time but is not budgeted: the oracle is written for
independence, not speed, and its cost says nothing about the library.

These are deliberately redundant with the per-module tests — the point
is that the checks live at the library's public surface and would still
hold if every internal were rewritten.
"""

from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np

from latentdag import (
    CausalModel,
    Dag,
    Dataset,
    InjectionConfig,
    LearnerConfig,
    ScoreContext,
    VariableMeta,
    bn_from_json,
    causal_model_to_bn,
    chi2_critical,
    cpdag_of,
    d_separated,
    discover_confounders,
    f_bic,
    inject_confounders,
    learn_exact,
    markov_equivalent,
    project,
    run_benchmark,
    sample,
)

from oracles import all_dags, brute_force_dsep, exhaustive_best_dags, g2_direct
from test_confounder import planted_dataset
from test_learner import random_instance, total_bic

ASSETS = Path(__file__).resolve().parents[1] / "assets"

# One line per gate, collected for the terminal summary.
RESULTS: list[str] = []


def check(ok: bool, line: str) -> None:
    tag = "PASS" if ok else "FAIL"
    RESULTS.append(f"{tag}  {line}")
    print(f"ACCEPTANCE {tag} — {line}", flush=True)
    assert ok, line


class LibraryClock:
    """Accumulated wall time of the library calls a gate budgets.

    ``clock(fn, *args)`` returns ``fn(*args)`` and adds its duration to
    ``seconds``, so oracle work and input generation around it stay off
    the budget.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0


def timing(lib: LibraryClock, t0: float, budget: float) -> str:
    """The time part of a gate line: budgeted library time, then the
    whole gate (oracle included) for information."""
    return (
        f"library {lib.seconds:.2f} s, budget {budget:g} s; "
        f"whole gate {time.perf_counter() - t0:.1f} s"
    )


# ---------------------------------------------------------------------------
# 1. the score-drop statistic is the classical G2, bit for bit


def test_score_drop_statistic_matches_direct_g2():
    rng = np.random.default_rng(1718)
    t0 = time.perf_counter()
    lib = LibraryClock()
    worst = 0.0
    for _ in range(1000):
        cu, cv = (int(c) for c in rng.integers(2, 5, size=2))
        cz = [int(c) for c in rng.integers(2, 5, size=int(rng.integers(0, 3)))]
        cards = [cu, cv, *cz]
        n = int(round(math.exp(rng.uniform(math.log(100), math.log(1e5)))))
        values = rng.integers(0, np.array(cards), size=(n, len(cards)))
        d = Dataset(
            [
                VariableMeta(f"V{i}", tuple(f"s{k}" for k in range(c)))
                for i, c in enumerate(cards)
            ],
            values,
        )
        z = tuple(range(2, 2 + len(cz)))
        stat = lib(f_bic, lib(ScoreContext, d), 0, 1, z).statistic
        ref = g2_direct(values, cards, 0, 1, list(z))
        worst = max(worst, abs(stat - ref))
    check(
        worst < 1e-9 and lib.seconds < 10.0,
        f"score-drop statistic vs direct G2: max |diff| {worst:.3e} "
        f"over 1000 random tables ({timing(lib, t0, 10.0)})",
    )


# ---------------------------------------------------------------------------
# 2. d-separation agrees with literal trail enumeration everywhere


def test_d_separation_matches_trail_enumeration():
    rng = np.random.default_rng(93)
    t0 = time.perf_counter()
    lib = LibraryClock()
    n_queries = 0
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        order = rng.permutation(n)
        p_arc = rng.uniform(0.15, 0.85)
        arcs = [
            (int(order[i]), int(order[j]))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p_arc
        ]
        g = Dag.from_arcs(n, arcs)
        for u, v in itertools.combinations(range(n), 2):
            rest = [x for x in range(n) if x not in (u, v)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    n_queries += 1
                    got = lib(d_separated, g, u, v, z)
                    if got != brute_force_dsep(n, arcs, u, v, z):
                        mismatches += 1
    check(
        mismatches == 0 and lib.seconds < 60.0,
        f"d-separation vs trail enumeration: {mismatches} mismatches in "
        f"{n_queries} queries over 200 random graphs ({timing(lib, t0, 60.0)})",
    )


# ---------------------------------------------------------------------------
# 3. the equivalence test and the equivalence-class summary never disagree


def test_equivalence_test_agrees_with_cpdag_equality():
    t0 = time.perf_counter()
    lib = LibraryClock()
    arc_sets = all_dags(4)
    dags = [Dag.from_arcs(4, list(a)) for a in arc_sets]
    summaries = [lib(cpdag_of, g) for g in dags]

    def disagreement_count() -> tuple[int, int]:
        disagreements = 0
        n_pairs = 0
        for i in range(len(dags)):
            for j in range(i + 1, len(dags)):
                n_pairs += 1
                same = summaries[i] == summaries[j]
                if markov_equivalent(dags[i], dags[j]) != same:
                    disagreements += 1
        return disagreements, n_pairs

    disagreements, n_pairs = lib(disagreement_count)
    check(
        len(dags) == 543 and disagreements == 0 and lib.seconds < 60.0,
        f"equivalence test vs class-summary equality: {disagreements} "
        f"disagreements over {n_pairs} pairs of all {len(dags)} four-node "
        f"graphs ({timing(lib, t0, 60.0)})",
    )


# ---------------------------------------------------------------------------
# 4. the exact learner really attains the exhaustive optimum


def test_exact_learner_attains_exhaustive_optimum():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    lib = LibraryClock()
    worst = 0.0
    all_in_class = True
    for _ in range(50):
        d = random_instance(rng, n_rows=2000, n=4)
        g_hat = lib(learn_exact, d, LearnerConfig(max_parents=3))
        got = total_bic(d, g_hat, 3)
        rows = list(map(tuple, d.values.tolist()))
        best, argmax = exhaustive_best_dags(rows, list(d.cardinalities), 4, 3)
        worst = max(worst, abs(got - best))
        if not any(markov_equivalent(g_hat, Dag.from_arcs(4, list(a))) for a in argmax):
            all_in_class = False
    check(
        worst <= 1e-9 and all_in_class and lib.seconds < 300.0,
        f"exact learner vs exhaustive enumeration: max score gap {worst:.3e} "
        f"over 50 instances, always Markov-equivalent to an enumerated optimum "
        f"({timing(lib, t0, 300.0)})",
    )


# ---------------------------------------------------------------------------
# 5. hiding a two-child common cause is invisible to d-separation


def _statements(g: Dag, observed: list[str]) -> frozenset:
    """Every true d-separation statement over the named observed nodes."""
    idx = {nm: g.names.index(nm) for nm in observed}
    out = set()
    for u, v in itertools.combinations(observed, 2):
        rest = [w for w in observed if w not in (u, v)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if d_separated(g, idx[u], idx[v], [idx[w] for w in z]):
                    out.add((frozenset((u, v)), frozenset(z)))
    return frozenset(out)


def test_hidden_common_cause_is_indistinguishable_by_statements():
    # three observed nodes: hidden-cause version vs plain arc version
    small_hidden = Dag.from_arcs(
        4, [(0, 2), (1, 3), (1, 2)], names=["D", "L", "B", "A"]
    )  # D->B, L->B, L->A
    small_plain = Dag.from_arcs(3, [(0, 1), (2, 1)], names=["A", "B", "D"])
    s_hidden = _statements(small_hidden, ["A", "B", "D"])
    s_plain = _statements(small_plain, ["A", "B", "D"])

    # four observed nodes: same construction with an extra observed parent
    big_hidden = Dag.from_arcs(
        5,
        [(0, 3), (3, 4), (1, 4), (2, 3), (2, 4)],
        names=["C", "D", "L", "A", "B"],
    )  # C->A, A->B, D->B, L->A, L->B
    big_plain = Dag.from_arcs(
        4,
        [(0, 2), (0, 3), (2, 3), (1, 3)],
        names=["C", "D", "A", "B"],
    )  # C->A, C->B, A->B, D->B
    b_hidden = _statements(big_hidden, ["A", "B", "C", "D"])
    b_plain = _statements(big_plain, ["A", "B", "C", "D"])

    check(
        s_hidden == s_plain and b_hidden == b_plain and s_hidden != b_plain,
        "hidden-cause projections: statement sets identical within both "
        f"scenario pairs ({len(s_hidden)} and {len(b_hidden)} statements), "
        "distinct across scenarios",
    )


# ---------------------------------------------------------------------------
# 6. noise-model conversion reproduces hand-computed reference rows


def _mech(parent_cards: list[int], card: int, n_noise: int, f) -> np.ndarray:
    """0/1 mechanism table: rows over (parent config, noise), noise fastest.

    ``f(pa, xi)`` gets parent states in id order and a 1-based noise index.
    """
    rows = []
    for pa in itertools.product(*(range(c) for c in parent_cards)):
        for xi in range(1, n_noise + 1):
            row = np.zeros(card)
            row[f(pa, xi)] = 1.0
            rows.append(row)
    return np.array(rows)


def test_noise_model_conversion_reference_values():
    # A -> C <- B, B -> D, C -> E <- D, E -> F; every noise term has 4 states.
    variables = [
        VariableMeta("A", ("a1", "a2")),
        VariableMeta("B", ("b1", "b2")),
        VariableMeta("C", ("a1", "a2", "b1", "b2")),
        VariableMeta("D", ("d1", "d2", "d3")),
        VariableMeta("E", ("e1", "e2", "e3")),
        VariableMeta("F", ("f1", "f2", "f3")),
    ]
    g = Dag.from_arcs(
        6,
        [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
        names=[v.name for v in variables],
    )
    disturbance = {
        0: np.array([0.2, 0.1, 0.3, 0.4]),
        1: np.array([0.2, 0.4, 0.3, 0.1]),
        2: np.array([0.3, 0.3, 0.2, 0.2]),
        3: np.array([0.5, 0.3, 0.1, 0.1]),
        4: np.array([0.1, 0.2, 0.3, 0.4]),
        5: np.array([0.2, 0.3, 0.3, 0.2]),
    }
    mechanism = {
        # root values chosen by thresholding / parity of the noise index
        0: _mech([], 2, 4, lambda pa, xi: 0 if xi <= 2 else 1),
        1: _mech([], 2, 4, lambda pa, xi: 0 if xi % 2 == 0 else 1),
        # C copies one of its parents, selected by the noise
        2: _mech([2, 2], 4, 4, lambda pa, xi: pa[0] if xi <= 2 else 2 + pa[1]),
        3: _mech(
            [2],
            3,
            4,
            lambda pa, xi: 0
            if pa[0] == 0 and xi % 2 == 1
            else (1 if pa[0] == 1 and xi == 2 else 2),
        ),
        # E looks at which parent C copied (its state's original owner)
        4: _mech(
            [4, 3],
            3,
            4,
            lambda pa, xi: 0
            if pa[0] in (0, 2) and xi <= 2
            else (1 if pa[0] in (1, 3) and pa[1] == 1 else 2),
        ),
        5: _mech(
            [3],
            3,
            4,
            lambda pa, xi: 0 if xi == 1 else (1 if pa[0] in (0, 2) and xi == 2 else 2),
        ),
    }
    bn = causal_model_to_bn(CausalModel(variables, g, disturbance, mechanism))

    targets = [
        (bn.cpts[0][0], [0.3, 0.7]),
        (bn.cpts[1][0], [0.5, 0.5]),
        (bn.cpts[3][0], [0.6, 0.0, 0.4]),  # D given B=b1
        (bn.cpts[5][1], [0.2, 0.0, 0.8]),  # F given E=e2
    ]
    worst = max(float(np.abs(got - np.array(want)).max()) for got, want in targets)
    check(
        worst <= 1e-12,
        f"noise-model conversion: 4 hand-computed rows reproduced, "
        f"max |diff| {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. the planted two-child confounder is actually found


def test_planted_confounder_recovery_rate():
    t0 = time.perf_counter()
    hits = 0
    spurious = 0
    for seed in range(20):
        res = discover_confounders(planted_dataset(50000, seed=seed))
        pairs = [
            frozenset((res.dag.names[i], res.dag.names[j]))
            for _, (i, j) in res.latents
        ]
        hits += frozenset(("A", "B")) in pairs
        spurious += sum(p != frozenset(("A", "B")) for p in pairs)
    dt = time.perf_counter() - t0
    check(
        hits >= 10 and spurious / 20 < 0.5 and dt < 600.0,
        f"planted confounder: recovered with correct child pair in {hits}/20 "
        f"seeds, {spurious / 20:.2f} spurious per run ({dt:.0f} s, budget 600 s)",
    )


# ---------------------------------------------------------------------------
# 8. recall and precision trends on the 20-node screening network


def test_screening_net_trend_with_sample_size():
    t0 = time.perf_counter()
    bn = bn_from_json((ASSETS / "child.json").read_text())
    csv_text, failures, _times = run_benchmark(
        bn,
        [5000, 50000],
        reps=10,
        injection=InjectionConfig(n_confounders=2, latent_cardinality=2, seed=0),
        learner=LearnerConfig(),
    )
    rows = {
        int(line.split(",")[0]): line.split(",")
        for line in csv_text.strip().splitlines()[1:]
    }
    recall_small = float(rows[5000][4])
    recall_large = float(rows[50000][4])
    precision_large = float(rows[50000][3])
    dt = time.perf_counter() - t0
    check(
        not failures
        and recall_large >= recall_small
        and precision_large >= 0.6
        and dt < 1800.0,
        f"screening-net trend: recall {recall_small:.2f} @ 5000 rows -> "
        f"{recall_large:.2f} @ 50000, precision {precision_large:.2f} @ 50000 "
        f"({dt:.0f} s, budget 1800 s)",
    )


# ---------------------------------------------------------------------------
# 9. chi-square critical values against standard tables


def test_chi_square_critical_reference_values():
    refs = [((1, 0.05), 3.841), ((4, 0.05), 9.488), ((10, 0.01), 23.209)]
    worst = max(abs(chi2_critical(dof, a) - want) for (dof, a), want in refs)
    check(
        worst <= 1e-3,
        f"chi-square critical values: 3 standard-table entries matched, "
        f"max |diff| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 10. the post-learning phase grows mildly with the row count


def test_post_learning_phase_scales_mildly_in_rows():
    bn = bn_from_json((ASSETS / "child.json").read_text())
    injected, _truth = inject_confounders(
        bn, InjectionConfig(n_confounders=2, latent_cardinality=2, seed=0)
    )
    observed = [v.name for v in bn.variables]

    def post_time(n_rows: int) -> float:
        d = project(sample(injected, n_rows, seed=1), observed)
        # best of two runs: the post phase sits in the hundreds of
        # milliseconds, where a single scheduler hiccup could dominate
        return min(discover_confounders(d).post_seconds for _ in range(2))

    t20 = post_time(20000)
    t40 = post_time(40000)
    check(
        t40 <= 3.0 * t20,
        f"post-learning scaling: {t40:.2f} s at 40000 rows vs {t20:.2f} s at "
        f"20000 (ratio {t40 / t20:.2f}, bound 3.0)",
    )
