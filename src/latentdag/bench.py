"""Synthetic-benchmark machinery: generative discrete Bayesian networks,
forward sampling, confounder injection with admissibility screening,
mutual information, evaluation metrics, and the causal-model conversion.

The injection protocol mirrors the evaluation it feeds: a latent L with a
uniform marginal is wired to two eligible observed children, whose
conditional tables are redrawn from a Dirichlet/point-mass mixture until the
pair is at least as dependent (marginally and given their parents) as an
average common-parent pair of the original network. That screening keeps
"undetectable in principle" confounders out of the truth set.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .ci import DEFAULT_H, check_probe_options
from .data import Dataset, VariableMeta, _check_integer, _repeated, project, row_codes
from .graphs import Dag, Pdag, cpdag_of
from .scoring import DEFAULT_ALPHA

__all__ = [
    "DiscreteBayesNet",
    "CausalModel",
    "InjectionConfig",
    "InjectionError",
    "EvalReport",
    "sample",
    "inject_confounders",
    "mutual_information",
    "compare_confounders",
    "compare_cpdags",
    "causal_model_to_bn",
    "bn_to_json",
    "bn_from_json",
    "run_benchmark",
]

# mutual information gives up its single elimination pass over the targets'
# ancestral set at the first factor past this many cells and takes the
# sampled (plug-in) route. A query whose whole-network elimination would pass
# it may still be exact; on the shipped assets no query comes near it
# (largest factor 64 cells on net20, 3,240 on child)
EXACT_JOINT_CEILING = 10_000_000
PLUGIN_SAMPLE_ROWS = 100_000
_PLUGIN_SEED = 0xA5


class InjectionError(RuntimeError):
    """Raised when no admissible confounder placement can be drawn."""


@dataclass
class DiscreteBayesNet:
    """Generative model: DAG + per-node conditional probability tables.

    ``cpts[x]`` has shape ``(n_parent_configs, cardinality of x)``; rows are
    indexed lexicographically over the parents sorted by variable id (same
    convention as :func:`latentdag.data.row_codes`) and each row sums to one.
    """

    variables: list[VariableMeta]
    dag: Dag
    cpts: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        if self.dag.n_nodes != len(self.variables):
            raise ValueError("graph size does not match variable list")
        # the variable list owns the names; a dag built with placeholder
        # names would otherwise leak them into comparisons downstream
        names = [v.name for v in self.variables]
        if self.dag.names != names:
            self.dag = self.dag.copy()
            self.dag.names = names
        for x in range(self.dag.n_nodes):
            if x not in self.cpts:
                raise ValueError(f"variable {names[x]!r} has no entry in 'cpts'")
            self.cpts[x] = np.asarray(self.cpts[x], dtype=float)
            card = self.variables[x].cardinality
            n_cfg = math.prod(self.variables[p].cardinality for p in self.dag.parents(x))
            if self.cpts[x].shape != (n_cfg, card):
                raise ValueError(
                    f"CPT of {self.variables[x].name!r} has shape "
                    f"{self.cpts[x].shape}, expected {(n_cfg, card)}"
                )
            if not (np.isfinite(self.cpts[x]) & (self.cpts[x] >= 0)).all():
                raise ValueError(f"CPT of {names[x]!r} has a negative or non-finite entry")
            sums = self.cpts[x].sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise ValueError(
                    f"CPT rows of {self.variables[x].name!r} do not sum to 1"
                )

    @property
    def n_nodes(self) -> int:
        return self.dag.n_nodes

    def cardinality(self, x: int) -> int:
        return self.variables[x].cardinality

    def id_of(self, name: str) -> int:
        return self.dag.id_of(name)

    def copy(self) -> "DiscreteBayesNet":
        return DiscreteBayesNet(
            variables=list(self.variables),
            dag=self.dag.copy(),
            cpts={x: self.cpts[x].copy() for x in self.cpts},
        )


def bn_to_json(bn: DiscreteBayesNet) -> str:
    doc = {
        "variables": [
            {"name": v.name, "states": list(v.states)} for v in bn.variables
        ],
        "arcs": [
            [bn.variables[u].name, bn.variables[v].name] for u, v in bn.dag.arcs()
        ],
        "cpts": {
            bn.variables[x].name: [float(p) for p in bn.cpts[x].ravel()]
            for x in range(bn.n_nodes)
        },
    }
    return json.dumps(doc, indent=2)


def bn_from_json(text: str) -> DiscreteBayesNet:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"network JSON must be an object, not {type(doc).__name__}")
    for key, kind in (("variables", list), ("arcs", list), ("cpts", dict)):
        if key not in doc:
            raise ValueError(f"network JSON has no {key!r} key")
        if not isinstance(doc[key], kind):
            raise ValueError(f"network JSON's {key!r} must be a {kind.__name__}, "
                             f"not {type(doc[key]).__name__}")
    variables = []
    for i, v in enumerate(doc["variables"]):
        if not isinstance(v, dict):
            raise ValueError(f"variable number {i} is not an object: {v!r}")
        for attr in ("name", "states"):
            if attr not in v:
                who = repr(v["name"]) if "name" in v else f"number {i}"
                raise ValueError(f"variable {who} has no {attr!r} field")
        name, states = v["name"], v["states"]
        if not isinstance(name, str):
            raise ValueError(f"variable number {i} has a 'name' that is not a string: {name!r}")
        if not (isinstance(states, list)
                and all(isinstance(s, (str, int, float)) for s in states)):
            raise ValueError(f"variable {name!r} has 'states' that are not a list of "
                             f"labels: {states!r}")
        variables.append(VariableMeta(name, tuple(states)))
    idx = {v.name: i for i, v in enumerate(variables)}

    def declared(name, field: str) -> int:
        if name not in idx:
            raise ValueError(f"{field} names undeclared variable {name!r}")
        return idx[name]

    dag = Dag(len(variables), [v.name for v in variables])
    for arc in doc["arcs"]:
        if not (isinstance(arc, list) and len(arc) == 2
                and all(isinstance(a, str) for a in arc)):
            raise ValueError(f"'arcs' entry {arc!r} is not a [from, to] pair of names")
        dag.add_arc(declared(arc[0], "'arcs'"), declared(arc[1], "'arcs'"))
    cpts = {}
    for name, flat in doc["cpts"].items():
        x = declared(name, "'cpts'")
        card = variables[x].cardinality
        if not (isinstance(flat, list) and all(
                isinstance(p, (int, float)) and not isinstance(p, bool) for p in flat)):
            raise ValueError(f"CPT of {name!r} is not a flat list of numbers: {flat!r}")
        flat = np.asarray(flat, dtype=float)
        if flat.size % card:
            raise ValueError(f"CPT of {name!r} has {flat.size} entries, not a multiple of {card}")
        cpts[x] = flat.reshape(-1, card)
    return DiscreteBayesNet(variables=variables, dag=dag, cpts=cpts)


# ---------------------------------------------------------------------------
# sampling

def sample(bn: DiscreteBayesNet, n: int, seed: int = 0) -> Dataset:
    """Draw ``n`` rows by ancestral sampling (deterministic given the seed)."""
    _check_integer("row count", n)
    _check_integer("seed", seed)
    if n < 0:
        raise ValueError(f"row count must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    cards = [v.cardinality for v in bn.variables]
    cols = np.zeros((bn.n_nodes, n), dtype=np.int64)
    for x in bn.dag.topological_order():
        ps = sorted(bn.dag.parents(x))
        card = cards[x]
        if ps:
            rows = bn.cpts[x][row_codes(cols, cards, ps)]
        else:
            rows = np.broadcast_to(bn.cpts[x][0], (n, card))
        u = rng.random(n)
        draws = (u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1)
        cols[x] = np.minimum(draws, card - 1)
    return Dataset(list(bn.variables), cols.T)


# ---------------------------------------------------------------------------
# exact inference (variable elimination) and mutual information

def _check_targets(bn: DiscreteBayesNet, targets: tuple[int, ...]) -> tuple[int, ...]:
    """The targets as node ids checked by the network's graph; a target
    named twice raises ``ValueError``."""
    targets = tuple(bn.dag._check(t) for t in targets)
    repeated = _repeated(targets)
    if repeated is not None:
        raise ValueError(f"node id {repeated} is named twice")
    return targets


def _ancestral(bn: DiscreteBayesNet, targets: tuple[int, ...]) -> list[int]:
    """The targets and their ancestors, ascending. Every other node is
    barren for P(targets): its factor sums out to one."""
    return sorted(set(targets).union(*(bn.dag.ancestors(t) for t in targets)))


def _eliminate(bn: DiscreteBayesNet, targets: tuple[int, ...],
               ceiling: float = math.inf) -> np.ndarray | None:
    """P(targets), axes in the given order, by variable elimination over the
    targets' ancestral set; None at the first factor past ``ceiling`` cells.

    Each round sums out the variable whose merged factor, less that variable,
    has the fewest cells (lowest id on ties); the last round multiplies what
    is left. Factors keep their axes in ascending id order, and each product
    is sized before it is built. Every CPT enters one of those products, so
    no smaller factor can pass the ceiling first.
    """
    nodes = _ancestral(bn, targets)
    cards = {x: bn.cardinality(x) for x in nodes}

    def cells(vs) -> int:
        return math.prod([cards[v] for v in vs])

    factors = []
    for x in nodes:
        family = sorted(bn.dag.parents(x)) + [x]
        axes = tuple(sorted(family))
        tab = bn.cpts[x].reshape([cards[v] for v in family])
        factors.append((axes, tab.transpose([family.index(v) for v in axes])))

    def merged_scope(y) -> set[int]:
        """The variables of the factors that hold y; of all of them for None."""
        return set().union(*[a for a, _ in factors if y is None or y in a])

    hidden = sorted(set(nodes) - set(targets))
    while True:
        y = min(hidden, default=None, key=lambda v: cells(merged_scope(v) - {v}))
        merged = [f for f in factors if y is None or y in f[0]]
        axes = tuple(sorted(merged_scope(y)))
        if cells(axes) > ceiling:
            return None
        out = np.ones([cards[v] for v in axes])
        for a, tab in merged:
            out = out * tab[tuple([slice(None) if v in a else None for v in axes])]
        if y is None:
            return np.transpose(out, [axes.index(t) for t in targets])
        factors = [f for f in factors if y not in f[0]]
        factors.append((tuple(v for v in axes if v != y), out.sum(axis=axes.index(y))))
        hidden.remove(y)


def joint_marginal(bn: DiscreteBayesNet, targets: tuple[int, ...]) -> np.ndarray:
    """Exact P(targets) with axes in the given order, by variable elimination
    (greedy smallest-intermediate-factor order)."""
    return _eliminate(bn, _check_targets(bn, targets))


def _mi_from_joint(j: np.ndarray) -> float:
    """I(X;Y|Z) from a table with axes (x, y, *z); natural log."""
    if j.ndim < 2:
        raise ValueError("joint must have at least the two target axes")
    j = j.reshape(j.shape[0], j.shape[1], -1)
    total = j.sum()
    if total <= 0:
        return 0.0
    p = j / total
    pz = p.sum(axis=(0, 1), keepdims=True)
    pxz = p.sum(axis=1, keepdims=True)
    pyz = p.sum(axis=0, keepdims=True)
    pos = p > 0
    ratio = np.divide(p * pz, pxz * pyz, out=np.ones_like(p), where=pos)
    return float((p * np.log(ratio, where=pos, out=np.zeros_like(p)))[pos].sum())


def mutual_information(bn: DiscreteBayesNet, x: int, y: int, given=()) -> float:
    """I(x; y | given) under the network's distribution.

    Exact via one variable-elimination pass over the ancestors of x, y and
    ``given`` (a sparse 20-node network passes easily even though its full
    joint would not). The pass gives up at the first factor past
    ``EXACT_JOINT_CEILING`` cells, and the answer is then a plug-in estimate
    from a fixed-seed auxiliary sample of ``PLUGIN_SAMPLE_ROWS`` rows. An id
    outside the network raises ``KeyError``, and one named twice
    ``ValueError``.
    """
    targets = _check_targets(bn, (x, y, *sorted(set(given))))
    joint = _eliminate(bn, targets, EXACT_JOINT_CEILING)
    if joint is not None:
        return _mi_from_joint(joint)
    d = sample(bn, PLUGIN_SAMPLE_ROWS, seed=_PLUGIN_SEED)
    shape = tuple(bn.cardinality(v) for v in targets)
    flat = row_codes(d.values.T, d.cardinalities, targets)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape).astype(float)
    return _mi_from_joint(counts)


# ---------------------------------------------------------------------------
# confounder injection

# injected CPT rows: a point mass of weight ~ U[DIRAC_LOW, DIRAC_HIGH] plus a Dirichlet(DIRICHLET) draw
DIRICHLET = 4.0
DIRAC_LOW = 2.0 / 3.0
DIRAC_HIGH = 5.0 / 6.0
# table draws per placement before injection gives up
MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class InjectionConfig:
    n_confounders: int = 2
    latent_cardinality: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_confounders", "latent_cardinality", "seed"):
            _check_integer(name, getattr(self, name))
        if self.n_confounders < 0:
            raise ValueError("n_confounders must be >= 0")
        if self.latent_cardinality < 2:
            raise ValueError("latent domain needs at least two states")


def _mixture_cpt(n_cfg: int, card: int, rng: np.random.Generator) -> np.ndarray:
    """Per-row mixture of a point mass (weight ~ U[DIRAC_LOW, DIRAC_HIGH],
    atom uniform) and a symmetric Dirichlet draw."""
    cpt = np.empty((n_cfg, card))
    for r in range(n_cfg):
        w = rng.uniform(DIRAC_LOW, DIRAC_HIGH)
        atom = int(rng.integers(card))
        row = (1.0 - w) * rng.dirichlet([DIRICHLET] * card)
        row[atom] += w
        cpt[r] = row
    return cpt


def dependence_thresholds(bn: DiscreteBayesNet) -> tuple[float, float]:
    """Average MI and conditional MI over all pairs sharing a parent.

    For each unordered pair (x, y) with a common parent, the conditional MI
    is taken given (Pa(x) ∪ Pa(y)) \\ {x, y}. Returns (0, 0) when the net has
    no such pair.
    """
    mis, cmis = [], []
    for x in range(bn.n_nodes):
        for y in range(x + 1, bn.n_nodes):
            if not (bn.dag.parents(x) & bn.dag.parents(y)):
                continue
            given = tuple(sorted((bn.dag.parents(x) | bn.dag.parents(y)) - {x, y}))
            mis.append(mutual_information(bn, x, y))
            cmis.append(mutual_information(bn, x, y, given))
    if not mis:
        return 0.0, 0.0
    return float(np.mean(mis)), float(np.mean(cmis))


# the last network inject_confounders screened: its content and thresholds
_last_thresholds: tuple[tuple, tuple[float, float]] | None = None


def _thresholds_of(bn: DiscreteBayesNet) -> tuple[float, float]:
    """``dependence_thresholds(bn)``, computed again only when the network's
    variables, arcs or table bytes differ from the last one's."""
    global _last_thresholds
    cpts = (bn.cpts[x] for x in range(bn.n_nodes))
    key = (tuple(bn.variables), tuple(bn.dag.arcs()),
           tuple((c.dtype.str, c.shape, c.tobytes()) for c in cpts))
    if _last_thresholds is None or _last_thresholds[0] != key:
        _last_thresholds = (key, dependence_thresholds(bn))
    return _last_thresholds[1]


def inject_confounders(bn: DiscreteBayesNet, cfg: InjectionConfig
                       ) -> tuple[DiscreteBayesNet, list[tuple[str, tuple[str, str]]]]:
    """Add ``cfg.n_confounders`` latent common causes to a copy of ``bn``.

    Children are drawn uniformly among unordered pairs of observed nodes that
    each have one or two observed parents and are not already a child of an
    earlier latent. Each child's CPT is redrawn from the point-mass/Dirichlet
    mixture until the pair clears the original network's average dependence
    thresholds; a placement that cannot clear them within
    ``MAX_ATTEMPTS`` draws raises :class:`InjectionError`. The thresholds of
    the last network seen are kept, so repeated injections into one network
    compute them once.

    Returns the augmented network and the truth list
    ``[(latent name, (child name, child name)), ...]``.
    """
    if cfg.n_confounders == 0:
        return bn.copy(), []

    n_obs = bn.n_nodes
    thr_mi, thr_cmi = _thresholds_of(bn)
    rng = np.random.default_rng(cfg.seed)

    out = bn.copy()
    truth: list[tuple[str, tuple[str, str]]] = []
    used: set[int] = set()
    eligible = [
        x for x in range(n_obs) if 1 <= len(bn.dag.parents(x)) <= 2
    ]
    for i in range(cfg.n_confounders):
        pool = [x for x in eligible if x not in used]
        pairs = [(a, b) for ai, a in enumerate(pool) for b in pool[ai + 1:]]
        if not pairs:
            raise InjectionError(
                f"no eligible child pair left for confounder {i + 1}"
            )
        a, b = pairs[int(rng.integers(len(pairs)))]
        name = f"L{i + 1}"
        lid = out.dag.add_node(name)
        out.variables.append(
            VariableMeta(name, tuple(f"s{j}" for j in range(cfg.latent_cardinality)))
        )
        out.cpts[lid] = np.full((1, cfg.latent_cardinality), 1.0 / cfg.latent_cardinality)
        out.dag.add_arc(lid, a)
        out.dag.add_arc(lid, b)

        observed_parents = (
            {p for p in out.dag.parents(a) if p < n_obs}
            | {p for p in out.dag.parents(b) if p < n_obs}
        ) - {a, b}
        given = tuple(sorted(observed_parents))

        for attempt in range(MAX_ATTEMPTS):
            for child in (a, b):
                card = out.cardinality(child)
                n_cfg = math.prod(out.cardinality(p) for p in out.dag.parents(child))
                out.cpts[child] = _mixture_cpt(n_cfg, card, rng)
            if (
                mutual_information(out, a, b) > thr_mi
                and mutual_information(out, a, b, given) > thr_cmi
            ):
                break
        else:
            raise InjectionError(
                f"confounder {name} on ({out.variables[a].name}, "
                f"{out.variables[b].name}): no admissible tables in "
                f"{MAX_ATTEMPTS} draws"
            )
        used.update((a, b))
        truth.append((name, (out.variables[a].name, out.variables[b].name)))
    # revalidate shapes/sums after the in-place CPT edits
    return DiscreteBayesNet(out.variables, out.dag, out.cpts), truth


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    """Metric bundle; confounder-level and link-level parts may be filled
    independently. ``precision``/``recall``/``f1`` are None when undefined
    (zero denominator)."""

    ok: int | None = None
    not_ok: int | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    cpdag_ok: int | None = None
    miss: int | None = None
    rev: int | None = None
    type_err: int | None = None
    xs: int | None = None


def compare_confounders(truth: list[tuple[str, tuple[str, str]]],
                        learned) -> EvalReport:
    """Match learned latents to true ones by unordered child pair.

    ``learned`` is either a discovery result (its latent list is read off the
    rewired graph, with ids translated to names) or an explicit list of
    ``(latent name, (child name, child name))``. Each true latent can be
    matched at most once; surplus learned latents (including duplicates of an
    already-matched pair) count against precision.
    """
    if hasattr(learned, "latents") and hasattr(learned, "dag"):
        names = learned.dag.names
        learned = [
            (name, (names[a], names[b])) for name, (a, b) in learned.latents
        ]
    ok = sum((Counter(frozenset(pair) for _, pair in truth)
              & Counter(frozenset(pair) for _, pair in learned)).values())
    not_ok = len(learned) - ok
    precision, recall, f1 = _precision_recall_f1(ok, not_ok, len(truth))
    return EvalReport(ok=ok, not_ok=not_ok, precision=precision, recall=recall, f1=f1)


def _precision_recall_f1(ok: int, not_ok: int, n_truth: int) -> tuple:
    """Precision, recall and F1 of ``ok`` hits and ``not_ok`` false claims
    against ``n_truth`` true items; None where a denominator is zero."""
    precision = ok / (ok + not_ok) if ok + not_ok else None
    recall = ok / n_truth if n_truth else None
    if precision is None or recall is None or precision + recall == 0:
        return precision, recall, None
    return precision, recall, 2 * precision * recall / (precision + recall)


def compare_cpdags(truth: Pdag, learned: Pdag) -> EvalReport:
    """Count link agreements between two equivalence-class graphs.

    Observed nodes are aligned by name. Each truth latent (per the graphs'
    latent annotations) keys its links by its own name; a learnt latent
    claims a truth latent over the same unordered child pair, each truth
    latent at most once, and takes its key. Unmatched latents keep their
    links, which then surface as misses or excesses.
    """
    t_latent = {name for name, _ in truth.latents}
    l_latent = {name for name, _ in learned.latents}
    t_obs = {n for n in truth.names if n not in t_latent}
    l_obs = {n for n in learned.names if n not in l_latent}
    if t_obs != l_obs:
        raise ValueError("graphs disagree on the observed node set")

    # shared identifier space: observed names, truth latents, then the
    # unmatched learnt latents
    t_pairs = {name: frozenset({truth.names[a], truth.names[b]}) for name, (a, b) in truth.latents}
    l_pairs = {name: frozenset({learned.names[a], learned.names[b]}) for name, (a, b) in learned.latents}
    unclaimed = dict(t_pairs)
    t_matched = {name: f"lat:{name}" for name in t_pairs}
    l_matched = {}
    for name, pair in sorted(l_pairs.items()):
        hit = next((tn for tn, tp in sorted(unclaimed.items()) if tp == pair), None)
        if hit is not None:
            del unclaimed[hit]
            l_matched[name] = t_matched[hit]
        else:
            l_matched[name] = f"extra:{name}"

    def links_by_key(p: Pdag, matched: dict[str, str]) -> dict[frozenset, str]:
        """Each link as {its two keys: "from->to", or "-" when undirected}."""
        key = [matched.get(name, f"obs:{name}") for name in p.names]
        out = {frozenset((key[u], key[v])): f"{key[u]}->{key[v]}" for u, v in p.directed}
        out.update((frozenset((key[u], key[v])), "-") for u, v in p.undirected)
        return out

    t_links = links_by_key(truth, t_matched)
    l_links = links_by_key(learned, l_matched)

    ok = rev = type_err = 0
    miss = sum(1 for k in t_links if k not in l_links)
    xs = sum(1 for k in l_links if k not in t_links)
    for k, tmark in t_links.items():
        lmark = l_links.get(k)
        if lmark is None:
            continue
        if tmark == lmark:
            ok += 1
        elif tmark == "-" or lmark == "-":
            type_err += 1
        else:
            rev += 1
    return EvalReport(cpdag_ok=ok, miss=miss, rev=rev, type_err=type_err, xs=xs)


# ---------------------------------------------------------------------------
# deterministic-mechanism models

@dataclass
class CausalModel:
    """Structural model with explicit noise: each node is a deterministic
    function of its parents and a private disturbance.

    ``mechanism[x]`` is a 0/1 table of shape
    ``(n_parent_configs * |dom disturbance|, |dom x|)`` whose rows are indexed
    lexicographically over the sorted parents with the disturbance as the
    fastest-varying (last) digit; row ``(pa, xi)`` puts probability one on
    ``f_x(pa, xi)``. ``disturbance[x]`` is the distribution of that noise.
    """

    variables: list[VariableMeta]
    dag: Dag
    disturbance: dict[int, np.ndarray]
    mechanism: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        for x in range(self.dag.n_nodes):
            pxi = np.asarray(self.disturbance[x], dtype=float)
            if not (np.isfinite(pxi) & (pxi >= 0)).all():
                raise ValueError(f"disturbance of node {x} has a negative or non-finite entry")
            if abs(pxi.sum() - 1.0) > 1e-9:
                raise ValueError(f"disturbance of node {x} does not sum to 1")
            tab = np.asarray(self.mechanism[x], dtype=float)
            card = self.variables[x].cardinality
            n_cfg = math.prod(self.variables[p].cardinality for p in self.dag.parents(x))
            want = (n_cfg * pxi.size, card)
            if tab.shape != want:
                raise ValueError(
                    f"mechanism of node {x} has shape {tab.shape}, expected {want}"
                )
            if not np.array_equal(tab, tab.astype(bool).astype(float)):
                raise ValueError(f"mechanism of node {x} is not a 0/1 table")
            if not np.array_equal(tab.sum(axis=1), np.ones(tab.shape[0])):
                raise ValueError(
                    f"mechanism of node {x} must have exactly one 1 per row"
                )
            self.disturbance[x] = pxi
            self.mechanism[x] = tab


def causal_model_to_bn(cm: CausalModel) -> DiscreteBayesNet:
    """Marginalise each node's disturbance out of its mechanism:
    P(x | pa) = sum_xi P(xi) * [f_x(pa, xi) = x]."""
    cpts = {}
    for x in range(cm.dag.n_nodes):
        pxi = cm.disturbance[x]
        card = cm.variables[x].cardinality
        tab = cm.mechanism[x].reshape(-1, pxi.size, card)
        cpts[x] = np.einsum("rjc,j->rc", tab, pxi)
    return DiscreteBayesNet(list(cm.variables), cm.dag.copy(), cpts)


# ---------------------------------------------------------------------------
# benchmark grid


def _truth_pdag(net: DiscreteBayesNet,
                truth: list[tuple[str, tuple[str, str]]]) -> Pdag:
    """CPDAG of the generative DAG with the injected latents annotated."""
    p = cpdag_of(net.dag)
    for name, (a, b) in truth:
        p.latents.append((name, (net.id_of(a), net.id_of(b))))
    return p


def _run_rep(bn: DiscreteBayesNet, sizes: list[int], injection: InjectionConfig, learner,
             h: int, alpha: float, rep: int):
    """Repetition ``rep``: inject once, then sample/learn/evaluate every size.

    Top-level so process pools can pickle it. Returns the rows, each a flat
    metric dict, or the message on injection failure.
    """
    from .confounder import discover_confounders

    inj = replace(injection, seed=injection.seed + 1_000_003 * (rep + 1))
    try:
        injected, truth = inject_confounders(bn, inj)
    except InjectionError as exc:
        return str(exc)

    observed = [v.name for v in bn.variables]
    tp = _truth_pdag(injected, truth)
    rows = []
    for s_idx, size in enumerate(sizes):
        full = sample(injected, size,
                      seed=injection.seed + 7_919 * (rep + 1) + s_idx)
        data = project(full, observed)
        result = discover_confounders(data, learner, h=h, alpha=alpha)
        conf = compare_confounders(truth, result)
        struct = compare_cpdags(tp, result.cpdag)
        rows.append({
            "size": size,
            "ok": conf.ok,
            "nok": conf.not_ok,
            "truth": len(truth),
            "cpdag_ok": struct.cpdag_ok,
            "miss": struct.miss,
            "rev": struct.rev,
            "type": struct.type_err,
            "xs": struct.xs,
            "learn_s": result.learn_seconds,
            "post_s": result.post_seconds,
        })
    return rows


def run_benchmark(bn: DiscreteBayesNet, sizes: list[int], reps: int,
                  injection: InjectionConfig, learner,
                  h: int = DEFAULT_H, alpha: float = DEFAULT_ALPHA
                  ) -> tuple[str, list[str], list[str]]:
    """Grid over dataset sizes x repetitions.

    Each repetition injects confounders into a fresh copy of ``bn`` (seeded
    deterministically from ``injection.seed`` and the repetition index) and is
    evaluated at every size, so size columns are paired.  Returns
    ``(csv_text, failure_messages, timing_lines)``; counts in the table are
    per-repetition means, precision/recall/f1 are pooled over repetitions.
    Wall-clock timings stay out of the table so identical seeds give
    byte-identical files.

    The repetitions run in a pool of as many processes as the package's CPU
    rule (``learner._cpu_budget``) allows, at most one per repetition, or in
    this process when that is one, as inside a ``multiprocessing`` child.
    Pool workers build their score tables serially, so the grid keeps to
    the usable CPUs. The first failed
    repetition in index order raises its error as soon as it and every
    repetition before it are done; the pool's workers are then stopped, so
    no other repetition runs on.
    """
    from .learner import _cpu_budget

    _check_integer("reps", reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    for size in sizes:
        _check_integer("dataset size", size)
        if size < 1:
            raise ValueError(f"dataset size {size} must be >= 1")
    check_probe_options(h, alpha)
    run_rep = functools.partial(_run_rep, bn, sizes, injection, learner, h, alpha)
    workers = min(reps, _cpu_budget())
    if workers > 1:
        import multiprocessing

        # leaving the block terminates the workers, busy or not
        with multiprocessing.Pool(workers) as pool:
            outcomes = list(pool.imap(run_rep, range(reps)))
    else:
        outcomes = list(map(run_rep, range(reps)))

    failures = [f"repetition {r}: injection failed: {out}"
                for r, out in enumerate(outcomes) if isinstance(out, str)]
    done = [out for out in outcomes if not isinstance(out, str)]

    def fmt(v) -> str:
        return "na" if v is None else f"{v:.4f}"

    lines = ["size,ok,nok,precision,recall,f1,cpdag_ok,miss,rev,type,xs"]
    times = []
    for size in sizes:
        rows = [row for out in done for row in out if row["size"] == size]
        if not rows:
            continue
        n = len(rows)
        tot_ok = sum(r["ok"] for r in rows)
        tot_nok = sum(r["nok"] for r in rows)
        tot_truth = sum(r["truth"] for r in rows)
        precision, recall, f1 = _precision_recall_f1(tot_ok, tot_nok, tot_truth)
        cells = [str(size), fmt(tot_ok / n), fmt(tot_nok / n), fmt(precision),
                 fmt(recall), fmt(f1)]
        cells += [fmt(sum(r[k] for r in rows) / n)
                  for k in ("cpdag_ok", "miss", "rev", "type", "xs")]
        lines.append(",".join(cells))
        times.append(
            f"size {size}: mean learn {sum(r['learn_s'] for r in rows) / n:.2f}s,"
            f" mean post {sum(r['post_s'] for r in rows) / n:.2f}s"
            f" over {n} repetitions"
        )
    return "\n".join(lines), failures, times
