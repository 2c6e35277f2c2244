"""Latent-confounder discovery on top of a learnt DAG.

An unmodelled common cause of two variables leaves a footprint in a
score-learnt DAG: a directed 3-clique ("triangle") whose arcs are partly
spurious. This module enumerates the triangles, probes each with greedy
conditional-independence searches, keeps the ones whose independence pattern
matches a confounder footprint, rewires them around a fresh latent node, and
emits the equivalence-class graph of the result.

Triangle anatomy. A directed 3-clique always has one node of out-degree 2
(the *source*), one of in-degree 2 (the *sink*) and one *middle*. Two
footprints are actionable:

* PARENT_SIDE — pattern ``C -> A -> B`` with ``C -> B``: the confounder's
  children are the middle and the sink, and the extra node C sits upstream
  (it is a parent of child A). The (sink, source) pair separates given some
  Z, but conditioning additionally on the middle reconnects it.
* CHILD_SIDE — pattern ``A -> B -> C`` with ``A -> C``: the confounder's
  children are the source and the middle, and the extra node C sits
  downstream (a child of B). Here the (middle, sink) pair plays that role.

A third orientation exists (its separable pair would be (source, middle))
but accounts for well under 1% of confounder footprints and is deliberately
not acted on; such triangles are reported as GENUINE.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum

from .ci import DEFAULT_H, SeparatorQuery, SeparatorResult, check_probe_options, find_separator
from .data import Dataset
from .graphs import Dag, Pdag, cpdag_of
from .learner import LearnerConfig, learn
from .scoring import DEFAULT_ALPHA, ScoreContext, is_independent

__all__ = [
    "Triangle",
    "TriangleVerdict",
    "TriangleClassification",
    "AugmentedResult",
    "enumerate_triangles",
    "classify_triangle",
    "confirm_parent_side",
    "confirm_child_side",
    "recreate_latents",
    "discover_confounders",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class Triangle:
    """A directed 3-clique in canonical role order."""

    source: int  # out-degree 2 within the clique
    middle: int
    sink: int  # in-degree 2 within the clique

    @property
    def nodes(self) -> tuple[int, int, int]:
        return (self.source, self.middle, self.sink)


class TriangleVerdict(Enum):
    GENUINE = "genuine"
    PARENT_SIDE = "parent_side"
    CHILD_SIDE = "child_side"


@dataclass
class TriangleClassification:
    """Probe outcome for one triangle.

    ``latent_children`` is the ordered pair (A, B): A keeps its other
    neighbourhood, B is the node whose spurious in-arc A -> B gets removed
    when the latent is recreated. ``outside`` is the remaining clique node C.
    ``witness`` is the separating set found for the (B, C) pair; ``support``
    (CHILD_SIDE only, filled by :func:`confirm_child_side`) is the (D, Z)
    pair proving some other neighbour of B separates from C with A forced
    into the conditioning set.
    """

    triangle: Triangle
    verdict: TriangleVerdict
    latent_children: tuple[int, int] | None = None
    outside: int | None = None
    witness: frozenset[int] | None = None
    support: tuple[int, frozenset[int]] | None = None
    pair_results: dict[tuple[int, int], tuple[bool, bool]] = field(default_factory=dict)


@dataclass
class AugmentedResult:
    """Final product of a discovery run."""

    dag: Dag  # learnt DAG rewired with latent nodes
    latents: list[tuple[str, tuple[int, int]]]
    cpdag: Pdag
    classifications: list[TriangleClassification] = field(default_factory=list)
    conflicts: list[Triangle] = field(default_factory=list)
    learn_seconds: float = 0.0
    post_seconds: float = 0.0


def enumerate_triangles(g: Dag) -> list[Triangle]:
    """All directed 3-cliques, canonical (source, middle, sink), sorted."""
    out = []
    for x in range(g.n_nodes):
        for y in range(x + 1, g.n_nodes):
            if not g.adjacent(x, y):
                continue
            for z in range(y + 1, g.n_nodes):
                if g.adjacent(x, z) and g.adjacent(y, z):
                    # out-degrees inside the clique are 2, 1 and 0
                    trio = (x, y, z)
                    out.append(Triangle(*sorted(
                        trio, key=lambda t: sum(g.has_arc(t, o) for o in trio), reverse=True)))
    return sorted(out)


def _probe_pair(ctx: ScoreContext, p: int, q: int, third: int, h: int,
                alpha: float) -> tuple[SeparatorResult, bool]:
    """Separator search for (p, q) with the third clique node barred from Z.

    Returns the search result plus whether the pair *qualifies*: a separator
    Z exists and adding the third node back destroys the independence.
    """
    res = find_separator(
        SeparatorQuery(u=p, v=q, h=h, alpha=alpha, forbidden=frozenset({third})), ctx
    )
    if not res.found:
        return res, False
    broken = not is_independent(ctx, p, q, res.z | {third}, alpha).independent
    return res, broken


def classify_triangle(t: Triangle, ctx: ScoreContext, h: int = DEFAULT_H,
                      alpha: float = DEFAULT_ALPHA) -> TriangleClassification:
    """Decide whether the triangle bears a confounder footprint.

    Each of the three node pairs (B, C) is probed with the remaining node A
    barred from the conditioning set. The verdict is a confounder only when
    exactly one pair qualifies, that pair sits in a slot with a known
    footprint, and the two other pairs admitted no separator at all.
    """
    src, mid, snk = t.source, t.middle, t.sink
    # probed pair (B, C) -> (barred node A, the slot's footprint)
    slots = {
        (snk, src): (mid, TriangleVerdict.PARENT_SIDE),
        (mid, snk): (src, TriangleVerdict.CHILD_SIDE),
        (src, mid): (snk, None),
    }
    results = {(b, c): _probe_pair(ctx, b, c, a, h, alpha)
               for (b, c), (a, _) in slots.items()}

    cls = TriangleClassification(triangle=t, verdict=TriangleVerdict.GENUINE)
    cls.pair_results = {pair: (res.found, qual) for pair, (res, qual) in results.items()}
    qualifying = [pair for pair, (_, qual) in results.items() if qual]
    if len(qualifying) != 1:
        return cls
    pair = qualifying[0]
    if any(results[p][0].found for p in slots if p != pair):
        return cls
    a, footprint = slots[pair]
    if footprint is None:
        log.info(
            "triangle %s: separable pair (source, middle) has no actionable "
            "footprint; reported genuine", t
        )
        return cls
    cls.verdict = footprint
    cls.latent_children = (a, pair[0])
    cls.outside = pair[1]
    cls.witness = results[pair][0].z
    return cls


def confirm_parent_side(c: TriangleClassification, g: Dag) -> bool:
    """A PARENT_SIDE footprint is only plausible when the sink has a third
    parent besides the two clique nodes (otherwise the triangle explains the
    data without a confounder)."""
    if c.verdict is not TriangleVerdict.PARENT_SIDE:
        raise ValueError("classification is not PARENT_SIDE")
    b = c.latent_children[1]  # the sink
    return len(g.parents(b)) >= 3


def confirm_child_side(c: TriangleClassification, g: Dag, ctx: ScoreContext,
                       h: int = DEFAULT_H, alpha: float = DEFAULT_ALPHA) -> bool:
    """A CHILD_SIDE footprint needs corroboration from B's neighbourhood:
    some other parent or child D of B must separate from the sink once A is
    forced into the conditioning set. Fills ``c.support`` on success."""
    if c.verdict is not TriangleVerdict.CHILD_SIDE:
        raise ValueError("classification is not CHILD_SIDE")
    a, b = c.latent_children
    sink = c.outside
    candidates = sorted((g.parents(b) - {a}) | (g.children(b) - {sink}))
    for d_node in candidates:
        res = find_separator(
            SeparatorQuery(u=d_node, v=sink, h=h, alpha=alpha,
                           compulsory=frozenset({a})), ctx
        )
        if res.found:
            c.support = (d_node, res.z)
            return True
    return False


def recreate_latents(g: Dag, accepted: list[TriangleClassification]) -> AugmentedResult:
    """Rewire each accepted triangle around a fresh latent node.

    Per triangle: drop the spurious arc A -> B and the arc joining B with the
    outside node (either direction), then add a new parentless node L with
    arcs L -> A and L -> B. Triangles are applied in canonical order; one
    whose arcs were already removed by an earlier rewiring is skipped and
    reported in ``conflicts``.
    """
    aug = g.copy()
    latents: list[tuple[str, tuple[int, int]]] = []
    conflicts: list[Triangle] = []
    for c in sorted(accepted, key=lambda c: c.triangle):
        if c.verdict is TriangleVerdict.GENUINE or c.latent_children is None:
            raise ValueError("recreate_latents expects accepted confounder triangles")
        a, b = c.latent_children
        bc = (b, c.outside) if aug.has_arc(b, c.outside) else (c.outside, b)
        if not (aug.has_arc(a, b) and aug.has_arc(*bc)):
            log.warning(
                "triangle %s overlaps an earlier rewiring; skipped", c.triangle
            )
            conflicts.append(c.triangle)
            continue
        name = f"L{len(latents) + 1}"
        lid = aug.add_node(name)
        aug.remove_arc(a, b)
        aug.remove_arc(*bc)
        aug.add_arc(lid, a)
        aug.add_arc(lid, b)
        latents.append((name, (a, b)))

    cpdag = cpdag_of(aug)
    cpdag.latents = [(name, pair) for name, pair in latents]
    return AugmentedResult(dag=aug, latents=latents, cpdag=cpdag, conflicts=conflicts)


def discover_confounders(d: Dataset, learner_cfg: LearnerConfig = LearnerConfig(),
                         h: int = DEFAULT_H, alpha: float = DEFAULT_ALPHA) -> AugmentedResult:
    """Full pipeline: learn a DAG, classify its triangles, confirm the
    confounder candidates, rewire them and complete to a CPDAG.

    One scoring context serves the whole run: the probes reuse the scores
    the learner memoised, and each family is tallied once, so a repeated
    conditional-independence test costs two memo reads and a critical value,
    and the post-learning phase's counting scales with the number of
    *distinct* tests, not the number of times they are asked.
    """
    check_probe_options(h, alpha)
    ctx = ScoreContext(d)
    t0 = time.perf_counter()
    g = learn(d, learner_cfg, ctx)
    t1 = time.perf_counter()

    classifications = [
        classify_triangle(t, ctx, h, alpha) for t in enumerate_triangles(g)
    ]
    accepted = []
    for c in classifications:
        if c.verdict is TriangleVerdict.PARENT_SIDE and confirm_parent_side(c, g):
            accepted.append(c)
        elif c.verdict is TriangleVerdict.CHILD_SIDE and confirm_child_side(c, g, ctx, h, alpha):
            accepted.append(c)
    result = recreate_latents(g, accepted)
    t2 = time.perf_counter()

    result.classifications = classifications
    result.learn_seconds = t1 - t0
    result.post_seconds = t2 - t1
    return result
