"""Command-line surface.

Subcommands::

    discover   learn a DAG from data, detect confounders, emit the CPDAG
    learn      baseline structure learner only (DAG as JSON)
    sepset     greedy separating-set search for one variable pair
    dsep       d-separation query against a graph JSON, with trail analysis
    benchmark  inject/sample/learn/evaluate grid over sizes x repetitions

Exit codes: 0 success, 1 algorithmic failure (e.g. no admissible confounder
placement), 2 usage or input errors. Identical invocations with identical
seeds write byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    InjectionConfig,
    InjectionError,
    bn_from_json,
    run_benchmark,
)
from .ci import DEFAULT_H, SeparatorQuery, find_separator
from .confounder import discover_confounders
from .data import load_dataset
from .graphs import Dag, d_separated, enumerate_trails
from .learner import LearnerConfig, learn
from .scoring import DEFAULT_ALPHA, ScoreContext

__all__ = ["main"]


def _learner_config(args: argparse.Namespace) -> LearnerConfig:
    mode = {"hc": "hill_climb"}.get(args.mode, args.mode)
    return LearnerConfig(
        max_parents=args.max_parents,
        mode=mode,
        seed=args.seed,
        restarts=args.restarts,
    )


def _write(path: str | None, text: str) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cmd_discover(args: argparse.Namespace) -> int:
    d = load_dataset(args.input, delimiter=args.delimiter)
    result = discover_confounders(d, _learner_config(args), h=args.h, alpha=args.alpha)

    names = result.dag.names
    lines = [f"learnt DAG: {len(result.dag.arcs())} arcs (post-rewiring)"]
    lines.append(f"triangles probed: {len(result.classifications)}")
    for c in result.classifications:
        t = c.triangle
        desc = (
            f"  ({names[t.source]} -> {names[t.middle]} -> {names[t.sink]}, "
            f"{names[t.source]} -> {names[t.sink]}): {c.verdict.value}"
        )
        if c.witness is not None:
            zs = ", ".join(sorted(names[z] for z in c.witness)) or "{}"
            desc += f"  separator [{zs}]"
        if c.support is not None:
            dname = names[c.support[0]]
            desc += f"  corroborated by {dname}"
        lines.append(desc)
    for t in result.conflicts:
        lines.append(
            f"  conflict: triangle ({names[t.source]}, {names[t.middle]}, "
            f"{names[t.sink]}) overlapped an earlier rewiring; skipped"
        )
    lines.append(f"confounders recovered: {len(result.latents)}")
    for name, (a, b) in result.latents:
        lines.append(f"  {name}: children {names[a]}, {names[b]}")
    print("\n".join(lines))

    _write(args.out, result.cpdag.to_json())
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    d = load_dataset(args.input, delimiter=args.delimiter)
    g = learn(d, _learner_config(args))
    _write(args.out, g.to_json())
    return 0


def cmd_sepset(args: argparse.Namespace) -> int:
    d = load_dataset(args.input, delimiter=args.delimiter)
    u, v = d.id_of(args.u), d.id_of(args.v)
    compulsory = frozenset(d.id_of(n) for n in _split(args.compulsory))
    forbidden = frozenset(d.id_of(n) for n in _split(args.forbidden))
    q = SeparatorQuery(u=u, v=v, h=args.h, alpha=args.alpha,
                       compulsory=compulsory, forbidden=forbidden)
    res = find_separator(q, ScoreContext(d))
    for node, stat in res.trace:
        print(f"grew conditioning set with {d.variables[node].name} "
              f"(statistic {stat:.6f})")
    if res.found:
        zs = ", ".join(sorted(d.variables[i].name for i in res.z)) or "(empty)"
        print(f"separator found: [{zs}]")
    else:
        print("no separator found within the size budget")
    return 0


def cmd_dsep(args: argparse.Namespace) -> int:
    if args.max_trails < 0:
        raise ValueError("--max-trails must be >= 0")
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = Dag.from_json(fh.read())
    idx = {n: i for i, n in enumerate(g.names)}

    def resolve(name: str) -> int:
        if name not in idx:
            raise KeyError(f"unknown node {name!r}")
        return idx[name]

    u = resolve(args.u)
    v = resolve(args.v)
    z = {resolve(n) for n in _split(args.given)}
    sep = d_separated(g, u, v, z)
    print(f"d-separated({args.u}, {args.v} | {sorted(_split(args.given))}): {sep}")
    for shown, trail in enumerate(enumerate_trails(g, u, v)):
        if shown == args.max_trails:
            print("  ... (further trails suppressed)")
            break
        pretty = []
        for i, node in enumerate(trail.nodes):
            pretty.append(g.names[node])
            if i < len(trail.forward):
                pretty.append("->" if trail.forward[i] else "<-")
        at = trail.blocked_by(g, z)
        status = "active" if at is None else f"blocked at {g.names[trail.nodes[at]]}"
        print(f"  trail {' '.join(pretty)}: {status}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    with open(args.bn, "r", encoding="utf-8") as fh:
        bn = bn_from_json(fh.read())
    sizes = []
    for entry in args.sizes.split(","):
        if entry:
            try:
                sizes.append(int(entry))
            except ValueError:
                raise ValueError(f"--sizes entry {entry!r} is not an integer") from None
    if not sizes:
        raise ValueError("--sizes must list at least one dataset size")
    inj = InjectionConfig(
        n_confounders=args.confounders,
        latent_cardinality=args.latent_card,
        seed=args.seed,
    )
    table, failures, times = run_benchmark(
        bn,
        sizes=sizes,
        reps=args.reps,
        injection=inj,
        learner=_learner_config(args),
        h=args.h,
        alpha=args.alpha,
    )
    for line in failures:
        print(f"warning: {line}", file=sys.stderr)
    _write(args.out, table)
    if args.out is not None:
        print(table)
    for line in times:
        print(line)
    if failures and table.count("\n") == 0:  # header only: every rep failed
        return 1
    return 0


def _split(csv: str | None) -> list[str]:
    if not csv:
        return []
    return [part.strip() for part in csv.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latentdag",
        description="causal structure learning with latent-confounder recovery",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def probe_options(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--h", type=int, default=DEFAULT_H,
                        help="max separating-set size (default %(default)s)")
        sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="independence risk level (default %(default)s)")

    def learner_options(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--max-parents", type=int, default=4, dest="max_parents")
        sp.add_argument("--mode", choices=["exact", "hc", "auto"], default="auto")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--restarts", type=int, default=1)

    disc = sub.add_parser("discover", help="full confounder-discovery pipeline")
    disc.add_argument("--input", required=True, help="delimited data file")
    disc.add_argument("--delimiter", default=",")
    disc.add_argument("--out", default=None, help="CPDAG JSON path (stdout if omitted)")
    probe_options(disc)
    learner_options(disc)
    disc.set_defaults(func=cmd_discover)

    lrn = sub.add_parser("learn", help="baseline DAG learner")
    lrn.add_argument("--input", required=True)
    lrn.add_argument("--delimiter", default=",")
    lrn.add_argument("--out", default=None, help="DAG JSON path (stdout if omitted)")
    learner_options(lrn)
    lrn.set_defaults(func=cmd_learn)

    sep = sub.add_parser("sepset", help="greedy separating-set search")
    sep.add_argument("--input", required=True)
    sep.add_argument("--delimiter", default=",")
    sep.add_argument("--u", required=True)
    sep.add_argument("--v", required=True)
    sep.add_argument("--compulsory", default="", help="comma-separated names")
    sep.add_argument("--forbidden", default="", help="comma-separated names")
    probe_options(sep)
    sep.set_defaults(func=cmd_sepset)

    ds = sub.add_parser("dsep", help="d-separation query over a graph JSON")
    ds.add_argument("--graph", required=True)
    ds.add_argument("--u", required=True)
    ds.add_argument("--v", required=True)
    ds.add_argument("--given", default="", help="comma-separated names")
    ds.add_argument("--max-trails", type=int, default=64, dest="max_trails",
                    help="show at most this many trails (default 64)")
    ds.set_defaults(func=cmd_dsep)

    bm = sub.add_parser("benchmark", help="inject/sample/learn/evaluate grid")
    bm.add_argument("--bn", required=True, help="generative network JSON")
    bm.add_argument("--out", default=None, help="metric table path (stdout if omitted)")
    bm.add_argument("--sizes", default="5000,20000,50000")
    bm.add_argument("--reps", type=int, default=10)
    bm.add_argument("--confounders", type=int, default=2)
    bm.add_argument("--latent-card", type=int, default=2, dest="latent_card")
    probe_options(bm)
    learner_options(bm)
    bm.set_defaults(func=cmd_benchmark)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        msg = str(exc) if isinstance(exc, OSError) else (
            exc.args[0] if exc.args else exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
