"""Span tracing for the discovery benchmark, kept outside the package.

:class:`Tracer` wraps the package's public functions at their module
attributes. Every attribute of every ``latentdag`` module bound to the same
function object is replaced, so a call goes through the wrapper whichever
module imported the name (``confounder.learn`` and ``learner.learn`` are one
function). Nothing is wrapped until :meth:`Tracer.install` runs, so an
untraced run executes the package untouched.

A span records (op id, span id, parent span id, name, start, end). Spans stay
in memory until :meth:`Tracer.write_spans`. Hot functions whose calls are
mostly cache hits are counted, not spanned: ``scoring.bic`` opens a span only
when the call tallied the data (a cache miss).
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import statistics
import sys
from time import perf_counter

# (module, attribute, kind). Span names and counters use the module that
# defines the function, so ``scoring.count`` is traced as ``data.count``.
TARGETS = [
    ("cli", "main", "span"),
    ("data", "load_dataset", "span"),
    ("scoring", "count", "span"),
    ("scoring", "bic", "miss_span"),
    ("scoring", "is_independent", "count"),
    ("scoring", "chi2_critical", "count"),
    ("ci", "find_separator", "span"),
    ("learner", "learn", "span"),
    ("learner", "learn_exact", "span"),
    ("learner", "build_local_scores", "span"),
    ("learner", "learn_hill_climb", "span"),
    ("confounder", "discover_confounders", "span"),
    ("confounder", "enumerate_triangles", "span"),
    ("confounder", "classify_triangle", "span"),
    ("confounder", "confirm_child_side", "span"),
    ("confounder", "recreate_latents", "span"),
    ("graphs", "cpdag_of", "span"),
    ("bench", "inject_confounders", "span"),
    ("bench", "mutual_information", "span"),
    ("bench", "sample", "span"),
    ("bench", "compare_confounders", "span"),
    ("bench", "compare_cpdags", "span"),
]

OP_SPAN = "op"


def _note_result(counts: collections.Counter, name: str, out) -> None:
    """Counters read off a traced call's return value."""
    if name == "ci.find_separator":
        counts["ci.find_separator.found"] += bool(getattr(out, "found", False))
        counts["ci.find_separator.steps"] += len(getattr(out, "trace", ()))
    elif name == "learner.build_local_scores":
        counts["learner.families"] += sum(len(s) for s in getattr(out, "node_scores", ()))
    elif name == "confounder.enumerate_triangles":
        counts["confounder.triangles"] += len(out)
    elif name == "confounder.classify_triangle":
        verdict = getattr(getattr(out, "verdict", None), "value", "unknown")
        counts[f"confounder.verdict.{verdict}"] += 1
    elif name == "confounder.recreate_latents":
        counts["confounder.conflicts"] += len(getattr(out, "conflicts", ()))


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> int:
        self._next_id += 1
        self._stack.append(self._next_id)
        return self._next_id

    def _close(self, sid: int, name: str, start: float, end: float, keep: bool = True) -> None:
        self._stack.pop()
        if keep:
            self.spans.append((self.op, sid, self._stack[-1], name, start, end))

    def run_op(self, op: int, fn):
        """Run ``fn()`` as op ``op`` under a root span; return (result, wall)."""
        self.op = op
        sid = self._open()
        start = perf_counter()
        try:
            out = fn()
        finally:
            end = perf_counter()
            self._close(sid, OP_SPAN, start, end)
        return out, end - start

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            sid = tracer._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start, perf_counter())
            _note_result(counts, name, out)
            return out

        return wrapper

    def _miss_span_wrapper(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            before = counts["data.count.calls"]
            sid = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start, perf_counter(),
                              keep=counts["data.count.calls"] != before)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target found in the imported ``latentdag`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "latentdag" or n.startswith("latentdag.")]
        for mod_name, attr, kind in TARGETS:
            fn = getattr(sys.modules.get(f"latentdag.{mod_name}"), attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{fn.__module__.removeprefix('latentdag.')}.{fn.__name__}"
            if kind == "span":
                wrapper = self._span_wrapper(name, fn)
            elif kind == "miss_span":
                wrapper = self._miss_span_wrapper(name, fn)
            else:
                wrapper = self._count_wrapper(name, fn)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, wrapper)
                    self._patches.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patches):
            setattr(m, key, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one list per span.

        Times are seconds from the first span's start.
        """
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start", "end"]}) + "\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([op, sid, parent, name, round(start - t0, 9),
                                     round(end - t0, 9)]) + "\n")

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time: dict[int, float] = collections.defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for _, sid, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out


def layer_metrics(tracer: Tracer, n_ops: int, overhead_s: float,
                  load_peak_mb: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-op means of the per-layer metrics, and the base of each ratio."""
    spans = tracer.span_totals()
    c = tracer.counts

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    bic_calls = c["scoring.bic.calls"]
    searches = c["ci.find_separator.calls"]
    per_op = {
        "data.load_dataset.s": total("data.load_dataset"),
        "data.count.calls": c["data.count.calls"],
        "data.count.s": total("data.count"),
        "scoring.bic.calls": bic_calls,
        "scoring.is_independent.calls": c["scoring.is_independent.calls"],
        "scoring.verdict.computed": c["scoring.chi2_critical.calls"],
        "ci.find_separator.calls": searches,
        "ci.find_separator.s": total("ci.find_separator"),
        "ci.find_separator.steps": c["ci.find_separator.steps"],
        "learner.learn.s": total("learner.learn"),
        "learner.build_local_scores.s": total("learner.build_local_scores"),
        "learner.families": c["learner.families"],
        "learner.dp.s": self_s("learner.learn_exact"),
        "learner.learn_hill_climb.s": total("learner.learn_hill_climb"),
        "confounder.enumerate_triangles.count": c["confounder.triangles"],
        "confounder.classify_triangle.s": total("confounder.classify_triangle"),
        "confounder.verdict.genuine": c["confounder.verdict.genuine"],
        "confounder.verdict.parent_side": c["confounder.verdict.parent_side"],
        "confounder.verdict.child_side": c["confounder.verdict.child_side"],
        "confounder.confirm_child_side.s": total("confounder.confirm_child_side"),
        "confounder.recreate_latents.s": total("confounder.recreate_latents"),
        "confounder.conflicts": c["confounder.conflicts"],
        "graphs.cpdag_of.s": total("graphs.cpdag_of"),
        "bench.inject_confounders.s": total("bench.inject_confounders"),
        "bench.mutual_information.calls": c["bench.mutual_information.calls"],
        "bench.sample.s": total("bench.sample"),
        "bench.compare.s": total("bench.compare_confounders") + total("bench.compare_cpdags"),
        "cli.main.self_s": self_s("cli.main"),
    }
    metrics = {k: v / n_ops for k, v in per_op.items()}
    metrics["scoring.bic.hit_ratio"] = 1.0 - c["data.count.calls"] / bic_calls if bic_calls else 0.0
    metrics["ci.find_separator.found_ratio"] = (
        c["ci.find_separator.found"] / searches if searches else 0.0)
    metrics["data.load_dataset.peak_mb"] = load_peak_mb
    metrics["trace.overhead_s"] = overhead_s
    bases = {"scoring.bic.hit_ratio": bic_calls, "ci.find_separator.found_ratio": searches}
    return metrics, bases


def layer_table(tracer: Tracer, n_ops: int, walls: list[tuple[float, float]],
                overhead_s: float) -> str:
    """Text table of span self times per op, largest first.

    ``walls`` pairs each input's untraced and traced op wall. The last lines
    show that the self times add up to the traced wall, and how far that is
    from the untraced wall.
    """
    spans = tracer.span_totals()
    untraced = statistics.fmean(u for u, _ in walls) if walls else 0.0
    traced = statistics.fmean(t for _, t in walls) if walls else 0.0
    lines = [f"{'span':34} {'calls/op':>10} {'total s/op':>11} {'self s/op':>10} {'self %':>7}"]
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        self_op = row["self_s"] / n_ops
        share = 100.0 * self_op / traced if traced else 0.0
        lines.append(f"{name:34} {row['calls'] / n_ops:10.1f} {row['total_s'] / n_ops:11.4f} "
                     f"{self_op:10.4f} {share:6.1f}%")
    self_sum = sum(r["self_s"] for r in spans.values()) / n_ops
    lines.append(f"sum of self times {self_sum:.4f} s/op; traced op wall {traced:.4f}; "
                 f"untraced {untraced:.4f}; trace.overhead_s (median) {overhead_s:.4f}")
    return "\n".join(lines)
