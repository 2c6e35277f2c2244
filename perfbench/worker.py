"""Worker process of the discovery benchmark.

``run.py`` generates a workload's inputs, writes a manifest and starts this
script in a fresh interpreter::

    python3 perfbench/worker.py MANIFEST RESULT

The worker runs the workload's ops in a closed loop, one op in flight, checks
every output and writes what it saw to RESULT (JSON). Running the ops in
their own process keeps set-up allocations out of the peak-RSS figure.

Every run starts with one untimed warm-up op on input 0. The first op in a
fresh process pays one-off costs (lazy imports, first-touch of the heap) that
later ops do not; timing starts after it, on every run alike. The warm-up's
output is also the reference for the reproducibility check: the timed op on
input 0 must write the same bytes.

Untraced (trace 0): whole passes over the inputs, each input once per pass
in order: at least one pass, and another only while the time of the passes so
far plus that of the last one fits in ``seconds``. Every input is so timed
equally often, whatever the program's speed. Traced (trace 1): each input once untraced and then once
with the tracing wrappers installed; the difference of each pair is the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics, layer_table


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import latentdag
    import latentdag.cli  # not imported by the package itself

    if not Path(latentdag.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"latentdag imported from {latentdag.__file__}, not from {root / 'src'}")
    return latentdag


class Ops:
    """The workload's op and the checks on its output.

    Ops look up package functions on their modules at call time, so the
    tracing wrappers see them. Checks use the functions bound here before any
    wrapper is installed, so checking adds nothing to the traced layers.
    """

    def __init__(self, ld, manifest: dict):
        self.ld = ld
        self.m = manifest
        self.observed = manifest["observed"]
        self.compare_confounders = ld.bench.compare_confounders
        self.compare_cpdags = ld.bench.compare_cpdags
        self.pdag_from_json = ld.graphs.Pdag.from_json
        if not manifest["csv"]:
            with open(manifest["net_path"], encoding="utf-8") as fh:
                self.net = ld.bench.bn_from_json(fh.read())

    def run(self, item: dict):
        return self._csv_op(item) if self.m["csv"] else self._grid_op(item)

    def _csv_op(self, item: dict):
        """``latentdag discover`` on one CSV: ingest, learn, probe, write JSON."""
        out = Path(item["out_json"])
        out.unlink(missing_ok=True)
        rc = self.ld.cli.main(["discover", "--input", item["csv"],
                               "--mode", self.m["mode"], "--out", str(out)])
        return rc, None

    def _grid_op(self, item: dict):
        """One repetition of the synthetic grid at one size, in memory."""
        ld = self.ld
        inj = ld.bench.InjectionConfig(seed=item["injection_seed"])
        injected, truth = ld.bench.inject_confounders(self.net, inj)
        full = ld.bench.sample(injected, self.m["rows"], seed=item["sample_seed"])
        data = ld.data.project(full, self.observed)
        cfg = ld.learner.LearnerConfig(mode=self.m["mode"])
        result = ld.confounder.discover_confounders(data, cfg)
        truth_cpdag = ld.graphs.cpdag_of(injected.dag)
        truth_cpdag.latents = [(n, (injected.id_of(a), injected.id_of(b)))
                               for n, (a, b) in truth]
        conf = ld.bench.compare_confounders(truth, result)
        struct = ld.bench.compare_cpdags(truth_cpdag, result.cpdag)
        return result.cpdag.to_json(), (conf, struct)

    def check(self, item: dict, out) -> dict:
        """Digest, validity and quality of one op's output; ``ok`` False on a failed check."""
        first, reports = out
        if self.m["csv"]:
            if first != 0:
                return {"ok": False, "error": f"discover exited with code {first}"}
            text = Path(item["out_json"]).read_text(encoding="utf-8")
        else:
            text = first
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        try:
            learned = self.pdag_from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "digest": digest, "error": f"CPDAG JSON rejected: {exc!r}"}
        latents = [(n, (learned.names[a], learned.names[b])) for n, (a, b) in learned.latents]
        stray = sorted({c for _, pair in latents for c in pair} - set(self.observed))
        if stray:
            return {"ok": False, "digest": digest,
                    "error": f"latent children not observed columns: {stray}"}
        if reports is None:
            truth = [(n, tuple(pair)) for n, pair in item["truth"]]
            reports = (self.compare_confounders(truth, latents),
                       self.compare_cpdags(self.pdag_from_json(item["truth_cpdag"]), learned))
        conf, struct = reports
        return {"ok": True, "digest": digest, "latent_hits": conf.ok,
                "latent_false": conf.not_ok,
                "cpdag_shd": struct.miss + struct.rev + struct.type_err + struct.xs}


def _timed(fn):
    start = perf_counter()
    out = fn()
    return out, perf_counter() - start


def main(manifest_path: str, result_path: str) -> None:
    m = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    ld = _import_package(Path(m["root"]))
    ops = Ops(ld, m)
    inputs = m["inputs"]
    tracer = Tracer()
    records: list[dict] = []

    def run(i: int, phase: str) -> None:
        item = inputs[i]
        timer = (lambda fn: tracer.run_op(len(records), fn)) if phase == "traced" else _timed
        rec = {"input": i, "phase": phase, "wall": None}
        try:
            out, rec["wall"] = timer(lambda: ops.run(item))
            rec.update(ops.check(item, out))
        except Exception as exc:  # op boundary: a raising op is a failed op
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                       traceback=traceback.format_exc())
        except SystemExit as exc:  # argparse exits on a bad command line
            rec.update(ok=False, error=f"SystemExit: {exc.code}")
        records.append(rec)

    run(0, "warmup")
    result: dict = {"package_file": ld.__file__}
    if not m["trace"]:
        start = perf_counter()
        passes = 0
        while True:
            pass_start = perf_counter()
            for i in range(len(inputs)):
                run(i, "timed")
            passes += 1
            now = perf_counter()
            if any(not r["ok"] for r in records) or now - start + (now - pass_start) > m["seconds"]:
                break
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        for i in range(len(inputs)):
            run(i, "untraced")
            tracer.install()
            try:
                run(i, "traced")
            finally:
                tracer.uninstall()
        result.update(_trace_report(ld, m, tracer, records))
    result["records"] = records
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")


def _trace_report(ld, m: dict, tracer: Tracer, records: list[dict]) -> dict:
    out_dir = Path(m["out_dir"])
    walls = {r["phase"]: {} for r in records}
    for r in records:
        walls[r["phase"]][r["input"]] = r["wall"]
    pairs = [(walls["untraced"][i], w) for i, w in walls["traced"].items()
             if w is not None and walls["untraced"].get(i) is not None]
    overhead = statistics.median(t - u for u, t in pairs) if pairs else 0.0

    peak_mb = 0.0
    if m["csv"]:  # a separate call: tracemalloc would distort the traced timings
        tracemalloc.start()
        try:
            ld.data.load_dataset(m["inputs"][0]["csv"])
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    n_ops = len(walls["traced"])
    metrics, bases = layer_metrics(tracer, n_ops, overhead, peak_mb)
    table = layer_table(tracer, n_ops, pairs, overhead)
    tracer.write_spans(out_dir / "spans.jsonl.gz")
    (out_dir / "layers.txt").write_text(table + "\n", encoding="utf-8")
    return {"layers": metrics, "bases": bases, "span_totals": tracer.span_totals(),
            "missing_targets": tracer.missing, "layer_table": table}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
