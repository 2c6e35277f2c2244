"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/report.py --seeds 0-9            # every workload, end-to-end
    python3 perfbench/report.py --seeds 0-1 --workloads net20-hc-5k --trace 1

For each workload and metric it prints the median over the seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, beside the metric's bound from BENCHMARK.json. Runs are
made one after another, each as ``perfbench/run.py`` would be run alone.
``--record-digests`` stores each run's CPDAG digests in
``perfbench/digests.json``, the reference for the byte-identity check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DIGESTS, OUT, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}

    ok = True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            if args.record_digests:
                run = json.loads((OUT / wl / f"seed-{seed}-trace{args.trace}" / "result.json")
                                 .read_text(encoding="utf-8"))
                recorded.setdefault(wl, {})[str(seed)] = run["digests"]
        print(f"\n{wl} over seeds {args.seeds} ({len(next(iter(values.values()), []))} runs)")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  unit")
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            flag = "" if bound is None or spread <= bound / 3 else (
                "  above bound/3" if spread <= bound else "  ABOVE BOUND")
            print(f"  {k:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}  {units[k]}{flag}")
        print()
    if args.record_digests:
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
