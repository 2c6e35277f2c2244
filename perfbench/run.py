"""Discovery benchmark for latentdag.

Run from the repository root::

    python3 perfbench/run.py --workload child-grid-5k --seed 0 --seconds 20 --trace 0

One run makes the workload's inputs from ``--seed`` (the set-up,
``prepare.py``, done three times in fresh interpreters), starts a fresh
worker process (``worker.py``) that runs the workload's ops in a closed loop
with one op in flight, checks every output, and prints the metrics. Metric
names and units come from ``BENCHMARK.json``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` each
input runs once untraced and once traced, and the per-layer metrics are
reported instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Files go to
``perfbench/out/<workload>/seed-<n>-trace<t>/``.

The workloads and the reasons for them are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    net: str  # generative network, assets/<net>.json
    rows: int  # rows per dataset
    mode: str  # learner mode, as `latentdag discover --mode`
    inputs: int  # distinct datasets per run; each op runs one of them
    csv: bool  # True: CSV through `latentdag discover`; False: grid repetition in memory


# A net20 op's cost depends on the triangles its data yields (0.3-0.8 s), so a
# run spreads over 32 datasets to keep the median steady from seed to seed; a
# child op costs about 5 s whatever the data. See perfbench/README.md.
WORKLOADS = {
    "net20-hc-5k": Workload("net20", 5_000, "hc", 32, True),
    "child-grid-5k": Workload("child", 5_000, "exact", 6, False),
}

SETUP_ROUNDS = 3  # set-ups per run; setup_s is their median
QUALITY = ("latent_hits", "latent_false", "cpdag_shd")
DIGESTS = HERE / "digests.json"


def metric_units() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def machine_record(trace: bool) -> dict:
    """Where and on what the run was made."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "latentdag").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "trace": trace,
    }


def set_up(wl: Workload, seed: int, work: Path, deadline: float) -> tuple[dict, list[float]]:
    """Make the run's inputs SETUP_ROUNDS times, each in a fresh interpreter.

    Returns the inputs and rejected seeds of the last round and each round's
    seconds from spawn to exit. Every round must make the same inputs.
    """
    request = work / "setup-request.json"
    request.write_text(json.dumps({"root": str(ROOT), "seed": seed, "work": str(work / "inputs"),
                                   "spec": {**asdict(wl), "net_path": str(ROOT / "assets" / f"{wl.net}.json")}}),
                       encoding="utf-8")
    rounds, made = [], None
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        (work / "inputs").mkdir()
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "prepare.py"), str(request)], check=True,
                       timeout=max(10.0, deadline - perf_counter()))
        rounds.append(perf_counter() - start)
        this = json.loads((work / "inputs" / "inputs.json").read_text(encoding="utf-8"))
        if made is not None and _strip_times(this) != _strip_times(made):
            raise RuntimeError("two set-up rounds of one seed made different inputs")
        made = this
    return made, rounds


def _strip_times(made: dict) -> list[dict]:
    return [{k: v for k, v in it.items() if k != "setup_s"} for it in made["inputs"]]


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def fail_digest_mismatches(records: list[dict]) -> None:
    """Fail every op whose bytes differ from the first output of its input.

    This covers the re-run of input 0 after the warm-up and, when traced,
    the traced op against the untraced one.
    """
    first: dict[int, str] = {}
    for r in records:
        if not r.get("ok"):
            continue
        ref = first.setdefault(r["input"], r["digest"])
        if r["digest"] != ref:
            r["ok"] = False
            r["error"] = f"digest {r['digest'][:12]} differs from {ref[:12]} on the same input"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]
    for need in (ROOT / "src" / "latentdag" / "__init__.py", ROOT / "assets" / f"{wl.net}.json"):
        if not need.is_file():
            print(f"error: {need} not found; run from a latentdag checkout", file=sys.stderr)
            return 2
    t_run = perf_counter()
    units = metric_units()

    work = OUT / args.workload / f"seed-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        made, setup_rounds = set_up(wl, args.seed, work, t_run + RUN_LIMIT_S)
        inputs, rejected = made["inputs"], made["rejected"]
        manifest = {"root": str(ROOT), "workload": args.workload, **asdict(wl),
                    "observed": _observed(wl), "net_path": str(ROOT / "assets" / f"{wl.net}.json"),
                    "inputs": inputs, "seconds": args.seconds,
                    "trace": args.trace, "out_dir": str(work)}
        (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        result_path = work / "worker-result.json"
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work / "manifest.json"), str(result_path)],
                stdout=log, timeout=max(10.0, RUN_LIMIT_S - (perf_counter() - t_run)))
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}; see {work / 'worker.log'}",
                  file=sys.stderr)
            return 1
        worker = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up exited with code {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)

    records = worker["records"]
    fail_digest_mismatches(records)
    failed = [r for r in records if not r.get("ok")]
    for r in failed:
        print(f"op failed: input {r['input']} ({r['phase']}): {r.get('error')}", file=sys.stderr)
    firsts = {}
    for r in records:
        firsts.setdefault(r["input"], r)
    firsts = [firsts.get(i, {}) for i in range(len(inputs))]
    digests = [f.get("digest") for f in firsts]
    recorded = recorded_digests(args.workload, args.seed)
    # 0 also when there is no reference; `digest_reference` in result.json tells the two apart
    changed = sum(a != b for a, b in zip(digests, recorded)) if recorded else 0
    quality = {q: sum(f.get(q, 0) for f in firsts) for q in QUALITY}
    quality["cpdag_shd"] /= len(inputs)

    if args.trace:
        found = {**worker["layers"], **{f"eval.{q}": v for q, v in quality.items()},
                 "check.digest_changed": changed}
        units = units["per_layer"]
    else:
        # every input is timed the same number of times (whole passes), so
        # each weighs the same in both figures whatever the program's speed
        walls: dict[int, list[float]] = {}
        for r in records:
            if r["phase"] == "timed" and r["wall"] is not None:
                walls.setdefault(r["input"], []).append(r["wall"])
        timed = [w for ws in walls.values() for w in ws]
        found = {
            "setup_s": statistics.median(setup_rounds),
            "op_s_p50": statistics.median([statistics.median(ws) for ws in walls.values()] or [0.0]),
            "rows_per_s": wl.rows * len(timed) / sum(timed) if timed else 0.0,
            "peak_rss_mb": worker["peak_rss_mb"],
            "op_ok_ratio": 1.0 - len(failed) / len(records),
        }
        units = units["end_to_end"]
    metrics = {k: found[k] for k in units}  # KeyError: a listed metric was not measured

    machine = machine_record(bool(args.trace))
    summary = {
        "workload": args.workload, "spec": asdict(wl), "seed": args.seed,
        "seconds": args.seconds, "machine": machine,
        "seeds_used": [{k: it[k] for k in ("rep", "injection_seed", "sample_seed")} for it in inputs],
        "seeds_rejected": rejected, "setup_rounds_s": setup_rounds,
        "input_setup_s": [it["setup_s"] for it in inputs], "passes": worker.get("passes"),
        "digests": digests, "digest_reference": "digests.json" if recorded else "none",
        "recorded_digests": recorded, "quality": quality, "records": records,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "bases": worker.get("bases", {}), "missing_targets": worker.get("missing_targets", []),
        "run_s": perf_counter() - t_run,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"machine: {json.dumps(machine)}")
    phases = {ph: sum(r["phase"] == ph for r in records) for ph in dict.fromkeys(r["phase"] for r in records)}
    passes = f" in {worker['passes']} passes" if "passes" in worker else ""
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops "
          f"({', '.join(f'{n} {ph}' for ph, n in phases.items())}{passes}), {len(failed)} failed; "
          f"quality over {len(inputs)} inputs: {json.dumps(quality)}")
    if not recorded:
        print(f"digest reference: none for seed {args.seed} in perfbench/digests.json; "
              "check.digest_changed reads 0 unverified")
    elif changed:
        print(f"warning: {changed} of {len(recorded)} CPDAG digests differ from "
              f"perfbench/digests.json (byte-identity contract)")
    else:
        print(f"digest reference: all {len(recorded)} CPDAG digests equal perfbench/digests.json")
    if args.trace:
        print(worker["layer_table"])
        print(f"spans: {work / 'spans.jsonl.gz'}  table: {work / 'layers.txt'}")
    for k, v in metrics.items():
        base = summary["bases"].get(k)
        print(f"  {k:40} {v:14.6g} {units[k]}" + (f"  (base {base})" if base is not None else ""))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": summary["metrics"]}))
    return 0


def _observed(wl: Workload) -> list[str]:
    doc = json.loads((ROOT / "assets" / f"{wl.net}.json").read_text(encoding="utf-8"))
    return [v["name"] for v in doc["variables"]]


if __name__ == "__main__":
    sys.exit(main())
