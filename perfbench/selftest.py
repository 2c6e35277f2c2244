"""Self-test of the benchmark harness at reduced sizes (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs with one small input, untraced and traced, twice each.
The test checks that the result line has exactly the contracted keys, that
every metric named in BENCHMARK.json is emitted with its unit and a finite
value, that names and units use the allowed characters, that two runs of one
seed give identical quality counts and CPDAG digests, and that the harness
fails without printing a result where no package is present.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = {"rows": 2_000, "inputs": 1}


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace)])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    detail = json.loads((run.OUT / workload / f"seed-{seed}-trace{trace}" / "result.json")
                        .read_text(encoding="utf-8"))
    return line, detail


def check_line(line: dict, expected: set[str], where: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, where
    assert set(line["metrics"]) == expected, (
        f"{where}: missing {sorted(set(expected) - set(line['metrics']))}, "
        f"extra {sorted(set(line['metrics']) - set(expected))}")
    for name, m in line["metrics"].items():
        assert NAME.fullmatch(name), f"{where}: bad metric name {name!r}"
        assert UNIT.fullmatch(m["unit"]), f"{where}: bad unit {m['unit']!r}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{where}: {name} = {m['value']!r}")


def check_missing_package() -> None:
    """A directory holding only BENCHMARK.json and perfbench/ must fail."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", next(iter(run.WORKLOADS)),
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "harness succeeded without a package"
    assert '"correct"' not in proc.stdout, "harness printed a result without a package"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            assert NAME.fullmatch(entry["name"]), f"bad name {entry['name']!r}"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), f"bad unit {entry['unit']!r}"
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}

    run.WORKLOADS = {k: replace(wl, **SMALL) for k, wl in run.WORKLOADS.items()}
    for workload in run.WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            seen = []
            for attempt in range(2):
                line, detail = one_run(workload, 1000, trace)
                check_line(line, expected, f"{workload} trace {trace} run {attempt}")
                seen.append((detail["quality"], detail["digests"]))
            assert seen[0] == seen[1], f"{workload} trace {trace}: runs differ: {seen}"
            print(f"ok  {workload} trace {trace}: quality {seen[0][0]}, "
                  f"digest {seen[0][1][0][:12]}", flush=True)
    check_missing_package()
    print("ok  fails without a package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
