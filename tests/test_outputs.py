"""Pinned output bytes: the metric CSVs of two fixed `latentdag benchmark`
runs, one per learner, must keep their SHA-256.

A refactor that keeps every output byte-identical leaves these hashes alone.
A change meant to alter the outputs re-records them here, with the reason in
the change log.
"""

import hashlib
from pathlib import Path

import pytest

from latentdag import cli

ASSETS = Path(__file__).resolve().parents[1] / "assets"

RUNS = [
    (["--bn", ASSETS / "net20.json", "--sizes", "2000", "--reps", "3", "--mode", "hc",
      "--seed", "0"],
     "8d61f1d31ee7ce79808eca4a78f6a6617548dcd5b5862c0e84a188782bc3d655"),
    (["--bn", ASSETS / "child.json", "--sizes", "2000", "--reps", "2", "--mode", "exact",
      "--seed", "0"],
     "7c5533879f2d12622444ea64b0b9b48b604b0fa8026483bcdc25d5b1f5cfc710"),
]


@pytest.mark.parametrize("args, digest", RUNS, ids=["net20-hc", "child-exact"])
def test_benchmark_csv_bytes_are_pinned(args, digest, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert cli.main(["benchmark", *map(str, args), "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == digest, (
        f"the metric CSV of `latentdag benchmark {' '.join(map(str, args))}` changed "
        f"(SHA-256 {got}). If the change of output is intended, re-record the hash "
        "here and give the reason in CHANGES.md.\n" + out.read_text())
