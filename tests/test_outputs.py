"""Pinned output bytes: the metric CSVs of two fixed `latentdag benchmark`
runs, one per learner, the injected networks and truth lists of six fixed
`inject_confounders` calls, the mutual-information floats and joint
marginals the injection screening computes on both assets, and the triangle
classifications and CPDAG of six fixed discoveries must keep their SHA-256.

A refactor that keeps every output byte-identical leaves these hashes alone.
A change meant to alter the outputs re-records them here, with the reason in
the change log.
"""

import hashlib
import json
from pathlib import Path

import pytest

from latentdag import LearnerConfig, bench, cli, discover_confounders, project, sample
from latentdag.bench import InjectionConfig, bn_from_json, bn_to_json, inject_confounders

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


# seeds as the benchmark grid derives them for repetitions 0-2
INJECTIONS = [
    ("net20", 1, "c16287b6b73f1a1b23b4aa954764925622f3e9cbb3fca159729f40c10075664c"),
    ("net20", 2, "c1529ae51e3b4c04f596d2598dc8ebd5376a0e5d08d4e1e6d5fdabfe81c741b0"),
    ("net20", 3, "b4cc69c587a77498125e121cf3c5ecc80c7529e7c289c595cc56d85b4512b4fb"),
    ("child", 1, "e61e9a92460bdf136bfdf197722b57a8e0f4c0cbbc307413ccaed396e1509b22"),
    ("child", 2, "c6bb087cf9ed65b0a6dd75524a0900cf969ae26b7448a7073f86935d122c0013"),
    ("child", 3, "18e62614b6d47daeb4d620b6920c48c2ba3953d1f617b80ad1dd99c22e53f54f"),
]


@pytest.mark.parametrize("net, r, digest", INJECTIONS,
                         ids=[f"{net}-r{r}" for net, r, _ in INJECTIONS])
def test_injected_network_bytes_are_pinned(net, r, digest):
    # an MI drift that flips one admissibility decision changes the redrawn
    # tables, the chosen pairs or both
    bn = bn_from_json((ASSETS / f"{net}.json").read_text())
    injected, truth = inject_confounders(bn, InjectionConfig(seed=1_000_003 * r))
    got = hashlib.sha256((bn_to_json(injected) + json.dumps(truth)).encode()).hexdigest()
    assert got == digest, (
        f"inject_confounders on {net}.json with seed {1_000_003 * r} changed its "
        f"network or truth list (SHA-256 {got}); truth is now {truth}")


# every I(x; y) and I(x; y | given) that dependence_thresholds computes, as
# float.hex() in call order, then the bytes of a few exact joint marginals
MI_FLOATS = [
    ("net20", [(10,), (18, 14), (4, 15, 19)], "2f8a8f22a5be212735800fe2df785f0401116811e1f8da50955fd403c3f5ae6d"),
    ("child", [(6,), (13, 12), (9, 10, 4), (1, 2, 3, 4, 5)], "d9b2c529c0d75be3c918cbce5f2c5311292685f4749498772bf4da8ac13db061"),
]


@pytest.mark.parametrize("net, targets, digest", MI_FLOATS,
                         ids=[net for net, _, _ in MI_FLOATS])
def test_mutual_information_floats_are_pinned(net, targets, digest, monkeypatch):
    # the injection pins catch only an MI drift that flips a decision; this
    # one catches any change in the last bit
    bn = bn_from_json((ASSETS / f"{net}.json").read_text())
    mis = []
    exact = bench.mutual_information

    def recorded(*args):
        mis.append(exact(*args))
        return mis[-1]

    monkeypatch.setattr(bench, "mutual_information", recorded)
    bench.dependence_thresholds(bn)
    h = hashlib.sha256(" ".join(v.hex() for v in mis).encode())
    for t in targets:
        h.update(bench.joint_marginal(bn, t).tobytes())
    got = h.hexdigest()
    assert len(mis) > 0
    assert got == digest, (
        f"the {len(mis)} mutual-information floats of dependence_thresholds on "
        f"{net}.json, or its joint marginals over {targets}, changed (SHA-256 {got})")


# 2,000 rows sampled with the injection's seed. The net20 runs give a
# confirmed PARENT_SIDE (seed 3), an unconfirmed one (35) and a confirmed
# CHILD_SIDE (94); the child runs give GENUINE triangles only.
DISCOVERIES = [
    ("net20", "hill_climb", 3,
     "e7a76346927bd6a1385fb7165b800c419184903daec8c7f2cae5d240510c8977"),
    ("net20", "hill_climb", 35,
     "ee5083b6b45af5a522f585484580f6be5e2d0fc2480a83b0492dd9f10742ab68"),
    ("net20", "hill_climb", 94,
     "0cdc7872ed946d064a1e480725ac7080af4486bcc1b7640e99b967f20ab25269"),
    ("child", "exact", 7,
     "3b003ace53a412c79cc5390ee7aa9562d62a7f5dcc4564945fcfebbeff779e09"),
    ("child", "exact", 21,
     "dd193e54310fdbc3c40c3a77fc4bc60695512e2babbbc18246bd3339663e18cf"),
    ("child", "exact", 26,
     "607ef54b849369818a14ba65fcdbbe18074824270563258b76fc3cbc59851fee"),
]


def _classification_doc(c) -> dict:
    def listed(xs):
        return None if xs is None else sorted(xs)

    return {
        "triangle": list(c.triangle.nodes),
        "verdict": c.verdict.value,
        "latent_children": None if c.latent_children is None else list(c.latent_children),
        "outside": c.outside,
        "witness": listed(c.witness),
        "support": None if c.support is None else [c.support[0], listed(c.support[1])],
        "pair_results": [[list(pair), found, qual]
                         for pair, (found, qual) in c.pair_results.items()],
    }


@pytest.mark.parametrize("net, mode, seed, digest", DISCOVERIES,
                         ids=[f"{net}-s{seed}" for net, _, seed, _ in DISCOVERIES])
def test_discovery_classifications_are_pinned(net, mode, seed, digest):
    bn = bn_from_json((ASSETS / f"{net}.json").read_text())
    injected, _ = inject_confounders(bn, InjectionConfig(seed=seed))
    d = project(sample(injected, 2000, seed=seed), [v.name for v in bn.variables])
    res = discover_confounders(d, LearnerConfig(mode=mode))
    doc = json.dumps([_classification_doc(c) for c in res.classifications])
    got = hashlib.sha256((doc + res.cpdag.to_json()).encode()).hexdigest()
    assert got == digest, (
        f"the triangle classifications or CPDAG of a {mode} discovery on {net}.json "
        f"(seed {seed}) changed (SHA-256 {got}):\n{doc}\n{res.cpdag.to_json()}")
