"""End-to-end CLI tests (subprocess level)."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentdag
from latentdag import (
    Dag,
    DiscreteBayesNet,
    VariableMeta,
    bn_to_json,
    sample,
)

from test_confounder import planted_dataset


def run_cli(*args, **kw):
    """Run ``python -m latentdag`` on the same package the tests imported,
    so it also works where only pytest's ``pythonpath`` setting finds it."""
    src = str(Path(latentdag.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cmd = [sys.executable, "-m", "latentdag", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, **kw)


def write_csv(path, dataset, delimiter=","):
    names = [v.name for v in dataset.variables]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(names) + "\n")
        for row in dataset.values:
            fh.write(delimiter.join(
                dataset.variables[i].states[s] for i, s in enumerate(row)
            ) + "\n")


def chain_net():
    vs = [VariableMeta(n, ("lo", "hi")) for n in ("U", "Z", "V")]
    g = Dag.from_arcs(3, [(0, 1), (1, 2)], names=["U", "Z", "V"])
    cpts = {
        0: np.array([[0.5, 0.5]]),
        1: np.array([[0.85, 0.15], [0.15, 0.85]]),
        2: np.array([[0.85, 0.15], [0.15, 0.85]]),
    }
    return DiscreteBayesNet(vs, g, cpts)


def seven_node_net():
    vs = [VariableMeta(f"V{i}", ("s0", "s1")) for i in range(7)]
    arcs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    cpts = {0: np.array([[0.5, 0.5]])}
    for i in range(1, 7):
        cpts[i] = np.array([[0.8, 0.2], [0.2, 0.8]])
    return DiscreteBayesNet(vs, Dag.from_arcs(7, arcs, names=[v.name for v in vs]), cpts)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    write_csv(root / "chain.csv", sample(chain_net(), 4000, seed=4))
    write_csv(root / "chain_semi.csv", sample(chain_net(), 1000, seed=4),
              delimiter=";")

    write_csv(root / "hidden.csv", planted_dataset())

    (root / "chain_graph.json").write_text(chain_net().dag.to_json())
    (root / "bn7.json").write_text(bn_to_json(seven_node_net()))

    # sibling pair wired as deterministic copies: no confounder CPT drawn
    # from the bounded mixture family can match their dependence
    vs = [VariableMeta(n, ("s0", "s1")) for n in "AXY"]
    g = Dag.from_arcs(3, [(0, 1), (0, 2)], names=list("AXY"))
    eye = np.array([[1.0, 0.0], [0.0, 1.0]])
    hopeless = DiscreteBayesNet(vs, g, {
        0: np.array([[0.5, 0.5]]), 1: eye.copy(), 2: eye.copy(),
    })
    (root / "hopeless.json").write_text(bn_to_json(hopeless))
    return root


class TestDiscover:
    def test_recovers_planted_confounder(self, workdir):
        out = workdir / "cpdag.json"
        r = run_cli("discover", "--input", workdir / "hidden.csv", "--out", out)
        assert r.returncode == 0, r.stderr
        assert "confounders recovered: 1" in r.stdout
        assert "children A, B" in r.stdout
        doc = json.loads(out.read_text())
        assert doc["latents"] == [{"name": "L1", "children": ["A", "B"]}]
        assert "L1" in doc["nodes"]

    def test_stdout_mode_prints_cpdag(self, workdir):
        r = run_cli("discover", "--input", workdir / "chain.csv")
        assert r.returncode == 0, r.stderr
        assert "confounders recovered: 0" in r.stdout
        assert '"latents": []' in r.stdout

    def test_missing_input_is_usage_error(self, workdir):
        r = run_cli("discover", "--input", workdir / "nope.csv")
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_duplicate_column_is_usage_error(self, workdir):
        path = workdir / "duplicate.csv"
        path.write_text("A,A\nx,y\ny,x\n", encoding="utf-8")
        r = run_cli("discover", "--input", path)
        assert r.returncode == 2
        assert r.stderr == f"error: {path}: duplicate column name 'A'\n"

    @pytest.mark.parametrize("flags", [("--alpha", "7"), ("--h", "-3")])
    def test_bad_probe_option_is_usage_error(self, workdir, flags):
        # the chain's learnt DAG has no triangle, so no probe would run
        r = run_cli("discover", "--input", workdir / "chain.csv", *flags)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")


class TestLearn:
    def test_chain_skeleton(self, workdir):
        out = workdir / "dag.json"
        r = run_cli("learn", "--input", workdir / "chain.csv", "--out", out)
        assert r.returncode == 0, r.stderr
        g = Dag.from_json(out.read_text())
        links = {frozenset(a) for a in
                 (json.loads(out.read_text())["arcs"])}
        assert links == {frozenset(("U", "Z")), frozenset(("Z", "V"))}
        assert g.n_nodes == 3

    def test_deterministic_output(self, workdir):
        r1 = run_cli("learn", "--input", workdir / "chain.csv")
        r2 = run_cli("learn", "--input", workdir / "chain.csv")
        assert r1.stdout == r2.stdout

    def test_custom_delimiter(self, workdir):
        r = run_cli("learn", "--input", workdir / "chain_semi.csv",
                    "--delimiter", ";")
        assert r.returncode == 0, r.stderr

    def test_bad_mode_rejected_by_parser(self, workdir):
        r = run_cli("learn", "--input", workdir / "chain.csv",
                    "--mode", "bogus")
        assert r.returncode == 2


class TestSepset:
    def test_mediator_reported(self, workdir):
        r = run_cli("sepset", "--input", workdir / "chain.csv",
                    "--u", "U", "--v", "V")
        assert r.returncode == 0, r.stderr
        assert "grew conditioning set with Z" in r.stdout
        assert "separator found: [Z]" in r.stdout

    def test_forbidden_mediator_blocks_search(self, workdir):
        r = run_cli("sepset", "--input", workdir / "chain.csv",
                    "--u", "U", "--v", "V", "--forbidden", "Z")
        assert r.returncode == 0
        assert "no separator found within the size budget" in r.stdout

    def test_byte_order_mark_leaves_the_first_name_alone(self, workdir):
        path = workdir / "chain-bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (workdir / "chain.csv").read_bytes())
        r = run_cli("sepset", "--input", path, "--u", "U", "--v", "V")
        assert r.returncode == 0, r.stderr
        assert "separator found: [Z]" in r.stdout

    def test_unknown_column_is_usage_error(self, workdir):
        r = run_cli("sepset", "--input", workdir / "chain.csv",
                    "--u", "U", "--v", "Q")
        assert r.returncode == 2
        assert "error:" in r.stderr


class TestDsep:
    def test_blocked_and_active_trails(self, workdir):
        g = workdir / "chain_graph.json"
        r = run_cli("dsep", "--graph", g, "--u", "U", "--v", "V",
                    "--given", "Z")
        assert r.returncode == 0, r.stderr
        assert "True" in r.stdout
        assert "blocked at Z" in r.stdout

        r2 = run_cli("dsep", "--graph", g, "--u", "U", "--v", "V")
        assert "False" in r2.stdout
        assert "U -> Z -> V: active" in r2.stdout

    def test_max_trails_shows_at_most_n(self, workdir):
        # U - Z - V has one trail between U and V
        g = workdir / "chain_graph.json"
        r = run_cli("dsep", "--graph", g, "--u", "U", "--v", "V", "--max-trails", "1")
        assert r.returncode == 0, r.stderr
        assert r.stdout.count("  trail ") == 1
        assert "suppressed" not in r.stdout

        r0 = run_cli("dsep", "--graph", g, "--u", "U", "--v", "V", "--max-trails", "0")
        assert r0.returncode == 0, r0.stderr
        assert "  trail " not in r0.stdout
        assert "further trails suppressed" in r0.stdout

        r_neg = run_cli("dsep", "--graph", g, "--u", "U", "--v", "V", "--max-trails", "-1")
        assert r_neg.returncode == 2
        assert "--max-trails must be >= 0" in r_neg.stderr

    def test_unknown_node_is_usage_error(self, workdir):
        r = run_cli("dsep", "--graph", workdir / "chain_graph.json",
                    "--u", "U", "--v", "NOPE")
        assert r.returncode == 2
        assert "unknown node" in r.stderr

    @pytest.mark.parametrize("text, message", [
        ('{"arcs": []}', "error: graph JSON needs 'nodes', a list of node names"),
        ('{"nodes": ["U", "V"], "arcs": [["U"]]}',
         "error: 'arcs' entry ['U'] is not a [from, to] pair"),
        ('[["U", "V"]]', "error: graph JSON must be an object, not list"),
        ('{"nodes": ["U", "V"], "arcs": [["U", "W"]]}',
         "error: 'arcs' entry ['U', 'W'] names unknown node 'W'"),
    ])
    def test_malformed_graph_json_is_usage_error(self, workdir, text, message):
        bad = workdir / "bad_graph.json"
        bad.write_text(text)
        r = run_cli("dsep", "--graph", bad, "--u", "U", "--v", "V")
        assert r.returncode == 2
        assert r.stderr.strip() == message


class TestBenchmark:
    def test_grid_runs_and_is_reproducible(self, workdir):
        out1 = workdir / "metrics1.csv"
        out2 = workdir / "metrics2.csv"
        args = ("benchmark", "--bn", workdir / "bn7.json",
                "--sizes", "400,800", "--reps", "2", "--confounders", "1",
                "--max-parents", "3", "--seed", "5")
        r1 = run_cli(*args, "--out", out1)
        assert r1.returncode == 0, r1.stderr
        r2 = run_cli(*args, "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "size,ok,nok,precision,recall,f1,cpdag_ok,miss,rev,type,xs"
        assert len(lines) == 3
        assert "mean learn" in r1.stdout

    def test_injection_exhaustion_returns_one(self, workdir):
        r = run_cli("benchmark", "--bn", workdir / "hopeless.json",
                    "--sizes", "300", "--reps", "1", "--confounders", "1")
        assert r.returncode == 1
        assert "no admissible tables" in r.stderr

    def test_non_integer_size_is_usage_error(self, workdir):
        r = run_cli("benchmark", "--bn", workdir / "bn7.json", "--sizes", "400,200.5",
                    "--reps", "1")
        assert r.returncode == 2
        assert r.stderr.strip() == "error: --sizes entry '200.5' is not an integer"

    def test_malformed_bn_is_usage_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        r = run_cli("benchmark", "--bn", bad, "--sizes", "300", "--reps", "1")
        assert r.returncode == 2

    def test_arc_to_undeclared_variable_is_usage_error(self, workdir):
        doc = json.loads((workdir / "bn7.json").read_text())
        doc["arcs"].append(["V0", "NOPE"])
        bad = workdir / "bad_arc.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("benchmark", "--bn", bad, "--sizes", "300", "--reps", "1")
        assert r.returncode == 2
        assert "undeclared variable 'NOPE'" in r.stderr

    def test_missing_arcs_key_is_usage_error(self, workdir):
        doc = json.loads((workdir / "bn7.json").read_text())
        del doc["arcs"]
        bad = workdir / "no_arcs.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("benchmark", "--bn", bad, "--sizes", "300", "--reps", "1")
        assert r.returncode == 2
        assert "error: network JSON has no 'arcs' key" in r.stderr

    def test_network_json_of_the_wrong_shape_is_usage_error(self, workdir):
        bad = workdir / "five.json"
        bad.write_text("5")
        r = run_cli("benchmark", "--bn", bad, "--sizes", "300", "--reps", "1")
        assert r.returncode == 2
        assert "error: network JSON must be an object, not int" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("doc, message", [
        ({"variables": [{"name": "A", "states": ["x", "y"]}], "arcs": [[["A"], "A"]],
          "cpts": {}}, "error: 'arcs' entry [['A'], 'A'] is not a [from, to] pair of names"),
        ({"variables": [{"name": "A", "states": 3}], "arcs": [], "cpts": {}},
         "error: variable 'A' has 'states' that are not a list of labels: 3"),
        ({"variables": [{"name": "A", "states": ["x", "y"]}], "arcs": [],
          "cpts": {"A": {"p": 1}}}, "error: CPT of 'A' is not a flat list of numbers: {'p': 1}"),
    ], ids=["arc-name-not-a-string", "states-not-a-list", "cpt-an-object"])
    def test_network_json_with_bad_entries_is_usage_error(self, workdir, doc, message):
        bad = workdir / "bad_entry.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("benchmark", "--bn", bad, "--sizes", "300", "--reps", "1")
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr

    def test_learner_error_in_a_pooled_repetition_is_usage_error(self, monkeypatch, capsys):
        import multiprocessing

        from latentdag import cli, learner
        # two CPUs: the two repetitions run in a pool of two workers
        monkeypatch.setattr(learner, "_usable_cpus", lambda: 2)
        net = Path(__file__).resolve().parent.parent / "assets" / "net20.json"
        rc = cli.main(["benchmark", "--bn", str(net), "--mode", "exact", "--max-parents", "5",
                       "--sizes", "300", "--reps", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "error: exact mode caps max_parents at 4, got 5\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("sizes, bad", [("-5", -5), ("200,0", 0)])
    def test_size_below_one_is_usage_error(self, workdir, sizes, bad):
        r = run_cli("benchmark", "--bn", workdir / "bn7.json",
                    "--sizes", sizes, "--reps", "1")
        assert r.returncode == 2
        assert f"error: dataset size {bad} must be >= 1" in r.stderr
        assert "mean learn" not in r.stdout  # no size ran

    def test_empty_sizes_is_usage_error(self, workdir):
        r = run_cli("benchmark", "--bn", workdir / "bn7.json",
                    "--sizes", "", "--reps", "1")
        assert r.returncode == 2
        assert "at least one dataset size" in r.stderr


@pytest.mark.parametrize("argv", [
    ("discover", "--delimiter", ""),
    ("learn", "--delimiter", ";;"),
    ("sepset", "--u", "U", "--v", "V", "--delimiter", ";;"),
])
def test_bad_delimiter_is_usage_error(workdir, argv):
    r = run_cli(argv[0], "--input", workdir / "chain.csv", *argv[1:])
    assert r.returncode == 2
    assert "error: bad delimiter" in r.stderr
    assert "Traceback" not in r.stderr


def test_non_utf8_input_names_file_and_offset(workdir):
    path = workdir / "latin1.csv"
    # 0xe9 is "é" in Latin-1 and a truncated sequence in UTF-8
    path.write_bytes("U,V\nlo,hi\n".encode() + b"caf\xe9,lo\n")
    r = run_cli("learn", "--input", path)
    assert r.returncode == 2
    assert f"error: {path}: not UTF-8 text (byte 0xe9 at offset 13)" in r.stderr


def test_no_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _distribution_installed("latentdag"),
    reason="latentdag distribution not installed; run `pip install -e .` "
    "to put its console script on PATH",
)
def test_console_script_installed(workdir):
    exe = shutil.which("latentdag")
    assert exe, "console script missing from PATH"
    r = subprocess.run([exe, "dsep", "--graph", str(workdir / "chain_graph.json"),
                        "--u", "U", "--v", "V", "--given", "Z"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "True" in r.stdout
