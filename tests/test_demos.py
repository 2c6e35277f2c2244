"""The asset-generator demos: each rebuilds its shipped network byte for
byte, and runs from a checkout without the package installed."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latentdag import bn_to_json

ROOT = Path(__file__).resolve().parents[1]


def load_demo(name):
    path = ROOT / "demos" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"demo_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, build_args, asset", [
    ("make_benchmark_net", lambda m: (m.SEED,), "net20.json"),
    ("make_child_net", lambda m: (), "child.json"),
], ids=["net20", "child"])
def test_generator_rebuilds_its_asset(name, build_args, asset):
    demo = load_demo(name)
    bn = demo.build(*build_args(demo))
    # serialised as the demo's main() writes it
    text = json.dumps(json.loads(bn_to_json(bn)), indent=1) + "\n"
    assert text.encode() == (ROOT / "assets" / asset).read_bytes()


def test_child_generator_imports_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = ("import runpy, sys; "
              "runpy.run_path(sys.argv[1], run_name='check')")
    r = subprocess.run([sys.executable, "-c", script, str(ROOT / "demos" / "make_child_net.py")],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
