"""The benchmark's tracer, loaded from ``perfbench/tracing.py`` without
changing it, still finds every function it wraps and reads a non-zero
count off the score table."""

import importlib.util
from pathlib import Path

import latentdag.cli  # noqa: F401  the benchmark worker imports it before tracing
from latentdag import ScoreContext, bn_from_json, learner, sample

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_counts_the_families():
    d = sample(bn_from_json((ROOT / "assets" / "child.json").read_text()), 2000, seed=5)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        tracer.run_op(0, lambda: learner.build_local_scores(ScoreContext(d), 4))
        assert tracer.counts["learner.build_local_scores.calls"] == 1
        assert tracer.counts["learner.families"] == 100_720
    finally:
        tracer.uninstall()
    assert not hasattr(learner.build_local_scores, "__wrapped__")
