"""Smoke test of the benchmark harness on the coarse quick_1d config.

    python3 -m pytest perfbench/test_smoke.py

Runs every job once untraced and once traced and checks that each named
metric is emitted, that the output gate passes, and that the traced pass's
per-module self times add up to its wall time.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

QUICK = ["configs/quick_1d.cfg"]
MODULE_SELF = [name for name in run.PER_LAYER
               if name.endswith(".self_s") and name.count(".") == 1]


@pytest.mark.parametrize("job", ["sweep", "moser", "identities"])
def test_end_to_end_metrics(job):
    result = run.measure(job, QUICK, seed=3, seconds=0.01, trace=False)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["env"]["configs"][0]["seed"] == 3


@pytest.mark.parametrize("job", ["sweep", "moser", "identities"])
def test_per_layer_metrics(job):
    result = run.measure(job, QUICK, seed=3, seconds=0.01, trace=True)
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert result["failed"] == 0
    assert sum(metrics[k] for k in MODULE_SELF) == pytest.approx(
        metrics["trace.wall_s"], rel=0.02)
    sweep_counts = [k for k in run.PER_LAYER if k.startswith(("tent.", "mountain_pass."))
                    and run.PER_LAYER[k] == "count"]
    if job == "sweep":
        assert metrics["tent.ray_evals"] > 0 and metrics["mountain_pass.newton.iters"] > 0
    else:
        assert all(metrics[k] == 0 for k in sweep_counts)
    if job == "moser":
        assert metrics["operators.estimate_embedding_constant.form_evals"] > 0
