"""Self-tests of the benchmark at tiny budgets.

    python3 -m pytest -q bench/test_bench.py

Each run is a subprocess, as the benchmark is run, so the BLAS thread
setting takes effect before numpy loads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads as wk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the benchmark can run, also those BENCHMARK.json leaves out
WORKLOADS = list(wk.WORKLOADS)

# per-layer metrics that are counts or seed-determined results, as opposed
# to times: a same-seed replay must reproduce them bit for bit
REPLAYED = ("calls", "rows", "evals", "eval_count", "div_rows", "iterations",
            "final_loss", "acceptance", "reverse_ess", "ode_ess",
            "log_z_hat", "log_z_se", "eubo_elbo_gap")


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--budget", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wk.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(n, u, b, bd) for n, u, b, bd, _ in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(n, u, b) for n, u, b, _, _ in layers.PER_LAYER]
    for name, _, _, moves, on in layers.PER_LAYER:
        assert moves and on, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_replayed(workload):
    first, second = run(workload, 0), run(workload, 0)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert first["metrics"]["heldout_nelbo"] == \
        second["metrics"]["heldout_nelbo"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_replayed(workload):
    first, second = run(workload, 1), run(workload, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    replayed = [k for k in first["metrics"] if k.endswith(REPLAYED)]
    assert "metrics.reverse_ess" in replayed
    assert {k: first["metrics"][k] for k in replayed} == \
        {k: second["metrics"][k] for k in replayed}
