"""Tests of the benchmark itself, on its tiny-size plans.

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402
from somnoscore import model, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", list(workloads.PLANS))
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc = run_cli("--workload", workload, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']} " in line
                   for line in lines), metric["name"]
    assert any(line.startswith("error_rate = 0 ") for line in lines)
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = run_cli("--workload", "full-train", "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "overhead" in proc.stdout
    m = result["metrics"]
    layer_calls = sum(m[f"model.{layer}.{d}.calls"]["value"]
                      for layer in ("conv1", "conv2", "dense1", "dense2", "out")
                      for d in ("fwd", "bwd"))
    assert layer_calls > 0 and m["model.forward.calls"]["value"] > 0


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "full-train", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def tiny_pass(workload: str, work: Path) -> workloads.Outcome:
    return workloads.Pass(workloads.TINY_PLANS[workload], seed=0, seconds=0.0,
                          work=work, exact=True).run()


def test_corrupted_checkpoint_byte_is_a_failure(tmp_path, monkeypatch):
    save = model.save_checkpoint

    def save_and_corrupt(params, path):
        save(params, path)
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(model, "save_checkpoint", save_and_corrupt)
    outcome = tiny_pass("full-train", tmp_path)
    assert outcome.failed > 0
    assert any(e.startswith("checkpoint:") and "checksum" in e for e in outcome.errors)


def test_non_finite_loss_is_a_failure(tmp_path, monkeypatch):
    update = training.batch_update

    def nan_loss(params, batch, config):
        update(params, batch, config)
        return float("nan")

    monkeypatch.setattr(training, "batch_update", nan_loss)
    outcome = tiny_pass("full-train", tmp_path)
    plan = workloads.TINY_PLANS["full-train"]
    assert outcome.failed >= plan.train.min_ops
    assert any("non-finite loss" in e for e in outcome.errors)
    assert np.isnan(outcome.record["losses"]).all()


def test_benchmark_json_matches_the_plans():
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.PLANS[entry["name"]].why
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END_UNITS)
