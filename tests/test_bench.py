"""Byte identity of every CLI output, checked by the benchmark harness.

``perfbench/run.py`` runs a workload's command chain (pool, build-vocab,
train, encode, rank, evaluate, rank --top) and compares each output with
the sha256 digests recorded in ``perfbench/golden.json`` for this seed
and numeric environment. One second of chains per workload suffices:
every chain is checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def golden_key(report: list[str]) -> str:
    """The golden.json key of the environment a run reports."""
    line = next(line for line in report if line.startswith("  environment: "))
    env = dict(item.split(" ", 1) for item in line.split(": ", 1)[1].split(", "))
    return f"threads={env['threads']} numpy={env['numpy']} blas={env['blas_config']}"


@pytest.mark.parametrize("workload", ["train_bow", "retrieve_video"])
def test_outputs_match_golden_digests(workload):
    # no bytecode caches: the run leaves nothing behind in the checkout
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.splitlines()
    result = json.loads(report[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    golden = next(line for line in report if "golden digests" in line)
    if golden.endswith("none recorded"):
        pytest.skip(f"perfbench/golden.json has no {workload} seed 1 digests "
                    f"under {golden_key(report)!r}")
    assert golden.endswith(": checked"), golden


def test_traced_run_counts_ranking_lines():
    # the tracer counts ranking lines through Ranking.entries
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "retrieve_video", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    assert metrics["formats.write_ranking.lines"]["value"] > 0, metrics
    assert metrics["formats.read_ranking.lines"]["value"] > 0, metrics


def test_traced_train_counts_every_hooked_training_layer():
    # train calls forward, backward and rmsprop_step as module globals, so
    # the tracer's wrappers see every step
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "train_bow", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    for name in ("neuralnet.forward.flops", "neuralnet.backward.flops",
                 "neuralnet.rmsprop_step.bytes"):
        assert metrics[name]["value"] > 0, (name, metrics)
