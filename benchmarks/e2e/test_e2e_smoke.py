"""Smoke test of the e2e benchmark: all four workloads at toy size.

Toy size is a 32-bit group, at most 16 samples and two iterations per
epoch, so both runs below finish in seconds.  They go through the real
command (``python -m benchmarks.e2e``), job processes and services
included.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from .run import cross_mode_problems

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(out: pathlib.Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--size", "toy",
         "--seconds", "0", "--seed", "0", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        emitted = result["metrics"][workload]
        for spec in specs:
            metric = emitted[spec["name"]]
            assert metric["unit"] == spec["unit"], (workload, spec)
            assert math.isfinite(metric["value"]), (workload, spec)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return out, run_bench(out)


def test_every_end_to_end_metric_is_emitted(untraced):
    _, result = untraced
    assert_metrics(result, SPEC["end_to_end"])
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            assert result["metrics"][workload][spec["name"]]["value"] > 0


def test_traced_run_emits_layers_and_linked_spans(tmp_path):
    result = run_bench(tmp_path, "--trace", "1")
    assert_metrics(result, SPEC["per_layer"])
    spans = [json.loads(line) for line in
             (tmp_path / "mlp-serial" / "job-1-spans.jsonl")
             .read_text(encoding="utf-8").splitlines()]
    ids = {span["id"] for span in spans}
    children = [span for span in spans if span["parent"] is not None]
    assert children and all(span["parent"] in ids for span in children)
    assert len({span["run"] for span in spans}) == 1
    assert all(span["end"] >= span["start"] for span in spans)


def test_cross_mode_check_rejects_a_perturbed_weight_file(untraced,
                                                          tmp_path):
    out, _ = untraced
    files = {w: str(out / w / "job-0-weights.npz")
             for w in ("mlp-serial", "mlp-pooled", "mlp-rpc")}
    assert cross_mode_problems(files) == []
    with np.load(files["mlp-pooled"]) as archive:
        weights = {key: archive[key].copy() for key in archive.files}
    key = sorted(weights)[0]
    weights[key].flat[0] = np.nextafter(weights[key].flat[0], np.inf)
    perturbed = tmp_path / "perturbed.npz"
    np.savez(perturbed, **weights)
    problems = cross_mode_problems({**files, "mlp-pooled": str(perturbed)})
    assert len(problems) == 1 and key in problems[0]
