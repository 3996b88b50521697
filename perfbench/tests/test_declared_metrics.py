"""Printed metrics match BENCHMARK.json both ways, on a tiny run of every
workload in both modes, and the command fails cleanly without the program."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.SHAPES)


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_declared_metrics(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 24)
    shape = dataclasses.replace(workloads.SHAPES[name], n_sets=50, n_queries=4, slice_sets=30)
    result = run.Run(run.import_program(), shape, seed=3, seconds=0, trace=bool(trace)).execute(0.0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES and result["attempted"] % shape.n_queries == 0
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        spans = (tmp_path / name / "spans.jsonl").read_text(encoding="utf-8").splitlines()
        recorded = {json.loads(line)["name"] for line in spans}
        assert set(run.SEARCH_SPANS) | set(run.BUILD_SPANS) <= recorded
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_lossier_flags_a_shorter_or_lower_answer_only():
    best = [(1, 3.0, 3), (2, 2.0, 2)]
    worse = [(1, 3.0, 3), (5, 1.9, 2)]
    assert not run.lossier(best, best)
    assert not run.lossier(best, worse)
    assert run.lossier(worse, best)
    assert run.lossier(best[:1], best)


def test_traced_run_fails_when_a_layer_is_not_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 8)
    monkeypatch.setattr(run, "HOOKS", [h for h in run.HOOKS if h[2] != "mwmto.sims"]
                        + [("tusearch.pipeline", "no_such_function", "mwmto.sims")])
    shape = dataclasses.replace(workloads.SHAPES["narrow"], n_sets=50, n_queries=4, slice_sets=30)
    result = run.Run(run.import_program(), shape, seed=3, seconds=0, trace=True).execute(0.0)
    assert not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
