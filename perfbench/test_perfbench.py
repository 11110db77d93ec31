"""Fast tests of the benchmark itself (tiny sizes; a few seconds each)."""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_plan  # noqa: E402
import bench_workloads  # noqa: E402
import run as bench_run  # noqa: E402
from bench_plan import TINY  # noqa: E402


@pytest.fixture
def in_repo(monkeypatch):
    """Run ``main`` from the repository root, undoing its env and path edits."""
    saved = dict(os.environ)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield
    os.environ.clear()
    os.environ.update(saved)


def run_tiny(capsys, workload: str, seed: int = 1, trace: int = 0) -> tuple[int, dict]:
    code = bench_run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        size=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def plan_of(seed: int) -> dict:
    return {
        "cells": [
            cell.to_config()
            for workload in ("sweep-cold", "figure5", "timing")
            for cell in bench_plan.cells_for(workload, seed, TINY)
        ],
        "jobs": [(job.client, job.kind, job.payload, job.base)
                 for job in bench_plan.serve_jobs(seed, TINY)],
    }


def test_generator_is_deterministic_in_the_seed():
    assert plan_of(5) == plan_of(5)
    seeds = {
        cell.program.seed for cell in bench_plan.sweep_cold_cells(5, TINY)
    }
    other = {
        cell.program.seed for cell in bench_plan.sweep_cold_cells(6, TINY)
    }
    assert seeds.isdisjoint(other)
    assert plan_of(5)["jobs"] != plan_of(6)["jobs"]


def test_serve_plan_sets_the_repeat_share():
    jobs = bench_plan.serve_jobs(3, bench_plan.FULL)
    kinds = [job.kind for job in jobs]
    assert kinds.count("repeat") == round(bench_plan.SERVE_REPEAT_SHARE * len(jobs))
    assert kinds.count("extend") == round(bench_plan.SERVE_EXTEND_SHARE * len(jobs))
    seen = set()
    for job in jobs:
        assert job.novel == tuple(h not in seen for h in job.content_hashes)
        seen.update(job.content_hashes)
        if job.kind == "new":
            assert all(job.novel)
        else:
            assert jobs[job.base].client == job.client
    share = bench_plan.repeat_share(jobs)
    assert 0.1 < share < 0.5


def test_gate_checks_every_batched_system_of_a_workload():
    for workload in ("sweep-cold", "figure5", "timing"):
        cells = bench_plan.cells_for(workload, 4, TINY)
        picked = [cells[i] for i in bench_workloads._gate_sample(workload, 4, cells)]
        labels = {cell.system_label for cell in picked}
        assert len(labels) == len(picked)
        expected = {cell.system_label for cell in cells} - (
            {"tage-16"} if workload == "figure5" else set()
        )
        assert labels == expected


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in bench_run.END_TO_END + bench_run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in bench_run.END_TO_END + bench_run.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(bench_run.WORKLOADS)
    for key, printed in (("end_to_end", bench_run.END_TO_END),
                         ("per_layer", bench_run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(printed)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_workload_passes_its_gate(in_repo, capsys, workload, trace):
    code, result = run_tiny(capsys, workload, trace=trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = bench_run.PER_LAYER if trace else bench_run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in printed]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_metrics_repeat_at_a_seed_and_move_with_it(in_repo, capsys):
    first = run_tiny(capsys, "sweep-cold", seed=1)[1]["metrics"]["misp_per_kuops"]
    again = run_tiny(capsys, "sweep-cold", seed=1)[1]["metrics"]["misp_per_kuops"]
    other = run_tiny(capsys, "sweep-cold", seed=2)[1]["metrics"]["misp_per_kuops"]
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench_run.main(["--workload", "timing", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
