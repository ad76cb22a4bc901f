"""Tests of the benchmark's own code: span analysis, output checks, seeded
job lists, and a smoke workload end to end.

Run from the root of the repository with ``python -m pytest qbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import WeylOracle, check_report, load_golden
from jobs import ELLS, WORKLOADS, Job, all_jobs, job_list
from metrics import (END_TO_END, PER_LAYER, layer_metrics, self_times,
                     union_length)

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def test_union_length_merges_overlaps():
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_on_synthetic_span_tree():
    # span 1 has two children that overlap (as pool threads do) and a
    # grandchild under span 2; a span clipped at its parent's end counts
    # only inside the parent
    spans = [
        (1, 0, "root", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 1, "b", 30, 60),
        (4, 2, "c", 15, 20),
        (5, 0, "other", 200, 210),
    ]
    assert self_times(spans) == {1: 50, 2: 25, 3: 30, 4: 5, 5: 10}


def test_layer_metrics_count_nested_spans_once():
    trace = {
        "spans": [
            (1, 0, "cli.main", 0, 1_000_000_000),
            (2, 1, "linalg.eliminate", 100, 600),
            (3, 2, "linalg.eliminate", 200, 300),
            (4, 1, "cellmod.build", 1000, 5000),
            (5, 4, "straighten.gram_entry", 1000, 2000),
        ],
        "counts": {"straighten.push": 10, "straighten.push.distinct": 4,
                   "cellmod.words": 8, "cellmod.rank": 2},
    }
    m = layer_metrics([trace, trace])
    assert m["linalg.eliminate.s"] == pytest.approx(2 * 500e-9)
    assert m["cellmod.build.self_s"] == pytest.approx(2 * 3000e-9)
    assert m["straighten.gram_entry.calls"] == 2
    assert m["straighten.push.memo_hit_ratio"] == pytest.approx(1 - 8 / 20)
    assert m["cellmod.useful_word_ratio"] == pytest.approx(0.25)
    assert m["assembly.gen_density"] == 0.0


def _cli_report(job: Job, tmp_path: Path) -> bytes:
    from jobs import CONFIGS
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(CONFIGS[job.config]))
    out = subprocess.run(
        [sys.executable, "-m", "qschur.cli", *job.argv(str(cfg))],
        capture_output=True, check=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")})
    return out.stdout


def test_check_flags_corrupted_report_and_wrong_dimension(tmp_path):
    golden, oracle = load_golden(), WeylOracle()
    job = Job("module", "A1-2")
    report = _cli_report(job, tmp_path)
    assert check_report(job, report, golden, oracle) == []

    renamed = report.replace(b'"qschur"', b'"qschur2"')
    assert check_report(job, renamed, golden, oracle) == [
        "report digest differs from the golden digest"]

    wrong_dim = report.replace(b'"dim": 3', b'"dim": 4')
    problems = check_report(job, wrong_dim, golden, oracle)
    assert "report digest differs from the golden digest" in problems
    assert any("Weyl formula 3" in p for p in problems)

    assert "unreadable report" in check_report(
        job, report[:-20], golden, oracle)[-1]


def test_check_flags_failed_verify_and_bad_decomposition(tmp_path):
    oracle = WeylOracle()
    verify = json.dumps({"payload": {"passed": False}}).encode()
    assert check_report(Job("verify", "A1-2"), verify, None, oracle) == [
        "verify did not pass"]
    decomp = json.dumps({"payload": {"rows": [[[2], [1, 0]], [[0], [1, 2]]]}})
    assert check_report(Job("decomp", "A1-2", ell=3), decomp.encode(), None,
                        oracle) == ["decomposition row [0] has diagonal 2"]


def test_same_seed_gives_same_job_list():
    for workload in WORKLOADS:
        assert job_list(workload, 7) == job_list(workload, 7)
        ells = [j.ell for j in job_list(workload, 7) if j.ell is not None]
        assert len(set(ells)) == len(ells) and set(ells) <= set(ELLS)
    orders = {tuple(j.key for j in job_list("rank1", s)) for s in range(10)}
    assert len(orders) > 1


def test_golden_digests_cover_every_generable_job():
    golden = load_golden()
    for workload in WORKLOADS:
        for job in all_jobs(workload):
            assert job.key in golden
            if job.twin_of is not None:
                assert golden[job.key] == golden[job.twin_of]


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "qbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


@pytest.mark.parametrize("trace, table", [("0", END_TO_END), ("1", PER_LAYER)])
def test_smoke_workload_prints_every_metric_with_its_unit(trace, table):
    out = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                 "--trace", trace, timeout=60)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, *_ in table}
    info = json.loads(out.stdout.splitlines()[-2])
    assert info["seed"] == 3 and info["machine"]["nproc"] >= 1
    if trace == "0":
        assert info["raw"]["reference_s"] > 0 and info["raw"]["runs_per_job"] >= 1


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [row[:4] for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [row[:3] for row in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in WORKLOADS if w != "smoke"]


def test_fails_without_engine_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "qbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "cells", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
