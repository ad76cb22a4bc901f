"""Byte-identity of CLI reports against the benchmark's golden digests.

Every job in ``qbench/golden.json`` (the datum jobs and every job any seed
of any workload can generate) runs as a fresh ``python -m qschur.cli``
process; each report's sha256 must equal the recorded one.  Configs and
job keys come from ``qbench/jobs.py``, which is only read.  On the same
configs, the generic specialization's ranks must equal the ranks over Q(v)
of the integral bases' Grams, which it no longer builds, and the one-pass
decomposition solve must equal the dense reference's search.  The CLI
process runs with the cyclic garbage collector off, so every golden job,
run in-process with the collector off, must leave it nothing to free.
"""

import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur.cellmod import CellModule
from qschur.cli import JobConfig, Pipeline, main
from qschur.linalg import rank
from qschur.scalars import FieldContext
from qschur.specialize import decomposition_matrix, specialize_module

import dense

BENCH_DIR = Path(__file__).resolve().parents[1] / "qbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location(
        "_qbench_jobs", BENCH_DIR / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


JOBS = _load_jobs()
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))

SUBSET = (
    [JOBS.Job("datum", name) for name in JOBS.CONFIGS]
    + [job for workload in JOBS.WORKLOADS for job in JOBS.all_jobs(workload)]
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    for name, doc in JOBS.CONFIGS.items():
        with open(path / ("%s.json" % name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return path


@pytest.mark.parametrize("job", SUBSET, ids=lambda job: job.key)
def test_report_matches_golden(job, config_dir):
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli",
         *job.argv(str(config_dir / ("%s.json" % job.config)))],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[job.key]


@pytest.mark.parametrize("job", SUBSET, ids=lambda job: job.key)
def test_job_makes_no_reference_cycles(job, config_dir, capsys):
    # cli.run turns the cyclic collector off for the job; the engine makes
    # no reference cycles, so the collector would find nothing to free
    gc.collect()
    gc.disable()
    try:
        rc = main(job.argv(str(config_dir / ("%s.json" % job.config))))
    finally:
        unreachable = gc.collect()
        gc.enable()
    capsys.readouterr()
    assert rc == 0
    assert unreachable == 0


@pytest.mark.parametrize("name", sorted(JOBS.CONFIGS))
def test_generic_ranks_are_the_integral_gram_ranks(name):
    # every integral Gram is nonsingular over Q(v), so the generic field
    # reads its ranks from the character; HNF and its rank check still run
    # here, where the integral bases are built
    p = Pipeline(JobConfig(JOBS.CONFIGS[name]))
    for lam in p.flag:
        cm = CellModule(p.datum, lam)
        spec = specialize_module(cm, FieldContext.generic())
        assert spec.weight_ranks == {
            mu: rank(cm.basis(mu, integral=True).gram) for mu in cm.weights}


POINTS = [FieldContext.rational_point(q) for q in (1, 2, -1)] + [
    FieldContext.cyclotomic_point(ell) for ell in range(2, 9)]


@pytest.mark.parametrize("name", sorted(JOBS.CONFIGS))
def test_decomposition_matrix_matches_the_search(name):
    # the walk down the flag finds every decomposition number the search
    # for a dominance-maximal residual weight finds
    p = Pipeline(JobConfig(JOBS.CONFIGS[name]))
    modules = {lam: CellModule(p.datum, lam) for lam in p.flag}
    for ctx in POINTS:
        specs = {lam: specialize_module(cm, ctx) for lam, cm in modules.items()}
        dm = decomposition_matrix(specs, p.flag, ctx)
        ref = dense.decomposition_matrix(specs, p.flag, ctx)
        assert dm.entries == ref.entries, ctx.label()
        assert [dm.row(lam) for lam in dm.order] == \
            [ref.row(lam) for lam in ref.order], ctx.label()
