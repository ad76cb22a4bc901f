"""Byte-identity of CLI reports against the benchmark's golden digests.

Every job in ``qbench/golden.json`` (the datum jobs and every job any seed
of any workload can generate) runs as a fresh ``python -m qschur.cli``
process; each report's sha256 must equal the recorded one.  Configs and
job keys come from ``qbench/jobs.py``, which is only read.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschur

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
