"""The qschur benchmark: fresh-process CLI jobs, checked and timed.

Usage (from the root of a checkout)::

    python3 qbench/run.py --workload cells --seed 1 --seconds 40 --trace 0

Each job runs as its own ``python3 -m qschur.cli`` process, one at a time,
the way users call the CLI; in-process repeats would reuse the engine's
process-global caches.  Jobs are spawned and timed by spawn.py.

``--trace 0`` sets up (``qschur datum`` on every distinct config, several
times), then runs passes over the job list until the next pass would end
after ``--seconds``, and prints the end-to-end metrics.  A run of the
reference kernel (reference.py) follows every job and every set-up round,
and each time is reported relative to the reference runs around it (see
``measure``).  ``--trace 1`` runs each job untraced and then traced (under
traced.py) and prints the per-layer metrics.  Every report is checked
(checks.py).  The last stdout line is the result object; the line before it
records the seed, the jobs, the raw wall-clock figures and the machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import WeylOracle, check_report, digest, load_golden
from jobs import COMMANDS, CONFIGS, WORKLOADS, Job, job_list
from metrics import END_TO_END, PER_LAYER, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 60
# Nominal wall seconds of one reference.py run: end-to-end times are reported
# in these units, i.e. as seconds on a machine where the reference takes REF_S.
REF_S = 0.25


@dataclass
class Outcome:
    job: Job
    wall: float
    maxrss_kb: int
    report: bytes
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        print("FAIL %s: %s" % (self.job.key, problem), file=sys.stderr)
        self.problems.append(problem)


class Runner:
    """Runs jobs as child processes in a scratch directory and checks them."""

    def __init__(self, workdir: Path, golden):
        self.workdir = workdir
        self.golden = golden
        self.oracle = WeylOracle()
        self.outcomes = []
        self.refs = []
        self._last_ref = None
        self._checked = {}
        for name, doc in CONFIGS.items():
            with open(self.config_path(name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # an installed qschur has its bytecode compiled; let the untimed
        # warm-up job write it, or every job would compile the engine again
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._spawner.stdin.close()
        self._spawner.wait(timeout=JOB_TIMEOUT_S + 10)
        self._spawner.stdout.close()

    def _spawn(self, cmd, out_path, err_path) -> dict:
        request = {"cmd": cmd, "stdout": str(out_path),
                   "stderr": str(err_path), "cwd": str(ROOT),
                   "timeout": JOB_TIMEOUT_S}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the job spawner exited")
        return json.loads(reply)

    def config_path(self, name: str) -> str:
        return str(self.workdir / ("%s.json" % name))

    def run(self, job: Job, trace_out: Path = None) -> Outcome:
        argv = job.argv(self.config_path(job.config))
        if trace_out is None:
            cmd = [sys.executable, "-m", "qschur.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"),
                   "--job", job.key, "--trace-out", str(trace_out),
                   "--", *argv]
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        reply = self._spawn(cmd, out_path, err_path)
        report = out_path.read_bytes()
        outcome = Outcome(job, reply["wall"], reply["maxrss_kb"], report)
        self.outcomes.append(outcome)
        status = reply["status"]
        if status != 0:
            tail = err_path.read_bytes().decode(errors="replace")[-400:]
            outcome.fail("exit status %d: %s" % (status, tail))
            return outcome
        key = (job.key, digest(report))
        if key not in self._checked:
            self._checked[key] = check_report(
                job, report, self.golden, self.oracle)
        for problem in self._checked[key]:
            outcome.fail(problem)
        return outcome

    def reference(self) -> float:
        """Wall seconds of one run of the reference kernel."""
        reply = self._spawn([sys.executable, str(BENCH_DIR / "reference.py")],
                            self.workdir / "stdout", self.workdir / "stderr")
        if reply["status"] != 0:
            raise RuntimeError("the reference kernel exited with status %d"
                               % reply["status"])
        self._last_ref = reply["wall"]
        self.refs.append(reply["wall"])
        return reply["wall"]

    def paired(self, jobs: list) -> tuple:
        """Run jobs back to back between two reference runs.

        Returns the outcomes and the reference time around them: the mean
        of the reference run just before them and the one just after.
        """
        before = self._last_ref
        if before is None:
            before = self.reference()
        outcomes = [self.run(job) for job in jobs]
        return outcomes, (before + self.reference()) / 2

    def run_pass(self, jobs: list) -> list:
        """One outcome per job, in order, twins checked."""
        outcomes = [self.run(job) for job in jobs]
        check_twins(outcomes)
        return outcomes

    def counts(self) -> tuple:
        attempted = len(self.outcomes)
        failed = sum(1 for o in self.outcomes if o.problems)
        return attempted, failed


def check_twins(outcomes: list) -> None:
    """Fail each --threads twin whose report is not byte-identical to the
    report of its single-threaded job."""
    by_key = {o.job.key: o for o in outcomes}
    for o in outcomes:
        base = by_key.get(o.job.twin_of)
        if base is not None and o.report != base.report:
            o.fail("--threads report differs from %s" % base.job.key)


def _warm_up(runner: Runner, jobs: list) -> None:
    """One untimed datum call, so that bytecode caches exist before timing."""
    runner.run(Job("datum", jobs[0].config))


def measure(runner: Runner, jobs: list, seconds: float) -> tuple:
    """End-to-end metrics: set-up repeats, then the jobs in turn, pass after
    pass, while the next job is due to end within ``seconds`` of the start
    (set-up included).  Every job runs at least once.

    Each timing is divided by the reference kernel's time around it and
    scaled by REF_S: on a shared host the machine's speed drifts by a fifth
    within minutes, and this cancels most of it.  Also returns the raw
    wall-clock figures, for the record.
    """
    start = time.perf_counter()
    _warm_up(runner, jobs)
    configs = list(dict.fromkeys(job.config for job in jobs))
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        outcomes, ref = runner.paired([Job("datum", c) for c in configs])
        wall = sum(o.wall for o in outcomes)
        raw_setups.append(wall)
        setups.append(wall / ref * REF_S)
    walls = {job.key: [] for job in jobs}
    raw_walls = {job.key: [] for job in jobs}
    rss = {job.key: [] for job in jobs}
    took = {}  # job key -> seconds its last run took, reference included
    outcomes = []
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        if i % len(jobs) == 0:
            check_twins(outcomes)
            outcomes = []
        if (i >= len(jobs)
                and time.perf_counter() - start + took[job.key] > seconds):
            break
        t0 = time.perf_counter()
        (o,), ref = runner.paired([job])
        took[job.key] = time.perf_counter() - t0
        outcomes.append(o)
        walls[job.key].append(o.wall / ref * REF_S)
        raw_walls[job.key].append(o.wall)
        rss[job.key].append(o.maxrss_kb)
    check_twins(outcomes)
    attempted, failed = runner.counts()
    values = {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    raw = {
        "wall_s": sum(statistics.median(v) for v in raw_walls.values()),
        "setup_s": statistics.median(raw_setups),
        "reference_s": statistics.median(runner.refs),
        "runs_per_job": min(len(v) for v in walls.values()),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in END_TO_END}, raw


def measure_traced(runner: Runner, jobs: list) -> dict:
    """Per-layer metrics: each job runs untraced, then at once traced, so
    that both runs of a pair see the same machine load."""
    _warm_up(runner, jobs)
    trace_dir = runner.workdir / "traces"
    trace_dir.mkdir()
    plain, traced, traces = [], [], []
    for i, job in enumerate(jobs):
        p = runner.run(job)
        path = trace_dir / ("%d.json" % i)
        t = runner.run(job, path)
        if t.report != p.report:
            t.fail("traced report differs from the untraced one")
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        else:
            t.fail("no trace written")
        plain.append(p)
        traced.append(t)
    check_twins(plain)
    check_twins(traced)
    values = layer_metrics(traces)
    for cmd in COMMANDS:
        values["%s_s" % cmd] = sum(o.wall for o in plain
                                   if o.job.command == cmd)
    values["cli.report_bytes"] = sum(len(o.report) for o in traced)
    values["trace.overhead_ratio"] = (sum(o.wall for o in traced)
                                      / sum(o.wall for o in plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in PER_LAYER}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qschur" / "cli.py").is_file():
        print("error: no qschur sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    jobs = job_list(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        with Runner(Path(tmp), load_golden()) as runner:
            if args.trace:
                metrics, raw = measure_traced(runner, jobs), None
            else:
                metrics, raw = measure(runner, jobs, args.seconds)
    attempted, failed = runner.counts()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": [job.key for job in jobs], "raw": raw,
        "machine": machine_info()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
