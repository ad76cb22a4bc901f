"""Workloads of the qschur benchmark: job configs, job lists and the seed.

A job is one `qschur <command> --config <doc>` invocation.  A workload is a
fixed list of job templates; the seed picks the cyclotomic orders ell of the
templates that take one, and the order in which the jobs run.  The engine
only ever sees the generated job documents and command lines.

Why each workload exists, and which layer it stresses or bypasses:

* ``cells``: cell-module construction dominates (straightening, the greedy
  Q(v) generic-basis selection in ``cellmod``, gcds in ``scalars``, then
  HNF).  No job touches the block-matrix model of ``assembly``.  A1xA1 has
  very overcomplete word sets.  The ``--threads 2`` twin of the A2 (2,2)
  build makes the thread-pool decision measurable.
* ``algebra``: the ``assembly`` block model and dense ``linalg`` products
  dominate (relation and cellularity suites, cellular bases); cell builds
  are at most about 0.1 s per job, so a ``cellmod`` change should not move
  it.
* ``rank1``: long Laurent polynomials dominate (the cyclotomic scan of Gram
  determinants, ``laurent_divmod``, cyclotomic-field rank and nullspace).
  Every weight space has multiplicity 1, so generic-basis elimination is
  trivial, and ``assembly`` is bypassed.
* ``smoke``: A1 (2), every command once; for the benchmark's own tests.

Jobs left out as too long for 22 runs per check: B2 (2,1) ``module`` (about
63 s) and ``verify`` at depth 3 on A1 with pi = {0, 1, ..., 6} (both root
lattice cosets, about 14 s).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

ELLS = tuple(range(2, 9))
ELL = "ell"  # template marker: this job takes a seeded cyclotomic order

CONFIGS = {
    "A1-2": {"datum": {"preset": "A1"}, "pi": {"seeds": [[2]]},
             "caps": {"depth": 1, "samples": 2}},
    "A1-6": {"datum": {"preset": "A1"}, "pi": {"seeds": [[6]]},
             "caps": {"depth": 3}},
    "A1-12": {"datum": {"preset": "A1"}, "pi": {"seeds": [[12]]}},
    "A1-16": {"datum": {"preset": "A1"}, "pi": {"seeds": [[16]]}},
    "A1xA1-33": {"datum": {"preset": "A1xA1"}, "pi": {"seeds": [[3, 3]]}},
    "A2-11": {"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]}},
    "A2-21": {"datum": {"preset": "A2"}, "pi": {"seeds": [[2, 1]]},
              "caps": {"depth": 2, "samples": 4}},
    "A2-22": {"datum": {"preset": "A2"}, "pi": {"seeds": [[2, 2]]}},
    "A2-31": {"datum": {"preset": "A2"}, "pi": {"seeds": [[3, 1]]}},
    "A3-101": {"datum": {"preset": "A3"}, "pi": {"seeds": [[1, 0, 1]]}},
    "B2-11": {"datum": {"preset": "B2"}, "pi": {"seeds": [[1, 1]]}},
    "G2-01": {"datum": {"preset": "G2"}, "pi": {"seeds": [[0, 1]]}},
    "G2-20": {"datum": {"preset": "G2"}, "pi": {"seeds": [[2, 0]]}},
    "GL2-20": {"datum": {"cartan": [[2]], "alpha": [[1, -1]],
                         "alphav": [[1, -1]]},
               "pi": {"seeds": [[2, 0]]}},
}

# (command, config, extra flags, ELL or None)
WORKLOADS = {
    "cells": (
        ("module", "A2-22", (), None),
        ("module", "A2-22", ("--threads", "2"), None),
        ("decomp", "A2-31", (), ELL),
        ("gram", "G2-20", (), None),
        ("module", "A1xA1-33", (), None),
        ("module", "A3-101", (), None),
        ("gram", "GL2-20", (), None),
    ),
    "algebra": (
        ("verify", "A1-6", (), None),
        ("verify", "A2-21", (), None),
        ("cellbasis", "G2-01", ("--matrices",), None),
        ("cellbasis", "B2-11", ("--integral",), None),
        ("cellbasis", "A2-11", (), None),
    ),
    "rank1": (
        ("gram", "A1-16", (), None),
        ("decomp", "A1-12", (), ELL),
        ("decomp", "A1-12", (), ELL),
        ("decomp", "A1-12", (), ELL),
        ("specialize", "A1-16", (), ELL),
    ),
    "smoke": (
        ("module", "A1-2", (), None),
        ("module", "A1-2", ("--threads", "2"), None),
        ("gram", "A1-2", (), None),
        ("decomp", "A1-2", (), ELL),
        ("specialize", "A1-2", (), ELL),
        ("cellbasis", "A1-2", ("--integral",), None),
        ("verify", "A1-2", (), None),
    ),
}

COMMANDS = ("module", "gram", "decomp", "specialize", "cellbasis", "verify")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``key`` names it in the golden digests."""

    command: str
    config: str
    flags: tuple = ()
    ell: Optional[int] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv("<%s>" % self.config))

    @property
    def twin_of(self) -> Optional[str]:
        """Key of the single-threaded job whose report this one must equal."""
        if "--threads" not in self.flags:
            return None
        i = self.flags.index("--threads")
        single = Job(self.command, self.config,
                     self.flags[:i] + self.flags[i + 2:], self.ell)
        return single.key

    def argv(self, config_path: str) -> list:
        out = [self.command, "--config", config_path, *self.flags]
        if self.ell is not None:
            out += ["--field", "cyclotomic=%d" % self.ell]
        return out


def job_list(workload: str, seed: int) -> list:
    """The workload's jobs for this seed: ell values drawn without
    replacement from ELLS, in a seeded order."""
    templates = WORKLOADS[workload]
    rng = random.Random(seed)
    ells = iter(rng.sample(ELLS, sum(1 for t in templates if t[3] == ELL)))
    jobs = [Job(cmd, cfg, flags, next(ells) if ell == ELL else None)
            for cmd, cfg, flags, ell in templates]
    rng.shuffle(jobs)
    return jobs


def all_jobs(workload: str) -> list:
    """Every job any seed can generate for the workload (each ell in ELLS)."""
    out = {}
    for cmd, cfg, flags, ell in WORKLOADS[workload]:
        for e in (ELLS if ell == ELL else (None,)):
            job = Job(cmd, cfg, flags, e)
            out[job.key] = job
    return list(out.values())
