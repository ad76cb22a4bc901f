"""Output checks of the qschur benchmark.

Every report must match the sha256 digest captured for its job key in
``golden.json``.  On top of that, each command's report is checked against
oracles that do not share code with the engine's cell-module construction:
the Weyl dimension formula of ``RootDatum`` for module and specialization
dimensions and for the algebra dimension, ``passed`` for verify reports, and
a unit diagonal for decomposition matrices.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jobs import CONFIGS

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class WeylOracle:
    """Dimensions of Delta(lambda) by the Weyl dimension formula."""

    def __init__(self):
        # imported here: the package comes from the checkout's src directory
        from qschur.cli import JobConfig
        from qschur.rootdata import saturate
        self._datums = {name: JobConfig(doc).build_datum()
                        for name, doc in CONFIGS.items()}
        self._saturate = saturate

    def dim(self, config: str, lam) -> int:
        return self._datums[config].weyl_dimension(tuple(lam))

    def pi(self, config: str):
        return self._saturate(self._datums[config],
                              CONFIGS[config]["pi"]["seeds"])


def check_report(job, report: bytes, golden, oracle: WeylOracle) -> list:
    """Problems found in one job's report; empty when it passes.

    golden maps job keys to digests; None skips the digest check (used
    only while capturing the digests).
    """
    problems = []
    if golden is not None:
        want = golden.get(job.key)
        if want is None:
            problems.append("no golden digest for %r" % job.key)
        elif digest(report) != want:
            problems.append("report digest differs from the golden digest")
    try:
        payload = json.loads(report)["payload"]
    except (ValueError, KeyError) as exc:
        return problems + ["unreadable report: %s" % exc]
    cfg = job.config
    try:
        if job.command == "module":
            for m in payload["modules"]:
                lam = tuple(m["lambda"])
                if m["dim"] != oracle.dim(cfg, lam):
                    problems.append("dim of Delta%r is %r, Weyl formula %r"
                                    % (lam, m["dim"], oracle.dim(cfg, lam)))
        elif job.command == "specialize":
            for s in payload["specializations"]:
                lam = tuple(s["lambda"])
                if s["dim_delta"] != oracle.dim(cfg, lam):
                    problems.append("dim_delta of %r is %r, Weyl formula %r"
                                    % (lam, s["dim_delta"],
                                       oracle.dim(cfg, lam)))
        elif job.command == "cellbasis":
            want_dim = sum(oracle.dim(cfg, lam) ** 2 for lam in oracle.pi(cfg))
            if not payload["count"] == payload["dimension"] == want_dim:
                problems.append("count %r, dimension %r, sum of dim^2 %r"
                                % (payload["count"], payload["dimension"],
                                   want_dim))
        elif job.command == "verify":
            if payload["passed"] is not True:
                problems.append("verify did not pass")
        elif job.command == "decomp":
            for i, (lam, row) in enumerate(payload["rows"]):
                if row[i] != 1:
                    problems.append("decomposition row %r has diagonal %r"
                                    % (lam, row[i]))
    except (KeyError, IndexError, TypeError) as exc:
        problems.append("malformed %s report: %r" % (job.command, exc))
    return problems
