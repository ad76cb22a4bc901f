"""Write golden.json: the sha256 digest of every report any seed can
generate, for every workload (each cyclotomic order ell) and every config's
``datum`` set-up call.

Run from the root of a checkout of the commit whose reports are the
reference::

    python3 qbench/capture_golden.py

Nothing is written when a report fails an oracle check or a ``--threads``
twin differs from its single-threaded job.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checks import GOLDEN_PATH, digest
from jobs import CONFIGS, WORKLOADS, Job, all_jobs
from run import BENCH_DIR, SRC, Runner


def main() -> int:
    sys.path.insert(0, str(SRC))
    jobs = {}
    for job in [Job("datum", c) for c in CONFIGS] + [
            j for w in WORKLOADS for j in all_jobs(w)]:
        jobs.setdefault(job.key, job)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        with Runner(Path(tmp), None) as runner:
            outcomes = runner.run_pass(list(jobs.values()))
    if any(o.problems for o in outcomes):
        return 1  # each problem is already on stderr
    golden = {o.job.key: digest(o.report) for o in outcomes}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(golden), GOLDEN_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
