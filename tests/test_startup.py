"""Start-up cost: importing the CLI loads only the stdlib modules it runs.

Every report is one fresh process, so import time is paid by every job.
dataclasses (which pulls in inspect, ast, dis and tokenize) and typing
cost more to import than the engine's own modules.
"""

import json
import os
import subprocess
import sys

import qschur

SRC = os.path.dirname(os.path.dirname(qschur.__file__))
AVOIDED = ("dataclasses", "typing", "inspect")


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S skips the site module, whose .pth hooks may import these themselves
    code = ("import json, sys; sys.path.insert(0, %r); import qschur.cli; "
            "print(json.dumps([m for m in %r if m in sys.modules]))"
            % (SRC, AVOIDED))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
