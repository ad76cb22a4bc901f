"""The benchmark's tracer (qbench/traced.py) looks engine names up with
getattr and patches them: linalg's elimination functions, the dense views'
products, the specialization entry points and more.  Renaming one of them
must fail here, not only in the benchmark's own tests."""

import os
import subprocess
import sys
from pathlib import Path

import qschur

SRC = os.path.dirname(os.path.dirname(qschur.__file__))
TRACED = Path(__file__).resolve().parents[1] / "qbench" / "traced.py"


def test_tracer_installs_on_the_engine():
    code = ("import importlib.util, sys; sys.path.insert(0, %r); "
            "import qschur; "
            "spec = importlib.util.spec_from_file_location('traced', %r); "
            "traced = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(traced); "
            "traced.install(traced.Recorder('x'), qschur)"
            % (SRC, str(TRACED)))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
