"""Start-up and exit cost: importing the CLI loads only the stdlib modules
it runs, and only the CLI's `__main__` block ends the process early.

Every report is one fresh process, so import time is paid by every job.
dataclasses (which pulls in inspect, ast, dis and tokenize) and typing
cost more to import than the engine's own modules; argparse and the
gettext it loads cost a few milliseconds that the CLI's own option table
does not.
"""

import ast
import json
import os
import subprocess
import sys

import qschur

SRC = os.path.dirname(os.path.dirname(qschur.__file__))
AVOIDED = ("dataclasses", "typing", "inspect", "argparse", "gettext")


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S skips the site module, whose .pth hooks may import these themselves
    code = ("import json, sys; sys.path.insert(0, %r); import qschur.cli; "
            "print(json.dumps([m for m in %r if m in sys.modules]))"
            % (SRC, AVOIDED))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _is_main_guard(node):
    """`if __name__ == "__main__":` at the top of a module."""
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and [type(op) for op in test.ops] == [ast.Eq]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _os_exits(tree):
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "_exit")
            or (isinstance(node, ast.alias) and node.name == "_exit")]


def test_os_exit_only_in_the_cli_main_block():
    # the process skips the interpreter's teardown only where it runs as a
    # program; main() must stay a function that returns its code, since
    # the benchmark's tracer and the tests call it in-process
    package = os.path.dirname(qschur.__file__)
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            guards = [node for node in tree.body if _is_main_guard(node)]
            inside = {id(n) for g in guards for n in ast.walk(g)}
            found[name] = [id(n) in inside for n in _os_exits(tree)]
    assert {name: where for name, where in found.items() if where} == \
        {"cli.py": [True]}


def test_main_returns_its_code_in_process(tmp_path, capsys):
    from qschur.cli import main
    cfg = tmp_path / "a1.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": [[2]]}}))
    assert main(["datum", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "datum"
    assert main(["datum", "--config", str(tmp_path / "missing.json")]) == 2


def test_a_job_leaves_no_atexit_hook_or_thread(tmp_path):
    # nothing that the skipped teardown would have run: a whole verify job
    # registers no atexit hook and starts no thread (-S: no .pth hooks)
    cfg = tmp_path / "a2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A2"},
                               "pi": {"seeds": [[1, 1]]},
                               "caps": {"depth": 1, "samples": 2}}))
    code = ("import atexit, io, json, sys; sys.path.insert(0, %r)\n"
            "from contextlib import redirect_stdout\n"
            "from qschur.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    rc = main(['verify', '--config', %r])\n"
            "threading = sys.modules.get('threading')\n"
            "threads = threading.active_count() if threading else 1\n"
            "print(json.dumps([rc, atexit._ncallbacks(), threads]))"
            % (SRC, str(cfg)))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 1]
