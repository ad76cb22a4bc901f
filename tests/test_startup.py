"""Start-up and exit cost: importing the CLI loads only the stdlib modules
it runs, and only cli.run, which the CLI's `__main__` block and the
installed `qschur` script call, ends the process early.

Every report is one fresh process, so import time is paid by every job.
dataclasses (which pulls in inspect, ast, dis and tokenize) and typing
cost more to import than the engine's own modules; argparse and the
gettext it loads cost a few milliseconds that the CLI's own option table
does not.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

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


def _run_calls(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "run"]


def _owner(tree):
    """Map the id of every node under a top-level statement to that
    statement's name: a def's own name, "__main__" for the main guard,
    None for anything else."""
    owner = {}
    for top in tree.body:
        name = ("__main__" if _is_main_guard(top)
                else getattr(top, "name", None))
        owner.update((id(n), name) for n in ast.walk(top))
    return owner


def test_os_exit_only_in_the_cli_main_block():
    # the process skips the interpreter's teardown only where it runs as a
    # program, through cli.run, which both the `qschur` script and the
    # module's __main__ block call; main() must stay a function that
    # returns its code, since the benchmark's tracer and the tests call it
    # in-process
    package = os.path.dirname(qschur.__file__)
    exits, calls = {}, {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            owner = _owner(tree)
            exits[name] = [owner[id(n)] for n in _os_exits(tree)]
            calls[name] = [owner[id(n)] for n in _run_calls(tree)]
    assert {name: where for name, where in exits.items() if where} == \
        {"cli.py": ["run"]}
    assert {name: where for name, where in calls.items() if where} == \
        {"cli.py": ["__main__"]}


def test_console_script_ends_as_the_module_does(tmp_path):
    # pip's `qschur` wrapper runs sys.exit(run()): the same report bytes,
    # stderr line and exit code as python -m qschur.cli, also for exit 2
    cfg = tmp_path / "a1.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": [[2]]}}))
    env = dict(os.environ, PYTHONPATH=SRC)
    wrapper = ("import sys; from qschur.cli import run; "
               "sys.argv[0] = 'qschur'; sys.exit(run())")
    for argv, code in ((["module", "--config", str(cfg)], 0),
                       (["datum", "--config", str(tmp_path / "no.json")], 2)):
        procs = [subprocess.run([sys.executable, *head, *argv],
                                capture_output=True, env=env, timeout=60)
                 for head in (["-m", "qschur.cli"], ["-c", wrapper])]
        assert [p.returncode for p in procs] == [code, code]
        assert procs[0].stdout == procs[1].stdout
        err = [re.sub(rb"\d+\.\d{3} s", b"", p.stderr) for p in procs]
        assert err[0] == err[1]


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


ENGINE = ("straighten", "cellmod", "assembly", "specialize")


@pytest.mark.parametrize("command, unloaded", [
    ("datum", ENGINE), ("saturate", ENGINE),
    ("module", ("assembly",)), ("gram", ("assembly",)),
    ("specialize", ("assembly",)), ("decomp", ("assembly",)),
])
def test_a_command_loads_only_the_engine_modules_it_runs(tmp_path, command,
                                                         unloaded):
    # qschur resolves its exports on first access and the CLI imports a
    # command's engine modules when it runs (-S: no .pth hooks)
    cfg = tmp_path / "a1.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": [[2]]}}))
    code = ("import io, json, sys; sys.path.insert(0, %r)\n"
            "from contextlib import redirect_stdout\n"
            "from qschur.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    rc = main([%r, '--config', %r])\n"
            "print(json.dumps([rc, [m for m in %r\n"
            "                       if 'qschur.' + m in sys.modules]]))"
            % (SRC, command, str(cfg), unloaded))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_package_exports_resolve_on_first_access():
    code = ("import json, sys; sys.path.insert(0, %r)\n"
            "import qschur\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('qschur.'))\n"
            "cell = qschur.CellModule\n"
            "from qschur import *\n"
            "from qschur.cellmod import CellModule\n"
            "from qschur.scalars import LaurentPoly as L\n"
            "import qschur.specialize as spec\n"
            "print(json.dumps([loaded, cell is CellModule, LaurentPoly is L,\n"
            "                  specialize is spec, sorted(qschur.__all__)\n"
            "                  == sorted(n for n in qschur.__all__\n"
            "                            if n in globals())]))" % SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, True, True, True]
    with pytest.raises(AttributeError):
        qschur.no_such_export


def test_all_is_the_export_table_and_the_specialize_module():
    assert len(set(qschur.__all__)) == len(qschur.__all__)
    assert set(qschur.__all__) == set(qschur._EXPORTS) | {"specialize",
                                                          "__version__"}
    assert "specialize" not in qschur._EXPORTS
