"""Run one qschur CLI job with spans and counters recorded at layer boundaries.

Usage::

    python3 qbench/traced.py --job KEY --trace-out PATH -- ARGS...

ARGS are the arguments of ``qschur`` (``module --config job.json ...``); the
qschur package is imported from the Python path, as the CLI would be.  The
launcher wraps the public functions of each engine module from outside,
patching every namespace that looks the name up, then calls
``qschur.cli.main``.  The report on stdout is the CLI's own, byte for byte.
Spans (id, parent, name, start ns, end ns) and counters are kept in memory
and written as JSON to PATH when the job ends.  No engine code is changed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter


class Recorder:
    """Spans and counters of one job, safe for the engine's thread pool.

    Each thread keeps its own span stack, counter and key sets; a pool
    thread's outermost span takes the main thread's open span as parent.
    """

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._all_counts = []
        self._all_keys = []
        self._main_stack = self.state()[0]

    def state(self):
        """This thread's (span stack, counters, distinct-key sets)."""
        local = self._local
        try:
            return local.stack, local.counts, local.keys
        except AttributeError:
            local.stack, local.counts, local.keys = [], Counter(), {}
            self._all_counts.append(local.counts)
            self._all_keys.append(local.keys)
            return local.stack, local.counts, local.keys

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(recorder, args, result) runs outside it."""
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.state()[0]
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def counted(self, name, fn, key=None):
        """Wrap fn to count calls, and the distinct key(args) when given."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _, counts, keys = self.state()
            counts[name] += 1
            if key is not None:
                keys.setdefault(name, set()).add(key(args))
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name, n):
        self.state()[1][name] += n

    def dump(self) -> dict:
        counts = Counter()
        for c in self._all_counts:
            counts.update(c)
        distinct = {}
        for keys in self._all_keys:
            for name, s in keys.items():
                distinct.setdefault(name, set()).update(s)
        for name, s in distinct.items():
            counts[name + ".distinct"] = len(s)
        return {"job": self.job, "spans": self.spans, "counts": dict(counts)}


def _after_cell_build(rec, args, result):
    cm = args[0]
    for sp in cm.spaces.values():
        rec.add("cellmod.words", len(sp.words))
        rec.add("cellmod.rank", sp.rank)


def _after_gen(rec, args, result):
    algebra, symbol = args[0], args[1]
    if symbol[0] not in ("E", "F"):
        return
    _, counts, keys = rec.state()
    seen = keys.setdefault("assembly.gen.symbols", set())
    tag = (id(algebra), symbol)
    if tag in seen:
        return
    seen.add(tag)
    for blk in result.blocks.values():
        counts["assembly.gen.entries"] += blk.rows * blk.cols
        counts["assembly.gen.nonzero"] += sum(
            1 for row in blk.entries for x in row if not x.is_zero())


def install(rec: Recorder, qschur) -> None:
    """Patch the wrappers into every qschur namespace that binds each name."""
    from qschur import (assembly, cellmod, cli, linalg, rootdata, scalars,
                        specialize, straighten)
    namespaces = [qschur, assembly, cellmod, cli, linalg, rootdata, scalars,
                  specialize, straighten]

    def patch(owner, name, wrap):
        original = getattr(owner, name)
        wrapped = wrap(original)
        setattr(owner, name, wrapped)
        for ns in namespaces:
            if ns is not owner and getattr(ns, name, None) is original:
                setattr(ns, name, wrapped)

    def span(name, after=None):
        return lambda fn: rec.span(name, fn, after)

    for name in ("build_root_datum", "saturate", "build_flag"):
        patch(rootdata, name, span("rootdata"))
    for name in ("freudenthal_character", "weyl_dimension"):
        patch(rootdata.RootDatum, name, span("rootdata"))

    patch(straighten, "gram_entry", span("straighten.gram_entry"))
    patch(straighten, "push_E_through", lambda fn: rec.counted(
        "straighten.push", fn,
        key=lambda a: (id(a[0]), a[1], a[2], a[3])))

    patch(cellmod.CellModule, "__init__",
          span("cellmod.build", after=_after_cell_build))
    patch(cellmod, "enumerate_words", span("cellmod.enumerate_words"))
    patch(cellmod.CellModule, "ensure_integral", span("cellmod.integral"))
    for name in ("action_matrix", "integral_action_matrix"):
        patch(cellmod.CellModule, name, span("cellmod.action"))

    patch(linalg, "hnf_column_basis", span("linalg.hnf"))
    patch(linalg.FieldMatrix, "__mul__", span("linalg.field_matmul"))
    patch(linalg.LaurentMatrix, "__mul__", span("linalg.laurent_matmul"))
    for name in ("rank", "nullspace", "solve", "determinant", "invert"):
        patch(linalg, name, span("linalg.eliminate"))
    patch(linalg, "laurent_determinant", span("linalg.laurent_det"))

    patch(scalars, "laurent_gcd",
          lambda fn: rec.counted("scalars.laurent_gcd", fn))
    patch(scalars, "laurent_divmod",
          lambda fn: rec.counted("scalars.laurent_divmod", fn))

    patch(assembly, "assemble", span("assembly.assemble"))
    patch(assembly.SchurAlgebra, "gen", span("assembly.gen", after=_after_gen))
    patch(assembly.SchurAlgebra, "cellular_basis",
          span("assembly.cellular_basis"))
    patch(assembly.SchurAlgebra, "star", span("assembly.star"))
    patch(assembly, "verify_relations", span("assembly.verify_relations"))
    patch(assembly, "verify_cellularity",
          span("assembly.verify_cellularity"))
    patch(assembly, "matrix_span_rank", span("assembly.span_rank"))

    patch(specialize, "gram_determinant", span("specialize.gram_det"))
    patch(specialize, "specialize_module", span("specialize.module"))
    patch(specialize, "decomposition_matrix", span("specialize.decomp"))
    patch(specialize, "semisimplicity_report",
          span("specialize.semisimple"))

    patch(cli, "main", span("cli.main"))
    patch(cli.Pipeline, "__init__", span("cli.pipeline"))
    for name, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = rec.span("cli.command", fn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", required=True, help="job key for the trace")
    parser.add_argument("--trace-out", required=True,
                        help="file the spans and counters are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]
    import qschur
    from qschur import cli

    rec = Recorder(args.job)
    install(rec, qschur)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
