"""Metric definitions of the qschur benchmark and the span analysis behind
the per-layer metrics.

END_TO_END metrics come from untraced runs.  Their times are in reference
seconds: a job's wall time divided by the mean wall time of the reference
kernel runs just before and after it, times run.REF_S.  This cancels most
of the drift in machine speed over minutes on a shared host; the raw
wall-clock sums are printed on the line before the result.

PER_LAYER metrics come from the traced run, in plain seconds; the last
field of each says which end-to-end metric the layer should move, and on
which workload.  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

from collections import defaultdict

from jobs import COMMANDS

# (name, unit, better, bound, definition)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25,
     "sum over the workload's jobs of the median wall time of one fresh "
     "qschur process, spawn to exit, in reference seconds (see below)"),
    ("setup_s", "s", "lower", 0.25,
     "median over repeats of the sum over distinct configs of "
     "`qschur datum` (start, import, parse, root datum, saturate, flag), "
     "in reference seconds"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "largest per-job median of the child's ru_maxrss"),
    ("ok_ratio", "1", "higher", 0.01,
     "jobs that passed every check divided by jobs attempted"),
)

# (name, unit, better, what it should move)
PER_LAYER = (
    ("rootdata.s", "s", "lower", "setup_s on all workloads"),
    ("straighten.gram_entry.s", "s", "lower",
     "wall_s on cells (module, gram)"),
    ("straighten.gram_entry.calls", "count", "lower", "wall_s on cells"),
    ("straighten.push.calls", "count", "lower", "wall_s on cells"),
    ("straighten.push.memo_hit_ratio", "1", "higher", "wall_s on cells"),
    ("cellmod.build.s", "s", "lower",
     "wall_s on cells (module, gram, decomp); not algebra"),
    ("cellmod.build.self_s", "s", "lower",
     "wall_s on cells: the greedy Q(v) generic-basis selection"),
    ("cellmod.enumerate_words.s", "s", "lower", "wall_s on cells"),
    ("cellmod.words", "count", "lower", "wall_s on cells"),
    ("cellmod.rank", "count", "higher", "none (fixed by the input)"),
    ("cellmod.useful_word_ratio", "1", "higher", "wall_s on cells"),
    ("cellmod.integral.s", "s", "lower",
     "wall_s on cells and rank1 (decomp), algebra (cellbasis --integral)"),
    ("cellmod.action.s", "s", "lower", "wall_s on algebra (verify)"),
    ("cellmod.action.calls", "count", "lower", "wall_s on algebra"),
    ("linalg.hnf.s", "s", "lower", "wall_s on cells (decomp)"),
    ("linalg.hnf.calls", "count", "lower", "wall_s on cells"),
    ("linalg.field_matmul.s", "s", "lower", "wall_s on algebra (verify)"),
    ("linalg.field_matmul.calls", "count", "lower", "wall_s on algebra"),
    ("linalg.laurent_matmul.s", "s", "lower", "wall_s on cells (decomp)"),
    ("linalg.eliminate.s", "s", "lower",
     "wall_s on rank1 (decomp, specialize)"),
    ("linalg.laurent_det.s", "s", "lower", "wall_s on rank1 and cells (gram)"),
    ("scalars.laurent_gcd.calls", "count", "lower", "wall_s on cells"),
    ("scalars.laurent_divmod.calls", "count", "lower", "wall_s on rank1"),
    ("assembly.assemble.s", "s", "lower",
     "wall_s everywhere (it holds every cell build); the threads twin"),
    ("assembly.assemble.self_s", "s", "lower",
     "wall_s on every workload: assemble minus the cell builds inside it"),
    ("assembly.gen.s", "s", "lower", "wall_s on algebra"),
    ("assembly.cellular_basis.s", "s", "lower", "wall_s on algebra"),
    ("assembly.verify_relations.s", "s", "lower", "wall_s on algebra"),
    ("assembly.verify_cellularity.s", "s", "lower", "wall_s on algebra"),
    ("assembly.span_rank.s", "s", "lower", "wall_s on algebra"),
    ("assembly.star.s", "s", "lower", "wall_s on algebra"),
    ("assembly.gen_density", "1", "lower", "wall_s on algebra"),
    ("specialize.gram_det.s", "s", "lower",
     "wall_s on rank1 (gram); a small share on cells"),
    ("specialize.module.s", "s", "lower", "wall_s on rank1 (specialize)"),
    ("specialize.decomp.s", "s", "lower", "wall_s on rank1 and cells"),
    ("specialize.semisimple.s", "s", "lower", "wall_s on rank1 and cells"),
    ("cli.command.s", "s", "lower", "wall_s on every workload"),
    ("cli.self_s", "s", "lower",
     "wall_s on cells (gram), algebra (cellbasis): parse, serialize, write"),
    ("cli.report_bytes", "B", "lower", "wall_s on cells and algebra"),
) + tuple(
    ("%s_s" % cmd, "s", "lower",
     "wall_s: untraced wall time of the workload's %s jobs" % cmd)
    for cmd in COMMANDS
) + (
    ("trace.overhead_ratio", "1", "lower", "none: the cost of tracing"),
)

# span name -> per-layer metric holding the time the spans cover
COVERED = {
    "rootdata": "rootdata.s",
    "straighten.gram_entry": "straighten.gram_entry.s",
    "cellmod.build": "cellmod.build.s",
    "cellmod.enumerate_words": "cellmod.enumerate_words.s",
    "cellmod.integral": "cellmod.integral.s",
    "cellmod.action": "cellmod.action.s",
    "linalg.hnf": "linalg.hnf.s",
    "linalg.field_matmul": "linalg.field_matmul.s",
    "linalg.laurent_matmul": "linalg.laurent_matmul.s",
    "linalg.eliminate": "linalg.eliminate.s",
    "linalg.laurent_det": "linalg.laurent_det.s",
    "assembly.assemble": "assembly.assemble.s",
    "assembly.gen": "assembly.gen.s",
    "assembly.cellular_basis": "assembly.cellular_basis.s",
    "assembly.verify_relations": "assembly.verify_relations.s",
    "assembly.verify_cellularity": "assembly.verify_cellularity.s",
    "assembly.span_rank": "assembly.span_rank.s",
    "assembly.star": "assembly.star.s",
    "specialize.gram_det": "specialize.gram_det.s",
    "specialize.module": "specialize.module.s",
    "specialize.decomp": "specialize.decomp.s",
    "specialize.semisimple": "specialize.semisimple.s",
    "cli.command": "cli.command.s",
}
# span name -> per-layer metric holding the spans' summed self time
SELF = {"cellmod.build": "cellmod.build.self_s",
        "assembly.assemble": "assembly.assemble.self_s",
        "cli.main": "cli.self_s"}
# span name -> per-layer metric counting the spans
CALLS = {
    "straighten.gram_entry": "straighten.gram_entry.calls",
    "cellmod.action": "cellmod.action.calls",
    "linalg.hnf": "linalg.hnf.calls",
    "linalg.field_matmul": "linalg.field_matmul.calls",
}
# counter -> per-layer metric
COUNTS = {
    "straighten.push": "straighten.push.calls",
    "cellmod.words": "cellmod.words",
    "cellmod.rank": "cellmod.rank",
    "scalars.laurent_gcd": "scalars.laurent_gcd.calls",
    "scalars.laurent_divmod": "scalars.laurent_divmod.calls",
}


def union_length(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its child spans cover.

    spans are (id, parent, name, start, end) tuples of one job; children of
    one span may overlap when they ran in different threads.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        inside = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
                  if min(b, t1) > max(a, t0)]
        out[sid] = (t1 - t0) - union_length(inside)
    return out


def layer_metrics(traces) -> dict:
    """Per-layer metrics summed over the traced jobs of one workload.

    traces are the dumps written by traced.py, one per job.  Times are in
    seconds; a span name's time is the wall time its spans cover, so nested
    and recursive spans of one name are counted once.
    """
    out = {name: 0 for name, *_ in PER_LAYER}
    counts = defaultdict(int)
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        selfs = self_times(spans)
        by_name = defaultdict(list)
        for sid, _, name, t0, t1 in spans:
            by_name[name].append((t0, t1))
            if name in SELF:
                out[SELF[name]] += selfs[sid] / 1e9
        for name, intervals in by_name.items():
            if name in COVERED:
                out[COVERED[name]] += union_length(intervals) / 1e9
            if name in CALLS:
                out[CALLS[name]] += len(intervals)
        for name, n in trace["counts"].items():
            counts[name] += n
    for name, metric in COUNTS.items():
        out[metric] = counts[name]
    push = counts["straighten.push"]
    out["straighten.push.memo_hit_ratio"] = (
        1 - counts["straighten.push.distinct"] / push if push else 0.0)
    words = counts["cellmod.words"]
    out["cellmod.useful_word_ratio"] = (
        counts["cellmod.rank"] / words if words else 0.0)
    entries = counts["assembly.gen.entries"]
    out["assembly.gen_density"] = (
        counts["assembly.gen.nonzero"] / entries if entries else 0.0)
    return out
