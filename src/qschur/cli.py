"""Command-line frontend.

Parses a JSON job configuration, runs the requested pipeline stage, and
writes a deterministic JSON report to stdout (and optionally to a file):
identical configurations produce byte-identical reports.  Every step of
a stage that can raise an engine error runs before the first byte, so an
engine error leaves stdout empty; the one part of a payload formed while
it is written is the matrix of each cellbasis --matrices element, a
Deferred leaf whose product of two images built beforehand is formed when
the writer reaches it and dropped once written.  The report text is
streamed in chunks of about CHUNK (64 KiB) characters, each written to
the --out file and then to stdout, and never held whole.  A failed write
removes the --out file, so that file holds the whole report or nothing.
Human diagnostics, including timing, go to stderr.  Each command imports
the engine modules it runs when it runs.  Exit codes: 0 success or
--help, 1 verification failure, 2 a malformed command line, a
configuration error or a report that cannot be written.  Run as a
program, through run(), the process ends as soon as the report and
stderr are flushed, without the interpreter's teardown.

The command line is read from one option table, OPTIONS, without argparse
(whose import, with gettext's, every job would pay): options take their
exact names, never an abbreviation, as --name VALUE or --name=VALUE, where
VALUE may start with "-" (--lambda -1,-1).  A malformed command line
writes the usage and a "qschur: error:" line to stderr, and main returns 2
for it as for every other error.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import stat
import sys
import time
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import CapExceededError, ConfigError, EngineError, UnsupportedCharacteristicError
from .rootdata import RootDatum, build_flag, build_root_datum, parse_preset, saturate
from .scalars import FieldContext

# Largest L of a cyclotomic=L field: building the field and specializing
# at it cost time and memory linear in L.
MAX_CYCLOTOMIC_ORDER = 10000

# Most decimal digits in the numerator or the denominator of a q=FRACTION
# point: Python writes no longer integer as a string, so the report could
# not name the field, and a huge exponent takes seconds to expand.
MAX_Q_DIGITS = 4300
_Q_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"  # compiled on first use

# Largest caps.depth and caps.samples: verify's time and memory grow with
# both.  At depth 32 it takes about 2 s on A2 (1,1), and 10,000 samples
# take about 1 s on A1 (2), on a 2-core Xeon host.
MAX_CAPS = {"depth": 32, "samples": 10000}

DEFAULT_CAPS = {
    "depth": 3,
    "samples": 50,
    "cyclotomic_scan": 50,
    "rank": 4,
    "orbit": 10000,
}


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (what, value))
    return value


def _count(value, what: str, bound: int | None = None) -> int:
    value = _integer(value, what)
    if value < 0:
        raise ConfigError("%s must be nonnegative, got %d" % (what, value))
    if bound is not None and value > bound:
        raise ConfigError("%s %d exceeds the bound %d" % (what, value, bound))
    return value


def _integer_rows(value, what: str) -> list:
    if not isinstance(value, list) or not value or \
            not all(isinstance(row, list) for row in value):
        raise ConfigError("%s must be a nonempty list of integer rows" % what)
    return [[_integer(x, what + " entry") for x in row] for row in value]


def _datum_rank(spec: dict) -> int:
    """Rank of the datum a spec describes, found without building it:
    building enumerates the whole Weyl group, so the rank cap comes first."""
    if "preset" in spec:
        preset, rank = spec["preset"], spec.get("rank")
        if not isinstance(preset, str):
            raise ConfigError("datum.preset must be a string, got %r" % (preset,))
        try:
            _, factors = parse_preset(
                preset, None if rank is None else _integer(rank, "datum.rank"))
        except ValueError as exc:
            raise ConfigError(str(exc))
        return sum(r for _, r in factors)
    if not {"cartan", "alpha", "alphav"} <= set(spec):
        raise ConfigError("datum needs a preset or explicit cartan, alpha and alphav")
    cartan, alpha, alphav = (_integer_rows(spec[k], "datum." + k)
                             for k in ("cartan", "alpha", "alphav"))
    r, n = len(cartan), len(alpha[0])
    if n == 0 or len(alpha) != r or len(alphav) != r or \
            any(len(row) != r for row in cartan) or \
            any(len(row) != n for row in alpha + alphav):
        raise ConfigError("datum.cartan must be r x r, datum.alpha and "
                          "datum.alphav r x n with n > 0")
    return r


class JobConfig:
    """A parsed job document: datum spec, pi seeds, field, caps."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - {"datum", "pi", "field", "caps"}
        if unknown:
            raise ConfigError("unknown config keys: %s" % sorted(unknown))
        self.datum_spec = doc.get("datum", {})
        if not isinstance(self.datum_spec, dict):
            raise ConfigError("datum must be an object")
        bad = set(self.datum_spec) - {"preset", "rank", "cartan", "alpha", "alphav"}
        if bad:
            raise ConfigError("unknown datum keys: %s" % sorted(bad))
        self.rank = _datum_rank(self.datum_spec)
        pi_spec = doc.get("pi", {})
        if not isinstance(pi_spec, dict) or set(pi_spec) - {"seeds"}:
            raise ConfigError("pi must be an object with key 'seeds'")
        seeds = pi_spec.get("seeds", [])
        if not isinstance(seeds, list) or \
                not all(isinstance(seed, list) for seed in seeds):
            raise ConfigError("pi.seeds must be a list of integer lists")
        self.seeds = [tuple(_integer(c, "seed entry") for c in seed)
                      for seed in seeds]
        self.field_spec = doc.get("field", "generic")
        self.field = parse_field(self.field_spec)
        caps = dict(DEFAULT_CAPS)
        user_caps = doc.get("caps", {})
        if not isinstance(user_caps, dict) or set(user_caps) - set(DEFAULT_CAPS):
            raise ConfigError("unknown caps keys: %s"
                              % sorted(set(user_caps) - set(DEFAULT_CAPS)))
        caps.update({k: _count(v, "caps.%s" % k, MAX_CAPS.get(k))
                     for k, v in user_caps.items()})
        self.caps = caps

    def echo(self) -> dict:
        return {
            "datum": self.datum_spec,
            "pi": {"seeds": [list(s) for s in self.seeds]},
            "field": self.field_spec,
            "caps": self.caps,
        }

    def build_datum(self) -> RootDatum:
        if self.rank > self.caps["rank"]:
            raise CapExceededError(
                "rank %d exceeds cap %d (raise caps.rank to override)"
                % (self.rank, self.caps["rank"]))
        spec = self.datum_spec
        if "preset" in spec:
            try:
                return build_root_datum(spec["preset"], spec.get("rank"))
            except ValueError as exc:  # a series with no datum of that rank
                raise ConfigError(str(exc))
        return build_root_datum(cartan=spec["cartan"], alpha=spec["alpha"],
                                alphav=spec["alphav"])


def parse_field(spec) -> FieldContext:
    """Field spec: "generic" | "q=FRACTION" | "cyclotomic=L" or the object
    forms {"q": ...}, {"cyclotomic": ...}.  Characteristic p is rejected."""
    if isinstance(spec, dict):
        if spec.get("char", 0) not in (0, None):
            raise UnsupportedCharacteristicError(
                "specialization fields must have characteristic zero")
        keys = set(spec) - {"char"}
        if keys == {"q"}:
            return parse_field("q=%s" % spec["q"])
        if keys == {"cyclotomic"}:
            return parse_field("cyclotomic=%s" % spec["cyclotomic"])
        raise ConfigError("bad field object: %r" % (spec,))
    if not isinstance(spec, str):
        raise ConfigError("bad field spec: %r" % (spec,))
    if spec == "generic":
        return FieldContext.generic()
    if spec.startswith("q="):
        try:
            return FieldContext.rational_point(_rational(spec[2:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("bad rational point %r: %s" % (spec, exc))
    if spec.startswith("cyclotomic="):
        try:
            ell = int(spec[11:])
            if ell > MAX_CYCLOTOMIC_ORDER:
                raise ConfigError(
                    "cyclotomic order %d exceeds the bound %d"
                    % (ell, MAX_CYCLOTOMIC_ORDER))
            return FieldContext.cyclotomic_point(ell)
        except ValueError as exc:
            raise ConfigError("bad cyclotomic order %r: %s" % (spec, exc))
    raise ConfigError("bad field spec: %r" % (spec,))


def _rational(text: str) -> Fraction:
    """The Fraction of text, refused when its numerator or denominator
    has more than MAX_Q_DIGITS digits.  The numerator and the fraction
    digits of a decimal each parse within that bound, so an exponent past
    3 * MAX_Q_DIGITS is refused before Fraction expands it."""
    m = re.search(_Q_EXPONENT, text)
    if m is None or abs(int(m.group(1))) <= 3 * MAX_Q_DIGITS:
        q = Fraction(text)
        if max(abs(q.numerator), q.denominator) < 10 ** MAX_Q_DIGITS:
            return q
    shown = text if len(text) <= 40 else text[:37] + "..."
    raise ConfigError(
        "rational point %r has a numerator or denominator of more than "
        "%d digits, the bound" % (shown, MAX_Q_DIGITS))


# -- serialization helpers ----------------------------------------------------

def weight_json(mu) -> list:
    return [int(x) for x in mu]


def combo_json(combo) -> list:
    """A word combo as [word, coefficient] pairs, each word the engine's own
    tuple of (index, exponent) pairs, which the writer writes as arrays."""
    return [[w, str(c)] for w, c in combo]


def char_json(char: dict) -> list:
    return [[weight_json(mu), int(m)] for mu, m in sorted(char.items())]


# Characters of report text (ASCII, so bytes) the writer hands its sink at
# a time: it holds about this much of a report, however long the report.
CHUNK = 1 << 16

# Parts the writer appends before it joins them and measures the text.
_PARTS = 512


class _Parts(list):
    """The report text written since the last spill, in parts, and the
    text joined since the last chunk went to the sink."""

    __slots__ = ("sink", "joined", "size")

    def __init__(self, sink):
        super().__init__()
        self.sink = sink
        self.joined = []
        self.size = 0

    def spill(self) -> None:
        """Join the parts; once CHUNK characters are joined, hand them to
        the sink as one str."""
        text = "".join(self)
        self.clear()
        self.joined.append(text)
        self.size += len(text)
        if self.size >= CHUNK:
            self.flush()

    def flush(self) -> None:
        """Hand the joined text, if any, to the sink."""
        text = "".join(self.joined)
        self.joined.clear()
        self.size = 0
        if text:
            self.sink(text)


class SparseRows:
    """A report leaf: a rows x cols matrix given by its sparse rows
    {row: {col: nonzero}}, written as the dense rows of its entries' str,
    with "0", as every scalar writes its zero, where no entry is stored."""

    __slots__ = ("sparse", "rows", "cols")

    def __init__(self, sparse: dict, rows: int, cols: int):
        self.sparse = sparse
        self.rows = rows
        self.cols = cols

    def write(self, nl: str, out: _Parts) -> None:
        """Append the rows at the indent after nl, spilling between rows
        once CHUNK characters of them are held.  A Gram matrix holds one
        object at (i, j) and (j, i), so each distinct entry object is
        rendered once; an all-zero row's text is built once."""
        if not self.rows:
            out.append("[]")
            return
        row_nl = nl + "  "
        entry_nl = row_nl + "  "
        sep = "," + entry_nl
        head, tail = "[" + entry_nl, row_nl + "]"
        zero = '"0"'
        zero_row = head + sep.join([zero] * self.cols) + tail \
            if self.cols else "[]"
        text: dict = {}
        start = "[" + row_nl
        held = 0
        for i in range(self.rows):
            row = self.sparse.get(i)
            if not row:
                s = start + zero_row
            else:
                line = [zero] * self.cols
                for j, x in row.items():
                    s = text.get(id(x))
                    if s is None:
                        s = text[id(x)] = _quote(str(x))
                    line[j] = s
                s = start + head + sep.join(line) + tail
            out.append(s)
            held += len(s)
            if held >= CHUNK:
                out.spill()
                held = 0
            start = "," + row_nl
        out.append(nl + "]")


class Deferred:
    """A report leaf whose value, make(arg), is built only when the writer
    reaches it and dropped once written, so no two are held at once."""

    __slots__ = ("make", "arg")

    def __init__(self, make, arg):
        self.make = make
        self.arg = arg


_STRS, _INTS = frozenset((str,)), frozenset((int,))
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_report(report, sink) -> None:
    """Hand the report's text to sink(str) in order, in chunks of about
    CHUNK characters: what the stdlib json encoder writes with
    sort_keys=True and indent=2 (two-space indent, sorted keys, ASCII
    escapes), plus a newline, byte for byte.  That encoder runs in pure
    Python whenever it indents, so the report is written here in one pass,
    joined between items and never whole.  Values are dicts with str keys,
    lists and tuples (both written as arrays, as that encoder writes them),
    str, int, float, bool, None, and SparseRows and Deferred leaves; any
    other type raises TypeError.  Floats reach a report only in the echoed
    config (a field such as {"q": 0.5})."""
    out = _Parts(sink)
    _write(report, "\n", out)
    out.append("\n")
    out.spill()
    out.flush()


def _write(x, nl: str, out: _Parts) -> None:
    """Append x, its items at the indent after nl (a newline and the
    indent of the line x starts on), spilling between items once _PARTS
    parts are held."""
    kind = type(x)
    if kind is str:
        out.append(_quote(x))
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError("report keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + _quote(key) + ": ")
            _write(x[key], inner, out)
            if len(out) >= _PARTS:
                out.spill()
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list or kind is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, x))
        if kinds == _STRS:
            out.append("[" + inner + ("," + inner).join(map(_quote, x))
                       + nl + "]")
        elif kinds == _INTS:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x))
                       + nl + "]")
        else:
            sep = "[" + inner
            for item in x:
                out.append(sep)
                _write(item, inner, out)
                if len(out) >= _PARTS:
                    out.spill()
                sep = "," + inner
            out.append(nl + "]")
    elif kind is int:
        out.append(int.__repr__(x))
    elif kind is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif kind is float:  # as the json encoder writes it
        text = float.__repr__(x)
        out.append(_FLOATS.get(text, text))
    elif kind is SparseRows:
        x.write(nl, out)
    elif kind is Deferred:
        _write(x.make(x.arg), nl, out)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % kind.__name__)


def _check_json(rep) -> list:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.checks]


# -- pipeline ------------------------------------------------------------------

class Pipeline:
    """The root datum, pi and flag of one job.  Each command builds the
    cell modules or the algebra it reads, each at most once."""

    def __init__(self, config: JobConfig):
        self.config = config
        self.datum = config.build_datum()
        for seed in config.seeds:
            if len(seed) != self.datum.n:
                raise ConfigError(
                    "seed %r has %d entries; the weight lattice has rank %d"
                    % (list(seed), len(seed), self.datum.n))
        self.pi = saturate(self.datum, config.seeds,
                           orbit_cap=config.caps["orbit"])
        self.flag = build_flag(self.pi)

    def lambdas(self, lam):
        if lam is None:
            return list(self.flag)
        lam = tuple(lam)
        if lam not in self.pi:
            raise ConfigError("lambda %r is not in pi" % (lam,))
        return [lam]


def cmd_datum(p: Pipeline, args) -> dict:
    d = p.datum
    return {
        "name": d.name,
        "rank": d.rank,
        "lattice_rank": d.n,
        "cartan_matrix": [list(row) for row in d.cartan.cartan_matrix()],
        "symmetrizer": list(d.d),
        "alpha": [list(a) for a in d.alpha],
        "alphav": [list(a) for a in d.alphav],
        "weyl_order": d.weyl_order,
        "positive_roots": [weight_json(rt) for rt, _ in d.positive_roots],
    }


def cmd_saturate(p: Pipeline, args) -> dict:
    return {
        "pi": [weight_json(mu) for mu in p.pi],
        "orbit_sizes": [[weight_json(mu), p.datum.orbit_size(mu)]
                        for mu in p.pi],
        "orbit_weight_count": sum(p.datum.orbit_size(mu) for mu in p.pi),
        "flag": [weight_json(mu) for mu in p.flag],
    }


def cmd_module(p: Pipeline, args) -> dict:
    from .cellmod import CellModule
    out = []
    for lam in p.lambdas(args.lam):
        cm = CellModule(p.datum, lam)
        out.append({
            "lambda": weight_json(lam),
            "dim": cm.dim,
            "character": char_json(cm.character()),
            "weights": [weight_json(mu) for mu in cm.weights],
            "word_counts": [[weight_json(mu), len(cm.spaces[mu].words)]
                            for mu in cm.weights],
            "basis_words": [[weight_json(mu), w]
                            for mu, w in cm.basis_index],
        })
    return {"modules": out}


def cmd_gram(p: Pipeline, args) -> dict:
    from .cellmod import CellModule
    from .specialize import gram_determinant
    scan = p.config.caps["cyclotomic_scan"]
    out = []
    for lam in p.lambdas(args.lam):
        cm = CellModule(p.datum, lam)
        spaces = []
        for mu in cm.weights:
            sp = cm.spaces[mu]
            rec = gram_determinant(cm, mu, scan_bound=scan)
            spaces.append({
                "weight": weight_json(mu),
                "words": sp.words,
                "gram": SparseRows(sp.gram, len(sp.words), len(sp.words)),
                "rank": sp.rank,
                "determinant": str(rec.det),
                "cyclotomic_factors": [[ell, m] for ell, m
                                       in sorted(rec.factors.items())],
                "cofactor": str(rec.cofactor),
            })
        out.append({"lambda": weight_json(lam), "weight_spaces": spaces})
    return {"gram": out}


def cmd_cellbasis(p: Pipeline, args) -> dict:
    """The cellular basis as (lambda, left, right) triples; under
    --matrices each element's matrix is a Deferred leaf, its product formed
    when the writer reaches it and dropped once its rows are written.  The
    triples share the JSON of each lambda and combo."""
    from .assembly import assemble
    s = assemble(p.pi, p.flag)
    elements = s.cellular_basis(integral=args.integral, images=args.matrices)
    shared: dict = {}  # id of a lambda or combo -> its JSON

    def as_json(x, to_json):
        out = shared.get(id(x))
        if out is None:
            out = shared[id(x)] = to_json(x)
        return out

    entries = []
    for el in elements:
        entry = {"lambda": as_json(el.lam, weight_json),
                 "left": as_json(el.left, combo_json),
                 "right": as_json(el.right, combo_json)}
        if args.matrices:
            entry["matrix"] = Deferred(_matrix_json, el)
        entries.append(entry)
    return {
        "basis_kind": "integral" if args.integral else "generic",
        "count": len(elements),
        "dimension": s.dim,
        "elements": entries,
    }


def _matrix_json(el) -> dict:
    """The blocks of the element's matrix, formed afresh, as SparseRows."""
    m = el.product()
    return {str(weight_json(lam)): SparseRows(m.block(lam), n, n)
            for lam, n in sorted(m.dims.items())}


def cmd_specialize(p: Pipeline, args) -> dict:
    from .cellmod import CellModule
    from .specialize import specialize_module
    ctx = p.config.field
    out = []
    for lam in p.lambdas(args.lam):
        cm = CellModule(p.datum, lam)
        spec = specialize_module(cm, ctx)
        radical_dims = spec.radical_dims()
        out.append({
            "lambda": weight_json(lam),
            "dim_delta": spec.dim_delta,
            "dim_simple": spec.dim_simple,
            "char_simple": char_json(spec.char_simple()),
            "radical_dims": [[weight_json(mu), radical_dims[mu]]
                             for mu in cm.weights],
        })
    return {"field": ctx.label(), "specializations": out}


def cmd_decomp(p: Pipeline, args) -> dict:
    from .cellmod import CellModule
    from .specialize import (decomposition_matrix, semisimplicity_report,
                             specialize_module)
    ctx = p.config.field
    specs = {lam: specialize_module(CellModule(p.datum, lam), ctx)
             for lam in p.flag}
    dm = decomposition_matrix(specs, p.flag, ctx)
    ss = semisimplicity_report(specs, p.flag, ctx)
    return {
        "field": ctx.label(),
        "order": [weight_json(mu) for mu in dm.order],
        "rows": [[weight_json(lam), dm.row(lam)] for lam in dm.order],
        "identity": dm.is_identity(),
        "semisimple": ss.semisimple,
        "vanishing_witnesses": [[weight_json(lam), weight_json(mu)]
                                for lam, mu in ss.witnesses],
    }


def cmd_verify(p: Pipeline, args) -> dict:
    from .assembly import (assemble, rank1_canonical_identity,
                           verify_cellularity, verify_relations)
    s = assemble(p.pi, p.flag)
    caps = p.config.caps
    relations = verify_relations(s, depth=caps["depth"],
                                 samples=caps["samples"])
    cellularity = verify_cellularity(s)
    payload = {
        "relations": _check_json(relations),
        "cellularity": _check_json(cellularity),
        "passed": relations.ok and cellularity.ok,
    }
    if p.datum.rank == 1:
        ok = all(rank1_canonical_identity(s, lam) for lam in p.pi)
        payload["rank1_canonical_identity"] = ok
        payload["passed"] = payload["passed"] and ok
    return payload


COMMANDS = {
    "datum": cmd_datum,
    "saturate": cmd_saturate,
    "module": cmd_module,
    "gram": cmd_gram,
    "cellbasis": cmd_cellbasis,
    "specialize": cmd_specialize,
    "decomp": cmd_decomp,
    "verify": cmd_verify,
}


# The options of the qschur command, in the order --help lists them:
# name -> (dest, metavar, converter, help).  An option with a metavar takes
# one value, given as --name VALUE or --name=VALUE and passed through its
# converter; one without is a flag, True when given.  parse_args reads this
# table and --help is written from it.
OPTIONS = {
    "--config": ("config", "PATH", str, "JSON job configuration document"),
    "--lambda": ("lam", "C1,C2,...", str, "restrict to one weight of pi"),
    "--field": ("field", "SPEC", str,
                "override the config field: "
                "generic | q=FRACTION | cyclotomic=L"),
    "--out": ("out", "PATH", str, "also write the report to a file"),
    "--depth": ("depth", "N", int, "override caps.depth (divided powers)"),
    "--threads": ("threads", "N", int,
                  "accepted for compatibility; has no effect"),
    "--integral": ("integral", None, None,
                   "cellbasis: use the integral lattice bases"),
    "--matrices": ("matrices", None, None,
                   "cellbasis: include the block matrices"),
}
REQUIRED = "--config"


class UsageError(Exception):
    """A malformed command line: main writes it under the usage line and
    returns 2."""


def _spelled(name: str, metavar: str | None) -> str:
    return name if metavar is None else name + " " + metavar


def _usage() -> str:
    parts = ["[-h]"]
    for name, (_, metavar, _, _) in OPTIONS.items():
        part = _spelled(name, metavar)
        parts.append(part if name == REQUIRED else "[%s]" % part)
    return "usage: qschur %s COMMAND" % " ".join(parts)


def _help() -> str:
    rows = [("COMMAND", "pipeline stage to run: "
             + ", ".join(sorted(COMMANDS))),
            ("-h, --help", "show this help message and exit")]
    rows += [(_spelled(name, metavar), text)
             for name, (_, metavar, _, text) in OPTIONS.items()]
    width = max(len(label) for label, _ in rows)
    return "%s\n\n%s\n\n%s\n" % (
        _usage(), "Exact computations in generalized q-Schur algebras.",
        "\n".join("  %s  %s" % (label.ljust(width), text)
                  for label, text in rows))


def parse_args(argv) -> types.SimpleNamespace | None:
    """The command and the options of argv, or None when it asks for help.
    Options take their exact names, never an abbreviation; an option that
    takes a value takes the next argument, whatever it starts with.  The
    one command may stand anywhere, as an argument that does not start
    with "-", and everything after "--" is a command.  A repeated option
    keeps its last value.  Raises UsageError on anything else."""
    args = {dest: False if metavar is None else None
            for dest, metavar, _, _ in OPTIONS.values()}
    commands = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            commands.extend(rest)
        elif arg in ("-h", "--help"):
            return None
        elif arg[:1] != "-":
            commands.append(arg)
        else:
            name, eq, value = arg.partition("=")
            if name not in OPTIONS:
                raise UsageError("unrecognized arguments: %s" % arg)
            dest, metavar, convert, _ = OPTIONS[name]
            if metavar is None:
                if eq:
                    raise UsageError("argument %s: ignored explicit "
                                     "argument %r" % (name, value))
                args[dest] = True
                continue
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError("argument %s: expected one argument"
                                     % name)
            try:
                args[dest] = convert(value)
            except ValueError:
                raise UsageError("argument %s: invalid %s value: %r"
                                 % (name, convert.__name__, value))
    if not commands:
        raise UsageError("the following arguments are required: COMMAND")
    if commands[0] not in COMMANDS:
        raise UsageError("invalid command %r (choose from %s)"
                         % (commands[0], ", ".join(sorted(COMMANDS))))
    if len(commands) > 1:
        raise UsageError("unrecognized arguments: %s" % " ".join(commands[1:]))
    if args[OPTIONS[REQUIRED][0]] is None:
        raise UsageError("the following arguments are required: %s"
                         % REQUIRED)
    return types.SimpleNamespace(command=commands[0], **args)


def _write_stdout(text: str) -> None:
    """Write text to stdout whole and flush it.  An unbuffered stdout
    (python -u, PYTHONUNBUFFERED) writes straight to its raw file, which
    takes only part of a write when a pipe's reader closes, and the text
    layer drops that count; its bytes go out in a loop instead, so the
    next write raises."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        out.flush()
        data = memoryview(text.encode(out.encoding))
        while data:
            data = data[raw.write(data):]
    else:
        out.write(text)
    out.flush()


def _emit(report, path: str | None) -> str | None:
    """Stream the report to stdout, each chunk first to the file at path
    when one is given.  Returns None, or the error line of the write that
    failed.  The file is then removed, so it holds the whole report or
    nothing; a path that is not the regular file opened there (a link, a
    pipe, a device) is left in place."""
    fh = opened = None
    line = "error: %s"
    whole = False
    try:
        if path:
            fh = open(path, "w", encoding="utf-8")
            opened = os.fstat(fh.fileno())

        def sink(text: str) -> None:
            nonlocal line
            if fh is not None:
                fh.write(text)
            line = "error: cannot write the report: %s"
            _write_stdout(text)
            line = "error: %s"

        write_report(report, sink)
        if fh is not None:
            fh.close()
        whole = True
    except OSError as exc:  # a closed pipe, a full disk
        return line % exc
    finally:
        if fh is not None and not whole:
            try:
                fh.close()
            except OSError:
                pass
            try:
                if opened is not None and stat.S_ISREG(opened.st_mode) \
                        and os.path.samestat(os.lstat(path), opened):
                    os.remove(path)
            except OSError:
                pass
    return None


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print("%s\nqschur: error: %s" % (_usage(), exc), file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_help())
        return 0
    start = time.monotonic()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config parse error at line %d column %d: %s"
                                  % (exc.lineno, exc.colno, exc.msg))
            except (ValueError, RecursionError) as exc:
                # not UTF-8, an integer past the digit limit, or nested
                # deeper than the recursion limit
                raise ConfigError("config parse error: %s" % exc)
        config = JobConfig(doc)
        if args.field is not None:
            config.field = parse_field(args.field)
            config.field_spec = args.field
        if args.depth is not None:
            config.caps["depth"] = _count(args.depth, "--depth",
                                          MAX_CAPS["depth"])
        if args.lam is not None:
            try:
                args.lam = tuple(int(c) for c in args.lam.split(","))
            except ValueError:
                raise ConfigError("--lambda entries must be integers: %r"
                                  % args.lam)
        pipeline = Pipeline(config)
        payload = COMMANDS[args.command](pipeline, args)
    except (OSError, EngineError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "config": config.echo(),
        "engine": {"name": "qschur", "version": __version__},
        "payload": payload,
    }
    failed = _emit(report, args.out)
    if failed:
        print(failed, file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    print("%s finished in %.3f s" % (args.command, elapsed), file=sys.stderr)
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


def run() -> None:
    """Run main on sys.argv and end the process as soon as the report and
    stderr are flushed, skipping the interpreter's teardown: qschur
    registers no atexit hook, starts no thread and has closed its --out
    file.  Both `qschur` and `python -m qschur.cli` end here.  An exception
    escaping main still ends the normal way, with its traceback.

    The cyclic garbage collector is off for the job: the engine makes no
    reference cycles, so its passes would free nothing.  Reference
    counting still frees every object."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # a stdout main could not write: it returned 2
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
