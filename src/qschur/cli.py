"""Command-line frontend.

Parses a JSON job configuration, runs the requested pipeline stage, and
writes a deterministic JSON report to stdout (and optionally to a file):
identical configurations produce byte-identical reports.  Human
diagnostics, including timing, go to stderr.  Exit codes: 0 success,
1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .assembly import assemble, rank1_canonical_identity, verify_cellularity, verify_relations
from .cellmod import CellModule
from .errors import CapExceededError, ConfigError, EngineError, UnsupportedCharacteristicError
from .rootdata import RootDatum, build_flag, build_root_datum, parse_preset, saturate
from .scalars import FieldContext
from .specialize import (
    decomposition_matrix,
    gram_determinant,
    semisimplicity_report,
    specialize_module,
)

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


def word_json(word) -> list:
    return [[int(i), int(a)] for i, a in word]


def combo_json(combo) -> list:
    return [[word_json(w), str(c)] for w, c in combo]


def char_json(char: dict) -> list:
    return [[weight_json(mu), int(m)] for mu, m in sorted(char.items())]


class SparseRows:
    """A report leaf: a rows x cols matrix given by its sparse rows
    {row: {col: nonzero}}, written as the dense rows of its entries' str,
    with "0", as every scalar writes its zero, where no entry is stored."""

    __slots__ = ("sparse", "rows", "cols")

    def __init__(self, sparse: dict, rows: int, cols: int):
        self.sparse = sparse
        self.rows = rows
        self.cols = cols

    def write(self, nl: str, out: list) -> None:
        """Append the rows at the indent after nl.  A Gram matrix holds one
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
        lines = []
        for i in range(self.rows):
            row = self.sparse.get(i)
            if not row:
                lines.append(zero_row)
                continue
            line = [zero] * self.cols
            for j, x in row.items():
                s = text.get(id(x))
                if s is None:
                    s = text[id(x)] = _quote(str(x))
                line[j] = s
            lines.append(head + sep.join(line) + tail)
        out.append("[" + row_nl + ("," + row_nl).join(lines) + nl + "]")


_STRS, _INTS = frozenset((str,)), frozenset((int,))
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render(report) -> str:
    """The report's text: what the stdlib json encoder writes with
    sort_keys=True and indent=2 (two-space indent, sorted keys, ASCII
    escapes), plus a newline, byte for byte.  That encoder runs in pure
    Python whenever it indents, so the report is written here in one pass.
    Values are dicts with str keys, lists, str, int, float, bool, None and
    SparseRows leaves; any other type raises TypeError.  Floats reach a
    report only in the echoed config (a field such as {"q": 0.5})."""
    out: list = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: list) -> None:
    """Append x, its items at the indent after nl (a newline and the
    indent of the line x starts on)."""
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
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
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
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % kind.__name__)


def _check_json(rep) -> list:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.checks]


# -- pipeline ------------------------------------------------------------------

class Pipeline:
    """Shared lazily-built state for one job."""

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
        self._modules: dict = {}
        self._algebra = None

    def algebra(self):
        if self._algebra is None:
            self._algebra = assemble(self.pi, self.flag, self._modules)
            self._modules = self._algebra.modules
        return self._algebra

    def module(self, lam):
        """The cell module Delta(lambda) alone, built on first use."""
        cm = self._modules.get(lam)
        if cm is None:
            cm = self._modules[lam] = CellModule(self.datum, lam)
        return cm

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
    out = []
    for lam in p.lambdas(args.lam):
        cm = p.module(lam)
        out.append({
            "lambda": weight_json(lam),
            "dim": cm.dim,
            "character": char_json(cm.character()),
            "weights": [weight_json(mu) for mu in cm.weights],
            "word_counts": [[weight_json(mu), len(cm.spaces[mu].words)]
                            for mu in cm.weights],
            "basis_words": [[weight_json(mu), word_json(w)]
                            for mu, w in cm.basis_index],
        })
    return {"modules": out}


def cmd_gram(p: Pipeline, args) -> dict:
    scan = p.config.caps["cyclotomic_scan"]
    out = []
    for lam in p.lambdas(args.lam):
        cm = p.module(lam)
        spaces = []
        for mu in cm.weights:
            sp = cm.spaces[mu]
            rec = gram_determinant(cm, mu, scan_bound=scan)
            spaces.append({
                "weight": weight_json(mu),
                "words": [word_json(w) for w in sp.words],
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
    s = p.algebra()
    elements = s.cellular_basis(integral=args.integral)
    payload = {
        "basis_kind": "integral" if args.integral else "generic",
        "count": len(elements),
        "dimension": s.dim,
        "elements": [{
            "lambda": weight_json(el.lam),
            "left": combo_json(el.left),
            "right": combo_json(el.right),
        } for el in elements],
    }
    if args.matrices:
        for entry, el in zip(payload["elements"], elements):
            entry["matrix"] = {
                str(weight_json(lam)): SparseRows(el.matrix.block(lam), n, n)
                for lam, n in sorted(el.matrix.dims.items())}
    return payload


def cmd_specialize(p: Pipeline, args) -> dict:
    ctx = p.config.field
    out = []
    for lam in p.lambdas(args.lam):
        cm = p.module(lam)
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
    ctx = p.config.field
    specs = {lam: specialize_module(p.module(lam), ctx) for lam in p.flag}
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
    s = p.algebra()
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
        ok = all(rank1_canonical_identity(s, lam[0]) for lam in p.pi)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact computations in generalized q-Schur algebras.")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="pipeline stage to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON job configuration document")
    parser.add_argument("--lambda", dest="lam", metavar="C1,C2,...",
                        help="restrict to one weight of pi")
    parser.add_argument("--field", metavar="SPEC",
                        help="override the config field: "
                             "generic | q=FRACTION | cyclotomic=L")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the report to a file")
    parser.add_argument("--depth", type=int, metavar="N",
                        help="override caps.depth (divided powers)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--integral", action="store_true",
                        help="cellbasis: use the integral lattice bases")
    parser.add_argument("--matrices", action="store_true",
                        help="cellbasis: include the block matrices")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    text = render(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    sys.stdout.write(text)
    elapsed = time.monotonic() - start
    print("%s finished in %.3f s" % (args.command, elapsed), file=sys.stderr)
    if args.command == "verify" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
