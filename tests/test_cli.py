"""CLI: config parsing, exit codes, report determinism."""

import contextlib
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qschur
from qschur import cellmod, rootdata, specialize
from qschur.cellmod import CellModule
from qschur.cli import (
    CHUNK,
    COMMANDS,
    MAX_CAPS,
    MAX_CYCLOTOMIC_ORDER,
    MAX_Q_DIGITS,
    JobConfig,
    SparseRows,
    main,
    parse_field,
    write_report,
)
from qschur.errors import (ConfigError, CoordinateFailureError,
                           UnsupportedCharacteristicError)
from qschur.linalg import dense_rows
from qschur.rootdata import build_root_datum
from qschur.scalars import LaurentPoly


@pytest.fixture
def cfg_a1(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({
        "datum": {"preset": "A1"},
        "pi": {"seeds": [[2], [1]]},
        "field": "cyclotomic=4",
    }))
    return str(path)


@pytest.fixture
def cfg_a2(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "datum": {"preset": "A2"},
        "pi": {"seeds": [[1, 1]]},
        "field": "generic",
        "caps": {"depth": 2, "samples": 4},
    }))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def render(value) -> str:
    """The text write_report streams, joined from a list sink."""
    chunks = []
    write_report(value, chunks.append)
    return "".join(chunks)


def test_datum_report(capsys, cfg_a1):
    rc, out, err = run(capsys, "datum", "--config", cfg_a1)
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "datum"
    assert rep["payload"]["weyl_order"] == 2
    assert rep["payload"]["cartan_matrix"] == [[2]]
    assert "finished" in err


def test_datum_report_a2(capsys, cfg_a2):
    rc, out, _ = run(capsys, "datum", "--config", cfg_a2)
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["weyl_order"] == 6
    assert len(payload["positive_roots"]) == 3


def test_saturate_report(capsys, cfg_a1):
    rc, out, _ = run(capsys, "saturate", "--config", cfg_a1)
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["pi"] == [[0], [1], [2]]
    assert payload["flag"] == [[1], [2], [0]]


def test_saturate_empty_seeds(capsys, tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": []}}))
    rc, out, _ = run(capsys, "saturate", "--config", str(cfg))
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["pi"] == [] and payload["flag"] == []


def test_module_and_lambda_flag(capsys, cfg_a1):
    rc, out, _ = run(capsys, "module", "--config", cfg_a1, "--lambda", "2")
    assert rc == 0
    mods = json.loads(out)["payload"]["modules"]
    assert len(mods) == 1 and mods[0]["dim"] == 3


def test_lambda_outside_pi_exits_2(capsys, cfg_a1):
    rc, out, err = run(capsys, "module", "--config", cfg_a1, "--lambda", "7")
    assert rc == 2 and out == "" and "error" in err


def test_gram_report(capsys, cfg_a1):
    rc, out, _ = run(capsys, "gram", "--config", cfg_a1, "--lambda", "2")
    assert rc == 0
    spaces = json.loads(out)["payload"]["gram"][0]["weight_spaces"]
    zero_space = [s for s in spaces if s["weight"] == [0]][0]
    assert zero_space["gram"] == [["v + v^-1"]]
    assert zero_space["determinant"] == "v^2 + 1"
    assert zero_space["cyclotomic_factors"] == [[4, 1]]


def test_specialize_and_decomp(capsys, cfg_a1):
    rc, out, _ = run(capsys, "specialize", "--config", cfg_a1)
    assert rc == 0
    payload = json.loads(out)["payload"]
    dims = {tuple(s["lambda"]): s["dim_simple"]
            for s in payload["specializations"]}
    assert dims == {(0,): 1, (1,): 2, (2,): 2}
    rc, out, _ = run(capsys, "decomp", "--config", cfg_a1)
    payload = json.loads(out)["payload"]
    assert payload["semisimple"] is False
    rows = {tuple(r[0]): r[1] for r in payload["rows"]}
    assert rows[(2,)] == [0, 1, 1]  # order (1,), (2,), (0,)


def test_field_override(capsys, cfg_a1):
    rc, out, _ = run(capsys, "decomp", "--config", cfg_a1, "--field", "q=1")
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["identity"] is True and payload["semisimple"] is True


def test_verify_passes(capsys, cfg_a2):
    rc, out, _ = run(capsys, "verify", "--config", cfg_a2)
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["passed"] is True


def test_verify_passes_on_the_adjoint_rank1_datum(capsys, tmp_path):
    # <alpha^vee, lambda> = 2 lambda here: the rank-1 identity reads the
    # datum's own pairing and root, and a passing verify exits 0
    path = tmp_path / "adjoint.json"
    path.write_text(json.dumps({
        "datum": {"cartan": [[2]], "alpha": [[1]], "alphav": [[2]]},
        "pi": {"seeds": [[1]]},
    }))
    rc, out, _ = run(capsys, "verify", "--config", str(path))
    payload = json.loads(out)["payload"]
    assert payload["rank1_canonical_identity"] is True
    assert payload["passed"] is True and rc == 0


def test_cellbasis(capsys, cfg_a2):
    rc, out, _ = run(capsys, "cellbasis", "--config", cfg_a2)
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 65 == payload["dimension"]


def test_determinism_across_threads(capsys, cfg_a1, cfg_a2):
    for cfg in (cfg_a1, cfg_a2):
        _, out1, _ = run(capsys, "verify", "--config", cfg, "--threads", "1")
        _, out2, _ = run(capsys, "verify", "--config", cfg, "--threads", "4")
        assert out1 == out2


ROUNDTRIP_ARGV = [["datum"], ["saturate"], ["module"], ["gram"],
                  ["cellbasis"], ["cellbasis", "--integral"],
                  ["cellbasis", "--matrices"], ["specialize"], ["decomp"],
                  ["verify"]]


@pytest.mark.parametrize("argv", ROUNDTRIP_ARGV, ids=lambda argv: "_".join(
    a.lstrip("-") for a in argv))
def test_report_roundtrip(capsys, tmp_path, cfg_a1, argv):
    # every report is what the stdlib encoder writes with sorted keys and
    # a two-space indent, and --out holds the same bytes
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, *argv, "--config", cfg_a1, "--out", str(target))
    assert rc == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
    assert target.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("field", [{"q": 0.5}, {"q": "2", "char": 0.0}],
                         ids=["q_float", "char_float"])
def test_report_roundtrip_float_field(capsys, tmp_path, field):
    # the report echoes the config's field object, floats included
    cfg = tmp_path / "a1.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": [[2]]}, "field": field}))
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "specialize", "--config", str(cfg),
                     "--out", str(target))
    assert rc == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
    assert target.read_bytes() == out.encode("ascii")
    assert json.loads(out)["config"]["field"] == field


def test_out_file(capsys, tmp_path, cfg_a1):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "datum", "--config", cfg_a1,
                     "--out", str(target))
    assert rc == 0
    assert target.read_text() == out


def test_out_to_unwritable_path_exits_2(capsys, tmp_path, cfg_a1):
    target = tmp_path / "missing" / "report.json"
    rc, out, err = run(capsys, "datum", "--config", cfg_a1,
                       "--out", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_lambda_builds_only_its_module(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "a2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A2"},
                               "pi": {"seeds": [[2, 2]]}}))
    _, full, _ = run(capsys, "module", "--config", str(cfg))
    built = []
    original = cellmod.CellModule.__init__

    def counting(self, datum, lam):
        built.append(tuple(lam))
        original(self, datum, lam)

    monkeypatch.setattr(cellmod.CellModule, "__init__", counting)
    rc, out, _ = run(capsys, "module", "--config", str(cfg),
                     "--lambda", "0,0")
    assert rc == 0 and built == [(0, 0)]
    entries = json.loads(out)["payload"]["modules"]
    full_entries = json.loads(full)["payload"]["modules"]
    assert len(full_entries) == 5
    assert entries == [e for e in full_entries if e["lambda"] == [0, 0]]


@pytest.mark.parametrize("seed", [2, 4])
def test_huge_cyclotomic_scan_is_bounded(tmp_path, seed):
    # Phi_ell cannot divide once its degree passes the determinant's span,
    # so a huge scan cap ends as soon as the default one, with the same report
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    payloads = []
    for cap in (None, 1000000000):
        doc = {"datum": {"preset": "A1"}, "pi": {"seeds": [[seed]]}}
        if cap is not None:
            doc["caps"] = {"cyclotomic_scan": cap}
        cfg = tmp_path / ("scan-%s.json" % cap)
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qschur.cli", "gram", "--config", str(cfg)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=10)
        assert proc.returncode == 0, proc.stderr
        payloads.append(json.loads(proc.stdout)["payload"])
    assert payloads[0] == payloads[1]


def test_bad_configs(tmp_path, capsys):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text("{not json")
    assert run(capsys, "datum", "--config", str(bad1))[0] == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"datum": {"preset": "A1"}, "typo": 1}))
    assert run(capsys, "datum", "--config", str(bad2))[0] == 2
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"datum": {"preset": "E6"},
                                "pi": {"seeds": []}}))
    # rank cap (default 4) rejects E6 with a clear message
    rc, _, err = run(capsys, "datum", "--config", str(bad3))
    assert rc == 2 and "cap" in err
    # E8 is rejected before its Weyl group (order 696729600) is enumerated
    bad4 = tmp_path / "bad4.json"
    bad4.write_text(json.dumps({"datum": {"preset": "E8"}}))
    rc, _, err = run(capsys, "datum", "--config", str(bad4))
    assert rc == 2 and "cap" in err
    missing = run(capsys, "datum", "--config", str(tmp_path / "nope.json"))
    assert missing[0] == 2


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",
    b"[" * 100000,
    b'{"pi": {"seeds": [[' + b"9" * 5000 + b"]]}}",
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_undecodable_config_exits_2(tmp_path, capsys, raw):
    cfg = tmp_path / "raw.json"
    cfg.write_bytes(raw)
    rc, out, err = run(capsys, "datum", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sparse_rows_render_as_dense_entry_strings(monkeypatch):
    L = LaurentPoly
    a, b = L.var(1) + L.one(), L.var(-2)
    sp = CellModule(build_root_datum("A2"), (1, 1)).spaces[(0, 0)]
    n = len(sp.words)
    matrices = [
        # symmetric: one object at [i][j] and [j][i]
        (sp.gram, n, n),
        ({0: {0: a, 1: b}, 1: {0: b}}, 2, 2),
        # not symmetric; equal entries held by distinct objects
        ({0: {0: a, 1: L.var(1) + L.one(), 2: b},
          1: {1: L.var(-2), 2: L.var(2)}}, 2, 3),
        ({1: {0: a}}, 3, 2),  # zero rows around a nonzero one
        ({}, 2, 3),           # all zero
        ({}, 0, 3),           # no rows
        ({}, 2, 0),           # rows of no columns
        ({}, 0, 0),
    ]
    calls = []
    original = L.__str__

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(L, "__str__", counting)
    for sparse, rows, cols in matrices:
        strings = [[original(x) for x in row]
                   for row in dense_rows(sparse, rows, cols, L.zero())]
        distinct = {id(x) for row in sparse.values() for x in row.values()}
        for depth in range(3):
            calls.clear()
            leaf, dense = SparseRows(sparse, rows, cols), strings
            for _ in range(depth):
                leaf, dense = {"m": [leaf, 1]}, {"m": [dense, 1]}
            assert render(leaf) == json.dumps(dense, sort_keys=True,
                                              indent=2) + "\n"
            # each distinct entry object once
            assert sorted(map(id, calls)) == sorted(distinct)
    assert len({id(x) for row in sp.gram.values() for x in row.values()}) < \
        sum(len(row) for row in sp.gram.values())  # the Gram shares entries


_TEXT = st.one_of(st.text(), st.text(st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\x80 a\u00e9\u2028\ud800\udfff\U0001f600')),
    st.text(st.characters(exclude_categories=())))
_SCALARS = st.one_of(_TEXT, st.integers(), st.integers(-2 ** 200, 2 ** 200),
                     st.floats(), st.booleans(), st.none())
# tuples are arrays too, with the same fast paths for all-str and all-int
# items: the engine's words reach the writer as tuples
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4),
    st.lists(_TEXT, max_size=4), st.lists(st.integers(), max_size=4),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.lists(_TEXT, max_size=4).map(tuple),
    st.lists(st.integers(), max_size=4).map(tuple)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(value=_JSON)
def test_render_matches_stdlib_encoder(value):
    assert render(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), LaurentPoly.one(), {1, 2}, {1: "a"}, object()],
                         ids=lambda v: type(v).__name__)
def test_render_rejects_other_types(value):
    with pytest.raises(TypeError):
        render({"payload": [value]})


def test_write_report_hands_the_sink_chunks_of_about_chunk_characters():
    # a long report reaches the sink in order and in pieces: each but the
    # last holds at least CHUNK characters, none much more
    L = LaurentPoly
    sparse = {i: {j: L.var(i - j) + L.one() for j in range(0, 40, 3)}
              for i in range(0, 300, 2)}
    dense = [[str(x) for x in row]
             for row in dense_rows(sparse, 300, 40, L.zero())]
    words = [[[i % 3, i], [1, 2]] for i in range(5000)]
    report = {"m": [SparseRows(sparse, 300, 40)] * 3, "w": words,
              "s": ["v^%d" % i for i in range(3000)]}
    chunks = []
    write_report(report, chunks.append)
    assert "".join(chunks) == json.dumps(
        {"m": [dense] * 3, "w": words, "s": report["s"]},
        sort_keys=True, indent=2) + "\n"
    assert len(chunks) > 10
    assert all(CHUNK <= len(c) < 2 * CHUNK for c in chunks[:-1])
    assert 0 < len(chunks[-1]) < 2 * CHUNK


def test_parse_field():
    assert parse_field("generic").kind == "generic"
    assert parse_field("q=-3/2").q == -1.5 or str(parse_field("q=-3/2").q) == "-3/2"
    assert parse_field({"cyclotomic": 6}).ell == 6
    with pytest.raises(ConfigError):
        parse_field("q=")
    with pytest.raises(ConfigError):
        parse_field("galois")
    with pytest.raises(UnsupportedCharacteristicError):
        parse_field({"q": "1", "char": 5})


def test_cyclotomic_order_is_bounded(capsys, cfg_a1):
    bound = MAX_CYCLOTOMIC_ORDER
    for spec in ("cyclotomic=%d" % (bound + 1), {"cyclotomic": bound + 1}):
        with pytest.raises(ConfigError, match=str(bound)):
            parse_field(spec)
    rc, out, err = run(capsys, "specialize", "--config", cfg_a1,
                       "--field", "cyclotomic=1000003")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and str(bound) in err


def test_rational_point_digits_are_bounded(capsys, tmp_path, cfg_a1):
    # str() of a Fraction past the bound raises, so the report could not
    # name its field; a huge exponent is refused before it is expanded
    bound = MAX_Q_DIGITS
    for spec in ("q=1e%d" % bound, "q=1e-%d" % bound, "q=-1e4400",
                 "q=%s.5" % ("9" * bound), {"q": "1e-4400"},
                 "q=1e99999999999999999999"):
        with pytest.raises(ConfigError, match=str(bound)):
            parse_field(spec)
    for spec in ("q=1e%d" % (bound - 1), "q=5e-%d" % bound, {"q": 1e308}):
        assert parse_field(spec).q
    for command in ("specialize", "decomp"):
        rc, out, err = run(capsys, command, "--config", cfg_a1,
                           "--field", "q=1e4400")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and str(bound) in err
    for field in ("q=1e4000", {"q": 1e308}):
        cfg = tmp_path / "a1.json"
        cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                                   "pi": {"seeds": [[2]]}, "field": field}))
        rc, out, _ = run(capsys, "specialize", "--config", str(cfg))
        assert rc == 0
        assert json.loads(out)["config"]["field"] == field


def test_huge_rational_exponent_exits_promptly(cfg_a1):
    # Fraction("1e100000000") alone would take minutes to expand
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", "specialize", "--config", cfg_a1,
         "--field", "q=1e100000000"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert str(MAX_Q_DIGITS) in proc.stderr


@pytest.mark.parametrize("caps, extra", [
    ({"depth": 10 ** 6}, []),
    ({}, ["--depth", "1000000"]),
    ({"samples": 10 ** 9}, []),
], ids=["caps.depth", "--depth", "caps.samples"])
def test_effort_caps_are_bounded(tmp_path, caps, extra):
    # an unbounded depth or sample count would run verify for hours and
    # grow its caches until the host runs out of memory: it must be
    # refused before anything is built
    cfg = tmp_path / "caps.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A1"},
                               "pi": {"seeds": [[2]]}, "caps": caps}))
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", "verify", "--config", str(cfg),
         *extra],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30)
    key = "depth" if "depth" in caps or extra else "samples"
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "bound %d" % MAX_CAPS[key] in proc.stderr


def test_effort_caps_accept_their_bounds():
    config = JobConfig({"datum": {"preset": "A1"}, "caps": dict(MAX_CAPS)})
    assert config.caps["depth"] == MAX_CAPS["depth"]
    assert config.caps["samples"] == MAX_CAPS["samples"]
    for key, bound in MAX_CAPS.items():
        with pytest.raises(ConfigError, match="bound %d" % bound):
            JobConfig({"datum": {"preset": "A1"}, "caps": {key: bound + 1}})


def test_non_finite_type_exit_code(tmp_path, capsys):
    cfg = tmp_path / "affine.json"
    cfg.write_text(json.dumps({
        "datum": {"cartan": [[2, -2], [-2, 2]],
                  "alpha": [[2, -2], [-2, 2]],
                  "alphav": [[1, 0], [0, 1]]},
        "pi": {"seeds": []},
    }))
    rc, _, err = run(capsys, "datum", "--config", str(cfg))
    assert rc == 2 and "error" in err


@pytest.mark.parametrize("datum", [
    {"preset": "A1xB2"},
    {"cartan": [[2, 0, 0], [0, 2, -1], [0, -2, 2]],
     "alpha": [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
     "alphav": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
], ids=["preset", "explicit"])
def test_gram_of_a_product_datum_does_not_depend_on_its_input(
        tmp_path, capsys, datum):
    # the A1 factor has d = 1 whether the product is named or spelled out
    cfg = tmp_path / "a1xb2.json"
    cfg.write_text(json.dumps({"datum": datum, "pi": {"seeds": [[2, 0, 0]]}}))
    rc, out, _ = run(capsys, "gram", "--config", str(cfg))
    assert rc == 0
    cell = json.loads(out)["payload"]["gram"][0]
    assert cell["lambda"] == [2, 0, 0]
    dets = {tuple(sp["weight"]): sp["determinant"]
            for sp in cell["weight_spaces"]}
    assert dets[(0, 0, 0)] == "v^2 + 1"


@pytest.mark.parametrize("doc, extra", [
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1, 5]]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1]]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [["x", 1]]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1.5, 1]]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [1, 1]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]},
      "caps": {"depth": "x"}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]},
      "field": {"cyclotomic": "x"}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]}},
     ["--lambda", "1,x"]),
    ({"datum": {"preset": "Q3"}}, []),
    ({"datum": {"preset": "A0"}}, []),
    ({"datum": {"preset": "Ax"}}, []),
    ({"datum": {"preset": 3}}, []),
    ({"datum": {"cartan": [[2]]}}, []),
    ({"datum": {"cartan": "x", "alpha": [[2]], "alphav": [[1]]}}, []),
    ({"datum": {"cartan": [[2, -1], [-1, 2]], "alpha": [[2, -1]],
                "alphav": [[1, 0], [0, 1]]}}, []),
    ({"datum": {"cartan": [[2, -1], [0, 2]], "alpha": [[2, -1], [0, 2]],
                "alphav": [[1, 0], [0, 1]]}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]},
      "caps": {"depth": -3}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]},
      "caps": {"samples": -1}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]},
      "caps": {"cyclotomic_scan": -1}}, []),
    ({"datum": {"preset": "A2"}, "pi": {"seeds": [[1, 1]]}},
     ["--depth", "-1"]),
    ({"datum": {"preset": "A1"}, "pi": {"seeds": [[2]]}, "field": "galois"},
     []),
    ({"datum": {"preset": "A1", "rank": 2}, "pi": {"seeds": [[2]]}}, []),
    ({"datum": {"preset": "A1xA1", "rank": 3}, "pi": {"seeds": [[1, 1]]}},
     []),
])
def test_malformed_input_exits_2(tmp_path, capsys, doc, extra):
    # module never reads the field, so a bad config field must be caught
    # when the config is parsed
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    for command in ("specialize", "module"):
        rc, out, err = run(capsys, command, "--config", str(cfg), *extra)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")


def test_orbit_cap_applies_during_saturation(tmp_path):
    # |W pi| passes caps.orbit long before the walk has found every
    # dominant weight below the seed
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A2"},
                               "pi": {"seeds": [[600, 600]]}}))
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", "saturate", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "caps.orbit" in proc.stderr


def test_e8_with_raised_rank_cap(tmp_path, capsys):
    # the Weyl order comes from root heights: no group enumeration
    cfg = tmp_path / "e8.json"
    cfg.write_text(json.dumps({"datum": {"preset": "E8"},
                               "caps": {"rank": 8}}))
    rc, out, _ = run(capsys, "datum", "--config", str(cfg))
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["weyl_order"] == 696729600
    assert len(payload["positive_roots"]) == 120
    # a regular seed's orbit has |W| elements: the orbit cap rejects it
    # from the orbit size alone, before any orbit is enumerated
    cfg.write_text(json.dumps({"datum": {"preset": "E8"},
                               "pi": {"seeds": [[1] * 8]},
                               "caps": {"rank": 8}}))
    rc, out, err = run(capsys, "saturate", "--config", str(cfg))
    assert rc == 2 and out == "" and "caps.orbit" in err


def test_e8_saturation_walks_only_dominant_weights(tmp_path):
    # E8 omega_7 has 4 dominant weights below it but a predecessor box of
    # 1,615,416,075 root-coordinate vectors; the walk visits only the former
    cfg = tmp_path / "e8.json"
    cfg.write_text(json.dumps({"datum": {"preset": "E8"},
                               "pi": {"seeds": [[0, 0, 0, 0, 0, 0, 1, 0]]},
                               "caps": {"rank": 8}}))
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", "saturate", "--config", str(cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=10)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert len(payload["pi"]) == 4
    assert payload["orbit_weight_count"] == 9121


# -- fuzzing the CLI with small documents and argv ----------------------------

# (datum, lattice rank, bound on the sum of a seed's entries): the bound
# keeps every well-formed job small (verify on G2 (1,1) alone takes over 20 s)
DATA = [
    ({"preset": "A1"}, 1, 2),
    ({"preset": "A1xA1"}, 2, 4),
    ({"preset": "A2"}, 2, 4),
    ({"preset": "B2"}, 2, 2),
    ({"preset": "G2"}, 2, 1),
    ({"cartan": [[2]], "alpha": [[2]], "alphav": [[1]]}, 1, 2),
]
FIELDS = ["generic", "q=2", "q=1", "q=-1", "q=1/2", "cyclotomic=2",
          "cyclotomic=3", "cyclotomic=4", {"cyclotomic": 5},
          {"q": "3", "char": 0}, {"q": 0.5}, {"q": "2", "char": 0.0}]
BAD_FIELDS = ["q=0", "q=x", "cyclotomic=1", "cyclotomic=x", "galois", 7,
              None, {}, {"cyclotomic": "x"}, {"q": 1, "char": 2},
              "cyclotomic=1000003", {"cyclotomic": 1000003}, "q=1e4400",
              {"q": "1e-4400"}]
CAPS = st.fixed_dictionaries({}, optional={
    "depth": st.integers(0, 2), "samples": st.integers(0, 3),
    "cyclotomic_scan": st.integers(0, 60), "rank": st.integers(0, 4),
    "orbit": st.integers(0, 100)})
BAD_CAPS = [{"depth": -1}, {"depth": "2"}, {"depth": 1.5}, {"nope": 1}, [],
            "caps"]
BAD_DOCS = [
    ("datum", {"preset": 3}), ("datum", {"preset": "Q3"}),
    ("datum", {"cartan": [[2]]}), ("datum", "A1"), ("datum", {}),
    ("pi", {"seeds": 5}), ("pi", {"bad": []}), ("pi", []), ("extra", 1),
    (None, []), (None, 3)]
BAD_ARGV = [["--lambda", "1,x"], ["--lambda", ""], ["--lambda", "9"],
            ["--lambda", "1,1,1"], ["--field", "q=0"], ["--field", "galois"],
            ["--depth", "-1"], ["--depth", "x"], ["--threads=x"], ["--nope"]]


@st.composite
def _jobs(draw):
    """A config document and argv: well-formed in four draws of nine,
    otherwise with one malformed part."""
    fault = draw(st.sampled_from(
        [None] * 4 + ["seeds", "field", "caps", "doc", "argv"]))
    datum, n, bound = draw(st.sampled_from(DATA))
    entry = st.integers(-1, 2)
    seeds = draw(st.lists(st.lists(entry, min_size=n, max_size=n).filter(
        lambda s: min(s) >= 0 and sum(s) <= bound), min_size=1, max_size=2))
    if fault == "seeds":  # not dominant, of the wrong length, or not integers
        seeds.append(draw(st.one_of(
            st.lists(entry, min_size=n, max_size=n).filter(
                lambda s: min(s) < 0),
            st.lists(entry, max_size=3).filter(lambda s: len(s) != n),
            st.lists(st.sampled_from([0.5, "1", None, True]),
                     min_size=n, max_size=n))))
    doc = {"datum": datum, "pi": {"seeds": seeds}}
    if fault == "field" or draw(st.booleans()):
        doc["field"] = draw(st.sampled_from(
            BAD_FIELDS if fault == "field" else FIELDS))
    if fault == "caps" or draw(st.booleans()):
        doc["caps"] = draw(st.sampled_from(BAD_CAPS) if fault == "caps"
                           else CAPS)
    if fault == "doc":
        key, value = draw(st.sampled_from(BAD_DOCS))
        doc = value if key is None else dict(doc, **{key: value})
    argv = [draw(st.sampled_from(sorted(COMMANDS)))]
    if draw(st.booleans()):
        argv += ["--lambda", ",".join(map(str, draw(st.sampled_from(seeds))))]
    if draw(st.booleans()):
        argv += ["--field", draw(st.sampled_from(
            [f for f in FIELDS if isinstance(f, str)]))]
    if draw(st.booleans()):
        argv += ["--depth", str(draw(st.integers(0, 2)))]
    argv += draw(st.lists(st.sampled_from(
        ["--integral", "--matrices", "--threads=2"]), max_size=2, unique=True))
    if fault == "argv":
        argv += draw(st.sampled_from(BAD_ARGV))
    return doc, argv


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "job.json"


@settings(max_examples=50, deadline=None)
@given(job=_jobs())
def test_cli_fuzz_exit_codes(fuzz_config, job):
    # any document and argv end in a report or a clean exit; exit 1 is
    # reserved for a failed verification
    doc, argv = job
    fuzz_config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--config", str(fuzz_config)])
    assert rc in (0, 1, 2), (doc, argv, err.getvalue())
    assert rc != 1 or argv[0] == "verify", (doc, argv, err.getvalue())


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_returns_0_with_the_usage_on_stdout(capsys, flag):
    rc, out, err = run(capsys, flag)
    assert rc == 0 and err == ""
    assert out.startswith("usage: qschur ")
    for name in ("--config PATH", "--lambda C1,C2,...", "--integral",
                 *COMMANDS):
        assert name in out


@pytest.mark.parametrize("argv", [
    [], ["datum", "--conf", "CFG"], ["cellbasis", "--config", "CFG",
                                     "--integral=1"],
    ["verify", "--config", "CFG", "--depth", "x"],
    ["datum", "gram", "--config", "CFG"], ["datum", "--config"],
    ["nope", "--config", "CFG"], ["datum"]],
    ids=["empty", "abbreviation", "flag_value", "bad_int", "two_commands",
         "no_value", "bad_command", "no_config"])
def test_bad_argv_returns_2_with_usage(capsys, cfg_a1, argv):
    rc, out, err = run(capsys, *[cfg_a1 if a == "CFG" else a for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith("usage: qschur ")
    assert "\nqschur: error: " in err


def test_option_value_forms_are_equal(capsys, cfg_a1):
    reports = [run(capsys, *argv)[1] for argv in (
        ["decomp", "--field=q=2", "--config", cfg_a1],
        ["--config", cfg_a1, "--field", "q=2", "decomp"],
        ["decomp", "--config=" + cfg_a1, "--field", "q=3", "--field", "q=2"])]
    assert json.loads(reports[0])["payload"]["field"] == "q=2"
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_option_value_may_start_with_a_dash(capsys, tmp_path):
    # a dominant GL2 weight with negative coordinates: the argument after
    # --lambda is its value whatever it starts with, as in the = form
    cfg = tmp_path / "gl2.json"
    cfg.write_text(json.dumps({
        "datum": {"cartan": [[2]], "alpha": [[1, -1]], "alphav": [[1, -1]]},
        "pi": {"seeds": [[0, -2]]}}))
    spaced = run(capsys, "module", "--config", str(cfg), "--lambda", "-1,-1")
    joined = run(capsys, "module", "--config", str(cfg), "--lambda=-1,-1")
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1]
    assert json.loads(spaced[1])["payload"]["modules"][0]["lambda"] == [-1, -1]


def test_decomp_specializes_each_module_once(tmp_path, capsys, monkeypatch):
    # the decomposition numbers and the semisimplicity witnesses read one
    # specialization of each cell module; the command imports the name from
    # specialize when it runs, so patching it there counts every call
    calls = []
    original = specialize.specialize_module

    def counting(cm, ctx):
        calls.append(cm.lam)
        return original(cm, ctx)

    monkeypatch.setattr(specialize, "specialize_module", counting)
    cfg = tmp_path / "a2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A2"},
                               "pi": {"seeds": [[3, 1]]},
                               "field": "cyclotomic=4"}))
    rc, out, _ = run(capsys, "decomp", "--config", str(cfg))
    assert rc == 0
    flag = [tuple(lam) for lam in json.loads(out)["payload"]["order"]]
    assert len(flag) == 4
    assert sorted(calls) == sorted(flag)


@pytest.mark.parametrize("argv, preset, seed", [
    (("decomp", "--field", "generic"), "B2", [2, 1]),
    (("decomp", "--field", "generic"), "A2", [2, 2]),
    (("decomp", "--field", "q=2"), "A2", [2, 2]),
    (("decomp", "--field", "cyclotomic=5"), "A2", [2, 2]),
    (("verify",), "A2", [1, 1]),
    (("verify",), "G2", [2, 0]),
    (("cellbasis", "--integral"), "A2", [1, 1]),
    (("cellbasis", "--integral"), "G2", [2, 0]),
], ids=lambda x: "_".join(map(str, x)) if isinstance(x, (tuple, list))
    else x)
def test_jobs_take_no_gcd_in_q_v(tmp_path, capsys, monkeypatch, argv,
                                 preset, seed):
    # every full rank over Q(v) is certified at a point, so these jobs never
    # eliminate over Q(v) and never reduce a fraction there
    from qschur import scalars

    def refuse(a, b):
        raise AssertionError("laurent_gcd(%s, %s)" % (a, b))

    monkeypatch.setattr(scalars, "laurent_gcd", refuse)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"datum": {"preset": preset},
                               "pi": {"seeds": [seed]}}))
    rc, out, _ = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert rc == 0 and out


def test_generic_specialization_eliminates_nothing(monkeypatch):
    # over Q(v) each integral Gram is nonsingular, so the ranks are the
    # character and no integral basis is built
    from qschur import linalg, specialize
    cm = CellModule(build_root_datum("B2"), (2, 1))
    calls = []
    original = linalg.forward_eliminate

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(linalg, "forward_eliminate", counting)
    spec = specialize.specialize_module(cm, parse_field("generic"))
    assert spec.dim_simple == spec.dim_delta == cm.dim
    assert calls == []
    assert all(sp.integral is None for sp in cm.spaces.values())


# -- the process exit path: run as a program, the CLI ends with os._exit once
# the report and stderr are flushed ------------------------------------------

SRC = os.path.dirname(os.path.dirname(qschur.__file__))
SRC_ENV = dict(os.environ, PYTHONPATH=SRC)

FAILING_CHECK = """
import runpy, sys
from qschur import assembly
real = assembly.verify_cellularity

def patched(s):
    rep = real(s)
    %s
    return rep

assembly.verify_cellularity = patched
sys.argv = ["qschur", *sys.argv[1:]]
runpy.run_module("qschur.cli", run_name="__main__")
"""


def _process(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "qschur.cli", *argv],
                          env=SRC_ENV, timeout=60, **kwargs)


@pytest.fixture
def cfg_g2(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"datum": {"preset": "G2"},
                                "pi": {"seeds": [[0, 1]]}}))
    return str(path)


def test_process_writes_a_large_report_whole(capsys, tmp_path, cfg_g2):
    # about 1.5 MB: stdout and --out hold every byte the in-process run
    # renders, and the timing line still reaches stderr
    argv = ["cellbasis", "--matrices", "--config", cfg_g2]
    rc, expected, _ = run(capsys, *argv)
    assert rc == 0 and len(expected) > 10 ** 6
    target = tmp_path / "report.json"
    proc = _process(*argv, "--out", str(target), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode("ascii")
    assert target.read_bytes() == proc.stdout
    assert re.fullmatch(rb"cellbasis finished in \d+\.\d{3} s\n", proc.stderr)


def test_large_report_is_written_in_bounded_memory(monkeypatch, cfg_g2):
    # the 1.5 MB report streams to a stdout that discards it while writing
    # holds less than 512 KiB above what was traced when it started
    from qschur import cli

    class Discard:
        written = 0

        def write(self, text):
            Discard.written += len(text)

        def flush(self):
            pass

    peaks = []
    real = cli.write_report

    def measured(report, sink):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        real(report, sink)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(cli, "write_report", measured)
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        rc = main(["cellbasis", "--matrices", "--config", cfg_g2])
    finally:
        tracemalloc.stop()
    assert rc == 0 and Discard.written > 10 ** 6
    assert len(peaks) == 1 and peaks[0] < 512 * 1024, peaks


def test_cellbasis_matrices_forms_one_product_at_a_time_while_writing(
        monkeypatch, cfg_g2):
    # every product is formed once, inside the writer, and dropped after
    # its rows: after a warm-up run, the whole in-process job peaks under
    # 512 KiB above the traced level when it starts.  Building every
    # product before writing peaked at 900 KiB on this job; one at a time,
    # 377 KiB (CPython 3.11)
    from qschur import assembly, cli

    class Discard:
        def write(self, text):
            pass

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Discard())
    argv = ["cellbasis", "--matrices", "--config", cfg_g2]
    assert main(argv) == 0
    writing, formed = [], []
    real_write, real_product = cli.write_report, assembly.CellBasisElement.product

    def write_report(report, sink):
        writing.append(True)
        real_write(report, sink)
        writing.pop()

    def product(el):
        assert writing, "a product formed before the report is written"
        formed.append(id(el))
        return real_product(el)

    monkeypatch.setattr(cli, "write_report", write_report)
    monkeypatch.setattr(assembly.CellBasisElement, "product", product)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    dim = assembly.assemble(rootdata.saturate(
        build_root_datum("G2"), [(0, 1)])).dim
    assert len(formed) == len(set(formed)) == dim
    assert peak < 512 * 1024, peak


def test_cellbasis_without_matrices_builds_no_generator_image(
        capsys, monkeypatch, cfg_g2, tmp_path):
    # the triples and the count come from the basis combos alone, and equal
    # those of the --matrices report
    from qschur import assembly
    cfg = tmp_path / "b2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "B2"},
                               "pi": {"seeds": [[1, 1]]}}))
    for path in (cfg_g2, str(cfg)):
        for flags in ((), ("--integral",)):
            _, full, _ = run(capsys, "cellbasis", "--matrices",
                             "--config", path, *flags)
            calls = []
            for name in ("gen", "rho_combo", "rho_word"):
                real = getattr(assembly.SchurAlgebra, name)
                monkeypatch.setattr(
                    assembly.SchurAlgebra, name,
                    lambda s, *a, real=real, name=name:
                    calls.append((name, a)) or real(s, *a))
            rc, out, _ = run(capsys, "cellbasis", "--config", path, *flags)
            monkeypatch.undo()
            assert rc == 0 and calls == []
            payload, expected = (json.loads(text)["payload"]
                                 for text in (out, full))
            for entry in expected["elements"]:
                del entry["matrix"]
            assert payload == expected and payload["count"] > 0


def test_coordinate_failure_while_building_images_exits_2_with_empty_stdout(
        capsys, monkeypatch, cfg_g2):
    # the last coordinate solve of the images fails: every image is built
    # before the first byte, so stdout stays empty
    calls = []
    real = cellmod.CellModule.coordinates

    def counting(self, *args, **kwargs):
        calls.append(None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cellmod.CellModule, "coordinates", counting)
    argv = ("cellbasis", "--matrices", "--config", cfg_g2)
    assert run(capsys, *argv)[0] == 0
    last = len(calls)
    assert last > 0

    def failing(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 2 * last:
            raise CoordinateFailureError("injected at solve %d" % last)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cellmod.CellModule, "coordinates", failing)
    rc, out, err = run(capsys, *argv)
    assert len(calls) == 2 * last
    assert rc == 2 and out == ""
    assert err == "error: injected at solve %d\n" % last


def test_out_write_failure_exits_2_and_removes_the_file(
        capsys, monkeypatch, tmp_path, cfg_g2):
    # the --out file takes the first chunk, then its disk is full: an
    # error line, exit 2, and no --out file with part of the report
    from qschur import cli
    target = tmp_path / "report.json"

    def filling_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if mode == "w":
            taken = []

            def write(text):
                if taken:
                    raise OSError(errno.ENOSPC, "No space left on device")
                taken.append(text)
                return type(fh).write(fh, text)

            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", filling_open, raising=False)
    rc, out, err = run(capsys, "cellbasis", "--matrices", "--config", cfg_g2,
                       "--out", str(target))
    assert rc == 2
    assert err == "error: [Errno 28] No space left on device\n"
    assert not target.exists()
    assert 0 < len(out) < 2 * CHUNK  # stdout took the first chunk only


def test_run_turns_the_collector_off_and_main_leaves_it_as_found(
        capsys, monkeypatch, cfg_a1):
    from qschur import cli

    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["qschur", "verify", "--config", cfg_a1])
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(["verify", "--config", cfg_a1]) == 0
            assert gc.isenabled() is enabled
        gc.enable()
        with pytest.raises(Exited) as exited:
            cli.run()
        assert exited.value.args == (0,)
        assert not gc.isenabled()
    finally:
        gc.enable()
    reports = capsys.readouterr().out  # the same report three times
    assert reports and reports == reports[:len(reports) // 3] * 3


def test_process_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    proc = _process("datum", "--config", str(cfg), capture_output=True,
                    text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: config parse error")
    assert "Traceback" not in proc.stderr


def test_process_failed_verify_exits_1_with_the_full_report(
        capsys, monkeypatch, cfg_a1):
    # the same check fails in-process and in a child that runs the module
    # as __main__, so both reports must be the same bytes
    from qschur import assembly

    def patched(s, real=assembly.verify_cellularity):
        rep = real(s)
        rep.checks[0].passed = False
        return rep

    monkeypatch.setattr(assembly, "verify_cellularity", patched)
    rc, expected, _ = run(capsys, "verify", "--config", cfg_a1)
    assert rc == 1 and json.loads(expected)["payload"]["passed"] is False
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_CHECK % "rep.checks[0].passed = False",
         "verify", "--config", cfg_a1],
        capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr.startswith("verify finished in ")


def test_process_exception_escaping_main_prints_its_traceback(cfg_a1):
    proc = subprocess.run(
        [sys.executable, "-c",
         FAILING_CHECK % "raise RuntimeError('check crashed')",
         "verify", "--config", cfg_a1],
        capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("RuntimeError: check crashed\n")


def _gram_into_a_closing_pipe(tmp_path, reader, unbuffered, *argv):
    """Exit status and stderr of gram on G2 (2,0), a 348 KB report, its
    stdout a pipe whose reader is closed or closes after 100 bytes."""
    cfg = tmp_path / "g2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "G2"},
                               "pi": {"seeds": [[2, 0]]}}))
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    if reader == "closed":
        os.close(r)
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "qschur.cli", "gram", "--config", str(cfg),
             *argv],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(w)
    with child:
        if reader != "closed":  # the report is larger than the pipe buffer
            assert os.read(r, 100)
            os.close(r)
        err = child.stderr.read()
        rc = child.wait(timeout=60)
    return rc, err


CLOSING_PIPES = pytest.mark.parametrize("reader", ["closed", "reads_100_bytes"])
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True],
                                    ids=["buffered", "unbuffered"])


@BUFFERING
@CLOSING_PIPES
def test_process_closed_stdout_exits_2(tmp_path, reader, unbuffered):
    # qschur gram ... | head -c 100: the report cannot be written whole, so
    # the job ends in exit 2 with an error line, not a traceback, also when
    # stdout is unbuffered and takes part of the report first
    rc, err = _gram_into_a_closing_pipe(tmp_path, reader, unbuffered)
    assert rc == 2
    assert err.startswith("error: cannot write the report: ")
    assert "Broken pipe" in err and "Traceback" not in err


@BUFFERING
@CLOSING_PIPES
def test_process_closed_stdout_leaves_no_out_file(tmp_path, reader,
                                                  unbuffered):
    # --out took the chunks stdout could not: it is removed, not left
    # holding part of the report
    target = tmp_path / "report.json"
    rc, err = _gram_into_a_closing_pipe(tmp_path, reader, unbuffered,
                                        "--out", str(target))
    assert rc == 2
    assert err.startswith("error: cannot write the report: ")
    assert "Broken pipe" in err and "Traceback" not in err
    assert not target.exists()


def test_unwritable_stdout_exits_2_in_process(capsys, monkeypatch, cfg_a1):
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    rc = main(["datum", "--config", cfg_a1])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: cannot write the report: [Errno 32] Broken pipe\n"


def test_failed_oracle_check_exits_2_without_a_traceback(capsys, cfg_a2,
                                                          monkeypatch):
    # Freudenthal's consistency check raises, so it also holds under -O
    find = rootdata.RootDatum._find_positive_roots
    monkeypatch.setattr(rootdata.RootDatum, "_find_positive_roots",
                        lambda self: find(self)[:-1])
    rc, out, err = run(capsys, "module", "--config", cfg_a2)
    assert rc == 2 and not out
    assert err.startswith("error: Freudenthal") and "Traceback" not in err
    assert "lambda = (1, 1)" in err


def test_degenerate_gram_determinant_exits_2(capsys, cfg_a1, monkeypatch):
    monkeypatch.setattr(specialize, "laurent_determinant",
                        lambda gram, n: LaurentPoly.zero())
    rc, out, err = run(capsys, "gram", "--config", cfg_a1)
    assert rc == 2 and not out
    assert err.startswith("error: contravariant form degenerate")
    assert "mu = " in err and "lambda = " in err
