"""CLI: config parsing, exit codes, report determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qschur
from qschur import cellmod
from qschur.cellmod import CellModule
from qschur.cli import (
    COMMANDS,
    MAX_CAPS,
    MAX_CYCLOTOMIC_ORDER,
    MAX_Q_DIGITS,
    JobConfig,
    SparseRows,
    main,
    parse_field,
    render,
)
from qschur.errors import ConfigError, UnsupportedCharacteristicError
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
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4),
    st.lists(_TEXT, max_size=4), st.lists(st.integers(), max_size=4),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(value=_JSON)
def test_render_matches_stdlib_encoder(value):
    assert render(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), LaurentPoly.one(), (1, 2), {1, 2}, {1: "a"}, object()],
                         ids=lambda v: type(v).__name__)
def test_render_rejects_other_types(value):
    with pytest.raises(TypeError):
        render({"payload": [value]})


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
        try:
            rc = main([*argv, "--config", str(fuzz_config)])
        except SystemExit as exc:  # argparse rejecting argv
            rc = exc.code
    assert rc in (0, 1, 2), (doc, argv, err.getvalue())
    assert rc != 1 or argv[0] == "verify", (doc, argv, err.getvalue())


def test_decomp_specializes_each_module_once(tmp_path, capsys, monkeypatch):
    # the decomposition numbers and the semisimplicity witnesses read one
    # specialization of each cell module; patch every namespace that binds
    # the name, as a tracer would
    from qschur import cli, specialize
    calls = []
    original = specialize.specialize_module

    def counting(cm, ctx):
        calls.append(cm.lam)
        return original(cm, ctx)

    for namespace in (specialize, cli):
        monkeypatch.setattr(namespace, "specialize_module", counting)
    cfg = tmp_path / "a2.json"
    cfg.write_text(json.dumps({"datum": {"preset": "A2"},
                               "pi": {"seeds": [[3, 1]]},
                               "field": "cyclotomic=4"}))
    rc, out, _ = run(capsys, "decomp", "--config", str(cfg))
    assert rc == 0
    flag = [tuple(lam) for lam in json.loads(out)["payload"]["order"]]
    assert len(flag) == 4
    assert sorted(calls) == sorted(flag)
