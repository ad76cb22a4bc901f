"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (zero tolerance); the only non-exact assertions are
the per-criterion wall-clock limits.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import json
import time

import pytest

from qschur.assembly import (
    assemble,
    matrix_span_rank,
    rank1_canonical_identity,
    verify_cellularity,
    verify_relations,
)
from qschur.cellmod import CellModule
from qschur.cli import main as cli_main
from qschur.rootdata import build_flag, build_root_datum, saturate
from qschur.scalars import FieldContext, LaurentPoly, quantum_integer
from qschur.specialize import (
    decomposition_matrix,
    radical_is_submodule,
    semisimplicity_report,
    specialize_module,
)

import dense

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
GEN = FieldContext.generic()


@pytest.fixture(scope="module")
def alg_a1_6():
    return assemble(saturate(A1, [(6,), (5,)]))  # pi = {0,...,6}


@pytest.fixture(scope="module")
def alg_a1_4():
    return assemble(saturate(A1, [(4,), (3,)]))  # pi = {0,...,4}


@pytest.fixture(scope="module")
def alg_a2():
    return assemble(saturate(A2, [(1, 1)]))


@pytest.fixture(scope="module")
def alg_b2():
    return assemble(saturate(B2, [(1, 0), (0, 1)]))


def _dense_action(cm, symbol):
    """The generic action of a generator as a dense FieldMatrix view."""
    return dense.field_view(GEN, cm.action_matrix(symbol), cm.dim, cm.dim)


def _specs(modules, flag, ctx):
    """Every module of the flag specialized at ctx, once."""
    return {lam: specialize_module(modules[lam], ctx) for lam in flag}


def _report(num, name, ok, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %-38s %s (%.2fs, limit %ds)"
          % (num, name, verdict, elapsed, limit))
    assert ok, "criterion %d (%s) failed" % (num, name)
    assert elapsed < limit, "criterion %d exceeded %ds" % (num, limit)


def test_criterion_1_rank1_golden_tables(alg_a1_6):
    start = time.monotonic()
    ok = True
    for n in range(0, 7):
        cm = alg_a1_6.modules[(n,)]
        ok &= cm.dim == n + 1
        f = _dense_action(cm, ("F", 0, 1))
        e = _dense_action(cm, ("E", 0, 1))
        for t in range(n + 1):
            for s in range(n + 1):
                expect_f = quantum_integer(t + 1) if s == t + 1 else LaurentPoly.zero()
                expect_e = quantum_integer(n - t + 1) if s == t - 1 else LaurentPoly.zero()
                ok &= f.entries[s][t] == GEN.from_laurent(expect_f)
                ok &= e.entries[s][t] == GEN.from_laurent(expect_e)
    _report(1, "rank-1 golden tables", ok, time.monotonic() - start, 5)


def test_criterion_2_dimension_formula(alg_a1_4, alg_a2):
    start = time.monotonic()
    ok = alg_a1_4.dim == 55
    els = alg_a1_4.cellular_basis()
    ok &= len(els) == 55
    ok &= matrix_span_rank(alg_a1_4, [el.matrix for el in els]) == 55
    ok &= alg_a2.dim == 65
    els2 = alg_a2.cellular_basis()
    ok &= len(els2) == 65
    ok &= matrix_span_rank(alg_a2, [el.matrix for el in els2]) == 65
    _report(2, "dimension formula / faithfulness", ok, time.monotonic() - start, 60)


def test_criterion_3_character_oracle():
    start = time.monotonic()
    targets = [(A1, (n,)) for n in range(0, 7)]
    targets += [(A2, lam) for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]]
    targets += [(B2, (1, 0)), (B2, (0, 1))]
    ok = True
    for datum, lam in targets:
        cm = CellModule(datum, lam)  # raises RankMismatch on any disagreement
        char = datum.freudenthal_character(lam)
        ok &= all(cm.spaces[mu].rank == char[mu] for mu in cm.weights)
        ok &= cm.dim == datum.weyl_dimension(lam)
    _report(3, "Gram ranks match character oracle", ok, time.monotonic() - start, 120)


def test_criterion_4_relation_suites(alg_a1_6, alg_a1_4, alg_a2, alg_b2):
    start = time.monotonic()
    ok = True
    for s in (alg_a1_6, alg_a1_4, alg_a2, alg_b2):
        rep = verify_relations(s, depth=3, samples=8)
        ok &= rep.ok
    _report(4, "relation suites", ok, time.monotonic() - start, 300)


def test_criterion_5_cellularity_suite(alg_a1_6, alg_a1_4, alg_a2, alg_b2):
    start = time.monotonic()
    ok = True
    for s in (alg_a1_6, alg_a1_4, alg_a2, alg_b2):
        rep = verify_cellularity(s)
        ok &= rep.ok
    for n in range(0, 5):
        ok &= rank1_canonical_identity(alg_a1_4, (n,))
    _report(5, "straightening / cellularity suite", ok, time.monotonic() - start, 300)


def test_criterion_6_specialization_fixture():
    start = time.monotonic()
    pi = saturate(A1, [(2,), (1,)])
    flag = build_flag(pi)
    modules = {lam: CellModule(A1, lam) for lam in flag}
    ctx = FieldContext.cyclotomic_point(4)
    dims = {lam: specialize_module(modules[lam], ctx).dim_simple for lam in flag}
    ok = dims == {(0,): 1, (1,): 2, (2,): 2}
    dm = decomposition_matrix(_specs(modules, flag, ctx), flag, ctx)
    ok &= dm.entries.get(((0,), (0,)), 0) == 1
    ok &= dm.entries.get(((1,), (1,)), 0) == 1
    ok &= dm.entries.get(((2,), (2,)), 0) == 1
    ok &= dm.entries.get(((2,), (0,)), 0) == 1
    ok &= all(d == 0 for (lam, mu), d in dm.entries.items()
              if (lam, mu) not in {((0,), (0,)), ((1,), (1,)),
                                   ((2,), (2,)), ((2,), (0,))})
    _report(6, "specialization fixture (ell = 4)", ok, time.monotonic() - start, 10)


def test_criterion_7_generic_and_classical_semisimplicity(
        alg_a1_6, alg_a1_4, alg_a2, alg_b2):
    start = time.monotonic()
    ok = True
    for s in (alg_a1_6, alg_a1_4, alg_a2, alg_b2):
        for ctx in (FieldContext.generic(), FieldContext.rational_point(1)):
            specs = _specs(s.modules, s.flag, ctx)
            dm = decomposition_matrix(specs, s.flag, ctx)
            ok &= dm.is_identity()
            ok &= semisimplicity_report(specs, s.flag, ctx).semisimple
    _report(7, "generic and classical semisimplicity", ok,
            time.monotonic() - start, 120)


def test_criterion_8_radical_submodule(alg_a1_6, alg_a2):
    start = time.monotonic()
    ok = True
    cyc3 = FieldContext.cyclotomic_point(3)
    cyc4 = FieldContext.cyclotomic_point(4)
    for lam in alg_a1_6.pi:
        cm = alg_a1_6.modules[lam]
        ok &= radical_is_submodule(cm, cyc4)
        ok &= radical_is_submodule(cm, cyc3)
    ok &= radical_is_submodule(alg_a2.modules[(1, 1)], cyc3)
    # the ell = 3 radical of the A2 adjoint cell is genuinely nonzero
    spec = specialize_module(alg_a2.modules[(1, 1)], cyc3)
    ok &= spec.dim_simple < 8
    _report(8, "radical submodule property", ok, time.monotonic() - start, 120)


def test_criterion_9_hnf_module_equality(alg_a1_6, alg_a1_4, alg_a2, alg_b2):
    start = time.monotonic()
    ok = True
    for s in (alg_a1_6, alg_a1_4, alg_a2, alg_b2):
        for cm in s.modules.values():
            cm.ensure_integral()
            for mu in cm.weights:
                sp = cm.spaces[mu]
                hnf, transform = dense.hnf_certificate(sp)
                n = len(sp.words)
                # the certificate hnf = word_gram * transform
                ok &= (dense.laurent_view(sp.gram, n, n)
                       * dense.column_view(transform, n)).entries == \
                    dense.column_view(hnf, n).entries
                # the Gram matrix is symmetric: column j is row j
                for j in range(n):
                    dense.express_in_column_basis(hnf, sp.gram.get(j, {}))
                view = dense.column_view(hnf, n)
                ok &= dense.rank(dense.to_field(view, GEN)) == sp.rank == \
                    view.cols
    _report(9, "HNF module equality", ok, time.monotonic() - start, 120)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "datum": {"preset": "A2"},
        "pi": {"seeds": [[1, 1]]},
        "field": "cyclotomic=3",
        "caps": {"depth": 2, "samples": 4},
    }))
    outputs = []
    rcs = []
    for threads in ("1", "3"):
        rcs.append(cli_main(["verify", "--config", str(cfg),
                             "--threads", threads]))
        outputs.append(capsys.readouterr().out)
    ok = rcs == [0, 0] and outputs[0] == outputs[1] and len(outputs[0]) > 0
    with capsys.disabled():
        _report(10, "byte-identical reports across threads", ok,
                time.monotonic() - start, 120)
