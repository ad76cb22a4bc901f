"""Specialization: radicals, decomposition matrices, Gram determinants."""

import random
import sys
from fractions import Fraction

import pytest

from qschur import scalars, specialize
from qschur.cellmod import CellModule
from qschur.errors import InconsistentCharactersError
from qschur.linalg import laurent_determinant, nullspace, to_field
from qschur.rootdata import build_flag, build_root_datum, saturate
from qschur.scalars import (
    FieldContext,
    LaurentPoly,
    cyclotomic_polynomial,
    laurent_divmod,
    quantum_binomial,
)
from qschur.specialize import (
    SpecializedModule,
    _cyclotomic_scan,
    _normalize_det,
    _totient,
    decomposition_matrix,
    gram_determinant,
    radical_is_submodule,
    semisimplicity_report,
    specialize_module,
)

import dense

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")

GENERIC = FieldContext.generic()
Q1 = FieldContext.rational_point(1)
CYC3 = FieldContext.cyclotomic_point(3)
CYC4 = FieldContext.cyclotomic_point(4)


def modules_for(datum, seeds):
    pi = saturate(datum, seeds)
    flag = build_flag(pi)
    return {lam: CellModule(datum, lam) for lam in flag}, flag


def specs_at(modules, flag, ctx):
    """Every module of the flag specialized at ctx, once."""
    return {lam: specialize_module(modules[lam], ctx) for lam in flag}


def gram_det(basis):
    return laurent_determinant(basis.gram, len(basis.combos))


def test_specialize_module_fixture():
    cm = CellModule(A1, (2,))
    spec = specialize_module(cm, CYC4)
    # [2] |-> 0 at a primitive 4th root: weight ranks (1, 0, 1)
    assert spec.weight_ranks == {(2,): 1, (0,): 0, (-2,): 1}
    assert spec.dim_simple == 2
    assert spec.radical_dims() == {(2,): 0, (0,): 1, (-2,): 0}
    spec3 = specialize_module(cm, CYC3)
    assert spec3.weight_ranks == {(2,): 1, (0,): 1, (-2,): 1}
    assert spec3.dim_simple == 3
    gen = specialize_module(cm, GENERIC)
    assert gen.dim_simple == cm.dim


def _gl2():
    return build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[1, -1]])


# the saturated sets of the benchmark's jobs
BENCHMARK_SETS = [
    ("A1", [(16,)]), ("A1xA1", [(3, 3)]), ("A2", [(2, 1), (2, 2), (3, 1)]),
    ("A3", [(1, 0, 1)]), ("B2", [(1, 1)]), ("G2", [(0, 1), (2, 0)]),
    ("GL2", [(2, 0)]),
]


@pytest.mark.parametrize("name, seeds", BENCHMARK_SETS,
                         ids=[name for name, _ in BENCHMARK_SETS])
def test_radical_dims_are_nullspace_lengths(name, seeds):
    # oracle: the nullspace of each specialized integral Gram matrix
    datum = _gl2() if name == "GL2" else build_root_datum(name)
    modules, flag = modules_for(datum, seeds)
    points = [Q1] + [FieldContext.rational_point(q)
                     for q in (2, -1, Fraction(1, 3))]
    points += [FieldContext.cyclotomic_point(ell) for ell in range(2, 9)]
    nonzero = 0
    for lam in flag:
        cm = modules[lam]
        for ctx in points:
            dims = specialize_module(cm, ctx).radical_dims()
            for mu in cm.weights:
                gram = to_field(cm.basis(mu, integral=True).gram, ctx)
                assert dims[mu] == len(
                    nullspace(gram, cm.spaces[mu].rank, ctx)), (lam, mu, ctx)
                nonzero += dims[mu] > 0
    assert nonzero


def test_char_simple_leading_coefficient():
    for ctx in (CYC3, CYC4, Q1):
        for lam in [(1,), (2,), (4,)]:
            spec = specialize_module(CellModule(A1, lam), ctx)
            assert spec.char_simple()[lam] == 1


def test_gram_determinant_records():
    cm = CellModule(A1, (4,))
    for t in range(5):
        rec = gram_determinant(cm, (4 - 2 * t,))
        expected = quantum_binomial(4, t)
        assert rec.det == expected.shift(-expected.min_exp)
    # lambda-space determinant is 1
    rec = gram_determinant(cm, (4,))
    assert rec.det == LaurentPoly.one() and rec.factors == {}
    # weight 0 of Delta(2): [2] rescales to v^2 + 1 = Phi_4
    cm2 = CellModule(A1, (2,))
    rec2 = gram_determinant(cm2, (0,))
    assert rec2.det == LaurentPoly({2: 1, 0: 1})
    assert rec2.factors == {4: 1}
    assert rec2.cofactor == LaurentPoly.one()


def test_gram_determinant_integral_matches_word_basis_in_rank1():
    # single-word weight spaces: the A-basis is the word itself
    cm = CellModule(A1, (3,))
    for mu in cm.weights:
        assert gram_determinant(cm, mu).det == gram_determinant(
            cm, mu, integral=True).det


def test_decomposition_identity_generic_and_classical():
    modules, flag = modules_for(A1, [(2,), (1,)])
    for ctx in (GENERIC, Q1, FieldContext.rational_point(2),
                FieldContext.rational_point(3)):
        dm = decomposition_matrix(specs_at(modules, flag, ctx), flag, ctx)
        assert dm.is_identity(), ctx.label()


def test_decomposition_fixture_cyclotomic4():
    modules, flag = modules_for(A1, [(2,), (1,)])
    dm = decomposition_matrix(specs_at(modules, flag, CYC4), flag, CYC4)
    assert dm.entries[((2,), (2,))] == 1
    assert dm.entries[((2,), (0,))] == 1
    assert dm.entries.get(((2,), (1,)), 0) == 0
    assert dm.entries[((1,), (1,))] == 1
    assert dm.entries.get(((1,), (0,)), 0) == 0
    assert dm.entries[((0,), (0,))] == 1
    # dim L_q = (1, 2, 2) on pi = {0, 1, 2}
    dims = {lam: specialize_module(modules[lam], CYC4).dim_simple
            for lam in flag}
    assert dims == {(0,): 1, (1,): 2, (2,): 2}


def test_semisimplicity_reports():
    modules, flag = modules_for(A1, [(2,), (1,)])
    assert semisimplicity_report(specs_at(modules, flag, GENERIC), flag,
                                 GENERIC).semisimple
    assert semisimplicity_report(specs_at(modules, flag, Q1), flag,
                                 Q1).semisimple
    rep4 = semisimplicity_report(specs_at(modules, flag, CYC4), flag, CYC4)
    assert not rep4.semisimple
    assert ((2,), (0,)) in rep4.witnesses


@pytest.mark.parametrize("preset, seed", [
    ("A1", (4,)), ("A2", (2, 1)), ("B2", (1, 1))])
def test_semisimplicity_matches_integral_determinants(preset, seed):
    # the witnesses are exactly the weight spaces whose integral Gram
    # determinant f(v) vanishes at the point, in flag x weight order
    modules, flag = modules_for(build_root_datum(preset), [seed])
    dets = [(lam, mu, gram_det(modules[lam].basis(mu, True)))
            for lam in flag for mu in modules[lam].weights]
    points = [FieldContext.rational_point(1), FieldContext.rational_point(-1)]
    points += [FieldContext.cyclotomic_point(ell) for ell in range(2, 7)]
    for ctx in points:
        expected = tuple((lam, mu) for lam, mu, det in dets
                         if not ctx.from_laurent(det))
        rep = semisimplicity_report(specs_at(modules, flag, ctx), flag, ctx)
        assert rep.witnesses == expected
        assert rep.semisimple == (not expected)


def test_radical_submodule_property():
    # the premise of the greedy walk at a point: rad_q is a submodule
    for lam in [(2,), (3,), (4,)]:
        cm = CellModule(A1, lam)
        assert radical_is_submodule(cm, CYC4)
        assert radical_is_submodule(cm, CYC3)
    cm2 = CellModule(A2, (1, 1))
    assert radical_is_submodule(cm2, CYC3)
    # the greedy walk at these points crosses weights where L_q vanishes
    for name, lam, ell in [("G2", (0, 1), 3), ("G2", (0, 1), 6),
                           ("A2", (2, 1), 4), ("A1xA1", (3, 3), 3),
                           ("G2", (2, 0), 4)]:
        cm = CellModule(build_root_datum(name), lam)
        ctx = FieldContext.cyclotomic_point(ell)
        assert 0 in specialize_module(cm, ctx).weight_ranks.values()
        assert radical_is_submodule(cm, ctx), (name, lam, ell)


@pytest.mark.parametrize("ctx", [CYC4, FieldContext.rational_point(2)],
                         ids=["cyclotomic=4", "q=2"])
def test_specialize_module_builds_no_lattice(ctx):
    # the walk reads only the candidates' Gram entries: no integral basis
    # and no Gram matrix of all the words
    cm = CellModule(build_root_datum("B2"), (2, 1))
    specialize_module(cm, ctx)
    for mu in cm.weights:
        assert cm.spaces[mu].integral is None, mu
        assert cm.spaces[mu]._gram is None, mu


def test_radical_submodule_negative_control(monkeypatch):
    # a forged "radical" holding x0 is no submodule here: some F_i^(a) x0
    # lies outside rad_q at the point, so G X R != 0 must be reported
    for datum, lam, ctx in [(A1, (2,), CYC3), (A2, (1, 1), CYC4)]:
        cm = CellModule(datum, lam)
        assert radical_is_submodule(cm, ctx)
        # the weights are taken in order, the x0 space first
        assert cm.weights[0] == cm.lam
        calls = []

        def forged(m, n, ctx):
            calls.append(m)
            return [{0: ctx.one()}] if len(calls) == 1 else []

        monkeypatch.setattr(specialize, "nullspace", forged)
        assert not radical_is_submodule(cm, ctx)
        assert len(calls) == len(cm.weights)
        monkeypatch.undo()


def test_a2_adjoint_at_third_root():
    # the adjoint cell module at ell = 3 is genuinely non-semisimple:
    # the zero-weight line through the traceless-diagonal direction dies,
    # leaving the 7-dimensional simple (the char-3 classical story)
    modules, flag = modules_for(A2, [(1, 1)])
    rep = semisimplicity_report(specs_at(modules, flag, CYC3), flag, CYC3)
    assert not rep.semisimple
    spec = specialize_module(modules[(1, 1)], CYC3)
    assert spec.dim_simple == 7
    assert spec.weight_ranks[(0, 0)] == 1
    dm = decomposition_matrix(specs_at(modules, flag, CYC3), flag, CYC3)
    assert dm.entries[((1, 1), (1, 1))] == 1
    assert dm.entries[((1, 1), (0, 0))] == 1
    # integral Gram determinant at weight (0,0) is Phi_3 * Phi_6
    rec = gram_determinant(modules[(1, 1)], (0, 0), integral=True)
    assert rec.det == LaurentPoly({4: 1, 2: 1, 0: 1})
    assert rec.factors == {3: 1, 6: 1}
    assert rec.cofactor == LaurentPoly.one()


def test_decomposition_rows_dominance_support():
    modules, flag = modules_for(A1, [(4,), (3,)])
    dm = decomposition_matrix(specs_at(modules, flag, CYC4), flag, CYC4)
    for (lam, mu), d in dm.entries.items():
        assert d >= 0
        if d:
            assert A1.dominance_leq(mu, lam)
    for lam in flag:
        assert dm.entries[(lam, lam)] == 1


@pytest.mark.parametrize("char_delta, ranks", [
    # charL(2) overshoots at 0: the residual there is -1
    ({(2,): 1, (0,): 1, (-2,): 1}, {(2,): 1, (0,): 2, (-2,): 1}),
    # charDelta(2) at 4, outside pi: a residual no charL can take
    ({(4,): 1, (2,): 1, (0,): 1, (-2,): 1}, {(2,): 1, (0,): 1, (-2,): 1}),
], ids=["negative", "outside_pi"])
def test_inconsistent_characters_raise(char_delta, ranks):
    flag = build_flag(saturate(A1, [(2,)]))
    specs = {(2,): SpecializedModule((2,), CYC4, ranks, char_delta),
             (0,): SpecializedModule((0,), CYC4, {(0,): 1}, {(0,): 1})}
    for solve in (decomposition_matrix, dense.decomposition_matrix):
        with pytest.raises(InconsistentCharactersError):
            solve(specs, flag, CYC4)


def test_totient_bit_length_bound():
    # the bound that ends the cyclotomic scan: phi(n) >= n / bit_length(n)
    assert all(_totient(n) * n.bit_length() >= n for n in range(1, 10 ** 5 + 1))


def test_cyclotomic_scan_ends_early_with_the_same_answer():
    phi = cyclotomic_polynomial
    det = phi(3) * phi(3) * phi(7) * phi(30) * LaurentPoly({150: 1, 1: 1, 0: 3})
    factors, cofactor = _cyclotomic_scan(det, 10 ** 9)
    assert factors == {3: 2, 7: 1, 30: 1}
    assert (factors, cofactor) == _cyclotomic_scan(det, 50)


def _trial_division_scan(det, bound):
    """Phi_1 .. Phi_bound tried by long division: the reference for
    _cyclotomic_scan."""
    factors = {}
    rest = det
    for ell in range(1, bound + 1):
        b = ell.bit_length()
        if 1 << (b - 1) > rest.span * b:
            break
        if _totient(ell) > rest.span:
            continue
        phi = cyclotomic_polynomial(ell)
        while rest.span >= phi.span:
            q, r = laurent_divmod(rest, phi)
            if not r.is_zero():
                break
            factors[ell] = factors.get(ell, 0) + 1
            rest = q
    return factors, _normalize_det(rest)


def _generic_gram_determinants(name, seeds):
    datum = build_root_datum(name)
    for lam in build_flag(saturate(datum, seeds)):
        cm = CellModule(datum, lam)
        for mu in cm.weights:
            yield _normalize_det(gram_det(cm.basis(mu)))


def _cyclotomic_products(rng, count):
    cofactors = [LaurentPoly({0: 1}), LaurentPoly({5: 1, 1: -2, 0: 7}),
                 LaurentPoly({3: Fraction(2, 3), 0: 1})]
    for k in range(count):
        det = cofactors[k % len(cofactors)]
        for _ in range(rng.randint(1, 5)):
            det = det * cyclotomic_polynomial(rng.randint(1, 60)) ** rng.randint(1, 2)
        yield _normalize_det(det)


def test_cyclotomic_scan_matches_trial_division():
    dets = [det for name, seeds in [("A1", [(16,)]), ("A2", [(2, 2)]),
                                    ("B2", [(1, 1)]), ("G2", [(2, 0)])]
            for det in _generic_gram_determinants(name, seeds)]
    dets.extend(_cyclotomic_products(random.Random(60), 40))
    assert any(isinstance(c, Fraction) for det in dets for c in det.coeffs.values())
    for det in dets:
        for bound in (0, 1, 7, 50, 10 ** 9):
            assert _cyclotomic_scan(det, bound) == _trial_division_scan(det, bound), (det, bound)


def test_cyclotomic_scan_returns_a_fresh_factors_dict():
    det = _normalize_det(quantum_binomial(16, 8))
    factors, _ = _cyclotomic_scan(det, 50)
    expected = dict(factors)
    factors[99] = 1
    factors.clear()
    assert _cyclotomic_scan(det, 50)[0] == expected


def test_binomial_and_scan_make_no_long_division(monkeypatch):
    calls = []
    original = scalars.laurent_divmod

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qschur" and getattr(module, "laurent_divmod", None) is original:
            monkeypatch.setattr(module, "laurent_divmod", counted)
    for cached in (scalars.quantum_integer, scalars.quantum_factorial,
                   scalars.quantum_binomial, scalars._phi_binomials,
                   specialize._scan):
        cached.cache_clear()
    det = _normalize_det(quantum_binomial(16, 8))
    _cyclotomic_scan(det, 50)
    assert not calls
