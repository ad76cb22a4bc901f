"""Exact scalar layer: quantum numbers, canonical forms, specialization."""

import itertools
import random
from fractions import Fraction

import pytest

from qschur import scalars
from qschur.cellmod import CellModule
from qschur.errors import DenominatorVanishes, ExactDivisionError
from qschur.rootdata import build_root_datum
from qschur.scalars import (
    FieldContext,
    LaurentPoly,
    RatFunc,
    _coeff_str,
    _dense_divmod,
    _dense_mul,
    _over_binomial,
    _times_binomial,
    cyclotomic_polynomial,
    laurent_divmod,
    laurent_exact_div,
    laurent_gcd,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
    specialize,
)

import dense

L = LaurentPoly


def lp(d):
    return L(d)


# -- quantum integers --------------------------------------------------------

def test_quantum_integer_examples():
    assert quantum_integer(0, 1).is_zero()
    assert quantum_integer(3, 1) == lp({2: 1, 0: 1, -2: 1})
    assert quantum_integer(-2, 1) == lp({1: -1, -1: -1})
    assert quantum_integer(2, 1) == lp({1: 1, -1: 1})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quantum_integer_antisymmetry(d):
    for n in range(-20, 21):
        assert quantum_integer(-n, d) == -quantum_integer(n, d)


def test_quantum_integer_defining_quotient():
    # [n]*(v_d - v_d^-1) == v_d^n - v_d^-n
    for d in (1, 2, 3):
        for n in range(-8, 9):
            lhs = quantum_integer(n, d) * lp({d: 1, -d: -1})
            assert lhs == lp({d * n: 1, -d * n: -1} if n else {})


def test_quantum_factorial_examples():
    assert quantum_factorial(0, 1) == L.one()
    assert quantum_factorial(2, 1) == quantum_integer(2, 1)
    # [2]_2 * [3]_2 expanded
    assert quantum_factorial(3, 2) == lp({6: 1, 2: 2, -2: 2, -6: 1})
    with pytest.raises(ValueError):
        quantum_factorial(-1, 1)


def test_quantum_binomial_examples():
    assert quantum_binomial(7, 0, 2) == L.one()
    assert quantum_binomial(4, 2, 1) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert quantum_binomial(-1, 3, 1) == lp({0: -1})
    assert quantum_binomial(2, 1, 1) == quantum_integer(2, 1)
    # t > a >= 0 vanishes
    assert quantum_binomial(2, 3, 1).is_zero()


@pytest.mark.parametrize("d", [1, 2])
def test_quantum_binomial_factorial_identity(d):
    # [a; t] = [a]! / ([t]! [a-t]!) by exact division in Z[v,v^-1]
    for a in range(0, 11):
        for t in range(0, a + 1):
            expected = laurent_exact_div(
                quantum_factorial(a, d),
                quantum_factorial(t, d) * quantum_factorial(a - t, d))
            assert quantum_binomial(a, t, d) == expected


def _product_and_divide_binomials(a, d, tmax):
    """[a; t]_d for t = 0..tmax as the product of [a-s+1]_d over s = 1..t,
    long-divided by [t]!_d: the reference for quantum_binomial."""
    num = L.one()
    for t in range(tmax + 1):
        if t:
            num = num * quantum_integer(a - t + 1, d)
        yield laurent_exact_div(num, quantum_factorial(t, d)) if num else num


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quantum_binomial_matches_product_and_divide(d):
    # for 0 <= a <= 40 every t in 0..a is t or a - t for one of these t,
    # so [a; t] = [a; a-t] is checked against the reference on all of them
    for a in range(-12, 41):
        for t, expected in enumerate(_product_and_divide_binomials(a, d, 20)):
            assert quantum_binomial(a, t, d) == expected, (a, t, d)
            if t <= a:
                assert quantum_binomial(a, a - t, d) == expected, (a, t, d)


def test_quantum_binomial_runs_the_shorter_product(monkeypatch):
    calls = []

    def counted(c, d):
        calls.append(d)
        return _over_binomial(c, d)

    monkeypatch.setattr(scalars, "_over_binomial", counted)
    for a, t in [(0, 0), (1, 1), (7, 2), (7, 5), (30, 29), (40, 20), (200, 100)]:
        quantum_binomial.cache_clear()
        calls.clear()
        quantum_binomial(a, t)
        assert len(calls) == min(t, a - t), (a, t)


def test_quantum_binomial_bar_symmetry():
    for a in range(0, 11):
        for t in range(0, a + 1):
            b = quantum_binomial(a, t, 1)
            assert b.bar() == b
    b = quantum_binomial(200, 100)
    assert b.bar() == b and _int_coeffs(b)
    assert b.span == 2 * 100 * 100


def test_binomial_kernels():
    # c (w^d - 1) / (w^d - 1) == c; a remainder gives None, as long division says
    rng = random.Random(11)
    for _ in range(200):
        c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))]
        c[-1] = c[-1] or 1
        d = rng.randint(1, 14)
        prod = _times_binomial(c, d)
        assert prod == _dense_mul(c, [-1] + [0] * (d - 1) + [1])
        assert _over_binomial(prod, d) == c
        q, r = _dense_divmod(c, [-1] + [0] * (d - 1) + [1])
        assert _over_binomial(c, d) == (None if r else q)
    half = [Fraction(1, 2), 0, Fraction(-3, 2)]
    assert _over_binomial(_times_binomial(half, 2), 2) == half


def test_quantum_binomial_pascal():
    # [a; t] = v^{dt} [a-1; t] + v^{-d(a-t)} [a-1; t-1]
    for d in (1, 2):
        for a in range(1, 9):
            for t in range(0, a + 1):
                rhs = quantum_binomial(a - 1, t, d).shift(d * t)
                if t >= 1:
                    rhs = rhs + quantum_binomial(a - 1, t - 1, d).shift(-d * (a - t))
                assert quantum_binomial(a, t, d) == rhs


# -- Laurent / rational function canonical forms ----------------------------

def test_laurent_zero_pruning_and_equality():
    assert lp({3: 0, 1: 2}) == lp({1: 2})
    assert lp({0: Fraction(2)}) == lp({0: 2})
    assert hash(lp({0: Fraction(2)})) == hash(lp({0: 2}))
    assert not lp({})


def test_laurent_strings():
    assert str(lp({2: 1, 0: 1, -2: 1})) == "v^2 + 1 + v^-2"
    assert str(lp({1: -1, -1: -1})) == "-v - v^-1"
    assert str(lp({0: Fraction(3, 2)})) == "3/2"
    assert str(L.zero()) == "0"


def test_coeff_strings_of_int_and_fraction():
    assert [_coeff_str(c) for c in (0, 7, -7, 10 ** 30)] == \
        ["0", "7", "-7", str(10 ** 30)]
    assert [_coeff_str(c) for c in (Fraction(6, 3), Fraction(-3, 2),
                                    Fraction(5, 10))] == ["2", "-3/2", "1/2"]
    assert str(lp({1: 3, 0: Fraction(-4, 2), -1: Fraction(1, 3)})) == \
        "3*v - 2 + 1/3*v^-1"


@pytest.mark.parametrize("q", [2, Fraction(2)])
def test_laurent_evaluate_is_exact(q):
    value = L({-1: 1, 2: 3}).evaluate(q)
    assert type(value) is Fraction
    assert value == Fraction(25, 2)


def test_laurent_divmod_and_gcd():
    a = quantum_integer(2) * quantum_integer(3)
    q, r = laurent_divmod(a, quantum_integer(3))
    assert r.is_zero() and q == quantum_integer(2)
    g = laurent_gcd(lp({1: 1}), lp({2: 1}))
    assert g == L.one()  # v is a unit
    g2 = laurent_gcd(quantum_integer(2) ** 2, quantum_integer(2) * quantum_integer(3))
    # gcd = [2] up to unit normalization (lowest exp 0, top coeff 1)
    assert g2 == quantum_integer(2).unit_normalize()[0]
    with pytest.raises(ExactDivisionError):
        laurent_exact_div(quantum_integer(3), quantum_integer(2))


def _random_poly(rng, rational=False, span=4):
    p = L({rng.randint(-3, 3): rng.randint(-6, 6)
           for _ in range(rng.randint(1, span))})
    if rational and p:
        p = p.scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 5, 7])))
    return p


def _gcd_pairs(seed):
    """Seeded Laurent pairs for the gcd oracle: a shared random factor
    times cofactors, scaled by nontrivial contents and negative leads,
    integer and rational; single terms, zero and coprime pairs."""
    rng = random.Random(seed)
    pairs = []
    for k in range(240):
        rational = k % 4 == 3
        common = _random_poly(rng, rational)
        if k % 5 == 0:
            common = common * common
        a = common * _random_poly(rng, rational)
        b = common * _random_poly(rng, rational)
        content = rng.choice([1, 2, -3, 6, -12])
        pairs.append((a.scale(content), b.scale(rng.choice([1, -1, 4]))))
        pairs.append((_random_poly(rng), _random_poly(rng, rational)))
    for x in (L.var(-2, 3), L.var(1, Fraction(-1, 2)), L.one(), L.zero()):
        for y in (quantum_integer(3), L({2: Fraction(1, 3), 0: 1}),
                  L.var(4, -7), L.zero()):
            pairs += [(x, y), (y, x)]
    pairs.append((quantum_integer(4) * quantum_integer(6),
                  quantum_integer(6) * quantum_integer(9)))
    return pairs


def _typed(p):
    return sorted((e, c, type(c)) for e, c in p.coeffs.items())


def test_laurent_gcd_matches_euclid_reference():
    for a, b in _gcd_pairs(71):
        assert _typed(laurent_gcd(a, b)) == _typed(dense.laurent_gcd(a, b)), \
            (a, b)


def _double_loop(a, b):
    """The product of two Laurent polynomials term by term."""
    d = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return L(d)


@pytest.mark.parametrize("term", [
    L.one(), L.var(0, -1), L.var(-3, 2), L.var(2, Fraction(-2, 3)),
    L.var(-1, Fraction(1)), L.var(5, 7)], ids=str)
@pytest.mark.parametrize("side", ["left", "right"])
def test_single_term_product_matches_double_loop(term, side):
    others = [quantum_integer(3), L({-2: Fraction(1, 2), 1: -3, 4: 1}),
              L.var(-1, 4), L.var(0, Fraction(3, 4)), L.one(), L.zero()]
    for other in others:
        a, b = (term, other) if side == "left" else (other, term)
        assert _typed(a * b) == _typed(_double_loop(a, b)), (a, b)


def test_ratfunc_canonical():
    two = quantum_integer(2)
    r = RatFunc(two * two, two)
    assert r == RatFunc.from_laurent(two)
    assert r.is_laurent() and r.to_laurent() == two
    s = RatFunc(L.one(), two)
    assert s.den.min_exp == 0 and s.den.coeffs[s.den.max_exp] == 1
    assert (s * RatFunc.from_laurent(two)) == RatFunc.one()
    assert RatFunc(L.zero(), two) == RatFunc.zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(L.one(), L.zero())


def test_ratfunc_field_ops():
    a = RatFunc(quantum_integer(3), quantum_integer(2))
    b = RatFunc(L.one(), quantum_integer(5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == RatFunc.one()


# -- cyclotomic polynomials --------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == lp({1: 1, 0: -1})
    assert cyclotomic_polynomial(2) == lp({1: 1, 0: 1})
    assert cyclotomic_polynomial(3) == lp({2: 1, 1: 1, 0: 1})
    assert cyclotomic_polynomial(4) == lp({2: 1, 0: 1})
    assert cyclotomic_polynomial(6) == lp({2: 1, 1: -1, 0: 1})
    assert cyclotomic_polynomial(12) == lp({4: 1, 2: -1, 0: 1})
    # product over divisors recovers v^n - 1
    for n in range(1, 61):
        prod = L.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == lp({n: 1, 0: -1}), n


# -- specialization ----------------------------------------------------------

def test_specialize_examples():
    ctx1 = FieldContext.rational_point(1)
    for n in range(-6, 7):
        val = specialize(quantum_integer(n), ctx1)
        assert val == n  # [n] at v=1 is the ordinary integer
    ctx4 = FieldContext.cyclotomic_point(4)
    assert not specialize(quantum_integer(2), ctx4)
    assert specialize(quantum_integer(3), ctx4)
    gen = FieldContext.generic()
    x = RatFunc(quantum_integer(3), quantum_integer(2))
    assert specialize(x, gen) == x  # identity embedding


def test_specialize_denominator_vanishes():
    ctx4 = FieldContext.cyclotomic_point(4)
    bad = RatFunc(L.one(), quantum_integer(2))
    with pytest.raises(DenominatorVanishes):
        specialize(bad, ctx4)
    ctx_half = FieldContext.rational_point(Fraction(1, 2))
    # [2](1/2) = 5/2 != 0, fine there
    assert specialize(bad, ctx_half) == Fraction(2, 5)


def test_context_validation():
    with pytest.raises(ValueError):
        FieldContext.rational_point(0)
    with pytest.raises(ValueError):
        FieldContext.cyclotomic_point(1)


def test_context_equality_and_hash():
    pairs = [
        (FieldContext.generic(), FieldContext("generic")),
        (FieldContext.rational_point(Fraction(1, 2)),
         FieldContext.rational_point("1/2")),
        (FieldContext.cyclotomic_point(5), FieldContext("cyclotomic", ell=5)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b)
    kinds = [a for a, _ in pairs]
    for a, b in itertools.combinations(kinds, 2):
        assert a != b
    assert len(set(kinds + [b for _, b in pairs])) == 3
    assert FieldContext.rational_point(2) != FieldContext.rational_point(3)
    assert FieldContext.cyclotomic_point(5) != FieldContext.cyclotomic_point(6)
    assert FieldContext.generic() != "generic"


def _random_laurent(rng, max_terms=4, max_exp=5):
    return L({rng.randint(-max_exp, max_exp):
              Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(rng.randint(0, max_terms))})


@pytest.mark.parametrize("ctx", [
    FieldContext.generic(),
    FieldContext.rational_point(Fraction(3, 2)),
    FieldContext.rational_point(-2),
    FieldContext.cyclotomic_point(3),
    FieldContext.cyclotomic_point(4),
    FieldContext.cyclotomic_point(12),
], ids=lambda c: c.label())
def test_specialize_is_ring_homomorphism(ctx):
    rng = random.Random(20260808)
    for _ in range(100):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        assert specialize(a + b, ctx) == specialize(a, ctx) + specialize(b, ctx)
        assert specialize(a * b, ctx) == specialize(a, ctx) * specialize(b, ctx)


def test_cyclotomic_from_laurent_matches_reduction_per_coefficient():
    # reduction mod Phi_ell is linear: folding exponents mod ell first and
    # reducing once gives the residue of reducing each term on its own
    rng = random.Random(3)
    for ell in range(2, 13):
        ctx = FieldContext.cyclotomic_point(ell)
        mod = list(cyclotomic_polynomial(ell).to_dense()[1])
        for _ in range(20):
            p = _random_laurent(rng, max_terms=6, max_exp=3 * ell)
            acc = [0] * (len(mod) - 1)
            for e, c in p.coeffs.items():
                rem = _dense_divmod([0] * (e % ell) + [c], mod)[1]
                for j, x in enumerate(rem):
                    acc[j] += x
            while acc and not acc[-1]:
                acc.pop()
            assert ctx.from_laurent(p).coeffs == tuple(acc), (ell, p)


@pytest.mark.parametrize("ctx", [
    FieldContext.rational_point(Fraction(-7, 3)),
    FieldContext.cyclotomic_point(5),
    FieldContext.cyclotomic_point(12),
], ids=lambda c: c.label())
def test_field_inverse_closure(ctx):
    rng = random.Random(7)
    count = 0
    while count < 40:
        x = specialize(_random_laurent(rng), ctx)
        if not x:
            continue
        count += 1
        assert x * (ctx.one() / x) == ctx.one()


# -- integer coefficients ----------------------------------------------------
#
# Objects of Z[v,v^-1] keep int coefficients through the scalar layer: an
# integral quotient is an int, never Fraction(n, 1).

def _int_coeffs(p):
    return all(type(c) is int for c in p.coeffs.values())


def test_quantum_numbers_have_int_coefficients():
    for d in (1, 2, 3):
        for a in range(-6, 9):
            assert _int_coeffs(quantum_integer(a, d))
            for t in range(6):
                assert _int_coeffs(quantum_binomial(a, t, d)), (a, t, d)
        for n in range(6):
            assert _int_coeffs(quantum_factorial(n, d))


def test_cyclotomic_polynomials_have_int_coefficients():
    for ell in range(1, 31):
        assert _int_coeffs(cyclotomic_polynomial(ell)), ell


def test_gcd_of_quantum_integer_products_has_int_coefficients():
    rng = random.Random(5)
    for _ in range(40):
        a = L.one()
        b = L.one()
        for _ in range(3):
            a = a * quantum_integer(rng.randint(1, 7), rng.randint(1, 2))
            b = b * quantum_integer(rng.randint(1, 7), rng.randint(1, 2))
        g = laurent_gcd(a, b)
        assert _int_coeffs(g)
        assert _int_coeffs(laurent_exact_div(a, g))


def test_word_gram_entries_have_int_coefficients():
    for preset, lam in (("A2", (2, 2)), ("B2", (1, 1)), ("G2", (2, 0))):
        cm = CellModule(build_root_datum(preset), lam)
        for mu, sp in cm.spaces.items():
            for row in sp.gram.values():
                assert all(_int_coeffs(x) for x in row.values()), (preset, mu)
