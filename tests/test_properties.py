"""Property tests for the exact arithmetic core."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qschur.linalg import hnf_column_basis
from qschur.scalars import (
    FieldContext,
    LaurentPoly,
    RatFunc,
    laurent_divmod,
    laurent_gcd,
    specialize,
)

import dense

GEN = FieldContext.generic()

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-5, max_value=5)
laurents = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)
nonzero_laurents = laurents.filter(lambda p: not p.is_zero())


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert (a - a).is_zero()


def _add_by_copy(a, b):
    """The reference sum: copy a's terms, then add b's and drop zeros."""
    d = dict(a.coeffs)
    for e, c in b.coeffs.items():
        d[e] = d.get(e, 0) + c
    return LaurentPoly(d)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
mixed_laurents = st.dictionaries(exps, st.one_of(coeffs, fractions),
                                 max_size=5).map(LaurentPoly)


@given(st.one_of(laurents, mixed_laurents), st.one_of(laurents, mixed_laurents))
def test_add_and_sub_match_reference(a, b):
    assert a + b == _add_by_copy(a, b)
    assert a - b == _add_by_copy(a, -b)
    assert all(c for c in (a - b).coeffs.values())
    assert [type(c) for c in (a - b).coeffs.values()] == \
        [type(c) for c in _add_by_copy(a, -b).coeffs.values()]
    zero = LaurentPoly.zero()
    assert a + zero is a and a - zero is a
    assert zero + a == a and zero - a == -a
    if a:
        assert zero + a is a


@given(laurents, laurents)
def test_bar_is_a_ring_involution(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert a.bar().bar() == a


@given(laurents, nonzero_laurents)
def test_laurent_divmod_contract(a, b):
    q, r = laurent_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.span < b.span


@given(nonzero_laurents, nonzero_laurents, nonzero_laurents, nonzero_laurents)
def test_ratfunc_field_axioms(a, b, c, d):
    x = RatFunc(a, b)
    y = RatFunc(c, d)
    assert x * y == y * x
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x / y) * y == x
    assert x * x.inverse() == RatFunc.one()


@given(laurents, st.sampled_from([2, 3, 4, 5, 6, 12]))
def test_cyclotomic_specialization_respects_bar(p, ell):
    # v |-> zeta sends v^-1 to zeta^{ell-1}; bar followed by specialize is
    # specialization composed with the field automorphism zeta -> zeta^-1,
    # so zero images are preserved either way
    ctx = FieldContext.cyclotomic_point(ell)
    assert bool(specialize(p, ctx)) == bool(specialize(p.bar(), ctx))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(laurents, min_size=2, max_size=3),
                min_size=1, max_size=3).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_hnf_column_module_property(rows):
    g = dense.laurent_from_rows(rows)
    columns, transform = hnf_column_basis(dense.sparse(g.entries), g.rows,
                                          g.cols)
    basis = dense.column_view(columns, g.rows)
    assert (g * dense.column_view(transform, g.cols)).entries == basis.entries
    for j in range(g.cols):
        dense.express_in_column_basis(columns, dense.column(g, j))
    assert dense.rank(dense.to_field(basis, GEN)) == basis.cols == \
        dense.rank(dense.to_field(g, GEN))


# -- the Laurent fast path of RatFunc and integer division -------------------

def _components(x):
    return (x.num, x.den)


def _assert_canonical(x):
    one = LaurentPoly.one()
    assert x.den.min_exp == 0 and x.den.coeffs[x.den.max_exp] == 1
    assert x.num.is_zero() or laurent_gcd(x.num, x.den) == one
    # a denominator equal to 1 is the shared one, so is_laurent is exact
    assert x.is_laurent() == (x.den == one)


@given(laurents, laurents)
def test_ratfunc_laurent_fast_path_matches_constructor(a, b):
    x, y = RatFunc.from_laurent(a), RatFunc.from_laurent(b)
    general = (
        (x + y, RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)),
        (x - y, RatFunc(x.num * y.den - y.num * x.den, x.den * y.den)),
        (x * y, RatFunc(x.num * y.num, x.den * y.den)),
    )
    for fast, slow in general:
        assert _components(fast) == _components(slow)
        assert fast.is_laurent() and slow.is_laurent()


@given(laurents, nonzero_laurents, laurents)
def test_ratfunc_mixed_operands_reduce_to_canonical_form(a, d, b):
    x = RatFunc(a, d)
    for y in (RatFunc.from_laurent(b), RatFunc.from_laurent(b * d)):
        for z, expected in ((x + y, RatFunc(a + y.num * d, d)),
                            (y + x, RatFunc(a + y.num * d, d)),
                            (x - y, RatFunc(a - y.num * d, d)),
                            (x * y, RatFunc(a * y.num, d))):
            _assert_canonical(z)
            assert z == expected
        assert _components(y * x) == _components(x * y)


def _fraction_divmod(a, b):
    """Schoolbook division over Q on exponent dicts, reducing the top term
    of the remainder until its span from a's lowest exponent is below b's."""
    r = {e: Fraction(c) for e, c in a.coeffs.items()}
    q = {}
    top, lead = b.max_exp, Fraction(b.coeffs[b.max_exp])
    while r and max(r) - a.min_exp >= b.span:
        e = max(r)
        c, s = r[e] / lead, e - top
        q[s] = c
        for f, bc in b.coeffs.items():
            r[s + f] = r.get(s + f, 0) - c * bc
            if not r[s + f]:
                del r[s + f]
    return LaurentPoly(q), LaurentPoly(r)


@given(laurents, nonzero_laurents, st.sampled_from([None, 1, -1]))
def test_laurent_divmod_matches_fraction_division(a, b, lead):
    if lead is not None:
        b = LaurentPoly({**b.coeffs, b.max_exp: lead})
    q, r = laurent_divmod(a, b)
    assert (q, r) == _fraction_divmod(a, b)
    if b.coeffs[b.max_exp] in (1, -1):
        assert all(type(c) is int
                   for p in (q, r) for c in p.coeffs.values())


@given(laurents, nonzero_laurents)
def test_int_and_fraction_forms_agree(p, d):
    f = LaurentPoly({e: Fraction(c) for e, c in p.coeffs.items()})
    assert f == p and hash(f) == hash(p) and str(f) == str(p)
    for x, y in ((RatFunc.from_laurent(p), RatFunc.from_laurent(f)),
                 (RatFunc(p, d), RatFunc(f, d))):
        assert x == y and hash(x) == hash(y) and str(x) == str(y)
