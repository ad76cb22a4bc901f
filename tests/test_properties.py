"""Property tests for the exact arithmetic core."""

from hypothesis import given, settings, strategies as st

from qschur.linalg import LaurentMatrix, hnf_column_basis, express_in_column_basis, rank
from qschur.scalars import (
    FieldContext,
    LaurentPoly,
    RatFunc,
    laurent_divmod,
    specialize,
)

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
    g = LaurentMatrix.from_rows(rows)
    basis, transform = hnf_column_basis(g)
    assert (g * transform) == basis
    for j in range(g.cols):
        express_in_column_basis(basis, g.column(j))
    assert rank(basis.to_field(GEN)) == basis.cols == rank(g.to_field(GEN))
