"""Exact linear algebra: elimination over field contexts and Laurent HNF."""

import itertools
import random
from fractions import Fraction

import pytest

from qschur.errors import ExactDivisionError, NoSolutionError
from qschur.linalg import (
    FieldMatrix,
    LaurentMatrix,
    determinant,
    express_in_column_basis,
    hnf_column_basis,
    invert,
    laurent_determinant,
    nullspace,
    rank,
    solve,
    sparse_product,
)
from qschur.scalars import FieldContext, LaurentPoly, quantum_integer

import dense

GEN = FieldContext.generic()
L = LaurentPoly


def fm(ctx, rows):
    return dense.from_rows(
        ctx, [[ctx.from_laurent(x) if isinstance(x, LaurentPoly)
               else ctx.from_fraction(x) for x in row] for row in rows])


def test_rank_examples():
    assert rank(dense.identity(GEN, 3)) == 3
    assert rank(dense.zero(GEN, 2, 5)) == 0
    ctx4 = FieldContext.cyclotomic_point(4)
    assert rank(fm(ctx4, [[quantum_integer(2)]])) == 0
    assert rank(fm(ctx4, [[quantum_integer(3)]])) == 1


def test_solve_examples():
    b = [GEN.from_fraction(3), GEN.from_fraction(-1)]
    assert solve(dense.identity(GEN, 2), b) == b
    two = quantum_integer(2)
    m = fm(GEN, [[two]])
    x = solve(m, [GEN.from_laurent(two * two)])
    assert x == [GEN.from_laurent(two)]
    with pytest.raises(NoSolutionError):
        solve(fm(GEN, [[0]]), [GEN.one()])


def test_nullspace_examples():
    assert nullspace(dense.identity(GEN, 4)) == []
    ns = nullspace(dense.zero(GEN, 3, 3))
    assert len(ns) == 3
    for i, vec in enumerate(ns):
        assert vec[i] == GEN.one()
    ctx4 = FieldContext.cyclotomic_point(4)
    ns = nullspace(fm(ctx4, [[quantum_integer(2)]]))
    assert len(ns) == 1 and ns[0][0] == ctx4.one()


def test_rank_nullity_and_kernel_property():
    rng = random.Random(11)
    for ctx in (GEN, FieldContext.rational_point(Fraction(2, 3)),
                FieldContext.cyclotomic_point(3)):
        for _ in range(12):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = fm(ctx, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
            ns = nullspace(m)
            assert rank(m) + len(ns) == c
            for vec in ns:
                assert not any(m.apply(vec))


def test_determinant_and_invert():
    m = fm(GEN, [[1, 1], [0, quantum_integer(2)]])
    assert determinant(m) == GEN.from_laurent(quantum_integer(2))
    mi = invert(m)
    assert (m * mi) == dense.identity(GEN, 2)
    assert determinant(fm(GEN, [[1, 2], [2, 4]])).is_zero()
    with pytest.raises(NoSolutionError):
        invert(fm(GEN, [[1, 2], [2, 4]]))


def _leibniz(ctx, m):
    """The determinant as the signed sum over all permutations."""
    total = ctx.zero()
    for perm in itertools.permutations(range(m.rows)):
        term = ctx.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        total = total - term if inversions % 2 else total + term
    return total


def _shaped_rows(rng, r, c):
    """Random Laurent rows, often made singular (a repeated row) or given
    zero leading entries that force elimination to reorder rows."""
    rows = [[_random_laurent(rng) for _ in range(c)] for _ in range(r)]
    shape = rng.randrange(4)
    if shape == 1 and r > 1:
        rows[rng.randrange(1, r)] = list(rows[0])
    elif shape == 2:
        for i in range(rng.randint(1, r)):
            for j in range(rng.randint(1, c)):
                rows[i][j] = L.zero()
    elif shape == 3:
        # a triangular matrix with nonzero diagonal, rows shuffled
        rows = [[L.zero()] * i + [L.var(rng.randint(-2, 2), rng.choice([-2, 1, 3]))]
                + row[i + 1:] for i, row in enumerate(rows)]
        rows = [row[:c] for row in rows]
        rng.shuffle(rows)
    return rows


ORACLE_FIELDS = [
    GEN,
    FieldContext.rational_point(Fraction(2, 3)),
    FieldContext.cyclotomic_point(3),
    FieldContext.cyclotomic_point(4),
]


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_determinant_and_rank_oracle(ctx):
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = fm(ctx, _shaped_rows(rng, n, n))
        det = determinant(m)
        assert det == _leibniz(ctx, m)
        assert (rank(m) == n) == bool(det)
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = fm(ctx, _shaped_rows(rng, r, c))
        assert rank(m) + len(nullspace(m)) == c


def _columns(m, stop):
    return FieldMatrix(m.ctx, m.rows, stop, [row[:stop] for row in m.entries])


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_solve_oracle(ctx):
    rng = random.Random(37)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = fm(ctx, _shaped_rows(rng, r, c))
        b = m.apply([ctx.from_laurent(_random_laurent(rng)) for _ in range(c)])
        assert m.apply(solve(m, b)) == b
        # a unit right-hand side is consistent iff it adds no rank
        for i in range(r):
            e = [ctx.one() if k == i else ctx.zero() for k in range(r)]
            aug = FieldMatrix(ctx, r, c + 1,
                              [row + [x] for row, x in zip(m.entries, e)])
            if rank(aug) == rank(m):
                assert m.apply(solve(m, e)) == e
            else:
                with pytest.raises(NoSolutionError):
                    solve(m, e)


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_nullspace_oracle(ctx):
    rng = random.Random(41)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = fm(ctx, _shaped_rows(rng, r, c))
        # column j is free when it adds no rank to the columns before it
        free = [j for j in range(c)
                if rank(_columns(m, j + 1)) == rank(_columns(m, j))]
        basis = nullspace(m)
        assert len(basis) == len(free) == c - rank(m)
        for j, vec in zip(free, basis):
            assert not any(m.apply(vec))
            assert [vec[k] for k in free] == \
                [ctx.one() if k == j else ctx.zero() for k in free]


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_invert_oracle(ctx):
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = fm(ctx, _shaped_rows(rng, n, n))
        if _leibniz(ctx, m):
            mi = invert(m)
            assert mi * m == dense.identity(ctx, n)
            assert m * mi == dense.identity(ctx, n)
        else:
            with pytest.raises(NoSolutionError):
                invert(m)


def _mostly_zero_rows(rng, r, c, zero, nonzero):
    """r x c rows with at most a fifth of the entries nonzero."""
    rows = [[zero] * c for _ in range(r)]
    for _ in range(r * c // 5):
        rows[rng.randrange(r)][rng.randrange(c)] = nonzero()
    return rows


def _plain_product(left, right, inner, cols, zero):
    """The textbook sum over k of left[i][k] * right[k][j]."""
    return [[sum((row[k] * right[k][j] for k in range(inner)), zero)
             for j in range(cols)] for row in left]


def _sparse(rows):
    """{row: {col: nonzero}} of dense rows, without empty rows."""
    return {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(rows) if any(row)}


PRODUCT_SHAPES = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)] + [
    (r, k, c) for r in (2, 5) for k in (3, 7) for c in (1, 6)]


@pytest.mark.parametrize("ctx", [
    GEN,
    FieldContext.rational_point(Fraction(2)),
    FieldContext.cyclotomic_point(3),
], ids=lambda c: c.label())
def test_field_product_oracle(ctx):
    rng = random.Random(47)
    denom = ctx.from_laurent(quantum_integer(2))  # nonzero at each point

    def nonzero():
        while True:
            x = ctx.from_laurent(_random_laurent(rng))
            x = x / denom if rng.random() < 0.5 else x
            if x:
                return x

    z = ctx.zero()
    for _ in range(5):
        for r, k, c in PRODUCT_SHAPES:
            a = _mostly_zero_rows(rng, r, k, z, nonzero)
            b = _mostly_zero_rows(rng, k, c, z, nonzero)
            prod = FieldMatrix(ctx, r, k, a) * FieldMatrix(ctx, k, c, b)
            assert (prod.rows, prod.cols) == (r, c)
            plain = _plain_product(a, b, k, c, z)
            assert prod.entries == plain
            sparse = sparse_product(_sparse(a), _sparse(b))
            assert sparse == _sparse(plain)
            assert all(row and all(row.values()) for row in sparse.values())
            vec = [row[0] for row in _mostly_zero_rows(rng, k, 1, z, nonzero)]
            assert FieldMatrix(ctx, r, k, a).apply(vec) == [
                row[0] for row in _plain_product(a, [[x] for x in vec], k, 1, z)]


def test_laurent_product_oracle():
    rng = random.Random(53)

    def nonzero():
        while True:
            p = _random_laurent(rng)
            if p:
                return p

    z = L.zero()
    for _ in range(5):
        for r, k, c in PRODUCT_SHAPES:
            a = _mostly_zero_rows(rng, r, k, z, nonzero)
            b = _mostly_zero_rows(rng, k, c, z, nonzero)
            prod = LaurentMatrix(r, k, a) * LaurentMatrix(k, c, b)
            assert (prod.rows, prod.cols) == (r, c)
            assert prod.entries == _plain_product(a, b, k, c, z)


def test_hnf_identity():
    g = dense.laurent_identity(3)
    basis, transform = hnf_column_basis(g)
    assert basis == g and transform == g


def test_hnf_unit_gcd():
    # gcd(v, v^2) = v, a unit: basis is [[1]]
    g = LaurentMatrix.from_rows([[L.var(1), L.var(2)]])
    basis, transform = hnf_column_basis(g)
    assert basis == LaurentMatrix.from_rows([[L.one()]])
    assert (g * transform) == basis


def test_hnf_nonunit_gcd():
    two = quantum_integer(2)
    g = LaurentMatrix.from_rows([[two, two * two]])
    basis, transform = hnf_column_basis(g)
    # gcd is [2], not a unit; normalized to lowest exponent 0, top coeff 1
    assert basis == LaurentMatrix.from_rows([[two.unit_normalize()[0]]])
    assert (g * transform) == basis


def _random_laurent(rng):
    return L({rng.randint(-2, 2): rng.randint(-4, 4)
              for _ in range(rng.randint(0, 3))})


def test_hnf_module_equality_random():
    rng = random.Random(5)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        g = LaurentMatrix.from_rows(
            [[_random_laurent(rng) for _ in range(c)] for _ in range(r)])
        basis, transform = hnf_column_basis(g)
        # transform certificate: basis = g * transform exactly
        assert (g * transform) == basis
        # every input column lies in the module generated by the basis
        for j in range(c):
            coeffs = express_in_column_basis(basis, g.column(j))
            assert len(coeffs) == basis.cols
        # ranks agree over Q(v)
        assert rank(g.to_field(GEN)) == rank(basis.to_field(GEN))
        # basis columns are independent over Q(v)
        assert rank(basis.to_field(GEN)) == basis.cols


def test_express_outside_module():
    two = quantum_integer(2)
    basis = LaurentMatrix.from_rows([[two.unit_normalize()[0]]])
    with pytest.raises(ExactDivisionError):
        express_in_column_basis(basis, [L.one()])


def test_hnf_determinism():
    rng = random.Random(17)
    g = LaurentMatrix.from_rows(
        [[_random_laurent(rng) for _ in range(4)] for _ in range(3)])
    out1 = hnf_column_basis(g)
    out2 = hnf_column_basis(g)
    assert out1[0] == out2[0] and out1[1] == out2[1]


def test_laurent_determinant():
    two = quantum_integer(2)
    m = LaurentMatrix.from_rows([[two, L.one()], [L.zero(), two]])
    assert laurent_determinant(m) == two * two
