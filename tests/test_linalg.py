"""Exact linear algebra: elimination over field contexts and Laurent HNF."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur import linalg
from qschur.errors import ExactDivisionError, NoSolutionError
from qschur.linalg import (
    POINT,
    POINT_PRIME,
    FieldMatrix,
    LaurentMatrix,
    adjugate_solve,
    forward_eliminate,
    fraction_free_eliminate,
    hnf_column_basis,
    laurent_adjugate,
    laurent_determinant,
    point_rank,
    sparse_product,
    to_field,
)
from qschur.scalars import FieldContext, LaurentPoly, RatFunc, quantum_integer

import dense
from dense import determinant, invert, nullspace, rank, solve

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
                assert not any(dense.apply(m, vec))


def test_determinant_and_invert():
    m = fm(GEN, [[1, 1], [0, quantum_integer(2)]])
    assert determinant(m) == GEN.from_laurent(quantum_integer(2))
    mi = invert(m)
    assert (m * mi) == dense.identity(GEN, 2)
    assert determinant(fm(GEN, [[1, 2], [2, 4]])).is_zero()
    with pytest.raises(NoSolutionError):
        invert(fm(GEN, [[1, 2], [2, 4]]))


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


def _shapes(seed):
    """_shaped_rows, then _shaped_rows with the first, the last or a random
    row made all zero, and sometimes one more: in sparse form each such
    row is an absent key."""
    zero_rng = random.Random(seed)

    def zero_rows(rng, r, c):
        rows = _shaped_rows(rng, r, c)
        for _ in range(zero_rng.randint(1, 2)):
            i = zero_rng.choice([0, r - 1, zero_rng.randrange(r)])
            rows[i] = [L.zero()] * c
        return rows

    return _shaped_rows, zero_rows


ORACLE_FIELDS = [
    GEN,
    FieldContext.rational_point(Fraction(2, 3)),
    FieldContext.cyclotomic_point(3),
    FieldContext.cyclotomic_point(4),
]


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_determinant_and_rank_oracle(ctx):
    rng = random.Random(31)
    for shaped in _shapes(1031):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = fm(ctx, shaped(rng, n, n))
            det = determinant(m)
            assert det == dense.leibniz(m.entries, ctx.zero(), ctx.one())
            assert (rank(m) == n) == bool(det)
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = fm(ctx, shaped(rng, r, c))
            assert rank(m) + len(nullspace(m)) == c


def _columns(m, stop):
    return FieldMatrix(m.ctx, m.rows, stop, [row[:stop] for row in m.entries])


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_solve_oracle(ctx):
    rng = random.Random(37)
    for shaped in _shapes(1037):
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = fm(ctx, shaped(rng, r, c))
            b = dense.apply(m, [ctx.from_laurent(_random_laurent(rng))
                                for _ in range(c)])
            assert dense.apply(m, solve(m, b)) == b
            # a unit right-hand side is consistent iff it adds no rank
            for i in range(r):
                e = [ctx.one() if k == i else ctx.zero() for k in range(r)]
                aug = FieldMatrix(ctx, r, c + 1,
                                  [row + [x] for row, x in zip(m.entries, e)])
                if rank(aug) == rank(m):
                    assert dense.apply(m, solve(m, e)) == e
                else:
                    with pytest.raises(NoSolutionError):
                        solve(m, e)


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_nullspace_oracle(ctx):
    rng = random.Random(41)
    for shaped in _shapes(1041):
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = fm(ctx, shaped(rng, r, c))
            # column j is free when it adds no rank to the columns before it
            free = [j for j in range(c)
                    if rank(_columns(m, j + 1)) == rank(_columns(m, j))]
            basis = nullspace(m)
            assert len(basis) == len(free) == c - rank(m)
            for j, vec in zip(free, basis):
                assert not any(dense.apply(m, vec))
                assert [vec[k] for k in free] == \
                    [ctx.one() if k == j else ctx.zero() for k in free]


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda c: c.label())
def test_invert_oracle(ctx):
    rng = random.Random(43)
    for shaped in _shapes(1043):
        for _ in range(30):
            n = rng.randint(1, 4)
            m = fm(ctx, shaped(rng, n, n))
            if dense.leibniz(m.entries, ctx.zero(), ctx.one()):
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
            sparse = sparse_product(dense.sparse(a), dense.sparse(b))
            assert sparse == dense.sparse(plain)
            assert all(row and all(row.values()) for row in sparse.values())
            vec = _mostly_zero_rows(rng, k, 1, z, nonzero)
            assert sparse_product(dense.sparse(a), dense.sparse(vec)) == \
                dense.sparse(_plain_product(a, vec, k, 1, z))


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


def _hnf(g):
    """hnf_column_basis of a dense Laurent view, as dense views."""
    basis, transform = hnf_column_basis(dense.sparse(g.entries), g.rows,
                                        g.cols)
    return (dense.column_view(basis, g.rows),
            dense.column_view(transform, g.cols))


def test_hnf_identity():
    g = dense.laurent_identity(3)
    identity = dense.sparse(g.entries)
    basis, transform = hnf_column_basis(identity, 3, 3)
    # column j of the identity is row j: both forms are the sparse identity
    assert basis == identity and transform == identity


def test_hnf_unit_gcd():
    # gcd(v, v^2) = v, a unit: basis is [[1]]
    g = dense.laurent_from_rows([[L.var(1), L.var(2)]])
    basis, transform = _hnf(g)
    assert basis.entries == [[L.one()]]
    assert (g * transform).entries == basis.entries


def test_hnf_nonunit_gcd():
    two = quantum_integer(2)
    g = dense.laurent_from_rows([[two, two * two]])
    basis, transform = _hnf(g)
    # gcd is [2], not a unit; normalized to lowest exponent 0, top coeff 1
    assert basis.entries == [[two.unit_normalize()[0]]]
    assert (g * transform).entries == basis.entries


def _random_laurent(rng):
    return L({rng.randint(-2, 2): rng.randint(-4, 4)
              for _ in range(rng.randint(0, 3))})


def test_hnf_module_equality_random():
    rng = random.Random(5)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        g = dense.laurent_from_rows(
            [[_random_laurent(rng) for _ in range(c)] for _ in range(r)])
        columns, _ = hnf_column_basis(dense.sparse(g.entries), r, c)
        basis, transform = _hnf(g)
        # transform certificate: basis = g * transform exactly
        assert (g * transform).entries == basis.entries
        # every input column lies in the module generated by the basis
        for j in range(c):
            coeffs = dense.express_in_column_basis(columns, dense.column(g, j))
            assert len(coeffs) == basis.cols
        # ranks agree over Q(v)
        assert rank(dense.to_field(g, GEN)) == \
            rank(dense.to_field(basis, GEN))
        # basis columns are independent over Q(v)
        assert rank(dense.to_field(basis, GEN)) == basis.cols


def test_express_outside_module():
    two = quantum_integer(2)
    basis = {0: {0: two.unit_normalize()[0]}}
    with pytest.raises(ExactDivisionError):
        dense.express_in_column_basis(basis, {0: L.one()})


def test_hnf_matches_dense_reference():
    # the sparse in-place updates take the dense reference's Euclidean
    # steps: equal columns, entries in the same order; the inputs have
    # zero rows and zero columns, and each has many columns live at once
    rng = random.Random(23)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        g = dense.sparse([[_random_laurent(rng) if rng.random() < 0.7
                           else L.zero() for _ in range(c)]
                          for _ in range(r)])
        basis, transform = hnf_column_basis(g, r, c)
        ref_basis, ref_transform = dense.hnf_column_basis(g, r, c)
        for out, ref in ((basis, ref_basis), (transform, ref_transform)):
            assert [(j, list(col.items())) for j, col in out.items()] == \
                [(j, list(col.items())) for j, col in ref.items()]


def test_hnf_determinism():
    rng = random.Random(17)
    g = dense.sparse(
        [[_random_laurent(rng) for _ in range(4)] for _ in range(3)])
    out1 = hnf_column_basis(g, 3, 4)
    out2 = hnf_column_basis(g, 3, 4)
    assert out1[0] == out2[0] and out1[1] == out2[1]


def test_laurent_determinant():
    two = quantum_integer(2)
    m = dense.sparse([[two, L.one()], [L.zero(), two]])
    assert laurent_determinant(m, 2) == two * two


# -- fraction-free elimination over Q[v,v^-1] ---------------------------------

def _random_entry(rng, rational):
    p = _random_laurent(rng)
    if rational and p and rng.random() < 0.5:
        p = p.scale(Fraction(rng.choice([-1, 1, 2]), rng.choice([2, 3, 5])))
    return p


def _random_sparse_rows(rng, r, c, rational):
    """Random sparse Laurent rows: some zero, some Laurent combinations of
    earlier rows, the rest random, so pivots are rarely monic."""
    rows = []
    for _ in range(r):
        kind = rng.randrange(5)
        if kind == 0:
            row = {}
        elif kind == 1 and rows:
            dense_row = [L.zero()] * c
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                f = _random_entry(rng, rational)
                for j, x in earlier.items():
                    dense_row[j] = dense_row[j] + f * x
            row = dense.sparse_vector(dense_row)
        else:
            row = dense.sparse_vector([_random_entry(rng, rational)
                                       for _ in range(c)])
        rows.append(row)
    return rows


@pytest.mark.parametrize("rational", [False, True],
                         ids=["integer", "rational"])
def test_fraction_free_picks_match_field_elimination(rational):
    rng = random.Random(59 + rational)
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 5)
        rows = _random_sparse_rows(rng, r, c, rational)
        before = [dict(row) for row in rows]
        picks = fraction_free_eliminate(rows)
        assert rows == before
        field = to_field(dict(enumerate(rows)), GEN)
        expected = forward_eliminate(field.get(i, {}) for i in range(r))
        assert [i for i, _ in picks] == [i for i, _ in expected]
        # the pivot columns are the rank profile, whatever the scaling
        assert [min(row) for _, row in picks] == \
            [min(row) for _, row in expected]


def test_fraction_free_generic_picks_differ_from_picks_at_a_point():
    # c2 = (0, v - 2) is independent of c1 over Q(v), but zero at v = 2
    rows = [{0: L.one()}, {1: L({1: 1, 0: -2})}, {1: L.one()}]
    assert [i for i, _ in fraction_free_eliminate(rows)] == [0, 1]
    at_two = to_field(dict(enumerate(rows)), FieldContext.rational_point(2))
    assert [i for i, _ in forward_eliminate(
        at_two.get(i, {}) for i in range(3))] == [0, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_laurent_determinant_matches_leibniz(n):
    rng = random.Random(61 + n)
    z, one = L.zero(), L.one()
    matrices = []
    for shaped in _shapes(1061 + n):
        matrices += [shaped(rng, n, n) for _ in range(12)]
    for rational in (False, True):
        for _ in range(12):
            rows = _random_sparse_rows(rng, n, n, rational)
            matrices.append(
                dense.laurent_view(dict(enumerate(rows)), n, n).entries)
    # scaled permutation matrices: the determinant is the sign of the
    # pivot-column permutation times the product of the entries
    for perm in itertools.islice(itertools.permutations(range(n)), 24):
        matrices.append([[L.var(i - 1, i + 2) if j == perm[i] else z
                          for j in range(n)] for i in range(n)])
    for rows in matrices:
        m = dense.sparse(rows)
        before = {i: dict(row) for i, row in m.items()}
        assert laurent_determinant(m, n) == dense.leibniz(rows, z, one)
        assert m == before


# -- fraction-free Gauss-Jordan: adjugate coordinates --------------------------

def _invertible_with_denominators(seed):
    """Invertible sparse Laurent matrices of sizes 1..4, shaped as in the
    determinant oracles or with Fraction coefficients; most of their
    inverses have entries that are not Laurent polynomials."""
    rng = random.Random(seed)
    out = []
    for shaped in _shapes(seed + 1000):
        for _ in range(60):
            n = rng.randint(1, 4)
            out.append((dense.sparse(shaped(rng, n, n)), n))
    for _ in range(60):
        n = rng.randint(1, 4)
        out.append((dict(enumerate(_random_sparse_rows(rng, n, n, True))), n))
    return [(m, n) for m, n in out if laurent_determinant(m, n)]


def test_adjugate_solve_matches_the_field_inverse():
    true_denominators = 0
    rng = random.Random(67)
    for m, n in _invertible_with_denominators(67):
        before = {i: dict(row) for i, row in m.items()}
        adj, det = laurent_adjugate(m, n)
        assert m == before
        inverse = linalg.invert(to_field(m, GEN), n, GEN)
        # m^-1 = A / d entry by entry, with the same sparsity
        assert {i: {j: RatFunc(a, det) for j, a in row.items()}
                for i, row in adj.items()} == inverse
        assert det in (laurent_determinant(m, n), -laurent_determinant(m, n))
        true_denominators += any(not x.is_laurent()
                                 for row in inverse.values()
                                 for x in row.values())
        for _ in range(3):
            rhs = dense.sparse_vector([_random_laurent(rng) for _ in range(n)])
            x = adjugate_solve(adj, det, rhs)
            expected = sparse_product(inverse, {
                j: {0: GEN.from_laurent(y)} for j, y in rhs.items()})
            assert x == {i: row[0] for i, row in expected.items()}
            assert list(x) == sorted(x)
            # a Laurent solution is a Laurent RatFunc, so lattice
            # coordinates are recognized as integral
            assert all(c.is_laurent() == (c.den == L.one())
                       for c in x.values())
    assert true_denominators >= 20


def test_adjugate_of_a_unit_and_of_a_singular_matrix():
    two = quantum_integer(2)
    adj, det = laurent_adjugate({0: {0: two}}, 1)
    assert (adj, det) == ({0: {0: L.one()}}, two)
    assert adjugate_solve(adj, det, {0: two * two}) == \
        {0: RatFunc.from_laurent(two)}
    assert adjugate_solve(adj, det, {0: L.one()}) == {0: RatFunc(L.one(), two)}
    assert laurent_adjugate({}, 0) == ({}, L.one())
    with pytest.raises(NoSolutionError):
        laurent_adjugate({0: {0: two, 1: L.one()}, 1: {0: two, 1: L.one()}},
                         2)


# -- rank at a point of Z/p -----------------------------------------------------

def _exact_rank(rows):
    """The rank over Q(v), by forward_eliminate."""
    return len(forward_eliminate(
        {j: x if isinstance(x, RatFunc) else GEN.from_laurent(x)
         for j, x in row.items()} for row in rows))


def test_point_rank_drops_where_the_point_is_a_root():
    v = L.var(1)
    # rows (1, v) and (1, POINT) are independent over Q(v), not at v = POINT
    rows = [{0: L.one(), 1: v}, {0: L.one(), 1: L.const(POINT)}]
    assert _exact_rank(rows) == 2
    assert point_rank(rows) == 1
    # so is a determinant v - POINT in Fraction coefficients
    rows = [{0: L({1: Fraction(1, 3), 0: -Fraction(POINT, 3)})}, {1: v}]
    assert (_exact_rank(rows), point_rank(rows)) == (2, 1)


def test_point_rank_refuses_vanishing_denominators():
    at_point = L({1: 1, 0: -POINT})  # v - POINT
    assert point_rank([{0: RatFunc(L.one(), at_point)}]) is None
    assert point_rank([{0: L.one()},
                       {1: L.one(), 2: RatFunc(L.var(1), at_point)}]) is None
    for den in (POINT_PRIME, 2 * POINT_PRIME):
        assert point_rank([{0: L({0: Fraction(1, den)})}]) is None
    # a denominator divisible by p in a numerator's coefficient too
    assert point_rank([{0: RatFunc(L({0: Fraction(1, POINT_PRIME)}),
                                   L.var(1, 1) + L.one())}]) is None
    # denominators that do not vanish there are fine
    assert point_rank([{0: RatFunc(L.one(), at_point + L.one())},
                       {0: L({0: Fraction(1, POINT_PRIME + 1)})}]) == 1


def test_point_rank_of_negative_exponents():
    v, vinv = L.var(1), L.var(-1)
    # (v^-1, 1) and (1, v) are proportional; (v^-2, v^-1 + 1) is not
    rows = [{0: vinv, 1: L.one()}, {0: L.one(), 1: v},
            {0: L.var(-2), 1: vinv + L.one()}]
    assert point_rank(rows) == _exact_rank(rows) == 2
    # v^-1 is the inverse of v modulo p
    rows = [{0: v * vinv, 1: vinv}, {0: L.one(), 1: L.var(-1, Fraction(1, 2))}]
    assert point_rank(rows) == _exact_rank(rows) == 2


def test_point_rank_does_not_mutate_and_counts_zero_rows():
    rows = [{}, {0: L.zero() + L.one()}, {}, {0: L.var(2)}]
    before = [dict(row) for row in rows]
    assert point_rank(rows) == _exact_rank(rows) == 1
    assert rows == before
    assert point_rank([]) == 0


def _counting(monkeypatch, name):
    """Count the calls of linalg.name, by the number of rows passed."""
    calls = []
    real = getattr(linalg, name)

    def counted(rows):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_rank_certified_at_the_point_skips_elimination(monkeypatch):
    calls = _counting(monkeypatch, "forward_eliminate")
    v = L.var(1)
    rows = {0: {0: GEN.one(), 1: GEN.from_laurent(v)},
            1: {1: RatFunc(L.one(), v + L.one())}}
    assert linalg.rank(rows) == 2
    assert linalg.rank({i: {j: x.num for j, x in row.items()}
                        for i, row in rows.items()}) == 2
    assert calls == []


def test_rank_is_exact_where_the_point_rank_is_short(monkeypatch):
    calls = _counting(monkeypatch, "forward_eliminate")
    v = L.var(1)
    # (1, v) and (1, POINT) are independent over Q(v), not at v = POINT
    rows = {0: {0: L.one(), 1: v}, 4: {0: L.one(), 1: L.const(POINT)}}
    assert point_rank(rows.values()) == 1
    assert linalg.rank(rows) == 2
    ratfunc = {i: {j: GEN.from_laurent(x) for j, x in row.items()}
               for i, row in rows.items()}
    assert linalg.rank(ratfunc) == 2
    # a row that is v times another: short at the point and over Q(v)
    ratfunc[5] = {0: GEN.from_laurent(v), 1: GEN.from_laurent(v * v)}
    assert linalg.rank(ratfunc) == 2
    assert calls == [2, 2, 3]
    # the Laurent rows were lifted to Q(v) in copies
    assert all(isinstance(x, LaurentPoly)
               for row in rows.values() for x in row.values())


def test_rank_is_exact_with_a_pole_at_the_point(monkeypatch):
    calls = _counting(monkeypatch, "forward_eliminate")
    pole = RatFunc(L.one(), L.var(1) - L.const(POINT))
    rows = {0: {0: pole}, 1: {0: GEN.one(), 1: pole}, 2: {1: GEN.one()}}
    assert point_rank(rows.values()) is None
    assert linalg.rank(rows) == 2
    assert linalg.rank({0: rows[0], 1: rows[1]}) == 2
    assert calls == [3, 2]


@pytest.mark.parametrize("ctx", ORACLE_FIELDS[1:], ids=lambda c: c.label())
def test_field_rows_never_reach_point_rank(monkeypatch, ctx):
    def refuse(rows):
        raise AssertionError("point_rank on %s rows" % ctx.label())

    monkeypatch.setattr(linalg, "point_rank", refuse)
    # row 1 is [2] times row 0, and row 2 is independent of row 0 unless
    # [2] vanishes at the point, as it does at cyclotomic=4
    two = quantum_integer(2)
    m = fm(ctx, [[two, 1], [two * two, two], [0, 1]])
    assert rank(m) == (2 if ctx.from_laurent(two) else 1)


_coeffs = st.one_of(st.integers(min_value=-9, max_value=9),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5))
_polys = st.dictionaries(st.integers(min_value=-3, max_value=3), _coeffs,
                         max_size=3).map(L)
_monic = st.dictionaries(st.integers(min_value=0, max_value=2),
                         st.integers(min_value=-9, max_value=9),
                         min_size=1, max_size=3).map(L).filter(bool)
_entries = st.one_of(_polys, st.builds(RatFunc, _polys, _monic))


@st.composite
def _rows(draw):
    """Up to 5 sparse rows over up to 5 columns, with rows that are
    Laurent combinations of earlier rows, so ranks fall short."""
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in rows:
                f = GEN.from_laurent(draw(_polys))
                for j, x in earlier.items():
                    y = row.get(j, GEN.zero()) + f * (
                        x if isinstance(x, RatFunc) else GEN.from_laurent(x))
                    row[j] = y
            row = {j: x for j, x in row.items() if x}
        else:
            row = {j: x for j in range(cols) if (x := draw(_entries))}
        rows.append(row)
    return rows


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_rows())
def test_point_rank_matches_forward_eliminate(rows):
    # The point is a root of none of these small entries' minors (a chance
    # of about deg/p each), so the ranks agree; a vanishing denominator is
    # refused, and a full point rank is the exact rank.
    got = point_rank(rows)
    exact = _exact_rank(rows)
    assert got is not None
    assert got == exact
