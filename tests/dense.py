"""Dense views, entrywise arithmetic and plain algorithms: the tests'
reference.

The engine passes every matrix around as sparse rows {row: {col: nonzero}}
and every vector as a sparse column {index: nonzero}.  These helpers build
dense FieldMatrix and LaurentMatrix views of them and back, do plain loops
over dense entries, and call the engine's linear algebra on a dense view,
so that tests can compare the engine against the dense reference.  The
straightening reference tests every term of an image for liveness, with
no memo, where the engine decides zero once per image by its weight.
"""

import itertools

from qschur import linalg
from qschur.errors import ExactDivisionError
from qschur.linalg import FieldMatrix, LaurentMatrix, add_scaled, dense_rows
from qschur.scalars import (
    LaurentPoly,
    _quo,
    laurent_divmod,
    laurent_exact_div,
    quantum_binomial,
)
from qschur.straighten import concat_divided


# -- views -------------------------------------------------------------------

def from_rows(ctx, rows):
    c = len(rows[0]) if rows else 0
    assert all(len(row) == c for row in rows)
    return FieldMatrix(ctx, len(rows), c, [list(row) for row in rows])


def laurent_from_rows(rows):
    c = len(rows[0]) if rows else 0
    assert all(len(row) == c for row in rows)
    return LaurentMatrix(len(rows), c, [list(row) for row in rows])


def zero(ctx, rows, cols):
    z = ctx.zero()
    return FieldMatrix(ctx, rows, cols, [[z] * cols for _ in range(rows)])


def identity(ctx, n):
    m = zero(ctx, n, n)
    one = ctx.one()
    for i in range(n):
        m.entries[i][i] = one
    return m


def laurent_identity(n):
    return LaurentMatrix(n, n, [[LaurentPoly.one() if i == j
                                 else LaurentPoly.zero() for j in range(n)]
                                for i in range(n)])


def field_view(ctx, m, rows, cols):
    """The dense FieldMatrix of rows x cols sparse rows over ctx."""
    return FieldMatrix(ctx, rows, cols, dense_rows(m, rows, cols, ctx.zero()))


def laurent_view(m, rows, cols):
    """The dense LaurentMatrix of rows x cols sparse Laurent rows."""
    return LaurentMatrix(rows, cols,
                         dense_rows(m, rows, cols, LaurentPoly.zero()))


def column_view(columns, rows):
    """The dense LaurentMatrix whose column j is columns[j] (the form of
    hnf_column_basis), with the given number of rows."""
    return laurent_view(linalg.sparse_transpose(columns), rows, len(columns))


def hnf_certificate(sp):
    """(hnf_basis, transform) of the integral basis of a weight space, one
    sparse column per key as hnf_column_basis returns them, rebuilt from
    the basis: column j of transform holds the word coefficients of b_j,
    and column j of hnf_basis its pairings with the words."""
    basis = sp.integral
    index = {w: k for k, w in enumerate(sp.words)}
    transform = {j: {index[w]: x for w, x in combo}
                 for j, combo in enumerate(basis.combos)}
    hnf = {j: {} for j in range(len(basis.combos))}
    for k, w in enumerate(sp.words):
        for j, x in basis.columns[w].items():
            hnf[j][k] = x
    return hnf, transform


def to_field(m, ctx):
    """A dense Laurent view at the point of ctx."""
    return FieldMatrix(ctx, m.rows, m.cols,
                       [[ctx.from_laurent(x) for x in row]
                        for row in m.entries])


def sparse(rows):
    """The sparse form of dense rows: no zero entries, no empty rows."""
    return {i: r for i, row in enumerate(rows)
            if (r := {j: x for j, x in enumerate(row) if x})}


def sparse_vector(vec):
    return {k: x for k, x in enumerate(vec) if x}


def vector(vec, n, zero):
    """The dense list of a sparse vector of length n."""
    out = [zero] * n
    for k, x in vec.items():
        out[k] = x
    return out


def column(m, j):
    """Column j of a dense view as a sparse column."""
    return sparse_vector([row[j] for row in m.entries])


# -- the engine's linear algebra on dense views -------------------------------

def rank(m):
    return linalg.rank(sparse(m.entries))


def solve(m, b):
    x = linalg.solve(sparse(m.entries), sparse_vector(b), m.cols, m.ctx)
    return vector(x, m.cols, m.ctx.zero())


def nullspace(m):
    return [vector(vec, m.cols, m.ctx.zero())
            for vec in linalg.nullspace(sparse(m.entries), m.cols, m.ctx)]


def determinant(m):
    assert m.rows == m.cols
    return linalg.determinant(sparse(m.entries), m.rows, m.ctx)


def invert(m):
    assert m.rows == m.cols
    return field_view(m.ctx, linalg.invert(sparse(m.entries), m.rows, m.ctx),
                      m.rows, m.rows)


# -- entrywise arithmetic -----------------------------------------------------

def apply(m, vec):
    """The plain matrix-vector product of a dense view."""
    assert len(vec) == m.cols
    return [sum((x * y for x, y in zip(row, vec)), m.ctx.zero())
            for row in m.entries]


def _entrywise(fn, *ms):
    m = ms[0]
    assert all((x.rows, x.cols) == (m.rows, m.cols) for x in ms)
    return FieldMatrix(m.ctx, m.rows, m.cols,
                       [[fn(*xs) for xs in zip(*rows)]
                        for rows in zip(*(x.entries for x in ms))])


def add(a, b):
    return _entrywise(lambda x, y: x + y, a, b)


def sub(a, b):
    return _entrywise(lambda x, y: x - y, a, b)


def neg(a):
    return _entrywise(lambda x: -x, a)


def scale(a, c):
    return _entrywise(lambda x: x * c, a)


def is_zero(m):
    return not any(x for row in m.entries for x in row)


def hnf_column_basis(g, rows, cols):
    """Hermite column reduction on dense columns, every update a new list:
    the reference for linalg.hnf_column_basis, which takes the same
    Euclidean steps on sparse columns in place and must return the same
    columns, entries in index order."""
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    work = [(col, [one if k == j else zero for k in range(cols)])
            for j, col in enumerate(dense_rows(linalg.sparse_transpose(g),
                                               cols, rows, zero))]
    basis_cols, combo_cols = [], []
    for row in range(rows):
        live = [wc for wc in work if not wc[0][row].is_zero()]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda wc: wc[0][row].span)
            piv_col, piv_combo = live[0]
            rest = []
            for col, combo in live[1:]:
                q, _ = laurent_divmod(col[row], piv_col[row])
                col = [a - q * b for a, b in zip(col, piv_col)]
                combo = [a - q * b for a, b in zip(combo, piv_combo)]
                (work if col[row].is_zero() else rest).append((col, combo))
            live = [(piv_col, piv_combo)] + rest
        col, combo = live[0]
        work = [wc for wc in work if wc[0][row].is_zero()]
        _, unit = col[row].unit_normalize()
        inv = LaurentPoly({-unit.min_exp: _quo(1, unit.coeffs[unit.min_exp])})
        basis_cols.append((row, [c * inv for c in col]))
        combo_cols.append([c * inv for c in combo])
    for j in range(len(basis_cols)):
        for k in range(j + 1, len(basis_cols)):
            prow, pcol = basis_cols[k]
            q, _ = laurent_divmod(basis_cols[j][1][prow], pcol[prow])
            basis_cols[j] = (basis_cols[j][0], [
                a - q * b for a, b in zip(basis_cols[j][1], pcol)])
            combo_cols[j] = [a - q * b for a, b in
                             zip(combo_cols[j], combo_cols[k])]
    return (sparse([col for _, col in basis_cols]), sparse(combo_cols))


def express_in_column_basis(basis, y):
    """Coefficients of the sparse column y over an echelon column basis in
    hnf_column_basis form, by successive Euclidean division; raises
    ExactDivisionError if y is outside the module."""
    y = dict(y)
    coeffs = []
    for col in basis.values():
        r = min(col)
        c = laurent_exact_div(y.get(r, LaurentPoly.zero()), col[r])
        coeffs.append(c)
        if c:
            add_scaled(y, -c, col)
    if y:
        raise ExactDivisionError("column outside the generated module")
    return coeffs


def laurent_gcd(a, b):
    """Gcd in Q[v,v^-1] by Euclid over Q, normalized to lowest exponent 0
    and top coefficient 1: the reference for scalars.laurent_gcd."""
    while not b.is_zero():
        a, b = b, laurent_divmod(a, b)[1]
    if a.is_zero():
        return LaurentPoly.zero()
    return a.unit_normalize()[0]


def leibniz(rows, zero, one):
    """The determinant of dense square rows as the signed sum over all
    permutations: the reference for every determinant."""
    total = zero
    for perm in itertools.permutations(range(len(rows))):
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(1 for a, b in itertools.combinations(perm, 2)
                         if a > b)
        total = total - term if inversions % 2 else total + term
    return total


# -- straightening -----------------------------------------------------------

def is_alive(ctx, word):
    """True iff every prefix weight lambda - wt(prefix) stays in W pi_lambda:
    the liveness test of the word oracle and of the references below.

    Factor granularity suffices: W pi is string-convex, so a divided power
    cannot jump over a gap in the weight set.
    """
    cur = list(ctx.lam)
    if tuple(cur) not in ctx.weights:
        return False
    for i, a in word:
        for k in range(ctx.datum.n):
            cur[k] -= a * ctx.datum.alpha[i][k]
        if tuple(cur) not in ctx.weights:
            return False
    return True


def push_E_through(ctx, j, a, word):
    """E_j^{(a)} . (word x0) term by term, with no memo: commute the divided
    E past each F factor, keep each extended word only if is_alive holds,
    and drop the sums that cancel.  The reference for
    straighten.push_E_through."""
    if a == 0:
        return {word: LaurentPoly.one()}
    out = {}
    if word:
        (i, c), prefix = word[-1], word[:-1]
        if i != j:
            for w, coeff in push_E_through(ctx, j, a, prefix).items():
                _add_alive(ctx, out, w, i, c, coeff)
        else:
            pair = ctx.datum.pairing(j, ctx.weight_of(prefix))
            for t in range(min(a, c) + 1):
                qb = quantum_binomial(a - c + pair, t, ctx.datum.d[j])
                for w, coeff in push_E_through(ctx, j, a - t, prefix).items():
                    if c > t:
                        _add_alive(ctx, out, w, j, c - t, qb * coeff)
                    else:
                        out[w] = out.get(w, LaurentPoly.zero()) + qb * coeff
    return {w: p for w, p in out.items() if p}


def concat_divided_vector(ctx, i, a, vec):
    """F_i^{(a)} on a word vector, every extended word tested by is_alive:
    the reference for straighten.concat_divided_vector."""
    out = {}
    for word, coeff in vec.items():
        _add_alive(ctx, out, word, i, a, coeff)
    return {w: p for w, p in out.items() if p}


def _add_alive(ctx, out, word, i, a, coeff):
    w, c = concat_divided(ctx.datum, word, i, a)
    if is_alive(ctx, w):
        out[w] = out.get(w, LaurentPoly.zero()) + coeff * c
