"""Dense views and entrywise arithmetic: the tests' reference.

The engine passes every matrix around as sparse rows {row: {col: nonzero}}
and every vector as a sparse column {index: nonzero}.  These helpers build
dense FieldMatrix and LaurentMatrix views of them and back, do plain loops
over dense entries, and call the engine's linear algebra on a dense view,
so that tests can compare the engine against the dense reference.
"""

from qschur import linalg
from qschur.linalg import FieldMatrix, LaurentMatrix, dense_rows
from qschur.scalars import LaurentPoly


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
