"""Dense entrywise arithmetic on FieldMatrix and LaurentMatrix.

The engine works on sparse rows; these plain loops over dense entries are
the reference the tests compare it against.
"""

from qschur.linalg import FieldMatrix, LaurentMatrix
from qschur.scalars import LaurentPoly


def from_rows(ctx, rows):
    c = len(rows[0]) if rows else 0
    assert all(len(row) == c for row in rows)
    return FieldMatrix(ctx, len(rows), c, [list(row) for row in rows])


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
