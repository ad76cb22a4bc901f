"""Exact linear algebra on sparse rows {row: {col: nonzero}}.

One sparse product loop, sparse_product, behind every matrix product; over
a field, one sparse elimination loop, forward_eliminate (rank, determinant,
every greedy independence test), and the reduced echelon form read from it
(solve, nullspace, inverse); over Q[v,v^-1], Hermite-style column
reduction of LaurentMatrix, used to extract bases of integral lattices.
Pivoting is always "first nonzero in index order" -- the arithmetic is
exact, so determinism beats conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExactDivisionError, NoSolutionError
from .scalars import (
    FieldContext,
    FieldValue,
    LaurentPoly,
    _quo,
    laurent_divmod,
    laurent_exact_div,
)


@dataclass
class FieldMatrix:
    """A dense matrix whose entries are scalars of one context."""

    ctx: FieldContext
    rows: int
    cols: int
    entries: list  # list of lists of context scalars

    @staticmethod
    def from_rows(ctx: FieldContext, rows: list) -> "FieldMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        assert all(len(row) == c for row in rows)
        return FieldMatrix(ctx, r, c, [list(row) for row in rows])

    @staticmethod
    def zero(ctx: FieldContext, rows: int, cols: int) -> "FieldMatrix":
        z = ctx.zero()
        return FieldMatrix(ctx, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(ctx: FieldContext, n: int) -> "FieldMatrix":
        m = FieldMatrix.zero(ctx, n, n)
        one = ctx.one()
        for i in range(n):
            m.entries[i][i] = one
        return m

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.ctx, self.cols, self.rows,
                           [[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return FieldMatrix(self.ctx, self.rows, self.cols,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return FieldMatrix(self.ctx, self.rows, self.cols,
                           [[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(self.ctx, self.rows, self.cols,
                           [[-a for a in r] for r in self.entries])

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert self.cols == other.rows
        return FieldMatrix(self.ctx, self.rows, other.cols,
                           _product(self.entries, other.entries, other.cols,
                                    self.ctx.zero()))

    def scale(self, c: FieldValue) -> "FieldMatrix":
        return FieldMatrix(self.ctx, self.rows, self.cols,
                           [[a * c for a in r] for r in self.entries])

    def apply(self, vec: list) -> list:
        assert len(vec) == self.cols
        return [row[0] for row in _product(self.entries, [[x] for x in vec],
                                           1, self.ctx.zero())]

    def is_zero(self) -> bool:
        return not any(a for r in self.entries for a in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for r1, r2 in zip(self.entries, other.entries)
                for a, b in zip(r1, r2))


def _product(left_rows: list, right_rows: list, cols: int, zero) -> list:
    """Rows of the product of two dense matrices given by their rows (the
    right factor has cols columns), through sparse_product."""
    return dense_rows(sparse_product(sparse_form(left_rows),
                                     sparse_form(right_rows)),
                      len(left_rows), cols, zero)


def sparse_product(a: dict, b: dict) -> dict:
    """Product of two sparse matrices; a nonzero of a meets only the
    nonzeros of the matching row of b, and cancelled entries go."""
    out = {}
    for i, arow in a.items():
        row: dict = {}
        for k, x in arow.items():
            brow = b.get(k)
            if brow:
                add_scaled(row, x, brow)
        if row:
            out[i] = row
    return out


def sparse_transpose(a: dict) -> dict:
    out: dict = {}
    for i, row in a.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def sparse_form(entries: list) -> dict:
    """The sparse matrix of dense rows."""
    return {i: r for i, row in enumerate(entries)
            if (r := {j: x for j, x in enumerate(row) if x})}


def dense_rows(a: dict, rows: int, cols: int, zero) -> list:
    """The dense rows of a rows x cols sparse matrix."""
    out = [[zero] * cols for _ in range(rows)]
    for i, row in a.items():
        for j, x in row.items():
            out[i][j] = x
    return out


def forward_eliminate(rows) -> list:
    """Forward elimination on sparse rows {column: nonzero scalar}, taken
    in order and reduced in place at their first nonzero column until they
    vanish or pivot there.  Returns (row index, reduced row) for the pivot
    rows: the indices greedily pick a maximal independent set of rows."""
    pivots: dict = {}
    out = []
    for index, row in enumerate(rows):
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                out.append((index, row))
                break
            add_scaled(row, -(row[col] / piv[col]), piv)
    return out


def add_scaled(row: dict, f, other: dict) -> None:
    """row += f * other on sparse rows {column: nonzero scalar}, in place;
    cancelled entries go.  f is nonzero."""
    for k, x in other.items():
        y = row.get(k)
        if y is None:
            row[k] = f * x
        else:
            y = y + f * x
            if y:
                row[k] = y
            else:
                del row[k]


def reduced_echelon(rows, one) -> list:
    """The reduced echelon form of sparse rows, read from forward_eliminate:
    (pivot column, row) pairs in column order, each row 1 at its own pivot
    and 0 at every other pivot column.  Zero rows are dropped."""
    reduced = sorted(((min(row), row) for _, row in forward_eliminate(rows)),
                     key=lambda pr: pr[0])
    for i in reversed(range(len(reduced))):
        col, row = reduced[i]
        for later, below in reduced[i + 1:]:
            f = row.get(later)
            if f:
                add_scaled(row, -f, below)
        inv = one / row[col]
        for k in row:
            row[k] = row[k] * inv
    return reduced


def _sparse_rows(m: FieldMatrix):
    return ({j: x for j, x in enumerate(row) if x} for row in m.entries)


def rank(m: FieldMatrix) -> int:
    """Rank over the context field, by exact forward elimination."""
    return len(forward_eliminate(_sparse_rows(m)))


def solve(m: FieldMatrix, b: list) -> list:
    """Some x with m x = b (free coordinates set to zero).

    Raises NoSolutionError when b is outside the column space; the Gram
    matrices used by callers are invertible, making the solution unique
    there.
    """
    assert len(b) == m.rows
    n = m.cols
    rows = ({**row, n: bv} if bv else row
            for row, bv in zip(_sparse_rows(m), b))
    zero = m.ctx.zero()
    x = [zero] * n
    for col, row in reduced_echelon(rows, m.ctx.one()):
        if col == n:
            raise NoSolutionError("right-hand side outside the column space")
        x[col] = row.get(n, zero)
    return x


def nullspace(m: FieldMatrix) -> list:
    """A deterministic basis of {x : m x = 0}.

    Reduced-echelon parametrization: one vector per free column, taken in
    index order, with a 1 in the free coordinate.
    """
    one = m.ctx.one()
    zero = m.ctx.zero()
    reduced = reduced_echelon(_sparse_rows(m), one)
    pivots = {col for col, _ in reduced}
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = [zero] * m.cols
        vec[j] = one
        for col, row in reduced:
            if j in row:
                vec[col] = -row[j]
        basis.append(vec)
    return basis


def determinant(m: FieldMatrix) -> FieldValue:
    """Sign of the pivot-column permutation times the product of pivots:
    the reduced rows, sorted by pivot column, are triangular."""
    assert m.rows == m.cols
    reduced = forward_eliminate(_sparse_rows(m))
    if len(reduced) < m.rows:
        return m.ctx.zero()
    det = m.ctx.one()
    cols = []
    for _, row in reduced:
        col = min(row)
        cols.append(col)
        det = det * row[col]
    inversions = sum(1 for i, a in enumerate(cols) for b in cols[i + 1:]
                     if a > b)
    return -det if inversions % 2 else det


def invert(m: FieldMatrix) -> FieldMatrix:
    """The inverse, from the reduced echelon form of [m | I]; raises
    NoSolutionError unless its pivots are exactly the columns of m."""
    assert m.rows == m.cols
    n = m.rows
    one = m.ctx.one()
    zero = m.ctx.zero()
    rows = ({**row, n + i: one} for i, row in enumerate(_sparse_rows(m)))
    reduced = reduced_echelon(rows, one)
    if [col for col, _ in reduced] != list(range(n)):
        raise NoSolutionError("matrix not invertible")
    return FieldMatrix(m.ctx, n, n, [[row.get(n + j, zero) for j in range(n)]
                                     for _, row in reduced])


# -- Laurent matrices and Hermite column reduction ---------------------------

@dataclass
class LaurentMatrix:
    """A dense matrix with LaurentPoly entries (coefficients in Q)."""

    rows: int
    cols: int
    entries: list  # list of lists of LaurentPoly

    @staticmethod
    def from_rows(rows: list) -> "LaurentMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return LaurentMatrix(r, c, [list(row) for row in rows])

    @staticmethod
    def zero(rows: int, cols: int) -> "LaurentMatrix":
        z = LaurentPoly.zero()
        return LaurentMatrix(rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        m = LaurentMatrix.zero(n, n)
        for i in range(n):
            m.entries[i][i] = LaurentPoly.one()
        return m

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(self.cols, self.rows,
                             [[self.entries[i][j] for i in range(self.rows)]
                              for j in range(self.cols)])

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        assert self.cols == other.rows
        return LaurentMatrix(self.rows, other.cols,
                             _product(self.entries, other.entries, other.cols,
                                      LaurentPoly.zero()))

    def to_field(self, ctx: FieldContext) -> FieldMatrix:
        return FieldMatrix(ctx, self.rows, self.cols,
                           [[ctx.from_laurent(p) for p in row]
                            for row in self.entries])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for r1, r2 in zip(self.entries, other.entries)
                for a, b in zip(r1, r2))


def hnf_column_basis(g: LaurentMatrix) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Column basis of the Q[v,v^-1]-module generated by the columns of g.

    Returns (basis, transform): the basis columns are Q[v,v^-1]-linearly
    independent, generate the same column module as g, and are in column
    echelon form with pivot rows strictly increasing; transform satisfies
    basis = g * transform exactly.  Pivot entries are unit-normalized
    (lowest exponent 0, leading coefficient 1) and entries to the left of
    each pivot are reduced modulo it, so the output is canonical.
    """
    ncols = g.cols
    work = [(g.column(j), _unit_column(ncols, j)) for j in range(ncols)]
    basis_cols: list = []
    combo_cols: list = []
    for row in range(g.rows):
        live = [wc for wc in work if not wc[0][row].is_zero()]
        if not live:
            continue
        # Euclidean elimination at this row among the live columns
        while len(live) > 1:
            live.sort(key=lambda wc: wc[0][row].span)
            piv_col, piv_combo = live[0]
            piv = piv_col[row]
            rest = []
            for col, combo in live[1:]:
                q, _ = laurent_divmod(col[row], piv)
                col = [a - q * b for a, b in zip(col, piv_col)]
                combo = [a - q * b for a, b in zip(combo, piv_combo)]
                if not col[row].is_zero():
                    rest.append((col, combo))
                else:
                    work.append((col, combo))
            live = [(piv_col, piv_combo)] + rest
        (col, combo) = live[0]
        work = [wc for wc in work if wc[0][row].is_zero()]
        # unit-normalize the pivot entry
        _, unit = col[row].unit_normalize()
        inv = LaurentPoly({-unit.min_exp: _quo(1, unit.coeffs[unit.min_exp])})
        col = [c * inv for c in col]
        combo = [c * inv for c in combo]
        basis_cols.append((row, col))
        combo_cols.append(combo)
    # back-reduce: entries of earlier columns at later pivot rows
    for j in range(len(basis_cols)):
        for k in range(j + 1, len(basis_cols)):
            prow, pcol = basis_cols[k]
            q, _ = laurent_divmod(basis_cols[j][1][prow], pcol[prow])
            if q.is_zero():
                continue
            basis_cols[j] = (basis_cols[j][0],
                             [a - q * b for a, b in zip(basis_cols[j][1], pcol)])
            combo_cols[j] = [a - q * b for a, b in
                             zip(combo_cols[j], combo_cols[k])]
    basis = LaurentMatrix(g.rows, len(basis_cols),
                          [[basis_cols[j][1][i] for j in range(len(basis_cols))]
                           for i in range(g.rows)])
    transform = LaurentMatrix(ncols, len(combo_cols),
                              [[combo_cols[j][i] for j in range(len(combo_cols))]
                               for i in range(ncols)])
    return basis, transform


def _unit_column(n: int, j: int) -> list:
    col = [LaurentPoly.zero()] * n
    col[j] = LaurentPoly.one()
    return col


def express_in_column_basis(basis: LaurentMatrix, y: list) -> list:
    """Coefficients of column y over an echelon column basis, by successive
    Euclidean division; raises ExactDivisionError if y is outside the module.
    """
    y = list(y)
    coeffs = []
    pivot_rows = []
    for j in range(basis.cols):
        for i in range(basis.rows):
            if not basis.entries[i][j].is_zero():
                pivot_rows.append(i)
                break
        else:
            raise ValueError("zero basis column")
    for j in range(basis.cols):
        r = pivot_rows[j]
        c = laurent_exact_div(y[r], basis.entries[r][j])
        coeffs.append(c)
        if not c.is_zero():
            y = [a - c * b for a, b in zip(y, basis.column(j))]
    if any(not a.is_zero() for a in y):
        raise ExactDivisionError("column outside the generated module")
    return coeffs


def laurent_determinant(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant of a square Laurent matrix (via Q(v) elimination)."""
    return determinant(m.to_field(FieldContext.generic())).to_laurent()
