"""Exact linear algebra on sparse rows {row: {col: nonzero}}.

Every matrix the engine passes around is sparse rows: no stored zero entry
and no empty row, so a zero row is an absent key and shapes travel as
explicit arguments.  One sparse product loop, sparse_product, behind every
matrix product; over a field, one sparse elimination loop,
forward_eliminate (rank, determinant, the exact span rank), and the
reduced echelon form read from it (solve, nullspace, inverse); one
elimination in machine integers at a point of Z/p, point_rank, which
certifies a full rank over Q(v); over Q[v,v^-1], one Bareiss row update
behind the fraction-free elimination loop, fraction_free_eliminate (the
generic basis greedy, Laurent determinants), and the fraction-free
Gauss-Jordan loop, laurent_adjugate (coordinates and Gram inverses), and
Hermite-style column reduction, used to extract bases of integral
lattices.  Pivoting is always "first nonzero in index order" -- the
arithmetic is exact, so determinism beats conditioning.  FieldMatrix and
LaurentMatrix are dense views, built only to export a block.
"""

from __future__ import annotations

from .errors import NoSolutionError
from .scalars import (
    FieldContext,
    FieldValue,
    LaurentPoly,
    RatFunc,
    _ONE,
    _ZERO,
    _quo,
    laurent_divmod,
    laurent_exact_div,
)


class FieldMatrix:
    """A dense view of a matrix whose entries are scalars of one context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: FieldContext, rows: int, cols: int,
                 entries: list):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.entries = entries  # list of lists of context scalars

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert self.cols == other.rows
        return FieldMatrix(self.ctx, self.rows, other.cols,
                           _product(self.entries, other.entries, other.cols,
                                    self.ctx.zero()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for r1, r2 in zip(self.entries, other.entries)
                for a, b in zip(r1, r2))


class LaurentMatrix:
    """A dense view of a matrix with LaurentPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list):
        self.rows = rows
        self.cols = cols
        self.entries = entries  # list of lists of LaurentPoly

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        assert self.cols == other.rows
        return LaurentMatrix(self.rows, other.cols,
                             _product(self.entries, other.entries, other.cols,
                                      LaurentPoly.zero()))


def _product(left_rows: list, right_rows: list, cols: int, zero) -> list:
    """Rows of the product of two dense views given by their rows (the
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


def to_field(m: dict, ctx: FieldContext) -> dict:
    """A sparse Laurent matrix at the point of ctx (fresh rows); entries
    that vanish there go, and so do rows left empty."""
    rows = ((i, {j: y for j, x in row.items() if (y := ctx.from_laurent(x))})
            for i, row in m.items())
    return {i: row for i, row in rows if row}


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


# The point v = POINT of Z/POINT_PRIME at which point_rank reads ranks.
POINT_PRIME = 2 ** 61 - 1
POINT = 12345
_POINT_INVERSE = pow(POINT, -1, POINT_PRIME)


def point_rank(rows) -> int | None:
    """The rank of sparse rows of LaurentPoly or RatFunc entries at v =
    POINT modulo POINT_PRIME, by forward elimination in machine integers,
    or None when a denominator vanishes there: a RatFunc denominator, or
    the denominator of a Fraction coefficient.  The input is not mutated.

    Reduction to the point is a ring map, so a nonzero minor at the point
    is a nonzero minor over Q(v): the point rank never exceeds the rank
    over Q(v), and equals it whenever it equals the number of rows.
    (By Schwartz's lemma a short point rank is rare, but it decides
    nothing: only a full one certifies.)
    """
    p = POINT_PRIME
    pivots: dict = {}
    for row in rows:
        vec = {}
        for k, x in row.items():
            if isinstance(x, RatFunc):
                y, den = _point_value(x.num), _point_value(x.den)
                if y is None or not den:
                    return None
                y = y * pow(den, -1, p) % p
            else:
                y = _point_value(x)
                if y is None:
                    return None
            if y:
                vec[k] = y
        while vec:
            col = min(vec)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(vec[col], -1, p)
                pivots[col] = {k: y * inv % p for k, y in vec.items()}
                break
            f = vec[col]
            for k, y in piv.items():
                z = (vec.get(k, 0) - f * y) % p
                if z:
                    vec[k] = z
                else:
                    del vec[k]
    return len(pivots)


def _point_value(x: LaurentPoly) -> int | None:
    """x at v = POINT modulo POINT_PRIME, or None when the denominator of
    a coefficient is divisible by POINT_PRIME."""
    p = POINT_PRIME
    acc = 0
    for e, c in x.coeffs.items():
        if type(c) is not int:
            if not c.denominator % p:
                return None
            c = c.numerator * pow(c.denominator, -1, p)
        acc += c * (pow(POINT, e, p) if e >= 0 else pow(_POINT_INVERSE, -e, p))
    return acc % p


def fraction_free_eliminate(rows) -> list:
    """Row-wise Bareiss elimination on sparse rows {column: nonzero
    LaurentPoly}, taken in order; the contract of forward_eliminate over
    Q[v,v^-1], without a quotient field and without mutating the input.

    Each row is reduced against the pivot rows P_j, pivot p_j at column
    c_j, in order by _bareiss_step, and pivots at its first nonzero column
    unless it vanishes.  By Sylvester's identity each entry is then a
    minor of the input, so every division is exact (laurent_exact_div
    raises otherwise), and the last pivot is the determinant up to the
    sign of the pivot-column permutation.  Returns (row index, reduced
    row) for the pivot rows: the indices greedily pick a maximal
    independent set of rows.
    """
    pivots: list = []
    out = []
    for index, row in enumerate(rows):
        prev = _ONE
        for col, piv, prow in pivots:
            row = _bareiss_step(row, col, piv, prow, prev)
            prev = piv
            if not row:
                break
        else:
            if row:
                col = min(row)
                row = dict(row)
                pivots.append((col, row[col], row))
                out.append((index, row))
    return out


def _bareiss_step(row: dict, col, piv: LaurentPoly, prow: dict,
                  prev: LaurentPoly) -> dict:
    """The Bareiss update (piv * row - row[col] * prow) / prev of a sparse
    Laurent row against the pivot row prow, pivot piv at col, prev the
    pivot before it (1 for the first); a fresh row, or row itself when
    the update is the identity (row[col] = 0 and piv = prev)."""
    f = row.get(col)
    if f is None and piv == prev:
        return row
    new = {k: piv * x for k, x in row.items()}
    if f is not None:
        add_scaled(new, -f, prow)
    if prev != _ONE:
        new = {k: laurent_exact_div(x, prev) for k, x in new.items()}
    return new


def laurent_adjugate(m: dict, n: int) -> tuple[dict, LaurentPoly]:
    """(A, d) with m^-1 = A / d for an invertible n x n sparse Laurent
    matrix: fraction-free Gauss-Jordan on [m | I], every row updated by
    _bareiss_step at each pivot, leaves d (the last pivot, the determinant
    up to sign) at each pivot column and d m^-1, an adjugate up to the
    same sign, on the right.  A is sparse rows in column order; raises
    NoSolutionError when m is singular."""
    rows = [{**m.get(i, {}), n + i: _ONE} for i in range(n)]
    prev = _ONE
    for k in range(n):
        prow = rows[k]
        col = min(prow)
        if col >= n:
            raise NoSolutionError("matrix not invertible")
        piv = prow[col]
        for i in range(n):
            if i != k:
                rows[i] = _bareiss_step(rows[i], col, piv, prow, prev)
        prev = piv
    adj = sorted(((min(row), {j - n: x for j, x in row.items() if j >= n})
                  for row in rows), key=lambda pr: pr[0])
    return dict(adj), prev


def adjugate_solve(adj: dict, det: LaurentPoly, rhs: dict) -> dict:
    """The sparse solution x = A rhs / d over Q(v) of m x = rhs, for (A, d)
    = laurent_adjugate(m, n) and a sparse Laurent column rhs, in index
    order: each entry the Laurent quotient when d divides A rhs there, a
    RatFunc otherwise, so each is the canonical value over Q(v)."""
    x = {}
    for i, row in adj.items():
        num = sum((a * rhs[j] for j, a in row.items() if j in rhs), _ZERO)
        if num:
            quo, rem = laurent_divmod(num, det)
            x[i] = RatFunc(num, det) if rem else RatFunc.from_laurent(quo)
    return x


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


def rank(m: dict) -> int:
    """Rank over the context field, by exact forward elimination."""
    return len(forward_eliminate(dict(row) for row in m.values()))


def solve(m: dict, b: dict, n: int, ctx: FieldContext) -> dict:
    """Some x with m x = b, for a sparse column b {row: nonzero} and n the
    columns of m; x is sparse, its free coordinates zero.  Raises
    NoSolutionError when b is outside the column space."""
    rows = ({**m.get(i, {}), n: b[i]} if i in b else dict(m[i])
            for i in m.keys() | b.keys())
    x = {}
    for col, row in reduced_echelon(rows, ctx.one()):
        if col == n:
            raise NoSolutionError("right-hand side outside the column space")
        if n in row:
            x[col] = row[n]
    return x


def nullspace(m: dict, n: int, ctx: FieldContext) -> list:
    """A deterministic basis of {x : m x = 0}, n the columns of m, as
    sparse vectors {coordinate: nonzero}.

    Reduced-echelon parametrization: one vector per free column, taken in
    index order, with a 1 in the free coordinate.
    """
    reduced = reduced_echelon((dict(row) for row in m.values()), ctx.one())
    pivots = {col for col, _ in reduced}
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        vec = {j: ctx.one()}
        for col, row in reduced:
            if j in row:
                vec[col] = -row[j]
        basis.append(vec)
    return basis


def determinant(m: dict, n: int, ctx: FieldContext) -> FieldValue:
    """Determinant of an n x n matrix: the sign of the pivot-column
    permutation times the product of pivots, as the reduced rows, sorted
    by pivot column, are triangular."""
    reduced = forward_eliminate(dict(m.get(i, {})) for i in range(n))
    if len(reduced) < n:
        return ctx.zero()
    det = ctx.one()
    cols = []
    for _, row in reduced:
        col = min(row)
        cols.append(col)
        det = det * row[col]
    return -det if _odd_permutation(cols) else det


def _odd_permutation(cols: list) -> bool:
    return sum(1 for i, a in enumerate(cols) for b in cols[i + 1:]
               if a > b) % 2 == 1


def invert(m: dict, n: int, ctx: FieldContext) -> dict:
    """The inverse of an n x n matrix, read from the reduced echelon form
    of [m | I]; raises NoSolutionError unless its pivots are exactly the
    columns of m."""
    one = ctx.one()
    rows = ({**m.get(i, {}), n + i: one} for i in range(n))
    reduced = reduced_echelon(rows, one)
    if [col for col, _ in reduced] != list(range(n)):
        raise NoSolutionError("matrix not invertible")
    return {col: {j - n: x for j, x in row.items() if j >= n}
            for col, row in reduced}


# -- Hermite column reduction over Q[v,v^-1] --------------------------------

def hnf_column_basis(g: dict, rows: int, cols: int) -> tuple[dict, dict]:
    """Column basis of the Q[v,v^-1]-module generated by the columns of
    the rows x cols sparse Laurent matrix g.

    Returns (basis, transform), each one sparse column per key (key j
    holds column j): the basis columns are Q[v,v^-1]-linearly independent,
    generate the same column module as g, and are in column echelon form
    with pivot rows strictly increasing; transform satisfies
    basis = g * transform exactly.  Pivot entries are unit-normalized
    (lowest exponent 0, leading coefficient 1) and entries to the left of
    each pivot are reduced modulo it, so the output is canonical.
    """
    one = LaurentPoly.one()
    columns = sparse_transpose(g)  # fresh dicts, updated in place below
    work = [(columns.get(j, {}), {j: one}) for j in range(cols)]
    basis_cols: list = []
    combo_cols: list = []
    for row in range(rows):
        live = [wc for wc in work if row in wc[0]]
        if not live:
            continue
        # the columns zero at this row stay; each one the elimination
        # zeroes here joins them, so no column is in work twice
        work = [wc for wc in work if row not in wc[0]]
        # Euclidean elimination at this row among the live columns
        while len(live) > 1:
            live.sort(key=lambda wc: wc[0][row].span)
            piv_col, piv_combo = live[0]
            piv = piv_col[row]
            rest = []
            for col, combo in live[1:]:
                q, _ = laurent_divmod(col[row], piv)
                if q:
                    add_scaled(col, -q, piv_col)
                    add_scaled(combo, -q, piv_combo)
                if row in col:
                    rest.append((col, combo))
                else:
                    work.append((col, combo))
            live = [(piv_col, piv_combo)] + rest
        col, combo = live[0]
        # unit-normalize the pivot entry
        _, unit = col[row].unit_normalize()
        inv = LaurentPoly({-unit.min_exp: _quo(1, unit.coeffs[unit.min_exp])})
        basis_cols.append((row, {k: c * inv for k, c in col.items()}))
        combo_cols.append({k: c * inv for k, c in combo.items()})
    # back-reduce: entries of earlier columns at later pivot rows
    for j in range(len(basis_cols)):
        col, combo = basis_cols[j][1], combo_cols[j]
        for k in range(j + 1, len(basis_cols)):
            prow, pcol = basis_cols[k]
            x = col.get(prow)
            if x is None:
                continue
            q, _ = laurent_divmod(x, pcol[prow])
            if q:
                add_scaled(col, -q, pcol)
                add_scaled(combo, -q, combo_cols[k])
    # no column is zero: each has its pivot; entries in index order
    return ({j: _in_order(col) for j, (_, col) in enumerate(basis_cols)},
            {j: _in_order(combo) for j, combo in enumerate(combo_cols)})


def _in_order(vec: dict) -> dict:
    return {k: vec[k] for k in sorted(vec)}


def laurent_determinant(m: dict, n: int) -> LaurentPoly:
    """Exact determinant of an n x n sparse Laurent matrix: the last
    fraction-free pivot times the sign of the pivot-column permutation."""
    if not n:
        return LaurentPoly.one()
    reduced = fraction_free_eliminate(m.get(i, {}) for i in range(n))
    if len(reduced) < n:
        return LaurentPoly.zero()
    cols = [min(row) for _, row in reduced]
    det = reduced[-1][1][cols[-1]]
    return -det if _odd_permutation(cols) else det
