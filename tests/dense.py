"""Dense views, entrywise arithmetic and plain algorithms: the tests'
reference.

The engine passes every matrix around as sparse rows {row: {col: nonzero}}
and every vector as a sparse column {index: nonzero}.  These helpers build
dense FieldMatrix and LaurentMatrix views of them and back, do plain loops
over dense entries, and call the engine's linear algebra on a dense view,
so that tests can compare the engine against the dense reference.  The
straightening reference tests every term of an image for liveness, with
no memo, where the engine decides zero once per image by its weight; the
decomposition reference searches each residual for a dominance-maximal
weight, where the engine walks the flag once; the divided-power reference
checks one weight at a time, where the engine checks all weights at once.
"""

import itertools

from qschur import linalg
from qschur.errors import ExactDivisionError, InconsistentCharactersError
from qschur.linalg import FieldMatrix, LaurentMatrix, add_scaled, dense_rows
from qschur.scalars import (
    LaurentPoly,
    _quo,
    laurent_divmod,
    laurent_exact_div,
    quantum_binomial,
)
from qschur.specialize import DecompositionMatrix
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
    and column j of hnf_basis its pairings with the words, the column
    sp.gram * transform[j] that the Hermite reduction guarantees."""
    index = {w: k for k, w in enumerate(sp.words)}
    transform = {j: {index[w]: x for w, x in combo}
                 for j, combo in enumerate(sp.integral.combos)}
    hnf = linalg.sparse_transpose(linalg.sparse_product(
        sp.gram, linalg.sparse_transpose(transform)))
    return {j: hnf.get(j, {}) for j in transform}, transform


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


# -- decomposition numbers ---------------------------------------------------

def decomposition_matrix(specs, flag, ctx):
    """Solve charDelta(lam) = sum_mu d[lam][mu] charL(mu) row by row,
    peeling off a dominance-maximal weight of the sorted residual support
    at each step: the reference for specialize.decomposition_matrix, with
    the same checks and InconsistentCharactersError."""
    datum = flag.datum
    order = tuple(flag)
    char_l = {lam: specs[lam].char_simple() for lam in order}
    for lam in order:
        if char_l[lam].get(lam, 0) != 1:
            raise InconsistentCharactersError("charL(%r) does not lead" % (lam,))
    entries = {}
    for lam in order:
        residual = dict(specs[lam].char_delta)
        entries[(lam, lam)] = 1
        for mu, m in char_l[lam].items():
            residual[mu] = residual.get(mu, 0) - m
        residual = {mu: m for mu, m in residual.items() if m}
        while residual:
            support = sorted(residual)
            nu = support[0]
            for cand in support[1:]:
                if datum.dominance_leq(nu, cand):
                    nu = cand
            d = residual[nu]
            if d < 0 or nu not in char_l or not datum.dominance_leq(nu, lam):
                raise InconsistentCharactersError(
                    "residual %r at %r in row %r" % (d, nu, lam))
            entries[(lam, nu)] = d
            for mu, m in char_l[nu].items():
                residual[mu] = residual.get(mu, 0) - d * m
            residual = {mu: m for mu, m in residual.items() if m}
    for lam in order:
        if sum(entries.get((lam, mu), 0) * specs[mu].dim_simple
               for mu in order) != specs[lam].dim_delta:
            raise InconsistentCharactersError("dimension identity fails")
    return DecompositionMatrix(ctx, order, entries)


# -- divided-power commutation, one weight at a time -------------------------

def divided_power_detail(s, depth):
    """The detail of relation.divided_power_commutation, checked one weight
    at a time: for each i, E^(a) 1_mu = 1_up E^(a) and F^(a) 1_mu =
    1_down F^(a) for a <= depth and each mu, then for a, b >= 1 and each mu
    E^(a) F^(b) 1_mu = sum_t [a - b + n; t]_i F^(b-t) E^(a-t) 1_mu and
    F^(b) E^(a) 1_mu = sum_t [b - a - n; t]_i E^(a-t) F^(b-t) 1_mu, with
    n = <alpha_i^vee, mu>.  Returns the first failing case's witness as
    the check writes it, or "" when every case holds."""
    datum, weights, d = s.datum, s.orbit_weights, s.datum.d

    def E(i, a):
        return s.gen(("E", i, a))

    def F(i, a):
        return s.gen(("F", i, a))

    def P(mu, i=None, a=0):
        if a:
            mu = tuple(m + a * x for m, x in zip(mu, datum.alpha[i]))
        return s.gen(("P", mu))

    def swapped(x, u, y, v, top, i, p):
        return s.combination(
            (c, s.gen((x, i, u - t)) * (s.gen((y, i, v - t)) * p))
            for t in range(min(u, v) + 1)
            if (c := quantum_binomial(top, t, d[i])))

    def cases():
        for i in range(datum.rank):
            for a in range(depth + 1):
                for mu in weights:
                    w = {"i": i, "a": a, "mu": mu}
                    yield (dict(w, identity="E^(a) 1 = 1_up E^(a)"),
                           E(i, a) * P(mu), P(mu, i, a) * E(i, a))
                    yield (dict(w, identity="F^(a) 1 = 1_down F^(a)"),
                           F(i, a) * P(mu), P(mu, i, -a) * F(i, a))
            for a in range(1, depth + 1):
                for b in range(1, depth + 1):
                    for mu in weights:
                        n, p = datum.pairing(i, mu), P(mu)
                        w = {"i": i, "a": a, "b": b, "mu": mu}
                        yield (dict(w, identity="E^(a) F^(b) 1"),
                               E(i, a) * (F(i, b) * p),
                               swapped("F", b, "E", a, a - b + n, i, p))
                        yield (dict(w, identity="F^(b) E^(a) 1"),
                               F(i, b) * (E(i, a) * p),
                               swapped("E", a, "F", b, b - a - n, i, p))

    for witness, lhs, rhs in cases():
        if lhs != rhs:
            return ", ".join("%s=%s" % kv for kv in witness.items())
    return ""
