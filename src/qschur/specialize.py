"""Specialization at v = q in characteristic-zero fields.

The integral-basis Gram matrices specialize exactly; their ranks give the
weight multiplicities of the simple head L_q(lambda), and each weight's
multiplicity in Delta(lambda) less that rank is the dimension of the
radical there.  Decomposition numbers come from the unitriangular
character solve.  Semisimplicity is read from the same ranks: a radical is
nonzero exactly where its integral Gram determinant (the paper's f(v)
certificate) vanishes, as specialization is a ring homomorphism and so
commutes with the determinant.
"""

from __future__ import annotations

from functools import lru_cache

from .cellmod import CellModule
from .errors import InconsistentCharactersError
from .linalg import (laurent_determinant, nullspace, rank, sparse_product,
                     sparse_transpose, to_field)
from .rootdata import CosaturatedFlag, Weight
from .scalars import (
    FieldContext,
    LaurentPoly,
    _over_binomial,
    _phi_binomials,
    _times_binomial,
    prime_factors,
)


class SpecializedModule:
    """Delta_q(lambda) at a specialization point, by the ranks of its
    specialized integral Grams.

    weight_ranks[mu] is the mu-multiplicity of L_q(lambda), the rank of
    the specialized integral Gram at mu.  charDelta is unchanged by
    specialization.
    """

    __slots__ = ("lam", "ctx", "weight_ranks", "char_delta")

    def __init__(self, lam: Weight, ctx: FieldContext, weight_ranks: dict,
                 char_delta: dict):
        self.lam = lam
        self.ctx = ctx
        self.weight_ranks = weight_ranks
        self.char_delta = char_delta

    @property
    def dim_delta(self) -> int:
        return sum(self.char_delta.values())

    @property
    def dim_simple(self) -> int:
        return sum(self.weight_ranks.values())

    def radical_dims(self) -> dict:
        """The dimension of the radical's mu-component, for every mu."""
        return {mu: m - self.weight_ranks[mu]
                for mu, m in self.char_delta.items()}

    def char_simple(self) -> dict:
        return {mu: r for mu, r in self.weight_ranks.items() if r}


def specialize_module(cm: CellModule, ctx: FieldContext) -> SpecializedModule:
    """Specialize the integral Gram of every weight space of Delta(lambda).

    Ranks assemble the character of L_q(lambda); this is valid because the
    contravariant form pairs only equal weights, so the radical is
    weight-graded.  Integral entries cannot hit a vanishing denominator.
    """
    weight_ranks = {mu: rank(to_field(cm.basis(mu, integral=True).gram, ctx))
                    for mu in cm.weights}
    return SpecializedModule(cm.lam, ctx, weight_ranks, cm.character())


class GramDeterminantRecord:
    """Unit-normalized Gram determinant with its cyclotomic factorization.

    det has lowest exponent 0 and positive leading coefficient; factors
    maps ell to the multiplicity of Phi_ell, for ell up to the scan bound
    (found by exact division through the binomials v^D - 1 whose quotient
    Phi_ell is); cofactor is the unfactored residual.
    """

    __slots__ = ("lam", "mu", "det", "factors", "cofactor")

    def __init__(self, lam: Weight, mu: Weight, det: LaurentPoly,
                 factors: dict, cofactor: LaurentPoly):
        self.lam = lam
        self.mu = mu
        self.det = det
        self.factors = factors
        self.cofactor = cofactor


def _normalize_det(det: LaurentPoly) -> LaurentPoly:
    if det.is_zero():
        return det
    det = det.shift(-det.min_exp)
    if det.coeffs[det.max_exp] < 0:
        det = -det
    return det


def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n."""
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def _cyclotomic_scan(det: LaurentPoly, bound: int) -> tuple:
    """Divide det by Phi_1 .. Phi_bound as often as each divides it.
    Returns (factors, cofactor) with a fresh factors dict on every call.

    Phi_ell is tried only when its degree phi(ell) fits in what is left.
    For ell of bit length b, phi(ell) >= ell/b >= 2^(b-1)/b: ell has
    k <= b - 1 distinct primes, and their factors (1 - 1/p) multiply to at
    least 1/(k+1).  So the scan ends once 2^(b-1) > span b, whatever the
    bound."""
    factors, cofactor = _scan(det, bound)
    return dict(factors), cofactor


@lru_cache(maxsize=None)
def _scan(det: LaurentPoly, bound: int) -> tuple:
    factors = []
    rest = det.to_dense()[1]
    for ell in range(1, bound + 1):
        b = ell.bit_length()
        span = len(rest) - 1
        if 1 << (b - 1) > span * b:
            break
        deg = _totient(ell)
        m = 0
        while deg <= len(rest) - 1:
            q = _over_phi(rest, ell)
            if q is None:
                break
            m += 1
            rest = q
        if m:
            factors.append((ell, m))
    return tuple(factors), _normalize_det(LaurentPoly.from_dense(0, rest))


def _over_phi(c: list, ell: int) -> list | None:
    """c / Phi_ell on a dense coefficient list, or None when Phi_ell does
    not divide c: Phi_ell times the binomials v^D - 1 of down is the
    product of those of up, so multiply by the down binomials and divide
    exactly by each one of up."""
    up, down = _phi_binomials(ell)
    for d in down:
        c = _times_binomial(c, d)
    for d in up:
        c = _over_binomial(c, d)
        if c is None:
            return None
    return c


def gram_determinant(cm: CellModule, mu: Weight, scan_bound: int = 50,
                     integral: bool = False) -> GramDeterminantRecord:
    """Determinant of the Gram form on one weight space.

    By default this is the Gram in the generic basis (the words picked
    from a possibly overcomplete set); with integral=True it is the Gram
    in the A-basis of the lattice, the f(v) whose zeros decide
    semisimplicity of specializations.  Always nonzero over Q(v).
    """
    mu = tuple(mu)
    basis = cm.basis(mu, integral)
    det = _normalize_det(laurent_determinant(basis.gram, len(basis.combos)))
    assert not det.is_zero(), "contravariant form degenerate over Q(v)"
    factors, cofactor = _cyclotomic_scan(det, scan_bound)
    return GramDeterminantRecord(cm.lam, mu, det, factors, cofactor)


class DecompositionMatrix:
    """d[lam][mu] = multiplicity of L_q(mu) in Delta_q(lam), indexed in
    flag order; unitriangular with respect to dominance."""

    __slots__ = ("ctx", "order", "entries")

    def __init__(self, ctx: FieldContext, order: tuple, entries: dict):
        self.ctx = ctx
        self.order = order
        self.entries = entries  # (lam, mu) -> int

    def row(self, lam: Weight) -> list:
        return [self.entries.get((tuple(lam), mu), 0) for mu in self.order]

    def is_identity(self) -> bool:
        return all(self.entries.get((lam, mu), 0) == (1 if lam == mu else 0)
                   for lam in self.order for mu in self.order)


def decomposition_matrix(specs: dict, flag: CosaturatedFlag,
                         ctx: FieldContext) -> DecompositionMatrix:
    """Solve charDelta(lam) = sum_mu d[lam][mu] charL(mu), in flag order,
    from specs[lam] = specialize_module(Delta(lam), ctx).

    The system is unitriangular because charL(mu) has leading weight mu
    with coefficient 1.  A nonzero residue, a negative entry, or a
    non-dominant leading term signals an engine bug.
    """
    datum = flag.datum
    order = tuple(flag)
    char_l = {lam: specs[lam].char_simple() for lam in order}
    for lam in order:
        if char_l[lam].get(lam, 0) != 1:
            raise InconsistentCharactersError(
                "charL(%r) does not lead with multiplicity 1" % (lam,))
    entries = {}
    for lam in order:
        residual = dict(specs[lam].char_delta)
        entries[(lam, lam)] = 1
        for mu, m in char_l[lam].items():
            residual[mu] = residual.get(mu, 0) - m
        residual = {mu: m for mu, m in residual.items() if m}
        while residual:
            # any dominance-maximal weight of the residual support
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
    dm = DecompositionMatrix(ctx, order, entries)
    for lam in order:
        total = sum(entries.get((lam, mu), 0) * specs[mu].dim_simple
                    for mu in order)
        if total != specs[lam].dim_delta:
            raise InconsistentCharactersError(
                "dimension identity fails in row %r" % (lam,))
    return dm


class SemisimplicityReport:
    """Nonvanishing certificates for a specialization point.

    semisimple is true iff every specialized integral Gram has a zero
    radical, that is iff every integral Gram determinant f(v) is nonzero
    at the point; witnesses lists the (lam, mu) where it vanishes.
    """

    __slots__ = ("ctx", "semisimple", "witnesses")

    def __init__(self, ctx: FieldContext, semisimple: bool, witnesses: tuple):
        self.ctx = ctx
        self.semisimple = semisimple
        self.witnesses = witnesses


def semisimplicity_report(specs: dict, flag: CosaturatedFlag,
                          ctx: FieldContext) -> SemisimplicityReport:
    """The witnesses read from the radical dimensions of specs[lam] =
    specialize_module(Delta(lam), ctx), in flag order: the weights whose
    rank is below their multiplicity."""
    witnesses = []
    for lam in flag:
        witnesses.extend((lam, mu)
                         for mu, d in specs[lam].radical_dims().items() if d)
    return SemisimplicityReport(ctx, not witnesses, tuple(witnesses))


def radical_is_submodule(cm: CellModule, ctx: FieldContext,
                         depth: int = 3) -> bool:
    """Check that every specialized divided-power generator matrix X maps
    rad_q into rad_q (exact membership: rad_q is the nullspace of the
    specialized integral Gram G, block-diagonal by weight), that is
    G X R == 0 with the radical vectors as the columns of R.  R is laid
    out block-diagonally too: the radical at mu has at most rank(mu)
    vectors, so its columns fit in mu's block."""
    grams = {mu: to_field(cm.basis(mu, integral=True).gram, ctx)
             for mu in cm.weights}
    rad = cm.block_diagonal({
        mu: sparse_transpose(dict(enumerate(
            nullspace(g, cm.spaces[mu].rank, ctx))))
        for mu, g in grams.items()})
    gram = cm.block_diagonal(grams)
    for i in range(cm.datum.rank):
        for a in range(1, depth + 1):
            for kind in ("E", "F"):
                m = to_field(cm.integral_action_matrix((kind, i, a)), ctx)
                if sparse_product(gram, sparse_product(m, rad)):
                    return False
    return True
