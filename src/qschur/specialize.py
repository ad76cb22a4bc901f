"""Specialization at v = q in characteristic-zero fields.

The contravariant form specializes with the Lusztig lattice, whose words
have Laurent Gram entries, so no denominator can vanish.  The radical of
the specialized form is a submodule, as the form is contravariant, so the
simple head L_q(lambda) is generated from x0, and the prefix-closed greedy
walk of cellmod, eliminating the candidates' Gram rows at the point, picks
a basis of each of its weight spaces.  The number of picks at mu is the
mu-multiplicity of L_q(lambda), and the weight's multiplicity in
Delta(lambda) less it is the dimension of the radical there.  The walk
reads only the Gram entries of its candidates: no integral basis and no
Gram matrix of all the words is built.  At the generic field the form is
nondegenerate, so the ranks are the character and nothing is walked.
Decomposition numbers come from the unitriangular character solve, one
pass per row down the flag.
Semisimplicity is read from the same ranks: a radical is nonzero exactly
where its integral Gram determinant (the paper's f(v) certificate)
vanishes, as specialization is a ring homomorphism and so commutes with
the determinant.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import isqrt, lcm

from .cellmod import CellModule, greedy_walk
from .errors import InconsistentCharactersError, RankMismatchError
from .linalg import (forward_eliminate, laurent_determinant, nullspace,
                     sparse_product, sparse_transpose, to_field)
from .rootdata import CosaturatedFlag, Weight
from .scalars import (
    GENERIC,
    FieldContext,
    LaurentPoly,
    _over_binomial,
    _phi_binomials,
    _times_binomial,
)


class SpecializedModule:
    """Delta_q(lambda) at a specialization point, by the weight
    multiplicities of its simple head.

    weight_ranks[mu] is the mu-multiplicity of L_q(lambda): the number of
    words the greedy walk at the point picks at mu, the rank there of the
    specialized form on the mu weight space.  charDelta is unchanged by
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


def eliminate_at(ctx: FieldContext):
    """The elimination greedy_walk runs at the point of ctx: forward
    elimination of the Laurent Gram rows mapped by ctx.from_laurent.  The
    entries that vanish at the point go, but every row stays, an empty one
    too, so the picked indices are the candidates' own."""
    return lambda rows: forward_eliminate(
        {j: y for j, x in row.items() if (y := ctx.from_laurent(x))}
        for row in rows)


def specialize_module(cm: CellModule, ctx: FieldContext) -> SpecializedModule:
    """The weight multiplicities of L_q(lambda), from the greedy walk over
    the weight spaces of Delta(lambda) at the point of ctx.

    The contravariant form pairs only equal weights, so the radical is
    weight-graded and the ranks per weight assemble the character of
    L_q(lambda).  Over Q(v) itself the form is nondegenerate, so the rank
    at each weight is its multiplicity: the generic field reads the
    character and walks nothing.
    """
    char = cm.character()
    if ctx.kind == GENERIC:
        return SpecializedModule(cm.lam, ctx, char, char)
    weight_ranks = {mu: len(picked) for mu, _, _, picked in
                    greedy_walk(cm.ctx, cm.weights, eliminate_at(ctx))}
    return SpecializedModule(cm.lam, ctx, weight_ranks, char)


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


# the cyclotomic scan evaluates at v = 2^8 (see _cyclotomic_scan)
_POINT_BITS = 8
# bounds the scan's memo of Phi_ell(2^8): a large scan bound on a long
# determinant visits ells by the thousand, and Phi_ell(2^8) has 8 phi(ell)
# bits
_SCAN_MEMO = 1024
# the most ells in one block of the totient sieve
_SIEVE_BLOCK = 2048


def _totients(stop: int):
    """Yield phi(ell), Euler's totient and the degree of Phi_ell, for ell
    = 1, 2, ... stop - 1, from the blocks of _totient_block."""
    lo = 1
    while lo < stop:
        block = _totient_block(lo)
        yield from islice(block, stop - lo)
        lo += len(block)


@lru_cache(maxsize=8)
def _totient_block(lo: int) -> tuple:
    """phi(ell) for ell from lo up to lo^2, or to lo + _SIEVE_BLOCK if that
    comes first: the blocks start at 1, 2, 4, 16, 256, 2304, 4352, ...

    The sieve starts from phi = rest = ell and, for every prime p with p^2
    below the block's end, sets phi -= phi // p and divides p out of rest
    at the multiples of p; what is left of rest is 1 or the one prime
    factor above the square root.  Those primes are all below lo, the ells
    of earlier blocks with phi(ell) = ell - 1.  Exact integers only; the
    memo holds at most 8 blocks, the small first ones that every scan and
    every later block reads among them."""
    hi = min(max(lo * lo, lo + 1), lo + _SIEVE_BLOCK)
    phi = list(range(lo, hi))
    rest = phi[:]
    for p, deg in enumerate(_totients(min(isqrt(hi - 1) + 1, lo)), 1):
        if deg != p - 1:
            continue
        for i in range(-lo % p, hi - lo, p):
            phi[i] -= phi[i] // p
            r = rest[i] // p
            while not r % p:
                r //= p
            rest[i] = r
    for i, r in enumerate(rest):
        if r > 1:
            phi[i] -= phi[i] // r
    return tuple(phi)


@lru_cache(maxsize=_SCAN_MEMO)
def _phi_at_point(ell: int) -> int:
    """Phi_ell(2^8), read modulo 2^K from the binomials of _phi_binomials
    with shifts and additions only: no product and no division.

    Every root of Phi_ell lies on the unit circle, so 0 < Phi_ell(2^8) <=
    257^phi(ell) < 2^K for K = 8 phi(ell) + phi(ell) // 128 + 2, as
    log2(257/256) < 1/128: the residue is the value.  phi(ell), the degree
    of Phi_ell, is the sum of the binomials' degrees of up less those of
    down.  Times a binomial 2^s - 1 of up is a shift and a subtraction.
    Modulo 2^K a binomial of down has the inverse -(1 + 2^s)(1 + 2^(2s))
    (1 + 2^(4s))..., the factors running until 2^(2^k s) >= 2^K, each a
    shift and an addition."""
    up, down = _phi_binomials(ell)
    deg = sum(up) - sum(down)
    bits = _POINT_BITS * deg + deg // 128 + 2
    mask = (1 << bits) - 1
    value = 1
    for d in up:
        step = _POINT_BITS * d
        value = ((value << step) - value if step < bits else -value) & mask
    for d in down:
        step = _POINT_BITS * d
        while step < bits:
            value = (value + (value << step)) & mask
            step *= 2
        value = -value & mask
    return value


def _cyclotomic_scan(det: LaurentPoly, bound: int) -> tuple:
    """Divide det by Phi_1 .. Phi_bound as often as each divides it.
    Returns (factors, cofactor) with a fresh factors dict on every call.

    Phi_ell is tried only when its degree phi(ell) fits in what is left.
    For ell of bit length b, phi(ell) >= ell/b >= 2^(b-1)/b: ell has
    k <= b - 1 distinct primes, and their factors (1 - 1/p) multiply to at
    least 1/(k+1).  So the scan ends once 2^(b-1) > span b, whatever the
    bound.

    An exact division by Phi_ell runs only when the integer Phi_ell(2^8)
    divides point = L rest(2^8), L the lcm of the denominators of what is
    left (1 for an integer determinant): Phi_ell is monic, so it divides
    rest only if its value divides point, and the test skips no factor.
    Each quotient rest / Phi_ell has its coefficients in the Z-span of
    rest's, so point // Phi_ell(2^8) is the quotient's point, with the
    same L."""
    factors, cofactor = _scan(det, bound)
    return dict(factors), cofactor


@lru_cache(maxsize=None)
def _scan(det: LaurentPoly, bound: int) -> tuple:
    factors = []
    rest = det.to_dense()[1]
    scale = lcm(*(c.denominator for c in rest))
    point = 0
    for c in reversed(rest):
        point = (point << _POINT_BITS) + c.numerator * (scale // c.denominator)
    span = len(rest) - 1
    b = 1  # the longest bit length of an ell the scan can reach
    while 1 << b <= span * (b + 1):
        b += 1
    stop = min(bound, (1 << b) - 1 if span else 0) + 1
    for ell, deg in enumerate(_totients(stop), 1):
        b = ell.bit_length()
        span = len(rest) - 1
        if 1 << (b - 1) > span * b:
            break
        if deg > span:
            continue
        value = _phi_at_point(ell)
        m = 0
        while deg <= len(rest) - 1 and not point % value:
            q = _over_phi(rest, ell)
            if q is None:
                break
            m += 1
            rest = q
            point //= value
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
    if det.is_zero():
        raise RankMismatchError(
            "contravariant form degenerate over Q(v) at mu = %r, for "
            "lambda = %r" % (mu, cm.lam))
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

    The system is unitriangular because charL(mu) is supported below mu
    with coefficient 1 at mu.  The flag lists every weight above mu before
    mu, so one pass per row in flag order, subtracting d charL(mu) as it
    goes, meets mu only after every charL that can reach mu has been
    subtracted: the residual's coefficient there is d[lam][mu].  A
    negative entry, an entry at a weight not below lam, or a residual left
    after the pass signals an engine bug.  No residual left means the
    characters agree at every weight, so summed over the weights, dim
    Delta(lam) = sum_mu d[lam][mu] dim L(mu) holds too.
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
        for nu in order:
            d = residual.get(nu, 0)
            if not d:
                continue
            if d < 0 or not datum.dominance_leq(nu, lam):
                raise InconsistentCharactersError(
                    "residual %r at %r in row %r" % (d, nu, lam))
            entries[(lam, nu)] = d
            for mu, m in char_l[nu].items():
                residual[mu] = residual.get(mu, 0) - d * m
        left = {mu: m for mu, m in residual.items() if m}
        if left:
            raise InconsistentCharactersError(
                "residual %r left in row %r" % (left, lam))
    return DecompositionMatrix(ctx, order, entries)


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
