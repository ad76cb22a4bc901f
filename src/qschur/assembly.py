"""Assembly of the faithful block-matrix model of S(pi).

The algebra acts on the direct sum of its cell modules; a generator is
stored as one matrix block per lambda in pi.  Semisimplicity over Q(v)
makes this model faithful, and the engine certifies that exactly: the
glued cellular basis must consist of sum_lambda (dim Delta(lambda))^2
linearly independent matrices.  A full rank of the flattened matrices at
one point of Z/p certifies this, as specialization cannot raise a rank;
any shorter rank there is decided again by elimination over Q(v).  The
relation and cellularity suites below check every defining identity
exactly; there are no tolerances.
"""

from __future__ import annotations

import random

from .cellmod import CellModule
from .linalg import (FieldMatrix, add_scaled, dense_rows, forward_eliminate,
                     point_rank, sparse_product, sparse_transpose, to_field)
from .rootdata import CosaturatedFlag, SaturatedSet, Weight, build_flag
from .scalars import (
    FieldContext,
    FieldValue,
    LaurentPoly,
    RatFunc,
    quantum_binomial,
    quantum_integer,
)
from .straighten import Word, idempotent_straighten

GENERIC = FieldContext.generic()


class BlockMatrix:
    """A block-diagonal matrix over Q(v): one sparse block per lambda in pi.

    A block is {row: {col: nonzero scalar}}.  No zero entry, empty row or
    empty block is ever stored, and the scalars are canonical, so equality
    is plain dict equality and every operation touches nonzeros only.
    Instances are treated as immutable; every operation returns new dicts.
    A weight projector 1_mu carries its slices, lambda -> (lo, hi) with
    its block the identity on the indices lo..hi-1, so a product with it
    keeps the rows or columns of the other factor in the slice and does no
    scalar arithmetic.
    """

    __slots__ = ("dims", "sparse", "slices")

    def __init__(self, dims: dict, sparse: dict, slices: dict | None = None):
        self.dims = dims      # lambda -> block size, in flag order
        self.sparse = sparse  # lambda -> {row: {col: nonzero scalar}}
        self.slices = slices  # lambda -> (lo, hi) for a weight projector

    @property
    def blocks(self) -> dict:
        """Read-only dense export: lambda -> FieldMatrix, in flag order."""
        zero = GENERIC.zero()
        return {lam: FieldMatrix(GENERIC, n, n,
                                 dense_rows(self.block(lam), n, n, zero))
                for lam, n in self.dims.items()}

    def block(self, lam: Weight) -> dict:
        """The sparse block at lambda ({} when it is zero)."""
        return self.sparse.get(lam, {})

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        out = {lam: {i: dict(row) for i, row in blk.items()}
               for lam, blk in self.sparse.items()}
        _accumulate(out, other.sparse, GENERIC.one())
        return BlockMatrix(self.dims, out)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return self + -other

    def __neg__(self) -> "BlockMatrix":
        return BlockMatrix(self.dims, {
            lam: {i: {j: -x for j, x in row.items()} for i, row in blk.items()}
            for lam, blk in self.sparse.items()})

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if other.slices is not None:  # x 1_mu: the columns of x in the slice
            blocks = ((lam, _columns(a, *other.slices[lam]))
                      for lam, a in self.sparse.items() if lam in other.slices)
        elif self.slices is not None:  # 1_mu x: the rows of x in the slice
            blocks = ((lam, _rows(other.block(lam), lo, hi))
                      for lam, (lo, hi) in self.slices.items())
        else:
            blocks = ((lam, sparse_product(a, other.block(lam)))
                      for lam, a in self.sparse.items())
        return BlockMatrix(self.dims, {lam: b for lam, b in blocks if b})

    def is_zero(self) -> bool:
        return not self.sparse

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return self.sparse == other.sparse


def _columns(a: dict, lo: int, hi: int) -> dict:
    """a times the identity on lo..hi-1: the entries of a in those
    columns, rows and entries in the order sparse_product gives them."""
    return {i: r for i, row in a.items()
            if (r := {j: x for j, x in row.items() if lo <= j < hi})}


def _rows(b: dict, lo: int, hi: int) -> dict:
    """The identity on lo..hi-1 times b: fresh copies of the rows of b
    with those indices, in the order sparse_product gives them."""
    return {i: dict(b[i]) for i in range(lo, hi) if i in b}


def _accumulate(out: dict, sparse: dict, c: FieldValue) -> None:
    """out += c * sparse for nonzero c, in place on sparse blocks; entries,
    rows and blocks that cancel go."""
    for lam, blk in sparse.items():
        oblk = out.setdefault(lam, {})
        for i, row in blk.items():
            orow = oblk.setdefault(i, {})
            add_scaled(orow, c, row)
            if not orow:
                del oblk[i]
        if not oblk:
            del out[lam]


class CellBasisElement:
    """One glued cellular basis element b' 1_lambda b^*."""

    __slots__ = ("lam", "left", "right", "matrix")

    def __init__(self, lam: Weight, left: tuple, right: tuple,
                 matrix: BlockMatrix):
        self.lam = lam
        self.left = left  # combo: tuple of (word, LaurentPoly)
        self.right = right
        self.matrix = matrix


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list | None = None):
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


class SchurAlgebra:
    """The generalized q-Schur algebra S(pi) in its block-matrix model."""

    def __init__(self, pi: SaturatedSet, flag: CosaturatedFlag, modules: dict):
        self.datum = pi.datum
        self.pi = pi
        self.flag = flag
        self.modules = modules  # lambda -> CellModule, in flag order
        self._orbit = pi.orbit_weights()
        self.orbit_weights = tuple(sorted(self._orbit))
        self.dims = {lam: cm.dim for lam, cm in modules.items()}
        self.dim = sum(n * n for n in self.dims.values())
        self._gen_cache: dict = {}
        self._word_cache: dict = {}
        self._gram_cache: dict = {}

    # -- generators -----------------------------------------------------------

    def gen(self, symbol: tuple) -> BlockMatrix:
        """Block matrix of E_i^{(a)}, F_i^{(a)} or 1_mu (symbol ("P", mu)).
        Each generator is built once from the modules' action rows and
        cached; every 1_mu with mu outside W pi is an uncached zero.  A
        cached 1_mu records its slices: each block is the identity on the
        rows of the weight space mu, consecutive from its offset."""
        if symbol[0] == "P":
            symbol = ("P", tuple(symbol[1]))
            if symbol[1] not in self._orbit:
                return self.zero()
        cached = self._gen_cache.get(symbol)
        if cached is None:
            blocks = ((lam, cm.action_matrix(symbol))
                      for lam, cm in self.modules.items())
            sparse = {lam: blk for lam, blk in blocks if blk}
            slices = None if symbol[0] != "P" else \
                {lam: (min(blk), min(blk) + len(blk))
                 for lam, blk in sparse.items()}
            cached = BlockMatrix(self.dims, sparse, slices)
            self._gen_cache[symbol] = cached
        return cached

    def identity(self) -> BlockMatrix:
        one = GENERIC.one()
        return BlockMatrix(self.dims, {lam: {i: {i: one} for i in range(n)}
                                       for lam, n in self.dims.items() if n})

    def zero(self) -> BlockMatrix:
        return BlockMatrix(self.dims, {})

    def combination(self, terms) -> BlockMatrix:
        """The sum of c x over (Laurent c, block matrix x), skipping zero c."""
        out: dict = {}
        for c, x in terms:
            if c:
                _accumulate(out, x.sparse, GENERIC.from_laurent(c))
        return BlockMatrix(self.dims, out)

    def k_element(self, h) -> BlockMatrix:
        """K_h = sum over mu in W pi of v^{<h, mu>} 1_mu."""
        return self.combination(
            (LaurentPoly.var(sum(hh * mm for hh, mm in zip(h, mu))),
             self.gen(("P", mu))) for mu in self.orbit_weights)

    def k_bar(self, i: int, inverse: bool = False) -> BlockMatrix:
        s = -1 if inverse else 1
        return self.k_element([s * self.datum.d[i] * x
                               for x in self.datum.alphav[i]])

    # -- star and word images ---------------------------------------------------

    def full_gram(self, lam: Weight) -> dict:
        """The sparse Gram matrix G of Delta(lambda) in the generic basis,
        block-diagonal by weight (the form pairs only equal weights)."""
        lam = tuple(lam)
        g = self._gram_cache.get(lam)
        if g is None:
            cm = self.modules[lam]
            g = self._gram_cache[lam] = cm.block_diagonal({
                mu: to_field(cm.basis(mu).gram, GENERIC) for mu in cm.weights})
        return g

    def star(self, x: BlockMatrix) -> BlockMatrix:
        """The anti-involution: per block, G^-1 x^T G, with G^-1 = A / d
        read from the adjugate of each weight space's Gram matrix."""
        out = {}
        for lam, blk in x.sparse.items():  # G is invertible: a nonzero image
            cm = self.modules[lam]
            ginv = {}
            for mu in cm.weights:
                adj, det = cm.basis(mu).adjugate()
                ginv[mu] = {i: {j: RatFunc(a, det) for j, a in row.items()}
                            for i, row in adj.items()}
            ginv = cm.block_diagonal(ginv)
            out[lam] = sparse_product(sparse_product(
                ginv, sparse_transpose(blk)), self.full_gram(lam))
        return BlockMatrix(self.dims, out)

    def rho_word(self, kind: str, word: Word) -> BlockMatrix:
        """Image of a divided F-word, or of its star (kind "E").

        For word ((i1,a1),...,(ir,ar)): kind "F" gives the product
        F_{ir}^{(ar)} ... F_{i1}^{(a1)}; kind "E" the reversed product
        E_{i1}^{(a1)} ... E_{ir}^{(ar)} (the star image).
        """
        key = (kind, word)
        cached = self._word_cache.get(key)
        if cached is None:
            factors = [self.gen((kind, i, a)) for i, a in
                       (reversed(word) if kind == "F" else word)]
            cached = factors[0] if factors else self.identity()
            for g in factors[1:]:
                cached = cached * g
            self._word_cache[key] = cached
        return cached

    def rho_combo(self, kind: str, combo: tuple) -> BlockMatrix:
        return self.combination((coeff, self.rho_word(kind, word))
                                for word, coeff in combo)

    # -- cellular basis -----------------------------------------------------------

    def basis_combos(self, lam: Weight, integral: bool = False) -> list:
        """The chosen basis of Delta(lambda) as word combos, in weight-block
        order (generic: single words; integral: lattice combinations)."""
        cm = self.modules[tuple(lam)]
        return [combo for mu in cm.weights
                for combo in cm.basis(mu, integral).combos]

    def cellular_basis(self, integral: bool = False) -> list:
        """The glued family over all cells, in flag order: for each lambda
        and each ordered basis pair (b', b), the matrix of b' 1_lambda b^*."""
        elements = []
        for lam in self.flag:
            combos = self.basis_combos(lam, integral)
            proj = self.gen(("P", lam))
            lefts = [self.rho_combo("F", c) * proj for c in combos]
            rights = [proj * self.rho_combo("E", c) for c in combos]
            for bl, left_mat in zip(combos, lefts):
                for br, right_mat in zip(combos, rights):
                    elements.append(CellBasisElement(
                        lam, bl, br, left_mat * right_mat))
        return elements


def assemble(pi: SaturatedSet, flag: CosaturatedFlag = None,
             built: dict = None) -> SchurAlgebra:
    """Build the cell modules of S(pi) not already in built (lambda ->
    CellModule), in flag order, and the block generator model."""
    if flag is None:
        flag = build_flag(pi)
    built = built or {}
    modules = {lam: built[lam] if lam in built else CellModule(pi.datum, lam)
               for lam in flag}
    return SchurAlgebra(pi, flag, modules)


# -- checks -----------------------------------------------------------------


def _expect(rep: VerificationReport, name: str, cases) -> None:
    """Record the check `name`: lhs == rhs for every (witness, lhs, rhs)
    case.  Cases are drawn lazily; the first failing one ends the check and
    its witness, a dict, becomes the detail."""
    for witness, lhs, rhs in cases:
        if lhs != rhs:
            rep.add(name, False, ", ".join(
                "%s=%s" % (key, _combo_text(value) if key in ("left", "right")
                           else value)
                for key, value in witness.items()))
            return
    rep.add(name, True)


def _combo_text(combo: tuple) -> str:
    """A word combo as coeff*[[i, a], ...] terms joined by " + "."""
    return " + ".join("%s*%s" % (coeff, [list(f) for f in word])
                      for word, coeff in combo)


def _shift_cases(witness: dict, e, f, p, p_up, p_down):
    """E 1 = 1_up E, 1 E = E 1_down, F 1 = 1_down F and 1 F = F 1_up."""
    yield dict(witness, identity="E 1 = 1_up E"), e * p, p_up * e
    yield dict(witness, identity="1 E = E 1_down"), p * e, e * p_down
    yield dict(witness, identity="F 1 = 1_down F"), f * p, p_down * f
    yield dict(witness, identity="1 F = F 1_up"), p * f, f * p_up


# -- relation suite -----------------------------------------------------------


def verify_relations(s: SchurAlgebra, depth: int = 3, samples: int = 8,
                     seed: int = 0) -> VerificationReport:
    """Check the defining presentation and its consequences, exactly.

    Covers: idempotent relations, the commutator relation, weight-shift
    relations with the boundary convention, divided-power commutation
    identities up to the depth cap, quantum Serre relations, the
    ad-expansion identity, rank-1 subalgebra relations, K_h behaviour,
    and the minimal polynomial of each K-bar element.  A failing check
    names its first failing witness in its detail.
    """
    rep = VerificationReport()
    datum, weights = s.datum, s.orbit_weights
    r, d = datum.rank, datum.d
    ident, zero, one = s.identity(), s.zero(), LaurentPoly.one()

    def E(i, a=1):
        return s.gen(("E", i, a))

    def F(i, a=1):
        return s.gen(("F", i, a))

    def P(mu, i=None, a=0):
        """1_{mu + a alpha_i}: a zero block matrix off W pi."""
        if a:
            mu = tuple(m + a * x for m, x in zip(mu, datum.alpha[i]))
        return s.gen(("P", mu))

    def power_sum(x, y, m, di):
        """sum_t (-1)^t [m; t]_i x^{m-t} y x^t."""
        powers = [ident]
        for _ in range(m):
            powers.append(powers[-1] * x)
        return s.combination((quantum_binomial(m, t, di).scale((-1) ** t),
                              powers[m - t] * y * powers[t])
                             for t in range(m + 1))

    def swapped(x, u, y, v, top, i, p):
        """sum_t [top; t]_i X_i^{(u-t)} (Y_i^{(v-t)} p) over nonzero terms,
        each product taken from the right, so it touches only p's slice."""
        return s.combination(
            (c, s.gen((x, i, u - t)) * (s.gen((y, i, v - t)) * p))
            for t in range(min(u, v) + 1)
            if (c := quantum_binomial(top, t, d[i])))

    # (1) orthogonal idempotents summing to 1
    _expect(rep, "idempotents.orthogonal",
            (({"mu": mu, "nu": nu}, P(mu) * P(nu), P(mu) if mu == nu else zero)
             for mu in weights for nu in weights))
    total = s.combination((one, P(mu)) for mu in weights)
    _expect(rep, "idempotents.complete",
            (({"lambda": lam}, total.block(lam), ident.block(lam))
             for lam in s.modules))

    # (2) E_i F_j - F_j E_i = delta_ij sum_mu [<alpha_i^vee, mu>]_i 1_mu
    _expect(rep, "relation.commutator",
            (({"i": i, "j": j}, E(i) * F(j) - F(j) * E(i),
              s.combination((quantum_integer(datum.pairing(i, mu), d[i]),
                             P(mu)) for mu in weights if i == j))
             for i in range(r) for j in range(r)))

    # (3) weight-shift relations, including 1_{mu +- alpha_i} = 0 off W pi
    _expect(rep, "relation.weight_shift",
            (case for i in range(r) for mu in weights
             for case in _shift_cases({"i": i, "mu": mu}, E(i), F(i), P(mu),
                                      P(mu, i, 1), P(mu, i, -1))))

    # (4) divided-power commutation identities, a, b <= depth
    def divided_powers():
        for i in range(r):
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

    _expect(rep, "relation.divided_power_commutation", divided_powers())

    # (5) quantum Serre relations (vacuous in rank 1) and the ad-expansion
    # (ad E_i)^m E_j = sum_t (-1)^t [m; t]_i E_i^{m-t} E_j E_i^t, m = 1 - a_ij
    if r >= 2:
        a_mat = datum.cartan.cartan_matrix()
        pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
        _expect(rep, "relation.serre",
                (({"i": i, "j": j, "kind": kind},
                  power_sum(s.gen((kind, i, 1)), s.gen((kind, j, 1)),
                            1 - a_mat[i][j], d[i]), zero)
                 for i, j in pairs for kind in ("E", "F")))

        def ad_expansion():
            for i, j in pairs:
                kb, kbi = s.k_bar(i), s.k_bar(i, inverse=True)
                x = E(j)
                for _ in range(1 - a_mat[i][j]):
                    x = E(i) * x - (kb * x * kbi) * E(i)
                yield ({"i": i, "j": j}, x,
                       power_sum(E(i), E(j), 1 - a_mat[i][j], d[i]))

        _expect(rep, "relation.ad_expansion", ad_expansion())

    # (6) rank-1 subalgebra relations for each i, on the level projectors
    # (sums of the 1_mu with equal <alpha_i^vee, mu>)
    def rank1_subalgebras():
        for i in range(r):
            levels = sorted({datum.pairing(i, mu) for mu in weights})
            level = {n: s.combination((one, P(mu)) for mu in weights
                                      if datum.pairing(i, mu) == n)
                     for n in levels}
            for n, p in level.items():
                for n2, p2 in level.items():
                    yield ({"i": i, "level": n, "level2": n2},
                           p * p2, p if n == n2 else zero)
            yield ({"i": i, "identity": "levels sum to 1"},
                   s.combination((one, p) for p in level.values()), ident)
            yield ({"i": i, "identity": "E F - F E"},
                   E(i) * F(i) - F(i) * E(i),
                   s.combination((quantum_integer(n, d[i]), p)
                                 for n, p in level.items()))
            for n, p in level.items():
                yield from _shift_cases({"i": i, "level": n}, E(i), F(i), p,
                                        level.get(n + 2, zero),
                                        level.get(n - 2, zero))

    _expect(rep, "relation.rank1_subalgebra", rank1_subalgebras())

    # K_h: K_0 = 1, K_h K_h' = K_{h+h'} on deterministic random samples
    def k_samples():
        yield {"h": [0] * datum.n}, s.k_element([0] * datum.n), ident
        rng = random.Random(seed)
        for _ in range(samples):
            h1 = [rng.randint(-3, 3) for _ in range(datum.n)]
            h2 = [rng.randint(-3, 3) for _ in range(datum.n)]
            yield ({"h1": h1, "h2": h2}, s.k_element(h1) * s.k_element(h2),
                   s.k_element([a + b for a, b in zip(h1, h2)]))

    _expect(rep, "relation.k_multiplicative", k_samples())

    # (7) minimal polynomial of K-bar_i over the spectrum +-pi^(i)
    def kbar_spectra():
        for i in range(r):
            kb = s.k_bar(i)
            spectrum = sorted({sign * datum.pairing(i, mu) for mu in weights
                               for sign in (1, -1)})
            prod = ident
            for n in spectrum:
                prod = prod * s.combination(
                    ((one, kb), (LaurentPoly.var(d[i] * n, -1), ident)))
            yield {"i": i, "identity": "minimal polynomial"}, prod, zero
            yield ({"i": i, "identity": "K-bar inverse"},
                   kb * s.k_bar(i, inverse=True), ident)

    _expect(rep, "relation.kbar_minimal_polynomial", kbar_spectra())
    return rep


# -- cellularity suite ----------------------------------------------------------


def _flatten(s: SchurAlgebra, bm: BlockMatrix) -> dict:
    """Sparse row of all block entries, keyed by a global column index."""
    out = {}
    base = 0
    for lam in s.flag:
        n = s.dims[lam]
        for i, row in bm.block(lam).items():
            for j, x in row.items():
                out[base + i * n + j] = x
        base += n * n
    return out


def matrix_span_rank(s: SchurAlgebra, mats: list) -> int:
    """Rank of the span of block matrices over Q(v).  A point rank equal
    to the number of matrices certifies it (point_rank); a shorter one, or
    a denominator vanishing at the point, leaves the decision to exact
    sparse elimination over Q(v)."""
    rows = [_flatten(s, bm) for bm in mats]
    if point_rank(rows) == len(rows):
        return len(rows)
    return len(forward_eliminate(rows))


def verify_cellularity(s: SchurAlgebra, elements: list = None,
                       integral: bool = False) -> VerificationReport:
    """Certify the cellular structure of the assembled algebra.

    (1) the glued basis is linearly independent with the semisimple count,
    (2) cell-lambda elements vanish on every block mu not above lambda,
    (3) on block lambda each element is the Gram-paired rank-one product
        of its two basis vectors,
    (4) star swaps the two indices,
    (5) the idempotent straightening formula holds on block lambda for one
        reduced word per orbit element.
    A failing check names its first failing witness in its detail.
    """
    rep = VerificationReport()
    datum = s.datum
    if elements is None:
        elements = s.cellular_basis(integral=integral)

    rank_span = matrix_span_rank(s, [el.matrix for el in elements])
    rep.add("cellular.count", len(elements) == s.dim,
            "%d elements, dim %d" % (len(elements), s.dim))
    rep.add("cellular.independent", rank_span == s.dim,
            "span rank %d of %d" % (rank_span, s.dim))

    def witness(el, **more):
        return dict({"lambda": el.lam, "left": el.left, "right": el.right},
                    **more)

    _expect(rep, "cellular.triangular",
            ((witness(el, mu=mu), el.matrix.block(mu), {})
             for el in elements for mu in s.pi
             if not datum.dominance_leq(el.lam, mu)))

    # rank-one structure on the home block: rho_lam(C_{b',b}) = u' (G u)^T,
    # u the global generic-basis coordinates of a one-weight word combo,
    # kept as a sparse one-column block {index: {0: nonzero coordinate}}
    coords: dict = {}

    def coordinates(lam, combo):
        if (lam, combo) not in coords:
            cm = s.modules[lam]
            mu = cm.ctx.weight_of(combo[0][0])
            coords[lam, combo] = {
                k: {0: c} for k, c in cm.coordinates(mu, dict(combo)).items()}
        return coords[lam, combo]

    def rank_one(el):
        paired = sparse_product(s.full_gram(el.lam),
                                coordinates(el.lam, el.right))
        return sparse_product(coordinates(el.lam, el.left),
                              sparse_transpose(paired))

    _expect(rep, "cellular.rank_one_blocks",
            ((witness(el), el.matrix.block(el.lam), rank_one(el))
             for el in elements))
    # star(x) = G^-1 x^T G equals y iff x^T G == G y on every block, as G
    # is invertible; this skips G^-1, whose entries are not Laurent
    by_pair = {(el.lam, el.left, el.right): el for el in elements}

    def star_swaps():
        for el in elements:
            x, y = el.matrix, by_pair[(el.lam, el.right, el.left)].matrix
            for lam in x.sparse.keys() | y.sparse.keys():
                g = s.full_gram(lam)
                yield (witness(el),
                       sparse_product(sparse_transpose(x.block(lam)), g),
                       sparse_product(g, y.block(lam)))

    _expect(rep, "cellular.star_swaps", star_swaps())

    def straightened():
        for lam in s.flag:
            for nu in sorted(datum.weyl_orbit(lam)):
                _, word = datum.dominant_representative(nu)
                w = idempotent_straighten(datum, word, lam).as_divided_word()
                m = s.rho_word("F", w) * s.gen(("P", lam)) * s.rho_word("E", w)
                yield ({"lambda": lam, "nu": nu}, m.block(lam),
                       s.gen(("P", nu)).block(lam))

    _expect(rep, "cellular.idempotent_straightening", straightened())
    return rep


def rank1_canonical_identity(s: SchurAlgebra, n: int) -> bool:
    """For a rank-1 datum and n in pi: whenever a + b >= n,
    F^{(b)} 1_n E^{(a)} = sum_t [a+b-n; t] E^{(a-t)} 1_{n-2(a+b-t)} F^{(b-t)}
    holds on block (n) (the identity is modulo the ideal above (n))."""
    assert s.datum.rank == 1
    lam = (n,)
    gen = s.gen
    for a in range(0, n + 1):
        for b in range(0, n + 1):
            if a + b < n:
                continue
            lhs = gen(("F", 0, b)) * gen(("P", lam)) * gen(("E", 0, a))
            rhs = s.combination(
                (c, gen(("E", 0, a - t)) * gen(("P", (n - 2 * (a + b - t),))) *
                 gen(("F", 0, b - t)))
                for t in range(0, min(a, b) + 1)
                if (c := quantum_binomial(a + b - n, t, 1)))
            if lhs.block(lam) != rhs.block(lam):
                return False
    return True
