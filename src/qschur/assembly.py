"""Assembly of the faithful block-matrix model of S(pi).

The algebra acts on the direct sum of its cell modules; a generator is
stored as one matrix block per lambda in pi.  Semisimplicity over Q(v)
makes this model faithful, and the engine certifies that numerically:
the glued cellular basis must consist of sum_lambda (dim Delta(lambda))^2
linearly independent matrices.  The relation and cellularity suites below
check every defining identity exactly; there are no tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cellmod import CellModule
from .linalg import FieldMatrix, forward_eliminate
from .rootdata import CosaturatedFlag, SaturatedSet, Weight, build_flag
from .scalars import (
    FieldContext,
    FieldValue,
    LaurentPoly,
    quantum_binomial,
    quantum_integer,
)
from .straighten import Word, idempotent_straighten

GENERIC = FieldContext.generic()


class BlockMatrix:
    """A block-diagonal matrix over Q(v): one block per lambda in pi."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict):
        self.blocks = blocks

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix({lam: a + other.blocks[lam]
                            for lam, a in self.blocks.items()})

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix({lam: a - other.blocks[lam]
                            for lam, a in self.blocks.items()})

    def __neg__(self) -> "BlockMatrix":
        return BlockMatrix({lam: -a for lam, a in self.blocks.items()})

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix({lam: a * other.blocks[lam]
                            for lam, a in self.blocks.items()})

    def scale(self, c: FieldValue) -> "BlockMatrix":
        return BlockMatrix({lam: a.scale(c) for lam, a in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.blocks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return all(a == other.blocks[lam] for lam, a in self.blocks.items())

    def block(self, lam: Weight) -> FieldMatrix:
        return self.blocks[tuple(lam)]


@dataclass
class CellBasisElement:
    """One glued cellular basis element b' 1_lambda b^*."""

    lam: Weight
    left: tuple   # combo: tuple of (word, LaurentPoly)
    right: tuple
    matrix: BlockMatrix


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

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
        self.orbit_weights = tuple(sorted(pi.orbit_weights()))
        self.dim = sum(cm.dim * cm.dim for cm in modules.values())
        self.total_size = sum(cm.dim for cm in modules.values())
        self._gen_cache: dict = {}
        self._word_cache: dict = {}
        self._gram_cache: dict = {}

    # -- generators -----------------------------------------------------------

    def gen(self, symbol: tuple) -> BlockMatrix:
        """Block matrix of E_i^{(a)}, F_i^{(a)} or 1_mu (symbol ("P", mu))."""
        if symbol[0] == "P":
            symbol = ("P", tuple(symbol[1]))
        cached = self._gen_cache.get(symbol)
        if cached is None:
            cached = BlockMatrix({lam: cm.action_matrix(symbol)
                                  for lam, cm in self.modules.items()})
            self._gen_cache[symbol] = cached
        return cached

    def identity(self) -> BlockMatrix:
        return BlockMatrix({lam: FieldMatrix.identity(GENERIC, cm.dim)
                            for lam, cm in self.modules.items()})

    def zero(self) -> BlockMatrix:
        return BlockMatrix({lam: FieldMatrix.zero(GENERIC, cm.dim, cm.dim)
                            for lam, cm in self.modules.items()})

    def k_element(self, h) -> BlockMatrix:
        """K_h = sum over mu in W pi of v^{<h, mu>} 1_mu."""
        out = self.zero()
        for mu in self.orbit_weights:
            exp = sum(hh * mm for hh, mm in zip(h, mu))
            out = out + self.gen(("P", mu)).scale(
                GENERIC.from_laurent(LaurentPoly.var(exp)))
        return out

    def k_bar(self, i: int, inverse: bool = False) -> BlockMatrix:
        s = -1 if inverse else 1
        return self.k_element([s * self.datum.d[i] * x
                               for x in self.datum.alphav[i]])

    # -- star and word images ---------------------------------------------------

    def full_gram(self, lam: Weight) -> tuple:
        """(G, G^-1) for Delta(lambda) in the generic basis, assembled from
        the weight-space blocks (the form pairs only equal weights)."""
        lam = tuple(lam)
        cached = self._gram_cache.get(lam)
        if cached is None:
            cm = self.modules[lam]
            g = FieldMatrix.zero(GENERIC, cm.dim, cm.dim)
            ginv = FieldMatrix.zero(GENERIC, cm.dim, cm.dim)
            for mu in cm.weights:
                basis = cm.basis(mu)
                block, inv = basis.gram.to_field(GENERIC), basis.inverse()
                off = cm.offset(mu)
                for r in range(block.rows):
                    for c in range(block.cols):
                        g.entries[off + r][off + c] = block.entries[r][c]
                        ginv.entries[off + r][off + c] = inv.entries[r][c]
            cached = (g, ginv)
            self._gram_cache[lam] = cached
        return cached

    def star(self, x: BlockMatrix) -> BlockMatrix:
        """The anti-involution: per block, G^-1 x^T G."""
        out = {}
        for lam in self.modules:
            g, ginv = self.full_gram(lam)
            out[lam] = ginv * x.blocks[lam].transpose() * g
        return BlockMatrix(out)

    def rho_word(self, kind: str, word: Word) -> BlockMatrix:
        """Image of a divided F-word, or of its star (kind "E").

        For word ((i1,a1),...,(ir,ar)): kind "F" gives the product
        F_{ir}^{(ar)} ... F_{i1}^{(a1)}; kind "E" the reversed product
        E_{i1}^{(a1)} ... E_{ir}^{(ar)} (the star image).
        """
        key = (kind, word)
        cached = self._word_cache.get(key)
        if cached is None:
            cached = self.identity()
            if kind == "F":
                for (i, a) in reversed(word):
                    cached = cached * self.gen(("F", i, a))
            else:
                for (i, a) in word:
                    cached = cached * self.gen(("E", i, a))
            self._word_cache[key] = cached
        return cached

    def rho_combo(self, kind: str, combo: tuple) -> BlockMatrix:
        out = self.zero()
        for word, coeff in combo:
            out = out + self.rho_word(kind, word).scale(
                GENERIC.from_laurent(coeff))
        return out

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


def assemble(pi: SaturatedSet, flag: CosaturatedFlag = None) -> SchurAlgebra:
    """Build all cell modules of S(pi), in flag order, and the block
    generator model."""
    if flag is None:
        flag = build_flag(pi)
    modules = {lam: CellModule(pi.datum, lam) for lam in flag}
    return SchurAlgebra(pi, flag, modules)


# -- relation suite -----------------------------------------------------------


def verify_relations(s: SchurAlgebra, depth: int = 3, samples: int = 8,
                     seed: int = 0) -> VerificationReport:
    """Check the defining presentation and its consequences, exactly.

    Covers: idempotent relations, the commutator relation, weight-shift
    relations with the boundary convention, divided-power commutation
    identities up to the depth cap, quantum Serre relations, the
    ad-expansion identity, rank-1 subalgebra relations, K_h behaviour,
    and the minimal polynomial of each K-bar element.
    """
    rep = VerificationReport()
    datum = s.datum
    r = datum.rank
    ident = s.identity()
    zero = s.zero()

    # (1) orthogonal idempotents summing to 1
    total = s.zero()
    ok = True
    for mu in s.orbit_weights:
        total = total + s.gen(("P", mu))
        for nu in s.orbit_weights:
            prod = s.gen(("P", mu)) * s.gen(("P", nu))
            expect = s.gen(("P", mu)) if mu == nu else zero
            if prod != expect:
                ok = False
    rep.add("idempotents.orthogonal", ok)
    rep.add("idempotents.complete", total == ident)

    # (2) E_i F_j - F_j E_i = delta_ij sum_mu [<alpha_i^vee, mu>]_i 1_mu
    ok = True
    bad = ""
    for i in range(r):
        for j in range(r):
            lhs = s.gen(("E", i, 1)) * s.gen(("F", j, 1)) - \
                s.gen(("F", j, 1)) * s.gen(("E", i, 1))
            rhs = zero
            if i == j:
                for mu in s.orbit_weights:
                    c = quantum_integer(datum.pairing(i, mu), datum.d[i])
                    if not c.is_zero():
                        rhs = rhs + s.gen(("P", mu)).scale(GENERIC.from_laurent(c))
            if lhs != rhs:
                ok = False
                bad = "E_%d F_%d" % (i, j)
    rep.add("relation.commutator", ok, bad)

    # (3) weight-shift relations, including 1_{mu +- alpha_i} = 0 off W pi
    ok = True
    weight_set = set(s.orbit_weights)
    for i in range(r):
        e, f = s.gen(("E", i, 1)), s.gen(("F", i, 1))
        for mu in s.orbit_weights:
            up = tuple(m + a for m, a in zip(mu, datum.alpha[i]))
            down = tuple(m - a for m, a in zip(mu, datum.alpha[i]))
            p = s.gen(("P", mu))
            p_up = s.gen(("P", up)) if up in weight_set else zero
            p_down = s.gen(("P", down)) if down in weight_set else zero
            if e * p != p_up * e or p * e != e * p_down:
                ok = False
            if f * p != p_down * f or p * f != f * p_up:
                ok = False
    rep.add("relation.weight_shift", ok)

    # (4) divided-power commutation identities, a, b <= depth
    ok = True
    for i in range(r):
        di = datum.d[i]
        for a in range(0, depth + 1):
            ea = s.gen(("E", i, a))
            fa = s.gen(("F", i, a))
            for mu in s.orbit_weights:
                p = s.gen(("P", mu))
                up = tuple(m + a * x for m, x in zip(mu, datum.alpha[i]))
                down = tuple(m - a * x for m, x in zip(mu, datum.alpha[i]))
                p_up = s.gen(("P", up)) if up in weight_set else zero
                p_down = s.gen(("P", down)) if down in weight_set else zero
                if ea * p != p_up * ea or fa * p != p_down * fa:
                    ok = False
        for a in range(1, depth + 1):
            for b in range(1, depth + 1):
                for mu in s.orbit_weights:
                    pairing = datum.pairing(i, mu)
                    p = s.gen(("P", mu))
                    lhs_b = s.gen(("E", i, a)) * s.gen(("F", i, b)) * p
                    lhs_c = s.gen(("F", i, b)) * s.gen(("E", i, a)) * p
                    rhs_b = zero
                    rhs_c = zero
                    for t in range(0, min(a, b) + 1):
                        qb = quantum_binomial(a - b + pairing, t, di)
                        if not qb.is_zero():
                            rhs_b = rhs_b + (
                                s.gen(("F", i, b - t)) * s.gen(("E", i, a - t)) * p
                            ).scale(GENERIC.from_laurent(qb))
                        qc = quantum_binomial(b - a - pairing, t, di)
                        if not qc.is_zero():
                            rhs_c = rhs_c + (
                                s.gen(("E", i, a - t)) * s.gen(("F", i, b - t)) * p
                            ).scale(GENERIC.from_laurent(qc))
                    if lhs_b != rhs_b or lhs_c != rhs_c:
                        ok = False
    rep.add("relation.divided_power_commutation", ok)

    # (5) quantum Serre relations (vacuous in rank 1)
    if r >= 2:
        a_mat = datum.cartan.cartan_matrix()
        ok = True
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                m = 1 - a_mat[i][j]
                for kind in ("E", "F"):
                    gi = s.gen((kind, i, 1))
                    gj = s.gen((kind, j, 1))
                    powers = [s.identity()]
                    for _ in range(m):
                        powers.append(powers[-1] * gi)
                    acc = s.zero()
                    for t in range(m + 1):
                        term = powers[m - t] * gj * powers[t]
                        c = quantum_binomial(m, t, datum.d[i])
                        if t % 2:
                            c = -c
                        acc = acc + term.scale(GENERIC.from_laurent(c))
                    if not acc.is_zero():
                        ok = False
        rep.add("relation.serre", ok)

        # ad-expansion: (ad E_i)^m E_j = sum_t (-1)^t [m; t]_i E^{m-t} E_j E^t
        ok = True
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                m = 1 - a_mat[i][j]
                kb = s.k_bar(i)
                kbi = s.k_bar(i, inverse=True)
                e_i = s.gen(("E", i, 1))
                x = s.gen(("E", j, 1))
                for _ in range(m):
                    x = e_i * x - (kb * x * kbi) * e_i
                expanded = s.zero()
                powers = [s.identity()]
                for _ in range(m):
                    powers.append(powers[-1] * e_i)
                for t in range(m + 1):
                    c = quantum_binomial(m, t, datum.d[i])
                    if t % 2:
                        c = -c
                    expanded = expanded + (
                        powers[m - t] * s.gen(("E", j, 1)) * powers[t]
                    ).scale(GENERIC.from_laurent(c))
                if x != expanded:
                    ok = False
        rep.add("relation.ad_expansion", ok)

    # (6) rank-1 subalgebra relations for each i
    ok = True
    for i in range(r):
        levels = sorted({datum.pairing(i, mu) for mu in s.orbit_weights})
        level_proj = {}
        for n in levels:
            p = zero
            for mu in s.orbit_weights:
                if datum.pairing(i, mu) == n:
                    p = p + s.gen(("P", mu))
            level_proj[n] = p
        total = zero
        for n, p in level_proj.items():
            total = total + p
            for n2, p2 in level_proj.items():
                expect = p if n == n2 else zero
                if p * p2 != expect:
                    ok = False
        if total != ident:
            ok = False
        e, f = s.gen(("E", i, 1)), s.gen(("F", i, 1))
        comm = e * f - f * e
        rhs = zero
        for n, p in level_proj.items():
            c = quantum_integer(n, datum.d[i])
            if not c.is_zero():
                rhs = rhs + p.scale(GENERIC.from_laurent(c))
        if comm != rhs:
            ok = False
        for n, p in level_proj.items():
            p_up = level_proj.get(n + 2, zero)
            p_down = level_proj.get(n - 2, zero)
            if e * p != p_up * e or p * e != e * p_down:
                ok = False
            if f * p != p_down * f or p * f != f * p_up:
                ok = False
    rep.add("relation.rank1_subalgebra", ok)

    # K_h: K_0 = 1, K_h K_h' = K_{h+h'} on deterministic random samples
    rng = random.Random(seed)
    ok = s.k_element([0] * datum.n) == ident
    for _ in range(samples):
        h1 = [rng.randint(-3, 3) for _ in range(datum.n)]
        h2 = [rng.randint(-3, 3) for _ in range(datum.n)]
        if s.k_element(h1) * s.k_element(h2) != s.k_element(
                [a + b for a, b in zip(h1, h2)]):
            ok = False
    rep.add("relation.k_multiplicative", ok)

    # (7) minimal polynomial of K-bar_i over the spectrum +-pi^(i)
    ok = True
    for i in range(r):
        kb = s.k_bar(i)
        spectrum = sorted({datum.pairing(i, mu) for mu in s.orbit_weights}
                          | {-datum.pairing(i, mu) for mu in s.orbit_weights})
        prod = ident
        for n in spectrum:
            prod = prod * (kb - ident.scale(
                GENERIC.from_laurent(LaurentPoly.var(datum.d[i] * n))))
        if not prod.is_zero():
            ok = False
        if s.k_bar(i) * s.k_bar(i, inverse=True) != ident:
            ok = False
    rep.add("relation.kbar_minimal_polynomial", ok)

    return rep


# -- cellularity suite ----------------------------------------------------------


def _flatten(s: SchurAlgebra, bm: BlockMatrix) -> dict:
    """Sparse row of all block entries, keyed by a global column index."""
    out = {}
    base = 0
    for lam in s.flag:
        blk = bm.blocks[lam]
        for i in range(blk.rows):
            for j in range(blk.cols):
                x = blk.entries[i][j]
                if x:
                    out[base + i * blk.cols + j] = x
        base += blk.rows * blk.cols
    return out


def matrix_span_rank(s: SchurAlgebra, mats: list) -> int:
    """Rank of the span of block matrices, by sparse exact elimination."""
    return len(forward_eliminate(_flatten(s, bm) for bm in mats))


def coordinates_of_combo(cm: CellModule, combo: tuple) -> list:
    """Global generic-basis coordinates of a one-weight word combo."""
    vec = {w: c for w, c in combo}
    mu = cm.ctx.weight_of(combo[0][0])
    coords = cm.coordinates(mu, vec)
    out = [GENERIC.zero()] * cm.dim
    off = cm.offset(mu)
    for k, c in enumerate(coords):
        out[off + k] = c
    return out


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
    """
    rep = VerificationReport()
    datum = s.datum
    if elements is None:
        elements = s.cellular_basis(integral=integral)

    count_ok = len(elements) == s.dim
    rank_span = matrix_span_rank(s, [el.matrix for el in elements])
    rep.add("cellular.count", count_ok,
            "%d elements, dim %d" % (len(elements), s.dim))
    rep.add("cellular.independent", rank_span == s.dim,
            "span rank %d of %d" % (rank_span, s.dim))

    ok = True
    for el in elements:
        for mu in s.pi:
            if not datum.dominance_leq(el.lam, mu):
                if not el.matrix.blocks[mu].is_zero():
                    ok = False
    rep.add("cellular.triangular", ok)

    # rank-one structure on the home block: rho_lam(C_{b',b}) = u' (G u)^T
    ok = True
    for lam in s.flag:
        cm = s.modules[lam]
        cell = [el for el in elements if el.lam == lam]
        g, _ = s.full_gram(lam)
        coord_cache: dict = {}

        def coords(combo):
            if combo not in coord_cache:
                coord_cache[combo] = coordinates_of_combo(cm, combo)
            return coord_cache[combo]

        for el in cell:
            u_left = coords(el.left)
            u_right = coords(el.right)
            paired = g.apply(u_right)
            blk = el.matrix.blocks[lam]
            for i in range(cm.dim):
                for j in range(cm.dim):
                    if blk.entries[i][j] != u_left[i] * paired[j]:
                        ok = False
    rep.add("cellular.rank_one_blocks", ok)

    ok = True
    by_pair = {(el.lam, el.left, el.right): el for el in elements}
    for el in elements:
        swapped = by_pair[(el.lam, el.right, el.left)]
        if s.star(el.matrix) != swapped.matrix:
            ok = False
    rep.add("cellular.star_swaps", ok)

    ok = True
    for lam in s.flag:
        for nu in sorted(datum.weyl_orbit(lam)):
            plus, word = datum.dominant_representative(nu)
            sandwich = idempotent_straighten(datum, word, lam)
            w = sandwich.as_divided_word()
            m = s.rho_word("F", w) * s.gen(("P", lam)) * s.rho_word("E", w)
            if m.blocks[lam] != s.gen(("P", nu)).blocks[lam]:
                ok = False
    rep.add("cellular.idempotent_straightening", ok)

    return rep


def rank1_canonical_identity(s: SchurAlgebra, n: int) -> bool:
    """For a rank-1 datum and n in pi: whenever a + b >= n,
    F^{(b)} 1_n E^{(a)} = sum_t [a+b-n; t] E^{(a-t)} 1_{n-2(a+b-t)} F^{(b-t)}
    holds on block (n) (the identity is modulo the ideal above (n))."""
    assert s.datum.rank == 1
    lam = (n,)
    weight_set = set(s.orbit_weights)
    for a in range(0, n + 1):
        for b in range(0, n + 1):
            if a + b < n:
                continue
            lhs = s.gen(("F", 0, b)) * s.gen(("P", lam)) * s.gen(("E", 0, a))
            rhs = s.zero()
            for t in range(0, min(a, b) + 1):
                c = quantum_binomial(a + b - n, t, 1)
                if c.is_zero():
                    continue
                mid = (n - 2 * (a + b - t),)
                if mid not in weight_set:
                    continue
                rhs = rhs + (s.gen(("E", 0, a - t)) * s.gen(("P", mid)) *
                             s.gen(("F", 0, b - t))).scale(GENERIC.from_laurent(c))
            if lhs.blocks[lam] != rhs.blocks[lam]:
                return False
    return True
