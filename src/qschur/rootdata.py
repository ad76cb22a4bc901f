"""Root data, Weyl group combinatorics, and character oracles.

Weights are plain integer tuples in the coordinate system of X.  Presets
realize the simply connected datum: X = Z^r with fundamental-weight
coordinates, so <alpha_i^vee, mu> = mu_i and alpha_j has coordinates
(a_ij)_i.  Arbitrary root data are accepted through explicit matrices.

The character side carries two independent oracles: Freudenthal's
multiplicity recursion and the Weyl dimension product formula.  Their
agreement is one of the engine's standing cross-checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add

from .errors import (
    CapExceededError,
    InconsistentCharactersError,
    NonDominantSeedError,
    NotFiniteTypeError,
    PairingMismatchError,
)
from .linalg import forward_eliminate, reduced_echelon

Weight = tuple  # tuple[int, ...] in X coordinates


class CartanDatum:
    """A finite-type Cartan datum (I, .) with I = range(r).

    dot is the symmetric matrix (i.j); d_i = (i.i)/2 is the symmetrizer,
    and a_ij = (i.j)/d_i is the Cartan matrix.
    """

    __slots__ = ("dot",)

    def __init__(self, dot: tuple):
        self.dot = dot  # tuple of tuples of ints
        r = len(self.dot)
        for i in range(r):
            if len(self.dot[i]) != r:
                raise ValueError("dot matrix not square")
            if self.dot[i][i] <= 0 or self.dot[i][i] % 2:
                raise NotFiniteTypeError("i.i must lie in {2,4,6,...}")
            for j in range(r):
                if self.dot[i][j] != self.dot[j][i]:
                    raise NotFiniteTypeError("dot matrix not symmetric")
                if i != j:
                    a = Fraction(2 * self.dot[i][j], self.dot[i][i])
                    if a > 0 or a.denominator != 1:
                        raise NotFiniteTypeError(
                            "2(i.j)/(i.i) must be a nonpositive integer")
        if not _positive_definite(self.dot):
            raise NotFiniteTypeError("symmetrized Cartan matrix not positive definite")

    @property
    def rank(self) -> int:
        return len(self.dot)

    @property
    def d(self) -> tuple:
        return tuple(self.dot[i][i] // 2 for i in range(self.rank))

    def cartan_matrix(self) -> tuple:
        d = self.d
        return tuple(tuple(self.dot[i][j] // d[i] for j in range(self.rank))
                     for i in range(self.rank))


def _positive_definite(dot) -> bool:
    """Sylvester's criterion for the (integer) symmetric matrix.

    While the leading principal minors are nonzero, forward elimination
    pivots row k at column k, and the k-th minor is the product of the
    first k pivots; so all minors are positive iff every pivot is.
    """
    reduced = forward_eliminate(
        {j: Fraction(x) for j, x in enumerate(row) if x} for row in dot)
    return len(reduced) == len(dot) and \
        all(min(row) == k and row[k] > 0 for k, (_, row) in enumerate(reduced))


class RootDatum:
    """A root datum (X, Pi, X^vee, Pi^vee) of finite type.

    alpha[i] and alphav[i] are the coordinate vectors of the simple roots
    and coroots; the pairing <h, mu> is the standard dot product of
    coordinate vectors.  Immutable; the positive roots and the Weyl order
    are computed at construction, and Weyl orbits are cached per weight.
    """

    def __init__(self, cartan: CartanDatum, n: int, alpha: tuple, alphav: tuple,
                 name: str = "explicit"):
        self.cartan = cartan
        self.n = n
        self.alpha = tuple(tuple(v) for v in alpha)
        self.alphav = tuple(tuple(v) for v in alphav)
        self.name = name
        r = cartan.rank
        a = cartan.cartan_matrix()
        for i in range(r):
            for j in range(r):
                if _dot(self.alphav[i], self.alpha[j]) != a[i][j]:
                    raise PairingMismatchError(
                        "<alpha_%d^vee, alpha_%d> != a_%d%d" % (i, j, i, j))
        self.d = cartan.d
        self._orbit_cache: dict = {}
        self._alpha_rows = _alpha_rows(self.alpha, n)
        self.positive_roots = self._find_positive_roots()
        self.weyl_order = _order_from_heights(
            coords for _, coords in self.positive_roots)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    # -- the basic action ---------------------------------------------------

    def pairing(self, i: int, mu: Weight) -> int:
        """<alpha_i^vee, mu>."""
        return _dot(self.alphav[i], mu)

    def reflect(self, i: int, mu: Weight) -> Weight:
        """s_i(mu) = mu - <alpha_i^vee, mu> alpha_i."""
        c = self.pairing(i, mu)
        if c == 0:
            return tuple(mu)
        return tuple(m - c * a for m, a in zip(mu, self.alpha[i]))

    def is_dominant(self, mu: Weight) -> bool:
        return all(self.pairing(i, mu) >= 0 for i in range(self.rank))

    def weyl_orbit(self, mu: Weight) -> frozenset:
        mu = tuple(mu)
        cached = self._orbit_cache.get(mu)
        if cached is not None:
            return cached
        seen = {mu}
        frontier = [mu]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rank):
                    w2 = self.reflect(i, w)
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
            frontier = nxt
        out = frozenset(seen)
        self._orbit_cache[mu] = out
        return out

    def dominant_representative(self, mu: Weight) -> tuple:
        """The dominant weight in W mu, and a word (j_1,...,j_k) such that
        mu = s_{j_k}(... s_{j_1}(mu+) ...), i.e. the reflections carry mu+
        to mu when applied in list order.  The word is reduced, with every
        straightening exponent positive.
        """
        nu = tuple(mu)
        word = []
        while True:
            for i in range(self.rank):
                if self.pairing(i, nu) < 0:
                    word.append(i)
                    nu = self.reflect(i, nu)
                    break
            else:
                break
        word.reverse()
        return nu, tuple(word)

    def w0(self, mu: Weight) -> Weight:
        """Image of mu under the longest Weyl element."""
        plus, _ = self.dominant_representative(tuple(-x for x in mu))
        return tuple(-x for x in plus)

    def alpha_coords(self, nu: Weight):
        """Coefficients c with nu = sum c_j alpha_j, or None if outside the
        root space; exact rationals."""
        sol = [Fraction(0)] * len(self.alpha)
        for p, den, e in self._alpha_rows:
            value = sum(x * nu[k] for k, x in e)
            if p is not None:
                sol[p] = Fraction(value, den)
            elif value:
                return None
        return tuple(sol)

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """mu <= lam in dominance: lam - mu is a nonnegative integral
        combination of simple roots.  Integer arithmetic only."""
        diff = tuple(a - b for a, b in zip(lam, mu))
        for p, den, e in self._alpha_rows:
            value = sum(x * diff[k] for k, x in e)
            if p is None:
                if value:
                    return False
            elif value < 0 or value % den:
                return False
        return True

    # -- eager caches -------------------------------------------------------

    def _find_positive_roots(self) -> tuple:
        roots = set()
        for i in range(self.rank):
            roots |= self.weyl_orbit(self.alpha[i])
        pos = []
        for rt in roots:
            coords = self.alpha_coords(rt)
            assert coords is not None
            if all(c >= 0 for c in coords):
                pos.append((rt, tuple(int(c) for c in coords)))
        pos.sort(key=lambda rc: (sum(rc[1]), rc[0]))
        return tuple(pos)

    def orbit_size(self, mu: Weight) -> int:
        """|W mu| for dominant mu, without enumerating the orbit: the
        stabilizer is the parabolic subgroup of the simple reflections
        fixing mu, whose positive roots are those supported on them."""
        fixed = {i for i in range(self.rank) if self.pairing(i, mu) == 0}
        return self.weyl_order // _order_from_heights(
            coords for _, coords in self.positive_roots
            if all(c == 0 or j in fixed for j, c in enumerate(coords)))

    # -- character oracles --------------------------------------------------

    def freudenthal_character(self, lam: Weight) -> dict:
        """Weight multiplicities of the irreducible of highest weight lam,
        by Freudenthal's recursion.  Exact; keys are weights, values
        positive ints.

        Each positive root alpha = sum c_j alpha_j has the form vector
        f = sum c_j d_j alpha_j^vee, with (alpha, mu) = f . mu since
        (alpha_j, mu) = d_j <alpha_j^vee, mu>; the vectors, (alpha, alpha)
        and lam's pairings are computed once, and the string mu + k alpha
        is walked by adding alpha.  A recursion whose sum is not an exact
        nonnegative multiple raises InconsistentCharactersError."""
        lam = tuple(lam)
        if not self.is_dominant(lam):
            raise NonDominantSeedError("highest weight must be dominant")
        d = self.d
        # (lam+2rho, alpha_j) = d_j (<alpha_j^vee, lam> + 2)
        lam_rho = [dj * (self.pairing(j, lam) + 2) for j, dj in enumerate(d)]
        roots = []
        for rt, rc in self.positive_roots:
            f = tuple(sum(c * d[j] * self.alphav[j][k]
                          for j, c in enumerate(rc) if c)
                      for k in range(self.n))
            roots.append((rt, sum(rc), f, _dot(f, rt)))
        # descend from lam by simple roots, carrying the root coordinates of
        # lam - mu: each weight mu != lam has a weight mu + alpha_j one level
        # up, and the recursion gives 0 on candidates that are not weights
        mult = {lam: 1}
        level = [(lam, (0,) * self.rank)]
        h = 0
        while level:
            h += 1
            candidates = {}
            for mu, n_vec in level:
                for j, aj in enumerate(self.alpha):
                    nu = tuple(m - a for m, a in zip(mu, aj))
                    if nu not in candidates:
                        candidates[nu] = n_vec[:j] + (n_vec[j] + 1,) + n_vec[j + 1:]
            level = []
            for mu in sorted(candidates):
                dcoords = candidates[mu]
                # c = (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
                c = sum(nj * (lam_rho[j] + d[j] * self.pairing(j, mu))
                        for j, nj in enumerate(dcoords) if nj)
                acc = 0
                for rt, ht, f, norm in roots:
                    form = _dot(f, mu)
                    nu = mu
                    for k in range(1, h // ht + 1):
                        nu = tuple(map(add, nu, rt))
                        m_nu = mult.get(nu, 0)
                        if m_nu:
                            acc += m_nu * (form + k * norm)
                if c == 0:
                    if acc:
                        raise InconsistentCharactersError(
                            "Freudenthal sum %d at mu = %r is not 0, where "
                            "(lam+rho, lam+rho) = (mu+rho, mu+rho), for "
                            "lambda = %r" % (acc, mu, lam))
                    continue
                q, rem = divmod(2 * acc, c)
                if rem or q < 0:
                    raise InconsistentCharactersError(
                        "Freudenthal multiplicity 2*%d/%d at mu = %r is not "
                        "a nonnegative integer, for lambda = %r"
                        % (acc, c, mu, lam))
                if q:
                    mult[mu] = q
                    level.append((mu, dcoords))
        return mult

    def weyl_dimension(self, lam: Weight) -> int:
        """dim of the irreducible of highest weight lam by the Weyl product
        formula prod (lam+rho, alpha)/(rho, alpha); independent of the
        Freudenthal recursion."""
        lam = tuple(lam)
        if not self.is_dominant(lam):
            raise NonDominantSeedError("highest weight must be dominant")
        num = Fraction(1)
        for _, rc in self.positive_roots:
            top = sum(c * dj * (self.pairing(j, lam) + 1)
                      for j, (c, dj) in enumerate(zip(rc, self.d)))
            bot = sum(c * dj for j, (c, dj) in enumerate(zip(rc, self.d)))
            num *= Fraction(top, bot)
        if num.denominator != 1:
            raise InconsistentCharactersError(
                "Weyl dimension %s is not an integer, for lambda = %r"
                % (num, lam))
        return num.numerator

    def __repr__(self):
        return "RootDatum(%s, rank %d)" % (self.name, self.rank)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _alpha_rows(alpha: tuple, n: int) -> tuple:
    """Precompute a solve for nu = sum c_j alpha_j over Q, in integers.

    The reduced echelon rows of [A | I], A with the alpha vectors as
    columns, are [U | E] with E A = U.  A row with its pivot p inside A
    gives c_p = E_row . nu (free coordinates are zero); a row with its
    pivot past A states the consistency condition E_row . nu = 0.  Each
    row is kept as (p, den, ((k, num), ...)) with E_row = num / den, the
    numerators integers and den > 0; p is None for a consistency row.
    """
    r = len(alpha)
    rows = ({**{j: Fraction(alpha[j][k]) for j in range(r) if alpha[j][k]},
             r + k: Fraction(1)} for k in range(n))
    out = []
    for p, row in reduced_echelon(rows, Fraction(1)):
        e = [(c - r, x) for c, x in row.items() if c >= r]
        den = lcm(*(x.denominator for _, x in e))
        out.append((p if p < r else None, den,
                    tuple((k, int(x * den)) for k, x in e)))
    return tuple(out)


# -- presets -----------------------------------------------------------------

def _preset_cartan(series: str, r: int) -> tuple:
    """The Cartan matrix of the standard series."""
    if r < 1:
        raise ValueError("rank must be positive")

    def chain(rnk):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(rnk)] for i in range(rnk)]

    if series == "A":
        return chain(r)
    if series == "B":
        if r < 2:
            raise ValueError("B requires rank >= 2")
        a = chain(r)
        a[r - 1][r - 2] = -2  # short alpha_r; its row carries the -2
        return a
    if series == "C":
        if r < 2:
            raise ValueError("C requires rank >= 2")
        a = chain(r)
        a[r - 2][r - 1] = -2
        return a
    if series == "D":
        if r < 3:
            raise ValueError("D requires rank >= 3")
        a = chain(r)
        a[r - 1][r - 2] = a[r - 2][r - 1] = 0
        a[r - 1][r - 3] = a[r - 3][r - 1] = -1
        return a
    if series == "E":
        if r not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        # Bourbaki: chain 1-3-4-5-...-r with node 2 attached to node 4
        a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
        edges = [(0, 2), (1, 3)] + [(k, k + 1) for k in range(2, r - 1)]
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        return a
    if series == "F":
        if r != 4:
            raise ValueError("F requires rank 4")
        a = chain(4)
        a[2][1] = -2  # short alpha_3 adjacent to long alpha_2
        a[1][2] = -1
        return a
    if series == "G":
        if r != 2:
            raise ValueError("G requires rank 2")
        return [[2, -3], [-1, 2]]
    raise ValueError("unknown series %r" % series)


def parse_preset(preset: str, rank: int | None = None) -> tuple:
    """Parse e.g. 'A2', 'B3', 'A1xA1', or a series letter plus a separate
    rank, into (name, [(series, rank), ...]).  A separate rank must equal
    the preset's own.  Builds no matrix, so a caller can check the rank
    before construction."""
    if rank is not None and len(preset) == 1:
        preset = "%s%d" % (preset, rank)
    factors = []
    for part in preset.replace(" ", "").split("x"):
        if len(part) < 2 or part[0].upper() not in "ABCDEFG":
            raise ValueError("bad preset %r" % preset)
        factors.append((part[0].upper(), int(part[1:])))
    total = sum(r for _, r in factors)
    if rank is not None and rank != total:
        raise ValueError("preset %r has rank %d, not %d" % (preset, total, rank))
    return preset, factors


def build_root_datum(preset: str | None = None, rank: int | None = None,
                     cartan=None, alpha=None, alphav=None) -> RootDatum:
    """Construct a root datum from a preset name or explicit matrices.

    A preset ("A2", "B3", ..., products like "A1xA1"; or series letter plus
    separate rank) is the simply connected datum: its block-diagonal Cartan
    matrix, alpha the columns of that matrix and alphav the identity.
    Presets and explicit cartan/alpha/alphav rows then share one
    construction: the minimal symmetrizer of each connected component, the
    symmetrized matrix (i.j) = d_i a_ij, and the pairing axiom checked.
    """
    name = "explicit"
    if preset is not None:
        name, factors = parse_preset(preset, rank)
        total = sum(r for _, r in factors)
        cartan = [[0] * total for _ in range(total)]
        off = 0
        for series, r in factors:
            for i, row in enumerate(_preset_cartan(series, r)):
                cartan[off + i][off:off + r] = row
            off += r
        alpha = [[row[j] for row in cartan] for j in range(total)]
        alphav = [[int(i == j) for i in range(total)] for j in range(total)]
    elif cartan is None or alpha is None or alphav is None:
        raise ValueError("need a preset or explicit cartan/alpha/alphav")
    a = [list(map(int, row)) for row in cartan]
    d = _minimal_symmetrizer(a)
    dot = tuple(tuple(d[i] * a[i][j] for j in range(len(a))) for i in range(len(a)))
    return RootDatum(CartanDatum(dot), len(alpha[0]), tuple(map(tuple, alpha)),
                     tuple(map(tuple, alphav)), name=name)


def _minimal_symmetrizer(a) -> list:
    """Minimal positive integers d with d_i a_ij = d_j a_ji, per connected
    component: a walk from the component's first node fixes the ratios
    d_j / d_i = a_ij / a_ji, which are cleared of denominators and divided
    by their gcd within the component."""
    r = len(a)
    d = [None] * r
    for start in range(r):
        if d[start] is not None:
            continue
        ratio = {start: Fraction(1)}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i != j and a[i][j]:
                    if not a[j][i]:
                        raise NotFiniteTypeError(
                            "Cartan matrix is not symmetrizable")
                    val = ratio[i] * Fraction(a[i][j], a[j][i])
                    if j not in ratio:
                        ratio[j] = val
                        stack.append(j)
                    elif ratio[j] != val:
                        raise NotFiniteTypeError("Cartan matrix is not symmetrizable")
        denom = lcm(*(x.denominator for x in ratio.values()))
        ints = {j: int(x * denom) for j, x in ratio.items()}
        g = reduce(gcd, ints.values())
        for j, x in ints.items():
            d[j] = x // g
    return d


def _order_from_heights(positive_root_coords) -> int:
    """|W| = prod (e + 1) over the exponents e.  The number of exponents
    >= k is the number n_k of positive roots of height k (Kostant;
    Humphreys, Reflection Groups and Coxeter Groups, 3.20), so k is an
    exponent n_k - n_{k+1} times."""
    heights = Counter(sum(coords) for coords in positive_root_coords)
    order = 1
    for k, n_k in heights.items():
        order *= (k + 1) ** (n_k - heights.get(k + 1, 0))
    return order


# -- saturated sets and flags ------------------------------------------------

class SaturatedSet:
    """A finite saturated set of dominant weights, sorted lexicographically."""

    __slots__ = ("datum", "elements")

    def __init__(self, datum: RootDatum, elements: tuple):
        self.datum = datum
        self.elements = elements

    def __contains__(self, mu) -> bool:
        return tuple(mu) in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def orbit_weights(self) -> frozenset:
        """W pi: the union of the Weyl orbits of the elements."""
        out = set()
        for mu in self.elements:
            out |= self.datum.weyl_orbit(mu)
        return frozenset(out)


def saturate(datum: RootDatum, seeds,
             orbit_cap: int | None = None) -> SaturatedSet:
    """Smallest saturated set containing the given dominant seeds.

    Descends from each seed over dominant weights by positive roots: every
    dominant mu <= lam is reached by such a chain (Stembridge, Adv. Math.
    136 (1998), Cor. 2.7).  With orbit_cap, raise CapExceededError as soon
    as |W pi| exceeds it.  Distinct dominant weights have disjoint orbits,
    so |W pi| is the sum of |W mu| over the dominant mu found so far.
    """
    found = set()
    orbit_total = 0
    for lam in seeds:
        lam = tuple(lam)
        if not datum.is_dominant(lam):
            raise NonDominantSeedError("seed %r is not dominant" % (lam,))
        stack = [lam]
        while stack:
            mu = stack.pop()
            if mu in found:
                continue
            found.add(mu)
            if orbit_cap is not None:
                orbit_total += datum.orbit_size(mu)
                if orbit_total > orbit_cap:
                    raise CapExceededError(
                        "|W pi| exceeds cap %d (raise caps.orbit to override)"
                        % orbit_cap)
            for rt, _ in datum.positive_roots:
                nu = tuple(m - r for m, r in zip(mu, rt))
                if nu not in found and datum.is_dominant(nu):
                    stack.append(nu)
    return SaturatedSet(datum, tuple(sorted(found)))


class CosaturatedFlag:
    """A total order lam_1, ..., lam_m of a saturated set such that every
    prefix is successor-closed (lam_i > lam_j in dominance forces i < j)."""

    __slots__ = ("datum", "ordering")

    def __init__(self, datum: RootDatum, ordering: tuple):
        self.datum = datum
        self.ordering = ordering

    def __iter__(self):
        return iter(self.ordering)

    def __len__(self):
        return len(self.ordering)


def build_flag(pi: SaturatedSet) -> CosaturatedFlag:
    """Repeatedly remove the lexicographically least maximal element.

    Kahn's algorithm over positive-root steps nu -> nu - beta inside pi.
    The removed weights are closed upward, so every weight between mu and a
    remaining larger weight remains; Stembridge's chain of root steps
    inside pi (Adv. Math. 136 (1998), Cor. 2.7) then makes "a larger weight
    remains" the same test as "a root-step predecessor remains".
    """
    datum = pi.datum
    elements = set(pi.elements)
    below = {mu: [] for mu in pi.elements}
    above = dict.fromkeys(pi.elements, 0)
    for nu in pi.elements:
        for rt, _ in datum.positive_roots:
            mu = tuple(n - r for n, r in zip(nu, rt))
            if mu in elements:
                below[nu].append(mu)
                above[mu] += 1
    ready = {mu for mu, count in above.items() if not count}
    ordering = []
    while ready:
        pick = min(ready)
        ready.remove(pick)
        ordering.append(pick)
        for mu in below[pick]:
            above[mu] -= 1
            if not above[mu]:
                ready.add(mu)
    return CosaturatedFlag(datum, tuple(ordering))
