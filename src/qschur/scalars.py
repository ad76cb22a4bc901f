"""Exact scalar arithmetic.

Laurent polynomials in v with rational coefficients, rational functions
Q(v), quantum integers / factorials / binomials, and specialization of all
of these into characteristic-zero fields (Q(v) itself, Q at v = q, or the
cyclotomic field Q[v]/Phi_l(v)).  Everything is exact; there is no floating
point anywhere in this module or its consumers.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .errors import DenominatorVanishes, ExactDivisionError

Rat = int | Fraction


class LaurentPoly:
    """A Laurent polynomial sum_e c_e v^e, stored as {exponent: coefficient}.

    Canonical form: no stored coefficient is zero.  Instances are treated as
    immutable; all operations return new objects.  Coefficients are ints or
    Fractions (ints are kept as ints for speed; the two compare and hash
    identically at equal values).
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: dict | None = None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    d[e] = c
        self.coeffs = d
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(c: Rat) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def var(exp: int = 1, coeff: Rat = 1) -> "LaurentPoly":
        """c * v^exp."""
        return LaurentPoly({exp: coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def min_exp(self) -> int:
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        return max(self.coeffs)

    @property
    def span(self) -> int:
        """Euclidean norm on Q[v,v^-1]: highest minus lowest exponent."""
        return self.max_exp - self.min_exp

    def is_unit(self) -> bool:
        """Units of Q[v,v^-1] are the single terms c*v^k."""
        return len(self.coeffs) == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:
            # a single term c*v^k is a shift and scale; 1 is the identity
            term, rest = (a, other) if len(a) == 1 else (b, self)
            ((k, c),) = term.items()
            if k == 0 and c == 1:
                return rest
            out = LaurentPoly.__new__(LaurentPoly)
            out.coeffs = {e + k: c * x for e, x in rest.coeffs.items()}
            out._hash = None
            return out
        d: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        out._hash = None
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: Rat) -> "LaurentPoly":
        if not c:
            return _ZERO
        return LaurentPoly({e: k * c for e, k in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        if k == 0:
            return self
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            # an int and a Fraction of equal value hash alike
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    # -- conversions -------------------------------------------------------

    def evaluate(self, q: Fraction) -> Fraction:
        """Exact value at v = q (q must be nonzero if negative exponents occur)."""
        q = Fraction(q)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q ** e
        return total

    def to_dense(self) -> tuple[int, list]:
        """Return (min_exp, dense coefficient list from min_exp upward)."""
        if not self.coeffs:
            return (0, [])
        lo, hi = self.min_exp, self.max_exp
        dense = [0] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            dense[e - lo] = c
        return (lo, dense)

    @staticmethod
    def from_dense(lo: int, dense: Iterable) -> "LaurentPoly":
        return LaurentPoly({lo + k: c for k, c in enumerate(dense)})

    def unit_normalize(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Write self = unit * monic with monic having lowest exponent 0 and
        leading (top) coefficient 1.  Returns (monic, unit)."""
        if not self.coeffs:
            return (_ZERO, _ONE)
        lo = self.min_exp
        top = self.coeffs[self.max_exp]
        monic = LaurentPoly({e - lo: _quo(c, top) for e, c in self.coeffs.items()})
        return (monic, LaurentPoly({lo: top}))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            neg = c < 0
            c = -c if neg else c
            if e == 0:
                body = _coeff_str(c)
            else:
                vpow = "v" if e == 1 else "v^%d" % e
                body = vpow if c == 1 else "%s*%s" % (_coeff_str(c), vpow)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "LaurentPoly(%s)" % self


def _quo(x: Rat, y: Rat) -> Rat:
    """x / y: an int when the quotient is integral, otherwise a Fraction."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
    f = Fraction(x, y)
    return f.numerator if f.denominator == 1 else f


def _coeff_str(c: Rat) -> str:
    if type(c) is int:
        return str(c)
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


# -- Euclidean arithmetic in Q[v,v^-1] --------------------------------------
#
# The Euclidean norm of a nonzero element is its exponent span; units are the
# single terms c*v^k.  Division is ordinary polynomial division after both
# operands are shifted to have lowest exponent 0.

def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Return (q, r) with a = q*b + r and r = 0 or span(r) < span(b)."""
    if b.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    if a.is_zero():
        return (_ZERO, _ZERO)
    alo, da = a.to_dense()
    blo, db = b.to_dense()
    dq, dr = _dense_divmod(da, db)
    return (LaurentPoly.from_dense(alo - blo, dq), LaurentPoly.from_dense(alo, dr))


def laurent_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = laurent_divmod(a, b)
    if not r.is_zero():
        raise ExactDivisionError("(%s) does not divide (%s)" % (b, a))
    return q


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in Q[v,v^-1], normalized to lowest exponent 0 and top coefficient
    1: 1 at once when both operands are nonzero and one is a single term,
    a unit; otherwise Euclid over Q."""
    if a and b and (len(a.coeffs) == 1 or len(b.coeffs) == 1):
        return _ONE
    while b:
        a, b = b, laurent_divmod(a, b)[1]
    return a.unit_normalize()[0]


class RatFunc:
    """An element of Q(v) in canonical form num/den.

    den is nonzero with gcd(num, den) a unit; den is normalized to lowest
    exponent 0 and leading coefficient 1, so equality is plain comparison
    of the two components.  A denominator equal to 1 is always the shared
    _ONE, so Laurent operands are recognized by identity and their sums,
    differences and products skip the gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(v)")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        g = laurent_gcd(num, den)
        if g != _ONE:
            num = laurent_exact_div(num, g)
            den = laurent_exact_div(den, g)
        monic, unit = den.unit_normalize()
        if unit != _ONE:
            inv_unit = LaurentPoly({-unit.min_exp: _quo(1, unit.coeffs[unit.min_exp])})
            num = num * inv_unit
        self.num = num
        self.den = _ONE if monic.is_unit() else monic

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = p, _ONE
        return out

    @staticmethod
    def zero() -> "RatFunc":
        return _RF_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RF_ONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den is _ONE

    def to_laurent(self) -> LaurentPoly:
        if self.den is not _ONE:
            raise ExactDivisionError("not a Laurent polynomial: %s" % self)
        return self.num

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den is _ONE and other.den is _ONE:
            return RatFunc.from_laurent(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + -other

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den is _ONE and other.den is _ONE:
            return RatFunc.from_laurent(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        return _RF_ONE / self

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den is _ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self) -> str:
        return "RatFunc(%s)" % self


_RF_ZERO = RatFunc.from_laurent(_ZERO)
_RF_ONE = RatFunc.from_laurent(_ONE)


# -- quantum numbers ---------------------------------------------------------

@lru_cache(maxsize=None)
def quantum_integer(n: int, d: int = 1) -> LaurentPoly:
    """[n]_d = (v_d^n - v_d^-n)/(v_d - v_d^-1) with v_d = v^d, expanded.

    Equals v_d^{n-1} + v_d^{n-3} + ... + v_d^{1-n} for n > 0, is 0 at n = 0,
    and satisfies [-n] = -[n].
    """
    if n == 0:
        return _ZERO
    if n < 0:
        return -quantum_integer(-n, d)
    return LaurentPoly({d * (n - 1 - 2 * k): 1 for k in range(n)})


@lru_cache(maxsize=None)
def quantum_factorial(n: int, d: int = 1) -> LaurentPoly:
    """[n]!_d = [1]_d [2]_d ... [n]_d, with [0]! = 1."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    if n == 0:
        return _ONE
    return quantum_factorial(n - 1, d) * quantum_integer(n, d)


@lru_cache(maxsize=None)
def quantum_binomial(a: int, t: int, d: int = 1) -> LaurentPoly:
    """The bracket binomial [a; t]_d, an element of Z[v,v^-1].

    Defined for any integer a and t >= 0 as the product over s = 1..t of
    (v_d^{a-s+1} - v_d^{-a+s-1})/(v_d^s - v_d^{-s}); the denominator always
    clears.  Empty product (t = 0) is 1.  For a >= t this is
    v^(-d t (a-t)) G(v^(2d)) with G(w) the Gaussian binomial, the product of
    (w^(a-s+1) - 1)/(w^s - 1); after step s the running product is the
    Gaussian binomial [a; s], so every division by a binomial is exact.
    As [a; t] = [a; a-t], the product runs over s = 1..min(t, a-t) only.
    For a < 0, [a; t] = (-1)^t [t-a-1; t]; for 0 <= a < t it is 0.
    """
    if t < 0:
        raise ValueError("binomial with negative t")
    if a < 0:
        b = quantum_binomial(t - a - 1, t, d)
        return -b if t & 1 else b
    if a < t:
        return _ZERO
    g = [1]  # dense in w = v^(2d), lowest degree first
    for s in range(1, min(t, a - t) + 1):
        g = _over_binomial(_times_binomial(g, a - s + 1), s)
        if g is None:
            raise ExactDivisionError("[%d; %d] is not a Laurent polynomial" % (a, s))
    lo = -d * t * (a - t)
    return LaurentPoly({lo + 2 * d * k: c for k, c in enumerate(g)})


# -- cyclotomic polynomials --------------------------------------------------

def prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _times_binomial(c: list, d: int) -> list:
    """c * (w^d - 1) on dense coefficient lists, lowest degree first."""
    pad = [0] * d
    return list(map(sub, pad + c, c + pad))


def _over_binomial(c: list, d: int) -> list | None:
    """The exact quotient c / (w^d - 1) on dense coefficient lists, lowest
    degree first, or None when the division leaves a remainder.

    q (w^d - 1) = c gives q_k = q_{k-d} - c_k: minus the running sum of c
    along each residue class mod d.  Run over all of c, the last d sums
    are the remainder."""
    n = len(c)
    q = [0] * n
    for r in range(min(d, n)):
        q[r::d] = accumulate(c[r::d])
    m = max(n - d, 0)
    if any(q[m:]):
        return None
    return [-x for x in q[:m]]


@lru_cache(maxsize=1024)
def _phi_binomials(ell: int) -> tuple:
    """(up, down): Phi_ell(v) is the product of v^D - 1 over D in up divided
    by the product over D in down.

    With r the product of the distinct primes of ell, Phi_ell(v) =
    Phi_r(v^(ell/r)), and Phi_r is the Moebius product of the binomials
    (v^d - 1)^mu(r/d) over d | r.  So D = ell/s for the divisors s of r,
    in up when s has an even number of primes, in down otherwise.
    """
    primes = prime_factors(ell)
    up, down = [], []
    for mask in range(1 << len(primes)):
        d = ell
        for k, p in enumerate(primes):
            if mask >> k & 1:
                d //= p
        (down if bin(mask).count("1") % 2 else up).append(d)
    return tuple(up), tuple(down)


def cyclotomic_polynomial(ell: int) -> LaurentPoly:
    """The ell-th cyclotomic polynomial Phi_ell(v), exact over Z; built on
    each call (_modulus caches the dense form the engine reads).

    No other Phi_d is divided out: Phi_ell is the quotient of binomials
    v^D - 1 given by _phi_binomials, and multiplying or exactly dividing
    by a binomial is one pass over the coefficients.
    """
    if ell < 1:
        raise ValueError("cyclotomic index must be >= 1")
    up, down = _phi_binomials(ell)
    coeffs = [1]  # dense, lowest degree first
    for d in up:
        coeffs = _times_binomial(coeffs, d)
    for d in down:
        coeffs = _over_binomial(coeffs, d)
    return LaurentPoly.from_dense(0, coeffs)


# -- dense Q[x] helpers for the cyclotomic quotient field --------------------

def _dense_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _dense_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _dense_trim(out)


def _dense_divmod(a: list, b: list) -> tuple[list, list]:
    """Long division on dense coefficient lists.  Each quotient coefficient
    is an int when it is integral, so integer inputs stay integer whenever
    b is led by +-1."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = _quo(a[k + len(b) - 1], lead)
        if c:
            q[k] = c
            for j, bc in enumerate(b):
                a[k + j] -= c * bc
    return (_dense_trim(q), _dense_trim(a))


def _dense_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _dense_trim(out)


def _dense_inv_mod(a: list, mod: list) -> list:
    """Inverse of a modulo mod in Q[x] (mod irreducible), by extended Euclid."""
    r0, r1 = list(mod), _dense_trim(list(a))
    if not r1:
        raise ZeroDivisionError("inverting zero residue")
    s0, s1 = [], [1]
    while r1:
        q, r = _dense_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _dense_sub(s0, _dense_mul(q, s1))
    # r0 = gcd, a nonzero constant since mod is irreducible and a is nonzero
    if len(r0) != 1:
        raise ZeroDivisionError("residue not invertible (modulus not irreducible?)")
    c = r0[0]
    return _dense_trim([_quo(x, c) for x in s0])


# -- the cyclotomic field Q[v]/Phi_ell(v) -----------------------------------

@lru_cache(maxsize=None)
def _modulus(ell: int) -> tuple:
    """Dense coefficient tuple of Phi_ell, lowest degree first."""
    return tuple(cyclotomic_polynomial(ell).to_dense()[1])


class Residue:
    """An element of the cyclotomic field Q[v]/Phi_ell(v).

    coeffs lists c_0, c_1, ... of the reduced representative sum c_j v^j
    (degree below that of Phi_ell) without trailing zeros, so equality is
    plain comparison and zero is the empty tuple.
    """

    __slots__ = ("ell", "coeffs")

    def __init__(self, ell: int, coeffs: tuple):
        self.ell = ell
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __sub__(self, other: "Residue") -> "Residue":
        return Residue(self.ell, tuple(_dense_sub(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Residue":
        return Residue(self.ell, tuple(-x for x in self.coeffs))

    def __add__(self, other: "Residue") -> "Residue":
        return self - (-other)

    def __mul__(self, other: "Residue") -> "Residue":
        prod = _dense_mul(self.coeffs, other.coeffs)
        return Residue(self.ell,
                       tuple(_dense_divmod(prod, _modulus(self.ell))[1]))

    def __truediv__(self, other: "Residue") -> "Residue":
        inv = _dense_inv_mod(other.coeffs, _modulus(self.ell))
        return self * Residue(self.ell, tuple(inv))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Residue):
            return NotImplemented
        return self.ell == other.ell and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ell, self.coeffs))

    def __str__(self) -> str:
        return str(LaurentPoly(dict(enumerate(self.coeffs))))

    def __repr__(self) -> str:
        return "Residue(cyclotomic=%d, %s)" % (self.ell, self)


# -- specialization fields ---------------------------------------------------
#
# Each field uses its own scalar type; all three support + - * /, unary -,
# == and bool() (false exactly at zero).

FieldValue = RatFunc | Fraction | Residue

GENERIC = "generic"
RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"


class FieldContext:
    """A characteristic-zero field receiving v.

    kind "generic": Q(v) itself (identity embedding), scalars RatFunc.
    kind "rational": Q with v |-> q, q a nonzero rational; scalars Fraction.
    kind "cyclotomic": Q[v]/Phi_ell(v) with v |-> the residue class,
    ell >= 2; scalars Residue.  Instances are treated as immutable and
    compare and hash by (kind, q, ell).
    """

    __slots__ = ("kind", "q", "ell")

    def __init__(self, kind: str, q: Fraction | None = None,
                 ell: int | None = None):
        self.kind = kind
        self.q = q
        self.ell = ell

    def _key(self) -> tuple:
        return (self.kind, self.q, self.ell)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def generic() -> "FieldContext":
        return FieldContext(GENERIC)

    @staticmethod
    def rational_point(q) -> "FieldContext":
        q = Fraction(q)
        if q == 0:
            raise ValueError("specialization parameter q must be nonzero")
        return FieldContext(RATIONAL, q=q)

    @staticmethod
    def cyclotomic_point(ell: int) -> "FieldContext":
        if ell < 2:
            raise ValueError("cyclotomic order must be >= 2")
        return FieldContext(CYCLOTOMIC, ell=ell)

    def label(self) -> str:
        if self.kind == GENERIC:
            return "generic"
        if self.kind == RATIONAL:
            return "q=%s" % self.q
        return "cyclotomic=%d" % self.ell

    def zero(self) -> FieldValue:
        return self.from_fraction(Fraction(0))

    def one(self) -> FieldValue:
        return self.from_fraction(Fraction(1))

    def from_fraction(self, c) -> FieldValue:
        c = Fraction(c)
        if self.kind == RATIONAL:
            return c
        if c.denominator == 1:
            c = c.numerator
        if self.kind == GENERIC:
            return RatFunc.from_laurent(LaurentPoly.const(c))
        return Residue(self.ell, (c,) if c else ())

    def from_laurent(self, p: LaurentPoly) -> FieldValue:
        if self.kind == GENERIC:
            return RatFunc.from_laurent(p)
        if self.kind == RATIONAL:
            return p.evaluate(self.q)
        ell = self.ell
        acc = [0] * ell
        for e, c in p.coeffs.items():
            acc[e % ell] += c  # v^ell = 1 in Q[v]/Phi_ell
        return Residue(ell, tuple(_dense_divmod(acc, _modulus(ell))[1]))

    def from_ratfunc(self, r: RatFunc) -> FieldValue:
        num = self.from_laurent(r.num)
        if r.den is _ONE:
            return num
        den = self.from_laurent(r.den)
        if not den:
            raise DenominatorVanishes(
                "denominator (%s) vanishes at %s" % (r.den, self.label()))
        return num / den


def specialize(x, ctx: FieldContext) -> FieldValue:
    """Image of a LaurentPoly or RatFunc under v |-> the context's parameter.

    The generic context is the identity embedding.  Raises
    DenominatorVanishes when a RatFunc denominator maps to zero.
    """
    if isinstance(x, LaurentPoly):
        return ctx.from_laurent(x)
    if isinstance(x, RatFunc):
        return ctx.from_ratfunc(x)
    raise TypeError("cannot specialize %r" % (x,))
