"""Symbolic straightening in highest-weight modules.

A divided word ((i1,a1),...,(ir,ar)) denotes the vector
F_{ir}^{(ar)} ... F_{i1}^{(a1)} x0 in the module Delta(lambda): the first
listed factor acts first.  The module never materializes an ambient
algebra; everything reduces to three exact operations on words:

  * concat_divided  -- multiply by one more F_i^{(a)} on the left,
  * push_E_through  -- expand E_j^{(a)} applied to a word, by commuting
    the divided E past each F factor with the binomial commutation
    identity,
  * gram_entry      -- the contravariant form c_{B,D}, by the recursion
    phi(B, D + F_j^{(a)}) = phi(E_j^{(a)} B, D) = sum_w c_w phi(w, D),
    with {w: c_w} = push_E_through(j, a, B), down to phi(B, ()) = [B == ()].
    It always peels the outer factor of the shorter word, and each pair is
    memoized once per module, the form being symmetric.

Words whose prefix weights leave W pi_lambda are identically zero in
Delta(lambda).  Every term of an image has one weight, and that weight
alone decides whether the image is zero or holds only alive words.
"""

from __future__ import annotations

from .errors import NonReducedWordError
from .linalg import add_scaled
from .rootdata import RootDatum, Weight, saturate
from .scalars import LaurentPoly, quantum_binomial

Word = tuple  # tuple[tuple[int, int], ...], adjacent indices distinct

EMPTY_WORD: Word = ()


class ModuleContext:
    """Ambient data for Delta(lambda): the weight set W pi_lambda of the
    saturated hull pi_lambda, and the memo caches of straightening and of
    the contravariant form."""

    def __init__(self, datum: RootDatum, lam: Weight):
        lam = tuple(lam)
        self.datum = datum
        self.lam = lam
        self.weights = saturate(datum, [lam]).orbit_weights()
        self._push_memo: dict = {}
        self._gram_memo: dict = {}

    def weight_of(self, word: Word) -> Weight:
        wt = word_weight(self.datum, word)
        return tuple(l - w for l, w in zip(self.lam, wt))


def word_weight(datum: RootDatum, word: Word) -> Weight:
    """wt(B) = sum a_k alpha_{i_k}, in X coordinates."""
    out = [0] * datum.n
    for i, a in word:
        for k in range(datum.n):
            out[k] += a * datum.alpha[i][k]
    return tuple(out)


def concat_divided(datum: RootDatum, word: Word, i: int, a: int) -> tuple:
    """F_i^{(a)} * (word), as (new_word, coefficient).

    Merging with a trailing factor of the same index picks up the
    quantum binomial forced by F^{(a)} F^{(b)} = [a+b; a] F^{(a+b)}.
    """
    assert a >= 1
    if word and word[-1][0] == i:
        b = word[-1][1]
        coeff = quantum_binomial(a + b, a, datum.d[i])
        return (word[:-1] + ((i, a + b),), coeff)
    return (word + ((i, a),), LaurentPoly.one())


def _append(datum: RootDatum, i: int, a: int, vec: dict) -> dict:
    """F_i^{(a)} applied to a word vector, with no liveness test.  Distinct
    words stay distinct, so no two terms merge."""
    out = {}
    for word, coeff in vec.items():
        w, c = concat_divided(datum, word, i, a)
        out[w] = coeff * c
    return out


def _shift(mu: Weight, a: int, root) -> Weight:
    return tuple(m + a * x for m, x in zip(mu, root))


def push_E_through(ctx: ModuleContext, j: int, a: int, word: Word) -> dict:
    """The exact expansion of E_j^{(a)} . (word x0) in Delta(lambda).

    Returns {word: LaurentPoly}; coefficients are quantum binomials, so
    they stay in Z[v,v^-1].  Every term has the weight wt(word x0) +
    a alpha_j: the image is empty when that weight leaves W pi_lambda (as
    for x0, lambda being maximal), and otherwise holds only alive words.
    """
    if a == 0:
        return {word: LaurentPoly.one()}
    key = (j, a, word)
    memo = ctx._push_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    datum = ctx.datum
    mu = ctx.weight_of(word)
    out: dict = {}
    if _shift(mu, a, datum.alpha[j]) in ctx.weights:
        (i, c), prefix = word[-1], word[:-1]
        if i != j:
            # E_j commutes with F_i; re-append the F factor afterwards
            out = _append(datum, i, c, push_E_through(ctx, j, a, prefix))
        else:
            # E_j^{(a)} F_j^{(c)} 1_nu expansion at the prefix weight nu
            pair = datum.pairing(j, _shift(mu, c, datum.alpha[j]))
            for t in range(0, min(a, c) + 1):
                qb = quantum_binomial(a - c + pair, t, datum.d[j])
                if qb:
                    below = push_E_through(ctx, j, a - t, prefix)
                    add_scaled(out, qb, _append(datum, j, c - t, below)
                               if c > t else below)
    memo[key] = out
    return out


def push_E_through_vector(ctx: ModuleContext, j: int, a: int, vec: dict) -> dict:
    out: dict = {}
    for word, coeff in vec.items():
        add_scaled(out, coeff, push_E_through(ctx, j, a, word))
    return out


def concat_divided_vector(ctx: ModuleContext, i: int, a: int, vec: dict) -> dict:
    """F_i^{(a)} applied to a vector of alive words of a single weight mu:
    zero unless mu - a alpha_i is in W pi_lambda."""
    if not vec or _shift(ctx.weight_of(next(iter(vec))), -a,
                         ctx.datum.alpha[i]) not in ctx.weights:
        return {}
    return _append(ctx.datum, i, a, vec)


def gram_entry(ctx: ModuleContext, b: Word, d: Word) -> LaurentPoly:
    """c_{B,D}: the scalar with 1_mu (F_D)* F_B 1_mu = c_{B,D} 1_mu.

    Zero unless wt(B) = wt(D), that is, unless both words have the same
    exponent sum at every index (the simple roots are independent).  By
    contravariance, phi(B, D' + ((j, a),)) = phi(E_j^{(a)} B, D'), so the
    outer factor of the shorter word is peeled off and E_j^{(a)} pushed
    through the other: the entry is one memoized push and a dot product
    with entries one weight higher, down to phi(B, ()) = [B == ()].
    """
    key = _pair_key(b, d)
    hit = ctx._gram_memo.get(key)
    if hit is not None:
        return hit
    rank = ctx.datum.rank
    if _exponent_sums(rank, b) != _exponent_sums(rank, d):
        return LaurentPoly.zero()
    return _pairing(ctx, key)


def _exponent_sums(rank: int, word: Word) -> list:
    sums = [0] * rank
    for i, a in word:
        sums[i] += a
    return sums


def _pair_key(b: Word, d: Word) -> tuple:
    """The two words, shorter first, ties broken by the factor sequence."""
    return (b, d) if (len(b), b) <= (len(d), d) else (d, b)


def _pairing(ctx: ModuleContext, key: tuple) -> LaurentPoly:
    """phi(s, t) for a _pair_key (s, t) of two words of one weight,
    memoized under that key."""
    memo = ctx._gram_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    s, t = key
    if not s:
        out = LaurentPoly.one() if not t else LaurentPoly.zero()
    else:
        (j, a), rest = s[-1], s[:-1]
        out = LaurentPoly.zero()
        for w, c in push_E_through(ctx, j, a, t).items():
            p = _pairing(ctx, _pair_key(rest, w))
            if p:
                out = out + c * p
    memo[key] = out
    return out


class IdempotentSandwich:
    """The data of 1_{w(lam)} = F_{i_r}^{(a_r)}...F_{i_1}^{(a_1)} 1_lam
    E_{i_1}^{(a_1)}...E_{i_r}^{(a_r)} (modulo the ideal above lam)."""

    __slots__ = ("word", "exponents", "end_weight")

    def __init__(self, word: tuple, exponents: tuple, end_weight: Weight):
        self.word = word  # (i_1, ..., i_r), first reflection applied first
        self.exponents = exponents  # (a_1, ..., a_r)
        self.end_weight = end_weight

    def as_divided_word(self) -> Word:
        """The F side as a divided word, exponent-zero steps dropped."""
        return tuple((i, a) for i, a in zip(self.word, self.exponents) if a > 0)


def idempotent_straighten(datum: RootDatum, word, lam: Weight) -> IdempotentSandwich:
    """Exponents a_j = <alpha_{i_j}^vee, s_{i_{j-1}}...s_{i_1}(lam)> along a
    reduced word; a negative exponent detects a non-reduced word."""
    lam = tuple(lam)
    cur = lam
    exps = []
    for i in word:
        a = datum.pairing(i, cur)
        if a < 0:
            raise NonReducedWordError(
                "word %r is not reduced for weight %r" % (tuple(word), lam))
        exps.append(a)
        cur = datum.reflect(i, cur)
    return IdempotentSandwich(tuple(word), tuple(exps), cur)
