"""Symbolic straightening in highest-weight modules.

A divided word ((i1,a1),...,(ir,ar)) denotes the vector
F_{ir}^{(ar)} ... F_{i1}^{(a1)} x0 in the module Delta(lambda): the first
listed factor acts first.  The module never materializes an ambient
algebra; everything reduces to three exact operations on words:

  * concat_divided  -- multiply by one more F_i^{(a)} on the left,
  * push_E_through  -- expand E_j^{(a)} applied to a word, by commuting
    the divided E past each F factor with the binomial commutation
    identity, dropping terms that die against the 1_mu = 0 convention,
  * gram_entry      -- the contravariant form c_{B,D}, by the recursion
    phi(B, D + F_j^{(a)}) = phi(E_j^{(a)} B, D) = sum_w c_w phi(w, D),
    with {w: c_w} = push_E_through(j, a, B), down to phi(B, ()) = [B == ()].
    It always peels the outer factor of the shorter word, and each pair is
    memoized once per module, the form being symmetric.

Words whose prefix weights leave W pi_lambda are identically zero in
Delta(lambda); they are discarded eagerly at every step.
"""

from __future__ import annotations

from .errors import NonReducedWordError
from .rootdata import RootDatum, SaturatedSet, Weight, saturate
from .scalars import LaurentPoly, quantum_binomial

Word = tuple  # tuple[tuple[int, int], ...], adjacent indices distinct

EMPTY_WORD: Word = ()


class ModuleContext:
    """Ambient data for Delta(lambda): the saturated hull pi_lambda, the
    weight set W pi_lambda, and the memo caches of straightening and of
    the contravariant form."""

    def __init__(self, datum: RootDatum, lam: Weight):
        lam = tuple(lam)
        self.datum = datum
        self.lam = lam
        self.pi_lambda: SaturatedSet = saturate(datum, [lam])
        self.weights = self.pi_lambda.orbit_weights()
        depth = datum.alpha_coords(
            tuple(a - b for a, b in zip(lam, datum.w0(lam))))
        assert all(c.denominator == 1 and c >= 0 for c in depth)
        self.max_depth = int(sum(depth))
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


def is_alive(ctx: ModuleContext, word: Word) -> bool:
    """True iff every prefix weight lambda - wt(prefix) stays in W pi_lambda.

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


def _alive_extension(ctx: ModuleContext, word: Word, i: int, a: int):
    """concat_divided, or None when the extended word dies."""
    new_word, coeff = concat_divided(ctx.datum, word, i, a)
    if ctx.weight_of(new_word) not in ctx.weights:
        return None
    return new_word, coeff


def push_E_through(ctx: ModuleContext, j: int, a: int, word: Word) -> dict:
    """The exact expansion of E_j^{(a)} . (word x0) in Delta(lambda).

    Returns {word: LaurentPoly}; coefficients are quantum binomials, so
    they stay in Z[v,v^-1].  A positive E power reaching x0 is exactly
    zero (lambda is maximal in pi_lambda), and dead words are dropped.
    """
    if a == 0:
        return {word: LaurentPoly.one()}
    key = (j, a, word)
    memo = ctx._push_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    if word:
        (i, c) = word[-1]
        prefix = word[:-1]
        if i != j:
            # E_j commutes with F_i; re-append the F factor afterwards
            for w, coeff in push_E_through(ctx, j, a, prefix).items():
                ext = _alive_extension(ctx, w, i, c)
                if ext is None:
                    continue
                w2, mc = ext
                _accumulate(out, w2, coeff * mc)
        else:
            # E_j^{(a)} F_j^{(c)} 1_nu expansion at the intermediate weight
            nu = ctx.weight_of(prefix)
            pair = ctx.datum.pairing(j, nu)
            for t in range(0, min(a, c) + 1):
                qb = quantum_binomial(a - c + pair, t, ctx.datum.d[j])
                if qb.is_zero():
                    continue
                for w, coeff in push_E_through(ctx, j, a - t, prefix).items():
                    if c - t > 0:
                        ext = _alive_extension(ctx, w, j, c - t)
                        if ext is None:
                            continue
                        w2, mc = ext
                        _accumulate(out, w2, qb * mc * coeff)
                    else:
                        _accumulate(out, w, qb * coeff)
    out = {w: p for w, p in out.items() if not p.is_zero()}
    memo[key] = out
    return out


def _accumulate(acc: dict, word: Word, poly: LaurentPoly) -> None:
    cur = acc.get(word)
    acc[word] = poly if cur is None else cur + poly


def push_E_through_vector(ctx: ModuleContext, j: int, a: int, vec: dict) -> dict:
    out: dict = {}
    for word, coeff in vec.items():
        for w, p in push_E_through(ctx, j, a, word).items():
            _accumulate(out, w, coeff * p)
    return {w: p for w, p in out.items() if not p.is_zero()}


def concat_divided_vector(ctx: ModuleContext, i: int, a: int, vec: dict) -> dict:
    """F_i^{(a)} applied to a word vector, dead terms dropped."""
    out: dict = {}
    for word, coeff in vec.items():
        ext = _alive_extension(ctx, word, i, a)
        if ext is None:
            continue
        w2, mc = ext
        _accumulate(out, w2, coeff * mc)
    return {w: p for w, p in out.items() if not p.is_zero()}


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
