"""Cell modules Delta(lambda): word enumeration, Gram matrices, bases,
and exact generator action matrices.

Each weight space keeps the overcomplete list of alive divided words and a
Basis: the generic one and, on demand, an integral basis of the
Q[v,v^-1]-lattice extracted by Hermite column reduction of the Gram matrix
of all the words.  The generic basis is picked greedily over Q(v) from a
few candidate words, the extensions of the picks one factor shorter, so
only the candidates' Gram matrix is built with it; the Gram matrix of all
the words is built when a report or the integral basis first reads it.  A
Basis is a list of word combinations with its Gram matrix; coordinates and
generator actions are computed the same way in either basis, through Gram
solves against pairings phi(b_j, w) cached per word.  The ambient algebra
is never materialized.
"""

from __future__ import annotations

from .errors import CoordinateFailureError, RankMismatchError
from .linalg import (
    FieldMatrix,
    LaurentMatrix,
    forward_eliminate,
    hnf_column_basis,
    invert,
)
from .rootdata import RootDatum, Weight
from .scalars import FieldContext, LaurentPoly
from .straighten import (
    EMPTY_WORD,
    ModuleContext,
    Word,
    concat_divided_vector,
    gram_entry,
    push_E_through_vector,
)

GENERIC = FieldContext.generic()


def enumerate_words(ctx: ModuleContext) -> dict:
    """All alive divided words of Delta(lambda), grouped by weight.

    Depth-first search pruned the moment a prefix weight leaves
    W pi_lambda; each group is sorted by (length, factor sequence).
    """
    by_weight: dict = {}
    max_depth = ctx.max_depth

    def visit(word: Word, depth: int):
        by_weight.setdefault(ctx.weight_of(word), []).append(word)
        last = word[-1][0] if word else None
        for i in range(ctx.datum.rank):
            if i == last:
                continue
            for a in range(1, max_depth - depth + 1):
                w2 = word + ((i, a),)
                if ctx.weight_of(w2) in ctx.weights:
                    visit(w2, depth + a)

    visit(EMPTY_WORD, 0)
    for group in by_weight.values():
        group.sort(key=lambda w: (len(w), w))
    return by_weight


class Basis:
    """A basis b_1..b_r of one weight space, as combinations of its words.

    combos[j] lists the (word, coefficient) terms of b_j and gram[j][l] is
    phi(b_j, b_l) under the contravariant form.  columns maps a word w to
    the column (phi(b_j, w))_j; CellModule fills it on first use.  An
    integral basis also keeps its Hermite certificate hnf_basis =
    word_gram * transform, whose column j holds the word coefficients of
    b_j.
    """

    __slots__ = ("combos", "gram", "columns", "hnf_basis", "transform",
                 "_inverse")

    def __init__(self, combos: tuple, gram: LaurentMatrix, columns: dict,
                 hnf_basis: LaurentMatrix | None = None,
                 transform: LaurentMatrix | None = None,
                 _inverse: FieldMatrix | None = None):
        self.combos = combos
        self.gram = gram
        self.columns = columns
        self.hnf_basis = hnf_basis
        self.transform = transform
        self._inverse = _inverse

    def inverse(self) -> FieldMatrix:
        """The Gram inverse over Q(v), computed on first use."""
        if self._inverse is None:
            self._inverse = invert(self.gram.to_field(GENERIC))
        return self._inverse


class WeightSpaceData:
    """One weight space of Delta(lambda): all its alive words, the candidate
    words the generic basis was picked from, the generic basis and, once
    ensure_integral has run, the integral one.  The Gram matrix of all the
    words is built on first read; the candidates' entries are memo hits."""

    __slots__ = ("mu", "words", "candidates", "generic", "rank", "ctx",
                 "integral", "_gram")

    def __init__(self, mu: Weight, words: tuple, candidates: tuple,
                 generic: Basis, rank: int, ctx: ModuleContext,
                 integral: Basis | None = None,
                 _gram: LaurentMatrix | None = None):
        self.mu = mu
        self.words = words
        self.candidates = candidates
        self.generic = generic
        self.rank = rank
        self.ctx = ctx
        self.integral = integral
        self._gram = _gram

    @property
    def gram(self) -> LaurentMatrix:
        """The Gram matrix of all the words."""
        if self._gram is None:
            self._gram = gram_matrix(self.ctx, self.words)
        return self._gram


def gram_matrix(ctx: ModuleContext, words: tuple) -> LaurentMatrix:
    """The symmetric matrix of gram_entry over a list of words."""
    n = len(words)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = gram_entry(ctx, words[i], words[j])
            entries[i][j] = e
            entries[j][i] = e
    return LaurentMatrix(n, n, entries)


class CellModule:
    """Delta(lambda) with exact structure constants.

    Coordinates of arbitrary word vectors are extracted against the Gram
    matrix of the chosen basis, which is valid because the contravariant
    form is nondegenerate.  Both bases of a weight space have the same
    rank, so one offset per weight serves both.
    """

    def __init__(self, datum: RootDatum, lam: Weight):
        lam = tuple(lam)
        self.datum = datum
        self.lam = lam
        self.ctx = ModuleContext(datum, lam)
        char = datum.freudenthal_character(lam)
        by_weight = enumerate_words(self.ctx)
        if set(by_weight) != set(char):
            raise RankMismatchError(
                "word support does not match the character oracle at %r" % (lam,))
        # weights sorted by depth below lambda, then lexicographically,
        # so the x0 space comes first and every space above mu precedes it
        self.weights = tuple(sorted(
            by_weight,
            key=lambda mu: (self._height(mu), mu)))
        self.spaces: dict = {}
        self._offsets = {}
        off = 0
        for mu in self.weights:
            words = tuple(by_weight[mu])
            candidates = self._candidates(mu, {w: w for w in words})
            gram = gram_matrix(self.ctx, candidates)
            picked = self._greedy_basis_words(gram)
            if len(picked) != char[mu]:
                raise RankMismatchError(
                    "Gram rank %d != multiplicity %d at weight %r of %r"
                    % (len(picked), char[mu], mu, lam))
            rows = [gram.entries[k] for k in picked]
            generic = Basis(
                tuple(((candidates[k], LaurentPoly.one()),) for k in picked),
                LaurentMatrix.from_rows([[row[k] for k in picked]
                                         for row in rows]),
                {w: [row[m] for row in rows]
                 for m, w in enumerate(candidates)})
            self.spaces[mu] = WeightSpaceData(mu, words, candidates, generic,
                                              len(picked), self.ctx)
            self._offsets[mu] = off
            off += len(picked)
        self.dim = off
        self.basis_index = tuple(
            (mu, combo[0][0])
            for mu in self.weights for combo in self.spaces[mu].generic.combos)
        self._action_cache: dict = {}

    def _height(self, mu: Weight) -> int:
        coords = self.datum.alpha_coords(
            tuple(a - b for a, b in zip(self.lam, mu)))
        return int(sum(coords))

    def _candidates(self, mu: Weight, alive: dict) -> tuple:
        """The words the generic basis at mu is picked from, sorted by
        (length, factor sequence).

        The greedy basis is prefix-closed: if the prefix p of a word
        w = p + ((i, a),) were a combination of earlier words, F_i^(a)
        would make w a combination of earlier or shorter merged words.  So
        every pick at mu extends, without merging, a pick at
        mu + a alpha_i, a space of smaller height already built.  The
        greedy result over this sorted superset of the picks equals the
        one over all the words.  alive maps each alive word at mu to
        itself, so the candidates share the word objects.
        """
        if mu == self.lam:
            return (EMPTY_WORD,)
        out = []
        for i in range(self.datum.rank):
            for a in range(1, self.ctx.max_depth + 1):
                sp = self.spaces.get(tuple(
                    m + a * x for m, x in zip(mu, self.datum.alpha[i])))
                if sp is None:
                    continue
                for combo in sp.generic.combos:
                    b = combo[0][0]
                    if b and b[-1][0] == i:
                        continue
                    w = alive.get(b + ((i, a),))
                    if w is not None:
                        out.append(w)
        out.sort(key=lambda w: (len(w), w))
        return tuple(out)

    def _greedy_basis_words(self, gram: LaurentMatrix) -> tuple:
        """Greedy: keep a word when its Gram column grows the column rank
        over Q(v).  The Gram matrix is symmetric, so its columns are its
        rows."""
        rows = ({j: GENERIC.from_laurent(x) for j, x in enumerate(row) if x}
                for row in gram.entries)
        return tuple(index for index, _ in forward_eliminate(rows))

    def character(self) -> dict:
        return {mu: self.spaces[mu].rank for mu in self.weights}

    # -- bases and coordinates -----------------------------------------------

    def offset(self, mu: Weight) -> int:
        return self._offsets[mu]

    def basis(self, mu: Weight, integral: bool = False) -> Basis:
        """The generic or (built on first use) the integral basis at mu."""
        sp = self.spaces[mu]
        if integral and sp.integral is None:
            self.ensure_integral()
        return sp.integral if integral else sp.generic

    def ensure_integral(self) -> None:
        """Extract an A-basis of every weight-space lattice (lazy; HNF is
        the expensive step)."""
        for mu in self.weights:
            sp = self.spaces[mu]
            if sp.integral is not None:
                continue
            basis_mat, transform = hnf_column_basis(sp.gram)
            if basis_mat.cols != sp.rank:
                raise RankMismatchError(
                    "integral rank %d != generic rank %d at %r"
                    % (basis_mat.cols, sp.rank, mu))
            combos = tuple(
                tuple((sp.words[k], transform.entries[k][j])
                      for k in range(len(sp.words))
                      if not transform.entries[k][j].is_zero())
                for j in range(transform.cols))
            pairing = transform.transpose() * sp.gram
            columns = {w: [row[k] for row in pairing.entries]
                       for k, w in enumerate(sp.words)}
            sp.integral = Basis(combos, pairing * transform, columns,
                                basis_mat, transform)

    def _pairings(self, basis: Basis, word: Word) -> list:
        """(phi(b_j, word))_j, from gram_entry on the first request."""
        col = basis.columns.get(word)
        if col is None:
            col = [sum((c * gram_entry(self.ctx, w, word) for w, c in combo),
                       LaurentPoly.zero())
                   for combo in basis.combos]
            basis.columns[word] = col
        return col

    def coordinates(self, mu: Weight, vec: dict,
                    integral: bool = False) -> list:
        """Coordinates over Q(v) of a word vector of weight mu in the chosen
        basis: solve gram * x = (phi(b_j, vec))_j."""
        sp = self.spaces.get(mu)
        if sp is None:
            if vec:
                raise CoordinateFailureError("vector at absent weight %r" % (mu,))
            return []
        basis = self.basis(mu, integral)
        rhs = [LaurentPoly.zero()] * sp.rank
        for w, coeff in vec.items():
            rhs = [acc + x * coeff
                   for acc, x in zip(rhs, self._pairings(basis, w))]
        return basis.inverse().apply([GENERIC.from_laurent(x) for x in rhs])

    # -- generator action ----------------------------------------------------

    def _action(self, symbol: tuple, integral: bool) -> dict:
        """Sparse rows {row: {col: nonzero}} over Q(v) of a generator in the
        chosen basis; symbol is ("F", i, a), ("E", i, a) or ("P", mu) for
        the weight projector.  The cached rows are shared, never mutated."""
        key = (symbol, integral)
        cached = self._action_cache.get(key)
        if cached is not None:
            return cached
        one = GENERIC.one()
        m: dict = {}
        if symbol[0] == "P":
            mu = tuple(symbol[1])
            sp = self.spaces.get(mu)
            if sp is not None:
                off = self._offsets[mu]
                m = {off + k: {off + k: one} for k in range(sp.rank)}
        elif symbol[2] == 0:
            m = {k: {k: one} for k in range(self.dim)}  # F^(0) = E^(0) = 1
        else:
            kind, i, a = symbol
            push = concat_divided_vector if kind == "F" else push_E_through_vector
            shift = tuple((1 if kind == "E" else -1) * a * x
                          for x in self.datum.alpha[i])
            col = 0
            for mu in self.weights:
                target = tuple(p + s for p, s in zip(mu, shift))
                for combo in self.basis(mu, integral).combos:
                    vec = push(self.ctx, i, a, dict(combo))
                    if vec:
                        coords = self.coordinates(target, vec, integral)
                        toff = self._offsets[target]
                        for r, c in enumerate(coords):
                            if c:
                                m.setdefault(toff + r, {})[col] = c
                    col += 1
        self._action_cache[key] = m
        return m

    def action_matrix(self, symbol: tuple) -> dict:
        """Sparse rows of a generator over Q(v) in the generic basis."""
        return self._action(symbol, False)

    def integral_action_matrix(self, symbol: tuple) -> dict:
        """Sparse rows of a generator in the integral basis; entries lie in
        Q[v,v^-1] because generators preserve the lattice."""
        out = {}
        for i, row in self._action(symbol, True).items():
            for c in row.values():
                if not c.is_laurent():
                    raise CoordinateFailureError(
                        "lattice coordinate %s is not integral" % c)
            out[i] = {j: c.to_laurent() for j, c in row.items()}
        return out
