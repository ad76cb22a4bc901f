"""Cell modules Delta(lambda): word enumeration, Gram matrices, bases,
and exact generator action matrices.

Each weight space keeps the overcomplete list of alive divided words and a
Basis: the generic one and, on demand, an integral basis of the
Q[v,v^-1]-lattice extracted by Hermite column reduction of the Gram matrix
of all the words.  One height-order walk (greedy_walk) picks words
greedily from a few candidates per weight, the extensions of the picks
one factor shorter, so only the candidates' Gram matrix is built; the
elimination is its argument.  Fraction-free elimination of the Laurent
Gram rows picks the generic basis, and specialize passes forward
elimination at a point, whose picks span the simple quotient.  The Gram
matrix of all the words is built when a report or the integral basis
first reads it.  A Basis is a list of word combinations with its Gram
matrix, and basis_of builds both kinds from their word coefficients and
pairings with the words: a selection of the candidates for the generic
basis, the Hermite transform and basis for the integral one.  Coordinates
and generator actions are computed the same way in either basis, through
the adjugate (A, d) of the basis Gram matrix, G^-1 = A / d with Laurent
A and d, applied to the pairings phi(b_j, w).  Those are read from the
form's own memo (gram_entry) on every request, with no second cache per
word: for the generic basis they are the memo's entries themselves, for
the integral one sums of them.  Each coordinate is one Laurent quotient by
d, or one RatFunc when d does not divide.  Every matrix here is sparse
rows {row: {col: nonzero}} (the Gram matrices, the adjugates, the
actions), and pairings and coordinates are sparse columns {index:
nonzero}.  The ambient algebra is never materialized.
"""

from __future__ import annotations

from .errors import CoordinateFailureError, RankMismatchError
from .linalg import (
    add_scaled,
    adjugate_solve,
    fraction_free_eliminate,
    hnf_column_basis,
    laurent_adjugate,
    sparse_product,
    sparse_transpose,
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


def extensions(ctx: ModuleContext, mu: Weight, above: dict) -> list:
    """The words at mu built from the word lists of above, sorted by
    (length, factor sequence): the empty word at lambda, elsewhere each
    b + ((i, a),) that does not merge, for b in above[mu + a alpha_i].

    The alpha_i-strings of W pi_lambda are unbroken, so the walk up each
    one ends at the first weight missing from above.
    """
    if mu == ctx.lam:
        return [EMPTY_WORD]
    out = []
    for i, root in enumerate(ctx.datum.alpha):
        nu, a = mu, 0
        while (nu := tuple(m + x for m, x in zip(nu, root))) in above:
            a += 1
            out.extend(b + ((i, a),) for b in above[nu]
                       if not b or b[-1][0] != i)
    out.sort(key=lambda w: (len(w), w))
    return out


def enumerate_words(ctx: ModuleContext) -> dict:
    """All alive divided words of Delta(lambda), grouped by weight.

    One pass over W pi_lambda in height order: depth below lambda, then
    lexicographically, so every weight above mu on an alpha_i-string comes
    before mu.  An alive word is an alive word one factor shorter extended
    without merging, so each group is the extensions of the groups above.
    """
    by_weight: dict = {}
    level = [ctx.lam]
    while level:
        for mu in level:
            by_weight[mu] = extensions(ctx, mu, by_weight)
        level = sorted({nu for mu in level for root in ctx.datum.alpha
                        if (nu := tuple(m - x for m, x in zip(mu, root)))
                        in ctx.weights})
    return by_weight


class Basis:
    """A basis b_1..b_r of one weight space, as combinations of its words.

    combos[j] lists the (word, coefficient) terms of b_j and the sparse
    rows gram hold phi(b_j, b_l) under the contravariant form.  Pairings
    with single words are not kept here: gram_entry memoizes them per
    module, and CellModule reads them from it.
    """

    __slots__ = ("combos", "gram", "_adjugate")

    def __init__(self, combos: tuple, gram: dict,
                 _adjugate: tuple | None = None):
        self.combos = combos
        self.gram = gram
        self._adjugate = _adjugate

    def adjugate(self) -> tuple:
        """(A, d) with gram^-1 = A / d, A sparse Laurent rows and d a
        Laurent polynomial (laurent_adjugate), computed on first use."""
        if self._adjugate is None:
            self._adjugate = laurent_adjugate(self.gram, len(self.combos))
        return self._adjugate


def basis_of(words: tuple, transform: dict, pairing: dict) -> Basis:
    """The basis whose b_j has the word coefficients transform[j], given
    pairing = word_gram * transform; both hold one sparse column per key.
    The word Gram matrix is symmetric, so entry k of pairing[j] is
    phi(b_j, words[k]), and the basis Gram is transform^T * pairing."""
    return Basis(
        tuple(tuple((words[k], x) for k, x in col.items())
              for col in transform.values()),
        sparse_product(pairing, sparse_transpose(transform)))


class WeightSpaceData:
    """One weight space of Delta(lambda): all its alive words, the generic
    basis and, once ensure_integral has run, the integral one.  The Gram
    matrix of all the words is built on first read; the entries of the
    candidates the generic basis was picked from are memo hits."""

    __slots__ = ("words", "generic", "ctx", "integral", "_gram")

    def __init__(self, words: tuple, generic: Basis, ctx: ModuleContext,
                 integral: Basis | None = None, _gram: dict | None = None):
        self.words = words
        self.generic = generic
        self.ctx = ctx
        self.integral = integral
        self._gram = _gram

    @property
    def rank(self) -> int:
        """The multiplicity of the weight: the size of the generic basis."""
        return len(self.generic.combos)

    @property
    def gram(self) -> dict:
        """The sparse Gram matrix of all the words."""
        if self._gram is None:
            self._gram = gram_matrix(self.ctx, self.words)
        return self._gram


def gram_matrix(ctx: ModuleContext, words: tuple) -> dict:
    """The symmetric sparse rows of gram_entry over a list of words, one
    entry object at (i, j) and (j, i)."""
    n = len(words)
    rows: dict = {i: {} for i in range(n)}
    for i in range(n):
        for j in range(i, n):
            e = gram_entry(ctx, words[i], words[j])
            if e:
                rows[i][j] = rows[j][i] = e
    return {i: row for i, row in rows.items() if row}


def greedy_walk(ctx: ModuleContext, weights: tuple, eliminate):
    """The prefix-closed greedy pick of words spanning each weight space,
    over the weights in height order (the x0 space first, every weight
    above mu before mu).  Yields (mu, candidates, gram, picked) per weight:
    the candidates are the extensions of the picks above mu, gram their
    sparse Laurent Gram rows, and picked the indices of the rows that
    eliminate keeps, with the contract of forward_eliminate.

    The pick is prefix-closed: if the prefix p of a word w = p + ((i, a),)
    were a combination of earlier words, F_i^(a) would make w a combination
    of earlier or shorter merged words.  So every pick at mu extends,
    without merging, a pick at mu + a alpha_i, and each such extension
    lands at mu, in W pi_lambda, so it is alive: the greedy over this
    sorted superset of the picks picks what the greedy over all the words
    picks.  This holds over Q(v), where fraction_free_eliminate on the
    Laurent rows picks the generic basis, and at a point of a field, where
    the form's radical is a submodule (the form is contravariant), so it
    holds in the simple quotient: there the picks span L(lambda)_mu.
    Every weight keeps its entry in the picks, even an empty one, so the
    walk up an alpha_i-string crosses weights where the quotient vanishes;
    every candidate keeps its row, a zero one walked as empty, so the
    picked indices stay in place.
    """
    picks: dict = {}
    for mu in weights:
        candidates = tuple(extensions(ctx, mu, picks))
        gram = gram_matrix(ctx, candidates)
        picked = tuple(index for index, _ in eliminate(
            gram.get(i, {}) for i in range(len(candidates))))
        picks[mu] = [candidates[k] for k in picked]
        yield mu, candidates, gram, picked


class CellModule:
    """Delta(lambda) with exact structure constants.

    Coordinates of arbitrary word vectors are extracted against the Gram
    matrix of the chosen basis, which is valid because the contravariant
    form is nondegenerate.  The module owns the layout of its basis: the
    weight spaces in the order of weights, each at its offset.  Both bases
    of a weight space have the same rank, so one offset per weight serves
    both; coordinates and block_diagonal are indexed over the whole basis.
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
        # height order: the x0 space comes first and every space above mu
        # precedes it
        self.weights = tuple(by_weight)
        self.spaces: dict = {}
        self._offsets = {}
        one = LaurentPoly.one()
        off = 0
        for mu, candidates, gram, picked in greedy_walk(
                self.ctx, self.weights, fraction_free_eliminate):
            if len(picked) != char[mu]:
                raise RankMismatchError(
                    "Gram rank %d != multiplicity %d at weight %r of %r"
                    % (len(picked), char[mu], mu, lam))
            generic = basis_of(candidates,
                               {j: {k: one} for j, k in enumerate(picked)},
                               {j: gram[k] for j, k in enumerate(picked)})
            self.spaces[mu] = WeightSpaceData(tuple(by_weight[mu]), generic,
                                              self.ctx)
            self._offsets[mu] = off
            off += len(picked)
        self.dim = off
        self.basis_index = tuple((mu, combo[0][0]) for mu in self.weights
                                 for combo in self.spaces[mu].generic.combos)

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
            n = len(sp.words)
            hnf_basis, transform = hnf_column_basis(sp.gram, n, n)
            if len(hnf_basis) != sp.rank:
                raise RankMismatchError(
                    "integral rank %d != generic rank %d at %r"
                    % (len(hnf_basis), sp.rank, mu))
            sp.integral = basis_of(sp.words, transform, hnf_basis)

    def _pairings(self, basis: Basis, word: Word) -> dict:
        """The sparse column {j: phi(b_j, word)}, from gram_entry: a memo
        entry itself for a one-term combination with coefficient 1, a sum
        of memo entries otherwise."""
        sums = ((j, sum((c * gram_entry(self.ctx, w, word) for w, c in combo),
                        LaurentPoly.zero()))
                for j, combo in enumerate(basis.combos))
        return {j: x for j, x in sums if x}

    def block_diagonal(self, blocks: dict) -> dict:
        """Sparse rows over the whole basis from sparse rows per weight
        space: the rows and columns of blocks[mu] move to mu's offset."""
        out = {}
        for mu, rows in blocks.items():
            off = self._offsets[mu]
            for r, row in rows.items():
                out[off + r] = {off + c: x for c, x in row.items()}
        return out

    def coordinates(self, mu: Weight, vec: dict,
                    integral: bool = False) -> dict:
        """The sparse column {index: nonzero} over the whole basis of the
        coordinates over Q(v) of a word vector of weight mu in the chosen
        basis: solve gram * x = (phi(b_j, vec))_j through the adjugate,
        x = A rhs / d, each entry a Laurent quotient when d divides it."""
        if mu not in self.spaces:
            if vec:
                raise CoordinateFailureError("vector at absent weight %r" % (mu,))
            return {}
        basis = self.basis(mu, integral)
        rhs: dict = {}
        for w, coeff in vec.items():
            add_scaled(rhs, coeff, self._pairings(basis, w))
        off = self._offsets[mu]
        return {off + i: c for i, c in
                adjugate_solve(*basis.adjugate(), rhs).items()}

    # -- generator action ----------------------------------------------------

    def _action(self, symbol: tuple, integral: bool) -> dict:
        """Sparse rows {row: {col: nonzero}} over Q(v) of a generator in the
        chosen basis; symbol is ("F", i, a), ("E", i, a) or ("P", mu) for
        the weight projector.  Each call builds fresh rows."""
        one = GENERIC.one()
        m: dict = {}
        if symbol[0] == "P":
            mu = tuple(symbol[1])
            sp = self.spaces.get(mu)
            if sp is not None:
                m = self.block_diagonal(
                    {mu: {k: {k: one} for k in range(sp.rank)}})
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
                        for r, c in coords.items():
                            m.setdefault(r, {})[col] = c
                    col += 1
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
