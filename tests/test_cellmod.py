"""Cell modules: enumeration, Gram ranks vs the character oracle, actions."""

import pytest

from qschur import cellmod
from qschur.cellmod import CellModule, enumerate_words
from qschur.linalg import forward_eliminate, hnf_column_basis, to_field
from qschur.rootdata import build_root_datum
from qschur.scalars import (
    FieldContext,
    LaurentPoly,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)
from qschur.straighten import EMPTY_WORD, ModuleContext, gram_entry

import dense

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
GEN = FieldContext.generic()


def gval(p):
    return GEN.from_laurent(p)


def action(cm, symbol):
    """The generic action of a generator as a dense FieldMatrix view."""
    return dense.field_view(GEN, cm.action_matrix(symbol), cm.dim, cm.dim)


def integral_action(cm, symbol):
    """The integral action of a generator as a dense LaurentMatrix view."""
    return dense.laurent_view(cm.integral_action_matrix(symbol),
                              cm.dim, cm.dim)


def gram_rows(sp):
    """The dense rows of the Gram matrix of all the words of a space."""
    n = len(sp.words)
    return dense.laurent_view(sp.gram, n, n).entries


def _brute_force_words(ctx, height):
    """Every alive word, grouped by weight: all words with adjacent indices
    distinct and exponents summing to at most height, listed depth-first,
    filtered by is_alive, each group sorted by (length, factor sequence)."""
    datum = ctx.datum
    out = {}

    def extend(word, left):
        if dense.is_alive(ctx, word):
            wt = list(ctx.lam)
            for i, a in word:
                wt = [w - a * x for w, x in zip(wt, datum.alpha[i])]
            out.setdefault(tuple(wt), []).append(word)
        for i in range(datum.rank):
            if word and word[-1][0] == i:
                continue
            for a in range(1, left + 1):
                extend(word + ((i, a),), left - a)

    extend(EMPTY_WORD, height)
    for group in out.values():
        group.sort(key=lambda w: (len(w), w))
    return out


WORD_CONFIGS = [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0)),
                ("A1xA1", (3, 3)), ("GL2", (2, 0))]
COORDINATE_CONFIGS = [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))]


def _ids(configs):
    return ["%s-%s" % (n, "".join(map(str, l))) for n, l in configs]


@pytest.mark.parametrize("name,lam", WORD_CONFIGS, ids=_ids(WORD_CONFIGS))
def test_enumerate_words_matches_brute_force(name, lam):
    # no alive word has more than height(lambda - w0 lambda) factors
    datum = _datum(name)
    ctx = ModuleContext(datum, lam)
    height = int(sum(datum.alpha_coords(
        tuple(a - b for a, b in zip(lam, datum.w0(lam))))))
    expected = _brute_force_words(ctx, height)
    assert enumerate_words(ctx) == expected


@pytest.mark.parametrize("name,lam", WORD_CONFIGS, ids=_ids(WORD_CONFIGS))
def test_enumerate_words_lists_weights_above_first(name, lam):
    # CellModule picks each space's basis from the spaces above it on the
    # alpha_i-strings, so those come first
    datum = _datum(name)
    position = {mu: k for k, mu in
                enumerate(enumerate_words(ModuleContext(datum, lam)))}
    for mu, k in position.items():
        for root in datum.alpha:
            nu = tuple(m + x for m, x in zip(mu, root))
            while nu in position:
                assert position[nu] < k, (nu, mu)
                nu = tuple(m + x for m, x in zip(nu, root))


@pytest.mark.parametrize("name,lam", COORDINATE_CONFIGS,
                         ids=_ids(COORDINATE_CONFIGS))
def test_coordinates_of_basis_words_are_unit_vectors(name, lam):
    # coordinates are indexed over the whole basis, as basis_index is
    cm = CellModule(_datum(name), lam)
    for index, (mu, word) in enumerate(cm.basis_index):
        assert cm.coordinates(mu, {word: LaurentPoly.one()}) \
            == {index: GEN.one()}


def test_enumerate_words_a1():
    ctx = ModuleContext(A1, (2,))
    words = enumerate_words(ctx)
    assert words == {(2,): [EMPTY_WORD], (0,): [((0, 1),)], (-2,): [((0, 2),)]}


def test_enumerate_words_a2_minuscule():
    ctx = ModuleContext(A2, (1, 0))
    words = enumerate_words(ctx)
    assert set(words) == {(1, 0), (-1, 1), (0, -1)}
    assert all(len(ws) == 1 for ws in words.values())


def test_enumerate_words_a2_adjoint_zero_space():
    ctx = ModuleContext(A2, (1, 1))
    words = enumerate_words(ctx)
    assert words[(0, 0)] == [((0, 1), (1, 1)), ((1, 1), (0, 1))]


def test_gram_examples():
    cm = CellModule(A1, (4,))
    for t in range(5):
        mu = (4 - 2 * t,)
        sp = cm.spaces[mu]
        assert gram_rows(sp) == [[quantum_binomial(4, t)]]
    assert gram_rows(cm.spaces[(4,)]) == [[LaurentPoly.one()]]


def test_greedy_picks_keep_indices_past_a_zero_gram_row():
    # a zero Gram row is an absent key of the sparse rows; walking only the
    # present rows would shift the third and fourth words down by one
    one, two, z = LaurentPoly.one(), quantum_integer(2), LaurentPoly.zero()
    gram = dense.sparse(
        [[one, z, one, z], [z, z, z, z], [one, z, two, z], [z, z, z, two]])
    assert 1 not in gram
    cm = CellModule(A1, (1,))
    assert cm._greedy_basis_words(gram, 4) == (0, 2, 3)


def test_dimensions_match_weyl():
    for datum, lam in [(A1, (5,)), (A2, (1, 0)), (A2, (1, 1)), (A2, (2, 0)),
                       (B2, (1, 0)), (B2, (0, 1))]:
        cm = CellModule(datum, lam)
        assert cm.dim == datum.weyl_dimension(lam)
        assert cm.character() == {
            mu: m for mu, m in datum.freudenthal_character(lam).items()}
        assert cm.spaces[tuple(lam)].rank == 1
        assert cm.basis_index[0] == (tuple(lam), EMPTY_WORD)


def test_generic_basis_adjoint():
    cm = CellModule(A2, (1, 1))
    sp = cm.spaces[(0, 0)]
    assert sp.rank == 2
    assert sp.generic.combos == tuple(
        ((w, LaurentPoly.one()),) for w in sp.words[:2])


def test_action_matrices_rank1_golden():
    # F has subdiagonal [t+1], E superdiagonal [n-t+1], in the x_t basis
    for n in range(0, 7):
        cm = CellModule(A1, (n,))
        f = action(cm, ("F", 0, 1))
        e = action(cm, ("E", 0, 1))
        for t in range(n + 1):
            for s in range(n + 1):
                expect_f = quantum_integer(t + 1) if s == t + 1 else LaurentPoly.zero()
                expect_e = quantum_integer(n - t + 1) if s == t - 1 else LaurentPoly.zero()
                assert f.entries[s][t] == gval(expect_f)
                assert e.entries[s][t] == gval(expect_e)


def test_projector_matrix():
    cm = CellModule(A1, (3,))
    p = action(cm, ("P", (3,)))
    assert p.entries[0][0] == GEN.one()
    assert all(p.entries[i][j].is_zero() for i in range(4) for j in range(4)
               if (i, j) != (0, 0))


def test_highest_weight_killed():
    for datum, lam in [(A1, (4,)), (A2, (1, 1))]:
        cm = CellModule(datum, lam)
        for i in range(datum.rank):
            e = action(cm, ("E", i, 1))
            col0 = [e.entries[r][0] for r in range(cm.dim)]
            assert all(x.is_zero() for x in col0)


def _commutator_check(cm):
    datum = cm.datum
    dim = cm.dim
    for i in range(datum.rank):
        for j in range(datum.rank):
            e = action(cm, ("E", i, 1))
            f = action(cm, ("F", j, 1))
            lhs = dense.sub(e * f, f * e)
            rhs = dense.zero(GEN, dim, dim)
            if i == j:
                for mu in cm.weights:
                    coeff = gval(quantum_integer(datum.pairing(i, mu), datum.d[i]))
                    p = action(cm, ("P", mu))
                    rhs = dense.add(rhs, dense.scale(p, coeff))
            assert lhs == rhs, (cm.lam, i, j)


def test_defining_relation_b_on_modules():
    for datum, lam in [(A1, (4,)), (A2, (1, 1)), (B2, (0, 1))]:
        _commutator_check(CellModule(datum, lam))


def test_divided_power_vs_plain_power():
    for datum, lam in [(A1, (4,)), (A2, (1, 1))]:
        cm = CellModule(datum, lam)
        for i in range(datum.rank):
            for a in (2, 3):
                fact = gval(quantum_factorial(a, datum.d[i]))
                f1 = action(cm, ("F", i, 1))
                fa = action(cm, ("F", i, a))
                power = f1
                for _ in range(a - 1):
                    power = power * f1
                assert power == dense.scale(fa, fact)
                e1 = action(cm, ("E", i, 1))
                ea = action(cm, ("E", i, a))
                power = e1
                for _ in range(a - 1):
                    power = power * e1
                assert power == dense.scale(ea, fact)


def test_commutation_lemma_matrices():
    # E^{(a)}F^{(b)}1_mu = sum_t [a-b+<mu>; t] F^{(b-t)}E^{(a-t)}1_mu  (b)
    # F^{(b)}E^{(a)}1_mu = sum_t [b-a-<mu>; t] E^{(a-t)}F^{(b-t)}1_mu  (c)
    for datum, lam in [(A1, (3,)), (A2, (1, 1))]:
        cm = CellModule(datum, lam)
        dim = cm.dim
        for i in range(datum.rank):
            di = datum.d[i]
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    for mu in cm.weights:
                        pairing = datum.pairing(i, mu)
                        p = action(cm, ("P", mu))
                        lhs_b = action(cm, ("E", i, a)) * \
                            action(cm, ("F", i, b)) * p
                        rhs_b = dense.zero(GEN, dim, dim)
                        lhs_c = action(cm, ("F", i, b)) * \
                            action(cm, ("E", i, a)) * p
                        rhs_c = dense.zero(GEN, dim, dim)
                        for t in range(0, min(a, b) + 1):
                            qb = quantum_binomial(a - b + pairing, t, di)
                            if not qb.is_zero():
                                rhs_b = dense.add(rhs_b, dense.scale(
                                    action(cm, ("F", i, b - t)) *
                                    action(cm, ("E", i, a - t)) * p,
                                    gval(qb)))
                            qc = quantum_binomial(b - a - pairing, t, di)
                            if not qc.is_zero():
                                rhs_c = dense.add(rhs_c, dense.scale(
                                    action(cm, ("E", i, a - t)) *
                                    action(cm, ("F", i, b - t)) * p,
                                    gval(qc)))
                        assert lhs_b == rhs_b, ("(b)", lam, i, a, b, mu)
                        assert lhs_c == rhs_c, ("(c)", lam, i, a, b, mu)


def test_generator_images_weight_homogeneous():
    cm = CellModule(A2, (1, 1))
    for i in range(2):
        for kind, sign in (("F", -1), ("E", 1)):
            m = action(cm, (kind, i, 1))
            col = 0
            for mu in cm.weights:
                sp = cm.spaces[mu]
                target = tuple(p + sign * x for p, x in zip(mu, A2.alpha[i]))
                for _ in range(sp.rank):
                    for nu in cm.weights:
                        noff = cm.offset(nu)
                        block = [m.entries[noff + r][col]
                                 for r in range(cm.spaces[nu].rank)]
                        if nu != target:
                            assert all(x.is_zero() for x in block)
                    col += 1


def test_construction_across_symmetrizers():
    # construction raises RankMismatch unless every Gram rank matches the
    # character oracle, so these builds are themselves deep cross-checks
    G2 = build_root_datum("G2")
    assert CellModule(G2, (1, 0)).dim == 7
    assert CellModule(G2, (0, 1)).dim == 14
    cm = CellModule(B2, (1, 1))
    assert cm.dim == 16
    assert cm.spaces[(0, 1)].rank == 2  # multiplicity-two space
    assert CellModule(A2, (2, 2)).dim == 27


def test_integral_basis_a1():
    cm = CellModule(A1, (2,))
    cm.ensure_integral()
    sp = cm.spaces[(-2,)]
    # Gram entry [2;2] = 1 is a unit: the word itself is the lattice basis
    assert len(sp.integral.combos) == 1
    assert sp.integral.combos[0] == ((((0, 2),), LaurentPoly.one()),)
    sp0 = cm.spaces[(2,)]
    assert sp0.integral.combos[0] == ((EMPTY_WORD, LaurentPoly.one()),)


def test_integral_gram_certificate():
    for datum, lam in [(A1, (4,)), (A2, (1, 1))]:
        cm = CellModule(datum, lam)
        cm.ensure_integral()
        for mu in cm.weights:
            sp = cm.spaces[mu]
            n = len(sp.words)
            columns, combos = dense.hnf_certificate(sp)
            assert (columns, combos) == hnf_column_basis(sp.gram, n, n)
            hnf, transform = (dense.column_view(m, n)
                              for m in (columns, combos))
            assert (dense.laurent_view(sp.gram, n, n) * transform).entries \
                == hnf.entries
            # the pairings the coordinates read, sums of memo entries
            for k, w in enumerate(sp.words):
                assert cm._pairings(sp.integral, w) == {
                    j: col[k] for j, col in columns.items() if k in col}
            assert hnf.cols == sp.rank
            assert dense.rank(dense.field_view(
                GEN, to_field(sp.integral.gram, GEN), sp.rank, sp.rank)) \
                == sp.rank


def test_generic_pairings_are_the_memo_entries():
    # one-term combinations with coefficient 1: the pairings coordinates
    # read are gram_entry's own objects, kept nowhere else
    cm = CellModule(A2, (2, 1))
    for mu in cm.weights:
        basis = cm.basis(mu)
        for w in cm.spaces[mu].words:
            col = cm._pairings(basis, w)
            for j, ((b, _),) in enumerate(basis.combos):
                entry = gram_entry(cm.ctx, b, w)
                assert col.get(j, LaurentPoly.zero()) == entry
                assert not entry or col[j] is entry


def test_integral_action_is_laurent():
    cm = CellModule(A2, (1, 1))
    for i in range(2):
        for sym in (("E", i, 1), ("F", i, 1), ("E", i, 2), ("F", i, 2)):
            m = integral_action(cm, sym)
            assert m.rows == cm.dim == m.cols
    # integral and generic actions agree after base change (spot check: traces
    # of [E_i, F_i] agree with the weight pairing sum)
    for i in range(2):
        e = integral_action(cm, ("E", i, 1))
        f = integral_action(cm, ("F", i, 1))
        comm = [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip((e * f).entries, (f * e).entries)]
        for mu in cm.weights:
            sp = cm.spaces[mu]
            coeff = quantum_integer(A2.pairing(i, mu), A2.d[i])
            for k in range(sp.rank):
                idx = cm.offset(mu) + k
                for jdx in range(cm.dim):
                    expect = coeff if jdx == idx else LaurentPoly.zero()
                    assert comm[idx][jdx] == expect


def test_generic_and_integral_actions_agree():
    # C[:, j] = generic coordinates of integral basis vector j; then
    # action_matrix(s) * C == C * integral_action_matrix(s) over Q(v)
    for datum, lam in [(A1, (4,)), (A2, (1, 1)), (B2, (1, 1))]:
        cm = CellModule(datum, lam)
        c = dense.zero(GEN, cm.dim, cm.dim)
        for mu in cm.weights:
            off = cm.offset(mu)
            for j, combo in enumerate(cm.basis(mu, integral=True).combos):
                for r, x in cm.coordinates(mu, dict(combo)).items():
                    c.entries[r][off + j] = x
        assert dense.rank(c) == cm.dim
        for i in range(datum.rank):
            for kind in ("E", "F"):
                for a in (1, 2):
                    sym = (kind, i, a)
                    integral = dense.to_field(integral_action(cm, sym), GEN)
                    assert action(cm, sym) * c == c * integral, (lam, sym)


PICK_CONFIGS = [
    ("A2", (2, 1)), ("A2", (2, 2)), ("A3", (1, 0, 1)), ("A3", (1, 1, 0)),
    ("A1xA1", (3, 3)), ("B2", (1, 1)), ("B2", (2, 1)), ("G2", (2, 0)),
    ("G2", (0, 1)), ("GL2", (2, 0)),
]


def _datum(name):
    if name == "GL2":
        return build_root_datum(cartan=[[2]], alpha=[[1, -1]],
                                alphav=[[1, -1]])
    return build_root_datum(name)


def _word_grams(cm):
    """The Gram matrix of every alive word, weight by weight, built
    directly with gram_entry."""
    out = {}
    for mu, words in enumerate_words(cm.ctx).items():
        n = len(words)
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = gram_entry(cm.ctx, words[i], words[j])
        out[mu] = (tuple(words), gram)
    return out


@pytest.mark.parametrize("name,lam", PICK_CONFIGS,
                         ids=_ids(PICK_CONFIGS))
def test_generic_picks_match_greedy_over_all_words(name, lam):
    # oracle: the greedy over the Gram matrix of every alive word
    cm = CellModule(_datum(name), lam)
    for mu, (words, gram) in _word_grams(cm).items():
        rows = ({j: gval(x) for j, x in enumerate(row) if x} for row in gram)
        picks = [words[k] for k, _ in forward_eliminate(rows)]
        sp = cm.spaces[mu]
        assert [combo[0][0] for combo in sp.generic.combos] == picks, mu
        assert set(sp.candidates) <= set(words) == set(sp.words)


@pytest.mark.parametrize("datum,lam", [(A2, (2, 2)), (B2, (1, 1)),
                                       (build_root_datum("G2"), (2, 0))])
def test_word_gram_built_on_read_matches_direct_build(datum, lam):
    cm = CellModule(datum, lam)
    for mu, (words, gram) in _word_grams(cm).items():
        sp = cm.spaces[mu]
        assert sp.words == words
        assert sp.gram == dense.sparse(gram), mu


def test_candidate_pruning_bounds_gram_entries(monkeypatch):
    # every alive word of B2 (2,1) would take 24,249 gram_entry calls
    calls = []
    original = cellmod.gram_entry

    def counting(ctx, b, d):
        calls.append(1)
        return original(ctx, b, d)

    monkeypatch.setattr(cellmod, "gram_entry", counting)
    cm = CellModule(B2, (2, 1))
    assert cm.dim == 40
    assert len(calls) <= 1000


def test_cell_modules_never_share_gram_memo():
    # F x0 pairs with itself to [2] in A1 (2) and to [4] in A1 (4), so a
    # memo keyed by words alone would hand one module the other's entries
    small = CellModule(A1, (2,))
    for mu in small.weights:
        small.spaces[mu].gram
    before = dict(small.ctx._gram_memo)
    large = CellModule(A1, (4,))
    for mu in large.weights:
        large.spaces[mu].gram
    assert small.ctx._gram_memo is not large.ctx._gram_memo
    assert small.ctx._gram_memo == before
    word = ((0, 1),)
    assert gram_entry(small.ctx, word, word) == quantum_integer(2)
    assert gram_entry(large.ctx, word, word) == quantum_integer(4)
    assert gram_rows(small.spaces[(0,)]) == [[quantum_integer(2)]]
