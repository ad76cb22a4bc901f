"""Cell modules: enumeration, Gram ranks vs the character oracle, actions."""

import pytest

from qschur import cellmod
from qschur.cellmod import CellModule, enumerate_words
from qschur.linalg import (
    FieldMatrix,
    LaurentMatrix,
    dense_rows,
    forward_eliminate,
    rank,
)
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
    """The generic action of a generator, read from its sparse rows as a
    dense FieldMatrix."""
    n = cm.dim
    return FieldMatrix(GEN, n, n, dense_rows(cm.action_matrix(symbol), n, n,
                                             GEN.zero()))


def integral_action(cm, symbol):
    """The integral action of a generator as a dense LaurentMatrix."""
    n = cm.dim
    return LaurentMatrix(n, n, dense_rows(cm.integral_action_matrix(symbol),
                                          n, n, LaurentPoly.zero()))


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
        assert sp.gram.entries == [[quantum_binomial(4, t)]]
    assert cm.spaces[(4,)].gram.entries == [[LaurentPoly.one()]]


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
            hnf = sp.integral.hnf_basis
            assert (sp.gram * sp.integral.transform) == hnf
            assert hnf.cols == sp.rank
            assert rank(sp.integral.gram.to_field(GEN)) == sp.rank


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
                for r, x in enumerate(cm.coordinates(mu, dict(combo))):
                    c.entries[off + r][off + j] = x
        assert rank(c) == cm.dim
        for i in range(datum.rank):
            for kind in ("E", "F"):
                for a in (1, 2):
                    sym = (kind, i, a)
                    integral = integral_action(cm, sym).to_field(GEN)
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
                         ids=["%s-%s" % (n, "".join(map(str, l)))
                              for n, l in PICK_CONFIGS])
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
        assert sp.gram == LaurentMatrix(len(words), len(words), gram), mu


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
    assert small.spaces[(0,)].gram.entries == [[quantum_integer(2)]]
