"""Straightening core: word calculus, E-push expansion, contravariant form."""

import itertools

import pytest

from qschur.cellmod import enumerate_words
from qschur.errors import NonReducedWordError
from qschur.rootdata import build_root_datum
from qschur.scalars import LaurentPoly, quantum_binomial, quantum_factorial, quantum_integer
from qschur.straighten import (
    EMPTY_WORD,
    ModuleContext,
    concat_divided,
    concat_divided_vector,
    gram_entry,
    idempotent_straighten,
    push_E_through,
    push_E_through_vector,
    word_weight,
)

import dense

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")

ONE = LaurentPoly.one()


def test_word_weight():
    assert word_weight(A1, EMPTY_WORD) == (0,)
    assert word_weight(A1, ((0, 2),)) == (4,)
    assert word_weight(A2, ((0, 1), (1, 1))) == (1, 1)


def test_concat_divided():
    w, c = concat_divided(A1, EMPTY_WORD, 0, 3)
    assert w == ((0, 3),) and c == ONE
    w, c = concat_divided(A1, ((0, 1),), 0, 1)
    assert w == ((0, 2),) and c == quantum_integer(2)
    w, c = concat_divided(A2, ((0, 1),), 1, 1)
    assert w == ((0, 1), (1, 1)) and c == ONE


def test_is_alive():
    ctx = ModuleContext(A1, (2,))
    assert dense.is_alive(ctx, EMPTY_WORD)
    assert dense.is_alive(ctx, ((0, 2),))
    assert not dense.is_alive(ctx, ((0, 3),))


def test_push_rank1_formulas():
    # E x_t = [n-t+1] x_{t-1} on Delta(n), realized on divided words
    for n in range(1, 6):
        ctx = ModuleContext(A1, (n,))
        for t in range(1, n + 1):
            out = push_E_through(ctx, 0, 1, ((0, t),))
            expected_coeff = quantum_integer(n - t + 1)
            expected_word = ((0, t - 1),) if t > 1 else EMPTY_WORD
            assert out == {expected_word: expected_coeff}
        # E^{(a)} x0 = 0 for a > 0
        assert push_E_through(ctx, 0, 1, EMPTY_WORD) == {}
    ctx2 = ModuleContext(A1, (2,))
    assert push_E_through(ctx2, 0, 1, ((0, 2),)) == {((0, 1),): ONE}


def test_push_commuting_index_annihilates():
    ctx = ModuleContext(A2, (1, 1))
    # E_2 commutes past F_1 and hits x0
    assert push_E_through(ctx, 1, 1, ((0, 1),)) == {}


def test_push_weight_homogeneity():
    ctx = ModuleContext(A2, (1, 1))
    words = [((0, 1),), ((0, 1), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 1), (0, 1))]
    for word in words:
        if not dense.is_alive(ctx, word):
            continue
        for j in range(2):
            for a in (1, 2):
                out = push_E_through(ctx, j, a, word)
                target = tuple(w - a * al for w, al in
                               zip(word_weight(A2, word), A2.alpha[j]))
                for w2 in out:
                    assert word_weight(A2, w2) == target


def test_gram_basics():
    ctx = ModuleContext(A1, (4,))
    assert gram_entry(ctx, EMPTY_WORD, EMPTY_WORD) == ONE
    for t in range(0, 5):
        word = ((0, t),) if t else EMPTY_WORD
        assert gram_entry(ctx, word, word) == quantum_binomial(4, t)
    # weight mismatch is zero
    assert gram_entry(ctx, ((0, 1),), ((0, 2),)).is_zero()


def _gram_by_push_chain(ctx, b, d):
    """The reference form: push every E factor of d, the outer one first,
    through the vector b, and read off the coefficient of the empty word."""
    if word_weight(ctx.datum, b) != word_weight(ctx.datum, d):
        return LaurentPoly.zero()
    vec = {b: ONE}
    for (j, a) in reversed(d):
        vec = push_E_through_vector(ctx, j, a, vec)
        if not vec:
            return LaurentPoly.zero()
    return vec.get(EMPTY_WORD, LaurentPoly.zero())


def _datum(name):
    return (build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[1, -1]])
            if name == "GL2" else build_root_datum(name))


ORACLE_CONFIGS = [("A2", (2, 2)), ("B2", (1, 1)), ("G2", (2, 0)),
                  ("A1xA1", (3, 3)), ("GL2", (2, 0))]
ORACLE_IDS = ["%s-%s" % (n, "".join(map(str, l))) for n, l in ORACLE_CONFIGS]


@pytest.mark.parametrize("name,lam", ORACLE_CONFIGS, ids=ORACLE_IDS)
def test_gram_recursion_matches_push_chain(name, lam):
    datum = _datum(name)
    ref_ctx = ModuleContext(datum, lam)
    words = [w for group in enumerate_words(ref_ctx).values() for w in group]
    ref = {(b, d): _gram_by_push_chain(ref_ctx, b, d)
           for b in words for d in words}
    assert any(p.is_zero() for p in ref.values())
    # each order on a fresh context, so neither reads the other's memo
    forward, backward = ModuleContext(datum, lam), ModuleContext(datum, lam)
    for i, b in enumerate(words):
        for d in words[i:]:
            assert gram_entry(forward, b, d) == ref[b, d], (b, d)
    for i in reversed(range(len(words))):
        for b in words[:i + 1]:
            d = words[i]
            assert gram_entry(backward, d, b) == ref[d, b], (d, b)
    for (b, d), p in ref.items():
        assert gram_entry(forward, b, d) == p == gram_entry(backward, b, d)
        if word_weight(datum, b) != word_weight(datum, d):
            assert p.is_zero()


@pytest.mark.parametrize("name,lam", ORACLE_CONFIGS, ids=ORACLE_IDS)
def test_push_and_concat_match_per_term_reference(name, lam):
    # the engine decides zero once per image, by its weight; the reference
    # tests every term with is_alive, with no memo
    datum = _datum(name)
    ctx = ModuleContext(datum, lam)
    words = [w for group in enumerate_words(ctx).values() for w in group
             if len(w) <= 3]
    empty = 0
    for word in words:
        for j in range(datum.rank):
            for a in (1, 2, 3):
                out = push_E_through(ctx, j, a, word)
                assert out == dense.push_E_through(ctx, j, a, word), \
                    (word, j, a)
                empty += not out
                # a single word and an image are each of a single weight
                for vec in ({word: ONE}, out):
                    for i in range(datum.rank):
                        assert concat_divided_vector(ctx, i, a, vec) == \
                            dense.concat_divided_vector(ctx, i, a, vec), \
                            (vec, i, a)
    assert empty


def test_push_zero_image_of_alive_prefix():
    # E_0 sends the prefix to x0, but the word's image has the weight
    # lambda - alpha_1, outside W pi_lambda of A2 (1,0)
    ctx = ModuleContext(A2, (1, 0))
    word = ((0, 1), (1, 1))
    assert dense.is_alive(ctx, word)
    assert push_E_through(ctx, 0, 1, word[:1]) == {EMPTY_WORD: ONE}
    assert push_E_through(ctx, 0, 1, word) == {}
    assert dense.push_E_through(ctx, 0, 1, word) == {}


def test_gram_symmetry_a2():
    ctx = ModuleContext(A2, (1, 1))
    words = [w for w in [((0, 1), (1, 1)), ((1, 1), (0, 1))]
             if dense.is_alive(ctx, w)]
    assert len(words) == 2
    for b, d in itertools.product(words, repeat=2):
        assert gram_entry(ctx, b, d) == gram_entry(ctx, d, b)
    # the weight-(0,0) Gram of the adjoint module has rank 2
    g = [[gram_entry(ctx, b, d) for d in words] for b in words]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    assert not det.is_zero()


def test_gram_contravariance():
    # phi(F_i x, y) = phi(x, E_i y) on small weight spaces
    for datum, lam in [(A1, (3,)), (A2, (1, 1))]:
        ctx = ModuleContext(datum, lam)
        words = _alive_words_up_to(ctx, depth=3)
        for b, d in itertools.product(words, repeat=2):
            for i in range(datum.rank):
                lhs_vec = concat_divided_vector(ctx, i, 1, {b: ONE})
                lhs = _gram_of_vec_pair(ctx, lhs_vec, {d: ONE})
                rhs_vec = push_E_through_vector(ctx, i, 1, {d: ONE})
                rhs = _gram_of_vec_pair(ctx, {b: ONE}, rhs_vec)
                assert lhs == rhs, (lam, b, d, i)


def _alive_words_up_to(ctx, depth):
    out = [EMPTY_WORD]
    frontier = [EMPTY_WORD]
    while frontier:
        nxt = []
        for w in frontier:
            used = sum(a for _, a in w)
            for i in range(ctx.datum.rank):
                if w and w[-1][0] == i:
                    continue
                for a in range(1, depth - used + 1):
                    w2 = w + ((i, a),)
                    if dense.is_alive(ctx, w2):
                        nxt.append(w2)
        out.extend(nxt)
        frontier = nxt
    return out


def _gram_of_vec_pair(ctx, vec1, vec2):
    total = LaurentPoly.zero()
    for b, cb in vec1.items():
        for d, cd in vec2.items():
            total = total + cb * cd * gram_entry(ctx, b, d)
    return total


def test_plain_divided_consistency():
    # concatenating (i,1) a times equals [a]! times concatenating (i,a)
    ctx = ModuleContext(A1, (5,))
    for a in (2, 3):
        vec = {EMPTY_WORD: ONE}
        for _ in range(a):
            vec = concat_divided_vector(ctx, 0, 1, vec)
        direct = concat_divided_vector(ctx, 0, a, {EMPTY_WORD: ONE})
        fact = quantum_factorial(a)
        assert set(vec) == set(direct)
        for w in vec:
            assert vec[w] == fact * direct[w]


def test_plain_word_E_action_cross_check():
    # Divided-power route agrees with the plain-word expansion
    #   E_j . F-word = sum over matching factors of [<alpha_j^vee, weight
    #   below the factor>] times the word with that factor omitted,
    # both realized inside Delta(lambda).
    for datum, lam in [(A1, (4,)), (A2, (1, 1)), (A2, (2, 1))]:
        ctx = ModuleContext(datum, lam)
        plain = [w for w in _alive_words_up_to(ctx, 3) if all(a == 1 for _, a in w)]
        for word in plain:
            for j in range(datum.rank):
                expected: dict = {}
                for t, (it, _) in enumerate(word):
                    if it != j:
                        continue
                    below = ctx.weight_of(word[:t])
                    coeff = quantum_integer(datum.pairing(j, below), datum.d[j])
                    vec = {word[:t]: coeff}
                    for (i2, a2) in word[t + 1:]:
                        vec = concat_divided_vector(ctx, i2, a2, vec)
                    for w2, c2 in vec.items():
                        cur = expected.get(w2, LaurentPoly.zero())
                        expected[w2] = cur + c2
                expected = {w: c for w, c in expected.items() if not c.is_zero()}
                assert push_E_through(ctx, j, 1, word) == expected, (lam, word, j)


def test_idempotent_straighten():
    s = idempotent_straighten(A1, (0,), (4,))
    assert s.exponents == (4,) and s.end_weight == (-4,)
    s0 = idempotent_straighten(A1, (), (3,))
    assert s0.exponents == () and s0.end_weight == (3,)
    s2 = idempotent_straighten(A2, (0, 1), (1, 0))
    assert s2.exponents == (1, 1) and s2.end_weight == (0, -1)
    with pytest.raises(NonReducedWordError):
        idempotent_straighten(A2, (0, 0), (1, 0))
    # full-orbit words from dominant representatives are always valid
    for mu in A2.weyl_orbit((2, 1)):
        plus, word = A2.dominant_representative(mu)
        s3 = idempotent_straighten(A2, word, plus)
        assert s3.end_weight == mu
        assert all(a > 0 for a in s3.exponents)
