"""Root data: presets, Weyl combinatorics, saturation, character oracles."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from qschur.errors import (
    CapExceededError,
    NonDominantSeedError,
    NotFiniteTypeError,
    PairingMismatchError,
)
from qschur.linalg import reduced_echelon
from qschur.rootdata import (
    CartanDatum,
    build_flag,
    build_root_datum,
    parse_preset,
    saturate,
)

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
G2 = build_root_datum("G2")


def test_preset_a1():
    assert A1.rank == 1 and A1.n == 1
    assert A1.cartan.cartan_matrix() == ((2,),)
    assert A1.alpha == ((2,),)
    assert A1.weyl_order == 2


def test_preset_a2():
    assert A2.cartan.cartan_matrix() == ((2, -1), (-1, 2))
    assert A2.alpha == ((2, -1), (-1, 2))
    assert A2.alphav == ((1, 0), (0, 1))
    assert A2.weyl_order == 6
    assert len(A2.positive_roots) == 3


def test_preset_b2_g2():
    assert B2.weyl_order == 8
    assert len(B2.positive_roots) == 4
    assert B2.d == (2, 1)
    assert G2.weyl_order == 12
    assert len(G2.positive_roots) == 6
    assert G2.d == (1, 3)


def test_preset_products_and_bigger():
    a1a1 = build_root_datum("A1xA1")
    assert a1a1.rank == 2 and a1a1.weyl_order == 4
    a3 = build_root_datum("A", rank=3)
    assert a3.weyl_order == 24
    d4 = build_root_datum("D4")
    assert d4.weyl_order == 192
    f4 = build_root_datum("F4")
    assert f4.weyl_order == 1152 and len(f4.positive_roots) == 24
    # the short simple roots of each factor have d_i = 1
    assert f4.d == (2, 2, 1, 1) and d4.d == (1, 1, 1, 1)
    for preset, d in (("B3", (2, 2, 1)), ("C3", (1, 1, 2)),
                      ("A1xB2", (1, 2, 1)), ("G2xC3", (1, 3, 1, 1, 2))):
        assert build_root_datum(preset).d == d, preset


def test_preset_rank_must_match_the_name():
    assert parse_preset("A2", 2) == ("A2", [("A", 2)])
    assert parse_preset("A", 2) == ("A2", [("A", 2)])
    assert build_root_datum("A1xA1", rank=2).rank == 2
    for preset, rank in (("A1", 2), ("A1xA1", 3), ("G2", 1)):
        with pytest.raises(ValueError):
            parse_preset(preset, rank)


def test_weyl_order_exceptional():
    assert build_root_datum("E6").weyl_order == 51840
    assert build_root_datum("E7").weyl_order == 2903040
    assert build_root_datum("E8").weyl_order == 696729600


def _regular_orbit_size(datum):
    """|W| as the orbit size of 2 rho, the sum of the positive roots,
    which pairs to 2 with every simple coroot (so it is regular)."""
    two_rho = tuple(sum(rt[k] for rt, _ in datum.positive_roots)
                    for k in range(datum.n))
    assert all(datum.pairing(i, two_rho) == 2 for i in range(datum.rank))
    return len(datum.weyl_orbit(two_rho))


@pytest.mark.parametrize("preset", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
    "F4", "G2", "A1xA1", "GL2"])
def test_weyl_order_matches_regular_orbit(preset):
    if preset == "GL2":
        datum = build_root_datum(cartan=[[2]], alpha=[[1, -1]],
                                 alphav=[[1, -1]])
    else:
        datum = build_root_datum(preset)
    assert datum.weyl_order == _regular_orbit_size(datum)


def test_orbit_size_without_enumeration():
    for datum in (A1, A2, B2, G2, build_root_datum("A1xA1"),
                  build_root_datum("A3")):
        for lam in itertools.product(range(3), repeat=datum.n):
            assert datum.orbit_size(lam) == len(datum.weyl_orbit(lam))


def test_explicit_datum_and_pairing_mismatch():
    # GL_2-style datum: X = Z^2, alpha = (1,-1), alphav = (1,-1)
    gl2 = build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[1, -1]])
    assert gl2.weyl_order == 2
    assert gl2.pairing(0, (1, 0)) == 1
    with pytest.raises(PairingMismatchError):
        # <alpha^vee, alpha> = 3 here, violating the root-datum axiom
        build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[2, -1]])


PRESETS = (["A%d" % r for r in range(1, 9)] + ["B%d" % r for r in range(2, 9)]
           + ["C%d" % r for r in range(2, 9)] + ["D%d" % r for r in range(3, 9)]
           + ["E6", "E7", "E8", "F4", "G2", "A1xB2", "B2xA1", "G2xC3", "A1xA1",
              "B3xC2xG2", "F4xA2"])


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_equals_its_explicit_matrices(preset):
    datum = build_root_datum(preset)
    explicit = build_root_datum(cartan=datum.cartan.cartan_matrix(),
                                alpha=datum.alpha, alphav=datum.alphav)
    assert explicit.d == datum.d
    assert explicit.cartan.dot == datum.cartan.dot
    assert explicit.positive_roots == datum.positive_roots
    assert explicit.weyl_order == datum.weyl_order


def test_symmetrizer_is_minimal_per_interleaved_component():
    # nodes 0 and 2 form a B2 (alpha_2 short), node 1 is apart
    cartan = [[2, 0, -1], [0, 2, 0], [-2, 0, 2]]
    datum = build_root_datum(
        cartan=cartan, alpha=[[row[j] for row in cartan] for j in range(3)],
        alphav=[[int(i == j) for i in range(3)] for j in range(3)])
    assert datum.d == (2, 1, 1)
    assert datum.weyl_order == 16


def test_not_finite_type():
    with pytest.raises(NotFiniteTypeError):
        CartanDatum(((2, -2), (-2, 2)))  # affine A1~
    with pytest.raises(NotFiniteTypeError):
        CartanDatum(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(NotFiniteTypeError, match="not symmetric"):
        CartanDatum(((2, -1), (-2, 4)))
    with pytest.raises(NotFiniteTypeError, match="not positive definite"):
        CartanDatum(((2, -3), (-3, 2)))  # eigenvalues 5 and -1


def test_reflect():
    assert A1.reflect(0, (4,)) == (-4,)
    assert A2.reflect(0, (1, 0)) == (-1, 1)
    assert A2.reflect(1, (1, 0)) == (1, 0)  # pairing zero: fixed


def test_weyl_orbit():
    assert A1.weyl_orbit((3,)) == frozenset({(3,), (-3,)})
    assert A2.weyl_orbit((1, 0)) == frozenset({(1, 0), (-1, 1), (0, -1)})
    assert len(A2.weyl_orbit((1, 1))) == 6  # regular orbit


def test_dominant_representative():
    for lam in [(1, 0), (1, 1), (2, 1)]:
        for mu in A2.weyl_orbit(lam):
            plus, word = A2.dominant_representative(mu)
            assert plus == lam
            cur = plus
            for i in word:
                cur = A2.reflect(i, cur)
            assert cur == mu


def _gl2():
    return build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[1, -1]])


def test_dominance():
    assert A2.dominance_leq((0, 0), (1, 1))  # (1,1) = alpha1 + alpha2
    assert A2.dominance_leq((1, 1), (1, 1))
    assert not A1.dominance_leq((1,), (2,))  # difference odd
    assert not A2.dominance_leq((0, 0), (1, 0))  # not in the root lattice cone


def _fraction_alpha_coords(datum, nu):
    """Reference solve of nu = sum c_j alpha_j over Q: the reduced echelon
    rows of [A | I] read in Fraction arithmetic, None off the root space."""
    r = len(datum.alpha)
    rows = ({**{j: Fraction(datum.alpha[j][k]) for j in range(r)
                if datum.alpha[j][k]}, r + k: Fraction(1)}
            for k in range(datum.n))
    sol = [Fraction(0)] * r
    for p, row in reduced_echelon(rows, Fraction(1)):
        value = sum((x * nu[c - r] for c, x in row.items() if c >= r),
                    Fraction(0))
        if p < r:
            sol[p] = value
        elif value:
            return None
    return tuple(sol)


@pytest.mark.parametrize("datum", [
    A2, B2, G2, build_root_datum("D4"), build_root_datum("A1xA1"), _gl2(),
], ids=["A2", "B2", "G2", "D4", "A1xA1", "GL2"])
def test_integer_alpha_solver_matches_fraction_oracle(datum):
    rng = random.Random(datum.n)
    seen = set()
    for _ in range(400):
        mu = tuple(rng.randint(-6, 6) for _ in range(datum.n))
        if rng.random() < 0.5:  # land in the root lattice, often in the cone
            lam = tuple(m + sum(rng.randint(-1, 3) * a[k] for a in datum.alpha)
                        for k, m in enumerate(mu))
        else:
            lam = tuple(rng.randint(-6, 6) for _ in range(datum.n))
        diff = tuple(a - b for a, b in zip(lam, mu))
        coords = _fraction_alpha_coords(datum, diff)
        assert datum.alpha_coords(diff) == coords
        expect = coords is not None and all(
            c.denominator == 1 and c >= 0 for c in coords)
        assert datum.dominance_leq(mu, lam) == expect
        seen.add("none" if coords is None else
                 "fraction" if any(c.denominator > 1 for c in coords) else
                 "leq" if expect else "negative")
    # inconsistent queries only arise off a full-rank root space (GL2)
    assert seen >= {"leq", "negative"}
    assert ("none" in seen) == (len(datum.alpha) < datum.n)


def test_saturate():
    s = saturate(A1, [(4,)])
    assert s.elements == ((0,), (2,), (4,))
    s2 = saturate(A2, [(1, 1)])
    assert s2.elements == ((0, 0), (1, 1))
    assert saturate(A2, []).elements == ()
    with pytest.raises(NonDominantSeedError):
        saturate(A2, [(-1, 0)])


def test_saturate_orbit_cap():
    # W pi for seed (2, 2) is 1 + 3 + 3 + 6 + 6 = 19 weights
    assert len(saturate(A2, [(2, 2)], orbit_cap=19).orbit_weights()) == 19
    with pytest.raises(CapExceededError):
        saturate(A2, [(2, 2)], orbit_cap=18)


def test_saturate_idempotent_monotone():
    s = saturate(A2, [(2, 2)])
    again = saturate(A2, list(s.elements))
    assert again.elements == s.elements
    smaller = saturate(A2, [(1, 1)])
    assert set(smaller.elements) <= set(s.elements)


def test_flag():
    s = saturate(A1, [(4,)])
    flag = build_flag(s)
    assert flag.ordering == ((4,), (2,), (0,))
    s2 = saturate(A2, [(1, 1)])
    assert build_flag(s2).ordering == ((1, 1), (0, 0))
    s3 = saturate(A1, [(1,)])
    assert build_flag(s3).ordering == ((1,),)


def test_flag_prefixes_cosaturated():
    s = saturate(B2, [(1, 1)])
    flag = build_flag(s)
    order = flag.ordering
    for j in range(1, len(order) + 1):
        prefix = set(order[:j])
        for mu in prefix:
            for lam in s.elements:
                if B2.dominance_leq(mu, lam):
                    assert lam in prefix


def _naive_flag(pi):
    """Remove the lexicographically least maximal element, recomputing the
    maximal set from scratch each time."""
    datum = pi.datum
    remaining = list(pi.elements)
    ordering = []
    while remaining:
        pick = min(mu for mu in remaining
                   if not any(nu != mu and datum.dominance_leq(mu, nu)
                              for nu in remaining))
        ordering.append(pick)
        remaining.remove(pick)
    return tuple(ordering)


def _random_saturated_sets(rng, count):
    """Seeded random seeds, one to three dominant weights with small
    entries, on root data from A1 to F4, products and GL2 included."""
    names = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "A1xA1",
             "A2xB2", "GL2"]
    out = []
    for k in range(count):
        name = names[k % len(names)]
        datum = _gl2() if name == "GL2" else build_root_datum(name)
        top = {1: 12, 2: 5, 3: 3}.get(datum.rank, 1)
        seeds, size = [], rng.randint(1, 3)
        while len(seeds) < size:
            mu = tuple(rng.randint(-2, top) for _ in range(datum.n))
            if datum.is_dominant(mu):
                seeds.append(mu)
        out.append(pytest.param(datum, seeds, id="random-%s-%d" % (name, k)))
    return out


@pytest.mark.parametrize("datum, seeds", [
    pytest.param(B2, [(0, 4), (3, 0)], id="B2"),
    pytest.param(G2, [(3, 2)], id="G2"),
    pytest.param(A2, [(2, 2), (4, 1)], id="A2"),
    pytest.param(build_root_datum("D4"), [(0, 2, 0, 0)], id="D4"),
    pytest.param(_gl2(), [(3, 0), (2, 2), (4, -1)], id="GL2"),
] + _random_saturated_sets(random.Random(1998), 36))
def test_flag_is_quadratic_and_lex_least_maximal(monkeypatch, datum, seeds):
    pi = saturate(datum, seeds)
    calls = []
    leq = type(datum).dominance_leq

    def counting(self, mu, lam):
        calls.append((mu, lam))
        return leq(self, mu, lam)

    monkeypatch.setattr(type(datum), "dominance_leq", counting)
    ordering = build_flag(pi).ordering
    assert len(calls) <= len(pi) ** 2
    assert ordering == _naive_flag(pi)


def test_flag_of_a_long_chain_is_small():
    # 5,000 weights in one chain: a table of every larger weight would
    # hold 12.5 million entries
    pi = saturate(A1, [(9998,)])
    tracemalloc.start()
    try:
        ordering = build_flag(pi).ordering
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ordering == tuple((n,) for n in range(9998, -1, -2))
    assert peak < 50 * 2 ** 20


LADDER = [
    ("A1", (4,)), ("A2", (2, 1)), ("A3", (1, 0, 2)), ("A4", (1, 0, 0, 1)),
    ("B2", (2, 1)), ("B3", (1, 0, 1)), ("B4", (0, 0, 0, 2)),
    ("C3", (1, 1, 0)), ("D4", (1, 0, 1, 1)), ("F4", (1, 0, 0, 0)),
    ("F4", (0, 0, 0, 1)), ("G2", (2, 1)), ("A1xA1", (2, 3)), ("GL2", (3, -1)),
]


@pytest.mark.parametrize("preset, lam", LADDER)
def test_freudenthal_support_is_saturated_orbit(preset, lam):
    # Freudenthal descends by simple roots through weights, saturate by
    # positive roots through dominant weights: they must find the same set
    datum = _gl2() if preset == "GL2" else build_root_datum(preset)
    char = datum.freudenthal_character(lam)
    pi = saturate(datum, [lam])
    assert len(char) == len(pi.orbit_weights())
    assert {mu for mu in char if datum.is_dominant(mu)} == set(pi.elements)
    assert sum(char.values()) == datum.weyl_dimension(lam)


def test_freudenthal_a1():
    for n in range(0, 7):
        char = A1.freudenthal_character((n,))
        assert char == {(n - 2 * t,): 1 for t in range(n + 1)}
        assert A1.weyl_dimension((n,)) == n + 1


def test_freudenthal_a2():
    adjoint = A2.freudenthal_character((1, 1))
    assert sum(adjoint.values()) == 8
    assert adjoint[(0, 0)] == 2
    assert A2.weyl_dimension((1, 1)) == 8
    fund = A2.freudenthal_character((1, 0))
    assert fund == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    assert A2.weyl_dimension((1, 0)) == 3
    assert A2.weyl_dimension((2, 0)) == 6


def test_freudenthal_b2_g2():
    assert B2.weyl_dimension((1, 0)) == 5
    assert B2.weyl_dimension((0, 1)) == 4
    assert sum(B2.freudenthal_character((1, 0)).values()) == 5
    assert sum(B2.freudenthal_character((0, 1)).values()) == 4
    # G2 fundamental 7-dim and adjoint 14-dim
    assert G2.weyl_dimension((1, 0)) == 7
    assert sum(G2.freudenthal_character((0, 1)).values()) == 14


def test_character_invariants():
    for datum, lam in [(A2, (2, 1)), (B2, (1, 1))]:
        char = datum.freudenthal_character(lam)
        assert char[lam] == 1
        assert sum(char.values()) == datum.weyl_dimension(lam)
        # Weyl invariance on full orbits
        for mu, m in char.items():
            for w in datum.weyl_orbit(mu):
                assert char.get(w) == m


def test_orbit_size_divides_weyl_order():
    for datum in (A2, B2, G2):
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            assert datum.weyl_order % len(datum.weyl_orbit(lam)) == 0


def test_w0():
    assert A1.w0((3,)) == (-3,)
    assert A2.w0((1, 0)) == (0, -1)  # -w0 permutes the fundamentals
    assert B2.w0((1, 0)) == (-1, 0)  # w0 = -1 for B2
