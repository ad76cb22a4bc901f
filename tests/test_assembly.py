"""Algebra assembly: block model, cellular basis, verification suites."""

import copy
import random

from qschur import assembly
from qschur.assembly import (
    BlockMatrix,
    CellBasisElement,
    VerificationReport,
    assemble,
    matrix_span_rank,
    rank1_canonical_identity,
    verify_cellularity,
    verify_relations,
)
from qschur.linalg import POINT, sparse_product
from qschur.rootdata import CosaturatedFlag, build_flag, build_root_datum, saturate
from qschur.scalars import FieldContext, LaurentPoly, RatFunc

import dense

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
GEN = FieldContext.generic()


def build(datum, seeds):
    return assemble(saturate(datum, seeds))


def test_assemble_dims():
    s = build(A1, [(2,), (1,)])  # pi = {0,1,2}
    assert s.dim == 1 + 4 + 9 == 14
    assert sum(s.dims.values()) == 1 + 2 + 3
    s2 = build(A2, [(1, 0)])
    assert s2.dim == 9
    s0 = build(A1, [(0,)])
    assert s0.dim == 1
    e = s0.gen(("E", 0, 1))
    f = s0.gen(("F", 0, 1))
    assert e.is_zero() and f.is_zero()
    assert s0.gen(("P", (0,))) == s0.identity()


def test_star_on_generators():
    s = build(A2, [(1, 1)])
    for i in range(2):
        assert s.star(s.gen(("E", i, 1))) == s.gen(("F", i, 1))
        assert s.star(s.gen(("F", i, 1))) == s.gen(("E", i, 1))
    for mu in s.orbit_weights:
        p = s.gen(("P", mu))
        assert s.star(p) == p
    # involution on a generating sample
    for sym in (("E", 0, 1), ("F", 1, 1), ("E", 1, 2)):
        x = s.gen(sym)
        assert s.star(s.star(x)) == x


def test_k_element():
    s = build(A1, [(2,)])
    ident = s.identity()
    assert s.k_element([0]) == ident
    k = s.k_element(A1.alphav[0])
    blk = k.blocks[(2,)]
    diag = [str(blk.entries[t][t]) for t in range(3)]
    assert diag == ["v^2", "1", "v^-2"]


def _random_scalar(rng):
    num = LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])
                       for _ in range(rng.randint(1, 2))})
    if rng.random() < 0.3:
        return RatFunc(num, LaurentPoly({0: 1, 1: rng.choice([1, 2])}))
    return GEN.from_laurent(num)


def _random_block_matrix(rng, dims, density):
    return BlockMatrix(dims, {
        lam: blk for lam, n in dims.items()
        if (blk := {i: row for i in range(n)
                    if (row := {j: _random_scalar(rng) for j in range(n)
                                if rng.random() < density})})})


def _partly_cancelling(rng, bm):
    """-bm on a random part of its entries: bm + result cancels there."""
    return BlockMatrix(bm.dims, {
        lam: blk for lam, b in bm.sparse.items()
        if (blk := {i: row for i, r in b.items()
                    if (row := {j: -x for j, x in r.items()
                                if rng.random() < 0.6})})})


def _assert_canonical(bm):
    """No stored zero, no empty row, no empty block."""
    for blk in bm.sparse.values():
        assert blk
        for row in blk.values():
            assert row and all(row.values())


def test_block_matrix_agrees_with_dense_oracle():
    rng = random.Random(8)
    for _ in range(60):
        dims = {(k,): rng.randint(1, 6) for k in range(rng.randint(2, 4))}
        x = _random_block_matrix(rng, dims, rng.choice([0.0, 0.1, 0.2]))
        y = _random_block_matrix(rng, dims, rng.choice([0.1, 0.2]))
        dx, dy = x.blocks, y.blocks
        assert list(dx) == list(dims)
        assert all((m.rows, m.cols) == (n, n) for m, n in
                   zip(dx.values(), dims.values()))
        dense_zero = {lam: dense.zero(GEN, n, n)
                      for lam, n in dims.items()}
        part = _partly_cancelling(rng, x)
        dpart = part.blocks
        cases = [
            (x + y, {lam: dense.add(dx[lam], dy[lam]) for lam in dims}),
            (x - y, {lam: dense.sub(dx[lam], dy[lam]) for lam in dims}),
            (-x, {lam: dense.neg(dx[lam]) for lam in dims}),
            (x * y, {lam: dx[lam] * dy[lam] for lam in dims}),
            (y * x, {lam: dy[lam] * dx[lam] for lam in dims}),
            (x - x, dense_zero),
            (x + part, {lam: dense.add(dx[lam], dpart[lam]) for lam in dims}),
            ((x + part) * y, {lam: dense.add(dx[lam], dpart[lam]) * dy[lam]
                              for lam in dims}),
        ]
        for bm, expected in cases:
            _assert_canonical(bm)
            assert bm.blocks == expected
            assert bm.is_zero() == all(dense.is_zero(m)
                                       for m in expected.values())
        assert (x == y) == (dx == dy)
        assert (x + part == x) == (dpart == dense_zero)
        rebuilt = BlockMatrix(dims, {
            lam: {i: {j: m.entries[i][j] for j in reversed(range(n))
                      if m.entries[i][j]}
                  for i in reversed(range(n)) if any(m.entries[i])}
            for (lam, m), n in zip(dx.items(), dims.values())
            if not dense.is_zero(m)})
        assert rebuilt == x


def test_cellular_basis_counts():
    s = build(A1, [(2,), (1,)])
    els = s.cellular_basis()
    assert len(els) == 14
    assert matrix_span_rank(s, [el.matrix for el in els]) == 14
    s2 = build(A2, [(1, 1)])
    els2 = s2.cellular_basis()
    assert len(els2) == 65
    assert matrix_span_rank(s2, [el.matrix for el in els2]) == 65


def test_cellular_basis_rank1_divided_power_form():
    # each cell-(m,) element is F^{(b)} 1_m E^{(a)} with 0 <= a, b <= m
    s = build(A1, [(2,), (1,)])
    for el in s.cellular_basis():
        m = el.lam[0]
        for combo in (el.left, el.right):
            assert len(combo) == 1
            word, coeff = combo[0]
            assert coeff == LaurentPoly.one()
            assert word == () or (len(word) == 1 and word[0][0] == 0
                                  and 1 <= word[0][1] <= m)


def test_cellular_triangularity_example():
    # In A1 pi = {0,1,2}: cell-(2,) elements vanish on blocks (1,) and (0,)
    s = build(A1, [(2,), (1,)])
    for el in s.cellular_basis():
        if el.lam == (2,):
            assert dense.is_zero(el.matrix.blocks[(1,)])
            assert dense.is_zero(el.matrix.blocks[(0,)])


def test_verification_reports_do_not_share_checks():
    a, b = VerificationReport(), VerificationReport()
    a.add("first", True)
    assert b.checks == [] and b.ok
    b.add("second", False, "detail")
    assert [c.name for c in a.checks] == ["first"]
    assert [c.name for c in b.failures()] == ["second"]


def test_verify_relations_pass():
    for s in (build(A1, [(3,)]), build(A2, [(1, 1)])):
        rep = verify_relations(s, depth=2, samples=4)
        assert rep.ok, [c.name for c in rep.failures()]


def test_projectors_off_orbit_are_uncached_zeros():
    s = build(A2, [(1, 1)])
    verify_relations(s, depth=2, samples=4)
    weights = set(s.orbit_weights)
    keys = [key for key in s._gen_cache if key[0] == "P"]
    assert keys and all(key[1] in weights for key in keys)
    off = [(3, 3), (-4, 0), (0, 5)]
    assert all(mu not in weights for mu in off)
    assert all(s.gen(("P", mu)).is_zero() for mu in off)
    assert all(("P", mu) not in s._gen_cache for mu in off)


def test_shared_action_blocks_stay_canonical_and_unmutated():
    # gen caches each generator once, its blocks the modules' action rows
    # without a copy, so no block-matrix operation may write into them
    s = build(A2, [(1, 1)])
    symbols = [(kind, i, a) for i in range(2) for a in range(4)
               for kind in ("E", "F")]
    symbols += [("P", mu) for mu in s.orbit_weights]
    blocks = {sym: dict(s.gen(sym).sparse) for sym in symbols}
    for sym, first in blocks.items():
        again = s.gen(sym).sparse
        assert again.keys() == first.keys(), sym
        assert all(again[lam] is blk for lam, blk in first.items()), sym
    elements = s.cellular_basis()
    snapshot = {sym: copy.deepcopy(x.sparse) for sym, x in s._gen_cache.items()}
    assert verify_relations(s, depth=3, samples=4).ok
    assert verify_cellularity(s, elements).ok
    assert verify_cellularity(s, integral=True).ok
    for sym, sparse in snapshot.items():
        assert s._gen_cache[sym].sparse == sparse, sym
    for sym, x in s._gen_cache.items():
        assert all(blk and all(row and all(row.values()) for row in blk.values())
                   for blk in x.sparse.values()), sym


def test_serre_checked_only_in_higher_rank():
    rep1 = verify_relations(build(A1, [(2,)]), depth=2, samples=2)
    assert "relation.serre" not in [c.name for c in rep1.checks]
    rep2 = verify_relations(build(A2, [(1, 1)]), depth=2, samples=2)
    assert "relation.serre" in [c.name for c in rep2.checks]


def test_verify_cellularity_pass():
    for s in (build(A1, [(2,), (1,)]), build(A2, [(1, 1)])):
        rep = verify_cellularity(s)
        assert rep.ok, [c.name for c in rep.failures()]


def test_verify_cellularity_integral_basis():
    s = build(A2, [(1, 1)])
    rep = verify_cellularity(s, integral=True)
    assert rep.ok, [c.name for c in rep.failures()]


def bump(bm, lam, i, j):
    """Add 1 to entry [i][j] of block lam, in the sparse store itself."""
    row = bm.sparse.setdefault(lam, {}).setdefault(i, {})
    row[j] = row.get(j, GEN.zero()) + GEN.one()
    assert row[j]


def test_negative_control_corrupted_generator():
    s = build(A1, [(2,)])
    bump(s.gen(("E", 0, 1)), (2,), 0, 1)
    rep = verify_relations(s, depth=1, samples=1)
    assert not rep.ok
    failures = {c.name: c.detail for c in rep.failures()}
    assert failures["relation.commutator"] == "i=0, j=0"
    # every failing check names its first witness; passing ones stay blank
    assert all(failures.values()), failures
    assert all(c.detail == "" for c in rep.checks if c.passed)


def test_negative_control_corrupted_cell_element():
    s = build(A1, [(2,), (1,)])
    elements = s.cellular_basis()
    el = next(el for el in elements if el.lam == (2,)
              and el.left != el.right)
    for lam in ((1,), (2,)):  # (1,) is not above (2,): it must vanish
        bump(el.matrix, lam, 0, 0)
    rep = verify_cellularity(s, elements)
    failures = {c.name: c.detail for c in rep.failures()}
    assert set(failures) == {"cellular.triangular", "cellular.rank_one_blocks",
                             "cellular.star_swaps"}
    for detail in failures.values():
        assert "lambda=(2,)" in detail
        assert "left=1*%s" % [list(f) for f in el.left[0][0]] in detail
        assert "right=1*%s" % [list(f) for f in el.right[0][0]] in detail
    assert failures["cellular.triangular"].endswith("mu=(1,)")


def test_biweight_decomposition():
    s = build(A2, [(1, 1)])
    for i in range(2):
        e = s.gen(("E", i, 1))
        for mu in s.orbit_weights:
            for nu in s.orbit_weights:
                prod = s.gen(("P", mu)) * e * s.gen(("P", nu))
                diff = tuple(a - b for a, b in zip(mu, nu))
                if diff != A2.alpha[i]:
                    assert prod.is_zero()


def test_generators_nilpotent():
    s = build(A2, [(1, 1)])
    # a product of more than height(lambda - w0 lambda) lowering or raising
    # generators leaves the weights of every Delta(lambda)
    n = max(int(sum(A2.alpha_coords(
        tuple(a - b for a, b in zip(lam, A2.w0(lam))))))
        for lam in s.modules) + 1
    for i in range(2):
        for kind in ("E", "F"):
            x = s.gen((kind, i, 1))
            power = s.identity()
            for _ in range(n):
                power = power * x
            assert power.is_zero()


def test_flag_independence():
    pi = saturate(A1, [(2,), (1,)])
    flag_a = build_flag(pi)
    # lex-least maximal first: (1,) and (2,) are incomparable
    order = list(flag_a.ordering)
    assert order == [(1,), (2,), (0,)]
    # a different admissible order: swap the two incomparable top cells
    flag_b = CosaturatedFlag(A1, ((2,), (1,), (0,)))
    s_a = assemble(pi, flag=flag_a)
    s_b = assemble(pi, flag=flag_b)
    mats_a = [el.matrix for el in s_a.cellular_basis()]
    els_b = s_b.cellular_basis()
    # compare inside one ambient algebra: rebuild b's elements against s_a
    mats_b = []
    for el in els_b:
        m = s_a.rho_combo("F", el.left) * s_a.gen(("P", el.lam)) * \
            s_a.rho_combo("E", el.right)
        mats_b.append(m)
    ra = matrix_span_rank(s_a, mats_a)
    rb = matrix_span_rank(s_a, mats_b)
    rboth = matrix_span_rank(s_a, mats_a + mats_b)
    assert ra == rb == rboth == s_a.dim


def test_rank1_canonical_identity():
    s = build(A1, [(4,), (3,)])
    for n in range(0, 5):
        assert rank1_canonical_identity(s, n)


def test_idempotent_straightening_example():
    # rho_n(F^{(n)} 1_n E^{(n)}) = rho_n(1_{-n})
    s = build(A1, [(3,), (2,)])
    for n in (1, 2, 3):
        lam = (n,)
        lhs = s.gen(("F", 0, n)) * s.gen(("P", lam)) * s.gen(("E", 0, n))
        rhs = s.gen(("P", (-n,)))
        assert lhs.blocks[lam] == rhs.blocks[lam]


def _counting_forward_eliminate(monkeypatch):
    """Count the exact eliminations matrix_span_rank falls back to."""
    calls = []
    exact = assembly.forward_eliminate

    def counted(rows):
        calls.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(assembly, "forward_eliminate", counted)
    return calls


def test_full_span_rank_is_certified_at_the_point(monkeypatch):
    calls = _counting_forward_eliminate(monkeypatch)
    s = build(A2, [(1, 1)])
    rep = verify_cellularity(s)
    assert rep.ok
    assert calls == []


def test_duplicated_element_falls_back_to_exact_rank(monkeypatch):
    calls = _counting_forward_eliminate(monkeypatch)
    s = build(A2, [(1, 1)])
    elements = s.cellular_basis()
    n = len(elements)
    # element 1 takes element 0's matrix: n elements spanning n - 1
    first, second = elements[0], elements[1]
    elements[1] = CellBasisElement(second.lam, second.left, second.right,
                                   first.matrix)
    rep = verify_cellularity(s, elements)
    checks = {c.name: c for c in rep.checks}
    assert not checks["cellular.independent"].passed
    assert checks["cellular.independent"].detail == \
        "span rank %d of %d" % (n - 1, n)
    assert checks["cellular.count"].passed
    assert calls == [n]


def test_span_rank_with_a_denominator_vanishing_at_the_point(monkeypatch):
    calls = _counting_forward_eliminate(monkeypatch)
    s = build(A1, [(1,)])
    lam = (1,)
    v = LaurentPoly.var(1)
    pole = RatFunc(LaurentPoly.one(), v - LaurentPoly.const(POINT))
    one = GEN.one()
    mats = [BlockMatrix(s.dims, {lam: {0: {0: pole}}}),
            BlockMatrix(s.dims, {lam: {0: {1: one}}}),
            BlockMatrix(s.dims, {lam: {1: {0: one, 1: pole}}})]
    assert matrix_span_rank(s, mats) == 3
    assert calls == [3]


def _product_trace(bm):
    """A block matrix with the insertion order of its blocks and rows."""
    return [(lam, [(i, list(row.items())) for i, row in blk.items()])
            for lam, blk in bm.sparse.items()]


def _plain_product(x, y):
    return BlockMatrix(x.dims, {lam: b for lam, a in x.sparse.items()
                                if (b := sparse_product(a, y.block(lam)))})


def test_projector_products_are_index_slices():
    # x 1_mu, 1_mu x and 1_mu 1_nu equal the per-block sparse_product,
    # entries and insertion order alike, for every generator and weight
    for s in (build(A2, [(2, 1)]), build(B2, [(1, 1)])):
        gens = [s.gen((kind, i, a)) for kind in ("E", "F")
                for i in range(s.datum.rank) for a in range(4)]
        projectors = [s.gen(("P", mu)) for mu in s.orbit_weights]
        assert all(p.slices for p in projectors)
        for p in projectors:
            for x in gens + projectors:
                for prod, plain in ((x * p, _plain_product(x, p)),
                                    (p * x, _plain_product(p, x))):
                    assert prod == plain
                    assert _product_trace(prod) == _product_trace(plain)
