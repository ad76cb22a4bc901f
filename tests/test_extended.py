"""End-to-end runs beyond the core acceptance data: product data,
non-semisimple-lattice (GL-type) data, multi-cell configurations, G2."""

from qschur.assembly import assemble, verify_cellularity, verify_relations
from qschur.rootdata import build_root_datum, saturate
from qschur.scalars import FieldContext
from qschur.specialize import (
    decomposition_matrix,
    semisimplicity_report,
    specialize_module,
)


def _verify(s, depth=2):
    rel = verify_relations(s, depth=depth, samples=4)
    cel = verify_cellularity(s)
    assert rel.ok, [c.name for c in rel.failures()]
    assert cel.ok, [c.name for c in cel.failures()]


def test_product_datum_pipeline():
    datum = build_root_datum("A1xA1")
    s = assemble(saturate(datum, [(1, 1)]))
    # the (1,1) cell is the 2x2 outer product of the two rank-1 lines
    assert {lam: cm.dim for lam, cm in s.modules.items()} == {(1, 1): 4}
    assert s.dim == 16
    _verify(s)


def test_gl2_type_explicit_datum_pipeline():
    # rank-1 datum inside X = Z^2: weights carry a determinant direction
    datum = build_root_datum(cartan=[[2]], alpha=[[1, -1]], alphav=[[1, -1]])
    s = assemble(saturate(datum, [(2, 0)]))
    dims = {lam: cm.dim for lam, cm in s.modules.items()}
    # symmetric square (dim 3) above the determinant line (dim 1)
    assert dims == {(2, 0): 3, (1, 1): 1}
    assert s.dim == 10
    _verify(s, depth=3)
    ctx = FieldContext.cyclotomic_point(4)
    specs = {lam: specialize_module(cm, ctx) for lam, cm in s.modules.items()}
    dm = decomposition_matrix(specs, s.flag, ctx)
    # same degeneration pattern as A1 Delta(2) at a fourth root of unity
    assert dm.entries[((2, 0), (1, 1))] == 1
    assert not semisimplicity_report(specs, s.flag, ctx).semisimple


def test_a2_two_cell_configuration():
    datum = build_root_datum("A2")
    s = assemble(saturate(datum, [(2, 0)]))
    dims = {lam: cm.dim for lam, cm in s.modules.items()}
    assert dims == {(2, 0): 6, (0, 1): 3}
    assert s.dim == 45
    _verify(s)


def test_g2_pipeline_with_quartic_serre():
    datum = build_root_datum("G2")
    s = assemble(saturate(datum, [(1, 0)]))
    dims = {lam: cm.dim for lam, cm in s.modules.items()}
    assert dims == {(1, 0): 7, (0, 0): 1}
    assert s.dim == 50
    _verify(s)
