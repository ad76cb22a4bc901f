"""The engine's value classes: constructor signatures, defaults and slots.

Each class keeps its fields in __slots__ and sets them in an explicit
__init__; every field must land in its own attribute whether it is passed
by keyword or by position.
"""

from fractions import Fraction

import pytest

from qschur.assembly import CellBasisElement, CheckResult, VerificationReport
from qschur.cellmod import Basis, WeightSpaceData
from qschur.linalg import FieldMatrix, LaurentMatrix
from qschur.rootdata import CartanDatum, CosaturatedFlag, SaturatedSet
from qschur.scalars import FieldContext
from qschur.specialize import (
    DecompositionMatrix,
    GramDeterminantRecord,
    SemisimplicityReport,
    SpecializedModule,
)
from qschur.straighten import IdempotentSandwich


def _fields(*names):
    """Each field name with a distinct marker object as its value."""
    return {name: object() for name in names}


# every constructor field, in positional order
CASES = [
    (FieldContext, {"kind": "rational", "q": Fraction(1, 2), "ell": None}),
    (FieldMatrix, _fields("ctx", "rows", "cols", "entries")),
    (LaurentMatrix, _fields("rows", "cols", "entries")),
    (CartanDatum, {"dot": ((2, -1), (-1, 2))}),
    (SaturatedSet, _fields("datum", "elements")),
    (CosaturatedFlag, _fields("datum", "ordering")),
    (IdempotentSandwich, _fields("word", "exponents", "end_weight")),
    (Basis, _fields("combos", "gram", "_adjugate")),
    (WeightSpaceData, _fields("words", "generic", "ctx", "integral",
                              "_gram")),
    (SpecializedModule, _fields("lam", "ctx", "weight_ranks",
                                "char_delta")),
    (GramDeterminantRecord, _fields("lam", "mu", "det", "factors",
                                    "cofactor")),
    (DecompositionMatrix, _fields("ctx", "order", "entries")),
    (SemisimplicityReport, _fields("ctx", "semisimple", "witnesses")),
    (CellBasisElement, _fields("lam", "left", "right", "matrix")),
    (CheckResult, _fields("name", "passed", "detail")),
    (VerificationReport, _fields("checks")),
]

# the required fields, then the defaults of the rest
DEFAULTS = [
    (FieldContext, 1, {"q": None, "ell": None}),
    (Basis, 2, {"_adjugate": None}),
    (WeightSpaceData, 3, {"integral": None, "_gram": None}),
    (CheckResult, 2, {"detail": ""}),
    (VerificationReport, 0, {"checks": []}),
]


@pytest.mark.parametrize("cls, fields", CASES,
                         ids=[cls.__name__ for cls, _ in CASES])
def test_construction_by_keyword_and_position(cls, fields):
    for obj in (cls(**fields), cls(*fields.values())):
        for name, value in fields.items():
            assert getattr(obj, name) is value, name
        assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[cls.__name__ for cls, _, _ in DEFAULTS])
def test_defaults(cls, required, defaults):
    obj = cls(*(object() for _ in range(required)))
    for name, value in defaults.items():
        assert getattr(obj, name) == value, name
