"""qschur: an exact engine for generalized q-Schur algebras.

Builds the algebras S(pi) attached to a finite-type root datum and a
saturated set pi of dominant weights from their presentation, constructs
their cell modules and cellular bases, specializes at arbitrary nonzero
parameters in characteristic-zero fields, and verifies the structural
relations mechanically.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .scalars import (
    LaurentPoly,
    RatFunc,
    FieldContext,
    FieldValue,
    quantum_integer,
    quantum_factorial,
    quantum_binomial,
    cyclotomic_polynomial,
    specialize,
)
from .rootdata import (
    CartanDatum,
    RootDatum,
    SaturatedSet,
    CosaturatedFlag,
    build_root_datum,
    saturate,
    build_flag,
)
from .straighten import (
    ModuleContext,
    concat_divided,
    push_E_through,
    gram_entry,
    idempotent_straighten,
)
from .cellmod import CellModule, enumerate_words
from .assembly import (
    SchurAlgebra,
    assemble,
    verify_relations,
    verify_cellularity,
)
from .specialize import (
    specialize_module,
    gram_determinant,
    decomposition_matrix,
    semisimplicity_report,
)

__all__ = [
    "LaurentPoly", "RatFunc", "FieldContext", "FieldValue",
    "quantum_integer", "quantum_factorial", "quantum_binomial",
    "cyclotomic_polynomial", "specialize",
    "CartanDatum", "RootDatum", "SaturatedSet", "CosaturatedFlag",
    "build_root_datum", "saturate", "build_flag",
    "ModuleContext", "concat_divided", "push_E_through", "gram_entry",
    "idempotent_straighten",
    "CellModule", "enumerate_words",
    "SchurAlgebra", "assemble", "verify_relations", "verify_cellularity",
    "specialize_module", "gram_determinant", "decomposition_matrix",
    "semisimplicity_report",
    "__version__",
]
