"""qschur: an exact engine for generalized q-Schur algebras.

Builds the algebras S(pi) attached to a finite-type root datum and a
saturated set pi of dominant weights from their presentation, constructs
their cell modules and cellular bases, specializes at arbitrary nonzero
parameters in characteristic-zero fields, and verifies the structural
relations mechanically.  All arithmetic is exact.

The exports below are imported on first access, so a job loads only the
engine modules it runs: `qschur datum` never loads straighten, cellmod,
assembly or specialize.
"""

__version__ = "0.1.0"

# the module that defines each export, in the order of __all__
_EXPORTS = {name: module for module, names in (
    ("scalars", ("LaurentPoly", "RatFunc", "FieldContext", "FieldValue",
                 "quantum_integer", "quantum_factorial", "quantum_binomial",
                 "cyclotomic_polynomial")),
    ("rootdata", ("CartanDatum", "RootDatum", "SaturatedSet",
                  "CosaturatedFlag", "build_root_datum", "saturate",
                  "build_flag")),
    ("straighten", ("ModuleContext", "concat_divided", "push_E_through",
                    "gram_entry", "idempotent_straighten")),
    ("cellmod", ("CellModule", "enumerate_words")),
    ("assembly", ("SchurAlgebra", "assemble", "verify_relations",
                  "verify_cellularity")),
    ("specialize", ("specialize_module", "gram_determinant",
                    "decomposition_matrix", "semisimplicity_report")),
) for name in names}

# The engine's modules, each an attribute once imported.  The name
# `specialize` is the module qschur.specialize, which shadows
# scalars.specialize.
_MODULES = frozenset(("errors", "scalars", "linalg", "rootdata",
                      "straighten", "cellmod", "assembly", "specialize"))

# Every export, then the module `specialize` (qschur.specialize itself,
# not scalars.specialize), then the version.
__all__ = [*_EXPORTS, "specialize", "__version__"]


def __getattr__(name: str):
    """Import an export or an engine module on its first access; an export
    is then a global of the package, and a module an attribute of it."""
    from importlib import import_module
    if name in _MODULES:
        return import_module("." + name, __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = globals()[name] = getattr(import_module("." + module, __name__),
                                      name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | _MODULES)
