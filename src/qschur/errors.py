"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class DenominatorVanishes(EngineError):
    """A rational function was specialized at a zero of its denominator."""


class ExactDivisionError(EngineError):
    """An exact division in Q[v,v^-1] left a nonzero remainder."""


class NoSolutionError(EngineError):
    """A linear system has no solution."""


class NotFiniteTypeError(EngineError):
    """The symmetrized Cartan matrix is not positive definite."""


class PairingMismatchError(EngineError):
    """Explicit root datum violates <alpha_i^vee, alpha_j> = a_ij."""


class NonDominantSeedError(EngineError):
    """A saturation seed was not a dominant weight."""


class NonReducedWordError(EngineError):
    """A Weyl word produced a negative exponent while straightening."""


class RankMismatchError(EngineError):
    """A Gram rank disagrees with the character oracle (engine bug)."""


class CoordinateFailureError(EngineError):
    """A Gram coordinate solve failed unexpectedly (engine bug)."""


class InconsistentCharactersError(EngineError):
    """A character oracle or the decomposition solve is inconsistent:
    Freudenthal's recursion or the Weyl product is not a nonnegative
    integer, or the solve left a residue or a negative entry (engine bug)."""


class UnsupportedCharacteristicError(EngineError):
    """Specialization fields must have characteristic zero."""


class CapExceededError(EngineError):
    """A configured size cap (rank, orbit size) was exceeded."""


class ConfigError(EngineError):
    """A job configuration document is malformed."""
