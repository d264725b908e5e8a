"""Typed errors shared across the package."""


class EllGenusError(Exception):
    """Base class for all package errors."""


class LevelMismatch(EllGenusError):
    """Operands belong to different cyclotomic levels."""


class PrecMismatch(EllGenusError):
    """Series operands have incompatible truncation orders."""


class NonUnitConstantTerm(EllGenusError):
    """Series inversion requires an invertible constant term."""


class BadConstantTerm(EllGenusError):
    """exp needs constant term 0; log needs constant term 1."""


class InsufficientXPrecision(EllGenusError):
    """The x-truncation is too small for the requested degree."""


class BadChernData(EllGenusError):
    """A Chern-number key is not a partition of the stated dimension (a
    string key "a,b,..." must be weakly decreasing), or a dimension, a part
    or a Chern number is not an exact integer (an int that is not a bool,
    a Fraction over 1, or an integral "num/den" string): 9.7, Fraction(19, 2)
    and the part "1_1" are refused, not cut to 9 or read as 11."""


class BadSplitChernData(EllGenusError):
    """A split Chern-number key is not a pair of partitions or a "lam|mu"
    string, has the wrong total degree, or holds a dimension, a part or a
    Chern number that is not an exact integer, as for BadChernData."""


class UnsupportedLevel(EllGenusError):
    """The level is outside the supported range (N >= 4; modular bases
    need a genus-0 X_1(N), i.e. N in {4, ..., 10, 12}).  A basis build
    computes the dimensions it needs first, so it refuses an unsupported
    level before any candidate is built."""


class SpanFailure(EllGenusError):
    """A basis has a rank other than the dimension of M_k(Gamma_1(N)).

    ``ModFormBasis``, through which every basis is built, raises it when
    its echelon rows number fewer than the dimension formula gives.
    """

    def __init__(self, rank, dimension, message=None):
        self.rank = rank
        self.dimension = dimension
        super().__init__(
            message or f"candidates span rank {rank} < dimension {dimension}"
        )


class RankExceedsDimension(SpanFailure):
    """The candidates span more than the dimension formula allows."""

    def __init__(self, rank, dimension):
        super().__init__(
            rank,
            dimension,
            f"rank {rank} exceeds dimension {dimension}: dimension formula or "
            f"candidate construction is wrong",
        )


class NotEchelon(EllGenusError):
    """Rows given to ``ModFormBasis`` are not the reduced echelon form that
    its rank certificate counts: the pivots must increase strictly below
    prec, one per row; each row must have prec entries; den must be
    positive; and row j must be den at its own pivot and 0 at the others."""


class PrecisionInsufficient(EllGenusError):
    """The working precision is below the required Sturm floor."""
