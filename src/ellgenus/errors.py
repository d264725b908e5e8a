"""Typed errors shared across the package, and the one size bound."""

# The most integer entries (matrix entries, series coefficients and their
# power-basis coordinates) that one command may build.  Each command
# estimates its size in closed form before it builds anything and raises
# TooLarge above this bound; it is a constant, not an option.  The largest
# input the tests can draw, an f-rep of dimensions (4, 4) at level 13, is
# estimated at about 1.7e5 entries, and the README examples, the
# self-check and the benchmark stay below 4e4; a degree-200 basis at level
# 5 (about 2e6 entries, some 20 seconds) still runs.
SIZE_BOUND = 10**7


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
    asks the dimension of every weight of its chain, weight 1 among the
    first, before it builds anything, so it refuses an unsupported level
    before any candidate is built."""


class TooLarge(EllGenusError):
    """A command's size estimate, in integer entries, is above SIZE_BOUND.

    Raised before anything is built, by the estimate of a chain of bases
    (``weight_basis``), of a genus and its field (``genus._check_size``), or
    of any work at a level above SIZE_BOUND^2 (``integers._prime_factors``).
    An estimate may stop at a lower bound past SIZE_BOUND, which the message names.
    """

    def __init__(self, what: str, estimate: int):
        super().__init__(
            f"{what} is estimated at {estimate} or more integer entries, "
            f"above the size bound {SIZE_BOUND}"
        )


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
