"""Exact level-N complex elliptic genus and f-invariant quotient reduction.

Everything is computed over Q(zeta_N) (or the ambient field Q(zeta_L),
L = lcm(N, exponent of (Z/N)^*), that bases are serialized over) with
exact rational coordinates; no floating point enters any result.

Layers
------
linalg     the one exact elimination: a fraction-free reduced row
           echelon form over Q of integer rows
cyclo      cyclotomic field arithmetic and the subring Z[1/N, zeta_N]
series     truncated power series in q, (p, q), and x over q-series
genus      characteristic series, multiplicative sequences, Chern-number
           pairing, and the two-variable representative
modforms   dimension formulas, certified bases of M_k(Gamma_1(N)) built
           from rational divisor sums, Sturm bounds, span membership
reduce     canonical representatives and triviality certificates in the
           one- and two-variable quotient targets
selfcheck  built-in verification corpus (also via the CLI `selfcheck`)
"""

from .cyclo import (
    Cyclo,
    NZCoset,
    cyclotomic_poly,
    descend,
    euler_phi,
    in_NZ,
    reduce_mod_NZ,
)
from .errors import (
    BadChernData,
    BadSplitChernData,
    EllGenusError,
    LevelMismatch,
    PrecMismatch,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    UnsupportedLevel,
)
from .genus import (
    ChernData,
    SplitChernData,
    chern_product,
    chi_y_cp,
    cp_chern,
    genus,
    genus_bivariate,
    log_phi_series,
    multiplicative_class,
    phi_series,
    split_product,
    verify_Q_identity,
)
from .modforms import (
    ModFormBasis,
    dim_Mk,
    is_in_span,
    sturm_bound,
    weight_basis,
)
from .reduce import UqClass, WtClass, reduce_Uq, reduce_Wtilde
from .selfcheck import CheckResult, format_report, run_checks
from .series import PQSeries, QSeries, XQSeries, project_q0, todd_coefficients

__version__ = "0.1.0"

__all__ = [
    "Cyclo",
    "NZCoset",
    "cyclotomic_poly",
    "descend",
    "euler_phi",
    "in_NZ",
    "reduce_mod_NZ",
    "EllGenusError",
    "LevelMismatch",
    "PrecMismatch",
    "PrecisionInsufficient",
    "RankExceedsDimension",
    "SpanFailure",
    "UnsupportedLevel",
    "BadChernData",
    "BadSplitChernData",
    "ChernData",
    "SplitChernData",
    "chern_product",
    "chi_y_cp",
    "cp_chern",
    "genus",
    "genus_bivariate",
    "log_phi_series",
    "multiplicative_class",
    "phi_series",
    "split_product",
    "verify_Q_identity",
    "ModFormBasis",
    "dim_Mk",
    "is_in_span",
    "sturm_bound",
    "weight_basis",
    "UqClass",
    "WtClass",
    "project_q0",
    "reduce_Uq",
    "reduce_Wtilde",
    "CheckResult",
    "format_report",
    "run_checks",
    "PQSeries",
    "QSeries",
    "XQSeries",
    "todd_coefficients",
]
