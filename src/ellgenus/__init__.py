"""Exact level-N complex elliptic genus and f-invariant quotient reduction.

Everything is computed over Q(zeta_N) (or the ambient field Q(zeta_L),
L = lcm(N, exponent of (Z/N)^*), that bases are serialized over) with
exact rational coordinates; no floating point enters any result.

Layers
------
integers   factorization, Euler's totient, denominator splitting, the
           truncated product and the exact integer reader
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

Each layer loads on first use: ``import ellgenus`` runs none of them, and
reading a public name (``ellgenus.weight_basis``) or a layer
(``ellgenus.reduce``) loads that layer and the layers it imports, so a
command loads only what it runs: ``ellgenus --machine basis`` loads
``integers``, ``linalg`` and ``modforms``, not the field or the series.  The
function ``genus`` shares its name with its layer; the attribute
``ellgenus.genus`` is always the function, however the layer was loaded,
and the layer is ``sys.modules["ellgenus.genus"]``.
"""

import sys
import types
from importlib import import_module

# the one export table: each layer and the public names it defines
_LAYERS = {
    "cyclo": ("Cyclo", "NZCoset", "cyclotomic_poly", "descend", "in_NZ", "reduce_mod_NZ"),
    "errors": (
        "BadChernData", "BadSplitChernData", "EllGenusError", "LevelMismatch",
        "PrecMismatch", "PrecisionInsufficient", "RankExceedsDimension", "SpanFailure",
        "UnsupportedLevel",
    ),
    "genus": (
        "ChernData", "SplitChernData", "chern_product", "chi_y_cp", "cp_chern", "genus",
        "genus_bivariate", "log_phi_series", "multiplicative_class", "phi_series",
        "split_product", "verify_Q_identity",
    ),
    "integers": ("euler_phi",),
    "modforms": ("ModFormBasis", "dim_Mk", "is_in_span", "sturm_bound", "weight_basis"),
    "reduce": ("UqClass", "WtClass", "reduce_Uq", "reduce_Wtilde"),
    "selfcheck": ("CheckResult", "format_report", "run_checks"),
    "series": ("PQSeries", "QSeries", "XQSeries", "project_q0", "todd_coefficients"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = frozenset(_LAYERS) | {"linalg"}

__version__ = "0.1.0"

__all__ = [name for names in _LAYERS.values() for name in names]


def __getattr__(name):
    """A public name from its layer, or a layer itself, loaded on first use.

    Loading a layer binds all of its public names here (``_Package``), so
    each is looked up through this function at most once.
    """
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    """The package module: a layer binds its public names here as it loads.

    The import system sets each submodule as an attribute of the package
    once the submodule has run, and at that moment its public names are
    bound beside it, as eager ``from .layer import ...`` lines would bind
    them.  The function ``genus`` outranks its layer: the first import of
    ``ellgenus.genus`` binds the function, not the submodule, under that
    name, however the submodule was loaded.
    """

    def __setattr__(self, name, value):
        if name in _LAYERS and isinstance(value, types.ModuleType):
            for export in _LAYERS[name]:
                super().__setattr__(export, getattr(value, export))
            if name in _HOME:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
