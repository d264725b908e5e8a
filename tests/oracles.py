"""Reference implementations kept only to check production code against."""

import functools
import math
from fractions import Fraction

from ellgenus.cyclo import Cyclo
from ellgenus.errors import (
    BadLevelDivisibility,
    IncompatibleParity,
    RankExceedsDimension,
    SpanFailure,
)
from ellgenus.linalg import rref
from ellgenus.modforms import (
    ModFormBasis,
    ambient_field_level,
    dim_Mk,
    eisenstein_candidates,
    gen_bernoulli,
    sturm_bound,
)
from ellgenus.series import QSeries


def eliminate(vec: list, pivots: list[int], rows: list[list]) -> tuple[list, list]:
    """Subtract the unique pivot combination of echelon rows from vec.

    Returns (residual, coefficients); residual is zero at every pivot
    column, and vec = residual + sum coefficients[i] * rows[i].
    """
    vec = list(vec)
    coeffs = []
    for col, row in zip(pivots, rows):
        c = vec[col]
        coeffs.append(c)
        if c:
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec, coeffs


def eisenstein_by_scan(psi, phi_char, t: int, k: int, prec: int, N: int) -> QSeries:
    """E_k^{psi,phi,t} by a scan over every d <= n per coefficient, in Cyclo arithmetic."""
    if k < 1:
        raise ValueError("weight must be >= 1")
    L = psi.field_level
    if phi_char.field_level != L:
        raise BadLevelDivisibility("character field levels differ")
    if N % (psi.modulus * phi_char.modulus * t) != 0:
        raise BadLevelDivisibility(
            f"{psi.modulus} * {phi_char.modulus} * {t} does not divide {N}"
        )
    if psi.parity() * phi_char.parity() != (-1) ** k:
        raise IncompatibleParity(f"character parity incompatible with weight {k}")

    both_trivial = psi.modulus == 1 and phi_char.modulus == 1
    if k == 2 and both_trivial:
        if t == 1:
            raise BadLevelDivisibility("E_2 itself is not modular; need t > 1")
        e2 = _weight2_level1_by_scan(L, prec)
        return e2 - e2.shift(t) * t

    coeffs = [Cyclo.from_rational(L, 0)]
    if k >= 2:
        if psi.modulus == 1:
            coeffs[0] = -gen_bernoulli(phi_char, k) * Fraction(1, 2 * k)
    else:  # k == 1
        if psi.modulus == 1:
            coeffs[0] = -gen_bernoulli(phi_char, 1) * Fraction(1, 2)
        elif phi_char.modulus == 1:
            coeffs[0] = -gen_bernoulli(psi, 1) * Fraction(1, 2)
    for n in range(1, prec):
        acc = Cyclo.from_rational(L, 0)
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc + psi.value(n // d) * phi_char.value(d) * d ** (k - 1)
        coeffs.append(acc)
    return QSeries(L, prec, coeffs).shift(t) if t > 1 else QSeries(L, prec, coeffs)


def _weight2_level1_by_scan(L: int, prec: int) -> QSeries:
    """E_2 = -1/24 + sum sigma_1(n) q^n (quasi-modular; used via t-twists)."""
    coeffs = [Cyclo.from_rational(L, Fraction(-1, 24))]
    for n in range(1, prec):
        coeffs.append(
            Cyclo.from_rational(L, sum(d for d in range(1, n + 1) if n % d == 0))
        )
    return QSeries(L, prec, coeffs)


@functools.lru_cache(maxsize=None)
def field_basis(N: int, k: int, prec: int) -> ModFormBasis:
    """The default basis built over Q(zeta_L): the Eisenstein series and the
    QSeries products of lower-weight field-built bases, reduced by ``rref``,
    then checked to be rational."""
    L = ambient_field_level(N)
    sb = sturm_bound(N, k)
    dim = dim_Mk(N, k)
    candidates = []
    if k == 0:
        candidates.append(QSeries.one(L, prec))
    else:
        candidates.extend(eisenstein_candidates(N, k, prec))
        for k1 in range(1, k // 2 + 1):
            k2 = k - k1
            b1 = field_basis(N, k1, prec)
            b2 = field_basis(N, k2, prec)
            for f in b1.elements:
                for g in b2.elements:
                    candidates.append(f * g)
    pivots, reduced = rref([list(c.coeffs) for c in candidates])
    rank = len(reduced)
    if rank < dim:
        raise SpanFailure(rank, dim)
    if rank > dim:
        raise RankExceedsDimension(rank, dim)
    if any(x for row in reduced for value in row for x in value.num[1:]):
        raise SpanFailure(rank, dim, "the reduced echelon form is not rational")
    den = math.lcm(*(value.den for row in reduced for value in row))
    rows = tuple(
        tuple(value.num[0] * (den // value.den) for value in row) for row in reduced
    )
    elements = [QSeries(L, prec, r) for r in reduced]
    certificate = {"dimension": dim, "rank": rank, "sturm": sb}
    return ModFormBasis(N, k, prec, L, elements, pivots, certificate, rows, den)
