"""Exact Gaussian elimination over Q, fraction-free on integer rows.

``_integer_echelon`` is the package's one elimination, below the field
layer.  It builds every Gamma_1(N) basis from the rational pool of
``modforms._pool`` with no field arithmetic loaded, and the tracked echelon
forms that descend elements of Q(zeta_L) to subfields (``cyclo``).
A finished basis is rational, one integer matrix over one denominator,
so a reduction eliminates against it with integer dot products on the
input's numerators and decides the constant direction on the integer
residual coordinate by coordinate (``reduce``); neither echelons again.
"""

from __future__ import annotations

import bisect
import math
from math import gcd


def _reduce_at(row: list[int], p: int, by: list[int]) -> list[int]:
    """The primitive multiple of row - (row[p] / by[p]) * by, which is zero at p."""
    a, b = row[p], by[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    row = [b * x - a * y for x, y in zip(row, by)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_echelon(rows) -> tuple[list[int], tuple[tuple[int, ...], ...], int]:
    """Reduced row echelon form over Q of integer rows, as (pivots, rows, den).

    Fraction-free: each row is reduced against the echelon rows found so
    far, in pivot order, and kept primitive with a positive pivot entry.
    Back-substitution then clears every pivot column but its own, and
    row j of the result over den is the j-th reduced echelon row, with
    gcd(den, every entry) = 1.
    """
    pivots: list[int] = []
    echelon: list[list[int]] = []
    for row in rows:
        for p, by in zip(pivots, echelon):
            if row[p]:
                row = _reduce_at(row, p, by)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        g = gcd(*row) if row[lead] > 0 else -gcd(*row)
        i = bisect.bisect(pivots, lead)
        pivots.insert(i, lead)
        echelon.insert(i, [x // g for x in row])
    for j in reversed(range(len(echelon))):
        row = echelon[j]
        for p, by in zip(pivots[j + 1:], echelon[j + 1:]):
            if row[p]:
                row = _reduce_at(row, p, by)
        echelon[j] = row
    den = math.lcm(*(row[p] for p, row in zip(pivots, echelon)))
    return pivots, tuple(
        tuple(x * (den // row[p]) for x in row) for p, row in zip(pivots, echelon)
    ), den
