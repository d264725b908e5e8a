"""Exact Gaussian elimination over Q(zeta_L), Q, or any exact field.

This is the package's one field-elimination routine: explicit candidate
pools for a modular-form basis and descent to subfields reduce through
``rref``.  The default basis pool is reduced over Q in integers
instead.  A finished basis is rational, so reductions eliminate against
it in integers (``ModFormBasis.eliminate``), and the constant-direction
solve works on the residual coordinate by coordinate; none of these runs
a field elimination.  Rows are lists of field elements supporting +, -, *,
truthiness, and division via 1/x.  Matrices are small (a handful of
modular forms by a few dozen q-coefficients), so plain elimination on
exact entries is fine.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list], width: int | None = None) -> tuple[list[int], list[list]]:
    """Reduced row echelon form with pivots at the earliest columns.

    Pivots are searched only among the first `width` columns (default:
    all of them); later columns are carried along by the row operations.
    Returns (pivot_columns, nonzero_rows); pivot entries are normalized
    to 1 and eliminated from every other row.  Rows without a pivot are
    dropped.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0]) if width is None else width
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots, rows[:rank]


def rref_tracked(rows: list[list]) -> tuple[list[int], list[list], list[list]]:
    """rref that also records the row transform.

    Returns (pivots, reduced, tags) with reduced[r] = sum_i tags[r][i] *
    rows[i]: an identity block is appended to the rows and carried along,
    with pivots searched only among the original columns.
    """
    width = len(rows[0]) if rows else 0
    n = len(rows)
    augmented = [
        list(row) + [Fraction(1 if j == i else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    pivots, reduced = rref(augmented, width)
    return pivots, [r[:width] for r in reduced], [r[width:] for r in reduced]
