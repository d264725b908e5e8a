"""Reference implementations kept only to check production code against."""


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
