"""The per-coordinate constant-direction solve against the Fraction lattice solver it replaced."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, _split_denominator, descend, euler_phi, in_NZ
from ellgenus.reduce import _constant_columns, _plan, _solve_constant_direction
from oracles import eliminate, field_solve_constant_direction, rref_tracked


def _z_echelon_tracked(rows: list[list[int]], width: int):
    """Row echelon over Z by Euclidean (unimodular) row operations.

    Returns (echelon_rows, integer_tags, pivots); the echelon rows are a
    Z-basis of the row lattice and tags express them over the input rows
    (an identity block carried along to the right of the first `width`
    columns).
    """
    n = len(rows)
    rows = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(width):
        while True:
            nz = [i for i in range(rank, len(rows)) if rows[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            rows[rank], rows[i0] = rows[i0], rows[rank]
            clean = True
            for i in range(rank + 1, len(rows)):
                if rows[i][col]:
                    q = rows[i][col] // rows[rank][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
                    if rows[i][col]:
                        clean = False
            if clean:
                break
        if rank < len(rows) and rows[rank][col]:
            pivots.append(col)
            rank += 1
    return [r[:width] for r in rows[:rank]], [r[width:] for r in rows[:rank]], pivots


def _oracle_solve_constant_direction(
    s_cols: list[Cyclo], r_cols: list[Fraction], N: int, L: int
) -> Cyclo | None:
    """Find alpha in Q(zeta_L) with s - alpha*r coefficientwise in Z[1/N, zeta_N].

    Returns None when no such alpha exists.  This is an exact decision:
    the conditions are linear over Q in the coordinates of alpha modulo
    the free Z[1/N]-lattice spanned by the (lifted) powers of zeta_N, so
    the question reduces to membership of a rational vector in (rational
    subspace) + (Z[1/N]-lattice), settled by echelon elimination over Q
    followed by a Euclidean Z-basis and back-substitution whose
    coefficients must have N-smooth denominators.
    """
    phiL = euler_phi(L)
    phiN = euler_phi(N)
    k = len(s_cols)
    m = k * phiL

    def stacked(values: list[Cyclo]) -> list[Fraction]:
        out = []
        for v in values:
            out.extend(v.coords)
        return out

    t = stacked(s_cols)
    # subspace: alpha = sum_j a_j zeta_L^j acting on r columnwise
    zetas = [Cyclo.zeta(L, j) for j in range(phiL)]
    sub_rows = [stacked([zetas[j] * rc for rc in r_cols]) for j in range(phiL)]
    # lattice: per column, the lifted power basis of Z[zeta_N] over Z[1/N]
    lifted = [Cyclo.zeta(N, i).lift(L).coords for i in range(phiN)]
    gens = []
    for c in range(k):
        for i in range(phiN):
            vec = [Fraction(0)] * m
            vec[c * phiL : (c + 1) * phiL] = list(lifted[i])
            gens.append(vec)

    sub_pivots, sub_rref, sub_tags = rref_tracked(sub_rows)
    tau = eliminate(t, sub_pivots, sub_rref)[0]
    gens_p = [eliminate(g, sub_pivots, sub_rref)[0] for g in gens]
    # clear denominators jointly (membership is invariant under scaling)
    denom = 1
    for vec in gens_p + [tau]:
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    gi = [[int(x * denom) for x in vec] for vec in gens_p]
    ti = [x * denom for x in tau]

    ech, tags, pivots = _z_echelon_tracked(gi, m)
    residual = [Fraction(x) for x in ti]
    coeffs = []
    for col, row in zip(pivots, ech):
        c = residual[col] / row[col]
        if _split_denominator(c.denominator, N)[1] != 1:
            return None
        coeffs.append(c)
        residual = [a - c * b for a, b in zip(residual, row)]
    if any(residual):
        return None
    # lattice witness z over the original generators
    x_over_gens = [sum(c * u for c, u in zip(coeffs, column)) for column in zip(*tags)]
    z = [Fraction(0)] * m
    for xg, gen in zip(x_over_gens, gens):
        if xg:
            z = [a + xg * b for a, b in zip(z, gen)]
    # solve for alpha: t - z lies in the subspace spanned by sub_rows
    target = [a - b for a, b in zip(t, z)]
    rest, alpha_over_rows = eliminate(target, sub_pivots, sub_rref)
    assert not any(rest)
    return Cyclo(L, [sum(c * u for c, u in zip(alpha_over_rows, column))
                     for column in zip(*sub_tags)])


# (N, weight, prec); at N = 12 the ambient field is Q(zeta_N) itself (L = N),
# and at N = 9 it is Q(zeta_18) with phi(N) = 6
BASES = ((5, 2, 5), (5, 3, 7), (7, 3, 13), (12, 2, 17), (9, 2, 13))


@st.composite
def free_columns(draw, N, L, r_cols):
    """Free-column values s, random or of the form alpha*r + N-integral."""
    primes = [p for p in (2, 3, 5, 7) if N % p == 0]
    smooth = sorted({p**e for p in primes for e in range(4)} | {N * N})
    coprime = [d for d in (1, 2, 3, 5, 7, 11, 13) if gcd(d, N) == 1]
    numerators = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))

    def element(level, dens):
        den = st.builds(lambda a, b: a * b, st.sampled_from(smooth), st.sampled_from(dens))
        phi = euler_phi(level)
        coords = draw(st.lists(st.builds(Fraction, numerators, den), min_size=phi, max_size=phi))
        return Cyclo(level, coords)

    def column(value):
        return Cyclo(L) if draw(st.booleans()) and draw(st.booleans()) else value

    if draw(st.booleans()):
        alpha = element(L, coprime)
        s_cols = [alpha * rc + column(element(N, [1]).lift(L)) for rc in r_cols]
        if draw(st.booleans()):
            # a nudge off Q(zeta_N) fails the descent test; one inside it
            # with a denominator prime to N fails only the congruences
            # (or is absorbed by a column whose r_c shares that prime)
            i = draw(st.integers(0, len(s_cols) - 1))
            level = draw(st.sampled_from([L, N]))
            dens = draw(st.sampled_from([[1], coprime]))
            s_cols[i] = s_cols[i] + element(level, dens).lift(L)
    else:
        s_cols = [column(element(L, coprime)) for _ in r_cols]
    return s_cols


def _n_integral(value: Cyclo, N: int) -> bool:
    down = descend(value, N)
    return down is not None and in_NZ(down)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=20)
@given(data=st.data())
def test_integer_solve_matches_the_fraction_oracle(basis, data):
    N = basis[0]
    plan = _plan(*basis)
    L = plan.L
    r_cols = [plan.one_res[c] for c in plan.free]
    s_cols = data.draw(free_columns(N, L, r_cols))
    want = _oracle_solve_constant_direction(s_cols, r_cols, N, L)
    got = _solve_constant_direction(dict(zip(plan.free, s_cols)), plan.null, plan.terms, N, L)
    assert (got is None) == (want is None)
    if got is not None:
        # got is a witness, and it differs from the oracle's by a period
        assert all(_n_integral(s - got * r, N) for s, r in zip(s_cols, r_cols))
        assert all(_n_integral((got - want) * r, N) for r in r_cols)


# rational r with zeros and denominators on both sides of N; every
# supported basis has an integral r, so only these reach those branches
RATIONAL_R = st.lists(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(2, 7),
                     Fraction(-5, 6), Fraction(9, 25), Fraction(-14, 3)]),
    min_size=1, max_size=4,
)


@pytest.mark.parametrize("N, K, L", ((5, 5, 20), (5, 20, 20), (7, 7, 42), (7, 42, 42)))
@settings(max_examples=25)
@given(data=st.data())
def test_solve_in_the_input_field_matches_the_field_solve(N, K, L, data):
    r_cols = data.draw(RATIONAL_R)
    s_cols = data.draw(free_columns(N, K, r_cols))
    want = field_solve_constant_direction([s.lift(L) for s in s_cols], r_cols, N, L)
    got = _solve_constant_direction(s_cols, *_constant_columns(r_cols, range(len(r_cols)), N), N, K)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.level == K and got.lift(L) == want
