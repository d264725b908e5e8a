"""Canonical representatives in the quotient targets.

For series in q the target is

    C[[q]] / (span of weight-(degree/2) modular forms)[[q-expansions]]
            + (N-integral series) + constants,

and for series in (p, q) the two-variable analogue with modular spans
removed from the p^0 row (in q) and the q^0 column (in p) and every
mixed coefficient reduced modulo Z[1/N, zeta_N].

The reduction is exact: the modular span is eliminated by reduced row
echelon linear algebra over the ambient cyclotomic field Q(zeta_L) with
pivots at the earliest q-exponents (for inputs with cyclotomic
coefficients, membership in the complex span coincides with membership
in the cyclotomic span); the constant summand joins the elimination
matrix; what remains is mapped coordinatewise through the canonical
coset representative modulo Z[1/N, zeta_N].

A trivial verdict is a sound certificate of class triviality at the
stated precision: it always comes with an explicit decomposition into a
modular combination, a constant, and an N-integral remainder.  The
constant-direction coefficient is not forced to the echelon pivot ratio
(whose pivot need not be a unit in Z[1/N, zeta_N]); instead its exact
solvability over the integral lattice is decided, which makes the
verdict complete whenever the modular basis itself is N-integral with
unit pivots -- true for all supported levels.  Nontrivial verdicts
report the canonical echelon residual.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import (
    Cyclo,
    NZCoset,
    _split_denominator,
    descend,
    euler_phi,
    reduce_mod_NZ,
)
from .errors import LevelMismatch, PrecisionInsufficient
from .linalg import eliminate, rref_tracked
from .modforms import sturm_bound, weight_basis
from .series import PQSeries, QSeries, project_q0  # noqa: F401  (re-exported)


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


def _solve_constant_direction(
    s_cols: list[Cyclo], r_cols: list[Cyclo], N: int, L: int
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


class UqClass:
    """Reduction of a q-series in the one-variable quotient target.

    ``cosets[n]`` is the canonical coset of the n-th residual coefficient
    modulo Z[1/N, zeta_N], or None when the residual does not even lie in
    Q(zeta_N) (such a coset is necessarily nonzero).  ``rep`` collects the
    coset representatives as a QSeries at level N.
    """

    __slots__ = (
        "level",
        "degree",
        "prec",
        "cosets",
        "rep",
        "modular_part",
        "trivial",
    )

    def __init__(self, level, degree, prec, cosets, rep, modular_part, trivial):
        self.level = level
        self.degree = degree
        self.prec = prec
        self.cosets = cosets
        self.rep = rep
        self.modular_part = modular_part
        self.trivial = trivial

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "degree": self.degree,
            "prec": self.prec,
            "trivial": self.trivial,
            "rep": self.rep.serialize() if self.rep is not None else None,
            "cosets": [
                None if c is None else c.rep.serialize() for c in self.cosets
            ],
            "modular_part": {
                "pivot_columns": self.modular_part["pivot_columns"],
                "coefficients": [c.serialize() for c in self.modular_part["coefficients"]],
                "constant": self.modular_part["constant"].serialize(),
            },
            "sturm": self.modular_part["sturm"],
            "basis_hash": self.modular_part["basis_hash"],
        }


def reduce_Uq(s: QSeries, N: int, degree: int, prec: int | None = None) -> UqClass:
    """Canonical representative of s in the one-variable quotient.

    degree is the topological degree m+2; the modular span removed is the
    weight-(degree/2) expansion space.  The recorded decomposition is

        s = sum(coefficients[i] * basis[i]) + constant * 1 + residual,

    and the verdict is trivial exactly when the residual is coefficientwise
    in Z[1/N, zeta_N] (equivalently, the rep is the zero series).
    """
    if degree % 2 != 0:
        raise ValueError("degree must be even")
    weight = degree // 2
    if prec is None:
        prec = s.prec
    if prec > s.prec:
        raise PrecisionInsufficient(f"series has only {s.prec} coefficients")
    sb = sturm_bound(N, weight)
    if prec < sb:
        raise PrecisionInsufficient(f"prec {prec} < sturm bound {sb}")
    basis = weight_basis(N, weight, prec)
    L = basis.field_level
    b_rows = [list(e.coeffs) for e in basis.elements]
    b_pivots = list(basis.pivots)
    lifted = s.lift(L).truncate(prec)
    s_res, beta = eliminate(list(lifted.coeffs), b_pivots, b_rows)
    one = QSeries.one(L, prec)
    one_res, gamma = eliminate(list(one.coeffs), b_pivots, b_rows)

    # the exact constant-direction decision is complete only over an
    # N-integral echelon basis (unit pivots); check that precondition
    integral_basis = basis.is_integral()
    alpha = None
    if integral_basis:
        free_cols = [c for c in range(prec) if c not in set(b_pivots)]
        alpha = _solve_constant_direction(
            [s_res[c] for c in free_cols], [one_res[c] for c in free_cols], N, L
        )
    if alpha is None:
        # canonical fallback: cancel the earliest nonzero constant-residual
        # coefficient (the combined-echelon choice)
        c_star = next((c for c in range(prec) if one_res[c]), None)
        alpha_used = s_res[c_star] * one_res[c_star].inv() if c_star is not None \
            else Cyclo(L)
    else:
        c_star = None
        alpha_used = alpha
    residual = [a - alpha_used * b for a, b in zip(s_res, one_res)]
    cosets: list[NZCoset | None] = []
    reps = []
    trivial = alpha is not None
    for value in residual:
        down = descend(value, N)
        if down is None:
            cosets.append(None)
            reps.append(Cyclo(N))
            continue
        coset = reduce_mod_NZ(down)
        cosets.append(coset)
        reps.append(coset.rep)
    if trivial:
        assert all(c is not None and c.is_zero() for c in cosets)
    elif not integral_basis and all(c is not None and c.is_zero() for c in cosets):
        trivial = True
    rep = QSeries(N, prec, reps)
    coeffs = [b - alpha_used * g for b, g in zip(beta, gamma)]
    modular_part = {
        "pivot_columns": b_pivots,
        "coefficients": coeffs,
        "constant": alpha_used,
        "sturm": sb,
        "basis_hash": basis.digest(),
    }
    return UqClass(N, degree, prec, cosets, rep, modular_part, trivial)


class WtClass:
    """Reduction of a (p, q)-series in the two-variable quotient target."""

    __slots__ = (
        "level",
        "degree",
        "prec_p",
        "prec_q",
        "row_class",
        "column_class",
        "mixed_cosets",
        "trivial",
    )

    def __init__(self, level, degree, prec_p, prec_q, row_class, column_class,
                 mixed_cosets, trivial):
        self.level = level
        self.degree = degree
        self.prec_p = prec_p
        self.prec_q = prec_q
        self.row_class = row_class
        self.column_class = column_class
        self.mixed_cosets = mixed_cosets
        self.trivial = trivial

    def serialize(self) -> dict:
        return {
            "level": self.level,
            "degree": self.degree,
            "prec_p": self.prec_p,
            "prec_q": self.prec_q,
            "trivial": self.trivial,
            "p0_row": self.row_class.serialize(),
            "q0_column": self.column_class.serialize(),
            "mixed": [
                [c.rep.serialize() for c in row] for row in self.mixed_cosets
            ],
        }


def reduce_Wtilde(s: PQSeries, N: int, degree: int) -> WtClass:
    """Canonical reduction in the two-variable quotient.

    The p^0 row is reduced as a q-series, the q^0 column as a p-series
    (the shared constant cell is absorbed by the constants summand in
    both), and every mixed coefficient is reduced modulo Z[1/N, zeta_N].
    The carrier level of s must divide N; s is read at level N.
    """
    if N % s.level:
        raise LevelMismatch(f"carrier level {s.level} does not divide {N}")
    row_class = reduce_Uq(s.p_row(0), N, degree)
    column_class = reduce_Uq(s.q_column(0), N, degree)
    trivial = row_class.trivial and column_class.trivial
    mixed = []
    for i in range(1, s.prec_p):
        row = []
        for j in range(1, s.prec_q):
            coset = reduce_mod_NZ(s[i, j].lift(N))
            if not coset.is_zero():
                trivial = False
            row.append(coset)
        mixed.append(row)
    return WtClass(
        N, degree, s.prec_p, s.prec_q, row_class, column_class, mixed, trivial
    )
