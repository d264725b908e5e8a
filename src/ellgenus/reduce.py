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

Everything in that decision that depends only on the basis -- the
residual of the series 1, the subspace it spans over Q(zeta_L), the
projected lattice and its Euclidean Z-basis -- is built once per
(N, weight, prec) and kept as integer tables; each reduction then
decides in integer arithmetic against them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .cyclo import (
    Cyclo,
    NZCoset,
    _reduced,
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


class _Lattice(NamedTuple):
    """The input-independent part of the constant-direction solve for one basis.

    ``one_res``/``gamma`` are the residual and basis coefficients of the
    series 1.  With phi = phi(L) and m = phi * len(free_cols), the rows
    ``sub_rows`` / ``sub_scale`` are the reduced echelon form of the
    subspace {alpha * r} of Q^m (pivots ``sub_pivots``), and
    ``alpha_cols[j]`` / ``tag_scale`` gives coordinate j of alpha over
    those rows.  ``z_rows`` are (pivot, row) pairs: the Euclidean echelon
    of the projected lattice generators, scaled by ``gen_scale``, followed
    by gen_scale times the row's integer tags over the generators.
    ``lifted`` holds the lifted powers zeta_N^i, i < phi(N).  Every table
    is integral.
    """

    level: int
    one_res: tuple
    gamma: tuple
    free_cols: tuple
    sub_pivots: tuple
    sub_rows: tuple
    sub_scale: int
    alpha_cols: tuple
    tag_scale: int
    z_rows: tuple
    gen_scale: int
    lifted: tuple


def _residual_of_one(basis):
    """(residual, coefficients) of the series 1 eliminated against the basis."""
    one = QSeries.one(basis.field_level, basis.prec)
    return eliminate(list(one.coeffs), basis.pivots, [list(e.coeffs) for e in basis.elements])


def _scaled(rows: list[list[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows and the common denominator d with rows = integer rows / d."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple([tuple([int(x * d) for x in row]) for row in rows]), d


@functools.lru_cache(maxsize=None)
def _constant_direction(N: int, weight: int, prec: int) -> _Lattice:
    """Build the constant-direction tables of weight_basis(N, weight, prec).

    Only the integer tables are kept; the Fraction eliminations that
    produce them are dropped.  Scaling the projected generators by their
    own denominator (rather than jointly with the input) scales the
    Euclidean echelon and leaves its tags and quotients unchanged.
    """
    basis = weight_basis(N, weight, prec)
    L = basis.field_level
    one_res, gamma = _residual_of_one(basis)
    pivots = set(basis.pivots)
    free_cols = [c for c in range(prec) if c not in pivots]
    phiL = euler_phi(L)
    phiN = euler_phi(N)
    k = len(free_cols)
    m = k * phiL
    # subspace: alpha = sum_j a_j zeta_L^j acting on r columnwise
    r_cols = [one_res[c] for c in free_cols]
    sub_rows = [
        [x for rc in r_cols for x in (Cyclo.zeta(L, j) * rc).coords] for j in range(phiL)
    ]
    sub_pivots, sub_rref, sub_tags = rref_tracked(sub_rows)
    # lattice: per column, the lifted power basis of Z[zeta_N] over Z[1/N]
    lifted = [Cyclo.zeta(N, i).lift(L).num for i in range(phiN)]
    gens_p = []
    for c in range(k):
        for i in range(phiN):
            vec = [0] * m
            vec[c * phiL : (c + 1) * phiL] = lifted[i]
            gens_p.append(eliminate(vec, sub_pivots, sub_rref)[0])
    gens_int, gen_scale = _scaled(gens_p)
    ech, tags, z_pivots = _z_echelon_tracked(gens_int, m)
    z_rows = tuple([
        (col, tuple(row) + tuple([gen_scale * x for x in tag]))
        for col, row, tag in zip(z_pivots, ech, tags)
    ])
    sub_int, sub_scale = _scaled(sub_rref)
    tags_int, tag_scale = _scaled(sub_tags)
    alpha_cols = tuple([tuple([row[j] for row in tags_int]) for j in range(phiL)])
    return _Lattice(L, tuple(one_res), tuple(gamma), tuple(free_cols), tuple(sub_pivots),
                    sub_int, sub_scale, alpha_cols, tag_scale, z_rows, gen_scale,
                    tuple(lifted))


def _project(vec: list[int], lat: _Lattice) -> list[int]:
    """sub_scale * (vec minus its component in the subspace), vec integral."""
    out = [lat.sub_scale * x for x in vec]
    for p, row in zip(lat.sub_pivots, lat.sub_rows):
        c = vec[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return out


def _solve_constant_direction(s_cols: list[Cyclo], lat: _Lattice, N: int) -> Cyclo | None:
    """Find alpha in Q(zeta_L) with s - alpha*r coefficientwise in Z[1/N, zeta_N].

    Returns None when no such alpha exists.  This is an exact decision:
    the conditions are linear over Q in the coordinates of alpha modulo
    the free Z[1/N]-lattice spanned by the (lifted) powers of zeta_N, so
    the question reduces to membership of a rational vector in (rational
    subspace) + (Z[1/N]-lattice): project the input off the subspace,
    back-substitute against a Euclidean Z-basis of the projected lattice
    (every coefficient must have an N-smooth denominator and nothing may
    remain), then read alpha off t - z for the lattice witness z.

    Everything that depends only on the basis comes from the tables of
    ``_constant_direction``; the input enters as one integer vector over
    one denominator, and each step is fraction-free integer arithmetic
    against those tables (Cohen 1993, section 2.4; Bareiss 1968).
    """
    phiL = euler_phi(lat.level)
    phiN = euler_phi(N)
    m = phiL * len(s_cols)
    den = math.lcm(*(v.den for v in s_cols))
    t = [x * (den // v.den) for v in s_cols for x in v.num]
    # tau = v[:m] / scale, the input projected off the subspace; v[m:]
    # accumulates minus the lattice coefficients over the generators
    v = _project(t, lat) + [0] * (len(s_cols) * phiN)
    scale = lat.sub_scale * den
    for col, row in lat.z_rows:
        a, p = v[col], row[col]
        if not a:
            continue
        g = math.gcd(a, p)
        a, p = a // g, p // g
        if p < 0:
            a, p = -a, -p
        # the coefficient gen_scale * a / (scale * p) needs an N-smooth denominator
        c_den = scale * p // math.gcd(lat.gen_scale * a, scale * p)
        if _split_denominator(c_den, N)[1] != 1:
            return None
        v = [p * x - a * y for x, y in zip(v, row)]
        scale *= p
    if any(v[:m]):
        return None
    # target = t - z, for the lattice witness z, as integers over scale
    f = scale // den
    w = v[m:]
    target = []
    for c in range(len(s_cols)):
        block = [f * x for x in t[c * phiL : (c + 1) * phiL]]
        for wi, power in zip(w[c * phiN : (c + 1) * phiN], lat.lifted):
            if wi:
                block = [a + wi * b for a, b in zip(block, power)]
        target.extend(block)
    # t - z lies in the subspace; alpha is read off its pivot entries
    assert not any(_project(target, lat))
    coeffs = [target[p] for p in lat.sub_pivots]
    num = tuple([sum(map(mul, coeffs, column)) for column in lat.alpha_cols])
    return _reduced(lat.level, num, scale * lat.tag_scale)


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

    # the exact constant-direction decision is complete only over an
    # N-integral echelon basis (unit pivots); check that precondition
    integral_basis = basis.is_integral()
    if integral_basis:
        lat = _constant_direction(N, weight, prec)
        one_res, gamma = lat.one_res, lat.gamma
        alpha = _solve_constant_direction([s_res[c] for c in lat.free_cols], lat, N)
    else:
        one_res, gamma = _residual_of_one(basis)
        alpha = None
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
