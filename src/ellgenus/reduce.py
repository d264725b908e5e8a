"""Canonical representatives in the quotient targets.

For series in q the target is

    C[[q]] / (span of weight-(degree/2) modular forms)[[q-expansions]]
            + (N-integral series) + constants,

and for series in (p, q) the two-variable analogue with modular spans
removed from the p^0 row (in q) and the q^0 column (in p) and every
mixed coefficient reduced modulo Z[1/N, zeta_N].

The reduction is exact: the modular span is eliminated against the
reduced row echelon basis with pivots at the earliest q-exponents (for
inputs with cyclotomic coefficients, membership in the complex span
coincides with membership in the cyclotomic span).  That basis is
rational, one integer matrix over one denominator, so the elimination
runs in integers on each power-basis coordinate of the input, in the
input's own field (``ModFormBasis.eliminate``): Q(zeta_N) when the
input's level divides N, else the ambient field Q(zeta_L) of the basis.
The constant summand is then decided against the residual of the series
1; what remains is mapped coordinatewise through the canonical coset
representative modulo Z[1/N, zeta_N].  Only the recorded basis
coefficients and constant are lifted to Q(zeta_L).

The verdict is one exact decision: trivial exactly when some constant
alpha leaves the residual coefficientwise in Z[1/N, zeta_N].  The
residual r of the series 1 is rational too, so that decision splits into
one congruence system over Z[1/N] per coordinate of Q(zeta_N), solved by
an integer CRT.  A trivial verdict is sound on every basis: it comes with
an explicit decomposition into a modular combination, a constant, and an
N-integral remainder.  It is also complete when the basis is N-integral
(``ModFormBasis.is_integral``), as every default basis at the supported
levels is: an N-integral shift then moves the modular coefficients by
N-integral amounts only.  A nontrivial verdict reports the cosets of the
residual left by the c* constant, which cancels the earliest nonzero
coefficient of r; that constant, and so the ``rep``, depend on the input
series and not only on its class.

Everything that does not depend on the input is built once per (N,
weight, prec) into one cached plan (``_plan``): the basis, the free
columns with r read off row 0 of its integer matrix (the pivot 0 comes
first, so only basis coefficient 0 moves with the constant), and per
free column with r_c != 0 the values 1/r_c and the prime-to-N parts of
r_c that the congruences read.  Every residual is zero at the pivots of
the echelon basis, so the residual, its descent and its coset are formed
only at the free columns; each pivot gets the zero coset.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .cyclo import (
    Cyclo,
    NZCoset,
    _reduced,
    _split,
    _split_denominator,
    _zero_coset,
    descend,
    euler_phi,
    in_NZ,
    reduce_mod_NZ,
)
from .errors import LevelMismatch, PrecisionInsufficient
from .modforms import ModFormBasis, weight_basis
from .series import PQSeries, QSeries


class _Plan(NamedTuple):
    """What a reduction against weight_basis(N, weight, prec) reads, built once.

    ``free`` holds (c, r_c) for each q-exponent c off the pivots, the only
    places a residual can be nonzero, with r the residual of the series 1
    as Fractions.  ``null`` are the free columns where r vanishes and
    ``terms`` the others, as (c, 1/r_c, u_c, v_c) with u_c/v_c the
    prime-to-N part of r_c (see ``_constant_columns``); ``terms[0]`` is the
    column c* of a nontrivial report, the earliest nonzero coefficient of r.
    The Sturm bound, L and the digest are read off ``basis``.
    """

    basis: ModFormBasis
    free: tuple[tuple[int, Fraction], ...]
    null: tuple[int, ...]
    terms: tuple[tuple[int, Fraction, int, int], ...]


@functools.lru_cache(maxsize=None)
def _plan(N: int, weight: int, prec: int) -> _Plan:
    """The reduction plan of weight_basis(N, weight, prec), read off its integer matrix."""
    basis = weight_basis(N, weight, prec)
    pivots, D = basis.pivots, basis.den
    # every M_k(Gamma_1(N)), N >= 4, has a form with a nonzero constant term (1
    # at k = 0, E_2(q) - t E_2(q^t) at k = 2, else an E_k^{1,phi}), so the pivot
    # 0 comes first and 1 = row 0 / D + r, r_c = -rows[0][c] / D off the pivots;
    # r is rational, as the reduced echelon form is Galois-fixed (Shimura 1971,
    # Thm 3.52; ``_build_basis`` certifies it)
    assert pivots[0] == 0
    r = {c: Fraction(-x, D) for c, x in enumerate(basis.rows[0]) if c not in pivots}
    return _Plan(basis, tuple(r.items()), *_constant_columns(r, r, N))


def _constant_columns(r, cols, N: int) -> tuple[tuple, tuple]:
    """(null, terms) of the rational residual r of 1 over the columns cols.

    ``null`` are the columns with r_c = 0; ``terms`` are (c, 1/r_c, u_c, v_c)
    for the others, with u_c and v_c the prime-to-N parts of the numerator
    and denominator of r_c, in column order.
    """
    # r is rational (see ``_plan``); the coordinatewise split of
    # ``_solve_constant_direction`` needs it
    assert all(isinstance(r[c], Fraction) for c in cols)
    null = tuple(c for c in cols if not r[c])
    terms = tuple(
        (c, 1 / r[c],
         _split_denominator(abs(r[c].numerator), N)[1],
         _split_denominator(r[c].denominator, N)[1])
        for c in cols if r[c]
    )
    return null, terms


def _solve_constant_direction(s_res, null, terms, N: int, K: int) -> Cyclo | None:
    """Find alpha in Q(zeta_K) with s - alpha*r coefficientwise in Z[1/N, zeta_N].

    s_res maps each column to its value in Q(zeta_K), N | K; ``null`` and
    ``terms`` describe r at those columns (``_constant_columns``).  Returns
    None when no such alpha exists.  This is an exact decision, and the
    alpha returned depends only on the set of valid alphas.

    r is rational, so the conditions act coordinatewise.  A column with
    r_c = 0 needs s_c in Z[1/N, zeta_N].  On the others, with x_c = s_c/r_c,
    r_c * (x_c - alpha) in Z[1/N, zeta_N] needs x_c - alpha in Q(zeta_N),
    so every x_c - x_c0 must lie in Q(zeta_N): x_c and x_c0 have the same
    coordinates off Q(zeta_N) (``cyclo._split``, none at K = N),
    compared in integers.  Then the valid alphas are x_c0 - pi(x_c0) +
    theta, for pi the Q(zeta_N) part (also ``cyclo._split``) and theta
    in Q(zeta_N) with r_c * (pi(x_c) - theta) in Z[1/N, zeta_N] for every
    c: one congruence system over Z[1/N] per power-basis coordinate, see
    ``_congruence_solution``.
    """
    for c in null:
        part, off = _split(s_res[c], N)
        if any(off) or not in_NZ(part):
            return None
    if not terms:
        return Cyclo(K)
    x_cols = [s_res[c] * inv_r for c, inv_r, _, _ in terms]
    parts, offs = zip(*(_split(x, N) for x in x_cols))
    # the coordinates of x off Q(zeta_N) are off / x.den, up to a shared scale
    x0 = x_cols[0]
    for x, off in zip(x_cols[1:], offs[1:]):
        if any(a * x0.den != b * x.den for a, b in zip(off, offs[0])):
            return None
    theta = _congruence_solution(parts, terms, N)
    if theta is None:
        return None
    return x0 - parts[0].lift(K) + theta.lift(K)


def _congruence_solution(parts: list[Cyclo], terms, N: int) -> Cyclo | None:
    """The canonical theta with r_c * (parts[c] - theta) in Z[1/N, zeta_N] for all c.

    ``terms`` holds (c, 1/r_c, u_c, v_c) for each part, u_c/v_c the
    prime-to-N part of r_c.  Returns None when there is no theta.
    Coordinate i asks for theta_i = parts[c]_i modulo (v_c/u_c) Z[1/N].
    For S = lcm(u_c * e_c), e_c the prime-to-N part of the
    denominator of parts[c], T = S * theta_i must solve the integer system
    T = S * parts[c]_i mod n_c, n_c = S * v_c / u_c, because n_c is prime
    to N and so Z[1/N] / n_c Z[1/N] = Z / n_c.  The solutions are
    beta + n Z[1/N], n = lcm(n_c), and theta_i = (beta mod n) / S is g * rho
    for g = n / S, the generator of the solution coset g Z[1/N] with
    numerator and denominator prime to N, and rho = (beta mod n) / n in
    [0, 1) with denominator prime to N: the rule of ``reduce_mod_NZ``.
    """
    split = [_split_denominator(p.den, N) for p in parts]
    S = math.lcm(*(e * u for (_, e), (_, _, u, _) in zip(split, terms)))
    n, beta = 1, [0] * euler_phi(N)
    for p, (dN, e), (_, _, u, v) in zip(parts, split, terms):
        n_c = S // u * v
        # S * p.num[i] / p.den = p.num[i] * unit modulo n_c
        unit = S // e * pow(dN, -1, n_c)
        h = math.gcd(n, n_c)
        step = n * pow(n // h, -1, n_c // h)
        for i, a in enumerate(p.num):
            diff = a * unit - beta[i]
            if diff % h:
                return None
            beta[i] += step * (diff // h)
        n = n // h * n_c
        beta = [b % n for b in beta]
    return _reduced(N, tuple(beta), S)


class UqClass:
    """Reduction of a q-series in the one-variable quotient target.

    ``cosets[n]`` is the canonical coset of the n-th residual coefficient
    modulo Z[1/N, zeta_N], or None when the residual does not even lie in
    Q(zeta_N) (such a coset is necessarily nonzero).  ``rep`` collects the
    coset representatives as a QSeries at level N.

    ``modular_part["constant"]`` is the constant alpha of the recorded
    decomposition.  On a trivial verdict the valid alphas form one coset
    of a Z[1/N]-module, and alpha is its canonical element: the
    Q(zeta_N)-complement part shared by every valid alpha, plus in each
    coordinate of Q(zeta_N) the representative g * rho of the solution
    coset g Z[1/N], rho in [0, 1) with denominator prime to N (the rule of
    ``reduce_mod_NZ``).  It depends only on the set of valid alphas, so it
    does not change when s moves by a modular combination, nor, over an
    N-integral basis, by an N-integral series.  On a nontrivial verdict alpha
    is the c* constant, which cancels the earliest nonzero coefficient of
    the residual of 1, so there alpha, the cosets and ``rep`` depend on s
    itself, not only on its class.  The constant and ``coefficients`` lie
    in the ambient field Q(zeta_L) of the basis.
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
    in Z[1/N, zeta_N] (equivalently, the rep is the zero series).  The
    level of s must divide the ambient level L of the basis; s is reduced
    in Q(zeta_N) when its level divides N, else in Q(zeta_L).
    """
    if degree % 2 != 0:
        raise ValueError("degree must be even")
    weight = degree // 2
    if prec is None:
        prec = s.prec
    if prec > s.prec:
        raise PrecisionInsufficient(f"series has only {s.prec} coefficients")
    plan = _plan(N, weight, prec)
    L = plan.basis.field_level
    # decide in Q(zeta_N) when s lies there, else in Q(zeta_L) (the lift
    # raises LevelMismatch when the level of s does not divide L)
    K = N if N % s.level == 0 else L
    s_res, beta = plan.basis.eliminate([c.lift(K) for c in s.coeffs[:prec]])

    alpha = _solve_constant_direction(s_res, plan.null, plan.terms, N, K)
    if alpha is None:
        # no constant works: report the residual left by the c* constant,
        # which cancels the earliest nonzero coefficient of r
        if plan.terms:
            c_star, inv_r = plan.terms[0][:2]
            alpha_used = s_res[c_star] * inv_r
        else:
            alpha_used = Cyclo(K)
    else:
        alpha_used = alpha
    # s_res and r vanish at every pivot, so only the free columns can carry
    # a nonzero coset
    cosets: list[NZCoset | None] = [_zero_coset(N)] * prec
    for c, r in plan.free:
        value = s_res[c] - alpha_used * r
        down = value if K == N else descend(value, N)
        cosets[c] = None if down is None else reduce_mod_NZ(down)
    trivial = alpha is not None
    if trivial:
        assert all(c is not None and c.is_zero() for c in cosets)
    rep = QSeries(N, prec, [Cyclo(N) if c is None else c.rep for c in cosets])
    # 1 has basis coefficients (1, 0, ...), so only coefficient 0 moves with alpha
    coeffs = [(beta[0] - alpha_used).lift(L)] + [b.lift(L) for b in beta[1:]]
    modular_part = {
        "pivot_columns": list(plan.basis.pivots),
        "coefficients": coeffs,
        "constant": alpha_used.lift(L),
        "sturm": plan.basis.certificate["sturm"],
        "basis_hash": plan.basis.digest(),
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
    mixed = [[reduce_mod_NZ(x.lift(N)) for x in row.coeffs[1:]] for row in s.coeffs[1:]]
    trivial = trivial and all(c.is_zero() for row in mixed for c in row)
    return WtClass(
        N, degree, s.prec_p, s.prec_q, row_class, column_class, mixed, trivial
    )
