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

A trivial verdict is a sound certificate of class triviality at the
stated precision: it always comes with an explicit decomposition into a
modular combination, a constant, and an N-integral remainder.  The
constant-direction coefficient is not forced to the echelon pivot ratio
(whose pivot need not be a unit in Z[1/N, zeta_N]); instead its exact
solvability is decided, which makes the verdict complete whenever the
modular basis itself is N-integral with unit pivots -- true for all
supported levels.  A nontrivial verdict reports the cosets of the
residual left after a fallback constant that cancels the earliest
nonzero coefficient of the residual of 1; that constant, and so the
``rep``, depend on the input series and not only on its class.

The residual r of the series 1 is rational too, so that decision splits
into one congruence system over Z[1/N] per coordinate of Q(zeta_N),
solved by an integer CRT, and the constant it records depends only on
the class of the input.  r, the basis coefficients of 1 and the free
columns are built once per (N, weight, prec).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .cyclo import (
    Cyclo,
    NZCoset,
    _complement,
    _reduced,
    _split_denominator,
    _subfield_part,
    descend,
    euler_phi,
    in_NZ,
    reduce_mod_NZ,
)
from .errors import LevelMismatch, PrecisionInsufficient
from .modforms import sturm_bound, weight_basis
from .series import PQSeries, QSeries, project_q0  # noqa: F401  (re-exported)


@functools.lru_cache(maxsize=None)
def _residual_of_one(N: int, weight: int, prec: int) -> tuple[tuple, tuple, tuple]:
    """(one_res, gamma, free_cols) for weight_basis(N, weight, prec).

    ``one_res``/``gamma`` are the residual and basis coefficients of the
    series 1 eliminated against the basis, as Fractions; ``free_cols`` are
    the q-exponents off its pivots, the only places a residual can be nonzero.
    """
    basis = weight_basis(N, weight, prec)
    one_res, gamma = basis.eliminate(QSeries.one(basis.field_level, prec).coeffs)
    # the series 1 and the basis are rational, so both results are
    assert not any(x for value in one_res + gamma for x in value.num[1:])
    pivots = set(basis.pivots)
    return (
        tuple(value.rational_part() for value in one_res),
        tuple(value.rational_part() for value in gamma),
        tuple(c for c in range(prec) if c not in pivots),
    )


def _solve_constant_direction(
    s_cols: list[Cyclo], r_cols: list[Fraction], N: int, K: int
) -> Cyclo | None:
    """Find alpha in Q(zeta_K) with s - alpha*r coefficientwise in Z[1/N, zeta_N].

    s_cols lie in Q(zeta_K), N | K.  Returns None when no such alpha
    exists.  This is an exact decision, and the alpha returned depends
    only on the set of valid alphas.

    r is rational, so the conditions act coordinatewise.  A column with
    r_c = 0 needs s_c in Z[1/N, zeta_N].  On the others, with x_c = s_c/r_c,
    r_c * (x_c - alpha) in Z[1/N, zeta_N] needs x_c - alpha in Q(zeta_N),
    so every x_c - x_c0 must lie in Q(zeta_N): x_c and x_c0 have the same
    coordinates off Q(zeta_N) (``cyclo._complement``, empty at K = N),
    compared in integers.  Then the valid alphas are x_c0 - pi(x_c0) +
    theta, for pi the Q(zeta_N) part (``cyclo._subfield_part``) and theta
    in Q(zeta_N) with r_c * (pi(x_c) - theta) in Z[1/N, zeta_N] for every
    c: one congruence system over Z[1/N] per power-basis coordinate, see
    ``_congruence_solution``.
    """
    # the reduced echelon form of the basis is Galois-fixed, so r is rational
    # (Shimura 1971, Thm 3.52; ``_build_basis`` certifies it); the
    # coordinatewise split below needs it
    assert all(isinstance(r, Fraction) for r in r_cols)
    x_cols, r_vals = [], []
    for s, r in zip(s_cols, r_cols):
        if r:
            r_vals.append(r)
            x_cols.append(s * (1 / r))
        elif any(_complement(s, N)) or not in_NZ(_subfield_part(s, N)):
            return None
    if not x_cols:
        return Cyclo(K)
    # the complement of x is _complement(x, N) / x.den, up to a shared scale
    x0 = x_cols[0]
    off0 = _complement(x0, N)
    for x in x_cols[1:]:
        if any(a * x0.den != b * x.den for a, b in zip(_complement(x, N), off0)):
            return None
    parts = [_subfield_part(x, N) for x in x_cols]
    theta = _congruence_solution(parts, r_vals, N)
    if theta is None:
        return None
    return x0 - parts[0].lift(K) + theta.lift(K)


def _congruence_solution(parts: list[Cyclo], r_vals: list[Fraction], N: int) -> Cyclo | None:
    """The canonical theta with r_c * (parts[c] - theta) in Z[1/N, zeta_N] for all c.

    Returns None when there is none.  Coordinate i asks for theta_i =
    parts[c]_i modulo (v_c/u_c) Z[1/N], with u_c/v_c the prime-to-N part
    of r_c.  For S = lcm(u_c * e_c), e_c the prime-to-N part of the
    denominator of parts[c], T = S * theta_i must solve the integer system
    T = S * parts[c]_i mod n_c, n_c = S * v_c / u_c, because n_c is prime
    to N and so Z[1/N] / n_c Z[1/N] = Z / n_c.  The solutions are
    beta + n Z[1/N], n = lcm(n_c), and theta_i = (beta mod n) / S is g * rho
    for g = n / S, the generator of the solution coset g Z[1/N] with
    numerator and denominator prime to N, and rho = (beta mod n) / n in
    [0, 1) with denominator prime to N: the rule of ``reduce_mod_NZ``.
    """
    split = [
        (_split_denominator(p.den, N),
         _split_denominator(abs(r.numerator), N)[1],
         _split_denominator(r.denominator, N)[1])
        for p, r in zip(parts, r_vals)
    ]
    S = math.lcm(*(e * u for (_, e), u, _ in split))
    n, beta = 1, [0] * euler_phi(N)
    for p, ((dN, e), u, v) in zip(parts, split):
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
    does not change when s moves by an N-integral series or by a modular
    combination.  On a nontrivial verdict alpha cancels the earliest
    nonzero coefficient of the residual of 1, so there alpha, the cosets
    and ``rep`` depend on s itself, not only on its class.  The constant
    and ``coefficients`` lie in the ambient field Q(zeta_L) of the basis.
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
    sb = sturm_bound(N, weight)
    if prec < sb:
        raise PrecisionInsufficient(f"prec {prec} < sturm bound {sb}")
    basis = weight_basis(N, weight, prec)
    L = basis.field_level
    # decide in Q(zeta_N) when s lies there, else in Q(zeta_L) (the lift
    # raises LevelMismatch when the level of s does not divide L)
    K = N if N % s.level == 0 else L
    s_res, beta = basis.eliminate([c.lift(K) for c in s.coeffs[:prec]])

    one_res, gamma, free_cols = _residual_of_one(N, weight, prec)
    # the exact constant-direction decision is complete only over an
    # N-integral echelon basis (unit pivots); check that precondition
    integral_basis = basis.is_integral()
    alpha = None
    if integral_basis:
        alpha = _solve_constant_direction(
            [s_res[c] for c in free_cols], [one_res[c] for c in free_cols], N, K
        )
    if alpha is None:
        # canonical fallback: cancel the earliest nonzero constant-residual
        # coefficient (the combined-echelon choice)
        c_star = next((c for c in range(prec) if one_res[c]), None)
        alpha_used = s_res[c_star] * (1 / one_res[c_star]) if c_star is not None \
            else Cyclo(K)
    else:
        alpha_used = alpha
    residual = [a - alpha_used * b for a, b in zip(s_res, one_res)]
    cosets: list[NZCoset | None] = []
    reps = []
    trivial = alpha is not None
    for value in residual:
        down = value if K == N else descend(value, N)
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
    coeffs = [(b - alpha_used * g).lift(L) for b, g in zip(beta, gamma)]
    modular_part = {
        "pivot_columns": list(basis.pivots),
        "coefficients": coeffs,
        "constant": alpha_used.lift(L),
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
