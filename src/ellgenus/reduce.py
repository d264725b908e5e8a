"""Canonical representatives in the quotient targets.

For series in q the target is

    C[[q]] / (span of weight-(degree/2) modular forms)[[q-expansions]]
            + (N-integral series) + constants,

and for series in (p, q) the two-variable analogue with modular spans
removed from the p^0 row (in q) and the q^0 column (in p) and every
mixed coefficient reduced modulo Z[1/N, zeta_N].

The reduction is exact, and everything between the input's numerators
and the verdict runs in integers.  The modular span is eliminated
against the reduced row echelon basis with pivots at the earliest
q-exponents (for inputs with cyclotomic coefficients, membership in the
complex span coincides with membership in the cyclotomic span).  That
basis is rational, one integer matrix R over one denominator D, so the
input, scaled once to integer numerators S over the lcm E of its
coefficient denominators (``modforms._numerators``), leaves at each free
column c the residual u_c / (D * E), u_c = D * S_c - sum_j R[j][c] *
S_{p_j}, coordinate by coordinate in the input's field.

The verdict is one exact decision: trivial exactly when some constant
alpha leaves the residual coefficientwise in Z[1/N, zeta_N].  The
residual r of the series 1 is rational too.  The c* constant alpha*,
which cancels the earliest nonzero coefficient r_c* of r, leaves a
residual y, and every valid constant is alpha* - t/r_c* with t in
Z[1/N, zeta_N]; so the decision is one congruence in one unknown per
coordinate of Q(zeta_N), read off the cosets of y (``_classify``).  With
r_c/r_c* = P_c/Q, the numerators of y_c are Q * u_c - P_c * u_c* over
Q * D * E, one dot product per coordinate of a fused row of the plan
with the input's numerators (``_fused``), lifted to Q(zeta_K) by
``cyclo._lift_rows``: K = N when the input's level divides N, else the
ambient field Q(zeta_L) of the basis.  They descend to Q(zeta_N) by
``cyclo._descend_rows`` when K != N, and with that denominator split as
dN * d (dN supported on the primes of N, d prime to N) each coordinate's
coset numerator is z * dN^(-1) mod d over d; the verdict is read off z.
A trivial verdict is sound on every basis: it comes with an explicit
decomposition into a modular combination, a constant, and an
N-integral remainder.  It is also complete when the basis is N-integral
(``ModFormBasis.is_integral``): an N-integral shift then moves the
modular coefficients by N-integral amounts only.  Reductions read only
the bases of ``weight_basis``, all built from its one integer pool, and
every such basis at the supported levels is N-integral, so every
verdict is complete.  A nontrivial verdict reports the cosets of y;
alpha*, and so the ``rep``, depend on the input series and not only on
its class.

Field elements are built only for what a reduction returns: the
constant, the recorded basis coefficients (the input at the pivots,
lifted to Q(zeta_L) through one table read), and, on a nontrivial
verdict, the cosets (``cyclo._coset``) and ``rep``; a trivial verdict
shares the zero coset and the plan's zero series.

Everything that does not depend on the input is built once per (N,
weight, prec) into one cached plan (``_plan``): the basis, the free
columns with r read off row 0 of its integer matrix (the pivot 0 comes
first, so only basis coefficient 0 moves with the constant), the ratios
r_c/r_c* with their order modulo Z[1/N], the Bezout weights that solve
the congruences (``_constant_lattice``) and the fused rows.  Every
residual is zero at the pivots of the echelon basis, so y, its descent
and its coset are formed only at the free columns; each pivot gets the
zero coset.
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
    _coset,
    _descend_rows,
    _lift_rows,
    _make,
    _project,
    _reduced,
    _zero_coset,
    reduce_mod_NZ,
)
from .errors import LevelMismatch, PrecisionInsufficient
from .integers import _split_denominator, euler_phi
from .modforms import ModFormBasis, _numerators, weight_basis
from .series import PQSeries, QSeries


class _Plan(NamedTuple):
    """What a reduction against weight_basis(N, weight, prec) reads, built once.

    ``free`` holds (c, r_c) for each q-exponent c off the pivots, the only
    places a residual can be nonzero, with r the residual of the series 1
    as Fractions.  The next fields are ``_constant_lattice(free, N)``:
    ``star`` is (c*, 1/r_c*) for c* the earliest column with r_c != 0, or
    None when r vanishes; ``m`` is the order of the ratios r_c/r_c* modulo
    Z[1/N], ``weights`` holds (h_c, lambda_c) per free column, ``g`` is
    the generator of (m/r_c*) Z[1/N] with numerator and denominator prime
    to N, and ``ratios`` is (k, P, Q), with k the index of c* in ``free``
    and r_c/r_c* = P[i]/Q at the i-th free column, or None with ``star``.
    ``zero_rep`` is the zero series at level N and precision prec, the
    ``rep`` of every trivial verdict.  ``rows`` holds the fused row Q * (D *
    e_c - sum_j R[j][c] * e_{p_j}) - P_c * (the same at c*) of each free
    column c but c* (y_c* = 0), then the residual row of c*, which gives
    alpha* (with r = 0, the residual rows of all).  The Sturm bound, L and
    the digest are read off ``basis``.
    """

    basis: ModFormBasis | None
    free: tuple[tuple[int, Fraction], ...]
    star: tuple[int, Fraction] | None
    m: int
    weights: tuple[tuple[int, int], ...]
    g: Fraction | None
    ratios: tuple[int, tuple[int, ...], int] | None
    zero_rep: QSeries | None
    rows: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _plan(N: int, weight: int, prec: int) -> _Plan:
    """The reduction plan of weight_basis(N, weight, prec), read off its integer matrix."""
    basis = weight_basis(N, weight, prec)
    pivots, rows, D = basis.pivots, basis.rows, basis.den
    # every M_k(Gamma_1(N)), N >= 4, has a form with a nonzero constant term (1
    # at k = 0, E_2(q) - t E_2(q^t) at k = 2, else an E_k^{1,phi}), so the pivot
    # 0 comes first and 1 = row 0 / D + r, r_c = -rows[0][c] / D off the pivots;
    # r is rational, as every basis is an integer matrix over D; D is N-smooth
    # for every basis that ``weight_basis`` builds, so every verdict is complete
    assert pivots[0] == 0
    free = tuple((c, Fraction(-rows[0][c], D)) for c in range(prec) if c not in pivots)
    lattice = _constant_lattice(free, N)
    # the residuals of the unit series q^n give each free column's weight of S_n
    fused = basis._residual([[int(i == n) for i in range(prec)] for n in range(prec)])
    if lattice[-1] is not None:
        k, P, Q = lattice[-1]
        star_row = fused.pop(k)
        fused = [[Q * a - p * b for a, b in zip(row, star_row)]
                 for row, p in zip(fused, P[:k] + P[k + 1:])] + [star_row]
    return _Plan(basis, free, *lattice, QSeries.zero(N, prec), tuple(map(tuple, fused)))


def _constant_lattice(free, N: int) -> tuple:
    """(star, m, weights, g, ratios) of the rational residual r of 1, given as (c, r_c) pairs.

    With c* the earliest column where r_c != 0, each ratio r_c/r_c* is
    h_c/m modulo Z[1/N], for m the lcm of the prime-to-N parts of their
    denominators and h_c in [0, m).  The ratios generate the subgroup of
    order m of Q/Z[1/N], so gcd(m, h_c over all c) = 1 and there are
    weights lambda_c with sum(lambda_c * h_c) = 1 mod m.  They are built
    column by column: with G the gcd of m and the h_c taken so far and
    sum(lambda_c * h_c) = G mod m, the next h_c gives G' = gcd(G, h_c) =
    b * h_c - k * G, so the weights so far are scaled by -k and b is
    appended.  ``star`` is (c*, 1/r_c*), g is the positive generator of
    (m/r_c*) Z[1/N] with numerator and denominator prime to N, and
    ``ratios`` is (index of c*, P, Q) with Q > 0 the common denominator
    of the ratios and P their numerators over it.  When r vanishes there
    is no c*: star, g and ratios are None, m is 1 and every weight is
    (0, 0).
    """
    i_star = next((i for i, (_, r) in enumerate(free) if r), None)
    if i_star is None:
        return None, 1, ((0, 0),) * len(free), None, None
    star = (free[i_star][0], 1 / free[i_star][1])
    ratios = [r * star[1] for _, r in free]
    split = [_split_denominator(x.denominator, N) for x in ratios]
    m = math.lcm(*(d for _, d in split))
    h = [x.numerator * pow(dN, -1, d) % d * (m // d) for x, (dN, d) in zip(ratios, split)]
    G, lam = m, []
    for hc in h:
        G1 = math.gcd(G, hc)
        b = pow(hc // G1, -1, G // G1)
        k = (b * hc - G1) // G
        lam = [-k * x % m for x in lam] + [b]
        G = G1
    assert G == 1
    g = m * star[1]
    g = Fraction(_split_denominator(abs(g.numerator), N)[1],
                 _split_denominator(g.denominator, N)[1])
    Q = math.lcm(*(x.denominator for x in ratios))
    P = tuple(x.numerator * (Q // x.denominator) for x in ratios)
    return star, m, tuple(zip(h, lam)), g, (i_star, P, Q)


def _fused(S, level: int, K: int, plan: _Plan) -> tuple[list, list | None]:
    """(y, at_star) of ``_classify`` in Q(zeta_K) for the numerators S of an input
    at ``level``: one dot product per plan row and coordinate, then one lift."""
    columns = list(zip(*S))
    y = [[sum(map(mul, row, column)) for column in columns] for row in plan.rows]
    if level != K:
        y = list(_lift_rows(y, level, K))
    return (y, None) if plan.star is None else (y[:-1], y[-1])


def _classify(y: list, at_star, den: int, plan: _Plan, N: int, K: int) -> tuple[Cyclo, list, bool]:
    """(alpha, cosets, trivial) for the residual s_res over den in Q(zeta_K), N | K.

    ``at_star`` holds the phi(K) numerators of s_res[c*] over den > 0, or
    None when r vanishes; ``y`` holds those of y_c = s_res[c] - alpha* r_c
    over den * Q at each free column but c* (y_c* = 0), or those of y =
    s_res over den at every free column when r vanishes (``_fused``).
    ``cosets`` holds, per free column, the coset modulo Z[1/N, zeta_N] of
    y_c, or None when it does not lie in Q(zeta_N).  The class is trivial
    when some constant leaves every s_res[c] - alpha * r_c in Z[1/N,
    zeta_N]; alpha is then the canonical such constant and every coset is
    zero.  Otherwise alpha is the c* constant alpha* = s_res[c*]/r_c*,
    which cancels the earliest nonzero r_c.

    Every constant beta that works is alpha* - t/r_c* with t = s_c* -
    beta r_c* in Z[1/N, zeta_N], and it leaves y_c + t * r_c/r_c* at c.
    So the class is trivial iff every y_c lies in Q(zeta_N) and, in each
    power-basis coordinate i, with y_ci = a_ci/m modulo Z[1/N] (so the
    coset denominator of y_c divides m), one t_i in Z / m solves t_i * h_c
    = -a_ci mod m for every c.  With the denominator dN * d of y split as
    in ``reduce_mod_NZ`` and d' = d / gcd(d, m), that coset denominator
    divides m iff d' divides every numerator z_ci, and then a_ci = (z_ci/d')
    * dN^(-1) * (m / gcd(d, m)) mod m; the coset numerators z_ci * dN^(-1)
    mod d are formed only for a nontrivial verdict.  The weights give the
    only candidate, t_i = -sum(lambda_c * a_ci) mod m (0 with no column
    but c*), checked at every column.  The constants that work are then
    alpha* - t/r_c* + g Z[1/N, zeta_N]; they share the part off Q(zeta_N)
    (what ``cyclo._project`` drops) and alpha moves their Q(zeta_N) part
    theta to g * R(theta/g), R the representative of ``reduce_mod_NZ``,
    which depends only on the set of valid constants.
    """
    star, m, weights = plan.star, plan.m, plan.weights
    if star is None:
        alpha = Cyclo(K)
    else:
        k, _, Q = plan.ratios
        weights = weights[:k] + weights[k + 1:]
        inv_num, inv_den = star[1].as_integer_ratio()  # 1/r_c*
        alpha = _reduced(K, tuple([inv_num * x for x in at_star]), den * inv_den)
        den *= Q
    y, scale = _descend_rows(y, K, N)
    dN, d = _split_denominator(den * scale, N)
    unit = pow(dN, -1, d)
    d1 = d // math.gcd(d, m)
    trivial = all(z is not None and not any([x % d1 for x in z]) for z in y)
    if trivial:
        f = unit * (m * d1 // d)
        a = [[x // d1 * f % m for x in z] for z in y]
        lam = [w for _, w in weights]
        t = [-sum(map(mul, lam, column)) % m for column in zip(*a)] or [0] * euler_phi(N)
        trivial = not any((a_ci + ti * h) % m for (h, _), a_c in zip(weights, a)
                          for a_ci, ti in zip(a_c, t))
    if not trivial:
        cosets = [_coset(N, None if z is None else [x * unit % d for x in z], d) for z in y]
        if star is not None:
            cosets.insert(k, _zero_coset(N))
        return alpha, cosets, False
    cosets = [_zero_coset(N)] * len(plan.free)
    if star is None:
        return alpha, cosets, True
    # theta = part - t/r_c* and g * R(theta/g), g = p/q, in integers per coordinate
    part = _project(alpha, N)
    p, q = plan.g.as_integer_ratio()
    dN, d = _split_denominator(part.den * inv_den * p, N)
    unit = q * pow(dN, -1, d)
    rep = [(x * inv_den - ti * inv_num * part.den) * unit % d * p
           for x, ti in zip(part.num, t)]
    canonical = _reduced(N, tuple(rep), d * q)
    return canonical if K == N else alpha + (canonical - part).lift(K), cosets, True


class UqClass:
    """Reduction of a q-series in the one-variable quotient target.

    ``cosets[n]`` is the canonical coset of the n-th residual coefficient
    modulo Z[1/N, zeta_N], or None when the residual does not even lie in
    Q(zeta_N) (such a coset is necessarily nonzero).  ``rep`` collects the
    coset representatives as a QSeries at level N.

    ``modular_part["constant"]`` is the constant alpha of the recorded
    decomposition.  On a trivial verdict the valid alphas form one coset
    alpha_0 + g Z[1/N, zeta_N], g the generator of (m/r_c*) Z[1/N] with
    numerator and denominator prime to N (see ``_Plan``), and alpha is its
    canonical element: the Q(zeta_N)-complement part shared by every valid
    alpha, plus g * rho in each coordinate of Q(zeta_N), rho in [0, 1) with
    denominator prime to N (the rule of ``reduce_mod_NZ``).  It depends
    only on the set of valid alphas, so it does not change when s moves by
    a modular combination, nor, over an N-integral basis, by an N-integral
    series.  On a nontrivial verdict alpha is the c* constant, which
    cancels the earliest nonzero coefficient of the residual of 1, so there
    alpha, the cosets and ``rep`` depend on s itself, not only on its
    class.  The constant and ``coefficients`` lie
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
    basis = plan.basis
    L, D, pivots = basis.field_level, basis.den, basis.pivots
    # decide in Q(zeta_N) when s lies there, else in Q(zeta_L)
    level = s.level
    K = N if N % level == 0 else L
    if K % level:
        raise LevelMismatch(f"{level} does not divide {K}")
    coeffs = s.coeffs[:prec]
    S, E = _numerators(coeffs)
    alpha, free_cosets, trivial = _classify(*_fused(S, level, K, plan), D * E, plan, N, K)

    # s_res and r vanish at every pivot, so only the free columns can carry
    # a nonzero coset
    cosets: list[NZCoset | None] = [_zero_coset(N)] * prec
    if trivial:
        rep = plan.zero_rep
    else:
        for (c, _), coset in zip(plan.free, free_cosets):
            cosets[c] = coset
        zero = plan.zero_rep.coeffs[0]
        rep = QSeries(N, prec, [zero if c is None else c.rep for c in cosets])
    # the basis coefficients are s at the pivots; 1 has basis coefficients
    # (1, 0, ...), so only coefficient 0 moves with alpha
    beta = [coeffs[p] for p in pivots]
    if level != L:
        lifted = _lift_rows([x.num for x in beta], level, L)
        beta = [_make(L, num, x.den) for num, x in zip(lifted, beta)]
    constant = alpha.lift(L)
    modular_part = {
        "pivot_columns": list(pivots),
        "coefficients": [beta[0] - constant, *beta[1:]],
        "constant": constant,
        "sturm": basis.certificate["sturm"],
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
    The carrier level of s must divide N; s is read at level N.  A
    canonical cell with a denominator that is not N-smooth has a nonzero
    coset, so the mixed part is trivial iff the lcm of the cell
    denominators is N-smooth.
    """
    if N % s.level:
        raise LevelMismatch(f"carrier level {s.level} does not divide {N}")
    row_class = reduce_Uq(s.p_row(0), N, degree)
    column_class = reduce_Uq(s.q_column(0), N, degree)
    cells = [row.coeffs[1:] for row in s.coeffs[1:]]
    # a cell's coset is zero iff its denominator is N-smooth, that is prime to
    # the prime-to-N part d of the lcm of them all; only the other cells are
    # lifted to level N and reduced
    d = _split_denominator(math.lcm(*(x.den for row in cells for x in row)), N)[1]
    zero = _zero_coset(N)
    mixed = [[zero if math.gcd(x.den, d) == 1 else reduce_mod_NZ(x.lift(N)) for x in row]
             for row in cells]
    trivial = row_class.trivial and column_class.trivial and d == 1
    return WtClass(
        N, degree, s.prec_p, s.prec_q, row_class, column_class, mixed, trivial
    )
