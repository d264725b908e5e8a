"""Reference implementations kept only to check production code against."""

import contextlib
import functools
import math
import sys
from fractions import Fraction
from math import comb

import pytest

from ellgenus import reduce
from ellgenus.cyclo import (
    Cyclo,
    NZCoset,
    _power_table,
    _rational,
    _reduced,
    _zero_coset,
    descend,
    in_NZ,
    reduce_mod_NZ,
)
from ellgenus.errors import (
    BadConstantTerm,
    InsufficientXPrecision,
    LevelMismatch,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    UnsupportedLevel,
)
from ellgenus.genus import ChernData, Partition, _newton_power_sum, partitions_of
from ellgenus.integers import _prime_factors, _product, _split_denominator, euler_phi
from ellgenus.linalg import _integer_echelon
from ellgenus.modforms import (
    ModFormBasis,
    _cusp_counts,
    _gamma1_index,
    ambient_field_level,
    dim_Mk,
    sturm_bound,
    weight_basis,
)
from ellgenus.reduce import UqClass, WtClass
from ellgenus.series import PQSeries, QSeries, XQSeries, bernoulli_number


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


def eliminate_at(basis, vec: list, K: int) -> tuple[list, list]:
    """``eliminate`` of vec, all in Q(zeta_K), against the rational rows of
    basis read at level K."""
    rows = [[Cyclo.from_rational(K, Fraction(x, basis.den)) for x in row] for row in basis.rows]
    return eliminate(vec, basis.pivots, rows)


# The Eisenstein series E_k^{psi,phi,t} of Diamond--Shurman 4.5-4.8, as the
# default pool was built before Hecke's rational weight-1 series replaced
# them: pairs of primitive Dirichlet characters with (mod psi)(mod phi) t | N
# and psi(-1) phi(-1) = (-1)^k, coefficients sum_{d|n} psi(n/d) phi(d) d^(k-1),
# constant term -B_{k,phi}/(2k) when psi is trivial; weight 2 with both
# characters trivial uses E_2(q) - t E_2(q^t).


class DirichletCharacter:
    """A Dirichlet character mod M with values in Q(zeta_L).

    Stored as the exponent table a -> e with chi(a) = zeta_L^e on units.
    """

    __slots__ = ("modulus", "field_level", "exponents")

    def __init__(self, modulus: int, field_level: int, exponents: dict[int, int]):
        self.modulus = modulus
        self.field_level = field_level
        self.exponents = dict(exponents)

    def value(self, n: int) -> Cyclo:
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return Cyclo.from_rational(self.field_level, 0)
        return Cyclo.zeta(self.field_level, self.exponents[n])

    def parity(self) -> int:
        """chi(-1), which is +1 or -1."""
        return 1 if self.exponents[-1 % self.modulus] == 0 else -1

    def conductor(self) -> int:
        """The least f | M with chi trivial on the units that are 1 mod f."""
        M = self.modulus
        return next(f for f in range(1, M + 1) if M % f == 0 and all(
            e == 0 for a, e in self.exponents.items() if a % f == 1 % f))

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def key(self) -> tuple:
        return (self.modulus, tuple(sorted(self.exponents.items())))


def bernoulli_polynomial(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum_i binom(k, i) B_i x^(k-i)."""
    return sum(comb(k, i) * bernoulli_number(i) * x ** (k - i) for i in range(k + 1))


def gen_bernoulli(chi: DirichletCharacter, k: int) -> Cyclo:
    """Generalized Bernoulli number B_{k,chi} = M^(k-1) sum_a chi(a) B_k(a/M)."""
    M = chi.modulus
    total = Cyclo.from_rational(chi.field_level, 0)
    for a in range(1, M + 1):
        total = total + chi.value(a) * bernoulli_polynomial(k, Fraction(a, M))
    return total * Fraction(M) ** (k - 1)


def eisenstein_by_scan(psi, phi_char, t: int, k: int, prec: int, N: int) -> QSeries:
    """E_k^{psi,phi,t} by a scan over every d <= n per coefficient, in Cyclo arithmetic."""
    L = psi.field_level
    if k < 1 or t < 1 or phi_char.field_level != L \
            or N % (psi.modulus * phi_char.modulus * t) \
            or psi.parity() * phi_char.parity() != (-1) ** k:
        raise ValueError(f"E_{k} at t = {t} is not admissible at level {N}")

    both_trivial = psi.modulus == 1 and phi_char.modulus == 1
    if k == 2 and both_trivial:
        if t == 1:
            raise ValueError("E_2 itself is not modular; need t > 1")
        e2 = _weight2_level1_by_scan(L, prec)
        return e2 - _shift(e2, t) * t

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
    return _shift(QSeries(L, prec, coeffs), t)


def _shift(f: QSeries, t: int) -> QSeries:
    """f(q^t), for t >= 1."""
    if t < 1:
        raise ValueError(f"shift needs t >= 1, got {t}")
    out = [Cyclo(f.level)] * f.prec
    out[::t] = f.coeffs[: -(-f.prec // t)]
    return QSeries(f.level, f.prec, out)


def _weight2_level1_by_scan(L: int, prec: int) -> QSeries:
    """E_2 = -1/24 + sum sigma_1(n) q^n (quasi-modular; used via t-twists)."""
    coeffs = [Cyclo.from_rational(L, Fraction(-1, 24))]
    for n in range(1, prec):
        coeffs.append(
            Cyclo.from_rational(L, sum(d for d in range(1, n + 1) if n % d == 0))
        )
    return QSeries(L, prec, coeffs)


def eisenstein_candidates_by_scan(N: int, k: int, prec: int) -> list[QSeries]:
    """All admissible E_k^{psi,phi,t} at level N, weight k, over Q(zeta_L).

    Ordered by (mod psi, mod phi, t, psi, phi), with E_2 at t = 1 and, at
    weight 1, the copy E_1^{phi,psi} of E_1^{psi,phi} left out.
    """
    L = ambient_field_level(N)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    prims = {d: [c for c in all_characters_by_generators(d, L) if c.is_primitive()]
             for d in divisors}
    out = []
    for u in divisors:
        for v in divisors:
            for t in divisors:
                if N % (u * v * t) or (k == 2 and u == v == t == 1):
                    continue
                for psi in prims[u]:
                    for phic in prims[v]:
                        if psi.parity() * phic.parity() != (-1) ** k:
                            continue
                        if k == 1 and (v, phic.key()) < (u, psi.key()):
                            continue  # E_1^{psi,phi} = E_1^{phi,psi}
                        out.append(eisenstein_by_scan(psi, phic, t, k, prec, N))
    return out


@functools.lru_cache(maxsize=None)
def field_basis(N: int, k: int, prec: int) -> ModFormBasis:
    """The basis built over Q(zeta_L): the character-built Eisenstein series
    and the QSeries products of lower-weight field-built bases, reduced by
    ``rref``, then checked to be rational and stored as its integer matrix."""
    L = ambient_field_level(N)
    dim = dim_Mk(N, k)
    candidates = []
    if k == 0:
        candidates.append(QSeries.one(L, prec))
    else:
        candidates.extend(eisenstein_candidates_by_scan(N, k, prec))
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
    basis = ModFormBasis(N, k, prec, pivots, rows, den)
    # the elements view, built from rows/den, is the field-built echelon form
    assert [list(e.coeffs) for e in basis.elements] == reduced
    return basis


def serialize_by_elements(basis: ModFormBasis) -> dict:
    """``ModFormBasis.serialize`` as it was written before it read ``rows`` and
    ``den`` directly: every coefficient through its ``Cyclo`` in ``elements``."""
    return {
        "level": basis.level,
        "weight": basis.weight,
        "prec": basis.prec,
        "field_level": basis.field_level,
        "sturm": basis.certificate["sturm"],
        "elements": [e.serialize() for e in basis.elements],
        "certificate": dict(basis.certificate),
    }


def basis_with_denominators(at_q6=Fraction(-5, 3), at_q7=Fraction(2, 7)):
    """A rational basis whose integer rows need a common denominator (21 by default).

    Every default basis at the supported levels has integer entries (D = 1),
    so this one adds at_q7 q^7 to its row 0 and at_q6 q^6 to its row 2, each
    row scaled to integers; the rows no longer span M_2, but they have full
    rank, so the constructor takes their echelon form.
    """
    rows = [list(row) for row in weight_basis(5, 2, 8).rows]
    for j, c, x in ((0, 7, at_q7), (2, 6, at_q6)):
        rows[j] = [a * x.denominator for a in rows[j]]
        rows[j][c] += x.numerator
    return ModFormBasis(5, 2, 8, *_integer_echelon(rows))


@contextlib.contextmanager
def reducing_over(basis):
    """Let ``reduce_Uq`` and ``field_reduce_Uq`` read basis as weight_basis(5, 2, 8).

    The cached plan and residual of 1 are dropped on entry and on exit, so
    no reduction outside the block sees the substitute basis.
    """
    real = weight_basis

    def substitute(*key):
        return basis if key == (5, 2, 8) else real(*key)

    reduce._plan.cache_clear()
    residual_of_one.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduce, "weight_basis", substitute)
            patch.setattr(sys.modules[__name__], "weight_basis", substitute)
            yield
    finally:
        reduce._plan.cache_clear()
        residual_of_one.cache_clear()


def descent_echelon(L: int, n: int):
    """The (pivots, free, tags, scale) descent table built by ``rref_tracked``."""
    table = _power_table(L)
    basis = [[Fraction(x) for x in table[i * (L // n)]] for i in range(euler_phi(n))]
    pivots, rows, tags = rref_tracked(basis)
    scale = math.lcm(*(x.denominator for row in rows + tags for x in row))

    def column(matrix, j):
        return tuple(int(row[j] * scale) for row in matrix)

    free = [(j, column(rows, j)) for j in range(len(table[0])) if j not in pivots]
    return pivots, free, [column(tags, i) for i in range(len(tags[0]))], scale


def lift_by_table(a: Cyclo, new_level: int) -> Cyclo:
    """Embed into Q(zeta_L) for N | L via zeta_N -> zeta_L^(L/N), one power-table row per coordinate."""
    if new_level == a.level:
        return a
    if new_level % a.level != 0:
        raise LevelMismatch(f"{a.level} does not divide {new_level}")
    step = new_level // a.level
    table = _power_table(new_level)
    out = [0] * euler_phi(new_level)
    for i, x in enumerate(a.num):
        if x:
            out = [y + x * t for y, t in zip(out, table[i * step])]
    return _reduced(new_level, tuple(out), a.den)


def subfield_part(a: Cyclo, n: int) -> Cyclo:
    """The Q(zeta_n) part of a in Q(zeta_L), n | L: the combination of the
    images of 1, zeta_n, ... that the pivot entries of a give over the rows
    of ``descent_echelon``."""
    if n == a.level:
        return a
    pivots, _, tags, scale = descent_echelon(a.level, n)
    coords = a.coords
    return Cyclo(n, [sum(coords[p] * t for p, t in zip(pivots, column)) / scale
                     for column in tags])


def descend_by_echelon(a: Cyclo, n: int) -> Cyclo | None:
    """a in Q(zeta_n), or None when it does not lie there: the projection
    ``subfield_part`` is the identity exactly on Q(zeta_n)."""
    part = subfield_part(a, n)
    return part if lift_by_table(part, a.level) == a else None


# The quotient reductions as they ran before the decision moved into
# Q(zeta_N): every input is lifted to Q(zeta_L), eliminated there, and every
# residual coefficient is descended back.  The residual of 1 and the
# congruence solve are kept here as they ran before the reduction plan, so
# these oracles share no code with the reduction they check.


@functools.lru_cache(maxsize=None)
def residual_of_one(N: int, weight: int, prec: int) -> tuple[tuple, tuple, tuple]:
    """(one_res, gamma, free_cols) for weight_basis(N, weight, prec).

    ``one_res``/``gamma`` are the residual and basis coefficients of the
    series 1 eliminated against the basis, as Fractions; ``free_cols`` are
    the q-exponents off its pivots, the only places a residual can be nonzero.
    """
    basis = weight_basis(N, weight, prec)
    L = basis.field_level
    one_res, gamma = eliminate_at(basis, QSeries.one(L, prec).coeffs, L)
    # the series 1 and the basis are rational, so both results are
    assert not any(x for value in one_res + gamma for x in value.num[1:])
    pivots = set(basis.pivots)
    return (
        tuple(value.coords[0] for value in one_res),
        tuple(value.coords[0] for value in gamma),
        tuple(c for c in range(prec) if c not in pivots),
    )


def congruence_solution(parts: list[Cyclo], r_vals: list[Fraction], N: int) -> Cyclo | None:
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


def field_solve_constant_direction(
    s_cols: list[Cyclo], r_cols: list[Fraction], N: int, L: int
) -> Cyclo | None:
    """Find alpha in Q(zeta_L) with s - alpha*r coefficientwise in Z[1/N, zeta_N].

    Returns None when no such alpha exists.  This is an exact decision, and
    the alpha returned depends only on the set of valid alphas.

    r is rational, so the conditions act coordinatewise.  A column with
    r_c = 0 needs s_c in Z[1/N, zeta_N].  On the others, with x_c = s_c/r_c,
    r_c * (x_c - alpha) in Z[1/N, zeta_N] needs x_c - alpha in Q(zeta_N),
    so every x_c - x_c0 must lie in Q(zeta_N), and then the valid alphas
    are x_c0 - pi(x_c0) + theta, for pi the Q(zeta_N) part
    (``subfield_part``) and theta in Q(zeta_N) with
    r_c * (pi(x_c) - theta) in Z[1/N, zeta_N] for every c: one congruence
    system over Z[1/N] per power-basis coordinate, see ``congruence_solution``.
    """
    # the reduced echelon form of the basis is Galois-fixed, so r is rational
    # (Shimura 1971, Thm 3.52; ``weight_basis`` certifies it); the
    # coordinatewise split below needs it
    assert all(isinstance(r, Fraction) for r in r_cols)
    x_cols, r_vals = [], []
    for s, r in zip(s_cols, r_cols):
        if r:
            r_vals.append(r)
            x_cols.append(s * (1 / r))
            continue
        down = descend_by_echelon(s, N)
        if down is None or not in_NZ(down):
            return None
    if not x_cols:
        return Cyclo(L)
    x0 = x_cols[0]
    if any(descend_by_echelon(x - x0, N) is None for x in x_cols[1:]):
        return None
    parts = [subfield_part(x, N) for x in x_cols]
    theta = congruence_solution(parts, r_vals, N)
    if theta is None:
        return None
    return x0 - parts[0].lift(L) + theta.lift(L)


def field_reduce_Uq(s: QSeries, N: int, degree: int, prec: int | None = None) -> UqClass:
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
    s_res, beta = eliminate_at(basis, [c.lift(L) for c in s.coeffs[:prec]], L)

    one_res, gamma, free_cols = residual_of_one(N, weight, prec)
    # the exact constant-direction decision is the verdict on every basis:
    # sound always, and complete over an N-integral basis
    alpha = field_solve_constant_direction(
        [s_res[c] for c in free_cols], [one_res[c] for c in free_cols], N, L
    )
    if alpha is None:
        # nontrivial: report the residual left by the constant that cancels
        # the earliest nonzero constant-residual coefficient c*
        c_star = next((c for c in range(prec) if one_res[c]), None)
        alpha_used = s_res[c_star] * (1 / one_res[c_star]) if c_star is not None \
            else Cyclo(L)
    else:
        alpha_used = alpha
    residual = [a - alpha_used * b for a, b in zip(s_res, one_res)]
    cosets: list[NZCoset | None] = []
    reps = []
    trivial = alpha is not None
    for value in residual:
        down = descend_by_echelon(value, N)
        if down is None:
            cosets.append(None)
            reps.append(Cyclo(N))
            continue
        coset = reduce_mod_NZ(down)
        cosets.append(coset)
        reps.append(coset.rep)
    if trivial:
        assert all(c is not None and c.is_zero() for c in cosets)
    rep = QSeries(N, prec, reps)
    coeffs = [b - alpha_used * g for b, g in zip(beta, gamma)]
    modular_part = {
        "pivot_columns": list(basis.pivots),
        "coefficients": coeffs,
        "constant": alpha_used,
        "sturm": sb,
        "basis_hash": basis.digest(),
    }
    return UqClass(N, degree, prec, cosets, rep, modular_part, trivial)


def field_reduce_Wtilde(s: PQSeries, N: int, degree: int) -> WtClass:
    """Canonical reduction in the two-variable quotient.

    The p^0 row is reduced as a q-series, the q^0 column as a p-series
    (the shared constant cell is absorbed by the constants summand in
    both), and every mixed coefficient is reduced modulo Z[1/N, zeta_N].
    The carrier level of s must divide N; s is read at level N.
    """
    if N % s.level:
        raise LevelMismatch(f"carrier level {s.level} does not divide {N}")
    row_class = field_reduce_Uq(s.p_row(0), N, degree)
    column_class = field_reduce_Uq(s.q_column(0), N, degree)
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


# The quotient reductions as they ran before they reduced in integers end to
# end: the elimination (``eliminate_at``) builds one Cyclo per column, and
# the constant decision forms, descends and reduces one Cyclo per free
# column again.  They read the plan of ``reduce._plan`` (the free columns, the
# residual r of 1, c*, m, the Bezout weights and g) and nothing else of the
# integer path.


def classify_by_cyclo(s_res, plan, N: int, K: int) -> tuple[Cyclo, list, bool]:
    """(alpha, cosets, trivial) for the residual s_res in Q(zeta_K), N | K, in Cyclo arithmetic.

    ``s_res[c]`` is the residual at each free column c of ``plan``.  Every
    valid constant is alpha* - t/r_c* with t in Z[1/N, zeta_N], for alpha*
    = s_res[c*]/r_c*; the class is trivial iff every y_c = s_res[c] -
    alpha* r_c descends to Q(zeta_N), its coset denominator divides m and
    the Bezout candidate t_i = -sum(lambda_c * a_ci) mod m solves every
    congruence t_i * h_c = -a_ci mod m, with y_ci = a_ci/m modulo Z[1/N].
    A trivial verdict moves the Q(zeta_N) part theta of the valid
    constants to g * R(theta/g), R the representative of ``reduce_mod_NZ``.
    """
    star, m, weights = plan.star, plan.m, plan.weights
    alpha = Cyclo(K) if star is None else s_res[star[0]] * star[1]
    cosets = []
    for c, r in plan.free:
        value = s_res[c] - alpha * r
        down = value if K == N else descend(value, N)
        cosets.append(None if down is None else reduce_mod_NZ(down))
    if not all(x is not None and m % x.rep.den == 0 for x in cosets):
        return alpha, cosets, False
    a = [[x * (m // coset.rep.den) for x in coset.rep.num] for coset in cosets]
    t = [-sum(lam * x for (_, lam), x in zip(weights, column)) % m for column in zip(*a)]
    if any((x + ti * h) % m for (h, _), a_c in zip(weights, a) for x, ti in zip(a_c, t)):
        return alpha, cosets, False
    cosets = [_zero_coset(N)] * len(cosets)
    if star is None:
        return alpha, cosets, True
    part = subfield_part(alpha, N)
    (u, v), (p, q) = star[1].as_integer_ratio(), plan.g.as_integer_ratio()
    dN, d = _split_denominator(part.den * v * p, N)
    unit = q * pow(dN, -1, d)
    rep = [(x * v - ti * u * part.den) * unit % d * p for x, ti in zip(part.num, t)]
    canonical = _reduced(N, tuple(rep), d * q)
    return canonical if K == N else alpha + (canonical - part).lift(K), cosets, True


def y_of_residual(u: list, plan) -> tuple[list, list | None]:
    """(y, at_star) from the residual numerators u per free column of plan,
    all over one denominator: y_c = Q * u_c - P_c * u_c* for r_c/r_c* =
    P_c/Q at every free column c but c*, where it is 0, and u_c*; y = u
    and no c* when r vanishes."""
    if plan.ratios is None:
        return [list(z) for z in u], None
    k, P, Q = plan.ratios
    at_star = list(u[k])
    y = [[Q * x - p * x_star for x, x_star in zip(z, at_star)] for z, p in zip(u, P)]
    assert not any(y.pop(k))
    return y, at_star


def y_by_two_passes(S: list, plan) -> tuple[list, list | None]:
    """(y, at_star) of the input numerators S, in the input's field, as
    ``reduce_Uq`` formed them before its plan held fused rows: the residual
    of ``ModFormBasis._residual`` first, then y from it."""
    return y_of_residual(plan.basis._residual(S), plan)


def cyclo_reduce_Uq(s: QSeries, N: int, degree: int, prec: int | None = None) -> UqClass:
    """``reduce.reduce_Uq`` by ``eliminate_at`` and ``classify_by_cyclo``."""
    if degree % 2 != 0:
        raise ValueError("degree must be even")
    weight = degree // 2
    if prec is None:
        prec = s.prec
    if prec > s.prec:
        raise PrecisionInsufficient(f"series has only {s.prec} coefficients")
    plan = reduce._plan(N, weight, prec)
    L = plan.basis.field_level
    K = N if N % s.level == 0 else L
    s_res, beta = eliminate_at(plan.basis, [c.lift(K) for c in s.coeffs[:prec]], K)
    alpha, free_cosets, trivial = classify_by_cyclo(s_res, plan, N, K)
    cosets: list[NZCoset | None] = [_zero_coset(N)] * prec
    for (c, _), coset in zip(plan.free, free_cosets):
        cosets[c] = coset
    rep = QSeries(N, prec, [Cyclo(N) if c is None else c.rep for c in cosets])
    coeffs = [(beta[0] - alpha).lift(L)] + [b.lift(L) for b in beta[1:]]
    modular_part = {
        "pivot_columns": list(plan.basis.pivots),
        "coefficients": coeffs,
        "constant": alpha.lift(L),
        "sturm": plan.basis.certificate["sturm"],
        "basis_hash": plan.basis.digest(),
    }
    return UqClass(N, degree, prec, cosets, rep, modular_part, trivial)


def cyclo_reduce_Wtilde(s: PQSeries, N: int, degree: int) -> WtClass:
    """``reduce.reduce_Wtilde`` over ``cyclo_reduce_Uq``, every mixed cell lifted to N."""
    if N % s.level:
        raise LevelMismatch(f"carrier level {s.level} does not divide {N}")
    row_class = cyclo_reduce_Uq(s.p_row(0), N, degree)
    column_class = cyclo_reduce_Uq(s.q_column(0), N, degree)
    trivial = row_class.trivial and column_class.trivial
    mixed = [[reduce_mod_NZ(x.lift(N)) for x in row.coeffs[1:]] for row in s.coeffs[1:]]
    trivial = trivial and all(c.is_zero() for row in mixed for c in row)
    return WtClass(
        N, degree, s.prec_p, s.prec_q, row_class, column_class, mixed, trivial
    )


def _sym_mul(a: dict, b: dict, cutoff: int) -> dict:
    out: dict[Partition, QSeries] = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            if sum(la) + sum(lb) > cutoff:
                continue
            key = tuple(sorted(la + lb, reverse=True))
            prev = out.get(key)
            prod = ca * cb
            out[key] = prod if prev is None else prev + prod
    return out


def multiplicative_class_by_powers(ell: XQSeries, n: int) -> dict[Partition, QSeries]:
    """Degree-n piece of prod_i phi(x_i), in elementary symmetric basis.

    ``ell`` is l = log(phi), whose x^0 coefficient is 0.  Computed as
    exp(sum_k l_k p_k), truncated at symmetric-function weight n.
    """
    if n == 0:
        return {(): QSeries.one(ell.level, ell.prec_q)}
    if ell.prec_x <= n:
        raise InsufficientXPrecision(f"prec_x {ell.prec_x} <= degree {n}")
    one = QSeries.one(ell.level, ell.prec_q)
    # A = sum_k l_k p_k as a symmetric polynomial with QSeries coefficients
    A: dict[Partition, QSeries] = {}
    for k in range(1, n + 1):
        lk = ell[k]
        if lk.is_zero():
            continue
        for part, c in _newton_power_sum(k).items():
            prev = A.get(part)
            contrib = lk * c
            A[part] = contrib if prev is None else prev + contrib
    result: dict[Partition, QSeries] = {(): one}
    term: dict[Partition, QSeries] = {(): one}
    for j in range(1, n + 1):
        term = _sym_mul(term, A, n)
        term = {k: v * Fraction(1, j) for k, v in term.items()}
        for key, v in term.items():
            prev = result.get(key)
            result[key] = v if prev is None else prev + v
    return {k: v for k, v in result.items() if sum(k) == n}


def chern_product_by_recursion(a: ChernData, b: ChernData) -> ChernData:
    """Chern numbers of a product manifold, by the Whitney formula.

    c_k(A x B) = sum_{i+j=k} c_i(A) c_j(B); the Kunneth pairing keeps the
    terms whose A-degrees sum to dim(A).  Each splitting of each partition
    is walked on its own.
    """
    dim = a.dim + b.dim
    numbers = {}
    for part in partitions_of(dim):
        total = 0
        # distribute each part lam_t = i_t + j_t over the two factors
        def rec(idx, left_a, left_b, parts_a, parts_b):
            nonlocal total
            if idx == len(part):
                if left_a == 0 and left_b == 0:
                    ka = tuple(sorted(parts_a, reverse=True))
                    kb = tuple(sorted(parts_b, reverse=True))
                    total += a.numbers.get(ka, 0) * b.numbers.get(kb, 0)
                return
            p = part[idx]
            for i in range(p + 1):
                j = p - i
                if i <= left_a and j <= left_b:
                    rec(
                        idx + 1,
                        left_a - i,
                        left_b - j,
                        parts_a + [i] * (i > 0),
                        parts_b + [j] * (j > 0),
                    )

        rec(0, a.dim, b.dim, [], [])
        numbers[part] = total
    return ChernData(dim, numbers)


def xq_exp_by_powers(self: XQSeries) -> XQSeries:
    """exp of an element with zero x^0 coefficient."""
    if not self.coeffs[0].is_zero():
        raise BadConstantTerm("exp needs x^0 coefficient 0")
    result = term = XQSeries.from_x_poly(self.level, self.prec_x, self.prec_q, [1])
    for k in range(1, self.prec_x):
        term = term * self * Fraction(1, k)
        result = result + term
    return result


def xq_log_by_powers(self: XQSeries) -> XQSeries:
    """log of an element with x^0 coefficient 1."""
    one = QSeries.one(self.level, self.prec_q)
    if self.coeffs[0] != one:
        raise BadConstantTerm("log needs x^0 coefficient 1")
    term = XQSeries.from_x_poly(self.level, self.prec_x, self.prec_q, [1])
    u = self - term
    result = XQSeries.from_x_poly(self.level, self.prec_x, self.prec_q, [0])
    for k in range(1, self.prec_x):
        term = term * u
        result = result + term * Fraction((-1) ** (k + 1), k)
    return result


# The series arithmetic as it ran before the two kernels ``integers._product``
# and ``series._recurrence``: one loop per carrier and operation.


def qseries_mul_by_loops(self: QSeries, other: QSeries) -> QSeries:
    out = [Cyclo(self.level) for _ in range(self.prec)]
    for i, a in enumerate(self.coeffs):
        if not a:
            continue
        for j in range(self.prec - i):
            b = other.coeffs[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return QSeries(self.level, self.prec, out)


def qseries_inv_by_loops(self: QSeries) -> QSeries:
    c0inv = self.coeffs[0].inv()
    out = [c0inv] + [Cyclo(self.level)] * (self.prec - 1)
    for n in range(1, self.prec):
        acc = Cyclo(self.level)
        for k in range(1, n + 1):
            if self.coeffs[k]:
                acc = acc + self.coeffs[k] * out[n - k]
        out[n] = -c0inv * acc
    return QSeries(self.level, self.prec, out)


def pqseries_mul_by_loops(self: PQSeries, other: PQSeries) -> PQSeries:
    zero = Cyclo(self.level)
    out = [[zero] * self.prec_q for _ in range(self.prec_p)]
    for i in range(self.prec_p):
        for j in range(self.prec_q):
            a = self[i, j]
            if not a:
                continue
            for k in range(self.prec_p - i):
                for l in range(self.prec_q - j):
                    b = other[k, l]
                    if b:
                        out[i + k][j + l] = out[i + k][j + l] + a * b
    return PQSeries(self.level, self.prec_p, self.prec_q, out)


def xqseries_mul_by_loops(self: XQSeries, other: XQSeries) -> XQSeries:
    out = [QSeries.zero(self.level, self.prec_q) for _ in range(self.prec_x)]
    for i, a in enumerate(self.coeffs):
        if a.is_zero():
            continue
        for j in range(self.prec_x - i):
            b = other.coeffs[j]
            if not b.is_zero():
                out[i + j] = out[i + j] + qseries_mul_by_loops(a, b)
    return XQSeries(out, self.prec_x)


def xqseries_inv_by_loops(self: XQSeries) -> XQSeries:
    c0inv = qseries_inv_by_loops(self.coeffs[0])
    out = [c0inv] + [
        QSeries.zero(self.level, self.prec_q) for _ in range(self.prec_x - 1)
    ]
    for n in range(1, self.prec_x):
        acc = QSeries.zero(self.level, self.prec_q)
        for k in range(1, n + 1):
            if not self.coeffs[k].is_zero():
                acc = acc + qseries_mul_by_loops(self.coeffs[k], out[n - k])
        out[n] = -qseries_mul_by_loops(c0inv, acc)
    return XQSeries(out, self.prec_x)


def xq_exp_by_loops(self: XQSeries) -> XQSeries:
    dA = [a * i for i, a in enumerate(self.coeffs)]
    F = [QSeries.one(self.level, self.prec_q)]
    for d in range(1, self.prec_x):
        acc = QSeries.zero(self.level, self.prec_q)
        for i in range(1, d + 1):
            if not dA[i].is_zero():
                acc = acc + qseries_mul_by_loops(dA[i], F[d - i])
        F.append(acc * Fraction(1, d))
    return XQSeries(F, self.prec_x)


def xq_log_by_loops(self: XQSeries) -> XQSeries:
    F = self.coeffs
    A = [QSeries.zero(self.level, self.prec_q)]
    dA = A[:]
    for d in range(1, self.prec_x):
        acc = F[d] * d
        for i in range(1, d):
            if not dA[i].is_zero():
                acc = acc - qseries_mul_by_loops(dA[i], F[d - i])
        dA.append(acc)
        A.append(acc * Fraction(1, d))
    return XQSeries(A, self.prec_x)


def todd_coefficients_by_loops(prec_x: int) -> list[Fraction]:
    fact = [Fraction(1)]
    for k in range(1, prec_x + 1):
        fact.append(fact[-1] * k)
    g = [Fraction((-1) ** k, 1) / fact[k + 1] for k in range(prec_x)]
    out = [Fraction(1)] + [Fraction(0)] * (prec_x - 1)
    for n in range(1, prec_x):
        out[n] = -sum(g[k] * out[n - k] for k in range(1, n + 1))
    return out


def _slices(f: QSeries) -> list[list[int]]:
    """The nonzero power-basis coordinate slices of a series, as integer rows."""
    E = math.lcm(*(c.den for c in f.coeffs))
    scaled = [[x * (E // c.den) for x in c.num] for c in f.coeffs]
    return [row for row in map(list, zip(*scaled)) if any(row)]


def default_rows_all_pairs(N: int, k: int, prec: int) -> list[list[int]]:
    """The pool of weight k >= 1 that ``_default_rows`` built before its cut to
    M_1 * M_{k-1} and before Hecke's series replaced the characters: the
    slices of the character-built Eisenstein series and the integer products
    of the bases of every pair of weights (k1, k - k1), k1 = 1 .. k/2."""
    out = [row for f in eisenstein_candidates_by_scan(N, k, prec) for row in _slices(f)]
    for k1 in range(1, k // 2 + 1):
        b2 = weight_basis(N, k - k1, prec)
        for f in weight_basis(N, k1, prec).rows:
            out.extend(_product(f, g, 0) for g in b2.rows)
    return out


def integer_product_by_loops(f: list[int], g: list[int], prec: int) -> list[int]:
    """The truncated convolution of two integer basis rows, as ``_default_rows`` ran it."""
    product = [0] * prec
    for i, a in enumerate(f):
        if a:
            product[i:] = [x + a * y for x, y in zip(product[i:], g)]
    return product


# The Dirichlet characters as they were built before ``all_characters``
# extended them along the units: a presentation of (Z/M)^* by generators
# (prime-power factorisation, primitive roots, CRT lifts) and a walk over
# exponent vectors.


def _primitive_root(p: int, e: int) -> int:
    phi = p - 1
    factors = [f for f, _ in _prime_factors(phi)]
    g = 2
    while True:
        if all(pow(g, phi // f, p) != 1 for f in factors):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_generators(M: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/M)^* via CRT on prime powers."""
    if M in (1, 2):
        return []
    gens = []
    for p, e in _prime_factors(M):
        pe = p**e
        rest = M // pe
        if p == 2:
            local = []
            if e == 2:
                local = [(3, 2)]
            elif e >= 3:
                local = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            g = _primitive_root(p, e)
            local = [(g, euler_phi(pe))]
        for g, order in local:
            if rest == 1:
                gens.append((g % M, order))
            else:
                # CRT lift: g mod p^e, 1 mod rest
                inv = pow(pe, -1, rest)
                lifted = (g * rest * pow(rest, -1, pe) + 1 * pe * inv) % M
                gens.append((lifted, order))
    return gens


def unit_group_exponent_by_generators(M: int) -> int:
    result = 1
    for _, order in unit_group_generators(M):
        result = result * order // math.gcd(result, order)
    return result


def all_characters_by_generators(M: int, field_level: int) -> list[DirichletCharacter]:
    """All Dirichlet characters modulo M, values in Q(zeta_L)."""
    gens = unit_group_generators(M)
    if not gens:
        exps = {a % M: 0 for a in range(1, M + 1) if math.gcd(a, M) == 1} or {0: 0}
        return [DirichletCharacter(M, field_level, exps)]
    # express each unit as a product of generator powers by enumeration
    orders = [order for _, order in gens]
    unit_exp_vectors = {}
    from itertools import product as iproduct

    for vec in iproduct(*[range(o) for o in orders]):
        u = 1
        for (g, _), e in zip(gens, vec):
            u = u * pow(g, e, M) % M
        unit_exp_vectors.setdefault(u, vec)
    chars = []
    for choice in iproduct(*[range(o) for o in orders]):
        exps = {}
        for u, vec in unit_exp_vectors.items():
            e = sum(
                s * v * (field_level // o) for s, v, o in zip(choice, vec, orders)
            ) % field_level
            exps[u] = e
        chars.append(DirichletCharacter(M, field_level, exps))
    chars.sort(key=lambda c: c.key())
    return chars


# The level invariants by their definitions: loops over every residue or
# divisor of N, O(N^2) at worst.  Production uses the closed forms in the
# prime factorization of N, which cost O(sqrt(N)).


def euler_phi_by_gcd(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def unit_group_exponent_by_orders(M: int) -> int:
    """The lcm of the multiplicative orders of the units mod M."""
    def order(a):
        m, x = 1, a % M
        while x != 1 % M:
            x = x * a % M
            m += 1
        return m
    return math.lcm(*(order(a) for a in range(1, M + 1) if math.gcd(a, M) == 1))


def gamma1_index_by_divisors(N: int) -> int:
    """The pairs (c, d) mod N with gcd(c, d, N) = 1, grouped by g = gcd(c, N):
    phi(N/g) residues c have it, and each pairs with the (N/g) phi(g)
    residues d prime to g."""
    phi = euler_phi_by_gcd
    return sum(phi(N // g) * (N // g) * phi(g) for g in range(1, N + 1) if N % g == 0)


def cusp_sum_by_divisors(N: int) -> int:
    """sum_{d | N} phi(d) phi(N/d), twice the number of cusps of Gamma_1(N), N >= 5."""
    phi = euler_phi_by_gcd
    return sum(phi(d) * phi(N // d) for d in range(1, N + 1) if N % d == 0)


# The dimension formulas in Fractions, as they ran before their exact
# integer forms in ``modforms``.


def genus_X1_by_fractions(N: int) -> int:
    mu_bar = _gamma1_index(N) // 2
    total, _, _ = _cusp_counts(N)
    g = Fraction(1) + Fraction(mu_bar, 12) - Fraction(total, 2)
    assert g.denominator == 1
    return int(g)


def dim_Mk_by_fractions(N: int, k: int) -> int:
    if N < 4:
        raise UnsupportedLevel(f"level {N} < 4")
    if k < 0:
        return 0
    if k == 0:
        return 1
    g = genus_X1_by_fractions(N)
    total, regular, irregular = _cusp_counts(N)
    if k == 1:
        if g != 0:
            raise UnsupportedLevel(
                "weight-1 dimension implemented only for genus-0 levels"
            )
        assert regular % 2 == 0
        return regular // 2
    if k % 2 == 0:
        return (k - 1) * (g - 1) + (k // 2) * total
    d = Fraction(k - 1) * (g - 1) + Fraction(k, 2) * regular + Fraction(k - 1, 2) * irregular
    assert d.denominator == 1
    return int(d)


def integer_by_rational(value, error=ValueError) -> int:
    """``integers._integer`` as it read every form but an int through ``cyclo._rational``."""
    if type(value) is int:
        return value
    try:
        x = _rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(str(exc)) from None
    if x.denominator != 1:
        raise error(f"{value!r} is not an integer")
    return x.numerator
