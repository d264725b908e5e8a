"""The level-N complex elliptic genus and its two-variable refinement.

The characteristic series is

    phi(x)(q) = a(q) * Q_{-zeta_N}(x)(q),

    Q_y(x)(q) = x/(1-e^{-x}) * (1+y e^{-x})
                * prod_{n>=1} (1+y q^n e^{-x})/(1-q^n e^{-x})
                            * (1+y^{-1} q^n e^{x})/(1-q^n e^{x}),

    a(q) = Q_{-zeta_N}(0)(q)^{-1}.

The genus needs only log phi.  The logarithm of the product is a sum of
logarithms, so each x^k coefficient of log phi is a twisted divisor sum in
q (an Eisenstein series), and `log_phi_series` writes it down in closed
form, with no series product or inversion.  Genus values are computed from
Chern numbers: the degree-n multiplicative class F = exp(sum_k l_k p_k),
with l = log phi and the power sums p_k written in elementary symmetric
polynomials (= Chern classes) by Newton's identities, is built degree by
degree from the recurrence d F_d = sum_{i<=d} i l_i p_i F_{d-i} that
F' = A' F gives for F = exp(A) (Brent and Kung 1978), then paired against
the Chern-number data.  `phi_series` = exp(log phi) and the product formula
in `verify_Q_identity` serve as checks.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from .cyclo import Cyclo, _integer
from .errors import (
    BadChernData,
    BadSplitChernData,
    InsufficientXPrecision,
    NonUnitConstantTerm,
)
from .series import PQSeries, QSeries, XQSeries, exp_x, todd_series

Partition = tuple[int, ...]


def _normalize_partition(key, error) -> Partition:
    """A tuple of parts in any order, or the file form "a,b,..." weakly
    decreasing ("" is ()); each part an exact integer >= 1, else ``error``."""
    if isinstance(key, str):
        parts = tuple(_integer(p, error) for p in key.split(",")) if key else ()
        if list(parts) != sorted(parts, reverse=True):
            raise error(f"partition key {key!r} is not weakly decreasing")
    else:
        parts = tuple(sorted((_integer(p, error) for p in key), reverse=True))
    if any(p < 1 for p in parts):
        raise error(f"bad partition {key!r}")
    return parts


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, parts weakly decreasing."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


class ChernData:
    """Chern numbers of a stably almost complex manifold.

    ``numbers`` maps partitions of the complex dimension to the integers
    <c_{lambda_1} ... c_{lambda_r}, [M]>.  Missing partitions mean 0.  A key
    is a tuple of parts or the file form "2,1,1" (parts weakly decreasing,
    each an exact integer as BadChernData says).
    """

    __slots__ = ("dim", "numbers")

    def __init__(self, dim: int, numbers: dict):
        dim = _integer(dim, BadChernData)
        if dim < 0:
            raise BadChernData(f"dimension {dim} is negative")
        self.dim = dim
        clean = {}
        for key, value in numbers.items():
            part = _normalize_partition(key, BadChernData)
            if sum(part) != dim:
                raise BadChernData(f"{part} is not a partition of {dim}")
            clean[part] = clean.get(part, 0) + _integer(value, BadChernData)
        self.numbers = clean

    def __eq__(self, other):
        if not isinstance(other, ChernData):
            return NotImplemented
        a = {k: v for k, v in self.numbers.items() if v}
        b = {k: v for k, v in other.numbers.items() if v}
        return self.dim == other.dim and a == b

    def __repr__(self):
        return f"ChernData(dim={self.dim}, numbers={self.numbers})"


class SplitChernData:
    """Chern numbers for a split tangent bundle T0 + T1.

    Keys are pairs of partitions (lam, mu) with |lam| + |mu| = dim0 + dim1,
    valued <c_lam(T0) c_mu(T1), [X]>, or strings "lam|mu" in the file form
    of ChernData ("2" is "2|").
    """

    __slots__ = ("dim0", "dim1", "numbers")

    def __init__(self, dim0: int, dim1: int, numbers: dict):
        dim0, dim1 = _integer(dim0, BadSplitChernData), _integer(dim1, BadSplitChernData)
        if dim0 < 0 or dim1 < 0:
            raise BadSplitChernData(f"dimensions ({dim0}, {dim1}) include a negative one")
        self.dim0 = dim0
        self.dim1 = dim1
        total = dim0 + dim1
        clean = {}
        for key, value in numbers.items():
            pair = key.partition("|")[::2] if isinstance(key, str) else key
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise BadSplitChernData(f"key {key!r} is not a pair of partitions")
            lam, mu = (_normalize_partition(x, BadSplitChernData) for x in pair)
            if sum(lam) + sum(mu) != total:
                raise BadSplitChernData(
                    f"({lam}, {mu}) has total degree != {total}"
                )
            clean[(lam, mu)] = clean.get((lam, mu), 0) + _integer(value, BadSplitChernData)
        self.numbers = clean

    def swap(self) -> "SplitChernData":
        return SplitChernData(
            self.dim1,
            self.dim0,
            {(mu, lam): v for (lam, mu), v in self.numbers.items()},
        )

    def __repr__(self):
        return (
            f"SplitChernData(dim0={self.dim0}, dim1={self.dim1}, "
            f"numbers={self.numbers})"
        )


def cp_chern(n: int) -> ChernData:
    """Chern numbers of CP^n: c_lam = prod_i binom(n+1, lam_i)."""
    numbers = {}
    for part in partitions_of(n):
        value = 1
        for p in part:
            value *= comb(n + 1, p)
        numbers[part] = value
    return ChernData(n, numbers)


def chern_product(a: ChernData, b: ChernData) -> ChernData:
    """Chern numbers of a product manifold, by the Whitney formula.

    c_k(A x B) = sum_{i+j=k} c_i(A) c_j(B); the Kunneth pairing keeps the
    terms whose A-degrees sum to dim(A).
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


def split_product(a: ChernData, b: ChernData) -> SplitChernData:
    """Split Chern data of A x B with T0 = TA, T1 = TB (pulled back)."""
    numbers = {}
    for lam, va in a.numbers.items():
        for mu, vb in b.numbers.items():
            numbers[(lam, mu)] = va * vb
    return SplitChernData(a.dim, b.dim, numbers)


def _q_monomial(level: int, prec: int, n: int) -> QSeries:
    coeffs = [0] * prec
    if n < prec:
        coeffs[n] = 1
    return QSeries(level, prec, coeffs)


@functools.lru_cache(maxsize=None)
def log_phi_series(N: int, prec_x: int, prec_q: int) -> XQSeries:
    """log phi(x)(q) in closed form; the x^0 coefficient is 0.

    With y = -zeta_N, the q^0 row is the x-series
    log[x/(1-e^{-x}) * (1+y e^{-x})/(1+y)].  Expanding the logarithm of
    each product factor of Q_y gives, for k >= 1 and j >= 1,

        [q^j x^k] log phi = sum_{m | j} m^{k-1}/k!
                            * ((-1)^k (1-zeta_N^m) + 1-zeta_N^{-m}),

    which is filled in by a divisor sieve over m.
    """
    y = -Cyclo.zeta(N)
    if not 1 + y:
        raise NonUnitConstantTerm(f"1 + y = 0 at level {N}: phi is undefined")
    em = exp_x(N, prec_x, 1, -1)
    q0 = (todd_series(N, prec_x, 1) * (1 + em * y) * (1 + y).inv()).log()
    rows = [[q0[k][0]] + [Cyclo(N)] * (prec_q - 1) for k in range(prec_x)]
    for m in range(1, prec_q):
        zm, zinv = Cyclo.zeta(N, m), Cyclo.zeta(N, -m)
        fact = 1
        for k in range(1, prec_x):
            fact *= k
            c = ((1 - zm) * (-1) ** k + 1 - zinv) * Fraction(m ** (k - 1), fact)
            row = rows[k]
            for j in range(m, prec_q, m):
                row[j] = row[j] + c
    return XQSeries([QSeries(N, prec_q, row) for row in rows], prec_x)


@functools.lru_cache(maxsize=None)
def phi_series(N: int, prec_x: int, prec_q: int) -> XQSeries:
    """phi(x)(q) = a(q) Q_{-zeta_N}(x)(q) = exp(log phi); the x^0 coefficient is 1."""
    return log_phi_series(N, prec_x, prec_q).exp()


class GradedSymPoly:
    """Homogeneous polynomial in Chern classes with QSeries coefficients.

    Monomials are encoded as partitions: (2, 1) stands for c_2 * c_1.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        self.degree = degree
        self.terms = dict(terms)


def _newton_power_sum(k: int) -> dict[Partition, int]:
    """p_k in the elementary symmetric basis, by Newton's identities."""
    ps: list[dict[Partition, int]] = [dict() for _ in range(k + 1)]
    for m in range(1, k + 1):
        acc: dict[Partition, int] = {}
        for i in range(1, m):
            sign = (-1) ** (i - 1)
            for part, c in ps[m - i].items():
                key = tuple(sorted(part + (i,), reverse=True))
                acc[key] = acc.get(key, 0) + sign * c
        sign = (-1) ** (m - 1)
        acc[(m,)] = acc.get((m,), 0) + sign * m
        ps[m] = acc
    return ps[k]


def multiplicative_class(ell: XQSeries, n: int) -> GradedSymPoly:
    """Degree-n piece of prod_i phi(x_i), in elementary symmetric basis.

    ``ell`` is l = log(phi), whose x^0 coefficient is 0.  The class is
    F = exp(A) with A = sum_k l_k p_k, and its pieces F_d of weight d
    follow from F' = A' F: d F_d = sum_{i=1}^{d} i l_i p_i F_{d-i}, with
    F_0 = 1, one q-series product l_i g per monomial g of F_{d-i}.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n == 0:
        return GradedSymPoly(0, {(): QSeries.one(ell.level, ell.prec_q)})
    if ell.prec_x <= n:
        raise InsufficientXPrecision(f"prec_x {ell.prec_x} <= degree {n}")
    power_sums = [
        (i, ell[i], _newton_power_sum(i)) for i in range(1, n + 1) if not ell[i].is_zero()
    ]
    K: list[dict[Partition, QSeries]] = [{(): QSeries.one(ell.level, ell.prec_q)}]
    for d in range(1, n + 1):
        Kd: dict[Partition, QSeries] = {}
        for i, li, p_i in power_sums:
            if i > d:
                break
            for mu, g in K[d - i].items():
                lg = li * g
                for nu, c in p_i.items():
                    key = tuple(sorted(mu + nu, reverse=True))
                    term = lg * Fraction(i * c, d)
                    prev = Kd.get(key)
                    Kd[key] = term if prev is None else prev + term
        K.append(Kd)
    return GradedSymPoly(n, K[n])


@functools.lru_cache(maxsize=None)
def _mclass(N: int, prec_x: int, prec_q: int, n: int) -> GradedSymPoly:
    return multiplicative_class(log_phi_series(N, prec_x, prec_q), n)


def genus(M: ChernData, N: int, prec_q: int) -> QSeries:
    """The level-N complex elliptic genus of M as a q-expansion."""
    K = _mclass(N, M.dim + 2, prec_q, M.dim)
    result = QSeries.zero(N, prec_q)
    for part, value in M.numbers.items():
        if not value:
            continue
        coeff = K.terms.get(part)
        if coeff is not None:
            result = result + coeff * value
    return result


def genus_bivariate(
    X: SplitChernData,
    N: int,
    prec_p: int,
    prec_q: int,
) -> PQSeries:
    """The two-variable representative F(X) in (p, q).

    Per split factor, Td * ch C equals the characteristic series phi, so
    F(X) pairs prod phi(x_i)(p) * prod phi(y_j)(q) against the split
    Chern numbers.
    """
    prec_x = X.dim0 + X.dim1 + 2
    result = PQSeries(N, prec_p, prec_q)
    for (lam, mu), value in X.numbers.items():
        if not value:
            continue
        Kp = _mclass(N, prec_x, prec_p, sum(lam))
        Kq = _mclass(N, prec_x, prec_q, sum(mu))
        a = Kp.terms.get(lam)
        b = Kq.terms.get(mu)
        if a is None or b is None:
            continue
        result = result + PQSeries.outer(a, b) * value
    return result


def chi_y_cp(n: int, N: int) -> Cyclo:
    """Independent oracle for the q = 0 shadow of genus(CP^n).

    chi_y(CP^n) = sum_i (-y)^i at y = -zeta_N, normalized by the q = 0
    value (1 - zeta_N)^n of the genus normalization.
    """
    z = Cyclo.zeta(N)
    total = Cyclo.from_rational(N, 0)
    power = Cyclo.from_rational(N, 1)
    for _ in range(n + 1):
        total = total + power
        power = power * z
    scale = (Cyclo.from_rational(N, 1) - z).inv()
    for _ in range(n):
        total = total * scale
    return total


def verify_Q_identity(N: int, prec_x: int, prec_q: int) -> bool:
    """Check prod_i Q_y(x_i) = Td(V) ch[Lambda_y V* prod ...] for a line bundle.

    The right side is assembled from the Chern-character primitives
    ch Lambda_t(L*) = 1 + t e^{-x}, ch Lambda_t(L) = 1 + t e^{x},
    ch S_t(L) = (1 - t e^{x})^{-1}, ch S_t(L*) = (1 - t e^{-x})^{-1},
    and compared coefficientwise with Q = phi * Q(0), where phi comes from
    the closed form of log phi.
    """
    y = -Cyclo.zeta(N)
    yinv = y.inv()
    em = exp_x(N, prec_x, prec_q, -1)
    ep = exp_x(N, prec_x, prec_q, +1)
    one = XQSeries.one(N, prec_x, prec_q)

    def ch_lambda_dual(t: QSeries) -> XQSeries:
        return one + em * t

    def ch_lambda(t: QSeries) -> XQSeries:
        return one + ep * t

    def ch_sym(t: QSeries) -> XQSeries:
        return (one - ep * t).inv()

    def ch_sym_dual(t: QSeries) -> XQSeries:
        return (one - em * t).inv()

    y_const = QSeries.constant(N, prec_q, y)
    rhs = todd_series(N, prec_x, prec_q) * ch_lambda_dual(y_const)
    for n in range(1, prec_q):
        qn = _q_monomial(N, prec_q, n)
        rhs = rhs * ch_lambda_dual(qn * y)
        rhs = rhs * ch_lambda(qn * yinv)
        rhs = rhs * ch_sym(qn) * ch_sym_dual(qn)
    return phi_series(N, prec_x, prec_q) * rhs[0] == rhs
