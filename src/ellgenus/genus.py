"""The level-N complex elliptic genus and its two-variable refinement.

The characteristic series is

    phi(x)(q) = a(q) * Q_{-zeta_N}(x)(q),

    Q_y(x)(q) = x/(1-e^{-x}) * (1+y e^{-x})
                * prod_{n>=1} (1+y q^n e^{-x})/(1-q^n e^{-x})
                            * (1+y^{-1} q^n e^{x})/(1-q^n e^{x}),

    a(q) = Q_{-zeta_N}(0)(q)^{-1}.

The genus needs only log phi.  The logarithm of the product is a sum of
logarithms, so at q^j, j >= 1, each x^k coefficient of log phi is a twisted
divisor sum (an Eisenstein series) that `log_phi_series` writes in closed
form; its q^0 row is one x-series product, one inversion in Q(zeta_N) and
the log recurrence.  Genus values are computed from Chern numbers, kept as
dicts from partitions (monomials in Chern classes) to integers.  The
degree-n multiplicative class F = exp(sum_k l_k p_k), with l = log phi and
the power sums p_k written in elementary symmetric polynomials (= Chern
classes) by Newton's identities, is built degree by degree from the
recurrence d F_d = sum_{i<=d} i l_i p_i F_{d-i} that F' = A' F gives for
F = exp(A) (Brent and Kung 1978), as a dict from partitions to q-series,
then paired against the Chern-number data.  The class of degree n reads l
only to x^n.  `phi_series` = exp(log phi) and the product formula in
`verify_Q_identity` serve as checks.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, prod

from .cyclo import Cyclo
from .errors import (
    SIZE_BOUND,
    BadChernData,
    BadSplitChernData,
    InsufficientXPrecision,
    NonUnitConstantTerm,
    TooLarge,
)
from .integers import _integer, euler_phi
from .series import PQSeries, QSeries, XQSeries, exp_x, todd_series

Partition = tuple[int, ...]


def _normalize_partition(key, error) -> Partition:
    """A tuple of parts in any order, or the file form "a,b,..." weakly
    decreasing ("" is ()); each part an exact integer >= 1, else ``error``."""
    if isinstance(key, str):
        parts = tuple(_integer(p, error) for p in key.split(",")) if key else ()
        if list(parts) != sorted(parts, reverse=True):
            raise error(f"partition key {key!r} is not weakly decreasing")
    elif isinstance(key, tuple):
        parts = tuple(sorted((_integer(p, error) for p in key), reverse=True))
    else:
        raise error(f"partition key {key!r} is neither a tuple nor a string")
    if any(p < 1 for p in parts):
        raise error(f"bad partition {key!r}")
    return parts


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, parts weakly decreasing, in reverse lexicographic order."""
    return _partitions(n, n)


def _partitions(n: int, largest: int) -> list[Partition]:
    """The partitions of n with no part above ``largest``, in reverse lexicographic order."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, largest), 0, -1) for rest in _partitions(n - p, p)]


def _partition_count(n: int, limit: int) -> int:
    """p(n) by Euler's pentagonal recurrence, without listing a partition;
    the count stops at the first p(m), m <= n, above limit, a lower bound
    for p(n)."""
    p = [1]
    for m in range(1, n + 1):
        total, i = 0, 1
        while (g := i * (3 * i - 1) // 2) <= m:
            sign = 1 if i % 2 else -1
            total += sign * (p[m - g] + (p[m - g - i] if g + i <= m else 0))
            i += 1
        p.append(total)
        if total > limit:
            break
    return p[-1]


def _check_size(N: int, classes: list[tuple[int, int]], series: int) -> None:
    """Raise TooLarge unless a genus at level N fits in SIZE_BOUND entries.

    The estimate is N phi(N) for the field (``cyclotomic_poly`` allocates
    N + 1 entries, its power table more), p(n) phi(N) prec for the
    multiplicative class of each (n, prec) in classes, and phi(N) series
    for the result, series being its number of coefficients.  Nothing is
    built; a caller runs it before any other work of its command.
    """
    phi = euler_phi(N)
    total = N * phi + phi * series
    for n, prec in classes:
        total += _partition_count(n, SIZE_BOUND // (phi * prec)) * phi * prec
    if total > SIZE_BOUND:
        raise TooLarge(f"a genus at level {N}", total)


def _with(parts: Partition, i: int) -> Partition:
    """``parts`` with one more part i, weakly decreasing; a part 0 adds nothing."""
    return tuple(sorted(parts + (i,), reverse=True)) if i else parts


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
            if part in clean:
                raise BadChernData(f"two keys name the partition {part}")
            clean[part] = _integer(value, BadChernData)
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
            if (lam, mu) in clean:
                raise BadSplitChernData(f"two keys name the pair ({lam}, {mu})")
            clean[(lam, mu)] = _integer(value, BadSplitChernData)
        self.numbers = clean

    def __repr__(self):
        return (
            f"SplitChernData(dim0={self.dim0}, dim1={self.dim1}, "
            f"numbers={self.numbers})"
        )


def cp_chern(n: int) -> ChernData:
    """Chern numbers of CP^n: c_lam = prod_i binom(n+1, lam_i)."""
    return ChernData(n, {lam: prod(comb(n + 1, p) for p in lam) for lam in partitions_of(n)})


def chern_product(a: ChernData, b: ChernData) -> ChernData:
    """Chern numbers of a product manifold, by the Whitney formula.

    c_k(A x B) = sum_{i+j=k} c_i(A) c_j(B), so c_lam(A x B) sums
    c_{(i_t)}(A) c_{(j_t)}(B) over the splittings lam_t = i_t + j_t of its
    parts, and the Kunneth pairing keeps those whose A-parts sum to dim(A).
    The splittings are counted part by part, smallest first (small parts
    leave the fewest pairs), keyed by the pair of partitions they leave on
    A and on B, so splittings that leave the same pair are counted once.
    """
    dim = a.dim + b.dim
    numbers = {}
    for lam in partitions_of(dim):
        ways = {((), ()): 1}
        for p in reversed(lam):
            split: dict[tuple[Partition, Partition], int] = {}
            for (pa, pb), w in ways.items():
                for i in range(max(0, p - b.dim + sum(pb)), min(p, a.dim - sum(pa)) + 1):
                    key = (_with(pa, i), _with(pb, p - i))
                    split[key] = split.get(key, 0) + w
            ways = split
        numbers[lam] = sum(w * a.numbers.get(pa, 0) * b.numbers.get(pb, 0)
                           for (pa, pb), w in ways.items())
    return ChernData(dim, numbers)


def split_product(a: ChernData, b: ChernData) -> SplitChernData:
    """Split Chern data of A x B with T0 = TA, T1 = TB (pulled back)."""
    numbers = {}
    for lam, va in a.numbers.items():
        for mu, vb in b.numbers.items():
            numbers[(lam, mu)] = va * vb
    return SplitChernData(a.dim, b.dim, numbers)


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


def _newton_power_sum(k: int) -> dict[Partition, int]:
    """p_k in the elementary symmetric basis, by Newton's identities."""
    ps: list[dict[Partition, int]] = [dict() for _ in range(k + 1)]
    for m in range(1, k + 1):
        acc: dict[Partition, int] = {}
        for i in range(1, m):
            sign = (-1) ** (i - 1)
            for part, c in ps[m - i].items():
                key = _with(part, i)
                acc[key] = acc.get(key, 0) + sign * c
        sign = (-1) ** (m - 1)
        acc[(m,)] = acc.get((m,), 0) + sign * m
        ps[m] = acc
    return ps[k]


def multiplicative_class(ell: XQSeries, n: int) -> dict[Partition, QSeries]:
    """Degree-n piece of prod_i phi(x_i), in elementary symmetric basis.

    Returned as a dict from partitions of n (monomials: (2, 1) is c_2 c_1)
    to their q-series coefficients.  ``ell`` is l = log(phi), whose x^0
    coefficient is 0, read to x^n only.  The class is
    F = exp(A) with A = sum_k l_k p_k, and its pieces F_d of weight d
    follow from F' = A' F: d F_d = sum_{i=1}^{d} i l_i p_i F_{d-i}, with
    F_0 = 1, one q-series product l_i g per monomial g of F_{d-i}.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n == 0:
        return {(): QSeries.one(ell.level, ell.prec_q)}
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
    return K[n]


@functools.lru_cache(maxsize=None)
def _mclass(N: int, prec_q: int, n: int) -> dict[Partition, QSeries]:
    return multiplicative_class(log_phi_series(N, n + 1, prec_q), n)


def genus(M: ChernData, N: int, prec_q: int) -> QSeries:
    """The level-N complex elliptic genus of M as a q-expansion."""
    K = _mclass(N, prec_q, M.dim)
    result = QSeries.zero(N, prec_q)
    for part, value in M.numbers.items():
        if not value:
            continue
        coeff = K.get(part)
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
    result = PQSeries(N, prec_p, prec_q)
    for (lam, mu), value in X.numbers.items():
        if not value:
            continue
        a = _mclass(N, prec_p, sum(lam)).get(lam)
        b = _mclass(N, prec_q, sum(mu)).get(mu)
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
    em = exp_x(N, prec_x, prec_q, -1)
    ep = exp_x(N, prec_x, prec_q, +1)
    rhs = todd_series(N, prec_x, prec_q) * (1 + em * y)
    for n in range(1, prec_q):
        qn = QSeries(N, prec_q, [0] * n + [1])
        rhs = rhs * (1 + em * (qn * y))
        rhs = rhs * (1 + ep * (qn * y.inv()))
        rhs = rhs * (1 - ep * qn).inv() * (1 - em * qn).inv()
    return phi_series(N, prec_x, prec_q) * rhs[0] == rhs
