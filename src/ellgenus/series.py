"""Truncated formal power series over Q(zeta_N).

One ring, ``_Series``, holds ``coeffs``, the coefficients of t^0 ... t^(n-1),
and writes ``+``, ``-``, ``*``, ``inv``, ``==`` and ``hash`` once for three
carriers:

* QSeries   -- t = q, coefficients in Q(zeta_N),
* PQSeries  -- t = p, coefficients (the p-rows) QSeries in q: a rectangle,
* XQSeries  -- t = x, coefficients QSeries in q.

A carrier supplies only its truncation shape ``_shape()``, its zero
coefficient ``_zero``, ``_new(coeffs)`` (a series of its own shape) and
``_scalars``, the types that act coefficientwise (QSeries too for XQSeries).
Values are immutable, operations exact up to the truncation, storage dense.

Two kernels carry the arithmetic.  ``integers._product`` is the truncated
Cauchy product of every carrier and of the integer basis rows of ``modforms``.
``_recurrence`` is out[n] = step(n, acc_n), acc_n = sum_{k=1..n} a_k out_{n-k}:
inverse, exp and log are all this recurrence (Brent and Kung, J. ACM 1978).
The steps: ``inv`` -c_0^{-1} acc; ``XQSeries.exp`` acc/n on a_n = n A_n;
``XQSeries.log`` n F_n - acc on a = F, giving n A_n.
"""

from __future__ import annotations

import functools
import types
from fractions import Fraction
from math import comb, factorial

from .cyclo import Cyclo
from .errors import (
    BadConstantTerm,
    LevelMismatch,
    NonUnitConstantTerm,
    PrecMismatch,
)
from .integers import _product


def _recurrence(a, first, step, zero) -> list:
    """out[0] = first and out[n] = step(n, sum_{k=1..n} a_k out_{n-k}) for n < len(a)."""
    out = [first]
    for n in range(1, len(a)):
        acc = zero
        for k in range(1, n + 1):
            if a[k]:
                acc = acc + a[k] * out[n - k]
        out.append(step(n, acc))
    return out


def _as_cyclo(level: int, value) -> Cyclo:
    if isinstance(value, Cyclo):
        if value.level != level:
            raise LevelMismatch(f"levels {value.level} and {level}")
        return value
    return Cyclo.from_rational(level, value)


class _Series:
    """The ring of truncated series sum_n coeffs[n] t^n of one carrier.

    A scalar c acts as the constant series c: ``+`` adds it to the t^0
    coefficient and ``*`` multiplies every coefficient by it.
    """

    __slots__ = ("coeffs",)

    def __init_subclass__(cls):
        # Each carrier gets its own copy of the ring methods, named after it,
        # so profiles and the per-layer trace (which name a span by its
        # qualname) tell QSeries.__mul__ from XQSeries.__mul__.
        for name, fn in vars(_Series).items():
            if isinstance(fn, types.FunctionType):
                copy = types.FunctionType(fn.__code__, fn.__globals__)
                copy.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
                setattr(cls, name, copy)

    def _check(self, other):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        if self._shape() != other._shape():
            raise PrecMismatch(f"precisions {self._shape()} and {other._shape()}")

    def _coerce(self, other):
        if type(other) is type(self):
            self._check(other)
            return other
        if isinstance(other, self._scalars):
            return self._new((self._zero + other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self._new([-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new([a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self._new([a * other for a in self.coeffs])
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._new(_product(self.coeffs, other.coeffs, self._zero))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; needs the t^0 coefficient invertible."""
        c0 = self.coeffs[0]
        if not c0:
            raise NonUnitConstantTerm("constant term is zero")
        c0inv = c0.inv()
        return self._new(_recurrence(self.coeffs, c0inv, lambda n, acc: -(c0inv * acc), self._zero))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, self._scalars):
            try:
                other = self._new((self._zero + other,))
            except (LevelMismatch, PrecMismatch):
                return False  # a scalar of another level or shape is another value
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs  # the coefficients fix level and shape

    def __hash__(self):
        # a series with no terms past t^0 equals that scalar, so it hashes as that
        if any(self.coeffs[1:]):
            return hash((self.level, self._shape(), self.coeffs))
        return hash(self.coeffs[0])


class QSeries(_Series):
    """Truncated power series sum_{n < prec} a_n q^n with a_n in Q(zeta_N)."""

    __slots__ = ("level", "prec")
    _scalars = (int, Fraction, Cyclo)

    def __init__(self, level: int, prec: int, coeffs=()):
        if prec < 1:
            raise ValueError("prec must be >= 1")
        coeffs = tuple(_as_cyclo(level, c) for c in coeffs)
        if len(coeffs) > prec:
            coeffs = coeffs[:prec]
        zero = Cyclo(level)
        if len(coeffs) < prec:
            coeffs = coeffs + (zero,) * (prec - len(coeffs))
        self.level = level
        self.prec = prec
        self.coeffs = coeffs

    def _shape(self) -> int:
        return self.prec

    @property
    def _zero(self) -> Cyclo:
        return Cyclo(self.level)

    def _new(self, coeffs) -> "QSeries":
        return QSeries(self.level, self.prec, coeffs)

    @classmethod
    def one(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec, (Cyclo.from_rational(level, 1),))

    @classmethod
    def zero(cls, level: int, prec: int) -> "QSeries":
        return cls(level, prec)

    @classmethod
    def constant(cls, level: int, prec: int, value) -> "QSeries":
        return cls(level, prec, (_as_cyclo(level, value),))

    def __getitem__(self, n: int) -> Cyclo:
        return self.coeffs[n]

    def truncate(self, new_prec: int) -> "QSeries":
        if new_prec > self.prec:
            raise PrecMismatch("cannot extend precision")
        return QSeries(self.level, new_prec, self.coeffs[:new_prec])

    def lift(self, new_level: int) -> "QSeries":
        return QSeries(new_level, self.prec, tuple(c.lift(new_level) for c in self.coeffs))

    def serialize(self) -> list[list[str]]:
        return [c.serialize() for c in self.coeffs]

    @classmethod
    def deserialize(cls, level: int, data: list[list[str]]) -> "QSeries":
        return cls(level, len(data), [Cyclo.deserialize(level, c) for c in data])

    def __repr__(self):
        parts = [f"({c!r})q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{self.prec})>"


class PQSeries(_Series):
    """Truncated series in (p, q): a series in p whose coefficients, the p-rows, are QSeries.

    ``coeffs[i]`` is the p^i row, a QSeries in q at precision prec_q, and
    ``F[i, j]`` its coefficient of q^j.  A QSeries row of another
    q-precision raises PrecMismatch; a list row is cut or padded.
    """

    __slots__ = ("level", "prec_p", "prec_q")
    _scalars = (int, Fraction, Cyclo)

    def __init__(self, level: int, prec_p: int, prec_q: int, rows=None):
        if prec_p < 1 or prec_q < 1:
            raise ValueError("precisions must be >= 1")
        rows = list(rows or ())[:prec_p]
        rows += [()] * (prec_p - len(rows))
        if any(isinstance(r, QSeries) and r.prec != prec_q for r in rows):
            raise PrecMismatch(f"a p-row is not at q-precision {prec_q}")
        self.level = level
        self.prec_p = prec_p
        self.prec_q = prec_q
        self.coeffs = tuple(
            r if isinstance(r, QSeries) and (r.level, r.prec) == (level, prec_q)
            else QSeries(level, prec_q, r)
            for r in rows
        )

    def _shape(self) -> tuple[int, int]:
        return (self.prec_p, self.prec_q)

    @property
    def _zero(self) -> QSeries:
        return QSeries.zero(self.level, self.prec_q)

    def _new(self, rows) -> "PQSeries":
        return PQSeries(self.level, self.prec_p, self.prec_q, rows)

    @classmethod
    def outer(cls, fp: QSeries, fq: QSeries) -> "PQSeries":
        """The product fp(p) * fq(q) as a rectangle."""
        if fp.level != fq.level:
            raise LevelMismatch(f"levels {fp.level} and {fq.level}")
        return cls(fp.level, fp.prec, fq.prec, [fq * a for a in fp.coeffs])

    def __getitem__(self, ij) -> Cyclo:
        i, j = ij
        return self.coeffs[i][j]

    def p_row(self, i: int) -> QSeries:
        """The coefficient of p^i as a series in q."""
        return self.coeffs[i]

    def q_column(self, j: int) -> QSeries:
        """The coefficient of q^j as a series in p."""
        return QSeries(self.level, self.prec_p, [r[j] for r in self.coeffs])

    def serialize(self) -> list[list[list[str]]]:
        return [r.serialize() for r in self.coeffs]

    @classmethod
    def deserialize(cls, level: int, data) -> "PQSeries":
        rows = [QSeries.deserialize(level, row) for row in data]
        if any(r.prec != rows[0].prec for r in rows):
            raise ValueError("rows differ in length")
        return cls(level, len(rows), rows[0].prec if rows else 0, rows)

    def __repr__(self):
        return f"<PQSeries {self.prec_p}x{self.prec_q} over Q(zeta_{self.level})>"


def project_q0(s: PQSeries) -> QSeries:
    """The q -> 0 specialization: the j = 0 slice, read as a series in p."""
    return s.q_column(0)


class XQSeries(_Series):
    """Polynomial in x truncated at x^prec_x, coefficients QSeries."""

    __slots__ = ("prec_x",)
    _scalars = (int, Fraction, Cyclo, QSeries)

    def __init__(self, coeffs: list[QSeries], prec_x: int | None = None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        level, prec = coeffs[0].level, coeffs[0].prec
        if prec_x is None:
            prec_x = len(coeffs)
        if prec_x < 1:
            raise ValueError("prec_x must be >= 1")
        if len(coeffs) > prec_x:
            coeffs = coeffs[:prec_x]
        while len(coeffs) < prec_x:
            coeffs.append(QSeries.zero(level, prec))
        for c in coeffs:
            if c.level != level:
                raise LevelMismatch("mixed levels in XQSeries")
            if c.prec != prec:
                raise PrecMismatch("mixed q-precisions in XQSeries")
        self.prec_x = prec_x
        self.coeffs = tuple(coeffs)

    @property
    def level(self) -> int:
        return self.coeffs[0].level

    @property
    def prec_q(self) -> int:
        return self.coeffs[0].prec

    def _shape(self) -> tuple[int, int]:
        return (self.prec_x, self.prec_q)

    @property
    def _zero(self) -> QSeries:
        return QSeries.zero(self.level, self.prec_q)

    def _new(self, coeffs) -> "XQSeries":
        return XQSeries(coeffs, self.prec_x)

    @classmethod
    def from_x_poly(cls, level: int, prec_x: int, prec_q: int, coeffs) -> "XQSeries":
        """Build from scalar x-coefficients (ints, Fractions, or Cyclo)."""
        return cls([QSeries.constant(level, prec_q, c) for c in coeffs], prec_x)

    def __getitem__(self, n: int) -> QSeries:
        return self.coeffs[n]

    def exp(self) -> "XQSeries":
        """exp of an element with zero x^0 coefficient: d F_d = sum_{i<=d} i A_i F_{d-i}."""
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp needs x^0 coefficient 0")
        dA = [a * i for i, a in enumerate(self.coeffs)]
        one = QSeries.one(self.level, self.prec_q)
        F = _recurrence(dA, one, lambda n, acc: acc * Fraction(1, n), self._zero)
        return XQSeries(F, self.prec_x)

    def log(self) -> "XQSeries":
        """log of an element with x^0 coefficient 1: the recurrence of ``exp`` solved for A."""
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs x^0 coefficient 1")
        F = self.coeffs
        zero = self._zero
        dA = _recurrence(F, zero, lambda n, acc: F[n] * n - acc, zero)
        return XQSeries(
            [zero] + [dA[n] * Fraction(1, n) for n in range(1, self.prec_x)], self.prec_x
        )

    def __repr__(self):
        return (
            f"<XQSeries prec_x={self.prec_x} prec_q={self.prec_q} "
            f"level={self.level}>"
        )


@functools.lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def todd_coefficients(prec_x: int) -> list[Fraction]:
    """Coefficients of x/(1 - e^{-x}) = sum_k (-1)^k B_k x^k / k! up to x^(prec_x - 1)."""
    if prec_x < 1:
        raise ValueError("prec_x must be >= 1")
    return [(-1) ** k * bernoulli_number(k) / factorial(k) for k in range(prec_x)]


def todd_series(level: int, prec_x: int, prec_q: int) -> XQSeries:
    """The Todd series x/(1 - e^{-x}) as an XQSeries (constant in q)."""
    return XQSeries.from_x_poly(level, prec_x, prec_q, todd_coefficients(prec_x))


def exp_x(level: int, prec_x: int, prec_q: int, sign: int = 1) -> XQSeries:
    """e^{x} (sign=+1) or e^{-x} (sign=-1) as an XQSeries constant in q."""
    fact = Fraction(1)
    coeffs = [Fraction(1)]
    for k in range(1, prec_x):
        fact *= k
        coeffs.append(Fraction(sign**k, 1) / fact)
    return XQSeries.from_x_poly(level, prec_x, prec_q, coeffs)
