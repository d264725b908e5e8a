"""Truncated formal power series over Q(zeta_N).

Three carriers:

* QSeries   -- series in one variable q, coefficients in Q(zeta_N),
* PQSeries  -- series in two variables (p, q) truncated to a rectangle,
* XQSeries  -- polynomial truncation in x with QSeries coefficients.

All values are immutable and all operations are exact up to the stated
truncation order.  Storage is dense: the series arising here (Eisenstein
series, genus expansions) are dense in practice.

Two kernels carry the arithmetic for every element type (Cyclo, QSeries,
Fraction, int).  ``_product`` is the truncated Cauchy product of
``QSeries``, ``XQSeries``, ``PQSeries`` (over its p-rows) and the integer
basis rows of ``modforms``.  ``_recurrence`` is out[n] = step(n, acc_n),
acc_n = sum_{k=1..n} a_k out_{n-k}: inverse, exp and log are all this
recurrence (Brent and Kung, J. ACM 1978).  The steps: ``QSeries.inv`` and
``XQSeries.inv`` -c_0^{-1} acc; ``todd_coefficients`` -acc; ``XQSeries.exp``
acc/n on a_n = n A_n; ``XQSeries.log`` n F_n - acc on a = F, giving n A_n.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclo
from .errors import (
    BadConstantTerm,
    LevelMismatch,
    NonUnitConstantTerm,
    PrecMismatch,
)


def _product(a, b, zero) -> list:
    """out[n] = sum_{i+j=n} a_i b_j for n < len(a); b has at least len(a) terms."""
    out = [zero] * len(a)
    for i, x in enumerate(a):
        if x:
            out[i:] = [s + x * y if y else s for s, y in zip(out[i:], b)]
    return out


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


class QSeries:
    """Truncated power series sum_{n < prec} a_n q^n with a_n in Q(zeta_N)."""

    __slots__ = ("level", "prec", "coeffs")

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

    def _check(self, other: "QSeries"):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        if self.prec != other.prec:
            raise PrecMismatch(f"precisions {self.prec} and {other.prec}")

    def _coerce(self, other):
        if isinstance(other, QSeries):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return QSeries.constant(self.level, self.prec, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSeries(
            self.level, self.prec, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.level, self.prec, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSeries(
            self.level, self.prec, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = _as_cyclo(self.level, other)
            return QSeries(self.level, self.prec, tuple(a * c for a in self.coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        return QSeries(
            self.level, self.prec, _product(self.coeffs, other.coeffs, Cyclo(self.level))
        )

    __rmul__ = __mul__

    def inv(self) -> "QSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise NonUnitConstantTerm("constant term is zero")
        c0inv = c0.inv()
        out = _recurrence(self.coeffs, c0inv, lambda n, acc: -c0inv * acc, Cyclo(self.level))
        return QSeries(self.level, self.prec, out)

    def truncate(self, new_prec: int) -> "QSeries":
        if new_prec > self.prec:
            raise PrecMismatch("cannot extend precision")
        return QSeries(self.level, new_prec, self.coeffs[:new_prec])

    def shift(self, t: int) -> "QSeries":
        """Substitute q -> q^t, for t >= 1."""
        if t < 1:
            raise ValueError(f"shift needs t >= 1, got {t}")
        out = [Cyclo(self.level)] * self.prec
        out[::t] = self.coeffs[: -(-self.prec // t)]
        return QSeries(self.level, self.prec, out)

    def lift(self, new_level: int) -> "QSeries":
        return QSeries(new_level, self.prec, tuple(c.lift(new_level) for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = QSeries.constant(self.level, self.prec, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, self.prec, self.coeffs))

    def serialize(self) -> list[list[str]]:
        return [c.serialize() for c in self.coeffs]

    @classmethod
    def deserialize(cls, level: int, data: list[list[str]]) -> "QSeries":
        return cls(level, len(data), [Cyclo.deserialize(level, c) for c in data])

    def __repr__(self):
        parts = [f"({c!r})q^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{self.prec})>"


class PQSeries:
    """Truncated series in (p, q): rectangle of coefficients of p^i q^j."""

    __slots__ = ("level", "prec_p", "prec_q", "rows")

    def __init__(self, level: int, prec_p: int, prec_q: int, rows=None):
        if prec_p < 1 or prec_q < 1:
            raise ValueError("precisions must be >= 1")
        zero = Cyclo(level)
        if rows is None:
            rows = [[zero] * prec_q for _ in range(prec_p)]
        full = []
        for i in range(prec_p):
            row = list(rows[i]) if i < len(rows) else []
            row = [_as_cyclo(level, c) for c in row[:prec_q]]
            row += [zero] * (prec_q - len(row))
            full.append(tuple(row))
        self.level = level
        self.prec_p = prec_p
        self.prec_q = prec_q
        self.rows = tuple(full)

    @classmethod
    def constant(cls, level: int, prec_p: int, prec_q: int, value) -> "PQSeries":
        out = cls(level, prec_p, prec_q)
        rows = [list(r) for r in out.rows]
        rows[0][0] = _as_cyclo(level, value)
        return cls(level, prec_p, prec_q, rows)

    @classmethod
    def outer(cls, fp: QSeries, fq: QSeries) -> "PQSeries":
        """The product fp(p) * fq(q) as a rectangle."""
        if fp.level != fq.level:
            raise LevelMismatch(f"levels {fp.level} and {fq.level}")
        rows = [[a * b for b in fq.coeffs] for a in fp.coeffs]
        return cls(fp.level, fp.prec, fq.prec, rows)

    def __getitem__(self, ij) -> Cyclo:
        i, j = ij
        return self.rows[i][j]

    def _check(self, other: "PQSeries"):
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        if self.prec_p != other.prec_p or self.prec_q != other.prec_q:
            raise PrecMismatch("rectangle sizes differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = PQSeries.constant(self.level, self.prec_p, self.prec_q, other)
        if not isinstance(other, PQSeries):
            return NotImplemented
        self._check(other)
        rows = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ]
        return PQSeries(self.level, self.prec_p, self.prec_q, rows)

    __radd__ = __add__

    def __neg__(self):
        rows = [[-a for a in r] for r in self.rows]
        return PQSeries(self.level, self.prec_p, self.prec_q, rows)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PQSeries) else -_as_cyclo(self.level, other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            c = _as_cyclo(self.level, other)
            rows = [[a * c for a in r] for r in self.rows]
            return PQSeries(self.level, self.prec_p, self.prec_q, rows)
        if not isinstance(other, PQSeries):
            return NotImplemented
        self._check(other)
        rows = _product(
            [self.p_row(i) for i in range(self.prec_p)],
            [other.p_row(i) for i in range(self.prec_p)],
            QSeries.zero(self.level, self.prec_q),
        )
        return PQSeries(self.level, self.prec_p, self.prec_q, [r.coeffs for r in rows])

    __rmul__ = __mul__

    def p_row(self, i: int) -> QSeries:
        """The coefficient of p^i as a series in q."""
        return QSeries(self.level, self.prec_q, self.rows[i])

    def q_column(self, j: int) -> QSeries:
        """The coefficient of q^j as a series in p."""
        return QSeries(self.level, self.prec_p, tuple(r[j] for r in self.rows))

    def transpose(self) -> "PQSeries":
        rows = [
            [self.rows[i][j] for i in range(self.prec_p)] for j in range(self.prec_q)
        ]
        return PQSeries(self.level, self.prec_q, self.prec_p, rows)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, PQSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.prec_p == other.prec_p
            and self.prec_q == other.prec_q
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.level, self.prec_p, self.prec_q, self.rows))

    def serialize(self) -> list[list[list[str]]]:
        return [[c.serialize() for c in row] for row in self.rows]

    @classmethod
    def deserialize(cls, level: int, data) -> "PQSeries":
        rows = [[Cyclo.deserialize(level, c) for c in row] for row in data]
        return cls(level, len(data), len(data[0]) if data else 0, rows)

    def __repr__(self):
        return f"<PQSeries {self.prec_p}x{self.prec_q} over Q(zeta_{self.level})>"


def project_q0(s: PQSeries) -> QSeries:
    """The q -> 0 specialization: the j = 0 slice, read as a series in p."""
    return s.q_column(0)


class XQSeries:
    """Polynomial in x truncated at x^prec_x, coefficients QSeries."""

    __slots__ = ("prec_x", "coeffs")

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

    @classmethod
    def one(cls, level: int, prec_x: int, prec_q: int) -> "XQSeries":
        return cls([QSeries.one(level, prec_q)], prec_x)

    @classmethod
    def zero(cls, level: int, prec_x: int, prec_q: int) -> "XQSeries":
        return cls([QSeries.zero(level, prec_q)], prec_x)

    @classmethod
    def from_x_poly(cls, level: int, prec_x: int, prec_q: int, coeffs) -> "XQSeries":
        """Build from scalar x-coefficients (ints, Fractions, or Cyclo)."""
        return cls(
            [QSeries.constant(level, prec_q, c) for c in coeffs], prec_x
        )

    def __getitem__(self, n: int) -> QSeries:
        return self.coeffs[n]

    def _check(self, other: "XQSeries"):
        if self.level != other.level:
            raise LevelMismatch("levels differ")
        if self.prec_x != other.prec_x or self.prec_q != other.prec_q:
            raise PrecMismatch("truncations differ")

    def _coerce(self, other):
        if isinstance(other, XQSeries):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return XQSeries(
                [QSeries.constant(self.level, self.prec_q, other)], self.prec_x
            )
        if isinstance(other, QSeries):
            return XQSeries([other], self.prec_x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return XQSeries(
            [a + b for a, b in zip(self.coeffs, o.coeffs)], self.prec_x
        )

    __radd__ = __add__

    def __neg__(self):
        return XQSeries([-a for a in self.coeffs], self.prec_x)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return XQSeries(
            [a - b for a, b in zip(self.coeffs, o.coeffs)], self.prec_x
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo, QSeries)):
            c = other
            return XQSeries([a * c for a in self.coeffs], self.prec_x)
        if not isinstance(other, XQSeries):
            return NotImplemented
        self._check(other)
        zero = QSeries.zero(self.level, self.prec_q)
        return XQSeries(_product(self.coeffs, other.coeffs, zero), self.prec_x)

    __rmul__ = __mul__

    def inv(self) -> "XQSeries":
        """Inverse; needs the x^0 coefficient invertible as a QSeries."""
        c0inv = self.coeffs[0].inv()
        zero = QSeries.zero(self.level, self.prec_q)
        out = _recurrence(self.coeffs, c0inv, lambda n, acc: -(c0inv * acc), zero)
        return XQSeries(out, self.prec_x)

    def exp(self) -> "XQSeries":
        """exp of an element with zero x^0 coefficient: d F_d = sum_{i<=d} i A_i F_{d-i}."""
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp needs x^0 coefficient 0")
        dA = [a * i for i, a in enumerate(self.coeffs)]
        one, zero = QSeries.one(self.level, self.prec_q), QSeries.zero(self.level, self.prec_q)
        F = _recurrence(dA, one, lambda n, acc: acc * Fraction(1, n), zero)
        return XQSeries(F, self.prec_x)

    def log(self) -> "XQSeries":
        """log of an element with x^0 coefficient 1: the recurrence of ``exp`` solved for A."""
        one = QSeries.one(self.level, self.prec_q)
        if self.coeffs[0] != one:
            raise BadConstantTerm("log needs x^0 coefficient 1")
        F = self.coeffs
        zero = QSeries.zero(self.level, self.prec_q)
        dA = _recurrence(F, zero, lambda n, acc: F[n] * n - acc, zero)
        return XQSeries(
            [zero] + [dA[n] * Fraction(1, n) for n in range(1, self.prec_x)], self.prec_x
        )

    def __eq__(self, other):
        if not isinstance(other, XQSeries):
            return NotImplemented
        return self.prec_x == other.prec_x and self.coeffs == other.coeffs

    def __repr__(self):
        return (
            f"<XQSeries prec_x={self.prec_x} prec_q={self.prec_q} "
            f"level={self.level}>"
        )


def todd_coefficients(prec_x: int) -> list[Fraction]:
    """Coefficients of x/(1 - e^{-x}) up to x^(prec_x - 1).

    Computed by inverting (1 - e^{-x})/x, whose x^k coefficient is
    (-1)^k / (k+1)!.  Equivalent to the Bernoulli-number expansion with
    the B_1 = +1/2 sign.
    """
    if prec_x < 1:
        raise ValueError("prec_x must be >= 1")
    fact = [Fraction(1)]
    for k in range(1, prec_x + 1):
        fact.append(fact[-1] * k)
    g = [Fraction((-1) ** k, 1) / fact[k + 1] for k in range(prec_x)]
    # series inverse of g (g[0] = 1)
    return _recurrence(g, Fraction(1), lambda n, acc: -acc, Fraction(0))


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
