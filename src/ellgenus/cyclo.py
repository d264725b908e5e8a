"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) as
integer numerators over one positive common denominator, reduced modulo
the N-th cyclotomic polynomial.  The form is canonical: the denominator
and the numerators have gcd 1, and zero is all zeros over 1, so equal
elements have equal storage.  Phi_N is monic, so every power of zeta has
integer coordinates and products fold back through an integer table.  The
generator zeta_N is purely symbolic; no complex embedding enters any
computation.  A float embedding zeta_N -> exp(2*pi*i/N) is provided for
display only.

The module also implements the subring Z[1/N, zeta_N] ("N-integral"
elements) and canonical coset representatives modulo that subring.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from fractions import Fraction
from operator import mul

from .errors import LevelMismatch
from .linalg import _integer_echelon


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient of n; every level reaches it, so a level below 1 is refused here."""
    if n < 1:
        raise ValueError(f"level {n} is not positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division of integer polynomials, den monic up to sign of lead +-1
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] // lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the N-th cyclotomic polynomial Phi_N."""
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return (-1, 1)
    # Phi_N = (x^N - 1) / prod_{d | N, d < N} Phi_d
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    for d in range(1, N):
        if N % d == 0:
            num, rem = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            assert rem == [0]
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _power_table(N: int) -> list[tuple[int, ...]]:
    """zeta_N^j in the power basis, for j = 0 .. max(2*phi-2, N-1).

    Integral because Phi_N is monic.
    """
    phi = euler_phi(N)
    top = [-c for c in cyclotomic_poly(N)[:phi]]  # zeta^phi
    rows = [tuple(int(i == j) for j in range(phi)) for i in range(phi)]
    for _ in range(phi, max(2 * phi - 2, N - 1) + 1):
        prev = rows[-1]
        # multiply by zeta: shift, then fold the overflow via zeta^phi = top
        carry = prev[phi - 1]
        rows.append(tuple(s + carry * t for s, t in zip((0,) + prev[:-1], top)))
    return rows


_EXACT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _exact(value) -> Fraction:
    """A JSON integer or a "num/den" string as an exact rational.

    The string is an optional sign, ASCII digits and an optional "/" with
    more digits; nothing else is read.  JSON floats and booleans are
    refused with ValueError: a binary float is not the number its author
    wrote, and a boolean is not a number.  So are the decimal and exponent
    forms ``Fraction`` would accept: "1e4000000" would build a
    13-million-bit integer from nine bytes.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, str) and _EXACT_STRING.fullmatch(value)
    ):
        raise ValueError(f"{value!r} is not an exact number: use an integer or a 'num/den' string")
    return Fraction(value)


def _rational(value) -> Fraction:
    """A number given to a constructor: a Fraction or an int that is not a
    bool is read as itself, and a string by ``_exact``; anything else, a
    float above all, raises ValueError."""
    return value if isinstance(value, Fraction) else _exact(value)


def _integer(value, error=ValueError) -> int:
    """``value`` read by ``_rational``, as an exact integer; ``error`` if it is not one."""
    try:
        x = _rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(str(exc)) from None
    if x.denominator != 1:
        raise error(f"{value!r} is not an integer")
    return x.numerator


_new_object = object.__new__


def _make(level: int, num: tuple, den: int) -> "Cyclo":
    """The element num / den, already in canonical form."""
    self = _new_object(Cyclo)
    self.level = level
    self.num = num
    self.den = den
    return self


def _reduced(level: int, num: tuple, den: int) -> "Cyclo":
    """The element num / den for any den > 0, brought to canonical form."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    return _make(level, num, den)


class Cyclo:
    """An element of Q(zeta_N): sum(num[i] * zeta^i) / den.

    ``num`` is a tuple of phi(N) ints and ``den`` a positive int with
    gcd(den, *num) == 1; zero is all zeros over 1.  ``coords`` gives the
    same element as a tuple of Fractions.  The constructors read each
    number by ``_rational``, so a float is refused, not rounded.
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coords=None):
        phi = euler_phi(level)
        coords = [_rational(c) for c in coords] if coords is not None else []
        if len(coords) > phi:
            raise ValueError("too many coordinates for level")
        # Fractions are reduced, so the lcm of their denominators is the
        # reduced common denominator
        den = math.lcm(*(c.denominator for c in coords))
        num = [c.numerator * (den // c.denominator) for c in coords]
        self.level = level
        self.num = tuple(num) + (0,) * (phi - len(num))
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "Cyclo":
        """The root of unity zeta_level^power."""
        return _make(level, _power_table(level)[power % level], 1)

    @classmethod
    def from_rational(cls, level: int, value) -> "Cyclo":
        value = _rational(value)
        num = (value.numerator,) + (0,) * (euler_phi(level) - 1)
        return _make(level, num, value.denominator)

    def _scalar(self, x) -> "Cyclo":
        """The int or Fraction operand x at this level, as arithmetic reads it (True is 1)."""
        return _make(self.level, (x.numerator,) + (0,) * (len(self.num) - 1), x.denominator)

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.level != self.level:
                raise LevelMismatch(f"levels {self.level} and {other.level}")
            return other
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        da, db = self.den, o.den
        if da == db:
            num = tuple([a + b for a, b in zip(self.num, o.num)])
            return _reduced(self.level, num, da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        num = tuple([a * sa + b * sb for a, b in zip(self.num, o.num)])
        return _reduced(self.level, num, da * sa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.level, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        da, db = self.den, o.den
        if da == db:
            num = tuple([a - b for a, b in zip(self.num, o.num)])
            return _reduced(self.level, num, da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        num = tuple([a * sa - b * sb for a, b in zip(self.num, o.num)])
        return _reduced(self.level, num, da * sa)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _reduced(
                self.level, tuple([a * n for a in self.num]), self.den * other.denominator
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        an, bn = self.num, o.num
        if not any(an):
            return self
        if not any(bn):
            return o
        phi = len(an)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(an):
            if a:
                for j, b in enumerate(bn, i):
                    prod[j] += a * b
        out = prod[:phi]
        table = _power_table(self.level)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                out = [x + c * t for x, t in zip(out, table[k])]
        return _reduced(self.level, tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse by the Galois norm.

        With self = A / den, the conjugates sigma_k(A) (zeta -> zeta^k, k
        prime to N) multiply to the rational integer norm(A) = A * P for
        P = prod_{k != 1} sigma_k(A), so 1 / self = den * P / norm(A).
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        N = self.level
        phi = len(self.num)
        table = _power_table(N)
        product = _make(N, (1,) + (0,) * (phi - 1), 1)
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                conj = [0] * phi
                for i, a in enumerate(self.num):
                    if a:
                        conj = [x + a * t for x, t in zip(conj, table[i * k % N])]
                product = product * _make(N, tuple(conj), 1)
        norm = (product * _make(N, self.num, 1)).num
        assert not any(norm[1:])
        sign = 1 if norm[0] > 0 else -1
        return _reduced(N, tuple([sign * self.den * x for x in product.num]), abs(norm[0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (
            self.level == other.level and self.den == other.den and self.num == other.num
        )

    def __hash__(self):
        return hash((self.level, self.num, self.den))

    def rational_part(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def lift(self, new_level: int) -> "Cyclo":
        """Embed into Q(zeta_L) for N | L via zeta_N -> zeta_L^(L/N).

        One integer dot product per coordinate of Q(zeta_L) with a column
        of ``_lift_columns``.  The lift of a canonical element is canonical,
        with the same denominator, because Z[zeta_L] meets Q(zeta_N) in
        Z[zeta_N]: a prime p dividing den and every lifted numerator would
        put num / p in Z[zeta_L], so in Z[zeta_N], and p would divide every
        num[i] (the powers of zeta_N are a Z-basis), against gcd(den, *num)
        = 1.
        """
        if new_level == self.level:
            return self
        if new_level % self.level != 0:
            raise LevelMismatch(f"{self.level} does not divide {new_level}")
        num = self.num
        out = tuple([sum(map(mul, num, column)) for column in _lift_columns(self.level, new_level)])
        return _make(new_level, out, self.den)

    def to_complex(self) -> complex:
        """Display-only float embedding zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.level)
        return sum(float(a) * z**i for i, a in enumerate(self.coords))

    def serialize(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    @classmethod
    def deserialize(cls, level: int, data: list[str]) -> "Cyclo":
        """The element with the coordinates in the list ``data``, each read by ``_exact``."""
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"{data!r} is not a list of coordinates")
        return cls(level, [_exact(s) for s in data])

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coords):
            if a:
                terms.append(f"{a}" if i == 0 else f"{a}*z^{i}")
        return " + ".join(terms) if terms else "0"


@functools.lru_cache(maxsize=None)
def _lift_columns(n: int, L: int) -> tuple[tuple[int, ...], ...]:
    """Column j holds the zeta_L^j coordinates of 1, zeta_n, ..., zeta_n^(phi(n)-1), for n | L."""
    table = _power_table(L)
    step = L // n
    return tuple(zip(*(table[i * step] for i in range(euler_phi(n)))))


@functools.lru_cache(maxsize=None)
def _descent_echelon(L: int, n: int):
    """Integer-scaled tracked echelon of the power basis of Q(zeta_n) in Q(zeta_L).

    Returns (pivots, free, tags, scale).  With R the reduced echelon rows
    and T their tags over the images of 1, zeta_n, ..., scale * R and
    scale * T are integral; ``free`` holds (j, column j of scale * R) for
    every column j off the pivots, and ``tags`` the columns of scale * T.
    Both come from one integer echelon of the rows image_i || e_i: the
    images are independent, so every pivot lies in the first block, the
    second block carries the row transform, and ``scale`` is the common
    denominator.
    """
    table = _power_table(L)
    width, m = euler_phi(L), euler_phi(n)
    pivots, rows, scale = _integer_echelon(
        [list(table[i * (L // n)]) + [int(j == i) for j in range(m)] for i in range(m)]
    )

    def column(j):
        return tuple(row[j] for row in rows)

    free = [(j, column(j)) for j in range(width) if j not in pivots]
    return pivots, free, [column(width + i) for i in range(m)], scale


def _subfield_part(a: Cyclo, n: int) -> Cyclo:
    """The Q(zeta_n) part of a in Q(zeta_L), for n | L.

    In reduced echelon form the coordinates of a vector over the echelon
    rows are its entries at the pivot columns; their combination of the
    rows is a Q-linear projection of Q(zeta_L) onto Q(zeta_n), the
    identity on Q(zeta_n), and zero on the elements that vanish at every
    pivot column.
    """
    if n == a.level:
        return a
    pivots, _, tags, scale = _descent_echelon(a.level, n)
    coeffs = [a.num[p] for p in pivots]
    out = tuple([sum(map(mul, coeffs, column)) for column in tags])
    return _reduced(n, out, a.den * scale)


def descend(a: Cyclo, new_level: int) -> Cyclo | None:
    """Express a in Q(zeta_new_level) if possible, else None.

    Requires new_level | a.level.  a lies in the subfield iff its
    coordinates over the echelon rows (its pivot entries, see
    ``_subfield_part``) also reproduce every other column, that is iff
    ``_complement`` is zero.
    """
    L = a.level
    if new_level == L:
        return a
    if L % new_level != 0:
        raise LevelMismatch(f"{new_level} does not divide {L}")
    if any(_complement(a, new_level)):
        return None
    return _subfield_part(a, new_level)


def _complement(a: Cyclo, n: int) -> tuple[int, ...]:
    """Integer coordinates of a in Q(zeta_L) off the subfield Q(zeta_n), for n | L.

    One integer per free column of the descent echelon: scale * a.den times
    the defect of a there against the combination of the echelon rows its
    pivot entries give (see ``_subfield_part``).  The map is Q-linear up to
    the factor a.den, and its kernel is Q(zeta_n), so a lies in the subfield
    iff every entry is zero; at n = a.level there are none.
    """
    if n == a.level:
        return ()
    pivots, free, _, scale = _descent_echelon(a.level, n)
    num = a.num
    coeffs = [num[p] for p in pivots]
    return tuple([scale * num[j] - sum(map(mul, coeffs, column)) for j, column in free])


def _split_denominator(den: int, N: int) -> tuple[int, int]:
    """Split den = dN * d' with dN supported on primes of N, gcd(d', N) = 1."""
    dN = 1
    g = math.gcd(den, N)
    while g > 1:
        den //= g
        dN *= g
        g = math.gcd(den, N)
    return dN, den


def in_NZ(a: Cyclo) -> bool:
    """True iff a lies in Z[1/N, zeta_N].

    Z[zeta_N] is free on the power basis, so this holds iff every
    coordinate denominator is supported on primes of N; their lcm is the
    common denominator.
    """
    return _split_denominator(a.den, a.level)[1] == 1


class NZCoset:
    """Canonical representative of an element of Q(zeta_N) / Z[1/N, zeta_N].

    Every coordinate of ``rep`` lies in [0, 1) with denominator coprime
    to N, so the coset is trivial iff ``rep`` is syntactically zero.
    """

    __slots__ = ("level", "rep")

    def __init__(self, level: int, rep: Cyclo):
        self.level = level
        self.rep = rep

    def is_zero(self) -> bool:
        return not self.rep

    def __eq__(self, other):
        if not isinstance(other, NZCoset):
            return NotImplemented
        return self.level == other.level and self.rep == other.rep

    def __hash__(self):
        return hash((self.level, self.rep))

    def __repr__(self):
        return f"NZCoset({self.rep!r})"


@functools.lru_cache(maxsize=None)
def _zero_coset(N: int) -> NZCoset:
    """The zero coset at level N, one shared object: cosets are immutable."""
    return NZCoset(N, Cyclo.from_rational(N, 0))


def reduce_mod_NZ(a: Cyclo) -> NZCoset:
    """Canonical coset representative of a modulo Z[1/N, zeta_N].

    With den = dN * d (dN supported on primes of N, d prime to N), the
    representative of num / den is (num * dN^(-1) mod d) / d: it differs
    from a by an element of Z[1/N, zeta_N], and its coordinates lie in
    [0, 1) with denominators prime to N, which makes it unique.
    """
    N = a.level
    dN, d = _split_denominator(a.den, N)
    if d == 1:
        return _zero_coset(N)
    unit = pow(dN, -1, d)
    rep = _reduced(N, tuple([x * unit % d for x in a.num]), d)
    return NZCoset(N, rep)
