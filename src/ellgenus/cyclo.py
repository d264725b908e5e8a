"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1), with
Fraction coordinates, reduced modulo the N-th cyclotomic polynomial.  The
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
from fractions import Fraction

from .errors import LevelMismatch
from .linalg import eliminate, rref_tracked


def euler_phi(n: int) -> int:
    """Euler totient of n."""
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
def _power_table(N: int) -> list[tuple[Fraction, ...]]:
    """zeta_N^j in the power basis, for j = 0 .. max(2*phi-2, N-1)."""
    phi = euler_phi(N)
    cyc = cyclotomic_poly(N)
    top = [-Fraction(c) for c in cyc[:phi]]  # zeta^phi, since Phi_N is monic
    rows: list[tuple[Fraction, ...]] = []
    for i in range(phi):
        row = [Fraction(0)] * phi
        row[i] = Fraction(1)
        rows.append(tuple(row))
    limit = max(2 * phi - 2, N - 1)
    for _ in range(phi, limit + 1):
        prev = rows[-1]
        # multiply by zeta: shift, then fold the overflow via zeta^phi = top
        carry = prev[phi - 1]
        row = [Fraction(0)] + list(prev[:-1])
        if carry:
            row = [row[i] + carry * top[i] for i in range(phi)]
        rows.append(tuple(row))
    return rows


class Cyclo:
    """An element of Q(zeta_N) in the power basis."""

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords=None):
        phi = euler_phi(level)
        if coords is None:
            coords = ()
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) > phi:
            raise ValueError("too many coordinates for level")
        if len(coords) < phi:
            coords = coords + (Fraction(0),) * (phi - len(coords))
        self.level = level
        self.coords = coords

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "Cyclo":
        """The root of unity zeta_level^power."""
        power %= level
        table = _power_table(level)
        return cls(level, table[power])

    @classmethod
    def from_rational(cls, level: int, value) -> "Cyclo":
        return cls(level, (Fraction(value),))

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.level != self.level:
                raise LevelMismatch(f"levels {self.level} and {other.level}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_rational(self.level, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.level, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.level, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.level, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi = len(self.coords)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    prod[i + j] += a * b
        table = _power_table(self.level)
        out = list(prod[:phi])
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                row = table[k]
                for i in range(phi):
                    out[i] += c * row[i]
        return Cyclo(self.level, out)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse via extended gcd with Phi_N over Q[x]."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        # extended Euclid on (a, Phi_N); gcd is a nonzero constant
        r0 = [Fraction(c) for c in cyclotomic_poly(self.level)]
        r1 = list(self.coords)
        while len(r1) > 1 and not r1[-1]:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0]:
            q, r = _poly_divmod_frac(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
            if len(r0) == 1 and r0[0]:
                break
        c = r0[0]
        coeffs = [x / c for x in s0]
        phi = len(self.coords)
        if len(coeffs) < phi:
            coeffs += [Fraction(0)] * (phi - len(coeffs))
        result = Cyclo(self.level, coeffs[:phi])
        return result

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
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(self.level, other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.level == other.level and self.coords == other.coords

    def __hash__(self):
        return hash((self.level, self.coords))

    def rational_part(self) -> Fraction:
        return self.coords[0]

    def lift(self, new_level: int) -> "Cyclo":
        """Embed into Q(zeta_L) for N | L via zeta_N -> zeta_L^(L/N)."""
        if new_level == self.level:
            return self
        if new_level % self.level != 0:
            raise LevelMismatch(f"{self.level} does not divide {new_level}")
        step = new_level // self.level
        table = _power_table(new_level)
        phi_new = euler_phi(new_level)
        out = [Fraction(0)] * phi_new
        for i, a in enumerate(self.coords):
            if a:
                row = table[(i * step) % new_level]
                for j in range(phi_new):
                    out[j] += a * row[j]
        return Cyclo(new_level, out)

    def to_complex(self) -> complex:
        """Display-only float embedding zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.level)
        return sum(float(a) * z**i for i, a in enumerate(self.coords))

    def serialize(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    @classmethod
    def deserialize(cls, level: int, data: list[str]) -> "Cyclo":
        return cls(level, [Fraction(s) for s in data])

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coords):
            if a:
                terms.append(f"{a}" if i == 0 else f"{a}*z^{i}")
        return " + ".join(terms) if terms else "0"


def _poly_divmod_frac(num, den):
    num = list(num)
    dn = len(den)
    while dn > 1 and not den[dn - 1]:
        dn -= 1
    den = den[:dn]
    if len(num) < dn:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dn + 1)
    lead = den[-1]
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1] / lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@functools.lru_cache(maxsize=None)
def _descent_echelon(L: int, n: int):
    """Tracked echelon of the image of the power basis of Q(zeta_n) in Q(zeta_L)."""
    basis = [Cyclo.zeta(L, i * (L // n)).coords for i in range(euler_phi(n))]
    return rref_tracked(basis)


def descend(a: Cyclo, new_level: int) -> Cyclo | None:
    """Express a in Q(zeta_new_level) if possible, else None.

    Requires new_level | a.level; solves for coordinates over the image
    of the smaller power basis under zeta_new -> zeta_L^(L/new).
    """
    L = a.level
    if new_level == L:
        return a
    if L % new_level != 0:
        raise LevelMismatch(f"{new_level} does not divide {L}")
    pivots, rows, tags = _descent_echelon(L, new_level)
    residual, coeffs = eliminate(a.coords, pivots, rows)
    if any(residual):
        return None
    return Cyclo(new_level, [sum(c * t for c, t in zip(coeffs, column))
                             for column in zip(*tags)])


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

    Valid coordinatewise because Z[zeta_N] is free on the power basis.
    """
    N = a.level
    for c in a.coords:
        _, coprime = _split_denominator(c.denominator, N)
        if coprime != 1:
            return False
    return True


def _reduce_coord(r: Fraction, N: int) -> Fraction:
    dN, d = _split_denominator(r.denominator, N)
    if d == 1:
        return Fraction(0)
    # unique c/d in [0,1) with r - c/d in Z[1/N]: c = a * dN^(-1) mod d
    c = (r.numerator * pow(dN, -1, d)) % d
    return Fraction(c, d)


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


def reduce_mod_NZ(a: Cyclo) -> NZCoset:
    """Canonical coset representative of a modulo Z[1/N, zeta_N]."""
    rep = Cyclo(a.level, [_reduce_coord(c, a.level) for c in a.coords])
    return NZCoset(a.level, rep)
