"""Integer helpers below every other layer: factoring, Euler's totient,
the N-part of a denominator, the truncated Cauchy product and the exact
integer reader.  A certified basis is an integer object, so a basis job
runs on this module, ``linalg`` and ``modforms`` alone.
"""

import functools
import math
import re

from .errors import SIZE_BOUND, TooLarge

_DIGITS = re.compile(r"[+-]?[0-9]+")


@functools.lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e), p ascending, with p^e exactly dividing n >= 1; O(sqrt(n)).

    n above SIZE_BOUND^2 raises TooLarge before the first division, which
    refuses no command that runs: past N = 10^5 every estimate is above the
    bound (a basis of weight >= 1 at 0.05 N^2, the field at N phi(N) >=
    N^1.5 / sqrt(2), the lower bound the message names).
    """
    if n > SIZE_BOUND**2:
        raise TooLarge(f"work at level {n}", n * math.isqrt(n // 2))
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out) + (((n, 1),) if n > 1 else ())


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, prod p^(e-1) (p-1); every level reaches it, so a level below 1 is refused."""
    if n < 1:
        raise ValueError(f"level {n} is not positive")
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _prime_factors(n))


def _split_denominator(den: int, N: int) -> tuple[int, int]:
    """Split den = dN * d' with dN supported on primes of N, gcd(d', N) = 1."""
    dN = 1
    g = math.gcd(den, N)
    while g > 1:
        den //= g
        dN *= g
        g = math.gcd(den, N)
    return dN, den


def _product(a, b, zero) -> list:
    """out[n] = sum_{i+j=n} a_i b_j for n < len(a); b has at least len(a) terms."""
    out = [zero] * len(a)
    for i, x in enumerate(a):
        if x:
            out[i:] = [s + x * y if y else s for s, y in zip(out[i:], b)]
    return out


def _integer(value, error=ValueError) -> int:
    """``value`` read by ``cyclo._rational``, as an exact integer; ``error`` if it is not one.

    An int (not a bool) is returned as is, a signed ASCII digit string is read by
    ``int``; only other forms ("24/2", a Fraction) load ``cyclo``.
    """
    if type(value) is int:
        return value
    try:
        if type(value) is str and _DIGITS.fullmatch(value):
            return int(value)
        from .cyclo import _rational
        x = _rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(str(exc)) from None
    if x.denominator != 1:
        raise error(f"{value!r} is not an integer")
    return x.numerator
