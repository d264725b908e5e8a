"""q-expansion bases of M_k(Gamma_1(N)).

Bases are certified against the standard dimension formulas for the
torsion-free groups Gamma_1(N), N >= 4.  Every basis is the integer
echelon over Q (``linalg._integer_echelon``) of one rational pool of
integer rows, built from divisor sums and products alone.  At weight 1
it holds Hecke's series (Hecke 1927; Diamond--Shurman 4.8, the
G_1^{(c,0)}(N tau) up to scale), for c = 1 .. (N-1)/2,

    E1_c = (1/2 - c/N) + sum_{n >= 1} (#{d | n : d = c} - #{d | n : d = -c}) q^n,

congruences mod N.  At weight k >= 2 it holds the products of the weight-1
basis with the weight-(k-1) basis.  At N = 4, whose cusp 1/2 is
irregular, it holds instead E_2(q) - t E_2(q^t), t | N, t > 1, at weight
2, and the products of the weight-2 basis with the weight-(k-2) basis
above it.  The bases of one level and precision form a chain that one
loop in ``weight_basis`` grows weight by weight from 0, after a closed-form
estimate of the whole chain against ``errors.SIZE_BOUND``.
Building, certifying and serializing a basis needs no field element, so
``cyclo`` and ``series`` load only at the first read of ``elements``.
"""

from __future__ import annotations

import json
import math
import threading
from math import gcd
from operator import mul

from .errors import (
    SIZE_BOUND,
    LevelMismatch,
    NotEchelon,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    TooLarge,
    UnsupportedLevel,
)
from .integers import _prime_factors, _product, _split_denominator, euler_phi
from .linalg import _integer_echelon


def unit_group_exponent(M: int) -> int:
    """The exponent of (Z/M)^*, Carmichael's lambda: lcm of phi(p^e), but 2^(e-2) at 2^e, e > 2."""
    factors = _prime_factors(M)
    return math.lcm(*(2 ** (e - 2) if p == 2 and e > 2 else euler_phi(p**e) for p, e in factors))


def ambient_field_level(N: int) -> int:
    """L = lcm(N, exponent of (Z/N)^*), the field of the characters mod N.

    The pool of every basis is rational and needs no character.  L is the
    field that a basis of level N is serialized over (``field_level``) and
    its ``elements`` view lives in.
    """
    return math.lcm(N, unit_group_exponent(N))


def _gamma1_index(N: int) -> int:
    """[SL_2(Z) : Gamma_1(N)], the pairs (c, d) mod N with gcd(c, d, N) = 1:
    N^2 prod_{p | N} (1 - p^-2)."""
    factors = _prime_factors(N)
    return N * N // math.prod(p * p for p, _ in factors) * math.prod(p * p - 1 for p, _ in factors)


def _cusp_counts(N: int) -> tuple[int, int, int]:
    """(total, regular, irregular) cusps of Gamma_1(N), N >= 4; 2 total is
    sum_{d | N} phi(d) phi(N/d), multiplicative in N, so a product over p^e || N."""
    if N == 4:
        return 3, 2, 1
    total = 1
    for p, e in _prime_factors(N):
        total *= sum(euler_phi(p**i) * euler_phi(p ** (e - i)) for i in range(e + 1))
    assert total % 2 == 0
    return total // 2, total // 2, 0


def _genus_X1(N: int) -> int:
    mu_bar = _gamma1_index(N) // 2
    total, _, _ = _cusp_counts(N)
    g, r = divmod(12 + mu_bar - 6 * total, 12)  # 1 + mu_bar / 12 - total / 2
    assert r == 0
    return g


def dim_Mk(N: int, k: int) -> int:
    """dim M_k(Gamma_1(N)) for N >= 4 (torsion-free, -I not in the group)."""
    if N < 4:
        raise UnsupportedLevel(f"level {N} < 4")
    if k < 0:
        return 0
    if k == 0:
        return 1
    g = _genus_X1(N)
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
    # (k - 1) (g - 1) + k regular / 2 + (k - 1) irregular / 2
    d, r = divmod(2 * (k - 1) * (g - 1) + k * regular + (k - 1) * irregular, 2)
    assert r == 0
    return d


def sturm_bound(N: int, k: int) -> int:
    """floor(k * mu / 12) + 1, mu the index of Gamma_1(N) in SL_2(Z), for k >= 0."""
    if N < 4:
        raise UnsupportedLevel(f"level {N} < 4")
    if k < 0:
        raise ValueError(f"weight {k} is negative")
    return k * _gamma1_index(N) // 12 + 1


def _check_echelon(prec, pivots, rows, den) -> None:
    """Raise NotEchelon unless rows over den are a reduced echelon form with
    these pivots, so that their number is their rank.  O(dim * prec)."""
    if not den > 0:
        raise NotEchelon(f"denominator {den} is not positive")
    if len(pivots) != len(rows):
        raise NotEchelon(f"{len(pivots)} pivots for {len(rows)} rows")
    if any(len(row) != prec for row in rows):
        raise NotEchelon(f"a row does not have prec = {prec} entries")
    if not all(0 <= a < b for a, b in zip(pivots, [*pivots[1:], prec])):
        raise NotEchelon(f"pivots {list(pivots)} do not increase strictly below prec = {prec}")
    for i, p in enumerate(pivots):
        if any(row[p] != (den if i == j else 0) for j, row in enumerate(rows)):
            raise NotEchelon(f"pivot column {p} is not den = {den} in its own row and 0 elsewhere")


class ModFormBasis:
    """Certified echelonized q-expansion basis of M_k(Gamma_1(N)).

    Only the integer echelon (``pivots``, ``rows``, ``den``) that
    ``linalg._integer_echelon`` computes from the default pool is stored.
    The basis is in reduced row echelon form with pivots at the earliest
    q-exponents: ``rows[j][c] / den`` is the q^c coefficient of the j-th
    element, c < prec, with gcd(den, every entry) = 1.  The constructor
    derives ``field_level`` and ``certificate``, refuses a rank other
    than dim M_k, and refuses rows that are not that echelon form
    (``NotEchelon``), since only then is their number their rank.  Every
    basis passes through it, so no uncertified basis exists.
    ``elements``, the basis as QSeries over Q(zeta_L), is a view built at
    its first read and then kept, as ``digest`` is; ``serialize`` writes
    the same bytes from ``rows`` and ``den`` without it; ``is_integral``
    reads ``den``.  ``_residual`` eliminates a series against the basis in
    integers; ``is_in_span`` and ``reduce.reduce_Uq`` both read it.
    """

    __slots__ = (
        "level", "weight", "prec", "field_level", "pivots", "certificate",
        "rows", "den", "_free", "_elements", "_digest",
    )

    def __init__(self, level, weight, prec, pivots, rows, den):
        dim = dim_Mk(level, weight)
        if len(rows) < dim:
            raise SpanFailure(len(rows), dim)
        if len(rows) > dim:
            raise RankExceedsDimension(len(rows), dim)
        _check_echelon(prec, pivots, rows, den)
        self.level = level
        self.weight = weight
        self.prec = prec
        self.field_level = ambient_field_level(level)
        self.pivots = list(pivots)
        self.certificate = {
            "dimension": dim, "rank": len(rows), "sturm": sturm_bound(level, weight),
        }
        self.rows = rows
        self.den = den
        # (c, column c of rows) for every q-exponent c off the pivots
        self._free = [
            (c, tuple(row[c] for row in rows)) for c in range(prec) if c not in self.pivots
        ]
        self._elements = None
        self._digest = None

    @property
    def elements(self) -> tuple[QSeries, ...]:
        """The basis elements as QSeries over Q(zeta_L), rows[j] / den."""
        if self._elements is None:
            from fractions import Fraction

            from .cyclo import Cyclo
            from .series import QSeries
            L, D = self.field_level, self.den
            self._elements = tuple(
                QSeries(L, self.prec, [Cyclo.from_rational(L, Fraction(x, D)) for x in row])
                for row in self.rows
            )
        return self._elements

    def _residual(self, S) -> list[list[int]]:
        """The residual of a series at each free column, in integers.

        S holds the power-basis numerators of the prec coefficients s_c of a
        series over one denominator E (``_numerators``), all in one field.
        The basis is in reduced echelon form, so the unique combination to
        subtract has the coefficient s at the j-th pivot p_j for its j-th
        element, and the residual is zero at every pivot.  At the free
        column c it is (D * S_c - sum_j R[j][c] * S_{p_j}) / (D * E), with
        R = rows and D = den; the list holds these numerators, coordinate
        by coordinate in the input's field, per column of ``_free``.
        """
        D = self.den
        at_pivots = list(zip(*(S[p] for p in self.pivots)))
        return [[D * a - sum(map(mul, column, values)) for a, values in zip(S[c], at_pivots)]
                for c, column in self._free]

    def is_integral(self) -> bool:
        """True iff every coefficient lies in Z[1/N, zeta_N], N the level.

        Then the verdicts of ``reduce_Uq`` over this basis are complete.  The
        entries are rational, so this asks for Z[1/N]; as gcd(den, every
        entry) = 1, they all lie there iff den is N-smooth.
        """
        return _split_denominator(self.den, self.level)[1] == 1

    def digest(self) -> str:
        """First 16 hex digits of the sha256 of the serialized basis."""
        if self._digest is None:
            import hashlib  # only here: a CLI basis job never digests

            text = json.dumps(self.serialize(), sort_keys=True)
            self._digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return self._digest

    def serialize(self) -> dict:
        """The basis as JSON data, each element as ``QSeries.serialize`` writes it.

        Written straight from ``rows`` and ``den``: the q^c coefficient of
        element j is the rational rows[j][c] / den, whose power-basis
        coordinates are that fraction in lowest terms and phi(L) - 1 zeros.
        """
        D = self.den
        zeros = ["0/1"] * (euler_phi(self.field_level) - 1)

        def coefficient(x: int) -> list[str]:
            g = gcd(x, D)
            return [f"{x // g}/{D // g}", *zeros]

        return {
            "level": self.level,
            "weight": self.weight,
            "prec": self.prec,
            "field_level": self.field_level,
            "sturm": self.certificate["sturm"],
            "elements": [[coefficient(x) for x in row] for row in self.rows],
            "certificate": dict(self.certificate),
        }


_basis_lock = threading.Lock()
# (N, prec) -> the certified bases of weights 0, 1, ... built so far
_chains: dict[tuple[int, int], list[ModFormBasis]] = {}


def weight_basis(N: int, k: int, prec: int) -> ModFormBasis:
    """Certified basis of M_k(Gamma_1(N)) to q-precision prec, prec at least
    the Sturm bound.

    One chain of bases per (N, prec) is grown in place, weight 0, 1, ...
    k in order, each from the pool of ``_pool`` over the bases below it,
    reduced over Q in integers; ``ModFormBasis`` certifies rank = dim.
    Before its first row the whole chain is estimated by
    ``_check_chain_size``, which asks the dimension of every weight from
    0 up, so an unsupported level is refused (weight 1) before any
    candidate is built, and a chain above SIZE_BOUND raises TooLarge.
    The stack depth does not grow with k, and the result is kept.
    """
    sb = sturm_bound(N, k)
    if prec < sb:
        raise PrecisionInsufficient(f"prec {prec} < sturm bound {sb}")
    with _basis_lock:
        chain = _chains.setdefault((N, prec), [])
        if len(chain) <= k:
            _check_chain_size(N, k, prec)
        while len(chain) <= k:
            w = len(chain)
            chain.append(ModFormBasis(N, w, prec, *_integer_echelon(_pool(N, w, prec, chain))))
        return chain[k]


def _check_chain_size(N: int, k: int, prec: int) -> None:
    """Raise TooLarge if the pools of weights 0 .. k hold more than SIZE_BOUND
    entries, rows x prec summed; the sum stops once it passes the bound.

    A pool of weight w at most the factor weight j (``_pool``) has dim M_w
    rows, and a product pool dim M_j * dim M_{w-j}.  The dimensions up to
    j are asked first, so an unsupported level is refused as such, at
    weight 1, whatever the size.
    """
    j = 2 if N == 4 else 1
    low = [dim_Mk(N, w) for w in range(min(k, j) + 1)]
    total = 0
    for w in range(k + 1):
        rows = low[w] if w <= j else low[j] * dim_Mk(N, w - j)
        total += rows * prec
        if total > SIZE_BOUND:
            raise TooLarge(f"the weight-0..{k} chain of bases at level {N}, prec {prec}", total)


def _pool(N: int, w: int, prec: int, chain: list[ModFormBasis]) -> list[list[int]]:
    """The candidate pool of weight w as integer rows over Q; chain holds the
    bases of weights 0 .. w-1 at this prec.

    Weight 0 is the constant 1 and weight 1 is Hecke's series
    (``_hecke_rows``).  Where X_1(N) = P^1 with every cusp regular (every
    supported N >= 5), M_w = H^0(O(wd)) with d = dim M_1 - 1, and the
    products of the weight-1 basis with the weight-(w-1) basis span it,
    since H^0(O(d)) x H^0(O((w-1)d)) -> H^0(O(wd)) is onto.  At N = 4,
    the one level with an irregular cusp, M_*(Gamma_1(4)) is a polynomial
    ring on one form of weight 1 and one of weight 2 (dim M_w =
    floor(w/2) + 1), so the pool is E_2(q) - t E_2(q^t) (``_e2_rows``) at
    weight 2 and the products of the weight-2 basis with the weight-(w-2)
    basis above it.  Each product is the convolution of two integer rows
    truncated at prec.  The rank is certified against the dimension
    either way.
    """
    if w == 0:
        return [[1] + [0] * (prec - 1)]
    if w == 1:
        return _hecke_rows(N, prec)
    if N == 4 and w == 2:
        return _e2_rows(N, prec)
    j = 2 if N == 4 else 1
    return [_product(f, g, 0) for f in chain[j].rows for g in chain[w - j].rows]


def _hecke_rows(N: int, prec: int) -> list[list[int]]:
    """2N * E1_c for c = 1 .. (N-1)/2, by a divisor sieve.

    E1_c = (1/2 - c/N) + sum_{n >= 1} (#{d | n : d = c} - #{d | n : d = -c}) q^n,
    congruences mod N, lies in M_1(Gamma_1(N)) (Hecke 1927; Diamond--
    Shurman 4.8), so each row is N - 2c followed by 2N times that count.
    """
    half = (N - 1) // 2
    rows = [[N - 2 * c] + [0] * (prec - 1) for c in range(1, half + 1)]
    for d in range(1, prec):
        r = d % N
        c, step = (r, 2 * N) if r <= half else (N - r, -2 * N)
        if 1 <= c <= half:
            row = rows[c - 1]
            for n in range(d, prec, d):
                row[n] += step
    return rows


def _e2_rows(N: int, prec: int) -> list[list[int]]:
    """24 (E_2(q) - t E_2(q^t)) for t | N, t > 1: weight 2, level t.

    E_2 = -1/24 + sum sigma_1(n) q^n is only quasimodular, but these
    differences are modular, with constant term t - 1.
    """
    sigma = [0] * prec
    for d in range(1, prec):
        for n in range(d, prec, d):
            sigma[n] += d
    return [
        [t - 1] + [24 * (sigma[n] - (t * sigma[n // t] if n % t == 0 else 0))
                   for n in range(1, prec)]
        for t in range(2, N + 1) if N % t == 0
    ]


def _numerators(coeffs) -> tuple[list[list[int]], int]:
    """(S, E): the power-basis numerators S of field elements over their one
    common denominator E, the lcm of theirs."""
    E = math.lcm(*(x.den for x in coeffs))
    return [[a * (E // x.den) for a in x.num] for x in coeffs], E


def is_in_span(s: QSeries, basis: ModFormBasis) -> tuple[bool, list[Cyclo]]:
    """Membership of s in the span of the basis, with coefficients.

    Agreement on prec >= sturm bound coefficients plus exact linear
    consistency certifies membership at the stated precision.  The level
    of s must divide the ambient level L of the basis; s is eliminated in
    its own field by ``ModFormBasis._residual``, and the coefficients, s at
    the pivots, are returned lifted to Q(zeta_L).
    """
    if s.prec < basis.prec:
        raise PrecisionInsufficient(
            f"series precision {s.prec} < basis precision {basis.prec}"
        )
    L = basis.field_level
    if L % s.level:
        raise LevelMismatch(f"{s.level} does not divide {L}")
    coeffs = s.coeffs[:basis.prec]
    residual = basis._residual(_numerators(coeffs)[0])
    return not any(map(any, residual)), [coeffs[p].lift(L) for p in basis.pivots]
