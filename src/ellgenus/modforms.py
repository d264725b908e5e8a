"""q-expansion bases of M_k(Gamma_1(N)).

Conventions follow Diamond--Shurman, "A First Course in Modular Forms":
the Eisenstein family E_k^{psi,phi,t} for pairs of primitive Dirichlet
characters with (mod psi)(mod phi) t | N and psi(-1) phi(-1) = (-1)^k,
coefficients sum_{d|n} psi(n/d) phi(d) d^{k-1}, constant term the
generalized Bernoulli value -B_{k,phi}/(2k) when psi is trivial; weight 2
with both characters trivial uses E_2(q) - t E_2(q^t); generalized
Bernoulli numbers B_{k,chi} = M^{k-1} sum_a chi(a) B_k(a/M).

Character values live in Q(zeta_L) with L = lcm(N, exponent of (Z/N)^*),
which contains the value fields of every character of modulus dividing N;
the characters mod M are built by extending the trivial one along the
units of Z/M, one unit at a time, with no generators of (Z/M)^*.
Bases are certified against the standard dimension formulas for the
torsion-free groups Gamma_1(N), N >= 4.  Every basis is an integer
echelon over Q (``linalg._integer_echelon``) of integer rows: the power-
basis coordinate slices of the candidates, and for the default pool the
integer products of the weight-1 basis with the weight-(k-1) basis.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from fractions import Fraction
from math import comb, gcd
from operator import mul

from .cyclo import Cyclo, _power_table, _reduced, _split_denominator, euler_phi
from .errors import (
    BadLevelDivisibility,
    IncompatibleParity,
    LevelMismatch,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    UnsupportedLevel,
)
from .linalg import _integer_echelon
from .series import QSeries, _product, bernoulli_number


def _unit_order(a: int, M: int) -> int:
    """The multiplicative order of the unit a mod M."""
    m, x = 1, a % M
    while x != 1 % M:
        x = x * a % M
        m += 1
    return m


def unit_group_exponent(M: int) -> int:
    """The exponent of (Z/M)^*: the lcm of the orders of its units."""
    return math.lcm(*(_unit_order(a, M) for a in range(1, M + 1) if gcd(a, M) == 1))


def ambient_field_level(N: int) -> int:
    """L = lcm(N, exponent of (Z/N)^*): contains all character values."""
    e = unit_group_exponent(N)
    return N * e // gcd(N, e)


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
        if gcd(n, self.modulus) != 1:
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


def all_characters(M: int, field_level: int) -> list[DirichletCharacter]:
    """All Dirichlet characters modulo M, values in Q(zeta_L), sorted by ``key()``.

    Built by extension, with no generators (Serre, A Course in Arithmetic,
    VI.1, Prop. 1).  Start from the trivial character of H = {1}.  For each
    unit g not yet in H, in increasing order, let m be the least m >= 1 with
    g^m in H.  A character t of H extends to H<g> in exactly m ways,
    t'(h g^i) = t(h) + i e_j mod L with e_j = t(g^m)/m + j L/m, j < m
    (exponents of zeta_L).  The division is exact: m divides the order n
    of g, and n divides L, so t(g^m), whose multiple by n/m = order(g^m)
    is 0 mod L, is a multiple of (L/n) m.  L must be a multiple of the
    exponent of (Z/M)^*, or some character takes a value outside Q(zeta_L).
    """
    L = field_level
    e = unit_group_exponent(M)
    if L % e:
        raise ValueError(f"Q(zeta_{L}) lacks the values of the characters mod {M}: "
                         f"{L} is not a multiple of the exponent {e} of (Z/{M})^*")
    tables = [{1 % M: 0}]
    for g in range(2, M):
        if gcd(g, M) != 1 or g in tables[0]:
            continue
        m, x = 1, g
        while x not in tables[0]:
            m, x = m + 1, x * g % M
        coset = [(h, i, h * pow(g, i, M) % M) for h in tables[0] for i in range(m)]
        tables = [
            {u: (t[h] + i * ej) % L for h, i, u in coset}
            for t in tables
            for ej in range(t[x] // m, L, L // m)
        ]
    return sorted((DirichletCharacter(M, L, t) for t in tables), key=DirichletCharacter.key)


def primitive_characters(M: int, field_level: int) -> list[DirichletCharacter]:
    return [c for c in all_characters(M, field_level) if c.is_primitive()]


def bernoulli_polynomial(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum_i binom(k, i) B_i x^(k-i)."""
    acc = Fraction(0)
    for i in range(k + 1):
        acc += comb(k, i) * bernoulli_number(i) * x ** (k - i)
    return acc


def gen_bernoulli(chi: DirichletCharacter, k: int) -> Cyclo:
    """Generalized Bernoulli number B_{k,chi}."""
    M = chi.modulus
    L = chi.field_level
    total = Cyclo.from_rational(L, 0)
    for a in range(1, M + 1):
        v = chi.value(a)
        if v:
            total = total + v * bernoulli_polynomial(k, Fraction(a, M))
    return total * Fraction(M) ** (k - 1)


def eisenstein(
    psi: DirichletCharacter,
    phi_char: DirichletCharacter,
    t: int,
    k: int,
    prec: int,
    N: int,
) -> QSeries:
    """The Eisenstein series E_k^{psi,phi,t} to the given q-precision."""
    if k < 1:
        raise ValueError("weight must be >= 1")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    L = psi.field_level
    if phi_char.field_level != L:
        raise BadLevelDivisibility("character field levels differ")
    if N % (psi.modulus * phi_char.modulus * t) != 0:
        raise BadLevelDivisibility(
            f"{psi.modulus} * {phi_char.modulus} * {t} does not divide {N}"
        )
    if psi.parity() * phi_char.parity() != (-1) ** k:
        raise IncompatibleParity(f"character parity incompatible with weight {k}")

    quasimodular = k == 2 and psi.modulus == 1 and phi_char.modulus == 1
    if quasimodular and t == 1:
        raise BadLevelDivisibility("E_2 itself is not modular; need t > 1")

    coeffs = [Cyclo.from_rational(L, 0)]
    if k >= 2:
        if psi.modulus == 1:
            coeffs[0] = -gen_bernoulli(phi_char, k) * Fraction(1, 2 * k)
    else:  # k == 1
        if psi.modulus == 1:
            coeffs[0] = -gen_bernoulli(phi_char, 1) * Fraction(1, 2)
        elif phi_char.modulus == 1:
            coeffs[0] = -gen_bernoulli(psi, 1) * Fraction(1, 2)
    coeffs.extend(_twisted_divisor_sums(psi, phi_char, k, prec))
    e = QSeries(L, prec, coeffs).shift(t)
    if quasimodular:
        # E_2 = -1/24 + sum sigma_1(n) q^n is quasimodular; E_2(q) - t E_2(q^t) is modular
        return QSeries(L, prec, [a - b * t for a, b in zip(coeffs, e.coeffs)])
    return e


def _exponents(chi: DirichletCharacter, n: int) -> list[int | None]:
    """chi(a) = zeta_L^e as the exponent e for a = 0 .. n-1; None where chi(a) = 0."""
    M = chi.modulus
    return [chi.exponents[a % M] if gcd(a, M) == 1 else None for a in range(n)]


def _twisted_divisor_sums(
    psi: DirichletCharacter, phi_char: DirichletCharacter, k: int, prec: int
) -> list[Cyclo]:
    """sum_{d | n} psi(n/d) phi(d) d^(k-1) for n = 1 .. prec-1.

    A sieve over the pairs (d, m) with n = d * m < prec.  Every term is
    the integer d^(k-1) times zeta_L^e, e the sum of the exponents of
    phi(d) and psi(m), so each n collects integer weights per exponent
    and folds them through the power table once.
    """
    L = psi.field_level
    psi_e, phi_e = _exponents(psi, prec), _exponents(phi_char, prec)
    buckets: list[dict[int, int]] = [{} for _ in range(prec)]
    for d in range(1, prec):
        ed = phi_e[d]
        if ed is None:
            continue
        w = d ** (k - 1)
        for m in range(1, (prec - 1) // d + 1):
            em = psi_e[m]
            if em is not None:
                bucket = buckets[d * m]
                e = (ed + em) % L
                bucket[e] = bucket.get(e, 0) + w
    table = _power_table(L)
    zero = [0] * euler_phi(L)
    out = []
    for bucket in buckets[1:]:
        num = zero
        for e, w in bucket.items():
            num = [x + w * t for x, t in zip(num, table[e])]
        out.append(_reduced(L, tuple(num), 1))
    return out


def _gamma1_index(N: int) -> int:
    """[SL_2(Z) : Gamma_1(N)]: the pairs (c, d) mod N with gcd(c, d, N) = 1.

    Grouped by g = gcd(c, N): phi(N/g) residues c have it, and each pairs
    with the (N/g) phi(g) residues d prime to g.
    """
    return sum(euler_phi(N // g) * (N // g) * euler_phi(g) for g in range(1, N + 1) if N % g == 0)


def _cusp_counts(N: int) -> tuple[int, int, int]:
    """(total, regular, irregular) cusps of Gamma_1(N), N >= 4."""
    if N == 4:
        return 3, 2, 1
    total = sum(euler_phi(d) * euler_phi(N // d) for d in range(1, N + 1) if N % d == 0)
    assert total % 2 == 0
    return total // 2, total // 2, 0


def _genus_X1(N: int) -> int:
    mu_bar = _gamma1_index(N) // 2
    total, _, _ = _cusp_counts(N)
    g = Fraction(1) + Fraction(mu_bar, 12) - Fraction(total, 2)
    assert g.denominator == 1
    return int(g)


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
    d = Fraction(k - 1) * (g - 1) + Fraction(k, 2) * regular + Fraction(k - 1, 2) * irregular
    assert d.denominator == 1
    return int(d)


def sturm_bound(N: int, k: int) -> int:
    """floor(k * mu / 12) + 1, mu the index of Gamma_1(N) in SL_2(Z), for k >= 0."""
    if N < 4:
        raise UnsupportedLevel(f"level {N} < 4")
    if k < 0:
        raise ValueError(f"weight {k} is negative")
    return k * _gamma1_index(N) // 12 + 1


def _certify_rank(rank: int, dim: int) -> None:
    if rank < dim:
        raise SpanFailure(rank, dim)
    if rank > dim:
        raise RankExceedsDimension(rank, dim)


class ModFormBasis:
    """Certified echelonized q-expansion basis of M_k(Gamma_1(N)).

    Only the integer echelon (``pivots``, ``rows``, ``den``) that
    ``linalg._integer_echelon`` computes, for either pool, is stored.  The
    basis is in reduced row echelon form with pivots at the earliest
    q-exponents: ``rows[j][c] / den`` is the q^c coefficient of the j-th
    element, c < prec, with gcd(den, every entry) = 1.  The constructor
    derives ``field_level`` and ``certificate`` and refuses a rank other
    than dim M_k, so no uncertified basis exists.  ``elements``, the basis
    as QSeries over Q(zeta_L), is a view built at its first read and then
    kept, as ``digest`` is; ``serialize`` writes the same bytes from
    ``rows`` and ``den`` without it; ``is_integral`` reads ``den``;
    ``eliminate`` works in integers.
    """

    __slots__ = (
        "level", "weight", "prec", "field_level", "pivots", "certificate",
        "rows", "den", "_free", "_elements", "_digest",
    )

    def __init__(self, level, weight, prec, pivots, rows, den):
        dim = dim_Mk(level, weight)
        _certify_rank(len(rows), dim)
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
            L, D = self.field_level, self.den
            self._elements = tuple(
                QSeries(L, self.prec, [Cyclo.from_rational(L, Fraction(x, D)) for x in row])
                for row in self.rows
            )
        return self._elements

    def eliminate(self, coeffs) -> tuple[list[Cyclo], list[Cyclo]]:
        """Subtract the unique basis combination from the coefficients s_c.

        coeffs are the prec coefficients of a series, all over one field
        Q(zeta_M), and the results stay in that field: the basis is
        rational, so M need not be the ambient level L (any M | L gives the
        lift of the result at L).  Returns (residual, coefficients) with
        residual zero at every pivot and coeffs = residual + sum
        coefficients[j] * elements[j].  The basis is in reduced echelon
        form, so coefficients[j] is s at the j-th pivot p_j.  At a free
        column c, with R = rows, D = den and E the common denominator of
        the input, each power-basis coordinate of residual[c] is
        (D * s_c - sum_j R[j][c] * s_{p_j}) / (D * E), with every s scaled
        by E to integers.
        """
        coeffs = list(coeffs)
        M, D = coeffs[0].level, self.den
        if any(x.level != M for x in coeffs):
            raise LevelMismatch("the coefficients lie in different fields")
        E = math.lcm(*(x.den for x in coeffs))
        at_pivots = [coeffs[p] for p in self.pivots]
        scaled = [[a * (E // x.den) for a in x.num] for x in at_pivots]
        by_coord = [tuple(row[i] for row in scaled) for i in range(euler_phi(M))]
        zero = Cyclo(M)
        residual = [zero] * len(coeffs)
        for c, column in self._free:
            x = coeffs[c]
            scale = D * (E // x.den)
            num = tuple([
                a * scale - sum(map(mul, column, pivot_values))
                for a, pivot_values in zip(x.num, by_coord)
            ])
            residual[c] = _reduced(M, num, D * E)
        return residual, at_pivots

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


def eisenstein_candidates(N: int, k: int, prec: int) -> list[QSeries]:
    """All admissible E_k^{psi,phi,t} at level N, weight k."""
    L = ambient_field_level(N)
    out = []
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    prims = {d: primitive_characters(d, L) for d in divisors}
    for u in divisors:
        for v in divisors:
            if N % (u * v) != 0:
                continue
            for t in divisors:
                if N % (u * v * t) != 0:
                    continue
                for psi in prims[u]:
                    for phic in prims[v]:
                        if psi.parity() * phic.parity() != (-1) ** k:
                            continue
                        if k == 2 and u == 1 and v == 1 and t == 1:
                            continue
                        if k == 1 and (v, phic.key()) < (u, psi.key()):
                            continue  # E_1^{psi,phi} = E_1^{phi,psi}
                        out.append(eisenstein(psi, phic, t, k, prec, N))
    return out


_basis_lock = threading.Lock()


@functools.lru_cache(maxsize=None)
def _weight_basis_cached(N: int, k: int, prec: int) -> ModFormBasis:
    """The certified basis of the default pool; dim_Mk first, so an
    unsupported level is refused before any candidate is built."""
    dim_Mk(N, k)
    return ModFormBasis(N, k, prec, *_integer_echelon(_default_rows(N, k, prec)))


def weight_basis(N: int, k: int, prec: int, candidates=None) -> ModFormBasis:
    """Certified basis of M_k(Gamma_1(N)) to q-precision prec.

    Candidates default to the products of the weight-1 and weight-(k-1)
    basis elements (cached), plus the admissible Eisenstein series of
    weight k where those products need not span (see ``_default_rows``):
    at weight 1, and at N = 4 among the supported levels.  An explicit
    candidate list overrides the pool (``_pool_echelon``): each candidate
    needs a level dividing L and at least prec coefficients (it is read
    to prec), the pool's rank over Q(zeta_L) is certified against the
    dimension, and a pool whose echelon form is not rational is refused.  Either pool is reduced over Q in integers after the
    dimension is known, so an unsupported level is refused before any
    candidate is built, and ``ModFormBasis`` certifies rank = dim.
    """
    sb = sturm_bound(N, k)
    if prec < sb:
        raise PrecisionInsufficient(f"prec {prec} < sturm bound {sb}")
    if candidates is not None:
        return ModFormBasis(N, k, prec, *_pool_echelon(candidates, N, k, prec))
    with _basis_lock:
        return _weight_basis_cached(N, k, prec)


def _scaled(coeffs) -> list[list[int]]:
    """The numerators of the coefficients over their common denominator."""
    E = math.lcm(*(c.den for c in coeffs))
    return [[x * (E // c.den) for x in c.num] for c in coeffs]


def _slices(coeffs) -> list[list[int]]:
    """The nonzero power-basis coordinate slices of a series, as integer rows."""
    return [row for row in map(list, zip(*_scaled(coeffs))) if any(row)]


def _default_rows(N: int, k: int, prec: int) -> list[list[int]]:
    """The default candidate pool of weight k as integer rows over Q.

    For k >= 2 the candidates are the products of the weight-1 basis with
    the weight-(k-1) basis, each the convolution of two integer rows
    truncated at prec.  Where X_1(N) = P^1 with every cusp regular (every
    supported N >= 5), M_k = H^0(O(kd)) with d = dim M_1 - 1, and these
    products alone span it, since H^0(O(d)) x H^0(O((k-1)d)) -> H^0(O(kd))
    is onto.  Elsewhere (N = 4, with its irregular cusp) the pool also
    holds the weight-k Eisenstein series (checked to span up to k = 12),
    and at k = 1 it holds only them.  Each Eisenstein series gives its
    nonzero power-basis coordinate slices, each over the series' common
    denominator: the pool is Galois-stable, so the slices span over Q the
    rational points of its span over Q(zeta_L).  Every row goes to the
    echelon, and the rank is certified against the dimension either way.
    The two factor bases are built before any Eisenstein series, so at a
    level whose weight-1 dimension is unknown the recursion reaches
    dim_Mk(N, 1) before any candidate is built.
    """
    if k == 0:
        return [[1] + [0] * (prec - 1)]
    products = []
    if k > 1:
        b1, b2 = (_weight_basis_cached(N, j, prec).rows for j in (1, k - 1))
        products = [_product(f, g, 0) for f in b1 for g in b2]
        if _genus_X1(N) == 0 and _cusp_counts(N)[2] == 0:
            return products
    slices = [row for f in eisenstein_candidates(N, k, prec) for row in _slices(f.coeffs)]
    return slices + products


def _pool_echelon(candidates, N: int, k: int, prec: int):
    """(pivots, rows, den) of an explicit pool, whose echelon form must be rational.

    The dimension comes first, so an unsupported level is refused before
    any candidate is read.  A candidate with fewer than prec coefficients
    is refused, and every candidate is truncated to prec and lifted to the
    ambient level L.  The power-basis coordinate slices of the pool span
    over Q a space S whose Q(zeta_L)-span contains the pool, so a
    candidate is determined by its values at the pivots of the echelon
    form of S.  The pool's rank r over Q(zeta_L) is then the Q-rank of the
    rows zeta_L^i * f, i < phi(L), read at those pivots, divided by
    phi(L), and is certified against the dimension.  dim S >= r, with
    equality iff the pool's span is S tensor Q(zeta_L), that is iff its
    echelon form is rational: that of S.
    """
    dim = dim_Mk(N, k)
    L = ambient_field_level(N)
    pool = []
    for i, f in enumerate(candidates):
        if f.prec < prec:
            raise PrecisionInsufficient(f"candidate {i} has {f.prec} coefficients < prec {prec}")
        pool.append(f.truncate(prec).lift(L))
    pivots, rows, den = _integer_echelon([row for f in pool for row in _slices(f.coeffs)])
    phi = euler_phi(L)
    zeta = Cyclo.zeta(L)
    turns = []
    for f in pool:
        values = [f[p] for p in pivots]
        for _ in range(phi):
            turns.append([x for row in _scaled(values) for x in row])
            values = [c * zeta for c in values]
    rank = len(_integer_echelon(turns)[1]) // phi
    _certify_rank(rank, dim)
    # the echelon form of M_k tensor Q(zeta_L) is Galois-fixed, hence
    # rational (Shimura 1971, Thm 3.52): slices of a higher rank prove
    # that the candidates, though of full rank, do not span M_k
    if len(rows) != rank:
        raise SpanFailure(
            rank, dim,
            f"the reduced echelon form of the candidates is not rational, so "
            f"they do not span M_{k}(Gamma_1({N}))",
        )
    return pivots, rows, den


def is_in_span(s: QSeries, basis: ModFormBasis) -> tuple[bool, list[Cyclo]]:
    """Membership of s in the span of the basis, with coefficients.

    Agreement on prec >= sturm bound coefficients plus exact linear
    consistency certifies membership at the stated precision.  The level
    of s must divide the ambient level L of the basis; s is eliminated in
    its own field, and the coefficients are returned in Q(zeta_L).
    """
    if s.prec < basis.prec:
        raise PrecisionInsufficient(
            f"series precision {s.prec} < basis precision {basis.prec}"
        )
    L = basis.field_level
    if L % s.level:
        raise LevelMismatch(f"{s.level} does not divide {L}")
    residual, coeffs = basis.eliminate(s.coeffs[:basis.prec])
    return (not any(residual)), [c.lift(L) for c in coeffs]
