"""Cyclotomic field arithmetic and the subring Z[1/N, zeta_N]."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import (
    Cyclo,
    cyclotomic_poly,
    descend,
    euler_phi,
    in_NZ,
    reduce_mod_NZ,
)
from ellgenus.series import QSeries
from oracles import lift_by_table


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@pytest.mark.parametrize("build", [
    lambda: Cyclo(0),
    lambda: Cyclo(-5),
    lambda: Cyclo.from_rational(0, 1),
    lambda: QSeries(0, 8),
], ids=["Cyclo(0)", "Cyclo(-5)", "from_rational(0)", "QSeries(0)"])
def test_levels_below_1_are_refused(build):
    with pytest.raises(ValueError, match="level -?[0-9]+ is not positive"):
        build()


def test_cyclotomic_polynomials():
    # ascending coefficient tuples
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_has_multiplicative_order_N():
    for N in (4, 5, 6, 12):
        z = Cyclo.zeta(N)
        power = Cyclo.from_rational(N, 1)
        for k in range(1, N):
            power = power * z
            assert power != Cyclo.from_rational(N, 1)
        assert power * z == Cyclo.from_rational(N, 1)


def test_inverse_of_one_minus_zeta5():
    # (1 - z)^-1 * (1 - z) == 1
    z = Cyclo.zeta(5)
    a = Cyclo.from_rational(5, 1) - z
    assert a.inv() * a == Cyclo.from_rational(5, 1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo(5).inv()


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def cyclos(level):
    return st.builds(
        lambda cs: Cyclo(level, cs),
        st.lists(rationals, min_size=euler_phi(level), max_size=euler_phi(level)),
    )


@settings(max_examples=40)
@given(a=cyclos(5), b=cyclos(5), c=cyclos(5))
def test_field_axioms_level5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inv() == Cyclo.from_rational(5, 1)


@settings(max_examples=40)
@given(a=cyclos(12), b=cyclos(12))
def test_ring_axioms_level12(a, b):
    assert a + b == b + a
    assert a - a == Cyclo(12)
    assert (a - b) * (a + b) == a * a - b * b


def test_lift_and_descend_roundtrip():
    a = Cyclo(5, [Fraction(1, 2), Fraction(3), Fraction(-7, 3), Fraction(0)])
    lifted = a.lift(20)
    assert descend(lifted, 5) == a


def test_descend_of_proper_extension_element_is_none():
    # zeta_20 itself does not live in Q(zeta_5)
    assert descend(Cyclo.zeta(20), 5) is None


def test_lift_is_a_ring_homomorphism():
    a = Cyclo.zeta(5, 2) + Cyclo.from_rational(5, Fraction(1, 3))
    b = Cyclo.zeta(5, 3) - Cyclo.from_rational(5, 2)
    assert (a * b).lift(20) == a.lift(20) * b.lift(20)
    assert (a + b).lift(20) == a.lift(20) + b.lift(20)


def test_serialize_roundtrip():
    a = Cyclo(5, [Fraction(-3, 7), Fraction(0), Fraction(5), Fraction(1, 2)])
    assert Cyclo.deserialize(5, a.serialize()) == a
    assert a.serialize() == ["-3/7", "0/1", "5/1", "1/2"]


def test_in_NZ_accepts_only_N_power_denominators():
    assert in_NZ(Cyclo.from_rational(5, Fraction(3, 25)))
    assert in_NZ(Cyclo.from_rational(5, 7))
    assert not in_NZ(Cyclo.from_rational(5, Fraction(1, 2)))
    assert in_NZ(Cyclo.from_rational(4, Fraction(5, 8)))
    assert not in_NZ(Cyclo.from_rational(4, Fraction(1, 3)))
    assert in_NZ(Cyclo.from_rational(6, Fraction(1, 12)))


def test_coset_reduction_canonical_values():
    # prime-to-N part of the denominator survives; numerator is reduced
    # against the invertible N-part
    assert reduce_mod_NZ(
        Cyclo.from_rational(5, Fraction(7, 10))
    ).rep == Cyclo.from_rational(5, Fraction(1, 2))
    assert reduce_mod_NZ(
        Cyclo.from_rational(4, Fraction(5, 6))
    ).rep == Cyclo.from_rational(4, Fraction(1, 3))
    assert reduce_mod_NZ(Cyclo.from_rational(5, Fraction(3, 25))).is_zero()
    # every N-integral element maps to one shared zero coset
    assert reduce_mod_NZ(Cyclo.zeta(5)) is reduce_mod_NZ(Cyclo.from_rational(5, Fraction(3, 25)))


def test_coset_representative_is_idempotent():
    a = Cyclo(5, [Fraction(7, 10), Fraction(-5, 6), Fraction(2, 3), Fraction(9)])
    first = reduce_mod_NZ(a)
    again = reduce_mod_NZ(first.rep)
    assert first == again


@settings(max_examples=40)
@given(a=cyclos(5), b=cyclos(5))
def test_coset_reduction_is_additive_modulo_NZ(a, b):
    # the difference of rep(a+b) and rep(a)+rep(b) lies in the subring
    left = reduce_mod_NZ(a + b).rep
    right = reduce_mod_NZ(a).rep + reduce_mod_NZ(b).rep
    assert in_NZ(left - right)


@settings(max_examples=40)
@given(a=cyclos(5))
def test_coset_of_subring_shift_is_stable(a):
    shift = Cyclo.from_rational(5, Fraction(7, 25))
    assert reduce_mod_NZ(a + shift) == reduce_mod_NZ(a)


def test_display_embedding_matches_roots_of_unity():
    z4 = Cyclo.zeta(4).to_complex()
    assert abs(z4 - 1j) < 1e-12
    z5 = Cyclo.zeta(5).to_complex()
    assert abs(z5**5 - 1) < 1e-12
    assert abs(z5 - 1) > 1e-3


# -- differential test: the integer kernel against a Fraction reference -----
#
# The reference stores an element as its tuple of Fraction coordinates and
# multiplies by a polynomial product reduced modulo Phi_N by long division.


def _ref_reduce(poly: list, N: int) -> tuple:
    cyc = cyclotomic_poly(N)
    phi = len(cyc) - 1
    poly = list(poly) + [Fraction(0)] * max(0, phi - len(poly))
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for i, t in enumerate(cyc):
                poly[k - phi + i] -= c * t
    return tuple(poly[:phi])


def _ref_mul(a: tuple, b: tuple, N: int) -> tuple:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, N)


def _ref_lift(a: tuple, N: int, L: int) -> tuple:
    poly = [Fraction(0)] * (L // N * (len(a) - 1) + 1)
    for i, x in enumerate(a):
        poly[i * (L // N)] = x
    return _ref_reduce(poly, L)


def _ref_n_smooth(den: int, N: int) -> bool:
    while (g := math.gcd(den, N)) > 1:
        den //= g
    return den == 1


def _ref_coset_coord(r: Fraction, N: int) -> Fraction:
    # the unique c/d in [0, 1) with d prime to N and r - c/d in Z[1/N]
    d, dN = r.denominator, 1
    while (g := math.gcd(d, N)) > 1:
        d //= g
        dN *= g
    return Fraction(r.numerator * pow(dN, -1, d) % d, d)


def _assert_canonical(a: Cyclo) -> None:
    assert len(a.num) == euler_phi(a.level)
    assert all(type(x) is int for x in a.num) and type(a.den) is int
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    if not any(a.num):
        assert a.den == 1


DIFF_LEVELS = (5, 7, 12, 20, 42)
LIFTS = {5: 20, 7: 42, 12: 24, 20: 60, 42: 84}

edge_coords = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(max_denominator=10**30),
)


@st.composite
def diff_elements(draw, level):
    phi = euler_phi(level)
    kind = draw(st.sampled_from(["zero", "one", "minus_one", "coords"]))
    if kind == "zero":
        return ()
    if kind in ("one", "minus_one"):
        return (Fraction(1 if kind == "one" else -1),) + (Fraction(0),) * (phi - 1)
    return tuple(draw(st.lists(edge_coords, min_size=phi, max_size=phi)))


def _pad(coords: tuple, level: int) -> tuple:
    return tuple(coords) + (Fraction(0),) * (euler_phi(level) - len(coords))


@settings(max_examples=60)
@given(data=st.data(), level=st.sampled_from(DIFF_LEVELS))
def test_integer_kernel_matches_the_fraction_reference(data, level):
    ra = _pad(data.draw(diff_elements(level)), level)
    rb = _pad(data.draw(diff_elements(level)), level)
    a, b = Cyclo(level, ra), Cyclo(level, rb)
    assert a.coords == ra and b.coords == rb
    results = [
        (a + b, tuple(x + y for x, y in zip(ra, rb))),
        (a - b, tuple(x - y for x, y in zip(ra, rb))),
        (-a, tuple(-x for x in ra)),
        (a * b, _ref_mul(ra, rb, level)),
        (a * rb[0], tuple(x * rb[0] for x in ra)),
    ]
    for value, expected in results:
        _assert_canonical(value)
        assert value.coords == expected
        assert value.serialize() == [f"{c.numerator}/{c.denominator}" for c in expected]
        assert value.rational_part() == expected[0]
    if any(ra):
        inverse = a.inv()
        _assert_canonical(inverse)
        assert _ref_mul(ra, inverse.coords, level) == _pad((Fraction(1),), level)
    assert in_NZ(a) == all(_ref_n_smooth(c.denominator, level) for c in ra)
    rep = reduce_mod_NZ(a).rep
    _assert_canonical(rep)
    assert rep.coords == tuple(_ref_coset_coord(c, level) for c in ra)

    L = LIFTS[level]
    lifted = a.lift(L)
    _assert_canonical(lifted)
    assert lifted.coords == _ref_lift(ra, level, L)
    assert descend(lifted, level) == a
    # zeta_L lies outside Q(zeta_level), so any nonzero multiple spoils descent
    c = data.draw(edge_coords.filter(bool))
    assert descend(lifted + Cyclo.zeta(L) * c, level) is None


@settings(max_examples=40)
@given(data=st.data(), level=st.sampled_from(DIFF_LEVELS))
def test_equal_values_built_differently_compare_and_hash_equal(data, level):
    ra = _pad(data.draw(diff_elements(level)), level)
    rb = _pad(data.draw(diff_elements(level)), level)
    a, b = Cyclo(level, ra), Cyclo(level, rb)
    # the same value through an arithmetic detour and through strings
    detours = (
        (a + b) - b,
        a * Cyclo.from_rational(level, 1),
        Cyclo.deserialize(level, a.serialize()),
    )
    for other in detours:
        _assert_canonical(other)
        assert other == a and hash(other) == hash(a)
        assert (other.num, other.den) == (a.num, a.den)
    assert (a == b) == (ra == rb)


def test_canonical_form_of_equal_rationals():
    half = Cyclo(5, [Fraction(2, 4)])
    assert half == Cyclo.from_rational(5, Fraction(1, 2))
    assert hash(half) == hash(Cyclo.from_rational(5, Fraction(1, 2)))
    assert (half.num, half.den) == ((1, 0, 0, 0), 2)
    zero = Cyclo(12, [Fraction(0, 7), 0, Fraction(0, 3)])
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert Cyclo.from_rational(12, Fraction(3, 9)) - Fraction(1, 3) == zero
    assert Cyclo(12, ["1/6", "1/4"]).num == (2, 3, 0, 0)
    assert Cyclo(12, ["1/6", "1/4"]).den == 12


DIVISOR_LIFTS = [(n, L) for L in (12, 20, 24, 42) for n in range(1, L + 1) if L % n == 0]


@pytest.mark.parametrize("n, L", DIVISOR_LIFTS, ids=[f"{n}-{L}" for n, L in DIVISOR_LIFTS])
@settings(max_examples=10)
@given(data=st.data())
def test_lift_matches_the_table_loop_and_is_canonical(n, L, data):
    a = Cyclo(n, data.draw(diff_elements(n)))
    got = a.lift(L)
    assert got == lift_by_table(a, L)
    assert got.level == L and len(got.num) == euler_phi(L) and got.den > 0
    assert math.gcd(got.den, *got.num) == 1
    if not a:
        assert got.num == (0,) * euler_phi(L) and got.den == 1
