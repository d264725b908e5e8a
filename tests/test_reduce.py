"""Quotient reductions: canonical representatives and triviality."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, descend, euler_phi, in_NZ, reduce_mod_NZ
from ellgenus.errors import LevelMismatch, PrecisionInsufficient
from ellgenus.genus import cp_chern, genus, genus_bivariate, split_product
from ellgenus.modforms import weight_basis
from ellgenus.reduce import reduce_Uq, reduce_Wtilde
from ellgenus.series import PQSeries, QSeries, project_q0
from oracles import basis_with_denominators, reducing_over


def const_series(level, prec, value):
    coeffs = [Cyclo.from_rational(level, value)] + [Cyclo(level)] * (prec - 1)
    return QSeries(level, prec, coeffs)


def single_coeff(level, prec, n, value):
    coeffs = [Cyclo(level)] * prec
    coeffs[n] = Cyclo.from_rational(level, value)
    return QSeries(level, prec, coeffs)


def test_genus_of_cp2_reduces_trivially():
    cls = reduce_Uq(genus(cp_chern(2), 5, 7), 5, 6)
    assert cls.trivial
    assert cls.rep.is_zero()


def test_constant_series_is_always_trivial():
    for value in (0, 1, Fraction(7, 3), Fraction(-22, 21)):
        cls = reduce_Uq(const_series(5, 7, value), 5, 6)
        assert cls.trivial


def test_N_integral_series_is_trivial():
    coeffs = [
        Cyclo(5, [Fraction(3, 5), Fraction(-2), Fraction(7, 25), Fraction(1)])
        for _ in range(7)
    ]
    cls = reduce_Uq(QSeries(5, 7, coeffs), 5, 6)
    assert cls.trivial


def test_basis_element_is_trivial():
    basis = weight_basis(5, 3, 7)
    cls = reduce_Uq(basis.elements[1], 5, 6)
    assert cls.trivial


def test_stray_small_denominator_is_nontrivial():
    cls = reduce_Uq(single_coeff(5, 7, 1, Fraction(1, 7)), 5, 6)
    assert not cls.trivial
    assert any(c is None or not c.is_zero() for c in cls.cosets)


def test_triviality_agrees_with_zero_representative():
    probes = [
        genus(cp_chern(2), 5, 7),
        single_coeff(5, 7, 2, Fraction(5, 6)),
        const_series(5, 7, Fraction(1, 3)),
    ]
    for s in probes:
        cls = reduce_Uq(s, 5, 6)
        assert cls.trivial == cls.rep.is_zero()


def test_verdict_is_linear_in_trivial_classes():
    a = genus(cp_chern(2), 5, 7)
    b = const_series(5, 7, Fraction(9, 14))
    assert reduce_Uq(a + b, 5, 6).trivial
    lam = Cyclo.from_rational(5, Fraction(3, 25))
    assert in_NZ(lam)
    scaled = QSeries(5, 7, [lam * c for c in a.coeffs])
    assert reduce_Uq(scaled, 5, 6).trivial


def test_verdict_stable_under_subgroup_shifts():
    base = genus(cp_chern(2), 5, 7)
    basis = weight_basis(5, 3, 7)
    lifted = base.lift(basis.field_level)
    shifted = lifted + basis.elements[0] + basis.elements[2]
    assert reduce_Uq(shifted, 5, 6).trivial
    bad = single_coeff(5, 7, 4, Fraction(2, 3))
    shifted_bad = (bad + base).lift(basis.field_level) + basis.elements[1]
    assert not reduce_Uq(shifted_bad, 5, 6).trivial


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=25)
@given(c=small_fractions, d=small_fractions)
def test_constants_plus_integral_noise_always_trivial(c, d):
    s = const_series(5, 7, c) + single_coeff(5, 7, 3, 5 * d)
    if in_NZ(Cyclo.from_rational(5, 5 * d)):
        assert reduce_Uq(s, 5, 6).trivial


def test_precision_monotonicity_of_trivial_verdicts():
    g = genus(cp_chern(2), 5, 9)
    assert reduce_Uq(g, 5, 6, 9).trivial
    assert reduce_Uq(g, 5, 6, 8).trivial
    assert reduce_Uq(g, 5, 6, 7).trivial


def test_precision_below_sturm_is_refused():
    with pytest.raises(PrecisionInsufficient):
        reduce_Uq(genus(cp_chern(2), 5, 6), 5, 6)


def test_report_carries_certificate_and_sturm():
    cls = reduce_Uq(genus(cp_chern(2), 5, 7), 5, 6)
    doc = cls.serialize()
    assert doc["sturm"] == 7
    assert isinstance(doc["basis_hash"], str) and doc["basis_hash"]
    assert len(doc["modular_part"]["coefficients"]) == len(
        doc["modular_part"]["pivot_columns"]
    )
    assert doc["modular_part"]["constant"] is not None


def assert_decomposition_is_exact(s, cls, basis):
    """s = sum(coefficients * basis) + constant + residual, with residual's cosets."""
    N = cls.level
    L = basis.field_level
    rebuilt = QSeries.zero(L, cls.prec)
    for c, elem in zip(cls.modular_part["coefficients"], basis.elements):
        rebuilt = rebuilt + QSeries(L, cls.prec, [c * x for x in elem.coeffs])
    alpha = cls.modular_part["constant"]
    rebuilt = rebuilt + QSeries(L, cls.prec, [alpha] + [Cyclo(L)] * (cls.prec - 1))
    residual = s.lift(L).truncate(cls.prec) - rebuilt
    for c, coset in zip(residual.coeffs, cls.cosets):
        down = descend(c, N)
        if coset is None:
            assert down is None
        else:
            assert down is not None and reduce_mod_NZ(down) == coset


def test_recorded_decomposition_is_exact():
    for N, prec in ((5, 7), (7, 13)):
        s = genus(cp_chern(2), N, prec)
        cls = reduce_Uq(s, N, 6)
        assert cls.trivial
        # trivial verdict: what remains is N-integral coefficientwise
        assert all(c is not None and c.is_zero() for c in cls.cosets)
        assert_decomposition_is_exact(s, cls, weight_basis(N, 3, prec))


@pytest.mark.parametrize("N, prec", ((5, 7), (7, 13)))
@settings(max_examples=10)
@given(data=st.data())
def test_recorded_constant_is_canonical(N, prec, data):
    # the constant depends only on the class: moving s by an N-integral
    # series or by a basis combination leaves it unchanged
    s = genus(cp_chern(2), N, prec)
    basis = weight_basis(N, 3, prec)
    L = basis.field_level
    numerators = st.integers(-10**6, 10**6)

    def element(level, dens):
        coords = [Fraction(data.draw(numerators), data.draw(st.sampled_from(dens)))
                  for _ in range(euler_phi(level))]
        return Cyclo(level, coords)

    integral = QSeries(N, prec, [element(N, (1, N, N**3)) for _ in range(prec)])
    combination = QSeries.zero(L, prec)
    for elem in basis.elements:
        c = element(L, (1, 2, 3, 7, N))
        combination = combination + QSeries(L, prec, [c * x for x in elem.coeffs])
    want = reduce_Uq(s, N, 6).modular_part["constant"]
    for shifted in ((s + integral).lift(L), s.lift(L) + combination):
        cls = reduce_Uq(shifted, N, 6)
        assert cls.trivial
        assert cls.modular_part["constant"] == want


def test_the_exact_solve_decides_over_a_basis_that_is_not_N_integral():
    # the den-21 basis has free columns 3..7 with r = -60, 120, -240, 300 and
    # -2102/7; a constant clears 1/3 at column 7 (7/3 * r_7 = -2102/3), but
    # r_3 .. r_6 each hold 3 once, so alpha * r_c = 1/3 mod Z[1/5] at one of
    # them puts 9 in the denominator of alpha and leaves a 1/3 at the others
    basis = basis_with_denominators()
    assert basis.den == 21 and not basis.is_integral()
    L = basis.field_level
    probes = [
        (single_coeff(5, 8, 3, 1), Fraction(0)),
        (const_series(5, 8, Fraction(2, 3)) + single_coeff(5, 8, 3, 1), Fraction(2, 3)),
        (single_coeff(5, 8, 7, Fraction(1, 3)), Fraction(7, 3)),
    ] + [(single_coeff(5, 8, c, Fraction(1, 3)), None) for c in (3, 4, 5, 6)]
    with reducing_over(basis):
        for s, constant in probes:
            cls = reduce_Uq(s, 5, 4)
            assert cls.trivial == (constant is not None)
            if constant is not None:
                assert cls.modular_part["constant"] == Cyclo.from_rational(L, constant)
            assert_decomposition_is_exact(s, cls, basis)


@settings(max_examples=25)
@given(data=st.data())
def test_a_constant_plus_an_N_integral_series_on_the_free_columns_is_trivial(data):
    # on the free columns of the den-21 basis an N-integral series needs no
    # basis element, so only the constant has to be found
    basis = basis_with_denominators()
    level = data.draw(st.sampled_from((1, 5, 20)))
    numerators = st.integers(-10**6, 10**6)

    def element(level, dens):
        coords = [Fraction(data.draw(numerators), data.draw(st.sampled_from(dens)))
                  for _ in range(euler_phi(level))]
        return Cyclo(level, coords)

    coeffs = [element(level, (1, 2, 3, 7, 21, 10**6 + 3))] + [Cyclo(level)] * 7
    for c in range(3, 8):
        coeffs[c] = element(math.gcd(level, 5), (1, 5, 5**4)).lift(level)
    s = QSeries(level, 8, coeffs)
    with reducing_over(basis):
        cls = reduce_Uq(s, 5, 4)
    assert cls.trivial
    assert_decomposition_is_exact(s, cls, basis)


def test_closed_product_degree4_vanishes_in_two_variables():
    F = genus_bivariate(split_product(cp_chern(1), cp_chern(1)), 5, 5, 5)
    cls = reduce_Wtilde(F, 5, 4)
    assert cls.trivial


def test_closed_product_degree6_vanishes_in_two_variables():
    F = genus_bivariate(split_product(cp_chern(1), cp_chern(2)), 5, 7, 7)
    cls = reduce_Wtilde(F, 5, 6)
    assert cls.trivial
    assert cls.row_class.trivial and cls.column_class.trivial


def test_single_mixed_half_coefficient_is_detected():
    F = PQSeries(5, 5, 5)
    rows = [list(r) for r in F.rows]
    rows[1][1] = Cyclo.from_rational(5, Fraction(1, 2))
    F = PQSeries(5, 5, 5, rows)
    cls = reduce_Wtilde(F, 5, 4)
    assert not cls.trivial
    assert cls.mixed_cosets[0][0].rep == Cyclo.from_rational(5, Fraction(1, 2))


def test_constant_rectangle_is_trivial():
    F = PQSeries.constant(5, 5, 5, Fraction(11, 6))
    assert reduce_Wtilde(F, 5, 4).trivial


def test_projection_compatibility():
    for a, b, degree, prec in (
        (1, 1, 4, 5),
        (1, 2, 6, 7),
    ):
        F = genus_bivariate(split_product(cp_chern(a), cp_chern(b)), 5, prec, prec)
        assert reduce_Wtilde(F, 5, degree).trivial
        assert reduce_Uq(project_q0(F), 5, degree).trivial


def test_projection_of_positive_q_support_is_trivially_trivial():
    F = PQSeries(5, 5, 5)
    rows = [list(r) for r in F.rows]
    rows[2][3] = Cyclo.from_rational(5, Fraction(1, 7))
    F = PQSeries(5, 5, 5, rows)
    assert project_q0(F).is_zero()
    assert reduce_Uq(project_q0(F), 5, 4).trivial


def test_mixed_cells_reduce_at_level_N_whatever_the_carrier():
    # 1/2 is 10-integral but not 5-integral: a level-5 carrier at N = 10
    # must be read at level 10, exactly like a level-10 carrier
    verdicts = []
    for carrier in (10, 5):
        rows = [[Cyclo(carrier)] * 14 for _ in range(14)]
        rows[1][1] = Cyclo.from_rational(carrier, Fraction(1, 2))
        cls = reduce_Wtilde(PQSeries(carrier, 14, 14, rows), 10, 4)
        assert cls.mixed_cosets[0][0].is_zero()
        verdicts.append(cls.trivial)
    assert verdicts == [True, True]


def test_carrier_level_must_divide_N():
    with pytest.raises(LevelMismatch):
        reduce_Wtilde(PQSeries(4, 14, 14), 10, 4)
    # a q-series may come in any field inside Q(zeta_L), L = 20 at N = 5
    assert reduce_Uq(QSeries(4, 7), 5, 6).trivial
    with pytest.raises(LevelMismatch, match="3 does not divide 20"):
        reduce_Uq(QSeries(3, 7), 5, 6)
