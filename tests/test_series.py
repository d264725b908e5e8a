"""Truncated power series: q-series, (p, q)-rectangles, x-polynomials."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, euler_phi
from ellgenus.errors import (
    BadConstantTerm,
    LevelMismatch,
    NonUnitConstantTerm,
    PrecMismatch,
)
from ellgenus.genus import log_phi_series, multiplicative_class
from ellgenus.series import (
    PQSeries,
    QSeries,
    XQSeries,
    _product,
    exp_x,
    project_q0,
    todd_coefficients,
    todd_series,
)

from oracles import (
    integer_product_by_loops,
    pqseries_mul_by_loops,
    qseries_inv_by_loops,
    qseries_mul_by_loops,
    todd_coefficients_by_loops,
    xq_exp_by_loops,
    xq_exp_by_powers,
    xq_log_by_loops,
    xq_log_by_powers,
    xqseries_inv_by_loops,
    xqseries_mul_by_loops,
)


def qs(level, *vals):
    return QSeries(level, len(vals), [Cyclo.from_rational(level, v) for v in vals])


def test_geometric_series_inversion():
    s = qs(5, 1, -1, 0, 0, 0)
    inv = s.inv()
    assert inv == qs(5, 1, 1, 1, 1, 1)


def test_inverse_of_nonunit_raises():
    with pytest.raises(NonUnitConstantTerm):
        qs(5, 0, 1, 0).inv()


def test_mul_truncates_consistently():
    a = qs(4, 1, 2, 3)
    b = qs(4, 4, 5, 6)
    assert a * b == qs(4, 4, 13, 28)


# Each carrier at level N with n coefficients, and the carriers it must not mix with.
CARRIERS = {
    "QSeries": (lambda N, n: qs(N, *range(1, n + 1)), ["PQSeries"]),
    "PQSeries": (lambda N, n: PQSeries.outer(qs(N, *range(1, n + 1)), qs(N, 2, -1)),
                 ["QSeries", "XQSeries"]),
    "XQSeries": (lambda N, n: XQSeries([qs(N, k, 1) for k in range(1, n + 1)]), ["PQSeries"]),
}


@pytest.mark.parametrize("carrier", CARRIERS)
def test_level_and_precision_mismatches_raise(carrier):
    make, strangers = CARRIERS[carrier]
    a = make(4, 2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(LevelMismatch):
            op(a, make(5, 2))
        with pytest.raises(PrecMismatch):
            op(a, make(4, 3))
        for other in strangers:
            with pytest.raises(TypeError):
                op(a, CARRIERS[other][0](4, 2))
    # a scalar adds to the t^0 coefficient and multiplies every coefficient
    scalars = (3, Fraction(-2, 3), Cyclo.zeta(4))
    if carrier == "XQSeries":
        scalars += (qs(4, 5, 7),)  # a q-series is a scalar for series in x
    for c in scalars:
        assert (a + c).coeffs == (a.coeffs[0] + c,) + a.coeffs[1:]
        assert (c + a) == (a + c) and (a - c) == -(c - a)
        assert (a * c).coeffs == tuple(x * c for x in a.coeffs) == (c * a).coeffs


def test_a_scalar_of_another_level_or_shape_is_unequal():
    # == answers False where the arithmetic raises
    assert (QSeries(5, 3, [1, 2]) == Cyclo.zeta(7)) is False
    assert (PQSeries(5, 2, 2, [[1]]) == Cyclo.zeta(7)) is False
    assert (XQSeries([QSeries(5, 3, [1])]) == QSeries(5, 4)) is False
    assert (XQSeries([QSeries(5, 3, [1])]) == QSeries(7, 3, [1])) is False
    assert QSeries(5, 3, [1, 2]) != Cyclo.zeta(7)
    assert XQSeries([QSeries(5, 3, [1])]) != QSeries(5, 4)
    # a scalar of the right level and shape still compares by value
    assert XQSeries([QSeries(5, 3, [1])]) == QSeries(5, 3, [1])


def test_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        XQSeries([qs(5, 1, 0), qs(5, 0, 1)]).exp()
    with pytest.raises(BadConstantTerm):
        XQSeries([qs(5, 0, 1), qs(5, 1, 0)]).log()


def test_shift_substitutes_q_power():
    s = qs(5, 1, 2, 3, 0, 0, 0)
    assert s.shift(2) == qs(5, 1, 0, 2, 0, 3, 0)
    assert s.shift(1) == s
    assert s.shift(7) == qs(5, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("t", [0, -1])
def test_shift_refuses_t_below_one(t):
    with pytest.raises(ValueError, match="t >= 1"):
        qs(5, 1, 2, 3, 4, 5).shift(t)


@pytest.mark.parametrize("build", [
    lambda: XQSeries([QSeries.one(5, 3)], 0),
    lambda: exp_x(5, 0, 3),
    lambda: PQSeries.deserialize(5, []),
    lambda: multiplicative_class(log_phi_series(5, 3, 4), -1),
], ids=["xqseries-prec_x-0", "exp_x-prec_x-0", "pqseries-no-rows", "class-degree-minus-1"])
def test_empty_truncations_and_negative_degrees_are_refused(build):
    with pytest.raises(ValueError):
        build()


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=4, max_size=4
)


@settings(max_examples=30)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_qseries_ring_axioms(a, b, c):
    A, B, C = (qs(5, *v) for v in (a, b, c))
    assert A * (B + C) == A * B + A * C
    assert (A * B) * C == A * (B * C)
    assert A + B == B + A


@settings(max_examples=30)
@given(a=coeff_lists, b=coeff_lists)
def test_truncation_commutes_with_multiplication(a, b):
    A, B = qs(5, *a), qs(5, *b)
    assert (A * B).truncate(2) == A.truncate(2) * B.truncate(2)


def test_todd_coefficients():
    assert todd_coefficients(5) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]


def test_todd_series_inverts_its_defining_factor():
    # td(x) * (1 - e^{-x})/x == 1
    td = todd_series(5, 5, 3)
    em = exp_x(5, 6, 3, -1)
    one = XQSeries.one(5, 6, 3)
    # x^0 of (1 - e^-x) vanishes, so dropping it divides by x
    factor = XQSeries([(one[k] - em[k]) for k in range(1, 6)])
    assert td * factor == XQSeries.one(5, 5, 3)


def test_xqseries_exp_log_roundtrip():
    one = QSeries.one(5, 4)
    zero = QSeries.zero(5, 4)
    ell = XQSeries([zero, qs(5, 1, 2, 0, 1), qs(5, Fraction(-1, 2), 0, 3, 0)])
    assert ell.exp().log() == ell


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


LEVELS = [4, 5, 7, 12]


@st.composite
def q_series(draw, N, prec):
    """A QSeries over Q or Q(zeta_N); it, or any coefficient, may be zero."""
    if draw(st.integers(0, 4)) == 0:
        return QSeries.zero(N, prec)
    width = draw(st.sampled_from([1, euler_phi(N)]))
    return QSeries(N, prec, [
        Cyclo(N, draw(st.lists(small_fractions, min_size=width, max_size=width)))
        for _ in range(prec)
    ])


@st.composite
def xq_series(draw, N, prec_x, prec_q):
    return XQSeries([draw(q_series(N, prec_q)) for _ in range(prec_x)], prec_x)


@st.composite
def xq_without_constant_term(draw):
    """An XQSeries with x^0 coefficient 0, over Q or over Q(zeta_N)."""
    N = draw(st.sampled_from(LEVELS))
    prec_x, prec_q = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    a = draw(xq_series(N, prec_x, prec_q))
    return XQSeries([QSeries.zero(N, prec_q)] + list(a.coeffs[1:]), prec_x)


@settings(max_examples=40)
@given(a=xq_without_constant_term())
def test_xqseries_exp_and_log_match_the_power_series_oracle(a):
    e = a.exp()
    assert e == xq_exp_by_powers(a) == xq_exp_by_loops(a)
    assert e.log() == xq_log_by_powers(e) == xq_log_by_loops(e) == a


def test_pqseries_outer_and_projections():
    fp = qs(5, 1, 2, 3)
    fq = qs(5, 4, 5)
    F = PQSeries.outer(fp, fq)
    assert F.p_row(0) == qs(5, 4, 5)
    assert F.q_column(0) == qs(5, 4, 8, 12)
    assert project_q0(F) == F.q_column(0)
    assert F.transpose() == PQSeries.outer(fq, fp)


def test_pqseries_multiplication_matches_outer_factorization():
    fp, gp = qs(5, 1, 1, 0), qs(5, 2, 0, 1)
    fq, gq = qs(5, 1, 3), qs(5, 1, -1)
    left = PQSeries.outer(fp, fq) * PQSeries.outer(gp, gq)
    right = PQSeries.outer(fp * gp, fq * gq)
    assert left == right


def test_pqseries_refuses_a_qseries_row_of_another_q_precision():
    # cutting the first would drop q^3 and q^4; padding the second would invent a q^2 of 0
    for row in (QSeries(5, 5, [1, 2, 3, 4, 5]), QSeries(5, 2, [1, 2])):
        with pytest.raises(PrecMismatch):
            PQSeries(5, 2, 3, [row])
    # a list row keeps the cut-or-pad reading of QSeries(level, prec, coeffs)
    assert PQSeries(5, 2, 3, [[1, 2, 3, 4, 5]]) == PQSeries(5, 2, 3, [QSeries(5, 3, [1, 2, 3])])
    assert PQSeries(5, 2, 3, [[1, 2]]).rows[0] == QSeries(5, 3, [1, 2, 0]).coeffs


def test_project_q0_kills_positive_q_support():
    F = PQSeries(5, 3, 3)
    rows = [list(r) for r in F.rows]
    rows[1][2] = Cyclo.from_rational(5, 7)
    F = PQSeries(5, 3, 3, rows)
    assert project_q0(F).is_zero()


@pytest.mark.parametrize("data", [
    [[[1, 0, 0, 0], [2, 0, 0, 0]], [[3, 0, 0, 0]]],
    [[[1, 0, 0, 0]], [[3, 0, 0, 0], [4, 0, 0, 0], [5, 0, 0, 0]]],
], ids=["short-row", "long-row"])
def test_pqseries_deserialize_refuses_ragged_rows(data):
    with pytest.raises(ValueError, match="rows differ in length"):
        PQSeries.deserialize(5, data)


def test_series_serialize_roundtrip():
    s = qs(5, Fraction(1, 3), -2, Fraction(7, 25))
    data = s.serialize()
    rebuilt = QSeries(5, 3, [Cyclo.deserialize(5, c) for c in data])
    assert rebuilt == s


def test_deserializers_read_numbers_exactly():
    with pytest.raises(ValueError, match="not an exact number"):
        QSeries.deserialize(5, [[0.2, 0, 0, 0]])
    with pytest.raises(ValueError, match="not an exact number"):
        PQSeries.deserialize(5, [[[0, True, 0, 0]]])
    with pytest.raises(ValueError, match="not an exact number"):
        Cyclo.deserialize(5, [Fraction(1, 5), 0, 0, 0])
    # only an optional sign, digits and an optional "/digits" are read:
    # Fraction would also take exponents, decimals, spaces and underscores
    for text in ("1e4000000", "0.2", "1/5 ", " 7", "1_000", "+-1", "1/-5", "٣"):
        with pytest.raises(ValueError, match="not an exact number"):
            Cyclo.deserialize(5, [text, 0, 0, 0])
    assert Cyclo.deserialize(5, ["+3", "-2/6", "0", 4]) == Cyclo(5, [3, Fraction(-1, 3), 0, 4])
    s = QSeries.deserialize(5, [["1/5", 0, 0, 0], [0, "-3/7", 2, 0]])
    assert s == QSeries(5, 2, [
        Cyclo.from_rational(5, Fraction(1, 5)),
        Cyclo(5, [0, Fraction(-3, 7), 2, 0]),
    ])
    assert QSeries.deserialize(5, s.serialize()) == s
    assert QSeries.deserialize(5, s.serialize()).serialize() == s.serialize()
    F = PQSeries(5, 2, 2, [[s[0], s[1]], [s[1], s[0]]])
    assert PQSeries.deserialize(5, F.serialize()).serialize() == F.serialize()


def test_deserializers_refuse_a_string_for_a_list_of_coordinates():
    # "12" would otherwise read as the coordinates 1 and 2, i.e. 1 + 2 zeta_5
    with pytest.raises(ValueError, match="not a list of coordinates"):
        Cyclo.deserialize(5, "12")
    with pytest.raises(ValueError, match="not a list of coordinates"):
        QSeries.deserialize(5, ["12", ["1/2"]])
    with pytest.raises(ValueError, match="not a list of coordinates"):
        PQSeries.deserialize(5, [["12"]])
    assert Cyclo.deserialize(5, ("1", "2")) == Cyclo(5, [1, 2])


def test_constructors_refuse_floats():
    # the binary value of 0.2 is 3602879701896397/18014398509481984, not 1/5
    for build in (lambda: Cyclo(5, [0.2]), lambda: Cyclo.from_rational(5, 0.2),
                  lambda: QSeries(5, 2, [0.5, 0.1]), lambda: Cyclo(5, [True])):
        with pytest.raises(ValueError, match="not an exact number"):
            build()
    assert Cyclo(5, [Fraction(1, 5), 2, "-3/6"]).coords[:3] == (Fraction(1, 5), 2, Fraction(-1, 2))
    assert QSeries(5, 2, [Fraction(1, 2), "1/10"]) == QSeries.deserialize(5, [["1/2"], ["1/10"]])
    # arithmetic still reads Python's numbers as Python does
    assert Cyclo.from_rational(5, 1) == True and Cyclo(5) + True == 1


def test_constructors_read_strings_by_the_exact_rule():
    # Fraction("1e200000") would build a 664,386-bit integer
    for text in ("1e200000", "0.2", " 7"):
        with pytest.raises(ValueError, match="not an exact number"):
            Cyclo(5, [text])
        with pytest.raises(ValueError, match="not an exact number"):
            Cyclo.from_rational(5, text)


# The kernels against the loops they replaced, over Q and over Q(zeta_N).
@settings(max_examples=60)
@given(st.data())
def test_qseries_product_and_inverse_match_the_loop_oracles(data):
    N, prec = data.draw(st.sampled_from(LEVELS)), data.draw(st.integers(1, 7))
    a, b = data.draw(q_series(N, prec)), data.draw(q_series(N, prec))
    assert a * b == qseries_mul_by_loops(a, b)
    if a[0]:
        assert a.inv() == qseries_inv_by_loops(a)


@settings(max_examples=40)
@given(st.data())
def test_pqseries_product_matches_the_loop_oracle(data):
    N = data.draw(st.sampled_from(LEVELS))
    prec_p, prec_q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))

    def rectangle():
        return PQSeries(N, prec_p, prec_q, [data.draw(q_series(N, prec_q)).coeffs
                                            for _ in range(prec_p)])

    a, b = rectangle(), rectangle()
    assert a * b == pqseries_mul_by_loops(a, b)


@settings(max_examples=40)
@given(st.data())
def test_xqseries_product_and_inverse_match_the_loop_oracles(data):
    N = data.draw(st.sampled_from(LEVELS))
    prec_x, prec_q = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    a = data.draw(xq_series(N, prec_x, prec_q))
    b = data.draw(xq_series(N, prec_x, prec_q))
    assert a * b == xqseries_mul_by_loops(a, b)
    if a[0][0]:
        assert a.inv() == xqseries_inv_by_loops(a)


def test_todd_coefficients_match_the_loop_oracle():
    for prec_x in range(1, 13):
        assert todd_coefficients(prec_x) == todd_coefficients_by_loops(prec_x)


@settings(max_examples=60)
@given(st.data())
def test_integer_product_matches_the_loop_oracle(data):
    prec = data.draw(st.integers(1, 9))
    row = st.lists(st.integers(-50, 50) | st.just(0), min_size=prec, max_size=prec)
    f, g = data.draw(row), data.draw(row)
    assert _product(f, g, 0) == integer_product_by_loops(f, g, prec)
