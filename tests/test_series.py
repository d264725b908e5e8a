"""Truncated power series: q-series, (p, q)-rectangles, x-polynomials."""

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
from ellgenus.series import (
    PQSeries,
    QSeries,
    XQSeries,
    exp_x,
    project_q0,
    todd_coefficients,
    todd_series,
)

from oracles import xq_exp_by_powers, xq_log_by_powers


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


def test_level_and_precision_mismatches_raise():
    with pytest.raises(LevelMismatch):
        qs(4, 1, 2) + qs(5, 1, 2)
    with pytest.raises(PrecMismatch):
        qs(4, 1, 2) * qs(4, 1, 2, 3)


def test_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        XQSeries([qs(5, 1, 0), qs(5, 0, 1)]).exp()
    with pytest.raises(BadConstantTerm):
        XQSeries([qs(5, 0, 1), qs(5, 1, 0)]).log()


def test_shift_substitutes_q_power():
    s = qs(5, 1, 2, 3, 0, 0, 0)
    assert s.shift(2) == qs(5, 1, 0, 2, 0, 3, 0)


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=4, max_size=4
)


@settings(max_examples=30, deadline=None)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_qseries_ring_axioms(a, b, c):
    A, B, C = (qs(5, *v) for v in (a, b, c))
    assert A * (B + C) == A * B + A * C
    assert (A * B) * C == A * (B * C)
    assert A + B == B + A


@settings(max_examples=30, deadline=None)
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


@st.composite
def xq_without_constant_term(draw):
    """An XQSeries with x^0 coefficient 0, over Q or over Q(zeta_N)."""
    N = draw(st.sampled_from([4, 5, 7]))
    width = draw(st.sampled_from([1, euler_phi(N)]))
    prec_x, prec_q = draw(st.integers(2, 5)), draw(st.integers(1, 4))

    def coefficient():
        return Cyclo(N, draw(st.lists(small_fractions, min_size=width, max_size=width)))

    rows = [QSeries.zero(N, prec_q)] + [
        QSeries(N, prec_q, [coefficient() for _ in range(prec_q)]) for _ in range(1, prec_x)
    ]
    return XQSeries(rows, prec_x)


@settings(max_examples=40, deadline=None)
@given(a=xq_without_constant_term())
def test_xqseries_exp_and_log_match_the_power_series_oracle(a):
    e = a.exp()
    assert e == xq_exp_by_powers(a)
    assert e.log() == xq_log_by_powers(e) == a


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


def test_project_q0_kills_positive_q_support():
    F = PQSeries(5, 3, 3)
    rows = [list(r) for r in F.rows]
    rows[1][2] = Cyclo.from_rational(5, 7)
    F = PQSeries(5, 3, 3, rows)
    assert project_q0(F).is_zero()


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
