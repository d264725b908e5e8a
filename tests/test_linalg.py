"""Exact elimination: the field rref oracle and its tracked form, eliminate,
and descent, whose tables the integer echelon builds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus import cyclo
from ellgenus.cyclo import Cyclo, descend
from ellgenus.integers import euler_phi
from ellgenus.modforms import ambient_field_level
from oracles import descent_echelon, eliminate, rref, rref_tracked

entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# sparse entries, so that rank-deficient matrices come up often
sparse = st.one_of(st.just(Fraction(0)), entries)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(sparse, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def combine(coeffs, rows, width):
    out = [Fraction(0)] * width
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


@settings(max_examples=60)
@given(rows=matrices())
def test_tracked_transform_reproduces_reduced_rows(rows):
    pivots, reduced, tags = rref_tracked(rows)
    assert (pivots, reduced) == rref(rows)
    assert len(tags) == len(reduced)
    for tag, row in zip(tags, reduced):
        assert combine(tag, rows, len(row)) == row


@settings(max_examples=60)
@given(rows=matrices(), data=st.data())
def test_rref_width_restricts_pivot_columns(rows, data):
    width = data.draw(st.integers(0, len(rows[0])))
    pivots, reduced = rref(rows, width)
    assert all(col < width for col in pivots)
    assert pivots == sorted(pivots)
    for col, row in zip(pivots, reduced):
        assert row[col] == 1
        assert all(other[col] == 0 for other in reduced if other is not row)
    # the pivots are those of the leading width columns alone
    assert pivots == rref([r[:width] for r in rows])[0]


@settings(max_examples=60)
@given(rows=matrices(), data=st.data())
def test_eliminate_reconstructs_vector(rows, data):
    pivots, reduced = rref(rows)
    vec = data.draw(st.lists(entries, min_size=len(rows[0]), max_size=len(rows[0])))
    residual, coeffs = eliminate(vec, pivots, reduced)
    assert all(residual[col] == 0 for col in pivots)
    rebuilt = [a + b for a, b in zip(residual, combine(coeffs, reduced, len(vec)))]
    assert rebuilt == vec


DESCENT_PAIRS = [(20, 5), (42, 7), (12, 4), (12, 6), (36, 9), (42, 14)]


@settings(max_examples=60)
@given(pair=st.sampled_from(DESCENT_PAIRS), data=st.data())
def test_descend_inverts_lift(pair, data):
    L, n = pair
    coords = data.draw(st.lists(entries, min_size=euler_phi(n), max_size=euler_phi(n)))
    a = Cyclo(n, coords)
    assert descend(a.lift(L), n) == a


def test_descend_rejects_elements_outside_the_subfield():
    for L, n in DESCENT_PAIRS:
        assert descend(Cyclo.zeta(L), n) is None
        assert descend(Cyclo.zeta(n).lift(L) + Cyclo.zeta(L), n) is None


@pytest.mark.parametrize("N", [4, 5, 6, 7, 8, 9, 10, 12])
def test_descent_tables_match_the_tracked_rref_build(N):
    L = ambient_field_level(N)
    for n in range(1, L + 1):
        if L % n == 0:
            assert cyclo._descent_echelon(L, n) == descent_echelon(L, n), (L, n)
