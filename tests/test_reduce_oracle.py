"""The quotient reductions against the two paths they replaced.

``reduce_Uq`` eliminates an input whose level divides N in Q(zeta_N) and
lifts only the recorded coefficients and constant to Q(zeta_L); the field
oracle lifts every input to Q(zeta_L) first.  ``reduce_Uq`` also decides in
integers end to end, where the Cyclo oracle builds, descends and reduces one
field element per free column.  Each must serialize to the same bytes.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellgenus import cyclo
from ellgenus.cyclo import Cyclo, descend
from ellgenus.integers import euler_phi
from ellgenus.modforms import _numerators, is_in_span, sturm_bound, weight_basis
from ellgenus.reduce import _fused, _plan, reduce_Uq, reduce_Wtilde
from ellgenus.series import PQSeries, QSeries
from oracles import (
    basis_with_denominators,
    cyclo_reduce_Uq,
    cyclo_reduce_Wtilde,
    eliminate,
    field_reduce_Uq,
    field_reduce_Wtilde,
    reducing_over,
    residual_of_one,
    y_by_two_passes,
)

# (N, weight, prec); the ambient level L is 20, 42 and, at N = 12, N itself
BASES = ((5, 3, 7), (7, 3, 13), (12, 2, 17))
numerators = st.integers(-9, 9)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def element(data, level, dens):
    coords = [Fraction(data.draw(numerators), data.draw(st.sampled_from(dens)))
              for _ in range(euler_phi(level))]
    return Cyclo(level, coords)


def draw_series(data, N, basis, level, trivial=None):
    """A series at level, trivial by construction or (bumped) perhaps not.

    A trivial one is a basis combination, a constant and an N-integral
    series, each with coefficients in Q(zeta_level); the N-integral part is
    drawn in Q(zeta_gcd(level, N)), whose N-integral elements lie in
    Z[1/N, zeta_N].  Half the draws are arbitrary series instead.  With
    trivial=True every draw is trivial by construction; with trivial=False
    every draw is arbitrary or bumped.
    """
    prec = basis.prec
    if trivial is not True and data.draw(st.booleans()):
        return QSeries(level, prec, [element(data, level, (1, 2, 3, 7, 10))
                                     for _ in range(prec)])
    coeffs = [Cyclo(level)] * prec
    for row in basis.rows:
        c = element(data, level, (1, 2, 3, 7, N))
        coeffs = [a + c * Fraction(x, basis.den) for a, x in zip(coeffs, row)]
    coeffs[0] = coeffs[0] + element(data, level, (1, 3, 7))
    inner = next(d for d in sorted(divisors(level), reverse=True) if N % d == 0)
    coeffs = [a + element(data, inner, (1, N, N**3)).lift(level) for a in coeffs]
    if trivial is False or (trivial is None and data.draw(st.booleans())):
        j = data.draw(st.integers(0, prec - 1))
        bump = Cyclo.zeta(level, data.draw(st.integers(0, level - 1))) * Fraction(
            data.draw(st.sampled_from((1, -1))), 3)
        coeffs[j] = coeffs[j] + bump
    return QSeries(level, prec, coeffs)


def as_bytes(cls):
    return json.dumps(cls.serialize(), sort_keys=True)


# every plan at the supported levels up to weight 4, at the Sturm bound
PLANS = [(N, k, sturm_bound(N, k)) for N in (4, 5, 6, 7, 8, 9, 10, 12) for k in range(5)]


@pytest.mark.parametrize("key", PLANS, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=4)
@given(data=st.data())
def test_fused_rows_give_the_two_pass_numerators(key, data):
    # the plan's rows fold the elimination and the c* residual into one dot
    # product per coordinate; read in the input's field, and lifted to L, they
    # give what the residual and then Q * u - P * u* gave
    N, _, prec = key
    plan = _plan(*key)
    L = plan.basis.field_level
    for level in sorted({N, L}):
        coeffs = [element(data, level, (1, 2, 3, 7, N, N**2)) for _ in range(prec)]
        S, _ = _numerators(coeffs)
        y, at_star = y_by_two_passes(S, plan)
        assert _fused(S, level, level, plan) == (y, at_star)
        got_y, got_star = _fused(S, level, L, plan)
        assert [list(z) for z in got_y] == [list(Cyclo(level, z).lift(L).num) for z in y]
        assert (got_star is None) == (at_star is None)
        if at_star is not None:
            assert list(got_star) == list(Cyclo(level, at_star).lift(L).num)


@pytest.mark.parametrize("key", BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=8)
@given(data=st.data())
def test_residuals_vanish_at_every_pivot(key, data):
    # the reduction forms cosets only at the free columns of its plan
    N, _, prec = key
    basis, plan = weight_basis(*key), _plan(*key)
    L = basis.field_level
    one_res, gamma, free = residual_of_one(*key)
    assert sorted(free + tuple(basis.pivots)) == list(range(prec))
    assert not any(one_res[p] for p in basis.pivots)
    # r read off row 0 of the integer matrix is the Cyclo elimination of 1,
    # whose basis coefficients are (1, 0, ..., 0)
    assert plan.free == tuple((c, one_res[c]) for c in free)
    assert gamma == (1,) + (0,) * (len(basis.pivots) - 1)
    rows = [list(e.coeffs) for e in basis.elements]
    for level in (N, L):
        s = draw_series(data, N, basis, level)
        S, E = _numerators(s.coeffs)
        residual = [Cyclo(level, [Fraction(a, basis.den * E) for a in z]).lift(L)
                    for z in basis._residual(S)]
        # the field elimination at L is zero at every pivot and leaves the
        # same residual at the free columns; is_in_span reads the same one
        want, _ = eliminate([c.lift(L) for c in s.coeffs], basis.pivots, rows)
        assert not any(want[p] for p in basis.pivots)
        assert residual == [want[c] for c in free]
        assert is_in_span(s, basis)[0] == (not any(want))


@pytest.mark.parametrize("key", BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=10)
@given(data=st.data())
def test_a_series_in_the_span_reduces_trivially(key, data):
    # a basis combination, moved or not at one column, in Q(zeta_N) or
    # Q(zeta_L); a move at a pivot keeps it in the span
    N, weight, prec = key
    basis = weight_basis(*key)
    level = data.draw(st.sampled_from((N, basis.field_level)))
    coeffs = [Cyclo(level)] * prec
    for row in basis.rows:
        c = element(data, level, (1, 2, 3, 7, 10))
        coeffs = [a + c * Fraction(x, basis.den) for a, x in zip(coeffs, row)]
    if data.draw(st.booleans()):
        j = data.draw(st.sampled_from([*basis.pivots, *range(prec)]))
        coeffs[j] = coeffs[j] + element(data, level, (1, 2, 3, 7, 10))
    s = QSeries(level, prec, coeffs)
    if is_in_span(s, basis)[0]:
        assert reduce_Uq(s, N, 2 * weight, prec).trivial


@pytest.mark.parametrize("N", (4, 5, 6, 7, 8, 9, 10, 12))
def test_every_default_basis_has_the_pivot_0_first(N):
    # M_k(Gamma_1(N)) holds a form with a nonzero constant term: 1 at k = 0,
    # E_2(q) - t E_2(q^t) at k = 2, else an Eisenstein series E_k^{1,phi};
    # the reduction plan reads the residual of 1 off row 0 on that ground
    # the default bases are N-integral too, so every verdict over them is complete
    for k in range(7):
        basis = weight_basis(N, k, sturm_bound(N, k))
        assert basis.pivots[0] == 0 and basis.is_integral(), k


def assert_matches_the_oracle(s, N, degree, L):
    got = as_bytes(reduce_Uq(s, N, degree))
    assert got == as_bytes(field_reduce_Uq(s, N, degree))
    # the field that carries the input does not change the answer
    assert as_bytes(reduce_Uq(s.lift(L), N, degree)) == got


# exact: the exact constant solve finds a constant and the class is trivial;
# fallback: it finds none, and the c* constant writes the report
@pytest.mark.parametrize("verdict", ("exact", "fallback"))
@pytest.mark.parametrize("key", BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=15)
@given(data=st.data())
def test_reduce_Uq_matches_the_field_oracle(key, verdict, data):
    N, weight, prec = key
    basis = weight_basis(*key)
    L = basis.field_level
    # every divisor of L: N, its proper divisors, L, and levels between
    level = data.draw(st.sampled_from(divisors(L)))
    s = draw_series(data, N, basis, level, trivial=verdict == "exact")
    trivial = reduce_Uq(s, N, 2 * weight).trivial
    if verdict == "exact":
        # the default bases are N-integral, so a trivial draw reads trivial
        assert trivial
    else:
        # an arbitrary or bumped draw may still be trivial; keep the others
        assume(not trivial)
    assert_matches_the_oracle(s, N, 2 * weight, L)


@settings(max_examples=15)
@given(data=st.data())
def test_reduce_Uq_matches_the_field_oracle_over_a_basis_that_is_not_N_integral(data):
    basis = basis_with_denominators()
    L = basis.field_level
    s = draw_series(data, 5, basis, data.draw(st.sampled_from(divisors(L))))
    with reducing_over(basis):
        assert_matches_the_oracle(s, 5, 4, L)


@pytest.mark.parametrize("key", BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=8)
@given(data=st.data())
def test_reduce_Wtilde_matches_the_field_oracle(key, data):
    N, weight, prec = key
    basis = weight_basis(*key)
    carrier = data.draw(st.sampled_from(divisors(N)))
    rows = [[Cyclo(carrier)] * prec for _ in range(prec)]
    rows[0] = list(draw_series(data, N, basis, carrier).coeffs)
    for i, c in enumerate(draw_series(data, N, basis, carrier).coeffs[1:], 1):
        rows[i][0] = c
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(1, prec - 1)), data.draw(st.integers(1, prec - 1))
        rows[i][j] = element(data, carrier, (1, 2, N, N**2))
    F = PQSeries(carrier, prec, prec, rows)
    assert as_bytes(reduce_Wtilde(F, N, 2 * weight)) == \
        as_bytes(field_reduce_Wtilde(F, N, 2 * weight))


def test_a_column_off_Q_zeta_N_where_r_vanishes_is_nontrivial():
    # at (5, 4, 9) the residual of 1 vanishes at free columns, and zeta_20 has
    # Q(zeta_5) part 0: only its complement shows it is not 5-integral
    c = next(c for c, r in _plan(5, 4, 9).free if not r)
    coeffs = [Cyclo(20)] * 9
    coeffs[c] = Cyclo.zeta(20)
    s = QSeries(20, 9, coeffs)
    cls = reduce_Uq(s, 5, 8)
    assert not cls.trivial and cls.cosets[c] is None
    assert as_bytes(cls) == as_bytes(field_reduce_Uq(s, 5, 8))


# (N, weight, prec) for the Cyclo oracle: at weight 0 the residual r of 1
# vanishes and there is no c*; at N = 12 the ambient field is Q(zeta_N)
# itself, so nothing descends; at N = 9 it is Q(zeta_18)
CYCLO_BASES = BASES + ((5, 0, 4), (7, 0, 3), (9, 2, 13))


def assert_matches_the_cyclo_path(s, N, degree):
    cls = reduce_Uq(s, N, degree)
    assert as_bytes(cls) == as_bytes(cyclo_reduce_Uq(s, N, degree))
    return cls


@pytest.mark.parametrize("key", CYCLO_BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=15)
@given(data=st.data())
def test_reduce_Uq_matches_the_cyclo_path(key, data):
    # a level dividing N is reduced in Q(zeta_N), any other divisor of L in Q(zeta_L)
    N, weight, _ = key
    basis = weight_basis(*key)
    assert (_plan(*key).star is None) == (weight == 0)
    s = draw_series(data, N, basis, data.draw(st.sampled_from(divisors(basis.field_level))))
    assert_matches_the_cyclo_path(s, N, 2 * weight)


# the keys whose ambient field is larger than Q(zeta_N): not N = 12 (L = N)
# nor N = 9 (Q(zeta_18) = Q(zeta_9))
@pytest.mark.parametrize("key", [b for b in CYCLO_BASES if b[0] not in (9, 12)],
                         ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=10)
@given(data=st.data())
def test_reduce_Uq_matches_the_cyclo_path_off_Q_zeta_N(key, data):
    # zeta_L times a rational at a free column other than c* moves y there off
    # Q(zeta_N), whatever the c* constant; the rest of the draw lies in it
    N, weight, _ = key
    basis, plan = weight_basis(*key), _plan(*key)
    L = basis.field_level
    s = draw_series(data, N, basis, L, trivial=True)
    c_star = plan.star[0] if plan.star else None
    c = data.draw(st.sampled_from([c for c, _ in plan.free if c != c_star]))
    coeffs = list(s.coeffs)
    coeffs[c] = coeffs[c] + Cyclo.zeta(L) * Fraction(data.draw(st.sampled_from((1, -2, 3))),
                                                     data.draw(st.sampled_from((1, 7, N))))
    cls = assert_matches_the_cyclo_path(QSeries(L, s.prec, coeffs), N, 2 * weight)
    assert not cls.trivial and cls.cosets[c] is None


@settings(max_examples=15)
@given(data=st.data())
def test_reduce_Uq_matches_the_cyclo_path_over_a_basis_that_is_not_N_integral(data):
    basis = basis_with_denominators()
    assert basis.den == 21
    s = draw_series(data, 5, basis, data.draw(st.sampled_from(divisors(basis.field_level))))
    with reducing_over(basis):
        assert_matches_the_cyclo_path(s, 5, 4)


@pytest.mark.parametrize("key", CYCLO_BASES, ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=8)
@given(data=st.data())
def test_reduce_Wtilde_matches_the_cyclo_path(key, data):
    N, weight, prec = key
    basis = weight_basis(*key)
    carrier = data.draw(st.sampled_from(divisors(N)))
    rows = [[Cyclo(carrier)] * prec for _ in range(prec)]
    rows[0] = list(draw_series(data, N, basis, carrier).coeffs)
    for i, c in enumerate(draw_series(data, N, basis, carrier).coeffs[1:], 1):
        rows[i][0] = c
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(1, prec - 1)), data.draw(st.integers(1, prec - 1))
        rows[i][j] = element(data, carrier, (1, 2, N, N**2))
    F = PQSeries(carrier, prec, prec, rows)
    assert as_bytes(reduce_Wtilde(F, N, 2 * weight)) == \
        as_bytes(cyclo_reduce_Wtilde(F, N, 2 * weight))


@pytest.mark.parametrize("key", [(5, 3, 7), (7, 3, 13)], ids=lambda b: "-".join(map(str, b)))
@settings(max_examples=10)
@given(data=st.data())
def test_the_integer_descent_reads_the_scale_of_its_table(key, data):
    # every descent table at the supported levels has scale 1; f times each
    # of its integer columns over f times its scale is the same projection,
    # so the reduction must not change when it reads that table instead; a
    # series drawn in Q(zeta_N) and carried at level L reaches the descent
    # with every y_c in Q(zeta_N), where the off-subfield test reads the scale;
    # descend reads the same kernel, in and out of Q(zeta_N)
    N, weight, _ = key
    basis = weight_basis(*key)
    L = basis.field_level
    s = draw_series(data, N, basis, data.draw(st.sampled_from((N, L))))
    s = QSeries(L, s.prec, [c.lift(L) for c in s.coeffs])
    want = as_bytes(cyclo_reduce_Uq(s, N, 2 * weight))
    probes = [*s.coeffs, Cyclo.zeta(L), Cyclo.zeta(L) * Fraction(1, 3)]
    want_down = [descend(x, N) for x in probes]
    f = data.draw(st.sampled_from((2, 3, 35)))
    pivots, off, tags, scale = cyclo._descent_echelon(L, N)
    table = (pivots, [(j, tuple(f * x for x in column)) for j, column in off],
             [tuple(f * x for x in column) for column in tags], f * scale)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclo, "_descent_echelon", lambda K, n: table)
        assert as_bytes(reduce_Uq(s, N, 2 * weight)) == want
        assert [descend(x, N) for x in probes] == want_down
