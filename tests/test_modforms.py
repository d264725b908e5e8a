"""Dirichlet characters, Eisenstein series, and certified bases."""

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, descend, euler_phi, in_NZ
from ellgenus.errors import (
    BadLevelDivisibility,
    LevelMismatch,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    UnsupportedLevel,
)
from ellgenus import linalg, modforms
from ellgenus.genus import cp_chern, genus, log_phi_series, phi_series
from ellgenus.modforms import (
    all_characters,
    ambient_field_level,
    bernoulli_number,
    dim_Mk,
    eisenstein,
    eisenstein_candidates,
    gen_bernoulli,
    is_in_span,
    primitive_characters,
    sturm_bound,
    unit_group_exponent,
    weight_basis,
)
from ellgenus.series import QSeries
from oracles import (
    all_characters_by_generators,
    basis_with_denominators,
    eisenstein_by_scan,
    eliminate,
    field_basis,
    gamma1_index_by_primes,
    rational_rref,
    rref,
    unit_group_exponent_by_generators,
)


def test_bernoulli_numbers():
    got = [bernoulli_number(n) for n in range(9)]
    assert got == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
    ]


def test_characters_mod_4():
    chars = all_characters(4, 4)
    assert len(chars) == 2
    odd = [ch for ch in chars if ch.parity() == -1]
    assert len(odd) == 1
    chi = odd[0]
    assert chi.conductor() == 4
    assert chi.value(3) == Cyclo.from_rational(4, -1)
    assert chi.value(2) == Cyclo(4)


def test_eisenstein_needs_moduli_times_t_to_divide_the_level():
    chi = [ch for ch in all_characters(4, 4) if ch.parity() == -1][0]
    trivial = all_characters(1, 4)[0]
    assert eisenstein(trivial, chi, 2, 1, 5, 8).prec == 5
    with pytest.raises(BadLevelDivisibility):
        eisenstein(trivial, chi, 3, 1, 5, 8)
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be >= 1"):
            eisenstein(trivial, chi, t, 1, 5, 8)


def test_generalized_bernoulli_of_the_odd_character_mod_4():
    chi = [ch for ch in all_characters(4, 4) if ch.parity() == -1][0]
    assert gen_bernoulli(chi, 1) == Cyclo.from_rational(4, Fraction(-1, 2))


def test_ambient_field_levels():
    assert ambient_field_level(4) == 4
    assert ambient_field_level(5) == 20
    assert ambient_field_level(6) == 6


def test_unit_group_exponents():
    assert unit_group_exponent(5) == 4
    assert unit_group_exponent(8) == 2
    assert unit_group_exponent(12) == 2


def test_characters_by_extension_match_the_generator_oracle():
    for M in range(1, 201):
        assert unit_group_exponent(M) == unit_group_exponent_by_generators(M), M
        assert modforms._gamma1_index(M) == gamma1_index_by_primes(M), M
    for N in range(4, 61):
        L = ambient_field_level(N)
        for d in (d for d in range(1, N + 1) if N % d == 0):
            chars = all_characters_by_generators(d, L)
            assert [c.key() for c in all_characters(d, L)] == [c.key() for c in chars], (N, d)
            assert [c.key() for c in primitive_characters(d, L)] == [
                c.key() for c in chars if c.is_primitive()
            ], (N, d)


def test_characters_need_a_field_level_that_the_exponent_divides():
    # the generator walk returned four trivial tables at L = 2, and tables
    # that are not characters at L = 6 (one had chi(1) = zeta_6^4)
    for L in (2, 6):
        with pytest.raises(ValueError, match="not a multiple of the exponent 4"):
            all_characters(5, L)
    assert len(all_characters(5, 4)) == 4 and len(all_characters(5, 40)) == 4


def test_dimension_table():
    assert [dim_Mk(5, k) for k in range(5)] == [1, 2, 3, 4, 5]
    assert [dim_Mk(4, k) for k in range(5)] == [1, 1, 2, 2, 3]
    assert [dim_Mk(6, k) for k in range(4)] == [1, 2, 3, 4]


def test_sturm_bounds():
    assert sturm_bound(5, 2) == 5
    assert sturm_bound(4, 2) == 3
    assert sturm_bound(5, 3) == 7
    assert sturm_bound(6, 2) == 5


def test_levels_below_4_are_rejected():
    with pytest.raises(UnsupportedLevel):
        sturm_bound(3, 2)
    with pytest.raises(UnsupportedLevel):
        dim_Mk(2, 2)


def test_basis_rank_certificates():
    for N in (4, 5, 6):
        for k in (1, 2, 3):
            basis = weight_basis(N, k, max(sturm_bound(N, k), 6))
            cert = basis.certificate
            assert cert["rank"] == cert["dimension"] == dim_Mk(N, k)
            assert len(basis.elements) == cert["rank"]


def test_basis_is_echelonized_with_unit_pivots():
    basis = weight_basis(5, 2, 8)
    for i, (elem, piv) in enumerate(zip(basis.elements, basis.pivots)):
        assert elem.coeffs[piv] == Cyclo.from_rational(basis.field_level, 1)
        for other in basis.pivots[:i]:
            assert not elem.coeffs[other]


def test_basis_elements_are_N_integral():
    for N, k in ((4, 2), (5, 2), (5, 3)):
        basis = weight_basis(N, k, max(sturm_bound(N, k), 6))
        for elem in basis.elements:
            for c in elem.coeffs:
                down = descend(c, N)
                assert down is not None and in_NZ(down)


def test_weight2_level5_frozen_leading_element():
    basis = weight_basis(5, 2, 8)
    first = [descend(c, 5).rational_part() for c in basis.elements[0].coeffs]
    assert first == [1, 0, 0, 60, -120, 240, -300, 300]


def test_precision_below_sturm_bound_is_refused():
    with pytest.raises(PrecisionInsufficient):
        weight_basis(5, 2, 4)


def test_span_failure_on_a_starved_candidate_pool():
    pool = eisenstein_candidates(5, 2, 8)[:1]
    with pytest.raises(SpanFailure) as info:
        weight_basis(5, 2, 8, candidates=pool)
    assert info.value.rank < info.value.dimension


def test_rank_above_the_dimension_is_a_typed_error():
    # the monomials q^0 .. q^4 are independent, but dim M_2(Gamma_1(5)) = 3
    L = ambient_field_level(5)
    monomials = [QSeries(L, 5, [0] * n + [1]) for n in range(5)]
    with pytest.raises(RankExceedsDimension) as info:
        weight_basis(5, 2, 5, candidates=monomials)
    assert isinstance(info.value, SpanFailure)
    assert (info.value.rank, info.value.dimension) == (5, 3)
    assert "rank 5 exceeds dimension 3" in str(info.value)


def test_a_pool_shorter_than_prec_is_refused():
    with pytest.raises(PrecisionInsufficient, match="candidate 0 has 6 coefficients < prec 8"):
        weight_basis(5, 2, 8, candidates=eisenstein_candidates(5, 2, 6))


def test_a_pool_longer_than_prec_is_read_to_prec():
    basis = weight_basis(5, 2, 8, candidates=eisenstein_candidates(5, 2, 12))
    assert basis.prec == 8 and basis.rows == weight_basis(5, 2, 8).rows


def test_a_short_candidate_in_a_mixed_pool_is_refused():
    pool = eisenstein_candidates(5, 2, 8) + eisenstein_candidates(5, 2, 6)[:1]
    with pytest.raises(PrecisionInsufficient, match="candidate 3 has 6 coefficients < prec 8"):
        weight_basis(5, 2, 8, candidates=pool)


def test_phi_coefficients_are_modular():
    for N in (4, 5):
        for n in (1, 2, 3):
            prec = max(sturm_bound(N, n), 8)
            phi = phi_series(N, n + 1, prec)
            ok, coeffs = is_in_span(phi[n], weight_basis(N, n, prec))
            assert ok
            assert len(coeffs) == dim_Mk(N, n)


def test_log_phi_coefficients_are_modular():
    for N in (4, 5, 6, 7, 8):
        for k in (1, 2, 3, 4):
            prec = max(sturm_bound(N, k), 8)
            ell = log_phi_series(N, k + 1, prec)
            ok, _ = is_in_span(ell[k], weight_basis(N, k, prec))
            assert ok, (N, k)


def test_is_in_span_returns_coefficients_in_the_ambient_field():
    # the series is eliminated at its own level; the coefficients are lifted
    basis = weight_basis(5, 3, 7)
    g = genus(cp_chern(2), 5, 7)
    probe = QSeries(5, 7, [0] * 4 + [Fraction(1, 7)])
    for s in (basis.elements[1], g, probe, g + probe):
        ok, coeffs = is_in_span(s, basis)
        lifted = is_in_span(s.lift(basis.field_level), basis)
        assert (ok, coeffs) == lifted
        assert all(c.level == basis.field_level for c in coeffs)
    with pytest.raises(LevelMismatch):
        is_in_span(QSeries(3, 7), basis)


def test_is_in_span_rejects_non_members():
    basis = weight_basis(5, 2, 8)
    coeffs = [Cyclo(5)] * 8
    coeffs[3] = Cyclo.from_rational(5, Fraction(1, 7))
    probe = QSeries(5, 8, coeffs)
    # q^3 support alone cannot be matched by the echelon tails exactly
    ok, _ = is_in_span(probe, basis)
    assert not ok


def test_weight_basis_results_are_cached():
    a = weight_basis(5, 2, 8)
    b = weight_basis(5, 2, 8)
    assert a is b


def test_integrality_and_digest_are_computed_once_on_first_use(monkeypatch):
    # an explicit pool bypasses the cache, so the basis is freshly built
    basis = weight_basis(5, 2, 8, candidates=eisenstein_candidates(5, 2, 8))
    assert basis._elements is None and basis._digest is None
    text = json.dumps(basis.serialize(), sort_keys=True)
    assert basis.digest() == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert basis._digest == basis.digest() and basis.elements is basis.elements
    # the view is shared by every reader of a cached basis, so it is immutable
    assert isinstance(basis.elements, tuple)
    integral = all(
        (down := descend(c, 5)) is not None and in_NZ(down)
        for e in basis.elements
        for c in e.coeffs
    )
    assert basis.is_integral() is integral
    # the factor bases of a default build are read only as integer rows
    fresh = functools.lru_cache(maxsize=None)(modforms._weight_basis_cached.__wrapped__)
    monkeypatch.setattr(modforms, "_weight_basis_cached", fresh)
    weight_basis(5, 4, 12)
    built = fresh.cache_info().currsize
    assert all(fresh(5, k, 12)._elements is None for k in range(1, 5))
    assert fresh.cache_info().currsize == built


def test_basis_serialization_shape():
    basis = weight_basis(4, 2, 6)
    doc = basis.serialize()
    assert doc["level"] == 4 and doc["weight"] == 2
    assert doc["sturm"] == sturm_bound(4, 2)
    assert len(doc["elements"]) == doc["certificate"]["rank"]


def test_a_full_rank_pool_with_an_irrational_echelon_is_not_Mk():
    basis = weight_basis(5, 2, 8)
    L = basis.field_level
    pool = list(basis.elements)
    # rank and dimension still agree, but the span is no longer Galois-stable
    pool[1] = pool[1] + QSeries(L, 8, [0] * 7 + [Cyclo.zeta(L)])
    assert weight_basis(5, 2, 8, candidates=basis.elements).rows == basis.rows
    with pytest.raises(SpanFailure) as info:
        weight_basis(5, 2, 8, candidates=pool)
    assert (info.value.rank, info.value.dimension) == (3, 3)
    assert "not rational" in str(info.value)


def test_integer_rows_reproduce_the_elements():
    for N, k, prec in ((5, 3, 7), (9, 2, 13), (12, 2, 17)):
        basis = weight_basis(N, k, prec)
        L = basis.field_level
        assert [list(e.coeffs) for e in basis.elements] == [
            [Cyclo.from_rational(L, Fraction(x, basis.den)) for x in row]
            for row in basis.rows
        ]


# (N, weight, prec): the ambient field is Q(zeta_20), Q(zeta_42), Q(zeta_18)
# and, at N = 12, Q(zeta_N) itself; "denominators" is the D = 21 basis
ELIMINATION_BASES = {
    "5-3-7": lambda: weight_basis(5, 3, 7),
    "7-3-13": lambda: weight_basis(7, 3, 13),
    "9-2-13": lambda: weight_basis(9, 2, 13),
    "12-2-17": lambda: weight_basis(12, 2, 17),
    "denominators": basis_with_denominators,
}
numerators = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30)
)
denominators = st.one_of(st.integers(1, 30), st.integers(1, 10**20))


@st.composite
def cyclo_vectors(draw, N, L, prec):
    """prec values at level L, each zero, drawn at level L or drawn at level N and lifted."""
    out = []
    for _ in range(prec):
        kind = draw(st.sampled_from(["zero", "L", "N"]))
        if kind == "zero":
            out.append(Cyclo(L))
            continue
        level = L if kind == "L" else N
        coords = draw(st.lists(
            st.builds(Fraction, numerators, denominators),
            min_size=euler_phi(level), max_size=euler_phi(level),
        ))
        out.append(Cyclo(level, coords).lift(L))
    return out


def test_integrality_reads_the_common_denominator():
    assert weight_basis(5, 2, 8).den == 1 and weight_basis(5, 2, 8).is_integral()
    basis = basis_with_denominators()
    assert basis.den == 21 and not basis.is_integral()
    basis = basis_with_denominators(Fraction(1, 25), Fraction(-3, 5))
    assert basis.den == 25 and basis.is_integral()


@pytest.mark.parametrize("key", sorted(ELIMINATION_BASES))
@settings(max_examples=25)
@given(data=st.data())
def test_integer_elimination_matches_the_field_oracle(key, data):
    basis = ELIMINATION_BASES[key]()
    L = basis.field_level
    field_rows = [list(e.coeffs) for e in basis.elements]
    vec = data.draw(cyclo_vectors(basis.level, L, basis.prec))
    want = eliminate(vec, basis.pivots, field_rows)
    assert basis.eliminate(vec) == want
    # an input left in its own field Q(zeta_M), M | L, is eliminated there,
    # and lifting the results gives the elimination of its lift
    M = data.draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    vec = data.draw(cyclo_vectors(M, M, basis.prec))
    want = eliminate([x.lift(L) for x in vec], basis.pivots, field_rows)
    residual, coefficients = basis.eliminate(vec)
    assert all(x.level == M for x in residual + coefficients)
    assert ([x.lift(L) for x in residual], [x.lift(L) for x in coefficients]) == want


SUPPORTED_LEVELS = (4, 5, 6, 7, 8, 9, 10, 12)


def test_eisenstein_sieve_matches_the_divisor_scan(monkeypatch):
    calls = []
    real = modforms.eisenstein

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(modforms, "eisenstein", recorded)
    for N in SUPPORTED_LEVELS:
        for k in (1, 2, 3, 4):
            eisenstein_candidates(N, k, sturm_bound(N, k) + 2)
    assert any(args[3] == 2 and args[0].modulus == args[1].modulus == 1 for args, _ in calls)
    for args, out in calls:
        assert out == eisenstein_by_scan(*args), args


# (N, k, prec): every supported level and weight k <= 4 at the Sturm bound,
# and two bases above it
DIFFERENTIAL_BASES = [
    (N, k, sturm_bound(N, k)) for N in SUPPORTED_LEVELS for k in (1, 2, 3, 4)
] + [(5, 2, 8), (7, 3, 13)]


@pytest.mark.parametrize("N,k,prec", DIFFERENTIAL_BASES)
def test_integer_built_basis_matches_the_field_build(N, k, prec):
    got, want = weight_basis(N, k, prec), field_basis(N, k, prec)
    assert (got.pivots, got.rows, got.den) == (want.pivots, want.rows, want.den)
    assert got.elements == want.elements
    assert got.digest() == want.digest()


@pytest.mark.parametrize("N,k,prec", [(5, 3, 7), (7, 3, 13)])
def test_rank_above_the_dimension_is_caught_on_the_default_path(monkeypatch, N, k, prec):
    basis = weight_basis(N, k, prec)
    free = next(c for c in range(prec) if c not in basis.pivots)
    monomial = QSeries(basis.field_level, prec, [0] * free + [1])
    real = modforms.eisenstein_candidates

    def with_monomial(*args):
        out = real(*args)
        return out + [monomial] if args == (N, k, prec) else out

    monkeypatch.setattr(modforms, "eisenstein_candidates", with_monomial)
    modforms._weight_basis_cached.cache_clear()
    try:
        with pytest.raises(RankExceedsDimension) as info:
            weight_basis(N, k, prec)
    finally:
        modforms._weight_basis_cached.cache_clear()
    assert (info.value.rank, info.value.dimension) == (dim_Mk(N, k) + 1, dim_Mk(N, k))


def test_the_default_path_runs_no_field_elimination_and_no_series_product(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called on the default path")

    # the integer echelon is the package's one elimination
    assert not hasattr(linalg, "rref") and not hasattr(linalg, "rref_tracked")
    fresh = functools.lru_cache(maxsize=None)(modforms._weight_basis_cached.__wrapped__)
    monkeypatch.setattr(modforms, "_weight_basis_cached", fresh)
    monkeypatch.setattr(QSeries, "__mul__", refused)
    basis = weight_basis(7, 4, sturm_bound(7, 4))
    monkeypatch.undo()
    assert basis.rows == weight_basis(7, 4, sturm_bound(7, 4)).rows


def test_integer_echelon_does_not_depend_on_the_candidate_order():
    N, k, prec = 7, 3, 13
    rows = modforms._default_rows(N, k, prec)
    want = linalg._integer_echelon(rows)
    assert len(want[1]) == dim_Mk(N, k)
    basis = weight_basis(N, k, prec)
    free = next(c for c in range(prec) if c not in basis.pivots)
    outside = rows + [[int(c == free) for c in range(prec)]]
    for seed in (1, 2):
        shuffled = random.Random(seed).sample(rows, len(rows))
        assert linalg._integer_echelon(shuffled) == want
        shuffled = random.Random(seed).sample(outside, len(outside))
        assert len(linalg._integer_echelon(shuffled)[1]) == dim_Mk(N, k) + 1


@settings(max_examples=60)
@given(st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10**12, 10**12)),
             min_size=6, max_size=6),
    max_size=7,
))
def test_integer_echelon_is_the_reduced_echelon_form_over_Q(matrix):
    pivots, rows, den = linalg._integer_echelon(matrix)
    want_pivots, want = rref([[Fraction(x) for x in row] for row in matrix])
    assert pivots == want_pivots
    assert [[Fraction(x, den) for x in row] for row in rows] == want
    assert den > 0 and math.gcd(den, *(x for row in rows for x in row)) == 1


def test_a_mixed_level_pool_gives_one_basis_in_every_order():
    # the (5, 2, 8) basis is rational, so its elements also live at level 5
    basis = weight_basis(5, 2, 8)
    at_5 = [QSeries(5, 8, [descend(c, 5) for c in e.coeffs]) for e in basis.elements]
    pool = [*at_5[:2], *basis.elements[1:]]
    for order in itertools.permutations(pool):
        got = weight_basis(5, 2, 8, candidates=order)
        assert (got.pivots, got.rows, got.den) == (basis.pivots, basis.rows, basis.den)
    with pytest.raises(LevelMismatch):
        weight_basis(5, 2, 8, candidates=pool + [QSeries(3, 8, [1])])


@st.composite
def field_elements(draw, L):
    """A sum of one or two rational multiples of powers of zeta_L."""
    out = Cyclo(L)
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        out = out + Cyclo.zeta(L, draw(st.integers(0, L - 1))) * r
    return out


@st.composite
def perturbed_pools(draw, basis):
    """Q(zeta_L) or Q combinations of the basis elements, one of them perturbed
    at one q-exponent by zeta_L or a rational, or a monomial q^j added."""
    L, prec, dim = basis.field_level, basis.prec, len(basis.elements)
    scalars = draw(st.sampled_from([
        field_elements(L), st.fractions(-3, 3, max_denominator=4)
    ]))
    pool = []
    for _ in range(draw(st.one_of(st.just(dim), st.integers(0, dim + 1)))):
        coeffs = [Cyclo(L)] * prec
        for e in basis.elements:
            c = draw(scalars)
            coeffs = [a + c * b for a, b in zip(coeffs, e.coeffs)]
        pool.append(coeffs)
    kind = draw(st.sampled_from(["none", "irrational", "rational", "monomial"]))
    j = draw(st.integers(0, prec - 1))
    if kind == "monomial":
        pool.append([0] * j + [1] + [0] * (prec - j - 1))
    elif kind != "none" and pool:
        coeffs = pool[draw(st.integers(0, len(pool) - 1))]
        x = Cyclo.zeta(L) if kind == "irrational" else draw(
            st.fractions(-3, 3, max_denominator=7).filter(bool)
        )
        coeffs[j] = coeffs[j] + x
    return [QSeries(L, prec, coeffs) for coeffs in draw(st.permutations(pool))]


def _echelon_or_failure(build):
    """(pivots, rows, den), or the failure's (type, rank, dimension)."""
    try:
        return build()
    except SpanFailure as exc:
        return type(exc), exc.rank, exc.dimension


@pytest.mark.parametrize("N,k,prec", [(5, 2, 8), (9, 2, 13), (12, 2, 17), (7, 3, 13)])
@settings(max_examples=15)
@given(data=st.data())
def test_explicit_pools_match_the_field_rref_oracle(N, k, prec, data):
    pool = data.draw(perturbed_pools(weight_basis(N, k, prec)))

    def built():
        basis = weight_basis(N, k, prec, candidates=pool)
        return basis.pivots, basis.rows, basis.den

    want = _echelon_or_failure(lambda: rational_rref(pool, N, k, dim_Mk(N, k)))
    assert _echelon_or_failure(built) == want
