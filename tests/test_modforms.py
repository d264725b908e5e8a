"""Certified bases of M_k(Gamma_1(N)) and their rational candidate pools."""

import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, descend, in_NZ
from ellgenus.errors import (
    SIZE_BOUND,
    LevelMismatch,
    NotEchelon,
    PrecisionInsufficient,
    RankExceedsDimension,
    SpanFailure,
    TooLarge,
    UnsupportedLevel,
)
from ellgenus import linalg, modforms
from ellgenus.genus import cp_chern, genus, log_phi_series, phi_series
from ellgenus.integers import _product, euler_phi
from ellgenus.modforms import (
    ambient_field_level,
    dim_Mk,
    is_in_span,
    sturm_bound,
    unit_group_exponent,
    weight_basis,
)
from ellgenus.reduce import reduce_Uq
from ellgenus.series import QSeries, bernoulli_number
from oracles import (
    all_characters_by_generators,
    basis_with_denominators,
    default_rows_all_pairs,
    cusp_sum_by_divisors,
    dim_Mk_by_fractions,
    eliminate,
    euler_phi_by_gcd,
    field_basis,
    gamma1_index_by_divisors,
    gen_bernoulli,
    genus_X1_by_fractions,
    rref,
    serialize_by_elements,
    unit_group_exponent_by_generators,
    unit_group_exponent_by_orders,
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
    chars = all_characters_by_generators(4, 4)
    assert len(chars) == 2
    odd = [ch for ch in chars if ch.parity() == -1]
    assert len(odd) == 1
    chi = odd[0]
    assert chi.conductor() == 4
    assert chi.value(3) == Cyclo.from_rational(4, -1)
    assert chi.value(2) == Cyclo(4)


def test_generalized_bernoulli_of_the_odd_character_mod_4():
    chi = [ch for ch in all_characters_by_generators(4, 4) if ch.parity() == -1][0]
    assert gen_bernoulli(chi, 1) == Cyclo.from_rational(4, Fraction(-1, 2))


def test_ambient_field_levels():
    assert ambient_field_level(4) == 4
    assert ambient_field_level(5) == 20
    assert ambient_field_level(6) == 6


def test_unit_group_exponents():
    assert unit_group_exponent(5) == 4
    assert unit_group_exponent(8) == 2
    assert unit_group_exponent(12) == 2


def test_unit_group_exponent_and_index_match_the_generator_oracle():
    for M in range(1, 201):
        assert unit_group_exponent(M) == unit_group_exponent_by_generators(M), M
        assert modforms._gamma1_index(M) == gamma1_index_by_divisors(M), M


def test_closed_forms_match_the_definitional_loops():
    # the index is pinned to its loop above; the loops are O(N^2), so the
    # bound keeps this to seconds
    for N in range(1, 600):
        assert euler_phi(N) == euler_phi_by_gcd(N), N
        assert unit_group_exponent(N) == unit_group_exponent_by_orders(N), N
        if N >= 5:
            assert 2 * modforms._cusp_counts(N)[0] == cusp_sum_by_divisors(N), N


def test_the_integer_dimension_formulas_match_their_fraction_forms():
    def outcome(dimension, N, k):
        try:
            return dimension(N, k)
        except UnsupportedLevel as exc:  # weight 1 off the genus-0 levels
            return str(exc)

    for N in range(4, 600):
        assert modforms._genus_X1(N) == genus_X1_by_fractions(N), N
        for k in range(-1, 13):
            assert outcome(dim_Mk, N, k) == outcome(dim_Mk_by_fractions, N, k), (N, k)


def test_dimension_table():
    assert [dim_Mk(5, k) for k in range(5)] == [1, 2, 3, 4, 5]
    assert [dim_Mk(4, k) for k in range(5)] == [1, 1, 2, 2, 3]
    assert [dim_Mk(6, k) for k in range(4)] == [1, 2, 3, 4]


def test_sturm_bounds():
    assert sturm_bound(5, 2) == 5
    assert sturm_bound(4, 2) == 3
    assert sturm_bound(5, 3) == 7
    assert sturm_bound(6, 2) == 5


@pytest.mark.parametrize("call", [
    lambda: sturm_bound(5, -3),
    lambda: weight_basis(5, -1, 8),
    lambda: reduce_Uq(QSeries.one(5, 8), 5, -2),
], ids=["sturm_bound", "weight_basis", "reduce_Uq"])
def test_a_negative_weight_is_refused_by_name(call):
    # sturm_bound(5, -3) was -5, and the other two failed inside the
    # Eisenstein series of the pool
    with pytest.raises(ValueError, match=r"weight -\d+ is negative"):
        call()


def test_weight_0_stays_valid():
    assert sturm_bound(5, 0) == 1
    assert reduce_Uq(QSeries.one(5, 8), 5, 0).trivial


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
    first = [descend(c, 5).coords[0] for c in basis.elements[0].coeffs]
    assert first == [1, 0, 0, 60, -120, 240, -300, 300]


def test_precision_below_sturm_bound_is_refused():
    with pytest.raises(PrecisionInsufficient):
        weight_basis(5, 2, 4)


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


def _fresh_chains(monkeypatch) -> dict:
    """An empty basis cache for this test, so bases cached by others are rebuilt."""
    monkeypatch.setattr(modforms, "_chains", {})
    return modforms._chains


def _pool_of(N: int, k: int, prec: int) -> list[list[int]]:
    """The default pool of weight k, over the cached bases of the weights below it."""
    return modforms._pool(N, k, prec, [weight_basis(N, w, prec) for w in range(k)])


def test_the_stack_depth_does_not_grow_with_the_weight():
    # each weight once added about three frames: weight 40 needed some 120
    code = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from ellgenus.modforms import sturm_bound, weight_basis\n"
        "print(weight_basis(5, 40, sturm_bound(5, 40)).certificate['rank'])\n"
    )
    src = pathlib.Path(modforms.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(dim_Mk(5, 40))]


def test_a_chain_above_the_size_bound_is_refused_before_any_row(monkeypatch):
    _no_candidate_is_built(monkeypatch)
    # the chain of degree 500 at level 5: about 3 * 10^7 entries
    with pytest.raises(TooLarge, match=f"above the size bound {SIZE_BOUND}"):
        weight_basis(5, 250, sturm_bound(5, 250))
    with pytest.raises(TooLarge):
        weight_basis(4, 2, 10**8)


def test_integrality_and_digest_are_computed_once_on_first_use(monkeypatch):
    # a basis built by the constructor bypasses the cache, so it is fresh
    rows = _pool_of(5, 2, 8)
    basis = modforms.ModFormBasis(5, 2, 8, *linalg._integer_echelon(rows))
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
    chains = _fresh_chains(monkeypatch)
    weight_basis(5, 4, 12)
    assert list(chains) == [(5, 12)] and len(chains[5, 12]) == 5
    assert all(b._elements is None for b in chains[5, 12])


def test_basis_serialization_shape():
    basis = weight_basis(4, 2, 6)
    doc = basis.serialize()
    assert doc["level"] == 4 and doc["weight"] == 2
    assert doc["sturm"] == sturm_bound(4, 2)
    assert len(doc["elements"]) == doc["certificate"]["rank"]


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
    # an input left in its own field Q(zeta_M), M | L, is eliminated there in
    # integers, and its residual at the free columns, lifted, is the field
    # elimination of its lift; is_in_span reads that same elimination
    basis = ELIMINATION_BASES[key]()
    L = basis.field_level
    field_rows = [list(e.coeffs) for e in basis.elements]
    M = data.draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    vec = data.draw(cyclo_vectors(math.gcd(basis.level, M), M, basis.prec))
    want, coefficients = eliminate([x.lift(L) for x in vec], basis.pivots, field_rows)
    S, E = modforms._numerators(vec)
    residual = basis._residual(S)
    assert all(len(z) == euler_phi(M) for z in residual)
    assert [Cyclo(M, [Fraction(a, basis.den * E) for a in z]).lift(L) for z in residual] == \
        [want[c] for c, _ in basis._free]
    assert is_in_span(QSeries(M, basis.prec, vec), basis) == (not any(want), coefficients)


SUPPORTED_LEVELS = (4, 5, 6, 7, 8, 9, 10, 12)


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


def _rank_above_the_dimension(monkeypatch, N, k, prec, name, args):
    """The RankExceedsDimension that the default path of (N, k, prec) raises
    once ``modforms.<name>``, called with arguments that begin with args,
    also gives a monomial row at a free column."""
    basis = weight_basis(N, k, prec)
    free = next(c for c in range(prec) if c not in basis.pivots)
    real = getattr(modforms, name)

    def with_monomial(*got):
        rows = real(*got)
        return rows + [[int(c == free) for c in range(prec)]] if got[:len(args)] == args else rows

    monkeypatch.setattr(modforms, name, with_monomial)
    _fresh_chains(monkeypatch)
    with pytest.raises(RankExceedsDimension) as info:
        weight_basis(N, k, prec)
    return info.value


@pytest.mark.parametrize("N,k,prec", [(5, 3, 7), (7, 3, 13)])
def test_rank_above_the_dimension_is_caught_on_the_default_path(monkeypatch, N, k, prec):
    # the pool of these levels is the M_1 products alone: the row goes in with them
    exc = _rank_above_the_dimension(monkeypatch, N, k, prec, "_pool", (N, k, prec))
    assert (exc.rank, exc.dimension) == (dim_Mk(N, k) + 1, dim_Mk(N, k))


def test_rank_above_the_dimension_is_caught_among_the_eisenstein_series(monkeypatch):
    N, k = 4, 2
    prec = sturm_bound(N, k)
    exc = _rank_above_the_dimension(monkeypatch, N, k, prec, "_e2_rows", (N, prec))
    assert (exc.rank, exc.dimension) == (dim_Mk(N, k) + 1, dim_Mk(N, k))


def test_the_default_pool_builds_eisenstein_series_only_where_the_products_may_not_span(
        monkeypatch):
    # (builder, N, weight of the pool being built) for every series built
    calls, weights = [], []
    real_pool = modforms._pool

    def pool(N, k, prec, chain):
        weights.append(k)
        try:
            return real_pool(N, k, prec, chain)
        finally:
            weights.pop()

    def recorded(name):
        real = getattr(modforms, name)

        def build(N, prec):
            calls.append((name, N, weights[-1]))
            return real(N, prec)
        return build

    _fresh_chains(monkeypatch)
    monkeypatch.setattr(modforms, "_pool", pool)
    for name in ("_hecke_rows", "_e2_rows"):
        monkeypatch.setattr(modforms, name, recorded(name))
    for N in SUPPORTED_LEVELS:
        for k in range(1, 6):
            weight_basis(N, k, sturm_bound(N, k))
    built = {name: {(N, k) for n, N, k in calls if n == name} for name in ("_hecke_rows", "_e2_rows")}
    assert built == {"_hecke_rows": {(N, 1) for N in SUPPORTED_LEVELS}, "_e2_rows": {(4, 2)}}


def _e1_by_scan(N: int, c: int, prec: int) -> list[Fraction]:
    """E1_c by its definition, a scan over the divisors d of each n."""
    return [Fraction(1, 2) - Fraction(c, N)] + [
        sum((d - c) % N == 0 for d in range(1, n + 1) if n % d == 0)
        - sum((d + c) % N == 0 for d in range(1, n + 1) if n % d == 0)
        for n in range(1, prec)
    ]


@pytest.mark.parametrize("N", SUPPORTED_LEVELS)
def test_hecke_series_lie_in_the_character_built_weight_1_space(N):
    prec = sturm_bound(N, 1) + 3
    basis = field_basis(N, 1, prec)
    L = basis.field_level
    rows = modforms._hecke_rows(N, prec)
    assert len(rows) == (N - 1) // 2
    # 1 is not in M_1, so membership forces the constant term 1/2 - c/N
    assert not is_in_span(QSeries.one(L, prec), basis)[0]
    for c, row in enumerate(rows, start=1):
        e1 = _e1_by_scan(N, c, prec)
        assert [Fraction(x, 2 * N) for x in row] == e1, c
        assert is_in_span(QSeries(L, prec, e1), basis)[0], c


@pytest.mark.parametrize("N", SUPPORTED_LEVELS)
def test_a_weight_1_pool_short_of_one_hecke_series_is_refused(monkeypatch, N):
    prec = sturm_bound(N, 1)
    rows, dim = modforms._hecke_rows(N, prec), dim_Mk(N, 1)
    _fresh_chains(monkeypatch)
    for c in range(len(rows)):
        monkeypatch.setattr(modforms, "_hecke_rows", lambda N, prec: rows[:c] + rows[c + 1:])
        with pytest.raises(SpanFailure) as info:
            weight_basis(N, 1, prec)
        assert (info.value.rank, info.value.dimension) == (dim - 1, dim), c


def test_the_weight_1_products_alone_fall_short_at_level_4_weight_2(monkeypatch):
    # M_1(Gamma_1(4)) is a line, so M_1 * M_1 is too: E_2(q) - t E_2(q^t) is needed
    prec = sturm_bound(4, 2)
    (e1,) = weight_basis(4, 1, prec).rows
    monkeypatch.setattr(modforms, "_e2_rows", lambda N, prec: [_product(e1, e1, 0)])
    _fresh_chains(monkeypatch)
    with pytest.raises(SpanFailure) as info:
        weight_basis(4, 2, prec)
    assert (info.value.rank, info.value.dimension) == (1, 2)


@pytest.mark.parametrize("N", SUPPORTED_LEVELS)
def test_serialize_matches_the_elements_view(N):
    for k in range(1, 7):
        basis = weight_basis(N, k, sturm_bound(N, k))
        assert basis.serialize() == serialize_by_elements(basis), k


def test_serialize_does_not_read_the_elements_view(monkeypatch):
    # den 21 and negative entries: every fraction is brought to lowest terms
    basis = basis_with_denominators()
    assert basis.den == 21 and any(x < 0 for row in basis.rows for x in row)
    want = serialize_by_elements(basis)

    def refused(self):
        raise AssertionError("elements read by serialize")

    monkeypatch.setattr(modforms.ModFormBasis, "elements", property(refused))
    assert basis.serialize() == want


def test_the_default_path_runs_no_field_elimination_and_no_series_product(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called on the default path")

    # the integer echelon is the package's one elimination
    assert not hasattr(linalg, "rref") and not hasattr(linalg, "rref_tracked")
    _fresh_chains(monkeypatch)
    monkeypatch.setattr(QSeries, "__mul__", refused)
    basis = weight_basis(7, 4, sturm_bound(7, 4))
    monkeypatch.undo()
    assert basis.rows == weight_basis(7, 4, sturm_bound(7, 4)).rows


@pytest.mark.parametrize("N", SUPPORTED_LEVELS)
def test_the_M1_products_give_the_all_pairs_basis(N):
    # the oracle pool: the character-built Eisenstein series and the
    # products of every pair of weights; N = 4 alone has weight-2 factors
    for k in range(1, 13 if N == 4 else 7):
        basis = weight_basis(N, k, sturm_bound(N, k))
        want = linalg._integer_echelon(default_rows_all_pairs(N, k, basis.prec))
        assert (basis.pivots, basis.rows, basis.den) == want, k


def test_the_cut_pool_is_guarded_by_the_rank_certificate(monkeypatch):
    # the level-4 pool is one product pair per weight, M_2 * M_{k-2}: its
    # dim M_2 * dim M_{k-2} rows certify, and the M_1 * M_{k-1} products it
    # left out fall short alone at (4, 4)
    real, prec = modforms._pool, sturm_bound(4, 4)
    chain = [weight_basis(4, w, prec) for w in range(4)]
    assert len(real(4, 4, prec, chain)) == dim_Mk(4, 2) * dim_Mk(4, 2) == 4

    def m1_products(N, k, prec, chain):
        if k < 4:
            return real(N, k, prec, chain)
        return [_product(f, g, 0) for f in chain[1].rows for g in chain[3].rows]

    monkeypatch.setattr(modforms, "_pool", m1_products)
    _fresh_chains(monkeypatch)
    with pytest.raises(SpanFailure) as info:
        weight_basis(4, 4, prec)
    assert (info.value.rank, info.value.dimension) == (2, 3)


def _no_candidate_is_built(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a candidate was built at an unsupported level")

    for name in ("_hecke_rows", "_e2_rows", "_integer_echelon"):
        monkeypatch.setattr(modforms, name, refused)
    monkeypatch.setattr(linalg, "_integer_echelon", refused)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("N", [11, 53, 97])
def test_an_unsupported_level_is_refused_before_any_candidate_is_built(monkeypatch, N, k):
    # the weight-k series were once built before the weight-1 factor asked
    # for its dimension: --level 97 --degree 4 basis ran for minutes
    _no_candidate_is_built(monkeypatch)
    with pytest.raises(UnsupportedLevel, match="genus-0"):
        weight_basis(N, k, sturm_bound(N, k))


def test_a_basis_is_certified_by_its_constructor():
    basis = weight_basis(5, 2, 8)
    rows, den = basis.rows, basis.den
    rebuilt = modforms.ModFormBasis(5, 2, 8, basis.pivots, rows, den)
    assert rebuilt.certificate == basis.certificate == {"dimension": 3, "rank": 3, "sturm": 5}
    assert rebuilt.field_level == basis.field_level and rebuilt.digest() == basis.digest()
    with pytest.raises(SpanFailure) as info:
        modforms.ModFormBasis(5, 2, 8, basis.pivots[:2], rows[:2], den)
    assert type(info.value) is SpanFailure
    assert (info.value.rank, info.value.dimension) == (2, 3)
    extra = tuple(int(c == 7) for c in range(8))
    with pytest.raises(RankExceedsDimension) as info:
        modforms.ModFormBasis(5, 2, 8, basis.pivots + [7], rows + (extra,), den)
    assert isinstance(info.value, SpanFailure)
    assert (info.value.rank, info.value.dimension) == (4, 3)
    assert "rank 4 exceeds dimension 3" in str(info.value)


def _bad_echelons():
    """(id, pivots, rows, den) of M_2(Gamma_1(5)) at prec 8, each breaking one
    condition of the echelon form that rank = dim counts."""
    basis = weight_basis(5, 2, 8)
    pivots, rows, den = basis.pivots, basis.rows, basis.den
    swapped = [pivots[1], pivots[0], pivots[2]]
    row0_at_pivot1 = (tuple(x + (c == pivots[1]) for c, x in enumerate(rows[0])),) + rows[1:]
    return [
        ("three-equal-rows", [0, 0, 0], ((1,) * 8,) * 3, 1),
        ("short-rows", [0, 1, 2], ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1),
        ("long-row", pivots, rows[:2] + (rows[2] + (0,),), den),
        ("decreasing-pivots", swapped, (rows[1], rows[0], rows[2]), den),
        ("pivot-at-prec", pivots[:2] + [8], rows, den),
        ("negative-pivot", [-1] + pivots[1:], rows, den),
        ("pivot-count", pivots[:2], rows, den),
        ("zero-den", pivots, rows, 0),
        ("negative-den", pivots, tuple(tuple(-x for x in row) for row in rows), -den),
        ("pivot-not-den", pivots, tuple(tuple(2 * x for x in row) for row in rows), den),
        ("pivot-column-not-clear", pivots, row0_at_pivot1, den),
    ]


def test_the_constructor_refuses_rows_that_are_not_a_reduced_echelon_form():
    # the rank certificate counts rows, which is their rank only for an echelon
    # form; three equal rows were once certified at rank 3, and short rows
    # raised a bare IndexError
    accepted = []
    for name, pivots, rows, den in _bad_echelons():
        assert len(rows) == dim_Mk(5, 2), name
        try:
            modforms.ModFormBasis(5, 2, 8, pivots, rows, den)
        except NotEchelon:
            continue
        accepted.append(name)
    assert accepted == []


@pytest.mark.parametrize("N", SUPPORTED_LEVELS)
def test_every_default_basis_is_a_reduced_echelon_form(N):
    for k in range(9):
        basis = weight_basis(N, k, sturm_bound(N, k))
        rebuilt = modforms.ModFormBasis(N, k, basis.prec, basis.pivots, basis.rows, basis.den)
        assert rebuilt.certificate == basis.certificate


def test_integer_echelon_does_not_depend_on_the_candidate_order():
    N, k, prec = 7, 3, 13
    rows = _pool_of(N, k, prec)
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
