"""The level-N genus: characteristic series, Chern pairing, F-hat."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellgenus.cyclo import Cyclo, in_NZ
from ellgenus.errors import (
    BadChernData,
    BadSplitChernData,
    InsufficientXPrecision,
    NonUnitConstantTerm,
    TooLarge,
)
from ellgenus.genus import (
    ChernData,
    SplitChernData,
    chern_product,
    chi_y_cp,
    cp_chern,
    genus,
    genus_bivariate,
    log_phi_series,
    multiplicative_class,
    partitions_of,
    phi_series,
    split_product,
    verify_Q_identity,
)
from ellgenus.series import PQSeries, QSeries, XQSeries

from oracles import chern_product_by_recursion, multiplicative_class_by_powers

# the package exports the function genus, which hides the module of that name
genus_module = importlib.import_module("ellgenus.genus")


def test_partitions_of_small_n():
    assert partitions_of(0) == [()]
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


def test_partitions_of_are_all_the_partitions_in_reverse_lexicographic_order():
    for n, count in enumerate(PARTITION_COUNTS):
        parts = partitions_of(n)
        assert len(parts) == len(set(parts)) == count
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)
        assert parts == sorted(parts, reverse=True)


def test_the_partition_count_is_the_number_of_partitions_and_stops_above_its_limit():
    # the size estimate of a genus counts p(n) without listing the partitions
    for n, count in enumerate(PARTITION_COUNTS):
        assert genus_module._partition_count(n, count) == count
    assert genus_module._partition_count(60, 10**9) == 966467
    # the count stops at the first p(m) above the limit: p(11) = 56 > 50
    assert genus_module._partition_count(1000, 50) == 56


def test_a_genus_above_the_size_bound_is_refused_before_it_is_built():
    genus_module._check_size(12, [(8, 65)], 65)  # genus(CP^8) at the Sturm bound of level 12
    for N, classes, series in (
        (10**12 + 39, [(0, 1)], 1),  # the field alone
        (5, [(60, 121)], 121),  # p(60) = 966467 classes
        (5, [(0, 10**4), (0, 10**4)], 10**8),  # a two-variable rectangle
    ):
        with pytest.raises(TooLarge, match="above the size bound"):
            genus_module._check_size(N, classes, series)


def test_projective_space_chern_numbers():
    assert cp_chern(1).numbers == {(1,): 2}
    assert cp_chern(2).numbers == {(1, 1): 9, (2,): 3}
    assert cp_chern(3).numbers == {(1, 1, 1): 64, (2, 1): 24, (3,): 4}


def test_chern_data_rejects_wrong_degree():
    with pytest.raises(BadChernData):
        ChernData(2, {(1,): 1})


def test_chern_data_rejects_negative_dimensions():
    with pytest.raises(BadChernData):
        ChernData(-1, {})
    for dims in ((-1, 3), (3, -1)):
        with pytest.raises(BadSplitChernData):
            SplitChernData(*dims, {((2,), ()): 5})
    assert SplitChernData(0, 2, {((), (2,)): 5}).numbers == {((), (2,)): 5}


@pytest.mark.parametrize("build", [
    lambda: ChernData(2, {(1, 1): 9.7, (2,): 3}),
    lambda: ChernData(2, {(1, 1): Fraction(19, 2), (2,): 3}),
    lambda: ChernData(2, {(1, 1): 9, (2.7,): 3}),
    lambda: ChernData(2.0, {(1, 1): 9, (2,): 3}),
    lambda: ChernData(2, {(1, 1): True, (2,): 3}),
    lambda: ChernData(2, {(1, 1): 9, (0, 2): 3}),
    lambda: SplitChernData(1, 1, {((1,), (1,)): 2.5}),
    lambda: SplitChernData(1, 1, {((1.5,), (1,)): 2}),
    lambda: SplitChernData(1, 1.0, {((1,), (1,)): 2}),
], ids=["float", "fraction", "float-part", "float-dim", "bool", "zero-part",
        "split-float", "split-float-part", "split-float-dim"])
def test_chern_data_refuses_numbers_that_are_not_exact_integers(build):
    # the parent read 9.7 as 9, so the first genus equalled that of CP^2
    with pytest.raises((BadChernData, BadSplitChernData)):
        build()


def test_chern_data_reads_exact_integers_as_themselves():
    a = ChernData(Fraction(2), {(Fraction(1), 1): Fraction(18, 2), (2,): "3"})
    assert a == cp_chern(2) and type(a.dim) is int
    assert all(type(v) is int for v in a.numbers.values())
    assert SplitChernData(1, 1, {((1,), (1,)): Fraction(4, 2)}).numbers == {((1,), (1,)): 2}


def test_a_string_key_is_one_partition_in_the_file_form():
    # read a character at a time, "21" and "12" would both be (2, 1)
    for key in ("21", "12", "1,2", "1_1,1", " 2,1", "\u0662,1", "2,1,", "2,0,1"):
        with pytest.raises(BadChernData):
            ChernData(3, {key: 5})
    assert ChernData(3, {"2,1": 5, "+1,1,1": 2}) == ChernData(3, {(1, 2): 5, (1, 1, 1): 2})
    assert ChernData(0, {"": 1}) == ChernData(0, {(): 1})


def test_a_split_key_must_be_a_pair_or_a_bar_string():
    # unpacking (1,) would raise a bare ValueError, and iterating the half 1
    # of (1, ()) a bare TypeError, not the typed error
    for key in ((1,), ((1,), (1,), ()), "1|1_1", (1, ())):
        with pytest.raises(BadSplitChernData):
            SplitChernData(1, 1, {key: 3})
    assert SplitChernData(2, 0, {"2": 3, "1,1|": 9}).numbers == {((2,), ()): 3, ((1, 1), ()): 9}


@pytest.mark.parametrize("build, error", [
    (lambda: ChernData(2, {"1,1": 9, "2/2,1": 3, "2": 3}), BadChernData),
    (lambda: ChernData(3, {(2, 1): 24, (1, 2): 24, (3,): 4}), BadChernData),
    (lambda: SplitChernData(2, 0, {"2": 3, "2|": 3}), BadSplitChernData),
    (lambda: SplitChernData(1, 1, {((1,), (1,)): 2, ("1", "1"): 2}), BadSplitChernData),
], ids=["file-form", "tuple-order", "split-bar", "split-tuple"])
def test_two_keys_for_one_partition_are_refused(build, error):
    # the values were added up, so the first read as {"1,1": 12, "2": 3}
    with pytest.raises(error, match="two keys name"):
        build()


def test_a_key_that_is_neither_a_tuple_nor_a_string_is_refused():
    # iterating the int 1 raised a bare TypeError, not the typed error
    with pytest.raises(BadChernData):
        ChernData(1, {1: 5})


def _file_key(part):
    return ",".join(map(str, part))


def _numbers(keys):
    return st.dictionaries(keys, st.integers(-10**30, 10**30), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), _numbers(st.sampled_from(partitions_of(n))))))
def test_file_form_keys_read_as_the_tuple_keys(case):
    n, numbers = case
    from_text = ChernData(n, {_file_key(k): v for k, v in numbers.items()})
    assert from_text == ChernData(n, numbers) == ChernData(n, {k[::-1]: v for k, v in numbers.items()})


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(lambda dims: st.tuples(
    st.just(dims), _numbers(st.tuples(st.sampled_from(partitions_of(dims[0])),
                                      st.sampled_from(partitions_of(dims[1])))))))
def test_split_file_form_keys_read_as_the_tuple_keys(case):
    (dim0, dim1), numbers = case
    # a key with mu = () is written without the bar, as a file may give it
    text = {_file_key(lam) + ("|" + _file_key(mu) if mu else ""): v
            for (lam, mu), v in numbers.items()}
    assert SplitChernData(dim0, dim1, text).numbers == SplitChernData(dim0, dim1, numbers).numbers


def test_whitney_product_of_two_cp1():
    prod = chern_product(cp_chern(1), cp_chern(1))
    assert prod.numbers == {(1, 1): 8, (2,): 4}


def test_chern_product_is_symmetric():
    a, b = cp_chern(1), cp_chern(2)
    assert chern_product(a, b).numbers == chern_product(b, a).numbers


def _chern_data():
    return st.integers(0, 5).flatmap(lambda n: st.builds(
        ChernData, st.just(n),
        st.dictionaries(st.sampled_from(partitions_of(n)), st.integers(-20, 20))))


@settings(max_examples=80, deadline=None)
@given(_chern_data(), _chern_data())
@example(cp_chern(5), cp_chern(5))
@example(ChernData(0, {}), ChernData(3, {(2, 1): 7}))
def test_chern_product_matches_the_recursion_oracle(a, b):
    # the same numbers, keys and key order as walking every splitting alone
    got = chern_product(a, b).numbers
    assert list(got.items()) == list(chern_product_by_recursion(a, b).numbers.items())


def test_phi_zero_is_one():
    for N in (4, 5, 6):
        assert phi_series(N, 3, 8)[0] == QSeries.one(N, 8)


def test_phi_is_undefined_at_level_1():
    # y = -zeta_1 = -1 makes 1 + y = 0, so a(q) does not exist
    with pytest.raises(NonUnitConstantTerm):
        phi_series(1, 3, 4)
    with pytest.raises(NonUnitConstantTerm):
        genus(cp_chern(1), 1, 4)


def test_multiplicative_class_of_quadratic_series():
    # phi(x) = 1 + x + x^2 gives K_1 = sigma_1 and K_2 = sigma_1^2 - sigma_2
    phi = XQSeries.from_x_poly(5, 3, 2, [1, 1, 1])
    k1 = multiplicative_class(phi.log(), 1)
    assert set(k1) == {(1,)}
    assert k1[(1,)] == QSeries.one(5, 2)
    k2 = multiplicative_class(phi.log(), 2)
    one = QSeries.one(5, 2)
    assert k2[(1, 1)] == one
    assert k2[(2,)] == -one


@pytest.mark.parametrize("N", [4, 5, 7, 12])
def test_multiplicative_class_matches_the_power_series_oracle(N):
    # the recurrence keeps every monomial the powers of A produce, zero or not
    for n in range(7):
        ell = log_phi_series(N, n + 2, 6)
        got = multiplicative_class(ell, n)
        assert got == multiplicative_class_by_powers(ell, n)


@pytest.mark.parametrize("N", [4, 5, 7])
def test_the_class_does_not_depend_on_the_x_precision(N):
    # the genus caches each class by (N, prec_q, n) and reads log phi to x^n only
    for n in range(5):
        assert (multiplicative_class(log_phi_series(N, n + 1, 6), n)
                == multiplicative_class(log_phi_series(N, n + 3, 6), n))


def test_multiplicative_class_needs_x_precision():
    phi = XQSeries.from_x_poly(5, 2, 2, [1, 1])
    with pytest.raises(InsufficientXPrecision):
        multiplicative_class(phi.log(), 2)


def test_genus_cp1_level5_frozen_expansion():
    got = genus(cp_chern(1), 5, 6).serialize()
    assert got == [
        ["3/5", "6/5", "4/5", "2/5"],
        ["2/1", "4/1", "2/1", "2/1"],
        ["2/1", "4/1", "4/1", "0/1"],
        ["2/1", "4/1", "0/1", "4/1"],
        ["0/1", "0/1", "2/1", "-2/1"],
        ["2/1", "4/1", "2/1", "2/1"],
    ]


def test_genus_cp2_level4_frozen_expansion():
    got = genus(cp_chern(2), 4, 6).serialize()
    assert got == [
        ["-1/2", "0/1"],
        ["-6/1", "0/1"],
        ["-12/1", "0/1"],
        ["-24/1", "0/1"],
        ["-12/1", "0/1"],
        ["-36/1", "0/1"],
    ]


def test_genus_coefficients_are_N_integral():
    for N in (4, 5):
        for data in (cp_chern(1), cp_chern(3)):
            g = genus(data, N, 8)
            assert all(in_NZ(c) for c in g.coeffs)


def test_genus_is_multiplicative_on_products():
    a, b = cp_chern(1), cp_chern(2)
    left = genus(chern_product(a, b), 5, 8)
    right = genus(a, 5, 8) * genus(b, 5, 8)
    assert left == right


def test_chi_y_oracle_matches_q0_coefficient():
    for N in (4, 5):
        for n in (1, 2, 3):
            assert genus(cp_chern(n), N, 3)[0] == chi_y_cp(n, N)


def test_chi_y_cp1_is_the_paper_value():
    # (1 + zeta) / (1 - zeta) at N = 5
    z = Cyclo.zeta(5)
    one = Cyclo.from_rational(5, 1)
    assert chi_y_cp(1, 5) == (one + z) * (one - z).inv()


def test_bundle_identity_for_the_characteristic_series():
    assert verify_Q_identity(5, 4, 6)
    assert verify_Q_identity(4, 3, 5)


def test_the_bundle_identity_fails_for_a_wrong_characteristic_series(monkeypatch):
    real = genus_module.phi_series
    assert verify_Q_identity(5, 4, 8)

    def bumped(N, prec_x, prec_q):
        zero, q = QSeries.zero(N, prec_q), QSeries(N, prec_q, [0, 1])
        return real(N, prec_x, prec_q) + XQSeries([zero, zero, q], prec_x)

    monkeypatch.setattr(genus_module, "phi_series", bumped)
    assert not verify_Q_identity(5, 4, 8)


@settings(max_examples=25)
@given(
    N=st.integers(2, 12),
    prec_x=st.integers(1, 5),
    prec_q=st.integers(1, 7),
)
@example(N=2, prec_x=1, prec_q=1)
@example(N=12, prec_x=5, prec_q=7)
def test_closed_form_log_phi_matches_the_q_product(N, prec_x, prec_q):
    # exp of the closed-form log phi, times Q(0), against Q built as a product
    assert verify_Q_identity(N, prec_x, prec_q)


def test_bivariate_degenerates_to_genus_when_one_factor_is_trivial():
    # dim1 = 0: the q-variable carries no weight, p-row reproduces genus
    a = cp_chern(2)
    sp = split_product(a, cp_chern(0))
    F = genus_bivariate(sp, 5, 6, 6)
    assert F.q_column(0) == genus(a, 5, 6)


def test_bivariate_swap_transposes_the_rectangle():
    sp = split_product(cp_chern(1), cp_chern(2))
    F = genus_bivariate(sp, 5, 6, 6)
    swapped = {(mu, lam): v for (lam, mu), v in sp.numbers.items()}
    G = genus_bivariate(SplitChernData(sp.dim1, sp.dim0, swapped), 5, 6, 6)
    assert G == PQSeries(5, 6, 6, [F.q_column(j) for j in range(6)])


def test_bivariate_coefficients_are_N_integral():
    sp = split_product(cp_chern(1), cp_chern(1))
    F = genus_bivariate(sp, 5, 5, 5)
    assert all(in_NZ(F[i, j]) for i in range(5) for j in range(5))
