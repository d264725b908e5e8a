"""The level-N genus: characteristic series, Chern pairing, F-hat."""

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
from ellgenus.series import QSeries, XQSeries

from oracles import multiplicative_class_by_powers


def test_partitions_of_small_n():
    assert partitions_of(0) == [()]
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )


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
    # unpacking (1,) would raise a bare ValueError, not the typed error
    for key in ((1,), ((1,), (1,), ()), "1|1_1"):
        with pytest.raises(BadSplitChernData):
            SplitChernData(1, 1, {key: 3})
    assert SplitChernData(2, 0, {"2": 3, "1,1|": 9}).numbers == {((2,), ()): 3, ((1, 1), ()): 9}


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
    assert set(k1.terms) == {(1,)}
    assert k1.terms[(1,)] == QSeries.one(5, 2)
    k2 = multiplicative_class(phi.log(), 2)
    one = QSeries.one(5, 2)
    assert k2.terms[(1, 1)] == one
    assert k2.terms[(2,)] == -one


@pytest.mark.parametrize("N", [4, 5, 7, 12])
def test_multiplicative_class_matches_the_power_series_oracle(N):
    # the recurrence keeps every monomial the powers of A produce, zero or not
    for n in range(7):
        ell = log_phi_series(N, n + 2, 6)
        got = multiplicative_class(ell, n).terms
        assert got == multiplicative_class_by_powers(ell, n).terms


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
    G = genus_bivariate(sp.swap(), 5, 6, 6)
    assert G == F.transpose()


def test_bivariate_coefficients_are_N_integral():
    sp = split_product(cp_chern(1), cp_chern(1))
    F = genus_bivariate(sp, 5, 5, 5)
    assert all(in_NZ(F[i, j]) for i in range(5) for j in range(5))
