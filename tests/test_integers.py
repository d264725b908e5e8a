"""The integer layer: the exact integer reader and the bound on factoring."""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.errors import SIZE_BOUND, TooLarge
from ellgenus.integers import _integer, _prime_factors
from oracles import integer_by_rational

_SIGNS = st.sampled_from(["", "+", "-"])
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=30)
_SIGNED = st.builds(str.__add__, _SIGNS, _DIGITS)
_TEXTS = st.one_of(
    _SIGNED,
    st.builds("{}/{}".format, _SIGNED, _DIGITS),  # "a/0" when the digits are zeros
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]), _SIGNED,
              st.sampled_from(["", " ", "\n"])),
    st.sampled_from([
        "٤", "-٤٢", "1٤", "1_2", "+-1", "", "-", "1/", "/2", "1/0", "-0/0", "1.0", "2e3",
        "0x10", "1" * 5000, "-" + "9" * 5000, "1" * 4300 + "/1",
    ]),
    st.text(max_size=8),
)
_VALUES = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.fractions(), st.none(), _TEXTS,
)


def _outcome(read, value, error):
    """(type, value) of what read returns, or (type, message) of what it raises."""
    try:
        x = read(value, error)
    except Exception as exc:  # every exception is compared, whatever its type
        return type(exc), str(exc)
    return type(x), x


@settings(max_examples=400)
@given(_VALUES, st.sampled_from([ValueError, TypeError, argparse.ArgumentTypeError]))
def test_the_integer_reader_matches_the_rational_reader(value, error):
    assert _outcome(_integer, value, error) == _outcome(integer_by_rational, value, error)


def test_a_number_above_the_bound_squared_is_refused_before_it_is_factored():
    n = SIZE_BOUND**2 + 1
    with pytest.raises(TooLarge, match=f"level {n} .* size bound {SIZE_BOUND}$"):
        _prime_factors(n)
    assert _prime_factors(SIZE_BOUND**2) == ((2, 14), (5, 14))
