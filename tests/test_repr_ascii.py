"""``serialize.repr_ascii``: the text of float64 arrays, byte for byte ``repr``."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgen import serialize
from kgen.serialize import repr_ascii

MAX_BITS = 0x7FF0000000000000  # bits of +inf: below it, every non-negative finite double


def assert_repr(values):
    """repr_ascii(values) holds each value's repr, then zero bytes only."""
    values = np.asarray(values, dtype=np.float64)
    out = repr_ascii(values)
    texts = [repr(v) for v in values.tolist()]
    assert out.dtype == np.uint8 and out.shape == (values.size, max(map(len, texts), default=0))
    assert np.array_equal((out != 0).sum(axis=1), [len(t) for t in texts])
    got = out.view(f"S{out.shape[1]}").ravel().tolist()
    bad = [(v, g, t) for v, g, t in zip(values.tolist(), got, texts) if g != t.encode()]
    assert not bad, bad[:5]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    below_max = values[values < sys.float_info.max]
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(below_max, np.inf)])


def test_powers_of_two_and_their_neighbours():
    assert_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_repr(with_neighbours(tens))


def test_layout_switch_points_and_extremes():
    # repr switches to an exponent below 1e-4 and from 1e16 on.
    assert_repr(with_neighbours([1e-4, 1e16, 1e-5, 1e15, 5e-324, sys.float_info.max,
                                 sys.float_info.min, 0.5, 1.0, 2.0, 9.5, 10.0]))
    assert_repr([0.0, 9.999999999999999e-05, 9999999999999998.0, 123456789012345.6, 1e22, 1e23])


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, MAX_BITS, 200_000, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_short_decimals():
    # Few-digit decimals, whose shortest text is much shorter than 17 digits.
    rng = np.random.default_rng(2018)
    digits = rng.integers(1, 10**6, 50_000) // 10 ** rng.integers(0, 6, 50_000)
    exponents = rng.integers(-330, 310, 50_000)
    values = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])
    assert_repr(values[np.isfinite(values)])


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_any_non_negative_floats(values):
    assert_repr([abs(v) for v in values])


def test_no_values_give_no_text():
    assert repr_ascii(np.array([])).shape == (0, 0)


def test_long_input_goes_chunk_by_chunk(monkeypatch):
    # Chunks whose widths differ are padded to the widest.
    monkeypatch.setattr(serialize, "_REPR_CHUNK", 3)
    assert_repr([0.5, 1.0, 2.0, 0.1 + 0.2, 1e-7, 3.0, 1e300])


@pytest.mark.parametrize("value", [-1.0, -5e-324, -0.0, np.inf, -np.inf, np.nan, -np.nan])
def test_a_negative_or_non_finite_value_is_refused(value):
    with pytest.raises(ValueError, match=r"finite values >= 0 \(not -0.0\), got "):
        repr_ascii(np.array([1.0, value]))


@pytest.mark.parametrize("values", [np.ones(3, dtype=np.float32), np.ones((2, 2)), np.arange(3)])
def test_only_1d_float64_arrays_are_taken(values):
    with pytest.raises(ValueError, match="needs a 1-D float64 array"):
        repr_ascii(values)
