"""The array formatter of the writers against Python's own text of numbers."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoon_stab import _text

SMALLEST_NORMAL = 2.2250738585072014e-308
LARGEST = 1.7976931348623157e308


def texts(field):
    chars, lengths = field
    return [bytes(row[:n]).decode("ascii") for row, n in zip(chars, lengths)]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert texts(_text.floats(values)) == list(map(float.__repr__, values.tolist()))


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest finite value's upper neighbour is inf
        near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=64))
@example([0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL, float("inf"), float("-inf"), float("nan")])
def test_floats_are_repr(values):
    assert_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=64))
def test_any_bit_pattern_is_repr(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_every_power_of_two_and_its_neighbours():
    # A significand of 2**52 has a lower neighbour closer than the upper one.
    assert_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_every_power_of_ten_within_one_ulp():
    assert_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_layout_switch_points_and_extremes():
    assert_repr(with_neighbours([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0,
                                 SMALLEST_NORMAL, LARGEST, 5e-324]))


@pytest.mark.parametrize("exponent", [*range(-22, 22), -308, -300, -100, 99, 100, 308])
def test_every_digit_count_at_each_exponent(exponent):
    rng = np.random.default_rng(exponent + 400)
    values = []
    for n in range(1, 16):  # up to 15 digits, every digit string is the shortest
        digits = "".join(map(str, rng.integers(0, 10, n - 1))) + str(rng.integers(1, 10))
        values.append(float(f"{digits[0]}.{digits[1:]}e{exponent}"))
    assert_repr(with_neighbours(values))


def test_short_decimals_and_integral_values():
    rng = np.random.default_rng(7)
    places = rng.integers(0, 9, 5000)
    decimals = [round(v, int(p)) for v, p in zip(rng.uniform(-1e4, 1e4, 5000), places)]
    assert_repr(decimals + list(map(float, rng.integers(-2 ** 53, 2 ** 53, 5000))))


def test_rare_values_take_the_fallback_text():
    values = [float("nan"), float("inf"), float("-inf"), 5e-324, -2.225073858507201e-308, 0.5]
    assert texts(_text.floats(values, json.dumps)) == list(map(json.dumps, values))


def test_fields_keep_the_shape_of_their_values():
    chars, lengths = _text.floats(np.arange(12.0).reshape(3, 4))
    assert chars.shape[:2] == lengths.shape == (3, 4)
    assert texts((chars[2], lengths[2])) == ["8.0", "9.0", "10.0", "11.0"]
    assert lengths.size == 12 and _text.floats(np.empty(0))[1].shape == (0,)
    chars, lengths = _text.ints(np.arange(-5, 7).reshape(3, 4))
    assert chars.shape[:2] == lengths.shape == (3, 4)
    assert texts((chars[0], lengths[0])) == ["-5", "-4", "-3", "-2"]
    assert _text.ints(np.empty(0, dtype=np.int64))[1].shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=64))
def test_ints_are_str(values):
    assert texts(_text.ints(np.array(values, dtype=np.int64))) == list(map(str, values))


def test_int_edges_are_str():
    values = [0, -1, 1, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1]
    values += [s * (10 ** k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)
               if 10 ** k + d < 2 ** 63]
    assert texts(_text.ints(np.array(values, dtype=np.int64))) == list(map(str, values))


def test_join_lays_out_rows_between_literals():
    fields = [_text.ints([1, -22]), _text.pick(_text.texts(("no", "yes")), [1, 0]),
              _text.floats([0.5, 1e300])]
    assert _text.join(("<", "|", ",", ">\n"), fields) == "<1|yes,0.5>\n<-22|no,1e+300>\n"
    assert _text.join(("", "\n"), [_text.ints([])]) == ""


def test_power_of_ten_table_brackets_each_power():
    """Each g and r of the table: ``(g - 1) * 2**r <= 10**-k < g * 2**r``
    with ``2**125 < g < 2**126``; and each k is ``floor(log10(2**q))``, or
    ``floor(log10(3/4 * 2**q))`` where the lower neighbour is closer."""
    ks, hs, *halves, _, _ = _text._powers()
    g1h, g1l, g0h, g0l = (table.astype(object) for table in halves)
    for bq in range(1, 2047):
        q = bq - 1075
        for j, scale in ((bq, Fraction(1)), (bq + 2048, Fraction(3, 4))):
            if j == 2049:  # bq 1 has no closer lower neighbour
                continue
            k, h = int(ks[j]), int(hs[j])
            g = g1h[j] << 95 | g1l[j] << 63 | g0h[j] << 32 | g0l[j]
            r = h - q - 127
            assert 2 ** 125 < g < 2 ** 126
            assert (g - 1) * Fraction(2) ** r <= Fraction(10) ** -k < g * Fraction(2) ** r
            assert Fraction(10) ** k <= scale * Fraction(2) ** q < Fraction(10) ** (k + 1)
