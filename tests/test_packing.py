"""Kronecker packing: digit widths, round trips, products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.packing import WORD, low_digit, pack, unpack, width

# signed coefficients of every size, with the edges of the 64- and 128-bit
# digits drawn often
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                     2 ** 127 - 1, 2 ** 127]).flatmap(
        lambda c: st.sampled_from([c, -c])))


def stripped(cs: list[int]) -> list[int]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


class TestWidth:
    def test_headroom_bit(self):
        # a digit of bits bits holds |c| < 2^(bits-1), never 2^(bits-1)
        assert width(0) == width(1) == width(2 ** 63 - 1) == WORD
        assert width(2 ** 63) == width(2 ** 127 - 1) == 2 * WORD
        assert width(2 ** 127) == 3 * WORD


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(COEFFS, max_size=80), st.integers(0, 2))
    def test_pack_unpack(self, cs, extra):
        # any width with room for the coefficients, the narrowest or wider;
        # lists past 32 coefficients pack in halves
        bits = width(max(map(abs, cs), default=0)) + extra * WORD
        p = pack(cs, bits)
        assert unpack(p, bits) == stripped(cs)
        if any(cs):
            j = next(i for i, c in enumerate(cs) if c)
            assert low_digit(p, bits) == j
            assert unpack(p >> bits * j, bits) == stripped(cs[j:])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(COEFFS, min_size=1, max_size=6),
           st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_product_is_one_multiply(self, a, b):
        # digits wide enough for the bound |a|_max |b|_1 hold the product
        bits = width(max(map(abs, a)) * sum(map(abs, b)))
        want = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] += x * y
        assert unpack(pack(a, bits) * pack(b, bits), bits) == stripped(want)

    def test_only_integers_pack(self):
        with pytest.raises(TypeError):
            pack([1, Fraction(1, 2)], WORD)
