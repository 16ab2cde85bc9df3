"""Kronecker packing: digit widths, round trips, products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.packing import WORD, low_digit, pack, unpack, width

# signed coefficients of every size, with the edges of digits one to four
# words wide drawn often
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** (k * WORD + e) + d for k in (1, 2, 4)
                     for e in (-1, 0) for d in (-1, 0)]).flatmap(
        lambda c: st.sampled_from([c, -c])))


def stripped(cs: list[int]) -> list[int]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


class TestWidth:
    def test_headroom_bit(self):
        # a digit of bits bits holds |c| < 2^(bits-1), never 2^(bits-1)
        assert width(0) == width(1) == width(2 ** (WORD - 1) - 1) == WORD
        assert width(2 ** (WORD - 1)) == width(2 ** (2 * WORD - 1) - 1) \
            == 2 * WORD
        assert width(2 ** (2 * WORD - 1)) == 3 * WORD


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

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_extreme_digits(self, words):
        # the struct paths (one and two words) and the byte-slice path
        # (three), with every digit at the edge of its range
        bits = words * WORD
        top = 2 ** (bits - 1) - 1
        for cs in ([top, -top, 0, -top, top], [-top] * 40, [0, 1, -top],
                   [top, -1, 1, -top]):
            assert width(max(map(abs, cs))) == bits
            p = pack(cs, bits)
            assert unpack(p, bits) == cs
            assert low_digit(p, bits) == next(
                i for i, c in enumerate(cs) if c)

    def test_only_integers_pack(self):
        with pytest.raises(TypeError):
            pack([1, Fraction(1, 2)], WORD)
