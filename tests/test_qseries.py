"""Laurent series arithmetic, quantum combinatorics, bigraded polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.qseries import (BigradedPolynomial, LaurentSeries,
                             bigraded_expand_homofunknot, binomial_row,
                             convolve_into, product_window, quantum_binomial,
                             quantum_factorial, quantum_integer)

small_coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=0, max_size=6)


def series(draw_coeffs, min_deg, valid_to=None):
    return LaurentSeries.make(min_deg, draw_coeffs, valid_to)


@st.composite
def laurent(draw, polynomial_only=False):
    cs = draw(small_coeffs)
    lo = draw(st.integers(min_value=-6, max_value=6))
    if polynomial_only:
        return LaurentSeries.make(lo, cs)
    if draw(st.booleans()):
        return LaurentSeries.make(lo, cs)
    v = draw(st.integers(min_value=lo - 1, max_value=lo + 8))
    return LaurentSeries.make(lo, cs, v)


class TestLaurentBasics:
    def test_zero_normal_form(self):
        s = LaurentSeries.make(3, [0, 0, 0])
        assert s.is_zero() and s.min_deg == 0

    def test_leading_zeros_stripped(self):
        s = LaurentSeries.make(-2, [0, 1, 2, 0])
        assert s.min_deg == -1
        assert s.coeffs == (Fraction(1), Fraction(2))

    def test_window_clamps_storage(self):
        s = LaurentSeries.make(0, [1, 1, 1, 1], valid_to=1)
        assert s.top_deg() == 1

    def test_coeff_lookup(self):
        s = LaurentSeries.make(-1, [2, 0, 5])
        assert s.coeff(-1) == 2 and s.coeff(0) == 0 and s.coeff(1) == 5
        assert s.coeff(7) == 0

    def test_str_mentions_window(self):
        s = LaurentSeries.make(0, [1], valid_to=4)
        assert "O(q^5)" in str(s)


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent())
    def test_addition_commutes(self, a, b):
        assert (a + b).eq_upto(b + a)

    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent(), laurent())
    def test_multiplication_distributes(self, a, b, c):
        assert (a * (b + c)).eq_upto(a * b + a * c)

    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent())
    def test_multiplication_commutes(self, a, b):
        assert (a * b).eq_upto(b * a)

    @settings(max_examples=40, deadline=None)
    @given(laurent())
    def test_subtraction_cancels(self, a):
        assert (a - a).is_zero() or (a - a).eq_upto(LaurentSeries.zero())

    @settings(max_examples=40, deadline=None)
    @given(laurent(), st.integers(min_value=-4, max_value=4))
    def test_shift_matches_monomial_multiplication(self, a, n):
        assert a.shift(n).eq_upto(a * LaurentSeries.monomial(n))

    def test_window_never_widens_under_addition(self):
        a = LaurentSeries.make(0, [1, 1], valid_to=3)
        b = LaurentSeries.make(0, [1], valid_to=10)
        assert (a + b).valid_to == 3

    def test_window_shifts_under_multiplication(self):
        a = LaurentSeries.make(0, [1], valid_to=5)
        b = LaurentSeries.monomial(-2)
        assert (a * b).valid_to == 3


class TestInversion:
    @settings(max_examples=40, deadline=None)
    @given(laurent(polynomial_only=True), st.integers(min_value=8, max_value=24))
    def test_inverse_multiplies_to_one(self, a, prec):
        if a.is_zero():
            return
        inv = a.invert(prec)
        assert (a * inv).eq_upto(LaurentSeries.one())

    def test_inverse_of_shifted_unit(self):
        a = LaurentSeries.make(-1, [1, 1])  # q^-1 + 1
        inv = a.invert(12)
        assert (a * inv).eq_upto(LaurentSeries.one())
        assert inv.min_deg == 1

    def test_inverse_to_no_coefficients_is_a_windowed_zero(self):
        # 1 / (q^-1 + 1) = q - q^2 + ... to p <= 0 coefficients is known
        # only below q^(p+1)
        a = LaurentSeries.make(-1, [1, 1])
        assert a.invert(0) == LaurentSeries.zero(0)
        assert a.invert(-3) == LaurentSeries.zero(-3)

    def test_zero_inversion_raises(self):
        with pytest.raises(ZeroDivisionError):
            LaurentSeries.zero().invert(8)


class TestQuantumIntegers:
    def test_small_values(self):
        assert quantum_integer(0).is_zero()
        assert quantum_integer(1).eq_upto(LaurentSeries.one())
        assert quantum_integer(2).support() == {-1: 1, 1: 1}
        assert quantum_integer(3).support() == {-2: 1, 0: 1, 2: 1}

    def test_bar_invariance(self):
        for k in range(1, 7):
            s = quantum_integer(k)
            assert s.eq_upto(s.bar())

    def test_evaluation_at_one(self):
        for k in range(7):
            assert quantum_integer(k).eval_at_one() == k

    def test_factorial_recursion(self):
        for k in range(1, 6):
            assert quantum_factorial(k).eq_upto(
                quantum_factorial(k - 1) * quantum_integer(k))

    def test_binomial_symmetry_and_integrality(self):
        for n in range(7):
            for k in range(n + 1):
                b = quantum_binomial(n, k)
                assert b.eq_upto(quantum_binomial(n, n - k))
                assert b.is_integral()
                assert b.eval_at_one() == __import__("math").comb(n, k)

    def test_binomial_pascal(self):
        # [n k] = q^k [n-1 k] + q^{k-n} [n-1 k-1]
        for n in range(2, 6):
            for k in range(1, n):
                lhs = quantum_binomial(n, k)
                rhs = quantum_binomial(n - 1, k).shift(k) + \
                    quantum_binomial(n - 1, k - 1).shift(k - n)
                assert lhs.eq_upto(rhs)

    def test_binomial_times_factorials_is_factorial(self):
        # multiplication only: shares no code with binomial_row's recurrence
        for n in range(21):
            for k in range(n + 1):
                lhs = quantum_binomial(n, k) * quantum_factorial(k) * \
                    quantum_factorial(n - k)
                assert lhs == quantum_factorial(n)


class TestJson:
    @settings(max_examples=40, deadline=None)
    @given(laurent())
    def test_round_trip(self, a):
        assert LaurentSeries.from_json(a.to_json()) == a


def all_int(s: LaurentSeries) -> bool:
    return all(type(c) is int for c in s.coeffs)


def seeded_series(rng: random.Random) -> LaurentSeries:
    """Integer or rational coefficients with interior zeros; a window on
    two draws in three."""
    lo = rng.randint(-6, 6)
    cs = [rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)))
          for _ in range(rng.randint(1, 8))]
    v = None if rng.random() < 1 / 3 else rng.randint(lo - 2, lo + 10)
    return LaurentSeries.make(lo, cs, v)


def schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a * b from the coefficient supports, windowed by hand."""
    v = None
    if a.valid_to is not None:
        v = a.valid_to + b.min_deg
    if b.valid_to is not None:
        w = b.valid_to + a.min_deg
        v = w if v is None else min(v, w)
    out = {}
    for i, x in a.support().items():
        for j, y in b.support().items():
            out[i + j] = out.get(i + j, 0) + x * y
    return LaurentSeries.from_dict(out, v)


class TestCoefficientTypes:
    """An integral coefficient is an int, any other a Fraction, never a float."""

    def test_make_normalizes(self):
        s = LaurentSeries.make(0, [Fraction(4, 2), 3, Fraction(1, 3), True])
        assert [type(c) for c in s.coeffs] == [int, int, Fraction, int]
        assert all_int(LaurentSeries.monomial(2, Fraction(-6, 3)))
        assert all_int(LaurentSeries.one())

    def test_scale_returns_ints_when_integral(self):
        s = LaurentSeries.make(0, [Fraction(1, 2), 1]).scale(2)
        assert s.coeffs == (1, 2) and all_int(s)
        assert all_int(LaurentSeries.make(0, [1, 2]).scale(Fraction(-3)))

    @pytest.mark.parametrize("coeffs", [[1, -1], [-1, 2, 1], [1, 0, 3, -4]])
    def test_invert_unit_leading_coefficient_stays_integral(self, coeffs):
        inv = LaurentSeries.make(-1, coeffs).invert(16)
        assert all_int(inv) and len(inv.coeffs) > 1

    def test_invert_non_unit_leading_coefficient(self):
        inv = LaurentSeries.make(0, [2, 1]).invert(8)   # 1 / (2 + q)
        assert inv.coeffs[0] == Fraction(1, 2)
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert (LaurentSeries.make(0, [2, 1]) * inv).eq_upto(
            LaurentSeries.one())

    def test_from_json(self):
        s = LaurentSeries.from_json(
            {"min_deg": -1, "valid_to": None, "coeffs": ["3", "-1/2", "4/2"]})
        assert [type(c) for c in s.coeffs] == [int, Fraction, int]

    def test_quantum_binomials_are_ints(self):
        for n in range(21):
            assert all(all_int(c) for c in binomial_row(n))

    def test_no_float_after_arithmetic(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = seeded_series(rng), seeded_series(rng)
            for s in (a + b, a * b, a - b, a.scale(3)):
                assert not any(isinstance(c, float) for c in s.coeffs)
                assert all(type(c) is int or c.denominator != 1
                           for c in s.coeffs)


def window(a: LaurentSeries, b: LaurentSeries) -> int | None:
    return product_window(a.min_deg, a.valid_to, b.min_deg, b.valid_to)


class TestConvolveInto:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mul_and_schoolbook(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            a, b = seeded_series(rng), seeded_series(rng)
            v = window(a, b)
            out = {}
            convolve_into(out, a.support().items(), b.support(), v)
            got = LaurentSeries.from_dict(out, v)
            assert got == a * b == schoolbook(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_accumulates_a_sum_of_products(self, seed):
        # the local maps add several products into one dict, under the
        # smallest of their windows
        rng = random.Random(100 + seed)
        for _ in range(20):
            a, b, c, d = (seeded_series(rng) for _ in range(4))
            v, w = window(a, b), window(c, d)
            out = {}
            convolve_into(out, a.support().items(), b.support(), v)
            convolve_into(out, c.support().items(), d.support(), w)
            both = w if v is None else v if w is None else min(v, w)
            assert LaurentSeries.from_dict(out, both) == a * b + c * d

    def test_window_below_both_factors_gives_nothing(self):
        out = {}
        convolve_into(out, [(3, 1), (4, 1)], {0: 1, 1: 2}, 2)
        assert out == {}

    def test_zero_pairs_of_the_first_factor_add_nothing(self):
        out = {}
        convolve_into(out, [(0, 0), (1, 2), (2, 0)], {0: 1, 5: 3}, None)
        assert out == {1: 2, 6: 6}

    def test_product_window_of_the_zero_series(self):
        # the zero series has lowest degree 0, so it shifts nothing
        a = LaurentSeries.make(2, [1, 1], valid_to=5)
        assert (a * LaurentSeries.zero()).valid_to == 5
        assert (LaurentSeries.zero(3) * a).valid_to == 5


class TestBigraded:
    def test_homofunknot_leading_terms(self):
        d = bigraded_expand_homofunknot(-4).as_dict()
        assert d[(2, 2)] == 1 and d[(0, 0)] == 1 and d[(0, -2)] == 1
        assert d[(-2, -6)] == 1 and d[(-3, -6)] == 1
        assert d[(-4, -10)] == 1

    def test_homofunknot_window_monotone(self):
        small = bigraded_expand_homofunknot(-6).as_dict()
        large = bigraded_expand_homofunknot(-12).as_dict()
        assert all(large[k] == v for k, v in small.items())

    def test_eval_at_t_minus_one(self):
        # q^2 t^2 + 1 + q^-2 at t = -1 gives the colour-2 unknot magnitude
        p = BigradedPolynomial.make(
            {(2, 2): 1, (0, 0): 1, (0, -2): 1})
        v = p.eval_t(-1)
        assert v.support() == {-2: 1, 0: 1, 2: 1}

    def test_product_adds_bidegrees(self):
        a = BigradedPolynomial.make({(1, 2): 1})
        b = BigradedPolynomial.make({(-1, 3): 2})
        assert (a * b).as_dict() == {(0, 5): Fraction(2)}


def test_ls_eq_upto_respects_window():
    a = LaurentSeries.make(0, [1, 2, 3], valid_to=1)
    b = LaurentSeries.make(0, [1, 2, 7], valid_to=10)
    assert a.eq_upto(b) and b.eq_upto(a)
