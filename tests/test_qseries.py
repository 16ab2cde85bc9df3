"""Laurent series arithmetic, quantum combinatorics, bigraded polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.qseries import (BigradedPolynomial, LaurentSeries,
                             bigraded_expand_homofunknot, binomial_row,
                             convolve_into, quantum_binomial, quantum_integer)

small_coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=0, max_size=6)


def quantum_factorial(k: int) -> LaurentSeries:
    """[k]! = [1][2]...[k], by series products: a reference that shares no
    code with binomial_row's recurrence."""
    out = LaurentSeries.one()
    for i in range(1, k + 1):
        out = out * quantum_integer(i)
    return out


def from_json(d: dict) -> LaurentSeries:
    """The series of a to_json dict, whose window is always null."""
    assert d["valid_to"] is None
    return LaurentSeries.make(d["min_deg"], [Fraction(c) for c in d["coeffs"]])


@st.composite
def laurent(draw):
    cs = draw(small_coeffs)
    lo = draw(st.integers(min_value=-6, max_value=6))
    return LaurentSeries.make(lo, cs)


class TestLaurentBasics:
    def test_zero_normal_form(self):
        s = LaurentSeries.make(3, [0, 0, 0])
        assert s.is_zero() and s.min_deg == 0

    def test_leading_zeros_stripped(self):
        s = LaurentSeries.make(-2, [0, 1, 2, 0])
        assert s.min_deg == -1
        assert s.coeffs == (Fraction(1), Fraction(2))

    def test_coeff_lookup(self):
        s = LaurentSeries.make(-1, [2, 0, 5])
        assert s.coeff(-1) == 2 and s.coeff(0) == 0 and s.coeff(1) == 5
        assert s.coeff(7) == 0

    def test_str(self):
        assert str(LaurentSeries.make(-1, [2, 0, -1, 1])) == "2*q^-1 - q + q^2"
        assert str(LaurentSeries.zero()) == "0"


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent(), laurent())
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(laurent(), laurent())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(laurent())
    def test_subtraction_cancels(self, a):
        assert (a - a).is_zero() and a - a == LaurentSeries.zero()

    @settings(max_examples=40, deadline=None)
    @given(laurent(), st.integers(min_value=-4, max_value=4))
    def test_shift_matches_monomial_multiplication(self, a, n):
        assert a.shift(n) == a * LaurentSeries.monomial(n)


class TestInversion:
    """invert is exact: the units +-q^k of Z[q, q^-1] invert, and nothing
    else does."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-20, max_value=20), st.sampled_from([1, -1]))
    def test_inverse_multiplies_to_one(self, k, sign):
        a = LaurentSeries.monomial(k, sign)
        assert a * a.invert() == LaurentSeries.one()

    def test_inverse_of_shifted_unit(self):
        a = LaurentSeries.make(-1, [-1])  # -q^-1
        inv = a.invert()
        assert inv == LaurentSeries.monomial(1, -1)
        assert a * inv == LaurentSeries.one()

    def test_zero_inversion_raises(self):
        with pytest.raises(ZeroDivisionError):
            LaurentSeries.zero().invert()


class TestQuantumIntegers:
    def test_small_values(self):
        assert quantum_integer(0).is_zero()
        assert quantum_integer(1) == LaurentSeries.one()
        assert quantum_integer(2).support() == {-1: 1, 1: 1}
        assert quantum_integer(3).support() == {-2: 1, 0: 1, 2: 1}

    def test_bar_invariance(self):
        for k in range(1, 7):
            s = quantum_integer(k)
            assert s == s.bar()

    def test_evaluation_at_one(self):
        for k in range(7):
            assert quantum_integer(k).eval_at_one() == k

    def test_factorial_recursion(self):
        for k in range(1, 6):
            assert quantum_factorial(k) == \
                quantum_factorial(k - 1) * quantum_integer(k)
            assert quantum_factorial(k).eval_at_one() == \
                __import__("math").factorial(k)

    def test_binomial_symmetry_and_integrality(self):
        for n in range(7):
            for k in range(n + 1):
                b = quantum_binomial(n, k)
                assert b == quantum_binomial(n, n - k)
                assert b.is_integral()
                assert b.eval_at_one() == __import__("math").comb(n, k)

    def test_binomial_pascal(self):
        # [n k] = q^k [n-1 k] + q^{k-n} [n-1 k-1]
        for n in range(2, 6):
            for k in range(1, n):
                lhs = quantum_binomial(n, k)
                rhs = quantum_binomial(n - 1, k).shift(k) + \
                    quantum_binomial(n - 1, k - 1).shift(k - n)
                assert lhs == rhs

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
        assert from_json(a.to_json()) == a


def all_int(s: LaurentSeries) -> bool:
    return all(type(c) is int for c in s.coeffs)


def seeded_series(rng: random.Random) -> LaurentSeries:
    """Integer or rational coefficients with interior zeros."""
    lo = rng.randint(-6, 6)
    cs = [rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)))
          for _ in range(rng.randint(1, 8))]
    return LaurentSeries.make(lo, cs)


def schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a * b from the coefficient supports, by hand."""
    out = {}
    for i, x in a.support().items():
        for j, y in b.support().items():
            out[i + j] = out.get(i + j, 0) + x * y
    return LaurentSeries.from_dict(out)


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

    @pytest.mark.parametrize("coeffs", [[1], [-1], [0, 0, Fraction(-4, 4)]])
    def test_invert_unit_leading_coefficient_stays_integral(self, coeffs):
        a = LaurentSeries.make(-1, coeffs)
        inv = a.invert()
        assert all_int(inv) and a * inv == LaurentSeries.one()

    def test_invert_non_unit_leading_coefficient(self):
        # 1 / (2 + q), 1 / 2 and 1 / (1 + q) are not Laurent polynomials,
        # whatever the leading coefficient
        for coeffs in ([2, 1], [2], [1, 1]):
            with pytest.raises(ValueError, match="not a unit"):
                LaurentSeries.make(0, coeffs).invert()

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


class TestConvolveInto:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mul_and_schoolbook(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            a, b = seeded_series(rng), seeded_series(rng)
            out = {}
            convolve_into(out, a.support().items(), b.support())
            got = LaurentSeries.from_dict(out)
            assert got == a * b == schoolbook(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_accumulates_a_sum_of_products(self, seed):
        # several products added into one dict
        rng = random.Random(100 + seed)
        for _ in range(20):
            a, b, c, d = (seeded_series(rng) for _ in range(4))
            out = {}
            convolve_into(out, a.support().items(), b.support())
            convolve_into(out, c.support().items(), d.support())
            assert LaurentSeries.from_dict(out) == a * b + c * d

    def test_zero_pairs_of_the_first_factor_add_nothing(self):
        out = {}
        convolve_into(out, [(0, 0), (1, 2), (2, 0)], {0: 1, 5: 3})
        assert out == {1: 2, 6: 6}


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

