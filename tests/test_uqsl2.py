"""Quantum sl2 generator action, divided powers, weights, bilinear form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.qseries import LaurentSeries, quantum_binomial, quantum_integer
from qtangle.uqsl2 import (ModuleElement, act, basis_indices,
                           basis_indices_of_weight, bilinear_form,
                           divided_power_act_closed, k_power, scaled_sum,
                           seq_stats, weight)

from test_qseries import quantum_factorial

colour_tuples = st.lists(st.integers(min_value=1, max_value=3),
                         min_size=1, max_size=3).map(tuple)


@st.composite
def coloured_basis_vector(draw):
    colours = draw(colour_tuples)
    idx = tuple(draw(st.integers(min_value=0, max_value=d)) for d in colours)
    return ModuleElement.basis_vector(colours, idx)


@st.composite
def integer_element(draw):
    """A random element with integer entries, some wider than a word."""
    colours = draw(colour_tuples)
    support = draw(st.lists(st.sampled_from(list(basis_indices(colours))),
                            max_size=6))
    return ModuleElement.make(colours, {idx: LaurentSeries.make(
        draw(st.integers(-6, 6)),
        draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1,
                      max_size=4))) for idx in support})


@st.composite
def range_element(draw):
    """(x, lo, hi): an element whose entries agree on slots lo..hi-1 and
    differ outside them, with integer coefficients."""
    v = draw(coloured_basis_vector())
    colours, ((idx, _),) = v.colours, v.coords
    lo = draw(st.integers(min_value=0, max_value=len(colours)))
    hi = draw(st.integers(min_value=lo, max_value=len(colours)))
    outside = colours[:lo] + colours[hi:]
    rests = draw(st.lists(st.tuples(*(st.integers(min_value=0, max_value=d)
                                      for d in outside)),
                          min_size=1, max_size=4, unique=True))
    x = ModuleElement.make(colours, {
        r[:lo] + idx[lo:hi] + r[lo:]: LaurentSeries.monomial(
            draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 3])))
        for r in rests})
    return x, lo, hi


def weight_projector(mu: int, x: ModuleElement) -> ModuleElement:
    """The part of x of weight mu."""
    return ModuleElement.make(
        x.colours, {i: c for i, c in x.coords if weight(x.colours, i) == mu})


def quantum_of_weight(mu: int) -> LaurentSeries:
    """[mu] extended to negative arguments by [-m] = -[m]."""
    if mu >= 0:
        return quantum_integer(mu)
    return quantum_integer(-mu).scale(-1)


class TestBasics:
    def test_basis_enumeration(self):
        assert len(list(basis_indices((1, 1, 1)))) == 8
        assert list(basis_indices(())) == [()]

    def test_weight_spaces_partition_basis(self):
        colours = (2, 1)
        total = sum(len(basis_indices_of_weight(colours, mu))
                    for mu in range(-3, 4))
        assert total == 6

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            ModuleElement.make((2,), {(3,): LaurentSeries.one()})

    def test_sum_that_cancels_is_dropped(self):
        # q + (-q + q^5) - q^5 is the zero element in either grouping, with
        # no entry left
        def vec(c):
            return ModuleElement.make((1,), {(0,): c})

        a = vec(LaurentSeries.monomial(1))
        b = vec(LaurentSeries.make(1, [-1, 0, 0, 0, 1]))
        c = vec(LaurentSeries.monomial(5, -1))
        want = ModuleElement.zero((1,))
        assert (a + b) + c == want and ((a + b) + c).coords == ()
        assert a + (b + c) == want


class TestScale:
    @pytest.mark.parametrize("e", [-3, 0, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    @settings(max_examples=60, deadline=None)
    @given(x=integer_element())
    def test_signed_monomial_matches_scaled_sum(self, sign, e, x):
        s = LaurentSeries.monomial(e, sign)
        assert x.scale(s) == scaled_sum(x.colours, ((x, s),))

    @pytest.mark.parametrize("s", [LaurentSeries.monomial(1, -1),
                                   LaurentSeries.monomial(0, 1),
                                   quantum_integer(2)])
    def test_fraction_entries_raise(self, s):
        x = ModuleElement.make((1, 2), {(0, 1): LaurentSeries.one(),
                                        (1, 0): LaurentSeries.make(
                                            -1, [Fraction(1, 2), 3])})
        with pytest.raises(TypeError):
            x.scale(s)


class TestGeneratorAction:
    def test_single_factor_formulas(self):
        v1 = ModuleElement.basis_vector((3,), (1,))
        ev = act("E", v1)
        assert ev.as_dict()[(2,)] == quantum_integer(2)
        fv = act("F", v1)
        assert fv.as_dict()[(0,)] == quantum_integer(3)
        kv = act("K", v1)
        assert kv.as_dict()[(1,)] == LaurentSeries.monomial(-1)

    @settings(max_examples=40, deadline=None)
    @given(coloured_basis_vector())
    def test_K_eigenvalue_is_weight(self, v):
        idx = v.coords[0][0]
        mu = weight(v.colours, idx)
        kv = act("K", v)
        assert kv.as_dict()[idx] == LaurentSeries.monomial(mu)
        assert act("Kinv", kv) == v

    @settings(max_examples=40, deadline=None)
    @given(coloured_basis_vector())
    def test_E_raises_weight_by_two(self, v):
        idx = v.coords[0][0]
        mu = weight(v.colours, idx)
        for jdx, _ in act("E", v).coords:
            assert weight(v.colours, jdx) == mu + 2

    @settings(max_examples=40, deadline=None)
    @given(coloured_basis_vector())
    def test_commutator_EF(self, v):
        """(EF - FE) v = [mu] v on a weight-mu vector."""
        idx = v.coords[0][0]
        mu = weight(v.colours, idx)
        lhs = act("E", act("F", v)) - act("F", act("E", v))
        rhs = v.scale(quantum_of_weight(mu))
        assert lhs == rhs

    def test_act_on_range_composes_to_full_action(self):
        # the k = 1 divided power on (slot 0 | slots 1..2):
        # Delta(E) = 1 (x) E + E (x) K^{-1} and Delta(F) = K (x) F + F (x) 1,
        # with K read on the slots the generator leaves alone, of weights -1
        # and 1 here; all four parts are nonzero
        colours = (3, 1, 2)
        v = ModuleElement.basis_vector(colours, (1, 0, 2))
        mu_left = weight(colours[:1], (1,))
        mu_right = weight(colours[1:], (0, 2))
        left = divided_power_act_closed("E", 1, v, 0, 1)
        right = divided_power_act_closed("E", 1, v, 1, 3)
        assert not left.is_zero() and not right.is_zero()
        assert act("E", v) == right + left.scale(
            LaurentSeries.monomial(-mu_right))
        left = divided_power_act_closed("F", 1, v, 0, 1)
        right = divided_power_act_closed("F", 1, v, 1, 3)
        assert not left.is_zero() and not right.is_zero()
        assert act("F", v) == right.scale(
            LaurentSeries.monomial(mu_left)) + left

    def test_k_power_on_a_range(self):
        colours = (2, 1, 2)
        v = ModuleElement.basis_vector(colours, (1, 0, 2))
        # slots 1..2 have weight -1 + 2 = 1
        assert k_power(v, 3, 1, 3) == v.scale(LaurentSeries.monomial(3))
        assert k_power(v, 1) == act("K", v)
        assert k_power(k_power(v, 2), -2) == v


class TestDividedPowers:
    @staticmethod
    def iterated(gen, k, v, lo, hi):
        """gen applied k times on slots lo..hi-1 of the basis vector v, which
        form a module of their own, with the other slots held fixed."""
        (idx, _), = v.coords
        x = ModuleElement.basis_vector(v.colours[lo:hi], idx[lo:hi])
        for _ in range(k):
            x = act(gen, x)
        return ModuleElement.make(v.colours, {
            idx[:lo] + j + idx[hi:]: c for j, c in x.coords})

    @settings(max_examples=30, deadline=None)
    @given(range_element(), st.sampled_from(["E", "F"]),
           st.integers(min_value=0, max_value=3))
    def test_closed_form_matches_iterated_action(self, drawn, gen, k):
        # the generator applied k times is [k]! times the divided power, on
        # any slot range, entry by entry; the entries share their indices
        # on the range, so all but the first read tabulated terms
        x, lo, hi = drawn
        got = divided_power_act_closed(gen, k, x, lo, hi)
        want = ModuleElement.zero(x.colours)
        for idx, c in x.coords:
            v = ModuleElement.basis_vector(x.colours, idx)
            want = want + self.iterated(gen, k, v, lo, hi).scale(c)
        assert want == got.scale(quantum_factorial(k))
        if (lo, hi) == (0, len(x.colours)):
            assert got == divided_power_act_closed(gen, k, x)

    @pytest.mark.parametrize("gen", ["E", "F"])
    def test_closed_form_on_every_vector_and_range(self, gen):
        # the same identity on every basis vector of V_2 (x) V_1 (x) V_2,
        # every slot range and k <= 3, where the random draws above can
        # miss the terms that need two slots to move at once
        colours = (2, 1, 2)
        for idx in basis_indices(colours):
            v = ModuleElement.basis_vector(colours, idx)
            for lo in range(4):
                for hi in range(lo, 4):
                    for k in range(4):
                        got = divided_power_act_closed(gen, k, v, lo, hi)
                        assert self.iterated(gen, k, v, lo, hi) == got.scale(
                            quantum_factorial(k))

    def test_single_factor_binomials(self):
        v = ModuleElement.basis_vector((4,), (1,))
        out = divided_power_act_closed("E", 2, v)
        assert out.as_dict()[(3,)] == quantum_binomial(3, 2)
        out = divided_power_act_closed("F", 1, v)
        assert out.as_dict()[(0,)] == quantum_binomial(4, 1)

    def test_two_slots_by_hand(self):
        # on V_2 (x) V_1, term i of
        #   Delta(E^(2)) = sum_i q^(-i(2-i)) E^(2-i) (x) E^(i) K^(i-2),
        #   Delta(F^(2)) = sum_i q^(i(2-i)) K^i F^(2-i) (x) F^(i),
        # with E^(k) v_a = [a+k, k] v_(a+k) and F^(k) v_a = [d-a+k, k] v_(a-k);
        # term i = 2 overshoots V_1 in each case below
        colours = (2, 1)
        one, q = LaurentSeries.one(), LaurentSeries.monomial(1)
        q2, two = LaurentSeries.monomial(2), quantum_integer(2)

        def image(gen, a):
            return divided_power_act_closed(
                gen, 2, ModuleElement.basis_vector(colours, a)).as_dict()

        # v_0 (x) v_0: i = 0 is [2, 2] v_2 (x) K^-2 v_0 = q^2 v_2 (x) v_0;
        # i = 1 is q^-1 [1] v_1 (x) [1] q v_1
        assert image("E", (0, 0)) == {(2, 0): q2, (1, 1): one}
        # v_1 (x) v_0: i = 0 overshoots V_2; i = 1 is q^-1 [2] v_2 (x) q v_1
        assert image("E", (1, 0)) == {(2, 1): two}
        # v_2 (x) v_1: i = 0 is [2, 2] v_0 (x) v_1; i = 1 is q K [1] v_1 (x)
        # [1] v_0, and K is 1 on v_1 of V_2
        assert image("F", (2, 1)) == {(0, 1): one, (1, 0): q}
        # v_1 (x) v_1: i = 0 overshoots V_2; i = 1 is q K [2] v_0 (x) [1] v_0,
        # and K is q^-2 on v_0 of V_2
        assert image("F", (1, 1)) == {(0, 0): two.shift(-1)}

    def test_overshoot_kills_vector(self):
        v = ModuleElement.basis_vector((2,), (1,))
        assert divided_power_act_closed("E", 3, v).is_zero()


class TestWeightProjector:
    def test_projector_is_idempotent_and_complete(self):
        colours = (1, 1)
        x = ModuleElement.make(colours, {
            (0, 0): LaurentSeries.one(),
            (0, 1): LaurentSeries.monomial(2),
            (1, 1): LaurentSeries.one(),
        })
        parts = [weight_projector(mu, x) for mu in (-2, 0, 2)]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert total == x
        for mu, p in zip((-2, 0, 2), parts):
            assert weight_projector(mu, p) == p


class TestBilinearForm:
    def test_diagonal_values(self):
        assert bilinear_form(2, 1, 1) == quantum_binomial(2, 1).shift(1)
        assert bilinear_form(3, 0, 0) == LaurentSeries.one()
        assert bilinear_form(3, 1, 2).is_zero()

    def test_symmetry_under_index_reversal(self):
        for n in range(1, 5):
            for k in range(n + 1):
                assert bilinear_form(n, k, k) == (
                    bilinear_form(n, n - k, n - k))


class TestSeqStats:
    def test_known_values(self):
        l, b, tot = seq_stats((0, 1, 0, 1))
        assert (l, b, tot) == (3, 1, 2)
        assert seq_stats(()) == (0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=8).map(tuple))
    def test_l_plus_b_identity(self, a):
        l, b, tot = seq_stats(a)
        assert l + b == tot * (len(a) - tot)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            seq_stats((0, 2))
