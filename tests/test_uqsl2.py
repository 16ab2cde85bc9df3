"""Quantum sl2 generator action, divided powers, weights, bilinear form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.qseries import LaurentSeries, quantum_binomial, quantum_integer
from qtangle.uqsl2 import (ModuleElement, act, act_on_range, basis_indices,
                           basis_indices_of_weight, bilinear_form,
                           divided_power_act, divided_power_act_closed,
                           seq_stats, weight, weight_projector)

colour_tuples = st.lists(st.integers(min_value=1, max_value=3),
                         min_size=1, max_size=3).map(tuple)


@st.composite
def coloured_basis_vector(draw):
    colours = draw(colour_tuples)
    idx = tuple(draw(st.integers(min_value=0, max_value=d)) for d in colours)
    return ModuleElement.basis_vector(colours, idx)


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

    def test_sum_that_cancels_keeps_its_window(self):
        # (q + O(q^3)) + (-q + O(q^3)) + q^5 is 0 + O(q^3) in either grouping
        def vec(c):
            return ModuleElement.make((1,), {(0,): c})

        a = vec(LaurentSeries.make(1, [1], 2))
        b = vec(LaurentSeries.make(1, [-1], 2))
        c = vec(LaurentSeries.monomial(5))
        want = vec(LaurentSeries.zero(2))
        assert (a + b) + c == want
        assert a + (b + c) == want


class TestGeneratorAction:
    def test_single_factor_formulas(self):
        v1 = ModuleElement.basis_vector((3,), (1,))
        ev = act("E", v1)
        assert ev.as_dict()[(2,)].eq_upto(quantum_integer(2))
        fv = act("F", v1)
        assert fv.as_dict()[(0,)].eq_upto(quantum_integer(3))
        kv = act("K", v1)
        assert kv.as_dict()[(1,)].eq_upto(LaurentSeries.monomial(-1))

    @settings(max_examples=40, deadline=None)
    @given(coloured_basis_vector())
    def test_K_eigenvalue_is_weight(self, v):
        idx = v.coords[0][0]
        mu = weight(v.colours, idx)
        kv = act("K", v)
        assert kv.as_dict()[idx].eq_upto(LaurentSeries.monomial(mu))
        assert act("Kinv", kv).eq_upto(v)

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
        assert lhs.eq_upto(rhs)

    def test_act_on_range_composes_to_full_action(self):
        colours = (2, 1, 2)
        v = ModuleElement.basis_vector(colours, (1, 0, 2))
        # Delta(E) on (slot 0 | slots 1..2): 1 (x) E + E (x) K^{-1}
        right = act_on_range("E", v, 1, 3)
        mu_right = weight(colours[1:], (0, 2))
        left = act_on_range("E", v, 0, 1).scale(LaurentSeries.monomial(-mu_right))
        assert act("E", v).eq_upto(right + left)


class TestDividedPowers:
    @settings(max_examples=30, deadline=None)
    @given(coloured_basis_vector(), st.sampled_from(["E", "F"]),
           st.integers(min_value=0, max_value=3))
    def test_closed_form_matches_iterated_action(self, v, gen, k):
        a = divided_power_act(gen, k, v, precision=32)
        b = divided_power_act_closed(gen, k, v)
        assert a.eq_upto(b)

    def test_single_factor_binomials(self):
        v = ModuleElement.basis_vector((4,), (1,))
        out = divided_power_act_closed("E", 2, v)
        assert out.as_dict()[(3,)].eq_upto(quantum_binomial(3, 2))
        out = divided_power_act_closed("F", 1, v)
        assert out.as_dict()[(0,)].eq_upto(quantum_binomial(4, 1))

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
        assert total.eq_upto(x)
        for mu, p in zip((-2, 0, 2), parts):
            assert weight_projector(mu, p).eq_upto(p)


class TestBilinearForm:
    def test_diagonal_values(self):
        assert bilinear_form(2, 1, 1).eq_upto(quantum_binomial(2, 1).shift(1))
        assert bilinear_form(3, 0, 0).eq_upto(LaurentSeries.one())
        assert bilinear_form(3, 1, 2).is_zero()

    def test_symmetry_under_index_reversal(self):
        for n in range(1, 5):
            for k in range(n + 1):
                assert bilinear_form(n, k, k).eq_upto(
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
