"""Cups, caps, crossings, projections, Jones-Wenzl projectors, slide checks."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.intertwiner import (Intertwiner, cap, cap_at, charJW_check,
                                 crossing_neg, crossing_pos, cup, cup_at,
                                 inclusion, is_intertwiner, jones_wenzl,
                                 jones_wenzl_divided, nested_cups, positioned,
                                 projection, slide_identity_checks, turnback,
                                 turnback_at)
from qtangle.qseries import LaurentSeries, quantum_integer
from qtangle.uqsl2 import ModuleElement, basis_indices

PREC = 32


class TestElementaryMaps:
    def test_cup_cap_are_equivariant(self):
        assert is_intertwiner(cup())
        assert is_intertwiner(cap())
        assert is_intertwiner(crossing_pos(2, 1))
        assert is_intertwiner(crossing_neg(2, 1))

    def test_zigzag_identities(self):
        """(cap (x) id) o (id (x) cup) = id = (id (x) cap) o (cup (x) id)."""
        ident = Intertwiner.identity((1,))
        left = cap_at(1, 3) @ cup_at(2, 1)
        right = cap_at(2, 3) @ cup_at(1, 1)
        assert left.eq_upto(ident)
        assert right.eq_upto(ident)

    def test_circle_value(self):
        """cap o cup = -[2]."""
        val = (cap() @ cup()).scalar()
        assert val.eq_upto(quantum_integer(2).scale(-1))

    def test_crossings_are_mutually_inverse(self):
        ident = Intertwiner.identity((1, 1))
        assert (crossing_pos(2, 1) @ crossing_neg(2, 1)).eq_upto(ident)
        assert (crossing_neg(2, 1) @ crossing_pos(2, 1)).eq_upto(ident)

    def test_braid_relation(self):
        a = crossing_pos(3, 1)
        b = crossing_pos(3, 2)
        assert (a @ b @ a).eq_upto(b @ a @ b)

    def test_distant_crossings_commute(self):
        a = crossing_pos(4, 1)
        b = crossing_pos(4, 3)
        assert (a @ b).eq_upto(b @ a)

    def test_kauffman_skein(self):
        """Pi = -q^{-1} C - q^{-2} Id and Omega = -q C - q^2 Id."""
        C = turnback()
        ident = Intertwiner.identity((1, 1))
        pos = C.scale(LaurentSeries.monomial(-1, -1)) + \
            ident.scale(LaurentSeries.monomial(-2, -1))
        assert crossing_pos(2, 1).eq_upto(pos)
        neg = C.scale(LaurentSeries.monomial(1, -1)) + \
            ident.scale(LaurentSeries.monomial(2, -1))
        assert crossing_neg(2, 1).eq_upto(neg)

    def test_positioned_rejects_bad_position(self):
        with pytest.raises(ValueError):
            positioned(cap(), 3, 3)


class TestProjectionInclusion:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pi_iota_is_identity_on_Vn(self, n):
        comp = projection(n, PREC) @ inclusion(n)
        assert comp.eq_upto(Intertwiner.identity((n,)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_both_are_equivariant(self, n):
        assert is_intertwiner(inclusion(n))
        assert is_intertwiner(projection(n, PREC))


class TestJonesWenzl:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_characterizing_properties(self, n):
        assert charJW_check(jones_wenzl(n, PREC))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_divided_power_formula_agrees(self, n):
        assert jones_wenzl(n, PREC).eq_upto(jones_wenzl_divided(n, PREC))

    def test_p2_explicit_matrix(self):
        """p_2 = Id + C / [2]."""
        p = jones_wenzl(2, PREC)
        expected = Intertwiner.identity((1, 1)) + \
            turnback().scale(quantum_integer(2).invert(PREC))
        assert p.eq_upto(expected)

    def test_projector_absorbs_crossing(self):
        """Pi o p_n = -q^{-2} p_n since turnbacks die."""
        for n in (2, 3):
            p = jones_wenzl(n, PREC)
            lhs = crossing_pos(n, 1) @ p
            assert lhs.eq_upto(p.scale(LaurentSeries.monomial(-2, -1)))


class TestNestedCupsAndSlides:
    def test_nested_cups_shape(self):
        c = nested_cups(2)
        assert c.source == () and c.target == (1, 1, 1, 1)

    def test_inner_turnback_on_nested_cups(self):
        """Capping the innermost nested pair closes one circle."""
        c = nested_cups(2)
        out = cap_at(2, 4) @ c
        expected = cup().scale(quantum_integer(2).scale(-1))
        assert out.eq_upto(expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slide_identities(self, n):
        for k in range(1, n + 1):
            assert slide_identity_checks(n, k, PREC)


class TestAlgebraOfMaps:
    def test_tensor_respects_composition(self):
        a = crossing_pos(2, 1)
        b = cap()
        lhs = (a @ a).tensor(Intertwiner.identity(()))
        assert lhs.eq_upto(a.tensor(Intertwiner.identity(())) @
                           a.tensor(Intertwiner.identity(())))
        two = b.tensor(b)
        assert two.source == (1, 1, 1, 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_turnback_square(self, n, i):
        """C_i^2 = -[2] C_i."""
        if i >= n + 2 - 1:
            return
        width = max(n + 1, i + 2)
        c = turnback_at(i, width)
        assert (c @ c).eq_upto(c.scale(quantum_integer(2).scale(-1)))

    def test_scalar_requires_closed_map(self):
        with pytest.raises(ValueError):
            cap().scalar()

    def test_blocks_preserve_weight(self):
        blocks = crossing_pos(2, 1).blocks()
        assert set(blocks) == {-2, 0, 2}
        assert len(blocks[0]) == 2 and len(blocks[0][0]) == 2

    def test_blocks_of_a_wide_module_are_fast(self):
        # one pass over the basis, not one per weight: 1001 weights of V_1000
        t0 = time.monotonic()
        blocks = Intertwiner.identity((1000,)).blocks()
        assert time.monotonic() - t0 < 1
        assert sorted(blocks) == list(range(-1000, 1001, 2))
        assert all(b == [[LaurentSeries.one()]] for b in blocks.values())
