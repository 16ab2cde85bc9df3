"""Cups, caps, crossings, projections, Jones-Wenzl projectors, slide checks."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle import intertwiner, uqsl2
from qtangle.intertwiner import (Intertwiner, _evaluate, _turnback_word,
                                 charJW_check, inclusion, is_intertwiner,
                                 jones_wenzl, jones_wenzl_divided, nested_cups,
                                 projection, slide_identity_checks)
from qtangle.qseries import LaurentSeries, binomial_row, quantum_integer
from qtangle.uqsl2 import ModuleElement, act, basis_indices, scaled_sum

from fullwidth import (cap, cap_at, crossing_neg, crossing_pos, cup, cup_at,
                       positioned, turnback, turnback_at)
from test_invariant import lift


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
        assert left == ident
        assert right == ident

    def test_circle_value(self):
        """cap o cup = -[2]."""
        val = (cap() @ cup()).scalar()
        assert val == quantum_integer(2).scale(-1)

    def test_crossings_are_mutually_inverse(self):
        ident = Intertwiner.identity((1, 1))
        assert crossing_pos(2, 1) @ crossing_neg(2, 1) == ident
        assert crossing_neg(2, 1) @ crossing_pos(2, 1) == ident

    def test_braid_relation(self):
        a = crossing_pos(3, 1)
        b = crossing_pos(3, 2)
        assert a @ b @ a == b @ a @ b

    def test_distant_crossings_commute(self):
        a = crossing_pos(4, 1)
        b = crossing_pos(4, 3)
        assert a @ b == b @ a

    def test_kauffman_skein(self):
        """Pi = -q^{-1} C - q^{-2} Id and Omega = -q C - q^2 Id."""
        C = turnback()
        ident = Intertwiner.identity((1, 1))
        pos = C.scale(LaurentSeries.monomial(-1, -1)) + \
            ident.scale(LaurentSeries.monomial(-2, -1))
        assert crossing_pos(2, 1) == pos
        neg = C.scale(LaurentSeries.monomial(1, -1)) + \
            ident.scale(LaurentSeries.monomial(2, -1))
        assert crossing_neg(2, 1) == neg

    def test_positioned_rejects_bad_position(self):
        with pytest.raises(ValueError):
            positioned(cap(), 3, 3)


def scaled_columns(f: Intertwiner, row) -> Intertwiner:
    """f with column a scaled by row[|a|]: by [n, |a|] for binomial_row(n)."""
    return Intertwiner.make(f.source, f.target, {
        a: img.scale(row[sum(a)]) for a, img in f.columns})


def diagonal(n: int, row) -> Intertwiner:
    """The map v_k -> row[k] v_k of V_n."""
    return Intertwiner.make((n,), (n,), {
        (k,): ModuleElement.make((n,), {(k,): row[k]}) for k in range(n + 1)})


def plus_one(row):
    """The wrong scalars [n, k] + 1."""
    return tuple(c + LaurentSeries.one() for c in row)


def action(gen: str, colours) -> Intertwiner:
    """The matrix of E, F or K on a tensor product, in the basis v."""
    return Intertwiner.from_function(colours, colours, lambda a: act(
        gen, ModuleElement.basis_vector(colours, a)))


def w_action(gen: str, n: int) -> Intertwiner:
    """E, F or K on V_n in the basis w_k = v_k / [n, k]: E w_k =
    [n-k] w_(k+1), F w_k = [k] w_(k-1) and K w_k = q^(2k-n) w_k."""
    def col(idx):
        k = idx[0]
        if gen == "K":
            return ModuleElement.make((n,), {
                (k,): LaurentSeries.monomial(2 * k - n)})
        j, c = (k + 1, n - k) if gen == "E" else (k - 1, k)
        return ModuleElement.make((n,), {(j,): quantum_integer(c)}
                                  if 0 <= j <= n else {})

    return Intertwiner.from_function((n,), (n,), col)


class TestProjectionInclusion:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pi_iota_is_identity_on_Vn(self, n):
        # v_k -> [n, k] w_k, which is v_k: read from the basis v to the
        # basis w, pi_n iota_n is the identity
        assert projection(n) @ inclusion(n) == diagonal(n, binomial_row(n))
        # and pi_n has an exact right inverse in the basis w
        assert projection(n) @ lift(n) == Intertwiner.identity((n,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_both_are_equivariant(self, n):
        assert is_intertwiner(inclusion(n))
        # projection(n) lands in the basis w, where E, F and K act by
        # w_action
        for gen in ("E", "F", "K"):
            assert projection(n) @ action(gen, (1,) * n) == \
                w_action(gen, n) @ projection(n), gen
        assert projection(n) @ action("E", (1,) * n) != \
            action("E", (n,)) @ projection(n)

    def test_integral_pi_iota_is_the_binomial_diagonal(self):
        for n in range(1, 8):
            row = binomial_row(n)
            comp = projection(n) @ inclusion(n)
            assert comp == diagonal(n, row)
            # negative control: the wrong scalar [n, k] + 1
            assert comp != diagonal(n, plus_one(row))


class TestJonesWenzl:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_characterizing_properties(self, n):
        assert charJW_check(jones_wenzl(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_divided_power_formula_agrees(self, n):
        assert jones_wenzl(n) == jones_wenzl_divided(n)

    def test_every_entry_is_exact(self):
        for n in range(1, 7):
            for f in (jones_wenzl(n), jones_wenzl_divided(n)):
                assert all(type(a) is int for _, img in f.columns
                           for _, c in img.coords for a in c.coeffs), n

    def test_p2_explicit_matrix(self):
        """[2, |a|] p_2 = diag([2, |a|]) + C, with C the turnback."""
        row = binomial_row(2)
        expected = scaled_columns(Intertwiner.identity((1, 1)), row) + \
            turnback()
        assert jones_wenzl(2) == expected

    def test_projector_absorbs_crossing(self):
        """Pi o p_n = -q^{-2} p_n since turnbacks die."""
        for n in (2, 3):
            p = jones_wenzl(n)
            lhs = crossing_pos(n, 1) @ p
            assert lhs == p.scale(LaurentSeries.monomial(-2, -1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_dropped_sign_fails_both_checks(self, n):
        p = jones_wenzl(n)
        a, img = p.columns[len(p.columns) // 2]
        wrong = Intertwiner.make(p.source, p.target, {
            **dict(p.columns), a: img.scale(LaurentSeries.monomial(0, -1))})
        assert not charJW_check(wrong)
        assert wrong != jones_wenzl_divided(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_wrong_scalar_fails(self, n, monkeypatch):
        # the square is compared with p scaled by [n, k] + 1
        monkeypatch.setattr(intertwiner, "binomial_row",
                            lambda m: plus_one(binomial_row(m)))
        assert not charJW_check(jones_wenzl(n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_binomial_diagonal_passes_the_square_not_the_turnbacks(
            self, n):
        # D o D = D scaled by [n, |a|], for D the diagonal of [n, |a|]: only
        # the turnbacks reject it
        d = scaled_columns(Intertwiner.identity((1,) * n), binomial_row(n))
        assert d @ d == scaled_columns(d, binomial_row(n))
        assert not charJW_check(d)


class TestNestedCupsAndSlides:
    def test_nested_cups_shape(self):
        c = nested_cups(2)
        assert c.source == () and c.target == (1, 1, 1, 1)

    def test_inner_turnback_on_nested_cups(self):
        """Capping the innermost nested pair closes one circle."""
        c = nested_cups(2)
        out = cap_at(2, 4) @ c
        expected = cup().scale(quantum_integer(2).scale(-1))
        assert out == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_nested_cups_equal_the_full_width_composite(self, n):
        expected = cup()
        for k in range(1, n):
            expected = cup_at(k + 1, 2 * k) @ expected
        assert nested_cups(n) == expected
        # a colour-1 cup reads no orientation
        down = "".join(f"cup {k} 1 d\n" for k in range(1, n + 1))
        assert _evaluate("bottom\n" + down) == expected

    def test_turnbacks_equal_the_full_width_reference(self):
        moved = 0
        for n in range(2, 6):
            for i in range(1, n):
                word = _turnback_word(i, n)
                assert _evaluate(word) == turnback_at(i, n), (i, n)
                if i + 1 < n:
                    # negative control: the cup one strand to the right
                    wrong = _evaluate(word.replace(f"cup {i} ",
                                                   f"cup {i + 1} "))
                    assert wrong != turnback_at(i, n), (i, n)
                    moved += 1
        assert moved == 6

    def test_identity_does_not_kill_turnbacks(self):
        # idempotent, but not a Jones-Wenzl projector
        assert not charJW_check(Intertwiner.identity((1, 1, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slide_identities(self, n):
        for k in range(1, n + 1):
            assert slide_identity_checks(n, k)

    def test_a_slide_sweep_reuses_the_tables(self):
        # the slot-range terms of the divided powers are read again within
        # the sweep, and the identity that does not involve k is checked
        # once for n = 4
        uqsl2._compositions.cache_clear()
        intertwiner._full_power_slide.cache_clear()
        assert all(slide_identity_checks(4, k) for k in range(1, 5))
        assert uqsl2._compositions.cache_info().hits > 0
        info = intertwiner._full_power_slide.cache_info()
        assert (info.misses, info.hits) == (1, 3)


class TestAlgebraOfMaps:
    def test_tensor_respects_composition(self):
        a = crossing_pos(2, 1)
        b = cap()
        lhs = (a @ a).tensor(Intertwiner.identity(()))
        assert lhs == a.tensor(Intertwiner.identity(())) @ \
            a.tensor(Intertwiner.identity(()))
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
        assert c @ c == c.scale(quantum_integer(2).scale(-1))

    def test_eq_upto_is_equality(self):
        # every entry is exact, so the name the benchmark calls is ==
        maps = [crossing_pos(2, 1), crossing_neg(2, 1), turnback(),
                crossing_pos(2, 1).scale(LaurentSeries.monomial(1)),
                Intertwiner.identity((1, 1))]
        for f in maps:
            for g in maps:
                assert f.eq_upto(g) == (f == g)
        assert crossing_pos(2, 1).eq_upto(crossing_pos(2, 1) @
                                          Intertwiner.identity((1, 1)))

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


# -- the packed products against series arithmetic ---------------------------

def series():
    """Integer series of any sign, small or wider than a machine word, at
    different lowest degrees, zero too."""
    coeff = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
    return st.builds(LaurentSeries.make, st.integers(-6, 6),
                     st.lists(coeff, max_size=5))


def elements(colours):
    idx = list(basis_indices(colours))
    return st.dictionaries(st.sampled_from(idx), series(), max_size=len(idx)) \
        .map(lambda d: ModuleElement.make(colours, d))


def maps(source, target):
    idx = list(basis_indices(source))
    return st.dictionaries(st.sampled_from(idx), elements(target),
                           max_size=len(idx)) \
        .map(lambda d: Intertwiner.make(source, target, d))


def reference_sum(colours, terms) -> ModuleElement:
    """The sum of x times c over the pairs (x, c), entry by entry, by the
    series product and sum."""
    out = {}
    for x, c in terms:
        for idx, a in x.coords:
            t = a * c
            out[idx] = out[idx] + t if idx in out else t
    return ModuleElement.make(colours, out)


def reference_apply(f: Intertwiner, x: ModuleElement) -> ModuleElement:
    cols = dict(f.columns)
    return reference_sum(f.target, [(cols[i], c) for i, c in x.coords
                                    if i in cols])


A, B, C = (1, 1), (2,), (1,)


class TestPackedProducts:
    """ModuleElement.scale, Intertwiner.apply, compose and scale, which
    multiply packed ints (uqsl2.scaled_sum), equal the series arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(elements(A), series())
    def test_scale(self, x, s):
        assert x.scale(s) == reference_sum(A, [(x, s)])

    @settings(max_examples=60, deadline=None)
    @given(maps(A, B), elements(A))
    def test_apply(self, f, x):
        assert f.apply(x) == reference_apply(f, x)

    @settings(max_examples=40, deadline=None)
    @given(maps(A, B), maps(C, A), series())
    def test_compose_and_scale(self, f, g, s):
        want = Intertwiner.make(C, B, {i: reference_apply(f, img)
                                       for i, img in g.columns})
        assert f @ g == want
        assert f.scale(s) == Intertwiner.make(A, B, {
            i: reference_sum(B, [(img, s)]) for i, img in f.columns})

    @settings(max_examples=40, deadline=None)
    @given(elements(A), series())
    def test_sum_that_vanishes_is_dropped(self, x, s):
        # x s + x (-s): every entry cancels, and none is kept
        neg = s.scale(-1)
        got = scaled_sum(A, [(x, s), (x, neg)])
        assert got == reference_sum(A, [(x, s), (x, neg)])
        assert got.coords == ()

    def test_terms_in_any_degree_order(self):
        # a pair whose product starts below the sum so far moves the sum up
        x = ModuleElement.make(C, {(0,): LaurentSeries.make(5, [1, 2])})
        y = ModuleElement.make(C, {(0,): LaurentSeries.make(0, [3, -4])})
        s = LaurentSeries.make(-2, [1, 0, -5])
        for terms in ([(x, s), (y, s)], [(y, s), (x, s)]):
            got = scaled_sum(C, terms)
            assert got == reference_sum(C, terms)
            assert got.coords[0][1] == LaurentSeries.make(
                -2, [3, -4, -15, 20, 0, 1, 2, -5, -10])

    def test_cancelling_columns(self):
        # q (1 + q^2) - q (1 + q^2) is the exact zero: no entry is left
        f = Intertwiner.make(A, C, {
            (0, 0): ModuleElement.make(C, {(0,): LaurentSeries.monomial(1)}),
            (0, 1): ModuleElement.make(C, {(0,): LaurentSeries.monomial(1, -1)})})
        x = ModuleElement.make(A, {(0, 0): LaurentSeries.make(0, [1, 0, 1]),
                                   (0, 1): LaurentSeries.make(0, [1, 0, 1])})
        assert f.apply(x) == ModuleElement.zero(C)
        assert f.apply(x).coords == ()

    def test_fraction_coefficient_raises(self):
        # only integer coefficients pack
        half = LaurentSeries.make(0, [Fraction(1, 2)])
        with pytest.raises(TypeError):
            ModuleElement.basis_vector(C, (1,)).scale(half)
        with pytest.raises(TypeError):
            Intertwiner.identity(C).apply(ModuleElement.make(C, {(1,): half}))
