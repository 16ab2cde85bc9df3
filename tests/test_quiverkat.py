"""Quiver block algebras, projector complexes, the six-vertex corner algebra,
and the small differential bigraded algebra."""

from fractions import Fraction

import pytest

from qtangle.quiverkat import (euler_characteristic_vs_p2, gl2_algebra,
                               gl2_projector_complex, gl3_algebra,
                               gl3_p12_complex, gl3_p21_complex,
                               gl3_p3_complex, gl4_algebra, gl4_corner,
                               gor_d, gor_d_squared_zero, gor_homology,
                               ext_self_L1, l1_resolution_report,
                               p12_printed_sign_discrepancies,
                               poincare_vs_paper, standard_modules_gl4)
from qtangle.quiverkat import complexes as complexes_module
from qtangle.quiverkat.complexes import _exact_quotient
from qtangle.quiverkat import gor as gor_module
from qtangle.intertwiner import jones_wenzl
from qtangle.qseries import LaurentSeries, bigraded_expand_homofunknot


class TestBlockAlgebras:
    def test_gl2_dimension(self):
        assert gl2_algebra().dimension() == 5

    def test_gl3_dimension(self):
        assert gl3_algebra().dimension() == 14

    def test_gl2_graded_dimensions(self):
        assert gl2_algebra().graded_dimensions() == {0: 2, 1: 2, 2: 1}

    @pytest.mark.parametrize("build", [gl2_algebra, gl3_algebra, gl4_algebra])
    def test_products_of_basis_units_are_ints(self, build):
        # integral relations give integral structure constants, kept as ints
        A = build()
        ids = range(A.dimension())
        nonzero = 0
        for x in ids:
            for y in ids:
                prod = A.mul({x: 1}, {y: 1})
                assert all(type(c) is int for c in prod.values()), (x, y, prod)
                nonzero += bool(prod)
        assert nonzero > A.dimension()

    @pytest.mark.parametrize("build", [gl2_algebra, gl3_algebra, gl4_algebra])
    def test_basis_between_is_the_scan(self, build):
        # the index built once against a scan of the whole basis
        A = build()
        ends = [None, *A.vertices]
        for end in ends:
            for start in ends:
                want = [i for i, info in enumerate(A.info)
                        if (end is None or info.end == end)
                        and (start is None or info.start == start)]
                assert A.basis_between(end, start) == want, (end, start)
                assert A.basis_between(end=end, start=start) == want
        assert A.basis_between() == list(range(A.dimension()))


class TestProjectorComplexes:
    @pytest.mark.parametrize("builder", [
        gl2_projector_complex, gl3_p3_complex, gl3_p21_complex,
        gl3_p12_complex])
    def test_d_squared_zero(self, builder):
        cx = builder(6)
        assert cx.verify_complex()

    @pytest.mark.parametrize("builder", [
        gl2_projector_complex, gl3_p3_complex, gl3_p21_complex,
        gl3_p12_complex])
    def test_differential_is_homogeneous(self, builder):
        assert builder(6).homogeneity_report() == []

    def test_p12_sign_repairs_are_recorded(self):
        notes = p12_printed_sign_discrepancies(6)
        assert len(notes) == 4
        assert all(note.startswith("h=-") for note in notes)

    def test_euler_characteristic_matches_p2(self):
        report = euler_characteristic_vs_p2()
        assert report["match"]
        assert report["q_power"] == 0

    @pytest.mark.parametrize("shift", [1, -1])
    def test_euler_characteristic_rejects_a_shifted_block(self, monkeypatch,
                                                          shift):
        # negative control: the documented q power is checked, not found by
        # a scan, so a projector shifted by q^(+-1) must not match
        monkeypatch.setattr(complexes_module, "jones_wenzl",
                            lambda n: jones_wenzl(n).scale(
                                LaurentSeries.monomial(shift)))
        report = euler_characteristic_vs_p2()
        assert not report["match"] and report["q_power"] is None

    def test_exact_quotient_refuses_a_series(self):
        # the Euler characteristic divides characters exactly or not at all
        L = LaurentSeries
        assert _exact_quotient(L.make(1, [1]), L.one()) == L.monomial(1)
        assert _exact_quotient(L.make(-1, [2, 4, 2]), L.make(0, [1, 1])) \
            == L.make(-1, [2, 2])
        assert _exact_quotient(L.make(0, [3]), L.make(2, [2])) == \
            L.monomial(-2, Fraction(3, 2))
        for c, d in ((L.one(), L.make(0, [1, 1])),
                     (L.make(0, [1, 0, 1]), L.make(0, [1, 1]))):
            with pytest.raises(ValueError):
                _exact_quotient(c, d)


class TestGl4Corner:
    def test_dimensions(self):
        assert gl4_algebra().dimension() == 97
        assert gl4_corner().dimension() == 33

    def test_standard_modules(self):
        report = standard_modules_gl4()
        assert report["algebra_dim"] == 97
        assert report["corner_dim"] == 33
        assert report["delta_dims"] == {1: 4, 5: 8, 6: 1}
        assert report["bar_delta5_dim"] == 2
        assert report["filtration_ok"]
        assert report["filtration_shifts"] == [4, 2, 2, 0]
        assert all(report["delta_resolutions_ok"].values())
        assert report["ok"]

    def test_l1_resolution(self):
        report = l1_resolution_report(h_bound=6)
        assert report["d_squared_zero"]
        assert report["minimal"]
        assert report["exact"], report["exactness_failures"]
        assert report["coker_is_simple"]
        assert report["ok"]

    def test_ext_table_matches_shifted_series(self):
        ext = ext_self_L1(h_bound=6)
        assert ext[0] == (0,)
        # the (h, q) -> (h+2, q+2) shift lands every Ext class on a series term
        series = bigraded_expand_homofunknot(-4).as_dict()
        for m, qs in ext.items():
            for q in qs:
                assert (m + 2, q + 2) in series

    def test_poincare_series_agrees(self):
        assert poincare_vs_paper(h_bound=6)


class TestGorAlgebra:
    def test_d_squared_zero(self):
        assert gor_d_squared_zero(h_bound=-8, q_bound=24)

    def test_d_squared_zero_checks_monomials(self, monkeypatch):
        # a "differential" with nonzero square must be caught, so the
        # default window is not empty
        monkeypatch.setattr(gor_module, "gor_d", lambda element: element)
        assert not gor_d_squared_zero()

    def test_d_squared_zero_rejects_positive_bound(self):
        with pytest.raises(ValueError):
            gor_d_squared_zero(h_bound=8)

    def test_leibniz_on_zeta1_squared_like_product(self):
        # d(zeta1 * u1) = u1^3
        out = gor_d({(1, 0, 1, 0): 1})
        assert out == {(3, 0, 0, 0): 1}

    def test_homology_unit(self):
        hom = gor_homology(h_bound=-4, q_bound=16).as_dict()
        assert hom[(0, 0)] == 1

    def test_homology_is_multiplicity_free_in_window(self):
        hom = gor_homology(h_bound=-6, q_bound=24).as_dict()
        assert all(c == 1 for c in hom.values())
