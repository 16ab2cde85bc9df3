"""Grassmannian cohomology rings, the bimodule resolution, nil-Hecke relations."""

import math

import pytest

from qtangle import exactla, grasscoh
from qtangle.exactla import Poly
from qtangle.grasscoh import (TensorSquare, _Products, build_cohomology,
                              epsilon_idempotent, nilhecke_check, partial_i,
                              psi_op, r_poly, tau, wolffhardt_complex)


class TestCohomologyRing:
    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 4)])
    def test_total_dimension_is_binomial(self, k, n):
        H = build_cohomology(k, n)
        assert len(H.basis) == math.comb(n, k)

    def test_graded_dimensions_projective_line(self):
        H = build_cohomology(1, 2)
        assert H.graded_dimensions() == {0: 1, 2: 1}

    def test_graded_dimensions_gr24(self):
        H = build_cohomology(2, 4)
        assert H.graded_dimensions() == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}

    def test_poincare_duality(self):
        H = build_cohomology(2, 5)
        dims = H.graded_dimensions()
        top = 2 * H.top_weight()
        assert all(dims[d] == dims[top - d] for d in dims)

    def test_relations_reduce_to_zero(self):
        k, n = 2, 4
        H = build_cohomology(k, n)
        for j in range(1, k + 1):
            assert H.reduce(r_poly(j, k, n)) == {}

    def test_r1_is_signed_power_sum(self):
        # for k = 1: r_j = (-1)^{n-1+j} e_1^{n-1+j}
        p = r_poly(1, 1, 3)
        assert p.as_dict() == {(3,): -1}


class TestTauAndPartial:
    def test_tau_endpoints(self):
        k = 2
        p = Poly.make(k, {(1, 1): 1})
        left = tau(k, p, k)
        assert left.as_dict() == {(1, 1, 0, 0): 1}
        right = tau(0, p, k)
        assert right.as_dict() == {(0, 0, 1, 1): 1}

    def test_partial_telescopes(self):
        """sum_i (e_i (x) 1 - 1 (x) e_i) partial_i(p) = p (x) 1 - 1 (x) p."""
        k, n = 2, 4
        for j in range(1, k + 1):
            p = r_poly(j, k, n)
            total = Poly.zero(2 * k)
            for i in range(1, k + 1):
                den = Poly.variable(i - 1, 2 * k) - Poly.variable(k + i - 1, 2 * k)
                total = total + den * partial_i(i, p, k)
            assert total == tau(k, p, k) - tau(0, p, k)


class TestResolution:
    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3)])
    def test_resolution_report(self, k, n):
        report = wolffhardt_complex(k, n, -6).check_resolution()
        assert report["d_squared_zero"]
        assert report["homology_matches_H"]
        assert report["vanishing_below_zero"]
        assert report["ok"]

    def test_gr24_d_squared_zero_shallow(self):
        report = wolffhardt_complex(2, 4, -2).check_resolution()
        assert report["d_squared_zero"]


class TestResolutionRanks:
    # degree-0 homology, the graded dimensions of H*(Gr(k,n)); every degree
    # below 0 is empty
    HOMOLOGY = {
        (2, 4, -6): {0: 1, 2: 1, 4: 2, 6: 1, 8: 1},
        (3, 4, -6): {0: 1, 2: 1, 4: 1, 6: 1},
        (2, 5, -3): {0: 1, 2: 1, 4: 2, 6: 2, 8: 2, 10: 1, 12: 1},
    }

    @pytest.mark.parametrize("k,n,hbound", list(HOMOLOGY))
    def test_each_rank_is_computed_once(self, k, n, hbound, monkeypatch):
        calls = []

        def counting_rank(rows):
            calls.append(len(rows))
            return exactla.rank(rows)

        monkeypatch.setattr(grasscoh, "rank", counting_rank)
        cx = wolffhardt_complex(k, n, hbound)
        report = cx.check_resolution()
        hh = TensorSquare(cx.H)
        qs = {h: {q for _, _, q in cx._chain_basis(h, hh)}
              for h in range(hbound + 1, 1)}
        # d_h in degree q: for cycles at h < 0 and boundaries at h + 1
        pairs = {(h, q) for h in qs if h < 0 for q in qs[h]} | \
            {(h - 1, q) for h in qs for q in qs[h]}
        assert len(calls) == len(pairs)
        assert report["homology"][0] == self.HOMOLOGY[k, n, hbound]
        assert sorted(report["homology"]) == list(range(hbound + 1, 1))
        assert not any(report["homology"][h] for h in range(hbound + 1, 0))
        assert report["ok"]


class TestMatrixRows:
    # the (k, n, hbound) set of the CLI sweep in perfbench's verify_suites
    CASES = [(k, n, hb) for k, n in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                                     (3, 4), (1, 5), (2, 5), (1, 6))
             for hb in (-3, -6) if (k, n, hb) != (2, 5, -6)]

    @staticmethod
    def reference_rows(cx, h, hh, src):
        """The differential as a Poly product reduced in H (x) H."""
        rows = []
        k = cx.H.k
        for pair, g, _ in src:
            row: dict = {}
            mono = Poly.monomial(2 * k, pair[0] + pair[1])
            for g1, coeff in cx.differentials[h].get(g, {}).items():
                for tpair, c in hh.reduce(mono * coeff).items():
                    row[(tpair, g1)] = row.get((tpair, g1), 0) + c
            rows.append(row)
        return rows

    @pytest.mark.parametrize("k,n,hbound", CASES)
    def test_rows_equal_reduced_poly_products(self, k, n, hbound):
        cx = wolffhardt_complex(k, n, hbound)
        hh = TensorSquare(cx.H)
        products = _Products(cx.H.reduction)
        for h in range(hbound, 0):
            terms = cx._split_terms(h)
            basis = cx._chain_basis(h, hh)
            for q in sorted({e[2] for e in basis}):
                src = [e for e in basis if e[2] == q]
                assert cx._matrix(src, terms, products) == \
                    self.reference_rows(cx, h, hh, src)

    def test_products_outside_the_table_raise(self):
        products = _Products(build_cohomology(1, 2).reduction)
        assert products[(1,), (1,)] == {}
        with pytest.raises(ValueError):
            products[(1,), (5,)]


class TestNilHecke:
    def test_divided_difference_basics(self):
        y1 = Poly.variable(0, 2)
        y2 = Poly.variable(1, 2)
        assert psi_op(1, y1) == Poly.constant(2, 1)
        assert psi_op(1, y2) == Poly.constant(2, -1)
        assert psi_op(1, y1 * y2).is_zero()

    @pytest.mark.parametrize("n", [2, 3])
    def test_relations(self, n):
        report = nilhecke_check(n, 8)
        assert report["ok"], report

    @pytest.mark.parametrize("n", [2, 3])
    def test_epsilon_idempotent(self, n):
        assert epsilon_idempotent(n, 8)
