"""Cohomology rings of Grassmannians, a free bimodule resolution, and the
nil-Hecke algebra realized by divided-difference operators.

H*(Gr(k,n)) is presented as C[e_1,...,e_k]/(r_1,...,r_k) with deg e_i = 2i
and r_j the signed multinomial sums in the e_i.  The resolution resolves H
as a bimodule over itself by free modules H (x) H (x) S(V) where V has
exterior generators f_i in homological degree -1 and polynomial generators
b_i in homological degree -2.  The nil-Hecke generators act on C[y_1,...,y_n]
by multiplication and divided differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactla import Poly, rank, rref
from .qseries import _coef

__all__ = [
    "r_poly", "GrCohomology", "build_cohomology",
    "TensorSquare", "tau", "partial_i",
    "WolffhardtComplex", "wolffhardt_complex",
    "psi_op", "nilhecke_check", "epsilon_idempotent",
]


# -- the presentation of H*(Gr(k,n)) ------------------------------------------

def _tuples_of_weight(k: int, d: int, weights: tuple[int, ...]):
    """All exponent tuples a with sum weights[i]*a[i] = d."""
    if k == 0:
        if d == 0:
            yield ()
        return
    w = weights[0]
    for a0 in range(d // w + 1):
        for rest in _tuples_of_weight(k - 1, d - w * a0, weights[1:]):
            yield (a0,) + rest


def r_poly(j: int, k: int, n: int) -> Poly:
    """r_j = sum over wt(m) = n-k+j of (-1)^{|m|} c_m e^m, deg e_i = 2i."""
    if not 1 <= j <= k:
        raise ValueError("need 1 <= j <= k")
    weights = tuple(range(1, k + 1))
    terms = {}
    for m in _tuples_of_weight(k, n - k + j, weights):
        total = sum(m)
        c = _multinomial(m)
        terms[m] = c if total % 2 == 0 else -c
    return Poly.make(k, terms)


def _multinomial(m: tuple[int, ...]) -> int:
    import math
    out = math.factorial(sum(m))
    for x in m:
        out //= math.factorial(x)
    return out


@dataclass(frozen=True)
class GrCohomology:
    """Monomial basis of C[e_1..e_k]/(r_1..r_k) with a degreewise reducer.

    reduction maps a pivot monomial to its expansion over basis monomials;
    basis monomials reduce to themselves.  Coefficients are ints when
    integral and Fractions otherwise.
    """

    k: int
    n: int
    basis: tuple[tuple[int, ...], ...]
    reduction: dict

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + 1))

    def top_weight(self) -> int:
        return self.k * (self.n - self.k)

    def graded_dimensions(self) -> dict[int, int]:
        """Topological degree 2d -> dimension."""
        out: dict[int, int] = {}
        for m in self.basis:
            d = 2 * sum(w * e for w, e in zip(self.weights, m))
            out[d] = out.get(d, 0) + 1
        return out

    def reduce_monomial(self, m: tuple[int, ...]) -> dict:
        m = tuple(m)
        if m in self.reduction:
            return dict(self.reduction[m])
        raise ValueError(f"monomial {m} outside the tabulated reduction range")

    def reduce(self, p: Poly) -> dict:
        """Coordinates of p over the basis monomials, zeros dropped."""
        out: dict = {}
        for exps, c in p.terms:
            for b, cb in self.reduce_monomial(exps).items():
                v = out.get(b, 0) + c * cb
                if v:
                    out[b] = v
                elif b in out:
                    del out[b]
        return out


def build_cohomology(k: int, n: int, extra_weight: int | None = None) -> GrCohomology:
    """Degreewise linear algebra over the monomial basis modulo (r_1..r_k).

    The reduction table covers weights up to twice the top weight by default
    so that products of two basis monomials stay reducible.
    """
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    weights = tuple(range(1, k + 1))
    top = k * (n - k)
    d_max = 2 * top if extra_weight is None else 2 * top + extra_weight
    rels = [r_poly(j, k, n) for j in range(1, k + 1)]
    basis: list[tuple[int, ...]] = []
    reduction: dict = {}
    for d in range(d_max + 1):
        # rows are keyed by monomial and rref pivots on the least monomial of
        # each row, so the basis is the monomials that lead no row
        rows = []
        for j, r in enumerate(rels, start=1):
            shift = d - (n - k + j)
            if shift < 0:
                continue
            for m in _tuples_of_weight(k, shift, weights):
                rows.append({tuple(a + b for a, b in zip(exps, m)): c
                             for exps, c in r.terms})
        red = rref(rows) if rows else {}
        free = [m for m in sorted(_tuples_of_weight(k, d, weights))
                if m not in red]
        for m in free:
            if d <= top:
                basis.append(m)
            reduction[m] = {m: 1} if d <= top else {}
        for p, row in red.items():
            reduction[p] = {f: -_coef(c) for f, c in row.items()
                            if f != p and d <= top}
        if d > top and free:
            raise ValueError(
                f"quotient unexpectedly nonzero in weight {d} > top weight {top}")
    import math
    expected = math.comb(n, k)
    if len(basis) != expected:
        raise ValueError(
            f"dimension mismatch: got {len(basis)}, expected binomial({n},{k})="
            f"{expected}")
    return GrCohomology(k, n, tuple(sorted(basis)), reduction)


# -- H (x) H and the maps tau_i, partial_i ------------------------------------

def tau(i: int, p: Poly, k: int) -> Poly:
    """Send e_j to e_j (x) 1 for j <= i and to 1 (x) e_j for j > i.

    Output lives in 2k variables: 0..k-1 hold the left factor, k..2k-1 the
    right factor.
    """

    def relocate(exps):
        out = [0] * (2 * k)
        for j, e in enumerate(exps, start=1):
            out[j - 1 if j <= i else k + j - 1] = e
        return out

    if p.is_zero():
        return Poly.zero(2 * k)
    return p.map_exponents(relocate)


def partial_i(i: int, p: Poly, k: int) -> Poly:
    """(tau_i(p) - tau_{i-1}(p)) / (e_i (x) 1 - 1 (x) e_i), exactly."""
    num = tau(i, p, k) - tau(i - 1, p, k)
    if num.is_zero():
        return Poly.zero(2 * k)
    den = Poly.variable(i - 1, 2 * k) - Poly.variable(k + i - 1, 2 * k)
    return num.divide_exact(den)


@dataclass(frozen=True)
class TensorSquare:
    """H (x) H with componentwise reduction; elements are 2k-variable Polys."""

    H: GrCohomology

    @property
    def k(self) -> int:
        return self.H.k

    def basis(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(a, b) for a in self.H.basis for b in self.H.basis]

    def reduce(self, p: Poly) -> dict:
        """Coordinates over pairs of basis monomials."""
        k = self.k
        out: dict = {}
        for exps, c in p.terms:
            left = self.H.reduce_monomial(exps[:k])
            right = self.H.reduce_monomial(exps[k:])
            for a, ca in left.items():
                for b, cb in right.items():
                    v = out.get((a, b), 0) + c * ca * cb
                    if v:
                        out[(a, b)] = v
                    elif (a, b) in out:
                        del out[(a, b)]
        return out

    def qdeg(self, pair) -> int:
        a, b = pair
        w = self.H.weights
        return 2 * (sum(x * y for x, y in zip(w, a)) + sum(x * y for x, y in zip(w, b)))


# -- the bimodule resolution ---------------------------------------------------

Generator = tuple[tuple[int, ...], tuple[int, ...]]  # (b multiset, f subset)


def _generators_at(k: int, h: int) -> list[Generator]:
    """S(V) monomials of homological degree h (b's count -2, f's count -1)."""
    out = []
    for nb in range(0, (-h) // 2 + 1):
        nf = -h - 2 * nb
        if nf < 0 or nf > k:
            continue
        for bs in itertools.combinations_with_replacement(range(1, k + 1), nb):
            for fs in itertools.combinations(range(1, k + 1), nf):
                out.append((bs, fs))
    return sorted(out)


def _gen_qdeg(g: Generator, k: int, n: int) -> int:
    bs, fs = g
    return sum(2 * (n - k) + 2 * j for j in bs) + sum(2 * i for i in fs)


@dataclass(frozen=True)
class WolffhardtComplex:
    """The free bimodule complex H(x)H(x)S(V) with its differential.

    differentials[h] maps generators in homological degree h to dicts
    {target generator: 2k-variable Poly coefficient} in degree h + 1.
    """

    H: GrCohomology
    h_bound: int
    generators: dict[int, list[Generator]]
    differentials: dict[int, dict[Generator, dict[Generator, Poly]]]

    def check_resolution(self) -> dict:
        """Verify d^2 = 0 and that homology sits in degree 0, equal to H."""
        hh = TensorSquare(self.H)
        report: dict = {"d_squared_zero": True, "homology": {}}
        for h in range(self.h_bound, -1):
            if h + 2 > 0:
                continue
            for g, img in self.differentials[h].items():
                acc: dict[Generator, Poly] = {}
                for g1, coeff in img.items():
                    for g2, coeff2 in self.differentials[h + 1].get(g1, {}).items():
                        prev = acc.get(g2, Poly.zero(2 * self.H.k))
                        acc[g2] = prev + coeff * coeff2
                for total in acc.values():
                    if hh.reduce(total):
                        report["d_squared_zero"] = False
        report["homology"] = self._graded_homology(hh)
        h0 = report["homology"].get(0, {})
        report["homology_matches_H"] = (h0 == {
            d: m for d, m in self.H.graded_dimensions().items()})
        report["vanishing_below_zero"] = all(
            not dims for h, dims in report["homology"].items() if h < 0)
        report["ok"] = (report["d_squared_zero"] and report["homology_matches_H"]
                        and report["vanishing_below_zero"])
        return report

    def _chain_basis(self, h: int, hh: TensorSquare):
        """C-basis of the degree-h term: (pair of H monomials, generator)."""
        out = []
        for g in self.generators[h]:
            gq = _gen_qdeg(g, self.H.k, self.H.n)
            for pair in hh.basis():
                out.append((pair, g, hh.qdeg(pair) + gq))
        return out

    def _matrix(self, src, terms, products: "_Products") -> list[dict]:
        """A differential C_h -> C_{h+1} on the src entries, as one sparse
        row per source vector keyed by (pair, generator) target entries (so
        rank computations read it as a row span).

        terms maps each generator of degree h to its image split into
        (target generator, left exponents, right exponents, coefficient),
        one tuple per term of each Poly coefficient, so the entry of a
        source pair (a0, b0) is the sum of c * products[a0, left] (x)
        products[b0, right]: no Poly is built per row.
        """
        rows = []
        for (a0, b0), g, _ in src:
            row: dict = {}
            for g1, left, right, c in terms.get(g, ()):
                rs = products[b0, right]
                for a, ca in products[a0, left].items():
                    cca = c * ca
                    for b, cb in rs.items():
                        key = ((a, b), g1)
                        row[key] = row.get(key, 0) + cca * cb
            rows.append({key: c for key, c in row.items() if c})
        return rows

    def _split_terms(self, h: int) -> dict:
        """The differential on degree h as _matrix reads it: per generator,
        (target generator, left exponents, right exponents, coefficient)."""
        k = self.H.k
        return {g: [(g1, e[:k], e[k:], c)
                    for g1, coeff in img.items() for e, c in coeff.terms]
                for g, img in self.differentials[h].items()}

    def _graded_homology(self, hh: TensorSquare) -> dict[int, dict[int, int]]:
        """Homology graded dimensions {h: {q: dim}} for h_bound < h <= 0."""
        bases = {h: self._chain_basis(h, hh)
                 for h in range(self.h_bound, 1)}
        terms = {h: self._split_terms(h) for h in self.differentials}
        products = _Products(self.H.reduction)
        # the rank of d_h in degree q counts against cycles at h and as
        # boundaries at h + 1: compute it once
        ranks: dict[tuple[int, int], int] = {}

        def rank_at(h: int, q: int) -> int:
            if (h, q) not in ranks:
                src = [e for e in bases[h] if e[2] == q]
                ranks[h, q] = rank(self._matrix(src, terms[h], products))
            return ranks[h, q]

        out: dict[int, dict[int, int]] = {}
        for h in range(self.h_bound + 1, 1):
            qs = sorted({q for _, _, q in bases[h]})
            dims: dict[int, int] = {}
            for q in qs:
                cycles = sum(1 for e in bases[h] if e[2] == q)
                if h < 0:
                    cycles -= rank_at(h, q)
                boundaries = rank_at(h - 1, q)
                if cycles - boundaries:
                    dims[q] = cycles - boundaries
            out[h] = dims
        return out


class _Products(dict):
    """(basis monomial m, exponent tuple e) -> the reduced product m * e,
    read from GrCohomology.reduction the first time it is asked for."""

    def __init__(self, reduction: dict):
        super().__init__()
        self.reduction = reduction

    def __missing__(self, key):
        m, e = key
        prod = tuple(a + b for a, b in zip(m, e))
        if prod not in self.reduction:
            raise ValueError(
                f"monomial {prod} outside the tabulated reduction range")
        out = self[key] = self.reduction[prod]
        return out


def wolffhardt_complex(k: int, n: int, h_bound: int) -> WolffhardtComplex:
    if h_bound > 0:
        raise ValueError("h_bound must be nonpositive")
    H = build_cohomology(k, n)
    rels = {j: r_poly(j, k, n) for j in range(1, k + 1)}
    db = {j: {i: partial_i(i, rels[j], k) for i in range(1, k + 1)}
          for j in range(1, k + 1)}
    generators = {h: _generators_at(k, h) for h in range(h_bound - 1, 1)}
    differentials: dict[int, dict[Generator, dict[Generator, Poly]]] = {}
    for h in range(h_bound, 0):
        differentials[h] = {g: _differential(g, db, k) for g in generators[h]}
    return WolffhardtComplex(H, h_bound, generators, differentials)


def _differential(g: Generator, db, k: int) -> dict[Generator, Poly]:
    """Signed Leibniz rule on b_{j1}...b_{jm} f_{i1}^...^f_{ir}."""
    bs, fs = g
    out: dict[Generator, Poly] = {}

    def add(target: Generator, coeff: Poly):
        prev = out.get(target, Poly.zero(2 * k))
        s = prev + coeff
        if s.is_zero():
            out.pop(target, None)
        else:
            out[target] = s

    # b factors are even, so every b term comes with a plain multiplicity
    for j in sorted(set(bs)):
        mult = bs.count(j)
        rest_b = list(bs)
        rest_b.remove(j)
        for i, coeff in db[j].items():
            if coeff.is_zero() or i in fs:
                continue
            swaps = sum(1 for x in fs if x < i)
            sign = mult if swaps % 2 == 0 else -mult
            new_f = tuple(sorted(fs + (i,)))
            add((tuple(rest_b), new_f), coeff.scale(sign))
    # f factors are odd: alternating signs along the wedge
    for t, i in enumerate(fs):
        sign = 1 if t % 2 == 0 else -1
        coeff = (Poly.variable(i - 1, 2 * k)
                 - Poly.variable(k + i - 1, 2 * k)).scale(sign)
        new_f = fs[:t] + fs[t + 1:]
        add((bs, new_f), coeff)
    return out


# -- nil-Hecke operators -------------------------------------------------------

def _swap_vars(p: Poly, i: int) -> Poly:
    """Exchange variables i-1 and i (the transposition s_i on y_i, y_{i+1})."""
    if p.is_zero():
        return p

    def fn(exps):
        e = list(exps)
        e[i - 1], e[i] = e[i], e[i - 1]
        return e

    return p.map_exponents(fn)


def psi_op(i: int, p: Poly) -> Poly:
    """Divided difference f -> (f - s_i f) / (y_i - y_{i+1})."""
    num = p - _swap_vars(p, i)
    if num.is_zero():
        return Poly.zero(p.nvars)
    den = Poly.variable(i - 1, p.nvars) - Poly.variable(i, p.nvars)
    return num.divide_exact(den)


def _monomials_up_to(n: int, max_total: int):
    for total in range(max_total + 1):
        yield from _tuples_of_weight(n, total, (1,) * n)


def nilhecke_check(n: int, degree_bound: int) -> dict:
    """Verify the defining relations degreewise on monomials of degree <= bound.

    The internal grading gives y_i degree 2, so the exponent bound is half
    the stated degree bound.
    """
    max_total = degree_bound // 2
    monos = [Poly.monomial(n, e) for e in _monomials_up_to(n, max_total)]

    def y(i, p):
        return Poly.variable(i - 1, n) * p

    def equal_ops(f, g):
        return all((f(m) - g(m)).is_zero() for m in monos)

    report = {}
    report["psi_squared_zero"] = all(
        equal_ops(lambda p, i=i: psi_op(i, psi_op(i, p)), lambda p: Poly.zero(n))
        for i in range(1, n))
    report["distant_commute"] = all(
        equal_ops(lambda p, i=i, j=j: psi_op(i, psi_op(j, p)),
                  lambda p, i=i, j=j: psi_op(j, psi_op(i, p)))
        for i in range(1, n) for j in range(1, n) if abs(i - j) > 1)
    report["braid"] = all(
        equal_ops(lambda p, i=i: psi_op(i, psi_op(i + 1, psi_op(i, p))),
                  lambda p, i=i: psi_op(i + 1, psi_op(i, psi_op(i + 1, p))))
        for i in range(1, n - 1))
    report["y_commute"] = all(
        equal_ops(lambda p, i=i, j=j: y(i, y(j, p)),
                  lambda p, i=i, j=j: y(j, y(i, p)))
        for i in range(1, n + 1) for j in range(1, n + 1))
    report["mixed_left"] = all(
        equal_ops(lambda p, i=i: y(i, psi_op(i, p)) - psi_op(i, y(i + 1, p)),
                  lambda p: p)
        for i in range(1, n))
    report["mixed_right"] = all(
        equal_ops(lambda p, i=i: psi_op(i, y(i, p)) - y(i + 1, psi_op(i, p)),
                  lambda p: p)
        for i in range(1, n))
    report["ok"] = all(v for v in report.values())
    return report


def _w0_word(n: int) -> list[int]:
    """A reduced word for the longest element: s1, s2 s1, s3 s2 s1, ..."""
    word: list[int] = []
    for i in range(1, n):
        word.extend(range(i, 0, -1))
    return word


def epsilon_idempotent(n: int, degree_bound: int) -> bool:
    """Check (y_1^{n-1} ... y_{n-1} psi_{w0})^2 = itself degreewise."""
    word = _w0_word(n)
    staircase = Poly.monomial(n, tuple(n - 1 - j for j in range(n)))

    def eps(p: Poly) -> Poly:
        for i in reversed(word):
            p = psi_op(i, p)
        return staircase * p

    max_total = degree_bound // 2
    for e in _monomials_up_to(n, max_total):
        m = Poly.monomial(n, e)
        if not (eps(eps(m)) - eps(m)).is_zero():
            return False
    return True
