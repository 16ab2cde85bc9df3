"""Sparse polynomials over Q and exact linear algebra."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.exactla import Poly, Span, nullspace, rank, rref


@st.composite
def polys(draw, nvars=2, max_terms=5):
    d = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(draw(st.integers(min_value=0, max_value=3))
                     for _ in range(nvars))
        d[exps] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=4))
    return Poly.make(nvars, d)


def seeded_poly(rng: random.Random) -> Poly:
    """Integer or rational coefficients, an integral Fraction among them."""
    return Poly.make(2, {
        (rng.randint(0, 3), rng.randint(0, 3)):
            rng.choice((1, -1, 2, 3, Fraction(4, 2), Fraction(1, 2),
                        Fraction(-3, 4)))
        for _ in range(rng.randint(0, 5))})


class TestPoly:
    def test_make_drops_zero_terms(self):
        p = Poly.make(2, {(1, 0): 0, (0, 1): 3})
        assert p.terms == (((0, 1), Fraction(3)),)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Poly.make(1, {(-1,): 1})

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert (a * (b + c)) == (a * b + a * c)
        assert (a - a).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_exact_division_inverts_multiplication(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divide_exact(b) == a

    def test_no_float_after_arithmetic(self):
        rng = random.Random(3)
        for _ in range(60):
            a, b = seeded_poly(rng), seeded_poly(rng)
            out = [a + b, a * b, a - b, a.scale(3), a.scale(Fraction(1, 2))]
            if not b.is_zero():
                out.append((a * b).divide_exact(b))
                # a leading coefficient 3 makes most quotients non-integral,
                # and a float third would not come back as 1/3
                third = (a * b).divide_exact(b.scale(3))
                assert third == a.scale(Fraction(1, 3))
                out.append(third)
            for p in out:
                assert not any(isinstance(c, float) for _, c in p.terms)
                assert all(type(c) is int or c.denominator != 1
                           for _, c in p.terms)

    def test_inexact_division_raises(self):
        x = Poly.variable(0, 1)
        one = Poly.constant(1, 1)
        with pytest.raises(ValueError):
            (x + one).divide_exact(x * x)

    def test_map_exponents_relabels_variables(self):
        p = Poly.make(2, {(1, 2): 5})
        q = p.map_exponents(lambda e: (e[1], e[0], 0))
        assert q == Poly.make(3, {(2, 1, 0): 5})


def sparse(rows):
    """Dense rows as sparse rows keyed by column index."""
    return [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]


def apply_row(row, v):
    return sum(c * v.get(k, 0) for k, c in row.items())


class TestLinearAlgebra:
    def test_rref_known_matrix(self):
        red = rref(sparse([[1, 2], [2, 4]]))
        assert list(red) == [0]
        assert red == {0: {0: Fraction(1), 1: Fraction(2)}}

    def test_rank(self):
        assert rank(sparse([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2

    def test_nullspace_kernel_vectors_annihilate(self):
        rows = sparse([[1, 2, 3], [0, 1, 1]])
        kernel = nullspace(rows, 3)
        assert len(kernel) == 1
        for v in kernel:
            for r in rows:
                assert apply_row(r, v) == 0

    def test_rank_nullity(self):
        rows = sparse([[1, 1, 0, 2], [0, 0, 1, 1], [1, 1, 1, 3]])
        assert rank(rows) + len(nullspace(rows, 4)) == 4

    def test_empty_matrix(self):
        # a 0 x 3 matrix has the whole of Q^3 as its kernel
        assert rank([]) == 0
        assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]

    def test_zero_entries_and_rows_are_ignored(self):
        assert rank([{0: Fraction(0)}, {}]) == 0
        assert rref([{0: 0, 1: Fraction(2)}]) == {1: {1: Fraction(1)}}

    def test_pivots_follow_key_order(self):
        # any comparable keys: the pivot of a row is its least key
        rows = [{("b", 1): Fraction(2), ("a", 2): Fraction(1)},
                {("a", 2): Fraction(1), ("c", 0): Fraction(3)}]
        red = rref(rows)
        assert list(red) == [("a", 2), ("b", 1)]
        assert red[("a", 2)] == {("a", 2): 1, ("c", 0): 3}
        assert red[("b", 1)] == {("b", 1): 1, ("c", 0): Fraction(-3, 2)}

    def test_span_add_and_contains(self):
        sp = Span()
        assert sp.add({1: Fraction(1), 2: Fraction(1)})
        assert sp.add({2: Fraction(2)})
        assert not sp.add({1: Fraction(3), 2: Fraction(-1)})
        assert sp.dim == 2
        assert sp.contains({1: Fraction(5)}) and not sp.contains({3: 1})
        assert sp.reduce({1: Fraction(1), 3: Fraction(4)}) == {3: 4}

    def test_integral_rows_with_unit_pivots_stay_ints(self):
        # pivots -1 and 1: every reduced row is integral, and kept as ints
        sp = Span([{0: -1, 1: 2, 2: 3}, {1: 1, 2: -4}])
        assert sp.rows == {0: {0: 1, 2: -11}, 1: {1: 1, 2: -4}}
        assert all(type(c) is int for row in sp.rows.values()
                   for c in row.values())


entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=5))
    nrows = draw(st.integers(min_value=0, max_value=5))
    dense = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    return sparse(dense), ncols


class TestEchelonProperties:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.data())
    def test_echelon_invariants(self, matrix, data):
        rows, ncols = matrix
        red = rref(rows)
        pivots = list(red)
        assert pivots == sorted(pivots)
        for p, row in red.items():
            assert list(row) == sorted(row)
            assert min(row) == p and row[p] == 1
            assert all(row.get(q, 0) == 0 for q in pivots if q != p)
        span = Span(rows)
        assert span.dim == len(red)
        assert all(span.contains(r) for r in rows)
        # the echelon rows span the same space as the input
        assert all(Span(red.values()).contains(r) for r in rows)
        kernel = nullspace(rows, ncols)
        assert rank(rows) + len(kernel) == ncols
        assert all(apply_row(r, v) == 0 for r in rows for v in kernel)
        shuffled = data.draw(st.permutations(rows))
        assert rref(shuffled) == red


# -- the integer kernel against a Fraction Gauss-Jordan reference -------------

def reference_rref(rows):
    """Gauss-Jordan over Fraction, pivots in key order, every pivot 1."""
    red = {}
    for r in rows:
        v = {k: Fraction(c) for k, c in r.items() if c}
        v = reference_residue(red, v)
        if not v:
            continue
        p = min(v)
        new = {k: c / v[p] for k, c in v.items()}
        for q, row in red.items():
            if p in row:
                red[q] = {k: c for k, c in
                          ((k, row.get(k, 0) - row[p] * new.get(k, 0))
                           for k in row.keys() | new.keys()) if c}
        red[p] = new
    return {p: dict(sorted(red[p].items())) for p in sorted(red)}


def reference_residue(red, v):
    """v minus the combination of the reduced rows that clears each pivot."""
    out = {k: Fraction(c) for k, c in v.items() if c}
    for p, row in red.items():
        c = out.get(p, 0)
        for k, rc in row.items():
            out[k] = out.get(k, 0) - c * rc
    return {k: c for k, c in out.items() if c}


def reference_nullspace(red, ncols):
    return [{f: 1, **{p: -row[f] for p, row in red.items() if f in row}}
            for f in range(ncols) if f not in red]


def combine(a, v, b, w):
    out = {k: a * v.get(k, 0) + b * w.get(k, 0) for k in v.keys() | w.keys()}
    return {k: c for k, c in out.items() if c}


def integral_stays_int(d):
    return all(type(c) is int or c.denominator != 1 for c in d.values())


# ints with negative and non-unit pivots, Fractions, and zeros
coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def vector_lists(draw):
    ncols = draw(st.integers(min_value=1, max_value=5))
    vector = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1),
                             coefficients, max_size=ncols)
    rows = draw(st.lists(vector, max_size=5))
    if rows and draw(st.booleans()):
        # a repeated vector, and a multiple of one
        rows.append(dict(draw(st.sampled_from(rows))))
        rows.append({k: -2 * c for k, c in draw(st.sampled_from(rows)).items()})
    probes = draw(st.lists(vector, min_size=2, max_size=2))
    return rows, ncols, probes


class TestIntegerSpan:
    @settings(max_examples=70, deadline=None)
    @given(vector_lists(), coefficients, coefficients)
    def test_matches_fraction_reference(self, case, a, b):
        rows, ncols, (v, w) = case
        red = reference_rref(rows)
        assert rank(rows) == len(red)
        got = rref(rows)
        assert got == red
        assert list(got) == list(red)
        assert all(integral_stays_int(row) for row in got.values())
        assert nullspace(rows, ncols) == reference_nullspace(red, ncols)
        span = Span(rows)
        for row in span.rows.values():
            assert all(type(c) is int for c in row.values())
            assert math.gcd(*row.values()) == 1 and row[min(row)] > 0
            assert not any(row.get(q) for q in span.rows if q != min(row))
        for x in (v, w):
            assert span.reduce(x) == reference_residue(red, x)
            assert integral_stays_int(span.reduce(x))
            assert span.contains(x) == (not reference_residue(red, x))
        # the residue is linear in the vector, with no per-call scale
        assert span.reduce(combine(a, v, b, w)) == combine(
            a, span.reduce(v), b, span.reduce(w))

    def test_residue_is_not_rescaled_by_a_non_unit_pivot(self):
        # the row's pivot 2 scales v by 2 during elimination: the residue
        # must still be v - row/2, not 2v - row
        sp = Span([{0: 2, 1: 1}])
        assert sp.rows == {0: {0: 2, 1: 1}}
        assert sp.reduce({0: 1}) == {1: Fraction(-1, 2)}
        assert sp.reduce({0: 2}) == {1: -1}
        assert Span([{0: 2, 1: 1}, {0: 1}]).rows == {0: {0: 1}, 1: {1: 1}}
        # with a second span vector the residue of v clears both pivots
        sp.add({1: 3, 2: 1})
        assert sp.reduce({0: 1, 2: 1}) == {2: Fraction(7, 6)}

    def test_fraction_input_rows_are_integral(self):
        sp = Span([{0: Fraction(-1, 2), 1: Fraction(1, 3)}])
        assert sp.rows == {0: {0: 3, 1: -2}}
        assert rref([{0: Fraction(-1, 2), 1: Fraction(1, 3)}]) == {
            0: {0: 1, 1: Fraction(-2, 3)}}
        # an integral Fraction comes back as an int
        red = rref([{0: Fraction(2), 1: Fraction(4)}])
        assert red == {0: {0: 1, 1: 2}} and type(red[0][1]) is int
