"""Sparse multivariate polynomials over Q and exact linear algebra.

Shared plumbing for the commutative-algebra checks: polynomial rings with
rational coefficients, exact long division, and the one echelon routine of
the package.  A coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise, as in ``qseries``; no float ever appears.
``Span`` keeps a sparse echelon basis of primitive integer rows (vectors
are dicts key -> int or Fraction, the pivot of a row is its least key),
grows it one vector at a time by fraction-free elimination, and returns
the exact residue of a vector modulo it; ``rref``, ``rank`` and
``nullspace`` read it off for a list of sparse rows.
Callers key rows by the objects they already index (monomials, chain-basis
entries, candidate paths), so no dense matrix or column map is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .qseries import _coef

__all__ = ["Poly", "Span", "rref", "rank", "nullspace"]


@dataclass(frozen=True)
class Poly:
    """Polynomial in nvars commuting variables with rational coefficients.

    terms maps exponent tuples to nonzero coefficients, stored sorted; a
    coefficient is an int when integral and a Fraction otherwise.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int | Fraction], ...]

    @staticmethod
    def make(nvars: int, terms) -> "Poly":
        if isinstance(terms, dict):
            terms = terms.items()
        terms = [(tuple(exps), c) for exps, c in terms]
        for exps, _ in terms:
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for nvars={nvars}")
        return Poly._sorted(nvars, terms)

    @staticmethod
    def _sorted(nvars: int, terms) -> "Poly":
        """The Poly of (exponent tuple, coefficient) pairs whose tuples are
        already valid: zero terms dropped, the rest sorted."""
        clean = [(e, c) for e, c in ((e, _coef(c)) for e, c in terms) if c]
        clean.sort(key=lambda t: t[0])
        return Poly(nvars, tuple(clean))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, ())

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly.make(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly.make(nvars, {exps: 1})

    @staticmethod
    def monomial(nvars: int, exps, c=1) -> "Poly":
        return Poly.make(nvars, {tuple(exps): c})

    def as_dict(self) -> dict[tuple[int, ...], int | Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        d = self.as_dict()
        for exps, c in other.terms:
            d[exps] = d.get(exps, 0) + c
        return Poly._sorted(self.nvars, d.items())

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        d: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return Poly._sorted(self.nvars, d.items())

    def scale(self, c) -> "Poly":
        c = _coef(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((e, _coef(s * c)) for e, s in self.terms))

    def map_exponents(self, fn) -> "Poly":
        """Apply fn(exps) -> new exponent tuple termwise (variable relabelling)."""
        d: dict[tuple[int, ...], int | Fraction] = {}
        nv = None
        for exps, c in self.terms:
            new = tuple(fn(exps))
            nv = len(new)
            d[new] = d.get(new, 0) + c
        if nv is None:
            raise ValueError("cannot infer variable count from the zero polynomial")
        return Poly.make(nv, d)

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division; raise ValueError if the remainder is nonzero."""
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        lead_e, lead_c = max(divisor.terms, key=lambda t: t[0])
        rem = self
        quot: dict[tuple[int, ...], int | Fraction] = {}
        while not rem.is_zero():
            re, rc = max(rem.terms, key=lambda t: t[0])
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(e < 0 for e in qe):
                raise ValueError("division not exact")
            # a true division: Fraction, never the float of int / int
            qc = _coef(Fraction(rc, lead_c))
            quot[qe] = quot.get(qe, 0) + qc
            rem = rem - divisor * Poly.monomial(self.nvars, qe, qc)
        return Poly.make(self.nvars, quot)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class Span:
    """Echelonized span of sparse vectors (dict key -> int or Fraction).

    rows maps each pivot key to its row, a primitive integer vector: the
    gcd of its entries is 1, its pivot, its least key, holds a positive
    entry, and it is 0 at every other pivot.  Adding a vector reduces older
    rows against it.  Elimination is fraction-free (E. Bareiss, Math. Comp.
    22, 1968): a vector with Fraction entries is first multiplied by the
    lcm of its denominators, and one step is v <- a*v - b*row with a and b
    divided by their gcd.  Keys of one span must be mutually comparable;
    their order fixes the pivots.
    """

    def __init__(self, vectors=()):
        self.rows: dict = {}
        for v in vectors:
            self.add(v)

    def _residue(self, v) -> tuple[dict, int]:
        """(w, s): s > 0 times the residue of v modulo the span, as an
        integer vector w, zeros dropped."""
        w = {k: c for k, c in v.items() if c}
        s = 1
        if any(type(c) is not int for c in w.values()):
            # an int's denominator is 1
            s = lcm(*(c.denominator for c in w.values()))
            w = {k: c.numerator * (s // c.denominator) for k, c in w.items()}
        rows = self.rows
        # the rows vanish at each other's pivots, so one pass over the
        # pivots w starts with clears every pivot
        for p in sorted(rows.keys() & w.keys()):
            row = rows[p]
            a, b = _coprime(row[p], w[p])
            if a != 1:
                s *= a
                w = {k: a * c for k, c in w.items()}
            _subtract(w, b, row)
        return w, s

    def reduce(self, v) -> dict:
        """The exact residue of v modulo the span, linear in v: v minus the
        combination of rows that clears every pivot.  Empty exactly when v
        lies in the span; entries are ints when integral."""
        return _divided(*self._residue(v))

    def add(self, v) -> bool:
        """Add v to the span; False when it was already in it."""
        r, _ = self._residue(v)
        if not r:
            return False
        p = min(r)
        new = self.rows[p] = _primitive(r, r[p])
        # keep older rows reduced against the new pivot
        for q, row in self.rows.items():
            if row is not new and p in row:
                a, b = _coprime(new[p], row[p])
                row = {k: a * c for k, c in row.items()} if a != 1 else row
                _subtract(row, b, new)
                self.rows[q] = _primitive(row, row[q])
        return True

    def contains(self, v) -> bool:
        return not self._residue(v)[0]

    @property
    def dim(self) -> int:
        return len(self.rows)


def _coprime(a: int, b: int) -> tuple[int, int]:
    """a and b divided by their gcd, for the step v <- a*v - b*row."""
    g = gcd(a, b)
    return (a, b) if g == 1 else (a // g, b // g)


def _primitive(v: dict, lead: int) -> dict:
    """The integer vector v divided by the gcd of its entries, with the
    sign that makes its entry ``lead`` positive."""
    g = gcd(*v.values())
    if lead < 0:
        g = -g
    return v if g == 1 else {k: c // g for k, c in v.items()}


def _divided(v: dict, s: int) -> dict:
    """The integer vector v divided by s, entries ints when integral."""
    return v if s == 1 else {k: _coef(Fraction(c, s)) for k, c in v.items()}


def _subtract(v: dict, c, row: dict) -> None:
    """v -= c * row in place, dropping the entries that cancel."""
    for k, rc in row.items():
        nv = v.get(k, 0) - c * rc
        if nv:
            v[k] = nv
        else:
            v.pop(k, None)


def rref(rows) -> dict:
    """Reduced row echelon form of sparse rows (dict key -> int or Fraction).

    Returns pivot key -> reduced row, pivots and the keys of each row in
    ascending order; entries are ints when integral.  A row's pivot is its
    least key and holds 1, so this is the usual reduced echelon form for
    columns in key order.
    """
    red = Span(rows).rows
    return {p: _divided(dict(sorted(red[p].items())), red[p][p])
            for p in sorted(red)}


def rank(rows) -> int:
    return Span(rows).dim


def nullspace(rows, ncols: int) -> list[dict]:
    """Basis of the right kernel of sparse rows over the columns 0..ncols-1,
    one sparse vector per non-pivot column, in column order."""
    red = rref(rows)
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        v = {f: 1}
        for p, row in red.items():
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis
