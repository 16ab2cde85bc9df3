"""Sparse multivariate polynomials over Q and exact linear algebra.

Shared plumbing for the commutative-algebra checks: polynomial rings with
rational coefficients, exact long division, and the one echelon routine of
the package.  A polynomial coefficient is an ``int`` when it is integral
and a ``Fraction`` otherwise, as in ``qseries``; no float ever appears.
``Span`` keeps a sparse echelon basis (vectors are dicts key -> Fraction,
the pivot of a row is its least key) and grows it one vector at a time;
``rref``, ``rank`` and ``nullspace`` read it off for a list of sparse rows.
Callers key rows by the objects they already index (monomials, chain-basis
entries, candidate paths), so no dense matrix or column map is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """Echelonized span of sparse vectors (dict key -> Fraction).

    rows maps each pivot key to its row, which has coefficient 1 at the
    pivot, its least key, and 0 at every other pivot; adding a vector
    updates older rows in place.  Keys of one span must be mutually
    comparable; their order fixes the pivots.
    """

    def __init__(self, vectors=()):
        self.rows: dict = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v) -> dict:
        """Residue of v modulo the span; empty exactly when v lies in it."""
        v = {k: c for k, c in v.items() if c}
        # the rows vanish at each other's pivots, so one pass over the
        # pivots v starts with clears every pivot
        for p in sorted(self.rows.keys() & v.keys()):
            _subtract(v, v[p], self.rows[p])
        return v

    def add(self, v) -> bool:
        """Add v to the span; False when it was already in it."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        inv = _coef(1 / Fraction(r[p]))
        new = self.rows[p] = {k: c * inv for k, c in r.items()}
        # keep older rows reduced against the new pivot
        for row in self.rows.values():
            if row is not new and p in row:
                _subtract(row, row[p], new)
        return True

    def contains(self, v) -> bool:
        return not self.reduce(v)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _subtract(v: dict, c, row: dict) -> None:
    """v -= c * row in place, dropping the entries that cancel."""
    for k, rc in row.items():
        nv = v.get(k, 0) - c * rc
        if nv:
            v[k] = nv
        else:
            v.pop(k, None)


def rref(rows) -> dict:
    """Reduced row echelon form of sparse rows (dict key -> Fraction).

    Returns pivot key -> reduced row, pivots and the keys of each row in
    ascending order.  A row's pivot is its least key, so this is the usual
    reduced echelon form for columns in key order.
    """
    red = Span(rows).rows
    return {p: dict(sorted(red[p].items())) for p in sorted(red)}


def rank(rows) -> int:
    return len(rref(rows))


def nullspace(rows, ncols: int) -> list[dict]:
    """Basis of the right kernel of sparse rows over the columns 0..ncols-1,
    one sparse vector per non-pivot column, in column order."""
    red = rref(rows)
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        v = {f: Fraction(1)}
        for p, row in red.items():
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis
