"""Exact truncated Laurent series over Q, quantum integers, bigraded polynomials.

A LaurentSeries stores exact rational coefficients together with an explicit
validity window: coefficients of q^d are guaranteed correct for all d up to
``valid_to`` (inclusive).  ``valid_to is None`` means the element is an exact
Laurent polynomial, correct in every degree.  Arithmetic never widens a
window, so every reported coefficient is trustworthy.

A coefficient is a Python ``int`` when it is integral and a ``Fraction``
otherwise; every true division goes through ``Fraction``, so no float ever
appears.  The invariants are integral, so the hot path runs on ints.

A product of two lone series, ``LaurentSeries.__mul__``, goes through the
convolution kernel ``convolve_into``, which works on the degree ->
coefficient form of a series (``support()``) and is windowed by
``product_window``.  The products in bulk do not: the evaluation states of
``invariant`` and the module maps of ``uqsl2.scaled_sum`` (the scale, apply
and composition of ``uqsl2`` and ``intertwiner``) pack each entry's integer
coefficients into one int (``packing``) and multiply those, windowed by the
same ``product_window``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

__all__ = [
    "DEFAULT_PRECISION",
    "LaurentSeries",
    "BigradedPolynomial",
    "convolve_into",
    "product_window",
    "quantum_integer",
    "quantum_factorial",
    "quantum_binomial",
    "binomial_row",
    "bigraded_expand_homofunknot",
]

# Number of coefficients produced by series inversion unless told otherwise.
DEFAULT_PRECISION = 64


def _coef(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _min_valid(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated element of Q((q)).

    ``coeffs[i]`` is the coefficient of ``q**(min_deg + i)``, an int when
    integral and a Fraction otherwise.  The zero series is the canonical
    representative with an empty coefficient tuple.
    """

    min_deg: int
    coeffs: tuple[int | Fraction, ...]
    valid_to: int | None = None

    @staticmethod
    def make(min_deg: int, coeffs: Iterable, valid_to: int | None = None) -> "LaurentSeries":
        # skip the call for ints; this sits on the hottest path
        cs = [c if type(c) is int else _coef(c) for c in coeffs]
        # clamp stored data to the validity window
        if valid_to is not None:
            keep = valid_to - min_deg + 1
            cs = cs[:max(keep, 0)]
        while cs and cs[0] == 0:
            cs.pop(0)
            min_deg += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            min_deg = 0
        return LaurentSeries(min_deg, tuple(cs), valid_to)

    @staticmethod
    def zero(valid_to: int | None = None) -> "LaurentSeries":
        return LaurentSeries(0, (), valid_to)

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries(0, (1,))

    @staticmethod
    def monomial(deg: int, coeff=1) -> "LaurentSeries":
        return LaurentSeries.make(deg, [coeff])

    @staticmethod
    def from_dict(d: Mapping[int, int | Fraction],
                  valid_to: int | None = None) -> "LaurentSeries":
        if not d:
            return LaurentSeries.zero(valid_to)
        lo = min(d)
        hi = max(d)
        return LaurentSeries.make(lo, [d.get(i, 0) for i in range(lo, hi + 1)], valid_to)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, deg: int) -> int | Fraction:
        i = deg - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def top_deg(self) -> int | None:
        """Highest stored nonzero degree, or None for the zero series."""
        if not self.coeffs:
            return None
        return self.min_deg + len(self.coeffs) - 1

    def support(self) -> dict[int, int | Fraction]:
        return {d: c for d, c in enumerate(self.coeffs, self.min_deg) if c}

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        v = _min_valid(self.valid_to, other.valid_to)
        d = dict(self.support())
        for k, c in other.support().items():
            d[k] = d.get(k, 0) + c
        return LaurentSeries.from_dict(d, v)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_deg, tuple(-c for c in self.coeffs), self.valid_to)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        v = product_window(self.min_deg, self.valid_to,
                           other.min_deg, other.valid_to)
        out: dict[int, int | Fraction] = {}
        convolve_into(out, enumerate(self.coeffs, self.min_deg),
                      other.support(), v)
        return LaurentSeries.from_dict(out, v)

    def scale(self, c) -> "LaurentSeries":
        c = _coef(c)
        if c == 0:
            return LaurentSeries.zero(self.valid_to)
        return LaurentSeries(self.min_deg, tuple(_coef(c * x) for x in self.coeffs),
                             self.valid_to)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by q**n."""
        if self.is_zero():
            return LaurentSeries.zero(None if self.valid_to is None else self.valid_to + n)
        return LaurentSeries(self.min_deg + n, self.coeffs,
                             None if self.valid_to is None else self.valid_to + n)

    def invert(self, precision: int | None = None) -> "LaurentSeries":
        if self.is_zero():
            raise ZeroDivisionError("division by zero series")
        if precision is None:
            precision = DEFAULT_PRECISION
        m = self.min_deg
        # window of the result
        if self.valid_to is None:
            v = -m + precision - 1
        else:
            v = min(self.valid_to - 2 * m, -m + precision - 1)
        n_terms = v + m + 1  # coefficients of the unit part to produce
        if n_terms <= 0:
            return LaurentSeries.zero(v)
        a = self.coeffs
        # an int when the leading coefficient is +-1
        inv0 = _coef(Fraction(1, a[0]))
        b = [0] * n_terms
        b[0] = inv0
        for i in range(1, n_terms):
            s = 0
            for j in range(1, min(i, len(a) - 1) + 1):
                s += a[j] * b[i - j]
            b[i] = -inv0 * s
        return LaurentSeries.make(-m, b, v)

    def bar(self) -> "LaurentSeries":
        """Apply q -> q^{-1}.  Only meaningful for exact polynomials."""
        if self.valid_to is not None:
            raise ValueError("bar involution needs an exact polynomial")
        d = {-k: c for k, c in self.support().items()}
        return LaurentSeries.from_dict(d, None)

    def eq_upto(self, other: "LaurentSeries") -> bool:
        """Equality on the common validity window."""
        v = _min_valid(self.valid_to, other.valid_to)
        sa, sb = self.support(), other.support()
        for k in set(sa) | set(sb):
            if v is not None and k > v:
                continue
            if sa.get(k, 0) != sb.get(k, 0):
                return False
        return True

    def eval_at_one(self) -> int | Fraction:
        return _coef(sum(self.coeffs))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- presentation -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for k, c in sorted(self.support().items()):
                if k == 0:
                    term = str(c)
                else:
                    qs = "q" if k == 1 else f"q^{k}"
                    if c == 1:
                        term = qs
                    elif c == -1:
                        term = "-" + qs
                    else:
                        term = f"{c}*{qs}"
                parts.append(term)
            body = " + ".join(parts).replace("+ -", "- ")
        if self.valid_to is not None:
            body += f" + O(q^{self.valid_to + 1})"
        return body

    def to_json(self) -> dict:
        return {
            "min_deg": self.min_deg,
            "valid_to": self.valid_to,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(d: dict) -> "LaurentSeries":
        return LaurentSeries.make(d["min_deg"], [Fraction(c) for c in d["coeffs"]], d["valid_to"])


# -- the convolution kernel -------------------------------------------------

def product_window(lo_a: int, va: int | None, lo_b: int,
                   vb: int | None) -> int | None:
    """Validity window of a product of two factors with lowest degrees lo_a,
    lo_b (0 for zero) and windows va, vb: each factor's window shifted by
    the other's lowest degree."""
    if va is None:
        return None if vb is None else vb + lo_a
    if vb is None:
        return va + lo_b
    return min(va + lo_b, vb + lo_a)


def convolve_into(out: dict, a: Iterable, b: Mapping, v: int | None) -> None:
    """Add the coefficients of a * b up to degree v (all if None) into out.

    a is a sequence of (degree, coefficient) pairs, read once; b and out
    map degree to coefficient.  A zero coefficient of a is skipped; b holds
    only nonzero ones.
    """
    get = out.get
    if v is None:
        for i, x in a:
            if x:
                for j, y in b.items():
                    out[i + j] = get(i + j, 0) + x * y
        return
    for i, x in a:
        if x:
            lim = v - i
            for j, y in b.items():
                if j <= lim:
                    out[i + j] = get(i + j, 0) + x * y


# -- quantum combinatorics --------------------------------------------------

def quantum_integer(k: int) -> LaurentSeries:
    """[k] = q^{k-1} + q^{k-3} + ... + q^{1-k}."""
    if k < 0:
        raise ValueError("quantum_integer needs k >= 0")
    if k == 0:
        return LaurentSeries.zero()
    return LaurentSeries.make(-(k - 1), [1 if i % 2 == 0 else 0 for i in range(2 * k - 1)])


@lru_cache(maxsize=None)
def quantum_factorial(k: int) -> LaurentSeries:
    out = LaurentSeries.one()
    for i in range(1, k + 1):
        out = out * quantum_integer(i)
    return out


@lru_cache(maxsize=None)
def binomial_row(n: int) -> tuple[LaurentSeries, ...]:
    """The row [n, 0], ..., [n, n] of quantum binomials, exact polynomials.

    [n, k] = q^(-k(n-k)) g_k(q^2) for the Gaussian binomial
    g_k = g_(k-1) (1 - x^(n-k+1)) / (1 - x^k), so each entry takes one
    multiplication and one exact division by 1 - x^k of integer lists, with
    no division of coefficients: about n^3/6 steps for the row, with
    nothing recursing and no other row kept.
    """
    row = [LaurentSeries.one()]
    g = [1]
    for k in range(1, n + 1):
        s = n - k + 1
        g += [0] * s
        for e in range(len(g) - 1, s - 1, -1):
            g[e] -= g[e - s]
        for e in range(k, len(g)):
            g[e] += g[e - k]
        del g[len(g) - k:]
        coeffs = [0] * (2 * len(g) - 1)
        coeffs[::2] = g
        row.append(LaurentSeries.make(-k * (n - k), coeffs))
    return tuple(row)


def quantum_binomial(n: int, k: int) -> LaurentSeries:
    """[n choose k] = [n]! / ([k]! [n-k]!), read from binomial_row(n)."""
    if not 0 <= k <= n:
        raise ValueError("quantum_binomial needs 0 <= k <= n")
    return binomial_row(n)[k]


# -- bigraded Poincare polynomials ------------------------------------------

@dataclass(frozen=True)
class BigradedPolynomial:
    """Finite Q-linear combination of monomials t^h q^d."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def make(d: Mapping[tuple[int, int], Fraction | int]) -> "BigradedPolynomial":
        items = tuple(sorted(((hq, Fraction(c)) for hq, c in d.items() if c != 0)))
        return BigradedPolynomial(items)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "BigradedPolynomial") -> "BigradedPolynomial":
        d = self.as_dict()
        for hq, c in other.terms:
            d[hq] = d.get(hq, Fraction(0)) + c
        return BigradedPolynomial.make(d)

    def __mul__(self, other: "BigradedPolynomial") -> "BigradedPolynomial":
        d: dict[tuple[int, int], Fraction] = {}
        for (h1, q1), c1 in self.terms:
            for (h2, q2), c2 in other.terms:
                k = (h1 + h2, q1 + q2)
                d[k] = d.get(k, Fraction(0)) + c1 * c2
        return BigradedPolynomial.make(d)

    def eval_t(self, t: Fraction | int) -> LaurentSeries:
        """Substitute a rational number for t, leaving a polynomial in q."""
        d: dict[int, Fraction] = {}
        for (h, qd), c in self.terms:
            if h < 0 and t == 0:
                raise ZeroDivisionError("t = 0 with negative homological degree")
            d[qd] = d.get(qd, Fraction(0)) + c * Fraction(t) ** h
        return LaurentSeries.from_dict(d)

    def to_json(self) -> list[dict]:
        return [{"h": h, "q": qd, "c": str(c)} for (h, qd), c in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (h, qd), c in sorted(self.terms, key=lambda x: (-x[0][0], x[0][1])):
            mono = []
            if qd != 0:
                mono.append("q" if qd == 1 else f"q^{qd}")
            if h != 0:
                mono.append("t" if h == 1 else f"t^{h}")
            ms = "*".join(mono) if mono else "1"
            if c == 1 and mono:
                parts.append(ms)
            elif c == -1 and mono:
                parts.append(f"-{ms}")
            elif mono:
                parts.append(f"{c}*{ms}")
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


def bigraded_expand_homofunknot(h_min: int) -> BigradedPolynomial:
    """Expansion of q^2 t^2 + (1 + q^-2) + q^-6 t^-2 (1 + t^-1) / (1 - t^-2 q^-4).

    The geometric tail is expanded down to homological degrees >= h_min.
    """
    if h_min > 0:
        raise ValueError("h_min must be <= 0")
    d: dict[tuple[int, int], Fraction] = {
        (2, 2): Fraction(1),
        (0, 0): Fraction(1),
        (0, -2): Fraction(1),
    }
    j = 0
    while True:
        h_even = -2 - 2 * j
        if h_even < h_min and h_even - 1 < h_min:
            break
        qd = -6 - 4 * j
        if h_even >= h_min:
            d[(h_even, qd)] = d.get((h_even, qd), Fraction(0)) + 1
        if h_even - 1 >= h_min:
            d[(h_even - 1, qd)] = d.get((h_even - 1, qd), Fraction(0)) + 1
        j += 1
    return BigradedPolynomial.make(d)
