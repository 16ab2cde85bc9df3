"""Exact Laurent polynomials over Q, quantum integers, bigraded polynomials.

A LaurentSeries is an exact Laurent polynomial with rational coefficients,
stored from its lowest nonzero degree up.  A coefficient is a Python ``int``
when it is integral and a ``Fraction`` otherwise; every true division goes
through ``Fraction``, so no float ever appears.  The invariants are
integral, so the hot path runs on ints.  Each polynomial has one
representation, so ``==`` is equality of polynomials.

A product of two lone series, ``LaurentSeries.__mul__``, goes through the
convolution kernel ``convolve_into``, which works on the degree ->
coefficient form of a series (``support()``).  In the package only
``complexes.euler_characteristic_vs_p2`` and ``Intertwiner.tensor`` call
it.  Every other product packs each integer coefficient list into one int
(``packing``) and multiplies those: the evaluation states and slice maps of
``invariant``, and ``uqsl2.scaled_sum`` and ``uqsl2.packed_product``, which
carry the divided powers and the scale, apply and composition of module
elements and maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

__all__ = [
    "LaurentSeries",
    "BigradedPolynomial",
    "convolve_into",
    "quantum_integer",
    "quantum_binomial",
    "binomial_row",
    "bigraded_expand_homofunknot",
]


def _coef(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class LaurentSeries:
    """Element of Q[q, q^-1].

    ``coeffs[i]`` is the coefficient of ``q**(min_deg + i)``, an int when
    integral and a Fraction otherwise, with neither the first nor the last
    zero.  The zero series is the canonical representative with an empty
    coefficient tuple and ``min_deg`` 0.
    """

    min_deg: int
    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def make(min_deg: int, coeffs: Iterable) -> "LaurentSeries":
        # skip the call for ints; this sits on the hottest path
        cs = [c if type(c) is int else _coef(c) for c in coeffs]
        while cs and cs[0] == 0:
            cs.pop(0)
            min_deg += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            min_deg = 0
        return LaurentSeries(min_deg, tuple(cs))

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries(0, ())

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries(0, (1,))

    @staticmethod
    def monomial(deg: int, coeff=1) -> "LaurentSeries":
        return LaurentSeries.make(deg, [coeff])

    @staticmethod
    def from_dict(d: Mapping[int, int | Fraction]) -> "LaurentSeries":
        if not d:
            return LaurentSeries.zero()
        lo = min(d)
        hi = max(d)
        return LaurentSeries.make(lo, [d.get(i, 0) for i in range(lo, hi + 1)])

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, deg: int) -> int | Fraction:
        i = deg - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def support(self) -> dict[int, int | Fraction]:
        return {d: c for d, c in enumerate(self.coeffs, self.min_deg) if c}

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        d = dict(self.support())
        for k, c in other.support().items():
            d[k] = d.get(k, 0) + c
        return LaurentSeries.from_dict(d)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_deg, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        out: dict[int, int | Fraction] = {}
        convolve_into(out, enumerate(self.coeffs, self.min_deg),
                      other.support())
        return LaurentSeries.from_dict(out)

    def scale(self, c) -> "LaurentSeries":
        c = _coef(c)
        if c == 0:
            return LaurentSeries.zero()
        return LaurentSeries(self.min_deg, tuple(_coef(c * x) for x in self.coeffs))

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by q**n."""
        if self.is_zero():
            return self
        return LaurentSeries(self.min_deg + n, self.coeffs)

    def invert(self) -> "LaurentSeries":
        """The inverse of a unit of Z[q, q^-1], +-q^k; ValueError for any
        other series, whose inverse is not a Laurent polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero series")
        if self.coeffs not in ((1,), (-1,)):
            raise ValueError(f"{self} is not a unit +-q^k")
        return LaurentSeries(-self.min_deg, self.coeffs)

    def bar(self) -> "LaurentSeries":
        """Apply q -> q^{-1}."""
        return LaurentSeries.from_dict({-k: c for k, c in self.support().items()})

    def eval_at_one(self) -> int | Fraction:
        return _coef(sum(self.coeffs))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- presentation -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
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
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        # every value is exact, so the window key is always null; it keeps
        # the schema that readers of earlier outputs parse
        return {
            "min_deg": self.min_deg,
            "valid_to": None,
            "coeffs": [str(c) for c in self.coeffs],
        }


# -- the convolution kernel -------------------------------------------------

def convolve_into(out: dict, a: Iterable, b: Mapping) -> None:
    """Add the coefficients of a * b into out.

    a is a sequence of (degree, coefficient) pairs, read once; b and out
    map degree to coefficient.  A zero coefficient of a is skipped; b holds
    only nonzero ones.
    """
    get = out.get
    for i, x in a:
        if x:
            for j, y in b.items():
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
