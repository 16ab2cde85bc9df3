"""The quantum sl2 action on irreducibles V_n and their tensor products.

Elements of V_{d_1} (x) ... (x) V_{d_r} are sparse maps from basis index
tuples to Laurent series.  The generator action on a single factor is

    K^{+-1} v_i = q^{+-(2i-n)} v_i,   E v_i = [i+1] v_{i+1},   F v_i = [n-i+1] v_{i-1},

and on tensor products it is given by the iterated comultiplication

    Delta(E) = 1 (x) E + E (x) K^{-1},
    Delta(F) = K (x) F + F (x) 1,
    Delta(K^{+-1}) = K^{+-1} (x) K^{+-1}.

scaled_sum, under ModuleElement.scale and intertwiner's Intertwiner.apply,
multiplies elements by series as packed ints (packing), in a pack step and
an accumulate step that Intertwiner.compose also calls; it takes integer
coefficients only: every map the package builds is integral, since each
series it inverts has lowest coefficient 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packing import low_digit, pack, unpack, width
from .qseries import (LaurentSeries, product_window, quantum_binomial,
                      quantum_factorial, quantum_integer)

__all__ = [
    "ModuleElement",
    "scaled_sum",
    "l1",
    "pack_series",
    "pack_element",
    "accumulate",
    "act",
    "act_on_range",
    "divided_power_act",
    "divided_power_act_closed",
    "weight_projector",
    "bilinear_form",
    "seq_stats",
    "weight",
    "basis_indices",
    "basis_indices_of_weight",
]

GENERATORS = ("E", "F", "K", "Kinv")


def weight(colours: tuple[int, ...], index: tuple[int, ...]) -> int:
    return sum(2 * a - d for a, d in zip(index, colours))


def basis_indices(colours: tuple[int, ...]):
    """All index tuples, in lexicographic order."""
    if not colours:
        yield ()
        return
    for a in range(colours[0] + 1):
        for rest in basis_indices(colours[1:]):
            yield (a,) + rest


def basis_indices_of_weight(colours: tuple[int, ...], mu: int) -> list[tuple[int, ...]]:
    return [a for a in basis_indices(colours) if weight(colours, a) == mu]


@dataclass(frozen=True)
class ModuleElement:
    """Sparse vector in a tensor product of irreducibles."""

    colours: tuple[int, ...]
    coords: tuple[tuple[tuple[int, ...], LaurentSeries], ...]

    @staticmethod
    def make(colours, coords) -> "ModuleElement":
        colours = tuple(colours)
        if isinstance(coords, dict):
            items = coords.items()
        else:
            items = coords
        clean = []
        for idx, c in items:
            idx = tuple(idx)
            if len(idx) != len(colours) or any(not 0 <= a <= d for a, d in zip(idx, colours)):
                raise ValueError(f"index {idx} invalid for colours {colours}")
            # a series that is zero on its window keeps the window
            if c.coeffs or c.valid_to is not None:
                clean.append((idx, c))
        clean.sort(key=lambda t: t[0])
        return ModuleElement(colours, tuple(clean))

    @staticmethod
    def basis_vector(colours, index) -> "ModuleElement":
        return ModuleElement.make(colours, {tuple(index): LaurentSeries.one()})

    @staticmethod
    def zero(colours) -> "ModuleElement":
        return ModuleElement(tuple(colours), ())

    def as_dict(self) -> dict[tuple[int, ...], LaurentSeries]:
        return dict(self.coords)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if self.colours != other.colours:
            raise ValueError("mismatched factorizations")
        d = self.as_dict()
        for idx, c in other.coords:
            d[idx] = d[idx] + c if idx in d else c
        return ModuleElement.make(self.colours, d)

    def scale(self, s: LaurentSeries) -> "ModuleElement":
        """s times this element; an entry or s with a Fraction coefficient
        raises TypeError (scaled_sum)."""
        return scaled_sum(self.colours, ((self, s),))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scale(LaurentSeries.monomial(0, -1))

    def is_zero(self) -> bool:
        return not self.coords

    def eq_upto(self, other: "ModuleElement") -> bool:
        d1, d2 = self.as_dict(), other.as_dict()
        zero = LaurentSeries.zero()
        for idx in set(d1) | set(d2):
            if not d1.get(idx, zero).eq_upto(d2.get(idx, zero)):
                return False
        return True

    def to_json(self) -> list[dict]:
        return [{"index": list(i), "series": c.to_json()} for i, c in self.coords]


def scaled_sum(colours, terms) -> ModuleElement:
    """The sum of x.scale(c) over the (x, c) pairs of ``terms``, every x in
    the tensor product of these colours.

    Each factor is packed once (pack_element, pack_series), with one digit
    width for all of them, from the sum over the pairs of L1(c) times
    L1(x), which bounds every coefficient of every partial sum; accumulate
    then forms the sum.  Integer coefficients only: a Fraction raises
    TypeError, as in packing.pack.
    """
    terms = [(x.coords, c) for x, c in terms]
    bits = width(sum(l1(c) * sum(l1(a) for _, a in coords)
                     for coords, c in terms))
    return accumulate(colours, ((pack_element(coords, bits),
                                 pack_series(c, bits)) for coords, c in terms),
                      bits)


def l1(c: LaurentSeries) -> int:
    """The sum of the absolute values of c's coefficients."""
    return sum(map(abs, c.coeffs))


def pack_series(c: LaurentSeries, bits: int) -> tuple:
    """The pack step for one series: (packed coefficients, lowest degree,
    window)."""
    return pack(c.coeffs, bits), c.min_deg, c.valid_to


def pack_element(coords, bits: int) -> list:
    """The pack step for the coords of an element: (index, pack_series)
    per entry."""
    return [(idx, pack_series(a, bits)) for idx, a in coords]


def accumulate(colours, terms, bits: int) -> ModuleElement:
    """The accumulate step of scaled_sum: the sum of x times c over the
    (pack_element(x.coords), pack_series(c)) pairs of ``terms``, all packed
    with digits of ``bits`` bits, which must hold every coefficient of every
    partial sum.

    An output entry is one multiply of packed ints per contributing pair,
    its sum kept packed from its lowest degree so far and moved up when a
    lower term arrives, and it is unpacked once.  Its window is the
    smallest product_window of its terms, so a sum that vanishes on its
    window keeps it.
    """
    acc: dict[tuple[int, ...], list] = {}
    get = acc.get
    for entries, (pc, lc, vc) in terms:
        for idx, (pa, la, va) in entries:
            lo = la + lc
            p = pa * pc
            v = product_window(la, va, lc, vc)
            got = get(idx)
            if got is None:
                acc[idx] = [lo, p, v]
                continue
            if lo >= got[0]:
                got[1] += p << bits * (lo - got[0])
            else:
                got[0], got[1] = lo, (got[1] << bits * (got[0] - lo)) + p
            if v is not None and (got[2] is None or v < got[2]):
                got[2] = v
    out = []
    for idx, (lo, p, v) in sorted(acc.items()):
        if p:
            j = low_digit(p, bits)
            cs = unpack(p >> bits * j, bits)
            out.append((idx, LaurentSeries(lo + j, tuple(cs)) if v is None
                        else LaurentSeries.make(lo + j, cs, v)))
        elif v is not None:
            out.append((idx, LaurentSeries.zero(v)))
    return ModuleElement(tuple(colours), tuple(out))


def _act_index(gen: str, colours, index, lo: int, hi: int):
    """Terms of gen acting on basis vector index, on tensor slots lo..hi-1.

    Yields (new_index, coefficient) pairs.
    """
    if gen in ("K", "Kinv"):
        mu = sum(2 * index[j] - colours[j] for j in range(lo, hi))
        e = mu if gen == "K" else -mu
        yield index, LaurentSeries.monomial(e)
        return
    for j in range(lo, hi):
        d, a = colours[j], index[j]
        if gen == "E":
            if a == d:
                continue
            coeff = quantum_integer(a + 1)
            # K^{-1} on all factors to the right of slot j
            mu = sum(2 * index[t] - colours[t] for t in range(j + 1, hi))
            coeff = coeff.shift(-mu)
            new = index[:j] + (a + 1,) + index[j + 1:]
        else:  # F
            if a == 0:
                continue
            coeff = quantum_integer(d - a + 1)
            # K on all factors to the left of slot j
            mu = sum(2 * index[t] - colours[t] for t in range(lo, j))
            coeff = coeff.shift(mu)
            new = index[:j] + (a - 1,) + index[j + 1:]
        yield new, coeff


def act_on_range(gen: str, x: ModuleElement, lo: int, hi: int) -> ModuleElement:
    """Apply a generator through the comultiplication on slots lo..hi-1 only."""
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen}")
    out: dict[tuple[int, ...], LaurentSeries] = {}
    for idx, c in x.coords:
        for new, coeff in _act_index(gen, x.colours, idx, lo, hi):
            t = c * coeff
            out[new] = out[new] + t if new in out else t
    return ModuleElement.make(x.colours, out)


def act(gen: str, x: ModuleElement) -> ModuleElement:
    return act_on_range(gen, x, 0, len(x.colours))


def divided_power_act(gen: str, k: int, x: ModuleElement,
                      precision: int | None = None) -> ModuleElement:
    """E^{(k)} or F^{(k)}: act k times, then divide by [k]! exactly."""
    if gen not in ("E", "F"):
        raise ValueError("divided powers only for E and F")
    if k < 0:
        raise ValueError("k must be nonnegative")
    for _ in range(k):
        x = act(gen, x)
    if k >= 2:
        x = x.scale(quantum_factorial(k).invert(precision))
    return x


def _divided_power_single(gen: str, k: int, d: int, a: int):
    """E^{(k)} v_a = [a+k, k] v_{a+k} and F^{(k)} v_a = [d-a+k, k] v_{a-k} on V_d."""
    if gen == "E":
        if a + k > d:
            return None
        return a + k, quantum_binomial(a + k, k)
    if a - k < 0:
        return None
    return a - k, quantum_binomial(d - a + k, k)


def divided_power_act_closed(gen: str, k: int, x: ModuleElement,
                             lo: int = 0, hi: int | None = None) -> ModuleElement:
    """Divided power action via the closed comultiplication formulas

    Delta(E^{(k)}) = sum_i q^{-i(k-i)} E^{(k-i)} (x) E^{(i)} K^{-k+i},
    Delta(F^{(k)}) = sum_i q^{ i(k-i)} K^i F^{(k-i)} (x) F^{(i)},

    applied recursively (first slot | remaining slots).
    """
    if hi is None:
        hi = len(x.colours)
    out: dict[tuple[int, ...], LaurentSeries] = {}
    for idx, c in x.coords:
        for new, coeff in _dp_terms(gen, k, x.colours, idx, lo, hi):
            t = c * coeff
            out[new] = out[new] + t if new in out else t
    return ModuleElement.make(x.colours, out)


def _dp_terms(gen: str, k: int, colours, index, lo: int, hi: int):
    if k == 0:
        yield index, LaurentSeries.one()
        return
    if lo >= hi:
        return
    if hi - lo == 1:
        r = _divided_power_single(gen, k, colours[lo], index[lo])
        if r is not None:
            new_a, coeff = r
            yield index[:lo] + (new_a,) + index[lo + 1:], coeff
        return
    d0, a0 = colours[lo], index[lo]
    for i in range(k + 1):
        # first tensor slot takes k - i, the rest take i
        r = _divided_power_single(gen, k - i, d0, a0)
        if r is None:
            continue
        new_a, c0 = r
        if gen == "E":
            c0 = c0.shift(-i * (k - i))
        else:
            c0 = c0.shift(i * (k - i))
        for rest_idx, c1 in _dp_terms(gen, i, colours, index[:lo] + (new_a,) + index[lo + 1:],
                                      lo + 1, hi):
            coeff = c0 * c1
            if gen == "E":
                # trailing K^{-k+i} on the right part, evaluated on the original index
                mu = sum(2 * index[t] - colours[t] for t in range(lo + 1, hi))
                coeff = coeff.shift((-k + i) * mu)
            else:
                # leading K^i on the first slot, evaluated after F^{(k-i)} acted there
                coeff = coeff.shift(i * (2 * new_a - d0))
            yield rest_idx, coeff


def weight_projector(mu: int, x: ModuleElement) -> ModuleElement:
    return ModuleElement.make(
        x.colours, {i: c for i, c in x.coords if weight(x.colours, i) == mu})


def bilinear_form(n: int, k: int, l: int) -> LaurentSeries:
    """<v_k, v_l>' = delta_{k,l} q^{k(n-k)} [n choose k] on V_n."""
    if not (0 <= k <= n and 0 <= l <= n):
        raise ValueError("indices out of range")
    if k != l:
        return LaurentSeries.zero()
    return quantum_binomial(n, k).shift(k * (n - k))


def seq_stats(a: tuple[int, ...]) -> tuple[int, int, int]:
    """For a 0/1 sequence: l(a) = #{i<j : a_i < a_j}, b(a) = |a|(n-|a|) - l(a), |a|."""
    if any(x not in (0, 1) for x in a):
        raise ValueError("seq_stats needs a 0/1 sequence")
    n = len(a)
    total = sum(a)
    l = sum(1 for i in range(n) for j in range(i + 1, n) if a[i] < a[j])
    return l, total * (n - total) - l, total
