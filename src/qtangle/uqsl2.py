"""The quantum sl2 action on irreducibles V_n and their tensor products.

Elements of V_{d_1} (x) ... (x) V_{d_r} are sparse maps from basis index
tuples to exact Laurent polynomials, with only the nonzero entries kept, in
index order, so ``==`` compares elements.  On a single factor V_d,

    K v_a = q^(2a-d) v_a,   E^(k) v_a = [a+k, k] v_(a+k),
    F^(k) v_a = [d-a+k, k] v_(a-k),

and on tensor products the iterated comultiplication

    Delta(E^(k)) = sum_i q^(-i(k-i)) E^(k-i) (x) E^(i) K^(i-k),
    Delta(F^(k)) = sum_i q^(i(k-i)) K^i F^(k-i) (x) F^(i),
    Delta(K) = K (x) K,

sums to one closed form on slots lo..hi-1.  Write mu_s = 2a_s - d_s for
the weight of slot s of v_a.  Then E^(k) v_a is the sum over compositions
k = sum_s k_s with k_s <= d_s - a_s of

    prod_s [a_s + k_s, k_s] q^(-sum_(s<t) k_s (k_t + mu_t)) v_(a+k),

and F^(k) v_a the sum over k_s <= a_s of

    prod_s [d_s - a_s + k_s, k_s] q^(sum_(s<t) k_t (mu_s - k_s)) v_(a-k).

divided_power_act_closed builds each coefficient as one packed_product of
binomial-row entries, with no [k]! to divide by, and E and F are the case
k = 1; K^p on a slot range (k_power) is one shift per entry.

scaled_sum, under ModuleElement.scale, the divided powers and
intertwiner's Intertwiner.apply, multiplies elements by series as packed
ints (packing), in a pack step and an accumulate step that
Intertwiner.compose also calls; it takes integer coefficients only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .packing import low_digit, pack, unpack, width
from .qseries import LaurentSeries, binomial_row, quantum_binomial

__all__ = [
    "ModuleElement",
    "scaled_sum",
    "l1",
    "pack_series",
    "pack_element",
    "accumulate",
    "packed_product",
    "act",
    "k_power",
    "divided_power_act",
    "divided_power_act_closed",
    "bilinear_form",
    "seq_stats",
    "weight",
    "basis_indices",
    "basis_indices_of_weight",
]

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
            if c.coeffs:
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
        """s times this element.  A signed monomial +-q^e is a shift and a
        sign of each entry, with nothing packed; any other s goes through
        scaled_sum.  An entry, or such an s, with a Fraction coefficient
        raises TypeError."""
        if s.coeffs not in ((1,), (-1,)):
            return scaled_sum(self.colours, ((self, s),))
        sign, e = s.coeffs[0], s.min_deg
        if any(type(a) is not int for _, c in self.coords for a in c.coeffs):
            raise TypeError(f"only integer coefficients scale, not those "
                            f"of {self}")
        return ModuleElement(self.colours, tuple(
            (idx, LaurentSeries(c.min_deg + e, c.coeffs if sign == 1 else
                                tuple(-a for a in c.coeffs)))
            for idx, c in self.coords))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scale(LaurentSeries.monomial(0, -1))

    def is_zero(self) -> bool:
        return not self.coords

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
    """The pack step for one series: (packed coefficients, lowest
    degree)."""
    return pack(c.coeffs, bits), c.min_deg


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
    lower term arrives, and it is unpacked once.  An entry that cancels is
    dropped.
    """
    acc: dict[tuple[int, ...], list] = {}
    get = acc.get
    for entries, (pc, lc) in terms:
        for idx, (pa, la) in entries:
            lo = la + lc
            p = pa * pc
            got = get(idx)
            if got is None:
                acc[idx] = [lo, p]
            elif lo >= got[0]:
                got[1] += p << bits * (lo - got[0])
            else:
                got[0], got[1] = lo, (got[1] << bits * (got[0] - lo)) + p
    out = []
    for idx, (lo, p) in sorted(acc.items()):
        if p:
            j = low_digit(p, bits)
            out.append((idx, LaurentSeries(lo + j,
                                           tuple(unpack(p >> bits * j, bits)))))
    return ModuleElement(tuple(colours), tuple(out))


def packed_product(sign: int, *factors: LaurentSeries) -> LaurentSeries:
    """sign times the product of these integer Laurent polynomials, by one
    multiply of packed ints (packing).  No coefficient of a product exceeds
    the product of its factors' L1 norms, which sets the digit width."""
    if sign == 1 and len(factors) == 1:
        return factors[0]
    bits = width(prod(map(l1, factors)))
    p = sign * prod(pack(f.coeffs, bits) for f in factors)
    return LaurentSeries(sum(f.min_deg for f in factors),
                         tuple(unpack(p, bits)))


def k_power(x: ModuleElement, p: int, lo: int = 0,
            hi: int | None = None) -> ModuleElement:
    """K^p on slots lo..hi-1 of x: v_a times q^(p mu), mu the weight of a
    on those slots, one shift per entry."""
    colours = x.colours
    hi = len(colours) if hi is None else hi
    return ModuleElement(colours, tuple(
        (a, c.shift(p * weight(colours[lo:hi], a[lo:hi])))
        for a, c in x.coords))


def act(gen: str, x: ModuleElement) -> ModuleElement:
    """A generator E, F, K or Kinv on every slot of x."""
    if gen in ("K", "Kinv"):
        return k_power(x, 1 if gen == "K" else -1)
    return divided_power_act_closed(gen, 1, x)


def divided_power_act_closed(gen: str, k: int, x: ModuleElement,
                             lo: int = 0, hi: int | None = None) -> ModuleElement:
    """E^(k) or F^(k) on slots lo..hi-1 of x, by the closed form of the
    module docstring: each basis vector of x goes to a sum over
    compositions of k, and the sum over x's entries is one scaled_sum."""
    if gen not in ("E", "F"):
        raise ValueError(f"unknown generator {gen}")
    colours = x.colours
    hi = len(colours) if hi is None else hi
    return scaled_sum(colours, (
        (ModuleElement(colours,
                       _compositions(gen == "E", k, colours, a, lo, hi)), c)
        for a, c in x.coords))


def _compositions(raising: bool, k: int, colours, a, lo: int, hi: int):
    """The terms (index, coefficient) of E^(k) v_a (raising) or F^(k) v_a
    on slots lo..hi-1, in index order: one per composition k = sum k_s,
    enumerated slot by slot from lo, each coefficient one packed_product."""
    # slot s takes k_s <= colours[s] - top[s], with factor [top[s] + k_s, k_s]
    top = [a[s] if raising else colours[s] - a[s] for s in range(hi)]
    room = [0] * (hi + 1)  # room[s]: the most slots s..hi-1 can take
    for s in range(hi - 1, lo - 1, -1):
        room[s] = room[s + 1] + colours[s] - top[s]
    terms = []

    def extend(s, left, pre, e, new, factors):
        # pre: the sum over earlier slots of k_s (E) or of mu_s - k_s (F)
        if s == hi:
            terms.append((new, packed_product(1, *factors).shift(e)))
            return
        t, mu = top[s], 2 * a[s] - colours[s]
        for j in range(max(0, left - room[s + 1]),
                       min(left, colours[s] - t) + 1):
            f = factors + (binomial_row(t + j)[j],) if j and t else factors
            nxt = new[:s] + (a[s] + j if raising else a[s] - j,) + new[s + 1:]
            if raising:
                extend(s + 1, left - j, pre + j, e - pre * (j + mu), nxt, f)
            else:
                extend(s + 1, left - j, pre + mu - j, e + j * pre, nxt, f)

    if k <= room[lo]:
        extend(lo, k, 0, 0, tuple(a), ())
    return tuple(terms if raising else reversed(terms))


# E^(k) or F^(k) on every slot, under the name intertwiner calls it by,
# which the benchmark's tracer (perfbench/tracing.py) hooks
divided_power_act = divided_power_act_closed


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
