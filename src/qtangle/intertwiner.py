"""Matrices of module maps: Jones-Wenzl projectors and the checks on them.

The projectors are exact integer maps in Lusztig's integral basis, where
[n, k] p_n = E^(k) F^(k) on the weight 2k - n: the checks compare with ==.

An Intertwiner is stored sparsely as the image of each source basis vector.
All maps here preserve the K-weight, so a dense per-weight block view is
also available (and is what the JSON dump exposes).  apply and scale
multiply through uqsl2.scaled_sum, and compose and @ through its pack and
accumulate steps, with each column of the left factor packed once: one
multiply of packed ints per entry and factor, integer coefficients only,
which every map the package builds has.  The colour-1 cups, caps and
turnbacks that the Jones-Wenzl and slide checks need come from the
evaluator, invariant.phi_coloured, the one place the package constructs
slice maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qseries import LaurentSeries, binomial_row
from .packing import width
from .uqsl2 import (ModuleElement, accumulate, act, basis_indices,
                    divided_power_act, k_power, l1, pack_element, pack_series,
                    scaled_sum, seq_stats, weight)

__all__ = [
    "Intertwiner",
    "projection", "inclusion", "projection_list", "inclusion_list",
    "jones_wenzl", "jones_wenzl_divided",
    "nested_cups", "slide_identity_checks",
    "is_intertwiner", "charJW_check",
]


@dataclass(frozen=True)
class Intertwiner:
    source: tuple[int, ...]
    target: tuple[int, ...]
    columns: tuple[tuple[tuple[int, ...], ModuleElement], ...]

    @staticmethod
    def make(source, target, columns) -> "Intertwiner":
        source, target = tuple(source), tuple(target)
        if isinstance(columns, dict):
            items = columns.items()
        else:
            items = columns
        cols = []
        for idx, img in items:
            if img.colours != target:
                raise ValueError("column lands in the wrong factorization")
            if not img.is_zero():
                cols.append((tuple(idx), img))
        cols.sort(key=lambda t: t[0])
        return Intertwiner(source, target, tuple(cols))

    @staticmethod
    def from_function(source, target, fn) -> "Intertwiner":
        source = tuple(source)
        return Intertwiner.make(source, target,
                                {idx: fn(idx) for idx in basis_indices(source)})

    @staticmethod
    def identity(colours) -> "Intertwiner":
        colours = tuple(colours)
        return Intertwiner.make(colours, colours,
                                {i: ModuleElement.basis_vector(colours, i)
                                 for i in basis_indices(colours)})

    def column(self, idx) -> ModuleElement:
        for i, img in self.columns:
            if i == tuple(idx):
                return img
        return ModuleElement.zero(self.target)

    def apply(self, x: ModuleElement) -> ModuleElement:
        """The image of x: the sum of column idx times x's entry at idx, by
        uqsl2.scaled_sum, so integer coefficients only."""
        if x.colours != self.source:
            raise ValueError("element not in the source of this map")
        cols = dict(self.columns)
        return scaled_sum(self.target, ((cols[idx], c) for idx, c in x.coords
                                        if idx in cols))

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        """self o other (apply ``other`` first).

        Column idx is self.apply(other's column idx), but each column of
        self is packed once, with one digit width that holds every output
        column: the largest over other's columns of the sum of L1(c) times
        L1(self's column j) over its entries (j, c).
        """
        if other.target != self.source:
            raise ValueError("composition mismatch "
                             f"{other.target} -> {self.source}")
        norms = {idx: sum(l1(a) for _, a in img.coords)
                 for idx, img in self.columns}
        bits = width(max((sum(l1(c) * norms[j] for j, c in img.coords
                              if j in norms)
                          for _, img in other.columns), default=0))
        left = {idx: pack_element(img.coords, bits)
                for idx, img in self.columns}
        return Intertwiner.make(other.source, self.target, {
            idx: accumulate(self.target,
                            ((left[j], pack_series(c, bits))
                             for j, c in img.coords if j in left), bits)
            for idx, img in other.columns})

    def __matmul__(self, other: "Intertwiner") -> "Intertwiner":
        return self.compose(other)

    def tensor(self, other: "Intertwiner") -> "Intertwiner":
        src = self.source + other.source
        tgt = self.target + other.target
        cols = {}
        for i1, img1 in self.columns:
            for i2, img2 in other.columns:
                d = {}
                for j1, c1 in img1.coords:
                    for j2, c2 in img2.coords:
                        d[j1 + j2] = c1 * c2
                cols[i1 + i2] = ModuleElement.make(tgt, d)
        return Intertwiner.make(src, tgt, cols)

    def __add__(self, other: "Intertwiner") -> "Intertwiner":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("sum of maps with different source or target")
        cols = dict(self.columns)
        for idx, img in other.columns:
            cols[idx] = cols[idx] + img if idx in cols else img
        return Intertwiner.make(self.source, self.target, cols)

    def scale(self, s: LaurentSeries) -> "Intertwiner":
        return Intertwiner.make(self.source, self.target,
                                {i: img.scale(s) for i, img in self.columns})

    def is_zero(self) -> bool:
        return not self.columns

    def eq_upto(self, other: "Intertwiner") -> bool:
        """self == other, under the name the benchmark calls and traces:
        every entry is exact, so equality is the only comparison."""
        return self == other

    def scalar(self) -> LaurentSeries:
        """For maps with empty source and target: the single entry."""
        if self.source or self.target:
            raise ValueError("scalar() needs empty boundaries")
        return dict(self.columns).get((), ModuleElement.zero(())).as_dict().get(
            (), LaurentSeries.zero())

    def blocks(self) -> dict[int, list[list[LaurentSeries]]]:
        """Dense matrix per weight: rows = target basis, cols = source basis."""
        out = {}
        cols = dict(self.columns)
        sources, targets = _by_weight(self.source), _by_weight(self.target)
        for mu in sorted(sources):
            sb, tb = sources[mu], targets.get(mu, [])
            rows = {t: r for r, t in enumerate(tb)}
            mat = [[LaurentSeries.zero() for _ in sb] for _ in tb]
            for c, sidx in enumerate(sb):
                img = cols.get(sidx)
                if img is None:
                    continue
                for tidx, val in img.coords:
                    if tidx not in rows:
                        raise ValueError("map does not preserve weight")
                    mat[rows[tidx]][c] = val
            out[mu] = mat
        return out

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "blocks": {str(mu): [[e.to_json() for e in row] for row in mat]
                       for mu, mat in self.blocks().items()},
        }


def _by_weight(colours: tuple[int, ...]) -> dict[int, list[tuple[int, ...]]]:
    """The basis indices of each weight, in lexicographic order."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for idx in basis_indices(colours):
        out.setdefault(weight(colours, idx), []).append(idx)
    return out


# -- projection / inclusion / Jones-Wenzl ------------------------------------

@lru_cache(maxsize=None)
def projection(n: int) -> Intertwiner:
    """[n, k] pi_n : V_1^{(x) n} -> V_n, v_a |-> q^{-l(a)} v_{|a|}, k = |a|.

    This is pi_n into the integral basis w_k = v_k / [n, k] of V_n, read
    with w_k written as v_k: a monomial map, exact, with nothing inverted.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def col(a):
        l, _, k = seq_stats(a)
        return ModuleElement.make((n,), {(k,): LaurentSeries.monomial(-l)})

    return Intertwiner.from_function((1,) * n, (n,), col)


@lru_cache(maxsize=None)
def inclusion(n: int) -> Intertwiner:
    """iota_n : V_n -> V_1^{(x) n}, v_k |-> sum_{|a|=k} q^{b(a)} v_a."""
    if n < 1:
        raise ValueError("n must be positive")

    def col(idx):
        k = idx[0]
        d = {}
        for a in basis_indices((1,) * n):
            l, b, tot = seq_stats(a)
            if tot == k:
                d[a] = LaurentSeries.monomial(b)
        return ModuleElement.make((1,) * n, d)

    return Intertwiner.from_function((n,), (1,) * n, col)


def projection_list(colours) -> Intertwiner:
    out = None
    for d in colours:
        p = projection(d)
        out = p if out is None else out.tensor(p)
    if out is None:
        return Intertwiner.identity(())
    return out


def inclusion_list(colours) -> Intertwiner:
    out = None
    for d in colours:
        p = inclusion(d)
        out = p if out is None else out.tensor(p)
    if out is None:
        return Intertwiner.identity(())
    return out


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> Intertwiner:
    """The integral Jones-Wenzl map iota_n o projection(n) on V_1^{(x) n}:
    [n, |a|] p_n on column a, so projection(n) o iota_n = [n, k] Id."""
    return inclusion(n) @ projection(n)


@lru_cache(maxsize=None)
def jones_wenzl_divided(n: int) -> Intertwiner:
    """The same map as jones_wenzl(n) by divided powers: column a goes to
    E^{(k)} F^{(k)} v_a, k = |a|, which is [n, k] p_n on the weight 2k - n
    (Frenkel and Khovanov, Duke Math. J. 87, 1997).  F^{(k)} v_a lies in
    the weight -n space, spanned by v_(0...0), so the column is its one
    coefficient times E^{(k)} v_(0...0), which is built once per k."""
    colours = (1,) * n
    raised = [divided_power_act("E", k, ModuleElement.basis_vector(
        colours, (0,) * n)) for k in range(n + 1)]

    def col(a):
        (_, c), = divided_power_act(
            "F", sum(a), ModuleElement.basis_vector(colours, a)).coords
        return raised[sum(a)].scale(c)

    return Intertwiner.from_function(colours, colours, col)


# -- nested cups and slide identities ----------------------------------------

def _evaluate(word: str) -> Intertwiner:
    """The evaluator's intertwiner of a diagram in the DSL.  invariant
    imports this module, so the evaluator is imported here at call time."""
    from .invariant import phi_coloured
    from .tangle import parse
    return phi_coloured(parse(word))


@lru_cache(maxsize=None)
def nested_cups(n: int) -> Intertwiner:
    """C_n : C -> V_1^{(x) 2n}, n cups nested around a common centre: the
    word ``cup k 1 u`` for k = 1..n on an empty bottom."""
    if n < 1:
        raise ValueError("n must be positive")
    return _evaluate("bottom\n" + "".join(f"cup {k} 1 u\n"
                                          for k in range(1, n + 1)))


def _dp(gen, k, x, lo, hi):
    """uqsl2.divided_power_act_closed, looked up at call time, where the
    benchmark's tracer hooks it."""
    from .uqsl2 import divided_power_act_closed
    return divided_power_act_closed(gen, k, x, lo, hi)


def slide_identity_checks(n: int, k: int) -> bool:
    """Verify the four divided-power slide identities against C_n:

    (F^{(k)} (x) 1) C_n = (-1)^k q^{k(k-1)} (K^k (x) F^{(k)}) C_n
    (E^{(k)} (x) 1) C_n = (-1)^k q^{-k(k-1)} (1 (x) K^k E^{(k)}) C_n
    (E^{(n)} F^{(n)} (x) 1) C_n = (1 (x) F^{(n)} E^{(n)}) (K^n (x) K^n) C_n
    (1_{-n+2k} (x) 1) C_n = (1 (x) 1_{n-2k}) C_n

    Every term is exact: C_n, the closed divided powers, K powers and
    weight projections, so each side is compared with ==.  The third
    identity does not involve k, so it is checked once per n
    (_full_power_slide).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    c = nested_cups(n).column(())
    ok = True

    # F slide
    lhs = _dp("F", k, c, 0, n)
    rhs = _dp("F", k, c, n, 2 * n)
    rhs = k_power(rhs, k, 0, n)
    sign = -1 if k % 2 else 1
    rhs = rhs.scale(LaurentSeries.monomial(k * (k - 1), sign))
    ok = ok and lhs == rhs

    # E slide
    lhs = _dp("E", k, c, 0, n)
    rhs = _dp("E", k, c, n, 2 * n)
    rhs = k_power(rhs, k, n, 2 * n)
    rhs = rhs.scale(LaurentSeries.monomial(-k * (k - 1), sign))
    ok = ok and lhs == rhs

    ok = ok and _full_power_slide(n)

    # weight projector slide
    def project_range(x, mu, lo, hi):
        return ModuleElement.make(
            x.colours,
            {i: v for i, v in x.coords
             if sum(2 * i[t] - x.colours[t] for t in range(lo, hi)) == mu})

    lhs = project_range(c, -n + 2 * k, 0, n)
    rhs = project_range(c, n - 2 * k, n, 2 * n)
    ok = ok and lhs == rhs
    return ok


@lru_cache(maxsize=None)
def _full_power_slide(n: int) -> bool:
    """The full divided power across the cups, the third identity of
    slide_identity_checks: (E^{(n)} F^{(n)} (x) 1) C_n =
    (1 (x) F^{(n)} E^{(n)}) (K^n (x) K^n) C_n."""
    c = nested_cups(n).column(())
    lhs = _dp("E", n, _dp("F", n, c, 0, n), 0, n)
    rhs = k_power(k_power(c, n, 0, n), n, n, 2 * n)
    rhs = _dp("F", n, _dp("E", n, rhs, n, 2 * n), n, 2 * n)
    return lhs == rhs


# -- checks -------------------------------------------------------------------

def is_intertwiner(A: Intertwiner) -> bool:
    """Check equivariance of A against E, F, K on every source basis vector."""
    for gen in ("E", "F", "K"):
        for idx in basis_indices(A.source):
            x = ModuleElement.basis_vector(A.source, idx)
            if A.apply(act(gen, x)) != act(gen, A.apply(x)):
                return False
    return True


def _turnback_word(i: int, n: int) -> str:
    """The word of the turnback C_(i,n) = cup o cap at strands i, i+1 of n:
    ``cap i; cup i 1 u`` above points of alternating orientation, so that
    points i and i+1 point opposite ways.  A colour-1 map does not read the
    orientation (invariant._slice_key)."""
    bottom = " ".join("-1" if j % 2 else "+1" for j in range(n))
    return f"bottom {bottom}\ncap {i}\ncup {i} 1 u\n"


def charJW_check(p: Intertwiner) -> bool:
    """The integral Jones-Wenzl identities, exactly: p o p is p with column
    a scaled by [n, |a|], and p kills every turnback C_{i,n} on both sides.

    The turnbacks come from the evaluator, whose state for one holds 2^n
    columns, each within the weight space of its source index: C(2n, n)
    entries in all, so its MAX_STATE refuses them from n = 12 on.
    """
    if p.source != p.target or any(d != 1 for d in p.source):
        raise ValueError("expected an endomorphism of V_1^{(x) n}")
    n = len(p.source)
    row = binomial_row(n)
    if p @ p != Intertwiner.make(p.source, p.target, {
            a: img.scale(row[sum(a)]) for a, img in p.columns}):
        return False
    for i in range(1, n):
        c = _evaluate(_turnback_word(i, n))
        if not (c @ p).is_zero() or not (p @ c).is_zero():
            return False
    return True
