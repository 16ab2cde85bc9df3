"""Matrices of module maps: cups, caps, crossings, and Jones-Wenzl projectors.

An Intertwiner is stored sparsely as the image of each source basis vector.
All maps here preserve the K-weight, so a dense per-weight block view is
also available (and is what the JSON dump exposes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qseries import DEFAULT_PRECISION, LaurentSeries, quantum_binomial
from .uqsl2 import (ModuleElement, act, basis_indices, divided_power_act,
                    seq_stats, weight, weight_projector)

__all__ = [
    "Intertwiner",
    "cup", "cap", "cup_at", "cap_at", "turnback", "turnback_at",
    "crossing_pos", "crossing_neg",
    "projection", "inclusion", "projection_list", "inclusion_list",
    "jones_wenzl", "jones_wenzl_divided",
    "nested_cups", "slide_identity_checks", "positioned",
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
        if x.colours != self.source:
            raise ValueError("element not in the source of this map")
        out = ModuleElement.zero(self.target)
        cols = dict(self.columns)
        for idx, c in x.coords:
            img = cols.get(idx)
            if img is not None:
                out = out + img.scale(c)
        return out

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        """self o other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch "
                             f"{other.target} -> {self.source}")
        return Intertwiner.make(other.source, self.target,
                                {idx: self.apply(img) for idx, img in other.columns})

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

    def is_zero_upto(self) -> bool:
        """True when every stored entry vanishes on its validity window."""
        return self.eq_upto(Intertwiner.make(self.source, self.target, {}))

    def eq_upto(self, other: "Intertwiner") -> bool:
        if (self.source, self.target) != (other.source, other.target):
            return False
        c1, c2 = dict(self.columns), dict(other.columns)
        z = ModuleElement.zero(self.target)
        for idx in set(c1) | set(c2):
            if not c1.get(idx, z).eq_upto(c2.get(idx, z)):
                return False
        return True

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


# -- cups, caps, crossings ---------------------------------------------------

def cup() -> Intertwiner:
    """The map C -> V_1 (x) V_1, 1 |-> v_1 (x) v_0 - q v_0 (x) v_1."""
    img = ModuleElement.make((1, 1), {(1, 0): LaurentSeries.one(),
                                      (0, 1): LaurentSeries.monomial(1, -1)})
    return Intertwiner.make((), (1, 1), {(): img})


def cap() -> Intertwiner:
    """The map V_1 (x) V_1 -> C: v_0 v_1 |-> 1, v_1 v_0 |-> -q^{-1}, v_i v_i |-> 0."""
    one = ModuleElement.make((), {(): LaurentSeries.one()})
    neg = ModuleElement.make((), {(): LaurentSeries.monomial(-1, -1)})
    return Intertwiner.make((1, 1), (), {(0, 1): one, (1, 0): neg})


def positioned(mid: Intertwiner, i: int, n_left_total: int) -> Intertwiner:
    """Id^{(i-1)} (x) mid (x) Id^{rest} acting on V_1^{(x) n_left_total}."""
    inner = len(mid.source)
    right = n_left_total - (i - 1) - inner
    if i < 1 or right < 0:
        raise ValueError("position out of range")
    out = mid
    if i > 1:
        out = Intertwiner.identity((1,) * (i - 1)).tensor(out)
    if right > 0:
        out = out.tensor(Intertwiner.identity((1,) * right))
    return out


def cup_at(i: int, n: int) -> Intertwiner:
    """Insert a cup at position i on n uncoloured strands (result: n+2)."""
    if not 1 <= i <= n + 1:
        raise ValueError("cup position out of range")
    return positioned(cup(), i, n)


def cap_at(i: int, n: int) -> Intertwiner:
    """Cap strands i, i+1 out of n uncoloured strands (result: n-2)."""
    if not 1 <= i <= n - 1:
        raise ValueError("cap position out of range")
    return positioned(cap(), i, n)


def turnback() -> Intertwiner:
    """C = cup o cap on two strands."""
    return cup() @ cap()


def turnback_at(i: int, n: int) -> Intertwiner:
    return positioned(turnback(), i, n)


def crossing_pos(n: int, i: int) -> Intertwiner:
    """Pi_i = Id (x) (-q^{-1} C - q^{-2} Id) (x) Id on V_1^{(x) n}."""
    if not 1 <= i <= n - 1:
        raise ValueError("crossing position out of range")
    mid = turnback().scale(LaurentSeries.monomial(-1, -1)) + \
        Intertwiner.identity((1, 1)).scale(LaurentSeries.monomial(-2, -1))
    return positioned(mid, i, n)


def crossing_neg(n: int, i: int) -> Intertwiner:
    """Omega_i = Id (x) (-q C - q^2 Id) (x) Id on V_1^{(x) n}."""
    if not 1 <= i <= n - 1:
        raise ValueError("crossing position out of range")
    mid = turnback().scale(LaurentSeries.monomial(1, -1)) + \
        Intertwiner.identity((1, 1)).scale(LaurentSeries.monomial(2, -1))
    return positioned(mid, i, n)


# -- projection / inclusion / Jones-Wenzl ------------------------------------

@lru_cache(maxsize=None)
def projection(n: int, precision: int = DEFAULT_PRECISION) -> Intertwiner:
    """pi_n : V_1^{(x) n} -> V_n, v_a |-> q^{-l(a)} [n choose |a|]^{-1} v_{|a|}.

    pi_1 is the exact identity: its binomials are 1, with nothing to invert.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Intertwiner.identity((1,))
    inv = {k: quantum_binomial(n, k).invert(precision) for k in range(n + 1)}

    def col(a):
        l, _, k = seq_stats(a)
        return ModuleElement.make((n,), {(k,): inv[k].shift(-l)})

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


def projection_list(colours, precision: int = DEFAULT_PRECISION) -> Intertwiner:
    out = None
    for d in colours:
        p = projection(d, precision)
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
def jones_wenzl(n: int, precision: int = DEFAULT_PRECISION) -> Intertwiner:
    """p_n = iota_n o pi_n on V_1^{(x) n}."""
    return inclusion(n) @ projection(n, precision)


@lru_cache(maxsize=None)
def jones_wenzl_divided(n: int, precision: int = DEFAULT_PRECISION) -> Intertwiner:
    """p_n = sum_k E^{(k)} F^{(k)} / [n choose k] restricted to the q^{2k-n} weight space."""
    colours = (1,) * n
    inv = {k: quantum_binomial(n, k).invert(precision) for k in range(n + 1)}

    def col(a):
        out = ModuleElement.zero(colours)
        for k in range(n + 1):
            x = weight_projector(-n + 2 * k, ModuleElement.basis_vector(colours, a))
            if x.is_zero():
                continue
            x = divided_power_act("F", k, x, precision)
            x = divided_power_act("E", k, x, precision)
            out = out + x.scale(inv[k])
        return out

    return Intertwiner.from_function(colours, colours, col)


# -- nested cups and slide identities ----------------------------------------

@lru_cache(maxsize=None)
def nested_cups(n: int) -> Intertwiner:
    """C_n : C -> V_1^{(x) 2n}, n cups nested around a common centre."""
    if n < 1:
        raise ValueError("n must be positive")
    out = cup()
    for k in range(1, n):
        out = cup_at(k + 1, 2 * k) @ out
    return out


def slide_identity_checks(n: int, k: int, precision: int = DEFAULT_PRECISION) -> bool:
    """Verify the four divided-power slide identities against C_n:

    (F^{(k)} (x) 1) C_n = (-1)^k q^{k(k-1)} (K^k (x) F^{(k)}) C_n
    (E^{(k)} (x) 1) C_n = (-1)^k q^{-k(k-1)} (1 (x) K^k E^{(k)}) C_n
    (E^{(n)} F^{(n)} (x) 1) C_n = (1 (x) F^{(n)} E^{(n)}) (K^n (x) K^n) C_n
    (1_{-n+2k} (x) 1) C_n = (1 (x) 1_{n-2k}) C_n
    """
    from .uqsl2 import act_on_range
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    c = nested_cups(n).column(())
    ok = True

    def dp(gen, kk, x, lo, hi):
        from .uqsl2 import divided_power_act_closed
        return divided_power_act_closed(gen, kk, x, lo, hi)

    def kpow(x, power, lo, hi):
        gen = "K" if power >= 0 else "Kinv"
        for _ in range(abs(power)):
            x = act_on_range(gen, x, lo, hi)
        return x

    # F slide
    lhs = dp("F", k, c, 0, n)
    rhs = dp("F", k, c, n, 2 * n)
    rhs = kpow(rhs, k, 0, n)
    sign = -1 if k % 2 else 1
    rhs = rhs.scale(LaurentSeries.monomial(k * (k - 1), sign))
    ok = ok and lhs.eq_upto(rhs)

    # E slide
    lhs = dp("E", k, c, 0, n)
    rhs = dp("E", k, c, n, 2 * n)
    rhs = kpow(rhs, k, n, 2 * n)
    rhs = rhs.scale(LaurentSeries.monomial(-k * (k - 1), sign))
    ok = ok and lhs.eq_upto(rhs)

    # full divided power across the cups
    lhs = dp("F", n, c, 0, n)
    lhs = dp("E", n, lhs, 0, n)
    rhs = kpow(kpow(c, n, 0, n), n, n, 2 * n)
    rhs = dp("E", n, rhs, n, 2 * n)
    rhs = dp("F", n, rhs, n, 2 * n)
    ok = ok and lhs.eq_upto(rhs)

    # weight projector slide
    def project_range(x, mu, lo, hi):
        return ModuleElement.make(
            x.colours,
            {i: v for i, v in x.coords
             if sum(2 * i[t] - x.colours[t] for t in range(lo, hi)) == mu})

    lhs = project_range(c, -n + 2 * k, 0, n)
    rhs = project_range(c, n - 2 * k, n, 2 * n)
    ok = ok and lhs.eq_upto(rhs)
    return ok


# -- checks -------------------------------------------------------------------

def is_intertwiner(A: Intertwiner) -> bool:
    """Check equivariance of A against E, F, K on every source basis vector."""
    for gen in ("E", "F", "K"):
        for idx in basis_indices(A.source):
            x = ModuleElement.basis_vector(A.source, idx)
            if not A.apply(act(gen, x)).eq_upto(act(gen, A.apply(x))):
                return False
    return True


def charJW_check(p: Intertwiner) -> bool:
    """p o p = p, and p kills every turnback C_{i,n} on both sides."""
    if p.source != p.target or any(d != 1 for d in p.source):
        raise ValueError("expected an endomorphism of V_1^{(x) n}")
    n = len(p.source)
    if not (p @ p).eq_upto(p):
        return False
    for i in range(1, n):
        c = turnback_at(i, n)
        if not (c @ p).is_zero_upto() or not (p @ c).is_zero_upto():
            return False
    return True
