"""Colour-1 cups, caps and crossings built by hand at full width.

The tests' reference for the evaluator's slice maps: each map is written out
on V_1 (x) V_1 and placed among identity strands with ``Intertwiner.tensor``,
so it shares nothing with ``invariant._coloured_local`` or ``_apply_local``.
"""

from qtangle.intertwiner import Intertwiner
from qtangle.qseries import LaurentSeries
from qtangle.uqsl2 import ModuleElement


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
