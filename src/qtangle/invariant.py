"""Evaluation of tangle diagrams to intertwiners and the invariance harness.

phi evaluates a cabled (all colour-1) diagram slice by slice.  phi_coloured
evaluates a coloured diagram in one of two ways.  The default, Mode.SLICED,
keeps the state in the tensor product of the coloured modules V_m and applies
one coloured local map per slice: pi o phi(cabled slice) o iota on just the
strands the slice touches, built once per (kind, colours, precision) and
cached.  Mode.GLOBAL, the independent reference, evaluates the full cabling
between one inclusion/projection sandwich, with a projector at every coloured
cup.  The framing normalization multiplies by q^{3 gamma} where gamma is the
oriented crossing count of the cabling.

Both modes, phi and the construction of the coloured maps keep each column
under evaluation as a _State: per basis index, the entry's coefficients by
degree and its validity window.  _apply_local maps one state to the next
through the one convolution kernel of qseries and builds no series; the
columns become series once, when the finished map is made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .qseries import (DEFAULT_PRECISION, LaurentSeries, convolve_into,
                      product_window)
from .uqsl2 import ModuleElement, basis_indices, weight
from .intertwiner import (Intertwiner, cap, crossing_neg, crossing_pos, cup,
                          inclusion, inclusion_list, projection,
                          projection_list)
from .tangle import (BoundaryPoint, ColouredDiagram, MoveKind, Slice,
                     apply_move, boundary_states, cable, enumerate_move_sites,
                     random_diagram, validate, writhe_gamma)

__all__ = [
    "Mode", "InvariantResult",
    "phi", "phi_coloured", "normalized_invariant", "link_invariant",
    "verify_invariance",
]


class Mode(Enum):
    GLOBAL = "global"
    SLICED = "sliced"


@dataclass(frozen=True)
class InvariantResult:
    value: Intertwiner
    gamma: int
    normalized: bool

    def scalar(self) -> LaurentSeries:
        return self.value.scalar()


@lru_cache(maxsize=None)
def _slice_mid(kind: str) -> Intertwiner:
    """The local two-strand (or zero-strand) map of an uncoloured slice."""
    if kind == "cup":
        return cup()
    if kind == "cap":
        return cap()
    if kind == "pos":
        return crossing_pos(2, 1)
    return crossing_neg(2, 1)


class _State(NamedTuple):
    """A vector under evaluation, kept out of series form between slices.

    ``coords`` maps each basis index of a nonzero entry to the entry's
    nonzero coefficients by degree, none above its window, and the window.
    """

    colours: tuple[int, ...]
    coords: dict


class _Local(NamedTuple):
    """A local map as _apply_local takes it: the width of its source, its
    target colours, and per source index the terms (target index,
    (degree, coefficient) pairs, lowest degree, window) of its column."""

    width: int
    target: tuple[int, ...]
    columns: dict


@lru_cache(maxsize=None)
def _local(mid: Intertwiner) -> _Local:
    return _Local(len(mid.source), mid.target, {
        idx: tuple((jdx, tuple(c.support().items()), c.min_deg, c.valid_to)
                   for jdx, c in img.coords)
        for idx, img in mid.columns})


def _state(x: ModuleElement) -> _State:
    return _State(x.colours, {idx: (c.support(), c.valid_to)
                              for idx, c in x.coords})


def _element(x: _State) -> ModuleElement:
    # every entry of a state is nonzero, and its keys come from a valid
    # state and valid local maps, so ModuleElement.make has nothing to check
    return ModuleElement(x.colours, tuple(
        (idx, LaurentSeries.from_dict(d, v))
        for idx, (d, v) in sorted(x.coords.items(), key=lambda t: t[0])))


def _apply_local(mid: _Local, i: int, x: _State) -> _State:
    """Apply Id^(i-1) (x) mid (x) Id to x, acting only on its support.

    Equivalent to positioned(mid, i, n).apply(x) but never materializes the
    full-width matrix, which keeps wide cabled diagrams tractable.  A
    product's window uses the entry's lowest nonzero degree; an output entry
    takes the smallest window of its products, is cut there, and is dropped
    when nothing nonzero is left.
    """
    k = mid.width
    tgt = x.colours[:i - 1] + mid.target + x.colours[i - 1 + k:]
    cols = mid.columns
    # per target index: coefficients by degree, into which every product is
    # convolved, and the validity window unless it is exact
    acc: dict[tuple[int, ...], dict] = {}
    valid: dict[tuple[int, ...], int] = {}
    for idx, (c, vc) in x.coords.items():
        img = cols.get(idx[i - 1:i - 1 + k])
        if img is None:
            continue
        lo = min(c)
        pre, post = idx[:i - 1], idx[i - 1 + k:]
        for jdx, c2, lo2, v2 in img:
            key = pre + jdx + post
            d = acc.get(key)
            if d is None:
                d = acc[key] = {}
            v = product_window(lo, vc, lo2, v2)
            if v is not None:
                w = valid.get(key)
                if w is None or v < w:
                    valid[key] = v
            convolve_into(d, c2, c, v)
    coords = {}
    for key, d in acc.items():
        v = valid.get(key)
        # scanning in C first spares most entries the rebuild
        if 0 in d.values() or (v is not None and max(d) > v):
            d = {e: c for e, c in d.items() if c and (v is None or e <= v)}
        if d:
            coords[key] = (d, v)
    return _State(tgt, coords)


def _basis_states(colours: tuple[int, ...]) -> dict:
    return {idx: _State(colours, {idx: ({0: 1}, None)})
            for idx in basis_indices(colours)}


def _apply_all(mid: Intertwiner, i: int, columns: dict) -> dict:
    """_apply_local on every column of a map under construction."""
    local = _local(mid)
    return {idx: _apply_local(local, i, v) for idx, v in columns.items()}


def _finish(src: tuple[int, ...], tgt: tuple[int, ...],
            columns: dict) -> Intertwiner:
    """The map whose columns are these states, in series form."""
    return Intertwiner.make(src, tgt, {idx: _element(v)
                                       for idx, v in columns.items()})


def phi(d: ColouredDiagram, precision: int = DEFAULT_PRECISION) -> Intertwiner:
    """Compose the slice intertwiners of an uncoloured diagram, bottom to top."""
    if not d.is_uncoloured():
        raise ValueError("phi needs a cabled diagram; use phi_coloured")
    top = validate(d)
    src = (1,) * len(d.bottom)
    columns = _basis_states(src)
    for s in d.slices:
        columns = _apply_all(_slice_mid(s.kind), s.pos, columns)
    return _finish(src, (1,) * len(top), columns)


@lru_cache(maxsize=None)
def _readout(m: int) -> Intertwiner:
    """Read v_k off the coefficient of the sorted sequence 0..01..1 (k ones).

    iota_m(v_k) carries coefficient 1 there, so this is an exact left
    inverse of iota_m and agrees with pi_m on the image of iota_m, without
    pi_m's inverted binomials.
    """
    def col(a):
        if list(a) != sorted(a):
            return ModuleElement.zero((m,))
        return ModuleElement.make((m,), {(sum(a),): LaurentSeries.one()})

    return Intertwiner.from_function((1,) * m, (m,), col)


@lru_cache(maxsize=None)
def _coloured_map(kind: str, colours: tuple[int, ...],
                  prec: int) -> Intertwiner:
    """pi o phi(cable(slice)) o iota for one coloured slice.

    The map acts only on the strands the slice touches: ``colours`` is the
    cup's colour, or the colours of the two points a cap or crossing joins.
    Orientation enters only the writhe, so the slice is built with an
    arbitrary one.  Colour-1 strands need no inclusion or projection.

    Jones-Wenzl projectors slide through crossings and around cups, so a
    crossing's output and a cup's output once its left strand is projected
    lie in the image of the inclusions.  There pi agrees with the exact
    _readout: crossings and caps come out exact, and a cup carries one
    windowed projection, as it does in the global mode.
    """
    if kind == "cup":
        piece = ColouredDiagram("slice", (), (Slice("cup", 1, colours[0], True),))
    else:
        piece = ColouredDiagram(
            "slice", (BoundaryPoint(colours[0], True),
                      BoundaryPoint(colours[1], False)), (Slice(kind, 1),))
    src = tuple(p.colour for p in piece.bottom)
    tgt = tuple(p.colour for p in validate(piece))
    # every slice map preserves weight, so a source vector of a weight the
    # target lacks (any but 0 under a cap) maps to zero
    weights = {weight(tgt, j) for j in basis_indices(tgt)}
    columns = {idx: v for idx, v in _basis_states(src).items()
               if weight(src, idx) in weights}
    # inclusions right to left and projections left to right, so that the
    # factors not yet expanded or already collapsed keep one slot each
    for j in reversed(range(len(src))):
        if src[j] > 1:
            columns = _apply_all(inclusion(src[j]), j + 1, columns)
    for s in cable(piece).slices:
        columns = _apply_all(_slice_mid(s.kind), s.pos, columns)
    for j, m in enumerate(tgt):
        if m > 1:
            pi = projection(m, prec) if kind == "cup" and j == 0 \
                else _readout(m)
            columns = _apply_all(pi, j + 1, columns)
    return _finish(src, tgt, columns)


def _shift_budget(d: ColouredDiagram) -> int:
    # worst-case window loss across all the q-power multiplications; the
    # actual loss is usually near zero because raises and lowers cancel
    c = cable(d)
    return sum(2 for s in c.slices) + 2 * sum(p.colour for p in d.bottom) + 8


def _achieved_window(out: Intertwiner, precision: int) -> bool:
    """Every truncated entry still carries at least `precision` coefficients."""
    for _, img in out.columns:
        for _, series in img.coords:
            if series.valid_to is None or series.is_zero():
                continue
            if series.valid_to - series.min_deg + 1 < precision:
                return False
    return True


def phi_coloured(d: ColouredDiagram, precision: int = DEFAULT_PRECISION,
                 mode: Mode = Mode.SLICED) -> Intertwiner:
    """The intertwiner of a coloured diagram, evaluated in the given mode.

    The internal precision starts slightly above the requested one and is
    escalated (up to the worst-case shift budget of the diagram) whenever
    the computed entries come back with too narrow a validity window.
    """
    cap = _shift_budget(d)
    budgets = sorted({min(8, cap), min(32, cap), cap})
    for i, budget in enumerate(budgets):
        out = _phi_coloured_once(d, precision + budget, mode)
        if i == len(budgets) - 1 or _achieved_window(out, precision):
            return out
    raise AssertionError("unreachable")


def _phi_coloured_once(d: ColouredDiagram, prec: int,
                       mode: Mode) -> Intertwiner:
    states = boundary_states(d)
    src = tuple(p.colour for p in d.bottom)
    tgt = tuple(p.colour for p in states[-1])
    if mode is Mode.GLOBAL:
        # one inclusion/projection sandwich at the outer boundaries, plus one
        # projector per coloured cup: strands born inside the diagram never
        # meet the boundary sandwich, and projector absorption makes this
        # placement agree with the fully sliced composition
        columns = {idx: _state(img)
                   for idx, img in inclusion_list(src).columns}
        for s, state in zip(d.slices, states):
            piece = ColouredDiagram("slice", tuple(state), (s,))
            for cs in cable(piece).slices:
                columns = _apply_all(_slice_mid(cs.kind), cs.pos, columns)
            if s.kind == "cup" and s.colour >= 2:
                # p_m = iota_m o pi_m, applied as two local maps so that the
                # intermediate vector passes through the small collapsed slot
                start = 1 + sum(p.colour for p in state[:s.pos - 1])
                columns = _apply_all(projection(s.colour, prec), start, columns)
                columns = _apply_all(inclusion(s.colour), start, columns)
        columns = _apply_all(projection_list(tgt, prec), 1, columns)
        return _finish(src, tgt, columns)
    # sliced: the state lives in the tensor product of the coloured modules
    columns = _basis_states(src)
    for s, state in zip(d.slices, states):
        touched = (s.colour,) if s.kind == "cup" else \
            tuple(p.colour for p in state[s.pos - 1:s.pos + 1])
        columns = _apply_all(_coloured_map(s.kind, touched, prec), s.pos,
                             columns)
    return _finish(src, tgt, columns)


def normalized_invariant(d: ColouredDiagram, precision: int = DEFAULT_PRECISION,
                         mode: Mode = Mode.SLICED,
                         flip_gamma_sign: bool = False) -> InvariantResult:
    gamma = writhe_gamma(cable(d), flip_sign=flip_gamma_sign)
    raw = phi_coloured(d, precision, mode)
    return InvariantResult(raw.scale(LaurentSeries.monomial(3 * gamma)), gamma, True)


def link_invariant(d: ColouredDiagram, precision: int = DEFAULT_PRECISION,
                   mode: Mode = Mode.SLICED) -> LaurentSeries:
    top = validate(d)
    if d.bottom or top:
        raise ValueError("link_invariant needs empty bottom and top boundaries")
    return normalized_invariant(d, precision, mode).scalar()



@dataclass(frozen=True)
class TrialReport:
    seed: int
    move: str
    ok: bool
    detail: str = ""


# draws per requested trial before the harness gives up looking for sites
MAX_DRAWS_PER_TRIAL = 20


def verify_invariance(colours: int = 1, trials: int = 50,
                      moves: tuple[MoveKind, ...] = (MoveKind.R2,),
                      precision: int = 48, seed: int = 0,
                      n_slices: int = 6, max_strands: int = 6,
                      flip_gamma_sign: bool = False,
                      mode: Mode = Mode.SLICED) -> list[TrialReport]:
    """Random move-invariance trials; every entry should come back ok.

    Each trial is one checked move.  A draw whose diagram has no site for
    the drawn move is redrawn, up to MAX_DRAWS_PER_TRIAL * trials draws; if
    fewer than ``trials`` moves were checked by then, a failing entry says
    so.
    """
    if trials < 1 or colours < 1 or not moves:
        raise ValueError("need trials >= 1, colours >= 1 and at least one move")
    rng = random.Random(seed)
    reports = []
    draws = 0
    while len(reports) < trials and draws < MAX_DRAWS_PER_TRIAL * trials:
        draws += 1
        trial_seed = rng.randrange(2 ** 32)
        trng = random.Random(trial_seed)
        n_bottom = trng.randint(0, max(1, max_strands // colours))
        bottom = []
        for _ in range(n_bottom):
            bottom.append(BoundaryPoint(trng.randint(1, colours), trng.random() < 0.5))
        d = random_diagram(bottom, n_slices, colours, trng.randrange(2 ** 32),
                           max_width=max_strands)
        move = moves[trng.randrange(len(moves))]
        sites = enumerate_move_sites(d, move)
        if not sites:
            continue
        loc = sites[trng.randrange(len(sites))]
        try:
            d2 = apply_move(d, move, loc)
            a = normalized_invariant(d, precision, mode, flip_gamma_sign).value
            b = normalized_invariant(d2, precision, mode, flip_gamma_sign).value
            ok = a.eq_upto(b)
            detail = "" if ok else "invariant changed"
        except Exception as e:  # report, do not crash the harness
            ok = False
            detail = f"error: {e}"
        reports.append(TrialReport(trial_seed, move.value, ok, detail))
    if len(reports) < trials:
        reports.append(TrialReport(
            seed, ",".join(m.value for m in moves), False,
            f"only {len(reports)} of {trials} trials found a move site "
            f"in {draws} draws"))
    return reports
