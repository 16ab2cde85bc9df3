"""Evaluation of tangle diagrams to intertwiners and the invariance harness.

phi_coloured evaluates a coloured diagram slice by slice.  It keeps the
state in the tensor product of the coloured modules V_m and applies one
local map per slice, on just the strands the slice touches.  Each map is
written in closed form by _coloured_local and cached per (kind, colours,
precision): a crossing of V_a and V_b from the quasi-R-matrix
Theta = sum_n theta_n E^(n) (x) F^(n) and the weight factor (Kirby-Melvin,
Invent. Math. 105, 1991; Lusztig, Introduction to Quantum Groups, 1993), a
cap and a cup from quantum binomials.  Crossings and caps are exact; a cup
of colour m >= 2 carries inverted binomials with a validity window.  The
maps equal the cabled slices between Jones-Wenzl inclusions and
projections, but nothing here cables.  The framing normalization multiplies
by q^{3 gamma}, where gamma, from tangle.writhe_gamma, is the oriented
crossing count of the cabling.
phi_coloured refuses, before any work, a diagram whose slice states, one
per source basis vector, would hold more than MAX_STATE entries or whose
closed-form maps would pass MAX_MAP_SIZE.

Every column under evaluation is a _State: per basis index, keyed by a
mixed-radix int, the entry's integer coefficients packed into one int
(packing), and the windows of the windowed entries.  _apply_local maps one
state to the next with one big-int multiply per product and builds no
series; the columns become series once, when the finished map is made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .packing import WORD, cut, low_digit, pack, unpack, width
from .qseries import DEFAULT_PRECISION, LaurentSeries
from .uqsl2 import ModuleElement, basis_indices
from .intertwiner import Intertwiner
from .tangle import (BoundaryPoint, ColouredDiagram, MoveKind, Slice,
                     apply_move, boundary_states, enumerate_move_sites,
                     random_diagram, validate, writhe_gamma)
# not used here: the benchmark's tracer hooks these names in this module
from .intertwiner import (inclusion, inclusion_list,  # noqa: F401
                          projection, projection_list)
from .tangle import cable  # noqa: F401

__all__ = [
    "InvariantResult", "DiagramTooLarge",
    "phi_coloured", "normalized_invariant", "link_invariant",
    "verify_invariance",
]


@dataclass(frozen=True)
class InvariantResult:
    value: Intertwiner
    gamma: int
    normalized: bool

    def scalar(self) -> LaurentSeries:
        return self.value.scalar()


class _State(NamedTuple):
    """A vector under evaluation, kept packed between slices.

    A basis index is keyed by its mixed-radix int, the leftmost strand most
    significant with radix m + 1, so keys sort as the index tuples do.
    ``coords`` maps the key of each nonzero entry to the entry packed with
    digits of ``bits`` bits, digit j the coefficient of q^(base + j);
    ``valid`` holds the windows of the windowed entries, none of which has
    a digit above its window.  No coefficient exceeds ``bound`` in absolute
    value, and ``bound`` is below 2^(bits-1).
    """

    colours: tuple[int, ...]
    coords: dict
    valid: dict
    base: int
    bits: int
    bound: int


class _Local(NamedTuple):
    """A local map as _apply_local takes it.

    ``source`` and ``target`` are the colours of the strands it takes and
    leaves, ``rs`` and ``rt`` their numbers of basis vectors.  ``columns``
    maps each source slot, keyed like a state, to the terms (target slot,
    coefficients from the lowest degree up, lowest degree, window) of its
    image.  ``m0`` is the lowest degree of any term, and ``norm`` the
    largest row L1 norm: the sum of |coefficient| over all terms into one
    target slot, so no image coefficient exceeds ``norm`` times the largest
    input coefficient, nor does any partial sum of it.  ``packed`` caches
    the columns as _apply_local reads them.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    rs: int
    rt: int
    columns: dict
    m0: int
    norm: int
    windowed: bool
    packed: dict

    def terms(self, bits: int, right: int) -> dict:
        """Per source slot, the terms (target slot times ``right``, packed
        coefficients times q^-m0) of its image, for digits of ``bits`` bits
        and a slot with ``right`` basis vectors to its right."""
        got = self.packed.get((bits, right))
        if got is None:
            got = self.packed[bits, right] = {
                s: tuple((t * right, pack(cs, bits) << bits * (lo - self.m0))
                         for t, cs, lo, _ in img)
                for s, img in self.columns.items()}
        return got


def _radix(colours: tuple[int, ...]) -> int:
    """The number of basis vectors of the tensor product of these V_m."""
    r = 1
    for m in colours:
        r *= m + 1
    return r


@lru_cache(maxsize=None)
def _right(colours: tuple[int, ...], j: int) -> int:
    """The number of basis vectors of the strands from position j + 1 on."""
    return _radix(colours[j:])


def _key(idx: tuple[int, ...], colours: tuple[int, ...]) -> int:
    k = 0
    for a, m in zip(idx, colours):
        k = k * (m + 1) + a
    return k


def _index(key: int, colours: tuple[int, ...]) -> tuple[int, ...]:
    idx = []
    for m in reversed(colours):
        key, a = divmod(key, m + 1)
        idx.append(a)
    return tuple(reversed(idx))


def _make_local(source: tuple[int, ...], target: tuple[int, ...],
                columns) -> _Local:
    """The _Local of the map sending source index idx to the sum of c v_jdx
    over the (jdx, c) of columns[idx], for nonzero integral series c."""
    cols, rows = {}, {}
    for idx, img in columns:
        terms = []
        for jdx, c in img:
            t = _key(jdx, target)
            terms.append((t, c.coeffs, c.min_deg, c.valid_to))
            rows[t] = rows.get(t, 0) + sum(map(abs, c.coeffs))
        cols[_key(idx, source)] = tuple(terms)
    terms = [term for img in cols.values() for term in img]
    return _Local(source, target, _radix(source), _radix(target), cols,
                  min((lo for _, _, lo, _ in terms), default=0),
                  max(rows.values(), default=0),
                  any(v is not None for _, _, _, v in terms), {})


def _element(x: _State) -> ModuleElement:
    # every entry of a state is nonzero and cut to its window, and its keys
    # come from a valid state and valid local maps, so ModuleElement.make
    # has nothing to check
    bits, base, valid, colours = x.bits, x.base, x.valid, x.colours
    coords = []
    for key, p in sorted(x.coords.items()):
        j = low_digit(p, bits)
        coords.append((_index(key, colours), LaurentSeries(
            base + j, tuple(unpack(p >> bits * j, bits)), valid.get(key))))
    return ModuleElement(colours, tuple(coords))


def _repack(x: _State, norm: int) -> _State:
    """x with its bound taken from its largest coefficient, and repacked
    wider if images under a map of this norm need it."""
    digits = {key: unpack(p, x.bits) for key, p in x.coords.items()}
    bound = max((abs(c) for cs in digits.values() for c in cs), default=0)
    bits = max(x.bits, width(bound * norm))
    if bits == x.bits:
        return x._replace(bound=bound)
    return x._replace(coords={key: pack(cs, bits)
                              for key, cs in digits.items()},
                      bits=bits, bound=bound)


def _apply_local(mid: _Local, i: int, x: _State) -> _State:
    """Apply Id^(i-1) (x) mid (x) Id to x, acting only on its support.

    Equivalent to positioned(mid, i, n).apply(x) but never materializes the
    full-width matrix, which keeps wide diagrams tractable.  Each product is
    one multiply of packed ints, so the image is based at x.base + mid.m0;
    its coefficients are within x.bound * mid.norm, and the state is
    repacked first if that needs wider digits.  A product's window uses the
    entry's lowest nonzero degree; an output entry takes the smallest window
    of its products, is cut there, and is dropped when nothing nonzero is
    left.  Exact entries do no window work.
    """
    colours = x.colours
    k = len(mid.source)
    tgt = colours[:i - 1] + mid.target + colours[i - 1 + k:]
    if (x.bound * mid.norm) >> (x.bits - 1):
        x = _repack(x, mid.norm)
    bits = x.bits
    right = _right(colours, i - 1 + k)
    srad, trad = mid.rs * right, mid.rt * right
    cols = mid.terms(bits, right)
    base = x.base + mid.m0
    acc: dict[int, int] = {}
    get = acc.get
    if not (x.valid or mid.windowed):
        for key, p in x.coords.items():
            hi, rest = divmod(key, srad)
            s, low = divmod(rest, right)
            img = cols.get(s)
            if img is None:
                continue
            off = hi * trad + low
            for t, tp in img:
                t += off
                acc[t] = get(t, 0) + p * tp
        if 0 in acc.values():
            acc = {key: p for key, p in acc.items() if p}
        return _State(tgt, acc, {}, base, bits, x.bound * mid.norm)
    valid = x.valid
    windows: dict[int, int] = {}
    for key, p in x.coords.items():
        hi, rest = divmod(key, srad)
        s, low = divmod(rest, right)
        img = cols.get(s)
        if img is None:
            continue
        off = hi * trad + low
        vp = valid.get(key)
        lo = x.base + low_digit(p, bits)
        for (t, tp), (_, _, lo2, v2) in zip(img, mid.columns[s]):
            t += off
            acc[t] = get(t, 0) + p * tp
            # the window of the product: each factor's window shifted by
            # the other's lowest degree
            if vp is None:
                if v2 is None:
                    continue
                v = v2 + lo
            elif v2 is None:
                v = vp + lo2
            else:
                v = min(vp + lo2, v2 + lo)
            w = windows.get(t)
            if w is None or v < w:
                windows[t] = v
    for key, v in windows.items():
        acc[key] = cut(acc[key], v - base + 1, bits)
    coords = {key: p for key, p in acc.items() if p}
    return _State(tgt, coords,
                  {key: v for key, v in windows.items() if key in coords},
                  base, bits, x.bound * mid.norm)


def _basis_states(colours: tuple[int, ...]) -> dict:
    return {idx: _State(colours, {_key(idx, colours): 1}, {}, 0, WORD, 1)
            for idx in basis_indices(colours)}


def _apply_all(local: _Local, i: int, columns: dict) -> dict:
    """_apply_local on every column of a map under construction."""
    return {idx: _apply_local(local, i, v) for idx, v in columns.items()}


def _finish(src: tuple[int, ...], tgt: tuple[int, ...],
            columns: dict) -> Intertwiner:
    """The map whose columns are these states, in series form."""
    return Intertwiner.make(src, tgt, {idx: _element(v)
                                       for idx, v in columns.items()})


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[LaurentSeries, ...]:
    """The row [n, 0], ..., [n, n] of quantum binomials.

    [n, k] = q^(-k(n-k)) g_k(q^2) for the Gaussian binomial
    g_k = g_(k-1) (1 - x^(n-k+1)) / (1 - x^k), so each entry takes one
    multiplication and one exact division of integer lists: about n^3/6
    steps for the row, with nothing recursing and no other row kept.
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


@lru_cache(maxsize=None)
def _theta(n: int) -> LaurentSeries:
    """theta_n = (-1)^n q^(-n(n-1)/2) (q - q^-1)^n [n]!, the coefficient of
    E^(n) (x) F^(n) in the quasi-R-matrix; theta_n / theta_(n-1) = q^(1-2n) - q."""
    if n == 0:
        return LaurentSeries.one()
    return _theta(n - 1) * LaurentSeries.from_dict({1 - 2 * n: 1, 1: -1})


@lru_cache(maxsize=None)
def _coloured_local(kind: str, colours: tuple[int, ...], prec: int) -> _Local:
    """The local map of one coloured slice, in closed form.

    ``colours`` is the cup's colour, or the colours (a, b) of the two points
    a cap or crossing joins.  With w_i = 2i - a on V_a, w_j = 2j - b on V_b,
    theta_n as in _theta and its bar image thetabar_n (q -> q^-1):

      pos  v_i (x) v_j -> (-1)^(ab) sum_(n <= min(a-i, j)) theta_n [i+n, n]
           [b-j+n, n] q^((-3ab - w_(i+n) w_(j-n))/2) v_(j-n) (x) v_(i+n)
      neg  v_i (x) v_j -> (-1)^(ab) q^((3ab + w_i w_j)/2) sum_(n <= min(b-j, i))
           thetabar_n [j+n, n] [a-i+n, n] v_(j+n) (x) v_(i-n)
      cap  v_k (x) v_(m-k) -> (-1)^k q^(-k(k-m+1)) [m, k]
      cup  1 -> sum_j (-1)^j q^(j(j-m+1)) [m, j]^-1 v_(m-j) (x) v_j

    This is the cabled slice between the Jones-Wenzl inclusions iota and
    projections pi, entry for entry, windows included; orientation enters
    only the writhe.  Crossings and caps are exact.  A cup of colour m >= 2
    takes every inverse to ``prec`` terms, the window of the projection on
    its left strand, so entry j is valid to degree j + prec - 1; a colour-1
    cup is exact.
    """
    if kind == "cup":
        m, = colours
        terms = []
        for j in range(m + 1):
            c = _binomials(m)[j]
            if m > 1:
                c = c.invert(prec)
            terms.append(((m - j, j),
                          c.shift(j * (j - m + 1)).scale((-1) ** j)))
        return _make_local((), (m, m), [((), terms)])
    a, b = colours
    if kind == "cap":
        return _make_local((a, b), (), [
            ((k, a - k), [((), _binomials(a)[k].shift(-k * (k - a + 1))
                           .scale((-1) ** k))])
            for k in range(a + 1)])
    sign = (-1) ** (a * b)
    columns = []
    for i in range(a + 1):
        for j in range(b + 1):
            terms = []
            if kind == "pos":
                for n in range(min(a - i, j) + 1):
                    c = _theta(n) * _binomials(i + n)[n] * \
                        _binomials(b - j + n)[n]
                    e = (-3 * a * b - (2 * (i + n) - a) * (2 * (j - n) - b)) // 2
                    terms.append(((j - n, i + n), c.shift(e).scale(sign)))
            else:
                e = (3 * a * b + (2 * i - a) * (2 * j - b)) // 2
                for n in range(min(b - j, i) + 1):
                    c = _theta(n).bar() * _binomials(j + n)[n] * \
                        _binomials(a - i + n)[n]
                    terms.append(((j + n, i - n), c.shift(e).scale(sign)))
            columns.append(((i, j), terms))
    return _make_local((a, b), (b, a), columns)


class DiagramTooLarge(ValueError):
    """A diagram over MAX_STATE or MAX_MAP_SIZE, refused before any work."""


# the most entries phi_coloured keeps: one state per basis vector of the
# source, each with up to as many entries as the largest slice has basis
# vectors, prod(m_i + 1) over its coloured points
MAX_STATE = 2 ** 20

# the most closed-form map phi_coloured builds, summed over the distinct
# slice maps of a diagram: each map's terms times a bound on a term's degree
# span, (a+1)(b+1)(min(a,b)+1)(ab+1) for a crossing of colours a and b and
# (m+1)(m^2/4+1) for a cup or cap of colour m.  A map at the limit, a
# crossing of colour 11 or a cap of colour 100, takes about a second to
# build.
MAX_MAP_SIZE = 2 ** 18


def _touched(s: Slice, state: list[BoundaryPoint]) -> tuple[int, ...]:
    """The colours _coloured_local takes for slice s above this state."""
    if s.kind == "cup":
        return (s.colour,)
    return tuple(p.colour for p in state[s.pos - 1:s.pos + 1])


def _map_size(kind: str, colours: tuple[int, ...]) -> int:
    if kind == "cup" or kind == "cap":
        m = colours[0]
        return (m + 1) * (m * m // 4 + 1)
    a, b = colours
    return (a + 1) * (b + 1) * (min(a, b) + 1) * (a * b + 1)


def _check_size(d: ColouredDiagram, states: list) -> None:
    size = max(_radix(tuple(p.colour for p in state)) for state in states)
    columns = _radix(tuple(p.colour for p in d.bottom))
    if size * columns > MAX_STATE:
        raise DiagramTooLarge(
            f"{columns} slice states of up to {size} basis vectors "
            f"are over the limit of {MAX_STATE}")
    maps = {(s.kind, _touched(s, state)) for s, state in zip(d.slices, states)}
    size = sum(_map_size(kind, colours) for kind, colours in maps)
    if size > MAX_MAP_SIZE:
        raise DiagramTooLarge(
            f"slice maps of about {size} coefficients "
            f"are over the limit of {MAX_MAP_SIZE}")


def _shift_budget(d: ColouredDiagram, states: list) -> int:
    # worst-case window loss across all the q-power multiplications, two per
    # cabled slice; the actual loss is usually near zero because raises and
    # lowers cancel
    cabled = 0
    for s, state in zip(d.slices, states):
        if s.kind == "cup":
            cabled += s.colour
        elif s.kind == "cap":
            cabled += state[s.pos - 1].colour
        else:
            cabled += state[s.pos - 1].colour * state[s.pos].colour
    return 2 * cabled + 2 * sum(p.colour for p in d.bottom) + 8


def _achieved_window(out: Intertwiner, precision: int) -> bool:
    """Every truncated entry still carries at least `precision` coefficients."""
    for _, img in out.columns:
        for _, series in img.coords:
            if series.valid_to is None or series.is_zero():
                continue
            if series.valid_to - series.min_deg + 1 < precision:
                return False
    return True


def phi_coloured(d: ColouredDiagram,
                 precision: int = DEFAULT_PRECISION) -> Intertwiner:
    """The intertwiner of a coloured diagram.

    A diagram whose slice states, one per source basis vector, could hold
    more than MAX_STATE entries, or whose slice maps are over MAX_MAP_SIZE,
    is refused with DiagramTooLarge before any work.  The internal precision
    starts slightly above the requested one and is escalated (up to the
    worst-case shift budget of the diagram) whenever the computed entries
    come back with too narrow a validity window.
    """
    states = boundary_states(d)
    _check_size(d, states)
    cap = _shift_budget(d, states)
    budgets = sorted({min(8, cap), min(32, cap), cap})
    for i, budget in enumerate(budgets):
        out = _phi_coloured_once(d, states, precision + budget)
        if i == len(budgets) - 1 or _achieved_window(out, precision):
            return out
    raise AssertionError("unreachable")


def _phi_coloured_once(d: ColouredDiagram, states: list,
                       prec: int) -> Intertwiner:
    src = tuple(p.colour for p in d.bottom)
    tgt = tuple(p.colour for p in states[-1])
    columns = _basis_states(src)
    for s, state in zip(d.slices, states):
        columns = _apply_all(_coloured_local(s.kind, _touched(s, state), prec),
                             s.pos, columns)
    return _finish(src, tgt, columns)


def normalized_invariant(d: ColouredDiagram, precision: int = DEFAULT_PRECISION,
                         flip_gamma_sign: bool = False) -> InvariantResult:
    gamma = writhe_gamma(d, flip_sign=flip_gamma_sign)
    raw = phi_coloured(d, precision)
    return InvariantResult(raw.scale(LaurentSeries.monomial(3 * gamma)), gamma, True)


def link_invariant(d: ColouredDiagram,
                   precision: int = DEFAULT_PRECISION) -> LaurentSeries:
    top = validate(d)
    if d.bottom or top:
        raise ValueError("link_invariant needs empty bottom and top boundaries")
    return normalized_invariant(d, precision).scalar()



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
                      flip_gamma_sign: bool = False) -> list[TrialReport]:
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
            a = normalized_invariant(d, precision, flip_gamma_sign).value
            b = normalized_invariant(d2, precision, flip_gamma_sign).value
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
