"""Evaluation of tangle diagrams to intertwiners and the invariance harness.

phi_coloured evaluates a coloured diagram slice by slice, in one exact pass,
in Lusztig's integral form of the tensor product of the coloured modules V_m
(G. Lusztig, Introduction to Quantum Groups, 1993): the basis v_k on a strand
that points up and w_k = v_k / [m, k] on one that points down.  Each slice
applies one local map, on just the strands it touches, written in closed
form by _coloured_local and cached per (kind, colours, orientations): a
crossing of V_a and V_b from the quasi-R-matrix and the weight factor
(Kirby-Melvin, Invent. Math. 105, 1991), a cap and a cup as signed
monomials.  Each map is built straight into integer columns, its products
multiplied as packed ints (packing), and every entry is an integer Laurent
polynomial.  The maps are the cabled slices between Jones-Wenzl inclusions
and projections, rescaled to the integral basis, but nothing here cables.

An open tangle's map is returned in the same basis at both ends: its
column idx is the image of the basis vector of index idx of the source (w
on a down point of colour m >= 2, v elsewhere), written in that basis of
the target.  So every entry is an integer Laurent polynomial, two sides of a
move, which share a boundary, compare with ==, and a closed link, with no
boundary, is its invariant.

Every column under evaluation is a _State: per basis index, keyed by an
int of bit fields, one per strand, the entry's integer coefficients packed
into one int.  Each column starts as a unit vector, and _apply_local maps
one state to the next with one big-int multiply per product, finding each
entry's slot with shifts and masks.  _finish unpacks the columns once, so
evaluation makes no series product and no division.
normalized_invariant applies the framing q^(3 gamma), with gamma from
tangle.writhe_gamma, as a shift of every entry.  phi_coloured refuses,
before any work, a diagram whose slice states, one per source basis vector,
would hold more than MAX_STATE entries or whose maps would pass MAX_MAP_SIZE.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .packing import low_digit, pack, unpack, width
from .qseries import LaurentSeries, binomial_row
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

    A basis index is keyed by an int of bit fields: a strand of colour m
    takes m.bit_length() bits, the leftmost strand the most significant
    ones, so keys sort as the index tuples do.
    ``coords`` maps the key of each nonzero entry to the entry packed with
    digits of ``bits`` bits, digit j the coefficient of q^(base + j).  No
    coefficient exceeds ``bound`` in absolute value, and ``bound`` is below
    2^(bits-1).
    """

    colours: tuple[int, ...]
    coords: dict
    base: int
    bits: int
    bound: int


class _Local(NamedTuple):
    """A local map as _apply_local takes it.

    ``source`` and ``target`` are the colours of the strands it takes and
    leaves, ``sw`` and ``tw`` the bit widths of their keys.  ``columns``
    maps each source slot, keyed like a state, to the terms (target slot,
    coefficients from the lowest degree up, lowest degree) of its image.
    ``m0`` is the lowest degree of any term, and ``norm`` the largest row L1
    norm: the sum of |coefficient| over all terms into one target slot, so
    no image coefficient exceeds ``norm`` times the largest input
    coefficient, nor does any partial sum of it.  ``packed`` caches the
    columns as _apply_local reads them.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    sw: int
    tw: int
    columns: dict
    m0: int
    norm: int
    packed: dict

    @staticmethod
    def make(source: tuple[int, ...], target: tuple[int, ...],
             columns: dict) -> "_Local":
        """The _Local of these columns, with their m0 and norm."""
        rows: dict[int, int] = {}
        for img in columns.values():
            for t, cs, _ in img:
                rows[t] = rows.get(t, 0) + sum(map(abs, cs))
        return _Local(source, target, _key_bits(source), _key_bits(target),
                      columns,
                      min((lo for img in columns.values() for _, _, lo in img),
                          default=0),
                      max(rows.values(), default=0), {})

    def terms(self, bits: int, right: int) -> dict:
        """Per source slot, the terms (target slot shifted ``right`` bits,
        packed coefficients times q^-m0) of its image, for digits of
        ``bits`` bits and a slot with ``right`` key bits to its right."""
        got = self.packed.get((bits, right))
        if got is None:
            got = self.packed[bits, right] = {
                s: tuple((t << right, pack(cs, bits) << bits * (lo - self.m0))
                         for t, cs, lo in img)
                for s, img in self.columns.items()}
        return got


def _radix(colours: tuple[int, ...]) -> int:
    """The number of basis vectors of the tensor product of these V_m."""
    r = 1
    for m in colours:
        r *= m + 1
    return r


def _key_bits(colours: tuple[int, ...]) -> int:
    """The number of bits of a key of the tensor product of these V_m."""
    return sum(m.bit_length() for m in colours)


@lru_cache(maxsize=None)
def _right(colours: tuple[int, ...], j: int) -> int:
    """The number of key bits of the strands from position j + 1 on."""
    return _key_bits(colours[j:])


def _key(idx: tuple[int, ...], colours: tuple[int, ...]) -> int:
    k = 0
    for a, m in zip(idx, colours):
        k = (k << m.bit_length()) | a
    return k


def _index(key: int, colours: tuple[int, ...]) -> tuple[int, ...]:
    idx = []
    for m in reversed(colours):
        w = m.bit_length()
        idx.append(key & ((1 << w) - 1))
        key >>= w
    return tuple(reversed(idx))


def _element(x: _State) -> ModuleElement:
    # every entry of a state is nonzero, and its keys come from a valid
    # state and valid local maps, so ModuleElement.make has nothing to check
    bits, base, colours = x.bits, x.base, x.colours
    coords = []
    for key, p in sorted(x.coords.items()):
        j = low_digit(p, bits)
        coords.append((_index(key, colours), LaurentSeries(
            base + j, tuple(unpack(p >> bits * j, bits)))))
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

    Equivalent to applying the full-width map Id^(i-1) (x) mid (x) Id, but
    never materializes it, which keeps wide diagrams tractable.  Each product
    is one multiply of packed ints, so the image is based at x.base + mid.m0;
    its coefficients are within x.bound * mid.norm, and the state is
    repacked first if that needs wider digits.  An entry that cancels is
    dropped.
    """
    colours = x.colours
    k = len(mid.source)
    if (x.bound * mid.norm) >> (x.bits - 1):
        x = _repack(x, mid.norm)
    right = _right(colours, i - 1 + k)
    smask, lmask = (1 << mid.sw) - 1, (1 << right) - 1
    hsh, tsh = right + mid.sw, right + mid.tw
    cols = mid.terms(x.bits, right)
    acc: dict[int, int] = {}
    get = acc.get
    for key, p in x.coords.items():
        img = cols.get((key >> right) & smask)
        if img is None:
            continue
        off = ((key >> hsh) << tsh) | (key & lmask)
        for t, tp in img:
            t += off
            acc[t] = get(t, 0) + p * tp
    if 0 in acc.values():
        acc = {key: p for key, p in acc.items() if p}
    return _State(colours[:i - 1] + mid.target + colours[i - 1 + k:], acc,
                  x.base + mid.m0, x.bits, x.bound * mid.norm)


def _product(sign: int, *factors: LaurentSeries) -> LaurentSeries:
    """sign times the product of these integer Laurent polynomials, by one
    multiply of packed ints (packing).  No coefficient of a product exceeds
    the product of its factors' L1 norms, which sets the digit width."""
    if sign == 1 and len(factors) == 1:
        return factors[0]
    bits = width(prod(sum(map(abs, f.coeffs)) for f in factors))
    p = sign * prod(pack(f.coeffs, bits) for f in factors)
    return LaurentSeries(sum(f.min_deg for f in factors),
                         tuple(unpack(p, bits)))


def _basis_states(colours: tuple[int, ...]) -> dict:
    """The basis vectors of this tensor product as states: the unit vector
    of each index, in whichever basis its strands carry."""
    bits = width(1)
    return {idx: _State(colours, {_key(idx, colours): 1}, 0, bits, 1)
            for idx in basis_indices(colours)}


def _apply_all(local: _Local, i: int, columns: dict) -> dict:
    """_apply_local on every column of a map under construction."""
    return {idx: _apply_local(local, i, v) for idx, v in columns.items()}


def _finish(src: tuple[int, ...], tgt: tuple[int, ...],
            columns: dict) -> Intertwiner:
    """The map whose columns are these states, unpacked."""
    return Intertwiner.make(src, tgt, {idx: _element(x)
                                       for idx, x in columns.items()})


@lru_cache(maxsize=None)
def _theta(n: int) -> LaurentSeries:
    """theta_n = (-1)^n q^(-n(n-1)/2) (q - q^-1)^n [n]!, the coefficient of
    E^(n) (x) F^(n) in the quasi-R-matrix; theta_n / theta_(n-1) = q^(1-2n) - q."""
    if n == 0:
        return LaurentSeries.one()
    return _product(1, _theta(n - 1), LaurentSeries(
        1 - 2 * n, (1,) + (0,) * (2 * n - 1) + (-1,)))


@lru_cache(maxsize=None)
def _coloured_local(kind: str, colours: tuple[int, ...],
                    down: tuple[bool, ...] = ()) -> _Local:
    """The local map of one coloured slice in the integral basis, in closed
    form.

    ``colours`` is the cup's colour, or the colours (a, b) of the two points
    a cap or crossing joins, and ``down`` says which of a crossing's two
    points point down.  Write x_i for the basis vector of V_a and y_j for
    that of V_b: v on a strand that points up, w on one that points down.
    With mu_i = 2i - a, nu_j = 2j - b, theta_n as in _theta and its bar image
    (q -> q^-1) thetabar_n = (-1)^n q^(n(n-1)) theta_n:

      pos  x_i (x) y_j -> (-1)^(ab) sum_(n <= min(a-i, j)) theta_n A_n B_n
           q^((-3ab - mu_(i+n) nu_(j-n))/2) y_(j-n) (x) x_(i+n)
      neg  x_i (x) y_j -> (-1)^(ab) q^((3ab + mu_i nu_j)/2)
           sum_(n <= min(b-j, i)) thetabar_n B_n A_n y_(j+n) (x) x_(i-n)
      cap  x_k (x) y_(m-k) -> (-1)^k q^(-k(k-m+1))
      cup  1 -> sum_j (-1)^j q^(j(j-m+1)) x_(m-j) (x) y_j

    where, for pos, A_n = [i+n, n] and B_n = [b-j+n, n] on up strands, and
    A_n = [a-i, n] and B_n = [j, n] on down ones; for neg, B_n = [j+n, n] and
    A_n = [a-i+n, n] up, and B_n = [b-j, n] and A_n = [i, n] down.  In the
    basis v alone these are the cabled slices between the Jones-Wenzl
    inclusions iota and projections pi: there a cap's entry carries [m, k]
    and a cup's entry 1/[m, j], which the down end of each absorbs, and
    [m, k+n] [k+n, n] = [m, k] [m-k, n] turns the binomial of a crossing's
    down strand.  Every entry is exact, and each term is built straight into
    integer coefficients, by one _product for n >= 1.
    """
    if kind == "cup":
        m, = colours
        return _Local.make((), (m, m), {0: tuple(
            (((m - j) << m.bit_length()) | j, ((-1) ** j,), j * (j - m + 1))
            for j in range(m + 1))})
    a, b = colours
    if kind == "cap":
        return _Local.make((a, b), (), {
            (k << b.bit_length()) | (a - k):
                ((0, ((-1) ** k,), -k * (k - a + 1)),)
            for k in range(a + 1)})
    da, db = down
    wa, wb = a.bit_length(), b.bit_length()
    sign = (-1) ** (a * b)
    unit = LaurentSeries(0, (sign,))
    columns = {}
    for i in range(a + 1):
        for j in range(b + 1):
            terms = []
            if kind == "pos":
                for n in range(min(a - i, j) + 1):
                    c = unit if n == 0 else _product(
                        sign, _theta(n),
                        binomial_row(a - i if da else i + n)[n],
                        binomial_row(j if db else b - j + n)[n])
                    e = (-3 * a * b - (2 * (i + n) - a) * (2 * (j - n) - b)) // 2
                    terms.append((((j - n) << wa) | (i + n), c.coeffs,
                                  c.min_deg + e))
            else:
                e = (3 * a * b + (2 * i - a) * (2 * j - b)) // 2
                for n in range(min(b - j, i) + 1):
                    c = unit if n == 0 else _product(
                        sign * (-1) ** n, _theta(n),
                        binomial_row(b - j if db else j + n)[n],
                        binomial_row(i if da else a - i + n)[n])
                    terms.append((((j + n) << wa) | (i - n), c.coeffs,
                                  c.min_deg + e + n * (n - 1)))
            columns[(i << wb) | j] = tuple(terms)
    return _Local.make((a, b), (b, a), columns)


class DiagramTooLarge(ValueError):
    """A diagram over MAX_STATE or MAX_MAP_SIZE, refused before any work."""


# the most entries phi_coloured keeps: one state per basis vector of the
# source, each with up to as many entries as the largest slice has basis
# vectors, prod(m_i + 1) over its coloured points
MAX_STATE = 2 ** 20

# the most closed-form map phi_coloured builds, summed over the distinct
# slice maps of a diagram: each map's terms times a bound on a term's degree
# span, (a+1)(b+1)(min(a,b)+1)(ab+1) for a crossing of colours a and b and
# (m+1)(m^2/4+1) for a cup or cap of colour m.  A map at the limit takes
# 0.014-0.019 s to build for a crossing of colour 11 and under 1 ms for a
# cap of colour 100 (Python 3.11.7 on a 2-core Xeon).  A cup or cap is
# only m + 1 monomials, but _apply_local packs each term shifted by up to
# m^2/4 digits, so the m^2/4 + 1 factor bounds the packed width it applies:
# with no guard, the colour-200 unknot peaks at 27 MB and the colour-400
# one at 105 MB.
MAX_MAP_SIZE = 2 ** 18


def _slice_key(s: Slice, state: list[BoundaryPoint]) -> tuple:
    """The arguments _coloured_local takes for slice s above this state.

    [1, k] = 1, so a strand of colour 1 counts as up and its orientation
    makes no second map."""
    if s.kind == "cup":
        return "cup", (s.colour,), ()
    points = state[s.pos - 1:s.pos + 1]
    colours = tuple(p.colour for p in points)
    if s.kind == "cap":
        return "cap", colours, ()
    return s.kind, colours, tuple(not p.up and p.colour > 1 for p in points)


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
    maps = {_slice_key(s, state) for s, state in zip(d.slices, states)}
    size = sum(_map_size(kind, colours) for kind, colours, _ in maps)
    if size > MAX_MAP_SIZE:
        raise DiagramTooLarge(
            f"slice maps of about {size} coefficients "
            f"are over the limit of {MAX_MAP_SIZE}")


def phi_coloured(d: ColouredDiagram) -> Intertwiner:
    """The intertwiner of a coloured diagram, in one exact pass.

    Both ends are in the integral basis: w_k = v_k / [m, k] on a point of
    colour m >= 2 that points down, v_k on any other, so every entry is an
    integer Laurent polynomial.  A diagram whose slice states, one per
    source basis vector, could hold more than MAX_STATE entries, or whose
    slice maps are over MAX_MAP_SIZE, is refused with DiagramTooLarge before
    any work.
    """
    states = boundary_states(d)
    _check_size(d, states)
    return _phi_coloured_once(d, states)


def _phi_coloured_once(d: ColouredDiagram, states: list) -> Intertwiner:
    src = tuple(p.colour for p in d.bottom)
    columns = _basis_states(src)
    for s, state in zip(d.slices, states):
        columns = _apply_all(_coloured_local(*_slice_key(s, state)), s.pos,
                             columns)
    return _finish(src, tuple(p.colour for p in states[-1]), columns)


def normalized_invariant(d: ColouredDiagram, precision=None,
                         flip_gamma_sign: bool = False) -> InvariantResult:
    """phi_coloured(d) times the framing factor q^(3 gamma).  ``precision``
    is ignored, as every value is exact; it is kept for callers that pass
    one."""
    gamma = writhe_gamma(d, flip_sign=flip_gamma_sign)
    return InvariantResult(phi_coloured(d).shift(3 * gamma), gamma, True)


def link_invariant(d: ColouredDiagram, precision=None) -> LaurentSeries:
    """The invariant of a closed diagram, an exact Laurent polynomial.
    ``precision`` is ignored, as in normalized_invariant."""
    top = validate(d)
    if d.bottom or top:
        raise ValueError("link_invariant needs empty bottom and top boundaries")
    return normalized_invariant(d).scalar()



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
                      seed: int = 0,
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
            # the two sides share a boundary, so also its basis
            a = normalized_invariant(d, flip_gamma_sign=flip_gamma_sign)
            b = normalized_invariant(d2, flip_gamma_sign=flip_gamma_sign)
            ok = a.value == b.value
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
