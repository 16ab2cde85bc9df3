"""Diagram evaluation, framing normalization, and the invariance harness."""

import dataclasses
import hashlib
import json
import random
import time
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtangle.intertwiner import Intertwiner, inclusion, projection
from qtangle.invariant import (MAX_STATE, DiagramTooLarge, _Local, _State,
                               _apply_all, _apply_local, _basis_states,
                               _coloured_local, _divide, _element, _finish,
                               _index, _key, _theta,
                               link_invariant, normalized_invariant,
                               phi_coloured, verify_invariance)
from qtangle.packing import pack, width
from qtangle.qseries import LaurentSeries, binomial_row, quantum_integer
from qtangle.uqsl2 import ModuleElement, basis_indices, weight
from qtangle.tangle import (BoundaryPoint, ColouredDiagram, MoveKind, Slice,
                            cable, parse, random_diagram, random_link,
                            validate, writhe_gamma)

from fullwidth import (cap, crossing_neg, crossing_pos, cup, positioned,
                       windowed_projection)

PREC = 32

UNKNOT = "bottom\ncup 1 {m} u\ncap 1\n"


def unknot(m: int) -> str:
    return UNKNOT.format(m=m)


@lru_cache(maxsize=None)
def slice_mid(kind: str) -> Intertwiner:
    """The two-strand (or zero-strand) map of a colour-1 slice."""
    if kind == "cup":
        return cup()
    if kind == "cap":
        return cap()
    if kind == "pos":
        return crossing_pos(2, 1)
    return crossing_neg(2, 1)


# adapters from full-width maps and module elements to the evaluator's
# local maps and states
def _make_local(source: tuple[int, ...], target: tuple[int, ...],
                columns) -> _Local:
    """The _Local of the map sending source index idx to the sum of c v_jdx
    over the (jdx, c) of columns[idx], for nonzero exact integral series c.
    A windowed series raises ValueError: a local map is exact."""
    cols = {}
    for idx, img in columns:
        terms = []
        for jdx, c in img:
            if c.valid_to is not None:
                raise ValueError(f"local map entry {c} is not exact")
            terms.append((_key(jdx, target), c.coeffs, c.min_deg))
        cols[_key(idx, source)] = tuple(terms)
    return _Local.make(source, target, cols)


@lru_cache(maxsize=None)
def to_local(mid: Intertwiner) -> _Local:
    return _make_local(mid.source, mid.target,
                       ((idx, img.coords) for idx, img in mid.columns))


def to_state(x: ModuleElement) -> _State:
    base = min((c.min_deg for _, c in x.coords), default=0)
    bound = max((abs(a) for _, c in x.coords for a in c.coeffs), default=0)
    bits = width(bound)
    return _State(x.colours, {
        _key(idx, x.colours): pack(c.coeffs, bits) << bits * (c.min_deg - base)
        for idx, c in x.coords}, base, bits, bound)


def up(colours) -> tuple[BoundaryPoint, ...]:
    return tuple(BoundaryPoint(m, True) for m in colours)


class TestPhi:
    """phi_coloured on cabled diagrams."""

    def test_identity_strand(self):
        d = cable(parse("bottom +1\n"))
        assert phi_coloured(d).eq_upto(Intertwiner.identity((1,)))

    def test_circle(self):
        d = cable(parse(unknot(1)))
        assert phi_coloured(d).scalar().eq_upto(quantum_integer(2).scale(-1))


class TestColouredUnknots:
    """Closed colour-m circles evaluate to (-1)^m [m+1]."""

    @pytest.mark.parametrize("m,sign", [(1, -1), (2, 1), (3, -1)] + [
        (m, (-1) ** m) for m in range(4, 13)])
    def test_values(self, m, sign):
        val = link_invariant(parse(unknot(m)), PREC)
        assert val.valid_to is None or val.valid_to >= m
        assert val.eq_upto(quantum_integer(m + 1).scale(sign))

    def test_two_component_mixed(self):
        d = parse("bottom\ncup 1 1 u\ncup 3 2 u\ncap 3\ncap 1\n")
        val = link_invariant(d, PREC)
        expected = (quantum_integer(2) * quantum_integer(3)).scale(-1)
        assert val.eq_upto(expected)

    def test_link_invariant_requires_closed_diagram(self):
        with pytest.raises(ValueError):
            link_invariant(parse("bottom +1\n"))


class TestFramingCalibration:
    def test_positive_curl_normalizes_to_identity(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        res = normalized_invariant(d, PREC)
        assert res.gamma == 1
        assert res.value.eq_upto(Intertwiner.identity((1,)))

    def test_negative_curl_normalizes_to_identity(self):
        d = parse("bottom +1\ncup 2 1 u\nneg 1\ncap 2\n")
        res = normalized_invariant(d, PREC)
        assert res.gamma == -1
        assert res.value.eq_upto(Intertwiner.identity((1,)))

    def test_raw_curl_is_q_cubed(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        raw = phi_coloured(d, PREC)
        expected = Intertwiner.identity((1,)).scale(LaurentSeries.monomial(-3))
        assert raw.eq_upto(expected)

    @pytest.mark.parametrize("prec", [16, 48])
    def test_framing_shift_equals_the_product(self, prec):
        # normalized_invariant shifts every entry by 3 gamma; the series
        # product by q^(3 gamma) is the oracle, windows included
        framed = windowed = 0
        for seed in range(60):
            rng = random.Random(seed)
            colours = 1 + seed % 3
            bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 3))]
            for d in (random_diagram(bottom, 5, colours, seed, max_width=6),
                      random_link(6, colours, seed, max_width=6)):
                gamma = writhe_gamma(d)
                want = phi_coloured(d, prec).scale(
                    LaurentSeries.monomial(3 * gamma))
                got = normalized_invariant(d, prec).value
                assert got.to_json() == want.to_json(), (seed, d.name)
                framed += gamma != 0
                windowed += any(c.valid_to is not None
                                for _, img in got.columns
                                for _, c in img.coords)
        assert framed > 20 and windowed > 5

    def test_flipped_sign_convention_breaks_calibration(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        res = normalized_invariant(d, PREC, flip_gamma_sign=True)
        assert not res.value.eq_upto(Intertwiner.identity((1,)))


def braid_closure(word: list[int], colours: list[int]) -> str:
    """Closure of a braid on upward strands returning through nested cups."""
    n = len(colours)
    lines = ["bottom"] + [f"cup {i} {colours[i - 1]} d" for i in range(1, n + 1)]
    lines += [f"{'pos' if g > 0 else 'neg'} {n + abs(g)}" for g in word]
    lines += [f"cap {i}" for i in range(n, 0, -1)]
    return "\n".join(lines) + "\n"


class TestHighColours:
    """High colours against closed forms and symmetries that need no
    evaluator: each value comes back exact."""

    @pytest.mark.parametrize("a", range(1, 7))
    def test_hopf_links(self, a):
        # (-1)^(a+b) q^(+-3ab) [(a+1)(b+1)] for the positive and negative
        # (a, b) Hopf link
        for b in range(1, 7):
            for word, sign in (([1, 1], 1), ([-1, -1], -1)):
                want = quantum_integer((a + 1) * (b + 1)).shift(
                    3 * a * b * sign).scale((-1) ** (a + b))
                val = link_invariant(parse(braid_closure(word, [a, b])), 16)
                assert val.valid_to is None and val == want, (a, b, sign)

    @pytest.mark.parametrize("m", range(4, 8))
    def test_trefoil_mirror_symmetry(self, m):
        # V(mirror D)(q) = V(D)(q^-1)
        v = link_invariant(parse(braid_closure([1, 1, 1], [m, m])), 16)
        w = link_invariant(parse(braid_closure([-1, -1, -1], [m, m])), 16)
        assert v.valid_to is None and w.valid_to is None
        assert w.bar() == v

    # the sha256 of link_invariant(d, 16).to_json(), keys sorted, taken with
    # 64-bit digits and mixed-radix state keys
    PINNED = {
        "trefoil-c9": (
            braid_closure([1, 1, 1], [9, 9]),
            "eba9ac72cf1a174dd3ed85fbb00ef757"
            "d4b5b5621fc476310dbdf6c41b04b2a3"),
        "figure8-c6": (
            "bottom\ncup 1 6 u\ncup 2 6 u\ncup 3 6 u\n"
            "pos 1\nneg 2\npos 1\nneg 2\ncap 3\ncap 2\ncap 1\n",
            "b7ba1ee2bdf8e4316b47349d55d875a5"
            "ef485c60619939018da73482452fb84a"),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_heavy_values_are_pinned(self, name):
        text, want = self.PINNED[name]
        val = link_invariant(parse(text), 16)
        got = json.dumps(val.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(got).hexdigest() == want

    def test_colour_seven_trefoil_is_fast(self):
        for memo in (_coloured_local, binomial_row, _theta):
            memo.cache_clear()
        t0 = time.monotonic()
        val = link_invariant(parse(braid_closure([1, 1, 1], [7, 7])), 48)
        assert time.monotonic() - t0 < 5
        assert not val.is_zero()


def mirror(d: ColouredDiagram) -> ColouredDiagram:
    """d with every crossing switched."""
    flip = {"pos": "neg", "neg": "pos"}
    return dataclasses.replace(d, slices=tuple(
        dataclasses.replace(s, kind=flip.get(s.kind, s.kind))
        for s in d.slices))


class TestMirrorSymmetry:
    def test_seeded_links(self):
        # V(mirror D)(q) = V(D)(q^-1), with no oracle: the reflection of V(D)
        # is known from degree -v on, where v is V(D)'s window, and V(mirror
        # D) up to its own window w; the two must agree on [-v, w]
        compared = 0
        for seed in range(30):
            d = random_link(12 + seed % 7, 1 + seed % 3, seed, max_width=6)
            v = link_invariant(d, PREC)
            w = link_invariant(mirror(d), PREC)
            assert not v.is_zero() and not w.is_zero(), d.name
            lo = None if v.valid_to is None else -v.valid_to
            hi = w.valid_to
            assert lo is None or hi is None or lo <= hi, d.name
            reflected = {-e: c for e, c in v.support().items()}
            got = w.support()
            for e in set(reflected) | set(got):
                if (lo is None or e >= lo) and (hi is None or e <= hi):
                    assert reflected.get(e, 0) == got.get(e, 0), (d.name, e)
                    compared += 1
        assert compared > 150


class TestSizeGuard:
    def test_oversized_state_is_refused_before_any_work(self):
        big = parse("bottom\n" + "cup 1 30 u\n" * 3 + "cap 1\n" * 3)
        _coloured_local.cache_clear()
        with pytest.raises(DiagramTooLarge, match="over the limit"):
            phi_coloured(big, PREC)
        assert _coloured_local.cache_info().currsize == 0

    def test_oversized_maps_are_refused_before_any_work(self):
        # 1001^2 basis vectors pass MAX_STATE; the colour-1000 cup and cap
        # do not pass MAX_MAP_SIZE, and neither do two colour-12 crossings
        assert 1001 ** 2 <= MAX_STATE
        for text in (unknot(1000), braid_closure([1, 1], [12, 12])):
            for memo in (_coloured_local, binomial_row):
                memo.cache_clear()
            t0 = time.monotonic()
            with pytest.raises(DiagramTooLarge, match="over the limit"):
                phi_coloured(parse(text), PREC)
            assert time.monotonic() - t0 < 1
            assert _coloured_local.cache_info().currsize == 0
            assert binomial_row.cache_info().currsize == 0

    def test_open_tangles_count_a_state_per_column(self):
        # 1001^2 columns of 1001^2 basis vectors each, refused at once; 1001
        # columns of 1001 pass
        t0 = time.monotonic()
        with pytest.raises(DiagramTooLarge, match="over the limit"):
            phi_coloured(parse("bottom +1000 -1000\n"), PREC)
        assert time.monotonic() - t0 < 1
        assert 1001 ** 2 <= MAX_STATE
        value = phi_coloured(parse("bottom +1000\n"), PREC)
        assert value.eq_upto(Intertwiner.identity((1000,)))

    def test_down_boundary_points_count_as_caps(self):
        # the basis change at a colour-m point that points down reads the
        # binomial row of m, counted as a cap of colour m; an up point reads
        # none
        binomial_row.cache_clear()
        with pytest.raises(DiagramTooLarge, match="over the limit"):
            phi_coloured(parse("bottom -110\n"), PREC)
        assert binomial_row.cache_info().currsize == 0
        value = phi_coloured(parse("bottom +110\n"), PREC)
        assert value.eq_upto(Intertwiner.identity((110,)))

    def test_tier_one_colours_are_under_the_map_limit(self):
        # the colour-7 trefoil, the largest map tier-1 evaluates, and the
        # colour-11 Hopf link, the largest crossing at the limit
        for text in (braid_closure([1, 1, 1], [7, 7]),
                     braid_closure([1, 1], [11, 11])):
            link_invariant(parse(text), 16)


@lru_cache(maxsize=None)
def readout(m: int) -> Intertwiner:
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
def cabled_map(kind: str, colours: tuple[int, ...], prec: int) -> Intertwiner:
    """The oracle for the closed-form slice maps: pi o cable(slice) o iota
    for one coloured slice in the basis v, built from colour-1 cups, caps
    and crossings.

    ``colours`` is the cup's colour, or the colours of the two points a cap
    or crossing joins.  Jones-Wenzl projectors slide through crossings and
    around cups, so a crossing's output and a cup's output once its left
    strand is projected lie in the image of the inclusions.  There pi
    agrees with the exact readout: crossings and caps come out exact.  The
    inclusions, colour-1 slices and readouts are exact and run as local
    maps on the evaluator's state; the projection on a cup's left strand
    carries windows, so it runs at full width on Intertwiner arithmetic.
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
    columns = {idx: v for idx, v in _basis_states(up(src)).items()
               if weight(src, idx) in weights}
    # inclusions right to left and readouts left to right, so that the
    # factors not yet expanded or already collapsed keep one slot each
    for j in reversed(range(len(src))):
        if src[j] > 1:
            columns = _apply_all(to_local(inclusion(src[j])), j + 1, columns)
    for s in cable(piece).slices:
        columns = _apply_all(to_local(slice_mid(s.kind)), s.pos, columns)
    if kind == "cup":
        m = colours[0]
        if m > 1:
            columns = _apply_all(to_local(readout(m)), m + 1, columns)
        half = _finish(src, up((1,) * m + (m,)), columns, prec)
        return windowed_projection(m, prec).tensor(
            Intertwiner.identity((m,))) @ half
    for j, m in enumerate(tgt):
        if m > 1:
            columns = _apply_all(to_local(readout(m)), j + 1, columns)
    return _finish(src, up(tgt), columns, prec)


def lattice(colours, down, idx) -> LaurentSeries:
    """The product of [m, k] over the strands that point down, k their
    index: v_idx is this times w_idx."""
    c = LaurentSeries.one()
    for m, is_down, k in zip(colours, down, idx):
        if is_down:
            c = c * binomial_row(m)[k]
    return c


def basis_change_mismatch(kind: str, colours: tuple[int, ...],
                          down: tuple[bool, ...], prec: int) -> list[str]:
    """Where D_t M and M' D_s differ, with no division: M the cabled map in
    the basis v, M' the integral map of _coloured_local for these
    orientations, D_s and D_t the lattice products of its source and
    target.  An entry of D_t M with a window must reach M' D_s's top."""
    if kind == "cup":
        local = _coloured_local(kind, colours)
        src, tgt, ds, dt = (), colours * 2, (), down
    elif kind == "cap":
        local = _coloured_local(kind, colours)
        src, tgt, ds, dt = colours, (), down, ()
    else:
        local = _coloured_local(kind, colours, down)
        src, tgt, ds, dt = colours, colours[::-1], down, down[::-1]
    got = {(_index(s, src), _index(t, tgt)): LaurentSeries.make(lo, cs)
           for s, img in local.columns.items() for t, cs, lo in img}
    cabled = cabled_map(kind, colours, prec)
    want = {(idx, jdx): c for idx, img in cabled.columns
            for jdx, c in img.coords}
    zero = LaurentSeries.zero()
    bad = []
    for idx, jdx in set(got) | set(want):
        lhs = lattice(tgt, dt, jdx) * want.get((idx, jdx), zero)
        rhs = got.get((idx, jdx), zero) * lattice(src, ds, idx)
        if not lhs.eq_upto(rhs):
            bad.append(f"{idx}->{jdx}: {lhs} != {rhs}")
        elif lhs.valid_to is not None and lhs.valid_to < rhs.top_deg():
            bad.append(f"{idx}->{jdx}: window {lhs.valid_to} ends below "
                       f"q^{rhs.top_deg()}")
    return bad


ORIENTATIONS = [(False, False), (False, True), (True, False), (True, True)]


class TestClosedFormSliceMaps:
    """The closed-form slice maps against the cabled oracle: D_t M = M' D_s
    entry for entry, for every orientation of the strands."""

    @pytest.mark.parametrize("prec", [8, 24])
    @pytest.mark.parametrize("kind", ["pos", "neg"])
    def test_crossings(self, kind, prec):
        for a in range(1, 6):
            for b in range(1, 6):
                for down in ORIENTATIONS:
                    assert basis_change_mismatch(kind, (a, b), down, prec) \
                        == [], (kind, a, b, down, prec)

    @pytest.mark.parametrize("prec", [8, 24])
    def test_cups_and_caps(self, prec):
        for m in range(1, 6):
            for kind, colours in (("cup", (m,)), ("cap", (m, m))):
                # the two ends of a cup or cap point opposite ways
                for down in ORIENTATIONS[1:3]:
                    assert basis_change_mismatch(kind, colours, down, prec) \
                        == [], (kind, m, down, prec)
                # every entry a signed monomial
                assert all(len(cs) == 1 for img in
                           _coloured_local(kind, colours).columns.values()
                           for _, cs, _ in img), (kind, m)


def seeded_state(rng: random.Random, colours, scale: int = 1) -> ModuleElement:
    """Exact entries on about half the basis with interior zeros; every
    coefficient is one of 0, 1, -1, 2, -3 times scale."""
    coords = {}
    for idx in basis_indices(colours):
        if rng.random() < 0.5:
            continue
        cs = [scale * rng.choice((0, 1, -1, 2, -3))
              for _ in range(rng.randint(1, 5))]
        coords[idx] = LaurentSeries.make(rng.randint(-4, 4), cs)
    return ModuleElement.make(colours, coords)


def local_apply(mid: Intertwiner, i: int, x: ModuleElement) -> ModuleElement:
    return _element(_apply_local(to_local(mid), i, to_state(x)))


# the colour-1 slices, the projections and inclusions, and one coloured
# crossing map, each on 4 strands with colour-1 neighbours
LOCAL_MAPS = {
    "cup": lambda: slice_mid("cup"),
    "cap": lambda: slice_mid("cap"),
    "pos": lambda: slice_mid("pos"),
    "neg": lambda: slice_mid("neg"),
    "projection2": lambda: projection(2),
    "projection3": lambda: projection(3),
    "inclusion2": lambda: inclusion(2),
    "inclusion3": lambda: inclusion(3),
    "coloured-pos": lambda: cabled_map("pos", (2, 1), 8),
}


@st.composite
def index_pairs(draw):
    """Mixed colours 1-11 and two basis indices of their tensor product."""
    colours = tuple(draw(st.lists(st.integers(1, 11), max_size=6)))
    idx = st.tuples(*(st.integers(0, m) for m in colours))
    return colours, draw(idx), draw(idx)


class TestKeys:
    """State keys: one bit field per strand, the leftmost most significant."""

    @settings(max_examples=300, deadline=None)
    @given(index_pairs())
    def test_round_trip_and_order(self, case):
        colours, a, b = case
        ka, kb = _key(a, colours), _key(b, colours)
        assert _index(ka, colours) == a and _index(kb, colours) == b
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        assert ka.bit_length() <= sum(m.bit_length() for m in colours)

    def test_fields(self):
        # colours 3, 1, 8 take 2, 1 and 4 bits
        assert _key((2, 1, 5), (3, 1, 8)) == 0b10_1_0101
        assert _index(0b10_1_0101, (3, 1, 8)) == (2, 1, 5)


class TestApplyLocal:
    """_apply_local against the full-width positioned(mid, i, n).apply(x),
    which shares no code with it."""

    @staticmethod
    def check_full_width(name: str, scale: int) -> tuple[int, int]:
        """Compare on 12 seeded states at every position; the number of
        image entries, and of images packed wider than their input."""
        mid = LOCAL_MAPS[name]()
        n = 4
        entries = wider = 0
        for i in range(1, n - len(mid.source) + 2):
            colours = (1,) * (i - 1) + mid.source + \
                (1,) * (n - (i - 1) - len(mid.source))
            full = positioned(mid, i, n)
            for seed in range(12):
                x = seeded_state(random.Random(seed), colours, scale)
                packed = _apply_local(to_local(mid), i, to_state(x))
                got = _element(packed)
                assert got == full.apply(x), (name, i, seed)
                entries += len(got.coords)
                wider += packed.bits > to_state(x).bits
        return entries, wider

    @pytest.mark.parametrize("name", list(LOCAL_MAPS))
    def test_matches_full_width_apply(self, name):
        entries, _ = self.check_full_width(name, 1)
        assert entries > 20

    # coefficients of 2^61 and 2^125 times a few, which pack into 64- and
    # 128-bit digits; under a map of row norm 2 or more their images need
    # wider digits, above 2^63 and above 2^127
    @pytest.mark.parametrize("scale", [2 ** 61 + 1, 2 ** 125 + 1])
    @pytest.mark.parametrize("name", list(LOCAL_MAPS))
    def test_wide_coefficients_are_repacked(self, name, scale):
        entries, wider = self.check_full_width(name, scale)
        assert entries > 20
        assert (wider > 0) == (to_local(LOCAL_MAPS[name]()).norm > 1)

    def test_entry_that_cancels_is_dropped(self):
        # cap(q^-1 v0 v1 + v1 v0) = q^-1 - q^-1
        mid = slice_mid("cap")
        x = ModuleElement.make((1, 1), {
            (0, 1): LaurentSeries.monomial(-1),
            (1, 0): LaurentSeries.one()})
        got = local_apply(mid, 1, x)
        assert got.is_zero() and got == positioned(mid, 1, 2).apply(x)

    def test_windowed_map_is_refused(self):
        # the evaluator's maps are exact; pi_2 in the basis v is not
        with pytest.raises(ValueError, match="not exact"):
            to_local(windowed_projection(2, 6))


class TestDivide:
    def test_exact_quotient_and_expansion(self):
        # a multiple of [4, 2] comes back whole; one more term makes it a
        # series of exactly ``precision`` coefficients
        d = binomial_row(4)[2]
        q = LaurentSeries.make(-3, [1, 0, -2, 5])
        assert _divide(q * d, d, 8) == q
        c = q * d + LaurentSeries.monomial(40)
        got = _divide(c, d, 8)
        assert got.valid_to is not None
        assert got.valid_to - got.min_deg + 1 == 8
        assert (got * d).eq_upto(c)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=12),
           st.integers(-8, 8), st.lists(st.tuples(
               st.integers(1, 6), st.integers(0, 6)), min_size=1, max_size=3),
           st.booleans(), st.sampled_from([1, 4, 8, 16]))
    def test_against_the_inverse(self, cs, lo, rows, multiple, precision):
        # d a product of binomials, as _lattice makes; c a multiple of d or
        # any polynomial, shorter than d too.  The reference is the series
        # product with the inverse, which an inexact quotient equals
        d = LaurentSeries.one()
        for n, k in rows:
            d = d * binomial_row(n)[min(k, n)]
        c = LaurentSeries.make(lo, cs)
        assume(not c.is_zero())
        if multiple:
            c = c * d
        got = _divide(c, d, precision)
        if got.valid_to is None:
            assert got * d == c
        else:
            assert got == c * d.invert(precision)
        if multiple:
            assert got.valid_to is None

    def test_dividend_shorter_than_divisor(self):
        # 1 / [3, 1] = q^2 / (1 + q^2 + q^4): no quotient is exact, and
        # the expansion still has ``precision`` coefficients
        d = binomial_row(3)[1]
        got = _divide(LaurentSeries.one(), d, 6)
        assert got == LaurentSeries.make(2, [1, 0, -1, 0, 0, 0], 7)
        assert got == LaurentSeries.one() * d.invert(6)


class TestIntegrality:
    def test_sample_random_links(self):
        for seed in (1, 2, 3):
            d = random_link(3, 2, seed, max_width=6)
            assert link_invariant(d, 24).is_integral()

    def test_link_coefficients_are_ints(self):
        # integral coefficients are stored as ints, not integral Fractions
        for seed in range(12):
            d = random_link(6, 1 + seed % 3, seed, max_width=6)
            val = link_invariant(d, PREC)
            assert not val.is_zero(), d.name
            assert all(type(c) is int for c in val.coeffs), d.name

    def test_open_tangle_entries_are_ints(self):
        # every binomial has lowest coefficient 1, so even an entry the
        # division at the end expands as a series stays over Z
        entries = 0
        for seed in range(8):
            rng = random.Random(seed)
            colours = 1 + seed % 3
            bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 3))]
            d = random_diagram(bottom, 5, colours, seed, max_width=6)
            value = normalized_invariant(d, PREC).value
            for _, img in value.columns:
                for _, series in img.coords:
                    assert all(type(c) is int for c in series.coeffs), d.name
                    entries += 1
        assert entries > 50

    def test_open_tangle_at_precision_zero(self):
        # an entry that is not a polynomial expands to no coefficients: a
        # zero with a window, where its exact entries stay whole
        d = parse("bottom -2\ncup 2 2 u\npos 1\n")
        entries = [c for _, img in phi_coloured(d, 0).columns
                   for _, c in img.coords]
        windowed = [c for c in entries if c.valid_to is not None]
        assert windowed and all(c.is_zero() for c in windowed)
        assert phi_coloured(d, 0).eq_upto(phi_coloured(d, 32))

    def test_colour_one_tangles_are_exact(self):
        # [1, k] = 1, so nothing divides a colour-1 tangle's entries
        d = parse("bottom +1 -1\npos 1\ncup 2 1 u\nneg 2\n")
        entries = [s for _, img in normalized_invariant(d, PREC).value.columns
                   for _, s in img.coords]
        assert entries and all(s.valid_to is None for s in entries)

    def test_colour_one_links_are_exact(self):
        links = [parse(braid_closure([1, 1, 1], [1, 1])),
                 parse(braid_closure([1, -2, 1, -2], [1, 1, 1]))]
        links += [random_link(10, 1, seed, max_width=8) for seed in range(8)]
        for d in links:
            assert link_invariant(d, PREC).valid_to is None, d.name


class TestHarness:
    def test_uncoloured_batch_all_pass(self):
        reports = verify_invariance(
            colours=1, trials=8,
            moves=(MoveKind.UNCOLOURED_R1, MoveKind.R2, MoveKind.R3),
            precision=24, seed=7, n_slices=5, max_strands=6)
        assert len(reports) == 8
        assert all(r.ok for r in reports)

    def test_coloured_batch_all_pass(self):
        reports = verify_invariance(
            colours=2, trials=4,
            moves=(MoveKind.KINK_PAIR, MoveKind.R2, MoveKind.ZIGZAG),
            precision=24, seed=11, n_slices=3, max_strands=6)
        assert all(r.ok for r in reports)

    def test_flipped_convention_fails_on_curls(self):
        reports = verify_invariance(
            colours=1, trials=12, moves=(MoveKind.UNCOLOURED_R1,),
            precision=24, seed=3, n_slices=4, max_strands=4,
            flip_gamma_sign=True)
        assert any(not r.ok for r in reports)

    def test_every_trial_checks_a_move(self):
        # seed 1 draws three diagrams without an r3 site among its first six
        reports = verify_invariance(
            colours=2, trials=6,
            moves=(MoveKind.KINK_PAIR, MoveKind.R2, MoveKind.R3,
                   MoveKind.CUPCAP_SLIDE, MoveKind.ZIGZAG,
                   MoveKind.CROSSING_PAST_NESTED_CUPS),
            precision=24, seed=1, n_slices=3, max_strands=6)
        assert len(reports) == 6
        assert all(r.ok and r.detail == "" for r in reports)

    def test_shortfall_is_a_failure(self):
        # with no slices there is never an r3 site
        reports = verify_invariance(colours=1, trials=2, moves=(MoveKind.R3,),
                                    precision=16, seed=0, n_slices=0)
        assert [r.ok for r in reports] == [False]
        assert "only 0 of 2 trials" in reports[0].detail

    @pytest.mark.parametrize("kw", [{"trials": 0}, {"trials": -3},
                                    {"colours": 0}, {"moves": ()}],
                             ids=["trials0", "trials-neg", "colours0",
                                  "no-moves"])
    def test_vacuous_requests_are_refused(self, kw):
        with pytest.raises(ValueError):
            verify_invariance(**kw)

    def test_determinism(self):
        kw = dict(colours=1, trials=5, moves=(MoveKind.R2,),
                  precision=24, seed=42, n_slices=4, max_strands=5)
        assert verify_invariance(**kw) == verify_invariance(**kw)
