"""Diagram evaluation, framing normalization, and the invariance harness."""

import dataclasses
import random
import time
from functools import lru_cache

import pytest

from qtangle.intertwiner import (Intertwiner, cap, crossing_neg,
                                  crossing_pos, cup, inclusion, positioned,
                                  projection)
from qtangle.invariant import (MAX_STATE, DiagramTooLarge, _Local, _State,
                               _apply_all, _apply_local, _basis_states,
                               _binomials, _coloured_local, _element, _finish,
                               _index, _key, _make_local, _theta,
                               link_invariant, normalized_invariant,
                               phi_coloured, verify_invariance)
from qtangle.packing import pack, width
from qtangle.qseries import LaurentSeries, quantum_binomial, quantum_integer
from qtangle.uqsl2 import ModuleElement, basis_indices, weight
from qtangle.tangle import (BoundaryPoint, ColouredDiagram, MoveKind, Slice,
                            cable, parse, random_diagram, random_link,
                            validate)

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
@lru_cache(maxsize=None)
def to_local(mid: Intertwiner) -> _Local:
    return _make_local(mid.source, mid.target,
                       ((idx, img.coords) for idx, img in mid.columns))


def to_state(x: ModuleElement) -> _State:
    base = min((c.min_deg for _, c in x.coords), default=0)
    bound = max((abs(a) for _, c in x.coords for a in c.coeffs), default=0)
    bits = width(bound)
    coords, valid = {}, {}
    for idx, c in x.coords:
        key = _key(idx, x.colours)
        coords[key] = pack(c.coeffs, bits) << bits * (c.min_deg - base)
        if c.valid_to is not None:
            valid[key] = c.valid_to
    return _State(x.colours, coords, valid, base, bits, bound)


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
    evaluator: windows must cover each value whole."""

    @pytest.mark.parametrize("a", range(1, 7))
    def test_hopf_links(self, a):
        # (-1)^(a+b) q^(+-3ab) [(a+1)(b+1)] for the positive and negative
        # (a, b) Hopf link
        for b in range(1, 7):
            for word, sign in (([1, 1], 1), ([-1, -1], -1)):
                want = quantum_integer((a + 1) * (b + 1)).shift(
                    3 * a * b * sign).scale((-1) ** (a + b))
                val = link_invariant(parse(braid_closure(word, [a, b])), 100)
                assert val.valid_to is None or \
                    val.valid_to >= want.top_deg(), (a, b, sign)
                assert val.eq_upto(want), (a, b, sign)

    @pytest.mark.parametrize("m", range(4, 8))
    def test_trefoil_mirror_symmetry(self, m):
        # V(mirror D)(q) = V(D)(q^-1), each window reaching the top of the
        # other's reflection
        v = link_invariant(parse(braid_closure([1, 1, 1], [m, m])), 200)
        w = link_invariant(parse(braid_closure([-1, -1, -1], [m, m])), 200)
        assert v.valid_to >= -w.min_deg and w.valid_to >= -v.min_deg
        assert {-d: c for d, c in w.support().items()} == v.support()

    def test_colour_seven_trefoil_is_fast(self):
        for memo in (_coloured_local, _binomials, _theta):
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
            for memo in (_coloured_local, _binomials):
                memo.cache_clear()
            t0 = time.monotonic()
            with pytest.raises(DiagramTooLarge, match="over the limit"):
                phi_coloured(parse(text), PREC)
            assert time.monotonic() - t0 < 1
            assert _coloured_local.cache_info().currsize == 0
            assert _binomials.cache_info().currsize == 0

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
    for one coloured slice, built from colour-1 cups, caps and crossings.

    ``colours`` is the cup's colour, or the colours of the two points a cap
    or crossing joins.  Jones-Wenzl projectors slide through crossings and
    around cups, so a crossing's output and a cup's output once its left
    strand is projected lie in the image of the inclusions.  There pi
    agrees with the exact readout: crossings and caps come out exact, and a
    cup carries one windowed projection.
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
            columns = _apply_all(to_local(inclusion(src[j])), j + 1, columns)
    for s in cable(piece).slices:
        columns = _apply_all(to_local(slice_mid(s.kind)), s.pos, columns)
    for j, m in enumerate(tgt):
        if m > 1:
            pi = projection(m, prec) if kind == "cup" and j == 0 \
                else readout(m)
            columns = _apply_all(to_local(pi), j + 1, columns)
    return _finish(src, tgt, columns)


def local_entries(local) -> tuple:
    """A local map as (width, target, source index -> target index ->
    (coefficients by degree, lowest degree, window)), order-free."""
    return len(local.source), local.target, {
        _index(s, local.source): {
            _index(t, local.target): (
                {lo + j: c for j, c in enumerate(cs) if c}, lo, v)
            for t, cs, lo, v in img}
        for s, img in local.columns.items() if img}


class TestClosedFormSliceMaps:
    """The closed-form slice maps equal the cabled oracle entry for entry,
    values and windows alike."""

    def test_binomial_rows(self):
        for n in range(15):
            assert _binomials(n) == tuple(quantum_binomial(n, k)
                                          for k in range(n + 1))

    @pytest.mark.parametrize("prec", [8, 24])
    @pytest.mark.parametrize("kind", ["pos", "neg"])
    def test_crossings(self, kind, prec):
        for a in range(1, 6):
            for b in range(1, 6):
                want = local_entries(to_local(cabled_map(kind, (a, b), prec)))
                got = local_entries(_coloured_local(kind, (a, b), prec))
                assert got == want, (kind, a, b, prec)

    @pytest.mark.parametrize("prec", [8, 24])
    def test_cups_and_caps(self, prec):
        windowed = 0
        for m in range(1, 6):
            for kind, colours in (("cup", (m,)), ("cap", (m, m))):
                want = local_entries(to_local(cabled_map(kind, colours, prec)))
                got = local_entries(_coloured_local(kind, colours, prec))
                assert got == want, (kind, m, prec)
                windowed += sum(v is not None for img in got[2].values()
                                for _, _, v in img.values())
        # every entry of the cups of colours 2-5
        assert windowed == 3 + 4 + 5 + 6


def seeded_state(rng: random.Random, colours, scale: int = 1) -> ModuleElement:
    """Entries on about half the basis with interior zeros, windowed on
    two in three; every coefficient is one of 0, 1, -1, 2, -3 times scale."""
    coords = {}
    for idx in basis_indices(colours):
        if rng.random() < 0.5:
            continue
        lo = rng.randint(-4, 4)
        cs = [scale * rng.choice((0, 1, -1, 2, -3))
              for _ in range(rng.randint(1, 5))]
        v = None if rng.random() < 1 / 3 else rng.randint(lo, lo + 6)
        coords[idx] = LaurentSeries.make(lo, cs, v)
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
    "projection2": lambda: projection(2, 6),
    "projection3": lambda: projection(3, 6),
    "inclusion2": lambda: inclusion(2),
    "inclusion3": lambda: inclusion(3),
    "coloured-pos": lambda: cabled_map("pos", (2, 1), 8),
}


class TestApplyLocal:
    """_apply_local against the full-width positioned(mid, i, n).apply(x),
    which shares no code with it: values and windows must agree."""

    @staticmethod
    def check_full_width(name: str, scale: int) -> tuple[int, int]:
        """Compare on 12 seeded states at every position; the number of
        windowed image entries, and of images packed wider than their
        input."""
        mid = LOCAL_MAPS[name]()
        n = 4
        windowed = wider = 0
        for i in range(1, n - len(mid.source) + 2):
            colours = (1,) * (i - 1) + mid.source + \
                (1,) * (n - (i - 1) - len(mid.source))
            full = positioned(mid, i, n)
            for seed in range(12):
                x = seeded_state(random.Random(seed), colours, scale)
                packed = _apply_local(to_local(mid), i, to_state(x))
                got = _element(packed)
                assert got == full.apply(x), (name, i, seed)
                windowed += sum(c.valid_to is not None for _, c in got.coords)
                wider += packed.bits > to_state(x).bits
        return windowed, wider

    @pytest.mark.parametrize("name", list(LOCAL_MAPS))
    def test_matches_full_width_apply(self, name):
        windowed, _ = self.check_full_width(name, 1)
        assert windowed > 20

    # coefficients of 2^61 and 2^125 times a few, which pack into 64- and
    # 128-bit digits; under a map of row norm 2 or more their images need
    # wider digits, above 2^63 and above 2^127
    @pytest.mark.parametrize("scale", [2 ** 61 + 1, 2 ** 125 + 1])
    @pytest.mark.parametrize("name", list(LOCAL_MAPS))
    def test_wide_coefficients_are_repacked(self, name, scale):
        windowed, wider = self.check_full_width(name, scale)
        assert windowed > 20
        assert (wider > 0) == (to_local(LOCAL_MAPS[name]()).norm > 1)

    def test_entry_that_cancels_is_dropped(self):
        # cap(q^-1 v0 v1 + v1 v0) = q^-1 - q^-1
        mid = slice_mid("cap")
        x = ModuleElement.make((1, 1), {
            (0, 1): LaurentSeries.make(-1, [1], 3),
            (1, 0): LaurentSeries.make(0, [1], 4)})
        got = local_apply(mid, 1, x)
        assert got.is_zero() and got == positioned(mid, 1, 2).apply(x)

    def test_entry_above_its_window_is_dropped(self):
        # q^-1 + q^5 - q^-1 leaves q^5, above the window q^1 of the second
        # product
        mid = slice_mid("cap")
        x = ModuleElement.make((1, 1), {
            (0, 1): LaurentSeries.make(-1, [1, 0, 0, 0, 0, 0, 1]),
            (1, 0): LaurentSeries.make(0, [1], 2)})
        got = local_apply(mid, 1, x)
        assert got.is_zero() and got == positioned(mid, 1, 2).apply(x)
        # with the second window wider, q^5 stays: q^5 + O(q^6)
        x = ModuleElement.make((1, 1), {
            (0, 1): LaurentSeries.make(-1, [1, 0, 0, 0, 0, 0, 1]),
            (1, 0): LaurentSeries.make(0, [1], 6)})
        got = local_apply(mid, 1, x)
        assert got == positioned(mid, 1, 2).apply(x)
        assert got.as_dict()[()] == LaurentSeries.make(5, [1], 5)

    def test_window_uses_the_lowest_nonzero_degree(self):
        # the exact entry q^2 shifts the window of pi_2's term by 2
        mid = projection(2, 6)
        term = mid.column((0, 1)).as_dict()[(1,)]
        x = ModuleElement.make((1, 1), {(0, 1): LaurentSeries.monomial(2)})
        got = local_apply(mid, 1, x)
        assert got == positioned(mid, 1, 2).apply(x)
        assert got.as_dict()[(1,)].valid_to == term.valid_to + 2


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
        # every binomial has leading coefficient 1, so even the inverted
        # binomials inside the projections expand over Z
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

    def test_colour_one_tangles_are_exact(self):
        # pi_1 is the exact identity, so nothing truncates a colour-1 tangle
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
