"""Diagram evaluation, framing normalization, and the invariance harness."""

import dataclasses
import hashlib
import json
import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle import invariant, tangle
from qtangle.intertwiner import Intertwiner, inclusion, projection
from qtangle.invariant import (MAX_STATE, DiagramTooLarge, _Local, _State,
                               _apply_local, _coloured_local, _columns,
                               _cut_column, _finish, _index, _key, _key_bits,
                               _phi_coloured_once, _slice_key, _theta, _walk,
                               link_invariant, normalized_invariant,
                               phi_coloured, verify_invariance)
from qtangle.packing import pack, width
from qtangle.qseries import LaurentSeries, binomial_row, quantum_integer
from qtangle.uqsl2 import ModuleElement, basis_indices, weight
from qtangle.tangle import (BoundaryPoint, ColouredDiagram, MoveKind, Slice,
                            boundary_states, cable, parse, random_diagram,
                            random_link, validate, writhe_gamma)

from fullwidth import cap, crossing_neg, crossing_pos, cup, positioned

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
    over the (jdx, c) of columns[idx], for nonzero integral series c."""
    return _Local.make(source, target, {
        _key(idx, source): tuple((_key(jdx, target), c.coeffs, c.min_deg)
                                 for jdx, c in img)
        for idx, img in columns})


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


def element(x: _State) -> ModuleElement:
    """The one column of a state of the empty source, unpacked."""
    return _finish((), x).column(())


def up(colours) -> tuple[BoundaryPoint, ...]:
    return tuple(BoundaryPoint(m, True) for m in colours)


class TestPhi:
    """phi_coloured on cabled diagrams."""

    def test_identity_strand(self):
        d = cable(parse("bottom +1\n"))
        assert phi_coloured(d) == Intertwiner.identity((1,))

    def test_circle(self):
        d = cable(parse(unknot(1)))
        assert phi_coloured(d).scalar() == quantum_integer(2).scale(-1)


class TestColouredUnknots:
    """Closed colour-m circles evaluate to (-1)^m [m+1]."""

    @pytest.mark.parametrize("m,sign", [(1, -1), (2, 1), (3, -1)] + [
        (m, (-1) ** m) for m in range(4, 13)])
    def test_values(self, m, sign):
        val = link_invariant(parse(unknot(m)))
        assert val == quantum_integer(m + 1).scale(sign)

    def test_two_component_mixed(self):
        d = parse("bottom\ncup 1 1 u\ncup 3 2 u\ncap 3\ncap 1\n")
        val = link_invariant(d)
        expected = (quantum_integer(2) * quantum_integer(3)).scale(-1)
        assert val == expected

    def test_link_invariant_requires_closed_diagram(self):
        with pytest.raises(ValueError):
            link_invariant(parse("bottom +1\n"))


class TestFramingCalibration:
    def test_positive_curl_normalizes_to_identity(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        res = normalized_invariant(d)
        assert res.gamma == 1
        assert res.value == Intertwiner.identity((1,))

    def test_negative_curl_normalizes_to_identity(self):
        d = parse("bottom +1\ncup 2 1 u\nneg 1\ncap 2\n")
        res = normalized_invariant(d)
        assert res.gamma == -1
        assert res.value == Intertwiner.identity((1,))

    def test_raw_curl_is_q_cubed(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        raw = phi_coloured(d)
        expected = Intertwiner.identity((1,)).scale(LaurentSeries.monomial(-3))
        assert raw == expected

    @pytest.mark.parametrize("prec", [16, 48])
    def test_framing_shift_equals_the_product(self, prec):
        # normalized_invariant moves the packed state's base by 3 gamma; the
        # series product by q^(3 gamma) is the oracle.  The precision it is
        # given is ignored
        framed = 0
        for seed in range(60):
            rng = random.Random(seed)
            colours = 1 + seed % 3
            bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 3))]
            for d in (random_diagram(bottom, 5, colours, seed, max_width=6),
                      random_link(6, colours, seed, max_width=6)):
                gamma = writhe_gamma(d)
                want = phi_coloured(d).scale(
                    LaurentSeries.monomial(3 * gamma))
                got = normalized_invariant(d, prec).value
                assert got.to_json() == want.to_json(), (seed, d.name)
                assert got == want, (seed, d.name)
                framed += gamma != 0
        assert framed > 20

    def test_flipped_sign_convention_breaks_calibration(self):
        d = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
        res = normalized_invariant(d, flip_gamma_sign=True)
        assert res.value != Intertwiner.identity((1,))


def braid_closure(word: list[int], colours: list[int]) -> str:
    """Closure of a braid on upward strands returning through nested cups."""
    n = len(colours)
    lines = ["bottom"] + [f"cup {i} {colours[i - 1]} d" for i in range(1, n + 1)]
    lines += [f"{'pos' if g > 0 else 'neg'} {n + abs(g)}" for g in word]
    lines += [f"cap {i}" for i in range(n, 0, -1)]
    return "\n".join(lines) + "\n"


def figure_eight(m: int, first: str = "pos"):
    """The colour-m figure-eight; with ``first="neg"`` its first crossing
    is flipped."""
    return parse(f"bottom\ncup 1 {m} u\ncup 2 {m} u\ncup 3 {m} u\n"
                 f"{first} 1\nneg 2\npos 1\nneg 2\ncap 3\ncap 2\ncap 1\n")


def plat_figure_eight(m: int):
    """The colour-m figure-eight as a plat of width 4."""
    return parse(f"bottom\ncup 1 {m} u\ncup 3 {m} u\npos 2\npos 2\n"
                 f"neg 1\nneg 1\ncap 2\ncap 1\n")


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
                val = link_invariant(parse(braid_closure(word, [a, b])))
                assert val == want, (a, b, sign)

    @pytest.mark.parametrize("m", range(4, 8))
    def test_trefoil_mirror_symmetry(self, m):
        # V(mirror D)(q) = V(D)(q^-1)
        v = link_invariant(parse(braid_closure([1, 1, 1], [m, m])))
        w = link_invariant(parse(braid_closure([-1, -1, -1], [m, m])))
        assert w.bar() == v

    # the sha256 of link_invariant(d).to_json(), keys sorted, taken with
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
        val = link_invariant(parse(text))
        got = json.dumps(val.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(got).hexdigest() == want

    def test_colour_seven_trefoil_is_fast(self):
        for memo in (_coloured_local, binomial_row, _theta):
            memo.cache_clear()
        t0 = time.monotonic()
        val = link_invariant(parse(braid_closure([1, 1, 1], [7, 7])))
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
        # V(mirror D)(q) = V(D)(q^-1), with no oracle, whole polynomials
        compared = 0
        for seed in range(30):
            d = random_link(12 + seed % 7, 1 + seed % 3, seed, max_width=6)
            v = link_invariant(d)
            w = link_invariant(mirror(d))
            assert not v.is_zero() and not w.is_zero(), d.name
            assert w == v.bar(), d.name
            compared += len(w.support())
        assert compared > 150


def whole(d: ColouredDiagram) -> tuple[LaurentSeries, list[int]]:
    """A closed diagram evaluated with no cut: every slice, its first cup
    too, on the one state of the empty boundary; with the nnz of each
    state it passes through."""
    x, sizes = _columns(()), []
    for s, state in zip(d.slices, boundary_states(d)):
        x = _apply_local(_coloured_local(*_slice_key(s, state)), s.pos, x)
        sizes.append(len(x.coords))
    return _finish((), x).scalar(), sizes


def every_column(d: ColouredDiagram) -> list[LaurentSeries]:
    """The closed diagram's value from each column k = 0..m of its cut."""
    walk = _walk(d)
    return [_phi_coloured_once(d, walk, k).scalar()
            for k in range(d.slices[0].colour + 1)]


@lru_cache(maxsize=None)
def cut_corpus() -> tuple[ColouredDiagram, ...]:
    return tuple([random_link(10, c, seed, max_width=8)
                  for c in (1, 2, 3) for seed in range(15)] +
                 [f(m) for m in range(2, 6)
                  for f in (figure_eight, plat_figure_eight)])


def columns_agree(d: ColouredDiagram) -> bool:
    want, _ = whole(d)
    return all(v == want for v in every_column(d))


@pytest.fixture
def apply_sizes(monkeypatch):
    """The nnz of every state _apply_local returns, in order."""
    sizes = []
    apply = invariant._apply_local

    def counted(mid, i, x):
        y = apply(mid, i, x)
        sizes.append(len(y.coords))
        return y
    monkeypatch.setattr(invariant, "_apply_local", counted)
    return sizes


class TestCut:
    """A closed diagram is its first cup and a (2,0)-tangle T = c cap, so
    one column T(e_k) of the cut gives its value."""

    def test_every_column_gives_the_whole_value(self):
        odd = 0
        for d in cut_corpus():
            assert columns_agree(d), d.name
            odd += d.slices[0].colour % 2
        assert odd > 10

    # (-1)^(m+k) with (-1)^m dropped, and q^(k(k-m)) for q^(k(k-m+1))
    @pytest.mark.parametrize("mutant", [
        lambda f, m, k: f(m, k).scale((-1) ** m),
        lambda f, m, k: f(m, k).shift(-k)], ids=["sign", "shift"])
    def test_a_wrong_factor_fails(self, monkeypatch, mutant):
        factor = invariant._cut_factor
        monkeypatch.setattr(invariant, "_cut_factor",
                            lambda m, k: mutant(factor, m, k))
        assert not all(columns_agree(d) for d in cut_corpus())

    def test_closed_links_skip_the_first_cup(self, apply_sizes):
        for d in cut_corpus():
            apply_sizes.clear()
            link_invariant(d)
            assert len(apply_sizes) == len(d.slices) - 1, d.name

    def test_the_widest_state_is_narrower(self, apply_sizes):
        # the colour-4 figure-eight: 255 entries at the widest, against
        # 1,605 for the whole link
        d = figure_eight(4)
        want, sizes = whole(d)
        apply_sizes.clear()
        assert phi_coloured(d).scalar() == want
        assert 0 < max(apply_sizes) < max(sizes)

    @pytest.mark.parametrize("d", [
        figure_eight(4), plat_figure_eight(4),
        parse(braid_closure([1, -2, 1, -2], [4] * 3))],
        ids=["figure8", "plat", "braid-down-cups"])
    def test_the_column_rule_takes_the_lighter_extreme(self, d, apply_sizes):
        # _cut_column picks m or 0 by the first crossing on the cut
        walk = _walk(d)
        m = d.slices[0].colour
        work = {}
        for k in (0, m):
            apply_sizes.clear()
            _phi_coloured_once(d, walk, k)
            work[k] = sum(apply_sizes)
        assert work[_cut_column(d)] < work[m - _cut_column(d)]

    def test_the_empty_diagram_is_one(self):
        d = parse("bottom\n")
        assert phi_coloured(d) == Intertwiner.identity(())
        assert link_invariant(d) == LaurentSeries.one()

    @pytest.mark.parametrize("text", [
        "bottom\ncup 1 3 u\ncap 1\ncup 1 2 d\npos 1\ncap 1\n",
        "bottom\ncup 1 2 d\ncup 3 1 d\ncup 4 2 d\npos 5\npos 5\ncap 4\n"
        "cap 3\ncap 1\n",
        "bottom\ncup 1 1 u\ncap 1\n" +
        braid_closure([1, 1, 1], [2, 2]).removeprefix("bottom\n")])
    def test_split_links_equal_their_whole_value(self, text):
        d = parse(text)
        assert phi_coloured(d).scalar() == whole(d)[0] != LaurentSeries.zero()

    def test_unknots_with_a_down_cup(self):
        # TestColouredUnknots takes the cup that points up
        for m in range(1, 13):
            value = link_invariant(parse(f"bottom\ncup 1 {m} d\ncap 1\n"))
            assert value == quantum_integer(m + 1).scale((-1) ** m), m


@pytest.fixture
def passes(monkeypatch):
    """Calls of _apply_local, of _phi_coloured_once, and walks: calls of
    boundary_states under the name either module looks up."""
    calls = {"apply": 0, "pass": 0, "walk": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper
    monkeypatch.setattr(invariant, "_apply_local",
                        counted("apply", invariant._apply_local))
    monkeypatch.setattr(invariant, "_phi_coloured_once",
                        counted("pass", invariant._phi_coloured_once))
    walk = counted("walk", tangle.boundary_states)
    monkeypatch.setattr(invariant, "boundary_states", walk)
    monkeypatch.setattr(tangle, "boundary_states", walk)
    return calls


def open_corpus() -> list[ColouredDiagram]:
    """Open tangles with more than one column and at least one slice."""
    out = [parse("bottom +2 -1 +1\npos 1\ncup 2 1 u\nneg 3\ncap 1\n"),
           parse("bottom +4 +4 -4 +4\npos 1\npos 2\nneg 3\n")]
    for seed in range(20):
        rng = random.Random(seed)
        colours = 1 + seed % 3
        bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3))]
        out.append(random_diagram(bottom, 5, colours, seed, max_width=6))
    return out


class TestPassStructure:
    """Every column of an open tangle goes through each slice in one
    _apply_local call, and each evaluation walks its diagram once."""

    def test_open_tangles_apply_each_slice_once(self, passes):
        for d in open_corpus():
            for key in passes:
                passes[key] = 0
            normalized_invariant(d)
            assert passes == {"apply": len(d.slices), "pass": 1,
                              "walk": 1}, d.name

    def test_closed_links_walk_once(self, passes):
        for d in cut_corpus():
            for key in passes:
                passes[key] = 0
            link_invariant(d)
            assert passes == {"apply": len(d.slices) - 1, "pass": 1,
                              "walk": 1}, d.name

    def test_phi_coloured_makes_one_pass(self, passes):
        for d in open_corpus() + list(cut_corpus()[:5]):
            passes["pass"] = 0
            phi_coloured(d)
            assert passes["pass"] == 1, d.name


class TestSizeGuard:
    def test_oversized_state_is_refused_before_any_work(self):
        big = parse("bottom\n" + "cup 1 30 u\n" * 3 + "cap 1\n" * 3)
        _coloured_local.cache_clear()
        with pytest.raises(DiagramTooLarge, match="over the limit"):
            phi_coloured(big)
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
                phi_coloured(parse(text))
            assert time.monotonic() - t0 < 1
            assert _coloured_local.cache_info().currsize == 0
            assert binomial_row.cache_info().currsize == 0

    def test_open_tangles_count_a_state_per_column(self):
        # 1001^2 columns of 1001^2 basis vectors each, refused at once; 1001
        # columns of 1001 pass
        t0 = time.monotonic()
        with pytest.raises(DiagramTooLarge, match="over the limit"):
            phi_coloured(parse("bottom +1000 -1000\n"))
        assert time.monotonic() - t0 < 1
        assert 1001 ** 2 <= MAX_STATE
        value = phi_coloured(parse("bottom +1000\n"))
        assert value == Intertwiner.identity((1000,))

    def test_down_boundary_points_read_no_binomial_row(self):
        # a map is in the integral basis at both ends, so a boundary point
        # that points down changes no basis: a strand is the identity,
        # either way up, and reads no row of binomials
        binomial_row.cache_clear()
        for text, m in (("bottom -100\n", 100), ("bottom -110\n", 110),
                        ("bottom +110\n", 110)):
            assert phi_coloured(parse(text)) == Intertwiner.identity((m,)), text
        assert binomial_row.cache_info().currsize == 0

    def test_tier_one_colours_are_under_the_map_limit(self):
        # the colour-7 trefoil, the largest map tier-1 evaluates, and the
        # colour-11 Hopf link, the largest crossing at the limit
        for text in (braid_closure([1, 1, 1], [7, 7]),
                     braid_closure([1, 1], [11, 11])):
            link_invariant(parse(text))


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
def lift(m: int) -> Intertwiner:
    """w_k -> v_a for the sequence a = 1..10..0 (k ones), an exact right
    inverse of projection(m), which sends v_a to q^(-l(a)) w_k with
    l(a) = 0 here; so the Jones-Wenzl projector iota_m pi_m sends it to
    iota_m(w_k)."""
    return Intertwiner.from_function((m,), (1,) * m, lambda idx: (
        ModuleElement.basis_vector((1,) * m,
                                   (1,) * idx[0] + (0,) * (m - idx[0]))))


@lru_cache(maxsize=None)
def cabled_map(kind: str, colours: tuple[int, ...],
               down: tuple[bool, ...]) -> Intertwiner:
    """The oracle for the closed-form slice maps: pi o cable(slice) o iota
    for one coloured slice, built from colour-1 cups, caps and crossings,
    in the integral basis of phi_coloured.

    ``colours`` is the cup's colour, or the colours of the two points a cap
    or crossing joins, and ``down`` says which of the slice's two coloured
    boundary points point down: a cup's top points, else its bottom ones.
    A source point of colour m enters through iota_m (basis v) if it points
    up and through lift(m) (basis w) if down; a target point leaves through
    readout(m) (basis v) if it points up and through projection(m) (basis
    w) if down.  This is exact: Jones-Wenzl projectors slide through the
    cabled crossings and around the cabled cups and caps, and pi_m absorbs
    one, so a lifted w_k may stand in for iota_m(w_k), and a strand that
    points up leaves in the image of its inclusion, where readout is pi_m.
    Every factor is an exact integer map, run as a local map on the
    evaluator's state.
    """
    if kind == "cup":
        piece = ColouredDiagram("slice", (), (Slice("cup", 1, colours[0], True),))
        src_down, tgt_down = (), down
    else:
        piece = ColouredDiagram(
            "slice", (BoundaryPoint(colours[0], True),
                      BoundaryPoint(colours[1], False)), (Slice(kind, 1),))
        src_down, tgt_down = down, () if kind == "cap" else down[::-1]
    src = tuple(p.colour for p in piece.bottom)
    tgt = tuple(p.colour for p in validate(piece))
    # every slice map preserves weight, so a source vector of a weight the
    # target lacks (any but 0 under a cap) maps to zero
    weights = {weight(tgt, j) for j in basis_indices(tgt)}
    x, b = _columns(src), _key_bits(src)
    x = x._replace(coords={key: p for key, p in x.coords.items()
                           if weight(src, _index(key >> b, src)) in weights})
    # lifts right to left and readouts left to right, so that the factors
    # not yet expanded or already collapsed keep one slot each
    for j in reversed(range(len(src))):
        if src[j] > 1:
            into = lift(src[j]) if src_down[j] else inclusion(src[j])
            x = _apply_local(to_local(into), j + 1, x)
    for s in cable(piece).slices:
        x = _apply_local(to_local(slice_mid(s.kind)), s.pos, x)
    for j, m in enumerate(tgt):
        if m > 1:
            out = projection(m) if tgt_down[j] else readout(m)
            x = _apply_local(to_local(out), j + 1, x)
    return _finish(src, x)


def local_map(kind: str, colours: tuple[int, ...],
              down: tuple[bool, ...]) -> Intertwiner:
    """The closed-form slice map of _coloured_local as an Intertwiner; a
    cup or cap reads no orientation."""
    local = _coloured_local(kind, colours, () if kind in ("cup", "cap")
                            else down)
    return Intertwiner.make(local.source, local.target, {
        _index(s, local.source): ModuleElement.make(local.target, {
            _index(t, local.target): LaurentSeries.make(lo, cs)
            for t, cs, lo in img})
        for s, img in local.columns.items()})


ORIENTATIONS = [(False, False), (False, True), (True, False), (True, True)]


class TestClosedFormSliceMaps:
    """The closed-form slice maps against the cabled oracle, exactly, in
    the integral basis, for every orientation of the strands; then the
    closed-form local map itself, run as the evaluator runs it, on a seeded
    state."""

    @staticmethod
    def check_seeded(kind: str, colours: tuple[int, ...],
                     down: tuple[bool, ...], seed: int) -> None:
        """_apply_local of the closed-form map at position 2, between two
        colour-1 strands, against the full-width oracle on one seeded
        state."""
        local = _coloured_local(kind, colours, () if kind in ("cup", "cap")
                                else down)
        x = seeded_state(random.Random(seed), (1,) + local.source + (1,))
        full = positioned(cabled_map(kind, colours, down), 2,
                          len(x.colours))
        assert element(_apply_local(local, 2, to_state(x))) == \
            full.apply(x), (kind, colours, down, seed)

    @pytest.mark.parametrize("seed", [8, 24])
    @pytest.mark.parametrize("kind", ["pos", "neg"])
    def test_crossings(self, kind, seed):
        for a in range(1, 6):
            for b in range(1, 6):
                for down in ORIENTATIONS:
                    assert local_map(kind, (a, b), down) == \
                        cabled_map(kind, (a, b), down), (kind, a, b, down)
                    self.check_seeded(kind, (a, b), down, seed)

    @pytest.mark.parametrize("seed", [8, 24])
    def test_cups_and_caps(self, seed):
        for m in range(1, 6):
            for kind, colours in (("cup", (m,)), ("cap", (m, m))):
                # the two ends of a cup or cap point opposite ways
                for down in ORIENTATIONS[1:3]:
                    assert local_map(kind, colours, down) == \
                        cabled_map(kind, colours, down), (kind, m, down)
                    self.check_seeded(kind, colours, down, seed)
                # every entry a signed monomial
                assert all(len(cs) == 1 for img in
                           _coloured_local(kind, colours).columns.values()
                           for _, cs, _ in img), (kind, m)

    def test_the_oracle_reads_the_orientation(self):
        # negative control: at colour 2 the two bases differ, so the
        # crossing map of one orientation is not the oracle of another
        assert local_map("pos", (2, 2), (True, False)) != \
            cabled_map("pos", (2, 2), (False, True))
        assert cabled_map("neg", (2, 3), (False, False)) != \
            cabled_map("neg", (2, 3), (True, True))


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
    return element(_apply_local(to_local(mid), i, to_state(x)))


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
    "coloured-pos": lambda: cabled_map("pos", (2, 1), (False, False)),
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
                got = element(packed)
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


class TestIntegrality:
    def test_sample_random_links(self):
        for seed in (1, 2, 3):
            d = random_link(3, 2, seed, max_width=6)
            assert link_invariant(d).is_integral()

    def test_link_coefficients_are_ints(self):
        # integral coefficients are stored as ints, not integral Fractions
        for seed in range(12):
            d = random_link(6, 1 + seed % 3, seed, max_width=6)
            val = link_invariant(d)
            assert not val.is_zero(), d.name
            assert all(type(c) is int for c in val.coeffs), d.name

    def test_open_tangle_entries_are_ints(self):
        # the map is in the integral basis at both ends, so every entry is
        # an integer Laurent polynomial, stored with int coefficients
        entries = 0
        for seed in range(8):
            rng = random.Random(seed)
            colours = 1 + seed % 3
            bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 3))]
            d = random_diagram(bottom, 5, colours, seed, max_width=6)
            value = normalized_invariant(d).value
            for _, img in value.columns:
                for _, series in img.coords:
                    assert all(type(c) is int for c in series.coeffs), d.name
                    entries += 1
        assert entries > 50

    def test_colour_one_tangles_are_exact(self):
        # [1, k] = 1, so the two bases agree on a colour-1 strand, and the
        # map is the same with every orientation reversed
        d = parse("bottom +1 -1\npos 1\ncup 2 1 u\nneg 2\n")
        flipped = parse("bottom -1 +1\npos 1\ncup 2 1 d\nneg 2\n")
        value = normalized_invariant(d).value
        entries = [s for _, img in value.columns for _, s in img.coords]
        assert entries and all(type(c) is int for s in entries
                               for c in s.coeffs)
        assert normalized_invariant(flipped).value == value

    def test_colour_one_links_are_exact(self):
        links = [parse(braid_closure([1, 1, 1], [1, 1])),
                 parse(braid_closure([1, -2, 1, -2], [1, 1, 1]))]
        links += [random_link(10, 1, seed, max_width=8) for seed in range(8)]
        for d in links:
            # at q = 1 a link of c components is (-2)^c, which a truncated
            # series would miss
            at_one = abs(link_invariant(d).eval_at_one())
            assert at_one >= 2 and at_one & (at_one - 1) == 0, d.name


class TestHarness:
    def test_uncoloured_batch_all_pass(self):
        reports = verify_invariance(
            colours=1, trials=8,
            moves=(MoveKind.UNCOLOURED_R1, MoveKind.R2, MoveKind.R3),
            seed=7, n_slices=5, max_strands=6)
        assert len(reports) == 8
        assert all(r.ok for r in reports)

    def test_coloured_batch_all_pass(self):
        reports = verify_invariance(
            colours=2, trials=4,
            moves=(MoveKind.KINK_PAIR, MoveKind.R2, MoveKind.ZIGZAG),
            seed=11, n_slices=3, max_strands=6)
        assert all(r.ok for r in reports)

    def test_flipped_convention_fails_on_curls(self):
        reports = verify_invariance(
            colours=1, trials=12, moves=(MoveKind.UNCOLOURED_R1,),
            seed=3, n_slices=4, max_strands=4,
            flip_gamma_sign=True)
        assert any(not r.ok for r in reports)

    def test_every_trial_checks_a_move(self):
        # seed 1 draws three diagrams without an r3 site among its first six
        reports = verify_invariance(
            colours=2, trials=6,
            moves=(MoveKind.KINK_PAIR, MoveKind.R2, MoveKind.R3,
                   MoveKind.CUPCAP_SLIDE, MoveKind.ZIGZAG,
                   MoveKind.CROSSING_PAST_NESTED_CUPS),
            seed=1, n_slices=3, max_strands=6)
        assert len(reports) == 6
        assert all(r.ok and r.detail == "" for r in reports)

    def test_shortfall_is_a_failure(self):
        # with no slices there is never an r3 site
        reports = verify_invariance(colours=1, trials=2, moves=(MoveKind.R3,),
                                    seed=0, n_slices=0)
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
                  seed=42, n_slices=4, max_strands=5)
        assert verify_invariance(**kw) == verify_invariance(**kw)
