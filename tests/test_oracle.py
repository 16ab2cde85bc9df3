"""The evaluator against oracles that share none of its evaluation code.

Closed links in colours 1-3 go to Kauffman's state model of the bracket
(L. Kauffman, "State models and the Jones polynomial", Topology 26, 1987),
summed over the cabled slice word.  Its expected values read nothing of qtangle but a
diagram's slices and, from ``qtangle.tangle``, ``parse``, ``random_link``
and ``cable``: no series, module, intertwiner or local map.  A colour-m
strand becomes m parallel strands with the integral Temperley-Lieb element
[m] f_m inserted after each colour-m cup, f_m the Jones-Wenzl projector, so
the sum is the product of [m] over the cups times the coloured value.

Higher colours go to three whole-polynomial identities whose expected
values use only ``LaurentSeries`` arithmetic and the DSL: Habiro's
cyclotomic expansion of the coloured figure-eight (K. Habiro, Invent. Math.
171, 2008), the cabling identity, which reads a colour-m value off the
colour-1 value of its cable and the values in lower colours, and the
eigenvalue sum of the torus knots and links T(2, n).

Open tangles go to the composite of the cabled slice maps of
``test_invariant.cabled_map``, each placed at full width with
``Intertwiner.tensor`` and composed with ``@``: the evaluator applies the
closed-form maps on a packed local state, and shares none of that.  Both
are in the integral basis at both ends, so they compare with ==.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle import invariant
from qtangle.intertwiner import Intertwiner
from qtangle.invariant import link_invariant, phi_coloured
from qtangle.qseries import LaurentSeries, quantum_integer
from qtangle.tangle import (BoundaryPoint, boundary_states, cable, parse,
                            random_diagram, random_link)

from test_invariant import (braid_closure, cabled_map, figure_eight,
                            plat_figure_eight)

# -- Laurent polynomials in A, as {exponent: int} -------------------------------


def padd(acc: dict, p: dict, shift: int = 0) -> None:
    for e, c in p.items():
        c += acc.get(e + shift, 0)
        if c:
            acc[e + shift] = c
        else:
            acc.pop(e + shift, None)


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e, c in b.items():
        padd(out, {x: c * y for x, y in a.items()}, e)
    return out


def qint(n: int) -> dict:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n) at q = A^-2 (it is even)."""
    return {2 * (n - 1 - 2 * j): 1 for j in range(n)}


# one closed loop
DELTA = {2: -1, -2: -1}

# [m] f_m as sums of coefficient times a word of the generators U_(k+j),
# U_j joining strands j, j+1 by a cap with a cup above it, the rightmost
# letter applied first.  With loop value d = -[2], Wenzl's recursion reads
# f_(n+1) = f_n (x) 1 + [n]/[n+1] (f_n (x) 1) U_n (f_n (x) 1), so
#   [2] f_2 = [2] Id + U_1
#   [3] f_3 = [3]/[2] ([2] f_2 (x) 1) + 1/[2] ([2] f_2) U_2 ([2] f_2)
#           = [3] Id + [2] (U_1 + U_2) + U_1 U_2 + U_2 U_1,
# using U_1 U_2 U_1 = U_1 and [3] + 1 = [2]^2.
PROJECTORS = {
    1: [({0: 1}, ())],
    2: [(qint(2), ()), ({0: 1}, (0,))],
    3: [(qint(3), ()), (qint(2), (0,)), (qint(2), (1,)),
        ({0: 1}, (0, 1)), ({0: 1}, (1, 0))],
}

# -- the state sum --------------------------------------------------------------
# A state is the way the strand ends at the current level are joined below
# it: ends with the same label are the two ends of one arc.  Labels are
# numbered in order of first appearance, so equal states are equal tuples.


def relabel(ends: tuple) -> tuple:
    names: dict = {}
    return tuple(names.setdefault(e, len(names)) for e in ends)


def cup_state(ends: tuple, k: int) -> tuple:
    """A new arc with its ends at k, k+1 (0-based)."""
    return relabel(ends[:k] + (-1, -1) + ends[k:])


def cap_state(ends: tuple, k: int) -> tuple[tuple, int]:
    """Ends k and k+1 joined on top, and the number of loops that closes."""
    a, b = ends[k], ends[k + 1]
    rest = ends[:k] + ends[k + 2:]
    if a == b:
        return relabel(rest), 1
    return relabel(tuple(a if e == b else e for e in rest)), 0


def act(ends: tuple, ops) -> tuple[tuple, int]:
    """The state after the ops, each a cap ("cap", k), a cup ("cup", k) or
    both ("U", k) at ends k, k+1 (0-based), and the loops they close."""
    loops = 0
    for op, k in ops:
        if op != "cup":
            ends, n = cap_state(ends, k)
            loops += n
        if op != "cap":
            ends = cup_state(ends, k)
    return ends, loops


def cabled_events(d) -> list:
    """The cabled word of a closed diagram as (kind, 0-based position, up)
    events, with ("jw", k, m) for [m] f_m on the left half of each colour-m
    cup, as the cable of each coloured slice in turn."""
    word = iter(cable(d).slices)
    colours: list[int] = []          # coloured points at the current level
    events = []
    for s in d.slices:
        k = s.pos - 1
        at = sum(colours[:k])
        if s.kind == "cup":
            n = s.colour
            colours[k:k] = [s.colour, s.colour]
        elif s.kind == "cap":
            n = colours[k]
            del colours[k:k + 2]
        else:
            n = colours[k] * colours[k + 1]
            colours[k], colours[k + 1] = colours[k + 1], colours[k]
        for c in (next(word) for _ in range(n)):
            events.append((c.kind, c.pos - 1, c.up))
        if s.kind == "cup":
            events.append(("jw", at, s.colour))
    assert next(word, None) is None and not colours and not d.bottom
    return events


def terms(kind: str, k: int, m) -> list:
    """An event as a sum of (coefficient, ops): <pos> = A <Id> + A^-1 <U>
    and <neg> = A^-1 <Id> + A <U>; m is the colour of a "jw" event."""
    if kind in ("cup", "cap"):
        return [({0: 1}, [(kind, k)])]
    if kind == "jw":
        return [(c, [("U", k + j) for j in reversed(letters)])
                for c, letters in PROJECTORS[m]]
    a = 1 if kind == "pos" else -1
    return [({a: 1}, []), ({-a: 1}, [("U", k)])]


def sum_states(events) -> tuple[dict, int]:
    """The bracket of a cabled word as {state: polynomial in A}, and its
    writhe: +1 for a pos crossing of equally oriented strands, -1 for
    opposite ones, and the reverse for neg."""
    vec = {(): {0: 1}}
    ups: list[bool] = []
    writhe = 0
    for kind, k, arg in events:
        if kind == "cup":
            ups[k:k] = [arg, not arg]
        elif kind == "cap":
            del ups[k:k + 2]
        elif kind != "jw":
            a = 1 if kind == "pos" else -1
            writhe += a if ups[k] == ups[k + 1] else -a
            ups[k], ups[k + 1] = ups[k + 1], ups[k]
        out: dict = {}
        for ends, p in vec.items():
            for c, ops in terms(kind, k, arg):
                ends2, loops = act(ends, ops)
                for _ in range(loops):
                    c = pmul(c, DELTA)
                padd(out.setdefault(ends2, {}), pmul(p, c))
        vec = {e: p for e, p in out.items() if p}
    return vec, writhe


def divide(p: dict, m: int) -> dict:
    """p / [m] for a Laurent polynomial p in q that [m] divides."""
    p, out = dict(p), {}
    floor = min(p, default=0) + m - 1
    while p:
        e = max(p) - (m - 1)
        if e < floor:
            raise ArithmeticError(f"[{m}] does not divide the state sum")
        c = out[e] = p[max(p)]
        padd(p, {d: -c for d in range(e - m + 1, e + m, 2)})
    return out


def state_sum(d) -> dict:
    """The framed-normalized coloured value of a closed diagram with
    colours 1-3 as {q-degree: int}: (-A^3)^-writhe times the bracket, at
    A = q^(-1/2), divided by the [m] of every colour-m cup."""
    events = cabled_events(d)
    vec, writhe = sum_states(events)
    assert set(vec) <= {()}
    poly = vec.get((), {})
    sign = -1 if writhe % 2 else 1
    value = {}
    for e, c in poly.items():
        e -= 3 * writhe
        assert e % 2 == 0, "odd power of A"
        value[-e // 2] = sign * c
    for kind, _, m in events:
        if kind == "jw":
            value = divide(value, m)
    return value


def closed_mismatch(d) -> list[str]:
    """Where link_invariant(d) differs from the state sum."""
    want = state_sum(d)
    if not want:
        return ["the state sum is zero"]
    have = link_invariant(d).support()
    return [f"q^{e}: {have.get(e, 0)} != {want.get(e, 0)}"
            for e in sorted(set(want) | set(have))
            if have.get(e, 0) != want.get(e, 0)]


class TestStateSum:
    """The oracle on its own: closed forms it must meet, and the
    projectors it inserts."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unknots(self, m):
        # (-1)^m [m+1]
        got = state_sum(parse(f"bottom\ncup 1 {m} u\ncap 1\n"))
        assert got == {m - 2 * j: (-1) ** m for j in range(m + 1)}

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_hopf_links(self, a):
        # (-1)^(a+b) q^(+-3ab) [(a+1)(b+1)] for the positive and negative
        # Hopf links
        for b in (1, 2, 3):
            for word, sign in (([1, 1], 1), ([-1, -1], -1)):
                n = (a + 1) * (b + 1)
                want = {3 * a * b * sign + n - 1 - 2 * j: (-1) ** (a + b)
                        for j in range(n)}
                assert state_sum(parse(braid_closure(word, [a, b]))) == want

    @pytest.mark.parametrize("m", [2, 3])
    def test_projectors_are_killed_by_caps(self, m):
        # m nested cups, [m] f_m on their left half, a cap inside that half
        cups = [("cup", j, True) for j in range(m)] + [("jw", 0, m)]
        for k in range(m - 1):
            vec, _ = sum_states(cups + [("cap", k, None)])
            assert vec == {}, k
        vec, _ = sum_states(cups)
        assert len(vec) > 1


# braid closures with colours up to 3
BRAIDS = [braid_closure([1, 1, 1], [3, 3]), braid_closure([1, 1], [2, 3])]


class TestClosedLinks:
    """link_invariant against the state sum, every coefficient."""

    @pytest.mark.parametrize("text", BRAIDS)
    def test_braid_closures(self, text):
        d = parse(text)
        assert closed_mismatch(d) == []

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_links(self, seed):
        d = random_link(8, 1 + seed % 3, seed, max_width=6)
        assert closed_mismatch(d) == [], d.name

    def test_windowed_zero_is_not_exact(self):
        # once evaluated to the exact 0 at precision 16
        d = random_link(10, 3, 61)
        assert closed_mismatch(d) == []

    def test_nested_colour_four_cups(self):
        # once printed as the exact 0 at precisions 24 and 32, and with a
        # window at 16 and 48; the precision is ignored
        d = parse("bottom\ncup 1 4 u\ncup 2 4 u\n" + "pos 2\n" * 3 +
                  "cap 2\ncap 1\n")
        values = [link_invariant(d, p) for p in (16, 24, 32, 48)]
        assert not values[0].is_zero()
        assert all(v == values[0] for v in values)


class TestPrecision:
    """link_invariant ignores the precision it is given: a closed link's
    value is the same at any two."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([8, 16, 24]),
           st.sampled_from([32, 48]))
    def test_closed_links_are_exact(self, seed, p1, p2):
        d = random_link(10, 1 + seed % 3, seed, max_width=6)
        assert link_invariant(d, p1) == link_invariant(d, p2), d.name


def habiro(m: int) -> LaurentSeries:
    """The colour-m figure-eight, N = m + 1: (-1)^m [N] times
    sum_(k < N) prod_(j <= k) (q^(N+j) - q^(-N-j)) (q^(N-j) - q^(j-N))."""
    n = m + 1
    total = term = LaurentSeries.one()
    for j in range(1, n):
        term = term * LaurentSeries.from_dict({n + j: 1, -n - j: -1}) * \
            LaurentSeries.from_dict({n - j: 1, j - n: -1})
        total = total + term
    return (quantum_integer(n) * total).scale((-1) ** m)


class TestHabiro:
    """The coloured figure-eight against Habiro's cyclotomic expansion,
    whole polynomials."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_figure_eight(self, m):
        assert link_invariant(figure_eight(m)) == habiro(m)

    @pytest.mark.parametrize("m", range(1, 4))
    def test_flipped_crossing_differs(self, m):
        assert link_invariant(figure_eight(m, "neg")) != habiro(m)

    # the braid closure crosses only strands that point up; the plat
    # crosses strands of opposite orientation, so these reach the maps of
    # a down strand at high colour
    @pytest.mark.parametrize("m", [7, 8])
    def test_plat_figure_eight(self, m):
        assert link_invariant(plat_figure_eight(m)) == habiro(m)


def ballot(m: int, j: int) -> int:
    """The multiplicity of V_j in V_1^(x m)."""
    if (m - j) % 2:
        return 0
    i = (m - j) // 2
    return comb(m, i) - (comb(m, i - 1) if i else 0)


def cabling_sides(word: list[int], m: int,
                  framed: bool = True) -> tuple[LaurentSeries, LaurentSeries]:
    """The two sides of phi(cable(D_m)) = sum_j ballot(m, j)
    q^(-3(m^2-j^2)w/2) phi(D_j) for the 2-strand closure D_m of a braid
    word in colour m, w the sum of its letters and phi the raw value; the
    left side is colour 1 throughout.  ``framed=False`` drops the factor
    q^(-3(m^2-j^2)w/2)."""
    def phi(j: int) -> LaurentSeries:
        return phi_coloured(parse(braid_closure(word, [j, j]))).scalar()

    w = sum(word)
    right = LaurentSeries.zero()
    for j in range(m % 2, m + 1, 2):
        term = phi(j) if j else LaurentSeries.one()
        if framed:
            term = term.shift(-3 * (m * m - j * j) * w // 2)
        right = right + term.scale(ballot(m, j))
    return phi_coloured(cable(parse(braid_closure(word, [m, m])))).scalar(), \
        right


CABLED_WORDS = [[1, 1, 1], [1, 1, 1, 1, 1], [-1, 1, 1]]


class TestCablingIdentity:
    """Colours 2-4 against the colour-1 value of the cable, whole
    polynomials."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("word", CABLED_WORDS, ids=["+++", "+++++", "-++"])
    def test_two_strand_closures(self, word, m):
        left, right = cabling_sides(word, m)
        assert left == right

    @pytest.mark.parametrize("word", CABLED_WORDS, ids=["+++", "+++++", "-++"])
    def test_dropped_framing_factor_differs(self, word):
        left, right = cabling_sides(word, 2, framed=False)
        assert left != right


def torus(n: int, m: int) -> LaurentSeries:
    """The colour-m closure of the 2-strand braid sigma^n, the torus knot or
    link T(2, n):

        sum_(l=0..m) (-1)^(ln) q^(n(m(2m+1) - l(l+1))) [2l+1].

    V_m (x) V_m is the sum of V_(2l), l = 0..m, each once, so the pos
    crossing acts on V_(2l) by a scalar lambda_l, and the closure of n
    crossings is sum_l lambda_l^n [2l+1]: [2l+1] closes the projection
    onto V_(2l), and at n = 0 the sum is [m+1]^2, the unlink.  The pos map
    (invariant._coloured_local) is (-1)^(m^2) q^(-3m^2/2) times the
    standard braiding at q^-1, which acts on V_j in V_m (x) V_m by
    (-1)^(m-j/2) q^(c_m - c_j/2), c_j = j(j+2)/2 the Casimir value (M. Rosso
    and V. Jones, J. Knot Theory Ramifications 2, 1993).  So lambda_l =
    (-1)^l q^(m - m^2 - l(l+1)); on the highest weight vector v_m (x) v_m of
    V_(2m) this is (-1)^m q^(-2m^2), which the closed form gives with only
    its n = 0 term.  The framing factor q^(3 gamma), gamma = n m^2
    (tangle.writhe_gamma), makes each crossing q^(3m^2) lambda_l =
    (-1)^l q^(m(2m+1) - l(l+1)).  For odd n, (-1)^(ln) is
    (-1)^m (-1)^((m-l)n).
    """
    total = LaurentSeries.zero()
    for l in range(m + 1):
        total = total + quantum_integer(2 * l + 1).shift(
            n * (m * (2 * m + 1) - l * (l + 1))).scale((-1) ** (l * n))
    return total


TORUS_CASES = [(3, m) for m in range(1, 10)] + \
    [(n, m) for n in (5, -3) for m in range(1, 7)] + \
    [(-5, m) for m in range(1, 5)] + \
    [(n, m) for n in (2, -2, 4) for m in range(1, 4)]


class TestTorusKnots:
    """Colours 1-9 on the torus knots and links T(2, n), whole
    polynomials."""

    @pytest.mark.parametrize("n,m", TORUS_CASES)
    def test_two_strand_closures(self, n, m):
        word = [1 if n > 0 else -1] * abs(n)
        value = link_invariant(parse(braid_closure(word, [m, m])))
        assert value == torus(n, m)

    def test_a_cancelling_pair_is_the_one_crossing_formula(self):
        value = link_invariant(parse(braid_closure([1, 1, -1], [3, 3])))
        assert value != torus(3, 3) and value == torus(1, 3)


def composite(d) -> Intertwiner:
    """The cabled slice maps of d, each at full width, composed."""
    states = boundary_states(d)
    out = Intertwiner.identity(tuple(p.colour for p in d.bottom))
    for s, below, above in zip(d.slices, states, states[1:]):
        colours = tuple(p.colour for p in below)
        i = s.pos - 1
        if s.kind == "cup":
            mid = cabled_map("cup", (s.colour,),
                             tuple(not p.up for p in above[i:i + 2]))
            right = colours[i:]
        else:
            mid = cabled_map(s.kind, colours[i:i + 2],
                             tuple(not p.up for p in below[i:i + 2]))
            right = colours[i + 2:]
        out = Intertwiner.identity(colours[:i]).tensor(mid).tensor(
            Intertwiner.identity(right)) @ out
    return out


def seeded_open(seed: int):
    rng = random.Random(seed)
    colours = 1 + seed % 3
    bottom = [BoundaryPoint(rng.randint(1, colours), rng.random() < 0.5)
              for _ in range(rng.randint(0, 3))]
    return random_diagram(bottom, 5, colours, seed, max_width=6)


class TestOpenTangles:
    """phi_coloured against the full-width composite, exactly, next to
    coloured neighbours too."""

    @pytest.mark.parametrize("text", [
        "bottom +2\ncup 2 2 u\npos 1\ncap 2\n",
        "bottom\ncup 1 2 u\ncap 1\n",
        "bottom +1 -1\ncup 2 2 d\npos 1\nneg 1\ncap 2\n",
        "bottom +2 -3\npos 1\n",
    ] + BRAIDS)
    def test_diagrams(self, text):
        d = parse(text)
        assert phi_coloured(d) == composite(d)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_diagrams(self, seed):
        d = seeded_open(seed)
        assert phi_coloured(d) == composite(d), d.name

    def test_a_down_point_changes_the_map(self):
        # negative control: the bases differ at a colour-2 point that
        # points down, so the same slices under the other orientation give
        # another map, on either side
        up = parse("bottom +2 +2\npos 1\n")
        down = parse("bottom +2 -2\npos 1\n")
        assert phi_coloured(up) != phi_coloured(down)
        assert composite(up) != composite(down)


class TestBatchedColumns:
    """Edge cases of the one state that carries every column of an open
    tangle, against the full-width composite."""

    def test_mixed_colours_repack_mid_pass(self, monkeypatch):
        # columns on a colour-6 point and on colour-1 points end with 1 to 4
        # entries; twelve colour-6 circles, [7] each, outgrow 32-bit digits
        # while crossings still follow
        widths = []
        repack = invariant._repack

        def recorded(x, norm):
            y = repack(x, norm)
            widths.append((x.bits, y.bits))
            return y
        monkeypatch.setattr(invariant, "_repack", recorded)
        d = parse("bottom +1 +6 -1\npos 1\nneg 2\n" +
                  "cup 4 6 u\ncap 4\n" * 12 + "pos 1\npos 2\n")
        value = phi_coloured(d)
        assert value == composite(d)
        assert len(value.columns) == 28
        assert {len(img.coords) for _, img in value.columns} == {1, 2, 3, 4}
        assert any(after > before for before, after in widths)

    def test_vanishing_columns_stay_absent(self):
        # the cap kills every column but those of weight 0
        d = parse("bottom +2 -2\ncap 1\n")
        value = phi_coloured(d)
        assert value == composite(d)
        assert [idx for idx, _ in value.columns] == [(0, 2), (1, 1), (2, 0)]

    def test_no_slices_is_the_identity(self):
        d = parse("bottom +2 -1 +3\n")
        assert phi_coloured(d) == composite(d) == \
            Intertwiner.identity((2, 1, 3))

    def test_a_cup_on_the_empty_bottom_is_one_column(self):
        d = parse("bottom\ncup 1 3 u\n")
        value = phi_coloured(d)
        assert value == composite(d)
        assert [idx for idx, _ in value.columns] == [()]
        assert len(value.columns[0][1].coords) == 4


class TestExactEntries:
    """With == the only comparison, every entry must be in normal form: a
    stray zero coefficient, a zero entry or an empty column would show up
    as a false difference."""

    @pytest.mark.parametrize("seed", range(24))
    def test_entries_are_in_normal_form(self, seed):
        d = seeded_open(seed)
        value = phi_coloured(d)
        assert value.columns, d.name
        for _, img in value.columns:
            assert img.coords, d.name
            indices = [j for j, _ in img.coords]
            assert indices == sorted(indices), d.name
            for _, c in img.coords:
                assert not c.is_zero(), d.name
                assert c == LaurentSeries.make(c.min_deg, c.coeffs), d.name
