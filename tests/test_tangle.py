"""Diagram DSL parsing, validation, cabling, writhe, and move plumbing."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle.tangle import (BoundaryPoint, MoveKind, ParseError, Slice,
                            ValidationError, apply_move, boundary_states,
                            cable, enumerate_move_sites, parse,
                            random_diagram, random_link, serialize, validate,
                            writhe_gamma)

UNKNOT = "bottom\ncup 1 1 u\ncap 1\n"


class TestParse:
    def test_unknot(self):
        d = parse(UNKNOT)
        assert d.bottom == ()
        assert d.slices == (Slice("cup", 1, 1, True), Slice("cap", 1))
        assert validate(d) == ()

    def test_comments_and_blank_lines(self):
        d = parse("# a circle\n\nbottom  # empty\ncup 1 2 d\ncap 1\n")
        assert d.slices[0].colour == 2 and d.slices[0].up is False

    def test_expect_top_pass_and_fail(self):
        parse("bottom +1\nexpect-top +1\n")
        with pytest.raises(ValidationError):
            parse("bottom +1\nexpect-top -1\n")

    @pytest.mark.parametrize("text", [
        "cup 1 1 u\n",                      # missing bottom line
        "bottom *1\n",                      # bad token
        "bottom +0\n",                      # colour zero
        "bottom\ncup 1 0 u\n",              # cup colour zero
        "bottom\ncup 1 1 x\n",              # bad orientation flag
        "bottom\ncup 1 1\n",                # wrong arity
        "bottom\nfrob 1\n",                 # unknown slice
        "bottom\ncap x\n",                  # non-integer position
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", [
        "bottom\ncap 1\n",                  # cap with no strands
        "bottom +1 +1\ncap 1\n",            # cap on equal orientations
        "bottom +1 -2\ncap 1\n",            # cap on different colours
        "bottom +1\npos 1\n",               # crossing needs two points
        "bottom\ncup 5 1 u\n",              # cup position out of range
    ])
    def test_validation_errors(self, text):
        with pytest.raises(ValidationError):
            parse(text)

    def test_round_trip(self):
        text = "bottom +2 -2\npos 1\ncup 2 3 u\ncap 2\nneg 1\n"
        d = parse(text)
        assert parse(serialize(d)).slices == d.slices
        assert parse(serialize(d)).bottom == d.bottom


class TestValidation:
    def test_boundary_states_lengths(self):
        d = parse("bottom +1 -1\ncup 2 2 u\ncap 2\n")
        states = boundary_states(d)
        assert [len(s) for s in states] == [2, 4, 2]

    def test_crossing_swaps_points(self):
        d = parse("bottom +2 -3\npos 1\n")
        top = validate(d)
        assert top == (BoundaryPoint(3, False), BoundaryPoint(2, True))


class TestCable:
    def test_colours_become_parallel_strands(self):
        d = parse("bottom +3 -3\ncap 1\n")
        c = cable(d)
        assert len(c.bottom) == 6
        assert all(p.colour == 1 for p in c.bottom)
        assert [s.kind for s in c.slices] == ["cap"] * 3
        assert validate(c) == ()

    def test_cabled_crossing_count(self):
        d = parse("bottom +2 +3\npos 1\n")
        c = cable(d)
        assert sum(1 for s in c.slices if s.kind == "pos") == 6
        assert validate(c) == tuple(BoundaryPoint(1, True) for _ in range(5))

    def test_cabling_uncoloured_is_identity_on_shape(self):
        d = parse("bottom +1 -1\npos 1\nneg 1\n")
        c = cable(d)
        assert [s.kind for s in c.slices] == ["pos", "neg"]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_cabled_random_diagram_validates(self, seed):
        d = random_diagram((), 5, 3, seed, max_width=6)
        validate(cable(d))


class TestWrithe:
    def test_curls(self):
        pos_curl = cable(parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n"))
        assert writhe_gamma(pos_curl) == 1
        assert writhe_gamma(pos_curl, flip_sign=True) == -1
        neg_curl = cable(parse("bottom +1\ncup 2 1 u\nneg 1\ncap 2\n"))
        assert writhe_gamma(neg_curl) == -1

    def test_opposite_orientations_do_not_count(self):
        d = cable(parse("bottom +1 -1\npos 1\npos 1\n"))
        assert writhe_gamma(d) == 0

    def test_coloured_diagram_counts_like_its_cabling(self):
        counted = 0
        for seed in range(24):
            rng = random.Random(seed)
            bottom = [BoundaryPoint(rng.randint(1, 3), rng.random() < 0.5)
                      for _ in range(rng.randint(0, 3))]
            d = random_diagram(bottom, 6, 3, seed, max_width=5)
            for flip in (False, True):
                gamma = writhe_gamma(d, flip_sign=flip)
                assert gamma == writhe_gamma(cable(d), flip_sign=flip), seed
                counted += gamma != 0
        assert counted > 10


class TestMoves:
    @pytest.mark.parametrize("move", list(MoveKind))
    def test_sites_apply_and_validate(self, move):
        d = parse("bottom +1 -1 +1\npos 1\nneg 1\npos 2\n")
        for site in enumerate_move_sites(d, move)[:8]:
            d2 = apply_move(d, move, site)
            assert validate(d2) == validate(d)

    def test_r2_insert_remove_round_trip(self):
        d = parse("bottom +1 -1\n")
        site = ("insert", 0, ("pos", 1))
        d2 = apply_move(d, MoveKind.R2, site)
        assert [s.kind for s in d2.slices] == ["pos", "neg"]
        removes = [s for s in enumerate_move_sites(d2, MoveKind.R2)
                   if s[0] == "remove"]
        assert len(removes) == 1
        d3 = apply_move(d2, MoveKind.R2, removes[0])
        assert d3.slices == d.slices

    def test_kink_pair_round_trip(self):
        d = parse("bottom +2\n")
        site = ("insert", 0, ("pos", 1, 2, True))
        d2 = apply_move(d, MoveKind.KINK_PAIR, site)
        assert len(d2.slices) == 6
        removes = [s for s in enumerate_move_sites(d2, MoveKind.KINK_PAIR)
                   if s[0] == "remove"]
        assert removes
        assert apply_move(d2, MoveKind.KINK_PAIR, removes[0]).slices == d.slices

    def test_invalid_location_rejected(self):
        d = parse("bottom +1 -1\n")
        with pytest.raises(ValueError):
            apply_move(d, MoveKind.R2, ("remove", 0, 2))

    def test_r3_needs_three_parallel_crossings(self):
        d = parse("bottom +1 -1 +1\npos 1\npos 2\npos 1\n")
        sites = enumerate_move_sites(d, MoveKind.R3)
        assert ("braid", 0, 1) in sites
        d2 = apply_move(d, MoveKind.R3, ("braid", 0, 1))
        assert [s.pos for s in d2.slices] == [2, 1, 2]


class TestRandomGeneration:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_random_link_is_closed(self, seed):
        d = random_link(4, 3, seed, max_width=6)
        assert d.bottom == ()
        assert validate(d) == ()

    def test_determinism(self):
        a = random_diagram((BoundaryPoint(1, True),), 6, 2, 12345)
        b = random_diagram((BoundaryPoint(1, True),), 6, 2, 12345)
        assert a == b

    def test_seeds_keep_their_diagrams(self):
        # a pin of 100 serializations: the generator must draw from its RNG
        # in the same order, or every seeded corpus and replay changes
        h = hashlib.sha256()
        for s in range(100):
            h.update(serialize(random_link(
                24, 1 + s % 3, s, max_width=(8, 6, 10)[s % 3])).encode())
        assert h.hexdigest() == ("9d579f019fd189887223fce6843e4ee3"
                                 "a8b4b6c632ccbd08e8c42f47b609b81d")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_width_bound_respected(self, seed):
        d = random_diagram((), 6, 2, seed, max_width=6)
        for state in boundary_states(d):
            assert sum(p.colour for p in state) <= 6 + 2
