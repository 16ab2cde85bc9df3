"""Coloured oriented framed tangle diagrams: DSL, validation, cabling, moves.

A diagram is a bottom boundary plus a bottom-to-top word of elementary
slices (cup / cap / pos / neg).  Positions are 1-based, counting boundary
points left to right.  Framing is the blackboard framing of the diagram.

DSL (UTF-8, line oriented, '#' comments):

    bottom +m -m ...          orientation (+ up / - down) and colour per point
    cup <i> <m> <u|d>         insert a colour-m cup at position i
    cap <i>                   cap points i, i+1
    pos <i> | neg <i>         crossing of points i, i+1
    expect-top +m ...         optional final check of the top boundary
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum

__all__ = [
    "BoundaryPoint", "Slice", "ColouredDiagram", "MoveKind",
    "ParseError", "ValidationError",
    "parse", "serialize", "validate", "cable", "writhe_gamma",
    "enumerate_move_sites", "apply_move", "random_diagram", "random_link",
]


class ParseError(Exception):
    """Raised on malformed DSL input; carries line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(Exception):
    """Raised when a slice is inconsistent with the running boundary."""

    def __init__(self, message, slice_index=None):
        where = "bottom" if slice_index is None else f"slice {slice_index + 1}"
        super().__init__(f"{where}: {message}")
        self.slice_index = slice_index


@dataclass(frozen=True)
class BoundaryPoint:
    colour: int
    up: bool

    def flipped(self) -> "BoundaryPoint":
        return BoundaryPoint(self.colour, not self.up)

    def token(self) -> str:
        return f"{'+' if self.up else '-'}{self.colour}"


@dataclass(frozen=True)
class Slice:
    kind: str                 # "cup" | "cap" | "pos" | "neg"
    pos: int
    colour: int | None = None  # cup only
    up: bool | None = None     # cup only: orientation of the left endpoint

    def token(self) -> str:
        if self.kind == "cup":
            return f"cup {self.pos} {self.colour} {'u' if self.up else 'd'}"
        return f"{self.kind} {self.pos}"


@dataclass(frozen=True)
class ColouredDiagram:
    name: str
    bottom: tuple[BoundaryPoint, ...]
    slices: tuple[Slice, ...]


# -- validation ---------------------------------------------------------------

def _step(state: list[BoundaryPoint], s: Slice, index: int) -> list[BoundaryPoint]:
    n = len(state)
    if s.kind == "cup":
        if not 1 <= s.pos <= n + 1:
            raise ValidationError(f"cup position {s.pos} out of range 1..{n + 1}", index)
        left = BoundaryPoint(s.colour, s.up)
        return state[:s.pos - 1] + [left, left.flipped()] + state[s.pos - 1:]
    if not 1 <= s.pos <= n - 1:
        raise ValidationError(f"{s.kind} position {s.pos} out of range 1..{n - 1}", index)
    a, b = state[s.pos - 1], state[s.pos]
    if s.kind == "cap":
        if a.colour != b.colour:
            raise ValidationError(
                f"cap on colours {a.colour} and {b.colour}", index)
        if a.up == b.up:
            raise ValidationError("cap on equally oriented points", index)
        return state[:s.pos - 1] + state[s.pos + 1:]
    # pos / neg swap the two points
    return state[:s.pos - 1] + [b, a] + state[s.pos + 1:]


def boundary_states(d: ColouredDiagram) -> list[list[BoundaryPoint]]:
    """States before each slice plus the final top boundary."""
    states = [list(d.bottom)]
    for i, s in enumerate(d.slices):
        states.append(_step(states[-1], s, i))
    return states


def validate(d: ColouredDiagram) -> tuple[BoundaryPoint, ...]:
    """Check the diagram and return its top boundary."""
    return tuple(boundary_states(d)[-1])


# -- DSL ----------------------------------------------------------------------

def _parse_point(tok: str, line_no: int, col: int) -> BoundaryPoint:
    if len(tok) < 2 or tok[0] not in "+-" or not tok[1:].isdigit():
        raise ParseError(f"bad boundary token {tok!r}", line_no, col)
    colour = int(tok[1:])
    if colour < 1:
        raise ParseError(f"colour must be positive in {tok!r}", line_no, col)
    return BoundaryPoint(colour, tok[0] == "+")


def parse(text: str, name: str = "diagram") -> ColouredDiagram:
    bottom = None
    slices: list[Slice] = []
    expect_top = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if bottom is None:
            if toks[0] != "bottom":
                raise ParseError("input must start with a 'bottom' line", line_no)
            bottom = tuple(_parse_point(t, line_no, i + 2) for i, t in enumerate(toks[1:]))
            continue
        if toks[0] == "expect-top":
            expect_top = tuple(_parse_point(t, line_no, i + 2) for i, t in enumerate(toks[1:]))
            continue
        kind = toks[0]
        if kind == "cup":
            if len(toks) != 4 or toks[3] not in ("u", "d"):
                raise ParseError("expected: cup <i> <m> <u|d>", line_no)
            if not toks[1].isdigit() or not toks[2].isdigit():
                raise ParseError("cup position and colour must be integers", line_no)
            if int(toks[2]) < 1:
                raise ParseError(f"colour must be positive in cup colour {toks[2]!r}",
                                 line_no, 3)
            slices.append(Slice("cup", int(toks[1]), int(toks[2]), toks[3] == "u"))
        elif kind in ("cap", "pos", "neg"):
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError(f"expected: {kind} <i>", line_no)
            slices.append(Slice(kind, int(toks[1])))
        else:
            raise ParseError(f"unknown slice {kind!r}", line_no)
    if bottom is None:
        raise ParseError("missing 'bottom' line", 1)
    d = ColouredDiagram(name, bottom, tuple(slices))
    top = validate(d)
    if expect_top is not None and top != expect_top:
        raise ValidationError(
            "top boundary is " + " ".join(p.token() for p in top) +
            " but expect-top says " + " ".join(p.token() for p in expect_top),
            len(slices) - 1 if slices else None)
    return d


def serialize(d: ColouredDiagram) -> str:
    lines = ["bottom" + "".join(" " + p.token() for p in d.bottom)]
    lines += [s.token() for s in d.slices]
    return "\n".join(lines) + "\n"


# -- cabling ------------------------------------------------------------------

def cable(d: ColouredDiagram) -> ColouredDiagram:
    """Replace every colour-m strand by m parallel colour-1 strands."""
    states = boundary_states(d)
    bottom = []
    for p in d.bottom:
        bottom += [BoundaryPoint(1, p.up)] * p.colour
    out: list[Slice] = []
    for s, state in zip(d.slices, states):
        # cabled position of coloured position i
        def cpos(i):
            return 1 + sum(p.colour for p in state[:i - 1])
        p = cpos(s.pos)
        if s.kind == "cup":
            m = s.colour
            for j in range(m):
                out.append(Slice("cup", p + j, 1, s.up))
        elif s.kind == "cap":
            m = state[s.pos - 1].colour
            for t in range(m):
                out.append(Slice("cap", p + m - 1 - t))
        else:
            m = state[s.pos - 1].colour
            n = state[s.pos].colour
            for j in range(m):
                base = p + m - 1 - j
                for t in range(n):
                    out.append(Slice(s.kind, base + t))
    return ColouredDiagram(d.name + ":cabled", tuple(bottom), tuple(out))


# -- writhe -------------------------------------------------------------------

def writhe_gamma(d: ColouredDiagram, flip_sign: bool = False) -> int:
    """Signed count of the cabled crossings whose two strands are equally
    oriented.

    A pos crossing of colours a and b on two equally oriented strands counts
    +ab, a neg crossing -ab: it cables into ab crossings, each between one
    strand of either side.  Crossings between oppositely oriented strands
    count 0.  The sign is the one fixed by the curl calibration: the right
    pos-curl has intertwiner q^{-3} Id, compensated by gamma = +1.
    ``flip_sign`` selects the rejected opposite convention (used as a
    negative control).
    """
    states = boundary_states(d)
    gamma = 0
    for s, state in zip(d.slices, states):
        if s.kind in ("pos", "neg"):
            a, b = state[s.pos - 1], state[s.pos]
            if a.up == b.up:
                ab = a.colour * b.colour
                gamma += ab if s.kind == "pos" else -ab
    return -gamma if flip_sign else gamma


# -- Reidemeister-style moves --------------------------------------------------

class MoveKind(Enum):
    KINK_PAIR = "kink-pair"
    R2 = "r2"
    R3 = "r3"
    CUPCAP_SLIDE = "cupcap-slide"
    ZIGZAG = "zigzag"
    CROSSING_PAST_NESTED_CUPS = "crossing-past-nested-cups"
    UNCOLOURED_R1 = "uncoloured-r1"


def _kink_block(i: int, m: int, up: bool, sign_first: str) -> list[Slice]:
    other = "neg" if sign_first == "pos" else "pos"
    return [
        Slice("cup", i + 1, m, up), Slice(sign_first, i), Slice("cap", i + 1),
        Slice("cup", i + 1, m, up), Slice(other, i), Slice("cap", i + 1),
    ]


def _curl_block(i: int, m: int, up: bool, sign: str) -> list[Slice]:
    return [Slice("cup", i + 1, m, up), Slice(sign, i), Slice("cap", i + 1)]


def _rotation_block(i: int, a: BoundaryPoint, b: BoundaryPoint, first: str) -> list[Slice]:
    """Full rotation of points i, i+1 through cups and caps; equal to the identity."""
    second = "neg" if first == "pos" else "pos"
    return [
        Slice("cup", i + 2, a.colour, not a.up),
        Slice("cup", i + 3, b.colour, not b.up),
        Slice(first, i + 2),
        Slice("cap", i + 1),
        Slice("cap", i),
        Slice("cup", i, a.colour, a.up),
        Slice("cup", i + 1, b.colour, b.up),
        Slice(second, i + 2),
        Slice("cap", i + 3),
        Slice("cap", i + 2),
    ]


def _match(slices, h, block) -> bool:
    return h + len(block) <= len(slices) and list(slices[h:h + len(block)]) == block


# cupcap-slide swap table: (first slice shape, second) -> replacement
def _cupcap_swaps(slices, h):
    """Sites where a crossing slides past an adjacent cap or cup."""
    if h + 1 >= len(slices):
        return []
    s0, s1 = slices[h], slices[h + 1]
    out = []
    i = s0.pos
    # crossing then cap
    if s0.kind in ("pos", "neg") and s1.kind == "cap":
        other = "neg" if s0.kind == "pos" else "pos"
        if s1.pos == i + 1:
            out.append([Slice(other, i + 1), Slice("cap", i)])
        if s1.pos == i - 1 and i >= 2:
            out.append([Slice(other, i - 1), Slice("cap", i)])
    # cup then crossing
    if s0.kind == "cup" and s1.kind in ("pos", "neg"):
        other = "neg" if s1.kind == "pos" else "pos"
        if s1.pos == i - 1 and i >= 2:
            out.append([Slice("cup", i - 1, s0.colour, s0.up), Slice(other, i)])
        if s1.pos == i + 1:
            out.append([Slice("cup", i + 1, s0.colour, s0.up), Slice(other, i)])
    return out


def enumerate_move_sites(d: ColouredDiagram, move: MoveKind) -> list[tuple]:
    """Sites are opaque location tuples accepted by apply_move."""
    states = boundary_states(d)
    slices = d.slices
    sites: list[tuple] = []

    if move is MoveKind.ZIGZAG:
        for h, state in enumerate(states):
            for i, p in enumerate(state, start=1):
                sites.append(("insert", h, ("A", i, p.colour, p.up)))
                sites.append(("insert", h, ("B", i, p.colour, p.up)))
        for h in range(len(slices) - 1):
            s0, s1 = slices[h], slices[h + 1]
            if s0.kind == "cup" and s1.kind == "cap" and \
                    s1.pos in (s0.pos + 1, s0.pos - 1) and s1.pos >= 1:
                sites.append(("remove", h, 2))

    elif move is MoveKind.R2:
        for h, state in enumerate(states):
            for i in range(1, len(state)):
                for order in ("pos", "neg"):
                    sites.append(("insert", h, (order, i)))
        for h in range(len(slices) - 1):
            s0, s1 = slices[h], slices[h + 1]
            if {s0.kind, s1.kind} == {"pos", "neg"} and s0.pos == s1.pos:
                sites.append(("remove", h, 2))

    elif move is MoveKind.R3:
        for h in range(len(slices) - 2):
            s0, s1, s2 = slices[h], slices[h + 1], slices[h + 2]
            if s0.kind == s1.kind == s2.kind and s0.kind in ("pos", "neg"):
                if s0.pos == s2.pos and s1.pos == s0.pos + 1:
                    sites.append(("braid", h, +1))
                if s0.pos == s2.pos and s1.pos == s0.pos - 1 and s1.pos >= 1:
                    sites.append(("braid", h, -1))

    elif move is MoveKind.CUPCAP_SLIDE:
        for h in range(len(slices) - 1):
            for repl in _cupcap_swaps(slices, h):
                sites.append(("swap2", h, tuple(repl)))

    elif move is MoveKind.KINK_PAIR:
        for h, state in enumerate(states):
            for i, p in enumerate(state, start=1):
                for first in ("pos", "neg"):
                    sites.append(("insert", h, (first, i, p.colour, p.up)))
        for h in range(len(slices) - 5):
            state = states[h]
            for i, p in enumerate(state, start=1):
                for first in ("pos", "neg"):
                    if _match(slices, h, _kink_block(i, p.colour, p.up, first)):
                        sites.append(("remove", h, 6))

    elif move is MoveKind.UNCOLOURED_R1:
        for h, state in enumerate(states):
            for i, p in enumerate(state, start=1):
                if p.colour != 1:
                    continue
                for sign in ("pos", "neg"):
                    sites.append(("insert", h, (sign, i, p.up)))
        for h in range(len(slices) - 2):
            state = states[h]
            for i, p in enumerate(state, start=1):
                if p.colour != 1:
                    continue
                for sign in ("pos", "neg"):
                    if _match(slices, h, _curl_block(i, 1, p.up, sign)):
                        sites.append(("remove", h, 3))

    elif move is MoveKind.CROSSING_PAST_NESTED_CUPS:
        for h, state in enumerate(states):
            for i in range(1, len(state)):
                for first in ("pos", "neg"):
                    sites.append(("insert", h, (first, i)))
        for h in range(len(slices) - 9):
            state = states[h]
            for i in range(1, len(state)):
                a, b = state[i - 1], state[i]
                for first in ("pos", "neg"):
                    if _match(slices, h, _rotation_block(i, a, b, first)):
                        sites.append(("remove", h, 10))
    else:
        raise ValueError(f"unknown move {move}")
    return sites


def apply_move(d: ColouredDiagram, move: MoveKind, location: tuple) -> ColouredDiagram:
    if location not in enumerate_move_sites(d, move):
        raise ValueError(f"invalid location {location} for {move}")
    kind, h, payload = location
    slices = list(d.slices)
    states = boundary_states(d)

    if kind == "remove":
        new = slices[:h] + slices[h + payload:]
    elif kind == "braid":
        s0, s1 = slices[h], slices[h + 1]
        new = slices[:h] + [s1, s0, s1] + slices[h + 3:]
    elif kind == "swap2":
        new = slices[:h] + list(payload) + slices[h + 2:]
    elif kind == "insert":
        if move is MoveKind.ZIGZAG:
            variant, i, m, up = payload
            if variant == "A":
                block = [Slice("cup", i, m, up), Slice("cap", i + 1)]
            else:
                block = [Slice("cup", i + 1, m, not up), Slice("cap", i)]
        elif move is MoveKind.R2:
            order, i = payload
            other = "neg" if order == "pos" else "pos"
            block = [Slice(order, i), Slice(other, i)]
        elif move is MoveKind.KINK_PAIR:
            first, i, m, up = payload
            block = _kink_block(i, m, up, first)
        elif move is MoveKind.UNCOLOURED_R1:
            sign, i, up = payload
            block = _curl_block(i, 1, up, sign)
        elif move is MoveKind.CROSSING_PAST_NESTED_CUPS:
            first, i = payload
            state = states[h]
            block = _rotation_block(i, state[i - 1], state[i], first)
        else:
            raise ValueError(f"no insertion for {move}")
        new = slices[:h] + block + slices[h:]
    else:
        raise ValueError(f"bad location kind {kind}")
    out = ColouredDiagram(d.name, d.bottom, tuple(new))
    validate(out)
    return out


# -- random generation ----------------------------------------------------------

def random_diagram(bottom, n_slices: int, max_colour: int, seed: int,
                   max_width: int = 6) -> ColouredDiagram:
    """A valid random diagram, reproducible from the seed."""
    rng = random.Random(seed)
    bottom = tuple(bottom)
    state = list(bottom)
    slices: list[Slice] = []
    for _ in range(n_slices):
        options: list[Slice] = []
        n = len(state)
        width = sum(p.colour for p in state)
        if width + 2 * max_colour <= max_width + 2:
            for i in range(1, n + 2):
                m = rng.randint(1, max_colour)
                options.append(Slice("cup", i, m, rng.random() < 0.5))
        for i in range(1, n):
            a, b = state[i - 1], state[i]
            if a.colour == b.colour and a.up != b.up:
                options.append(Slice("cap", i))
            options.append(Slice("pos", i))
            options.append(Slice("neg", i))
        if not options:
            # forced cup on a stuck state; keep it inside the width budget
            m = min(rng.randint(1, max_colour),
                    max((max_width + 2 - width) // 2, 1))
            options.append(Slice("cup", 1, m, rng.random() < 0.5))
        s = rng.choice(options)
        slices.append(s)
        state = _step(state, s, len(slices) - 1)
    return ColouredDiagram(f"random-{seed}", bottom, tuple(slices))


def random_link(n_slices: int, max_colour: int, seed: int,
                max_width: int = 6) -> ColouredDiagram:
    """A valid random diagram with empty bottom and top (a coloured link)."""
    rng = random.Random(seed)
    d = random_diagram((), n_slices, max_colour, rng.randrange(2 ** 32),
                       max_width=max_width)
    slices = list(d.slices)
    state = list(validate(d))
    # close up: cap adjacent partners, bubbling a partner leftwards if needed
    while state:
        done = False
        for i in range(1, len(state)):
            a, b = state[i - 1], state[i]
            if a.colour == b.colour and a.up != b.up:
                s = Slice("cap", i)
                slices.append(s)
                state = _step(state, s, len(slices) - 1)
                done = True
                break
        if done:
            continue
        # bring the partner of point 1 next to it
        target = state[0]
        j = next(j for j in range(1, len(state))
                 if state[j].colour == target.colour and state[j].up != target.up)
        s = Slice(rng.choice(["pos", "neg"]), j)
        slices.append(s)
        state = _step(state, s, len(slices) - 1)
    return ColouredDiagram(f"link-{seed}", (), tuple(slices))
