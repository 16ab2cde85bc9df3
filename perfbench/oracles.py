"""Output checks that share no code with the program under test.

Every function here works from the diagram text alone (its own parser and
its own cabling) or from closed formulas, never from ``qtangle``:

* ``state_sum``: Kauffman's state model of the bracket (Topology 26, 1987)
  evaluated over the slice word.  States are summed slice by slice, grouped
  by how the open strand ends below the current level are paired up, and a
  loop is counted at the moment it closes.  Colour-2 strands are cabled and
  get one ``[2] Id + U`` (that is ``[2] f_2``) after each colour-2 cup, so
  the result is ``[2]^K`` times the coloured value, K the colour-2 cups.
* ``mirror_mismatch``: V(mirror D)(q) = V(D)(q^-1) on the overlap of the
  two validity windows.
* ``unknot_value`` / ``hopf_value``: closed forms (-1)^m [m+1] and
  (-1)^(a+b) q^(3ab) [(a+1)(b+1)] in the program's framing normalization.
* ``gaussian_binomial``: graded dimensions of H*(Gr(k, n)).

Series are compared as ``{degree: Fraction}`` dictionaries built from the
JSON form ``{"min_deg", "valid_to", "coeffs"}`` that ``qtangle eval --json``
prints.
"""

from __future__ import annotations

from fractions import Fraction


# -- diagram words ------------------------------------------------------------

def parse_word(text: str):
    """(bottom, slices) of a diagram in the line DSL.

    bottom is a list of (colour, up); a slice is (kind, pos, colour, up) with
    colour and up set for cups only.
    """
    bottom = None
    slices = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "bottom":
            bottom = [(int(t[1:]), t[0] == "+") for t in toks[1:]]
        elif toks[0] == "cup":
            slices.append(("cup", int(toks[1]), int(toks[2]), toks[3] == "u"))
        elif toks[0] in ("cap", "pos", "neg"):
            slices.append((toks[0], int(toks[1]), None, None))
        elif toks[0] != "expect-top":
            raise ValueError(f"unknown line {raw!r}")
    if bottom is None:
        raise ValueError("no bottom line")
    return bottom, slices


def mirror_text(text: str) -> str:
    """The mirror diagram: every pos crossing becomes neg and back."""
    swap = {"pos": "neg", "neg": "pos"}
    out = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] in swap:
            toks[0] = swap[toks[0]]
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def cabled(text: str):
    """Cable a diagram into colour-1 strands.

    Returns (events, crossings, gamma): events is the cabled word as
    ("cup", i) / ("cap", i) / ("pos", i) / ("neg", i) / ("jw2", i), 1-based,
    where ("jw2", i) marks [2] Id + U on strands i, i+1 after a colour-2 cup;
    crossings is the number of cabled crossings with their signs (pos, neg);
    gamma counts cabled crossings of equally oriented strands, +1 for pos
    and -1 for neg.  Colours above 2 are refused: the state sum has no
    projector for them.
    """
    bottom, slices = parse_word(text)
    if bottom:
        raise ValueError("the state sum handles closed diagrams only")
    state: list[tuple[int, bool]] = []   # coloured points (colour, up)
    strands: list[bool] = []             # cabled strand orientations
    events = []
    pos = neg = gamma = 0
    for kind, i, colour, up in slices:
        p = 1 + sum(c for c, _ in state[:i - 1])
        if kind == "cup":
            if colour > 2:
                raise ValueError("state sum oracle covers colours 1 and 2")
            for j in range(colour):
                events.append(("cup", p + j))
            strands[p - 1:p - 1] = [up] * colour + [not up] * colour
            if colour == 2:
                events.append(("jw2", p))
            state[i - 1:i - 1] = [(colour, up), (colour, not up)]
        elif kind == "cap":
            m = state[i - 1][0]
            for t in range(m):
                events.append(("cap", p + m - 1 - t))
            del strands[p - 1:p - 1 + 2 * m]
            del state[i - 1:i + 1]
        else:
            m, n = state[i - 1][0], state[i][0]
            for j in range(m):
                base = p + m - 1 - j
                for t in range(n):
                    k = base + t
                    if strands[k - 1] == strands[k]:
                        gamma += 1 if kind == "pos" else -1
                    strands[k - 1], strands[k] = strands[k], strands[k - 1]
                    events.append((kind, k))
                    if kind == "pos":
                        pos += 1
                    else:
                        neg += 1
            state[i - 1], state[i] = state[i], state[i - 1]
    if state:
        raise ValueError("diagram is not closed")
    return events, (pos, neg), gamma


# -- the state sum ------------------------------------------------------------
# Laurent polynomials in A are {exponent: int}.  A state of the sum below a
# level is the pairing of the strand ends at that level: partner[k] is the
# end that strand end k is joined to underneath.

def _padd(acc: dict, poly: dict, shift: int = 0) -> None:
    for e, c in poly.items():
        acc[e + shift] = acc.get(e + shift, 0) + c


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


_DELTA = {2: -1, -2: -1}          # -A^2 - A^-2, the value of one loop
_TWO = {2: 1, -2: 1}              # [2] = q + q^-1 at A = q^(-1/2)
_TWO_Q = {1: 1, -1: 1}            # the same [2] in powers of q


def _cup(partner: tuple, i: int) -> tuple:
    """New ends at 0-based slots i, i+1 joined to each other."""
    shifted = [k + 2 if k >= i else k for k in partner]
    return tuple(shifted[:i]) + (i + 1, i) + tuple(shifted[i:])


def _cap(partner: tuple, i: int) -> tuple[tuple, bool]:
    """Join ends i, i+1 on top; True when that closes a loop."""
    a, b = partner[i], partner[i + 1]
    closed = a == i + 1
    p = list(partner)
    if not closed:
        p[a], p[b] = b, a
    rest = p[:i] + p[i + 2:]
    return tuple(k - 2 if k > i + 1 else k for k in rest), closed


def _turnback(partner: tuple, i: int) -> tuple[tuple, bool]:
    p, closed = _cap(partner, i)
    return _cup(p, i), closed


def bracket(events) -> dict:
    """Sum over states of A^(#A - #B) delta^loops for a cabled closed word."""
    states: dict[tuple, dict] = {(): {0: 1}}
    for kind, i in events:
        k = i - 1
        new: dict[tuple, dict] = {}

        def put(p, poly, shift=0, loop=False, scale=None):
            if loop:
                poly = _pmul(poly, _DELTA)
            if scale is not None:
                poly = _pmul(poly, scale)
            _padd(new.setdefault(p, {}), poly, shift)

        for p, poly in states.items():
            if kind == "cup":
                put(_cup(p, k), poly)
            elif kind == "cap":
                q, loop = _cap(p, k)
                put(q, poly, loop=loop)
            elif kind == "jw2":
                put(p, poly, scale=_TWO)
                q, loop = _turnback(p, k)
                put(q, poly, loop=loop)
            else:
                # A-smoothing: identity for pos, turnback for neg
                a_id = 1 if kind == "pos" else -1
                put(p, poly, shift=a_id)
                q, loop = _turnback(p, k)
                put(q, poly, shift=-a_id, loop=loop)
        states = {p: {e: c for e, c in poly.items() if c}
                  for p, poly in new.items()}
    return states.get((), {})


def state_sum(text: str) -> tuple[dict[int, int], int]:
    """([2]^K times the normalized invariant as {q-degree: int}, K).

    Each cabled pos crossing is -A^3 (A Id + A^-1 U) and each neg crossing
    -A^-3 (A U + A^-1 Id); the framing factor is q^(3 gamma); A = q^(-1/2).
    """
    events, (pos, neg), gamma = cabled(text)
    k2 = sum(1 for kind, _ in events if kind == "jw2")
    sign = -1 if (pos + neg) % 2 else 1
    shift = 3 * pos - 3 * neg - 6 * gamma
    out = {}
    for e, c in bracket(events).items():
        e += shift
        if e % 2:
            raise ArithmeticError("odd power of A left over")
        out[-e // 2] = sign * c
    return {d: c for d, c in out.items() if c}, k2


# -- series from the CLI ------------------------------------------------------

def series_from_json(js: dict) -> tuple[dict[int, Fraction], int | None]:
    coeffs = {js["min_deg"] + i: Fraction(c) for i, c in enumerate(js["coeffs"])}
    return {d: c for d, c in coeffs.items() if c}, js["valid_to"]


def quantum_int(n: int) -> dict[int, int]:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    return {n - 1 - 2 * j: 1 for j in range(n)}


def window_mismatch(got: dict, valid_to, want: dict, lo_shift: int = 0):
    """First degree <= valid_to - lo_shift where got and want differ, else None."""
    top = None if valid_to is None else valid_to - lo_shift
    for d in sorted(set(got) | set(want)):
        if top is not None and d > top:
            break
        if got.get(d, 0) != want.get(d, 0):
            return d
    return None


def state_sum_mismatch(series: dict, text: str) -> str | None:
    """Compare one closed colour <= 2 value with the state sum.

    Colour-1 values must be exact (valid_to None); colour-2 values are
    multiplied by [2]^K and compared up to valid_to - K, a window that must
    reach past the lowest term of the state sum.
    """
    got, valid_to = series_from_json(series)
    want, k2 = state_sum(text)
    if k2 == 0 and valid_to is not None:
        return f"colour-1 value not exact (valid_to {valid_to})"
    for _ in range(k2):
        got = _pmul(got, _TWO_Q)
    if want and valid_to is not None and valid_to - k2 < min(want):
        return "empty comparison window"
    d = window_mismatch(got, valid_to, want, k2)
    if d is not None:
        return f"state sum differs at q^{d}: {got.get(d, 0)} vs {want.get(d, 0)}"
    return None


def mirror_mismatch(a: dict, b: dict) -> str | None:
    """V(mirror D)(q) = V(D)(q^-1) on the overlap of the two windows."""
    ga, va = series_from_json(a)
    gb, vb = series_from_json(b)
    lo = -va if va is not None else None      # bar(a) is exact from here up
    hi = vb                                    # b is exact up to here
    bar = {-d: c for d, c in ga.items()}
    degrees = [d for d in set(bar) | set(gb)
               if (lo is None or d >= lo) and (hi is None or d <= hi)]
    if not any(bar.get(d) or gb.get(d) for d in degrees):
        return "mirror windows share no nonzero coefficient"
    for d in sorted(degrees):
        if bar.get(d, 0) != gb.get(d, 0):
            return f"mirror pair differs at q^{d}"
    return None


def shape_mismatch(series: dict, precision: int) -> str | None:
    """Integer coefficients and a window of at least `precision` terms."""
    got, valid_to = series_from_json(series)
    if any(c.denominator != 1 for c in got.values()):
        return "non-integer coefficient"
    if not got:
        return "zero value"
    if valid_to is not None and valid_to - min(got) + 1 < precision:
        return f"window {valid_to - min(got) + 1} shorter than {precision}"
    return None


def unknot_value(m: int) -> dict[int, int]:
    """(-1)^m [m+1]: the colour-m unknot."""
    sign = -1 if m % 2 else 1
    return {d: sign * c for d, c in quantum_int(m + 1).items()}


def hopf_value(a: int, b: int, positive: bool) -> dict[int, int]:
    """(-1)^(a+b) q^(+-3ab) [(a+1)(b+1)]: the (a, b) Hopf link.

    The bracket of the zero-framed Hopf link is (-1)^(a+b) [(a+1)(b+1)];
    its 2ab cabled crossings are all of one sign, between equally oriented
    strands, so crossing factors and framing leave q^(3ab) (q^(-3ab) for
    the negative Hopf link).
    """
    sign = -1 if (a + b) % 2 else 1
    s = 3 * a * b if positive else -3 * a * b
    return {d + s: sign * c for d, c in quantum_int((a + 1) * (b + 1)).items()}


def closed_form_mismatch(series: dict, want: dict) -> str | None:
    got, valid_to = series_from_json(series)
    if valid_to is not None and valid_to < max(want):
        return "window ends before the top of the closed form"
    d = window_mismatch(got, valid_to, want)
    if d is not None:
        return f"closed form differs at q^{d}"
    return None


# -- Grassmannians --------------------------------------------------------------

def gaussian_binomial(n: int, k: int) -> dict[int, int]:
    """Coefficients of the Gaussian binomial [n choose k]_t as {degree: count}.

    It is the Poincare polynomial of Gr(k, n) in t = (cohomological degree)/2:
    [n, k] = [n-1, k-1] + t^k [n-1, k].
    """
    if k == 0 or k == n:
        return {0: 1}
    out = dict(gaussian_binomial(n - 1, k - 1))
    for d, c in gaussian_binomial(n - 1, k).items():
        out[d + k] = out.get(d + k, 0) + c
    return out
