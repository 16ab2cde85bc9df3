"""The four workloads: how their inputs are drawn and how each item is checked.

An item is one unit of user-visible work.  ``WORKLOADS[name](qt, seed,
workdir)`` returns a ``Round``: the items of one round, in order, plus the
checks that need two items (mirror pairs).  ``qt`` holds the freshly imported program
modules; everything the program computes goes through their public
functions or the CLI entry point ``qtangle.cli.main``, called in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

PRECISION = 48          # coloured, uncoloured and invariance evaluations
SUITE_PRECISION = 32    # the --precision of the CLI suites that read it
MOVE_SEED = 2026        # the criterion-2 seed; draws the fixed move panel
MAX_MOVE_WIDTH = 8      # cabled width cap for checked moves, see README


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # runs in a row; the item counts with its fastest run
    repeats: int = 2


@dataclass
class Round:
    items: list[Item]
    # (i, j, fn(out_i, out_j) -> error or None), run after each round
    pair_checks: list[tuple[int, int, Callable]] = field(default_factory=list)


# -- the CLI in-process ---------------------------------------------------------

def run_cli(qt, argv: list[str]) -> tuple[int, dict | None]:
    """``qtangle <argv> --json`` in-process: (exit code, parsed JSON or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qt.cli.main(argv + ["--json"])
        except SystemExit as e:      # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 1
    lines = out.getvalue().strip().splitlines()
    try:
        return rc, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return rc, None


# -- diagram words --------------------------------------------------------------

def braid_closure(word: list[int], colours: list[int]) -> str:
    """Closure of a braid on len(colours) upward strands.

    Strand i returns on the left through the i-th of nested downward cups;
    generator +g / -g is a pos / neg crossing of braid strands g, g+1.
    """
    n = len(colours)
    lines = ["bottom"]
    lines += [f"cup {i} {colours[i - 1]} d" for i in range(1, n + 1)]
    lines += [f"{'pos' if g > 0 else 'neg'} {n + abs(g)}" for g in word]
    lines += [f"cap {i}" for i in range(n, 0, -1)]
    return "\n".join(lines) + "\n"


def cabled_width(text: str) -> int:
    bottom, slices = oracles.parse_word(text)
    state = [c for c, _ in bottom]
    widest = sum(state)
    for kind, i, colour, _ in slices:
        if kind == "cup":
            state[i - 1:i - 1] = [colour, colour]
        elif kind == "cap":
            del state[i - 1:i + 1]
        else:
            state[i - 1], state[i] = state[i], state[i - 1]
        widest = max(widest, sum(state))
    return widest


def crossings(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.split()[:1] in (["pos"], ["neg"]))


def max_colour(text: str) -> int:
    bottom, slices = oracles.parse_word(text)
    return max([c for c, _ in bottom] +
               [c for k, _, c, _ in slices if k == "cup"] or [0])


# -- coloured_links -------------------------------------------------------------
# Fixed part: the colour-2 and colour-3 unknots; T(2,k) torus knots and links
# (Hopf k=2, trefoil 3, Solomon 4, cinquefoil 5) in colour 1 and
# T(2,2)..T(2,9) in colour 2; the figure-eight in colours 1 and 2; the
# (1,2), (1,3) and (2,3) Hopf links; the colour-3 trefoil.  Seeded part:
# random closed links with a colour-2 component at cabled width 6.  Every
# diagram with a crossing comes with its mirror.  The layout keeps the order
# statistics off the seeded items: the 20 items below the colour-2 Hopf link
# include the seeded ones (kept cheap by their crossing cap), so the median
# of the 42 items is the mean of the colour-2 Hopf link and its mirror, and
# the 11th slowest is one of the colour-2 T(2,7) pair.  The colour-3
# cinquefoil, Solomon link and (3,3) Hopf link are left out for cost (README).

RANDOM_COLOURED_PAIRS = 2
RANDOM_MAX_CROSSINGS = 4
HEAVY = ("trefoil-c3", "figure8-c2")   # 19 s of a round; these run once


def _fixed_coloured() -> list[tuple[str, str, dict]]:
    names = {2: "hopf", 3: "trefoil", 4: "solomon", 5: "cinquefoil"}
    out = []
    for k in range(2, 6):
        out.append((f"{names[k]}-c1", braid_closure([1] * k, [1, 1]),
                    {"hopf": (1, 1)} if k == 2 else {}))
    out.append(("figure8-c1", braid_closure([1, -2, 1, -2], [1] * 3), {}))
    out.append(("hopf-c12", braid_closure([1, 1], [1, 2]), {"hopf": (1, 2)}))
    out.append(("hopf-c13", braid_closure([1, 1], [1, 3]), {"hopf": (1, 3)}))
    for k in range(2, 10):
        out.append((f"torus-2-{k}-c2", braid_closure([1] * k, [2, 2]),
                    {"hopf": (2, 2)} if k == 2 else {}))
    out.append(("hopf-c23", braid_closure([1, 1], [2, 3]), {"hopf": (2, 3)}))
    out.append(("figure8-c2", braid_closure([1, -2, 1, -2], [2] * 3), {}))
    out.append(("trefoil-c3", braid_closure([1, 1, 1], [3, 3]), {}))
    return out


def _random_coloured(qt, seed: int, count: int) -> list[tuple[str, str, dict]]:
    """Seeded closed links from the program's generator: a colour-2
    component, cabled width 6, two to RANDOM_MAX_CROSSINGS crossings."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = rng.randrange(2 ** 32)
        text = qt.tangle.serialize(qt.tangle.random_link(12, 2, s, max_width=4))
        if cabled_width(text) == 6 and max_colour(text) == 2 and \
                2 <= crossings(text) <= RANDOM_MAX_CROSSINGS:
            out.append((f"random-link-{s}", text, {}))
    return out


def _coloured_check(text: str, form: dict, positive: bool):
    colour = max_colour(text)

    def check(res):
        rc, js = res
        if rc != 0 or js is None or "series" not in js:
            return f"eval exit {rc}"
        series = js["series"]
        err = oracles.shape_mismatch(series, PRECISION)
        if err:
            return err
        if colour <= 2:
            err = oracles.state_sum_mismatch(series, text)
            if err:
                return err
        if "hopf" in form:
            a, b = form["hopf"]
            err = oracles.closed_form_mismatch(
                series, oracles.hopf_value(a, b, positive))
        if "unknot" in form:
            err = oracles.closed_form_mismatch(
                series, oracles.unknot_value(form["unknot"]))
        return err
    return check


def coloured_links(qt, seed: int, workdir: str) -> Round:
    diagrams = _fixed_coloured() + _random_coloured(
        qt, seed, RANDOM_COLOURED_PAIRS)
    items, pairs = [], []
    for m in (2, 3):
        text = f"bottom\ncup 1 {m} u\ncap 1\n"
        path = _write(workdir, f"unknot-c{m}", text)
        items.append(Item(f"unknot-c{m}", _eval(qt, path),
                          _coloured_check(text, {"unknot": m}, True)))
    for name, text, form in diagrams:
        first = len(items)
        for label, t, positive in ((name, text, True),
                                   (name + "-mirror",
                                    oracles.mirror_text(text), False)):
            path = _write(workdir, label, t)
            items.append(Item(label, _eval(qt, path),
                              _coloured_check(t, form, positive),
                              1 if name in HEAVY else 2))
        pairs.append((first, first + 1, _mirror_pair))
    return Round(items, pairs)


def _write(workdir: str, label: str, text: str) -> str:
    path = os.path.join(workdir, label + ".tangle")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _eval(qt, path: str):
    argv = ["eval", path, "--precision", str(PRECISION)]
    return lambda: run_cli(qt, argv)


def _mirror_pair(a, b) -> str | None:
    return oracles.mirror_mismatch(a[1]["series"], b[1]["series"])


# -- uncoloured_links -----------------------------------------------------------
# Closures of random braids on 3..6 strands: three sweeps s1 s2 ... s(n-1)
# with a random sign on every crossing; plus random closed colour-1 links of
# cabled width 8 and 10.  The seed draws the signs and the links.  Fixing the
# crossing positions keeps a braid's cost nearly independent of its signs; a
# random generator order moved the tail latency by 14% between seeds.

BRAIDS_PER_STRANDS = 20
LINKS_PER_WIDTH = 24


def uncoloured_links(qt, seed: int, workdir: str) -> Round:
    rng = random.Random(seed)
    texts = []
    for n in (3, 4, 5, 6):
        for _ in range(BRAIDS_PER_STRANDS):
            word = list(range(1, n)) * 3
            texts.append((f"braid{n}", braid_closure(
                [g * rng.choice((1, -1)) for g in word], [1] * n)))
    for width in (8, 10):
        got = 0
        while got < LINKS_PER_WIDTH:
            s = rng.randrange(2 ** 32)
            d = qt.tangle.random_link(24, 1, s, max_width=width)
            text = qt.tangle.serialize(d)
            if cabled_width(text) == width:
                texts.append((f"link-w{width}", text))
                got += 1
    items = []
    for label, text in texts:
        d = qt.tangle.parse(text)
        items.append(Item(label, _link_invariant(qt, d),
                          _uncoloured_check(text)))
    return Round(items)


def _link_invariant(qt, d):
    return lambda: qt.invariant.link_invariant(d, PRECISION)


def _uncoloured_check(text: str):
    return lambda series: oracles.state_sum_mismatch(series.to_json(), text)


# -- invariance_moves -----------------------------------------------------------
# One item is one checked move: apply_move, normalized_invariant on both open
# tangles, Intertwiner.eq_upto.  Draws follow verify_invariance (colours <= 2,
# the criterion-2 coloured move set); draws with no move site are skipped.
# The moves are a fixed panel drawn at MOVE_SEED and --seed only sets their
# order: item costs here span three orders of magnitude, and a panel drawn
# from --seed moved item_p50_s by 36% between seeds (README), more than any
# bound the benchmark could keep.

PANEL_PER_MOVE = 12
MOVE_NAMES = ("kink-pair", "r2", "cupcap-slide", "zigzag",
              "crossing-past-nested-cups")


def draw_moves(qt, seed: int, per_move: int, max_width: int,
               colours: int = 2, n_slices: int = 4, max_strands: int = 6):
    """Draws of the harness's generator, `per_move` of each move kind.

    R3 is in the move set but its sites are too rare in diagrams this small
    to fill a quota (none in about 300 draws), so it gets none.
    """
    T = qt.tangle
    moves = tuple(T.MoveKind(m) for m in ("kink-pair", "r2", "r3",
                                          "cupcap-slide", "zigzag",
                                          "crossing-past-nested-cups"))
    want = {m: per_move for m in MOVE_NAMES}
    rng = random.Random(seed)
    out = []
    while any(want.values()):
        trng = random.Random(rng.randrange(2 ** 32))
        n_bottom = trng.randint(0, max(1, max_strands // colours))
        bottom = [T.BoundaryPoint(trng.randint(1, colours), trng.random() < 0.5)
                  for _ in range(n_bottom)]
        d = T.random_diagram(bottom, n_slices, colours,
                             trng.randrange(2 ** 32), max_width=max_strands)
        move = moves[trng.randrange(len(moves))]
        if not want.get(move.value):
            continue
        sites = T.enumerate_move_sites(d, move)
        if not sites:
            continue
        loc = sites[trng.randrange(len(sites))]
        d2 = T.apply_move(d, move, loc)
        if max(cabled_width(T.serialize(x)) for x in (d, d2)) > max_width:
            continue
        want[move.value] -= 1
        out.append((d, move, loc))
    return out


def check_move(qt, d, move, loc, flip_gamma_sign: bool = False) -> bool:
    d2 = qt.tangle.apply_move(d, move, loc)
    a = qt.invariant.normalized_invariant(d, PRECISION,
                                          flip_gamma_sign=flip_gamma_sign)
    b = qt.invariant.normalized_invariant(d2, PRECISION,
                                          flip_gamma_sign=flip_gamma_sign)
    return a.value.eq_upto(b.value)


def invariance_moves(qt, seed: int, workdir: str) -> Round:
    draws = draw_moves(qt, MOVE_SEED, PANEL_PER_MOVE, MAX_MOVE_WIDTH)
    random.Random(seed).shuffle(draws)
    items = [Item(move.value, _move_item(qt, d, move, loc), _move_check)
             for d, move, loc in draws]
    return Round(items)


def _move_item(qt, d, move, loc):
    return lambda: check_move(qt, d, move, loc)


def _move_check(equal: bool) -> str | None:
    return None if equal else "invariant changed under the move"


# -- verify_suites --------------------------------------------------------------
# A parameter sweep of the CLI suites; the seed sets the order.  Every item
# must exit 0 with "ok": true, and the Grassmannian and algebra reports are
# checked against numbers computed here or printed in the paper.

def _suite_argvs() -> list[list[str]]:
    out = []
    for n in range(1, 6):
        out.append(["verify", "jones-wenzl", "--n", str(n),
                    "--precision", str(SUITE_PRECISION)])
    out.append(["verify", "jones-wenzl", "--n", "4",
                "--precision", str(PRECISION)])
    for prec, lo, top in ((SUITE_PRECISION, 1, 5), (PRECISION, 3, 4)):
        p = ["--precision", str(prec)]
        for n in range(lo, top + 1):
            out.append(["verify", "slides", "--n", str(n)] + p)
    # slides at n = 4 costs about the same at any precision: five of them
    # put a cluster of equal items where the 11th slowest falls
    for prec in (24, 40, 56):
        out.append(["verify", "slides", "--n", "4", "--precision", str(prec)])
    for k, n in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5),
                 (2, 5), (1, 6)):
        for hb in (-3, -6):
            if (k, n, hb) != (2, 5, -6):
                out.append(["grassmann", "--k", str(k), "--n", str(n),
                            "--check-complex", "--hbound", str(hb)])
    for which in ("gl2", "gl3", "gl4", "all"):
        out.append(["quiver-check", "--which", which])
    for hmax in (2, 4, 6, 8):
        out.append(["unknot-homology", "--hmax", str(hmax)])
    for hb in (2, 4, 6, 8):
        for qb in (20, 30, 40):
            out.append(["gor", "--hbound", str(hb), "--qbound", str(qb)])
    return out


# the algebra dimensions printed in the paper; quiver-check must report each
# of them as a passing check under exactly this name
ALGEBRA_CHECKS = {
    "gl2": ["gl2 algebra dimension = 5"],
    "gl3": ["gl3 algebra dimension = 14"],
    "gl4": ["gl4 algebra dimension = 97", "gl4 corner algebra dimension = 33"],
}


def _suite_check(argv: list[str]):
    def check(res):
        rc, js = res
        if rc != 0 or js is None or js.get("ok") is not True:
            return f"exit {rc}, ok {None if js is None else js.get('ok')}"
        checks = {c["name"]: c["ok"] for c in js.get("checks", [])}
        if not checks:
            return "no checks ran"
        if argv[0] == "grassmann":
            k, n = int(argv[2]), int(argv[4])
            want = {str(2 * d): c
                    for d, c in oracles.gaussian_binomial(n, k).items()}
            if js["graded_dimensions"] != want:
                return (f"graded dimensions {js['graded_dimensions']} != "
                        f"Gaussian binomial {want}")
        if argv[0] == "quiver-check":
            which = ("gl2", "gl3", "gl4") if argv[2] == "all" else (argv[2],)
            for name in (n for w in which for n in ALGEBRA_CHECKS[w]):
                if checks.get(name) is not True:
                    return f"missing or failing check {name!r}"
        return None
    return check


def verify_suites(qt, seed: int, workdir: str) -> Round:
    argvs = _suite_argvs()
    random.Random(seed).shuffle(argvs)
    items = [Item(" ".join(a), _cli_item(qt, a), _suite_check(a))
             for a in argvs]
    return Round(items)


def _cli_item(qt, argv):
    return lambda: run_cli(qt, argv)


WORKLOADS = {
    "coloured_links": coloured_links,
    "uncoloured_links": uncoloured_links,
    "invariance_moves": invariance_moves,
    "verify_suites": verify_suites,
}
