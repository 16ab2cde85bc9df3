"""Small end-to-end demo: coloured unknots, a curl, and invariance trials.

Evaluates a few closed diagrams exactly, shows the framing calibration on
a positive curl, and runs a short seeded batch of random move-invariance
trials for each move kind.

Run:  python scripts/invariance_demo.py
"""

from qtangle.invariant import normalized_invariant, link_invariant, \
    verify_invariance
from qtangle.tangle import MoveKind, parse

PRECISION = 32

DIAGRAMS = {
    "colour-1 unknot": "bottom\ncup 1 1 u\ncap 1\n",
    "colour-2 unknot": "bottom\ncup 1 2 u\ncap 1\n",
    "colour-3 unknot": "bottom\ncup 1 3 u\ncap 1\n",
    "split union [1] + [2]": "bottom\ncup 1 1 u\ncup 3 2 u\ncap 3\ncap 1\n",
}


def main() -> None:
    print("closed diagram values (exact, normalized):")
    for name, text in DIAGRAMS.items():
        value = link_invariant(parse(text), PRECISION)
        print(f"  {name:24s} {value}")

    print("\nframing calibration on a positive curl:")
    curl = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
    res = normalized_invariant(curl, PRECISION)
    entry = dict(dict(res.value.columns)[(0,)].coords)[(0,)]
    print(f"  gamma = {res.gamma}, normalized map = ({entry}) * Id")

    print("\nrandom move-invariance trials (seed 1, precision 24):")
    for move in MoveKind:
        colours = 1 if move is MoveKind.UNCOLOURED_R1 else 2
        reports = verify_invariance(
            colours=colours, trials=5, moves=(move,), precision=24,
            seed=1, n_slices=4, max_strands=6)
        n_ok = sum(r.ok for r in reports)
        notes = "; ".join(r.detail for r in reports if not r.ok)
        print(f"  {move.value:26s} {n_ok}/{len(reports)} ok"
              + (f"  ({notes})" if notes else ""))


if __name__ == "__main__":
    main()
