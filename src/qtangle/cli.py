"""Command line front end: evaluation, verification suites, homology reports.

Exit codes: 0 success, 1 verification failure, 2 tangle parse error,
3 validation error, 64 unknown flags or bad usage.  Output is deterministic
for identical argv and seed; ``--json`` switches every subcommand to a
machine-readable summary.  Every value is exact: eval, verify invariance,
verify jones-wenzl and verify slides accept --precision (default
DEFAULT_PRECISION, 64, or the QTANGLE_PRECISION environment variable) and
check its range, but only echo it, in eval's report and in the reproduce
lines.  eval of an open tangle reports its map in the integral basis at
both ends, and names that basis per boundary point: w_k = v_k / [m, k] on a
point of colour m >= 2 that points down, v_k on any other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .qseries import bigraded_expand_homofunknot
from .tangle import MoveKind, ParseError, ValidationError, parse, validate
from .intertwiner import (charJW_check, jones_wenzl, jones_wenzl_divided,
                          slide_identity_checks)
from .invariant import DiagramTooLarge, normalized_invariant, \
    verify_invariance
from .grasscoh import build_cohomology, wolffhardt_complex
from .quiverkat import (euler_characteristic_vs_p2, ext_self_L1, gl2_algebra,
                        gl3_algebra, gl4_algebra, gl4_corner,
                        gor_d_squared_zero, gor_homology,
                        l1_resolution_report, poincare_vs_paper,
                        projector_complexes, standard_modules_gl4)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_USAGE = 64

PRECISION_ENV = "QTANGLE_PRECISION"
# the --precision echoed when neither the flag nor PRECISION_ENV sets one
DEFAULT_PRECISION = 64
MIN_PRECISION = 8
# the range --precision must lie in, checked before any work; the value
# itself sets no work, as every value is exact
MAX_PRECISION = 1024
# the largest --n of verify jones-wenzl, whose maps are exact at any
# --precision: p_n has 4^n entries, and p o p pairs up to 8^n of them.  In
# a fresh process on a 2-core VM (Python 3.11), n = 1..7 take 0.3-0.4 s,
# n = 1..8 1.1-1.2 s and n = 1..9 4.7-4.8 s, most of it in charJW_check's
# compositions
MAX_JONES_WENZL_N = 8
# the largest --n of verify slides: in a fresh process on the same VM
# slides takes 0.8-1.0 s at n = 8 and 2.4-3.2 s at n = 9; each step up
# multiplies the work by about 3
MAX_SLIDES_N = 9

_MOVES = {m.value: m for m in MoveKind}


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting 64 on unknown flags and other usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_PRECISION


def _jsonable(x):
    """Recursively turn reports into JSON-serializable structures."""
    # the leaves of a report, tested by exact type first: most of a large
    # map's report is ints and strs, and a subclass takes the paths below
    t = type(x)
    if t is int or t is str or t is bool or x is None:
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(
            x.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return str(x)


def _key(k) -> str:
    if isinstance(k, (tuple, list)):
        return ",".join(str(v) for v in k)
    return str(k)


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True))
    else:
        for line in lines:
            print(line)


def _check_lines(checks: list[dict]) -> list[str]:
    out = []
    for c in checks:
        line = f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}"
        if not c["ok"] and c.get("repro"):
            line += f"  (reproduce: {c['repro']})"
        out.append(line)
    return out


def _invalid(command: str, message: str) -> int:
    """One line on stderr for input the command cannot run with."""
    print(f"{command}: {message}", file=sys.stderr)
    return EXIT_VALIDATE


def _table_lines(title: str, table: dict[tuple[int, int], Fraction]) -> list[str]:
    lines = [title]
    by_h: dict[int, dict[int, Fraction]] = {}
    for (h, q), c in table.items():
        by_h.setdefault(h, {})[q] = c
    for h in sorted(by_h, reverse=True):
        cells = "  ".join(f"q^{q}:{c}" for q, c in sorted(by_h[h].items()))
        lines.append(f"  h={h:>4}: {cells}")
    return lines


# -- subcommands ----------------------------------------------------------------

def _cmd_eval(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        print(f"eval: {e}", file=sys.stderr)
        return EXIT_VALIDATE
    try:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not UTF-8 ({e.reason} at byte "
                             f"{e.start})", raw.count(b"\n", 0, e.start) + 1)
        d = parse(text, name=os.path.basename(args.file))
        top = validate(d)
    except ParseError as e:
        print(f"eval: parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"eval: validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATE
    try:
        res = normalized_invariant(d)
    except DiagramTooLarge as e:
        return _invalid("eval", str(e))
    is_link = not d.bottom and not top
    report = {
        "command": "eval",
        "file": args.file,
        "precision": args.precision,
        "gamma": res.gamma,
        "bottom": [p.token() for p in d.bottom],
        "top": [p.token() for p in top],
    }
    lines = [f"diagram: {d.name}",
             f"bottom:  {' '.join(p.token() for p in d.bottom) or '(empty)'}",
             f"top:     {' '.join(p.token() for p in top) or '(empty)'}",
             f"gamma:   {res.gamma}"]
    if is_link:
        series = res.scalar()
        report["series"] = series.to_json()
        lines.append(f"value:   {series}")
    else:
        if args.json:  # the dense blocks; text mode prints only a count
            report["basis"] = {"bottom": _basis(d.bottom), "top": _basis(top)}
            report["value"] = res.value.to_json()
        lines.append(f"value:   intertwiner with {len(res.value.columns)} "
                     "nonzero columns (use --json for entries)")
    _emit(report, args.json, lines)
    return EXIT_OK


def _basis(points) -> list[str]:
    """The basis of each boundary point's module that an open tangle's map
    is written in: w on a point of colour >= 2 that points down, else v."""
    return ["w" if not p.up and p.colour > 1 else "v" for p in points]


def _cmd_verify_invariance(args) -> int:
    try:
        moves = tuple(_MOVES[m.strip()] for m in args.moves.split(","))
    except KeyError as e:
        return _invalid("verify invariance", f"unknown move {e}; choose from "
                        + ", ".join(sorted(_MOVES)))
    for flag, value in (("--trials", args.trials), ("--colours", args.colours)):
        if value < 1:
            return _invalid("verify invariance", f"{flag} must be >= 1")
    if args.flip_gamma and MoveKind.UNCOLOURED_R1 not in moves:
        # every other move keeps gamma, so the flipped sign would check nothing
        return _invalid("verify invariance", "--flip-gamma needs "
                        f"{MoveKind.UNCOLOURED_R1.value} in --moves, the only "
                        "move that changes gamma")
    repro = (f"qtangle verify invariance --moves {args.moves} "
             f"--colours {args.colours} --trials {args.trials} "
             f"--seed {args.seed} --precision {args.precision} "
             f"--n-slices {args.n_slices} --max-strands {args.max_strands}"
             + (" --flip-gamma" if args.flip_gamma else ""))
    reports = verify_invariance(
        colours=args.colours, trials=args.trials, moves=moves,
        seed=args.seed, n_slices=args.n_slices,
        max_strands=args.max_strands, flip_gamma_sign=args.flip_gamma)
    failures = [r for r in reports if not r.ok]
    checks = [{
        "name": (f"move invariance ({args.moves}; colours<={args.colours}, "
                 f"{args.trials} trials, seed {args.seed})"),
        "ok": not failures,
        "repro": repro,
    }]
    lines = _check_lines(checks)
    for r in failures:
        lines.append(f"  trial seed {r.seed} move {r.move}: {r.detail}")
    report = {
        "command": "verify-invariance",
        "checks": checks,
        "trials": [{"seed": r.seed, "move": r.move, "ok": r.ok,
                    "detail": r.detail} for r in reports],
        "ok": not failures,
    }
    _emit(report, args.json, lines)
    return EXIT_OK if not failures else EXIT_VERIFY


def _cmd_verify_jones_wenzl(args) -> int:
    # every map of the checks is an exact integer Laurent map: --precision
    # is accepted, and kept in the repro line, but it changes nothing
    if not 1 <= args.n <= MAX_JONES_WENZL_N:
        return _invalid("verify jones-wenzl",
                        f"--n must be between 1 and {MAX_JONES_WENZL_N}")
    checks = []
    for n in range(1, args.n + 1):
        repro = f"qtangle verify jones-wenzl --n {n} --precision {args.precision}"
        p = jones_wenzl(n)
        checks.append({"name": f"p_{n} = sum E^(k)F^(k)/[n k] 1_w",
                       "ok": p == jones_wenzl_divided(n), "repro": repro})
        checks.append({"name": f"p_{n} idempotent and kills turnbacks",
                       "ok": charJW_check(p), "repro": repro})
    ok = all(c["ok"] for c in checks)
    report = {"command": "verify-jones-wenzl", "checks": checks, "ok": ok}
    _emit(report, args.json, _check_lines(checks))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify_slides(args) -> int:
    # every term of the checks is exact: --precision is accepted, and kept
    # in the repro line, but it changes nothing
    if not 1 <= args.n <= MAX_SLIDES_N:
        return _invalid("verify slides",
                        f"--n must be between 1 and {MAX_SLIDES_N}")
    checks = []
    for n in range(1, args.n + 1):
        for k in range(1, n + 1):
            repro = f"qtangle verify slides --n {n} --precision {args.precision}"
            checks.append({
                "name": f"divided-power slides across C_{n}, k={k}",
                "ok": slide_identity_checks(n, k),
                "repro": repro})
    ok = all(c["ok"] for c in checks)
    report = {"command": "verify-slides", "checks": checks, "ok": ok}
    _emit(report, args.json, _check_lines(checks))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_grassmann(args) -> int:
    if not 0 < args.k < args.n:
        return _invalid("grassmann", "need 0 < k < n")
    if args.check_complex and args.hbound > 0:
        return _invalid("grassmann", "--hbound must be <= 0")
    H = build_cohomology(args.k, args.n)
    dims = H.graded_dimensions()
    report = {
        "command": "grassmann", "k": args.k, "n": args.n,
        "dimension": len(H.basis),
        "graded_dimensions": dims,
    }
    lines = [f"H*(Gr({args.k},{args.n})): dimension {len(H.basis)}",
             "graded: " + "  ".join(f"deg {d}:{m}"
                                    for d, m in sorted(dims.items()))]
    ok = True
    if args.check_complex:
        repro = (f"qtangle grassmann --k {args.k} --n {args.n} "
                 f"--check-complex --hbound {args.hbound}")
        res = wolffhardt_complex(args.k, args.n, args.hbound).check_resolution()
        checks = [
            {"name": "bimodule complex d^2 = 0",
             "ok": res["d_squared_zero"], "repro": repro},
            {"name": "homology in degree 0 equals H*(Gr)",
             "ok": res["homology_matches_H"], "repro": repro},
            {"name": f"homology vanishes for {args.hbound} < h < 0",
             "ok": res["vanishing_below_zero"], "repro": repro},
        ]
        report["checks"] = checks
        report["homology"] = res["homology"]
        lines += _check_lines(checks)
        ok = res["ok"]
    report["ok"] = ok
    _emit(report, args.json, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _quiver_gl2_checks() -> list[dict]:
    repro = "qtangle quiver-check --which gl2"
    A = gl2_algebra()
    cx = projector_complexes(8)[0]
    euler = euler_characteristic_vs_p2()
    return [
        {"name": "gl2 algebra dimension = 5", "ok": A.dimension() == 5,
         "repro": repro},
        {"name": "gl2 projector complex d^2 = 0",
         "ok": cx.verify_complex(), "repro": repro},
        {"name": "gl2 differentials homogeneous for the printed shifts",
         "ok": not cx.homogeneity_report(), "repro": repro},
        {"name": "gl2 Euler characteristic matches the rank-2 projector "
                 f"(q power {euler['q_power']})",
         "ok": euler["match"], "repro": repro},
    ]


def _quiver_gl3_checks() -> list[dict]:
    repro = "qtangle quiver-check --which gl3"
    A = gl3_algebra()
    out = [{"name": "gl3 algebra dimension = 14",
            "ok": A.dimension() == 14, "repro": repro}]
    for cx in projector_complexes(8)[1:]:
        out.append({"name": f"{cx.name} complex d^2 = 0",
                    "ok": cx.verify_complex(), "repro": repro})
        out.append({"name": f"{cx.name} differentials homogeneous",
                    "ok": not cx.homogeneity_report(), "repro": repro})
    return out


def _quiver_gl4_checks() -> list[dict]:
    repro = "qtangle quiver-check --which gl4"
    rep = standard_modules_gl4()
    return [
        {"name": "gl4 algebra dimension = 97",
         "ok": gl4_algebra().dimension() == 97, "repro": repro},
        {"name": "gl4 corner algebra dimension = 33",
         "ok": gl4_corner().dimension() == 33, "repro": repro},
        {"name": "standard module dims (Delta(1),Delta(5),Delta(6)) = (4,8,1)",
         "ok": rep["delta_dims"] == {1: 4, 5: 8, 6: 1}, "repro": repro},
        {"name": "printed standard-module bases span",
         "ok": all(rep["delta_bases_span"].values()), "repro": repro},
        {"name": "bar-Delta(5) has dimension 2",
         "ok": rep["bar_delta5_dim"] == 2, "repro": repro},
        {"name": "Delta(5) filtration matches shifts "
                 + str(rep["filtration_shifts"]),
         "ok": rep["filtration_ok"] if isinstance(rep["filtration_ok"], bool)
         else all(rep["filtration_ok"]), "repro": repro},
        {"name": "printed resolutions of Delta(5), Delta(6) verify",
         "ok": all(rep["delta_resolutions_ok"].values()), "repro": repro},
    ]


def _cmd_quiver_check(args) -> int:
    which = ("gl2", "gl3", "gl4") if args.which == "all" else (args.which,)
    checks = []
    if "gl2" in which:
        checks += _quiver_gl2_checks()
    if "gl3" in which:
        checks += _quiver_gl3_checks()
    if "gl4" in which:
        checks += _quiver_gl4_checks()
    ok = all(c["ok"] for c in checks)
    report = {"command": "quiver-check", "which": list(which),
              "checks": checks, "ok": ok}
    _emit(report, args.json, _check_lines(checks))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_unknot_homology(args) -> int:
    if args.hmax < 2:
        return _invalid("unknot-homology", "--hmax must be >= 2")
    repro = f"qtangle unknot-homology --hmax {args.hmax}"
    res = l1_resolution_report(args.hmax)
    checks = [
        {"name": "L(1) resolution d^2 = 0", "ok": res["d_squared_zero"],
         "repro": repro},
        {"name": "L(1) resolution minimal", "ok": res["minimal"],
         "repro": repro},
        {"name": f"L(1) resolution exact through h = -{args.hmax}",
         "ok": res["exact"], "repro": repro},
        {"name": "cokernel is the simple module L(1)",
         "ok": res["coker_is_simple"], "repro": repro},
    ]
    lines = _check_lines(checks)
    table = {}
    if res["ok"]:
        table = ext_self_L1(args.hmax, res)
        poincare_ok = poincare_vs_paper(args.hmax, table)
        checks.append({
            "name": "q^2 t^2-shifted Poincare series equals the knot "
                    "homology expansion", "ok": poincare_ok, "repro": repro})
        lines.append(_check_lines(checks[-1:])[0])
        lines.append("Ext^h(L(1), L(1)) internal shifts:")
        for h in sorted(table, reverse=True):
            shifts = " + ".join(f"C<{s}>" for s in table[h]) or "0"
            lines.append(f"  h={h:>4}: {shifts}")
    ok = all(c["ok"] for c in checks)
    report = {"command": "unknot-homology", "hmax": args.hmax,
              "checks": checks, "ext_table": table, "ok": ok}
    _emit(report, args.json, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_gor(args) -> int:
    if args.hbound < 0:
        return _invalid("gor", "--hbound must be >= 0; the window is "
                        "-hbound <= h <= 0")
    if args.qbound < 0:
        return _invalid("gor", "--qbound must be >= 0; the window is "
                        "0 <= q <= qbound")
    repro = f"qtangle gor --hbound {args.hbound} --qbound {args.qbound}"
    d2 = gor_d_squared_zero(h_bound=-args.hbound, q_bound=args.qbound)
    hom = gor_homology(h_bound=-args.hbound, q_bound=args.qbound)
    dims = hom.as_dict()
    checks = [
        {"name": "B_2 differential squares to zero", "ok": d2,
         "repro": repro},
        {"name": "constants survive: dim H(B_2) at (0,0) is 1",
         "ok": dims.get((0, 0)) == 1, "repro": repro},
    ]
    knot = bigraded_expand_homofunknot(-args.hbound).as_dict()
    lines = _check_lines(checks)
    lines += _table_lines("H(B_2) bigraded dimensions (h, q):", dims)
    lines += _table_lines("knot homology series of the colour-2 unknot "
                          "(h, q):", knot)
    lines.append("note: the regrading between the two tables is reported, "
                 "not asserted; per-h dimension counts line up but no single "
                 "affine substitution matches every bidegree")
    ok = all(c["ok"] for c in checks)
    report = {"command": "gor", "hbound": args.hbound, "qbound": args.qbound,
              "checks": checks, "homology": dims,
              "knot_homology_series": knot, "ok": ok}
    _emit(report, args.json, lines)
    return EXIT_OK if ok else EXIT_VERIFY


# -- argument wiring --------------------------------------------------------------

def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=_default_precision(),
                   help=f"accepted and echoed, but changes nothing: "
                        f"every value is exact (default "
                        f"{DEFAULT_PRECISION}, min {MIN_PRECISION}, max "
                        f"{MAX_PRECISION}; override default via "
                        f"{PRECISION_ENV})")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    _add_precision(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_eval)


def _invariance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--moves", default="r2",
                   help="comma-separated: " + ",".join(sorted(_MOVES)))
    p.add_argument("--colours", type=int, default=1)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-slices", type=int, default=6)
    p.add_argument("--max-strands", type=int, default=6)
    p.add_argument("--flip-gamma", action="store_true",
                   help="negative control: rejected writhe convention "
                        "(needs uncoloured-r1 in --moves)")
    _add_precision(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_verify_invariance)


def _jones_wenzl_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=4)
    _add_precision(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_verify_jones_wenzl)


def _slides_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3)
    _add_precision(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_verify_slides)


def _grassmann_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-complex", action="store_true")
    p.add_argument("--hbound", type=int, default=-3)
    _add_json(p)
    p.set_defaults(fn=_cmd_grassmann)


def _quiver_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--which", choices=("gl2", "gl3", "gl4", "all"),
                   default="all")
    _add_json(p)
    p.set_defaults(fn=_cmd_quiver_check)


def _unknot_homology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hmax", type=int, default=8)
    _add_json(p)
    p.set_defaults(fn=_cmd_unknot_homology)


def _gor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hbound", type=int, default=8)
    p.add_argument("--qbound", type=int, default=40)
    _add_json(p)
    p.set_defaults(fn=_cmd_gor)


# name -> (help, function adding the arguments, or a table of subcommands)
_COMMANDS = {
    "eval": ("evaluate a tangle diagram file", _eval_args),
    "verify": ("verification suites", {
        "invariance": ("random move-invariance trials", _invariance_args),
        "jones-wenzl": ("projector identities for n = 1..N",
                        _jones_wenzl_args),
        "slides": ("divided-power slide identities", _slides_args),
    }),
    "grassmann": ("Grassmannian cohomology report", _grassmann_args),
    "quiver-check": ("quiver algebra verifications", _quiver_check_args),
    "unknot-homology": ("Ext table of the colour-2 unknot",
                        _unknot_homology_args),
    "gor": ("homology of the small bigraded algebra", _gor_args),
}
_DESTS = ("command", "suite")


def _fill(p: argparse.ArgumentParser, body, depth: int) -> None:
    """Add a command's arguments, or its subcommands, to its parser."""
    if callable(body):
        body(p)
        return
    sub = p.add_subparsers(dest=_DESTS[depth], parser_class=_Parser)
    for name, (help_, inner) in body.items():
        _fill(sub.add_parser(name, help=help_), inner, depth + 1)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    top = _Parser(prog="qtangle",
                  description="Exact coloured tangle invariants for quantum "
                              "sl2 and their desk-scale verifications.")
    _fill(top, _COMMANDS, 0)
    return top


def _command_parser(argv: list[str]):
    """(parser, depth): the parser of the subcommand argv names, built
    alone with the prog the full parser gives it, and how many words of
    argv name it; the full parser and 0 when argv names no subcommand."""
    body, names = _COMMANDS, []
    while not callable(body) and len(names) < len(argv) \
            and argv[len(names)] in body:
        body = body[argv[len(names)]][1]
        names.append(argv[len(names)])
    if not names:
        return build_parser(), 0
    p = _Parser(prog=" ".join(["qtangle"] + names))
    _fill(p, body, len(names))
    return p, len(names)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, depth = _command_parser(argv)
    args, extra = parser.parse_known_args(argv[depth:])
    if extra:
        # the full parser reports leftover words from its top level
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "fn", None) is None:
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    precision = getattr(args, "precision", DEFAULT_PRECISION)
    if not MIN_PRECISION <= precision <= MAX_PRECISION:
        print(f"qtangle: precision must be between {MIN_PRECISION} and "
              f"{MAX_PRECISION}", file=sys.stderr)
        return EXIT_VALIDATE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
