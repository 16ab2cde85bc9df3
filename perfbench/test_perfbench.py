"""Tests of the benchmark itself: every checker passes on the program's
output and fails on a value with one coefficient perturbed.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import braid_closure  # noqa: E402

QT = bench.import_program()
PREC = workloads.PRECISION
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def value(text: str) -> dict:
    d = QT.tangle.parse(text)
    return QT.invariant.link_invariant(d, PREC).to_json()


def perturb(series: dict, offset: int = 0) -> dict:
    """One coefficient, inside the validity window, changed by one."""
    out = copy.deepcopy(series)
    i = min(len(out["coeffs"]) // 2 + offset, len(out["coeffs"]) - 1)
    out["coeffs"][i] = str(Fraction(out["coeffs"][i]) + 1)
    return out


def random_links(colour: int, count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = QT.tangle.random_link(12, colour, rng.randrange(2 ** 32),
                                  max_width=6)
        text = QT.tangle.serialize(d)
        if workloads.crossings(text) >= 2:
            out.append(text)
    return out


CLOSED = [
    "bottom\ncup 1 1 u\ncap 1\n",
    "bottom\ncup 1 2 d\ncap 1\n",
    braid_closure([1, 1, 1], [1, 1]),
    braid_closure([1, -2, 1, -2], [1, 1, 1]),
    braid_closure([1, 1], [1, 1]),
    braid_closure([1, 1, 1], [2, 2]),
    braid_closure([-1, -1], [1, 2]),
] + random_links(1, 4, 5) + random_links(2, 3, 6)


class TestStateSum:
    @pytest.mark.parametrize("text", CLOSED)
    def test_matches_program(self, text):
        assert oracles.state_sum_mismatch(value(text), text) is None

    @pytest.mark.parametrize("text", CLOSED)
    def test_perturbed_value_fails(self, text):
        assert oracles.state_sum_mismatch(perturb(value(text)), text)

    def test_colour1_value_must_be_exact(self):
        text = braid_closure([1, 1, 1], [1, 1])
        v = value(text)
        v["valid_to"] = v["min_deg"] + len(v["coeffs"]) + 5
        assert "not exact" in oracles.state_sum_mismatch(v, text)

    def test_mirror_text_swaps_crossings(self):
        text = braid_closure([1, -1], [1, 1])
        assert oracles.mirror_text(text) == braid_closure([-1, 1], [1, 1])


class TestMirror:
    @pytest.mark.parametrize("text", [braid_closure([1, 1, 1], [2, 2]),
                                      braid_closure([1, 1, 1], [1, 1])])
    def test_pair(self, text):
        a, b = value(text), value(oracles.mirror_text(text))
        assert oracles.mirror_mismatch(a, b) is None
        assert oracles.mirror_mismatch(a, perturb(b, -2))
        assert oracles.mirror_mismatch(perturb(a, -2), b)

    def test_disjoint_windows_fail(self):
        a = {"min_deg": 0, "valid_to": 3, "coeffs": ["1"]}
        b = {"min_deg": -10, "valid_to": -5, "coeffs": ["1"]}
        assert "share no" in oracles.mirror_mismatch(a, b)


class TestShape:
    def test_integral_and_long_enough(self):
        v = value(braid_closure([1, 1, 1], [2, 2]))
        assert oracles.shape_mismatch(v, PREC) is None
        frac = copy.deepcopy(v)
        frac["coeffs"][1] = "1/2"
        assert "non-integer" in oracles.shape_mismatch(frac, PREC)
        short = copy.deepcopy(v)
        short["valid_to"] = v["min_deg"] + 10
        assert "shorter" in oracles.shape_mismatch(short, PREC)


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unknot(self, m):
        v = value(f"bottom\ncup 1 {m} u\ncap 1\n")
        want = oracles.unknot_value(m)
        assert oracles.closed_form_mismatch(v, want) is None
        assert oracles.closed_form_mismatch(perturb(v), want)

    @pytest.mark.parametrize("a,b,positive", [(1, 1, True), (1, 3, False),
                                              (2, 2, True)])
    def test_hopf(self, a, b, positive):
        s = 1 if positive else -1
        v = value(braid_closure([s, s], [a, b]))
        want = oracles.hopf_value(a, b, positive)
        assert oracles.closed_form_mismatch(v, want) is None
        assert oracles.closed_form_mismatch(perturb(v), want)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2)])
    def test_hopf_form_agrees_with_state_sum(self, a, b):
        # the closed form and the state sum share nothing but the convention
        for positive in (True, False):
            s = 1 if positive else -1
            got, k = oracles.state_sum(braid_closure([s, s], [a, b]))
            want = oracles.hopf_value(a, b, positive)
            for _ in range(k):
                want = oracles._pmul(want, oracles._TWO_Q)
            assert got == want


class TestSuites:
    def test_gaussian_binomial(self):
        assert oracles.gaussian_binomial(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        assert sum(oracles.gaussian_binomial(6, 3).values()) == 20

    def test_grassmann_check(self):
        argv = ["grassmann", "--k", "2", "--n", "4", "--check-complex"]
        res = workloads.run_cli(QT, argv)
        check = workloads._suite_check(argv)
        assert check(res) is None
        rc, js = copy.deepcopy(res)
        js["graded_dimensions"]["4"] += 1
        assert "Gaussian" in check((rc, js))
        rc, js = copy.deepcopy(res)
        js["ok"] = False
        assert check((rc, js))

    def test_quiver_check_needs_the_paper_dimensions(self):
        argv = ["quiver-check", "--which", "gl4"]
        res = workloads.run_cli(QT, argv)
        check = workloads._suite_check(argv)
        assert check(res) is None
        rc, js = copy.deepcopy(res)
        js["checks"] = [c for c in js["checks"] if "corner" not in c["name"]]
        assert "corner" in check((rc, js))

    def test_empty_suite_fails(self):
        # verify jones-wenzl --n 0 runs no check and still says ok
        argv = ["verify", "jones-wenzl", "--n", "0"]
        assert workloads._suite_check(argv)(workloads.run_cli(QT, argv))


class TestMoves:
    def _curls(self, flip):
        T = QT.tangle
        d = T.parse("bottom +1 -1\npos 1\n")
        move = T.MoveKind.UNCOLOURED_R1
        sites = [s for s in T.enumerate_move_sites(d, move) if s[0] == "insert"]
        return [workloads.check_move(QT, d, move, s, flip) for s in sites[:4]]

    def test_curl_moves_compare_equal(self):
        assert all(self._curls(False))

    def test_flipped_writhe_fails_on_curls(self):
        assert not any(self._curls(True))

    def test_kink_pair_flip_is_not_a_control(self):
        # the two curls of a kink pair carry gamma +m^2 and -m^2, so the
        # flipped writhe convention cancels and the move still compares equal
        draws = [x for x in workloads.draw_moves(QT, 7, 1, 8)
                 if x[1].value == "kink-pair"]
        d, move, loc = draws[0]
        assert workloads.check_move(QT, d, move, loc, flip_gamma_sign=True)


class TestHarness:
    def _args(self, trace=0):
        return types.SimpleNamespace(workload="t", seed=0, seconds=0,
                                     trace=trace)

    def test_failures_are_counted(self, capsys):
        def boom():
            raise RuntimeError("x")
        rnd = workloads.Round([
            workloads.Item("good", lambda: 1, lambda out: None),
            workloads.Item("raises", boom, lambda out: None),
            workloads.Item("wrong", lambda: 2, lambda out: "bad"),
        ])
        speed = bench.Speed()
        speed.sample()
        res = bench.measure(self._args(), QT, rnd, speed, 0.1, 0.1)
        assert (res["attempted"], res["failed"], res["correct"]) == (3, 2, False)
        assert {k: v["unit"] for k, v in res["metrics"].items()} == \
            {x["name"]: x["unit"] for x in SPEC["end_to_end"]}

    def test_traced_run_reports_every_layer(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(bench, "OUT", str(tmp_path))
        text = braid_closure([1, 1, 1], [2, 2])
        path = workloads._write(str(tmp_path), "t", text)
        rnd = workloads.Round([workloads.Item(
            "t", workloads._eval(QT, path),
            workloads._coloured_check(text, {}, True))])
        speed = bench.Speed()
        res = bench.measure(self._args(trace=1), QT, rnd, speed, 0.1, 0.1)
        m = res["metrics"]
        assert res["correct"]
        assert set(m) == {x["name"] for x in SPEC["per_layer"]}
        assert all(m[x["name"]]["unit"] == x["unit"] for x in SPEC["per_layer"])
        assert m["invariant.passes"]["value"] >= 1
        assert m["intertwiner.projection_misses"]["value"] > 0
        assert m["cli.self_s"]["value"] > 0
        assert hasattr(QT.intertwiner.projection, "cache_info")  # restored
        assert not hasattr(QT.cli.parse, "__wrapped__")

    def test_missing_target_is_reported(self):
        qt = types.SimpleNamespace(**vars(QT))
        qt.gl4 = None
        tr = tracing.Tracer(qt)
        assert "gl4.Span.add" in tr.missing

    def test_self_time(self):
        tr = tracing.Tracer(types.SimpleNamespace())
        tr.spans[:] = [(0, "cli.main", 0.0, 10.0, -1),
                       (0, "cli.parse", 1.0, 3.0, 0),
                       (0, "eval", 3.0, 9.0, 0),
                       (0, "inner", 4.0, 5.0, 2)]
        assert tr.self_time("cli.main") == pytest.approx(2.0)

    def test_tail_has_ten_samples_beyond(self):
        lat = [float(i) for i in range(100)]
        assert bench.tail(lat) == (89.0, 90.0)

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "verify_suites", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
        assert p.returncode != 0 and p.stdout.strip() == ""
