"""Command line interface: exit codes, JSON output, determinism."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangle import cli, intertwiner
from qtangle.cli import (EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATE,
                         EXIT_VERIFY, MAX_JONES_WENZL_N, MAX_PRECISION,
                         MAX_SLIDES_N, MIN_PRECISION, PRECISION_ENV,
                         build_parser, main)
from qtangle.intertwiner import Intertwiner
from qtangle.quiverkat import gl4

UNKNOT = "bottom\ncup 1 1 u\ncap 1\n"


@pytest.fixture()
def unknot_file(tmp_path):
    f = tmp_path / "unknot.tangle"
    f.write_text(UNKNOT)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_unknot_text(self, capsys, unknot_file):
        code, out, _ = run(capsys, ["eval", unknot_file, "--precision", "16"])
        assert code == EXIT_OK
        assert "value:" in out and "-q" in out

    def test_unknot_json(self, capsys, unknot_file):
        code, out, _ = run(capsys, ["eval", unknot_file, "--json",
                                    "--precision", "16"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["command"] == "eval"
        assert report["series"]["coeffs"] == ["-1", "0", "-1"]
        assert report["series"]["min_deg"] == -1

    def test_open_tangle_reports_intertwiner(self, capsys, tmp_path):
        f = tmp_path / "strand.tangle"
        f.write_text("bottom +1\npos 1\nneg 1\n" .replace("pos 1\nneg 1\n", ""))
        code, out, _ = run(capsys, ["eval", str(f), "--json",
                                    "--precision", "16"])
        assert code == EXIT_OK
        assert "value" in json.loads(out)

    def test_open_tangle_names_its_basis(self, capsys, tmp_path,
                                         unknot_file):
        # w on a point of colour >= 2 that points down, v on any other; a
        # closed link has no boundary and reports no basis
        f = tmp_path / "open.tangle"
        f.write_text("bottom +2 -2 -1\npos 1\n")
        code, out, _ = run(capsys, ["eval", str(f), "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["basis"] == {"bottom": ["v", "w", "v"],
                                            "top": ["w", "v", "v"]}
        code, out, _ = run(capsys, ["eval", unknot_file, "--json"])
        assert code == EXIT_OK and "basis" not in json.loads(out)

    def test_open_tangle_precision_changes_nothing(self, capsys, tmp_path):
        # every entry is exact: the report is the same at the smallest and
        # the largest precision once the echoed value is masked
        f = tmp_path / "open.tangle"
        f.write_text("bottom -2 +3\npos 1\ncup 2 2 d\nneg 1\n")
        reports = []
        for precision in (MIN_PRECISION, MAX_PRECISION):
            code, out, _ = run(capsys, ["eval", str(f), "--json",
                                        "--precision", str(precision)])
            assert code == EXIT_OK
            reports.append(out.replace(f'"precision": {precision},',
                                       '"precision": P,'))
        assert reports[0] == reports[1]
        assert '"precision": P,' in reports[0]
        assert json.loads(out)["value"]["blocks"]

    def test_text_mode_builds_no_json_blocks(self, capsys, tmp_path,
                                             monkeypatch):
        def refuse(self):
            raise AssertionError("to_json called without --json")

        monkeypatch.setattr(Intertwiner, "to_json", refuse)
        f = tmp_path / "strands.tangle"
        f.write_text("bottom +1 +2\npos 1\n")
        code, out, _ = run(capsys, ["eval", str(f), "--precision", "16"])
        assert code == EXIT_OK
        assert "intertwiner with 6 nonzero columns" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.tangle"
        f.write_text("cup 1 1 u\n")
        code, _, err = run(capsys, ["eval", str(f)])
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_validation_error_exit_3(self, capsys, tmp_path):
        f = tmp_path / "bad.tangle"
        f.write_text("bottom +1 +1\ncap 1\n")
        code, _, err = run(capsys, ["eval", str(f)])
        assert code == EXIT_VALIDATE
        assert "validation error" in err

    def test_oversized_state_exit_3_at_once(self, capsys, tmp_path):
        # 31^6 basis vectors on the three colour-30 cups; the guard answers
        # before the first cup's map is built
        f = tmp_path / "big.tangle"
        f.write_text("bottom\n" + "cup 1 30 u\n" * 3 + "cap 1\n" * 3)
        t0 = time.monotonic()
        code, out, err = run(capsys, ["eval", str(f)])
        assert time.monotonic() - t0 < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and "over the limit" in err

    def test_open_tangle_of_many_columns_exit_3_at_once(self, capsys,
                                                         tmp_path):
        # 1001^2 source basis vectors, each with a state of 1001^2
        f = tmp_path / "wide.tangle"
        f.write_text("bottom +1000 -1000\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, ["eval", str(f), "--json"])
        assert time.monotonic() - t0 < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and "over the limit" in err

    @pytest.mark.parametrize("text", ["bottom +10000000\n",
                                      "bottom\ncup 1 10000000 u\ncap 1\n"])
    def test_huge_colour_exit_3_at_once(self, capsys, tmp_path, text):
        # no bound on a colour in the file: the guard answers by the product
        # or the map size, without a count over ten million weights
        f = tmp_path / "huge.tangle"
        f.write_text(text)
        t0 = time.monotonic()
        code, out, err = run(capsys, ["eval", str(f)])
        assert time.monotonic() - t0 < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and "over the limit" in err

    def test_oversized_maps_exit_3_at_once(self, capsys, tmp_path):
        # the colour-1000 unknot passes the state limit, not the map limit
        f = tmp_path / "big.tangle"
        f.write_text("bottom\ncup 1 1000 u\ncap 1\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, ["eval", str(f)])
        assert time.monotonic() - t0 < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and "over the limit" in err

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["eval", str(tmp_path / "nope.tangle")])
        assert code == EXIT_VALIDATE

    def test_cup_colour_zero_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.tangle"
        f.write_text("bottom\ncup 1 0 u\ncap 1\n")
        code, _, err = run(capsys, ["eval", str(f)])
        assert code == EXIT_PARSE
        assert "parse error" in err and "line 2" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.tangle"
        f.write_bytes(b"bottom\ncup 1 1 u\n\xff\xfe\ncap 1\n")
        code, _, err = run(capsys, ["eval", str(f)])
        assert code == EXIT_PARSE
        assert "parse error" in err and "line 3" in err


# diagram DSL lines from its grammar's words, with values its parser or
# validator must refuse, and junk; repeated words are drawn more often
POINTS = st.lists(st.sampled_from(["+1", "-1", "+2", "-2", "+3", "-3"] * 3 +
                                  ["+0", "+1000", "-1000", "+", "x1"]),
                  max_size=3)
POSITIONS = st.integers(-1, 5).map(str)
SLICE = st.one_of(
    st.tuples(st.just("cup"), POSITIONS,
              st.sampled_from(["1", "2", "3"] * 3 + ["0", "1000", "1.5"]),
              st.sampled_from(["u", "d"] * 4 + ["x"])).map(" ".join),
    st.tuples(st.sampled_from(["cap", "pos", "neg"]), POSITIONS
              ).map(" ".join))
JUNK = st.lists(st.one_of(st.sampled_from(["bottom", "cup", "cap", "#", "2"]),
                          st.text(max_size=6)), max_size=3).map(" ".join)
DSL_LINE = st.one_of(SLICE, SLICE, SLICE, SLICE, SLICE, SLICE,
                     POINTS.map(lambda ps: " ".join(["expect-top", *ps])),
                     JUNK)
BOTTOM = POINTS.map(lambda ps: [" ".join(["bottom", *ps])])
DSL = st.tuples(st.one_of(st.just([]), BOTTOM, BOTTOM, BOTTOM),
                st.lists(DSL_LINE, max_size=8)).map(lambda t: t[0] + t[1])


class TestEvalFuzz:
    @settings(max_examples=150, deadline=None)
    @given(lines=DSL)
    def test_any_input_exits_0_2_or_3(self, lines):
        # in-process, so that any exception fails the test
        fd, path = tempfile.mkstemp(suffix=".tangle")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["eval", path, "--precision", "16"])
        finally:
            os.unlink(path)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATE)
        if code == EXIT_OK:
            assert out.getvalue() and not err.getvalue()
        else:
            assert not out.getvalue() and err.getvalue().count("\n") == 1


class TestUsageAndPrecision:
    def test_unknown_flag_exits_64(self, unknot_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", unknot_file, "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_USAGE

    def test_no_subcommand_exits_64(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_precision_below_minimum_exit_3(self, capsys, unknot_file):
        code, _, err = run(capsys, ["eval", unknot_file, "--precision", "4"])
        assert code == EXIT_VALIDATE
        assert "precision" in err

    def test_precision_above_maximum_exit_3_at_once(self, capsys, tmp_path):
        # the colour-2 unknot at precision 10^7 would not finish
        f = tmp_path / "unknot2.tangle"
        f.write_text("bottom\ncup 1 2 u\ncap 1\n")
        t = time.perf_counter()
        code, out, err = run(capsys, ["eval", str(f), "--precision",
                                      str(10 ** 7)])
        assert time.perf_counter() - t < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and str(MAX_PRECISION) in err

    def test_env_precision_above_maximum_exit_3_at_once(self, capsys, tmp_path,
                                                       monkeypatch):
        f = tmp_path / "unknot2.tangle"
        f.write_text("bottom\ncup 1 2 u\ncap 1\n")
        monkeypatch.setenv(PRECISION_ENV, str(10 ** 7))
        for argv in (["eval", str(f)], ["verify", "jones-wenzl", "--n", "3"]):
            t = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - t < 1
            assert code == EXIT_VALIDATE and out == "", argv
            assert err.count("\n") == 1 and str(MAX_PRECISION) in err

    def test_precision_bounds_are_inclusive(self, capsys, unknot_file):
        for p in (MIN_PRECISION, MAX_PRECISION):
            code, out, _ = run(capsys, ["eval", unknot_file, "--json",
                                        "--precision", str(p)])
            assert code == EXIT_OK and json.loads(out)["precision"] == p
        code, _, _ = run(capsys, ["eval", unknot_file, "--precision",
                                  str(MAX_PRECISION + 1)])
        assert code == EXIT_VALIDATE

    def test_env_override(self, capsys, unknot_file, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "16")
        code, out, _ = run(capsys, ["eval", unknot_file, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["precision"] == 16

    def test_env_override_garbage_falls_back(self, capsys, unknot_file,
                                             monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "not-a-number")
        code, out, _ = run(capsys, ["eval", unknot_file, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["precision"] == 64


# every subcommand, with words that its parser must refuse
USAGE_ERRORS = {
    ("eval",): [],
    ("verify",): ["no-such-suite"],
    ("verify", "invariance"): ["--trials", "many"],
    ("verify", "jones-wenzl"): ["--n"],
    ("verify", "slides"): ["--n", "2", "--frobnicate"],
    ("grassmann",): ["--k", "1"],
    ("quiver-check",): ["--which", "gl5"],
    ("unknot-homology",): ["--hmax", "1.5"],
    ("gor",): ["--hbound", "2", "stray"],
}


def exit_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParsers:
    """main builds only the named subcommand's parser, and it must behave
    exactly as that subcommand does inside the full parser."""

    @pytest.mark.parametrize("words", list(USAGE_ERRORS), ids=" ".join)
    def test_help_matches_full_parser(self, capsys, words):
        argv = list(words) + ["--help"]
        got = exit_outcome(capsys, main, argv)
        assert got == exit_outcome(capsys, build_parser().parse_args, argv)
        assert got[0] == 0 and got[1].startswith(
            "usage: qtangle " + " ".join(words))

    @pytest.mark.parametrize("words", list(USAGE_ERRORS), ids=" ".join)
    def test_usage_error_matches_full_parser(self, capsys, words):
        argv = list(words) + USAGE_ERRORS[words]
        got = exit_outcome(capsys, main, argv)
        assert got == exit_outcome(capsys, build_parser().parse_args, argv)
        assert got[0] == EXIT_USAGE and got[1] == "" and "error:" in got[2]

    def test_top_level_help_matches_full_parser(self, capsys):
        got = exit_outcome(capsys, main, ["--help"])
        assert got == exit_outcome(capsys, build_parser().parse_args,
                                   ["--help"])
        assert all(words[0] in got[1] for words in USAGE_ERRORS)

    def test_one_parser_per_named_subcommand(self, capsys, unknot_file,
                                             monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        assert main(["eval", unknot_file, "--precision", "16"]) == EXIT_OK
        assert built == ["qtangle eval"]
        built.clear()
        assert main(["verify", "slides", "--n", "1",
                     "--precision", "16"]) == EXIT_OK
        assert built == ["qtangle verify slides"]

    @pytest.mark.parametrize("argv", [
        ["grassmann", "--k", "1", "--n", "2"],
        ["quiver-check", "--which", "gl2"],
        ["unknot-homology", "--hmax", "2"],
        ["gor", "--hbound", "2", "--qbound", "10"],
    ], ids=lambda a: a[0])
    def test_precision_only_where_it_is_read(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == EXIT_OK and json.loads(out)["ok"]
        code, out, err = exit_outcome(capsys, main, argv + ["--precision",
                                                            "16"])
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --precision 16" in err


class TestVerify:
    def test_invariance_pass(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "invariance", "--moves", "r2", "--trials", "5",
            "--seed", "1", "--precision", "16", "--n-slices", "4"])
        assert code == EXIT_OK
        assert out.startswith("PASS")

    def test_invariance_negative_control_fails(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "invariance", "--moves", "uncoloured-r1",
            "--trials", "10", "--seed", "3", "--precision", "16",
            "--n-slices", "4", "--flip-gamma"])
        assert code == EXIT_VERIFY
        assert "FAIL" in out
        assert "reproduce: qtangle verify invariance" in out

    def test_invariance_unknown_move_exit_3(self, capsys):
        code, _, err = run(capsys, ["verify", "invariance",
                                    "--moves", "r9"])
        assert code == EXIT_VALIDATE
        assert "unknown move" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "jones-wenzl", "--n", "0", "--precision", "16"],
        ["verify", "slides", "--n", "0", "--precision", "16"],
        ["verify", "invariance", "--trials", "0", "--precision", "16"],
        ["verify", "invariance", "--trials", "-3", "--precision", "16"],
        ["verify", "invariance", "--colours", "0", "--precision", "16"],
        ["verify", "invariance", "--moves", "kink-pair", "--flip-gamma",
         "--precision", "16"],
        ["gor", "--hbound", "-4"],
        ["gor", "--hbound", "2", "--qbound", "-5"],
        ["grassmann", "--k", "1", "--n", "2", "--check-complex",
         "--hbound", "2"],
        ["unknot-homology", "--hmax", "-1"],
        ["unknot-homology", "--hmax", "0"],
        ["unknot-homology", "--hmax", "1"],
    ], ids=["jones-wenzl-n0", "slides-n0", "trials0", "trials-neg",
            "colours0", "flip-gamma-without-r1", "gor-hbound-neg",
            "gor-qbound-neg", "grassmann-hbound-pos", "hmax-neg", "hmax0",
            "hmax1"])
    def test_vacuous_or_invalid_request_exit_3(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_VALIDATE
        assert out == "" and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n,precision", [(9, 8), (10 ** 9, 8)])
    def test_jones_wenzl_over_the_work_limit_exit_3_at_once(
            self, capsys, monkeypatch, n, precision):
        # the limit is checked before any work: here building a projector
        # raises, so a request let through fails the test at once
        def build(*args):
            raise AssertionError("jones_wenzl called")

        monkeypatch.setattr(cli, "jones_wenzl", build)
        code, out, err = run(capsys, ["verify", "jones-wenzl", "--n", str(n),
                                      "--precision", str(precision)])
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and str(MAX_JONES_WENZL_N) in err

    # the bound is on n alone: every precision reaches the projector
    @pytest.mark.parametrize("n,precision", [(4, 1024), (5, 511), (7, 31),
                                             (8, 8), (8, 1024)])
    def test_jones_wenzl_under_the_work_limit_runs(self, capsys, monkeypatch,
                                                   n, precision):
        def build(*args):
            raise LookupError("jones_wenzl called")

        monkeypatch.setattr(cli, "jones_wenzl", build)
        with pytest.raises(LookupError):
            run(capsys, ["verify", "jones-wenzl", "--n", str(n),
                         "--precision", str(precision)])

    def test_jones_wenzl_precision_changes_no_check(self, capsys):
        reports = []
        for precision in (8, 1024):
            code, out, _ = run(capsys, ["verify", "jones-wenzl", "--n", "5",
                                        "--precision", str(precision),
                                        "--json"])
            assert code == EXIT_OK
            reports.append(out.replace(f"--precision {precision}\"",
                                       "--precision P\""))
        assert reports[0] == reports[1] and json.loads(reports[0])["ok"]
        assert reports[0].count("--precision P") == 10

    @pytest.mark.parametrize("suite,bound", [("slides", MAX_SLIDES_N)])
    def test_n_above_the_bound_exit_3_at_once(self, capsys, suite, bound):
        t = time.perf_counter()
        code, out, err = run(capsys, ["verify", suite, "--n", str(bound + 1),
                                      "--precision", "16"])
        assert time.perf_counter() - t < 1
        assert code == EXIT_VALIDATE and out == ""
        assert err.count("\n") == 1 and str(bound) in err

    def test_invariance_shortfall_fails(self, capsys):
        # r3 needs three crossings; a diagram with no slices has no site
        code, out, _ = run(capsys, [
            "verify", "invariance", "--moves", "r3", "--trials", "2",
            "--n-slices", "0", "--precision", "16"])
        assert code == EXIT_VERIFY
        assert "only 0 of 2 trials found a move site in 40 draws" in out

    def test_jones_wenzl(self, capsys):
        code, out, _ = run(capsys, ["verify", "jones-wenzl", "--n", "3",
                                    "--precision", "24"])
        assert code == EXIT_OK
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_slides(self, capsys):
        code, out, _ = run(capsys, ["verify", "slides", "--n", "2",
                                    "--precision", "24"])
        assert code == EXIT_OK
        assert out.count("PASS") == 3

    def test_slides_fail_where_the_full_power_slide_fails(self, capsys,
                                                          monkeypatch):
        # negative control: the identity checked once per n is part of
        # every (n, k) check of the report
        monkeypatch.setattr(intertwiner, "_full_power_slide", lambda n: False)
        code, out, _ = run(capsys, ["verify", "slides", "--n", "3", "--json"])
        assert code == EXIT_VERIFY
        report = json.loads(out)
        assert len(report["checks"]) == 6 and not report["ok"]
        assert not any(c["ok"] for c in report["checks"])


class TestReports:
    def test_grassmann(self, capsys):
        code, out, _ = run(capsys, ["grassmann", "--k", "1", "--n", "2",
                                    "--check-complex", "--hbound", "-3",
                                    "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dimension"] == 2 and report["ok"]

    def test_grassmann_bad_kn_exit_3(self, capsys):
        code, _, _ = run(capsys, ["grassmann", "--k", "3", "--n", "2"])
        assert code == EXIT_VALIDATE

    def test_quiver_check_gl2(self, capsys):
        code, out, _ = run(capsys, ["quiver-check", "--which", "gl2"])
        assert code == EXIT_OK and "FAIL" not in out

    def test_unknot_homology_verifies_the_resolution_once(self, capsys,
                                                          monkeypatch):
        # the Ext table and the Poincare check reuse the CLI's report
        calls = []
        real = gl4.l1_resolution_report

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(gl4, "l1_resolution_report", counting)
        monkeypatch.setattr(cli, "l1_resolution_report", counting)
        code, out, _ = run(capsys, ["unknot-homology", "--hmax", "4",
                                    "--json"])
        report = json.loads(out)
        assert code == EXIT_OK and report["ok"] and len(report["checks"]) == 5
        assert len(calls) == 1

    def test_gor(self, capsys):
        code, out, _ = run(capsys, ["gor", "--hbound", "4",
                                    "--qbound", "16", "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["homology"]["0,0"] == "1"
        assert "knot_homology_series" in report


class TestJsonable:
    def test_leaves_keys_and_order(self):
        # ints, strs, bools and None pass through as they are; floats and
        # Fractions become strings, tuple keys "a,b", and keys are sorted
        report = {(2, 1): [True, 1.5, Fraction(1, 3), None, "s", 7],
                  "b": False, (1,): {3: Fraction(4)}, "a": (0.25, -2)}
        got = cli._jsonable(report)
        assert got == {"1": {"3": "4"}, "2,1": [True, "1.5", "1/3", None,
                                                "s", 7],
                       "a": ["0.25", -2], "b": False}
        assert list(got) == ["1", "2,1", "a", "b"]
        assert got["2,1"][0] is True and got["b"] is False
        assert type(got["2,1"][5]) is int and type(got["a"][1]) is int
        assert json.dumps(got, sort_keys=True) == (
            '{"1": {"3": "4"}, "2,1": [true, "1.5", "1/3", null, "s", 7], '
            '"a": ["0.25", -2], "b": false}')


class TestDeterminism:
    def test_identical_argv_identical_output(self, capsys):
        argv = ["verify", "invariance", "--moves", "r2,zigzag",
                "--trials", "6", "--seed", "9", "--precision", "16",
                "--n-slices", "4", "--json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_json_is_sorted(self, capsys, unknot_file):
        _, out, _ = run(capsys, ["eval", unknot_file, "--json",
                                 "--precision", "16"])
        report = json.loads(out)
        assert list(report) == sorted(report)


class TestSuiteOutputsPinned:
    # The CLI sweep of the benchmark's verify_suites workload, in its
    # unshuffled order.  The sha256 of the concatenated --json outputs was
    # taken before the integer echelon kernel, the int coefficients of
    # quiverkat and the product table of the Grassmannian differentials,
    # so none of them changed a byte of any report.
    SHA256 = "42ce095e2c3e9b874ab273fb5374c66111de88aa1c08f05cb34b6cccd8835608"

    @staticmethod
    def argvs():
        out = [["verify", "jones-wenzl", "--n", str(n), "--precision", "32"]
               for n in range(1, 6)]
        out.append(["verify", "jones-wenzl", "--n", "4", "--precision", "48"])
        for prec, lo, top in ((32, 1, 5), (48, 3, 4)):
            out += [["verify", "slides", "--n", str(n), "--precision", str(prec)]
                    for n in range(lo, top + 1)]
        out += [["verify", "slides", "--n", "4", "--precision", str(prec)]
                for prec in (24, 40, 56)]
        for k, n in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5),
                     (2, 5), (1, 6)):
            out += [["grassmann", "--k", str(k), "--n", str(n),
                     "--check-complex", "--hbound", str(hb)]
                    for hb in (-3, -6) if (k, n, hb) != (2, 5, -6)]
        out += [["quiver-check", "--which", w]
                for w in ("gl2", "gl3", "gl4", "all")]
        out += [["unknot-homology", "--hmax", str(h)] for h in (2, 4, 6, 8)]
        out += [["gor", "--hbound", str(hb), "--qbound", str(qb)]
                for hb in (2, 4, 6, 8) for qb in (20, 30, 40)]
        return out

    def test_sweep_output_is_unchanged(self):
        argvs = self.argvs()
        assert len(argvs) == 53
        digest = hashlib.sha256()
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--json"]) == EXIT_OK, argv
            digest.update(out.getvalue().encode())
        assert digest.hexdigest() == self.SHA256
