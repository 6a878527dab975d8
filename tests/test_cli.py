import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import exactdet.cli as cli
import exactdet.core as core
import exactdet.engines as engines
import exactdet.jacobi as jacobi
from exactdet import (
    DodgsonResult,
    Matrix,
    complementary_minor,
    det_dodgson,
    det_laplace,
    emit_matrix_text,
    jacobi_residual,
    parse_matrix,
    pluecker_sum,
    pluecker_terms,
    submatrix_delete,
    three_term_residual,
    verify_all_jacobi,
)
from exactdet.cli import main
from exactdet.core import _quote
from exactdet.randgen import random_matrix, trial_stream
from test_golden import CASES, GOLDEN

GOLDEN_TEXT = "3 3\n1 2 3\n4 5 6\n7 8 10\n"
IDENTITY3 = "3 3\n1 0 0\n0 1 0\n0 0 1\n"
FOUR = "4 4\n2 -1 3 0\n1 5 -2 4\n0 3 1 -3\n-2 1 4 2\n"
RATIONAL3 = "3 3\n1/2 2 3\n4 5/3 6\n7 8 10/7\n"
SKEW2 = "2 2\n0 3\n-3 0\n"
# p/q rows whose denominator lcms 10, 21, 4, 45, 11, 78 all differ
RATIONAL6 = (
    "6 6\n1/2 2 -3 4/5 5 -6\n7 8/3 9 -10 11 12/7\n-13 14 15/4 16 -17/2 18\n"
    "19 -20/9 21 22 23 24/5\n25 26 -27 28/11 29 30\n31/6 32 33 -34 35 36/13\n"
)
SKEW4 = emit_matrix_text(
    Matrix.from_rows(
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    )
)


@pytest.fixture
def write(tmp_path):
    def _write(content, name="m.txt"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return _write


class TestDet:
    def test_identity_all_engines(self, write, capsys):
        assert main(["det", write(IDENTITY3)]) == 0
        out = capsys.readouterr().out
        assert out.count("value 1: pass") == 4  # three engines + agreement
        assert "overall: pass" in out

    def test_golden_dodgson(self, write, capsys):
        assert main(["det", write(GOLDEN_TEXT), "--engine", "dodgson"]) == 0
        out = capsys.readouterr().out
        assert "value -3" in out
        assert "fallback=false" in out

    def test_fallback_reported(self, write, capsys):
        path = write("3 3\n1 2 3\n4 0 6\n7 8 9\n")
        assert main(["det", path, "--engine", "dodgson"]) == 0
        out = capsys.readouterr().out
        assert "value 60" in out
        assert "fallback=true" in out

    def test_non_square_exits_2(self, write, capsys):
        assert main(["det", write("1 2\n1 2\n")]) == 2
        assert "error" in capsys.readouterr().err

    def test_oversized_header_exits_2_quickly(self, write, capsys):
        start = time.perf_counter()
        assert main(["det", write("1000000000 1\n1\n")]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000000000" in captured.err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["det", "-"], "9" * 100_000 + " 1\n1\n"),
            (["det", "-"], "1 2\n1 1" + "x" * 99_997 + "\n"),
            (["det", "-"], '{"rows": 1, "cols": 1, "entries": [[' + "1, " * 33_333 + "1]]}"),
            (["verify", "-", "--identity", "jacobi", "--pair", "1," + "x" * 99_998], GOLDEN_TEXT),
        ],
        ids=["header", "entry", "json-row", "pair"],
    )
    def test_diagnostics_quote_bounded_input(self, argv, text, capsys, monkeypatch):
        # each quotes the offending text cut to 20 characters
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("exactdet: error: ")
        assert len(captured.err.encode()) < 300

    def test_oversized_scalar_exits_2_with_own_diagnostic(self, write, capsys):
        assert main(["det", write("2 2\n" + "7" * 5000 + " 1\n2 3\n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 4300 digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    def test_oversized_header_count_exits_2_with_own_diagnostic(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("9" * 4301 + " 1\n1\n"))
        assert main(["det", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("exactdet: error: header must be 'rows cols', got '999")
        assert captured.err.count("\n") == 1
        assert "set_int_max_str_digits" not in captured.err

    @pytest.mark.parametrize("command", [["det", "--engine", "bareiss"], ["embed"]])
    def test_oversized_output_exits_2_with_own_diagnostic(self, command, write, capsys):
        # each entry passes the input cap; det = pf has about 6000 digits
        big = "7" * 3000
        path = write(f"2 2\n{big} 0\n0 {big}\n")
        start = time.perf_counter()
        assert main([command[0], path, *command[1:]]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 4300 digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    def test_deep_condensation_needs_no_recursion_limit(self, write):
        # condensation goes level by level and nests no frames: a zero matrix of order
        # 400, whose interiors a recursion would nest 200 frames deep, condenses under a
        # limit of 150 whether or not the interpreter also counts the C call into each
        # frame (3.11 and older do, 3.12 does not)
        path = write("400 400\n" + (" ".join(["0"] * 400) + "\n") * 400)
        probe = (
            "import sys\nfrom exactdet.cli import main\nsys.setrecursionlimit(150)\n"
            f"sys.exit(main(['det', {path!r}, '--engine', 'dodgson']))"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == (
            "dodgson [n=400 fallback=true depth=397]: value 0: pass\n"
            "overall: pass (1 checks, 0 failures)\n"
        )

    @pytest.mark.skipif(not engines._can_split(), reason="no os.fork or fewer than two usable CPUs")
    def test_split_elimination_reports_once(self):
        # the worker leaves through os._exit, so it never flushes the stdout it inherits
        n = engines._SPLIT_MIN_ORDER
        matrix = random_matrix(trial_stream(n, 0), n, n, 9)
        text = f"{n} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in matrix.entries)
        argv = ["det", "-", "--engine", "bareiss", "--json"]
        serial = (
            "import sys\nfrom exactdet import engines\nfrom exactdet.cli import main\n"
            f"engines._SPLIT_MIN_ORDER = sys.maxsize\nsys.exit(main({argv!r}))"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs = [
            subprocess.run(command, input=text, capture_output=True, text=True, env=env)
            for command in ([sys.executable, "-m", "exactdet", *argv], [sys.executable, "-c", serial])
        ]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count('"command"') == 1

    def test_largest_printable_value_prints(self, write, capsys):
        big = "7" * 4300
        assert main(["det", write(f"1 1\n{big}\n")]) == 0
        assert f"value {big}: pass" in capsys.readouterr().out

    def test_json_report_schema(self, write, capsys):
        assert main(["det", write(GOLDEN_TEXT), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "results", "summary"]
        assert report["summary"]["pass"] is True
        assert all(list(rec)[:2] == ["check", "operands"] for rec in report["results"])

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_TEXT))
        assert main(["det", "-", "--engine", "bareiss"]) == 0
        assert "value -3" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [8, 10])
    def test_default_engines_respect_laplace_limit(self, n, write, capsys):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        start = time.perf_counter()
        assert main(["det", path, "--json"]) == 0
        assert time.perf_counter() - start < 1.0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [rec["check"] for rec in results] == ["bareiss", "dodgson", "engines-agree"]
        assert results[-1]["operands"] == f"n={n} engines=2"

    @pytest.mark.parametrize("n", [8, 10])
    def test_laplace_engine_refuses_orders_past_limit(self, n, write, capsys):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        start = time.perf_counter()
        assert main(["det", path, "--engine", "laplace"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"up to n = {cli.LAPLACE_LIMIT}, got n = {n}" in captured.err


class TestVerify:
    def test_identity_jacobi(self, write, capsys):
        assert main(["verify", write(IDENTITY3), "--identity", "jacobi"]) == 0
        assert "jacobi" in capsys.readouterr().out

    def test_golden_all(self, write, capsys):
        assert main(["verify", write(GOLDEN_TEXT)]) == 0
        out = capsys.readouterr().out
        for name in ("jacobi", "three-term", "generalized", "pluecker"):
            assert name in out
        assert "overall: pass" in out

    def test_sampled_sweep_beyond_exhaustive_limit(self, write, capsys):
        gen = trial_stream(90, 0)
        path = write(emit_matrix_text(random_matrix(gen, 7, 7, 9)), "n7.txt")
        assert main(["verify", path, "--identity", "three-term", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (rec,) = report["results"]
        assert "residuals=60" in rec["operands"]  # sampled, not the 7350 exhaustive

    def test_generalized_selection(self, write, capsys):
        path = write(FOUR)
        code = main(
            ["verify", path, "--identity", "generalized", "--rows", "1,2", "--cols", "1,2,3,4"]
        )
        assert code == 0
        assert "residual 0: pass" in capsys.readouterr().out
        # r = 1 on a 2 x 2 matrix, the smallest that admits it
        path = write(SKEW2, "two.txt")
        assert main(["verify", path, "--identity", "generalized", "--rows", "1", "--cols", "1,2"]) == 0
        assert "residual 0: pass" in capsys.readouterr().out

    def test_jacobi_pair_selection(self, write, capsys):
        assert main(["verify", write(GOLDEN_TEXT), "--identity", "jacobi", "--pair", "1,3"]) == 0

    def test_selection_requires_identity(self, write, capsys):
        assert main(["verify", write(GOLDEN_TEXT), "--pair", "1,2"]) == 2

    def test_bad_selection_exits_2(self, write, capsys):
        assert main(["verify", write(GOLDEN_TEXT), "--identity", "jacobi", "--pair", "1,9"]) == 2
        assert main(["verify", write(GOLDEN_TEXT), "--identity", "jacobi", "--pair", "2,2"]) == 2
        assert (
            main(["verify", write(GOLDEN_TEXT), "--identity", "three-term", "--rows", "1", "--cols", "1,2,3,4"])
            == 2
        )
        capsys.readouterr()
        for selection, message in (
            (["jacobi", "--rows", "1,2"], "takes --pair i,j"),
            (["jacobi", "--pair", "1,2,3"], "exactly two indices"),
            (["generalized", "--rows", "1"], "takes --rows and --cols"),
        ):
            assert main(["verify", write(GOLDEN_TEXT), "--identity", *selection]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize(
        "selection",
        [
            ["three-term", "--rows", "1,7", "--cols", "1,2,3,4"],
            ["three-term", "--rows", "1,2", "--cols", "1,2,3,7"],
            ["generalized", "--rows", "7", "--cols", "1,2"],
            ["generalized", "--rows", "1", "--cols", "2,7"],
            ["generalized", "--rows", "2,7", "--cols", "1,3,4,6"],
            ["generalized", "--rows", "1,3,5", "--cols", "1,2,3,4,5,7"],
            ["pluecker", "--rows", "7", "--cols", "3,5"],
            ["pluecker", "--rows", "2", "--cols", "3,7"],
            ["pluecker", "--rows", "4,7", "--cols", "2,3,5,6"],
            ["pluecker", "--rows", "1,4", "--cols", "2,3,5,7"],
            ["jacobi", "--pair", "1,7"],
        ],
    )
    def test_index_past_the_matrix_exits_2(self, selection, write, capsys):
        # n + 1 = 7 must be refused, never dropped from the deleted index set
        path = write(emit_matrix_text(random_matrix(trial_stream(6, 0), 6, 6, 9)))
        assert main(["verify", path, "--identity", *selection]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err
        assert re.search(r"\b7\b", captured.err)

    @pytest.mark.parametrize(
        "selection",
        [
            ["jacobi", "--pair", "１,2"],  # a full-width one
            ["jacobi", "--pair", "+1,2"],
            ["jacobi", "--pair", "1_0,2"],
            ["jacobi", "--pair", "1,,2"],
            ["three-term", "--rows", "1,2", "--cols", "1,2,3,٤"],  # an Arabic-Indic four
            ["generalized", "--rows", "+1", "--cols", "1,2"],
            ["pluecker", "--rows", "1", "--cols", "1_0,2"],
            ["jacobi", "--pair", "9" * 5000 + ",2"],  # past int()'s digit limit
            ["jacobi", "--pair", ""],  # an empty list is a selection, not its absence
            ["three-term", "--rows", "", "--cols", ""],
            ["generalized", "--rows", "1", "--cols", ""],
        ],
    )
    def test_index_list_takes_ascii_digits_only(self, selection, write, capsys):
        path = write(emit_matrix_text(random_matrix(trial_stream(6, 0), 6, 6, 9)))
        assert main(["verify", path, "--identity", *selection]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed index list" in captured.err

    def test_longest_index_reaches_the_range_check(self, write, capsys):
        # 4300 digits pass the index grammar; one more is malformed (above).  The range
        # check's diagnostic quotes the index cut to 20 characters
        path = write(emit_matrix_text(random_matrix(trial_stream(6, 0), 6, 6, 9)))
        longest = "9" * 4300
        assert main(["verify", path, "--identity", "jacobi", "--pair", f"{longest},2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"exactdet: error: rows ({'9' * 20}...,) ")
        assert "out of range" in captured.err

    def test_index_list_allows_surrounding_whitespace(self, write, capsys):
        path = write(GOLDEN_TEXT)
        assert main(["verify", path, "--identity", "jacobi", "--pair", "1, 2"]) == 0
        assert capsys.readouterr().out.startswith("jacobi [n=3 i=1 j=2]: residual 0: pass")

    @pytest.mark.parametrize(
        "n,rows,cols",
        [
            (8, "1,2,3,4", "1,2,3,4,5,6,7,8"),  # r = 4 is past the splitting table
            (24, ",".join(map(str, range(1, 13))), ",".join(map(str, range(1, 25)))),
        ],
    )
    def test_generalized_selection_outside_splittings_exits_2_quickly(
        self, n, rows, cols, write, capsys
    ):
        # r = 12 at n = 24 would sum C(24, 12) ~ 2.7M splittings
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 1), n, n, 9)))
        start = time.perf_counter()
        code = main(["verify", path, "--identity", "generalized", "--rows", rows, "--cols", cols])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r in {1, 2, 3}" in captured.err

    def test_violation_exits_1(self, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, "jacobi_residual", lambda m, i, j: Fraction(1))
        code = main(["verify", write(GOLDEN_TEXT), "--identity", "jacobi", "--pair", "1,2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "residual 1: FAIL" in out
        assert "overall: FAIL" in out

    def test_sweep_violation_lists_witnesses(self, write, capsys, monkeypatch):
        def broken(matrix):
            pairs = combinations(range(1, 4), 2)
            return {pair: Fraction(3, 2) if pair == (1, 2) else Fraction(0) for pair in pairs}

        monkeypatch.setattr(jacobi, "_jacobi_residuals", broken)
        code = main(["verify", write(GOLDEN_TEXT), "--identity", "jacobi"])
        assert code == 1
        out = capsys.readouterr().out
        assert "witnesses: i=1 j=2 residual 3/2" in out
        assert "i=2 j=1" in out


class TestPfaffian:
    def test_base_case_square_check(self, write, capsys):
        assert main(["pfaffian", write(SKEW2), "--check", "square"]) == 0
        out = capsys.readouterr().out
        assert "value 3" in out
        assert "det=9" in out

    def test_order_four(self, write, capsys):
        assert main(["pfaffian", write(SKEW4)]) == 0
        assert "value 8" in capsys.readouterr().out

    def test_recurrence_check(self, write, capsys):
        assert main(["pfaffian", write(SKEW4), "--check", "recurrence"]) == 0

    def test_not_antisymmetric_exits_2(self, write, capsys):
        assert main(["pfaffian", write("2 2\n0 1\n2 0\n")]) == 2
        assert "(1,2)" in capsys.readouterr().err

    def test_odd_order_exits_2(self, write, capsys):
        assert main(["pfaffian", write("3 3\n0 1 2\n-1 0 3\n-2 -3 0\n")]) == 2


class TestEmbed:
    def test_single_entry(self, write, capsys):
        assert main(["embed", write("1 1\n5\n")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2 2\n0 5\n-5 0\n"
        assert "pass" in captured.err

    def test_two_by_two(self, write, capsys):
        assert main(["embed", write("2 2\n1 2\n3 4\n")]) == 0
        captured = capsys.readouterr()
        assert "det=-2 pf=-2" in captured.err

    def test_json_output(self, write, capsys):
        assert main(["embed", write("1 1\n5\n"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 2
        assert payload["entries"][1][0] == "-5"

    def test_minors_flag(self, write, capsys):
        assert main(["embed", write(GOLDEN_TEXT), "--minors"]) == 0
        assert "embedded-minors" in capsys.readouterr().err
        # J - I: the zero diagonal stops the Jacobi-pair recursion at its first pivot, so
        # every minor the cases read is eliminated as a fresh slice
        ones = "4 4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n"
        assert main(["embed", write(ones), "--minors"]) == 0
        assert "embedded-minors [n=4 correspondences=22]: residual 0: pass" in capsys.readouterr().err


class TestFuzz:
    def test_byte_identical_reports(self, capsys):
        args = ["fuzz", "--seed", "42", "--trials", "5", "--size-max", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_report(self, capsys):
        main(["fuzz", "--seed", "1", "--trials", "3"])
        first = capsys.readouterr().out
        main(["fuzz", "--seed", "2", "--trials", "3"])
        assert first != capsys.readouterr().out

    def test_report_schema(self, capsys):
        assert main(["fuzz", "--seed", "7", "--trials", "2", "--size-max", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "seed", "results", "summary"]
        assert report["seed"] == 7
        assert report["summary"]["pass"] is True
        checks = {rec["check"] for rec in report["results"]}
        assert "engines" in checks

    @pytest.mark.parametrize(
        "args",
        [
            ["fuzz", "--seed", "1", "--trials", "0"],
            ["fuzz", "--seed", "1", "--trials", "2", "--size-max", "1"],
            ["fuzz", "--seed", "1", "--trials", "2", "--entry-bound", "0"],
        ],
    )
    def test_invalid_parameters_exit_2(self, args, capsys):
        assert main(args) == 2

    # int() alone would take every one of these but the last two
    MALFORMED = [" +7", "+7", "7 ", "１", "1_0", "0x7", "1" * 4301]

    @pytest.mark.parametrize("text", MALFORMED + ["-7"])
    @pytest.mark.parametrize("option", ["--trials", "--size-max", "--entry-bound"])
    def test_malformed_count_options_exit_2(self, option, text, capsys):
        args = {"--seed": "1", "--trials": "1", option: text}
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", *(word for pair in args.items() for word in pair)])
        assert exc.value.code == 2
        assert f"argument {option}: malformed count {_quote(text)}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", MALFORMED + ["-", "- 7", "-１"])
    def test_malformed_seed_exits_2(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seed", text, "--trials", "1"])
        assert exc.value.code == 2
        assert f"argument --seed: malformed integer {_quote(text)}" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert main(["fuzz", "--seed", "-5", "--trials", "2", "--size-max", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == -5

    def test_orders_beyond_laplace_limit(self, capsys):
        # seed 42, trial 4 draws n=8: sweeps sample and Laplace sits out
        args = ["fuzz", "--seed", "42", "--trials", "5", "--size-max", "8",
                "--identity", "jacobi"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        engine_recs = [r for r in report["results"] if r["check"] == "engines"]
        assert any("n=8 engines=2" in r["operands"] for r in engine_recs)
        assert all(r["pass"] for r in report["results"])


class TestOneMinorTable:
    """Every family a command checks reads one minor table per matrix: the matrix
    is cleared once and each distinct minor is eliminated once."""

    @staticmethod
    def _counted(monkeypatch) -> dict[str, int]:
        counts = {"_bareiss": 0, "_integer_rows": 0}
        for name in counts:
            def counted(*args, good=getattr(engines, name), name=name):
                counts[name] += 1
                return good(*args)

            monkeypatch.setattr(engines, name, counted)
        return counts

    # det, then (from order 4) the non-principal double minors and, at order 6, the
    # C(6,3)^2 minors of the r = 3 splittings: the Jacobi recursion writes every first and
    # principal double minor back; ``before`` counts those too, read through the table
    # (the principal double minors below order 4), as while Jacobi pairs read it
    ELIMINATIONS = {2: 1, 3: 1, 4: 31, 5: 91, 6: 611}

    @pytest.mark.parametrize("n, before", [(2, 6), (3, 13), (4, 53), (5, 126), (6, 662)])
    def test_verify(self, n, before, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        counts = self._counted(monkeypatch)
        assert main(["verify", path]) == 0
        assert counts == {"_bareiss": self.ELIMINATIONS[n], "_integer_rows": 1}
        assert self.ELIMINATIONS[n] < before

    # the summed cube of the orders _bareiss eliminates: every half-determinant its own
    # fresh minor made 29916 at order 6 and 2070070 at order 12, and its own minor resumed
    # from a shared elimination of the whole matrix 15139 and 964879, so a half that stops
    # resuming its choice's shared core elimination, finishing as an r x r block, fails
    # here; ``before`` is the sum while Jacobi pairs read the table
    CUBES = {6: 12696, 12: 41234}

    @pytest.mark.parametrize("n, before", [(6, 13875), (12, 92021)])
    def test_verify_finishes_halves_from_one_core(self, n, before, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        good = engines._bareiss
        orders = []

        def counted(work, *args):
            orders.append(len(work))
            return good(work, *args)

        monkeypatch.setattr(engines, "_bareiss", counted)
        assert main(["verify", path]) == 0
        assert sum(k**3 for k in orders) == self.CUBES[n] < before

    # the entries every Bareiss step updates, summed over the run.  Each minor and each
    # splitting core eliminates its own slice of the cleared rows; while they resumed two
    # shared eliminations of the whole matrix, kept at the steps asked for, the sums were
    # 4233, 66152 and 243319 (4285, 78370 and 369818 while Jacobi pairs read those too).
    # Deleting the shared eliminations trades these extra updates for less code and a
    # lower traced peak: 1.32 MB against 1.89 MB for ``verify`` at order 30
    CELLS = {6: 4650, 12: 96365, 18: 370993}

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_verify_cell_updates(self, n, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        good = engines._eliminate
        updates = []

        def counted(work, k, stop, prev):
            reached, last = good(work, k, stop, prev)
            updates.extend((len(work) - t - 1) * (len(work[t]) - t - 1) for t in range(k, reached))
            return reached, last

        monkeypatch.setattr(engines, "_eliminate", counted)
        assert main(["verify", path]) == 0
        assert sum(updates) == self.CELLS[n]

    # each splitting sweep hands its own ascending choices to one batch, so no choice is
    # read again as an index set; while each went through the single-choice functions,
    # two index_set calls validated it, 1750 at order 6 and 720 at order 12
    @pytest.mark.parametrize("n, halves", [(6, 875), (12, 360)])
    def test_verify_reads_each_choice_once(self, n, halves, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        counts = {"index_set": 0, "halves": 0}

        def counter(name, good):
            def counted(*args):
                counts[name] += 1
                return good(*args)

            return counted

        index_set = counter("index_set", core.index_set)
        for module in (core, engines, jacobi):
            monkeypatch.setattr(module, "index_set", index_set)
        monkeypatch.setattr(engines._Minors, "halves", counter("halves", engines._Minors.halves))
        assert main(["verify", path]) == 0
        assert counts == {"index_set": 0, "halves": halves}

    # both residual batches ask the table for a denominator only for a nonzero residual,
    # so a passing sweep asks for none; while the table's readers returned it with the
    # integers, every choice's halves and every Jacobi pair did: 905, 492 and 666 calls
    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_passing_verify_asks_no_denominator(self, n, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        calls = []
        good = engines._Minors.q

        def counted(table, drop_rows):
            calls.append(drop_rows)
            return good(table, drop_rows)

        monkeypatch.setattr(engines._Minors, "q", counted)
        assert main(["verify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["pass"] is True
        assert calls == []

    # a zero principal pivot leaves the pairs below it unwritten, and the table reads
    # (``_Minors.pair``) eliminate their minors as fresh slices: every pair when the
    # diagonal is zero, none on a seeded input; the reports stay the golden ones
    @pytest.mark.parametrize(
        "case, fallbacks",
        [
            ("verify-json-jacobi-zero-diagonal", 28),
            ("verify-json-chain-stops", 49),
            ("verify-json-chain-singular-cores", 53),
            ("verify-json-n9", 0),
        ],
    )
    def test_zero_pivots_fall_back_to_the_table(self, case, fallbacks, capsys, monkeypatch):
        argv, text = CASES[case]
        good = engines._Minors.pairs
        unwritten = []

        def counted(table, indices):
            good(table, indices)
            unwritten.extend(p for p in combinations(indices, 2) if (p, p) not in table)

        monkeypatch.setattr(engines._Minors, "pairs", counted)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == GOLDEN[case]
        assert len(unwritten) == len(set(unwritten)) == fallbacks

    @pytest.mark.parametrize("n", range(3, 7))
    def test_table_writers_store_plain_minors(self, n, write, capsys, monkeypatch):
        # the three writers of a minor table, a fresh minor (``__missing__``), the halves'
        # write-back and the Jacobi recursion's leaves, each store the integer alone: the
        # minor is that integer over ``q`` of its deleted rows
        gen = trial_stream(800 + n, 0)
        entries = [Fraction(gen.next_int(-9, 9), gen.next_int(1, 9)) for _ in range(n * n)]
        matrix = Matrix.from_rows([entries[k : k + n] for k in range(0, n * n, n)])
        written = defaultdict(set)
        for name in ("__missing__", "halves", "pairs"):
            def recorded(table, *args, good=getattr(engines._Minors, name), name=name):
                before = set(table)
                result = good(table, *args)
                written[name].update(set(table) - before)
                return result

            monkeypatch.setattr(engines._Minors, name, recorded)
        assert main(["verify", write(emit_matrix_text(matrix))]) == 0
        held, table = engines._held
        assert held == matrix
        assert set(table) == set().union(*written.values())
        assert all(written[name] for name in ("__missing__", "pairs"))
        assert bool(written["halves"]) == (n >= 4)
        for (rows, cols), value in table.items():
            assert type(value) is int, (rows, cols)
            minor = det_laplace(submatrix_delete(matrix, rows, cols))
            assert Fraction(value, table.q(rows)) == minor, (rows, cols)

    def test_embed_minors(self, write, capsys, monkeypatch):
        # det alone: one Jacobi-pair recursion writes the 25 first minors and 10 principal
        # double minors, with no zero pivot here, so none is eliminated as a slice
        path = write(emit_matrix_text(random_matrix(trial_stream(5, 0), 5, 5, 9)))
        counts = self._counted(monkeypatch)
        assert main(["embed", path, "--minors"]) == 0
        assert counts == {"_bareiss": 1, "_integer_rows": 1}

    def test_pfaffian_square(self, write, capsys, monkeypatch):
        # det_bareiss alone: the Pfaffian neither clears nor eliminates through them
        counts = self._counted(monkeypatch)
        assert main(["pfaffian", write(SKEW4), "--check", "square"]) == 0
        assert counts == {"_bareiss": 1, "_integer_rows": 1}

    def test_det_clears_once(self, write, capsys, monkeypatch):
        # Bareiss and Dodgson past the Laplace limit: Dodgson condenses the table's rows
        path = write(emit_matrix_text(random_matrix(trial_stream(8, 0), 8, 8, 9)))
        counts = self._counted(monkeypatch)
        assert main(["det", path]) == 0
        assert counts["_integer_rows"] == 1

    def test_fuzz_clears_once_per_trial(self, capsys, monkeypatch):
        # each trial's matrix is cleared once for its engines and all four sweeps
        counts = self._counted(monkeypatch)
        assert main(["fuzz", "--seed", "1", "--trials", "6", "--size-max", "7"]) == 0
        assert counts["_integer_rows"] == 6

    @pytest.mark.parametrize("call", [pluecker_sum, three_term_residual, pluecker_terms])
    def test_splitting_kernels_keep_the_held_table(self, call):
        # the augmented matrix M | vectors gets a table of its own, outside the cache
        m = Matrix.from_rows([[1, Fraction(1, 2)], [3, 4], [5, -6], [Fraction(7, 3), 8]])
        held = Matrix.from_rows([[2, 1], [1, 3]])
        table = engines._minors(held)
        vectors = [[1, 0, 2, 1], [0, 1, -1, 3], [4, 2, 0, 1], [1, 1, 1, 0]]
        if call is three_term_residual:
            call(m, *vectors)
        else:
            call(m, vectors)
        assert engines._held == (held, table)

    def test_dodgson_leaves_the_table_rows(self):
        # a zero interior sends its block to _bareiss on a copy; nothing writes to the
        # cleared rows the condensation shares with every minor
        m = Matrix.from_rows(
            [[Fraction(1, 2), 2, 3, 1], [4, 0, 0, 6], [7, 0, 0, Fraction(5, 3)], [1, 8, 9, 2]]
        )
        table = engines._minors(m)
        result = det_dodgson(m)
        assert result.fallback_used
        assert result.value == det_laplace(m)
        assert engines._minors(m) is table
        assert table.rows == engines._integer_rows(m)[1]


def _wrong_dodgson(matrix):
    good = det_dodgson(matrix)
    return DodgsonResult(good.value + 1, good.fallback_used, good.fallback_depth)


class TestFaultInjection:
    """Every family's residual seam and the Dodgson engine must be able to fail a run."""

    # a splitting sweep is one batch per order, ``_splitting_residuals``, whose every choice sums
    # its halves with one of two kernels: the three-term formula (three-term, and
    # pluecker at r = 2) or the full splitting sum (generalized, and pluecker at r = 1)
    SWEEP_SEAMS = [
        ("_three_term", {"three-term", "pluecker"}),
        ("_splitting_sum", {"generalized", "pluecker"}),
        ("_jacobi_residuals", {"jacobi"}),
    ]
    SELECTION_SEAMS = [
        ("minor_three_term_residual", ["three-term", "--rows", "1,2", "--cols", "1,2,3,4"]),
        ("generalized_pluecker_residual", ["generalized", "--rows", "2", "--cols", "1,4"]),
        ("generalized_pluecker_residual", ["generalized", "--rows", "1,3", "--cols", "1,2,3,4"]),
        ("generalized_pluecker_residual", ["pluecker", "--rows", "1", "--cols", "1,2"]),
        ("minor_three_term_residual", ["pluecker", "--rows", "1,2", "--cols", "1,2,3,4"]),
    ]

    @pytest.mark.parametrize(
        "name, r", [(name, r) for name, orders in cli._SPLITTINGS.items() for r in orders]
    )
    def test_splitting_policy_names_each_formula(self, name, r, write, capsys, monkeypatch):
        # a single selection calls the seam its order's formula names, and the sweep hands
        # that order's choices to the batch with the same formula
        seams = ("minor_three_term_residual", "generalized_pluecker_residual")
        expected = seams[0] if cli._SPLITTINGS[name][r] else seams[1]
        called = []
        for seam in seams:
            def recorded(*args, good=getattr(cli, seam), seam=seam):
                called.append(seam)
                return good(*args)

            monkeypatch.setattr(cli, seam, recorded)
        batches = []

        def batch(matrix, choices, three_term, good=cli._splitting_residuals):
            batches.append((len(choices[0][0]), three_term))
            return good(matrix, choices, three_term)

        monkeypatch.setattr(cli, "_splitting_residuals", batch)
        path = write(emit_matrix_text(random_matrix(trial_stream(6, 0), 6, 6, 9)))
        rows = ",".join(map(str, range(1, r + 1)))
        cols = ",".join(map(str, range(1, 2 * r + 1)))
        assert main(["verify", path, "--identity", name, "--rows", rows, "--cols", cols]) == 0
        assert called == [expected]
        assert main(["verify", path, "--identity", name]) == 0
        assert called == [expected] and (r, cli._SPLITTINGS[name][r]) in batches
        assert len(batches) == len(cli._SPLITTINGS[name])

    @staticmethod
    def _failing(report: dict) -> set[str]:
        return {rec["check"] for rec in report["results"] if not rec["pass"]}

    @staticmethod
    def _break(seam: str, monkeypatch) -> None:
        """Replace a sweep seam in ``jacobi`` with a stand-in whose every residual is
        nonzero.  The Jacobi batch ``_jacobi_residuals``, which ``verify_all_jacobi``
        reads, maps each pair i < j to one; each kernel the splitting batch reads sums
        every choice's halves to one."""
        if seam == "_jacobi_residuals":
            def broken(matrix):
                return dict.fromkeys(combinations(range(1, matrix.rows + 1), 2), Fraction(1))

            monkeypatch.setattr(jacobi, seam, broken)
        else:
            monkeypatch.setattr(jacobi, seam, lambda *args: 1)

    @pytest.mark.parametrize("seam, families", SWEEP_SEAMS)
    def test_verify_sweep(self, seam, families, write, capsys, monkeypatch):
        self._break(seam, monkeypatch)
        assert main(["verify", write(FOUR), "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == families

    @pytest.mark.parametrize("seam, families", SWEEP_SEAMS)
    def test_fuzz_sweep(self, seam, families, capsys, monkeypatch):
        self._break(seam, monkeypatch)
        assert main(["fuzz", "--seed", "3", "--trials", "4", "--size-max", "5"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == families

    @pytest.mark.parametrize("seam, selection", SELECTION_SEAMS)
    def test_selection(self, seam, selection, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, seam, lambda *args: Fraction(1))
        assert main(["verify", write(FOUR), "--identity", *selection]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{selection[0]} [n=4 rows=")
        assert "residual 1: FAIL" in out

    @staticmethod
    def _odd_fault(monkeypatch):
        """d -> d + d^3 in the one elimination that fills every minor table."""
        good = engines._bareiss

        def odd_fault(*args):
            d = good(*args)
            return d + d**3

        monkeypatch.setattr(engines, "_bareiss", odd_fault)

    @pytest.mark.parametrize("n", [6, 12])
    def test_slice_fault_fails_every_splitting_family(self, n, write, capsys, monkeypatch):
        # every slice that deletes rows gets one wrong entry, its last; every family that
        # reads slices fails, and Jacobi reads them only at a zero pivot
        good = engines._Minors._slice

        def perturbed(table, drop_rows, drop_cols, chosen=()):
            work = good(table, drop_rows, drop_cols, chosen)
            if drop_rows:
                work[-1][-1] += 1
            return work

        monkeypatch.setattr(engines._Minors, "_slice", perturbed)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["verify", path, "--json"]) == 1
        failing = self._failing(json.loads(capsys.readouterr().out))
        assert failing == {"three-term", "generalized", "pluecker"}

    @pytest.mark.parametrize("n", [6, 12])
    def test_recursion_fault_fails_jacobi(self, n, write, capsys, monkeypatch):
        # the last entry of every 2 x 2 block the Jacobi recursion ends in is one too
        # large: M_ii and every minor written back from it are wrong
        leaf = engines._Minors._pairs

        def perturbed(table, ix, block, *rest):
            if len(ix) == 2:
                block = [block[0], block[1][:-1] + [block[1][-1] + 1]]
            return leaf(table, ix, block, *rest)

        monkeypatch.setattr(engines._Minors, "_pairs", perturbed)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["verify", path, "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"jacobi"}

    @pytest.mark.parametrize("n", [6, 12])
    def test_split_fault_fails_the_splitting_families(self, n, write, capsys, monkeypatch):
        # the last entry of every shared core elimination's block is one too large, so the
        # halves finished from it are wrong; Jacobi reads only minors of their own
        reduce = engines._reduce

        def perturbed(work, stop, prev):
            sign, last = reduce(work, stop, prev)
            if stop < len(work):
                work[-1][-1] += 1
            return sign, last

        monkeypatch.setattr(engines, "_reduce", perturbed)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["verify", path, "--json"]) == 1
        failing = self._failing(json.loads(capsys.readouterr().out))
        assert failing == {"three-term", "generalized", "pluecker"}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_elimination_fault_fails_every_family(self, n, write, capsys, monkeypatch):
        self._odd_fault(monkeypatch)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["verify", path, "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == set(cli.IDENTITY_NAMES)

    def test_elimination_fault_jacobi_witnesses(self, monkeypatch):
        self._odd_fault(monkeypatch)
        m = parse_matrix(RATIONAL6)
        report = verify_all_jacobi(m)
        nonzero = {}
        for i in range(1, 7):
            for j in range(1, 7):
                if i != j and (residual := jacobi_residual(m, i, j)) != 0:
                    nonzero[i, j] = residual
        assert not report.passed
        assert report.residuals_checked == 30
        assert dict(report.witnesses) == nonzero
        assert len(report.witnesses) == report.nonzero_residuals == len(nonzero) > 0

    def test_elimination_fault_report_is_exact(self, capsys, monkeypatch):
        # every row multiplier differs, so a residual over the wrong denominator, or a
        # witness rounded anywhere, changes these bytes; the digest was first captured
        # when every minor and product was still its own Fraction, and re-pinned when
        # Jacobi pairs moved onto the recursion: its minors do not pass through _bareiss,
        # and the splitting families read the ones it writes back
        self._odd_fault(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(RATIONAL6))
        assert main(["verify", "-", "--json"]) == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "16e21ea9d64c87e70e7f0fb6eef88028ecaa6cdbe9a63e834df9cd165014d743"
        # each splitting family run on its own, where no recursion writes minors back,
        # reports the records the whole report carried before: their own computation is
        # unchanged
        records = []
        for name in ("three-term", "generalized", "pluecker"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(RATIONAL6))
            assert main(["verify", "-", "--identity", name, "--json"]) == 1
            records += json.loads(capsys.readouterr().out)["results"]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "8d6b2f6ffd950cc30cf96884f12510d6829f20e49ef1e747357c5ac834627010"

    # failing reports under the fault, pinned before the splitting sweeps became one
    # batch that labels only nonzero residuals: the witness labels, their order and
    # values, and the nonzero= and (+k more) counts; golden digests see passing reports
    FAILING = {
        "verify-n6": "1c21c178dd756210c2ce3300745af96d7d3075ff6aedb4e904f54a649df40a8a",
        "verify-n12": "b4f6093798d8a415a72db1ba7f72e9f0ab12cb279f562ec74630f1ac31b50e87",
        "fuzz": "9cb78064b54a6c9d03ffa70f756453e6f9d393002f0cd67acb8ba8821892042e",
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_elimination_fault_failing_report_is_pinned(self, case, capsys, monkeypatch):
        self._odd_fault(monkeypatch)
        if case == "fuzz":
            argv = ["fuzz", "--seed", "3", "--trials", "4", "--size-max", "9"]
        else:
            n = int(case.removeprefix("verify-n"))
            matrix = random_matrix(trial_stream(n, 0), n, n, 9)
            monkeypatch.setattr(sys, "stdin", io.StringIO(emit_matrix_text(matrix)))
            argv = ["verify", "-", "--json"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "more)" in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.FAILING[case]

    # failing reports of structural golden inputs: a passing report names only the order
    # and the residual counts, so these pin which matrix each golden case checks.  The
    # singular-core input passes under d -> d + d^3, which maps its zero minors to zero
    GOLDEN_FAILING = {
        "verify-json-q-n6": "5d003a55a085bdbf379587c4de182569ffc5983b020d683bb269d3d3589b0e77",
        "verify-json-q-n9": "2a0cf8464bd20dadcaaab3fea3909d396842e47d273b55ab155ebac6c226bb56",
        "verify-json-chain-stops": (
            "6b0b1c4bf0de74c03f04773b185221ba1946cc907a51ad30d4c315fd35ad0ea9"
        ),
        "verify-json-jacobi-zero-diagonal": (
            "45b93139f9718c8e0d6b19ba8585df157e54ec0a5f8863256cbc16fe1b1d106a"
        ),
        "verify-json-chain-singular-cores": (
            "684273fa7760959ec179bfd0e5521c8bdbecddd0f6842f65f640801d20ea9f42"
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_FAILING))
    def test_elimination_fault_golden_report_is_pinned(self, case, capsys, monkeypatch):
        good = engines._bareiss
        if case == "verify-json-chain-singular-cores":
            monkeypatch.setattr(engines, "_bareiss", lambda *args: good(*args) + 1)
        else:
            self._odd_fault(monkeypatch)
        argv, stdin = CASES[case]
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_FAILING[case]

    def test_elimination_fault_jacobi_matches_the_minor_formula(self, monkeypatch):
        # the recursion's minors never pass through _bareiss, det A does
        self._odd_fault(monkeypatch)
        m = parse_matrix(RATIONAL6)
        det = complementary_minor(m, (), ())
        assert det != det_laplace(m)

        def minor(rows, cols):
            return det_laplace(submatrix_delete(m, rows, cols))

        for i in range(1, 7):
            for j in range(1, 7):
                if i == j:
                    continue
                pair = (min(i, j), max(i, j))
                expected = (
                    minor((i,), (i,)) * minor((j,), (j,))
                    - minor((i,), (j,)) * minor((j,), (i,))
                    - minor(pair, pair) * det
                )
                assert expected != 0
                assert jacobi_residual(m, i, j) == expected

    @pytest.mark.parametrize("n", [3, 8])
    def test_wrong_dodgson_fails_det(self, n, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, "det_dodgson", _wrong_dodgson)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["det", path, "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"engines-agree"}

    def test_wrong_dodgson_fails_fuzz(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "det_dodgson", _wrong_dodgson)
        args = ["fuzz", "--seed", "42", "--trials", "5", "--size-max", "8", "--identity", "jacobi"]
        assert main(args) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"engines"}

    @pytest.mark.parametrize("engine", ["det_laplace", "det_bareiss"])
    def test_wrong_engine_fails_det(self, engine, write, capsys, monkeypatch):
        good = getattr(cli, engine)
        monkeypatch.setattr(cli, engine, lambda m: good(m) + 1)
        assert main(["det", write(GOLDEN_TEXT), "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"engines-agree"}

    @staticmethod
    def _double_first_multiplier(monkeypatch):
        """Every minor keeping row 1, and every determinant, comes out doubled."""
        good = engines._integer_rows

        def doubled(matrix):
            mults, rows = good(matrix)
            return [2 * mults[0], *mults[1:]], rows

        monkeypatch.setattr(engines, "_integer_rows", doubled)

    def test_wrong_shared_clearing_fails_det(self, write, capsys, monkeypatch):
        # Bareiss and Dodgson share one denominator clearing; Laplace does not
        self._double_first_multiplier(monkeypatch)
        assert main(["det", write(RATIONAL3), "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"engines-agree"}

    def test_wrong_shared_clearing_fails_embed(self, write, capsys, monkeypatch):
        # every minor shares that clearing; the Pfaffian embedding does not
        self._double_first_multiplier(monkeypatch)
        assert main(["embed", write(GOLDEN_TEXT), "--minors"]) == 1
        assert self._failing_lines(capsys.readouterr().err) == {"embedding", "embedded-minors"}

    @staticmethod
    def _double_first_skew_multiplier(monkeypatch):
        """Every Pfaffian comes out halved: its integer elimination is divided by
        one multiplier too many."""
        module = importlib.import_module("exactdet.pfaffian")
        good = module._skew_integer

        def doubled(matrix):
            mults, rows = good(matrix)
            return [2 * mults[0], *mults[1:]], rows

        monkeypatch.setattr(module, "_skew_integer", doubled)

    def test_wrong_skew_clearing_fails_pfaffian_square(self, write, capsys, monkeypatch):
        self._double_first_skew_multiplier(monkeypatch)
        assert main(["pfaffian", write(SKEW4), "--check", "square", "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"pfaffian-square"}

    @pytest.mark.parametrize("text", [GOLDEN_TEXT, RATIONAL3], ids=["integer", "rational"])
    def test_wrong_skew_clearing_fails_embed(self, text, write, capsys, monkeypatch):
        # the Pfaffian side has its own clearing; the minors it is checked against do not
        self._double_first_skew_multiplier(monkeypatch)
        assert main(["embed", write(text), "--minors"]) == 1
        assert self._failing_lines(capsys.readouterr().err) == {"embedding", "embedded-minors"}

    @pytest.mark.parametrize(
        "args",
        [
            ["pfaffian", SKEW4, "--check", "recurrence"],
            ["det", RATIONAL3],
            ["verify", FOUR],
        ],
        ids=["pfaffian-recurrence", "det", "verify"],
    )
    def test_wrong_skew_clearing_spares_the_rest(self, args, write, capsys, monkeypatch):
        self._double_first_skew_multiplier(monkeypatch)
        assert main([args[0], write(args[1]), *args[2:]]) == 0

    @staticmethod
    def _failing_lines(text: str) -> set[str]:
        return {
            line.split(" [", 1)[0]
            for line in text.splitlines()
            if line.endswith(": FAIL") and not line.startswith("overall")
        }

    def test_wrong_pfaffian_fails_square_check(self, write, capsys, monkeypatch):
        good = cli.pfaffian
        monkeypatch.setattr(cli, "pfaffian", lambda s: good(s) + 1)
        assert main(["pfaffian", write(SKEW4), "--check", "square", "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"pfaffian-square"}

    def test_wrong_pfaffian_fails_embedding(self, write, capsys, monkeypatch):
        good = cli.pfaffian
        monkeypatch.setattr(cli, "pfaffian", lambda s: good(s) + 1)
        assert main(["embed", write(GOLDEN_TEXT), "--minors"]) == 1
        assert self._failing_lines(capsys.readouterr().err) == {"embedding"}

    def test_wrong_recurrence_fails_pfaffian(self, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, "jacobi_recurrence_residual", lambda s: Fraction(1))
        assert main(["pfaffian", write(SKEW4), "--check", "recurrence", "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == {"pfaffian-recurrence"}

    def test_wrong_embedded_minor_fails_embed(self, write, capsys, monkeypatch):
        good = cli.embedded_minor
        monkeypatch.setattr(cli, "embedded_minor", lambda m, removal: good(m, removal) + 1)
        assert main(["embed", write(GOLDEN_TEXT), "--minors"]) == 1
        assert self._failing_lines(capsys.readouterr().err) == {"embedded-minors"}


@pytest.mark.parametrize("command", [[], ["det"], ["verify"], ["pfaffian"], ["embed"], ["fuzz"]])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("usage: exactdet")
    if not command:
        assert (
            f"sample {cli.SAMPLE_COUNT} seeded choices per family and splitting order" in out
        )


def test_console_entry_point(write):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "exactdet", "det", write(GOLDEN_TEXT)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "value -3" in proc.stdout
