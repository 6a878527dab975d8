import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import exactdet.cli as cli
import exactdet.engines as engines
from exactdet import (
    DodgsonResult,
    Matrix,
    complementary_minor,
    det_dodgson,
    emit_matrix_text,
    jacobi_residual,
    parse_matrix,
    verify_all_jacobi,
)
from exactdet.cli import main
from exactdet.randgen import random_matrix, trial_stream
from test_golden import _singular_cores_text, _stopped_chains_text

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

    def test_condensation_too_deep_exits_2_with_own_diagnostic(self, write):
        # a zero matrix's interiors nest one condensation frame per two orders: 200
        # frames here, past a limit of 150 whether or not the interpreter also counts
        # the C call into each frame (3.11 and older do, 3.12 does not)
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
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            "exactdet: error: condensation of order 400 nests deeper than the"
            " recursion limit allows\n"
        )

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
        # 4300 digits pass the index grammar; one more is malformed (above)
        path = write(emit_matrix_text(random_matrix(trial_stream(6, 0), 6, 6, 9)))
        longest = "9" * 4300
        assert main(["verify", path, "--identity", "jacobi", "--pair", f"{longest},2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"exactdet: error: rows ({longest},) ")
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
        def broken(matrix, i, j):
            return Fraction(3, 2) if {i, j} == {1, 2} else Fraction(0)

        monkeypatch.setattr(cli, "jacobi_residual", broken)
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

    # det, the n^2 first minors, the double minors (the principal ones below
    # order 4, where only Jacobi reads them; all C(n,2)^2 from order 4) and, at
    # order 6, the C(6,3)^2 minors of the r = 3 splittings
    @pytest.mark.parametrize("n, eliminations", [(2, 6), (3, 13), (4, 53), (5, 126), (6, 662)])
    def test_verify(self, n, eliminations, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        counts = self._counted(monkeypatch)
        assert main(["verify", path]) == 0
        assert counts == {"_bareiss": eliminations, "_integer_rows": 1}

    # the summed cube of the orders _bareiss eliminates: fresh eliminations of every
    # slice make 29916 at order 6 and 2070070 at order 12, and resumed minors with every
    # half-determinant its own minor 15139 and 964879, so a minor that stops resuming
    # its shared prefix, or a half that stops finishing as an r x r block, fails here
    @pytest.mark.parametrize("n, cubes", [(6, 13875), (12, 92021)])
    def test_verify_resumes_shared_prefixes(self, n, cubes, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        good = engines._bareiss
        orders = []

        def counted(work, *args):
            orders.append(len(work))
            return good(work, *args)

        monkeypatch.setattr(engines, "_bareiss", counted)
        assert main(["verify", path]) == 0
        assert sum(k**3 for k in orders) == cubes

    # the entries every Bareiss step updates, summed over the run: 267784 at order 12
    # and 1358930 at order 18 while each half-determinant of a splitting choice was its
    # own minor, not one core elimination per choice, 4822, 91897 and 415683 while
    # every core elimination resumed the forward chain, however shallow, and 4339, 78875
    # and 371602 while Jacobi asked M_ii and M_jj before the minors deleting both i and j
    @pytest.mark.parametrize("n, cells", [(6, 4285), (12, 78370), (18, 369818)])
    def test_verify_cell_updates(self, n, cells, write, capsys, monkeypatch):
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        good = engines._eliminate
        updates = []

        def counted(work, k, stop, prev):
            reached, last = good(work, k, stop, prev)
            updates.extend((len(work) - t - 1) * (len(work[t]) - t - 1) for t in range(k, reached))
            return reached, last

        monkeypatch.setattr(engines, "_eliminate", counted)
        assert main(["verify", path]) == 0
        assert sum(updates) == cells

    # a chain learns its stop only when a request passes it, so a resume that meets a
    # zero pivot not yet found must ask again: every resume, minor or splitting core,
    # ends as deep as the deeper chain goes under the stops both know after the run
    @pytest.mark.parametrize("text", [_stopped_chains_text, _singular_cores_text])
    def test_every_resume_reaches_the_deeper_chain(self, text, capsys, monkeypatch):
        good = engines._Minors._resume
        resumes = []

        def recorded(table, drop_rows, drop_cols, chosen=()):
            q, sign, work, prev = good(table, drop_rows, drop_cols, chosen)
            step = table.n_rows - len(drop_rows) - len(work)
            resumes.append((table, drop_rows, drop_cols, step))
            return q, sign, work, prev

        monkeypatch.setattr(engines._Minors, "_resume", recorded)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text()))
        assert main(["verify", "-", "--json"]) == 0
        short = []
        for table, drop_rows, drop_cols, step in resumes:
            n = table.n_rows
            ahead = min(min(drop_rows + drop_cols, default=1) - 1, table.forward.stop)
            behind = min(
                n - max(drop_rows, default=n), n - max(drop_cols, default=n), table.backward.stop
            )
            if step != max(ahead, behind):
                short.append((drop_rows, drop_cols, step, max(ahead, behind)))
        assert len(resumes) > 400
        assert short == []

    def test_stopped_chains_store_each_snapshot_once(self, capsys, monkeypatch):
        # both chains stop at step 1 here; a request past a stop gets that snapshot
        # but is not stored under its own key too
        good = engines._Minors.__init__
        tables = []

        def recorded(table, matrix):
            good(table, matrix)
            tables.append(table)

        monkeypatch.setattr(engines._Minors, "__init__", recorded)
        monkeypatch.setattr(sys, "stdin", io.StringIO(_stopped_chains_text()))
        assert main(["verify", "-", "--json"]) == 0
        assert [(t.forward.stop, t.backward.stop) for t in tables if t.n_rows == 14] == [(1, 1)]
        aliases = [
            (chain.flip, key, snap[0])
            for table in tables
            for chain in (table.forward, table.backward)
            for key, snap in chain.items()
            if key != snap[0]
        ]
        assert aliases == []

    def test_embed_minors(self, write, capsys, monkeypatch):
        # det, 25 first minors and 10 principal double minors
        path = write(emit_matrix_text(random_matrix(trial_stream(5, 0), 5, 5, 9)))
        counts = self._counted(monkeypatch)
        assert main(["embed", path, "--minors"]) == 0
        assert counts == {"_bareiss": 36, "_integer_rows": 1}

    def test_pfaffian_square(self, write, capsys, monkeypatch):
        # det_bareiss alone: the Pfaffian neither clears nor eliminates through them
        counts = self._counted(monkeypatch)
        assert main(["pfaffian", write(SKEW4), "--check", "square"]) == 0
        assert counts == {"_bareiss": 1, "_integer_rows": 1}


def _wrong_dodgson(matrix):
    good = det_dodgson(matrix)
    return DodgsonResult(good.value + 1, good.fallback_used, good.fallback_depth)


class TestFaultInjection:
    """Every family's residual seam and the Dodgson engine must be able to fail a run."""

    SWEEP_SEAMS = [
        ("minor_three_term_residual", {"three-term", "pluecker"}),
        ("generalized_pluecker_residual", {"generalized", "pluecker"}),
        ("jacobi_residual", {"jacobi"}),
    ]
    SELECTION_SEAMS = [
        ("minor_three_term_residual", ["three-term", "--rows", "1,2", "--cols", "1,2,3,4"]),
        ("generalized_pluecker_residual", ["generalized", "--rows", "2", "--cols", "1,4"]),
        ("generalized_pluecker_residual", ["generalized", "--rows", "1,3", "--cols", "1,2,3,4"]),
        ("generalized_pluecker_residual", ["pluecker", "--rows", "1", "--cols", "1,2"]),
        ("minor_three_term_residual", ["pluecker", "--rows", "1,2", "--cols", "1,2,3,4"]),
    ]

    @staticmethod
    def _failing(report: dict) -> set[str]:
        return {rec["check"] for rec in report["results"] if not rec["pass"]}

    @pytest.mark.parametrize("seam, families", SWEEP_SEAMS)
    def test_verify_sweep(self, seam, families, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, seam, lambda *args: Fraction(1))
        assert main(["verify", write(FOUR), "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == families

    @pytest.mark.parametrize("seam, families", SWEEP_SEAMS)
    def test_fuzz_sweep(self, seam, families, capsys, monkeypatch):
        monkeypatch.setattr(cli, seam, lambda *args: Fraction(1))
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
    def test_shared_prefix_fault_fails_every_family(self, n, write, capsys, monkeypatch):
        # every snapshot a chain stores past step 0 gets one wrong entry, its last
        build = engines._Chain.__missing__

        def perturbed(chain, depth):
            snap = build(chain, depth)
            step, block, _ = snap
            if step and step == depth:
                block[-1][-1] += 1
            return snap

        monkeypatch.setattr(engines._Chain, "__missing__", perturbed)
        path = write(emit_matrix_text(random_matrix(trial_stream(n, 0), n, n, 9)))
        assert main(["verify", path, "--json"]) == 1
        assert self._failing(json.loads(capsys.readouterr().out)) == set(cli.IDENTITY_NAMES)

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
        # witness rounded anywhere, changes these bytes; the digest was captured when
        # every minor and product was still its own Fraction
        self._odd_fault(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(RATIONAL6))
        assert main(["verify", "-", "--json"]) == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "3d85d363784b9cf4b5b7a242456db4e431d4f2d63eefb9fc063cd56e51306237"

    def test_elimination_fault_jacobi_matches_the_minor_formula(self, monkeypatch):
        self._odd_fault(monkeypatch)
        m = parse_matrix(RATIONAL6)
        for i in range(1, 7):
            for j in range(1, 7):
                if i == j:
                    continue
                pair = (min(i, j), max(i, j))
                expected = (
                    complementary_minor(m, (i,), (i,)) * complementary_minor(m, (j,), (j,))
                    - complementary_minor(m, (i,), (j,)) * complementary_minor(m, (j,), (i,))
                    - complementary_minor(m, pair, pair) * complementary_minor(m, (), ())
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
