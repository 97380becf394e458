import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import RANK2_U, RANK2_V, TRANSACTIONS, exact_residual_sq

import intlowrank
from intlowrank import boxed, cli, matrixio
from intlowrank.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_EMPTY_BOX,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RANK_DEFICIENT,
    EXIT_USAGE,
    main,
)
from intlowrank.matrixio import load_matrix, save_matrix

BEYOND_INT64 = "99999999999999999999"


@pytest.fixture
def counterexample_files(tmp_path):
    h = tmp_path / "H.txt"
    y = tmp_path / "y.txt"
    save_matrix(h, np.array([[8, 1], [9, 2]]))
    save_matrix(y, np.array([[16], [17]]))
    return str(h), str(y)


class TestIlsCommand:
    def test_worked_counterexample(self, counterexample_files, capsys):
        assert main(["ils", *counterexample_files]) == EXIT_OK
        out = capsys.readouterr().out
        assert "x: 2 0" in out
        assert "residual_sq: 1" in out

    def test_identity_echoes_rounded_target(self, tmp_path, capsys):
        save_matrix(tmp_path / "H.txt", np.eye(3, dtype=np.int64))
        save_matrix(tmp_path / "y.txt", np.array([[2.2, -0.6, 5.0]]))
        assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt")]) == EXIT_OK
        assert "x: 2 -1 5" in capsys.readouterr().out

    def test_boxed(self, counterexample_files, capsys):
        assert main(["ils", *counterexample_files, "--box", "0", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "x: 2 0" in out
        assert "search_nodes: 0" in out  # 16 box points, scored

    def test_boxed_float_file_is_searched(self, tmp_path, capsys, monkeypatch):
        def no_score(*args):
            raise AssertionError("a float problem was scored")

        monkeypatch.setattr(boxed, "_score", no_score)
        H, y, box = np.array([[8.0, 1.5], [9.0, 2.0]]), np.array([16.0, 17.0]), (0, 3)
        save_matrix(tmp_path / "H.txt", H)
        save_matrix(tmp_path / "y.txt", y[:, None])
        argv = ["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt"), "--box", "0", "3"]
        assert main(argv) == EXIT_OK
        stats = intlowrank.SearchStats()
        rp, pbox = boxed.mch_reduce(H, y, boxed.BoxConstraint.uniform(2, *box))
        x = rp.Z @ boxed.boxed_search(rp, pbox, stats=stats)
        out = capsys.readouterr().out
        assert f"x: {x[0]} {x[1]}" in out
        assert f"search_nodes: {stats.nodes}" in out and stats.nodes >= 1

    def test_parse_error_exit_code(self, tmp_path, counterexample_files):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3\n")
        assert main(["ils", str(bad), counterexample_files[1]]) == EXIT_USAGE

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys, counterexample_files):
        h_file, y_file = counterexample_files
        y3 = tmp_path / "y3.txt"
        save_matrix(y3, np.array([[1], [2], [3]]))
        assert main(["ils", h_file, str(y3)]) == EXIT_USAGE
        assert_one_error_line(capsys, "H has 2 rows but y has 3")
        h3 = tmp_path / "H3.txt"
        save_matrix(h3, np.eye(3, dtype=np.int64))
        for box in ([], ["--box", "0", "3"]):
            assert main(["ils", str(h3), y_file, *box]) == EXIT_USAGE
            assert_one_error_line(capsys, "H has 3 rows but y has 2")

    def test_rank_deficient_exit_code(self, tmp_path, counterexample_files):
        h = tmp_path / "sing.txt"
        save_matrix(h, np.array([[1, 2], [2, 4]]))
        assert main(["ils", str(h), counterexample_files[1]]) == EXIT_RANK_DEFICIENT

    def test_wide_matrix_exit_code(self, tmp_path, capsys, counterexample_files):
        h = tmp_path / "wide.txt"
        save_matrix(h, np.array([[1, 0, 2], [0, 1, 3]]))
        assert main(["ils", str(h), counterexample_files[1]]) == EXIT_RANK_DEFICIENT
        assert_one_error_line(capsys, "2x3 matrix cannot have full column rank")

    def test_empty_box_exit_code(self, counterexample_files):
        assert main(["ils", *counterexample_files, "--box", "3", "1"]) == EXIT_EMPTY_BOX

    @pytest.mark.parametrize("box", [[], ["--box", "0", "3"]])
    @pytest.mark.parametrize("h_text, y_text, name", [("1 nan\n0 1\n", "1\n2\n", "H"),
                                                      ("1 0\n0 1\n", "1\ninf\n", "y")],
                             ids=["H-nan", "y-inf"])
    def test_non_finite_entry_exit_code(self, tmp_path, capsys, h_text, y_text, name, box):
        (tmp_path / "H.txt").write_text(h_text)
        (tmp_path / "y.txt").write_text(y_text)
        assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt"), *box]) == EXIT_USAGE
        assert_one_error_line(capsys, f"{name} contains non-finite entries")


def assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err


class TestOutOfRangeEntry:
    @pytest.mark.parametrize("command", ["ils", "factorize"])
    def test_integer_beyond_int64_exit_code(self, tmp_path, capsys, command):
        (tmp_path / "A.txt").write_text("1 99999999999999999999\n3 4\n")
        (tmp_path / "y.txt").write_text("1\n2\n")
        args = [str(tmp_path / "y.txt")] if command == "ils" else ["--rank", "1"]
        assert main([command, str(tmp_path / "A.txt"), *args]) == EXIT_USAGE
        assert_one_error_line(capsys, "line 1: integer entry outside the int64 range")

    @pytest.mark.parametrize("command", [
        ["ils", "H.txt", "y.txt", "--box"],
        ["factorize", "H.txt", "--rank", "1", "--box-u"],
        ["factorize", "H.txt", "--rank", "1", "--box-v"],
        ["experiment-distribution", "--n", "4", "--rank", "1", "--trials", "1", "--out", "x.csv",
         "--box"],
        ["experiment-compare", "--n", "4", "--rank", "1", "--trials", "1", "--out", "x.csv",
         "--box"],
    ], ids=["--box", "--box-u", "--box-v", "experiment-distribution", "experiment-compare"])
    @pytest.mark.parametrize("lo, hi", [("0", BEYOND_INT64), (f"-{BEYOND_INT64}", "0")])
    def test_box_bound_beyond_int64_exit_code(self, counterexample_files, capsys, monkeypatch,
                                              command, lo, hi):
        monkeypatch.chdir(Path(counterexample_files[0]).parent)
        assert main([*command, lo, hi]) == EXIT_USAGE
        bound = f"upper bound {hi}" if lo == "0" else f"lower bound {lo}"
        assert_one_error_line(capsys, f"box {bound} is outside the int64 range")
        assert sorted(p.name for p in Path.cwd().iterdir()) == ["H.txt", "y.txt"]

    # The unconstrained optima lie past int64: about (1.5e19, -1.5e19), and
    # 1e310, whose center is inf in float64.
    @pytest.mark.parametrize("h_text, y_text", [("1 0\n0 1\n1 1\n", "3e19\n2\n3\n"),
                                                ("1e-300\n0\n", "1e10\n0\n")],
                             ids=["3e19", "inf-center"])
    def test_search_coordinate_beyond_int64_exit_code(self, tmp_path, capsys, h_text, y_text):
        (tmp_path / "H.txt").write_text(h_text)
        (tmp_path / "y.txt").write_text(y_text)
        assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt")]) == EXIT_USAGE
        assert_one_error_line(capsys, "a search coordinate is outside the int64 range")

    # Every candidate's partial residual, (1e150 * z)^2 for z >= 2**62, is inf.
    def test_partial_residual_overflow_exit_code(self, tmp_path, capsys):
        (tmp_path / "H.txt").write_text("1e150\n")
        (tmp_path / "y.txt").write_text("0\n")
        argv = ["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt"),
                "--box", str(2**62), str(2**63 - 1)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the search's partial residuals all overflow float64\n"

    # The box reordering's centers, about 1e350, overflow float64.
    def test_reordering_center_overflow_exit_code(self, tmp_path, capsys):
        (tmp_path / "H.txt").write_text("1e-200 0\n1e-200 1e-200\n0 0\n")
        (tmp_path / "y.txt").write_text("1e150\n1e150\n0\n")
        argv = ["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt"), "--box", "-3", "3"]
        assert main(argv) == EXIT_USAGE
        assert_one_error_line(capsys, "a center of the box reordering overflows float64")

    # Every reduced coordinate z fits in int64, but the optimum x = Z z,
    # about (1e19, -3e16), does not.
    def test_solution_beyond_int64_exit_code(self, tmp_path, capsys):
        (tmp_path / "H.txt").write_text("3 1000.4\n0 1\n0 0\n")
        (tmp_path / "y.txt").write_text("-12000000000000000\n-30000000000000000\n0\n")
        assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt")]) == EXIT_USAGE
        assert_one_error_line(capsys, "a solution coordinate is outside the int64 range")

    # Finite entries whose squares overflow float64; H has full column rank.
    @pytest.mark.parametrize("box", [[], ["--box", "0", "3"]])
    @pytest.mark.parametrize("h_text, y_text, name", [("1e200 0\n0 1\n1 1\n", "1\n2\n3\n", "H"),
                                                      ("1e160 0\n0 1\n1 1\n", "1\n2\n3\n", "H"),
                                                      ("1 0\n0 1\n1 1\n", "1e200\n2\n3\n", "y")],
                             ids=["H-1e200", "H-1e160", "y-1e200"])
    def test_squared_norm_beyond_float64_exit_code(self, tmp_path, capsys, h_text, y_text, name,
                                                   box):
        (tmp_path / "H.txt").write_text(h_text)
        (tmp_path / "y.txt").write_text(y_text)
        assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt"), *box]) == EXIT_USAGE
        assert_one_error_line(capsys, f"the squared norm of {name} overflows float64")

    def test_init_padding_past_int64_exit_code(self, tmp_path, capsys):
        top = np.iinfo(np.int64).max
        save_matrix(tmp_path / "big.txt", np.array([[top, 1, 2], [top, 3, 4], [top, 5, 7]]))
        assert main(["factorize", str(tmp_path / "big.txt"), "--rank", "2"]) == EXIT_USAGE
        assert_one_error_line(capsys, "column 0 has fewer distinct values (1) than the rank (2)")
        assert [p.name for p in tmp_path.iterdir()] == ["big.txt"]


class TestInvalidInput:
    @pytest.mark.parametrize("command", ["ils", "factorize"])
    def test_file_not_utf8_exit_code(self, tmp_path, capsys, command):
        a = tmp_path / "A.txt"
        a.write_bytes(b"1 2\n\xff 4\n")
        (tmp_path / "y.txt").write_text("1\n2\n")
        args = [str(tmp_path / "y.txt")] if command == "ils" else ["--rank", "1"]
        assert main([command, str(a), *args]) == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot read {a}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command", [
        ["experiment-distribution", "--n", "4", "--rank", "1", "--trials", "1"],
        ["experiment-compare", "--n", "4", "--rank", "1", "--trials", "1"],
        ["factorize", "A.txt", "--rank", "1", "--init", "random"],
        ["factorize", "A.txt", "--rank", "1"],
    ], ids=["experiment-distribution", "experiment-compare", "factorize-random", "factorize"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        save_matrix(tmp_path / "A.txt", np.array([[1, 2], [3, 4]]))
        out = [] if command[0] == "factorize" else ["--out", "x.csv"]
        assert main([*command, "--seed", "-1", *out]) == EXIT_USAGE
        assert_one_error_line(capsys, "--seed must be nonnegative, got -1")
        assert [p.name for p in tmp_path.iterdir()] == ["A.txt"]

    @pytest.mark.parametrize("command", ["experiment-distribution", "experiment-compare"])
    def test_experiment_product_beyond_int64_exit_code(self, tmp_path, capsys, command):
        # Each bound fits int64, but a product of two entries does not.
        out = tmp_path / "x.csv"
        rc = main([command, "--n", "4", "--rank", "1", "--trials", "1",
                   "--box", "0", str(2**63 - 1), "--out", str(out)])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, f"entries in [0, {2**63 - 1}] can leave int64")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment-distribution", "experiment-compare"])
    @pytest.mark.parametrize("args, text", [
        (["--n", "1", "--rank", "1"], "--n must be at least 2"),
        (["--n", "4", "--rank", "1", "--box", "3", "1"], "empty box: empty interval at coordinate 0"),
        (["--n", "4", "--rank", "1", "--trials", "0"], "--trials must be positive"),
    ])
    def test_experiment_params_exit_code(self, tmp_path, capsys, command, args, text):
        out = tmp_path / "x.csv"
        trials = [] if "--trials" in args else ["--trials", "1"]
        code = EXIT_EMPTY_BOX if "--box" in args else EXIT_USAGE  # an empty box, as in ils
        assert main([command, *args, *trials, "--out", str(out)]) == code
        assert_one_error_line(capsys, text)
        assert not out.exists()

    def test_distribution_n_and_a_file_exclude_each_other(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.txt", TRANSACTIONS)
        out = tmp_path / "x.csv"
        rc = main(["experiment-distribution", "--a-file", str(tmp_path / "A.txt"), "--n", "50",
                   "--rank", "1", "--trials", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, "give exactly one of --n and --a-file")
        assert [p.name for p in tmp_path.iterdir()] == ["A.txt"]

    def test_distribution_file_matrix_too_small_for_rank(self, tmp_path, capsys):
        # A 1x5 matrix admits no rank; the error names the matrix, not --n.
        save_matrix(tmp_path / "A.txt", np.array([[1, 2, 3, 4, 5]]))
        rc = main(["experiment-distribution", "--a-file", str(tmp_path / "A.txt"),
                   "--rank", "1", "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, "rank must satisfy 1 <= k < min(m, n) = 1")
        assert [p.name for p in tmp_path.iterdir()] == ["A.txt"]

    def test_factorize_float_matrix_exit_code(self, tmp_path, capsys):
        (tmp_path / "A.txt").write_text("1 2.5 3\n4 5 6\n7 8 9\n")
        assert main(["factorize", str(tmp_path / "A.txt"), "--rank", "1"]) == EXIT_USAGE
        assert_one_error_line(capsys, "integer entries required")
        assert [p.name for p in tmp_path.iterdir()] == ["A.txt"]

    def test_ils_matrix_y_exit_code(self, tmp_path, capsys, counterexample_files):
        (tmp_path / "y22.txt").write_text("1 2\n3 4\n")
        assert main(["ils", counterexample_files[0], str(tmp_path / "y22.txt")]) == EXIT_USAGE
        assert_one_error_line(capsys, "y must be a single row or column, got shape (2, 2)")


class TestUnwritableOutput:
    def test_factorize_out_prefix(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        rc = main(["factorize", str(a), "--rank", "2", "--out-prefix", str(tmp_path / "no" / "o")])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write {tmp_path / 'no' / 'o'}.U.txt")

    def test_factorize_report_path_is_a_directory(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        (tmp_path / "o.report.json").mkdir()
        rc = main(["factorize", str(a), "--rank", "2", "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write {tmp_path / 'o'}.report.json")
        # No factor file and no temporary file is left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["A.txt", "o.report.json"]

    @pytest.mark.parametrize("command", ["experiment-compare", "experiment-distribution"])
    def test_experiment_out(self, tmp_path, capsys, command):
        rank = ["--rank", "1"] if command == "experiment-distribution" else []
        rc = main([command, "--n", "4", *rank, "--trials", "1", "--out", str(tmp_path / "no" / "c.csv")])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write {tmp_path / 'no' / 'c.csv'}")

    @pytest.mark.parametrize("command", ["experiment-compare", "experiment-distribution"])
    def test_experiment_write_failing_part_way(self, tmp_path, capsys, monkeypatch, command):
        fmt_num, calls = cli._fmt_num, []

        def disk_full_after_a_row(v):
            calls.append(v)
            if len(calls) > 12:  # past the footer's values and the first row
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return fmt_num(v)

        monkeypatch.setattr(cli, "_fmt_num", disk_full_after_a_row)
        out = tmp_path / "c.csv"
        rc = main([command, "--n", "4", "--rank", "1", "--trials", "3", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write {out}: {os.strerror(errno.ENOSPC)}")
        assert list(tmp_path.iterdir()) == []


class TestFactorizeCommand:
    def test_worked_boxed_run(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        rc = main(
            [
                "factorize", str(a),
                "--rank", "2",
                "--box-u", "0", "2",
                "--box-v", "0", "4",
                "--out-prefix", str(tmp_path / "run"),
            ]
        )
        assert rc == EXIT_OK
        assert "final_residual: 1" in capsys.readouterr().out
        report = json.loads((tmp_path / "run.report.json").read_text())
        U = load_matrix(tmp_path / "run.U.txt")
        V = load_matrix(tmp_path / "run.V.txt")
        recomputed = int(((TRANSACTIONS - U @ V) ** 2).sum())
        assert report["final_residual"] == recomputed == 1
        assert report["residual_history"][-1] == 1
        assert report["status"] == "converged"
        # Boxes of 9 and 25 points: every row's optimum is scored, with no search.
        assert report["search_nodes_total"] == 0
        assert report["half_sweep_nodes"] == [0, 0, 0, 0]
        assert len(report["half_sweep_nodes"]) == len(report["residual_history"])
        assert sum(report["half_sweep_nodes"]) == report["search_nodes_total"]

    def test_explicit_init_recovers_product(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        v = tmp_path / "V.txt"
        save_matrix(a, RANK2_U @ RANK2_V)
        save_matrix(v, RANK2_V)
        rc = main(["factorize", str(a), "--rank", "2", "--init", str(v),
                   "--out-prefix", str(tmp_path / "rec")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "final_residual: 0" in out
        report = json.loads((tmp_path / "rec.report.json").read_text())
        assert report["residual_history"] == [0]

    def test_most_frequent_init_stays_in_box_v(self, tmp_path, capsys):
        save_matrix(tmp_path / "ones.txt", np.ones((3, 3), dtype=np.int64))
        rc = main(["factorize", str(tmp_path / "ones.txt"), "--rank", "1", "--box-v", "2", "3",
                   "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_OK
        V = load_matrix(tmp_path / "o.V.txt")
        assert ((V >= 2) & (V <= 3)).all()

    def test_explicit_init_outside_box_v_exit_code(self, tmp_path, capsys):
        save_matrix(tmp_path / "ones.txt", np.ones((3, 3), dtype=np.int64))
        save_matrix(tmp_path / "init.txt", np.array([[7, 7, 7]]))
        rc = main(["factorize", str(tmp_path / "ones.txt"), "--rank", "1", "--box-v", "2", "3",
                   "--init", str(tmp_path / "init.txt"), "--out-prefix", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert_one_error_line(capsys, "explicit init has an entry outside the box_v interval [2, 3]")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["init.txt", "ones.txt"]

    def test_residual_mismatch_is_internal_failure(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        monkeypatch.setattr("intlowrank.cli.residual", lambda A, U, V: -1)
        rc = main(["factorize", str(a), "--rank", "2", "--out-prefix", str(tmp_path / "bad")])
        assert rc == EXIT_INTERNAL
        assert "internal consistency failure" in capsys.readouterr().err
        assert not (tmp_path / "bad.report.json").exists()

    def test_digest_is_of_the_bytes_parsed(self, tmp_path, capsys, monkeypatch):
        # The file changes on disk right after it is parsed; the report must
        # still describe the matrix that was factorized.
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        parsed = a.read_bytes()
        parse = matrixio.parse_matrix

        def parse_then_change(text):
            M = parse(text)
            save_matrix(a, TRANSACTIONS + 1)
            return M

        monkeypatch.setattr(matrixio, "parse_matrix", parse_then_change)
        argv = ["factorize", str(a), "--rank", "2", "--out-prefix", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "o.report.json").read_text())
        assert report["input_sha256"] == hashlib.sha256(parsed).hexdigest()
        assert a.read_bytes() != parsed

    def test_non_utf8_message_is_unchanged(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        a.write_bytes(b"1 2\n\xff 4\n")
        assert main(["factorize", str(a), "--rank", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: cannot read {a}: 'utf-8' codec can't decode byte 0xff "
                       "in position 4: invalid start byte\n")

    def test_rank_deficiency_is_in_band(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        v0 = tmp_path / "V0.txt"
        save_matrix(a, TRANSACTIONS)
        save_matrix(v0, np.ones((2, 6), dtype=np.int64))
        rc = main(["factorize", str(a), "--rank", "2", "--init", str(v0),
                   "--out-prefix", str(tmp_path / "fail")])
        assert rc == EXIT_OK
        assert "rank_deficient_failure" in capsys.readouterr().out

    def test_bad_rank_is_parameter_error(self, tmp_path):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        assert main(["factorize", str(a), "--rank", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize("max_sweeps", ["0", "-1"])
    def test_bad_max_sweeps_is_parameter_error(self, tmp_path, capsys, max_sweeps):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        rc = main(["factorize", str(a), "--rank", "2", "--max-sweeps", max_sweeps,
                   "--out-prefix", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert "max_sweeps must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run.V.txt").exists()


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_an_option_does_not_carry_over(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        configs = []
        for extra in (["--box-u", "1", "2", "--seed", "5"], []):
            argv = ["factorize", str(a), "--rank", "2", "--out-prefix", str(tmp_path / "o")]
            assert main(argv + extra) == EXIT_OK
            configs.append(json.loads((tmp_path / "o.report.json").read_text())["config"])
        assert (configs[0]["box_u"], configs[0]["seed"]) == ([1, 2], 5)
        assert (configs[1]["box_u"], configs[1]["seed"]) == (None, 0)

    def test_experiment_box_default_is_kept(self, tmp_path, capsys):
        for extra in (["--box", "0", "3"], []):
            out = tmp_path / "d.csv"
            argv = ["experiment-distribution", "--n", "5", "--rank", "1", "--trials", "1",
                    "--out", str(out)]
            assert main(argv + extra) == EXIT_OK
        assert " box=[1,4] " in out.read_text()


class TestDistributionCommand:
    def run(self, tmp_path, out_name, trials=4, seed=3):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS[:, :5])
        out = tmp_path / out_name
        rc = main(
            [
                "experiment-distribution",
                "--a-file", str(a),
                "--rank", "2",
                "--box", "0", "4",
                "--trials", str(trials),
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        return out.read_text()

    def test_deterministic_and_replayable(self, tmp_path, capsys):
        text1 = self.run(tmp_path, "d1.csv")
        text2 = self.run(tmp_path, "d2.csv")
        assert text1 == text2

        rows = [
            line.split(",")
            for line in text1.splitlines()
            if line and not line.startswith("#") and not line.startswith("trial,")
        ]
        assert len(rows) == 4
        # replay one trial through the factorize command with its recorded seed
        trial, seed, resid, sweeps, status = rows[0]
        capsys.readouterr()
        rc = main(
            [
                "factorize", str(tmp_path / "A.txt"),
                "--rank", "2",
                "--box-u", "0", "4",
                "--box-v", "0", "4",
                "--init", "random",
                "--seed", seed,
                "--out-prefix", str(tmp_path / "replay"),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "replay.report.json").read_text())
        if resid == "FAIL":
            assert report["status"] == "rank_deficient_failure"
        else:
            assert report["final_residual"] == int(resid)

    def test_generated_matrix_mode(self, tmp_path):
        out = tmp_path / "gen.csv"
        rc = main(
            [
                "experiment-distribution",
                "--n", "5",
                "--rank", "2",
                "--box", "1", "3",
                "--trials", "3",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert "# failures:" in out.read_text()

    def test_missing_dims_is_parameter_error(self, tmp_path):
        rc = main(
            [
                "experiment-distribution",
                "--rank", "2",
                "--trials", "2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == EXIT_USAGE


class TestCompareCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        def run(name):
            out = tmp_path / name
            rc = main(
                [
                    "experiment-compare",
                    "--n", "10",
                    "--rank", "2",
                    "--trials", "3",
                    "--seed", "2",
                    "--out", str(out),
                ]
            )
            assert rc == EXIT_OK
            return out.read_text()

        text = run("cmp.csv")
        assert text == run("cmp2.csv")
        assert "percent_superior:" in text
        rows = [
            line.split(",")
            for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("trial,")
        ]
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 9
            for value in (row[3], row[6]):
                assert value == "FAIL" or int(value) >= 0

    def test_rank_default_is_n_over_5(self, tmp_path):
        out = tmp_path / "cmp5.csv"
        rc = main(
            ["experiment-compare", "--n", "10", "--trials", "1", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert "rank=2" in out.read_text()

    def test_bad_params(self, tmp_path):
        rc = main(
            ["experiment-compare", "--n", "4", "--rank", "9", "--trials", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_USAGE


class TestScriptedOracleCorpus:
    def test_ils_command_matches_brute_force(self, tmp_path, capsys):
        from conftest import brute_ils_min, make_ils_instance

        rng = np.random.default_rng(50)
        checked = 0
        while checked < 8:
            n = int(rng.integers(1, 4))
            H, y = make_ils_instance(rng, n)
            oracle = brute_ils_min(H, y)
            if oracle is None:
                continue
            save_matrix(tmp_path / "H.txt", H)
            save_matrix(tmp_path / "y.txt", y.reshape(-1, 1))
            assert main(["ils", str(tmp_path / "H.txt"), str(tmp_path / "y.txt")]) == EXIT_OK
            out = capsys.readouterr().out
            x = np.array([int(t) for t in out.splitlines()[0].split(":")[1].split()])
            assert exact_residual_sq(H, y, x) == oracle
            checked += 1


class TestTrivialExperimentCases:
    def test_singleton_box_distribution_reaches_zero(self, tmp_path):
        out = tmp_path / "single.csv"
        rc = main(
            [
                "experiment-distribution",
                "--n", "4",
                "--rank", "1",
                "--box", "2", "2",
                "--trials", "1",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("trial,")
        ]
        assert rows[0][2] == "0"

    def test_rank_one_comparison_ties_at_zero(self, tmp_path):
        out = tmp_path / "r1.csv"
        rc = main(
            ["experiment-compare", "--n", "5", "--rank", "1", "--trials", "5",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == EXIT_OK
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("trial,")
        ]
        pairs = [(int(r[3]), int(r[6])) for r in rows if r[3] != "FAIL" and r[6] != "FAIL"]
        assert any(a == 0 and b == 0 for a, b in pairs)
        assert all(a <= b for a, b in pairs)


class TestFactorizeEmptyBox:
    def test_empty_factor_box_exit_code(self, tmp_path):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)
        rc = main(["factorize", str(a), "--rank", "2", "--box-u", "3", "1"])
        assert rc == EXIT_EMPTY_BOX


class TestDistributionRankValidation:
    def test_rank_too_large_for_file_matrix(self, tmp_path):
        a = tmp_path / "A.txt"
        save_matrix(a, TRANSACTIONS)  # 5x6, so rank must stay below 5
        rc = main(
            ["experiment-distribution", "--a-file", str(a), "--rank", "5",
             "--trials", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == EXIT_USAGE


class TestClosedStdout:
    def test_closed_pipe_exits_without_traceback(self, counterexample_files):
        # The reading end is closed before the command starts, so its
        # first write to stdout fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(intlowrank.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "intlowrank", "ils", *counterexample_files],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
