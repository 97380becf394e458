import numpy as np
import pytest

from intlowrank.exceptions import MatrixParseError
from intlowrank.matrixio import (
    as_vector,
    format_matrix,
    load_matrix,
    parse_matrix,
    save_matrix,
)


class TestParse:
    def test_whitespace_and_commas(self):
        M = parse_matrix("1 2, 3\n4,5 6\n")
        assert M.dtype == np.int64
        assert np.array_equal(M, [[1, 2, 3], [4, 5, 6]])

    def test_comments_and_blank_lines(self):
        text = "# header\n1 2\n\n  # another\n3 4  # trailing\n"
        assert np.array_equal(parse_matrix(text), [[1, 2], [3, 4]])

    def test_floats(self):
        M = parse_matrix("1.5 2\n-0.25 3e2\n")
        assert M.dtype == np.float64
        assert np.allclose(M, [[1.5, 2.0], [-0.25, 300.0]])

    def test_ragged_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 2\n3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1 x\n")

    def test_empty_rejected(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("# nothing here\n")

    def test_int64_limits_load(self):
        M = parse_matrix("-9223372036854775808 9223372036854775807\n0 1\n")
        assert M.dtype == np.int64
        assert M[0, 0] == np.iinfo(np.int64).min and M[0, 1] == np.iinfo(np.int64).max

    @pytest.mark.parametrize("entry", ["99999999999999999999", "-9223372036854775809"])
    def test_integer_beyond_int64_names_its_line(self, entry):
        with pytest.raises(MatrixParseError, match="line 3: integer entry outside the int64 range"):
            parse_matrix(f"1 2\n# comment\n3 {entry}\n")


class TestRoundTrip:
    def test_int_round_trip(self):
        rng = np.random.default_rng(40)
        M = rng.integers(-10**9, 10**9, size=(7, 4))
        assert np.array_equal(parse_matrix(format_matrix(M)), M)

    def test_float_round_trip_is_exact(self):
        rng = np.random.default_rng(41)
        M = rng.normal(size=(5, 3))
        assert np.array_equal(parse_matrix(format_matrix(M)), M)

    def test_file_round_trip(self, tmp_path):
        M = np.array([[1, -2], [3, 4]])
        path = tmp_path / "m.txt"
        save_matrix(path, M, comment="demo matrix")
        assert np.array_equal(load_matrix(path), M)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixParseError):
            load_matrix(tmp_path / "absent.txt")


class TestAsVector:
    def test_row_and_column(self):
        assert np.array_equal(as_vector(np.array([[1, 2, 3]])), [1, 2, 3])
        assert np.array_equal(as_vector(np.array([[1], [2]])), [1, 2])

    def test_matrix_rejected(self):
        with pytest.raises(MatrixParseError):
            as_vector(np.ones((2, 2)))
