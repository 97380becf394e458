import warnings

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


PARSE_CORPUS = [
    "# header\n1 2\n\n  # another\n3 4  # trailing\n",
    "1 2 # a, b\n3 4\n",
    "1,2\n3,4\n",
    "1,,2\n3 4 5\n",
    "1, 2 ,3\n",
    "1 2\r\n3 4\r\n",
    "1 2\r3 4\r",
    "1 2\r\n3 4\r5 6\n",
    "1 2\x0c3 4\n",
    "1 2\x1c3 4\n",
    "1 2\x0b3 4\n",
    "1 2\x853 4\n",
    "1 2\u20283 4\n",
    "1\xa02\n3 4\n",
    "1\t2\n\t3 4\t\n",
    "1\x1f2\n3 4\n",
    "+5 -3\n0012 -0\n",
    "1_000 2\n",
    "\u0663 4\n",
    "1.5 2\n-0.25 3e2\n",
    "1e3 2\n",
    "inf 1\nnan 2\n",
    "0x10 1\n",
    "-9223372036854775808 9223372036854775807\n0 1\n",
    "9223372036854775808 1\n",
    "1 2\n# comment\n3 -9223372036854775809\n",
    "1 2\n3\n",
    "1\n2 3\n",
    "",
    "\n \n\t\n",
    "# nothing here\n",
    "1 2 3 4\n",
    "7\n-8\n9",
    "1 x\n",
    "12#3\n4\n",
]


def _parse_matrix_reference(text):
    """parse_matrix as it was before its np.loadtxt fast path."""
    rows = []
    width = None
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixParseError(
                f"line {lineno}: expected {width} entries, found {len(tokens)}"
            )
        rows.append((lineno, tokens))
    if not rows:
        raise MatrixParseError("no matrix rows found")
    i64 = np.iinfo(np.int64)
    try:
        return np.array([[int(t) for t in toks] for _, toks in rows], dtype=np.int64)
    except OverflowError:
        lineno = next(n for n, toks in rows if any(not i64.min <= int(t) <= i64.max for t in toks))
        raise MatrixParseError(f"line {lineno}: integer entry outside the int64 range") from None
    except ValueError:
        pass
    try:
        return np.array([[float(t) for t in toks] for _, toks in rows], dtype=float)
    except ValueError as exc:
        raise MatrixParseError(f"non-numeric entry: {exc}") from None


def _parsed(parse, text):
    """(dtype, shape, values) or the MatrixParseError message, and any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            M = parse(text)
            out = (M.dtype, M.shape, M.tobytes())
        except MatrixParseError as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


class TestParseOracle:
    @pytest.mark.parametrize("text", PARSE_CORPUS)
    def test_matches_reference_parser(self, text):
        out, caught = _parsed(parse_matrix, text)
        assert caught == []
        assert out == _parsed(_parse_matrix_reference, text)[0]


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
        save_matrix(path, M)
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
