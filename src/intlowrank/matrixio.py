"""Plain-text matrix files: one row per line, whitespace or comma separated.

Lines starting with '#' (or trailing '# ...' fragments) are comments.
Integer grids load as int64, anything else as float64. Emitted text
round-trips exactly through the parser.
"""

import warnings

import numpy as np

from .exceptions import MatrixParseError

_I64 = np.iinfo(np.int64)


def _parse_int64(text):
    """The int64 grid np.loadtxt reads from text's lines, or None.

    loadtxt gets the lines of str.splitlines, as the general parser does,
    and within an ASCII line both split tokens at the same whitespace and
    cut comments at '#'. Text that is not ASCII, has commas (separators
    here, not to loadtxt), or makes loadtxt raise or warn gets None.
    """
    if not text.isascii() or "," in text:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text.splitlines(), dtype=np.int64, comments="#", ndmin=2)
        except (ValueError, Warning):
            return None


def parse_matrix(text):
    text = str(text)
    M = _parse_int64(text)
    if M is not None:
        return M
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    try:
        return np.array([[int(t) for t in toks] for _, toks in rows], dtype=np.int64)
    except OverflowError:
        lineno = next(n for n, toks in rows if any(not _I64.min <= int(t) <= _I64.max for t in toks))
        raise MatrixParseError(f"line {lineno}: integer entry outside the int64 range") from None
    except ValueError:
        pass
    try:
        return np.array([[float(t) for t in toks] for _, toks in rows], dtype=float)
    except ValueError as exc:
        raise MatrixParseError(f"non-numeric entry: {exc}") from None


def read_matrix(path):
    """(data, M): the bytes of the file at path and the matrix they hold, from one read.

    A file that cannot be read, or is not UTF-8, is a MatrixParseError "cannot read ...".
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from None
    return data, parse_matrix(text)


def load_matrix(path):
    return read_matrix(path)[1]


def format_matrix(M):
    M = np.atleast_2d(np.asarray(M))
    if np.issubdtype(M.dtype, np.integer):
        lines = [" ".join(str(int(v)) for v in row) for row in M]
    else:
        lines = [" ".join(repr(float(v)) for v in row) for row in M]
    return "\n".join(lines) + "\n"


def save_matrix(path, M):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(M))


def as_vector(M, name="vector"):
    """Interpret a 1 x k or k x 1 (or flat) matrix as a vector."""
    M = np.asarray(M)
    if M.ndim == 1:
        return M
    if M.ndim == 2 and 1 in M.shape:
        return M.ravel()
    raise MatrixParseError(f"{name} must be a single row or column, got shape {M.shape}")
