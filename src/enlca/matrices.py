"""Dense float64 matrix substrate with deterministic, seeded randomness.

Feature maps are stored channels-by-positions: a c x N matrix holds one
c-dimensional feature vector per spatial position (column). Everything here
is a pure function of its inputs; arrays are never mutated after validation.

Randomness is counter-based: every stream is a Philox4x64 bit generator
keyed by the pair (seed, stream_id), so identical specs reproduce identical
draws and distinct stream ids are independent. Gaussian variates come from
numpy's ziggurat transform on that stream.
"""

from __future__ import annotations

import math
import numbers
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

__all__ = [
    "FormatError",
    "NumericError",
    "RngSpec",
    "ShapeError",
    "as_matrix",
    "as_vector",
    "check_settings",
    "gaussian_sample",
    "normalize_columns",
    "read_matrix_csv",
    "write_matrix_csv",
]

_U64_MAX = 2**64 - 1

# The float-range rule of both attention paths, whose value rows enter at
# unit scale (_unit_exponent): every bound keeps what it bounds under half of
# float64's largest value, so the rounding of exp and of sums cannot carry
# it past. U, the largest exponent that goes to exp unshifted, is half of
# that log range, 354.5: a key weight exp(-|k_j|^2 / 2 - S) of the forward
# is at least its key's largest feature over e^U, so a weight times a value
# and a shifted feature times it keep the same room above the subnormals.
_LOG_HALF_MAX = math.log(np.finfo(np.float64).max / 2)
_UNSHIFTED_MAX = 0.5 * _LOG_HALF_MAX


def _headroom(terms: float) -> float:
    """min(U, log(MAX / 2) - log(terms)): `terms` terms, each at most exp of
    it, sum below half of float64's largest value."""
    return min(_UNSHIFTED_MAX, _LOG_HALF_MAX - math.log(terms))


def _unit_exponent(v: np.ndarray) -> np.ndarray:
    """e_r per row r of v, as a column, with max|v_r| 2^-e_r in [0.5, 1) (0 for a zero
    row): scaling is exact, and each attention output row reads one value row."""
    return np.frexp(np.maximum(v.max(axis=1), -v.min(axis=1)))[1][:, None]


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized C-ordered float64 array of `shape` whose data starts
    on a 64-byte boundary, carved from an np.empty seven elements longer.

    Every N-sized block that either attention path, or phi, writes in place
    comes from here, so that the AVX-512 passes of numpy's exp, divide and
    ldexp and of the GEMMs load no vector across two cache lines; later
    rows start on a line too when the row length is a multiple of 8. Blocks
    that malloc put 16, 32 or 48 bytes past a line ran slower
    (`BENCH_aligned.json` `inproc_offsets`).
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    first = (-raw.ctypes.data % 64) // 8
    return raw[first:first + size].reshape(shape)


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """A value is non-finite where finite reals are required."""


class FormatError(ValueError):
    """Serialized matrix data could not be parsed."""


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(name: str, value):
    """value, if it is a real number and not a bool; else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def check_settings(*, k_amp=None, **counts) -> None:
    """The one range check of the settings a caller requests, shared by
    the library and the CLI: each count or size passed by name (m, n, c,
    c_out, c_in, c_embed, trials, repeats, rows, cols, height, width) a
    Python or numpy integer >= 1, never rounded and not a bool, then
    amplification k_amp, a real number and not a bool, >= 1 and finite. A
    setting left at None is not checked. Raises ValueError naming the first
    setting out of range and its value."""
    for name, value in counts.items():
        if value is None:
            continue
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if k_amp is not None and not _real("k_amp", k_amp) >= 1.0:
        raise ValueError(f"k_amp must be >= 1, got {k_amp}")
    if k_amp == math.inf:
        raise ValueError(f"k_amp must be finite, got {k_amp}")


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate `data` as a finite float64 2-D array and return it.

    Accepts anything array-like. Rejects empty shapes, non-2-D input and
    NaN/Inf entries, naming the first as (row, column). The result is
    C-contiguous and safe to treat as immutable (a copy is made unless
    `data` already complies).
    """
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, got {a.shape}")
    _screen_finite(a, name)
    return np.ascontiguousarray(a)


def _screen_finite(a: np.ndarray, name: str) -> None:
    """NumericError naming a's first non-finite entry by its index; only a
    sum that is not finite, as NaN and inf make it, sends a to that scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    if not np.isfinite(total):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            raise NumericError(f"{name} has a non-finite entry at ({', '.join(map(str, bad[0]))})")


def _matrix_pair(a, b, name_a: str, name_b: str):
    """a and b validated by as_matrix under their names, with the one
    equal-shape rule for a pair of operands."""
    a = as_matrix(a, name_a)
    b = as_matrix(b, name_b)
    if a.shape != b.shape:
        raise ShapeError(f"{name_a} and {name_b} need equal shapes, got {a.shape} vs {b.shape}")
    return a, b


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Validate `data` as a finite float64 1-D array and return it; a
    NaN/Inf entry is named as (index)."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.size < 1:
        raise ShapeError(f"{name} must be non-empty")
    _screen_finite(v, name)
    return np.ascontiguousarray(v)


@dataclass(frozen=True)
class RngSpec:
    """Identifies one reproducible random stream.

    seed selects the experiment, stream_id a substream within it (trial
    index, input slot, ...). Both are 64-bit unsigned, given as Python or
    numpy integers (not bools) and stored as int; the pair is the Philox
    key, so any two distinct specs yield independent streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for field in ("seed", "stream_id"):
            value = getattr(self, field)
            if not _is_integer(value) or not (0 <= value <= _U64_MAX):
                raise ValueError(f"{field} must be an integer in [0, 2^64), got {value!r}")
            object.__setattr__(self, field, int(value))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, offset: int) -> "RngSpec":
        """Derived spec with stream_id shifted by `offset`, a Python or
        numpy integer (mod 2^64)."""
        if not _is_integer(offset):
            raise ValueError(f"offset must be an integer, got {offset!r}")
        return RngSpec(self.seed, (self.stream_id + int(offset)) % (_U64_MAX + 1))


def gaussian_sample(rng: RngSpec, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of iid standard normals from the given stream."""
    check_settings(rows=rows, cols=cols)
    return rng.generator().standard_normal((rows, cols))


def normalize_columns(a) -> np.ndarray:
    """Scale each column to unit norm; columns with norm below 1e-12 are
    divided by 1e-12 instead (so zero columns stay zero). A column whose
    sum of squares overflows is first divided by its max |entry|."""
    a = as_matrix(a)
    with np.errstate(over="ignore"):
        sq = (a * a).sum(axis=0)
    out = a / np.maximum(np.sqrt(sq), 1e-12)
    big = np.isinf(sq)
    scaled = a[:, big] / np.abs(a[:, big]).max(axis=0)
    out[:, big] = scaled / np.sqrt((scaled * scaled).sum(axis=0))
    return out


# ---------------------------------------------------------------------------
# Interchange format: "rows,cols", then one line of comma-separated reals per
# row, written by repr, which round-trips float64 bit for bit.
# ---------------------------------------------------------------------------


@contextmanager
def _open_for(target, mode: str):
    """Yield a file for `target`: a path is opened in `mode` (as UTF-8 in
    text modes) and closed on exit; an already open file is yielded as is
    and left open."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding=None if "b" in mode else "utf-8") as fp:
            yield fp
    else:
        yield target


def write_matrix_csv(a, dest: Union[str, Path, IO[str]]) -> None:
    """Write a matrix in the canonical CSV interchange format."""
    a = as_matrix(a)
    with _open_for(dest, "w") as fp:
        fp.write(f"{a.shape[0]},{a.shape[1]}\n")
        for row in a:  # one row of Python floats at a time keeps the peak small
            fp.write(",".join(map(repr, row.tolist())))
            fp.write("\n")


def read_matrix_csv(src: Union[str, Path, IO[str]]) -> np.ndarray:
    """Parse the canonical CSV format; inverse of write_matrix_csv.

    The lines after the header go through numpy's C tokenizer: blank lines
    are skipped, spaces around a value and CRLF line ends are accepted, and
    spellings beyond plain decimals, such as `1_000` or hex, are rejected.
    An open text stream is read from its current position, which must be
    the start of the header line. A malformed line is reported by its line
    number in the file, counting the header and blank lines."""
    with _open_for(src, "r") as fp:
        try:
            rows, cols = _csv_shape(fp.readline())
            body_start = _position(fp)
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below by its row count
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    body = _parse_rows(fp)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise FormatError(_first_bad_line(fp, body_start, cols, exc)) from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text ({exc.reason})") from None
    if body.shape[0] != rows:
        raise FormatError(f"expected {rows} data lines, found {body.shape[0]}")
    if body.shape[1] != cols:
        raise FormatError(f"expected {cols} values per line, got {body.shape[1]}")
    return as_matrix(body, "CSV matrix")


def _position(fp):
    """fp.tell(), or None for a stream that cannot tell: a pipe, or a file
    that the caller is iterating."""
    try:
        return fp.tell()
    except OSError:
        return None


def _parse_rows(lines) -> np.ndarray:
    """The CSV data lines as a 2-D float64 array, by numpy's C tokenizer."""
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _first_bad_line(fp, body_start, cols: int, exc: ValueError) -> str:
    """Where the data lines, which numpy rejected, first break the format:
    the line number in the file and the count or the value at fault. Only
    runs after a failed read. A source without a position to seek back to
    gets numpy's reason without its row numbers, which skip blank lines."""
    if body_start is not None:
        fp.seek(body_start)
        for number, line in enumerate(fp, start=2):
            fields = line.rstrip("\r\n").split(",")
            if fields == [""]:
                continue  # a blank line, skipped as the tokenizer skips it
            if len(fields) != cols:
                return f"line {number}: expected {cols} values, got {len(fields)}"
            if _parses(line):
                continue
            for column, field in enumerate(fields, start=1):
                if not _parses(field):
                    return f"line {number}, value {column}: cannot read {field.strip()!r} as a number"
    return f"after the header: {str(exc).split(' at row ')[0]}"


def _parses(text: str) -> bool:
    """Whether text is not blank and the tokenizer reads it."""
    if not text.strip():
        return False
    try:
        _parse_rows([text])
    except ValueError:
        return False
    return True


def _csv_shape(line: str) -> tuple:
    """(rows, cols) declared by the CSV header line "rows,cols"."""
    if not line:
        raise FormatError("empty input, expected a rows,cols header")
    line = line.rstrip("\r\n")
    header = line.split(",")
    if len(header) != 2:
        raise FormatError(f"header must be 'rows,cols', got {line!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"header must hold two integers, got {line!r}") from None
    if rows < 1 or cols < 1:
        raise FormatError(f"header declares empty shape {rows}x{cols}")
    return rows, cols
