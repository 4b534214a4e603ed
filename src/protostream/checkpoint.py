"""Binary and CSV serialization, and the one way an artifact reaches disk.

Every file the package writes (checkpoints, CSVs, run manifests) goes
through ``atomic_open``, so a killed run leaves the previous file or the
whole new one, never a truncated file that parses as complete.  ``write_csv``
holds the CSV text format on top of it.

Checkpoint layout (little-endian, version 2): magic ``PDGM``, u32 version,
u32 K, u32 D, u64 step, then the sufficient statistics: counts (K f64),
first moments (K*D f64 row-major) and second moments (K*D f64), all
per-sample averages.  The statistics are the whole state of stepwise EM, so
the file stores no parameters: ``load_checkpoint`` builds the state with
``MixtureState.from_stats``, which derives the parameters as every state
does, and a saved state reloads with the weights, means and variances it
had in memory, a state built from parameters alone included.  Files of any
other version, including version 1 (which also stored the parameters), are
refused.

``load_checkpoint`` rejects a zero K or D, non-finite values, non-positive
counts or counts whose sum overflows, negative second moments, and
statistics whose means, or variances before the floor, are not finite,
naming the offending field's byte offset.
``read_matrix_csv`` checks the header line, then parses the rows with
numpy's C reader (``np.loadtxt``), whose number syntax and line ends (LF,
CRLF or a lone CR) define the format.  When that parse fails, or gives the
wrong width or a non-finite value, a rescan of the rows with the same parser
names the first bad row and its byte offset: ragged rows and non-numeric
cells first, else non-finite ones.  The rescan never returns a matrix.
"""

from __future__ import annotations

import os
import struct
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .mixture import MixtureState, SufficientStats

MAGIC = b"PDGM"
VERSION = 2

_HEADER = struct.Struct("<4sIIIQ")
_ARRAYS = ("counts", "first moments", "second moments")


class CheckpointError(ValueError):
    """Malformed checkpoint or matrix file; carries the failing byte offset."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open ``path`` for writing; the file appears under its name only whole.

    Writes go to the sibling ``path.name + ".tmp"``, which ``os.replace``
    moves onto ``path`` when the block exits normally and which is unlinked
    when it raises.  There is no fsync: the aim is a killed process, not
    power loss.  The suffix keeps partial files out of ``*.csv`` and
    ``*.ckpt`` globs; two writers must not share a path, as they would share
    the temporary file.  Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_csv(path: str | Path, header, rows, comment: str | None = None) -> None:
    """Write an optional ``# comment`` line, the header and the rows, atomically.

    ``rows`` is any iterable of cell sequences and is consumed one row at a
    time.  A float cell (``np.float64`` included) is written with
    ``format(v, ".17g")``, any other cell with ``str(v)``.
    """
    with atomic_open(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def save_checkpoint(state: MixtureState, path: str | Path) -> None:
    stats = state.suffstats
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, state.k, state.d, state.step))
        for arr in (stats.s_pi, stats.s_mu, stats.s_sigma):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> MixtureState:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CheckpointError("file too short for header", len(header))
        magic, version, k, d, step = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}", 0)
        if version != VERSION:
            raise CheckpointError(f"unsupported version {version}", 4)
        for name, value, at in (("K", k, 8), ("D", d, 12)):
            if value == 0:
                raise CheckpointError(f"{name}=0 in header", at)
        offset = _HEADER.size
        sizes = [k, k * d, k * d]
        expected = offset + 8 * sum(sizes)
        if file_size != expected:
            raise CheckpointError(
                f"expected {expected} bytes for K={k}, D={d}, got {file_size}",
                min(file_size, expected),
            )
        # each array is read straight into its own buffer: no file-sized copy
        # of the payload
        arrays, starts = [], []
        for name, size in zip(_ARRAYS, sizes):
            arr = np.empty(size, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"truncated {name}", offset)
            arr = arr.astype(np.float64, copy=False)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite {name}", offset)
            arrays.append(arr)
            starts.append(offset)
            offset += 8 * size
    s_pi, s_mu, s_sigma = arrays
    if np.any(s_pi <= 0.0):
        raise CheckpointError("non-positive counts", starts[0])
    if np.any(s_sigma < 0.0):
        raise CheckpointError("negative second moments", starts[2])
    stats = SufficientStats(s_pi, s_mu.reshape(k, d), s_sigma.reshape(k, d))
    # huge counts can overflow their sum and tiny ones a mean: both reported
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(s_pi.sum()):  # else every weight would be zero
            raise CheckpointError("counts overflow their sum", starts[0])
        state = MixtureState.from_stats(stats, int(step))
        # a mean whose square overflows gives a variance of -inf before the
        # floor, which would hide it
        squares = state.means * state.means
    for name, arr, at in (("means", state.means, starts[1]),
                          ("variances", state.variances, starts[2]),
                          ("variances", squares, starts[2])):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"statistics give non-finite {name}", at)
    return state


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as CSV with header ``d0,...,d{D-1}`` and 17-digit floats."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    # one row of Python floats at a time: formatted as np.float64 cells are,
    # only faster, and without a copy of the matrix as Python objects
    write_csv(path, [f"d{i}" for i in range(matrix.shape[1])],
              (row.tolist() for row in matrix))


def _loadtxt(source, skiprows: int = 0) -> np.ndarray:
    """numpy's C float parser on ``,``-separated rows; ``#`` is not a comment.

    Its "input contained no data" warning is raised as an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return np.loadtxt(source, delimiter=",", skiprows=skiprows, ndmin=2,
                          comments=None, encoding="utf-8")


def _data_lines(text: bytes):
    """Yield (line number, byte offset, line) of each non-empty row.

    Lines end at LF, CRLF or a lone CR, as numpy's reader splits them, and
    only a line with nothing before its end is skipped.
    """
    offset = 0
    for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
        body = line.rstrip(b"\r\n")
        if lineno > 1 and body:
            yield lineno, offset, body
        offset += len(line)


def _raise_first_bad_row(text: bytes, ncols: int):
    """Name the first ragged or non-numeric row, else the first non-finite one.

    Each row goes through the same parser as the whole file, so the row
    named is one the file's parse cannot accept.  Never returns.
    """
    non_finite = None
    rows = 0
    for lineno, offset, body in _data_lines(text):
        rows += 1
        cells = body.split(b",")
        if len(cells) != ncols:
            raise CheckpointError(
                f"row {lineno} has {len(cells)} values, expected {ncols}", offset
            )
        try:
            row = _loadtxt([body.decode()])
        except (ValueError, UserWarning):
            raise CheckpointError(f"row {lineno} is not numeric", offset) from None
        if non_finite is None and not np.isfinite(row).all():
            non_finite = CheckpointError(f"row {lineno} has a non-finite value", offset)
    if non_finite is not None:
        raise non_finite
    if not rows:
        raise CheckpointError("matrix file has no data rows", len(text))
    raise CheckpointError("matrix file could not be parsed", 0)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        first = fh.readline()
    header = first.splitlines()[0] if first else b""
    header = header.decode("utf-8", errors="replace").strip()
    if not header:
        raise CheckpointError("empty matrix file", 0)
    cols = header.split(",")
    if cols != [f"d{i}" for i in range(len(cols))]:
        raise CheckpointError(f"bad header {header!r}", 0)
    # the C parser reads the path itself: through an open binary handle it
    # took almost twice as long
    try:
        matrix = _loadtxt(path, skiprows=1)
        if matrix.shape[1] == len(cols) and np.isfinite(matrix).all():
            return matrix
    except (ValueError, UserWarning):
        pass
    _raise_first_bad_row(Path(path).read_bytes(), len(cols))


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a row matrix from either a checkpoint (its means) or a CSV file."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_checkpoint(path).means
    return read_matrix_csv(path)
