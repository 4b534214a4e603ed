"""Binary and CSV serialization, and the one way an artifact reaches disk.

Every file the package writes (checkpoints, CSVs, run manifests) goes
through ``atomic_open``, so a killed run leaves the previous file or the
whole new one, never a truncated file that parses as complete.  ``write_csv``
holds the CSV text format on top of it.

Checkpoint layout (little-endian, version 2): magic ``PDGM``, u32 version,
u32 K, u32 D, u64 step, then the sufficient statistics: counts (K f64),
first moments (K*D f64 row-major) and second moments (K*D f64), all
per-sample averages.  The statistics are the whole state of stepwise EM, so
the file stores no parameters: ``load_checkpoint`` returns ``m_step`` of the
statistics under the fixed ``GmmConfig.variance_floor``, and a loaded
state's weights, means and variances agree with its statistics by
construction.  A state built from parameters alone stores its seeded
pseudo-counts.  Files of any other version, including version 1 (which also
stored the parameters), are refused.

``load_checkpoint`` rejects a zero K or D, non-finite values, non-positive
counts or counts whose sum overflows, negative second moments, and statistics whose means or variances
are not finite, naming the offending field's byte offset.
``read_matrix_csv`` rejects a bad header, ragged rows and non-numeric or
non-finite cells, naming the row and its byte offset.
"""

from __future__ import annotations

import itertools
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .mixture import GmmConfig, MixtureState, SufficientStats, m_step

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
    the temporary file.
    """
    path = Path(path)
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
        weights, means, variances = m_step(stats, GmmConfig.variance_floor)
    for name, arr, at in (("means", means, starts[1]),
                          ("variances", variances, starts[2])):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"statistics give non-finite {name}", at)
    return MixtureState(weights, means, variances, stats, int(step))


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as CSV with header ``d0,...,d{D-1}`` and 17-digit floats."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    write_csv(path, [f"d{i}" for i in range(matrix.shape[1])], matrix)


def _data_lines(lines: list):
    """Yield (line number, byte offset, stripped line) of each non-blank row."""
    offset = len(lines[0]) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if stripped:
            yield lineno, offset, stripped
        offset += len(line) + 1


def read_matrix_csv(path: str | Path) -> np.ndarray:
    text = Path(path).read_bytes()
    lines = text.split(b"\n")
    if not lines or not lines[0].strip():
        raise CheckpointError("empty matrix file", 0)
    header = lines[0].decode("utf-8", errors="replace").strip()
    cols = header.split(",")
    if cols != [f"d{i}" for i in range(len(cols))]:
        raise CheckpointError(f"bad header {header!r}", 0)
    rows = []
    for lineno, offset, stripped in _data_lines(lines):
        parts = stripped.split(b",")
        if len(parts) != len(cols):
            raise CheckpointError(
                f"row {lineno} has {len(parts)} values, expected {len(cols)}",
                offset,
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CheckpointError(f"row {lineno} is not numeric", offset) from None
    if not rows:
        raise CheckpointError("matrix file has no data rows", len(text))
    matrix = np.array(rows, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        lineno, offset, _ = next(itertools.islice(_data_lines(lines), bad, None))
        raise CheckpointError(f"row {lineno} has a non-finite value", offset)
    return matrix


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a row matrix from either a checkpoint (its means) or a CSV file."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_checkpoint(path).means
    return read_matrix_csv(path)
