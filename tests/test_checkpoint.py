import ast
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import protostream
from protostream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_matrix,
    read_matrix_csv,
    save_checkpoint,
    write_csv,
    write_matrix_csv,
)
from protostream.mixture import GmmConfig, gmm_update, m_step

import oracles


def trained_state(seed=0, steps=5, k=4, d=3):
    rng = np.random.default_rng(seed)
    config = GmmConfig(total_steps=steps, rng_seed=seed)
    state = oracles.random_mixture(k, d, rng)
    for _ in range(steps):
        state = gmm_update(state, rng.standard_normal((32, d)), config).state
    return state


class TestBinaryRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        state = trained_state()
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        assert path.stat().st_size == 24 + 8 * state.k * (1 + 2 * state.d)
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.weights.tobytes() == state.weights.tobytes()
        assert loaded.means.tobytes() == state.means.tobytes()
        assert loaded.variances.tobytes() == state.variances.tobytes()
        assert loaded.suffstats.s_pi.tobytes() == state.suffstats.s_pi.tobytes()
        assert loaded.suffstats.s_mu.tobytes() == state.suffstats.s_mu.tobytes()
        assert loaded.suffstats.s_sigma.tobytes() == state.suffstats.s_sigma.tobytes()

    def test_step_zero_state_reloads_as_held(self, tmp_path):
        config = GmmConfig(init_variance=1.0 / 64.0)
        state = oracles.random_mixture(1024, 64, np.random.default_rng(0),
                                       config.init_variance)
        path = tmp_path / "step0.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        for got, want in zip((loaded.weights, loaded.means, loaded.variances),
                             (state.weights, state.means, state.variances)):
            assert got.tobytes() == want.tobytes()

    def test_fresh_state_round_trip(self, tmp_path):
        state = oracles.random_mixture(3, 2, np.random.default_rng(1))
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 0
        # the seeded pseudo-counts are stored: one observation in total
        s_pi, s_mu, s_sigma = oracles.oracle_init_suffstats(
            state.means, state.variances, 1.0
        )
        np.testing.assert_allclose(loaded.suffstats.s_pi, s_pi, atol=1e-15)
        np.testing.assert_allclose(loaded.suffstats.s_mu, s_mu, atol=1e-15)
        np.testing.assert_allclose(loaded.suffstats.s_sigma, s_sigma, atol=1e-15)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        save_checkpoint(trained_state(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="unsupported version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_truncated_payload(self, tmp_path):
        state = trained_state()
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


# K=4, D=3: a 24-byte header, then counts (4) and first and second moments
# (12 each), 8 bytes per value
ARRAY_OFFSETS = {"counts": 24, "first": 56, "second": 152}


class TestCheckpointValidation:
    @pytest.mark.parametrize("array, index, value, rule, reported", [
        pytest.param("second", 5, float("inf"), "non-finite", "second",
                     id="inf-moment"),
        pytest.param("counts", 2, float("nan"), "non-finite", "counts",
                     id="nan-count"),
        pytest.param("counts", 3, -0.5, "non-positive counts", "counts",
                     id="negative-count"),
        pytest.param("counts", 1, 0.0, "non-positive counts", "counts",
                     id="zero-count"),
        pytest.param("second", 4, -1e-3, "negative second moments", "second",
                     id="negative-second-moment"),
        # the smallest subnormal count overflows its component's mean
        pytest.param("counts", 1, 5e-324, "non-finite means", "first",
                     id="subnormal-count"),
    ])
    def test_corrupt_value_rejected_with_offset(self, tmp_path, array, index,
                                                value, rule, reported):
        path = tmp_path / "state.ckpt"
        save_checkpoint(trained_state(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, ARRAY_OFFSETS[array] + 8 * index, value)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=rule) as err:
            load_checkpoint(path)
        assert err.value.offset == ARRAY_OFFSETS[reported]

    def test_overflowing_count_sum_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(trained_state(), path)
        data = bytearray(path.read_bytes())
        for index in (0, 1):  # each count is finite, their sum is not
            struct.pack_into("<d", data, ARRAY_OFFSETS["counts"] + 8 * index, 1e308)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="overflow") as err:
            load_checkpoint(path)
        assert err.value.offset == ARRAY_OFFSETS["counts"]

    def test_mean_with_overflowing_square_rejected(self, tmp_path):
        # K=1, D=1: the mean 1e200 squares to inf, so the variance before
        # the floor is 1.0 - inf
        path = tmp_path / "huge.ckpt"
        path.write_bytes(struct.pack("<4sIIIQddd", b"PDGM", 2, 1, 1, 0,
                                     1.0, 1e200, 1.0))
        with pytest.raises(CheckpointError, match="non-finite variances") as err:
            load_checkpoint(path)
        assert err.value.offset == 24 + 8 + 8

    @pytest.mark.parametrize("k, d, offset", [
        pytest.param(0, 3, 8, id="K"),
        pytest.param(4, 0, 12, id="D"),
    ])
    def test_zero_dimension_rejected(self, tmp_path, k, d, offset):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(struct.pack("<4sIIIQ", b"PDGM", 2, k, d, 5))
        with pytest.raises(CheckpointError, match="=0 in header") as err:
            load_checkpoint(path)
        assert err.value.offset == offset

    def test_edited_first_moment_moves_mean(self, tmp_path):
        path = tmp_path / "state.ckpt"
        state = trained_state()
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        at = ARRAY_OFFSETS["first"] + 8 * (3 * 2 + 1)  # component 2, coordinate 1
        count = state.suffstats.s_pi[2]
        struct.pack_into("<d", data, at, state.suffstats.s_mu[2, 1] + 0.5 * count)
        path.write_bytes(bytes(data))
        loaded = load_checkpoint(path)
        np.testing.assert_allclose(loaded.means[2, 1], state.means[2, 1] + 0.5)
        others = np.ones(state.means.shape, dtype=bool)
        others[2, 1] = False
        assert np.array_equal(loaded.means[others], state.means[others])
        derived = m_step(loaded.suffstats, GmmConfig.variance_floor)
        for got, want in zip((loaded.weights, loaded.means, loaded.variances),
                             derived):
            assert got.tobytes() == want.tobytes()


# cells both readers accept with equal values; the bad ones, including
# non-finite values, both refuse at the same row (the reader also refuses
# "1_0", which float() accepts, so the grammar leaves it out)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_GOOD_CELLS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: format(v, ".17g")),
    _FLOATS.map(lambda v: format(v, ".6e")),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+1", "-0", ".5", "5.", "1E-3", " 2", "3 ", "\t4", "4.9e-324"]),
)
_BAD_CELLS = st.sampled_from(["", "x", "1.2.3", "#3", "1e", "--1", "0x10", "nan",
                              "inf", "-Infinity", "1e400"])


@st.composite
def csv_files(draw):
    """A matrix CSV with LF or CRLF lines, blank lines and a few faults."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_GOOD_CELLS, min_size=d, max_size=d),
                         min_size=1, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        rows = []
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["cell", "drop", "extra"]))
        if fault == "cell":
            row[j] = draw(_BAD_CELLS)
        elif fault == "drop" and len(row) > 1:
            del row[j]
        else:
            row.insert(j, draw(_GOOD_CELLS))
    header = ",".join(f"d{i}" for i in range(d))
    header = draw(st.sampled_from([header] * 12 + ["d1", "x,y", ""]))
    lines = [header] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


_VALID_CHECKPOINT = []


def valid_checkpoint_bytes(tmp_path) -> bytes:
    if not _VALID_CHECKPOINT:
        path = tmp_path / "valid.ckpt"
        save_checkpoint(trained_state(), path)
        _VALID_CHECKPOINT.append(path.read_bytes())
    return _VALID_CHECKPOINT[0]


class TestCorruptionProperty:
    """A damaged checkpoint is refused, or loads as a consistent state."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_refused_or_consistent(self, tmp_path, data):
        blob = bytearray(valid_checkpoint_bytes(tmp_path))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            for _ in range(data.draw(st.integers(1, 8), label="bytes")):
                at = data.draw(st.integers(0, len(blob) - 1), label="offset")
                blob[at] = data.draw(st.integers(0, 255), label="value")
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(bytes(blob))
        try:
            state = load_checkpoint(path)
        except CheckpointError:
            return
        stats = state.suffstats
        for arr in (state.weights, state.means, state.variances,
                    stats.s_pi, stats.s_mu, stats.s_sigma):
            assert np.isfinite(arr).all()
        assert np.all(state.weights >= 0.0)
        assert abs(state.weights.sum() - 1.0) <= 1e-9
        assert np.all(state.variances >= GmmConfig.variance_floor)
        # a loaded state's statistics give finite parameters without overflow
        with np.errstate(over="raise", invalid="raise"):
            weights, means, variances = m_step(stats, GmmConfig.variance_floor)
        assert np.array_equal(state.weights, weights)
        assert np.array_equal(state.means, means)
        assert np.array_equal(state.variances, variances)


class TestCsv:
    def test_matrix_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 4)) * np.pi
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert back.tobytes() == m.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CheckpointError):
            read_matrix_csv(path)

    @staticmethod
    def rejected(tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        with pytest.raises(CheckpointError) as err:
            read_matrix_csv(path)
        return err.value

    def test_ragged_row_reports_offset(self, tmp_path):
        err = self.rejected(tmp_path, "d0,d1\n1,2\n3\n")
        assert "row 3 has 1 values, expected 2" in str(err)
        assert err.offset == len("d0,d1\n1,2\n")

    def test_non_numeric_cell_reports_row_and_offset(self, tmp_path):
        err = self.rejected(tmp_path, "d0,d1\n1,2\n\n3,4\n5,x\n6,7\n")
        assert "row 5 is not numeric" in str(err)
        assert err.offset == len("d0,d1\n1,2\n\n3,4\n")

    @pytest.mark.parametrize("text", ["d0,d1\n", "d0,d1", "d0,d1\n\n\r\n"])
    def test_header_only_has_no_data_rows(self, tmp_path, text):
        err = self.rejected(tmp_path, text)
        assert "no data rows" in str(err)
        assert err.offset == len(text)

    @pytest.mark.parametrize("row", ["#3,4", "3,4#5"])
    def test_hash_is_not_a_comment(self, tmp_path, row):
        err = self.rejected(tmp_path, f"d0,d1\n1,2\n{row}\n")
        assert "row 3 is not numeric" in str(err)
        assert err.offset == len("d0,d1\n1,2\n")

    def test_underscore_digits_rejected(self, tmp_path):
        # float() reads "1_0" as 10.0; numpy's parser, and so the reader, does not
        assert float("1_0") == 10.0
        err = self.rejected(tmp_path, "d0,d1\n1,2\n1_0,3\n")
        assert "row 3 is not numeric" in str(err)
        assert err.offset == len("d0,d1\n1,2\n")

    def test_whitespace_only_line_is_a_row(self, tmp_path):
        # only an empty line is skipped; one holding spaces is a bad row
        err = self.rejected(tmp_path, "d0\n1\n  \n2\n")
        assert "row 3 is not numeric" in str(err)
        assert err.offset == len("d0\n1\n")

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"d0\n1\r2\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0], [2.0]])
        err = self.rejected(tmp_path, b"d0\n1\rx\n3\n")
        assert "row 3 is not numeric" in str(err)
        assert err.offset == len("d0\n1\r")

    @pytest.mark.parametrize("text", [
        "d0,d1\r\n1.5,-2e-3\r\n3,4\r\n",
        "d0,d1\n\n1.5,-2e-3\n\n\n3,4\n\n",
        "d0,d1\r\n\r\n1.5,-2e-3\n\r\n3,4",
        "d0,d1\n 1.5 ,\t-2e-3\n3,4\n",
    ], ids=["crlf", "blank-lines", "mixed", "padded-cells"])
    def test_line_endings_and_blank_lines_parse_like_lf(self, tmp_path, text):
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        lf.write_bytes(b"d0,d1\n1.5,-2e-3\n3,4\n")
        other.write_bytes(text.encode())
        assert read_matrix_csv(other).tobytes() == read_matrix_csv(lf).tobytes()

    @pytest.mark.parametrize("text, shape", [
        ("d0,d1,d2\n1,2,3\n", (1, 3)),
        ("d0\n1\n2\n", (2, 1)),
        ("d0\n5", (1, 1)),
    ])
    def test_one_row_and_one_column_stay_two_dimensional(self, tmp_path, text, shape):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert read_matrix_csv(path).shape == shape

    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_agrees_with_list_based_reader(self, tmp_path, data):
        text = data.draw(csv_files())
        path = tmp_path / "drawn.csv"
        path.write_bytes(text)
        try:
            want = ("ok", oracles.oracle_read_matrix_csv(text).tobytes())
        except oracles.OracleCsvError as err:
            want = ("error", err.row, err.offset)
        try:
            got = ("ok", read_matrix_csv(path).tobytes())
        except CheckpointError as err:
            row = re.match(r"row (\d+) ", str(err))
            got = ("error", row and int(row.group(1)), err.offset)
        assert got == want

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_offset(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        # a blank line before the bad row: the row number counts file lines
        path.write_text(f"d0,d1\n1,2\n\n3,{cell}\n4,5\n")
        with pytest.raises(CheckpointError) as err:
            read_matrix_csv(path)
        assert "row 4 " in str(err.value)
        assert err.value.offset == len("d0,d1\n1,2\n\n")


class TestLoadMatrix:
    def test_sniffs_checkpoint(self, tmp_path):
        state = trained_state()
        path = tmp_path / "s.ckpt"
        save_checkpoint(state, path)
        m = load_matrix(path)
        assert m.tobytes() == state.means.tobytes()

    def test_sniffs_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((5, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(mat, path)
        m = load_matrix(path)
        assert m.tobytes() == mat.tobytes()


class TestAtomicWrite:
    def _rows_then_fail(self):
        yield (1, 2.5)
        raise RuntimeError("killed mid-write")

    def test_failed_csv_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b"), [(0, 0.5)])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="killed"):
            write_csv(path, ("a", "b"), self._rows_then_fail())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_failed_checkpoint_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "state.ckpt"
        state = trained_state()
        save_checkpoint(state, path)
        before = path.read_bytes()
        # the last array cannot be converted, so the header and two arrays
        # are already written when the save fails
        broken = SimpleNamespace(
            k=state.k, d=state.d, step=state.step,
            suffstats=SimpleNamespace(s_pi=state.suffstats.s_pi,
                                      s_mu=state.suffstats.s_mu,
                                      s_sigma=["not a number"]))
        with pytest.raises(ValueError):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    def test_comment_and_header_lines(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ("x", "prob"), [(1, 2)], comment="kappa=20")
        assert path.read_text() == "# kappa=20\nx,prob\n1,2\n"

    @pytest.mark.parametrize("value, text", [
        pytest.param(3, "3", id="int"),
        pytest.param(np.intp(-7), "-7", id="intp"),
        pytest.param(0.1, "0.10000000000000001", id="float"),
        pytest.param(np.float64(1.0) / 3.0, "0.33333333333333331", id="float64"),
        pytest.param(float("nan"), "nan", id="nan"),
        pytest.param(-0.0, "-0", id="negative-zero"),
        pytest.param(np.float64(2.0), "2", id="integral-float64"),
    ])
    def test_cell_format(self, tmp_path, value, text):
        path = tmp_path / "cell.csv"
        write_csv(path, ("v",), [(value,)])
        assert path.read_text().splitlines()[1] == text


# calls that can create or change a file, other than through atomic_open
_WRITE_METHODS = ("write_text", "write_bytes")


def _open_mode(call: ast.Call):
    """The mode node of an ``open(path, mode)`` or ``path.open(mode)`` call."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    at = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[at] if len(call.args) > at else None


def file_writes(source: str) -> list:
    """Line numbers of calls in ``source`` that open a file for writing,
    outside the body of a function named ``atomic_open``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "atomic_open":
            allowed.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in _WRITE_METHODS:
            lines.append(node.lineno)
        elif name == "open":
            mode = _open_mode(node)
            if mode is None:
                continue  # read mode by default
            if (not isinstance(mode, ast.Constant) or not isinstance(mode.value, str)
                    or set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return sorted(lines)


class TestSingleWriter:
    @pytest.mark.parametrize("source, lines", [
        ('open(p, "w")', [1]),
        ('open(p, mode="ab")', [1]),
        ('open(p, "xb")', [1]),
        ('open(p, "r+")', [1]),
        ('open(p, m)', [1]),
        ('Path(p).open("w")', [1]),
        ('p.write_text("x")', [1]),
        ('p.write_bytes(b"x")', [1]),
        ('open(p)\nopen(p, "rb")\nPath(p).open()', []),
        ('def atomic_open(p, mode):\n    open(p, mode)', []),
    ])
    def test_guard_detects_writes(self, source, lines):
        assert file_writes(source) == lines

    def test_package_writes_only_through_atomic_open(self):
        package = Path(protostream.__file__).parent
        found = {p.name: file_writes(p.read_text())
                 for p in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines} == {}
