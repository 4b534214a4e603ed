import ast
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
from protostream.mixture import GmmConfig, gmm_update, init_mixture, m_step

import oracles


def trained_state(seed=0, steps=5, k=4, d=3):
    rng = np.random.default_rng(seed)
    config = GmmConfig(total_steps=steps, rng_seed=seed)
    state = init_mixture(k, d, rng=rng)
    for _ in range(steps):
        state = gmm_update(state, rng.standard_normal((32, d)), config)
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

    def test_fresh_state_round_trip(self, tmp_path):
        state = init_mixture(3, 2, rng=np.random.default_rng(1))
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

    def test_ragged_row_reports_offset(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("d0,d1\n1,2\n3\n")
        with pytest.raises(CheckpointError) as err:
            read_matrix_csv(path)
        assert err.value.offset > 0

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
