import struct

import numpy as np
import pytest

from protostream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_matrix,
    read_matrix_csv,
    save_checkpoint,
    save_state_csv,
    write_matrix_csv,
)
from protostream.mixture import GmmConfig, gmm_update, init_mixture

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

    def test_zero_statistics_load_seeded(self, tmp_path):
        # older code saved a state before its first update with zero statistics
        state = init_mixture(3, 2, rng=np.random.default_rng(1))
        path = tmp_path / "old.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        stats_at = 24 + 8 * (3 + 6 + 6)  # header, weights, means, variances
        path.write_bytes(data[:stats_at] + bytes(len(data) - stats_at))
        loaded = load_checkpoint(path)
        for name in ("s_pi", "s_mu", "s_sigma"):
            assert (getattr(loaded.suffstats, name).tobytes()
                    == getattr(state.suffstats, name).tobytes())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        state = trained_state()
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


# K=4, D=3: a 24-byte header, then weights (4), means (12), variances (12),
# counts (4), first and second moments (12 each), 8 bytes per value
ARRAY_OFFSETS = {"weights": 24, "means": 56, "variances": 152, "counts": 248,
                 "first": 280, "second": 376}


class TestCheckpointValidation:
    @pytest.mark.parametrize("array, index, value, rule", [
        pytest.param("weights", 1, float("nan"), "non-finite", id="nan-weight"),
        pytest.param("second", 5, float("inf"), "non-finite", id="inf-moment"),
        pytest.param("weights", 2, -0.25, "simplex", id="negative-weight"),
        pytest.param("weights", 0, None, "simplex", id="weight-sum"),
        pytest.param("variances", 4, -1.0, "non-positive variances",
                     id="negative-variance"),
        pytest.param("variances", 0, 0.0, "non-positive variances",
                     id="zero-variance"),
        pytest.param("counts", 3, -0.5, "negative or mix zero",
                     id="negative-count"),
        pytest.param("counts", 1, 0.0, "negative or mix zero", id="zero-count"),
    ])
    def test_corrupt_value_rejected_with_offset(self, tmp_path, array, index,
                                                value, rule):
        path = tmp_path / "state.ckpt"
        save_checkpoint(trained_state(), path)
        data = bytearray(path.read_bytes())
        at = ARRAY_OFFSETS[array] + 8 * index
        if value is None:  # move the weight sum 1e-6 off one
            value = struct.unpack_from("<d", data, at)[0] + 1e-6
        struct.pack_into("<d", data, at, value)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=rule) as err:
            load_checkpoint(path)
        assert err.value.offset == ARRAY_OFFSETS[array]


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

    def test_state_csv_export(self, tmp_path):
        state = trained_state()
        files = save_state_csv(state, tmp_path / "dump")
        names = {f.name for f in files}
        assert names == {"weights.csv", "means.csv", "variances.csv",
                         "s_pi.csv", "s_mu.csv", "s_sigma.csv"}
        means = read_matrix_csv(tmp_path / "dump" / "means.csv")
        assert means.tobytes() == state.means.tobytes()


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
