import ast
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from protostream.checkpoint import (
    load_checkpoint, read_matrix_csv, write_csv, write_matrix_csv,
)
from protostream import cli
from protostream.cli import BLAS_THREAD_VARS, main
from protostream.collapse import (
    DEFAULT_EPSILON_GRID, angular_stats, epsilon_sweep, normalize_rows,
)
from protostream.datagen import make_dataset, shuffled_batches
from protostream.mixture import GmmConfig, gmm_update, init_mixture, log_likelihood
from protostream.simulate import sim_config_from_text

SRC = Path(__file__).resolve().parents[1] / "src"

BASE_CONFIG = """
sim.regime=decoupled
sim.prototypes=8
sim.latent_dim=4
sim.hidden=6
sim.epochs=2
sim.batch=32
sim.seed=3
data.classes=4
data.input_dim=6
data.samples=160
data.spread=0.2
"""


# criterion 10's toy experiment
TOY_CONFIG = (
    "sim.regime=decoupled\nsim.prototypes=8\nsim.latent_dim=8\n"
    "sim.hidden=6\nsim.epochs=2\nsim.batch=32\n"
    "data.classes=4\ndata.input_dim=6\ndata.samples=160\n"
)


def python_env():
    """The environment for a child interpreter that imports this source tree."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, text=BASE_CONFIG):
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


def cluster_file(tmp_path, n=96, k=4, d=3, seed=0, name="features.csv"):
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((k, d))
    labels = rng.integers(0, k, size=n)
    pts = centers[labels] + 0.05 * rng.standard_normal((n, d))
    path = tmp_path / name
    write_matrix_csv(pts, path)
    return path, centers


def run_grid(base, workers):
    cfg = write_config(base, BASE_CONFIG.replace("sim.epochs=2", "sim.epochs=1"))
    out = base / "grid"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--grid",
                 "--workers", str(workers)])
    assert code == 0
    return out


def grid_artifacts(out):
    """Bytes of every telemetry file and snapshot under a grid directory."""
    return {str(p.relative_to(out)): p.read_bytes()
            for pattern in ("*/telemetry.csv", "*/snapshots/*.ckpt")
            for p in out.glob(pattern)}


@pytest.fixture(scope="module")
def serial_grid(tmp_path_factory):
    return grid_artifacts(run_grid(tmp_path_factory.mktemp("serial"), 1))


class TestSimulate:
    def test_successful_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        telemetry = (out / "telemetry.csv").read_text().splitlines()
        assert len(telemetry) == 1 + 3  # header + epochs + init row
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["sim.regime"] == "decoupled"

    def test_manifest_records_resolved_horizon(self, tmp_path):
        # gmm.total_steps=0 asks the run to ramp over all of its updates
        config = sim_config_from_text(BASE_CONFIG)
        assert config.gmm.total_steps == 0
        n_train = make_dataset(config.data,
                               np.random.default_rng([config.seed, 0])).x_train.shape[0]
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = config.epochs * math.ceil(n_train / config.batch_size)
        assert manifest["config"]["gmm.total_steps"] == str(want)

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.regym=decoupled\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "sim.regym" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_unexpected_error_writes_manifest_and_reraises(self, tmp_path,
                                                           monkeypatch):
        # a bug or a dead pool worker keeps its traceback and exit status 1,
        # and still leaves a manifest
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_experiment", broken)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="boom"):
            main(["simulate", "--config", str(write_config(tmp_path)),
                  "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "RuntimeError: boom"
        assert manifest["exit_code"] == 1

    def test_missing_config_exit_3(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "run")])
        assert code == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_creates_eight_runs(self, tmp_path, serial_grid, workers,
                                     monkeypatch):
        # the pool pins its workers' BLAS threads, then restores the caller's
        monkeypatch.setenv(BLAS_THREAD_VARS[0], "3")
        monkeypatch.delenv(BLAS_THREAD_VARS[1], raising=False)
        before = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
        out = run_grid(tmp_path, workers)
        assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == before
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 8
        for sub in subdirs:
            assert (sub / "telemetry.csv").exists()
        # worker processes write the same bytes as one process
        assert grid_artifacts(out) == serial_grid
        # the manifest lists every file the grid wrote, snapshots included
        manifest = json.loads((out / "manifest.json").read_text())
        written = {str(p) for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(written)
        assert len(written) == 8 * 3  # telemetry + 2 snapshots per run

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("text, args, key", [
        pytest.param(BASE_CONFIG + "sim.bogus=1\n", [], "sim.bogus", id="unknown-key"),
        pytest.param(BASE_CONFIG, ["--seed", "-1"], "sim.seed", id="negative-seed"),
    ])
    def test_grid_config_error_exit_2(self, tmp_path, capsys, workers, text, args,
                                      key):
        # the config is checked before any worker starts, so a bad value is a
        # user error under any worker count, not a crashed pool
        out = tmp_path / "grid"
        code = main(["simulate", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out), "--grid", "--workers", str(workers), *args])
        assert code == 2
        assert key in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert key in manifest["error"]
        assert not any(p.is_dir() for p in out.iterdir())

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--grid", "--workers", workers])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "--workers" in manifest["error"]
        assert not any(p.is_dir() for p in out.iterdir())

    @pytest.mark.parametrize("key, value", [
        pytest.param("sim.batch", "0", id="0"),
        pytest.param("sim.batch", "-1", id="-1"),
        pytest.param("sim.grad_clip", "0", id="grad-clip-0"),
        pytest.param("sim.grad_clip", "-1", id="grad-clip--1"),
        pytest.param("sim.lr", "-0.5", id="lr--0.5"),
        pytest.param("sim.epochs", "-3", id="epochs--3"),
        pytest.param("sim.view_dropout", "1", id="view-dropout-1"),
        pytest.param("sim.view_dropout", "-0.1", id="view-dropout--0.1"),
    ])
    def test_nonpositive_batch_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, BASE_CONFIG + f"{key}={value}\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert not (out / "telemetry.csv").exists()


class TestAnalyze:
    def test_orthonormal_rows(self, tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        out = tmp_path / "sweep.csv"
        code = main(["analyze", "--protos", str(protos), "--out", str(out),
                     "--epsilons", "0.5"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("0.5,3,1")
        assert (tmp_path / "sweep_angles.csv").exists()

    def test_nan_epsilon_exit_2(self, tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        out = tmp_path / "sweep.csv"
        code = main(["analyze", "--protos", str(protos), "--out", str(out),
                     "--epsilons", "0.5,nan,0.1"])
        assert code == 2
        assert not out.exists()

    def test_non_finite_row_exit_2(self, tmp_path, capsys):
        protos = tmp_path / "protos.csv"
        protos.write_text("d0,d1,d2\n1,0,0\n0,1,0\n0,nan,1\n")
        out = tmp_path / "sweep.csv"
        code = main(["analyze", "--protos", str(protos), "--out", str(out)])
        assert code == 2
        assert "row 4 has a non-finite value" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "mean_angle_deg" not in manifest

    def test_missing_output_directory_created(self, tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        out = tmp_path / "new" / "dir" / "sweep.csv"
        code = main(["analyze", "--protos", str(protos), "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "sweep.csv", "sweep.csv.manifest.json", "sweep_angles.csv"]

    def test_concurrent_angles_match_sequential_calls(self, tmp_path):
        # several row blocks of both count_unique and angular_stats
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 6))
        rows = base[rng.integers(0, 40, size=700)]
        rows += 0.05 * rng.standard_normal(rows.shape)
        protos = tmp_path / "protos.csv"
        write_matrix_csv(rows, protos)
        out = tmp_path / "sweep.csv"
        assert main(["analyze", "--protos", str(protos), "--out", str(out)]) == 0

        normalized = normalize_rows(read_matrix_csv(protos))
        reports = epsilon_sweep(normalized, DEFAULT_EPSILON_GRID)
        stats = angular_stats(normalized)
        edges = stats.hist_edges_deg
        want = tmp_path / "want" / "sweep.csv"
        want.parent.mkdir()
        write_csv(want, ("epsilon", "unique_count", "unique_fraction"),
                  ((r.epsilon, r.unique_count, r.unique_fraction) for r in reports))
        write_csv(want.parent / "sweep_angles.csv", ("angle_deg", "count"),
                  zip(0.5 * (edges[:-1] + edges[1:]), stats.hist_counts))
        for name in ("sweep.csv", "sweep_angles.csv"):
            assert (out.parent / name).read_bytes() == \
                (want.parent / name).read_bytes(), name
        manifest = json.loads((out.parent / "sweep.csv.manifest.json").read_text())
        assert manifest["unique_counts"] == {
            str(r.epsilon): r.unique_count for r in reports}
        assert manifest["min_angle_deg"] == stats.min_deg
        assert manifest["mean_angle_deg"] == stats.mean_deg
        assert manifest["pairs_used"] == stats.n_pairs_used == 700 * 699 // 2
        assert manifest["pairs_subsampled"] is False

    def test_angles_run_on_the_package_helper(self, tmp_path, monkeypatch):
        threads = []

        def recorded(protos):
            threads.append(threading.current_thread().name)
            return angular_stats(protos)

        monkeypatch.setattr(cli, "angular_stats", recorded)
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        assert main(["analyze", "--protos", str(protos),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(threads) == 1 and threads[0].startswith("mixture")

    def test_one_row_writes_no_angles(self, tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.array([[3.0, 4.0, 0.0]]), protos)
        out = tmp_path / "sweep.csv"
        assert main(["analyze", "--protos", str(protos), "--out", str(out),
                     "--epsilons", "0.25,0.5"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "protos.csv", "sweep.csv", "sweep.csv.manifest.json"]
        assert out.read_text().splitlines()[1:] == ["0.25,1,1", "0.5,1,1"]
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["prototype_count"] == 1
        assert manifest["unique_counts"] == {"0.25": 1, "0.5": 1}
        assert not {"min_angle_deg", "mean_angle_deg", "pairs_used",
                    "pairs_subsampled"} & manifest.keys()

    def test_corrupt_magic_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"PDGX" + b"\x00" * 100)
        code = main(["analyze", "--protos", str(bad),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_decoupled_checkpoint_full_uniqueness(self, tmp_path):
        # the no-collapse configuration: slow forgetting, flat responsibilities
        cfg = write_config(tmp_path, BASE_CONFIG + """
sim.latent_dim=8
gmm.eta.start=0.995
gmm.eta.end=0.998
gmm.annealing=false
gmm.beta=0.5
""")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        snapshot = sorted((out / "snapshots").iterdir())[-1]
        sweep = tmp_path / "sweep.csv"
        code = main(["analyze", "--protos", str(snapshot), "--out", str(sweep)])
        assert code == 0
        rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
        assert all(float(r[2]) == 1.0 for r in rows)


class TestExportKde:
    def test_default_kappa_recorded(self, tmp_path):
        protos = tmp_path / "protos.csv"
        rng = np.random.default_rng(1)
        write_matrix_csv(rng.standard_normal((12, 5)), protos)
        prefix = tmp_path / "kde"
        code = main(["export-kde", "--protos", str(protos),
                     "--out-prefix", str(prefix)])
        assert code == 0
        manifest = json.loads((tmp_path / "kde_manifest.json").read_text())
        assert manifest["kappa"] == 20.0
        assert (tmp_path / "kde_gaussian_kde.csv").exists()
        assert (tmp_path / "kde_vmf_kde.csv").exists()

    def test_angular_density_integrates_to_one(self, tmp_path):
        protos = tmp_path / "protos.csv"
        rng = np.random.default_rng(2)
        write_matrix_csv(rng.standard_normal((20, 6)), protos)
        prefix = tmp_path / "kde"
        assert main(["export-kde", "--protos", str(protos),
                     "--out-prefix", str(prefix)]) == 0
        rows = (tmp_path / "kde_vmf_kde.csv").read_text().splitlines()[2:]
        xs = np.array([float(r.split(",")[0]) for r in rows])
        ps = np.array([float(r.split(",")[1]) for r in rows])
        assert np.trapezoid(ps, xs) == pytest.approx(1.0, abs=1e-2)

    def test_raw_flag_is_an_argument_error(self, tmp_path):
        # every export normalizes its rows before PCA
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        with pytest.raises(SystemExit) as err:
            main(["export-kde", "--protos", str(protos),
                  "--out-prefix", str(tmp_path / "kde"), "--raw"])
        assert err.value.code == 2

    def test_two_rows_exit_4(self, tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(2), protos)
        code = main(["export-kde", "--protos", str(protos),
                     "--out-prefix", str(tmp_path / "kde")])
        assert code == 4


class TestClusterStream:
    def test_recovers_cluster_means(self, tmp_path):
        from scipy.optimize import linear_sum_assignment

        # seed chosen so the sampled initial means cover all eight clusters
        features, centers = cluster_file(tmp_path, n=1024, k=8, d=4, seed=1)
        out = tmp_path / "model.ckpt"
        code = main(["cluster-stream", "--features", str(features),
                     "--out", str(out), "-k", "8", "--epochs", "30",
                     "--seed", "1", "--no-forgetting", "--no-annealing",
                     "--no-resurrect"])
        assert code == 0
        state = load_checkpoint(out)
        cost = np.linalg.norm(state.means[:, None, :] - centers[None, :, :], axis=2)
        r, c = linear_sum_assignment(cost)
        assert cost[r, c].max() < 0.1
        loglik = (tmp_path / "model.ckpt.loglik.csv").read_text().splitlines()
        assert loglik[0] == "step,avg_loglik"
        # streaming should improve the data fit
        first = float(loglik[1].split(",")[1])
        last = float(loglik[-1].split(",")[1])
        assert last > first

    def test_manifest_records_mixture_config(self, tmp_path):
        features, _ = cluster_file(tmp_path, n=40)
        out = tmp_path / "m.ckpt"
        code = main(["cluster-stream", "--features", str(features), "--out", str(out),
                     "-k", "3", "--batch-size", "16", "--epochs", "2",
                     "--eta-start", "0.2", "--eta-end", "0.7", "--beta", "0.6",
                     "--resurrect-threshold", "0.05", "--init-variance", "0.25",
                     "--no-annealing", "--no-forgetting"])
        assert code == 0
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["config"] == {
            "gmm.annealing": "False", "gmm.beta": "0.6", "gmm.eta.end": "0.7",
            "gmm.eta.start": "0.2", "gmm.forgetting": "False",
            "gmm.init_variance": "0.25", "gmm.resurrect": "True",
            "gmm.resurrect_threshold": "0.05", "gmm.total_steps": "6",
            "gmm.anneal_start": str(GmmConfig.anneal_start),
        }

    def test_flags_at_field_defaults_change_nothing(self, tmp_path):
        # an omitted gmm.* flag leaves its field's default, so naming that
        # default on the command line must write the same run
        features, _ = cluster_file(tmp_path)
        defaults = ["--eta-start", GmmConfig.eta_start, "--eta-end", GmmConfig.eta_end,
                    "--beta", GmmConfig.beta,
                    "--resurrect-threshold", GmmConfig.resurrect_threshold,
                    "--init-variance", GmmConfig.init_variance]
        runs = {}
        for name, flags in (("bare", []), ("flags", [str(v) for v in defaults])):
            out = tmp_path / f"{name}.ckpt"
            assert main(["cluster-stream", "--features", str(features),
                         "--out", str(out), "-k", "4", "--epochs", "2", "--seed", "3",
                         *flags]) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            runs[name] = (out.read_bytes(), Path(f"{out}.loglik.csv").read_bytes(),
                          manifest["config"])
        assert runs["flags"] == runs["bare"]

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["cluster-stream", "--features", str(empty),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    @pytest.mark.parametrize("batch", ["0", "-4"])
    def test_nonpositive_batch_size_exit_2(self, tmp_path, capsys, batch):
        features, _ = cluster_file(tmp_path)
        out = tmp_path / "m.ckpt"
        code = main(["cluster-stream", "--features", str(features),
                     "--out", str(out), "--batch-size", batch])
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert not out.exists()

    def test_negative_epochs_exit_2(self, tmp_path, capsys):
        features, _ = cluster_file(tmp_path)
        out = tmp_path / "m.ckpt"
        code = main(["cluster-stream", "--features", str(features),
                     "--out", str(out), "--epochs", "-1"])
        assert code == 2
        assert "--epochs" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,key", [
        ("--beta", "2", "gmm.beta"),
        ("--init-variance", "nan", "gmm.init_variance"),
        ("--init-variance", "inf", "gmm.init_variance"),
        ("--resurrect-threshold", "0", "gmm.resurrect_threshold"),
        ("-k", "0", "--components"),
        ("--seed", "-1", "--seed"),
    ])
    def test_out_of_range_flag_names_its_key(self, tmp_path, flag, value, key):
        # the gmm.* flags reach the GmmConfig through its settings keys, and
        # it checks its own ranges; the others are checked by
        # cmd_cluster_stream and named by flag
        features, _ = cluster_file(tmp_path)
        out = tmp_path / "m.ckpt"
        code = main(["cluster-stream", "--features", str(features),
                     "--out", str(out), flag, value])
        assert code == 2
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert repr(key) in manifest["error"]
        assert not out.exists()

    def test_no_rescaling_flag_rejected(self, tmp_path):
        features, _ = cluster_file(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["cluster-stream", "--features", str(features),
                  "--out", str(tmp_path / "m.ckpt"), "--no-rescaling"])
        assert err.value.code == 2

    def test_loglik_equals_replay_with_public_log_likelihood(self, tmp_path):
        features, _ = cluster_file(tmp_path, n=90)
        out = tmp_path / "m.ckpt"
        code = main(["cluster-stream", "--features", str(features), "--out", str(out),
                     "-k", "5", "--batch-size", "16", "--epochs", "3", "--seed", "6",
                     "--resurrect-threshold", "0.25"])
        assert code == 0
        # the same run, with the log-likelihood evaluated before each update
        points = read_matrix_csv(features)
        config = GmmConfig(total_steps=3 * 6, rng_seed=6, resurrect_threshold=0.25)
        state = init_mixture(5, points, config, np.random.default_rng([6, 1]))
        rows = []
        for epoch in range(3):
            order_rng = np.random.default_rng([6, 2, epoch])
            for batch in shuffled_batches(points, 16, order_rng):
                rows.append((state.step, log_likelihood(state, batch)))
                state = gmm_update(state, batch, config).state
        replay = tmp_path / "replay.csv"
        write_csv(replay, ("step", "avg_loglik"), rows)
        assert (tmp_path / "m.ckpt.loglik.csv").read_bytes() == replay.read_bytes()
        saved = load_checkpoint(out).suffstats
        assert saved.s_mu.tobytes() == state.suffstats.s_mu.tobytes()

    def test_single_component_writes_no_warning(self, tmp_path):
        # a lone component has nothing to split: no line per update
        features, _ = cluster_file(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "protostream", "cluster-stream",
             "--features", str(features), "--out", str(tmp_path / "m.ckpt"),
             "-k", "1", "--epochs", "5"],
            env=python_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_log_level_info_prints_splits(self, tmp_path):
        features, _ = cluster_file(tmp_path)
        env = python_env()

        def run(*flags):
            argv = [sys.executable, "-m", "protostream", *flags, "cluster-stream",
                    "--features", str(features), "--out", str(tmp_path / "m.ckpt"),
                    "-k", "8", "--epochs", "2", "--resurrect-threshold", "0.2"]
            done = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stderr

        assert "split step" in run("-v", "info")
        assert "split step" not in run()

    def test_log_level_info_reaches_configured_root_handler(self, tmp_path):
        # a host that configured logging first: basicConfig then does nothing
        features, _ = cluster_file(tmp_path)
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        root, package = logging.getLogger(), logging.getLogger("protostream")
        level = package.level
        root.addHandler(handler)
        try:
            def run(*flags):
                assert main([*flags, "cluster-stream", "--features", str(features),
                             "--out", str(tmp_path / "m.ckpt"), "-k", "8",
                             "--epochs", "2", "--resurrect-threshold", "0.2"]) == 0
                text = stream.getvalue()
                stream.seek(0)
                stream.truncate()
                return text

            assert "split step" in run("-v", "info")
            assert "split step" not in run()
        finally:
            root.removeHandler(handler)
            package.setLevel(level)

    def test_same_seed_bitwise_identical(self, tmp_path):
        features, _ = cluster_file(tmp_path)
        out_a, out_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (out_a, out_b):
            code = main(["cluster-stream", "--features", str(features),
                         "--out", str(out), "-k", "4", "--epochs", "5",
                         "--seed", "11"])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.ckpt.loglik.csv").read_bytes() == \
            (tmp_path / "b.ckpt.loglik.csv").read_bytes()


class TestBlasThreads:
    """``main`` runs a command on one OpenBLAS thread and restores the count."""

    @staticmethod
    def analyze(tmp_path):
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.eye(3), protos)
        assert main(["analyze", "--protos", str(protos),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        return json.loads((tmp_path / "sweep.csv.manifest.json").read_text())

    def test_one_thread_during_the_command_then_restored(self, tmp_path):
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol")
        get, put = threads
        saved = get()
        put(2)
        try:
            manifest = self.analyze(tmp_path)
            assert get() == 2
        finally:
            put(saved)
        assert manifest["blas"]["threads"] == 1
        assert manifest["blas"]["vendor"]

    def test_cluster_stream_bytes_do_not_depend_on_the_callers_threads(self, tmp_path):
        # OpenBLAS's threaded GEMM rounds some (97, 64) x (64, 97) entries
        # differently on AVX-512 hosts; under main's one thread it cannot
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol")
        get, put = threads
        rng = np.random.default_rng(0)
        base = rng.standard_normal((128, 64))
        features = tmp_path / "features.csv"
        write_matrix_csv(base[rng.integers(0, 128, size=4096)]
                         + 0.05 * rng.standard_normal((4096, 64)), features)
        saved = get()
        written = []
        try:
            for count in (1, 2):
                put(count)
                out = tmp_path / f"threads{count}.ckpt"
                assert main(["cluster-stream", "--features", str(features),
                             "--out", str(out), "-k", "97", "--batch-size", "97",
                             "--epochs", "1", "--seed", "1"]) == 0
                written.append((out.read_bytes(),
                                Path(f"{out}.loglik.csv").read_bytes()))
        finally:
            put(saved)
        assert written[0] == written[1]

    def test_missing_symbol_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        manifest = self.analyze(tmp_path)
        assert manifest["blas"]["threads"].startswith("not pinned")


class TestDeterminismAcrossCommands:
    def test_simulate_bitwise_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seed", "5"]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "telemetry.csv").read_bytes() == (b / "telemetry.csv").read_bytes()
        for snap_a, snap_b in zip(sorted((a / "snapshots").iterdir()),
                                  sorted((b / "snapshots").iterdir())):
            assert snap_a.read_bytes() == snap_b.read_bytes()


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


class TestNumpyOnly:
    """The package needs numpy alone at run time; scipy is a test reference."""

    @pytest.mark.parametrize("source, names", [
        ("import scipy", {"scipy"}),
        ("import scipy.special as sp", {"scipy"}),
        ("from scipy.special import i0e", {"scipy"}),
        ("def f():\n    from scipy import special", {"scipy"}),
        ("from .checkpoint import write_csv", set()),
        ("import numpy as np", {"numpy"}),
    ])
    def test_guard_finds_imports(self, source, names):
        assert imported_modules(source) == names

    def test_package_does_not_import_scipy(self):
        found = {p.name for p in sorted((SRC / "protostream").glob("*.py"))
                 if "scipy" in imported_modules(p.read_text())}
        assert found == set()

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        cfg = write_config(tmp_path, TOY_CONFIG)
        features, _ = cluster_file(tmp_path)
        protos = tmp_path / "protos.csv"
        write_matrix_csv(np.random.default_rng(3).standard_normal((16, 6)), protos)
        code = ("import sys; sys.modules['scipy'] = None; "
                "from protostream.cli import main; sys.exit(main(sys.argv[1:]))")
        for argv in (
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")],
            ["analyze", "--protos", str(protos), "--out", str(tmp_path / "sweep.csv")],
            ["export-kde", "--protos", str(protos), "--out-prefix", str(tmp_path / "kde")],
            ["cluster-stream", "--features", str(features),
             "--out", str(tmp_path / "m.ckpt"), "-k", "4", "--epochs", "2"],
        ):
            done = subprocess.run([sys.executable, "-c", code, *argv],
                                  env=python_env(), capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, (argv[0], done.stderr)


def package_imports(source: str) -> set:
    """Modules of this package that ``source`` imports, relatively or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else [node.module])
            names.update(m.split(".")[1] for m in modules
                         if m.startswith("protostream."))
    return names


class TestSettingsTable:
    """The settings table is one leaf module: the other modules declare fields."""

    @pytest.mark.parametrize("source, names", [
        ("from .settings import setting", {"settings"}),
        ("from . import mixture", {"mixture"}),
        ("from protostream.mixture import GmmConfig", {"mixture"}),
        ("import protostream.mixture", {"mixture"}),
        ("import numpy as np", set()),
    ])
    def test_guard_finds_imports(self, source, names):
        assert package_imports(source) == names

    def test_only_settings_defines_errors_or_reads_metadata(self):
        found = set()
        for path in sorted((SRC / "protostream").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.ClassDef) and node.name == "ConfigError"
                        or isinstance(node, ast.Attribute) and node.attr == "metadata"):
                    found.add(path.name)
        assert found == {"settings.py"}

    def test_settings_imports_nothing_from_the_package(self):
        source = (SRC / "protostream" / "settings.py").read_text()
        assert package_imports(source) == set()

    def test_datagen_does_not_import_mixture(self):
        source = (SRC / "protostream" / "datagen.py").read_text()
        assert "mixture" not in package_imports(source)
