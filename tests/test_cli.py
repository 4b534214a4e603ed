import ast
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import protostream
from protostream.checkpoint import (
    load_checkpoint, read_matrix_csv, save_checkpoint, write_csv, write_matrix_csv,
)
from protostream import cli, cores, mixture, simulate
from protostream.cli import main
from protostream.collapse import (
    DEFAULT_EPSILON_GRID, angular_stats, epsilon_sweep, normalize_rows,
)
from protostream.cores import BLAS_THREAD_VARS
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

    def test_grid_manifest_records_the_shared_config(self, tmp_path):
        # BASE_CONFIG sets no toggle, so every toggle keeps its default, True;
        # a grid records the file's config with the horizon its runs resolved,
        # as a plain run of the file does
        out = run_grid(tmp_path, 1)
        grid = json.loads((out / "manifest.json").read_text())["config"]
        for toggle in cli.ABLATION_TOGGLES:
            assert grid[f"gmm.{toggle}"] == "True"
        plain = tmp_path / "plain"
        assert main(["simulate", "--config", str(tmp_path / "experiment.cfg"),
                     "--out", str(plain)]) == 0
        assert grid == json.loads((plain / "manifest.json").read_text())["config"]

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
        assert len(threads) == 1 and threads[0].startswith("cores")

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

    def test_zero_epochs_saves_the_initial_mixture(self, tmp_path):
        features, _ = cluster_file(tmp_path)
        out = tmp_path / "m.ckpt"
        assert main(["cluster-stream", "--features", str(features), "--out", str(out),
                     "-k", "4", "--epochs", "0", "--seed", "5"]) == 0
        # an empty stream still ramps over one step, and saves its start
        config = GmmConfig(total_steps=1, rng_seed=5)
        rows = read_matrix_csv(features)
        want = tmp_path / "init.ckpt"
        save_checkpoint(init_mixture(4, rows, config, np.random.default_rng([5, 1])),
                        want)
        assert out.read_bytes() == want.read_bytes()
        assert Path(f"{out}.loglik.csv").read_text() == "step,avg_loglik\n"
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["final_avg_loglik"] is None
        assert manifest["steps"] == 0
        assert manifest["config"]["gmm.total_steps"] == "1"

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
        threads = cores.openblas_threads()
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
        threads = cores.openblas_threads()
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

    def test_run_experiment_runs_on_one_thread_and_restores_the_callers(
            self, tmp_path, monkeypatch):
        # a library caller gets the CLI's pinning: the helper thread is the
        # run's one parallelism, and the caller's count comes back after it
        threads = cores.openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol")
        get, put = threads
        seen, init_sim = [], simulate.init_sim
        monkeypatch.setattr(simulate, "init_sim",
                            lambda config: seen.append(get()) or init_sim(config))
        config = sim_config_from_text(BASE_CONFIG)
        saved = get()
        written = []
        try:
            for count in (1, 2):
                put(count)
                out = tmp_path / f"threads{count}"
                simulate.run_experiment(config, out)
                assert get() == count
                written.append(sorted((p.relative_to(out), p.read_bytes())
                                      for p in out.rglob("*") if p.is_file()))
        finally:
            put(saved)
        assert seen == [1, 1]
        assert written[0] == written[1] and len(written[0]) == 4

    def test_concurrent_runs_restore_the_callers_count(self):
        # each run saves and restores the process's one count; interleaved
        # they must still leave the caller's, not an inner run's 1
        threads = cores.openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol")
        get, put = threads
        config = sim_config_from_text(BASE_CONFIG)
        saved, interval = get(), sys.getswitchinterval()
        put(2)
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(simulate.run_experiment, config)
                        for _ in range(8)]
                for run in runs:
                    run.result(timeout=60)
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(saved)

    def test_concurrent_pools_restore_the_callers_variables(self, monkeypatch):
        # the second pool starts while the first runs and outlasts it, so
        # the variables it finds set are the first pool's, not the caller's
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with ThreadPoolExecutor(2) as callers:
            first = callers.submit(cores.process_map, abs, [-1, -2], 2)
            time.sleep(0.05)
            second = callers.submit(cores.process_map, abs, [-1, -2, -3, -4], 2)
            assert first.result(timeout=120) == [1, 2]
            assert second.result(timeout=120) == [1, 2, 3, 4]
        assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == \
            dict.fromkeys(BLAS_THREAD_VARS)

    def test_missing_symbol_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cores, "openblas_threads", lambda: None)
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


def environ_writes(source: str) -> int:
    """Writes to ``os.environ`` in ``source``: item stores and deletions,
    calls of its mutating methods, and ``os.putenv``/``os.unsetenv``."""
    found = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            found += ast.unparse(node.value) == "os.environ"
        elif isinstance(node, ast.Attribute):
            found += (ast.unparse(node) in ("os.putenv", "os.unsetenv")
                      or node.attr in ("update", "pop", "setdefault", "clear", "popitem")
                      and ast.unparse(node.value) == "os.environ")
    return found


class TestCoresModule:
    """The package's threads, processes and BLAS pin live in one leaf module."""

    @pytest.mark.parametrize("source, writes", [
        ("os.environ['A'] = '1'", 1),
        ("del os.environ['A']", 1),
        ("os.environ.update(A='1')", 1),
        ("os.environ.pop('A', None)", 1),
        ("os.putenv('A', '1')", 1),
        ("os.environ.get('A')", 0),
        ("a = os.environ['A']", 0),
    ])
    def test_guard_finds_environ_writes(self, source, writes):
        assert environ_writes(source) == writes

    def test_cores_imports_nothing_from_the_package(self):
        source = (SRC / "protostream" / "cores.py").read_text()
        assert package_imports(source) == set()

    def test_encoder_imports_only_cores(self):
        source = (SRC / "protostream" / "encoder.py").read_text()
        assert package_imports(source) == {"cores"}

    def test_only_cores_makes_pools_loads_libraries_or_sets_the_environment(self):
        found = set()
        for path in sorted((SRC / "protostream").glob("*.py")):
            source = path.read_text()
            if (any(word in source for word in
                    ("ThreadPoolExecutor(", "ProcessPoolExecutor(", "ctypes"))
                    or environ_writes(source)):
                found.add(path.name)
        assert found == {"cores.py"}

    def test_mixture_imports_no_thread_process_or_os_module(self):
        source = (SRC / "protostream" / "mixture.py").read_text()
        assert imported_modules(source) & {"ctypes", "threading", "os",
                                           "concurrent"} == set()

    def test_no_module_reaches_a_private_name_of_cores(self):
        found = set()
        for path in sorted((SRC / "protostream").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[-1] == "cores"):
                    found.update(f"{path.name}: {alias.name}" for alias in node.names
                                 if alias.name.startswith("_"))
                elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and ast.unparse(node.value) == "cores"):
                    found.add(f"{path.name}: {node.attr}")
        assert found == set()

    def test_old_names_are_gone(self):
        assert [name for name in ("_fork_join", "_helper_pool", "_in_halves",
                                  "_one_blas_thread", "_openblas_threads")
                if hasattr(mixture, name)] == []
        assert [name for name in ("_simulate_pool", "BLAS_THREAD_VARS")
                if hasattr(cli, name)] == []

    def test_import_starts_no_thread(self):
        code = "import threading, protostream, protostream.cli; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code], env=python_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    def test_reimports_leave_at_most_one_helper(self):
        # perfbench re-imports the package before each set-up; each import's
        # first fork-join makes a helper, and a dropped module's is collected
        code = """
import gc, importlib, sys, threading, time
helpers = lambda: sum(t.name.startswith("cores") for t in threading.enumerate())
for _ in range(12):
    for name in [n for n in sys.modules if n.split(".")[0] == "protostream"]:
        del sys.modules[name]
    importlib.import_module("protostream.cli")
    sys.modules["protostream.cores"].fork_join(lambda: None, lambda: None)
gc.collect()
deadline = time.monotonic() + 5
while helpers() > 1 and time.monotonic() < deadline:
    time.sleep(0.05)
print(helpers(), threading.active_count())
"""
        done = subprocess.run([sys.executable, "-c", code], env=python_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        helpers, threads = map(int, done.stdout.split())
        assert helpers <= 1 and threads == helpers + 1


PACKAGE_MODULES = sorted(p.stem for p in (SRC / "protostream").glob("*.py")
                         if not p.stem.startswith("__"))


def import_closure(module: str) -> set:
    """``module`` and every package module that its imports reach, read from the source."""
    closure, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            source = (SRC / "protostream" / f"{name}.py").read_text()
            todo.extend(package_imports(source) & set(PACKAGE_MODULES))
    return closure


@pytest.fixture(scope="module")
def loaded_by_import():
    """The package modules that importing each module loads, measured in one
    fresh interpreter; the key ``""`` holds those of ``import protostream``."""
    code = """
import importlib, json, sys
loaded = {}
for module in [""] + sys.argv[1:]:
    for name in [n for n in sys.modules if n.split(".")[0] == "protostream"]:
        del sys.modules[name]
    importlib.import_module("protostream." + module if module else "protostream")
    loaded[module] = [n.split(".", 1)[1] for n in sys.modules if n.startswith("protostream.")]
print(json.dumps(loaded))
"""
    done = subprocess.run([sys.executable, "-c", code, *PACKAGE_MODULES], env=python_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {module: set(names) for module, names in json.loads(done.stdout).items()}


class TestPackage:
    """The package namespace holds only ``__version__``: a name is imported from
    the module that defines it, and importing a module loads only its imports."""

    def test_closure_follows_relative_imports(self):
        assert import_closure("cores") == {"cores"}
        assert import_closure("datagen") == {"datagen", "settings"}
        assert import_closure("cli") == set(PACKAGE_MODULES)

    @pytest.mark.parametrize("module", PACKAGE_MODULES)
    def test_import_loads_only_what_the_module_imports(self, loaded_by_import, module):
        assert loaded_by_import[module] == import_closure(module)

    def test_package_import_loads_no_module(self, loaded_by_import):
        assert loaded_by_import[""] == set()

    @pytest.mark.filterwarnings(r"ignore:Support for `\[tool\.setuptools\]`")
    def test_project_version_is_the_package_version(self):
        # setuptools reads the attribute from the source, without importing numpy
        pytest.importorskip("setuptools")
        from setuptools.config.pyprojecttoml import read_configuration
        config = read_configuration(SRC.parent / "pyproject.toml")
        assert config["project"]["version"] == protostream.__version__
