"""The four benchmark workloads: inputs from a seed, set-up, job and checks.

Every workload drives the package through a public entry point
(``run_experiment`` or ``cli.main``).  ``prepare`` builds the inputs from the
workload seed and is not timed; ``setup`` is the import-free part of the
set-up time: the public calls the entry point itself makes before its first
unit of work (``init_sim`` for the simulator; argument parsing and
``load_matrix`` for the commands); ``job`` is one timed, complete run;
``check`` validates the job's outputs and returns the failed checks by
name.  ``ps`` is a namespace holding the package modules.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def _read_telemetry(path: Path, allowed_nan) -> tuple[list, list]:
    """Rows of a telemetry CSV and the cells that are unexpectedly non-finite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = []
    for row in rows:
        for key, value in row.items():
            if not math.isfinite(float(value)) and not allowed_nan(row, key):
                bad.append((row["epoch"], key))
    return rows, bad


class SimWorkload:
    """``run_experiment`` on the criterion-2/3 contrast fixture, one regime.

    The fixture matches ``contrast_config`` of the acceptance suite (K=64,
    D=16, 32768 balanced samples in 8 classes, batch 256), shortened to
    ``EPOCHS`` epoch so that a run holds many jobs: in interleaved runs the
    fastest one-epoch job spread 4.7% across seeds, the fastest two-epoch
    job 6.8%.  The job writes telemetry and a checkpoint snapshot per epoch.
    """

    EPOCHS = 1

    def __init__(self, regime: str):
        self.regime = regime

    def properties(self) -> dict:
        return {"K": 64, "D": 16, "batch": 256, "rows": 32768, "classes": 8,
                "epochs": self.EPOCHS, "regime": self.regime,
                "structure": "8 balanced Gaussian classes, spread 0.25"}

    def config(self, ps, seed: int):
        return ps.simulate.SimConfig(
            regime=self.regime, n_prototypes=64, latent_dim=16, hidden=32,
            epochs=self.EPOCHS, batch_size=256, seed=seed,
            learning_rate=4.0, tau_student=0.05, tau_teacher=0.02,
            data=ps.datagen.DataSpec(n_classes=8, input_dim=32,
                                     n_samples=32768, spread=0.25),
            gmm=ps.mixture.GmmConfig(total_steps=0, eta_start=0.995,
                                     eta_end=0.998, annealing=False, beta=0.5),
        )

    def prepare(self, ps, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def setup(self, ps, inputs: dict) -> None:
        ps.simulate.init_sim(self.config(ps, inputs["seed"]))

    def job(self, ps, inputs: dict, out: Path) -> dict:
        config = self.config(ps, inputs["seed"])
        result = ps.simulate.run_experiment(config, out_dir=out)
        n_train = result.dataset.x_train.shape[0]
        steps = self.EPOCHS * math.ceil(n_train / config.batch_size)
        return {"steps": steps, "rows": self.EPOCHS * n_train,
                "buckets": sorted(set(result.dataset.buckets.values()))}

    def check(self, ps, inputs: dict, out: Path, info: dict) -> list:
        failed = []
        bucket_cols = {"acc_head": "head", "acc_med": "medium", "acc_tail": "tail"}

        def allowed_nan(row, key):
            # the initial row has no loss; empty accuracy buckets are nan
            if key == "loss":
                return row["epoch"] == "0"
            return key in bucket_cols and bucket_cols[key] not in info["buckets"]

        rows, bad = _read_telemetry(out / "telemetry.csv", allowed_nan)
        if len(rows) != self.EPOCHS + 1:
            failed.append(f"telemetry has {len(rows)} rows, want {self.EPOCHS + 1}")
        if bad:
            failed.append(f"non-finite telemetry cells {bad[:3]}")
        snapshots = sorted((out / "snapshots").glob("epoch_*.ckpt"))
        if len(snapshots) != self.EPOCHS + 1:
            failed.append(f"{len(snapshots)} snapshots, want {self.EPOCHS + 1}")
        if self.regime == "decoupled":
            uniq = [int(v) for row in rows for k, v in row.items()
                    if k.startswith("uniq_eps_")]
            if any(u != 64 for u in uniq):
                failed.append(f"unique fraction below 1.0: min {min(uniq)}/64")
        return failed


class StreamClusterWorkload:
    """``protostream cluster-stream`` over a generated feature CSV.

    16384 rows in D=64 drawn around 512 random unit directions with
    per-coordinate noise 0.25/sqrt(D), clustered with K=1024 components,
    batch 512, initial variance 1/D, for ``EPOCHS`` pass(es).  The resurrect
    threshold is ``THRESHOLD`` (about 2/K) instead of the default 0.3, which
    no weight near 1/K reaches: components that absorb a second blob pass it,
    so ``split_resurrect`` takes its split path on this workload (1 to 87
    splits per job on the seeds tried).
    """

    ROWS, DIM, CENTRES, K, BATCH, EPOCHS = 16384, 64, 512, 1024, 512, 1
    NOISE, THRESHOLD = 0.25, 0.002

    def properties(self) -> dict:
        return {"K": self.K, "D": self.DIM, "batch": self.BATCH, "rows": self.ROWS,
                "epochs": self.EPOCHS, "init_variance": 1.0 / self.DIM,
                "resurrect_threshold": self.THRESHOLD,
                "structure": f"{self.CENTRES} unit-direction blobs, "
                             f"noise {self.NOISE}/sqrt(D) per coordinate"}

    def argv(self, inputs: dict, out: Path) -> list:
        return ["cluster-stream", "--features", str(inputs["features"]),
                "--out", str(out / "model.ckpt"), "-k", str(self.K),
                "--batch-size", str(self.BATCH), "--epochs", str(self.EPOCHS),
                "--init-variance", repr(1.0 / self.DIM),
                "--resurrect-threshold", repr(self.THRESHOLD),
                "--seed", str(inputs["seed"])]

    def prepare(self, ps, seed: int, work: Path) -> dict:
        rng = np.random.default_rng([seed, 11])
        centres = rng.standard_normal((self.CENTRES, self.DIM))
        centres /= np.linalg.norm(centres, axis=1, keepdims=True)
        labels = rng.integers(0, self.CENTRES, size=self.ROWS)
        noise = rng.standard_normal((self.ROWS, self.DIM))
        features = centres[labels] + (self.NOISE / math.sqrt(self.DIM)) * noise
        path = work / "features.csv"
        ps.checkpoint.write_matrix_csv(features, path)
        return {"seed": seed, "features": path}

    def setup(self, ps, inputs: dict) -> None:
        args = ps.cli.build_parser().parse_args(self.argv(inputs, Path(".")))
        ps.checkpoint.load_matrix(args.features)

    def job(self, ps, inputs: dict, out: Path) -> dict:
        code = ps.cli.main(self.argv(inputs, out))
        steps = self.EPOCHS * math.ceil(self.ROWS / self.BATCH)
        return {"steps": steps, "rows": self.EPOCHS * self.ROWS, "exit_code": code}

    def check(self, ps, inputs: dict, out: Path, info: dict) -> list:
        if info["exit_code"] != 0:
            return [f"exit code {info['exit_code']}"]
        failed = []
        ckpt = out / "model.ckpt"
        state = ps.checkpoint.load_checkpoint(ckpt)
        floor = ps.mixture.GmmConfig().variance_floor
        arrays = [state.weights, state.means, state.variances]
        if state.suffstats is not None:
            arrays += [state.suffstats.s_pi, state.suffstats.s_mu,
                       state.suffstats.s_sigma]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            failed.append("non-finite values in checkpoint")
        if np.any(state.weights < 0.0) or abs(state.weights.sum() - 1.0) > 1e-9:
            failed.append("weights off the simplex")
        if np.any(state.variances < floor):
            failed.append("variance below floor")
        if state.k != self.K or state.d != self.DIM:
            failed.append(f"checkpoint shape {state.k}x{state.d}")
        manifest = json.loads(Path(str(ckpt) + ".manifest.json").read_text())
        loglik = manifest.get("final_avg_loglik")
        if manifest.get("exit_code") != 0 or loglik is None or not math.isfinite(loglik):
            failed.append("manifest lacks a finite final_avg_loglik")
        else:
            info["final_avg_loglik"] = loglik
            with open(str(ckpt) + ".loglik.csv") as fh:
                first = float(list(csv.DictReader(fh))[0]["avg_loglik"])
            if not loglik > first:
                failed.append(f"log-likelihood did not improve: {first} -> {loglik}")
        return failed


class ProtoAuditWorkload:
    """``protostream analyze`` and ``export-kde`` on a clumped checkpoint.

    K=4096 prototypes in D=64 form 512 clumps of 8; each clump splits into
    2 quads of 2 pairs.  Clump centres use 4 of 44 coordinates (lines of a
    transversal design, even-parity signs), so distinct centres have cosine
    at most 1/4; the within-clump offsets live on the other 20 coordinates
    along one axis per tree node.  In 1 - cos terms, pair members sit
    ``PAIR`` apart, quad members at most ``QUAD``, clump members at most
    ``CLUMP``, and clumps at least ``(1 - 1/4) / NORM`` apart.  A seeded
    rotation, row scaling, tiny jitter and row shuffle hide the layout.  The
    greedy count is therefore the number of sets at the finest level whose
    diameter is below epsilon, which fixes the expected counts of the whole
    default grid: 4096, 4096, 2048, 1024, 512, 512.
    """

    K, DIM, CLUMPS = 4096, 64, 512
    PAIR, QUAD, CLUMP = 0.035, 0.071, 0.16
    NORM = 1.0 / (1.0 - CLUMP)
    MARGIN = 1.25  # every grid epsilon is this factor away from a level

    def properties(self) -> dict:
        return {"K": self.K, "D": self.DIM, "rows": self.K,
                "structure": f"{self.CLUMPS} clumps of 8 (2 quads of 2 pairs); "
                             f"1-cos diameters pair {self.PAIR}, quad {self.QUAD}, "
                             f"clump {self.CLUMP}, clump gap >= "
                             f"{0.75 / self.NORM:.3f}"}

    def expected_count(self, eps: float) -> int:
        levels = ((self.PAIR, self.K), (self.QUAD, self.K // 2),
                  (self.CLUMP, self.K // 4), (0.75 / self.NORM, self.CLUMPS))
        if eps == 0.0:
            return self.K
        for diameter, count in levels:
            if not (eps * self.MARGIN <= diameter or eps >= diameter * self.MARGIN):
                raise ValueError(f"epsilon {eps} too close to level {diameter}")
            if eps < diameter:
                return count
        raise ValueError(f"epsilon {eps} merges clumps")

    def _prototypes(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, 13])
        p = 11  # lines {(r, a + b r mod p)} of a 4 x p grid meet at most once
        supports = [[r * p + (a + b * r) % p for r in range(4)]
                    for a in range(p) for b in range(p)]
        signs = [s for s in np.array(np.meshgrid(*[[1, -1]] * 4)).T.reshape(-1, 4)
                 if np.prod(s) == 1]  # even parity: same-support cosines 0 or -1
        picks = rng.choice(len(supports) * len(signs), size=self.CLUMPS, replace=False)
        a3 = math.sqrt(self.PAIR * self.NORM)
        a2 = math.sqrt((self.QUAD - self.PAIR) * self.NORM)
        a1 = math.sqrt((self.CLUMP - self.QUAD) * self.NORM)
        free = np.arange(4 * p, self.DIM)
        rows = np.zeros((self.K, self.DIM))
        for g, pick in enumerate(picks):
            support, sign = supports[pick // len(signs)], signs[pick % len(signs)]
            axes = rng.permutation(free)[:14]
            axis_signs = rng.choice([-1.0, 1.0], size=14)
            for m in range(8):
                row = rows[8 * g + m]
                row[support] = sign / 2.0
                for scale, node in ((a1, m // 4), (a2, 2 + m // 2), (a3, 6 + m)):
                    row[axes[node]] = scale * axis_signs[node]
        q, r = np.linalg.qr(rng.standard_normal((self.DIM, self.DIM)))
        rows = rows @ (q * np.sign(np.diag(r)))
        rows += 1e-7 * rng.standard_normal(rows.shape)
        rows *= rng.uniform(0.5, 2.0, size=(self.K, 1))
        return rows[rng.permutation(self.K)]

    def prepare(self, ps, seed: int, work: Path) -> dict:
        rows = self._prototypes(seed)
        state = ps.mixture.MixtureState(np.full(self.K, 1.0 / self.K), rows,
                                        np.ones_like(rows), None, 0)
        path = work / "protos.ckpt"
        ps.checkpoint.save_checkpoint(state, path)
        grid = ps.collapse.DEFAULT_EPSILON_GRID
        return {"seed": seed, "protos": path, "grid": list(grid),
                "expected": [self.expected_count(e) for e in grid]}

    def setup(self, ps, inputs: dict) -> None:
        args = ps.cli.build_parser().parse_args(self.analyze_argv(inputs, Path(".")))
        ps.checkpoint.load_matrix(args.protos)

    def analyze_argv(self, inputs: dict, out: Path) -> list:
        return ["analyze", "--protos", str(inputs["protos"]),
                "--out", str(out / "sweep.csv"), "--seed", str(inputs["seed"])]

    def job(self, ps, inputs: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        codes = [ps.cli.main(self.analyze_argv(inputs, out)),
                 ps.cli.main(["export-kde", "--protos", str(inputs["protos"]),
                              "--out-prefix", str(out / "kde"),
                              "--seed", str(inputs["seed"])])]
        return {"steps": len(inputs["grid"]), "rows": self.K, "exit_codes": codes}

    def check(self, ps, inputs: dict, out: Path, info: dict) -> list:
        if info["exit_codes"] != [0, 0]:
            return [f"exit codes {info['exit_codes']}"]
        failed = []
        with open(out / "sweep.csv", newline="") as fh:
            counts = [int(row["unique_count"]) for row in csv.DictReader(fh)]
        if not counts or counts[0] != self.K:
            failed.append(f"count at epsilon 0 is {counts[:1]}, want {self.K}")
        if any(b > a for a, b in zip(counts, counts[1:])):
            failed.append(f"counts increase with epsilon: {counts}")
        if counts != inputs["expected"]:
            failed.append(f"counts {counts}, want {inputs['expected']}")
        for name in ("sweep_angles.csv", "kde_gaussian_kde.csv", "kde_vmf_kde.csv"):
            if not (out / name).is_file():
                failed.append(f"missing {name}")
        return failed


WORKLOADS = {
    "sim_decoupled": SimWorkload("decoupled"),
    "sim_joint": SimWorkload("joint"),
    "stream_cluster": StreamClusterWorkload(),
    "proto_audit": ProtoAuditWorkload(),
}
