"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long-tail check
(criterion 9) asserts the downstream claim PAPER.md makes, overall probe
accuracy, on long-tailed data; the head/medium/tail buckets are printed in
its per-seed table but not asserted, because PAPER.md promises no ranking by
class frequency and the tail ranking does not reproduce at desk scale.
"""

import copy
import logging
import time

import numpy as np
import pytest

from protostream.analysis import vmf_kde_angles
from protostream.checkpoint import write_matrix_csv
from protostream.cli import _simulate_pool, main as cli_main
from protostream.collapse import count_unique, normalize_rows
from protostream.datagen import DataSpec
from protostream.encoder import forward
from protostream.mixture import (
    GmmConfig,
    MixtureState,
    e_step,
    gmm_update,
    init_mixture,
    m_step,
    split_resurrect,
    spread_unit_vectors,
)
from protostream.simulate import (
    TELEMETRY_EPSILONS,
    SimConfig,
    loss_and_grads,
    run_experiment,
)

import oracles


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} ({name}): {status}  {detail}")
    return passed


def toggles_off_config(**kw):
    base = dict(responsibility_forgetting=False, annealing=False,
                resurrect=False)
    base.update(kw)
    return GmmConfig(**base)


def contrast_config(regime, seed=1):
    """Shared fixture for the no-collapse / collapse pair (criteria 2 and 3).

    Slow forgetting with flat responsibilities keeps the desk-scale mixture in
    the sparse-per-component-update regime of a much larger prototype set;
    sharp temperatures and a high learning rate let the gradient-coupled twin
    exhibit its clumping within 50 epochs.
    """
    return SimConfig(
        regime=regime, n_prototypes=64, latent_dim=16, hidden=32,
        epochs=50, batch_size=256, seed=seed,
        learning_rate=4.0, tau_student=0.05, tau_teacher=0.02,
        data=DataSpec(n_classes=8, input_dim=32, n_samples=32768, spread=0.25),
        gmm=GmmConfig(total_steps=0, eta_start=0.995, eta_end=0.998,
                      annealing=False, beta=0.5),
    )


def longtail_config(regime, seed):
    """Criterion 9's fixture.

    PAPER.md claims stronger downstream performance; criterion 9 checks it
    on long-tailed data as all-class probe accuracy.  The tail bucket is
    printed but not asserted: at this scale decoupled leads it on about half
    of the seeds (see the criterion-9 entries in CHANGES.md for the per-seed
    tables).
    """
    return SimConfig(
        regime=regime, n_prototypes=64, latent_dim=16, hidden=32,
        epochs=150, batch_size=256, seed=seed,
        learning_rate=3.0, tau_student=0.05, tau_teacher=0.02,
        view_noise=0.05, view_dropout=0.0,
        data=DataSpec(mode="longtail", n_classes=40, input_dim=32,
                      n_samples=5000, spread=0.25, exponent=1.5),
        gmm=GmmConfig(total_steps=0, eta_start=0.9, eta_end=0.98,
                      resurrect_threshold=0.05,
                      init_variance=1.0 / 16.0),
    )


def _longtail_final_telemetry(job):
    """Last telemetry row of one criterion-9 run; module-level, so a worker
    process can unpickle it."""
    regime, seed = job
    return run_experiment(longtail_config(regime, seed)).telemetry[-1]


class TestAcceptance:
    def test_01_em_oracle_equivalence(self):
        started = time.time()
        rng = np.random.default_rng(0)
        k, d, n = 6, 8, 256
        centers = 3.0 * rng.standard_normal((k, d))
        labels = rng.integers(0, k, size=n)
        batch = centers[labels] + 0.1 * rng.standard_normal((n, d))
        init_points = centers + 0.05 * rng.standard_normal((k, d))
        # full replacement: each update is one batch EM iteration
        config = toggles_off_config(eta_start=0.0, eta_end=0.0)
        state = init_mixture(k, init_points, config, np.random.default_rng(100))
        w0, m0, v0 = (state.weights.copy(), state.means.copy(),
                      state.variances.copy())
        for _ in range(25):
            state = gmm_update(state, batch, config).state
        ow, om, ov = oracles.oracle_em_run(batch, w0, m0, v0, 25)
        diff = max(np.abs(state.weights - ow).max(),
                   np.abs(state.means - om).max(),
                   np.abs(state.variances - ov).max())
        elapsed = time.time() - started
        ok = diff < 1e-6 and elapsed < 5.0
        assert report(1, "EM oracle equivalence", ok,
                      f"max elementwise diff {diff:.2e}, {elapsed:.1f}s")

    def test_02_decoupled_no_collapse(self, caplog):
        started = time.time()
        # PAPER.md: no collapse "without explicit regularization", so the
        # split regularizer must never act on this run
        with caplog.at_level(logging.INFO, logger="protostream.mixture"):
            result = run_experiment(contrast_config("decoupled"))
        splits = sum(r.msg.startswith("split step") for r in caplog.records)
        fractions = np.array(
            [[row.unique_counts[e] for e in TELEMETRY_EPSILONS]
             for row in result.telemetry]
        ) / 64.0
        elapsed = time.time() - started
        ok = bool((fractions == 1.0).all()) and splits == 0 and elapsed < 120.0
        assert report(2, "decoupled keeps every prototype unique", ok,
                      f"min fraction {fractions.min():.3f} over "
                      f"{len(result.telemetry)} epochs x {len(TELEMETRY_EPSILONS)} eps, "
                      f"{splits} splits, final acc_all "
                      f"{result.telemetry[-1].acc_all:.3f}, {elapsed:.0f}s")

    def test_03_joint_collapse(self):
        started = time.time()
        result = run_experiment(contrast_config("joint"))
        frac = [row.unique_counts[0.025] / 64.0 for row in result.telemetry]
        windows = [np.mean(frac[i:i + 5]) for i in range(0, len(frac), 5)]
        monotone = all(b <= a + 1e-12 for a, b in zip(windows, windows[1:]))
        elapsed = time.time() - started
        ok = frac[-1] < 0.5 and monotone and elapsed < 120.0
        assert report(3, "joint regime collapses", ok,
                      f"final fraction at eps 0.025 = {frac[-1]:.3f}, "
                      f"5-epoch windows monotone: {monotone}, final acc_all "
                      f"{result.telemetry[-1].acc_all:.3f}, {elapsed:.0f}s")

    def test_04_uniqueness_definition_fidelity(self):
        rng = np.random.default_rng(42)
        mismatches = 0
        for _ in range(100):
            k = int(rng.integers(2, 201))
            d = int(rng.integers(2, 17))
            protos = normalize_rows(rng.standard_normal((k, d)))
            for eps in (0.025, 0.5):
                got = count_unique(protos, eps).unique_count
                want = oracles.oracle_greedy_unique(protos.rows.tolist(), eps)
                if got != want:
                    mismatches += 1
            if count_unique(protos, 0.0).unique_count != k:
                mismatches += 1
        # duplicated rows must still all count as unique at eps zero
        row = rng.standard_normal(6)
        dup = normalize_rows(np.vstack([row, row, row]))
        zero_ok = count_unique(dup, 0.0).unique_count == 3
        ok = mismatches == 0 and zero_ok
        assert report(4, "greedy uniqueness matches oracle", ok,
                      f"{mismatches} mismatches over 100 matrices; "
                      f"M(0)=K with duplicates: {zero_ok}")

    def test_05_gradient_correctness(self):
        started = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 9))
            latent = int(rng.integers(2, 9))
            hidden = int(rng.integers(2, 9))
            in_dim = int(rng.integers(2, 9))
            cfg = SimConfig(
                regime="joint", n_prototypes=k, latent_dim=latent,
                hidden=hidden, epochs=1, batch_size=8, seed=seed,
                grad_clip=1e9,
                data=DataSpec(n_classes=2, input_dim=in_dim, n_samples=40,
                              spread=0.4),
            )
            from protostream.simulate import init_sim, assign
            from protostream.datagen import make_views

            state, dataset = init_sim(cfg)
            views = make_views(dataset.x_train[:4], 2, 0.2, 0.0,
                               np.random.default_rng(seed + 50))
            targets = [assign(forward(state.teacher, views[j])[0],
                              state.prototypes, cfg.tau_teacher)
                       for j in range(2)]
            loss, g1, g2, gC = loss_and_grads(state, views, teacher_probs=targets)
            analytic = np.concatenate([g1.ravel(), g2.ravel(), gC.ravel()])
            n1, n2 = state.student.w1.size, state.student.w2.size

            def loss_at(flat):
                student = oracles.with_flat(state.student, flat[: n1 + n2])
                protos = flat[n1 + n2:].reshape(state.prototypes.shape)
                probe = type(state)(cfg, student, state.teacher, protos,
                                    state.mixture, state.step)
                return loss_and_grads(probe, views, teacher_probs=targets)[0]

            flat0 = np.concatenate([oracles.flat(state.student),
                                    state.prototypes.ravel()])
            fd = oracles.finite_diff(loss_at, flat0, step=1e-5)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-300)
            worst = max(worst, rel)
        elapsed = time.time() - started
        ok = worst < 1e-6 and elapsed < 10.0
        assert report(5, "analytic gradients match finite differences", ok,
                      f"worst relative error {worst:.2e} over 20 instances, "
                      f"{elapsed:.1f}s")

    def test_06_mixture_invariant_fuzz(self):
        rng = np.random.default_rng(7)
        config = GmmConfig(total_steps=1000, rng_seed=3)
        k, d = 8, 4
        base = oracles.random_mixture(k, d, rng)
        # park one component far away so it draws exactly zero responsibility
        means = base.means.copy()
        means[5] = 1e6
        state = MixtureState(base.weights, means, base.variances, None, 0)
        violations = []
        frozen_checked = 0
        for step in range(1000):
            batch = rng.standard_normal((32, d)) * rng.uniform(0.5, 2.0)
            resp = e_step(state, batch, config.beta_at(state.step))
            if np.abs(resp.sum(axis=1) - 1.0).max() > 1e-9:
                violations.append(f"step {step}: responsibility rows")
            before = state.suffstats
            distant_resp_zero = bool(np.all(resp[:, 5] == 0.0))
            state = gmm_update(state, batch, config).state
            if abs(state.weights.sum() - 1.0) > 1e-9 or state.weights.min() < 0:
                violations.append(f"step {step}: weights off simplex")
            if state.variances.min() < config.variance_floor:
                violations.append(f"step {step}: variance floor")
            # published parameters are exactly the M-step of the statistics
            derived = m_step(state.suffstats, config.variance_floor)
            published = (state.weights, state.means, state.variances)
            if not all(np.array_equal(a, b) for a, b in zip(published, derived)):
                violations.append(f"step {step}: parameters differ from m_step")
            if distant_resp_zero:
                frozen_checked += 1
                same = (
                    state.suffstats.s_pi[5].tobytes() == before.s_pi[5].tobytes()
                    and state.suffstats.s_mu[5].tobytes() == before.s_mu[5].tobytes()
                    and state.suffstats.s_sigma[5].tobytes() == before.s_sigma[5].tobytes()
                )
                if not same:
                    violations.append(f"step {step}: frozen stats drifted")
        ok = not violations and frozen_checked > 900
        assert report(6, "1000-step invariant fuzz", ok,
                      f"{len(violations)} violations, zero-responsibility "
                      f"checks {frozen_checked}")

    def test_07_split_resurrect_contract(self):
        base = oracles.random_mixture(3, 5, np.random.default_rng(0))
        state = MixtureState(np.array([0.4, 0.35, 0.25]), base.means,
                             base.variances, None, 0)
        before = copy.deepcopy(state)
        new_state, events = split_resurrect(state, 0.3, np.random.default_rng(9),
                                            1.0)
        splits = [e for e in events if e.kind == "split"]
        first = splits[0]
        halves_ok = (first.dominant == 0 and first.resurrected == 2
                     and first.old_weight == pytest.approx(0.4))
        mean_redrawn = not np.array_equal(new_state.means[2], before.means[2])
        simplex = abs(new_state.weights.sum() - 1.0) < 1e-12
        ok = halves_ok and mean_redrawn and simplex
        assert report(7, "split-resurrect contract", ok,
                      f"dominant 0.4 -> two halves of {first.old_weight / 2}, "
                      f"lightest mean redrawn: {mean_redrawn}, "
                      f"weights sum {new_state.weights.sum():.12f}")

    def test_08_vmf_normalization(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((40, 2))
        worst = 0.0
        for kappa in (1.0, 20.0):
            kde = vmf_kde_angles(pts, kappa=kappa)
            integral = float(np.trapezoid(kde.density, kde.x))
            worst = max(worst, abs(integral - 1.0))
        ok = worst < 1e-2
        assert report(8, "angular KDE integrates to one", ok,
                      f"worst |integral - 1| = {worst:.2e} for kappa in {{1, 20}}")

    def test_09_longtail_directional(self):
        started = time.time()
        # the 10 runs are independent: two worker processes share them, each
        # on one BLAS thread, as in ``simulate --grid --workers 2``
        jobs = [(regime, seed) for seed in range(5)
                for regime in ("decoupled", "joint")]
        finals = _simulate_pool(_longtail_final_telemetry, jobs, 2)
        wins = tail_wins = 0
        rows = []
        for seed in range(5):
            dec, joint = finals[2 * seed], finals[2 * seed + 1]
            win = dec.acc_all >= joint.acc_all
            wins += win
            tail_wins += dec.acc_tail >= joint.acc_tail
            rows.append((seed, dec, joint, win))
        elapsed = time.time() - started
        for seed, dec, joint, win in rows:
            print(f"    seed {seed}: overall {dec.acc_all:.3f} vs {joint.acc_all:.3f} "
                  f"(head {dec.acc_head:.3f} vs {joint.acc_head:.3f}, "
                  f"medium {dec.acc_medium:.3f} vs {joint.acc_medium:.3f}, "
                  f"tail {dec.acc_tail:.3f} vs {joint.acc_tail:.3f}) "
                  f"-> {'win' if win else 'loss'}")
        ok = wins >= 4 and elapsed < 600.0
        assert report(9, "long-tail downstream direction", ok,
                      f"decoupled wins overall {wins}/5 seeds "
                      f"(tail, not asserted: {tail_wins}/5), {elapsed:.0f}s")

    def test_10_cli_determinism(self, tmp_path):
        cfg_text = (
            "sim.regime=decoupled\nsim.prototypes=8\nsim.latent_dim=8\n"
            "sim.hidden=6\nsim.epochs=2\nsim.batch=32\n"
            "data.classes=4\ndata.input_dim=6\ndata.samples=160\n"
        )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_text)
        rng = np.random.default_rng(0)
        feats = tmp_path / "features.csv"
        write_matrix_csv(3 * rng.standard_normal((8, 4))[rng.integers(0, 8, 200)]
                         + 0.05 * rng.standard_normal((200, 4)), feats)
        protos = tmp_path / "protos.csv"
        write_matrix_csv(spread_unit_vectors(16, 6, np.random.default_rng(1)),
                         protos)

        artifacts = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            assert cli_main(["simulate", "--config", str(cfg),
                             "--out", str(base / "run"), "--seed", "5"]) == 0
            assert cli_main(["cluster-stream", "--features", str(feats),
                             "--out", str(base / "m.ckpt"), "-k", "4",
                             "--epochs", "4", "--seed", "5"]) == 0
            assert cli_main(["analyze", "--protos", str(protos),
                             "--out", str(base / "sweep.csv"), "--seed", "5"]) == 0
            assert cli_main(["export-kde", "--protos", str(protos),
                             "--out-prefix", str(base / "kde"),
                             "--seed", "5"]) == 0
            files = {}
            for path in sorted(base.rglob("*")):
                if path.is_file() and path.suffix in (".csv", ".ckpt"):
                    files[str(path.relative_to(base))] = path.read_bytes()
            artifacts[tag] = files
        same_names = artifacts["a"].keys() == artifacts["b"].keys()
        identical = same_names and all(
            artifacts["a"][name] == artifacts["b"][name]
            for name in artifacts["a"]
        )
        assert report(10, "CLI bitwise determinism", identical,
                      f"{len(artifacts['a'])} artifacts compared")
