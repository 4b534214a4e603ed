import dataclasses
import math
import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import protostream.mixture as mixture
import protostream.simulate as simulate
from protostream.checkpoint import save_checkpoint
from protostream.datagen import (DataSpec, class_sizes, make_dataset, make_views,
                                 shuffled_batches)
from protostream.encoder import forward, init_encoder
from protostream.mixture import (GmmConfig, _helper_pool, gmm_update, init_mixture,
                                 m_step, spread_unit_vectors)
from protostream.settings import ConfigError, config_to_mapping
from protostream.simulate import (
    KNOWN_KEYS,
    SimConfig,
    assign,
    consistency_loss,
    init_sim,
    prototype_step_decoupled,
    probe_accuracy,
    run_experiment,
    sim_config_from_text,
    student_step,
    teacher_step,
)

import oracles
from test_acceptance import contrast_config, longtail_config


def tiny_config(**kw):
    base = dict(
        regime="decoupled", n_prototypes=8, latent_dim=4, hidden=6,
        epochs=2, batch_size=32, seed=0,
        data=DataSpec(n_classes=4, input_dim=6, n_samples=160, spread=0.2),
    )
    base.update(kw)
    return SimConfig(**base)


class TestAssign:
    def test_equal_scores_split(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = assign(np.array([1.0, 1.0]), protos, tau=0.5)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_small_temperature_concentrates(self):
        protos = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        p = assign(np.array([0.9, 0.1]), protos, tau=1e-3)
        assert p[0] > 1.0 - 1e-6

    def test_matches_scalar_softmax(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(5)
        protos = rng.standard_normal((7, 5))
        p = assign(h, protos, tau=0.1)
        want = oracles.oracle_softmax(protos @ h, 0.1)
        np.testing.assert_allclose(p, want, atol=1e-12)

    def test_batched_rows_are_simplex(self):
        rng = np.random.default_rng(1)
        p = assign(rng.standard_normal((9, 4)), rng.standard_normal((6, 4)), 0.2)
        assert p.shape == (9, 6)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            assign(np.ones(2), np.eye(2), tau=0.0)


class TestConsistencyLoss:
    def test_uniform_pair_gives_log_k(self):
        u = np.full(4, 0.25)
        loss, _ = consistency_loss(u, u, tau_student=0.1)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matching_distributions_entropy(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6))
        loss, _ = consistency_loss(p, p, tau_student=0.1)
        want = oracles.oracle_cross_entropy(p, p)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(5)
        target = rng.dirichlet(np.ones(5))
        tau = 0.17

        def loss_of_logits(l):
            probs = assign_logits(l, tau)
            return consistency_loss(probs, target, tau)[0]

        def assign_logits(l, tau):
            z = l / tau
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        probs = assign_logits(logits, tau)
        _, grad = consistency_loss(probs, target, tau)
        fd = oracles.finite_diff(loss_of_logits, logits, step=1e-5)
        rel = np.linalg.norm(grad[0] - fd) / np.linalg.norm(fd)
        assert rel < 1e-6


def build_state(cfg):
    state, dataset = init_sim(cfg)
    return state, dataset


def teacher_latents(state, views):
    """The teacher's latents of the stacked views, as run_experiment passes them."""
    return forward(state.teacher, views.reshape(-1, views.shape[2]))[0]


class TestStudentStep:
    def test_zero_learning_rate_is_identity(self):
        cfg = tiny_config(learning_rate=0.0, regime="joint")
        state, dataset = build_state(cfg)
        views = make_views(dataset.x_train[:8], 2, 0.1, 0.1,
                           np.random.default_rng(0))
        new_state, _ = student_step(state, views, teacher_latents(state, views))
        assert new_state.student.w1.tobytes() == state.student.w1.tobytes()
        assert new_state.student.w2.tobytes() == state.student.w2.tobytes()
        assert new_state.prototypes.tobytes() == state.prototypes.tobytes()

    def test_decoupled_never_writes_prototypes(self):
        cfg = tiny_config(regime="decoupled")
        state, dataset = build_state(cfg)
        rng = np.random.default_rng(1)
        before = state.prototypes.tobytes()
        for _ in range(3):
            views = make_views(dataset.x_train[:16], 2, 0.1, 0.1, rng)
            state, _ = student_step(state, views, teacher_latents(state, views))
            state = teacher_step(state)
        assert state.prototypes.tobytes() == before

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_jacobian_matches_finite_differences(self, seed):
        from protostream.simulate import loss_and_grads

        cfg = tiny_config(
            regime="joint", n_prototypes=5, latent_dim=4, hidden=3,
            learning_rate=1.0, grad_clip=1e9, seed=seed,
            data=DataSpec(n_classes=3, input_dim=4, n_samples=60, spread=0.3),
        )
        state, dataset = build_state(cfg)
        views = make_views(dataset.x_train[:6], 2, 0.15, 0.0,
                           np.random.default_rng(seed + 10))
        # freeze the teacher targets: they are constants of the loss, so the
        # finite-difference probe must not see prototype changes through them
        targets = [assign(forward(state.teacher, views[j])[0],
                          state.prototypes, cfg.tau_teacher)
                   for j in range(views.shape[0])]
        loss, g_w1, g_w2, g_protos = loss_and_grads(state, views, targets)
        analytic = np.concatenate([g_w1.ravel(), g_w2.ravel(), g_protos.ravel()])

        n1, n2 = state.student.w1.size, state.student.w2.size

        def loss_at(flat):
            from protostream.simulate import loss_and_grads

            student = oracles.with_flat(state.student, flat[: n1 + n2])
            protos = flat[n1 + n2:].reshape(state.prototypes.shape)
            probe = type(state)(cfg, student, state.teacher, protos,
                                state.mixture, state.step)
            return loss_and_grads(probe, views, teacher_probs=targets)[0]

        flat0 = np.concatenate([oracles.flat(state.student), state.prototypes.ravel()])
        fd = oracles.finite_diff(loss_at, flat0, step=1e-5)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-6

    def test_gradient_clip_engages(self):
        cfg = tiny_config(regime="joint", grad_clip=1e-9, learning_rate=1.0)
        state, dataset = build_state(cfg)
        views = make_views(dataset.x_train[:8], 2, 0.1, 0.0,
                           np.random.default_rng(2))
        new_state, _ = student_step(state, views, teacher_latents(state, views))
        delta = np.linalg.norm(state.student.w1 - new_state.student.w1)
        assert delta <= 1e-8

    @pytest.mark.parametrize("regime", ["joint", "decoupled"])
    def test_non_finite_gradient_norm_names_step(self, regime):
        # a NaN input makes every gradient NaN; clipping would scale by NaN
        state, dataset = build_state(tiny_config(regime=regime))
        state.step = 5
        views = make_views(dataset.x_train[:8], 2, 0.1, 0.0,
                           np.random.default_rng(3))
        views[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="step 5: gradient norm is nan"):
            student_step(state, views, teacher_latents(state, views))

    @pytest.mark.parametrize("regime", ["joint", "decoupled"])
    def test_forwards_only_the_student(self, regime, monkeypatch):
        # the teacher's latents come in from the caller's one stacked pass,
        # so a step forwards the student once per view and never the teacher
        import protostream.simulate as simulate

        state, dataset = build_state(tiny_config(regime=regime))
        views = make_views(dataset.x_train[:8], 2, 0.1, 0.0,
                           np.random.default_rng(4))
        h_teacher = teacher_latents(state, views)
        calls = []

        def counting_forward(params, x):
            calls.append(params)
            return forward(params, x)

        monkeypatch.setattr(simulate, "forward", counting_forward)
        student_step(state, views, h_teacher)
        assert len(calls) == 2
        assert all(params is state.student for params in calls)


class TestTeacherStep:
    def test_momentum_zero_copies_student(self):
        cfg = tiny_config(ema_momentum=0.0)
        state, _ = build_state(cfg)
        state.student.w1 += 1.0
        out = teacher_step(state)
        np.testing.assert_array_equal(out.teacher.w1, state.student.w1)

    def test_momentum_one_limit_freezes(self):
        cfg = tiny_config(ema_momentum=1.0 - 1e-12)
        state, _ = build_state(cfg)
        before = state.teacher.w1.copy()
        state.student.w1 += 5.0
        out = teacher_step(state)
        np.testing.assert_allclose(out.teacher.w1, before, atol=1e-9)

    def test_midpoint(self):
        cfg = tiny_config(ema_momentum=0.5)
        state, _ = build_state(cfg)
        state.teacher.w1[:] = 0.0
        state.student.w1[:] = 2.0
        out = teacher_step(state)
        np.testing.assert_allclose(out.teacher.w1, 1.0)

    def test_convex_envelope(self):
        cfg = tiny_config(regime="joint", ema_momentum=0.8, learning_rate=0.3)
        state, dataset = build_state(cfg)
        rng = np.random.default_rng(3)
        lo = np.minimum(state.teacher.w1, state.student.w1)
        hi = np.maximum(state.teacher.w1, state.student.w1)
        for _ in range(15):
            views = make_views(dataset.x_train[:16], 2, 0.1, 0.1, rng)
            state, _ = student_step(state, views, teacher_latents(state, views))
            lo = np.minimum(lo, state.student.w1)
            hi = np.maximum(hi, state.student.w1)
            state = teacher_step(state)
            assert np.all(state.teacher.w1 >= lo - 1e-12)
            assert np.all(state.teacher.w1 <= hi + 1e-12)


class TestPrototypeStepDecoupled:
    @pytest.mark.parametrize("seed", range(5))
    def test_initial_mixture_is_m_step_of_its_stats(self, seed):
        state, _ = init_sim(contrast_config("decoupled", seed))
        mixture = state.mixture
        derived = m_step(mixture.suffstats, GmmConfig.variance_floor)
        for got, want in zip((mixture.weights, mixture.means, mixture.variances),
                             derived):
            assert got.tobytes() == want.tobytes()

    def test_prototypes_alias_mixture_means(self):
        cfg = tiny_config()
        state, dataset = build_state(cfg)
        h, _ = forward(state.teacher, dataset.x_train[:64])
        out = prototype_step_decoupled(state, h)
        assert out.prototypes is out.mixture.means

    def test_student_loss_uses_updated_prototypes(self):
        cfg = tiny_config()
        state, dataset = build_state(cfg)
        views = make_views(dataset.x_train[:32], 2, 0.1, 0.0,
                           np.random.default_rng(4))
        h, _ = forward(state.teacher, views.reshape(-1, views.shape[2]))
        # step past the pseudo-count initialization so the means actually move
        state = prototype_step_decoupled(state, h)
        updated = prototype_step_decoupled(state, h)
        assert updated.prototypes.tobytes() != state.prototypes.tobytes()
        _, loss = student_step(updated, views, h)
        # recompute the loss by hand against the updated prototype matrix
        protos = updated.prototypes
        targets = assign(h, protos, cfg.tau_teacher).reshape(2, 32, -1)
        want = 0.0
        for js, jt in ((0, 1), (1, 0)):
            s_probs = assign(forward(updated.student, views[js])[0], protos,
                             cfg.tau_student)
            want += consistency_loss(s_probs, targets[jt], cfg.tau_student)[0] / 2
        assert loss == want
        _, loss_stale = student_step(state, views, h)
        assert loss != loss_stale

    def test_joint_regime_rejected(self):
        cfg = tiny_config(regime="joint")
        state, _ = build_state(cfg)
        with pytest.raises(ValueError):
            prototype_step_decoupled(state, np.zeros((4, cfg.latent_dim)))

    def test_frozen_encoder_matches_batch_em(self):
        # with the encoder fixed, streaming over a stationary latent set should
        # land where classical EM lands, up to component relabeling; plain
        # forgetting is the textbook incremental-EM regime this targets, since
        # responsibility-weighted decay deliberately freezes starved components
        # and at K == n_classes that strands them mid-transient
        rng = np.random.default_rng(5)
        n_classes, input_dim, latent_dim = 8, 16, 16
        spec = DataSpec(n_classes=n_classes, input_dim=input_dim,
                        n_samples=512, spread=0.05)
        dataset = make_dataset(spec, rng)
        encoder = init_encoder(input_dim, 64, latent_dim, rng)
        latents, _ = forward(encoder, dataset.x_train)
        center_latents, _ = forward(encoder, dataset.centers)
        n = latents.shape[0]

        epochs, batch = 25, 128
        config = GmmConfig(total_steps=epochs * (n // batch + 1), rng_seed=0,
                           annealing=False, responsibility_forgetting=False,
                           resurrect=False)
        state = init_mixture(n_classes, center_latents, config,
                             np.random.default_rng(6))
        w0, m0, v0 = state.weights.copy(), state.means.copy(), state.variances.copy()
        for epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                state = gmm_update(state, latents[order[start:start + batch]],
                                   config).state

        ow, om, ov = oracles.oracle_em_run(latents, w0, m0, v0, 40)
        cost = np.linalg.norm(state.means[:, None, :] - om[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 0.1


class TestDataAndEncoder:
    @pytest.mark.parametrize("spec", [
        pytest.param(DataSpec(n_classes=5, input_dim=7, n_samples=503), id="balanced"),
        pytest.param(DataSpec(mode="longtail", n_classes=12, input_dim=5,
                              n_samples=900, test_fraction=0.3), id="longtail"),
    ])
    def test_make_dataset_matches_per_class_stack(self, spec):
        got = make_dataset(spec, np.random.default_rng(9))
        want = oracles.oracle_make_dataset(class_sizes(spec), spec.input_dim,
                                           spec.spread, spec.test_fraction,
                                           np.random.default_rng(9))
        fields = ("x_train", "y_train", "x_test", "y_test", "centers", "train_counts")
        for name, expected in zip(fields, want):
            actual = getattr(got, name)
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_make_views_matches_out_of_place_formula(self, dropout):
        # in place, z * noise + x and the masked product give the same bits,
        # signed zeros included
        x = np.random.default_rng(5).standard_normal((37, 11))
        got = make_views(x, 3, 0.1, dropout, np.random.default_rng(6))
        want = oracles.oracle_make_views(x, 3, 0.1, dropout, np.random.default_rng(6))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_forward_is_normalized_tanh_mlp(self):
        rng = np.random.default_rng(4)
        params = init_encoder(6, 9, 5, rng)
        x = rng.standard_normal((33, 6))
        y = np.tanh(x @ params.w1) @ params.w2
        h, _ = forward(params, x)
        assert h.tobytes() == (y / np.linalg.norm(y, axis=1, keepdims=True)).tobytes()


class TestRunExperiment:
    def test_zero_epochs_has_only_init_row(self):
        cfg = tiny_config(epochs=0)
        result = run_experiment(cfg)
        assert len(result.telemetry) == 1
        assert result.telemetry[0].epoch == 0

    def test_row_count_and_headers(self, tmp_path):
        cfg = tiny_config(epochs=3)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.telemetry) == 4
        lines = (tmp_path / "telemetry.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,loss,uniq_eps_0.025")
        assert len(lines) == 5
        assert len(result.snapshot_paths) == 4

    def test_telemetry_counts_match_snapshots(self, tmp_path):
        from protostream.checkpoint import load_checkpoint
        from protostream.collapse import count_unique, normalize_rows

        cfg = tiny_config(epochs=2)
        result = run_experiment(cfg, out_dir=tmp_path)
        for row, path in zip(result.telemetry, result.snapshot_paths):
            protos = normalize_rows(load_checkpoint(path).means)
            for eps, count in row.unique_counts.items():
                assert count_unique(protos, eps).unique_count == count

    def test_deterministic_given_seed(self, tmp_path):
        cfg = tiny_config(epochs=2, seed=9)
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "telemetry.csv").read_bytes()
        csv_b = (tmp_path / "b" / "telemetry.csv").read_bytes()
        assert csv_a == csv_b
        for pa, pb in zip(a.snapshot_paths, b.snapshot_paths):
            assert pa.read_bytes() == pb.read_bytes()

    def test_encoder_outputs_unit_norm(self):
        cfg = tiny_config(epochs=1)
        result = run_experiment(cfg)
        h, _ = forward(result.state.teacher, result.dataset.x_test)
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-9)

    def test_probe_accuracy_beats_chance(self):
        cfg = tiny_config(epochs=2)
        result = run_experiment(cfg)
        assert result.telemetry[-1].acc_all > 1.0 / cfg.data.n_classes


class SlowHelper:
    """Stands in for the mixture's helper pool: keeps every future and delays
    each task, so that a task left pending would still be running."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        def slow():
            time.sleep(0.005)
            return fn(*args)

        self.futures.append(_helper_pool().submit(slow))
        return self.futures[-1]


def sequential_run(config, snapshot_dir):
    """run_experiment's loop with every view drawn on the calling thread."""
    state, dataset = init_sim(config)
    config = state.config
    rows = []

    def log_epoch(epoch, loss):
        rows.append(simulate._telemetry_row(state, dataset, epoch, loss))
        save_checkpoint(simulate._snapshot_state(state, epoch),
                        snapshot_dir / f"epoch_{epoch:04d}.ckpt")

    log_epoch(0, float("nan"))
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng([config.seed, 3, epoch])
        losses = []
        for batch in shuffled_batches(dataset.x_train, config.batch_size, rng):
            views = make_views(batch, config.views, config.view_noise,
                               config.view_dropout, rng)
            h_t = teacher_latents(state, views)
            if config.regime == "decoupled":
                state = prototype_step_decoupled(state, h_t)
            state, loss = student_step(state, views, h_t)
            state = teacher_step(state)
            losses.append(loss)
        log_epoch(epoch, float(np.mean(losses)))
    return rows, state


class TestHelperThread:
    """The views of the next batch and the prototype spread run on the
    mixture's helper thread; the results are the bits of the sequential run."""

    # 128 training rows in batches of 30 leave a short last batch; in one
    # batch of 200, each epoch is one step whose helper draw finds no batch
    @pytest.mark.parametrize(
        "regime,batch_size",
        [("joint", 30), ("decoupled", 30), ("joint", 200), ("decoupled", 200)],
        ids=["joint", "decoupled", "joint-one_batch", "decoupled-one_batch"])
    def test_run_matches_sequential_loop(self, tmp_path, regime, batch_size):
        config = tiny_config(regime=regime, views=3, epochs=2, batch_size=batch_size)
        result = run_experiment(config, out_dir=tmp_path / "run")
        rows, state = sequential_run(config, tmp_path / "ref")
        assert len(result.dataset.x_train) % config.batch_size != 0
        # repr prints every float to the last bit, nan and -0.0 included
        assert repr(result.telemetry) == repr(rows)
        for path in result.snapshot_paths:
            assert path.read_bytes() == (tmp_path / "ref" / path.name).read_bytes()
        got, want = result.state, state
        for a, b in [(got.student.w1, want.student.w1), (got.student.w2, want.student.w2),
                     (got.teacher.w1, want.teacher.w1), (got.teacher.w2, want.teacher.w2),
                     (got.prototypes, want.prototypes)]:
            assert a.tobytes() == b.tobytes()
        assert len(result.snapshot_paths) == config.epochs + 1

    @pytest.mark.parametrize("regime", ["joint", "decoupled"])
    def test_failing_step_raises_after_its_prefetch(self, monkeypatch, regime):
        helper = SlowHelper()
        monkeypatch.setattr(mixture, "_helper_pool", lambda: helper)
        norms = []

        def norm_then_nan(grads):
            norms.append(None)
            return math.nan if len(norms) == 3 else 1.0

        monkeypatch.setattr(simulate, "_global_norm", norm_then_nan)
        with pytest.raises(ValueError, match="step 2: gradient norm is nan"):
            try:
                run_experiment(tiny_config(regime=regime))
            finally:  # as the error leaves run_experiment
                done = [future.done() for future in helper.futures]
        # the spread, and the views of batches 2 to 4 (the 4th drawn ahead);
        # each epoch's first batch is drawn on the calling thread
        assert done == [True] * 4

    def test_concurrent_runs_share_the_helper(self):
        # more callers than cores queue their draws on the one helper; each
        # run's draws stay in its own order
        config = tiny_config(views=3, batch_size=30)

        def run():
            result = run_experiment(config)
            return repr(result.telemetry), result.state.prototypes.tobytes()

        want = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(run) for _ in range(8)]
                results = [r.result(timeout=60) for r in runs]
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 8

    def test_joint_prototypes_are_the_spread(self):
        config = tiny_config(regime="joint", seed=4)
        state, _ = init_sim(config)
        want = spread_unit_vectors(8, 4, np.random.default_rng([4, 2]))
        assert state.prototypes.tobytes() == want.tobytes()


class TestConfigText:
    def test_round_trip(self):
        text = """
        # experiment
        sim.regime=joint
        sim.epochs=7
        sim.lr=0.25
        data.mode=longtail
        data.exponent=1.5
        gmm.eta.start=0.1
        gmm.forgetting=true
        """
        cfg = sim_config_from_text(text)
        assert cfg.regime == "joint"
        assert cfg.epochs == 7
        assert cfg.learning_rate == 0.25
        assert cfg.data.mode == "longtail"
        assert cfg.gmm.eta_start == 0.1
        mapping = config_to_mapping(cfg)
        assert mapping["sim.regime"] == "joint"
        assert mapping["data.exponent"] == "1.5"

    def test_unknown_key_named(self):
        # older configs may still carry removed keys: rejected, not ignored
        for key in ("sim.regym", "gmm.rescaling", "gmm.variance_floor",
                    "sim.proto_init"):
            with pytest.raises(ConfigError) as err:
                sim_config_from_text(f"{key}=1\n")
            assert err.value.key == key
            assert "line 1" in str(err.value)

    def test_config_error_unpickles(self):
        # an error raised in a process-pool worker reaches the parent pickled
        err = pickle.loads(pickle.dumps(ConfigError("sim.seed", "bad")))
        assert err.key == "sim.seed"
        assert str(err) == "config key 'sim.seed': bad"

    def test_bad_value_named(self):
        with pytest.raises(ConfigError) as err:
            sim_config_from_text("sim.epochs=soon\n")
        assert err.value.key == "sim.epochs"

    # values outside a range a dataclass checks; a cross-field check names
    # the field it bounds (samples per class, tail below head)
    OUT_OF_RANGE = {
        "sim.tau_student": "0", "sim.tau_teacher": "0", "sim.ema": "1",
        "sim.lr": "-1", "sim.grad_clip": "0", "sim.epochs": "-1",
        "sim.views": "1", "sim.batch": "0", "sim.view_dropout": "1",
        "data.classes": "0", "data.samples": "3", "data.tail_max": "100",
        "data.test_fraction": "1", "gmm.beta": "2", "gmm.eta.start": "-0.5",
        "gmm.eta.end": "1.5", "gmm.resurrect_threshold": "0",
        "gmm.init_variance": "0", "data.spread": "-0.1", "data.exponent": "-1",
        "sim.view_noise": "-0.1", "gmm.anneal_start": "1.5",
        "sim.prototypes": "0", "sim.latent_dim": "0", "sim.hidden": "0",
        "data.input_dim": "0", "sim.seed": "-1", "gmm.total_steps": "-1",
    }

    @pytest.mark.parametrize("key", KNOWN_KEYS)
    def test_every_rejected_value_names_its_key(self, key):
        # unknown for the two names, unparsable for every number and flag;
        # a ranged key also refuses NaN, which an int key cannot parse and a
        # float key's range check must not let through
        bad = ["bogus"]
        if key in self.OUT_OF_RANGE:
            bad += [self.OUT_OF_RANGE[key], "nan"]
        for value in bad:
            with pytest.raises(ConfigError) as err:
                sim_config_from_text(f"{key}={value}\n")
            assert err.value.key == key, value

    def test_key_set_and_default_mapping_pinned(self):
        # a key dropped or renamed in the field declarations shows here
        assert KNOWN_KEYS == [
            "data.classes", "data.exponent", "data.head_min", "data.input_dim",
            "data.mode", "data.samples", "data.spread", "data.tail_max",
            "data.test_fraction", "gmm.anneal_start", "gmm.annealing", "gmm.beta",
            "gmm.eta.end", "gmm.eta.start", "gmm.forgetting", "gmm.init_variance",
            "gmm.resurrect", "gmm.resurrect_threshold", "gmm.total_steps",
            "sim.batch", "sim.ema", "sim.epochs", "sim.grad_clip", "sim.hidden",
            "sim.latent_dim", "sim.lr", "sim.prototypes", "sim.regime", "sim.seed",
            "sim.tau_student", "sim.tau_teacher", "sim.view_dropout",
            "sim.view_noise", "sim.views",
        ]
        assert config_to_mapping(SimConfig()) == {
            "data.classes": "8", "data.exponent": "1.5", "data.head_min": "100",
            "data.input_dim": "32", "data.mode": "balanced", "data.samples": "2048",
            "data.spread": "0.25", "data.tail_max": "20", "data.test_fraction": "0.2",
            "gmm.anneal_start": "0.5", "gmm.annealing": "True", "gmm.beta": "1.0",
            "gmm.eta.end": "0.5", "gmm.eta.start": "0.1", "gmm.forgetting": "True",
            "gmm.init_variance": "1.0", "gmm.resurrect": "True",
            "gmm.resurrect_threshold": "0.3", "gmm.total_steps": "0",
            "sim.batch": "128", "sim.ema": "0.99", "sim.epochs": "50",
            "sim.grad_clip": "10.0", "sim.hidden": "32", "sim.latent_dim": "16",
            "sim.lr": "0.5", "sim.prototypes": "64", "sim.regime": "decoupled",
            "sim.seed": "0", "sim.tau_student": "0.1", "sim.tau_teacher": "0.04",
            "sim.view_dropout": "0.1", "sim.view_noise": "0.1", "sim.views": "2",
        }

    @pytest.mark.parametrize("config", [
        pytest.param(SimConfig(), id="default"),
        pytest.param(contrast_config("joint"), id="contrast"),
        pytest.param(longtail_config("decoupled", 3), id="longtail"),
    ])
    def test_mapping_text_round_trip(self, config):
        # the printed mapping is a config file that builds the same config
        text = "".join(f"{k}={v}\n" for k, v in config_to_mapping(config).items())
        assert sim_config_from_text(text) == config

    @pytest.mark.parametrize("config", [SimConfig(), SimConfig().data, SimConfig().gmm],
                             ids=["sim", "data", "gmm"])
    def test_config_is_frozen(self, config):
        # check_settings runs at construction only: an assignment would
        # bypass the declared bounds
        name = dataclasses.fields(config)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    @pytest.mark.parametrize("key", ["data.spread", "data.exponent", "sim.view_noise",
                                     "gmm.init_variance"])
    def test_infinite_scale_rejected(self, key):
        with pytest.raises(ConfigError) as err:
            sim_config_from_text(f"{key}=inf\n")
        assert err.value.key == key

    def test_init_variance_key(self):
        cfg = sim_config_from_text("gmm.init_variance=0.0625\n")
        assert cfg.gmm.init_variance == 0.0625
        state, _ = init_sim(sim_config_from_text(
            "sim.prototypes=4\nsim.latent_dim=4\nsim.hidden=4\n"
            "data.classes=2\ndata.input_dim=4\ndata.samples=40\n"
            "gmm.init_variance=0.0625\n"
        ))
        # the key sets the seeded second moments; the published variances
        # are their M-step
        mixture = state.mixture
        stats = mixture.suffstats
        want = stats.s_pi[:, None] * (0.0625 + mixture.means * mixture.means)
        assert stats.s_sigma.tobytes() == want.tobytes()
        derived = m_step(stats, GmmConfig.variance_floor)[2]
        assert mixture.variances.tobytes() == derived.tobytes()
