import copy
import dataclasses
import logging
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from protostream import cores, mixture
from protostream.mixture import (
    DegenerateComponentError,
    GmmConfig,
    MixtureState,
    SufficientStats,
    batch_suffstats,
    e_step,
    forget_and_merge,
    gmm_update,
    init_mixture,
    log_likelihood,
    m_step,
    split_resurrect,
    spread_unit_vectors,
)

import oracles


def toggles_off(**kw):
    base = dict(responsibility_forgetting=False, annealing=False,
                resurrect=False)
    base.update(kw)
    return GmmConfig(**base)


class TestSchedule:
    @pytest.mark.parametrize("total_steps", [0, 1, 50])
    def test_constant_schedule_is_exact(self, total_steps):
        # the form tests use in place of per-call beta and eta
        for beta, eta in ((0.5, 0.0), (1.0, 0.995), (0.3, 0.1)):
            config = GmmConfig(total_steps=total_steps, annealing=False, beta=beta,
                               eta_start=eta, eta_end=eta)
            for step in (-2, 0, 1, 7, 49, 50, 51, 10**6):
                assert config.beta_at(step) == beta
                assert config.eta_at(step) == eta


class TestInitMixture:
    def test_uniform_weights(self):
        rng = np.random.default_rng(0)
        state = init_mixture(4, rng.standard_normal((4, 2)) / np.sqrt(2),
                             GmmConfig(), rng)
        assert np.array_equal(state.weights, np.full(4, 0.25))
        assert state.variances.shape == (4, 2)
        assert np.all(state.variances == 1.0)
        assert state.step == 0
        # seeded per-sample pseudo-counts: one observation in total
        s_pi, s_mu, s_sigma = oracles.oracle_init_suffstats(
            state.means, state.variances, 1.0
        )
        np.testing.assert_allclose(state.suffstats.s_pi, s_pi, atol=1e-15)
        np.testing.assert_allclose(state.suffstats.s_mu, s_mu, atol=1e-15)
        np.testing.assert_allclose(state.suffstats.s_sigma, s_sigma, atol=1e-15)

    def test_means_sampled_without_replacement(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        state = init_mixture(2, pts, GmmConfig(), np.random.default_rng(1))
        got = {tuple(row) for row in state.means}
        assert got == {(0.0, 0.0), (1.0, 1.0)}

    def test_too_few_points_rejected(self):
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError):
            init_mixture(3, pts, GmmConfig(), np.random.default_rng(2))

    def test_bad_dims_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_mixture(0, np.zeros((3, 3)), GmmConfig(), rng)
        with pytest.raises(ValueError):
            init_mixture(3, np.zeros((3, 0)), GmmConfig(), rng)

    def test_published_parameters_are_m_step_of_seeded_stats(self):
        config = GmmConfig(init_variance=1.0 / 64.0)
        state = oracles.random_mixture(1024, 64, np.random.default_rng(0),
                                       config.init_variance)
        derived = m_step(state.suffstats, GmmConfig.variance_floor)
        for got, want in zip((state.weights, state.means, state.variances),
                             derived):
            assert got.tobytes() == want.tobytes()

    def test_parameters_with_statistics_refused(self):
        state = oracles.random_mixture(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="not both"):
            MixtureState(state.weights, state.means, state.variances,
                         state.suffstats, 0)

    def test_state_is_frozen(self):
        state = oracles.random_mixture(3, 2, np.random.default_rng(0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.means = np.zeros((3, 2))


class TestEStep:
    def test_single_component(self):
        state = oracles.random_mixture(1, 3, np.random.default_rng(0))
        resp = e_step(state, np.array([[0.3, -1.0, 2.0]]), beta=1.0)
        assert resp.shape == (1, 1)
        assert resp[0, 0] == 1.0

    def test_identical_components_split_evenly(self):
        state = MixtureState(np.full(2, 0.5), np.zeros((2, 2)), np.ones((2, 2)),
                             None, 0)
        resp = e_step(state, np.array([[5.0, -3.0]]), beta=1.0)
        np.testing.assert_allclose(resp[0], [0.5, 0.5], atol=1e-12)

    def test_beta_zero_returns_prior(self):
        base = oracles.random_mixture(2, 2, np.random.default_rng(0))
        state = MixtureState(np.array([0.7, 0.3]), base.means, base.variances,
                             None, 0)
        resp = e_step(state, np.array([[9.0, 9.0], [0.0, 0.1]]), beta=0.0)
        np.testing.assert_allclose(resp, [[0.7, 0.3], [0.7, 0.3]], atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        state = MixtureState(np.array([0.5, 0.2, 0.3]), rng.standard_normal((3, 4)),
                             rng.uniform(0.3, 1.5, size=(3, 4)), None, 0)
        point = rng.standard_normal((1, 4))
        got = e_step(state, point, beta=0.8)
        want = oracles.oracle_responsibilities(
            state.weights, state.means, state.variances, point, 0.8
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        state = MixtureState(np.full(5, 0.2), rng.standard_normal((5, 3)) * 3,
                             np.ones((5, 3)), None, 0)
        resp = e_step(state, rng.standard_normal((64, 3)), beta=1.0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        state = oracles.random_mixture(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            e_step(state, np.zeros((4, 2)), beta=1.0)

    def test_no_underflow_for_distant_points(self):
        base = oracles.random_mixture(3, 8, np.random.default_rng(0))
        state = MixtureState(base.weights, base.means, np.full((3, 8), 1e-4),
                             None, 0)
        batch = np.full((2, 8), 50.0)
        resp = e_step(state, batch, beta=1.0)
        assert np.all(np.isfinite(resp))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)


class TestBatchSuffstats:
    def test_single_point(self):
        stats = batch_suffstats(np.array([[2.0, 3.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(stats.s_pi, [1.0])
        np.testing.assert_array_equal(stats.s_mu, [[2.0, 3.0]])
        np.testing.assert_array_equal(stats.s_sigma, [[4.0, 9.0]])

    def test_column_sums(self):
        batch = np.array([[1.0, 0.0], [0.0, 1.0]])
        resp = np.full((2, 2), 0.5)
        stats = batch_suffstats(batch, resp)
        np.testing.assert_allclose(stats.s_pi, [0.5, 0.5])

    def test_total_count_is_one(self):
        rng = np.random.default_rng(5)
        state = oracles.random_mixture(5, 4, rng)
        batch = rng.standard_normal((8, 4))
        resp = e_step(state, batch, beta=1.0)
        stats = batch_suffstats(batch, resp)
        assert abs(stats.s_pi.sum() - 1.0) < 1e-9

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((8, 4))
        resp = rng.dirichlet(np.ones(5), size=8)
        stats = batch_suffstats(batch, resp)
        s_pi, s_mu, s_sigma = oracles.oracle_suffstats(batch, resp)
        np.testing.assert_allclose(stats.s_pi, s_pi / 8, atol=1e-12)
        np.testing.assert_allclose(stats.s_mu, s_mu / 8, atol=1e-12)
        np.testing.assert_allclose(stats.s_sigma, s_sigma / 8, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_suffstats(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_batch_rejected(self):
        # an empty batch has no per-sample average
        with pytest.raises(ValueError, match="non-empty"):
            batch_suffstats(np.zeros((0, 2)), np.zeros((0, 3)))


def small_state_with_stats(rng, k=3, d=2):
    s_pi = rng.uniform(1.0, 3.0, size=k)
    s_mu = rng.standard_normal((k, d))
    # second moments of variances 0.5/s_pi to 2/s_pi, none at the floor
    s_sigma = rng.uniform(0.5, 2.0, size=(k, d)) + s_mu * s_mu / s_pi[:, None]
    return MixtureState.from_stats(SufficientStats(s_pi, s_mu, s_sigma), 1)


class TestForgetAndMerge:
    def test_eta_zero_full_replacement(self):
        rng = np.random.default_rng(0)
        state = small_state_with_stats(rng)
        batch = rng.standard_normal((6, 2))
        resp = e_step(state, batch, beta=1.0)
        fresh = batch_suffstats(batch, resp)
        merged = forget_and_merge(state.suffstats, fresh, eta=0.0,
                                  use_resp_forgetting=True)
        np.testing.assert_array_equal(merged.s_pi, fresh.s_pi)
        np.testing.assert_array_equal(merged.s_mu, fresh.s_mu)

    def test_zero_responsibility_is_bitwise_frozen(self):
        rng = np.random.default_rng(1)
        state = small_state_with_stats(rng)
        state.suffstats.s_mu[1] = np.array([-0.0, 3.3333333333333331])
        batch = rng.standard_normal((4, 2))
        resp = np.zeros((4, 3))
        resp[:, 0] = 0.25
        resp[:, 2] = 0.75
        fresh = batch_suffstats(batch, resp)
        merged = forget_and_merge(state.suffstats, fresh, eta=0.4,
                                  use_resp_forgetting=True)
        same = (
            merged.s_pi[1].tobytes() == state.suffstats.s_pi[1].tobytes()
            and merged.s_mu[1].tobytes() == state.suffstats.s_mu[1].tobytes()
            and merged.s_sigma[1].tobytes() == state.suffstats.s_sigma[1].tobytes()
        )
        assert same

    def test_midpoint_arithmetic(self):
        # eta=0.5 with unit mean responsibility blends old and fresh equally
        old = SufficientStats(np.array([2.0]), np.array([[2.0]]), np.array([[2.0]]))
        # per-sample count 1: the one component took every sample
        fresh = SufficientStats(np.array([1.0]), np.array([[4.0]]), np.array([[4.0]]))
        merged = forget_and_merge(old, fresh, eta=0.5, use_resp_forgetting=True)
        np.testing.assert_allclose(merged.s_pi, [1.5])
        np.testing.assert_allclose(merged.s_mu, [[3.0]])

    def test_plain_eta_when_disabled(self):
        rng = np.random.default_rng(2)
        state = small_state_with_stats(rng)
        batch = rng.standard_normal((5, 2))
        resp = e_step(state, batch, beta=1.0)
        fresh = batch_suffstats(batch, resp)
        merged = forget_and_merge(state.suffstats, fresh, eta=0.25,
                                  use_resp_forgetting=False)
        want = 0.25 * state.suffstats.s_pi + 0.75 * fresh.s_pi
        np.testing.assert_allclose(merged.s_pi, want, atol=1e-12)

    def test_eta_out_of_range(self):
        rng = np.random.default_rng(3)
        state = small_state_with_stats(rng)
        batch = rng.standard_normal((4, 2))
        resp = e_step(state, batch, beta=1.0)
        fresh = batch_suffstats(batch, resp)
        with pytest.raises(ValueError):
            forget_and_merge(state.suffstats, fresh, eta=1.5,
                             use_resp_forgetting=True)


class TestMStep:
    def test_single_component_sample_moments(self):
        from protostream.mixture import SufficientStats

        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        resp = np.ones((2, 1))
        stats = batch_suffstats(pts, resp)
        weights, means, variances = m_step(stats, variance_floor=1e-6)
        np.testing.assert_allclose(weights, [1.0])
        np.testing.assert_allclose(means, [[1.0, 0.0]])
        np.testing.assert_allclose(variances, [[1.0, 1e-6]])

    def test_weight_normalization(self):
        from protostream.mixture import SufficientStats

        stats = SufficientStats(
            np.array([3.0, 1.0]), np.ones((2, 2)), np.ones((2, 2)) * 2
        )
        weights, _, _ = m_step(stats, variance_floor=1e-6)
        np.testing.assert_allclose(weights, [0.75, 0.25])

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        from protostream.mixture import SufficientStats

        s_pi = rng.uniform(0.5, 5.0, size=4)
        s_mu = rng.standard_normal((4, 3))
        s_sigma = rng.uniform(1.0, 4.0, size=(4, 3)) + (s_mu * s_mu) / s_pi[:, None]
        stats = SufficientStats(s_pi, s_mu, s_sigma)
        weights, means, variances = m_step(stats, variance_floor=1e-12)
        ow, om, ov = oracles.oracle_m_step(s_pi, s_mu, s_sigma)
        np.testing.assert_allclose(weights, ow, atol=1e-10)
        np.testing.assert_allclose(means, om, atol=1e-10)
        np.testing.assert_allclose(variances, ov, atol=1e-10)

    def test_degenerate_count_raises(self):
        from protostream.mixture import SufficientStats

        stats = SufficientStats(
            np.array([1.0, 0.0]), np.ones((2, 2)), np.ones((2, 2))
        )
        with pytest.raises(DegenerateComponentError):
            m_step(stats, variance_floor=1e-6)


class TestSplitResurrect:
    def test_fixture_split(self):
        base = oracles.random_mixture(3, 4, np.random.default_rng(0))
        state = MixtureState(np.array([0.4, 0.35, 0.25]), base.means,
                             base.variances, None, 0)
        before = copy.deepcopy(state)
        new_state, events = split_resurrect(state, 0.3, np.random.default_rng(1),
                                            1.0)
        splits = [e for e in events if e.kind == "split"]
        assert splits[0].dominant == 0
        assert splits[0].resurrected == 2
        assert splits[0].old_weight == pytest.approx(0.4)
        # both entries over the threshold split, descending order
        assert [e.dominant for e in splits] == [0, 1]
        assert abs(new_state.weights.sum() - 1.0) < 1e-12
        assert new_state.weights.max() < before.weights.max()
        assert not np.array_equal(new_state.means[2], before.means[2])
        np.testing.assert_allclose(new_state.variances[2], np.ones(4), atol=1e-12)

    def test_nothing_over_threshold(self):
        state = oracles.random_mixture(5, 2, np.random.default_rng(0))
        new_state, events = split_resurrect(state, 0.3, np.random.default_rng(1),
                                            1.0)
        assert events == []
        np.testing.assert_array_equal(new_state.weights, state.weights)
        np.testing.assert_array_equal(new_state.means, state.means)

    def test_single_component_noop(self, caplog):
        # a lone component has no other to resurrect: no event and no log line
        state = oracles.random_mixture(1, 2, np.random.default_rng(0))
        with caplog.at_level(logging.DEBUG, logger="protostream.mixture"):
            new_state, events = split_resurrect(state, 0.3,
                                                np.random.default_rng(1), 1.0)
        assert events == []
        assert new_state is state
        assert not caplog.records

    def test_resurrected_norm_matches_mean_norm(self):
        rng = np.random.default_rng(3)
        base = oracles.random_mixture(4, 6, rng)
        state = MixtureState(np.array([0.7, 0.1, 0.1, 0.1]), base.means,
                             base.variances, None, 0)
        target = np.linalg.norm(state.means, axis=1).mean()
        new_state, events = split_resurrect(state, 0.3, np.random.default_rng(4),
                                            1.0)
        j = events[0].resurrected
        assert np.linalg.norm(new_state.means[j]) == pytest.approx(target)


    def test_split_edits_statistics(self):
        from protostream.mixture import SufficientStats

        rng = np.random.default_rng(5)
        s_pi = np.array([8.0, 7.0, 5.0])
        s_mu = rng.standard_normal((3, 4)) * s_pi[:, None]
        s_sigma = (rng.uniform(0.5, 2.0, size=(3, 4))
                   + (s_mu / s_pi[:, None]) ** 2) * s_pi[:, None]
        stats = SufficientStats(s_pi, s_mu, s_sigma)
        state = MixtureState.from_stats(stats, 1)
        new_state, events = split_resurrect(state, 0.3, np.random.default_rng(2),
                                            init_variance=0.25)
        assert [(e.dominant, e.resurrected) for e in events] == [(0, 2), (1, 0)]
        derived = m_step(new_state.suffstats, 1e-6)
        for got, want in zip((new_state.weights, new_state.means,
                              new_state.variances), derived):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(new_state.suffstats.s_pi, [3.5, 3.5, 4.0])
        np.testing.assert_allclose(new_state.weights, [3.5 / 11, 3.5 / 11, 4 / 11])
        # reborn components start from init_variance
        np.testing.assert_allclose(new_state.variances[[2, 0]],
                                   np.full((2, 4), 0.25), atol=1e-12)
        # the caller's statistics are not mutated
        np.testing.assert_array_equal(state.suffstats.s_pi, s_pi)


def separated_batch(rng, k, d, n, spread=0.05):
    centers = rng.standard_normal((k, d))
    centers = 3.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, k, size=n)
    return centers[labels] + spread * rng.standard_normal((n, d)), centers


class TestGmmUpdate:
    def test_first_update_is_one_em_step(self):
        rng = np.random.default_rng(0)
        config = toggles_off(eta_start=0.0, eta_end=0.0)
        state = oracles.random_mixture(3, 2, rng)
        batch = rng.standard_normal((12, 2))
        new_state = gmm_update(state, batch, config).state
        assert new_state.step == 1
        ow, om, ov = oracles.oracle_em_step(batch, state.weights, state.means,
                                            state.variances)
        np.testing.assert_allclose(new_state.weights, ow, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_state.means, om, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_state.variances, ov, rtol=0, atol=1e-12)

    def test_matches_batch_em(self):
        rng = np.random.default_rng(1234)
        batch, _ = separated_batch(rng, k=4, d=3, n=128)
        config = toggles_off(eta_start=0.0, eta_end=0.0)
        state = init_mixture(4, batch, config, np.random.default_rng(5))
        start = state.weights, state.means, state.variances
        # with full replacement each streaming update is one classical EM
        # iteration on the batch; checking every step pins the count, since
        # the fixture converges long before the last one
        for t in range(1, 21):
            state = gmm_update(state, batch, config).state
            ow, om, ov = oracles.oracle_em_run(batch, *start, t)
            np.testing.assert_allclose(state.weights, ow, rtol=0, atol=1e-10)
            np.testing.assert_allclose(state.means, om, rtol=0, atol=1e-10)
            np.testing.assert_allclose(state.variances, ov, rtol=0, atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        batch, _ = separated_batch(rng, k=3, d=4, n=64)
        config = GmmConfig(rng_seed=11, total_steps=50)

        def run():
            state = init_mixture(3, batch, config, np.random.default_rng(7))
            for _ in range(10):
                state = gmm_update(state, batch, config).state
            return state

        a, b = run(), run()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.means.tobytes() == b.means.tobytes()
        assert a.variances.tobytes() == b.variances.tobytes()

    def test_rejects_nonfinite(self):
        config = toggles_off()
        state = oracles.random_mixture(2, 2, np.random.default_rng(0))
        batch = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            gmm_update(state, batch, config)

    def test_input_state_not_mutated(self):
        rng = np.random.default_rng(4)
        config = GmmConfig(total_steps=10)
        state = oracles.random_mixture(3, 2, rng)
        w, m, v = (state.weights.copy(), state.means.copy(), state.variances.copy())
        batch = rng.standard_normal((8, 2))
        gmm_update(state, batch, config)
        gmm_update(state, batch, config)
        np.testing.assert_array_equal(state.weights, w)
        np.testing.assert_array_equal(state.means, m)
        np.testing.assert_array_equal(state.variances, v)
        assert state.step == 0


class TestFusedUpdate:
    """``gmm_update`` evaluates the densities once and hands them out."""

    @staticmethod
    def trained(config, steps=5):
        rng = np.random.default_rng(21)
        batch, _ = separated_batch(rng, k=5, d=4, n=96)
        state = init_mixture(6, batch, config, np.random.default_rng(8))
        for _ in range(steps):
            state = gmm_update(state, batch, config).state
        return state, rng.permutation(batch)[:40]

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_record_log_likelihood_is_bitwise_the_public_one(self, beta):
        config = GmmConfig(total_steps=20, rng_seed=4)
        state, batch = self.trained(config)
        constant = dataclasses.replace(config, annealing=False, beta=beta)
        update = gmm_update(state, batch, constant)
        want = log_likelihood(state, batch)
        assert np.float64(update.log_likelihood()).tobytes() == np.float64(want).tobytes()
        assert update.log_densities.shape == (40, 6)

    @pytest.mark.parametrize("forgetting", [True, False])
    def test_state_is_bitwise_the_composed_update(self, forgetting):
        config = GmmConfig(total_steps=20, rng_seed=4, resurrect=False,
                           responsibility_forgetting=forgetting)
        state, batch = self.trained(config)
        beta, eta = config.beta_at(state.step), config.eta_at(state.step)
        resp = e_step(state, batch, beta)
        fresh = batch_suffstats(batch, resp)
        stats = forget_and_merge(state.suffstats, fresh, eta, forgetting)
        want = m_step(stats, GmmConfig.variance_floor)
        got = gmm_update(state, batch, config).state
        assert got.step == state.step + 1
        for a, b in zip((got.weights, got.means, got.variances,
                         got.suffstats.s_pi, got.suffstats.s_mu,
                         got.suffstats.s_sigma),
                        (*want, stats.s_pi, stats.s_mu, stats.s_sigma)):
            assert a.tobytes() == b.tobytes()

    def test_rejects_beta_outside_unit_interval(self):
        config = toggles_off()
        state, batch = self.trained(config, steps=0)
        with pytest.raises(ValueError, match="beta"):
            e_step(state, batch, 1.5)

    def test_rejects_wrong_dimension(self):
        config = toggles_off()
        state, batch = self.trained(config, steps=0)
        with pytest.raises(ValueError, match=r"batch must be \(n, 4\)"):
            gmm_update(state, batch[:, :3], config)


class TestForkJoin:
    """``fork_join(there, here)``: ``there`` on the helper thread, ``here``
    on the caller's, both always waited for."""

    def test_results_in_order_and_threads(self):
        def there():
            return "there", threading.current_thread().name

        def here():
            return "here", threading.current_thread().name

        (a, there_thread), (b, here_thread) = cores.fork_join(there, here)
        assert (a, b) == ("there", "here")
        assert there_thread.startswith("cores")
        assert here_thread == threading.current_thread().name

    @pytest.mark.parametrize("there_raises", [False, True])
    def test_here_error_wins_after_there_finishes(self, there_raises):
        finished = []

        def there():
            time.sleep(0.05)
            finished.append(True)
            if there_raises:
                raise KeyError("there")

        def here():
            raise ValueError("here")

        with pytest.raises(ValueError, match="here"):
            try:
                cores.fork_join(there, here)
            finally:  # as the error leaves fork_join
                done = list(finished)
        assert done == [True]

    def test_there_error_raised_after_here_returns(self):
        returned = []

        def there():
            raise KeyError("there")

        def here():
            time.sleep(0.05)
            returned.append(True)

        with pytest.raises(KeyError, match="there"):
            cores.fork_join(there, here)
        assert returned == [True]

    def test_nested_in_here_completes_while_helper_is_busy(self):
        # the outer there holds the helper until the inner here runs, so the
        # inner there queues behind it
        busy = threading.Event()

        def inner_here():
            busy.set()
            return "inner here"

        def outer():
            return cores.fork_join(
                lambda: busy.wait(30) and "outer there",
                lambda: cores.fork_join(lambda: "inner there", inner_here))

        out = []
        caller = threading.Thread(target=lambda: out.append(outer()), daemon=True)
        caller.start()
        caller.join(60)
        assert out == [("outer there", ("inner there", "inner here"))]


class TestFromBothEnds:
    """``from_both_ends(tasks, first)``: the helper takes tasks from the
    front, the caller runs ``first`` and then takes them from the back."""

    @staticmethod
    def recording(n, log):
        def task(i):
            log.append((i, threading.current_thread().name))
            return i * i
        return [lambda i=i: task(i) for i in range(n)]

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_each_task_once_and_results_in_order(self, n):
        log = []
        results, value = cores.from_both_ends(self.recording(n, log), lambda: "first")
        assert value == "first"
        assert results == [i * i for i in range(n)]
        assert sorted(i for i, _ in log) == list(range(n))

    def test_helper_from_the_front_caller_from_the_back(self):
        # the caller's first waits for the helper's first two tasks, whose
        # third waits for the caller to take one
        log, helper_two, caller_took = [], threading.Event(), threading.Event()
        tasks = self.recording(6, log)

        def gated(i):
            def run():
                if threading.current_thread() is threading.main_thread():
                    caller_took.set()
                elif i == 2:
                    assert caller_took.wait(30)
                result = tasks[i]()
                if i == 1:
                    helper_two.set()
                return result
            return run

        results, _ = cores.from_both_ends([gated(i) for i in range(6)],
                                          lambda: helper_two.wait(30))
        assert results == [i * i for i in range(6)]
        helper = [i for i, name in log if name.startswith("cores")]
        caller = [i for i, name in log if name == threading.current_thread().name]
        assert helper == sorted(helper) and helper[:3] == [0, 1, 2]
        assert caller == sorted(caller, reverse=True) and caller[0] == 5
        assert sorted(helper + caller) == list(range(6))

    @pytest.mark.parametrize("where", ["first", "task"])
    def test_an_error_stops_further_tasks(self, where):
        log, started = [], threading.Event()

        def task(i):
            started.set()
            if where == "task" and i == 0:
                raise KeyError("task")
            time.sleep(0.01)
            log.append(i)

        def first():
            started.wait(30)
            if where == "first":
                raise ValueError("first")

        with pytest.raises(KeyError if where == "task" else ValueError):
            cores.from_both_ends([lambda i=i: task(i) for i in range(200)], first)
        assert len(log) < 20

    def test_stress_every_task_runs_once(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(1, 300, 37):
                counts = [0] * n

                def task(i):
                    counts[i] += 1
                    return i

                results, _ = cores.from_both_ends([lambda i=i: task(i) for i in range(n)],
                                                  lambda: None)
                assert results == list(range(n)) and counts == [1] * n
        finally:
            sys.setswitchinterval(interval)


class CountingHelper:
    """Stands in for the package's helper pool and counts its submissions."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


class TestTwoThreadSplit:
    """The (N, K) work runs in two halves at and above ``_SPLIT_MIN``; the
    outputs are the bits of one pass."""

    @staticmethod
    def helper(monkeypatch, split_min):
        monkeypatch.setattr(cores, "_SPLIT_MIN", split_min)
        helper = CountingHelper(cores._helper_pool())
        monkeypatch.setattr(cores, "_helper_pool", lambda: helper)
        return helper

    @staticmethod
    def fixture(n, k, d):
        rng = np.random.default_rng([n, k, d])
        config = GmmConfig(total_steps=20, rng_seed=3)
        points = rng.standard_normal((max(n, k), d))
        state = init_mixture(k, points, config, np.random.default_rng(1))
        for _ in range(3):
            state = gmm_update(state, points, config).state
        return state, rng.standard_normal((n, d)), config

    @staticmethod
    def outputs(state, batch, config):
        update = gmm_update(state, batch, config)
        new, resp = update.state, e_step(state, batch, 0.7)
        stats = batch_suffstats(batch, resp)
        return [new.weights, new.means, new.variances, new.suffstats.s_pi,
                new.suffstats.s_mu, new.suffstats.s_sigma, update.log_densities,
                np.float64(update.log_likelihood()), resp,
                np.float64(log_likelihood(state, batch)),
                stats.s_pi, stats.s_mu, stats.s_sigma]

    # odd N and K; one sample (only the statistics split); one component
    # (only the rows split); the last two take BLAS's matrix-vector kernel
    # and differ when the cut is not a multiple of 4
    @pytest.mark.parametrize("n,k,d", [(97, 13, 5), (1, 13, 5), (97, 1, 5),
                                       (21, 1, 64), (30, 5, 1)])
    def test_split_outputs_are_the_bits_of_one_pass(self, monkeypatch, n, k, d):
        state, batch, config = self.fixture(n, k, d)
        helper = self.helper(monkeypatch, 0)
        split = self.outputs(state, batch, config)
        assert helper.submitted > 0
        helper = self.helper(monkeypatch, 2**62)
        whole = self.outputs(state, batch, config)
        assert helper.submitted == 0
        for a, b in zip(split, whole):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_size_rule_counts_n_times_k_times_d(self, monkeypatch):
        # at N*K*D = 2**22 each half still multiplies over 10**6 terms; at
        # N*K = 2**17 with D=8 half the statistic product would not, and
        # OpenBLAS may then take a small-matrix kernel with other rounding
        state, batch, config = self.fixture(512, 1024, 8)
        helper = self.helper(monkeypatch, cores._SPLIT_MIN)
        split = self.outputs(state, batch, config)
        # update 2, record 1, e_step 1, log_likelihood 2, batch_suffstats 1
        assert helper.submitted == 7
        helper = self.helper(monkeypatch, 2**62)
        whole = self.outputs(state, batch, config)
        for a, b in zip(split, whole):
            assert a.tobytes() == b.tobytes()
        state, batch, config = self.fixture(512, 256, 8)
        helper = self.helper(monkeypatch, cores._SPLIT_MIN)
        self.outputs(state, batch, config)
        assert helper.submitted == 0

    def test_bad_beta_refused_before_any_work_is_submitted(self, monkeypatch):
        state, batch, _ = self.fixture(97, 13, 5)
        helper = self.helper(monkeypatch, 0)
        with pytest.raises(ValueError, match="beta"):
            e_step(state, batch, 1.5)
        assert helper.submitted == 0

    def test_inputs_not_mutated(self, monkeypatch):
        state, batch, config = self.fixture(97, 13, 5)
        resp = e_step(state, batch, 1.0)
        inputs = [state.weights, state.means, state.variances, state.suffstats.s_pi,
                  state.suffstats.s_mu, state.suffstats.s_sigma, batch, resp]
        before = [a.copy() for a in inputs]
        helper = self.helper(monkeypatch, 0)
        self.outputs(state, batch, config)
        batch_suffstats(batch, resp)
        assert helper.submitted > 0
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()

    def test_concurrent_callers_share_the_helper(self, monkeypatch):
        # more callers than cores queue their first halves on the one helper
        state, batch, config = self.fixture(97, 13, 5)
        monkeypatch.setattr(cores, "_SPLIT_MIN", 0)
        want = self.outputs(state, batch, config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(self.outputs, state, batch, config)
                        for _ in range(16)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        # the child inherits the pool object but not its thread
        state, batch, _ = self.fixture(97, 13, 5)
        monkeypatch.setattr(cores, "_SPLIT_MIN", 0)
        e_step(state, batch, 1.0)
        child = multiprocessing.get_context("fork").Process(
            target=e_step, args=(state, batch, 1.0))
        child.start()
        child.join(60)
        hung = child.is_alive()
        if hung:
            child.kill()
        assert not hung and child.exitcode == 0


class TestRegularizersPersist:
    """Splits act on the statistics, so the next update keeps them."""

    def test_one_cluster_split_survives_next_update(self, caplog):
        rng = np.random.default_rng(0)
        config = GmmConfig(total_steps=100, rng_seed=0)
        state = oracles.random_mixture(8, 4, np.random.default_rng(100))
        with caplog.at_level(logging.INFO, logger="protostream.mixture"):
            for _ in range(100):
                state = gmm_update(state, 0.1 * rng.standard_normal((64, 4)),
                                   config).state
                derived = m_step(state.suffstats, config.variance_floor)
                for got, want in zip((state.weights, state.means,
                                      state.variances), derived):
                    np.testing.assert_array_equal(got, want)
        # record args: (step, dominant, old weight, resurrected)
        splits = [r.args for r in caplog.records if r.msg.startswith("split")]
        assert splits, "the fixture must exercise the split path"
        first_step, dominant, _, reborn = splits[0]
        # the reborn component kept its mass, so a split in the next update
        # (if any) is not the same one made again
        again = [(k, j) for step, k, _, j in splits if step == first_step + 1]
        assert (dominant, reborn) not in again
        split_updates = {r[0] for r in splits}
        assert len(split_updates) < 25, sorted(split_updates)


class TestInvariants:
    def test_simplex_and_floor_under_fuzz(self):
        rng = np.random.default_rng(99)
        config = GmmConfig(total_steps=200, rng_seed=5)
        state = oracles.random_mixture(6, 3, rng)
        for i in range(200):
            batch = rng.standard_normal((16, 3)) * rng.uniform(0.5, 2.0)
            resp = e_step(state, batch, config.beta_at(state.step))
            np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)
            state = gmm_update(state, batch, config).state
            assert abs(state.weights.sum() - 1.0) < 1e-9
            assert np.all(state.weights >= 0.0)
            assert np.all(state.variances >= config.variance_floor)
            assert np.all(np.isfinite(state.means))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        variances = small_state_with_stats(rng, k=4, d=3).variances
        means = rng.standard_normal((4, 3))
        weights = rng.dirichlet(np.ones(4))
        batch = rng.standard_normal((10, 3))
        perm = np.array([2, 0, 3, 1])
        permuted = MixtureState(weights[perm], means[perm], variances[perm], None, 0)
        base = MixtureState(weights, means, variances, None, 0)
        r1 = e_step(base, batch, beta=0.9)
        r2 = e_step(permuted, batch, beta=0.9)
        np.testing.assert_allclose(r2, r1[:, perm], rtol=1e-13, atol=1e-15)

        stats = batch_suffstats(batch, r1)
        from protostream.mixture import SufficientStats

        permuted_stats = SufficientStats(
            stats.s_pi[perm], stats.s_mu[perm], stats.s_sigma[perm]
        )
        w1, m1, v1 = m_step(stats, 1e-8)
        w2, m2, v2 = m_step(permuted_stats, 1e-8)
        np.testing.assert_allclose(w2, w1[perm], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(m2, m1[perm], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(v2, v1[perm], rtol=1e-12, atol=1e-15)

    def test_split_conserves_and_shrinks_max(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            k = int(rng.integers(2, 8))
            base = oracles.random_mixture(k, 3, rng)
            state = MixtureState(rng.dirichlet(np.ones(k) * 0.3), base.means,
                                 base.variances, None, 0)
            new_state, events = split_resurrect(state, 0.3, rng, 1.0)
            assert abs(new_state.weights.sum() - 1.0) < 1e-9
            if any(e.kind == "split" for e in events):
                assert new_state.weights.max() < state.weights.max()

    def test_spread_unit_vectors_are_unit_and_separated(self):
        v = spread_unit_vectors(64, 16, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)
        g = v @ v.T
        np.fill_diagonal(g, -1.0)
        # pairwise angle of at least 60 degrees
        assert g.max() < 0.5


def _invariant_stream(k, d, threshold, toggles, seed, steps):
    """Run a random stream, checking the mixture invariant after each update."""
    forgetting, annealing, resurrect = toggles
    config = GmmConfig(total_steps=steps, rng_seed=seed,
                       resurrect_threshold=threshold,
                       responsibility_forgetting=forgetting, annealing=annealing,
                       resurrect=resurrect)
    rng = np.random.default_rng(seed)
    state = oracles.random_mixture(k, d, rng)
    centers = 3.0 * rng.standard_normal((int(rng.integers(1, 4)), d))
    for update in range(steps + 1):
        # update 0 checks the state as built, before its first update
        if update:
            n = int(rng.integers(1, 40))
            batch = (centers[rng.integers(0, centers.shape[0], size=n)]
                     + rng.uniform(0.01, 1.0) * rng.standard_normal((n, d)))
            state = gmm_update(state, batch, config).state
        derived = m_step(state.suffstats, config.variance_floor)
        for got, want in zip((state.weights, state.means, state.variances),
                             derived):
            assert got.tobytes() == want.tobytes()
        assert np.all(state.weights >= 0.0)
        assert abs(state.weights.sum() - 1.0) < 1e-9
        assert np.all(state.variances >= config.variance_floor)
        for arr in (state.weights, state.means, state.variances,
                    state.suffstats.s_pi, state.suffstats.s_mu,
                    state.suffstats.s_sigma):
            assert np.all(np.isfinite(arr))


# a low threshold on a three-cluster stream: splits in many of its updates
# (test_example_splits_and_rescales checks this)
SPLITTING = dict(k=6, d=3, threshold=0.2, toggles=(True, True, True), seed=1,
                 steps=30)


class TestMixtureProperty:
    """After every update: parameters == m_step(stats), simplex, floor, finite."""

    @given(k=st.integers(2, 8), d=st.integers(1, 4),
           threshold=st.floats(0.05, 0.5),
           toggles=st.tuples(*[st.booleans()] * 3),
           seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
    @example(**SPLITTING)
    def test_invariant_after_every_update(self, k, d, threshold, toggles, seed,
                                          steps):
        _invariant_stream(k, d, threshold, toggles, seed, steps)

    def test_example_splits_and_rescales(self, caplog):
        with caplog.at_level(logging.INFO, logger="protostream.mixture"):
            _invariant_stream(**SPLITTING)
        splits = [r for r in caplog.records if r.msg.startswith("split")]
        assert len(splits) > 5, len(splits)
