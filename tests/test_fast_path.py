"""The in-place arithmetic of the simulator and the mixture against the
formulas it replaced, byte for byte.

``oracles`` keeps those formulas as they read with numpy's row max and one
fresh array per step.  Every comparison here is of raw bytes, on ordinary
inputs and on rows that hold NaN, infinities and signed zeros.
"""

import math

import numpy as np
import pytest

import oracles
from protostream import cores, encoder, mixture, simulate
from protostream.mixture import GmmConfig, gmm_update, init_mixture, split_resurrect


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def special_rows(k, seed=0):
    """Plain rows, then rows with NaN, +-inf, all -inf and +0.0/-0.0 ties."""
    rng = np.random.default_rng(seed)
    rest = [-1.0] * (k - 2)
    rows = [*(30.0 * rng.standard_normal((4, k))),
            [np.nan, 1.0, *rest], [1.0, *rest, np.nan],
            [np.inf, 0.0, *rest], [np.inf, np.inf, *rest], [-np.inf] * k,
            [-np.inf, 0.0, *rest], [0.0, -0.0, *rest], [-0.0, 0.0, *rest],
            [-0.0] * k, [1e308, -1e308, *rest], [-700.0, -745.0, *rest]]
    return np.array(rows, dtype=np.float64)


@pytest.fixture(autouse=True)
def quiet_floats():
    with np.errstate(all="ignore"):
        yield


class TestRowSoftmax:
    @pytest.mark.parametrize("k", [2, 5, 64])
    def test_softmax_rows_is_the_formula(self, k):
        scores = special_rows(k, k)
        got = scores.copy()
        mixture._softmax_rows(got)
        assert same_bits(got, oracles.reference_softmax_rows(scores))

    def test_row_max_is_numpys_max_away_from_zero_ties(self):
        scores = special_rows(64)
        tie = np.array([np.sum(row == 0.0) > 1 and np.max(row) == 0.0
                        for row in scores])
        got, want = mixture._row_max(scores), scores.max(axis=1, keepdims=True)
        assert tie.sum() == 3
        assert same_bits(got[~tie], want[~tie])
        # a +0.0/-0.0 tie may differ in the zero's sign only
        assert np.all(got[tie] == 0.0)

    def test_e_step_is_the_formula(self):
        rng = np.random.default_rng(3)
        config = GmmConfig(total_steps=10, rng_seed=1)
        points = rng.standard_normal((300, 6))
        state = init_mixture(16, points, config, np.random.default_rng(2))
        state = gmm_update(state, points, config).state
        update = gmm_update(state, points, config)
        for beta in (0.0, 0.4, 1.0):
            want = oracles.reference_softmax_rows(
                beta * update.log_densities + update.log_weights)
            assert same_bits(mixture.e_step(state, points, beta), want)

    @pytest.mark.parametrize("k", [2, 64])
    def test_mean_log_sum_exp_is_the_formula(self, k):
        rng = np.random.default_rng(k)
        log_dens = special_rows(k, k)
        for log_w in (np.log(rng.dirichlet(np.ones(k))), np.zeros(k)):
            finite = np.all(np.isfinite(log_dens), axis=1)
            for rows in (log_dens[finite], log_dens):
                got = mixture._mean_log_sum_exp(log_w, rows, 3)
                want = oracles.reference_mean_log_sum_exp(log_w, rows)
                assert same_bits(np.float64(got), np.float64(want))


class TestAssign:
    @pytest.mark.parametrize("tau", [0.04, 0.1, 1.0])
    def test_assign_is_the_formula(self, tau):
        rng = np.random.default_rng(1)
        protos = mixture.spread_unit_vectors(64, 16, rng)
        h = rng.standard_normal((40, 16))
        h[0], h[1, 3], h[2, 5], h[3] = 0.0, np.nan, np.inf, -0.0
        h[4] = -h[4] * 1e300
        assert same_bits(simulate.assign(h, protos, tau),
                         oracles.reference_assign(h, protos, tau))
        for row in h[:6]:
            assert same_bits(simulate.assign(row, protos, tau),
                             oracles.reference_assign(row, protos, tau))


class TestConsistencyLoss:
    def probs(self):
        rng = np.random.default_rng(7)
        s = rng.dirichlet(np.full(8, 0.3), size=12)
        t = rng.dirichlet(np.full(8, 0.3), size=12)
        t[:4] = 0.0  # teachers with exact zeros: one-hot and two-hot rows
        t[0, 2] = t[1, 7] = 1.0
        t[2, [1, 4]] = t[3, [0, 3]] = 0.5
        # students below the 1e-300 floor, down to zero and the least subnormal
        s[4, :5] = [0.0, 5e-324, 1e-310, 1e-300, 2e-300]
        s[5] = 0.0
        s[5, 0] = 1.0
        return s, t

    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_loss_and_gradient_are_the_formula(self, tau):
        s, t = self.probs()
        loss, grad = simulate.consistency_loss(s, t, tau)
        want_loss, want_grad = oracles.reference_consistency_loss(s, t, tau)
        assert same_bits(np.float64(loss), np.float64(want_loss))
        assert same_bits(grad, want_grad)

    def test_a_row_whose_only_terms_are_zero(self):
        # a one-hot teacher on a student's certain class: every term is a
        # zero, of either sign, and the row sum is still +0.0
        s, t = np.eye(4), np.eye(4)
        loss, _ = simulate.consistency_loss(s, t, 0.1)
        want, _ = oracles.reference_consistency_loss(s, t, 0.1)
        assert same_bits(np.float64(loss), np.float64(want))
        for i in range(4):
            loss, _ = simulate.consistency_loss(s[i], t[i], 0.1)
            want, _ = oracles.reference_consistency_loss(s[i], t[i], 0.1)
            assert same_bits(np.float64(loss), np.float64(want))


class CountingForkJoin:
    def __init__(self, fork_join):
        self.fork_join, self.calls = fork_join, 0

    def __call__(self, there, here):
        self.calls += 1
        return self.fork_join(there, here)


class TestEncoder:
    @staticmethod
    def params(d_in=32, hidden=32, d_out=16):
        return encoder.init_encoder(d_in, hidden, d_out, np.random.default_rng(5))

    def test_forward_and_backward_are_the_formulas(self):
        params = self.params()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 32))
        x[0] = 0.0  # a zero latent: its norm is 0 and its row NaN
        x[1, 4] = np.nan
        h, cache = encoder.forward(params, x)
        want_h, want_cache = oracles.reference_forward(params.w1, params.w2, x)
        assert same_bits(h, want_h)
        for got, want in zip(cache, want_cache):
            assert same_bits(got, want)
        # a NaN row would make every gradient entry NaN: backward on the rest
        _, cache = encoder.forward(params, x[2:])
        _, want_cache = oracles.reference_forward(params.w1, params.w2, x[2:])
        d_h = rng.standard_normal((48, 16))
        for got, want in zip(encoder.backward(params, cache, d_h),
                             oracles.reference_backward(params.w2, want_cache, d_h)):
            assert np.all(np.isfinite(got)) and same_bits(got, want)
        row, _ = encoder.forward(params, x[7])
        assert same_bits(row, oracles.reference_forward(params.w1, params.w2, x[7])[0])

    # the helper's half is rows [0, n // 8 * 4); at hidden 32 and output 16
    # its second GEMM takes 1952 * 512 = 999424 multiply-adds at 3904 and
    # 3911 rows and 1956 * 512 = 1001472 at 3912 and 3919 rows
    @pytest.mark.parametrize("n", [3904, 3911, 3912, 3919])
    def test_halves_are_the_bits_of_one_pass(self, monkeypatch, n):
        params = self.params()
        x = np.random.default_rng(n).standard_normal((n, 32))
        outputs = []
        for split_min, calls in ((0, 1), (2**62, 0)):
            monkeypatch.setattr(cores, "_SPLIT_MIN", split_min)
            counter = CountingForkJoin(cores.fork_join)
            monkeypatch.setattr(cores, "fork_join", counter)
            h, cache = encoder.forward(params, x)
            assert counter.calls == calls
            monkeypatch.undo()
            outputs.append((h, *cache))
        for split, whole in zip(*outputs):
            assert same_bits(split, whole)
        want = oracles.reference_forward(params.w1, params.w2, x)
        assert same_bits(outputs[0][0], want[0])

    @pytest.mark.parametrize("n,d_in,splits", [
        (26216, 32, 1),  # the benchmark probe's training rows
        (6552, 32, 0),   # its test rows
        (512, 32, 0),    # a training step's stacked views
        (8192, 32, 1),   # N * 32 * 16 reaches 2**22
        (8191, 32, 0),
        (8192, 8, 0),    # the first GEMM is the smaller product
    ])
    def test_size_rule_counts_the_smallest_product(self, monkeypatch, n, d_in,
                                                    splits):
        params = self.params(d_in=d_in)
        counter = CountingForkJoin(cores.fork_join)
        monkeypatch.setattr(cores, "fork_join", counter)
        encoder.forward(params, np.ones((n, d_in)))
        assert counter.calls == splits


class TestSpread:
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 1), (5, 3), (64, 16), (97, 8)])
    def test_spread_is_the_formula(self, k, d):
        got = mixture.spread_unit_vectors(k, d, np.random.default_rng([k, d]))
        want = oracles.reference_spread_unit_vectors(
            k, d, np.random.default_rng([k, d]), mixture._SPREAD_ITERS,
            mixture._SPREAD_SHARPNESS, mixture._SPREAD_STEP)
        assert same_bits(got, want)


class TestSplitPath:
    def test_plan_is_the_loop_over_all_weights(self):
        base = oracles.random_mixture(6, 3, np.random.default_rng(0))
        for weights in ([0.3, 0.3, 0.1, 0.1, 0.1, 0.1],   # ties at the threshold
                        [0.2, 0.31, 0.31, 0.08, 0.05, 0.05],
                        [0.1, 0.1, 0.1, 0.5, 0.1, 0.1]):
            state = mixture.MixtureState(np.array(weights), base.means,
                                         base.variances, None, 0)
            _, events = split_resurrect(state, 0.3, np.random.default_rng(1), 1.0)
            assert [ev.dominant for ev in events] == \
                oracles.reference_split_plan(state.weights, 0.3)

    def test_updates_equal_the_always_seeded_path(self):
        # the update seeds its split generator only when a weight is over the
        # threshold; the old path seeded it every update and split nothing
        rng = np.random.default_rng(4)
        points = rng.standard_normal((600, 4)) * 0.1
        points[:450] += 2.0  # one dense clump pulls its component over 0.3
        config = GmmConfig(total_steps=40, rng_seed=9, resurrect_threshold=0.3)
        plain = GmmConfig(total_steps=40, rng_seed=9, resurrect_threshold=0.3,
                          resurrect=False)
        state = init_mixture(6, points, config, np.random.default_rng(1))
        old = state
        splits = 0
        for step in range(40):
            batch = points[rng.permutation(600)[:128]]
            state = gmm_update(state, batch, config).state
            fresh = gmm_update(old, batch, plain).state
            old, events = split_resurrect(
                fresh, config.resurrect_threshold,
                np.random.default_rng([config.rng_seed, mixture._SPLIT_STREAM, step]),
                config.init_variance)
            splits += len(events)
            for got, want in ((state.suffstats.s_pi, old.suffstats.s_pi),
                              (state.suffstats.s_mu, old.suffstats.s_mu),
                              (state.suffstats.s_sigma, old.suffstats.s_sigma),
                              (state.weights, old.weights),
                              (state.means, old.means),
                              (state.variances, old.variances)):
                assert same_bits(got, want)
            assert state.step == old.step
        assert 0 < splits < 40


class TestDegrees:
    def test_multiply_is_np_degrees(self):
        # angular_stats converts with one multiply; np.degrees computes the
        # same product, so the bits agree everywhere, special values included
        rng = np.random.default_rng(0)
        angles = np.concatenate([
            rng.uniform(0.0, math.pi, 1 << 20),
            np.linspace(0.0, math.pi, 1 << 16),
            [0.0, math.pi, -0.0, 5e-324, np.nan, np.inf, -np.inf, 1e308, -1e308],
        ])
        assert same_bits(np.multiply(angles, 180.0 / math.pi), np.degrees(angles))
