"""Sanity checks for the brute-force references themselves."""

import math
import sys

import numpy as np
import pytest

import oracles


class TestBatchEm:
    def test_single_component_recovers_sample_moments(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3)) + 2.0
        w, m, v = oracles.oracle_em_step(
            pts, np.array([1.0]), pts[:1].copy(), np.ones((1, 3))
        )
        np.testing.assert_allclose(m[0], pts.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(v[0], pts.var(axis=0), atol=1e-12)
        assert w[0] == 1.0

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0]])
        labels = rng.integers(0, 2, size=120)
        pts = centers[labels] + 0.01 * rng.standard_normal((120, 2))
        w = np.array([0.5, 0.5])
        m = centers + 0.2 * rng.standard_normal((2, 2))
        v = np.ones((2, 2))
        w, m, v = oracles.oracle_em_run(pts, w, m, v, 20)
        assert np.linalg.norm(m - centers, axis=1).max() < 0.05

    def test_empty_component_flagged(self):
        pts = np.zeros((4, 2)) + 5.0
        with pytest.raises(ValueError):
            # a component parked far away with tiny variance gets zero weight
            oracles.oracle_em_step(
                pts, np.array([0.5, 0.5]),
                np.array([[5.0, 5.0], [-500.0, -500.0]]),
                np.full((2, 2), 1e-4),
            )


class TestFiniteDiff:
    def test_square(self):
        grad = oracles.finite_diff(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        grad = oracles.finite_diff(lambda x: 7.5, np.zeros(4))
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_nonfinite_reports_coordinate(self):
        def bad(x):
            return float("nan") if x[1] > 0 else 0.0

        with pytest.raises(ValueError, match="coordinate 1"):
            oracles.finite_diff(bad, np.zeros(3))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            oracles.finite_diff(lambda x: 0.0, np.zeros(2), step=0.0)


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        vals, vecs = oracles.jacobi_eigh(a)
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(vals, want, atol=1e-9)
        recon = vecs @ np.diag(vals) @ vecs.T
        np.testing.assert_allclose(recon, a, atol=1e-8)


class TestBessel:
    def test_known_value(self):
        # I0(0) = 1 and I0 is even and increasing on the positive axis
        assert oracles.bessel_i0(0.0) == 1.0
        assert oracles.bessel_i0(2.0) > oracles.bessel_i0(1.0) > 1.0


class TestCoverThreshold:
    @pytest.mark.parametrize("eps", [0.025, 0.05, 0.1, 0.25, 0.5, 5e-324, 1e-16,
                                     2.0, 10.0, 1.0, sys.float_info.max])
    def test_cover_threshold_is_the_least_covering_dot(self, eps):
        t = oracles.oracle_cover_threshold(eps)
        assert 1.0 - t < eps
        assert not 1.0 - math.nextafter(t, -math.inf) < eps
