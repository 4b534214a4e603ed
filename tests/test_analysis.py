import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import i0, i0e

from protostream import analysis, cores
from protostream.analysis import (
    DegenerateRankError,
    export_prototype_kde,
    gaussian_kde2d,
    pca_project,
    scott_bandwidth,
    vmf_kde_angles,
)

import oracles


class TestPcaProject:
    def test_line_plus_noise_dominated_by_first_component(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(40)
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        rows = np.outer(t, direction) + 1e-3 * rng.standard_normal((40, 4))
        proj = pca_project(rows)
        assert proj.explained_variance[0] > 0.99

    def test_planar_data_reconstructs(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        coords = rng.standard_normal((30, 2))
        rows = coords @ basis.T
        proj = pca_project(rows)
        recon = proj.points @ proj.basis.T + proj.mean
        assert np.abs(recon - rows).max() < 1e-8

    def test_matches_jacobi_eigensolver(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((50, 6))
        proj = pca_project(rows)
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / rows.shape[0]
        eigvals, eigvecs = oracles.jacobi_eigh(cov)
        for axis in range(2):
            want = eigvecs[:, axis]
            got = proj.basis[:, axis]
            agreement = abs(float(want @ got))
            assert agreement == pytest.approx(1.0, abs=1e-6)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        proj = pca_project(rng.standard_normal((25, 5)))
        gram = proj.basis.T @ proj.basis
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)

    def test_rotation_invariance_up_to_sign(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((40, 6))
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        a = pca_project(rows)
        b = pca_project(rows @ q)
        for axis in range(2):
            dots = np.abs(a.points[:, axis]) - np.abs(b.points[:, axis])
            sign = np.sign(a.points[0, axis]) * np.sign(b.points[0, axis])
            np.testing.assert_allclose(a.points[:, axis] * sign, b.points[:, axis],
                                       atol=1e-6)

    def test_too_few_rows(self):
        with pytest.raises(DegenerateRankError):
            pca_project(np.eye(2))

    def test_rank_one_rejected(self):
        t = np.linspace(-1, 1, 20)
        for rows in (np.outer(t, np.array([1.0, 1.0, 0.0])), t[:, None]):
            with pytest.raises(DegenerateRankError):
                pca_project(rows)


class TestGaussianKde2d:
    def test_single_point_peak(self):
        # one point has no spread, so no Scott width: a small cluster around it
        rng = np.random.default_rng(4)
        pts = np.array([0.3, -0.4]) + 0.05 * rng.standard_normal((20, 2))
        kde = gaussian_kde2d(pts)
        yi, xi = np.unravel_index(kde.density.argmax(), kde.density.shape)
        assert abs(kde.x[xi] - 0.3) < 0.05
        assert abs(kde.y[yi] + 0.4) < 0.05

    def test_mirror_symmetry(self):
        # a set closed under x -> -x, with spread on both axes
        pts = np.array([[0.5, 0.1], [-0.5, 0.1], [0.5, -0.2], [-0.5, -0.2]])
        kde = gaussian_kde2d(pts)
        assert kde.density.max() > 0.1
        np.testing.assert_allclose(kde.density, kde.density[:, ::-1], atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(20, 2))
        kde = gaussian_kde2d(pts)
        want = oracles.oracle_gaussian_kde2d(
            pts.tolist(), kde.x.tolist(), kde.y.tolist(), *kde.bandwidth
        )
        np.testing.assert_allclose(kde.density, want, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(15, 2))
        a = gaussian_kde2d(pts)
        b = gaussian_kde2d(pts[::-1])
        np.testing.assert_allclose(a.density, b.density, atol=1e-12)

    def test_matches_three_dimensional_sum(self):
        # the separable product against the direct (n, n, K) kernel sum
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, size=(500, 2))
        kde = gaussian_kde2d(pts)
        bw_x, bw_y = kde.bandwidth
        dx = (kde.x[None, :, None] - pts[None, None, :, 0]) / bw_x
        dy = (kde.y[:, None, None] - pts[None, None, :, 1]) / bw_y
        want = np.exp(-0.5 * (dx * dx + dy * dy)).sum(axis=2)
        want /= 500 * 2.0 * np.pi * bw_x * bw_y
        np.testing.assert_allclose(kde.density, want, rtol=1e-12, atol=0)

    def test_default_bandwidth_recorded(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(30, 2))
        kde = gaussian_kde2d(pts)
        assert kde.bandwidth == scott_bandwidth(pts)


class TestI0e:
    # both Chebyshev branches, their seam at 8, the kappas the tests use, and
    # arguments where I0 itself overflows
    GRID = np.concatenate([
        np.geomspace(1e-6, 8.0, 400), np.linspace(8.0, 100.0, 400)[1:],
        [np.nextafter(8.0, 9.0), 7.5, 20.0, 709.0, 710.0, 800.0, 5000.0, 1e6, 1e300],
    ])

    def test_bitwise_equal_scipy(self):
        got = [analysis._i0e(x) for x in self.GRID]
        assert got == [float(i0e(x)) for x in self.GRID]

    def test_matches_power_series(self):
        for x in self.GRID[self.GRID <= 100.0]:
            want = oracles.bessel_i0(x) * math.exp(-x)
            assert analysis._i0e(x) == pytest.approx(want, rel=1e-12), x


class TestVmfKdeAngles:
    def test_peak_value_all_points_at_zero(self):
        pts = np.tile([1.0, 0.0], (5, 1))
        kde = vmf_kde_angles(pts, kappa=20.0, n_samples=1025)
        # odd sample count puts a grid node exactly at angle zero
        peak = kde.density[np.argmin(np.abs(kde.x))]
        want = np.exp(20.0) / (2.0 * np.pi * oracles.bessel_i0(20.0))
        assert peak == pytest.approx(want, rel=1e-10)

    def test_small_kappa_tends_uniform(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((12, 2))
        kde = vmf_kde_angles(pts, kappa=1e-6)
        np.testing.assert_allclose(kde.density, 1.0 / (2.0 * np.pi), atol=1e-6)

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 20.0, 800.0])
    def test_integrates_to_one(self, kappa):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((25, 2))
        kde = vmf_kde_angles(pts, kappa=kappa)
        # exp(kappa*cos) and I0(kappa) each overflow above kappa ~709
        assert np.isfinite(kde.density).all()
        integral = np.trapezoid(kde.density, kde.x)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_zero_length_points_skipped(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        kde = vmf_kde_angles(pts, kappa=5.0)
        assert kde.skipped_points == 1

    def test_scipy_i0_agrees_with_series(self):
        for x in (0.5, 1.0, 20.0, 100.0):
            from scipy.special import i0

            assert float(i0(x)) == pytest.approx(oracles.bessel_i0(x), rel=1e-10)

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            vmf_kde_angles(np.ones((3, 2)), kappa=0.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="finite"):
            vmf_kde_angles(np.ones((3, 2)), kappa=kappa)

    @pytest.mark.parametrize("block", [1, 7, analysis._VMF_GRID_BLOCK, 5000])
    def test_grid_blocks_bitwise_equal_one_pass(self, block):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((300, 2))
        with mock.patch.object(analysis, "_VMF_GRID_BLOCK", block):
            kde = vmf_kde_angles(pts, kappa=7.5, n_samples=1000)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        grid = np.linspace(-np.pi, np.pi, 1000)
        # one pass of the angle-addition form over the whole grid
        cos_diff = (np.multiply.outer(np.cos(grid), np.cos(angles))
                    + np.multiply.outer(np.sin(grid), np.sin(angles)))
        want = np.exp(7.5 * (cos_diff - 1.0)).sum(axis=1)
        want /= 300 * (2.0 * np.pi * float(i0e(7.5)))
        assert np.array_equal(kde.density, want)

    # 1024 grid points cut at a block edge, 1000 inside a block; 7 has no cut
    @pytest.mark.parametrize("n_samples, splits", [(1024, 1), (1000, 1), (7, 0)])
    def test_halves_are_the_bits_of_one_pass(self, monkeypatch, n_samples, splits):
        pts = np.random.default_rng(12).standard_normal((300, 2))
        densities, real = [], cores.fork_join
        for split_min, calls in ((0, splits), (2**62, 0)):
            counted = []

            def counting(there, here):
                counted.append(there)
                return real(there, here)

            monkeypatch.setattr(cores, "_SPLIT_MIN", split_min)
            monkeypatch.setattr(cores, "fork_join", counting)
            densities.append(vmf_kde_angles(pts, kappa=7.5, n_samples=n_samples).density)
            assert len(counted) == calls
            monkeypatch.undo()
        assert np.array_equal(densities[0], densities[1])

    @pytest.mark.parametrize("kappa", [0.5, 20.0, 700.0, 5000.0])
    def test_angle_addition_close_to_direct_cosine(self, kappa):
        # the direct form cos(a - a_i): a few ulp in the cosine move the
        # density by about 2.2e-16 * kappa relative
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((400, 2))
        kde = vmf_kde_angles(pts, kappa=kappa)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        want = np.exp(kappa * (np.cos(kde.x[:, None] - angles[None, :]) - 1.0))
        want = want.sum(axis=1) / (400 * 2.0 * np.pi * float(i0e(kappa)))
        assert want.min() > 0.0
        np.testing.assert_allclose(kde.density, want, rtol=1e-15 * max(1.0, kappa),
                                   atol=0)

    @pytest.mark.parametrize("kappa", [0.5, 20.0, 100.0])
    def test_matches_unscaled_kernel(self, kappa):
        # exp(kappa*cos) / (2*pi*I0(kappa)), the textbook form, is finite here
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((50, 2))
        kde = vmf_kde_angles(pts, kappa=kappa, n_samples=256)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        want = np.exp(kappa * np.cos(kde.x[:, None] - angles[None, :])).mean(axis=1)
        want /= 2.0 * np.pi * float(i0(kappa))
        np.testing.assert_allclose(kde.density, want, rtol=1e-12, atol=0)


class TestExportPipeline:
    def test_writes_both_files(self, tmp_path):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((24, 6))
        info = export_prototype_kde(rows, tmp_path / "demo", kappa=20.0)
        gauss = (tmp_path / "demo_gaussian_kde.csv").read_text().splitlines()
        vmf = (tmp_path / "demo_vmf_kde.csv").read_text().splitlines()
        assert gauss[1] == "x_grid,y_grid,prob"
        assert vmf[1] == "x,prob"
        assert info["kappa"] == 20.0
        assert len(vmf) == 2 + 1024

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((12, 5))
        export_prototype_kde(rows, tmp_path / "a", kappa=20.0)
        export_prototype_kde(rows, tmp_path / "b", kappa=20.0)
        assert (tmp_path / "a_vmf_kde.csv").read_bytes() == \
            (tmp_path / "b_vmf_kde.csv").read_bytes()
        assert (tmp_path / "a_gaussian_kde.csv").read_bytes() == \
            (tmp_path / "b_gaussian_kde.csv").read_bytes()
