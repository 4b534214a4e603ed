"""Data exports for prototype-distribution visualization.

Prototypes are projected to the plane with a two-component PCA (the top two
eigenpairs of the covariance, from ``numpy.linalg.eigh``), the planar
distribution is summarized by a Gaussian kernel density on a grid, and the
angular distribution by a von Mises-Fisher kernel density over [-pi, pi].
Everything is exported as CSV through ``checkpoint.write_csv``; no plotting
happens here.  The kernel's normalizer, the exponentially scaled Bessel
function i0e, is ported from Cephes (``i0.c``, the same Chebyshev expansions
behind ``scipy.special.i0e`` and ``numpy.i0``), so numpy is the only runtime
dependency.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cores
from .checkpoint import write_csv
from .collapse import normalize_rows

logger = logging.getLogger(__name__)

# grid points per block in vmf_kde_angles: bounds its temporary to block * K
_VMF_GRID_BLOCK = 64

# the planar KDE grid: _KDE_GRID_N points per axis over [-extent, extent]
_KDE_EXTENT = 1.1
_KDE_GRID_N = 64

# Cephes i0.c Chebyshev coefficients: _I0E_A for exp(-x)*I0(x) on [0, 8] in
# x/2 - 2, _I0E_B for sqrt(x)*exp(-x)*I0(x) on (8, inf) in 32/x - 2
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18,
    4.46562142029675999901E-17, 3.46122286769746109310E-17,
    -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15,
    -9.55484669882830764870E-15, -4.15056934728722208663E-14,
    1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12,
    -1.32158118404477131188E-11, -3.14991652796324136454E-11,
    1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8,
    2.04891858946906374183E-7, 2.89137052083475648297E-6,
    6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x: float, coeffs: tuple) -> float:
    """Cephes chbevl: the Chebyshev series sum by Clenshaw's recurrence."""
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(x: float) -> float:
    """exp(-x) * I0(x) for x >= 0, the modified Bessel function of order 0
    scaled so it stays finite where I0 overflows (Cephes i0e)."""
    if x <= 8.0:
        return _chbevl(x / 2.0 - 2.0, _I0E_A)
    return _chbevl(32.0 / x - 2.0, _I0E_B) / math.sqrt(x)


class DegenerateRankError(RuntimeError):
    """Input has fewer than two informative directions (or fewer than 3 rows)."""


@dataclass
class Projection2D:
    points: np.ndarray  # (K, 2)
    explained_variance: tuple  # fractions for the two components
    mean: np.ndarray  # (D,) centering vector
    basis: np.ndarray  # (D, 2), orthonormal columns


@dataclass
class KdeGrid:
    x: np.ndarray
    y: np.ndarray | None
    density: np.ndarray
    bandwidth: tuple
    kappa: float | None = None
    skipped_points: int = 0


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def pca_project(rows: np.ndarray) -> Projection2D:
    """Top-2 principal projection of the prototype rows.

    Directions are the top two eigenvectors of the centered covariance; each
    direction's largest-magnitude coordinate is made positive so the output
    is sign-deterministic.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 3 or rows.shape[1] < 2:
        raise DegenerateRankError(
            f"need at least 3 prototypes in 2 or more dimensions for a planar "
            f"projection, got {rows.shape}"
        )
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / rows.shape[0]
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DegenerateRankError("all prototypes identical")
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    lam1, lam2 = float(eigvals[-1]), float(eigvals[-2])
    if lam2 <= 1e-12 * max(lam1, 1.0):
        raise DegenerateRankError(
            f"second principal value {lam2:.3e} is negligible; rank < 2"
        )
    v1, v2 = _fix_sign(eigvecs[:, -1]), _fix_sign(eigvecs[:, -2])
    basis = np.stack([v1, v2], axis=1)
    return Projection2D(
        points=centered @ basis,
        explained_variance=(lam1 / total, lam2 / total),
        mean=mean,
        basis=basis,
    )


def scott_bandwidth(points: np.ndarray) -> tuple:
    """Scott-style rule: per-axis standard deviation times K^(-1/6)."""
    k = points.shape[0]
    factor = k ** (-1.0 / 6.0)
    sx = float(np.std(points[:, 0]))
    sy = float(np.std(points[:, 1]))
    return (max(sx * factor, 1e-12), max(sy * factor, 1e-12))


def gaussian_kde2d(points: np.ndarray) -> KdeGrid:
    """Average of axis-aligned Gaussian kernels of Scott bandwidth, evaluated
    on the 64 x 64 grid over [-1.1, 1.1]^2 (``density[y, x]``)."""
    points = np.asarray(points, dtype=np.float64)
    bw = scott_bandwidth(points)
    grid = np.linspace(-_KDE_EXTENT, _KDE_EXTENT, _KDE_GRID_N)
    # the kernel is separable: exp(-(dx^2 + dy^2)/2) = exp(-dx^2/2) exp(-dy^2/2),
    # so the grid sum over points is one (n, K) x (K, n) product
    dx = (grid[:, None] - points[None, :, 0]) / bw[0]
    dy = (grid[:, None] - points[None, :, 1]) / bw[1]
    density = np.exp(-0.5 * dy * dy) @ np.exp(-0.5 * dx * dx).T
    density /= points.shape[0] * 2.0 * np.pi * bw[0] * bw[1]
    return KdeGrid(x=grid, y=grid, density=density, bandwidth=bw)


def vmf_kde_angles(points2d: np.ndarray, kappa: float,
                   n_samples: int = 1024) -> KdeGrid:
    """Von Mises-Fisher kernel density over the angles of planar points.

    Each point contributes exp(kappa*cos(a - a_i)) / (2*pi*I0(kappa)); zero
    length points carry no angle and are skipped (count reported on the grid).
    Both factors overflow above kappa ~709, so the kernel is evaluated as
    exp(kappa*(cos(a - a_i) - 1)) / (2*pi*i0e(kappa)), with
    i0e(kappa) = exp(-kappa)*I0(kappa).  The cosine is taken by angle
    addition, cos(a - a_i) = cos(a)*cos(a_i) + sin(a)*sin(a_i), from cosines
    and sines computed once per grid point and once per point; it differs
    from np.cos(a - a_i) by a few ulp, so the density moves by at most about
    2.2e-16*kappa relative.
    """
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    points2d = np.asarray(points2d, dtype=np.float64)
    lengths = np.hypot(points2d[:, 0], points2d[:, 1])
    keep = lengths > 0.0
    skipped = int((~keep).sum())
    if skipped:
        logger.warning("vmf_kde_angles: skipping %d zero-length points", skipped)
    pts = points2d[keep]
    if pts.shape[0] == 0:
        raise ValueError("no nonzero points to estimate angles from")
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    grid = np.linspace(-np.pi, np.pi, n_samples)
    norm = 2.0 * np.pi * _i0e(kappa)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    density = np.empty(n_samples)

    def grid_blocks(lo: int, hi: int) -> None:
        for start in range(lo, hi, _VMF_GRID_BLOCK):
            # each grid point is still one row reduction over all points, and
            # elementwise: a GEMM would round differently for small blocks
            stop = min(start + _VMF_GRID_BLOCK, hi)
            terms = np.multiply.outer(cos_g[start:stop], cos_a)
            terms += np.multiply.outer(sin_g[start:stop], sin_a)
            terms -= 1.0
            terms *= kappa
            np.exp(terms, out=terms)
            density[start:stop] = terms.sum(axis=1)

    # no grid point's bits depend on the half that computes it; the work is
    # one kernel term per grid point and point
    cores.in_halves(grid_blocks, n_samples, n_samples * pts.shape[0])
    density /= pts.shape[0] * norm
    return KdeGrid(x=grid, y=None, density=density, bandwidth=(0.0, 0.0),
                   kappa=kappa, skipped_points=skipped)


def export_prototype_kde(rows: np.ndarray, out_prefix: str | Path,
                         kappa: float) -> dict:
    """Full pipeline: normalize -> PCA -> planar KDE + angular KDE -> CSVs."""
    projection = pca_project(normalize_rows(rows).rows)
    planar = gaussian_kde2d(projection.points)
    angular = vmf_kde_angles(projection.points, kappa=kappa)
    prefix = str(out_prefix)
    gauss_path = Path(prefix + "_gaussian_kde.csv")
    vmf_path = Path(prefix + "_vmf_kde.csv")
    bw_x, bw_y = planar.bandwidth
    # Python floats: write_csv formats them as their np.float64 values, faster
    xs, density = planar.x.tolist(), planar.density.tolist()
    write_csv(gauss_path, ("x_grid", "y_grid", "prob"),
              ((x, y, density[yi][xi]) for yi, y in enumerate(planar.y.tolist())
               for xi, x in enumerate(xs)),
              comment=f"bandwidth_x={bw_x:.17g} bandwidth_y={bw_y:.17g}")
    write_csv(vmf_path, ("x", "prob"), zip(angular.x.tolist(), angular.density.tolist()),
              comment=f"kappa={angular.kappa:.17g} skipped={angular.skipped_points}")
    return {
        "gaussian_csv": gauss_path,
        "vmf_csv": vmf_path,
        "explained_variance": projection.explained_variance,
        "kappa": kappa,
        "bandwidth": planar.bandwidth,
    }
