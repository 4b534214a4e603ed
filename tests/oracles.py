"""Independent brute-force references used only by the tests.

Everything here is deliberately written as straight-line scalar loops over
plain arrays and imports nothing from the production package, so agreement
between an oracle and the library is meaningful evidence of correctness.
The one exception, ``random_mixture``, is a fixture rather than an oracle: it
draws random parameters and hands them to the package's state constructor.
Sizes are expected to stay small (K, D <= 16, N <= 512); the greedy
partition also runs on a few hundred rows of low dimension.
"""

import math

import numpy as np


def oracle_responsibilities(weights, means, variances, batch, beta):
    """Annealed soft assignments by direct evaluation of the defining formula."""
    n = len(batch)
    k = len(weights)
    d = len(batch[0])
    out = np.zeros((n, k))
    for i in range(n):
        numer = []
        for c in range(k):
            logp = 0.0
            for j in range(d):
                var = variances[c][j]
                diff = batch[i][j] - means[c][j]
                logp += -0.5 * (math.log(2.0 * math.pi * var) + diff * diff / var)
            numer.append(weights[c] * math.exp(beta * logp))
        total = sum(numer)
        for c in range(k):
            out[i, c] = numer[c] / total
    return out


def oracle_suffstats(batch, resp):
    """Zeroth/first/second weighted moments with explicit loops."""
    n = len(batch)
    k = resp.shape[1]
    d = len(batch[0])
    s_pi = np.zeros(k)
    s_mu = np.zeros((k, d))
    s_sigma = np.zeros((k, d))
    for c in range(k):
        for i in range(n):
            g = resp[i][c]
            s_pi[c] += g
            for j in range(d):
                s_mu[c, j] += g * batch[i][j]
                s_sigma[c, j] += g * batch[i][j] * batch[i][j]
    return s_pi, s_mu, s_sigma


def oracle_init_suffstats(means, variances, total_count):
    """First-update pseudo-count statistics evaluated coordinate by coordinate."""
    k = len(means)
    d = len(means[0])
    count = total_count / k
    s_pi = np.full(k, count)
    s_mu = np.zeros((k, d))
    s_sigma = np.zeros((k, d))
    for c in range(k):
        for j in range(d):
            s_mu[c, j] = means[c][j] * count
            s_sigma[c, j] = variances[c][j] * count + (s_mu[c, j] * s_mu[c, j]) / count
    return s_pi, s_mu, s_sigma


def oracle_m_step(s_pi, s_mu, s_sigma):
    """Textbook maximization step, no variance floor."""
    k = len(s_pi)
    d = s_mu.shape[1]
    total = 0.0
    for c in range(k):
        total += s_pi[c]
    weights = np.zeros(k)
    means = np.zeros((k, d))
    variances = np.zeros((k, d))
    for c in range(k):
        weights[c] = s_pi[c] / total
        for j in range(d):
            means[c, j] = s_mu[c, j] / s_pi[c]
            variances[c, j] = s_sigma[c, j] / s_pi[c] - means[c, j] * means[c, j]
    return weights, means, variances


def oracle_em_step(points, weights, means, variances):
    """One classical diagonal-GMM EM iteration (E then M) on the full data."""
    resp = oracle_responsibilities(weights, means, variances, points, 1.0)
    s_pi, s_mu, s_sigma = oracle_suffstats(points, resp)
    for c in range(len(weights)):
        if s_pi[c] <= 0.0:
            raise ValueError(f"component {c} received no responsibility")
    return oracle_m_step(s_pi, s_mu, s_sigma)


def oracle_em_run(points, weights, means, variances, iterations):
    for _ in range(iterations):
        weights, means, variances = oracle_em_step(points, weights, means, variances)
    return weights, means, variances


def oracle_softmax(scores, tau):
    k = len(scores)
    exps = [math.exp(s / tau) for s in scores]
    total = sum(exps)
    return np.array([e / total for e in exps])


def oracle_cross_entropy(target, probs):
    loss = 0.0
    for t, p in zip(target, probs):
        loss += -t * math.log(p)
    return loss


def finite_diff(fn, params, step=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        shift = np.zeros_like(params)
        shift.flat[i] = step
        hi = fn(params + shift)
        lo = fn(params - shift)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad.flat[i] = (hi - lo) / (2.0 * step)
    return grad


def flat(params):
    """An encoder's weights as one vector: ``w1`` then ``w2``, row-major."""
    return np.concatenate([params.w1.ravel(), params.w2.ravel()])


def with_flat(params, vec):
    """A copy of ``params`` with the weights read back from a ``flat`` vector."""
    n1 = params.w1.size
    return type(params)(vec[:n1].reshape(params.w1.shape).copy(),
                        vec[n1:].reshape(params.w2.shape).copy())


def oracle_make_dataset(sizes, input_dim, spread, test_fraction, rng):
    """Class blobs drawn one class at a time and stacked at the end.

    Returns (x_train, y_train, x_test, y_test, centers, train_counts); the
    first ``1 - test_fraction`` of each class's draws are its training rows.
    """
    centers = rng.standard_normal((len(sizes), input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    xs_train, ys_train, xs_test, ys_test, train_counts = [], [], [], [], []
    for c, size in enumerate(sizes):
        pts = centers[c] + spread * rng.standard_normal((size, input_dim))
        n_test = max(1, int(round(test_fraction * size)))
        n_train = size - n_test
        xs_train.append(pts[:n_train])
        ys_train.append(np.full(n_train, c, dtype=np.int64))
        xs_test.append(pts[n_train:])
        ys_test.append(np.full(n_test, c, dtype=np.int64))
        train_counts.append(n_train)
    return (np.vstack(xs_train), np.concatenate(ys_train), np.vstack(xs_test),
            np.concatenate(ys_test), centers, np.array(train_counts, dtype=np.int64))


def oracle_make_views(x, n_views, noise, dropout, rng):
    """Views built out of place: ``(x + noise * z) * mask``, one at a time."""
    b, d = x.shape
    views = np.empty((n_views, b, d))
    for j in range(n_views):
        v = x + noise * rng.standard_normal((b, d))
        if dropout > 0.0:
            v = v * (rng.random((b, d)) >= dropout)
        views[j] = v
    return views


def oracle_greedy_partition(rows, epsilon):
    """Greedy first-fit partition of unit rows, scalar loops.

    Returns (assignment, representatives): the partition index of every row
    and the row index that opened each partition.
    """
    reps = []
    assignment = []
    for i in range(len(rows)):
        owner = None
        for p, r in enumerate(reps):
            dot = 0.0
            for j in range(len(rows[i])):
                dot += rows[r][j] * rows[i][j]
            if dot > 1.0:
                dot = 1.0
            if 1.0 - dot < epsilon:
                owner = p
                break
        if owner is None:
            owner = len(reps)
            reps.append(i)
        assignment.append(owner)
    return assignment, reps


def oracle_greedy_unique(rows, epsilon):
    """Greedy first-fit unique-prototype count on unit rows, scalar loops."""
    return len(oracle_greedy_partition(rows, epsilon)[1])


def jacobi_eigh(matrix, sweeps=50, tol=1e-12):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns eigenvalues in descending order and matching eigenvector columns.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if off < tol * tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i in range(n):
                    aip, aiq = a[i, p], a[i, q]
                    a[i, p] = c * aip - s * aiq
                    a[i, q] = s * aip + c * aiq
                for i in range(n):
                    api, aqi = a[p, i], a[q, i]
                    a[p, i] = c * api - s * aqi
                    a[q, i] = s * api + c * aqi
                for i in range(n):
                    vip, viq = v[i, p], v[i, q]
                    v[i, p] = c * vip - s * viq
                    v[i, q] = s * vip + c * viq
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals)
    return eigvals[order], v[:, order]


def oracle_gaussian_kde2d(points, xs, ys, bw_x, bw_y):
    """Mixture-of-Gaussians density on a grid, one kernel per point."""
    k = len(points)
    out = np.zeros((len(ys), len(xs)))
    norm = 1.0 / (2.0 * math.pi * bw_x * bw_y)
    for yi in range(len(ys)):
        for xi in range(len(xs)):
            total = 0.0
            for p in points:
                dx = (xs[xi] - p[0]) / bw_x
                dy = (ys[yi] - p[1]) / bw_y
                total += norm * math.exp(-0.5 * (dx * dx + dy * dy))
            out[yi, xi] = total / k
    return out


def bessel_i0(x, terms=200):
    """Modified Bessel function of order zero via its power series."""
    total = 0.0
    term = 1.0
    for m in range(terms):
        if m > 0:
            term *= (x * x) / (4.0 * m * m)
        total += term
        if term < 1e-18 * total:
            break
    return total


class OracleCsvError(ValueError):
    """A matrix CSV the list-based reader refuses, with its row and offset."""

    def __init__(self, message, row, offset):
        super().__init__(message)
        self.row = row
        self.offset = offset


def oracle_read_matrix_csv(text):
    """The list-based matrix CSV reader: lines split at LF, lines that strip
    to nothing skipped, each cell read by ``float``, then a finiteness check.

    ``row`` is the 1-based file line (``None`` for file-level faults).
    """
    lines = text.split(b"\n")
    header = lines[0].decode("utf-8", errors="replace").strip()
    if not header:
        raise OracleCsvError("empty", None, 0)
    cols = header.split(",")
    if cols != ["d%d" % i for i in range(len(cols))]:
        raise OracleCsvError("header", None, 0)
    rows, where = [], []
    offset = len(lines[0]) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if stripped:
            parts = stripped.split(b",")
            if len(parts) != len(cols):
                raise OracleCsvError("ragged", lineno, offset)
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise OracleCsvError("not numeric", lineno, offset) from None
            where.append((lineno, offset))
        offset += len(line) + 1
    if not rows:
        raise OracleCsvError("no data rows", None, len(text))
    for values, (lineno, at) in zip(rows, where):
        if not all(math.isfinite(v) for v in values):
            raise OracleCsvError("non-finite", lineno, at)
    return np.array(rows, dtype=np.float64)


def random_mixture(k, d, rng, init_variance=1.0):
    """A fresh mixture with uniform weights, variances ``init_variance`` and
    i.i.d. normal means scaled by 1/sqrt(d), so the expected norm is about 1."""
    from protostream.mixture import MixtureState

    means = rng.standard_normal((k, d)) / np.sqrt(d)
    return MixtureState(np.full(k, 1.0 / k), means, np.full((k, d), init_variance),
                        None, 0)
