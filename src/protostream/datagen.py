"""Synthetic class-structured data with optional power-law long tails.

Classes are Gaussian blobs around random unit directions.  In longtail mode
class c receives a share proportional to (c+1)**(-exponent), so early classes
are heavy and late ones sparse; classes are then bucketed into head, medium,
and tail by their training counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .settings import ConfigError, check_settings, setting


@dataclass(frozen=True)
class DataSpec:
    mode: str = setting("balanced", "data.mode", ("balanced", "longtail"))
    n_classes: int = setting(8, "data.classes", "[1, inf)")
    input_dim: int = setting(32, "data.input_dim", "[1, inf)")
    n_samples: int = setting(2048, "data.samples")
    spread: float = setting(0.25, "data.spread", "[0, inf)")
    # a NaN exponent would give every long-tail class the 3-sample floor
    exponent: float = setting(1.5, "data.exponent", "[0, inf)")
    # head classes have more than head_min train samples, tail classes at
    # most tail_max
    head_min: int = setting(100, "data.head_min")
    tail_max: int = setting(20, "data.tail_max")
    test_fraction: float = setting(0.2, "data.test_fraction", "(0, 1)")

    def __post_init__(self):
        check_settings(self)
        # a cross-field check names the field it bounds
        if self.n_samples < self.n_classes:
            raise ConfigError("data.samples", "need at least one sample per class")
        if self.tail_max >= self.head_min:
            raise ConfigError("data.tail_max", "tail_max must be below head_min")


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    centers: np.ndarray
    train_counts: np.ndarray  # per-class training-sample counts
    buckets: dict = field(default_factory=dict)  # class -> head/medium/tail


def class_sizes(spec: DataSpec) -> np.ndarray:
    if spec.mode == "balanced":
        base = spec.n_samples // spec.n_classes
        sizes = np.full(spec.n_classes, base, dtype=np.int64)
        sizes[: spec.n_samples - base * spec.n_classes] += 1
        return sizes
    shares = (np.arange(1, spec.n_classes + 1, dtype=np.float64)) ** (-spec.exponent)
    shares /= shares.sum()
    sizes = np.maximum(np.round(shares * spec.n_samples).astype(np.int64), 3)
    return sizes


def bucket_of(train_count: int, spec: DataSpec) -> str:
    if train_count > spec.head_min:
        return "head"
    if train_count <= spec.tail_max:
        return "tail"
    return "medium"


def make_dataset(spec: DataSpec, rng: np.random.Generator) -> Dataset:
    sizes = class_sizes(spec)
    centers = rng.standard_normal((spec.n_classes, spec.input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    test_counts = np.array([max(1, int(round(spec.test_fraction * size)))
                            for size in sizes], dtype=np.int64)
    train_counts = sizes - test_counts
    x_train = np.empty((train_counts.sum(), spec.input_dim))
    x_test = np.empty((test_counts.sum(), spec.input_dim))
    train_at = test_at = 0
    for c, (size, n_train) in enumerate(zip(sizes, train_counts)):
        pts = centers[c] + spec.spread * rng.standard_normal((size, spec.input_dim))
        x_train[train_at:train_at + n_train] = pts[:n_train]
        x_test[test_at:test_at + size - n_train] = pts[n_train:]
        train_at += n_train
        test_at += size - n_train
    buckets = {c: bucket_of(int(train_counts[c]), spec)
               for c in range(spec.n_classes)}
    labels = np.arange(spec.n_classes, dtype=np.int64)
    return Dataset(
        x_train=x_train,
        y_train=np.repeat(labels, train_counts),
        x_test=x_test,
        y_test=np.repeat(labels, test_counts),
        centers=centers,
        train_counts=train_counts,
        buckets=buckets,
    )


def shuffled_batches(x: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Yield the rows of ``x`` in one random order, ``batch_size`` at a time.

    The permutation is drawn before the first batch; the last may be short.
    """
    order = rng.permutation(x.shape[0])
    for start in range(0, x.shape[0], batch_size):
        yield x[order[start:start + batch_size]]


def run_horizon(n_rows: int, batch_size: int, epochs: int) -> int:
    """Batches in ``epochs`` passes of ``shuffled_batches`` over ``n_rows`` rows,
    counting at least one per epoch and one in all."""
    return max(1, epochs * max(1, -(-n_rows // batch_size)))


def make_views(x: np.ndarray, n_views: int, noise: float, dropout: float,
               rng: np.random.Generator) -> np.ndarray:
    """Stochastic views: additive Gaussian noise plus coordinate dropout.

    Each view is drawn and transformed in its slice of the result, so the
    only temporaries are the dropout draw and its mask; ``z * noise + x``
    and the in-place masked product are the bits of ``(x + noise * z) * mask``.
    """
    b, d = x.shape
    views = np.empty((n_views, b, d))
    for v in views:
        rng.standard_normal(out=v)
        v *= noise
        v += x
        if dropout > 0.0:
            v *= rng.random((b, d)) >= dropout
    return views
