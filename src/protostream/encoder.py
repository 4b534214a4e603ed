"""Minimal one-hidden-layer tanh encoder with unit-norm outputs.

Small enough that every gradient can be checked against finite differences,
but deep enough that joint prototype optimization has a real encoder to
shortcut around: input -> W1 -> tanh -> W2 -> L2 normalize.

A forward pass works row by row, so a large one runs in two row halves
through ``cores.in_halves``, measured as N * hidden * min(input_dim,
out_dim), its smallest product over all rows.  So a forward pass of split
size runs only as a ``here`` task of ``cores.fork_join`` or outside one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import in_halves


@dataclass
class EncoderParams:
    w1: np.ndarray  # (input_dim, hidden)
    w2: np.ndarray  # (hidden, out_dim)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w1.copy(), self.w2.copy())


def init_encoder(input_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator) -> EncoderParams:
    w1 = rng.standard_normal((input_dim, hidden)) / np.sqrt(input_dim)
    w2 = rng.standard_normal((hidden, out_dim)) / np.sqrt(hidden)
    return EncoderParams(w1, w2)


def forward(params: EncoderParams, x: np.ndarray):
    """Map inputs to unit-norm latents; returns (latents, cache for backward)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    (n, d_in), (hidden, d_out) = x.shape, params.w2.shape
    z, h, norms = np.empty((n, hidden)), np.empty((n, d_out)), np.empty((n, 1))
    squares = np.empty_like(h)

    def rows(lo, hi):
        zs, hs, ns = z[lo:hi], h[lo:hi], norms[lo:hi]
        np.tanh(np.matmul(x[lo:hi], params.w1, out=zs), out=zs)
        np.matmul(zs, params.w2, out=hs)
        # np.linalg.norm's own formula: the square root of the row sum of squares
        np.add.reduce(np.multiply(hs, hs, out=squares[lo:hi]), axis=1,
                      keepdims=True, out=ns)
        hs /= np.sqrt(ns, out=ns)

    in_halves(rows, n, n * hidden * min(d_in, d_out))
    return h, (x, z, norms, h)


def backward(params: EncoderParams, cache, d_h: np.ndarray):
    """Gradients of a scalar loss w.r.t. w1 and w2 given dloss/dlatents."""
    x, z, norms, h = cache
    # through the normalization: dy = (g - (g.h) h) / |y|
    # each formula below is computed in place in one array, in its order
    d_y = np.multiply(d_h, h)
    gh = np.sum(d_y, axis=1, keepdims=True)
    np.multiply(gh, h, out=d_y)
    np.subtract(d_h, d_y, out=d_y)
    d_y /= norms
    d_w2 = z.T @ d_y
    d_z = d_y @ params.w2.T
    d_a = np.multiply(z, z)
    np.subtract(1.0, d_a, out=d_a)
    d_a *= d_z
    d_w1 = x.T @ d_a
    return d_w1, d_w2
