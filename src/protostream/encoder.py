"""Minimal one-hidden-layer tanh encoder with unit-norm outputs.

Small enough that every gradient can be checked against finite differences,
but deep enough that joint prototype optimization has a real encoder to
shortcut around: input -> W1 -> tanh -> W2 -> L2 normalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    z = x @ params.w1
    np.tanh(z, out=z)
    h = z @ params.w2
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    h /= norms
    return h, (x, z, norms, h)


def backward(params: EncoderParams, cache, d_h: np.ndarray):
    """Gradients of a scalar loss w.r.t. w1 and w2 given dloss/dlatents."""
    x, z, norms, h = cache
    # through the normalization: dy = (g - (g.h) h) / |y|
    gh = np.sum(d_h * h, axis=1, keepdims=True)
    d_y = (d_h - gh * h) / norms
    d_w2 = z.T @ d_y
    d_z = d_y @ params.w2.T
    d_a = (1.0 - z * z) * d_z
    d_w1 = x.T @ d_a
    return d_w1, d_w2
