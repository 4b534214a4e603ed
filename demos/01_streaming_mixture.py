"""Fit a streaming Gaussian mixture to synthetic clusters, batch by batch.

Shows the full update loop (annealed E-step, forgetting, M-step) recovering
cluster structure from mini-batches, and saves a checkpoint you can feed to
the other demos or the CLI.
"""

import numpy as np

from protostream.mixture import GmmConfig, gmm_update, init_mixture, log_likelihood
from protostream.checkpoint import save_checkpoint

OUT = "demo_out"


def main():
    rng = np.random.default_rng(7)
    k, dim, n = 6, 8, 1200
    centers = 3.0 * rng.standard_normal((k, dim))
    labels = rng.integers(0, k, size=n)
    data = centers[labels] + 0.1 * rng.standard_normal((n, dim))

    epochs, batch = 25, 64
    # plain forgetting is the textbook incremental-EM regime: on a stationary
    # stream with K equal to the true cluster count it tracks batch EM; the
    # responsibility-weighted variant targets large parked prototype sets
    config = GmmConfig(total_steps=epochs * (n // batch), rng_seed=0,
                       responsibility_forgetting=False)
    state = init_mixture(k, data, config, np.random.default_rng(3))
    print(f"initial avg log-likelihood: {log_likelihood(state, data):8.3f}")

    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            state = gmm_update(state, data[order[start:start + batch]], config).state
        if (epoch + 1) % 5 == 0:
            print(f"epoch {epoch + 1:3d}: avg log-likelihood "
                  f"{log_likelihood(state, data):8.3f}")

    dists = np.linalg.norm(
        state.means[:, None, :] - centers[None, :, :], axis=2
    ).min(axis=1)
    print("distance from each learned mean to its nearest true center:")
    print(" ", np.round(dists, 3))

    import pathlib

    pathlib.Path(OUT).mkdir(exist_ok=True)
    path = f"{OUT}/streaming_mixture.ckpt"
    save_checkpoint(state, path)
    print(f"checkpoint written to {path}")


if __name__ == "__main__":
    main()
