"""Desk-scale teacher-student simulator contrasting two prototype regimes.

In the *joint* regime the prototype matrix receives gradient updates from the
same cross-view consistency loss as the encoder.  In the *decoupled* regime
the prototypes are the means of a streaming Gaussian mixture fitted to the
teacher's latents, refreshed before every encoder step, and the loss gradient
never touches them.  Telemetry tracks the consistency loss, unique-prototype
counts on an epsilon grid, and nearest-class-centroid probe accuracy split by
head/medium/tail class frequency.
``SimConfig`` only declares its keys; ``protostream.settings`` reads config files.

Two pieces of a run do not depend on the step before them, and run on the
mixture's helper thread through ``_fork_join``: ``init_sim`` spreads the
prototypes while it draws the data, and each step of ``run_experiment``
draws the next batch's views while it trains on the current one.  Each
draws from its own generator, one draw at a time and in order, so a run's
bits are those of the sequential loop on any number of cores.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint, write_csv
from .collapse import DEFAULT_EPSILON_GRID, count_unique, normalize_rows
from .datagen import (DataSpec, Dataset, make_dataset, make_views, run_horizon,
                      shuffled_batches)
from .encoder import EncoderParams, backward, forward, init_encoder
from .mixture import (GmmConfig, MixtureState, _fork_join, gmm_update,
                      init_mixture, spread_unit_vectors)
from .settings import check_settings, config_from_text, config_to_mapping, setting

logger = logging.getLogger(__name__)

TELEMETRY_EPSILONS = DEFAULT_EPSILON_GRID[1:]

TELEMETRY_HEADER = ("epoch", "loss",
                    *(f"uniq_eps_{e}" for e in TELEMETRY_EPSILONS),
                    "acc_all", "acc_head", "acc_med", "acc_tail")


@dataclass(frozen=True)
class SimConfig:
    regime: str = setting("decoupled", "sim.regime", ("joint", "decoupled"))
    n_prototypes: int = setting(64, "sim.prototypes", "[1, inf)")
    latent_dim: int = setting(16, "sim.latent_dim", "[1, inf)")
    hidden: int = setting(32, "sim.hidden", "[1, inf)")
    tau_student: float = setting(0.1, "sim.tau_student", "(0, inf]")
    tau_teacher: float = setting(0.04, "sim.tau_teacher", "(0, inf]")
    ema_momentum: float = setting(0.99, "sim.ema", "[0, 1)")
    learning_rate: float = setting(0.5, "sim.lr", "[0, inf]")
    grad_clip: float = setting(10.0, "sim.grad_clip", "(0, inf]")
    epochs: int = setting(50, "sim.epochs", "[0, inf)")
    views: int = setting(2, "sim.views", "[2, inf)")
    batch_size: int = setting(128, "sim.batch", "[1, inf)")
    view_noise: float = setting(0.1, "sim.view_noise", "[0, inf)")
    view_dropout: float = setting(0.1, "sim.view_dropout", "[0, 1)")
    seed: int = setting(0, "sim.seed", "[0, inf)")
    data: DataSpec = field(default_factory=DataSpec)
    gmm: GmmConfig = field(default_factory=lambda: GmmConfig(total_steps=0))

    def __post_init__(self):
        check_settings(self)


KNOWN_KEYS = list(config_to_mapping(SimConfig()))


def sim_config_from_text(text: str) -> SimConfig:
    return config_from_text(SimConfig(), text)


@dataclass
class SimState:
    config: SimConfig
    student: EncoderParams
    teacher: EncoderParams
    prototypes: np.ndarray  # (K, D); aliases mixture.means in decoupled runs
    mixture: MixtureState | None
    step: int = 0


@dataclass
class EpochTelemetry:
    epoch: int
    loss: float
    unique_counts: dict
    acc_all: float
    acc_head: float
    acc_medium: float
    acc_tail: float


@dataclass
class ExperimentResult:
    telemetry: list
    state: SimState
    dataset: Dataset
    telemetry_path: Path | None = None
    snapshot_paths: list = field(default_factory=list)


def assign(h: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Softmax prototype-assignment probabilities p = softmax(h C^T / tau)."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    h = np.asarray(h, dtype=np.float64)
    single = h.ndim == 1
    scores = np.atleast_2d(h) @ prototypes.T / tau
    scores -= scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    return p[0] if single else p


def consistency_loss(student_probs: np.ndarray, teacher_probs: np.ndarray,
                     tau_student: float) -> tuple[float, np.ndarray]:
    """Cross-entropy H(teacher, student) and its gradient w.r.t. student logits.

    The teacher distribution is a constant target.  For row-batched inputs the
    loss is the row mean and the gradient is (s - t) / (tau * n_rows), i.e.
    the exact gradient of the returned scalar.
    """
    s = np.atleast_2d(np.asarray(student_probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(teacher_probs, dtype=np.float64))
    if s.shape != t.shape:
        raise ValueError(f"shape mismatch {s.shape} vs {t.shape}")
    logs = np.log(np.maximum(s, 1e-300))
    loss = float(np.mean(-np.sum(np.where(t > 0.0, t * logs, 0.0), axis=1)))
    grad_logits = (s - t) / (tau_student * s.shape[0])
    return loss, grad_logits


def _global_norm(grads) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads))


def loss_and_grads(state: SimState, views: np.ndarray, teacher_probs):
    """Cross-view consistency loss and its analytic gradients.

    Returns (loss, d_w1, d_w2, d_protos); d_protos is None outside the joint
    regime.  ``teacher_probs[j]`` is the teacher's (B, K) assignment of view
    ``j``, a constant target: no gradient flows through it.  The loss
    averages over all ordered (teacher view, student view) pairs with
    distinct views.
    """
    cfg = state.config
    protos = state.prototypes
    n_views = views.shape[0]
    d_w1 = np.zeros_like(state.student.w1)
    d_w2 = np.zeros_like(state.student.w2)
    d_protos = np.zeros_like(protos) if cfg.regime == "joint" else None
    n_pairs = n_views * (n_views - 1)
    total_loss = 0.0
    for js in range(n_views):
        h_s, cache = forward(state.student, views[js])
        s_probs = assign(h_s, protos, cfg.tau_student)
        d_h = np.zeros_like(h_s)
        for jt in range(n_views):
            if jt == js:
                continue
            loss, d_logits = consistency_loss(s_probs, teacher_probs[jt],
                                              cfg.tau_student)
            total_loss += loss / n_pairs
            d_logits = d_logits / n_pairs
            d_h += d_logits @ protos
            if d_protos is not None:
                d_protos += d_logits.T @ h_s
        g1, g2 = backward(state.student, cache, d_h)
        d_w1 += g1
        d_w2 += g2
    return total_loss, d_w1, d_w2, d_protos


def student_step(state: SimState, views: np.ndarray,
                 h_teacher: np.ndarray) -> tuple[SimState, float]:
    """One gradient step on the student encoder (and prototypes when joint).

    ``views`` has shape (J, B, input_dim) and ``h_teacher`` holds the
    teacher's latents of the views stacked view by view, shape (J*B, D), so
    the step itself never forwards the teacher.  Its targets are assigned
    against the current prototypes, which in the decoupled regime are the
    means just refreshed on the same latents.  Joint-regime prototypes are
    renormalized to unit rows after the step, matching the weight-normalized
    prototype heads this regime models; without that projection a norm race
    crowns one winner per mode and the collapse dynamics stall.  In the
    decoupled regime the prototype matrix is read but never written.  A
    gradient whose norm is not finite raises ``ValueError`` naming the step.
    """
    cfg = state.config
    teacher_probs = assign(h_teacher, state.prototypes, cfg.tau_teacher)
    total_loss, d_w1, d_w2, d_protos = loss_and_grads(
        state, views, teacher_probs.reshape(*views.shape[:2], -1))
    if cfg.learning_rate == 0.0:
        return replace(state, step=state.step + 1), total_loss
    grads = [d_w1, d_w2] + ([d_protos] if d_protos is not None else [])
    norm = _global_norm(grads)
    if not math.isfinite(norm):
        raise ValueError(f"step {state.step}: gradient norm is {norm}")
    if norm > cfg.grad_clip:
        scale = cfg.grad_clip / norm
        for g in grads:
            g *= scale
        logger.warning("step %d: gradient norm %.3f clipped to %.3f",
                       state.step, norm, cfg.grad_clip)
    lr = cfg.learning_rate
    student = EncoderParams(
        state.student.w1 - lr * d_w1,
        state.student.w2 - lr * d_w2,
    )
    new_protos = state.prototypes
    if d_protos is not None:
        new_protos = state.prototypes - lr * d_protos
        new_protos /= np.linalg.norm(new_protos, axis=1, keepdims=True)
    new_state = replace(state, student=student, prototypes=new_protos,
                        step=state.step + 1)
    return new_state, total_loss


def teacher_step(state: SimState) -> SimState:
    """EMA update of the teacher toward the current student."""
    m = state.config.ema_momentum
    teacher = EncoderParams(
        m * state.teacher.w1 + (1.0 - m) * state.student.w1,
        m * state.teacher.w2 + (1.0 - m) * state.student.w2,
    )
    return replace(state, teacher=teacher)


def prototype_step_decoupled(state: SimState,
                             teacher_latents: np.ndarray) -> SimState:
    """Refresh the mixture on teacher latents and expose its means as prototypes.

    Runs before the encoder step within each iteration so the student loss is
    computed against the already-updated prototypes.
    """
    if state.config.regime != "decoupled":
        raise ValueError("prototype updates via the mixture require regime=decoupled")
    mixture = gmm_update(state.mixture, teacher_latents, state.config.gmm).state
    return replace(state, mixture=mixture, prototypes=mixture.means)


def init_sim(cfg: SimConfig) -> tuple[SimState, Dataset]:
    """Deterministic setup: data, encoders, prototypes, and (maybe) mixture."""
    data_rng = np.random.default_rng([cfg.seed, 0])
    enc_rng = np.random.default_rng([cfg.seed, 1])
    proto_rng = np.random.default_rng([cfg.seed, 2])
    protos, dataset = _fork_join(
        lambda: spread_unit_vectors(cfg.n_prototypes, cfg.latent_dim, proto_rng),
        lambda: make_dataset(cfg.data, data_rng))
    student = init_encoder(cfg.data.input_dim, cfg.hidden, cfg.latent_dim,
                           enc_rng)
    teacher = student.copy()
    mixture = None
    if cfg.regime == "decoupled":
        horizon = run_horizon(dataset.x_train.shape[0], cfg.batch_size, cfg.epochs)
        gmm = replace(cfg.gmm, total_steps=cfg.gmm.total_steps or horizon,
                      rng_seed=cfg.seed)
        cfg = replace(cfg, gmm=gmm)
        mixture = init_mixture(cfg.n_prototypes, protos, gmm, proto_rng)
        protos = mixture.means
    return SimState(cfg, student, teacher, protos, mixture), dataset


def probe_accuracy(state: SimState, dataset: Dataset) -> dict:
    """Nearest-class-centroid accuracy on frozen teacher features.

    Centroids come from training latents; accuracy is reported overall and per
    head/medium/tail bucket (nan for empty buckets).
    """
    h_train, _ = forward(state.teacher, dataset.x_train)
    h_test, _ = forward(state.teacher, dataset.x_test)
    n_classes = dataset.centers.shape[0]
    centroids = np.zeros((n_classes, h_train.shape[1]))
    for c in range(n_classes):
        members = h_train[dataset.y_train == c]
        if members.shape[0] == 0:
            continue
        mean = members.mean(axis=0)
        norm = np.linalg.norm(mean)
        centroids[c] = mean / norm if norm > 0 else mean
    predictions = np.argmax(h_test @ centroids.T, axis=1)
    correct = predictions == dataset.y_test
    out = {"all": float(correct.mean())}
    for bucket in ("head", "medium", "tail"):
        classes = [c for c, b in dataset.buckets.items() if b == bucket]
        mask = np.isin(dataset.y_test, classes)
        out[bucket] = float(correct[mask].mean()) if mask.any() else float("nan")
    return out


def _telemetry_row(state: SimState, dataset: Dataset, epoch: int,
                   loss: float) -> EpochTelemetry:
    protos = normalize_rows(state.prototypes)
    uniq = {eps: count_unique(protos, eps).unique_count
            for eps in TELEMETRY_EPSILONS}
    acc = probe_accuracy(state, dataset)
    return EpochTelemetry(
        epoch=epoch, loss=loss, unique_counts=uniq,
        acc_all=acc["all"], acc_head=acc["head"],
        acc_medium=acc["medium"], acc_tail=acc["tail"],
    )


def _snapshot_state(state: SimState, epoch: int) -> MixtureState:
    if state.mixture is not None:
        return state.mixture
    k, d = state.prototypes.shape
    return MixtureState(
        np.full(k, 1.0 / k), state.prototypes, np.ones((k, d)),
        None, epoch,
    )


def _train_step(state: SimState, views: np.ndarray) -> tuple[SimState, float]:
    """One step on one batch's views: the state after it, and its loss."""
    # one teacher pass over the stacked views: the mixture's data in the
    # decoupled regime and the student's targets in both
    h_t, _ = forward(state.teacher, views.reshape(-1, views.shape[2]))
    if state.config.regime == "decoupled":
        state = prototype_step_decoupled(state, h_t)
    state, loss = student_step(state, views, h_t)
    return teacher_step(state), loss


def run_experiment(config: SimConfig,
                   out_dir: str | Path | None = None) -> ExperimentResult:
    """Run the full training loop; deterministic given config.seed.

    Writes ``telemetry.csv`` and per-epoch prototype snapshots under
    ``out_dir`` when given.  Telemetry always contains the initialization row,
    so an ``epochs``-epoch run yields ``epochs + 1`` rows.
    """
    state, dataset = init_sim(config)
    config = state.config  # schedules may have been resolved during init
    snapshot_dir = None
    result = ExperimentResult(telemetry=[], state=state, dataset=dataset)
    if out_dir is not None:
        out_dir = Path(out_dir)
        snapshot_dir = out_dir / "snapshots"
        result.telemetry_path = out_dir / "telemetry.csv"

    def log_epoch(epoch, loss):
        result.telemetry.append(_telemetry_row(state, dataset, epoch, loss))
        if snapshot_dir is not None:
            path = snapshot_dir / f"epoch_{epoch:04d}.ckpt"
            save_checkpoint(_snapshot_state(state, epoch), path)
            result.snapshot_paths.append(path)

    log_epoch(0, float("nan"))
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng([config.seed, 3, epoch])
        batches = shuffled_batches(dataset.x_train, config.batch_size, rng)

        def draw():  # the next batch's views, or None after the last
            batch = next(batches, None)
            return None if batch is None else make_views(
                batch, config.views, config.view_noise, config.view_dropout, rng)

        losses = []
        views = draw()
        while views is not None:
            views, (state, loss) = _fork_join(draw, partial(_train_step, state, views))
            losses.append(loss)
        log_epoch(epoch, float(np.mean(losses)) if losses else float("nan"))
    result.state = state
    if result.telemetry_path is not None:
        write_csv(result.telemetry_path, TELEMETRY_HEADER,
                  ((r.epoch, r.loss, *(r.unique_counts[e] for e in TELEMETRY_EPSILONS),
                    r.acc_all, r.acc_head, r.acc_medium, r.acc_tail)
                   for r in result.telemetry))
    return result

