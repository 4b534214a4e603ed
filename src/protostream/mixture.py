"""Online diagonal Gaussian mixture estimation for streaming prototype learning.

The mixture is updated one mini-batch at a time, as stepwise online EM: an
annealed E-step produces soft assignments, the batch's per-sample sufficient
statistics are blended into persistent accumulators with a
responsibility-weighted forgetting factor, and an M-step recovers weights,
means, and diagonal variances.  The means double as the prototype set.  The
statistics are the whole state, all on one per-sample scale: a
``MixtureState`` derives its weights, means and variances from them in one
``m_step`` call at construction, the only place they are derived, so a
checkpoint, which stores only the statistics, reloads as the saved state.
``gmm_update`` evaluates the batch's log densities once and returns them
with the new state in a ``MixtureUpdate`` record, so the batch's pre-update
log-likelihood needs no second pass.

The (N, K) work of ``gmm_update``, ``e_step``, ``log_likelihood`` and
``batch_suffstats`` runs through ``cores.in_halves``, measured as N * K * D.
The densities, responsibilities and log-sum-exp split by batch rows, and
every reduction in them is per row; the statistic products split by
components, and each sum still runs over all N rows.  So the outputs are
the bits of one pass.

One regularizer guards long runs: ``split_resurrect`` halves the mass of an
over-weighted component into a reinitialized lightest one.  It edits the
sufficient statistics, so a split outlasts the update.
No other regularizer is needed to keep the decoupled mixture diverse: its
responsibility-weighted forgetting, the step-size schedule of stepwise EM,
keeps the components apart.

All operations are pure: they return new state and never mutate their inputs,
and a ``MixtureState`` is frozen.  Arrays are float64 throughout.
``GmmConfig`` only declares its ``gmm.*`` keys; ``protostream.settings`` sets
them, from ``simulate`` config files and ``cluster-stream`` flags alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cores import in_halves
from .settings import check_settings, setting

logger = logging.getLogger(__name__)

_LOG_2PI = float(np.log(2.0 * np.pi))

# fixed label so the split-resurrect stream is decoupled from init draws
_SPLIT_STREAM = 7

# spread_unit_vectors' repulsion: iterations, softmax sharpness, push size
_SPREAD_ITERS = 400
_SPREAD_SHARPNESS = 12.0
_SPREAD_STEP = 0.35

def _row_max(a: np.ndarray) -> np.ndarray:
    """Each row's maximum as an (N, 1) column, the bits of
    ``a.max(axis=1, keepdims=True)``: a max is exact, ``argmax`` takes the
    first of tied maxima, and a row holding a NaN gives NaN.  On 512 x 64
    rows numpy's max reduction took 31.7 us against 11.7 us for this (2-core
    x86 host)."""
    return np.take_along_axis(a, a.argmax(axis=1)[:, None], axis=1)


def _softmax_rows(scores: np.ndarray) -> None:
    """Replace each row of ``scores`` by its softmax, in place.

    A tie of +0.0 and -0.0 for the row max can only flip the sign of a zero
    in ``scores - max``, and ``exp`` maps both zeros to 1, so the bits are
    those of subtracting numpy's row max."""
    scores -= _row_max(scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)


class DegenerateComponentError(RuntimeError):
    """Raised when a component's count statistic is non-positive in the M-step."""


def _ramp(start: float, end: float, total_steps: int, step: int) -> float:
    """Linear ramp from ``start`` to ``end`` over ``total_steps`` updates."""
    if total_steps <= 0:
        return end
    return start + (end - start) * (min(max(step, 0), total_steps) / total_steps)


@dataclass(frozen=True)
class GmmConfig:
    """Hyperparameters and feature toggles for the streaming mixture.

    The config is the one source of the update's schedule.  ``beta`` is the
    constant annealing exponent used when ``annealing`` is off; with
    ``annealing`` on, beta ramps linearly ``anneal_start -> 1.0`` over
    ``total_steps``.  The forgetting factor ramps ``eta_start -> eta_end``
    over the same horizon and is evaluated once per update, so
    ``eta_start == eta_end`` makes it constant.
    ``variance_floor`` is a constant, not a field: every state's parameters,
    a loaded checkpoint's included, are derived under it.
    """

    variance_floor: ClassVar[float] = 1e-6

    total_steps: int = setting(1000, "gmm.total_steps", "[0, inf)")
    beta: float = setting(1.0, "gmm.beta", "[0, 1]")
    anneal_start: float = setting(0.5, "gmm.anneal_start", "[0, 1]")
    eta_start: float = setting(0.1, "gmm.eta.start", "[0, 1]")
    eta_end: float = setting(0.5, "gmm.eta.end", "[0, 1]")
    resurrect_threshold: float = setting(0.3, "gmm.resurrect_threshold", "(0, 1]")
    responsibility_forgetting: bool = setting(True, "gmm.forgetting")
    annealing: bool = setting(True, "gmm.annealing")
    resurrect: bool = setting(True, "gmm.resurrect")
    rng_seed: int = 0
    # unit variances blur all structure when the data lives on a much smaller
    # scale (e.g. 1/D per coordinate for unit-norm vectors), which starves all
    # but a couple of components; match this to the data scale in that case
    init_variance: float = setting(1.0, "gmm.init_variance", "(0, inf)")

    def __post_init__(self):
        check_settings(self)

    def beta_at(self, step: int) -> float:
        if self.annealing:
            return _ramp(self.anneal_start, 1.0, self.total_steps, step)
        return self.beta

    def eta_at(self, step: int) -> float:
        return _ramp(self.eta_start, self.eta_end, self.total_steps, step)


@dataclass
class SufficientStats:
    """Persistent per-component accumulators: counts, first and second moments."""

    s_pi: np.ndarray  # (K,)
    s_mu: np.ndarray  # (K, D)
    s_sigma: np.ndarray  # (K, D), diagonal of the second-moment matrix

    @property
    def k(self) -> int:
        return self.s_pi.shape[0]

    def copy(self) -> "SufficientStats":
        return SufficientStats(self.s_pi.copy(), self.s_mu.copy(), self.s_sigma.copy())


@dataclass(frozen=True)
class MixtureState:
    """Weights, means (the prototypes) and diagonal variances, always
    ``m_step`` of ``suffstats``; build one with ``from_stats(stats, step)``.
    The state is frozen, so no assignment can break that.

    ``MixtureState(weights, means, variances, None, step)`` first seeds
    per-sample pseudo-counts, whose M-step gives back the parameters up to
    an ulp: counts equal to the weights, first moments ``weights * means``
    and second moments ``weights * (variances + means**2)``.  Parameters
    passed together with statistics raise ``ValueError``.
    """

    weights: np.ndarray  # (K,), on the probability simplex
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D), elementwise >= variance floor
    suffstats: SufficientStats | None
    step: int

    def __post_init__(self):
        if self.suffstats is None:
            w = self.weights[:, None]
            object.__setattr__(self, "suffstats", SufficientStats(
                self.weights.copy(), w * self.means,
                w * (self.variances + self.means * self.means),
            ))
        elif any(p is not None for p in (self.weights, self.means, self.variances)):
            raise ValueError("a MixtureState takes parameters or statistics, not both")
        params = m_step(self.suffstats, GmmConfig.variance_floor)
        for name, value in zip(("weights", "means", "variances"), params):
            object.__setattr__(self, name, value)

    @classmethod
    def from_stats(cls, stats: SufficientStats, step: int) -> "MixtureState":
        return cls(None, None, None, stats, step)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class SplitEvent:
    """Record of one split-resurrect action: ``dominant`` gave half of its
    ``old_weight`` to the reborn ``resurrected``."""

    kind: str  # always "split"
    dominant: int
    resurrected: int
    old_weight: float


def spread_unit_vectors(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministically spread k unit vectors in R^d by pairwise repulsion.

    Starts from seeded random directions and repeatedly pushes each vector
    away from a softmax-weighted average of its nearest neighbours.  Useful
    when k times d is small enough that plain random directions are not
    well separated.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    v = rng.standard_normal((k, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if k == 1:
        return v
    # one Gram matrix and one push array serve every iteration, each step in
    # place in the formula's own order: 13.5 -> 12.6 ms at K=64, D=16 and
    # 144 -> 121 ms at K=256 (2-core x86 host)
    g, push = np.empty((k, k)), np.empty((k, d))
    diagonal = g.reshape(-1)[::k + 1]
    for _ in range(_SPREAD_ITERS):
        np.matmul(v, v.T, out=g)
        diagonal[:] = -np.inf
        g -= _row_max(g)
        g *= _SPREAD_SHARPNESS
        np.exp(g, out=g)
        g /= g.sum(axis=1, keepdims=True)
        np.matmul(g, v, out=push)
        push *= _SPREAD_STEP
        v -= push
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def init_mixture(k: int, init_points: np.ndarray, config: GmmConfig,
                 rng: np.random.Generator) -> MixtureState:
    """Build a fresh mixture with uniform weights and ``config.init_variance``.

    The means are k of the (n, D) ``init_points``, drawn by ``rng`` without
    replacement, so D is the points' width.  The statistics are the seeded
    pseudo-counts of ``MixtureState``.
    """
    pts = np.asarray(init_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"init_points must be (n, d) with d >= 1, got {pts.shape}")
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k must lie in [1, {pts.shape[0]}], the number of "
                         f"init points, got {k}")
    means = pts[rng.choice(pts.shape[0], size=k, replace=False)]
    return MixtureState(np.full(k, 1.0 / k), means,
                        np.full(means.shape, config.init_variance), None, 0)


def _densities(state: MixtureState, batch: np.ndarray, out: np.ndarray,
               scratch: np.ndarray):
    """Return ``rows(lo, hi)``, which writes the diagonal-Gaussian log
    densities of batch rows lo:hi into ``out[lo:hi]``, shape (N, K), using
    ``scratch[lo:hi]`` for the cross term."""
    inv_var = 1.0 / state.variances  # (K, D)
    log_norm = -0.5 * (state.d * _LOG_2PI + np.sum(np.log(state.variances), axis=1))
    scaled_means = (state.means * inv_var).T
    offset = np.sum(state.means * state.means * inv_var, axis=1)
    square, twice = batch * batch, 2.0 * batch

    def rows(lo, hi):
        # the (N, K) work is done in place here and below: at K=1024 a fresh
        # array per elementwise step cost more than the arithmetic itself
        quad = np.matmul(square[lo:hi], inv_var.T, out=out[lo:hi])
        quad -= np.matmul(twice[lo:hi], scaled_means, out=scratch[lo:hi])
        quad += offset
        quad *= 0.5
        np.subtract(log_norm, quad, out=quad)

    return rows


def _check_batch(state: MixtureState, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != state.d:
        raise ValueError(
            f"batch must be (n, {state.d}), got {batch.shape}"
        )
    return batch


def _log_weights(state: MixtureState) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(state.weights)


def _e_step(state: MixtureState, batch: np.ndarray, beta: float
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log weights, (N, K) log densities and responsibilities of a checked
    batch; each half of the rows gets its densities, then its
    responsibilities, which take the cross term's place."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    log_w = _log_weights(state)
    log_dens = np.empty((len(batch), state.k))
    resp = np.empty_like(log_dens)
    densities = _densities(state, batch, log_dens, resp)

    def rows(lo, hi):
        densities(lo, hi)
        scores = np.multiply(beta, log_dens[lo:hi], out=resp[lo:hi])
        scores += log_w
        _softmax_rows(scores)

    in_halves(rows, len(batch), log_dens.size * state.d)
    return log_w, log_dens, resp


def _mean_log_sum_exp(log_w: np.ndarray, log_dens: np.ndarray, d: int) -> float:
    scratch, per_row = np.empty_like(log_dens), np.empty(len(log_dens))

    def rows(lo, hi):
        scores = np.add(log_w, log_dens[lo:hi], out=scratch[lo:hi])
        m = _row_max(scores)
        scores -= m
        sums = np.sum(np.exp(scores, out=scores), axis=1)
        np.add(m[:, 0], np.log(sums), out=per_row[lo:hi])

    in_halves(rows, len(log_dens), log_dens.size * d)
    return float(np.mean(per_row))


def e_step(state: MixtureState, batch: np.ndarray, beta: float) -> np.ndarray:
    """Annealed responsibilities, one simplex row per sample.

    Row i is proportional to weight_k * density_ik**beta, evaluated in log
    space with per-row max subtraction so no row can underflow to all zeros.
    """
    return _e_step(state, _check_batch(state, batch), beta)[2]


def log_likelihood(state: MixtureState, batch: np.ndarray) -> float:
    """Mean per-sample log-likelihood of the batch under the mixture."""
    batch = _check_batch(state, batch)
    log_dens = np.empty((len(batch), state.k))
    in_halves(_densities(state, batch, log_dens, np.empty_like(log_dens)),
              len(batch), log_dens.size * state.d)
    return _mean_log_sum_exp(_log_weights(state), log_dens, state.d)


@dataclass(frozen=True, eq=False)
class MixtureUpdate:
    """Result of one ``gmm_update``: the new state, plus the log weights of
    the state before it and the batch's log densities under that state, the
    arrays the update itself computed."""

    state: MixtureState
    log_weights: np.ndarray  # (K,)
    log_densities: np.ndarray  # (N, K)

    def log_likelihood(self) -> float:
        """Mean per-sample log-likelihood of the batch under the state before
        the update; bitwise equal to ``log_likelihood`` of that state."""
        return _mean_log_sum_exp(self.log_weights, self.log_densities, self.state.d)


def batch_suffstats(batch: np.ndarray, resp: np.ndarray) -> SufficientStats:
    """Responsibility-weighted zeroth/first/second moments of one batch, each
    averaged over its samples, so the counts sum to one."""
    batch = np.asarray(batch, dtype=np.float64)
    resp = np.asarray(resp, dtype=np.float64)
    if (batch.ndim != 2 or resp.ndim != 2 or resp.shape[0] != batch.shape[0]
            or not len(batch)):
        raise ValueError(f"need a non-empty batch and one responsibility row per "
                         f"sample: batch {batch.shape} vs responsibilities {resp.shape}")
    n, k = resp.shape
    # scaling the (K,) and (K, D) sums is cheaper than scaling the (N, K) resp
    s_pi = resp.sum(axis=0) / n
    s_mu, s_sigma = np.empty((k, batch.shape[1])), np.empty((k, batch.shape[1]))
    square = batch * batch

    def components(lo, hi):
        # every sum still runs over all N rows, so the halves change no bit
        for out, moment in ((s_mu, batch), (s_sigma, square)):
            np.matmul(resp[:, lo:hi].T, moment, out=out[lo:hi])
            out[lo:hi] /= n

    in_halves(components, k, resp.size * batch.shape[1])
    return SufficientStats(s_pi, s_mu, s_sigma)


def forget_and_merge(old: SufficientStats, fresh: SufficientStats, eta: float,
                     use_resp_forgetting: bool) -> SufficientStats:
    """Blend batch statistics into the persistent ones with decay eta**gamma_k.

    gamma_k is ``fresh.s_pi[k]``, the mean responsibility of component k over
    the batch, so rarely used components decay slowly; a component with
    exactly zero batch responsibility keeps bitwise-identical statistics.
    With ``use_resp_forgetting`` off the exponent is 1 (plain eta).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if use_resp_forgetting:
        gamma_hat = fresh.s_pi
        decay = np.power(eta, gamma_hat)
    else:
        gamma_hat = None
        decay = np.full(old.k, float(eta))
    keep = decay
    take = 1.0 - decay
    s_pi = keep * old.s_pi + take * fresh.s_pi
    s_mu = keep[:, None] * old.s_mu + take[:, None] * fresh.s_mu
    s_sigma = keep[:, None] * old.s_sigma + take[:, None] * fresh.s_sigma
    if gamma_hat is not None:
        # the blend alone is not bitwise: at gamma=0, 1.0*(-0.0) + 0.0*0.0 is +0.0
        untouched = gamma_hat == 0.0
        if untouched.any():
            s_pi[untouched] = old.s_pi[untouched]
            s_mu[untouched] = old.s_mu[untouched]
            s_sigma[untouched] = old.s_sigma[untouched]
    return SufficientStats(s_pi, s_mu, s_sigma)


def m_step(suffstats: SufficientStats, variance_floor: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood weights, means, and floored diagonal variances."""
    s_pi = suffstats.s_pi
    if np.any(s_pi <= 0.0):
        bad = int(np.argmax(s_pi <= 0.0))
        raise DegenerateComponentError(
            f"component {bad} has non-positive count {s_pi[bad]}"
        )
    weights = s_pi / s_pi.sum()
    means = suffstats.s_mu / s_pi[:, None]
    variances = suffstats.s_sigma / s_pi[:, None] - means * means
    variances = np.maximum(variances, variance_floor)
    return weights, means, variances


def split_resurrect(state: MixtureState, threshold: float,
                    rng: np.random.Generator, init_variance: float
                    ) -> tuple[MixtureState, list[SplitEvent]]:
    """Halve each over-threshold component's mass into a reborn lightest one.

    Components exceeding the weight threshold at entry are processed in
    descending weight order, one resurrect each: the currently lightest other
    component gets a fresh random mean (norm matched to the average mean norm),
    variances ``init_variance``, and half of the dominant's old mass; the
    dominant keeps the other half.

    The split is made on the sufficient statistics, so the next update
    carries it forward: the dominant's count and moments are halved (its mean
    and variance are unchanged) and the reborn component's are replaced by the
    other half of the count with the moments of its new mean and variance.
    The returned parameters are ``m_step`` of the edited statistics.  A lone
    component has no other to resurrect: it is returned as is, with no event.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    events: list[SplitEvent] = []
    weights = state.weights.copy()
    order = np.argsort(-weights, kind="stable")
    dominant = order[weights[order] > threshold].tolist()
    if not dominant or state.k == 1:
        return state, events
    means = state.means.copy()
    stats = state.suffstats.copy()
    for k in dominant:
        masked = weights.copy()
        masked[k] = np.inf
        j = int(np.argmin(masked))
        old_weight = float(weights[k])
        target_norm = float(np.linalg.norm(means, axis=1).mean())
        direction = rng.standard_normal(state.d)
        direction /= np.linalg.norm(direction)
        means[j] = direction * target_norm
        weights[k] = weights[j] = old_weight / 2.0
        half = stats.s_pi[k] / 2.0
        stats.s_pi[k] = stats.s_pi[j] = half
        stats.s_mu[k] /= 2.0
        stats.s_sigma[k] /= 2.0
        stats.s_mu[j] = means[j] * half
        stats.s_sigma[j] = (init_variance + means[j] * means[j]) * half
        events.append(SplitEvent(kind="split", dominant=k, resurrected=j,
                                 old_weight=old_weight))
    return MixtureState.from_stats(stats, state.step), events


def gmm_update(state: MixtureState, batch: np.ndarray, config: GmmConfig
               ) -> MixtureUpdate:
    """One full streaming update: E-step, statistics blend, M-step, split.

    ``beta`` and ``eta`` are the config's schedules at the current step; a
    constant schedule is a config too (``annealing=False`` with ``beta``, and
    ``eta_start == eta_end``).  The split-resurrect draw is seeded from
    (config seed, step), so trajectories are bitwise reproducible.  The batch's
    pre-update log-likelihood is computed only if the returned record is
    asked for it.
    """
    batch = _check_batch(state, batch)
    if batch.shape[0] < 1:
        raise ValueError(f"batch must be non-empty, got {batch.shape}")
    if not np.all(np.isfinite(batch)):
        raise ValueError("batch contains non-finite entries")
    log_w, log_dens, resp = _e_step(state, batch, config.beta_at(state.step))
    stats = forget_and_merge(state.suffstats, batch_suffstats(batch, resp),
                             config.eta_at(state.step),
                             config.responsibility_forgetting)
    new_state = MixtureState.from_stats(stats, state.step + 1)
    # a split needs a weight above the threshold; seeding costs about 8 us
    if config.resurrect and np.any(new_state.weights > config.resurrect_threshold):
        rng = np.random.default_rng([config.rng_seed, _SPLIT_STREAM, state.step])
        new_state, events = split_resurrect(
            new_state, config.resurrect_threshold, rng, config.init_variance,
        )
        for ev in events:
            logger.info(
                "split step %d: component %d (weight %.4f) -> resurrect %d",
                new_state.step, ev.dominant, ev.old_weight, ev.resurrected,
            )
    return MixtureUpdate(new_state, log_w, log_dens)
