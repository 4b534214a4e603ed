"""Prototype-uniqueness diagnostics on the unit sphere.

A set of unit prototypes is partitioned greedily: scanning rows in order,
each prototype joins the first existing representative v with
1 - v.c < epsilon, otherwise it opens a new partition.  The number of
partitions M is the unique-prototype count.  Greedy first-fit is an
upper-bound heuristic for the minimal covering, chosen for determinism and
O(K*M*D) cost.  M is not monotone in epsilon: a larger ball can let an
early representative take a row that would have covered others, so four
rows can give M=2 at one epsilon and M=3 at a larger one.

At epsilon 0 every prototype counts as unique and no dot product is taken.
For epsilon > 0 the rows are scanned in blocks of ``_COUNT_BLOCK``: per
block, one GEMM against the representatives found so far (kept in a
preallocated K x D buffer) and one float64 Gram matrix of the block's
unplaced rows.  A row is covered iff 1 - (its largest dot) < epsilon, which
is exact because fl(1 - g) never rises with g; only covered rows look for
their first covering representative.  Among the unplaced rows, one with no
neighbour in the block opens its own partition without a Python step; only
linked rows go through the sequential first-fit loop.  The cost is a few
BLAS calls per block and the temporaries are O(block * K).

Above one block, the GEMM against the representatives is taken in float32,
on float32 copies of the rows and of the representative buffer.  The same
monotony makes coverage g >= t for one double t per epsilon, and the
float32 dots g32 decide only where they clear t by delta.  For rows x, y
with S = sum |x_i y_i| and the float64 GEMM's dot g64,

    |g32 - g64| <= delta = 1.02 ((D + 2) u + D v) n + D 2**-120,

with u = 2**-24, v = 2**-53 and n the largest computed squared row norm.
Rounding x and y to float32 moves each product by at most
(2u + u**2) |x_i y_i|; a float32 dot over D terms, in any summation order
and with or without fused multiply-adds, lies within
gamma_D(u) (1 + u)**2 S of the exact dot of the rounded rows, and the
float64 one within gamma_D(v) S of the exact dot, where
gamma_D(u) = D u / (1 - D u) (Higham 2002, section 3.1).  With D u <= 2**-7
the three sum to less than 1.01 ((D + 2) u + D v) S, and S <= n (1 + 2**-35)
by Cauchy-Schwarz and the rounding of n.  The last term bounds underflow,
even where a kernel flushes subnormals to zero.  The screen runs only where
D u <= 2**-7 and n <= 2, so no float32 value overflows and every dot lies
in [-3, 3].

The band needs no t.  Its ends are c = fl(1 - epsilon) -+ w, with
w = delta + 2**-22, each rounded to a double, clipped to [-4, 4] and cast
to float32.  For epsilon <= 6, results below 8 in size round by at most
2**-51, so fl(1 - g) < epsilon for every g >= c + 2**-48 and for no
g <= c - 2**-48: |t - c| < 2**-48.  Rounding c -+ w moves it by at most
2**-51, and a dot compares with the float32 end as with a value within
2**-23 of that double (a clipped end lies beyond every dot); as
2**-48 + 2**-51 + 2**-23 < 2**-22, lo <= t - delta and hi >= t + delta.
For epsilon > 6 both ends clip to -4 and every dot covers.  A float32 dot
at or above hi covers and one below lo does not; a block with any dot in
[lo, hi) is scanned in float64 as without the screen, so the counts are the
float64 scan's by construction.  128 4-byte rows per block keep the
temporary of 64 float64 ones; the counts do not depend on ``_COUNT_BLOCK``.

A positive epsilon below ``min_epsilon(D)`` = (D + 3) 2**-51 = (4D + 12) v
is refused: there exact copies of a row merge only where their computed
self-dot g rounds close enough to 1, which depends on the order of its sum.
``normalize_rows`` divides by a norm within (1 + gamma_D)**(1/2) (1 + v) of
the exact one (barring underflow) and each quotient rounds by 1 + v, so
|x.x - 1| <= gamma_D + 4v + O(v**2), and g adds gamma_D x.x in any order.
With D v <= 2**-10, 1 - g is exact and at most (2D + 4) v (1 + 2**-8),
about half of min_epsilon, so from it on exact copies always merge.

``angle_tasks`` splits the pairwise angles into tasks: one per
``_ROW_BLOCK`` rows (the pairs inside the block, then those with every
later row), or one per chunk of sampled pairs above ``ANGLE_PAIR_K_CAP``.
Each task returns its 1-degree histogram counts, minimum, per-chunk sums
and pair count; merged in task order they give the same bits whichever
thread ran which task.  An angle's bin is its integer part (180 goes to the
last bin), which is ``np.histogram``'s bin for these edges.
``angular_stats`` runs the tasks in order.  ``analyze`` hands them to
``cores.from_both_ends``: the helper takes them from the front, and the
calling thread runs the sweep, then takes the smallest strips from the
back, so the two live strips stay below the first strip's size while the
helper has taken at least as many tasks as the caller.  ``_ROW_BLOCK``
fixes the order in which the angles are summed, so changing it moves
``mean_deg`` in its last bits.

Nothing here writes files: the ``analyze`` command passes the reports and
the histogram to ``checkpoint.write_csv``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .settings import ConfigError

# above this many prototypes the pairwise-angle histogram subsamples pairs
ANGLE_PAIR_K_CAP = 10_000
_ANGLE_PAIR_BUDGET = 2_000_000
_ANGLE_SEED = 1234
# rows per block in count_unique and in angular_stats (see the module
# docstring), pairs per chunk of the subsampled angles: each bounds a
# temporary to block * K or chunk * D floats
_COUNT_BLOCK = 128
_ROW_BLOCK = 256
_ANGLE_PAIR_CHUNK = 1 << 15
# the angle histogram has one bin per degree; its bin indices are built for
# at most this many angles at a time
_ANGLE_BINS = 180
_ANGLE_COUNT_BLOCK = 1 << 16
# unit roundoff of float32 and float64
_U32, _U64 = 2.0**-24, 2.0**-53


class StateError(RuntimeError):
    """Raised when a diagnostic is given a ``PrototypeMatrix`` whose rows are
    not normalized."""


@dataclass
class PrototypeMatrix:
    """K x D prototype rows plus a flag recording row normalization."""

    rows: np.ndarray
    normalized: bool = False

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass
class CollapseReport:
    epsilon: float
    unique_count: int
    unique_fraction: float
    partition_sizes: list[int]
    representative_indices: list[int]


@dataclass
class AngularStats:
    min_deg: float
    mean_deg: float
    hist_counts: np.ndarray
    hist_edges_deg: np.ndarray
    n_pairs_total: int
    n_pairs_used: int
    subsampled: bool


def normalize_rows(rows: np.ndarray) -> PrototypeMatrix:
    """Divide every row by its L2 norm.

    Zero rows and rows whose norm is not finite (a NaN or infinite entry, or
    a sum of squares that overflows) are rejected by index: a NaN row would
    count as its own partition at every epsilon.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {rows.shape}")
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        kind = "zero" if norms[i] == 0.0 else "non-finite"
        raise ValueError(f"row {i} has {kind} norm")
    return PrototypeMatrix(rows / norms[:, None], normalized=True)


def min_epsilon(d: int) -> float:
    """The least positive epsilon accepted at dimension d (module docstring)."""
    return (d + 3) * 2.0**-51


def _check_epsilon(epsilon: float, d: int) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if 0.0 < epsilon < min_epsilon(d):
        raise ValueError(f"epsilon must be 0 or at least min_epsilon = "
                         f"{min_epsilon(d)!r} at D={d}, got {epsilon!r}")


def count_unique(protos: PrototypeMatrix, epsilon: float) -> CollapseReport:
    """Greedy epsilon-ball partition count in row-index order."""
    if not isinstance(protos, PrototypeMatrix) or not protos.normalized:
        raise StateError("count_unique requires a normalized PrototypeMatrix")
    epsilon = float(epsilon)
    _check_epsilon(epsilon, protos.d)
    rows = protos.rows
    k = rows.shape[0]
    assignment = np.arange(k)
    rep_indices: list[int] = []
    if epsilon == 0.0:
        # 1 - v.c < 0 would need a float overshoot v.c > 1, which the
        # definition does not count as a merge: every row is its own partition
        rep_indices = list(range(k))
    else:
        # for epsilon > 0 an overshoot v.c > 1 merges with or without a clip
        reps = np.empty_like(rows)
        band = _float32_band(rows, epsilon) if k > _COUNT_BLOCK else None
        if band is not None:
            rows32 = rows.astype(np.float32)
            reps32 = np.empty_like(rows32)
        for start in range(0, k, _COUNT_BLOCK):
            block = rows[start:start + _COUNT_BLOCK]
            owner = np.full(block.shape[0], -1)
            m = len(rep_indices)
            if m:
                screened = None if band is None else _screened_owners(
                    rows32[start:start + _COUNT_BLOCK], reps32[:m], *band)
                owner = (_exact_owners(block, reps[:m], epsilon)
                         if screened is None else screened)
            free = np.flatnonzero(owner < 0)
            if free.size:
                # unplaced rows can only join representatives opened earlier
                # in this block; each new one takes every later unplaced row
                # it covers, which is first-fit because it is the lowest
                # representative still open to them
                unplaced = block[free]
                near = 1.0 - unplaced @ unplaced.T < epsilon
                # a row's own ball holds it even where 1 - v.v rounds above
                # epsilon; the Gram matrix need not be bitwise symmetric
                np.fill_diagonal(near, False)
                linked = near.any(axis=0) | near.any(axis=1)
                # an isolated row leads its own partition without a loop step
                leader = np.arange(free.size)
                pending = linked.copy()
                for a in np.flatnonzero(linked):
                    if pending[a]:
                        members = pending & near[a]
                        leader[members] = a
                        pending[a] = False
                        pending &= ~members
                opened = leader == np.arange(free.size)
                # representatives are numbered in row order
                number = np.cumsum(opened) + (m - 1)
                owner[free] = number[leader]
                new = free[opened]
                reps[m:m + new.size] = block[new]
                if band is not None:
                    reps32[m:m + new.size] = rows32[start + new]
                rep_indices.extend((start + new).tolist())
            assignment[start:start + block.shape[0]] = owner
    m = len(rep_indices)
    sizes = np.bincount(assignment, minlength=m)
    return CollapseReport(
        epsilon=epsilon,
        unique_count=m,
        unique_fraction=m / k,
        partition_sizes=[int(s) for s in sizes],
        representative_indices=rep_indices,
    )


def _exact_owners(block: np.ndarray, reps: np.ndarray, epsilon: float) -> np.ndarray:
    """Each row's first representative v with 1 - v.c < epsilon, or -1."""
    owner = np.full(block.shape[0], -1)
    dots = block @ reps.T
    # fl(1 - g) falls as g rises, so the best dot decides coverage
    covered = 1.0 - dots.max(axis=1) < epsilon
    if covered.any():
        owner[covered] = (1.0 - dots[covered] < epsilon).argmax(axis=1)
    return owner


def _screened_owners(block32: np.ndarray, reps32: np.ndarray,
                     lo: np.float32, hi: np.float32) -> np.ndarray | None:
    """``_exact_owners`` from float32 dots, or None when one lies in [lo, hi)."""
    owner = np.full(block32.shape[0], -1)
    dots = block32 @ reps32.T
    near = dots.max(axis=1) >= lo
    if near.any():
        dots = dots[near]
        sure = dots >= hi
        if not np.array_equal(sure, dots >= lo):
            return None
        owner[near] = sure.argmax(axis=1)
    return owner


def _float32_band(rows: np.ndarray, epsilon: float):
    """The float32 ``(lo, hi)`` around the cover threshold that a float32
    dot must clear (see the module docstring), or None where the bound does
    not hold."""
    d = rows.shape[1]
    norm_sq = float(np.einsum("ij,ij->i", rows, rows).max())
    if not (d * _U32 <= 2.0**-7 and norm_sq <= 2.0):
        return None
    delta = 1.02 * ((d + 2) * _U32 + d * _U64) * norm_sq + d * 2.0**-120
    c, width = 1.0 - epsilon, delta + 2.0**-22
    # every dot lies in [-3, 3], where these ends compare as the unclipped ones
    return (np.float32(min(max(c - width, -4.0), 4.0)),
            np.float32(min(max(c + width, -4.0), 4.0)))


def epsilon_sweep(protos: PrototypeMatrix, epsilons) -> list[CollapseReport]:
    """One report per epsilon.  An empty or not strictly ascending list is a
    ``ConfigError`` naming ``epsilons``: a repeated epsilon would have two
    reports."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ConfigError("epsilons", "epsilon list is empty")
    for e in eps:
        _check_epsilon(e, protos.d)
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons", f"must be strictly ascending, got {eps}")
    return [count_unique(protos, e) for e in eps]


DEFAULT_EPSILON_GRID = (0.0, 0.025, 0.05, 0.1, 0.25, 0.5)


def angular_stats(protos: PrototypeMatrix,
                  pair_k_cap: int = ANGLE_PAIR_K_CAP) -> AngularStats:
    """Histogram of pairwise angles in 1-degree bins, plus min and mean.

    All K(K-1)/2 pairs are used up to ``pair_k_cap`` prototypes; beyond that
    a fixed-seed uniform subsample of pairs keeps the cost bounded.  This is
    ``angle_tasks`` run in order.
    """
    tasks, merge = angle_tasks(protos, pair_k_cap)
    return merge([task() for task in tasks])


def angle_tasks(protos: PrototypeMatrix, pair_k_cap: int = ANGLE_PAIR_K_CAP):
    """``angular_stats`` as ``(tasks, merge)``: ``merge`` takes the results
    of the tasks, in task order, and returns the ``AngularStats``.

    A task, one per ``_ROW_BLOCK`` rows or per sampled-pair chunk, only
    reads the rows and returns its histogram counts, minimum, per-chunk sums
    and pair count; the sums are added in task order, so any thread may run
    any task.
    """
    if not isinstance(protos, PrototypeMatrix) or not protos.normalized:
        raise StateError("angular_stats requires a normalized PrototypeMatrix")
    k = protos.k
    if k < 2:
        raise ValueError("angular statistics need at least two prototypes")
    rows = protos.rows
    subsampled = k > pair_k_cap
    if subsampled:
        rng = np.random.default_rng(_ANGLE_SEED)
        i = rng.integers(0, k, size=_ANGLE_PAIR_BUDGET)
        j = rng.integers(0, k - 1, size=_ANGLE_PAIR_BUDGET)
        j = np.where(j >= i, j + 1, j)
        tasks = [functools.partial(_angle_part, _pair_dots, rows,
                                   i[s:s + _ANGLE_PAIR_CHUNK], j[s:s + _ANGLE_PAIR_CHUNK])
                 for s in range(0, _ANGLE_PAIR_BUDGET, _ANGLE_PAIR_CHUNK)]
    else:
        tasks = [functools.partial(_angle_part, _block_dots, rows, start)
                 for start in range(0, k - 1, _ROW_BLOCK)]

    def merge(parts) -> AngularStats:
        counts = np.zeros(_ANGLE_BINS, dtype=np.intp)
        min_deg, total, used = np.inf, 0.0, 0
        for part_counts, part_min, sums, part_used in parts:
            counts += part_counts
            min_deg = min(min_deg, part_min)
            for s in sums:
                total += s
            used += part_used
        return AngularStats(
            min_deg=min_deg,
            mean_deg=total / used,
            hist_counts=counts,
            hist_edges_deg=np.linspace(0.0, 180.0, _ANGLE_BINS + 1),
            n_pairs_total=k * (k - 1) // 2,
            n_pairs_used=used,
            subsampled=subsampled,
        )

    return tasks, merge


def _angle_part(dot_chunks, *args):
    """Histogram counts, minimum, sum of each chunk and pair count of the
    angles of ``dot_chunks(*args)``."""
    counts = np.zeros(_ANGLE_BINS, dtype=np.intp)
    min_deg, sums, used = np.inf, [], 0
    for dots in dot_chunks(*args):
        angles = np.clip(dots, -1.0, 1.0, out=dots)
        np.arccos(angles, out=angles)
        # the product np.degrees computes, on the same bits, in a third of its time
        np.multiply(angles, 180.0 / math.pi, out=angles)
        # angles lie in [0, 180] and the edges are the integers, so truncation
        # is np.histogram's bin, with 180 itself in the last one
        for s in range(0, angles.size, _ANGLE_COUNT_BLOCK):
            index = angles[s:s + _ANGLE_COUNT_BLOCK].astype(np.intp)
            np.minimum(index, _ANGLE_BINS - 1, out=index)
            counts += np.bincount(index, minlength=_ANGLE_BINS)
        min_deg = min(min_deg, float(angles.min()))
        sums.append(float(angles.sum()))
        used += angles.size
    return counts, min_deg, sums, used


def _block_dots(rows: np.ndarray, start: int):
    """Yield the dots of every pair i < j with i in the block of rows from
    ``start``: those inside the block, then those with the later rows."""
    block = rows[start:start + _ROW_BLOCK]
    stop = start + block.shape[0]
    yield (block @ block.T)[np.triu_indices(block.shape[0], 1)]
    if stop < rows.shape[0]:
        yield (block @ rows[stop:].T).ravel()


def _pair_dots(rows: np.ndarray, i: np.ndarray, j: np.ndarray):
    yield np.einsum("ij,ij->i", rows[i], rows[j])
