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
preallocated K x D buffer) and one Gram matrix of the block's unplaced
rows.  A row is covered iff 1 - (its largest dot) < epsilon, which is
exact because fl(1 - g) never rises with g; only covered rows look for
their first covering representative.  Among the unplaced rows, one with no
neighbour in the block opens its own partition without a Python step; only
linked rows go through the sequential first-fit loop.  The cost is a few
BLAS calls per block and the temporaries are O(block * K).
``angular_stats`` accumulates its 1-degree histogram, minimum and sum over
blocks of ``_ROW_BLOCK`` rows instead of holding all K(K-1)/2 angles at
once; an angle's bin is its integer part (180 goes to the last bin), which
is ``np.histogram``'s bin for these edges.

The two block sizes differ on purpose.  The counts do not depend on
``_COUNT_BLOCK``, so it is kept small (64 rows): ``analyze`` runs the
epsilon sweep and the angle statistics on two threads at once, and two
256-row temporaries of K floats each would add about 10 MB to its peak at
K=4096.  ``_ROW_BLOCK`` fixes the order in which the angles are summed, so
changing it moves ``mean_deg`` in its last bits.

Nothing here writes files: the ``analyze`` command passes the reports and
the histogram to ``checkpoint.write_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# above this many prototypes the pairwise-angle histogram subsamples pairs
ANGLE_PAIR_K_CAP = 10_000
_ANGLE_PAIR_BUDGET = 2_000_000
_ANGLE_SEED = 1234
# rows per block in count_unique and in angular_stats (see the module
# docstring), pairs per chunk of the subsampled angles: each bounds a
# temporary to block * K or chunk * D floats
_COUNT_BLOCK = 64
_ROW_BLOCK = 256
_ANGLE_PAIR_CHUNK = 1 << 15
# the angle histogram has one bin per degree; its bin indices are built for
# at most this many angles at a time
_ANGLE_BINS = 180
_ANGLE_COUNT_BLOCK = 1 << 16


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


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")


def count_unique(protos: PrototypeMatrix, epsilon: float) -> CollapseReport:
    """Greedy epsilon-ball partition count in row-index order."""
    if not isinstance(protos, PrototypeMatrix) or not protos.normalized:
        raise StateError("count_unique requires a normalized PrototypeMatrix")
    epsilon = float(epsilon)
    _check_epsilon(epsilon)
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
        for start in range(0, k, _COUNT_BLOCK):
            block = rows[start:start + _COUNT_BLOCK]
            owner = np.full(block.shape[0], -1)
            m = len(rep_indices)
            if m:
                # fl(1 - g) falls as g rises, so the best dot decides coverage
                dots = block @ reps[:m].T
                covered = 1.0 - dots.max(axis=1) < epsilon
                if covered.any():
                    # the lowest-index representative that covers the row
                    owner[covered] = (1.0 - dots[covered] < epsilon).argmax(axis=1)
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


def epsilon_sweep(protos: PrototypeMatrix, epsilons) -> list[CollapseReport]:
    """One report per epsilon; the list must be sorted ascending."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("epsilon list is empty")
    for e in eps:
        _check_epsilon(e)
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be sorted ascending")
    return [count_unique(protos, e) for e in eps]


DEFAULT_EPSILON_GRID = (0.0, 0.025, 0.05, 0.1, 0.25, 0.5)


def angular_stats(protos: PrototypeMatrix,
                  pair_k_cap: int = ANGLE_PAIR_K_CAP) -> AngularStats:
    """Histogram of pairwise angles in 1-degree bins, plus min and mean.

    All K(K-1)/2 pairs are used up to ``pair_k_cap`` prototypes; beyond that
    a fixed-seed uniform subsample of pairs keeps the cost bounded.
    """
    if not isinstance(protos, PrototypeMatrix) or not protos.normalized:
        raise StateError("angular_stats requires a normalized PrototypeMatrix")
    k = protos.k
    if k < 2:
        raise ValueError("angular statistics need at least two prototypes")
    rows = protos.rows
    n_total = k * (k - 1) // 2
    subsampled = k > pair_k_cap
    if subsampled:
        rng = np.random.default_rng(_ANGLE_SEED)
        i = rng.integers(0, k, size=_ANGLE_PAIR_BUDGET)
        j = rng.integers(0, k - 1, size=_ANGLE_PAIR_BUDGET)
        j = np.where(j >= i, j + 1, j)
        chunks = (np.einsum("ij,ij->i", rows[i[s:s + _ANGLE_PAIR_CHUNK]],
                            rows[j[s:s + _ANGLE_PAIR_CHUNK]])
                  for s in range(0, _ANGLE_PAIR_BUDGET, _ANGLE_PAIR_CHUNK))
    else:
        chunks = _upper_triangle_dots(rows)
    counts = np.zeros(_ANGLE_BINS, dtype=np.intp)
    min_deg, total, used = np.inf, 0.0, 0
    for dots in chunks:
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
        total += float(angles.sum())
        used += angles.size
    return AngularStats(
        min_deg=min_deg,
        mean_deg=total / used,
        hist_counts=counts,
        hist_edges_deg=np.linspace(0.0, 180.0, _ANGLE_BINS + 1),
        n_pairs_total=n_total,
        n_pairs_used=used,
        subsampled=subsampled,
    )


def _upper_triangle_dots(rows: np.ndarray):
    """Yield the dots of every pair i < j, one block of rows at a time."""
    k = rows.shape[0]
    for start in range(0, k - 1, _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        stop = start + block.shape[0]
        yield (block @ block.T)[np.triu_indices(block.shape[0], 1)]
        if stop < k:
            yield (block @ rows[stop:].T).ravel()

