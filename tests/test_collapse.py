import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from protostream import collapse
from protostream.collapse import (
    DEFAULT_EPSILON_GRID,
    AngularStats,
    PrototypeMatrix,
    angular_stats,
    count_unique,
    epsilon_sweep,
    normalize_rows,
)
from protostream.collapse import StateError
from protostream.settings import ConfigError

import oracles


def unit_rows(rng, k, d):
    m = rng.standard_normal((k, d))
    return normalize_rows(m)


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out.rows, [[0.6, 0.8]])
        assert out.normalized

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(0)
        m = unit_rows(rng, 5, 3)
        again = normalize_rows(m.rows)
        np.testing.assert_allclose(again.rows, m.rows, atol=1e-12)

    def test_zero_row_rejected_by_index(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            normalize_rows(mat)

    @pytest.mark.parametrize("bad_row", [
        pytest.param([np.nan, 1.0], id="nan"),
        pytest.param([np.inf, 0.0], id="inf"),
        pytest.param([1e200, 1e200], id="overflowing-norm"),
    ])
    def test_non_finite_norm_rejected_by_index(self, bad_row):
        mat = np.array([[1.0, 0.0], [0.0, 2.0], bad_row, [np.nan, np.nan]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="row 2 has non-finite norm"):
            normalize_rows(mat)


class TestCountUnique:
    def test_eps_zero_counts_all(self):
        rng = np.random.default_rng(1)
        protos = unit_rows(rng, 17, 5)
        report = count_unique(protos, 0.0)
        assert report.unique_count == 17
        assert report.unique_fraction == 1.0

    def test_eps_zero_with_duplicate_rows(self):
        row = np.array([0.6, 0.8, 0.0])
        protos = normalize_rows(np.vstack([row, row, row]))
        report = count_unique(protos, 0.0)
        assert report.unique_count == 3

    def test_identical_pair_merges(self):
        v = np.array([1.0, 0.0])
        protos = normalize_rows(np.vstack([v, v]))
        report = count_unique(protos, 0.025)
        assert report.unique_count == 1
        assert report.partition_sizes == [2]
        assert report.representative_indices == [0]

    def test_orthogonal_basis_stays_apart(self):
        protos = PrototypeMatrix(np.eye(5), normalized=True)
        report = count_unique(protos, 0.5)
        assert report.unique_count == 5

    def test_partition_sizes_cover_all(self):
        rng = np.random.default_rng(2)
        protos = unit_rows(rng, 40, 3)
        report = count_unique(protos, 0.2)
        assert sum(report.partition_sizes) == 40
        assert len(report.partition_sizes) == report.unique_count

    def test_members_within_ball_of_representative(self):
        rng = np.random.default_rng(3)
        protos = unit_rows(rng, 60, 4)
        eps = 0.15
        report = count_unique(protos, eps)
        reps = protos.rows[report.representative_indices]
        # re-derive the assignment: each row must be within eps of its first fit
        for i, row in enumerate(protos.rows):
            sims = np.minimum(reps @ row, 1.0)
            if i in report.representative_indices:
                continue
            assert np.any(1.0 - sims < eps)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        protos = unit_rows(rng, 200, 8)
        got = count_unique(protos, 0.1).unique_count
        want = oracles.oracle_greedy_unique(protos.rows.tolist(), 0.1)
        assert got == want

    def test_requires_normalized(self):
        protos = PrototypeMatrix(np.eye(3) * 2.0, normalized=False)
        with pytest.raises(StateError):
            count_unique(protos, 0.1)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        protos = unit_rows(rng, 30, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = PrototypeMatrix(protos.rows @ q, normalized=True)
        for eps in (0.025, 0.1, 0.5):
            a = count_unique(protos, eps)
            b = count_unique(rotated, eps)
            assert a.unique_count == b.unique_count
            assert a.partition_sizes == b.partition_sizes

    def test_duplicating_a_row_never_increases_m(self):
        rng = np.random.default_rng(6)
        protos = unit_rows(rng, 25, 4)
        for eps in (0.025, 0.2):
            base = count_unique(protos, eps).unique_count
            for i in range(0, 25, 7):
                dup = PrototypeMatrix(
                    np.vstack([protos.rows, protos.rows[i]]), normalized=True
                )
                assert count_unique(dup, eps).unique_count <= base + 0

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        protos = normalize_rows(np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            count_unique(protos, eps)


def clustered_rows(seed, k, d, n_base, noise):
    """k unit rows around n_base directions; noise 0 gives exact duplicates."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_base, d))
    rows = base[rng.integers(0, n_base, size=k)]
    rows = rows + noise * rng.standard_normal((k, d))
    return normalize_rows(rows)


# the smallest positive double, one below the float64 dot error of unit
# rows, one that leaves only antipodal rows apart and one that covers every
# row.  Below 2**-53 an exact duplicate's self-dot decides, whose last bit
# depends on the order of its sum, which a GEMM and the oracle's loop do not
# share: those two go only to fixtures whose dots are exact in any order
EDGE_EPSILONS = (5e-324, 1e-16, 2.0, 10.0)
WIDE_EPSILONS = (2.0, 10.0)
# 64 was the block size before the float32 screen
BLOCK_SIZES = [1, 7, 64, collapse._COUNT_BLOCK, 256]


class TestCountUniqueBlocked:
    """The blocked scan against the scalar first-fit partition."""

    @settings(max_examples=25)
    @given(k=st.integers(1, 700), d=st.integers(2, 5), n_base=st.integers(1, 40),
           noise=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
           block=st.sampled_from(BLOCK_SIZES),
           seed=st.integers(0, 2**32 - 1))
    @example(k=700, d=3, n_base=40, noise=0.05, block=collapse._COUNT_BLOCK, seed=0)
    @example(k=700, d=3, n_base=5, noise=0.0, block=collapse._COUNT_BLOCK, seed=1)
    def test_report_matches_oracle(self, k, d, n_base, noise, block, seed):
        protos = clustered_rows(seed, k, d, n_base, noise)
        rows = protos.rows.tolist()
        with mock.patch.object(collapse, "_COUNT_BLOCK", block):
            for eps in DEFAULT_EPSILON_GRID + WIDE_EPSILONS:
                report = count_unique(protos, eps)
                assignment, reps = oracles.oracle_greedy_partition(rows, eps)
                sizes = np.bincount(assignment, minlength=len(reps)).tolist()
                assert report.representative_indices == reps
                assert report.partition_sizes == sizes
                assert report.unique_count == len(reps)
                assert report.unique_fraction == len(reps) / k
                assert report.epsilon == eps


def arc_rows(radians, plane=0, d=6):
    """Unit rows at the given angles on the great circle of axes 2p, 2p+1."""
    rows = np.zeros((len(radians), d))
    rows[:, 2 * plane] = np.cos(radians)
    rows[:, 2 * plane + 1] = np.sin(radians)
    return rows


def chain(n, step, plane=0):
    """n rows step radians apart along one arc: neighbours near, others far."""
    return arc_rows(step * np.arange(n), plane)


def shuffled(rows, seed):
    return rows[np.random.default_rng(seed).permutation(rows.shape[0])]


# epsilon 1 - cos(1.5 step): a row is within reach of its chain neighbours
# and out of reach of the rows two steps away (a~b, b~c, a !~ c)
CHAIN_STEP = 0.1
CHAIN_EPS = 1.0 - np.cos(1.5 * CHAIN_STEP)

BLOCK_SHAPES = {
    # one block of 6 rows holding two chains, out of row order
    "chain-in-block": np.vstack([chain(3, CHAIN_STEP, 0)[[2, 0, 1]],
                                 chain(3, CHAIN_STEP, 1)[[1, 2, 0]]]),
    # a 300-row chain in row order crosses every block edge
    "chain-across-edges": chain(300, 0.01),
    # the same chain shuffled: covering rows come from earlier blocks
    "shuffled-chain": shuffled(chain(300, 0.01), 1),
    # exact duplicates of four directions, interleaved
    "duplicates": arc_rows(np.tile([0.0, 1.5, 3.0, 4.5], 70)),
    # 300 directions 1.2 degrees apart and nothing else within reach: every
    # row of every block is isolated at the chain epsilon
    "isolated": arc_rows(np.radians(1.2) * np.arange(300)),
}
SHAPE_EPSILONS = {
    "chain-in-block": (CHAIN_EPS,),
    "chain-across-edges": (1.0 - np.cos(0.015), 1.0 - np.cos(0.035)),
    "shuffled-chain": (1.0 - np.cos(0.015), 1.0 - np.cos(0.035)),
    "duplicates": (0.025, CHAIN_EPS),
    "isolated": (1.0 - np.cos(np.radians(0.6)),),
}


class TestCountUniqueBlockShapes:
    """Chains, duplicates and isolated rows at block sizes 1, 7, 64, the
    default and 256."""

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
    def test_matches_oracle(self, shape, block):
        protos = normalize_rows(BLOCK_SHAPES[shape])
        rows = protos.rows.tolist()
        with mock.patch.object(collapse, "_COUNT_BLOCK", block):
            for eps in SHAPE_EPSILONS[shape]:
                report = count_unique(protos, eps)
                assignment, reps = oracles.oracle_greedy_partition(rows, eps)
                assert report.representative_indices == reps
                assert report.partition_sizes == \
                    np.bincount(assignment, minlength=len(reps)).tolist()

    def test_chain_in_block_takes_first_fit(self):
        # rows c, a, b of one chain: c and a are out of reach of each other,
        # so both open, and b joins c, the lower representative
        protos = normalize_rows(chain(3, CHAIN_STEP)[[2, 0, 1]])
        report = count_unique(protos, CHAIN_EPS)
        assert report.representative_indices == [0, 1]
        assert report.partition_sizes == [2, 1]

    def test_isolated_rows_each_open(self):
        protos = normalize_rows(BLOCK_SHAPES["isolated"])
        report = count_unique(protos, SHAPE_EPSILONS["isolated"][0])
        assert report.representative_indices == list(range(300))

    def test_duplicates_join_first_copy(self):
        protos = normalize_rows(BLOCK_SHAPES["duplicates"])
        report = count_unique(protos, 0.025)
        assert report.representative_indices == [0, 1, 2, 3]
        assert report.partition_sizes == [70] * 4


def margin_rows(eps, seed):
    """Rows whose dots sit at epsilon's cover threshold, shuffled over
    several blocks.

    Seven anchors e_0..e_6, and three copies of each probe c*e_a + s*e_7
    (either sign of s).  A probe's dot with its anchor is c exactly in any
    summation order, and 1 - c lies 1e-7, one and two ulp of c either side
    of epsilon, or on it.  Every other dot is 0, s*s', an exact product, or
    near 1: far from the threshold for the grid epsilons.
    """
    c0 = 1.0 - eps
    down = [math.nextafter(c0, -1.0), math.nextafter(math.nextafter(c0, -1.0), -1.0)]
    up = [math.nextafter(c0, 2.0), math.nextafter(math.nextafter(c0, 2.0), 2.0)]
    cosines = [c0 - 1e-7, c0 + 1e-7, c0, *down, *up]
    rows = list(np.eye(8)[:7])
    for a in range(7):
        for c in cosines:
            for sign in (1.0, -1.0):
                row = np.zeros(8)
                row[a], row[7] = c, sign * math.sqrt(1.0 - c * c)
                rows += [row] * 3
    return shuffled(np.array(rows), seed)


def dyadic_rows(k, seed):
    """k picks of the 24 unit rows of D=4 with entries 0, +-1/2 or +-1:
    every dot, -1, -1/2, 0, 1/2 or 1, is exact in any order and precision."""
    units = [np.eye(4)[i] * s for i in range(4) for s in (1.0, -1.0)]
    units += [0.5 * np.array(s) for s in itertools.product((1.0, -1.0), repeat=4)]
    rng = np.random.default_rng(seed)
    return np.array(units)[rng.integers(0, len(units), size=k)]


def orthogonal_pairs(seed):
    """140 pairs on orthogonal planes of D=280, each pair 1 - cos apart by
    one of 0.01, 0.035, 0.07, 0.16 and 0.35, rotated at random: every grid
    epsilon is at least 1.25 times away from those and from the 1 between
    pairs.  Returns the rows and the pair levels."""
    rng = np.random.default_rng(seed)
    levels = rng.choice([0.01, 0.035, 0.07, 0.16, 0.35], size=140)
    rows = np.zeros((280, 280))
    half = np.arccos(1.0 - levels) / 2.0
    for p, h in enumerate(half):
        rows[2 * p, 2 * p:2 * p + 2] = np.cos(h), np.sin(h)
        rows[2 * p + 1, 2 * p:2 * p + 2] = np.cos(h), -np.sin(h)
    q, r = np.linalg.qr(rng.standard_normal((280, 280)))
    return rows @ (q * np.sign(np.diag(r))), levels


class CountingExact:
    """Stands in for ``collapse._exact_owners`` and counts its calls."""

    def __init__(self):
        self.exact, self.calls = collapse._exact_owners, 0

    def __call__(self, *args):
        self.calls += 1
        return self.exact(*args)


class TestCountUniqueScreen:
    """The float32 screen decides only outside its error band; a block with
    a dot inside it is scanned in float64, so every count is the float64
    scan's."""

    @pytest.mark.parametrize("eps", [e for e in DEFAULT_EPSILON_GRID if e > 0.0])
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_threshold_rows_match_oracle_and_rescan(self, eps, block):
        rows = margin_rows(eps, seed=int(eps * 1000))
        assert rows.shape[0] > 2 * collapse._COUNT_BLOCK
        protos = PrototypeMatrix(rows, normalized=True)
        exact = CountingExact()
        with mock.patch.multiple(collapse, _COUNT_BLOCK=block, _exact_owners=exact):
            report = count_unique(protos, eps)
        assignment, reps = oracles.oracle_greedy_partition(rows.tolist(), eps)
        assert report.representative_indices == reps
        assert report.partition_sizes == np.bincount(assignment).tolist()
        assert exact.calls > 0

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_exact_dots_match_oracle_at_every_epsilon(self, block):
        rows = dyadic_rows(3 * collapse._COUNT_BLOCK + 5, seed=block)
        protos = PrototypeMatrix(rows, normalized=True)
        with mock.patch.object(collapse, "_COUNT_BLOCK", block):
            for eps in DEFAULT_EPSILON_GRID + EDGE_EPSILONS:
                report = count_unique(protos, eps)
                assignment, reps = oracles.oracle_greedy_partition(rows.tolist(), eps)
                assert report.representative_indices == reps, eps
                assert report.partition_sizes == \
                    np.bincount(assignment, minlength=len(reps)).tolist()

    def test_clear_margins_never_rescan(self):
        rows, levels = orthogonal_pairs(seed=5)
        protos = normalize_rows(shuffled(rows, 6))
        exact = CountingExact()
        with mock.patch.object(collapse, "_exact_owners", exact):
            for eps in DEFAULT_EPSILON_GRID:
                report = count_unique(protos, eps)
                assert report.unique_count == 140 + int((levels >= eps).sum())
        assert exact.calls == 0

    @pytest.mark.parametrize("eps", DEFAULT_EPSILON_GRID[1:] + EDGE_EPSILONS
                             + (1.0, sys.float_info.max))
    def test_cover_threshold_is_the_least_covering_dot(self, eps):
        t = collapse._cover_threshold(eps)
        assert 1.0 - t < eps
        assert not 1.0 - math.nextafter(t, -math.inf) < eps

    @pytest.mark.parametrize("d, value, screened", [
        (4, 0.5, True), (4, 0.75, False),  # squared norm 1, then above 2
        (2**17, 2.0**-8.5, True), (2**17 + 1, 2.0**-8.5, False),  # D * 2**-24 above 2**-7
    ])
    def test_screen_only_inside_the_bound(self, d, value, screened):
        rows = np.full((3, d), value)
        assert (collapse._float32_band(rows, 0.1) is not None) == screened


class TestEpsilonSweep:
    def test_identical_pair_composition(self):
        v = np.array([0.0, 1.0])
        protos = normalize_rows(np.vstack([v, v]))
        reports = epsilon_sweep(protos, [0.0, 0.025])
        assert [r.unique_count for r in reports] == [2, 1]

    def test_counts_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(5, 80))
            d = int(rng.integers(2, 10))
            protos = unit_rows(rng, k, d)
            counts = [r.unique_count
                      for r in epsilon_sweep(protos, [0.0, 0.025, 0.05, 0.1, 0.25, 0.5])]
            assert all(1 <= c <= k for c in counts)
            assert counts[0] == k

    def test_count_can_rise_with_epsilon(self):
        # greedy first-fit is not monotone: at the larger epsilon row 0 also
        # takes row 1, which at the smaller one took rows 2 and 3
        xy = [(0.0, 0.0), (1.1, 0.0), (1.4, 0.65), (1.4, -0.65)]
        protos = normalize_rows(np.array([(0.1 * x, 0.1 * y, 1.0) for x, y in xy]))
        reports = epsilon_sweep(protos, [1.0 - np.cos(0.1), 1.0 - np.cos(0.12)])
        assert [r.unique_count for r in reports] == [2, 3]

    def test_unsorted_rejected(self):
        protos = normalize_rows(np.eye(3))
        with pytest.raises(ValueError):
            epsilon_sweep(protos, [0.1, 0.05])
        with pytest.raises(ValueError):
            epsilon_sweep(protos, [])

    @pytest.mark.parametrize("grid", [[0.1, 0.1, 0.5], [0.0, 0.0], []])
    def test_repeat_or_empty_is_a_config_error(self, grid):
        # a repeated epsilon would be counted twice under one manifest key
        with pytest.raises(ConfigError) as err:
            epsilon_sweep(normalize_rows(np.eye(3)), grid)
        assert err.value.key == "epsilons"

    def test_nan_in_grid_rejected(self):
        # NaN compares false both ways, so the ascending check alone passes it
        protos = normalize_rows(np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            epsilon_sweep(protos, [0.5, float("nan"), 0.1])


class TestAngularStats:
    def test_single_orthogonal_pair(self):
        protos = PrototypeMatrix(np.eye(2), normalized=True)
        stats = angular_stats(protos)
        assert stats.n_pairs_used == 1
        assert stats.min_deg == pytest.approx(90.0)
        assert stats.mean_deg == pytest.approx(90.0)

    def test_eps_half_boundary_is_sixty_degrees(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, np.sqrt(3.0) / 2.0])  # dot = 0.5
        protos = PrototypeMatrix(np.vstack([a, b]), normalized=True)
        stats = angular_stats(protos)
        assert stats.min_deg == pytest.approx(60.0, abs=1e-9)

    def test_small_eps_matches_twelve_point_eight_degrees(self):
        # 1 - cos(12.84 deg) is about 0.025
        assert 1.0 - np.cos(np.radians(12.84)) == pytest.approx(0.025, abs=1e-4)

    def test_pair_count(self):
        rng = np.random.default_rng(8)
        protos = unit_rows(rng, 12, 3)
        stats = angular_stats(protos)
        assert stats.n_pairs_total == 66
        assert stats.n_pairs_used == 66
        assert stats.hist_counts.sum() == 66
        assert not stats.subsampled

    def test_subsampling_above_cap(self):
        rng = np.random.default_rng(9)
        protos = unit_rows(rng, 64, 4)
        stats = angular_stats(protos, pair_k_cap=32)
        assert stats.subsampled
        assert stats.n_pairs_used > 0

    def test_requires_two_rows(self):
        protos = PrototypeMatrix(np.ones((1, 3)) / np.sqrt(3), normalized=True)
        with pytest.raises(ValueError):
            angular_stats(protos)


def full_gram_angles(rows):
    """Every pair's angle from one K x K Gram matrix."""
    k = rows.shape[0]
    dots = (rows @ rows.T)[np.triu_indices(k, 1)]
    return np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))


class TestAngularStatsBlocked:
    def test_several_blocks_match_full_gram(self):
        k = 2 * collapse._ROW_BLOCK + 89
        protos = clustered_rows(11, k, 6, 30, 0.05)
        stats = angular_stats(protos)
        angles = full_gram_angles(protos.rows)
        counts, edges = np.histogram(angles, bins=180, range=(0.0, 180.0))
        assert np.array_equal(stats.hist_counts, counts)
        assert np.array_equal(stats.hist_edges_deg, edges)
        assert stats.min_deg == angles.min()
        assert stats.mean_deg == pytest.approx(angles.mean(), rel=1e-12)
        assert stats.n_pairs_used == stats.n_pairs_total == angles.size

    def test_subsampled_chunks_match_one_pass(self):
        protos = unit_rows(np.random.default_rng(12), 64, 4)
        budget, chunk = 100_003, 4096  # a ragged last chunk
        with mock.patch.multiple(collapse, _ANGLE_PAIR_BUDGET=budget,
                                 _ANGLE_PAIR_CHUNK=chunk):
            stats = angular_stats(protos, pair_k_cap=32)
        rng = np.random.default_rng(collapse._ANGLE_SEED)
        i = rng.integers(0, 64, size=budget)
        j = rng.integers(0, 63, size=budget)
        j = np.where(j >= i, j + 1, j)
        dots = np.einsum("ij,ij->i", protos.rows[i], protos.rows[j])
        angles = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
        counts, _ = np.histogram(angles, bins=180, range=(0.0, 180.0))
        assert stats.subsampled
        assert stats.n_pairs_used == budget
        assert np.array_equal(stats.hist_counts, counts)
        assert stats.min_deg == angles.min()
        assert stats.mean_deg == pytest.approx(angles.mean(), rel=1e-12)


class TestAngleHistogramEdges:
    """The 1-degree bins by truncation against np.histogram, bitwise."""

    def check(self, rows):
        stats = angular_stats(PrototypeMatrix(rows, normalized=True))
        angles = full_gram_angles(rows)
        counts, edges = np.histogram(angles, bins=180, range=(0.0, 180.0))
        assert np.array_equal(stats.hist_counts, counts)
        assert np.array_equal(stats.hist_edges_deg, edges)
        assert stats.hist_counts.sum() == angles.size
        return stats

    def test_zero_ninety_and_one_eighty_degrees(self):
        e1, e2 = np.eye(2)
        # pairs: one at 0 degrees, three at 90 (e2 against the others) and
        # two at 180 (-e1 against both copies of e1)
        stats = self.check(np.vstack([e1, e1, e2, -e1]))
        assert stats.hist_counts[0] == 1
        assert stats.hist_counts[90] == 3
        assert stats.hist_counts[179] == 2  # 180 degrees is in the last bin
        assert stats.hist_counts.sum() == 6
        assert stats.min_deg == 0.0

    def test_angles_on_integer_degree_edges(self):
        # every pair of these rows is an integer number of degrees apart, so
        # each computed angle lands on, or within rounding of, a bin edge
        rows = arc_rows(np.radians(np.arange(0.0, 360.0, 1.0)), d=2)
        self.check(rows)

    def test_subsampled_edges_match_histogram(self):
        rows = arc_rows(np.radians(np.arange(0.0, 360.0, 3.0)), d=2)
        protos = PrototypeMatrix(rows, normalized=True)
        stats = angular_stats(protos, pair_k_cap=32)
        rng = np.random.default_rng(collapse._ANGLE_SEED)
        k = rows.shape[0]
        i = rng.integers(0, k, size=collapse._ANGLE_PAIR_BUDGET)
        j = rng.integers(0, k - 1, size=collapse._ANGLE_PAIR_BUDGET)
        j = np.where(j >= i, j + 1, j)
        dots = np.einsum("ij,ij->i", rows[i], rows[j])
        angles = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
        counts, _ = np.histogram(angles, bins=180, range=(0.0, 180.0))
        assert np.array_equal(stats.hist_counts, counts)
