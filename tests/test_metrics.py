import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from scipy.spatial.distance import pdist

from abcas.metrics import (
    CSV_HEADER,
    EXP_SUM_BLOCK,
    PAIR_LEAF,
    MetricsRecord,
    _bands,
    _bytes_greater,
    _exp_sum,
    _pair_rows,
    median_heuristic_bandwidth,
    mmd2_unbiased,
    within_set_mean,
)

from helpers import mmd2_bruteforce


def mmd2_given_x_term(x, y, bw):
    """The training path: x's within-set term computed apart and passed in."""
    return mmd2_unbiased(x, y, bw, x_within=within_set_mean(x, bw))


def dense_kernel(a, b, bw):
    """Gaussian kernel matrix from explicit differences, one row of a at a time."""
    gamma = 1.0 / (2.0 * bw * bw)
    return np.array([np.exp(-gamma * ((row - b) ** 2).sum(-1)) for row in a])


def dense_within(x, bw):
    k = dense_kernel(x, x, bw)
    np.fill_diagonal(k, 0.0)
    return k.sum() / (len(x) * (len(x) - 1))


def dense_mmd2(x, y, bw):
    return dense_within(x, bw) + dense_within(y, bw) - 2.0 * dense_kernel(x, y, bw).mean()


class TestMMD:
    def test_identical_lists_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 2))
        v = mmd2_unbiased(x, x, bandwidth=1.0)
        # within-terms cancel against the cross term up to diagonal exclusion
        assert abs(v) < 0.05
        assert abs(v - mmd2_bruteforce(x, x, 1.0)) < 1e-12

    def test_three_point_line_matches_bruteforce(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[0.0], [1.0], [2.0]])
        ours = mmd2_unbiased(x, y, 1.0)
        oracle = mmd2_bruteforce(x, y, 1.0)
        assert abs(ours - oracle) < 1e-15

    def test_far_separated_masses(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 3)) * 0.01
        y = x + 1000.0
        v = mmd2_unbiased(x, y, bandwidth=1.0)
        # cross term vanishes, estimate reduces to the two within-set means
        kxx = np.exp(-np.sum((x[:, None] - x[None]) ** 2, -1) / 2.0)
        kyy = np.exp(-np.sum((y[:, None] - y[None]) ** 2, -1) / 2.0)
        n = len(x)
        expected = (kxx.sum() - n) / (n * (n - 1)) + (kyy.sum() - n) / (n * (n - 1))
        assert abs(v - expected) < 1e-12

    def test_exact_symmetry(self):
        # one draw per shape can round the same with the canonical order
        # removed, hence several
        rng = np.random.default_rng(2)
        for n, m in [(8, 8), (8, 13), (21, 5)] * 16:
            x = rng.standard_normal((n, 4))
            y = rng.standard_normal((m, 4)) + 0.5
            assert mmd2_unbiased(x, y, 0.7) == mmd2_unbiased(y, x, 0.7)
            assert mmd2_given_x_term(x, y, 0.7) == mmd2_given_x_term(y, x, 0.7)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 65))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((m, d)) + rng.uniform(-1, 1)
            bw = float(rng.uniform(0.3, 3.0))
            assert abs(mmd2_unbiased(x, y, bw) - mmd2_bruteforce(x, y, bw)) < 1e-12

    @pytest.mark.parametrize("n,d", [(1024, 2), (512, 2), (256, 256)])
    def test_exact_symmetry_at_training_shapes(self, n, d):
        # n == m, as in training, so the canonical order falls to the byte
        # tie-break; summing the cross kernel transposed changes the last bit
        # on only some draws, hence several
        for seed in range(16):
            rng = np.random.default_rng([8, n, d, seed])
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d)) * 1.5
            bw = median_heuristic_bandwidth(np.vstack([x, y]))
            assert mmd2_unbiased(x, y, bw) == mmd2_unbiased(y, x, bw)
            assert mmd2_given_x_term(x, y, bw) == mmd2_given_x_term(y, x, bw)

    def test_exact_symmetry_when_sets_differ_in_one_entry(self):
        # the byte tie-break reads up to the last entry
        for seed in range(16):
            x = np.random.default_rng([9, seed]).standard_normal((256, 2))
            y = x.copy()
            y[-1, -1] += 0.25
            assert mmd2_unbiased(x, y, 0.8) == mmd2_unbiased(y, x, 0.8)
            assert mmd2_given_x_term(x, y, 0.8) == mmd2_given_x_term(y, x, 0.8)

    @pytest.mark.parametrize("n,d", [(1024, 2), (512, 2), (256, 256)])
    @pytest.mark.parametrize("m_per_n", [0.5, 1.0, 1.5])
    def test_precomputed_term_is_bit_identical(self, n, d, m_per_n):
        # both argument orders, so in each draw one call keeps x first and
        # the other swaps it second (by size, or by bytes when n == m)
        m = int(n * m_per_n)
        for seed in range(16):
            rng = np.random.default_rng([11, n, d, m, seed])
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((m, d)) * 1.5
            bw = median_heuristic_bandwidth(np.vstack([x, y]))
            for a, b in ((x, y), (y, x)):
                want = np.float64(mmd2_unbiased(a, b, bw)).tobytes()
                assert np.float64(mmd2_given_x_term(a, b, bw)).tobytes() == want

    def test_within_set_mean_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        x, bw = rng.standard_normal((64, 3)), 0.8
        k = np.exp(-((x[:, None] - x[None]) ** 2).sum(-1) / (2.0 * bw * bw))
        np.fill_diagonal(k, 0.0)
        assert abs(within_set_mean(x, bw) - k.sum() / (64 * 63)) < 1e-14
        with pytest.raises(ValueError, match="bandwidth"):
            within_set_mean(x, 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            within_set_mean(x[:1], bw)

    def test_matches_dense_reference_at_eval_size(self):
        # the brute-force oracle is too slow at n = m = 1024
        rng = np.random.default_rng(10)
        n, bw = 1024, 0.9
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) * 0.7 + 0.4
        want = dense_mmd2(x, y, bw)
        assert abs(mmd2_unbiased(x, y, bw) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_dense_reference_at_image_shape(self, offset):
        # blobs16's eval sets: 256 flattened 16x16 images a side. A common
        # offset must not cost accuracy: the kernel products are centred
        for seed in range(3):
            rng = np.random.default_rng([13, seed])
            x = np.tanh(rng.standard_normal((256, 256))) + offset
            y = np.tanh(1.5 * rng.standard_normal((256, 256)) + 0.1) + offset
            bw = median_heuristic_bandwidth(np.vstack([x, y]))
            for a, b in ((x, y), (y, x)):
                want = dense_mmd2(a, b, bw)
                assert abs(mmd2_unbiased(a, b, bw) - want) <= 1e-12 * abs(want)
                want = dense_within(a, bw)
                assert abs(within_set_mean(a, bw) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_one_point_half_matches_bruteforce(self, n, m):
        # at n = 2 and 3 the within-set pairs are one band of two or three points
        rng = np.random.default_rng([14, n, m])
        for offset in (0.0, 1e3):
            x = rng.standard_normal((n, 3)) + offset
            y = rng.standard_normal((m, 3)) * 0.8 + 0.5 + offset
            for a, b in ((x, y), (y, x)):
                want = mmd2_bruteforce(a, b, 1.1)
                assert abs(mmd2_unbiased(a, b, 1.1) - want) <= 1e-12 * abs(want)
                want = dense_within(a, 1.1)
                assert abs(within_set_mean(a, 1.1) - want) <= 1e-12 * want

    def test_byte_order_decision_matches_tobytes(self):
        rng = np.random.default_rng(15)
        pairs = []
        for shape in [(256, 256), (1024, 2), (3, 1)]:
            x = rng.standard_normal(shape)
            pairs.append((x, rng.standard_normal(shape)))
            y = x.copy()
            y[-1, -1] = np.nextafter(y[-1, -1], np.inf)
            pairs.append((x, y))
            z = np.zeros(shape)
            z[-1, -1] = -0.0
            pairs.append((np.zeros(shape), z))
            pairs.append((x, x.copy()))
        # a non-contiguous operand reads in C order, as tobytes does
        w = rng.standard_normal((4, 6))
        pairs.append((w[:, ::2], w[:, 1::2]))
        for x, y in pairs:
            assert _bytes_greater(x, y) == (x.tobytes() > y.tobytes())
            assert _bytes_greater(y, x) == (y.tobytes() > x.tobytes())

    @pytest.mark.parametrize("bw", [0.0, -1.0, float("nan"), float("inf"), 1e-200, 1e-160])
    def test_bad_bandwidth_rejected(self, bw):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match=re.escape(repr(bw))):
            mmd2_unbiased(x, x + 1.0, bw)

    def test_feature_count_mismatch_rejected(self):
        # a one-feature side would otherwise broadcast against the other
        x = np.zeros((4, 3))
        for y in (np.zeros((5, 1)), np.zeros((4, 2))):
            with pytest.raises(ValueError, match="same number of features"):
                mmd2_unbiased(x, y, 1.0)
            with pytest.raises(ValueError, match="same number of features"):
                mmd2_unbiased(y, x, 1.0)

    def test_small_batches_rejected(self):
        with pytest.raises(ValueError):
            mmd2_unbiased(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)
        with pytest.raises(ValueError):
            mmd2_unbiased(np.zeros((5, 2)), np.zeros((1, 2)), 1.0)

    def test_same_distribution_concentrates_near_zero(self):
        # two independent draws from one Gaussian: |mmd2| < 5 / min(n, m)
        n = 128
        for seed in range(20):
            rng = np.random.default_rng([7, seed])
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal((n, 2))
            bw = median_heuristic_bandwidth(np.vstack([x, y]))
            assert abs(mmd2_unbiased(x, y, bw)) < 5.0 / n

    @pytest.mark.parametrize("arg", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, arg, bad):
        sets = {"x": np.zeros((4, 2)), "y": np.ones((5, 2))}
        sets[arg][2, 1] = bad
        with pytest.raises(ValueError, match=f"^{arg} must hold only finite values"):
            mmd2_unbiased(sets["x"], sets["y"], 1.0)
        with pytest.raises(ValueError, match="^x must hold only finite values"):
            within_set_mean(sets[arg], 1.0)

    @pytest.mark.parametrize("arg", ["x", "y"])
    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1-D", "3-D"])
    def test_points_must_be_a_matrix(self, arg, shape):
        # a 1-D array is refused, not read as one feature per sample
        sets = {"x": np.zeros((4, 2)), "y": np.ones((5, 2))}
        sets[arg] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"^{arg} must be a \\(samples, features\\) array"):
            mmd2_unbiased(sets["x"], sets["y"], 1.0)


def _oracle_points(n, d, offset, seed):
    # training-like values: tanh keeps them in (-1, 1) like ring and image data
    rng = np.random.default_rng([16, n, d, seed])
    return np.tanh(rng.standard_normal((n, d))) + offset


ORACLE_OFFSETS = pytest.mark.parametrize("offset", [0.0, 1e3])
LEAF_SIZES = [(2, 3), (3, 2), (PAIR_LEAF, 3), (PAIR_LEAF + 1, 3)]


class TestScipyOracle:
    # scipy's pdist sees every pair as one explicit difference; the blocks
    # see it as a centred product. Over these cases the worst relative error
    # seen was 1.4e-15 for the within-set mean and 2.5e-16 for the bandwidth

    @staticmethod
    def within_by_pdist(x, bw):
        k = np.exp(-pdist(x, "sqeuclidean") / (2.0 * bw * bw))
        return k.sum() / k.size

    @ORACLE_OFFSETS
    @pytest.mark.parametrize("n,d", [(1024, 2), (512, 2), (256, 256)] + LEAF_SIZES)
    def test_within_set_mean_matches_pdist(self, n, d, offset):
        x = _oracle_points(n, d, offset, 0)
        bw = float(np.median(pdist(x)))
        for scale in (0.5, 1.0, 2.0):
            want = self.within_by_pdist(x, scale * bw)
            assert abs(within_set_mean(x, scale * bw) - want) <= 1e-13 * want

    @ORACLE_OFFSETS
    @pytest.mark.parametrize("n,d", [(2048, 2), (1024, 2), (512, 256)] + LEAF_SIZES)
    def test_bandwidth_matches_pdist_median(self, n, d, offset):
        # above 512 points the median is over the points the bandwidth
        # uses: the subsample drawn with its default seed 0
        z = _oracle_points(n, d, offset, 1)
        used = z[np.random.default_rng(0).choice(n, 512, replace=False)] if n > 512 else z
        want = float(np.median(pdist(used)))
        assert abs(median_heuristic_bandwidth(z) - want) <= 1e-13 * want


def kernel_rows(n, m, d, seed):
    """The centred pair rows of two training-like sets, exponents near -1."""
    rng = np.random.default_rng([18, n, m, d, seed])
    x = np.tanh(rng.standard_normal((n, d)))
    y = np.tanh(1.5 * rng.standard_normal((m, d)) + 0.1)
    return _pair_rows([x], 1.0 / d, y)


def assert_exact_sum(a, b):
    """_exp_sum(a, b, buf) is within 1e-15 relative of math.fsum, the correctly rounded sum."""
    want = math.fsum(np.exp(a @ b.T).ravel())
    assert abs(_exp_sum(a, b, np.empty(EXP_SUM_BLOCK)) - want) <= 1e-15 * want


def pairs_by_full_blocks(z):
    """The bandwidth's -|z_i - z_j|^2 in band order, every block built whole:
    each band's upper triangle, then its rows against every later row."""
    a, b = _pair_rows([z], 1.0, z)
    pairs = []
    for lo in range(0, len(z), PAIR_LEAF):
        hi = lo + PAIR_LEAF
        k = a[lo:hi] @ b[lo:hi].T
        pairs += [k[np.triu_indices(len(k), 1)], (a[lo:hi] @ b[hi:].T).ravel()]
    return np.concatenate(pairs)


def bandwidth_by_full_blocks(z):
    """median_heuristic_bandwidth with every block built whole, the floored
    median taken over all the distances at once."""
    pairs = pairs_by_full_blocks(z)
    return max(float(np.median(np.sqrt(-np.minimum(pairs, 0.0)))), 1e-6)


def sums_by_fresh_blocks(a, b):
    """The sum of exp(a @ b.T) over row blocks of EXP_SUM_BLOCK entries, or of one
    row when a row is longer, each a fresh product, the sums added in row order."""
    rows = max(1, EXP_SUM_BLOCK // len(b))
    return sum(float(np.sum(np.exp(a[r:r + rows] @ b.T))) for r in range(0, len(a), rows))


def within_by_fresh_blocks(x, bw):
    """within_set_mean with each band's square block and each row block a fresh product."""
    a, b = _pair_rows([x], 1.0 / (2.0 * bw * bw), x)
    total = 0.0
    for lo in range(0, len(x), PAIR_LEAF):
        hi = lo + PAIR_LEAF
        k = np.exp(a[lo:hi] @ b[lo:hi].T)
        total += (float(np.sum(k)) - float(np.trace(k))) / 2.0
        if hi < len(x):
            total += sums_by_fresh_blocks(a[lo:hi], b[hi:])
    return 2.0 * total / (len(x) * (len(x) - 1))


def mmd2_by_fresh_blocks(x, y, bw):
    """mmd2_unbiased with each band's square block and each row block a fresh product."""
    if len(x) > len(y) or (len(x) == len(y) and _bytes_greater(x, y)):
        x, y = y, x
    cross = sums_by_fresh_blocks(*_pair_rows([x], 1.0 / (2.0 * bw * bw), y)) / (len(x) * len(y))
    return within_by_fresh_blocks(x, bw) + within_by_fresh_blocks(y, bw) - 2.0 * cross


BLOCK_SHAPES = [
    (100, 300), (128, 256), (129, 256), (256, 256), (1024, 1024),  # below, at, above a block
    (181, 181), (183, 181), (999, 1001),  # flat sizes not a multiple of 8
    (1, 300), (300, 1), (512, 512),  # one row or column; sweep-ring2d's eval size
]


class TestExpSum:
    # _exp_sum adds its row blocks' sums in row order; over these cases the
    # worst relative error against math.fsum seen was 2.8e-16

    @pytest.mark.parametrize("d", [1, 2, 256])
    @pytest.mark.parametrize("n,m", BLOCK_SHAPES)
    def test_matches_exact_sum(self, n, m, d):
        for seed in range(2):
            assert_exact_sum(*kernel_rows(n, m, d, seed))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n,m", [(1, 33001), (33001, 1), (2, 40000), (9, 70000)])
    def test_long_rows_above_a_block(self, n, m, d):
        # a row longer than a block is a block of its own
        for seed in range(2):
            assert_exact_sum(*kernel_rows(n, m, d, seed))

    @pytest.mark.parametrize("n,m", [(183, 181), (999, 1001), (7, 33001), (33001, 7)])
    def test_one_column_matches_exact_sum(self, n, m):
        # exponents spread over [-1, 1], so the terms differ by up to e^2
        rng = np.random.default_rng([19, n, m])
        assert_exact_sum(rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(-1.0, 1.0, (m, 1)))

    def test_holds_one_block_at_a_time(self):
        # the whole 2048 x 2048 product would take 32 MB, the buffer of one
        # block 256 KB, a second block alive at once 512 KB
        a, b = kernel_rows(2048, 2048, 2, 0)
        tracemalloc.start()
        try:
            _exp_sum(a, b, np.empty(EXP_SUM_BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * EXP_SUM_BLOCK

    def test_forms_every_block_in_the_buffer(self):
        # with the buffer allocated beforehand, none of the 128 blocks of
        # 256 KB gets an array of its own
        a, b = kernel_rows(2048, 2048, 2, 0)
        buf = np.empty(EXP_SUM_BLOCK)
        tracemalloc.start()
        try:
            _exp_sum(a, b, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n,m,d", [(1024, 1024, 2), (512, 512, 2), (256, 256, 2),
                                       (256, 256, 256)])
    def test_row_blocks_match_the_whole_product(self, n, m, d):
        # the cross kernels of ring2d, sweep-ring2d and blobs16: each of
        # _exp_sum's row blocks is a matrix product whose rows are the whole
        # product's, entry for entry
        a, b = kernel_rows(n, m, d, 0)
        whole = a @ b.T
        rows = max(1, EXP_SUM_BLOCK // m)
        assert rows >= 2
        for r in range(0, n, rows):
            assert np.array_equal(a[r:r + rows] @ b.T, whole[r:r + rows])

    @pytest.mark.parametrize("d", [2, 256])
    @pytest.mark.parametrize("n,m", BLOCK_SHAPES)
    def test_mmd_matches_fresh_blocks_bitwise(self, n, m, d):
        # every block shape, the committed evaluation sizes among them: the
        # blocks formed in one buffer are the row partition of fresh products,
        # so every bit is theirs
        rng = np.random.default_rng([28, n, m, d])
        x = np.tanh(rng.standard_normal((n, d)))
        y = np.tanh(1.5 * rng.standard_normal((m, d)) + 0.1)
        bw = math.sqrt(d)
        a, b = _pair_rows([x], 1.0 / (2.0 * bw * bw), y)
        assert _exp_sum(a, b, np.empty(EXP_SUM_BLOCK)) == sums_by_fresh_blocks(a, b)
        if min(n, m) >= 2:
            assert within_set_mean(x, bw) == within_by_fresh_blocks(x, bw)
            assert mmd2_unbiased(x, y, bw) == mmd2_by_fresh_blocks(x, y, bw)

    @pytest.mark.parametrize("sizes,d", [((1024,), 2), ((512,), 2), ((256,), 256),
                                         ((100, 200, 212), 3)],
                             ids=["ring2d", "ring2d_sweep", "blobs16", "uneven_three_sets"])
    def test_pair_rows_of_one_pool_match_the_cross_rows_bitwise(self, sizes, d):
        # without y, b is derived from a's columns; it must have the bits the
        # cross path builds from y = the pooled sets, centred on the same mean
        rng = np.random.default_rng([29, *sizes, d])
        sets = [np.tanh(k * rng.standard_normal((n, d)) + 0.1 * k) for k, n in enumerate(sizes, 1)]
        for gamma in (1.0, 1.0 / d, 1.0 / (2.0 * 0.37 ** 2)):
            b = _pair_rows(sets, gamma)[1]
            assert b.tobytes() == _pair_rows(sets, gamma, np.vstack(sets))[1].tobytes()

    def test_band_walk_visits_every_pair_once(self):
        # rows [i, 1] and [1, n j] make a[i] @ b[j] = i + n j, exact in float64,
        # so every entry of a product names its pair (i, j)
        for n in range(2, 3 * PAIR_LEAF + 2):
            idx = np.arange(n, dtype=np.float64)
            a = np.column_stack([idx, np.ones(n)])
            b = np.column_stack([np.ones(n), n * idx])
            seen = np.zeros((n, n), int)
            for square, rows, later in _bands(a, b):
                band = rows[:, 0].astype(int)
                # the band's pairs both ways and its diagonal, which
                # (sum - trace) / 2 and the upper triangle count once
                assert np.array_equal(square, band[:, None] + n * band[None, :])
                i, j = np.triu_indices(len(band), 1)
                np.add.at(seen, (band[i], band[j]), 1)
                k = (rows @ later.T).astype(int).ravel()
                np.add.at(seen, (k % n, k // n), 1)
            assert np.array_equal(seen, np.triu(np.ones((n, n), int), 1))

    def test_calls_leave_no_reference_cycles(self):
        # a nested function or generator that refers to itself is a reference
        # cycle, which would hold the pair rows until the cyclic GC runs; the
        # band walk and the row blocks are plain loops, so none is left
        rng = np.random.default_rng(21)
        x = rng.standard_normal((300, 2))
        y = rng.standard_normal((300, 2))
        calls = [lambda: within_set_mean(x, 1.0), lambda: mmd2_unbiased(x, y, 1.0),
                 lambda: median_heuristic_bandwidth(x)]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestBandwidth:
    def test_two_points(self):
        z = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert median_heuristic_bandwidth(z) == 5.0

    def test_three_collinear_equidistant(self):
        z = np.array([[0.0], [1.0], [2.0]])
        assert median_heuristic_bandwidth(z) == 1.0  # median of {1, 1, 2}

    def test_identical_points_floor(self):
        z = np.ones((10, 3))
        assert median_heuristic_bandwidth(z) == 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, PAIR_LEAF, PAIR_LEAF + 1,
                                   PAIR_LEAF + 2, PAIR_LEAF + 3, 130, 131, 132, 133,
                                   362, 363, 364, 365])
    def test_matches_full_blocks_bitwise(self, n):
        # n = 0, 1 mod 4 gives an even pair count, n = 2, 3 an odd one; integer
        # points tie many distances, identical and tiny ones hit the floor.
        # With 4 in 5 points identical most distances are 0, so the median is
        # too and the floor applies. Points on a line have integer squared
        # distances with many ties, so ranks h - 1 and h are often equal
        rng = np.random.default_rng([23, n])
        mostly_identical = np.zeros((n, 2))
        mostly_identical[:n // 5] = rng.standard_normal((n // 5, 2))
        for z in (rng.standard_normal((n, 2)), rng.integers(0, 3, (n, 2)).astype(np.float64),
                  np.ones((n, 3)), 1e-9 * rng.standard_normal((n, 2)), mostly_identical,
                  np.arange(n, dtype=np.float64)[:, None]):
            want = bandwidth_by_full_blocks(z)
            assert np.float64(median_heuristic_bandwidth(z)).tobytes() == \
                np.float64(want).tobytes()
        assert median_heuristic_bandwidth(mostly_identical) == 1e-6

    @pytest.mark.parametrize("n,m,d", [(256, 256, 256), (256, 256, 2), (256, 255, 3),
                                       (200, 100, 3)])
    def test_pooled_sets_match_full_blocks_bitwise(self, n, m, d):
        # pooled sets of two training-like halves: blobs16's 512 x 256, and
        # at most 512 points in 2 and 3 dimensions. Every block is one
        # product, so the selection sees the whole blocks' bits
        for seed in range(2):
            rng = np.random.default_rng([20, n, m, d, seed])
            x = np.tanh(rng.standard_normal((n, d)))
            y = np.tanh(1.5 * rng.standard_normal((m, d)) + 0.1)
            z = np.vstack([x, y])
            assert np.float64(median_heuristic_bandwidth(z)).tobytes() == \
                np.float64(bandwidth_by_full_blocks(z)).tobytes()

    @pytest.mark.parametrize("sizes,d", [((256, 256), 256), ((1024, 1024), 2), ((512, 512), 2),
                                         ((100, 412), 3), ((100, 200, 212), 3)],
                             ids=["blobs16", "ring2d", "ring2d_sweep", "uneven", "three_sets"])
    def test_split_sets_match_the_pooled_set_bitwise(self, sizes, d):
        # training passes the real and generated evaluation sets, which are
        # pooled in place, in order. ring2d's and the sweep's pools hold more
        # than 512 points, so both sides take the same seeded subsample
        rng = np.random.default_rng([25, *sizes, d])
        sets = [np.tanh(k * rng.standard_normal((n, d)) + 0.1 * k) for k, n in enumerate(sizes, 1)]
        z = np.vstack(sets)
        used = z[np.random.default_rng([7, 6]).choice(len(z), 512, replace=False)] \
            if len(z) > 512 else z
        want = np.float64(bandwidth_by_full_blocks(used)).tobytes()
        assert np.float64(median_heuristic_bandwidth(z, seed=[7, 6])).tobytes() == want
        assert np.float64(median_heuristic_bandwidth(*sets, seed=[7, 6])).tobytes() == want

    def test_sets_must_have_the_same_number_of_features(self):
        with pytest.raises(ValueError, match="^the sets must have the same number of features, "
                                             "got 2 and 3$"):
            median_heuristic_bandwidth(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_even_count_takes_the_largest_value_below_the_middle(self):
        # every n in 100..512 with an even pair count, at two seeds (414 draws).
        # Whether numpy's selection leaves a value other than the largest below
        # the middle at position h - 1 depends on the draw and the numpy
        # version (four of these draws do at numpy 2.4.6); the last assertion
        # checks that at least one does, so reading position h - 1 fails here
        reached = []
        for seed in (1, 2):
            for n in range(100, 513):
                if n * (n - 1) // 2 % 2:
                    continue
                z = np.random.default_rng([23, n, seed]).standard_normal((n, 2))
                assert median_heuristic_bandwidth(z) == bandwidth_by_full_blocks(z), (n, seed)
                pairs = pairs_by_full_blocks(z)
                h = len(pairs) // 2
                pairs.partition(h)
                if pairs[h - 1] < pairs[:h].max():
                    reached.append((n, seed))
        assert reached

    def test_overflowing_distances_match_full_blocks(self):
        # -|z_i - z_j|^2 overflows to -inf, a distance of inf; where two large
        # terms cancel as inf - inf a distance is nan, and so is the result
        z = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert median_heuristic_bandwidth(z) == bandwidth_by_full_blocks(z) == math.inf
            z = np.array([[1e200], [2e200], [-3e200]])
            assert math.isnan(bandwidth_by_full_blocks(z))
            assert math.isnan(median_heuristic_bandwidth(z))

    @pytest.mark.parametrize("n", [512, 2048])
    def test_peak_memory_stays_below_1_5_mb(self, n):
        # at most 512 points are used, so the buffer of all their n(n-1)/2
        # float64 distances takes at most 1.05 MB; the pair rows, a band's
        # square block and its upper triangle add about 0.1 MB. All 2048
        # points' distances would take 16.8 MB
        z = np.random.default_rng(24).standard_normal((n, 2))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3000, 2))
        # more than 512 points, so a seeded subsample is used
        a = median_heuristic_bandwidth(z, seed=1)
        b = median_heuristic_bandwidth(z, seed=1)
        c = median_heuristic_bandwidth(z, seed=2)
        assert a == b
        assert a != c  # different subsample, almost surely different median

    def test_seed_is_keyword_only(self):
        # a positional argument is a set, so an old positional subsample limit
        # is refused as points and never becomes a seed
        with pytest.raises(ValueError, match=r"must be a \(samples, features\) array"):
            median_heuristic_bandwidth(np.zeros((4, 2)), 512)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            median_heuristic_bandwidth(np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        z = np.zeros((6, 2))
        z[4, 0] = bad
        with pytest.raises(ValueError, match="^z must hold only finite values"):
            median_heuristic_bandwidth(z)

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)], ids=["1-D", "3-D"])
    def test_points_must_be_a_matrix(self, shape):
        with pytest.raises(ValueError, match=r"^z must be a \(samples, features\) array"):
            median_heuristic_bandwidth(np.zeros(shape))


class TestMetricsRecord:
    def _rec(self, **kw):
        base = dict(step=3, epoch=0, d_loss=1.25, g_loss=0.5, dist=0.1,
                    dm=0.01, r=0.0025, m=0.9997, mmd2=-1e-9, wall_ms=0.7)
        base.update(kw)
        return MetricsRecord(**base)

    def test_header_matches_fields(self):
        assert CSV_HEADER.split(",") == [
            "step", "epoch", "d_loss", "g_loss", "dist", "dm", "r", "m", "mmd2", "wall_ms",
        ]

    def test_row_round_trips_floats_exactly(self):
        rec = self._rec(m=0.9 ** 0.123456789, dm=1.0 / 3.0)
        parts = rec.to_csv_row().split(",")
        assert int(parts[0]) == 3
        assert float(parts[5]) == rec.dm
        assert float(parts[7]) == rec.m

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            self._rec(d_loss=float("nan")).to_csv_row()

    def test_row_bytes_match_per_field_formatting(self):
        # the row is one %-format; it must give the bytes of formatting each
        # field on its own with str() and format(v, ".17g")
        def reference(rec):
            floats = (rec.d_loss, rec.g_loss, rec.dist, rec.dm,
                      rec.r, rec.m, rec.mmd2, rec.wall_ms)
            return f"{rec.step},{rec.epoch}," + ",".join(f"{v:.17g}" for v in floats)

        tiny = np.finfo(np.float64).tiny
        big = np.finfo(np.float64).max
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 7, tiny, big, -big, 1.0, -1.0]
        rng = np.random.default_rng(11)
        n = 100_000
        mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
        values = edges + (mantissa * 10.0 ** rng.integers(-300, 301, n)).tolist()
        values += [values[-1]] * (-len(values) % 8)
        steps = [0, 1, 7, 123456789, 2 ** 40]
        for i in range(0, len(values), 8):
            rec = MetricsRecord(steps[i % 5], steps[(i // 8) % 5], *values[i:i + 8])
            assert rec.to_csv_row() == reference(rec)
