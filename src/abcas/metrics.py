"""Sample-quality measurement: unbiased squared MMD with a Gaussian kernel.

This is the desk-scale stand-in for classifier-based distribution
distances; it works directly in data space, needs no external model, and
has an exact brute-force oracle. The real evaluation set is frozen for a
run, so its within-set kernel mean (:func:`within_set_mean`) is computed
once per run, next to the frozen bandwidth, and each evaluation builds only
the generated set's and the cross kernel. Also defines the per-step metrics
record that training logs to CSV.

Every pairwise quantity comes from BLAS matrix products: with both sets
centred on the first set's mean, rows ``[x, |x|^2, 1]`` times rows
``[2 gamma y, -gamma, -gamma |y|^2]`` give ``-gamma |x - y|^2`` for every
pair, and ``exp`` is taken in place. One builder, :func:`_pair_rows`, makes
both; for the pairs of one set it derives the second rows from the first,
so the set is centred and squared once. Centring keeps a common offset (all
points near +1e3, say) from burying the exponent in the rounding error of
the large norms. The pairs of one set (the within-set means and the
median-heuristic bandwidth) are walked in bands of at most ``PAIR_LEAF``
rows: a band's square block holds each of its pairs twice and its diagonal,
and its rows against every later row hold the rest of its pairs.

A kernel sum over two sets (the cross kernel, and a band against the later
rows) never builds the whole product: :func:`_exp_sum` adds the sums of row
blocks of at most ``EXP_SUM_BLOCK`` entries, formed in one buffer that
stays in cache, in row order. The result is deterministic for a given
numpy, BLAS and thread count, and within 1e-15 relative of the exact sum at
the shapes of ``TestExpSum`` in ``tests/test_metrics.py``. The bandwidth
alone holds all of a set's n(n-1)/2 pairs, in one buffer of at most 1 MB:
it takes them from at most ``MEDIAN_EXACT_LIMIT`` points, exactly up to 512
and from a seeded 512-point subsample above that (see
:func:`median_heuristic_bandwidth`). Its pooled set is the given sets in
order (training passes the real and generated evaluation sets), written
straight into its pair rows, so no pooled copy is made; a test checks the
split call against the pooled one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CSV_HEADER",
    "MetricsRecord",
    "median_heuristic_bandwidth",
    "mmd2_unbiased",
    "within_set_mean",
]

BANDWIDTH_FLOOR = 1e-6
MEDIAN_EXACT_LIMIT = 512
PAIR_LEAF = 64
EXP_SUM_BLOCK = 1 << 15


def _as_points(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a (samples, features) array")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must hold only finite values")
    return x


def _gamma(bandwidth) -> float:
    bw = float(bandwidth)
    gamma = 1.0 / (2.0 * bw * bw) if bw * bw > 0.0 else math.inf
    if not (0.0 < bw < math.inf and math.isfinite(gamma)):
        raise ValueError("bandwidth must be positive and finite, with a finite "
                         f"1 / (2 bw^2); got {bandwidth!r}")
    return gamma


def _pair_rows(sets, gamma: float, y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # rows [x, |x|^2, 1] of x, the sets in order, written into a and centred
    # there (a's strided view has a contiguous copy's column mean), and rows
    # [2 gamma y, -gamma, -gamma |y|^2] on x's mean, so a[i] @ b[j] is
    # -gamma |x_i - y_j|^2; without y, y is x and b is exact in a's columns
    d = sets[0].shape[1]
    a = np.empty((sum(len(z) for z in sets), d + 2))
    xc = np.concatenate(sets, out=a[:, :d])
    mu = xc.mean(axis=0)
    xc -= mu
    a[:, d] = np.einsum("ij,ij->i", xc, xc)
    a[:, d + 1] = 1.0
    b = np.empty((len(a if y is None else y), d + 2))
    yc = xc if y is None else np.subtract(y, mu, out=b[:, :d])
    sq = a[:, d] if y is None else np.einsum("ij,ij->i", yc, yc)
    np.multiply(yc, 2.0 * gamma, out=b[:, :d])
    b[:, d] = -gamma
    b[:, d + 1] = -gamma * sq
    return a, b


def _exp_sum(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    # the sum of exp(a @ b.T), its row blocks' sums added in row order; a
    # block has len(buf) // len(b) rows and is formed in buf, except a row
    # longer than buf, which gets its own array
    m = len(b)
    rows = max(1, len(buf) // m)
    total = 0.0
    for r in range(0, len(a), rows):
        block = a[r:r + rows]
        out = buf[:len(block) * m].reshape(len(block), m) if len(block) * m <= len(buf) else None
        k = np.matmul(block, b.T, out=out)
        total += float(np.sum(np.exp(k, out=k)))
    return total


def _bands(a: np.ndarray, b: np.ndarray):
    # every pair i < j of one set's _pair_rows once, in bands of at most
    # PAIR_LEAF rows: each band's square block, which holds each of its
    # pairs twice and its diagonal, then its rows and the later rows they
    # pair with
    for lo in range(0, len(a), PAIR_LEAF):
        hi = lo + PAIR_LEAF
        yield a[lo:hi] @ b[lo:hi].T, a[lo:hi], b[hi:]


def _distance(neg_sq: float) -> float:
    # a distance from its -|z_i - z_j|^2, which rounding can leave positive
    return math.sqrt(-min(neg_sq, 0.0))


def _bytes_greater(x: np.ndarray, y: np.ndarray) -> bool:
    # x.tobytes() > y.tobytes() for arrays of one shape, without copying
    # either: the byte strings first differ inside the first differing
    # 8-byte word, so only that word's bytes are compared
    a = x.ravel().view(np.uint64)
    b = y.ravel().view(np.uint64)
    differ = a != b
    if not differ.any():
        return False
    i = int(np.argmax(differ))
    return a[i:i + 1].tobytes() > b[i:i + 1].tobytes()


def within_set_mean(x, bandwidth: float) -> float:
    """Mean Gaussian kernel over the distinct pairs of one sample set.

    This is the within-set term that :func:`mmd2_unbiased` computes for
    each side, bit for bit. Training computes it once per run for the
    frozen real evaluation set and passes it as ``x_within``. The kernel
    values come from the bands of centred matrix products (see the module
    docstring): a band's square block counts ``(sum - trace) / 2``, so each
    of the n(n-1)/2 distinct pairs is counted once, and the band's rows
    against the later rows are summed by :func:`_exp_sum`.
    """
    gamma = _gamma(bandwidth)
    x = _as_points(x, "x")
    if len(x) < 2:
        raise ValueError(f"need at least 2 samples, got {len(x)}")
    return _within(x, gamma, np.empty(EXP_SUM_BLOCK))


def _within(x: np.ndarray, gamma: float, buf: np.ndarray) -> float:
    # within_set_mean of checked points, its row blocks formed in buf
    n = len(x)
    total = 0.0
    for square, rows, later in _bands(*_pair_rows([x], gamma)):
        np.exp(square, out=square)
        total += (float(np.sum(square)) - float(np.trace(square))) / 2.0
        if len(later):
            total += _exp_sum(rows, later, buf)
    # the distinct pairs once, doubled: the mean over i != j
    return 2.0 * total / (n * (n - 1))


def mmd2_unbiased(x, y, bandwidth: float, *, x_within: float | None = None) -> float:
    """Unbiased U-statistic estimator of squared MMD.

    k(a, b) = exp(-|a - b|^2 / (2 bw^2)); the diagonal terms are excluded
    from the within-set means, so the estimate may be slightly negative.
    Each within-set mean sums the n(n-1)/2 distinct pairs once (see
    :func:`within_set_mean`). The cross kernel is summed by :func:`_exp_sum`
    over both sets centred on one set's mean, the first in a canonical
    order (fewer samples first, ties broken by their bytes, compared from
    the first 8-byte word that differs). The within-set sum does not depend
    on the order, so ``mmd2_unbiased(x, y)`` and ``mmd2_unbiased(y, x)`` are
    exactly equal.

    ``x_within``, if given, must be ``within_set_mean(x, bandwidth)``; it is
    used in place of recomputing that term, so the result is the same
    float. Training passes the real evaluation set's term, computed once
    per run.
    """
    gamma = _gamma(bandwidth)
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    n, m = len(x), len(y)
    if n < 2 or m < 2:
        raise ValueError(f"need at least 2 samples per side, got {n} and {m}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"x and y must have the same number of features, got "
                         f"{x.shape[1]} and {y.shape[1]}")
    buf = np.empty(EXP_SUM_BLOCK)
    within = (_within(x, gamma, buf) if x_within is None else x_within) + _within(y, gamma, buf)
    if n > m or (n == m and _bytes_greater(x, y)):
        x, y, n, m = y, x, m, n
    cross = _exp_sum(*_pair_rows([x], gamma, y), buf) / (n * m)
    return within - 2.0 * cross


def median_heuristic_bandwidth(*sets, seed=0) -> float:
    """Median pairwise Euclidean distance of the pooled sample set.

    The pooled set ``z`` is the given sets in order, as ``np.vstack(sets)``
    would stack them, but no pooled copy is made: each set is written
    straight into the pair rows and centred there, and a test checks the
    split call against the pooled one bit for bit. Exact up to
    ``MEDIAN_EXACT_LIMIT`` (512) samples; a larger pool is replaced by the
    subsample ``np.vstack(sets)[np.random.default_rng(seed).choice(n,
    MEDIAN_EXACT_LIMIT, replace=False)]``. All-identical samples hit the
    1e-6 floor. The squared distances come from the same bands as
    :func:`within_set_mean` (with gamma = 1): each band's upper triangle and
    its rows against the later rows are written into one n(n-1)/2 buffer of
    ``-|z_i - z_j|^2``. x -> sqrt(-min(x, 0)) is non-increasing, so the
    middle distances are those of the middle values: one in-place selection
    finds rank h = n(n-1)/4, rounded down, and for an even count rank h - 1
    is the largest value below it. Only those are clipped at 0 and
    square-rooted, which gives exactly the median of the bands' distances.
    Any nan distance makes the result nan.
    """
    sets = [_as_points(z, "z") for z in sets]
    n = sum(len(z) for z in sets)
    if n < 2:
        raise ValueError("need at least 2 pooled samples")
    d = sets[0].shape[1]
    if any(z.shape[1] != d for z in sets):
        raise ValueError("the sets must have the same number of features, got "
                         + " and ".join(str(z.shape[1]) for z in sets))
    if n > MEDIAN_EXACT_LIMIT:
        idx = np.random.default_rng(seed).choice(n, size=MEDIAN_EXACT_LIMIT, replace=False)
        sets, n = [np.vstack(sets)[idx]], MEDIAN_EXACT_LIMIT
    # the rows before the distances, so that numpy's buffers for the rows'
    # strided element-wise ops do not add to the distances' megabyte
    a, b = _pair_rows(sets, 1.0)
    dist = np.empty(n * (n - 1) // 2)
    upper = np.triu(np.ones((PAIR_LEAF, PAIR_LEAF), bool), 1)
    pos = 0
    for square, rows, later in _bands(a, b):
        k = square[upper[:len(square), :len(square)]]
        dist[pos:pos + len(k)] = k
        pos += len(k)
        size = len(rows) * len(later)
        np.matmul(rows, later.T, out=dist[pos:pos + size].reshape(len(rows), len(later)))
        pos += size
    # max propagates nan
    if math.isnan(dist.max()):
        return math.nan
    h = dist.size // 2
    dist.partition(h)
    med = _distance(dist[h])
    if dist.size % 2 == 0:
        med = (med + _distance(dist[:h].max())) / 2.0
    return max(med, BANDWIDTH_FLOOR)


CSV_HEADER = "step,epoch,d_loss,g_loss,dist,dm,r,m,mmd2,wall_ms"
# %.17g round-trips float64 exactly, so logs can be replayed bitwise
_CSV_ROW = "%d,%d," + ",".join(["%.17g"] * 8)


@dataclass
class MetricsRecord:
    """One training-step row of the metrics CSV."""

    step: int
    epoch: int
    d_loss: float
    g_loss: float
    dist: float
    dm: float
    r: float
    m: float
    mmd2: float
    wall_ms: float

    def to_csv_row(self) -> str:
        floats = (self.d_loss, self.g_loss, self.dist, self.dm,
                  self.r, self.m, self.mmd2, self.wall_ms)
        if not all(math.isfinite(v) for v in floats):
            raise ValueError(f"non-finite metrics at step {self.step}")
        return _CSV_ROW % (self.step, self.epoch, *floats)
