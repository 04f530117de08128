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
pair, and ``exp`` is taken in place. Centring keeps a common offset (all
points near +1e3, say) from burying the exponent in the rounding error of
the large norms. The pairs of one set (the within-set means and the
median-heuristic bandwidth) come from splitting the set into halves
recursively: the pairs across two halves are one product, and a leaf of at
most ``PAIR_LEAF`` points is one square product that holds each of its
pairs twice and its diagonal.

Every product is formed by :func:`_products`, in row blocks written into
one buffer. A kernel sum over two sets (the cross kernel, and a set's pairs
across two halves) never builds the whole product: :func:`_exp_sum` adds
the sums of blocks of at most ``EXP_SUM_BLOCK`` entries, which stay in
cache, in row order. The result is deterministic for a given numpy, BLAS
and thread count, and within 1e-15 relative of the exact sum at the shapes
of ``TestExpSum`` in ``tests/test_metrics.py``. Nor does the bandwidth hold
all of a set's pairs: each pass computes them again (see
:func:`median_heuristic_bandwidth`).
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
MEDIAN_EXACT_LIMIT = 2048
PAIR_LEAF = 64
EXP_SUM_BLOCK = 1 << 15
# the bandwidth's pass buffer, in float64 values (512 KB), and the most
# values it keeps for its selection; it holds a leaf's square block and 64
# rows of the widest cross block (MEDIAN_EXACT_LIMIT / 2 columns)
MEDIAN_CHUNK = 1 << 16
_LOW63 = (1 << 63) - 1


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


def _pair_rows(x: np.ndarray, y: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    # rows [x, |x|^2, 1] and [2 gamma y, -gamma, -gamma |y|^2], both sets
    # centred on x's mean: a[i] @ b[j] is -gamma |x_i - y_j|^2
    mu = x.mean(axis=0)
    d = x.shape[1]
    a = np.empty((len(x), d + 2))
    xc = np.subtract(x, mu, out=a[:, :d])
    a[:, d] = np.einsum("ij,ij->i", xc, xc)
    a[:, d + 1] = 1.0
    b = np.empty((len(y), d + 2))
    yc = np.subtract(y, mu, out=b[:, :d])
    b[:, d] = -gamma
    b[:, d + 1] = -gamma * np.einsum("ij,ij->i", yc, yc)
    yc *= 2.0 * gamma
    return a, b


def _products(a: np.ndarray, b: np.ndarray, buf: np.ndarray):
    # a @ b.T in row order, in row blocks of at most len(buf) entries, each
    # written into buf; a block too big for buf gets its own array. A block
    # has at least two rows, and a lone last row joins the block before, so
    # each is a matrix product (one row rounds as a matrix-vector product).
    # Other splits can round a few values otherwise too; none do at the
    # committed configs' shapes, which tests/test_metrics.py checks
    n, m = len(a), len(b)
    rows = max(2, len(buf) // m)
    r = 0
    while r < n:
        k = n - r if n - r <= rows + 1 else rows
        out = buf[:k * m].reshape(k, m) if k * m <= len(buf) else None
        yield np.matmul(a[r:r + k], b.T, out=out)
        r += k


def _exp_sum(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    # the sum of exp(a @ b.T), its row blocks' sums added in row order
    total = 0.0
    for k in _products(a, b, buf):
        total += float(np.sum(np.exp(k, out=k)))
    return total


def _pair_blocks(lo: int, hi: int):
    # every distinct pair of points lo..hi-1 exactly once, as row slices
    # (rows, cols, leaf) of the _pair_rows of one set: the pairs across two
    # halves, and a leaf's square block, which holds each of its pairs twice
    # and its diagonal. Module level: a generator that calls itself from a
    # nested scope is a reference cycle, which keeps the pair rows alive
    # until the cyclic GC runs
    if hi - lo <= PAIR_LEAF:
        yield slice(lo, hi), slice(lo, hi), True
        return
    mid = (lo + hi) // 2
    yield slice(lo, mid), slice(mid, hi), False
    yield from _pair_blocks(lo, mid)
    yield from _pair_blocks(mid, hi)


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
    values come from the recursive blocks of centred matrix products (see
    the module docstring); a leaf's square block counts ``(sum - trace) / 2``,
    so each of the n(n-1)/2 distinct pairs is counted once, and the pairs
    across two halves are summed by :func:`_exp_sum`.
    """
    gamma = _gamma(bandwidth)
    x = _as_points(x, "x")
    if len(x) < 2:
        raise ValueError(f"need at least 2 samples, got {len(x)}")
    return _within(x, gamma, np.empty(EXP_SUM_BLOCK))


def _within(x: np.ndarray, gamma: float, buf: np.ndarray) -> float:
    # within_set_mean of checked points, its products formed in buf
    n = len(x)
    a, b = _pair_rows(x, x, gamma)
    total = 0.0
    for rows, cols, leaf in _pair_blocks(0, n):
        if leaf:
            # a leaf of at most PAIR_LEAF points is one block
            (k,) = _products(a[rows], b[rows], buf)
            np.exp(k, out=k)
            total += (float(np.sum(k)) - float(np.trace(k))) / 2.0
        else:
            total += _exp_sum(a[rows], b[cols], buf)
    # the distinct pairs once, doubled: the mean over i != j
    return 2.0 * total / (n * (n - 1))


def mmd2_unbiased(x, y, bandwidth: float, *, x_within: float | None = None) -> float:
    """Unbiased U-statistic estimator of squared MMD.

    k(a, b) = exp(-|a - b|^2 / (2 bw^2)); the diagonal terms are excluded
    from the within-set means, so the estimate may be slightly negative.
    Each within-set mean sums the n(n-1)/2 distinct pairs once (see
    :func:`within_set_mean`). The cross kernel is summed by :func:`_exp_sum`
    over both sets centred on the first set's mean. The two arguments are
    put in a canonical order first (fewer samples first, ties broken by
    their bytes, compared from the first 8-byte word that differs), so
    ``mmd2_unbiased(x, y)`` and ``mmd2_unbiased(y, x)`` run the same
    arithmetic and are exactly equal.

    ``x_within``, if given, must be ``within_set_mean(x, bandwidth)``; it is
    used in place of recomputing that term and follows ``x`` through the
    canonical order, so the result is the same float. Training passes the
    real evaluation set's term, computed once per run.
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
    within_x = _within(x, gamma, buf) if x_within is None else x_within
    if n > m or (n == m and _bytes_greater(x, y)):
        x, y, n, m = y, x, m, n
        within_x, within_y = _within(x, gamma, buf), within_x
    else:
        within_y = _within(y, gamma, buf)
    cross = _exp_sum(*_pair_rows(x, y, gamma), buf) / (n * m)
    return within_x + within_y - 2.0 * cross


def _pair_values(a: np.ndarray, b: np.ndarray, buf: np.ndarray):
    # -|z_i - z_j|^2 for every distinct pair of the points whose _pair_rows
    # are a, b (gamma = 1), in _pair_blocks order: a leaf's upper triangle,
    # or a cross block's row blocks, each formed in buf, which holds a leaf
    upper = np.triu(np.ones((PAIR_LEAF, PAIR_LEAF), bool), 1)
    for rows, cols, leaf in _pair_blocks(0, len(a)):
        if leaf:
            (k,) = _products(a[rows], b[rows], buf)
            yield k[upper[:len(k), :len(k)]]
        else:
            yield from (k.ravel() for k in _products(a[rows], b[cols], buf))


def _key(bits):
    # the int64 bits of a float64 -> a key in the order of the floats, -0
    # just below +0; its own inverse. An int or an int64 array
    return bits ^ ((bits >> 63) & _LOW63)


def _bin_chunks(a: np.ndarray, b: np.ndarray, buf: np.ndarray, lo: int, shift: int):
    # each chunk of _pair_values, with its values whose keys lie in
    # [lo, lo + 2^shift) for lo a multiple of 2^shift <= 2^48. Those keys
    # share their sign, and within one sign the int64 bits of the floats are
    # their keys, or the keys reversed for a negative sign, so the values are
    # one closed range of bits. Values of the other sign have bits of the
    # other sign and fall outside it
    first, last = sorted([_key(lo), _key(lo + (1 << shift) - 1)])
    for v in _pair_values(a, b, buf):
        x = v.view(np.int64)
        yield v, np.compress((x >= first) & (x <= last), v)


def median_heuristic_bandwidth(z, *, seed=0) -> float:
    """Median pairwise Euclidean distance of the pooled sample set.

    Exact up to ``MEDIAN_EXACT_LIMIT`` samples; larger sets are subsampled
    with the provided seed. All-identical samples hit the 1e-6 floor. The
    squared distances come from the same pair blocks as
    :func:`within_set_mean` (with gamma = 1) as values ``-|z_i - z_j|^2``,
    and x -> sqrt(-min(x, 0)) is non-increasing, so the middle distances
    are those of the middle values: rank h = n(n-1)/4, rounded down, and
    for an even count also rank h - 1. Only those are clipped at 0 and
    square-rooted, which gives exactly the median of the distances the
    passes compute. At the committed configs' pooled sizes those are the
    whole pair blocks' values, which ``tests/test_metrics.py`` checks;
    elsewhere a few can round otherwise (see :func:`_products`).

    The n(n-1)/2 values are never held at once: each pass recomputes them
    into one buffer of at most ``MEDIAN_CHUNK`` values, a leaf's upper
    triangle or a cross block's row block at a time (:func:`_pair_values`).
    Pass 1 counts them by the top 16 bits of their order-preserving 64-bit
    key (:func:`_key`), which finds the bin that holds rank h. Pass 2 keeps
    that bin's values, and one selection there gives rank h and the largest
    value below it. When rank h - 1 lies in a lower bin, pass 2 takes the
    largest value below the bin instead. A bin of more than ``MEDIAN_CHUNK``
    values is first split by the next 16 bits of the key, in one more
    counting pass each time, at most three times. Any nan distance makes
    the result nan.
    """
    z = _as_points(z, "z")
    if len(z) < 2:
        raise ValueError("need at least 2 pooled samples")
    if len(z) > MEDIAN_EXACT_LIMIT:
        idx = np.random.default_rng(seed).choice(len(z), size=MEDIAN_EXACT_LIMIT, replace=False)
        z = z[idx]
    n = len(z)
    size = n * (n - 1) // 2
    h = size // 2
    a, b = _pair_rows(z, z, 1.0)
    buf = np.empty(min(n * n, MEDIAN_CHUNK))
    counts = np.zeros(1 << 16, np.int64)
    for v in _pair_values(a, b, buf):
        bits = v.view(np.uint64)
        # the top 16 bits, in place: this pass reads no value again
        np.add.at(counts, np.right_shift(bits, 48, out=bits).view(np.int64), 1)
    raw = np.flatnonzero(counts)
    # a nan that arithmetic makes is quiet: its top 16 bits are above an
    # infinity's, 0x7ff0 or 0xfff0
    if ((raw & 0x7FFF) > 0x7FF0).any():
        return math.nan
    # the bins as the top 16 bits of the keys, in order
    bins = raw ^ np.where(raw & 0x8000, 0xFFFF, 0x8000)
    order = np.argsort(bins)
    bins, counts = bins[order], counts[raw[order]]
    # rank h is among the `count` values whose keys lie in [lo, lo + 2^shift),
    # and `below` values have smaller keys
    lo, shift, below = -1 << 63, 64, 0
    while True:
        cum = np.cumsum(counts)
        j = int(np.searchsorted(cum, h - below, side="right"))
        below += int(cum[j - 1]) if j else 0
        count = int(counts[j])
        shift -= 16
        lo += int(bins[j]) << shift
        if count <= MEDIAN_CHUNK or shift == 0:
            break
        # split rank h's bin by the next 16 bits of the key
        counts = np.zeros(1 << 16, np.int64)
        for _, sel in _bin_chunks(a, b, buf, lo, shift):
            np.add.at(counts, (_key(sel.view(np.int64)) - lo) >> (shift - 16), 1)
        bins = np.flatnonzero(counts)
        counts = counts[bins]
    r = h - below
    # for an even count with rank h first in its bin, rank h - 1 is the
    # largest value with a key below lo
    lower = size % 2 == 0 and r == 0
    kept = np.empty(count if shift else 0)
    pos, largest_below = 0, -math.inf
    for v, sel in _bin_chunks(a, b, buf, lo, shift) if shift or lower else ():
        if shift:
            kept[pos:pos + len(sel)] = sel
            pos += len(sel)
        if lower:
            largest_below = max(largest_below, float(np.max(
                v, where=_key(v.view(np.int64)) < lo, initial=-math.inf)))
    if shift:
        kept.partition(r)
        mid = float(kept[r])
    else:
        # the bin is the one key lo
        mid = float(np.int64(_key(lo)).view(np.float64))
    med = _distance(mid)
    if size % 2 == 0:
        # rank h - 1, below the bin or in it
        mid = largest_below if lower else float(kept[:r].max()) if shift else mid
        med = (med + _distance(mid)) / 2.0
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
