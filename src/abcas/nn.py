"""Minimal differentiable layer set with hand-derived backward passes.

Layer kinds: dense, conv2d, convtranspose2d, lrelu, relu, tanh,
layernorm, pixelnorm. Forward runs each layer in its own function, which
frees every array it makes but does not return before the next layer runs,
and records an activation tape: the input of dense and convtranspose2d,
conv2d's im2col columns, the output of lrelu and tanh, relu's mask,
layernorm's normalized values and per-sample 1/std, pixelnorm's input and
per-pixel scale. Backward consumes the tape once and accumulates gradients
into the :class:`ParamStore`. Everything works on whatever float dtype the
parameters carry (training uses float32, gradient checks float64).

The conv map and its adjoint are written once, as ``_conv`` (im2col and
one ``matmul``) and ``_conv_adjoint`` (``matmul`` with the transposed
kernel matrix, then col2im). conv2d runs ``_conv`` forward and
``_conv_adjoint`` backward; transposed convolution is the exact adjoint
of the conv2d with the same kernel and runs them the other way round, so
the stored kernel layout is ``(c_in, c_out, kh, kw)`` for convtranspose2d
and ``(c_out, c_in, kh, kw)`` for conv2d: axis 0 always counts the
channels of the small side. One backward branch serves both kinds. The
kernel gradient is one GEMM (``tensordot`` over batch and positions) of
the small side (conv2d's output gradient, or the input a convtranspose2d
taped) with the big side's im2col columns (conv2d's tape, or the im2col
of a convtranspose2d's output gradient, which its input gradient reuses).
Both data movements are gathers over index tables built once per
per-sample shape ``(c, h, w, k, s, p)`` and cached, so the training and
eval batches share them. im2col is one ``np.take`` from the flattened
input with one zero appended, which every padded position reads, so the
padding costs no separate copy. col2im reads columns that the producing
``matmul`` wrote into a buffer whose last entry is zero, and sums them as
T ordered gathers (T = 4 for k4 s2 p1): gather t brings each pixel its
t-th kernel tap in ``(i, j)`` order, or the zero if it has fewer, and
adds it to an accumulator that starts at zero, the same float result as
one strided add per tap. Where one unpadded window covers the whole image
(the 1x1 side of a k4 s1 p0 layer) each pixel has one tap, and col2im is
a reshape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Layer",
    "NetworkSpec",
    "ParamStore",
    "ShapeError",
    "Tape",
    "backward",
    "conv2d",
    "conv_discriminator",
    "conv_generator",
    "convtranspose2d",
    "dense",
    "forward",
    "layernorm",
    "lrelu",
    "mlp_discriminator",
    "mlp_generator",
    "pixelnorm",
    "relu",
    "shape_plan",
    "tanh",
]

LAYERNORM_EPS = 1e-5
PIXELNORM_EPS = 1e-8
WEIGHT_INIT_STD = 0.02


class ShapeError(ValueError):
    pass


@dataclass
class Layer:
    """One layer description. Only the fields relevant to ``kind`` are used."""

    kind: str
    in_ch: int = 0
    out_ch: int = 0
    kernel: int = 4
    stride: int = 1
    padding: int = 0
    slope: float = 0.2
    normalized: bool = False


def dense(in_features: int, out_features: int, normalized: bool = False) -> Layer:
    return Layer("dense", in_ch=in_features, out_ch=out_features, normalized=normalized)


def conv2d(in_ch: int, out_ch: int, kernel: int = 4, stride: int = 2,
           padding: int = 1, normalized: bool = False) -> Layer:
    return Layer("conv2d", in_ch=in_ch, out_ch=out_ch, kernel=kernel,
                 stride=stride, padding=padding, normalized=normalized)


def convtranspose2d(in_ch: int, out_ch: int, kernel: int = 4, stride: int = 2,
                    padding: int = 1) -> Layer:
    return Layer("convtranspose2d", in_ch=in_ch, out_ch=out_ch, kernel=kernel,
                 stride=stride, padding=padding)


def lrelu(slope: float = 0.2) -> Layer:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"lrelu slope must be in (0, 1), got {slope}")
    return Layer("lrelu", slope=slope)


def relu() -> Layer:
    return Layer("relu")


def tanh() -> Layer:
    return Layer("tanh")


def layernorm() -> Layer:
    return Layer("layernorm")


def pixelnorm() -> Layer:
    return Layer("pixelnorm")


@dataclass
class NetworkSpec:
    """Declarative network: per-sample input shape plus an ordered layer list."""

    input_shape: tuple[int, ...]
    layers: list[Layer]


def _conv_out_shape(layer: Layer, cur: tuple[int, ...], where: str) -> tuple[int, ...]:
    # per-sample output shape of a conv2d or convtranspose2d layer on input cur
    if len(cur) != 3 or cur[0] != layer.in_ch:
        raise ShapeError(f"{where}: expected input shape ({layer.in_ch}, H, W), got {cur}")
    k, s, p = layer.kernel, layer.stride, layer.padding
    out = []
    for n in cur[1:]:
        if layer.kind == "convtranspose2d":
            t = (n - 1) * s - 2 * p + k
            if t < 1:
                raise ShapeError(f"{where}: output extent {t} is not positive")
        else:
            t, rem = divmod(n + 2 * p - k, s)
            if t < 0 or rem:
                raise ShapeError(f"{where}: extent {n} with kernel={k} stride={s} padding={p} "
                                 "does not produce an integer output extent")
            t += 1
        out.append(t)
    return (layer.out_ch,) + tuple(out)


def shape_plan(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """Per-sample output shape after each layer; raises naming the bad layer."""
    shapes = []
    cur = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        where = f"layer {i} ({layer.kind})"
        if layer.kind == "dense":
            if cur != (layer.in_ch,):
                raise ShapeError(f"{where}: expected input shape ({layer.in_ch},), got {cur}")
            cur = (layer.out_ch,)
        elif layer.kind in ("conv2d", "convtranspose2d"):
            cur = _conv_out_shape(layer, cur, where)
        elif layer.kind in ("lrelu", "relu", "tanh", "layernorm", "pixelnorm"):
            pass
        else:
            raise ShapeError(f"{where}: unknown layer kind")
        shapes.append(cur)
    return shapes


class ParamStore:
    """One network's parameters in one flat vector, its gradients in another.

    ``params[i][name]`` and ``grads[i][name]`` are views into ``flat`` and
    ``grad_flat``, ordered by layer index, then sorted parameter name (the
    order each ``params[i]`` dict iterates in); update them in place only.

    Weights are drawn from N(0, 0.02^2) with a per-layer stream derived
    from the seed and the layer index; biases start at zero, layernorm
    gains at one.
    """

    def __init__(self, spec: NetworkSpec, seed=0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        prefix = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
        in_shapes = [tuple(spec.input_shape)] + shape_plan(spec)[:-1] if spec.layers else []
        init: list[dict[str, np.ndarray]] = []
        for i, layer in enumerate(spec.layers):
            rng = np.random.default_rng(prefix + [i])
            p: dict[str, np.ndarray] = {}
            if layer.kind in ("dense", "conv2d", "convtranspose2d"):
                # dense (out, in); conv2d (out, in, k, k); convtranspose2d (in, out, k, k)
                io = (layer.in_ch, layer.out_ch)
                taps = () if layer.kind == "dense" else (layer.kernel, layer.kernel)
                shape = (io if layer.kind == "convtranspose2d" else io[::-1]) + taps
                p["W"] = rng.standard_normal(shape) * WEIGHT_INIT_STD
                p["b"] = np.zeros(layer.out_ch)
            elif layer.kind == "layernorm":
                p["g"] = np.ones(in_shapes[i])
                p["b"] = np.zeros(in_shapes[i])
            init.append(p)
        order = [(i, name) for i, p in enumerate(init) for name in sorted(p)]
        values = [init[i][name] for i, name in order]
        self.flat = np.concatenate([v.ravel() for v in values] or [[]]).astype(self.dtype)
        self.grad_flat = np.zeros_like(self.flat)
        self.params: list[dict[str, np.ndarray]] = [{} for _ in init]
        self.grads: list[dict[str, np.ndarray]] = [{} for _ in init]
        cuts = np.cumsum([v.size for v in values])[:-1]
        for (i, name), v, p, g in zip(order, values, np.split(self.flat, cuts),
                                      np.split(self.grad_flat, cuts)):
            self.params[i][name] = p.reshape(v.shape)
            self.grads[i][name] = g.reshape(v.shape)

    def zero_grad(self) -> None:
        self.grad_flat.fill(0)


# ---------------------------------------------------------------------------
# conv primitives

# The gathers below pass mode="wrap" although every index is in range, so
# nothing ever wraps: numpy's take loop is about 25% faster in that mode
# than in the default "raise", which also copies an ``out`` array.

@functools.lru_cache(maxsize=None)
def _gather_index(c: int, h: int, w: int, k: int, s: int, p: int) -> np.ndarray:
    # flat source of every column entry of one sample in a (c*h*w + 1)-vector;
    # padded positions read the last entry, which holds a zero
    pos = np.full((c, h + 2 * p, w + 2 * p), c * h * w, dtype=np.intp)
    pos[:, p:p + h, p:p + w] = np.arange(c * h * w).reshape(c, h, w)
    win = sliding_window_view(pos, (k, k), axis=(1, 2))[:, ::s, ::s]
    # rows (c, i, j), columns the output positions
    idx = win.transpose(0, 3, 4, 1, 2).ravel()
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=None)
def _tap_table(c: int, h: int, w: int, k: int, s: int, p: int) -> np.ndarray:
    # (T, c*h*w): row t holds each pixel's t-th tap, a flat column index, in
    # increasing order, i.e. (i, j) order. Pixels with fewer taps point at
    # the zero that ends every column buffer.
    idx = _gather_index(c, h, w, k, s, p)
    order = np.argsort(idx, kind="stable")
    pix = idx[order]
    counts = np.bincount(pix, minlength=c * h * w + 1)
    rank = np.arange(pix.size) - (np.cumsum(counts) - counts)[pix]
    inside = pix < c * h * w
    table = np.full((counts[:-1].max(), c * h * w), idx.size, dtype=np.intp)
    table[rank[inside], pix[inside]] = order[inside]
    table.setflags(write=False)
    return table


def _im2col(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    # (N, C, H, W) -> (N, C*k*k, Ho*Wo) with zero padding p, as one gather
    n, c, h, w = x.shape
    if p == 0 and (h, w) == (k, k):
        # one window covers the image: the columns are the image itself
        return x.reshape(n, c * k * k, 1)
    flat = np.empty((n, c * h * w + 1), dtype=x.dtype)
    flat[:, :-1] = x.reshape(n, -1)
    flat[:, -1] = 0
    cols = np.take(flat, _gather_index(c, h, w, k, s, p), axis=1, mode="wrap")
    return cols.reshape(n, c * k * k, -1)


def _matmul_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.matmul(a, b) -> (N, R, Q) written into an (N, R*Q + 1) buffer whose
    # last entry is 0: the column layout _col2im reads
    n, r, q = b.shape[0], a.shape[-2], b.shape[-1]
    buf = np.empty((n, r * q + 1), dtype=np.result_type(a, b))
    buf[:, -1] = 0
    prod = buf[:, :-1].reshape(n, r, q)
    if a.shape[-1] == 1:
        # a one-term product (one output channel's adjoint) is an outer product;
        # matmul sums it from +0.0, so + 0.0 gives its bits, -0.0 included
        np.multiply(a, b, out=prod)
        prod += 0.0
    else:
        np.matmul(a, b, out=prod)
    return buf


def _col2im(buf: np.ndarray, out_shape: tuple, k: int, s: int, p: int) -> np.ndarray:
    # sum the columns of a _matmul_cols buffer back to (N, C, H, W): T ordered
    # gathers, so every pixel adds its taps in (i, j) order starting from +0.0
    # (the same bits as one strided add per tap); the sentinel +0.0s come last
    # and change nothing, since a sum that starts at +0.0 is never -0.0
    n, c, h, w = out_shape
    if p == 0 and (h, w) == (k, k):
        # one window covers the image: every pixel gets exactly one tap. A
        # -0.0 tap stays -0.0 here, where adding it to +0.0 would give +0.0.
        return buf[:, :-1].reshape(n, c, k, k)
    out = np.zeros((n, c * h * w), dtype=buf.dtype)
    tap = np.empty_like(out)
    for taps in _tap_table(c, h, w, k, s, p):
        out += np.take(buf, taps, axis=1, out=tap, mode="wrap")
    return out.reshape(out_shape)


def _conv(W: np.ndarray, x: np.ndarray, k: int, s: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    # the conv map of kernel W (a, b, k, k): (N, b, H, W) -> (N, a, Ho*Wo), and
    # the columns of x, which the kernel gradient reuses
    cols = _im2col(x, k, s, p)
    return np.matmul(W.reshape(W.shape[0], -1), cols), cols


def _conv_adjoint(W: np.ndarray, g: np.ndarray, x_shape: tuple, k: int, s: int,
                  p: int) -> np.ndarray:
    # the adjoint of _conv: (N, a, ...) -> x_shape = (N, b, H, W)
    a = W.shape[0]
    buf = _matmul_cols(W.reshape(a, -1).T, g.reshape(g.shape[0], a, -1))
    return _col2im(buf, x_shape, k, s, p)


# ---------------------------------------------------------------------------
# forward / backward

@dataclass
class Tape:
    """Activation record of one forward pass; consumable exactly once.

    Set ``input_grad = False`` before :func:`backward` when the input
    gradient is not wanted: backward then stops at the lowest layer with
    parameters and returns None. Set ``param_grads = False`` when only the
    input gradient is wanted: backward then leaves the store's gradients
    as they are. Whatever backward still computes has the same bits.
    """

    spec: NetworkSpec
    store: ParamStore
    weights: dict[int, np.ndarray] | None
    entries: list = field(default_factory=list)
    out_shape: tuple = ()
    consumed: bool = False
    input_grad: bool = True
    param_grads: bool = True


def _weight(store: ParamStore, weights, i: int) -> np.ndarray:
    if weights is not None and i in weights:
        return weights[i]
    return store.params[i]["W"]


def _layer_forward(layer: Layer, i: int, store: ParamStore, weights,
                   h: np.ndarray) -> tuple[np.ndarray, tuple]:
    # layer i's output and tape entry; what else it makes is freed on return.
    # It writes only into arrays it made, never into h (a tape entry or input)
    kind = layer.kind
    if kind == "dense":
        W = _weight(store, weights, i)
        if h.ndim != 2 or h.shape[1] != W.shape[1]:
            raise ShapeError(f"layer {i} (dense): got input shape {h.shape[1:]}")
        y = h @ W.T
        y += store.params[i]["b"]
        return y, (h,)
    if kind in ("conv2d", "convtranspose2d"):
        W = _weight(store, weights, i)
        out_shape = (h.shape[0],) + _conv_out_shape(layer, h.shape[1:], f"layer {i} ({kind})")
        k, s, p = layer.kernel, layer.stride, layer.padding
        if kind == "conv2d":
            y, cols = _conv(W, h, k, s, p)
            entry = (cols, h.shape)
        else:
            # the adjoint of the conv2d with the same kernel, mapping big -> small
            y = _conv_adjoint(W, h, out_shape, k, s, p)
            entry = (h,)
        y = y.reshape(out_shape)
        y += store.params[i]["b"].reshape(1, -1, 1, 1)
        return y, entry
    if kind == "lrelu":
        # slope < 1, so the larger of h and slope * h is the leaky value,
        # with the bits of np.where(h > 0, h, slope * h); the output is
        # positive exactly where h is, so it is the tape's mask
        y = layer.slope * h
        np.maximum(h, y, out=y)
        return y, (y,)
    if kind == "relu":
        mask = h > 0
        return h * mask, (mask,)
    if kind == "tanh":
        y = np.tanh(h)
        return y, (y,)
    if kind == "layernorm":
        # mean and variance as np.mean and np.var compute them, the
        # centred values once
        flat = h.reshape(h.shape[0], -1)
        f = flat.shape[1]
        xhat = flat - flat.sum(axis=1, keepdims=True) / f
        inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=1, keepdims=True) / f + LAYERNORM_EPS)
        xhat *= inv
        y = xhat * store.params[i]["g"].reshape(1, -1)
        y += store.params[i]["b"].reshape(1, -1)
        return y.reshape(h.shape), (xhat, inv, h.shape)
    if kind == "pixelnorm":
        c = h.shape[1]
        scale = np.sqrt(np.square(h).sum(axis=1, keepdims=True) / c + PIXELNORM_EPS)
        return h / scale, (h, scale)
    raise ShapeError(f"layer {i}: unknown layer kind {kind!r}")


def forward(spec: NetworkSpec, store: ParamStore, x: np.ndarray,
            weights: dict[int, np.ndarray] | None = None) -> tuple[np.ndarray, Tape]:
    """Run the network on a batch ``x`` of shape ``(N, *input_shape)``.

    ``weights`` optionally overrides per-layer weight tensors (used for
    spectrally normalized layers, whose effective weight differs from the
    stored one). Returns the output and the tape for :func:`backward`.
    """
    x = np.asarray(x)
    if x.shape[1:] != tuple(spec.input_shape):
        raise ShapeError(
            f"input shape {x.shape[1:]} does not match network input {tuple(spec.input_shape)}"
        )
    tape = Tape(spec=spec, store=store, weights=weights)
    h = x
    for i, layer in enumerate(spec.layers):
        h, entry = _layer_forward(layer, i, store, weights, h)
        tape.entries.append(entry)
    tape.out_shape = h.shape
    return h, tape


def backward(tape: Tape, grad_out: np.ndarray) -> np.ndarray | None:
    """Backpropagate ``grad_out`` through a recorded forward pass.

    Accumulates parameter gradients into the tape's store (+=) and
    returns the gradient with respect to the network input; the tape's
    ``input_grad`` and ``param_grads`` flags turn either part off. For
    layers run with an overridden weight, the gradient is with respect to
    that effective weight. A tape can be consumed only once.
    """
    if tape.consumed:
        raise RuntimeError("activation tape already consumed")
    g = np.asarray(grad_out)
    if g.shape != tape.out_shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {tape.out_shape}")
    spec, store, weights = tape.spec, tape.store, tape.weights
    # without the input gradient, stop at the lowest layer with parameters
    # once its gradients are in
    stop = -1 if tape.input_grad else next(
        (i for i, p in enumerate(store.params) if p), len(spec.layers))
    for i in range(len(spec.layers) - 1, max(stop, 0) - 1, -1):
        layer = spec.layers[i]
        kind = layer.kind
        cache = tape.entries[i]
        if kind == "dense":
            (x,) = cache
            if tape.param_grads:
                store.grads[i]["W"] += g.T @ x
                store.grads[i]["b"] += g.sum(axis=0)
            if i == stop:
                break
            g = g @ _weight(store, weights, i)
        elif kind in ("conv2d", "convtranspose2d"):
            W = _weight(store, weights, i)
            k, s, p = layer.kernel, layer.stride, layer.padding
            if kind == "conv2d":
                cols, xshape = cache
            elif i == stop:  # the stop layer needs only the columns
                xshape, cols = cache[0].shape, _im2col(g, k, s, p)
            else:  # dx and dW share one im2col of the output gradient
                xshape, (gx, cols) = cache[0].shape, _conv(W, g, k, s, p)
            if tape.param_grads:
                store.grads[i]["b"] += g.sum(axis=(0, 2, 3))
                small = g if kind == "conv2d" else cache[0]
                dW = np.tensordot(small.reshape(xshape[0], W.shape[0], -1), cols,
                                  axes=([0, 2], [0, 2]))
                store.grads[i]["W"] += dW.reshape(W.shape)
            if i == stop:
                break
            g = _conv_adjoint(W, g, xshape, k, s, p) if kind == "conv2d" else gx.reshape(xshape)
        elif kind == "lrelu":
            (y,) = cache
            g = np.where(y > 0, g, layer.slope * g)
        elif kind == "relu":
            (mask,) = cache
            g = g * mask
        elif kind == "tanh":
            (y,) = cache
            g = g * (1.0 - y * y)
        elif kind == "layernorm":
            xhat, inv, xshape = cache
            n = xshape[0]
            gf = g.reshape(n, -1)
            if tape.param_grads:
                store.grads[i]["g"] += (gf * xhat).sum(axis=0).reshape(store.grads[i]["g"].shape)
                store.grads[i]["b"] += gf.sum(axis=0).reshape(store.grads[i]["b"].shape)
            if i == stop:
                break
            dxhat = gf * store.params[i]["g"].reshape(1, -1)
            f = xhat.shape[1]
            dx = (inv / f) * (
                f * dxhat
                - dxhat.sum(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
            )
            g = dx.reshape(xshape)
        elif kind == "pixelnorm":
            x, scale = cache
            c = x.shape[1]
            dot = (g * x).sum(axis=1, keepdims=True)
            g = g / scale - x * dot / (c * scale ** 3)
    tape.consumed = True
    return g if tape.input_grad else None


# ---------------------------------------------------------------------------
# architecture families

def mlp_generator(latent_dim: int, hidden: list[int], out_dim: int) -> NetworkSpec:
    """Dense generator: pixelnorm on the latent, LReLU(0.2) hidden stack with
    layernorm+ReLU before the output layer, Tanh output."""
    if not hidden:
        raise ValueError("mlp generator needs at least one hidden width")
    layers = [pixelnorm()]
    prev = latent_dim
    for j, width in enumerate(hidden):
        layers.append(dense(prev, width))
        if j == len(hidden) - 1:
            layers += [layernorm(), relu()]
        else:
            layers.append(lrelu(0.2))
        prev = width
    layers += [dense(prev, out_dim), tanh()]
    return NetworkSpec(input_shape=(latent_dim,), layers=layers)


def mlp_discriminator(in_dim: int, hidden: list[int]) -> NetworkSpec:
    """Dense critic with ReLU activations; every weight is spectrally normalized."""
    if not hidden:
        raise ValueError("mlp discriminator needs at least one hidden width")
    layers: list[Layer] = []
    prev = in_dim
    for width in hidden:
        layers += [dense(prev, width, normalized=True), relu()]
        prev = width
    layers.append(dense(prev, 1, normalized=True))
    return NetworkSpec(input_shape=(in_dim,), layers=layers)


def _upsample_levels(img_size: int, channels: list[int]) -> int:
    levels = int(math.log2(img_size / 4))
    if 4 * 2 ** levels != img_size or levels < 1:
        raise ValueError(f"img_size must be 4 * 2^k with k >= 1, got {img_size}")
    if len(channels) != levels:
        raise ValueError(
            f"need {levels} channel entries for img_size={img_size}, got {len(channels)}"
        )
    return levels


def conv_generator(latent_dim: int, channels: list[int], img_channels: int,
                   img_size: int) -> NetworkSpec:
    """Transposed-conv generator from a (latent, 1, 1) input to img_size^2.

    First a stride-1 4x4 transposed conv to 4x4, then one stride-2 level
    per channel entry beyond the first, LReLU(0.2) between levels with
    layernorm+ReLU before the final Tanh level.
    """
    levels = _upsample_levels(img_size, channels)
    layers: list[Layer] = [pixelnorm(),
                           convtranspose2d(latent_dim, channels[0], 4, 1, 0)]
    for j in range(1, levels):
        layers.append(lrelu(0.2))
        layers.append(convtranspose2d(channels[j - 1], channels[j], 4, 2, 1))
    layers += [layernorm(), relu(),
               convtranspose2d(channels[-1], img_channels, 4, 2, 1), tanh()]
    return NetworkSpec(input_shape=(latent_dim, 1, 1), layers=layers)


def conv_discriminator(img_channels: int, channels: list[int], img_size: int) -> NetworkSpec:
    """Strided-conv critic ending in a 4x4 valid conv to one scalar channel.

    All convolution weights are spectrally normalized; activations are ReLU.
    """
    _upsample_levels(img_size, channels)
    layers: list[Layer] = []
    prev = img_channels
    for ch in channels:
        layers += [conv2d(prev, ch, 4, 2, 1, normalized=True), relu()]
        prev = ch
    layers.append(conv2d(prev, 1, 4, 1, 0, normalized=True))
    return NetworkSpec(input_shape=(img_channels, img_size, img_size), layers=layers)
