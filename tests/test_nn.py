import re
import tracemalloc
import weakref

import numpy as np
import pytest

from abcas import nn
from abcas.nn import (
    NetworkSpec,
    ParamStore,
    ShapeError,
    backward,
    conv2d,
    convtranspose2d,
    dense,
    forward,
    layernorm,
    lrelu,
    pixelnorm,
    relu,
    shape_plan,
    tanh,
)

from helpers import (
    central_diff_grad,
    col2im_loop,
    conv2d_naive,
    conv_matrix_index,
    convtranspose2d_naive,
    gradcheck_layer as _gradcheck_layer,
    im2col_window,
    nudge_off_kinks as _away_from_kinks,
    rel_err,
)


def _store64(spec, seed=0):
    return ParamStore(spec, seed=seed, dtype=np.float64)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestForwardBasics:
    def test_dense_identity_passthrough(self):
        spec = NetworkSpec((3,), [dense(3, 3)])
        store = _store64(spec)
        store.params[0]["W"][...] = np.eye(3)
        store.params[0]["b"][...] = 0.0
        x = np.array([[1.0, -2.0, 0.5]])
        y, _ = forward(spec, store, x)
        assert np.allclose(y, x)

    def test_lrelu_definition(self):
        spec = NetworkSpec((2,), [lrelu()])
        store = _store64(spec)
        y, _ = forward(spec, store, np.array([[-1.0, 2.0]]))
        assert np.allclose(y, [[-0.2, 2.0]])

    def test_pixelnorm_constant_channels(self):
        # constant value c across channels maps to c / sqrt(c^2 + eps)
        spec = NetworkSpec((4,), [pixelnorm()])
        store = _store64(spec)
        c = 3.0
        y, _ = forward(spec, store, np.full((1, 4), c))
        expected = c / np.sqrt(c * c + 1e-8)
        assert np.allclose(y, expected, atol=1e-12)
        assert abs(y[0, 0] - 1.0) < 1e-8  # |c| >> sqrt(eps)

    def test_pixelnorm_zero_input(self):
        spec = NetworkSpec((4,), [pixelnorm()])
        y, _ = forward(spec, _store64(spec), np.zeros((2, 4)))
        assert np.array_equal(y, np.zeros((2, 4)))

    def test_layernorm_two_features(self):
        spec = NetworkSpec((2,), [layernorm()])
        store = _store64(spec)
        y, _ = forward(spec, store, np.array([[1.0, 3.0]]))
        # mean 2, population variance 1
        assert np.allclose(y, [[-1.0, 1.0]], atol=1e-4)

    def test_layernorm_constant_input_gives_bias(self):
        spec = NetworkSpec((5,), [layernorm()])
        store = _store64(spec)
        store.params[0]["b"][...] = 7.0
        y, _ = forward(spec, store, np.full((3, 5), 2.5))
        assert np.allclose(y, 7.0)

    def test_forward_deterministic_bitwise(self):
        spec = nn.mlp_discriminator(4, [8, 8])
        store = ParamStore(spec, seed=5)
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        y1, _ = forward(spec, store, x)
        y2, _ = forward(spec, store, x)
        assert np.array_equal(y1, y2)

    def test_shape_mismatch_names_layer(self):
        spec = NetworkSpec((3,), [dense(3, 4), dense(5, 2)])
        with pytest.raises(ShapeError, match="layer 1"):
            shape_plan(spec)

    def test_input_shape_checked(self):
        spec = NetworkSpec((3,), [dense(3, 4)])
        with pytest.raises(ShapeError):
            forward(spec, _store64(spec), np.zeros((2, 5)))

    def test_grad_shape_checked(self):
        spec = NetworkSpec((3,), [dense(3, 4)])
        _, tape = forward(spec, _store64(spec), np.ones((2, 3)))
        with pytest.raises(ShapeError, match=re.escape("grad shape (2, 5) does not match "
                                                       "output (2, 4)")):
            backward(tape, np.ones((2, 5)))

    def test_weight_override_width_checked(self):
        spec = NetworkSpec((3,), [dense(3, 4)])
        with pytest.raises(ShapeError, match=re.escape("layer 0 (dense): got input shape (3,)")):
            forward(spec, _store64(spec), np.ones((2, 3)), weights={0: np.ones((4, 5))})

    def test_tape_reuse_raises(self):
        spec = NetworkSpec((3,), [dense(3, 2)])
        store = _store64(spec)
        y, tape = forward(spec, store, np.ones((1, 3)))
        backward(tape, np.ones_like(y))
        with pytest.raises(RuntimeError):
            backward(tape, np.ones_like(y))

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_consumed_tape_holds_no_activations(self, input_grad):
        # the training loop keeps a consumed tape in its locals until the next step
        spec = nn.conv_discriminator(1, [4], 8)
        y, tape = forward(spec, _store64(spec), np.ones((2, 1, 8, 8)))
        cols = weakref.ref(tape.entries[0][0])
        tape.input_grad = input_grad
        backward(tape, np.ones_like(y))
        assert tape.entries == [] and cols() is None

    def test_zero_grad(self):
        spec = NetworkSpec((3,), [dense(3, 2)])
        store = _store64(spec)
        y, tape = forward(spec, store, np.ones((1, 3)))
        backward(tape, np.ones_like(y))
        assert np.any(store.grads[0]["W"] != 0)
        store.zero_grad()
        assert np.all(store.grads[0]["W"] == 0)
        assert np.all(store.grads[0]["b"] == 0)

    def test_grad_shapes_mirror_params(self):
        spec = nn.conv_discriminator(1, [4, 6], 16)
        store = ParamStore(spec, seed=0)
        for i, layer_params in enumerate(store.params):
            for name, arr in layer_params.items():
                assert store.grads[i][name].shape == arr.shape
                assert store.grads[i][name].dtype == arr.dtype

    def test_flat_store_views(self):
        spec = nn.mlp_generator(4, [5, 6], 2)
        store = ParamStore(spec, seed=3)
        W1 = np.random.default_rng([3, 1]).standard_normal((5, 4)) * nn.WEIGHT_INIT_STD
        assert np.array_equal(store.params[1]["W"], W1.astype(np.float32))
        offset = 0
        for i, layer_params in enumerate(store.params):
            # flat order: layer, then sorted parameter name
            assert list(layer_params) == sorted(layer_params)
            for name, arr in layer_params.items():
                grad = store.grads[i][name]
                assert np.shares_memory(arr, store.flat)
                assert np.shares_memory(grad, store.grad_flat)
                assert np.array_equal(store.flat[offset:offset + arr.size], arr.ravel())
                grad[...] = 1.0
                assert np.all(store.grad_flat[offset:offset + arr.size] == 1.0)
                offset += arr.size
        assert offset == store.flat.size == store.grad_flat.size
        store.zero_grad()
        assert all(np.all(g == 0) for lg in store.grads for g in lg.values())


class TestConvShapes:
    def test_conv_shape_rule(self):
        spec = NetworkSpec((3, 16, 16), [conv2d(3, 5, kernel=4, stride=2, padding=1)])
        assert shape_plan(spec) == [(5, 8, 8)]

    def test_convtranspose_shape_rule(self):
        spec = NetworkSpec((3, 8, 8), [convtranspose2d(3, 5, kernel=4, stride=2, padding=1)])
        assert shape_plan(spec) == [(5, 16, 16)]
        spec = NetworkSpec((7, 1, 1), [convtranspose2d(7, 5, kernel=4, stride=1, padding=0)])
        assert shape_plan(spec) == [(5, 4, 4)]

    def test_non_integer_extent_rejected(self):
        spec = NetworkSpec((3, 15, 15), [conv2d(3, 5, kernel=4, stride=2, padding=1)])
        with pytest.raises(ShapeError, match="conv2d"):
            shape_plan(spec)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv_forward_matches_naive(self, stride, padding):
        rng = np.random.default_rng(21)
        size = 7 if stride == 2 else 6
        x = rng.standard_normal((2, 3, size, size))
        spec = NetworkSpec((3, size, size),
                           [conv2d(3, 4, kernel=3, stride=stride, padding=padding)])
        store = _store64(spec, seed=3)
        W, b = store.params[0]["W"], store.params[0]["b"]
        b[...] = rng.standard_normal(b.shape)
        y, _ = forward(spec, store, x)
        assert rel_err(y, conv2d_naive(x, W, b, stride, padding)) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0)])
    def test_convtranspose_forward_matches_naive(self, stride, padding):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 3, 4, 4))
        spec = NetworkSpec((3, 4, 4),
                           [convtranspose2d(3, 2, kernel=3, stride=stride, padding=padding)])
        store = _store64(spec, seed=4)
        W, b = store.params[0]["W"], store.params[0]["b"]
        b[...] = rng.standard_normal(b.shape)
        y, _ = forward(spec, store, x)
        assert rel_err(y, convtranspose2d_naive(x, W, b, stride, padding)) < 1e-12


def _operator_matrix(spec, store):
    # the dense matrix of a linear network: column j is the output for basis input j
    n = int(np.prod(spec.input_shape))
    y, _ = forward(spec, store, np.eye(n).reshape((n,) + tuple(spec.input_shape)))
    return y.reshape(n, -1).T


class TestConvOperatorMatrices:
    @pytest.mark.parametrize("k,s,p,size", [(4, 2, 1, 8), (4, 1, 0, 4), (3, 1, 1, 5)])
    def test_convtranspose2d_is_the_transpose_of_conv2d(self, k, s, p, size):
        # float64, zero biases, one kernel tensor for both layers
        conv = NetworkSpec((2, size, size), [conv2d(2, 3, kernel=k, stride=s, padding=p)])
        convt = NetworkSpec(shape_plan(conv)[0], [convtranspose2d(3, 2, kernel=k, stride=s,
                                                                  padding=p)])
        conv_store, convt_store = _store64(conv, seed=5), _store64(convt)
        convt_store.params[0]["W"][...] = conv_store.params[0]["W"]
        A = _operator_matrix(conv, conv_store)
        B = _operator_matrix(convt, convt_store)
        assert A.shape == (int(np.prod(shape_plan(conv)[0])), 2 * size * size)
        assert np.count_nonzero(A) > 0
        assert np.max(np.abs(B - A.T)) <= 1e-12 * np.max(np.abs(A))

    # the tiny conv config's four conv layers (tests/test_train.py), then two odd kernels
    @pytest.mark.parametrize("layer,in_shape", [
        (conv2d(1, 8, 4, 2, 1), (1, 8, 8)), (conv2d(8, 1, 4, 1, 0), (8, 4, 4)),
        (convtranspose2d(4, 8, 4, 1, 0), (4, 1, 1)), (convtranspose2d(8, 1, 4, 2, 1), (8, 4, 4)),
        (conv2d(2, 3, 3, 2, 0), (2, 7, 7)), (convtranspose2d(2, 3, 3, 2, 1), (2, 5, 5))])
    def test_index_map_matrix_matches_the_naive_loops(self, layer, in_shape):
        # the index arithmetic that the straight-line training reference runs
        # conv layers on, against the direct loops
        out_shape, rows, cols, taps = conv_matrix_index(layer, in_shape)
        rng = np.random.default_rng(11)
        W = _store64(NetworkSpec(in_shape, [layer]), seed=12).params[0]["W"]
        A = np.zeros((int(np.prod(out_shape)), int(np.prod(in_shape))))
        A[rows, cols] = W.ravel()[taps]
        assert np.unique(rows * A.shape[1] + cols).size == rows.size
        x = rng.standard_normal((2, *in_shape))
        naive = conv2d_naive if layer.kind == "conv2d" else convtranspose2d_naive
        want = naive(x, W, np.zeros(layer.out_ch), layer.stride, layer.padding)
        assert want.shape[1:] == out_shape
        got = x.reshape(2, -1) @ A.T
        assert np.max(np.abs(got - want.reshape(2, -1))) <= 1e-12 * np.abs(want).max()


class TestConvLipschitz:
    # spectral normalization divides a conv kernel by the largest singular
    # value of its (c_out, c_in*k*k) reshape; that is the layer's operator
    # norm only when the output has a single window
    @staticmethod
    def _operator_norm_at_unit_reshape_sigma(i):
        critic = nn.conv_discriminator(1, [16, 32], 16)  # configs/blobs16.cfg
        in_shape = (critic.input_shape,) + tuple(shape_plan(critic))
        spec = NetworkSpec(in_shape[i], [critic.layers[i]])
        store = _store64(spec)
        W = store.params[0]["W"]
        W /= np.linalg.norm(W.reshape(W.shape[0], -1), 2)
        store.params[0]["b"][...] = 0.0
        return np.linalg.norm(_operator_matrix(spec, store), 2)

    def test_one_window_layer_is_capped_exactly(self):
        assert abs(self._operator_norm_at_unit_reshape_sigma(4) - 1.0) <= 1e-12

    def test_strided_layer_exceeds_the_cap(self):
        # blobs16's first critic layer: 1 -> 16 channels, k4 s2 p1 on 16x16
        assert self._operator_norm_at_unit_reshape_sigma(0) > 1.2


class TestColumnPrimitives:
    # (out_shape, kernel, stride, padding): every blobs16 shape at the training
    # batch, two at the eval batch, and two odd kernels; the k4 s1 p0 cases
    # are the one-window reshape
    CASES = [
        ((16, 16, 8, 8), 4, 2, 1),
        ((16, 1, 16, 16), 4, 2, 1),
        ((16, 32, 4, 4), 4, 1, 0),
        ((256, 16, 8, 8), 4, 2, 1),
        ((3, 2, 7, 7), 3, 1, 1),
        ((3, 2, 7, 7), 3, 2, 0),
        ((256, 32, 4, 4), 4, 1, 0),
    ]
    # the cases where col2im sums taps (all but the one-window reshape)
    SCATTER_CASES = [((16, 16, 8, 8), 4, 2, 1), ((3, 2, 7, 7), 3, 1, 1),
                     ((3, 2, 7, 7), 3, 2, 0)]

    @staticmethod
    def _cols(rng, out_shape, k, s, p, dtype):
        n, c, h, w = out_shape
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        return rng.standard_normal((n, c * k * k, ho * wo)).astype(dtype)

    @staticmethod
    def _buffer(cols):
        # the layout _col2im reads: one row per sample, a zero after the last entry
        n = len(cols)
        return np.concatenate([cols.reshape(n, -1), np.zeros((n, 1), cols.dtype)], axis=1)

    @pytest.mark.parametrize("out_shape,k,s,p", CASES)
    def test_col2im_bitwise_equals_tap_loop_float32(self, out_shape, k, s, p):
        cols = self._cols(np.random.default_rng(31), out_shape, k, s, p, np.float32)
        got = nn._col2im(self._buffer(cols), out_shape, k, s, p)
        assert _same_bits(got, col2im_loop(cols, out_shape, k, k, s, p))

    @pytest.mark.parametrize("out_shape,k,s,p", SCATTER_CASES)
    def test_col2im_signed_zeros_match_tap_loop(self, out_shape, k, s, p):
        # a pixel whose taps are all -0.0 sums to +0.0 from a +0.0 start; a sum
        # that starts from the first tap would keep -0.0
        rng = np.random.default_rng(34)
        cols = self._cols(rng, out_shape, k, s, p, np.float32)
        for share in (1.0, 0.9):
            signed = np.where(rng.random(cols.shape) < share, np.float32(-0.0), cols)
            got = nn._col2im(self._buffer(signed), out_shape, k, s, p)
            assert _same_bits(got, col2im_loop(signed, out_shape, k, k, s, p))

    @pytest.mark.parametrize("out_shape,k,s,p", CASES)
    def test_col2im_is_adjoint_of_padded_im2col(self, out_shape, k, s, p):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(out_shape)
        c = self._cols(rng, out_shape, k, s, p, np.float64)
        # the patches are rows, the column buffer's transpose
        lhs = float(np.sum(nn._im2col(x, k, s, p).transpose(0, 2, 1) * c))
        rhs = float(np.sum(x * nn._col2im(self._buffer(c), out_shape, k, s, p)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("out_shape,k,s,p", CASES)
    def test_im2col_bitwise_equals_padded_window_view(self, out_shape, k, s, p):
        rng = np.random.default_rng(33)
        x = rng.standard_normal(out_shape).astype(np.float32)
        x[rng.random(out_shape) < 0.1] = -0.0
        want = im2col_window(x, k, s, p).transpose(0, 2, 1)
        assert _same_bits(nn._im2col(x, k, s, p), want)

    def test_col2im_does_not_copy_the_columns(self):
        # the zero-tailed buffer is read in place, never extended by a copy
        out_shape, k, s, p = (256, 16, 8, 8), 4, 2, 1
        buf = self._buffer(self._cols(np.random.default_rng(35), out_shape, k, s, p, np.float32))
        nn._col2im(buf, out_shape, k, s, p)  # builds the cached tap table
        tracemalloc.start()
        try:
            nn._col2im(buf, out_shape, k, s, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buf.nbytes

    def test_matmul_writes_columns_in_place(self):
        # the producer allocates the zero-tailed buffer once, with no second
        # copy of the product
        rng = np.random.default_rng(36)
        a = rng.standard_normal((256, 32)).astype(np.float32)
        b = rng.standard_normal((256, 32, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            buf = nn._matmul_cols(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buf.nbytes
        assert not buf[:, -1].any()
        assert _same_bits(buf[:, :-1].reshape(256, 256, 16), np.matmul(a, b))


class TestOneChannelAdjoint:
    # D's last layer has one output channel, so the matmul of its adjoint has
    # one term per entry and runs as a broadcast multiply plus 0.0
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,r,q", [(16, 512, 1), (5, 7, 5)])
    def test_matches_matmul_bitwise(self, dtype, n, r, q):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((r, 1)).astype(dtype)
        b = rng.standard_normal((n, 1, q)).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        a[::3], a[1::4], a[2] = 0.0, -0.0, tiny
        b[::2], b[1, 0, 0] = -0.0, np.inf
        with np.errstate(invalid="ignore"):
            want = np.matmul(a, b)
            got = nn._matmul_cols(a, b)
            assert np.signbit(a * b).any()  # -0.0 products, which matmul sums to +0.0
        assert _same_bits(got[:, :-1].reshape(n, r, q), want)
        assert not got[:, -1].any()


class TestPartialBackward:
    # backward with input_grad or param_grads off runs a subset of the full
    # backward's arithmetic, so what it returns or accumulates has its bits
    NETS = {
        "mlp-g": lambda: nn.mlp_generator(4, [8, 8], 2),
        "mlp-d": lambda: nn.mlp_discriminator(2, [8, 8]),
        "conv-g": lambda: nn.conv_generator(4, [8, 4], 1, 16),
        "conv-g-blobs16": lambda: nn.conv_generator(16, [32, 16], 1, 16),
        "conv-d": lambda: nn.conv_discriminator(1, [4, 8], 16),
        # the lowest layer with parameters is a layernorm, where backward stops
        "layernorm-first": lambda: NetworkSpec((6,), [layernorm(), dense(6, 4), tanh(),
                                                     dense(4, 2)]),
    }

    @staticmethod
    def _backward(name, dtype, **flags):
        spec = TestPartialBackward.NETS[name]()
        rng = np.random.default_rng(38)
        store = ParamStore(spec, seed=6, dtype=dtype)
        # earlier gradients in the store, so the += is checked too
        store.grad_flat[...] = rng.standard_normal(store.grad_flat.shape)
        before = store.grad_flat.copy()
        x = rng.standard_normal((3, *spec.input_shape)).astype(dtype)
        y, tape = forward(spec, store, x)
        for flag, value in flags.items():
            setattr(tape, flag, value)
        dx = backward(tape, rng.standard_normal(y.shape).astype(dtype))
        return dx, before, store.grad_flat

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(NETS))
    def test_without_input_grad_param_grads_are_bitwise(self, name, dtype):
        dx, _, full = self._backward(name, dtype)
        none, _, part = self._backward(name, dtype, input_grad=False)
        assert dx is not None and none is None
        assert _same_bits(part, full)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(NETS))
    def test_without_param_grads_input_grad_is_bitwise(self, name, dtype):
        full, before, after_full = self._backward(name, dtype)
        part, before_part, after = self._backward(name, dtype, param_grads=False)
        assert _same_bits(part, full)
        assert _same_bits(after, before_part)
        assert not np.array_equal(after_full, before)

    def test_without_input_grad_the_first_layer_runs_no_adjoint(self, monkeypatch):
        calls = []
        conv_adjoint = nn._conv_adjoint
        monkeypatch.setattr(nn, "_conv_adjoint", lambda *a: calls.append(1) or conv_adjoint(*a))
        self._backward("conv-d", np.float32)
        full = len(calls)
        calls.clear()
        self._backward("conv-d", np.float32, input_grad=False)
        assert (full, len(calls)) == (3, 2)

    def test_without_input_grad_the_first_convtranspose_runs_no_conv(self, monkeypatch):
        # the stop layer takes only the columns its weight gradient needs
        calls = []
        conv = nn._conv
        monkeypatch.setattr(nn, "_conv", lambda *a: calls.append(1) or conv(*a))
        self._backward("conv-g", np.float32)
        full = len(calls)
        calls.clear()
        self._backward("conv-g", np.float32, input_grad=False)
        assert (full, len(calls)) == (3, 2)

    def test_without_input_grad_the_first_dense_weight_is_not_read(self):
        spec = nn.mlp_discriminator(2, [8, 8])
        y, tape = forward(spec, _store64(spec), np.ones((3, 2)))
        tape.input_grad = False
        tape.weights = {0: np.empty((0, 0))}  # g @ W would raise
        assert backward(tape, np.ones_like(y)) is None

    def test_no_layer_with_parameters(self):
        spec = NetworkSpec((3,), [relu(), tanh()])
        y, tape = forward(spec, _store64(spec), np.ones((2, 3)))
        tape.input_grad = False
        assert backward(tape, np.ones_like(y)) is None


class TestStackedPass:
    # one pass over stacked batches gives every row the output and input
    # gradient of a separate pass over its own batch, bit for bit. Its
    # parameter gradients are one sum over all rows: the separate passes'
    # sums up to float32 rounding, added onto the gradients already stored
    NETS = {
        "blobs16-d": lambda: nn.conv_discriminator(1, [16, 32], 16),
        "conv-layernorm": lambda: NetworkSpec((2, 8, 8), [conv2d(2, 4), layernorm(), relu(),
                                                          conv2d(4, 1, 4, 1, 0)]),
    }

    @staticmethod
    def _run(name, sizes, stacked, input_grad):
        spec = TestStackedPass.NETS[name]()
        assert nn.per_sample(spec)
        store = ParamStore(spec, seed=(0, 1))
        rng = np.random.default_rng(61)
        # every parameter at a scale where the ReLUs matter, and earlier
        # gradients in the store, which the passes must add to
        store.flat[:] = rng.standard_normal(store.flat.size) * 0.2
        store.grad_flat[:] = rng.standard_normal(store.flat.size)
        before = store.grad_flat.copy()
        xs = [rng.standard_normal((n, *spec.input_shape)).astype(np.float32) for n in sizes]
        gs = [rng.standard_normal((n, 1, 1, 1)).astype(np.float32) for n in sizes]
        if stacked:
            runs = [forward(spec, store, np.concatenate(xs)) + (np.concatenate(gs),)]
        else:
            runs = [forward(spec, store, x) + (g,) for x, g in zip(xs, gs)]
        dxs = []
        for _, tape, g in runs:
            tape.input_grad = input_grad
            dxs.append(backward(tape, g))
        ys = np.concatenate([y for y, _, _ in runs])
        dx = np.concatenate(dxs) if input_grad else None
        return ys, dx, store.grad_flat, before

    @pytest.mark.parametrize("input_grad", [False, True])
    @pytest.mark.parametrize("sizes", [(16, 16), (16, 5), (1, 7, 3)])
    @pytest.mark.parametrize("name", list(NETS))
    def test_stacked_pass_matches_separate_passes(self, name, sizes, input_grad):
        y, dx, grads, before = self._run(name, sizes, stacked=True, input_grad=input_grad)
        want_y, want_dx, want_grads, _ = self._run(name, sizes, stacked=False,
                                                   input_grad=input_grad)
        assert _same_bits(y, want_y)
        assert (dx is None) == (not input_grad)
        if input_grad:
            assert _same_bits(dx, want_dx)
        # about 5e-7 of the largest summed gradient apart on this seed
        scale = np.abs(want_grads - before).max()
        assert scale > 0
        assert np.abs(grads - want_grads).max() <= 1e-5 * scale


def _layernorm_reference(h, eps):
    # the formulas before the sums: np.mean and np.var, centring twice
    flat = h.reshape(h.shape[0], -1)
    mu = flat.mean(axis=1, keepdims=True)
    var = flat.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (flat - mu) * inv, inv


def _pixelnorm_reference(h, eps):
    return np.sqrt(np.mean(np.square(h), axis=1, keepdims=True) + eps)


class TestBitsAgainstReferenceFormulas:
    SHAPES = [(16, 2), (16, 3), (16, 64), (7, 1000), (16, 16, 8, 8), (4, 32, 4, 4)]

    @staticmethod
    def _draws(shape, dtype):
        # unit scale, an offset that makes centring cancel, and a tiny scale
        rng = np.random.default_rng(39)
        for loc, scale in ((0.0, 1.0), (300.0, 0.01), (0.0, 1e-3), (-2.0, 50.0)):
            yield (loc + scale * rng.standard_normal(shape)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layernorm_forward(self, shape, dtype):
        spec = NetworkSpec(shape[1:], [layernorm()])
        store = ParamStore(spec, seed=0, dtype=dtype)
        rng = np.random.default_rng(40)
        store.flat[...] = rng.standard_normal(store.flat.shape)
        gain = store.params[0]["g"].reshape(1, -1)
        bias = store.params[0]["b"].reshape(1, -1)
        for h in self._draws(shape, dtype):
            y, tape = forward(spec, store, h)
            xhat, inv = _layernorm_reference(h, nn.LAYERNORM_EPS)
            assert _same_bits(tape.entries[0][0], xhat)
            assert _same_bits(tape.entries[0][1], inv)
            assert _same_bits(y, (xhat * gain + bias).reshape(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES + [(16, 16, 1, 1)])
    def test_pixelnorm_forward(self, shape, dtype):
        spec = NetworkSpec(shape[1:], [pixelnorm()])
        store = ParamStore(spec, seed=0, dtype=dtype)
        for h in self._draws(shape, dtype):
            y, tape = forward(spec, store, h)
            scale = _pixelnorm_reference(h, nn.PIXELNORM_EPS)
            assert _same_bits(tape.entries[0][1], scale)
            assert _same_bits(y, h / scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [nn.LRELU_SLOPE, 0.01, 0.9])
    def test_lrelu_forward_and_backward(self, slope, dtype, monkeypatch):
        # np.maximum(h, slope * h) against np.where(h > 0, h, slope * h), at
        # signed zeros, infinities, NaNs of both signs, subnormals and extremes;
        # the other slopes check that the forward's reasoning holds at any
        # slope in (0, 1), not only at the constant's value
        monkeypatch.setattr(nn, "LRELU_SLOPE", slope)
        info = np.finfo(dtype)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max,
                 info.tiny, -info.tiny]
        edges += [k * info.smallest_subnormal for k in (1, -1, 2, -2, 5, -5, 1000, -1000)]
        rng = np.random.default_rng(42)
        x = np.concatenate([np.array(edges, dtype=dtype),
                            rng.standard_normal(200).astype(dtype)])[None]
        spec = NetworkSpec((x.shape[1],), [lrelu()])
        before = x.copy()
        with np.errstate(over="ignore"):
            y, tape = forward(spec, ParamStore(spec, dtype=dtype), x)
            want = np.where(x > 0, x, slope * x)
        assert np.isnan(x).sum() == 2 and np.signbit(x[np.isnan(x)]).sum() == 1
        assert _same_bits(y, want)
        # the maximum is written into slope * x, never into the input
        assert not np.shares_memory(y, x) and _same_bits(x, before)
        g = rng.standard_normal(x.shape).astype(dtype)
        g[0, :4] = [0.0, -0.0, np.inf, np.nan]
        assert _same_bits(backward(tape, g), np.where(x > 0, g, slope * g))

    @staticmethod
    def _store(spec, dtype):
        # nonzero biases, so the in-place bias add is seen
        store = ParamStore(spec, seed=0, dtype=dtype)
        store.flat[...] = np.random.default_rng(43).standard_normal(store.flat.shape)
        return store

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("override", [False, True])
    def test_dense_forward(self, override, dtype):
        spec = NetworkSpec((64,), [dense(64, 32)])
        store = self._store(spec, dtype)
        W = store.params[0]["W"] * dtype(0.5) if override else store.params[0]["W"]
        weights = {0: W} if override else None
        for h in self._draws((16, 64), dtype):
            before = h.copy()
            y, tape = forward(spec, store, h, weights)
            assert _same_bits(y, h @ W.T + store.params[0]["b"])
            assert tape.entries[0][0] is h and _same_bits(h, before)

    # (layer, per-sample input shape): strided, one-window and one-channel maps
    CONVS = [(conv2d(3, 8, 4, 2, 1), (3, 8, 8)), (conv2d(8, 1, 4, 1, 0), (8, 4, 4)),
             (convtranspose2d(16, 8, 4, 1, 0), (16, 1, 1)),
             (convtranspose2d(8, 4, 4, 2, 1), (8, 4, 4)),
             (convtranspose2d(4, 1, 4, 2, 1), (4, 8, 8))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer,shape", CONVS,
                             ids=[f"{c[0].kind}-{c[1][1]}-s{c[0].stride}" for c in CONVS])
    def test_conv_forward(self, layer, shape, dtype):
        spec = NetworkSpec(shape, [layer])
        store = self._store(spec, dtype)
        W, b = store.params[0]["W"], store.params[0]["b"].reshape(1, -1, 1, 1)
        k, s, p = layer.kernel, layer.stride, layer.padding
        for h in self._draws((5,) + shape, dtype):
            before = h.copy()
            y, _ = forward(spec, store, h)
            out_shape = (5,) + shape_plan(spec)[0]
            if layer.kind == "conv2d":
                conv = nn._conv(W, h, k, s, p)[0].reshape(out_shape)
            else:
                conv = nn._conv_adjoint(W, h, out_shape, k, s, p)
            assert _same_bits(y, conv + b)
            assert not np.shares_memory(y, h) and _same_bits(h, before)


class TestForwardMemory:
    # each layer runs in its own function, so what it makes for neither its
    # output nor its tape entry is freed before the next layer runs. Holding
    # every layer's temporaries to the end of forward peaked at 1.72e6 bytes
    # (MLP) and 1.91e6 bytes (conv) on numpy 2.4.6
    @staticmethod
    def _peak(spec, x):
        store = ParamStore(spec, seed=3)
        forward(spec, store, x)  # builds the cached gather tables
        tracemalloc.start()
        try:
            y, tape = forward(spec, store, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.dtype == np.float32 and len(tape.entries) == len(spec.layers)
        return peak

    def test_mlp_generator_over_1024_latents(self):
        # the evaluation pass that sets ring2d's peak RSS; about 1.19e6 bytes
        z = np.random.default_rng(44).standard_normal((1024, 8)).astype(np.float32)
        assert self._peak(nn.mlp_generator(8, [64, 64], 2), z) < 1.4e6

    def test_conv_generator_over_64_latents(self):
        # one blobs16 evaluation chunk; about 1.72e6 bytes
        z = np.random.default_rng(45).standard_normal((64, 16, 1, 1)).astype(np.float32)
        assert self._peak(nn.conv_generator(16, [32, 16], 1, 16), z) < 1.8e6


class TestGradients:
    def test_dense_grad_identity(self):
        # dL/dW = g x^T for y = W x
        spec = NetworkSpec((3,), [dense(3, 2)])
        store = _store64(spec)
        x = np.array([[1.0, 2.0, -1.0]])
        y, tape = forward(spec, store, x)
        g = np.array([[0.5, -2.0]])
        backward(tape, g)
        assert np.allclose(store.grads[0]["W"], g.T @ x)
        assert np.allclose(store.grads[0]["b"], g[0])

    def test_tanh_derivative_at_zero(self):
        spec = NetworkSpec((1,), [tanh()])
        store = _store64(spec)
        y, tape = forward(spec, store, np.zeros((1, 1)))
        dx = backward(tape, np.ones((1, 1)))
        assert dx[0, 0] == 1.0

    def test_dense_fd(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        _gradcheck_layer(NetworkSpec((3,), [dense(3, 5)]), x)

    def test_conv2d_fd(self):
        x = np.random.default_rng(1).standard_normal((2, 2, 5, 5))
        _gradcheck_layer(NetworkSpec((2, 5, 5), [conv2d(2, 3, kernel=3, stride=2, padding=1)]), x)

    def test_convtranspose2d_fd(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 3, 3))
        _gradcheck_layer(
            NetworkSpec((3, 3, 3), [convtranspose2d(3, 2, kernel=4, stride=2, padding=1)]), x)

    def test_lrelu_fd(self):
        x = _away_from_kinks(np.random.default_rng(3).standard_normal((4, 6)))
        _gradcheck_layer(NetworkSpec((6,), [lrelu()]), x)

    def test_relu_fd(self):
        x = _away_from_kinks(np.random.default_rng(4).standard_normal((4, 6)))
        _gradcheck_layer(NetworkSpec((6,), [relu()]), x)

    def test_tanh_fd(self):
        x = np.random.default_rng(5).standard_normal((4, 6))
        _gradcheck_layer(NetworkSpec((6,), [tanh()]), x)

    def test_layernorm_fd(self):
        x = np.random.default_rng(6).standard_normal((4, 6))
        _gradcheck_layer(NetworkSpec((6,), [layernorm()]), x)

    def test_layernorm_fd_conv_shape(self):
        x = np.random.default_rng(7).standard_normal((2, 3, 4, 4))
        _gradcheck_layer(NetworkSpec((3, 4, 4), [layernorm()]), x)

    def test_pixelnorm_fd(self):
        x = np.random.default_rng(8).standard_normal((4, 6))
        _gradcheck_layer(NetworkSpec((6,), [pixelnorm()]), x)

    def test_pixelnorm_fd_conv_shape(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 4, 4))
        _gradcheck_layer(NetworkSpec((3, 4, 4), [pixelnorm()]), x)

    def test_composite_mlp_generator_fd(self):
        x = np.random.default_rng(10).standard_normal((3, 4))
        _gradcheck_layer(nn.mlp_generator(4, [6], 2), x, seed=2)

    def test_composite_conv_discriminator_fd(self):
        x = np.random.default_rng(11).standard_normal((2, 1, 8, 8))
        _gradcheck_layer(nn.conv_discriminator(1, [3], 8), x, seed=3)

    def test_composite_conv_generator_fd(self):
        x = np.random.default_rng(12).standard_normal((2, 3, 1, 1))
        _gradcheck_layer(nn.conv_generator(3, [4], 1, 8), x, seed=4)


class TestFloat32ConvGradients:
    # blobs16 shapes at batch 16: D's 16->32 conv2d and G's 32->16 convtranspose2d
    @pytest.mark.parametrize("spec", [
        NetworkSpec((16, 8, 8), [conv2d(16, 32, kernel=4, stride=2, padding=1)]),
        NetworkSpec((32, 4, 4), [convtranspose2d(32, 16, kernel=4, stride=2, padding=1)]),
    ], ids=["conv2d", "convtranspose2d"])
    def test_float32_backward_matches_float64(self, spec):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((16, *spec.input_shape)).astype(np.float32)
        store32 = ParamStore(spec, seed=5, dtype=np.float32)
        store64 = _store64(spec, seed=5)
        store64.flat[...] = store32.flat
        y32, tape32 = forward(spec, store32, x)
        y64, tape64 = forward(spec, store64, x.astype(np.float64))
        c = rng.standard_normal(y32.shape).astype(np.float32)
        dx32 = backward(tape32, c)
        dx64 = backward(tape64, c.astype(np.float64))
        assert dx32.dtype == np.float32
        assert store32.grad_flat.dtype == np.float32
        assert rel_err(dx32, dx64) < 1e-5
        for name in ("W", "b"):
            assert rel_err(store32.grads[0][name], store64.grads[0][name]) < 1e-5


class TestArchitectures:
    def test_per_sample_means_no_dense_layer(self):
        assert not nn.per_sample(nn.mlp_discriminator(2, [8]))
        assert not nn.per_sample(nn.mlp_generator(4, [8], 2))
        assert nn.per_sample(nn.conv_generator(4, [8], 1, 8))

    def test_mlp_shapes(self):
        g = nn.mlp_generator(8, [32, 32], 2)
        assert nn.shape_plan(g)[-1] == (2,)
        d = nn.mlp_discriminator(2, [32, 32])
        assert nn.shape_plan(d)[-1] == (1,)
        assert sum(1 for L in d.layers if L.normalized) == 3

    def test_conv_shapes(self):
        g = nn.conv_generator(16, [12, 8], 1, 16)
        assert nn.shape_plan(g)[-1] == (1, 16, 16)
        d = nn.conv_discriminator(1, [8, 12], 16)
        assert nn.shape_plan(d)[-1] == (1, 1, 1)
        assert all(L.normalized for L in d.layers if L.kind == "conv2d")

    def test_full_scale_ladder_is_expressible(self):
        # 256x256 generator/discriminator with the production channel ladder
        g = nn.conv_generator(140, [384, 192, 96, 96, 48, 24], 3, 256)
        assert nn.shape_plan(g)[-1] == (3, 256, 256)
        d = nn.conv_discriminator(3, [24, 48, 96, 96, 192, 384], 256)
        assert nn.shape_plan(d)[-1] == (1, 1, 1)

    def test_channel_count_validation(self):
        with pytest.raises(ValueError):
            nn.conv_generator(8, [4], 1, 16)  # needs 2 entries
        with pytest.raises(ValueError):
            nn.conv_discriminator(1, [4, 4, 4], 16)
