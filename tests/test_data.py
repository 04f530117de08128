import re
import struct
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from abcas.data import (
    DatasetSpec,
    TensorFileError,
    generate_blobs,
    generate_ring2d,
    read_tensor_file,
    write_tensor_file,
)

from helpers import UNUSABLE_DATASETS, property_settings, raw_abt1, run_python


class TestRing2d:
    def test_single_tight_mode_sits_at_radius(self):
        x = generate_ring2d(200, k_modes=1, radius=2.0, sigma=1e-6, seed=0)
        assert np.allclose(x, [2.0, 0.0], atol=1e-4)

    def test_sample_mean_near_origin(self):
        x = generate_ring2d(4096, k_modes=8, radius=2.0, sigma=0.1, seed=1)
        bound = 3.0 * x.std(axis=0) / np.sqrt(len(x))
        assert np.all(np.abs(x.mean(axis=0)) <= bound)

    def test_deterministic_under_seed(self):
        a = generate_ring2d(128, seed=7)
        b = generate_ring2d(128, seed=7)
        assert np.array_equal(a, b)
        c = generate_ring2d(128, seed=8)
        assert not np.array_equal(a, c)

    def test_dtype_and_shape(self):
        x = generate_ring2d(10)
        assert x.shape == (10, 2)
        assert x.dtype == np.float32


class TestBlobs:
    def test_range_and_shape(self):
        imgs = generate_blobs(16, img_size=16, seed=0)
        assert imgs.shape == (16, 1, 16, 16)
        assert imgs.dtype == np.float32
        assert imgs.min() >= -1.0
        assert imgs.max() <= 1.0
        assert np.all(np.isfinite(imgs))

    def test_deterministic(self):
        assert np.array_equal(generate_blobs(8, 8, seed=3), generate_blobs(8, 8, seed=3))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("img_size", [8, 16, 32])
    @pytest.mark.parametrize("n", [2, 17, 2048])
    def test_matches_whole_array_expression_bitwise(self, n, img_size, seed):
        # the images are built in place, ufunc by ufunc; this is the
        # expression they replace, with a temporary per operation
        rng = np.random.default_rng([seed, 202])
        cx = rng.uniform(0.0, img_size, size=n)
        cy = rng.uniform(0.0, img_size, size=n)
        yy, xx = np.mgrid[0:img_size, 0:img_size].astype(np.float64)
        tau = img_size / 6.0
        d2 = (xx[None] - cx[:, None, None]) ** 2 + (yy[None] - cy[:, None, None]) ** 2
        want = (2.0 * np.exp(-d2 / (2.0 * tau * tau)) - 1.0)[:, None].astype(np.float32)
        got = generate_blobs(n, img_size, seed)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_center_uniformity_chi_square(self):
        # brightest pixel tracks the bump center; counts over a 4x4 grid
        imgs = generate_blobs(1000, img_size=16, seed=5)
        flat = imgs[:, 0].reshape(1000, -1).argmax(axis=1)
        rows, cols = np.divmod(flat, 16)
        cell = (rows // 4) * 4 + (cols // 4)
        counts = np.bincount(cell, minlength=16)
        chi2 = float(((counts - 62.5) ** 2 / 62.5).sum())
        assert stats.chi2.sf(chi2, df=15) > 0.001


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(dataset="nope").validate()
        with pytest.raises(ValueError):
            DatasetSpec(dataset="ring2d", ring_modes=0).validate()
        with pytest.raises(ValueError):
            DatasetSpec(dataset="ring2d", ring_sigma=0.0).validate()
        with pytest.raises(ValueError):
            DatasetSpec(dataset="blobs", img_size=12).validate()
        with pytest.raises(ValueError):
            DatasetSpec(dataset="file").validate()

    def test_unresolved_data_seed_is_refused(self):
        # -1 follows the run seed, which only Settings.dataset_spec() knows
        with pytest.raises(ValueError, match="^data_seed must be resolved"):
            DatasetSpec(data_seed=-1).load()

    def test_load_roundtrip_through_file(self, tmp_path):
        x = generate_ring2d(32, seed=0)
        path = tmp_path / "ds.abt"
        write_tensor_file(path, x)
        spec = DatasetSpec(dataset="file", data_path=str(path))
        assert np.array_equal(spec.load(), x)

    @pytest.mark.parametrize("rows", list(UNUSABLE_DATASETS.values()),
                             ids=list(UNUSABLE_DATASETS))
    def test_unusable_file_is_a_tensor_file_error(self, tmp_path, rows):
        path = tmp_path / "ds.abt"
        path.write_bytes(raw_abt1(rows))
        with pytest.raises(TensorFileError, match=re.escape(str(path))):
            DatasetSpec(dataset="file", data_path=str(path)).load()

    @pytest.mark.parametrize("shape", [(64, 0), (64, 3, 0)])
    def test_samples_without_values_are_refused(self, tmp_path, shape):
        # such a dataset trained to status ok, with mmd2 0 on every row
        path = tmp_path / "ds.abt"
        path.write_bytes(raw_abt1(np.zeros(shape, np.float32)))
        with pytest.raises(TensorFileError, match=re.escape(
                f"{path}: need at least one value per sample, sample shape is {shape[1:]}")):
            DatasetSpec(dataset="file", data_path=str(path)).load()

    @pytest.mark.parametrize("radius,sigma", [(0.7, 1e300), (1e39, 0.05)])
    def test_overflowing_ring_is_an_error_naming_its_keys(self, radius, sigma):
        # finite settings whose samples overflow float32
        with pytest.raises(ValueError, match="ring_radius .* and ring_sigma .* non-finite"):
            DatasetSpec(dataset="ring2d", dataset_size=64, data_seed=0, ring_radius=radius,
                        ring_sigma=sigma).load()


class TestTensorFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2)).astype(np.float32)
        p = tmp_path / "t.abt"
        write_tensor_file(p, x)
        y = read_tensor_file(p)
        assert y.dtype == np.float32
        assert np.array_equal(x, y)
        assert x.tobytes() == y.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.abt"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(TensorFileError, match=r": bad magic b'NOPE'$"):
            read_tensor_file(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.abt"
        write_tensor_file(p, np.ones((4, 4), np.float32))
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(TensorFileError, match=r": payload has 56 bytes, expected 64$"):
            read_tensor_file(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.abt"
        p.write_bytes(b"ABT1\x00")
        with pytest.raises(TensorFileError, match=r": header truncated$"):
            read_tensor_file(p)

    def test_unknown_dtype(self, tmp_path):
        p = tmp_path / "t.abt"
        p.write_bytes(b"ABT1" + struct.pack("<BB", 9, 1) + struct.pack("<I", 1) + bytes(4))
        with pytest.raises(TensorFileError, match=r": unknown dtype code 9$"):
            read_tensor_file(p)

    def test_extent_overflow_rejected(self, tmp_path):
        p = tmp_path / "t.abt"
        p.write_bytes(b"ABT1" + struct.pack("<BB", 0, 2) + struct.pack("<II", 2**20, 2**12))
        with pytest.raises(TensorFileError, match=r": 4294967296 elements exceed the 2\^31 cap$"):
            read_tensor_file(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.abt"
        write_tensor_file(p, np.ones(2, np.float32))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(TensorFileError):
            read_tensor_file(p)

    def test_read_holds_the_payload_at_most_twice(self, tmp_path):
        # the file's bytes and the returned array; a slice copy of the
        # payload between them would make it three times. The peak is the fresh
        # interpreter's VmHWM: its ru_maxrss starts at this process's peak,
        # which a child inherits across fork and exec
        p = tmp_path / "big.abt"
        count = 10_000_000
        write_tensor_file(p, np.ones(count, np.float32))
        growth = run_python(textwrap.dedent(f"""
            import re
            from abcas.data import read_tensor_file

            def peak_kb():
                with open("/proc/self/status") as fh:
                    return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

            before = peak_kb()
            read_tensor_file({str(p)!r})
            print(peak_kb() - before)
        """))
        assert 1024 * int(growth) < 2.5 * 4 * count

    def test_non_finite_payload_rejected_at_write(self, tmp_path):
        p = tmp_path / "t.abt"
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^non-finite values in tensor payload for "
                                                 f"{re.escape(str(p))}$"):
                write_tensor_file(p, np.array([1.0, bad], np.float32))
        assert not p.exists()


FLOAT32_TENSORS = hnp.arrays(
    np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    elements=st.floats(-1e6, 1e6, width=32))


class TestTensorFileProperties:
    @property_settings(25)
    @given(arr=FLOAT32_TENSORS)
    def test_every_strict_prefix_is_a_tensor_file_error(self, tmp_path_factory, arr):
        # this reaches the truncated-magic, -header, -extents and -payload branches
        d = tmp_path_factory.mktemp("prefix")
        write_tensor_file(d / "whole.abt", arr)
        blob = (d / "whole.abt").read_bytes()
        for k in range(len(blob)):
            (d / "cut.abt").write_bytes(blob[:k])
            with pytest.raises(TensorFileError):
                read_tensor_file(d / "cut.abt")

    @property_settings(300)
    @given(arr=FLOAT32_TENSORS, data=st.data())
    def test_a_changed_byte_is_refused_or_read_as_float32(self, tmp_path_factory, arr, data):
        d = tmp_path_factory.mktemp("byte")
        write_tensor_file(d / "t.abt", arr)
        blob = bytearray((d / "t.abt").read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]), label="value")
        (d / "t.abt").write_bytes(bytes(blob))
        try:
            out = read_tensor_file(d / "t.abt")
        except TensorFileError:
            return
        assert out.dtype == np.float32
