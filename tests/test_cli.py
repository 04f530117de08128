from pathlib import Path

import numpy as np
import pytest

from abcas import cli, train
from abcas.config import build_networks, load_settings
from abcas.data import read_tensor_file, write_tensor_file
from abcas.metrics import CSV_HEADER, MetricsRecord
from abcas.nn import ParamStore, forward
from abcas.train import NumericAbort

from helpers import ABORT_SITES, UNUSABLE_DATASETS, break_training_at, raw_abt1, run_python


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

UNUSABLE_DATA = pytest.mark.parametrize("rows", list(UNUSABLE_DATASETS.values()),
                                        ids=list(UNUSABLE_DATASETS))


TINY_CFG = """
dataset = ring2d
dataset_size = 128
steps = 40
batch_size = 8
eval_every = 10
eval_samples = 32
latent_dim = 4
g_hidden = 8,8
d_hidden = 8,8
seed = 2
"""

TINY_CONV_CFG = """
dataset = blobs
img_size = 8
dataset_size = 64
arch = conv
g_channels = 4
d_channels = 4
steps = 6
batch_size = 4
eval_every = 3
eval_samples = 8
latent_dim = 4
seed = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def _disk_full_at_step_20(monkeypatch):
    # the step-20 checkpoint's first write fails as on a full disk
    real = cli.write_tensor_file

    def write(path, arr):
        if Path(path).parent.name == "step_000020":
            raise OSError(28, "No space left on device")
        real(path, arr)

    monkeypatch.setattr(cli, "write_tensor_file", write)


def _csv_lines_without_wall(path):
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestTrainCommand:
    def test_smoke_run_exits_zero_and_writes_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "status.txt").read_text() == "ok\n"
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 42  # header + step-0 row + 40 steps
        assert (out / "samples.abt").exists()
        assert (out / "manifest.cfg").exists()
        ckpts = sorted((out / "checkpoints").iterdir())
        assert ckpts and ckpts[0].name == "step_000000"
        arr = read_tensor_file(out / "samples.abt")
        assert arr.shape == (32, 2)

    def test_minimal_config_runs_default_thousand_steps(self, tmp_path):
        # an all-defaults config trains the ring for 1000 steps and exits 0
        cfg = tmp_path / "minimal.cfg"
        cfg.write_text("dataset = ring2d\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1001
        assert rows[-1].split(",")[0] == "1000"

    def test_fixed_mode_logs_constant_m_column(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(tiny_config), "--out", str(out),
                         "--mode", "fixed", "--m", "1.0"])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[7] == "1" for row in rows)

    def test_determinism_identical_csv_minus_wall_ms(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(a)]) == 0
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(b)]) == 0
        assert _csv_lines_without_wall(a / "metrics.csv") == \
            _csv_lines_without_wall(b / "metrics.csv")

    def test_manifest_reproduces_run(self, tiny_config, tmp_path):
        a = tmp_path / "a"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(a)]) == 0
        b = tmp_path / "b"
        assert cli.main(["train", "--config", str(a / "manifest.cfg"), "--out", str(b)]) == 0
        assert _csv_lines_without_wall(a / "metrics.csv") == \
            _csv_lines_without_wall(b / "metrics.csv")

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == 1
        missing = tmp_path / "missing.cfg"
        assert cli.main(["train", "--config", str(missing)]) == 1

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(TINY_CFG.encode() + b"# caf\xe9\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"abcas: config error: cannot read config {cfg}: 'utf-8' codec")
        assert "Traceback" not in err
        assert not out.exists()

    def test_broken_dataset_file_exit_code(self, tmp_path):
        blob = tmp_path / "data.abt"
        blob.write_bytes(b"NOPE" + bytes(32))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"dataset = file\ndata_path = {blob}\nsteps = 5\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1

    @UNUSABLE_DATA
    def test_unusable_dataset_file_is_a_config_error(self, tmp_path, capsys, rows):
        blob = tmp_path / "data.abt"
        blob.write_bytes(raw_abt1(rows))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(TINY_CFG.replace("dataset = ring2d", f"dataset = file\ndata_path = {blob}"))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "abcas: config error" in err and str(blob) in err

    def test_out_of_range_number_is_a_config_error(self, tmp_path, capsys):
        # beta2 = 1 would divide by zero in Adam's bias correction
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + "\nbeta2 = 1\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("abcas: config error: beta2 must be in [0, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-3"])
    def test_adaptive_m_out_of_range_is_a_config_error(self, tmp_path, capsys, value):
        # it used to run to ok and write the bad m to manifest.cfg
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + f"\nmode = adaptive\nm = {value}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("abcas: config error: m must be in (0, 1]")
        assert not out.exists()

    def test_data_seed_below_minus_one_is_a_config_error(self, tmp_path, capsys):
        # it used to run to ok, follow the run seed and write -7 to manifest.cfg
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + "\ndata_seed = -7\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("abcas: config error: data_seed must be")
        assert not out.exists()

    def test_shorter_rerun_leaves_only_its_own_checkpoints(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        short = tmp_path / "short.cfg"
        short.write_text(TINY_CFG + "\nsteps = 20\n")
        assert cli.main(["train", "--config", str(short), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == \
            ["step_000000", "step_000010", "step_000020"]
        assert len((out / "metrics.csv").read_text().strip().splitlines()) == 22

    def test_rerun_that_raises_mid_training_leaves_no_status(self, tiny_config, tmp_path,
                                                            monkeypatch):
        # a finished run's status.txt and samples.abt must not vouch for a rerun
        # that died part way
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        real = cli.run_training

        def failing(cfg, baseline, d_spec, hooks):
            def on_eval(step, g_store, d_store):
                hooks.on_eval(step, g_store, d_store)
                if step == 20:
                    raise RuntimeError("killed")
            return real(cfg, baseline, d_spec,
                        hooks=train.TrainHooks(on_record=hooks.on_record, on_eval=on_eval))

        monkeypatch.setattr(cli, "run_training", failing)
        with pytest.raises(RuntimeError, match="killed"):
            cli.main(["train", "--config", str(tiny_config), "--out", str(out)])
        assert not (out / "status.txt").exists()
        assert not (out / "samples.abt").exists()
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == \
            ["step_000000", "step_000010", "step_000020"]

    def test_config_error_leaves_an_existing_run_as_it_was(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG + "\ndataset = file\ndata_path = " + str(tmp_path / "gone.abt") + "\n")
        assert cli.main(["train", "--config", str(bad), "--out", str(out)]) == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_write_failure_is_an_io_error(self, tiny_config, tmp_path, capsys, monkeypatch):
        # it used to be reported as a config error with exit 1
        _disk_full_at_step_20(monkeypatch)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "abcas: I/O error: [Errno 28] No space left on device\n"
        assert not (out / "status.txt").exists()

    def test_checkpoint_finds_the_rows_up_to_the_last_one_on_disk(self, tiny_config, tmp_path,
                                                                   monkeypatch):
        # with the clock stopped, rows are written with each checkpoint's row,
        # so the checkpoint of step k + eval_every finds rows 0..k complete
        monkeypatch.setattr(cli, "monotonic", lambda: 0.0)
        out = tmp_path / "run"
        seen = {}
        real = cli.write_tensor_file

        def write(path, arr):
            if Path(path).name == "g.abt":
                seen[int(Path(path).parent.name[len("step_"):])] = \
                    (out / "metrics.csv").read_text()
            real(path, arr)

        monkeypatch.setattr(cli, "write_tensor_file", write)
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
        assert sorted(seen) == [0, 10, 20, 30, 40]
        for step, text in seen.items():
            assert text == "".join(lines[:2 + max(step - 10, 0)])

    def test_rows_reach_disk_a_second_after_the_last_write(self, tmp_path, monkeypatch):
        # no checkpoint between steps 0 and 40, and the clock reads step / 8 s
        cfg = tmp_path / "long.cfg"
        cfg.write_text(TINY_CFG + "\neval_every = 1000\n")
        out = tmp_path / "run"
        now = [0.0]
        monkeypatch.setattr(cli, "monotonic", lambda: now[0])
        on_disk = {}
        real = cli.TrainHooks

        def hooks(on_record, on_eval):
            def record(rec):
                now[0] = rec.step / 8
                on_record(rec)
                on_disk[rec.step] = len((out / "metrics.csv").read_text().splitlines()) - 1
            return real(on_record=record, on_eval=on_eval)

        monkeypatch.setattr(cli, "TrainHooks", hooks)
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        written = [step for step in range(41) if step % 8 == 0 or step == 40]
        assert on_disk == {step: 1 + max(w for w in written if w <= step) for step in range(41)}

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       RuntimeError("killed")], ids=["OSError", "RuntimeError"])
    def test_error_between_checkpoints_leaves_every_emitted_row(self, tiny_config, tmp_path,
                                                               monkeypatch, error):
        # rows 11..15 wait for a write when step 15's row raises; the way out writes them
        ref = tmp_path / "ref"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(ref)]) == 0
        monkeypatch.setattr(cli, "monotonic", lambda: 0.0)
        real = cli.run_training

        def failing(cfg, baseline, d_spec, hooks):
            def on_record(rec):
                hooks.on_record(rec)
                if rec.step == 15:
                    raise error
            return real(cfg, baseline, d_spec,
                        hooks=train.TrainHooks(on_record=on_record, on_eval=hooks.on_eval))

        monkeypatch.setattr(cli, "run_training", failing)
        out = tmp_path / "run"
        if isinstance(error, OSError):
            assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 3
        else:
            with pytest.raises(RuntimeError, match="killed"):
                cli.main(["train", "--config", str(tiny_config), "--out", str(out)])
        assert _csv_lines_without_wall(out / "metrics.csv") == \
            _csv_lines_without_wall(ref / "metrics.csv")[:17]

    def test_missing_data_path_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "file.cfg"
        gone = tmp_path / "gone.abt"
        cfg.write_text(TINY_CFG.replace("dataset = ring2d", f"dataset = file\ndata_path = {gone}"))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("abcas: config error: ") and str(gone) in err

    # the conv generator's widest layer holds 64 floats a sample: 3 fit the bound
    @pytest.mark.parametrize("cfg_text,chunk_bytes,chunks",
                             [(TINY_CFG, None, [32]), (TINY_CONV_CFG, 3 * 64 * 4, [3, 3, 2])],
                             ids=["mlp", "conv"])
    def test_checkpoint_restores_the_final_generator(self, tmp_path, monkeypatch, cfg_text,
                                                     chunk_bytes, chunks):
        # each checkpoint is g.abt and d.abt, each its network's flat vector;
        # restoring the last g.abt must regenerate samples.abt byte for byte
        # in one forward pass, also where the run generated it in chunks
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "run"
        if chunk_bytes:
            monkeypatch.setattr(train, "EVAL_CHUNK_BYTES", chunk_bytes)
        sizes = []

        def counting_forward(spec, store, x):
            sizes.append(len(x))
            return forward(spec, store, x)

        monkeypatch.setattr(cli, "forward", counting_forward)
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert sizes == chunks
        settings = load_settings(out / "manifest.cfg")
        ckpts = sorted((out / "checkpoints").iterdir())
        assert ckpts[-1].name == f"step_{settings.train.steps:06d}"
        for ckpt in ckpts:
            assert {p.name for p in ckpt.iterdir()} == {"g.abt", "d.abt"}
        data = settings.dataset_spec().load()
        g_spec, d_spec = build_networks(settings, tuple(data.shape[1:]))
        assert read_tensor_file(ckpts[-1] / "d.abt").shape == ParamStore(d_spec).flat.shape
        store = ParamStore(g_spec)
        store.flat[:] = read_tensor_file(ckpts[-1] / "g.abt")
        z = train.sample_latent(np.random.default_rng([settings.train.seed, 7]),
                                settings.train.eval_samples, g_spec)
        write_tensor_file(tmp_path / "samples.abt", forward(g_spec, store, z)[0])
        assert (tmp_path / "samples.abt").read_bytes() == (out / "samples.abt").read_bytes()

    def test_overflowing_generated_data_is_a_config_error(self, tmp_path, capsys):
        # ring_sigma = 1e300 is finite, but its float32 samples are not
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + "\nring_sigma = 1e300\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("abcas: config error: ") and "ring_sigma = 1e+300" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_numeric_abort_exit_code(self, tiny_config, tmp_path, monkeypatch):
        def exploding(cfg, baseline, d_spec, hooks=None):
            if hooks and hooks.on_record:
                hooks.on_record(MetricsRecord(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.1))
            raise NumericAbort(3, None, "discriminator loss")

        monkeypatch.setattr(cli, "run_training", exploding)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert (out / "status.txt").read_text().startswith("aborted step 3")

    def test_non_finite_step_zero_eval_sample_exits_two(self, tiny_config, tmp_path,
                                                        monkeypatch, capsys):
        def nan_latent(rng, n, spec):
            return np.full((n, *spec.input_shape), np.nan, np.float32)
        monkeypatch.setattr(train, "sample_latent", nan_latent)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert (out / "status.txt").read_text() == "aborted step 0\n"
        err = capsys.readouterr().err
        assert "non-finite generated evaluation sample at step 0" in err
        assert "Traceback" not in err

    def test_unknown_arch_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + "\narch = resnet\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "abcas: config error: arch must be mlp or conv, got 'resnet'\n"
        assert not out.exists()

    @pytest.mark.parametrize("shape,message", [
        ((4, 1, 8, 6), "arch = conv needs square (C, S, S) samples, got (1, 8, 6)"),
        ((4, 1, 12, 12), "img_size must be 4 * 2^k with k >= 1, got 12"),
    ], ids=["non-square", "12x12"])
    def test_conv_on_unusable_file_images_is_a_config_error(self, tmp_path, capsys,
                                                            shape, message):
        blob = tmp_path / "data.abt"
        write_tensor_file(blob, np.zeros(shape, np.float32))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(TINY_CONV_CFG.replace("dataset = blobs",
                                             f"dataset = file\ndata_path = {blob}"))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"abcas: config error: {message}\n"
        assert not out.exists()

    def test_seed_flag_matches_seed_in_the_config(self, tiny_config, tmp_path):
        flag, keyed = tmp_path / "flag", tmp_path / "keyed"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(flag),
                         "--seed", "3"]) == 0
        cfg = tmp_path / "seed3.cfg"
        cfg.write_text(TINY_CFG.replace("seed = 2", "seed = 3"))
        assert cli.main(["train", "--config", str(cfg), "--out", str(keyed)]) == 0
        assert "seed = 3" in (flag / "manifest.cfg").read_text().splitlines()
        assert load_settings(flag / "manifest.cfg").train.seed == 3
        assert _csv_lines_without_wall(flag / "metrics.csv") == \
            _csv_lines_without_wall(keyed / "metrics.csv")

    @pytest.mark.parametrize("site", list(ABORT_SITES))
    def test_abort_site_exits_two_and_names_the_last_row(self, tiny_config, tmp_path,
                                                         monkeypatch, capsys, site):
        what, step = ABORT_SITES[site]
        break_training_at(monkeypatch, site)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert (out / "status.txt").read_text() == f"aborted step {step}\n"
        last_row = (out / "metrics.csv").read_text().splitlines()[-1]
        assert last_row.startswith(f"{step - 1},")
        assert capsys.readouterr().err == (f"abcas: non-finite {what} at step {step}\n"
                                           f"abcas: last finite record: {last_row}\n")

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; the run path must not import it
        code = ("import abcas.cli, sys; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        assert run_python(code) == "[]"

    def test_short_train_loads_no_scipy_or_numpy_ma(self, tiny_config, tmp_path):
        # np.median would import numpy.ma on its first call: about 18 ms and
        # 0.8 MB of peak RSS that the bandwidth's own selection avoids
        code = ("import sys; from abcas import cli; "
                f"code = cli.main(['train', '--config', {str(tiny_config)!r}, "
                f"'--out', {str(tmp_path / 'run')!r}]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m == 'numpy.ma' or m.startswith('numpy.ma.')))")
        assert run_python(code) == "0 []"


class TestSweepCommand:
    # the settings of _sweep_config and the train flags that give each one
    TRAIN_FLAGS = (("fixed_m0.7", ["--mode", "fixed", "--m", "0.7"]),
                   ("fixed_m1", ["--mode", "fixed", "--m", "1"]),
                   ("abcas_beta4", ["--mode", "adaptive", "--beta", "4"]))

    def _sweep_config(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7,1.0\nsweep_abcas_beta = 4\n")
        return path

    def test_sweep_rows_and_subdirs(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "setting,mode,m,beta,status,best_mmd2,best_step"
        assert len(lines) == 4  # three settings
        assert {line.split(",")[0] for line in lines[1:]} == \
            {"fixed_m0.7", "fixed_m1", "abcas_beta4"}
        for sub in ("fixed_m0.7", "fixed_m1", "abcas_beta4"):
            assert (out / sub / "metrics.csv").exists()

    def test_summary_best_matches_rescan(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        for line in (out / "summary.csv").read_text().strip().splitlines()[1:]:
            setting, _, _, _, _, best_mmd2, best_step = line.split(",")
            rows = (out / setting / "metrics.csv").read_text().strip().splitlines()[1:]
            col = [float(r.split(",")[8]) for r in rows]
            steps = [int(r.split(",")[0]) for r in rows]
            assert float(best_mmd2) == min(col)
            assert int(best_step) == steps[int(np.argmin(col))]

    def test_resume_skips_finished_settings(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        mtimes = {p: (out / p / "metrics.csv").stat().st_mtime_ns
                  for p in ("fixed_m0.7", "fixed_m1", "abcas_beta4")}
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        for p, t in mtimes.items():
            assert (out / p / "metrics.csv").stat().st_mtime_ns == t
        assert (out / "summary.csv").exists()

    def test_resume_reruns_settings_that_failed_on_a_replaced_dataset(self, tmp_path, capsys):
        # every setting of a sweep over a file that is not ABT1 fails with a
        # config error; once the file is a valid tensor, --resume runs them
        blob = tmp_path / "data.abt"
        blob.write_bytes(b"not a tensor file")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG.replace("dataset = ring2d", f"dataset = file\ndata_path = {blob}")
                       + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta = 4\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["config_error"] * 2
        write_tensor_file(blob, np.random.default_rng(0).standard_normal((128, 2)).astype(np.float32))
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert "skipped" not in capsys.readouterr().out
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["ok"] * 2
        assert all(line.split(",")[5] for line in lines)

    @pytest.mark.parametrize("status, reruns", [
        (b"ok\n", False), (b"aborted step 3\n", False), (b"config error\n", True),
        (b"io error\n", True), (b"", True), (b"aborted step\n", True), (b"\xff\xfe\n", True)],
        ids=["ok", "aborted", "config_error", "io_error", "empty", "no_step", "undecodable"])
    def test_resume_skips_only_a_finished_status(self, tmp_path, capsys, status, reruns):
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "fixed_m1" / "status.txt").write_bytes(status)
        metrics = out / "fixed_m1" / "metrics.csv"
        metrics.write_text(CSV_HEADER + "\n")
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        printed = capsys.readouterr().out
        for label in ("fixed_m0.7", "abcas_beta4"):
            assert f"abcas sweep: {label}: skipped (already ok)\n" in printed
        assert ("abcas sweep: fixed_m1: ok\n" in printed) == reruns
        assert ("abcas sweep: fixed_m1: skipped" in printed) != reruns
        assert (metrics.read_text() != CSV_HEADER + "\n") == reruns
        line = (out / "summary.csv").read_text().strip().splitlines()[2]
        assert line.split(",")[4] == ("ok" if reruns else status.decode().strip().replace(" ", "_"))

    @pytest.mark.parametrize("change, reruns", [
        ("none", ()), ("steps", ("fixed_m0.7", "fixed_m1", "abcas_beta4")),
        ("new_value", ("fixed_m0.5",)), ("no_manifest", ("fixed_m1",)),
        ("undecodable_manifest", ("fixed_m1",))],
        ids=["none", "steps", "new_value", "no_manifest", "undecodable_manifest"])
    def test_resume_reruns_each_setting_whose_config_changed(self, tmp_path, capsys, change,
                                                             reruns):
        # a finished setting is skipped only when its manifest.cfg is the one
        # this config gives it, apart from the lines of the sweep's own values
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / "fixed_m1" / "manifest.cfg"
        if change == "steps":
            cfg.write_text(cfg.read_text() + "steps = 20\n")
        elif change == "new_value":
            cfg.write_text(cfg.read_text() + "sweep_fixed_m = 0.7,1.0,0.5\n")
        elif change == "no_manifest":
            manifest.unlink()
        elif change == "undecodable_manifest":
            manifest.write_bytes(b"\xff\xfe\n")
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        printed = capsys.readouterr().out
        labels = [line.split(",")[0]
                  for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert set(reruns) <= set(labels)
        steps = 20 if change == "steps" else 40
        for label in labels:
            status = "ok" if label in reruns else "skipped (already ok)"
            assert f"abcas sweep: {label}: {status}\n" in printed
            assert f"\nsteps = {steps}\n" in (out / label / "manifest.cfg").read_text()
            rows = (out / label / "metrics.csv").read_text().splitlines()
            assert rows[-1].split(",")[0] == str(steps)

    def test_settings_match_single_train_runs(self, tmp_path):
        # the settings share one dataset and step-0 baseline; each must still
        # write exactly what `abcas train` writes with the same overrides
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for label, flags in self.TRAIN_FLAGS:
            single = tmp_path / "train" / label
            assert cli.main(["train", "--config", str(cfg), "--out", str(single)] + flags) == 0
            swept = out / label
            assert (_csv_lines_without_wall(swept / "metrics.csv")
                    == _csv_lines_without_wall(single / "metrics.csv"))
            files = sorted(p.relative_to(single) for p in single.rglob("*")
                           if p.is_file() and p.name != "metrics.csv")
            assert files == sorted(p.relative_to(swept) for p in swept.rglob("*")
                                   if p.is_file() and p.name != "metrics.csv")
            assert Path("samples.abt") in files and Path("manifest.cfg") in files
            assert ({f.parts[1] for f in files if f.parts[0] == "checkpoints"}
                    == {f"step_{step:06d}" for step in range(0, 41, 10)})
            for f in files:
                assert (swept / f).read_bytes() == (single / f).read_bytes(), f

    @pytest.mark.parametrize("edit", ["ring_sigma = 0.2", "g_hidden = 16,16"])
    def test_config_edited_during_the_sweep_changes_no_setting(self, tmp_path, monkeypatch, edit):
        # the sweep reads its config once. A setting that re-read it trained a
        # ring_sigma edit on the first read's data under a manifest of the
        # edit, and a g_hidden edit did not fit the shared baseline
        cfg = self._sweep_config(tmp_path)
        text = cfg.read_text()
        out = tmp_path / "sw"
        with monkeypatch.context() as patch:
            run_one = cli._run_one

            def run_then_edit(*args):
                status = run_one(*args)
                cfg.write_text(text + edit + "\n")
                return status
            patch.setattr(cli, "_run_one", run_then_edit)
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert edit in cfg.read_text()
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["ok"] * 3
        cfg.write_text(text)
        for label, flags in self.TRAIN_FLAGS:
            single = tmp_path / "train" / label
            assert cli.main(["train", "--config", str(cfg), "--out", str(single)] + flags) == 0
            assert ((out / label / "manifest.cfg").read_bytes()
                    == (single / "manifest.cfg").read_bytes()), label
            assert (_csv_lines_without_wall(out / label / "metrics.csv")
                    == _csv_lines_without_wall(single / "metrics.csv")), label

    def test_bad_values_fail_only_their_own_settings(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 2,0.5,nan\nsweep_abcas_beta = -1,inf\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == \
            ["config_error", "ok", "config_error", "config_error", "config_error"]
        assert lines[1].split(",")[0] == "fixed_m0.5"
        assert capsys.readouterr().err == (
            "abcas sweep: fixed_m2: config error: m must be in (0, 1], got 2.0\n"
            "abcas sweep: fixed_mnan: config error: m must be in (0, 1], got nan\n"
            "abcas sweep: abcas_beta-1: config error: beta must be positive and finite, got -1.0\n"
            "abcas sweep: abcas_betainf: config error: beta must be positive and finite, got inf\n")
        for sub in ("fixed_m2", "fixed_mnan", "abcas_beta-1", "abcas_betainf"):
            assert (out / sub / "status.txt").read_text() == "config error\n"
        assert (out / "fixed_m0.5" / "status.txt").read_text() == "ok\n"

    def test_non_finite_step_zero_eval_sample_aborts_each_setting(self, tmp_path,
                                                                 monkeypatch, capsys):
        # the settings share the step-0 abort as they share the baseline: one
        # evaluation sample, and each setting writes what a lone step-0 abort writes
        calls = []

        def nan_latent(rng, n, spec):
            calls.append(n)
            return np.full((n, *spec.input_shape), np.nan, np.float32)
        monkeypatch.setattr(train, "sample_latent", nan_latent)
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == [32]
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[4:] for line in lines] == [["aborted_step_0", "", ""]] * 3
        for sub in ("fixed_m0.7", "fixed_m1", "abcas_beta4"):
            assert sorted(p.name for p in (out / sub).iterdir()) == \
                ["manifest.cfg", "metrics.csv", "status.txt"]
            assert (out / sub / "metrics.csv").read_text() == CSV_HEADER + "\n"
            assert (out / sub / "status.txt").read_text() == "aborted step 0\n"
        err = capsys.readouterr().err
        assert err.count("non-finite generated evaluation sample at step 0") == 3
        assert "Traceback" not in err

    @UNUSABLE_DATA
    def test_unusable_dataset_file_fails_each_setting(self, tmp_path, rows):
        blob = tmp_path / "data.abt"
        blob.write_bytes(raw_abt1(rows))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG.replace("dataset = ring2d", f"dataset = file\ndata_path = {blob}")
                       + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta = 4\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["config_error", "config_error"]
        for sub in ("fixed_m0.7", "abcas_beta4"):
            assert (out / sub / "status.txt").read_text() == "config error\n"

    def test_failed_rerun_reports_no_stale_best(self, tmp_path):
        # the settings' metrics.csv files are the earlier run's and must not
        # fill best_mmd2 / best_step of a setting that failed, resumed or not
        cfg = self._sweep_config(tmp_path)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        cfg.write_text(cfg.read_text() + f"\ndataset = file\ndata_path = {tmp_path / 'gone.abt'}\n")
        for extra in ([], ["--resume"]):
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)] + extra) == 0
            lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
            assert [line.split(",")[4:] for line in lines] == [["config_error", "", ""]] * 3

    def test_write_failure_is_an_io_error_with_its_own_best(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        _disk_full_at_step_20(monkeypatch)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "abcas sweep: fixed_m0.7: I/O error: [Errno 28]" in capsys.readouterr().err
        assert (out / "fixed_m0.7" / "status.txt").read_text() == "io error\n"
        rows = (out / "fixed_m0.7" / "metrics.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(20))  # step 20 failed
        best = min((float(r.split(",")[8]), int(r.split(",")[0])) for r in rows)
        line = (out / "summary.csv").read_text().strip().splitlines()[1]
        assert line.split(",")[4:] == ["io_error", f"{best[0]:.17g}", str(best[1])]

    def test_resume_over_a_partial_last_row_takes_the_complete_rows(self, tmp_path, capsys):
        # a finished setting's last row cut short before its mmd2 field
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = out / "fixed_m0.7" / "metrics.csv"
        *complete, last = metrics.read_text().strip().splitlines()
        metrics.write_text("\n".join(complete + [last.rsplit(",", 2)[0]]))
        best = min((float(r.split(",")[8]), int(r.split(",")[0])) for r in complete[1:])
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        line = (out / "summary.csv").read_text().strip().splitlines()[1]
        assert line.split(",")[4:] == ["ok", f"{best[0]:.17g}", str(best[1])]
        metrics.write_text("")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        line = (out / "summary.csv").read_text().strip().splitlines()[1]
        assert line.split(",")[4:] == ["ok", "", ""]

    @pytest.mark.parametrize("damage", ["undecodable", "overlong", "step", "mmd2"])
    def test_resume_over_an_unparseable_metrics_file_leaves_its_best_empty(self, tmp_path,
                                                                           capsys, damage):
        # a finished setting's metrics.csv that does not decode, has a field
        # over the csv module's limit, or holds a full row with a non-numeric
        # step or mmd2, used to kill the resumed sweep before it wrote summary.csv
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.5,0.7\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "summary.csv").read_text().strip().splitlines()
        metrics = out / "fixed_m0.5" / "metrics.csv"
        if damage == "undecodable":
            metrics.write_bytes(metrics.read_bytes() + b"\xff\xfe garbage\n")
        elif damage == "overlong":
            metrics.write_bytes(metrics.read_bytes() + b"x" * 200_000 + b"\n")
        else:
            header, *rows = metrics.read_text().splitlines()
            fields = rows[3].split(",")
            fields[header.split(",").index(damage)] = "x"
            metrics.write_text("\n".join([header] + rows + [",".join(fields)]) + "\n")
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[4:] == ["ok", "", ""]
        assert lines[0] == first[0] and lines[2] == first[2]
        assert lines[2].split(",")[5] != ""

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(TINY_CFG.encode() + b"\nsweep_fixed_m = 0.7\n# caf\xe9\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"abcas: config error: cannot read config {cfg}: 'utf-8' codec")
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_sweep_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m =\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("abcas: config error: sweep_fixed_m and sweep_abcas_beta")
        assert not out.exists()

    def test_out_of_range_number_is_a_config_error(self, tmp_path, capsys):
        # ring_sigma = inf used to kill the sweep at its first setting
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nring_sigma = inf\nsweep_fixed_m = 0.7\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("abcas: config error: ring_sigma must be positive and finite")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_generated_data_fails_each_setting(self, tmp_path, capsys):
        # this used to kill the sweep at its first setting, with no summary.csv
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nring_sigma = 1e300\nsweep_fixed_m = 0.7\nsweep_abcas_beta = 4\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "ring_sigma = 1e+300" in capsys.readouterr().err
        lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["config_error", "config_error"]
        for sub in ("fixed_m0.7", "abcas_beta4"):
            assert (out / sub / "status.txt").read_text() == "config error\n"

    @pytest.mark.parametrize("values", ["0.1234561,0.1234562", "0.5,0.5"])
    def test_colliding_settings_are_a_config_error(self, tmp_path, capsys, values):
        # both values format to the same directory name; no run may start
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + f"\nsweep_fixed_m = {values}\nsweep_abcas_beta = 4\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for v in values.split(","):
            assert v in err
        assert not out.exists()

    def test_unreadable_metrics_of_a_setting_leaves_its_best_empty(self, tmp_path, capsys):
        # the run cannot replace a directory named metrics.csv, nor read it
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        (out / "fixed_m0.7" / "metrics.csv").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "abcas sweep: fixed_m0.7: I/O error: [Errno 21]" in capsys.readouterr().err
        line = (out / "summary.csv").read_text().strip().splitlines()[1]
        assert line.split(",")[4:] == ["io_error", "", ""]

    @pytest.mark.parametrize("resume", [False, True], ids=["rerun", "resume"])
    def test_status_that_is_a_directory_is_an_io_error(self, tmp_path, capsys, resume):
        # the run cannot remove a directory named status.txt, nor write or
        # remove it after the error; --resume cannot read it, so it reruns
        # the setting. The other setting still runs and summary.csv is written
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta = 4\n")
        out = tmp_path / "sw"
        (out / "fixed_m0.7" / "status.txt").mkdir(parents=True)
        args = ["sweep", "--config", str(cfg), "--out", str(out)] + (["--resume"] if resume else [])
        assert cli.main(args) == 0
        assert "abcas sweep: fixed_m0.7: I/O error: [Errno 21]" in capsys.readouterr().err
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[4:] == ["io_error", "", ""]
        assert lines[2].split(",")[0] == "abcas_beta4" and lines[2].split(",")[4] == "ok"
        assert (out / "fixed_m0.7" / "status.txt").is_dir()

    def test_out_under_a_regular_file_is_an_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta =\n")
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"abcas: I/O error: [Errno 20] Not a directory: '{out}'\n"

    def test_unwritable_summary_is_an_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_CFG + "\nsweep_fixed_m = 0.7\nsweep_abcas_beta =\n")
        out = tmp_path / "sw"
        (out / "summary.csv").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "abcas sweep: fixed_m0.7: ok\n" in captured.out
        assert captured.err == f"abcas: I/O error: [Errno 21] Is a directory: '{out / 'summary.csv'}'\n"


@pytest.mark.parametrize("command,config", [("train", "ring2d.cfg"),
                                            ("sweep", "ring2d_sweep.cfg")])
def test_each_command_builds_its_networks_once(tmp_path, monkeypatch, command, config):
    # a sweep's settings share one dataset, baseline and pair of specs
    cfg = tmp_path / config
    cfg.write_text((CONFIGS / config).read_text() + "\nsteps = 4\n")
    calls = []
    real = cli.build_networks

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build_networks", counting)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    if command == "sweep":
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["ok"] * 8
    assert len(calls) == 1


class TestTrajCommand:
    def test_projection_matches_source(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(
            CSV_HEADER + "\n"
            "0,0,0,0,0,0,0,1,0.5,0.1\n"
            "1,0,1.5,0,0.2,0.001,0.00025,0.99977,0.5,0.2\n"
            "2,0,1.5,0.7,0.2,0.001,0.00025,0.99977,0.4,0.2\n"
        )
        assert cli.main(["traj", str(run)]) == 0
        assert (run / "r_traj.csv").read_text() == (
            "step,r,m\n0,0,1\n1,0.00025,0.99977\n2,0.00025,0.99977\n"
        )

    def test_empty_metrics_gives_headered_output(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_text(CSV_HEADER + "\n")
        assert cli.main(["traj", str(run)]) == 0
        assert (run / "r_traj.csv").read_text() == "step,r,m\n"

    def test_missing_metrics_errors(self, tmp_path):
        assert cli.main(["traj", str(tmp_path)]) == 1

    @pytest.mark.parametrize("header,missing", [("step,m", "r"), ("step,dist,m,x", "r"),
                                                ("step,r,mmd2", "m"), ("step,x", "r, m")])
    def test_missing_column_errors(self, tmp_path, capsys, header, missing):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(header + "\n0,0,1\n")
        assert cli.main(["traj", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"abcas: {metrics}: missing column {missing}\n"
        assert not (tmp_path / "r_traj.csv").exists()

    @pytest.mark.parametrize("bad_row", ["1,0,0.5", "1,0,1.5,0,0.2,0.001,0.00025,0.99977,0.5,0.2,9"])
    def test_row_with_wrong_field_count_errors(self, tmp_path, capsys, bad_row):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(CSV_HEADER + "\n0,0,0,0,0,0,0,1,0.5,0.1\n" + bad_row + "\n")
        assert cli.main(["traj", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"abcas: {metrics}: line 3 has {bad_row.count(',') + 1} fields")
        assert not (tmp_path / "r_traj.csv").exists()

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "metrics.csv").write_text(CSV_HEADER + "\n")
        (tmp_path / "r_traj.csv").mkdir()
        assert cli.main(["traj", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"abcas: I/O error: [Errno 21] Is a directory: '{tmp_path / 'r_traj.csv'}'\n")

    @pytest.mark.parametrize("unreadable", ["directory", "not utf-8"])
    def test_unreadable_metrics_errors(self, tmp_path, capsys, unreadable):
        metrics = tmp_path / "metrics.csv"
        if unreadable == "directory":
            metrics.mkdir()
        else:
            metrics.write_bytes(b"step,r,m\n0,0,\xff\n")
        assert cli.main(["traj", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"abcas: cannot read {metrics}: ") and err.count("\n") == 1
        assert not (tmp_path / "r_traj.csv").exists()
