import re
from pathlib import Path

import pytest

from abcas.config import (
    ConfigError,
    Settings,
    build_networks,
    load_settings,
    manifest_text,
    parse_config_text,
    resolve_settings,
)
from abcas.nn import shape_plan


class TestParsing:
    def test_comments_blanks_and_whitespace(self):
        raw = parse_config_text(
            """
            # a comment
            steps = 50   # trailing comment

            lr_d=0.001
            """
        )
        assert raw == {"steps": "50", "lr_d": "0.001"}

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config_text("learning_rate = 3")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("steps")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            resolve_settings({"steps": "many"})

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="^unknown override key 'nope'$"):
            resolve_settings({}, {"nope": "1"})
        with pytest.raises(ConfigError, match="^mode must be adaptive or fixed, got 'sometimes'$"):
            resolve_settings({"mode": "sometimes"})

    def test_typed_resolution(self):
        s = resolve_settings({
            "steps": "123", "lr_d": "0.002", "mode": "fixed", "m": "0.8",
            "g_hidden": "8, 16", "sweep_abcas_beta": "1,4",
        })
        assert s.train.steps == 123
        assert s.train.lr_d == 0.002
        assert s.train.mode == "fixed"
        assert s.train.m == 0.8
        assert s.g_hidden == [8, 16]
        assert s.sweep_abcas_beta == [1.0, 4.0]

    def test_overrides_win(self):
        s = resolve_settings({"seed": "1", "mode": "adaptive"},
                             overrides={"seed": "9", "mode": "fixed", "m": "0.5"})
        assert s.train.seed == 9
        assert s.train.mode == "fixed"
        assert s.train.m == 0.5

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            resolve_settings({"dataset": "blobs", "arch": "mlp"})
        with pytest.raises(ConfigError):
            resolve_settings({"dataset": "ring2d", "arch": "conv"})
        with pytest.raises(ConfigError):
            resolve_settings({"batch_size": "1"})


    @pytest.mark.parametrize("key,value", [
        ("lr_d", "nan"), ("lr_g", "inf"), ("lr_g", "nan"),
        ("beta1", "1"), ("beta1", "-0.5"), ("beta1", "nan"),
        ("beta2", "1"), ("beta2", "1.5"), ("beta2", "-0.1"),
        ("beta", "nan"), ("beta", "inf"),
        ("ring_radius", "nan"), ("ring_radius", "inf"), ("ring_radius", "-inf"),
        ("ring_sigma", "inf"), ("ring_sigma", "nan"),
        # mode is adaptive by default, which ignores m but writes it to the manifest
        ("m", "nan"), ("m", "-3"), ("m", "1.5"),
        ("alpha", "1"), ("alpha", "nan"), ("batch_size", "1"), ("eval_samples", "1"),
        ("steps", "-1"), ("eval_every", "0"), ("latent_dim", "0"), ("seed", "-1"),
        ("dataset_size", "1"), ("ring_modes", "0"),
    ])
    def test_out_of_range_number_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must .*, got "):
            resolve_settings({"dataset": "ring2d", key: value})

    @pytest.mark.parametrize("raw,key", [
        ({"dataset": "file"}, "data_path"),
        ({"dataset": "blobs", "arch": "conv", "img_size": "12"}, "img_size"),
    ])
    def test_dataset_error_names_its_key(self, raw, key):
        with pytest.raises(ConfigError, match=rf"^{key} must .*, got "):
            resolve_settings(raw)

    def test_zero_steps_is_valid(self):
        assert resolve_settings({"steps": "0"}).train.steps == 0


class TestNetworksFromSettings:
    def test_mlp_family(self):
        s = resolve_settings({"g_hidden": "8,8", "d_hidden": "8,8", "latent_dim": "4"})
        g, d = build_networks(s, (2,))
        assert shape_plan(g)[-1] == (2,)
        assert shape_plan(d)[-1] == (1,)

    def test_conv_family(self):
        s = resolve_settings({"dataset": "blobs", "arch": "conv",
                              "g_channels": "12,8", "d_channels": "8,12"})
        g, d = build_networks(s, (1, 16, 16))
        assert shape_plan(g)[-1] == (1, 16, 16)
        assert shape_plan(d)[-1] == (1, 1, 1)

    @pytest.mark.parametrize("raw,key", [
        ({"d_hidden": ""}, "d_hidden"),
        ({"g_hidden": "0,8"}, "g_hidden"),
        ({"d_hidden": "0"}, "d_hidden"),
        ({"dataset": "blobs", "arch": "conv", "g_channels": "0,8"}, "g_channels"),
        ({"dataset": "blobs", "arch": "conv", "d_channels": "8,-1"}, "d_channels"),
    ])
    def test_bad_widths_are_config_errors(self, raw, key):
        shape = (1, 16, 16) if raw.get("arch") == "conv" else (2,)
        with pytest.raises(ConfigError, match=key):
            build_networks(resolve_settings(raw), shape)

    def test_shape_mismatch(self):
        s = resolve_settings({})
        with pytest.raises(ConfigError):
            build_networks(s, (1, 16, 16))  # mlp arch, image samples


# every key at a value other than its default; dataset = file with arch =
# conv is a valid pair that leaves each ring and image key free
NON_DEFAULT = {
    "steps": "77", "batch_size": "8", "lr_d": "0.001", "lr_g": "0.0003", "beta1": "0.5",
    "beta2": "0.99", "alpha": "0.999", "beta": "2.5", "mode": "fixed", "m": "0.65",
    "seed": "5", "eval_every": "10", "latent_dim": "3", "eval_samples": "64", "dataset": "file", "dataset_size": "100", "data_seed": "3",
    "ring_modes": "5", "ring_radius": "0.9", "ring_sigma": "0.033", "img_size": "8",
    "data_path": "data/set.abt", "arch": "conv", "g_hidden": "8,16", "d_hidden": "4",
    "g_channels": "12,8", "d_channels": "8,12", "sweep_fixed_m": "0.123456789,0.5",
    "sweep_abcas_beta": "2",
}


def _key_value(settings, key):
    for owner in (settings.train, settings.data, settings):
        if hasattr(owner, key):
            return getattr(owner, key)
    raise KeyError(key)


class TestManifest:
    def test_manifest_round_trips(self, tmp_path):
        s = resolve_settings(NON_DEFAULT)
        default = Settings()
        assert len(NON_DEFAULT) == 29
        for key in NON_DEFAULT:
            got, want = _key_value(s, key), _key_value(default, key)
            assert type(got) is type(want) and got != want, key
            if isinstance(want, list):
                assert {type(v) for v in got} == {type(want[0])}, key
        text = manifest_text(s, "abcas-0.1.0", "out")
        path = tmp_path / "manifest.cfg"
        path.write_text(text)
        s2 = load_settings(path)
        assert s2 == s

    def test_manifest_mentions_version_and_layout(self):
        text = manifest_text(Settings(), "abcas-0.1.0", "out")
        assert "# version: abcas-0.1.0" in text
        assert "metrics.csv" in text

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_settings(tmp_path / "nope.cfg")

    def test_not_utf8(self, tmp_path):
        # a Latin-1 byte used to escape as a UnicodeDecodeError
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"dataset = ring2d\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"^cannot read config .*latin1\.cfg: 'utf-8'"):
            load_settings(path)


def test_repo_configs_load():
    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        load_settings(path)


def test_readme_defaults_block_matches_settings():
    # the README's key/default block is an oracle for Settings(): it must name
    # every key and resolve to the same manifest
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("The important keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    raw = dict(re.findall(r"(\w+) = ?(\S*)", block))
    expected = manifest_text(Settings(), "v", "run")
    keys = {line.split(" = ")[0] for line in expected.splitlines() if not line.startswith("#")}
    assert len(keys) == 29
    assert set(raw) == keys
    assert manifest_text(resolve_settings(raw), "v", "run") == expected
