import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from helpers import property_settings


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
        text = manifest_text(s, "out")
        path = tmp_path / "manifest.cfg"
        path.write_text(text)
        s2 = load_settings(path)
        assert s2 == s

    def test_manifest_mentions_version_and_layout(self):
        text = manifest_text(Settings(), "out")
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


KEYS = tuple(parse_config_text(manifest_text(Settings(), "run")))
# what a key or value can hold: no comment mark, nothing str.splitlines breaks at
LINE_CHARS = st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
UNIT = st.floats(0.0, 1.0, exclude_min=True)  # (0, 1]
WIDTHS = st.lists(st.integers(1, 4096), min_size=1, max_size=4)


@st.composite
def valid_settings(draw):
    """Settings with a valid value drawn for every config key."""
    dataset = draw(st.sampled_from(["ring2d", "blobs", "file"]))
    arch = {"ring2d": "mlp", "blobs": "conv"}.get(dataset) or draw(st.sampled_from(["mlp", "conv"]))
    path = st.text(LINE_CHARS, max_size=12).map(str.strip)
    values = {
        "steps": st.integers(0, 10 ** 9), "batch_size": st.integers(2, 4096),
        "lr_d": POSITIVE, "lr_g": POSITIVE, "beta": POSITIVE,
        "beta1": st.floats(0.0, 1.0, exclude_max=True),
        "beta2": st.floats(0.0, 1.0, exclude_max=True),
        "alpha": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "mode": st.sampled_from(["adaptive", "fixed"]), "m": UNIT,
        "seed": st.integers(0, 2 ** 64), "eval_every": st.integers(1, 10 ** 9),
        "latent_dim": st.integers(1, 4096), "eval_samples": st.integers(2, 10 ** 9),
        "dataset": st.just(dataset), "dataset_size": st.integers(2, 10 ** 9),
        "data_seed": st.integers(-1, 2 ** 64), "ring_modes": st.integers(1, 4096),
        "ring_radius": st.floats(allow_nan=False, allow_infinity=False),
        "ring_sigma": POSITIVE,
        "img_size": st.sampled_from([8, 16, 32]) if dataset == "blobs" else st.integers(1, 4096),
        "data_path": path.filter(bool) if dataset == "file" else path,
        "arch": st.just(arch), "g_hidden": WIDTHS, "d_hidden": WIDTHS,
        "g_channels": WIDTHS, "d_channels": WIDTHS,
        "sweep_fixed_m": st.lists(UNIT, min_size=1, max_size=6),
        "sweep_abcas_beta": st.lists(POSITIVE, min_size=1, max_size=6),
    }
    assert tuple(sorted(values)) == KEYS
    settings = Settings()
    for key, strategy in values.items():
        owner = next(o for o in (settings.train, settings.data, settings) if hasattr(o, key))
        setattr(owner, key, draw(strategy))
    return settings


class TestConfigProperties:
    @property_settings(100)
    @given(s=valid_settings())
    def test_manifest_round_trips_every_key(self, s):
        text = manifest_text(s, "run")
        back = resolve_settings(parse_config_text(text))
        assert manifest_text(back, "run") == text
        for key in KEYS:
            assert _key_value(back, key) == _key_value(s, key), key

    @property_settings(100)
    @given(key=st.text(LINE_CHARS.filter(lambda c: c != "="), min_size=1, max_size=16)
           .map(str.strip).filter(lambda k: k and k not in KEYS))
    def test_unknown_key_is_named(self, key):
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"steps = 3\n{key} = 1\n")
        assert str(info.value).startswith(f"config:2: unknown key {key!r}; valid keys: ")

    @property_settings(100)
    @given(before=st.lists(st.sampled_from(["", "# a = b", "steps = 5", " lr_d=0.5 # x"]),
                           max_size=4),
           body=st.text(LINE_CHARS.filter(lambda c: c != "="), min_size=1, max_size=16)
           .filter(str.strip),
           comment=st.sampled_from(["", "# k = v"]))
    def test_line_without_equals_gives_its_number(self, before, body, comment):
        text = "\n".join([*before, body + comment, "seed = 1"])
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(f"config:{len(before) + 1}: expected 'key = value'")


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
    expected = manifest_text(Settings(), "run")
    keys = {line.split(" = ")[0] for line in expected.splitlines() if not line.startswith("#")}
    assert len(keys) == 29
    assert set(raw) == keys
    assert manifest_text(resolve_settings(raw), "run") == expected
