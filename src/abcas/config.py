"""Flat key = value experiment configuration.

One key per line, ``#`` starts a comment, whitespace is ignored. Each
key is one field of ``TrainConfig``, ``DatasetSpec`` or ``Settings``
under its own name, and its value is parsed as the type of the field's
default. An unknown key is rejected with the list of valid keys. The
run manifest written by the CLI is itself a valid config file, so a run
can be reproduced by pointing ``train --config`` at its manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from . import __version__
from .data import DatasetSpec
from .nn import (
    NetworkSpec,
    conv_discriminator,
    conv_generator,
    mlp_discriminator,
    mlp_generator,
)
from .train import TrainConfig

__all__ = ["ConfigError", "Settings", "build_networks", "manifest_text",
           "parse_config_text", "resolve_settings", "load_settings"]


class ConfigError(ValueError):
    pass


@dataclass
class Settings:
    """Fully resolved run settings: training config plus dataset and nets."""

    train: TrainConfig = field(default_factory=TrainConfig)
    data: DatasetSpec = field(default_factory=DatasetSpec)
    arch: str = "mlp"
    g_hidden: list[int] = field(default_factory=lambda: [64, 64])
    d_hidden: list[int] = field(default_factory=lambda: [64, 64])
    g_channels: list[int] = field(default_factory=lambda: [32, 16])
    d_channels: list[int] = field(default_factory=lambda: [16, 32])
    sweep_fixed_m: list[float] = field(default_factory=lambda: [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    sweep_abcas_beta: list[float] = field(default_factory=lambda: [1.0, 4.0])

    def dataset_spec(self) -> DatasetSpec:
        """The dataset with ``data_seed = -1`` resolved to the run seed."""
        seed = self.train.seed if self.data.data_seed == -1 else self.data.data_seed
        return replace(self.data, data_seed=seed)


def _owners(settings: Settings) -> dict[str, object]:
    """Each config key, sorted, mapped to the object that holds it as a field."""
    owners = {f.name: obj for obj in (settings.train, settings.data, settings)
              for f in fields(obj) if f.name not in ("train", "data")}
    return dict(sorted(owners.items()))


_KEYS = tuple(_owners(Settings()))


def _parse(text: str, default):
    """``text`` as the type of ``default``; a list takes its first entry's type."""
    if isinstance(default, list):
        return [type(default[0])(tok) for tok in text.split(",") if tok.strip()]
    return type(default)(text)


def parse_config_text(text: str, where: str = "config") -> dict[str, str]:
    """Raw key -> value strings; unknown keys and malformed lines are errors."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(
                f"{where}:{lineno}: unknown key {key!r}; valid keys: " + ", ".join(_KEYS))
        raw[key] = value
    return raw


def resolve_settings(raw: dict[str, str], overrides: dict[str, str] | None = None) -> Settings:
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        merged[key] = value
    settings = Settings()
    owners = _owners(settings)
    for key, value in merged.items():
        owner = owners[key]
        try:
            setattr(owner, key, _parse(value, getattr(owner, key)))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    try:
        settings.train.validate()
        settings.data.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if settings.arch not in ("mlp", "conv"):
        raise ConfigError(f"arch must be mlp or conv, got {settings.arch!r}")
    for key in ("g_hidden", "d_hidden", "g_channels", "d_channels"):
        widths = getattr(settings, key)
        if not widths or min(widths) < 1:
            raise ConfigError(f"{key} needs one or more widths of at least 1, got {widths}")
    if settings.arch == "mlp" and settings.data.dataset == "blobs":
        raise ConfigError("arch = mlp needs flat samples; use arch = conv for blobs")
    if settings.arch == "conv" and settings.data.dataset == "ring2d":
        raise ConfigError("arch = conv needs image samples; use arch = mlp for ring2d")
    return settings


def load_settings(path, overrides: dict[str, str] | None = None) -> Settings:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_settings(parse_config_text(text, where=str(path)), overrides)


def build_networks(settings: Settings, sample_shape: tuple[int, ...]) -> tuple[NetworkSpec, NetworkSpec]:
    """Generator and discriminator specs for the configured family."""
    latent = settings.train.latent_dim
    if settings.arch == "mlp" and len(sample_shape) != 1:
        raise ConfigError(f"arch = mlp needs flat samples, dataset has shape {sample_shape}")
    if settings.arch == "conv" and (len(sample_shape) != 3 or sample_shape[1] != sample_shape[2]):
        raise ConfigError(f"arch = conv needs square (C, S, S) samples, got {sample_shape}")
    try:
        if settings.arch == "mlp":
            dim = sample_shape[0]
            return (mlp_generator(latent, settings.g_hidden, dim),
                    mlp_discriminator(dim, settings.d_hidden))
        ch, size = sample_shape[0], sample_shape[1]
        return (conv_generator(latent, settings.g_channels, ch, size),
                conv_discriminator(ch, settings.d_channels, size))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def manifest_text(settings: Settings, out_dir: str) -> str:
    """Config-file text with every key materialized, reproducing the run."""
    lines = [
        "# run manifest: fully resolved configuration, reusable as a config file",
        f"# version: abcas-{__version__}",
        f"# layout: {out_dir}/{{manifest.cfg, metrics.csv, checkpoints/step_*/, samples.abt, status.txt}}",
    ]
    for key, owner in _owners(settings).items():
        value = getattr(owner, key)
        if isinstance(value, list):
            value = ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
