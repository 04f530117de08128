"""Flat key = value experiment configuration.

One key per line, ``#`` starts a comment, whitespace is ignored. Keys
are exactly the training hyperparameters plus dataset and architecture
selections; anything else is rejected with the list of valid keys. The
run manifest written by the CLI is itself a valid config file, so a run
can be reproduced by pointing ``train --config`` at its manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok.strip()]


def _parse_float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _choices(*opts):
    def parse(s: str) -> str:
        if s not in opts:
            raise ValueError(f"must be one of {', '.join(opts)}; got {s!r}")
        return s
    return parse


_KEY_PARSERS = {
    # training
    "steps": int,
    "batch_size": int,
    "lr_d": float,
    "lr_g": float,
    "beta1": float,
    "beta2": float,
    "alpha": float,
    "beta": float,
    "mode": _choices("adaptive", "fixed"),
    "m": float,
    "seed": int,
    "eval_every": int,
    "latent_dim": int,
    "rectify": _parse_bool,
    "eval_samples": int,
    # dataset
    "dataset": _choices("ring2d", "blobs", "file"),
    "dataset_size": int,
    "data_seed": int,
    "ring_modes": int,
    "ring_radius": float,
    "ring_sigma": float,
    "img_size": int,
    "data_path": str,
    # architecture
    "arch": _choices("mlp", "conv"),
    "g_hidden": _parse_int_list,
    "d_hidden": _parse_int_list,
    "g_channels": _parse_int_list,
    "d_channels": _parse_int_list,
    # sweep
    "sweep_fixed_m": _parse_float_list,
    "sweep_abcas_beta": _parse_float_list,
}

_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


@dataclass
class Settings:
    """Fully resolved run settings: training config plus dataset and nets."""

    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: str = "ring2d"
    dataset_size: int = 4096
    data_seed: int = -1          # -1: follow the run seed
    ring_modes: int = 8
    ring_radius: float = 0.7
    ring_sigma: float = 0.05
    img_size: int = 16
    data_path: str = ""
    arch: str = "mlp"
    g_hidden: list[int] = field(default_factory=lambda: [64, 64])
    d_hidden: list[int] = field(default_factory=lambda: [64, 64])
    g_channels: list[int] = field(default_factory=lambda: [32, 16])
    d_channels: list[int] = field(default_factory=lambda: [16, 32])
    sweep_fixed_m: list[float] = field(default_factory=lambda: [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    sweep_abcas_beta: list[float] = field(default_factory=lambda: [1.0, 4.0])

    def dataset_spec(self) -> DatasetSpec:
        seed = self.train.seed if self.data_seed < 0 else self.data_seed
        return DatasetSpec(kind=self.dataset, size=self.dataset_size, seed=seed,
                           modes=self.ring_modes, radius=self.ring_radius,
                           sigma=self.ring_sigma, img_size=self.img_size,
                           path=self.data_path)


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
        if key not in _KEY_PARSERS:
            raise ConfigError(
                f"{where}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(_KEY_PARSERS))
            )
        raw[key] = value
    return raw


def resolve_settings(raw: dict[str, str], overrides: dict[str, str] | None = None) -> Settings:
    merged = dict(raw)
    if overrides:
        for key, value in overrides.items():
            if key not in _KEY_PARSERS:
                raise ConfigError(f"unknown override key {key!r}")
            merged[key] = value
    settings = Settings()
    for key, value in merged.items():
        try:
            parsed = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        if key in _TRAIN_KEYS:
            setattr(settings.train, key, parsed)
        else:
            setattr(settings, key, parsed)
    try:
        settings.train.validate()
        settings.dataset_spec().validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if settings.data_seed < -1:
        raise ConfigError(f"data_seed must be -1 (follow the run seed) or non-negative, "
                          f"got {settings.data_seed}")
    for key in ("g_hidden", "d_hidden", "g_channels", "d_channels"):
        widths = getattr(settings, key)
        if not widths or min(widths) < 1:
            raise ConfigError(f"{key} needs one or more widths of at least 1, got {widths}")
    if settings.arch == "mlp" and settings.dataset == "blobs":
        raise ConfigError("arch = mlp needs flat samples; use arch = conv for blobs")
    if settings.arch == "conv" and settings.dataset == "ring2d":
        raise ConfigError("arch = conv needs image samples; use arch = mlp for ring2d")
    return settings


def load_settings(path, overrides: dict[str, str] | None = None) -> Settings:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def manifest_text(settings: Settings, version: str, out_dir: str) -> str:
    """Config-file text with every key materialized, reproducing the run."""
    lines = [
        "# run manifest: fully resolved configuration, reusable as a config file",
        f"# version: {version}",
        f"# layout: {out_dir}/{{manifest.cfg, metrics.csv, checkpoints/step_*/, samples.abt, status.txt}}",
    ]
    for key in sorted(_KEY_PARSERS):
        if key in _TRAIN_KEYS:
            value = getattr(settings.train, key)
        else:
            value = getattr(settings, key)
        if isinstance(value, list):
            value = ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
