"""Flat key/value run configuration shared by the CLI commands.

The schema mirrors the discovery, head, dataset and training options under
the ``okpd.``, ``head.``, ``data.`` and ``train.`` prefixes.  Files are plain
text, one ``key = value`` per line with ``#`` comments; every key is also a
command-line flag of the same name.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

from .dataset import ToyDatasetSpec
from .discovery import DiscoveryConfig
from .errors import ConfigError
from .head import HeadConfig
from .training import TrainConfig


@dataclass
class DiscoveryOptions:
    """Discovery-network options; channels and part count come from the data
    and head sections.  ``groups`` defaults to 4 (valid for the 64-channel
    toy grids; full-scale 256-channel runs typically use 32)."""

    num_blocks: int = 2
    reduction: int = 8
    groups: int = 4
    dilation: int = 2
    alpha: float = 0.5
    epsilon: float = 0.1
    gather_from_refined: bool = False


@dataclass
class HeadOptions:
    num_parts: int = 4
    pool_len: int = 3
    channel_keep: float = 0.25
    hidden: int = 256
    reg_per_class: bool = True


@dataclass
class RunConfig:
    data: ToyDatasetSpec = field(default_factory=ToyDatasetSpec)
    okpd: DiscoveryOptions = field(default_factory=DiscoveryOptions)
    head: HeadOptions = field(default_factory=HeadOptions)
    train: TrainConfig = field(default_factory=TrainConfig)

    def discovery_config(self) -> DiscoveryConfig:
        return DiscoveryConfig(channels=self.data.channels, num_parts=self.head.num_parts,
                               **asdict(self.okpd))

    def head_config(self) -> HeadConfig:
        return HeadConfig(channels=self.data.channels, num_classes=self.data.num_classes,
                          height=self.data.height, width=self.data.width,
                          **asdict(self.head))

    def flat_items(self) -> list[tuple[str, object]]:
        items = []
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            for f in fields(section):
                items.append((f"{section_field.name}.{f.name}", getattr(section, f.name)))
        return items


def schema() -> dict[str, type]:
    """Flat key -> value type for every configurable field."""
    cfg = RunConfig()
    types = {}
    for section_field in fields(cfg):
        section = getattr(cfg, section_field.name)
        for f in fields(section):
            types[f"{section_field.name}.{f.name}"] = f.type if isinstance(f.type, type) \
                else type(getattr(section, f.name))
    return types


def _parse_value(key: str, text: str, target_type: type):
    text = text.strip()
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            value = float(text)
            if math.isfinite(value):
                return value
            raise ValueError(text)
        return text
    except ValueError as exc:
        kind = "finite float" if target_type is float else target_type.__name__
        raise ConfigError(f"config key {key!r}: cannot parse {text!r} as {kind}") from exc


def set_key(cfg: RunConfig, key: str, value) -> None:
    section_name, _, field_name = key.partition(".")
    if not field_name or not hasattr(cfg, section_name):
        raise ConfigError(f"unknown config key {key!r}")
    section = getattr(cfg, section_name)
    if field_name not in {f.name for f in fields(section)}:
        raise ConfigError(f"unknown config key {key!r}")
    if isinstance(value, str):
        value = _parse_value(key, value, schema()[key])
    setattr(section, field_name, value)


def _revalidate(cfg: RunConfig) -> RunConfig:
    """Re-run dataclass validation after field-level mutation."""
    return RunConfig(**{f.name: replace(getattr(cfg, f.name))
                        for f in fields(cfg)})


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file (optional) and apply flag overrides on top."""
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: config file is not UTF-8 text") from None
        for line_no, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            set_key(cfg, key.strip(), value)
    for key, value in (overrides or {}).items():
        set_key(cfg, key, value)
    return _revalidate(cfg)


def dump_defaults() -> str:
    """Render every key with its default, suitable as a config file."""
    cfg = RunConfig()
    lines = ["# kphead run configuration (defaults)",
             "# every key is also a command-line flag: --<key> <value>"]
    current_section = None
    for key, value in cfg.flat_items():
        section = key.split(".")[0]
        if section != current_section:
            lines.append("")
            current_section = section
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
