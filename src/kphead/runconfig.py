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

    def as_text(self) -> dict[str, str]:
        """Every key's value as config text, booleans as ``true``/``false``."""
        return {key: str(value).lower() if isinstance(value, bool) else str(value)
                for key, value in _flat(self).items()}


def _flat(cfg: RunConfig) -> dict[str, object]:
    return {f"{section.name}.{f.name}": getattr(getattr(cfg, section.name), f.name)
            for section in fields(cfg) for f in fields(getattr(cfg, section.name))}


_DEFAULT = RunConfig()
DEFAULTS = _flat(_DEFAULT)  # flat key -> default; a key's text parses as its default's type
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, text: str, kind: type):
    text = text.strip()
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(text)
        return value
    except (KeyError, ValueError):
        name = "finite float" if kind is float else kind.__name__
        raise ConfigError(f"config key {key!r}: cannot parse {text!r} as {name}") from None


def _read_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    text = {}
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        text[key.strip()] = value
    return text


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file (optional) with ``overrides`` on top.

    Each section is built once from its merged values, so its own checks
    see the run's values together."""
    text = {**(_read_file(path) if path is not None else {}), **(overrides or {})}
    values: dict[str, dict] = {section.name: {} for section in fields(_DEFAULT)}
    for key, value in text.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        section, _, name = key.partition(".")
        values[section][name] = _parse_value(key, value, type(DEFAULTS[key]))
    return RunConfig(**{section: replace(getattr(_DEFAULT, section), **given)
                        for section, given in values.items()})


def dump_defaults() -> str:
    """Render every key with its default, suitable as a config file."""
    lines = ["# kphead run configuration (defaults)",
             "# every key is also a command-line flag: --<key> <value>"]
    current_section = None
    for key, value in _DEFAULT.as_text().items():
        section = key.split(".")[0]
        if section != current_section:
            lines.append("")
            current_section = section
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
