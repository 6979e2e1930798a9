"""Run configuration text: parsing, printing and validation."""

import pytest

from kphead.dataset import ToyDatasetSpec
from kphead.errors import ConfigError
from kphead.runconfig import DEFAULTS, HeadOptions, RunConfig, dump_defaults, load_config
from kphead.training import TrainConfig


def test_non_default_config_round_trips_through_its_text():
    cfg = RunConfig(data=ToyDatasetSpec(noise_sigma=0.3, seed=2 ** 63),
                    head=HeadOptions(channel_keep=0.5, reg_per_class=False),
                    train=TrainConfig(learning_rate=0.0375, batch_mean=False))
    text = cfg.as_text()
    assert text["train.batch_mean"] == "false" and text["train.learning_rate"] == "0.0375"
    assert load_config(None, text) == cfg


def test_dump_lists_every_key_and_parses_to_the_defaults(tmp_path):
    path = tmp_path / "defaults.cfg"
    path.write_text(dump_defaults())
    assert load_config(path) == RunConfig()
    assert set(RunConfig().as_text()) == set(DEFAULTS)


def test_sections_are_checked_on_the_merged_values(tmp_path):
    """Each section's own checks see file and overrides together."""
    path = tmp_path / "run.cfg"
    path.write_text("data.height = 1\ndata.width = 1\n")
    with pytest.raises(ConfigError, match="parts_per_class"):
        load_config(path)
    assert load_config(path, {"data.parts_per_class": "1"}).data.height == 1
