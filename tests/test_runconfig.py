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


@pytest.mark.parametrize("kw, problem", [
    ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0, got inf"),
    ({"momentum": -1.0}, "momentum must be in [0, 1), got -1.0"),
    ({"momentum": 1.0}, "momentum must be in [0, 1), got 1.0"),
    ({"momentum": float("nan")}, "momentum must be in [0, 1), got nan"),
    ({"okpd_loss_weight": -0.5}, "okpd_loss_weight must be finite and >= 0, got -0.5"),
    ({"okpd_loss_weight": float("nan")}, "okpd_loss_weight must be finite and >= 0, got nan"),
])
def test_train_settings_outside_their_range_are_rejected(kw, problem):
    with pytest.raises(ConfigError) as err:
        TrainConfig(**kw)
    assert str(err.value) == problem
    TrainConfig(momentum=0.0, okpd_loss_weight=0.0)
