"""Key-part based condensation of two-stage detection heads.

Public surface: the autodiff substrate (``tensor``), the key-part discovery
network (``discovery``), the condensed/baseline heads (``head``), training
objectives (``losses``), closed-form parameter accounting (``accounting``)
and the synthetic benchmark (``dataset``/``training``/``evaluate``/
``heatmaps``).
"""

from .accounting import (LayerSpec, ParamReport, count_params, count_params_condensed,
                         preset_report, sweep)
from .dataset import ToyDatasetSpec, ToyExample, generate_dataset, read_dataset, write_dataset
from .discovery import (DiscoveryConfig, DiscoveryParams, KeyPartSet,
                        concentration_forward, extract_key_parts, init_discovery_params,
                        predict_confidence, tmr_squash)
from .errors import (ConfigError, ContractViolation, GraphStateError, NonFiniteError,
                     TrainingDivergence)
from .evaluate import Metrics, chance_recall_estimate, evaluate
from .head import (BaselineParams, CondensedForward, HeadConfig, HeadOutput, HeadParams,
                   baseline_forward, full_condensed_forward, global_modeling,
                   head_forward, init_baseline_params, init_head_params,
                   key_part_modeling)
from .heatmaps import export_heatmaps, read_pgm, write_pgm
from .losses import (detection_loss, discovery_objective, discriminative_loss,
                     smooth_l1, uniqueness_loss)
from .tensor import Tensor, argmax2d, backward, finite_diff_grad
from .training import (TrainConfig, build_baseline, build_condensed, load_params,
                       save_params, train)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
