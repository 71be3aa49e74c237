"""Continual learning for a toy two-tower image/text model.

The training loop distils each new student against two frozen teachers
(the initial model and the previous task's model), keeps class
prototypes aligned with the text tower, and averages weight-space
checkpoints so the published model per task is an ensemble rather than
the last iterate. Everything runs on a small numpy autodiff core; no
GPU framework is involved.
"""

from .config import VARIANTS, ExperimentConfig, HyperParams, ModelConfig, apply_variant, config_from_dict, load_config
from .encoder import (
    DualEncoder,
    ModelSnapshot,
    load_checkpoint,
    save_checkpoint,
    snapshot,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    MulkiError,
    ShapeMismatchError,
    StreamFormatError,
    TrainingDivergedError,
    UnknownTokenError,
)
from .losses import (
    LossBreakdown,
    csa_loss,
    fd_loss,
    image_text_dist,
    ird_loss,
    mdd_loss,
    pt_loss,
    sample_weights,
    total_loss,
    wc_loss,
)
from .metrics import AccuracyMatrix, avg, current_avg, evaluate, last, transfer
from .optim import AdamW
from .prototypes import PrototypeStore
from .runner import RunRecord, pretrain, run_stream, save_run_record, train_task
from .taskgen import StreamConfig, StreamSpec, generate_stream, load_stream, save_stream
from .tensor import GradTape, Tensor
from .weightspace import WEState, ewe_step, final_params, we_init, we_step

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix",
    "AdamW",
    "ConfigError",
    "ContractError",
    "DegenerateInputError",
    "DualEncoder",
    "ExperimentConfig",
    "GradTape",
    "HyperParams",
    "LossBreakdown",
    "ModelConfig",
    "ModelSnapshot",
    "MulkiError",
    "PrototypeStore",
    "RunRecord",
    "ShapeMismatchError",
    "StreamConfig",
    "StreamFormatError",
    "StreamSpec",
    "Tensor",
    "TrainingDivergedError",
    "UnknownTokenError",
    "VARIANTS",
    "WEState",
    "apply_variant",
    "avg",
    "config_from_dict",
    "csa_loss",
    "current_avg",
    "evaluate",
    "ewe_step",
    "fd_loss",
    "final_params",
    "generate_stream",
    "image_text_dist",
    "ird_loss",
    "last",
    "load_checkpoint",
    "load_config",
    "load_stream",
    "mdd_loss",
    "pretrain",
    "pt_loss",
    "run_stream",
    "sample_weights",
    "save_checkpoint",
    "save_run_record",
    "save_stream",
    "snapshot",
    "total_loss",
    "train_task",
    "transfer",
    "wc_loss",
    "we_init",
    "we_step",
    "__version__",
]
