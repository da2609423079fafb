from .layers import (
    EmbeddingTable,
    EncoderSpec,
    Mlp,
    ParamLayout,
    TabularEncoder,
    glorot_uniform,
)
from .losses import bce_with_logits, check_labels, sigmoid
from .optim import AdamOptimizer, SgdOptimizer, make_optimizer
from .checkpoint import load_checkpoint, save_checkpoint, write_file

__all__ = [
    "AdamOptimizer",
    "EmbeddingTable",
    "EncoderSpec",
    "Mlp",
    "ParamLayout",
    "SgdOptimizer",
    "TabularEncoder",
    "bce_with_logits",
    "check_labels",
    "glorot_uniform",
    "load_checkpoint",
    "make_optimizer",
    "save_checkpoint",
    "sigmoid",
    "write_file",
]
