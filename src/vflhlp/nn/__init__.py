from .layers import (
    DenseLayer,
    EmbeddingTable,
    EncoderSpec,
    GradBundle,
    Mlp,
    ParamLayout,
    TabularEncoder,
    glorot_uniform,
)
from .losses import bce_with_logits, sigmoid
from .optim import AdamOptimizer, SgdOptimizer, make_optimizer
from .gradcheck import grad_check, max_relative_error
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamOptimizer",
    "DenseLayer",
    "EmbeddingTable",
    "EncoderSpec",
    "GradBundle",
    "Mlp",
    "ParamLayout",
    "SgdOptimizer",
    "TabularEncoder",
    "bce_with_logits",
    "glorot_uniform",
    "grad_check",
    "load_checkpoint",
    "make_optimizer",
    "max_relative_error",
    "save_checkpoint",
    "sigmoid",
]
