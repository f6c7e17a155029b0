from .autograd import Tensor, bce_with_logits, conv_block, log_softmax, sigmoid, softmax
from .optim import AdamW, clip_grad_norm, cosine_lr
from .serialize import WeightsError, load_tcn, save_tcn, weights_digest
from .tcn import (
    FINGERSPELLING_MAX_DILATIONS,
    ISR_MAX_DILATIONS,
    Tcn,
    TcnConfig,
    branch_dilations,
    config_fingerprint,
    fingerspelling_config,
    isr_config,
    receptive_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
