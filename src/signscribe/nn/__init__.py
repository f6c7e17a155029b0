from .autograd import (
    Tensor,
    add,
    bce_with_logits,
    concat_cols,
    constant,
    conv1d,
    external_loss,
    gelu,
    linear,
    log_softmax,
    matmul,
    maximum,
    mul,
    parameter,
    sigmoid,
    softmax,
    sum_all,
    zero_grads,
)
from .optim import AdamState, AdamW, adamw_step, clip_grad_norm, cosine_lr
from .serialize import ModelWeights, WeightsError, load_weights, save_weights, weights_digest
from .tcn import (
    FINGERSPELLING_MAX_DILATIONS,
    ISR_MAX_DILATIONS,
    FingerprintMismatchError,
    Tcn,
    TcnConfig,
    branch_dilations,
    config_fingerprint,
    fingerspelling_config,
    isr_config,
    receptive_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
