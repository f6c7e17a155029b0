"""The shared training loop: best-epoch weights, early stopping, LR schedule, batching."""

import numpy as np
import pytest

from signscribe import nn
from signscribe.training import fit

LR, MIN_LR = 1e-2, 1e-4


def tiny_tcn(seed=0):
    config = nn.TcnConfig(
        input_dim=1, output_classes=1, num_blocks=1, block_dilations=((1,),), channels=2
    )
    return nn.Tcn.init(config, np.random.default_rng(seed))


class Recorder:
    """Hand-made loss: training steps on the summed logits; validation reads a schedule.

    Records each training batch and, at every epoch's validation, the
    network's weights at that point.
    """

    def __init__(self, tcn, val_schedule):
        self.tcn = tcn
        self.val_schedule = list(val_schedule)
        self.batches: list[list] = []
        self.val_weights: list[dict] = []
        self._val_calls = 0

    def __call__(self, samples, train_mode):
        if train_mode:
            self.batches.append(list(samples))
            x = np.concatenate([np.full((3, 1), float(s)) for s in samples])
            return nn.sum_all(self.tcn.forward(x))
        epoch, first = divmod(self._val_calls, len(VAL))
        self._val_calls += 1
        if first == 0:
            self.val_weights.append({k: v.copy() for k, v in self.tcn.state_arrays().items()})
        return nn.constant(self.val_schedule[epoch])


TRAIN = [1, 2, 3, 4, 5]
VAL = [10, 11]


def run(val_schedule, epochs, batch_size=2, patience=100):
    tcn = tiny_tcn()
    loss = Recorder(tcn, val_schedule)
    (best,), history = fit(
        [tcn], TRAIN, VAL, loss, np.random.default_rng(3), epochs=epochs,
        batch_size=batch_size, lr=LR, weight_decay=0.0, min_lr=MIN_LR,
        patience=patience, grad_clip=1.0,
    )
    return best, history, loss


def same_weights(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a) and a.keys() == b.keys()


def test_returns_best_validation_epoch_not_last():
    best, history, loss = run([3.0, 1.0, 2.0, 2.5], epochs=4)
    assert [h["val_loss"] for h in history] == [3.0, 1.0, 2.0, 2.5]
    assert same_weights(best.state_arrays(), loss.val_weights[1])
    assert not same_weights(best.state_arrays(), loss.val_weights[-1])
    assert best is not loss.tcn


def test_patience_stops_at_the_right_epoch():
    # Best at epoch 1; epochs 2 and 3 do not improve, so patience 2 stops after epoch 3.
    _, history, loss = run([3.0, 1.0, 2.0, 1.5, 0.5, 0.1], epochs=6, patience=2)
    assert [h["epoch"] for h in history] == [0, 1, 2, 3]
    assert len(loss.batches) == 4 * 3


def test_final_lr_reaches_last_cosine_step():
    _, history, _ = run([5.0, 4.0, 3.0], epochs=3)
    total_steps = 3 * 3  # 5 samples in batches of 2 -> 3 steps per epoch
    assert history[-1]["lr"] == nn.cosine_lr(total_steps - 1, total_steps, LR, MIN_LR)
    assert history[0]["lr"] == nn.cosine_lr(2, total_steps, LR, MIN_LR)


def test_partial_last_batch_is_used():
    _, history, loss = run([2.0, 1.0], epochs=2)
    assert [len(b) for b in loss.batches] == [2, 2, 1] * 2
    for epoch in range(2):
        seen = [s for b in loss.batches[3 * epoch : 3 * epoch + 3] for s in b]
        assert sorted(seen) == TRAIN
    assert all(np.isfinite(h["train_loss"]) for h in history)


def test_zero_epochs_returns_initial_weights():
    tcn = tiny_tcn()
    start = {k: v.copy() for k, v in tcn.state_arrays().items()}
    (best,), history = fit(
        [tcn], TRAIN, VAL, Recorder(tcn, []), np.random.default_rng(0), epochs=0,
        batch_size=2, lr=LR, weight_decay=0.0, min_lr=MIN_LR, patience=1, grad_clip=1.0,
    )
    assert history == []
    assert same_weights(best.state_arrays(), start)


@pytest.mark.parametrize("batch_size", [1, 5, 7])
def test_one_epoch_steps_once_per_batch(batch_size):
    _, history, loss = run([1.0], epochs=1, batch_size=batch_size)
    assert len(loss.batches) == -(-len(TRAIN) // batch_size)
    assert len(history) == 1
