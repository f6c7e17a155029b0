"""The shared training loop: best-epoch weights, early stopping, LR schedule, batching."""

import numpy as np
import pytest

from signscribe import nn, training
from signscribe.training import fit

LR, MIN_LR = 1e-2, 1e-4


def tiny_tcn(seed=0):
    config = nn.TcnConfig(
        input_dim=1, output_classes=1, num_blocks=1, block_dilations=((1,),), channels=2
    )
    return nn.Tcn.init(config, np.random.default_rng(seed))


@pytest.fixture(autouse=True)
def recipe(monkeypatch):
    """This file's recipe in ``training``'s constants; a test patches one again to vary it."""
    for name, value in dict(
        BATCH_SIZE=2, WEIGHT_DECAY=0.0, MIN_LR=MIN_LR, PATIENCE=100, GRAD_CLIP=1.0
    ).items():
        monkeypatch.setattr(training, name, value)


class Recorder:
    """Hand-made step and score: training steps on the summed logits; validation
    reads a schedule.

    Records each training batch and, at every epoch's one validation call,
    the samples and the weights of the network it was handed; records at
    every call whether that network was the trainable one or a frozen copy
    (no gradients). The epoch's per-sample scores spread about its scheduled
    value, so only their mean reads as the schedule.
    """

    def __init__(self, tcn, val_schedule):
        self.tcn = tcn
        self.val_schedule = list(val_schedule)
        self.batches: list[list] = []
        self.val_weights: list[dict] = []
        self.train_trainable: list[bool] = []
        self.val_frozen: list[bool] = []
        self.val_samples: list[list] = []

    def step(self, nets, batch):
        (net,) = nets
        self.train_trainable.append(net is self.tcn and net.grads is not None)
        self.batches.append(list(batch))
        x = np.concatenate([np.full((3, 1), float(s)) for s in batch])
        out = net.forward(x)
        out.backward(np.ones_like(out.data))
        return float(out.data.sum())

    def score(self, nets, samples):
        (net,) = nets
        self.val_frozen.append(net is not self.tcn and net.grads is None)
        assert same_weights(net.state_arrays(), self.tcn.state_arrays())
        self.val_weights.append({k: v.copy() for k, v in net.state_arrays().items()})
        value = self.val_schedule[len(self.val_samples)]
        self.val_samples.append(list(samples))
        return [value - 0.25, value + 0.25]


TRAIN = [1, 2, 3, 4, 5]
VAL = [10, 11]


def run(val_schedule, epochs):
    tcn = tiny_tcn()
    loss = Recorder(tcn, val_schedule)
    (best,), history = fit(
        [tcn], TRAIN, VAL, loss.step, loss.score, np.random.default_rng(3), epochs=epochs, lr=LR
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


def test_tied_validation_scores_keep_the_earlier_epoch():
    best, history, loss = run([3.0, 1.0, 1.0, 2.0], epochs=4)
    assert [h["val_loss"] for h in history] == [3.0, 1.0, 1.0, 2.0]
    assert same_weights(best.state_arrays(), loss.val_weights[1])
    assert not same_weights(best.state_arrays(), loss.val_weights[2])


def test_patience_stops_at_the_right_epoch(monkeypatch):
    # Best at epoch 1; epochs 2 and 3 do not improve, so patience 2 stops after epoch 3.
    monkeypatch.setattr(training, "PATIENCE", 2)
    _, history, loss = run([3.0, 1.0, 2.0, 1.5, 0.5, 0.1], epochs=6)
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
    loss = Recorder(tcn, [])
    (best,), history = fit(
        [tcn], TRAIN, VAL, loss.step, loss.score, np.random.default_rng(0), epochs=0, lr=LR
    )
    assert history == []
    assert same_weights(best.state_arrays(), start)


@pytest.mark.parametrize("batch_size", [1, 5, 7])
def test_one_epoch_steps_once_per_batch(monkeypatch, batch_size):
    monkeypatch.setattr(training, "BATCH_SIZE", batch_size)
    _, history, loss = run([1.0], epochs=1)
    assert len(loss.batches) == -(-len(TRAIN) // batch_size)
    assert len(history) == 1


def test_validation_runs_on_frozen_weights():
    best, _, loss = run([3.0, 1.0, 2.0], epochs=3)
    assert loss.train_trainable == [True] * 3 * 3
    assert loss.val_frozen == [True] * 3
    assert loss.val_samples == [VAL] * 3
    assert loss.tcn.grads is not None
    assert best.grads is None


def test_non_finite_validation_loss_raises():
    with pytest.raises(FloatingPointError, match="^epoch 1: validation loss is nan$"):
        run([3.0, np.nan, 1.0], epochs=3)


def test_non_finite_train_loss_raises():
    tcn = tiny_tcn()
    loss = Recorder(tcn, [1.0, 1.0])
    with pytest.raises(FloatingPointError, match="^epoch 0: train loss is nan$"):
        fit([tcn], [1, np.nan, 3], VAL, loss.step, loss.score, np.random.default_rng(0), epochs=2, lr=LR)
