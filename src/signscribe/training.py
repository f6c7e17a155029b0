"""Shared training plumbing: stratified splits and the one training loop."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import nn

_TRAIN_FRACTION, _VAL_FRACTION = 0.7, 0.15  # the test split takes the rest

# The recipe :func:`fit` trains every network with; a batch is ``BATCH_SIZE``
# samples concatenated in time.
BATCH_SIZE, WEIGHT_DECAY, MIN_LR, PATIENCE, GRAD_CLIP = 8, 1e-5, 1e-6, 10, 5.0


class CorpusError(ValueError):
    pass


def stratified_split(samples: Sequence, rng: np.random.Generator) -> tuple[list, list, list]:
    """Split samples 70/15/15 train/val/test with every signer in each split.

    Each signer's samples are shuffled and cut at those fractions, so
    splits are proportional per signer. Raises :class:`CorpusError` when
    any signer has too few samples to land one in every split.
    """
    by_signer: dict[str, list] = {}
    for s in samples:
        by_signer.setdefault(s.signer_id, []).append(s)
    if not by_signer:
        raise CorpusError("empty corpus")
    train: list = []
    val: list = []
    test: list = []
    for signer in sorted(by_signer):
        group = by_signer[signer]
        if len(group) < 3:
            raise CorpusError(
                f"signer {signer!r} has {len(group)} samples; need >= 3 to stratify"
            )
        order = rng.permutation(len(group))
        n_train = max(1, round(_TRAIN_FRACTION * len(group)))
        n_val = max(1, round(_VAL_FRACTION * len(group)))
        n_train = min(n_train, len(group) - 2)
        n_val = min(n_val, len(group) - n_train - 1)
        for pos, idx in enumerate(order):
            if pos < n_train:
                train.append(group[idx])
            elif pos < n_train + n_val:
                val.append(group[idx])
            else:
                test.append(group[idx])
    return train, val, test


def fit(
    tcns: Sequence[nn.Tcn],
    train: Sequence,
    val: Sequence,
    step: Callable[[Sequence[nn.Tcn], list], float],
    score: Callable[[list[nn.Tcn], list], Sequence[float]],
    rng: np.random.Generator,
    *,
    epochs: int,
    lr: float,
) -> tuple[list[nn.Tcn], list[dict]]:
    """Train ``tcns`` jointly; return the best-validation networks and the history.

    Each epoch draws ``rng.permutation`` of the training samples and steps
    AdamW once per batch of ``BATCH_SIZE`` (the last may be partial):
    ``step(tcns, batch)`` runs the batch's forward and backward and returns
    its loss. The learning rate follows a cosine from ``lr`` to ``MIN_LR``
    over all steps, the weight decay is ``WEIGHT_DECAY``, and gradients are
    clipped to a global L2 norm of ``GRAD_CLIP``. The validation score, lower
    is better, is the mean of the per-sample scores that one
    ``score(frozen, val)`` call returns, in ``val`` order, where ``frozen``
    holds :meth:`nn.Tcn.from_arrays` copies of the epoch's weights: a loss,
    or any other per-sample score such as the fingerspelling trainer's
    greedy CER. Both trainers take every sample's logits from one
    :meth:`nn.Tcn.forward_each` pass per network, which matches a forward per
    sample byte for byte (zero gaps between the samples; GEMMs of 2 or more
    rows), so the scores are those of scoring each sample on its own.
    A history row per epoch holds ``epoch``, the mean batch ``train_loss``, the
    validation score as ``val_loss`` and the last step's ``lr``. Training stops
    once ``PATIENCE`` epochs pass without a strictly lower validation score;
    the frozen copies of the best epoch, the earliest on a tie, are returned
    (copies of the initial weights when ``epochs`` is 0). A non-finite epoch
    loss or score raises ``FloatingPointError``: NaN is never a new best.
    """
    opt = nn.AdamW(tcns, lr=lr, weight_decay=WEIGHT_DECAY)

    def frozen() -> list[nn.Tcn]:
        return [nn.Tcn.from_arrays(tcn.config, tcn.params) for tcn in tcns]

    n_batches = (len(train) + BATCH_SIZE - 1) // BATCH_SIZE
    total_steps = max(1, epochs * n_batches)
    steps = 0
    best_val = np.inf
    best = frozen()
    best_epoch = -1
    history: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = [train[i] for i in order[b * BATCH_SIZE : (b + 1) * BATCH_SIZE]]
            opt.lr = nn.cosine_lr(steps, total_steps, lr, MIN_LR)
            opt.zero_grad()
            epoch_loss += step(tcns, batch)
            nn.clip_grad_norm(opt.grads, GRAD_CLIP)
            opt.step()
            steps += 1
        train_loss = epoch_loss / n_batches
        if not np.isfinite(train_loss):
            raise FloatingPointError(f"epoch {epoch}: train loss is {train_loss}")
        nets = frozen()
        val_loss = float(np.mean(score(nets, list(val))))
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"epoch {epoch}: validation loss is {val_loss}")
        history.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss, "lr": opt.lr}
        )
        if val_loss < best_val:
            best_val = val_loss
            best = nets
            best_epoch = epoch
        elif epoch - best_epoch >= PATIENCE:
            break
    return best, history
