"""Shared training plumbing: stratified splits and the one training loop."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import nn


class CorpusError(ValueError):
    pass


def stratified_split(
    samples: Sequence,
    rng: np.random.Generator,
    fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
    signer_of=lambda s: s.signer_id,
) -> tuple[list, list, list]:
    """Split samples train/val/test with every signer represented in each split.

    Each signer's samples are shuffled and cut at the requested fractions,
    so splits are proportional per signer. Raises :class:`CorpusError` when
    any signer has too few samples to land one in every split.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise CorpusError("split fractions must sum to 1")
    by_signer: dict[str, list] = {}
    for s in samples:
        by_signer.setdefault(signer_of(s), []).append(s)
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
        n_train = max(1, round(fractions[0] * len(group)))
        n_val = max(1, round(fractions[1] * len(group)))
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
    loss_fn: Callable[[list, bool], nn.Tensor],
    rng: np.random.Generator,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    weight_decay: float,
    min_lr: float,
    patience: int,
    grad_clip: float,
) -> tuple[list[nn.Tcn], list[dict]]:
    """Train ``tcns`` jointly; return the best-validation networks and the history.

    Each epoch draws ``rng.permutation`` of the training samples and steps
    AdamW once per batch of ``batch_size`` (the last may be partial) on
    ``loss_fn(batch, True)``, with the learning rate on a cosine from ``lr``
    to ``min_lr`` over all steps and gradients clipped to a global L2 norm of
    ``grad_clip``. The validation loss is the mean of ``loss_fn([s], False)``
    over ``val``. A history row per epoch holds ``epoch``, the mean batch
    ``train_loss``, ``val_loss`` and the last step's ``lr``. Training stops
    once ``patience`` epochs pass without a new best validation loss; the
    returned networks are rebuilt from the best epoch's weights (the initial
    ones when ``epochs`` is 0).
    """
    opt = nn.AdamW([p for tcn in tcns for p in tcn.parameters()], lr=lr, weight_decay=weight_decay)

    def snapshot() -> list[dict[str, np.ndarray]]:
        return [{k: v.copy() for k, v in tcn.state_arrays().items()} for tcn in tcns]

    n_batches = (len(train) + batch_size - 1) // batch_size
    total_steps = max(1, epochs * n_batches)
    step = 0
    best_val = np.inf
    best_state = snapshot()
    best_epoch = -1
    history: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for b in range(n_batches):
            batch = [train[i] for i in order[b * batch_size : (b + 1) * batch_size]]
            opt.lr = nn.cosine_lr(step, total_steps, lr, min_lr)
            loss = loss_fn(batch, True)
            opt.zero_grad()
            loss.backward()
            nn.clip_grad_norm(opt.params, grad_clip)
            opt.step()
            step += 1
            epoch_loss += loss.item()
        val_loss = float(np.mean([loss_fn([s], False).item() for s in val]))
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss / n_batches, "val_loss": val_loss, "lr": opt.lr}
        )
        if val_loss < best_val:
            best_val = val_loss
            best_state = snapshot()
            best_epoch = epoch
        elif epoch - best_epoch >= patience:
            break
    best = [nn.Tcn.from_arrays(tcn.config, state) for tcn, state in zip(tcns, best_state)]
    return best, history
