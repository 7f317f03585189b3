"""Training loop for the recognizer: adaptive steps, patience-driven eps
halving, and best-validation checkpoint selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.optim import AdaDelta, DivergedError, clip_gradients
from ..util import make_rng, resolve_seed
from .model import AsrModel


@dataclass(frozen=True)
class AsrTrainConfig:
    epochs: int = 10
    batch_size: int = 8
    rho: float = 0.95
    eps: float = 1e-8
    clip: float = 5.0
    ctc_weight: float = 0.5
    seed: int | None = None


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_accuracy: float
    eps: float
    grad_norm_max: float  # largest pre-clip gradient norm of the epoch


@dataclass(frozen=True)
class TrainResult:
    best_state: dict
    best_accuracy: float
    best_epoch: int
    history: list = field(default_factory=list)


def make_batches(dataset: list, batch_size: int) -> list[list]:
    """Length-sorted batches so padding inside a batch stays small."""
    order = sorted(range(len(dataset)), key=lambda i: (dataset[i][0].shape[0], i))
    return [
        [dataset[i] for i in order[s : s + batch_size]]
        for s in range(0, len(order), batch_size)
    ]


def train_asr(
    model: AsrModel,
    train_set: list,
    valid_set: list,
    cfg: AsrTrainConfig = AsrTrainConfig(),
    metric_fn=None,
) -> TrainResult:
    """Run the epoch loop and return the best-validation parameters.

    Dataset items are (feature matrix, label id list).  After every epoch
    the validation metric (default: teacher-forced token accuracy) is
    measured; an epoch without improvement halves the optimizer eps.  The
    returned state is the snapshot of the best epoch, not the last one.
    """
    if not train_set or not valid_set:
        raise ValueError("train and valid sets must be non-empty")
    rng = make_rng(resolve_seed(cfg.seed))
    opt = AdaDelta(model.params(), rho=cfg.rho, eps=cfg.eps)
    batches = make_batches(train_set, cfg.batch_size)
    if metric_fn is None:
        v_feats = [f for f, _ in valid_set]
        v_labels = [y for _, y in valid_set]
        metric_fn = lambda m: m.teacher_forced_accuracy(v_feats, v_labels)

    best_state = model.state_dict()
    best_acc = -1.0
    best_epoch = 0
    history = []
    for epoch in range(1, cfg.epochs + 1):
        total_loss = 0.0
        n_utts = 0
        norm_max = 0.0
        for bi in rng.permutation(len(batches)):
            batch = batches[bi]
            feats = [f for f, _ in batch]
            labels = [y for _, y in batch]
            loss = model.hybrid_loss(feats, labels, cfg.ctc_weight)
            if not np.isfinite(loss.item()):
                raise DivergedError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            model.zero_grad()
            loss.backward()
            norm_max = max(norm_max, clip_gradients(model.params(), cfg.clip))
            opt.step()
            total_loss += loss.item() * len(batch)
            n_utts += len(batch)
        acc = float(metric_fn(model))
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_state = model.state_dict()
        else:
            opt.halve_eps()
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=total_loss / n_utts,
                valid_accuracy=acc,
                eps=opt.eps,
                grad_norm_max=norm_max,
            )
        )
    return TrainResult(
        best_state=best_state,
        best_accuracy=best_acc,
        best_epoch=best_epoch,
        history=history,
    )
