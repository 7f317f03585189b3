"""Recognizer training: the shared loop of `imsk.nn.optim.fit` with
AdaDelta steps, and after each epoch patience-driven eps halving and
best-validation checkpoint selection."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn.optim import CLIP, AdaDelta, fit, make_batches
from ..util import make_rng
from .model import AsrModel, HybridLossConfig


@dataclass(frozen=True)
class AsrTrainConfig:
    epochs: int = 10
    batch_size: int = 8
    rho: float = 0.95
    eps: float = 1e-8
    clip: float = CLIP
    ctc_weight: float = 0.5
    seed: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        HybridLossConfig(self.ctc_weight)  # checks the weight lies in [0, 1]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_accuracy: float
    eps: float
    grad_norm_max: float  # largest pre-clip gradient norm of the epoch
    wall_s: float  # wall seconds of the epoch's training steps


@dataclass(frozen=True)
class TrainResult:
    best_state: dict
    best_accuracy: float
    best_epoch: int
    history: list = field(default_factory=list)


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
    rng = make_rng(cfg.seed)
    opt = AdaDelta(model.params(), rho=cfg.rho, eps=cfg.eps)
    batches = make_batches(train_set, cfg.batch_size)
    if metric_fn is None:
        v_feats = [f for f, _ in valid_set]
        v_labels = [y for _, y in valid_set]
        metric_fn = lambda m: m.teacher_forced_accuracy(v_feats, v_labels)

    def loss_of(batch):
        loss = model.hybrid_loss([f for f, _ in batch], [y for _, y in batch], cfg.ctc_weight)
        return loss, len(batch)

    best_state = model.state_dict()
    best_acc = -1.0
    best_epoch = 0
    history = []
    for epoch, train_loss, norm_max, wall_s in fit(
        model.params(), opt, batches, rng, loss_of, cfg.epochs, cfg.clip
    ):
        acc = float(metric_fn(model))
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_state = model.state_dict()
        else:
            opt.halve_eps()
        history.append(EpochStats(epoch, train_loss, acc, opt.eps, norm_max, wall_s))
    return TrainResult(best_state, best_acc, best_epoch, history)
