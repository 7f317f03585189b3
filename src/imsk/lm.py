"""Recurrent subword language model for shallow fusion and perplexity.

The model reads sos-prefixed token sequences and emits a log-probability
distribution over the next token at every step. During beam search these
per-step scores are added to the recognizer scores with the weight
`beam.DecodeConfig.lm_weight`; standalone, exp of the mean negative
log-likelihood per token gives perplexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import tensor as tt
from .nn.checkpoint import load_model, save_model
from .nn.layers import Embedding, Linear, LstmCell, Module, frozen
from .nn.optim import OPTIMIZERS, fit, make_batches, make_optimizer
from .tokenizer import SOS_EOS_ID, teacher_forcing
from .util import make_rng


@dataclass(frozen=True)
class LmConfig:
    """Architecture and training switches for the subword LM."""

    layers: int = 2
    units: int = 64
    optimizer: str = "sgd"
    batch: int = 8
    epochs: int = 10

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.units < 1:
            raise ValueError("units must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


# published recipes: plain SGD for the English LM, Adam for the German one
LM_ENGLISH = LmConfig(layers=2, units=650, optimizer="sgd")
LM_GERMAN = LmConfig(layers=2, units=3000, optimizer="adam")


class LstmLm(Module):
    """Embedding, a stack of LSTM cells, and a softmax output layer.

    The embedding width equals the hidden width. States are lists of
    (h, c) pairs, one per layer; they are plain values and may be shared
    between search branches without copying. With no `rng`, every
    parameter starts at zero, to be loaded.
    """

    KIND = "lm"

    def __init__(
        self,
        vocab_size: int,
        layers: int,
        units: int,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
        vocab_hash: str = "",
    ):
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if layers < 1 or units < 1:
            raise ValueError("layers and units must be >= 1")
        self.vocab_size = vocab_size
        self.n_layers = layers
        self.units = units
        self.dtype = np.dtype(dtype).type
        self.vocab_hash = vocab_hash
        self.embed = Embedding(vocab_size, units, rng, dtype)
        self.cells = [LstmCell(units, units, rng, dtype) for _ in range(layers)]
        self.out = Linear(units, vocab_size, rng, dtype)

    def initial_state(self, batch: int = 1):
        return [cell.zero_state(batch, self.dtype) for cell in self.cells]

    def lm_step(self, state, token):
        """Advance one step: ((B, V) log-probs over the vocabulary, new
        state) for `token`, a (B,) id array matching the state's batch."""
        ids = np.asarray(token, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(f"token id out of range [0, {self.vocab_size})")
        x = self.embed(ids)
        new_state = []
        for (h, c), cell in zip(state, self.cells):
            h, c = cell(x, h, c)
            new_state.append((h, c))
            x = h
        return tt.log_softmax(self.out(x)), new_state

    def config_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "layers": self.n_layers,
            "units": self.units,
            "vocab_hash": self.vocab_hash,
        }

    @staticmethod
    def from_config(config: dict) -> "LstmLm":
        return LstmLm(
            config["vocab_size"], config["layers"], config["units"], vocab_hash=config.get("vocab_hash", "")
        )


def sequence_log_prob(lm, ids, include_eos: bool = True) -> float:
    """log p(Y) of one token sequence, summed over per-step scores."""
    tokens = list(ids) + ([SOS_EOS_ID] if include_eos else [])
    state = lm.initial_state(1)
    prev = SOS_EOS_ID
    total = 0.0
    for t in tokens:
        logp, state = lm.lm_step(state, np.array([prev], dtype=np.int64))
        total += float(logp.data[0, t])
        prev = t
    return total


def _batch_nll(model, lines):
    """Summed teacher-forced negative log-likelihood over padded lines.

    Returns (scalar Tensor, token count). Each line is scored on its
    tokens plus the closing eos; pad steps are masked out.
    """
    inputs, targets, mask = teacher_forcing(lines, model.dtype)
    rows = np.arange(len(lines))
    state = model.initial_state(len(lines))
    picked = []
    for u in range(inputs.shape[1]):
        logp, state = model.lm_step(state, inputs[:, u])
        step = tt.mul(tt.take(logp, (rows, targets[:, u])), tt.Tensor(mask[:, u]))
        picked.append(step)
    total = tt.neg(tt.sum_(tt.stack(picked)))
    return total, int(mask.sum())


# lines per batch of `perplexity`
_EVAL_LINES = 64


def perplexity(corpus, lm) -> float:
    """exp of the mean negative log-likelihood per token, eos included;
    evaluated on a constant copy of `lm`, so no autograd graph is built."""
    lines = list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    lm = frozen(lm, lm.dtype)
    total = 0.0
    count = 0
    for i in range(0, len(lines), _EVAL_LINES):
        nll, n = _batch_nll(lm, lines[i : i + _EVAL_LINES])
        total += float(nll.data)
        count += n
    return math.exp(total / count)


@dataclass
class LmTrainResult:
    model: LstmLm
    perplexities: list[float]
    grad_norms: list[float]  # largest pre-clip gradient norm of each epoch
    epoch_seconds: list[float]  # wall seconds of each epoch's training steps


def train_lm(
    corpus,
    vocab_size: int,
    cfg: LmConfig | None = None,
    seed: int | None = None,
    vocab_hash: str = "",
) -> LmTrainResult:
    """Cross-entropy training over sos-prefixed lines.

    Returns the final model together with the training-corpus perplexity
    measured after each epoch, the epoch's largest pre-clip gradient norm
    and the wall seconds of its steps.
    """
    cfg = cfg or LmConfig()
    lines = [list(map(int, y)) for y in corpus]
    if not lines:
        raise ValueError("empty corpus")
    for y in lines:
        if any(t < 0 or t >= vocab_size for t in y):
            raise ValueError(f"token id out of range [0, {vocab_size})")

    rng = make_rng(seed)
    model = LstmLm(vocab_size, cfg.layers, cfg.units, rng, vocab_hash=vocab_hash)
    opt = make_optimizer(cfg.optimizer, model.params())
    batches = make_batches(lines, cfg.batch, length=len)

    def loss_of(batch):
        nll, n_tokens = _batch_nll(model, batch)
        return tt.mul(nll, tt.Tensor(np.asarray(1.0 / n_tokens, dtype=model.dtype))), n_tokens

    epochs = [
        (perplexity(lines, model), norm_max, wall_s)
        for _, _, norm_max, wall_s in fit(model.params(), opt, batches, rng, loss_of, cfg.epochs)
    ]
    return LmTrainResult(model, *map(list, zip(*epochs)))


def save_lm(path, lm: LstmLm) -> None:
    save_model(path, lm)


def load_lm(path) -> tuple[LstmLm, dict]:
    return load_model(path, LstmLm, "language model")
