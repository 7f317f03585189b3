"""Hybrid CTC/attention recognizer, and `train_asr`: validation, eps
halving and best-state selection around the shared `imsk.nn.optim.fit`."""

from ..nn.optim import make_batches
from . import model, training
from .model import (
    ATTENTION_LARGE,
    DECODER_LARGE,
    ENCODER_LARGE,
    AsrModel,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    HybridLossConfig,
    encoder_output_length,
    load_asr,
    save_asr,
)
from .training import AsrTrainConfig, EpochStats, TrainResult, train_asr
