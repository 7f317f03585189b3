"""Attention encoder-decoder with a CTC branch.

The encoder stacks two convolutional blocks (each halving time and
frequency) and a pyramid of bidirectional LSTM layers.  The decoder is a
unidirectional LSTM fed the previous label embedding and an attention
context; attention is location-aware: the previous alignment is convolved
and mixed into the scoring MLP so the mechanism can track position.

Both training objectives read one shared encoder pass: the attention branch
scores teacher-forced next-label predictions, the CTC branch scores frame
alignments, and the hybrid loss is their convex combination.

Default dimensions are desk-scale so tests train in seconds; the *_LARGE
presets record the full-scale configuration (2 VGG blocks, 5x1024 BLSTM,
2x1024 decoder, 1024-dim attention with 10 channels).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..ctc import _check_labels, ctc_loss_op
from ..nn import tensor as tt
from ..nn.checkpoint import load_model, save_model
from ..nn.layers import (
    Blstm,
    Embedding,
    Linear,
    LstmCell,
    Module,
    Parameter,
    VggBlock,
    uniform_init,
)
from ..tokenizer import BLANK_ID, teacher_forcing

NEG_FILL = -1.0e30  # finite stand-in for -inf at attention's masked frames


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 80
    vgg_channels: tuple = (8, 16)
    blstm_layers: int = 2
    blstm_units: int = 64

    def __post_init__(self):
        if self.blstm_layers < 1 or self.blstm_units < 1:
            raise ValueError("encoder layers and units must be >= 1")


@dataclass(frozen=True)
class AttentionConfig:
    attn_dim: int = 64
    conv_channels: int = 4
    conv_filters: int = 11  # full kernel width, odd

    def __post_init__(self):
        if min(self.attn_dim, self.conv_channels, self.conv_filters) < 1:
            raise ValueError("attention dimensions must be positive")
        if self.conv_filters % 2 == 0:
            raise ValueError(f"conv_filters must be odd, got {self.conv_filters}")


@dataclass(frozen=True)
class DecoderConfig:
    layers: int = 1
    units: int = 64
    embed_dim: int = 64


@dataclass(frozen=True)
class HybridLossConfig:
    ctc_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError("ctc weight must lie in [0, 1]")


ENCODER_LARGE = EncoderConfig(input_dim=80, vgg_channels=(64, 128), blstm_layers=5, blstm_units=1024)
ATTENTION_LARGE = AttentionConfig(attn_dim=1024, conv_channels=10, conv_filters=201)
DECODER_LARGE = DecoderConfig(layers=2, units=1024, embed_dim=1024)


def half_ceil(n: int) -> int:
    return (n + 1) // 2


def encoder_output_length(t: int) -> int:
    """Frames after two time-halving pool stages."""
    return half_ceil(half_ceil(t))


class AsrModel(Module):
    """With no `rng`, every parameter starts at zero, to be loaded."""

    KIND = "asr"
    # the encoder, which decoding keeps in float32 on the model's arrays
    ENCODER_ATTRS = ("block1", "block2", "blstms")

    def __init__(
        self,
        vocab_size: int,
        enc: EncoderConfig = EncoderConfig(),
        att: AttentionConfig = AttentionConfig(),
        dec: DecoderConfig = DecoderConfig(),
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        self.vocab_size = vocab_size
        self.enc_cfg = enc
        self.att_cfg = att
        self.dec_cfg = dec
        self.dtype = dtype
        self.vocab_hash = ""  # fingerprint of the subword vocabulary, if known

        c1, c2 = enc.vgg_channels
        self.block1 = VggBlock(1, c1, rng, dtype)
        self.block2 = VggBlock(c1, c2, rng, dtype)
        freq_out = half_ceil(half_ceil(enc.input_dim))
        enc_in = c2 * freq_out
        self.blstms = [
            Blstm(enc_in if i == 0 else 2 * enc.blstm_units, enc.blstm_units, rng, dtype)
            for i in range(enc.blstm_layers)
        ]
        h2 = 2 * enc.blstm_units

        self.att_enc = Linear(h2, att.attn_dim, rng, dtype)
        self.att_dec = Linear(dec.units, att.attn_dim, rng, dtype)
        self.att_conv = Parameter(
            uniform_init(rng, (att.conv_filters, att.conv_channels), dtype), name="att_conv"
        )
        self.att_loc = Linear(att.conv_channels, att.attn_dim, rng, dtype)
        self.att_vec = Parameter(uniform_init(rng, (att.attn_dim,), dtype), name="att_vec")

        self.embed = Embedding(vocab_size, dec.embed_dim, rng, dtype)
        self.dec_cells = [
            LstmCell(dec.embed_dim + h2 if i == 0 else dec.units, dec.units, rng, dtype)
            for i in range(dec.layers)
        ]
        self.out = Linear(dec.units, vocab_size, rng, dtype)
        self.ctc_out = Linear(h2, vocab_size, rng, dtype)

    # -- encoder --------------------------------------------------------------

    def encode_batch(self, feats: list) -> tuple[tt.Tensor, np.ndarray]:
        """(B, T', 2H) encodings of one zero-padded batch and per-utterance
        output lengths; frames past an utterance's length hold no encoding.
        The convolutional blocks run on each utterance alone and the BLSTMs
        once on the padded batch, in training and decoding alike. With
        `matmul`'s row tiles, every row then equals its utterance encoded
        alone, bit for bit."""
        d = self.enc_cfg.input_dim
        for f in feats:
            if f.shape[1] != d:
                raise ValueError(f"feature dim {f.shape[1]} does not match input_dim {d}")
        lengths = np.array([encoder_output_length(f.shape[0]) for f in feats])
        t_max = lengths.max()
        rows = []
        for f, n in zip(feats, lengths):
            # in the encoder's own dtype, which a decoding copy may not share
            x = tt.Tensor(np.asarray(f, dtype=self.block1.w1.dtype)[None, :, :, None])
            y = tt.reshape(self.block2(self.block1(x)), (1, n, -1))
            pad = np.zeros((1, t_max - n, y.shape[2]), y.dtype)
            rows.append(tt.concat([y, tt.Tensor(pad)], axis=1))
        y = tt.concat(rows)
        for layer in self.blstms:
            y = layer(y, lengths)
        return y, lengths

    def encode(self, feat: np.ndarray) -> tt.Tensor:
        """(T', 2H) encoding of a single utterance."""
        h, _ = self.encode_batch([feat])
        return tt.take(h, 0)

    # -- attention ------------------------------------------------------------

    def precompute_attention(self, h: tt.Tensor) -> tt.Tensor:
        """Per-frame encoder projection, computed once per utterance."""
        return self.att_enc(h)

    def attend(
        self,
        a_prev: tt.Tensor,
        q_prev: tt.Tensor,
        h: tt.Tensor,
        vh: tt.Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> tuple[tt.Tensor, tt.Tensor]:
        """One attention step: (B, T') weights and (B, 2H) context.

        `h` (and `vh`) hold one utterance per row, or one utterance (batch
        1) that all B rows share.
        """
        B, T = a_prev.shape
        if h.shape[0] not in (1, B) or h.shape[1] != T:
            raise ValueError(f"alignment shape {a_prev.shape} does not match encodings {h.shape}")
        if vh is None:
            vh = self.precompute_attention(h)
        A = self.att_cfg.attn_dim
        f = tt.conv1d_single_channel(a_prev, self.att_conv)  # (B, T, C)
        wq = tt.reshape(self.att_dec(q_prev) + self.att_loc.b, (B, 1, A))
        pre = tt.tanh_addmm(vh, f, self.att_loc.w, wq)
        scores = tt.reshape(tt.matmul(pre, tt.reshape(self.att_vec, (A, 1))), (B, T))
        if mask is not None:
            scores = tt.add(scores, tt.Tensor(((1.0 - mask) * NEG_FILL).astype(self.dtype)))
        a = tt.softmax(scores)
        r = tt.matmul(tt.reshape(a, (B, 1, T)), h)
        return a, tt.reshape(r, (B, h.shape[2]))

    # -- decoder --------------------------------------------------------------

    def initial_decoder_state(self, batch: int, dtype=None):
        dtype = self.dtype if dtype is None else dtype
        return [cell.zero_state(batch, dtype) for cell in self.dec_cells]

    def decoder_query(self, state) -> tt.Tensor:
        """The state component the attention mechanism conditions on."""
        return state[-1][0]

    def decode_step(self, r: tt.Tensor, state, y_prev: np.ndarray):
        """Consume (context, previous state, previous labels).

        Returns (log-probabilities over the vocabulary, new state).
        """
        x = tt.concat([self.embed(np.asarray(y_prev, dtype=np.int64)), r], axis=1)
        new_state = []
        for (hs, cs), cell in zip(state, self.dec_cells):
            hs, cs = cell(x, hs, cs)
            new_state.append((hs, cs))
            x = hs
        return tt.log_softmax(self.out(x)), new_state

    # -- losses ---------------------------------------------------------------

    def _uniform_alignment(self, lengths: np.ndarray) -> tt.Tensor:
        B, T = len(lengths), int(lengths.max())
        a = np.zeros((B, T), dtype=self.dtype)
        for b, le in enumerate(lengths):
            a[b, :le] = 1.0 / le
        return tt.Tensor(a)

    def _attention_forward(self, h: tt.Tensor, lengths: np.ndarray, labels: list):
        """Teacher-forced pass: (per-utterance loss (B,), correct, total)."""
        inputs, targets, step_mask = teacher_forcing(labels, self.dtype)
        frame_mask = (np.arange(h.shape[1])[None, :] < lengths[:, None]).astype(self.dtype)
        vh = self.precompute_attention(h)
        a = self._uniform_alignment(lengths)
        state = self.initial_decoder_state(len(labels))
        rows = np.arange(len(labels))
        step_losses = []
        n_correct = 0
        for u in range(inputs.shape[1]):
            a, r = self.attend(a, self.decoder_query(state), h, vh, frame_mask)
            logp, state = self.decode_step(r, state, inputs[:, u])
            picked = tt.take(logp, (rows, targets[:, u]))
            step_losses.append(tt.mul(picked, tt.Tensor(step_mask[:, u])))
            hits = logp.data.argmax(axis=1) == targets[:, u]
            n_correct += int((hits * step_mask[:, u]).sum())
        per_utt = tt.neg(tt.sum_(tt.stack(step_losses, axis=1), axis=1))
        return per_utt, n_correct, int(step_mask.sum())

    def _ctc_forward(self, h: tt.Tensor, lengths: np.ndarray, labels: list) -> tt.Tensor:
        logits = self.ctc_out(h)
        losses = []
        for b, y in enumerate(labels):
            utt_logits = tt.take(logits, (b, slice(0, int(lengths[b]))))
            losses.append(ctc_loss_op(utt_logits, y, blank=BLANK_ID))
        return tt.mean_(tt.stack(losses))

    def _check_targets(self, labels: list, of: str) -> None:
        """A ValueError naming the first utterance whose labels are empty,
        out of [0, vocab_size) or hold the blank id."""
        for b, y in enumerate(labels):
            try:
                if _check_labels(y, self.vocab_size, BLANK_ID).size == 0:
                    raise ValueError("empty label sequence")
            except ValueError as e:
                raise ValueError(f"utterance {b} of {of}: {e}") from None

    def hybrid_loss(self, feats: list, labels: list, ctc_weight: float = 0.5):
        """lam * ctc + (1 - lam) * attention over one shared encoder pass.
        Before any layer runs, a ValueError names the first utterance whose
        labels are empty, out of [0, vocab_size) or hold the blank id."""
        lam = HybridLossConfig(ctc_weight).ctc_weight
        self._check_targets(labels, "the batch")
        h, lengths = self.encode_batch(feats)
        if lam == 0.0:
            per_utt, _, _ = self._attention_forward(h, lengths, labels)
            return tt.mean_(per_utt)
        if lam == 1.0:
            return self._ctc_forward(h, lengths, labels)
        per_utt, _, _ = self._attention_forward(h, lengths, labels)
        att = tt.mean_(per_utt)
        ctc = self._ctc_forward(h, lengths, labels)
        return tt.add(
            tt.mul(ctc, tt.Tensor(np.asarray(lam, dtype=ctc.dtype))),
            tt.mul(att, tt.Tensor(np.asarray(1.0 - lam, dtype=att.dtype))),
        )

    def teacher_forced_accuracy(self, feats: list, labels: list, batch_size: int = 16):
        """Fraction of teacher-forced steps whose argmax hits the target.
        Before any layer runs, labels are checked as in `hybrid_loss`."""
        self._check_targets(labels, "the evaluated set")
        correct = total = 0
        for start in range(0, len(feats), batch_size):
            sl = slice(start, start + batch_size)
            h, lengths = self.encode_batch(feats[sl])
            _, c, t = self._attention_forward(h, lengths, labels[sl])
            correct += c
            total += t
        return correct / total if total else 0.0

    # -- persistence ----------------------------------------------------------

    def config_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "encoder": asdict(self.enc_cfg),
            "attention": asdict(self.att_cfg),
            "decoder": asdict(self.dec_cfg),
            "vocab_hash": self.vocab_hash,
        }

    @staticmethod
    def from_config(config: dict) -> "AsrModel":
        enc = dict(config["encoder"])
        enc["vgg_channels"] = tuple(enc["vgg_channels"])
        model = AsrModel(
            config["vocab_size"],
            EncoderConfig(**enc),
            AttentionConfig(**config["attention"]),
            DecoderConfig(**config["decoder"]),
        )
        model.vocab_hash = config.get("vocab_hash", "")
        return model


def save_asr(path, model: AsrModel) -> None:
    save_model(path, model)


def load_asr(path) -> tuple[AsrModel, dict]:
    return load_model(path, AsrModel, "recognizer")
