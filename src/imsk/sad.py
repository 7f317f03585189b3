"""Speech activity detection and segmentation.

A small feed-forward network with spliced temporal context and a
statistics-pooling layer scores every frame over three classes
(Silence, Speech, Garbage). Posteriors are turned into two-state
pseudo-likelihoods by dividing by class priors and mixing with fixed
per-state proportions, a two-state Viterbi pass produces speech
intervals, and post-processing merges short neighbours and splits
overlong segments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import BLOCK, flush_blocks
from .nn import tensor as tt
from .nn.checkpoint import load_model, save_model
from .nn.layers import Linear, Module, StatsPooling, frozen
from .nn.optim import OPTIMIZERS, fit, make_optimizer
from .util import make_rng, read_tsv_lines, write_tsv

SILENCE, SPEECH, GARBAGE = 0, 1, 2
CLASS_NAMES = ("Silence", "Speech", "Garbage")


@dataclass(frozen=True)
class SadConfig:
    """Network shape: per-frame splicing, hidden widths, pooling radius."""

    input_dim: int = 40
    context: int = 2
    hidden: tuple[int, ...] = (32,)
    pool_radius: int = 50

    def __post_init__(self):
        if self.input_dim < 1 or self.context < 0 or self.pool_radius < 1:
            raise ValueError("invalid SAD dimensions")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden widths must be positive")


class SadModel(Module):
    """Spliced feed-forward stack, statistics pooling, 3-class softmax.
    With no `rng`, every parameter starts at zero, to be loaded."""

    KIND = "sad"

    def __init__(self, cfg: SadConfig = SadConfig(), rng=None, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        dims = [cfg.input_dim * (2 * cfg.context + 1), *cfg.hidden]
        self.layers = [Linear(dims[i], dims[i + 1], rng, dtype) for i in range(len(dims) - 1)]
        self.pool = StatsPooling(cfg.pool_radius)
        self.out = Linear(3 * dims[-1], 3, rng, dtype)

    def _frames(self, f) -> np.ndarray:
        f = np.asarray(getattr(f, "frames", f))
        if f.ndim != 2 or f.shape[1] != self.cfg.input_dim:
            raise ValueError(
                f"feature dim {f.shape[1] if f.ndim == 2 else f.shape} "
                f"does not match input_dim {self.cfg.input_dim}"
            )
        if f.shape[0] == 0:
            raise ValueError("SAD input has no frames")
        return f

    def _hidden(self, f: np.ndarray, start: int, stop: int) -> tt.Tensor:
        """(stop - start, H) last hidden layer of frames start..stop-1
        of the (T, input_dim) features, spliced with their clamped
        neighbours."""
        c = self.cfg.context
        idx = np.clip(np.arange(start, stop)[:, None] + np.arange(-c, c + 1)[None, :], 0, f.shape[0] - 1)
        x = tt.Tensor(np.asarray(f, dtype=self.dtype))
        h = tt.reshape(tt.take(x, idx), (stop - start, (2 * c + 1) * self.cfg.input_dim))
        for lin in self.layers:
            h = tt.relu(lin(h))
        return h

    def _output(self, pooled: tt.Tensor) -> tt.Tensor:
        return tt.log_softmax(self.out(pooled))

    def config_dict(self) -> dict:
        return asdict(self.cfg)

    @staticmethod
    def from_config(config: dict) -> "SadModel":
        """The network of a SAD checkpoint's config, whose priors must be valid too."""
        _priors(config)
        hidden = tuple(config["hidden"])
        return SadModel(SadConfig(config["input_dim"], config["context"], hidden, config["pool_radius"]))

    def log_posteriors(self, f) -> tt.Tensor:
        f = self._frames(f)
        return self._output(self.pool(self._hidden(f, 0, f.shape[0])))


def sad_posteriors(f, model: SadModel) -> np.ndarray:
    """(T, 3) class probabilities; rows sum to 1.

    `f` is a FeatureMatrix or a plain (T, input_dim) array. The network
    runs on a constant copy of `model`, so no autograd graph is built, in
    the front end's flush blocks of frames (`audio.flush_blocks`). Each
    block's hidden layers also run on the `pool_radius` frames either side
    of it, spliced with `context` more, and the pooling's float64 running
    sums are carried from block to block. Every product multiplies fixed
    row tiles, so the posteriors have the bits of one pass over the whole
    recording, and no array but the result grows with it.
    """
    net = frozen(model, model.dtype)
    f = np.asarray(net._frames(f), dtype=net.dtype)
    T, r = f.shape[0], net.cfg.pool_radius
    n = min(T, BLOCK)
    starts = flush_blocks(T)
    post = np.empty((T, 3), net.dtype)
    carry = None  # running sums of the rows before the block's first
    for t0, t_next in zip(starts, [*starts[1:], T]):
        h0, h1 = max(t0 - r, 0), min(t0 + n + r, T)
        h = net._hidden(f, h0, h1).data
        sums, running = tt._windowed_sum_data(np.concatenate([h, h * h], axis=1), r, carry, h1 == T)
        # sums start at row h0 + r of the sequence after a carry, at 0 before
        at = t0 - h0 - (0 if carry is None else r)
        s1, s2 = np.split(sums[at : at + n], 2, axis=1)
        x = tt.Tensor(h[t0 - h0 : t0 - h0 + n])
        pooled = net.pool.stats(x, tt.Tensor(s1), tt.Tensor(s2), tt.window_counts(T, r, t0, t0 + n))
        post[t0 : t0 + n] = np.exp(net._output(pooled).data)
        carry = running[t_next - r - 1 - h0] if t_next > r else None
    return post


@dataclass(frozen=True)
class SadTransform:
    """Class priors and the 2x3 state/class proportion matrix."""

    priors: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    proportions: tuple[tuple[float, ...], ...] = ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))

    def __post_init__(self):
        p = np.asarray(self.priors, dtype=np.float64)
        if p.shape != (3,) or np.any(p <= 0.0):
            raise ValueError("priors must be 3 positive values")
        if abs(p.sum() - 1.0) > 1e-6:
            raise ValueError("priors must sum to 1")
        w = np.asarray(self.proportions, dtype=np.float64)
        if w.shape != (2, 3):
            raise ValueError("proportions must be a 2x3 matrix")
        if np.any(np.abs(w.sum(axis=0) - 1.0) > 1e-6):
            raise ValueError("each proportions column must sum to 1")


def to_pseudo_likelihoods(post: np.ndarray, t: SadTransform) -> np.ndarray:
    """lik[t][s] = sum_c w[s][c] * post[t][c] / prior[c]; shape (T, 2)."""
    post = np.asarray(post, dtype=np.float64)
    if post.ndim != 2 or post.shape[1] != 3:
        raise ValueError("posteriors must have shape (T, 3)")
    scaled = post / np.asarray(t.priors, dtype=np.float64)[None, :]
    return scaled @ np.asarray(t.proportions, dtype=np.float64).T


@dataclass(frozen=True)
class SegmentList:
    """Sorted, non-overlapping (start_sec, end_sec) spans."""

    spans: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = 0.0
        for s, e in self.spans:
            if not 0.0 <= s < e:
                raise ValueError(f"invalid span ({s}, {e})")
            if s < prev_end:
                raise ValueError("spans must be sorted and non-overlapping")
            prev_end = e

    def __iter__(self):
        return iter(self.spans)

    def __len__(self):
        return len(self.spans)

    def __getitem__(self, i):
        return self.spans[i]


def viterbi_path(lik: np.ndarray, p_stay: float) -> np.ndarray:
    """Most probable 2-state path; uniform initial distribution.

    Among equally probable paths the lexicographically smallest state
    sequence wins (Silence preferred at the first differing frame).
    Likelihoods must be finite and >= 0; a zero scores as log 0 = -inf.
    """
    lik = np.asarray(lik, dtype=np.float64)
    if lik.ndim != 2 or lik.shape[1] != 2 or lik.shape[0] == 0:
        raise ValueError("likelihoods must have shape (T, 2) with T >= 1")
    if not 0.0 < p_stay < 1.0:
        raise ValueError("p_stay must lie strictly between 0 and 1")
    bad = np.flatnonzero(~(np.isfinite(lik) & (lik >= 0.0)).all(axis=1))
    if bad.size:
        raise ValueError(
            f"likelihoods must be finite and >= 0; frame {bad[0]} has {lik[bad[0]].tolist()}"
        )
    T = lik.shape[0]
    with np.errstate(divide="ignore"):
        ll = np.log(lik)
    lt = np.log(np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]])).tolist()
    # two states: Python floats beat numpy's per-call overhead
    ll0, ll1 = ll[:, 0].tolist(), ll[:, 1].tolist()
    (l00, l01), (l10, l11) = lt

    # best score of any suffix starting at t in state s
    suf0, suf1 = [0.0] * T, [0.0] * T
    for t in range(T - 2, -1, -1):
        c0 = ll0[t + 1] + suf0[t + 1]
        c1 = ll1[t + 1] + suf1[t + 1]
        suf0[t] = max(l00 + c0, l01 + c1)
        suf1[t] = max(l10 + c0, l11 + c1)

    # ties go to Silence (state 0)
    half = math.log(0.5)
    s = 0 if (half + ll0[0]) + suf0[0] >= (half + ll1[0]) + suf1[0] else 1
    path = [s]
    for t in range(1, T):
        r0, r1 = lt[s]
        s = 0 if (r0 + ll0[t]) + suf0[t] >= (r1 + ll1[t]) + suf1[t] else 1
        path.append(s)
    return np.array(path, dtype=np.int64)


def path_to_segments(path: np.ndarray, frame_shift_ms: float = 10.0) -> SegmentList:
    """Maximal runs of the Speech state, as second-valued spans."""
    shift = frame_shift_ms / 1000.0
    spans = []
    start = None
    for t, s in enumerate(path):
        if s == SPEECH and start is None:
            start = t
        elif s != SPEECH and start is not None:
            spans.append((start * shift, t * shift))
            start = None
    if start is not None:
        spans.append((start * shift, len(path) * shift))
    return SegmentList(tuple(spans))


def viterbi_segments(
    lik: np.ndarray, p_stay: float, frame_shift_ms: float = 10.0
) -> SegmentList:
    return path_to_segments(viterbi_path(lik, p_stay), frame_shift_ms)


def postprocess(
    segs: SegmentList,
    max_speech: float,
    merge_max: float,
    speech_lik: np.ndarray | None = None,
    frame_shift_ms: float = 10.0,
) -> SegmentList:
    """Merge close neighbours, then split overlong segments.

    Adjacent segments are merged greedily left to right while the merged
    span (gap included) stays within `merge_max` seconds. Segments longer
    than `max_speech` are then split recursively: at the frame with the
    lowest Speech pseudo-likelihood within the middle half of the segment
    when `speech_lik` is given, at the midpoint otherwise. `max_speech`
    must be > 0 and `merge_max` >= 0, neither NaN.
    """
    if not max_speech > 0:
        raise ValueError(f"max_speech must be > 0, got {max_speech}")
    if not merge_max >= 0:
        raise ValueError(f"merge_max must be >= 0, got {merge_max}")
    merged: list[tuple[float, float]] = []
    for s, e in segs:
        if merged and e - merged[-1][0] <= merge_max:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))

    shift = frame_shift_ms / 1000.0

    def cut_point(s: float, e: float) -> float:
        lo, hi = s + (e - s) / 4.0, s + 3.0 * (e - s) / 4.0
        if speech_lik is None:
            return (s + e) / 2.0
        lo_f = max(int(math.ceil(lo / shift)), int(math.floor(s / shift)) + 1)
        hi_f = min(int(math.floor(hi / shift)), int(math.ceil(e / shift)) - 1)
        hi_f = min(hi_f, len(speech_lik) - 1)
        if lo_f > hi_f:
            return (s + e) / 2.0
        window = np.asarray(speech_lik[lo_f : hi_f + 1], dtype=np.float64)
        return (lo_f + int(np.argmin(window))) * shift

    def split(s: float, e: float) -> list[tuple[float, float]]:
        if e - s <= max_speech:
            return [(s, e)]
        cut = cut_point(s, e)
        if not s < cut < e:
            cut = (s + e) / 2.0
        return split(s, cut) + split(cut, e)

    out: list[tuple[float, float]] = []
    for s, e in merged:
        out.extend(split(s, e))
    return SegmentList(tuple(out))


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class SadTrainConfig:
    arch: SadConfig = SadConfig()
    epochs: int = 5
    optimizer: str = "adam"
    seed: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")


@dataclass
class SadTrainResult:
    model: SadModel
    priors: tuple[float, float, float]
    losses: list[float]
    grad_norms: list[float]  # largest pre-clip gradient norm of each epoch
    epoch_seconds: list[float]  # wall seconds of each epoch's training steps


def train_sad(features, labels, cfg: SadTrainConfig = SadTrainConfig()) -> SadTrainResult:
    """Frame-level cross-entropy training.

    `features` is a list of (T_i, input_dim) arrays, `labels` a list of
    aligned int arrays over {0: Silence, 1: Speech, 2: Garbage}. Class
    priors are the label frequencies of the training set, so every class
    needs at least one frame, and every utterance needs at least one frame.
    Each utterance is one batch.
    """
    if not features or len(features) != len(labels):
        raise ValueError("features and labels must be equal-length non-empty lists")
    features = [np.asarray(getattr(f, "frames", f)) for f in features]
    labs = [np.asarray(y, dtype=np.int64) for y in labels]
    counts = np.zeros(3, dtype=np.float64)
    for i, (f, y) in enumerate(zip(features, labs)):
        if f.shape[0] == 0:
            raise ValueError(f"utterance {i} has no frames")
        if len(y) != f.shape[0]:
            raise ValueError("labels must align with frames")
        if y.size and (y.min() < 0 or y.max() > 2):
            raise ValueError("labels must lie in {0, 1, 2}")
        counts += np.bincount(y, minlength=3)
    missing = [name for name, n in zip(CLASS_NAMES, counts) if n == 0]
    if missing:
        raise ValueError(f"no {' or '.join(missing)} frame in the labels, so a class prior would be 0")

    rng = make_rng(cfg.seed)
    model = SadModel(cfg.arch, rng)
    opt = make_optimizer(cfg.optimizer, model.params())

    def loss_of(item):
        f, y = item
        logp = model.log_posteriors(f)
        return tt.neg(tt.mean_(tt.take(logp, (np.arange(logp.shape[0]), y)))), logp.shape[0]

    epochs = fit(model.params(), opt, list(zip(features, labs)), rng, loss_of, cfg.epochs)
    _, losses, grad_norms, seconds = map(list, zip(*epochs))
    return SadTrainResult(model, tuple(counts / counts.sum()), losses, grad_norms, seconds)


def save_sad(path, model: SadModel, priors) -> None:
    """Persist the network together with the training-set class priors."""
    save_model(path, model, priors=[float(p) for p in priors])


def _priors(config: dict) -> tuple[float, float, float]:
    return SadTransform(priors=tuple(float(p) for p in config["priors"])).priors


def load_sad(path) -> tuple[SadModel, tuple[float, float, float], dict]:
    model, config = load_model(path, SadModel, "speech activity detection")
    return model, _priors(config), config


# -- segments file ------------------------------------------------------------


def write_segments(path, items: list[tuple[str, SegmentList]]) -> None:
    """TSV rows "segment-id | recording-id | start | end", 2-decimal seconds."""
    rows = [(rec, i, s, e) for rec, segs in items for i, (s, e) in enumerate(segs)]
    write_tsv(path, [(f"{rec}-{i:04d}", rec, f"{s:.2f}", f"{e:.2f}") for rec, i, s, e in rows])


def read_segments(path) -> list[tuple[str, str, float, float]]:
    """Rows "segment-id TAB recording-id TAB start TAB end", times in
    seconds. Raises ValueError, naming the file and line, for text that is
    not UTF-8, a row of other than 4 fields or times that are not numbers
    with 0 <= start <= end."""
    rows = []
    for lineno, parts in read_tsv_lines(path, 4):
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        try:
            start, end = float(parts[2]), float(parts[3])
        except ValueError:
            start = end = math.nan
        if not 0.0 <= start <= end < math.inf:
            raise ValueError(f"{path}:{lineno}: expected times 0 <= start <= end, got {parts[2]!r}, {parts[3]!r}")
        rows.append((parts[0], parts[1], start, end))
    return rows
