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
from dataclasses import dataclass

import numpy as np

from .nn import tensor as tt
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.layers import Linear, Module, StatsPooling
from .nn.optim import DivergedError, clip_gradients, make_optimizer
from .util import make_rng

SILENCE, SPEECH, GARBAGE = 0, 1, 2


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
    """Spliced feed-forward stack, statistics pooling, 3-class softmax."""

    def __init__(self, cfg: SadConfig = SadConfig(), rng=None, dtype=np.float32):
        rng = np.random.default_rng(0) if rng is None else rng
        self.cfg = cfg
        self.dtype = dtype
        dims = [cfg.input_dim * (2 * cfg.context + 1), *cfg.hidden]
        self.layers = [Linear(dims[i], dims[i + 1], rng, dtype) for i in range(len(dims) - 1)]
        self.pool = StatsPooling(cfg.pool_radius)
        self.out = Linear(3 * dims[-1], 3, rng, dtype)

    def _splice(self, f: np.ndarray) -> tt.Tensor:
        T = f.shape[0]
        c = self.cfg.context
        idx = np.clip(np.arange(T)[:, None] + np.arange(-c, c + 1)[None, :], 0, T - 1)
        x = tt.Tensor(np.asarray(f, dtype=self.dtype))
        return tt.reshape(tt.take(x, idx), (1, T, (2 * c + 1) * self.cfg.input_dim))

    def log_posteriors(self, f) -> tt.Tensor:
        f = np.asarray(getattr(f, "frames", f))
        if f.ndim != 2 or f.shape[1] != self.cfg.input_dim:
            raise ValueError(
                f"feature dim {f.shape[1] if f.ndim == 2 else f.shape} "
                f"does not match input_dim {self.cfg.input_dim}"
            )
        # the frames form one (1, T, D) item: one product per layer, not
        # one per frame (frames need no row stability)
        T = f.shape[0]
        h = self._splice(f)
        for lin in self.layers:
            h = tt.relu(lin(h))
        h = tt.reshape(self.pool(tt.reshape(h, (T, -1))), (1, T, -1))
        return tt.log_softmax(tt.reshape(self.out(h), (T, 3)))


def sad_posteriors(f, model: SadModel) -> np.ndarray:
    """(T, 3) class probabilities; rows sum to 1.

    `f` is a FeatureMatrix or a plain (T, input_dim) array.
    """
    return np.exp(model.log_posteriors(f).data)


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


def viterbi_path(lik: np.ndarray, p_stay: float = 0.99) -> np.ndarray:
    """Most probable 2-state path; uniform initial distribution.

    Among equally probable paths the lexicographically smallest state
    sequence wins (Silence preferred at the first differing frame).
    """
    lik = np.asarray(lik, dtype=np.float64)
    if lik.ndim != 2 or lik.shape[1] != 2 or lik.shape[0] == 0:
        raise ValueError("likelihoods must have shape (T, 2) with T >= 1")
    if not 0.0 < p_stay < 1.0:
        raise ValueError("p_stay must lie strictly between 0 and 1")
    T = lik.shape[0]
    with np.errstate(divide="ignore"):
        ll = np.log(lik)
    lt = np.log(np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]]))

    # best score of any suffix starting at t in state s
    suffix = np.zeros((T, 2))
    for t in range(T - 2, -1, -1):
        cont = lt + (ll[t + 1] + suffix[t + 1])[None, :]
        suffix[t] = cont.max(axis=1)

    path = np.empty(T, dtype=np.int64)
    start = math.log(0.5) + ll[0] + suffix[0]
    path[0] = int(np.argmax(start))  # argmax takes the lower index on ties
    for t in range(1, T):
        step = lt[path[t - 1]] + ll[t] + suffix[t]
        path[t] = int(np.argmax(step))
    return path


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
    lik: np.ndarray, p_stay: float = 0.99, frame_shift_ms: float = 10.0
) -> SegmentList:
    return path_to_segments(viterbi_path(lik, p_stay), frame_shift_ms)


def postprocess(
    segs: SegmentList,
    max_speech: float = 30.0,
    merge_max: float = 10.0,
    speech_lik: np.ndarray | None = None,
    frame_shift_ms: float = 10.0,
) -> SegmentList:
    """Merge close neighbours, then split overlong segments.

    Adjacent segments are merged greedily left to right while the merged
    span (gap included) stays within `merge_max` seconds. Segments longer
    than `max_speech` are then split recursively: at the frame with the
    lowest Speech pseudo-likelihood within the middle half of the segment
    when `speech_lik` is given, at the midpoint otherwise.
    """
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


@dataclass
class SadTrainResult:
    model: SadModel
    priors: tuple[float, float, float]
    losses: list[float]


def train_sad(features, labels, cfg: SadTrainConfig = SadTrainConfig()) -> SadTrainResult:
    """Frame-level cross-entropy training.

    `features` is a list of (T_i, input_dim) arrays, `labels` a list of
    aligned int arrays over {0: Silence, 1: Speech, 2: Garbage}. Class
    priors are the label frequencies of the training set.
    """
    if not features or len(features) != len(labels):
        raise ValueError("features and labels must be equal-length non-empty lists")
    features = [np.asarray(getattr(f, "frames", f)) for f in features]
    labs = [np.asarray(y, dtype=np.int64) for y in labels]
    counts = np.zeros(3, dtype=np.float64)
    for f, y in zip(features, labs):
        if len(y) != f.shape[0]:
            raise ValueError("labels must align with frames")
        if y.size and (y.min() < 0 or y.max() > 2):
            raise ValueError("labels must lie in {0, 1, 2}")
        counts += np.bincount(y, minlength=3)

    rng = make_rng(cfg.seed)
    model = SadModel(cfg.arch, rng)
    opt = make_optimizer(cfg.optimizer, model.params())
    losses: list[float] = []
    for _ in range(cfg.epochs):
        total, n = 0.0, 0
        for i in rng.permutation(len(features)):
            logp = model.log_posteriors(features[i])
            rows = np.arange(logp.shape[0])
            nll = tt.neg(tt.mean_(tt.take(logp, (rows, labs[i]))))
            if not np.isfinite(nll.data):
                raise DivergedError("non-finite SAD training loss")
            model.zero_grad()
            nll.backward()
            clip_gradients(model.params(), 5.0)
            opt.step()
            total += float(nll.data) * logp.shape[0]
            n += logp.shape[0]
        losses.append(total / n)
    priors = tuple(counts / counts.sum())
    return SadTrainResult(model, priors, losses)


def save_sad(path, model: SadModel, priors, extra: dict | None = None) -> None:
    """Persist the network together with the training-set class priors."""
    config = {
        "kind": "sad",
        "input_dim": model.cfg.input_dim,
        "context": model.cfg.context,
        "hidden": list(model.cfg.hidden),
        "pool_radius": model.cfg.pool_radius,
        "priors": [float(p) for p in priors],
        **(extra or {}),
    }
    save_checkpoint(path, config, model.state_dict())


def load_sad(path) -> tuple[SadModel, tuple[float, float, float], dict]:
    config, params = load_checkpoint(path)
    if config.get("kind") != "sad":
        raise ValueError(f"{path} is not a speech activity detection checkpoint")
    cfg = SadConfig(
        input_dim=config["input_dim"],
        context=config["context"],
        hidden=tuple(config["hidden"]),
        pool_radius=config["pool_radius"],
    )
    model = SadModel(cfg, np.random.default_rng(0))
    model.load_state_dict(params)
    priors = tuple(float(p) for p in config["priors"])
    return model, priors, config


# -- segments file ------------------------------------------------------------


def write_segments(path, items: list[tuple[str, SegmentList]]) -> None:
    """TSV rows "segment-id | recording-id | start | end", 2-decimal seconds."""
    lines = []
    for rec_id, segs in items:
        for i, (s, e) in enumerate(segs):
            lines.append(f"{rec_id}-{i:04d}\t{rec_id}\t{s:.2f}\t{e:.2f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_segments(path) -> list[tuple[str, str, float, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            rows.append((parts[0], parts[1], float(parts[2]), float(parts[3])))
    return rows
