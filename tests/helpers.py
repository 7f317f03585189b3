"""Shared synthetic fixtures for segmentation and recognition tests,
random corruptions of files for parser tests, an autograd-graph spy, a
runner for checks at a fixed BLAS thread count, one-prefix CTC
extension, the whole-sequence windowed sum, the compositions that fused
tensor ops replaced, the argmax form of max pooling, and the
finite-difference gradient check."""

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from hypothesis import strategies as st

from imsk.audio import Waveform, extract_mfcc
from imsk.beam import decode_batch
from imsk.ctc import ctc_prefix_extend, ctc_prefix_score_all
from imsk.nn import tensor as tt
from imsk.nn.tensor import Parameter, Tensor
from imsk.sad import GARBAGE, SILENCE, SPEECH, sad_posteriors


def sad_utterance(kind, rng, dur_s=0.5, sample_rate=16000) -> Waveform:
    """One synthetic waveform: a tone for speech, faint noise for silence,
    sparse loud clicks for garbage."""
    n = int(dur_s * sample_rate)
    t = np.arange(n) / sample_rate
    noise = 0.005 * rng.standard_normal(n)
    if kind == SPEECH:
        f0 = rng.uniform(200.0, 2000.0)
        x = 0.3 * np.sin(2 * np.pi * f0 * t) + noise
    elif kind == SILENCE:
        x = noise
    else:
        x = noise.copy()
        for pos in rng.choice(n - 4, size=int(rng.integers(6, 14)), replace=False):
            x[pos : pos + 3] += rng.uniform(0.5, 0.9) * rng.choice((-1.0, 1.0))
    return Waveform(np.clip(x, -1.0, 1.0), sample_rate)


def sad_corpus(n_per_class, rng, dur_s=0.5):
    """(features, labels) lists with one constant label array per utterance."""
    feats, labels = [], []
    for kind in (SILENCE, SPEECH, GARBAGE):
        for _ in range(n_per_class):
            f = extract_mfcc(sad_utterance(kind, rng, dur_s)).frames
            feats.append(f)
            labels.append(np.full(f.shape[0], kind, dtype=np.int64))
    return feats, labels


def frame_accuracy(model, feats, labels) -> float:
    correct = total = 0
    for f, y in zip(feats, labels):
        pred = np.argmax(sad_posteriors(f, model), axis=1)
        correct += int((pred == y).sum())
        total += y.size
    return correct / total


# -- tone-word audio world -----------------------------------------------------
#
# Each word is a fixed pure tone, so recordings are recognizable from their
# log-Mel frames alone. Amplitudes stay below 0.45: the PCM round trip
# (divide by 32768 on load, multiply by 32767 on save) is take-exact only
# for sample magnitudes under half scale.

TONE_WORDS = {"da": 500.0, "re": 900.0, "mi": 1400.0, "fa": 2100.0, "so": 3000.0}


def tone_word_wave(word, rng, sr=16000, dur_s=0.16):
    n = int(dur_s * sr)
    t = np.arange(n) / sr
    x = 0.28 * np.sin(2 * np.pi * TONE_WORDS[word] * t)
    ramp = min(n // 8, 160)
    x[:ramp] *= np.linspace(0.0, 1.0, ramp)
    x[-ramp:] *= np.linspace(1.0, 0.0, ramp)
    return x + 0.004 * rng.standard_normal(n)


def tone_utterance(words, rng, sr=16000) -> Waveform:
    x = np.concatenate([tone_word_wave(w, rng, sr) for w in words])
    return Waveform(np.clip(x, -1.0, 1.0).astype(np.float32), sr)


def tone_recording(words, rng, sr=16000, lead_s=0.8, trail_s=0.8) -> Waveform:
    """Speech span framed by low-noise silence, for segmentation tests."""
    speech = tone_utterance(words, rng, sr).samples
    lead = 0.004 * rng.standard_normal(int(lead_s * sr))
    trail = 0.004 * rng.standard_normal(int(trail_s * sr))
    x = np.concatenate([lead, speech, trail])
    return Waveform(np.clip(x, -1.0, 1.0).astype(np.float32), sr)


def sad_recording(rng, words, sr=16000):
    """[silence | clicks | silence | tone words | silence] with region labels."""
    sil = lambda d: 0.004 * rng.standard_normal(int(d * sr))
    gap1, click_d, gap2, tail = 0.5, 0.3, 0.4, 0.5
    clicks = 0.004 * rng.standard_normal(int(click_d * sr))
    for pos in rng.choice(clicks.size - 4, size=6, replace=False):
        clicks[pos : pos + 3] += 0.4 * rng.choice((-1.0, 1.0))
    speech = tone_utterance(words, rng, sr).samples
    x = np.concatenate([sil(gap1), clicks, sil(gap2), speech, sil(tail)])
    sp_start = gap1 + click_d + gap2
    regions = [
        (gap1, gap1 + click_d, GARBAGE),
        (sp_start, sp_start + speech.size / sr, SPEECH),
    ]
    return Waveform(np.clip(x, -1.0, 1.0).astype(np.float32), sr), regions


def region_labels(regions, n_frames, shift_s=0.01):
    """Frame labels from (start_s, end_s, class) spans; frames start at t*shift."""
    y = np.zeros(n_frames, dtype=np.int64)
    for t in range(n_frames):
        ts = t * shift_s
        for s, e, lab in regions:
            if s <= ts < e:
                y[t] = lab
    return y


def write_sad_corpus(dirpath, n_recs, rng):
    """WAVs plus frame-label files and a manifest for SAD training."""
    from imsk.audio import save_audio

    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    names = sorted(TONE_WORDS)
    rows = []
    for i in range(n_recs):
        words = [names[k] for k in rng.integers(0, len(names), size=rng.integers(2, 4))]
        wav, regions = sad_recording(rng, words)
        y = region_labels(regions, extract_mfcc(wav).num_frames)
        wav_path = dirpath / f"rec{i:03d}.wav"
        lab_path = dirpath / f"rec{i:03d}.labels"
        save_audio(wav_path, wav)
        lab_path.write_text("\n".join(map(str, y)) + "\n", encoding="utf-8")
        rows.append((f"rec{i:03d}", str(wav_path), str(lab_path)))
    manifest = dirpath / "manifest.tsv"
    manifest.write_text(
        "".join(f"{u}\t{w}\t{l}\n" for u, w, l in rows), encoding="utf-8"
    )
    return manifest, rows


N_TEMPLATE_TOKENS = 12
TEMPLATE_FRAMES = 8
TEMPLATE_DIM = 20


def token_templates(rng):
    """One fixed spectral template per output token."""
    return rng.uniform(-2.0, 2.0, (N_TEMPLATE_TOKENS, TEMPLATE_FRAMES, TEMPLATE_DIM))


def template_utterance(tokens, templates, rng, noise=0.3):
    feats = np.concatenate([templates[k] for k in tokens], axis=0)
    return feats + noise * rng.standard_normal(feats.shape)


def template_corpus(n_utts, rng, templates=None, min_tokens=3, max_tokens=8):
    """(features, label) pairs; labels start at 3 so special ids stay free."""
    if templates is None:
        templates = token_templates(rng)
    data = []
    for _ in range(n_utts):
        count = int(rng.integers(min_tokens, max_tokens + 1))
        toks = rng.integers(0, len(templates), size=count)
        feats = template_utterance(toks, templates, rng)
        data.append((feats, [3 + int(k) for k in toks]))
    return data, templates


def ids_to_words(ids):
    """Word string for scoring decoded toy-token sequences."""
    return " ".join(f"w{int(i) - 3}" for i in ids)


def write_tone_corpus(dirpath, n_utts, rng, min_words=2, max_words=4):
    """WAV files plus a 3-field manifest; returns (manifest path, rows)."""
    from imsk.audio import save_audio

    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    names = sorted(TONE_WORDS)
    rows = []
    for i in range(n_utts):
        count = int(rng.integers(min_words, max_words + 1))
        words = [names[k] for k in rng.integers(0, len(names), size=count)]
        utt = f"utt{i:03d}"
        wav_path = dirpath / f"{utt}.wav"
        save_audio(wav_path, tone_utterance(words, rng))
        rows.append((utt, str(wav_path), " ".join(words)))
    manifest = dirpath / "manifest.tsv"
    manifest.write_text(
        "".join(f"{u}\t{p}\t{t}\n" for u, p, t in rows), encoding="utf-8"
    )
    return manifest, rows


def corrupt(data, blob: bytes) -> bytes:
    """A random strict prefix of `blob`, or `blob` with one byte changed;
    `data` is a Hypothesis `st.data()` object."""
    if data.draw(st.booleans()):
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    pos = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    return blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1 :]


def record_requires_grad(monkeypatch) -> list:
    """Make every tensor operation append whether its result requires
    gradients (so would join an autograd graph) to the returned list."""
    made = []
    result = Tensor._result

    def spy(data, parents, backward):
        out = result(data, parents, backward)
        made.append(out.requires_grad)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    return made


def run_at_blas_threads(threads: int, check: str) -> None:
    """Call `check`, a "module.function" of the test directory, in a fresh
    interpreter with OpenBLAS at `threads` threads (the BLAS reads its
    thread count when it loads). A failure names the BLAS numpy was built
    with, the thread count and the check's error output."""
    here = Path(__file__).parent
    module, _ = check.rsplit(".", 1)
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)]),
    }
    run = subprocess.run([sys.executable, "-c", f"import {module}; {check}()"], env=env,
                         capture_output=True, text=True, timeout=600)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert run.returncode == 0, (
        f"{check} fails with {blas['name']} {blas.get('version', '')} at {threads} BLAS "
        f"threads:\n{run.stderr}"
    )


def unblocked_windowed_sum_data(x, radius):
    """The fancy-index windowed sum that `tensor._windowed_sum_data`'s
    slices replaced, kept as its oracle."""
    T = x.shape[0]
    c = np.cumsum(x.astype(np.float64), axis=0)
    hi = np.minimum(np.arange(T) + radius, T - 1)
    lo = np.arange(T) - radius - 1
    out = c[hi]
    valid = lo >= 0
    out[valid] -= c[lo[valid]]
    return out.astype(x.dtype)


# -- the compositions of tt.tanh_addmm and tt.lstm_gates, kept as their
# oracles, with the activations only they use


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return Tensor._result(y, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return Tensor._result(y, (a,), backward)


def maxpool2d_ceil_argmax(x: Tensor) -> Tensor:
    """The argmax and take_along_axis form of `tensor.maxpool2d_ceil` that
    its one pass over the taps replaced, kept as its oracle."""
    B, H, W, C = x.data.shape
    Ho, Wo = (H + 1) // 2, (W + 1) // 2
    xp = np.pad(
        x.data,
        ((0, 0), (0, 2 * Ho - H), (0, 2 * Wo - W), (0, 0)),
        constant_values=-np.inf,
    )
    win = xp.reshape(B, Ho, 2, Wo, 2, C).transpose(0, 1, 3, 5, 2, 4).reshape(B, Ho, Wo, C, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gw = np.zeros_like(win)
        np.put_along_axis(gw, arg[..., None], g[..., None], axis=-1)
        gxp = gw.reshape(B, Ho, Wo, C, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(B, 2 * Ho, 2 * Wo, C)
        x._accumulate(gxp[:, :H, :W, :])

    return Tensor._result(out, (x,), backward)


def tanh_addmm_composed(a, x, w, c):
    return tanh(tt.add(tt.add(a, tt.matmul(x, w)), c))


def lstm_gates_composed(z: Tensor, c: Tensor, H: int) -> tuple[Tensor, Tensor]:
    """(h_new, c_new) from gate slices, sigmoids, tanh, products and the
    sum: the graph LstmCell built before `tt.lstm_gates`. A sigmoid gate of
    a large negative input overflows exp to inf and correctly gives 0."""
    with np.errstate(over="ignore"):
        i = sigmoid(tt.take(z, (slice(None), slice(0, H))))
        f = sigmoid(tt.take(z, (slice(None), slice(H, 2 * H))))
        g = tanh(tt.take(z, (slice(None), slice(2 * H, 3 * H))))
        o = sigmoid(tt.take(z, (slice(None), slice(3 * H, 4 * H))))
    c_new = f * c + i * g
    h_new = o * tanh(c_new)
    return h_new, c_new


def decode_one(feat, model, lm=None, cfg=None):
    """Best hypothesis of one utterance, decoded alone."""
    return decode_batch([feat], model, lm, cfg)[0]


def extend_one(prefixes, label, log_posteriors, blank):
    """(psi, prefixes) of one-row CTC prefixes extended by `label`: its
    prefix probability and its state, through the calls the search makes."""
    psi = ctc_prefix_score_all(prefixes, [0], [label], log_posteriors)[0]
    (grown,) = ctc_prefix_extend([(prefixes, [0], [label], log_posteriors)], blank)
    return float(psi), grown


@dataclass
class GradCheckReport:
    """Relative gradient error per checked tensor and overall."""

    per_tensor: dict = field(default_factory=dict)
    max_rel_error: float = 0.0

    def passed(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def _label(t: Tensor, i: int) -> str:
    if isinstance(t, Parameter):
        return t.name
    return f"tensor{i}"


def check_gradients(
    loss_fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    step: float = 1e-5,
    floor: float = 1e-2,
) -> GradCheckReport:
    """Compare backprop gradients of `loss_fn` against central differences.

    `loss_fn` must rebuild its graph from the tensors' current data on every
    call. The relative error per tensor is ||a - n|| / max(||a|| + ||n||,
    floor) over the flattened gradient. The floor keeps the check honest for
    near-zero gradients: central differences of a well-scaled loss carry an
    absolute noise of roughly 1e-10 per entry, so once a gradient norm drops
    toward that level the quotient against it measures noise, not
    correctness. Below the floor the comparison is absolute; a genuinely
    wrong gradient of any norm above ~1e-7 still fails. Run in float64:
    float32 round-off alone exceeds any useful tolerance.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ValueError("gradient checks require float64 tensors")
        t.requires_grad = True
        t.grad = None

    loss = loss_fn()
    loss.backward()
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.data)) for t in tensors]
    for t in tensors:
        t.grad = None

    report = GradCheckReport()
    for i, (t, a) in enumerate(zip(tensors, analytic)):
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = loss_fn().item()
            flat[j] = orig - step
            f_minus = loss_fn().item()
            flat[j] = orig
            nflat[j] = (f_plus - f_minus) / (2.0 * step)
        diff = np.linalg.norm(a - numeric)
        denom = max(np.linalg.norm(a) + np.linalg.norm(numeric), floor)
        rel = float(diff / denom)
        label = _label(t, i)
        if label in report.per_tensor:
            # hand-picked Parameters may share the default name
            label = f"{label}@{i}"
        report.per_tensor[label] = rel
        report.max_rel_error = max(report.max_rel_error, rel)
    return report
