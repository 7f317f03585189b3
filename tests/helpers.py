"""Shared synthetic fixtures for segmentation and recognition tests, and
random corruptions of files for parser tests."""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from imsk.audio import Waveform, extract_mfcc
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
