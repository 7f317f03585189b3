"""Audio loading, spectral feature extraction, and corpus-level normalization.

The pipeline is: 16-bit mono PCM WAV -> pre-emphasis -> Hamming-windowed
frames -> zero-padded FFT power spectrum -> triangular Mel filterbank ->
log energies.  MFCC features apply a full-resolution orthonormal DCT-II on
top of the log-Mel energies, so no information is discarded and the
transform is exactly invertible.  Mean/variance statistics are pooled over
a whole corpus and applied per dimension.
"""

from __future__ import annotations

import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

CMVN_MAGIC = b"CMVN1"


class AudioError(Exception):
    """Base class for audio input problems."""


class UnsupportedEncodingError(AudioError):
    """The file is not linear 16-bit PCM."""


class MultichannelAudioError(AudioError):
    """The file has more than one channel."""


class TruncatedAudioError(AudioError):
    """The file ends before the declared sample data."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] with their sampling rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.size == 0:
            raise ValueError("waveform must be non-empty")
        if self.sample_rate < 8000:
            raise ValueError(f"sample rate {self.sample_rate} below 8000 Hz")

    @property
    def duration(self) -> float:
        return self.samples.size / float(self.sample_rate)


@dataclass(frozen=True)
class FeatureMatrix:
    """T x d feature frames plus the frame geometry that produced them."""

    frames: np.ndarray
    frame_shift: float
    frame_length: float

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("feature matrix must have at least one frame")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("feature matrix contains non-finite entries")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class CmvnStats:
    """Per-dimension mean/variance pooled over a corpus."""

    dim: int
    mean: np.ndarray
    variance: np.ndarray
    frame_count: int

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame count must be >= 1")
        if np.any(self.variance < 0):
            raise ValueError("variance entries must be >= 0")


@dataclass(frozen=True)
class FeatureConfig:
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    n_mels: int = 80
    n_fft: int = 512
    preemphasis: float = 0.97
    floor: float = 1e-10


LOGMEL_DEFAULT = FeatureConfig()
MFCC_DEFAULT = FeatureConfig(n_mels=40)


# ---------------------------------------------------------------------------
# WAV input
# ---------------------------------------------------------------------------


# samples per read of load_audio: besides the samples, it holds one block
# of raw bytes, not a copy of the whole data
_READ_BLOCK = 1 << 16


def load_audio(path) -> Waveform:
    """Read a linear-PCM 16-bit mono WAV file.

    The data is read in blocks of `_READ_BLOCK` samples, each divided by
    32768 straight into one preallocated float32 array, so the samples are
    the only whole-recording array.

    Raises UnsupportedEncodingError, MultichannelAudioError or
    TruncatedAudioError, each naming the file, so callers can report the
    exact problem.
    """
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise MultichannelAudioError(
                    f"{path}: expected mono, got {f.getnchannels()} channels"
                )
            if f.getcomptype() != "NONE" or f.getsampwidth() != 2:
                raise UnsupportedEncodingError(
                    f"{path}: expected 16-bit linear PCM, got "
                    f"{8 * f.getsampwidth()}-bit {f.getcomptype()}"
                )
            rate = f.getframerate()
            n = f.getnframes()
            # a header may declare more samples than the file can hold; such
            # a file ends in a short read below, before the array is full
            samples = np.empty(min(n, os.path.getsize(path) // 2), np.float32)
            for i in range(0, n, _READ_BLOCK):
                k = min(_READ_BLOCK, n - i)
                raw = f.readframes(k)
                if len(raw) != 2 * k:
                    raise TruncatedAudioError(
                        f"{path}: header declares {n} samples but only "
                        f"{i + len(raw) // 2} present"
                    )
                np.divide(np.frombuffer(raw, dtype="<i2"), np.float32(32768.0), out=samples[i : i + k])
    except EOFError as exc:
        raise TruncatedAudioError(f"{path}: file ends inside the header") from exc
    except wave.Error as exc:
        raise UnsupportedEncodingError(f"{path}: {exc}") from exc
    except RuntimeError as exc:
        # wave's chunk reader raises a bare RuntimeError when a chunk's
        # declared size runs past the RIFF chunk that holds it
        raise UnsupportedEncodingError(
            f"{path}: malformed header: a chunk runs past the RIFF chunk"
        ) from exc
    try:
        return Waveform(samples=samples, sample_rate=rate)
    except ValueError as exc:  # no samples, or a rate below 8000 Hz
        raise UnsupportedEncodingError(f"{path}: {exc}") from exc


def save_audio(path, wav: Waveform) -> None:
    """Write a Waveform as 16-bit mono PCM (test/tooling convenience)."""
    data = np.clip(np.round(wav.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wav.sample_rate)
        f.writeframes(data.tobytes())


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points(n_mels: int, sample_rate: int) -> np.ndarray:
    # n_mels + 2 equally spaced points on the Mel scale from 0 to Nyquist
    return mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular weights; each filter peaks at 1."""
    pts = _mel_points(n_mels, sample_rate)
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / float(n_fft))
    left, center, right = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    up = (freqs[None, :] - left) / (center - left)
    down = (right - freqs[None, :]) / (right - center)
    return np.maximum(0.0, np.minimum(up, down))


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------


def _frame_geometry(wav: Waveform, cfg: FeatureConfig) -> tuple[int, int, int]:
    frame = int(round(wav.sample_rate * cfg.frame_length_ms / 1000.0))
    shift = int(round(wav.sample_rate * cfg.frame_shift_ms / 1000.0))
    if wav.samples.size < frame:
        raise ValueError(
            f"waveform of {wav.samples.size} samples shorter than one "
            f"{frame}-sample frame"
        )
    if frame > cfg.n_fft:
        raise ValueError(f"frame of {frame} samples exceeds n_fft={cfg.n_fft}")
    n_frames = 1 + (wav.samples.size - frame) // shift
    return frame, shift, n_frames


# frames per block of the front end and of the SAD network; working memory
# is bounded by this, not by the recording's length
BLOCK = 2048


def flush_blocks(n_frames: int) -> list[int]:
    """First frames of the blocks of min(n_frames, BLOCK) frames that cover
    n_frames frames. The last block ends flush with the last frame and
    overlaps the one before it, so every block has the same length: a
    ragged tail would take another BLAS path and change the last bits."""
    n = min(n_frames, BLOCK)
    return [*range(0, n_frames - n, n), n_frames - n]


def _mel_blocks(wav: Waveform, cfg: FeatureConfig):
    """(t0, mel) for each flush block: mel is the Mel-weighted power
    spectrum before the log of frames t0, t0 + 1, ..., one row each.

    The block's samples, its pre-emphasis, its windowed frames (zero-padded
    to n_fft) and its power spectrum live in buffers made once per call.
    """
    frame, shift, n_frames = _frame_geometry(wav, cfg)
    n = min(n_frames, BLOCK)
    span = (n - 1) * shift + frame
    window = np.hamming(frame)
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, wav.sample_rate)
    x = np.empty(span + 1)  # the block's samples after the one before them
    y = np.empty(span)
    frames = np.zeros((n, cfg.n_fft))
    power = np.empty((n, cfg.n_fft // 2 + 1))
    for t0 in flush_blocks(n_frames):
        lo = t0 * shift
        # pre-emphasis needs the sample before the block; the recording's
        # first sample is its own predecessor
        if lo == 0:
            x[0] = wav.samples[0]
            x[1:] = wav.samples[:span]
        else:
            x[:] = wav.samples[lo - 1 : lo + span]
        np.multiply(x[:-1], cfg.preemphasis, out=y)
        np.subtract(x[1:], y, out=y)
        np.multiply(np.lib.stride_tricks.sliding_window_view(y, frame)[::shift], window,
                    out=frames[:, :frame])
        # (real, imag) pairs: square both in place, then add each pair
        parts = np.fft.rfft(frames, axis=1).view(np.float64)
        np.multiply(parts, parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power)
        yield t0, power @ bank.T


def _log_mel_features(wav: Waveform, cfg: FeatureConfig, dct=None) -> FeatureMatrix:
    """Float32 log-Mel rows floored at log(cfg.floor), each block's rows
    then multiplied by dct.T when a DCT matrix is given. The only
    whole-recording array is the (T, n_mels) float32 result."""
    out = np.empty((_frame_geometry(wav, cfg)[2], cfg.n_mels), np.float32)
    for t0, mel in _mel_blocks(wav, cfg):
        rows = np.log(np.maximum(mel, cfg.floor, out=mel), out=mel).astype(np.float32)
        if dct is not None:
            rows = rows.astype(np.float64) @ dct.T
        out[t0 : t0 + len(rows)] = rows
    return FeatureMatrix(
        frames=out,
        frame_shift=cfg.frame_shift_ms / 1000.0,
        frame_length=cfg.frame_length_ms / 1000.0,
    )


def extract_logmel(wav: Waveform, cfg: FeatureConfig = LOGMEL_DEFAULT) -> FeatureMatrix:
    """Log Mel filterbank energies, floored at log(cfg.floor)."""
    return _log_mel_features(wav, cfg)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix; D @ D.T = I, so D.T inverts it."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * n))
    d[0] *= np.sqrt(0.5)
    return d


def extract_mfcc(wav: Waveform, cfg: FeatureConfig = MFCC_DEFAULT) -> FeatureMatrix:
    """Cepstral features: orthonormal DCT of the float32 log-Mel row, all
    cfg.n_mels coefficients kept (no truncation), block by block."""
    return _log_mel_features(wav, cfg, dct_matrix(cfg.n_mels))


# ---------------------------------------------------------------------------
# global normalization
# ---------------------------------------------------------------------------


def compute_cmvn(features) -> CmvnStats:
    """Pool per-dimension mean and population variance over all frames."""
    total = 0
    s1 = None
    s2 = None
    for f in features:
        x = f.frames.astype(np.float64)
        if s1 is None:
            s1 = np.zeros(x.shape[1])
            s2 = np.zeros(x.shape[1])
        elif x.shape[1] != s1.size:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {s1.size}")
        total += x.shape[0]
        s1 += x.sum(axis=0)
        s2 += (x * x).sum(axis=0)
    if total == 0:
        raise ValueError("no frames to accumulate statistics over")
    mean = s1 / total
    variance = np.maximum(s2 / total - mean * mean, 0.0)
    return CmvnStats(dim=s1.size, mean=mean, variance=variance, frame_count=total)


def apply_cmvn(f: FeatureMatrix, s: CmvnStats) -> FeatureMatrix:
    """Standardize each column; zero-variance columns use a 1e-8 std floor."""
    if f.dim != s.dim:
        raise ValueError(f"feature dim {f.dim} does not match stats dim {s.dim}")
    std = np.maximum(np.sqrt(s.variance), 1e-8)
    frames = ((f.frames.astype(np.float64) - s.mean) / std).astype(np.float32)
    return FeatureMatrix(frames=frames, frame_shift=f.frame_shift, frame_length=f.frame_length)


# ---------------------------------------------------------------------------
# CMVN statistics file
# ---------------------------------------------------------------------------


class DumpError(Exception):
    """Malformed statistics file."""


def save_cmvn(path, s: CmvnStats) -> None:
    with open(path, "wb") as f:
        f.write(CMVN_MAGIC)
        f.write(struct.pack("<IQ", s.dim, s.frame_count))
        f.write(np.asarray(s.mean, dtype="<f8").tobytes())
        f.write(np.asarray(s.variance, dtype="<f8").tobytes())


def load_cmvn(path) -> CmvnStats:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != CMVN_MAGIC:
        raise DumpError(f"{path}: bad magic {blob[:5]!r}")
    if len(blob) < 5 + 12:
        raise DumpError(f"{path}: truncated header")
    dim, count = struct.unpack_from("<IQ", blob, 5)
    body = blob[17:]
    if len(body) != 16 * dim:
        raise DumpError(f"{path}: expected {16 * dim} stat bytes, got {len(body)}")
    mean = np.frombuffer(body[: 8 * dim], dtype="<f8").copy()
    variance = np.frombuffer(body[8 * dim :], dtype="<f8").copy()
    if count < 1:
        raise DumpError(f"{path}: frame count must be >= 1, got {count}")
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()) or np.any(variance < 0):
        raise DumpError(f"{path}: statistics must be finite, with variances >= 0")
    return CmvnStats(dim=dim, mean=mean, variance=variance, frame_count=count)
