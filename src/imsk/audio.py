"""Audio loading, spectral feature extraction, and corpus-level normalization.

The pipeline is: 16-bit mono PCM WAV -> pre-emphasis -> Hamming-windowed
frames -> zero-padded FFT power spectrum -> triangular Mel filterbank ->
log energies.  MFCC features apply a full-resolution orthonormal DCT-II on
top of the log-Mel energies, so no information is discarded and the
transform is exactly invertible.  Mean/variance statistics are pooled over
a whole corpus and applied per dimension.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np

FEAT_MAGIC = b"FEAT1"
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


def load_audio(path) -> Waveform:
    """Read a linear-PCM 16-bit mono WAV file.

    Raises UnsupportedEncodingError, MultichannelAudioError or
    TruncatedAudioError so callers can report the exact problem.
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
            raw = f.readframes(n)
    except EOFError as exc:
        raise TruncatedAudioError(f"{path}: file ends inside the header") from exc
    except wave.Error as exc:
        raise UnsupportedEncodingError(f"{path}: {exc}") from exc
    if len(raw) != 2 * n:
        raise TruncatedAudioError(
            f"{path}: header declares {n} samples but only {len(raw) // 2} present"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


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


def mel_center_frequencies(n_mels: int, sample_rate: int) -> np.ndarray:
    """Peak frequency in Hz of each triangular filter."""
    return _mel_points(n_mels, sample_rate)[1:-1]


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


def mel_spectrogram(wav: Waveform, cfg: FeatureConfig) -> np.ndarray:
    """(T, n_mels) Mel-weighted power spectrum before the log."""
    frame, shift, n_frames = _frame_geometry(wav, cfg)
    x = wav.samples.astype(np.float64)
    y = np.empty_like(x)
    y[0] = x[0] - cfg.preemphasis * x[0]
    y[1:] = x[1:] - cfg.preemphasis * x[:-1]
    idx = np.arange(n_frames)[:, None] * shift + np.arange(frame)[None, :]
    frames = y[idx] * np.hamming(frame)[None, :]
    spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    bank = mel_filterbank(cfg.n_mels, cfg.n_fft, wav.sample_rate)
    return power @ bank.T


def extract_logmel(wav: Waveform, cfg: FeatureConfig = LOGMEL_DEFAULT) -> FeatureMatrix:
    """Log Mel filterbank energies, floored at log(cfg.floor)."""
    mel = mel_spectrogram(wav, cfg)
    frames = np.log(np.maximum(mel, cfg.floor)).astype(np.float32)
    return FeatureMatrix(
        frames=frames,
        frame_shift=cfg.frame_shift_ms / 1000.0,
        frame_length=cfg.frame_length_ms / 1000.0,
    )


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix; D @ D.T = I, so D.T inverts it."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * n))
    d[0] *= np.sqrt(0.5)
    return d


def extract_mfcc(wav: Waveform, cfg: FeatureConfig = MFCC_DEFAULT) -> FeatureMatrix:
    """Cepstral features: orthonormal DCT of the log-Mel row, all
    cfg.n_mels coefficients kept (no truncation)."""
    logmel = extract_logmel(wav, cfg)
    coeffs = (logmel.frames.astype(np.float64) @ dct_matrix(cfg.n_mels).T).astype(np.float32)
    return FeatureMatrix(
        frames=coeffs,
        frame_shift=logmel.frame_shift,
        frame_length=logmel.frame_length,
    )


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
# binary dump formats
# ---------------------------------------------------------------------------


class DumpError(Exception):
    """Malformed feature or statistics dump."""


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


def write_feature_dump(path, items) -> None:
    """Write (utt_id, T x d array) records; one self-delimiting record each."""
    with open(path, "wb") as f:
        for utt_id, frames in items:
            frames = np.ascontiguousarray(frames, dtype="<f4")
            uid = utt_id.encode("utf-8")
            f.write(FEAT_MAGIC)
            f.write(struct.pack("<I", len(uid)))
            f.write(uid)
            f.write(struct.pack("<II", frames.shape[0], frames.shape[1]))
            f.write(frames.tobytes())


def read_feature_dump(path) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    items = []
    pos = 0
    while pos < len(blob):
        if blob[pos : pos + 5] != FEAT_MAGIC:
            raise DumpError(f"{path}: bad record magic at byte {pos}")
        pos += 5
        if pos + 4 > len(blob):
            raise DumpError(f"{path}: truncated record header")
        (id_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + id_len + 8 > len(blob):
            raise DumpError(f"{path}: truncated record header")
        try:
            utt_id = blob[pos : pos + id_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DumpError(f"{path}: invalid UTF-8 utterance id at byte {pos}") from e
        pos += id_len
        t, d = struct.unpack_from("<II", blob, pos)
        pos += 8
        nbytes = 4 * t * d
        if pos + nbytes > len(blob):
            raise DumpError(f"{path}: truncated frame data for '{utt_id}'")
        frames = np.frombuffer(blob[pos : pos + nbytes], dtype="<f4").reshape(t, d).copy()
        pos += nbytes
        items.append((utt_id, frames))
    return items
