"""Audio loading, feature extraction and normalization tests."""

import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import corrupt, run_at_blas_threads
from imsk import audio
from imsk.audio import (
    CmvnStats,
    DumpError,
    FeatureConfig,
    FeatureMatrix,
    MultichannelAudioError,
    TruncatedAudioError,
    UnsupportedEncodingError,
    Waveform,
)

RNG = np.random.default_rng(21)
BLOCK = audio._READ_BLOCK


def write_wav(path, samples_i16, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(sampwidth)
        f.setframerate(rate)
        f.writeframes(samples_i16.tobytes())


class TestLoadAudio:
    def test_one_second_mono(self, tmp_path):
        path = tmp_path / "a.wav"
        data = (RNG.normal(0, 3000, 16000)).astype("<i2")
        write_wav(path, data)
        wav = audio.load_audio(path)
        assert wav.samples.size == 16000
        assert wav.sample_rate == 16000
        assert np.allclose(wav.samples, data.astype(np.float64) / 32768.0, atol=1e-9)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        write_wav(path, np.zeros(200, dtype="<i2"), channels=2)
        with pytest.raises(MultichannelAudioError):
            audio.load_audio(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "u8.wav"
        write_wav(path, np.full(100, 128, dtype=np.uint8), sampwidth=1)
        with pytest.raises(UnsupportedEncodingError):
            audio.load_audio(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.zeros(1000, dtype="<i2"))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(TruncatedAudioError):
            audio.load_audio(path)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not a riff container at all")
        with pytest.raises(UnsupportedEncodingError):
            audio.load_audio(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (16, 0x0000E010, "runs past the RIFF chunk"),  # fmt chunk size
            (24, 128, "sample rate 128 below 8000 Hz"),  # sample rate
            (40, 0, "waveform must be non-empty"),  # data chunk size
        ],
    )
    def test_bad_header_field_raises_unsupported_encoding(self, tmp_path, offset, value, message):
        path = tmp_path / "h.wav"
        write_wav(path, np.ones(1600, dtype="<i2"))
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedEncodingError, match=f"^{path}: .*{message}"):
            audio.load_audio(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corruptions_raise_only_audio_error(self, tmp_path, data):
        # 16 samples, so that most byte changes hit the 44-byte header
        path = tmp_path / "c.wav"
        write_wav(path, np.arange(16, dtype="<i2"))
        path.write_bytes(corrupt(data, path.read_bytes()))
        try:
            audio.load_audio(path)
        except audio.AudioError as exc:
            assert str(exc).startswith(f"{path}: ") and str(exc) != f"{path}: "

    def test_save_load_roundtrip(self, tmp_path):
        wav = Waveform(RNG.uniform(-0.9, 0.9, 500).astype(np.float32), 16000)
        path = tmp_path / "r.wav"
        audio.save_audio(path, wav)
        back = audio.load_audio(path)
        assert np.allclose(back.samples, wav.samples, atol=2.0 / 32767)

    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(0), 16000)
        with pytest.raises(ValueError):
            Waveform(np.zeros(10), 4000)


def mel_center_frequencies(n_mels, sample_rate):
    """Peak frequency in Hz of each triangular filter."""
    return audio._mel_points(n_mels, sample_rate)[1:-1]


def mel_spectrogram(wav, cfg):
    """(T, n_mels) Mel-weighted power spectrum before the log, gathered from
    the front end's blocks."""
    out = np.empty((audio._frame_geometry(wav, cfg)[2], cfg.n_mels))
    for t0, mel in audio._mel_blocks(wav, cfg):
        out[t0 : t0 + len(mel)] = mel
    return out


class TestLogmel:
    def test_frame_count_formula(self):
        wav = Waveform(RNG.normal(0, 0.1, 16000).astype(np.float32), 16000)
        f = audio.extract_logmel(wav)
        assert f.num_frames == 1 + (16000 - 400) // 160 == 98
        assert f.dim == 80

    def test_frame_count_property(self):
        for n in [400, 401, 559, 560, 561, 4000]:
            wav = Waveform(RNG.normal(0, 0.1, n).astype(np.float32), 16000)
            f = audio.extract_logmel(wav)
            assert f.num_frames == 1 + (n - 400) // 160

    def test_too_short_rejected(self):
        wav = Waveform(np.ones(399, dtype=np.float32) * 0.1, 16000)
        with pytest.raises(ValueError):
            audio.extract_logmel(wav)

    def test_all_zero_waveform_hits_floor(self):
        wav = Waveform(np.zeros(1600, dtype=np.float32), 16000)
        f = audio.extract_logmel(wav)
        assert np.allclose(f.frames, np.log(1e-10))

    def test_filterbank_coverage(self):
        bank = audio.mel_filterbank(80, 512, 16000)
        assert bank.shape == (80, 257)
        assert np.all(bank.sum(axis=1) > 0)
        # every FFT bin strictly inside (0, Nyquist) feeds at least one filter
        assert np.all(bank[:, 1:-1].sum(axis=0) > 0)

    def test_sine_at_center_frequency_peaks_in_its_bin(self):
        sr, n_mels, n_fft, k = 16000, 80, 512, 40
        freq = mel_center_frequencies(n_mels, sr)[k]
        t = np.arange(3200) / sr
        wav = Waveform((0.5 * np.sin(2 * np.pi * freq * t)).astype(np.float32), sr)
        f = audio.extract_logmel(wav)
        assert np.all(np.argmax(f.frames, axis=1) == k)

        # independent check of one frame: literal DFT sums plus Mel weighting
        x = wav.samples.astype(np.float64)
        y = np.empty_like(x)
        y[0] = x[0] - 0.97 * x[0]
        for i in range(1, x.size):
            y[i] = x[i] - 0.97 * x[i - 1]
        frame = y[5 * 160 : 5 * 160 + 400].copy()
        for i in range(400):
            frame[i] *= 0.54 - 0.46 * np.cos(2 * np.pi * i / 399.0)
        power = np.zeros(n_fft // 2 + 1)
        n = np.arange(400)
        for b in range(n_fft // 2 + 1):
            re = np.sum(frame * np.cos(2 * np.pi * b * n / n_fft))
            im = -np.sum(frame * np.sin(2 * np.pi * b * n / n_fft))
            power[b] = re * re + im * im
        expected = audio.mel_filterbank(n_mels, n_fft, sr) @ power
        got = mel_spectrogram(wav, audio.LOGMEL_DEFAULT)[5]
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-12)
        assert np.argmax(expected) == k


def _unblocked_mel_spectrogram(wav, cfg):
    """The whole-recording Mel spectrogram that the blocked one replaced,
    kept as its oracle."""
    frame, shift, n_frames = audio._frame_geometry(wav, cfg)
    x = wav.samples.astype(np.float64)
    y = np.empty_like(x)
    y[0] = x[0] - cfg.preemphasis * x[0]
    y[1:] = x[1:] - cfg.preemphasis * x[:-1]
    idx = np.arange(n_frames)[:, None] * shift + np.arange(frame)[None, :]
    frames = y[idx] * np.hamming(frame)[None, :]
    spectrum = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    bank = audio.mel_filterbank(cfg.n_mels, cfg.n_fft, wav.sample_rate)
    return power @ bank.T


def _unblocked_extract_mfcc(wav, cfg):
    """The whole-recording extract_mfcc that the blocked one replaced: the
    log and the DCT product over all frames at once, kept as its oracle."""
    logmel = np.log(np.maximum(_unblocked_mel_spectrogram(wav, cfg), cfg.floor)).astype(np.float32)
    return logmel, (logmel.astype(np.float64) @ audio.dct_matrix(cfg.n_mels).T).astype(np.float32)


def check_blocked_features_equal_unblocked():
    """Every frame count around the block edges, plus random ones, with and
    without a partial frame of trailing samples: the Mel spectrogram,
    log-Mel and MFCC features; raises on a mismatch."""
    rng = np.random.default_rng(5)
    counts = [1, 2, 2047, 2048, 2049, 4095, 4096, 4097, *rng.integers(3, 9000, size=4)]
    for n_frames in counts:
        for tail in (0, 97):
            size = 400 + (int(n_frames) - 1) * 160 + tail
            wav = Waveform(rng.uniform(-1.0, 1.0, size).astype(np.float32), 16000)
            for cfg in (audio.LOGMEL_DEFAULT, audio.MFCC_DEFAULT):
                case = (n_frames, tail, cfg)
                got = mel_spectrogram(wav, cfg)
                assert got.shape == (n_frames, cfg.n_mels)
                assert np.array_equal(got, _unblocked_mel_spectrogram(wav, cfg)), case
                logmel, mfcc = _unblocked_extract_mfcc(wav, cfg)
                assert np.array_equal(audio.extract_logmel(wav, cfg).frames, logmel), case
                assert np.array_equal(audio.extract_mfcc(wav, cfg).frames, mfcc), case


def _unblocked_load_audio(path):
    """The whole-data read that the blocked load_audio replaced, kept as its
    oracle (for files that load)."""
    with wave.open(str(path), "rb") as f:
        raw = f.readframes(f.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0


class TestBlockedFrontEnd:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocked_equals_unblocked(self, threads):
        run_at_blas_threads(threads, "test_audio.check_blocked_features_equal_unblocked")

    def test_memory_does_not_grow_with_length(self):
        # 600 s of noise: the whole-recording version peaked near 1 GB
        noise = np.random.default_rng(6).uniform(-0.5, 0.5, 600 * 16000)
        wav = Waveform(noise.astype(np.float32), 16000)
        del noise
        tracemalloc.start()
        try:
            audio.extract_mfcc(wav)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK - 7])
    def test_blocked_load_equals_unblocked(self, tmp_path, n):
        path = tmp_path / "b.wav"
        write_wav(path, np.random.default_rng(n).integers(-32768, 32768, n).astype("<i2"))
        samples = audio.load_audio(path).samples
        assert samples.dtype == np.float32 and np.array_equal(samples, _unblocked_load_audio(path))

    @pytest.mark.parametrize("odd_byte", [0, 1])
    @pytest.mark.parametrize("present", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    def test_data_cut_at_a_read_block_edge_is_truncated(self, tmp_path, present, odd_byte):
        # the header declares 3 blocks; `present` samples remain, and maybe
        # the first byte of the next
        path = tmp_path / "cut.wav"
        write_wav(path, np.ones(3 * BLOCK, dtype="<i2"))
        path.write_bytes(path.read_bytes()[: 44 + 2 * present + odd_byte])
        message = f"^{path}: header declares {3 * BLOCK} samples but only {present} present$"
        with pytest.raises(TruncatedAudioError, match=message):
            audio.load_audio(path)

    def test_load_peaks_at_the_samples(self, tmp_path):
        # 5 minutes: 19.2 MB of samples. Raw bytes, an astype copy and the
        # quotient, held together, peaked at 48 MB
        path = tmp_path / "long.wav"
        write_wav(path, np.random.default_rng(7).integers(-3000, 3000, 5 * 60 * 16000).astype("<i2"))
        tracemalloc.start()
        try:
            wav = audio.load_audio(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= wav.samples.nbytes + 2e6, peak


class TestMfcc:
    def test_output_dim_is_40(self):
        wav = Waveform(RNG.normal(0, 0.1, 4000).astype(np.float32), 16000)
        f = audio.extract_mfcc(wav)
        assert f.dim == 40

    def test_dct_orthonormal(self):
        d = audio.dct_matrix(40)
        assert np.allclose(d @ d.T, np.eye(40), atol=1e-12)

    def test_constant_row_gives_single_coefficient(self):
        coeffs = audio.dct_matrix(40) @ np.full(40, 2.5)
        assert abs(coeffs[0]) > 1.0
        assert np.all(np.abs(coeffs[1:]) < 1e-12)

    def test_inverse_dct_recovers_logmel(self):
        rng = np.random.default_rng(0)
        wav = Waveform(rng.normal(0, 0.1, 4000).astype(np.float32), 16000)
        cfg = audio.MFCC_DEFAULT
        logmel = audio.extract_logmel(wav, cfg)
        mfcc = audio.extract_mfcc(wav, cfg).frames.astype(np.float64)
        d = audio.dct_matrix(40)
        back = mfcc @ d
        # A frame's MFCC is c = fl32(m) with m = L d^T taken in float64, so
        # |c - m| <= u32 |m| entrywise (u32 = 2**-24, float32 unit roundoff)
        # and ||c - m||_2 <= u32 ||m||_2 <= u32 (1 + u32) ||c||_2. Since
        # d^T d = I, back - L = (c - m) d plus float64 rounding, and by
        # Cauchy-Schwarz entry j of (c - m) d is at most ||c - m||_2 times
        # the norm of d's column j. The float64 rounding of both 40-term
        # products and d's departure from orthonormality stay below
        # 40 * 40 * u64 * ||c||_2 (u64 = 2**-53), with a wide margin.
        u32, u64 = 2.0**-24, 2.0**-53
        norm_c = np.linalg.norm(mfcc, axis=1, keepdims=True)
        cols = np.linalg.norm(d, axis=0)[None, :]
        bound = (u32 * (1 + u32) * cols + 40 * 40 * u64) * norm_c
        assert np.all(np.abs(back - logmel.frames) <= bound)


def fm(arr):
    return FeatureMatrix(np.asarray(arr, dtype=np.float32), 0.01, 0.025)


class TestCmvn:
    def test_single_frame_zero_variance(self):
        s = audio.compute_cmvn([fm([[1.0, 2.0]])])
        assert np.allclose(s.variance, 0.0)
        assert s.frame_count == 1

    def test_two_frame_hand_values(self):
        s = audio.compute_cmvn([fm([[0.0, 0.0], [2.0, 2.0]])])
        assert np.allclose(s.mean, 1.0) and np.allclose(s.variance, 1.0)

    def test_pooling_matches_concatenation(self):
        a = RNG.normal(0, 1, (7, 3))
        b = RNG.normal(2, 3, (5, 3))
        s_pair = audio.compute_cmvn([fm(a), fm(b)])
        s_cat = audio.compute_cmvn([fm(np.concatenate([a, b]))])
        assert np.allclose(s_pair.mean, s_cat.mean)
        assert np.allclose(s_pair.variance, s_cat.variance)
        assert s_pair.frame_count == s_cat.frame_count == 12

    def test_self_normalization(self):
        f = fm(RNG.normal(3, 2, (50, 4)))
        out = audio.apply_cmvn(f, audio.compute_cmvn([f]))
        assert np.all(np.abs(out.frames.mean(axis=0)) < 1e-6)
        assert np.allclose(out.frames.var(axis=0), 1.0, atol=1e-6)

    def test_identity_stats(self):
        f = fm(RNG.normal(0, 1, (5, 3)))
        s = CmvnStats(3, np.zeros(3), np.ones(3), 10)
        out = audio.apply_cmvn(f, s)
        assert np.allclose(out.frames, f.frames, atol=1e-7)

    def test_zero_variance_column_finite(self):
        f = fm(np.ones((4, 2)) * 5.0)
        out = audio.apply_cmvn(f, audio.compute_cmvn([f]))
        assert np.all(np.isfinite(out.frames))

    def test_dim_mismatch(self):
        f = fm(np.zeros((2, 3)))
        s = CmvnStats(4, np.zeros(4), np.ones(4), 1)
        with pytest.raises(ValueError):
            audio.apply_cmvn(f, s)

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            audio.compute_cmvn([])


class TestDumps:
    def test_cmvn_roundtrip(self, tmp_path):
        path = tmp_path / "cmvn.bin"
        s = CmvnStats(3, np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, 4.0]), 123)
        audio.save_cmvn(path, s)
        back = audio.load_cmvn(path)
        assert back.dim == 3 and back.frame_count == 123
        assert np.array_equal(back.mean, s.mean)
        assert np.array_equal(back.variance, s.variance)

    @pytest.mark.parametrize(
        "mean, variance, count",
        [
            ([0.0, 1.0], [1.0, -0.5], 10),
            ([0.0, 1.0], [1.0, 2.0], 0),
            ([np.nan, 1.0], [1.0, 2.0], 10),
            ([0.0, 1.0], [np.inf, 2.0], 10),
            ([0.0, -np.inf], [1.0, 2.0], 10),
            ([0.0, 1.0], [1.0, np.nan], 10),
        ],
    )
    def test_cmvn_invalid_statistics(self, tmp_path, mean, variance, count):
        path = tmp_path / "cmvn.bin"
        body = np.array(mean + variance, dtype="<f8").tobytes()
        path.write_bytes(audio.CMVN_MAGIC + struct.pack("<IQ", 2, count) + body)
        with pytest.raises(DumpError):
            audio.load_cmvn(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cmvn_corruptions_raise_only_dump_error(self, tmp_path, data):
        path = tmp_path / "cmvn.bin"
        audio.save_cmvn(path, CmvnStats(3, np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, 4.0]), 123))
        path.write_bytes(corrupt(data, path.read_bytes()))
        try:
            audio.load_cmvn(path)
        except DumpError:
            pass

    def test_cmvn_bad_magic(self, tmp_path):
        path = tmp_path / "cmvn.bin"
        path.write_bytes(b"NOPE!" + struct.pack("<IQ", 1, 1) + b"\x00" * 16)
        with pytest.raises(DumpError):
            audio.load_cmvn(path)
