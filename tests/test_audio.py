"""Audio loading, feature extraction and normalization tests."""

import struct
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import corrupt
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
        freq = audio.mel_center_frequencies(n_mels, sr)[k]
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
        got = audio.mel_spectrogram(wav, audio.LOGMEL_DEFAULT)[5]
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-12)
        assert np.argmax(expected) == k


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
        wav = Waveform(RNG.normal(0, 0.1, 4000).astype(np.float32), 16000)
        cfg = audio.MFCC_DEFAULT
        logmel = audio.extract_logmel(wav, cfg)
        mfcc = audio.extract_mfcc(wav, cfg)
        back = mfcc.frames.astype(np.float64) @ audio.dct_matrix(40)
        assert np.allclose(back, logmel.frames, atol=1e-8)


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
    def test_feature_dump_roundtrip(self, tmp_path):
        path = tmp_path / "feats.bin"
        items = [
            ("utt-a", RNG.normal(0, 1, (3, 4)).astype(np.float32)),
            ("utt-b", RNG.normal(0, 1, (2, 4)).astype(np.float32)),
        ]
        audio.write_feature_dump(path, items)
        back = audio.read_feature_dump(path)
        assert [u for u, _ in back] == ["utt-a", "utt-b"]
        for (_, a), (_, b) in zip(items, back):
            assert np.array_equal(a, b) and b.dtype == np.float32

    def test_feature_dump_bad_magic(self, tmp_path):
        path = tmp_path / "feats.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(DumpError):
            audio.read_feature_dump(path)

    def test_feature_dump_truncated(self, tmp_path):
        path = tmp_path / "feats.bin"
        audio.write_feature_dump(path, [("u", np.zeros((2, 3), dtype=np.float32))])
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DumpError):
            audio.read_feature_dump(path)

    def test_cmvn_roundtrip(self, tmp_path):
        path = tmp_path / "cmvn.bin"
        s = CmvnStats(3, np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, 4.0]), 123)
        audio.save_cmvn(path, s)
        back = audio.load_cmvn(path)
        assert back.dim == 3 and back.frame_count == 123
        assert np.array_equal(back.mean, s.mean)
        assert np.array_equal(back.variance, s.variance)

    def test_feature_dump_invalid_utf8_id(self, tmp_path):
        path = tmp_path / "feats.bin"
        audio.write_feature_dump(path, [("utt-é", np.zeros((2, 3), dtype=np.float32))])
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xff\xff"))
        with pytest.raises(DumpError, match="UTF-8"):
            audio.read_feature_dump(path)

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

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_feature_dump_corruptions_raise_only_dump_error(self, tmp_path, data):
        path = tmp_path / "feats.bin"
        items = [("utt-é", np.ones((2, 3), dtype=np.float32)), ("b", np.zeros((1, 3), dtype=np.float32))]
        audio.write_feature_dump(path, items)
        path.write_bytes(corrupt(data, path.read_bytes()))
        try:
            audio.read_feature_dump(path)
        except DumpError:
            pass

    def test_cmvn_bad_magic(self, tmp_path):
        path = tmp_path / "cmvn.bin"
        path.write_bytes(b"NOPE!" + struct.pack("<IQ", 1, 1) + b"\x00" * 16)
        with pytest.raises(DumpError):
            audio.load_cmvn(path)
