"""Front-end tests: framing, mel filterbank, cepstra, deltas, CMS, file I/O."""

import dataclasses
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dialectid
import reference
from dialectid.dsp import (
    _dct_basis,
    CANONICAL_SAMPLE_RATE,
    ENERGY_FLOOR,
    MAX_DELTA_WINDOW,
    MAX_FFT_SIZE,
    MAX_MEL_FILTERS,
    AudioSignal,
    MfccConfig,
    append_deltas,
    cepstral_mean_subtract,
    extract_features,
    extract_mfcc13,
    extract_segment,
    frame_signal,
    hz_to_mel,
    mel_filterbank,
    mel_filterbank_energies,
    mel_to_hz,
    preemphasize,
    read_features,
    write_features,
    write_features_csv,
)
from dialectid.errors import (
    ConfigError,
    DialectIdError,
    FeatureFileError,
    SampleRateMismatch,
    SignalTooShort,
)

SR = CANONICAL_SAMPLE_RATE


def sig(samples):
    return AudioSignal(np.asarray(samples, dtype=np.float64), SR)


def sine(freq_hz, seconds, amplitude=0.3):
    t = np.arange(int(seconds * SR)) / SR
    return sig(amplitude * np.sin(2.0 * np.pi * freq_hz * t))


class TestPreemphasis:
    def test_zero_signal_stays_zero(self):
        out = preemphasize(sig(np.zeros(64)), 0.97)
        assert np.array_equal(out.samples, np.zeros(64))

    def test_impulse(self):
        out = preemphasize(sig([1.0, 0.0, 0.0]), 0.95)
        assert np.allclose(out.samples, [1.0, -0.95, 0.0], atol=1e-15)

    def test_constant_signal(self):
        c = 0.5
        out = preemphasize(sig([c, c, c]), 0.97)
        assert np.allclose(out.samples, [c, 0.03 * c, 0.03 * c], atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        out = preemphasize(sig(x), 0.97)
        assert np.allclose(out.samples, reference.preemphasize_ref(x, 0.97), atol=1e-12)

    def test_coefficient_range_checked(self):
        with pytest.raises(ValueError):
            preemphasize(sig(np.ones(4)), 1.0)


class TestFraming:
    def test_exact_fit_is_one_frame(self):
        assert frame_signal(sig(np.ones(400)), MfccConfig()).shape == (1, 400)

    def test_560_samples_is_two_frames(self):
        assert frame_signal(sig(np.ones(560)), MfccConfig()).shape[0] == 2

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            frame_signal(sig(np.ones(100)), MfccConfig())

    @pytest.mark.parametrize("length_ms, shift_ms", [(25.0, 0.01), (0.01, 0.01)])
    def test_sub_sample_frame_or_shift_is_a_config_error(self, length_ms, shift_ms):
        cfg = MfccConfig(frame_length_ms=length_ms, frame_shift_ms=shift_ms)
        with pytest.raises(ConfigError):
            frame_signal(sig(np.ones(400)), cfg)

    def test_frame_count_formula(self):
        # floor((N - L) / H) + 1 over random lengths
        rng = np.random.default_rng(2)
        cfg = MfccConfig()
        for _ in range(200):
            n = int(rng.integers(400, 20000))
            frames = frame_signal(sig(np.zeros(n)), cfg)
            assert frames.shape[0] == (n - 400) // 160 + 1

    def test_window_and_content_match_reference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        got = frame_signal(sig(x), MfccConfig())
        assert np.allclose(got, reference.frame_ref(x, 400, 160), atol=1e-12)


class TestMelScale:
    def test_zero_hz_is_zero_mel(self):
        assert hz_to_mel(0.0) == 0.0

    def test_1000_hz_is_about_1000_mel(self):
        assert abs(float(hz_to_mel(1000.0)) - 1000.0) < 0.05

    def test_round_trip(self):
        hz = np.array([20.0, 300.0, 1000.0, 4000.0, 7600.0])
        assert np.allclose(mel_to_hz(hz_to_mel(hz)), hz, rtol=1e-12)


class TestFilterbank:
    def test_matches_reference(self):
        cfg = MfccConfig()
        got = mel_filterbank(cfg)
        want = reference.filterbank_ref(26, 512, SR, cfg.low_freq_hz, cfg.high_freq_hz)
        assert got.shape == (26, 257)
        assert np.allclose(got, want, atol=1e-12)

    def test_every_filter_peaks_at_one(self):
        bank = mel_filterbank(MfccConfig())
        assert np.all(bank >= 0.0)
        assert np.allclose(bank.max(axis=1), 1.0)

    def test_cached_bank_is_shared_and_read_only(self):
        bank = mel_filterbank(MfccConfig())
        assert mel_filterbank(MfccConfig()) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 5.0
        assert mel_filterbank(MfccConfig(num_mel_filters=20)).shape == (20, 257)

    def test_zero_spectrum_hits_the_log_floor(self):
        logs = mel_filterbank_energies(np.zeros((3, 257)), MfccConfig())
        assert np.array_equal(logs, np.full((3, 26), math.log(ENERGY_FLOOR)))

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank_energies(np.zeros((3, 129)), MfccConfig())


class TestStaticCepstra:
    def test_silence_concentrates_in_c0(self):
        # all-floor log energies form a constant vector, so only c0 survives
        cep = extract_mfcc13(sig(np.zeros(SR)))
        assert np.allclose(cep, cep[0], atol=1e-12)
        expected_c0 = math.log(ENERGY_FLOOR) * math.sqrt(26.0)
        assert abs(cep[0, 0] - expected_c0) < 1e-9
        assert np.all(np.abs(cep[0, 1:]) < 1e-9)

    def test_sine_matches_reference(self):
        cfg = MfccConfig()
        s = sine(1000.0, 1.0)
        got = extract_mfcc13(s, cfg)
        want = reference.mfcc13_ref(s.samples, SR, cfg)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_amplitude_doubling_shifts_only_c0(self):
        base = extract_mfcc13(sine(1000.0, 1.0, 0.3))
        loud = extract_mfcc13(sine(1000.0, 1.0, 0.6))
        shift = loud[:, 0] - base[:, 0]
        # power scales by 4, every log energy moves by log 4, c0 absorbs it
        assert np.allclose(shift, math.log(4.0) * math.sqrt(26.0), atol=1e-6)
        assert np.max(np.abs(loud[:, 1:] - base[:, 1:])) < 1e-6

    def test_wrong_sample_rate_rejected(self):
        for rate in (8000, 44100):
            bad = AudioSignal(np.zeros(rate), rate)
            with pytest.raises(SampleRateMismatch):
                extract_mfcc13(bad)


class TestDctBasis:
    @pytest.mark.parametrize("n,keep", [(26, 13), (20, 20), (40, 13), (1, 1)])
    def test_matches_reference(self, n, keep):
        basis = _dct_basis(n, keep)
        assert basis.shape == (n, keep)
        # Row i of the basis is the transform of the i-th unit vector.
        want = np.array([reference.dct2_ortho_ref(np.eye(n)[i], keep) for i in range(n)])
        np.testing.assert_allclose(basis, want, rtol=0.0, atol=1e-12)
        x = np.random.default_rng(n).standard_normal((5, n)) * 10.0
        got = x @ basis
        for row, out in zip(x, got):
            np.testing.assert_allclose(out, reference.dct2_ortho_ref(row, keep), rtol=0.0, atol=1e-12)

    def test_cached_basis_is_shared_and_read_only(self):
        basis = _dct_basis(26, 13)
        assert _dct_basis(26, 13) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_features_identical_across_blas_thread_counts(self):
        src = os.path.dirname(os.path.dirname(dialectid.__file__))
        probe = (
            "import hashlib, numpy as np\n"
            "from dialectid.dsp import AudioSignal, extract_features\n"
            "x = np.random.default_rng(11).standard_normal(48000) * 0.1\n"
            "f = extract_features(AudioSignal(x, 16000))\n"
            "print(hashlib.sha256(f.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1


class TestDeltas:
    def test_constant_sequence_gives_zero_deltas(self):
        rng = np.random.default_rng(4)
        static = np.tile(rng.standard_normal(13), (12, 1))
        feats = append_deltas(static)
        assert np.allclose(feats[:, 13:], 0.0, atol=1e-12)

    def test_linear_ramp_velocity(self):
        v = np.arange(1.0, 14.0)
        static = np.outer(np.arange(20.0), v)
        feats = append_deltas(static, delta_window=2)
        interior = slice(2, 18)
        assert np.allclose(feats[interior, 13:26], np.tile(v, (16, 1)), atol=1e-12)
        assert np.allclose(feats[4:16, 26:], 0.0, atol=1e-12)

    def test_single_frame_deltas_are_zero(self):
        feats = append_deltas(np.ones((1, 13)))
        assert feats.shape == (1, 39)
        assert np.allclose(feats[:, 13:], 0.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        static = rng.standard_normal((11, 13))
        feats = append_deltas(static, delta_window=2)
        vel = reference.deltas_ref(static, 2)
        acc = reference.deltas_ref(vel, 2)
        assert np.allclose(feats[:, 13:26], vel, atol=1e-12)
        assert np.allclose(feats[:, 26:], acc, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 50, 300])
    def test_bytes_match_clipped_index_formula(self, t, window):
        # Short matrices (t below the window) clamp most indices to an edge.
        static = np.random.default_rng(t * 1000 + window).standard_normal((t, 13))
        feats = append_deltas(static, delta_window=window)
        vel = reference.deltas_clipped_index(static, window)
        acc = reference.deltas_clipped_index(vel, window)
        assert feats[:, 13:26].tobytes() == vel.tobytes()
        assert feats[:, 26:].tobytes() == acc.tobytes()


class TestCepstralMeanSubtraction:
    def test_zero_column_means(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 40)), 39)) * 10.0
            out = cepstral_mean_subtract(x)
            assert np.max(np.abs(out.mean(axis=0))) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((25, 39))
        once = cepstral_mean_subtract(x)
        assert np.allclose(cepstral_mean_subtract(once), once, atol=1e-12)

    def test_shift_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((25, 39))
        b = rng.standard_normal(39) * 100.0
        assert np.allclose(
            cepstral_mean_subtract(x + b), cepstral_mean_subtract(x), atol=1e-10
        )


class TestFullPipeline:
    def test_matches_reference_on_random_signals(self):
        cfg = MfccConfig()
        rng = np.random.default_rng(9)
        for _ in range(3):
            n = int(rng.integers(int(0.3 * SR), int(0.8 * SR)))
            x = 0.3 * rng.standard_normal(n)
            got = extract_features(sig(x), cfg)
            want = reference.features39_ref(x, SR, cfg)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-6

    def test_output_is_39_dim_and_finite(self):
        feats = extract_features(sine(440.0, 0.5))
        assert feats.shape[1] == 39
        assert np.isfinite(feats).all()

    def test_segment_extraction_slices_samples(self):
        rng = np.random.default_rng(10)
        s = sig(rng.standard_normal(2 * SR))
        cut = extract_segment(s, 0.5, 1.25)
        assert np.array_equal(cut.samples, s.samples[8000:20000])

    def test_segment_bounds_checked(self):
        s = sig(np.zeros(SR))
        with pytest.raises(ValueError):
            extract_segment(s, 1.0, 0.5)

    def test_segment_bounds_past_the_end_clip_to_it(self):
        s = sig(np.arange(SR, dtype=np.float64))
        for end in (1.0, 1.5, 1e306, math.inf):
            assert np.array_equal(extract_segment(s, 0.5, end).samples, s.samples[8000:])
        for start in (1.0, 2.0, 1e305):
            assert extract_segment(s, start, math.inf).samples.size == 0


class TestFeatureFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((17, 39))
        path = tmp_path / "f.mfc"
        write_features(path, feats)
        back = read_features(path)
        assert np.array_equal(back, feats)
        assert back.dtype == np.float64

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "f.mfc"
        write_features(path, np.ones((4, 39)))
        blob = path.read_bytes()
        for cut in (3, 16, len(blob) - 8):
            path.write_bytes(blob[:cut])
            with pytest.raises(FeatureFileError):
                read_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.mfc"
        write_features(path, np.ones((2, 39)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError):
            read_features(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "f.mfc"
        write_features(path, np.ones((2, 39)))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError):
            read_features(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "f.mfc"
        feats = np.ones((2, 3))
        write_features(path, feats)
        blob = bytearray(path.read_bytes())
        blob[16:24] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError):
            read_features(path)

    @pytest.mark.parametrize("shape", [(0, 39), (0, 0), (5, 0)])
    def test_empty_matrix_rejected(self, tmp_path, shape):
        # A header with an empty dimension is rejected whatever follows it;
        # the writers refuse such matrices (test_writers_refuse_empty_matrix).
        path = tmp_path / "f.mfc"
        path.write_bytes(struct.pack("<4sIII", b"MFCC", 1, *shape))
        # Matched after the file name: the test's directory says "empty" too.
        with pytest.raises(FeatureFileError, match=r"f\.mfc: empty"):
            read_features(path)

    @pytest.mark.parametrize("shape", [(0, 39), (0, 0), (5, 0)])
    @pytest.mark.parametrize("writer", [write_features, write_features_csv])
    def test_writers_refuse_empty_matrix(self, tmp_path, shape, writer):
        path = tmp_path / "f.out"
        with pytest.raises(ValueError, match="non-empty"):
            writer(path, np.ones(shape))
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("writer", [write_features, write_features_csv])
    def test_writers_refuse_non_finite_values(self, tmp_path, value, writer):
        path = tmp_path / "f.out"
        with pytest.raises(ValueError, match="non-finite"):
            writer(path, np.array([[value, 1.0]]))
        assert not os.listdir(tmp_path)

    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        blob=st.binary(max_size=80)
        | st.builds(
            lambda version, frames, dim, tail: struct.pack("<4sIII", b"MFCC", version, frames, dim)
            + tail,
            st.sampled_from([1, 1, 2]),
            st.integers(0, 3) | st.integers(0, 2**32 - 1),
            st.integers(0, 3) | st.integers(0, 2**32 - 1),
            st.lists(st.floats(width=64), max_size=12).map(
                lambda xs: struct.pack(f"<{len(xs)}d", *xs)
            )
            | st.binary(max_size=64),
        )
    )
    def test_any_bytes_parse_or_raise_a_domain_error(self, tmp_path, blob):
        path = tmp_path / "f.mfc"
        path.write_bytes(blob)
        try:
            feats = read_features(path)
        except DialectIdError:
            return
        assert feats.ndim == 2 and min(feats.shape) >= 1
        assert np.isfinite(feats).all()
        write_features(tmp_path / "again.mfc", feats)
        assert (tmp_path / "again.mfc").read_bytes() == blob

    def test_csv_round_trips_at_full_precision(self, tmp_path):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((5, 39))
        path = tmp_path / "f.csv"
        write_features_csv(path, feats)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, feats)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fft_size": 500},
            {"frame_shift_ms": 30.0},
            {"num_cepstra": 30},
            {"preemphasis_coeff": 1.0},
            {"low_freq_hz": 8000.0, "high_freq_hz": 100.0},
            {"delta_window": 0},
            {"delta_window": 101},
            {"frame_length_ms": math.inf},
            {"frame_shift_ms": math.nan},
            {"high_freq_hz": math.inf},
            {"frame_length_ms": 40.0},
            {"high_freq_hz": 9000.0},
            {"num_mel_filters": 258},
            {"delta_window": 2.0},
            {"fft_size": True},
            {"fft_size": 2 * MAX_FFT_SIZE},
            {"fft_size": 2**22},
            {"fft_size": 2**62},
            {"num_mel_filters": MAX_MEL_FILTERS + 1},
            {"num_mel_filters": MAX_MEL_FILTERS + 1, "fft_size": 1024},
            {"num_mel_filters": 32769, "num_cepstra": 32769, "fft_size": MAX_FFT_SIZE},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MfccConfig(**kwargs)

    def test_fft_size_cap_is_inclusive(self):
        assert MfccConfig(fft_size=MAX_FFT_SIZE).fft_size == MAX_FFT_SIZE

    def test_mel_filter_cap_is_inclusive(self):
        config = MfccConfig(num_mel_filters=MAX_MEL_FILTERS, num_cepstra=MAX_MEL_FILTERS)
        assert config.num_cepstra == MAX_MEL_FILTERS

    def test_delta_window_cap_is_inclusive(self):
        assert MfccConfig(delta_window=MAX_DELTA_WINDOW).delta_window == MAX_DELTA_WINDOW

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MfccConfig().fft_size = 1024
