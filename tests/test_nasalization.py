"""Low-band resonance analysis: autocorrelation, Levinson-Durbin, LP
spectra, per-frame peak gating, and segment comparison."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

import reference
from dialectid import nasalization
from dialectid.dsp import AudioSignal
from dialectid.errors import (
    ConfigError,
    DegenerateFrame,
    EmptyReportError,
    SignalTooShort,
    UnstableFrame,
)
from dialectid.labels import DialectLabel
from dialectid.nasalization import (
    COMPARABLE_MARGIN_DB,
    MAX_LPC_ORDER,
    LP_DEGENERATE,
    LP_OK,
    LP_UNSTABLE,
    LpcFrame,
    NasalConfig,
    NasalizationReport,
    analyze_segment,
    autocorrelation,
    compare_degree,
    find_band_peak,
    levinson_durbin,
    lp_spectrum,
    _levinson_batch,
    _median,
    segment_lp_spectra,
    spectrum_frequencies,
)

SR = 16000


def vowel(seed=0, num_samples=SR, **kwargs):
    rng = np.random.default_rng(seed)
    return AudioSignal(reference.voiced_vowel(rng, num_samples, **kwargs), SR)


class TestAutocorrelation:
    def test_impulse(self):
        r = autocorrelation(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        assert np.array_equal(r, [1.0, 0.0, 0.0])

    def test_constant_frame(self):
        # ones(4): r[0] = 4 overlapping products, r[1] = 3.
        r = autocorrelation(np.ones(4), 1)
        assert np.array_equal(r, [4.0, 3.0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(30, 200))
            lag = int(rng.integers(1, 20))
            x = rng.standard_normal(n)
            np.testing.assert_allclose(
                autocorrelation(x, lag), reference.autocorr_ref(x, lag),
                rtol=0.0, atol=1e-12,
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            autocorrelation(np.zeros((4, 4)), 1)
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(4), -1)
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(4), 4)


class TestLevinsonDurbin:
    def test_white_noise_autocorrelation(self):
        frame = levinson_durbin(np.array([1.0, 0.0, 0.0]), 2)
        assert np.array_equal(frame.coefficients, [0.0, 0.0])
        assert frame.gain == 1.0

    def test_first_order_closed_form(self):
        # r[k] = r0 * rho^k gives a1 = rho, error = r0 * (1 - rho^2).
        r0, rho = 2.0, 0.5
        frame = levinson_durbin(np.array([r0, r0 * rho]), 1)
        assert abs(frame.coefficients[0] - rho) < 1e-10
        assert abs(frame.gain - r0 * (1.0 - rho * rho)) < 1e-10

    def test_recovers_second_order_process(self):
        denom = reference.two_pole(500.0, 0.9, SR)
        rng = np.random.default_rng(7)
        x = lfilter([1.0], denom, rng.standard_normal(16000 + 512))[512:]
        frame = levinson_durbin(autocorrelation(x, 2), 2)
        np.testing.assert_allclose(frame.coefficients, -denom[1:], atol=0.05)

    def test_solves_normal_equations(self):
        order = 8
        for seed in range(100):
            rng = np.random.default_rng(seed)
            r = autocorrelation(rng.standard_normal(400), order)
            frame = levinson_durbin(r, order)
            toeplitz = np.array(
                [[r[abs(i - j)] for j in range(order)] for i in range(order)]
            )
            residual = np.abs(toeplitz @ frame.coefficients - r[1 : order + 1])
            assert residual.max() / r[0] < 1e-8

    def test_silent_frame_is_degenerate(self):
        with pytest.raises(DegenerateFrame):
            levinson_durbin(np.zeros(3), 2)

    def test_invalid_sequence_is_unstable(self):
        # r[1] == r[0] drives the reflection coefficient to 1 and the
        # prediction error to zero.
        with pytest.raises(UnstableFrame):
            levinson_durbin(np.array([1.0, 1.0]), 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            levinson_durbin(np.array([1.0, 0.5]), 2)
        with pytest.raises(ValueError):
            levinson_durbin(np.array([1.0, 0.5]), 0)

    def test_frame_container_validation(self):
        with pytest.raises(ValueError):
            LpcFrame(np.zeros(3), 1.0, 2)
        with pytest.raises(ValueError):
            LpcFrame(np.zeros(2), 0.0, 2)


class TestLpSpectrum:
    def test_zero_coefficients_are_flat(self):
        frame = LpcFrame(np.zeros(2), 1.0, 2)
        np.testing.assert_allclose(lp_spectrum(frame, 64, SR), 0.0, atol=1e-12)

    def test_gain_is_a_uniform_offset(self):
        frame1 = LpcFrame(np.array([0.5, -0.2]), 1.0, 2)
        frame4 = LpcFrame(np.array([0.5, -0.2]), 4.0, 2)
        diff = lp_spectrum(frame4, 128, SR) - lp_spectrum(frame1, 128, SR)
        np.testing.assert_allclose(diff, 10.0 * math.log10(4.0), atol=1e-12)

    def test_resonator_peaks_at_its_pole(self):
        denom = reference.two_pole(250.0, 0.97, SR)
        frame = LpcFrame(-denom[1:], 1.0, 2)
        db = lp_spectrum(frame, 1024, SR)
        assert abs(int(np.argmax(db)) - 250.0 * 1024 / SR) <= 2

    def test_matches_direct_evaluation(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            frame = levinson_durbin(autocorrelation(rng.standard_normal(320), 10), 10)
            mine = lp_spectrum(frame, 256, SR)
            ref = reference.lp_spectrum_ref(frame.coefficients, frame.gain, 256, SR)
            np.testing.assert_allclose(mine, ref, rtol=0.0, atol=1e-9)

    def test_rejects_bad_fft_size(self):
        frame = LpcFrame(np.zeros(4), 1.0, 4)
        with pytest.raises(ValueError):
            lp_spectrum(frame, 96, SR)
        with pytest.raises(ValueError):
            lp_spectrum(frame, 4, SR)

    def test_frequency_axis(self):
        freqs = spectrum_frequencies(1024, SR)
        assert freqs.shape == (513,)
        assert freqs[0] == 0.0
        assert freqs[1] == SR / 1024
        assert freqs[-1] == SR / 2


class TestBandPeakGate:
    def test_prominent_in_band_peak_detected(self):
        db = np.full(513, -60.0)
        db[12:21] = [-40.0, -30.0, -20.0, -10.0, 0.0, -10.0, -20.0, -30.0, -40.0]
        hz, db_max, hit = find_band_peak(db, 1024, SR, NasalConfig())
        assert hz == 250.0
        assert db_max == 0.0
        assert hit

    def test_rising_ramp_is_not_a_local_max(self):
        # Monotone spectrum: the band maximum sits at the upper band edge
        # and keeps rising past it, so the gate must reject it.
        db = np.linspace(-60.0, 0.0, 513)
        hz, db_max, hit = find_band_peak(db, 1024, SR, NasalConfig())
        assert hz == pytest.approx(390.625)
        assert not hit

    def test_low_prominence_bump_rejected(self):
        db = np.full(513, -60.0)
        db[15:18] = [-58.5, -58.0, -58.5]
        hz, db_max, hit = find_band_peak(db, 1024, SR, NasalConfig())
        assert hz == 250.0
        assert db_max == -58.0
        assert not hit

    def test_empty_band_rejected(self):
        cfg = NasalConfig(band_low_hz=150.0, band_high_hz=400.0, fft_size=64)
        # 64-point FFT at 16 kHz puts bins every 250 Hz; ceil(150/250)=1,
        # floor(400/250)=1, so one bin remains and the call must work.
        db = np.zeros(33)
        hz, _, _ = find_band_peak(db, 64, SR, cfg)
        assert hz == 250.0
        with pytest.raises(ValueError):
            find_band_peak(np.zeros(9), 16, SR, NasalConfig(fft_size=16))


class TestAnalyzeSegment:
    def test_low_resonance_vowel(self):
        report = analyze_segment(vowel(seed=0))
        assert report.num_frames == 99
        assert report.num_analyzed == 99
        assert report.detection_fraction >= 0.9
        assert abs(report.median_peak_hz - 250.0) <= 30.0
        assert report.median_peak_db is not None

    def test_white_noise_rarely_detects(self):
        rng = np.random.default_rng(1)
        report = analyze_segment(AudioSignal(rng.standard_normal(SR) * 0.1, SR))
        assert report.detection_fraction < 0.5

    def test_silence_yields_empty_report(self):
        report = analyze_segment(AudioSignal(np.zeros(8000), SR))
        assert report.num_frames == 49
        assert report.num_analyzed == 0
        assert (report.num_degenerate, report.num_unstable) == (49, 0)
        assert report.frame_peaks == []
        assert report.median_peak_hz is None
        assert report.median_peak_db is None
        assert report.detection_fraction == 0.0

    def test_skipped_frames_are_counted_by_cause(self, monkeypatch):
        samples = vowel(seed=5, num_samples=SR // 2).samples.copy()
        samples[2000:4400] = 0.0  # digital silence: degenerate frames
        cfg = NasalConfig()
        frames = reference.frame_ref(samples, cfg.frame_samples(SR), cfg.hop_samples(SR))
        silent = sum(not frame.any() for frame in frames)
        assert silent >= 5 and frames[3].any() and frames[40].any()
        real_levinson = nasalization._levinson_batch

        def two_unstable(r, order):
            a, error, status = real_levinson(r, order)
            status[[3, 40]] = LP_UNSTABLE
            return a, error, status

        monkeypatch.setattr(nasalization, "_levinson_batch", two_unstable)
        report = analyze_segment(AudioSignal(samples, SR), cfg)
        assert report.num_frames == len(frames)
        assert (report.num_degenerate, report.num_unstable) == (silent, 2)
        assert report.num_analyzed == len(frames) - silent - 2
        assert not {3, 40} & {fp.frame_index for fp in report.frame_peaks}

    def test_amplitude_invariance(self):
        sig = vowel(seed=3, num_samples=SR // 2)
        loud = AudioSignal(sig.samples * 8.0, SR)
        a, b = analyze_segment(sig), analyze_segment(loud)
        # Scaling shifts every LP spectrum by a constant, so locations,
        # gating, and the detected fraction cannot move.
        assert b.median_peak_hz == a.median_peak_hz
        assert b.detection_fraction == a.detection_fraction
        assert b.median_peak_db - a.median_peak_db == pytest.approx(
            20.0 * math.log10(8.0), abs=1e-9
        )

    def test_band_follows_config(self):
        sig = vowel(seed=0, pole_hz=900.0, companion_hz=2200.0)
        moved = analyze_segment(
            sig, NasalConfig(band_low_hz=600.0, band_high_hz=1200.0)
        )
        assert abs(moved.median_peak_hz - 900.0) <= 30.0
        assert moved.detection_fraction >= 0.9
        default = analyze_segment(sig)
        assert default.detection_fraction < 0.5

    def test_short_segment_rejected(self):
        with pytest.raises(SignalTooShort):
            analyze_segment(AudioSignal(np.zeros(100), SR))

    def test_config_validation(self):
        for bad in (
            dict(frame_shift_ms=25.0),
            dict(lpc_order=0),
            dict(fft_size=1000),
            dict(band_low_hz=500.0, band_high_hz=300.0),
            dict(prominence_db=-1.0),
            dict(prominence_span_hz=0.0),
            dict(lpc_order=MAX_LPC_ORDER + 1, frame_length_ms=40.0),
            dict(lpc_order=65000, fft_size=65536, frame_length_ms=4100.0, frame_shift_ms=1000.0),
        ):
            with pytest.raises(ValueError):
                NasalConfig(**bad)

    def test_lpc_order_cap_is_inclusive_and_runs(self):
        # 40 ms frames are 640 samples, so the frame rule allows the cap.
        config = NasalConfig(lpc_order=MAX_LPC_ORDER, frame_length_ms=40.0)
        report = analyze_segment(vowel(seed=8, num_samples=SR // 2), config)
        assert report.num_frames > 0 and report.num_analyzed > 0


class TestSpectrumDump:
    def test_indices_track_analyzable_frames(self):
        sig = vowel(seed=4, num_samples=8000)
        freqs, spectra = segment_lp_spectra(sig)
        report = analyze_segment(sig)
        assert len(spectra) == report.num_analyzed
        indices = [t for t, _ in spectra]
        assert indices == sorted(indices)
        assert all(s.shape == (513,) for _, s in spectra)
        assert freqs.shape == (513,)

    def test_blocks_leave_the_report_and_the_dump_unchanged(self, monkeypatch):
        # One frame per block against the whole segment in one block.
        x = reference.voiced_vowel(np.random.default_rng(6), 12000)
        x[3000:5000] = 0.0
        sig = AudioSignal(x, SR)
        config = NasalConfig(fft_size=4096)
        whole = analyze_segment(sig, config)
        freqs, spectra = segment_lp_spectra(sig, config)
        monkeypatch.setattr(nasalization, "SPECTRUM_BLOCK_BINS", 1)
        assert repr(analyze_segment(sig, config)) == repr(whole)
        blocked_freqs, blocked = segment_lp_spectra(sig, config)
        assert len(blocked) == whole.num_analyzed == len(spectra)
        assert np.array_equal(blocked_freqs, freqs)
        for (t, s), (u, v) in zip(blocked, spectra):
            assert t == u and np.array_equal(s, v)

    def test_peak_memory_does_not_grow_with_frames_at_the_largest_fft(self):
        # At fft_size 65536 a spectrum row is 256 KB, so holding every
        # frame's at once would take ~50 MB for 2 s and ~100 MB for 4 s.
        peaks = []
        for seconds in (2, 4):
            sig = vowel(seed=seconds, num_samples=seconds * SR)
            tracemalloc.start()
            try:
                report = analyze_segment(sig, NasalConfig(fft_size=65536))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.num_analyzed > 190
        assert peaks[1] <= 1.1 * peaks[0]

    def test_silence_dumps_nothing(self):
        freqs, spectra = segment_lp_spectra(AudioSignal(np.zeros(8000), SR))
        assert spectra == []
        assert freqs[1] == pytest.approx(15.625)


def report_with_median(db):
    return NasalizationReport([], 10, 10, 0, 0, 250.0, db, 1.0)


class TestDegreeComparison:
    def test_identical_reports_are_comparable(self):
        r = report_with_median(10.0)
        verdict = compare_degree(r, r)
        assert verdict.stronger is None
        assert verdict.difference_db == 0.0

    def test_signed_difference(self):
        verdict = compare_degree(report_with_median(10.0), report_with_median(16.0))
        assert verdict.stronger is DialectLabel.CT
        assert verdict.difference_db == pytest.approx(6.0)
        flipped = compare_degree(report_with_median(16.0), report_with_median(10.0))
        assert flipped.stronger is DialectLabel.LT
        assert flipped.difference_db == pytest.approx(-6.0)

    def test_margin_is_strict(self):
        verdict = compare_degree(report_with_median(10.0), report_with_median(10.5))
        assert verdict.stronger is None
        past = compare_degree(
            report_with_median(10.0), report_with_median(10.0 + 2 * COMPARABLE_MARGIN_DB)
        )
        assert past.stronger is DialectLabel.CT

    def test_sharper_resonance_reads_stronger(self):
        weak = analyze_segment(vowel(seed=11, radius=0.90))
        strong = analyze_segment(vowel(seed=12, radius=0.97))
        verdict = compare_degree(weak, strong)
        assert verdict.stronger is DialectLabel.CT
        assert verdict.difference_db > 0.5

    def test_empty_reports_rejected(self):
        empty = analyze_segment(AudioSignal(np.zeros(8000), SR))
        full = report_with_median(10.0)
        with pytest.raises(EmptyReportError):
            compare_degree(empty, full)
        with pytest.raises(EmptyReportError):
            compare_degree(full, empty)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frame_length_ms": math.inf},
            {"frame_shift_ms": math.nan},
            {"band_high_hz": math.inf},
            {"prominence_db": math.inf},
            {"prominence_span_hz": math.nan},
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NasalConfig(**kwargs)


class TestBatchedCore:
    """The batched LP core against per-frame textbook references."""

    def test_levinson_status_and_finite_outputs(self):
        order = 4
        rng = np.random.default_rng(3)
        good = reference.autocorr_ref(rng.standard_normal(200), order)
        rows = np.array(
            [
                good,
                np.zeros(order + 1),  # digital silence
                [1.0, 1.0, 0.5, 0.2, 0.1],  # |k1| = 1 at order 1
                [1.0, 0.0, 1.0, 0.0, 0.0],  # k2 = 1 at order 2
                [1.0, 0.9, 0.9, 0.9, 5.0],  # error turns negative at order 4
                [1e-300, 1.0, 1.0, 1.0, 1.0],  # k1 overflows: error -inf at order 1
                2.0 * good,
            ]
        )
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            coeffs, gains, status = _levinson_batch(rows, order)
        assert status.tolist() == [LP_OK, LP_DEGENERATE] + [LP_UNSTABLE] * 4 + [LP_OK]
        assert np.isfinite(coeffs).all() and np.isfinite(gains).all()
        for row, a, g, st in zip(rows, coeffs, gains, status):
            ref = reference.levinson_ref(row, order)
            if st == LP_OK:
                np.testing.assert_allclose(a, ref[0], rtol=1e-12, atol=1e-14)
                assert g == pytest.approx(ref[1], rel=1e-12)
            else:
                assert ref == ("degenerate" if st == LP_DEGENERATE else "unstable")

    def test_segment_matches_per_frame_reference(self):
        samples = vowel(seed=5, num_samples=SR // 2).samples.copy()
        samples[2000:4400] = 0.0  # several frames of digital silence
        sig = AudioSignal(samples, SR)
        cfg = NasalConfig()
        length, hop = cfg.frame_samples(SR), cfg.hop_samples(SR)
        frames = reference.frame_ref(samples, length, hop)

        want = []
        for t, frame in enumerate(frames):
            fit = reference.levinson_ref(reference.autocorr_ref(frame, cfg.lpc_order), cfg.lpc_order)
            if isinstance(fit, str):
                continue
            want.append((t, reference.lp_spectrum_ref(fit[0], fit[1], cfg.fft_size, SR)))
        skipped = len(frames) - len(want)
        assert 5 <= skipped < len(frames)

        freqs, spectra = segment_lp_spectra(sig, cfg)
        assert [t for t, _ in spectra] == [t for t, _ in want]
        for (_, got), (_, ref) in zip(spectra, want):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6)

        report = analyze_segment(sig, cfg)
        assert report.num_frames == len(frames)
        assert [fp.frame_index for fp in report.frame_peaks] == [t for t, _ in want]
        for fp, (_, ref) in zip(report.frame_peaks, want):
            p, hit = reference.band_peak_ref(
                ref, cfg.fft_size, SR, cfg.band_low_hz, cfg.band_high_hz,
                cfg.prominence_span_hz, cfg.prominence_db,
            )
            assert fp.frequency_hz == freqs[p]
            assert fp.magnitude_db == pytest.approx(ref[p], abs=1e-6)
            assert fp.detected == hit

    def test_band_peak_matches_reference_at_spectrum_edges(self):
        rng = np.random.default_rng(9)
        # Narrow spectra put the band and both span windows against the
        # ends of the array.
        at_top = 0
        for trial in range(300):
            # A zero threshold lets a peak on the last bin pass the gate.
            cfg = NasalConfig(
                band_low_hz=0.1,
                band_high_hz=8000.0,
                prominence_db=0.5 * (trial % 2),
                prominence_span_hz=2000.0,
            )
            db = rng.standard_normal(int(rng.integers(3, 60)))
            fft_size = 2 * (db.size - 1)
            hz, db_max, hit = find_band_peak(db, fft_size, SR, cfg)
            p, want_hit = reference.band_peak_ref(
                db, fft_size, SR, cfg.band_low_hz, cfg.band_high_hz,
                cfg.prominence_span_hz, cfg.prominence_db,
            )
            assert hz == p * SR / fft_size
            assert db_max == db[p]
            assert hit == want_hit
            assert type(hit) is bool
            at_top += p == db.size - 1
        assert at_top > 0

    def test_span_wider_than_the_spectrum_matches_reference(self):
        rng = np.random.default_rng(10)
        for span_hz in (1e5, 1e30):
            cfg = NasalConfig(band_low_hz=0.1, band_high_hz=8000.0, prominence_span_hz=span_hz)
            db = rng.standard_normal(40)
            fft_size = 2 * (db.size - 1)
            hz, _, hit = find_band_peak(db, fft_size, SR, cfg)
            p, want_hit = reference.band_peak_ref(
                db, fft_size, SR, cfg.band_low_hz, cfg.band_high_hz, span_hz, cfg.prominence_db
            )
            assert (hz, hit) == (p * SR / fft_size, want_hit)

    def test_report_fields_are_plain_python(self):
        report = analyze_segment(vowel(seed=2, num_samples=SR // 4))
        fp = report.frame_peaks[0]
        assert type(fp.frame_index) is int
        assert type(fp.frequency_hz) is float
        assert type(fp.magnitude_db) is float
        assert type(fp.detected) is bool

    def test_median_is_numpy_median_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n in list(range(1, 12)) + [98, 99, 999]:
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            assert _median(values) == float(np.median(values))
            bins = rng.integers(9, 26, n) * 15.625
            assert _median(bins) == float(np.median(bins))

    @pytest.mark.parametrize("order", [320, 400])
    def test_order_not_below_the_frame_length_is_a_config_error_on_silence_too(self, order):
        # A 20 ms frame is 320 samples at 16 kHz; silence leaves every frame degenerate.
        with pytest.raises(ConfigError, match="lpc_order"):
            analyze_segment(AudioSignal(np.zeros(SR // 4), SR), NasalConfig(lpc_order=order))

    def test_fft_must_exceed_order(self):
        with pytest.raises(ValueError):
            NasalConfig(fft_size=16, lpc_order=18)
