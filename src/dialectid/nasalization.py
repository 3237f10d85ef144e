"""Vowel nasalization analysis via linear-prediction spectra.

Nasalized vowels carry a low-frequency nasal formant, so each 20 ms frame
is fit with an order-18 LP model (no pre-emphasis, Hamming window) and its
LP spectrum is searched in the 150-400 Hz band. The per-frame low-band
peak is the in-band spectral maximum; it counts as "detected" when it is a
local maximum whose height clears the nearest spectral valleys on both
sides by a prominence threshold. Frame counts, median peak location and
magnitude, and the detected fraction summarize a segment, and two segments
can be compared by median peak magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import AudioSignal
from .errors import (
    DegenerateFrame,
    EmptyReportError,
    SignalTooShort,
    UnstableFrame,
    require_finite_fields,
)
from .labels import DialectLabel

COMPARABLE_MARGIN_DB = 0.5


@dataclass
class NasalConfig:
    frame_length_ms: float = 20.0
    frame_shift_ms: float = 10.0
    lpc_order: int = 18
    fft_size: int = 1024
    band_low_hz: float = 150.0
    band_high_hz: float = 400.0
    prominence_db: float = 3.0
    prominence_span_hz: float = 250.0

    def __post_init__(self):
        require_finite_fields(self)
        if self.frame_length_ms <= 0 or self.frame_shift_ms <= 0:
            raise ValueError("frame length and shift must be positive")
        if self.frame_shift_ms > self.frame_length_ms:
            raise ValueError("frame shift must not exceed frame length")
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be at least 1")
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if not 0.0 < self.band_low_hz < self.band_high_hz:
            raise ValueError("need 0 < band_low_hz < band_high_hz")
        if self.prominence_db < 0.0:
            raise ValueError("prominence_db must be non-negative")
        if self.prominence_span_hz <= 0.0:
            raise ValueError("prominence_span_hz must be positive")

    def frame_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_length_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_shift_ms * sample_rate / 1000.0))


@dataclass(eq=False)
class LpcFrame:
    """Prediction coefficients a_1..a_p (x[n] ~ sum a_k x[n-k]) and the
    final prediction error power (gain)."""

    coefficients: np.ndarray
    gain: float
    order: int

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1 or self.coefficients.size != self.order:
            raise ValueError("coefficient count must equal the order")
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")


@dataclass
class FormantPeak:
    frequency_hz: float
    magnitude_db: float


@dataclass
class FramePeak:
    frame_index: int
    peak: FormantPeak
    detected: bool


@dataclass
class NasalizationReport:
    """Per-frame low-band peaks plus segment-level summaries.

    frame_peaks holds one entry per analyzable (non-degenerate) frame.
    Medians cover all analyzed frames' band maxima; detection_fraction is
    the share of analyzed frames whose peak passed the prominence gate.
    Medians are None when nothing could be analyzed.
    """

    frame_peaks: list[FramePeak]
    num_frames: int
    num_analyzed: int
    median_peak_hz: float | None
    median_peak_db: float | None
    detection_fraction: float


@dataclass
class DegreeComparison:
    """stronger is None when the medians differ by less than the margin."""

    stronger: DialectLabel | None
    difference_db: float


def autocorrelation(frame: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[k] = sum_n frame[n] * frame[n+k], k <= max_lag."""
    x = np.asarray(frame, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("frame must be a one-dimensional vector")
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    if x.size <= max_lag:
        raise ValueError(
            f"frame of {x.size} samples is too short for lag {max_lag}"
        )
    n = x.size
    return np.array([x[: n - k] @ x[k:] for k in range(max_lag + 1)])


def levinson_durbin(autocorr: np.ndarray, order: int, energy_threshold: float = 0.0) -> LpcFrame:
    """Solve the LP normal equations by the Levinson-Durbin recursion.

    Returns prediction coefficients a_1..a_order and the final prediction
    error power. Raises DegenerateFrame when r[0] <= energy_threshold
    (digital silence) and UnstableFrame when the error hits zero or below,
    which happens for invalid autocorrelation sequences.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.ndim != 1 or r.size < order + 1:
        raise ValueError(f"need at least order+1={order + 1} autocorrelation lags")
    if order < 1:
        raise ValueError("order must be at least 1")
    if r[0] <= energy_threshold:
        raise DegenerateFrame(f"frame energy {r[0]!r} is at or below threshold")

    a = np.zeros(order)
    error = float(r[0])
    for i in range(1, order + 1):
        acc = r[i] - a[: i - 1] @ r[i - 1 : 0 : -1]
        k = acc / error
        new_a = a.copy()
        new_a[i - 1] = k
        new_a[: i - 1] = a[: i - 1] - k * a[: i - 1][::-1]
        a = new_a
        error *= 1.0 - k * k
        if error <= 0.0:
            raise UnstableFrame(f"prediction error vanished at order {i}")
    return LpcFrame(a, error, order)


def lp_spectrum(lpc: LpcFrame, fft_size: int, sample_rate: int) -> np.ndarray:
    """LP power spectrum in dB over fft_size//2 + 1 uniform bins.

    10*log10(gain / |1 - sum_k a_k e^{-j w k}|^2); finite everywhere for
    stable frames since A(z) then has no zeros on the unit circle.
    """
    if fft_size < 2 or fft_size & (fft_size - 1):
        raise ValueError("fft_size must be a power of two")
    if fft_size < lpc.order + 1:
        raise ValueError("fft_size must exceed the LP order")
    poly = np.concatenate(([1.0], -lpc.coefficients))
    response = np.fft.rfft(poly, fft_size)
    denom = np.abs(response) ** 2
    return 10.0 * np.log10(lpc.gain / denom)


def spectrum_frequencies(fft_size: int, sample_rate: int) -> np.ndarray:
    return np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)


def find_band_peak(
    db: np.ndarray, fft_size: int, sample_rate: int, config: NasalConfig
) -> tuple[FormantPeak, bool]:
    """In-band spectral maximum plus a detection flag.

    The flag requires the band maximum to be a local maximum of the full
    spectrum and to rise by at least prominence_db above the spectral
    minimum within prominence_span_hz on each side. Measuring against the
    span minima rather than the nearest dip keeps the gate stable when
    high-order LP fits add small wiggles around a real resonance.
    """
    lo = int(np.ceil(config.band_low_hz * fft_size / sample_rate))
    hi = int(np.floor(config.band_high_hz * fft_size / sample_rate))
    lo = max(lo, 0)
    hi = min(hi, len(db) - 1)
    if lo > hi:
        raise ValueError("search band contains no FFT bins at this resolution")
    p = lo + int(np.argmax(db[lo : hi + 1]))
    peak = FormantPeak(p * sample_rate / fft_size, float(db[p]))

    local_max = (p == 0 or db[p] >= db[p - 1]) and (p == len(db) - 1 or db[p] >= db[p + 1])
    detected = False
    if local_max:
        span = max(1, int(round(config.prominence_span_hz * fft_size / sample_rate)))
        left = float(db[max(0, p - span) : p + 1].min())
        right = float(db[p : min(len(db), p + span + 1)].min())
        prominence = float(db[p]) - max(left, right)
        detected = prominence >= config.prominence_db
    return peak, detected


def _analysis_frames(signal: AudioSignal, config: NasalConfig) -> np.ndarray:
    length = config.frame_samples(signal.sample_rate)
    hop = config.hop_samples(signal.sample_rate)
    n = signal.samples.size
    if n < length:
        raise SignalTooShort(
            f"segment has {n} samples, need at least {length} for one frame"
        )
    num_frames = (n - length) // hop + 1
    idx = hop * np.arange(num_frames)[:, None] + np.arange(length)[None, :]
    # No pre-emphasis here: the low band under scrutiny is exactly what
    # pre-emphasis would attenuate.
    return signal.samples[idx] * np.hamming(length)


def segment_lp_spectra(
    signal: AudioSignal, config: NasalConfig | None = None
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """(frequencies, [(frame_index, spectrum_db), ...]) for plottable dumps.

    Degenerate or unstable frames are skipped; indices keep their place in
    the original frame sequence.
    """
    config = config or NasalConfig()
    frames = _analysis_frames(signal, config)
    spectra = []
    for t, frame in enumerate(frames):
        try:
            r = autocorrelation(frame, config.lpc_order)
            lpc = levinson_durbin(r, config.lpc_order)
        except (DegenerateFrame, UnstableFrame):
            continue
        spectra.append((t, lp_spectrum(lpc, config.fft_size, signal.sample_rate)))
    return spectrum_frequencies(config.fft_size, signal.sample_rate), spectra


def analyze_segment(signal: AudioSignal, config: NasalConfig | None = None) -> NasalizationReport:
    """Frame-by-frame low-band peak analysis of one segment."""
    config = config or NasalConfig()
    frames = _analysis_frames(signal, config)
    frame_peaks = []
    detected = 0
    for t, frame in enumerate(frames):
        try:
            r = autocorrelation(frame, config.lpc_order)
            lpc = levinson_durbin(r, config.lpc_order)
        except (DegenerateFrame, UnstableFrame):
            continue
        db = lp_spectrum(lpc, config.fft_size, signal.sample_rate)
        peak, hit = find_band_peak(db, config.fft_size, signal.sample_rate, config)
        frame_peaks.append(FramePeak(t, peak, hit))
        detected += hit

    analyzed = len(frame_peaks)
    if analyzed:
        median_hz = float(np.median([fp.peak.frequency_hz for fp in frame_peaks]))
        median_db = float(np.median([fp.peak.magnitude_db for fp in frame_peaks]))
        fraction = detected / analyzed
    else:
        median_hz = None
        median_db = None
        fraction = 0.0
    return NasalizationReport(
        frame_peaks, frames.shape[0], analyzed, median_hz, median_db, fraction
    )


def compare_degree(
    lt_report: NasalizationReport,
    ct_report: NasalizationReport,
    margin_db: float = COMPARABLE_MARGIN_DB,
) -> DegreeComparison:
    """Compare nasalization strength of an LT and a CT rendition.

    difference_db is CT median minus LT median; verdicts inside the margin
    come back as comparable (stronger is None).
    """
    if lt_report.median_peak_db is None:
        raise EmptyReportError("LT report has no analyzed frames")
    if ct_report.median_peak_db is None:
        raise EmptyReportError("CT report has no analyzed frames")
    difference = ct_report.median_peak_db - lt_report.median_peak_db
    if difference > margin_db:
        stronger = DialectLabel.CT
    elif difference < -margin_db:
        stronger = DialectLabel.LT
    else:
        stronger = None
    return DegreeComparison(stronger, difference)
