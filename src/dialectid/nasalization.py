"""Vowel nasalization analysis via linear-prediction spectra.

Nasalized vowels carry a low-frequency nasal formant, so each 20 ms frame
is fit with an order-18 LP model (no pre-emphasis, Hamming window) and its
LP spectrum is searched in the 150-400 Hz band. The per-frame low-band
peak is the in-band spectral maximum; it counts as "detected" when it is a
local maximum whose height clears the nearest spectral valleys on both
sides by a prominence threshold. Frame counts, median peak location and
magnitude, and the detected fraction summarize a segment, and two segments
can be compared by median peak magnitude. One batched pass fits every frame;
the LP spectra are then made SPECTRUM_BLOCK_BINS values at a time, and each
block is searched and written to the optional spectra dump before the next
is made, so memory stays flat in the segment's length.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .dsp import AudioSignal, Framing, frame_signal
from .errors import ConfigError, DegenerateFrame, EmptyReportError, UnstableFrame
from .labels import DialectLabel

COMPARABLE_MARGIN_DB = 0.5
SPECTRUM_BLOCK_BINS = 2**18  # LP spectrum values made at once; peak ~18.3 bytes each, ~4.8 MB

# Largest accepted lpc_order, far above the 10-30 of speech LP analysis. The
# autocorrelation and the Levinson-Durbin recursion each take one pass per
# order, so a frame costs O(order^2) besides O(order * frame length): at 512
# a 5 s segment took 0.27 s, at the default 18 it took 0.01 s.
MAX_LPC_ORDER = 512


@dataclass
class NasalConfig(Framing):
    frame_length_ms: float = 20.0
    frame_shift_ms: float = 10.0
    lpc_order: int = 18
    fft_size: int = 1024
    band_low_hz: float = 150.0
    band_high_hz: float = 400.0
    prominence_db: float = 3.0
    prominence_span_hz: float = 250.0

    def __post_init__(self):
        super().__post_init__()
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be at least 1")
        if self.fft_size < self.lpc_order + 1:
            raise ValueError("fft_size must exceed the LP order")
        if not 0.0 < self.band_low_hz < self.band_high_hz:
            raise ValueError("need 0 < band_low_hz < band_high_hz")
        if self.prominence_db < 0.0:
            raise ValueError("prominence_db must be non-negative")
        if self.prominence_span_hz <= 0.0:
            raise ValueError("prominence_span_hz must be positive")
        # Last, so that a value rejected for another reason keeps that reason.
        if self.lpc_order > MAX_LPC_ORDER:
            raise ValueError(f"lpc_order must be at most {MAX_LPC_ORDER}")


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
class FramePeak:
    frame_index: int
    frequency_hz: float
    magnitude_db: float
    detected: bool


@dataclass
class NasalizationReport:
    """Per-frame low-band peaks plus segment-level summaries.

    frame_peaks holds one entry per analyzable frame. Of the num_frames
    frames, num_degenerate (zero energy) and num_unstable (the LP recursion
    broke down) were skipped and the other num_analyzed analyzed.
    Medians cover all analyzed frames' band maxima; detection_fraction is
    the share of analyzed frames whose peak passed the prominence gate.
    Medians are None when nothing could be analyzed.
    """

    frame_peaks: list[FramePeak]
    num_frames: int
    num_analyzed: int
    num_degenerate: int
    num_unstable: int
    median_peak_hz: float | None
    median_peak_db: float | None
    detection_fraction: float


@dataclass
class DegreeComparison:
    """stronger is None when the medians differ by at most COMPARABLE_MARGIN_DB."""

    stronger: DialectLabel | None
    difference_db: float


# Per-frame status of the batched Levinson-Durbin recursion.
LP_OK = 0
LP_DEGENERATE = 1  # r[0] <= 0 (digital silence)
LP_UNSTABLE = 2  # prediction error reached zero or below


def _autocorrelations(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation of every row: (F, N) -> (F, max_lag + 1)."""
    n = frames.shape[1]
    r = np.empty((frames.shape[0], max_lag + 1))
    for k in range(max_lag + 1):
        r[:, k] = np.einsum("ij,ij->i", frames[:, : n - k], frames[:, k:])
    return r


def _levinson_batch(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levinson-Durbin on every row of r at once, looping only over the order.

    Returns (coefficients (F, order), error powers (F,), status (F,)).
    A frame that fails keeps its coefficients from the last good order and
    a unit error, so later orders stay finite; only LP_OK rows are valid.
    """
    status = np.where(r[:, 0] <= 0.0, LP_DEGENERATE, LP_OK)
    failed = status != LP_OK
    a = np.zeros((r.shape[0], order))
    error = np.where(failed, 1.0, r[:, 0])
    with np.errstate(over="ignore"):
        for i in range(1, order + 1):
            prev = a[:, : i - 1]
            acc = r[:, i] - np.einsum("ij,ij->i", prev, r[:, i - 1 : 0 : -1])
            k = acc / error
            error = error * (1.0 - k * k)
            unstable = (error <= 0.0) & ~failed
            status[unstable] = LP_UNSTABLE
            failed |= unstable
            k[failed] = 0.0
            error[failed] = 1.0
            a[:, : i - 1] = prev - k[:, None] * prev[:, ::-1]
            a[:, i - 1] = k
    return a, error, status


def _lp_spectra_db(coefficients: np.ndarray, gains: np.ndarray, fft_size: int) -> np.ndarray:
    """10*log10(gain / |A(e^jw)|^2) per row, one rfft over the batch."""
    poly = np.empty((coefficients.shape[0], coefficients.shape[1] + 1))
    poly[:, 0] = 1.0
    poly[:, 1:] = -coefficients
    denom = np.abs(np.fft.rfft(poly, fft_size, axis=1)) ** 2
    return 10.0 * np.log10(gains[:, None] / denom)


def _band_bins(width: int, fft_size: int, rate: int, config: NasalConfig) -> tuple[int, int, int]:
    """(first and last bin of the band, prominence span in bins) in spectra
    of width bins; ConfigError when the band holds no bin."""
    # Clipped before rounding, so an edge of any size past the spectrum is its end.
    lo = max(int(np.ceil(min(config.band_low_hz * fft_size / rate, width))), 0)
    hi = int(np.floor(min(config.band_high_hz * fft_size / rate, width - 1)))
    if lo > hi:
        raise ConfigError(
            f"nasal band {config.band_low_hz}-{config.band_high_hz} Hz with fft_size {fft_size} "
            f"at {rate} Hz: search band contains no FFT bins at this resolution"
        )
    # A span past the spectrum's width finds the same minima as the width.
    span = max(1, round(min(config.prominence_span_hz * fft_size / rate, width)))
    return lo, hi, span


def _band_peaks(
    db: np.ndarray, band: tuple[int, int, int], prominence_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """(peak bin, detected) for every row of db; see find_band_peak."""
    lo, hi, span = band
    width = db.shape[1]
    p = lo + np.argmax(db[:, lo : hi + 1], axis=1)
    # Windows run from the peak outwards, clipped to the spectrum: a clipped
    # index repeats an end bin already in its window, so no minimum changes.
    steps = np.arange(span + 1)
    left = np.take_along_axis(db, np.maximum(p[:, None] - steps, 0), axis=1)
    right = np.take_along_axis(db, np.minimum(p[:, None] + steps, width - 1), axis=1)
    top = left[:, 0]
    local_max = ((p == 0) | (top >= left[:, 1])) & ((p == width - 1) | (top >= right[:, 1]))
    prominence = top - np.maximum(left.min(axis=1), right.min(axis=1))
    return p, local_max & (prominence >= prominence_db)


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
    return _autocorrelations(x[None, :], max_lag)[0]


def levinson_durbin(autocorr: np.ndarray, order: int) -> LpcFrame:
    """Solve the LP normal equations by the Levinson-Durbin recursion.

    Returns prediction coefficients a_1..a_order and the final prediction
    error power. Raises DegenerateFrame when r[0] <= 0 (digital silence)
    and UnstableFrame when the error hits zero or below, which happens for
    invalid autocorrelation sequences.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.ndim != 1 or r.size < order + 1:
        raise ValueError(f"need at least order+1={order + 1} autocorrelation lags")
    if order < 1:
        raise ValueError("order must be at least 1")
    a, error, status = _levinson_batch(r[None, : order + 1], order)
    if status[0] == LP_DEGENERATE:
        raise DegenerateFrame(f"frame energy {r[0]!r} is not positive")
    if status[0] == LP_UNSTABLE:
        raise UnstableFrame("prediction error vanished before the final order")
    return LpcFrame(a[0], float(error[0]), order)


def lp_spectrum(lpc: LpcFrame, fft_size: int, sample_rate: int) -> np.ndarray:
    """LP power spectrum in dB over fft_size//2 + 1 uniform bins.

    10*log10(gain / |1 - sum_k a_k e^{-j w k}|^2); finite everywhere for
    stable frames since A(z) then has no zeros on the unit circle.
    """
    NasalConfig(lpc_order=lpc.order, fft_size=fft_size)  # fft_size: a power of two > order
    return _lp_spectra_db(lpc.coefficients[None, :], np.array([lpc.gain]), fft_size)[0]


def spectrum_frequencies(fft_size: int, sample_rate: int) -> np.ndarray:
    return np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)


def find_band_peak(
    db: np.ndarray, fft_size: int, sample_rate: int, config: NasalConfig
) -> tuple[float, float, bool]:
    """(frequency_hz, magnitude_db, detected) of the in-band spectral maximum.

    The flag requires the band maximum to be a local maximum of the full
    spectrum and to rise by at least prominence_db above the spectral
    minimum within prominence_span_hz on each side. Measuring against the
    span minima rather than the nearest dip keeps the gate stable when
    high-order LP fits add small wiggles around a real resonance.
    """
    db = np.asarray(db, dtype=np.float64)
    band = _band_bins(db.size, fft_size, sample_rate, config)
    p, detected = _band_peaks(db[None, :], band, config.prominence_db)
    p = int(p[0])
    return p * sample_rate / fft_size, float(db[p]), bool(detected[0])


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty finite vector, bit for bit. np.median
    imports numpy.ma on first use, about 40 ms of a one-shot CLI process."""
    s = np.sort(values)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def _lp_analysis(
    signal: AudioSignal, config: NasalConfig
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[slice, np.ndarray]]]:
    """(frames per LP status, indices of analyzable frames, their LP spectra
    in dB as (rows of the indices, spectra) blocks of at most
    SPECTRUM_BLOCK_BINS values, each made when the iterator reaches it).

    The counts are indexed by LP_OK, LP_DEGENERATE and LP_UNSTABLE; the
    indices keep their place in the frame sequence. ConfigError, on any
    audio, unless lpc_order is below the frame's sample count.
    """
    if (length := config.frame_samples(signal.sample_rate)) <= config.lpc_order:
        raise ConfigError(f"lpc_order {config.lpc_order} must be below a frame's {length} samples")
    # No pre-emphasis here: the low band under scrutiny is exactly what
    # pre-emphasis would attenuate.
    frames = frame_signal(signal, config)
    r = _autocorrelations(frames, config.lpc_order)
    coefficients, gains, status = _levinson_batch(r, config.lpc_order)
    ok = np.flatnonzero(status == LP_OK)
    coefficients, gains = coefficients[ok], gains[ok]
    step = max(1, SPECTRUM_BLOCK_BINS // (config.fft_size // 2 + 1))
    rows = (slice(start, start + step) for start in range(0, ok.size, step))
    blocks = ((at, _lp_spectra_db(coefficients[at], gains[at], config.fft_size)) for at in rows)
    return np.bincount(status, minlength=LP_UNSTABLE + 1), ok, blocks


def segment_lp_spectra(
    signal: AudioSignal, config: NasalConfig | None = None
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """(frequencies, [(frame_index, spectrum_db), ...]), gathered from the
    blocks that analyze_segment searches.

    Degenerate or unstable frames are skipped; indices keep their place in
    the original frame sequence.
    """
    config = config or NasalConfig()
    _, indices, blocks = _lp_analysis(signal, config)
    spectra = [pair for rows, block in blocks for pair in zip(indices[rows].tolist(), block)]
    return spectrum_frequencies(config.fft_size, signal.sample_rate), spectra


def analyze_segment(
    signal: AudioSignal, config: NasalConfig | None = None, dump: TextIO | None = None
) -> NasalizationReport:
    """Frame-by-frame low-band peak analysis of one segment.

    dump, when given, gets each analyzed frame's LP spectrum as it is made,
    the spectra segment_lp_spectra returns: a "# frame N" line, one
    "frequency dB" line per bin at full float precision (repr), a blank line.
    """
    config = config or NasalConfig()
    rate = signal.sample_rate
    band = _band_bins(config.fft_size // 2 + 1, config.fft_size, rate, config)
    by_status, indices, blocks = _lp_analysis(signal, config)
    num_frames = int(by_status.sum())
    degenerate, unstable = by_status[[LP_DEGENERATE, LP_UNSTABLE]].tolist()
    if indices.size == 0:
        return NasalizationReport([], num_frames, 0, degenerate, unstable, None, None, 0.0)
    bins = np.empty(indices.size, dtype=np.intp)
    hits = np.empty(indices.size, dtype=bool)
    peak_db = np.empty(indices.size)
    if dump is not None:
        freqs = spectrum_frequencies(config.fft_size, rate).tolist()
        template = "# frame %d\n" + "".join(f"{f!r} %r\n" for f in freqs) + "\n"
    for rows, spectra in blocks:
        bins[rows], hits[rows] = _band_peaks(spectra, band, config.prominence_db)
        peak_db[rows] = spectra[np.arange(spectra.shape[0]), bins[rows]]
        if dump is not None:
            for index, db in zip(indices[rows].tolist(), spectra):
                dump.write(template % (index, *db.tolist()))
    peak_hz = bins * rate / config.fft_size
    frame_peaks = [
        FramePeak(*peak)
        for peak in zip(indices.tolist(), peak_hz.tolist(), peak_db.tolist(), hits.tolist())
    ]
    return NasalizationReport(
        frame_peaks,
        num_frames,
        len(frame_peaks),
        degenerate,
        unstable,
        _median(peak_hz),
        _median(peak_db),
        int(hits.sum()) / len(frame_peaks),
    )


def compare_degree(
    lt_report: NasalizationReport, ct_report: NasalizationReport
) -> DegreeComparison:
    """Compare nasalization strength of an LT and a CT rendition.

    difference_db is CT median minus LT median; verdicts within
    COMPARABLE_MARGIN_DB come back as comparable (stronger is None).
    """
    if lt_report.median_peak_db is None:
        raise EmptyReportError("LT report has no analyzed frames")
    if ct_report.median_peak_db is None:
        raise EmptyReportError("CT report has no analyzed frames")
    difference = ct_report.median_peak_db - lt_report.median_peak_db
    if difference > COMPARABLE_MARGIN_DB:
        stronger = DialectLabel.CT
    elif difference < -COMPARABLE_MARGIN_DB:
        stronger = DialectLabel.LT
    else:
        stronger = None
    return DegreeComparison(stronger, difference)
