"""39-dimensional MFCC front end.

Pipeline: pre-emphasis -> 25 ms / 10 ms Hamming frames -> power spectrum
(rfft, zero-padded) -> 26-filter mel log-energies -> orthonormal DCT-II
keeping c0..c12 -> regression deltas and double deltas -> per-utterance
cepstral mean subtraction. Input audio must already be at the canonical
16 kHz rate; nothing here resamples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FeatureFileError,
    SampleRateMismatch,
    SignalTooShort,
    require_finite_fields,
)
from .fileio import atomic_open, read_container, write_container

CANONICAL_SAMPLE_RATE = 16000

# Filterbank energies are floored before the log so silent frames stay finite.
ENERGY_FLOOR = 1e-10

FEATURE_MAGIC = b"MFCC"
FEATURE_VERSION = 1

# Largest accepted fft_size, 4 s at 16 kHz: far above any speech analysis
# window. The filterbank and each frame's spectrum grow with fft_size, so a
# larger one buys no resolution that is used and can exhaust memory.
MAX_FFT_SIZE = 2**16

# Largest accepted delta_window: the regression takes one pass per unit of it.
MAX_DELTA_WINDOW = 100

# Largest accepted num_mel_filters, and so num_cepstra, far above the 20-40
# of speech front ends. The filterbank holds num_mel_filters x (fft_size // 2
# + 1) values and the DCT basis num_cepstra x num_mel_filters: at most 67 MB
# and 0.5 MB here, against 8 GiB each for 32769 filters at MAX_FFT_SIZE.
MAX_MEL_FILTERS = 256


@dataclass(eq=False)
class AudioSignal:
    """Mono audio: float64 samples (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional array")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = int(self.sample_rate)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


class Framing:
    """Checks and sample lengths of the framing fields, for a config dataclass
    declaring frame_length_ms, frame_shift_ms and fft_size (MFCC and nasal)."""

    def __post_init__(self):
        require_finite_fields(self)
        if self.frame_length_ms <= 0 or self.frame_shift_ms <= 0:
            raise ValueError("frame length and shift must be positive")
        if self.frame_shift_ms > self.frame_length_ms:
            raise ValueError("frame shift must not exceed frame length")
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if self.fft_size > MAX_FFT_SIZE:
            raise ValueError(f"fft_size must be at most {MAX_FFT_SIZE}")

    def frame_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_length_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_shift_ms * sample_rate / 1000.0))


@dataclass(frozen=True)
class MfccConfig(Framing):
    """Frozen front-end parameters (mel_filterbank caches on them) for 16 kHz speech.

    frame_length_ms / frame_shift_ms: analysis window and hop.
    preemphasis_coeff: first-order high-pass coefficient in [0, 1).
    num_mel_filters: triangular filters between low_freq_hz and high_freq_hz,
    1..MAX_MEL_FILTERS.
    fft_size: power of two, at least one 16 kHz frame long.
    num_cepstra: cepstra kept per frame (c0 included), 1..num_mel_filters.
    delta_window: regression half-width for velocity/acceleration, 1..MAX_DELTA_WINDOW.
    """

    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    preemphasis_coeff: float = 0.97
    num_mel_filters: int = 26
    fft_size: int = 512
    num_cepstra: int = 13
    delta_window: int = 2
    low_freq_hz: float = 20.0
    high_freq_hz: float = 7600.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.preemphasis_coeff < 1.0:
            raise ValueError("preemphasis_coeff must lie in [0, 1)")
        if self.num_mel_filters < 1:
            raise ValueError("need at least one mel filter")
        if self.num_mel_filters > self.fft_size // 2 + 1:
            raise ValueError("num_mel_filters exceeds the fft_size // 2 + 1 FFT bins")
        if not 1 <= self.num_cepstra <= self.num_mel_filters:
            raise ValueError("num_cepstra must be in [1, num_mel_filters]")
        if not 1 <= self.delta_window <= MAX_DELTA_WINDOW:
            raise ValueError(f"delta_window must be in [1, {MAX_DELTA_WINDOW}]")
        if not 0.0 <= self.low_freq_hz < self.high_freq_hz:
            raise ValueError("need 0 <= low_freq_hz < high_freq_hz")
        if self.frame_samples(CANONICAL_SAMPLE_RATE) > self.fft_size:
            raise ValueError("fft_size is shorter than one 16 kHz frame")
        if self.high_freq_hz > CANONICAL_SAMPLE_RATE / 2:
            raise ValueError("high_freq_hz exceeds 8000 Hz, the Nyquist frequency at 16 kHz")
        # Last, so that a value rejected for another reason keeps that reason.
        if self.num_mel_filters > MAX_MEL_FILTERS:
            raise ValueError(f"num_mel_filters must be at most {MAX_MEL_FILTERS}")


def preemphasize(signal: AudioSignal, coeff: float) -> AudioSignal:
    """First-order pre-emphasis: y[0] = x[0], y[n] = x[n] - coeff * x[n-1]."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError("preemphasis coefficient must lie in [0, 1)")
    x = signal.samples
    if x.size == 0:
        return AudioSignal(x.copy(), signal.sample_rate)
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - coeff * x[:-1]
    return AudioSignal(y, signal.sample_rate)


def frame_signal(signal: AudioSignal, config: Framing) -> np.ndarray:
    """Slice a signal into overlapping Hamming-windowed frames.

    Returns an array of shape (num_frames, frame_samples) where
    num_frames = floor((N - L) / H) + 1. Trailing samples that do not fill
    a whole frame are dropped. Raises SignalTooShort when N < L and
    ConfigError when L or H rounds to zero samples at the signal's rate.
    """
    length = config.frame_samples(signal.sample_rate)
    hop = config.hop_samples(signal.sample_rate)
    if min(length, hop) < 1:  # H <= L, so H is the one to name
        raise ConfigError(f"frame shift {config.frame_shift_ms} ms is under one sample at "
                          f"{signal.sample_rate} Hz")
    n = signal.samples.size
    if n < length:
        raise SignalTooShort(
            f"signal has {n} samples, need at least {length} for one frame"
        )
    frames = np.lib.stride_tricks.sliding_window_view(signal.samples, length)[::hop]
    return frames * np.hamming(length)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(config: MfccConfig) -> np.ndarray:
    """Triangular mel filterbank at 16 kHz, shape (num_mel_filters, fft_size//2 + 1).

    Centers are uniformly spaced on the mel scale between low_freq_hz and
    high_freq_hz and snapped to FFT bins; each filter peaks at weight 1.0
    on its center bin. Each bank is built once per config and the same
    read-only array is returned to every caller.
    """
    nfilt, nfft, high_hz = config.num_mel_filters, config.fft_size, config.high_freq_hz
    mel_pts = np.linspace(hz_to_mel(config.low_freq_hz), hz_to_mel(high_hz), nfilt + 2)
    bins = np.floor((nfft + 1) * mel_to_hz(mel_pts) / CANONICAL_SAMPLE_RATE).astype(int)
    fbank = np.zeros((nfilt, nfft // 2 + 1))
    for j in range(nfilt):
        lo, center, hi = bins[j], bins[j + 1], bins[j + 2]
        for i in range(lo, center):
            fbank[j, i] = (i - lo) / (center - lo)
        for i in range(center, hi):
            fbank[j, i] = (hi - i) / (hi - center)
        # Guarantees the unit peak even when neighboring edges collapse
        # onto the same bin at coarse FFT resolutions.
        fbank[j, center] = 1.0
    fbank.flags.writeable = False
    return fbank


@functools.lru_cache(maxsize=16)
def _dct_basis(n: int, keep: int) -> np.ndarray:
    """Orthonormal DCT-II basis, shape (n, keep), read-only.

    x @ _dct_basis(n, keep) gives the first `keep` orthonormal DCT-II
    coefficients of each row of x (length n): column k is
    s_k cos(pi k (2i + 1) / 2n), with s_0 = sqrt(1/n) and s_k = sqrt(2/n).
    """
    k = np.arange(keep)
    basis = np.cos(np.pi * np.outer(2 * np.arange(n) + 1, k) / (2 * n))
    basis *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    basis.flags.writeable = False
    return basis


def mel_filterbank_energies(power_spectrum: np.ndarray, config: MfccConfig) -> np.ndarray:
    """Log mel-filterbank energies of a power spectrum.

    Accepts a single spectrum of length fft_size//2 + 1 or a batch of them
    (frames along axis 0). Each output is ln(max(energy, ENERGY_FLOOR)).
    """
    ps = np.asarray(power_spectrum, dtype=np.float64)
    expected = config.fft_size // 2 + 1
    if ps.shape[-1] != expected:
        raise ValueError(
            f"power spectrum has {ps.shape[-1]} bins, expected {expected}"
        )
    fbank = mel_filterbank(config)
    energies = ps @ fbank.T
    return np.log(np.maximum(energies, ENERGY_FLOOR))


def extract_mfcc13(signal: AudioSignal, config: MfccConfig | None = None) -> np.ndarray:
    """Static cepstra c0..c(num_cepstra-1) per frame, shape (T, num_cepstra).

    Rejects any sample rate other than the canonical 16 kHz: resampling is
    out of scope and silently accepting other rates would shift the
    filterbank.
    """
    config = config or MfccConfig()
    if signal.sample_rate != CANONICAL_SAMPLE_RATE:
        raise SampleRateMismatch(
            f"got {signal.sample_rate} Hz audio, require {CANONICAL_SAMPLE_RATE} Hz"
        )
    emphasized = preemphasize(signal, config.preemphasis_coeff)
    frames = frame_signal(emphasized, config)
    spectrum = np.fft.rfft(frames, n=config.fft_size, axis=1)
    power = np.abs(spectrum) ** 2
    log_mel = mel_filterbank_energies(power, config)
    return log_mel @ _dct_basis(config.num_mel_filters, config.num_cepstra)


def _regression_delta(x: np.ndarray, window: int) -> np.ndarray:
    # delta[t] = sum_d d * (x[t+d] - x[t-d]) / (2 * sum_d d^2), indices
    # clamped to the matrix edges (first/last frame replication).
    t = x.shape[0]
    denom = 2.0 * sum(d * d for d in range(1, window + 1))
    padded = np.pad(x, ((window, window), (0, 0)), mode="edge")
    out = np.zeros_like(x)
    for d in range(1, window + 1):
        out += d * (padded[window + d : window + d + t] - padded[window - d : window - d + t])
    return out / denom


def append_deltas(static: np.ndarray, delta_window: int = 2) -> np.ndarray:
    """Append velocity and acceleration columns: (T, D) -> (T, 3*D)."""
    x = np.asarray(static, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("static cepstra must be a non-empty 2-D matrix")
    if delta_window < 1:
        raise ValueError("delta_window must be at least 1")
    velocity = _regression_delta(x, delta_window)
    acceleration = _regression_delta(velocity, delta_window)
    return np.hstack([x, velocity, acceleration])


def cepstral_mean_subtract(features: np.ndarray) -> np.ndarray:
    """Subtract the per-dimension mean over the utterance from every frame."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise ValueError("feature matrix must be a non-empty 2-D matrix")
    return f - f.mean(axis=0, keepdims=True)


def extract_features(signal: AudioSignal, config: MfccConfig | None = None) -> np.ndarray:
    """Full front end: static cepstra + deltas + CMS, shape (T, 3*num_cepstra)."""
    config = config or MfccConfig()
    static = extract_mfcc13(signal, config)
    return cepstral_mean_subtract(append_deltas(static, config.delta_window))


def extract_segment(signal: AudioSignal, start_s: float, end_s: float) -> AudioSignal:
    """Slice [start_s, end_s) out of a signal, clipped to its bounds."""
    if not 0.0 <= start_s < end_s:
        raise ValueError("need 0 <= start_s < end_s")
    # Clipped before rounding, so a bound of any size past the end is the end.
    size = signal.samples.size
    lo = int(round(min(start_s * signal.sample_rate, size)))
    hi = int(round(min(end_s * signal.sample_rate, size)))
    return AudioSignal(signal.samples[lo:hi].copy(), signal.sample_rate)


def _writable(features: np.ndarray) -> np.ndarray:
    """The float64 matrix both feature writers write: non-empty, 2-D, finite."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("feature matrix must be a non-empty 2-D matrix")
    if not np.isfinite(f).all():
        raise ValueError("refusing to serialize non-finite features")
    return f


def write_features(path, features: np.ndarray) -> None:
    """Write a feature matrix: magic, version, num_frames, dim, f64-LE rows."""
    f = _writable(features)
    write_container(path, FEATURE_MAGIC, FEATURE_VERSION, f.shape, [f])


def read_features(path) -> np.ndarray:
    """Read a feature matrix written by write_features, validating the header."""
    num_frames, dim, data = read_container(path, FEATURE_MAGIC, FEATURE_VERSION,
                                           lambda t, d: t * d, FeatureFileError)
    features = data.reshape(num_frames, dim)
    if not np.isfinite(features).all():
        raise FeatureFileError(f"{path}: non-finite feature values")
    return features


def write_features_csv(path, features: np.ndarray) -> None:
    """Plain-text export, one frame per line, full float64 precision."""
    f = _writable(features)
    with atomic_open(path) as fh:
        np.savetxt(fh, f, delimiter=",", fmt="%.17g")
