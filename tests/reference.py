"""Brute-force reference implementations used as independent oracles.

Everything here is written from the textbook definitions: explicit
complex-exponential DFT, direct cosine-sum DCT, double-loop
autocorrelation, per-component Gaussian products. Slow on purpose,
shared by the unit and acceptance tests. Nothing imports the package
under test; only public config values are passed in.
"""

import math

import numpy as np
from scipy.signal import lfilter

_dft_cache = {}


def hamming_ref(n):
    return np.array([0.54 - 0.46 * math.cos(2.0 * math.pi * i / (n - 1)) for i in range(n)])


def preemphasize_ref(x, coeff):
    y = np.empty_like(np.asarray(x, dtype=np.float64))
    y[0] = x[0]
    for i in range(1, len(x)):
        y[i] = x[i] - coeff * x[i - 1]
    return y


def frame_ref(x, frame_len, hop):
    count = (len(x) - frame_len) // hop + 1
    win = hamming_ref(frame_len)
    return np.array([x[i * hop : i * hop + frame_len] * win for i in range(count)])


def power_spectrum_dft(frames, fft_size):
    """|DFT|^2 of zero-padded frames, built from exp(-2pi j k n / N)."""
    if fft_size not in _dft_cache:
        k = np.arange(fft_size // 2 + 1)
        n = np.arange(fft_size)
        _dft_cache[fft_size] = np.exp(-2j * np.pi * np.outer(k, n) / fft_size)
    basis = _dft_cache[fft_size]
    padded = np.zeros((frames.shape[0], fft_size))
    padded[:, : frames.shape[1]] = frames
    spectra = padded @ basis.T
    return np.abs(spectra) ** 2


def mel_ref(hz):
    return 2595.0 * math.log10(1.0 + hz / 700.0)


def mel_inv_ref(mel):
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def filterbank_ref(num_filters, fft_size, sample_rate, low_hz, high_hz):
    """Triangular mel filters built bin by bin."""
    edges = np.linspace(mel_ref(low_hz), mel_ref(high_hz), num_filters + 2)
    bins = [int(math.floor((fft_size + 1) * mel_inv_ref(m) / sample_rate)) for m in edges]
    bank = np.zeros((num_filters, fft_size // 2 + 1))
    for j in range(num_filters):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for b in range(left, center):
            if center > left:
                bank[j, b] = (b - left) / (center - left)
        for b in range(center, right):
            if right > center:
                bank[j, b] = (right - b) / (right - center)
        bank[j, center] = 1.0
    return bank


def dct2_ortho_ref(vec, keep):
    """Orthonormal DCT-II from the cosine sum, first `keep` terms."""
    n = len(vec)
    out = np.zeros(keep)
    for k in range(keep):
        s = 0.0
        for i in range(n):
            s += vec[i] * math.cos(math.pi * k * (2 * i + 1) / (2 * n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def mfcc13_ref(samples, sample_rate, cfg):
    """Static cepstra recomputed end to end without any FFT."""
    frame_len = int(round(cfg.frame_length_ms * sample_rate / 1000.0))
    hop = int(round(cfg.frame_shift_ms * sample_rate / 1000.0))
    x = preemphasize_ref(np.asarray(samples, dtype=np.float64), cfg.preemphasis_coeff)
    frames = frame_ref(x, frame_len, hop)
    power = power_spectrum_dft(frames, cfg.fft_size)
    bank = filterbank_ref(
        cfg.num_mel_filters, cfg.fft_size, sample_rate, cfg.low_freq_hz, cfg.high_freq_hz
    )
    logs = np.log(np.maximum(power @ bank.T, 1e-10))
    return np.array([dct2_ortho_ref(row, cfg.num_cepstra) for row in logs])


def deltas_ref(static, window):
    """Regression deltas with clamped edge indexing, one frame at a time."""
    t_count, dim = static.shape
    denom = 2.0 * sum(w * w for w in range(1, window + 1))
    out = np.zeros_like(static)
    for t in range(t_count):
        acc = np.zeros(dim)
        for w in range(1, window + 1):
            right = static[min(t + w, t_count - 1)]
            left = static[max(t - w, 0)]
            acc += w * (right - left)
        out[t] = acc / denom
    return out


def deltas_clipped_index(static, window):
    """The same deltas over whole columns, gathering x[t +- d] through index
    arrays clipped to [0, T - 1]: the vectorized formula that edge padding
    must reproduce bit for bit."""
    t_count = static.shape[0]
    denom = 2.0 * sum(d * d for d in range(1, window + 1))
    out = np.zeros_like(static)
    base = np.arange(t_count)
    for d in range(1, window + 1):
        fwd = np.clip(base + d, 0, t_count - 1)
        bwd = np.clip(base - d, 0, t_count - 1)
        out += d * (static[fwd] - static[bwd])
    return out / denom


def features39_ref(samples, sample_rate, cfg):
    """Full 39-dim chain: static + velocity + acceleration, mean removed."""
    static = mfcc13_ref(samples, sample_rate, cfg)
    vel = deltas_ref(static, cfg.delta_window)
    acc = deltas_ref(vel, cfg.delta_window)
    feats = np.hstack([static, vel, acc])
    return feats - feats.mean(axis=0)


def gmm_density_ref(weights, means, variances, x):
    """Log mixture density via direct summation in extended precision."""
    total = np.longdouble(0.0)
    for w, mu, var in zip(weights, means, variances):
        acc = np.longdouble(1.0)
        for d in range(len(x)):
            z = np.longdouble(x[d]) - np.longdouble(mu[d])
            v = np.longdouble(var[d])
            acc *= np.exp(-0.5 * z * z / v) / np.sqrt(2.0 * np.longdouble(np.pi) * v)
        total += np.longdouble(w) * acc
    return float(np.log(total))


def nearest_center_ref(data, centers):
    """Index of the nearest center per frame, one center at a time from
    sum((x - c)^2); a strictly smaller distance is needed to move, so ties
    stay with the lowest index."""
    best = np.full(data.shape[0], np.inf)
    assignment = np.zeros(data.shape[0], dtype=int)
    for j, c in enumerate(centers):
        d2 = ((data - c) ** 2).sum(axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        assignment[closer] = j
    return assignment


def lloyd_update_ref(data, assignment, k):
    """Per-cluster counts, means and variances from a mask loop over clusters.

    Empty clusters get zero means and variances.
    """
    counts = np.zeros(k, dtype=int)
    means = np.zeros((k, data.shape[1]))
    variances = np.zeros((k, data.shape[1]))
    for j in range(k):
        members = data[assignment == j]
        counts[j] = members.shape[0]
        if counts[j]:
            means[j] = members.mean(axis=0)
            variances[j] = ((members - means[j]) ** 2).mean(axis=0)
    return counts, means, variances


def em_iteration_ref(data, weights, means, variances):
    """E-step of one EM iteration from the textbook definitions.

    The log-joint log w_i + log N(x_t | mu_i, var_i) is summed one
    (component, dimension) pair at a time from (x - mu)^2 / var, never
    expanded into [x^2, x] products. Responsibilities take a second exp
    of the log-joint minus the log-sum-exp over the whole matrix, and the
    statistics are per-component weighted sums.

    Returns (frame_ll (T,), resp (T, M), occupancy (M,), first (M, D),
    second (M, D)) with first = sum_t r x and second = sum_t r x^2.
    """
    t, dim = data.shape
    m = len(weights)
    columns = np.ascontiguousarray(data.T)
    log_joint = np.empty((m, t))
    for i in range(m):
        acc = np.full(t, math.log(weights[i]))
        for d in range(dim):
            z = columns[d] - means[i, d]
            acc -= 0.5 * (z * z / variances[i, d] + math.log(2.0 * math.pi * variances[i, d]))
        log_joint[i] = acc
    peak = log_joint.max(axis=0)
    frame_ll = peak + np.log(np.exp(log_joint - peak).sum(axis=0))
    resp = np.exp(log_joint - frame_ll)
    occupancy = np.array([resp[i].sum() for i in range(m)])
    first = np.array([[(resp[i] * columns[d]).sum() for d in range(dim)] for i in range(m)])
    second = np.array(
        [[(resp[i] * columns[d] ** 2).sum() for d in range(dim)] for i in range(m)]
    )
    return frame_ll, resp.T, occupancy, first, second


def block_posteriors_plain_exp(x2, proj, const):
    """One block of the package's one-GEMM E-step kernel with a plain np.exp
    over every log-joint, however far below its frame's peak; x2 = [x^2, x]
    per frame, (proj, const) the kernel's projection and constant.

    Returns (frame_ll (B,), post (B, M), row_sum (B,)), post holding
    exp(log_joint - row max).
    """
    post = x2 @ proj.T
    post += const
    peak = post.max(axis=1)
    post -= peak[:, None]
    np.exp(post, out=post)
    row_sum = post.sum(axis=1)
    return peak + np.log(row_sum), post, row_sum


def accumulate_ref(x2, posteriors, block_frames):
    """The E-step's sums over frame blocks with the statistics GEMM in its
    plain form, resp.T @ block; posteriors(block) gives (frame_ll, post,
    row_sum) of one block, resp being post / row_sum.

    Returns (frame_ll (T,), occupancy (M,), [second-order, first-order]
    statistics (M, 2D)).
    """
    frame_ll, occupancy, stats = [], 0.0, 0.0
    for lo in range(0, x2.shape[0], block_frames):
        block = x2[lo : lo + block_frames]
        ll, post, row_sum = posteriors(block)
        resp = post / row_sum[:, None]
        frame_ll.append(ll)
        occupancy = occupancy + resp.sum(axis=0)
        stats = stats + resp.T @ block
    return np.concatenate(frame_ll), occupancy, stats


def autocorr_ref(x, max_lag):
    n = len(x)
    return np.array(
        [sum(x[i] * x[i + k] for i in range(n - k)) for k in range(max_lag + 1)]
    )


def levinson_ref(r, order):
    """Textbook Levinson-Durbin in Python floats, one order at a time.

    Returns (coefficients, error) or the string "degenerate" (r[0] <= 0)
    or "unstable" (the prediction error reaches zero or below).
    """
    r = [float(v) for v in r]
    if r[0] <= 0.0:
        return "degenerate"
    a = []
    error = r[0]
    for i in range(1, order + 1):
        acc = r[i] - sum(a[j] * r[i - 1 - j] for j in range(i - 1))
        k = acc / error
        a = [a[j] - k * a[i - 2 - j] for j in range(i - 1)] + [k]
        error *= 1.0 - k * k
        if error <= 0.0:
            return "unstable"
    return np.array(a), error


def band_peak_ref(db, fft_size, sample_rate, low_hz, high_hz, span_hz, prominence_db):
    """(peak bin, detected) by scanning the band and both span windows bin by bin."""
    lo = max(math.ceil(low_hz * fft_size / sample_rate), 0)
    hi = min(math.floor(high_hz * fft_size / sample_rate), len(db) - 1)
    p = lo
    for b in range(lo, hi + 1):
        if db[b] > db[p]:
            p = b
    if (p > 0 and db[p] < db[p - 1]) or (p < len(db) - 1 and db[p] < db[p + 1]):
        return p, False
    span = max(1, int(round(span_hz * fft_size / sample_rate)))
    left = min(db[b] for b in range(max(0, p - span), p + 1))
    right = min(db[b] for b in range(p, min(len(db), p + span + 1)))
    return p, db[p] - max(left, right) >= prominence_db


def lp_spectrum_ref(coeffs, gain, fft_size, sample_rate):
    """Per-bin complex evaluation of 10*log10(gain / |A(e^jw)|^2)."""
    half = fft_size // 2 + 1
    out = np.zeros(half)
    for k in range(half):
        omega = 2.0 * math.pi * k / fft_size
        a_val = 1.0 + 0j
        for i, c in enumerate(coeffs, start=1):
            a_val -= c * np.exp(-1j * omega * i)
        out[k] = 10.0 * math.log10(gain / abs(a_val) ** 2)
    return out


def two_pole(center_hz, radius, sample_rate):
    """Denominator of a conjugate-pole resonator."""
    theta = 2.0 * math.pi * center_hz / sample_rate
    return np.array([1.0, -2.0 * radius * math.cos(theta), radius * radius])


def voiced_vowel(rng, num_samples, sample_rate=16000, pole_hz=250.0, radius=0.97,
                 companion_hz=900.0, companion_radius=0.93, f0_hz=125.0,
                 noise_db=-40.0):
    """Pitch-pulse excitation through two resonators, peak-normalized.

    The pulse train keeps frame-to-frame LP estimates nearly identical,
    so low-band peak statistics reflect the poles rather than the
    excitation draw.
    """
    period = int(round(sample_rate / f0_hz))
    exc = np.zeros(num_samples + 512)
    exc[::period] = 1.0
    exc += 10.0 ** (noise_db / 20.0) * rng.standard_normal(exc.size)
    denom = np.convolve(
        two_pole(pole_hz, radius, sample_rate),
        two_pole(companion_hz, companion_radius, sample_rate),
    )
    x = lfilter([1.0], denom, exc)[512:]
    return x * (0.4 / np.abs(x).max())


def ar_noise_ref(rng, num_samples, center_hz, radius, sample_rate, peak=0.4, warmup=512):
    """White noise through lfilter's two-pole resonator, warm-up dropped,
    peak-normalized: the synthetic generator's per-segment noise."""
    drive = rng.standard_normal(num_samples + warmup)
    shaped = lfilter([1.0], two_pole(center_hz, radius, sample_rate), drive)[warmup:]
    top = np.abs(shaped).max()
    return shaped * (peak / top) if top > 0.0 else shaped


def wandering_noise_ref(rng, num_samples, center_hz, radius, sample_rate,
                        peak=0.4, wander=0.3, segment_seconds=0.15):
    """One ar_noise_ref segment per segment_seconds, each with its center
    redrawn within +/- wander, joined and peak-normalized again."""
    seg_len = max(1, int(segment_seconds * sample_rate))
    chunks = []
    got = 0
    while got < num_samples:
        seg_center = center_hz * (1.0 + rng.uniform(-wander, wander))
        take = min(seg_len, num_samples - got)
        chunks.append(ar_noise_ref(rng, take, seg_center, radius, sample_rate, peak))
        got += take
    samples = np.concatenate(chunks)
    top = np.abs(samples).max()
    return samples * (peak / top) if top > 0.0 else samples
