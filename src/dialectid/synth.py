"""Seeded synthetic two-dialect corpus generator.

Each "dialect" is band-limited noise: white noise shaped by a two-pole
resonator, LT centered near 500 Hz and CT near 3000 Hz. The
resonator center drifts between short segments within each utterance, so
mean-normalized features still carry class information in their
frame-to-frame variation. Each synthetic speaker gets a small seeded
frequency offset so speakers differ while classes stay far apart. Train
and test speaker ids never overlap. The generator writes WAV files, a
manifest, and a ground-truth JSON with the declared per-cell totals so
corpus statistics can be verified against what was actually generated.

The resonator is numpy's, not scipy's: _resonate steps many drives side by
side as the rows of one buffer, computing y[k] = x[k] - (a1*y[k-1] +
a2*y[k-2]) one time step at a time. That is lfilter([1], [1, a1, a2], x)'s
own arithmetic, so each row equals lfilter's output bit for bit. A step
costs a few microseconds however many rows it carries, so the generator
draws its segments in rng order into a buffer of at most BATCH_SEGMENTS
rows and filters, normalizes and writes one batch at a time; memory
depends on the batch, not the corpus size.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .corpus import CorpusManifest, Gender, Split, UtteranceRecord, write_manifest, write_wav
from .dsp import CANONICAL_SAMPLE_RATE, AudioSignal
from .fileio import atomic_open
from .labels import DialectLabel

GROUND_TRUTH_NAME = "ground_truth.json"

CENTER_HZ = {DialectLabel.LT: 500.0, DialectLabel.CT: 3000.0}
RADIUS = 0.9
PEAK = 0.4  # peak amplitude of every generated signal
WANDER = 0.3
SEGMENT_SECONDS = 0.15
WARMUP = 512  # drive samples run through the resonator and dropped per segment
BATCH_SEGMENTS = 1024  # segment rows filtered side by side: ~24 MB at 16 kHz
STEP_BLOCK = 32  # time steps of a batch held time-major at once


@dataclass
class SynthResult:
    out_dir: str
    manifest_path: str
    ground_truth_path: str
    manifest: CorpusManifest
    declared: dict


def resonator_poly(center_hz: float, radius: float, sample_rate: int) -> np.ndarray:
    """Denominator [1, -2r cos(theta), r^2] of a two-pole resonator."""
    theta = 2.0 * math.pi * center_hz / sample_rate
    return np.array([1.0, -2.0 * radius * math.cos(theta), radius * radius])


def _resonate(buf: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> None:
    """Run the two-pole recursion along every row of buf, in place.

    Columns 0 and 1 hold each row's outputs before its first sample (zeros
    for a fresh start). Each later column k becomes
    buf[:, k] - (a1 * buf[:, k-1] + a2 * buf[:, k-2]), with one a1 and a2
    per row: lfilter([1], [1, a1, a2], x)'s own evaluation order.
    STEP_BLOCK columns at a time are copied into a time-major scratch, so
    that each step reads and writes contiguous memory.
    """
    coef = np.stack([a2, a1])
    prod = np.empty_like(coef)
    acc = np.empty_like(a1)
    cols = np.empty((STEP_BLOCK + 2, buf.shape[0]))
    cols[:2] = buf[:, :2].T
    for start in range(2, buf.shape[1], STEP_BLOCK):
        stop = min(start + STEP_BLOCK, buf.shape[1])
        block = cols[: 2 + stop - start]
        block[2:] = buf[:, start:stop].T
        for k in range(2, block.shape[0]):
            np.multiply(coef, block[k - 2 : k], out=prod)
            np.add(prod[1], prod[0], out=acc)
            np.subtract(block[k], acc, out=block[k])
        buf[:, start:stop] = block[2:].T
        cols[:2] = block[-2:]


def ar_noise(
    rng: np.random.Generator,
    num_samples: int,
    center_hz: float,
    radius: float,
    sample_rate: int,
) -> np.ndarray:
    """Band-limited noise: white noise through a resonator, peak-normalized.

    One long drive would cost one kernel step per sample, so it is cut into
    about sqrt(n) chunks that run side by side from a zero state, next to
    the impulse response h. Each chunk then adds the response to the state
    the chunk before it ended in: u0 * h[k] + u1 * h[k-1]. The result
    matches a sample-by-sample filter to rounding, not bit for bit.
    """
    drive = rng.standard_normal(num_samples + WARMUP)
    size = drive.size
    width = math.isqrt(size - 1) + 1
    count = -(-size // width)
    buf = np.zeros((count + 1, width + 2))
    buf[:count, 2:] = np.concatenate([drive, np.zeros(count * width - size)]).reshape(count, width)
    buf[count, 2] = 1.0
    _, a1, a2 = resonator_poly(center_hz, radius, sample_rate).tolist()
    _resonate(buf, np.full(count + 1, a1), np.full(count + 1, a2))
    chunks, h = buf[:count, 2:], buf[count, 2:]
    # Carry the two end samples (y1 last, y2 the one before) chunk to chunk.
    u = np.zeros((count, 2))
    h3, h2, h1 = h[-3:].tolist()
    y1 = y2 = 0.0
    for j, (z2, z1) in enumerate(chunks[:, -2:].tolist()):
        u0, u1 = -(a1 * y1 + a2 * y2), -a2 * y1
        u[j] = u0, u1
        y1, y2 = z1 + u0 * h1 + u1 * h2, z2 + u0 * h2 + u1 * h3
    chunks += u[:, :1] * h
    chunks[:, 1:] += u[:, 1:] * h[:-1]
    shaped = chunks.reshape(-1)[WARMUP:size]
    top = np.abs(shaped).max()
    if top > 0.0:
        shaped = shaped * (PEAK / top)
    return shaped


def _wandering(
    rng: np.random.Generator,
    utterances: Iterable[tuple[float, Any]],
    count: int,
    num_samples: int,
    radius: float,
    sample_rate: int,
) -> Iterator[tuple[Any, np.ndarray]]:
    """(tag, wandering_noise(rng, num_samples, center_hz, ...)) for each
    (center_hz, tag) of the count in utterances, drawn in that order.

    Each pair is taken just before its segments are drawn, so utterances
    may draw from rng itself. Every segment's drive lands in one row of a
    buffer of at most BATCH_SEGMENTS rows; a full buffer is filtered by
    _resonate and its rows peak-normalized in one pass before the
    utterances are cut out.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    seg_len = max(1, int(SEGMENT_SECONDS * sample_rate))
    full, rest = divmod(num_samples, seg_len)
    takes = [seg_len] * full + [rest] * (rest > 0)
    rows = min(BATCH_SEGMENTS, count * len(takes))
    buf = np.zeros((rows, 2 + WARMUP + seg_len))
    a = np.empty((3, rows))
    ends: list[tuple[int, Any]] = []  # last row of each utterance in the batch
    pieces: list[np.ndarray] = []  # rows of an utterance from earlier batches

    def flush(n: int) -> Iterator[tuple[Any, np.ndarray]]:
        _resonate(buf[:n], a[1, :n], a[2, :n])
        seg = buf[:n, 2 + WARMUP :]
        if rest and ends:
            # The short last segments' columns past their end hold the
            # filter's ringing, not samples.
            seg[[end for end, _ in ends], rest:] = 0.0
        tops = np.maximum(seg.max(axis=1), -seg.min(axis=1))
        seg *= np.divide(PEAK, tops, out=np.ones(n), where=tops > 0.0)[:, None]
        start = 0
        for end, tag in ends:
            pieces.append(seg[start : end + 1])
            samples = np.concatenate(pieces).reshape(-1)[:num_samples]
            pieces.clear()
            top = np.abs(samples).max()
            if top > 0.0:
                samples = samples * (PEAK / top)
            yield tag, samples
            start = end + 1
        if start < n:
            pieces.append(seg[start:n].copy())
        ends.clear()

    n = 0
    for center_hz, tag in utterances:
        for take in takes:
            if n == rows:
                yield from flush(n)
                n = 0
            seg_center = center_hz * (1.0 + rng.uniform(-WANDER, WANDER))
            a[:, n] = resonator_poly(seg_center, radius, sample_rate)
            rng.standard_normal(out=buf[n, 2 : 2 + WARMUP + take])
            n += 1
        ends.append((n - 1, tag))
    if n:
        yield from flush(n)


def wandering_noise(
    rng: np.random.Generator,
    num_samples: int,
    center_hz: float,
    radius: float,
    sample_rate: int,
) -> np.ndarray:
    """Resonator noise whose center frequency drifts between short segments.

    A stationary resonator leaves nothing for mean-normalized features to
    separate, so the utterance is built from SEGMENT_SECONDS segments with
    the center redrawn uniformly within +/- WANDER of center_hz for each
    one. The class signature then lives in how the spectrum moves, which
    survives mean removal.
    """
    ((_, samples),) = _wandering(rng, [(center_hz, None)], 1, num_samples, radius, sample_rate)
    return samples


def generate_synthetic_corpus(
    out_dir,
    seed: int = 0,
    train_per_class: int = 40,
    test_per_class: int = 20,
    utterance_seconds: float = 2.0,
    utterances_per_speaker: int = 5,
) -> SynthResult:
    """Write a labeled synthetic corpus under out_dir.

    Deterministic for a given argument set: the same seed always produces
    byte-identical WAV files and manifest.
    """
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("need at least one utterance per class and split")
    rate = CANONICAL_SAMPLE_RATE
    num_samples = int(round(utterance_seconds * rate))
    if num_samples < 1:
        raise ValueError(f"utterance_seconds {utterance_seconds!r} gives no sample at {rate} Hz")
    if utterances_per_speaker < 1:
        raise ValueError("utterances_per_speaker must be at least 1")
    rng = np.random.default_rng(seed)

    out_dir = os.path.abspath(out_dir)
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    counts = {Split.TRAIN: train_per_class, Split.TEST: test_per_class}

    declared: dict = {"seed": seed, "cells": {}}

    def plan() -> Iterator[tuple[float, UtteranceRecord]]:
        """Each utterance's resonator center and record; draws each
        speaker's offset from rng just before its first utterance."""
        for dialect in DialectLabel:
            for split in Split:
                total = counts[split]
                num_speakers = math.ceil(total / utterances_per_speaker)
                genders = [Gender.MALE if s % 2 == 0 else Gender.FEMALE for s in range(num_speakers)]
                declared["cells"][f"{dialect.value}/{split.value}"] = {
                    "utterances": total,
                    "duration_hours": total * num_samples / rate / 3600.0,
                    "speakers": num_speakers,
                    "male_speakers": genders.count(Gender.MALE),
                    "female_speakers": genders.count(Gender.FEMALE),
                }
                for s, gender in enumerate(genders):
                    speaker = f"{dialect.value.lower()}-{split.value}-s{s:03d}"
                    # Small per-speaker shift keeps speakers distinct without
                    # moving either class out of its band.
                    offset = float(rng.uniform(-0.05, 0.05)) * CENTER_HZ[dialect]
                    for u in range(min(utterances_per_speaker, total - s * utterances_per_speaker)):
                        path = os.path.join(wav_dir, f"{speaker}-u{u:02d}.wav")
                        record = UtteranceRecord(path, speaker, dialect, gender, split)
                        yield CENTER_HZ[dialect] + offset, record

    records = []
    count = len(DialectLabel) * (train_per_class + test_per_class)
    for record, samples in _wandering(rng, plan(), count, num_samples, RADIUS, rate):
        write_wav(record.audio_path, AudioSignal(samples, rate))
        records.append(record)

    manifest = CorpusManifest(records)
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, manifest_path)
    gt_path = os.path.join(out_dir, GROUND_TRUTH_NAME)
    with atomic_open(gt_path) as fh:
        json.dump(declared, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return SynthResult(out_dir, manifest_path, gt_path, manifest, declared)
