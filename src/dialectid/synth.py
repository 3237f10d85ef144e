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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

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


def ar_noise(
    rng: np.random.Generator,
    num_samples: int,
    center_hz: float,
    radius: float,
    sample_rate: int,
) -> np.ndarray:
    """Band-limited noise: white noise through a resonator, peak-normalized."""
    warmup = 512
    drive = rng.standard_normal(num_samples + warmup)
    shaped = lfilter([1.0], resonator_poly(center_hz, radius, sample_rate), drive)
    shaped = shaped[warmup:]
    top = np.abs(shaped).max()
    if top > 0.0:
        shaped = shaped * (PEAK / top)
    return shaped


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
    seg_len = max(1, int(SEGMENT_SECONDS * sample_rate))
    chunks = []
    got = 0
    while got < num_samples:
        seg_center = center_hz * (1.0 + rng.uniform(-WANDER, WANDER))
        take = min(seg_len, num_samples - got)
        chunks.append(ar_noise(rng, take, seg_center, radius, sample_rate))
        got += take
    samples = np.concatenate(chunks)
    top = np.abs(samples).max()
    if top > 0.0:
        samples = samples * (PEAK / top)
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

    records = []
    declared: dict = {"seed": seed, "cells": {}}
    for dialect in DialectLabel:
        for split in Split:
            total = counts[split]
            num_speakers = math.ceil(total / utterances_per_speaker)
            cell_speakers = []
            made = 0
            for s in range(num_speakers):
                speaker = f"{dialect.value.lower()}-{split.value}-s{s:03d}"
                gender = Gender.MALE if s % 2 == 0 else Gender.FEMALE
                # Small per-speaker shift keeps speakers distinct without
                # moving either class out of its band.
                offset = float(rng.uniform(-0.05, 0.05)) * CENTER_HZ[dialect]
                cell_speakers.append((speaker, gender))
                for u in range(utterances_per_speaker):
                    if made >= total:
                        break
                    samples = wandering_noise(
                        rng, num_samples, CENTER_HZ[dialect] + offset, RADIUS, rate
                    )
                    name = f"{speaker}-u{u:02d}.wav"
                    path = os.path.join(wav_dir, name)
                    write_wav(path, AudioSignal(samples, rate))
                    records.append(
                        UtteranceRecord(path, speaker, dialect, gender, split)
                    )
                    made += 1
            declared["cells"][f"{dialect.value}/{split.value}"] = {
                "utterances": total,
                "duration_hours": total * num_samples / rate / 3600.0,
                "speakers": len(cell_speakers),
                "male_speakers": sum(1 for _, g in cell_speakers if g is Gender.MALE),
                "female_speakers": sum(
                    1 for _, g in cell_speakers if g is Gender.FEMALE
                ),
            }

    manifest = CorpusManifest(records)
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, manifest_path)
    gt_path = os.path.join(out_dir, GROUND_TRUTH_NAME)
    with atomic_open(gt_path) as fh:
        json.dump(declared, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return SynthResult(out_dir, manifest_path, gt_path, manifest, declared)
