"""Corpus manifests, WAV reading, split validation, and corpus statistics.

A manifest is a UTF-8 tab-separated file, one utterance per line:

    audio_path<TAB>speaker_id<TAB>dialect<TAB>gender<TAB>split[<TAB>start_s<TAB>end_s]

dialect is LT or CT, gender is male/female/unspecified, split is train/test,
and the optional trailing pair marks a segment of interest in seconds.
Lines starting with '#' and blank lines are ignored. Relative audio paths
are resolved against the manifest's own directory.

Audio must be RIFF WAV, PCM, 16-bit, mono, 16 kHz. Anything else is
rejected outright; there is no resampling or downmixing.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dsp import CANONICAL_SAMPLE_RATE, AudioSignal
from .errors import AudioFormatError, ManifestError, SampleRateMismatch
from .fileio import atomic_open
from .labels import DialectLabel


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"
    UNSPECIFIED = "unspecified"


class Split(str, Enum):
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True)
class UtteranceRecord:
    audio_path: str
    speaker_id: str
    dialect: DialectLabel
    gender: Gender
    split: Split
    segment: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.audio_path:
            raise ValueError("audio_path must be non-empty")
        if "\0" in self.audio_path:
            raise ValueError("audio_path contains a NUL byte")
        if not self.speaker_id:
            raise ValueError("speaker_id must be non-empty")
        if self.segment is not None:
            start, end = self.segment
            if not 0.0 <= start < end:
                raise ValueError(f"bad segment ({start}, {end}): need 0 <= start < end")


@dataclass
class CorpusManifest:
    records: list[UtteranceRecord]

    def __post_init__(self):
        seen: set[str] = set()
        for rec in self.records:
            if rec.audio_path in seen:
                raise ManifestError(f"duplicate audio_path: {rec.audio_path}")
            seen.add(rec.audio_path)

    def subset(self, dialect: DialectLabel | None = None, split: Split | None = None):
        out = [
            r
            for r in self.records
            if (dialect is None or r.dialect is dialect)
            and (split is None or r.split is split)
        ]
        return out


def _parse_enum(enum_cls, token: str, what: str, lineno: int):
    try:
        return enum_cls(token)
    except ValueError:
        valid = "/".join(e.value for e in enum_cls)
        raise ManifestError(
            f"line {lineno}: unknown {what} {token!r} (expected {valid})"
        ) from None


def load_manifest(path) -> CorpusManifest:
    """Parse a manifest file; errors name the offending line number."""
    base = os.path.dirname(os.path.abspath(path))
    records: list[UtteranceRecord] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: manifest is not valid UTF-8 ({exc})") from None
    # Universal newlines: \r\n and lone \r arrive as \n.
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (5, 7):
            raise ManifestError(
                f"line {lineno}: expected 5 or 7 tab-separated fields, "
                f"got {len(parts)}"
            )
        audio_path = parts[0].strip()
        if not audio_path:
            raise ManifestError(f"line {lineno}: empty audio_path")
        if not os.path.isabs(audio_path):
            audio_path = os.path.normpath(os.path.join(base, audio_path))
        dialect = _parse_enum(DialectLabel, parts[2].strip(), "dialect", lineno)
        gender = _parse_enum(Gender, parts[3].strip(), "gender", lineno)
        split = _parse_enum(Split, parts[4].strip(), "split", lineno)
        segment = None
        if len(parts) == 7:
            try:
                segment = (float(parts[5]), float(parts[6]))
            except ValueError:
                raise ManifestError(
                    f"line {lineno}: segment bounds must be numbers"
                ) from None
        try:
            rec = UtteranceRecord(audio_path, parts[1].strip(), dialect, gender, split, segment)
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from None
        records.append(rec)
    try:
        return CorpusManifest(records)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def write_manifest(manifest: CorpusManifest, path) -> None:
    """Write a manifest that load_manifest reads back to equal records."""
    lines = []
    for r in manifest.records:
        fields = [r.audio_path, r.speaker_id, r.dialect.value, r.gender.value, r.split.value]
        if r.segment is not None:
            fields += [repr(r.segment[0]), repr(r.segment[1])]
        lines.append("\t".join(fields))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def _open_wav(path) -> wave.Wave_read:
    """wave.open(path, "rb"), any header it cannot parse an AudioFormatError."""
    try:
        return wave.open(str(path), "rb")
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: not a readable PCM WAV file ({exc})") from None
    except (EOFError, RuntimeError):
        # The wave module raises RuntimeError for a chunk that claims more
        # bytes than the file holds.
        raise AudioFormatError(f"{path}: truncated WAV file") from None


def read_audio(path) -> AudioSignal:
    """Read a 16-bit PCM mono 16 kHz WAV file into [-1, 1) float samples."""
    with _open_wav(path) as wf:
        if wf.getcomptype() != "NONE":
            raise AudioFormatError(f"{path}: compressed WAV is not supported")
        if wf.getnchannels() != 1:
            raise AudioFormatError(
                f"{path}: {wf.getnchannels()} channels, expected mono (no downmixing)"
            )
        if wf.getsampwidth() != 2:
            raise AudioFormatError(
                f"{path}: {8 * wf.getsampwidth()}-bit samples, expected 16-bit PCM"
            )
        rate = wf.getframerate()
        if rate != CANONICAL_SAMPLE_RATE:
            raise SampleRateMismatch(
                f"{path}: {rate} Hz, require {CANONICAL_SAMPLE_RATE} Hz (no resampling)"
            )
        raw = wf.readframes(wf.getnframes())
    if len(raw) % 2:
        raise AudioFormatError(f"{path}: truncated WAV file (partial last sample)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioSignal(samples, rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write mono 16-bit PCM. Samples are clipped to the int16 range."""
    scaled = np.clip(np.rint(signal.samples * 32768.0), -32768, 32767)
    with atomic_open(path, "wb") as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(scaled.astype("<i2").tobytes())


def audio_duration_s(path) -> float:
    """Duration from the WAV header alone; cheap enough for whole corpora."""
    with _open_wav(path) as wf:
        rate = wf.getframerate()
        if rate <= 0:
            raise AudioFormatError(f"{path}: invalid sample rate in header")
        return wf.getnframes() / rate


@dataclass
class SplitReport:
    """Result of checking train/test speaker discipline."""

    passed: bool
    overlapping_speakers: list[str]
    missing: list[tuple[DialectLabel, Split]]
    warnings: list[str]


def validate_split(manifest: CorpusManifest) -> SplitReport:
    """Report speakers appearing in both splits plus dialect coverage gaps.

    The manifest passes only when no speaker is shared between train and
    test. Missing (dialect, split) combinations are reported but do not
    fail validation on their own.
    """
    train = {r.speaker_id for r in manifest.records if r.split is Split.TRAIN}
    test = {r.speaker_id for r in manifest.records if r.split is Split.TEST}
    overlap = sorted(train & test)

    missing = []
    for dialect in DialectLabel:
        for split in Split:
            if not manifest.subset(dialect, split):
                missing.append((dialect, split))

    warnings = []
    if not test:
        warnings.append("no test data")
    if not train:
        warnings.append("no train data")
    for dialect, split in missing:
        if (split is Split.TEST and test) or (split is Split.TRAIN and train):
            warnings.append(f"no {dialect.value} {split.value} data")
    return SplitReport(not overlap, overlap, missing, warnings)


def _stats_record(
    dialect: DialectLabel, split: str, records: list[UtteranceRecord], durations: dict
) -> dict:
    """The report record of one cell; split "all" is the dialect's total."""
    hours = 0.0
    unreadable = []
    speakers: dict[str, set[Gender]] = {}
    for r in records:
        d = durations[r.audio_path]
        if d is None:
            unreadable.append(r.audio_path)
        else:
            hours += d / 3600.0
        speakers.setdefault(r.speaker_id, set()).add(r.gender)
    return {
        "dialect": dialect.value,
        "split": split,
        "utterances": len(records),
        "duration_hours": hours,
        "duration_hms": hours_to_hms(hours),
        "speakers": len(speakers),
        "male_speakers": sum(1 for g in speakers.values() if Gender.MALE in g),
        "female_speakers": sum(1 for g in speakers.values() if Gender.FEMALE in g),
        "partial": bool(unreadable),
        "unreadable": sorted(unreadable),
    }


def corpus_stats(manifest: CorpusManifest) -> list[dict]:
    """The stats report: header-derived durations and speaker counts, one
    record per (dialect, split) cell, then one per dialect total. Unreadable
    files are listed in their records rather than aborting the whole scan."""
    durations: dict[str, float | None] = {}
    for r in manifest.records:
        if r.audio_path not in durations:
            try:
                durations[r.audio_path] = audio_duration_s(r.audio_path)
            except (AudioFormatError, OSError):
                durations[r.audio_path] = None
    cells = [(d, s.value, manifest.subset(d, s)) for d in DialectLabel for s in Split]
    totals = [(d, "all", manifest.subset(d)) for d in DialectLabel]
    return [_stats_record(*cell, durations) for cell in cells + totals]


def hours_to_hms(hours: float) -> str:
    total = int(round(hours * 3600.0))
    return f"{total // 3600}:{(total % 3600) // 60:02d}:{total % 60:02d}"


_STATS_ROWS = (
    ("hours", lambda r: f"{r['duration_hours']:.2f}"),
    ("h:mm:ss", lambda r: r["duration_hms"]),
    ("utterances", lambda r: str(r["utterances"])),
    ("speakers", lambda r: str(r["speakers"])),
    ("male spk", lambda r: str(r["male_speakers"])),
    ("female spk", lambda r: str(r["female_speakers"])),
    ("partial", lambda r: "yes" if r["partial"] else "no"),
)


def format_stats(records: list[dict]) -> str:
    """Aligned text tables of corpus_stats records: per-dialect totals, then
    the split breakdown."""
    cells = {(r["dialect"], r["split"]): r for r in records}
    dialects = [d.value for d in DialectLabel]
    header = "".join(f"{d:>12}" for d in dialects)

    def row(label: str, fmt, split: str) -> str:
        return f"  {label}" + "".join(f"{fmt(cells[(d, split)]):>12}" for d in dialects)

    out = ["Corpus totals", f"  {'metric':<18}{header}"]
    out += [row(f"{name:<18}", fmt, "all") for name, fmt in _STATS_ROWS]
    out += ["", "Split breakdown", f"  {'metric':<18}{'split':<8}{header}"]
    for split in Split:
        out += [row(f"{name:<18}{split.value:<8}", fmt, split.value) for name, fmt in _STATS_ROWS]
    return "\n".join(out)
