"""Two-dialect maximum-likelihood classification.

One diagonal GMM per dialect, trained on pooled CMS-normalized feature
frames from that dialect's training utterances. A test utterance goes to
whichever model assigns it the higher total log-likelihood; an exact tie
goes to LT and is flagged. LT is the positive class for precision/recall.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import CorpusManifest, Split, UtteranceRecord, read_audio
from .dsp import AudioSignal, MfccConfig, extract_features, extract_segment
from .errors import EmptyTestSetError, DialectIdError, MissingDialectError, naming
from .fileio import atomic_open, read_bytes
from .gmm import (
    GmmModel,
    TrainConfig,
    TrainingFrames,
    em_fit,
    load_model,
    log_likelihood_segments,
    log_likelihood_sequence,
    run_pair,
    save_model,
)
from .labels import SWEEP_COMPONENTS, DialectLabel

BUNDLE_DESCRIPTOR = "bundle.json"
_LT_MODEL_NAME = "lt.gmm"
_CT_MODEL_NAME = "ct.gmm"


@dataclass(eq=False)
class ClassifierBundle:
    """Both dialect models and the configs that made them. training holds,
    per dialect value, the frames, EM iterations and final mean per-frame
    log-likelihood of the fit, or None where that is not known, as for a
    loaded bundle."""

    lt_model: GmmModel
    ct_model: GmmModel
    feature_config: MfccConfig
    train_config: TrainConfig
    training: dict[str, dict] | None = None

    def __post_init__(self):
        if self.lt_model.dim != self.ct_model.dim:
            raise ValueError("dialect models disagree on feature dimension")
        if self.lt_model.num_components != self.ct_model.num_components:
            raise ValueError("dialect models disagree on mixture size")
        if self.lt_model.dim != 3 * self.feature_config.num_cepstra:
            raise ValueError(
                f"models are {self.lt_model.dim}-dimensional but the feature "
                f"config produces {3 * self.feature_config.num_cepstra} dims"
            )


@dataclass
class Decision:
    label: DialectLabel
    lt_score: float
    ct_score: float
    tie: bool


@dataclass
class EvalReport:
    """Confusion counts with LT as the positive class, plus derived metrics,
    and decisions: each test record, in manifest order, with its Decision."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    decisions: list[tuple[UtteranceRecord, Decision]]


@dataclass
class SweepRow:
    """One sweep row. The wall-clock times are each the larger of the two
    dialects' values: seconds of fit plus scoring, train_seconds of the fit
    and score_seconds of the scoring."""

    num_components: int
    accuracy: float | None
    seconds: float
    train_seconds: float
    score_seconds: float
    error: str | None = None


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int):
    """(accuracy, precision, recall, f1) with the usual 0/0 -> 0 conventions."""
    total = tp + fp + fn + tn
    if total < 1:
        raise ValueError("empty confusion matrix")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return accuracy, precision, recall, f1_score(precision, recall)


def _record_features(rec: UtteranceRecord, feature_config: MfccConfig) -> np.ndarray:
    """Features of one manifest record, cut to its segment when it has one."""
    signal = read_audio(rec.audio_path)
    if rec.segment is not None:
        signal = extract_segment(signal, *rec.segment)
    with naming(rec.audio_path):
        return extract_features(signal, feature_config)


def _training_sides(manifest: CorpusManifest, feature_config: MfccConfig) -> tuple:
    """(LT, CT) TrainingFrames of each dialect's pooled training frames.

    run_pair extracts the two dialects' features concurrently, so a
    dialect's error comes out as it would in turn. Each side is then held
    once, as its [x^2, x] buffer built on the calling thread, and each
    dialect's features are dropped as soon as its buffer exists.
    """

    def extract(dialect: DialectLabel) -> list[np.ndarray]:
        records = manifest.subset(dialect, Split.TRAIN)
        if not records:
            raise MissingDialectError(f"no {dialect.value} training utterances in manifest")
        return [_record_features(rec, feature_config) for rec in records]

    lt_parts, ct_parts = run_pair(
        lambda: extract(DialectLabel.LT), lambda: extract(DialectLabel.CT)
    )
    lt_side = TrainingFrames.around(*lt_parts)
    del lt_parts
    return lt_side, TrainingFrames.around(*ct_parts)


def _training_record(frames: TrainingFrames, trace: list[float]) -> dict:
    """The deterministic facts of one dialect's fit that bundle.json keeps."""
    return {
        "frames": frames.shape[0],
        "em_iterations": len(trace),
        "final_log_likelihood_per_frame": trace[-1] / frames.shape[0],
    }


def train_bundle(
    train_manifest: CorpusManifest,
    feature_config: MfccConfig,
    train_config: TrainConfig,
) -> ClassifierBundle:
    """Fit one GMM per dialect on that dialect's pooled training frames.

    The two dialects' frames are extracted, then fitted, concurrently
    (run_pair, which also holds OpenBLAS at one thread); each is held once,
    as its [x^2, x] buffer (_training_sides).
    """
    lt_side, ct_side = _training_sides(train_manifest, feature_config)
    (lt_model, lt_trace), (ct_model, ct_trace) = run_pair(
        lambda: em_fit(lt_side, train_config), lambda: em_fit(ct_side, train_config)
    )
    training = {
        DialectLabel.LT.value: _training_record(lt_side, lt_trace),
        DialectLabel.CT.value: _training_record(ct_side, ct_trace),
    }
    return ClassifierBundle(lt_model, ct_model, feature_config, train_config, training)


def _decision(lt: float, ct: float) -> Decision:
    label = DialectLabel.LT if lt >= ct else DialectLabel.CT
    return Decision(label, lt, ct, lt == ct)


def _decide(lt_model: GmmModel, ct_model: GmmModel, features: np.ndarray) -> Decision:
    return _decision(
        log_likelihood_sequence(lt_model, features),
        log_likelihood_sequence(ct_model, features),
    )


def classify_utterance(bundle: ClassifierBundle, signal: AudioSignal) -> Decision:
    """Score one utterance under both dialect models and pick the argmax."""
    features = extract_features(signal, bundle.feature_config)
    return _decide(bundle.lt_model, bundle.ct_model, features)


def _score(decided) -> EvalReport:
    """Tally the confusion matrix of (record, Decision) pairs, true dialect
    against decided label; the report keeps the pairs as its decisions."""
    decisions = list(decided)
    cells = Counter((rec.dialect, d.label) for rec, d in decisions)
    lt, ct = DialectLabel.LT, DialectLabel.CT
    tp, fp, fn, tn = cells[lt, lt], cells[ct, lt], cells[lt, ct], cells[ct, ct]
    accuracy, precision, recall, f1 = metrics_from_counts(tp, fp, fn, tn)
    return EvalReport(tp, fp, fn, tn, accuracy, precision, recall, f1, decisions)


def _each_test_record(manifest: CorpusManifest, job) -> tuple[list[UtteranceRecord], list]:
    """(test records, [job(rec) for rec in them]) by run_pair over two contiguous
    halves: the first half's error is raised first, as on one thread."""
    records = manifest.subset(split=Split.TEST)
    if not records:
        raise EmptyTestSetError("manifest has no test utterances")
    half = (len(records) + 1) // 2
    first, second = run_pair(
        lambda: [job(rec) for rec in records[:half]], lambda: [job(rec) for rec in records[half:]]
    )
    return records, first + second


def evaluate(bundle: ClassifierBundle, test_manifest: CorpusManifest) -> EvalReport:
    """Classify every test utterance in the manifest and tally metrics.

    Assumes train/test speaker disjointness has already been checked
    (validate_split); this function only consumes split == test records.
    Their two halves are decided on two threads (_each_test_record), one
    utterance's features at a time, each record as classify_utterance
    decides its audio, cut to its segment.
    """
    lt_model, ct_model, config = bundle.lt_model, bundle.ct_model, bundle.feature_config
    records, decisions = _each_test_record(
        test_manifest, lambda rec: _decide(lt_model, ct_model, _record_features(rec, config))
    )
    return _score(zip(records, decisions))


def _fit_and_score(prepared: TrainingFrames, config: TrainConfig, test: list[np.ndarray]) -> tuple:
    """One dialect's part of a sweep row: (the log-likelihoods of the test
    utterances' feature matrices, or the exception the fit, its model check
    or scoring raised, fit seconds, scoring seconds). The check is the one
    save_model makes, so a row fails where train would. A dialect's rows
    share prepared, so each fit picks, within its own time, only the seeds
    that the rows before it did not."""
    start = time.perf_counter()
    try:
        model, _ = em_fit(prepared, config)
        model.validate()
        fitted = time.perf_counter()
        scores = log_likelihood_segments(model, test)
    except Exception as exc:
        return exc, time.perf_counter() - start, 0.0
    return scores, fitted - start, time.perf_counter() - fitted


def sweep_mixtures(
    train_manifest: CorpusManifest,
    test_manifest: CorpusManifest,
    feature_config: MfccConfig,
    base_train_config: TrainConfig,
    component_counts: tuple[int, ...] | list[int] = SWEEP_COMPONENTS,
) -> list[SweepRow]:
    """Accuracy as a function of mixture size, one row per count.

    Features are extracted once and shared across rows, on two threads
    through run_pair: the LT and CT training frames, then the two halves of
    the test set. Each dialect's training frames are held once, as its
    [x^2, x] buffer built on the calling thread, which its rows share as one
    TrainingFrames; each test utterance's features stay as extracted. The
    rows run in order, each fitting and scoring its LT and CT models through
    run_pair, and score each test utterance as classify does. A row that
    fails (for example, fewer frames than components) is recorded with its
    error message, LT's before CT's, and the sweep moves on; any other
    exception is raised, LT's before CT's, and no later row runs.
    """
    counts = list(component_counts)
    if not counts:
        raise ValueError("component_counts must be non-empty")
    if any(c < 1 for c in counts):
        raise ValueError("component counts must be positive")

    lt_side, ct_side = _training_sides(train_manifest, feature_config)
    records, test = _each_test_record(
        test_manifest, lambda rec: _record_features(rec, feature_config)
    )

    rows = []
    for count in counts:
        config = replace(base_train_config, num_components=count)
        (lt, lt_fit, lt_score), (ct, ct_fit, ct_score) = run_pair(
            lambda: _fit_and_score(lt_side, config, test),
            lambda: _fit_and_score(ct_side, config, test),
        )
        times = (
            max(lt_fit + lt_score, ct_fit + ct_score),
            max(lt_fit, ct_fit),
            max(lt_score, ct_score),
        )
        error = lt if isinstance(lt, Exception) else ct if isinstance(ct, Exception) else None
        if error is None:
            decided = zip(records, map(_decision, lt, ct))
            rows.append(SweepRow(count, _score(decided).accuracy, *times))
        elif isinstance(error, DialectIdError):
            rows.append(SweepRow(count, None, *times, str(error)))
        else:
            raise error
    return rows


def _sha256(blob: bytes) -> str:
    import hashlib  # here, so that commands without a bundle do not pay for it
    return hashlib.sha256(blob).hexdigest()


def save_bundle(bundle: ClassifierBundle, directory) -> None:
    """Persist as lt.gmm + ct.gmm + a JSON descriptor with both configs, the
    training record and each model file's SHA-256. The descriptor is written
    last, because load_bundle reads it first; each file is replaced whole or
    not at all, and the digests expose a model left from an earlier bundle
    when a later replace failed."""
    os.makedirs(directory, exist_ok=True)
    lt_path = os.path.join(directory, _LT_MODEL_NAME)
    ct_path = os.path.join(directory, _CT_MODEL_NAME)
    save_model(bundle.lt_model, lt_path)
    save_model(bundle.ct_model, ct_path)
    descriptor = {
        "format": "dialectid-bundle",
        "version": 1,
        "lt_model": _LT_MODEL_NAME,
        "lt_model_sha256": _sha256(read_bytes(lt_path)),
        "ct_model": _CT_MODEL_NAME,
        "ct_model_sha256": _sha256(read_bytes(ct_path)),
        "feature_config": asdict(bundle.feature_config),
        "train_config": asdict(bundle.train_config),
        "training": bundle.training,
    }
    with atomic_open(os.path.join(directory, BUNDLE_DESCRIPTOR)) as fh:
        json.dump(descriptor, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_member(directory, descriptor: dict, key: str, path) -> GmmModel:
    """The model named in the descriptor; the name must be a plain file name
    inside the bundle directory, and the bytes parsed must match its recorded
    SHA-256 when the descriptor has one (bundles saved before digests were
    recorded have none). A member that cannot be read is a bundle error."""
    name = descriptor.get(key)
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise DialectIdError(f"{path}: {key} must be a file name inside the bundle, got {name!r}")
    member = os.path.join(directory, name)
    digest = descriptor.get(f"{key}_sha256")
    try:
        blob = read_bytes(member)
        if digest is not None and digest != _sha256(blob):
            raise DialectIdError(
                f"{member}: SHA-256 does not match {path}; the bundle mixes files of two saves"
            )
        return load_model(member, blob)
    except OSError as exc:
        raise DialectIdError(f"{path}: cannot read its {key} {name!r} ({exc})") from None


def load_bundle(directory) -> ClassifierBundle:
    path = os.path.join(directory, BUNDLE_DESCRIPTOR)
    try:
        with open(path, encoding="utf-8") as fh:
            descriptor = json.load(fh)
    except ValueError as exc:
        raise DialectIdError(f"{path}: invalid bundle descriptor ({exc})") from None
    if not isinstance(descriptor, dict):
        raise DialectIdError(f"{path}: bundle descriptor is not a JSON object")
    if descriptor.get("format") != "dialectid-bundle" or descriptor.get("version") != 1:
        raise DialectIdError(f"{path}: not a recognized bundle descriptor")
    try:
        feature_config = MfccConfig(**descriptor["feature_config"])
        train_config = TrainConfig(**descriptor["train_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DialectIdError(f"{path}: bad config in descriptor ({exc})") from None
    lt_model = _load_member(directory, descriptor, "lt_model", path)
    ct_model = _load_member(directory, descriptor, "ct_model", path)
    try:
        return ClassifierBundle(lt_model, ct_model, feature_config, train_config)
    except ValueError as exc:
        raise DialectIdError(f"{path}: {exc}") from None
