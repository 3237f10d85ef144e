"""Command-line front end.

One executable, one subcommand per pipeline stage:

    extract   audio -> feature file (binary container or CSV)
    train     manifest -> model bundle directory
    classify  bundle + audio -> dialect decision
    evaluate  bundle + manifest -> metrics over the test split
    sweep     accuracy vs mixture size table
    nasal     LP-spectrum low-band peak report / LT-CT comparison
    validate  train/test speaker discipline check
    stats     corpus duration and speaker tables
    synth     seeded synthetic two-dialect corpus

Exit codes: 0 success, 1 data error (bad audio, bad manifest, corrupt
model, failed validation), 2 usage error. Reports go to stdout or --output,
as plain text or line-delimited JSON records (--format records). Identical
argv + input files + seed reproduce identical outputs byte for byte, except
for the wall-clock seconds column in sweep reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .classifier import (
    SWEEP_COMPONENTS,
    evaluate,
    classify_utterance,
    load_bundle,
    save_bundle,
    sweep_mixtures,
    train_bundle,
)
from .corpus import (
    CorpusManifest,
    Split,
    corpus_stats,
    format_stats,
    load_manifest,
    read_audio,
    stats_records,
    validate_split,
)
from .dsp import (
    MfccConfig,
    extract_features,
    extract_segment,
    write_features,
    write_features_csv,
)
from .errors import ConfigError, DialectIdError, ManifestError
from .gmm import TrainConfig
from .nasalization import (
    NasalConfig,
    analyze_segment,
    compare_degree,
    segment_lp_spectra,
)

_SECTIONS = {"mfcc": MfccConfig, "train": TrainConfig, "nasal": NasalConfig}
# The mixture size is left out: only --components sets it.
_CONFIG_KEYS = {
    f"{section}.{f.name}" for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
} - {"train.num_components"}


def _load_config(path) -> dict[str, str]:
    """Flat `key = value` file with mfcc./train./nasal. keys, each set once."""
    kv: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not valid UTF-8 ({exc})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path} line {lineno}: expected key = value")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if key in key_lines:
            raise ConfigError(f"{path}: {key!r} is set on line {key_lines[key]} and line {lineno}")
        key_lines[key] = lineno
        kv[key] = value.strip()
    return kv


def _config(kv: dict[str, str], section: str, **overrides):
    """The section's config from its keys in kv, then the overrides."""
    cls = _SECTIONS[section]
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{section}.{f.name}"
        if key in kv:
            caster = int if f.type == "int" else float
            try:
                kwargs[f.name] = caster(kv[key])
            except ValueError:
                raise ConfigError(
                    f"config key {key} has a non-numeric value {kv[key]!r}"
                ) from None
    kwargs.update(overrides)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} configuration: {exc}") from None


def _train_config(args, kv, num_components: int) -> TrainConfig:
    seed = {} if args.seed is None else {"rng_seed": args.seed}
    return _config(kv, "train", num_components=num_components, **seed)


def _emit(args, text: str, records: list[dict]) -> None:
    if args.format == "records":
        payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _check_speaker_discipline(train_manifest, test_manifest) -> None:
    """Refuse speakers of train_manifest's train split who are also in
    test_manifest's test split."""
    records = train_manifest.subset(split=Split.TRAIN) + test_manifest.subset(split=Split.TEST)
    overlap = validate_split(CorpusManifest(records)).overlapping_speakers
    if overlap:
        raise ManifestError("train/test speaker overlap: " + ", ".join(overlap))


def cmd_extract(args, kv) -> int:
    config = _config(kv, "mfcc")
    features = extract_features(read_audio(args.audio), config)
    if args.csv:
        write_features_csv(args.out, features)
    else:
        write_features(args.out, features)
    _emit(
        args,
        f"wrote {features.shape[0]} frames x {features.shape[1]} dims to {args.out}",
        [
            {
                "audio": args.audio,
                "num_frames": int(features.shape[0]),
                "dim": int(features.shape[1]),
                "out": args.out,
            }
        ],
    )
    return 0


def cmd_train(args, kv) -> int:
    manifest = load_manifest(args.manifest)
    _check_speaker_discipline(manifest, manifest)
    feature_config = _config(kv, "mfcc")
    train_config = _train_config(args, kv, args.components)
    bundle = train_bundle(manifest, feature_config, train_config)
    save_bundle(bundle, args.out)
    _emit(
        args,
        f"trained {train_config.num_components}-component dialect models -> {args.out}",
        [
            {
                "bundle": args.out,
                "num_components": train_config.num_components,
                "dim": bundle.lt_model.dim,
            }
        ],
    )
    return 0


def cmd_classify(args, kv) -> int:
    bundle = load_bundle(args.bundle)
    decision = classify_utterance(bundle, read_audio(args.audio))
    tie_note = "  (exact tie, defaulted to LT)" if decision.tie else ""
    _emit(
        args,
        f"{decision.label.value}  lt_score={decision.lt_score!r}  "
        f"ct_score={decision.ct_score!r}{tie_note}",
        [
            {
                "audio": args.audio,
                "label": decision.label.value,
                "lt_score": decision.lt_score,
                "ct_score": decision.ct_score,
                "tie": decision.tie,
            }
        ],
    )
    return 0


def _report_records(report) -> list[dict]:
    records = [
        {
            "type": "decision",
            "audio": d.audio_path,
            "speaker": d.speaker_id,
            "true": d.true_label.value,
            "predicted": d.predicted.value,
            "lt_score": d.lt_score,
            "ct_score": d.ct_score,
            "tie": d.tie,
        }
        for d in report.decisions
    ]
    records.append(
        {
            "type": "summary",
            "utterances": len(report.decisions),
            "tp": report.true_positives,
            "fp": report.false_positives,
            "fn": report.false_negatives,
            "tn": report.true_negatives,
            "accuracy": report.accuracy,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
        }
    )
    return records


def cmd_evaluate(args, kv) -> int:
    bundle = load_bundle(args.bundle)
    manifest = load_manifest(args.manifest)
    _check_speaker_discipline(manifest, manifest)
    report = evaluate(bundle, manifest)
    text = (
        f"utterances {len(report.decisions)}  accuracy {report.accuracy:.4f}  "
        f"precision {report.precision:.4f}  recall {report.recall:.4f}  "
        f"f1 {report.f1:.4f}\n"
        f"confusion (LT positive): tp {report.true_positives}  "
        f"fp {report.false_positives}  fn {report.false_negatives}  "
        f"tn {report.true_negatives}"
    )
    _emit(args, text, _report_records(report))
    return 0


def cmd_sweep(args, kv) -> int:
    train_manifest = load_manifest(args.manifest)
    test_manifest = (
        load_manifest(args.test_manifest) if args.test_manifest else train_manifest
    )
    _check_speaker_discipline(train_manifest, test_manifest)
    feature_config = _config(kv, "mfcc")
    base = _train_config(args, kv, 1)
    rows = sweep_mixtures(
        train_manifest, test_manifest, feature_config, base, args.components
    )
    lines = [f"{'components':>10}  {'accuracy':>8}  {'seconds':>8}"]
    for row in rows:
        if row.error is None:
            lines.append(
                f"{row.num_components:>10}  {row.accuracy:>8.4f}  {row.seconds:>8.2f}"
            )
        else:
            lines.append(
                f"{row.num_components:>10}  {'FAILED':>8}  {row.seconds:>8.2f}  {row.error}"
            )
    records = [
        {
            "num_components": row.num_components,
            "accuracy": row.accuracy,
            "seconds": row.seconds,
            "error": row.error,
        }
        for row in rows
    ]
    _emit(args, "\n".join(lines), records)
    return 0


def _nasal_report_lines(name: str, report) -> list[str]:
    lines = [
        f"{name}: frames {report.num_frames}  analyzed {report.num_analyzed}  "
        f"detected fraction {report.detection_fraction:.3f}"
    ]
    if report.median_peak_hz is not None:
        lines.append(
            f"{name}: median low-band peak {report.median_peak_hz:.1f} Hz  "
            f"{report.median_peak_db:.2f} dB"
        )
    else:
        lines.append(f"{name}: no analyzable frames")
    return lines


def _nasal_records(name: str, report) -> list[dict]:
    records = [
        {
            "type": "frame",
            "segment": name,
            "frame": fp.frame_index,
            "peak_hz": fp.peak.frequency_hz,
            "peak_db": fp.peak.magnitude_db,
            "detected": fp.detected,
        }
        for fp in report.frame_peaks
    ]
    records.append(
        {
            "type": "summary",
            "segment": name,
            "num_frames": report.num_frames,
            "num_analyzed": report.num_analyzed,
            "median_peak_hz": report.median_peak_hz,
            "median_peak_db": report.median_peak_db,
            "detection_fraction": report.detection_fraction,
        }
    )
    return records


def _load_segment(path, start, end):
    signal = read_audio(path)
    if start is not None or end is not None:
        lo = start if start is not None else 0.0
        hi = end if end is not None else signal.duration_s
        try:
            signal = extract_segment(signal, lo, hi)
        except ValueError as exc:
            raise DialectIdError(f"{path}: bad segment bounds ({exc})") from None
    return signal


def _write_spectra(path, freqs, spectra) -> None:
    """One block per frame: "# frame N", then "frequency dB" lines at full
    float precision (repr), then a blank line."""
    prefixes = [f"{f!r} " for f in freqs.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        for index, db in spectra:
            body = "\n".join(map(str.__add__, prefixes, map(repr, db.tolist())))
            fh.write(f"# frame {index}\n{body}\n\n")


def cmd_nasal(args, kv) -> int:
    config = _config(kv, "nasal")
    paired = args.lt_audio is not None or args.ct_audio is not None
    if paired and (args.lt_audio is None or args.ct_audio is None):
        print("error: --lt-audio and --ct-audio must be given together", file=sys.stderr)
        return 2
    if paired == (args.audio is not None):
        print("error: give either --audio or the --lt-audio/--ct-audio pair", file=sys.stderr)
        return 2
    if paired and (args.start, args.end, args.dump_spectra) != (None,) * 3:
        print("error: --start, --end and --dump-spectra go with --audio only", file=sys.stderr)
        return 2
    if not paired and (args.lt_start, args.lt_end, args.ct_start, args.ct_end) != (None,) * 4:
        print("error: --lt-start, --lt-end, --ct-start, --ct-end go with the pair", file=sys.stderr)
        return 2

    if paired:
        lt_signal = _load_segment(args.lt_audio, args.lt_start, args.lt_end)
        ct_signal = _load_segment(args.ct_audio, args.ct_start, args.ct_end)
        lt_report = analyze_segment(lt_signal, config)
        ct_report = analyze_segment(ct_signal, config)
        verdict = compare_degree(lt_report, ct_report)
        lines = _nasal_report_lines("LT", lt_report) + _nasal_report_lines("CT", ct_report)
        if verdict.stronger is None:
            lines.append(f"verdict: comparable (difference {verdict.difference_db:.2f} dB)")
        else:
            lines.append(
                f"verdict: {verdict.stronger.value} stronger by "
                f"{abs(verdict.difference_db):.2f} dB"
            )
        records = _nasal_records("LT", lt_report) + _nasal_records("CT", ct_report)
        records.append(
            {
                "type": "verdict",
                "stronger": verdict.stronger.value if verdict.stronger else "comparable",
                "difference_db": verdict.difference_db,
            }
        )
        _emit(args, "\n".join(lines), records)
        return 0

    signal = _load_segment(args.audio, args.start, args.end)
    report = analyze_segment(signal, config)
    if args.dump_spectra:
        _write_spectra(args.dump_spectra, *segment_lp_spectra(signal, config))
    _emit(args, "\n".join(_nasal_report_lines("segment", report)), _nasal_records("segment", report))
    return 0


def cmd_validate(args, kv) -> int:
    manifest = load_manifest(args.manifest)
    report = validate_split(manifest)
    lines = ["PASS" if report.passed else "FAIL"]
    if report.overlapping_speakers:
        lines.append("overlapping speakers: " + ", ".join(report.overlapping_speakers))
    for w in report.warnings:
        lines.append(f"warning: {w}")
    records = [
        {
            "passed": report.passed,
            "overlapping_speakers": report.overlapping_speakers,
            "missing": [[d.value, s.value] for d, s in report.missing],
            "warnings": report.warnings,
        }
    ]
    _emit(args, "\n".join(lines), records)
    return 0 if report.passed else 1


def cmd_stats(args, kv) -> int:
    stats = corpus_stats(load_manifest(args.manifest))
    _emit(args, format_stats(stats), stats_records(stats))
    return 0


def cmd_synth(args, kv) -> int:
    # Imported here so that no other subcommand pays for importing scipy.signal.
    from .synth import generate_synthetic_corpus

    result = generate_synthetic_corpus(
        args.out,
        seed=args.seed if args.seed is not None else 0,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        utterance_seconds=args.seconds,
        utterances_per_speaker=args.per_speaker,
    )
    _emit(
        args,
        f"wrote {len(result.manifest.records)} utterances under {result.out_dir}\n"
        f"manifest: {result.manifest_path}",
        [
            {
                "manifest": result.manifest_path,
                "ground_truth": result.ground_truth_path,
                "utterances": len(result.manifest.records),
            }
        ],
    )
    return 0


def _positive(cast):
    """argparse type: a finite number of type cast above zero."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {cast.__name__}")
        return value

    return parse


_count = _positive(int)


def _int_list(text: str) -> list[int]:
    values = [_count(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("component list must be non-empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialectid",
        description="Literary vs colloquial Tamil utterance classification tools.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override every seeded RNG")
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--output", default=None, help="write the report to this file instead of stdout")
    common.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="report style: human text or line-delimited JSON records",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, func):
        p = sub.add_parser(
            name,
            parents=[common],
            help=help_text,
            description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.set_defaults(func=func)
        return p

    p = add("extract", "extract 39-dim features from one WAV file", cmd_extract)
    p.add_argument("--audio", required=True, help="input WAV (16-bit PCM mono 16 kHz)")
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--csv", action="store_true", help="write CSV instead of the binary container")

    p = add("train", "train per-dialect GMMs from a manifest's train split", cmd_train)
    p.add_argument("--manifest", required=True, help="corpus manifest (TSV)")
    p.add_argument("--components", type=_count, required=True, help="mixture components per dialect")
    p.add_argument("--out", required=True, help="bundle output directory")

    p = add("classify", "classify one utterance with a trained bundle", cmd_classify)
    p.add_argument("--bundle", required=True, help="bundle directory from train")
    p.add_argument("--audio", required=True, help="utterance to classify")

    p = add("evaluate", "score a bundle on a manifest's test split", cmd_evaluate)
    p.add_argument("--bundle", required=True, help="bundle directory from train")
    p.add_argument("--manifest", required=True, help="corpus manifest (TSV)")

    p = add("sweep", "accuracy vs mixture size over the same manifest", cmd_sweep)
    p.add_argument("--manifest", required=True, help="manifest supplying the train split")
    p.add_argument(
        "--test-manifest",
        default=None,
        help="separate manifest supplying the test split (defaults to --manifest)",
    )
    p.add_argument(
        "--components",
        type=_int_list,
        default=SWEEP_COMPONENTS,
        help="comma-separated mixture sizes",
    )

    p = add("nasal", "low-band LP-spectrum peak analysis", cmd_nasal)
    p.add_argument("--audio", default=None, help="segment to analyze")
    p.add_argument("--start", type=float, default=None, help="segment start (seconds)")
    p.add_argument("--end", type=float, default=None, help="segment end (seconds)")
    p.add_argument("--lt-audio", default=None, help="LT rendition for comparison")
    p.add_argument("--lt-start", type=float, default=None, help="LT segment start (seconds)")
    p.add_argument("--lt-end", type=float, default=None, help="LT segment end (seconds)")
    p.add_argument("--ct-audio", default=None, help="CT rendition for comparison")
    p.add_argument("--ct-start", type=float, default=None, help="CT segment start (seconds)")
    p.add_argument("--ct-end", type=float, default=None, help="CT segment end (seconds)")
    p.add_argument(
        "--dump-spectra",
        default=None,
        help="write per-frame LP spectra (two-column frequency/dB blocks) here",
    )

    p = add("validate", "check train/test speaker discipline", cmd_validate)
    p.add_argument("--manifest", required=True, help="corpus manifest (TSV)")

    p = add("stats", "corpus duration and speaker statistics", cmd_stats)
    p.add_argument("--manifest", required=True, help="corpus manifest (TSV)")

    p = add("synth", "generate a seeded synthetic two-dialect corpus", cmd_synth)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--train-per-class", type=_count, default=40, help="train utterances per dialect")
    p.add_argument("--test-per-class", type=_count, default=20, help="test utterances per dialect")
    p.add_argument("--seconds", type=_positive(float), default=2.0, help="seconds per utterance")
    p.add_argument("--per-speaker", type=_count, default=5, help="utterances per synthetic speaker")

    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code)
    try:
        kv = _load_config(args.config) if args.config else {}
        return args.func(args, kv)
    except (DialectIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
