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
model, failed validation), 2 usage error, and from main() 130 when
interrupted (SIGINT) or 143 when terminated (SIGTERM). Reports go to stdout
or --output, as plain text or line-delimited JSON records (--format
records). Identical argv + input files + seed reproduce identical outputs
byte for byte, except for the wall-clock times in sweep reports.

Each command imports only the modules it runs. main(), the `dialectid`
command, flushes stdout and stderr once run() returns and ends the process
with os._exit, skipping interpreter teardown; run(argv) behaves as before.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import signal
import sys
from contextlib import nullcontext, suppress

from .corpus import (
    CorpusManifest,
    Split,
    corpus_stats,
    format_stats,
    load_manifest,
    read_audio,
    validate_split,
)
from .dsp import CANONICAL_SAMPLE_RATE, extract_features, extract_segment, write_features, write_features_csv
from .errors import ConfigError, DialectIdError, ManifestError, naming
from .fileio import atomic_open
from .labels import SWEEP_COMPONENTS

# Config section -> (module, config class). A module is imported only when a
# config file names its section or a command builds that config.
_SECTIONS = {"mfcc": ("dsp", "MfccConfig"), "train": ("gmm", "TrainConfig"),
             "nasal": ("nasalization", "NasalConfig")}


def _section_class(section: str):
    module, name = _SECTIONS[section]
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _section_keys(section: str) -> set[str]:
    keys = {f"{section}.{f.name}" for f in dataclasses.fields(_section_class(section))}
    # The mixture size is left out: only --components sets it.
    return keys - {"train.num_components"}


def _load_config(path) -> dict[str, str]:
    """Flat `key = value` file with mfcc./train./nasal. keys, each set once;
    every section the file sets must build a valid config."""
    kv: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
        section = key.partition(".")[0]
        if section not in _SECTIONS or key not in _section_keys(section):
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if key in key_lines:
            raise ConfigError(f"{path}: {key!r} is set on line {key_lines[key]} and line {lineno}")
        key_lines[key] = lineno
        kv[key] = value.strip()
    # Check each section's values now, not only when a command builds it;
    # sections are built in the order the file first names them.
    for section in dict.fromkeys(key.partition(".")[0] for key in kv):
        _config(kv, section, **({"num_components": 1} if section == "train" else {}))
    return kv


def _config(kv: dict[str, str], section: str, **overrides):
    """The section's config from its keys in kv, then the overrides."""
    cls = _section_class(section)
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


def _train_config(args, kv, num_components: int):
    seed = {} if args.seed is None else {"rng_seed": args.seed}
    return _config(kv, "train", num_components=num_components, **seed)


def _emit(args, records: list[dict], text: str) -> None:
    """Print the report as records (JSON lines) or as text rendered from them."""
    if args.format == "records":
        payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    else:
        payload = text + "\n"
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(payload)
    elif sys.stdout is None:
        raise DialectIdError("standard output is closed")
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
    with naming(args.audio):
        features = extract_features(read_audio(args.audio), config)
    if args.csv:
        write_features_csv(args.out, features)
    else:
        write_features(args.out, features)
    num_frames, dim = features.shape
    record = {"audio": args.audio, "num_frames": num_frames, "dim": dim, "out": args.out}
    _emit(args, [record], "wrote {num_frames} frames x {dim} dims to {out}".format_map(record))
    return 0


def cmd_train(args, kv) -> int:
    from .classifier import save_bundle, train_bundle
    manifest = load_manifest(args.manifest)
    _check_speaker_discipline(manifest, manifest)
    feature_config = _config(kv, "mfcc")
    train_config = _train_config(args, kv, args.components)
    bundle = train_bundle(manifest, feature_config, train_config)
    save_bundle(bundle, args.out)
    record = {
        "bundle": args.out,
        "num_components": train_config.num_components,
        "dim": bundle.lt_model.dim,
    }
    text = "trained {num_components}-component dialect models -> {bundle}".format_map(record)
    _emit(args, [record], text)
    return 0


def cmd_classify(args, kv) -> int:
    from .classifier import classify_utterance, load_bundle
    bundle = load_bundle(args.bundle)
    with naming(args.audio):
        decision = classify_utterance(bundle, read_audio(args.audio))
    record = {
        "audio": args.audio,
        "label": decision.label.value,
        "lt_score": decision.lt_score,
        "ct_score": decision.ct_score,
        "tie": decision.tie,
    }
    text = "{label}  lt_score={lt_score!r}  ct_score={ct_score!r}".format_map(record)
    _emit(args, [record], text + ("  (exact tie, defaulted to LT)" if record["tie"] else ""))
    return 0


def cmd_evaluate(args, kv) -> int:
    from .classifier import evaluate, load_bundle
    bundle = load_bundle(args.bundle)
    manifest = load_manifest(args.manifest)
    _check_speaker_discipline(manifest, manifest)
    report = evaluate(bundle, manifest)
    records = [
        {
            "type": "decision",
            "audio": rec.audio_path,
            "speaker": rec.speaker_id,
            "true": rec.dialect.value,
            "predicted": d.label.value,
            "lt_score": d.lt_score,
            "ct_score": d.ct_score,
            "tie": d.tie,
        }
        for rec, d in report.decisions
    ]
    summary = {
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
    text = (
        "utterances {utterances}  accuracy {accuracy:.4f}  precision {precision:.4f}  "
        "recall {recall:.4f}  f1 {f1:.4f}\n"
        "confusion (LT positive): tp {tp}  fp {fp}  fn {fn}  tn {tn}"
    ).format_map(summary)
    _emit(args, records + [summary], text)
    return 0


def cmd_sweep(args, kv) -> int:
    from .classifier import sweep_mixtures
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
    records = [dataclasses.asdict(row) for row in rows]
    lines = [f"{'components':>10}  {'accuracy':>8}  {'seconds':>8}"]
    for r in records:
        if r["error"] is None:
            lines.append("{num_components:>10}  {accuracy:>8.4f}  {seconds:>8.2f}".format_map(r))
        else:
            lines.append("{num_components:>10}    FAILED  {seconds:>8.2f}  {error}".format_map(r))
    _emit(args, records, "\n".join(lines))
    return 0


def _nasal_records(name: str, report) -> list[dict]:
    """One frame record per analyzed frame, then the segment's summary."""
    records = [
        {
            "type": "frame",
            "segment": name,
            "frame": fp.frame_index,
            "peak_hz": fp.frequency_hz,
            "peak_db": fp.magnitude_db,
            "detected": fp.detected,
        }
        for fp in report.frame_peaks
    ]
    # The report's summary fields are the summary record's keys.
    summary = {k: v for k, v in vars(report).items() if k != "frame_peaks"}
    return records + [{"type": "summary", "segment": name, **summary}]


def _nasal_text(records: list[dict]) -> str:
    """Text of the summary and verdict records; frame records print nothing."""
    lines = []
    for r in records:
        if r["type"] == "summary":
            lines.append(
                "{segment}: frames {num_frames}  analyzed {num_analyzed}  "
                "detected fraction {detection_fraction:.3f}".format_map(r)
            )
            if r["median_peak_hz"] is None:
                lines.append(f"{r['segment']}: no analyzable frames")
            else:
                lines.append(
                    "{segment}: median low-band peak {median_peak_hz:.1f} Hz  "
                    "{median_peak_db:.2f} dB".format_map(r)
                )
        elif r["type"] == "verdict" and r["stronger"] == "comparable":
            lines.append("verdict: comparable (difference {difference_db:.2f} dB)".format_map(r))
        elif r["type"] == "verdict":
            lines.append(f"verdict: {r['stronger']} stronger by {abs(r['difference_db']):.2f} dB")
    return "\n".join(lines)


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


def cmd_nasal(args, kv) -> int:
    from .nasalization import analyze_segment, compare_degree
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
        with naming(args.lt_audio):
            lt_report = analyze_segment(lt_signal, config)
        with naming(args.ct_audio):
            ct_report = analyze_segment(ct_signal, config)
        verdict = compare_degree(lt_report, ct_report)
        records = _nasal_records("LT", lt_report) + _nasal_records("CT", ct_report)
        records.append(
            {
                "type": "verdict",
                "stronger": verdict.stronger.value if verdict.stronger else "comparable",
                "difference_db": verdict.difference_db,
            }
        )
    else:
        signal = _load_segment(args.audio, args.start, args.end)
        with atomic_open(args.dump_spectra) if args.dump_spectra else nullcontext() as dump, naming(args.audio):
            report = analyze_segment(signal, config, dump)
        records = _nasal_records("segment", report)
    _emit(args, records, _nasal_text(records))
    return 0


def cmd_validate(args, kv) -> int:
    report = validate_split(load_manifest(args.manifest))
    record = {
        "passed": report.passed,
        "overlapping_speakers": report.overlapping_speakers,
        "missing": [[d.value, s.value] for d, s in report.missing],
        "warnings": report.warnings,
    }
    lines = ["PASS" if record["passed"] else "FAIL"]
    if record["overlapping_speakers"]:
        lines.append("overlapping speakers: " + ", ".join(record["overlapping_speakers"]))
    lines += [f"warning: {w}" for w in record["warnings"]]
    _emit(args, [record], "\n".join(lines))
    return 0 if report.passed else 1


def cmd_stats(args, kv) -> int:
    records = corpus_stats(load_manifest(args.manifest))
    _emit(args, records, format_stats(records))
    return 0


def cmd_synth(args, kv) -> int:
    from .synth import generate_synthetic_corpus
    result = generate_synthetic_corpus(
        args.out,
        seed=args.seed if args.seed is not None else 0,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        utterance_seconds=args.seconds,
        utterances_per_speaker=args.per_speaker,
    )
    record = {
        "manifest": result.manifest_path,
        "ground_truth": result.ground_truth_path,
        "utterances": len(result.manifest.records),
    }
    text = f"wrote {record['utterances']} utterances under {os.path.dirname(record['manifest'])}"
    _emit(args, [record], f"{text}\nmanifest: {record['manifest']}")
    return 0


def _number(cast, minimum):
    """argparse type: a finite number of type cast at or above minimum."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not minimum <= value < math.inf:
            wanted = f"a finite {cast.__name__} >= {minimum}"
            raise argparse.ArgumentTypeError(f"{text!r} is not {wanted}")
        return value

    return parse


_count = _number(int, 1)


def _utterance_seconds(text: str) -> float:
    """argparse type for synth --seconds: one sample to synth.MAX_UTTERANCE_SECONDS."""
    from .synth import MAX_UTTERANCE_SECONDS
    value = _number(float, 0.0)(text)
    if value > MAX_UTTERANCE_SECONDS:
        raise argparse.ArgumentTypeError(f"{text!r} is above {MAX_UTTERANCE_SECONDS:g} seconds")
    if round(value * CANONICAL_SAMPLE_RATE) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} gives no sample at {CANONICAL_SAMPLE_RATE} Hz")
    return value


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
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, func):
        """The command's parser; --seed and --config only where the command reads them."""
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        if name in ("synth", "train", "sweep"):
            p.add_argument("--seed", type=_number(int, 0), default=None, help="override every seeded RNG")
        if name in ("extract", "train", "sweep", "nasal"):
            p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--output", default=None, help="write the report to this file instead of stdout")
        p.add_argument(
            "--format",
            choices=("text", "records"),
            default="text",
            help="report style: human text or line-delimited JSON records",
        )
        p.set_defaults(func=func, config=None)
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
    p.add_argument("--seconds", type=_utterance_seconds, default=2.0, help="seconds per utterance")
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
    except (DialectIdError, OSError, MemoryError) as exc:
        # MemoryError: an input or config that asks for more memory than
        # the machine has is a data error too.
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Terminated(KeyboardInterrupt):
    """Raised in the main thread on SIGTERM, so that it unwinds like SIGINT."""


def _terminate(signum, frame):
    raise _Terminated


def main() -> None:
    """The `dialectid` command: run(), flush stdout and stderr, exit without teardown.
    Output files are closed before run() returns, and the exit ends any worker
    thread still running after an error. An interrupt (SIGINT) is one error line
    and status 130, and a termination (SIGTERM) one line and status 143;
    atomic_open has then removed any unfinished output file."""
    signal.signal(signal.SIGTERM, _terminate)
    try:
        status = run()
    except KeyboardInterrupt as exc:
        stop, status = ("terminated", 143) if isinstance(exc, _Terminated) else ("interrupted", 130)
        print(f"error: {stop}", file=sys.stderr)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # A report that cannot be written fails the command, with one error line.
        if status == 0 and sys.stderr is not None:
            print(f"error: {exc}", file=sys.stderr)
        status = status or 1
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
