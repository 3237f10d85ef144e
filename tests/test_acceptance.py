"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test prints `criterion NN PASS ...` or `criterion NN FAIL ...` and then
asserts, so a plain pytest run doubles as the sign-off checklist.
"""

import math
import os
import time

import numpy as np
import pytest

import reference
from dialectid import synth
from dialectid.classifier import (
    evaluate,
    f1_score,
    metrics_from_counts,
    save_bundle,
    sweep_mixtures,
    train_bundle,
)
from dialectid.corpus import (
    CorpusManifest,
    Gender,
    Split,
    UtteranceRecord,
    load_manifest,
    validate_split,
    write_manifest,
)
from dialectid.dsp import AudioSignal, MfccConfig, cepstral_mean_subtract, extract_features
from dialectid.gmm import GmmModel, TrainConfig, em_fit, log_likelihood_sequence
from dialectid.labels import DialectLabel
from dialectid.nasalization import analyze_segment, compare_degree
from dialectid.synth import generate_synthetic_corpus

SR = 16000

SMALL_ARGS = dict(seed=0, train_per_class=40, test_per_class=20, utterance_seconds=2.0)
SWEEP_ARGS = dict(seed=0, train_per_class=75, test_per_class=12, utterance_seconds=8.0)


def verdict(num: int, checks: list[tuple[str, bool]], detail: str = "") -> None:
    bad = [name for name, good in checks if not good]
    line = f"criterion {num:02d} {'FAIL' if bad else 'PASS'}"
    if detail:
        line += f"  {detail}"
    if bad:
        line += "  failed: " + "; ".join(bad)
    print(line)
    assert not bad, line


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "small"
    return generate_synthetic_corpus(str(out), **SMALL_ARGS)


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "sweep"
    return generate_synthetic_corpus(str(out), **SWEEP_ARGS)


def test_criterion_01_features_match_direct_reference():
    rng = np.random.default_rng(2026)
    config = MfccConfig()
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n = int(float(rng.uniform(0.3, 2.0)) * SR)
        t = np.arange(n) / SR
        kind = i % 4
        if kind == 0:
            f = float(rng.uniform(80.0, 6000.0))
            x = 0.7 * np.sin(2.0 * np.pi * f * t + float(rng.uniform(0.0, 6.28)))
        elif kind == 1:
            x = 0.3 * rng.standard_normal(n)
        elif kind == 2:
            x = np.zeros(n)
            for _ in range(3):
                f = float(rng.uniform(80.0, 6000.0))
                x += float(rng.uniform(0.2, 1.0)) * np.sin(2.0 * np.pi * f * t)
            x += 0.05 * rng.standard_normal(n)
            x *= 0.8 / np.abs(x).max()
        else:
            center = float(rng.uniform(300.0, 3000.0))
            ((_, x),) = synth._wandering(rng, [(center, None)], 1, n, 0.9, SR)
        got = extract_features(AudioSignal(x, SR), config)
        want = reference.features39_ref(x, SR, config)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    verdict(
        1,
        [("max |difference| <= 1e-6", worst <= 1e-6), ("under 60 s", elapsed < 60.0)],
        f"20 signals, max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_mean_subtraction_properties():
    rng = np.random.default_rng(7)
    checks = {"zero column means": True, "shift invariant": True, "idempotent": True}
    for _ in range(100):
        frames = int(rng.integers(1, 200))
        x = rng.normal(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 3.0)), (frames, 39))
        y = cepstral_mean_subtract(x)
        if np.abs(y.mean(axis=0)).max() > 1e-10:
            checks["zero column means"] = False
        shift = rng.uniform(-10.0, 10.0, 39)
        if np.abs(cepstral_mean_subtract(x + shift) - y).max() > 1e-10:
            checks["shift invariant"] = False
        if np.abs(cepstral_mean_subtract(y) - y).max() > 1e-10:
            checks["idempotent"] = False
    verdict(2, list(checks.items()), "100 random matrices, tolerance 1e-10")


def test_criterion_03_density_matches_direct_summation():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(m))
        means = rng.uniform(-3.0, 3.0, (m, dim))
        variances = rng.uniform(0.2, 4.0, (m, dim))
        model = GmmModel(weights, means, variances)
        x = rng.uniform(-4.0, 4.0, dim)
        got = log_likelihood_sequence(model, x[None, :])
        want = reference.gmm_density_ref(weights, means, variances, x)
        worst = max(worst, abs(got - want) / abs(want))
    verdict(
        3,
        [("relative error <= 1e-9", worst <= 1e-9)],
        f"500 model/vector pairs, worst {worst:.2e}",
    )


def test_criterion_04_em_is_monotone_and_recovers_bimodal_data():
    started = time.perf_counter()
    monotone = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        component = rng.integers(0, 2, 2000)
        data = (component * 10.0 - 5.0 + rng.standard_normal(2000))[:, None]
        for m in (1, 2, 4, 8):
            _, trace = em_fit(data, TrainConfig(num_components=m, rng_seed=seed))
            if len(trace) > 1 and float(np.diff(trace).min()) < -1e-8:
                monotone = False

    rng = np.random.default_rng(0)
    component = rng.integers(0, 2, 2000)
    data = (component * 10.0 - 5.0 + rng.standard_normal(2000))[:, None]
    model, _ = em_fit(data, TrainConfig(num_components=2, rng_seed=0))
    order = np.argsort(model.means[:, 0])
    mean_err = float(np.abs(model.means[order, 0] - [-5.0, 5.0]).max())
    weight_err = float(np.abs(model.weights - 0.5).max())
    elapsed = time.perf_counter() - started
    verdict(
        4,
        [
            ("log-likelihood nondecreasing (3 seeds x M in 1,2,4,8)", monotone),
            ("means within 0.3", mean_err <= 0.3),
            ("weights within 0.05", weight_err <= 0.05),
            ("under 60 s", elapsed < 60.0),
        ],
        f"mean err {mean_err:.3f}, weight err {weight_err:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_synthetic_corpus_accuracy_and_sweep(small_corpus, sweep_corpus):
    started = time.perf_counter()
    manifest = load_manifest(small_corpus.manifest_path)
    accuracies = {}
    for m in (1, 2, 4):
        bundle = train_bundle(manifest, MfccConfig(), TrainConfig(num_components=m, rng_seed=0))
        accuracies[m] = evaluate(bundle, manifest).accuracy

    base = TrainConfig(
        num_components=1,
        max_em_iterations=8,
        convergence_tol=1e-12,
        kmeans_max_iterations=8,
        rng_seed=0,
    )
    big = load_manifest(sweep_corpus.manifest_path)
    rows = sweep_mixtures(big, big, MfccConfig(), base, [16, 32, 64, 128, 256])
    elapsed = time.perf_counter() - started

    seconds = [row.seconds for row in rows]
    acc_text = " ".join(f"M{m}={a:.3f}" for m, a in accuracies.items())
    row_text = " ".join(f"{r.num_components}:{r.accuracy:.2f}/{r.seconds:.1f}s" for r in rows)
    verdict(
        5,
        [
            ("accuracy >= 0.95 for M in 1,2,4", all(a >= 0.95 for a in accuracies.values())),
            ("sweep covers 16..256", [r.num_components for r in rows] == [16, 32, 64, 128, 256]),
            ("no sweep row failed", all(r.error is None for r in rows)),
            ("runtime column nondecreasing", all(b >= a for a, b in zip(seconds, seconds[1:]))),
            ("under 600 s", elapsed < 600.0),
        ],
        f"{acc_text}  sweep {row_text}  total {elapsed:.0f}s",
    )


def test_criterion_06_f1_from_rounded_and_exact_inputs():
    f1_direct = f1_score(0.82, 0.89)
    accuracy, precision, recall, f1_counts = metrics_from_counts(7298, 1602, 902, 90198)
    verdict(
        6,
        [
            ("round(f1(0.82, 0.89), 2) == 0.85", round(f1_direct, 2) == 0.85),
            ("counts give precision 0.82", precision == 0.82),
            ("counts give recall 0.89", recall == 0.89),
            ("counts give the same f1", round(f1_counts, 2) == 0.85),
            ("accuracy in range", 0.0 <= accuracy <= 1.0),
        ],
        f"f1 {f1_direct:.6f}",
    )


def test_criterion_07_lp_solver_reference_checks():
    from dialectid.nasalization import autocorrelation, levinson_durbin
    from scipy.signal import lfilter

    first = levinson_durbin(np.array([2.0, 1.0]), 1)
    first_ok = (
        abs(first.coefficients[0] - 0.5) <= 1e-10 and abs(first.gain - 1.5) <= 1e-10
    )

    denom = reference.two_pole(500.0, 0.9, SR)
    rng = np.random.default_rng(7)
    x = lfilter([1.0], denom, rng.standard_normal(16000 + 512))[512:]
    second = levinson_durbin(autocorrelation(x, 2), 2)
    second_err = float(np.abs(second.coefficients - (-denom[1:])).max())

    worst_residual = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r = autocorrelation(rng.standard_normal(400), 8)
        frame = levinson_durbin(r, 8)
        toeplitz = np.array([[r[abs(i - j)] for j in range(8)] for i in range(8)])
        residual = float(np.abs(toeplitz @ frame.coefficients - r[1:9]).max() / r[0])
        worst_residual = max(worst_residual, residual)
    verdict(
        7,
        [
            ("first-order closed form within 1e-10", first_ok),
            ("second-order recovery within 0.05", second_err <= 0.05),
            ("normal-equation residual < 1e-8 (100 frames)", worst_residual < 1e-8),
        ],
        f"order-2 err {second_err:.4f}, worst residual {worst_residual:.2e}",
    )


def test_criterion_08_low_band_resonance_detection():
    started = time.perf_counter()
    strong = analyze_segment(
        AudioSignal(reference.voiced_vowel(np.random.default_rng(0), SR), SR)
    )
    weak = analyze_segment(
        AudioSignal(reference.voiced_vowel(np.random.default_rng(11), SR, radius=0.90), SR)
    )
    comparison = compare_degree(weak, strong)
    elapsed = time.perf_counter() - started
    verdict(
        8,
        [
            ("median peak within 250 +/- 30 Hz", abs(strong.median_peak_hz - 250.0) <= 30.0),
            ("detected fraction >= 0.9", strong.detection_fraction >= 0.9),
            ("sharper resonance reads stronger", comparison.stronger is DialectLabel.CT),
            ("under 30 s", elapsed < 30.0),
        ],
        f"median {strong.median_peak_hz:.1f} Hz, fraction {strong.detection_fraction:.2f}, "
        f"margin {comparison.difference_db:.2f} dB, {elapsed:.1f}s",
    )


def test_criterion_09_pipeline_reruns_are_byte_identical(small_corpus, tmp_path):
    manifest_bytes = open(small_corpus.manifest_path, "rb").read()
    sample_wav = small_corpus.manifest.records[0].audio_path
    wav_bytes = open(sample_wav, "rb").read()
    regenerated = generate_synthetic_corpus(small_corpus.out_dir, **SMALL_ARGS)
    corpus_ok = (
        open(regenerated.manifest_path, "rb").read() == manifest_bytes
        and open(sample_wav, "rb").read() == wav_bytes
    )

    manifest = load_manifest(small_corpus.manifest_path)
    config = TrainConfig(num_components=2, rng_seed=0)
    dirs = []
    reports = []
    for name in ("run1", "run2"):
        bundle = train_bundle(manifest, MfccConfig(), config)
        out = tmp_path / name
        save_bundle(bundle, str(out))
        dirs.append(out)
        reports.append(evaluate(bundle, manifest))
    files = sorted(os.listdir(dirs[0]))
    models_ok = files == sorted(os.listdir(dirs[1])) and all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files
    )

    def decision_rows(report):
        return [
            (rec.audio_path, d.label.value, d.lt_score, d.ct_score, d.tie)
            for rec, d in report.decisions
        ]

    decisions_ok = decision_rows(reports[0]) == decision_rows(reports[1])
    summary_ok = all(
        getattr(reports[0], f) == getattr(reports[1], f)
        for f in (
            "true_positives", "false_positives", "false_negatives", "true_negatives",
            "accuracy", "precision", "recall", "f1",
        )
    )
    verdict(
        9,
        [
            ("regenerated corpus is byte-identical", corpus_ok),
            ("saved models are byte-identical", models_ok),
            ("decisions are identical", decisions_ok),
            ("report summaries are identical", summary_ok),
        ],
        f"compared {len(files)} bundle files and {len(reports[0].decisions)} decisions",
    )


def test_criterion_10_split_discipline_and_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    property_ok = True
    for trial in range(25):
        speakers = [f"s{k:02d}" for k in range(int(rng.integers(2, 10)))]
        records = []
        train_set, test_set = set(), set()
        for spk in speakers:
            dialect = DialectLabel.LT if rng.random() < 0.5 else DialectLabel.CT
            if rng.random() < 0.7:
                train_set.add(spk)
                records.append(
                    UtteranceRecord(
                        f"{trial}/{spk}-train.wav", spk, dialect, Gender.UNSPECIFIED, Split.TRAIN
                    )
                )
            if rng.random() < 0.5:
                test_set.add(spk)
                records.append(
                    UtteranceRecord(
                        f"{trial}/{spk}-test.wav", spk, dialect, Gender.UNSPECIFIED, Split.TEST
                    )
                )
        if not records:
            records.append(
                UtteranceRecord(f"{trial}/filler.wav", "s00", DialectLabel.LT,
                                Gender.UNSPECIFIED, Split.TRAIN)
            )
            train_set.add("s00")
        report = validate_split(CorpusManifest(records))
        overlap = sorted(train_set & test_set)
        if report.passed != (not overlap) or report.overlapping_speakers != overlap:
            property_ok = False

    original = CorpusManifest(
        [
            UtteranceRecord(
                str(tmp_path / "a.wav"), "spk-a", DialectLabel.LT, Gender.MALE,
                Split.TRAIN, segment=(0.1, 0.30000000000000004),
            ),
            UtteranceRecord(
                str(tmp_path / "b.wav"), "spk-b", DialectLabel.CT, Gender.FEMALE,
                Split.TEST, segment=(1.0 / 3.0, 2.0),
            ),
            UtteranceRecord(
                str(tmp_path / "c.wav"), "spk-c", DialectLabel.CT,
                Gender.UNSPECIFIED, Split.TEST,
            ),
        ]
    )
    path = tmp_path / "round_trip.tsv"
    write_manifest(original, str(path))
    round_trip_ok = load_manifest(str(path)).records == original.records
    verdict(
        10,
        [
            ("validation fails exactly on speaker overlap (25 trials)", property_ok),
            ("manifest round trip is lossless", round_trip_ok),
        ],
    )
