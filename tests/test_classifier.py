"""Classifier tests: metrics arithmetic, training, decisions, sweep, bundles."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import dialectid
from dialectid import classifier, gmm
from dialectid.classifier import (
    ClassifierBundle,
    classify_utterance,
    evaluate,
    f1_score,
    load_bundle,
    metrics_from_counts,
    save_bundle,
    sweep_mixtures,
    train_bundle,
)
from dialectid.cli import run
from dialectid.corpus import CorpusManifest, Split, load_manifest, read_audio, write_manifest
from dialectid.dsp import MfccConfig, extract_features
from dialectid.errors import (
    DialectIdError,
    EmptyTestSetError,
    MissingDialectError,
)
from dialectid.gmm import GmmModel, TrainConfig, em_fit
from dialectid.labels import DialectLabel
from dialectid.synth import generate_synthetic_corpus


@pytest.fixture(scope="module")
def bundle_m1(tiny_corpus):
    return train_bundle(
        tiny_corpus.manifest, MfccConfig(), TrainConfig(num_components=1, rng_seed=0)
    )


class TestMetrics:
    def test_perfect_counts(self):
        assert metrics_from_counts(10, 0, 0, 10) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_counts(self):
        accuracy, precision, recall, f1 = metrics_from_counts(8, 2, 1, 9)
        assert accuracy == pytest.approx(0.85)
        assert precision == pytest.approx(0.8)
        assert recall == pytest.approx(8.0 / 9.0)
        assert f1 == pytest.approx(0.8421052631578948)

    def test_zero_denominators_give_zero(self):
        accuracy, precision, recall, f1 = metrics_from_counts(0, 0, 0, 5)
        assert (accuracy, precision, recall, f1) == (1.0, 0.0, 0.0, 0.0)

    def test_published_precision_recall_pair(self):
        assert round(f1_score(0.82, 0.89), 2) == 0.85

    def test_f1_between_min_and_max(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
            if tp + fp + fn + tn == 0:
                continue
            _, precision, recall, f1 = metrics_from_counts(tp, fp, fn, tn)
            assert 0.0 <= f1 <= 1.0
            assert f1 <= max(precision, recall) + 1e-12
            if precision > 0 and recall > 0:
                assert f1 >= min(precision, recall) - 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_counts(0, 0, 0, 0)


class TestTraining:
    def test_single_component_closed_form(self, tiny_corpus):
        records = [
            tiny_corpus.manifest.subset(DialectLabel.LT, Split.TRAIN)[0],
            tiny_corpus.manifest.subset(DialectLabel.CT, Split.TRAIN)[0],
        ]
        manifest = CorpusManifest(records)
        cfg = MfccConfig()
        bundle = train_bundle(manifest, cfg, TrainConfig(num_components=1))
        for model, record in zip((bundle.lt_model, bundle.ct_model), records):
            frames = extract_features(read_audio(record.audio_path), cfg)
            assert np.allclose(model.means[0], frames.mean(axis=0), atol=1e-10)
            assert np.allclose(model.variances[0], frames.var(axis=0), atol=1e-10)
            assert model.weights[0] == 1.0

    def test_each_side_is_held_once_as_its_buffer(self, tiny_corpus, monkeypatch):
        # Each dialect's frames are the x half of its [x^2, x] buffer, and
        # the fit on that view is the fit on the frames as a matrix.
        fitted = []  # (model, frames); the two fits may end in either order

        def fit(frames, config):
            model, trace = em_fit(frames, config)
            fitted.append((model, frames))
            return model, trace

        monkeypatch.setattr(classifier, "em_fit", fit)
        config = TrainConfig(num_components=4, max_em_iterations=3, rng_seed=2)
        bundle = train_bundle(tiny_corpus.manifest, MfccConfig(), config)
        assert len(fitted) == 2
        for model, dialect in zip((bundle.lt_model, bundle.ct_model), DialectLabel):
            (side,) = [frames for fit_model, frames in fitted if fit_model is model]
            assert isinstance(side, gmm.TrainingFrames)
            assert np.shares_memory(side.data, side.x2)
            assert bundle.training[dialect.value]["frames"] == side.shape[0]
            with gmm.one_blas_thread():
                want, _ = em_fit(np.ascontiguousarray(side.data), config)
            for got_array, want_array in zip(
                (model.weights, model.means, model.variances),
                (want.weights, want.means, want.variances),
            ):
                assert np.array_equal(got_array, want_array)

    def test_dialect_models_differ(self, bundle_m1):
        gap = np.linalg.norm(bundle_m1.lt_model.means - bundle_m1.ct_model.means)
        assert gap > 0.0

    def test_missing_dialect_rejected(self, tiny_corpus):
        lt_only = CorpusManifest(tiny_corpus.manifest.subset(DialectLabel.LT))
        with pytest.raises(MissingDialectError):
            train_bundle(lt_only, MfccConfig(), TrainConfig(num_components=1))

    def test_mismatched_models_rejected(self):
        m1 = GmmModel([1.0], [[0.0] * 39], [[1.0] * 39])
        m2 = GmmModel([1.0], [[0.0] * 12], [[1.0] * 12])
        with pytest.raises(ValueError):
            ClassifierBundle(m1, m2, MfccConfig(), TrainConfig(num_components=1))


class TestDecisions:
    def test_identical_models_tie_to_lt(self, tiny_corpus, bundle_m1):
        symmetric = ClassifierBundle(
            bundle_m1.lt_model,
            bundle_m1.lt_model,
            bundle_m1.feature_config,
            bundle_m1.train_config,
        )
        record = tiny_corpus.manifest.subset(DialectLabel.CT, Split.TEST)[0]
        decision = classify_utterance(symmetric, read_audio(record.audio_path))
        assert decision.tie
        assert decision.label is DialectLabel.LT
        assert decision.lt_score == decision.ct_score

    def test_held_out_utterances_score_their_own_model_higher(self, tiny_corpus, bundle_m1):
        lt_rec = tiny_corpus.manifest.subset(DialectLabel.LT, Split.TEST)[0]
        decision = classify_utterance(bundle_m1, read_audio(lt_rec.audio_path))
        assert decision.label is DialectLabel.LT
        assert decision.lt_score > decision.ct_score

    def test_swapping_models_inverts_decisions(self, tiny_corpus, bundle_m1):
        swapped = ClassifierBundle(
            bundle_m1.ct_model,
            bundle_m1.lt_model,
            bundle_m1.feature_config,
            bundle_m1.train_config,
        )
        for record in tiny_corpus.manifest.subset(split=Split.TEST)[:6]:
            signal = read_audio(record.audio_path)
            a = classify_utterance(bundle_m1, signal)
            b = classify_utterance(swapped, signal)
            assert not a.tie
            assert b.label is not a.label
            assert b.lt_score == a.ct_score and b.ct_score == a.lt_score

    def test_total_and_per_frame_average_agree(self, tiny_corpus, bundle_m1):
        # same frame count under both models, so the argmax is scale-invariant
        record = tiny_corpus.manifest.subset(DialectLabel.CT, Split.TEST)[1]
        signal = read_audio(record.audio_path)
        decision = classify_utterance(bundle_m1, signal)
        frames = extract_features(signal, bundle_m1.feature_config).shape[0]
        avg_label = (
            DialectLabel.LT
            if decision.lt_score / frames >= decision.ct_score / frames
            else DialectLabel.CT
        )
        assert avg_label is decision.label


class TestEvaluate:
    def test_synthetic_corpus_is_separable(self, tiny_corpus, bundle_m1):
        report = evaluate(bundle_m1, tiny_corpus.manifest)
        total = (
            report.true_positives
            + report.false_positives
            + report.false_negatives
            + report.true_negatives
        )
        assert total == len(tiny_corpus.manifest.subset(split=Split.TEST))
        assert len(report.decisions) == total
        assert report.accuracy >= 0.95
        want = metrics_from_counts(
            report.true_positives,
            report.false_positives,
            report.false_negatives,
            report.true_negatives,
        )
        assert (report.accuracy, report.precision, report.recall, report.f1) == want

    def test_symmetric_bundle_accuracy_is_lt_fraction(self, tiny_corpus, bundle_m1):
        symmetric = ClassifierBundle(
            bundle_m1.lt_model,
            bundle_m1.lt_model,
            bundle_m1.feature_config,
            bundle_m1.train_config,
        )
        report = evaluate(symmetric, tiny_corpus.manifest)
        test_records = tiny_corpus.manifest.subset(split=Split.TEST)
        lt_fraction = sum(
            r.dialect is DialectLabel.LT for r in test_records
        ) / len(test_records)
        assert all(d.tie and d.predicted is DialectLabel.LT for d in report.decisions)
        assert report.accuracy == pytest.approx(lt_fraction)

    def test_no_test_utterances_rejected(self, tiny_corpus, bundle_m1):
        train_only = CorpusManifest(tiny_corpus.manifest.subset(split=Split.TRAIN))
        with pytest.raises(EmptyTestSetError):
            evaluate(bundle_m1, train_only)


class TestSweep:
    def test_single_count(self, tiny_corpus):
        rows = sweep_mixtures(
            tiny_corpus.manifest,
            tiny_corpus.manifest,
            MfccConfig(),
            TrainConfig(num_components=1, rng_seed=0),
            [1],
        )
        assert len(rows) == 1
        assert rows[0].num_components == 1
        assert rows[0].error is None
        assert rows[0].accuracy >= 0.95
        assert rows[0].seconds >= 0.0

    def test_repeated_count_is_bit_identical(self, tiny_corpus):
        rows = sweep_mixtures(
            tiny_corpus.manifest,
            tiny_corpus.manifest,
            MfccConfig(),
            TrainConfig(num_components=1, rng_seed=0),
            [4, 4],
        )
        assert rows[0].accuracy == rows[1].accuracy

    def test_oversized_count_fails_gracefully(self, tiny_corpus):
        rows = sweep_mixtures(
            tiny_corpus.manifest,
            tiny_corpus.manifest,
            MfccConfig(),
            TrainConfig(num_components=1, rng_seed=0),
            [2, 10**5],
        )
        assert rows[0].error is None and rows[0].accuracy is not None
        assert rows[1].error is not None and rows[1].accuracy is None

    def test_oversized_count_fails_only_its_own_row(self, tiny_corpus):
        manifest, config = tiny_corpus.manifest, TrainConfig(num_components=1, rng_seed=2)
        rows = sweep_mixtures(manifest, manifest, MfccConfig(), config, [2, 10**5, 4])
        alone = sweep_mixtures(manifest, manifest, MfccConfig(), config, [2, 4])
        assert rows[1].error is not None and rows[1].accuracy is None
        assert [rows[0].accuracy, rows[2].accuracy] == [r.accuracy for r in alone]
        assert rows[0].error is None and rows[2].error is None

    @pytest.mark.filterwarnings("error")
    def test_non_finite_model_fails_its_row(self, tiny_corpus):
        # A variance floor of 1e308 overflows to infinity: train refuses it,
        # and the sweep records its rows as failed, before any fit and
        # without a numpy warning.
        config = TrainConfig(num_components=1, rng_seed=0, variance_floor_factor=1e308)
        rows = sweep_mixtures(
            tiny_corpus.manifest, tiny_corpus.manifest, MfccConfig(), config, [1, 2]
        )
        message = "variance floor overflows (train.variance_floor_factor 1e+308)"
        assert [r.error for r in rows] == [message] * 2
        assert [r.accuracy for r in rows] == [None, None]

    def test_seeds_grow_row_by_row_and_never_past_the_frames(self, tiny_corpus, monkeypatch):
        # One TrainingFrames per dialect: each row picks only the seeds it
        # adds, and a count above the frame count picks none.
        made = []

        class Recorded(gmm.TrainingFrames):
            def __init__(self, data):
                super().__init__(data)
                made.append(self)

        monkeypatch.setattr(classifier, "TrainingFrames", Recorded)
        rows = sweep_mixtures(
            tiny_corpus.manifest, tiny_corpus.manifest, MfccConfig(), TrainConfig(1), [1, 2, 100000]
        )
        assert [len(seeds._order) for seeds in made] == [2, 2]
        assert [r.error is None for r in rows] == [True, True, False]

    def test_rows_hold_each_frame_set_once(self, tiny_corpus, monkeypatch):
        # Each side's frames are the x half of its [x^2, x] buffer, and the
        # test frames are one T x D matrix: when the first fit starts, the
        # sweep holds those three and little else. A second T x D copy of
        # the training frames would add half of their buffers.
        made, held = [], []

        class Recorded(gmm.TrainingFrames):
            def __init__(self, data):
                super().__init__(data)
                made.append(self)

        def fit(frames, config):
            held.append(tracemalloc.get_traced_memory()[0])
            return em_fit(frames, config)

        monkeypatch.setattr(classifier, "TrainingFrames", Recorded)
        monkeypatch.setattr(classifier, "em_fit", fit)
        # In turn, so that nothing of the CT job is allocated when LT starts.
        monkeypatch.setattr(classifier, "run_pair", lambda lt_job, ct_job: (lt_job(), ct_job()))
        test = CorpusManifest(tiny_corpus.manifest.subset(split=Split.TEST)[:2])
        args = (tiny_corpus.manifest, test, MfccConfig(), TrainConfig(1), [1])
        sweep_mixtures(*args)  # fills the front end's caches
        made.clear()
        held.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep_mixtures(*args)
        finally:
            tracemalloc.stop()
        assert len(made) == 2
        for side in made:
            assert side.x2.shape == (side.shape[0], 2 * side.shape[1])
            assert np.shares_memory(side.data, side.x2)
        test_frames = sum(
            classifier._record_features(rec, MfccConfig()).shape[0] for rec in test.records
        )
        buffers = 8 * made[0].shape[1] * (2 * (made[0].shape[0] + made[1].shape[0]) + test_frames)
        assert held[0] - before < 1.1 * buffers

    def test_scores_are_each_utterances_sequence_score(self, tiny_corpus, monkeypatch):
        # Every score a row computes is the one classify and evaluate give
        # the utterance under that row's model, to the last bit.
        scored = []

        def segments(model, frames, starts):
            scores = gmm.log_likelihood_segments(model, frames, starts)
            scored.append((model, scores))
            return scores

        monkeypatch.setattr(classifier, "log_likelihood_segments", segments)
        manifest = tiny_corpus.manifest
        sweep_mixtures(manifest, manifest, MfccConfig(), TrainConfig(1), [1, 2, 4, 16])
        features = [
            classifier._record_features(rec, MfccConfig())
            for rec in manifest.subset(split=Split.TEST)
        ]
        assert len(scored) == 8
        for model, scores in scored:
            assert scores == [gmm.log_likelihood_sequence(model, f) for f in features]

    def test_row_times_are_the_slower_dialects(self, tiny_corpus):
        (row,) = sweep_mixtures(
            tiny_corpus.manifest, tiny_corpus.manifest, MfccConfig(), TrainConfig(1), [2]
        )
        assert row.train_seconds > 0.0 and row.score_seconds > 0.0
        assert max(row.train_seconds, row.score_seconds) <= row.seconds
        assert row.seconds <= row.train_seconds + row.score_seconds

    def test_empty_counts_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            sweep_mixtures(
                tiny_corpus.manifest,
                tiny_corpus.manifest,
                MfccConfig(),
                TrainConfig(num_components=1),
                [],
            )


    def test_row_accuracy_matches_evaluate(self, tiny_corpus):
        # Flip the labels of a few test utterances so the accuracy is not 1
        # and the tally has something to count.
        flip = {DialectLabel.LT: DialectLabel.CT, DialectLabel.CT: DialectLabel.LT}
        test = tiny_corpus.manifest.subset(split=Split.TEST)
        relabeled = CorpusManifest(
            tiny_corpus.manifest.subset(split=Split.TRAIN)
            + [dataclasses.replace(r, dialect=flip[r.dialect]) for r in test[:3]]
            + test[3:]
        )
        config = TrainConfig(num_components=2, rng_seed=3)
        (row,) = sweep_mixtures(relabeled, relabeled, MfccConfig(), config, [2])
        report = evaluate(train_bundle(relabeled, MfccConfig(), config), relabeled)
        assert report.accuracy < 1.0
        assert row.accuracy == report.accuracy


class TestBundlePersistence:
    def test_round_trip(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        back = load_bundle(out)
        assert np.array_equal(back.lt_model.means, bundle_m1.lt_model.means)
        assert np.array_equal(back.ct_model.variances, bundle_m1.ct_model.variances)
        assert back.feature_config == bundle_m1.feature_config
        assert back.train_config == bundle_m1.train_config

    def test_unrecognized_descriptor_rejected(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        blob["format"] = "something-else"
        desc.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(DialectIdError):
            load_bundle(out)

    def test_corrupt_descriptor_rejected(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        (out / "bundle.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(DialectIdError):
            load_bundle(out)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("lt_model", None),
            ("lt_model", ""),
            ("lt_model", "."),
            ("ct_model", ".."),
            ("ct_model", "../ct.gmm"),
            ("ct_model", "sub/ct.gmm"),
            ("lt_model", "sub\\lt.gmm"),
            ("lt_model", "lt.gmm\0"),
            ("lt_model", 7),
        ],
    )
    def test_model_names_must_be_plain_file_names(self, tmp_path, bundle_m1, key, value):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        if value is None:
            del blob[key]
        else:
            blob[key] = value
        desc.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(DialectIdError, match=key):
            load_bundle(out)

    def test_missing_member_is_a_bundle_error(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        os.remove(out / "ct.gmm")
        with pytest.raises(DialectIdError, match="ct_model 'ct.gmm'"):
            load_bundle(out)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("feature_config", "delta_window", 2.0),
            ("feature_config", "delta_window", 10**8),
            ("feature_config", "fft_size", True),
            ("feature_config", "frame_length_ms", "25"),
            ("train_config", "num_components", 1.5),
        ],
    )
    def test_config_values_of_the_wrong_kind_rejected(
        self, tmp_path, bundle_m1, section, key, value
    ):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        blob[section][key] = value
        desc.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(DialectIdError, match=key):
            load_bundle(out)

    def test_absolute_model_path_outside_bundle_rejected(self, tmp_path, bundle_m1):
        outside = tmp_path / "elsewhere"
        save_bundle(bundle_m1, outside)
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        blob["lt_model"] = str(outside / "lt.gmm")
        desc.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(DialectIdError, match="lt_model"):
            load_bundle(out)

    @pytest.mark.parametrize("payload", ["[]", '["dialectid-bundle", 1]', "3", '"bundle"', "null"])
    def test_descriptor_must_be_a_json_object(self, tmp_path, bundle_m1, payload):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        (out / "bundle.json").write_text(payload, encoding="utf-8")
        with pytest.raises(DialectIdError, match="JSON object"):
            load_bundle(out)

    def test_undecodable_descriptor_rejected(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        (out / "bundle.json").write_bytes(b"\xff\xfe{")
        with pytest.raises(DialectIdError):
            load_bundle(out)

    def test_config_that_contradicts_the_models_rejected(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        blob["feature_config"]["num_cepstra"] = 12
        desc.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(DialectIdError, match="dims"):
            load_bundle(out)

    def test_descriptor_records_each_dialects_fit(self, tmp_path, tiny_corpus, bundle_m1):
        save_bundle(bundle_m1, tmp_path / "bundle")
        blob = json.loads((tmp_path / "bundle" / "bundle.json").read_text(encoding="utf-8"))
        assert sorted(blob["training"]) == ["CT", "LT"]
        for dialect in DialectLabel:
            frames = np.vstack(
                [
                    extract_features(read_audio(r.audio_path))
                    for r in tiny_corpus.manifest.subset(dialect, Split.TRAIN)
                ]
            )
            with gmm.one_blas_thread():
                _, trace = em_fit(frames, bundle_m1.train_config)
            assert blob["training"][dialect.value] == {
                "frames": frames.shape[0],
                "em_iterations": len(trace),
                "final_log_likelihood_per_frame": trace[-1] / frames.shape[0],
            }

    def test_descriptor_is_written_last(self, tmp_path, bundle_m1, monkeypatch):
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        save_bundle(bundle_m1, tmp_path / "bundle")
        assert replaced == ["lt.gmm", "ct.gmm", "bundle.json"]

    def test_failed_replace_keeps_the_old_bundle(
        self, tmp_path, tiny_corpus, bundle_m1, monkeypatch
    ):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        other = train_bundle(
            tiny_corpus.manifest, MfccConfig(), TrainConfig(num_components=2, rng_seed=1)
        )

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_bundle(other, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_descriptor_holds_each_model_files_sha256(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        blob = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
        for key in ("lt_model", "ct_model"):
            digest = hashlib.sha256((out / blob[key]).read_bytes()).hexdigest()
            assert blob[f"{key}_sha256"] == digest

    def test_bundle_without_digests_still_loads(self, tmp_path, bundle_m1):
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        desc = out / "bundle.json"
        blob = json.loads(desc.read_text(encoding="utf-8"))
        del blob["lt_model_sha256"], blob["ct_model_sha256"]
        desc.write_text(json.dumps(blob), encoding="utf-8")
        back = load_bundle(out)
        assert np.array_equal(back.lt_model.means, bundle_m1.lt_model.means)
        assert np.array_equal(back.ct_model.means, bundle_m1.ct_model.means)

    def test_model_left_from_a_failed_save_is_refused(
        self, tmp_path, tiny_corpus, bundle_m1, monkeypatch, capsys
    ):
        # Re-saving with the models swapped: the second os.replace (ct.gmm)
        # fails, leaving the new lt.gmm beside the old ct.gmm and old
        # descriptor. The sizes agree, so only the digests can tell.
        out = tmp_path / "bundle"
        save_bundle(bundle_m1, out)
        swapped = ClassifierBundle(
            bundle_m1.ct_model, bundle_m1.lt_model, MfccConfig(), bundle_m1.train_config
        )
        real_replace = os.replace
        calls = []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("replace refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        with pytest.raises(OSError, match="replace refused"):
            save_bundle(swapped, out)
        monkeypatch.setattr(os, "replace", real_replace)
        with pytest.raises(DialectIdError, match="lt.gmm: SHA-256 does not match"):
            load_bundle(out)
        wav = tiny_corpus.manifest.records[0].audio_path
        capsys.readouterr()
        assert run(["classify", "--bundle", str(out), "--audio", wav]) == 1
        assert "SHA-256" in capsys.readouterr().err


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory):
    """More than BLOCK_FRAMES training frames per dialect, so the E-step
    statistics of a fit add up more than one block."""
    out = tmp_path_factory.mktemp("long_corpus")
    result = generate_synthetic_corpus(
        str(out),
        seed=9,
        train_per_class=9,
        test_per_class=1,
        utterance_seconds=5.0,
        utterances_per_speaker=3,
    )
    for dialect in DialectLabel:
        records = result.manifest.subset(dialect, Split.TRAIN)
        frames = sum(extract_features(read_audio(r.audio_path)).shape[0] for r in records)
        assert frames > gmm.BLOCK_FRAMES
    return result


class TestTrainingThreads:
    # Trains M = 16 and M = 256 bundles through the CLI and prints a digest
    # line per model file. argv[1] "sequential" hides the second CPU, which
    # makes run_pair fit LT and CT one after the other.
    PROBE = (
        "import hashlib, os, sys\n"
        "if sys.argv[1] == 'sequential':\n"
        "    os.sched_getaffinity = lambda pid: {0}\n"
        "from dialectid.cli import run\n"
        "manifest, config, out = sys.argv[2:]\n"
        "for m in ('16', '256'):\n"
        "    bundle = os.path.join(out, sys.argv[1] + m)\n"
        "    argv = ['train', '--manifest', manifest, '--components', m,\n"
        "            '--config', config, '--out', bundle]\n"
        "    assert run(argv) == 0\n"
        "    for name in ('lt.gmm', 'ct.gmm'):\n"
        "        with open(os.path.join(bundle, name), 'rb') as fh:\n"
        "            print('digest', m, name, hashlib.sha256(fh.read()).hexdigest())\n"
    )

    def test_model_bytes_identical_across_blas_threads_and_layouts(self, long_corpus, tmp_path):
        src = os.path.dirname(os.path.dirname(dialectid.__file__))
        config = tmp_path / "train.cfg"
        config.write_text(
            "train.max_em_iterations = 4\n"
            "train.kmeans_max_iterations = 4\n"
            "train.convergence_tol = 1e-12\n"
        )
        digests = {}
        for threads, layout in (("1", "concurrent"), ("2", "concurrent"), ("2", "sequential")):
            done = subprocess.run(
                [
                    sys.executable, "-c", self.PROBE, layout,
                    long_corpus.manifest_path, str(config), str(tmp_path / threads),
                ],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            digests[threads, layout] = [
                line for line in done.stdout.splitlines() if line.startswith("digest ")
            ]
        assert len(next(iter(digests.values()))) == 4
        assert len(set(map(tuple, digests.values()))) == 1, digests

    def test_blas_thread_count_is_restored(self, tiny_corpus):
        handles = gmm._openblas_thread_functions()
        if handles is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
        get, set_ = handles
        saved = get()
        set_(2)
        try:
            train_bundle(tiny_corpus.manifest, MfccConfig(), TrainConfig(num_components=1))
            assert get() == 2
            rows = sweep_mixtures(
                tiny_corpus.manifest,
                tiny_corpus.manifest,
                MfccConfig(),
                TrainConfig(num_components=1),
                [1, 5000],
            )
            assert rows[0].error is None and rows[1].error is not None
            assert get() == 2
        finally:
            set_(saved)


def run_mode(monkeypatch, mode):
    """Make run_pair use two threads ("threads"), run in turn on one CPU
    ("one-cpu") or run in turn without the OpenBLAS setter ("no-setter").
    Returns the list that collects the names of started worker threads."""
    if mode == "threads":
        if gmm._openblas_thread_functions() is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
        monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0, 1})
    elif mode == "one-cpu":
        monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(gmm, "_openblas_thread_functions", lambda: None)
    started = []
    real_thread = threading.Thread

    def counted(*args, **kwargs):
        started.append(kwargs.get("name"))
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(gmm.threading, "Thread", counted)
    return started


MODES = ["threads", "one-cpu", "no-setter"]

# The wall-clock fields of a sweep record; every other field is deterministic.
SWEEP_TIMING_KEYS = {"seconds", "train_seconds", "score_seconds"}


@pytest.fixture(scope="module")
def relabeled_manifest_path(tiny_corpus, tmp_path_factory):
    """tiny_corpus with three test labels flipped, so sweep accuracies are
    below 1 and depend on every score."""
    flip = {DialectLabel.LT: DialectLabel.CT, DialectLabel.CT: DialectLabel.LT}
    test = tiny_corpus.manifest.subset(split=Split.TEST)
    manifest = CorpusManifest(
        tiny_corpus.manifest.subset(split=Split.TRAIN)
        + [dataclasses.replace(r, dialect=flip[r.dialect]) for r in test[:3]]
        + test[3:]
    )
    path = tmp_path_factory.mktemp("relabeled") / "manifest.tsv"
    write_manifest(manifest, path)
    return str(path)


def with_bad_records(manifest, tmp_path, picks):
    """manifest whose (dialect, split, k)-th records point at unreadable files."""
    records = list(manifest.records)
    for dialect, split, k in picks:
        rec = manifest.subset(dialect, split)[k]
        bad = tmp_path / f"bad-{dialect.value}-{split.value}-{k}.wav"
        bad.write_bytes(b"not a wav file")
        records[records.index(rec)] = dataclasses.replace(rec, audio_path=str(bad))
    return CorpusManifest(records)


LT, CT, TRAIN, TEST = DialectLabel.LT, DialectLabel.CT, Split.TRAIN, Split.TEST


class TestStagesOnTwoThreads:
    def test_sweep_records_identical_in_every_mode(
        self, relabeled_manifest_path, tmp_path, monkeypatch, capsys
    ):
        outputs = {}
        for mode in MODES:
            with monkeypatch.context() as patch:
                started = run_mode(patch, mode)
                out = tmp_path / f"{mode}.jsonl"
                argv = ["sweep", "--manifest", relabeled_manifest_path, "--components",
                        "1,2,4,5000", "--seed", "3", "--format", "records", "--output", str(out)]
                assert run(argv) == 0
            assert bool(started) == (mode == "threads")
            outputs[mode] = [
                {k: v for k, v in json.loads(line).items() if k not in SWEEP_TIMING_KEYS}
                for line in out.read_text(encoding="utf-8").splitlines()
            ]
        rows = outputs["threads"]
        assert [r["num_components"] for r in rows] == [1, 2, 4, 5000]
        assert any(0.0 < (r["accuracy"] or 0.0) < 1.0 for r in rows)
        assert rows[-1]["error"] is not None
        assert outputs["one-cpu"] == rows and outputs["no-setter"] == rows

    @pytest.mark.parametrize("mode", MODES)
    def test_row_errors_and_unexpected_errors_keep_sequential_order(
        self, tiny_corpus, monkeypatch, mode
    ):
        # LT fails with a domain error at M=2 and CT with an unexpected one:
        # the row records LT's. CT fails unexpectedly at M=4 and LT at M=8:
        # the earlier row's error is the one raised. No dialect fits a row
        # after the row that raised.
        lt_frames = classifier._training_sides(tiny_corpus.manifest, MfccConfig())[0].data
        real = classifier.em_fit
        fitted = []

        def failing(frames, config):
            side = "lt" if np.array_equal(frames.data, lt_frames) else "ct"
            fitted.append((side, config.num_components))
            failure = {
                ("lt", 2): DialectIdError("lt 2"),
                ("ct", 2): RuntimeError("ct 2"),
                ("ct", 4): RuntimeError("ct 4"),
                ("lt", 8): RuntimeError("lt 8"),
            }.get((side, config.num_components))
            if failure is not None:
                raise failure
            return real(frames, config)

        monkeypatch.setattr(classifier, "em_fit", failing)
        manifest = tiny_corpus.manifest
        with monkeypatch.context() as patch:
            run_mode(patch, mode)
            rows = sweep_mixtures(manifest, manifest, MfccConfig(), TrainConfig(1), [1, 2, 3])
            assert [r.error for r in rows] == [None, "lt 2", None]
            assert ("ct", 3) in fitted
            fitted.clear()
            with pytest.raises(RuntimeError, match="ct 4"):
                sweep_mixtures(manifest, manifest, MfccConfig(), TrainConfig(1), [1, 4, 8, 2])
            assert ("ct", 8) not in fitted and ("ct", 2) not in fitted
            fitted.clear()
            with pytest.raises(RuntimeError, match="lt 8"):
                sweep_mixtures(manifest, manifest, MfccConfig(), TrainConfig(1), [8, 4, 1])
            assert ("lt", 4) not in fitted and ("lt", 1) not in fitted
            assert ("ct", 4) not in fitted and ("ct", 1) not in fitted

    @pytest.mark.parametrize(
        "picks, culprit",
        [
            ([(CT, TRAIN, 5), (LT, TRAIN, 6)], (LT, TRAIN, 6)),
            ([(CT, TRAIN, 5)], (CT, TRAIN, 5)),
            ([(CT, TEST, 1), (LT, TEST, 3)], (LT, TEST, 3)),
            ([(CT, TEST, 4)], (CT, TEST, 4)),
            ([(LT, TEST, 0), (CT, TRAIN, 0)], (CT, TRAIN, 0)),
        ],
    )
    def test_first_bad_record_in_sequential_order_is_reported(
        self, tiny_corpus, tmp_path, monkeypatch, picks, culprit
    ):
        manifest = with_bad_records(tiny_corpus.manifest, tmp_path, picks)
        dialect, split, k = culprit
        want = f"bad-{dialect.value}-{split.value}-{k}.wav"
        handles = gmm._openblas_thread_functions()
        saved = handles[0]() if handles else None
        calls = [lambda: sweep_mixtures(manifest, manifest, MfccConfig(), TrainConfig(1), [1])]
        if split is TRAIN:
            calls.append(lambda: train_bundle(manifest, MfccConfig(), TrainConfig(1)))
        for mode in MODES:
            with monkeypatch.context() as patch:
                run_mode(patch, mode)
                for call in calls:
                    with pytest.raises(DialectIdError) as caught:
                        call()
                    assert os.path.basename(str(caught.value).split(":")[0]) == want, mode
            if handles:
                assert handles[0]() == saved
