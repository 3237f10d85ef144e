"""End-to-end command-line flows driven through run(argv)."""

import dataclasses
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dialectid
import reference
from dialectid import nasalization
from dialectid.classifier import ClassifierBundle, save_bundle
from dialectid.cli import run
from dialectid.corpus import (
    CorpusManifest, Split, load_manifest, read_audio, write_manifest, write_wav,
)
from dialectid.dsp import AudioSignal, MfccConfig, extract_features, extract_segment, read_features
from dialectid.gmm import GmmModel, TrainConfig
from dialectid.nasalization import NasalConfig, segment_lp_spectra
from dialectid.synth import generate_synthetic_corpus

SR = 16000


def records_from(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def bundle_dir(tiny_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-bundle") / "m1"
    code = run(
        [
            "train",
            "--manifest", tiny_corpus.manifest_path,
            "--components", "1",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def vowel_wav(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("cli-nasal") / "vowel.wav"
    write_wav(str(path), AudioSignal(reference.voiced_vowel(rng, SR), SR))
    return str(path)


class TestUsageErrors:
    def test_no_command(self):
        assert run([]) == 2

    # --seed goes only with the commands that seed an RNG (synth, train,
    # sweep), --config only with those that build a config (extract, train,
    # sweep, nasal).
    @pytest.mark.parametrize(
        "argv, flag",
        [
            *((argv, "--seed") for argv in (
                ["extract", "--audio", "a.wav", "--out", "a.feat"],
                ["classify", "--bundle", "bundle", "--audio", "a.wav"],
                ["evaluate", "--bundle", "bundle", "--manifest", "m.tsv"],
                ["nasal", "--audio", "a.wav"],
                ["validate", "--manifest", "m.tsv"],
                ["stats", "--manifest", "m.tsv"],
            )),
            *((argv, "--config") for argv in (
                ["classify", "--bundle", "bundle", "--audio", "a.wav"],
                ["evaluate", "--bundle", "bundle", "--manifest", "m.tsv"],
                ["validate", "--manifest", "m.tsv"],
                ["stats", "--manifest", "m.tsv"],
                ["synth", "--out", "corpus"],
            )),
        ],
        ids=lambda value: value[2:] if isinstance(value, str) else value[0],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv, flag):
        assert run([*argv, flag, "1"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"dialectid: error: unrecognized arguments: {flag} 1"
        ]
        assert "Traceback" not in err

    def test_unknown_flag(self, tiny_corpus):
        assert run(["stats", "--manifest", tiny_corpus.manifest_path, "--bogus"]) == 2

    def test_missing_required_argument(self):
        assert run(["extract", "--audio", "x.wav"]) == 2

    def test_bad_component_list(self, tiny_corpus):
        code = run(
            ["sweep", "--manifest", tiny_corpus.manifest_path, "--components", "1,x"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sweep", "--manifest", "{manifest}", "--components", "0,16"], 2),
            (["train", "--manifest", "{manifest}", "--components", "0", "--out", "{out}"], 2),
            (["synth", "--out", "{out}", "--train-per-class", "0"], 2),
            (["synth", "--out", "{out}", "--test-per-class", "0"], 2),
            (["synth", "--out", "{out}", "--per-speaker", "0"], 2),
            (["synth", "--out", "{out}", "--seconds", "-1"], 2),
            (["synth", "--out", "{out}", "--seconds", "inf"], 2),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{dup_cfg}"], 1),
            (["nasal", "--lt-audio", "{wav}", "--ct-audio", "{wav}", "--dump-spectra", "{out}"], 2),
            (["nasal", "--lt-audio", "{wav}", "--ct-audio", "{wav}", "--start", "0.1"], 2),
            (["nasal", "--lt-audio", "{wav}", "--ct-audio", "{wav}", "--end", "0.5"], 2),
            (["nasal", "--audio", "{wav}", "--lt-start", "0.1"], 2),
            (["nasal", "--audio", "{wav}", "--lt-end", "0.5"], 2),
            (["nasal", "--audio", "{wav}", "--ct-start", "0.1"], 2),
            (["nasal", "--audio", "{wav}", "--ct-end", "0.5"], 2),
            (["synth", "--out", "{out}", "--seed", "-1"], 2),
            (["train", "--manifest", "{manifest}", "--components", "1", "--out", "{out}",
              "--seed", "-1"], 2),
            (["train", "--manifest", "{manifest}", "--components", "1", "--out", "{out}",
              "--config", "{neg_seed_cfg}"], 1),
            (["synth", "--out", "{out}", "--seconds", "0.00001"], 2),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{neg_seed_cfg}"], 1),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{bad_nasal_cfg}"], 1),
            (["nasal", "--audio", "{wav}", "--output", "{out}", "--config", "{neg_seed_cfg}"], 1),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{mfcc_shift_cfg}"], 1),
            (["nasal", "--audio", "{wav}", "--output", "{out}", "--config", "{nasal_shift_cfg}"],
             1),
            (["classify", "--bundle", "{shift_bundle}", "--audio", "{wav}", "--output", "{out}"],
             1),
            (["nasal", "--audio", "{wav}", "--output", "{out}", "--config", "{lpc400_cfg}"], 1),
            (["nasal", "--audio", "{wav}", "--output", "{out}", "--config", "{lpc320_cfg}"], 1),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{huge_delta_cfg}"], 1),
            (["stats", "--manifest", "{nul_manifest}"], 1),
            (["train", "--manifest", "{nul_manifest}", "--components", "1", "--out", "{out}"], 1),
            (["extract", "--audio", "{wav}", "--out", "{out}", "--config", "{mel257_cfg}"], 1),
            (["nasal", "--audio", "{wav}", "--output", "{out}", "--config", "{lpc513_cfg}"], 1),
            # Above synth.MAX_UTTERANCE_SECONDS: the first float past 600, and
            # two whose sample counts used to end in an OverflowError traceback.
            (["synth", "--out", "{out}", "--seconds", "600.0000000000001"], 2),
            (["synth", "--out", "{out}", "--seconds", "1e300"], 2),
            (["synth", "--out", "{out}", "--seconds", "1e308"], 2),
        ],
        ids=[
            "sweep-zero-components", "train-zero-components", "synth-zero-train",
            "synth-zero-test", "synth-zero-per-speaker", "synth-negative-seconds",
            "synth-infinite-seconds", "duplicate-config-key", "pair-with-dump-spectra",
            "pair-with-start", "pair-with-end", "single-with-lt-start", "single-with-lt-end",
            "single-with-ct-start", "single-with-ct-end", "synth-negative-seed",
            "train-negative-seed", "train-negative-rng-seed-config", "synth-sub-sample-seconds",
            "extract-negative-rng-seed-config", "extract-zero-lpc-order-config",
            "nasal-negative-rng-seed-config", "extract-sub-sample-shift-config",
            "nasal-sub-sample-shift-config", "classify-sub-sample-shift-bundle",
            "nasal-lpc-order-above-frame-config", "nasal-lpc-order-equal-to-frame-config",
            "extract-huge-delta-window-config", "stats-nul-in-audio-path",
            "train-nul-in-audio-path", "extract-mel-filters-above-cap-config",
            "nasal-lpc-order-above-cap-config", "synth-seconds-just-above-cap",
            "synth-seconds-1e300", "synth-seconds-1e308",
        ],
    )
    def test_rejected_invocations_exit_cleanly(
        self, tiny_corpus, bundle_dir, vowel_wav, tmp_path, capsys, argv, code
    ):
        out = tmp_path / "out"
        fill = {"{manifest}": tiny_corpus.manifest_path, "{wav}": vowel_wav, "{out}": str(out)}
        configs = {
            "dup": "mfcc.frame_shift_ms = 10\nmfcc.frame_shift_ms = 20\n",
            "neg_seed": "train.rng_seed = -3\n",
            "bad_nasal": "mfcc.frame_shift_ms = 10\nnasal.lpc_order = 0\n",
            # 0.01 ms is 0.16 samples at 16 kHz; a nasal frame is 320 samples.
            "mfcc_shift": "mfcc.frame_shift_ms = 0.01\n",
            "nasal_shift": "nasal.frame_shift_ms = 0.01\n",
            "lpc400": "nasal.lpc_order = 400\n",
            "lpc320": "nasal.lpc_order = 320\n",
            "huge_delta": "mfcc.delta_window = 100000000\n",
            # Above MAX_MEL_FILTERS and MAX_LPC_ORDER, though each fits its FFT and frame.
            "mel257": "mfcc.num_mel_filters = 257\n",
            "lpc513": "nasal.lpc_order = 513\nnasal.frame_length_ms = 40\n",
        }
        for name, text in configs.items():
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            fill[f"{{{name}_cfg}}"] = str(path)
        shift_bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, shift_bundle)
        descriptor = json.loads((shift_bundle / "bundle.json").read_text(encoding="utf-8"))
        descriptor["feature_config"]["frame_shift_ms"] = 0.01
        (shift_bundle / "bundle.json").write_text(json.dumps(descriptor), encoding="utf-8")
        fill["{shift_bundle}"] = str(shift_bundle)
        nul_manifest = tmp_path / "nul.tsv"
        nul_manifest.write_text("a\x00b.wav\tspk1\tLT\tmale\ttrain\n", encoding="utf-8")
        fill["{nul_manifest}"] = str(nul_manifest)
        assert run([fill.get(arg, arg) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not out.exists()


class TestExtract:
    def test_binary_output_round_trips(self, tiny_corpus, tmp_path):
        wav = tiny_corpus.manifest.records[0].audio_path
        out = tmp_path / "feat.bin"
        rec_path = tmp_path / "records.jsonl"
        code = run(
            [
                "extract", "--audio", wav, "--out", str(out),
                "--format", "records", "--output", str(rec_path),
            ]
        )
        assert code == 0
        stored = read_features(str(out))
        direct = extract_features(read_audio(wav), MfccConfig())
        assert np.array_equal(stored, direct)
        (record,) = records_from(rec_path)
        assert record["num_frames"] == direct.shape[0]
        assert record["dim"] == 39

    def test_csv_output(self, tiny_corpus, tmp_path):
        wav = tiny_corpus.manifest.records[0].audio_path
        out = tmp_path / "feat.csv"
        assert run(["extract", "--audio", wav, "--out", str(out), "--csv"]) == 0
        stored = np.loadtxt(str(out), delimiter=",")
        direct = extract_features(read_audio(wav), MfccConfig())
        np.testing.assert_allclose(stored, direct, rtol=0.0, atol=1e-12)

    def test_missing_audio_is_a_data_error(self, tmp_path, capsys):
        code = run(
            ["extract", "--audio", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_changes_framing(self, tiny_corpus, tmp_path):
        wav = tiny_corpus.manifest.records[0].audio_path
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("# wider hop\nmfcc.frame_shift_ms = 20\n")
        for name, extra in (("a", []), ("b", ["--config", str(cfg)])):
            rec = tmp_path / f"{name}.jsonl"
            code = run(
                [
                    "extract", "--audio", wav, "--out", str(tmp_path / f"{name}.bin"),
                    "--format", "records", "--output", str(rec), *extra,
                ]
            )
            assert code == 0
        default = records_from(tmp_path / "a.jsonl")[0]["num_frames"]
        wide = records_from(tmp_path / "b.jsonl")[0]["num_frames"]
        assert wide < default

    def test_config_with_a_byte_order_mark_is_read(self, tiny_corpus, tmp_path):
        wav = tiny_corpus.manifest.records[0].audio_path
        frames = []
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"{mark}mfcc.frame_shift_ms = 20\n", encoding="utf-8")
            rec = tmp_path / f"{name}.jsonl"
            code = run(
                [
                    "extract", "--audio", wav, "--out", str(tmp_path / f"{name}.bin"),
                    "--format", "records", "--output", str(rec), "--config", str(cfg),
                ]
            )
            assert code == 0
            frames.append(records_from(rec)[0]["num_frames"])
        assert frames[0] == frames[1]

    @pytest.mark.parametrize(
        "line",
        [
            "mfcc.bogus = 1",
            "train.bogus = 1",
            "nonsense.key = 1",
            "no equals sign here",
            "mfcc.num_filters = abc",
            "mfcc.num_filters = 0",
            "mfcc.frame_length_ms = inf",
            "mfcc.frame_length_ms = 40",
            "mfcc.high_freq_hz = 9000",
        ],
    )
    def test_bad_config_lines(self, tiny_corpus, tmp_path, line, capsys):
        wav = tiny_corpus.manifest.records[0].audio_path
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run(
            [
                "extract", "--audio", wav, "--out", str(tmp_path / "o.bin"),
                "--config", str(cfg),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


    def test_duplicate_config_key_is_a_data_error(self, tiny_corpus, tmp_path, capsys):
        wav = tiny_corpus.manifest.records[0].audio_path
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("mfcc.frame_shift_ms = 10\n# wider hop\nmfcc.frame_shift_ms = 20\n")
        code = run(
            ["extract", "--audio", wav, "--out", str(tmp_path / "o.bin"), "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'mfcc.frame_shift_ms'" in err
        assert "line 1" in err and "line 3" in err
        assert not (tmp_path / "o.bin").exists()

    def test_non_utf8_config_is_a_data_error(self, tiny_corpus, tmp_path, capsys):
        wav = tiny_corpus.manifest.records[0].audio_path
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nmfcc.frame_shift_ms = 20\n")
        code = run(
            ["extract", "--audio", wav, "--out", str(tmp_path / "o.bin"), "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err
        assert "Traceback" not in err

    def test_num_components_is_not_a_config_key(self, tiny_corpus, tmp_path, capsys):
        # --components is the one way to set the mixture size.
        cfg = tmp_path / "m.cfg"
        cfg.write_text("train.num_components = 999\n")
        code = run(
            [
                "train", "--manifest", tiny_corpus.manifest_path, "--components", "1",
                "--out", str(tmp_path / "m"), "--config", str(cfg),
            ]
        )
        assert code == 1
        assert "unknown config key 'train.num_components'" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_readme_config_example_is_accepted(self, tiny_corpus, tmp_path):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("## Config file") :]
        example = section.split("```")[1]
        assert "mfcc." in example and "train." in example and "nasal." in example
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(example)
        wav = tiny_corpus.manifest.records[0].audio_path
        code = run(
            ["extract", "--audio", wav, "--out", str(tmp_path / "o.bin"), "--config", str(cfg)]
        )
        assert code == 0


class TestTrainAndClassify:
    def test_bundle_loads_and_classifies(self, tiny_corpus, bundle_dir, tmp_path):
        lt_wav = next(
            r.audio_path
            for r in tiny_corpus.manifest.records
            if r.dialect.value == "LT" and r.split is Split.TEST
        )
        rec = tmp_path / "decision.jsonl"
        code = run(
            [
                "classify", "--bundle", bundle_dir, "--audio", lt_wav,
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        (record,) = records_from(rec)
        assert record["label"] == "LT"
        assert record["lt_score"] > record["ct_score"]
        assert record["tie"] is False

    def test_training_is_reproducible(self, tiny_corpus, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            code = run(
                [
                    "train", "--manifest", tiny_corpus.manifest_path,
                    "--components", "2", "--seed", "7", "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for piece in ("lt.gmm", "ct.gmm"):
            assert (outs[0] / piece).read_bytes() == (outs[1] / piece).read_bytes()

    def test_non_finite_train_config_is_a_data_error(self, tiny_corpus, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("train.convergence_tol = nan\n")
        code = run(
            [
                "train", "--manifest", tiny_corpus.manifest_path, "--components", "1",
                "--out", str(tmp_path / "m"), "--config", str(cfg),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "convergence_tol" in err
        assert "Traceback" not in err

    def test_segment_end_past_the_audio_trains_on_whole_files(
        self, tiny_corpus, bundle_dir, tmp_path
    ):
        with open(tiny_corpus.manifest_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        manifest = tmp_path / "to-inf.tsv"
        manifest.write_text("".join(f"{line}\t0\tinf\n" for line in lines), encoding="utf-8")
        out = tmp_path / "m"
        code = run(
            [
                "train", "--manifest", str(manifest), "--components", "1",
                "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        for piece in ("lt.gmm", "ct.gmm"):
            assert (out / piece).read_bytes() == (Path(bundle_dir) / piece).read_bytes()

    def test_fft_size_above_the_cap_is_a_data_error(
        self, bundle_dir, tiny_corpus, tmp_path, capsys
    ):
        cfg = tmp_path / "big-fft.cfg"
        cfg.write_text(f"mfcc.fft_size = {2**22}\n")
        code = run(
            [
                "train", "--manifest", tiny_corpus.manifest_path, "--components", "1",
                "--out", str(tmp_path / "m"), "--config", str(cfg),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fft_size" in err
        out = tmp_path / "bundle"
        shutil.copytree(bundle_dir, out)
        descriptor = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
        descriptor["feature_config"]["fft_size"] = 2**22
        (out / "bundle.json").write_text(json.dumps(descriptor), encoding="utf-8")
        wav = tiny_corpus.manifest.records[0].audio_path
        assert run(["classify", "--bundle", str(out), "--audio", wav]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fft_size" in err and "bundle.json" in err

    def test_corrupt_bundle_is_a_data_error(self, bundle_dir, tiny_corpus, tmp_path, capsys):
        wav = tiny_corpus.manifest.records[0].audio_path
        assert run(["classify", "--bundle", str(tmp_path / "missing"), "--audio", wav]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: {k: v for k, v in d.items() if k != "lt_model"},
            lambda d: [d],
            lambda d: {**d, "lt_model": "/lt.gmm"},
            lambda d: {**d, "ct_model": "../ct.gmm"},
            lambda d: {**d, "feature_config": {**d["feature_config"], "high_freq_hz": 9000.0}},
            lambda d: {**d, "train_config": {**d["train_config"], "rng_seed": -1}},
        ],
        ids=[
            "no-lt-model", "json-list", "absolute-path", "parent-dir", "above-nyquist",
            "negative-rng-seed",
        ],
    )
    def test_malformed_bundle_descriptor_is_a_data_error(
        self, bundle_dir, tiny_corpus, tmp_path, capsys, edit
    ):
        out = tmp_path / "bundle"
        shutil.copytree(bundle_dir, out)
        descriptor = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
        (out / "bundle.json").write_text(json.dumps(edit(descriptor)), encoding="utf-8")
        wav = tiny_corpus.manifest.records[0].audio_path
        assert run(["classify", "--bundle", str(out), "--audio", wav]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bundle.json" in err
        assert "Traceback" not in err


def _relabeled_manifest(manifest, tmp_path, name):
    """Copy with the first train speaker's records duplicated into test."""
    extra = [
        dataclasses.replace(r, split=Split.TEST, audio_path=r.audio_path + ".dup.wav")
        for r in manifest.records
        if r.speaker_id == manifest.records[0].speaker_id
    ]
    path = tmp_path / name
    write_manifest(type(manifest)(manifest.records + extra), str(path))
    return str(path)


class TestEvaluate:
    def test_report_records(self, tiny_corpus, bundle_dir, tmp_path):
        rec = tmp_path / "eval.jsonl"
        code = run(
            [
                "evaluate", "--bundle", bundle_dir,
                "--manifest", tiny_corpus.manifest_path,
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        records = records_from(rec)
        decisions = [r for r in records if r["type"] == "decision"]
        summary = records[-1]
        assert summary["type"] == "summary"
        assert len(decisions) == 10
        assert summary["utterances"] == 10
        assert summary["accuracy"] >= 0.95
        assert summary["tp"] + summary["fp"] + summary["fn"] + summary["tn"] == 10

    def test_text_report(self, tiny_corpus, bundle_dir, capsys):
        code = run(
            ["evaluate", "--bundle", bundle_dir, "--manifest", tiny_corpus.manifest_path]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy" in text and "confusion" in text

    def test_overlapping_speakers_refused(self, tiny_corpus, bundle_dir, tmp_path, capsys):
        bad = _relabeled_manifest(tiny_corpus.manifest, tmp_path, "overlap.tsv")
        code = run(["evaluate", "--bundle", bundle_dir, "--manifest", bad])
        assert code == 1
        assert "overlap" in capsys.readouterr().err

    def test_identical_runs_byte_identical(self, tiny_corpus, bundle_dir, tmp_path):
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            code = run(
                [
                    "evaluate", "--bundle", bundle_dir,
                    "--manifest", tiny_corpus.manifest_path,
                    "--format", "records", "--output", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestRecordTooShortForOneFrame:
    @pytest.mark.parametrize("command", ["train", "evaluate", "sweep"])
    @pytest.mark.parametrize(
        "seconds, segment, samples",
        [(100 / SR, None, 100), (1.0, (5.0, 6.0), 0)],
        ids=["100-sample-wav", "segment-past-the-end"],
    )
    def test_error_names_the_file(
        self, tiny_corpus, bundle_dir, tmp_path, capsys, command, seconds, segment, samples
    ):
        split = Split.TRAIN if command == "train" else Split.TEST
        wav = tmp_path / "short.wav"
        write_wav(str(wav), AudioSignal(np.full(int(round(seconds * SR)), 0.1), SR))
        records = list(tiny_corpus.manifest.records)
        k = records.index(tiny_corpus.manifest.subset(split=split)[2])
        records[k] = dataclasses.replace(records[k], audio_path=str(wav), segment=segment)
        manifest = tmp_path / "manifest.tsv"
        write_manifest(CorpusManifest(records), manifest)
        argv = {
            "train": ["--components", "1", "--out", str(tmp_path / "bundle")],
            "evaluate": ["--bundle", bundle_dir],
            "sweep": ["--components", "1"],
        }[command]
        assert run([command, "--manifest", str(manifest), *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {wav}: signal has {samples} samples, need at least 400 for one frame\n"
        )


class TestAudioTooShortForOneFrame:
    @pytest.mark.parametrize(
        "argv, samples, frame",
        [
            (["extract", "--audio", "{short}", "--out", "{out}"], 100, 400),
            (["classify", "--bundle", "{bundle}", "--audio", "{short}"], 100, 400),
            (["nasal", "--audio", "{short}"], 100, 320),
            (["nasal", "--audio", "{second}", "--start", "5", "--end", "6"], 0, 320),
            (["nasal", "--lt-audio", "{ok}", "--ct-audio", "{short}"], 100, 320),
            (["nasal", "--lt-audio", "{short}", "--ct-audio", "{ok}"], 100, 320),
        ],
        ids=["extract", "classify", "nasal", "nasal-segment-past-the-end", "nasal-short-ct",
             "nasal-short-lt"],
    )
    def test_error_names_the_file(
        self, bundle_dir, vowel_wav, tmp_path, capsys, argv, samples, frame
    ):
        paths = {"short": tmp_path / "short.wav", "second": tmp_path / "second.wav"}
        write_wav(str(paths["short"]), AudioSignal(np.full(100, 0.1), SR))
        write_wav(str(paths["second"]), AudioSignal(np.full(SR, 0.1), SR))
        named = {**paths, "ok": vowel_wav, "bundle": bundle_dir, "out": tmp_path / "x.feat"}
        short = paths["second" if samples == 0 else "short"]
        assert run([arg.format_map(named) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {short}: signal has {samples} samples, need at least {frame} for one frame\n"
        )
        assert not (tmp_path / "x.feat").exists()


class TestSweep:
    def test_small_sweep_records(self, tiny_corpus, tmp_path):
        rec = tmp_path / "sweep.jsonl"
        code = run(
            [
                "sweep", "--manifest", tiny_corpus.manifest_path,
                "--components", "1,2", "--seed", "0",
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        rows = records_from(rec)
        assert [r["num_components"] for r in rows] == [1, 2]
        for row in rows:
            assert row["error"] is None
            assert row["accuracy"] >= 0.95
            assert row["seconds"] > 0.0

    def test_impossible_size_fails_row_not_run(self, tiny_corpus, tmp_path):
        rec = tmp_path / "sweep.jsonl"
        code = run(
            [
                "sweep", "--manifest", tiny_corpus.manifest_path,
                "--components", "1,100000", "--seed", "0",
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        rows = records_from(rec)
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None
        assert rows[1]["accuracy"] is None


    def test_cross_manifest_overlap_refused(self, tiny_corpus, tmp_path, capsys):
        # Train speakers come from --manifest, test speakers from --test-manifest.
        speaker = tiny_corpus.manifest.subset(split=Split.TRAIN)[0].speaker_id
        test = tiny_corpus.manifest.subset(split=Split.TEST)
        moved = [dataclasses.replace(test[0], speaker_id=speaker)] + test[1:]
        path = tmp_path / "test.tsv"
        write_manifest(type(tiny_corpus.manifest)(moved), str(path))
        code = run(
            [
                "sweep", "--manifest", tiny_corpus.manifest_path,
                "--test-manifest", str(path), "--components", "1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: train/test speaker overlap: {speaker}\n"


class TestNasal:
    def test_single_segment_summary(self, vowel_wav, tmp_path):
        rec = tmp_path / "nasal.jsonl"
        code = run(
            [
                "nasal", "--audio", vowel_wav,
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        records = records_from(rec)
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["detection_fraction"] >= 0.9
        assert abs(summary["median_peak_hz"] - 250.0) <= 30.0
        frames = [r for r in records if r["type"] == "frame"]
        assert len(frames) == summary["num_analyzed"]

    def test_segment_bounds_applied(self, vowel_wav, tmp_path):
        rec = tmp_path / "cut.jsonl"
        code = run(
            [
                "nasal", "--audio", vowel_wav, "--start", "0.25", "--end", "0.75",
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        summary = records_from(rec)[-1]
        # 0.5 s at a 10 ms hop and 20 ms window: (8000 - 320) // 160 + 1.
        assert summary["num_frames"] == 49
        assert summary["num_analyzed"] == 49
        assert (summary["num_degenerate"], summary["num_unstable"]) == (0, 0)

    def test_skip_causes_in_summary_record(self, tmp_path):
        path = tmp_path / "half-silent.wav"
        samples = np.zeros(8000)
        samples[4000:] = np.sin(np.arange(4000) * 0.1) * 0.3
        write_wav(path, AudioSignal(samples, SR))
        rec = tmp_path / "nasal.jsonl"
        assert run(["nasal", "--audio", str(path), "--format", "records", "--output", str(rec)]) == 0
        summary = records_from(rec)[-1]
        assert summary["num_degenerate"] >= 20 and summary["num_unstable"] == 0
        assert summary["num_degenerate"] + summary["num_analyzed"] == summary["num_frames"]

    def test_lpc_order_one_below_the_frame_length_runs(self, vowel_wav, tmp_path):
        cfg = tmp_path / "lpc319.cfg"
        cfg.write_text("nasal.lpc_order = 319\n")
        rec = tmp_path / "nasal.jsonl"
        argv = ["nasal", "--audio", vowel_wav, "--config", str(cfg), "--format", "records"]
        assert run([*argv, "--output", str(rec)]) == 0
        assert records_from(rec)[-1]["num_frames"] > 0

    def test_bad_bounds_are_a_data_error(self, vowel_wav, capsys):
        assert run(["nasal", "--audio", vowel_wav, "--start", "5.0"]) == 1
        assert "segment" in capsys.readouterr().err

    def test_end_past_the_audio_clips_to_its_end(self, vowel_wav, tmp_path):
        reports = []
        for bounds in ([], ["--end", "inf"], ["--end", "1e306"]):
            rec = tmp_path / f"nasal{len(reports)}.jsonl"
            argv = ["nasal", "--audio", vowel_wav, *bounds, "--format", "records"]
            assert run([*argv, "--output", str(rec)]) == 0
            reports.append(rec.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_start_past_the_audio_is_a_data_error(self, vowel_wav, capsys):
        assert run(["nasal", "--audio", vowel_wav, "--start", "1e305", "--end", "1e306"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_spectra_dump(self, vowel_wav, tmp_path):
        dump = tmp_path / "spectra.txt"
        rec = tmp_path / "nasal.jsonl"
        code = run(
            [
                "nasal", "--audio", vowel_wav, "--end", "0.5",
                "--dump-spectra", str(dump),
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        summary = records_from(rec)[-1]
        lines = dump.read_text().splitlines()
        headers = [l for l in lines if l.startswith("# frame")]
        assert len(headers) == summary["num_analyzed"]
        freq, db = lines[1].split()
        assert float(freq) == 0.0
        assert np.isfinite(float(db))

    def test_spectra_dump_bytes_match_per_line_format(self, vowel_wav, tmp_path):
        dump = tmp_path / "spectra.txt"
        assert run(["nasal", "--audio", vowel_wav, "--end", "0.5", "--dump-spectra", str(dump),
                    "--output", str(tmp_path / "report.txt")]) == 0
        segment = extract_segment(read_audio(vowel_wav), 0.0, 0.5)
        freqs, spectra = segment_lp_spectra(segment, NasalConfig())
        lines = []
        for index, db in spectra:
            lines.append(f"# frame {index}\n")
            for f, v in zip(freqs, db):
                lines.append(f"{float(f)!r} {float(v)!r}\n")
            lines.append("\n")
        assert len(spectra) == 49
        assert dump.read_bytes() == "".join(lines).encode("utf-8")

    def test_paired_comparison(self, tmp_path):
        paths = {}
        for name, radius, seed in (("lt", 0.90, 11), ("ct", 0.97, 12)):
            rng = np.random.default_rng(seed)
            p = tmp_path / f"{name}.wav"
            write_wav(str(p), AudioSignal(reference.voiced_vowel(rng, SR, radius=radius), SR))
            paths[name] = str(p)
        rec = tmp_path / "pair.jsonl"
        code = run(
            [
                "nasal", "--lt-audio", paths["lt"], "--ct-audio", paths["ct"],
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        verdict = records_from(rec)[-1]
        assert verdict["type"] == "verdict"
        assert verdict["stronger"] == "CT"
        assert verdict["difference_db"] > 0.5

    def test_mixed_modes_rejected(self, vowel_wav, capsys):
        assert run(["nasal", "--audio", vowel_wav, "--lt-audio", vowel_wav]) == 2
        assert run(["nasal", "--lt-audio", vowel_wav]) == 2
        assert run(["nasal"]) == 2
        capsys.readouterr()

    def test_silent_audio(self, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        write_wav(str(silent), AudioSignal(np.zeros(8000), SR))
        assert run(["nasal", "--audio", str(silent)]) == 0
        assert "no analyzable frames" in capsys.readouterr().out
        code = run(["nasal", "--lt-audio", str(silent), "--ct-audio", str(silent)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("audio", ["silent", "voiced"])
    @pytest.mark.parametrize("paired", [False, True])
    def test_band_is_checked_before_any_frame(self, vowel_wav, tmp_path, capsys, audio, paired):
        # 150-151 Hz falls between the 15.625 Hz bins of a 1024-point FFT.
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("nasal.band_low_hz = 150\nnasal.band_high_hz = 151\n")
        wav = vowel_wav
        if audio == "silent":
            wav = str(tmp_path / "silent.wav")
            write_wav(wav, AudioSignal(np.zeros(8000), SR))
        inputs = ["--lt-audio", wav, "--ct-audio", wav] if paired else ["--audio", wav]
        assert run(["nasal", *inputs, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no FFT bins" in err

    def test_dump_runs_one_lp_analysis(self, vowel_wav, tmp_path, monkeypatch):
        calls = []
        real_levinson = nasalization._levinson_batch

        def counted(r, order):
            calls.append(r.shape[0])
            return real_levinson(r, order)

        monkeypatch.setattr(nasalization, "_levinson_batch", counted)
        dump = tmp_path / "spectra.txt"
        argv = ["nasal", "--audio", vowel_wav, "--dump-spectra", str(dump)]
        assert run([*argv, "--output", str(tmp_path / "report.txt")]) == 0
        assert calls == [99]

    def test_dump_memory_is_flat_in_segment_length(self, tmp_path, monkeypatch):
        # With one frame per block the dump holds one spectrum at a time, so
        # what --dump-spectra adds to the tracemalloc peak of the same run
        # without it must not grow from a 2 s to a 4 s segment. Holding every
        # spectrum would add 257 float64 values (fft_size 512) for each of
        # the 200 extra frames; a tenth of that is far above the few KB the
        # peaks vary by. (Each run's own peak grows with the signal and its
        # frames, which the report needs too.)
        monkeypatch.setattr(nasalization, "SPECTRUM_BLOCK_BINS", 1)
        cfg = tmp_path / "fft.cfg"
        cfg.write_text("nasal.fft_size = 512\n")
        report = ["--config", str(cfg), "--output", str(tmp_path / "report.txt")]
        dump = ["--dump-spectra", str(tmp_path / "spectra.txt")]
        added = []
        for seconds in (2, 4):
            wav = str(tmp_path / f"vowel{seconds}.wav")
            rng = np.random.default_rng(seconds)
            write_wav(wav, AudioSignal(reference.voiced_vowel(rng, seconds * SR), SR))
            if seconds == 2:
                assert run(["nasal", "--audio", wav, *report]) == 0  # warm-up
            peaks = []
            for extra in ([], dump):
                tracemalloc.start()
                try:
                    assert run(["nasal", "--audio", wav, *report, *extra]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            added.append(peaks[1] - peaks[0])
        assert added[1] - added[0] < 0.1 * 200 * 257 * 8

    def test_band_without_fft_bins_is_a_data_error(self, vowel_wav, tmp_path, capsys):
        # A 32-point FFT at 16 kHz has bins every 500 Hz: none in 150-400 Hz.
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("nasal.fft_size = 32\n")
        code = run(["nasal", "--audio", vowel_wav, "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no FFT bins" in err


class TestValidateAndStats:
    def test_validate_passes(self, tiny_corpus, capsys):
        assert run(["validate", "--manifest", tiny_corpus.manifest_path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "PASS"

    def test_validate_fails_on_overlap(self, tiny_corpus, tmp_path, capsys):
        bad = _relabeled_manifest(tiny_corpus.manifest, tmp_path, "overlap.tsv")
        assert run(["validate", "--manifest", bad]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "FAIL"
        assert tiny_corpus.manifest.records[0].speaker_id in out

    def test_validate_records_missing_cells(self, tiny_corpus, tmp_path):
        train_only = type(tiny_corpus.manifest)(
            [r for r in tiny_corpus.manifest.records if r.split is Split.TRAIN]
        )
        path = tmp_path / "train_only.tsv"
        write_manifest(train_only, str(path))
        rec = tmp_path / "v.jsonl"
        code = run(
            ["validate", "--manifest", str(path), "--format", "records", "--output", str(rec)]
        )
        assert code == 0
        (record,) = records_from(rec)
        assert record["passed"] is True
        assert ["LT", "test"] in record["missing"]
        assert "no test data" in record["warnings"]

    def test_stats_records(self, tiny_corpus, tmp_path):
        rec = tmp_path / "stats.jsonl"
        code = run(
            [
                "stats", "--manifest", tiny_corpus.manifest_path,
                "--format", "records", "--output", str(rec),
            ]
        )
        assert code == 0
        rows = records_from(rec)
        cells = [r for r in rows if r["split"] in ("train", "test")]
        totals = [r for r in rows if r["split"] == "all"]
        assert len(cells) == 4 and len(totals) == 2
        assert sum(r["utterances"] for r in cells) == 26
        assert all(r["utterances"] == 13 for r in totals)
        assert not any(r["partial"] for r in rows)

    def test_stats_text_table(self, tiny_corpus, capsys):
        assert run(["stats", "--manifest", tiny_corpus.manifest_path]) == 0
        out = capsys.readouterr().out
        assert "Corpus totals" in out and "hours" in out


    def test_stats_lists_a_wav_whose_chunk_outruns_the_file(self, tmp_path, capsys):
        path = tmp_path / "overlong.wav"
        write_wav(str(path), AudioSignal(np.zeros(10), SR))
        blob = bytearray(path.read_bytes())
        blob[16:20] = (200).to_bytes(4, "little")  # fmt chunk runs past the end
        path.write_bytes(bytes(blob))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{path}\tspk\tLT\tmale\ttrain\n", encoding="utf-8")
        rec = tmp_path / "stats.jsonl"
        argv = ["stats", "--manifest", str(manifest), "--format", "records", "--output", str(rec)]
        assert run(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        cell = next(r for r in records_from(rec) if (r["dialect"], r["split"]) == ("LT", "train"))
        assert cell["partial"] and cell["unreadable"] == [str(path)]

    def test_non_utf8_manifest_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"wav/a.wav\tspk-\xe9\tLT\tmale\ttrain\n")
        assert run(["stats", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err


class TestSynth:
    def test_generation_and_determinism(self, tmp_path):
        args = [
            "synth", "--train-per-class", "2", "--test-per-class", "1",
            "--seconds", "0.5", "--per-speaker", "2", "--seed", "3",
        ]
        rec = tmp_path / "synth.jsonl"
        code = run(
            args + ["--out", str(tmp_path / "c"), "--format", "records", "--output", str(rec)]
        )
        assert code == 0
        (record,) = records_from(rec)
        assert record["utterances"] == 6
        manifest = load_manifest(record["manifest"])
        assert len(manifest.records) == 6
        first = (tmp_path / "c" / "manifest.tsv").read_bytes()
        assert run(args + ["--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "manifest.tsv").read_bytes() == first


SRC = os.path.dirname(os.path.dirname(dialectid.__file__))
# The console script's entry point, and run() alone, as `python -c` programs.
MAIN = "import sys; from dialectid.cli import main; sys.argv[0] = 'dialectid'; main()"
RUN = "import sys; from dialectid.cli import run; sys.exit(run(sys.argv[1:]))"
# Runs one command (its report goes to --output) and prints the dialectid modules loaded.
LOADED = (
    "import sys; from dialectid.cli import run; status = run(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('dialectid.'))); sys.exit(status)"
)


def _python(code, *argv, prefix=(), unbuffered=False, **kwargs):
    """`python -c code argv...` with dialectid on the path; stdout and stderr as text."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [*prefix, sys.executable, "-c", code, *argv],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        **kwargs,
    )


def _test_wav(tiny_corpus):
    return next(r.audio_path for r in tiny_corpus.manifest.records if r.split is Split.TEST)


@pytest.fixture(scope="module")
def long_vowel_wav(tmp_path_factory):
    """8 s of vowel: its nasal records (~800 frames) outgrow a 64 KiB pipe buffer."""
    rng = np.random.default_rng(1)
    path = tmp_path_factory.mktemp("cli-long") / "long-vowel.wav"
    write_wav(str(path), AudioSignal(reference.voiced_vowel(rng, 8 * SR), SR))
    return str(path)


class TestStartup:
    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal would be most of any process's start-up; no command needs it.
        done = _python("import sys, dialectid.cli; print('scipy.signal' in sys.modules)")
        assert done.returncode == 0 and done.stdout.strip() == "False"

    def test_cli_import_loads_no_scipy(self):
        # The MFCC transform and the LP analyzer are numpy-only; any scipy
        # module on the import path costs every command hundreds of ms.
        probe = (
            "import sys, dialectid.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = _python(probe)
        assert done.returncode == 0 and done.stdout.strip() == "[]"

    def test_cli_import_loads_no_thread_pool(self):
        # Training runs its second fit on a plain threading.Thread; an
        # executor module would cost every classify and nasal process ~7 ms.
        done = _python("import sys, dialectid.cli; print('concurrent.futures' in sys.modules)")
        assert done.returncode == 0 and done.stdout.strip() == "False"

    def test_package_import_loads_no_submodule(self):
        # The package root is bare; each command imports only what it uses.
        probe = (
            "import sys, dialectid; "
            "print(sorted(m for m in sys.modules if m.startswith('dialectid.')))"
        )
        done = _python(probe)
        assert done.returncode == 0 and done.stdout.strip() == "[]"

    def test_cli_import_loads_no_command_module(self):
        done = _python("import sys, dialectid.cli; print(*(m for m in sys.modules if m.startswith('dialectid.')))")
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "dialectid.cli" in loaded
        assert not loaded & {"dialectid.classifier", "dialectid.gmm", "dialectid.nasalization", "dialectid.synth"}

    def test_classify_loads_no_nasalization_or_synth(self, tiny_corpus, bundle_dir, tmp_path):
        argv = ["classify", "--bundle", bundle_dir, "--audio", _test_wav(tiny_corpus)]
        done = _python(LOADED, *argv, "--output", str(tmp_path / "decision.txt"))
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert {"dialectid.classifier", "dialectid.gmm"} <= loaded
        assert not loaded & {"dialectid.nasalization", "dialectid.synth"}

    def test_nasal_loads_no_classifier_or_gmm(self, vowel_wav, tmp_path):
        argv = ["nasal", "--audio", vowel_wav, "--dump-spectra", str(tmp_path / "spectra.txt")]
        done = _python(LOADED, *argv, "--output", str(tmp_path / "nasal.txt"))
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "dialectid.nasalization" in loaded
        assert not loaded & {"dialectid.classifier", "dialectid.gmm"}


class TestFastExit:
    """main() flushes stdout and stderr and ends with os._exit: nothing may be lost."""

    def test_long_report_arrives_whole_through_a_pipe(self, long_vowel_wav, capsys):
        argv = ["nasal", "--audio", long_vowel_wav, "--format", "records"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        assert len(expected) > 65536
        for unbuffered in (True, False):
            done = _python(MAIN, *argv, unbuffered=unbuffered)
            assert (done.returncode, done.stderr) == (0, "")
            assert done.stdout == expected

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "--bundle", "{bundle}", "--audio", "{wav}"], 0),
            (["classify", "--bundle", "{bundle}", "--audio", "{missing}"], 1),
            (["classify", "--bundle", "{bundle}", "--audio", "{wav}", "--bogus"], 2),
        ],
        ids=["clean", "missing-wav", "unknown-option"],
    )
    def test_exit_status_passes_through(self, tiny_corpus, bundle_dir, tmp_path, capsys, argv, code):
        fill = {"{bundle}": bundle_dir, "{wav}": _test_wav(tiny_corpus), "{missing}": str(tmp_path / "no.wav")}
        argv = [fill.get(arg, arg) for arg in argv]
        assert run(argv) == code
        captured = capsys.readouterr()
        done = _python(MAIN, *argv)
        assert done.returncode == code
        assert (done.stdout, done.stderr) == (captured.out, captured.err)

    def test_output_and_dump_files_are_complete(self, long_vowel_wav, tmp_path):
        def argv(name):
            return [
                "nasal", "--audio", long_vowel_wav, "--format", "records",
                "--output", str(tmp_path / f"{name}.jsonl"),
                "--dump-spectra", str(tmp_path / f"{name}.spectra"),
            ]

        assert run(argv("in-process")) == 0
        done = _python(MAIN, *argv("main"))
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        for suffix in ("jsonl", "spectra"):
            expected = (tmp_path / f"in-process.{suffix}").read_bytes()
            assert (tmp_path / f"main.{suffix}").read_bytes() == expected

    @pytest.mark.parametrize("code", [RUN, MAIN], ids=["run", "main"])
    def test_closed_stdout_is_a_one_line_error(self, vowel_wav, code):
        # sh starts Python with file descriptor 1 closed, so sys.stdout is None.
        closed = ("sh", "-c", 'exec "$@" >&-', "sh")
        done = _python(code, "nasal", "--audio", vowel_wav, "--format", "records", prefix=closed)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_unwritable_pipe_is_a_one_line_error(self, tiny_corpus, bundle_dir, unbuffered):
        # Buffered, the small report first fails when main() flushes it.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = ["classify", "--bundle", bundle_dir, "--audio", _test_wav(tiny_corpus)]
            done = _python(MAIN, *argv, unbuffered=unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


@pytest.fixture(scope="module")
def slow_evaluation(tiny_corpus, tmp_path_factory):
    """(bundle, manifest) of an evaluate that takes tens of seconds: two
    M = 1024 models of random means, and 4000 test records, each a symlink
    to one of tiny_corpus's test WAVs, since a manifest names a path once."""
    out = tmp_path_factory.mktemp("slow-evaluation")
    rng = np.random.default_rng(4)
    m = 1024
    models = [GmmModel(np.full(m, 1.0 / m), rng.standard_normal((m, 39)), np.ones((m, 39)))
              for _ in range(2)]
    save_bundle(ClassifierBundle(*models, MfccConfig(), TrainConfig(m)), out / "bundle")
    test = tiny_corpus.manifest.subset(split=Split.TEST)
    records = []
    for i in range(4000):
        link = out / f"u{i:04d}.wav"
        link.symlink_to(test[i % len(test)].audio_path)
        records.append(dataclasses.replace(test[i % len(test)], audio_path=str(link)))
    write_manifest(CorpusManifest(records), out / "manifest.tsv")
    return str(out / "bundle"), str(out / "manifest.tsv")


# (signal, exit status, stderr) of each way to stop a `dialectid` process.
STOPS = [(signal.SIGINT, 130, "error: interrupted\n"), (signal.SIGTERM, 143, "error: terminated\n")]


@pytest.mark.parametrize("stop", STOPS, ids=["SIGINT", "SIGTERM"])
class TestInterrupt:
    def stopped(self, stop, argv, config_text, tmp_path, wait=lambda: time.sleep(3)):
        """(status, stderr, seconds to exit) of `dialectid argv`, with a
        --config file of config_text unless that is empty, sent stop's
        signal once wait() returns, 3 s in by default."""
        if config_text:
            config = tmp_path / "long.cfg"
            config.write_text(config_text)
            argv = [*argv, "--config", str(config)]
        proc = subprocess.Popen([sys.executable, "-c", MAIN, *argv],
                                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                                text=True)
        try:
            wait()
            assert proc.poll() is None
            proc.send_signal(stop[0])
            sent = time.monotonic()
            _, err = proc.communicate(timeout=60)
            waited = time.monotonic() - sent
        finally:
            proc.kill()
        return proc.returncode, err, waited

    def test_signal_ends_a_sweep_with_one_error_line(self, tiny_corpus, tmp_path, stop):
        # 300 rows of about 0.1 s each: the signal ends the sweep in the
        # row it lands in, without waiting for that row's CT fit or for the
        # ~30 s of rows left.
        out = tmp_path / "sweep.txt"
        argv = ["sweep", "--manifest", tiny_corpus.manifest_path, "--components",
                ",".join(["16"] * 300), "--output", str(out)]
        config = "train.max_em_iterations = 200\ntrain.convergence_tol = 1e-300\n"
        status, err, waited = self.stopped(stop, argv, config, tmp_path)
        assert (status, err) == stop[1:]
        assert waited < 5
        assert not out.exists() and not list(tmp_path.glob(".*.tmp"))

    def test_signal_ends_evaluate_without_waiting_for_its_second_half(
        self, slow_evaluation, tmp_path, stop
    ):
        # About 20 s of scoring, both halves at once: the signal lands in
        # the first half, and the second half's thread is not waited for.
        bundle, manifest = slow_evaluation
        out = tmp_path / "evaluate.txt"
        argv = ["evaluate", "--bundle", bundle, "--manifest", manifest, "--output", str(out)]
        status, err, waited = self.stopped(stop, argv, "", tmp_path)
        assert (status, err) == stop[1:]
        assert waited < 5
        assert not out.exists() and not list(tmp_path.glob(".*.tmp"))

    def test_signal_ends_train_during_its_fits(self, tmp_path, stop):
        # On this corpus the M=128 fits take 3109 (LT) and 1634 (CT) EM
        # iterations, tens of seconds each: the signal lands in the LT fit
        # and must not wait for the CT one.
        corpus = generate_synthetic_corpus(str(tmp_path / "corpus"), seed=5, train_per_class=30,
                                           test_per_class=1, utterance_seconds=4.0)
        out = tmp_path / "bundle"
        argv = ["train", "--manifest", corpus.manifest_path, "--components", "128",
                "--out", str(out)]
        config = "train.max_em_iterations = 100000\ntrain.convergence_tol = 1e-300\n"
        status, err, waited = self.stopped(stop, argv, config, tmp_path)
        assert (status, err) == stop[1:]
        assert waited < 5
        assert not out.exists() and not list(tmp_path.glob("**/.*.tmp"))

    def test_signal_during_a_dump_removes_its_temp_file(self, tmp_path, stop):
        # A 120 s segment's dump takes seconds; the signal lands once its
        # temp file exists, and the unwinding must remove it.
        audio = tmp_path / "long.wav"
        samples = reference.voiced_vowel(np.random.default_rng(2), 120 * SR)
        write_wav(str(audio), AudioSignal(samples, SR))
        dump = tmp_path / "spectra.txt"

        def wait():
            deadline = time.monotonic() + 30
            while not list(tmp_path.glob(".spectra.txt.*.tmp")) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)

        argv = ["nasal", "--audio", str(audio), "--dump-spectra", str(dump),
                "--output", str(tmp_path / "nasal.txt")]
        status, err, waited = self.stopped(stop, argv, "", tmp_path, wait)
        assert (status, err) == stop[1:]
        assert waited < 5
        assert not dump.exists() and not list(tmp_path.glob(".*.tmp"))


class TestAtomicWrites:
    @pytest.mark.parametrize("flag", ["--output", "--dump-spectra"])
    def test_failed_replace_keeps_the_old_file(
        self, vowel_wav, tmp_path, monkeypatch, capsys, flag
    ):
        target = tmp_path / "target.txt"
        target.write_text("old content\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert run(["nasal", "--audio", vowel_wav, "--end", "0.5", flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert "error: replace refused" in err and "Traceback" not in err
        assert target.read_text() == "old content\n"
        assert os.listdir(tmp_path) == ["target.txt"]

    def test_stale_temp_file_is_overwritten(self, vowel_wav, tmp_path):
        target = tmp_path / "target.txt"
        (tmp_path / f".target.txt.{os.getpid()}.tmp").write_text("left by a killed run\n")
        assert run(["nasal", "--audio", vowel_wav, "--end", "0.5", "--output", str(target)]) == 0
        assert target.read_text().startswith("segment: frames ")
        assert os.listdir(tmp_path) == ["target.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_non_regular_target_is_written_in_place(self, vowel_wav, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code = run(["nasal", "--audio", vowel_wav, "--end", "0.5", "--output", str(fifo)])
        reader.join(timeout=30)
        assert code == 0
        assert received and received[0].startswith("segment: frames ")
        assert os.listdir(tmp_path) == ["report.fifo"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_symlink_target_is_written_through(self, vowel_wav, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old content\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert run(["nasal", "--audio", vowel_wav, "--end", "0.5", "--output", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("segment: frames ")
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


# Text reports of the fixtures above, pinned byte for byte. Paths read as
# <tmp> (the test's tmp_path), <corpus>, <bundle> and <vowel>; the sweep's
# wall-clock seconds column reads X; classify's scores are filled in from the
# repr of the same run's records.
TEXT_GOLDENS = {
    "extract": "wrote 148 frames x 39 dims to <tmp>/feat.bin\n",
    "train": "trained 1-component dialect models -> <tmp>/m1\n",
    "classify": "LT  lt_score={lt}  ct_score={ct}\n",
    "evaluate": (
        "utterances 10  accuracy 1.0000  precision 1.0000  recall 1.0000  f1 1.0000\n"
        "confusion (LT positive): tp 5  fp 0  fn 0  tn 5\n"
    ),
    "sweep": (
        "components  accuracy   seconds\n"
        "         1    1.0000      X\n"
        "         2    1.0000      X\n"
        "    100000    FAILED      X  1184 frames < 100000 mixture components\n"
    ),
    "nasal": (
        "LT: frames 49  analyzed 49  detected fraction 1.000\n"
        "LT: median low-band peak 250.0 Hz  18.40 dB\n"
        "CT: frames 149  analyzed 149  detected fraction 0.141\n"
        "CT: median low-band peak 359.4 Hz  13.12 dB\n"
        "verdict: LT stronger by 5.28 dB\n"
    ),
    "validate": (
        "FAIL\n"
        "overlapping speakers: lt-train-s000\n"
    ),
    "stats": (
        "Corpus totals\n"
        "  metric                      LT          CT\n"
        "  hours                     0.01        0.01\n"
        "  h:mm:ss                0:00:20     0:00:20\n"
        "  utterances                  13          13\n"
        "  speakers                     4           4\n"
        "  male spk                     2           2\n"
        "  female spk                   2           2\n"
        "  partial                     no          no\n"
        "\n"
        "Split breakdown\n"
        "  metric            split             LT          CT\n"
        "  hours             train           0.00        0.00\n"
        "  h:mm:ss           train        0:00:12     0:00:12\n"
        "  utterances        train              8           8\n"
        "  speakers          train              2           2\n"
        "  male spk          train              1           1\n"
        "  female spk        train              1           1\n"
        "  partial           train             no          no\n"
        "  hours             test            0.00        0.00\n"
        "  h:mm:ss           test         0:00:08     0:00:08\n"
        "  utterances        test               5           5\n"
        "  speakers          test               2           2\n"
        "  male spk          test               1           1\n"
        "  female spk        test               1           1\n"
        "  partial           test              no          no\n"
    ),
    "synth": (
        "wrote 6 utterances under <tmp>/c\n"
        "manifest: <tmp>/c/manifest.tsv\n"
    ),
}


def _golden_argv(command, tiny_corpus, bundle_dir, vowel_wav, tmp_path):
    manifest = tiny_corpus.manifest_path
    wav = tiny_corpus.manifest.records[0].audio_path
    test_wav = tiny_corpus.manifest.subset(split=Split.TEST)[0].audio_path
    return {
        "extract": ["extract", "--audio", wav, "--out", str(tmp_path / "feat.bin")],
        "train": [
            "train", "--manifest", manifest, "--components", "1", "--seed", "0",
            "--out", str(tmp_path / "m1"),
        ],
        "classify": ["classify", "--bundle", bundle_dir, "--audio", test_wav],
        "evaluate": ["evaluate", "--bundle", bundle_dir, "--manifest", manifest],
        "sweep": ["sweep", "--manifest", manifest, "--components", "1,2,100000", "--seed", "0"],
        "nasal": [
            "nasal", "--lt-audio", vowel_wav, "--lt-end", "0.5", "--ct-audio", test_wav,
        ],
        "validate": [
            "validate", "--manifest",
            _relabeled_manifest(tiny_corpus.manifest, tmp_path, "overlap.tsv"),
        ],
        "stats": ["stats", "--manifest", manifest],
        "synth": [
            "synth", "--out", str(tmp_path / "c"), "--train-per-class", "2",
            "--test-per-class", "1", "--seconds", "0.5", "--per-speaker", "2", "--seed", "3",
        ],
    }[command]


class TestTextGoldens:
    @pytest.mark.parametrize("command", list(TEXT_GOLDENS))
    def test_text_report_matches_golden(
        self, tiny_corpus, bundle_dir, vowel_wav, tmp_path, command
    ):
        argv = _golden_argv(command, tiny_corpus, bundle_dir, vowel_wav, tmp_path)
        report = tmp_path / "report.txt"
        code = run(argv + ["--format", "text", "--output", str(report)])
        assert code == (1 if command == "validate" else 0)
        text = report.read_text(encoding="utf-8")
        for path, name in (
            (str(tmp_path), "<tmp>"),
            (os.path.dirname(tiny_corpus.manifest_path), "<corpus>"),
            (bundle_dir, "<bundle>"),
            (vowel_wav, "<vowel>"),
        ):
            text = text.replace(path, name)
        if command == "sweep":
            text = re.sub(r"(?m)^( *\d+  +\S+  +)\d+\.\d\d", r"\1X", text)
        expected = TEXT_GOLDENS[command]
        if command == "classify":
            records = tmp_path / "report.jsonl"
            assert run(argv + ["--format", "records", "--output", str(records)]) == 0
            (record,) = records_from(records)
            expected = expected.format(lt=repr(record["lt_score"]), ct=repr(record["ct_score"]))
        assert text == expected
