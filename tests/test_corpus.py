"""Manifest parsing, WAV I/O, split validation, corpus statistics."""

import json
import os
import wave

import numpy as np
import pytest

from dialectid.corpus import (
    CorpusManifest,
    Gender,
    Split,
    UtteranceRecord,
    audio_duration_s,
    corpus_stats,
    format_stats,
    hours_to_hms,
    load_manifest,
    read_audio,
    validate_split,
    write_manifest,
    write_wav,
)
from dialectid.dsp import AudioSignal, write_features, write_features_csv
from dialectid.errors import AudioFormatError, ManifestError, SampleRateMismatch
from dialectid.labels import DialectLabel
from dialectid.synth import generate_synthetic_corpus


def rec(path="/a/x.wav", speaker="s1", dialect=DialectLabel.LT,
        gender=Gender.MALE, split=Split.TRAIN, segment=None):
    return UtteranceRecord(path, speaker, dialect, gender, split, segment)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestManifestParsing:
    def test_two_records(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(
            m,
            [
                "# comment line",
                "",
                "wav/a.wav\tspk1\tLT\tmale\ttrain",
                "wav/b.wav\tspk2\tCT\tfemale\ttest\t0.5\t1.5",
            ],
        )
        manifest = load_manifest(m)
        assert len(manifest.records) == 2
        first, second = manifest.records
        assert first.audio_path == str(tmp_path / "wav" / "a.wav")
        assert first.dialect is DialectLabel.LT
        assert first.segment is None
        assert second.split is Split.TEST
        assert second.segment == (0.5, 1.5)

    def test_unknown_dialect_names_the_line(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts\tXX\tmale\ttrain"])
        with pytest.raises(ManifestError, match="line 1.*XX.*LT/CT"):
            load_manifest(m)

    def test_wrong_field_count_names_the_line(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts\tLT\tmale\ttrain", "b.wav\ts\tLT\tmale\ttrain\t1.0"])
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(m)

    def test_bad_segment_number_rejected(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts\tLT\tmale\ttrain\t0.0\tabc"])
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(m)

    def test_inverted_segment_rejected(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts\tLT\tmale\ttrain\t2.0\t1.0"])
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(m)

    def test_nul_in_audio_path_names_the_line(self, tmp_path):
        # open() and wave.open() raise ValueError, not OSError, for such a path.
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts1\tLT\tmale\ttrain", "a\x00b.wav\tspk1\tLT\tmale\ttrain"])
        with pytest.raises(ManifestError, match="line 2: audio_path contains a NUL byte"):
            load_manifest(m)

    def test_duplicate_audio_path_rejected(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["a.wav\ts1\tLT\tmale\ttrain", "a.wav\ts2\tCT\tfemale\ttest"])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(m)

    def test_empty_file_is_an_empty_manifest(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("", encoding="utf-8")
        assert load_manifest(m).records == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        write_lines(plain, ["wav/a.wav\tspk1\tLT\tmale\ttrain", "# comment"])
        marked.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
        records = load_manifest(marked).records
        assert records == load_manifest(plain).records
        assert records[0].audio_path == str(tmp_path / "wav" / "a.wav")

    def test_absolute_paths_kept_verbatim(self, tmp_path):
        m = tmp_path / "m.tsv"
        write_lines(m, ["/abs/a.wav\ts\tLT\tmale\ttrain"])
        assert load_manifest(m).records[0].audio_path == "/abs/a.wav"

    def test_round_trip(self, tmp_path):
        manifest = CorpusManifest(
            [
                rec("/d/a.wav", "s1", DialectLabel.LT, Gender.MALE, Split.TRAIN),
                rec("/d/b.wav", "s2", DialectLabel.CT, Gender.FEMALE, Split.TEST,
                    segment=(0.25, 1.75)),
                rec("/d/c.wav", "s2", DialectLabel.CT, Gender.FEMALE, Split.TEST,
                    segment=(0.1, 0.30000000000000004)),
            ]
        )
        path = tmp_path / "m.tsv"
        write_manifest(manifest, path)
        assert load_manifest(path).records == manifest.records

    def test_subset_filters(self):
        manifest = CorpusManifest(
            [
                rec("/a", "s1", DialectLabel.LT, split=Split.TRAIN),
                rec("/b", "s2", DialectLabel.LT, split=Split.TEST),
                rec("/c", "s3", DialectLabel.CT, split=Split.TRAIN),
            ]
        )
        assert len(manifest.subset(DialectLabel.LT)) == 2
        assert len(manifest.subset(DialectLabel.LT, Split.TEST)) == 1
        assert len(manifest.subset(split=Split.TRAIN)) == 2


class TestWavIo:
    def test_one_second_of_pcm(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.zeros(16000), 16000))
        signal = read_audio(path)
        assert signal.samples.shape == (16000,)
        assert signal.sample_rate == 16000

    def test_int16_scaling_is_exact(self, tmp_path):
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.array([-32768, 0, 16384], dtype="<i2").tobytes())
        signal = read_audio(path)
        assert np.array_equal(signal.samples, [-1.0, 0.0, 0.5])

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(40)
        x = rng.uniform(-0.5, 0.5, 5000)
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(x, 16000))
        back = read_audio(path)
        assert np.max(np.abs(back.samples - x)) <= 0.5 / 32768.0 + 1e-12

    def test_write_clips_out_of_range(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.array([1.5, -1.5]), 16000))
        back = read_audio(path)
        assert np.array_equal(back.samples, [32767.0 / 32768.0, -1.0])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.zeros(400, dtype="<i2").tobytes())
        with pytest.raises(AudioFormatError, match="mono"):
            read_audio(path)

    def test_8_bit_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(bytes(200))
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_audio(path)

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.zeros(800), 8000))
        with pytest.raises(SampleRateMismatch):
            read_audio(path)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_text("definitely not RIFF", encoding="utf-8")
        with pytest.raises(AudioFormatError):
            read_audio(path)

    def test_partial_last_sample_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.zeros(10), 16000))
        path.write_bytes(path.read_bytes()[: 44 + 13])  # cut inside sample 7
        with pytest.raises(AudioFormatError, match="partial last sample"):
            read_audio(path)

    def test_chunk_longer_than_the_file_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.zeros(10), 16000))
        blob = bytearray(path.read_bytes())
        blob[16:20] = (200).to_bytes(4, "little")  # fmt chunk runs past the end
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioFormatError, match="truncated"):
            read_audio(path)
        with pytest.raises(AudioFormatError, match="truncated"):
            audio_duration_s(path)

    def test_duration_from_header(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSignal(np.zeros(24000), 16000))
        assert audio_duration_s(path) == 1.5


class TestSplitValidation:
    def test_disjoint_speakers_pass(self):
        manifest = CorpusManifest(
            [
                rec("/a", "A", DialectLabel.LT, split=Split.TRAIN),
                rec("/b", "B", DialectLabel.CT, split=Split.TRAIN),
                rec("/c", "C", DialectLabel.LT, split=Split.TEST),
                rec("/d", "D", DialectLabel.CT, split=Split.TEST),
            ]
        )
        report = validate_split(manifest)
        assert report.passed
        assert report.overlapping_speakers == []
        assert report.missing == []

    def test_shared_speaker_fails_and_is_named(self):
        manifest = CorpusManifest(
            [
                rec("/a", "A", DialectLabel.LT, split=Split.TRAIN),
                rec("/b", "A", DialectLabel.LT, split=Split.TEST),
            ]
        )
        report = validate_split(manifest)
        assert not report.passed
        assert report.overlapping_speakers == ["A"]

    def test_train_only_passes_with_warning(self):
        manifest = CorpusManifest(
            [
                rec("/a", "A", DialectLabel.LT, split=Split.TRAIN),
                rec("/b", "B", DialectLabel.CT, split=Split.TRAIN),
            ]
        )
        report = validate_split(manifest)
        assert report.passed
        assert "no test data" in report.warnings
        assert (DialectLabel.LT, Split.TEST) in report.missing
        assert (DialectLabel.CT, Split.TEST) in report.missing

    def test_overlap_detection_matches_set_intersection(self):
        # randomized speaker pools: report fails exactly when the sets share a name
        rng = np.random.default_rng(41)
        pool = [f"spk{i}" for i in range(12)]
        for trial in range(25):
            train = set(rng.choice(pool, size=rng.integers(1, 7), replace=False))
            test = set(rng.choice(pool, size=rng.integers(1, 7), replace=False))
            records = []
            for i, s in enumerate(sorted(train)):
                records.append(rec(f"/tr{trial}_{i}", s, split=Split.TRAIN))
            for i, s in enumerate(sorted(test)):
                records.append(rec(f"/te{trial}_{i}", s, split=Split.TEST))
            report = validate_split(CorpusManifest(records))
            assert report.passed == (not (train & test))
            assert report.overlapping_speakers == sorted(train & test)


def stats_cells(manifest):
    """corpus_stats records indexed by (dialect, split)."""
    return {(r["dialect"], r["split"]): r for r in corpus_stats(manifest)}


class TestCorpusStats:
    def test_matches_generator_ground_truth(self, tiny_corpus):
        cells = stats_cells(tiny_corpus.manifest)
        for dialect in DialectLabel:
            for split in Split:
                declared = tiny_corpus.declared["cells"][f"{dialect.value}/{split.value}"]
                cell = cells[(dialect.value, split.value)]
                assert cell["utterances"] == declared["utterances"]
                assert cell["speakers"] == declared["speakers"]
                assert cell["male_speakers"] == declared["male_speakers"]
                assert cell["female_speakers"] == declared["female_speakers"]
                assert cell["duration_hours"] == pytest.approx(
                    declared["duration_hours"], rel=1e-12
                )
                assert not cell["partial"]

    def test_ground_truth_file_round_trips(self, tiny_corpus):
        with open(tiny_corpus.ground_truth_path, encoding="utf-8") as fh:
            assert json.load(fh) == tiny_corpus.declared

    def test_unreadable_file_marks_cell_partial(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, AudioSignal(np.zeros(16000), 16000))
        bad = tmp_path / "bad.wav"
        bad.write_text("not audio", encoding="utf-8")
        manifest = CorpusManifest(
            [
                rec(str(good), "A", DialectLabel.LT, split=Split.TRAIN),
                rec(str(bad), "B", DialectLabel.LT, split=Split.TRAIN),
            ]
        )
        cell = stats_cells(manifest)[("LT", "train")]
        assert cell["partial"]
        assert cell["unreadable"] == [str(bad)]
        assert cell["utterances"] == 2
        assert cell["duration_hours"] == pytest.approx(1.0 / 3600.0)

    def test_stats_do_not_depend_on_record_order(self, tiny_corpus):
        records = list(tiny_corpus.manifest.records)
        shuffled = CorpusManifest(list(reversed(records)))
        assert corpus_stats(tiny_corpus.manifest) == corpus_stats(shuffled)

    def test_records_cover_cells_and_totals(self, tiny_corpus):
        recs = corpus_stats(tiny_corpus.manifest)
        assert len(recs) == 6
        totals = [r for r in recs if r["split"] == "all"]
        assert {r["dialect"] for r in totals} == {"LT", "CT"}
        for r in totals:
            assert r["utterances"] == 13  # 8 train + 5 test


class TestFormatting:
    def test_hours_to_hms(self):
        assert hours_to_hms(1.5) == "1:30:00"
        assert hours_to_hms(0.0) == "0:00:00"
        assert hours_to_hms(2.0 / 3600.0) == "0:00:02"

    def test_text_table_sections(self, tiny_corpus):
        text = format_stats(corpus_stats(tiny_corpus.manifest))
        assert "Corpus totals" in text
        assert "Split breakdown" in text
        assert "h:mm:ss" in text


class TestSynthGenerator:
    def test_regeneration_is_byte_identical(self, tmp_path):
        out = tmp_path / "c"
        first = generate_synthetic_corpus(
            str(out), seed=3, train_per_class=2, test_per_class=1,
            utterance_seconds=0.3, utterances_per_speaker=2,
        )
        wav = first.manifest.records[0].audio_path
        manifest_blob = open(first.manifest_path, "rb").read()
        wav_blob = open(wav, "rb").read()
        second = generate_synthetic_corpus(
            str(out), seed=3, train_per_class=2, test_per_class=1,
            utterance_seconds=0.3, utterances_per_speaker=2,
        )
        assert open(second.manifest_path, "rb").read() == manifest_blob
        assert open(wav, "rb").read() == wav_blob

    def test_split_speakers_are_disjoint(self, tiny_corpus):
        assert validate_split(tiny_corpus.manifest).passed

    def test_classes_occupy_their_bands(self, tiny_corpus):
        # spectral centroid separates the two classes by construction
        def centroid(path):
            signal = read_audio(path)
            spec = np.abs(np.fft.rfft(signal.samples)) ** 2
            freqs = np.fft.rfftfreq(signal.samples.size, 1.0 / 16000.0)
            return float((freqs * spec).sum() / spec.sum())

        lt = [centroid(r.audio_path) for r in tiny_corpus.manifest.subset(DialectLabel.LT)[:3]]
        ct = [centroid(r.audio_path) for r in tiny_corpus.manifest.subset(DialectLabel.CT)[:3]]
        assert max(lt) < 1500.0
        assert min(ct) > 2000.0


def synth_ground_truth(path, seed):
    """generate_synthetic_corpus into path's directory; its ground truth
    lands at path."""
    generate_synthetic_corpus(
        str(path.parent), seed=seed, train_per_class=1, test_per_class=1,
        utterance_seconds=0.05, utterances_per_speaker=1,
    )


# name -> (file name, writer(path, variant)); variants 0 and 1 differ.
WRITERS = {
    "write_features": ("f.mfc", lambda p, v: write_features(p, np.full((3, 4), v + 0.5))),
    "write_features_csv": ("f.csv", lambda p, v: write_features_csv(p, np.full((3, 4), v + 0.5))),
    "write_manifest": (
        "m.tsv", lambda p, v: write_manifest(CorpusManifest([rec(f"/a/{v}.wav")]), p)
    ),
    "write_wav": ("a.wav", lambda p, v: write_wav(p, AudioSignal(np.full(80, v / 4.0), 16000))),
    "synth ground truth": ("ground_truth.json", lambda p, v: synth_ground_truth(p, v)),
}


class TestAtomicWriters:
    @pytest.mark.parametrize("name", WRITERS)
    def test_failed_replace_keeps_old_bytes_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, name
    ):
        file_name, write = WRITERS[name]
        path = tmp_path / file_name
        write(path, 0)
        before = path.read_bytes()
        listing = sorted(os.listdir(tmp_path))
        real_replace = os.replace

        def refuse_target(src, dst):
            # Other files (the synth corpus's WAVs and manifest) are replaced.
            if os.path.basename(dst) == file_name:
                raise OSError("replace refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_target)
        with pytest.raises(OSError, match="replace refused"):
            write(path, 1)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing
        monkeypatch.setattr(os, "replace", real_replace)
        write(path, 1)
        assert path.read_bytes() != before
