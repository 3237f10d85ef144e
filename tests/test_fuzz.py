"""Fuzzed inputs for the readers and the CLI: any byte string either parses
or raises DialectIdError, and the CLI exits 0, 1 or 2 without a traceback."""

import hashlib
import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialectid import cli
from dialectid.classifier import BUNDLE_DESCRIPTOR, load_bundle
from dialectid.corpus import audio_duration_s, load_manifest, read_audio
from dialectid.errors import DialectIdError
from fuzz_inputs import config_texts, edited_json, manifest_texts, mutations, wav_bytes, wav_headers

# Bounded and derandomized, so the suite stays deterministic and adds ~2 s.
FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

WAVS = st.binary(max_size=60) | mutations(wav_bytes()) | wav_headers()
MANIFESTS = st.binary(max_size=60) | manifest_texts()
CONFIG_KEYS = set().union(*map(cli._section_keys, cli._SECTIONS))
CONFIGS = st.binary(max_size=60) | config_texts(CONFIG_KEYS)
BOM = "\ufeff".encode("utf-8")


@pytest.fixture(scope="module")
def bundle_template(tiny_corpus, tmp_path_factory):
    """A trained M=1 bundle and its descriptor's key paths."""
    out = str(tmp_path_factory.mktemp("fuzz-bundle") / "b")
    assert cli.run(["train", "--manifest", tiny_corpus.manifest_path, "--components", "1",
                    "--out", out]) == 0
    with open(os.path.join(out, BUNDLE_DESCRIPTOR), encoding="utf-8") as fh:
        descriptor = json.load(fh)
    paths = [(key,) for key in descriptor] + [("extra",)] + [
        (section, key)
        for section in ("feature_config", "train_config")
        for key in descriptor[section]
    ]
    return out, descriptor, paths


def load_or_error(load, path, blob):
    """load(path) of a file holding blob, or the DialectIdError type it raised."""
    path.write_bytes(blob)
    try:
        return load(path)
    except DialectIdError as exc:
        return type(exc)


def same_without_bom(load, path, blob, loaded):
    """A blob that starts with one UTF-8 byte order mark loads as it does
    without it. (A second mark is text: utf-8-sig skips only one.)"""
    if blob[:3] == BOM != blob[3:6]:
        assert load_or_error(load, path, blob[3:]) == loaded


def bundle_descriptors(template):
    out, descriptor, paths = template
    with open(os.path.join(out, BUNDLE_DESCRIPTOR), "rb") as fh:
        valid = fh.read()
    return st.binary(max_size=60) | mutations(valid) | edited_json(descriptor, paths)


def fuzzed_bundle(template, tmp_path, blob):
    """The template's model files beside a descriptor of the given bytes."""
    directory = tmp_path / "bundle"
    if not directory.exists():
        shutil.copytree(template[0], directory)
    (directory / BUNDLE_DESCRIPTOR).write_bytes(blob)
    return str(directory)


class TestReaders:
    @FUZZ
    @given(blob=MANIFESTS)
    def test_manifest(self, tmp_path, blob):
        path = tmp_path / "m.tsv"
        manifest = load_or_error(load_manifest, path, blob)
        same_without_bom(load_manifest, path, blob, manifest)
        if not isinstance(manifest, type):
            assert all(os.path.isabs(r.audio_path) for r in manifest.records)

    @FUZZ
    @given(blob=CONFIGS)
    def test_config(self, tmp_path, blob):
        path = tmp_path / "c.cfg"
        kv = load_or_error(cli._load_config, path, blob)
        same_without_bom(cli._load_config, path, blob, kv)
        if not isinstance(kv, type):
            assert set(kv) <= CONFIG_KEYS

    @FUZZ
    @given(blob=WAVS)
    def test_audio(self, tmp_path, blob):
        path = tmp_path / "a.wav"
        path.write_bytes(blob)
        try:
            signal = read_audio(path)
        except DialectIdError:
            return
        assert signal.sample_rate == 16000
        assert ((signal.samples >= -1.0) & (signal.samples < 1.0)).all()

    @FUZZ
    @given(blob=WAVS)
    def test_audio_duration(self, tmp_path, blob):
        path = tmp_path / "a.wav"
        path.write_bytes(blob)
        try:
            duration = audio_duration_s(path)
        except DialectIdError:
            return
        assert duration >= 0.0

    @FUZZ
    @given(data=st.data())
    def test_bundle(self, bundle_template, tmp_path, data):
        blob = data.draw(bundle_descriptors(bundle_template))
        try:
            bundle = load_bundle(fuzzed_bundle(bundle_template, tmp_path, blob))
        except DialectIdError:
            return
        assert bundle.lt_model.dim == bundle.ct_model.dim == 39


class TestCommandLine:
    """One or two commands per example on one fuzzed file; the other inputs are valid."""

    @settings(FUZZ, max_examples=80)
    @given(kind=st.sampled_from(["manifest", "config", "wav", "bundle"]), data=st.data())
    def test_exit_status_without_traceback(
        self, tiny_corpus, bundle_template, tmp_path, capsys, kind, data
    ):
        wav = tiny_corpus.manifest.records[0].audio_path
        features = str(tmp_path / "f.bin")
        path = str(tmp_path / f"input.{kind}")
        if kind == "bundle":
            blob = data.draw(bundle_descriptors(bundle_template))
            commands = [["classify", "--bundle", fuzzed_bundle(bundle_template, tmp_path, blob),
                         "--audio", wav]]
        else:
            blob = data.draw({"manifest": MANIFESTS, "config": CONFIGS, "wav": WAVS}[kind])
            with open(path, "wb") as fh:
                fh.write(blob)
            if kind == "manifest":
                # validate reads no audio; stats opens every record's file.
                commands = [["validate", "--manifest", path], ["stats", "--manifest", path]]
            elif kind == "config":
                commands = [["extract", "--audio", wav, "--out", features, "--config", path]]
            else:
                wav_command = data.draw(st.sampled_from(["extract", "nasal", "stats"]))
                if wav_command == "extract":
                    commands = [["extract", "--audio", path, "--out", features]]
                elif wav_command == "nasal":
                    commands = [["nasal", "--audio", path]]
                else:
                    manifest = tmp_path / "m.tsv"
                    manifest.write_text(f"{path}\tspk\tLT\tmale\ttrain\n", encoding="utf-8")
                    commands = [["stats", "--manifest", str(manifest)]]
        for argv in commands:
            capsys.readouterr()
            assert cli.run(argv) in (0, 1, 2)
            assert "Traceback" not in capsys.readouterr().err

    @FUZZ
    @given(data=st.data())
    def test_classify_with_a_mutated_model(
        self, tiny_corpus, bundle_template, tmp_path, capsys, data
    ):
        """The descriptor records the mutated model's digest, so the model
        reader, not the digest check, meets the bytes."""
        out, descriptor, _ = bundle_template
        with open(os.path.join(out, descriptor["lt_model"]), "rb") as fh:
            blob = data.draw(mutations(fh.read()))
        edited = dict(descriptor, lt_model_sha256=hashlib.sha256(blob).hexdigest())
        directory = fuzzed_bundle(bundle_template, tmp_path, json.dumps(edited).encode("utf-8"))
        with open(os.path.join(directory, descriptor["lt_model"]), "wb") as fh:
            fh.write(blob)
        argv = ["classify", "--bundle", directory, "--audio",
                tiny_corpus.manifest.records[0].audio_path]
        capsys.readouterr()
        assert cli.run(argv) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
