"""The synthetic generator's resonator against scipy's lfilter, and the
bytes and memory that generation promises."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

import dialectid
import reference
from dialectid import synth
from dialectid.synth import ar_noise, generate_synthetic_corpus, resonator_poly, wandering_noise

SR = 16000

# Digests of corpora written before the resonator moved from
# scipy.signal.lfilter to synth's own kernel. manifest.tsv is hashed with
# the corpus directory cut from its paths. Seed 8's 1.1 s utterances end
# in a 800-sample segment.
CORPORA = {
    "seed7": (
        dict(seed=7, train_per_class=3, test_per_class=2, utterance_seconds=1.5),
        {
            "ground_truth.json": "e8a7e0d9edd1312805ed951752e5c0375a655798bc5d3b1217329d2c3ca97b5c",
            "manifest.tsv": "93be0ccc7f73f8d32867a34a99f113e338430d0c376b6c6b9ebdd62b10c88252",
            "wav/ct-test-s000-u00.wav": "ec6fc46bafa67460ed72685b185a3509d2670626b55f8128ce705b33793db029",
            "wav/ct-test-s000-u01.wav": "8e4fb4877ee2699a4ddb39e94c8161b826e56aa0063456d00506621c75b59e7b",
            "wav/ct-train-s000-u00.wav": "edacb2e305916fe5365f82c5fed85cd5830d5f6a1ec070cf89a528ccf191f234",
            "wav/ct-train-s000-u01.wav": "07e8961ee02913eb377cc0504cbe39e97dd2116e321b0c327d30a9ed663ac6ef",
            "wav/ct-train-s000-u02.wav": "bad014178cd6192392e74c09f610ecc0e3be63fb4fa41259ca26aec61bc73d26",
            "wav/lt-test-s000-u00.wav": "3195cda5e47c78dc78e8b7dfa0d0b6237a01f0a8e51d99d01cbe721ff6dd603e",
            "wav/lt-test-s000-u01.wav": "5acc8b0a556eb64f4cc95169487b596d15a90726b1612104d2b63d155519f221",
            "wav/lt-train-s000-u00.wav": "2ada2e8a62ed44fb4e259dbc25b05d486b8db868ed0a5c423a705e6f990aab4c",
            "wav/lt-train-s000-u01.wav": "860c7788ea4673c697102087e0e0586dc4e60b5e4e622895d7b01832966311d8",
            "wav/lt-train-s000-u02.wav": "fe306885e4ac25419cd833b7ad376e2b0b2a38d8bdbb852115818af202dad13b",
        },
    ),
    "seed8": (
        dict(seed=8, train_per_class=2, test_per_class=1, utterance_seconds=1.1,
             utterances_per_speaker=2),
        {
            "ground_truth.json": "5cadcd3cc4c0e1da85ebe0a62a4a796e2a543dff054c3ab3d2427622dc2aa29c",
            "manifest.tsv": "27e77524b9f7a1bc32652c35b5c01fe72d96fc6622ad0ff10b9db8465c5487aa",
            "wav/ct-test-s000-u00.wav": "df18ad9a049ddcda1279616acdf6766b7012c4b4b1c438f6b254b15b2709a74c",
            "wav/ct-train-s000-u00.wav": "d0010e72feb88741802747d0c1d9499344705c0166c1e6b2f4f12bacb399433f",
            "wav/ct-train-s000-u01.wav": "3efe9529bc56f58a0082b8df10e3e822e9263afcc839344ffc2bc5b652e13c91",
            "wav/lt-test-s000-u00.wav": "a6265199ca32b28784f7c2924751a2c34e0b2586474fbd57341f30b35379236a",
            "wav/lt-train-s000-u00.wav": "5e191dfe9e4ee31a00ecc58aa80e4233830f6adebc0bb0f332c573b1d317d363",
            "wav/lt-train-s000-u01.wav": "42347c90a5c5d2264435c7600ba4ab1036007fa8825e0c2ac99b870ca31f5af9",
        },
    ),
}


def corpus_digests(out_dir) -> dict:
    prefix = (str(out_dir) + os.sep).encode()
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.tsv":
                data = data.replace(prefix, b"")
            digests[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
    return digests


def filtered(drives, polys):
    """synth._resonate over rows of drives from a zero state."""
    buf = np.zeros((drives.shape[0], drives.shape[1] + 2))
    buf[:, 2:] = drives
    polys = np.asarray(polys)
    synth._resonate(buf, polys[:, 1], polys[:, 2])
    return buf[:, 2:]


class TestResonatorKernel:
    @pytest.mark.parametrize("length", [1, 2, 3, 513, 2912])
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
    def test_rows_equal_lfilter_bit_for_bit(self, length, radius):
        rng = np.random.default_rng(length)
        drives = rng.standard_normal((6, length))
        polys = [resonator_poly(hz, radius, SR) for hz in (100.0, 500.0, 1234.5, 3000.0, 6000.0, 7900.0)]
        got = filtered(drives, polys)
        for row, drive, poly in zip(got, drives, polys):
            assert np.array_equal(row, lfilter([1.0], poly, drive))

    def test_zero_padded_short_row_equals_lfilter_on_its_samples(self):
        rng = np.random.default_rng(2)
        drives = rng.standard_normal((3, 2912))
        drives[2, 1312:] = 0.0
        polys = [resonator_poly(hz, 0.9, SR) for hz in (450.0, 520.0, 2900.0)]
        got = filtered(drives, polys)
        assert np.array_equal(got[2, :1312], lfilter([1.0], polys[2], drives[2, :1312]))
        assert np.array_equal(got[:2], [lfilter([1.0], p, d) for p, d in zip(polys[:2], drives[:2])])


class TestArNoise:
    @pytest.mark.parametrize("num_samples", [1, 2, 511, 512, 513, 2400, 32000, 65536])
    @pytest.mark.parametrize("radius", [0.5, 0.9, 0.99, 0.999])
    def test_chunked_filter_stays_within_rounding_of_lfilter(self, num_samples, radius):
        for center in (250.0, 3000.0):
            got = ar_noise(np.random.default_rng(num_samples), num_samples, center, radius, SR)
            want = reference.ar_noise_ref(
                np.random.default_rng(num_samples), num_samples, center, radius, SR
            )
            assert got.shape == (num_samples,)
            assert np.abs(got - want).max() <= 1e-12 * synth.PEAK

    def test_draws_as_many_normals_as_lfilter_noise(self):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        ar_noise(rng, 1000, 300.0, 0.9, SR)
        reference.ar_noise_ref(ref_rng, 1000, 300.0, 0.9, SR)
        assert rng.random() == ref_rng.random()


class TestWanderingNoise:
    @pytest.mark.parametrize("num_samples", [1, 2399, 2400, 2401, 17600, 24000])
    def test_equals_lfilter_segments_bit_for_bit(self, num_samples):
        rng, ref_rng = np.random.default_rng(num_samples), np.random.default_rng(num_samples)
        got = wandering_noise(rng, num_samples, 700.0, 0.9, SR)
        want = reference.wandering_noise_ref(ref_rng, num_samples, 700.0, 0.9, SR)
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()


class TestCorpusBytes:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("batch", [1, 7, synth.BATCH_SEGMENTS])
    def test_files_match_the_lfilter_corpus(self, tmp_path, monkeypatch, name, batch):
        # Small batches split utterances across batches; the bytes stay.
        monkeypatch.setattr(synth, "BATCH_SEGMENTS", batch)
        kwargs, digests = CORPORA[name]
        generate_synthetic_corpus(str(tmp_path), **kwargs)
        assert corpus_digests(tmp_path) == digests

    def test_peak_memory_is_set_by_the_batch_not_the_corpus(self, tmp_path):
        # 8 s utterances are 54 segments, so 22 utterances fill a batch and
        # a bit; 42 need three batches.
        peaks = []
        for train in (10, 20):
            tracemalloc.start()
            try:
                generate_synthetic_corpus(
                    str(tmp_path / str(train)), seed=1, train_per_class=train,
                    test_per_class=1, utterance_seconds=8.0,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


def test_synth_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(dialectid.__file__))
    probe = (
        "import sys, dialectid.synth; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"
