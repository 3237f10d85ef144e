"""Every command at the upper bound of each numeric config field and CLI
number (README's "Bounds" table), on 1 s utterances.

Each run is a child process that limits its own address space
(RLIMIT_AS) and is killed after a wall timeout; the runs go one at a time.
Each must end with status 0 or 1 and a stderr of at most one line, an
`error:` line: a value that asks for more than the limit gives a clean
data error, not a hang, a warning, a traceback or a killed process. A field without an upper bound is run at a
huge value where its cost does not grow with it (iteration caps, seeds,
tolerances); the counts whose cost is linear in their value (synth's
utterance counts, sweep's list of sizes) are not run at one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dialectid.synth import generate_synthetic_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 2 * 2**30
TIMEOUT_S = 120
HUGE_INT = str(10**18)
HUGE_SEED = str(10**4000)  # int() parses at most 4300 digits
HUGE_FLOAT = "1e308"
BELOW_ONE = repr(1.0 - 2.0**-53)

# Limits the child's own address space, then runs the dialectid command on
# the rest of argv.
LIMITED = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.argv[:2] = ["dialectid"]
from dialectid.cli import main
main()
"""

WAV = "corpus/wav/lt-train-s000-u00.wav"
CT_WAV = "corpus/wav/ct-train-s000-u00.wav"
MANIFEST = "corpus/manifest.tsv"

# Each config at one field's upper bound, with what that bound needs of the
# other fields; an open bound is a huge value.
MFCC = {
    "frame_length_ms": "mfcc.frame_length_ms = 4096\nmfcc.fft_size = 65536\n",
    "frame_shift_ms": "mfcc.frame_shift_ms = 25\n",
    "preemphasis_coeff": f"mfcc.preemphasis_coeff = {BELOW_ONE}\n",
    "num_mel_filters": "mfcc.num_mel_filters = 256\n",
    "fft_size": "mfcc.fft_size = 65536\n",
    "num_cepstra": "mfcc.num_mel_filters = 256\nmfcc.num_cepstra = 256\n",
    "delta_window": "mfcc.delta_window = 100\n",
    "low_freq_hz": "mfcc.low_freq_hz = 7599.999\n",
    "high_freq_hz": "mfcc.high_freq_hz = 8000\n",
    "all": "mfcc.fft_size = 65536\nmfcc.num_mel_filters = 256\nmfcc.num_cepstra = 256\n"
           "mfcc.delta_window = 100\nmfcc.high_freq_hz = 8000\n",
}
TRAIN = {
    "max_em_iterations": f"train.max_em_iterations = {HUGE_INT}\n",
    "convergence_tol": f"train.convergence_tol = {HUGE_FLOAT}\n",
    "variance_floor_factor": f"train.variance_floor_factor = {HUGE_FLOAT}\n",
    "rng_seed": f"train.rng_seed = {HUGE_SEED}\n",
    "kmeans_max_iterations": f"train.kmeans_max_iterations = {HUGE_INT}\n",
}
NASAL = {
    "frame_length_ms": "nasal.frame_length_ms = 4096\n",
    "frame_shift_ms": "nasal.frame_shift_ms = 20\n",
    "lpc_order": "nasal.lpc_order = 512\nnasal.frame_length_ms = 40\n",
    "fft_size": "nasal.fft_size = 65536\n",
    "band_low_hz": "nasal.band_low_hz = 399.999\n",
    "band_high_hz": f"nasal.band_high_hz = {HUGE_FLOAT}\n",
    "prominence_db": f"nasal.prominence_db = {HUGE_FLOAT}\n",
    "prominence_span_hz": f"nasal.prominence_span_hz = {HUGE_FLOAT}\n",
}


def _trained(config):
    return [["train", "--manifest", MANIFEST, "--components", "2", "--out", "bundle",
             "--config", config],
            ["sweep", "--manifest", MANIFEST, "--components", "1,2", "--config", config]]


def _cases():
    for field, text in MFCC.items():
        yield f"mfcc.{field}", text, [
            ["extract", "--audio", WAV, "--out", "x.feat", "--config", "case.cfg"],
            *_trained("case.cfg"),
            ["classify", "--bundle", "bundle", "--audio", WAV],
            ["evaluate", "--bundle", "bundle", "--manifest", MANIFEST],
        ]
    for field, text in TRAIN.items():
        yield f"train.{field}", text, _trained("case.cfg")
    for field, text in NASAL.items():
        yield f"nasal.{field}", text, [
            ["nasal", "--audio", WAV, "--config", "case.cfg"],
            ["nasal", "--lt-audio", WAV, "--ct-audio", CT_WAV, "--config", "case.cfg"],
        ]
    yield "--components", "", [
        ["train", "--manifest", MANIFEST, "--components", HUGE_INT, "--out", "bundle"],
        ["sweep", "--manifest", MANIFEST, "--components", f"1,{HUGE_INT}"],
    ]
    yield "--seed", "", [
        [*argv, "--seed", HUGE_SEED] for argv in (
            ["synth", "--out", "synth", "--train-per-class", "1", "--test-per-class", "1",
             "--seconds", "1"],
            ["train", "--manifest", MANIFEST, "--components", "2", "--out", "bundle"],
            ["sweep", "--manifest", MANIFEST, "--components", "2"],
            ["extract", "--audio", WAV, "--out", "x.feat"],
            ["nasal", "--audio", WAV],
            ["stats", "--manifest", MANIFEST],
            ["validate", "--manifest", MANIFEST],
        )
    ]
    yield "synth", "", [
        ["synth", "--out", "synth", "--train-per-class", "1", "--test-per-class", "1",
         "--seconds", "600"],
        ["synth", "--out", "synth", "--train-per-class", "1", "--test-per-class", "1",
         "--seconds", "1", "--per-speaker", HUGE_INT],
    ]
    yield "nasal bounds", "", [
        ["nasal", "--audio", WAV, "--start", "0", "--end", HUGE_FLOAT],
        ["nasal", "--lt-audio", WAV, "--ct-audio", CT_WAV, "--lt-start", HUGE_FLOAT,
         "--lt-end", "inf", "--ct-end", HUGE_FLOAT],
    ]


CASES = list(_cases())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bounds") / "corpus"
    generate_synthetic_corpus(str(root), seed=3, train_per_class=2, test_per_class=2,
                              utterance_seconds=1.0, utterances_per_speaker=1)
    return root


@pytest.mark.parametrize("text, runs", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_command_at_each_upper_bound_ends_cleanly(corpus, tmp_path, text, runs):
    (tmp_path / "corpus").symlink_to(corpus)
    (tmp_path / "case.cfg").write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in runs:
        done = subprocess.run([sys.executable, "-c", LIMITED, str(ADDRESS_SPACE), *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        lines = done.stderr.splitlines()
        shown = f"{argv}: status {done.returncode}\n{done.stderr[-2000:]}"
        assert done.returncode in (0, 1), shown
        assert len(lines) <= 1 and all(line.startswith("error:") for line in lines), shown
