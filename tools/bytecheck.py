#!/usr/bin/env python3
"""Check that this checkout's outputs are byte-identical to a revision's.

    python tools/bytecheck.py REV [--keep]

Exports REV's src/ with `git archive` into a temporary directory and runs
one fixed script (SCRIPT) against each tree in turn: REV first, then the
working tree this file sits in, uncommitted changes included. Both runs
write to the same output paths, since paths appear in the outputs. The
script runs the dialectid CLI (synth, train, evaluate, classify, extract,
nasal, sweep, stats, validate and a few rejected configs), also on a
corpus of 42 s utterances, each longer than one 4096-frame scoring block,
and one in-process digest of em_fit models, traces and scores on one BLAS
thread (DIGEST), also of fits on the corpus's shared training sides and of
every score list that a sweep of the corpus computes. Each
command's stdout, stderr and exit status go to a file beside its outputs,
and a sweep's records lose their wall-clock keys.

The two output trees are then compared file by file. The first difference
is printed and the exit status is 1; otherwise all are reported equal and
the status is 0. --keep leaves the temporary directory in place. Standard
library only; nothing is fetched.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEP_TIME_KEYS = ("seconds", "train_seconds", "score_seconds")

# Models, traces and scores of em_fit on one BLAS thread, at M = 4..256 over
# more than one 4096-frame block, on frames that leave k-means clusters
# empty (so EM re-seeds dead components), and a score under a model with a
# zero-weight component. Then the fits of M = 2, 4 and 16 in turn on each
# dialect's one shared training side of the corpus, as sweep builds and
# grows it. Last, every score list that a sweep of the corpus at M = 2, 4
# and 16 computes: LT and CT score on two threads, so the lists are printed
# by mixture size, then by a digest of the model that scored them.
DIGEST = r"""
import hashlib
import numpy as np
from dialectid import classifier
from dialectid.corpus import load_manifest
from dialectid.dsp import MfccConfig
from dialectid.gmm import GmmModel, TrainConfig, em_fit, log_likelihood_sequence, one_blas_thread

def model_hash(model):
    h = hashlib.sha256()
    for array in (model.weights, model.means, model.variances):
        h.update(array.tobytes())
    return h

def show(name, model, trace, score):
    h = model_hash(model)
    h.update(repr((trace, score)).encode())
    print(name, h.hexdigest(), len(trace), repr(score))

rng = np.random.default_rng(23)
centers = rng.uniform(-4.0, 4.0, (40, 39))
data = centers[rng.integers(0, 40, 4500)] + rng.standard_normal((4500, 39))
dead = np.repeat(rng.standard_normal((3, 39)), 40, axis=0)[rng.permutation(120)]

def config(m, iterations):
    return TrainConfig(m, max_em_iterations=iterations, kmeans_max_iterations=iterations,
                       convergence_tol=1e-12, rng_seed=4)

with one_blas_thread():
    for m in (4, 16, 64, 256):
        model, trace = em_fit(data, config(m, 6))
        show(f"em_fit M={m}", model, trace, log_likelihood_sequence(model, data))
    model, trace = em_fit(dead, config(5, 4))
    show("em_fit M=5 on 3 distinct frames", model, trace, log_likelihood_sequence(model, dead))
    weights = model.weights.copy()
    weights[1] = 0.0
    zero = GmmModel(weights / weights.sum(), model.means, model.variances)
    show("zero-weight component", zero, [], log_likelihood_sequence(zero, data))
    sides = classifier._training_sides(load_manifest("corpus/manifest.tsv"), MfccConfig())
    for name, side in zip(("LT", "CT"), sides):
        for m in (2, 4, 16):
            model, trace = em_fit(side, config(m, 6))
            show(f"shared {name} side M={m}", model, trace, log_likelihood_sequence(model, side.data))

scored = []
segments = classifier.log_likelihood_segments

def recording(model, frames, starts):
    scores = segments(model, frames, starts)
    scored.append((model.num_components, model_hash(model).hexdigest(), scores))
    return scores

classifier.log_likelihood_segments = recording
manifest = load_manifest("corpus/manifest.tsv")
rows = classifier.sweep_mixtures(manifest, manifest, MfccConfig(), config(2, 6), (2, 4, 16))
for m, digest, scores in sorted(scored):
    print(f"sweep scores M={m} model {digest}", repr(scores))
print("sweep rows", [(row.num_components, row.accuracy, row.error) for row in rows])
"""

CONFIGS = {
    "mel257.cfg": "mfcc.num_mel_filters = 257\n",
    "lpc513.cfg": "nasal.lpc_order = 513\nnasal.frame_length_ms = 40\n",
    "tight.cfg": "train.max_em_iterations = 3\ntrain.convergence_tol = 1e-12\n",
}

LT_WAV = "corpus/wav/lt-train-s000-u00.wav"
CT_WAV = "corpus/wav/ct-test-s000-u00.wav"
MANIFEST = "corpus/manifest.tsv"
SEGMENTED = "corpus/segmented.tsv"
MIXED = "corpus/mixed.tsv"
# 42 s utterances: 4198 frames each, so scoring crosses a block boundary.
LONG = "long/manifest.tsv"
LONG_WAV = "long/wav/ct-test-s000-u00.wav"


def _derived_manifests(run: Path) -> None:
    """corpus/segmented.tsv, the manifest with segment bounds on every other
    utterance, and corpus/mixed.tsv, with every third utterance's dialect
    swapped, so that a sweep's accuracies fall between 0 and 1."""
    lines = (run / MANIFEST).read_text(encoding="utf-8").splitlines()
    bounds = ("\t0.1\t0.85", "")
    rows = [line + bounds[i % 2] for i, line in enumerate(lines)]
    (run / SEGMENTED).write_text("\n".join(rows) + "\n", encoding="utf-8")
    swap = {"LT": "CT", "CT": "LT"}
    rows = [line.split("\t") for line in lines]
    for row in rows[::3]:
        row[2] = swap[row[2]]
    (run / MIXED).write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def _write_configs(run: Path) -> None:
    for name, text in CONFIGS.items():
        (run / "configs" / name).write_text(text, encoding="utf-8")


def _drop_sweep_times(run: Path) -> None:
    for path in sorted((run / "reports").glob("sweep*.jsonl")):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        kept = [{k: v for k, v in row.items() if k not in SWEEP_TIME_KEYS} for row in rows]
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in kept))


def _train(m: int, manifest: str = MANIFEST, name: str | None = None) -> tuple:
    name = name or f"m{m}"
    return (f"train-{name}", ["train", "--manifest", manifest, "--components", str(m),
                              "--out", f"bundles/{name}", "--seed", "3", "--format", "records"])


# (name, dialectid argv, or a function of the output directory), in order.
SCRIPT = [
    ("synth", ["synth", "--out", "corpus", "--train-per-class", "8", "--test-per-class", "4",
               "--per-speaker", "2", "--seconds", "1.0", "--seed", "5", "--format", "records"]),
    ("manifests", _derived_manifests),
    ("configs", _write_configs),
    ("stats", ["stats", "--manifest", MANIFEST]),
    ("stats-segmented", ["stats", "--manifest", SEGMENTED, "--format", "records"]),
    ("validate", ["validate", "--manifest", MANIFEST]),
    *(_train(m) for m in (1, 4, 16, 64)),
    _train(4, SEGMENTED, "segmented4"),
    ("train-tight-config", ["train", "--manifest", MANIFEST, "--components", "8", "--out",
                            "bundles/tight", "--config", "configs/tight.cfg"]),
    ("evaluate-text", ["evaluate", "--bundle", "bundles/m16", "--manifest", MANIFEST]),
    ("evaluate-records", ["evaluate", "--bundle", "bundles/m16", "--manifest", MANIFEST,
                          "--format", "records", "--output", "reports/evaluate.jsonl"]),
    ("evaluate-segmented", ["evaluate", "--bundle", "bundles/segmented4", "--manifest",
                            SEGMENTED, "--format", "records"]),
    ("classify-text", ["classify", "--bundle", "bundles/m64", "--audio", CT_WAV]),
    ("classify-records", ["classify", "--bundle", "bundles/m4", "--audio", LT_WAV,
                          "--format", "records", "--output", "reports/classify.jsonl"]),
    ("extract-binary", ["extract", "--audio", LT_WAV, "--out", "features/lt.feat",
                        "--format", "records"]),
    ("extract-csv", ["extract", "--audio", CT_WAV, "--out", "features/ct.csv", "--csv"]),
    ("nasal-dump", ["nasal", "--audio", LT_WAV, "--start", "0.2", "--end", "0.8",
                    "--dump-spectra", "nasal/spectra.txt", "--format", "records"]),
    ("nasal-pair", ["nasal", "--lt-audio", LT_WAV, "--ct-audio", CT_WAV]),
    ("sweep", ["sweep", "--manifest", MIXED, "--components", "1,2,4,16,5000", "--seed", "3",
               "--format", "records", "--output", "reports/sweep.jsonl"]),
    ("synth-long", ["synth", "--out", "long", "--train-per-class", "1", "--test-per-class",
                    "1", "--per-speaker", "1", "--seconds", "42", "--seed", "6",
                    "--format", "records"]),
    _train(4, LONG, "long4"),
    ("classify-long", ["classify", "--bundle", "bundles/long4", "--audio", LONG_WAV,
                       "--format", "records"]),
    ("evaluate-long", ["evaluate", "--bundle", "bundles/long4", "--manifest", LONG,
                       "--format", "records"]),
    ("sweep-long", ["sweep", "--manifest", LONG, "--components", "2,4", "--seed", "3",
                    "--format", "records", "--output", "reports/sweep-long.jsonl"]),
    ("sweep-times", _drop_sweep_times),
    ("rejected-mel-filters", ["extract", "--audio", LT_WAV, "--out", "features/x.feat",
                              "--config", "configs/mel257.cfg"]),
    ("rejected-lpc-order", ["nasal", "--audio", LT_WAV, "--config", "configs/lpc513.cfg"]),
    ("rejected-components", ["train", "--manifest", MANIFEST, "--components", "0",
                             "--out", "bundles/none"]),
    ("digest", DIGEST),
]


def _export(rev: str, dest: Path) -> str:
    """Write REV's src/ under dest; returns REV's commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)
    return commit


def run_script(tree: Path, run: Path) -> None:
    """Run SCRIPT with tree's src/ in the empty directory run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for sub in ("configs", "streams", "reports", "features", "nasal", "bundles"):
        (run / sub).mkdir(parents=True)
    for number, (name, step) in enumerate(SCRIPT):
        if callable(step):
            step(run)
            continue
        if isinstance(step, str):
            argv = [sys.executable, "-c", step]
        else:
            argv = [sys.executable, "-m", "dialectid.cli", *step]
        done = subprocess.run(argv, cwd=run, env=env, capture_output=True, timeout=600)
        streams = (done.returncode, done.stdout, done.stderr)
        (run / "streams" / f"{number:02d}-{name}.txt").write_bytes(
            b"status %d\n--- stdout\n%s--- stderr\n%s" % streams
        )


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def first_difference(a: Path, b: Path) -> tuple[int, str | None]:
    """(files compared, the first difference between trees a and b in path
    order, or None when every file is in both and byte-identical)."""
    files_a, files_b = _files(a), _files(b)
    names = sorted(files_a | files_b)
    for rel in names:
        if rel not in files_a or rel not in files_b:
            return len(names), f"{rel}: only in {a if rel in files_a else b}"
        data_a, data_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if data_a == data_b:
            continue
        at = next((i for i, (x, y) in enumerate(zip(data_a, data_b)) if x != y),
                  min(len(data_a), len(data_b)))
        line = data_a.count(b"\n", 0, at)
        excerpts = [(data.split(b"\n")[line:] or [b""])[0][:160] for data in (data_a, data_b)]
        return len(names), (
            f"{rel}: first differs at byte {at} (line {line + 1}); "
            f"{len(data_a)} vs {len(data_b)} bytes\n  {excerpts[0]!r}\n  {excerpts[1]!r}"
        )
    return len(names), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--keep", action="store_true", help="keep the temporary directory")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix="bytecheck-"))
    try:
        try:
            commit = _export(args.rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.rev!r} ({exc})", file=sys.stderr)
            return 2
        run = tmp / "run"
        results = {}
        for label, tree in (("rev", tmp / "rev"), ("worktree", ROOT)):
            run.mkdir()
            run_script(tree, run)
            results[label] = run.rename(tmp / f"out-{label}")
        count, diff = first_difference(results["rev"], results["worktree"])
        print(f"{args.rev} ({commit[:12]}) vs the working tree at {ROOT}: "
              f"{len(SCRIPT)} steps, {count} files, {time.perf_counter() - start:.1f} s")
        digest = next((results["worktree"] / "streams").glob("*-digest.txt"))
        print(digest.read_text(encoding="utf-8", errors="replace").rstrip())
        if diff is not None:
            print(f"DIFFERENT: {diff}")
            return 1
        print("all files, streams, statuses and em_fit digests equal")
        return 0
    finally:
        if args.keep:
            print(f"kept {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
