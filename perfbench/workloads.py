"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`. One operation is
`call(i)`, the timed call into dialectid; `check(i, output)` validates the
output outside the timed region and returns a problem or None; `audio_s(i)`
is the seconds of input audio the operation covers. `finish()` returns
run-level problems, such as accuracy over the whole run. Workloads call
dialectid through module attributes, so spans.Tracer sees every call.

Checks use tolerances rather than byte equality, so a kernel that reorders
floating-point sums still passes.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys

import numpy as np

from dialectid import classifier, corpus, dsp, gmm, nasalization, synth

SR = dsp.CANONICAL_SAMPLE_RATE
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Criterion 05's sweep: mixture sizes and EM/k-means iteration settings.
SWEEP_COUNTS = [16, 32, 64, 128, 256]
MIN_ACCURACY = 0.95

CLASSIFY_LENGTHS_S = (1.0, 1.5, 2.0, 3.0, 4.0)
NASAL_LENGTHS_S = (0.25, 0.5, 1.0, 2.0, 4.0)
NASAL_CENTER_HZ = 250.0
NASAL_TOLERANCE_HZ = 30.0

CLI_BOOT = "import sys; from dialectid.cli import main; sys.argv[0] = 'dialectid'; main()"


def sweep_train_config(num_components: int = 1) -> gmm.TrainConfig:
    return gmm.TrainConfig(
        num_components=num_components,
        max_em_iterations=8,
        convergence_tol=1e-12,
        kmeans_max_iterations=8,
        rng_seed=0,
    )


def train_saved_bundle(result, out_dir: str, num_components: int):
    """Train on the corpus's train split, save the bundle and load it back."""
    if not corpus.validate_split(result.manifest).passed:
        raise RuntimeError("synthetic corpus shares speakers across splits")
    bundle = classifier.train_bundle(
        result.manifest, dsp.MfccConfig(), sweep_train_config(num_components)
    )
    classifier.save_bundle(bundle, out_dir)
    return classifier.load_bundle(out_dir)


def truncated_tests(result, out_dir: str, lengths, seed: int) -> list[tuple[str, object, float]]:
    """Test utterances cut to a ladder of lengths, in seeded order."""
    os.makedirs(out_dir, exist_ok=True)
    items = []
    for k, rec in enumerate(result.manifest.subset(split=corpus.Split.TEST)):
        length = lengths[k % len(lengths)]
        samples = corpus.read_audio(rec.audio_path).samples[: int(length * SR)]
        path = os.path.join(out_dir, f"test{k:03d}.wav")
        corpus.write_wav(path, dsp.AudioSignal(samples, SR))
        items.append((path, rec.dialect, length))
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[j] for j in order]


def nonsilent_frames(samples: np.ndarray, config: nasalization.NasalConfig) -> tuple[int, int]:
    """(frames, frames holding any nonzero sample) under the analyzer's framing."""
    length = int(round(config.frame_length_ms * SR / 1000.0))
    hop = int(round(config.frame_shift_ms * SR / 1000.0))
    frames = (samples.size - length) // hop + 1
    nonzero = np.concatenate(([0], np.cumsum(samples != 0.0)))
    starts = hop * np.arange(frames)
    return frames, int(((nonzero[starts + length] - nonzero[starts]) > 0).sum())


def nasal_segments(seed: int, lengths, variants: int) -> list[tuple[dsp.AudioSignal, int, int]]:
    """Low-resonance noise near 250 Hz; every third segment has a silent stretch.

    Returns (signal, frames, non-silent frames) in seeded order.
    """
    rng = np.random.default_rng(seed)
    config = nasalization.NasalConfig()
    out = []
    for length in lengths:
        for v in range(variants):
            center = NASAL_CENTER_HZ * (1.0 + rng.uniform(-0.02, 0.02))
            samples = synth.ar_noise(rng, int(length * SR), center, 0.99, SR)
            if v % 3 == 2:
                gap = int(rng.uniform(0.2, 0.4) * samples.size)
                at = int(rng.integers(0, samples.size - gap + 1))
                samples[at : at + gap] = 0.0
            out.append((dsp.AudioSignal(samples, SR), *nonsilent_frames(samples, config)))
    order = rng.permutation(len(out))
    return [out[j] for j in order]


class Workload:
    name = ""

    @property
    def cycle(self) -> int:
        """Operations after which every kind of input has been weighted alike."""
        return 1

    def setup(self, work_dir: str, seed: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self.call(0)

    def call(self, i: int):
        raise NotImplementedError

    def traced_call(self, i: int, tracer):
        tracer.install()
        try:
            return self.call(i)
        finally:
            tracer.uninstall()

    def check(self, i: int, output) -> str | None:
        return None

    def audio_s(self, i: int) -> float:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def named_metrics(self, latencies_s: list[float], done: list[int]) -> dict:
        """Named end-to-end metrics from the successful untraced operations."""
        return {}

    def layer_extras(self, latencies_s: list[float]) -> dict[str, float]:
        """Per-layer metrics the spans do not give, from the untraced operations."""
        return {}

    def inject_fault(self) -> None:
        """Corrupt the program's output so that the checks must fire."""
        raise NotImplementedError


def _latency_metrics(prefix: str, latencies_s: list[float]) -> dict:
    """Median plus the highest percentile above it with at least ten samples beyond it.

    The tail's value is None when fewer than 40 samples leave no such percentile.
    """
    ordered = sorted(latencies_s)
    n = len(ordered)
    out = {f"{prefix}_p50_ms": {"value": statistics.median(ordered) * 1000.0, "unit": "ms", "samples": n}}
    # Nearest-rank percentiles, in tenths of a percent to keep the arithmetic exact.
    ranks = {p: (p * n + 999) // 1000 - 1 for p in (750, 900, 950, 990, 999)}
    tails = [p for p, rank in ranks.items() if n - 1 - rank >= 10]
    out[f"{prefix}_tail_ms"] = {
        "value": ordered[ranks[tails[-1]]] * 1000.0 if tails else None,
        "unit": "ms",
        "percentile": tails[-1] / 10.0 if tails else None,
        "samples": n,
    }
    return out


class Sweep(Workload):
    name = "sweep"

    def setup(self, work_dir, seed):
        result = synth.generate_synthetic_corpus(
            work_dir, seed=seed, train_per_class=12, test_per_class=12, utterance_seconds=3.0
        )
        self.manifest = result.manifest
        self.corpus_audio_s = 3.0 * len(result.manifest.records)
        self.rows: list = []

    def call(self, i):
        return classifier.sweep_mixtures(
            self.manifest, self.manifest, dsp.MfccConfig(), sweep_train_config(), SWEEP_COUNTS
        )

    def check(self, i, rows):
        if [r.num_components for r in rows] != SWEEP_COUNTS:
            return f"sweep rows cover {[r.num_components for r in rows]}"
        for r in rows:
            if r.error is not None:
                return f"M={r.num_components} failed: {r.error}"
            if not r.accuracy >= MIN_ACCURACY:
                return f"M={r.num_components} accuracy {r.accuracy} < {MIN_ACCURACY}"
        self.rows.append(rows)
        return None

    def audio_s(self, i):
        return self.corpus_audio_s

    def named_metrics(self, latencies_s, done):
        return {"sweep_s": {"value": statistics.median(latencies_s), "unit": "s", "samples": len(latencies_s)}}

    def layer_extras(self, latencies_s):
        return {
            f"sweep.row_s.M{m}": statistics.median(rows[k].seconds for rows in self.rows)
            for k, m in enumerate(SWEEP_COUNTS)
            if self.rows
        }

    def inject_fault(self):
        original = classifier.sweep_mixtures

        def faulty(*args, **kwargs):
            rows = original(*args, **kwargs)
            rows[-1].accuracy = 0.5
            return rows

        classifier.sweep_mixtures = faulty


class Classify(Workload):
    name = "classify"

    def setup(self, work_dir, seed):
        result = synth.generate_synthetic_corpus(
            os.path.join(work_dir, "corpus"),
            seed=seed,
            train_per_class=12,
            test_per_class=20,
            utterance_seconds=4.0,
        )
        self.bundle = train_saved_bundle(result, os.path.join(work_dir, "bundle"), 256)
        self.items = truncated_tests(result, os.path.join(work_dir, "test"), CLASSIFY_LENGTHS_S, seed)
        self.right = 0
        self.judged = 0

    @property
    def cycle(self):
        return len(self.items)

    def call(self, i):
        path = self.items[i % len(self.items)][0]
        return classifier.classify_utterance(self.bundle, corpus.read_audio(path))

    def check(self, i, decision):
        if not (math.isfinite(decision.lt_score) and math.isfinite(decision.ct_score)):
            return f"non-finite scores {decision.lt_score!r} {decision.ct_score!r}"
        self.judged += 1
        self.right += decision.label is self.items[i % len(self.items)][1]
        return None

    def audio_s(self, i):
        return self.items[i % len(self.items)][2]

    def finish(self):
        accuracy = self.right / self.judged if self.judged else 0.0
        if accuracy < MIN_ACCURACY:
            return [f"run accuracy {accuracy:.4f} < {MIN_ACCURACY} over {self.judged} utterances"]
        return []

    def named_metrics(self, latencies_s, done):
        out = _latency_metrics("classify", latencies_s)
        audio_s = sum(self.audio_s(i) for i in done)
        out["classify_audio_x_rt"] = {"value": audio_s / sum(latencies_s), "unit": "x"}
        return out

    def inject_fault(self):
        original = classifier.classify_utterance

        def faulty(*args, **kwargs):
            decision = original(*args, **kwargs)
            decision.lt_score = float("nan")
            return decision

        classifier.classify_utterance = faulty


class Nasal(Workload):
    name = "nasal"

    def setup(self, work_dir, seed):
        self.segments = nasal_segments(seed, NASAL_LENGTHS_S, variants=6)

    @property
    def cycle(self):
        return len(self.segments)

    def call(self, i):
        signal = self.segments[i % len(self.segments)][0]
        config = nasalization.NasalConfig()
        return (
            nasalization.analyze_segment(signal, config),
            nasalization.segment_lp_spectra(signal, config),
        )

    def check(self, i, output):
        report, (freqs, spectra) = output
        _, frames, nonsilent = self.segments[i % len(self.segments)]
        if report.num_frames != frames:
            return f"{report.num_frames} frames, expected {frames}"
        if report.num_analyzed != nonsilent or len(spectra) != nonsilent:
            return (
                f"analyzed {report.num_analyzed} frames and {len(spectra)} spectra, "
                f"expected {nonsilent} non-silent frames"
            )
        if [t for t, _ in spectra] != [fp.frame_index for fp in report.frame_peaks]:
            return "spectra and peaks cover different frames"
        if not all(np.isfinite(db).all() for _, db in spectra):
            return "non-finite LP spectrum"
        if abs(report.median_peak_hz - NASAL_CENTER_HZ) > NASAL_TOLERANCE_HZ:
            return f"median peak {report.median_peak_hz} Hz is not within {NASAL_CENTER_HZ}+-{NASAL_TOLERANCE_HZ}"
        return None

    def audio_s(self, i):
        signal = self.segments[i % len(self.segments)][0]
        return signal.samples.size / SR

    def named_metrics(self, latencies_s, done):
        frames = sum(self.segments[i % len(self.segments)][1] for i in done)
        out = {"nasal_frames_per_s": {"value": frames / sum(latencies_s), "unit": "1/s"}}
        out.update(_latency_metrics("nasal", latencies_s))
        return out

    def inject_fault(self):
        original = nasalization.analyze_segment

        def faulty(*args, **kwargs):
            report = original(*args, **kwargs)
            report.num_analyzed -= 1
            return report

        nasalization.analyze_segment = faulty


def _parse_records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _importtime_s(module: str, lines: list[str]) -> float:
    """Cumulative import seconds of `module` in `python -X importtime` output."""
    for line in lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


IMPORTTIME_MODULES = {
    "numpy": "cli.importtime.numpy_s",
    "scipy.fft": "cli.importtime.scipy_fft_s",
    "scipy.signal": "cli.importtime.scipy_signal_s",
    "dialectid": "cli.importtime.dialectid_s",
}


class Cli(Workload):
    name = "cli"

    def __init__(self):
        self.extra_args: list[str] = []

    def setup(self, work_dir, seed):
        result = synth.generate_synthetic_corpus(
            os.path.join(work_dir, "corpus"),
            seed=seed,
            train_per_class=8,
            test_per_class=10,
            utterance_seconds=2.0,
        )
        self.bundle_dir = os.path.join(work_dir, "bundle")
        train_saved_bundle(result, self.bundle_dir, 64)
        self.tests = [
            (rec.audio_path, rec.dialect, 2.0)
            for rec in result.manifest.subset(split=corpus.Split.TEST)
        ]
        # Nasal segments padded with silence and cut back out by --start/--end;
        # expected counts come from the samples as the WAV stores them.
        self.nasal = []
        pad = int(0.25 * SR)
        config = nasalization.NasalConfig()
        for k, (signal, frames, _) in enumerate(nasal_segments(seed, (1.0, 2.0), variants=3)):
            path = os.path.join(work_dir, f"nasal{k:02d}.wav")
            samples = np.pad(signal.samples, pad)
            corpus.write_wav(path, dsp.AudioSignal(samples, SR))
            stored = np.rint(signal.samples * 32768.0)
            start, end = pad / SR, (pad + signal.samples.size) / SR
            self.nasal.append((path, start, end, frames, nonsilent_frames(stored, config)[1]))
        self.work_dir = work_dir
        self._dump_path = os.path.join(work_dir, "spectra.txt")
        self.import_s: list[float] = []

    @property
    def cycle(self):
        return 2  # one classify, one nasal

    def _args(self, i):
        if i % 2 == 0:
            path = self.tests[(i // 2) % len(self.tests)][0]
            args = ["classify", "--bundle", self.bundle_dir, "--audio", path]
        else:
            path, start, end = self.nasal[(i // 2) % len(self.nasal)][:3]
            args = [
                "nasal", "--audio", path, "--start", repr(start), "--end", repr(end),
                "--dump-spectra", self._dump_path,
            ]
        return args + ["--format", "records"] + self.extra_args

    def _spawn(self, prefix, i):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        return subprocess.run(
            [sys.executable, *prefix, *self._args(i)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def call(self, i):
        return self._spawn(["-c", CLI_BOOT], i)

    def traced_call(self, i, tracer):
        spans_path = os.path.join(self.work_dir, "cli-spans.json")
        proc = self._spawn([os.path.join(HERE, "cli_traced.py"), spans_path], i)
        with open(spans_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        tracer.extend(recorded["spans"], recorded["counts"], i)
        self.import_s.append(recorded["import_s"])
        return proc

    def check(self, i, proc):
        if proc.returncode != 0:
            return f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
        try:
            records = _parse_records(proc.stdout)
        except json.JSONDecodeError as exc:
            return f"records output does not parse: {exc}"
        if i % 2 == 0:
            if len(records) != 1 or records[0].get("label") not in ("LT", "CT"):
                return f"unexpected classify records {records!r}"
            if not all(math.isfinite(records[0][k]) for k in ("lt_score", "ct_score")):
                return "non-finite classify scores"
            return None
        _, _, _, frames, nonsilent = self.nasal[(i // 2) % len(self.nasal)]
        summary = [r for r in records if r.get("type") == "summary"]
        if len(summary) != 1:
            return "nasal output has no single summary record"
        summary = summary[0]
        if summary["num_frames"] != frames or summary["num_analyzed"] != nonsilent:
            return (
                f"nasal analyzed {summary['num_analyzed']} of {summary['num_frames']} frames, "
                f"expected {nonsilent} of {frames}"
            )
        if abs(summary["median_peak_hz"] - NASAL_CENTER_HZ) > NASAL_TOLERANCE_HZ:
            return f"median peak {summary['median_peak_hz']} Hz is not within {NASAL_CENTER_HZ}+-{NASAL_TOLERANCE_HZ}"
        with open(self._dump_path, encoding="utf-8") as fh:
            dumped = sum(line.startswith("# frame") for line in fh)
        os.remove(self._dump_path)
        if dumped != nonsilent:
            return f"dumped {dumped} spectra, expected {nonsilent}"
        return None

    def audio_s(self, i):
        if i % 2 == 0:
            return self.tests[(i // 2) % len(self.tests)][2]
        _, start, end = self.nasal[(i // 2) % len(self.nasal)][:3]
        return end - start

    def named_metrics(self, latencies_s, done):
        return _latency_metrics("cli", latencies_s)

    def layer_extras(self, latencies_s):
        out = {"cli.process_s": statistics.median(latencies_s)} if latencies_s else {}
        if self.import_s:
            out["cli.import_s"] = statistics.median(self.import_s)
        runs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import dialectid.cli"],
                env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                capture_output=True,
                text=True,
                timeout=120,
            )
            runs.append(proc.stderr.splitlines())
        for module, key in IMPORTTIME_MODULES.items():
            out[key] = statistics.median(_importtime_s(module, lines) for lines in runs)
        return out

    def inject_fault(self):
        self.extra_args = ["--no-such-option"]


WORKLOADS = {w.name: w for w in (Sweep, Classify, Nasal, Cli)}
