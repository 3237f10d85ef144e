"""Spans around calls into dialectid's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every module attribute
that is bound to it (the defining module and each `from .x import f` site),
so calls made inside the package are seen too. Spans are kept in memory as
(name, start, end, parent, op, phase, ok) and written out when the run ends.
A layer's self time is its span's duration minus the duration of its child
spans; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

# module -> (span prefix, traced public functions)
TRACED = {
    "dialectid.synth": ("synth", ["generate_synthetic_corpus"]),
    "dialectid.corpus": ("corpus", ["read_audio"]),
    "dialectid.dsp": ("dsp", ["extract_features"]),
    "dialectid.gmm": ("gmm", ["kmeans_init", "em_fit", "log_likelihood_sequence"]),
    "dialectid.classifier": (
        "classifier",
        ["train_bundle", "classify_utterance", "sweep_mixtures", "load_bundle"],
    ),
    "dialectid.nasalization": (
        "nasal",
        [
            "analyze_segment",
            "segment_lp_spectra",
            "autocorrelation",
            "levinson_durbin",
            "lp_spectrum",
            "find_band_peak",
        ],
    ),
    "dialectid.cli": ("cli", ["run"]),
}


def maxrss_mb() -> float:
    """High-water resident set of this process and of its waited-for children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _count_extract_features(tracer, args, result):
    signal = args[0]
    tracer.add("dsp.audio_s", signal.samples.size / signal.sample_rate)


def _count_em_fit(tracer, args, result):
    iterations = len(result[1])
    tracer.add("gmm.em_iterations", iterations)
    tracer.add("gmm.em_frame_iters", args[0].shape[0] * iterations)
    tracer.peak("gmm.em_maxrss_mb", maxrss_mb())


def _count_log_likelihood(tracer, args, result):
    tracer.add("gmm.scored_frames", args[1].shape[0])


def _count_analyze_segment(tracer, args, result):
    tracer.add("nasal.frames", result.num_frames)
    tracer.add("nasal.analyzed", result.num_analyzed)


COUNTERS = {
    "dsp.extract_features": _count_extract_features,
    "gmm.em_fit": _count_em_fit,
    "gmm.log_likelihood_sequence": _count_log_likelihood,
    "nasal.analyze_segment": _count_analyze_segment,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._plan: list = []
        self._installed = False

    def add(self, key: str, value: float) -> None:
        if self.phase == "op":
            self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        if self.phase == "op":
            self.counts[key] = max(self.counts.get(key, 0.0), value)

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, self.phase, ok)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each dialectid attribute bound to it."""
        if self._installed:
            return
        if not self._plan:
            loaded = [m for n, m in list(sys.modules.items()) if n.startswith("dialectid") and m]
            for module_name, (prefix, names) in TRACED.items():
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{prefix}.{fname}", original)
                    for holder in loaded:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._plan.append((holder, attr, original, wrapper))
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._plan:
            setattr(holder, attr, original)
        self._installed = False

    def extend(self, spans: list, counts: dict, op: int) -> None:
        """Merge spans and counts recorded by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, _, phase, ok in spans:
            self.spans.append(
                (name, start, end, parent + offset if parent >= 0 else -1, op, phase, ok)
            )
        for key, value in counts.items():
            if key.endswith("_mb"):
                self.counts[key] = max(self.counts.get(key, 0.0), value)
            else:
                self.counts[key] = self.counts.get(key, 0.0) + value

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time and each call's duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _, span_phase, _) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[index]
            entry["durations"].append(end - start)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op, phase, ok) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "phase": phase,
                            "ok": ok,
                        }
                    )
                    + "\n"
                )


def median_duration(summary: dict, name: str) -> float:
    entry = summary.get(name)
    return statistics.median(entry["durations"]) if entry else 0.0
