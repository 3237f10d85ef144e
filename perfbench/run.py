"""dialectid benchmark: one closed-loop caller, one operation at a time.

    python3 perfbench/run.py --workload {sweep,classify,nasal,cli,all}
                             --seed N --seconds S --trace {0,1} [--out FILE]

Run from anywhere; dialectid is imported from the `src/` directory beside
`perfbench/`. The set-up builds the workload's inputs from --seed three
times and reports the median; one untimed warm-up operation follows; then
operations run back to back for --seconds and on to the end of the current
cycle of inputs, each checked for correctness outside its timed region.

--trace 0 reports the end-to-end metrics. --trace 1 runs each operation
twice, untraced and then traced (spans around calls into dialectid's public
functions, see spans.py), and reports per-layer metrics plus the tracing
overhead; spans go to .perfbench_work/traces/. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it holds the detail: every named metric of the workload, problems found and
the environment. A run whose checks fail still prints its result, then
exits with status 1. --workload all runs each workload in its own process
and prints every named metric; --out writes that summary to a file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("sweep", "classify", "nasal", "cli")
SETUP_REPEATS = 3


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, the one list of metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _prepare_imports() -> None:
    """Pin BLAS threads to the usable CPUs and import dialectid from src/."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    if not os.path.isfile(os.path.join(SRC, "dialectid", "__init__.py")):
        sys.exit(f"perfbench: no dialectid package under {SRC}")
    sys.path.insert(0, SRC)
    import dialectid

    if os.path.dirname(os.path.dirname(os.path.abspath(dialectid.__file__))) != SRC:
        sys.exit(f"perfbench: imported dialectid from {dialectid.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one operation at a time",
    }


def _timed(workload, i, tracer=None):
    """(seconds, output or None, problem or None) for operation i."""
    start = time.perf_counter()
    try:
        output = workload.traced_call(i, tracer) if tracer else workload.call(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, output, workload.check(i, output)


def measure(workload, seconds: float, tracer) -> dict:
    """Run operations back to back for `seconds`; paired with traced ones if tracing.

    The run ends on a whole cycle of the workload's inputs, so every input
    is weighted alike and the median does not depend on where time ran out.
    """
    latencies, traced, done, pairs, problems = [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        runs = [(latencies, None)]
        if tracer is not None:
            tracer.op = i
            runs.append((traced, tracer))
        ok = []
        for sink, tr in runs:
            elapsed, _, problem = _timed(workload, i, tr)
            attempted += 1
            if problem is None:
                sink.append(elapsed)
                ok.append(elapsed)
                if tr is None:
                    done.append(i)
            else:
                failed += 1
                problems.append(f"op {i}: {problem}")
        if len(ok) == 2:
            pairs.append(ok)
        i += 1
        if time.perf_counter() >= deadline and i % workload.cycle == 0:
            break
    return {
        "latencies": latencies,
        "traced": traced,
        "done": done,
        "pairs": pairs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ops": i,
    }


def layer_metrics(tracer, workload, run: dict, names) -> dict[str, float]:
    from spans import median_duration

    ops = max(1, len(run["traced"]))
    op_spans = tracer.summary("op")
    setup_spans = tracer.summary("setup")
    counts = tracer.counts

    def per_op(name, field):
        return op_spans.get(name, {}).get(field, 0.0) / ops

    def rate(count_key, span_name):
        busy = op_spans.get(span_name, {}).get("self_s", 0.0)
        return counts.get(count_key, 0.0) / busy if busy else 0.0

    m = dict.fromkeys(names, 0.0)
    for name in (
        "corpus.read_audio",
        "dsp.extract_features",
        "gmm.kmeans_init",
        "gmm.em_fit",
        "gmm.log_likelihood_sequence",
    ):
        m[f"{name}.calls"] = per_op(name, "calls")
        m[f"{name}.self_s"] = per_op(name, "self_s")
    for name in (
        "classifier.classify_utterance",
        "classifier.sweep_mixtures",
        "classifier.load_bundle",
        "cli.run",
        "nasal.analyze_segment",
        "nasal.segment_lp_spectra",
        "nasal.autocorrelation",
        "nasal.levinson_durbin",
        "nasal.lp_spectrum",
        "nasal.find_band_peak",
    ):
        m[f"{name}.self_s"] = per_op(name, "self_s")
    m["synth.generate_synthetic_corpus.s"] = median_duration(setup_spans, "synth.generate_synthetic_corpus")
    m["classifier.train_bundle.s"] = median_duration(setup_spans, "classifier.train_bundle")
    m["dsp.extract_features.audio_x_rt"] = rate("dsp.audio_s", "dsp.extract_features")
    m["gmm.em_fit.iterations"] = counts.get("gmm.em_iterations", 0.0) / ops
    m["gmm.em_fit.frame_iters_per_s"] = rate("gmm.em_frame_iters", "gmm.em_fit")
    m["gmm.em_fit.maxrss_mb"] = counts.get("gmm.em_maxrss_mb", 0.0)
    m["gmm.log_likelihood_sequence.frames_per_s"] = rate("gmm.scored_frames", "gmm.log_likelihood_sequence")
    frames = counts.get("nasal.frames", 0.0)
    m["nasal.frames"] = frames / ops
    m["nasal.analyzed_fraction"] = counts.get("nasal.analyzed", 0.0) / frames if frames else 0.0
    m.update(workload.layer_extras(run["latencies"]))
    pairs = run["pairs"]
    if pairs:
        m["trace.overhead_ms"] = statistics.median(t - u for u, t in pairs) * 1000.0
        m["trace.overhead_frac"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0
    m["trace.spans_per_op"] = sum(e["calls"] for e in op_spans.values()) / ops
    return m


def run_one(args) -> int:
    _prepare_imports()
    sys.path.insert(0, HERE)
    from spans import Tracer, maxrss_mb
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    if args.inject_fault:
        workload.inject_fault()
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            if tracer:
                tracer.install()
            start = time.perf_counter()
            workload.setup(os.path.join(run_dir, f"setup{r}"), args.seed)
            setup_times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
        if tracer:
            tracer.phase = "op"
        workload.warmup()
        run = measure(workload, args.seconds, tracer)
        problems = run["problems"] + workload.finish()
        lat = run["latencies"]
        if not lat:
            problems.append("no operation succeeded")
        e2e = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(lat) * 1000.0 if lat else math.nan,
            "audio_x_rt": statistics.median(
                workload.audio_s(i) / t for i, t in zip(run["done"], lat)
            ) if lat else math.nan,
            "peak_rss_mb": maxrss_mb(),
        }
        named = {
            "setup_s": {"value": e2e["setup_s"], "unit": "s", "runs": setup_times},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
            "fail_ratio": {"value": run["failed"] / run["attempted"], "unit": "ratio"},
        }
        if run["latencies"]:
            named.update(workload.named_metrics(run["latencies"], run["done"]))
        if tracer:
            units = _units("per_layer")
            values = layer_metrics(tracer, workload, run, units)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in _units("end_to_end").items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not problems
    print(
        f"perfbench {args.workload}: seed {args.seed}, {run['ops']} operations in "
        f"{args.seconds} s, {run['failed']} failed of {run['attempted']}"
    )
    for name, rec in {**named, **metrics}.items():
        print(f"  {name:<44} {_shown(rec)}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    detail = {"workload": args.workload, "named": named, "problems": problems, "environment": environment(args)}
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _shown(rec: dict) -> str:
    """One metric for the printed table: value, unit and tail percentile."""
    if rec["value"] is None:
        return f"{'n/a':>14} {rec['unit']}  (only {rec['samples']} samples)"
    extra = f"  (p{rec['percentile']:g} of {rec['samples']})" if rec.get("percentile") else ""
    return f"{rec['value']:>14.6g} {rec['unit']}{extra}"


def run_all(args) -> int:
    """Each workload in its own process; prints every named metric."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        status = max(status, proc.returncode)
        results[name] = {**json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}

    print(f"{'workload':<10} {'metric':<44} {'value':>14} unit")
    combined = {}
    for name, res in results.items():
        shown = res["result"]["metrics"] if args.trace else res["named"]
        for metric, rec in shown.items():
            print(f"{name:<10} {metric:<44} {_shown(rec)}")
            combined[f"{name}/{metric}"] = {"value": rec["value"], "unit": rec["unit"]}
    summary = {
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": combined,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="dialectid benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write the summary here")
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the program's outputs so the checks must fail (self-check)",
    )
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
