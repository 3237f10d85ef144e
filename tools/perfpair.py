#!/usr/bin/env python3
"""Time a perfbench workload with a revision's code and with this checkout's,
one operation at a time, in alternating pairs.

    python tools/perfpair.py REV [--workload W] [--seconds S]

Exports REV's src/ as tools/bytecheck.py does, then starts one worker
process per tree: A runs REV's src/, B the working tree's, uncommitted
changes included. Each worker puts its own src/ first on sys.path, imports
perfbench/workloads.py, and runs the workload's setup, under SEED, and
its warmup. It then runs one operation per request, times the workload's
call alone and checks its output with the workload's check. perfpair asks
both workers for the same operation in turn, A first in even pairs and B
first in odd ones, so only one operation runs at a time and a drift in the
machine's speed falls on both sides alike. The run lasts S seconds, in
rounds of about ROUND_SECONDS, each with two fresh workers started in
alternating order and ending on a whole cycle of the workload's inputs.

Prints the number of pairs, each side's median seconds, the median of the
per-pair ratios B/A with a distribution-free 95% interval (order statistics
of the ratios), each round's median ratio, the number of pairs in which B
was faster, and each side's peak RSS. The interval takes the pairs as
independent, so it leaves out the spread between workers, which the
rounds' medians show. The exit status is 1 if an operation fails its check
or a worker stops, and 2 if REV cannot be exported.

The cli workload spawns each operation's process on perfbench's own
checkout, so both workers would time the same code. The classify workload
is its in-process counterpart: classify_utterance on a saved bundle.
perfpair itself uses the standard library only; the workers load numpy and
dialectid through the workload.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bytecheck import ROOT, _export

WORKLOADS = ("sweep", "classify", "nasal")
SEED = 951  # the set-up seed of the re-anchored perfbench baselines
# Each worker process runs at its own speed, which no number of its pairs
# averages out: A/A runs of one pair of workers read B/A medians of 0.982 to
# 1.020 on classify, each with an interval about 1% wide. So the run is cut
# into rounds of about this many seconds, each with two fresh workers.
ROUND_SECONDS = 15.0

# Runs worker() from this file, with this directory on sys.path only so that
# the import finds it; worker() puts its tree's src/ ahead of it.
BOOT = "import sys; sys.path.insert(0, {tools!r}); from perfpair import worker; worker(*sys.argv[1:])"


def worker(src: str, name: str, seed: str, work_dir: str) -> None:
    """Serve one tree's operations: after setup and warmup, reply with one
    JSON line naming the workload's cycle and the dialectid imported; then
    read one operation index per line from stdin and reply with its seconds
    and check problem; at end of input reply with the workload's run-level
    problems and the peak RSS."""
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # whatever the program prints goes to stderr
    sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]()
    workload.setup(work_dir, int(seed))
    workload.warmup()

    def reply(**record):
        replies.write(json.dumps(record) + "\n")

    reply(cycle=workload.cycle, dialectid=sys.modules["dialectid"].__file__)
    for line in sys.stdin:
        i = int(line)
        start = time.perf_counter()
        output = workload.call(i)
        seconds = time.perf_counter() - start
        reply(seconds=seconds, problem=workload.check(i, output))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply(problems=workload.finish(), peak_rss_mb=peak_kb / 1024.0)


class Worker:
    """One worker process and its reply stream."""

    def __init__(self, label: str, src: Path, name: str, seed: int, work_dir: Path):
        self.label = label
        self.src = src
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        boot = BOOT.format(tools=str(Path(__file__).resolve().parent))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", boot, str(src), name, str(seed), str(work_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {self.label} exited with status {self.proc.wait()}")
        return json.loads(line)

    def ready(self) -> int:
        """The workload's cycle, once the worker is set up on its own tree."""
        record = self.read()
        if not Path(record["dialectid"]).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"worker {self.label} imported {record['dialectid']}, not {self.src}")
        return record["cycle"]

    def run(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self) -> dict:
        self.proc.stdin.close()
        record = self.read()
        self.proc.wait()
        return record


def median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free 95% interval for the median of values: their k-th
    smallest and k-th largest, for the largest k with P(Binomial(n, 1/2) < k)
    at most 1/40; the range when n is too small for any k."""
    ordered = sorted(values)
    n = len(ordered)
    below, k = 0, 0
    while k < n and 40 * (below + math.comb(n, k)) <= 2**n:
        below += math.comb(n, k)
        k += 1
    return (ordered[k - 1], ordered[n - k]) if k else (ordered[0], ordered[-1])


def pairs(a: Worker, b: Worker, seconds: float, cycle: int, i: int, times: dict) -> int:
    """Run operations i, i + 1, ... on both workers, alternating which runs
    first, for seconds and on to the end of a cycle, adding each side's
    seconds to times; a failed check stops the run. Returns the next i."""
    deadline = time.perf_counter() + seconds
    while True:
        for w in (a, b) if i % 2 == 0 else (b, a):
            record = w.run(i)
            if record["problem"] is not None:
                raise RuntimeError(f"worker {w.label}, operation {i}: {record['problem']}")
            times[w.label].append(record["seconds"])
        i += 1
        if time.perf_counter() >= deadline and i % cycle == 0:
            return i


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to time against the working tree")
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--seconds", type=float, default=120.0, help="pairs to run for")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="perfpair-"))
    workers = []
    try:
        try:
            commit = _export(args.rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.rev!r} ({exc})", file=sys.stderr)
            return 2
        trees = [("A", tmp / "rev" / "src"), ("B", ROOT / "src")]
        rounds = max(1, round(args.seconds / ROUND_SECONDS))
        times = {"A": [], "B": []}
        peak_rss = {"A": 0.0, "B": 0.0}
        problems, round_ratios = [], []
        set_up, elapsed, i = 0.0, 0.0, 0
        for r in range(rounds):
            start, workers = time.perf_counter(), []
            for label, src in trees if r % 2 == 0 else trees[::-1]:
                workers.append(Worker(label, src, args.workload, SEED, tmp / f"{label}{r}"))
            cycle = [w.ready() for w in workers][0]
            set_up += time.perf_counter() - start
            start, first = time.perf_counter(), len(times["A"])
            a, b = sorted(workers, key=lambda w: w.label)
            i = pairs(a, b, args.seconds / rounds, cycle, i, times)
            elapsed += time.perf_counter() - start
            round_ratios.append(statistics.median(
                tb / ta for ta, tb in zip(times["A"][first:], times["B"][first:])))
            for w in workers:
                end = w.finish()
                peak_rss[w.label] = max(peak_rss[w.label], end["peak_rss_mb"])
                problems += [f"worker {w.label}: {p}" for p in end["problems"]]
                shutil.rmtree(tmp / f"{w.label}{r}", ignore_errors=True)
        ratios = [tb / ta for ta, tb in zip(times["A"], times["B"])]
        low, high = median_interval(ratios)
        print(f"perfpair {args.workload}, seed {SEED}: A = {args.rev} ({commit[:12]}), "
              f"B = the working tree at {ROOT}; set-up {set_up:.1f} s")
        print(f"pairs {len(ratios)} in {elapsed:.1f} s, {rounds} rounds of fresh workers")
        print(f"median seconds: A {statistics.median(times['A']):.6f}  "
              f"B {statistics.median(times['B']):.6f}")
        print(f"B/A median {statistics.median(ratios):.4f}, 95% interval {low:.4f} to {high:.4f}")
        print("B/A median per round: " + " ".join(f"{q:.4f}" for q in round_ratios))
        print(f"B faster in {sum(q < 1.0 for q in ratios)} of {len(ratios)} pairs")
        print(f"peak RSS MB: A {peak_rss['A']:.1f}  B {peak_rss['B']:.1f}")
        for problem in problems:
            print(f"problem: {problem}")
        return 1 if problems else 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers:
            if w.proc.poll() is None:
                w.proc.kill()
                w.proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
