"""The benchmark's own check.

    python3 perfbench/selfcheck.py

For each workload (those of BENCHMARK.json and `nasal`), on seed 1 with
one-second runs:
- the untraced run passes its checks and emits exactly the end-to-end
  metrics of BENCHMARK.json, each a positive finite number with its unit;
- the traced run emits exactly the per-layer metrics of BENCHMARK.json;
- with --inject-fault (the program's output corrupted) the run reports
  failed operations, correct=false, and exits non-zero.
Then the benchmark, copied alone into an empty directory, must exit
non-zero without printing a result. Exits 1 if any of this fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd, workload, trace=0, fault=False):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    if fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def _metric_problems(result, spec) -> list[str]:
    expected = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    problems = []
    if set(got) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for name, rec in got.items():
        if rec.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {rec.get('unit')!r}, expected {expected.get(name)!r}")
        if not isinstance(rec.get("value"), (int, float)) or not math.isfinite(rec["value"]):
            problems.append(f"{name}: value {rec.get('value')!r} is not a finite number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []

    def verdict(what, problems):
        print(f"{'PASS' if not problems else 'FAIL'}  {what}" + "".join(f"\n      {p}" for p in problems))
        failures.extend(problems)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS

    unknown = [w["name"] for w in bench["workloads"] if w["name"] not in WORKLOADS]
    verdict("BENCHMARK.json names only known workloads", [f"unknown workloads {unknown}"] if unknown else [])
    for workload in WORKLOADS:
        proc, result = _run(ROOT, workload)
        if proc.returncode != 0 or result is None or not result["correct"]:
            verdict(f"{workload}: clean run", [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        else:
            problems = _metric_problems(result, bench["end_to_end"])
            problems += [f"{k} is not positive" for k, v in result["metrics"].items() if not v["value"] > 0]
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"{result['failed']} of {result['attempted']} operations failed")
            verdict(f"{workload}: clean run emits every end-to-end metric", problems)

        proc, result = _run(ROOT, workload, trace=1)
        if proc.returncode != 0 or result is None or not result["correct"]:
            verdict(f"{workload}: traced run", [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        else:
            verdict(f"{workload}: traced run emits every per-layer metric", _metric_problems(result, bench["per_layer"]))

        proc, result = _run(ROOT, workload, fault=True)
        loud = proc.returncode != 0 and result is not None and not result["correct"] and result["failed"] > 0
        verdict(
            f"{workload}: a corrupted output fails the run",
            [] if loud else [f"exit {proc.returncode}, result {result!r}"],
        )

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = _run(bare, bench["workloads"][0]["name"])
        verdict(
            "without the program the benchmark exits non-zero and prints no result",
            [] if proc.returncode != 0 and result is None else [f"exit {proc.returncode}, result {result!r}"],
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck:", "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
