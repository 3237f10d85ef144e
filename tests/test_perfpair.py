"""tools/perfpair.py: its median interval, and the whole tool against a
working tree that is slower than its commit."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "perfpair.py"


def load_tool():
    sys.path.insert(0, str(TOOL.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfpair", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOL.parent))
    return module


def test_median_interval_is_the_binomial_order_statistics():
    median_interval = load_tool().median_interval
    # n = 20: P(Binomial(20, 1/2) <= 5) = 0.0207 <= 1/40 < P(<= 6) = 0.0577.
    values = [float(v) for v in range(20, 0, -1)]
    assert median_interval(values) == (6.0, 15.0)
    # Too few values for any order statistic at 95%: the range.
    assert median_interval([3.0, 1.0, 2.0]) == (1.0, 3.0)


def test_whole_tool_sees_a_delay_injected_into_the_working_tree(tmp_path):
    # A temporary repository whose working tree sleeps 50 ms in each nasal
    # analysis, about 10x the op: B is slower than A in nearly every pair.
    repo = tmp_path / "repo"
    for sub in ("src", "tools", "perfbench"):
        shutil.copytree(ROOT / sub, repo / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(GIT_AUTHOR_NAME="perfpair", GIT_AUTHOR_EMAIL="perfpair@example.invalid",
               GIT_COMMITTER_NAME="perfpair", GIT_COMMITTER_EMAIL="perfpair@example.invalid")
    for args in (("init", "-q"), ("add", "-A"), ("commit", "-q", "-m", "base")):
        subprocess.run(["git", "-C", str(repo), *args], env=env, check=True, capture_output=True)
    with open(repo / "src" / "dialectid" / "nasalization.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\nimport time as _time\n_analyze = analyze_segment\n\n\n"
            "def analyze_segment(*args, **kwargs):\n"
            "    _time.sleep(0.05)\n    return _analyze(*args, **kwargs)\n"
        )
    done = subprocess.run(
        [sys.executable, str(repo / "tools" / "perfpair.py"), "HEAD", "--workload", "nasal",
         "--seconds", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    pairs = int(re.search(r"^pairs (\d+) in ", done.stdout, re.M)[1])
    ratio, low = map(float, re.search(
        r"^B/A median ([\d.]+), 95% interval ([\d.]+) to ", done.stdout, re.M).groups())
    wins = int(re.search(rf"^B faster in (\d+) of {pairs} pairs$", done.stdout, re.M)[1])
    assert pairs >= 10
    assert ratio > 2.0 and low > 1.0, done.stdout
    assert wins <= pairs // 10, done.stdout
