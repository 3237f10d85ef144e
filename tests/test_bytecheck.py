"""tools/bytecheck.py: its comparison of two output trees, and the whole
tool against a commit that changes one output."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bytecheck.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bytecheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


FILES = {
    "bundles/m4/lt.gmm": bytes(range(256)) * 4,
    "reports/sweep.jsonl": b'{"accuracy": 0.75, "num_components": 1}\n',
    "streams/00-synth.txt": b"status 0\n--- stdout\nwrote 24 utterances\n--- stderr\n",
}


def test_equal_trees_have_no_difference(tmp_path):
    first_difference = load_tool().first_difference
    a = write_tree(tmp_path / "a", FILES)
    b = write_tree(tmp_path / "b", FILES)
    assert first_difference(a, b) == (3, None)


def test_one_byte_is_reported_with_its_file_and_offset(tmp_path):
    first_difference = load_tool().first_difference
    a = write_tree(tmp_path / "a", FILES)
    b = write_tree(tmp_path / "b", FILES)
    model = bytearray(FILES["bundles/m4/lt.gmm"])
    model[700] ^= 1
    (b / "bundles/m4/lt.gmm").write_bytes(bytes(model))
    count, diff = first_difference(a, b)
    assert count == 3
    assert diff.startswith("bundles/m4/lt.gmm: first differs at byte 700 (line 4); 1024 vs 1024")


def test_a_changed_status_and_a_missing_file_are_reported(tmp_path):
    first_difference = load_tool().first_difference
    a = write_tree(tmp_path / "a", FILES)
    b = tmp_path / "b"
    shutil.copytree(a, b)
    (b / "streams/00-synth.txt").write_bytes(FILES["streams/00-synth.txt"].replace(b"0", b"1", 1))
    assert "streams/00-synth.txt: first differs at byte 7 (line 1)" in first_difference(a, b)[1]
    (b / "reports/sweep.jsonl").unlink()
    assert first_difference(a, b)[1] == f"reports/sweep.jsonl: only in {a}"


def test_whole_tool_reports_a_commit_that_changes_scores(tmp_path):
    # A scratch repository of src/ and tools/ whose second commit sums each
    # segment's frame log-likelihoods with sum instead of math.fsum, which
    # moves the last bits of the scores in classify's and evaluate's reports.
    repo = tmp_path / "repo"
    for sub in ("src", "tools"):
        shutil.copytree(ROOT / sub, repo / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(GIT_AUTHOR_NAME="bytecheck", GIT_AUTHOR_EMAIL="bytecheck@example.invalid",
               GIT_COMMITTER_NAME="bytecheck", GIT_COMMITTER_EMAIL="bytecheck@example.invalid")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], env=env, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    gmm = repo / "src" / "dialectid" / "gmm.py"
    text = gmm.read_text(encoding="utf-8")
    assert text.count("math.fsum(ll)") == 1
    gmm.write_text(text.replace("math.fsum(ll)", "sum(ll)"), encoding="utf-8")
    git("commit", "-q", "-am", "sum segment scores with sum")
    done = subprocess.run([sys.executable, str(repo / "tools" / "bytecheck.py"), "HEAD~1"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "\nDIFFERENT: " in done.stdout
    assert "all files, streams, statuses and em_fit digests equal" not in done.stdout
