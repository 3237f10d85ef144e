"""tools/bytecheck.py's comparison of two output trees."""

import importlib.util
import shutil
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"


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
