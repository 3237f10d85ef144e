"""Hypothesis strategies for the readers' fuzz tests: byte strings that are
often near a valid file, so the checks behind the first few bytes are
reached too."""

import io
import json
import struct
import wave

from hypothesis import strategies as st


def mutations(blob):
    """blob with a few bytes replaced, then possibly cut short."""
    edits = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3)

    def apply(pairs, cut):
        out = bytearray(blob)
        for i, b in pairs:
            out[i] = b
        return bytes(out[:cut])

    return st.builds(apply, edits, st.integers(0, len(blob)))


def wav_bytes(num_frames=40, rate=16000, channels=1, width=2):
    """A WAV file of silence, as bytes."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(rate)
        wf.writeframes(bytes(num_frames * channels * width))
    return buf.getvalue()


def wav_headers():
    """RIFF/WAVE files whose fmt and data chunk fields vary independently."""

    def build(tag, channels, rate, width, data_size, tail):
        fmt = struct.pack(
            "<HHIIHH", tag, channels, rate, rate * channels * width, channels * width, 8 * width
        )
        return (
            b"RIFF" + struct.pack("<I", 36 + len(tail)) + b"WAVEfmt "
            + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", data_size) + tail
        )

    return st.builds(
        build,
        st.sampled_from([1, 1, 3, 0xFFFE, 0]),
        st.integers(0, 3),
        st.sampled_from([16000, 16000, 8000, 0]),
        st.integers(0, 4),
        st.integers(0, 64) | st.integers(0, 2**32 - 1),
        st.binary(max_size=33),
    )


def manifest_texts():
    """Tab-separated lines of manifest-like fields. Some lines have five
    fields whose labels parse, so that a command reaches the audio paths."""
    fields = st.sampled_from(
        ["wav/a.wav", "spk", "LT", "CT", "xx", "male", "female", "train", "test",
         "0.5", "1.5", "-1", "nan", "inf", "", " ", "#", "a\x00b.wav"]
    ) | st.text(max_size=4)
    labelled = st.tuples(
        st.sampled_from(["a\x00b.wav", "wav/b.wav"]) | fields,
        st.just("spk") | fields,
        st.sampled_from(["LT", "CT"]),
        st.sampled_from(["male", "female"]),
        st.sampled_from(["train", "test"]),
    ).map("\t".join)
    line = st.lists(fields, min_size=1, max_size=8).map("\t".join) | labelled
    lines = st.lists(labelled, min_size=1, max_size=3) | st.lists(line, max_size=5)
    return utf8_files(lines)


def config_texts(keys):
    """key = value lines over the given key names, with values that are
    numbers in and out of range, non-finite or not numbers."""
    values = st.sampled_from(
        ["0", "1", "2", "3", "-3", "0.5", "13", "26", "512", "1024", "7600", "1e-300",
         "nan", "inf", "-inf", "1e999", "9" * 30, "0x10", "abc", "", "4194304",
         "4611686018427387904"]
    ) | st.integers(-5, 4096).map(str)
    line = st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        st.sampled_from(sorted(keys)) | st.text(max_size=5),
        st.sampled_from([" = ", "=", " "]),
        values,
    )
    return utf8_files(st.lists(line, max_size=5))


def utf8_files(lines):
    """The lines joined and UTF-8 encoded, some after a byte order mark, which
    editors on Windows write and which the readers skip."""
    return st.builds(lambda bom, lines: (bom + "\n".join(lines)).encode("utf-8"),
                     st.sampled_from(["", "\ufeff"]), lines)


def json_values():
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    )


def edited_json(document, paths):
    """document with up to three values, at the given key paths, replaced."""
    replacement = json_values() | st.sampled_from(
        ["lt.gmm", "ct.gmm", "..", "missing.gmm", -1, 1e308]
    )

    def edit(pairs):
        doc = json.loads(json.dumps(document))
        for path, value in pairs:
            node = doc
            for key in path[:-1]:
                node = node.get(key) if isinstance(node, dict) else None
            if isinstance(node, dict):
                node[path[-1]] = value
        return json.dumps(doc).encode("utf-8")

    edits = st.lists(st.tuples(st.sampled_from(paths), replacement), min_size=1, max_size=3)
    return edits.map(edit)
