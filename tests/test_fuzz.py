"""Fuzz the CLI's input boundary with mutated copies of real artifacts.

Each example copies the demo_run/ dataset, sidecar, checkpoint and manifest
and a small --config file into a fresh directory, mutates one of them
(truncation, a flipped byte, a swapped JSON type, an inserted 1e400, huge
integer or NaN token, or a dropped key) and runs the command that reads it.
The dataset's companion ``data.records.npz`` is copied too, so a mutated
dataset meets a companion of other bytes, as it would after an edit.
The command must exit with a documented code (0-5); on failure it prints
exactly one ``attrseq: error:`` line, and on success none of its text
output files holds a non-finite number and every companion it wrote reads
back as the parse of its JSONL. An exception escaping ``main`` (the
traceback a user would see) fails the test too.
"""

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attrseq.cli import main
from attrseq.data import _read_companion, _read_records, companion_path

DEMO = Path(__file__).resolve().parents[1] / "demo_run"

# Every flag that sizes the work is given on the command line, and explicit
# flags win over the config file, so a mutated count in the file is parsed
# and type-checked but never asks for a huge run.
_TRAIN = ["train", "--data", "data.jsonl", "--seed", "1", "--triplets", "8", "--epochs", "1",
          "--fc-depth", "1", "--fc-width", "4", "--lstm-width", "4", "--embed-dim", "4",
          "--checkpoint", "out.json", "--metrics", "out.csv", "--manifest", "out_manifest.json"]
_EVAL = ["eval", "--checkpoint", "model.json", "--data", "data.jsonl",
         "--manifest", "manifest.json", "--g", "2", "--queries", "4", "--runs", "1",
         "--seed", "1", "--out-json", "out.json", "--out-csv", "out.csv"]
_GEN = ["gen", "--seed", "0", "--classes", "3", "--per-class", "4", "--u", "2", "--r", "3",
        "--t-max", "4", "--config", "gen.json"]
GEN_CONFIG = {"classes": 3, "per_class": 4, "u": 2, "r": 3, "t_max": 4, "attr_noise": 0.1,
              "seq_noise": 0.2, "standardize_attrs": True, "out": "out.jsonl"}

COMMANDS = {"data.jsonl": _TRAIN, "data.meta.json": _TRAIN, "model.json": _EVAL,
            "manifest.json": _EVAL, "gen.json": _GEN}

TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 30, "1" + "0" * 400,
          "-1", "0", "2.5", '"x"', "true", "null", "[]", "{}", "[[0.5]]"]
_HOLE = "\x00hole"


def _mutate_json(data, doc) -> str:
    """`doc` serialised with one node, reached by a drawn path, dropped or
    replaced by a token."""
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 5))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if parent is not None and data.draw(st.booleans()):
        del parent[key]
        return json.dumps(doc)
    token = data.draw(st.sampled_from(TOKENS))
    if parent is None:
        return token
    parent[key] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), token)


def _mutate(data, raw: bytes, jsonl: bool) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "json", "json"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    if jsonl:
        lines = raw.decode().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = _mutate_json(data, json.loads(lines[k]))
        return ("\n".join(lines) + "\n").encode()
    return _mutate_json(data, json.loads(raw)).encode()


def _non_finite_tokens(text: str) -> list:
    return [tok for tok in re.split(r"[^\w.+-]+", text)
            if tok.lower().lstrip("+-") in ("nan", "inf", "infinity")]


def _assert_companion_is_the_parse(companion: Path, outputs) -> None:
    """`companion` is the companion of one of `outputs` and reads back, bit
    for bit, as the parse of that JSONL."""
    (jsonl,) = [p for p in outputs if companion_path(p) == companion]
    stored = _read_companion(jsonl)
    assert stored is not None, companion.name
    with tempfile.TemporaryDirectory() as tmp:
        plain = Path(tmp) / "plain.jsonl"
        shutil.copyfile(jsonl, plain)
        parsed = _read_records(plain)
    assert stored[1] == parsed[1]
    for a, b in zip(stored[0], parsed[0], strict=True):
        assert a.attributes.tobytes() == b.attributes.tobytes()
        assert (a.items, a.label) == (b.items, b.label)
        assert all(type(i) is int for i in a.items)


def _run(work: Path, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@pytest.mark.parametrize("artifact", sorted(COMMANDS))
@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_artifact_fails_cleanly(artifact, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("data.jsonl", "data.records.npz", "data.meta.json", "model.json",
                     "manifest.json"):
            shutil.copyfile(DEMO / name, work / name)
        (work / "gen.json").write_text(json.dumps(GEN_CONFIG))
        inputs = {p.name for p in work.iterdir()}
        path = work / artifact
        path.write_bytes(_mutate(data, path.read_bytes(), jsonl=artifact.endswith(".jsonl")))

        code, err = _run(work, COMMANDS[artifact])

        assert code in range(6), (code, err)
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("attrseq: error:"), err
        else:
            outputs = sorted(p for p in work.iterdir() if p.name not in inputs)
            for out in outputs:
                if out.suffix == ".npz":  # binary: read through the reader instead
                    _assert_companion_is_the_parse(out, outputs)
                else:
                    assert not _non_finite_tokens(out.read_text()), out.name
