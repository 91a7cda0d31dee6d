import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrseq.data import (
    COMPANION_SIZE_FACTOR,
    COMPANION_SIZE_SLACK,
    MAX_ONE_HOT_CELLS,
    AttributedSequence,
    DataFormatError,
    DatasetMeta,
    EncodedInstance,
    Triplet,
    encode,
    encode_labeled,
    encode_triplets,
    generate_synthetic,
    instances_of,
    load_arrays,
    load_jsonl,
    read_json_object,
    read_records,
    sample_triplets,
    sidecar_path,
    split_by_class,
    standardize_attributes,
    write_csv,
    write_jsonl,
    write_meta,
)
from attrseq.cli import main
from attrseq.data import _read_arrays, _read_companion, companion_path, records_of
from attrseq.episodes import evaluate
from attrseq.kernel import Rng
from attrseq.training import load_checkpoint

DEMO_RUN = Path(__file__).resolve().parents[1] / "demo_run"


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_jsonl_happy_path(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        '{"attrs":[0.1,0.2],"seq":[2,0],"label":3}',
        '{"attrs":[0.3,0.4],"seq":[1],"label":5}',
    ])
    records, meta = load_jsonl(p)
    assert len(records) == 2
    assert meta.u == 2 and meta.r == 3 and meta.t_max == 2
    assert meta.class_ids == frozenset({3, 5})
    assert records[0].items == [2, 0] and records[0].label == 3


def test_load_jsonl_empty_file_errors(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    with pytest.raises(DataFormatError, match="no records"):
        load_jsonl(p)
    assert read_records(p) == []


def test_load_jsonl_ragged_attrs_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        '{"attrs":[0.1,0.2],"seq":[0],"label":0}',
        '{"attrs":[0.1,0.2,0.3],"seq":[0],"label":1}',
    ])
    with pytest.raises(DataFormatError, match="line 2"):
        load_jsonl(p)


def test_load_jsonl_empty_sequence_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        '{"attrs":[0.1],"seq":[0],"label":0}',
        '{"attrs":[0.2],"seq":[],"label":1}',
    ])
    with pytest.raises(DataFormatError, match="line 2.*empty sequence"):
        load_jsonl(p)


def test_load_jsonl_item_above_declared_r(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, ['{"attrs":[0.1],"seq":[0],"label":0}', '{"attrs":[0.2],"seq":[4],"label":1}'])
    (tmp_path / "d.meta.json").write_text('{"r":3}')
    with pytest.raises(DataFormatError, match="line 2.*item id 4"):
        load_jsonl(p)


def test_load_jsonl_sidecar_overrides_upward(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, ['{"attrs":[0.1],"seq":[1,0],"label":0}', '{"attrs":[0.2],"seq":[1],"label":1}'])
    (tmp_path / "d.meta.json").write_text('{"u":1,"r":9,"t_max":7}')
    _, meta = load_jsonl(p)
    assert meta.r == 9 and meta.t_max == 7
    # a declared value below what a record holds is a misfit of that record
    sc = re.escape(str(tmp_path / "d.meta.json"))
    (tmp_path / "d.meta.json").write_text('{"t_max":1}')
    with pytest.raises(DataFormatError, match=f"^sidecar {sc}: line 1: sequence length 2 exceeds t_max=1$"):
        load_jsonl(p)
    (tmp_path / "d.meta.json").write_text('{"u":4}')
    with pytest.raises(DataFormatError, match=f"^sidecar {sc}: line 1: attribute length 1 does not match u=4$"):
        load_jsonl(p)


@pytest.mark.parametrize("line, message", [
    ('{"attrs":[0.1,NaN],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,Infinity],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,1e999],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,1%s],"seq":[0],"label":0}' % ("0" * 400), "finite numbers"),
    ('{"attrs":[0.1,true],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,0.2],"seq":[0,true],"label":0}', "non-negative integers"),
    ('{"attrs":[0.1,0.2],"seq":[9223372036854775808],"label":0}', "non-negative integers"),
    ('{"attrs":[0.1,0.2],"seq":[0],"label":true}', "label must be an integer"),
    ('{"attrs":[0.1,0.2],"seq":[0],"label":9223372036854775808}', "label must be an integer"),
    ('{"attrs":[0.1,0.2],"seq":[0],"label":-9223372036854775809}', "label must be an integer"),
], ids=["nan", "infinity", "overflowing-float", "overflowing-int", "bool-attr",
        "bool-item", "item-above-int64", "bool-label", "label-above-int64", "label-below-int64"])
def test_load_jsonl_rejects_non_finite_and_boolean_values(tmp_path, line, message):
    p = tmp_path / "d.jsonl"
    _write_lines(p, ['{"attrs":[0.1,0.2],"seq":[1],"label":1}', line])
    with pytest.raises(DataFormatError, match=f"line 2: .*{message}"):
        load_jsonl(p)


def test_load_jsonl_undecodable_bytes_name_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"attrs":[0.1],"seq":[1],"label":0}\n\xff\xfe\n')
    with pytest.raises(DataFormatError, match="line 2: invalid JSON"):
        load_jsonl(p)


@pytest.mark.parametrize("sidecar", ['{"u":1,"r":9', "[9]", '{"r":"9"}', '{"t_max":true}'],
                         ids=["invalid-json", "not-object", "string-r", "bool-t_max"])
def test_load_jsonl_rejects_malformed_sidecar(tmp_path, sidecar):
    p = tmp_path / "d.jsonl"
    _write_lines(p, ['{"attrs":[0.1],"seq":[1,0],"label":0}'])
    (tmp_path / "d.meta.json").write_text(sidecar)
    with pytest.raises(DataFormatError, match="sidecar"):
        load_jsonl(p)


@pytest.mark.parametrize("raw, message", [
    (b'{"u": "\xff"}', "x.json: 'utf-8' codec can't decode"),
    (b'{"u": 1', "x.json: Expecting"),
    (b"[1]", "x.json: expected a JSON object, got list"),
    (b"[" * 100_000, "x.json: maximum recursion depth"),
], ids=["undecodable", "truncated", "not-object", "nested-too-deep"])
def test_read_json_object_raises_the_given_error(tmp_path, raw, message):
    class Refused(Exception):
        pass

    p = tmp_path / "x.json"
    p.write_bytes(raw)
    with pytest.raises(Refused, match=f"^artifact {re.escape(str(tmp_path))}/{message}"):
        read_json_object(p, Refused, "artifact")


def test_load_jsonl_bounds_the_one_hot_size(tmp_path):
    # two steps, so the largest admissible id is MAX_ONE_HOT_CELLS // 2 - 1
    p = tmp_path / "d.jsonl"
    top = MAX_ONE_HOT_CELLS // 2 - 1
    _write_lines(p, ['{"attrs":[0.1],"seq":[1,0],"label":0}',
                     '{"attrs":[0.2],"seq":[%d],"label":1}' % top])
    _, meta = load_jsonl(p)
    assert meta.t_max * meta.r == MAX_ONE_HOT_CELLS
    for item in (top + 1, 10**12):
        _write_lines(p, ['{"attrs":[0.1],"seq":[1,0],"label":0}',
                         '{"attrs":[0.2],"seq":[%d],"label":1}' % item,
                         '{"attrs":[0.3],"seq":[2],"label":1}'])
        with pytest.raises(DataFormatError, match=f"line 2: item id {item} .*limit"):
            load_jsonl(p)


@pytest.mark.parametrize("sidecar", ['{"r":1000000000000}', '{"t_max":1000000000000}',
                                     '{"r":%d}' % (MAX_ONE_HOT_CELLS // 2 + 1)],
                         ids=["huge-r", "huge-t_max", "just-above"])
def test_load_jsonl_rejects_sidecar_beyond_one_hot_limit(tmp_path, sidecar):
    p = tmp_path / "d.jsonl"
    _write_lines(p, ['{"attrs":[0.1],"seq":[1,0],"label":0}'])
    (tmp_path / "d.meta.json").write_text(sidecar)
    with pytest.raises(DataFormatError, match="sidecar .*d.meta.json: one-hot size .*limit"):
        load_jsonl(p)


@pytest.mark.parametrize("bad", [4.0, True, "4"], ids=["float", "bool", "string"])
def test_meta_rejects_non_integer_dimensions(bad):
    for dims in (dict(u=bad, r=3, t_max=2), dict(u=2, r=bad, t_max=2), dict(u=2, r=3, t_max=bad)):
        with pytest.raises(ValueError, match="must be integers"):
            DatasetMeta(**dims, class_ids=frozenset())


def test_meta_rejects_one_hot_beyond_limit():
    DatasetMeta(u=1, r=MAX_ONE_HOT_CELLS, t_max=1, class_ids=frozenset())
    with pytest.raises(ValueError, match="one-hot size"):
        DatasetMeta(u=1, r=MAX_ONE_HOT_CELLS // 2 + 1, t_max=2, class_ids=frozenset())


def test_write_csv_strings_verbatim_numbers_read_back_bitwise(tmp_path):
    floats = [0.1, -0.0, 1e-300, 5e-324, 2.5e-310, 1 / 3]  # two subnormals
    p = tmp_path / "x.csv"
    write_csv(p, ["label", "kind", "count", *(f"f{k}" for k in range(len(floats)))],
              [("", "euclidean", 7, *floats), ("3", "x y", -2, *floats[::-1])])
    lines = p.read_text().split("\n")
    assert lines[0] == "label,kind,count,f0,f1,f2,f3,f4,f5" and lines[-1] == ""
    for line, want in zip(lines[1:3], (floats, floats[::-1])):
        cells = line.split(",")
        assert cells[3:] == [repr(x) for x in want]
        assert [struct.pack("<d", float(c)) for c in cells[3:]] == [
            struct.pack("<d", x) for x in want]
    assert lines[1].split(",")[:3] == ["", "euclidean", "7"]
    assert lines[2].split(",")[:3] == ["3", "x y", "-2"]


def test_write_then_load_round_trip(tmp_path):
    records = generate_synthetic(classes=3, per_class=5, u=4, r=6, t_max=8, seed=1)
    p = tmp_path / "d.jsonl"
    write_jsonl(records, p)
    write_meta(DatasetMeta(u=4, r=6, t_max=8, class_ids=frozenset(range(3))),
               tmp_path / "d.meta.json")
    loaded, meta = load_jsonl(p)
    assert meta.u == 4 and meta.r == 6 and meta.t_max == 8
    for a, b in zip(records, loaded):
        assert np.array_equal(a.attributes, b.attributes)
        assert a.items == b.items and a.label == b.label


def _exact_records(records):
    """Records in a form equal only for identical records: attribute bits,
    the exact type of every item id and label."""
    return [(rec.attributes.dtype, rec.attributes.view(np.uint64).tolist(),
             [(type(i), i) for i in rec.items], type(rec.label), rec.label)
            for rec in records]


def _exact(result):
    """`_read_arrays`'s (arrays, line numbers) in a form equal only for
    identical arrays and records: each array's dtype, shape and bytes, the
    records built from them, and the line numbers."""
    arrays, line_nos = result
    return ({key: (arrays[key].dtype, arrays[key].shape, arrays[key].tobytes())
             for key in ("attributes", "items", "lengths", "labels", "labeled")},
            _exact_records(records_of(arrays)), list(line_nos))


def _stored(path):
    """`_read_arrays` of `path`, which reads the companion beside it."""
    assert _read_companion(path) is not None
    return _read_arrays(path)


def _parsed(path, tmp_path):
    """`_read_arrays` of a copy of `path` that has no companion."""
    plain = tmp_path / "parsed" / "plain.jsonl"
    plain.parent.mkdir(exist_ok=True)
    shutil.copyfile(path, plain)
    return _read_arrays(plain)


def _companion_arrays(path):
    with np.load(companion_path(path), allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


class TestCompanion:
    @staticmethod
    def odd_values(tmp_path):
        # zipfile checks a member's CRC at its end; 600 more records make the
        # attributes 14 KiB, past zipfile's 4 KiB read-ahead, so a reader that
        # stopped short of a member's end would miss a damaged one
        records = [AttributedSequence(np.array([-0.0, 5e-324, 1e308]), [0, 7], 3),
                   AttributedSequence(np.array([0.1, -2.5e-310, -1e308]), [2], None),
                   AttributedSequence(np.array([1 / 3, 0.0, 2.0**-1074]), [1, 1, 0], -4),
                   *generate_synthetic(classes=3, per_class=200, u=3, r=5, t_max=6, seed=4)]
        p = tmp_path / "odd.jsonl"
        write_jsonl(records, p)
        return p

    def test_demo_run_companion_is_the_parse(self, tmp_path):
        stored = _stored(DEMO_RUN / "data.jsonl")
        assert _exact(stored) == _exact(_parsed(DEMO_RUN / "data.jsonl", tmp_path))
        assert list(stored[1]) == list(range(1, 601))

    def test_odd_floats_and_missing_labels_are_the_parse(self, tmp_path):
        # -0.0, subnormals and 1e308 keep their bits; an unlabeled record reads None
        p = self.odd_values(tmp_path)
        stored = _stored(p)
        assert records_of(stored[0])[1].label is None
        assert _exact(stored) == _exact(_parsed(p, tmp_path))

    def test_unlabeled_dataset_is_the_parse(self, tmp_path):
        records = generate_synthetic(classes=2, per_class=4, u=3, r=5, t_max=6, seed=2)
        p = tmp_path / "d.jsonl"
        write_jsonl([AttributedSequence(rec.attributes, rec.items) for rec in records], p)
        stored = _stored(p)
        assert all(rec.label is None for rec in records_of(stored[0]))
        assert _exact(stored) == _exact(_parsed(p, tmp_path))

    def test_load_jsonl_through_the_companion_is_load_jsonl_parsing(self, tmp_path):
        records = generate_synthetic(classes=3, per_class=5, u=4, r=6, t_max=8, seed=1)
        p = tmp_path / "d.jsonl"
        write_jsonl(records, p)
        (tmp_path / "d.meta.json").write_text('{"r":9}')
        plain = tmp_path / "parsed" / "d.jsonl"
        plain.parent.mkdir()
        shutil.copyfile(p, plain)
        shutil.copyfile(tmp_path / "d.meta.json", plain.with_name("d.meta.json"))
        (got, got_meta), (want, want_meta) = load_jsonl(p), load_jsonl(plain)
        assert _read_companion(p) is not None and got_meta == want_meta
        assert _exact_records(got) == _exact_records(want)

    def test_sidecar_error_names_the_same_line(self, tmp_path):
        # line numbers from the companion are the file's
        records = [AttributedSequence(np.array([0.5]), [k % 3], k) for k in range(5)]
        records[3].items = [8]
        p = tmp_path / "d.jsonl"
        write_jsonl(records, p)
        (tmp_path / "d.meta.json").write_text('{"r":5}')
        assert _read_companion(p) is not None
        sc = re.escape(str(tmp_path / "d.meta.json"))
        with pytest.raises(DataFormatError, match=f"^sidecar {sc}: line 4: item id 8 out of range for r=5$"):
            load_jsonl(p)

    @pytest.mark.parametrize("sidecar, message", [
        ({"u": 2}, "line 1: attribute length 1 does not match u=2"),
        ({"r": 5}, "line 4: item id 8 out of range for r=5"),
        ({"t_max": 2}, "line 4: sequence length 3 exceeds t_max=2"),
        ({"u": 2, "r": 5}, "line 1: attribute length 1 does not match u=2"),
        ({"u": 2, "t_max": 2}, "line 4: sequence length 3 exceeds t_max=2"),
    ], ids=["u", "r", "t_max", "u-before-r", "t_max-before-u"])
    def test_sidecar_misfit_names_the_sidecar_and_line(self, tmp_path, sidecar, message):
        # a record that does not fit what the sidecar declares is named by the
        # sidecar and its line, the same through the companion and the parse
        records = [AttributedSequence(np.array([0.5]), [k % 3], k) for k in range(5)]
        records[3].items = [1, 8, 0]
        for where in ("companion", "parsed"):
            p = tmp_path / where / "d.jsonl"
            p.parent.mkdir()
            write_jsonl(records, p)
            if where == "parsed":
                companion_path(p).unlink()
            sidecar_path(p).write_text(json.dumps(sidecar))
            assert (_read_companion(p) is not None) == (where == "companion")
            with pytest.raises(DataFormatError) as e:
                load_arrays(p)
            assert str(e.value) == f"sidecar {sidecar_path(p)}: {message}"

    @pytest.mark.parametrize("edit", ["byte", "valid-line", "invalid-line"])
    def test_edited_jsonl_is_parsed(self, tmp_path, edit):
        records = generate_synthetic(classes=3, per_class=5, u=4, r=6, t_max=8, seed=1)
        p = tmp_path / "d.jsonl"
        write_jsonl(records, p)
        raw = p.read_bytes()
        if edit == "byte":  # one attribute digit
            at = raw.index(b".", 12) + 3
            raw = raw[:at] + bytes([raw[at] ^ 1 if raw[at] != ord("9") else ord("8")]) + raw[at + 1:]
        else:
            raw += (b'{"attrs":[1,2,3,4],"seq":[5],"label":1}\n' if edit == "valid-line"
                    else b'{"attrs":[1,2,3],"seq":[5],"label":1}\n')
        p.write_bytes(raw)
        assert _read_companion(p) is None
        if edit == "invalid-line":
            with pytest.raises(DataFormatError, match="^line 16: expected 4 attributes, got 3$"):
                _read_arrays(p)
            return
        got = _read_arrays(p)
        assert _exact(got) == _exact(_parsed(p, tmp_path))
        assert len(got[1]) == (16 if edit == "valid-line" else 15)

    def damaged(self, kind, p):
        """Overwrite the companion of `p` with a damaged one of `kind`."""
        cp, raw = companion_path(p), companion_path(p).read_bytes()
        arrays = _companion_arrays(p)
        if kind == "truncated":
            cp.write_bytes(raw[: len(raw) // 2])
        elif kind == "byte-flipped":
            # the npy header length of the attributes: numpy alone would read
            # shifted, finite values, since it never reaches the member's CRC
            at = raw.index(b"{'descr': '<f8'") - 2
            cp.write_bytes(raw[:at] + bytes([raw[at] ^ 0x20]) + raw[at + 1:])
        elif kind == "payload-flipped":
            at = raw.index(b"{'descr': '<f8'") + 128  # the second attribute
            cp.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
        elif kind == "wrong-version":
            np.savez(cp, **(arrays | {"version": np.array(2, dtype=np.int64)}))
        elif kind == "missing-key":
            np.savez(cp, **{k: v for k, v in arrays.items() if k != "labeled"})
        elif kind == "object-dtype":
            np.savez(cp, **(arrays | {"labels": arrays["labels"].astype(object)}))
        elif kind == "non-finite":
            attrs = arrays["attributes"].copy()
            attrs[1, 0] = np.nan
            np.savez(cp, **(arrays | {"attributes": attrs}))
        elif kind == "lengths-mismatch":
            lengths = arrays["lengths"].copy()
            lengths[0] += 1
            np.savez(cp, **(arrays | {"lengths": lengths}))
        elif kind == "wrapped-lengths":
            # two lengths of 2^63 - 1, whose int64 sum wraps to the true one
            # with the third enlarged by what the first two lose
            lengths = arrays["lengths"].copy()
            lengths[2] += lengths[0] + lengths[1] + 2
            lengths[:2] = 2**63 - 1
            assert lengths.sum() == arrays["items"].size and (lengths >= 1).all()
            np.savez(cp, **(arrays | {"lengths": lengths}))
        elif kind in ("zip-version", "flag-bit-5"):
            # a central-directory entry needing a zip version above 6.3, or
            # marking compressed patched data: zipfile raises NotImplementedError
            at = raw.index(b"PK\x01\x02") + (6 if kind == "zip-version" else 8)
            cp.write_bytes(raw[:at] + bytes([raw[at] | (0x40 if kind == "zip-version" else 0x20)])
                           + raw[at + 1:])
        elif kind == "trailing-bytes":
            # a stored member whose bytes go on past its array; its CRC covers
            # them, so only the reader's check for leftover bytes refuses it
            with zipfile.ZipFile(cp, "w") as zf:
                for key, value in arrays.items():
                    buf = io.BytesIO()
                    np.lib.format.write_array(buf, value, allow_pickle=False)
                    zf.writestr(f"{key}.npy", buf.getvalue() + (b"\0" * 8 if key == "labels" else b""))
        elif kind == "not-a-zip":
            np.save(cp.with_suffix(".npy"), arrays["attributes"])
            cp.with_suffix(".npy").rename(cp)
        elif kind == "oversized":
            # a well-formed companion with one more member, refused unread
            limit = COMPANION_SIZE_FACTOR * p.stat().st_size + COMPANION_SIZE_SLACK
            np.savez(cp, **arrays, padding=np.zeros(limit // 8, dtype=np.int64))
        else:
            raise AssertionError(kind)

    @pytest.mark.parametrize("kind", [
        "truncated", "byte-flipped", "payload-flipped", "wrong-version", "missing-key",
        "object-dtype", "non-finite", "lengths-mismatch", "wrapped-lengths", "zip-version",
        "flag-bit-5", "trailing-bytes", "not-a-zip", "oversized"])
    def test_unusable_companion_is_ignored(self, tmp_path, kind):
        p = self.odd_values(tmp_path)
        want = _exact(_parsed(p, tmp_path))
        self.damaged(kind, p)
        assert _read_companion(p) is None
        assert _exact(_read_arrays(p)) == want
        assert _exact_records(load_jsonl(p)[0]) == want[1]

    def test_extra_member_within_the_size_limit_is_ignored(self, tmp_path):
        # the control of the oversized case: only the size refuses it
        p = self.odd_values(tmp_path)
        want = _exact(_parsed(p, tmp_path))
        np.savez(companion_path(p), **_companion_arrays(p), padding=np.zeros(4, dtype=np.int64))
        assert _exact(_stored(p)) == want

    def test_fifo_companion_is_not_opened(self, tmp_path):
        # opening a named pipe for reading waits for a writer, here forever;
        # the read runs in a child that the timeout kills
        p = self.odd_values(tmp_path)
        want = _exact(_parsed(p, tmp_path))
        companion_path(p).unlink()
        os.mkfifo(companion_path(p))
        code = ("import json, sys\n"
                "from attrseq.data import read_records\n"
                "print(json.dumps([[rec.attributes.tolist(), rec.items, rec.label]\n"
                "                  for rec in read_records(sys.argv[1])]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code, str(p)], env=env, check=True,
                             capture_output=True, timeout=20).stdout
        got = [AttributedSequence(np.array(attrs), items, label) for attrs, items, label in json.loads(out)]
        assert _exact_records(got) == want[1]

    def test_deflated_companion_is_ignored_unread(self, tmp_path, monkeypatch):
        # np.savez never deflates, so no member of a deflated companion is
        # read, however large it would inflate
        p = self.odd_values(tmp_path)
        want = _exact(_parsed(p, tmp_path))
        np.savez_compressed(companion_path(p), **_companion_arrays(p))
        opened, member_open = [], zipfile.ZipFile.open
        monkeypatch.setattr(zipfile.ZipFile, "open",
                            lambda zf, name, *args, **kwargs:
                            opened.append(name) or member_open(zf, name, *args, **kwargs))
        assert _read_companion(p) is None
        assert _exact(_read_arrays(p)) == want
        assert opened == []

    def test_two_writes_give_identical_bytes(self, tmp_path):
        records = generate_synthetic(classes=3, per_class=5, u=4, r=6, t_max=8, seed=1)
        digests = []
        for name in ("a.jsonl", "b.jsonl"):
            write_jsonl(records, tmp_path / name)
            digests.append(companion_path(tmp_path / name).read_bytes())
        assert digests[0] == digests[1]
        with zipfile.ZipFile(companion_path(tmp_path / "a.jsonl")) as zf:
            assert sorted(zf.namelist()) == sorted(
                f"{k}.npy" for k in ("version", "digest", "attributes", "items", "lengths",
                                     "labels", "labeled"))

    @pytest.mark.parametrize("records, rule", [
        ([AttributedSequence(np.array([0.1, 0.2]), [1], 0),
          AttributedSequence(np.array([0.1]), [1], 1)], "records must share one attribute width"),
        ([AttributedSequence(np.array([0.1, np.inf]), [1], 0)], "attributes must be finite numbers"),
        ([AttributedSequence(np.array([0.1]), [2**63], 0)], "item ids and labels must lie within int64"),
        ([AttributedSequence(np.array([0.1]), [-1], 0)], "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [], 0)], "every sequence needs at least one item"),
        ([AttributedSequence(np.array([0.1]), [1], 2**63)], "item ids and labels must lie within int64"),
        ([AttributedSequence(np.array([]), [1], 0)], "attributes must be one non-empty vector per record"),
        ([AttributedSequence([0.5], [1.7, True], 2.9)], "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [1.0], 0)], "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [0, True], 0)], "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [np.bool_(False)], 0)],
         "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [np.float64(2)], 0)],
         "sequence items must be non-negative integers"),
        ([AttributedSequence(np.array([0.1]), [1], 0),
          AttributedSequence(np.array([0.2]), [1], 1.0)], "label must be an integer"),
        ([AttributedSequence(np.array([0.1]), [1], True)], "label must be an integer"),
        ([AttributedSequence(np.array([0.1]), [1], np.bool_(True))], "label must be an integer"),
        ([], None),
    ], ids=["ragged", "non-finite", "id-above-int64", "negative-id", "empty-sequence",
            "label-above-int64", "no-attributes", "float-id-and-label", "float-id-one",
            "bool-id", "numpy-bool-id", "numpy-float-id", "float-label", "bool-label",
            "numpy-bool-label", "no-records"])
    def test_records_the_companion_cannot_hold_get_none(self, tmp_path, records, rule):
        # records the parser would refuse are refused before the file is
        # opened, so the earlier file and its companion stay; no records
        # give an empty file, and the earlier companion goes
        p = tmp_path / "d.jsonl"
        write_jsonl([AttributedSequence(np.array([0.5]), [0], 0)], p)
        earlier = p.read_bytes(), companion_path(p).read_bytes()
        if rule is None:
            write_jsonl(records, p)
            assert p.read_bytes() == b"" and not companion_path(p).exists()
            return
        with pytest.raises(ValueError, match=f"^{rule}$"):
            write_jsonl(records, p)
        assert (p.read_bytes(), companion_path(p).read_bytes()) == earlier

    def test_numpy_integers_round_trip(self, tmp_path):
        records = [AttributedSequence(np.array([0.5]), [np.int64(3), np.uint8(1), 2], np.int64(-4)),
                   AttributedSequence(np.array([0.25]), list(np.array([0, 7], dtype=np.int32)),
                                      np.int16(5))]
        p = tmp_path / "d.jsonl"
        write_jsonl(records, p)
        assert p.read_text() == ('{"attrs":[0.5],"seq":[3,1,2],"label":-4}\n'
                                 '{"attrs":[0.25],"seq":[0,7],"label":5}\n')
        for got in (_exact(_stored(p)), _exact(_parsed(p, tmp_path))):
            assert got[1] == _exact_records([
                AttributedSequence(np.array([0.5]), [3, 1, 2], -4),
                AttributedSequence(np.array([0.25]), [0, 7], 5)])

    def test_pipe_gets_the_bytes_and_no_companion(self, tmp_path):
        records = generate_synthetic(classes=2, per_class=3, u=2, r=4, t_max=5, seed=3)
        write_jsonl(records, tmp_path / "file.jsonl")
        fifo = tmp_path / "pipe.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_jsonl(records, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [(tmp_path / "file.jsonl").read_bytes()]
        assert not companion_path(fifo).exists()


@pytest.mark.parametrize("companion", [True, False], ids=["companion", "parsed"])
def test_array_pool_is_encode_labeleds_pool(tmp_path, companion):
    # eval's pool of views into the arrays is the pool encode_labeled builds
    # from the records: the same instances, labels and order, and the same
    # evaluation
    for name in ("data.jsonl", "data.meta.json") + (("data.records.npz",) if companion else ()):
        shutil.copyfile(DEMO_RUN / name, tmp_path / name)
    p = tmp_path / "data.jsonl"
    assert (_read_companion(p) is not None) == companion
    params, cfg, ckpt_meta, _ = load_checkpoint(DEMO_RUN / "model.json")
    oneshot = set(json.loads((DEMO_RUN / "manifest.json").read_text())["oneshot_classes"])
    got = instances_of(load_arrays(p)[0], ckpt_meta, oneshot)
    want = encode_labeled([rec for rec in load_jsonl(p)[0] if rec.label in oneshot], ckpt_meta)
    assert len(got) == len(want) == 240
    for a, b in zip(got, want):
        assert type(a) is type(b) is EncodedInstance
        assert a.attributes.dtype == b.attributes.dtype == np.float64
        assert a.attributes.tobytes() == b.attributes.tobytes()
        assert a.seq.dtype == b.seq.dtype == np.int64 and a.seq.tolist() == b.seq.tolist()
        assert type(a.true_len) is type(b.true_len) is int and a.true_len == b.true_len
        assert type(a.label) is type(b.label) is int and a.label == b.label
    reports = [evaluate(params, cfg, "euclidean", pool, 4, 200, 5, 5) for pool in (got, want)]
    assert reports[0].per_run == reports[1].per_run


def _json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_json_number(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _reference_parse(path):
    """The parser's checks as one loop over each line's values, as they were
    before the value rules moved onto the stacked arrays: the reference
    whose line number every parse error must name."""
    u = None
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:
                raise DataFormatError(f"line {ln}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise DataFormatError(f"line {ln}: expected a JSON object")
            row = obj.get("attrs")
            if not isinstance(row, list) or not row or not all(map(_finite_json_number, row)):
                raise DataFormatError(f"line {ln}: 'attrs' must be a non-empty list of finite numbers")
            if u is None:
                u = len(row)
            elif len(row) != u:
                raise DataFormatError(f"line {ln}: expected {u} attributes, got {len(row)}")
            seq = obj.get("seq")
            if not isinstance(seq, list) or not seq:
                raise DataFormatError(f"line {ln}: empty sequence")
            if not all(_json_int(x) and 0 <= x < 2**63 for x in seq):
                raise DataFormatError(f"line {ln}: sequence items must be non-negative integers below 2^63")
            label = obj.get("label")
            if label is not None and not (_json_int(label) and -(2**63) <= label < 2**63):
                raise DataFormatError(f"line {ln}: label must be an integer")


# One broken rule each, as the text of a valid line's object changed to break it.
_BREAKS = {
    "nan-attr": lambda obj: json.dumps(obj | {"attrs": [obj["attrs"][0], math.nan]}),
    "inf-attr": lambda obj: json.dumps(obj | {"attrs": [-math.inf, obj["attrs"][1]]}),
    "overflowing-float": lambda obj: json.dumps(obj | {"attrs": [0.5, 0.25]}).replace("0.25", "1e999"),
    "overflowing-int-attr":
        lambda obj: json.dumps(obj | {"attrs": [0.5, 0.25]}).replace("0.25", "1" + "0" * 400),
    "bool-attr": lambda obj: json.dumps(obj | {"attrs": [True, obj["attrs"][1]]}),
    "string-attr": lambda obj: json.dumps(obj | {"attrs": ["x", obj["attrs"][1]]}),
    "wrong-width": lambda obj: json.dumps(obj | {"attrs": obj["attrs"] + [0.5]}),
    "empty-attrs": lambda obj: json.dumps(obj | {"attrs": []}),
    "negative-id": lambda obj: json.dumps(obj | {"seq": obj["seq"] + [-1]}),
    "bool-id": lambda obj: json.dumps(obj | {"seq": [True] + obj["seq"]}),
    "float-id": lambda obj: json.dumps(obj | {"seq": obj["seq"] + [1.5]}),
    "id-above-int64": lambda obj: json.dumps(obj | {"seq": [2**63] + obj["seq"]}),
    "empty-seq": lambda obj: json.dumps(obj | {"seq": []}),
    "bool-label": lambda obj: json.dumps(obj | {"label": True}),
    "float-label": lambda obj: json.dumps(obj | {"label": 2.0}),
    "label-above-int64": lambda obj: json.dumps(obj | {"label": 2**63}),
    "invalid-json": lambda obj: json.dumps(obj)[:-1],
    "not-object": lambda obj: json.dumps([obj["attrs"]]),
}


@st.composite
def _malformed_files(draw, kinds, breaks):
    """(lines, line numbers of the broken records): records of width 2 with
    blank lines between them, `breaks` of them after the first each breaking
    one rule drawn from `kinds`, and some a second one, drawn from `kinds` and
    applied to the object the first break left."""
    n_broken = draw(breaks)
    broken = set(draw(st.lists(st.integers(1, 7), min_size=n_broken, max_size=n_broken, unique=True)))
    lines, line_nos = [], []
    for k in range(max(broken) + 1 + draw(st.integers(0, 2))):
        lines += [""] * draw(st.integers(0, 2))
        obj = {"attrs": draw(st.lists(st.floats(-2, 2), min_size=2, max_size=2)),
               "seq": draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)),
               "label": draw(st.integers(0, 3))}
        if k not in broken:
            lines.append(json.dumps(obj))
            continue
        first = draw(st.sampled_from(kinds))
        lines.append(_BREAKS[first](obj))
        # a second break needs the first's object, with both attributes
        if first not in ("invalid-json", "not-object", "empty-attrs") and draw(st.booleans()):
            lines[-1] = _BREAKS[draw(st.sampled_from(kinds))](json.loads(lines[-1]))
        line_nos.append(len(lines))
    return lines, line_nos


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=_malformed_files(["nan-attr", "negative-id", "bool-id", "wrong-width", "empty-seq"],
                             st.just(2)))
def test_two_broken_lines_name_the_earlier(case):
    # value rules are checked on the stacked arrays, after the lines are
    # read, yet the earlier of two broken lines is the one named
    lines, broken = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.jsonl"
        _write_lines(p, lines)
        with pytest.raises(DataFormatError, match=f"^line {broken[0]}: "):
            _read_arrays(p)


# The wording of a rule that the arrays' table checks, and the per-line
# checker's wording of the same rule.
_TABLE_WORDING = {
    "attributes must be finite numbers": "'attrs' must be a non-empty list of finite numbers",
    "sequence items must be non-negative integers":
        "sequence items must be non-negative integers below 2^63",
}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_malformed_files(sorted(_BREAKS), st.integers(1, 3)))
def test_parse_errors_are_the_per_line_checkers(case):
    # the same line and exit code as the per-line checker, and its message
    # but for the table's wording
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.jsonl"
        _write_lines(p, case[0])
        with pytest.raises(DataFormatError) as want:
            _reference_parse(p)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--data", str(p), "--seed", "1", "--checkpoint", str(p) + ".ckpt"])
    assert code == 2
    ln, _, rule = err.getvalue().removeprefix("attrseq: error: ").rstrip("\n").partition(": ")
    want_ln, _, want_rule = str(want.value).partition(": ")
    assert (ln, _TABLE_WORDING.get(rule, rule)) == (want_ln, want_rule)


def _reference_meta(records, line_nos, path):
    """The meta inference of `load_jsonl` as Python loops over the records:
    the reference its meta and every message and line number must equal."""
    if not records:
        raise DataFormatError("no records")
    sc = sidecar_path(path)
    overrides = read_json_object(sc, DataFormatError, "sidecar") if sc.exists() else {}
    if not all(_json_int(overrides[k]) for k in ("u", "r", "t_max") if k in overrides):
        raise DataFormatError(f"sidecar {sc} must hold integer u, r, t_max, got {overrides!r}")

    u = len(records[0].attributes)
    obs_r = max(max(rec.items) for rec in records) + 1
    obs_t_max = max(len(rec.items) for rec in records)
    if obs_t_max * obs_r > MAX_ONE_HOT_CELLS:
        ln = line_nos[max(range(len(records)), key=lambda k: max(records[k].items))]
        raise DataFormatError(
            f"line {ln}: item id {obs_r - 1} makes the one-hot size t_max*r = "
            f"{obs_t_max}*{obs_r}, above the limit of {MAX_ONE_HOT_CELLS} cells"
        )

    dims = {"u": u, "r": obs_r, "t_max": obs_t_max}
    class_ids = frozenset(rec.label for rec in records if rec.label is not None)
    try:
        meta = DatasetMeta(**{key: overrides.get(key, n) for key, n in dims.items()}, class_ids=class_ids)
    except ValueError as e:
        raise DataFormatError(f"sidecar {sc}: {e}") from None
    # every record must fit the meta: t_max, then u, then r, each at the first record breaking it
    for rec, ln in zip(records, line_nos):
        if len(rec.items) > meta.t_max:
            raise DataFormatError(
                f"sidecar {sc}: line {ln}: sequence length {len(rec.items)} exceeds t_max={meta.t_max}")
    for rec, ln in zip(records, line_nos):
        if len(rec.attributes) != meta.u:
            raise DataFormatError(
                f"sidecar {sc}: line {ln}: attribute length {len(rec.attributes)} does not match u={meta.u}")
    for rec, ln in zip(records, line_nos):
        for item in rec.items:
            if item >= meta.r:
                raise DataFormatError(f"sidecar {sc}: line {ln}: item id {item} out of range for r={meta.r}")
    return meta


# Ids that break the t_max*r limit at any length, only at lengths above 1,
# or never, up to the largest id a dataset may hold.
_BIG_IDS = st.sampled_from([MAX_ONE_HOT_CELLS - 1, MAX_ONE_HOT_CELLS // 2, 2**40, 2**63 - 1])


@st.composite
def _meta_cases(draw):
    """(records, blank lines before each, sidecar or None, through the companion)."""
    u = draw(st.integers(1, 3))
    records = [AttributedSequence(np.array(draw(st.lists(st.floats(-2, 2), min_size=u, max_size=u))),
                                  draw(st.lists(st.integers(0, 9), min_size=1, max_size=5)),
                                  draw(st.none() | st.integers(-2, 4)))
               for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # big ids, at times tied
        rec = records[draw(st.integers(0, len(records) - 1))]
        rec.items[draw(st.integers(0, len(rec.items) - 1))] = draw(_BIG_IDS)
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(records), max_size=len(records)))
    sidecar = {key: draw(values) for key, values in (
        ("u", st.sampled_from([u, u, 0, u + 1])),
        ("r", st.integers(-1, 12) | st.sampled_from([MAX_ONE_HOT_CELLS // 4, 2**40])),
        ("t_max", st.integers(0, 7) | st.just(2**40)),
    ) if draw(st.booleans())}
    return records, blanks, sidecar if draw(st.booleans()) else None, draw(st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_meta_cases())
def test_meta_inference_is_the_record_loops(case):
    records, blanks, sidecar, companion = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.jsonl"
        if companion:  # one record a line, read back from the arrays stored beside it
            write_jsonl(records, p)
            line_nos = list(range(1, len(records) + 1))
        else:  # blank lines, so a record's line is not its index
            lines, line_nos = [], []
            for rec, gap in zip(records, blanks):
                lines += [""] * gap
                obj = {"attrs": rec.attributes.tolist(), "seq": rec.items}
                lines.append(json.dumps(obj if rec.label is None else obj | {"label": rec.label}))
                line_nos.append(len(lines))
            _write_lines(p, lines)
        if sidecar is not None:
            sidecar_path(p).write_text(json.dumps(sidecar))
        assert (_read_companion(p) is not None) == companion
        try:
            want = _reference_meta(records, line_nos, p)
        except DataFormatError as e:
            want = str(e)
        try:
            got_records, got = load_jsonl(p)
        except DataFormatError as e:
            got = str(e)
        assert got == want
        if isinstance(got, DatasetMeta):
            assert all(type(v) is int for v in (got.u, got.r, got.t_max, *got.class_ids))
            assert _exact_records(got_records) == _exact_records(records)


def test_encode_keeps_item_ids():
    meta = DatasetMeta(u=1, r=3, t_max=5, class_ids=frozenset())
    inst = encode(AttributedSequence(np.array([0.5]), [2, 0, 1], None), meta)
    assert inst.seq.dtype == np.int64 and inst.seq.shape == (3,)
    assert inst.seq.tolist() == [2, 0, 1]
    assert inst.true_len == 3


def test_encode_minimal_case():
    meta = DatasetMeta(u=1, r=1, t_max=1, class_ids=frozenset())
    inst = encode(AttributedSequence(np.array([0.0]), [0], None), meta)
    assert inst.seq.dtype == np.int64 and inst.seq.tolist() == [0]
    assert inst.true_len == 1


def test_encode_rejects_overlong_sequence():
    meta = DatasetMeta(u=1, r=2, t_max=2, class_ids=frozenset())
    with pytest.raises(ValueError, match="exceeds t_max"):
        encode(AttributedSequence(np.array([0.0]), [0, 1, 0], None), meta)


@pytest.mark.parametrize("item, message", [
    pytest.param(-1, "sequence items must be non-negative integers", id="-1"),
    pytest.param(3, "item id 3 out of range for r=3", id="r"),
])
def test_encode_rejects_out_of_range_id(item, message):
    # a negative id breaks the dataset's rules, an id from r up the meta's:
    # the LSTM gathers its input by id unchecked
    meta = DatasetMeta(u=1, r=3, t_max=4, class_ids=frozenset())
    with pytest.raises(ValueError, match=f"^{message}$"):
        encode(AttributedSequence(np.array([0.0]), [0, item, 1], None), meta)


@pytest.mark.parametrize("attrs, items, rule", [
    ([0.5], [1.7, 2], "sequence items must be non-negative integers"),
    ([0.5], [True, 3], "sequence items must be non-negative integers"),
    ([0.5], [np.float64(2.9)], "sequence items must be non-negative integers"),
    ([np.nan], [1], "attributes must be finite numbers"),
    ([[0.5]], [1], "attributes must be one non-empty vector per record"),
    (0.5, [1], "attributes must be one non-empty vector per record"),
], ids=["float-id", "bool-id", "numpy-float-id", "nan-attribute", "matrix-attributes",
        "scalar-attributes"])
def test_encode_refuses_what_write_jsonl_refuses(tmp_path, attrs, items, rule):
    meta = DatasetMeta(u=1, r=4, t_max=3, class_ids=frozenset({0, 1}))
    good, bad = AttributedSequence(np.array([0.25]), [1], 1), AttributedSequence(np.array(attrs), items, 0)
    with pytest.raises(ValueError, match=f"^{rule}$"):
        encode(bad, meta)
    with pytest.raises(ValueError, match=f"^{rule}$"):
        encode_labeled([good, bad], meta)
    with pytest.raises(ValueError, match=f"^{rule}$"):
        encode_triplets([Triplet(good, bad, 1)], meta)
    with pytest.raises(ValueError, match=f"^{rule}$"):
        write_jsonl([bad], tmp_path / "d.jsonl")


@pytest.mark.parametrize("shapes, rule", [
    ([(2,), (3,), (1, 1)], "records must share one attribute width"),
    ([(1, 1), (2,)], "attributes must be one non-empty vector per record"),
    ([(2,), (2,), ()], "attributes must be one non-empty vector per record"),
], ids=["width-first", "matrix-first", "scalar-later"])
def test_mixed_attribute_shapes_name_the_first_record_that_breaks_a_rule(tmp_path, shapes, rule):
    records = [AttributedSequence(np.full(shape, 0.5), [1], 0) for shape in shapes]
    with pytest.raises(ValueError, match=f"^{rule}$"):
        write_jsonl(records, tmp_path / "d.jsonl")


def test_encode_takes_numpy_integer_ids():
    meta = DatasetMeta(u=1, r=8, t_max=4, class_ids=frozenset())
    items = [np.int64(3), np.uint8(1), 2, *np.array([7], dtype=np.int32)]
    inst = encode(AttributedSequence(np.array([0.5]), items, None), meta)
    assert inst.seq.dtype == np.int64 and inst.seq.tolist() == [3, 1, 2, 7]


def test_encode_keeps_item_ids_randomized():
    gen = np.random.default_rng(9)
    meta = DatasetMeta(u=2, r=7, t_max=10, class_ids=frozenset())
    for _ in range(200):
        items = [int(gen.integers(7)) for _ in range(int(gen.integers(1, 11)))]
        rec = AttributedSequence(gen.uniform(-1, 1, 2), items, None)
        inst = encode(rec, meta)
        assert inst.seq.dtype == np.int64 and inst.seq.shape == (len(items),)
        assert inst.seq.tolist() == items and inst.true_len == len(items)


def test_split_by_class_table_layouts():
    for n_classes, want_train, want_oneshot in ((10, 6, 4), (60, 36, 24)):
        records = generate_synthetic(classes=n_classes, per_class=2, u=2, r=3,
                                     t_max=4, seed=3)
        train, oneshot = split_by_class(records, 0.6, Rng(0))
        assert len({r.label for r in train}) == want_train
        assert len({r.label for r in oneshot}) == want_oneshot


def test_split_by_class_disjoint_over_seeds():
    records = generate_synthetic(classes=9, per_class=3, u=2, r=3, t_max=4, seed=5)
    for seed in range(100):
        train, oneshot = split_by_class(records, 0.55, Rng(seed))
        assert {r.label for r in train}.isdisjoint({r.label for r in oneshot})
        assert len(train) + len(oneshot) == len(records)


def test_split_by_class_deterministic():
    records = generate_synthetic(classes=10, per_class=2, u=2, r=3, t_max=4, seed=5)
    a = split_by_class(records, 0.6, Rng(17))
    b = split_by_class(records, 0.6, Rng(17))
    assert [r.label for r in a[0]] == [r.label for r in b[0]]


def test_split_by_class_rejects_empty_side():
    records = generate_synthetic(classes=2, per_class=2, u=2, r=3, t_max=4, seed=5)
    with pytest.raises(ValueError, match="no classes"):
        split_by_class(records, 0.9, Rng(0))


def test_sample_triplets_balanced_and_consistent():
    records = generate_synthetic(classes=5, per_class=6, u=2, r=4, t_max=5, seed=2)
    triplets = sample_triplets(records, 10, Rng(1))
    assert len(triplets) == 10
    assert sum(1 for t in triplets if t.ell == 0) == 5
    for t in triplets:
        assert t.a is not t.b
        assert (t.ell == 0) == (t.a.label == t.b.label)


def test_sample_triplets_label_rule_over_batches():
    records = generate_synthetic(classes=4, per_class=4, u=2, r=4, t_max=5, seed=8)
    for seed in range(20):
        for t in sample_triplets(records, 21, Rng(seed)):
            assert (t.ell == 0) == (t.a.label == t.b.label)


def test_sample_triplets_requires_pairable_class():
    records = [AttributedSequence(np.zeros(2), [0], label) for label in range(3)]
    with pytest.raises(ValueError, match="at least 2 instances"):
        sample_triplets(records, 4, Rng(0))
    # pure negatives are still fine
    triplets = sample_triplets(records, 4, Rng(0), positive_fraction=0.0)
    assert all(t.ell == 1 for t in triplets)


def test_sample_triplets_configurable_ratio():
    records = generate_synthetic(classes=3, per_class=5, u=2, r=4, t_max=5, seed=2)
    triplets = sample_triplets(records, 10, Rng(1), positive_fraction=0.8)
    assert sum(1 for t in triplets if t.ell == 0) == 8


def test_generate_synthetic_shapes_and_labels():
    records = generate_synthetic(classes=4, per_class=100, u=3, r=5, t_max=6, seed=0)
    assert len(records) == 400
    labels = [r.label for r in records]
    assert {labels.count(c) for c in range(4)} == {100}
    for r in records:
        assert 3 <= len(r.items) <= 6  # ceil(6/2) = 3
        assert all(0 <= i < 5 for i in r.items)


def test_generate_synthetic_zero_noise_degenerate():
    records = generate_synthetic(classes=3, per_class=4, u=3, r=5, t_max=6,
                                 attr_noise=0.0, seq_noise=0.0, seed=0)
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    for group in by_label.values():
        first = group[0].attributes
        assert all(np.array_equal(first, g.attributes) for g in group)


def test_generate_synthetic_seeded_bitwise_identical():
    a = generate_synthetic(classes=3, per_class=5, u=3, r=5, t_max=6,
                           attr_noise=0.1, seq_noise=0.1, seed=12)
    b = generate_synthetic(classes=3, per_class=5, u=3, r=5, t_max=6,
                           attr_noise=0.1, seq_noise=0.1, seed=12)
    for x, y in zip(a, b):
        assert np.array_equal(x.attributes, y.attributes)
        assert x.items == y.items and x.label == y.label


def test_generate_synthetic_validates_spec():
    with pytest.raises(ValueError, match="classes"):
        generate_synthetic(classes=1, per_class=5, u=2, r=3, t_max=4)
    with pytest.raises(ValueError, match="seq_noise"):
        generate_synthetic(classes=2, per_class=5, u=2, r=3, t_max=4, seq_noise=1.5)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="attr_noise must be a finite number"):
            generate_synthetic(classes=2, per_class=5, u=2, r=3, t_max=4, attr_noise=noise)


def test_encode_triplets_shares_encoding():
    records = generate_synthetic(classes=3, per_class=4, u=2, r=4, t_max=5, seed=2)
    meta = DatasetMeta(u=2, r=4, t_max=5, class_ids=frozenset(range(3)))
    triplets = sample_triplets(records, 8, Rng(4))
    encoded = encode_triplets(triplets, meta)
    assert len(encoded) == 8
    for raw, enc in zip(triplets, encoded):
        assert enc.ell == raw.ell
        assert enc.a.seq.tolist() == raw.a.items


def test_encode_labeled_requires_labels():
    meta = DatasetMeta(u=1, r=2, t_max=2, class_ids=frozenset())
    with pytest.raises(ValueError, match="label"):
        encode_labeled([AttributedSequence(np.zeros(1), [0], None)], meta)


def test_standardize_attributes():
    records = generate_synthetic(classes=3, per_class=30, u=4, r=3, t_max=4,
                                 attr_noise=0.3, seed=6)
    out, mean, std = standardize_attributes(records)
    stack = np.stack([r.attributes for r in out])
    assert np.max(np.abs(stack.mean(axis=0))) < 1e-12
    assert np.max(np.abs(stack.std(axis=0) - 1.0)) < 1e-12
    # original records untouched
    assert not np.allclose(records[0].attributes, out[0].attributes)
