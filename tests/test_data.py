import json
import re
import struct

import numpy as np
import pytest

from attrseq.data import (
    MAX_ONE_HOT_CELLS,
    AttributedSequence,
    DataFormatError,
    DatasetMeta,
    encode,
    encode_labeled,
    encode_triplets,
    generate_synthetic,
    load_jsonl,
    read_json_object,
    read_records,
    sample_triplets,
    split_by_class,
    standardize_attributes,
    write_csv,
    write_jsonl,
    write_meta,
)
from attrseq.kernel import Rng


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
    (tmp_path / "d.meta.json").write_text('{"t_max":1}')
    with pytest.raises(DataFormatError, match="t_max"):
        load_jsonl(p)
    (tmp_path / "d.meta.json").write_text('{"u":4}')
    with pytest.raises(DataFormatError, match="sidecar u"):
        load_jsonl(p)


@pytest.mark.parametrize("line, message", [
    ('{"attrs":[0.1,NaN],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,Infinity],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,1e999],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,1%s],"seq":[0],"label":0}' % ("0" * 400), "finite numbers"),
    ('{"attrs":[0.1,true],"seq":[0],"label":0}', "finite numbers"),
    ('{"attrs":[0.1,0.2],"seq":[0,true],"label":0}', "non-negative integers"),
    ('{"attrs":[0.1,0.2],"seq":[0],"label":true}', "label must be an integer"),
], ids=["nan", "infinity", "overflowing-float", "overflowing-int", "bool-attr",
        "bool-item", "bool-label"])
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


@pytest.mark.parametrize("item", [pytest.param(-1, id="-1"), pytest.param(3, id="r")])
def test_encode_rejects_out_of_range_id(item):
    # the one item-id check: the LSTM gathers its input by id unchecked
    meta = DatasetMeta(u=1, r=3, t_max=4, class_ids=frozenset())
    with pytest.raises(ValueError, match=f"item id {item} out of range for r=3"):
        encode(AttributedSequence(np.array([0.0]), [0, item, 1], None), meta)


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
