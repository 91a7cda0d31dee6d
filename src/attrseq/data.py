"""Attributed-sequence records and everything that produces or reshapes them.

A record pairs a fixed-length attribute vector with a variable-length
sequence of categorical item ids. The on-disk form is JSONL, one object per
line: ``{"attrs": [...], "seq": [...], "label": 3}`` (label optional), with
an optional sidecar ``<stem>.meta.json`` holding ``{"u":..,"r":..,"t_max":..}``
overrides for the inferred dimensions.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import Rng


# The largest one-hot sequence an encoded instance may hold: t_max * r cells,
# 32 MiB of float64. Far beyond any alphabet this model trains on, and small
# enough that an absurd item id or declared dimension is reported as a format
# error instead of an attempt to allocate terabytes.
MAX_ONE_HOT_CELLS = 2**22


class DataFormatError(ValueError):
    """Malformed dataset content; the message names the offending line."""


@dataclass
class AttributedSequence:
    attributes: np.ndarray  # shape (u,)
    items: list  # item ids in [0, r)
    label: int | None = None


@dataclass
class DatasetMeta:
    u: int  # attribute dimension
    r: int  # item alphabet size
    t_max: int  # padded sequence length
    class_ids: frozenset

    def __post_init__(self):
        if self.u <= 0 or self.r <= 0 or self.t_max <= 0:
            raise ValueError(f"meta dimensions must be positive: u={self.u} r={self.r} t_max={self.t_max}")
        if self.t_max * self.r > MAX_ONE_HOT_CELLS:
            raise ValueError(
                f"one-hot size t_max*r = {self.t_max}*{self.r} exceeds the limit of "
                f"{MAX_ONE_HOT_CELLS} cells"
            )


@dataclass
class EncodedInstance:
    """Model-ready record: one-hot rows up to true_len, zero rows after."""

    attributes: np.ndarray  # shape (u,)
    seq: np.ndarray  # shape (t_max, r)
    true_len: int


@dataclass
class Triplet:
    a: object
    b: object
    ell: int  # 0 = same class, 1 = different classes


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def is_json_int(x) -> bool:
    """A JSON integer; booleans, although an int subclass, are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_numbers(values) -> bool:
    """True when every value is a JSON number that is finite as a float64."""
    try:
        return all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in values
        )
    except OverflowError:  # an integer beyond the float range
        return False


def _read_records(path):
    """Parse JSONL into records, returning (records, line_numbers)."""
    records, line_nos = [], []
    u = None
    with open(path, "rb") as fh:  # bytes, so undecodable text is reported by line
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # invalid JSON or invalid UTF-8
                raise DataFormatError(f"line {ln}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise DataFormatError(f"line {ln}: expected a JSON object")
            attrs = obj.get("attrs")
            if not isinstance(attrs, list) or not attrs or not _finite_numbers(attrs):
                raise DataFormatError(f"line {ln}: 'attrs' must be a non-empty list of finite numbers")
            if u is None:
                u = len(attrs)
            elif len(attrs) != u:
                raise DataFormatError(f"line {ln}: expected {u} attributes, got {len(attrs)}")
            seq = obj.get("seq")
            if not isinstance(seq, list) or not seq:
                raise DataFormatError(f"line {ln}: empty sequence")
            if not all(is_json_int(x) and x >= 0 for x in seq):
                raise DataFormatError(f"line {ln}: sequence items must be non-negative integers")
            label = obj.get("label")
            if label is not None and not is_json_int(label):
                raise DataFormatError(f"line {ln}: label must be an integer")
            records.append(
                AttributedSequence(np.asarray(attrs, dtype=np.float64), list(seq), label)
            )
            line_nos.append(ln)
    return records, line_nos


def read_records(path):
    """Parse a JSONL dataset; an empty file yields an empty list."""
    return _read_records(path)[0]


def load_jsonl(path, overrides=None):
    """Load a dataset and infer its meta (sidecar overrides win, upward only).

    Returns ``(records, meta)``. Raises DataFormatError on malformed content,
    naming the offending line where one exists.
    """
    records, line_nos = _read_records(path)
    if not records:
        raise DataFormatError("no records")
    source = "overrides"
    if overrides is None:
        sc = sidecar_path(path)
        if sc.exists():
            source = f"sidecar {sc}"
            try:
                with open(sc) as fh:
                    overrides = json.load(fh)
            except ValueError as e:  # invalid JSON or text
                raise DataFormatError(f"{source}: {e}") from None
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict) or not all(
        is_json_int(overrides[k]) for k in ("u", "r", "t_max") if k in overrides
    ):
        raise DataFormatError(f"sidecar must be a JSON object of integer u, r, t_max, got {overrides!r}")

    u = len(records[0].attributes)
    obs_r = max(max(rec.items) for rec in records) + 1
    obs_t_max = max(len(rec.items) for rec in records)
    if obs_t_max * obs_r > MAX_ONE_HOT_CELLS:
        ln = line_nos[max(range(len(records)), key=lambda k: max(records[k].items))]
        raise DataFormatError(
            f"line {ln}: item id {obs_r - 1} makes the one-hot size t_max*r = "
            f"{obs_t_max}*{obs_r}, above the limit of {MAX_ONE_HOT_CELLS} cells"
        )

    if overrides.get("u", u) != u:
        raise DataFormatError(f"sidecar u={overrides['u']} does not match observed u={u}")
    r = overrides.get("r", obs_r)
    if r < obs_r:
        for rec, ln in zip(records, line_nos):
            if max(rec.items) >= r:
                raise DataFormatError(
                    f"line {ln}: item id {max(rec.items)} out of range for declared r={r}"
                )
    t_max = overrides.get("t_max", obs_t_max)
    if t_max < obs_t_max:
        raise DataFormatError(
            f"sidecar t_max={t_max} is below the observed maximum length {obs_t_max}"
        )
    if t_max * r > MAX_ONE_HOT_CELLS:
        raise DataFormatError(
            f"{source}: one-hot size t_max*r = {t_max}*{r} exceeds the limit of "
            f"{MAX_ONE_HOT_CELLS} cells"
        )

    class_ids = frozenset(rec.label for rec in records if rec.label is not None)
    return records, DatasetMeta(u=u, r=r, t_max=t_max, class_ids=class_ids)


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            obj = {"attrs": [float(x) for x in rec.attributes], "seq": [int(i) for i in rec.items]}
            if rec.label is not None:
                obj["label"] = int(rec.label)
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_meta(meta: DatasetMeta, path):
    with open(path, "w") as fh:
        json.dump({"u": meta.u, "r": meta.r, "t_max": meta.t_max}, fh, separators=(",", ":"))
        fh.write("\n")


def encode(rec: AttributedSequence, meta: DatasetMeta) -> EncodedInstance:
    """One-hot encode a record and zero-pad it to t_max rows."""
    n = len(rec.items)
    if n == 0:
        raise ValueError("cannot encode an empty sequence")
    if n > meta.t_max:
        raise ValueError(f"sequence length {n} exceeds t_max={meta.t_max}")
    if len(rec.attributes) != meta.u:
        raise ValueError(f"attribute length {len(rec.attributes)} does not match u={meta.u}")
    seq = np.zeros((meta.t_max, meta.r), dtype=np.float64)
    for t, item in enumerate(rec.items):
        if not 0 <= item < meta.r:
            raise ValueError(f"item id {item} out of range for r={meta.r}")
        seq[t, item] = 1.0
    return EncodedInstance(np.asarray(rec.attributes, dtype=np.float64), seq, n)


def decode(inst: EncodedInstance) -> list:
    """Inverse of encode: item ids of the non-padding rows."""
    return [int(np.argmax(inst.seq[t])) for t in range(inst.true_len)]


def encode_labeled(records, meta):
    """Encode records that must carry labels; yields (instance, label) pairs."""
    pool = []
    for rec in records:
        if rec.label is None:
            raise ValueError("record without a label cannot enter a labeled pool")
        pool.append((encode(rec, meta), rec.label))
    return pool


def split_by_class(records, train_fraction: float, rng: Rng):
    """Partition records into class-disjoint train and one-shot sets.

    ceil(train_fraction * n_classes) classes go to the train side; every
    record follows its class.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labels = sorted({rec.label for rec in records if rec.label is not None})
    if any(rec.label is None for rec in records):
        raise ValueError("cannot split records without class labels")
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes to split, got {len(labels)}")
    n_train = math.ceil(train_fraction * len(labels))
    if n_train >= len(labels):
        raise ValueError(
            f"train_fraction={train_fraction} leaves no classes for the one-shot side"
        )
    order = rng.gen.permutation(len(labels))
    train_classes = {labels[i] for i in order[:n_train]}
    train = [rec for rec in records if rec.label in train_classes]
    oneshot = [rec for rec in records if rec.label not in train_classes]
    return train, oneshot


def sample_triplets(records, n_triplets: int, rng: Rng, positive_fraction: float = 0.5):
    """Draw labeled pairs: ell=0 for same-class, ell=1 for different-class.

    Positives and negatives are balanced to within one triplet by default;
    no instance is ever paired with itself.
    """
    if n_triplets <= 0:
        raise ValueError(f"n_triplets must be positive, got {n_triplets}")
    if not 0 <= positive_fraction <= 1:
        raise ValueError(f"positive_fraction must be in [0, 1], got {positive_fraction}")
    by_label = {}
    for rec in records:
        if rec.label is None:
            raise ValueError("cannot sample triplets from unlabeled records")
        by_label.setdefault(rec.label, []).append(rec)
    labels = sorted(by_label)
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes to sample triplets, got {len(labels)}")

    n_pos = int(n_triplets * positive_fraction + 0.5)
    n_neg = n_triplets - n_pos
    pos_labels = [c for c in labels if len(by_label[c]) >= 2]
    if n_pos > 0 and not pos_labels:
        raise ValueError("positive triplets require a class with at least 2 instances")

    gen = rng.gen
    triplets = []
    for _ in range(n_pos):
        c = pos_labels[gen.integers(len(pos_labels))]
        i, j = gen.choice(len(by_label[c]), size=2, replace=False)
        triplets.append(Triplet(by_label[c][i], by_label[c][j], 0))
    for _ in range(n_neg):
        ci, cj = gen.choice(len(labels), size=2, replace=False)
        a = by_label[labels[ci]]
        b = by_label[labels[cj]]
        triplets.append(Triplet(a[gen.integers(len(a))], b[gen.integers(len(b))], 1))
    return triplets


def encode_triplets(triplets, meta):
    """Encode triplet endpoints, encoding each distinct record only once."""
    cache = {}

    def enc(rec):
        key = id(rec)
        if key not in cache:
            cache[key] = encode(rec, meta)
        return cache[key]

    return [Triplet(enc(t.a), enc(t.b), t.ell) for t in triplets]


def generate_synthetic(
    classes: int,
    per_class: int,
    u: int,
    r: int,
    t_max: int,
    attr_noise: float = 0.0,
    seq_noise: float = 0.0,
    seed: int = 0,
):
    """Generate records with planted class structure.

    Each class owns an attribute centroid (uniform in [-1, 1]^u) and a
    deterministic item-successor table; attributes are centroid plus Gaussian
    noise, sequences follow the successor table except with probability
    seq_noise per step, where the item is uniform. Lengths are uniform in
    [ceil(t_max / 2), t_max], so the class signal lives in the item ordering
    rather than the sequence length.
    """
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if u < 1 or r < 1 or t_max < 1:
        raise ValueError(f"u, r, t_max must be positive: u={u} r={r} t_max={t_max}")
    if attr_noise < 0:
        raise ValueError(f"attr_noise must be >= 0, got {attr_noise}")
    if not 0 <= seq_noise <= 1:
        raise ValueError(f"seq_noise must be in [0, 1], got {seq_noise}")

    root = Rng(seed)
    min_len = (t_max + 1) // 2
    records = []
    for c in range(classes):
        gen = root.child(f"class{c}").gen
        centroid = gen.uniform(-1.0, 1.0, size=u)
        successor = gen.integers(0, r, size=r)
        for _ in range(per_class):
            attrs = centroid + gen.normal(0.0, attr_noise, size=u)
            length = int(gen.integers(min_len, t_max + 1))
            items = [int(gen.integers(r))]
            for _ in range(length - 1):
                if gen.random() < seq_noise:
                    items.append(int(gen.integers(r)))
                else:
                    items.append(int(successor[items[-1]]))
            records.append(AttributedSequence(attrs, items, c))
    return records


def standardize_attributes(records):
    """Per-dimension standardization of attribute vectors.

    Returns (new_records, mean, std); constant dimensions keep std 1.0 so
    they map to zero instead of dividing by zero.
    """
    if not records:
        raise ValueError("no records to standardize")
    stack = np.stack([rec.attributes for rec in records])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    out = [
        AttributedSequence((rec.attributes - mean) / std, list(rec.items), rec.label)
        for rec in records
    ]
    return out, mean, std
