"""Attributed-sequence records and everything that produces or reshapes them.

A record pairs a fixed-length attribute vector with a variable-length
sequence of categorical item ids. The on-disk form is JSONL, one object per
line: ``{"attrs": [...], "seq": [...], "label": 3}`` (label optional), with
an optional sidecar ``<stem>.meta.json`` holding ``{"u":..,"r":..,"t_max":..}``
overrides for the inferred dimensions. `write_jsonl` refuses what the parser
refuses, and beside a regular file of one or more records it also leaves
``<stem>.records.npz``, their parsed form keyed by the SHA-256 of the file's
bytes; a reader uses it in place of parsing only while the file still has
those bytes, and the JSONL stays the one input format. Both read paths end
in the same arrays (`load_arrays`): `eval` takes its pool from them, the
other commands build records. Encoded sequences stay item ids.
"""

import hashlib
import json
import math
import numbers
import os
import stat
import tokenize
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import Rng


# The largest one-hot input the model reads: t_max * r cells, 32 MiB of
# float64, though sequences are stored as ids. r sizes the LSTM kernels and
# the one-hot block backpropagation builds, t_max what `gen` writes. Far
# beyond any alphabet this model trains on, and small enough that an absurd
# item id or dimension is a format error, not an attempt to allocate terabytes.
MAX_ONE_HOT_CELLS = 2**22

# The companion's format version, arrays and dtypes. It stores 8 bytes per
# JSON number (2 or more bytes in the JSONL), 17 per record and a fixed zip
# overhead, so one above COMPANION_SIZE_FACTOR times its JSONL is not
# `write_jsonl`'s and is refused unread.
COMPANION_VERSION = 1
COMPANION_ARRAYS = {
    "version": np.int64, "digest": np.uint8, "attributes": np.float64, "items": np.int64,
    "lengths": np.int64, "labels": np.int64, "labeled": np.bool_,
}
COMPANION_SIZE_FACTOR, COMPANION_SIZE_SLACK = 8, 2**16
# What zipfile and the npy reader raise on a damaged companion: TokenError on an untokenizable
# npy header, NotImplementedError (a RuntimeError) on a zip version or flag bit zipfile lacks.
_DAMAGED_COMPANION = (OSError, EOFError, ValueError, KeyError, MemoryError, RuntimeError,
                      tokenize.TokenError, zipfile.BadZipFile)

POSITIVE_FRACTION = 0.5  # the share of same-class pairs `sample_triplets` draws by default


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
    t_max: int  # longest sequence length
    class_ids: frozenset

    def __post_init__(self):
        if not all(is_integer(v) for v in (self.u, self.r, self.t_max)):
            raise ValueError(
                f"meta dimensions must be integers: u={self.u!r} r={self.r!r} t_max={self.t_max!r}"
            )
        if self.u <= 0 or self.r <= 0 or self.t_max <= 0:
            raise ValueError(f"meta dimensions must be positive: u={self.u} r={self.r} t_max={self.t_max}")
        if self.t_max * self.r > MAX_ONE_HOT_CELLS:
            raise ValueError(
                f"one-hot size t_max*r = {self.t_max}*{self.r} exceeds the limit of "
                f"{MAX_ONE_HOT_CELLS} cells"
            )


@dataclass
class EncodedInstance:
    """Model-ready record: the attributes and the item ids, no padding."""

    attributes: np.ndarray  # shape (u,)
    seq: np.ndarray  # int64 item ids in [0, r), shape (true_len,)
    true_len: int


@dataclass
class Triplet:
    a: object
    b: object
    ell: int  # 0 = same class, 1 = different classes


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def companion_path(path) -> Path:
    return Path(path).with_suffix(".records.npz")


def is_json_int(x) -> bool:
    """A JSON integer; booleans, although an int subclass, are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_class_id(x) -> bool:
    """A JSON integer within int64: a dataset label, or a class id in a
    manifest or checkpoint. Episodes hold class ids in numpy arrays, where a
    larger one would turn into a float64 that other ids share."""
    return is_json_int(x) and -(2**63) <= x < 2**63


def is_integer(x) -> bool:
    """A Python or numpy integer, not a boolean: checks a built dimension or
    count (JSON values, checked in bulk, go through the faster is_json_int)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_number(x) -> bool:
    """A Python or numpy real number, not a boolean."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def all_finite_numbers(values) -> bool:
    """True when every value is a JSON number that is finite as a float64."""
    try:
        return all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in values
        )
    except OverflowError:  # an integer beyond the float range
        return False


def read_json_object(path, error, what):
    """The JSON object stored in `path`: the one reader of every JSON
    artifact (sidecar, checkpoint, manifest, config). Undecodable bytes,
    invalid JSON or a value that is not an object raise `error`, naming
    `what` and the path."""
    try:
        with open(path, "rb") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as e:  # invalid UTF-8 or JSON, or nested too deep
        raise error(f"{what} {path}: {e}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} {path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def write_json(obj, path):
    """Write `obj` to `path` as JSON with sorted keys, compact separators and
    a final newline: the one writer of the checkpoint, manifest and eval
    outputs, mirroring `read_json_object`."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def write_csv(path, header, rows):
    """Write the `header` names and then each row as one comma-separated
    line: strings verbatim, numbers by `repr`, so every float reads back
    bit for bit. The one writer of the metrics, eval and embedding CSVs."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(2**20), b""):
            digest.update(chunk)
    return digest.digest()


def _broken_rule(arrays):
    """The first parser rule that the arrays of one or more records break, or None."""
    attrs, items, lengths = arrays["attributes"], arrays["items"], arrays["lengths"]
    rules = {
        "attributes must be one non-empty vector per record": attrs.ndim == 2 and attrs.size > 0,
        "every record needs one sequence length and one label slot":
            lengths.shape == arrays["labels"].shape == arrays["labeled"].shape == attrs.shape[:1],
        "attributes must be finite numbers": np.isfinite(attrs).all(),
        "every sequence needs at least one item":
            ((lengths >= 1) & (lengths <= items.size)).all() and int(lengths.sum()) == items.size,
        "sequence items must be non-negative integers": items.ndim == 1 and (items >= 0).all(),
    }
    return next((rule for rule, ok in rules.items() if not ok), None)


def _unpacked(arrays):
    """(attribute row, item id list, label or None) of each record the arrays hold."""
    start, items = 0, memoryview(arrays["items"])  # slices list their ids faster than the array's
    for row, n, label, labeled in zip(arrays["attributes"], arrays["lengths"].tolist(),
                                      arrays["labels"].tolist(), arrays["labeled"].tolist()):
        yield row, items[start:start + n].tolist(), label if labeled else None
        start += n


def _stacked(attrs, items, lengths, labels):
    """The arrays of records given column by column: their attribute rows,
    all their item ids one sequence after another, each sequence's length
    and each label or None. The one builder of the arrays, for the parser
    and for `write_jsonl`."""
    try:
        return {"attributes": np.array(attrs, dtype=np.float64),
                "items": np.array(items, dtype=np.int64),
                "lengths": np.array(lengths, dtype=np.int64),
                "labels": np.array([0 if c is None else c for c in labels], dtype=np.int64),
                "labeled": np.array([c is not None for c in labels], dtype=np.bool_)}
    except OverflowError:
        raise ValueError("item ids and labels must lie within int64") from None


def _read_companion(path):
    """The arrays that `write_jsonl` stored beside `path`, or None when the
    companion is missing, damaged, oversized, of another version, outside
    the parser's rules or not of the file's current bytes; the caller then
    parses the file."""
    try:
        st, cst = os.stat(path), os.stat(companion_path(path))
        if (not stat.S_ISREG(st.st_mode) or not stat.S_ISREG(cst.st_mode)
                or cst.st_size > COMPANION_SIZE_FACTOR * st.st_size + COMPANION_SIZE_SLACK):
            return None
        with zipfile.ZipFile(companion_path(path)) as zf:  # `np.savez` stores, never deflates
            if any(info.compress_type != zipfile.ZIP_STORED for info in zf.infolist()):
                return None
            arrays = {}
            for key in COMPANION_ARRAYS:
                with zf.open(f"{key}.npy") as member:  # zipfile checks the CRC at a member's end
                    arrays[key] = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        return None
        if (any(arrays[key].dtype != dtype for key, dtype in COMPANION_ARRAYS.items())
                or arrays["version"].shape != () or arrays["digest"].shape != (32,)
                or int(arrays["version"]) != COMPANION_VERSION or _broken_rule(arrays)
                or arrays["digest"].tobytes() != _sha256(path)):
            return None
    except _DAMAGED_COMPANION:
        return None
    return arrays


def _read_arrays(path):
    """The dataset at `path` as (arrays, line numbers): the arrays of
    `_stacked`, one row per record, and the file line of each record. The
    companion `write_jsonl` left beside `path` stands in for the parse while
    it holds the parse of the file's current bytes."""
    if (arrays := _read_companion(path)) is not None:
        return arrays, range(1, len(arrays["lengths"]) + 1)
    attrs, items = array("d"), array("q")  # raw values: no Python object kept per number
    lengths, labels, line_nos = [], [], []
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
            row = obj.get("attrs")
            if not isinstance(row, list) or not row or not all_finite_numbers(row):
                raise DataFormatError(f"line {ln}: 'attrs' must be a non-empty list of finite numbers")
            if u is None:
                u = len(row)
            elif len(row) != u:
                raise DataFormatError(f"line {ln}: expected {u} attributes, got {len(row)}")
            seq = obj.get("seq")
            if not isinstance(seq, list) or not seq:
                raise DataFormatError(f"line {ln}: empty sequence")
            if not all(is_json_int(x) and 0 <= x < 2**63 for x in seq):
                raise DataFormatError(f"line {ln}: sequence items must be non-negative integers below 2^63")
            label = obj.get("label")
            if label is not None and not is_class_id(label):
                raise DataFormatError(f"line {ln}: label must be an integer")
            attrs.extend(row)
            items.extend(seq)
            lengths.append(len(seq))
            labels.append(label)
            line_nos.append(ln)
    rows = np.frombuffer(attrs, dtype=np.float64).reshape(len(lengths), u or 0)
    return _stacked(rows, items, lengths, labels), line_nos


def records_of(arrays) -> list:
    """The records that a dataset's arrays hold, in file order."""
    return [AttributedSequence(*rec) for rec in _unpacked(arrays)]


def read_records(path):
    """The records of a JSONL dataset, parsed or read from its companion
    (see `_read_arrays`); an empty file yields an empty list."""
    return records_of(_read_arrays(path)[0])


def load_arrays(path):
    """Load a dataset as its arrays and infer its meta (sidecar values win,
    upward only).

    Returns ``(arrays, meta)``, the arrays as `_stacked` builds them. Raises
    DataFormatError on malformed content, naming the offending line where
    one exists.
    """
    arrays, line_nos = _read_arrays(path)
    items, lengths = arrays["items"], arrays["lengths"]
    if not lengths.size:
        raise DataFormatError("no records")
    sc = sidecar_path(path)
    overrides = read_json_object(sc, DataFormatError, "sidecar") if sc.exists() else {}
    if not all(is_json_int(overrides[k]) for k in ("u", "r", "t_max") if k in overrides):
        raise DataFormatError(f"sidecar {sc} must hold integer u, r, t_max, got {overrides!r}")

    def first_holding(item):
        """The line and the largest id of the first record holding an id >= `item`."""
        peaks = np.maximum.reduceat(items, np.cumsum(lengths) - lengths)  # no record is empty
        k = int(np.argmax(peaks >= item))
        return line_nos[k], int(peaks[k])

    u = arrays["attributes"].shape[1]
    obs_r = int(items.max()) + 1  # a Python int first, so an id of 2^63 - 1 cannot overflow
    obs_t_max = int(lengths.max())
    if obs_t_max * obs_r > MAX_ONE_HOT_CELLS:
        raise DataFormatError(
            f"line {first_holding(obs_r - 1)[0]}: item id {obs_r - 1} makes the one-hot size "
            f"t_max*r = {obs_t_max}*{obs_r}, above the limit of {MAX_ONE_HOT_CELLS} cells"
        )

    if overrides.get("u", u) != u:
        raise DataFormatError(f"sidecar u={overrides['u']} does not match observed u={u}")
    r = overrides.get("r", obs_r)
    if r < obs_r:
        ln, item = first_holding(r)
        raise DataFormatError(f"line {ln}: item id {item} out of range for declared r={r}")
    t_max = overrides.get("t_max", obs_t_max)
    if t_max < obs_t_max:
        raise DataFormatError(
            f"sidecar t_max={t_max} is below the observed maximum length {obs_t_max}"
        )
    class_ids = frozenset(arrays["labels"][arrays["labeled"]].tolist())
    try:  # the sidecar's values are the only ones that can break the meta's limits here
        meta = DatasetMeta(u=u, r=r, t_max=t_max, class_ids=class_ids)
    except ValueError as e:
        raise DataFormatError(f"sidecar {sc}: {e}") from None
    return arrays, meta


def load_jsonl(path):
    """`load_arrays` with the records in place of the arrays: ``(records, meta)``."""
    arrays, meta = load_arrays(path)
    return records_of(arrays), meta


def labeled_pool(arrays, classes) -> list:
    """(instance, label) pairs of the records of a dataset's arrays whose
    label is in `classes`, in file order, as `encode_labeled` gives them.
    Each instance is a view into the arrays and is not checked again: the
    arrays of `load_arrays` keep every rule `encode` checks against their
    meta, and `training.check_meta_compatible` extends them to a
    checkpoint's."""
    attrs, items = arrays["attributes"], arrays["items"]
    lengths, labels = arrays["lengths"], arrays["labels"]
    rows = np.flatnonzero(arrays["labeled"] & np.isin(labels, list(classes)))
    starts = (np.cumsum(lengths) - lengths)[rows].tolist()
    return [(EncodedInstance(attrs[k], items[start:start + n], n), label) for k, start, n, label
            in zip(rows.tolist(), starts, lengths[rows].tolist(), labels[rows].tolist())]


def _all_integers(values) -> bool:
    """True when every value is a Python or numpy integer, not a boolean;
    checked once per distinct type, not per value."""
    types = set(map(type, values))
    return types <= {int} or all(issubclass(t, numbers.Integral) and not issubclass(t, bool)
                                 for t in types)


def write_jsonl(records, path):
    """Write records as JSONL and, to a regular file, the companion of one or
    more (see `_read_companion`); records the parser would refuse raise
    ValueError naming the rule before `path` is opened."""
    attrs, items, lengths, labels = [], [], [], []
    for rec in records:
        attrs.append(np.asarray(rec.attributes, dtype=np.float64))
        items += rec.items
        lengths.append(len(rec.items))
        labels.append(rec.label)
    if len({row.shape for row in attrs}) > 1:
        raise ValueError("records must share one attribute width")
    if not _all_integers(items):  # numpy would truncate a float and take a boolean as 0 or 1
        raise ValueError("sequence items must be non-negative integers")
    if not _all_integers(c for c in labels if c is not None):
        raise ValueError("label must be an integer")
    arrays = _stacked(attrs, items, lengths, labels)
    if lengths and (rule := _broken_rule(arrays)):
        raise ValueError(rule)
    encode_line = json.JSONEncoder(separators=(",", ":")).encode
    digest = hashlib.sha256()  # of the bytes as they are written
    with open(path, "wb") as fh:
        for row, seq, label in _unpacked(arrays):
            obj = {"attrs": row.tolist(), "seq": seq}
            if label is not None:
                obj["label"] = label
            line = (encode_line(obj) + "\n").encode()
            digest.update(line)
            fh.write(line)
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe or device: nothing beside it
            return
    if lengths:
        np.savez(companion_path(path), version=np.array(COMPANION_VERSION, dtype=np.int64),
                 digest=np.frombuffer(digest.digest(), dtype=np.uint8), **arrays)
    else:  # a companion of earlier bytes would never match these, but is dead weight
        companion_path(path).unlink(missing_ok=True)


def write_meta(meta: DatasetMeta, path):
    with open(path, "w") as fh:
        json.dump({"u": meta.u, "r": meta.r, "t_max": meta.t_max}, fh, separators=(",", ":"))
        fh.write("\n")


def encode(rec: AttributedSequence, meta: DatasetMeta) -> EncodedInstance:
    """Check a record against meta and keep its item ids as an int64 array."""
    n = len(rec.items)
    if n == 0:
        raise ValueError("cannot encode an empty sequence")
    if n > meta.t_max:
        raise ValueError(f"sequence length {n} exceeds t_max={meta.t_max}")
    if len(rec.attributes) != meta.u:
        raise ValueError(f"attribute length {len(rec.attributes)} does not match u={meta.u}")
    if not _all_integers(rec.items):  # numpy would truncate a float and take a boolean as 0 or 1
        raise ValueError("sequence items must be non-negative integers")
    for item in rec.items:
        if not 0 <= item < meta.r:
            raise ValueError(f"item id {item} out of range for r={meta.r}")
    attributes = np.asarray(rec.attributes, dtype=np.float64)
    if not all(map(math.isfinite, attributes.tolist())):
        raise ValueError("attributes must be finite numbers")
    return EncodedInstance(attributes, np.array(rec.items, dtype=np.int64), n)


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


def sample_triplets(records, n_triplets: int, rng: Rng, positive_fraction: float = POSITIVE_FRACTION):
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
    if not 0 <= attr_noise < math.inf:
        raise ValueError(f"attr_noise must be a finite number >= 0, got {attr_noise}")
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
