"""Attributed-sequence records and everything that produces or reshapes them.

A record pairs a fixed-length attribute vector with a variable-length
sequence of categorical item ids. The on-disk form is JSONL, one object per
line: ``{"attrs": [...], "seq": [...], "label": 3}`` (label optional), with
an optional sidecar ``<stem>.meta.json`` holding ``{"u":..,"r":..,"t_max":..}``
overrides for the inferred dimensions. One table of rules over the stacked
arrays (`_broken_rule`) says what a dataset holds, for the parser, the
companion, `write_jsonl` and the encoders; one rule (`_misfit`) says which
records fit a model's t_max, u and r, be it the sidecar's, a checkpoint's
or an encoder's. Beside a regular file of one or more records `write_jsonl`
also leaves ``<stem>.records.npz``, their parsed form keyed by the SHA-256
of the file's bytes; a reader uses it in place of parsing only while the
file still has those bytes. Both read paths end in the same arrays
(`load_arrays`), and every command runs on instances that view them
(`instances_of`); the record functions serve the library.
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


# The largest one-hot block the model builds: t_max * r cells, 32 MiB of
# float64. The forward pass gathers kernel columns by id; backpropagation
# builds a (T, r) block per sequence. Far beyond any alphabet this model
# trains on, so an absurd item id or sidecar dimension is a format error.
# It bounds one (T, r) block only: r also sizes the LSTM kernels and t_max
# the training buffers, which `encoder.MAX_PARAM_CELLS` bounds.
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
        if not all_numbers((self.u, self.r, self.t_max), int):
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
    """Model-ready record: views of its attributes and item ids, no padding, and its label."""

    attributes: np.ndarray  # shape (u,)
    seq: np.ndarray  # int64 item ids in [0, r), shape (true_len,)
    true_len: int
    label: int | None = None


@dataclass
class Triplet:
    a: object
    b: object
    ell: int  # 0 = same class, 1 = different classes


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def companion_path(path) -> Path:
    return Path(path).with_suffix(".records.npz")


def is_class_id(x) -> bool:
    """A JSON integer within int64: a dataset label, or a class id in a
    manifest or checkpoint. Episodes hold class ids in numpy arrays, where a
    larger one would turn into a float64 that other ids share."""
    return type(x) is int and -(2**63) <= x < 2**63


def all_numbers(values, kind) -> bool:
    """True when every value is a Python or numpy number of `kind` (`int`, or `float` for any
    real) and not a boolean, checked once per distinct type; finiteness is the arrays' rule."""
    plain, abc = ({int}, numbers.Integral) if kind is int else ({int, float}, numbers.Real)
    types = set(map(type, values))  # JSON's own types skip the slower ABC check
    return types <= plain or all(issubclass(t, abc) and t is not bool for t in types)


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
    """(row, rule) for the first of one or more records in `arrays` that
    breaks a rule of what a dataset holds, or None: the one statement of
    those rules. Each is checked on the whole arrays; a row is looked up
    only for a rule that fails, and a tie goes to the earlier rule."""
    attrs, items, lengths = arrays["attributes"], arrays["items"], arrays["lengths"]
    if not (attrs.ndim == 2 and attrs.size > 0):
        return 0, "attributes must be one non-empty vector per record"
    if not (lengths.shape == arrays["labels"].shape == arrays["labeled"].shape == attrs.shape[:1]
            and items.ndim == 1 and sum(lengths.tolist()) == items.size):  # int64 sums wrap
        return 0, "every record needs one sequence length and one label slot"
    rules = (  # each with its whole-array check and the first row that fails it
        ("attributes must be finite numbers", np.isfinite(attrs).all(),
         lambda: np.argmin(np.isfinite(attrs).all(axis=1))),
        ("every sequence needs at least one item", (lengths >= 1).all(),
         lambda: np.argmin(lengths >= 1)),
        ("sequence items must be non-negative integers", (items >= 0).all(),
         lambda: _row_holding(lengths, np.argmin(items >= 0))),
    )
    return min(((int(row()), rule) for rule, ok, row in rules if not ok), key=lambda b: b[0], default=None)


def _row_holding(lengths, k) -> int:
    """The row of the record that holds item id `k` of the arrays' items."""
    return int(np.searchsorted(np.cumsum(lengths), k, side="right"))


def _misfit(arrays, meta):
    """(row, message) for the first of t_max, u and r that the records of
    `arrays` break, at the first row that breaks it, or None: the one
    statement of what fits a model of `meta`."""
    attrs, items, lengths = arrays["attributes"], arrays["items"], arrays["lengths"]
    if (lengths > meta.t_max).any():
        row = int(np.argmax(lengths > meta.t_max))
        return row, f"sequence length {lengths[row]} exceeds t_max={meta.t_max}"
    if lengths.size and attrs.shape[1] != meta.u:
        return 0, f"attribute length {attrs.shape[1]} does not match u={meta.u}"
    if (items >= meta.r).any():  # the LSTM gathers its input by id unchecked
        k = int(np.argmax(items >= meta.r))
        return _row_holding(lengths, k), f"item id {items[k]} out of range for r={meta.r}"
    return None


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
    and for `_arrays_of`."""
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


def _extended(buffer, values) -> bool:
    """Append `values` to an `array`; False, with some appended, when one overflows its type."""
    try:
        buffer.extend(values)
    except OverflowError:
        return False
    return True


def _read_arrays(path):
    """The dataset at `path` as (arrays, line numbers): the arrays of
    `_stacked`, one row per record, and the file line of each record. The
    companion `write_jsonl` left beside `path` stands in for the parse while
    it holds the parse of the file's current bytes."""
    if (arrays := _read_companion(path)) is not None:
        return arrays, range(1, len(arrays["lengths"]) + 1)
    attrs, items = array("d"), array("q")  # raw values: no Python object kept per number
    lengths, labels, line_nos = [], [], []
    u, error = 0, None  # u: the attribute width, once a line has one
    try:
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
                row, seq, label = obj.get("attrs"), obj.get("seq"), obj.get("label")
                if not (isinstance(row, list) and row and all_numbers(row, float)
                        and _extended(attrs, row)):
                    raise DataFormatError(f"line {ln}: 'attrs' must be a non-empty list of finite numbers")
                if u and len(row) != u:
                    raise DataFormatError(f"line {ln}: expected {u} attributes, got {len(row)}")
                u = len(row)
                if not isinstance(seq, list) or not seq:
                    raise DataFormatError(f"line {ln}: empty sequence")
                if not (all_numbers(seq, int) and _extended(items, seq)):
                    raise DataFormatError(f"line {ln}: sequence items must be non-negative integers below 2^63")
                if label is not None and not is_class_id(label):
                    raise DataFormatError(f"line {ln}: label must be an integer")
                lengths.append(len(seq))
                labels.append(label)
                line_nos.append(ln)
    except DataFormatError as e:  # raised once the rows above it pass the table
        a, i = len(lengths) * u, sum(lengths)  # the bad line's values may break an earlier rule
        broken = _broken_rule(_stacked([attrs[a:] or [0.0]], items[i:] or [0], [max(len(items) - i, 1)], [None]))
        error = DataFormatError(f"line {ln}: {broken[1]}") if broken else e  # 0.0 and 0 stand in for none
        del attrs[a:], items[i:]
    rows = np.frombuffer(attrs, dtype=np.float64).reshape(len(lengths), u)
    arrays = _stacked(rows, items, lengths, labels)
    if lengths and (broken := _broken_rule(arrays)):
        raise DataFormatError(f"line {line_nos[broken[0]]}: {broken[1]}")
    if error is not None:
        raise error
    return arrays, line_nos


def records_of(arrays) -> list:
    """The records that a dataset's arrays hold, in file order."""
    return [AttributedSequence(*rec) for rec in _unpacked(arrays)]


def read_records(path):
    """The records of a JSONL dataset, parsed or read from its companion
    (see `_read_arrays`); an empty file yields an empty list."""
    return records_of(_read_arrays(path)[0])


def load_arrays(path):
    """Load a dataset as its arrays and its meta: the observed dimensions, each
    replaced by the sidecar's value where it gives one, which every record must fit.

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
    if not all(type(overrides[k]) is int for k in ("u", "r", "t_max") if k in overrides):
        raise DataFormatError(f"sidecar {sc} must hold integer u, r, t_max, got {overrides!r}")

    top = int(np.argmax(items))  # the first of the largest ids
    obs_r = int(items[top]) + 1  # a Python int first, so an id of 2^63 - 1 cannot overflow
    obs_t_max = int(lengths.max())
    if obs_t_max * obs_r > MAX_ONE_HOT_CELLS:
        raise DataFormatError(
            f"line {line_nos[_row_holding(lengths, top)]}: item id {obs_r - 1} makes the one-hot size "
            f"t_max*r = {obs_t_max}*{obs_r}, above the limit of {MAX_ONE_HOT_CELLS} cells"
        )
    dims = {"u": arrays["attributes"].shape[1], "r": obs_r, "t_max": obs_t_max}
    try:  # the sidecar's values are the only ones that can break the meta's limits here
        meta = DatasetMeta(**{key: overrides.get(key, n) for key, n in dims.items()},
                           class_ids=frozenset(arrays["labels"][arrays["labeled"]].tolist()))
    except ValueError as e:
        raise DataFormatError(f"sidecar {sc}: {e}") from None
    if misfit := _misfit(arrays, meta):
        raise DataFormatError(f"sidecar {sc}: line {line_nos[misfit[0]]}: {misfit[1]}")
    return arrays, meta


def load_jsonl(path):
    """`load_arrays` with the records in place of the arrays: ``(records, meta)``."""
    arrays, meta = load_arrays(path)
    return records_of(arrays), meta


def _views(arrays, rows) -> list:
    """The instances of the records of `arrays` in `rows`, as views into the arrays."""
    attrs, items, lengths = arrays["attributes"], arrays["items"], arrays["lengths"]
    starts = (np.cumsum(lengths) - lengths)[rows].tolist()
    labels = arrays["labels"][rows].tolist(), arrays["labeled"][rows].tolist()
    return [EncodedInstance(attrs[k], items[start:start + n], n, label if labeled else None)
            for k, start, n, label, labeled in zip(rows.tolist(), starts, lengths[rows].tolist(), *labels)]


def _arrays_of(records):
    """The arrays of `records` (see `_stacked`); ValueError names the first rule they break."""
    attrs, items, lengths, labels = [], [], [], []
    for rec in records:
        attrs.append(np.asarray(rec.attributes, dtype=np.float64))
        items += rec.items
        lengths.append(len(rec.items))
        labels.append(rec.label)
    odd = next((row for row in attrs if row.shape != attrs[0].shape), None)  # numpy stacks one shape only
    if odd is not None and attrs[0].ndim == odd.ndim == 1:
        raise ValueError("records must share one attribute width")
    if not all_numbers(items, int):  # numpy would truncate a float and take a boolean as 0 or 1
        raise ValueError("sequence items must be non-negative integers")
    if not all_numbers((c for c in labels if c is not None), int):
        raise ValueError("label must be an integer")
    arrays = _stacked(attrs if odd is None else [], items, lengths, labels)  # [] fails the vector rule
    if lengths and (broken := _broken_rule(arrays)):
        raise ValueError(broken[1])
    return arrays


def write_jsonl(records, path):
    """Write records as JSONL and, to a regular file, the companion of one or
    more (see `_read_companion`); records the parser would refuse raise
    ValueError naming the rule before `path` is opened."""
    arrays = _arrays_of(records)
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
    if arrays["lengths"].size:
        np.savez(companion_path(path), version=np.array(COMPANION_VERSION, dtype=np.int64),
                 digest=np.frombuffer(digest.digest(), dtype=np.uint8), **arrays)
    else:  # a companion of earlier bytes would never match these, but is dead weight
        companion_path(path).unlink(missing_ok=True)


def write_meta(meta: DatasetMeta, path):
    with open(path, "w") as fh:
        json.dump({"u": meta.u, "r": meta.r, "t_max": meta.t_max}, fh, separators=(",", ":"))
        fh.write("\n")


def instances_of(arrays, meta, classes=None) -> list:
    """The instances of a dataset's arrays, in file order, as views into them,
    once every record fits `meta`: ValueError names the first of t_max, u and
    r they break (see `_misfit`). With `classes`, only the labeled records of
    those classes. The arrays of `_read_arrays` and `_arrays_of` already keep
    the dataset's rules."""
    if misfit := _misfit(arrays, meta):
        raise ValueError(misfit[1])
    if classes is None:
        return _views(arrays, np.arange(arrays["lengths"].size))
    return _views(arrays, np.flatnonzero(arrays["labeled"] & np.isin(arrays["labels"], list(classes))))


def encode(rec: AttributedSequence, meta: DatasetMeta) -> EncodedInstance:
    """Check a record against the dataset's rules and meta; the instance keeps int64 item ids."""
    return instances_of(_arrays_of([rec]), meta)[0]


def encode_labeled(records, meta) -> list:
    """Encode records that must carry labels: a pool of labeled instances."""
    if any(rec.label is None for rec in records):
        raise ValueError("record without a label cannot enter a labeled pool")
    return instances_of(_arrays_of(records), meta)


def check_sampling(n_triplets=1, positive_fraction=POSITIVE_FRACTION, train_fraction=0.5):
    """ValueError naming the first sampling setting out of its range: the ranges
    of `split_by_class` and `sample_triplets`, which a caller may check early."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if n_triplets <= 0:
        raise ValueError(f"n_triplets must be positive, got {n_triplets}")
    if not 0 <= positive_fraction <= 1:
        raise ValueError(f"positive_fraction must be in [0, 1], got {positive_fraction}")


def group_by_class(pool) -> dict:
    """Class id -> indices of its records or instances in `pool`, in pool
    order; ValueError names the first pool index whose entry has no label."""
    by_class = {}
    for idx, inst in enumerate(pool):
        if inst.label is None:
            raise ValueError(f"pool instance {idx} has no label")
        by_class.setdefault(inst.label, []).append(idx)
    return by_class


def split_by_class(records, train_fraction: float, rng: Rng):
    """Partition records or instances into class-disjoint train and one-shot sets.

    ceil(train_fraction * n_classes) classes go to the train side; every
    record follows its class.
    """
    check_sampling(train_fraction=train_fraction)
    labels = sorted(group_by_class(records))
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
    check_sampling(n_triplets, positive_fraction)
    by_label = {c: [records[i] for i in idx] for c, idx in group_by_class(records).items()}
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
        a, b = by_label[labels[ci]], by_label[labels[cj]]
        triplets.append(Triplet(a[gen.integers(len(a))], b[gen.integers(len(b))], 1))
    return triplets


def encode_triplets(triplets, meta):
    """Encode triplet endpoints, encoding each distinct record only once."""
    distinct = {id(rec): rec for t in triplets for rec in (t.a, t.b)}
    encoded = dict(zip(distinct, instances_of(_arrays_of(list(distinct.values())), meta)))
    return [Triplet(encoded[id(t.a)], encoded[id(t.b)], t.ell) for t in triplets]


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
