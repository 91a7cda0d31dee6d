"""Per-triplet SGD with validation-based early stopping and checkpointing.

The loop follows the contrastive objective: for every triplet it runs the
pair's two sides as two lockstep rows, forward and back, and immediately
applies theta <- theta - lr * (grad + decay * theta) to the flat parameter
buffer, where decay is l2 on weight matrices and 0 on bias vectors. The
gradient store, the update buffer and the rows' buffers (the forward and
backward workspace) live per `train`.
Early stopping watches the mean validation loss per epoch, and the
parameters returned are those of the best validation epoch.
"""

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import DatasetMeta, all_numbers, is_class_id, read_json_object, write_csv, write_json
from .encoder import LstmBuffers, ModelConfig, ModelParams, embed_instances, param_shapes, rows_forward
from .encoder import omega_forward  # noqa: F401  (bench/tracer.py wraps it here)
from .gradients import DISTANCE_KINDS, GRAD_MODES, backward_rows, contrastive_loss, distance
from .gradients import backward_pair, pair_loss  # noqa: F401  (bench/tracer.py wraps them here)
from .kernel import Rng

CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when an embedding, the loss or the parameters go non-finite;
    names the epoch, and the triplet where a pair saw it."""


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class ShapeMismatchError(ValueError):
    """Checkpoint and dataset disagree on a structural dimension."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    max_epochs: int = 100
    converge_eps: float = 1e-4
    margin: float = 1.0
    l2: float = 1e-4
    val_fraction: float = 0.2
    patience: int = 5
    distance: str = "euclidean"
    grad_mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "patience", "seed"):
            if not all_numbers([value := getattr(self, name)], int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "converge_eps", "margin", "l2", "val_fraction"):
            if not (all_numbers([value := getattr(self, name)], float) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.converge_eps < 0:
            raise ValueError(f"converge_eps must be >= 0, got {self.converge_eps}")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.distance not in DISTANCE_KINDS:
            raise ValueError(f"unknown distance {self.distance!r}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""
    wall_time: float = 0.0
    n_train: int = 0
    n_val: int = 0
    zero_distance_dissimilar: int = 0  # skipped undefined-direction updates


def train(params: ModelParams, cfg: ModelConfig, triplets, train_cfg: TrainConfig):
    """Train on encoded triplets; returns (best params, report).

    The input params are not mutated. Validation triplets are held out by
    val_fraction (at least one stays in training); with a single triplet
    the validation loss falls back to the training loss so the convergence
    test still applies.
    """
    if not triplets:
        raise ValueError("no triplets to train on")
    rng = Rng(train_cfg.seed)
    n = len(triplets)
    n_val = min(n - 1, max(1, round(train_cfg.val_fraction * n))) if n >= 2 else 0
    perm = rng.child("val_split").gen.permutation(n)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]

    params = params.copy()
    decay = ModelParams(params.shapes)
    for w in decay.values():
        if w.ndim == 2:  # weight matrices; bias vectors do not decay
            w[...] = train_cfg.l2
    grads = ModelParams(params.shapes)  # refilled by every backward_rows
    step = np.empty_like(params.flat)
    buffers = LstmBuffers(max(inst.true_len for t in triplets for inst in (t.a, t.b)), 2, params.b_i.size)
    report = TrainReport(n_train=len(train_idx), n_val=n_val)
    best_val = np.inf
    best_params = params.copy()
    stall = 0
    started = time.perf_counter()

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.child(f"epoch{epoch}").gen.permutation(len(train_idx))
        epoch_losses = np.empty(len(order))
        for pos, o in enumerate(order):
            t = triplets[train_idx[o]]
            embeddings, rows = rows_forward(params, cfg, (t.a, t.b), buffers)
            if not np.isfinite(embeddings).all():
                raise TrainingDiverged(
                    f"non-finite embedding at epoch {epoch}, triplet {pos}"
                )
            loss, d = backward_rows(params, cfg, rows, t.ell, train_cfg.margin,
                                    train_cfg.distance, train_cfg.grad_mode, grads)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, triplet {pos}"
                )
            if t.ell == 1 and d == 0.0:
                report.zero_distance_dissimilar += 1
            if train_cfg.lr != 0.0:
                # flat -= lr * (g + decay * flat), one product at a time
                np.multiply(decay.flat, params.flat, out=step)
                step += grads.flat
                step *= train_cfg.lr
                params.flat -= step
            epoch_losses[pos] = loss
        train_loss = float(epoch_losses.mean())
        # the epoch's last update can leave the parameters non-finite, which
        # no pair of this epoch sees; one check per epoch, before validation
        if not np.isfinite(params.flat).all():
            raise TrainingDiverged(f"non-finite parameters after the last update of epoch {epoch}")
        if n_val:
            val_loss = validation_loss(params, cfg, [triplets[i] for i in val_idx],
                                       train_cfg.margin, train_cfg.distance)
        else:
            val_loss = train_loss
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            best_params = params.copy()
            stall = 0
        else:
            stall += 1

        if epoch >= 2 and abs(val_loss - report.val_losses[-2]) < train_cfg.converge_eps:
            report.stop_reason = "converged"
            break
        if stall >= train_cfg.patience:
            report.stop_reason = "patience"
            break
    else:
        report.stop_reason = "max_epochs"

    report.wall_time = time.perf_counter() - started
    return best_params, report


def validation_loss(params, cfg, pairs, margin, kind) -> float:
    """Mean pair loss over held-out triplets, both sides of every pair
    embedded by the batched encoder."""
    emb = embed_instances(params, cfg, [t.a for t in pairs] + [t.b for t in pairs])
    d = distance(kind, emb[:len(pairs)], emb[len(pairs):]).tolist()
    return float(np.mean([contrastive_loss(d_k, t.ell, margin) for d_k, t in zip(d, pairs)]))


def write_metrics(report: TrainReport, path):
    write_csv(path, ["epoch", "train_loss", "val_loss"],
              [(e, *losses) for e, losses in
               enumerate(zip(report.train_losses, report.val_losses), start=1)])


def save_checkpoint(params: ModelParams, cfg: ModelConfig, meta: DatasetMeta, path, train_info=None):
    """Self-describing JSON checkpoint; tensor round-trips are bitwise exact."""
    write_json({
        "version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "meta": {**asdict(meta), "class_ids": sorted(meta.class_ids)},
        "train": train_info or {},
        "tensors": {
            name: {"shape": list(t.shape), "data": [float(x) for x in t.reshape(-1)]}
            for name, t in params.tensors().items()
        },
    }, path)


def _header_block(envelope, name, cls) -> dict:
    """The fields of dataclass `cls` stored in the checkpoint block `name`;
    a missing block or field raises ValueError naming it."""
    block = envelope.get(name)
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be an object, got {type(block).__name__}")
    keys = [f.name for f in fields(cls)]
    if missing := [key for key in keys if key not in block]:
        raise ValueError(f"{name} lacks {', '.join(missing)}")
    return {key: block[key] for key in keys}


def load_checkpoint(path):
    """Returns (params, cfg, meta, train_info); raises CheckpointError on
    version or shape problems, on a missing header field and on tensor data
    that is not a flat list of finite numbers."""
    envelope = read_json_object(path, CheckpointError, "corrupt checkpoint")
    if "version" not in envelope:
        raise CheckpointError(f"corrupt checkpoint {path}: missing envelope fields")
    if envelope["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {envelope['version']} (expected {CHECKPOINT_VERSION})"
        )
    try:
        cfg = ModelConfig(**_header_block(envelope, "config", ModelConfig))
        mt = _header_block(envelope, "meta", DatasetMeta)
        if not all(is_class_id(k) for k in mt["class_ids"]):
            raise ValueError(f"meta.class_ids must be integers, got {mt['class_ids']!r}")
        meta = DatasetMeta(**{**mt, "class_ids": frozenset(mt["class_ids"])})
        stored = envelope.get("tensors")
        if not isinstance(stored, dict):
            raise ValueError("'tensors' must be an object")
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from None
    train_info = envelope.get("train", {})
    if not isinstance(train_info, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: 'train' must be an object, got {train_info!r}")

    # every stored tensor is checked against the layout before the store is
    # allocated, so the store never holds more values than the file does
    shapes, tensors = param_shapes(cfg, meta), []
    for name, shape in shapes.items():
        if name not in stored:
            raise CheckpointError(f"corrupt checkpoint {path}: missing tensor {name}")
        try:
            stored_shape, data = tuple(stored[name]["shape"]), stored[name]["data"]
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"corrupt checkpoint {path}: tensor {name}: {e!r}") from None
        if stored_shape != shape:
            raise CheckpointError(
                f"corrupt checkpoint {path}: tensor {name} has shape "
                f"{list(stored_shape)}, expected {list(shape)}"
            )
        try:
            values = (np.array(data, dtype=np.float64)
                      if isinstance(data, list) and all_numbers(data, float) else None)
        except OverflowError:  # an integer beyond the float range
            values = None
        if values is None or not np.isfinite(values).all():
            raise CheckpointError(
                f"corrupt checkpoint {path}: tensor {name} data must be a flat list of finite numbers"
            )
        if len(data) != math.prod(shape):
            raise CheckpointError(
                f"corrupt checkpoint {path}: tensor {name} carries {len(data)} values "
                f"for shape {list(shape)}"
            )
        tensors.append(values)
    try:
        params = ModelParams(shapes)
    except ValueError as e:
        raise CheckpointError(f"checkpoint {path}: {e}") from None
    np.concatenate(tensors, out=params.flat)  # the tensors back to back, in layout order
    return params, cfg, meta, train_info

