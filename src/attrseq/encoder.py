"""The attributed-sequence encoder.

Maps (attribute vector, one-hot item sequence) to an n-dimensional embedding:
an m-layer fully connected stack reads the attributes, an LSTM reads the
sequence up to its true length (padding rows are never processed), the last
hidden state is concatenated with the final attribute activation, and one
fused fully connected layer produces the embedding. The forward pass records
every intermediate value the backward pass needs.

All parameters live in one contiguous float64 buffer (`ModelParams.flat`);
every named tensor is a view of it, laid out by `param_shapes`. The LSTM
runs its four gates as one stacked block: one input projection for all
steps, then one recurrent product per step.

There is one forward kernel, written for a batch of N instances
(`lstm_batch`; `fc_forward` and the fusion layer take a batch too).
Training runs it at N=1 through `omega_forward`, which keeps the trace for
backpropagation; inference (`embed_instances`: evaluation, the `embed`
command, the validation loss) runs it over EMBED_CHUNK instances at a time
and keeps only the embeddings.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import DatasetMeta, EncodedInstance
from .kernel import Rng, activation, glorot_bound, orthogonal_init, sigmoid, uniform_init

BRANCH_MODES = ("both", "attributes_only", "sequence_only")
GATES = "ifoc"  # LSTM input, forget, output gates and cell candidate
# Instances per batched forward. The per-step products are matrix-matrix from
# a few rows on; at the default widths a chunk of 32 holds about 1.3 MiB of
# traces. On a 2-vCPU Xeon with one BLAS thread, evaluation ran no faster at
# 48 or 64, and its peak memory grew by 0.8 or 1.4 MiB.
EMBED_CHUNK = 32


@dataclass
class ModelConfig:
    m: int = 3  # fully connected depth
    n_m: int = 50  # fully connected width
    n_l: int = 50  # LSTM width
    n: int = 50  # embedding dimension
    activation: str = "tanh"
    branch_mode: str = "both"

    def __post_init__(self):
        if min(self.m, self.n_m, self.n_l, self.n) < 1:
            raise ValueError(f"all model dimensions must be >= 1, got {self}")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.branch_mode not in BRANCH_MODES:
            raise ValueError(f"branch_mode must be one of {BRANCH_MODES}, got {self.branch_mode!r}")


def branch_gates(mode: str):
    """(attribute gate, sequence gate) multipliers for the fusion input."""
    return {"both": (1.0, 1.0), "attributes_only": (1.0, 0.0), "sequence_only": (0.0, 1.0)}[mode]


def param_shapes(cfg: ModelConfig, meta: DatasetMeta) -> dict:
    """Name -> shape of every trainable tensor, in storage order.

    The one place the parameter layout is spelled out. The LSTM tensors are
    grouped by kind (kernels, recurrent weights, biases), gates in i, f, o, c
    order, so each kind's four gates sit next to each other in storage.
    """
    shapes = {}
    d_in = meta.u
    for k in range(cfg.m):
        shapes[f"fc{k}_w"] = (cfg.n_m, d_in)  # layer k maps dim_{k-1} -> n_m
        shapes[f"fc{k}_b"] = (cfg.n_m,)
        d_in = cfg.n_m
    for kind, shape in (("w", (cfg.n_l, meta.r)), ("u", (cfg.n_l, cfg.n_l)), ("b", (cfg.n_l,))):
        for gate in GATES:
            shapes[f"{kind}_{gate}"] = shape
    shapes["w_p"] = (cfg.n, cfg.n_m + cfg.n_l)  # fusion
    shapes["b_p"] = (cfg.n,)
    return shapes


class ModelParams(Mapping):
    """Every trainable tensor as a named view of one flat float64 buffer.

    ``flat`` holds the tensors back to back in `param_shapes` order. The
    store maps each name to its view, and the names are also attributes
    (``w_i`` .. ``b_c``, ``w_p``, ``b_p``; the attribute stack also as the
    lists ``fc_w`` and ``fc_b``), so writing through any of them writes
    ``flat``. ``lstm_w`` (4*n_l, r), ``lstm_u`` (4*n_l, n_l) and ``lstm_b``
    (4*n_l,) view the four gates of each LSTM kind stacked in i, f, o, c
    order. A gradient container is a zeroed store with the same layout:
    ``ModelParams(params.shapes)``.
    """

    def __init__(self, shapes: dict):
        self.shapes = dict(shapes)
        self.flat = np.zeros(sum(math.prod(shape) for shape in self.shapes.values()))
        self._views, starts, offset = {}, {}, 0
        for name, shape in self.shapes.items():
            starts[name] = offset
            offset += math.prod(shape)
            self._views[name] = self.flat[starts[name]:offset].reshape(shape)
        for name, view in self._views.items():
            setattr(self, name, view)
        m = sum(name.startswith("fc") for name in self.shapes) // 2
        self.fc_w = [self._views[f"fc{k}_w"] for k in range(m)]
        self.fc_b = [self._views[f"fc{k}_b"] for k in range(m)]
        for kind in "wub":  # a kind's gates are adjacent, so one slice spans them
            first = self._views[f"{kind}_{GATES[0]}"]
            start = starts[f"{kind}_{GATES[0]}"]
            stacked = self.flat[start:start + len(GATES) * first.size]
            setattr(self, f"lstm_{kind}", stacked.reshape(len(GATES) * len(first), *first.shape[1:]))

    def __getitem__(self, name):
        return self._views[name]

    def __setitem__(self, name, value):
        """Write values into the named tensor; the layout never changes."""
        self._views[name][...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def tensors(self) -> dict:
        """Name -> live view, in storage order. Mutations write through."""
        return dict(self._views)

    def copy(self) -> "ModelParams":
        clone = ModelParams(self.shapes)
        clone.flat[...] = self.flat
        return clone


@dataclass
class LstmTrace:
    """Per-step values, (T, .) for one instance or (T, N, .) for a batch."""

    x: np.ndarray  # (T, r) consumed one-hot rows
    gates: np.ndarray  # (T, 4*n_l): i, f, o (sigmoid) then g (tanh) per step
    c: np.ndarray  # cell states, (T, n_l)
    tanh_c: np.ndarray
    h: np.ndarray  # hidden states, (T, n_l)


@dataclass
class ForwardTrace:
    alphas: list  # fully connected activations [input, a_1, .., a_m]
    lstm: LstmTrace
    concat: np.ndarray  # gated (a_m ++ h_last), length n_m + n_l
    fused_pre: np.ndarray  # fusion pre-activation, (n,)
    embedding: np.ndarray  # (n,)


def init_params(cfg: ModelConfig, meta: DatasetMeta, rng: Rng) -> ModelParams:
    """Fresh parameters: uniform fan-scaled kernels, orthogonal recurrent
    matrices, zero biases. Each tensor draws from its own labeled stream."""
    params = ModelParams(param_shapes(cfg, meta))
    for k, w in enumerate(params.fc_w):
        n_out, d_in = w.shape
        w[...] = uniform_init(rng.child(f"fc{k}_w"), n_out, d_in, glorot_bound(d_in, n_out))
    kernel_bound = float(np.sqrt(6.0 / cfg.n_l))
    for g in GATES:
        params[f"w_{g}"] = uniform_init(rng.child(f"w_{g}"), cfg.n_l, meta.r, kernel_bound)
        params[f"u_{g}"] = orthogonal_init(rng.child(f"u_{g}"), cfg.n_l)
    params.w_p[...] = uniform_init(rng.child("w_p"), cfg.n, cfg.n_m + cfg.n_l,
                                   glorot_bound(cfg.n_m + cfg.n_l, cfg.n))
    return params


def fc_forward(params: ModelParams, v: np.ndarray, act_name: str = "tanh"):
    """Run the attribute branch over one vector (u,) or a batch (N, u);
    returns (final activation, all activations)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != params.fc_w[0].shape[1]:
        raise ValueError(
            f"attribute vector shape {v.shape} does not match layer-1 input "
            f"dimension {params.fc_w[0].shape[1]}"
        )
    act = activation(act_name)
    alphas = [v]
    for w, b in zip(params.fc_w, params.fc_b):
        alphas.append(act(alphas[-1] @ w.T + b))
    return alphas[-1], alphas


class LstmBuffers:
    """Every array `lstm_batch` writes, for batches of N sequences of at
    most T steps: the trace arrays gates (T, N, 4*n_l), c, tanh_c and h
    (T, N, n_l), and the per-step buffers z (N, 4*n_l) and ig (N, n_l).

    A caller that runs many batches of one size passes the same buffers to
    every call; each call overwrites the trace of the one before.
    """

    def __init__(self, T: int, N: int, n_l: int):
        self.gates = np.empty((T, N, 4 * n_l))
        self.c = np.empty((T, N, n_l))
        self.tanh_c = np.empty((T, N, n_l))
        self.h = np.empty((T, N, n_l))
        self.z = np.empty((N, 4 * n_l))
        self.ig = np.empty((N, n_l))


def lstm_batch(params: ModelParams, x: np.ndarray, lengths: np.ndarray, buffers=None):
    """The LSTM kernel: N sequences at once, time-major.

    x is (T, N, r) with T the longest length; rows of sequence k at and
    past lengths[k] are padding. Every sequence runs all T steps, so there
    are no per-step masks: the states past a sequence's length are computed
    but never used, and each sequence's state is picked at its own length
    after the loop. Returns (h at each length (N, n_l), trace of (T, N, .)
    arrays). States start at zero. The trace is written into the first T
    steps of `buffers` (an `LstmBuffers`) when given, else into new arrays.
    """
    T, N, r = x.shape
    if r != params.lstm_w.shape[1]:
        raise ValueError(
            f"sequence row width {r} does not match kernel input "
            f"dimension {params.lstm_w.shape[1]}"
        )
    n_l = params.lstm_b.shape[0] // 4
    if buffers is None:
        buffers = LstmBuffers(T, N, n_l)
    elif buffers.gates.shape[0] < T or buffers.gates.shape[1:] != (N, 4 * n_l):
        raise ValueError(
            f"buffers of gate shape {buffers.gates.shape} cannot hold {T} steps "
            f"of {N} sequences of width {n_l}"
        )
    gates, c, tanh_c, h = (a[:T] for a in (buffers.gates, buffers.c, buffers.tanh_c, buffers.h))
    # input-side projections of every step in one product; each step reads
    # its row before overwriting it with the gate activations
    np.matmul(x.reshape(T * N, r), params.lstm_w.T, out=gates.reshape(T * N, 4 * n_l))
    gates += params.lstm_b
    u_t = params.lstm_u.T
    h_prev = np.zeros((N, n_l))
    c_prev = np.zeros((N, n_l))
    # per-step buffers: nothing is allocated inside the loop
    z, ig = buffers.z, buffers.ig
    s3 = 3 * n_l
    z_sig, z_g = z[:, :s3], z[:, s3:]
    sig = gates[:, :, :s3]  # i, f, o
    gi, gf, go, gg = (gates[:, :, k * n_l:(k + 1) * n_l] for k in range(4))
    for gates_t, sig_t, i_t, f_t, o_t, g_t, c_t, tc_t, h_t in zip(
            gates, sig, gi, gf, go, gg, c, tanh_c, h):
        np.matmul(h_prev, u_t, out=z)
        z += gates_t
        sigmoid(z_sig, out=sig_t)
        np.tanh(z_g, out=g_t)
        # c = f * c_prev + i * g and h = o * tanh(c), written into the trace
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=ig)
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)
        h_prev, c_prev = h_t, c_t
    h_last = h[np.asarray(lengths) - 1, np.arange(N)]
    return h_last, LstmTrace(x, gates, c, tanh_c, h)


def lstm_forward(params: ModelParams, seq: np.ndarray, true_len: int):
    """Run the sequence branch over rows 1..true_len; padding is skipped.

    `lstm_batch` at N=1. Returns (h at true_len, trace). States start at zero.
    """
    if true_len < 1:
        raise ValueError(f"true_len must be >= 1, got {true_len}")
    T = int(true_len)
    h_last, trace = lstm_batch(params, seq[:T, None, :], np.array([T]))
    return h_last[0], LstmTrace(*(a[:, 0] for a in (trace.x, trace.gates, trace.c,
                                                     trace.tanh_c, trace.h)))


def _fuse(params: ModelParams, cfg: ModelConfig, a_m, h_last):
    """Fusion layer over one instance or a batch; returns
    (concat, pre-activation, embedding). A disabled branch (branch_mode) is
    zeroed in the fusion input, so the embedding shape never changes."""
    ga, gs = branch_gates(cfg.branch_mode)
    concat = np.concatenate([ga * a_m, gs * h_last], axis=-1)
    fused_pre = concat @ params.w_p.T + params.b_p
    return concat, fused_pre, activation(cfg.activation)(fused_pre)


def omega_forward(params: ModelParams, cfg: ModelConfig, inst: EncodedInstance):
    """Full encoder pass over one instance; returns (embedding, trace)."""
    a_m, alphas = fc_forward(params, inst.attributes, cfg.activation)
    h_last, lstm = lstm_forward(params, inst.seq, inst.true_len)
    concat, fused_pre, embedding = _fuse(params, cfg, a_m, h_last)
    return embedding, ForwardTrace(alphas, lstm, concat, fused_pre, embedding)


def embed_instances(params: ModelParams, cfg: ModelConfig, instances) -> np.ndarray:
    """Embeddings (N, n) of many instances, at most EMBED_CHUNK at a time.

    Each chunk goes through the same kernels as `omega_forward`, batched;
    only one chunk's traces are alive at any time. The chunks are equal in
    size, a short last one padded with empty rows, so every chunk runs the
    same product shapes: within one call a row depends only on its
    instance, never on its position or its chunk, so duplicate instances
    embed identically. A row can still differ from the instance's
    `omega_forward` embedding in the last bits, because a matrix product
    sums in another order than a matrix-vector product.

    Every chunk writes its trace into one `LstmBuffers`: a fresh trace of
    about 1.3 MiB per chunk comes from the C allocator either as resident
    memory or as new pages to fault in, depending on what the process
    allocated before, and the faults make evaluation up to a third slower
    in some processes than in others.
    """
    n_inst = len(instances)
    out = np.empty((n_inst, cfg.n))
    if not n_inst:
        return out
    size = -(-n_inst // -(-n_inst // EMBED_CHUNK))  # fewest chunks, then equal sizes
    t_max = max(max(inst.true_len for inst in instances), 1)  # bad lengths raise below
    buffers = LstmBuffers(t_max, size, params.lstm_b.shape[0] // 4)
    for start in range(0, n_inst, size):
        chunk = instances[start:start + size]
        lengths = np.ones(size, dtype=np.int64)  # padding rows: zero inputs, one step
        lengths[:len(chunk)] = [inst.true_len for inst in chunk]
        if lengths.min() < 1:
            raise ValueError(f"true_len must be >= 1, got {lengths.min()}")
        attrs = np.zeros((size, params.fc_w[0].shape[1]))
        x = np.zeros((lengths.max(), size, params.lstm_w.shape[1]))
        for k, inst in enumerate(chunk):
            attrs[k] = inst.attributes
            x[:inst.true_len, k] = inst.seq[:inst.true_len]
        a_m = fc_forward(params, attrs, cfg.activation)[0]
        h_last = lstm_batch(params, x, lengths, buffers)[0]
        out[start:start + len(chunk)] = _fuse(params, cfg, a_m, h_last)[2][:len(chunk)]
    return out
