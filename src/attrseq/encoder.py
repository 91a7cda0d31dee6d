"""The attributed-sequence encoder.

Maps (attribute vector, item-id sequence) to an n-dimensional embedding:
an m-layer fully connected stack reads the attributes, an LSTM reads the
sequence up to its true length, the last hidden state is concatenated with
the final attribute activation, and one fused fully connected layer produces
the embedding. The traced forward pass records every intermediate value
the backward pass needs.

All parameters live in one contiguous float64 buffer (`ModelParams.flat`);
every named tensor is a view of it, laid out by `param_shapes`. The LSTM
runs its four gates as one stacked block: a step's input is its item's
one-hot row, so its input projection plus bias is one row per gate of a
gate table (`_gate_table`), gathered by item id, and one recurrent product
per step adds the rest.

The LSTM has one step loop (`_lstm`), run over a block of k chunks of
`size` rows with one stacked recurrent product per step, and the depth of
its buffers decides whether it keeps a trace. Training runs a pair's two
sides as two lockstep rows (`rows_forward`: two chunks of one row), each
product per row, so each row is bitwise a one-instance pass
(`omega_forward`, a one-row `rows_forward`); its buffers are as deep as the
longest sequence, and every step keeps its slot for backpropagation. Every
trace, one row or two, has one layout: (T, 4, R, n_l) gate-major gates and
(T, R, n_l) states, and it carries its buffers (`LstmBuffers`), which also
keep each step's views and the arrays of the backward through time:
`train` reuses one set for every pair, and a one-call pass builds only
what it uses. The fully connected stack and the fusion layer are plain
numpy expressions.
Inference (`embed_instances`: evaluation, the `embed` command, the
validation loss) runs blocks of EMBED_BLOCK chunks of EMBED_CHUNK rows (one
matrix product per chunk) on buffers of depth 1, which every step
overwrites, so it holds only one block's arrays and the embeddings. It
computes only what it reads: a chunk whose rows have all ended makes no
further step, and the first step, from zero states, makes no recurrent
product.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import DatasetMeta, EncodedInstance, all_numbers
from .kernel import (ACTIVATIONS, Rng, activation, glorot_bound, orthogonal_init, sigmoid,
                     uniform_init)

BRANCH_MODES = ("both", "attributes_only", "sequence_only")
GATES = "ifoc"  # LSTM input, forget, output gates and cell candidate
# Rows per chunk of an inference block; every chunk runs the same product
# shapes. The per-step products are matrix-matrix from a few rows on. On a
# 2-vCPU Xeon with one BLAS thread, chunks of 48 or 64 (each then with its
# own per-step trace) evaluated no faster and took 0.8 or 1.4 MiB more.
EMBED_CHUNK = 32
# Chunks per inference block: a step runs its block's chunks as
# one stacked product and one set of elementwise calls. With one BLAS thread
# on a 2-vCPU Xeon, 480 instances embedded faster in blocks of 4 than in
# blocks of 1, 2 or 8 chunks or all 15 at once.
EMBED_BLOCK = 4
# The most values one parameter store or one LSTM buffer array holds, 128
# MiB of float64. Training keeps at least five stores of one layout, so a
# layout beyond this (an item alphabet of millions sizes the LSTM kernels) or
# a training sequence too long for its buffers is refused before allocation.
MAX_PARAM_CELLS = 2**24
# The deepest attribute stack a model may have. The layout, two tensors per
# layer, is built before its cells are counted, so this bound keeps a depth
# from a flag or a file from building millions of entries first.
MAX_FC_DEPTH = 2**10


@dataclass
class ModelConfig:
    m: int = 3  # fully connected depth
    n_m: int = 50  # fully connected width
    n_l: int = 50  # LSTM width
    n: int = 50  # embedding dimension
    activation: str = "tanh"
    branch_mode: str = "both"

    def __post_init__(self):
        if not all_numbers((self.m, self.n_m, self.n_l, self.n), int):
            raise ValueError(f"all model dimensions must be integers, got {self}")
        if min(self.m, self.n_m, self.n_l, self.n) < 1:
            raise ValueError(f"all model dimensions must be >= 1, got {self}")
        if self.m > MAX_FC_DEPTH:
            raise ValueError(f"fully connected depth m={self.m} is above the limit of {MAX_FC_DEPTH}")
        if self.activation not in ACTIVATIONS:
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


def _check_cells(cells: int, what: str = "the parameters", per: str = "store"):
    if cells > MAX_PARAM_CELLS:
        raise ValueError(f"{what} need {cells} values, above the limit of "
                         f"{MAX_PARAM_CELLS} per {per}")


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
        cells = sum(math.prod(shape) for shape in self.shapes.values())
        _check_cells(cells)
        self.flat = np.zeros(cells)
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
    """The per-step values of N rows, time-major. A row's steps past its
    length are padding: computed, never read."""

    x: np.ndarray  # item ids read at each step, int64 (T, N)
    gates: np.ndarray  # i, f, o (sigmoid), g (tanh), gate-major (T, 4, N, n_l)
    c: np.ndarray  # cell states, (T, N, n_l)
    tanh_c: np.ndarray
    h: np.ndarray  # hidden states, (T, N, n_l)
    lengths: np.ndarray  # true length of each row, (N,)
    buffers: "LstmBuffers"  # the workspace the arrays above view, which the backward reuses


@dataclass
class ForwardTrace:
    """The pass of R instances as R rows, every array (R, 1, .); one
    instance's pass is a one-row trace."""
    alphas: list  # fully connected activations [input, a_1, .., a_m]
    lstm: LstmTrace
    concat: np.ndarray  # gated (a_m ++ h_last), (R, 1, n_m + n_l)
    embedding: np.ndarray  # (R, 1, n)


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
    """Run the attribute branch over one vector (u,), a batch (N, u) or a
    block of k chunks (k, size, u), one product per chunk; returns (final
    activation, all activations)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2, 3) or v.shape[-1] != params.fc_w[0].shape[1]:
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
    """The workspace of a pass over N rows: the LSTM's gates (depth, 4, N,
    n_l), c, tanh_c and h (depth, N, n_l), z (N, 4*n_l) and ig (N, n_l).
    At depth T (the longest length) or more every step keeps its own slot,
    and the first T slots are the trace; at depth 1 every step overwrites
    the one slot. Each call overwrites the values of the one before.

    Each step's views into these arrays (`_lstm`) and the arrays of the
    backward through time (`gradients._Workspace`, which depends on these
    buffers alone) are built at their first use and kept, so a training
    run, which keeps one buffers object for all its pairs, builds them
    once, and a one-call buffers object only what it uses. The gates, the
    largest array here and in the backward's, are refused above
    MAX_PARAM_CELLS before anything is allocated.
    """

    steps = backward = None

    def __init__(self, depth: int, N: int, n_l: int):
        _check_cells(depth * 4 * N * n_l, f"the LSTM buffers for {depth} steps of {N} rows", "array")
        self.gates = np.empty((depth, 4, N, n_l))
        self.c, self.tanh_c, self.h = (np.empty((depth, N, n_l)) for _ in range(3))
        self.z = np.empty((N, 4 * n_l))
        self.ig = np.empty((N, n_l))


def _gate_table(params: ModelParams) -> np.ndarray:
    """The input projections with the bias, (4, r, n_l): entry [k, id] is
    gate k's kernel column for item id plus gate k's bias. A step's input is
    its item's one-hot row, so its projection is this table's rows for its id."""
    n_l, r = params.lstm_u.shape[1], params.lstm_w.shape[1]
    table = np.empty((4, r, n_l))
    np.add(params.lstm_w.reshape(4, n_l, r).transpose(0, 2, 1), params.lstm_b.reshape(4, 1, n_l), out=table)
    return table


def _lstm_cell(sig, i, f, o, g, c_prev, c, tanh_c, h, ig):
    """The gate equations of one LSTM step, on gate pre-activations (input
    projection, bias and recurrent product summed) that become the gates in
    place: i, f, o = sigmoid (`sig` views the three), g = tanh, then
    c = f * c_prev + i * g and h = o * tanh(c), written into c, tanh_c and
    h. c may be c_prev itself; ig is scratch."""
    sigmoid(sig, out=sig)
    np.tanh(g, out=g)
    np.multiply(f, c_prev, out=c)
    c += np.multiply(i, g, out=ig)
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _step_views(buffers, k, size, t, j, h_in, c_in):
    """The views of a step that writes slot t of `buffers` on chunks j.. of
    k (the first j retired) and reads the states h_in (k, size, n_l) and
    c_in (k * size, n_l): the gates (4, rows, n_l), the first values of the
    slot, so they are contiguous as at j = 0, their sigmoid block, i, f, o,
    g, the rows of c, tanh_c, h and ig, z as the product's output and as the
    gates hold it, the rows of h_in and c_in, and the rows' first offset."""
    N, n_l = k * size, buffers.ig.shape[1]
    lo = j * size
    gates = buffers.gates[t].reshape(-1)[:4 * (N - lo) * n_l].reshape(4, N - lo, n_l)
    z = buffers.z
    return (gates, gates[:3], *gates, buffers.c[t][lo:], buffers.tanh_c[t][lo:], buffers.h[t][lo:],
            buffers.ig[lo:], z.reshape(k, size, 4 * n_l)[j:], z.reshape(N, 4, n_l).transpose(1, 0, 2)[:, lo:],
            h_in[j:], c_in[lo:], lo)


def _lstm(params, table, ids, lengths, buffers):
    """The LSTM pass over a block of k chunks of `size` rows from zero
    states; returns h at each row's last step, (k, size, n_l).

    `ids` (T, k, size) are the item ids each row reads at each step
    (`_block_inputs`), and `lengths` the lengths of the first rows; the
    rows past them are padding. A step gathers its gates' input rows from
    the `table` by id and makes one stacked (k, size, n_l) @ lstm_u.T
    product (numpy's N=1 call per row at size 1, so a row is bitwise a
    one-row pass; one matrix product per chunk at size 32); the rest is
    elementwise on gate-major gates (4, rows, n_l). A step reads the states
    of the slot before; step 0 reads the last slot, zeroed first. The depth
    of `buffers` (k * size rows) decides the rest. At depth T the inputs
    are gathered once, every row runs all T steps, every step keeps its
    slot (the trace) and each row's last h is read from it. At depth 1
    every step overwrites the one slot and keeps no trace: the rows, sorted
    by length, that end at a step are copied as one slice, and from the
    step after a chunk's last row has ended, that chunk (a prefix of the
    block) is retired, so a step gathers, multiplies and runs the cell on
    the live chunks alone, each still its own product. Where no trace is kept
    (buffers shallower than T), step 0 makes no product: from zero states
    it adds only signed zeros to the gates, which leave h and c bitwise the
    same for finite parameters (sigmoid(-0) = sigmoid(+0) and
    f * 0 + i * tanh(±0) = +0); only g could differ, in a zero's sign, and
    nothing reads it. At T = 1 every row ends at the one step, so a trace of
    depth 1 needs no order.
    """
    T, k, size = ids.shape
    N, n_l = k * size, table.shape[2]
    depth = min(len(buffers.gates), T)
    if buffers.steps is None or buffers.steps[:2] != (k, size):
        # each slot's views, on the states of the slot before, or at depth 1
        # the one slot's, on its own, for each count of retired chunks:
        # built once, they cost a pass's use
        h, c, n_slots = buffers.h.reshape(-1, k, size, n_l), buffers.c, len(buffers.gates)
        slots = [(t, 0) for t in range(n_slots)] if n_slots > 1 else [(0, j) for j in range(k)]
        buffers.steps = (k, size, [_step_views(buffers, k, size, t, j, h[t - 1], c[t - 1]) for t, j in slots])
    views = buffers.steps[2]
    buffers.h[-1], buffers.c[-1] = 0.0, 0.0  # the zero states step 0 reads (no step reads them after)
    # the operand stays the transposed view, so numpy runs each chunk as the
    # GEMM of a lone 2-D chunk product; a C-contiguous copy of lstm_u.T sums
    # in another order (with 32 rows it changed bits at odd n_l from 17, 31
    # among them, under the SkylakeX kernel, and with one row under
    # SkylakeX, Haswell and Nehalem)
    u_t = params.lstm_u.T
    # "clip" writes into out, where "raise" would buffer a copy of it
    ids = ids.reshape(T, N)
    if depth > 1:
        np.take(table, ids, axis=1, out=buffers.gates[:T].transpose(1, 0, 2, 3), mode="clip")
    else:
        done = np.searchsorted(lengths, np.arange(T + 1), side="right").tolist()  # rows ended before step t
        h_last = np.zeros((N, n_l))
    first_product = len(buffers.gates) >= T  # a trace keeps step 0's g, zero signs included
    for t in range(T):
        # at depth 1 the views of the live chunks: the rows ended so far
        # fill whole chunks first, since the rows go by length
        gates, sig, i, f, o, g, c, tanh_c, h, ig, z, z_gm, h_in, c_in, lo = \
            views[t] if depth > 1 else views[done[t] // size]
        if depth == 1:
            np.take(table, ids[t, lo:], axis=1, out=gates, mode="clip")
        if t or first_product:
            np.matmul(h_in, u_t, out=z)
            gates += z_gm
        _lstm_cell(sig, i, f, o, g, c_in, c, tanh_c, h, ig)
        if depth == 1 and done[t + 1] > done[t]:
            h_last[done[t]:done[t + 1]] = h[done[t] - lo:done[t + 1] - lo]
    if depth > 1:
        h_last = buffers.h[lengths - 1, np.arange(N)]
    return h_last.reshape(k, size, n_l)


def _block_inputs(instances, lengths, size):
    """Attributes (k, size, u) and item ids (T, k, size) of the instances of
    one block, taken in order as k chunks of `size` rows, with `lengths`
    their lengths. Padding rows and slots hold zero attributes and item 0."""
    n, T = len(instances), max(lengths.tolist())
    k = -(-n // size)
    attrs = np.zeros((k * size, instances[0].attributes.shape[0]))
    attrs[:n] = [inst.attributes for inst in instances]  # one shape, or ValueError
    ids = np.zeros((T, k * size), dtype=np.int64)
    ids.T[:n][np.arange(T) < lengths[:, None]] = np.concatenate([inst.seq for inst in instances])
    return attrs.reshape(k, size, -1), ids.reshape(T, k, size)


def _traced_lstm(params, ids, lengths, buffers):
    """`_lstm` over R one-row chunks, `ids` (T, R, 1), keeping the trace in
    `buffers` or in new arrays; returns (h_last (R, 1, n_l), trace)."""
    T, R, _ = ids.shape
    n_l = params.lstm_u.shape[1]
    if buffers is None:
        buffers = LstmBuffers(T, R, n_l)
    elif len(buffers.gates) < T or buffers.gates.shape[1:] != (4, R, n_l):
        raise ValueError(
            f"buffers of gate shape {buffers.gates.shape} cannot hold {T} steps "
            f"of {R} sequences of width {n_l}"
        )
    h_last = _lstm(params, _gate_table(params), ids, lengths, buffers)
    trace = (a[:T] for a in (buffers.gates, buffers.c, buffers.tanh_c, buffers.h))
    return h_last, LstmTrace(ids[:, :, 0], *trace, lengths, buffers)


def lstm_forward(params: ModelParams, seq: np.ndarray, true_len: int):
    """Run the sequence branch over the first true_len item ids of seq, as
    one traced row. Returns (h at true_len (n_l,), one-row trace)."""
    if true_len < 1:
        raise ValueError(f"true_len must be >= 1, got {true_len}")
    if true_len > len(seq):
        raise ValueError(f"true_len {true_len} exceeds the {len(seq)} item ids given")
    T = int(true_len)
    h_last, trace = _traced_lstm(params, np.reshape(seq[:T], (T, 1, 1)), np.array([T]), None)
    return h_last[0, 0], trace


def _fuse(params: ModelParams, cfg: ModelConfig, a_m, h_last):
    """Fusion layer over a block; returns (concat, embedding). A disabled
    branch (branch_mode) is zeroed in the fusion input, so the embedding
    shape never changes."""
    ga, gs = branch_gates(cfg.branch_mode)
    concat = np.concatenate([ga * a_m, gs * h_last], axis=-1)
    return concat, activation(cfg.activation)(concat @ params.w_p.T + params.b_p)


def omega_forward(params: ModelParams, cfg: ModelConfig, inst: EncodedInstance):
    """Full encoder pass over one instance, its one-row `rows_forward`;
    returns (embedding (n,), one-row trace)."""
    embedding, trace = rows_forward(params, cfg, (inst,))
    return embedding[0, 0], trace


def rows_forward(params: ModelParams, cfg: ModelConfig, instances, buffers=None):
    """Full encoder pass over R instances as R lockstep rows, each product
    per row, so row k is bitwise the one-row pass of instance k. Returns
    (embeddings (R, 1, n), trace); the LSTM trace goes into `buffers`."""
    lengths = np.array([inst.true_len for inst in instances], dtype=np.int64)
    attrs, ids = _block_inputs(instances, lengths, 1)
    a_m, alphas = fc_forward(params, attrs, cfg.activation)
    h_last, lstm = _traced_lstm(params, ids, lengths, buffers)
    concat, embedding = _fuse(params, cfg, a_m, h_last)
    return embedding, ForwardTrace(alphas, lstm, concat, embedding)


def embed_instances(params: ModelParams, cfg: ModelConfig, instances) -> np.ndarray:
    """Embeddings (N, n) of many instances, row k for instance k.

    The instances go through in a stable order by length, in chunks of
    EMBED_CHUNK rows, EMBED_BLOCK chunks to a block. A block runs as many
    LSTM steps as its longest member, each step one stacked product with a
    matrix product per chunk of rows that have not ended, on buffers of
    depth 1, so it keeps no per-step values: besides the embeddings, only
    one block's arrays are alive at any time (about 1.0 MiB at the default
    widths and t_max = 15; the item ids take 8 B per row and step). The
    buffers are allocated once per call and reused by every block (a
    shorter last block has its own), since fresh arrays can come from the C
    allocator as new pages to fault in. Every chunk has exactly EMBED_CHUNK
    rows, a short last one padded with empty rows, so every chunk runs the
    same product shapes and a row's bits depend only on its instance, never
    on its position or its neighbours. A one-instance call runs one row,
    bitwise `omega_forward`; a batched row can differ from that in the last
    bits, because a matrix product sums in another order than a
    matrix-vector product.
    """
    n_inst = len(instances)
    out = np.empty((n_inst, cfg.n))
    if not n_inst:
        return out
    lengths = np.array([inst.true_len for inst in instances], dtype=np.int64)
    if lengths.min() < 1:
        raise ValueError(f"true_len must be >= 1, got {lengths.min()}")
    order = np.argsort(lengths, kind="stable")
    size = 1 if n_inst == 1 else EMBED_CHUNK
    table, buffers = _gate_table(params), None
    for start in range(0, n_inst, EMBED_BLOCK * size):
        rows = order[start:start + EMBED_BLOCK * size]
        attrs, ids = _block_inputs([instances[k] for k in rows], lengths[rows], size)
        if buffers is None or len(buffers.ig) != len(attrs) * size:
            buffers = LstmBuffers(1, len(attrs) * size, params.lstm_u.shape[1])
        a_m = fc_forward(params, attrs, cfg.activation)[0]
        h_last = _lstm(params, table, ids, lengths[rows], buffers)
        out[rows] = _fuse(params, cfg, a_m, h_last)[1].reshape(-1, cfg.n)[:len(rows)]
    return out
