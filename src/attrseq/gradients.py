"""Contrastive loss, embedding distances, and gradients of the full encoder.

The analytic path is reverse-mode: the pair loss is differentiated through
the fusion layer, the fully connected stack, and the LSTM (backward through
time), with the two siamese sides sharing weights so their contributions sum.
Training's two sides run as the two rows of one trace through one BPTT
loop, every product per row; `backward_pair` runs the same loop once per
side on the two one-row traces of `omega_forward`. Every trace has the
encoder's one layout, and a tensor's contributions are added side by side
either way, so both give the same bits. The backward through time writes
into a workspace (`_Workspace`) kept on the trace's LSTM buffers, so a
training run, which reuses one set of buffers, builds it once; the fusion
and fully connected layers are plain numpy expressions.
`finite_diff_grads` is the independent oracle: central differences around
every scalar parameter, recomputing the whole forward pass each time. The two
must agree to high relative precision wherever the loss is differentiable.
"""

import numpy as np

from .data import AttributedSequence, DatasetMeta, encode
from .kernel import ACTIVATIONS, Rng, activation_grad_from_output
from .encoder import (
    BRANCH_MODES,
    ModelConfig,
    ModelParams,
    branch_gates,
    omega_forward,
    param_shapes,
    rows_forward,
)

DISTANCE_KINDS = ("euclidean", "manhattan")
GRAD_MODES = ("exact", "paper-literal")


def distance(kind: str, p: np.ndarray, q: np.ndarray):
    """Distance over the last axis, broadcasting the others: a float for two
    vectors, else an array ((G, Q) for (1, Q, n) against (G, 1, n)). Each
    euclidean value is one row-by-column matmul, which numpy runs as the BLAS
    dot of the two rows, so no value depends on the rows around it."""
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError(f"distance shape mismatch: {p.shape} vs {q.shape}")
    diff = p - q
    if kind == "euclidean":
        d = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]))[..., 0, 0]
    elif kind == "manhattan":
        d = np.abs(diff).sum(axis=-1)
    else:
        raise ValueError(f"unknown distance kind {kind!r}, expected one of {DISTANCE_KINDS}")
    return float(d) if d.ndim == 0 else d


def contrastive_loss(d: float, ell: int, margin: float) -> float:
    """0.5*ell*max(0, margin-d)^2 + 0.5*(1-ell)*d^2 (ell=1 means dissimilar)."""
    if not d >= 0:  # also rejects nan
        raise ValueError(f"distance must be non-negative, got {d}")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    if ell not in (0, 1):
        raise ValueError(f"similarity label must be 0 or 1, got {ell}")
    hinge = max(0.0, margin - d)
    return 0.5 * ell * hinge * hinge + 0.5 * (1 - ell) * d * d


def dloss_ddistance(d: float, ell: int, margin: float) -> float:
    return -ell * max(0.0, margin - d) + (1 - ell) * d


def distance_grad(kind: str, mode: str, p_i: np.ndarray, p_j: np.ndarray, d: float) -> np.ndarray:
    """d(distance)/d(p_i); the p_j side is the negation.

    exact: the analytic derivative, with the zero-distance euclidean
    subgradient defined as the zero vector and sign(0) = 0 for manhattan.
    paper-literal: the surrogate (p_i - p_j) * (1 - (p_i - p_j)), kept only
    for fidelity experiments; it is not the analytic derivative and is exempt
    from the finite-difference check.
    """
    diff = p_i - p_j
    if mode == "paper-literal":
        return diff * (1.0 - diff)
    if mode != "exact":
        raise ValueError(f"unknown grad mode {mode!r}, expected one of {GRAD_MODES}")
    if kind == "euclidean":
        return diff / d if d > 0 else np.zeros_like(diff)
    if kind == "manhattan":
        return np.sign(diff)
    raise ValueError(f"unknown distance kind {kind!r}")


def backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind, mode="exact", out=None):
    """Loss and gradients of one siamese pair w.r.t. every parameter tensor,
    from the one-row traces of its two sides (`omega_forward`).

    Both sides share weights, so their gradient contributions accumulate into
    one gradient container with the layout of params: `out` when given (it
    is zeroed first, so a training loop can reuse one store for every pair),
    else a fresh `ModelParams`. Returns (loss, that container).
    """
    _check_trace(params, trace_i)
    _check_trace(params, trace_j)
    grads = ModelParams(params.shapes) if out is None else out
    if grads.shapes != params.shapes:
        raise ValueError(f"gradient store layout {out.shapes} does not match params {params.shapes}")
    loss, _ = _backward(params, cfg, (trace_i, trace_j), ell, margin, kind, mode, grads)
    return loss, grads


def backward_rows(params, cfg, rows, ell, margin, kind, mode, grads):
    """Loss and distance of the pair whose two sides are the rows of
    `rows` (a `rows_forward` trace), and its gradients written into the
    store `grads`, zeroed first. Returns (loss, distance)."""
    return _backward(params, cfg, (rows,), ell, margin, kind, mode, grads)


def _backward(params, cfg, traces, ell, margin, kind, mode, grads):
    """`backward_rows` of the pair whose two sides are the rows of
    `traces`, in order: one two-row trace or two one-row traces. A tensor's
    contributions are added side by side either way, so both give the same
    bits."""
    p_i, p_j = [p for trace in traces for p in trace.embedding[:, 0]]
    d = distance(kind, p_i, p_j)
    loss = contrastive_loss(d, ell, margin)
    scale = dloss_ddistance(d, ell, margin)
    direction = distance_grad(kind, mode, p_i, p_j, d)
    grads.flat.fill(0.0)
    if scale != 0.0:
        dp = np.multiply.outer([scale, -scale], direction).reshape(len(traces), -1, len(direction))
        for trace, dp_rows in zip(traces, dp):
            _encoder_grads(params, cfg, trace, dp_rows, grads)
    return loss, d


def _check_trace(params, trace):
    if len(trace.alphas) - 1 != len(params.fc_w):
        raise ValueError(
            f"trace has {len(trace.alphas) - 1} fully connected activations, "
            f"params have {len(params.fc_w)} layers"
        )
    if trace.embedding.shape != (1, 1, *params.b_p.shape):
        raise ValueError(
            f"trace embedding shape {trace.embedding.shape} is not one row of "
            f"fusion bias shape {params.b_p.shape}"
        )


class _Workspace:
    """The arrays the backward through time over R rows of LSTM buffers of
    depth D writes, and each step's views into them and into the buffers;
    kept on the buffers (`buffers.backward`)."""

    def __init__(self, buffers):
        D, _, R, n_l = buffers.gates.shape
        self.state = np.empty((3, R, n_l))  # dh, dc and c_prev at t=0, zeroed by each backward
        self.dh, self.dc, self.c_0 = self.state
        self.scratch = np.empty((5, R, n_l))  # [dh*o, dc*g, dc*c_prev, dh*tanh(c), dc*i]
        self.dtanh_c = np.empty((D, R, n_l))
        self.gate_factors = np.empty((D, 4, R, n_l))
        # d(loss)/d(gate pre-activations), a (D, 4*n_l) block per row
        self.da = np.empty((R, D, 4 * n_l))
        self.h_prev = np.empty((R, D, n_l))
        g = buffers.gates
        da_gm = self.da.reshape(R, D, 4, n_l).transpose(1, 2, 0, 3)
        c_prev = [self.c_0, *buffers.c[:-1]]  # cell states one step back
        self.steps = list(zip(*g.transpose(1, 0, 2, 3), g[:, :3], c_prev, buffers.tanh_c,
                              self.dtanh_c, self.gate_factors, da_gm,
                              self.da.transpose(1, 0, 2)[..., None]))


def _encoder_grads(params, cfg, rows, dp, grads):
    """Backpropagate each row's d(loss)/d(embedding), dp (R, n), through the
    rows' encoder pass; the LSTM part runs in the workspace kept on the
    trace's buffers. Every product is the row's own, on (R, d, 1) columns,
    and a tensor's contributions are added in row order, so each row's
    gradient is bitwise a one-instance pass."""
    ga, gs = branch_gates(cfg.branch_mode)
    n_m, lt = rows.alphas[-1].shape[-1], rows.lstm
    if lt.buffers.backward is None:
        lt.buffers.backward = _Workspace(lt.buffers)
    ws, T = lt.buffers.backward, len(lt.c)

    # the fusion layer, then the fully connected stack top down; each layer's
    # outer products are one broadcast multiply, bitwise np.outer
    layers = [(params.w_p, grads.w_p, grads.b_p, rows.concat, rows.embedding)]
    layers += [(params.fc_w[k], grads.fc_w[k], grads.fc_b[k], rows.alphas[k], rows.alphas[k + 1])
               for k in range(len(params.fc_w) - 1, -1, -1)]
    d_out = dp[:, :, None]
    for k, (w, grad_w, grad_b, a_in, a_out) in enumerate(layers):
        delta = d_out * activation_grad_from_output(cfg.activation, a_out.transpose(0, 2, 1))
        for delta_w, delta_b in zip(delta * a_in, delta[:, :, 0]):  # row by row
            grad_w += delta_w
            grad_b += delta_b
        if k + 1 < len(layers):  # no gradient for the attribute input
            d_out = w.T @ delta
        if k == 0:  # the fusion input splits into the two branches
            d_out, dh_in = ga * d_out[:, :n_m], gs * d_out[:, n_m:, 0]

    # LSTM, backward through time (a disabled sequence branch leaves zeros)
    if gs == 0.0:
        return
    # the step-independent factors, for all steps at once
    gate_factors = ws.gate_factors[:T]
    dtanh_c = np.square(lt.tanh_c, out=ws.dtanh_c[:T])
    np.subtract(1.0, dtanh_c, out=dtanh_c)
    np.subtract(1.0, lt.gates[:, :3], out=gate_factors[:, :3])
    np.square(lt.gates[:, 3], out=gate_factors[:, 3])
    np.subtract(1.0, gate_factors[:, 3], out=gate_factors[:, 3])
    u_t = params.lstm_u.T
    dh, dc, scratch = ws.dh, ws.dc, ws.scratch
    ws.state.fill(0.0)
    dh_col = dh[:, :, None]
    dhc, prods, prods_sig = scratch[0], scratch[1:], scratch[1:4]
    prods_i, prods_f, prods_o, prods_g = prods
    lengths = lt.lengths.tolist()
    # a row joins at its own last step; before, its dh and dc are zero, so
    # its padded steps add nothing. Every product is formed in the order of
    # dc += dh*o*(1-tanh(c)^2), da[:3n_l] = [dc*g, dc*c_prev, dh*tanh(c)] *
    # sig * (1-sig), da[3n_l:] = dc*i*(1-g^2), dh = U^T da, dc *= f; one
    # call multiplies the four gates' blocks by their factors, and the last
    # step skips dh and dc, which nothing reads
    for t, (i_t, f_t, o_t, g_t, sig_t, cp_t, tc_t, dtc_t, gate_f, da_t, da_col) in zip(
            range(T - 1, -1, -1), reversed(ws.steps[:T])):
        if t + 1 in lengths:
            for r, length in enumerate(lengths):
                if length == t + 1:
                    dh[r] = dh_in[r]
                    dc[r] = 0.0
        np.multiply(dh, o_t, out=dhc)
        dhc *= dtc_t
        dc += dhc
        np.multiply(dc, g_t, out=prods_i)
        np.multiply(dc, cp_t, out=prods_f)
        np.multiply(dh, tc_t, out=prods_o)
        np.multiply(dc, i_t, out=prods_g)
        prods_sig *= sig_t
        np.multiply(prods, gate_f, out=da_t)
        if t:
            np.matmul(u_t, da_col, out=dh_col)
            dc *= f_t
    h_prev = ws.h_prev[:, :T]  # states shifted one step, zero at t=0
    h_prev[:, 0] = 0.0
    np.copyto(h_prev[:, 1:], lt.h[:-1].transpose(1, 0, 2))
    items = np.arange(params.lstm_w.shape[1])
    for r, length in enumerate(lengths):
        da_r = ws.da[r, :length]
        # the sequence's one-hot rows, for a dense product: at small
        # alphabets it is faster than a scatter-add of da's rows by item id
        x = np.equal(lt.x[:length, r, None], items).astype(np.float64)
        grads.lstm_w += da_r.T @ x
        grads.lstm_u += da_r.T @ h_prev[r, :length]
        grads.lstm_b += da_r.sum(axis=0)


def pair_loss(params, cfg, inst_i, inst_j, ell, margin, kind) -> float:
    """Forward-only pair loss; the quantity the oracle differentiates."""
    p_i, _ = omega_forward(params, cfg, inst_i)
    p_j, _ = omega_forward(params, cfg, inst_j)
    return contrastive_loss(distance(kind, p_i, p_j), ell, margin)


def finite_diff_grads(params, cfg, inst_i, inst_j, ell, margin, kind, step=1e-5) -> dict:
    """Central-difference gradients around every scalar parameter.

    Independent of the reverse-mode path: each probe reruns the full forward
    pass with one coordinate of ``params.flat`` displaced by +-step. Returns
    a gradient container with the layout of params.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    grads = ModelParams(params.shapes)
    flat = params.flat
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        lp = pair_loss(params, cfg, inst_i, inst_j, ell, margin, kind)
        flat[idx] = orig - step
        lm = pair_loss(params, cfg, inst_i, inst_j, ell, margin, kind)
        flat[idx] = orig
        grads.flat[idx] = (lp - lm) / (2.0 * step)
    return grads


def grad_discrepancy(analytic: dict, numeric: dict, floor=1e-8):
    """Worst relative error between two gradient containers.

    Returns (max_rel_err, tensor_name, flat_index, analytic_value,
    numeric_value) with rel err = |a - b| / max(floor, |a| + |b|).
    """
    worst = (0.0, None, -1, 0.0, 0.0)
    for name in analytic:
        a = analytic[name].reshape(-1)
        b = numeric[name].reshape(-1)
        denom = np.maximum(floor, np.abs(a) + np.abs(b))
        rel = np.abs(a - b) / denom
        idx = int(np.argmax(rel))
        if rel[idx] > worst[0]:
            worst = (float(rel[idx]), name, idx, float(a[idx]), float(b[idx]))
    return worst


def resolvable_gradient(loss, step, tolerance):
    """Smallest gradient magnitude that central differences around a pair
    loss measure to relative precision `tolerance`.

    Rounding perturbs each loss evaluation by about eps * (|L| + |dL/dd|),
    where |dL/dd| = sqrt(2L) for either label (L is half the square of d or
    of margin - d). A central difference divides the difference of two such
    errors by 2 * step. Over random gradcheck trials the observed error of
    near-zero gradients stayed within that estimate; the factor 10 is the
    safety margin. Never below the fixed 1e-8 floor.
    """
    noise = np.finfo(np.float64).eps * (abs(loss) + np.sqrt(2.0 * abs(loss))) / step
    return max(1e-8, 10.0 * noise / tolerance)


def gradcheck_suite(trials=20, seed=0, mode="exact", step=1e-5, tolerance=1e-4):
    """Randomized small-model agreement suite between reverse mode and the
    finite-difference oracle.

    Each trial draws a tiny random configuration, randomizes every tensor,
    and compares the two gradient routes; the analytic one is `train`'s,
    `rows_forward` and `backward_rows`. The trials cycle through both
    distance kinds, both similarity labels, both activations and every
    branch mode, so every gradient route that ships is checked. Pairs are
    redrawn when the loss sits too close to a hinge kink or an
    absolute-value kink, where a derivative comparison is meaningless.
    Relative errors are floored at the gradient magnitude the central
    differences can resolve (`resolvable_gradient`), so round-off in a
    near-zero gradient is not read as a mismatch. paper-literal mode is
    exempt: its discrepancy is reported for information and `passed` only
    reflects finiteness.

    Returns a dict with per-trial records, the overall worst coordinate, and
    a `passed` flag.
    """
    if mode not in GRAD_MODES:
        raise ValueError(f"unknown grad mode {mode!r}")
    if not 0 < step < np.inf:
        raise ValueError(f"step must be a finite positive number, got {step}")
    root = Rng(seed)
    results = []
    worst = (0.0, None, -1, 0.0, 0.0)
    all_finite = True
    for k in range(trials):
        trial_rng = root.child(f"trial{k}")
        gen = trial_rng.gen
        cfg = ModelConfig(
            m=int(gen.integers(1, 4)),
            n_m=int(gen.integers(2, 7)),
            n_l=int(gen.integers(2, 7)),
            n=int(gen.integers(2, 7)),
            activation=list(ACTIVATIONS)[(k // 4) % len(ACTIVATIONS)],
            branch_mode=BRANCH_MODES[(k // 8) % 3],
        )
        meta = DatasetMeta(
            u=int(gen.integers(2, 6)),
            r=int(gen.integers(2, 7)),
            t_max=int(gen.integers(2, 7)),
            class_ids=frozenset(),
        )
        kind = DISTANCE_KINDS[k % 2]
        ell = (k // 2) % 2
        params = ModelParams(param_shapes(cfg, meta))
        params.flat[...] = gen.uniform(-0.9, 0.9, size=params.flat.size)
        margin = float(gen.uniform(0.5, 1.5))

        for _ in range(10):  # one pass per draw serves the kink check and the gradient
            inst_i = _random_instance(gen, meta)
            inst_j = _random_instance(gen, meta)
            embeddings, rows = rows_forward(params, cfg, (inst_i, inst_j))
            p_i, p_j = embeddings[:, 0]
            d = distance(kind, p_i, p_j)
            if _kink_safe(kind, ell, p_i, p_j, d, margin, step):
                break
        analytic = ModelParams(params.shapes)
        loss, _ = backward_rows(params, cfg, rows, ell, margin, kind, mode, analytic)
        all_finite = all_finite and bool(np.isfinite(analytic.flat).all())
        numeric = finite_diff_grads(params, cfg, inst_i, inst_j, ell, margin, kind, step)
        err = grad_discrepancy(analytic, numeric, resolvable_gradient(loss, step, tolerance))
        if err[0] > worst[0]:
            worst = err
        results.append({"trial": k, "kind": kind, "ell": ell, "activation": cfg.activation,
                        "branch_mode": cfg.branch_mode, "max_rel_err": err[0]})
    exempt = mode == "paper-literal"
    passed = all_finite if exempt else worst[0] < tolerance
    return {
        "mode": mode,
        "trials": results,
        "max_rel_err": worst[0],
        "worst": {"tensor": worst[1], "index": worst[2], "analytic": worst[3], "numeric": worst[4]},
        "tolerance": tolerance,
        "exempt": exempt,
        "passed": passed,
    }


def _random_instance(gen, meta):
    length = int(gen.integers(1, meta.t_max + 1))
    items = [int(gen.integers(meta.r)) for _ in range(length)]
    attrs = gen.uniform(-1.0, 1.0, size=meta.u)
    return encode(AttributedSequence(attrs, items, None), meta)


def _kink_safe(kind, ell, p_i, p_j, d, margin, step):
    """True when the loss is differentiable in a comfortable neighborhood."""
    if ell == 1 and abs(d - margin) < 1e-3:
        return False
    if kind == "euclidean" and d < 1e-6:
        return False
    if kind == "manhattan" and np.min(np.abs(p_i - p_j)) < 50 * step:
        return False
    return True
