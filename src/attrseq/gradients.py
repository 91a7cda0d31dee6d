"""Contrastive loss, embedding distances, and gradients of the full encoder.

The analytic path is reverse-mode: the pair loss is differentiated through
the fusion layer, the fully connected stack, and the LSTM (backward through
time), with the two siamese sides sharing weights so their contributions sum.
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
    init_params,
    omega_forward,
)

DISTANCE_KINDS = ("euclidean", "manhattan")
GRAD_MODES = ("exact", "paper-literal")


def distance(kind: str, p: np.ndarray, q: np.ndarray):
    """Distance over the last axis, broadcasting the others: a float for two
    vectors, else an array ((Q, G) for (Q, 1, n) against (1, G, n)). Each
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
    """Loss and gradients of one siamese pair w.r.t. every parameter tensor.

    Both sides share weights, so their gradient contributions accumulate into
    one gradient container with the layout of params: `out` when given (it
    is zeroed first, so a training loop can reuse one store for every pair),
    else a fresh `ModelParams`. Returns (loss, that container).
    """
    _check_trace(params, trace_i)
    _check_trace(params, trace_j)
    p_i, p_j = trace_i.embedding, trace_j.embedding
    d = distance(kind, p_i, p_j)
    loss = contrastive_loss(d, ell, margin)
    scale = dloss_ddistance(d, ell, margin)
    direction = distance_grad(kind, mode, p_i, p_j, d)
    if out is None:
        grads = ModelParams(params.shapes)
    elif out.shapes != params.shapes:
        raise ValueError(f"gradient store layout {out.shapes} does not match params {params.shapes}")
    else:
        grads = out
        grads.flat.fill(0.0)
    if scale != 0.0:
        _accumulate_encoder_grads(params, cfg, trace_i, scale * direction, grads)
        _accumulate_encoder_grads(params, cfg, trace_j, -scale * direction, grads)
    return loss, grads


def _check_trace(params, trace):
    if len(trace.alphas) - 1 != len(params.fc_w):
        raise ValueError(
            f"trace has {len(trace.alphas) - 1} fully connected activations, "
            f"params have {len(params.fc_w)} layers"
        )
    if trace.embedding.shape != params.b_p.shape:
        raise ValueError(
            f"trace embedding shape {trace.embedding.shape} does not match "
            f"fusion bias shape {params.b_p.shape}"
        )


def _accumulate_encoder_grads(params, cfg, trace, dp, grads):
    """Backpropagate d(loss)/d(embedding) through one encoder pass."""
    act = cfg.activation
    ga, gs = branch_gates(cfg.branch_mode)

    # fusion layer
    delta = dp * activation_grad_from_output(act, trace.embedding)
    grads.w_p += np.outer(delta, trace.concat)
    grads.b_p += delta
    dq = params.w_p.T @ delta
    n_m = trace.alphas[-1].shape[0]
    d_alpha = ga * dq[:n_m]
    dh = gs * dq[n_m:]

    # fully connected stack
    for k in range(len(params.fc_w) - 1, -1, -1):
        delta_k = d_alpha * activation_grad_from_output(act, trace.alphas[k + 1])
        grads.fc_w[k] += np.outer(delta_k, trace.alphas[k])
        grads.fc_b[k] += delta_k
        if k > 0:
            d_alpha = params.fc_w[k].T @ delta_k

    # LSTM, backward through time (a disabled sequence branch leaves zeros)
    if gs == 0.0:
        return
    lt = trace.lstm
    T = lt.x.shape[0]
    n_l = params.b_i.shape[0]
    s3 = 3 * n_l
    h_prev = np.zeros_like(lt.h)  # states shifted one step, zero at t=0
    h_prev[1:] = lt.h[:-1]
    c_prev = np.zeros_like(lt.c)
    c_prev[1:] = lt.c[:-1]
    sig = lt.gates[:, :s3]  # i, f, o
    i, f, o, g = (lt.gates[:, k * n_l:(k + 1) * n_l] for k in range(4))
    # the step-independent factors, for all steps at once
    dtanh_c = 1.0 - lt.tanh_c ** 2
    dsig = 1.0 - sig
    dg = 1.0 - g ** 2
    da = np.empty((T, 4 * n_l))  # d(loss)/d(gate pre-activations), gates stacked
    u_t = params.lstm_u.T
    dh_vec = dh
    dc_vec = np.zeros(n_l)
    tmp = np.empty(n_l)
    # every product is formed in the order of dc += dh*o*(1-tanh(c)^2),
    # da[:3n_l] = [dc*g, dc*c_prev, dh*tanh(c)] * sig * (1-sig),
    # da[3n_l:] = dc*i*(1-g^2), dh = U^T da, dc *= f; nothing is allocated per step
    for t in range(T - 1, -1, -1):
        da_t = da[t]
        da_sig, da_g = da_t[:s3], da_t[s3:]
        np.multiply(dh_vec, o[t], out=tmp)
        tmp *= dtanh_c[t]
        dc_vec += tmp
        np.multiply(dc_vec, g[t], out=da_t[:n_l])
        np.multiply(dc_vec, c_prev[t], out=da_t[n_l:2 * n_l])
        np.multiply(dh_vec, lt.tanh_c[t], out=da_t[2 * n_l:s3])
        da_sig *= sig[t]
        da_sig *= dsig[t]
        np.multiply(dc_vec, i[t], out=da_g)
        da_g *= dg[t]
        np.matmul(u_t, da_t, out=dh_vec)
        dc_vec *= f[t]
    # the sequence's one-hot rows, for a dense product: at small alphabets it
    # is faster than a scatter-add of da's rows by item id
    x = np.zeros((T, params.lstm_w.shape[1]))
    x[np.arange(T), lt.x] = 1.0
    grads.lstm_w += da.T @ x
    grads.lstm_u += da.T @ h_prev
    grads.lstm_b += da.sum(axis=0)


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
    and compares the two gradient routes. The trials cycle through both
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
        params = init_params(cfg, meta, trial_rng.child("params"))
        params.flat[...] = gen.uniform(-0.9, 0.9, size=params.flat.size)
        margin = float(gen.uniform(0.5, 1.5))

        inst_i = inst_j = None
        for _ in range(10):
            inst_i = _random_instance(gen, meta)
            inst_j = _random_instance(gen, meta)
            p_i, _ = omega_forward(params, cfg, inst_i)
            p_j, _ = omega_forward(params, cfg, inst_j)
            d = distance(kind, p_i, p_j)
            if _kink_safe(kind, ell, p_i, p_j, d, margin, step):
                break
        _, trace_i = omega_forward(params, cfg, inst_i)
        _, trace_j = omega_forward(params, cfg, inst_j)
        loss, analytic = backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind, mode)
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
