import math

import numpy as np
import pytest

from attrseq.data import AttributedSequence, DatasetMeta, Triplet, encode
from attrseq import gradients
from attrseq.encoder import (
    BRANCH_MODES,
    ModelConfig,
    ModelParams,
    branch_gates,
    init_params,
    omega_forward,
)
from attrseq.gradients import (
    DISTANCE_KINDS,
    backward_pair,
    contrastive_loss,
    distance,
    distance_grad,
    dloss_ddistance,
    finite_diff_grads,
    grad_discrepancy,
    gradcheck_suite,
    pair_loss,
)
from attrseq.kernel import Rng, activation, activation_grad_from_output
from attrseq.training import TrainConfig, train

from test_encoder import random_instance, random_params, tiny_cfg, tiny_meta


class TestDistance:
    def test_point_values(self):
        assert distance("euclidean", np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0
        assert distance("manhattan", np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 2.0

    def test_identity(self):
        p = np.array([0.3, -0.7, 0.2])
        assert distance("euclidean", p, p) == 0.0
        assert distance("manhattan", p, p) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance("euclidean", np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="unknown distance"):
            distance("chebyshev", np.zeros(2), np.zeros(2))


class TestLossAlgebra:
    def test_similar_identical_pair(self):
        assert contrastive_loss(0.0, 0, 1.0) == 0.0

    def test_hinge_exactly_clipped(self):
        assert contrastive_loss(1.0, 1, 1.0) == 0.0

    def test_dissimilar_at_zero_distance(self):
        assert abs(contrastive_loss(0.0, 1, 1.0) - 0.5) < 1e-12

    def test_general_values(self):
        assert abs(contrastive_loss(0.4, 0, 1.0) - 0.08) < 1e-12
        assert abs(contrastive_loss(0.4, 1, 1.0) - 0.18) < 1e-12

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="non-negative"):
            contrastive_loss(-0.1, 0, 1.0)

    def test_dloss_values(self):
        assert abs(dloss_ddistance(0.4, 1, 1.0) - (-0.6)) < 1e-12
        assert abs(dloss_ddistance(0.4, 0, 1.0) - 0.4) < 1e-12
        assert dloss_ddistance(1.0, 1, 1.0) == 0.0
        assert dloss_ddistance(2.5, 1, 1.0) == 0.0


class TestDistanceGrad:
    def test_euclidean_direction(self):
        p = np.array([1.0, 1.0])
        q = np.array([0.0, 1.0])
        assert np.allclose(distance_grad("euclidean", "exact", p, q, 1.0), [1.0, 0.0])

    def test_euclidean_zero_distance_subgradient(self):
        p = np.array([0.5, 0.5])
        assert not distance_grad("euclidean", "exact", p, p, 0.0).any()

    def test_manhattan_sign_with_zero(self):
        p = np.array([1.0, -2.0, 0.3])
        q = np.array([0.0, 1.0, 0.3])
        assert np.array_equal(distance_grad("manhattan", "exact", p, q, 4.3), [1.0, -1.0, 0.0])

    def test_surrogate_form(self):
        p = np.array([0.5, -0.5])
        q = np.array([0.0, 0.0])
        out = distance_grad("euclidean", "paper-literal", p, q, 0.0)
        assert np.allclose(out, [0.5 * 0.5, -0.5 * 1.5])


def _pair(cfg, meta, seed):
    params = random_params(cfg, meta, seed=seed)
    inst_i = random_instance(meta, seed=seed + 100)
    inst_j = random_instance(meta, seed=seed + 200)
    _, trace_i = omega_forward(params, cfg, inst_i)
    _, trace_j = omega_forward(params, cfg, inst_j)
    return params, inst_i, inst_j, trace_i, trace_j


class TestBackwardPair:
    def test_clipped_hinge_zero_gradients(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        for seed in range(10):
            kind = ("euclidean", "manhattan")[seed % 2]
            params, _, _, trace_i, trace_j = _pair(cfg, meta, seed)
            d = distance(kind, trace_i.embedding, trace_j.embedding)
            loss, grads = backward_pair(params, cfg, trace_i, trace_j, 1, d * 0.5, kind)
            assert loss == 0.0
            for name, g in grads.items():
                assert not g.any(), (seed, name)

    def test_identical_similar_pair_zero_gradients(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta, seed=2)
        inst = random_instance(meta, seed=3)
        _, trace = omega_forward(params, cfg, inst)
        loss, grads = backward_pair(params, cfg, trace, trace, 0, 1.0, "euclidean")
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_zero_distance_dissimilar_pair_skips_update(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta, seed=2)
        inst = random_instance(meta, seed=3)
        _, trace = omega_forward(params, cfg, inst)
        loss, grads = backward_pair(params, cfg, trace, trace, 1, 1.0, "euclidean")
        assert abs(loss - 0.5) < 1e-12
        assert all(not g.any() for g in grads.values())

    def test_pair_symmetry(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        for seed, kind, ell in ((3, "euclidean", 0), (4, "manhattan", 1), (5, "euclidean", 1)):
            params, _, _, trace_i, trace_j = _pair(cfg, meta, seed)
            margin = 5.0 if ell else 1.0  # keep the hinge active
            l1, g1 = backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind)
            l2, g2 = backward_pair(params, cfg, trace_j, trace_i, ell, margin, kind)
            assert l1 == pytest.approx(l2, rel=1e-15)
            for name in g1:
                assert np.allclose(g1[name], g2[name], atol=1e-15), name

    def test_trace_params_mismatch_rejected(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params, _, _, trace_i, trace_j = _pair(cfg, meta, 1)
        other = random_params(tiny_cfg(m=3), meta, seed=9)
        with pytest.raises(ValueError, match="layers"):
            backward_pair(other, cfg, trace_i, trace_j, 0, 1.0, "euclidean")

    @pytest.mark.parametrize("hinge", ["active", "clipped"])
    def test_fills_a_given_store(self, hinge):
        cfg, meta = tiny_cfg(), tiny_meta()
        params, _, _, trace_i, trace_j = _pair(cfg, meta, 8)
        d = distance("euclidean", trace_i.embedding, trace_j.embedding)
        margin = d + 1.0 if hinge == "active" else d / 2
        loss, fresh = backward_pair(params, cfg, trace_i, trace_j, 1, margin, "euclidean")
        store = ModelParams(params.shapes)
        store.flat[...] = np.random.default_rng(0).normal(size=store.flat.size)
        store.flat[::7] = np.nan
        loss2, got = backward_pair(params, cfg, trace_i, trace_j, 1, margin, "euclidean",
                                   out=store)
        assert got is store
        assert loss2 == loss
        assert np.array_equal(store.flat.view(np.uint64), fresh.flat.view(np.uint64))
        assert store.flat.any() == (hinge == "active")

    def test_rejects_a_store_of_another_layout(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params, _, _, trace_i, trace_j = _pair(cfg, meta, 8)
        other = ModelParams(random_params(tiny_cfg(n_l=5), meta).shapes)
        with pytest.raises(ValueError, match="gradient store layout"):
            backward_pair(params, cfg, trace_i, trace_j, 0, 1.0, "euclidean", out=other)

    def test_surrogate_mode_finite_and_shaped(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params, _, _, trace_i, trace_j = _pair(cfg, meta, 6)
        _, grads = backward_pair(params, cfg, trace_i, trace_j, 0, 1.0, "euclidean",
                                 mode="paper-literal")
        ref = params.tensors()
        for name, g in grads.items():
            assert g.shape == ref[name].shape
            assert np.all(np.isfinite(g))


class TestHandDerivative:
    def test_scalar_model_full_chain(self):
        """Every tensor of a 1-unit model against a symbolic hand derivation."""
        meta = tiny_meta(u=1, r=2, t_max=1)
        cfg = tiny_cfg(m=1, n_m=1, n_l=1, n=1)
        params = init_params(cfg, meta, Rng(0))
        w1, b1 = 0.7, 0.1
        wi0, wi1, bi = 0.3, -0.2, 0.05
        wf0, wf1, bf = -0.4, 0.3, 0.0
        wo0, wo1, bo = 0.6, 0.1, -0.1
        wc0, wc1, bc = 0.2, -0.5, 0.2
        wpa, wph, bp = 0.8, -0.6, 0.15
        params.fc_w[0][...] = w1
        params.fc_b[0][...] = b1
        params.w_i[...] = [[wi0, wi1]]
        params.w_f[...] = [[wf0, wf1]]
        params.w_o[...] = [[wo0, wo1]]
        params.w_c[...] = [[wc0, wc1]]
        params.b_i[...] = bi
        params.b_f[...] = bf
        params.b_o[...] = bo
        params.b_c[...] = bc
        params.w_p[...] = [[wpa, wph]]
        params.b_p[...] = bp

        v_i, v_j = 0.4, -0.3
        item_i, item_j = 0, 1
        inst_i = encode(AttributedSequence(np.array([v_i]), [item_i], None), meta)
        inst_j = encode(AttributedSequence(np.array([v_j]), [item_j], None), meta)

        sig = lambda z: 1.0 / (1.0 + math.exp(-z))

        def side(v, item):
            a = math.tanh(w1 * v + b1)
            x0, x1 = (1.0, 0.0) if item == 0 else (0.0, 1.0)
            i = sig(wi0 * x0 + wi1 * x1 + bi)
            f = sig(wf0 * x0 + wf1 * x1 + bf)
            o = sig(wo0 * x0 + wo1 * x1 + bo)
            g = math.tanh(wc0 * x0 + wc1 * x1 + bc)
            c = i * g  # c_prev = 0 on the first step
            h = o * math.tanh(c)
            p = math.tanh(wpa * a + wph * h + bp)
            # symbolic partials of p w.r.t. each scalar parameter
            dp = 1.0 - p * p
            da = 1.0 - a * a
            dtc = 1.0 - math.tanh(c) ** 2
            parts = {
                "fc0_w": dp * wpa * da * v,
                "fc0_b": dp * wpa * da,
                "w_i": np.array([x0, x1]) * (dp * wph * o * dtc * g * i * (1 - i)),
                "w_f": np.array([x0, x1]) * 0.0,  # c_prev = 0 kills the forget path
                "w_o": np.array([x0, x1]) * (dp * wph * math.tanh(c) * o * (1 - o)),
                "w_c": np.array([x0, x1]) * (dp * wph * o * dtc * i * (1 - g * g)),
                "b_i": dp * wph * o * dtc * g * i * (1 - i),
                "b_f": 0.0,
                "b_o": dp * wph * math.tanh(c) * o * (1 - o),
                "b_c": dp * wph * o * dtc * i * (1 - g * g),
                "w_p": np.array([dp * a, dp * h]),
                "b_p": dp,
            }
            return p, parts

        p_i, parts_i = side(v_i, item_i)
        p_j, parts_j = side(v_j, item_j)
        diff = p_i - p_j
        # similar pair: dL/dp_i = d * (p_i - p_j)/d = diff, dL/dp_j = -diff
        expected = {
            name: diff * np.asarray(parts_i[name]) - diff * np.asarray(parts_j[name])
            for name in parts_i
        }

        _, trace_i = omega_forward(params, cfg, inst_i)
        _, trace_j = omega_forward(params, cfg, inst_j)
        loss, grads = backward_pair(params, cfg, trace_i, trace_j, 0, 1.0, "euclidean")
        assert loss == pytest.approx(0.5 * diff * diff, rel=1e-14)
        for name, want in expected.items():
            got = grads[name].reshape(np.shape(want)) if np.shape(want) else grads[name].item()
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15), name
        # recurrent tensors see no gradient on a single-step sequence
        for name in ("u_i", "u_f", "u_o", "u_c"):
            assert not grads[name].any()


class TestFiniteDifferenceOracle:
    def test_zero_model_identical_instances(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta, seed=0)
        for t in params.tensors().values():
            t[...] = 0.0
        inst = random_instance(meta, seed=1)
        grads = finite_diff_grads(params, cfg, inst, inst, 0, 1.0, "euclidean")
        assert all(not g.any() for g in grads.values())

    def test_step_must_be_positive(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params, inst_i, inst_j, _, _ = _pair(cfg, meta, 1)
        with pytest.raises(ValueError, match="step"):
            finite_diff_grads(params, cfg, inst_i, inst_j, 0, 1.0, "euclidean", step=0.0)

    def test_agrees_with_reverse_mode(self):
        cfg = tiny_cfg(m=2, n_m=3, n_l=3, n=3)
        meta = tiny_meta(u=3, r=4, t_max=4)
        for seed in range(6):
            kind = ("euclidean", "manhattan")[seed % 2]
            ell = (seed // 2) % 2
            params, inst_i, inst_j, trace_i, trace_j = _pair(cfg, meta, 40 + seed)
            d = distance(kind, trace_i.embedding, trace_j.embedding)
            margin = d + 0.4  # keep hinge active and away from the kink
            _, analytic = backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind)
            numeric = finite_diff_grads(params, cfg, inst_i, inst_j, ell, margin, kind)
            err = grad_discrepancy(analytic, numeric)
            assert err[0] < 1e-4, (seed, err)

    def test_relu_activation_agrees(self):
        cfg = tiny_cfg(m=2, n_m=3, n_l=3, n=3, activation="relu")
        meta = tiny_meta(u=3, r=3, t_max=3)
        params, inst_i, inst_j, trace_i, trace_j = _pair(cfg, meta, 77)
        _, analytic = backward_pair(params, cfg, trace_i, trace_j, 0, 1.0, "euclidean")
        numeric = finite_diff_grads(params, cfg, inst_i, inst_j, 0, 1.0, "euclidean")
        assert grad_discrepancy(analytic, numeric)[0] < 1e-4

    def test_branch_ablation_agrees_and_zeroes_disabled_branch(self):
        meta = tiny_meta(u=3, r=3, t_max=3)
        for mode, dead in (("attributes_only", "w_i"), ("sequence_only", "fc0_w")):
            cfg = tiny_cfg(m=1, n_m=3, n_l=3, n=3, branch_mode=mode)
            params, inst_i, inst_j, trace_i, trace_j = _pair(cfg, meta, 88)
            _, analytic = backward_pair(params, cfg, trace_i, trace_j, 0, 1.0, "euclidean")
            numeric = finite_diff_grads(params, cfg, inst_i, inst_j, 0, 1.0, "euclidean")
            assert grad_discrepancy(analytic, numeric)[0] < 1e-4
            assert not analytic[dead].any()


def test_gradcheck_suite_reports():
    suite = gradcheck_suite(trials=4, seed=123)
    assert suite["passed"]
    assert suite["max_rel_err"] < 1e-4
    assert len(suite["trials"]) == 4
    assert {t["kind"] for t in suite["trials"]} == {"euclidean", "manhattan"}
    assert {t["ell"] for t in suite["trials"]} == {0, 1}


# Trials 4 and 7 of this seed (relu) have an analytic fc0_b gradient of
# exactly 0 that central differences read as about 1e-11: a round-off gap,
# not a gradient defect.
ROUNDOFF_SEED = 11114635213193769522


def test_gradcheck_suite_passes_round_off_limited_gradient(monkeypatch):
    suite = gradcheck_suite(trials=10, seed=ROUNDOFF_SEED)
    assert suite["passed"], suite["worst"]
    # the suite does hold a round-off-limited trial: at the fixed 1e-8
    # floor it fails
    monkeypatch.setattr(gradients, "resolvable_gradient", lambda *args: 1e-8)
    assert not gradcheck_suite(trials=10, seed=ROUNDOFF_SEED)["passed"]


def test_gradcheck_suite_cycles_every_route():
    suite = gradcheck_suite(trials=24, seed=7)
    assert suite["passed"], suite["worst"]
    routes = {(t["activation"], t["branch_mode"], t["kind"], t["ell"]) for t in suite["trials"]}
    assert routes == {(a, b, kind, ell) for a in ("tanh", "relu") for b in BRANCH_MODES
                      for kind in ("euclidean", "manhattan") for ell in (0, 1)}


@pytest.mark.parametrize("tensor", ["u_f", "w_p"])
def test_gradcheck_suite_catches_scaled_gradient(monkeypatch, tensor):
    def scaled_backward(*args):
        loss, grads = backward_pair(*args)
        grads[tensor] *= 1.0 + 1e-3
        return loss, grads

    monkeypatch.setattr(gradients, "backward_pair", scaled_backward)
    suite = gradcheck_suite(trials=10, seed=ROUNDOFF_SEED)
    assert not suite["passed"]
    assert suite["worst"]["tensor"] == tensor


def test_gradcheck_suite_surrogate_mode_exempt():
    suite = gradcheck_suite(trials=3, seed=5, mode="paper-literal")
    assert suite["exempt"] and suite["passed"]


def test_zero_grads_mirror_params():
    # a clipped dissimilar pair leaves its gradient container at zero
    cfg, meta = tiny_cfg(), tiny_meta()
    params, _, _, trace_i, trace_j = _pair(cfg, meta, 12)
    d = distance("euclidean", trace_i.embedding, trace_j.embedding)
    _, grads = backward_pair(params, cfg, trace_i, trace_j, 1, d / 2, "euclidean")
    ref = params.tensors()
    assert grads.shapes == params.shapes
    assert grads.keys() == ref.keys()
    assert not np.shares_memory(grads.flat, params.flat)
    for name in grads:
        assert grads[name].shape == ref[name].shape
        assert np.shares_memory(grads[name], grads.flat)
        assert not grads[name].any()


def test_pair_loss_matches_backward_loss():
    cfg, meta = tiny_cfg(), tiny_meta()
    params, inst_i, inst_j, trace_i, trace_j = _pair(cfg, meta, 11)
    forward_only = pair_loss(params, cfg, inst_i, inst_j, 1, 2.0, "manhattan")
    reverse, _ = backward_pair(params, cfg, trace_i, trace_j, 1, 2.0, "manhattan")
    assert forward_only == pytest.approx(reverse, rel=1e-15)


def _one_hot(ids, r):
    """The dense one-hot input rows of item ids, as the model reads them."""
    x = np.zeros((len(ids), r))
    x[np.arange(len(ids)), ids] = 1.0
    return x


def _reference_forward(params, cfg, inst):
    """Per-gate encoder pass: one matrix-vector product per gate and step,
    over the dense one-hot input rows."""
    act = np.tanh if cfg.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    alphas = [inst.attributes]
    for w, b in zip(params.fc_w, params.fc_b):
        alphas.append(act(w @ alphas[-1] + b))
    h = c = np.zeros(params.b_i.shape[0])
    steps = []
    for x in _one_hot(inst.seq[:inst.true_len], params.w_i.shape[1]):
        i = sig(params.w_i @ x + params.u_i @ h + params.b_i)
        f = sig(params.w_f @ x + params.u_f @ h + params.b_f)
        o = sig(params.w_o @ x + params.u_o @ h + params.b_o)
        g = np.tanh(params.w_c @ x + params.u_c @ h + params.b_c)
        steps.append((x, h, c, i, f, o, g))
        c = f * c + i * g
        h = o * np.tanh(c)
    ga, gs = branch_gates(cfg.branch_mode)
    concat = np.concatenate([ga * alphas[-1], gs * h])
    return act(params.w_p @ concat + params.b_p), alphas, steps, concat


def _reference_backward(params, cfg, forward, dp, grads):
    """Per-gate reverse pass of one side, accumulating into a name -> array dict."""
    emb, alphas, steps, concat = forward
    dact = (lambda a: 1.0 - a * a) if cfg.activation == "tanh" else (lambda a: (a > 0) * 1.0)
    ga, gs = branch_gates(cfg.branch_mode)
    delta = dp * dact(emb)
    grads["w_p"] += np.outer(delta, concat)
    grads["b_p"] += delta
    dq = params.w_p.T @ delta
    n_m = alphas[-1].size
    d_alpha, dh = ga * dq[:n_m], gs * dq[n_m:]
    for k in reversed(range(len(params.fc_w))):
        d = d_alpha * dact(alphas[k + 1])
        grads[f"fc{k}_w"] += np.outer(d, alphas[k])
        grads[f"fc{k}_b"] += d
        d_alpha = params.fc_w[k].T @ d
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, i, f, o, g in reversed(steps):
        tanh_c = np.tanh(f * c_prev + i * g)
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        da = {"i": dc * g * i * (1.0 - i), "f": dc * c_prev * f * (1.0 - f),
              "o": dh * tanh_c * o * (1.0 - o), "c": dc * i * (1.0 - g * g)}
        dh = np.zeros_like(dh)
        for gate, d in da.items():
            grads[f"w_{gate}"] += np.outer(d, x)
            grads[f"u_{gate}"] += np.outer(d, h_prev)
            grads[f"b_{gate}"] += d
            dh += params[f"u_{gate}"].T @ d
        dc = dc * f


@pytest.mark.parametrize("mode", BRANCH_MODES)
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fused_gates_match_per_gate_reference(activation, mode):
    meta = tiny_meta(u=3, r=5, t_max=6)
    cfg = tiny_cfg(m=2, n_m=4, n_l=5, n=4, activation=activation, branch_mode=mode)
    for seed in range(4):
        params = random_params(cfg, meta, seed=60 + seed)
        inst_i = random_instance(meta, seed=160 + seed, length=6)
        inst_j = random_instance(meta, seed=260 + seed, length=3)
        kind, ell = DISTANCE_KINDS[seed % 2], seed // 2
        ref_i = _reference_forward(params, cfg, inst_i)
        ref_j = _reference_forward(params, cfg, inst_j)
        _, trace_i = omega_forward(params, cfg, inst_i)
        _, trace_j = omega_forward(params, cfg, inst_j)
        assert np.allclose(trace_i.embedding, ref_i[0], rtol=0, atol=1e-12)
        assert np.allclose(trace_j.embedding, ref_j[0], rtol=0, atol=1e-12)

        d = distance(kind, ref_i[0], ref_j[0])
        margin = d + 0.5  # keep the hinge active
        scale = dloss_ddistance(d, ell, margin)
        direction = distance_grad(kind, "exact", ref_i[0], ref_j[0], d)
        want = {name: np.zeros(shape) for name, shape in params.shapes.items()}
        _reference_backward(params, cfg, ref_i, scale * direction, want)
        _reference_backward(params, cfg, ref_j, -scale * direction, want)
        _, grads = backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind)
        assert grads.keys() == want.keys()
        assert any(want[name].any() for name in ("w_f", "u_o")) == (mode != "attributes_only")
        for name in want:
            assert np.allclose(grads[name], want[name], rtol=0, atol=1e-12), name


def _where_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _allocating_forward(params, cfg, inst):
    """The allocating encoder pass the lean kernels replaced: the two-branch
    sigmoid, fresh arrays at every LSTM step, shapes of a one-row batch, and
    the input projection as a dense product with the one-hot rows."""
    act = activation(cfg.activation)
    alphas = [inst.attributes]
    for w, b in zip(params.fc_w, params.fc_b):
        alphas.append(act(alphas[-1] @ w.T + b))
    T = inst.true_len
    x = _one_hot(inst.seq[:T], params.lstm_w.shape[1])
    n_l = params.lstm_b.shape[0] // 4
    gates = (x @ params.lstm_w.T).reshape(T, 1, 4 * n_l)
    gates += params.lstm_b
    c, tanh_c, h = (np.empty((T, 1, n_l)) for _ in range(3))
    h_prev = c_prev = np.zeros((1, n_l))
    s3 = 3 * n_l
    gi, gf, go, gg = (gates[:, :, k * n_l:(k + 1) * n_l] for k in range(4))
    for t in range(T):
        z = h_prev @ params.lstm_u.T
        z += gates[t]
        gates[t, :, :s3] = _where_sigmoid(z[:, :s3])
        np.tanh(z[:, s3:], out=gg[t])
        c_prev = np.multiply(gf[t], c_prev, out=c[t])
        c_prev += gi[t] * gg[t]
        np.tanh(c_prev, out=tanh_c[t])
        h_prev = np.multiply(go[t], tanh_c[t], out=h[t])
    ga, gs = branch_gates(cfg.branch_mode)
    concat = np.concatenate([ga * alphas[-1], gs * h[T - 1, 0]])
    embedding = act(concat @ params.w_p.T + params.b_p)
    lstm = {"x": x, "gates": gates[:, 0], "c": c[:, 0], "tanh_c": tanh_c[:, 0], "h": h[:, 0]}
    return embedding, alphas, lstm, concat


def _allocating_backward(params, cfg, fwd, dp, grads):
    """One side's reverse pass with np.split / np.vstack and fresh arrays."""
    embedding, alphas, lt, concat = fwd
    act = cfg.activation
    ga, gs = branch_gates(cfg.branch_mode)
    delta = dp * activation_grad_from_output(act, embedding)
    grads["w_p"] += np.outer(delta, concat)
    grads["b_p"] += delta
    dq = params.w_p.T @ delta
    n_m = alphas[-1].shape[0]
    d_alpha = ga * dq[:n_m]
    dh = gs * dq[n_m:]
    for k in range(len(params.fc_w) - 1, -1, -1):
        delta_k = d_alpha * activation_grad_from_output(act, alphas[k + 1])
        grads[f"fc{k}_w"] += np.outer(delta_k, alphas[k])
        grads[f"fc{k}_b"] += delta_k
        if k > 0:
            d_alpha = params.fc_w[k].T @ delta_k
    if gs == 0.0:
        return
    T, n_l = lt["h"].shape
    h_prev = np.vstack([np.zeros((1, n_l)), lt["h"][:-1]])
    c_prev = np.vstack([np.zeros((1, n_l)), lt["c"][:-1]])
    sig = lt["gates"][:, :3 * n_l]
    i, f, o, g = np.split(lt["gates"], 4, axis=1)
    da = np.empty((T, 4 * n_l))
    dh_vec, dc_vec = dh, np.zeros(n_l)
    for t in range(T - 1, -1, -1):
        dc_vec = dc_vec + dh_vec * o[t] * (1.0 - lt["tanh_c"][t] ** 2)
        d_sig = np.concatenate([dc_vec * g[t], dc_vec * c_prev[t], dh_vec * lt["tanh_c"][t]])
        da[t, :3 * n_l] = d_sig * sig[t] * (1.0 - sig[t])
        da[t, 3 * n_l:] = dc_vec * i[t] * (1.0 - g[t] ** 2)
        dh_vec = params.lstm_u.T @ da[t]
        dc_vec = dc_vec * f[t]
    grads.lstm_w += da.T @ lt["x"]
    grads.lstm_u += da.T @ h_prev
    grads.lstm_b += da.sum(axis=0)


def _allocating_train_epoch(params, cfg, triplets, tc):
    """One epoch of `train`'s SGD as the allocating step: a fresh gradient
    container per pair and flat -= lr * (g + decay * flat). Returns
    (params, pair losses, pairs whose hinge was active)."""
    rng = Rng(tc.seed)
    n = len(triplets)
    n_val = min(n - 1, max(1, round(tc.val_fraction * n)))
    train_idx = rng.child("val_split").gen.permutation(n)[n_val:]
    order = rng.child("epoch1").gen.permutation(len(train_idx))
    params = params.copy()
    decay = ModelParams(params.shapes)
    for w in decay.values():
        if w.ndim == 2:
            w[...] = tc.l2
    losses, active = np.empty(len(order)), 0
    for pos, o in enumerate(order):
        t = triplets[train_idx[o]]
        fwd_i = _allocating_forward(params, cfg, t.a)
        fwd_j = _allocating_forward(params, cfg, t.b)
        d = distance(tc.distance, fwd_i[0], fwd_j[0])
        losses[pos] = contrastive_loss(d, t.ell, tc.margin)
        scale = dloss_ddistance(d, t.ell, tc.margin)
        direction = distance_grad(tc.distance, tc.grad_mode, fwd_i[0], fwd_j[0], d)
        grads = ModelParams(params.shapes)
        if scale != 0.0:
            active += 1
            _allocating_backward(params, cfg, fwd_i, scale * direction, grads)
            _allocating_backward(params, cfg, fwd_j, -scale * direction, grads)
        params.flat -= tc.lr * (grads.flat + decay.flat * params.flat)
    return params, losses, active


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
@pytest.mark.parametrize("mode", BRANCH_MODES)
@pytest.mark.parametrize("activation_name", ["tanh", "relu"])
def test_training_epoch_is_bitwise_the_allocating_step(activation_name, mode, kind, ell):
    # compared on this machine only: BLAS kernels differ across CPUs, so no
    # digest of the result is pinned
    meta = tiny_meta(u=3, r=5, t_max=6)
    cfg = tiny_cfg(m=2, n_m=5, n_l=6, n=4, activation=activation_name, branch_mode=mode)
    seed = 17 * BRANCH_MODES.index(mode) + 5 * ell + DISTANCE_KINDS.index(kind)
    params = random_params(cfg, meta, seed=seed, scale=0.5)
    triplets = [Triplet(random_instance(meta, seed=1000 + seed * 50 + k),
                        random_instance(meta, seed=2000 + seed * 50 + k), ell) for k in range(24)]
    tc = TrainConfig(lr=0.05, max_epochs=1, margin=2.0, val_fraction=0.05, distance=kind,
                     seed=seed)
    want, losses, active = _allocating_train_epoch(params, cfg, triplets, tc)
    assert len(losses) >= 20 and active >= 10
    got, report = train(params, cfg, triplets, tc)
    assert np.array_equal(got.flat, want.flat)
    assert report.train_losses == [float(losses.mean())]
    assert not np.array_equal(got.flat, params.flat)
