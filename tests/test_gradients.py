import math

import numpy as np
import pytest

from attrseq.data import AttributedSequence, DatasetMeta, Triplet, encode
from attrseq import encoder, gradients, training
from attrseq.encoder import (
    BRANCH_MODES,
    LstmBuffers,
    ModelConfig,
    ModelParams,
    branch_gates,
    init_params,
    omega_forward,
    rows_forward,
)
from attrseq.gradients import (
    DISTANCE_KINDS,
    backward_pair,
    backward_rows,
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

from test_encoder import _bits, random_instance, random_params, tiny_cfg, tiny_meta


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
        for p, q in ((np.zeros((3, 2)), np.zeros((3, 3))), (np.zeros((2, 1, 4)), np.zeros(3))):
            with pytest.raises(ValueError, match="mismatch"):
                distance("manhattan", p, q)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("kind", DISTANCE_KINDS)
    def test_rows_and_blocks_are_bitwise_the_pair_calls(self, kind):
        # A (Q, G) block and an (N,) row of distances hold, bit for bit, the
        # float each pair gives alone, which is the sqrt of np.dot or the sum
        # of absolute differences; ties, identical pairs and zero rows included.
        def bits(x):
            return np.asarray(x, dtype=np.float64).view(np.uint64)

        def reference(p, q):
            diff = p - q
            return float(np.sqrt(np.dot(diff, diff)) if kind == "euclidean" else np.abs(diff).sum())

        gen = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 50, 100):
            queries, supports = gen.normal(size=(6, n)), gen.normal(size=(6, n))
            queries[1] = 0.0
            supports[2] = 0.0
            supports[3] = queries[0]  # zero distance
            # equally far in exact arithmetic: the last bit decides
            supports[4] = queries[0] + gen.permutation(supports[0] - queries[0])
            queries[2] = np.arange(n)
            supports[1], supports[5] = queries[2].copy(), queries[2].copy()
            supports[1][0] += 1.0
            supports[5][-1] -= 1.0  # an exact tie at distance 1
            pairs = [[distance(kind, p, s) for s in supports] for p in queries]
            assert all(type(d) is float for row in pairs for d in row)
            assert pairs == [[reference(p, s) for s in supports] for p in queries]
            block = distance(kind, queries[:, None, :], supports[None, :, :])
            assert block.shape == (6, 6) and np.array_equal(bits(block), bits(pairs))
            rows = distance(kind, queries, supports)
            assert rows.shape == (6,)
            assert np.array_equal(bits(rows), bits([pairs[k][k] for k in range(6)]))
            assert pairs[0][3] == pairs[1][2] == 0.0 and pairs[2][1] == pairs[2][5] == 1.0


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
            d = distance(kind, trace_i.embedding[0, 0], trace_j.embedding[0, 0])
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
        d = distance("euclidean", trace_i.embedding[0, 0], trace_j.embedding[0, 0])
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
            d = distance(kind, trace_i.embedding[0, 0], trace_j.embedding[0, 0])
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
        loss, d = backward_rows(*args)
        args[-1][tensor] *= 1.0 + 1e-3  # the store
        return loss, d

    monkeypatch.setattr(gradients, "backward_rows", scaled_backward)
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
    d = distance("euclidean", trace_i.embedding[0, 0], trace_j.embedding[0, 0])
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
    (params, pair losses, pairs whose hinge was active, triplets trained)."""
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
    trained = [triplets[train_idx[o]] for o in order]
    for pos, t in enumerate(trained):
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
    return params, losses, active, trained


@pytest.mark.bitwise
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
    for grad_mode in gradients.GRAD_MODES:  # in each case, so the case ids stay as they were
        tc = TrainConfig(lr=0.05, max_epochs=1, margin=2.0, val_fraction=0.05, distance=kind,
                         grad_mode=grad_mode, seed=seed)
        want, losses, active, trained = _allocating_train_epoch(params, cfg, triplets, tc)
        assert len(losses) >= 20 and active >= 10
        # the lockstep rows meet a one-step side, equal lengths and a longer side in each position
        lengths = [(t.a.true_len, t.b.true_len) for t in trained]
        assert any(1 in pair for pair in lengths)
        assert any(a == b for a, b in lengths)
        assert any(a > b for a, b in lengths) and any(a < b for a, b in lengths)
        got, report = train(params, cfg, triplets, tc)
        assert np.array_equal(got.flat.view(np.uint64), want.flat.view(np.uint64)), grad_mode
        assert report.train_losses == [float(losses.mean())]
        assert not np.array_equal(got.flat, params.flat)


@pytest.mark.bitwise
@pytest.mark.parametrize("mode", BRANCH_MODES)
@pytest.mark.parametrize("activation_name", ["tanh", "relu"])
def test_traced_rows_are_bitwise_the_allocating_forward(activation_name, mode):
    """Every traced forward (train's two rows in its buffers, rows in fresh
    buffers, one instance) holds the allocating pass's values bit for bit;
    two one-step rows run on buffers of depth 1."""
    meta = tiny_meta(u=3, r=5, t_max=6)
    cfg = tiny_cfg(m=2, n_m=5, n_l=6, n=4, activation=activation_name, branch_mode=mode)
    params = random_params(cfg, meta, seed=90 + BRANCH_MODES.index(mode), scale=0.5)
    buffers = LstmBuffers(meta.t_max, 2, cfg.n_l)
    for a in vars(buffers).values():
        a.fill(np.nan)  # stale values must never reach a result
    for k, lengths in enumerate([(1, 6), (6, 1), (6, 6), (3, 5), (1, 1)]):
        insts = [random_instance(meta, seed=300 + 10 * k + j, length=n) for j, n in enumerate(lengths)]
        runs = [rows_forward(params, cfg, insts, buffers), rows_forward(params, cfg, insts)]
        runs += [(emb[None, None], trace) for emb, trace in
                 (omega_forward(params, cfg, inst) for inst in insts)]
        sides = [(rows, j) for _, rows in runs[:2] for j in range(2)] + [(rows, 0) for _, rows in runs[2:]]
        for (rows, j), inst in zip(sides, [*insts, *insts, *insts]):
            embedding, alphas, lstm, concat = _allocating_forward(params, cfg, inst)
            T = inst.true_len
            assert rows.lstm.lengths[j] == T and np.array_equal(rows.lstm.x[:T, j], inst.seq)
            assert np.array_equal(_bits(rows.embedding[j, 0]), _bits(embedding))
            assert np.array_equal(_bits(rows.concat[j, 0]), _bits(concat))
            for got, want in zip(rows.alphas, alphas):
                assert np.array_equal(_bits(got[j, 0]), _bits(want))
            assert np.array_equal(_bits(rows.lstm.gates[:T, :, j].reshape(T, -1)), _bits(lstm["gates"]))
            for name in ("c", "tanh_c", "h"):
                assert np.array_equal(_bits(getattr(rows.lstm, name)[:T, j]), _bits(lstm[name])), name
        for emb, _ in runs:
            assert emb.shape[1:] == (1, cfg.n)


@pytest.mark.bitwise
@pytest.mark.parametrize("lengths", [(1, 6), (6, 1), (6, 6), (3, 5), (1, 1)],
                         ids=["1-T", "T-1", "T-T", "3-5", "1-1"])
@pytest.mark.parametrize("mode", BRANCH_MODES)
def test_lockstep_backward_is_bitwise_backward_pair(mode, lengths):
    """train's row backward, backward_pair on two one-instance traces and
    the allocating per-side backward give the same bits."""
    meta = tiny_meta(u=3, r=5, t_max=6)
    buffers = LstmBuffers(meta.t_max, 2, 6)
    for k, (activation_name, kind, grad_mode) in enumerate(
            [("tanh", "euclidean", "exact"), ("relu", "manhattan", "paper-literal")]):
        cfg = tiny_cfg(m=2, n_m=5, n_l=6, n=4, activation=activation_name, branch_mode=mode)
        seed = 70 + 10 * k + BRANCH_MODES.index(mode)
        params = random_params(cfg, meta, seed=seed, scale=0.5)
        inst_i = random_instance(meta, seed=seed + 100, length=lengths[0])
        inst_j = random_instance(meta, seed=seed + 200, length=lengths[1])
        if np.array_equal(inst_j.seq, inst_i.seq):  # sequence_only would embed them alike
            inst_j = random_instance(meta, seed=seed + 201, length=lengths[1])
        _, trace_i = omega_forward(params, cfg, inst_i)
        _, trace_j = omega_forward(params, cfg, inst_j)
        d = distance(kind, trace_i.embedding[0, 0], trace_j.embedding[0, 0])
        for ell in (0, 1):
            margin = d + 1.0  # keep the hinge active
            loss, want = backward_pair(params, cfg, trace_i, trace_j, ell, margin, kind, grad_mode)
            fwd_i = _allocating_forward(params, cfg, inst_i)
            fwd_j = _allocating_forward(params, cfg, inst_j)
            scale = dloss_ddistance(d, ell, margin)
            direction = distance_grad(kind, grad_mode, fwd_i[0], fwd_j[0], d)
            sides = ModelParams(params.shapes)
            _allocating_backward(params, cfg, fwd_i, scale * direction, sides)
            _allocating_backward(params, cfg, fwd_j, -scale * direction, sides)
            store = ModelParams(params.shapes)
            store.flat[...] = np.nan  # zeroed by the backward
            _, rows = rows_forward(params, cfg, (inst_i, inst_j), buffers)
            assert backward_rows(params, cfg, rows, ell, margin, kind, grad_mode, store) == (loss, d)
            assert want.flat.any()
            assert np.array_equal(store.flat.view(np.uint64), want.flat.view(np.uint64))
            assert np.array_equal(sides.flat.view(np.uint64), want.flat.view(np.uint64))


@pytest.mark.bitwise
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_lockstep_clipped_pair_leaves_every_bit_of_the_store_zero(kind):
    cfg, meta = tiny_cfg(), tiny_meta()
    buffers = LstmBuffers(meta.t_max, 2, cfg.n_l)
    for seed in range(6):
        params = random_params(cfg, meta, seed=seed)
        inst_i = random_instance(meta, seed=seed + 100)
        inst_j = random_instance(meta, seed=seed + 200)
        pairs = [(inst_i, inst_j, 1), (inst_i, inst_i, 0)]  # hinge clipped; zero distance, similar
        for a, b, ell in pairs:
            embeddings, rows = rows_forward(params, cfg, (a, b), buffers)
            d = distance(kind, embeddings[0, 0], embeddings[1, 0])
            store = ModelParams(params.shapes)
            store.flat[...] = -0.0
            store.flat[::3] = np.nan
            margin = d / 2 if ell else 1.0
            loss, _ = backward_rows(params, cfg, rows, ell, margin, kind, "exact", store)
            assert loss == 0.0
            assert not store.flat.view(np.uint64).any(), (seed, ell)


def _float_arrays(obj):
    """Every float array in obj, looking into lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype == np.float64 else []
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _float_arrays(item)]
    return []


def _fill_nan(buffers):
    """NaN into every float array of the buffers, their kept step views and
    their backward workspace, once built: a value left by an earlier call,
    a zero slot included, must never reach a result."""
    parts = [*vars(buffers).values()]
    if buffers.backward is not None:
        parts += vars(buffers.backward).values()
    for a in _float_arrays(parts):
        a.fill(np.nan)


class _NanBuffers(LstmBuffers):
    def __init__(self, *args):
        super().__init__(*args)
        _fill_nan(self)


# one-step and full-length rows on either side, equal lengths, and a full
# pair, a shorter one and a full one in a row
WORKSPACE_LENGTHS = [(1, 6), (6, 1), (6, 6), (3, 5), (1, 1), (6, 4), (2, 3), (6, 6)]


@pytest.mark.bitwise
@pytest.mark.parametrize("mode", BRANCH_MODES)
@pytest.mark.parametrize("activation_name", ["tanh", "relu"])
def test_lockstep_workspace_is_bitwise_fresh_buffers_and_the_allocating_pass(
        activation_name, mode, monkeypatch):
    """One buffers object, NaN in every array it and its backward workspace
    hold before each pair, gives the traces and gradient stores of fresh
    buffers and of the allocating pass bit for bit, and `train` on it the
    parameters of fresh buffers per pair and of the allocating step."""
    meta = tiny_meta(u=3, r=5, t_max=6)
    cfg = tiny_cfg(m=2, n_m=5, n_l=6, n=4, activation=activation_name, branch_mode=mode)
    buffers = LstmBuffers(meta.t_max, 2, cfg.n_l)
    for k, (kind, grad_mode) in enumerate([(kind, grad_mode) for kind in DISTANCE_KINDS
                                           for grad_mode in gradients.GRAD_MODES]):
        seed = 400 + 40 * k + 7 * BRANCH_MODES.index(mode)
        params = random_params(cfg, meta, seed=seed, scale=0.5)
        for p, lengths in enumerate(WORKSPACE_LENGTHS):
            insts = [random_instance(meta, seed=seed + 10 * p + j, length=n) for j, n in enumerate(lengths)]
            _fill_nan(buffers)
            emb, rows = rows_forward(params, cfg, insts, buffers)
            assert rows.lstm.buffers is buffers
            fresh_emb, fresh = rows_forward(params, cfg, insts)
            assert fresh.lstm.buffers is not buffers
            assert np.array_equal(_bits(emb), _bits(fresh_emb))
            for j, inst in enumerate(insts):
                embedding, alphas, lstm, concat = _allocating_forward(params, cfg, inst)
                T = inst.true_len
                assert np.array_equal(_bits(rows.embedding[j, 0]), _bits(embedding))
                assert np.array_equal(_bits(rows.concat[j, 0]), _bits(concat))
                for got, want in zip(rows.alphas, alphas):
                    assert np.array_equal(_bits(got[j, 0]), _bits(want))
                assert np.array_equal(_bits(rows.lstm.gates[:T, :, j].reshape(T, -1)), _bits(lstm["gates"]))
                for name in ("c", "tanh_c", "h"):
                    assert np.array_equal(_bits(getattr(rows.lstm, name)[:T, j]), _bits(lstm[name])), name
            d = distance(kind, emb[0, 0], emb[1, 0])
            ell = p % 2
            margin = d + 1.0  # keep the hinge active
            store, fresh_store = ModelParams(params.shapes), ModelParams(params.shapes)
            store.flat[...] = fresh_store.flat[...] = np.nan  # zeroed by the backward
            got = backward_rows(params, cfg, rows, ell, margin, kind, grad_mode, store)
            assert got == backward_rows(params, cfg, fresh, ell, margin, kind, grad_mode, fresh_store)
            fwd_i, fwd_j = (_allocating_forward(params, cfg, inst) for inst in insts)
            scale = dloss_ddistance(d, ell, margin)
            direction = distance_grad(kind, grad_mode, fwd_i[0], fwd_j[0], d)
            want = ModelParams(params.shapes)
            _allocating_backward(params, cfg, fwd_i, scale * direction, want)
            _allocating_backward(params, cfg, fwd_j, -scale * direction, want)
            assert want.flat.any() and buffers.backward is not None
            assert np.array_equal(store.flat.view(np.uint64), want.flat.view(np.uint64)), lengths
            assert np.array_equal(fresh_store.flat.view(np.uint64), want.flat.view(np.uint64)), lengths

        # train's own buffers, NaN at the start, against fresh buffers per pair
        triplets = [Triplet(random_instance(meta, seed=seed + 500 + 2 * q, length=a),
                            random_instance(meta, seed=seed + 501 + 2 * q, length=b), q % 2)
                    for q, (a, b) in enumerate(WORKSPACE_LENGTHS * 3)]
        tc = TrainConfig(lr=0.05, max_epochs=1, margin=2.0, val_fraction=0.05, distance=kind,
                         grad_mode=grad_mode, seed=seed)
        want, losses, active, _ = _allocating_train_epoch(params, cfg, triplets, tc)
        assert active >= 10
        with monkeypatch.context() as patch:
            patch.setattr(training, "LstmBuffers", _NanBuffers)
            got, report = train(params, cfg, triplets, tc)
        with monkeypatch.context() as patch:
            patch.setattr(training, "rows_forward",
                          lambda params, cfg, instances, buffers: rows_forward(params, cfg, instances))
            fresh, _ = train(params, cfg, triplets, tc)
        assert np.array_equal(got.flat.view(np.uint64), want.flat.view(np.uint64)), (kind, grad_mode)
        assert np.array_equal(fresh.flat.view(np.uint64), want.flat.view(np.uint64)), (kind, grad_mode)
        assert report.train_losses == [float(losses.mean())]


@pytest.mark.bitwise
def test_lockstep_workspace_follows_the_call_shapes():
    """One buffers object serves every parameter layout it meets with the
    one backward workspace it built, and its forward step views follow the
    chunk split: results stay those of fresh buffers."""
    buffers = LstmBuffers(6, 2, 6)
    for k, (m, n_m, r) in enumerate([(2, 5, 5), (1, 3, 7), (2, 5, 5)]):
        meta = tiny_meta(u=3, r=r, t_max=6)
        cfg = tiny_cfg(m=m, n_m=n_m, n_l=6, n=4)
        params = random_params(cfg, meta, seed=30 + k, scale=0.5)
        insts = [random_instance(meta, seed=130 + 2 * k + j, length=6 - 3 * j) for j in range(2)]
        stores = []
        for bufs in (buffers, None):
            emb, rows = rows_forward(params, cfg, insts, bufs)
            store = ModelParams(params.shapes)
            d = distance("euclidean", emb[0, 0], emb[1, 0])
            backward_rows(params, cfg, rows, 1, d + 1.0, "euclidean", "exact", store)
            stores.append(store.flat.view(np.uint64))
        assert stores[0].any() and np.array_equal(*stores)
    # the same two rows as one chunk of two, each step one 2-row product
    table = encoder._gate_table(params)
    ids = np.zeros((2, 6), dtype=np.int64)
    for j, inst in enumerate(insts):
        ids[j, :inst.true_len] = inst.seq
    lengths = np.array([inst.true_len for inst in insts])
    got = encoder._lstm(params, table, ids.T.reshape(6, 1, 2), lengths, buffers)
    want = encoder._lstm(params, table, ids.T.reshape(6, 1, 2), lengths, LstmBuffers(6, 2, 6))
    assert got.shape == (1, 2, 6) and np.array_equal(_bits(got), _bits(want))
