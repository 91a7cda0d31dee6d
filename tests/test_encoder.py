import math

import numpy as np
import pytest

from attrseq.data import AttributedSequence, DatasetMeta, encode
from attrseq.encoder import (
    BRANCH_MODES,
    EMBED_CHUNK,
    LstmBuffers,
    ModelConfig,
    ModelParams,
    branch_gates,
    embed_instances,
    fc_forward,
    init_params,
    lstm_batch,
    lstm_forward,
    omega_forward,
    param_shapes,
)
from attrseq.kernel import Rng


def tiny_meta(u=3, r=4, t_max=5):
    return DatasetMeta(u=u, r=r, t_max=t_max, class_ids=frozenset())


def tiny_cfg(**kw):
    defaults = dict(m=2, n_m=4, n_l=4, n=4)
    defaults.update(kw)
    return ModelConfig(**defaults)


def random_params(cfg, meta, seed=0, scale=0.6):
    params = init_params(cfg, meta, Rng(seed))
    gen = np.random.default_rng(seed + 1)
    for t in params.tensors().values():
        t[...] = gen.uniform(-scale, scale, size=t.shape)
    return params


def random_instance(meta, seed=0, length=None):
    gen = np.random.default_rng(seed)
    length = length or int(gen.integers(1, meta.t_max + 1))
    items = [int(gen.integers(meta.r)) for _ in range(length)]
    return encode(AttributedSequence(gen.uniform(-1, 1, meta.u), items, None), meta)


def zero_params(cfg, meta):
    params = init_params(cfg, meta, Rng(0))
    for t in params.tensors().values():
        t[...] = 0.0
    return params


class TestInit:
    def test_biases_exactly_zero(self):
        params = init_params(tiny_cfg(), tiny_meta(), Rng(3))
        for name, t in params.tensors().items():
            if name.startswith("b_") or name.endswith("_b"):
                assert not t.any(), name

    def test_recurrent_matrices_orthogonal(self):
        params = init_params(tiny_cfg(n_l=16), tiny_meta(), Rng(3))
        for u in (params.u_i, params.u_f, params.u_o, params.u_c):
            assert np.max(np.abs(u.T @ u - np.eye(16))) < 1e-10

    def test_fan_scaled_bounds(self):
        meta = tiny_meta(u=7)
        cfg = tiny_cfg(m=3, n_m=50, n_l=50)
        params = init_params(cfg, meta, Rng(3))
        assert np.all(np.abs(params.fc_w[0]) <= math.sqrt(6.0 / (7 + 50)))
        assert np.all(np.abs(params.fc_w[1]) <= math.sqrt(6.0 / 100))
        for w in (params.w_i, params.w_f, params.w_o, params.w_c):
            assert np.all(np.abs(w) <= math.sqrt(6.0 / 50))

    def test_shape_chain(self):
        meta = tiny_meta(u=7, r=9)
        cfg = tiny_cfg(m=3, n_m=5, n_l=6, n=8)
        params = init_params(cfg, meta, Rng(0))
        assert params.fc_w[0].shape == (5, 7)
        assert params.fc_w[1].shape == (5, 5)
        assert params.w_i.shape == (6, 9)
        assert params.u_c.shape == (6, 6)
        assert params.w_p.shape == (8, 11)
        assert params.b_p.shape == (8,)

    def test_deterministic(self):
        a = init_params(tiny_cfg(), tiny_meta(), Rng(9))
        b = init_params(tiny_cfg(), tiny_meta(), Rng(9))
        for x, y in zip(a.tensors().values(), b.tensors().values()):
            assert np.array_equal(x, y)


class TestFcForward:
    def test_zero_params_give_zero(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = zero_params(cfg, meta)
        out, _ = fc_forward(params, np.array([0.3, -0.2, 0.9]))
        assert not out.any()

    def test_identity_single_layer(self):
        meta = tiny_meta(u=1)
        cfg = tiny_cfg(m=1, n_m=1)
        params = zero_params(cfg, meta)
        params.fc_w[0][...] = np.eye(1)
        out, _ = fc_forward(params, np.array([0.5]))
        assert out[0] == pytest.approx(math.tanh(0.5))
        assert math.tanh(0.5) == pytest.approx(0.46211715726000974)

    def test_output_width_and_trace(self):
        cfg, meta = tiny_cfg(m=3, n_m=6), tiny_meta()
        params = random_params(cfg, meta)
        out, alphas = fc_forward(params, np.zeros(3))
        assert out.shape == (6,)
        assert len(alphas) == 4

    def test_shape_error(self):
        params = random_params(tiny_cfg(), tiny_meta())
        with pytest.raises(ValueError, match="attribute vector"):
            fc_forward(params, np.zeros(5))


class TestLstmForward:
    def test_zero_params_give_zero_state(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = zero_params(cfg, meta)
        inst = random_instance(meta, seed=2)
        h, trace = lstm_forward(params, inst.seq, inst.true_len)
        assert not h.any()
        assert np.all(trace.gates[:, :3 * cfg.n_l] == 0.5)  # i, f, o = sigma(0)

    def test_single_step_scalar_hand_computation(self):
        # independent recomputation of one LSTM step with scalar parameters
        meta = tiny_meta(u=1, r=1, t_max=1)
        cfg = tiny_cfg(m=1, n_m=1, n_l=1, n=1)
        params = zero_params(cfg, meta)
        w = dict(w_i=0.3, w_f=-0.4, w_o=0.7, w_c=0.2, b_i=0.1, b_f=0.05, b_o=-0.2, b_c=0.6)
        for name, val in w.items():
            getattr(params, name)[...] = val
        h, _ = lstm_forward(params, np.array([0]), 1)  # item 0: the one-hot row [1.0]

        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        i = sig(w["w_i"] * 1.0 + w["b_i"])
        f = sig(w["w_f"] * 1.0 + w["b_f"])
        o = sig(w["w_o"] * 1.0 + w["b_o"])
        g = math.tanh(w["w_c"] * 1.0 + w["b_c"])
        c = f * 0.0 + i * g
        expected = o * math.tanh(c)
        assert h[0] == pytest.approx(expected, rel=1e-15)

    def test_two_step_recurrent_hand_computation(self):
        meta = tiny_meta(u=1, r=2, t_max=2)
        cfg = tiny_cfg(m=1, n_m=1, n_l=1, n=1)
        params = zero_params(cfg, meta)
        params.w_i[...] = [[0.3, -0.1]]
        params.w_f[...] = [[-0.4, 0.2]]
        params.w_o[...] = [[0.7, 0.5]]
        params.w_c[...] = [[0.2, -0.3]]
        params.u_i[...] = 0.6
        params.u_f[...] = -0.5
        params.u_o[...] = 0.4
        params.u_c[...] = 0.8
        h, _ = lstm_forward(params, np.array([0, 1]), 2)

        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        hp, cp = 0.0, 0.0
        for x0, x1 in ((1.0, 0.0), (0.0, 1.0)):  # the one-hot rows of items 0 and 1
            i = sig(0.3 * x0 - 0.1 * x1 + 0.6 * hp)
            f = sig(-0.4 * x0 + 0.2 * x1 - 0.5 * hp)
            o = sig(0.7 * x0 + 0.5 * x1 + 0.4 * hp)
            g = math.tanh(0.2 * x0 - 0.3 * x1 + 0.8 * hp)
            cp = f * cp + i * g
            hp = o * math.tanh(cp)
        assert h[0] == pytest.approx(hp, rel=1e-15)

    def test_masking_equals_truncation(self):
        cfg, meta = tiny_cfg(), tiny_meta(t_max=6)
        params = random_params(cfg, meta, seed=4)
        inst = random_instance(meta, seed=5, length=3)
        longer = np.concatenate([inst.seq, [1, 2, 3]])
        h_full, _ = lstm_forward(params, inst.seq, inst.true_len)
        h_trunc, _ = lstm_forward(params, longer, 3)  # ids past true_len are never read
        assert np.array_equal(h_full, h_trunc)
        # processing the extra ids as if they were data gives a different state
        h_longer, _ = lstm_forward(params, longer, meta.t_max)
        assert not np.allclose(h_full, h_longer)

    def test_rejects_zero_length(self):
        params = random_params(tiny_cfg(), tiny_meta())
        with pytest.raises(ValueError, match="true_len"):
            lstm_forward(params, np.zeros(5, dtype=np.int64), 0)

    def test_rejects_true_len_beyond_ids(self):
        meta = tiny_meta()
        params = random_params(tiny_cfg(), meta)
        inst = random_instance(meta, seed=2, length=3)
        with pytest.raises(ValueError, match="true_len 4 exceeds the 3 item ids"):
            lstm_forward(params, inst.seq, 4)


class TestOmegaForward:
    def test_default_config_embedding_width(self):
        meta = tiny_meta(u=6, r=5, t_max=4)
        cfg = ModelConfig()
        params = init_params(cfg, meta, Rng(1))
        emb, _ = omega_forward(params, cfg, random_instance(meta, seed=1))
        assert emb.shape == (50,)

    def test_zero_params_zero_embedding(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = zero_params(cfg, meta)
        emb, _ = omega_forward(params, cfg, random_instance(meta, seed=3))
        assert not emb.any()

    def test_attributes_only_ignores_sequence_order(self):
        meta = tiny_meta(t_max=6)
        cfg = tiny_cfg(branch_mode="attributes_only")
        params = random_params(cfg, meta, seed=6)
        gen = np.random.default_rng(0)
        attrs = gen.uniform(-1, 1, meta.u)
        items = [0, 1, 2, 3, 1]
        a = encode(AttributedSequence(attrs, items, None), meta)
        b = encode(AttributedSequence(attrs, items[::-1], None), meta)
        ea, _ = omega_forward(params, cfg, a)
        eb, _ = omega_forward(params, cfg, b)
        assert np.array_equal(ea, eb)

    def test_sequence_only_ignores_attributes(self):
        meta = tiny_meta()
        cfg = tiny_cfg(branch_mode="sequence_only")
        params = random_params(cfg, meta, seed=6)
        gen = np.random.default_rng(0)
        items = [0, 1, 2]
        a = encode(AttributedSequence(gen.uniform(-1, 1, meta.u), items, None), meta)
        b = encode(AttributedSequence(gen.uniform(-1, 1, meta.u), items, None), meta)
        ea, _ = omega_forward(params, cfg, a)
        eb, _ = omega_forward(params, cfg, b)
        assert np.array_equal(ea, eb)

    def test_branch_modes_share_embedding_shape(self):
        meta = tiny_meta()
        for mode in ("both", "attributes_only", "sequence_only"):
            cfg = tiny_cfg(n=7, branch_mode=mode)
            params = random_params(cfg, meta, seed=2)
            emb, _ = omega_forward(params, cfg, random_instance(meta, seed=2))
            assert emb.shape == (7,)

    def test_padding_neutrality(self):
        cfg = tiny_cfg()
        meta_small = tiny_meta(t_max=4)
        meta_big = tiny_meta(t_max=9)
        params = random_params(cfg, meta_small, seed=7)
        gen = np.random.default_rng(1)
        attrs = gen.uniform(-1, 1, 3)
        items = [2, 0, 3]
        a = encode(AttributedSequence(attrs, items, None), meta_small)
        b = encode(AttributedSequence(attrs, items, None), meta_big)
        ea, _ = omega_forward(params, cfg, a)
        eb, _ = omega_forward(params, cfg, b)
        assert np.array_equal(ea, eb)

    def test_deterministic_and_bounded(self):
        cfg, meta = tiny_cfg(n=9), tiny_meta()
        params = random_params(cfg, meta, seed=8)
        inst = random_instance(meta, seed=8)
        e1, t1 = omega_forward(params, cfg, inst)
        e2, _ = omega_forward(params, cfg, inst)
        assert np.array_equal(e1, e2)
        assert np.all(np.abs(e1) < 1.0)  # tanh output
        assert np.linalg.norm(e1) <= math.sqrt(9)
        for a in t1.alphas[1:]:
            assert np.all(np.abs(a) < 1.0)


class TestBatchedForward:
    """The batched kernel against the single-instance path."""

    @staticmethod
    def setup_model(activation="tanh", branch_mode="both", t_max=7):
        meta = tiny_meta(u=5, r=6, t_max=t_max)
        cfg = tiny_cfg(m=2, n_m=16, n_l=16, n=12, activation=activation, branch_mode=branch_mode)
        return cfg, meta, random_params(cfg, meta, seed=3)

    @staticmethod
    def id_block(insts, T, pad=0):
        """(T, N) time-major item ids, `pad` in every slot past a length."""
        ids = np.full((T, len(insts)), pad, dtype=np.int64)
        for k, inst in enumerate(insts):
            ids[:inst.true_len, k] = inst.seq
        return ids

    @pytest.mark.parametrize("branch_mode", BRANCH_MODES)
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_single_instance_path(self, activation, branch_mode):
        cfg, meta, params = self.setup_model(activation, branch_mode)
        n_inst = 2 * EMBED_CHUNK + 5  # not a multiple of the chunk size
        insts = [random_instance(meta, seed=k, length=1 + k % meta.t_max) for k in range(n_inst)]
        batched = embed_instances(params, cfg, insts)
        single = np.array([omega_forward(params, cfg, inst)[0] for inst in insts])
        assert batched.shape == (n_inst, cfg.n)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-12)

    def test_duplicates_embed_identically(self):
        cfg, meta, params = self.setup_model()
        base = [random_instance(meta, seed=100 + k) for k in range(6)]
        others = [random_instance(meta, seed=k) for k in range(2 * EMBED_CHUNK)]
        n = len(base)
        # the same instances at other positions, in other chunks, next to
        # other lengths, and as an equal copy in the last of 2 * EMBED_CHUNK + 1
        insts = (base + others[:EMBED_CHUNK] + base[::-1]
                 + others[EMBED_CHUNK:2 * EMBED_CHUNK - 2 * n] + [random_instance(meta, seed=100)])
        assert len(insts) == 2 * EMBED_CHUNK + 1
        rows = embed_instances(params, cfg, insts)
        for k in range(n):
            assert np.array_equal(rows[n + EMBED_CHUNK + n - 1 - k], rows[k])
        assert np.array_equal(rows[-1], rows[0])

    def test_empty_batch(self):
        cfg, meta, params = self.setup_model()
        assert embed_instances(params, cfg, []).shape == (0, cfg.n)

    def test_single_instance_batch_is_bitwise_omega_forward(self):
        cfg, meta, params = self.setup_model()
        inst = random_instance(meta, seed=4)
        assert np.array_equal(embed_instances(params, cfg, [inst])[0],
                              omega_forward(params, cfg, inst)[0])

    def test_lstm_batch_states_per_length(self):
        cfg, meta, params = self.setup_model()
        insts = [random_instance(meta, seed=k, length=1 + k % meta.t_max) for k in range(9)]
        lengths = np.array([inst.true_len for inst in insts])
        ids = self.id_block(insts, meta.t_max)
        h_last, trace = lstm_batch(params, ids, lengths)
        assert trace.h.shape == (meta.t_max, len(insts), cfg.n_l)
        assert trace.x is ids
        for k, inst in enumerate(insts):
            h, single = lstm_forward(params, inst.seq, inst.true_len)
            np.testing.assert_allclose(h_last[k], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.gates[:inst.true_len, k], single.gates,
                                       rtol=0, atol=1e-12)
        # whatever the padding slots hold is never read
        h_other, _ = lstm_batch(params, self.id_block(insts, meta.t_max, pad=meta.r - 1), lengths)
        assert np.array_equal(h_other, h_last)

    def test_reused_buffers_are_bitwise_fresh_arrays(self):
        cfg, meta, params = self.setup_model()
        buffers = LstmBuffers(meta.t_max, 3, cfg.n_l)
        for a in vars(buffers).values():
            a.fill(np.nan)  # stale values must never reach a result
        for T, seed in ((meta.t_max, 0), (2, 1), (meta.t_max, 2)):
            insts = [random_instance(meta, seed=seed + 10 * k, length=1 + k % T) for k in range(3)]
            lengths = np.array([inst.true_len for inst in insts])
            ids = self.id_block(insts, T)
            h_ref, ref = lstm_batch(params, ids, lengths)
            h_last, trace = lstm_batch(params, ids, lengths, buffers)
            assert np.array_equal(h_last, h_ref)
            for name in ("gates", "c", "tanh_c", "h"):
                assert getattr(trace, name).shape == getattr(ref, name).shape
                assert np.array_equal(getattr(trace, name), getattr(ref, name))
                assert np.shares_memory(getattr(trace, name), getattr(buffers, name))

    def test_rejects_buffers_that_do_not_fit(self):
        cfg, meta, params = self.setup_model()
        ids, lengths = np.zeros((3, 2), dtype=np.int64), np.array([3, 1])
        for buffers in (LstmBuffers(2, 2, cfg.n_l), LstmBuffers(3, 4, cfg.n_l),
                        LstmBuffers(3, 2, cfg.n_l + 1)):
            with pytest.raises(ValueError, match="cannot hold"):
                lstm_batch(params, ids, lengths, buffers)


def test_branch_gates_table():
    assert branch_gates("both") == (1.0, 1.0)
    assert branch_gates("attributes_only") == (1.0, 0.0)
    assert branch_gates("sequence_only") == (0.0, 1.0)


def test_model_config_validation():
    with pytest.raises(ValueError, match="dimensions"):
        ModelConfig(m=0)
    with pytest.raises(ValueError, match="branch_mode"):
        ModelConfig(branch_mode="fused")
    with pytest.raises(ValueError, match="activation"):
        ModelConfig(activation="gelu")
    for bad in (20.0, 2.5, True, "20"):
        with pytest.raises(ValueError, match="must be integers"):
            ModelConfig(n_l=bad)
    assert ModelConfig(m=np.int64(2)).m == 2


class TestParamStore:
    def test_layout_order(self):
        shapes = param_shapes(tiny_cfg(m=2, n_m=5, n_l=6, n=7), tiny_meta(u=3, r=4))
        assert list(shapes) == [
            "fc0_w", "fc0_b", "fc1_w", "fc1_b",
            "w_i", "w_f", "w_o", "w_c", "u_i", "u_f", "u_o", "u_c",
            "b_i", "b_f", "b_o", "b_c", "w_p", "b_p",
        ]
        assert shapes["fc0_w"] == (5, 3) and shapes["fc1_w"] == (5, 5)
        assert shapes["w_o"] == (6, 4) and shapes["u_c"] == (6, 6) and shapes["b_f"] == (6,)
        assert shapes["w_p"] == (7, 11) and shapes["b_p"] == (7,)

    def test_every_view_is_a_slice_of_flat(self):
        cfg, meta = tiny_cfg(m=3), tiny_meta()
        params = random_params(cfg, meta)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        offset = 0
        for name, t in params.tensors().items():
            assert t.shape == params.shapes[name]
            assert np.shares_memory(t, params.flat), name
            assert np.array_equal(t.reshape(-1), params.flat[offset:offset + t.size]), name
            offset += t.size
        assert offset == params.flat.size
        for k in range(cfg.m):
            assert params.fc_w[k] is params[f"fc{k}_w"] and params.fc_b[k] is params[f"fc{k}_b"]
        for name in ("w_i", "u_f", "b_c", "w_p", "b_p"):
            assert getattr(params, name) is params[name]

    def test_writes_through_every_name(self):
        params = random_params(tiny_cfg(), tiny_meta())
        params.u_f[0, 1] = 7.0
        params["b_p"] = 1.5
        params.flat[params.flat.size - 1] = 2.5
        assert params.tensors()["u_f"][0, 1] == 7.0
        assert params.b_p[:-1].tolist() == [1.5] * (params.b_p.size - 1)
        assert params.b_p[-1] == 2.5

    def test_stacked_gate_blocks_are_views(self):
        cfg, meta = tiny_cfg(n_l=3), tiny_meta(r=4)
        params = random_params(cfg, meta)
        for kind in "wub":
            stacked = getattr(params, f"lstm_{kind}")
            gates = [params[f"{kind}_{g}"] for g in "ifoc"]
            assert stacked.shape == (12, *gates[0].shape[1:])
            assert np.shares_memory(stacked, params.flat)
            assert np.array_equal(stacked, np.concatenate(gates))
        params.lstm_u[3:6] = -1.0  # the forget gate's rows
        assert np.all(params.u_f == -1.0) and not np.any(params.u_i == -1.0)

    def test_fresh_store_is_zero(self):
        shapes = param_shapes(tiny_cfg(), tiny_meta())
        store = ModelParams(shapes)
        assert store.flat.size == sum(math.prod(s) for s in shapes.values())
        assert not store.flat.any()


def test_params_copy_is_deep():
    cfg, meta = tiny_cfg(), tiny_meta()
    params = random_params(cfg, meta)
    clone = params.copy()
    assert clone.shapes == params.shapes
    assert np.array_equal(clone.flat, params.flat)
    assert not np.shares_memory(clone.flat, params.flat)
    clone.w_p[0, 0] += 1.0
    clone.fc_w[0][0, 0] += 1.0
    assert params.w_p[0, 0] != clone.w_p[0, 0]
    assert params.fc_w[0][0, 0] != clone.fc_w[0][0, 0]
