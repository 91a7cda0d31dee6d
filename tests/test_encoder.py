import math
import tracemalloc

import numpy as np
import pytest

from attrseq.data import AttributedSequence, DatasetMeta, encode
from attrseq import encoder
from attrseq.encoder import (
    BRANCH_MODES,
    EMBED_BLOCK,
    EMBED_CHUNK,
    MAX_FC_DEPTH,
    MAX_PARAM_CELLS,
    LstmBuffers,
    ModelConfig,
    ModelParams,
    branch_gates,
    embed_instances,
    fc_forward,
    init_params,
    lstm_forward,
    omega_forward,
    param_shapes,
    rows_forward,
)
from attrseq.kernel import Rng, activation, sigmoid


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


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


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

    def test_ranks_one_to_three_only(self):
        params = random_params(tiny_cfg(), tiny_meta(u=3))
        for rank in (1, 2, 3):
            assert fc_forward(params, np.zeros((1,) * (rank - 1) + (3,)))[0].shape[:-1] == (1,) * (rank - 1)
        for v in (np.zeros((1, 1, 1, 3)), np.float64(0.5)):
            with pytest.raises(ValueError, match="attribute vector"):
                fc_forward(params, v)


class TestLstmForward:
    def test_zero_params_give_zero_state(self):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = zero_params(cfg, meta)
        inst = random_instance(meta, seed=2)
        h, trace = lstm_forward(params, inst.seq, inst.true_len)
        assert not h.any()
        assert np.all(trace.gates[:, :3] == 0.5)  # i, f, o = sigma(0)

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

    @pytest.mark.parametrize("width", [50, 20])
    def test_rows_never_depend_on_position(self, width):
        # realistic widths and init, unsaturated: at the default widths a
        # fusion product of a row count that is not a multiple of 4 rounds
        # a row by its position in the last bit
        cfg = ModelConfig() if width == 50 else ModelConfig(n_m=width, n_l=width, n=width)
        meta = tiny_meta(u=8, r=30, t_max=15)
        params = init_params(cfg, meta, Rng(5))
        pool = [random_instance(meta, seed=k) for k in range(2 * EMBED_CHUNK + 1)]
        assert len({inst.true_len for inst in pool[:10]}) >= 5  # the length order matters
        gen = np.random.default_rng(width)
        for n in range(2, 2 * EMBED_CHUNK + 2):
            insts = pool[:n]
            rows = embed_instances(params, cfg, insts)
            dup = embed_instances(params, cfg, insts[:-1] + insts[:1])
            assert np.array_equal(_bits(dup[-1]), _bits(dup[0])), n
            perm = gen.permutation(n)
            permuted = embed_instances(params, cfg, [insts[k] for k in perm])
            assert np.array_equal(_bits(permuted), _bits(rows[perm])), n

    def test_empty_batch(self):
        cfg, meta, params = self.setup_model()
        assert embed_instances(params, cfg, []).shape == (0, cfg.n)

    @pytest.mark.bitwise
    def test_single_instance_batch_is_bitwise_omega_forward(self):
        cfg, meta, params = self.setup_model()
        inst = random_instance(meta, seed=4)
        assert np.array_equal(embed_instances(params, cfg, [inst])[0],
                              omega_forward(params, cfg, inst)[0])

    @pytest.mark.bitwise
    def test_traced_rows_states_per_length(self):
        cfg, meta, params = self.setup_model()
        insts = [random_instance(meta, seed=k, length=1 + k % meta.t_max) for k in range(9)]
        _, rows = rows_forward(params, cfg, insts)
        trace = rows.lstm
        assert trace.h.shape == (meta.t_max, len(insts), cfg.n_l)
        assert trace.gates.shape == (meta.t_max, 4, len(insts), cfg.n_l)  # gate-major
        assert np.array_equal(trace.x, self.id_block(insts, meta.t_max))
        for k, inst in enumerate(insts):
            h, single = lstm_forward(params, inst.seq, inst.true_len)
            assert np.array_equal(_bits(rows.concat[k, 0, cfg.n_m:]), _bits(h))
            assert np.array_equal(_bits(trace.gates[:inst.true_len, :, k]), _bits(single.gates[:, :, 0]))
        # whatever the padding slots hold is never read
        table = encoder._gate_table(params)
        other = self.id_block(insts, meta.t_max, pad=meta.r - 1)[:, :, None]
        h_other = encoder._lstm(params, table, other, rows.lstm.lengths,
                                LstmBuffers(meta.t_max, len(insts), cfg.n_l))
        assert np.array_equal(_bits(h_other[:, 0]), _bits(rows.concat[:, 0, cfg.n_m:]))

    def test_one_instance_trace_is_one_row(self):
        cfg, meta, params = self.setup_model()
        inst = random_instance(meta, seed=5, length=4)
        emb, trace = omega_forward(params, cfg, inst)
        assert emb.shape == (cfg.n,) and np.shares_memory(emb, trace.embedding)
        assert trace.embedding.shape == (1, 1, cfg.n) and trace.concat.shape == (1, 1, cfg.n_m + cfg.n_l)
        assert [a.shape for a in trace.alphas] == [(1, 1, meta.u)] + [(1, 1, cfg.n_m)] * cfg.m
        lt = trace.lstm
        assert lt.x.shape == (4, 1) and lt.gates.shape == (4, 4, 1, cfg.n_l)
        assert lt.c.shape == lt.tanh_c.shape == lt.h.shape == (4, 1, cfg.n_l)
        assert lt.lengths.tolist() == [4]
        _, single = lstm_forward(params, inst.seq, inst.true_len)
        for name in ("x", "gates", "c", "tanh_c", "h", "lengths"):
            assert getattr(single, name).shape == getattr(lt, name).shape, name

    @pytest.mark.bitwise
    def test_reused_buffers_are_bitwise_fresh_arrays(self):
        cfg, meta, params = self.setup_model()
        buffers = LstmBuffers(meta.t_max, 3, cfg.n_l)
        for a in vars(buffers).values():
            a.fill(np.nan)  # stale values must never reach a result
        for T, seed in ((meta.t_max, 0), (2, 1), (meta.t_max, 2), (1, 3)):
            insts = [random_instance(meta, seed=seed + 10 * k, length=1 + k % T) for k in range(3)]
            emb_ref, ref = rows_forward(params, cfg, insts)
            emb, rows = rows_forward(params, cfg, insts, buffers)
            assert np.array_equal(_bits(emb), _bits(emb_ref))
            for name in ("gates", "c", "tanh_c", "h"):
                got, want = getattr(rows.lstm, name), getattr(ref.lstm, name)
                assert got.shape == want.shape and len(got) == min(T, 3)
                assert np.array_equal(_bits(got), _bits(want))
                assert np.shares_memory(got, getattr(buffers, name))

    def test_buffers_above_the_cell_bound_are_refused_before_allocation(self, monkeypatch):
        # a one-item alphabet admits t_max = 4,000,000 under the one-hot
        # bound; two rows of width 50 would then need 21 GiB of buffers
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="LSTM buffers for 4000000 steps of 2 rows need "
                                                 "1600000000 values, above the limit"):
                LstmBuffers(4_000_000, 2, 50)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(encoder, "MAX_PARAM_CELLS", 4 * 2 * 50 * 10)  # the gates of 10 steps
        assert LstmBuffers(10, 2, 50).gates.shape == (10, 4, 2, 50)
        with pytest.raises(ValueError, match="LSTM buffers for 11 steps"):
            LstmBuffers(11, 2, 50)

    def test_rejects_buffers_that_do_not_fit(self):
        cfg, meta, params = self.setup_model()
        insts = [random_instance(meta, seed=1, length=3), random_instance(meta, seed=2, length=1)]
        for buffers in (LstmBuffers(2, 2, cfg.n_l), LstmBuffers(1, 2, cfg.n_l),
                        LstmBuffers(3, 4, cfg.n_l), LstmBuffers(3, 2, cfg.n_l + 1)):
            with pytest.raises(ValueError, match="cannot hold"):
                rows_forward(params, cfg, insts, buffers)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("lengths", [(1, 7), (7, 1), (7, 7), (1, 7, 4), (7, 7, 1), (1, 1)],
                             ids=["1-T", "T-1", "T-T", "1-T-4", "T-T-1", "1-1"])
    def test_lockstep_rows_are_bitwise_single_runs(self, lengths):
        cfg, meta, params = self.setup_model(t_max=7)
        insts = [random_instance(meta, seed=40 + k, length=n) for k, n in enumerate(lengths)]
        buffers = LstmBuffers(max(lengths), len(insts), cfg.n_l)  # depth 1 for the 1-1 rows
        for a in vars(buffers).values():
            a.fill(np.nan)  # stale values must never reach a result
        embeddings, rows = rows_forward(params, cfg, insts, buffers)
        assert embeddings.shape == (len(insts), 1, cfg.n)
        for k, inst in enumerate(insts):
            T = inst.true_len
            h, single = lstm_forward(params, inst.seq, T)
            assert np.array_equal(_bits(rows.concat[k, 0, cfg.n_m:]), _bits(h))
            assert np.array_equal(_bits(rows.lstm.gates[:T, :, k]), _bits(single.gates[:, :, 0]))
            for name in ("c", "tanh_c", "h"):
                assert np.array_equal(_bits(getattr(rows.lstm, name)[:T, k]),
                                      _bits(getattr(single, name)[:, 0])), name
            emb, fwd = omega_forward(params, cfg, inst)
            assert np.array_equal(_bits(embeddings[k, 0]), _bits(emb))
            assert np.array_equal(_bits(rows.concat[k]), _bits(fwd.concat[0]))
            for got, want in zip(rows.alphas, fwd.alphas):
                assert np.array_equal(_bits(got[k]), _bits(want[0]))


def _chunk_by_chunk_embed(params, cfg, instances):
    """The inference path the trace-free blocks replaced: EMBED_CHUNK rows
    at a time in length order, inputs filled instance by instance, the bias
    added after the gather, one (EMBED_CHUNK, n_l) product per step and a
    full per-step trace."""
    act = activation(cfg.activation)
    lengths = np.array([inst.true_len for inst in instances])
    order = np.argsort(lengths, kind="stable")
    size = 1 if len(instances) == 1 else EMBED_CHUNK
    n_l, r = params.lstm_u.shape[1], params.lstm_w.shape[1]
    table = params.lstm_w.reshape(4, n_l, r).transpose(0, 2, 1).reshape(4 * r, n_l)
    out = np.empty((len(instances), cfg.n))
    for start in range(0, len(instances), size):
        rows = order[start:start + size]
        chunk_lengths = np.ones(size, dtype=np.int64)
        chunk_lengths[:len(rows)] = lengths[rows]
        T = chunk_lengths.max()
        attrs, ids = np.zeros((size, instances[0].attributes.size)), np.zeros((T, size), dtype=np.int64)
        for k, row in enumerate(rows):
            attrs[k] = instances[row].attributes
            ids[:lengths[row], k] = instances[row].seq
        a_m = attrs
        for w, b in zip(params.fc_w, params.fc_b):
            a_m = act(a_m @ w.T + b)
        gates = table[ids[:, None] + r * np.arange(4)[:, None]]  # (T, 4, size, n_l)
        gates += params.lstm_b.reshape(4, 1, n_l)
        c, tanh_c, h = (np.empty((T, size, n_l)) for _ in range(3))
        h_prev, c_prev = np.zeros((size, n_l)), np.zeros((size, n_l))
        for t in range(T):
            z = h_prev @ params.lstm_u.T
            gates[t] += z.reshape(size, 4, n_l).transpose(1, 0, 2)
            gates[t, :3] = sigmoid(gates[t, :3])
            gates[t, 3] = np.tanh(gates[t, 3])
            np.multiply(gates[t, 1], c_prev, out=c[t])
            c[t] += gates[t, 0] * gates[t, 3]
            np.tanh(c[t], out=tanh_c[t])
            np.multiply(gates[t, 2], tanh_c[t], out=h[t])
            h_prev, c_prev = h[t], c[t]
        ga, gs = branch_gates(cfg.branch_mode)
        concat = np.concatenate([ga * a_m, gs * h[chunk_lengths - 1, np.arange(size)]], axis=1)
        out[rows] = act(concat @ params.w_p.T + params.b_p)[:len(rows)]
    return out


def _signed_zero_params(params):
    """A copy of params whose gate table holds -0.0 (lstm_b and lstm_w both
    -0.0 there) and whose lstm_u has all-negative rows and columns, so that
    a product from zero states adds -0.0 to some gates."""
    signed = params.copy()
    signed.lstm_b[::3] = -0.0
    signed.lstm_w[::3, ::2] = -0.0
    signed.lstm_u[::4] = -np.abs(signed.lstm_u[::4])
    signed.lstm_u[:, ::5] = -np.abs(signed.lstm_u[:, ::5])
    table = encoder._gate_table(signed)
    assert np.any((table == 0) & np.signbit(table))
    return signed


@pytest.mark.bitwise
@pytest.mark.parametrize("branch_mode", BRANCH_MODES)
@pytest.mark.parametrize("activation_name", ["tanh", "relu"])
@pytest.mark.parametrize("n_l", [1, 20, 31, 50])
def test_blocks_are_bitwise_the_chunk_by_chunk_path(n_l, activation_name, branch_mode):
    # compared on this machine only: BLAS kernels differ across CPUs, so no
    # digest of the result is pinned
    meta = tiny_meta(u=8, r=30, t_max=15)
    cfg = ModelConfig(n_l=n_l, activation=activation_name, branch_mode=branch_mode)
    params = init_params(cfg, meta, Rng(n_l))
    params.lstm_b[...] = np.random.default_rng(n_l).uniform(-0.5, 0.5, params.lstm_b.shape)
    pool = [random_instance(meta, seed=1000 * n_l + k) for k in range(300)]
    tied = [random_instance(meta, seed=k, length=7) for k in range(130)]  # one length throughout
    ones = [random_instance(meta, seed=k, length=1) for k in range(33)]  # one step: depth 1 is a trace
    for insts in [pool[:n] for n in (1, 2, 31, 32, 33, 127, 128, 129, 300)] + [tied, ones, ones[:1]]:
        got = embed_instances(params, cfg, insts)
        want = _chunk_by_chunk_embed(params, cfg, insts)
        assert np.array_equal(_bits(got), _bits(want)), len(insts)
    assert len({inst.true_len for inst in pool}) == meta.t_max  # every length, each many times
    # at t_max = 60 with every length from 1 to 60 a block's chunks retire
    # at many steps; at one length none retires; a gate table with -0.0 and
    # an lstm_u with all-negative rows and columns hold step 0 to the
    # product from zero states that the reference runs
    long = tiny_meta(u=8, r=30, t_max=60)
    params = init_params(cfg, long, Rng(n_l))
    params.lstm_b[...] = np.random.default_rng(n_l).uniform(-0.5, 0.5, params.lstm_b.shape)
    every = [random_instance(long, seed=k, length=1 + k % 60) for k in range(300)]
    single = [random_instance(long, seed=k, length=60) for k in range(129)]
    for p in (params, _signed_zero_params(params)):
        for insts in (every, every[:129], every[::7], single):
            got = embed_instances(p, cfg, insts)
            assert np.array_equal(_bits(got), _bits(_chunk_by_chunk_embed(p, cfg, insts))), len(insts)


def test_streaming_pass_steps_only_live_chunks(monkeypatch):
    # a block's chunk whose rows have all ended makes no further step, so
    # the gate pre-activations that sigmoid sees (3 * n_l per row per step)
    # come to each chunk's longest length, not the block's, times its rows
    cfg = ModelConfig(n_l=20)
    meta = tiny_meta(u=8, r=30, t_max=60)
    params = init_params(cfg, meta, Rng(3))
    seen = []
    monkeypatch.setattr(encoder, "sigmoid", lambda z, out=None: seen.append(z.size) or sigmoid(z, out))
    for pool in ([random_instance(meta, seed=k, length=1 + k % 60) for k in range(300)],
                 [random_instance(meta, seed=k) for k in range(1)]):
        seen.clear()
        embed_instances(params, cfg, pool)
        lengths = np.sort([inst.true_len for inst in pool])
        size = EMBED_CHUNK if len(pool) > 1 else 1
        chunk_max = [int(lengths[s:s + size].max()) for s in range(0, len(pool), size)]
        assert sum(seen) == 3 * cfg.n_l * size * sum(chunk_max)
        block_max = [max(chunk_max[b:b + EMBED_BLOCK]) for b in range(0, len(chunk_max), EMBED_BLOCK)]
        assert len(seen) == sum(block_max)  # one call per step of each block


def test_embed_memory_is_one_block_plus_the_output():
    cfg = ModelConfig()
    meta = tiny_meta(u=8, r=30, t_max=15)
    params = init_params(cfg, meta, Rng(2))
    pool = [random_instance(meta, seed=k) for k in range(4096)]
    # one block's arrays at the fusion, its peak, per row: the LSTM buffers
    # (12 values of width n_l) and h_last, a_m, the two gated halves, their
    # concatenation, the product, its bias sum and activation, the
    # attributes and the item ids; the gate table once per call; and an
    # index of a few words per instance (the lengths, their order and the
    # lists that build them). 64 KiB covers Python's own objects.
    rows = EMBED_BLOCK * EMBED_CHUNK
    widths = 15 * cfg.n_l + 3 * cfg.n_m + 3 * cfg.n + meta.u + meta.t_max
    block = 8 * rows * widths + 8 * 4 * meta.r * cfg.n_l
    for n in (1, 128, 129, 4096):
        embed_instances(params, cfg, pool[:n])  # warm: numpy's own first-use caches
        tracemalloc.start()
        try:
            embed_instances(params, cfg, pool[:n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * cfg.n + block + 64 * n + 2**16, (n, peak)


def test_embed_memory_of_a_long_sequence_is_its_ids():
    # a block's inputs are item ids, one int64 per row and step: two
    # instances, one of 20,000 steps, make one chunk of EMBED_CHUNK rows
    T = 20_000
    meta = tiny_meta(u=4, r=1, t_max=T)
    cfg = ModelConfig(m=1, n_m=4, n_l=4, n=4)
    params = init_params(cfg, meta, Rng(0))
    insts = [random_instance(meta, seed=0, length=T), random_instance(meta, seed=1, length=3)]
    embed_instances(params, cfg, insts)
    tracemalloc.start()
    try:
        embed_instances(params, cfg, insts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the ids, and an index of under 64 B per step (when rows end)
    assert peak <= T * (8 * EMBED_CHUNK + 64) + 2**16, peak


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
    with pytest.raises(ValueError, match=f"depth m={MAX_FC_DEPTH + 1} is above the limit of {MAX_FC_DEPTH}"):
        ModelConfig(m=MAX_FC_DEPTH + 1)
    assert len(init_params(ModelConfig(m=MAX_FC_DEPTH, n_m=1), tiny_meta(), Rng(0)).fc_w) == MAX_FC_DEPTH


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

    def test_store_above_the_cell_bound_is_refused_before_allocation(self):
        # one item id of 4,000,000 passes the one-hot limit at t_max = 1, yet
        # sizes the LSTM kernels at 800 million values
        huge = param_shapes(ModelConfig(), DatasetMeta(u=3, r=4_000_001, t_max=1,
                                                       class_ids=frozenset()))
        tracemalloc.start()
        try:
            for shapes, cells in ((huge, 800_020_750), ({"w": (MAX_PARAM_CELLS + 1,)},
                                                        MAX_PARAM_CELLS + 1)):
                with pytest.raises(ValueError, match=f"need {cells} values, above the limit"):
                    ModelParams(shapes)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_oversized_depth_is_refused_before_the_layout_is_built(self):
        # a layout of m = 10**6 would hold 2 million entries before its cells
        # were counted; the depth bound refuses the config itself
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="depth m=1000000 is above the limit"):
                init_params(ModelConfig(m=10**6), tiny_meta(u=3, r=4), Rng(0))
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

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
