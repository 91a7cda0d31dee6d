import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attrseq.data import (
    DatasetMeta,
    Triplet,
    encode_triplets,
    generate_synthetic,
    sample_triplets,
    split_by_class,
)
from attrseq.encoder import ModelConfig, init_params, omega_forward, param_shapes
from attrseq.gradients import distance, pair_loss
from attrseq.kernel import Rng
from attrseq.training import (
    CheckpointError,
    ShapeMismatchError,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    check_meta_compatible,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics,
)

from test_encoder import random_instance, random_params, tiny_cfg, tiny_meta

DEMO_RUN = Path(__file__).resolve().parents[1] / "demo_run"


def small_dataset(seed=0, classes=4, per_class=12):
    records = generate_synthetic(classes=classes, per_class=per_class, u=3, r=4,
                                 t_max=5, attr_noise=0.05, seq_noise=0.05, seed=seed)
    meta = DatasetMeta(u=3, r=4, t_max=5, class_ids=frozenset(range(classes)))
    return records, meta


def small_triplets(n=24, seed=0):
    records, meta = small_dataset(seed=seed)
    trips = sample_triplets(records, n, Rng(seed + 1))
    return encode_triplets(trips, meta), meta


def assert_params_equal(a, b):
    for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
        assert na == nb
        assert np.array_equal(ta, tb), na


def test_zero_learning_rate_leaves_params_bitwise_unchanged():
    triplets, meta = small_triplets()
    cfg = tiny_cfg()
    params = random_params(cfg, meta, seed=5)
    before = params.copy()
    tcfg = TrainConfig(lr=0.0, l2=0.0, max_epochs=4, seed=1)
    after, report = train(params, cfg, triplets, tcfg)
    assert_params_equal(after, before)
    assert_params_equal(params, before)  # caller's params never mutated


def test_single_clipped_triplet_converges_at_epoch_two():
    cfg, meta = tiny_cfg(), tiny_meta()
    params = random_params(cfg, meta, seed=3)
    inst_i = random_instance(meta, seed=1)
    inst_j = random_instance(meta, seed=2)
    e_i, _ = omega_forward(params, cfg, inst_i)
    e_j, _ = omega_forward(params, cfg, inst_j)
    d = distance("euclidean", e_i, e_j)
    assert d > 0
    tcfg = TrainConfig(lr=0.05, l2=0.0, margin=d * 0.5, max_epochs=10, seed=0)
    after, report = train(params, cfg, [Triplet(inst_i, inst_j, 1)], tcfg)
    assert report.stop_reason == "converged"
    assert len(report.val_losses) == 2
    assert report.val_losses == [0.0, 0.0]
    assert_params_equal(after, params)


def test_training_reduces_validation_loss_on_separable_data():
    records, meta = small_dataset(seed=7, classes=4, per_class=25)
    trips = encode_triplets(sample_triplets(records, 400, Rng(2)), meta)
    cfg = ModelConfig(m=2, n_m=8, n_l=8, n=8)
    params = init_params(cfg, meta, Rng(3))
    tcfg = TrainConfig(lr=0.05, max_epochs=6, patience=8, converge_eps=0.0, seed=4)
    _, report = train(params, cfg, trips, tcfg)
    assert report.val_losses[-1] < report.val_losses[0]
    assert report.n_train + report.n_val == 400
    assert report.n_val == 80  # 20% holdout


def test_sequence_signal_is_learned():
    """End-to-end: when attributes are pure noise, one-shot accuracy on
    unseen classes rises well above the untrained encoder, so the gain can
    only come from the LSTM branch learning item-order structure."""
    from attrseq.data import encode_labeled
    from attrseq.episodes import evaluate

    records = generate_synthetic(classes=8, per_class=80, u=4, r=8, t_max=12,
                                 attr_noise=2.0, seq_noise=0.02, seed=55)
    meta = DatasetMeta(u=4, r=8, t_max=12, class_ids=frozenset(range(8)))
    rng = Rng(9)
    train_recs, oneshot_recs = split_by_class(records, 0.6, rng.child("split"))
    pool = encode_labeled(oneshot_recs, meta)
    cfg = ModelConfig(n_m=24, n_l=24, n=24)

    params0 = init_params(cfg, meta, rng.child("init"))
    before = evaluate(params0, cfg, "euclidean", pool, 3, 150, 8, seed=1)
    trips = encode_triplets(sample_triplets(train_recs, 800, rng.child("trips")), meta)
    trained, _ = train(params0, cfg, trips, TrainConfig(max_epochs=30, seed=3))
    after = evaluate(trained, cfg, "euclidean", pool, 3, 150, 8, seed=1)

    mean_before = float(np.mean(before.per_run))
    mean_after = float(np.mean(after.per_run))
    assert mean_before < 0.55
    assert mean_after > 0.65
    assert mean_after > mean_before + 0.15


def test_training_deterministic():
    triplets, meta = small_triplets(n=30, seed=9)
    cfg = tiny_cfg()
    params = init_params(cfg, meta, Rng(11))
    tcfg = TrainConfig(lr=0.02, max_epochs=3, patience=10, converge_eps=0.0, seed=21)
    out1, rep1 = train(params, cfg, triplets, tcfg)
    out2, rep2 = train(params, cfg, triplets, tcfg)
    assert_params_equal(out1, out2)
    assert rep1.train_losses == rep2.train_losses
    assert rep1.val_losses == rep2.val_losses
    assert rep1.best_epoch == rep2.best_epoch


def test_best_epoch_bookkeeping():
    triplets, meta = small_triplets(n=40, seed=13)
    cfg = tiny_cfg()
    params = init_params(cfg, meta, Rng(1))
    tcfg = TrainConfig(lr=0.05, max_epochs=6, patience=6, converge_eps=0.0, seed=2)
    best, report = train(params, cfg, triplets, tcfg)
    assert report.stop_reason in ("max_epochs", "patience", "converged")
    best_val = report.val_losses[report.best_epoch - 1]
    assert all(best_val <= v for v in report.val_losses)


def test_l2_shrinks_weights_on_clipped_triplets_only():
    cfg, meta = tiny_cfg(), tiny_meta()
    params = random_params(cfg, meta, seed=3)
    inst_i = random_instance(meta, seed=1)
    inst_j = random_instance(meta, seed=2)
    e_i, _ = omega_forward(params, cfg, inst_i)
    e_j, _ = omega_forward(params, cfg, inst_j)
    d = distance("euclidean", e_i, e_j)
    tcfg = TrainConfig(lr=0.1, l2=0.01, margin=d * 0.25, max_epochs=1,
                       converge_eps=0.0, patience=5, seed=0)
    after, _ = train(params, cfg, [Triplet(inst_i, inst_j, 1)], tcfg)
    for name, t in after.tensors().items():
        before = params.tensors()[name]
        if name.startswith("b_") or name.endswith("_b"):
            assert np.array_equal(t, before), name
        else:
            assert np.linalg.norm(t) < np.linalg.norm(before), name
            # one decay step of (1 - lr*l2)
            assert np.allclose(t, before * (1 - 0.1 * 0.01), rtol=1e-15), name


def test_zero_distance_dissimilar_tally():
    cfg, meta = tiny_cfg(), tiny_meta()
    params = random_params(cfg, meta, seed=3)
    inst = random_instance(meta, seed=1)
    tcfg = TrainConfig(lr=0.01, l2=0.0, max_epochs=5, seed=0)
    _, report = train(params, cfg, [Triplet(inst, inst, 1)], tcfg)
    assert report.stop_reason == "converged"
    assert report.zero_distance_dissimilar == 2  # one per epoch, stopped at 2


def test_divergence_aborts_with_location():
    triplets, meta = small_triplets(n=6, seed=1)
    cfg = tiny_cfg(m=2, activation="relu")
    params = random_params(cfg, meta, seed=5)
    params.fc_w[0][...] = 1e200
    params.fc_w[1][...] = 1e200
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        with np.errstate(over="ignore", invalid="ignore"):
            train(params, cfg, triplets, TrainConfig(seed=0))


def test_train_rejects_empty_triplets():
    cfg, meta = tiny_cfg(), tiny_meta()
    params = random_params(cfg, meta)
    with pytest.raises(ValueError, match="no triplets"):
        train(params, cfg, [], TrainConfig(seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError, match="val_fraction"):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(margin=0.0)
    with pytest.raises(ValueError, match="distance"):
        TrainConfig(distance="cosine")
    for field, bad in (("max_epochs", 2.5), ("patience", True), ("seed", "3")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: bad})
    for field, bad in (("lr", "0.01"), ("margin", True), ("l2", None), ("lr", float("nan")),
                       ("converge_eps", float("inf"))):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            TrainConfig(**{field: bad})
    assert TrainConfig(lr=1, max_epochs=np.int64(3)).max_epochs == 3


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_cfg(m=2, n_m=5, n_l=6, n=7)
        meta = tiny_meta(u=3, r=4, t_max=5)
        meta = DatasetMeta(u=3, r=4, t_max=5, class_ids=frozenset({1, 4, 9}))
        params = random_params(cfg, meta, seed=31)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, meta, path, train_info={"distance": "manhattan"})
        loaded, cfg2, meta2, info = load_checkpoint(path)
        assert_params_equal(loaded, params)
        assert cfg2 == cfg
        assert meta2 == meta
        assert info["distance"] == "manhattan"

    def test_truncated_file_is_corrupt(self, tmp_path):
        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, meta, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, meta, path)
        env = json.loads(path.read_text())
        env["version"] = 99
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_tensor_shape_corruption(self, tmp_path):
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        params = random_params(cfg, meta)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, cfg, meta, path)
        env = json.loads(path.read_text())
        env["tensors"]["w_p"]["data"] = env["tensors"]["w_p"]["data"][:-1]
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="w_p"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        [0.0, 1.0], {"data": [0.0]}, {"shape": 4},
        {"shape": [4], "data": [[0.5]] * 4}, {"shape": [4], "data": [10**400] * 4},
        {"shape": [4], "data": [True] * 4},
    ], ids=["list", "no-shape", "scalar-shape", "nested-data", "huge-int-data", "bool-data"])
    def test_malformed_tensor_entry(self, tmp_path, entry):
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        path = tmp_path / "ckpt.json"
        save_checkpoint(random_params(cfg, meta), cfg, meta, path)
        env = json.loads(path.read_text())
        env["tensors"]["b_p"] = entry
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="tensor b_p"):
            load_checkpoint(path)

    def test_meta_beyond_one_hot_limit(self, tmp_path):
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        path = tmp_path / "ckpt.json"
        save_checkpoint(random_params(cfg, meta), cfg, meta, path)
        env = json.loads(path.read_text())
        env["meta"]["r"] = 10**12
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="one-hot size"):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored_shapes", ["kept", "matching"])
    def test_config_beyond_stored_tensors(self, tmp_path, stored_shapes):
        # a store of the claimed size would take petabytes: the stored
        # tensors are checked against the layout before anything is allocated
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        path = tmp_path / "ckpt.json"
        save_checkpoint(random_params(cfg, meta), cfg, meta, path)
        env = json.loads(path.read_text())
        env["config"]["n_l"] = 10**7
        if stored_shapes == "matching":
            for name, shape in param_shapes(ModelConfig(**env["config"]), meta).items():
                env["tensors"][name]["shape"] = list(shape)
        path.write_text(json.dumps(env))
        match = "has shape" if stored_shapes == "kept" else "carries 16 values"
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("block, key, value, match", [
        ("meta", "class_ids", ["a"], "class_ids must be integers"),
        ("meta", "class_ids", [1, 2**63, 2**63 + 2], "class_ids must be integers"),
        ("config", "m", 10**5, "two tensors per layer, m=100000"),
        (None, "tensors", 5, "'tensors' must be an object"),
    ], ids=["string-class-id", "class-id-above-int64", "m-beyond-stored-tensors",
            "tensors-not-object"])
    def test_malformed_envelope_is_corrupt(self, tmp_path, block, key, value, match):
        # m sizes the layout's loop, so a file with fewer tensors than m is
        # refused before the layout is built
        import json

        cfg, meta = tiny_cfg(), tiny_meta()
        path = tmp_path / "ckpt.json"
        save_checkpoint(random_params(cfg, meta), cfg, meta, path)
        env = json.loads(path.read_text())
        (env if block is None else env[block])[key] = value
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_demo_checkpoint_resaves_byte_identical(self, tmp_path):
        params, cfg, meta, info = load_checkpoint(DEMO_RUN / "model.json")
        save_checkpoint(params, cfg, meta, tmp_path / "model.json", train_info=info)
        assert (tmp_path / "model.json").read_bytes() == (DEMO_RUN / "model.json").read_bytes()

    def test_fresh_default_checkpoint_bytes_are_pinned(self, tmp_path):
        # init_params' draws and the checkpoint format, frozen as one digest.
        # The orthogonal init's QR goes through LAPACK, whose last bits depend
        # on OpenBLAS's kernel, so the digest is taken under one named kernel
        # (Haswell, which any AVX2 machine runs) with one BLAS thread.
        path = tmp_path / "init.json"
        code = "\n".join([
            "import sys",
            "from attrseq.data import DatasetMeta",
            "from attrseq.encoder import ModelConfig, init_params",
            "from attrseq.kernel import Rng",
            "from attrseq.training import save_checkpoint",
            "meta = DatasetMeta(u=10, r=12, t_max=15, class_ids=frozenset(range(10)))",
            "save_checkpoint(init_params(ModelConfig(), meta, Rng(0)), ModelConfig(), meta,",
            "                sys.argv[1])",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "018c568e593bffb6ad3d9f5b8d881b36ede3507ac708049d5c5747d1fad41716"

    def test_meta_guard_rejects_wrong_u(self):
        ckpt_meta = DatasetMeta(u=5, r=4, t_max=6, class_ids=frozenset())
        data_meta = DatasetMeta(u=6, r=4, t_max=6, class_ids=frozenset())
        with pytest.raises(ShapeMismatchError, match="u=6"):
            check_meta_compatible(ckpt_meta, data_meta)
        # smaller datasets fit a bigger checkpoint
        check_meta_compatible(ckpt_meta, DatasetMeta(u=5, r=3, t_max=2, class_ids=frozenset()))
        with pytest.raises(ShapeMismatchError, match="t_max"):
            check_meta_compatible(ckpt_meta, DatasetMeta(u=5, r=4, t_max=9, class_ids=frozenset()))


def test_write_metrics(tmp_path):
    report = TrainReport(train_losses=[0.5, 0.25], val_losses=[0.6, 0.3])
    path = tmp_path / "metrics.csv"
    write_metrics(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"
    assert len(lines) == 3
