"""End-to-end run on data whose class signal lives only in item ordering:
attributes are pure noise, so any accuracy gain comes from the recurrent
branch learning the per-class transition structure.

Run with: python demos/03_train_and_evaluate.py  (about 15 seconds)
"""

import numpy as np

from attrseq import (
    DatasetMeta,
    ModelConfig,
    Rng,
    TrainConfig,
    encode_labeled,
    encode_triplets,
    evaluate,
    generate_synthetic,
    init_params,
    sample_triplets,
    split_by_class,
    train,
)

records = generate_synthetic(classes=8, per_class=80, u=4, r=8, t_max=12,
                             attr_noise=2.0, seq_noise=0.02, seed=55)
meta = DatasetMeta(u=4, r=8, t_max=12, class_ids=frozenset(range(8)))
rng = Rng(9)

# Classes are split disjointly: the evaluation classes are never trained on.
train_records, oneshot_records = split_by_class(records, 0.6, rng.child("split"))
print(f"train classes:    {sorted({r.label for r in train_records})}")
print(f"one-shot classes: {sorted({r.label for r in oneshot_records})}")

pool = encode_labeled(oneshot_records, meta)
cfg = ModelConfig(n_m=24, n_l=24, n=24)
params = init_params(cfg, meta, rng.child("init"))

before = evaluate(params, cfg, "euclidean", pool, g=3, n_queries=150, n_runs=8, seed=1)
print(f"\nbefore training: mean accuracy {np.mean(before.per_run):.3f} "
      f"(3-way chance is 0.333)")

triplets = encode_triplets(
    sample_triplets(train_records, 800, rng.child("trips")), meta
)
trained, report = train(params, cfg, triplets, TrainConfig(max_epochs=30, seed=3))
print(f"trained {len(report.val_losses)} epochs ({report.stop_reason}), "
      f"val loss {report.val_losses[0]:.4f} -> {report.val_losses[report.best_epoch - 1]:.4f}")

after = evaluate(trained, cfg, "euclidean", pool, g=3, n_queries=150, n_runs=8, seed=1)
print(f"after training:  mean accuracy {np.mean(after.per_run):.3f} "
      f"(median {after.median:.3f}, p25 {after.p25:.3f}, p75 {after.p75:.3f})")
