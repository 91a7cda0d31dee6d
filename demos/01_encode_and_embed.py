"""Walk through the data model: records, item-id encoding, and the encoder.

Run with: python demos/01_encode_and_embed.py
"""

import numpy as np

from attrseq import AttributedSequence, DatasetMeta, ModelConfig, Rng, encode, init_params, omega_forward

# A record pairs a fixed-length attribute vector with a variable-length
# sequence of item ids. Think user profile + clickstream.
rec = AttributedSequence(
    attributes=np.array([0.3, -1.2, 0.8]),
    items=[2, 0, 3, 1],
    label=5,
)
meta = DatasetMeta(u=3, r=4, t_max=6, class_ids=frozenset({5}))

# Encoding checks the record against meta and keeps the item ids; the LSTM
# reads item t as the one-hot row x_t, so it gathers column x_t of its input
# kernel instead of storing a (t_max, r) one-hot matrix.
inst = encode(rec, meta)
print("item ids:", inst.seq, inst.seq.dtype)
print("true_len:", inst.true_len)

# The encoder maps (attributes, sequence) to an n-dimensional embedding.
cfg = ModelConfig(m=2, n_m=8, n_l=8, n=8)
params = init_params(cfg, meta, Rng(0))
embedding, trace = omega_forward(params, cfg, inst)
print("\nembedding:", np.round(embedding, 4))

# Padding is neutral: growing t_max never changes the encoding or the embedding.
wider = DatasetMeta(u=3, r=4, t_max=12, class_ids=frozenset({5}))
embedding_wide, _ = omega_forward(params, cfg, encode(rec, wider))
print("padding neutrality:", np.array_equal(embedding, embedding_wide))

# Ablation modes zero one branch while keeping the embedding shape.
for mode in ("both", "attributes_only", "sequence_only"):
    mcfg = ModelConfig(m=2, n_m=8, n_l=8, n=8, branch_mode=mode)
    emb, _ = omega_forward(params, mcfg, inst)
    print(f"{mode:>15}: first three dims {np.round(emb[:3], 4)}")
