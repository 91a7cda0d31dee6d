"""G-way one-shot episodes over classes the model never trained on.

An episode holds one support exemplar per class plus a batch of queries
drawn (without replacement) from the remaining instances of those classes.
A query takes the class of its nearest support embedding; exact distance
ties go to the smaller class id so evaluation is order-independent.

An embedding depends only on its instance, so `evaluate` draws every run's
episode first and embeds each distinct pool instance the episodes touch
exactly once, in chunks through the batched encoder kernel. Instances no
episode draws are never embedded. Each run is then scored in one vectorized
pass over its query x support distance block, with values bitwise equal to
`gradients.distance` pair by pair.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import embed_instances
from .encoder import omega_forward  # noqa: F401  (bench/tracer.py wraps it here)
from .gradients import DISTANCE_KINDS
from .kernel import Rng


@dataclass
class Episode:
    support: list  # (EncodedInstance, class_id), one entry per class
    queries: list  # (EncodedInstance, true class_id)
    support_idx: list  # pool index of each support entry
    query_idx: list  # pool index of each query


@dataclass
class EvalReport:
    g: int
    n_queries: int
    n_runs: int
    distance: str
    per_run: list
    median: float
    p25: float
    p75: float

    def to_dict(self):
        return {
            "G": self.g,
            "n_queries": self.n_queries,
            "n_runs": self.n_runs,
            "distance": self.distance,
            "per_run": self.per_run,
            "median": self.median,
            "p25": self.p25,
            "p75": self.p75,
        }


def build_episode(pool, g: int, n_queries: int, rng: Rng) -> Episode:
    """Draw a G-way episode from (instance, label) pairs.

    Support exemplars are excluded from the query pool, and queries only come
    from the G chosen classes.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    by_class = {}
    for idx, (_, label) in enumerate(pool):
        by_class.setdefault(label, []).append(idx)
    classes = sorted(by_class)
    if len(classes) < g:
        raise ValueError(f"a {g}-way episode needs {g} classes, pool has {len(classes)}")
    gen = rng.gen
    chosen = [classes[i] for i in gen.choice(len(classes), size=g, replace=False)]

    support_idx = [by_class[c][gen.integers(len(by_class[c]))] for c in chosen]
    remaining = [i for c, s in zip(chosen, support_idx) for i in by_class[c] if i != s]
    if len(remaining) < n_queries:
        raise ValueError(
            f"need {n_queries} queries but only {len(remaining)} instances remain "
            f"outside the support set"
        )
    query_idx = [remaining[i] for i in gen.choice(len(remaining), size=n_queries, replace=False)]
    return Episode([pool[i] for i in support_idx], [pool[i] for i in query_idx],
                   support_idx, query_idx)


def classify(kind, support_embeddings, support_classes, query_embeddings) -> np.ndarray:
    """Label each query embedding (rows of a (Q, n) array) with the class of
    its nearest support embedding ((G, n), one row per entry of
    `support_classes`); exact distance ties go to the smaller class id.

    Distances are bitwise those of `gradients.distance(kind, query, support)`:
    the euclidean inner products go through one BLAS dot per pair, as
    `np.dot` does for two vectors, and the manhattan sums reduce the same
    contiguous rows.
    """
    order = np.argsort(support_classes, kind="stable")  # argmin keeps the first of a tie
    classes = np.asarray(support_classes)[order]
    queries, supports = np.asarray(query_embeddings), np.asarray(support_embeddings)[order]
    diff = queries[:, None, :] - supports[None, :, :]
    if kind == "euclidean":
        dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]))[..., 0, 0]
    elif kind == "manhattan":
        dist = np.abs(diff).sum(axis=-1)
    else:
        raise ValueError(f"unknown distance kind {kind!r}, expected one of {DISTANCE_KINDS}")
    return classes[np.argmin(dist, axis=1)]


def evaluate(params, cfg, kind, pool, g, n_queries, n_runs, seed) -> EvalReport:
    """Repeat independent episodes and aggregate accuracy quartiles.

    Each run draws a fresh support set and fresh queries from its own child
    stream, so run k is reproducible regardless of the other runs. Each
    distinct pool instance the runs draw is embedded once, and each run is
    scored with one `classify` call.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    root = Rng(seed)
    episodes = [build_episode(pool, g, n_queries, root.child(f"run{run}"))
                for run in range(n_runs)]
    drawn = sorted({i for ep in episodes for i in ep.support_idx + ep.query_idx})
    rows = embed_instances(params, cfg, [pool[i][0] for i in drawn])
    row_of = {i: k for k, i in enumerate(drawn)}
    per_run = []
    for ep in episodes:
        predicted = classify(kind, rows[[row_of[i] for i in ep.support_idx]],
                             [c for _, c in ep.support],
                             rows[[row_of[i] for i in ep.query_idx]])
        correct = int(np.count_nonzero(predicted == [truth for _, truth in ep.queries]))
        per_run.append(correct / n_queries)
    p25, median, p75 = (float(x) for x in np.percentile(per_run, [25, 50, 75]))
    return EvalReport(
        g=g, n_queries=n_queries, n_runs=n_runs, distance=kind,
        per_run=per_run, median=median, p25=p25, p75=p75,
    )
