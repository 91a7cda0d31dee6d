"""G-way one-shot episodes over classes the model never trained on.

An episode holds one support exemplar per class plus a batch of queries
drawn (without replacement) from the remaining instances of those classes.
A query takes the class of its nearest support embedding; exact distance
ties go to the smaller class id so evaluation is order-independent.

An embedding depends only on its instance, so `evaluate` draws every run's
episode first and embeds each distinct pool instance the episodes touch
exactly once; the runs then score queries against those embeddings.
Instances no episode draws are never embedded.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import omega_forward
from .gradients import distance
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


def nearest_class(scored) -> int:
    """argmin over (distance, class_id); ties resolve to the smaller id."""
    return min(scored)[1]


def classify(kind, support_embeddings, query_embedding) -> int:
    """Label a query embedding with the class of its nearest support
    embedding; `support_embeddings` holds (embedding, class_id) pairs."""
    return nearest_class([(distance(kind, query_embedding, emb), c)
                          for emb, c in support_embeddings])


def evaluate(params, cfg, kind, pool, g, n_queries, n_runs, seed) -> EvalReport:
    """Repeat independent episodes and aggregate accuracy quartiles.

    Each run draws a fresh support set and fresh queries from its own child
    stream, so run k is reproducible regardless of the other runs. Each
    distinct pool instance the runs draw is embedded once.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    root = Rng(seed)
    episodes = [build_episode(pool, g, n_queries, root.child(f"run{run}"))
                for run in range(n_runs)]
    drawn = sorted({i for ep in episodes for i in ep.support_idx + ep.query_idx})
    embedded = {i: omega_forward(params, cfg, pool[i][0])[0] for i in drawn}
    per_run = []
    for ep in episodes:
        support = [(embedded[i], c) for i, (_, c) in zip(ep.support_idx, ep.support)]
        correct = sum(
            classify(kind, support, embedded[i]) == truth
            for i, (_, truth) in zip(ep.query_idx, ep.queries)
        )
        per_run.append(correct / n_queries)
    p25, median, p75 = (float(x) for x in np.percentile(per_run, [25, 50, 75]))
    return EvalReport(
        g=g, n_queries=n_queries, n_runs=n_runs, distance=kind,
        per_run=per_run, median=median, p25=p25, p75=p75,
    )
