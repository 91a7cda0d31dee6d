"""G-way one-shot episodes over classes the model never trained on.

An episode is the pool indices of one support exemplar per class and of
queries drawn (without replacement) from the other instances of those classes.
A query takes the class of its nearest support embedding; exact distance
ties go to the smaller class id so evaluation is order-independent.

An embedding depends only on its instance, so `evaluate` draws every run's
episode first and embeds each distinct pool instance the episodes touch
exactly once, in blocks through the trace-free encoder pass. Instances no
episode draws are never embedded. Each run is then scored in one vectorized
pass over its support x query distance block, with values bitwise equal to
`gradients.distance` pair by pair; its rows and labels are looked up in two
index arrays, by pool index.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .data import group_by_class
from .encoder import embed_instances
from .encoder import omega_forward  # noqa: F401  (bench/tracer.py wraps it here)
from .gradients import distance
from .kernel import Rng


@dataclass
class Episode:
    support_idx: list  # pool index of each support instance, one per class
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
        return {("G" if key == "g" else key): value for key, value in asdict(self).items()}


def build_episode(pool, g: int, n_queries: int, rng: Rng, by_class=None) -> Episode:
    """Draw a G-way episode from a pool of labeled instances.

    Support exemplars are excluded from the query pool, and queries only come
    from the G chosen classes. ``by_class`` is the pool's
    `group_by_class`, for a caller that draws many episodes from one pool.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    if by_class is None:
        by_class = group_by_class(pool)
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
    picks = gen.choice(len(remaining), size=n_queries, replace=False).tolist()
    query_idx = [remaining[i] for i in picks]
    return Episode(support_idx, query_idx)


def classify(kind, support_embeddings, support_classes, query_embeddings) -> np.ndarray:
    """Label each query embedding (rows of a (Q, n) array) with the class of
    its nearest support embedding ((G, n), one row per entry of
    `support_classes`); exact distance ties go to the smaller class id.

    The distance block is one `gradients.distance` call, support-major
    (G, Q): its (G, Q, n) difference is G slabs of contiguous query-sized
    rows, which numpy forms faster than the query-major (Q, G, n) one, and
    each value is still bitwise that of the query and support pair alone.
    """
    order = np.argsort(support_classes, kind="stable")  # argmin keeps the first of a tie
    classes = np.asarray(support_classes)[order]
    queries, supports = np.asarray(query_embeddings), np.asarray(support_embeddings)[order]
    return classes[np.argmin(distance(kind, queries[None, :, :], supports[:, None, :]), axis=0)]


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
    by_class = group_by_class(pool)
    episodes = [build_episode(pool, g, n_queries, root.child(f"run{run}"), by_class)
                for run in range(n_runs)]
    drawn = np.unique(np.concatenate([ep.support_idx + ep.query_idx for ep in episodes]))
    rows = embed_instances(params, cfg, [pool[i] for i in drawn.tolist()])
    # a pool index's embedding row, and every pool instance's label
    row_of = np.zeros(len(pool), dtype=np.intp)
    row_of[drawn] = np.arange(drawn.size)
    labels = np.array([inst.label for inst in pool], dtype=np.int64)
    per_run = []
    for ep in episodes:
        support, queries = np.array(ep.support_idx), np.array(ep.query_idx)
        predicted = classify(kind, rows[row_of[support]], labels[support], rows[row_of[queries]])
        per_run.append(int(np.count_nonzero(predicted == labels[queries])) / n_queries)
    p25, median, p75 = (float(x) for x in np.percentile(per_run, [25, 50, 75]))
    return EvalReport(
        g=g, n_queries=n_queries, n_runs=n_runs, distance=kind,
        per_run=per_run, median=median, p25=p25, p75=p75,
    )
