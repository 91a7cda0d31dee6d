import numpy as np
import pytest

from attrseq import episodes
from attrseq.data import DatasetMeta, encode_labeled, generate_synthetic
from attrseq.encoder import init_params, omega_forward
from attrseq.episodes import build_episode, classify, evaluate, nearest_class
from attrseq.gradients import distance
from attrseq.kernel import Rng

from test_encoder import random_params, tiny_cfg


def make_pool(classes=5, per_class=8, seed=0, u=3, r=4, t_max=5):
    records = generate_synthetic(classes=classes, per_class=per_class, u=u, r=r,
                                 t_max=t_max, attr_noise=0.1, seq_noise=0.1, seed=seed)
    meta = DatasetMeta(u=u, r=r, t_max=t_max, class_ids=frozenset(range(classes)))
    return encode_labeled(records, meta), meta


def embed_pairs(params, cfg, pairs):
    """(instance, class_id) pairs -> (embedding, class_id) pairs."""
    return [(omega_forward(params, cfg, inst)[0], c) for inst, c in pairs]


def reference_per_run(params, cfg, kind, pool, g, n_queries, n_runs, seed):
    """evaluate's accuracies the slow way: a fresh forward for every support
    exemplar and query of every run, scored inline."""
    root = Rng(seed)
    per_run = []
    for run in range(n_runs):
        ep = build_episode(pool, g, n_queries, root.child(f"run{run}"))
        support = embed_pairs(params, cfg, ep.support)
        correct = 0
        for q, truth in ep.queries:
            q_emb = omega_forward(params, cfg, q)[0]
            correct += nearest_class([(distance(kind, q_emb, emb), c) for emb, c in support]) == truth
        per_run.append(correct / n_queries)
    return per_run


def duplicated_pool(classes=4, copies=4, seed=0):
    """Every class holds the same instances, so supports of different classes
    can embed identically and queries meet exact distance ties."""
    base, meta = make_pool(classes=2, per_class=copies, seed=seed)
    return [(inst, c) for c in range(classes) for inst, _ in base[:copies]], meta


class TestBuildEpisode:
    def test_structure(self):
        pool, _ = make_pool()
        ep = build_episode(pool, g=4, n_queries=10, rng=Rng(3))
        support_classes = [c for _, c in ep.support]
        assert len(support_classes) == len(set(support_classes)) == 4
        support_ids = {id(inst) for inst, _ in ep.support}
        for inst, truth in ep.queries:
            assert truth in support_classes
            assert id(inst) not in support_ids
        assert len(ep.queries) == 10
        for idx, pairs in ((ep.support_idx, ep.support), (ep.query_idx, ep.queries)):
            assert all(pool[i][0] is inst for i, (inst, _) in zip(idx, pairs))

    def test_deterministic(self):
        pool, _ = make_pool()
        a = build_episode(pool, 3, 6, Rng(9))
        b = build_episode(pool, 3, 6, Rng(9))
        assert [c for _, c in a.support] == [c for _, c in b.support]
        assert [(id(i), c) for i, c in a.queries] == [(id(i), c) for i, c in b.queries]

    def test_insufficient_classes(self):
        pool, _ = make_pool(classes=3)
        with pytest.raises(ValueError, match="needs 5 classes, pool has 3"):
            build_episode(pool, 5, 4, Rng(0))

    def test_insufficient_queries(self):
        pool, _ = make_pool(classes=3, per_class=2)
        # 3 chosen classes leave 3 non-support instances
        with pytest.raises(ValueError, match="only 3 instances remain"):
            build_episode(pool, 3, 4, Rng(0))

    def test_protocol_scale_episode(self):
        # one-shot side of the smallest tabled layout: 4 ways, 2000 queries
        pool, _ = make_pool(classes=4, per_class=510, seed=1)
        ep = build_episode(pool, 4, 2000, Rng(2))
        assert len(ep.queries) == 2000
        assert len(ep.support) == 4


class TestClassify:
    def test_nearest_class_argmin_and_ties(self):
        assert nearest_class([(0.3, 7), (0.1, 2), (0.5, 9)]) == 2
        assert nearest_class([(0.25, 9), (0.25, 4)]) == 4  # tie -> smaller id

    def test_label_set_closure(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 4, 12, Rng(5))
        support = embed_pairs(params, cfg, ep.support)
        support_classes = {c for _, c in ep.support}
        for q_emb, _ in embed_pairs(params, cfg, ep.queries):
            assert classify("euclidean", support, q_emb) in support_classes

    def test_query_identical_to_support(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 4, 6, Rng(6))
        support = embed_pairs(params, cfg, ep.support)
        emb, truth = support[2]
        assert classify("euclidean", support, emb) == truth

    def test_tie_goes_to_smaller_class_id(self):
        emb, far = np.zeros(3), np.ones(3)
        support = [(emb, 7), (far, 1), (emb.copy(), 3)]
        for kind in ("euclidean", "manhattan"):
            assert classify(kind, support, emb) == 3
            assert classify(kind, support[::-1], emb) == 3

    def test_support_order_invariance(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 5, 10, Rng(7))
        support = embed_pairs(params, cfg, ep.support)
        for q_emb, _ in embed_pairs(params, cfg, ep.queries):
            assert (classify("euclidean", support, q_emb)
                    == classify("euclidean", support[::-1], q_emb))

    def test_one_way_episode_is_always_correct(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        report = evaluate(params, cfg, "euclidean", pool, g=1, n_queries=5,
                          n_runs=3, seed=0)
        assert report.per_run == [1.0, 1.0, 1.0]


class TestEvaluate:
    def test_single_run_quartiles_collapse(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=1)
        report = evaluate(params, cfg, "euclidean", pool, g=3, n_queries=9,
                          n_runs=1, seed=5)
        assert report.median == report.p25 == report.p75 == report.per_run[0]

    def test_report_invariants(self):
        pool, meta = make_pool(per_class=12)
        cfg = tiny_cfg()
        params = init_params(cfg, meta, Rng(2))
        report = evaluate(params, cfg, "manhattan", pool, g=4, n_queries=20,
                          n_runs=6, seed=3)
        assert report.p25 <= report.median <= report.p75
        assert all(0.0 <= a <= 1.0 for a in report.per_run)
        assert report.g == 4 and report.n_queries == 20 and report.n_runs == 6
        assert report.distance == "manhattan"

    def test_deterministic_given_seed(self):
        pool, meta = make_pool(per_class=10)
        cfg = tiny_cfg()
        params = init_params(cfg, meta, Rng(2))
        r1 = evaluate(params, cfg, "euclidean", pool, 4, 15, 4, seed=11)
        r2 = evaluate(params, cfg, "euclidean", pool, 4, 15, 4, seed=11)
        assert r1.per_run == r2.per_run

    def test_to_dict_keys(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = init_params(cfg, meta, Rng(2))
        payload = evaluate(params, cfg, "euclidean", pool, 2, 4, 2, seed=0).to_dict()
        assert set(payload) == {"G", "n_queries", "n_runs", "distance", "per_run",
                                "median", "p25", "p75"}

    def test_untrained_chance_level_on_label_free_data(self):
        # labels shuffled away from content: nearest-support is a fair coin
        records = generate_synthetic(classes=4, per_class=60, u=3, r=4, t_max=5,
                                     attr_noise=0.1, seq_noise=0.1, seed=21)
        labels = [rec.label for rec in records]
        Rng(99).gen.shuffle(labels)
        for rec, lab in zip(records, labels):
            rec.label = lab
        meta = DatasetMeta(u=3, r=4, t_max=5, class_ids=frozenset(range(4)))
        pool = encode_labeled(records, meta)
        cfg = tiny_cfg()
        params = init_params(cfg, meta, Rng(6))
        report = evaluate(params, cfg, "euclidean", pool, g=4, n_queries=100,
                          n_runs=10, seed=7)
        assert abs(float(np.mean(report.per_run)) - 0.25) < 0.1

    @pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("g", [1, 3, 4])
    def test_matches_per_query_reference(self, kind, g):
        pool, meta = make_pool(per_class=10)
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=3)
        report = evaluate(params, cfg, kind, pool, g, 6, 5, seed=13)
        assert report.per_run == reference_per_run(params, cfg, kind, pool, g, 6, 5, seed=13)

    @pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
    def test_matches_reference_under_distance_ties(self, kind):
        pool, meta = duplicated_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=5)
        # some draws tie, and the tie decides whether the query is right: its
        # own class shares the nearest distance with another class
        root, deciding_ties = Rng(0), 0
        for run in range(20):
            ep = build_episode(pool, 4, 5, root.child(f"run{run}"))
            support = embed_pairs(params, cfg, ep.support)
            for q_emb, truth in embed_pairs(params, cfg, ep.queries):
                d = [distance(kind, q_emb, emb) for emb, _ in support]
                nearest = [c for dist, (_, c) in zip(d, support) if dist == min(d)]
                deciding_ties += len(nearest) > 1 and truth in nearest
        assert deciding_ties
        report = evaluate(params, cfg, kind, pool, 4, 5, 20, seed=0)
        assert report.per_run == reference_per_run(params, cfg, kind, pool, 4, 5, 20, seed=0)

    def test_embeds_each_drawn_instance_once(self, monkeypatch):
        pool, meta = make_pool(classes=6, per_class=30)
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=2)
        embedded = []

        def counting_forward(params, cfg, inst):
            embedded.append(id(inst))
            return omega_forward(params, cfg, inst)

        monkeypatch.setattr(episodes, "omega_forward", counting_forward)
        evaluate(params, cfg, "euclidean", pool, 3, 5, 4, seed=8)
        root = Rng(8)
        drawn = set()
        for run in range(4):
            ep = build_episode(pool, 3, 5, root.child(f"run{run}"))
            drawn.update(ep.support_idx + ep.query_idx)
        assert sorted(embedded) == sorted(id(pool[i][0]) for i in drawn)
        assert len(drawn) < len(pool)  # undrawn instances are never embedded
