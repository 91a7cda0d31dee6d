import numpy as np
import pytest

from attrseq import episodes
from attrseq.data import DatasetMeta, encode_labeled, generate_synthetic
from attrseq.encoder import embed_instances, init_params, omega_forward
from attrseq.episodes import build_episode, classify, evaluate
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


def nearest_class(kind, support, q_emb):
    """The per-query reference: the smallest (distance, class_id) over the
    (embedding, class_id) support pairs, so ties go to the smaller id."""
    return min((distance(kind, q_emb, emb), c) for emb, c in support)[1]


def classify_pairs(kind, support, q_embs):
    """classify over (embedding, class_id) support pairs."""
    return classify(kind, np.array([emb for emb, _ in support]), [c for _, c in support],
                    np.array(q_embs)).tolist()


def reference_per_run(params, cfg, kind, pool, g, n_queries, n_runs, seed):
    """evaluate's accuracies the slow way: a fresh single-instance forward
    for every support exemplar and query of every run, scored inline one
    distance at a time."""
    root = Rng(seed)
    per_run = []
    for run in range(n_runs):
        ep = build_episode(pool, g, n_queries, root.child(f"run{run}"))
        support = embed_pairs(params, cfg, ep.support)
        correct = 0
        for q, truth in ep.queries:
            correct += nearest_class(kind, support, omega_forward(params, cfg, q)[0]) == truth
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
        query = np.zeros((1, 1))
        for kind in ("euclidean", "manhattan"):
            assert classify(kind, np.array([[0.3], [0.1], [0.5]]), [7, 2, 9], query).tolist() == [2]
            # tie -> smaller id
            assert classify(kind, np.array([[0.25], [-0.25]]), [9, 4], query).tolist() == [4]

    def test_label_set_closure(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 4, 12, Rng(5))
        support = embed_pairs(params, cfg, ep.support)
        support_classes = {c for _, c in ep.support}
        q_embs = [q_emb for q_emb, _ in embed_pairs(params, cfg, ep.queries)]
        assert set(classify_pairs("euclidean", support, q_embs)) <= support_classes

    def test_query_identical_to_support(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 4, 6, Rng(6))
        support = embed_pairs(params, cfg, ep.support)
        emb, truth = support[2]
        assert classify_pairs("euclidean", support, [emb]) == [truth]

    def test_tie_goes_to_smaller_class_id(self):
        emb, far = np.zeros(3), np.ones(3)
        support = [(emb, 7), (far, 1), (emb.copy(), 3)]
        for kind in ("euclidean", "manhattan"):
            assert classify_pairs(kind, support, [emb, far]) == [3, 1]
            assert classify_pairs(kind, support[::-1], [emb, far]) == [3, 1]

    def test_support_order_invariance(self):
        pool, meta = make_pool()
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=4)
        ep = build_episode(pool, 5, 10, Rng(7))
        support = embed_pairs(params, cfg, ep.support)
        q_embs = [q_emb for q_emb, _ in embed_pairs(params, cfg, ep.queries)]
        assert (classify_pairs("euclidean", support, q_embs)
                == classify_pairs("euclidean", support[::-1], q_embs))

    @pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
    def test_matches_scalar_distance_reference(self, kind):
        # Supports whose offsets from the anchor query are permutations of
        # one another are equally far in exact arithmetic, so the last bit of
        # each distance decides; an exact duplicate gives a true tie, and one
        # query sits on a support (zero distance).
        gen = np.random.default_rng(3)
        last_bit_decided = 0
        for trial in range(60):
            n, g = int(gen.integers(5, 60)), int(gen.integers(2, 9))
            anchor = gen.normal(size=n)
            supports = gen.normal(size=(g, n))
            for k in range(1, g - 1):
                supports[k] = anchor + gen.permutation(supports[0] - anchor)
            supports[-1] = supports[0]
            queries = np.vstack([anchor, anchor + 1e-3 * gen.normal(size=(6, n)), supports[1]])
            classes = [int(c) for c in gen.permutation(20)[:g]]
            support = list(zip(supports, classes))
            assert classify_pairs(kind, support, queries) == [
                nearest_class(kind, support, emb) for emb in queries]
            last_bit_decided += len({distance(kind, anchor, emb) for emb in supports}) > 1
        assert last_bit_decided > 20

    def test_rejects_unknown_distance(self):
        with pytest.raises(ValueError, match="unknown distance kind"):
            classify("cosine", np.zeros((2, 3)), [0, 1], np.zeros((1, 3)))

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

        def counting_embed(params, cfg, instances):
            embedded.extend(id(inst) for inst in instances)
            return embed_instances(params, cfg, instances)

        monkeypatch.setattr(episodes, "embed_instances", counting_embed)
        monkeypatch.setattr(episodes, "omega_forward", None)  # no single-instance forwards
        evaluate(params, cfg, "euclidean", pool, 3, 5, 4, seed=8)
        root = Rng(8)
        drawn = set()
        for run in range(4):
            ep = build_episode(pool, 3, 5, root.child(f"run{run}"))
            drawn.update(ep.support_idx + ep.query_idx)
        assert sorted(embedded) == sorted(id(pool[i][0]) for i in drawn)
        assert len(drawn) < len(pool)  # undrawn instances are never embedded

    def test_scores_each_run_in_one_classify_call(self, monkeypatch):
        pool, meta = make_pool(per_class=10)
        cfg = tiny_cfg()
        params = random_params(cfg, meta, seed=2)
        calls = []

        def counting_classify(kind, support_embeddings, support_classes, query_embeddings):
            calls.append(len(query_embeddings))
            return classify(kind, support_embeddings, support_classes, query_embeddings)

        monkeypatch.setattr(episodes, "classify", counting_classify)
        evaluate(params, cfg, "euclidean", pool, 3, 7, 5, seed=4)
        assert calls == [7] * 5
