import numpy as np
import pytest

from fdesearch.encoding import FdeConfig
from fdesearch.evaluation import (
    candidates_to_threshold,
    chamfer_one_nn,
    default_schedule,
    fde_rankings,
    grid_search,
    oracle_qrels,
    recall_at_n,
    reports_to_jsonl,
    reports_to_table,
    variance_study,
)
from fdesearch.synth import SynthSpec, generate_synthetic


@pytest.fixture(scope="module")
def tiny_dataset():
    docs, queries, qrels = generate_synthetic(
        SynthSpec(num_docs=80, num_queries=10, num_clusters=10, tokens_per_doc=8, dim=16, seed=4))
    corpus = [m for _, m in docs]
    qmats = [m for _, m in queries]
    qids = [i for i, _ in queries]
    return corpus, qmats, qids, qrels


def test_perfect_run_scores_one():
    run = {0: [5, 1], 1: [7, 2]}
    qrels = {0: {5: 1}, 1: {7: 1}}
    assert recall_at_n(run, qrels, 1).value == 1.0


def test_missing_relevant_scores_zero():
    run = {0: [1, 2, 3]}
    qrels = {0: {9: 1}}
    assert recall_at_n(run, qrels, 3).value == 0.0


def test_recall_matches_hand_computed_mean():
    run = {0: [1, 2, 3, 4], 1: [9, 8, 7, 6], 2: [5, 5, 5, 0]}
    qrels = {0: {2: 1, 7: 1}, 1: {8: 2}, 2: {0: 1}}
    # per query at N=3: |{2}|/2, |{8}|/1, |{}|/1 -> (0.5 + 1.0 + 0.0) / 3
    expected = (0.5 + 1.0 + 0.0) / 3
    assert recall_at_n(run, qrels, 3).value == pytest.approx(expected)


def test_queries_without_judgements_are_skipped_and_counted():
    run = {0: [1], 1: [2], 2: [3]}
    qrels = {0: {1: 1}, 2: {}}
    report = recall_at_n(run, qrels, 1)
    assert report.value == 1.0
    assert report.num_queries == 1
    assert report.num_skipped == 2


def test_recall_is_monotone_in_n():
    rng = np.random.default_rng(1)
    run = {q: rng.permutation(50).tolist() for q in range(8)}
    qrels = {q: {int(rng.integers(0, 50)): 1, int(rng.integers(0, 50)): 1} for q in range(8)}
    values = [recall_at_n(run, qrels, n).value for n in (1, 3, 10, 25, 50)]
    assert values == sorted(values)


def test_recall_input_validation():
    with pytest.raises(ValueError):
        recall_at_n({}, {0: {1: 1}}, 5)
    with pytest.raises(ValueError):
        recall_at_n({0: [1]}, {0: {1: 1}}, 0)


def test_one_recall_full_depth_is_always_one(tiny_dataset):
    corpus, qmats, qids, _ = tiny_dataset
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=2, seed=0)
    run = fde_rankings(corpus, qmats, cfg)
    one_nn = chamfer_one_nn(qmats, corpus)
    assert recall_at_n(run, oracle_qrels(one_nn), len(corpus)).value == 1.0


def test_one_recall_at_one_for_identical_rankings():
    one_nn = {0: 4, 1: 2}
    run = {0: [4, 1], 1: [2, 9]}
    assert recall_at_n(run, oracle_qrels(one_nn), 1).value == 1.0


def test_one_recall_matches_argmax_agreement_count(tiny_dataset):
    corpus, qmats, qids, _ = tiny_dataset
    cfg = FdeConfig(dim=16, k_sim=2, d_proj=4, r_reps=1, seed=3)
    run = fde_rankings(corpus, qmats, cfg)
    one_nn = chamfer_one_nn(qmats, corpus)
    agreements = sum(1 for q in qids if run[q][0] == one_nn[q])
    assert recall_at_n(run, oracle_qrels(one_nn), 1).value == pytest.approx(agreements / len(qids))


def test_single_config_grid(tiny_dataset):
    corpus, qmats, qids, qrels = tiny_dataset
    rows = grid_search(corpus, qmats, qrels, [(2, 3, 4)], [10])
    assert len(rows) == 1
    assert rows[0].fde_dim == 2 * 8 * 4
    assert rows[0].pareto is True


def test_dominated_grid_row_is_flagged(tiny_dataset):
    corpus, qmats, qids, _ = tiny_dataset
    one_nn = chamfer_one_nn(qmats, corpus)
    rows = grid_search(corpus, qmats, oracle_qrels(one_nn),
                       [(1, 2, 4), (4, 3, 8)], [5])
    by_dim = {r.fde_dim: r for r in rows}
    small, large = by_dim[16], by_dim[256]
    if large.recalls[5] > small.recalls[5]:
        assert large.pareto is True
    if small.recalls[5] < large.recalls[5]:
        # the small config is only pareto if nothing at <= its dim beats it
        assert small.pareto is True  # nothing smaller exists
    assert [r.fde_dim for r in rows] == sorted(r.fde_dim for r in rows)


def test_grid_requires_inputs(tiny_dataset):
    corpus, qmats, qids, qrels = tiny_dataset
    with pytest.raises(ValueError):
        grid_search(corpus, qmats, qrels, [], [10])
    with pytest.raises(ValueError):
        grid_search(corpus, qmats, qrels, [(1, 2, 4)], [])


def test_variance_study_reports_spread(tiny_dataset):
    corpus, qmats, qids, qrels = tiny_dataset
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=2, seed=6)
    rep = variance_study(corpus, qmats, qrels, cfg, 3, [5, 10])
    assert rep.seeds == (6, 7, 8)
    for n in (5, 10):
        assert len(rep.per_seed[n]) == 3
        assert rep.mean[n] == pytest.approx(np.mean(rep.per_seed[n]))
        assert rep.std[n] == pytest.approx(np.std(rep.per_seed[n], ddof=1))
    with pytest.raises(ValueError):
        variance_study(corpus, qmats, qrels, cfg, 1, [5])


def test_threshold_table_basics():
    run_good = {0: [1], 1: [2]}
    qrels = {0: {1: 1}, 1: {2: 1}}
    rows = candidates_to_threshold({"good": run_good}, qrels, [0.8], schedule=[1, 2, 3])
    assert rows[0].candidates == 1
    rows = candidates_to_threshold({"bad": {0: [9], 1: [9]}}, qrels, [0.5], schedule=[1, 2])
    assert rows[0].candidates is None
    with pytest.raises(ValueError):
        candidates_to_threshold({"m": run_good}, qrels, [0.5], schedule=[])
    with pytest.raises(ValueError):
        candidates_to_threshold({"m": run_good}, qrels, [1.5])


def test_default_schedule_shape():
    sched = default_schedule()
    assert sched[:10] == list(range(10, 101, 10))
    assert sched[10] == 200 and sched[-1] == 10_000


def test_report_serialization_round_trip():
    reports = [recall_at_n({0: [1]}, {0: {1: 1}}, 1, fingerprint="abc123")]
    jsonl = reports_to_jsonl(reports)
    assert '"fingerprint": "abc123"' in jsonl
    table = reports_to_table(reports)
    assert "abc123" in table and "recall" in table
