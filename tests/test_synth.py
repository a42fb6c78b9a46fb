import numpy as np
import pytest

from fdesearch.chamfer import brute_force_topk
from fdesearch.cli import cli_main
from fdesearch.synth import SynthSpec, generate_synthetic, matched_pair, synth_gen
from fdesearch.dataio import read_mvec, read_qrels


def test_generation_is_deterministic(tmp_path):
    spec = SynthSpec(num_docs=30, num_queries=5, num_clusters=6, tokens_per_doc=4, dim=8, seed=3)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for (ia, ma), (ib, mb) in zip(a[0], b[0]):
        assert ia == ib and np.array_equal(ma, mb)
    synth_gen(spec, tmp_path / "x")
    synth_gen(spec, tmp_path / "y")
    assert (tmp_path / "x" / "corpus.mvec").read_bytes() == (tmp_path / "y" / "corpus.mvec").read_bytes()


def test_rows_are_unit_norm():
    docs, queries, _ = generate_synthetic(SynthSpec(num_docs=10, num_queries=4, seed=1))
    for _, m in docs + queries:
        assert np.allclose(np.linalg.norm(m.astype(np.float64), axis=1), 1.0, atol=1e-5)


def test_noiseless_queries_rank_their_source_first():
    # at noise zero same-cluster documents are identical, so spread the
    # documents over many clusters and check none collided for this seed
    spec = SynthSpec(num_docs=25, num_clusters=2000, tokens_per_doc=6, dim=8,
                     noise=0.0, query_noise=0.0, num_queries=10, seed=0)
    docs, queries, qrels = generate_synthetic(spec)
    corpus = [m for _, m in docs]
    assert len({m.tobytes() for m in corpus}) == len(corpus)
    for qid, Q in queries:
        top = brute_force_topk(Q, corpus, 1)
        assert top[0][0] == next(iter(qrels[qid]))


def test_default_corpus_plants_the_chamfer_nearest_neighbor():
    docs, queries, qrels = generate_synthetic(SynthSpec())
    corpus = [m for _, m in docs]
    hits = sum(1 for qid, Q in queries
               if brute_force_topk(Q, corpus, 1)[0][0] == next(iter(qrels[qid])))
    assert hits >= 95


def test_token_range_and_query_subset():
    spec = SynthSpec(num_docs=20, tokens_per_doc=(3, 9), num_queries=8, query_tokens=4, seed=5)
    docs, queries, _ = generate_synthetic(spec)
    sizes = {m.shape[0] for _, m in docs}
    assert sizes <= set(range(3, 10)) and len(sizes) > 1
    assert all(m.shape[0] == 4 for _, m in queries)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(num_clusters=0)
    with pytest.raises(ValueError):
        SynthSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(tokens_per_doc=(5, 3))
    with pytest.raises(ValueError):
        SynthSpec(doc_bias=-1.0)


@pytest.mark.parametrize("field", ["noise", "query_noise", "doc_bias"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_noise_scales_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValueError, match=field):
        SynthSpec(**{field: value})


def test_synth_cli_rejects_nan_noise(tmp_path, capsys):
    rc = cli_main(["synth", "--out", str(tmp_path), "--docs", "5", "--queries", "2", "--noise", "nan"])
    assert rc == 1
    assert "noise must be finite" in capsys.readouterr().err
    assert not (tmp_path / "corpus.mvec").exists()


def test_written_dataset_is_consistent(tmp_path):
    paths = synth_gen(SynthSpec(num_docs=15, num_queries=3, num_clusters=5, seed=8), tmp_path)
    corpus = read_mvec(paths["corpus"])
    queries = read_mvec(paths["queries"])
    qrels = read_qrels(paths["qrels"])
    assert len(corpus) == 15 and len(queries) == 3
    assert set(qrels) == {0, 1, 2}
    assert all(0 <= next(iter(v)) < 15 for v in qrels.values())
    assert "seed=8" in paths["spec"].read_text()


def test_matched_pair_shapes_and_norms():
    rng = np.random.default_rng(6)
    Q, P = matched_pair(rng, m=12, dim=16)
    assert Q.shape == (12, 16) and P.shape == (12, 16)
    assert np.allclose(np.linalg.norm(Q, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(P, axis=1), 1.0)
    # each query token is close to its own match
    assert np.all(np.sum(Q * P, axis=1) > 0.9)
