import tracemalloc

import pytest

from fdesearch import cli
from fdesearch.chamfer import brute_force_topk
from fdesearch.cli import cli_main
from fdesearch.dataio import read_mvec, read_qrels, read_run


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = cli_main(["synth", "--out", str(out), "--docs", "60", "--queries", "8",
                   "--clusters", "12", "--seed", "4"])
    assert rc == 0
    return out


def test_synth_outputs(dataset_dir):
    corpus = read_mvec(dataset_dir / "corpus.mvec")
    assert len(corpus) == 60
    assert len(read_qrels(dataset_dir / "qrels.tsv")) == 8


def test_build_query_eval_round_trip(dataset_dir, tmp_path, capsys):
    index = tmp_path / "index.mvix"
    rc = cli_main(["build", "--corpus", str(dataset_dir / "corpus.mvec"), "--out", str(index),
                   "--k-sim", "3", "--d-proj", "8", "--reps", "4", "--seed", "1"])
    assert rc == 0

    run_path = tmp_path / "run.tsv"
    rc = cli_main(["query", "--index", str(index), "--corpus", str(dataset_dir / "corpus.mvec"),
                   "--queries", str(dataset_dir / "queries.mvec"), "--out", str(run_path),
                   "--k-candidates", "60", "--final-k", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert all(f"{stage}=" in printed for stage in ("fde_gen", "mips", "carve", "rerank"))

    meta, run = read_run(run_path)
    assert meta["k_candidates"] == "60"
    assert "seed" in meta and "fingerprint" in meta

    # exhaustive candidates + rerank must equal the brute-force oracle
    corpus = read_mvec(dataset_dir / "corpus.mvec")
    queries = read_mvec(dataset_dir / "queries.mvec")
    mats = [m for _, m in corpus]
    ids = [i for i, _ in corpus]
    for qid, Q in queries:
        expected = brute_force_topk(Q, mats, 5, doc_ids=ids)
        got = run[qid]
        assert [d for d, _ in got] == [d for d, _ in expected]

    rc = cli_main(["eval", "--run", str(run_path), "--qrels", str(dataset_dir / "qrels.tsv"),
                   "--n", "1,5", "--out", str(tmp_path / "report.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recall" in out
    assert (tmp_path / "report.jsonl").read_text().count("\n") == 2


def test_inspect_reports_dimension_arithmetic(dataset_dir, tmp_path, capsys):
    index = tmp_path / "index.mvix"
    rc = cli_main(["build", "--corpus", str(dataset_dir / "corpus.mvec"), "--out", str(index),
                   "--k-sim", "5", "--d-proj", "16", "--reps", "20"])
    assert rc == 0
    rc = cli_main(["inspect", str(index)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fde_dim      = 10240" in out
    assert "k_sim        = 5" in out
    assert "d_proj       = 16" in out
    assert "r_reps       = 20" in out


def test_build_with_pq_and_config_file(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "build.cfg"
    cfg.write_text("k_sim=3\nr_reps=4\nd_proj=8\npq=16:8\nseed=2\n", encoding="utf-8")
    index = tmp_path / "pq.mvix"
    rc = cli_main(["build", "--corpus", str(dataset_dir / "corpus.mvec"),
                   "--out", str(index), "--config", str(cfg), "--reps", "5"])
    assert rc == 0
    rc = cli_main(["inspect", str(index)])
    out = capsys.readouterr().out
    assert "storage      = pq" in out
    assert "r_reps       = 5" in out  # flag overrides the config file
    assert "seed         = 2" in out


def test_baseline_sv_run(dataset_dir, tmp_path):
    run_path = tmp_path / "sv.tsv"
    rc = cli_main(["baseline", "sv", "--corpus", str(dataset_dir / "corpus.mvec"),
                   "--queries", str(dataset_dir / "queries.mvec"),
                   "--out", str(run_path), "--k-per-query", "3"])
    assert rc == 0
    meta, run = read_run(run_path)
    assert meta["method"] == "sv_heuristic"
    assert int(meta["floats_scanned"]) > 0
    queries = read_mvec(dataset_dir / "queries.mvec")
    for qid, Q in queries:
        assert len(run[qid]) == Q.shape[0] * 3


def test_cli_error_paths(tmp_path, capsys):
    assert cli_main(["inspect", str(tmp_path / "missing.mvec")]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli_main(["build", "--corpus", "x", "--out", "y", "--bogus-flag"]) == 2
    # query has no thread pool: --workers is an unknown flag, rejected before any file is read
    assert cli_main(["query", "--index", "i", "--corpus", "c", "--queries", "q", "--out", "o", "--workers", "2"]) == 2
    assert cli_main([]) == 2


def test_kmeans_build_releases_its_training_pool_before_build_index(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--docs", "400", "--tokens", "64", "--queries", "1"]) == 0
    stack = sum(m.nbytes for _, m in read_mvec(data / "corpus.mvec"))  # 3.3 MB of float32 tokens
    held = []
    build_index = cli.build_index

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return build_index(*args, **kwargs)

    monkeypatch.setattr(cli, "build_index", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rc = cli_main(["build", "--corpus", str(data / "corpus.mvec"), "--out", str(tmp_path / "km.mvix"),
                       "--partitioner", "kmeans", "--kmeans-b", "4", "--reps", "2"])
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the records read from the corpus file are held when build_index starts; a second stack of them is not
    assert held[0] - before < 1.5 * stack
