"""Config and spec files read by the CLI: one schema, unknown keys rejected."""

import pytest

from fdesearch.cli import cli_main
from fdesearch.dataio import read_index, read_run


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli_main(["synth", "--out", str(out), "--docs", "40", "--queries", "4",
                     "--clusters", "8", "--seed", "6"]) == 0
    return out / "corpus.mvec"


def build(corpus_path, tmp_path, text, *flags, name="index"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / f"{name}.mvix"
    return cli_main(["build", "--corpus", str(corpus_path), "--out", str(out), "--config", str(cfg), *flags]), out


def test_build_config_uses_the_printed_parameter_names(corpus_path, tmp_path, capsys):
    text = "k_sim=3\nd_proj=8\nr_reps=2\nd_final=None\nfill_empty=False\npartitioner=simhash\nseed=5\n"
    rc, out = build(corpus_path, tmp_path, text)
    assert rc == 0
    cfg = read_index(out).config
    assert (cfg.k_sim, cfg.proj_dim, cfg.r_reps, cfg.d_final, cfg.fill_empty, cfg.seed) == (3, 8, 2, None, False, 5)
    capsys.readouterr()
    assert cli_main(["inspect", str(out)]) == 0
    printed = capsys.readouterr().out
    # the inspect lines, minus the index-only ones, are themselves a valid preset
    keys = ("dim", "k_sim", "d_proj", "r_reps", "d_final", "fill_empty", "partitioner", "seed")
    lines = [ln.strip().replace(" ", "") for ln in printed.splitlines() if ln.strip().split(" ")[0] in keys]
    assert len(lines) == len(keys)
    rc, again = build(corpus_path, tmp_path, "\n".join(lines) + "\n", name="again")
    assert rc == 0
    assert read_index(again).fingerprint == read_index(out).fingerprint


def test_build_flags_win_over_r_reps_and_kmeans_preset(corpus_path, tmp_path):
    rc, out = build(corpus_path, tmp_path, "r_reps=2\npartitioner=kmeans\nkmeans_b=4\n", "--reps", "3")
    assert rc == 0
    cfg = read_index(out).config
    assert cfg.r_reps == 3 and cfg.partitioner == "kmeans" and cfg.num_clusters == 4


@pytest.mark.parametrize("text", ["r_reps=2\nd_porj=4\n", "k_sim=three\n", "fill_empty=maybe\n",
                                  "reps=2\nr_reps=3\n", "kmeans_partitioners=1\n", "pq=16\n"])
def test_build_config_rejects_unknown_keys_and_bad_values(corpus_path, tmp_path, capsys, text):
    rc, out = build(corpus_path, tmp_path, text)
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_query_run_meta_names_every_config_parameter(corpus_path, tmp_path):
    rc, index = build(corpus_path, tmp_path, "k_sim=2\nr_reps=2\n")
    assert rc == 0
    run = tmp_path / "run.tsv"
    assert cli_main(["query", "--index", str(index), "--corpus", str(corpus_path),
                     "--queries", str(corpus_path.parent / "queries.mvec"), "--out", str(run)]) == 0
    meta, _ = read_run(run)
    assert {k: meta[k] for k in ("dim", "k_sim", "d_proj", "r_reps", "d_final", "fill_empty", "partitioner", "seed")} == {
        "dim": "32", "k_sim": "2", "d_proj": "32", "r_reps": "2", "d_final": "None",
        "fill_empty": "True", "partitioner": "simhash", "seed": "0"}


def test_synth_spec_reads_back_a_written_synth_cfg(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli_main(["synth", "--out", str(first), "--docs", "30", "--queries", "5", "--clusters", "4",
                     "--tokens", "3:9", "--query-tokens", "2", "--doc-bias", "0.03", "--seed", "11"]) == 0
    assert cli_main(["synth", "--out", str(second), "--spec", str(first / "synth.cfg")]) == 0
    for name in ("corpus.mvec", "queries.mvec", "qrels.tsv", "synth.cfg"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("line", ["num_doc=30", "noise=loud", "tokens_per_doc=3:4:5"])
def test_synth_spec_rejects_unknown_keys_and_bad_values(tmp_path, capsys, line):
    spec = tmp_path / "synth.cfg"
    spec.write_text(line + "\n", encoding="utf-8")
    assert cli_main(["synth", "--out", str(tmp_path / "out"), "--spec", str(spec)]) == 1
    assert "error:" in capsys.readouterr().err
