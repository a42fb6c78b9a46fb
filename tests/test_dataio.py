import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdesearch.cli import cli_main
from fdesearch.dataio import (
    inspect_path,
    read_config_file,
    read_index,
    read_mvec,
    read_qrels,
    read_run,
    read_text_embeddings,
    write_config_file,
    write_index,
    write_mvec,
    write_qrels,
    write_run,
)
from fdesearch.encoding import FdeConfig, with_kmeans_partitions
from fdesearch.engine import PqSpec, build_index, mips_search, query
from fdesearch.synth import SynthSpec, generate_synthetic


def unit_rows(rng, m, d):
    x = rng.standard_normal((m, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def test_single_token_round_trip(tmp_path):
    path = tmp_path / "one.mvec"
    write_mvec(path, [(7, np.array([[1.0, 0.0]], dtype=np.float32))])
    records = read_mvec(path)
    assert records[0][0] == 7
    assert np.array_equal(records[0][1], np.array([[1.0, 0.0]], dtype=np.float32))


def test_random_corpus_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(1)
    records = [(i * 3 + 1, unit_rows(rng, int(rng.integers(1, 9)), 6)) for i in range(100)]
    path = tmp_path / "c.mvec"
    write_mvec(path, records)
    loaded = read_mvec(path)
    assert len(loaded) == 100
    for (i1, m1), (i2, m2) in zip(records, loaded):
        assert i1 == i2
        assert m1.tobytes() == m2.tobytes()
    # rewriting what was read reproduces identical bytes
    path2 = tmp_path / "c2.mvec"
    write_mvec(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_reports_offset(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.mvec"
    write_mvec(path, [(0, unit_rows(rng, 4, 8))])
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(ValueError, match=r"truncated.*offset"):
        read_mvec(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.mvec"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        read_mvec(path)
    rng = np.random.default_rng(3)
    good = tmp_path / "good.mvec"
    write_mvec(good, [(0, unit_rows(rng, 2, 4))])
    data = bytearray(good.read_bytes())
    data[4] = 99
    good.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version"):
        read_mvec(good)


def test_normalize_on_read(tmp_path):
    path = tmp_path / "n.mvec"
    write_mvec(path, [(0, np.array([[3.0, 4.0]], dtype=np.float32))])
    records = read_mvec(path, normalize=True)
    assert np.allclose(records[0][1], [[0.6, 0.8]], atol=1e-6)


def test_text_import(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("0 1.0 0.0\n0 0.0 1.0\n3 0.5 0.5\n", encoding="utf-8")
    records = read_text_embeddings(path)
    assert [i for i, _ in records] == [0, 3]
    assert records[0][1].shape == (2, 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0\n1 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mixed dimensions"):
        read_text_embeddings(bad)


def test_qrels_round_trip(tmp_path):
    qrels = {0: {3: 1, 5: 2}, 2: {1: 1}}
    path = tmp_path / "q.tsv"
    write_qrels(path, qrels)
    assert read_qrels(path) == qrels
    bad = tmp_path / "bad.tsv"
    bad.write_text("1\t2\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="grade"):
        read_qrels(bad)


def test_run_round_trip_with_meta(tmp_path):
    run = {0: [(4, 1.25), (2, 0.5)], 1: [(9, 3.0)]}
    path = tmp_path / "r.tsv"
    write_run(path, run, meta={"seed": 7, "k_candidates": 50})
    meta, loaded = read_run(path)
    assert meta["seed"] == "7"
    assert loaded[0] == [(4, 1.25), (2, 0.5)]
    assert loaded[1] == [(9, 3.0)]


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "c.cfg"
    write_config_file(path, {"k_sim": 5, "seed": 3})
    assert read_config_file(path) == {"k_sim": "5", "seed": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a config line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_config_file(bad)


@pytest.fixture(scope="module")
def corpus_records():
    docs, _, _ = generate_synthetic(SynthSpec(num_docs=40, num_queries=2, num_clusters=8,
                                              tokens_per_doc=6, dim=16, seed=9))
    return docs


def test_dense_index_round_trip(tmp_path, corpus_records):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path = tmp_path / "dense.mvix"
    write_index(path, index)
    # byte-identical rebuild
    index2 = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path2 = tmp_path / "dense2.mvix"
    write_index(path2, index2)
    assert path.read_bytes() == path2.read_bytes()

    loaded = read_index(path, corpus_records=corpus_records)
    assert loaded.fingerprint == index.fingerprint
    assert np.array_equal(loaded.dense, index.dense)
    assert np.array_equal(loaded.doc_ids, index.doc_ids)
    res = query(loaded, corpus_records[0][1], k_candidates=10, final_k=3)
    assert len(res.ranking) == 3
    # a written copy of the loaded index is identical to the original file
    path3 = tmp_path / "dense3.mvix"
    write_index(path3, loaded)
    assert path3.read_bytes() == path.read_bytes()


def test_pq_index_round_trip(tmp_path, corpus_records):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=4, seed=2)  # 128 dims
    index = build_index([m for _, m in corpus_records], cfg, pq=PqSpec(c=16, g=4))
    path = tmp_path / "pq.mvix"
    write_index(path, index)
    loaded = read_index(path)
    assert np.array_equal(loaded.codes, index.codes)
    assert np.array_equal(loaded.codebook.centers, index.codebook.centers)
    assert np.array_equal(loaded.codebook.effective_c, index.codebook.effective_c)
    q = np.zeros(128)
    q[3] = 1.0
    assert mips_search(loaded, q, 5) == mips_search(index, q, 5)


def test_kmeans_index_round_trip(tmp_path, corpus_records):
    mats = [m for _, m in corpus_records]
    tokens = np.vstack(mats)
    cfg = with_kmeans_partitions(FdeConfig(dim=16, d_proj=4, r_reps=2, seed=5), tokens, b=8)
    index = build_index(mats, cfg)
    path = tmp_path / "km.mvix"
    write_index(path, index)
    loaded = read_index(path)
    assert loaded.fingerprint == index.fingerprint
    assert loaded.config.kmeans_partitioners is not None
    for a, b in zip(loaded.config.kmeans_partitioners, cfg.kmeans_partitioners):
        assert np.array_equal(a.centers, b.centers)


def test_corrupt_index_header_is_rejected(tmp_path, corpus_records):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg)
    path = tmp_path / "x.mvix"
    write_index(path, index)
    data = bytearray(path.read_bytes())
    pos = data.find(b'"seed":2')
    data[pos:pos + 8] = b'"seed":3'
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="fingerprint"):
        read_index(path)


def test_index_requires_matching_corpus(tmp_path, corpus_records):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path = tmp_path / "x.mvix"
    write_index(path, index)
    with pytest.raises(ValueError, match="missing"):
        read_index(path, corpus_records=corpus_records[:5])


def test_inspect_summaries(tmp_path, corpus_records):
    mpath = tmp_path / "c.mvec"
    write_mvec(mpath, corpus_records)
    assert "mvec file" in inspect_path(mpath)

    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg)
    ipath = tmp_path / "i.mvix"
    write_index(ipath, index)
    info = inspect_path(ipath)
    assert "k_sim        = 3" in info
    assert "fde_dim      = 96" in info

    qpath = tmp_path / "q.tsv"
    write_qrels(qpath, {0: {1: 1}})
    assert "qrels" in inspect_path(qpath)

    rpath = tmp_path / "r.tsv"
    write_run(rpath, {0: [(1, 0.5)]}, meta={"seed": 1})
    assert "run file" in inspect_path(rpath)


def test_duplicate_corpus_ids_are_rejected(tmp_path, corpus_records):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path = tmp_path / "x.mvix"
    write_index(path, index)
    twice = corpus_records + [(corpus_records[3][0], corpus_records[7][1])]
    with pytest.raises(ValueError, match="repeat"):
        read_index(path, corpus_records=twice)


def _split_index(data: bytes):
    (length,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[12:12 + length]), data[12 + length:]


def _join_index(header, payload: bytes) -> bytes:
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"MVIX" + struct.pack("<II", 1, len(hdr)) + hdr + payload


def test_header_with_unresolved_d_proj_reads_back(tmp_path, corpus_records):
    # files that stored the config field as given keep d_proj (and d_final) null
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=None, r_reps=4, seed=2)
    index = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path = tmp_path / "x.mvix"
    write_index(path, index)
    header, payload = _split_index(path.read_bytes())
    assert header["config"]["d_proj"] == 16 and header["config"]["d_final"] is None
    header["config"]["d_proj"] = None
    old = tmp_path / "old.mvix"
    old.write_bytes(_join_index(header, payload))
    loaded = read_index(old)
    assert loaded.fingerprint == index.fingerprint == "dc54f33ada6c640e"
    q = np.zeros(index.fde_dim)
    q[::7] = 1.0
    assert [d for d, _ in mips_search(loaded, q, 10)] == [d for d, _ in mips_search(index, q, 10)]


@pytest.fixture(scope="module")
def index_files(tmp_path_factory, corpus_records):
    out = tmp_path_factory.mktemp("indexes")
    mats = [m for _, m in corpus_records]
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=4, seed=2)
    kmeans = with_kmeans_partitions(FdeConfig(dim=16, d_proj=4, r_reps=2, seed=5), np.vstack(mats), b=4)
    files = {}
    for name, index in (("dense", build_index(mats, cfg)),
                        ("pq", build_index(mats, cfg, pq=PqSpec(c=16, g=4))),
                        ("kmeans", build_index(mats, dataclasses.replace(kmeans, d_final=20)))):
        write_index(out / f"{name}.mvix", index)
        files[name] = (out / f"{name}.mvix").read_bytes()
    return files


def _header_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _header_paths(value, prefix + (key,))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_malformed_header_raises_value_error(index_files, data):
    kind = data.draw(st.sampled_from(sorted(index_files)))
    header, payload = _split_index(index_files[kind])
    where = data.draw(st.sampled_from(list(_header_paths(header))))
    parent = header
    for key in where[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[where[-1]]
    else:
        old = parent[where[-1]]
        parent[where[-1]] = data.draw(st.sampled_from(
            [v for v in ("x", 1.5, True, 3, [1], {"k": 1}) if type(v) is not type(old)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.mvix"
        path.write_bytes(_join_index(header, payload))
        with pytest.raises(ValueError):
            read_index(path)
        assert cli_main(["inspect", str(path)]) == 1
