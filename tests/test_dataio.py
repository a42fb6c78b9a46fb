import dataclasses
import json
import struct
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fdesearch import dataio
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
from fdesearch.encoding import FdeConfig, config_params, with_kmeans_partitions
from fdesearch.engine import FdeIndex, PqSpec, build_index, mips_search, query
from fdesearch.partition import KMeansPartitioner
from fdesearch.pq import PqCodebook
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


def test_text_and_mvec_normalize_alike(tmp_path, capsys):
    rows = np.array([[3.0, 4.0], [1.0, 2.0], [0.1, -0.7]], dtype=np.float32)
    text = tmp_path / "emb.txt"
    text.write_text("".join(f"5 {a!r} {b!r}\n" for a, b in rows.tolist()), encoding="utf-8")
    mvec = tmp_path / "emb.mvec"
    write_mvec(mvec, [(5, rows)])
    from_text = read_text_embeddings(text, normalize=True)[0][1]
    assert from_text.dtype == np.float32
    assert np.array_equal(from_text, read_mvec(mvec, normalize=True)[0][1])
    # a zero row fails with the normalizer's message, not a divide-by-zero warning
    text.write_text("0 1.0 0.0\n0 0.0 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="document 0 has a zero row"):
        read_text_embeddings(text, normalize=True)
    rc = cli_main(["build", "--corpus", str(text), "--out", str(tmp_path / "i.mvix"),
                   "--input-format", "text", "--normalize", "--k-sim", "2", "--reps", "2"])
    assert rc == 1
    assert "zero row; cannot normalize" in capsys.readouterr().err


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


ROW_MAJOR_PQ_FILE = Path(__file__).parent / "data" / "pq_row_major_v1.mvix"


def explicit_pq_index() -> FdeIndex:
    """A PQ index of small integer-derived arrays, no training, so its file bytes are the same on every platform.

    tests/data/pq_row_major_v1.mvix is this index as written by the writer that held the codes
    row-major, (n, groups) C-contiguous, before the group-major layout.
    """
    cfg = FdeConfig(dim=4, k_sim=1, d_proj=4, r_reps=2, seed=3)  # fde_dim 16
    groups, c, g, n = 4, 3, 4, 6
    centers = ((np.arange(groups * c * g) % 7 - 3) / 4.0).reshape(groups, c, g)
    effective = np.array([3, 2, 3, 1])
    codes = (np.arange(n)[:, None] * 5 + np.arange(groups)) % effective
    return FdeIndex([10, 3, 7, 42, 5, 8], cfg, codebook=PqCodebook(centers=centers, effective_c=effective),
                    codes=codes.astype(np.uint8))


def test_group_major_pq_index_writes_the_row_major_file_bytes(tmp_path):
    index = explicit_pq_index()
    assert index.codes.T.flags.c_contiguous
    write_index(tmp_path / "pq.mvix", index)
    assert (tmp_path / "pq.mvix").read_bytes() == ROW_MAJOR_PQ_FILE.read_bytes()


def test_pq_index_read_from_a_row_major_file_ranks_identically():
    rng = np.random.default_rng(12)
    records = [(int(i), unit_rows(rng, 3, 4)) for i in [10, 3, 7, 42, 5, 8]]
    in_memory = explicit_pq_index()
    in_memory.attach_corpus([m for _, m in records])
    loaded = read_index(ROW_MAJOR_PQ_FILE, corpus_records=records)
    assert loaded.codes.T.flags.c_contiguous and loaded.codes.T.flags.writeable  # its own group-major copy
    assert np.array_equal(loaded.codes, in_memory.codes)
    for _ in range(20):
        q = rng.standard_normal((4, 4))
        q[rng.random(4) < 0.5] = 0.0  # zero groups, skipped by the scan
        assert mips_search(loaded, q.ravel(), 6) == mips_search(in_memory, q.ravel(), 6)
        Q = unit_rows(rng, 2, 4)
        assert query(loaded, Q, 6, 3).ranking == query(in_memory, Q, 6, 3).ranking


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_corpus_records_are_rejected(tmp_path, corpus_records, bad):
    cfg = FdeConfig(dim=16, k_sim=3, d_proj=4, r_reps=3, seed=2)
    index = build_index([m for _, m in corpus_records], cfg, doc_ids=[i for i, _ in corpus_records])
    path = tmp_path / "x.mvix"
    write_index(path, index)
    tainted = list(corpus_records)
    doc_id, mat = tainted[4]
    mat = mat.copy()
    mat[0, 0] = bad
    tainted[4] = (doc_id, mat)
    with pytest.raises(ValueError, match=f"document {doc_id} tokens must be finite"):
        read_index(path, corpus_records=tainted)
    narrow = [(i, m[:, :8]) for i, m in corpus_records]
    with pytest.raises(ValueError, match="config.dim"):
        read_index(path, corpus_records=narrow)


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


def test_kmeans_header_with_requested_b_reads_back(tmp_path, index_files):
    # earlier versions stored the requested center count in the k-means section; it is ignored
    header, payload = _split_index(index_files["kmeans"])
    header["kmeans"]["requested_b"] = 7
    (tmp_path / "old.mvix").write_bytes(_join_index(header, payload))
    (tmp_path / "new.mvix").write_bytes(index_files["kmeans"])
    old, new = read_index(tmp_path / "old.mvix"), read_index(tmp_path / "new.mvix")
    assert old.fingerprint == new.fingerprint == header["fingerprint"]
    for a, b in zip(old.config.kmeans_partitioners, new.config.kmeans_partitioners, strict=True):
        assert same_bits(a.centers, b.centers)
    assert same_bits(old.dense, new.dense)


@pytest.mark.parametrize("corrupt", ["nan center", "inf center", "count 0", "count C+1"])
def test_corrupt_pq_codebook_is_rejected(tmp_path, index_files, corrupt):
    header, payload = _split_index(index_files["pq"])
    groups, c, g = (header["pq"][key] for key in ("num_groups", "c", "g"))
    at = 8 * header["num_docs"]  # past the doc ids: effective counts, then centers
    counts = np.frombuffer(payload, "<u2", groups, at).copy()
    centers = np.frombuffer(payload, "<f8", groups * c * g, at + 2 * groups).copy()
    if corrupt.endswith("center"):
        centers[g * c + 1] = np.nan if corrupt.startswith("nan") else np.inf  # group 1, center 0
    else:
        counts[1] = 0 if corrupt == "count 0" else c + 1
    path = tmp_path / "bad.mvix"
    path.write_bytes(_join_index(header, payload[:at] + counts.tobytes() + centers.tobytes()
                                 + payload[at + 2 * groups + 8 * centers.size:]))
    with pytest.raises(ValueError):
        read_index(path)


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


@pytest.fixture(scope="module")
def mvec_file(tmp_path_factory, corpus_records):
    path = tmp_path_factory.mktemp("mvec") / "c.mvec"
    write_mvec(path, corpus_records[:8])
    return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_files_raise_only_value_error(index_files, mvec_file, data):
    kind = data.draw(st.sampled_from(["mvec", *sorted(index_files)]))
    blob = bytearray(mvec_file if kind == "mvec" else index_files[kind])
    # most flips land near the start: the binary counts and dims, then the index's JSON header
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.one_of(*(st.integers(0, min(len(blob), end) - 1) for end in (32, 400, len(blob)))))
        blob[pos] ^= data.draw(st.integers(1, 255))
    blob = blob[:data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))]
    reader = read_mvec if kind == "mvec" else read_index
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fuzzed.{kind}"
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            reader(path)  # reads back, or raises ValueError; any other exception fails the test
        except ValueError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    # a corrupt count must not make the reader allocate far past what the file holds
    assert peak <= 8 * len(blob) + (1 << 18), (kind, len(blob), peak)


IDS = st.integers(-2**63, 2**63 - 1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mvec_files_round_trip_any_records(data):
    d = data.draw(st.integers(1, 6))
    records = data.draw(st.lists(st.tuples(st.integers(0, 2**64 - 1), arrays(
        np.float32, st.tuples(st.integers(1, 4), st.just(d)), elements=st.floats(width=32))), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.mvec"
        write_mvec(path, records)
        loaded = read_mvec(path)
        assert [i for i, _ in loaded] == [i for i, _ in records]
        assert all(same_bits(a, b) for (_, a), (_, b) in zip(loaded, records))  # NaN payloads too
        write_mvec(Path(tmp) / "again.mvec", loaded)
        assert (Path(tmp) / "again.mvec").read_bytes() == path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(qrels=st.dictionaries(IDS, st.dictionaries(IDS, st.integers(1, 2**31), min_size=1, max_size=4), max_size=5),
       run=st.dictionaries(IDS, st.lists(st.tuples(IDS, st.floats(allow_nan=False)), min_size=1, max_size=5),
                           max_size=5),
       meta=st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,8}", fullmatch=True),
                            st.from_regex(r"([A-Za-z0-9_.:/=-]([A-Za-z0-9_.:/= -]{0,8}[A-Za-z0-9_.:/=-])?)?",
                                          fullmatch=True), max_size=3))
def test_qrels_and_run_files_round_trip_bit_for_bit(qrels, run, meta):
    with tempfile.TemporaryDirectory() as tmp:
        write_qrels(Path(tmp) / "q.tsv", qrels)
        assert read_qrels(Path(tmp) / "q.tsv") == qrels
        write_run(Path(tmp) / "r.tsv", run, meta=meta)
        got_meta, got = read_run(Path(tmp) / "r.tsv")
    assert got_meta == meta
    assert {q: [(d, s.hex()) for d, s in v] for q, v in got.items()} == \
        {q: [(d, float(s).hex()) for d, s in v] for q, v in run.items()}


@st.composite
def random_indexes(draw):
    """An index of random contents: dense, PQ, or dense with k-means partitions."""
    kind = draw(st.sampled_from(["dense", "pq", "kmeans"]))
    dim, reps, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    finite = st.floats(-1e6, 1e6, width=32)
    cfg = FdeConfig(dim=dim, k_sim=draw(st.integers(1, 3)), d_proj=draw(st.integers(1, dim)), r_reps=reps,
                    fill_empty=draw(st.booleans()), seed=draw(st.integers(0, 2**31)))
    if kind == "kmeans":
        b = draw(st.integers(1, 4))
        parts = tuple(KMeansPartitioner(centers=draw(arrays(np.float64, (b, dim), elements=finite)))
                      for _ in range(reps))
        cfg = dataclasses.replace(cfg, partitioner="kmeans", kmeans_partitioners=parts)
    width = cfg.num_clusters * cfg.proj_dim * reps
    if width > 1 and draw(st.booleans()):
        width = draw(st.integers(1, width - 1))
        cfg = dataclasses.replace(cfg, d_final=width)
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    if kind != "pq":
        return FdeIndex(ids, cfg, dense=draw(arrays(np.float32, (n, width), elements=finite)))
    g = draw(st.sampled_from([g for g in range(1, width + 1) if width % g == 0]))
    c = draw(st.integers(1, 8))
    counts = draw(arrays(np.int64, width // g, elements=st.integers(1, c)))
    codes = np.stack([draw(arrays(np.uint8, n, elements=st.integers(0, int(e) - 1))) for e in counts], axis=1)
    book = PqCodebook(centers=draw(arrays(np.float64, (width // g, c, g), elements=finite)), effective_c=counts)
    return FdeIndex(ids, cfg, codebook=book, codes=codes)


@settings(max_examples=150, deadline=None)
@given(random_indexes())
def test_index_files_round_trip_any_contents(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.mvix"
        write_index(path, index)
        loaded = read_index(path)
        write_index(Path(tmp) / "again.mvix", loaded)
        assert (Path(tmp) / "again.mvix").read_bytes() == path.read_bytes()
    assert loaded.fingerprint == index.fingerprint
    assert config_params(loaded.config) == config_params(index.config)
    assert same_bits(loaded.doc_ids, index.doc_ids)
    if index.dense is not None:
        assert same_bits(loaded.dense, index.dense)
    else:
        assert same_bits(loaded.codes, index.codes)
        assert same_bits(loaded.codebook.centers, index.codebook.centers)
        assert np.array_equal(loaded.codebook.effective_c, index.codebook.effective_c)
    for a, b in zip(loaded.config.kmeans_partitioners or (), index.config.kmeans_partitioners or ()):
        assert same_bits(a.centers, b.centers)


def _traced(fn):
    """(result, bytes held before fn, peak bytes while fn ran) under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, before, peak


@pytest.fixture(scope="module")
def large_indexes():
    """A dense and a PQ index whose payloads (12 and 3 MB) are far above the 1 MiB slack of the bounds below."""
    rng = np.random.default_rng(70)
    docs = [rng.standard_normal((4, 16)).astype(np.float32) for _ in range(3000)]
    cfg = FdeConfig(dim=16, k_sim=4, d_proj=8, r_reps=8, seed=1)  # 1024 dims
    return {"dense": build_index(docs, cfg), "pq": build_index(docs, cfg, pq=PqSpec(c=4, g=1))}


@pytest.mark.parametrize("kind", ["dense", "pq"])
def test_write_index_writes_each_section_from_its_array(tmp_path, large_indexes, kind):
    index = large_indexes[kind]
    path = tmp_path / "i.mvix"
    write_index(path, index)  # warm up
    _, before, peak = _traced(lambda: write_index(path, index))
    assert peak - before < 2 ** 20  # a bytes copy of the file would be 3 MB or more


@pytest.mark.parametrize("kind", ["dense", "pq"])
def test_read_index_reads_each_section_into_its_array(tmp_path, large_indexes, kind):
    path = tmp_path / "i.mvix"
    write_index(path, large_indexes[kind])
    read_index(path)  # warm up
    loaded, before, peak = _traced(lambda: read_index(path))
    arrays = [loaded.doc_ids, loaded.dense] if kind == "dense" else \
        [loaded.doc_ids, loaded.codebook.centers, loaded.codebook.effective_c, loaded.codes]
    held = sum(a.nbytes for a in arrays)
    assert held > 2 * 2 ** 20
    assert peak - before <= 2 ** 20 + 1.1 * held  # the file's bytes, or a second copy, would be 2x


def test_inspect_and_read_mvec_hold_the_records_once(tmp_path):
    rng = np.random.default_rng(71)
    records = [(i, unit_rows(rng, 64, 32)) for i in range(200)]  # 1.6 MB of tokens
    path = tmp_path / "c.mvec"
    write_mvec(path, records)
    size = path.stat().st_size
    for fn in (lambda: read_mvec(path), lambda: inspect_path(path)):
        _, before, peak = _traced(fn)
        assert peak - before < 1.25 * size  # a bytes copy of the file next to the records would be 2x


def test_a_header_count_past_the_file_end_raises_before_allocating(tmp_path, index_files, monkeypatch):
    header, payload = _split_index(index_files["dense"])
    header["num_docs"] = 10 ** 12
    index_path = tmp_path / "huge.mvix"
    index_path.write_bytes(_join_index(header, payload))
    mvec_path = tmp_path / "huge.mvec"
    mvec_path.write_bytes(b"MVEC" + struct.pack("<IIQQI", 1, 16, 10 ** 12, 7, 2 ** 32 - 1) + bytes(64))
    allocations = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        allocations.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    with pytest.raises(ValueError, match=r"truncated file reading doc ids: need 8000000000000 bytes at offset \d+"):
        read_index(index_path)
    with pytest.raises(ValueError, match=r"truncated file reading record 0 values: need 274877906880 bytes "
                                         r"at offset 32, only 64 remain"):
        read_mvec(mvec_path)
    assert allocations == []


@pytest.mark.parametrize("kind", ["mvec", "dense", "pq"])
def test_a_file_that_shrinks_while_read_raises_truncation(tmp_path, index_files, mvec_file, monkeypatch, kind):
    data = mvec_file if kind == "mvec" else index_files[kind]
    path = tmp_path / "shrunk.bin"
    path.write_bytes(data[:len(data) - 40])
    real_fstat = dataio.os.fstat
    # the size is taken when the file is opened, as if the last 40 bytes were cut after that
    monkeypatch.setattr(dataio.os, "fstat", lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 40))
    with pytest.raises(ValueError, match=r"truncated file reading .*: need \d+ bytes at offset \d+, only \d+ remain"):
        (read_mvec if kind == "mvec" else read_index)(path)
