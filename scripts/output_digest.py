"""Print a SHA-256 digest of every pipeline output of one benchmark workload.

Run it against two source trees and diff the output to check that a
refactor leaves every output bit-identical:

    python scripts/output_digest.py --src src --workload all --seed 0 --seed 1 > new.txt
    python scripts/output_digest.py --src ../old/src --workload all --seed 0 --seed 1 > old.txt
    diff old.txt new.txt

or record the digests once and check a tree against the file:

    python scripts/output_digest.py --src ../old/src --workload all --seed 0 --seed 1 --write DIGESTS.json
    python scripts/output_digest.py --src src --workload all --seed 0 --seed 1 --check DIGESTS.json

--check exits 1 and lists every digest that differs from the file or is
missing from it (digests of workloads or seeds not run are not compared).

--workload takes one name or all; --seed repeats (default 0). The
workloads are the seeded corpora of perfbench/workloads.py at full size.
Covered outputs: the stored doc encodings (dense float32 or PQ codes), the
float64 doc encodings with empty-cluster fill as configured, off, and with
a final projection (d_final), and of a float64 copy of the corpus that is
not float32-exact with one hyperplane and one projected coordinate (every
hash and projection product has one column), the query encodings as one
batch, with d_final, and one query at a time on one config object (the
path query() takes, served from the config's cached draws after the first
call), fde_rankings, query() rankings (ids and scores, every query), also with
k_candidates = final_k (every candidate is kept), with
the rerank corpus replaced by a float64 copy that is not float32-exact
and on an index of a corpus whose odd documents repeat the even ones
(exact ties in scan and rerank; on a PQ workload also with a PQ index of
that corpus), chamfer_one_nn of the first queries over the whole corpus,
PQ centers, decode and the candidate ids and asymmetric dots that
mips_search returns for every query, Lloyd's MSE history (which decides
when training stops) for every PQ group, and alone for four of them, a
PQ codebook trained on a duplicate-heavy sample (fewer distinct slices
than centers) with the codes it gives, a k-means config (centers, doc
and query encodings, rankings), the token index's stored tokens and
owners (dtype included: the corpus dtype, float32 on every workload), and
sv_candidates with dedup on and off followed by the exact rerank. top_k
is also covered at its edges: fde_rankings at depth 1 and depth=None
(every document), and sv_candidates at k_per_query 1 and past the token
count; and on its own, over a seeded matrix of rounded scores (ties)
with NaN and +-inf whose length no 8k divides, also with one row all NaN
(the full-sort fallback), and over the same scores rounded to integers
(thousands of ties at every cut).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def digest(obj) -> str:
    """Digest of arrays (dtype, shape, bytes) and nested lists of ints/floats."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, float):
            h.update(x.hex().encode() + b",")
        else:
            h.update(f"{type(x).__name__}:{x},".encode())

    feed(obj)
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="source tree holding the fdesearch package")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default 0")
    ap.add_argument("--write", metavar="FILE", help="also write the digests to FILE as JSON")
    ap.add_argument("--check", metavar="FILE", help="compare with the digests in FILE; exit 1 if any differs")
    args = ap.parse_args()
    want = json.loads(Path(args.check).read_text()) if args.check else None
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    got: dict[str, str] = {}
    for name in names:
        for seed in args.seed or [0]:
            digest_workload(WORKLOADS[name], seed, got)
    if args.write:
        Path(args.write).write_text(json.dumps(got, indent=1) + "\n")
    if want is None:
        return 0
    differ = [key for key in got if want.get(key) != got[key]]
    for key in differ:
        print(f"DIFFERS: {key} {want.get(key, 'missing')} -> {got[key]}", file=sys.stderr)
    print(f"{len(got) - len(differ)} of {len(got)} digests match {args.check}", file=sys.stderr)
    return 1 if differ else 0


def digest_workload(wl, seed: int, got: dict) -> None:
    """Print the digests of one workload at one seed and add them to got."""
    import fdesearch as fs
    from fdesearch.partition import lloyd_kmeans
    from fdesearch.pq import pq_decode_many, pq_encode_many, pq_train
    from fdesearch.util import top_k
    from workloads import make_inputs

    docs, queries = make_inputs(wl, seed)
    corpus = [m for _, m in docs]

    def emit(name, value):  # print as we go, so large outputs are not held together
        key = f"{wl.name} seed={seed} {name}"
        got[key] = digest(value)
        print(key, got[key], flush=True)

    emit("chamfer_one_nn", list(fs.chamfer_one_nn(queries[:8], corpus).items()))
    rng = np.random.default_rng(seed)
    scores = np.round(rng.standard_normal((6, 5003)), 1)
    for value in (np.nan, np.inf, -np.inf):
        scores[rng.random(scores.shape) < 0.01] = value
    ids = rng.integers(0, 50, scores.shape[1])
    for k in (1, 125, 400):
        emit(f"top_k.k={k}", top_k(ids, scores, k))
        emit(f"top_k.k={k}.nan_row", top_k(ids, np.vstack([scores, np.full(scores.shape[1], np.nan)]), k))
        emit(f"top_k.k={k}.integers", top_k(ids, np.round(scores), k))

    if wl.config is None:
        tindex = fs.build_token_index(corpus)
        emit("sv.index", [tindex.tokens, tindex.owners])
        for dedup in (False, True):
            hits = [fs.sv_candidates(Q, tindex, wl.k_per_query, dedup=dedup) for Q in queries]
            emit(f"sv_candidates.dedup={dedup}", hits)
        emit("sv.rerank", [fs.brute_force_topk(Q, [corpus[d] for d in h[:wl.k_candidates]], wl.final_k,
                                               doc_ids=h[:wl.k_candidates]) for Q, h in zip(queries, hits)])
        del hits
        # top_k at its edges: one hit per query token, and k past the token count (the clamp);
        # each query's list is digested alone, so no more than one is held at a time
        for k in (1, tindex.num_tokens + 5):
            for dedup in (False, True):
                emit(f"sv_candidates.k={k}.dedup={dedup}",
                     [digest(np.asarray(fs.sv_candidates(Q, tindex, k, dedup=dedup))) for Q in queries])
        return
    cfg = wl.config
    index = fs.build_index(corpus, cfg, pq=wl.pq)
    emit("build_index.storage", index.dense if index.dense is not None else index.codes)
    if index.codebook is not None:
        emit("pq.centers", index.codebook.centers)
        emit("pq.effective_c", index.codebook.effective_c)
        emit("pq.decode", pq_decode_many(index.codebook, index.codes))
        emit("mips.pq", [fs.mips_search(index, qv, wl.k_candidates) for qv in fs.generate_query_fdes(queries, cfg)])
        fdes = fs.generate_doc_fdes(corpus, cfg).astype(np.float32).astype(np.float64)  # what PQ trains on
        g, groups = wl.pq.g, index.codebook.num_groups
        histories = [lloyd_kmeans(fdes[:, grp * g:(grp + 1) * g], wl.pq.c, cfg.seed, grp)[1] for grp in range(groups)]
        for grp in (0, 1, groups // 2, groups - 1):
            emit(f"lloyd.history.group={grp}", histories[grp])
        emit("lloyd.history.all_groups", histories)
        dup_book = pq_train(np.round(np.repeat(fdes[:150], 3, axis=0), 1), wl.pq.c, g, cfg.seed)
        emit("pq.dup_sample.centers", dup_book.centers)
        emit("pq.dup_sample.effective_c", dup_book.effective_c)
        emit("pq.dup_sample.codes", pq_encode_many(dup_book, fdes))
        del fdes
    emit("query", [fs.query(index, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking for Q in queries])
    emit("query.k_candidates=final_k", [fs.query(index, Q, wl.final_k, wl.final_k, wl.carve_tau).ranking
                                        for Q in queries])
    wide = [m.astype(np.float64) * (1 + 2.0 ** -30) for m in corpus]  # not float32-exact
    index.attach_corpus(wide)
    emit("query.float64_corpus", [fs.query(index, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking
                                  for Q in queries])
    del index
    # one hyperplane and one projected coordinate: one-column products over more than BLOCK_TOKENS tokens
    emit("doc_fdes.one_column.float64_corpus",
         fs.generate_doc_fdes(wide, dataclasses.replace(cfg, k_sim=1, d_proj=1, r_reps=2)))
    del wide
    twins = fs.build_index([corpus[i - i % 2] for i in range(len(corpus))], cfg)
    emit("query.duplicate_docs", [fs.query(twins, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking
                                  for Q in queries])
    del twins
    if wl.pq is not None:
        twins = fs.build_index([corpus[i - i % 2] for i in range(len(corpus))], cfg, pq=wl.pq)
        emit("query.duplicate_docs.pq", [fs.query(twins, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking
                                         for Q in queries])
        del twins
    emit("query_fdes", fs.generate_query_fdes(queries, cfg))
    emit("query_fdes.d_final=256", fs.generate_query_fdes(queries, dataclasses.replace(cfg, d_final=256)))
    emit("query_fdes.one_by_one", [fs.generate_query_fdes([Q], cfg)[0] for Q in queries])
    emit("doc_fdes", fs.generate_doc_fdes(corpus, cfg))
    emit("doc_fdes.fill_empty=False", fs.generate_doc_fdes(corpus, dataclasses.replace(cfg, fill_empty=False)))
    emit("doc_fdes.d_final=256", fs.generate_doc_fdes(corpus, dataclasses.replace(cfg, d_final=256)))
    for depth in (wl.k_candidates, 1, None):
        name = "fde_rankings" if depth == wl.k_candidates else f"fde_rankings.depth={depth}"
        emit(name, list(fs.fde_rankings(corpus, queries, cfg, depth=depth).values()))
    km = fs.with_kmeans_partitions(dataclasses.replace(cfg, r_reps=4), np.vstack(corpus), 16)
    emit("kmeans.centers", [p.centers for p in km.kmeans_partitioners])
    km_index = fs.build_index(corpus, km)
    emit("kmeans.doc_fdes", km_index.dense)
    emit("kmeans.query_fdes", fs.generate_query_fdes(queries, km))
    emit("kmeans.query", [fs.query(km_index, Q, wl.k_candidates, wl.final_k).ranking for Q in queries])


if __name__ == "__main__":
    sys.exit(main())
