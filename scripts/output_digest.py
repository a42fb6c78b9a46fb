"""Print a SHA-256 digest of every pipeline output of one benchmark workload.

Run it against two source trees and diff the output to check that a
refactor leaves every output bit-identical:

    python scripts/output_digest.py --src src --workload pq-1k --seed 0 > new.txt
    python scripts/output_digest.py --src ../old/src --workload pq-1k --seed 0 > old.txt
    diff old.txt new.txt

The workloads are the seeded corpora of perfbench/workloads.py at full size.
Covered outputs: the stored doc encodings (dense float32 or PQ codes), the
float64 doc encodings with empty-cluster fill as configured, off, and with
a final projection (d_final), the query encodings, fde_rankings, query()
rankings (ids and scores, every query), PQ centers and decode, a k-means
config (centers, doc encodings, rankings), and sv_candidates with dedup on
and off followed by the exact rerank. top_k is also covered at its edges:
fde_rankings at depth 1 and depth=None (every document), and sv_candidates
at k_per_query 1 and past the token count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]

    import fdesearch as fs
    from fdesearch.pq import pq_decode_many
    from workloads import WORKLOADS, make_inputs

    wl = WORKLOADS[args.workload]
    docs, queries = make_inputs(wl, args.seed)
    corpus = [m for _, m in docs]

    def emit(name, value):  # print as we go, so large outputs are not held together
        print(f"{wl.name} seed={args.seed} {name} {digest(value)}", flush=True)

    if wl.config is None:
        tindex = fs.build_token_index(corpus)
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
        return 0
    cfg = wl.config
    index = fs.build_index(corpus, cfg, pq=wl.pq)
    emit("build_index.storage", index.dense if index.dense is not None else index.codes)
    if index.codebook is not None:
        emit("pq.centers", index.codebook.centers)
        emit("pq.effective_c", index.codebook.effective_c)
        emit("pq.decode", pq_decode_many(index.codebook, index.codes))
    emit("query", [fs.query(index, Q, wl.k_candidates, wl.final_k, wl.carve_tau).ranking for Q in queries])
    del index
    emit("query_fdes", fs.generate_query_fdes(queries, cfg))
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
    emit("kmeans.query", [fs.query(km_index, Q, wl.k_candidates, wl.final_k).ranking for Q in queries])
    return 0


if __name__ == "__main__":
    sys.exit(main())
