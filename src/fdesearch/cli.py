"""Command line interface: build / query / eval / baseline / synth / inspect.

Typical round trip:

    fdesearch synth --out data/
    fdesearch build --corpus data/corpus.mvec --out data/index.mvix --k-sim 5 --d-proj 8 --reps 20
    fdesearch query --index data/index.mvix --corpus data/corpus.mvec \
        --queries data/queries.mvec --out data/run.tsv --k-candidates 100 --final-k 10
    fdesearch eval --run data/run.tsv --qrels data/qrels.tsv --n 10,100

Every produced artifact embeds the resolved configuration (seed included)
so results can be regenerated. A flat key=value config file can preset
build flags (the FdeConfig parameter names, kmeans_b and pq; any other key
is an error); explicit flags win. ``synth --spec`` reads back a written
synth.cfg. Flag values are text parsed by the same field annotations as
the preset files (dataio.fields_from_text), so a bad value fails the same
way from either.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import dataio
from .encoding import PARAM_NAMES, FdeConfig, config_params, with_kmeans_partitions
from .engine import DEFAULT_CARVE_TAU, PqSpec, batch_query, build_index
from .evaluation import recall_at_n, reports_to_jsonl, reports_to_table
from .svheuristic import build_token_index, sv_candidates
from .synth import SynthSpec, synth_gen
from .util import TokenCorpus


class _BuildSettings(FdeConfig):
    """The build settings: the FdeConfig parameters, kmeans_b, and pq as C:G (c centers per group of g dims).

    Never made; dataio.fields_from_text reads its annotations.
    """

    kmeans_b: int
    pq: tuple[int, int]


def _settings(path, args, cls, keys) -> dict:
    """Typed settings from a key=value preset file (when path is given) and the flags set in args.

    Both are text parsed by the annotations of cls (dataio.fields_from_text); flags win.
    """
    preset = dataio.fields_from_text(cls, dataio.read_config_file(path), path, names=keys) if path else {}
    flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return {**preset, **dataio.fields_from_text(cls, flags, "flags", names=keys)}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fdesearch",
                                  description="Multi-vector retrieval via fixed dimensional encodings")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus/queries/qrels dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="key=value spec file (flags override)")
    p.add_argument("--docs", dest="num_docs")
    p.add_argument("--tokens", dest="tokens_per_doc", help="tokens per doc: N or LO:HI")
    p.add_argument("--dim")
    p.add_argument("--clusters", dest="num_clusters")
    p.add_argument("--noise")
    p.add_argument("--queries", dest="num_queries")
    p.add_argument("--query-tokens")
    p.add_argument("--query-noise")
    p.add_argument("--doc-bias")
    p.add_argument("--seed")

    p = sub.add_parser("build", help="encode a corpus into a searchable index file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--k-sim")
    p.add_argument("--d-proj")
    p.add_argument("--reps", dest="r_reps")
    p.add_argument("--d-final")
    p.add_argument("--no-fill-empty", action="store_const", const="False", dest="fill_empty")
    p.add_argument("--partitioner", help="simhash or kmeans")
    p.add_argument("--kmeans-b", help="centers for the kmeans partitioner")
    p.add_argument("--kmeans-all-tokens", action="store_true",
                   help="train kmeans partitions on all tokens instead of a sample")
    p.add_argument("--seed")
    p.add_argument("--pq", help="compress encodings, format C:G (e.g. 256:8)")
    p.add_argument("--normalize", action="store_true", help="normalize token rows on read")
    p.add_argument("--input-format", choices=["mvec", "text"], default="mvec")

    p = sub.add_parser("query", help="retrieve and rerank; writes a run file")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", required=True, help="mvec with the raw embeddings for reranking")
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-candidates", type=int, default=100)
    p.add_argument("--final-k", type=int, default=10)
    p.add_argument("--carve-tau", type=float, nargs="?", const=DEFAULT_CARVE_TAU, default=None,
                   help=f"group query tokens before reranking; bare flag uses {DEFAULT_CARVE_TAU}")
    p.add_argument("--normalize", action="store_true")

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--n", default="10,100", help="comma-separated cutoffs")
    p.add_argument("--out", help="also write reports as JSONL")

    p = sub.add_parser("baseline", help="baseline candidate generators")
    bsub = p.add_subparsers(dest="baseline_kind", required=True)
    b = bsub.add_parser("sv", help="per-query-token nearest tokens, rank-major interleave")
    b.add_argument("--corpus", required=True)
    b.add_argument("--queries", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--k-per-query", type=int, required=True)
    b.add_argument("--dedup", action="store_true")
    b.add_argument("--normalize", action="store_true")

    p = sub.add_parser("inspect", help="print the header/summary of any artifact file")
    p.add_argument("path")
    return top


def _cmd_synth(args) -> int:
    spec = SynthSpec(**_settings(args.spec, args, SynthSpec, [f.name for f in dataclasses.fields(SynthSpec)]))
    paths = synth_gen(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_build(args) -> int:
    settings = _settings(args.config, args, _BuildSettings, (*PARAM_NAMES, "kmeans_b", "pq"))
    kmeans_set = [name for name, given in (("kmeans_b", "kmeans_b" in settings),
                                           ("--kmeans-all-tokens", args.kmeans_all_tokens)) if given]
    kmeans_b = settings.pop("kmeans_b", 16)
    pq = PqSpec(*settings.pop("pq")) if "pq" in settings else None

    read = dataio.read_text_embeddings if args.input_format == "text" else dataio.read_mvec
    records = read(args.corpus, normalize=args.normalize)
    settings.setdefault("dim", records[0][1].shape[1])
    config = FdeConfig(**settings)
    if kmeans_set and config.partitioner != "kmeans":
        raise ValueError(f"{' and '.join(kmeans_set)} set with partitioner={config.partitioner}: "
                         "k-means settings need partitioner=kmeans")
    if config.partitioner == "kmeans":
        pool = TokenCorpus([m for _, m in records]).tokens
        if args.kmeans_all_tokens:
            config = with_kmeans_partitions(config, pool, kmeans_b, max_tokens=None)
        else:
            config = with_kmeans_partitions(config, pool, kmeans_b)
        del pool  # build_index stacks the corpus again: the two stacks are never held at once

    ids = [i for i, _ in records]
    index = build_index([m for _, m in records], config, pq=pq, doc_ids=ids)
    dataio.write_index(args.out, index)
    print(f"indexed {index.num_docs} documents, fde_dim={index.fde_dim}, storage={index.storage}, "
          f"bytes/doc={index.payload_bytes_per_doc}, fingerprint={index.fingerprint}")
    return 0


def _cmd_query(args) -> int:
    corpus_records = dataio.read_mvec(args.corpus, normalize=args.normalize)
    index = dataio.read_index(args.index, corpus_records=corpus_records)
    queries = dataio.read_mvec(args.queries, normalize=args.normalize)
    results = batch_query(index, [m for _, m in queries], args.k_candidates, args.final_k,
                          carve_tau=args.carve_tau)
    run = {qid: res.ranking for (qid, _), res in zip(queries, results)}
    meta = {
        "fingerprint": index.fingerprint, "k_candidates": args.k_candidates,
        "final_k": args.final_k, "carve_tau": args.carve_tau, **config_params(index.config),
    }
    dataio.write_run(args.out, run, meta)
    total = ", ".join(f"{k}={sum(r.timings[k] for r in results):.3f}" for k in (results[0].timings if results else ()))
    print(f"ran {len(results)} queries; total seconds: {total}")
    return 0


def _cmd_eval(args) -> int:
    meta, run = dataio.read_run(args.run)
    qrels = dataio.read_qrels(args.qrels)
    ids_only = {qid: [doc for doc, _ in ranked] for qid, ranked in run.items()}
    cutoffs = [int(x) for x in args.n.split(",") if x.strip()]
    reports = [recall_at_n(ids_only, qrels, n, fingerprint=meta.get("fingerprint", ""))
               for n in cutoffs]
    print(reports_to_table(reports), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(reports_to_jsonl(reports))
    return 0


def _cmd_baseline(args) -> int:
    corpus = dataio.read_mvec(args.corpus, normalize=args.normalize)
    queries = dataio.read_mvec(args.queries, normalize=args.normalize)
    token_index = build_token_index([m for _, m in corpus], doc_ids=[i for i, _ in corpus])
    run = {qid: sv_candidates(Q, token_index, args.k_per_query, dedup=args.dedup) for qid, Q in queries}
    floats = sum(token_index.scan_cost(len(Q)) for _, Q in queries)
    meta = {
        "method": "sv_heuristic", "k_per_query": args.k_per_query, "dedup": args.dedup,
        "floats_scanned": floats,
        "note": "rank column orders candidates; scores are not defined for interleaved lists",
    }
    dataio.write_run(args.out, run, meta)
    print(f"wrote candidates for {len(run)} queries (floats scanned: {floats})")
    return 0


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "baseline":
            return _cmd_baseline(args)
        if args.command == "inspect":
            print(dataio.inspect_path(args.path))
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
