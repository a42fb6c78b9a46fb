"""Command line interface: build / query / eval / baseline / synth / inspect.

Typical round trip:

    fdesearch synth --out data/
    fdesearch build --corpus data/corpus.mvec --out data/index.mvix --k-sim 5 --d-proj 8 --reps 20
    fdesearch query --index data/index.mvix --corpus data/corpus.mvec \
        --queries data/queries.mvec --out data/run.tsv --k-candidates 100 --final-k 10
    fdesearch eval --run data/run.tsv --qrels data/qrels.tsv --n 10,100

Every produced artifact embeds the resolved configuration (seed included)
so results can be regenerated. A flat key=value config file can preset
build flags (the FdeConfig parameter names, reps, kmeans_b and pq; any
other key is an error); explicit flags win. ``synth --spec`` reads back a
written synth.cfg.
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


def _parse_tokens(text: str):
    return dataio.fields_from_text(SynthSpec, {"tokens_per_doc": text}, "--tokens")["tokens_per_doc"]


def _parse_pq(text: str) -> PqSpec:
    if ":" not in text:
        raise ValueError(f"--pq expects C:G (e.g. 256:8), got {text!r}")
    c, g = text.split(":", 1)
    return PqSpec(c=int(c), g=int(g))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fdesearch",
                                  description="Multi-vector retrieval via fixed dimensional encodings")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus/queries/qrels dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="key=value spec file (flags override)")
    p.add_argument("--docs", type=int, dest="num_docs")
    p.add_argument("--tokens", type=_parse_tokens, dest="tokens_per_doc", help="tokens per doc: N or LO:HI")
    p.add_argument("--dim", type=int)
    p.add_argument("--clusters", type=int, dest="num_clusters")
    p.add_argument("--noise", type=float)
    p.add_argument("--queries", type=int, dest="num_queries")
    p.add_argument("--query-tokens", type=int)
    p.add_argument("--query-noise", type=float)
    p.add_argument("--doc-bias", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("build", help="encode a corpus into a searchable index file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--k-sim", type=int)
    p.add_argument("--d-proj", type=int)
    p.add_argument("--reps", type=int, dest="r_reps")
    p.add_argument("--d-final", type=int)
    p.add_argument("--no-fill-empty", action="store_false", dest="fill_empty", default=None)
    p.add_argument("--partitioner", choices=["simhash", "kmeans"])
    p.add_argument("--kmeans-b", type=int, help="centers for the kmeans partitioner")
    p.add_argument("--kmeans-all-tokens", action="store_true",
                   help="train kmeans partitions on all tokens instead of a 100k sample")
    p.add_argument("--seed", type=int)
    p.add_argument("--pq", type=_parse_pq, help="compress encodings, format C:G (e.g. 256:8)")
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
    p.add_argument("--workers", type=int, default=0)

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
    values = {}
    if args.spec:
        values = dataio.fields_from_text(SynthSpec, dataio.read_config_file(args.spec), args.spec)
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SynthSpec)}
    values.update({k: v for k, v in flags.items() if v is not None})
    spec = SynthSpec(**values)
    paths = synth_gen(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _read_build_preset(path) -> dict:
    """Build settings from a key=value file: FdeConfig parameters (reps spells r_reps), kmeans_b, pq."""
    raw = dataio.read_config_file(path)
    if "reps" in raw:
        if "r_reps" in raw:
            raise ValueError(f"{path}: give reps or r_reps, not both")
        raw["r_reps"] = raw.pop("reps")
    preset = {key: parse(raw.pop(key)) for key, parse in (("kmeans_b", int), ("pq", _parse_pq)) if key in raw}
    return {**preset, **dataio.fields_from_text(FdeConfig, raw, path, names=PARAM_NAMES)}


def _cmd_build(args) -> int:
    preset = _read_build_preset(args.config) if args.config else {}
    flags = {k: getattr(args, k, None) for k in (*PARAM_NAMES, "kmeans_b", "pq")}
    settings = {**preset, **{k: v for k, v in flags.items() if v is not None}}
    kmeans_b = settings.pop("kmeans_b", 16)
    pq = settings.pop("pq", None)

    read = dataio.read_text_embeddings if args.input_format == "text" else dataio.read_mvec
    records = read(args.corpus, normalize=args.normalize)
    settings.setdefault("dim", records[0][1].shape[1])
    config = FdeConfig(**settings)
    if config.partitioner == "kmeans":
        tokens = TokenCorpus([m for _, m in records]).tokens
        config = with_kmeans_partitions(config, tokens, kmeans_b,
                                        max_tokens=None if args.kmeans_all_tokens else 100_000)

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
                          carve_tau=args.carve_tau, workers=args.workers)
    run = {qid: res.ranking for (qid, _), res in zip(queries, results)}
    meta = {
        "fingerprint": index.fingerprint, "k_candidates": args.k_candidates,
        "final_k": args.final_k, "carve_tau": args.carve_tau, **config_params(index.config),
    }
    dataio.write_run(args.out, run, meta)
    total = {k: sum(r.timings[k] for r in results) for k in ("fde_gen", "mips", "rerank")}
    print(f"ran {len(results)} queries; total seconds: "
          + ", ".join(f"{k}={v:.3f}" for k, v in total.items()))
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
