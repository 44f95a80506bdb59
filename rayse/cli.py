"""CLI entry points — the ``ray job submit`` surface (north rule: "run via
ray job submit on fixed clusters").

    ray job submit -- python -m rayse.cli build --input /data/transcripts \
        --out /data/index [--part-bits 12]
    ray job submit -- python -m rayse.cli query --index /data/index \
        --query '"rate limit exceeded"' [--k 10] [--mode or] \
        [--transcripts /data/transcripts]   # hydrated results
    python -m rayse.cli stats --index /data/index

Owns its Ray session (guarded init; the driver/test harness never imports
this module).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True)


def _shard_kw(args) -> dict:
    """``--shard-bytes`` if given; otherwise the pipeline's own default
    applies, so the CLI holds no second copy of it."""
    if args.shard_bytes is None:
        return {}
    return {"shard_target_bytes": args.shard_bytes}


def cmd_build(args) -> int:
    from .config import IndexConfig
    from .pipelines.build_index import build_index

    _ray_init()
    cfg = IndexConfig(part_bits=args.part_bits,
                      with_positions=not args.no_positions,
                      clean_html=args.clean_html)
    res = build_index(args.input, args.out, cfg, **_shard_kw(args))
    print(json.dumps({
        "n_docs": res.n_docs, "total_tokens": res.total_tokens,
        "avgdl": round(res.avgdl, 3), "wall_s": res.wall_s,
        "turns_per_sec": res.turns_per_sec,
    }))
    return 0


def cmd_append(args) -> int:
    from .pipelines.build_index import append_index

    _ray_init()
    res = append_index(args.index, args.input, **_shard_kw(args))
    print(json.dumps({
        "n_docs": res.n_docs, "total_tokens": res.total_tokens,
        "avgdl": round(res.avgdl, 3), "wall_s": res.wall_s,
        "appended_turns_per_sec": res.turns_per_sec,
        "remerged_parts": len(res.part_manifests),
    }))
    return 0


def cmd_query(args) -> int:
    from .query.engine import SearchEngine

    eng = SearchEngine(args.index)
    if args.transcripts:
        rows = eng.search_hydrated(args.query, args.transcripts, k=args.k,
                                   mode=args.mode, page=args.page,
                                   page_size=args.page_size)
        for r in rows:
            print(json.dumps({k: v for k, v in r.items() if k != "text"}))
    else:
        docs, scores = eng.search(args.query, args.k, args.mode)
        for d, s in zip(docs.tolist(), scores.tolist()):
            print(json.dumps({"doc_id": int(d), "score": s}))
    return 0


def cmd_stats(args) -> int:
    import os

    for name in ("corpus_stats.json", "metrics.json"):
        p = os.path.join(args.index, name)
        if os.path.exists(p):
            print(open(p).read())
    return 0


def cmd_sample(args) -> int:
    """Deterministic hash sampling over a documents table dir."""
    from .ops.sampling import hash_sample, stratified_sample

    _ray_init()
    if args.stratified:
        rates = dict(kv.split("=") for kv in args.rates.split(",")) \
            if args.rates else None
        rates = ({k: int(v) for k, v in rates.items()}
                 if rates is not None else None)
        ds = stratified_sample(args.input, rates=rates,
                               other_rate=args.rate, by=args.by)
    else:
        ds = hash_sample(args.input, rate=args.rate)
    ds.write_parquet(args.out)
    print(json.dumps({"kept_rows": ds.count(), "out": args.out}))
    return 0


def cmd_spans(args) -> int:
    """Duplicate-span detection (ExactSubstr-style) over documents."""
    from .ops.spandedup import duplicate_spans, span_dedup_docs

    _ray_init()
    fn = span_dedup_docs if args.per_doc else duplicate_spans
    ds = fn(args.input, window=args.window, min_count=args.min_count)
    ds.write_parquet(args.out)
    print(json.dumps({"rows": ds.count(), "out": args.out}))
    return 0


def cmd_extents(args) -> int:
    """Length-maximal duplicate spans (ExactSubstr removal units)."""
    from .ops.spandedup import duplicate_span_extents

    _ray_init()
    ds = duplicate_span_extents(args.input, window=args.window,
                                min_count=args.min_count)
    ds.write_parquet(args.out)
    print(json.dumps({"rows": ds.count(), "out": args.out}))
    return 0


def cmd_quality(args) -> int:
    """Quality/repetition signals over a documents table dir."""
    from .ops.textstats import repetition_stats, unigram_nll

    _ray_init()
    ds = repetition_stats(args.input) if args.kind == "repetition" \
        else unigram_nll(args.input)
    ds.write_parquet(args.out)
    print(json.dumps({"rows": ds.count(), "out": args.out}))
    return 0


def cmd_diagnose(args) -> int:
    """Corpus/stream health diagnostics over a testdata-style dir:
    per-key skew (Gini), burst episodes, seasonality, duplication
    exposure, or hapax richness — one JSON-line table to stdout."""
    _ray_init()
    if args.kind == "skew":
        from .ops.gini import gini_skew
        t = gini_skew(args.input)
    elif args.kind == "bursts":
        from .ops.bursts import burst_stats
        t = burst_stats(args.input)
    elif args.kind == "seasonality":
        from .ops.bursts import hourly_autocorr
        t = hourly_autocorr(args.input)
    elif args.kind == "dup":
        from .ops.dedupreport import dedup_report
        t = dedup_report(args.input)
    else:
        from .ops.vocabgrowth import hapax_ratio
        t = hapax_ratio(args.input)
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_audit(args) -> int:
    """Governance audit over a testdata-style dir: Deequ-style
    constraint checks, k-anonymity / l-diversity privacy gates, or
    partition content checksums — one JSON-line table to stdout."""
    _ray_init()
    if args.kind == "checks":
        from .ops.datachecks import data_checks
        t = data_checks(args.input)
    elif args.kind == "kanon":
        from .ops.datachecks import k_anonymity
        t = k_anonymity(args.input, k=args.k)
    elif args.kind == "ldiv":
        from .ops.datachecks import l_diversity
        t = l_diversity(args.input, ell=args.k)
    else:
        from .ops.integrity import dataset_checksum
        t = dataset_checksum(args.input)
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_dedup(args) -> int:
    """Near-duplicate keep-set over a documents table dir."""
    from .ops.dedup import near_dedup_keep

    _ray_init()
    ds = near_dedup_keep(args.input, threshold=args.threshold)
    ds.write_parquet(args.out)
    print(json.dumps({"kept_rows": ds.count(), "out": args.out}))
    return 0


def cmd_delete(args) -> int:
    """Logical delete (tombstones): conversations vanish from queries;
    stats hold until `compact` (Lucene visibility semantics)."""
    from .index.maintenance import delete_convs

    print(json.dumps(delete_convs(args.index, args.conv_ids)))
    return 0


def cmd_compact(args) -> int:
    """Physical rewrite without tombstoned conversations — ranks
    identically to a fresh build over the filtered corpus."""
    from .index.maintenance import compact_index

    _ray_init()
    print(json.dumps(compact_index(args.index, args.out)))
    return 0


def cmd_merge(args) -> int:
    """Segment merge: weld two disjoint-corpus indexes into one that
    ranks identically to a fresh build over the union corpus."""
    from .index.maintenance import merge_indexes

    _ray_init()
    print(json.dumps(merge_indexes(args.index_a, args.index_b, args.out)))
    return 0


def cmd_analyze(args) -> int:
    """/api/query-analysis analog: print the parsed query as JSON."""
    from .query.parser import parse_query

    p = parse_query(args.query)
    print(json.dumps({
        "originalQuery": p.raw,
        "kind": p.kind,
        "operator": p.op,
        "phrases": ([" ".join(p.left), " ".join(p.right)]
                    if p.kind == "boolean"
                    else ([" ".join(p.phrase)] if p.kind == "phrase"
                          else [])),
        "stemmedWords": list(p.terms),
    }))
    return 0


def cmd_explain(args) -> int:
    """Lucene-explain analog: per-term BM25 contribution breakdown of
    the query's top documents."""
    from .ops.porter_oracle import porter_explain

    _ray_init()
    t = porter_explain(args.index, queries=[args.query], top=args.top)
    for row in t.to_pylist():
        print(json.dumps(row))
    return 0


def cmd_ops(args) -> int:
    """Run any registered analytics pipeline from `__ray_entry__
    .queries()` against an sf directory (``--list`` enumerates them) —
    the CLI face of the operator registry."""
    import importlib
    import os
    import sys as _sys

    _sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    e = importlib.import_module("__ray_entry__")
    qs = e.queries()
    if args.list or not args.name:
        for k in qs:
            print(k)
        return 0
    if args.name not in qs:
        print(f"unknown op {args.name!r}; see --list", file=sys.stderr)
        return 2
    _ray_init()
    t = qs[args.name](args.sf)
    if hasattr(t, "to_arrow_refs"):        # ray Dataset
        t = t.to_pandas()
    if hasattr(t, "to_pandas"):            # arrow Table
        t = t.to_pandas()
    out = t.head(args.limit) if args.limit else t
    print(out.to_string(index=False))
    if args.limit and len(t) > args.limit:
        print(f"... ({len(t)} rows total)")
    return 0


def main(argv=None) -> int:
    from .config import IndexConfig

    p = argparse.ArgumentParser(prog="rayse")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--part-bits", type=int, default=IndexConfig.part_bits)
    b.add_argument("--shard-bytes", type=int, default=None)
    b.add_argument("--no-positions", action="store_true")
    b.add_argument("--clean-html", action="store_true",
                   help="run the M2 HTML cleaning chain before tokenize")
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("append",
                       help="incrementally index new files into an "
                            "existing index (only new data tokenizes; "
                            "only affected partitions re-merge)")
    a.add_argument("--index", required=True)
    a.add_argument("--input", required=True)
    a.add_argument("--shard-bytes", type=int, default=None)
    a.set_defaults(fn=cmd_append)

    q = sub.add_parser("query", help="query a built index")
    q.add_argument("--index", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--mode", default="or",
                   choices=["or", "and", "blockmax", "fallback"])
    q.add_argument("--transcripts", default=None,
                   help="transcripts path for hydrated results")
    q.add_argument("--page", type=int, default=1)
    q.add_argument("--page-size", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    dl = sub.add_parser("delete",
                        help="tombstone conversations (logical delete)")
    dl.add_argument("--index", required=True)
    dl.add_argument("conv_ids", nargs="+")
    dl.set_defaults(fn=cmd_delete)

    cp = sub.add_parser("compact",
                        help="rewrite the index without tombstoned convs")
    cp.add_argument("--index", required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(fn=cmd_compact)

    mg = sub.add_parser("merge",
                        help="merge two disjoint-corpus indexes into one "
                             "(rank-identical to a union rebuild)")
    mg.add_argument("--index-a", required=True)
    mg.add_argument("--index-b", required=True)
    mg.add_argument("--out", required=True)
    mg.set_defaults(fn=cmd_merge)

    s = sub.add_parser("stats", help="print index stats/metrics")
    s.add_argument("--index", required=True)
    s.set_defaults(fn=cmd_stats)

    sm = sub.add_parser("sample",
                        help="deterministic hash sample of a documents "
                             "table (reproducible across runs/engines)")
    sm.add_argument("--input", required=True,
                    help="dir containing documents.parquet")
    sm.add_argument("--out", required=True)
    sm.add_argument("--rate", type=int, default=20,
                    help="keep percentage (uniform, or the default "
                         "stratum rate with --stratified)")
    sm.add_argument("--stratified", action="store_true")
    sm.add_argument("--by", default="lang")
    sm.add_argument("--rates", default=None,
                    help="per-stratum rates, e.g. en=50,de=30")
    sm.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("spans",
                        help="duplicate-span detection (ExactSubstr "
                             "at word k-gram granularity)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--window", type=int, default=4)
    sp.add_argument("--min-count", type=int, default=2)
    sp.add_argument("--per-doc", action="store_true",
                    help="emit per-doc duplicated-span counts instead "
                         "of the span table")
    sp.set_defaults(fn=cmd_spans)

    ex = sub.add_parser("extents",
                        help="length-maximal duplicate spans "
                             "(ExactSubstr removal units)")
    ex.add_argument("--input", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--window", type=int, default=4)
    ex.add_argument("--min-count", dest="min_count", type=int, default=2)
    ex.set_defaults(fn=cmd_extents)

    ql = sub.add_parser("quality",
                        help="quality signals: repetition filters or "
                             "unigram-LM NLL")
    ql.add_argument("--input", required=True)
    ql.add_argument("--out", required=True)
    ql.add_argument("--kind", choices=["repetition", "nll"],
                    default="repetition")
    ql.set_defaults(fn=cmd_quality)

    dg = sub.add_parser(
        "diagnose",
        help="corpus/stream health: skew, bursts, seasonality, dup, "
             "hapax")
    dg.add_argument("--input", required=True,
                    help="testdata-style dir with parquet tables")
    dg.add_argument("--kind", default="skew",
                    choices=["skew", "bursts", "seasonality", "dup",
                             "hapax"])
    dg.set_defaults(fn=cmd_diagnose)

    au = sub.add_parser(
        "audit",
        help="governance: constraint checks, k-anonymity, l-diversity, "
             "content checksums")
    au.add_argument("--input", required=True,
                    help="testdata-style dir with parquet tables")
    au.add_argument("--kind", default="checks",
                    choices=["checks", "kanon", "ldiv", "checksum"])
    au.add_argument("--k", type=int, default=5,
                    help="k for kanon / l for ldiv")
    au.set_defaults(fn=cmd_audit)

    dd = sub.add_parser("dedup",
                        help="near-duplicate removal keep-set over a "
                             "documents table")
    dd.add_argument("--input", required=True)
    dd.add_argument("--out", required=True)
    dd.add_argument("--threshold", type=float, default=0.5)
    dd.set_defaults(fn=cmd_dedup)

    an = sub.add_parser("analyze",
                        help="parse a query (query-analysis endpoint "
                             "analog): kind, operator, phrases, stems")
    an.add_argument("--query", required=True)
    an.set_defaults(fn=cmd_analyze)

    xp = sub.add_parser("explain",
                        help="per-term BM25 score breakdown of the "
                             "query's top documents")
    xp.add_argument("--index", required=True)
    xp.add_argument("--query", required=True)
    xp.add_argument("--top", type=int, default=3)
    xp.set_defaults(fn=cmd_explain)

    op = sub.add_parser("ops",
                        help="run a registered analytics pipeline "
                             "from the operator registry")
    op.add_argument("name", nargs="?", default=None)
    op.add_argument("--sf", default="/root/testdata/sf0.001")
    op.add_argument("--limit", type=int, default=20)
    op.add_argument("--list", action="store_true")
    op.set_defaults(fn=cmd_ops)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
