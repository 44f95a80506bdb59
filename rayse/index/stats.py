"""Global term-dictionary stats as a Ray Data aggregate.

Each segment file already holds per-part partial (df, cf) sums for the
terms appearing in that part (parts partition *documents*, so one term
can appear in many parts).  The global dictionary is therefore one
vocab-keyed sum — expressed here as a distributed ``groupby(term)``
aggregate over a pruned Parquet read, never as a driver-side pandas
frame, so it holds at 1e9-term vocabularies (the reference materializes
this as the PostgreSQL ``words`` / ``word_idf`` tables,
``Indexer/Entities/Word.java:6-22``).

``corpus_stats.json`` holds the corpus-level BM25 stats (N, total tokens,
avgdl) plus the ids of the build shards they count, so that adding a
shard's stats is idempotent (``load_corpus_stats`` / ``write_corpus_stats``).
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa

from .reader import segment_files


def write_corpus_stats(index_dir: str, n_docs: int, total_tokens: int,
                       shards) -> dict:
    """Atomically write ``corpus_stats.json``; returns what was written."""
    stats = {
        "n_docs": int(n_docs),
        "total_tokens": int(total_tokens),
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
        "shards": sorted(int(s) for s in shards),
    }
    path = os.path.join(index_dir, "corpus_stats.json")
    with open(path + ".tmp", "w") as f:
        json.dump(stats, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return stats


def load_corpus_stats(index_dir: str) -> dict:
    """The index's corpus stats; an empty corpus when none are written.

    A stats file from before ``shards`` was recorded counted every shard
    on disk: every shard manifest and conv_map shard."""
    path = os.path.join(index_dir, "corpus_stats.json")
    if not os.path.exists(path):
        return {"n_docs": 0, "total_tokens": 0, "avgdl": 0.0, "shards": []}
    with open(path) as f:
        stats = json.load(f)
    if "shards" not in stats:
        names = [os.path.basename(p)[len("shard-"):-len(".json")]
                 for p in glob.glob(os.path.join(index_dir, "_manifest",
                                                 "shard-*.json"))]
        names += [os.path.basename(p)[len("shard="):]
                  for p in glob.glob(os.path.join(index_dir, "conv_map",
                                                  "shard=*"))
                  if not p.endswith(".tmp")]
        stats["shards"] = sorted({int(n) for n in names})
    return stats


def term_stats_ds(index_dir: str):
    """Distributed (term, df, cf) dictionary for a segment-file index.

    Returns an unsorted ``ray.data.Dataset`` — callers that need an
    ordering chain ``.sort("term")``; callers that feed a further
    pipeline stage keep streaming.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(segment_files(index_dir),
                         columns=["term", "df", "cf"])
    agg = ds.groupby("term").aggregate(Sum("df"), Sum("cf"))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "term": batch["term"],
            "df": pa.compute.cast(batch["sum(df)"], pa.int64()),
            "cf": pa.compute.cast(batch["sum(cf)"], pa.int64()),
        })

    return agg.map_batches(rename, batch_format="pyarrow")


def term_stats_table(index_dir: str) -> pa.Table:
    """Term dictionary as a term-sorted Arrow table (query-result form)."""
    import ray

    tbls = ray.get(term_stats_ds(index_dir).sort("term").to_arrow_refs())
    return pa.concat_tables(
        [t for t in tbls if t.num_rows]).combine_chunks()
