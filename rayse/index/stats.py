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

``index_meta.json`` holds the config an index was built with, its role
flag and ``format_version``, the version of the on-disk layout
(``load_index_meta`` / ``write_index_meta``, the only code that opens the
file). An index of any other version is refused with a "rebuild"
message: there is no code for older layouts.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa


# Version of the on-disk layout this code writes and reads: bump it with
# every change to the files of an index.
FORMAT_VERSION = 5
META_FILE = "index_meta.json"


def write_index_meta(index_dir: str, meta: dict) -> dict:
    """Atomically write ``index_meta.json``, stamped with
    ``FORMAT_VERSION``; returns what was written."""
    meta = {**meta, "format_version": FORMAT_VERSION}
    path = os.path.join(index_dir, META_FILE)
    with open(path + ".tmp", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return meta


def load_index_meta(index_dir: str) -> dict:
    """The index's ``index_meta.json``. Raises ``ValueError`` unless it
    was written by this layout version."""
    with open(os.path.join(index_dir, META_FILE)) as f:
        meta = json.load(f)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        found = ("no format version" if version is None
                 else f"format version {version}")
        raise ValueError(
            f"{index_dir}: the index has {found}, and this code reads "
            f"format version {FORMAT_VERSION} only; rebuild the index")
    return meta


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
    """The index's corpus stats; an empty corpus when none are written."""
    path = os.path.join(index_dir, "corpus_stats.json")
    if not os.path.exists(path):
        return {"n_docs": 0, "total_tokens": 0, "avgdl": 0.0, "shards": []}
    with open(path) as f:
        return json.load(f)


def term_stats_ds(index_dir: str):
    """Distributed (term, df, cf) dictionary for a segment-file index.

    Returns an unsorted ``ray.data.Dataset`` — callers that need an
    ordering chain ``.sort("term")``; callers that feed a further
    pipeline stage keep streaming.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .reader import segment_files

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
