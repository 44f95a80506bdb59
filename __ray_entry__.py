"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

Pipelines exposed:
- flagship (``entry``): documents(sf0.001) -> transcripts -> distributed
  inverted-index build -> BM25 top-k over a reference query set.
- ``queries()``: one entry per implemented operator family (SURVEY.md §2 +
  training-data ops); each callable takes ``sf_dir``.
- ``oracle_sql()``: DuckDB-equivalent SQL where the op is SQL-expressible
  (the analyzer chain — Porter stemming etc. — is not; those entries get
  the driver's rows-only check and are instead pinned by tests/oracle.py).
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayse.index.stats import FORMAT_VERSION

# one cache per index format version: code of two layouts never shares
# a cached index
_CACHE_ROOT = f"/tmp/rayse_entry_cache_v{FORMAT_VERSION}"

# Fixed reference query set over the sf documents vocabulary (word soup of
# data-engineering terms; see /root/testdata/*/documents.parquet).
SEARCH_QUERIES = [
    "table scan", "hash join merge", "window agg", "spark",
    "customer query plan", "slow", "vector group filter",
]
PHRASE_QUERIES = ['"table scan"', '"hash join"', '"window agg batch"']
BOOLEAN_QUERIES = [
    '"table scan" AND "hash join"',
    '"table scan" OR "hash join"',
    '"table scan" NOT "hash join"',
]


def _index_for(sf_dir: str) -> str:
    """Build (or reuse, via the build's own checkpoints) the transcripts
    index for one sf dir; cached under /tmp keyed by the dir path."""
    from rayse.pipelines.build_index import build_index
    from rayse.pipelines.transcripts import write_transcripts_from_documents

    key = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE_ROOT, key)
    tdir = os.path.join(root, "transcripts")
    idir = os.path.join(root, "index")
    marker = os.path.join(tdir, "_DONE")
    if not os.path.exists(marker):
        os.makedirs(tdir, exist_ok=True)
        write_transcripts_from_documents(sf_dir, tdir)
        open(marker, "w").close()
    build_index(tdir, idir)  # resumable: no-op when manifests complete
    return idir


def _engine_for(sf_dir: str):
    from rayse.query.engine import SearchEngine

    return SearchEngine(_index_for(sf_dir))


def _topk_table(engine, queries: list[str], k: int = 10) -> pa.Table:
    rows_q, rows_r, rows_d, rows_s = [], [], [], []
    for q in queries:
        docs, scores = engine.search(q, k)
        for r, (d, s) in enumerate(zip(docs.tolist(), scores.tolist()), 1):
            rows_q.append(q)
            rows_r.append(r)
            rows_d.append(int(d))
            rows_s.append(float(s))
    return pa.table({
        "query": pa.array(rows_q, pa.string()),
        "rank": pa.array(rows_r, pa.int32()),
        "doc_id": pa.array(np.asarray(rows_d, dtype=np.uint64)),
        "score": pa.array(rows_s, pa.float64()),
    })


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    eng = _engine_for("/root/testdata/sf0.001")
    return _topk_table(eng, SEARCH_QUERIES + PHRASE_QUERIES + BOOLEAN_QUERIES)


# ---------------------------------------------------------------------------
# queries / oracle_sql
# ---------------------------------------------------------------------------

def _q_bm25_topk(sf_dir: str) -> pa.Table:
    return _topk_table(_engine_for(sf_dir), SEARCH_QUERIES)


def _q_phrase_topk(sf_dir: str) -> pa.Table:
    return _topk_table(_engine_for(sf_dir), PHRASE_QUERIES)


def _q_boolean_topk(sf_dir: str) -> pa.Table:
    return _topk_table(_engine_for(sf_dir), BOOLEAN_QUERIES)


def _q_complex_boolean_topk(sf_dir: str) -> pa.Table:
    """Reference ComplexPhraseSearching scoring-parity flag (mode=complex):
    log10(N/df) idf, tf/doc_len, running-score x2 per matched phrase.
    Rows-only; rank-identity pinned vs the oracle in tests/test_query.py."""
    eng = _engine_for(sf_dir)
    rows_q, rows_r, rows_d, rows_s = [], [], [], []
    for q in BOOLEAN_QUERIES:
        docs, scores = eng.search(q, 10, mode="complex")
        for r, (d, s) in enumerate(zip(docs.tolist(), scores.tolist()), 1):
            rows_q.append(q)
            rows_r.append(r)
            rows_d.append(int(d))
            rows_s.append(float(s))
    return pa.table({
        "query": pa.array(rows_q, pa.string()),
        "rank": pa.array(rows_r, pa.int32()),
        "doc_id": pa.array(np.asarray(rows_d, dtype=np.uint64)),
        "score": pa.array(rows_s, pa.float64()),
    })


def _q_term_stats(sf_dir: str) -> pa.Table:
    """Global term dictionary: term, df, cf (replaces the reference's
    `words` + `word_idf` tables, `Indexer/Entities/Word.java:6-22`)."""
    from rayse.index.stats import term_stats_table

    return term_stats_table(_index_for(sf_dir))


def _q_doc_token_count(sf_dir: str):
    """Whitespace token count per document (training-data op: token
    counting), vectorized via pyarrow.compute — SQL-matched."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(batch["text"], " "), 1)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pc.cast(n, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _q_dedup_exact(sf_dir: str):
    """Exact dedup by content hash: keep the lowest doc_id per distinct
    text (SE4 analog: `ReindexController.java:62-67` keep-first semantics),
    as hash-partitioned groupby (no full-text shuffle: group on a 64-bit
    content hash computed in a vectorized map)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        h = [int.from_bytes(hashlib.sha1(t.encode()).digest()[:8], "big") >> 1
             for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "h": pa.array(h, pa.int64())})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    agg = hashed.groupby("h").aggregate(
        rd.aggregate.Min("doc_id"), rd.aggregate.Count())

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["min(doc_id)"],
            "n_copies": pa.compute.cast(batch["count()"], pa.int64()),
        })

    return agg.map_batches(rename, batch_format="pyarrow")


def _q_bpe_token_count(sf_dir: str):
    from rayse.ops.textstats import bpe_token_count

    return bpe_token_count(sf_dir)


def _q_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment (connected components over the verified
    Jaccard pair graph; cluster id = keep-first canonical doc)."""
    from rayse.ops.dedup import dedup_clusters

    return dedup_clusters(sf_dir, shingle_k=1, threshold=0.9)


def _q_near_dedup_keep(sf_dir: str):
    """Cleaned-corpus doc_ids after near-dup removal (keep-first per
    connected component)."""
    from rayse.ops.dedup import near_dedup_keep

    return near_dedup_keep(sf_dir, shingle_k=1, threshold=0.9)


def _q_quality_stats(sf_dir: str):
    from rayse.ops.textstats import quality_stats

    return quality_stats(sf_dir)


def _q_lang_id(sf_dir: str):
    from rayse.ops.textstats import lang_id

    return lang_id(sf_dir)


def _q_fingerprints(sf_dir: str):
    from rayse.ops.textstats import fingerprints

    return fingerprints(sf_dir)


def _q_jaccard_pairs(sf_dir: str):
    from rayse.ops.dedup import jaccard_pairs

    return jaccard_pairs(sf_dir, shingle_k=1, threshold=0.9)


def _q_ams_f2(sf_dir: str) -> pa.Table:
    """AMS second-frequency-moment sketch over the token stream (the
    self-join-size / skew estimator): 64 integer counters via one
    vectorized sign-matrix pass + groupby, median-of-8-group-means
    estimate, exact F2 alongside from a hash-keyed exchange — DuckDB
    bit-exact (integer counters, splitmix signs)."""
    from rayse.ops.ams import ams_f2

    return ams_f2(sf_dir)


def _q_snm_pairs(sf_dir: str):
    """Sorted-neighborhood blocking (Hernandez-Stolfo merge/purge):
    exact global rank by text-prefix key (curriculum machinery), one
    owner+halo bucket exchange for the rank-window candidates
    (exactly (w-1)*n of them — skew-independent), routed exact-Jaccard
    verify — DuckDB hash-matched against the row_number window join."""
    from rayse.ops.snm import snm_pairs

    return snm_pairs(sf_dir, threshold=0.5)


def _q_minhash_lsh_pairs(sf_dir: str):
    from rayse.ops.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(sf_dir, shingle_k=3, threshold=0.5)


def _q_simhash_pairs(sf_dir: str):
    from rayse.ops.dedup import simhash_pairs

    return simhash_pairs(sf_dir, max_hamming=3)


def _q_embedding_neardup(sf_dir: str):
    from rayse.ops.dedup import embedding_neardup_pairs

    return embedding_neardup_pairs(sf_dir, threshold=0.4)


def _q_ann_topk(sf_dir: str):
    from rayse.ops.similarity import ann_topk

    return ann_topk(sf_dir, n_queries=5, k=10)


def _q_ann_lsh_topk(sf_dir: str):
    from rayse.ops.similarity import ann_lsh_topk

    return ann_lsh_topk(sf_dir, n_queries=5, k=10)


def _q_ann_ivf_topk(sf_dir: str):
    from rayse.ops.similarity import ann_ivf_topk

    return ann_ivf_topk(sf_dir, n_queries=5, k=10)


def _q_ann_ivf_exact_topk(sf_dir: str):
    """IVF machinery at full probe (n_probe == n_lists): every list is
    scanned, so the result is exactly the brute-force top-k — the IVF
    exactness theorem under the same DuckDB oracle as ``ann_topk``. The
    default (approximate) `ann_ivf_topk` entry keeps its recall tests."""
    from rayse.ops.similarity import ann_ivf_topk

    return ann_ivf_topk(sf_dir, n_queries=5, k=10, n_lists=16, n_probe=16)


def _q_ann_pq_topk(sf_dir: str):
    """PQ/ADC approximate top-k (Jegou et al. 2011): per-subspace
    codebooks from a bounded training head, asymmetric-distance scoring
    by m table lookups per vector. Approximate -> recall-tested in
    pytest; the exactness-theorem config (distinct-subvector codebooks)
    is the 'pq_full' arm of ``ann_exact_suite`` inside the window."""
    from rayse.ops.similarity import ann_pq_topk

    return ann_pq_topk(sf_dir, n_queries=5, k=10, rerank=50)


def _q_ann_lsh_exact_topk(sf_dir: str):
    """LSH machinery at zero hash bits: a single table with one empty-key
    bucket makes every vector a candidate for every query, so the
    bucket-route + gather + rank path returns exactly the brute-force
    top-k — LSH exactness under the same DuckDB oracle as ``ann_topk``.
    The default (approximate) `ann_lsh_topk` entry keeps its recall
    tests."""
    from rayse.ops.similarity import ann_lsh_topk

    return ann_lsh_topk(sf_dir, n_queries=5, k=10, n_tables=1, n_bits=0)


def _q_media_features(sf_dir: str):
    """Multimodal plumbing demo: synthetic media table (payload bytes are
    deterministic; sf_dir unused beyond scale hint) -> feature extraction
    via the actor-pool stage with the stubbed decoder."""
    import ray.data as rd

    from rayse.ops.multimodal import media_features, synth_media_table

    n = 200 if "0.01" in sf_dir else 50
    ds = rd.from_arrow(synth_media_table(n))
    return media_features(ds, concurrency=2)


def _q_media_frames(sf_dir: str):
    """Frame-sampling stage over payloads derived from documents text —
    the multimodal byte-window layout under a hash-matched DuckDB
    ``substr`` oracle (see media_frames_sql for the linspace mirror)."""
    from rayse.ops.multimodal import media_frames_from_documents

    return media_frames_from_documents(sf_dir)


def _q_windowed_agg(sf_dir: str):
    from rayse.ops.windows import tumbling_agg

    return tumbling_agg(sf_dir, window_s=3600)


def _q_hopping_agg(sf_dir: str):
    from rayse.ops.windows import hopping_agg

    return hopping_agg(sf_dir, window_s=3600, hop_s=900)


def _q_sessionize(sf_dir: str):
    from rayse.ops.windows import sessionize

    return sessionize(sf_dir, gap_s=1800)


def _q_top_events_per_type(sf_dir: str):
    from rayse.ops.windows import top_n_per_group

    return top_n_per_group(sf_dir, n=3)


def _q_hydrated_topk(sf_dir: str):
    """End-to-end search result pipeline (top-k -> hydrate -> snippet ->
    paginate); returns the ranked page rows minus the float score (rank is
    the deterministic payload)."""
    from rayse.query.engine import SearchEngine

    idir = _index_for(sf_dir)
    tdir = os.path.join(os.path.dirname(idir), "transcripts")
    eng = SearchEngine(idir)
    rows_q, rows_r, rows_c, rows_t, rows_s = [], [], [], [], []
    for q in SEARCH_QUERIES[:3] + PHRASE_QUERIES[:1]:
        rows = eng.search_hydrated(q, tdir, k=10, page=1, page_size=10)
        for r, row in enumerate(rows, 1):
            rows_q.append(q)
            rows_r.append(r)
            rows_c.append(row["conv_id"])
            rows_t.append(row["turn_idx"])
            rows_s.append(row["snippet"])
    return pa.table({
        "query": pa.array(rows_q, pa.string()),
        "rank": pa.array(rows_r, pa.int32()),
        "conv_id": pa.array(rows_c, pa.string()),
        "turn_idx": pa.array(rows_t, pa.int32()),
        "snippet": pa.array(rows_s, pa.string()),
    })


def _q_fallback_topk(sf_dir: str):
    """A8 retrieval ladder results for conjunctive-empty queries."""
    from rayse.query.engine import SearchEngine
    from rayse.query.parser import analyze_query
    from rayse.query.postprocess import search_with_fallback

    eng = SearchEngine(_index_for(sf_dir))
    out_q, out_r, out_d, out_l = [], [], [], []
    for q in ["table scan missing-word-zzz", "hash join merge", "slow fast"]:
        terms = analyze_query(q)
        docs, _, level = search_with_fallback(eng, terms, 10)
        for r, d in enumerate(docs.tolist(), 1):
            out_q.append(q)
            out_r.append(r)
            out_d.append(int(d))
            out_l.append(level)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "rank": pa.array(out_r, pa.int32()),
        "doc_id": pa.array(np.asarray(out_d, dtype=np.uint64)),
        "level": pa.array(out_l, pa.string()),
    })


def _q_role_filtered_topk(sf_dir: str) -> pa.Table:
    """Role-scoped retrieval answered FROM THE INDEX (M6 parity: per-tag
    posting stats, `WordDocumentTag.java:8-43`): BM25 top-k restricted to
    assistant turns, plus a role-boosted variant (A7 importance,
    `IndexerService.java:263-331`). Rows-only here; rank-identity is
    pinned against the brute-force oracle in tests/test_roles.py."""
    eng = _engine_for(sf_dir)
    rows_q, rows_m, rows_r, rows_d = [], [], [], []
    for q in SEARCH_QUERIES[:4]:
        for mode, kwargs in (
                ("assistant_only", {"role": "assistant"}),
                ("assistant_boost", {"role_weights": {"assistant": 3.0,
                                                      "user": 0.5}})):
            docs, _ = eng.search(q, 10, **kwargs)
            for r, d in enumerate(docs.tolist(), 1):
                rows_q.append(q)
                rows_m.append(mode)
                rows_r.append(r)
                rows_d.append(int(d))
    return pa.table({
        "query": pa.array(rows_q, pa.string()),
        "variant": pa.array(rows_m, pa.string()),
        "rank": pa.array(rows_r, pa.int32()),
        "doc_id": pa.array(np.asarray(rows_d, dtype=np.uint64)),
    })


def _q_porter_bm25_topk(sf_dir: str) -> pa.Table:
    """The FLAGSHIP Porter-analyzer BM25 ranking under a DIRECT DuckDB
    oracle: the closed corpus vocabulary makes the analyzer chain
    enumerable as a stem-map CTE (rayse.ops.porter_oracle)."""
    from rayse.ops.porter_oracle import porter_bm25_topk

    return porter_bm25_topk(_index_for(sf_dir))


def _q_porter_phrase_matches(sf_dir: str) -> pa.Table:
    """J6 positional phrase verification on the Porter index — DuckDB
    hash-matched via the filtered-stream padded-substring equivalence."""
    from rayse.ops.porter_oracle import porter_phrase_matches

    return porter_phrase_matches(_index_for(sf_dir))


def _q_porter_term_stats(sf_dir: str) -> pa.Table:
    """A1-A3 stemmed term dictionary from the Porter index (distributed
    Ray aggregate) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_term_stats

    return porter_term_stats(_index_for(sf_dir))


def _q_porter_boolean_topk(sf_dir: str) -> pa.Table:
    """SE1-SE3 boolean phrase algebra through the Porter engine — DuckDB
    hash-matched."""
    from rayse.ops.porter_oracle import porter_boolean_topk

    return porter_boolean_topk(_index_for(sf_dir))


def _q_porter_fallback_topk(sf_dir: str) -> pa.Table:
    """A8 retrieval ladder with the Porter analyzer — DuckDB
    hash-matched (tier choice and ranking)."""
    from rayse.ops.porter_oracle import porter_fallback_topk

    return porter_fallback_topk(_index_for(sf_dir))


def _q_porter_role_topk(sf_dir: str) -> pa.Table:
    """M6 role-scoped BM25 on the Porter index (per-posting role codes)
    — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_bm25_topk

    return porter_bm25_topk(_index_for(sf_dir), role="assistant")


def _q_porter_hydrated_topk(sf_dir: str) -> pa.Table:
    """J4 hydration (ranked top-k joined back to source turns via the
    pushdown read) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_hydrated_topk

    idir = _index_for(sf_dir)
    tdir = os.path.join(os.path.dirname(idir), "transcripts")
    return porter_hydrated_topk(idir, tdir)


def _q_porter_wand_topk(sf_dir: str) -> pa.Table:
    """A4/A6 block-max pruned (WAND/MaxScore-style) top-k — the DEFAULT
    serving path — DuckDB hash-matched against the exhaustive oracle."""
    from rayse.ops.porter_oracle import porter_wand_topk

    return porter_wand_topk(_index_for(sf_dir))


def _q_porter_cluster_topk(sf_dir: str) -> pa.Table:
    """ST1-ST3/J2 distributed serving (QueryActor pool, two-phase global
    df, k-way merge, ST4 cache) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_cluster_topk

    return porter_cluster_topk(_index_for(sf_dir))


def _q_porter_conjunctive_topk(sf_dir: str) -> pa.Table:
    """J5 docs-with-all-words (rarest-first sorted intersection) — DuckDB
    hash-matched."""
    from rayse.ops.porter_oracle import porter_conjunctive_topk

    return porter_conjunctive_topk(_index_for(sf_dir))


def _q_porter_snippet_topk(sf_dir: str) -> pa.Table:
    """M9 result snippets (first-match window, word-boundary expansion,
    <strong> highlighting, ellipses) over the hash-matched BM25 top-k —
    DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_snippet_topk

    idir = _index_for(sf_dir)
    tdir = os.path.join(os.path.dirname(idir), "transcripts")
    return porter_snippet_topk(idir, tdir)


def _q_porter_capped_topk(sf_dir: str) -> pa.Table:
    """O3 capped retrieval (first-cap-postings-per-term in docID order,
    the reference LIMIT-1000 parity mode, cap=50 so it binds) — DuckDB
    hash-matched (FNV doc_id order in SQL)."""
    from rayse.ops.porter_oracle import porter_capped_topk

    return porter_capped_topk(_index_for(sf_dir))


def _q_porter_pruned_topk(sf_dir: str) -> pa.Table:
    """Static index pruning (Carmel et al. 2001 champion lists): each
    term cut to its top-25 postings by (tf DESC, doc_id ASC) impact
    order before scoring; df/avgdl stay unpruned so each surviving
    (term, doc) pair contributes its exact BM25 term — DuckDB
    hash-matched; also a ``porter_rank_matrix`` arm inside the driver
    window."""
    from rayse.ops.porter_oracle import porter_pruned_topk

    return porter_pruned_topk(_index_for(sf_dir))


def _q_porter_conjunctive_role_topk(sf_dir: str) -> pa.Table:
    """J5 ∘ M6: docs-with-all-words restricted to a role — DuckDB
    hash-matched (completes the role x mode matrix)."""
    from rayse.ops.porter_oracle import porter_conjunctive_role_topk

    return porter_conjunctive_role_topk(_index_for(sf_dir))


def _q_porter_phrase_role_topk(sf_dir: str) -> pa.Table:
    """Phrase search restricted to a role (positional match + per-posting
    role post-filter + BM25) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_phrase_role_topk

    return porter_phrase_role_topk(_index_for(sf_dir))


def _q_porter_roleboost_topk(sf_dir: str) -> pa.Table:
    """A7 per-role score boost (tag-importance analog) through the real
    role-LUT engine path — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_roleboost_topk

    return porter_roleboost_topk(_index_for(sf_dir))


def _q_porter_mmr_topk(sf_dir: str) -> pa.Table:
    """A14/SE5 MMR diversity rerank (greedy max-Jaccard + same-conv
    penalties, near-dup suppression) replayed as a recursive SQL CTE —
    DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_mmr_topk

    idir = _index_for(sf_dir)
    tdir = os.path.join(os.path.dirname(idir), "transcripts")
    return porter_mmr_topk(idir, tdir)


def _q_porter_suggest_queries(sf_dir: str) -> pa.Table:
    """M13 suggested queries (frequent long non-stop tokens of the top
    rows, most_common first-seen tie-break) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_suggest_queries

    idir = _index_for(sf_dir)
    tdir = os.path.join(os.path.dirname(idir), "transcripts")
    return porter_suggest_queries(idir, tdir)


def _q_porter_paged_topk(sf_dir: str) -> pa.Table:
    """O2 pagination (1-based page slicing through the production
    paginate) — page 2 of the flagship ranking, DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_paged_topk

    return porter_paged_topk(_index_for(sf_dir))


def _q_porter_complex_topk(sf_dir: str) -> pa.Table:
    """A9/A10 ComplexPhraseSearching scoring parity path (per-word
    (tf/dl)*log10(N/df) with order-dependent phrase-match doubling) —
    DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_complex_topk

    return porter_complex_topk(_index_for(sf_dir))


def _q_asof_join(sf_dir: str):
    """As-of join (each purchase matched to the user's most recent
    prior-or-equal click) via one user-partitioned exchange + backward
    searchsorted — hash-matched against DuckDB's native ASOF JOIN."""
    from rayse.ops.relational import asof_join_events

    return asof_join_events(sf_dir)


def _q_range_join(sf_dir: str):
    """Range (interval) join: same-user (purchase, error) pairs within a
    +-1h window — the exchange-by-user shape with two searchsorted bound
    probes; DuckDB inequality-join oracle."""
    from rayse.ops.relational import range_join_events

    return range_join_events(sf_dir)


def _q_kmeans_assign(sf_dir: str):
    """Fixed-iteration integer k-means over the embeddings (cluster
    routing / balanced sampling) — bit-exact vs an unrolled SQL Lloyd
    recursion (int64 fixed-point, truncating means)."""
    from rayse.ops.similarity import kmeans_assign

    return kmeans_assign(sf_dir)


def _q_cluster_suite(sf_dir: str) -> pa.Table:
    """Both embedding-clustering machineries — fixed-iteration integer
    k-means assignment and SemDeDup's cluster-then-cosine-dedup keep set
    — tagged under one window slot; each DuckDB hash-matched (unrolled
    Lloyd CTE; thresholded same-cluster self-join). Individual entries
    remain below the window, pytest-pinned."""
    import numpy as np

    km = _as_table(_q_kmeans_assign(sf_dir))
    sd = _as_table(_q_semdedup_keep(sf_dir))
    sd = sd.append_column("dist", pa.array(
        np.zeros(sd.num_rows, np.int64), pa.int64()))
    sv = _as_table(_q_survivorship_keep(sf_dir)).rename_columns(
        ["vec_id", "cluster", "dist"])
    sv = sv.set_column(1, "cluster", pc.cast(sv["cluster"], pa.int32()))
    rc = _as_table(_q_centroid_classify(sf_dir)).rename_columns(
        ["vec_id", "cluster", "dist"])
    rc = rc.set_column(1, "cluster", pc.cast(rc["cluster"], pa.int32()))
    return _tagged_union([("kmeans", km), ("semdedup", sd),
                          ("survivor", sv), ("rocchio", rc)])


def _q_join_suite(sf_dir: str) -> pa.Table:
    """Both ordered-join machineries over the events log — the as-of
    join (most recent prior-or-equal match) and the range (interval)
    join — tagged under one window slot; each skew-safe via the
    (user, time-bucket) exchange and DuckDB hash-matched (native ASOF
    JOIN / inequality join). Individual entries remain below the
    window, pytest-pinned (including single-user-firehose skew)."""
    a = _as_table(_q_asof_join(sf_dir)).select(
        ["event_id", "user_id", "matched_event_id", "gap_us"])
    a = a.rename_columns(["event_id", "user_id", "matched_event_id",
                          "delta_us"])
    r = _as_table(_q_range_join(sf_dir)).select(
        ["event_id", "user_id", "matched_event_id", "delta_us"])
    return _tagged_union([("asof", a), ("range", r)])


def _q_window_funcs(sf_dir: str):
    """Per-user ordered window functions (row_number / lag-delta /
    running sum) as a two-phase distributed prefix scan over
    (user, time-bucket) exchanges — skew-safe (a hot user splits across
    its buckets) and DuckDB hash-matched against the native window
    functions (pre-quantized integer values)."""
    from rayse.ops.winfuncs import window_functions

    return window_functions(sf_dir)


def _q_rollup_agg(sf_dir: str) -> pa.Table:
    """All three levels of GROUP BY ROLLUP (event_type, day) from one
    streaming pass (finest-grain batch partials -> one type-keyed
    exchange -> local re-aggregation) — DuckDB hash-matched against the
    native ROLLUP."""
    from rayse.ops.rollup import rollup_agg

    return rollup_agg(sf_dir)


def _q_cube_agg(sf_dir: str) -> pa.Table:
    """All four levels of GROUP BY CUBE (event_type, day) — the ROLLUP
    levels plus the per-day slice re-aggregated from the output-sized
    finest level, still one streaming pass — DuckDB hash-matched
    against the native CUBE (the ROLLUP machinery is a strict subset,
    so this slot covers rollup_agg too; that entry stays below the
    window, pytest-pinned)."""
    from rayse.ops.rollup import cube_agg

    return cube_agg(sf_dir)


def _q_porter_prf_topk(sf_dir: str) -> pa.Table:
    """Rocchio-style pseudo-relevance-feedback expansion (two-pass BM25
    through the real index: top-F feedback docs vote expansion terms,
    rescore at beta=0.5) — DuckDB hash-matched; also a
    ``porter_rank_matrix`` arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_prf_topk

    return porter_prf_topk(_index_for(sf_dir))


def _q_porter_searchafter_topk(sf_dir: str) -> pa.Table:
    """search_after cursor pagination: page 2 via the boundary-tuple
    filter + fresh top-k (never offset slicing) — hash-matched against
    the rank-window oracle (cursor ≡ offset theorem)."""
    from rayse.ops.porter_oracle import porter_searchafter_topk

    return porter_searchafter_topk(_index_for(sf_dir))


def _q_porter_convscope_topk(sf_dir: str) -> pa.Table:
    """Conversation-scope retrieval (has_parent analog): BM25 top-k for
    query A within conversations conjunctively matching query B — the
    scope set rides a broadcast semi-join — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_convscope_topk

    return porter_convscope_topk(_index_for(sf_dir))


def _q_porter_synquery_topk(sf_dir: str) -> pa.Table:
    """Synonym-group retrieval with Lucene SynonymQuery semantics
    (summed tf, MAX df per group — no double-idf; distinct from the
    expansion-style ``porter_synonym_topk`` rank-matrix arm) — DuckDB
    hash-matched."""
    from rayse.ops.porter_oracle import porter_synquery_topk

    return porter_synquery_topk(_index_for(sf_dir))


def _q_porter_lossynorm_topk(sf_dir: str) -> pa.Table:
    """BM25 under 4-significant-bit lossy length norms (the Lucene
    SmallFloat one-byte-norm quirk as a pinned contract) — DuckDB
    hash-matched."""
    from rayse.ops.porter_oracle import porter_lossynorm_topk

    return porter_lossynorm_topk(_index_for(sf_dir))


def _q_porter_suffix_topk(sf_dir: str) -> pa.Table:
    """Leading-wildcard retrieval (`*xyz`): reversed-dictionary range
    scan + BM25 union — DuckDB hash-matched (LIKE '%xyz'); also a
    ``porter_rank_matrix`` arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_suffix_topk

    return porter_suffix_topk(_index_for(sf_dir))


def _q_porter_msm_topk(sf_dir: str) -> pa.Table:
    """Minimum-should-match retrieval (>= 2 distinct query terms; the
    Lucene minimum_should_match analog between OR and AND) — DuckDB
    hash-matched; also a ``porter_rank_matrix`` arm inside the driver
    window."""
    from rayse.ops.porter_oracle import porter_msm_topk

    return porter_msm_topk(_index_for(sf_dir))


def _q_unigram_nll(sf_dir: str):
    """Unigram-LM quality score (perplexity proxy: per-doc mean negative
    log-likelihood under the corpus unigram model) — DuckDB hash-matched
    (quantized)."""
    from rayse.ops.textstats import unigram_nll

    return unigram_nll(sf_dir)


def _q_contamination(sf_dir: str):
    """Benchmark decontamination: non-benchmark docs sharing any word
    4-gram with the held-out benchmark texts (the eval-leakage check) —
    DuckDB hash-matched (exact FNV gram hashes both sides). Two arms:
    the broadcast route AND the forced bloom-prefilter + exact
    hash-join route (bench_broadcast_limit=0), hash-gated under the
    same oracle."""
    from rayse.ops.spandedup import contamination

    return _tagged_union([
        ("broadcast", _as_table(contamination(sf_dir))),
        ("bloom", _as_table(contamination(sf_dir,
                                          bench_broadcast_limit=0)))])


def _q_quota_sample(sf_dir: str):
    """Exact fixed-size per-stratum sample (eval-set carving: the 20
    smallest-hash docs per lang) — DuckDB hash-matched."""
    from rayse.ops.sampling import quota_sample

    return quota_sample(sf_dir)


def _q_format_texts(sf_dir: str):
    """M11 result-text formatting (sentence/last-space truncation in
    [200,250] chars + ellipsis) corpus-wide — DuckDB hash-matched."""
    from rayse.ops.textstats import format_texts

    return format_texts(sf_dir)


def _q_hash_sample(sf_dir: str):
    """Deterministic uniform corpus sample (splitmix64(doc_id) % 100 <
    rate) — reproducible engine-independent downsampling, DuckDB
    hash-matched (exact HUGEINT splitmix in SQL)."""
    from rayse.ops.sampling import hash_sample

    return hash_sample(sf_dir)


def _q_stratified_sample(sf_dir: str):
    """Per-stratum deterministic sample (the quota-balancing step of a
    data-mixing recipe: 50% en, 10% other) — DuckDB hash-matched."""
    from rayse.ops.sampling import stratified_sample

    return stratified_sample(sf_dir)


def _q_duplicate_spans(sf_dir: str):
    """Exact duplicate-span detection (Lee et al. 2022 ExactSubstr at
    word-4-gram granularity): every span occurring >= 2 times with doc
    and occurrence counts — DuckDB hash-matched (exact FNV-1a in SQL)."""
    from rayse.ops.spandedup import duplicate_spans

    return duplicate_spans(sf_dir)


def _q_span_dedup_docs(sf_dir: str):
    """Per-document duplicated-span occurrence counts (the removal
    workload of a substring-dedup cleaning pass) — DuckDB hash-matched."""
    from rayse.ops.spandedup import span_dedup_docs

    return span_dedup_docs(sf_dir)


def _q_span_dedup_suite(sf_dir: str) -> pa.Table:
    """Both outputs of the exact-substring dedup machinery (Lee et al.
    2022 ExactSubstr at word-4-gram granularity) — the corpus-wide
    duplicated-span list (gram_hash, n_docs, n_occ) and the per-document
    removal workload (doc_id, n_dup_grams) — tagged under one window
    slot on shared (key, n_a, n_b) columns (doc ids ride key as
    UBIGINT; the doc arm's n_b is 0). Individual entries remain below
    the window, each DuckDB hash-matched and pytest-pinned."""
    spans = _as_table(_q_duplicate_spans(sf_dir)).rename_columns(
        ["key", "n_a", "n_b"])
    docs = _as_table(_q_span_dedup_docs(sf_dir))
    docs = pa.table({
        "key": docs["doc_id"].cast(pa.uint64()),
        "n_a": docs["n_dup_grams"],
        "n_b": pa.array([0] * docs.num_rows, pa.int64()),
    })
    nv = _as_table(_q_gram_novelty(sf_dir))
    novelty = pa.table({
        "key": nv["doc_id"].cast(pa.uint64()),
        "n_a": nv["n_grams"],
        "n_b": nv["n_novel"],
    })
    ppm = pa.table({
        "key": nv["doc_id"].cast(pa.uint64()),
        "n_a": nv["novelty_ppm"],
        "n_b": pa.array([0] * nv.num_rows, pa.int64()),
    })
    tg = _as_table(_q_top_grams(sf_dir))
    topg = pa.table({
        "key": tg["gram_hash"],
        "n_a": tg["rank"],
        "n_b": tg["n_occ"],
    })
    wf = _as_table(_q_winnow_fingerprints(sf_dir))
    winfp = pa.table({
        "key": wf["doc_id"].cast(pa.uint64()),
        "n_a": wf["n_fp"],
        # low 63 bits of the XOR fold (the full uint64 is pinned by the
        # below-window entry; the suite columns are int64)
        "n_b": pc.cast(pc.bit_wise_and(
            wf["fp_xor"], pa.scalar((1 << 63) - 1, pa.uint64())),
            pa.int64()),
    })
    return _tagged_union([("spans", spans), ("docs", docs),
                          ("novelty", novelty), ("noveltyppm", ppm),
                          ("topgrams", topg), ("winnowfp", winfp)])


def _q_top_grams(sf_dir: str) -> pa.Table:
    """Global top-20 word 4-grams by occurrence count (boilerplate
    detector): per-partition bounded top-k over the gram-hash exchange,
    <= n_parts*k driver merge — DuckDB hash-matched."""
    from rayse.ops.spandedup import top_grams

    return top_grams(sf_dir)


def _q_winnow_fingerprints(sf_dir: str) -> pa.Table:
    """Winnowing sketch summaries (Schleimer et al. 2003 / MOSS):
    per-doc count, min and XOR fold of the rightmost-min-per-window
    fingerprint picks — batch-local vectorized selection, one bounded
    doc exchange; DuckDB hash-matched incl. the tie rule."""
    from rayse.ops.winnow import winnow_fingerprints

    return winnow_fingerprints(sf_dir)


def _q_winnow_overlap(sf_dir: str) -> pa.Table:
    """MOSS-style local-overlap pairs: docs sharing >= 2 distinct
    winnowed fingerprints (fp exchange -> pair exchange, exact
    counts) — DuckDB hash-matched."""
    from rayse.ops.winnow import winnow_overlap_pairs

    return winnow_overlap_pairs(sf_dir)


def _q_gram_novelty(sf_dir: str) -> pa.Table:
    """Per-document gram novelty (fraction of a doc's word 4-grams that
    appear nowhere else in the corpus — the inverse of the dedup
    signal) -> (doc_id, n_grams, n_novel, novelty_ppm); DuckDB
    hash-matched, also two ``span_dedup_suite`` arms in the window."""
    from rayse.ops.spandedup import gram_novelty

    return _as_table(gram_novelty(sf_dir))


def _q_funnel_counts(sf_dir: str) -> pa.Table:
    """Ordered-sequence funnel over the events log (view -> click ->
    purchase with strictly-increasing timestamps, earliest-completion
    semantics): per-stage user reach counts from ONE user-keyed exchange
    + per-partition composite searchsorted stage chain — DuckDB
    hash-matched against the chained min-ts join oracle."""
    from rayse.ops.funnel import funnel_counts

    return funnel_counts(sf_dir)


def _q_retention_counts(sf_dir: str) -> pa.Table:
    """Weekly retention cohort triangle (first-event cohorting, distinct
    user-weeks): per-batch pair dedup -> one user-keyed exchange ->
    vectorized per-partition cohort/offset counts — DuckDB hash-matched
    against the distinct-user-week min-join oracle."""
    from rayse.ops.retention import retention_counts

    return retention_counts(sf_dir)


def _q_sequence_suite(sf_dir: str) -> pa.Table:
    """Both per-user ordered-sequence machineries over the events log —
    the strict-ordering funnel stage chain and the retention cohort
    triangle — tagged under one window slot on shared
    (k_idx, label, n_users) columns (retention's week_offset rides
    label as a decimal string). Individual entries remain below the
    window, each DuckDB hash-matched and pytest-pinned."""
    fu = _as_table(_q_funnel_counts(sf_dir)).rename_columns(
        ["k_idx", "label", "n_users"])
    rt = _as_table(_q_retention_counts(sf_dir))
    rt = pa.table({
        "k_idx": rt["cohort_week"],
        "label": rt["week_offset"].cast(pa.string()),
        "n_users": rt["n_users"],
    })
    return _tagged_union([("funnel", fu), ("retention", rt)])


def _q_duplicate_span_extents(sf_dir: str):
    """Length-MAXIMAL duplicated spans (ExactSubstr's removal unit):
    adjacent duplicated 4-grams merged into per-document token extents —
    DuckDB hash-matched (gaps-and-islands oracle)."""
    from rayse.ops.spandedup import duplicate_span_extents

    return duplicate_span_extents(sf_dir)


def _q_html_clean(sf_dir: str):
    """M2 HTML cleaner (PreIndexer.java:48-75 semantics incl. the
    code-append duplication quirk) over deterministically synthesized
    HTML — DuckDB hash-matched against the analytic expectation."""
    from rayse.ops.htmlclean import html_clean

    return html_clean(sf_dir)


def _q_text_transform_suite(sf_dir: str) -> pa.Table:
    """M2 HTML cleaning + M11 result formatting + word2vec-style
    frequent-word subsampling + C4-style line cleaning + sliding-window
    chunking + split assignment + per-source boilerplate removal under
    one window slot: variant-tagged (doc_id, text_out) rows — every
    text-to-text document transform, DuckDB hash-matched."""
    clean = _as_table(_q_html_clean(sf_dir)).rename_columns(
        ["doc_id", "text_out"])
    fmt = _as_table(_q_format_texts(sf_dir)).rename_columns(
        ["doc_id", "text_out"])
    sub = _as_table(_q_subsample_frequent(sf_dir)).rename_columns(
        ["doc_id", "text_out"])
    c4 = _as_table(_q_c4_clean(sf_dir))
    ck = _as_table(_q_chunk_documents(sf_dir))
    ck = pa.table({
        # pack (doc, chunk) into the shared key space (chunk_idx < 1000
        # at any tested sf; the standalone entry keeps the real columns)
        "doc_id": pc.add(pc.multiply(ck["doc_id"], pa.scalar(1000)),
                         ck["chunk_idx"]),
        "text_out": ck["chunk_text"]})
    sp = _as_table(_q_split_assign(sf_dir)).rename_columns(
        ["doc_id", "text_out"])
    bp = _as_table(_q_boilerplate_clean(sf_dir))
    return _tagged_union([("html_clean", clean), ("format", fmt),
                          ("subsample", sub), ("c4", c4),
                          ("chunks", ck), ("split", sp),
                          ("boiler", bp)])


def _q_c4_clean(sf_dir: str):
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2 rules over
    deterministically synthesized line structure): full-line +
    blocklist filters, GLOBAL duplicate-line removal via a 128-bit
    hash-pair exchange (markers-only output, broadcast/exchange routed
    join-back), >=3-kept-lines doc filter — DuckDB hash-matched."""
    from rayse.ops.c4clean import c4_clean

    return c4_clean(sf_dir)


def _q_boilerplate_clean(sf_dir: str):
    """Per-source boilerplate-line removal (CCNet / template-stripping
    analog): every line occurring in >= 2 distinct documents of the
    same source is removed from ALL of them — hashed-triple
    (src, h1, h2) grouping through one h1-keyed exchange, shared
    broadcast/exchange-routed rebuild — DuckDB hash-matched."""
    from rayse.ops.c4clean import boilerplate_clean

    return boilerplate_clean(sf_dir)


def _q_subsample_frequent(sf_dir: str) -> pa.Table:
    """Frequent-word occurrence subsampling (word2vec threshold form):
    keep prob min(1, total/(t_den*cf)), decided by the splitmix hash of
    (doc_id, position); the broadcast hot map is provably <= t_den
    entries at ANY vocabulary size — DuckDB hash-matched in exact
    HUGEINT arithmetic."""
    from rayse.ops.sampling import subsample_frequent

    return subsample_frequent(sf_dir)


def _q_exact_distinct(sf_dir: str) -> pa.Table:
    """Exact grouped COUNT DISTINCT (users per event_type, keyed in
    hll_by_type's idx space — estimate-vs-truth is a join away):
    pair-dedup partials -> one pair-keyed exchange -> output-sized
    groupby — DuckDB hash-matched; also a ``sketch_suite`` arm."""
    from rayse.ops.sketch import exact_distinct_by_type

    return exact_distinct_by_type(sf_dir)


def _q_sketch_suite(sf_dir: str) -> pa.Table:
    """Bounded-memory streaming sketches over the events log (HLL
    distinct users + Count-Min event-type frequencies): register dumps
    and quantized estimates, DuckDB hash-matched bit-for-bit (integer
    registers; one fixed-order float op for each estimate)."""
    from rayse.ops.sketch import sketch_suite

    return sketch_suite(sf_dir)


def _q_porter_rank_matrix(sf_dir: str) -> pa.Table:
    """EVERY ranked retrieval mode of the real Porter engine (exhaustive
    BM25 / WAND / actor-pool cluster / role filter / role boost / boolean
    / conjunctive / conjunctive+role / phrase+role / sloppy-proximity /
    capped / paged / complex / fallback ladder / prefix-wildcard /
    suffix-wildcard / minimum-should-match / fuzzy-edit1 /
    delete-compacted / segment-merged / more-like-this /
    conversation-collapse / lnc.ltc TF-IDF / Dirichlet and
    Jelinek-Mercer query likelihood / Ranker1 weighted blend /
    DFR InL2 and parameter-free DPH /
    retrieve-rerank) as one
    variant-tagged table — every path DuckDB hash-matched in one
    driver window slot. The individual entries
    remain below the 50-query window for direct use and are each pinned
    at sf0.001 by tests/test_porter_oracle.py."""
    from rayse.ops.porter_oracle import porter_rank_matrix

    return porter_rank_matrix(_index_for(sf_dir))


def _q_ann_exact_suite(sf_dir: str) -> pa.Table:
    """The exact/own-oracle ANN paths (brute-force / full-probe IVF / zero-bit
    LSH) tagged and unioned — three machineries hash-checked against the
    brute-force oracle in one window slot."""
    from rayse.ops.similarity import ann_exact_suite

    return ann_exact_suite(sf_dir)


def _as_table(x) -> pa.Table:
    """Output-sized result -> pa.Table (Datasets gathered via arrow refs;
    used ONLY by the suite wrappers whose arms are already bounded)."""
    import ray
    import ray.data as rd

    if isinstance(x, rd.Dataset):
        refs = x.to_arrow_refs()
        parts = [t for t in ray.get(refs) if t.num_rows] or ray.get(refs)[:1]
        return pa.concat_tables(parts, promote_options="default")
    return x


def _tagged_union(parts: list[tuple[str, pa.Table]]) -> pa.Table:
    """Variant-tagged UNION ALL of same-schema arms (the window-slot
    compression pattern shared by every *_suite entry)."""
    out = []
    for variant, t in parts:
        t = _as_table(t)
        out.append(t.add_column(0, "variant", pa.array(
            [variant] * t.num_rows, pa.string())))
    return pa.concat_tables(out)


def _melt_union_sql(arms) -> str:
    """Oracle side of ``_melt`` + ``_tagged_union``: (variant, sql,
    keys, metrics) arms, each metric its own UNION ALL slice of the
    arm's wide result."""
    out = []
    for variant, sql, keys, metrics in arms:
        k1 = f"CAST({keys[0]} AS VARCHAR) AS k1"
        k2 = (f"CAST({keys[1]} AS VARCHAR) AS k2" if len(keys) > 1
              else "'' AS k2")
        for m in metrics:
            out.append(
                f"SELECT '{variant}' AS variant, {k1}, {k2}, "
                f"'{m}' AS metric, CAST({m} AS BIGINT) AS v"
                f"\nFROM (\n{sql}\n)")
    return "\nUNION ALL\n".join(out)


def _tagged_union_sql(arms: list[tuple[str, str, str]]) -> str:
    """Oracle side of ``_tagged_union``: (variant, cols, sql) arms, each
    arm's full WITH-scoped oracle evaluated in its own subquery."""
    return "\nUNION ALL\n".join(
        f"SELECT '{v}' AS variant, {cols}\nFROM (\n{sql}\n)"
        for v, cols, sql in arms)


def _q_porter_autocomplete(sf_dir: str) -> pa.Table:
    """Dictionary autocomplete (type-ahead): top-k completions per
    prefix ranked by collection frequency, straight from the term
    dictionary (range scan + precomputed cf) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_autocomplete

    return porter_autocomplete(_index_for(sf_dir))


def _q_porter_didyoumean(sf_dir: str) -> pa.Table:
    """Did-you-mean spelling correction: cf-ranked edit-1 dictionary
    corrections per misspelled word (self-suggestion excluded) — DuckDB
    hash-matched against the levenshtein-join oracle."""
    from rayse.ops.porter_oracle import porter_didyoumean

    return porter_didyoumean(_index_for(sf_dir))


def _q_porter_regex_terms(sf_dir: str) -> pa.Table:
    """Regex term matching over the dictionary (RegexpQuery analog):
    cf-ranked fully-matching terms per pattern, literal-prefix range
    scan + compiled regex — DuckDB hash-matched against
    regexp_full_match."""
    from rayse.ops.porter_oracle import porter_regex_terms

    return porter_regex_terms(_index_for(sf_dir))


def _q_dictionary_suite(sf_dir: str) -> pa.Table:
    """The term-dictionary ranking machineries — prefix autocomplete
    (range scan), did-you-mean spelling correction (edit-1 scan) and
    regex term matching (literal-prefix-narrowed scan) — tagged under
    one window slot on shared (key, rank, term, cf) columns.
    Individual entries remain below the window, each DuckDB
    hash-matched and pytest-pinned."""
    ac = _as_table(_q_porter_autocomplete(sf_dir)).rename_columns(
        ["key", "rank", "term", "cf"])
    dym = _as_table(_q_porter_didyoumean(sf_dir)).rename_columns(
        ["key", "rank", "term", "cf"])
    rx = _as_table(_q_porter_regex_terms(sf_dir)).rename_columns(
        ["key", "rank", "term", "cf"])
    return _tagged_union([("complete", ac), ("correct", dym),
                          ("regex", rx)])


def _q_bpe_merges(sf_dir: str) -> pa.Table:
    """BPE merge learning (Sennrich et al. 2016): distributed word-cf
    aggregate + deterministic driver merge loop over the distinct
    vocabulary — DuckDB hash-matched against the UNROLLED-SQL merge
    loop (stage-per-merge CTEs; delimiter-guarded replace == the
    leftmost-greedy merge pass)."""
    from rayse.ops.textstats import learn_bpe_merges

    return learn_bpe_merges(sf_dir)


def _q_bpe_encoded_len(sf_dir: str):
    """Token counts under the LEARNED BPE tokenizer (train -> encode ->
    count) — DuckDB hash-matched; also a ``token_count_suite`` arm
    inside the driver window."""
    from rayse.ops.textstats import bpe_encoded_len

    return bpe_encoded_len(sf_dir)


def _q_cooccur_pmi_window(sf_dir: str):
    """Skip-gram-window PMI (the bounded-fan-out scale path of
    ``cooccur_pmi``: W shift passes per batch instead of O(m^2) pair
    enumeration) — DuckDB hash-matched (positional |pos_a - pos_b| <= W
    self-join)."""
    from rayse.ops.textstats import cooccur_pmi_window

    return cooccur_pmi_window(sf_dir)


def _q_quality_buckets(sf_dir: str):
    """CCNet-style head/middle/tail quality bucketing (Wenzek et al.
    2020): the integer unigram-NLL scores cut at fixed integer
    thresholds — DuckDB hash-matched."""
    from rayse.ops.textstats import quality_buckets

    return quality_buckets(sf_dir)


def _q_cooccur_pmi(sf_dir: str):
    """PMI word co-occurrence (association mining over distinct-document
    pairs; the word2vec/GloVe count precursor) — exchange-aggregated
    integer counts, one IEEE-deterministic ln per output pair; DuckDB
    hash-matched."""
    from rayse.ops.textstats import cooccur_pmi

    return cooccur_pmi(sf_dir)


def _q_duplicate_char_extents(sf_dir: str):
    """ExactSubstr at the paper's own granularity: maximal duplicated
    CHAR spans (k-char sliding grams through the same two-exchange +
    gaps-and-islands pipeline as the word variant) — DuckDB
    hash-matched (substr grams, exact list_reduce FNV)."""
    from rayse.ops.spandedup import duplicate_char_extents

    return duplicate_char_extents(sf_dir)


def _q_span_extents_suite(sf_dir: str) -> pa.Table:
    """Length-maximal duplicate extents at BOTH granularities — word
    4-grams (token offsets) and 20-char sliding grams (char offsets) —
    tagged under one window slot; each DuckDB hash-matched."""
    return _tagged_union([
        ("word", _as_table(_q_duplicate_span_extents(sf_dir))),
        ("char", _as_table(_q_duplicate_char_extents(sf_dir)))])


def _q_lm_nll_suite(sf_dir: str) -> pa.Table:
    """The LM quality scorers — unigram (p(w) = cf/total), bigram
    (p(w_i | w_{i-1}) = cf2/cf1) and interpolated Kneser-Ney bigram
    mean NLL — tagged under one window slot; each integer-exact and DuckDB hash-matched. Individual entries
    remain below the window; each pytest-pinned (both routing paths)."""
    from rayse.ops.textstats import (bigram_nll, kn_bigram_nll,
                                     unigram_nll)

    from rayse.ops.classify import nb_classify

    uni = _as_table(unigram_nll(sf_dir))
    bi = _as_table(bigram_nll(sf_dir))
    kn = _as_table(kn_bigram_nll(sf_dir))
    # the *_xchg arms force the distributed scoring branches
    # (broadcast limit 0) under the SAME oracles — the scale routes are
    # window-hash-gated, not just pytest-pinned
    unix = _as_table(unigram_nll(sf_dir, vocab_broadcast_limit=0))
    bix = _as_table(bigram_nll(sf_dir, q_broadcast_limit=0))
    nbx = _as_table(nb_classify(sf_dir, vocab_broadcast_limit=0))
    return _tagged_union([
        ("unigram", uni),
        ("bigram", bi.rename_columns(["doc_id", "nll_q"])),
        ("kneser_ney", kn.rename_columns(["doc_id", "nll_q"])),
        ("unigram_xchg", unix),
        ("bigram_xchg", bix.rename_columns(["doc_id", "nll_q"])),
        ("nb_xchg", nbx.select(["doc_id", "score_q"])
         .rename_columns(["doc_id", "nll_q"]))])


def _q_kn_bigram_nll(sf_dir: str):
    """Interpolated Kneser-Ney bigram NLL (d = 3/4 exact-rational
    contract, continuation counts from the w1/w2 exchanges) — DuckDB
    hash-matched; also an ``lm_nll_suite`` arm inside the window."""
    from rayse.ops.textstats import kn_bigram_nll

    return kn_bigram_nll(sf_dir)


def _q_bigram_nll(sf_dir: str):
    """Bigram-LM quality score (conditional-probability extension of
    ``unigram_nll``): per-doc mean NLL of token bigrams under
    p(w_i | w_{i-1}) = cf2/cf1 — integer-exact quantization, exchange-
    aggregated counts, exchange-joined q-map; DuckDB hash-matched."""
    from rayse.ops.textstats import bigram_nll

    return bigram_nll(sf_dir)


def _q_porter_ranker1_topk(sf_dir: str) -> pa.Table:
    """The reference's Ranker1 combined ranking (max-normalized
    0.70/0.20/0.10 relevance/pagerank/density blend with the
    programming-query weight shift; linkless corpus -> uniform
    pagerank term) — DuckDB hash-matched; also a ``porter_rank_matrix``
    arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_ranker1_topk

    return porter_ranker1_topk(_index_for(sf_dir))


def _q_porter_lmdir_topk(sf_dir: str) -> pa.Table:
    """Dirichlet-prior query-likelihood ranking (Zhai & Lafferty 2001)
    — DuckDB hash-matched; also a ``porter_rank_matrix`` arm inside
    the driver window."""
    from rayse.ops.porter_oracle import porter_lmdir_topk

    return porter_lmdir_topk(_index_for(sf_dir))


def _q_porter_lmjm_topk(sf_dir: str) -> pa.Table:
    """Jelinek-Mercer query-likelihood ranking — DuckDB hash-matched;
    also a ``porter_rank_matrix`` arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_lmjm_topk

    return porter_lmjm_topk(_index_for(sf_dir))


def _q_porter_bm25plus_topk(sf_dir: str) -> pa.Table:
    """BM25+ lower-bounded ranking (Lv & Zhai 2011: δ floor on the tf
    part) — DuckDB hash-matched; also a ``porter_rank_matrix`` arm."""
    from rayse.ops.porter_oracle import porter_bm25plus_topk

    return porter_bm25plus_topk(_index_for(sf_dir))


def _q_porter_bm25l_topk(sf_dir: str) -> pa.Table:
    """BM25L shifted length-normalized-count ranking — DuckDB
    hash-matched; also a ``porter_rank_matrix`` arm."""
    from rayse.ops.porter_oracle import porter_bm25l_topk

    return porter_bm25l_topk(_index_for(sf_dir))


def _q_porter_dfr_topk(sf_dir: str) -> pa.Table:
    """DFR InL2 ranking (Amati & van Rijsbergen 2002: IDF randomness
    model, Laplace after-effect, H2 length normalization) — DuckDB
    hash-matched; also a ``porter_rank_matrix`` arm in the window."""
    from rayse.ops.porter_oracle import porter_dfr_topk

    return porter_dfr_topk(_index_for(sf_dir))


def _q_porter_dph_topk(sf_dir: str) -> pa.Table:
    """DFR DPH parameter-free hypergeometric ranking with Popper
    normalization — DuckDB hash-matched; also a ``porter_rank_matrix``
    arm in the window."""
    from rayse.ops.porter_oracle import porter_dph_topk

    return porter_dph_topk(_index_for(sf_dir))


def _q_porter_prefix_topk(sf_dir: str) -> pa.Table:
    """Prefix (wildcard) retrieval: dictionary range scan per part +
    BM25 union over the expansion — DuckDB hash-matched (LIKE 'pre%'
    against the distinct stemmed terms). Also a ``porter_rank_matrix``
    arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_prefix_topk

    return porter_prefix_topk(_index_for(sf_dir))


def _q_porter_sloppy_topk(sf_dir: str) -> pa.Table:
    """Proximity-window retrieval (sloppy PhraseQuery analog): every
    pair of the phrase's terms within 4 tokens, BM25-scored — DuckDB
    hash-matched; also a `porter_rank_matrix` arm."""
    from rayse.ops.porter_oracle import porter_sloppy_topk

    return porter_sloppy_topk(_index_for(sf_dir))


def _q_porter_fuzzy_topk(sf_dir: str) -> pa.Table:
    """Fuzzy (edit-distance-1) retrieval: length-prefiltered dictionary
    expansion + BM25 union — DuckDB hash-matched (levenshtein() join).
    Also a ``porter_rank_matrix`` arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_fuzzy_topk

    return porter_fuzzy_topk(_index_for(sf_dir))


def _q_porter_deleted_topk(sf_dir: str) -> pa.Table:
    """Delete + compact under the driver hash gate: a deterministic
    conversation subset is compacted out of the Porter index and ranked
    BM25 over the result must hash-match the filtered-corpus oracle —
    tombstone mask, positions byte-gather, stats recomputation, and
    block-max rebuild all pinned at once. Also a ``porter_rank_matrix``
    arm inside the driver window."""
    from rayse.ops.porter_oracle import porter_deleted_topk

    return porter_deleted_topk(_index_for(sf_dir))


def _q_semdedup_keep(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): integer k-means clustering of the
    embedding space + within-cluster cosine dedup with deterministic
    smallest-vec_id canonical keep — kept (vec_id, cluster), DuckDB
    hash-matched (unrolled-Lloyd assignment CTE + thresholded
    same-cluster self-join)."""
    from rayse.ops.similarity import semdedup_keep

    return semdedup_keep(sf_dir)


def _q_phrase_matches_suite(sf_dir: str) -> pa.Table:
    """J6 positional phrase verification through the Porter index + the
    percolator's standing-query reverse search over the raw turn stream
    (no index), tagged — one window slot."""
    from rayse.ops.porter_oracle import porter_phrase_matches

    pc_t = _as_table(_q_percolate(sf_dir)).rename_columns(
        ["phrase", "conv_id", "turn_idx"])
    return _tagged_union([
        ("porter", porter_phrase_matches(_index_for(sf_dir))),
        ("percolate", pc_t)])


def _q_percolate(sf_dir: str):
    """Percolator / prospective search: standing boolean + phrase
    queries evaluated against every turn of the transcript stream with
    NO index — queries parsed once on the driver, matched via a
    per-turn presence bitmask in a map_batches actor pool (ES
    percolate analog; the reference is forward-only) — DuckDB
    hash-matched."""
    import os as _os

    from rayse.ops.percolate import percolate

    idir = _index_for(sf_dir)        # ensures transcripts exist (cached)
    tdir = _os.path.join(_os.path.dirname(idir), "transcripts")
    return percolate(tdir)


def _q_term_stats_suite(sf_dir: str) -> pa.Table:
    """A1-A3 global term dictionary of the Porter index, tagged — one
    window slot — plus the index-maintenance dictionary diff (full index vs its delete+compacted variant) melted
    to signed (df, cf) deltas."""
    from rayse.ops.porter_oracle import porter_term_stats

    d = _as_table(_q_index_diff(sf_dir))
    delta = pa.table({
        "term": d["term"],
        "df": pc.subtract(d["df_b"], d["df_a"]),
        "cf": pc.subtract(d["cf_b"], d["cf_a"]),
    })
    # storage-planner arm: the five per-term compressed-size metrics
    # melted onto (term, df, cf) with the metric tag folded into `term`
    # (one oracle embed instead of five)
    plan = _as_table(_q_postings_plan(sf_dir))
    rplan = _as_table(_q_postings_remap(sf_dir))
    melted = []
    for src, tag, col in (
            (plan, "docvb", "doc_varint_bytes"),
            (plan, "gamma", "doc_gamma_bits"),
            (plan, "tfvb", "tf_varint_bytes"),
            (plan, "dlvb", "dl_varint_bytes"),
            (plan, "posvb", "pos_varint_bytes"),
            (rplan, "rdocvb", "remap_docvb"),
            (rplan, "rgamma", "remap_gamma")):
        melted.append(pa.table({
            "term": pc.binary_join_element_wise(
                src["term"], pa.array([tag] * src.num_rows), ":"),
            "df": src["df"],
            "cf": pc.cast(src[col], pa.int64())}))
    return _tagged_union([
        ("porter", porter_term_stats(_index_for(sf_dir))),
        ("diffdelta", delta),
        ("hh", _as_table(_q_frequent_words(sf_dir)).rename_columns(
            ["term", "df", "cf"])),
        ("plan", pa.concat_tables(melted))])


def _q_frequent_words(sf_dir: str) -> pa.Table:
    """(word, df, cf): exact heavy hitters — every word with cf >= N/500
    via the two-pass pigeonhole-candidates algorithm (bounded driver
    state, vocabulary never leaves the workers) — DuckDB hash-matched
    against the HAVING-threshold oracle."""
    from rayse.ops.heavyhitters import frequent_words

    return frequent_words(sf_dir)


def _q_adamic_adar(sf_dir: str) -> pa.Table:
    """Adamic-Adar link prediction: degree-discounted common-neighbor
    scoring, per-middle weight quantized ONCE to int64 so the wedge
    exchange's sum order cannot flip the hash — DuckDB hash-matched.
    Also an engine_suite arm in the driver window."""
    from rayse.ops.graph import adamic_adar

    return adamic_adar(sf_dir)


def _q_benford_digits(sf_dir: str) -> pa.Table:
    """Benford first-digit audit of the money column: string-exact digit
    extraction on per-row integer cents, per-block bincount partials,
    log-law expectation quantized identically both sides — DuckDB
    hash-matched. Also a stats_suite arm."""
    from rayse.ops.datachecks import benford_digits

    return benford_digits(sf_dir)






def _q_jw_name_pairs(sf_dir: str) -> pa.Table:
    """Jaro-Winkler blocked ER pairs over part names (block = first
    token, one exchange on the FNV block hash, block-local scoring with
    the DuckDB-exact floored-transposition scorer) — hash-matched
    against the built-in jaro_winkler_similarity oracle."""
    from rayse.ops.editdist import jw_name_pairs

    return jw_name_pairs(sf_dir)


def _q_ohlc_daily(sf_dir: str) -> pa.Table:
    """Daily OHLC candles per event type: per-batch argmin/argmax
    partials over the composite (ts, event_id) key, grid-bounded
    driver fold — DuckDB hash-matched against the window row_number
    oracle."""
    from rayse.ops.ohlc import ohlc_daily

    return ohlc_daily(sf_dir)


def _q_zipf_slope(sf_dir: str) -> pa.Table:
    """Zipf OLS fit over the global top-k words via per-block partial
    top-k (vocabulary never lands whole on the driver) — DuckDB
    hash-matched against the regr_slope oracle."""
    from rayse.ops.heavyhitters import zipf_slope

    return zipf_slope(sf_dir)


def _q_holt_hourly(sf_dir: str) -> pa.Table:
    """Holt linear-trend smoothing of the dense hourly grid in integer
    fixed-point with DuckDB `//` truncation parity — hash-matched
    bit-for-bit against the recursive-CTE recurrence."""
    from rayse.ops.bursts import holt_hourly

    return holt_hourly(sf_dir)


def _q_kmeans_silhouette(sf_dir: str) -> pa.Table:
    """Simplified-silhouette quality per k-means cluster: squared
    distances to own vs nearest-other centroid in truncating
    milli-integer form, centroids broadcast, K-bounded fold — DuckDB
    hash-matched against the shared unrolled-Lloyd chain oracle."""
    from rayse.ops.similarity import kmeans_silhouette

    return kmeans_silhouette(sf_dir)


def _q_attribution(sf_dir: str) -> pa.Table:
    """First/last-touch purchase attribution through ONE user-hash
    exchange with a vectorized forward-fill sweep — DuckDB
    hash-matched against the correlated LIMIT-1 oracle."""
    from rayse.ops.attribution import attribution_counts

    return attribution_counts(sf_dir)


def _q_cumulative_users(sf_dir: str) -> pa.Table:
    """Daily new/cumulative user curve off the first-seen-day groupby
    and the bounded day grid — DuckDB hash-matched."""
    from rayse.ops.attribution import cumulative_users_daily

    return cumulative_users_daily(sf_dir)


def _q_hilbert_rank(sf_dir: str) -> "pa.Table":
    """Exact global Hilbert-curve ordering of the events log (the
    locality-stronger sibling of zorder_rank) via the range-histogram
    exchange rank — DuckDB hash-matched against the unrolled
    quadrant-rotation walk."""
    from rayse.ops.hilbert import hilbert_rank

    return hilbert_rank(sf_dir)




def _q_scd2_intervals(sf_dir: str) -> pa.Table:
    """SCD-2 state-run intervals per user through one user-hash
    exchange with a vectorized run-length sweep — DuckDB hash-matched
    against the gaps-and-islands + lead() oracle."""
    from rayse.ops.scd import scd2_intervals

    return scd2_intervals(sf_dir)




def _q_xcorr_hourly(sf_dir: str) -> pa.Table:
    """Lead-lag integer cross-correlation between event-type pairs on
    the dense hourly grid — DuckDB hash-matched against the grid
    self-join oracle."""
    from rayse.ops.bursts import xcorr_hourly

    return xcorr_hourly(sf_dir)


def _q_powerlaw_alpha(sf_dir: str) -> pa.Table:
    """Clauset-style discrete-MLE power-law exponent of the undirected
    degree distribution via the bounded degree-histogram fold — DuckDB
    hash-matched."""
    from rayse.ops.graph import powerlaw_alpha

    return powerlaw_alpha(sf_dir)


def _q_time_to_convert(sf_dir: str) -> pa.Table:
    """Median/p90 seconds from last touch to purchase off the
    delta-histogram fold through one user-hash exchange — DuckDB
    hash-matched against the order-statistic oracle."""
    from rayse.ops.attribution import time_to_convert

    return time_to_convert(sf_dir)


def _q_moving_sum_rows(sf_dir: str) -> pa.Table:
    """Exact ROWS-frame moving sum (4 preceding + current per event
    type) via the tail-chain two-pass: grid-bounded global tails ->
    per-(type, day) prefixes -> one exchange with cumsum-difference
    frames — DuckDB hash-matched against the literal window frame."""
    from rayse.ops.rowframe import moving_sum_rows

    return moving_sum_rows(sf_dir)


def _q_source_trigram_cos(sf_dir: str) -> pa.Table:
    """Squared trigram-cosine between source pairs off the bounded
    per-source trigram fold, all-integer (cos2 in ppm, no sqrt) —
    DuckDB hash-matched against the HUGEINT self-join oracle."""
    from rayse.ops.ctlangid import source_trigram_cos

    return source_trigram_cos(sf_dir)


def _q_ab_lift(sf_dir: str) -> pa.Table:
    """A/B conversion-lift cell: user-parity split, per-bucket
    converter ppm and the shared integer lift ratio — DuckDB
    hash-matched."""
    from rayse.ops.attribution import ab_conversion_lift

    return ab_conversion_lift(sf_dir)


def _q_media_dedup(sf_dir: str) -> pa.Table:
    """Binary-payload exact dedup through the actor-pool digest stage
    (payloads never leave their stage; 60-bit digest-prefix exchange)
    — DuckDB hash-matched against the built-in sha256 oracle."""
    from rayse.ops.multimodal import media_payload_dedup

    return media_payload_dedup(sf_dir)


def _q_fertility(sf_dir: str) -> pa.Table:
    """Tokenizer fertility (chars per BPE-regex token, milli) per
    language in one partial-combine pass — DuckDB hash-matched."""
    from rayse.ops.textstats import fertility_by_lang

    return fertility_by_lang(sf_dir)


def _q_seq_patterns(sf_dir: str) -> pa.Table:
    """MATCH_RECOGNIZE analog: regex patterns over per-user compacted
    event-code strings through one user-hash exchange — DuckDB
    hash-matched against the string_agg + regexp_matches oracle."""
    from rayse.ops.seqmine import sequence_pattern_counts

    return sequence_pattern_counts(sf_dir)


def _q_er_clusters(sf_dir: str) -> pa.Table:
    """ER clusters: union-find over the >=0.9 Jaro-Winkler pair graph
    (driver/distributed routing per the dedup family) — DuckDB
    hash-matched against the recursive min-label oracle."""
    from rayse.ops.editdist import er_clusters

    return er_clusters(sf_dir)




def _q_max_concurrent(sf_dir: str) -> pa.Table:
    """Distributed sweep-line: peak concurrent 30-min-gap sessions via
    boundary deltas, day-bucketed segmented prefix-scan combine —
    DuckDB hash-matched against the running-sum window oracle."""
    from rayse.ops.sweepline import max_concurrent_sessions

    return max_concurrent_sessions(sf_dir)


def _q_pair_lift(sf_dir: str) -> pa.Table:
    """Association lift for the top-support part pairs as exact
    integer ppm (support·n·1e6 // c_a·c_b) off the order-local
    exchange — DuckDB hash-matched."""
    from rayse.ops.basket import pair_lift

    return pair_lift(sf_dir)


def _q_ann_label_topk(sf_dir: str) -> pa.Table:
    """Grouped exact cosine retrieval: top-k per (query, label) with
    Q x labels x k partials — DuckDB hash-matched."""
    from rayse.ops.similarity import ann_label_topk

    return ann_label_topk(sf_dir)


def _q_rich_club(sf_dir: str) -> pa.Table:
    """Rich-club coefficient per degree threshold — exact integer ppm
    off the degree fold + membership-filtered edge counts — DuckDB
    hash-matched."""
    from rayse.ops.graph import rich_club

    return rich_club(sf_dir)


def _q_type_user_jaccard(sf_dir: str) -> pa.Table:
    """Exact pairwise Jaccard between event-type user sets off the
    bounded per-user bitmask histogram (the ground truth the KMV
    set-operation estimates approximate) — DuckDB hash-matched."""
    from rayse.ops.sketch import type_user_jaccard

    return type_user_jaccard(sf_dir)


def _q_bounce_rate(sf_dir: str) -> pa.Table:
    """Daily bounce rate of 30-min-gap sessions (single-event share in
    ppm) via the user exchange — DuckDB hash-matched."""
    from rayse.ops.sweepline import bounce_rate_daily

    return bounce_rate_daily(sf_dir)


def _q_sliding_distinct(sf_dir: str) -> pa.Table:
    """Exact trailing-7-day distinct users per day via per-user
    coverage islands + boundary cumsum (the exact counterpart of the
    HLL daily window) — DuckDB hash-matched."""
    from rayse.ops.sweepline import sliding_distinct_users

    return sliding_distinct_users(sf_dir)




def _q_t_closeness(sf_dir: str) -> pa.Table:
    """t-closeness privacy audit: exact rational ordered-EMD per QI
    group vs the global sensitive distribution — DuckDB
    hash-matched."""
    from rayse.ops.datachecks import t_closeness

    return t_closeness(sf_dir)


def _q_group_kfold(sf_dir: str) -> pa.Table:
    """Leakage-free GroupKFold by user hash with a proved-zero
    straddle count — DuckDB hash-matched."""
    from rayse.ops.kfold import group_kfold

    return group_kfold(sf_dir)


def _q_porter_gapphrase(sf_dir: str) -> pa.Table:
    """Gap-phrase (wildcard-slot SpanNear) matching: exact in-order
    stream-offset predicate via the generalized key-intersection —
    DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_gapphrase_matches

    return porter_gapphrase_matches(_index_for(sf_dir))




def _q_media_wav_frames(sf_dir: str):
    """Framewise audio DSP features where every payload is a REAL WAV
    container encoded AND decoded by the stdlib ``wave`` codec inside
    the actor-pool stage (codec round-trip = identity on samples, so
    the raw-PCM oracle hash-matches) — DuckDB hash-matched."""
    from rayse.ops.multimodal import media_wav_frames

    return media_wav_frames(sf_dir)


def _q_media_audio_frames(sf_dir: str):
    """Framewise audio DSP features (integer energy + zero-crossing
    count) through the actor-pool stage over text-derived PCM —
    DuckDB hash-matched."""
    from rayse.ops.multimodal import media_audio_frames

    return media_audio_frames(sf_dir)






def _q_ivm_distinct_retract(sf_dir: str) -> pa.Table:
    """IVM retraction theorem: distinct-per-type after deleting the
    last day, reconstructed ONLY from multiplicity subtraction,
    hash-matched against the direct recompute oracle."""
    from rayse.ops.ivm import ivm_distinct_retract

    return ivm_distinct_retract(sf_dir)


def _q_feature_hash_vectors(sf_dir: str):
    """Hashing-trick vectorizer: signed FNV bag-of-words buckets,
    fully row-local (no vocabulary state), streamed back as a Dataset
    — DuckDB hash-matched."""
    from rayse.ops.fhash import feature_hash_vectors

    return feature_hash_vectors(sf_dir)


def _q_upsert_merge(sf_dir: str) -> pa.Table:
    """MERGE INTO last-write-wins upsert with kept/updated/inserted
    disposition via doubled argmax partials — DuckDB hash-matched."""
    from rayse.ops.upsert import upsert_merge

    return upsert_merge(sf_dir)






def _q_gazetteer_tags(sf_dir: str) -> pa.Table:
    """Dictionary tagging with OVERLAPPING multi-pattern matching
    (per-length sliding-window comparator in actor state) — DuckDB
    hash-matched against the position-scan oracle."""
    from rayse.ops.gazetteer import gazetteer_tags

    return gazetteer_tags(sf_dir)




def _q_twap_daily(sf_dir: str) -> pa.Table:
    """Day-windowed time-weighted average value per event type: the
    day boundary makes holding weights bucket-local, so ONE
    (type-hash, day) exchange finishes every group with no halo —
    integer cents×microsecond weights, DuckDB hash-matched against the
    lead()-window oracle. Also a stats_suite arm."""
    from rayse.ops.windows import twap_daily

    return twap_daily(sf_dir)


def _q_dp_event_counts(sf_dir: str) -> pa.Table:
    """Sensitivity-1 Laplace count release per event_type (the DP
    mechanism with a deterministic seed — see the op docstring for the
    production seed swap) — DuckDB hash-matched. Also a
    stats_suite arm."""
    from rayse.ops.datachecks import dp_event_counts

    return dp_event_counts(sf_dir)


def _q_postings_remap(sf_dir: str) -> pa.Table:
    """Doc-id reassignment planning (Silvestri 2007): per-term doc-gap
    cost under dense renumbering of the sparse FNV ids — rank offsets
    from per-part distinct counts (parts own disjoint doc ranges), the
    same chunk-partial + term-hash fold as the storage planner — DuckDB
    hash-matched against the dense_rank re-costing."""
    from rayse.ops.idxplan import postings_remap_plan

    return postings_remap_plan(_index_for(sf_dir))


def _q_qpp_predictors(sf_dir: str) -> pa.Table:
    """Pre-retrieval query-difficulty predictors (idf/SCQ/SCS/scope
    families, He & Ounis 2004): broker-side routing signals from
    dictionary stats + one posting-union count — per-term quantized
    integer sums, DuckDB hash-matched. Also an engine_suite arm
    inside the driver window."""
    from rayse.ops.qpp import qpp_predictors

    return qpp_predictors(_index_for(sf_dir))


def _q_cori_shards(sf_dir: str) -> pa.Table:
    """CORI resource ranking (Callan et al. 1995): top-k index shards
    per query from shard-level df + shard word counts — the broker-side
    routing table for a doc-partitioned index tier; per-term quantized
    integer belief sums, DuckDB hash-matched. Also a rank-matrix arm
    inside the driver window."""
    from rayse.ops.shardsel import cori_shard_topk

    return cori_shard_topk(_index_for(sf_dir))


def _q_postings_plan(sf_dir: str) -> pa.Table:
    """Index storage planner: per-term optimized-layout compressed
    sizes (doc-gap varint bytes / Elias-gamma bits, tf/dl/positions
    stream bytes) computed from the segment files themselves — per-chunk
    vectorized decode partials + term-hash exchange merge over chunk
    boundary gaps — DuckDB hash-matched against the full analyzed-stream
    re-costing."""
    from rayse.ops.idxplan import postings_size_plan

    return postings_size_plan(_index_for(sf_dir))


def _q_index_diff(sf_dir: str) -> pa.Table:
    """Index-maintenance dictionary diff: every term whose global
    (df, cf) changed between the full Porter index and its
    delete+compacted variant — distributed term-hash exchange over both
    sides' term_stats partials, DuckDB hash-matched against a FULL
    OUTER JOIN of the filtered/unfiltered corpus re-derivations."""
    from rayse.ops.indexdiff import index_diff
    from rayse.ops.porter_oracle import _compacted_index_for

    idir = _index_for(sf_dir)
    return index_diff(idir, _compacted_index_for(idir))


def _q_sampling_suite(sf_dir: str) -> pa.Table:
    """The three deterministic sampling machineries (uniform splitmix
    rate / per-stratum rates / exact per-stratum quota), tagged — one
    window slot; outputs are sample-sized so the gather is bounded."""
    from rayse.ops.sampling import (bottomk_sample, hash_sample,
                                    quota_sample, stratified_sample,
                                    weighted_sample)

    return _tagged_union([
        ("hash", hash_sample(sf_dir)),
        ("stratified", stratified_sample(sf_dir)),
        ("quota", quota_sample(sf_dir)),
        ("bottomk", bottomk_sample(sf_dir)),
        ("weighted", weighted_sample(sf_dir))])


def _q_pagerank_fixed_suite(sf_dir: str) -> pa.Table:
    """Integer fixed-point link analysis under one window slot: dense
    PageRank (broadcast rank vector) under the recursive-CTE oracle,
    plus HITS hubs & authorities (integer L1-normalized power iteration)
    under the unrolled-CTE oracle, plus TextRank vertices, per-node
    triangle counts, degrees and clustering coefficients under the
    self-join oracle, plus personalized PageRank (seed-restricted
    teleport) under its own recursive CTE, plus BFS hop counts and
    Bellman-Ford distances under their unrolled oracles."""
    from rayse.ops.graph import hits_fixed_events, pagerank_fixed_events

    from rayse.ops.textrank import textrank_vertices

    from rayse.ops.triangles import coeff_from_counts

    hits = hits_fixed_events(sf_dir)
    tri = coeff_from_counts(_q_triangle_counts(sf_dir))
    return _tagged_union([
        ("dense", pagerank_fixed_events(sf_dir)),
        ("hits_hub", hits.select(["vertex", "hub_fp"]).rename_columns(
            ["vertex", "rank_fp"])),
        ("hits_auth", hits.select(["vertex", "auth_fp"]).rename_columns(
            ["vertex", "rank_fp"])),
        ("textrank", textrank_vertices(sf_dir)),
        ("tri_deg", tri.select(
            ["node", "deg"]).rename_columns(["vertex", "rank_fp"])),
        ("tri_count", tri.select(
            ["node", "n_tri"]).rename_columns(["vertex", "rank_fp"])),
        ("clustcoef", tri.select(
            ["node", "coeff_ppm"]).rename_columns(["vertex", "rank_fp"])),
        ("ppr", _q_ppr_fixed(sf_dir)),
        ("bfs", _as_table(_q_bfs_hops(sf_dir)).rename_columns(
            ["vertex", "rank_fp"])),
        ("bellman", _as_table(_q_bellman_ford(sf_dir)).rename_columns(
            ["vertex", "rank_fp"]))])


def _q_split_assign(sf_dir: str) -> pa.Table:
    """(doc_id, split): deterministic 80/10/10 train/val/test assignment
    by splitmix ranges — row-local, DuckDB hash-matched."""
    from rayse.ops.sampling import split_assign

    return _as_table(split_assign(sf_dir))


def _q_porter_bm25f_topk(sf_dir: str) -> pa.Table:
    """BM25F (Robertson et al. 2004): field weight INSIDE the tf
    saturation + per-role avgdl normalization (one field per turn in
    this data model) — DuckDB hash-matched."""
    from rayse.ops.porter_oracle import porter_bm25f_topk

    return porter_bm25f_topk(_index_for(sf_dir))


def _q_compression_ratio(sf_dir: str) -> pa.Table:
    """(doc_id, n_bytes, n_compressed, ratio_ppm): per-doc zlib
    compression ratio — the Gopher-family redundancy quality signal.
    No SQL oracle (DuckDB has no zlib): rows-only driver check; the
    compressor level and outputs are pytest-pinned."""
    from rayse.ops.textstats import compression_ratio

    return _as_table(compression_ratio(sf_dir))


def _q_source_mix_weights(sf_dir: str) -> pa.Table:
    """(source, n_tokens, w_ppm): temperature-scaled (alpha = 1/2)
    source mixing weights with EXACT integer sqrt both engines —
    DuckDB hash-matched."""
    from rayse.ops.sampling import source_mix_weights

    return source_mix_weights(sf_dir)


def _q_chunk_documents(sf_dir: str) -> pa.Table:
    """(doc_id, chunk_idx, n_chunk_tokens, chunk_text): sliding-window
    RAG chunking (64-token windows, stride 48) — row-local vectorized
    boundaries, DuckDB hash-matched string equality."""
    from rayse.ops.chunking import chunk_documents

    return _as_table(chunk_documents(sf_dir))


def _q_g2_collocations(sf_dir: str) -> pa.Table:
    """(word_a, word_b, df_ab, g2_q): Dunning log-likelihood collocation
    significance over the 2x2 document-contingency table — the
    marginal-aware sibling of PMI — DuckDB hash-matched (fixed float op
    order)."""
    from rayse.ops.textstats import g2_collocations

    return _as_table(g2_collocations(sf_dir))


def _q_weighted_sample(sf_dir: str) -> pa.Table:
    """(doc_id, lang): exactly-64 weighted sample (weight = n_chars,
    integer Efraimidis-Spirakis-analog priority = splitmix // weight) —
    mergeable bottom-k partials, DuckDB hash-matched."""
    from rayse.ops.sampling import weighted_sample

    return _as_table(weighted_sample(sf_dir))


def _q_ppr_fixed(sf_dir: str) -> pa.Table:
    """Personalized PageRank (seed-restricted teleport on the integer
    fixed-point machinery; seeds = smallest vertex ids) — DuckDB
    hash-matched against the seed-CASE recursive CTE."""
    from rayse.ops.graph import ppr_fixed_events

    return ppr_fixed_events(sf_dir)


def _q_triangle_counts(sf_dir: str) -> pa.Table:
    """Per-node triangle counts + distinct-neighbor degrees (local
    clustering inputs): lowest-node wedge enumeration over two
    exchanges — DuckDB hash-matched against the three-way self-join."""
    from rayse.ops.triangles import triangle_counts

    return triangle_counts(sf_dir)


def _q_window_agg_suite(sf_dir: str) -> pa.Table:
    """The event-windowing machineries — tumbling groupby, the
    constant-factor hopping explode, and watermark late-event
    accounting — tagged under one window slot.
    The hopping arm's integer micros ride the shared value_sum column as
    an exact int->double cast (micros < 2^53). Individual entries remain
    below the window, still oracle-backed and pytest-pinned."""
    from rayse.ops.windows import hopping_agg, tumbling_agg

    hop = _as_table(hopping_agg(sf_dir, window_s=3600, hop_s=900))
    hop = hop.set_column(
        hop.column_names.index("value_sum_micros"),
        "value_sum", hop["value_sum_micros"].cast(pa.float64()))
    late = _as_table(_q_late_events(sf_dir))
    late = pa.table({"event_type": late["event_type"],
                     "window_start": late["late"],
                     "n_events": late["n"],
                     "value_sum": pa.array(
                         np.zeros(late.num_rows), pa.float64())})
    return _tagged_union([
        ("tumbling", _as_table(tumbling_agg(sf_dir, window_s=3600))),
        ("hopping", hop), ("late", late)])


def _q_late_events(sf_dir: str) -> pa.Table:
    """Event-time watermark accounting (Dataflow-model late-data
    semantics) over deterministically backdated event times: per
    (event_type, late) counts under watermark = running max - delay in
    event_id arrival order — exact global ordered scan via bounded
    bucket prefix maxima + one exchange (no global sort); DuckDB
    hash-matched."""
    from rayse.ops.windows import late_events

    return late_events(sf_dir)


def _q_porter_facets(sf_dir: str) -> pa.Table:
    """Search facet counts (the results-page aggregation every search UI
    ships): per query, the disjunctive match set bucketed by the M6
    per-posting role codes — (query, role, n_docs, n_convs), DuckDB
    hash-matched. Also pins role-code integrity index-wide: every
    posting's stored role byte must equal the turn-parity derivation the
    oracle uses."""
    from rayse.ops.porter_oracle import porter_facets

    return porter_facets(_index_for(sf_dir))


def _q_neardup_pairs_suite(sf_dir: str) -> pa.Table:
    """All five near-duplicate PAIR machineries — n-gram Jaccard
    (PPJoin-style), MinHash+LSH banding, SimHash hamming,
    embedding-cosine LSH, and the asymmetric containment join — tagged
    under one window slot (every output is an (id_a, id_b) pair list;
    the embedding arm's vec ids and the containment arm's ORDERED
    (src, dst) pairs ride the same columns). Individual entries remain
    below the window, each still DuckDB-oracle-backed and
    pytest-pinned."""
    from rayse.ops.dedup import (containment_pairs,
                                 embedding_neardup_pairs, jaccard_pairs,
                                 minhash_lsh_pairs, simhash_pairs)
    from rayse.ops.snm import snm_pairs

    emb = _as_table(embedding_neardup_pairs(sf_dir, threshold=0.4))
    return _tagged_union([
        ("jaccard", _as_table(jaccard_pairs(sf_dir, shingle_k=1,
                                            threshold=0.9))),
        ("jaccard_xchg", _as_table(jaccard_pairs(
            sf_dir, shingle_k=1, threshold=0.9,
            verify_route="hashjoin"))),
        ("minhash", _as_table(minhash_lsh_pairs(sf_dir, shingle_k=3,
                                                threshold=0.5))),
        ("simhash", _as_table(simhash_pairs(sf_dir, max_hamming=3))),
        ("embedding", emb.rename_columns(["doc_a", "doc_b"])),
        ("containment", _as_table(containment_pairs(sf_dir))
         .rename_columns(["doc_a", "doc_b"])),
        ("snm", _as_table(snm_pairs(sf_dir, threshold=0.5)))])


def _q_containment_pairs(sf_dir: str) -> pa.Table:
    """Asymmetric near-containment join (|src∩dst|/|src| >= 0.9 over
    word 3-gram sets): PPJoin prefix theorem on the source side only,
    exchange-keyed candidates, count-routed exact verify with a
    pure-integer rational compare — DuckDB hash-matched."""
    from rayse.ops.dedup import containment_pairs

    return containment_pairs(sf_dir)


def _q_token_count_suite(sf_dir: str) -> pa.Table:
    """All three token-counting machineries — whitespace split, the
    BPE-ish regex pretokenizer, and the LEARNED BPE tokenizer (train ->
    encode -> count) — tagged under one window slot; each DuckDB
    hash-matched (the learned arm against the unrolled-SQL merge loop).
    Individual entries remain below the window."""
    from rayse.ops.textstats import bpe_encoded_len, bpe_token_count

    bpe = _as_table(bpe_token_count(sf_dir))
    return _tagged_union([
        ("ws", _as_table(_q_doc_token_count(sf_dir))),
        ("bpe", bpe.rename_columns(["doc_id", "n_tokens"])),
        ("bpe_applied", _as_table(bpe_encoded_len(sf_dir))),
        ("simpson", _as_table(_q_simpson_diversity(sf_dir))
         .rename_columns(["doc_id", "n_tokens"])),
        ("fre", _as_table(_q_readability(sf_dir)).select(
            ["doc_id", "fre_milli"]).rename_columns(
            ["doc_id", "n_tokens"])),
        ("dhash", _as_table(_q_media_dhash(sf_dir)).rename_columns(
            ["doc_id", "n_tokens"]))])


def _q_pmi_suite(sf_dir: str) -> pa.Table:
    """Both PMI co-occurrence machineries — document-level distinct-pair
    counts and the bounded-fan-out skip-gram window variant — tagged
    under one window slot; each DuckDB hash-matched."""
    from rayse.ops.textstats import (cooccur_pmi, cooccur_pmi_window,
                                     g2_collocations)

    g2 = _as_table(g2_collocations(sf_dir)).rename_columns(
        ["word_a", "word_b", "df_ab", "pmi_q"])
    return _tagged_union([
        ("doc", _as_table(cooccur_pmi(sf_dir))),
        ("window", _as_table(cooccur_pmi_window(sf_dir))),
        ("g2", g2)])


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): hashed-unigram log
    likelihood ratio of a deterministic target slice vs the raw corpus,
    integer-quantized per bucket and summed per doc — DuckDB
    hash-matched (exact FNV buckets, identical two-ln quantization)."""
    from rayse.ops.sampling import dsir_weights

    return dsir_weights(sf_dir)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filters (modal-2-gram fraction, duplicate
    5-gram fraction, token repeat fraction) — pure-integer quantization,
    DuckDB-oracle-backed (sits below the 50-entry window; pinned at
    sf0.001 by tests/test_ops.py)."""
    from rayse.ops.textstats import repetition_stats

    return repetition_stats(sf_dir)


def _q_pagerank(sf_dir: str):
    from rayse.ops.graph import pagerank_events

    return pagerank_events(sf_dir, variant="ranker1")


def _q_mixture_epochs(sf_dir: str):
    """Fractional-epochs data-mixing plan: deterministic per-doc repeat
    counts (en x2.5, rest x1) via the splitmix hash — row-local, exact
    HUGEINT SQL mirror."""
    from rayse.ops.sampling import mixture_epochs

    return mixture_epochs(sf_dir)


def _q_redact_pii(sf_dir: str):
    """PII scrub (emails/IPs/phones -> placeholder tokens) over documents
    with deterministic PII injected — RE2 on both sides (Arrow kernels
    and DuckDB regexp_replace), hash-checked."""
    from rayse.ops.textstats import redact_pii

    return redact_pii(sf_dir)


def _q_media_byte_features(sf_dir: str):
    """Multimodal byte-feature extraction through the actor-pool decode
    seam, with a HARD oracle (payloads = ascii text bytes; features are
    pure byte arithmetic) — upgrades the multimodal feature path from
    rows-only to hash-checked."""
    from rayse.ops.multimodal import media_byte_features_from_documents

    return media_byte_features_from_documents(sf_dir)


def _q_token_quantiles(sf_dir: str):
    """Exact token-count quantiles via the bounded-domain histogram
    (groupby over distinct count values, never corpus-order driver
    state) — mirrors DuckDB's quantile_disc rule exactly."""
    from rayse.ops.textstats import token_count_quantiles

    return token_count_quantiles(sf_dir)


def _q_event_quantiles(sf_dir: str) -> pa.Table:
    """Grouped exact quantiles (p50/p90/p99 of the quantized event value
    per event_type): histogram partials -> one type-keyed exchange ->
    in-partition integer rank pick — DuckDB hash-matched against the
    cumulative-window oracle."""
    from rayse.ops.quantiles import event_quantiles

    return event_quantiles(sf_dir)


def _q_conv_stats(sf_dir: str) -> pa.Table:
    """Per-conversation summary stats (turns, role mix, words, ts span)
    — per-batch partials + one conversation-keyed exchange fold; DuckDB
    hash-matched."""
    from rayse.ops.convstats import conv_stats

    return conv_stats(sf_dir)


def _q_conv_keywords(sf_dir: str) -> pa.Table:
    """Top-3 TF-IDF keywords per conversation FROM the index's posting
    lists (vectorized segment decode, df via broadcast-or-hash-join
    routing, conv_map join for ids) — DuckDB hash-matched."""
    from rayse.ops.convstats import conv_keywords

    return conv_keywords(_index_for(sf_dir))


def _q_gram_matrix(sf_dir: str) -> pa.Table:
    """Distributed integer Gram (scatter) matrix of the embeddings: d x d
    int64 partials per batch, one bounded d^2-key groupby-sum — DuckDB
    hash-matched (exact integer arithmetic)."""
    from rayse.ops.linalg import gram_matrix

    return gram_matrix(sf_dir)


def _q_pca_project(sf_dir: str) -> pa.Table:
    """Top-principal-direction projection: Gram pass + fixed-point power
    iteration on the d x d (driver, exact ints) + broadcast-eigenvector
    projection pass — hash-matched against a HUGEINT recursive-CTE
    mirror of the same iteration."""
    from rayse.ops.linalg import pca_project

    return pca_project(sf_dir)


def _q_quantile_suite(sf_dir: str) -> pa.Table:
    """The scalar summary-statistics machineries — the bounded-domain
    histogram with driver fold (corpus token counts), the grouped
    in-partition quantile fold (per-type event values), the pairwise
    audience-overlap matrix, the per-column dataset profile, the
    bounded-domain percentile ranks, the per-term BM25 score
    explanation, the integer Gram-matrix PCA projection, and the
    per-conversation stats + index-derived TF-IDF keywords — tagged
    under one window slot on shared (key, p_label, v) columns.
    Individual entries remain below the window, each DuckDB
    hash-matched."""
    tok = _as_table(_q_token_quantiles(sf_dir))
    tok = pa.table({
        "key": pa.array([""] * tok.num_rows, pa.string()),
        "p_label": pa.array([str(q) for q in tok["q"].to_pylist()],
                            pa.string()),
        "v": tok["n_tokens"],
    })
    ev = _as_table(_q_event_quantiles(sf_dir)).rename_columns(
        ["key", "p_label", "v"])
    ch = _as_table(_q_cohort_overlap(sf_dir))
    chkey = pc.binary_join_element_wise(ch["type_a"], ch["type_b"], "|")
    chparts = []
    for m in ("inter", "union_", "jac_q"):
        chparts.append(pa.table({
            "key": chkey,
            "p_label": pa.array([m] * ch.num_rows, pa.string()),
            "v": ch[m]}))
    pr = _as_table(_q_profile_events(sf_dir)).rename_columns(
        ["key", "p_label", "v"])
    tp = _as_table(_q_token_count_pct(sf_dir))
    tparts = [pa.table({
        "key": pc.cast(tp["doc_id"], pa.string()),
        "p_label": pa.array([lab] * tp.num_rows, pa.string()),
        "v": tp[col]}) for lab, col in (("ntok", "n_tokens"),
                                        ("pct", "pct_q"))]
    ex = _as_table(_q_porter_explain(sf_dir))
    exkey = pc.binary_join_element_wise(
        ex["query"], ex["conv_id"],
        pc.cast(ex["turn_idx"], pa.string()), "|")
    exparts = [pa.table({
        "key": exkey,
        "p_label": pc.binary_join_element_wise(
            ex["term"], pc.cast(ex["rank"], pa.string()),
            pa.array([m] * ex.num_rows, pa.string()), "|"),
        "v": ex[m]}) for m in ("contrib_q", "tf", "dl")]
    pca = _as_table(_q_pca_project(sf_dir))
    pca = pa.table({
        "key": pc.cast(pca["vec_id"], pa.string()),
        "p_label": pa.array(["proj"] * pca.num_rows, pa.string()),
        "v": pca["proj_q"]})
    cs = _as_table(_q_conv_stats(sf_dir))
    csparts = [pa.table({
        "key": cs["conv_id"],
        "p_label": pa.array([m] * cs.num_rows, pa.string()),
        "v": cs[m]}) for m in ("n_turns", "n_user", "n_words",
                               "max_turn_words", "duration_us", "awq")]
    kw = _as_table(_q_conv_keywords(sf_dir))
    kw = pa.table({
        "key": kw["conv_id"],
        "p_label": pc.binary_join_element_wise(
            pc.cast(kw["rank"], pa.string()), kw["term"], "|"),
        "v": kw["score_q"]})
    nb = _as_table(_q_nb_classify(sf_dir))
    nbparts = [
        pa.table({
            "key": pc.cast(nb["doc_id"], pa.string()),
            "p_label": pc.binary_join_element_wise(
                pa.array(["s"] * nb.num_rows, pa.string()),
                nb["pred"], "|"),
            "v": nb["score_q"]}),
        pa.table({
            "key": pc.cast(nb["doc_id"], pa.string()),
            "p_label": pa.array(["m"] * nb.num_rows, pa.string()),
            "v": nb["margin_q"]})]
    kl = _as_table(_q_source_kl(sf_dir))
    klparts = [pa.table({
        "key": kl["source"],
        "p_label": pa.array([m] * kl.num_rows, pa.string()),
        "v": kl[col]}) for m, col in (("kl", "kl_q"),
                                      ("ntok", "n_tokens"))]
    vg = _as_table(_q_vocab_growth(sf_dir))
    vg = pa.table({
        "key": pc.cast(vg["k"], pa.string()),
        "p_label": pa.array(["vocab"] * vg.num_rows, pa.string()),
        "v": vg["vocab"]})
    rp = _as_table(_q_random_projection(sf_dir))
    rp = pa.table({
        "key": pc.cast(rp["vec_id"], pa.string()),
        "p_label": pc.cast(rp["out_dim"], pa.string()),
        "v": rp["val"]})
    md = _as_table(_q_mad_outliers(sf_dir))
    mdparts = [pa.table({
        "key": md["event_type"],
        "p_label": pa.array([m] * md.num_rows, pa.string()),
        "v": md[m]}) for m in ("med_vq", "mad_vq", "n_out", "n")]
    tr = _as_table(_q_trimmed_stats(sf_dir))
    trparts = [pa.table({
        "key": tr["event_type"],
        "p_label": pa.array([m] * tr.num_rows, pa.string()),
        "v": tr[m]}) for m in ("n_kept", "sum_q")]
    cu = _as_table(_q_cusum_alarms(sf_dir))
    cuparts = [pa.table({
        "key": cu["event_type"],
        "p_label": pa.array([m] * cu.num_rows, pa.string()),
        "v": cu[m]}) for m in ("n_alarms", "max_c")]
    dc = _as_table(_q_data_checks(sf_dir))
    dcparts = [pa.table({
        "key": dc["check_name"],
        "p_label": pa.array([m] * dc.num_rows, pa.string()),
        "v": dc[m]}) for m in ("n_violations", "n_rows")]
    mx = _as_table(_q_source_mix_weights(sf_dir))
    mxparts = [pa.table({
        "key": mx["source"],
        "p_label": pa.array([m] * mx.num_rows, pa.string()),
        "v": mx[m]}) for m in ("n_tokens", "w_ppm")]
    return _tagged_union([("tokens", tok), ("events", ev),
                          ("mad", pa.concat_tables(mdparts)),
                          ("trimmed", pa.concat_tables(trparts)),
                          ("cusum", pa.concat_tables(cuparts)),
                          ("checks", pa.concat_tables(dcparts)),
                          ("mix", pa.concat_tables(mxparts)),
                          ("cohort", pa.concat_tables(chparts)),
                          ("profile", pr),
                          ("tokpct", pa.concat_tables(tparts)),
                          ("explain", pa.concat_tables(exparts)),
                          ("pca", pca),
                          ("convstats", pa.concat_tables(csparts)),
                          ("convkw", kw),
                          ("nb", pa.concat_tables(nbparts)),
                          ("srckl", pa.concat_tables(klparts)),
                          ("vocab", vg), ("randproj", rp)])


def _q_mad_outliers(sf_dir: str) -> pa.Table:
    """Robust MAD outlier accounting per event_type (median, MAD, and
    k=3 outlier counts over the quantized value) — ONE histogram
    exchange, pure-integer rank picks; DuckDB hash-matched."""
    from rayse.ops.quantiles import mad_outliers

    return mad_outliers(sf_dir)


def _q_simpson_diversity(sf_dir: str) -> pa.Table:
    """(doc_id, simpson_ppm): Simpson repeat-concentration index per
    document — exact-rational ppm, row-local vectorized, no shuffle —
    DuckDB hash-matched."""
    from rayse.ops.textstats import simpson_diversity

    return _as_table(simpson_diversity(sf_dir))


def _q_kmv_source_ops(sf_dir: str) -> pa.Table:
    """(src_a, src_b, est_union, est_inter): KMV sketch algebra (Beyer
    et al. 2007) — per-source bottom-k sketches from ONE corpus pass,
    pairwise union/intersection estimates from the sketches alone, all
    integer arithmetic — DuckDB hash-matched."""
    from rayse.ops.sketch import kmv_source_ops

    return kmv_source_ops(sf_dir)


def _q_data_checks(sf_dir: str) -> pa.Table:
    """(check_name, n_violations, n_rows): Deequ-style constraint
    validation — RI via exchange ANTI join + broadcast membership,
    uniqueness via in-partition distinct counts, domain/range/null via
    partial sums — DuckDB hash-matched."""
    from rayse.ops.datachecks import data_checks

    return data_checks(sf_dir)


def _q_survivorship_keep(sf_dir: str) -> pa.Table:
    """(doc_id, cluster_id, n_chars): near-dup survivorship under the
    keep-richest quality policy (max n_chars, tie min doc_id) per
    connected component — DuckDB hash-matched."""
    from rayse.ops.dedup import survivorship_keep_best

    return survivorship_keep_best(sf_dir)


def _q_cusum_alarms(sf_dir: str) -> pa.Table:
    """(event_type, n_alarms, max_c): Page CUSUM mean-shift detection,
    distributed as an exact two-level parallel prefix scan (bucket
    summaries -> carries -> final scan; skew-safe: a hot type splits
    across its time buckets) — DuckDB hash-matched."""
    from rayse.ops.cusum import cusum_alarms

    return cusum_alarms(sf_dir)


def _q_cusum_rows(sf_dir: str) -> pa.Table:
    """(event_id, event_type, cus_q): the per-event CUSUM statistic —
    row-level output of the same scan, DuckDB hash-matched."""
    from rayse.ops.cusum import cusum_rows

    return _as_table(cusum_rows(sf_dir))


def _q_trimmed_stats(sf_dir: str) -> pa.Table:
    """Two-sided 10%-trimmed sum/count per event_type (robust mean
    numerator): pure-integer rank-interval overlap over the same
    histogram exchange — DuckDB hash-matched."""
    from rayse.ops.quantiles import trimmed_stats

    return trimmed_stats(sf_dir)


def _q_bottomk_sample(sf_dir: str) -> pa.Table:
    """Exactly-k global sample by splitmix order statistics (eval-set
    carving wants exact sizes, not binomial rate counts) — mergeable
    per-batch bottom-k partials, one bounded exchange; DuckDB
    hash-matched, also a ``sampling_suite`` arm in the window."""
    from rayse.ops.sampling import bottomk_sample

    return _as_table(bottomk_sample(sf_dir))


def _q_kmv_distinct(sf_dir: str) -> pa.Table:
    """KMV (k-minimum-values) distinct-word estimate — the bottom-k
    order-statistics sketch; unlike HLL's float estimate this one is
    integer-exact (one HUGEINT floor-division), so the ESTIMATE itself
    is DuckDB hash-matched. Also a ``sketch_suite`` arm in the window."""
    from rayse.ops.sketch import kmv_distinct_words

    return _as_table(kmv_distinct_words(sf_dir))


def _q_nb_classify(sf_dir: str) -> pa.Table:
    """Multinomial Naive Bayes trained on the corpus's own lang labels
    and applied back to every document (the fastText/CCNet classifier-
    filter stage) — integer-exact add-1 contract, DuckDB hash-matched;
    also a ``quantile_suite`` arm inside the driver window."""
    from rayse.ops.classify import nb_classify

    return _as_table(nb_classify(sf_dir))


def _q_source_kl(sf_dir: str) -> pa.Table:
    """Per-source KL(P_s || P_corpus) over add-1 unigram models (slice
    drift / domain-composition monitor) — HUGEINT-exact fold over the
    vocab-bounded contribution table, DuckDB hash-matched; also a
    ``quantile_suite`` arm inside the driver window."""
    from rayse.ops.classify import source_kl

    return source_kl(sf_dir)


def _q_profile_events(sf_dir: str) -> pa.Table:
    """Dataset profiling (per-column n / nulls / exact distinct /
    min-max in long form): count partials + a value-keyed exchange for
    distincts — DuckDB hash-matched."""
    from rayse.ops.profile import profile_events

    return profile_events(sf_dir)




def _q_cohort_overlap(sf_dir: str) -> pa.Table:
    """Pairwise event-type audience Jaccard (segmentation overlap
    matrix): user-keyed exchange enumerates each user's type pairs;
    integer inter/union/jac_q — DuckDB hash-matched."""
    from rayse.ops.funnel import cohort_overlap

    return cohort_overlap(sf_dir)


def _q_token_count_pct(sf_dir: str):
    """Row-level token-count percentile rank (pure-integer contract:
    below * 1e9 // N via the bounded-domain histogram broadcast) —
    DuckDB hash-matched."""
    from rayse.ops.textstats import token_count_pct

    return token_count_pct(sf_dir)


def _q_porter_explain(sf_dir: str) -> pa.Table:
    """Score explanation (Lucene explain analog): per-term BM25
    contribution breakdown of each query's top docs — DuckDB
    hash-matched (the scoring machinery itself is in-window via the
    rank matrix's bm25 arm)."""
    from rayse.ops.porter_oracle import porter_explain

    return porter_explain(_index_for(sf_dir))


def _q_ann_sq_topk(sf_dir: str):
    """Int8 scalar-quantized ANN (faiss ScalarQuantizer idea): global
    max-|component| scale, int8 codes, pure-integer code dot ranking —
    DuckDB hash-matched; also an ``ann_exact_suite`` arm in-window."""
    from rayse.ops.similarity import ann_sq_topk

    return ann_sq_topk(sf_dir, n_queries=5, k=10)


def _q_query_analysis(sf_dir: str) -> pa.Table:
    """/api/query-analysis (+ voice-search delegate) endpoint analog:
    the M7/M8 parse as a table — kind, operator, analyzed phrase
    sides, deduped stemmed terms — DuckDB hash-matched against a SQL
    re-derivation of the parse (QueryController.java:171-202)."""
    from rayse.ops.porter_oracle import query_analysis

    return query_analysis()






def _q_pack_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing (the LLM-pretraining pack):
    every (document, training-sequence) overlap under fixed-length
    chunking in doc_id order — distributed prefix-sum, integer-exact
    DuckDB oracle."""
    from rayse.ops.packing import pack_sequences

    return pack_sequences(sf_dir)


def _q_clean_corpus(sf_dir: str):
    """End-to-end training-corpus cleaning pass (exact dedup ∘ near-dup
    removal ∘ LM-quality filter ∘ deterministic sample) -> kept doc_ids;
    every stage reuses a hash-green operator and the composed DuckDB
    oracle re-derives the same intersection."""
    from rayse.pipelines.clean_corpus import clean_corpus

    return clean_corpus(sf_dir)


def _q_pack_clean_corpus(sf_dir: str):
    """The composed pretraining prep: clean_corpus's kept set feeds
    pack_sequences through a LEFT SEMI exchange hash join — the
    window-sum oracle over documents joined to the composed cleaning
    oracle hash-checks the whole chain at once."""
    from rayse.ops.packing import pack_clean_corpus

    return pack_clean_corpus(sf_dir)


def _q_textrank_keywords(sf_dir: str):
    """TextRank keyword extraction (Mihalcea & Tarau 2004, weighted):
    windowed co-occurrence graph + integer fixed-point PageRank with
    classic d=0.85 damping — bit-exact recursive-CTE oracle; the
    node-level result is also a `pagerank_fixed_suite` arm."""
    from rayse.ops.textrank import textrank_keywords

    return textrank_keywords(sf_dir)


def _q_hits_fixed(sf_dir: str):
    """HITS hubs & authorities (Kleinberg 1999) in integer fixed-point
    with exact L1 normalization — bit-exact under the unrolled-CTE
    DuckDB oracle (integer sums are order-independent; the raw*scale
    normalization product is big-int exact on both sides)."""
    from rayse.ops.graph import hits_fixed_events

    return hits_fixed_events(sf_dir)


def _q_pagerank_fixed(sf_dir: str):
    """Fixed-iteration integer fixed-point PageRank — the same streaming
    iteration machinery as `pagerank`, bit-exact under a recursive-CTE
    DuckDB oracle (integer sums are order-independent)."""
    from rayse.ops.graph import pagerank_fixed_events

    return pagerank_fixed_events(sf_dir)


def _q_props_extract(sf_dir: str):
    from rayse.ops.graph import props_extract

    return props_extract(sf_dir)


def _q_interval_coverage(sf_dir: str) -> pa.Table:
    """(user_id, n_islands, covered_us, max_island_us): merged-interval
    coverage per user (gaps-and-islands) — one exchange by user, one
    vectorized sweep per partition — DuckDB hash-matched. Also a
    stats_suite arm in the driver window."""
    from rayse.ops.intervals import interval_coverage

    return interval_coverage(sf_dir)


def _q_pareto_frontier(sf_dir: str) -> pa.Table:
    """(l_orderkey, l_linenumber, price_q, qty): global skyline of
    (min price, max quantity) via per-batch partial frontiers + one tiny
    merge (no shuffle) — DuckDB hash-matched. Also an engine_suite
    arm in the driver window."""
    from rayse.ops.skyline import pareto_frontier

    return pareto_frontier(sf_dir)


def _q_frequent_pairs(sf_dir: str) -> pa.Table:
    """(p1, p2, support): top-k co-occurring part pairs by supporting
    orders — exchange by order, vectorized per-partition pair
    generation + partial counts — DuckDB hash-matched. Also an
    engine_suite arm in the driver window."""
    from rayse.ops.basket import frequent_pairs

    return frequent_pairs(sf_dir)




def _q_burst_stats(sf_dir: str) -> pa.Table:
    """(event_type, n_bursts, burst_hours, max_burst): hysteresis
    burst-episode statistics over the dense global hour grid — DuckDB
    hash-matched against the window-function oracle. Also a
    stats_suite arm in the driver window."""
    from rayse.ops.bursts import burst_stats

    return burst_stats(sf_dir)


def _q_markov_transitions(sf_dir: str) -> pa.Table:
    """(prev_type, next_type, cnt, p_q): first-order Markov transition
    table with exact floored-rational probabilities — exchange by user,
    adjacency masks, no per-row loop — DuckDB hash-matched. Also a
    stats_suite arm in the driver window."""
    from rayse.ops.seqmine import markov_transitions

    return markov_transitions(sf_dir)


def _q_top_paths(sf_dir: str) -> pa.Table:
    """(t1, t2, t3, cnt): top-k consecutive event-type trigram paths —
    DuckDB hash-matched against the double-lead() oracle. Also a
    stats_suite arm (keys t1/t2; full path pinned standalone)."""
    from rayse.ops.seqmine import top_paths

    return top_paths(sf_dir)


def _q_fs_scores(sf_dir: str) -> pa.Table:
    """(doc_a, doc_b, agree_lang, agree_source, agree_len, score_q):
    Fellegi-Sunter likelihood-ratio scores for SNM candidate pairs,
    exact HUGEINT rationals — DuckDB hash-matched. Also an
    engine_suite arm in the driver window."""
    from rayse.ops.linkage import fs_scores

    return fs_scores(sf_dir)


def _q_vocab_growth(sf_dir: str) -> pa.Table:
    """(k, n_docs, vocab): Heaps'-law vocabulary growth at the
    power-of-two prefix ladder — prefix-k vocab = terms whose MIN
    containing doc_id <= the k-th doc_id, one groupby(term).min fold —
    DuckDB hash-matched. Also a quantile_suite arm in the window."""
    from rayse.ops.vocabgrowth import vocab_growth

    return vocab_growth(sf_dir)


def _q_random_projection(sf_dir: str) -> pa.Table:
    """(vec_id, out_dim, val): exact int64 splitmix sign-sketch
    projection of every embedding, row-local matmul — DuckDB
    hash-matched. Also a quantile_suite arm in the window."""
    from rayse.ops.randproj import random_projection

    return _as_table(random_projection(sf_dir))


def _q_hourly_autocorr(sf_dir: str) -> pa.Table:
    """(event_type, n_pairs, r_q): lag-24 autocorrelation of the dense
    hourly count grid (seasonality detection), exact integer co-moments
    + one float sqrt at 1e9 — DuckDB hash-matched."""
    from rayse.ops.bursts import hourly_autocorr

    return hourly_autocorr(sf_dir)


def _q_qpp_post(sf_dir: str) -> pa.Table:
    """(query, metric, v): post-retrieval QPP — integer WIG and
    one-float-sqrt NQC over the engine's quantized BM25 top-10 —
    DuckDB hash-matched against the composed score-distribution
    oracle (completes the pre-retrieval qpp_predictors family)."""
    from rayse.ops.qpp import qpp_post

    return qpp_post(_index_for(sf_dir))


def _q_rake_phrases(sf_dir: str) -> pa.Table:
    """(phrase, n_occ, score_q): top-k RAKE keyphrases (Rose et al.
    2010) — stopword-island candidates through the production stopword
    list, quantized deg/freq word scores, two corpus passes — DuckDB
    hash-matched against the islands oracle."""
    from rayse.ops.rake import rake_phrases

    return rake_phrases(sf_dir)


def _q_edge_reciprocity(sf_dir: str) -> pa.Table:
    """(scope, n_edges, recip_ppm): directed-edge reciprocity via one
    canonical-pair exchange (both orientations partition-local) —
    DuckDB hash-matched."""
    from rayse.ops.graph import edge_reciprocity

    return edge_reciprocity(sf_dir)


def _q_gini_skew(sf_dir: str) -> pa.Table:
    """(scope, n_keys, gini_ppm): Gini concentration of events-per-user
    and tokens-per-document — histogram rank-sum, no global sort —
    DuckDB hash-matched."""
    from rayse.ops.gini import gini_skew

    return gini_skew(sf_dir)




def _q_dedup_report(sf_dir: str) -> pa.Table:
    """(source, n_docs, n_dup, dup_ppm): per-source exact-duplicate
    exposure — one content-hash exchange with the source carried —
    DuckDB hash-matched against the group-by-text oracle."""
    from rayse.ops.dedupreport import dedup_report

    return dedup_report(sf_dir)


def _q_nb_eval(sf_dir: str) -> pa.Table:
    """(lang, pred, bucket, n): NB confusion x margin-calibration cells
    in one grouped fold (bucket = bit_length of the margin) — DuckDB
    hash-matched against the composed classifier oracle."""
    from rayse.ops.classify import nb_eval

    return nb_eval(sf_dir)


def _q_grep_counts(sf_dir: str) -> pa.Table:
    """(needle, n_docs, n_occurrences): the LIKE/contains scan operator
    — vectorized count_substring kernels, per-batch partials, no
    shuffle — DuckDB hash-matched."""
    from rayse.ops.textstats import grep_counts

    return grep_counts(sf_dir)


def _q_ct_langid(sf_dir: str) -> pa.Table:
    """(doc_id, pred, dist): Cavnar-Trenkle char-trigram rank-profile
    language ID (1994) — one trigram-count fold + broadcast profiles,
    all small exact integers — DuckDB hash-matched."""
    from rayse.ops.ctlangid import ct_langid

    return ct_langid(sf_dir)


def _q_hapax_ratio(sf_dir: str) -> pa.Table:
    """(source, vocab, n_hapax, hapax_ppm): per-source lexical richness
    (once-occurring word fraction) — one (source, word) count fold —
    DuckDB hash-matched."""
    from rayse.ops.vocabgrowth import hapax_ratio

    return hapax_ratio(sf_dir)


def _q_layout_compare(sf_dir: str) -> pa.Table:
    """(layout, n_blocks, blocks_scanned, rows_scanned, rows_matching):
    zone-map scan cost of a user predicate under the natural layout vs
    the Morton (z-order) layout — the payoff measurement for
    zorder_rank, shared block-fold machinery with zonemap_prune —
    DuckDB hash-matched. Also an engine_suite arm in the driver
    window."""
    from rayse.ops.zorder import layout_compare

    return layout_compare(sf_dir)


def _q_phrase_selectivity(sf_dir: str) -> pa.Table:
    """(phrase, n_docs, est_docs, actual_docs): term-independence
    phrase-selectivity estimate (exact integer (prod df) // N^(m-1)
    from the index's own dictionary) vs the true positional match
    count — the IR-planner cell — DuckDB hash-matched. Also an
    engine_suite arm in the driver window."""
    from rayse.ops.porter_oracle import porter_phrase_selectivity

    return porter_phrase_selectivity(_index_for(sf_dir))


def _q_bellman_ford(sf_dir: str) -> pa.Table:
    """(vertex, dist): weighted SSSP after 6 Bellman-Ford min-plus
    rounds (broadcast distance vector, per-batch relax partials, one
    groupby-min per round) — DuckDB hash-matched against the unrolled
    min-plus oracle. Also a pagerank_fixed_suite arm in the driver
    window."""
    from rayse.ops.graph import bellman_ford

    return bellman_ford(sf_dir)


def _q_l_diversity(sf_dir: str) -> pa.Table:
    """(hour, n_groups, n_undiverse, rows_at_risk): l-diversity privacy
    audit (distinct sensitive values per QI group) — two domain-bounded
    composite groupbys — DuckDB hash-matched. Also an engine_suite
    arm in the driver window."""
    from rayse.ops.datachecks import l_diversity

    return l_diversity(sf_dir)




def _q_link_predict_xchg(sf_dir: str) -> pa.Table:
    """Common-neighbor link prediction with the adjacency mask forced
    through the exchange anti-join route (edge_broadcast_limit=0 — no
    driver/broadcast edge set) — bit-identical to the broadcast route,
    DuckDB hash-matched against the same oracle."""
    from rayse.ops.graph import link_predict

    return link_predict(sf_dir, edge_broadcast_limit=0)


def _q_link_predict(sf_dir: str) -> pa.Table:
    """(v_a, v_b, common): top-20 common-neighbor link predictions over
    non-adjacent pairs — exchange self-join wedge enumeration +
    broadcast adjacency mask + partial top-k — DuckDB hash-matched.
    Also an engine_suite arm in the driver window."""
    from rayse.ops.graph import link_predict

    return link_predict(sf_dir)


def _q_forecast_eval(sf_dir: str) -> pa.Table:
    """(event_type, n_hours, mae24_q, mae1_q, mase_ppm): seasonal-naive
    forecast evaluation (lag-24 forecast MAE vs naive-1 baseline) over
    the dense hourly grid — DuckDB hash-matched against the lag-window
    oracle. Also a stats_suite arm in the driver window."""
    from rayse.ops.bursts import forecast_eval

    return forecast_eval(sf_dir)


def _q_fk_discovery(sf_dir: str) -> pa.Table:
    """(child, parent, ndv_child, ndv_parent, n_contained,
    containment_ppm): inclusion-based foreign-key discovery across 7
    candidate column pairs — distinct-key folds + co-partitioned semi
    joins — DuckDB hash-matched against the EXISTS oracle. Also an
    engine_suite arm in the driver window."""
    from rayse.ops.fkdiscover import fk_discovery

    return fk_discovery(sf_dir)


def _q_media_dhash(sf_dir: str):
    """(media_id, dhash): difference-hash perceptual fingerprint over
    the fake-decoded byte grid (8x8 floor-mean cells, 56 comparison
    bits) — row-local vectorized map — DuckDB hash-matched against the
    long-form cell oracle. Also a token_count_suite arm in the driver
    window."""
    from rayse.ops.multimodal import media_dhash_from_documents

    return media_dhash_from_documents(sf_dir)


def _q_edge_churn(sf_dir: str) -> pa.Table:
    """(metric, v): link-graph churn between the event log's two time
    halves (added/removed/stable distinct edges + Jaccard stability) —
    global (edge, half) distinct fold, 4 driver rows — DuckDB
    hash-matched. Also an engine_suite arm in the driver window."""
    from rayse.ops.graph import edge_churn

    return edge_churn(sf_dir)


def _q_checksum_diff(sf_dir: str) -> pa.Table:
    """(pid, differs, n_rows): partition-granular change detection —
    base vs deterministically-mutated corpus digests in one streaming
    pass — DuckDB hash-matched. Also an engine_suite arm in the
    driver window."""
    from rayse.ops.integrity import checksum_diff

    return checksum_diff(sf_dir)


def _q_centroid_classify(sf_dir: str) -> pa.Table:
    """(label, pred, n): nearest-centroid (Rocchio) confusion matrix —
    one (label, dim)-sum fold, broadcast centroids, streaming argmin
    assignment — DuckDB hash-matched against the long-form UNNEST
    oracle. Also a cluster_suite arm in the driver window."""
    from rayse.ops.similarity import centroid_classify

    return centroid_classify(sf_dir)


def _q_dataset_checksum(sf_dir: str) -> pa.Table:
    """(pid, n_rows, digest): order-independent per-partition content
    digests + root — XOR folds of mixed FNV-1a row hashes, exact in any
    task topology — DuckDB hash-matched (bit_xor + HUGEINT splitmix).
    Also an engine_suite arm in the driver window."""
    from rayse.ops.integrity import dataset_checksum

    return dataset_checksum(sf_dir)


def _q_zonemap_prune(sf_dir: str) -> pa.Table:
    """(metric, v): zone-map skipping statistics (blocks/rows pruned vs
    scanned vs matching) for the value >= $200 predicate under 128-row
    blocks — distributed block folds, driver sees 5 rows — DuckDB
    hash-matched. Also an engine_suite arm in the driver window."""
    from rayse.ops.integrity import zonemap_prune

    return zonemap_prune(sf_dir)


def _q_readability(sf_dir: str):
    """(doc_id, n_words, n_sents, n_syll, fre_milli): exact-integer
    Flesch reading ease per document — three Arrow regex-count kernels,
    row-local, no shuffle — DuckDB hash-matched. Also a
    token_count_suite arm in the driver window."""
    from rayse.ops.textstats import readability

    return readability(sf_dir)


def _q_ewma_hourly(sf_dir: str) -> pa.Table:
    """(event_type, hr, ewma_fp): integer fixed-point EWMA (alpha=1/8)
    over the dense hourly grid — distributed grid fold + bounded driver
    recursion — DuckDB hash-matched against the recursive-CTE
    recurrence. Also a stats_suite arm in the driver window."""
    from rayse.ops.bursts import ewma_hourly

    return ewma_hourly(sf_dir)


def _q_bfs_hops(sf_dir: str) -> pa.Table:
    """(vertex, hop): single-source BFS shortest-path hop counts via
    level-synchronous frontier sweeps (broadcast frontier, one edge
    pass per level) — DuckDB hash-matched against the bounded
    recursive-walk MIN(hop) oracle. Also a pagerank_fixed_suite arm
    in the driver window."""
    from rayse.ops.graph import bfs_hops_events

    return bfs_hops_events(sf_dir)




def _q_k_anonymity(sf_dir: str) -> pa.Table:
    """(event_type, n_groups, n_small_groups, rows_at_risk): k-anonymity
    audit under the (type, hour, $50-bucket) quasi-identifier — one
    domain-bounded composite groupby — DuckDB hash-matched. Also an
    engine_suite arm in the driver window."""
    from rayse.ops.datachecks import k_anonymity

    return k_anonymity(sf_dir)


def _q_key_set_ops(sf_dir: str) -> pa.Table:
    """(scope, n): INTERSECT / EXCEPT distinct-key counts across the
    user/customer id domains — DuckDB hash-matched."""
    from rayse.ops.relational import key_set_ops

    return key_set_ops(sf_dir)


def _q_haar_energy(sf_dir: str) -> pa.Table:
    """(event_type, level, energy): exact unnormalized Haar detail
    energies per dyadic level of the hourly count series — DuckDB
    hash-matched against the recursive sum-pyramid oracle."""
    from rayse.ops.bursts import haar_energy

    return haar_energy(sf_dir)


def _q_editdist_pairs(sf_dir: str) -> pa.Table:
    """(doc_a, doc_b, dist): SNM candidate pairs within MAX_DIST exact
    Levenshtein edits — row-vectorized DP with prefix-min insertion
    chain and a cap early-out — DuckDB hash-matched against the
    built-in levenshtein oracle."""
    from rayse.ops.editdist import editdist_pairs

    return editdist_pairs(sf_dir)


def _q_er_components(sf_dir: str) -> pa.Table:
    """(node, comp_id): entity-resolution clusters over all-fields-agree
    SNM pairs (FS decision rule at the all-agree pattern) through the
    routed CC machinery — DuckDB hash-matched against the recursive
    min-label oracle."""
    from rayse.ops.linkage import er_components

    return er_components(sf_dir)


def _q_clustering_coeff(sf_dir: str) -> pa.Table:
    """(node, deg, n_tri, coeff_ppm): local clustering coefficient as
    an exact floored rational over the triangle fold — DuckDB
    hash-matched. Also a pagerank_fixed_suite arm in the window."""
    from rayse.ops.triangles import clustering_coeff

    return clustering_coeff(sf_dir)


def _q_grouping_sets(sf_dir: str) -> pa.Table:
    """(event_type, dow, n, sum_vq): GROUP BY GROUPING SETS completion
    of the rollup/cube family — every set re-aggregated from the
    rollup's output-sized finest level, one raw-stream scan — DuckDB
    hash-matched (cube_agg covers the machinery in-window)."""
    from rayse.ops.rollup import grouping_sets_agg

    return grouping_sets_agg(sf_dir)


def _q_degree_assortativity(sf_dir: str) -> pa.Table:
    """(scope, n_edges, r_q): directed out-in degree assortativity of
    the derived event graph, exact integer co-moments + one float sqrt
    — DuckDB hash-matched. Also a stats_suite arm in the driver
    window."""
    from rayse.ops.graph import degree_assortativity

    return degree_assortativity(sf_dir)


def _melt(t: pa.Table, keys: list[str], metrics: list[str]) -> pa.Table:
    """Wide -> long: one (k1, k2, metric, v) row per input row x metric
    (keys cast to string, metrics must be int64)."""
    t = _as_table(t)
    k1 = pc.cast(t[keys[0]], pa.string())
    k2 = (pc.cast(t[keys[1]], pa.string()) if len(keys) > 1
          else pa.array([""] * t.num_rows, pa.string()))
    parts = []
    for m in metrics:
        parts.append(pa.table({
            "k1": k1, "k2": k2,
            "metric": pa.array([m] * t.num_rows, pa.string()),
            "v": pc.cast(t[m], pa.int64())}))
    return pa.concat_tables(parts)


# ---- themed split of the relational mega-suite (round 5) ------------------
# ONE registry drives BOTH the Ray side and the SQL oracle side, so the
# python/SQL arm partitions cannot drift. Tag -> (builder, keys, metrics,
# sql thunk). The themed suites each stay under 40 arms so one red arm
# cannot hide dozens of green ones behind a single window hash, and each
# arm runs in exactly one of them.

def _sqlmod(name: str):
    return __import__(f"rayse.ops.{name}", fromlist=["x"])


_REL_MELT_ARMS = {
    # --- statistics / timeseries / sampling ---
    "coverage": (_q_interval_coverage, ("user_id",),
                 ("n_islands", "covered_us", "max_island_us"),
                 lambda: _sqlmod("intervals").INTERVAL_COVERAGE_SQL),
    "bursts": (_q_burst_stats, ("event_type",),
               ("n_bursts", "burst_hours", "max_burst"),
               lambda: _sqlmod("bursts").BURST_STATS_SQL),
    "markov": (_q_markov_transitions, ("prev_type", "next_type"),
               ("cnt", "p_q"),
               lambda: _sqlmod("seqmine").MARKOV_TRANSITIONS_SQL),
    "paths": (_q_top_paths, ("t1", "t2"), ("cnt",),
              lambda: _sqlmod("seqmine").top_paths_sql()),
    "assort": (_q_degree_assortativity, ("scope",), ("n_edges", "r_q"),
               lambda: _sqlmod("graph").degree_assortativity_sql()),
    "ewma": (_q_ewma_hourly, ("event_type", "hr"), ("ewma_fp",),
             lambda: _sqlmod("bursts").ewma_hourly_sql()),
    "forecast": (_q_forecast_eval, ("event_type",),
                 ("n_hours", "mae24_q", "mae1_q", "mase_ppm"),
                 lambda: _sqlmod("bursts").forecast_eval_sql()),
    "benford": (_q_benford_digits, ("digit",),
                ("n", "observed_ppm", "expected_ppm"),
                lambda: _sqlmod("datachecks").benford_digits_sql()),
    "dp": (_q_dp_event_counts, ("event_type",), ("n", "noisy_milli"),
           lambda: _sqlmod("datachecks").dp_event_counts_sql()),
    "twap": (_q_twap_daily, ("event_type", "day"),
             ("n", "den_us", "twap_milli"),
             lambda: _sqlmod("windows").twap_daily_sql()),
    "ohlc": (_q_ohlc_daily, ("event_type", "day"),
             ("open", "high", "low", "close", "n"),
             lambda: _sqlmod("ohlc").ohlc_daily_sql()),
    "holt": (_q_holt_hourly, ("event_type", "hr"),
             ("level_fp", "trend_fp"),
             lambda: _sqlmod("bursts").holt_hourly_sql()),
    "cumusers": (_q_cumulative_users, ("day",),
                 ("new_users", "cum_users"),
                 lambda: _sqlmod("attribution").cumulative_users_daily_sql()),
    "ablift": (_q_ab_lift, ("bucket",),
               ("n_users", "n_conv_users", "conv_ppm", "lift_ppm"),
               lambda: _sqlmod("attribution").ab_conversion_lift_sql()),
    "xcorr": (_q_xcorr_hourly, ("type_a", "type_b"),
              ("lag", "dot", "n_terms"),
              lambda: _sqlmod("bursts").xcorr_hourly_sql()),
    "ttc": (_q_time_to_convert, ("n_conv",),
            ("n_attr", "median_s", "p90_s"),
            lambda: _sqlmod("attribution").time_to_convert_sql()),
    "tclose": (_q_t_closeness, ("event_type", "hour"), ("n", "emd_ppm"),
               lambda: _sqlmod("datachecks").t_closeness_sql()),
    "kfold": (_q_group_kfold, ("fold",),
              ("n_users", "n_events", "n_straddle"),
              lambda: _sqlmod("kfold").group_kfold_sql()),
    "mixture": (_q_mixture_epochs, ("doc_id", "lang"), ("n_repeats",),
                lambda: _sqlmod("sampling").mixture_epochs_sql()),
    "dsir": (_q_dsir_weights, ("doc_id",), ("w_q",),
             lambda: _sqlmod("sampling").dsir_weights_sql()),
    # --- engine / governance / graph / linkage / layout ---
    "skyline": (_q_pareto_frontier, ("l_orderkey", "l_linenumber"),
                ("price_q", "qty"),
                lambda: _sqlmod("skyline").PARETO_FRONTIER_SQL),
    "pairs": (_q_frequent_pairs, ("p1", "p2"), ("support",),
              lambda: _sqlmod("basket").frequent_pairs_sql()),
    "fs": (_q_fs_scores, ("doc_a", "doc_b"), ("score_q",),
           lambda: _sqlmod("linkage").fs_scores_sql()),
    "kanon": (_q_k_anonymity, ("event_type",),
              ("n_groups", "n_small_groups", "rows_at_risk"),
              lambda: _sqlmod("datachecks").k_anonymity_sql()),
    "checksum": (_q_dataset_checksum, ("pid",), ("n_rows", "digest"),
                 lambda: _sqlmod("integrity").dataset_checksum_sql()),
    "ckdiff": (_q_checksum_diff, ("pid",), ("differs", "n_rows"),
               lambda: _sqlmod("integrity").checksum_diff_sql()),
    "fk": (_q_fk_discovery, ("child", "parent"),
           ("ndv_child", "ndv_parent", "n_contained",
            "containment_ppm"),
           lambda: _sqlmod("fkdiscover").fk_discovery_sql()),
    "linkpred": (_q_link_predict, ("v_a", "v_b"), ("common",),
                 lambda: _sqlmod("graph").link_predict_sql()),
    "ldiv": (_q_l_diversity, ("hour",),
             ("n_groups", "n_undiverse", "rows_at_risk"),
             lambda: _sqlmod("datachecks").l_diversity_sql()),
    "phrasesel": (_q_phrase_selectivity, ("phrase",),
                  ("n_docs", "est_docs", "actual_docs"),
                  lambda: _sqlmod(
                      "porter_oracle").porter_phrase_selectivity_sql()),
    "layout": (_q_layout_compare, ("layout",),
               ("n_blocks", "blocks_scanned", "rows_scanned",
                "rows_matching"),
               lambda: _sqlmod("zorder").layout_compare_sql()),
    "adamic": (_q_adamic_adar, ("v_a", "v_b"), ("aa_q",),
               lambda: _sqlmod("graph").adamic_adar_sql()),
    "mediadedup": (_q_media_dedup, ("digest",), ("keep_id", "n_copies"),
                   lambda: _sqlmod("multimodal").media_payload_dedup_sql()),
    "trigcos": (_q_source_trigram_cos, ("src_a", "src_b"),
                ("dot", "cos2_ppm"),
                lambda: _sqlmod("ctlangid").source_trigram_cos_sql()),
    "upsert": (_q_upsert_merge, ("user_id", "src"), ("val_cents",),
               lambda: _sqlmod("upsert").upsert_merge_sql()),
    "ivm": (_q_ivm_distinct_retract, ("event_type",),
            ("n_full", "n_base", "n_delta"),
            lambda: _sqlmod("ivm").ivm_distinct_retract_sql()),
    "gaz": (_q_gazetteer_tags, ("doc_id", "needle"), ("n_hits",),
            lambda: _sqlmod("gazetteer").gazetteer_tags_sql()),
    "fhash": (_q_feature_hash_vectors, ("doc_id", "bucket"), ("val",),
              lambda: _sqlmod("fhash").feature_hash_vectors_sql()),
}


def _rel_special_qpp(sf_dir: str) -> pa.Table:
    qp = _as_table(_q_qpp_predictors(sf_dir))
    return pa.table({
        "k1": qp["query"],
        "k2": pa.array([""] * qp.num_rows, pa.string()),
        "metric": qp["metric"], "v": qp["v"]})


def _rel_special_metric(qfn):
    def build(sf_dir: str) -> pa.Table:
        t = _as_table(qfn(sf_dir))
        return pa.table({
            "k1": t["metric"],
            "k2": pa.array([""] * t.num_rows, pa.string()),
            "metric": pa.array(["v"] * t.num_rows, pa.string()),
            "v": t["v"]})
    return build


def _rel_special_metric_sql(tag: str, sql: str) -> str:
    return (f"SELECT '{tag}' AS variant, metric AS k1, '' AS k2, "
            f"'v' AS metric, v\nFROM (\n{sql}\n)")


_REL_SPECIAL_ARMS = {
    "qpp": (_rel_special_qpp,
            lambda: "SELECT 'qpp' AS variant, query AS k1, '' AS k2, "
                    "metric, v\nFROM (\n"
                    + _sqlmod("qpp").qpp_predictors_sql() + "\n)"),
    "zonemap": (_rel_special_metric(_q_zonemap_prune),
                lambda: _rel_special_metric_sql(
                    "zonemap", _sqlmod("integrity").zonemap_prune_sql())),
    "churn": (_rel_special_metric(_q_edge_churn),
              lambda: _rel_special_metric_sql(
                  "churn", _sqlmod("graph").edge_churn_sql())),
}

_REL_SUITE_TAGS = {
    "stats_suite": [
        "coverage", "bursts", "markov", "paths", "assort", "ewma",
        "forecast", "benford", "dp", "twap", "ohlc", "holt",
        "cumusers", "ablift", "xcorr", "ttc", "tclose", "kfold",
        "mixture", "dsir"],
    "engine_suite": [
        "qpp", "skyline", "pairs", "fs", "kanon", "checksum",
        "zonemap", "ckdiff", "churn", "fk", "linkpred", "ldiv",
        "phrasesel", "layout", "adamic", "mediadedup", "trigcos",
        "upsert", "ivm", "gaz", "fhash"],
}
# every registry tag appears in exactly one themed suite, none > 40 arms
assert sorted(t for ts in _REL_SUITE_TAGS.values() for t in ts) \
    == sorted(list(_REL_MELT_ARMS) + list(_REL_SPECIAL_ARMS))
assert all(len(ts) <= 40 for ts in _REL_SUITE_TAGS.values())


def _rel_suite_table(sf_dir: str, suite: str) -> pa.Table:
    parts = []
    for tag in _REL_SUITE_TAGS[suite]:
        if tag in _REL_MELT_ARMS:
            qfn, keys, vals, _sql = _REL_MELT_ARMS[tag]
            parts.append((tag, _melt(qfn(sf_dir), list(keys),
                                     list(vals))))
        else:
            parts.append((tag, _REL_SPECIAL_ARMS[tag][0](sf_dir)))
    return _tagged_union(parts)


def _rel_suite_sql(suite: str) -> str:
    melt_arms, chunks = [], []
    for tag in _REL_SUITE_TAGS[suite]:
        if tag in _REL_MELT_ARMS:
            _q, keys, vals, sql = _REL_MELT_ARMS[tag]
            melt_arms.append((tag, sql(), keys, vals))
        else:
            chunks.append(_REL_SPECIAL_ARMS[tag][1]())
    if melt_arms:
        chunks.insert(0, _melt_union_sql(melt_arms))
    return "\nUNION ALL\n".join(chunks)


def _q_stats_suite(sf_dir: str) -> pa.Table:
    """Statistics / timeseries / sampling arms (bursts, Markov paths,
    OHLC, EWMA/Holt forecasting, Benford and DP counts, A/B lift,
    k-fold, DSIR + mixing plans, ...) in one tagged window slot — every
    arm DuckDB hash-matched."""
    return _rel_suite_table(sf_dir, "stats_suite")


def _q_engine_suite(sf_dir: str) -> pa.Table:
    """Engine / governance / graph / linkage arms (query-performance
    predictors, layout compare, checksums, k-anon family, link
    prediction, upsert, IVM, ...) in one tagged window slot — every
    arm DuckDB hash-matched."""
    return _rel_suite_table(sf_dir, "engine_suite")


def _q_order_suite(sf_dir: str) -> pa.Table:
    """Exact global ranking (zip-with-index) machinery: curriculum
    order (quality-ascending) and the deterministic hash shuffle,
    both via bounded range-histogram offsets + one range-keyed
    exchange — tagged on shared (doc_id, rank) columns, DuckDB
    hash-matched against row_number() oracles."""
    cur = _as_table(_q_curriculum_order(sf_dir))
    shf = _as_table(_q_shuffle_order(sf_dir))
    zo = _as_table(_q_zorder_rank(sf_dir)).rename_columns(
        ["doc_id", "rank"])
    return _tagged_union([("curriculum", cur), ("shuffle", shf),
                          ("zorder", zo)])


def _q_curriculum_order(sf_dir: str) -> pa.Table:
    """(doc_id, rank): exact global curriculum position (ascending
    unigram NLL, doc_id tie-break) — DuckDB hash-matched."""
    from rayse.ops.curriculum import curriculum_order

    return curriculum_order(sf_dir)


def _q_shuffle_order(sf_dir: str) -> pa.Table:
    """(doc_id, rank): deterministic global shuffle by splitmix64 key
    — DuckDB hash-matched."""
    from rayse.ops.curriculum import shuffle_order

    return shuffle_order(sf_dir)


def _q_zorder_rank(sf_dir: str) -> pa.Table:
    """(event_id, rank): exact z-order (Morton) layout position over
    (user_id, hour-of-epoch) — the lakehouse OPTIMIZE ZORDER analog,
    via the bounded range-histogram + one-exchange ranking machinery —
    DuckDB hash-matched against a bit-interleave row_number oracle."""
    from rayse.ops.zorder import zorder_rank

    return _as_table(zorder_rank(sf_dir))


def _q_trailing_window(sf_dir: str):
    from rayse.ops.relational import trailing_window_counts

    return trailing_window_counts(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    """Ordered so the driver's correctness window, the first 50
    oracle-backed entries, hash-checks distinct machinery and runs none
    of it twice. Same-shape variant families are hash-checked through
    single variant-tagged suite entries: ``porter_rank_matrix`` (28
    ranked Porter engine paths), ``ann_exact_suite`` (3 exact ANN
    paths), ``phrase_matches_suite`` / ``term_stats_suite`` (Porter
    index + percolator / dictionary diff, heavy hitters, storage plan),
    ``sampling_suite`` (3 sampling machineries), ``cluster_suite``
    (k-means + SemDeDup), ``join_suite`` (as-of + range),
    ``pagerank_fixed_suite`` (PageRank + PPR + HITS + TextRank +
    triangles + BFS + Bellman-Ford), and
    ``stats_suite`` / ``engine_suite``, which between them run every
    ``_REL_SUITE_TAGS`` arm once. An entry whose builder is such an arm
    (``mixture_epochs``, ``ohlc_daily``, ...) therefore sits below the
    window, with the individual variants (still runnable, still
    pytest-pinned at sf0.001)."""
    return {
        # ---- driver correctness window (first 50 entries) ----
        # training-data ops over documents (SQL hash-checked)
        "token_count_suite": _q_token_count_suite,
        "dedup_exact": _q_dedup_exact,
        "dedup_clusters": _q_dedup_clusters,
        "near_dedup_keep": _q_near_dedup_keep,
        "quality_stats": _q_quality_stats,
        "quality_buckets": _q_quality_buckets,
        "lang_id": _q_lang_id,
        "fingerprints": _q_fingerprints,
        "neardup_pairs_suite": _q_neardup_pairs_suite,
        "pmi_suite": _q_pmi_suite,
        "ann_exact_suite": _q_ann_exact_suite,
        "media_frames": _q_media_frames,
        # windowed / ordered ops over the events log
        "window_agg_suite": _q_window_agg_suite,
        "sessionize": _q_sessionize,
        "top_events_per_type": _q_top_events_per_type,
        # the flagship Porter path: every ranked mode in one tagged entry,
        # plus the non-rank-shaped Porter oracles
        "porter_rank_matrix": _q_porter_rank_matrix,
        "porter_hydrated_topk": _q_porter_hydrated_topk,
        "porter_snippet_topk": _q_porter_snippet_topk,
        "porter_suggest_queries": _q_porter_suggest_queries,
        "dictionary_suite": _q_dictionary_suite,
        "porter_facets": _q_porter_facets,
        "porter_mmr_topk": _q_porter_mmr_topk,
        # phrase and term-dictionary suites
        "phrase_matches_suite": _q_phrase_matches_suite,
        "term_stats_suite": _q_term_stats_suite,
        # cleaning / sampling / joins / clustering / graph
        "text_transform_suite": _q_text_transform_suite,
        "span_dedup_suite": _q_span_dedup_suite,
        "sequence_suite": _q_sequence_suite,
        "span_extents_suite": _q_span_extents_suite,
        "sampling_suite": _q_sampling_suite,
        "lm_nll_suite": _q_lm_nll_suite,
        "contamination": _q_contamination,
        "cluster_suite": _q_cluster_suite,
        "join_suite": _q_join_suite,
        "window_funcs": _q_window_funcs,
        "cube_agg": _q_cube_agg,
        "sketch_suite": _q_sketch_suite,
        "pagerank_fixed_suite": _q_pagerank_fixed_suite,
        # round-4 training-data ops (Gopher filters, packing, quantiles,
        # PII, corpus cleaning, multimodal byte features)
        "repetition_stats": _q_repetition_stats,
        "clean_corpus": _q_clean_corpus,
        "pack_sequences": _q_pack_sequences,
        "quantile_suite": _q_quantile_suite,
        "media_byte_features": _q_media_byte_features,
        "redact_pii": _q_redact_pii,
        # relational breadth, themed (no suite >40 arms; one registry
        # drives both the Ray arms and the oracle arms)
        "stats_suite": _q_stats_suite,
        "engine_suite": _q_engine_suite,
        "order_suite": _q_order_suite,
        "trailing_window": _q_trailing_window,
        # heuristic document cleaning and the stored-query percolator
        "c4_clean": _q_c4_clean,
        "boilerplate_clean": _q_boilerplate_clean,
        "percolate": _q_percolate,
        # ---- end of the driver's 50-entry window ----
        # (stats_suite already runs these two as its mixture/dsir arms)
        "mixture_epochs": _q_mixture_epochs,
        "dsir_weights": _q_dsir_weights,
        "late_events": _q_late_events,
        "mad_outliers": _q_mad_outliers,
        "containment_pairs": _q_containment_pairs,
        "top_grams": _q_top_grams,
        "winnow_fingerprints": _q_winnow_fingerprints,
        "winnow_overlap": _q_winnow_overlap,
        "trimmed_stats": _q_trimmed_stats,
        "zorder_rank": _q_zorder_rank,
        "frequent_words": _q_frequent_words,
        "cusum_alarms": _q_cusum_alarms,
        "cusum_rows": _q_cusum_rows,
        "survivorship_keep": _q_survivorship_keep,
        "data_checks": _q_data_checks,
        "kmv_source_ops": _q_kmv_source_ops,
        "simpson_diversity": _q_simpson_diversity,
        "weighted_sample": _q_weighted_sample,
        "g2_collocations": _q_g2_collocations,
        "chunk_documents": _q_chunk_documents,
        "source_mix_weights": _q_source_mix_weights,
        "compression_ratio": _q_compression_ratio,
        "porter_bm25f_topk": _q_porter_bm25f_topk,
        "split_assign": _q_split_assign,
        "duplicate_spans": _q_duplicate_spans,
        "span_dedup_docs": _q_span_dedup_docs,
        "funnel_counts": _q_funnel_counts,
        "retention_counts": _q_retention_counts,
        "porter_autocomplete": _q_porter_autocomplete,
        "porter_didyoumean": _q_porter_didyoumean,
        "porter_regex_terms": _q_porter_regex_terms,
        "token_quantiles": _q_token_quantiles,
        "event_quantiles": _q_event_quantiles,
        "curriculum_order": _q_curriculum_order,
        "shuffle_order": _q_shuffle_order,
        "triangle_counts": _q_triangle_counts,
        "kn_bigram_nll": _q_kn_bigram_nll,
        "exact_distinct": _q_exact_distinct,
        "query_analysis": _q_query_analysis,
        "ann_sq_topk": _q_ann_sq_topk,
        "porter_explain": _q_porter_explain,
        "token_count_pct": _q_token_count_pct,
        "cohort_overlap": _q_cohort_overlap,
        "ppr_fixed": _q_ppr_fixed,
        "profile_events": _q_profile_events,
        "gram_matrix": _q_gram_matrix,
        "pca_project": _q_pca_project,
        "conv_stats": _q_conv_stats,
        "conv_keywords": _q_conv_keywords,
        "nb_classify": _q_nb_classify,
        "source_kl": _q_source_kl,
        "bottomk_sample": _q_bottomk_sample,
        "kmv_distinct": _q_kmv_distinct,
        "gram_novelty": _q_gram_novelty,
        "index_diff": _q_index_diff,
        "postings_plan": _q_postings_plan,
        "cori_shards": _q_cori_shards,
        "qpp_predictors": _q_qpp_predictors,
        "postings_remap": _q_postings_remap,
        "jw_name_pairs": _q_jw_name_pairs,
        "ohlc_daily": _q_ohlc_daily,
        "zipf_slope": _q_zipf_slope,
        "holt_hourly": _q_holt_hourly,
        "kmeans_silhouette": _q_kmeans_silhouette,
        "attribution_counts": _q_attribution,
        "cumulative_users": _q_cumulative_users,
        "hilbert_rank": _q_hilbert_rank,
        "scd2_intervals": _q_scd2_intervals,
        "xcorr_hourly": _q_xcorr_hourly,
        "powerlaw_alpha": _q_powerlaw_alpha,
        "time_to_convert": _q_time_to_convert,
        "moving_sum_rows": _q_moving_sum_rows,
        "source_trigram_cos": _q_source_trigram_cos,
        "ab_lift": _q_ab_lift,
        "media_dedup": _q_media_dedup,
        "fertility_by_lang": _q_fertility,
        "seq_patterns": _q_seq_patterns,
        "er_clusters": _q_er_clusters,
        "max_concurrent": _q_max_concurrent,
        "pair_lift": _q_pair_lift,
        "ann_label_topk": _q_ann_label_topk,
        "rich_club": _q_rich_club,
        "type_user_jaccard": _q_type_user_jaccard,
        "bounce_rate": _q_bounce_rate,
        "sliding_distinct_users": _q_sliding_distinct,
        "t_closeness": _q_t_closeness,
        "porter_searchafter_topk": _q_porter_searchafter_topk,
        "porter_convscope_topk": _q_porter_convscope_topk,
        "gazetteer_tags": _q_gazetteer_tags,
        "feature_hash_vectors": _q_feature_hash_vectors,
        "upsert_merge": _q_upsert_merge,
        "ivm_distinct_retract": _q_ivm_distinct_retract,
        "group_kfold": _q_group_kfold,
        "porter_synquery_topk": _q_porter_synquery_topk,
        "porter_lossynorm_topk": _q_porter_lossynorm_topk,
        "media_audio_frames": _q_media_audio_frames,
        "media_wav_frames": _q_media_wav_frames,
        "porter_gapphrase": _q_porter_gapphrase,
        "twap_daily": _q_twap_daily,
        "adamic_adar": _q_adamic_adar,
        "dp_event_counts": _q_dp_event_counts,
        "benford_digits": _q_benford_digits,
        "interval_coverage": _q_interval_coverage,
        "pareto_frontier": _q_pareto_frontier,
        "frequent_pairs": _q_frequent_pairs,
        "burst_stats": _q_burst_stats,
        "markov_transitions": _q_markov_transitions,
        "top_paths": _q_top_paths,
        "fs_scores": _q_fs_scores,
        "grouping_sets": _q_grouping_sets,
        "degree_assortativity": _q_degree_assortativity,
        "vocab_growth": _q_vocab_growth,
        "random_projection": _q_random_projection,
        "clustering_coeff": _q_clustering_coeff,
        "er_components": _q_er_components,
        "editdist_pairs": _q_editdist_pairs,
        "hourly_autocorr": _q_hourly_autocorr,
        "qpp_post": _q_qpp_post,
        "rake_phrases": _q_rake_phrases,
        "edge_reciprocity": _q_edge_reciprocity,
        "gini_skew": _q_gini_skew,
        "dedup_report": _q_dedup_report,
        "nb_eval": _q_nb_eval,
        "grep_counts": _q_grep_counts,
        "ct_langid": _q_ct_langid,
        "hapax_ratio": _q_hapax_ratio,
        "layout_compare": _q_layout_compare,
        "phrase_selectivity": _q_phrase_selectivity,
        "bellman_ford": _q_bellman_ford,
        "l_diversity": _q_l_diversity,
        "link_predict": _q_link_predict,
        "link_predict_xchg": _q_link_predict_xchg,
        "forecast_eval": _q_forecast_eval,
        "fk_discovery": _q_fk_discovery,
        "media_dhash": _q_media_dhash,
        "edge_churn": _q_edge_churn,
        "checksum_diff": _q_checksum_diff,
        "centroid_classify": _q_centroid_classify,
        "dataset_checksum": _q_dataset_checksum,
        "zonemap_prune": _q_zonemap_prune,
        "readability": _q_readability,
        "ewma_hourly": _q_ewma_hourly,
        "bfs_hops": _q_bfs_hops,
        "k_anonymity": _q_k_anonymity,
        "key_set_ops": _q_key_set_ops,
        "haar_energy": _q_haar_energy,
        "rollup_agg": _q_rollup_agg,
        "subsample_frequent": _q_subsample_frequent,
        "kmeans_assign": _q_kmeans_assign,
        "semdedup_keep": _q_semdedup_keep,
        "asof_join": _q_asof_join,
        "range_join": _q_range_join,
        "porter_prf_topk": _q_porter_prf_topk,
        "porter_suffix_topk": _q_porter_suffix_topk,
        "porter_msm_topk": _q_porter_msm_topk,
        "windowed_agg": _q_windowed_agg,
        "hopping_agg": _q_hopping_agg,
        "doc_token_count": _q_doc_token_count,
        "bpe_token_count": _q_bpe_token_count,
        "jaccard_pairs": _q_jaccard_pairs,
        "snm_pairs": _q_snm_pairs,
        "ams_f2": _q_ams_f2,
        "minhash_lsh_pairs": _q_minhash_lsh_pairs,
        "simhash_pairs": _q_simhash_pairs,
        "embedding_neardup": _q_embedding_neardup,
        "duplicate_span_extents": _q_duplicate_span_extents,
        "duplicate_char_extents": _q_duplicate_char_extents,
        "unigram_nll": _q_unigram_nll,
        "bigram_nll": _q_bigram_nll,
        "html_clean": _q_html_clean,
        "format_texts": _q_format_texts,
        "porter_bm25_topk": _q_porter_bm25_topk,
        # ---- below the window: individual variants of the suites above
        # (each pytest-pinned at sf0.001), approximate-ANN recall paths,
        # and legacy rows-only entries superseded by hash-green siblings.
        "porter_phrase_matches": _q_porter_phrase_matches,
        "porter_term_stats": _q_porter_term_stats,
        "hash_sample": _q_hash_sample,
        "stratified_sample": _q_stratified_sample,
        "quota_sample": _q_quota_sample,
        "pagerank_fixed": _q_pagerank_fixed,
        "hits_fixed": _q_hits_fixed,
        "textrank_keywords": _q_textrank_keywords,
        "pack_clean_corpus": _q_pack_clean_corpus,
        # props_extract's extraction kernel (_props_k) is transitively
        # hash-pinned by pagerank_fixed_suite (edges derive through it)
        "props_extract": _q_props_extract,
        "porter_prefix_topk": _q_porter_prefix_topk,
        "porter_lmdir_topk": _q_porter_lmdir_topk,
        "porter_ranker1_topk": _q_porter_ranker1_topk,
        "porter_lmjm_topk": _q_porter_lmjm_topk,
        "porter_dfr_topk": _q_porter_dfr_topk,
        "porter_dph_topk": _q_porter_dph_topk,
        "porter_bm25plus_topk": _q_porter_bm25plus_topk,
        "porter_bm25l_topk": _q_porter_bm25l_topk,
        "porter_fuzzy_topk": _q_porter_fuzzy_topk,
        "porter_sloppy_topk": _q_porter_sloppy_topk,
        "porter_deleted_topk": _q_porter_deleted_topk,
        "cooccur_pmi": _q_cooccur_pmi,
        "cooccur_pmi_window": _q_cooccur_pmi_window,
        "bpe_merges": _q_bpe_merges,
        "bpe_encoded_len": _q_bpe_encoded_len,
        "porter_wand_topk": _q_porter_wand_topk,
        "porter_cluster_topk": _q_porter_cluster_topk,
        "porter_role_topk": _q_porter_role_topk,
        "porter_roleboost_topk": _q_porter_roleboost_topk,
        "porter_boolean_topk": _q_porter_boolean_topk,
        "porter_conjunctive_topk": _q_porter_conjunctive_topk,
        "porter_conjunctive_role_topk": _q_porter_conjunctive_role_topk,
        "porter_phrase_role_topk": _q_porter_phrase_role_topk,
        "porter_capped_topk": _q_porter_capped_topk,
        "porter_pruned_topk": _q_porter_pruned_topk,
        "porter_paged_topk": _q_porter_paged_topk,
        "porter_complex_topk": _q_porter_complex_topk,
        "porter_fallback_topk": _q_porter_fallback_topk,
        "ann_topk": _q_ann_topk,
        "ann_ivf_exact_topk": _q_ann_ivf_exact_topk,
        "ann_lsh_exact_topk": _q_ann_lsh_exact_topk,
        "ann_lsh_topk": _q_ann_lsh_topk,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "ann_pq_topk": _q_ann_pq_topk,
        "pagerank": _q_pagerank,
        "media_features": _q_media_features,
        "bm25_topk": _q_bm25_topk,
        "phrase_topk": _q_phrase_topk,
        "boolean_topk": _q_boolean_topk,
        "complex_boolean_topk": _q_complex_boolean_topk,
        "term_stats": _q_term_stats,
        "hydrated_topk": _q_hydrated_topk,
        "fallback_topk": _q_fallback_topk,
        "role_filtered_topk": _q_role_filtered_topk,
    }


def _stopword_sql_list() -> str:
    from rayse.analyzer.stopwords import STOPWORDS_LIST

    return ", ".join("'" + w.replace("'", "''") + "'"
                     for w in STOPWORDS_LIST if w)


_DOC_TOKEN_COUNT_SQL = (
    "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) "
    "AS n_tokens FROM documents"
)

_JACCARD_PAIRS_SQL = """
    WITH toks AS (
      SELECT doc_id, list_distinct(string_split(text, ' ')) AS s
      FROM documents)
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM toks a JOIN toks b ON a.doc_id < b.doc_id
    WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / len(list_distinct(a.s || b.s)) >= 0.9
"""


def oracle_sql() -> dict[str, str]:
    return {
        "doc_token_count": _DOC_TOKEN_COUNT_SQL,
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) "
            "AS n_copies FROM documents GROUP BY text"
        ),
        "quality_stats": f"""
            WITH t AS (
              SELECT doc_id,
                     CAST(length(text) AS BIGINT) AS n_chars,
                     CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                     CAST(length(regexp_replace(text, '[\\w\\s]', '', 'g'))
                          AS BIGINT) AS n_punct,
                     len(list_filter(string_split(text, ' '),
                         w -> w IN ({_stopword_sql_list()}))) AS n_stop
              FROM documents)
            SELECT doc_id, n_chars, n_tokens, n_punct,
                   CAST(n_stop AS DOUBLE) / greatest(n_tokens, 1)
                     AS stopword_ratio,
                   CAST(n_chars - (n_tokens - 1) AS DOUBLE)
                     / greatest(n_tokens, 1) AS avg_token_chars
            FROM t
        """,
        "jaccard_pairs": _JACCARD_PAIRS_SQL,
        "snm_pairs": __import__(
            "rayse.ops.snm", fromlist=["x"]).snm_pairs_sql(threshold=0.5),
        "ams_f2": __import__(
            "rayse.ops.ams", fromlist=["x"]).ams_f2_sql(),
        "neardup_pairs_suite": _tagged_union_sql([
            ("jaccard", "doc_a, doc_b", _JACCARD_PAIRS_SQL),
            ("jaccard_xchg", "doc_a, doc_b", _JACCARD_PAIRS_SQL),
            ("minhash", "doc_a, doc_b", __import__(
                "rayse.ops.dedup", fromlist=["x"]).minhash_lsh_pairs_sql(
                    shingle_k=3, threshold=0.5)),
            ("simhash", "doc_a, doc_b", __import__(
                "rayse.ops.dedup", fromlist=["x"]).simhash_pairs_sql(3)),
            ("embedding", "vec_a AS doc_a, vec_b AS doc_b", __import__(
                "rayse.ops.dedup",
                fromlist=["x"]).embedding_neardup_sql(0.4)),
            ("containment", "src_id AS doc_a, dst_id AS doc_b",
             __import__("rayse.ops.dedup",
                        fromlist=["x"]).containment_pairs_sql()),
            ("snm", "doc_a, doc_b", __import__(
                "rayse.ops.snm",
                fromlist=["x"]).snm_pairs_sql(threshold=0.5))]),
        "containment_pairs": __import__(
            "rayse.ops.dedup", fromlist=["x"]).containment_pairs_sql(),
        "token_count_suite": _tagged_union_sql([
            ("ws", "doc_id, n_tokens", _DOC_TOKEN_COUNT_SQL),
            ("bpe", "doc_id, n_bpe_tokens AS n_tokens", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).bpe_token_count_sql()),
            ("bpe_applied", "doc_id, n_tokens", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).bpe_encoded_len_sql()),
            ("simpson", "doc_id, simpson_ppm AS n_tokens", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).simpson_diversity_sql()),
            ("fre", "doc_id, fre_milli AS n_tokens", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).readability_sql()),
            ("dhash", "media_id AS doc_id, dhash AS n_tokens",
             __import__("rayse.ops.multimodal",
                        fromlist=["x"]).media_dhash_sql())]),
        "bpe_merges": __import__(
            "rayse.ops.textstats", fromlist=["x"]).learn_bpe_merges_sql(),
        "bpe_encoded_len": __import__(
            "rayse.ops.textstats", fromlist=["x"]).bpe_encoded_len_sql(),
        "pmi_suite": _tagged_union_sql([
            ("doc", "word_a, word_b, df_ab, pmi_q", __import__(
                "rayse.ops.textstats", fromlist=["x"]).cooccur_pmi_sql()),
            ("window", "word_a, word_b, df_ab, pmi_q", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).cooccur_pmi_window_sql()),
            ("g2", "word_a, word_b, df_ab, g2_q AS pmi_q", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).g2_collocations_sql())]),
        "dsir_weights": __import__(
            "rayse.ops.sampling", fromlist=["x"]).dsir_weights_sql(),
        "porter_facets": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_facets_sql(),
        "stats_suite": _rel_suite_sql("stats_suite"),
        "engine_suite": _rel_suite_sql("engine_suite"),
        "order_suite": _tagged_union_sql([
            ("curriculum", "doc_id, rank", __import__(
                "rayse.ops.curriculum",
                fromlist=["x"]).curriculum_order_sql()),
            ("shuffle", "doc_id, rank", __import__(
                "rayse.ops.curriculum",
                fromlist=["x"]).shuffle_order_sql()),
            ("zorder", "event_id AS doc_id, rank", __import__(
                "rayse.ops.zorder",
                fromlist=["x"]).zorder_rank_sql())]),
        "curriculum_order": __import__(
            "rayse.ops.curriculum", fromlist=["x"]).curriculum_order_sql(),
        "shuffle_order": __import__(
            "rayse.ops.curriculum", fromlist=["x"]).shuffle_order_sql(),
        "triangle_counts": __import__(
            "rayse.ops.triangles", fromlist=["x"]).TRIANGLE_COUNTS_SQL,
        "kn_bigram_nll": __import__(
            "rayse.ops.textstats", fromlist=["x"]).kn_bigram_nll_sql(),
        "exact_distinct": __import__(
            "rayse.ops.sketch", fromlist=["x"]).exact_distinct_sql(),
        "query_analysis": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).query_analysis_sql(),
        "ann_sq_topk": __import__(
            "rayse.ops.similarity", fromlist=["x"]).ann_sq_sql(),
        "porter_explain": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_explain_sql(),
        "token_count_pct": __import__(
            "rayse.ops.textstats", fromlist=["x"]).TOKEN_COUNT_PCT_SQL,
        "cohort_overlap": __import__(
            "rayse.ops.funnel", fromlist=["x"]).COHORT_OVERLAP_SQL,
        "ppr_fixed": __import__(
            "rayse.ops.graph", fromlist=["x"]).ppr_fixed_sql(),
        "profile_events": __import__(
            "rayse.ops.profile", fromlist=["x"]).profile_events_sql(),
        "textrank_keywords": __import__(
            "rayse.ops.textrank", fromlist=["x"]).textrank_sql(),
        "pack_clean_corpus": __import__(
            "rayse.ops.packing", fromlist=["x"]).pack_clean_corpus_sql(),
        "trailing_window": __import__(
            "rayse.ops.relational", fromlist=["x"]).TRAILING_WINDOW_SQL,
        "props_extract": (
            "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) "
            "AS k FROM events"
        ),
        "windowed_agg": """
            SELECT event_type,
                   (epoch_us(ts) // 3600000000) * 3600 AS window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   round(CAST(sum(value) AS DOUBLE), 6) AS value_sum
            FROM events GROUP BY 1, 2
        """,
        "hopping_agg": __import__(
            "rayse.ops.windows", fromlist=["x"]).hopping_agg_sql(3600, 900),
        "window_agg_suite": _tagged_union_sql([
            ("tumbling",
             "event_type, window_start, n_events, value_sum",
             """
            SELECT event_type,
                   (epoch_us(ts) // 3600000000) * 3600 AS window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   round(CAST(sum(value) AS DOUBLE), 6) AS value_sum
            FROM events GROUP BY 1, 2
             """),
            ("hopping",
             "event_type, window_start, n_events, "
             "CAST(value_sum_micros AS DOUBLE) AS value_sum",
             __import__("rayse.ops.windows",
                        fromlist=["x"]).hopping_agg_sql(3600, 900)),
            ("late",
             "event_type, late AS window_start, n AS n_events, "
             "0.0 AS value_sum",
             __import__("rayse.ops.windows",
                        fromlist=["x"]).late_events_sql())]),
        "late_events": __import__(
            "rayse.ops.windows", fromlist=["x"]).late_events_sql(),
        "mad_outliers": __import__(
            "rayse.ops.quantiles", fromlist=["x"]).mad_outliers_sql(),
        "trimmed_stats": __import__(
            "rayse.ops.quantiles", fromlist=["x"]).trimmed_stats_sql(),
        "zorder_rank": __import__(
            "rayse.ops.zorder", fromlist=["x"]).zorder_rank_sql(),
        "frequent_words": __import__(
            "rayse.ops.heavyhitters", fromlist=["x"]).frequent_words_sql(),
        "cusum_alarms": __import__(
            "rayse.ops.cusum", fromlist=["x"]).cusum_alarms_sql(),
        "cusum_rows": __import__(
            "rayse.ops.cusum", fromlist=["x"]).cusum_rows_sql(),
        "survivorship_keep": __import__(
            "rayse.ops.dedup",
            fromlist=["x"]).survivorship_keep_best_sql(),
        "data_checks": __import__(
            "rayse.ops.datachecks", fromlist=["x"]).data_checks_sql(),
        "kmv_source_ops": __import__(
            "rayse.ops.sketch", fromlist=["x"]).kmv_source_ops_sql(),
        "simpson_diversity": __import__(
            "rayse.ops.textstats",
            fromlist=["x"]).simpson_diversity_sql(),
        "weighted_sample": __import__(
            "rayse.ops.sampling", fromlist=["x"]).weighted_sample_sql(),
        "g2_collocations": __import__(
            "rayse.ops.textstats",
            fromlist=["x"]).g2_collocations_sql(),
        "chunk_documents": __import__(
            "rayse.ops.chunking", fromlist=["x"]).chunk_documents_sql(),
        "source_mix_weights": __import__(
            "rayse.ops.sampling",
            fromlist=["x"]).source_mix_weights_sql(),
        "porter_bm25f_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_bm25f_sql(),
        "split_assign": __import__(
            "rayse.ops.sampling", fromlist=["x"]).split_assign_sql(),
        "sessionize": """
            WITH ordered AS (
              SELECT user_id, epoch_us(ts) AS tus, value,
                     lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) AS prev
              FROM events),
            marked AS (
              SELECT user_id, tus, value,
                     CASE WHEN prev IS NULL OR tus - prev > 1800000000
                          THEN 1 ELSE 0 END AS new_session
              FROM ordered),
            sess AS (
              SELECT user_id, tus, value,
                     sum(new_session) OVER (PARTITION BY user_id
                                            ORDER BY tus
                                            ROWS UNBOUNDED PRECEDING) - 1
                       AS session_idx
              FROM marked)
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
                   CAST(count(*) AS BIGINT) AS n_events,
                   min(tus) AS start_ts, max(tus) AS end_ts,
                   round(CAST(sum(value) AS DOUBLE), 6) AS value_sum
            FROM sess GROUP BY user_id, session_idx
        """,
        "top_events_per_type": """
            WITH ranked AS (
              SELECT event_type, event_id, value,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY value DESC, event_id)
                       AS rank
              FROM events)
            SELECT event_type, event_id, value, CAST(rank AS INTEGER) AS rank
            FROM ranked WHERE rank <= 3
        """,
        "bpe_token_count": __import__(
            "rayse.ops.textstats", fromlist=["x"]).bpe_token_count_sql(),
        "dedup_clusters": __import__(
            "rayse.ops.dedup", fromlist=["x"]).dedup_clusters_sql(0.9),
        "fingerprints": __import__(
            "rayse.ops.textstats", fromlist=["x"]).fingerprint_sql(4),
        "near_dedup_keep": __import__(
            "rayse.ops.dedup", fromlist=["x"]).near_dedup_keep_sql(0.9),
        "simhash_pairs": __import__(
            "rayse.ops.dedup", fromlist=["x"]).simhash_pairs_sql(3),
        "minhash_lsh_pairs": __import__(
            "rayse.ops.dedup", fromlist=["x"]).minhash_lsh_pairs_sql(
                shingle_k=3, threshold=0.5),
        "pagerank_fixed": __import__(
            "rayse.ops.graph", fromlist=["x"]).pagerank_fixed_sql(),
        "hits_fixed": __import__(
            "rayse.ops.graph", fromlist=["x"]).hits_fixed_sql(),
        "embedding_neardup": __import__(
            "rayse.ops.dedup", fromlist=["x"]).embedding_neardup_sql(0.4),
        "lang_id": __import__(
            "rayse.ops.textstats", fromlist=["x"]).lang_id_sql(),
        "media_frames": __import__(
            "rayse.ops.multimodal", fromlist=["x"]).media_frames_sql(),
        "porter_rank_matrix": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_rank_matrix_sql(),
        "ann_exact_suite": __import__(
            "rayse.ops.similarity", fromlist=["x"]).ann_exact_suite_sql(),
        "porter_bm25_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(),
        "porter_phrase_matches": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_phrase_sql(),
        "porter_term_stats": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_term_stats_sql(),
        "porter_boolean_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_boolean_sql(),
        "porter_fallback_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_fallback_sql(),
        "porter_role_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(
                assistant_only=True),
        "porter_hydrated_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_hydrated_sql(),
        "porter_wand_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(),
        "porter_cluster_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(),
        "porter_conjunctive_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_conjunctive_sql(),
        "porter_complex_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_complex_sql(),
        "porter_snippet_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_snippet_sql(),
        "porter_suggest_queries": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_suggest_sql(),
        "porter_mmr_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_mmr_sql(),
        "porter_roleboost_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(
                role_weights=__import__(
                    "rayse.ops.porter_oracle",
                    fromlist=["x"]).ROLE_BOOST_WEIGHTS),
        "porter_phrase_role_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_phrase_role_sql(),
        "porter_conjunctive_role_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_conjunctive_role_sql(),
        "porter_capped_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_capped_sql(),
        "porter_pruned_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_pruned_sql(),
        "porter_paged_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_paged_sql(),
        "porter_prefix_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_prefix_sql(),
        "porter_lmdir_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_lmdir_sql(),
        "porter_ranker1_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_ranker1_sql(),
        "porter_lmjm_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_lmjm_sql(),
        "porter_dfr_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_dfr_sql(),
        "porter_dph_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_dph_sql(),
        "porter_bm25plus_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_bm25plus_sql(),
        "porter_bm25l_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25l_sql(),
        "porter_fuzzy_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_fuzzy_sql(),
        "porter_sloppy_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_sloppy_sql(),
        "porter_deleted_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_bm25_sql(
                doc_filter=__import__(
                    "rayse.ops.porter_oracle",
                    fromlist=["x"]).DELETED_DOC_FILTER),
        "porter_autocomplete": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_autocomplete_sql(),
        "porter_didyoumean": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_didyoumean_sql(),
        "dictionary_suite": _tagged_union_sql([
            ("complete", "prefix AS key, rank, term, cf",
             __import__("rayse.ops.porter_oracle",
                        fromlist=["x"]).porter_autocomplete_sql()),
            ("correct", "word AS key, rank, term, cf",
             __import__("rayse.ops.porter_oracle",
                        fromlist=["x"]).porter_didyoumean_sql()),
            ("regex", "pattern AS key, rank, term, cf",
             __import__("rayse.ops.porter_oracle",
                        fromlist=["x"]).porter_regex_terms_sql())]),
        "porter_regex_terms": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_regex_terms_sql(),
        "cooccur_pmi": __import__(
            "rayse.ops.textstats", fromlist=["x"]).cooccur_pmi_sql(),
        "quality_buckets": __import__(
            "rayse.ops.textstats", fromlist=["x"]).quality_buckets_sql(),
        "cooccur_pmi_window": __import__(
            "rayse.ops.textstats",
            fromlist=["x"]).cooccur_pmi_window_sql(),
        "html_clean": __import__(
            "rayse.ops.htmlclean", fromlist=["x"]).html_clean_sql(),
        "text_transform_suite": _tagged_union_sql([
            ("html_clean", "doc_id, clean_text AS text_out", __import__(
                "rayse.ops.htmlclean", fromlist=["x"]).html_clean_sql()),
            ("format", "doc_id, formatted AS text_out", __import__(
                "rayse.ops.textstats", fromlist=["x"]).format_texts_sql()),
            ("subsample", "doc_id, text AS text_out", __import__(
                "rayse.ops.sampling",
                fromlist=["x"]).subsample_frequent_sql()),
            ("c4", "doc_id, text_out", __import__(
                "rayse.ops.c4clean", fromlist=["x"]).c4_clean_sql()),
            ("chunks", "doc_id * 1000 + chunk_idx AS doc_id, "
             "chunk_text AS text_out", __import__(
                 "rayse.ops.chunking",
                 fromlist=["x"]).chunk_documents_sql()),
            ("split", "doc_id, split AS text_out", __import__(
                "rayse.ops.sampling", fromlist=["x"]).split_assign_sql()),
            ("boiler", "doc_id, text_out", __import__(
                "rayse.ops.c4clean", fromlist=["x"]).boilerplate_sql()),
        ]),
        "c4_clean": __import__(
            "rayse.ops.c4clean", fromlist=["x"]).c4_clean_sql(),
        "boilerplate_clean": __import__(
            "rayse.ops.c4clean", fromlist=["x"]).boilerplate_sql(),
        "percolate": __import__(
            "rayse.ops.percolate", fromlist=["x"]).percolate_sql(),
        "subsample_frequent": __import__(
            "rayse.ops.sampling", fromlist=["x"]).subsample_frequent_sql(),
        "sketch_suite": __import__(
            "rayse.ops.sketch", fromlist=["x"]).sketch_suite_sql(),
        "duplicate_spans": __import__(
            "rayse.ops.spandedup", fromlist=["x"]).duplicate_spans_sql(),
        "hash_sample": __import__(
            "rayse.ops.sampling", fromlist=["x"]).hash_sample_sql(),
        "format_texts": __import__(
            "rayse.ops.textstats", fromlist=["x"]).format_texts_sql(),
        "unigram_nll": __import__(
            "rayse.ops.textstats", fromlist=["x"]).unigram_nll_sql(),
        "bigram_nll": __import__(
            "rayse.ops.textstats", fromlist=["x"]).bigram_nll_sql(),
        "lm_nll_suite": _tagged_union_sql([
            ("unigram", "doc_id, nll_q", __import__(
                "rayse.ops.textstats", fromlist=["x"]).unigram_nll_sql()),
            ("bigram", "doc_id, nll2_q AS nll_q", __import__(
                "rayse.ops.textstats", fromlist=["x"]).bigram_nll_sql()),
            ("unigram_xchg", "doc_id, nll_q", __import__(
                "rayse.ops.textstats", fromlist=["x"]).unigram_nll_sql()),
            ("bigram_xchg", "doc_id, nll2_q AS nll_q", __import__(
                "rayse.ops.textstats", fromlist=["x"]).bigram_nll_sql()),
            ("nb_xchg", "doc_id, score_q AS nll_q", __import__(
                "rayse.ops.classify", fromlist=["x"]).nb_classify_sql()),
            ("kneser_ney", "doc_id, knll_q AS nll_q", __import__(
                "rayse.ops.textstats",
                fromlist=["x"]).kn_bigram_nll_sql())]),
        "kmeans_assign": __import__(
            "rayse.ops.similarity", fromlist=["x"]).kmeans_assign_sql(),
        "semdedup_keep": __import__(
            "rayse.ops.similarity", fromlist=["x"]).semdedup_keep_sql(),
        "cluster_suite": _tagged_union_sql([
            ("kmeans", "vec_id, cluster, dist", __import__(
                "rayse.ops.similarity", fromlist=["x"]).kmeans_assign_sql()),
            ("semdedup", "vec_id, cluster, CAST(0 AS BIGINT) AS dist",
             __import__("rayse.ops.similarity",
                        fromlist=["x"]).semdedup_keep_sql()),
            ("survivor", "doc_id AS vec_id, "
             "CAST(cluster_id AS INTEGER) AS cluster, n_chars AS dist",
             __import__("rayse.ops.dedup",
                        fromlist=["x"]).survivorship_keep_best_sql()),
            ("rocchio", "label AS vec_id, "
             "CAST(pred AS INTEGER) AS cluster, n AS dist",
             __import__("rayse.ops.similarity",
                        fromlist=["x"]).centroid_classify_sql())]),
        "join_suite": _tagged_union_sql([
            ("asof", "event_id, user_id, matched_event_id, "
             "gap_us AS delta_us", __import__(
                 "rayse.ops.relational",
                 fromlist=["x"]).asof_join_events_sql()),
            ("range", "event_id, user_id, matched_event_id, delta_us",
             __import__("rayse.ops.relational",
                        fromlist=["x"]).range_join_events_sql())]),
        "asof_join": __import__(
            "rayse.ops.relational", fromlist=["x"]).asof_join_events_sql(),
        "range_join": __import__(
            "rayse.ops.relational", fromlist=["x"]).range_join_events_sql(),
        "contamination": _tagged_union_sql([
            ("broadcast", "doc_id, n_contaminated_grams", __import__(
                "rayse.ops.spandedup", fromlist=["x"]).contamination_sql()),
            ("bloom", "doc_id, n_contaminated_grams", __import__(
                "rayse.ops.spandedup",
                fromlist=["x"]).contamination_sql())]),
        "stratified_sample": __import__(
            "rayse.ops.sampling", fromlist=["x"]).stratified_sample_sql(),
        "quota_sample": __import__(
            "rayse.ops.sampling", fromlist=["x"]).quota_sample_sql(),
        "span_dedup_docs": __import__(
            "rayse.ops.spandedup", fromlist=["x"]).span_dedup_docs_sql(),
        "span_dedup_suite": _tagged_union_sql([
            ("spans", "gram_hash AS key, n_docs AS n_a, n_occ AS n_b",
             __import__("rayse.ops.spandedup",
                        fromlist=["x"]).duplicate_spans_sql()),
            ("docs", "CAST(doc_id AS UBIGINT) AS key, "
             "n_dup_grams AS n_a, CAST(0 AS BIGINT) AS n_b",
             __import__("rayse.ops.spandedup",
                        fromlist=["x"]).span_dedup_docs_sql()),
            ("novelty", "CAST(doc_id AS UBIGINT) AS key, "
             "n_grams AS n_a, n_novel AS n_b",
             __import__("rayse.ops.spandedup",
                        fromlist=["x"]).gram_novelty_sql()),
            ("noveltyppm", "CAST(doc_id AS UBIGINT) AS key, "
             "novelty_ppm AS n_a, CAST(0 AS BIGINT) AS n_b",
             __import__("rayse.ops.spandedup",
                        fromlist=["x"]).gram_novelty_sql()),
            ("topgrams", "gram_hash AS key, rank AS n_a, n_occ AS n_b",
             __import__("rayse.ops.spandedup",
                        fromlist=["x"]).top_grams_sql()),
            ("winnowfp", "CAST(doc_id AS UBIGINT) AS key, n_fp AS n_a, "
             "CAST(fp_xor % 9223372036854775808 AS BIGINT) AS n_b",
             __import__("rayse.ops.winnow",
                        fromlist=["x"]).winnow_fingerprints_sql())]),
        "top_grams": __import__(
            "rayse.ops.spandedup", fromlist=["x"]).top_grams_sql(),
        "winnow_fingerprints": __import__(
            "rayse.ops.winnow", fromlist=["x"]).winnow_fingerprints_sql(),
        "winnow_overlap": __import__(
            "rayse.ops.winnow", fromlist=["x"]).winnow_overlap_pairs_sql(),
        "funnel_counts": __import__(
            "rayse.ops.funnel", fromlist=["x"]).funnel_counts_sql(),
        "retention_counts": __import__(
            "rayse.ops.retention", fromlist=["x"]).retention_counts_sql(),
        "sequence_suite": _tagged_union_sql([
            ("funnel", "stage_idx AS k_idx, stage AS label, n_users",
             __import__("rayse.ops.funnel",
                        fromlist=["x"]).funnel_counts_sql()),
            ("retention", "cohort_week AS k_idx, "
             "CAST(week_offset AS VARCHAR) AS label, n_users",
             __import__("rayse.ops.retention",
                        fromlist=["x"]).retention_counts_sql())]),
        "duplicate_span_extents": __import__(
            "rayse.ops.spandedup",
            fromlist=["x"]).duplicate_span_extents_sql(),
        "duplicate_char_extents": __import__(
            "rayse.ops.spandedup",
            fromlist=["x"]).duplicate_char_extents_sql(),
        "span_extents_suite": _tagged_union_sql([
            ("word", "doc_id, span_start, span_end, n_grams", __import__(
                "rayse.ops.spandedup",
                fromlist=["x"]).duplicate_span_extents_sql()),
            ("char", "doc_id, span_start, span_end, n_grams", __import__(
                "rayse.ops.spandedup",
                fromlist=["x"]).duplicate_char_extents_sql())]),
        "repetition_stats": __import__(
            "rayse.ops.textstats", fromlist=["x"]).repetition_stats_sql(),
        "clean_corpus": __import__(
            "rayse.pipelines.clean_corpus",
            fromlist=["x"]).clean_corpus_sql(),
        "pack_sequences": __import__(
            "rayse.ops.packing", fromlist=["x"]).pack_sequences_sql(),
        "token_quantiles": __import__(
            "rayse.ops.textstats",
            fromlist=["x"]).token_count_quantiles_sql(),
        "event_quantiles": __import__(
            "rayse.ops.quantiles", fromlist=["x"]).EVENT_QUANTILES_SQL,
        "quantile_suite": _tagged_union_sql([
            ("tokens", "'' AS key, CAST(q AS VARCHAR) AS p_label, "
             "n_tokens AS v", __import__(
                 "rayse.ops.textstats",
                 fromlist=["x"]).token_count_quantiles_sql()),
            ("events", "event_type AS key, p_label, vq AS v",
             __import__("rayse.ops.quantiles",
                        fromlist=["x"]).EVENT_QUANTILES_SQL)]
            + [("mad",
                f"event_type AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.quantiles",
                           fromlist=["x"]).mad_outliers_sql())
               for m in ("med_vq", "mad_vq", "n_out", "n")]
            + [("trimmed",
                f"event_type AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.quantiles",
                           fromlist=["x"]).trimmed_stats_sql())
               for m in ("n_kept", "sum_q")]
            + [("cusum",
                f"event_type AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.cusum",
                           fromlist=["x"]).cusum_alarms_sql())
               for m in ("n_alarms", "max_c")]
            + [("checks",
                f"check_name AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.datachecks",
                           fromlist=["x"]).data_checks_sql())
               for m in ("n_violations", "n_rows")]
            + [("mix",
                f"source AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.sampling",
                           fromlist=["x"]).source_mix_weights_sql())
               for m in ("n_tokens", "w_ppm")]
            + [("cohort",
                f"type_a || '|' || type_b AS key, '{m}' AS p_label, "
                f"{m} AS v",
                __import__("rayse.ops.funnel",
                           fromlist=["x"]).COHORT_OVERLAP_SQL)
               for m in ("inter", "union_", "jac_q")]
            + [("vocab",
                "CAST(k AS VARCHAR) AS key, 'vocab' AS p_label, "
                "vocab AS v",
                __import__("rayse.ops.vocabgrowth",
                           fromlist=["x"]).vocab_growth_sql())]
            + [("randproj",
                "CAST(vec_id AS VARCHAR) AS key, "
                "CAST(out_dim AS VARCHAR) AS p_label, val AS v",
                __import__("rayse.ops.randproj",
                           fromlist=["x"]).random_projection_sql())]
            + [("profile", "col AS key, metric AS p_label, v AS v",
                __import__("rayse.ops.profile",
                           fromlist=["x"]).profile_events_sql())]
            + [("tokpct",
                f"CAST(doc_id AS VARCHAR) AS key, '{lab}' AS p_label, "
                f"{col} AS v",
                __import__("rayse.ops.textstats",
                           fromlist=["x"]).TOKEN_COUNT_PCT_SQL)
               for lab, col in (("ntok", "n_tokens"), ("pct", "pct_q"))]
            + [("explain",
                "query || '|' || conv_id || '|' || "
                "CAST(turn_idx AS VARCHAR) AS key, "
                f"term || '|' || CAST(rank AS VARCHAR) || '|{m}' "
                f"AS p_label, {m} AS v",
                __import__("rayse.ops.porter_oracle",
                           fromlist=["x"]).porter_explain_sql())
               for m in ("contrib_q", "tf", "dl")]
            + [("pca",
                "CAST(vec_id AS VARCHAR) AS key, 'proj' AS p_label, "
                "proj_q AS v",
                __import__("rayse.ops.linalg",
                           fromlist=["x"]).pca_project_sql())]
            + [("convstats",
                f"conv_id AS key, '{m}' AS p_label, {m} AS v",
                __import__("rayse.ops.convstats",
                           fromlist=["x"]).CONV_STATS_SQL)
               for m in ("n_turns", "n_user", "n_words",
                         "max_turn_words", "duration_us", "awq")]
            + [("convkw",
                "conv_id AS key, CAST(rank AS VARCHAR) || '|' || term "
                "AS p_label, score_q AS v",
                __import__("rayse.ops.convstats",
                           fromlist=["x"]).conv_keywords_sql())]
            + [("nb",
                "CAST(doc_id AS VARCHAR) AS key, "
                "'s|' || pred AS p_label, score_q AS v",
                __import__("rayse.ops.classify",
                           fromlist=["x"]).nb_classify_sql()),
               ("nb",
                "CAST(doc_id AS VARCHAR) AS key, 'm' AS p_label, "
                "margin_q AS v",
                __import__("rayse.ops.classify",
                           fromlist=["x"]).nb_classify_sql())]
            + [("srckl",
                f"source AS key, '{m}' AS p_label, {col} AS v",
                __import__("rayse.ops.classify",
                           fromlist=["x"]).source_kl_sql())
               for m, col in (("kl", "kl_q"), ("ntok", "n_tokens"))]),
        "gram_matrix": __import__(
            "rayse.ops.linalg", fromlist=["x"]).GRAM_SQL,
        "pca_project": __import__(
            "rayse.ops.linalg", fromlist=["x"]).pca_project_sql(),
        "conv_stats": __import__(
            "rayse.ops.convstats", fromlist=["x"]).CONV_STATS_SQL,
        "conv_keywords": __import__(
            "rayse.ops.convstats", fromlist=["x"]).conv_keywords_sql(),
        "nb_classify": __import__(
            "rayse.ops.classify", fromlist=["x"]).nb_classify_sql(),
        "source_kl": __import__(
            "rayse.ops.classify", fromlist=["x"]).source_kl_sql(),
        "bottomk_sample": __import__(
            "rayse.ops.sampling", fromlist=["x"]).bottomk_sample_sql(),
        "kmv_distinct": __import__(
            "rayse.ops.sketch", fromlist=["x"]).kmv_sql(),
        "gram_novelty": __import__(
            "rayse.ops.spandedup", fromlist=["x"]).gram_novelty_sql(),
        "media_byte_features": __import__(
            "rayse.ops.multimodal",
            fromlist=["x"]).media_byte_features_sql(),
        "redact_pii": __import__(
            "rayse.ops.textstats", fromlist=["x"]).redact_pii_sql(),
        "mixture_epochs": __import__(
            "rayse.ops.sampling", fromlist=["x"]).mixture_epochs_sql(),
        "porter_prf_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_prf_sql(),
        "porter_searchafter_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_searchafter_sql(),
        "porter_synquery_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_synquery_sql(),
        "porter_lossynorm_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_lossynorm_sql(),
        "media_audio_frames": __import__(
            "rayse.ops.multimodal",
            fromlist=["x"]).media_audio_frames_sql(),
        "media_wav_frames": __import__(
            "rayse.ops.multimodal",
            fromlist=["x"]).media_audio_frames_sql(),
        "porter_gapphrase": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_gapphrase_sql(),
        "porter_convscope_topk": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_convscope_sql(),
        "porter_suffix_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_suffix_sql(),
        "porter_msm_topk": __import__(
            "rayse.ops.porter_oracle", fromlist=["x"]).porter_msm_sql(),
        "window_funcs": __import__(
            "rayse.ops.winfuncs", fromlist=["x"]).WINDOW_FUNCTIONS_SQL,
        "rollup_agg": __import__(
            "rayse.ops.rollup", fromlist=["x"]).ROLLUP_AGG_SQL,
        "cube_agg": __import__(
            "rayse.ops.rollup", fromlist=["x"]).CUBE_AGG_SQL,
        "phrase_matches_suite": _tagged_union_sql([
            ("porter", "phrase, conv_id, turn_idx", __import__(
                "rayse.ops.porter_oracle",
                fromlist=["x"]).porter_phrase_sql()),
            ("percolate", "query_id AS phrase, conv_id, turn_idx",
             __import__("rayse.ops.percolate",
                        fromlist=["x"]).percolate_sql())]),
        "term_stats_suite": _tagged_union_sql([
            ("porter", "term, df, cf", __import__(
                "rayse.ops.porter_oracle",
                fromlist=["x"]).porter_term_stats_sql()),
            ("diffdelta", "term, df_b - df_a AS df, cf_b - cf_a AS cf",
             __import__("rayse.ops.indexdiff",
                        fromlist=["x"]).index_diff_sql()),
            ("hh", "word AS term, df, cf",
             __import__("rayse.ops.heavyhitters",
                        fromlist=["x"]).frequent_words_sql())]) +
        "\nUNION ALL\n"
        "SELECT 'plan' AS variant, p.term || ':' || m.tag AS term, p.df,"
        "\n  CASE m.tag WHEN 'docvb' THEN p.doc_varint_bytes"
        "\n             WHEN 'gamma' THEN p.doc_gamma_bits"
        "\n             WHEN 'tfvb' THEN p.tf_varint_bytes"
        "\n             WHEN 'dlvb' THEN p.dl_varint_bytes"
        "\n             ELSE p.pos_varint_bytes END AS cf"
        "\nFROM (\n" + __import__(
            "rayse.ops.idxplan",
            fromlist=["x"]).postings_size_plan_sql() + "\n) p"
        "\nCROSS JOIN (VALUES ('docvb'), ('gamma'), ('tfvb'), ('dlvb'),"
        " ('posvb')) m(tag)"
        "\nUNION ALL\n"
        "SELECT 'plan' AS variant, p.term || ':' || m.tag AS term, p.df,"
        "\n  CASE m.tag WHEN 'rdocvb' THEN p.remap_docvb"
        "\n             ELSE p.remap_gamma END AS cf"
        "\nFROM (\n" + __import__(
            "rayse.ops.idxplan",
            fromlist=["x"]).postings_remap_plan_sql() + "\n) p"
        "\nCROSS JOIN (VALUES ('rdocvb'), ('rgamma')) m(tag)",
        "index_diff": __import__(
            "rayse.ops.indexdiff", fromlist=["x"]).index_diff_sql(),
        "postings_plan": __import__(
            "rayse.ops.idxplan",
            fromlist=["x"]).postings_size_plan_sql(),
        "cori_shards": __import__(
            "rayse.ops.shardsel", fromlist=["x"]).cori_shard_sql(),
        "qpp_predictors": __import__(
            "rayse.ops.qpp", fromlist=["x"]).qpp_predictors_sql(),
        "postings_remap": __import__(
            "rayse.ops.idxplan",
            fromlist=["x"]).postings_remap_plan_sql(),
        "adamic_adar": __import__(
            "rayse.ops.graph", fromlist=["x"]).adamic_adar_sql(),
        "dp_event_counts": __import__(
            "rayse.ops.datachecks", fromlist=["x"]).dp_event_counts_sql(),
        "twap_daily": __import__(
            "rayse.ops.windows", fromlist=["x"]).twap_daily_sql(),
        "jw_name_pairs": __import__(
            "rayse.ops.editdist", fromlist=["x"]).jw_name_pairs_sql(),
        "ohlc_daily": __import__(
            "rayse.ops.ohlc", fromlist=["x"]).ohlc_daily_sql(),
        "zipf_slope": __import__(
            "rayse.ops.heavyhitters", fromlist=["x"]).zipf_slope_sql(),
        "holt_hourly": __import__(
            "rayse.ops.bursts", fromlist=["x"]).holt_hourly_sql(),
        "kmeans_silhouette": __import__(
            "rayse.ops.similarity",
            fromlist=["x"]).kmeans_silhouette_sql(),
        "attribution_counts": __import__(
            "rayse.ops.attribution",
            fromlist=["x"]).attribution_counts_sql(),
        "cumulative_users": __import__(
            "rayse.ops.attribution",
            fromlist=["x"]).cumulative_users_daily_sql(),
        "hilbert_rank": __import__(
            "rayse.ops.hilbert", fromlist=["x"]).hilbert_rank_sql(),
        "scd2_intervals": __import__(
            "rayse.ops.scd", fromlist=["x"]).scd2_intervals_sql(),
        "xcorr_hourly": __import__(
            "rayse.ops.bursts", fromlist=["x"]).xcorr_hourly_sql(),
        "powerlaw_alpha": __import__(
            "rayse.ops.graph", fromlist=["x"]).powerlaw_alpha_sql(),
        "time_to_convert": __import__(
            "rayse.ops.attribution",
            fromlist=["x"]).time_to_convert_sql(),
        "moving_sum_rows": __import__(
            "rayse.ops.rowframe", fromlist=["x"]).moving_sum_rows_sql(),
        "source_trigram_cos": __import__(
            "rayse.ops.ctlangid",
            fromlist=["x"]).source_trigram_cos_sql(),
        "ab_lift": __import__(
            "rayse.ops.attribution",
            fromlist=["x"]).ab_conversion_lift_sql(),
        "media_dedup": __import__(
            "rayse.ops.multimodal",
            fromlist=["x"]).media_payload_dedup_sql(),
        "fertility_by_lang": __import__(
            "rayse.ops.textstats",
            fromlist=["x"]).fertility_by_lang_sql(),
        "seq_patterns": __import__(
            "rayse.ops.seqmine",
            fromlist=["x"]).sequence_pattern_counts_sql(),
        "er_clusters": __import__(
            "rayse.ops.editdist", fromlist=["x"]).er_clusters_sql(),
        "max_concurrent": __import__(
            "rayse.ops.sweepline",
            fromlist=["x"]).max_concurrent_sessions_sql(),
        "pair_lift": __import__(
            "rayse.ops.basket", fromlist=["x"]).pair_lift_sql(),
        "ann_label_topk": __import__(
            "rayse.ops.similarity",
            fromlist=["x"]).ann_label_topk_sql(),
        "rich_club": __import__(
            "rayse.ops.graph", fromlist=["x"]).rich_club_sql(),
        "type_user_jaccard": __import__(
            "rayse.ops.sketch",
            fromlist=["x"]).type_user_jaccard_sql(),
        "bounce_rate": __import__(
            "rayse.ops.sweepline",
            fromlist=["x"]).bounce_rate_daily_sql(),
        "sliding_distinct_users": __import__(
            "rayse.ops.sweepline",
            fromlist=["x"]).sliding_distinct_users_sql(),
        "t_closeness": __import__(
            "rayse.ops.datachecks",
            fromlist=["x"]).t_closeness_sql(),
        "gazetteer_tags": __import__(
            "rayse.ops.gazetteer",
            fromlist=["x"]).gazetteer_tags_sql(),
        "feature_hash_vectors": __import__(
            "rayse.ops.fhash",
            fromlist=["x"]).feature_hash_vectors_sql(),
        "upsert_merge": __import__(
            "rayse.ops.upsert", fromlist=["x"]).upsert_merge_sql(),
        "ivm_distinct_retract": __import__(
            "rayse.ops.ivm",
            fromlist=["x"]).ivm_distinct_retract_sql(),
        "group_kfold": __import__(
            "rayse.ops.kfold", fromlist=["x"]).group_kfold_sql(),
        "benford_digits": __import__(
            "rayse.ops.datachecks", fromlist=["x"]).benford_digits_sql(),
        "interval_coverage": __import__(
            "rayse.ops.intervals",
            fromlist=["x"]).INTERVAL_COVERAGE_SQL,
        "pareto_frontier": __import__(
            "rayse.ops.skyline", fromlist=["x"]).PARETO_FRONTIER_SQL,
        "frequent_pairs": __import__(
            "rayse.ops.basket", fromlist=["x"]).frequent_pairs_sql(),
        "burst_stats": __import__(
            "rayse.ops.bursts", fromlist=["x"]).BURST_STATS_SQL,
        "markov_transitions": __import__(
            "rayse.ops.seqmine",
            fromlist=["x"]).MARKOV_TRANSITIONS_SQL,
        "top_paths": __import__(
            "rayse.ops.seqmine", fromlist=["x"]).top_paths_sql(),
        "fs_scores": __import__(
            "rayse.ops.linkage", fromlist=["x"]).fs_scores_sql(),
        "grouping_sets": __import__(
            "rayse.ops.rollup", fromlist=["x"]).GROUPING_SETS_AGG_SQL,
        "degree_assortativity": __import__(
            "rayse.ops.graph",
            fromlist=["x"]).degree_assortativity_sql(),
        "vocab_growth": __import__(
            "rayse.ops.vocabgrowth", fromlist=["x"]).vocab_growth_sql(),
        "random_projection": __import__(
            "rayse.ops.randproj",
            fromlist=["x"]).random_projection_sql(),
        "clustering_coeff": __import__(
            "rayse.ops.triangles",
            fromlist=["x"]).CLUSTERING_COEFF_SQL,
        "er_components": __import__(
            "rayse.ops.linkage", fromlist=["x"]).er_components_sql(),
        "editdist_pairs": __import__(
            "rayse.ops.editdist", fromlist=["x"]).editdist_pairs_sql(),
        "hourly_autocorr": __import__(
            "rayse.ops.bursts", fromlist=["x"]).hourly_autocorr_sql(),
        "qpp_post": __import__(
            "rayse.ops.qpp", fromlist=["x"]).qpp_post_sql(),
        "rake_phrases": __import__(
            "rayse.ops.rake", fromlist=["x"]).rake_phrases_sql(),
        "edge_reciprocity": __import__(
            "rayse.ops.graph", fromlist=["x"]).edge_reciprocity_sql(),
        "gini_skew": __import__(
            "rayse.ops.gini", fromlist=["x"]).GINI_SKEW_SQL,
        "dedup_report": __import__(
            "rayse.ops.dedupreport", fromlist=["x"]).DEDUP_REPORT_SQL,
        "nb_eval": __import__(
            "rayse.ops.classify", fromlist=["x"]).nb_eval_sql(),
        "grep_counts": __import__(
            "rayse.ops.textstats", fromlist=["x"]).grep_counts_sql(),
        "ct_langid": __import__(
            "rayse.ops.ctlangid", fromlist=["x"]).ct_langid_sql(),
        "hapax_ratio": __import__(
            "rayse.ops.vocabgrowth", fromlist=["x"]).HAPAX_RATIO_SQL,
        "layout_compare": __import__(
            "rayse.ops.zorder", fromlist=["x"]).layout_compare_sql(),
        "phrase_selectivity": __import__(
            "rayse.ops.porter_oracle",
            fromlist=["x"]).porter_phrase_selectivity_sql(),
        "bellman_ford": __import__(
            "rayse.ops.graph", fromlist=["x"]).bellman_ford_sql(),
        "l_diversity": __import__(
            "rayse.ops.datachecks", fromlist=["x"]).l_diversity_sql(),
        "link_predict": __import__(
            "rayse.ops.graph", fromlist=["x"]).link_predict_sql(),
        "link_predict_xchg": __import__(
            "rayse.ops.graph", fromlist=["x"]).link_predict_sql(),
        "forecast_eval": __import__(
            "rayse.ops.bursts", fromlist=["x"]).forecast_eval_sql(),
        "fk_discovery": __import__(
            "rayse.ops.fkdiscover", fromlist=["x"]).fk_discovery_sql(),
        "media_dhash": __import__(
            "rayse.ops.multimodal", fromlist=["x"]).media_dhash_sql(),
        "edge_churn": __import__(
            "rayse.ops.graph", fromlist=["x"]).edge_churn_sql(),
        "checksum_diff": __import__(
            "rayse.ops.integrity", fromlist=["x"]).checksum_diff_sql(),
        "centroid_classify": __import__(
            "rayse.ops.similarity",
            fromlist=["x"]).centroid_classify_sql(),
        "dataset_checksum": __import__(
            "rayse.ops.integrity",
            fromlist=["x"]).dataset_checksum_sql(),
        "zonemap_prune": __import__(
            "rayse.ops.integrity", fromlist=["x"]).zonemap_prune_sql(),
        "readability": __import__(
            "rayse.ops.textstats", fromlist=["x"]).readability_sql(),
        "ewma_hourly": __import__(
            "rayse.ops.bursts", fromlist=["x"]).ewma_hourly_sql(),
        "bfs_hops": __import__(
            "rayse.ops.graph", fromlist=["x"]).bfs_hops_sql(),
        "k_anonymity": __import__(
            "rayse.ops.datachecks", fromlist=["x"]).k_anonymity_sql(),
        "key_set_ops": __import__(
            "rayse.ops.relational", fromlist=["x"]).KEY_SET_OPS_SQL,
        "haar_energy": __import__(
            "rayse.ops.bursts", fromlist=["x"]).haar_energy_sql(),
        "sampling_suite": _tagged_union_sql([
            ("hash", "doc_id, lang", __import__(
                "rayse.ops.sampling", fromlist=["x"]).hash_sample_sql()),
            ("stratified", "doc_id, lang", __import__(
                "rayse.ops.sampling",
                fromlist=["x"]).stratified_sample_sql()),
            ("quota", "doc_id, lang", __import__(
                "rayse.ops.sampling", fromlist=["x"]).quota_sample_sql()),
            ("bottomk", "doc_id, lang", __import__(
                "rayse.ops.sampling",
                fromlist=["x"]).bottomk_sample_sql()),
            ("weighted", "doc_id, lang", __import__(
                "rayse.ops.sampling",
                fromlist=["x"]).weighted_sample_sql())]),
        "pagerank_fixed_suite": _tagged_union_sql([
            ("dense", "vertex, rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).pagerank_fixed_sql()),
            ("hits_hub", "vertex, hub_fp AS rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).hits_fixed_sql()),
            ("hits_auth", "vertex, auth_fp AS rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).hits_fixed_sql()),
            ("tri_deg", "node AS vertex, deg AS rank_fp", __import__(
                "rayse.ops.triangles",
                fromlist=["x"]).TRIANGLE_COUNTS_SQL),
            ("tri_count", "node AS vertex, n_tri AS rank_fp", __import__(
                "rayse.ops.triangles",
                fromlist=["x"]).TRIANGLE_COUNTS_SQL),
            ("clustcoef", "node AS vertex, coeff_ppm AS rank_fp",
             __import__("rayse.ops.triangles",
                        fromlist=["x"]).CLUSTERING_COEFF_SQL),
            ("ppr", "vertex, rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).ppr_fixed_sql()),
            ("textrank", "vertex, rank_fp", __import__(
                "rayse.ops.textrank",
                fromlist=["x"]).textrank_sql(final="vertex")),
            ("bfs", "vertex, hop AS rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).bfs_hops_sql()),
            ("bellman", "vertex, dist AS rank_fp", __import__(
                "rayse.ops.graph", fromlist=["x"]).bellman_ford_sql())]),
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS q_id, embedding AS qe FROM embeddings
              ORDER BY vec_id LIMIT 5),
            scored AS (
              SELECT q.q_id, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) AS sim
              FROM q CROSS JOIN embeddings e),
            ranked AS (
              SELECT q_id, vec_id,
                     row_number() OVER (PARTITION BY q_id
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM scored)
            SELECT q_id, CAST(rank AS INTEGER) AS rank, vec_id
            FROM ranked WHERE rank <= 10
        """,
        # zero-bit LSH is exact (one all-candidates bucket), same oracle
        "ann_lsh_exact_topk": """
            WITH q AS (
              SELECT vec_id AS q_id, embedding AS qe FROM embeddings
              ORDER BY vec_id LIMIT 5),
            scored AS (
              SELECT q.q_id, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) AS sim
              FROM q CROSS JOIN embeddings e),
            ranked AS (
              SELECT q_id, vec_id,
                     row_number() OVER (PARTITION BY q_id
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM scored)
            SELECT q_id, CAST(rank AS INTEGER) AS rank, vec_id
            FROM ranked WHERE rank <= 10
        """,
        # full-probe IVF is exact, so the brute-force oracle applies verbatim
        "ann_ivf_exact_topk": """
            WITH q AS (
              SELECT vec_id AS q_id, embedding AS qe FROM embeddings
              ORDER BY vec_id LIMIT 5),
            scored AS (
              SELECT q.q_id, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) AS sim
              FROM q CROSS JOIN embeddings e),
            ranked AS (
              SELECT q_id, vec_id,
                     row_number() OVER (PARTITION BY q_id
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM scored)
            SELECT q_id, CAST(rank AS INTEGER) AS rank, vec_id
            FROM ranked WHERE rank <= 10
        """,
    }
