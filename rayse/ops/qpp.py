"""Pre-retrieval query performance prediction (QPP) — per-query
difficulty predictors from dictionary statistics (He & Ounis 2004,
Zhao/Scholer/Tsegay 2008).

A serving tier at 100 TB uses these before touching posting lists:
route hard queries to deeper candidate caps / more shards, easy ones to
the pruned tier, and flag no-hope queries for suggestion instead of
retrieval. Predictors (per query, long form (query, metric, v)):

    n_terms   analyzed term count (with multiplicity)
    sum_idf   sum over distinct terms of the engine idf
              ln((1+N)/(1+df)) + 1              (specificity)
    max_idf   max of the same
    sum_scq   sum over distinct terms of (1 + ln(cf)) * ln(1 + N/df)
              (collection-query similarity, Zhao et al.)
    max_scq   max of the same
    scs       simplified clarity score: sum over distinct terms of
              p(t|q) * ln(p(t|q) / (cf_t / C)), p(t|q) = qtf/|q|
    scope     -ln((n_union + 0.5) / N): query scope over the UNION of
              the terms' posting lists (broad queries -> low values)
    n_union   the union size itself (docs matching >= 1 term)

INTEGER-EXACT contract: every per-term float is quantized
independently (floor(x * 1e9)) before the per-query integer sum, so
sums are order-independent and the DuckDB oracle matches bit-for-bit
(same float expressions, same quantization). max metrics quantize the
float max (order-safe).

Scale shape: df/cf come off the segment dictionary columns (posting
blobs pruned) exactly like the CORI scan; the one posting-volume
computation is ``n_union``, whose cost is honestly sum(df) over the
query terms — per-batch decoded doc_ids are deduped locally, exchanged
ONCE keyed by index part (parts own disjoint doc ranges, so per-part
distinct counts add exactly), and only (query, part, count) rows reach
the aggregate.

Reference relationship: the reference always executes the full query
(`Ranker/QueryProcessor.java` has no difficulty gating); QPP is the
standard broker-side addition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

QPP_QUANT = 1_000_000_000.0


def _dict_stats(index_dir: str, terms: list[str]):
    """(df, cf per query term; N, C) from one pruned dictionary scan —
    global C (total kept tokens) rides the same pass as a '' row."""
    import ray
    import ray.data as rd

    tset = ray.put(set(terms))

    def partials(batch: pa.Table) -> pa.Table:
        t_arr = np.asarray(batch["term"].to_pylist(), dtype=object)
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        cf = batch["cf"].to_numpy(zero_copy_only=False).astype(np.int64)
        qs = ray.get(tset)
        hit = np.fromiter((t in qs for t in t_arr), bool, t_arr.size)
        terms_out = [str(t) for t in t_arr[hit]] + [""]
        return pa.table({
            "term": pa.array(terms_out, pa.string()),
            "df": pa.array(list(df[hit]) + [0], pa.int64()),
            "cf": pa.array(list(cf[hit]) + [int(cf.sum())], pa.int64()),
        })

    ds = rd.read_parquet(f"{index_dir}/segments",
                         columns=["term", "df", "cf"])
    rows = (ds.map_batches(partials, batch_format="pyarrow")
            .groupby("term").sum(["df", "cf"]).take_all())
    df = {}
    cf = {}
    c_total = 0
    for r in rows:
        if r["term"] == "":
            c_total = r["sum(cf)"]
        else:
            df[r["term"]] = r["sum(df)"]
            cf[r["term"]] = r["sum(cf)"]
    return df, cf, c_total


def _union_fold(tbl: pa.Table, tq_pairs: list[tuple[str, str]]) -> pa.Table:
    """Per-part distinct union count per query (parts own disjoint doc
    ranges, so per-part counts sum exactly)."""
    empty = pa.table({"query": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
    terms = np.asarray(tbl["term"].to_pylist(), dtype=object)
    docs = tbl["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
    by_q: dict[str, list[str]] = {}
    for t, q in tq_pairs:
        by_q.setdefault(q, []).append(t)
    out_q, out_c = [], []
    for q, ts in by_q.items():
        mask = np.isin(terms, np.asarray(ts, dtype=object))
        if not mask.any():
            continue
        out_q.append(q)
        out_c.append(int(np.unique(docs[mask]).size))
    if not out_q:
        return empty
    return pa.table({"query": pa.array(out_q, pa.string()),
                     "cnt": pa.array(out_c, pa.int64())})


def _union_counts(index_dir: str, q_terms: dict[str, list[str]]):
    """n_union per query: decode doc gaps for the query terms only,
    dedupe per batch, one part-keyed exchange, sum of per-part counts."""
    import ray
    import ray.data as rd

    from ..index.encoding import decode_varints_concat
    from .exchange import exchange_by_key

    all_terms = sorted({t for ts in q_terms.values() for t in ts})
    tset = ray.put(set(all_terms))

    def doc_rows(batch: pa.Table) -> pa.Table:
        empty = pa.table({"term": pa.array([], pa.string()),
                          "part": pa.array([], pa.int64()),
                          "doc": pa.array([], pa.uint64())})
        t_arr = np.asarray(batch["term"].to_pylist(), dtype=object)
        qs = ray.get(tset)
        hit = np.fromiter((t in qs for t in t_arr), bool, t_arr.size)
        if not hit.any():
            return empty
        sub = batch.filter(pa.array(hit))
        counts = sub["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        gaps = decode_varints_concat(sub["doc_ids"].to_pylist())
        cs = np.cumsum(gaps, dtype=np.uint64)
        prefix = cs[starts] - gaps[starts]
        doc = cs - np.repeat(prefix, counts)
        term = np.repeat(np.asarray(sub["term"].to_pylist(),
                                    dtype=object), counts)
        part = np.asarray(
            [int(p) for p in sub["part"].to_pylist()], dtype=np.int64)
        part_r = np.repeat(part, counts)
        # no local dedup needed: chunks of a term own disjoint doc
        # ranges, and the per-part fold deduplicates exactly anyway
        return pa.table({
            "term": pa.array(term.tolist(), pa.string()),
            "part": pa.array(part_r, pa.int64()),
            "doc": pa.array(doc, pa.uint64()),
        })

    ds = rd.read_parquet(f"{index_dir}/segments",
                         columns=["term", "df", "doc_ids", "part"])
    rows = ds.map_batches(doc_rows, batch_format="pyarrow")
    tq_pairs = [(t, q) for q, ts in q_terms.items() for t in set(ts)]
    folded = exchange_by_key(rows, "part", _union_fold,
                             proc_kwargs={"tq_pairs": tq_pairs})
    agg = folded.groupby("query").sum("cnt").take_all()
    return {r["query"]: r["sum(cnt)"] for r in agg}


def qpp_predictors(index_dir: str,
                   queries: list[str] | None = None) -> pa.Table:
    """(query, metric, v): the eight pre-retrieval predictors, quantized
    int64."""
    from .porter_oracle import PORTER_QUERIES, _analyzed

    queries = queries if queries is not None else PORTER_QUERIES
    q_terms = {q: _analyzed(q) for q in queries}
    all_terms = sorted({t for ts in q_terms.values() for t in ts})
    df, cf, c_total = _dict_stats(index_dir, all_terms)

    import json
    import os

    with open(os.path.join(index_dir, "corpus_stats.json")) as f:
        n_docs = json.load(f)["n_docs"]

    unions = _union_counts(index_dir, q_terms)

    def q9(x: float) -> int:
        return int(np.floor(x * QPP_QUANT))

    out = {"query": [], "metric": [], "v": []}

    def emit(q: str, m: str, v: int) -> None:
        out["query"].append(q)
        out["metric"].append(m)
        out["v"].append(int(v))

    for q in queries:
        ts = q_terms[q]
        nq = len(ts)
        distinct = sorted(set(ts))
        present = [t for t in distinct if df.get(t, 0) > 0]
        emit(q, "n_terms", nq)
        idf_q = [q9(np.log((1.0 + n_docs) / (1.0 + df[t])) + 1.0)
                 for t in present]
        emit(q, "sum_idf", sum(idf_q))
        emit(q, "max_idf", max(idf_q, default=0))
        scq_q = [q9((1.0 + np.log(cf[t]))
                    * np.log(1.0 + n_docs / df[t])) for t in present]
        emit(q, "sum_scq", sum(scq_q))
        emit(q, "max_scq", max(scq_q, default=0))
        scs = 0
        for t in present:
            ptq = ts.count(t) / nq
            scs += q9(ptq * np.log(ptq / (cf[t] / c_total)))
        emit(q, "scs", scs)
        nu = unions.get(q, 0)
        emit(q, "n_union", nu)
        emit(q, "scope", q9(-np.log((nu + 0.5) / n_docs)))
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "metric": pa.array(out["metric"], pa.string()),
        "v": pa.array(out["v"], pa.int64()),
    })


def qpp_predictors_sql(queries: list[str] | None = None) -> str:
    """Oracle: df/cf/N/C and the union counts re-derived from the
    analyzed stream; identical float expressions and quantization."""
    from .porter_oracle import PORTER_QUERIES, _analysis_ctes, _analyzed

    queries = queries if queries is not None else PORTER_QUERIES
    q_terms = {q: _analyzed(q) for q in queries}
    qt_vals = ", ".join(
        f"('{q}', '{t}', {ts.count(t)}, {len(ts)})"
        for q, ts in q_terms.items() for t in sorted(set(ts)))
    return f"""{_analysis_ctes()},
cfs AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY 1),
ctot AS (SELECT CAST(sum(dl) AS BIGINT) AS c FROM dl),
qt(query, term, qtf, nq) AS (VALUES {qt_vals}),
per_term AS (
  SELECT qt.query, qt.nq,
         CAST(floor((ln((1.0 + s.n) / (1.0 + d.df)) + 1.0)
                    * {QPP_QUANT!r}) AS BIGINT) AS idf_q,
         CAST(floor(((1.0 + ln(c.cf)) * ln(1.0 + s.n / d.df))
                    * {QPP_QUANT!r}) AS BIGINT) AS scq_q,
         CAST(floor(((qt.qtf / CAST(qt.nq AS DOUBLE))
                     * ln((qt.qtf / CAST(qt.nq AS DOUBLE))
                          / (c.cf / CAST(ct.c AS DOUBLE))))
                    * {QPP_QUANT!r}) AS BIGINT) AS scs_q
  FROM qt JOIN df d USING (term) JOIN cfs c USING (term)
       CROSS JOIN stats s CROSS JOIN ctot ct),
uni AS (
  SELECT qt.query,
         CAST(count(DISTINCT (tf.conv_id, tf.turn_idx)) AS BIGINT) AS nu
  FROM qt JOIN tf USING (term) GROUP BY 1),
base AS (
  SELECT q.query, q.nq,
         coalesce(p.sum_idf, 0) AS sum_idf,
         coalesce(p.max_idf, 0) AS max_idf,
         coalesce(p.sum_scq, 0) AS sum_scq,
         coalesce(p.max_scq, 0) AS max_scq,
         coalesce(p.scs, 0) AS scs,
         coalesce(u.nu, 0) AS n_union
  FROM (SELECT DISTINCT query, nq FROM qt) q
  LEFT JOIN (SELECT query, CAST(sum(idf_q) AS BIGINT) AS sum_idf,
                    max(idf_q) AS max_idf,
                    CAST(sum(scq_q) AS BIGINT) AS sum_scq,
                    max(scq_q) AS max_scq,
                    CAST(sum(scs_q) AS BIGINT) AS scs
             FROM per_term GROUP BY 1) p USING (query)
  LEFT JOIN uni u USING (query)),
longf AS (
  SELECT query, 'n_terms' AS metric, CAST(nq AS BIGINT) AS v FROM base
  UNION ALL SELECT query, 'sum_idf', sum_idf FROM base
  UNION ALL SELECT query, 'max_idf', max_idf FROM base
  UNION ALL SELECT query, 'sum_scq', sum_scq FROM base
  UNION ALL SELECT query, 'max_scq', max_scq FROM base
  UNION ALL SELECT query, 'scs', scs FROM base
  UNION ALL SELECT query, 'n_union', n_union FROM base
  UNION ALL
  SELECT query, 'scope',
         CAST(floor(-ln((n_union + 0.5) / (SELECT CAST(n AS DOUBLE)
                                           FROM stats))
                    * {QPP_QUANT!r}) AS BIGINT)
  FROM base)
SELECT query, metric, v FROM longf ORDER BY query, metric"""


# ---------------------------------------------------------------------------
# Post-retrieval QPP — the score-distribution predictors computed AFTER
# one retrieval pass (Zhou & Croft 2007 WIG; Shtok, Kurland & Carmel
# 2012 NQC), completing the pre-retrieval family above. Deterministic
# integer variants over the engine's quantized BM25 top-k scores:
#
#   wig_q = sum(score_q) // (k_ret * n_terms)      (mean gain per term)
#   nqc_q = floor(sqrt(CAST(k_ret*sxx - sx*sx AS DOUBLE))
#                 * SCALE / sx)                    (score dispersion /
#                                                   mean — ONE float
#                                                   sqrt + divide over
#                                                   exact integer sums,
#                                                   the same op order
#                                                   as the oracle)
#
# where k_ret is the number of rows actually retrieved (< k for narrow
# queries) and sx, sxx are exact integer score sums.
# ---------------------------------------------------------------------------

QPP_POST_SCALE = 1_000_000


def qpp_post(index_dir: str, queries: list[str] | None = None,
             k: int = 10) -> pa.Table:
    """(query, metric, v): WIG and NQC over the Porter engine's
    quantized BM25 top-``k`` — DuckDB hash-matched against the
    composed-oracle score-distribution oracle."""
    import math

    from .porter_oracle import PORTER_QUERIES, _analyzed, porter_bm25_topk

    queries = queries if queries is not None else PORTER_QUERIES
    ranked = porter_bm25_topk(index_dir, queries=queries,
                              k=k).to_pandas()
    out_q, out_m, out_v = [], [], []
    for q in sorted(set(queries)):
        s = ranked.loc[ranked["query"] == q, "score_q"].to_numpy()
        if s.size == 0:
            continue
        k_ret = int(s.size)
        sx = int(s.sum())
        sxx = int((s.astype(object) ** 2).sum())
        n_terms = max(len(_analyzed(q)), 1)
        out_q.append(q)
        out_m.append("wig")
        out_v.append(sx // (k_ret * n_terms))
        if sx > 0:
            var_num = k_ret * sxx - sx * sx
            nqc = math.floor(
                math.sqrt(float(var_num)) * QPP_POST_SCALE / sx)
            out_q.append(q)
            out_m.append("nqc")
            out_v.append(nqc)
    return pa.table({
        "query": pa.array(out_q, pa.string()),
        "metric": pa.array(out_m, pa.string()),
        "v": pa.array(out_v, pa.int64()),
    })


def qpp_post_sql(queries: list[str] | None = None, k: int = 10) -> str:
    from .porter_oracle import PORTER_QUERIES, _analyzed, porter_bm25_sql

    queries = queries if queries is not None else PORTER_QUERIES
    ntv = ", ".join(
        f"('{q}', {max(len(_analyzed(q)), 1)})" for q in queries)
    return f"""WITH qp_ranked AS (
  SELECT query, score_q FROM (
{porter_bm25_sql(queries=queries, k=k)}
  )),
qp_nt(query, n_terms) AS (VALUES {ntv}),
qp_s AS (
  SELECT query, CAST(count(*) AS HUGEINT) AS k_ret,
         CAST(sum(score_q) AS HUGEINT) AS sx,
         sum(CAST(score_q AS HUGEINT) * score_q) AS sxx
  FROM qp_ranked GROUP BY query)
SELECT query, 'wig' AS metric,
       CAST(sx // (k_ret * n_terms) AS BIGINT) AS v
FROM qp_s JOIN qp_nt USING (query)
UNION ALL
SELECT query, 'nqc' AS metric,
       CAST(floor(sqrt(CAST(k_ret * sxx - sx * sx AS DOUBLE))
                  * {QPP_POST_SCALE} / CAST(sx AS DOUBLE)) AS BIGINT)
         AS v
FROM qp_s WHERE sx > 0
ORDER BY query, metric"""
