"""Link-graph operators: PageRank over an edges table (SURVEY.md A13).

The reference computes PageRank over crawled-page links with a dense
in-memory matrix capped at 6000x6000 (`Ranker/RankerMainProcess/
Ranker1.java:163-185,699-749`). Transcripts carry no link graph (SURVEY.md
D5), so the operator is generic over any ``(src, dst)`` edges Dataset; for
the sf tables a deterministic demo graph is derived from the events log
(src = user_id, dst = json k mod a fixed vertex space).

Distributed shape (guide pattern: iterative map_batches with score
broadcast): vertex ids are densified once, then each power iteration is

    ray.put(rank vector)  ->  map_batches(edges: partial dst sums per
    batch) -> groupby(dst).sum -> tiny table -> driver update + teleport

so the edges Dataset streams every iteration while the rank vector (one
float per vertex) is the only broadcast state. Two formulas:

- ``variant="ranker1"``: T = (1-d)/outdeg links + d/N teleport with d=0.15,
  L2 convergence 1e-4, <=100 iters (`Ranker1.java:46-49,719-746` — the
  reference's inverted-damping quirk, reproduced verbatim).
- ``variant="classic"``: standard rank = (1-d)/N + d * Σ rank/outdeg with
  d=0.85 (`Ranker2.java:16-17,71-84`, the reference's unused variant).

Dangling vertices (no out-edges) contribute only teleport mass, matching
the reference (columns of an isolated page are pure teleport).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

DEMO_VERTEX_SPACE = 200
PAIR_KEY_BOUND = 2 ** 32


def pack_pair(lo, hi) -> np.ndarray:
    """One int64 key per vertex pair: the 64 bits ``lo << 32 | hi``.
    Every id must lie in [0, 2^32): vertex ids come from the outside
    ``events.user_id``, and an id outside that range would silently
    collide with another pair, so it raises ValueError instead."""
    lo = np.asarray(lo, np.int64)
    hi = np.asarray(hi, np.int64)
    if lo.size and (min(lo.min(), hi.min()) < 0
                    or max(lo.max(), hi.max()) >= PAIR_KEY_BOUND):
        raise ValueError("pair keys need vertex ids in [0, 2^32)")
    return ((lo.astype(np.uint64) << np.uint64(32))
            | hi.astype(np.uint64)).view(np.int64)


def unpack_pair(key) -> tuple:
    """(lo, hi) int64 arrays back from ``pack_pair`` keys."""
    k = np.asarray(key, np.int64).view(np.uint64)
    return ((k >> np.uint64(32)).astype(np.int64),
            (k & np.uint64(PAIR_KEY_BOUND - 1)).astype(np.int64))


def _props_k(col) -> np.ndarray:
    """Vectorized ``$.k`` extraction from the props JSON column: Arrow's
    extract_regex kernel for the flat top-level-int shape (no per-row
    Python json.loads in the hot path); rows the regex misses (absent or
    non-scalar ``k``) fall back to json.loads row-locally."""
    import pyarrow.compute as pc

    m = pc.extract_regex(col, pattern=r'"k"\s*:\s*(?P<k>-?\d+)')
    ks = pc.struct_field(m, "k")
    if ks.null_count == 0:
        return pc.cast(ks, pa.int64()).to_numpy(zero_copy_only=False)
    vals = ks.to_pylist()
    raw = col.to_pylist()
    return np.array([int(v) if v is not None else json.loads(r)["k"]
                     for v, r in zip(vals, raw)], dtype=np.int64)


def derived_edges(sf_dir: str):
    """Deterministic demo edge table from events: (user_id -> k mod V)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props"])

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks = _props_k(batch["props"])
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(ks % DEMO_VERTEX_SPACE, pa.int64())})

    return ds.map_batches(to_edges, batch_format="pyarrow",
                          zero_copy_batch=True)


def write_edges(edges_ds, out_dir: str) -> str:
    """Edge-table sink (S5): persist an (src, dst) edges Dataset as
    partitioned Parquet — the analog of the reference's link-edge
    persistence (`Crawler/ServeDataBase.java:66-116` inserts crawled link
    edges row-by-row into PostgreSQL). Streaming write, one file per
    block, resumable at the directory level."""
    edges_ds.write_parquet(out_dir)
    return out_dir


def read_edges(out_dir: str):
    """Companion source: re-open a persisted edge table as a Dataset."""
    import ray.data as rd

    return rd.read_parquet(out_dir)


def pagerank(edges_ds, variant: str = "ranker1", d: float | None = None,
             max_iter: int = 100, tol: float = 1e-4):
    """Power-iteration PageRank over an (src:int64, dst:int64) Dataset.
    Returns a pyarrow table (vertex, rank) sorted by vertex."""
    import ray
    import ray.data as rd

    if d is None:
        d = 0.15 if variant == "ranker1" else 0.85

    # densify vertex space + out-degrees (two tiny aggregates)
    verts_tbl = edges_ds.map_batches(
        lambda b: pa.table({"v": pa.array(
            np.unique(np.concatenate([
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False)])), pa.int64())}),
        batch_format="pyarrow").groupby("v").count()
    verts = np.sort(np.asarray([r["v"] for r in verts_tbl.take_all()],
                               dtype=np.int64))
    n = verts.size
    deg_rows = edges_ds.groupby("src").count().take_all()
    outdeg = np.zeros(n, dtype=np.float64)
    for r in deg_rows:
        outdeg[np.searchsorted(verts, r["src"])] = r["count()"]

    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iter):
        ref = ray.put((verts, rank, outdeg))

        def partial(batch: pa.Table) -> pa.Table:
            vs, rk, od = ray.get(ref)
            src = np.searchsorted(vs, batch["src"].to_numpy(
                zero_copy_only=False))
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            w = rk[src] / np.maximum(od[src], 1.0)
            # per-batch combine (pre-aggregation before the groupby)
            uniq, inv = np.unique(dst, return_inverse=True)
            sums = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(sums, inv, w)
            return pa.table({"dst": pa.array(uniq, pa.int64()),
                             "contrib": pa.array(sums, pa.float64())})

        agg = (edges_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
               .groupby("dst").sum("contrib").take_all())
        link = np.zeros(n, dtype=np.float64)
        for r in agg:
            link[np.searchsorted(verts, r["dst"])] = r["sum(contrib)"]
        if variant == "ranker1":
            # `Ranker1.java:719-746`: rank = (1-d)*link + d/N, d=0.15
            new_rank = (1.0 - d) * link + d / n
        else:
            new_rank = (1.0 - d) / n + d * link
        delta = float(np.linalg.norm(new_rank - rank))
        rank = new_rank
        if delta < tol:
            break
    return pa.table({"vertex": pa.array(verts, pa.int64()),
                     "rank": pa.array(np.round(rank, 10), pa.float64())})


def pagerank_events(sf_dir: str, variant: str = "ranker1"):
    return pagerank(derived_edges(sf_dir), variant=variant)


def pagerank_fixed(edges_ds, iters: int = 20, scale: int = 10**12,
                   d_num: int = 15, d_den: int = 100,
                   classic: bool = False):
    """Fixed-iteration PageRank in INTEGER fixed-point — the SQL-exact
    variant of ``pagerank`` (ranker1 formula, d = d_num/d_den).

    Same distributed shape as ``pagerank`` (edges stream per iteration,
    rank vector broadcast, per-batch partial sums before the groupby), but
    every operation is int64 with explicit floor division:

        link[v]  = Σ_{(u,v) ∈ E} rank[u] // outdeg[u]
        rank'[v] = ((d_den - d_num) * link[v]) // d_den
                   + (d_num * scale) // (d_den * n)

    Integer sums are order-independent, so the DuckDB recursive-CTE
    oracle (``pagerank_fixed_sql``) matches BIT-EXACTLY — no float
    summation-order luck, unlike a quantized-float oracle. Ranges:
    rank <= scale, (d_den-d_num)*link <= 100*scale << 2^63."""
    import ray

    verts_tbl = edges_ds.map_batches(
        lambda b: pa.table({"v": pa.array(
            np.unique(np.concatenate([
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False)])), pa.int64())}),
        batch_format="pyarrow").groupby("v").count()
    verts = np.sort(np.asarray([r["v"] for r in verts_tbl.take_all()],
                               dtype=np.int64))
    n = verts.size
    deg_rows = edges_ds.groupby("src").count().take_all()
    outdeg = np.ones(n, dtype=np.int64)    # dangling: divisor unused
    for r in deg_rows:
        outdeg[np.searchsorted(verts, r["src"])] = r["count()"]

    rank = np.full(n, scale // n, dtype=np.int64)
    # ranker1 inversion: rank' = ((den-num)*link)//den + num*scale//(den*n);
    # classic (TextRank/Ranker2 damping): rank' = (num*link)//den
    #                                   + (den-num)*scale//(den*n)
    link_num = d_num if classic else d_den - d_num
    teleport = (((d_den - d_num) if classic else d_num) * scale) \
        // (d_den * n)
    for _ in range(iters):
        ref = ray.put((verts, rank, outdeg))

        def partial(batch: pa.Table) -> pa.Table:
            vs, rk, od = ray.get(ref)
            src = np.searchsorted(vs, batch["src"].to_numpy(
                zero_copy_only=False))
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            w = rk[src] // od[src]
            uniq, inv = np.unique(dst, return_inverse=True)
            sums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(sums, inv, w)
            return pa.table({"dst": pa.array(uniq, pa.int64()),
                             "contrib": pa.array(sums, pa.int64())})

        agg = (edges_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
               .groupby("dst").sum("contrib").take_all())
        link = np.zeros(n, dtype=np.int64)
        for r in agg:
            link[np.searchsorted(verts, r["dst"])] = r["sum(contrib)"]
        rank = (link_num * link) // d_den + teleport
    return pa.table({"vertex": pa.array(verts, pa.int64()),
                     "rank_fp": pa.array(rank, pa.int64())})


def pagerank_fixed_events(sf_dir: str, iters: int = 20):
    return pagerank_fixed(derived_edges(sf_dir), iters=iters)


def pagerank_fixed_sql(iters: int = 20, scale: int = 10**12,
                       d_num: int = 15, d_den: int = 100,
                       vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    """DuckDB oracle for ``pagerank_fixed_events``: the same integer
    recursion as a recursive CTE (the recursive term sees only the
    previous iteration's working rows, i.e. exactly the power-iteration
    state). Bit-exact by construction — all int64 floor arithmetic."""
    return f"""
WITH RECURSIVE
edges AS (SELECT user_id AS src,
                 CAST(json_extract(props, '$.k') AS BIGINT)
                   % {vertex_space} AS dst
          FROM events),
verts AS (SELECT DISTINCT v FROM
          (SELECT src AS v FROM edges UNION SELECT dst FROM edges)),
deg AS (SELECT src, CAST(count(*) AS BIGINT) AS od FROM edges
        GROUP BY src),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM verts),
pr(iter, v, r) AS (
  SELECT 0, v, {scale} // (SELECT n FROM nn) FROM verts
  UNION ALL
  SELECT p.iter + 1, x.v,
         (({d_den - d_num}) * x.link) // {d_den}
         + ({d_num} * {scale}) // ({d_den} * (SELECT n FROM nn))
  FROM (
    SELECT vv.v, coalesce(sum(pp.r // d.od), 0) AS link
    FROM verts vv
    LEFT JOIN edges e ON e.dst = vv.v
    LEFT JOIN pr pp ON pp.v = e.src
    LEFT JOIN deg d ON d.src = e.src
    GROUP BY vv.v) x
  JOIN (SELECT max(iter) AS iter FROM pr) p ON TRUE
  WHERE p.iter < {iters})
SELECT v AS vertex, CAST(r AS BIGINT) AS rank_fp
FROM pr WHERE iter = {iters} ORDER BY vertex"""


def _l1_norm_fp(raw: np.ndarray, scale: int) -> np.ndarray:
    """Integer L1 normalization: value = (raw * scale) // sum(raw) in
    EXACT big-int arithmetic (the product overflows int64, so the dense
    driver-side vector multiplies as Python ints; the SQL mirror uses
    HUGEINT). Floor division both sides — bit-exact."""
    total = int(raw.sum())
    if total == 0:
        return np.zeros_like(raw)
    return np.fromiter(((int(r) * scale) // total for r in raw.tolist()),
                       dtype=np.int64, count=raw.size)


def hits_fixed(edges_ds, iters: int = 8, scale: int = 10**9) -> pa.Table:
    """HITS hubs & authorities (Kleinberg 1999) in integer fixed-point —
    the reference ships two PageRank variants (`Ranker1.java:699-749`,
    `Ranker2.java:71-84`) but no HITS; this is its natural companion
    for link analysis, built SQL-exact like ``pagerank_fixed``:

        raw_auth[v] = Σ_{(u,v) ∈ E} hub[u]        (int64 edge sums)
        auth[v]     = (raw_auth[v] * scale) // Σ raw_auth   (L1 norm)
        raw_hub[u]  = Σ_{(u,v) ∈ E} auth[v]
        hub[u]      = (raw_hub[u] * scale) // Σ raw_hub

    Integer sums are order-independent, so the unrolled-SQL oracle
    matches bit-for-bit. The L1 normalization replaces the classical L2
    (a sqrt has no exact integer form); both are fixed-point-seeking
    scalings of the same power iteration. Distributed shape matches
    ``pagerank_fixed``: edges stream per half-iteration with the
    current vector broadcast (ray.put once per pass, read per task),
    per-batch partial sums before the groupby; the dense driver-side
    vector bounds the vertex count by one driver heap (~1e8 vertices)."""
    import ray

    verts_tbl = edges_ds.map_batches(
        lambda b: pa.table({"v": pa.array(
            np.unique(np.concatenate([
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False)])), pa.int64())}),
        batch_format="pyarrow").groupby("v").count()
    verts = np.sort(np.asarray([r["v"] for r in verts_tbl.take_all()],
                               dtype=np.int64))
    n = verts.size

    def _half_pass(vec: np.ndarray, key_in: str, key_out: str):
        """One HITS half-step: stream edges, weight by the broadcast
        vector at ``key_in``, partial-sum per batch, groupby ``key_out``."""
        ref = ray.put((verts, vec))

        def partial(batch: pa.Table) -> pa.Table:
            vs, vv = ray.get(ref)
            src_v = vv[np.searchsorted(
                vs, batch[key_in].to_numpy(zero_copy_only=False))]
            out = batch[key_out].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(out, return_inverse=True)
            sums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(sums, inv, src_v)
            return pa.table({"v": pa.array(uniq, pa.int64()),
                             "raw": pa.array(sums, pa.int64())})

        agg = (edges_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
               .groupby("v").sum("raw").take_all())
        raw = np.zeros(n, dtype=np.int64)
        for r in agg:
            raw[np.searchsorted(verts, r["v"])] = r["sum(raw)"]
        return raw

    hub = np.full(n, scale, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        auth = _l1_norm_fp(_half_pass(hub, "src", "dst"), scale)
        hub = _l1_norm_fp(_half_pass(auth, "dst", "src"), scale)
    return pa.table({"vertex": pa.array(verts, pa.int64()),
                     "hub_fp": pa.array(hub, pa.int64()),
                     "auth_fp": pa.array(auth, pa.int64())})


def hits_fixed_events(sf_dir: str, iters: int = 8):
    return hits_fixed(derived_edges(sf_dir), iters=iters)


def hits_fixed_sql(iters: int = 8, scale: int = 10**9,
                   vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    """DuckDB oracle for ``hits_fixed_events``: the identical integer
    recursion with iterations UNROLLED (two CTEs per iteration — the
    alternating update can't ride one recursive CTE); HUGEINT carries
    the raw*scale product exactly."""
    ctes = [f"""edges AS MATERIALIZED (SELECT user_id AS src,
                 CAST(json_extract(props, '$.k') AS BIGINT)
                   % {vertex_space} AS dst
          FROM events),
verts AS MATERIALIZED (SELECT DISTINCT v FROM
          (SELECT src AS v FROM edges UNION SELECT dst FROM edges)),
h0 AS MATERIALIZED (SELECT v, {scale}::HUGEINT AS val FROM verts)"""]
    prev_h = "h0"
    for i in range(1, iters + 1):
        ctes.append(f"""a{i}r AS MATERIALIZED (
  SELECT e.dst AS v, sum(h.val) AS raw
  FROM edges e JOIN {prev_h} h ON h.v = e.src GROUP BY 1),
a{i} AS MATERIALIZED (
  SELECT vv.v,
         coalesce((ar.raw * {scale}::HUGEINT)
                  // (SELECT sum(raw) FROM a{i}r), 0) AS val
  FROM verts vv LEFT JOIN a{i}r ar ON ar.v = vv.v),
h{i}r AS MATERIALIZED (
  SELECT e.src AS v, sum(a.val) AS raw
  FROM edges e JOIN a{i} a ON a.v = e.dst GROUP BY 1),
h{i} AS MATERIALIZED (
  SELECT vv.v,
         coalesce((hr.raw * {scale}::HUGEINT)
                  // (SELECT sum(raw) FROM h{i}r), 0) AS val
  FROM verts vv LEFT JOIN h{i}r hr ON hr.v = vv.v)""")
        prev_h = f"h{i}"
    return f"""WITH {', '.join(ctes)}
SELECT h.v AS vertex, CAST(h.val AS BIGINT) AS hub_fp,
       CAST(a.val AS BIGINT) AS auth_fp
FROM h{iters} h JOIN a{iters} a USING (v) ORDER BY vertex"""


def props_extract(sf_dir: str):
    """JSON scalar extraction over the events props column — vectorized
    via Arrow extract_regex (json.loads only as a per-miss fallback);
    SQL-matched via DuckDB json_extract."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "props"])

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({"event_id": batch["event_id"],
                         "k": pa.array(_props_k(batch["props"]),
                                       pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Personalized PageRank (seed-restricted teleport) — the recommender /
# related-items primitive on the same integer fixed-point machinery as
# ``pagerank_fixed``: teleport mass lands ONLY on the seed set, so
# ranks measure proximity to the seeds.
#
#   rank0[v]  = scale // |S| if v in S else 0
#   rank'[v]  = ((d_den − d_num)·link[v]) // d_den
#               + (v ∈ S ? (d_num·scale) // (d_den·|S|) : 0)
#
# Deterministic seed choice: the n_seeds smallest vertex ids (SQL:
# ORDER BY v LIMIT n). All-int64; recursive-CTE oracle bit-exact.
# ---------------------------------------------------------------------------

PPR_N_SEEDS = 3


def ppr_fixed(edges_ds, iters: int = 20, scale: int = 10**12,
              d_num: int = 15, d_den: int = 100,
              n_seeds: int = PPR_N_SEEDS) -> pa.Table:
    """(vertex, rank_fp) under seed-personalized integer PageRank."""
    import ray

    verts_tbl = edges_ds.map_batches(
        lambda b: pa.table({"v": pa.array(
            np.unique(np.concatenate([
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False)])), pa.int64())}),
        batch_format="pyarrow").groupby("v").count()
    verts = np.sort(np.asarray([r["v"] for r in verts_tbl.take_all()],
                               dtype=np.int64))
    n = verts.size
    n_seeds = min(n_seeds, n)
    is_seed = np.zeros(n, dtype=bool)
    is_seed[:n_seeds] = True               # verts sorted: smallest ids
    deg_rows = edges_ds.groupby("src").count().take_all()
    outdeg = np.ones(n, dtype=np.int64)
    for r in deg_rows:
        outdeg[np.searchsorted(verts, r["src"])] = r["count()"]

    rank = np.where(is_seed, scale // n_seeds, 0).astype(np.int64)
    teleport = np.where(
        is_seed, (d_num * scale) // (d_den * n_seeds), 0).astype(np.int64)
    for _ in range(iters):
        ref = ray.put((verts, rank, outdeg))

        def partial(batch: pa.Table) -> pa.Table:
            vs, rk, od = ray.get(ref)
            src = np.searchsorted(vs, batch["src"].to_numpy(
                zero_copy_only=False))
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            w = rk[src] // od[src]
            uniq, inv = np.unique(dst, return_inverse=True)
            sums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(sums, inv, w)
            return pa.table({"dst": pa.array(uniq, pa.int64()),
                             "contrib": pa.array(sums, pa.int64())})

        agg = (edges_ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
               .groupby("dst").sum("contrib").take_all())
        link = np.zeros(n, dtype=np.int64)
        for r in agg:
            link[np.searchsorted(verts, r["dst"])] = r["sum(contrib)"]
        rank = ((d_den - d_num) * link) // d_den + teleport
    return pa.table({"vertex": pa.array(verts, pa.int64()),
                     "rank_fp": pa.array(rank, pa.int64())})


def ppr_fixed_events(sf_dir: str, iters: int = 20) -> pa.Table:
    return ppr_fixed(derived_edges(sf_dir), iters=iters)


def ppr_fixed_sql(iters: int = 20, scale: int = 10**12,
                  d_num: int = 15, d_den: int = 100,
                  n_seeds: int = PPR_N_SEEDS,
                  vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    """Oracle for ``ppr_fixed_events``: the seed-restricted recursion as
    a recursive CTE, seeds = the n smallest vertices."""
    return f"""
WITH RECURSIVE
edges AS (SELECT user_id AS src,
                 CAST(json_extract(props, '$.k') AS BIGINT)
                   % {vertex_space} AS dst
          FROM events),
verts AS (SELECT DISTINCT v FROM
          (SELECT src AS v FROM edges UNION SELECT dst FROM edges)),
seeds AS (SELECT v FROM verts ORDER BY v LIMIT {n_seeds}),
ns AS (SELECT CAST(count(*) AS BIGINT) AS n FROM seeds),
deg AS (SELECT src, CAST(count(*) AS BIGINT) AS od FROM edges
        GROUP BY src),
pr(iter, v, r) AS (
  SELECT 0, v,
         CASE WHEN v IN (SELECT v FROM seeds)
              THEN {scale} // (SELECT n FROM ns) ELSE 0 END
  FROM verts
  UNION ALL
  SELECT p.iter + 1, x.v,
         (({d_den - d_num}) * x.link) // {d_den}
         + CASE WHEN x.v IN (SELECT v FROM seeds)
                THEN ({d_num} * {scale})
                     // ({d_den} * (SELECT n FROM ns))
                ELSE 0 END
  FROM (
    SELECT vv.v, coalesce(sum(pp.r // d.od), 0) AS link
    FROM verts vv
    LEFT JOIN edges e ON e.dst = vv.v
    LEFT JOIN pr pp ON pp.v = e.src
    LEFT JOIN deg d ON d.src = e.src
    GROUP BY vv.v) x
  JOIN (SELECT max(iter) AS iter FROM pr) p ON TRUE
  WHERE p.iter < {iters})
SELECT v AS vertex, CAST(r AS BIGINT) AS rank_fp
FROM pr WHERE iter = {iters} ORDER BY vertex"""


def degree_assortativity(sf_dir: str) -> pa.Table:
    """(scope, n_edges, r_q): directed degree assortativity of the
    derived event graph — the Pearson correlation, over every directed
    edge instance (s, d), of x = out_deg(s) with y = in_deg(d)
    (Newman 2002's out-in variant), quantized at 1e9: the co-moments
    are exact integers and r_q = floor(float(num) / sqrt(float(d1·d2))
    · 1e9), the same float ops in the same order as the oracle.

    Shape: two degree folds (groupby src / groupby dst — vertex-sized
    outputs, the documented driver bound shared with the rank vectors
    above), ray.put of both degree vectors, ONE streaming pass over the
    edges emitting per-batch integer co-moment partials, and a tiny
    driver fold.  DuckDB hash-matched against the HUGEINT oracle."""
    import math

    import ray

    edges = derived_edges(sf_dir)

    def deg(col: str) -> dict[int, int]:
        rows = pa.concat_tables(
            [t for t in ray.get(
                edges.groupby(col).count().to_arrow_refs())
             if t.num_rows], promote_options="default")
        return dict(zip(
            (int(v) for v in rows[col].to_pylist()),
            (int(c) for c in rows["count()"].to_pylist())))

    out_deg, in_deg = deg("src"), deg("dst")
    # dense lookup arrays (vertex ids are bounded: users and k-mod-V)
    def dense(d: dict[int, int]) -> tuple[np.ndarray, int]:
        hi = max(d) + 1 if d else 1
        arr = np.zeros(hi, np.int64)
        for k, v in d.items():
            arr[k] = v
        return arr, hi

    od_arr, od_hi = dense(out_deg)
    id_arr, id_hi = dense(in_deg)
    od_ref, id_ref = ray.put(od_arr), ray.put(id_arr)

    def partials(batch: pa.Table) -> pa.Table:
        od = ray.get(od_ref)
        idg = ray.get(id_ref)
        x = od[batch["src"].to_numpy(zero_copy_only=False)]
        y = idg[batch["dst"].to_numpy(zero_copy_only=False)]
        return pa.table({
            "n": pa.array([x.size], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
        })

    rows = pa.concat_tables(
        [t for t in ray.get(edges.map_batches(
            partials, batch_format="pyarrow").to_arrow_refs())
         if t.num_rows], promote_options="default")
    n = sum(int(v) for v in rows["n"].to_pylist())
    sx = sum(int(v) for v in rows["sx"].to_pylist())
    sy = sum(int(v) for v in rows["sy"].to_pylist())
    sxx = sum(int(v) for v in rows["sxx"].to_pylist())
    syy = sum(int(v) for v in rows["syy"].to_pylist())
    sxy = sum(int(v) for v in rows["sxy"].to_pylist())
    num = n * sxy - sx * sy
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    if d1 == 0 or d2 == 0:
        return pa.table({"scope": pa.array([], pa.string()),
                         "n_edges": pa.array([], pa.int64()),
                         "r_q": pa.array([], pa.int64())})
    r_q = math.floor(float(num) / math.sqrt(float(d1 * d2)) * 1e9)
    return pa.table({
        "scope": pa.array(["all"], pa.string()),
        "n_edges": pa.array([n], pa.int64()),
        "r_q": pa.array([r_q], pa.int64()),
    })


def degree_assortativity_sql(
        vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH edges AS (
  SELECT user_id AS src,
         CAST(json_extract(props, '$.k') AS BIGINT)
           % {vertex_space} AS dst
  FROM events),
od AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
idg AS (SELECT dst, count(*) AS d FROM edges GROUP BY dst),
xy AS (
  SELECT CAST(od.d AS HUGEINT) AS x, CAST(idg.d AS HUGEINT) AS y
  FROM edges e JOIN od ON od.src = e.src JOIN idg ON idg.dst = e.dst),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM xy)
SELECT 'all' AS scope, CAST(n AS BIGINT) AS n_edges,
       CAST(floor(CAST(n * sxy - sx * sy AS DOUBLE)
                  / sqrt(CAST((n * sxx - sx * sx)
                              * (n * syy - sy * sy) AS DOUBLE))
                  * 1000000000::DOUBLE) AS BIGINT) AS r_q
FROM s
WHERE n * sxx - sx * sx <> 0 AND n * syy - sy * sy <> 0"""


def edge_reciprocity(sf_dir: str) -> pa.Table:
    """(scope, n_edges, recip_ppm): directed-graph reciprocity — the
    fraction (ppm, floored) of distinct non-loop directed edges whose
    reverse edge also exists. One distinct-edge exchange keyed by the
    canonical (lo, hi) pair: both orientations of a pair land in one
    partition, so the reverse-existence test is partition-local.
    DuckDB hash-matched."""
    import ray

    from .exchange import exchange_by_key

    edges = derived_edges(sf_dir)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        m = s != d
        s, d = s[m], d[m]
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        return pa.table({
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(hi, pa.int64()),
            "fwd": pa.array(s == lo, pa.bool_()),
        })

    def part(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"n": pa.array([], pa.int64()),
                          "r": pa.array([], pa.int64())})
        if tbl.num_rows == 0:
            return empty
        lo = tbl["lo"].to_numpy(zero_copy_only=False)
        hi = tbl["hi"].to_numpy(zero_copy_only=False)
        fwd = tbl["fwd"].to_numpy(zero_copy_only=False)
        key = pack_pair(lo, hi)
        order = np.argsort(key, kind="stable")
        key, fwd = key[order], fwd[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        has_f = np.logical_or.reduceat(fwd, starts)
        has_b = np.logical_or.reduceat(~fwd, starts)
        both = has_f & has_b
        n_dir = int(has_f.sum()) + int(has_b.sum())
        n_recip = 2 * int(both.sum())
        return pa.table({"n": pa.array([n_dir], pa.int64()),
                         "r": pa.array([n_recip], pa.int64())})

    parts = exchange_by_key(
        edges.map_batches(canon, batch_format="pyarrow",
                          zero_copy_batch=True), ["lo", "hi"], part)
    rows = pa.concat_tables(
        [t for t in __import__("ray").get(parts.to_arrow_refs())
         if t.num_rows], promote_options="default")
    n = sum(int(v) for v in rows["n"].to_pylist())
    r = sum(int(v) for v in rows["r"].to_pylist())
    if n == 0:
        return pa.table({"scope": pa.array([], pa.string()),
                         "n_edges": pa.array([], pa.int64()),
                         "recip_ppm": pa.array([], pa.int64())})
    return pa.table({
        "scope": pa.array(["all"], pa.string()),
        "n_edges": pa.array([n], pa.int64()),
        "recip_ppm": pa.array([r * 1_000_000 // n], pa.int64()),
    })


def edge_reciprocity_sql(vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH e0 AS (
  SELECT user_id AS src,
         CAST(json_extract(props, '$.k') AS BIGINT)
           % {vertex_space} AS dst
  FROM events),
e AS (SELECT DISTINCT src, dst FROM e0 WHERE src <> dst),
r AS (
  SELECT count(*) AS n,
         sum(CASE WHEN EXISTS (SELECT 1 FROM e b
                               WHERE b.src = e.dst AND b.dst = e.src)
                  THEN 1 ELSE 0 END) AS nr
  FROM e)
SELECT 'all' AS scope, CAST(n AS BIGINT) AS n_edges,
       CAST(nr * 1000000 // n AS BIGINT) AS recip_ppm
FROM r WHERE n > 0"""


def bfs_hops(edges_ds, max_hops: int = 16) -> pa.Table:
    """Single-source BFS hop distances — the frontier-expansion iterative
    primitive the link-analysis family lacked (PageRank/HITS/k-core/LPA
    are all value-propagation folds; BFS is reachability with a level
    structure). Seed = the minimum src vertex (deterministic).

    Distributed shape: one streaming pass over the edge Dataset per
    level. The current frontier is broadcast (ray.put once per level,
    read per task); each task filters its edge batch to frontier
    sources with a vectorized searchsorted membership test and emits the
    batch-deduped destinations; one tiny groupby dedups across tasks.
    Driver state is the visited set — vertex-bounded, the same
    ~1e8-vertex driver-heap bound as ``pagerank_fixed``'s dense vector.
    Levels run while the frontier is non-empty and hop <= max_hops, so
    a vertex is labeled with its FIRST discovery level == shortest-path
    hop count, matching the oracle's min-over-walks semantics exactly
    (integer levels, no arithmetic to drift).

    Reference relationship: the reference's crawler frontier
    (`CrawlerMainProcess.java:46-47,245-246` LinkedBlockingQueue +
    visited set) IS a BFS over the link graph; this is that traversal
    re-expressed as data-parallel level-synchronous sweeps.
    """
    import ray

    seed = int(edges_ds.map_batches(
        lambda b: pa.table({"m": pa.array(
            [int(b["src"].to_numpy(zero_copy_only=False).min())]
            if b.num_rows else [], pa.int64())}),
        batch_format="pyarrow").min("m"))

    dist: dict[int, int] = {seed: 0}
    frontier = np.array([seed], dtype=np.int64)
    hop = 0
    while frontier.size and hop < max_hops:
        hop += 1
        ref = ray.put(np.sort(frontier))

        def expand(batch: pa.Table) -> pa.Table:
            fr = ray.get(ref)
            src = batch["src"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(fr, src)
            idx[idx == fr.size] = 0
            hit = fr[idx] == src
            return pa.table({"v": pa.array(
                np.unique(batch["dst"].to_numpy(
                    zero_copy_only=False)[hit]), pa.int64())})

        found = (edges_ds.map_batches(expand, batch_format="pyarrow",
                                      zero_copy_batch=True)
                 .groupby("v").count().take_all())
        nxt = [int(r["v"]) for r in found if int(r["v"]) not in dist]
        for v in nxt:
            dist[v] = hop
        frontier = np.array(sorted(nxt), dtype=np.int64)

    vs = np.array(sorted(dist), dtype=np.int64)
    return pa.table({"vertex": pa.array(vs, pa.int64()),
                     "hop": pa.array([dist[int(v)] for v in vs],
                                     pa.int64())})


def bfs_hops_events(sf_dir: str, max_hops: int = 16) -> pa.Table:
    return bfs_hops(derived_edges(sf_dir), max_hops=max_hops)


def bfs_hops_sql(max_hops: int = 16,
                 vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    """DuckDB oracle for ``bfs_hops_events``: a recursive walk bounded
    at max_hops enumerates (vertex, level) pairs; MIN(level) per vertex
    is the shortest-path hop count — identical to first-discovery level
    in the level-synchronous sweep."""
    return f"""
WITH RECURSIVE
edges AS (SELECT user_id AS src,
                 CAST(json_extract(props, '$.k') AS BIGINT)
                   % {vertex_space} AS dst
          FROM events),
walk(v, hop) AS (
  SELECT (SELECT min(src) FROM edges), 0
  UNION
  SELECT e.dst, w.hop + 1
  FROM walk w JOIN edges e ON e.src = w.v
  WHERE w.hop < {max_hops})
SELECT v AS vertex, CAST(min(hop) AS BIGINT) AS hop
FROM walk GROUP BY v ORDER BY vertex"""


def edge_churn(sf_dir: str) -> pa.Table:
    """(metric, v): link-graph evolution between the two time halves of
    the event log — distinct edges only-in-first (removed), only-in-
    second (added), in-both (stable), plus Jaccard stability in ppm.
    The temporal companion to `rayse/ops/indexdiff.py` (which diffs
    index snapshots): at 100 TB the link graph is re-derived per crawl
    epoch and churn is the freshness signal.

    Distributed shape: the halves split row-locally at the midpoint
    timestamp (two tiny min/max aggregates), presence flags come from
    ONE (src, dst) groupby over (edge, half) partial counts — the edge
    table never materializes on the driver; only 4 metric rows do.
    DuckDB hash-matched."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props", "ts"])
    lo = np.datetime64(ds.min("ts"), "us").astype(np.int64)
    hi = np.datetime64(ds.max("ts"), "us").astype(np.int64)
    mid_us = (int(lo) + int(hi)) // 2

    def halves(batch: pa.Table) -> pa.Table:
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        dst = _props_k(batch["props"]) % DEMO_VERTEX_SPACE
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").view("int64")
        h = (ts >= mid_us).astype(np.int64)
        key = np.stack([src, dst, h], axis=1)
        uk = np.unique(key, axis=0)
        return pa.table({
            "src": pa.array(uk[:, 0], pa.int64()),
            "dst": pa.array(uk[:, 1], pa.int64()),
            "h": pa.array(uk[:, 2], pa.int64()),
        })

    # global distinct of (src, dst, h) first — per-batch dedup alone
    # would double-count a (edge, half) seen by two batches
    distinct = (ds.map_batches(halves, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby(["src", "dst", "h"]).count()
                .map_batches(lambda b: b.select(["src", "dst", "h"]),
                             batch_format="pyarrow"))
    # after the (src,dst) groupby each edge appears once per half it was
    # seen in: count() == halves present, sum(h) says which one
    agg = distinct.groupby(["src", "dst"]).aggregate(*_churn_aggs())

    def metrics(batch: pa.Table) -> pa.Table:
        n = batch["count()"].to_numpy(zero_copy_only=False)
        s = batch["sum(h)"].to_numpy(zero_copy_only=False)
        both = int(((n == 2)).sum())
        only_first = int(((n == 1) & (s == 0)).sum())
        only_second = int(((n == 1) & (s == 1)).sum())
        return pa.table({
            "stable": pa.array([both], pa.int64()),
            "removed": pa.array([only_first], pa.int64()),
            "added": pa.array([only_second], pa.int64()),
        })

    m = (agg.map_batches(metrics, batch_format="pyarrow")
         .sum(["stable", "removed", "added"]))
    stable = int(m["sum(stable)"])
    removed = int(m["sum(removed)"])
    added = int(m["sum(added)"])
    union = stable + removed + added
    rows = [("added", added), ("jaccard_ppm",
                               stable * 1_000_000 // union if union else 0),
            ("removed", removed), ("stable", stable)]
    return pa.table({
        "metric": pa.array([k for k, _ in rows], pa.string()),
        "v": pa.array([v for _, v in rows], pa.int64()),
    })


def _churn_aggs():
    from ray.data.aggregate import Count, Sum

    return (Count(), Sum("h"))


def edge_churn_sql(vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH bounds AS (SELECT (epoch_us(min(ts)) + epoch_us(max(ts))) // 2
                  AS mid_us FROM events),
e AS (
  SELECT DISTINCT user_id AS src,
         CAST(json_extract(props, '$.k') AS BIGINT)
           % {vertex_space} AS dst,
         CASE WHEN epoch_us(ts) >= (SELECT mid_us FROM bounds)
              THEN 1 ELSE 0 END AS h
  FROM events),
f AS (SELECT src, dst, count(*) AS n, sum(h) AS s FROM e GROUP BY 1, 2),
s AS (SELECT sum(CASE WHEN n = 2 THEN 1 ELSE 0 END) AS stable,
             sum(CASE WHEN n = 1 AND s = 0 THEN 1 ELSE 0 END)
               AS removed,
             sum(CASE WHEN n = 1 AND s = 1 THEN 1 ELSE 0 END) AS added
      FROM f)
SELECT metric, CAST(v AS BIGINT) AS v FROM (
  SELECT 'added' AS metric, added AS v FROM s
  UNION ALL SELECT 'jaccard_ppm',
    CASE WHEN stable + removed + added > 0
         THEN stable * 1000000 // (stable + removed + added)
         ELSE 0 END FROM s
  UNION ALL SELECT 'removed', removed FROM s
  UNION ALL SELECT 'stable', stable FROM s)
ORDER BY metric"""


LINKPRED_K = 20


def link_predict(sf_dir: str, k: int = LINKPRED_K,
                 edge_broadcast_limit: int = 1_000_000) -> pa.Table:
    """(v_a, v_b, common): top-``k`` common-neighbor link predictions —
    the non-adjacent vertex pairs sharing the most neighbors in the
    UNDIRECTED derived graph, the classic link-prediction baseline
    (Liben-Nowell & Kleinberg 2003). The missing-edge counterpart of
    `rayse/ops/triangles.py` (which counts the closed wedges; this
    ranks the open ones).

    Distributed shape: the undirected distinct adjacency comes from one
    (lo, hi) groupby fold; wedge enumeration is the big⋈big self-join
    of the adjacency with itself ON the middle vertex through the
    co-partitioned file exchange (`exchange.hash_join` — no broadcast
    of either side); per-pair counts fold in one groupby; adjacency
    masking routes by edge count: a broadcast distinct-edge set below
    ``edge_broadcast_limit``, and above it (or at limit <= 0) an
    exchange anti-join where tagged edge rows meet the candidate
    counts per key partition — bit-identical, pytest-pinned; partial
    top-k caps what reaches the driver at k rows per batch/partition.
    Ties break (count DESC, v_a, v_b). DuckDB hash-matched.

    Scale bound to know: wedge volume is sum over middle vertices of
    deg(v)^2 — a hub explodes its partition (the inherent cost of
    EXACT common-neighbor counts). The standard web-scale mitigations
    (cap per-vertex adjacency at a high-percentile degree, or iterate
    hubs separately through a salted second exchange) trade exactness
    the oracle contract here refuses; this op keeps exact semantics
    and documents the bound. Vertex pairs travel as one ``pack_pair``
    int64 key, so every vertex id must lie in [0, 2^32) (ValueError
    otherwise)."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props"])

    def und_edges(batch: pa.Table) -> pa.Table:
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        dst = _props_k(batch["props"]) % DEMO_VERTEX_SPACE
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        m = lo != hi
        uk = np.unique(np.stack([lo[m], hi[m]], axis=1), axis=0)
        return pa.table({"lo": pa.array(uk[:, 0], pa.int64()),
                         "hi": pa.array(uk[:, 1], pa.int64())})

    edges = (ds.map_batches(und_edges, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["lo", "hi"]).count()
             .map_batches(lambda b: b.select(["lo", "hi"]),
                          batch_format="pyarrow"))

    # adjacency (v, n): both directions of each distinct edge
    def both_dirs(batch: pa.Table) -> pa.Table:
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        return pa.table({
            "v": pa.array(np.concatenate([lo, hi]), pa.int64()),
            "n": pa.array(np.concatenate([hi, lo]), pa.int64())})

    adj = edges.map_batches(both_dirs, batch_format="pyarrow")
    adj2 = adj.map_batches(
        lambda b: b.rename_columns(["v2", "n2"]),
        batch_format="pyarrow")

    from .exchange import exchange_by_key, hash_join

    wedges = hash_join(adj, adj2, "n", "n2")

    def pair_partial(batch: pa.Table) -> pa.Table:
        a = batch["v"].to_numpy(zero_copy_only=False)
        b = batch["v2"].to_numpy(zero_copy_only=False)
        m = a < b
        key = pack_pair(a[m], b[m])
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table({"key": pa.array(uk, pa.int64()),
                         "c": pa.array(cnt.astype(np.int64), pa.int64())})

    counts = (wedges.map_batches(pair_partial, batch_format="pyarrow")
              .groupby("key").sum("c"))

    edges = edges.materialize()
    if edge_broadcast_limit <= 0 or edges.count() > edge_broadcast_limit:
        # exchange-masked route (no driver/broadcast edge set, however
        # many edges): candidate counts and tagged edge rows (c = -1) meet in
        # key partitions; the reducer drops adjacent keys and keeps a
        # local (count DESC, v_a, v_b) top-k, so the driver merges at
        # most n_parts x k rows. Bit-identical to the broadcast route
        # (each key lives whole in one partition).
        def edge_marker(batch: pa.Table) -> pa.Table:
            lo = batch["lo"].to_numpy(zero_copy_only=False)
            hi = batch["hi"].to_numpy(zero_copy_only=False)
            return pa.table({
                "key": pa.array(pack_pair(lo, hi), pa.int64()),
                "c": pa.array(np.full(lo.size, -1, np.int64),
                              pa.int64())})

        def cnt_rows(batch: pa.Table) -> pa.Table:
            return pa.table({"key": batch["key"],
                             "c": pa.array(batch["sum(c)"], pa.int64())})

        unioned = counts.map_batches(cnt_rows, batch_format="pyarrow") \
            .union(edges.map_batches(edge_marker, batch_format="pyarrow"))

        def mask_topk_part(tbl: pa.Table, k: int) -> pa.Table:
            if tbl.num_rows == 0:
                return pa.table({"v_a": pa.array([], pa.int64()),
                                 "v_b": pa.array([], pa.int64()),
                                 "common": pa.array([], pa.int64())})
            key = tbl["key"].to_numpy(zero_copy_only=False)
            c = tbl["c"].to_numpy(zero_copy_only=False)
            o = np.argsort(key, kind="stable")
            key, c = key[o], c[o]
            new = np.empty(key.size, dtype=bool)
            new[0] = True
            new[1:] = key[1:] != key[:-1]
            starts = np.flatnonzero(new)
            adjacent = np.minimum.reduceat(c, starts) < 0
            cnt = np.maximum.reduceat(c, starts)
            keep = (~adjacent) & (cnt > 0)
            gk, gc = key[starts][keep], cnt[keep]
            va, vb = unpack_pair(gk)
            order = np.lexsort((vb, va, -gc))[:k]
            return pa.table({"v_a": pa.array(va[order], pa.int64()),
                             "v_b": pa.array(vb[order], pa.int64()),
                             "common": pa.array(gc[order], pa.int64())})

        parts_ds = exchange_by_key(unioned, "key", mask_topk_part,
                                   proc_kwargs={"k": k})
        parts = pa.concat_tables(
            [t for t in ray.get(parts_ds.to_arrow_refs())
             if t.num_rows] or
            [pa.table({"v_a": pa.array([], pa.int64()),
                       "v_b": pa.array([], pa.int64()),
                       "common": pa.array([], pa.int64())})],
            promote_options="default")
        va = parts["v_a"].to_numpy(zero_copy_only=False)
        vb = parts["v_b"].to_numpy(zero_copy_only=False)
        c = parts["common"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vb, va, -c))[:k]
        return pa.table({"v_a": pa.array(va[order], pa.int64()),
                         "v_b": pa.array(vb[order], pa.int64()),
                         "common": pa.array(c[order], pa.int64())})

    # broadcast the distinct-edge mask (edge-count-bounded small side)
    edge_tbl = pa.concat_tables(
        [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    emask = set(zip(edge_tbl["lo"].to_pylist(),
                    edge_tbl["hi"].to_pylist()))
    mask_ref = ray.put(emask)

    def topk_partial(batch: pa.Table) -> pa.Table:
        ms = ray.get(mask_ref)
        key = batch["key"].to_numpy(zero_copy_only=False)
        c = batch["sum(c)"].to_numpy(zero_copy_only=False)
        va, vb = unpack_pair(key)
        keep = np.fromiter(((int(x), int(y)) not in ms
                            for x, y in zip(va, vb)), bool, va.size)
        va, vb, c = va[keep], vb[keep], c[keep]
        order = np.lexsort((vb, va, -c))[:k]
        return pa.table({"v_a": pa.array(va[order], pa.int64()),
                         "v_b": pa.array(vb[order], pa.int64()),
                         "common": pa.array(c[order], pa.int64())})

    parts = pa.concat_tables(
        [t for t in ray.get(counts.map_batches(
            topk_partial, batch_format="pyarrow").to_arrow_refs())
         if t.num_rows], promote_options="default")
    va = parts["v_a"].to_numpy(zero_copy_only=False)
    vb = parts["v_b"].to_numpy(zero_copy_only=False)
    c = parts["common"].to_numpy(zero_copy_only=False)
    order = np.lexsort((vb, va, -c))[:k]
    return pa.table({"v_a": pa.array(va[order], pa.int64()),
                     "v_b": pa.array(vb[order], pa.int64()),
                     "common": pa.array(c[order], pa.int64())})


def link_predict_sql(k: int = LINKPRED_K,
                     vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH e0 AS (
  SELECT least(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT)
                 % {vertex_space}) AS lo,
         greatest(user_id,
                  CAST(json_extract(props, '$.k') AS BIGINT)
                    % {vertex_space}) AS hi
  FROM events),
e AS (SELECT DISTINCT lo, hi FROM e0 WHERE lo <> hi),
adj AS (SELECT lo AS v, hi AS n FROM e
        UNION ALL SELECT hi, lo FROM e),
cn AS (
  SELECT a.v AS v_a, b.v AS v_b, count(*) AS common
  FROM adj a JOIN adj b ON a.n = b.n AND a.v < b.v
  GROUP BY 1, 2),
open_pairs AS (
  SELECT cn.v_a, cn.v_b, cn.common
  FROM cn LEFT JOIN e ON e.lo = cn.v_a AND e.hi = cn.v_b
  WHERE e.lo IS NULL)
SELECT v_a, v_b, CAST(common AS BIGINT) AS common
FROM open_pairs
ORDER BY common DESC, v_a, v_b
LIMIT {k}"""


AA_SCALE = 1_000_000_000


def adamic_adar(sf_dir: str, k: int = LINKPRED_K) -> pa.Table:
    """(v_a, v_b, aa_q): top-``k`` Adamic-Adar link predictions — the
    degree-discounted refinement of ``link_predict`` (Adamic & Adar
    2003): each common neighbor m contributes 1/ln(deg(m)) instead
    of 1, so hub-mediated wedges count less.

    Float policy: the per-MIDDLE weight quantizes ONCE to int64
    (floor(1e9/ln(deg)), identical double ops both sides) and the
    per-pair score is a SUM of int64 — order-independent, so the
    exchange's arbitrary wedge order cannot flip the hash. Any wedge
    middle has deg >= 2, so ln(deg) > 0 and the weight is finite.
    Pipeline shape is link_predict's: distinct-undirected-edge fold,
    big⋈big adjacency self-join through the file exchange, per-batch
    weighted partials, one groupby, partial top-k; degree + edge mask
    ride the same vertex/edge-bounded broadcast (documented demo
    bound). DuckDB hash-matched."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props"])

    def und_edges(batch: pa.Table) -> pa.Table:
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        dst = _props_k(batch["props"]) % DEMO_VERTEX_SPACE
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        m = lo != hi
        uk = np.unique(np.stack([lo[m], hi[m]], axis=1), axis=0)
        return pa.table({"lo": pa.array(uk[:, 0], pa.int64()),
                         "hi": pa.array(uk[:, 1], pa.int64())})

    edges = (ds.map_batches(und_edges, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["lo", "hi"]).count()
             .map_batches(lambda b: b.select(["lo", "hi"]),
                          batch_format="pyarrow"))

    def both_dirs(batch: pa.Table) -> pa.Table:
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        return pa.table({
            "v": pa.array(np.concatenate([lo, hi]), pa.int64()),
            "n": pa.array(np.concatenate([hi, lo]), pa.int64())})

    adj = edges.map_batches(both_dirs, batch_format="pyarrow")
    adj2 = adj.map_batches(
        lambda b: b.rename_columns(["v2", "n2"]),
        batch_format="pyarrow")

    # edge mask + degree weights from the same edge-bounded gather
    edge_tbl = pa.concat_tables(
        [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    lo_np = edge_tbl["lo"].to_numpy(zero_copy_only=False)
    hi_np = edge_tbl["hi"].to_numpy(zero_copy_only=False)
    emask = set(zip(lo_np.tolist(), hi_np.tolist()))
    verts, deg = np.unique(np.concatenate([lo_np, hi_np]),
                           return_counts=True)
    wq = np.zeros(deg.size, np.int64)
    m2 = deg >= 2
    wq[m2] = np.floor(AA_SCALE / np.log(deg[m2].astype(np.float64))
                      ).astype(np.int64)
    mask_ref = ray.put((emask, verts, wq))

    from .exchange import hash_join

    wedges = hash_join(adj, adj2, "n", "n2")

    def pair_partial(batch: pa.Table) -> pa.Table:
        _, vs, w = ray.get(mask_ref)
        a = batch["v"].to_numpy(zero_copy_only=False)
        b = batch["v2"].to_numpy(zero_copy_only=False)
        mid = batch["n"].to_numpy(zero_copy_only=False)
        m = a < b
        key = pack_pair(a[m], b[m])
        wmid = w[np.searchsorted(vs, mid[m])]
        uk, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "key": pa.array(uk, pa.int64()),
            "s": pa.array(np.bincount(inv, wmid, uk.size)
                          .astype(np.int64), pa.int64())})

    sums = (wedges.map_batches(pair_partial, batch_format="pyarrow")
            .groupby("key").sum("s"))

    def topk_partial(batch: pa.Table) -> pa.Table:
        ms, _, _ = ray.get(mask_ref)
        key = batch["key"].to_numpy(zero_copy_only=False)
        s = batch["sum(s)"].to_numpy(zero_copy_only=False)
        va, vb = unpack_pair(key)
        keep = np.fromiter(((int(x), int(y)) not in ms
                            for x, y in zip(va, vb)), bool, va.size)
        va, vb, s = va[keep], vb[keep], s[keep]
        order = np.lexsort((vb, va, -s))[:k]
        return pa.table({"v_a": pa.array(va[order], pa.int64()),
                         "v_b": pa.array(vb[order], pa.int64()),
                         "aa_q": pa.array(s[order].astype(np.int64),
                                          pa.int64())})

    parts = pa.concat_tables(
        [t for t in ray.get(sums.map_batches(
            topk_partial, batch_format="pyarrow").to_arrow_refs())
         if t.num_rows], promote_options="default")
    va = parts["v_a"].to_numpy(zero_copy_only=False)
    vb = parts["v_b"].to_numpy(zero_copy_only=False)
    s = parts["aa_q"].to_numpy(zero_copy_only=False)
    order = np.lexsort((vb, va, -s))[:k]
    return pa.table({"v_a": pa.array(va[order], pa.int64()),
                     "v_b": pa.array(vb[order], pa.int64()),
                     "aa_q": pa.array(s[order], pa.int64())})


def adamic_adar_sql(k: int = LINKPRED_K,
                    vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH e0 AS (
  SELECT least(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT)
                 % {vertex_space}) AS lo,
         greatest(user_id,
                  CAST(json_extract(props, '$.k') AS BIGINT)
                    % {vertex_space}) AS hi
  FROM events),
e AS (SELECT DISTINCT lo, hi FROM e0 WHERE lo <> hi),
adj AS (SELECT lo AS v, hi AS n FROM e
        UNION ALL SELECT hi, lo FROM e),
w AS (SELECT v, CAST(floor({AA_SCALE} / ln(count(*))) AS BIGINT) AS wq
      FROM adj GROUP BY v HAVING count(*) >= 2),
aa AS (
  SELECT a.v AS v_a, b.v AS v_b, sum(w.wq) AS aa_q
  FROM adj a JOIN adj b ON a.n = b.n AND a.v < b.v
       JOIN w ON w.v = a.n
  GROUP BY 1, 2),
open_pairs AS (
  SELECT aa.v_a, aa.v_b, aa.aa_q
  FROM aa LEFT JOIN e ON e.lo = aa.v_a AND e.hi = aa.v_b
  WHERE e.lo IS NULL)
SELECT v_a, v_b, CAST(aa_q AS BIGINT) AS aa_q
FROM open_pairs
ORDER BY aa_q DESC, v_a, v_b
LIMIT {k}"""


BF_ROUNDS = 6


def bellman_ford(sf_dir: str, rounds: int = BF_ROUNDS) -> pa.Table:
    """(vertex, dist): weighted single-source shortest paths after
    ``rounds`` Bellman-Ford relaxations — the MIN-PLUS semiring
    companion to ``pagerank_fixed`` (sum-product) and ``bfs_hops``
    (reachability): per round every edge relaxes against the frozen
    distance vector and a vertex keeps the MINIMUM candidate. Min is
    order-independent, so rounds mirror exactly into SQL. Edge weight
    = 1 + (k mod 5) derived deterministically alongside the demo edge;
    seed = min src vertex; unreached vertices are absent (infinite
    distance), exactly like the oracle's join semantics.

    Distributed shape per round: broadcast the (vertex, dist) vector
    (ray.put once), stream edges with per-batch (dst, min candidate)
    partials, one groupby-min, driver applies element-wise min. Driver
    state is vertex-bounded (the ~1e8-vertex driver-heap bound of
    ``pagerank_fixed``).
    Distances <= rounds * 6 — int64 trivially; DuckDB hash-matched
    against the unrolled min-plus oracle."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props"])

    def wedges(batch: pa.Table) -> pa.Table:
        src = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ks = _props_k(batch["props"])
        return pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(ks % DEMO_VERTEX_SPACE, pa.int64()),
            "w": pa.array(1 + (ks % 5), pa.int64())})

    edges = ds.map_batches(wedges, batch_format="pyarrow",
                           zero_copy_batch=True)
    seed = int(edges.min("src"))

    dist: dict[int, int] = {seed: 0}
    for _ in range(rounds):
        items = sorted(dist.items())
        ref = ray.put((np.array([k for k, _ in items], np.int64),
                       np.array([v for _, v in items], np.int64)))

        def relax(batch: pa.Table) -> pa.Table:
            vs, dv = ray.get(ref)
            src = batch["src"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(vs, src)
            idx_c = np.minimum(idx, vs.size - 1)
            hit = vs[idx_c] == src
            cand = dv[idx_c[hit]] + batch["w"].to_numpy(
                zero_copy_only=False)[hit]
            dst = batch["dst"].to_numpy(zero_copy_only=False)[hit]
            order = np.argsort(dst, kind="stable")
            dst, cand = dst[order], cand[order]
            uk, starts = np.unique(dst, return_index=True)
            return pa.table({
                "v": pa.array(uk, pa.int64()),
                "c": pa.array(np.minimum.reduceat(cand, starts),
                              pa.int64())})

        agg = (edges.map_batches(relax, batch_format="pyarrow",
                                 zero_copy_batch=True)
               .groupby("v").min("c").take_all())
        for r in agg:
            v, c = int(r["v"]), int(r["min(c)"])
            if v not in dist or c < dist[v]:
                dist[v] = c

    vs = sorted(dist)
    return pa.table({"vertex": pa.array(vs, pa.int64()),
                     "dist": pa.array([dist[v] for v in vs], pa.int64())})


def bellman_ford_sql(rounds: int = BF_ROUNDS,
                     vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    """Oracle: unrolled min-plus rounds (d_{i+1} = min(d_i, min over
    in-edges of d_i[src] + w))."""
    ctes = [f"""edges AS MATERIALIZED (
  SELECT user_id AS src,
         CAST(json_extract(props, '$.k') AS BIGINT)
           % {vertex_space} AS dst,
         1 + CAST(json_extract(props, '$.k') AS BIGINT) % 5 AS w
  FROM events),
d0 AS (SELECT min(src) AS v, CAST(0 AS BIGINT) AS d FROM edges)"""]
    prev = "d0"
    for i in range(1, rounds + 1):
        ctes.append(f"""d{i} AS MATERIALIZED (
  SELECT v, min(d) AS d FROM (
    SELECT v, d FROM {prev}
    UNION ALL
    SELECT e.dst AS v, p.d + e.w AS d
    FROM edges e JOIN {prev} p ON p.v = e.src)
  GROUP BY v)""")
        prev = f"d{i}"
    return (f"WITH {', '.join(ctes)}\n"
            f"SELECT v AS vertex, d AS dist FROM {prev} ORDER BY vertex")


# ---------------------------------------------------------------------------
# Power-law degree-distribution fit (Clauset-Shalizi-Newman 2009's
# discrete MLE approximation): alpha = 1 + n / sum(ln(d / (dmin-0.5)))
# over tail degrees d >= dmin of the undirected demo graph. The
# distributed piece is the degree fold (adjacency groupby) collapsed to
# the BOUNDED degree histogram; the MLE is a histogram-weighted log sum
# on the driver.
# ---------------------------------------------------------------------------

PL_DMIN = 2


def powerlaw_alpha(sf_dir: str, dmin: int = PL_DMIN) -> pa.Table:
    """(n_tail, dmin, alpha): discrete-MLE power-law exponent of the
    undirected degree distribution, tail d >= dmin — DuckDB
    hash-matched against the per-vertex ln-sum oracle."""
    import ray
    import ray.data as rd

    edges = derived_edges(sf_dir)

    def undirect(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        m = lo != hi
        key = pack_pair(lo[m], hi[m])
        uk = np.unique(key)
        return pa.table({"key": pa.array(uk, pa.int64())})

    dedup = (edges.map_batches(undirect, batch_format="pyarrow")
             .groupby("key").count())

    def degree_partial(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        v = np.concatenate(unpack_pair(k))
        uv, cnt = np.unique(v, return_counts=True)
        return pa.table({
            "v": pa.array(uv, pa.int64()),
            "deg": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def hist_partial(batch: pa.Table) -> pa.Table:
        d = batch["sum(deg)"].to_numpy(zero_copy_only=False)
        ud, cnt = np.unique(d, return_counts=True)
        return pa.table({
            "deg": pa.array(ud, pa.int64()),
            "nv": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    agg = (dedup.map_batches(degree_partial, batch_format="pyarrow")
           .groupby("v").sum("deg")
           .map_batches(hist_partial, batch_format="pyarrow")
           .groupby("deg").sum("nv"))
    tbl = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    deg = tbl["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    nv = tbl["sum(nv)"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = deg >= dmin
    n_tail = int(nv[m].sum())
    lsum = float((nv[m] * np.log(deg[m] / (dmin - 0.5))).sum())
    alpha = 1.0 + n_tail / lsum if lsum > 0 else 0.0
    return pa.table({
        "n_tail": pa.array([n_tail], pa.int64()),
        "dmin": pa.array([dmin], pa.int64()),
        "alpha": pa.array([alpha], pa.float64()),
    })


def powerlaw_alpha_sql(dmin: int = PL_DMIN,
                       vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    return f"""
WITH e0 AS (
  SELECT least(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT)
                 % {vertex_space}) AS lo,
         greatest(user_id,
                  CAST(json_extract(props, '$.k') AS BIGINT)
                    % {vertex_space}) AS hi
  FROM events),
e AS (SELECT DISTINCT lo, hi FROM e0 WHERE lo <> hi),
adj AS (SELECT lo AS v, hi AS n FROM e
        UNION ALL SELECT hi, lo FROM e),
degs AS (SELECT v, CAST(count(*) AS BIGINT) AS deg
         FROM adj GROUP BY v),
tail AS (SELECT deg FROM degs WHERE deg >= {dmin})
SELECT CAST(count(*) AS BIGINT) AS n_tail,
       CAST({dmin} AS BIGINT) AS dmin,
       1.0 + count(*) / sum(ln(deg / ({dmin} - 0.5))) AS alpha
FROM tail"""


# ---------------------------------------------------------------------------
# Rich-club coefficient (Zhou & Mondragon 2004): for each degree
# threshold kk, phi(kk) = 2·E_kk / (N_kk·(N_kk−1)) over the subgraph
# of vertices with degree > kk — "do the hubs stick together?". All
# integers off the degree fold + one membership-filtered edge count
# per threshold (thresholds bounded by the distinct-degree set).
# ---------------------------------------------------------------------------

RC_THRESHOLDS = (1, 2, 4, 8, 16)


def rich_club(sf_dir: str,
              thresholds: tuple = RC_THRESHOLDS) -> pa.Table:
    """(kk, n_nodes, e_club, phi_ppm): rich-club coefficient per
    degree threshold on the distinct undirected demo graph — DuckDB
    hash-matched."""
    import ray
    import ray.data as rd

    edges = derived_edges(sf_dir)

    def undirect(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        m = lo != hi
        key = pack_pair(lo[m], hi[m])
        return pa.table({"key": pa.array(np.unique(key), pa.int64())})

    dedup = (edges.map_batches(undirect, batch_format="pyarrow")
             .groupby("key").count()).materialize()

    def degree_partial(batch: pa.Table) -> pa.Table:
        kk = batch["key"].to_numpy(zero_copy_only=False)
        v = np.concatenate(unpack_pair(kk))
        uv, cnt = np.unique(v, return_counts=True)
        return pa.table({
            "v": pa.array(uv, pa.int64()),
            "deg": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    deg_t = pa.concat_tables(
        [t for t in ray.get(
            dedup.map_batches(degree_partial, batch_format="pyarrow")
            .groupby("v").sum("deg").to_arrow_refs()) if t.num_rows],
        promote_options="default")
    verts = deg_t["v"].to_numpy(zero_copy_only=False)
    deg = deg_t["sum(deg)"].to_numpy(zero_copy_only=False).astype(
        np.int64)
    order = np.argsort(verts, kind="stable")
    verts, deg = verts[order], deg[order]
    ref = ray.put((verts, deg))

    ths = np.asarray(thresholds, np.int64)

    def club_partial(batch: pa.Table) -> pa.Table:
        vs, dg = ray.get(ref)
        k = batch["key"].to_numpy(zero_copy_only=False)
        lo, hi = unpack_pair(k)
        dl = dg[np.searchsorted(vs, lo)]
        dh = dg[np.searchsorted(vs, hi)]
        counts = [int(((dl > t) & (dh > t)).sum()) for t in ths]
        return pa.table({
            "kk": pa.array(ths, pa.int64()),
            "e": pa.array(counts, pa.int64()),
        })

    agg = (dedup.map_batches(club_partial, batch_format="pyarrow")
           .groupby("kk").sum("e"))
    tbl = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    kk = tbl["kk"].to_numpy(zero_copy_only=False)
    e = tbl["sum(e)"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(kk, kind="stable")
    kk, e = kk[o], e[o]
    n_nodes = np.array([int((deg > t).sum()) for t in kk], np.int64)
    phi = np.array(
        [int(ev) * 2 * 1_000_000 // (int(n) * (int(n) - 1))
         if n > 1 else 0 for ev, n in zip(e, n_nodes)], np.int64)
    return pa.table({
        "kk": pa.array(kk, pa.int64()),
        "n_nodes": pa.array(n_nodes, pa.int64()),
        "e_club": pa.array(e, pa.int64()),
        "phi_ppm": pa.array(phi, pa.int64()),
    })


def rich_club_sql(thresholds: tuple = RC_THRESHOLDS,
                  vertex_space: int = DEMO_VERTEX_SPACE) -> str:
    ths = ", ".join(f"({t})" for t in thresholds)
    return f"""
WITH rc_e0 AS (
  SELECT least(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT)
                 % {vertex_space}) AS lo,
         greatest(user_id,
                  CAST(json_extract(props, '$.k') AS BIGINT)
                    % {vertex_space}) AS hi
  FROM events),
rc_e AS (SELECT DISTINCT lo, hi FROM rc_e0 WHERE lo <> hi),
rc_adj AS (SELECT lo AS v, hi AS n FROM rc_e
           UNION ALL SELECT hi, lo FROM rc_e),
rc_deg AS (SELECT v, CAST(count(*) AS BIGINT) AS deg
           FROM rc_adj GROUP BY v),
ths(kk) AS (VALUES {ths})
SELECT CAST(t.kk AS BIGINT) AS kk,
       (SELECT CAST(count(*) AS BIGINT) FROM rc_deg
        WHERE deg > t.kk) AS n_nodes,
       (SELECT CAST(count(*) AS BIGINT)
        FROM rc_e JOIN rc_deg a ON rc_e.lo = a.v
             JOIN rc_deg b ON rc_e.hi = b.v
        WHERE a.deg > t.kk AND b.deg > t.kk) AS e_club,
       CASE WHEN (SELECT count(*) FROM rc_deg WHERE deg > t.kk) > 1
            THEN (SELECT CAST(count(*) AS HUGEINT)
                  FROM rc_e JOIN rc_deg a ON rc_e.lo = a.v
                       JOIN rc_deg b ON rc_e.hi = b.v
                  WHERE a.deg > t.kk AND b.deg > t.kk) * 2 * 1000000
                 // ((SELECT CAST(count(*) AS HUGEINT) FROM rc_deg
                      WHERE deg > t.kk)
                     * ((SELECT count(*) FROM rc_deg
                         WHERE deg > t.kk) - 1))
            ELSE 0 END::BIGINT AS phi_ppm
FROM ths t
ORDER BY kk"""
