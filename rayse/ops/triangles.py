"""Triangle counting and degrees over the derived link graph.

Per-node triangle participation counts plus distinct-neighbor degrees —
the local-clustering-coefficient inputs (cc = 2*n_tri / (deg*(deg-1)))
and the classic exact graph-analytics kernel next to PageRank/HITS in
the link-analysis family (reference lineage: the same crawl-graph
edges the reference persists for its Ranker; `Ranker.java` consumes
in/out-degree — this extends degree statistics to closed-triad
statistics).

Algorithm (node-iterator with lowest-node wedges, all vectorized):

1. Canonicalize to the simple undirected graph: (lo, hi) = sorted
   endpoints, self-loops dropped, duplicates removed — dedup runs
   inside ONE exchange keyed by ``lo`` (every copy of an edge shares
   its lo, so distinctness is partition-local).
2. The same partition task emits each node's wedges: for node a with
   sorted higher-neighbors [b1 < b2 < ...], every pair (b, c) — a
   triangle candidate anchored at its SMALLEST node, so each triangle
   is generated exactly once. Pair enumeration is the double-repeat
   upper-triangle trick (no Python pair loop). Wedge volume is
   sum-of-deg^2-shaped; for power-law hubs the standard mitigation
   (split a hub's neighbor list into chunks and replicate the closing
   join per chunk pair) rides the same exchange — documented knob, not
   needed at the demo graph's 200-vertex space.
3. A second exchange keyed by (b, c) co-locates wedges with the
   distinct edge set; a searchsorted membership test closes triangles,
   and the task emits per-node count partials for the three corners.
4. The output-sized (node, deg, n_tri) table folds with one small
   groupby-sum.

Oracle: the three-way self-join on the DISTINCT canonical edge table
(e1.lo=e2.lo, e2.hi>e1.hi, (e1.hi, e2.hi) an edge) — exact integers.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .graph import DEMO_VERTEX_SPACE

_EDGE_SCHEMA = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])


def _canon_batch(batch: pa.Table) -> pa.Table:
    """events batch -> canonical (lo, hi) edge partials (self-loops
    dropped, batch-local dedup)."""
    from .graph import _props_k

    if batch.num_rows == 0:
        return pa.table({"lo": [], "hi": []}, schema=_EDGE_SCHEMA)
    src = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = _props_k(batch["props"]) % DEMO_VERTEX_SPACE
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    if lo.size:
        new = np.empty(lo.size, dtype=bool)
        new[0] = True
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lo, hi = lo[new], hi[new]
    return pa.table({"lo": pa.array(lo, pa.int64()),
                     "hi": pa.array(hi, pa.int64())})


def _pairs_upper(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (vals[i], vals[j]) with i < j of one sorted segment —
    vectorized upper-triangle enumeration."""
    n = vals.size
    reps = np.arange(n - 1, -1, -1)
    left = np.repeat(vals, reps)
    idx = np.arange(reps.sum())
    seg_start = np.concatenate(([0], np.cumsum(reps)[:-1]))
    offset = idx - np.repeat(seg_start, reps)
    right = vals[np.repeat(np.arange(n), reps) + 1 + offset]
    return left, right


def _wedge_partition(tbl: pa.Table) -> pa.Table:
    """Distinct edges + wedges of this partition's lo-nodes.
    Output rows: kind=0 distinct edge (b=lo, c=hi, a=-1); kind=1 wedge
    (b, c, a=anchor)."""
    empty = pa.table({"b": pa.array([], pa.int64()),
                      "c": pa.array([], pa.int64()),
                      "a": pa.array([], pa.int64()),
                      "kind": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
    lo = tbl["lo"].to_numpy(zero_copy_only=False)
    hi = tbl["hi"].to_numpy(zero_copy_only=False)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new = np.empty(lo.size, dtype=bool)
    new[0] = True
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    lo, hi = lo[new], hi[new]
    anew = np.empty(lo.size, dtype=bool)
    anew[0] = True
    anew[1:] = lo[1:] != lo[:-1]
    seg_starts = np.flatnonzero(anew)
    seg_lens = np.diff(np.append(seg_starts, lo.size))
    wb, wc, wa = [], [], []
    for s, ln in zip(seg_starts.tolist(), seg_lens.tolist()):
        if ln < 2:
            continue
        left, right = _pairs_upper(hi[s:s + ln])
        wb.append(left)
        wc.append(right)
        wa.append(np.full(left.size, lo[s], np.int64))
    if wb:
        wb = np.concatenate(wb)
        wc = np.concatenate(wc)
        wa = np.concatenate(wa)
    else:
        wb = wc = wa = np.array([], dtype=np.int64)
    return pa.table({
        "b": pa.array(np.concatenate([lo, wb]), pa.int64()),
        "c": pa.array(np.concatenate([hi, wc]), pa.int64()),
        "a": pa.array(np.concatenate([np.full(lo.size, -1, np.int64),
                                      wa]), pa.int64()),
        "kind": pa.array(np.concatenate([np.zeros(lo.size, np.int64),
                                         np.ones(wb.size, np.int64)]),
                         pa.int64()),
    })


def _close_partition(tbl: pa.Table) -> pa.Table:
    """Wedges + edges co-located by (b, c): close triangles, emit
    per-node partials — (node, deg partial from edge endpoints,
    n_tri partial from triangle corners)."""
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "deg": pa.array([], pa.int64()),
                      "n_tri": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
    kind = tbl["kind"].to_numpy(zero_copy_only=False)
    b = tbl["b"].to_numpy(zero_copy_only=False)
    c = tbl["c"].to_numpy(zero_copy_only=False)
    a = tbl["a"].to_numpy(zero_copy_only=False)
    is_edge = kind == 0
    eb, ec = b[is_edge], c[is_edge]
    eorder = np.lexsort((ec, eb))
    eb, ec = eb[eorder], ec[eorder]
    wb, wc, wa = b[~is_edge], c[~is_edge], a[~is_edge]
    # membership: (wb, wc) in sorted (eb, ec)
    closed = np.zeros(wb.size, dtype=bool)
    if eb.size and wb.size:
        # packed-key membership; every b and c must lie in [0, 2^32) or
        # two pairs share a key (demo space is 200 — at larger id
        # spaces switch to a lexsorted 2-column searchsorted)
        ids = (eb, ec, wb, wc)
        if min(int(x.min()) for x in ids) < 0 or \
                max(int(x.max()) for x in ids) >= 2 ** 32:
            raise ValueError("triangle closing assumes node ids in "
                             "[0, 2^32)")
        key_e = (eb.astype(np.uint64) << np.uint64(32)) | \
            ec.astype(np.uint64)
        key_w = (wb.astype(np.uint64) << np.uint64(32)) | \
            wc.astype(np.uint64)
        p = np.searchsorted(key_e, key_w)
        p_c = np.minimum(p, key_e.size - 1)
        closed = key_e[p_c] == key_w
    corners = np.concatenate([wa[closed], wb[closed], wc[closed]])
    nodes_e = np.concatenate([eb, ec])
    node_all = np.concatenate([nodes_e, corners])
    deg_all = np.concatenate([np.ones(nodes_e.size, np.int64),
                              np.zeros(corners.size, np.int64)])
    tri_all = np.concatenate([np.zeros(nodes_e.size, np.int64),
                              np.ones(corners.size, np.int64)])
    u, inv = np.unique(node_all, return_inverse=True)
    dsum = np.zeros(u.size, np.int64)
    tsum = np.zeros(u.size, np.int64)
    np.add.at(dsum, inv, deg_all)
    np.add.at(tsum, inv, tri_all)
    return pa.table({"node": pa.array(u, pa.int64()),
                     "deg": pa.array(dsum, pa.int64()),
                     "n_tri": pa.array(tsum, pa.int64())})


def triangle_counts(sf_dir: str) -> pa.Table:
    """(node, deg, n_tri): distinct-neighbor degree and triangle
    participation count per node of the derived simple graph."""
    import ray
    import ray.data as rd

    from .exchange import exchange_by_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "props"])
    edges = ds.map_batches(_canon_batch, batch_format="pyarrow",
                           zero_copy_batch=True)
    wedges = exchange_by_key(edges, "lo", _wedge_partition)
    partials = exchange_by_key(wedges, ["b", "c"], _close_partition)
    agg = partials.groupby("node").sum(["deg", "n_tri"]).to_pandas()
    agg = agg.sort_values("node")
    return pa.table({
        "node": pa.array(agg["node"].to_numpy(), pa.int64()),
        "deg": pa.array(agg["sum(deg)"].to_numpy(), pa.int64()),
        "n_tri": pa.array(agg["sum(n_tri)"].to_numpy(), pa.int64()),
    })


TRIANGLE_COUNTS_SQL = f"""
WITH e0 AS (SELECT user_id AS src,
                   CAST(json_extract(props, '$.k') AS BIGINT)
                     % {DEMO_VERTEX_SPACE} AS dst
            FROM events),
e AS (SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
      FROM e0 WHERE src <> dst),
tri AS (
  SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
  FROM e e1
  JOIN e e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
  JOIN e e3 ON e3.lo = e1.hi AND e3.hi = e2.hi),
deg AS (SELECT v AS node, CAST(count(*) AS BIGINT) AS deg
        FROM (SELECT lo AS v FROM e UNION ALL SELECT hi AS v FROM e)
        GROUP BY v),
tn AS (SELECT v AS node, CAST(count(*) AS BIGINT) AS n_tri
       FROM (SELECT a AS v FROM tri UNION ALL SELECT b FROM tri
             UNION ALL SELECT c FROM tri)
       GROUP BY v)
SELECT d.node, d.deg, COALESCE(t.n_tri, 0) AS n_tri
FROM deg d LEFT JOIN tn t USING (node)"""


def clustering_coeff(sf_dir: str) -> pa.Table:
    """(node, deg, n_tri, coeff_ppm): local clustering coefficient —
    the fraction of a node's neighbor pairs that are connected,
    ``coeff_ppm = (2 * n_tri * 10^6) // (deg * (deg - 1))`` (0 when
    deg < 2) — derived on the node-cardinality output of
    ``triangle_counts`` (same documented vertex-dense bound), so the
    wedge/close exchanges run exactly once. DuckDB hash-matched."""
    return coeff_from_counts(triangle_counts(sf_dir))


def coeff_from_counts(t: pa.Table) -> pa.Table:
    """Append coeff_ppm to an existing (node, deg, n_tri) table —
    lets suite callers reuse one triangle_counts run."""
    deg = t["deg"].to_numpy(zero_copy_only=False)
    tri = t["n_tri"].to_numpy(zero_copy_only=False)
    poss = deg * (deg - 1)
    coeff = np.zeros(deg.size, np.int64)
    ok = poss > 0
    coeff[ok] = (2 * tri[ok] * 1_000_000) // poss[ok]
    return t.append_column("coeff_ppm", pa.array(coeff, pa.int64()))


CLUSTERING_COEFF_SQL = f"""
WITH base AS ({TRIANGLE_COUNTS_SQL})
SELECT node, deg, n_tri,
       CASE WHEN deg >= 2
            THEN CAST((2 * n_tri * 1000000) // (deg * (deg - 1))
                      AS BIGINT)
            ELSE 0 END AS coeff_ppm
FROM base"""
