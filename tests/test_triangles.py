"""Per-node triangle counts vs the three-way self-join oracle."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_triangle_counts_match_duckdb(ray_session):
    from rayse.ops.triangles import TRIANGLE_COUNTS_SQL, triangle_counts

    got = triangle_counts(SF).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = con.execute(TRIANGLE_COUNTS_SQL).fetchdf()
    a = got.sort_values("node").reset_index(drop=True)[sorted(got.columns)]
    b = want.sort_values("node").reset_index(drop=True)[sorted(got.columns)]
    b = b.astype(a.dtypes.to_dict())
    pd.testing.assert_frame_equal(a, b)
    # triangles must actually exist, and the global identity holds:
    # each triangle contributes exactly 3 corner counts
    assert got["n_tri"].sum() > 0
    assert got["n_tri"].sum() % 3 == 0
    # n_tri <= C(deg, 2)
    d = got["deg"].to_numpy()
    assert (got["n_tri"].to_numpy() <= d * (d - 1) // 2).all()


def test_triangle_counts_brute_force(ray_session):
    """Independent numpy brute force over the canonical edge set."""
    import pyarrow.parquet as pq

    from rayse.ops.graph import DEMO_VERTEX_SPACE, _props_k
    from rayse.ops.triangles import triangle_counts

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "props"])
    src = ev["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = _props_k(ev["props"]) % DEMO_VERTEX_SPACE
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    edges = set(zip(lo[keep].tolist(), hi[keep].tolist()))
    nodes = sorted({v for e in edges for v in e})
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    tri = {v: 0 for v in nodes}
    # each triangle x<y<z is counted exactly once: via its (x, y) edge
    # with common neighbor z > y
    for a, b in edges:
        for c in adj[a] & adj[b]:
            if c > b:
                tri[a] += 1
                tri[b] += 1
                tri[c] += 1
    got = triangle_counts(SF).to_pandas().set_index("node")
    for v in nodes:
        assert got.loc[v, "n_tri"] == tri[v], v
        assert got.loc[v, "deg"] == len(adj[v]), v


def test_close_partition_rejects_ids_outside_32_bits():
    """A negative id would alias another packed (b, c) key: the edge
    (-1, 5) shares its key with the wedge (3; 2^32 - 1, 5) and would
    close a triangle that does not exist."""
    import pyarrow as pa
    import pytest

    from rayse.ops.triangles import _close_partition

    tbl = pa.table({"b": pa.array([-1, 2 ** 32 - 1], pa.int64()),
                    "c": pa.array([5, 5], pa.int64()),
                    "a": pa.array([-1, 3], pa.int64()),
                    "kind": pa.array([0, 1], pa.int64())})
    with pytest.raises(ValueError, match="node ids"):
        _close_partition(tbl)


def test_triangle_counts_blocksize_invariant(ray_session):
    """Edge canonicalization + wedge exchanges are batch-boundary
    independent."""
    from ray.data.context import DataContext

    from rayse.ops.triangles import triangle_counts

    a = triangle_counts(SF).to_pandas().sort_values("node")
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024
        b = triangle_counts(SF).to_pandas().sort_values("node")
    finally:
        ctx.target_max_block_size = old
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))


def test_ppr_fixed_matches_duckdb(ray_session):
    """Personalized PageRank vs the seed-CASE recursive CTE; seed
    vertices hold most of the mass and every non-seed with no inbound
    path from a seed scores 0."""
    import duckdb

    from rayse.ops.graph import PPR_N_SEEDS, ppr_fixed_events, ppr_fixed_sql

    got = ppr_fixed_events(SF).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = con.execute(ppr_fixed_sql()).fetchdf()
    a = got.sort_values("vertex").reset_index(drop=True)
    b = want.sort_values("vertex").reset_index(drop=True)[list(a.columns)]
    b = b.astype(a.dtypes.to_dict())
    pd.testing.assert_frame_equal(a, b)
    seeds = a.head(PPR_N_SEEDS)
    rest = a.iloc[PPR_N_SEEDS:]
    assert seeds["rank_fp"].sum() > rest["rank_fp"].sum()
    assert (a["rank_fp"] >= 0).all()
