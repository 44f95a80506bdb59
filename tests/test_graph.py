"""PageRank (A13) vs dense numpy power iteration; JSON extraction op."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _dense_pagerank(edges, variant, d, max_iter=100, tol=1e-4):
    verts = np.sort(np.unique(np.concatenate(
        [edges[:, 0], edges[:, 1]])))
    n = verts.size
    src = np.searchsorted(verts, edges[:, 0])
    dst = np.searchsorted(verts, edges[:, 1])
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        link = np.zeros(n)
        np.add.at(link, dst, rank[src] / np.maximum(outdeg[src], 1.0))
        if variant == "ranker1":
            new = (1 - d) * link + d / n
        else:
            new = (1 - d) / n + d * link
        delta = np.linalg.norm(new - rank)
        rank = new
        if delta < tol:
            break
    return verts, rank


@pytest.fixture(scope="module")
def demo_edges():
    from rayse.ops.graph import DEMO_VERTEX_SPACE

    t = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "props"])
    src = np.asarray(t["user_id"].to_pylist(), dtype=np.int64)
    dst = np.array([json.loads(p)["k"] % DEMO_VERTEX_SPACE
                    for p in t["props"].to_pylist()], dtype=np.int64)
    return np.stack([src, dst], axis=1)


@pytest.mark.parametrize("variant,d", [("ranker1", 0.15), ("classic", 0.85)])
def test_pagerank_matches_dense(ray_session, demo_edges, variant, d):
    from rayse.ops.graph import pagerank_events

    got = pagerank_events(SF, variant=variant)
    verts, want = _dense_pagerank(demo_edges, variant, d)
    assert got["vertex"].to_pylist() == verts.tolist()
    np.testing.assert_allclose(got["rank"].to_numpy(), np.round(want, 10),
                               rtol=0, atol=1e-9)
    # ranks form a probability-ish vector (positive, bounded)
    r = got["rank"].to_numpy()
    assert (r > 0).all() and r.sum() < 2.0


def test_props_extract(ray_session):
    import duckdb

    from rayse.ops.graph import props_extract

    got = props_extract(SF).to_pandas().sort_values("event_id").reset_index(
        drop=True)
    con = duckdb.connect()
    want = con.sql(
        f"SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k "
        f"FROM '{SF}/events.parquet' ORDER BY event_id").df()
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_edge_sink_roundtrip(ray_session, tmp_path):
    """S5 edge sink (`ServeDataBase.java:66-116`): persisted edges read
    back equal to the derived Dataset."""
    from rayse.ops.graph import derived_edges, read_edges, write_edges

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "edges")
    write_edges(derived_edges(sf), out)
    a = sorted((r["src"], r["dst"]) for r in derived_edges(sf).take_all())
    b = sorted((r["src"], r["dst"]) for r in read_edges(out).take_all())
    assert a == b and len(a) > 0


def test_pagerank_fixed_matches_duckdb(ray_session):
    """Integer fixed-point PageRank == its recursive-CTE oracle,
    bit-exact (integer sums are order-independent, so no quantization
    luck is involved)."""
    import duckdb

    from rayse.ops.graph import pagerank_fixed_events, pagerank_fixed_sql

    t = pagerank_fixed_events(SF)
    got = sorted(zip(t["vertex"].to_pylist(), t["rank_fp"].to_pylist()))
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = sorted(tuple(r) for r in
                  con.execute(pagerank_fixed_sql()).fetchall())
    assert got == want and len(got) > 0
    # mass sanity: positive, bounded by scale (the ranker1 formula sheds
    # dangling-vertex mass by design — the reference quirk — so no
    # conservation bound applies)
    assert 0 < sum(r for _, r in got) <= 10**12
    assert all(r >= 0 for _, r in got)


def test_ppr_fixed_matches_duckdb(ray_session):
    """Seed-personalized integer PageRank == its seed-CASE recursive-CTE
    oracle, bit-exact."""
    import duckdb

    from rayse.ops.graph import ppr_fixed_events, ppr_fixed_sql

    t = ppr_fixed_events(SF)
    got = sorted(zip(t["vertex"].to_pylist(), t["rank_fp"].to_pylist()))
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = sorted(tuple(r) for r in
                  con.execute(ppr_fixed_sql()).fetchall())
    assert got == want and len(got) > 0
    assert 0 < sum(r for _, r in got) <= 10**12
    assert all(r >= 0 for _, r in got)


def test_pair_key_round_trip_and_bound():
    """``pack_pair`` / ``unpack_pair`` round-trip every id in [0, 2^32)
    (the top bit of ``lo`` included) and keep distinct pairs distinct;
    an id outside that range raises instead of colliding."""
    from rayse.ops.graph import pack_pair, unpack_pair

    top = 2 ** 32 - 1
    lo = np.array([0, 0, 1, 2 ** 31, top, top], np.int64)
    hi = np.array([0, top, 0, 7, 0, top], np.int64)
    key = pack_pair(lo, hi)
    assert key.dtype == np.int64
    assert np.unique(key).size == lo.size
    back_lo, back_hi = unpack_pair(key)
    assert np.array_equal(back_lo, lo) and np.array_equal(back_hi, hi)
    for bad_lo, bad_hi in ((1, 2 ** 32), (2 ** 32, 1), (-1, 5), (5, -1)):
        with pytest.raises(ValueError):
            pack_pair(np.array([bad_lo]), np.array([bad_hi]))
    assert pack_pair(np.array([], np.int64),
                     np.array([], np.int64)).size == 0


def test_hits_fixed_matches_duckdb(ray_session):
    """HITS integer fixed-point (L1-normalized) hash-matches the
    unrolled-CTE oracle, and both vectors carry ~scale L1 mass (floor
    losses only)."""
    import duckdb

    from rayse.ops.graph import hits_fixed_events, hits_fixed_sql

    got = hits_fixed_events(SF).to_pandas()
    got = got.sort_values("vertex").reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    want = con.execute(hits_fixed_sql()).df()
    want = want.sort_values("vertex").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(
        got, want[got.columns].astype(got.dtypes.to_dict()))
    scale = 10**9
    for col in ("hub_fp", "auth_fp"):
        total = int(got[col].sum())
        assert scale - len(got) <= total <= scale
        assert (got[col] >= 0).all()
