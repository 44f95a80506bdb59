"""BFS hop distances and the k-anonymity audit — each DuckDB bit-exact
plus one structural property."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events",):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _cmp(got, want, keys):
    a = got.sort_values(keys).reset_index(drop=True)
    b = (want.sort_values(keys).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    return len(a)


def test_bfs_matches_duckdb(ray_session, con):
    from rayse.ops.graph import bfs_hops_events, bfs_hops_sql

    n = _cmp(bfs_hops_events(SF).to_pandas(),
             con.execute(bfs_hops_sql()).fetchdf(), ["vertex"])
    assert n > 1


def test_bfs_levels_contiguous(ray_session):
    """Every level 1..max present up to the frontier's death; the seed
    is the unique hop-0 vertex."""
    from rayse.ops.graph import bfs_hops_events

    t = bfs_hops_events(SF).to_pandas()
    assert (t["hop"] == 0).sum() == 1
    hops = np.sort(t["hop"].unique())
    assert (hops == np.arange(hops.size)).all()


def test_bfs_triangle_graph(ray_session):
    """Hand graph: 1->2->3->1 plus 1->4, 4->5: exact distances."""
    import ray.data as rd

    from rayse.ops.graph import bfs_hops

    edges = rd.from_items([
        {"src": 1, "dst": 2}, {"src": 2, "dst": 3},
        {"src": 3, "dst": 1}, {"src": 1, "dst": 4},
        {"src": 4, "dst": 5}])
    t = bfs_hops(edges).to_pandas().set_index("vertex")["hop"]
    assert t.to_dict() == {1: 0, 2: 1, 4: 1, 3: 2, 5: 2}


def test_kanon_matches_duckdb(ray_session, con):
    from rayse.ops.datachecks import k_anonymity, k_anonymity_sql

    n = _cmp(k_anonymity(SF).to_pandas(),
             con.execute(k_anonymity_sql()).fetchdf(), ["event_type"])
    assert n > 0


def test_kanon_monotone_in_k(ray_session):
    """Raising k can only flag more groups/rows."""
    from rayse.ops.datachecks import k_anonymity

    t2 = k_anonymity(SF, k=2).to_pandas().set_index("event_type")
    t9 = k_anonymity(SF, k=9).to_pandas().set_index("event_type")
    assert (t9["n_small_groups"] >= t2["n_small_groups"]).all()
    assert (t9["rows_at_risk"] >= t2["rows_at_risk"]).all()
