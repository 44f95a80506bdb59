"""CORI shard selection: DuckDB bit-exact match and ranking sanity."""

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def _index(ray_session):
    import __ray_entry__ as e   # from the repo root conftest.py put on sys.path

    return e._index_for(SF)


def test_cori_matches_duckdb(ray_session):
    from rayse.ops.shardsel import cori_shard_sql, cori_shard_topk

    got = cori_shard_topk(_index(ray_session)).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(cori_shard_sql()).fetchdf()
    a = got.sort_values(["query", "rank"]).reset_index(drop=True)
    b = (want.sort_values(["query", "rank"]).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_cori_prefers_term_heavy_shard(ray_session):
    """A shard holding every posting of a query's terms must outrank a
    shard holding none (belief > default belief b for present terms)."""
    from rayse.ops.shardsel import cori_shard_topk

    t = cori_shard_topk(_index(ray_session), k=10_000).to_pandas()
    one = t[t["query"] == t["query"].iloc[0]]
    # scores strictly ordered by rank; ties broken by part ascending
    s = one.sort_values("rank")
    assert (s["score_q"].diff().dropna() <= 0).all()
    assert s["score_q"].iloc[0] > s["score_q"].iloc[-1]
