"""Common-neighbor link prediction — DuckDB bit-exact plus graph
semantics."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("embeddings", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _cmp(got, want, keys):
    a = got.sort_values(keys).reset_index(drop=True)
    b = (want.sort_values(keys).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    return len(a)


def test_link_predict_matches_duckdb(ray_session, con):
    from rayse.ops.graph import link_predict, link_predict_sql

    got = link_predict(SF).to_pandas()
    assert got.reset_index(drop=True).equals(
        con.execute(link_predict_sql()).fetchdf().reset_index(drop=True))
    assert len(got) == 20


def test_link_predict_excludes_existing_edges(ray_session, con):
    from rayse.ops.graph import link_predict

    got = link_predict(SF).to_pandas()
    edges = con.execute("""
        SELECT DISTINCT least(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT) % 200) AS lo,
               greatest(user_id,
               CAST(json_extract(props, '$.k') AS BIGINT) % 200) AS hi
        FROM events""").fetchdf()
    eset = set(zip(edges["lo"], edges["hi"]))
    for a, b in zip(got["v_a"], got["v_b"]):
        assert (a, b) not in eset and a < b
