"""QPP pre-retrieval predictors: DuckDB bit-exact match and predictor
semantics."""

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def _index(ray_session):
    import __ray_entry__ as e   # from the repo root conftest.py put on sys.path

    return e._index_for(SF)


def test_qpp_matches_duckdb(ray_session):
    from rayse.ops.qpp import qpp_predictors, qpp_predictors_sql

    got = qpp_predictors(_index(ray_session)).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(qpp_predictors_sql()).fetchdf()
    a = got.sort_values(["query", "metric"]).reset_index(drop=True)
    b = (want.sort_values(["query", "metric"]).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)


def test_qpp_semantics(ray_session):
    from rayse.ops.qpp import qpp_predictors

    t = qpp_predictors(_index(ray_session)).to_pandas()
    wide = t.pivot(index="query", columns="metric", values="v")
    # union is at least the largest single posting list would imply and
    # never exceeds the corpus; max <= sum for the nonneg idf family
    assert (wide["n_union"] > 0).all()
    assert (wide["max_idf"] <= wide["sum_idf"]).all()
    assert (wide["max_scq"] <= wide["sum_scq"]).all()
    # scope is monotone-decreasing in n_union across queries
    s = wide.sort_values("n_union")
    assert (s["scope"].diff().dropna() <= 0).all()
