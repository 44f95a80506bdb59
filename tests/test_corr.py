"""Integer percentile rank of document token counts vs the
histogram-window oracle."""

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_token_count_pct_matches_duckdb(ray_session):
    """Integer percentile rank vs the histogram-window oracle; values
    span [0, 1e9) and respect ordering by n_tokens."""
    from rayse.ops.textstats import TOKEN_COUNT_PCT_SQL, token_count_pct

    got = token_count_pct(SF).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(TOKEN_COUNT_PCT_SQL).fetchdf()
    a = got.sort_values("doc_id").reset_index(drop=True)
    b = want.sort_values("doc_id").reset_index(drop=True)[list(a.columns)]
    b = b.astype(a.dtypes.to_dict())
    pd.testing.assert_frame_equal(a, b)
    assert a["pct_q"].min() == 0 and a["pct_q"].max() < 10**9
    s = a.sort_values(["n_tokens", "doc_id"])
    assert s["pct_q"].is_monotonic_increasing
