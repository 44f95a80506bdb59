"""Driver-style oracle parity at sf0.001 for the session's new
operators that have no dedicated brute-force pin — the same
rows/schema/values compare the graft driver runs at sf0.01, locked
into the suite permanently."""
import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

CASES = [
    "zipf_slope", "kmeans_silhouette", "attribution_counts",
    "cumulative_users", "xcorr_hourly",
    "powerlaw_alpha", "time_to_convert",
    "source_trigram_cos",
    "ab_lift", "media_dedup", "fertility_by_lang",
    "seq_patterns",
    "er_clusters",
    "max_concurrent", "pair_lift", "ann_label_topk",
    "rich_club", "type_user_jaccard",
    "bounce_rate", "sliding_distinct_users",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
    return df.sort_values(by=list(df.columns),
                          kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", CASES)
def test_oracle_parity(ray_session, con, name):
    import __ray_entry__ as e

    got = e.queries()[name](SF)
    if hasattr(got, "to_arrow_refs"):
        got = got.to_pandas()
    elif hasattr(got, "to_pandas"):
        got = got.to_pandas()
    want = con.execute(e.oracle_sql()[name]).df()
    got, want = _norm(got), _norm(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-7,
                                  atol=1e-9)
