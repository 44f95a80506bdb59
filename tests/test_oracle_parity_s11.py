"""Driver-style oracle parity at sf0.001 for this session's new
operators — the same rows/schema/values compare the graft driver runs
at sf0.01, locked into the suite permanently."""
import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

CASES = [
    "knn_classify", "dtw_profiles", "t_closeness",
    "porter_searchafter_topk", "porter_convscope_topk",
    "gazetteer_tags", "tree_depth2", "min_spanning_forest",
    "moving_median_daily", "hbos_outliers",
    "isotonic_hourly", "huffman_codes",
    "feature_hash_vectors", "graph_feature_prop", "upsert_merge",
    "ivm_distinct_retract", "bootstrap_resamples",
    "group_kfold",
    "porter_synquery_topk", "porter_lossynorm_topk",
    "conformal_intervals", "mutual_knn_pairs", "scc_components",
    "media_audio_frames", "quantile_normalize",
    "bitvector_rank_select", "support_points", "activity_selection",
    "maximal_independent_set", "temporal_reachability",
    "wl_refinement", "deepwalk_corpus", "greedy_set_cover",
    "node2vec_corpus", "porter_gapphrase", "lcs_pairs",
    "source_shapley", "stable_matching", "knapsack_select",
    "lis_per_user", "ef_gamma_audit", "weighted_interval_schedule",
    "absorption_probability", "border_per_user",
    # the driver-window suite entries that carry this session's
    # cells as arms — pinned whole so the window composition is tested
    "stats_suite", "engine_suite", "porter_rank_matrix",
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
