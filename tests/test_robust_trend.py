"""Benford digits, Adamic-Adar and link prediction, DP event counts and
TWAP: DuckDB bit-exact matches at sf0.001 plus semantic pins."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _cmp(got, sql, con, keys):
    want = con.execute(sql).fetchdf()
    a = got.to_pandas().sort_values(keys).reset_index(drop=True)
    b = (want.sort_values(keys).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    return a


def test_benford_matches_duckdb(ray_session, con):
    from rayse.ops.datachecks import benford_digits, benford_digits_sql

    t = _cmp(benford_digits(SF), benford_digits_sql(), con, ["digit"])
    assert len(t) > 0
    # expectation column is the log law regardless of the data
    assert t.loc[t.digit == 1, "expected_ppm"].iloc[0] == 301030


def test_adamic_adar_matches_duckdb(ray_session, con):
    from rayse.ops.graph import adamic_adar, adamic_adar_sql

    t = _cmp(adamic_adar(SF), adamic_adar_sql(), con, ["v_a", "v_b"])
    assert len(t) > 0
    assert (t["aa_q"] > 0).all()


def test_adamic_adar_discounts_hubs(ray_session):
    """AA and plain common-neighbor counts must produce different
    rankings somewhere (the degree discount actually acts)."""
    from rayse.ops.graph import adamic_adar, link_predict

    aa = adamic_adar(SF).to_pandas()[["v_a", "v_b"]]
    cn = link_predict(SF).to_pandas()[["v_a", "v_b"]]
    assert not aa.equals(cn)


def test_link_predict_exchange_mask_bit_identical(ray_session):
    """edge_broadcast_limit=0 forces the exchange anti-join adjacency
    mask (no driver/broadcast edge set); it must equal the broadcast
    route exactly, ties included."""
    import pandas as pd

    from rayse.ops.graph import link_predict

    a = link_predict(SF).to_pandas()
    b = link_predict(SF, edge_broadcast_limit=0).to_pandas()
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_dp_event_counts_matches_duckdb(ray_session, con):
    from rayse.ops.datachecks import dp_event_counts, dp_event_counts_sql

    t = _cmp(dp_event_counts(SF), dp_event_counts_sql(), con,
             ["event_type"])
    assert len(t) > 0
    # noise is bounded in probability but never zero in practice, and
    # the true counts remain exact in the n column
    assert (t["n"] > 0).all()
    assert (t["noisy_milli"] != t["n"] * 1000).any()


def test_dp_eps_scales_noise(ray_session):
    """Smaller epsilon -> strictly larger (same-seed) noise magnitude."""
    from rayse.ops.datachecks import dp_event_counts

    t1 = dp_event_counts(SF, eps=1.0).to_pandas()
    t2 = dp_event_counts(SF, eps=0.1).to_pandas()
    d1 = (t1["noisy_milli"] - t1["n"] * 1000).abs()
    d2 = (t2["noisy_milli"] - t2["n"] * 1000).abs()
    assert (d2 >= d1 * 9).all()


def test_twap_daily_matches_duckdb(ray_session, con):
    from rayse.ops.windows import twap_daily, twap_daily_sql

    t = _cmp(twap_daily(SF), twap_daily_sql(), con,
             ["event_type", "day"])
    assert len(t) > 0
    # holding weights within a (type, day) tile the day exactly from
    # the first event to midnight
    assert (t["den_us"] > 0).all()
    assert (t["den_us"] <= 86_400_000_000).all()


def test_twap_weights_by_holding_time(ray_session):
    """A value held longer must dominate the TWAP: construct the check
    from the partition function directly."""
    import numpy as np
    import pyarrow as pa

    from rayse.ops.windows import _TWAP_DAY_US, _twap_partition

    day = 0
    tbl = pa.table({
        "event_type": pa.array(["a", "a"], pa.string()),
        "event_id": pa.array([1, 2], pa.int64()),
        "day": pa.array([day, day], pa.int64()),
        "t": pa.array([0, _TWAP_DAY_US - 1000], pa.int64()),
        "c": pa.array([100, 10_000], pa.int64()),
    })
    out = _twap_partition(tbl).to_pandas()
    # value 100 holds ~the whole day; the spike at the end barely moves it
    assert abs(out["twap_milli"].iloc[0] - 100_000) < 1_000
