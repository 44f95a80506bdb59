"""Session-8 batch 2: EWMA hourly smoother and Flesch readability —
DuckDB bit-exact plus structural properties."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _cmp(got, want, keys):
    a = got.sort_values(keys).reset_index(drop=True)
    b = (want.sort_values(keys).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    return len(a)


def test_ewma_matches_duckdb(ray_session, con):
    from rayse.ops.bursts import ewma_hourly, ewma_hourly_sql

    n = _cmp(ewma_hourly(SF).to_pandas(),
             con.execute(ewma_hourly_sql()).fetchdf(),
             ["event_type", "hr"])
    assert n > 0


def test_ewma_recurrence_by_hand(ray_session, con):
    """Re-run the integer recurrence on the oracle's own hourly counts
    for one type; must reproduce the op's outputs exactly."""
    from rayse.ops.bursts import EWMA_DEN, EWMA_SCALE, HOUR_US, ewma_hourly

    t = ewma_hourly(SF).to_pandas()
    one = t[t["event_type"] == t["event_type"].iloc[0]].reset_index(
        drop=True)
    counts = con.execute(f"""
        WITH h AS (SELECT CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT)
                          AS hr FROM events
                   WHERE event_type = '{t["event_type"].iloc[0]}'),
             b AS (SELECT min(hr) h0, max(hr) h1 FROM
                   (SELECT CAST(floor(epoch_us(ts) / {HOUR_US})
                           AS BIGINT) AS hr FROM events))
        SELECT g.hr, count(h.hr) AS c
        FROM (SELECT unnest(range((SELECT h0 FROM b),
                                  (SELECT h1 FROM b) + 1)) AS hr) g
        LEFT JOIN h ON h.hr = g.hr GROUP BY g.hr ORDER BY g.hr
        """).fetchdf()
    s = int(counts["c"].iloc[0]) * EWMA_SCALE
    want = [s]
    for c in counts["c"].iloc[1:]:
        s = (int(c) * EWMA_SCALE + (EWMA_DEN - 1) * s) // EWMA_DEN
        want.append(s)
    assert one["ewma_fp"].tolist() == want


def test_readability_matches_duckdb(ray_session, con):
    from rayse.ops.textstats import readability, readability_sql

    got = readability(SF).to_pandas()
    n = _cmp(got, con.execute(readability_sql()).fetchdf(), ["doc_id"])
    assert n > 0
    assert (got["n_sents"] >= 1).all() and (got["n_words"] >= 1).all()


def test_readability_known_text(ray_session):
    """Hand text: 6 words, 2 sentences, 6 vowel groups."""
    import pyarrow as pa

    from rayse.ops.textstats import readability_batch

    t = readability_batch(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["the cat sat. a dog ran!"], pa.string())}))
    r = t.to_pandas().iloc[0]
    assert (r["n_words"], r["n_sents"], r["n_syll"]) == (6, 2, 6)
    assert r["fre_milli"] == 206835 - (1015 * 6) // 2 - (84600 * 6) // 6
