"""Relational breadth ops vs DuckDB at sf0.001 (driver re-checks at sf0.01)."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return c


def _cmp(res, sql_df):
    a = res.to_pandas() if hasattr(res, "to_pandas") else res
    if hasattr(a, "to_pandas"):
        a = a.to_pandas()
    a = a.sort_index(axis=1).sort_values(sorted(a.columns)).reset_index(
        drop=True)
    b = sql_df.sort_index(axis=1).sort_values(sorted(sql_df.columns)
                                              ).reset_index(drop=True)
    assert len(a) == len(b)
    assert a.equals(b.astype(a.dtypes.to_dict()))


def test_trailing_window(ray_session, con):
    from rayse.ops import relational as R

    _cmp(R.trailing_window_counts(SF), con.sql(R.TRAILING_WINDOW_SQL).df())


def test_asof_join_matches_duckdb(ray_session):
    """Distributed as-of join == DuckDB's native ASOF JOIN, plus the
    backward-match invariants (gap >= 0; match is the LATEST eligible)."""
    import duckdb
    import pandas as pd

    from rayse.ops.relational import asof_join_events, asof_join_events_sql

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    got = asof_join_events(sf).to_pandas().sort_values("event_id")
    got = got.reset_index(drop=True)
    want = con.execute(asof_join_events_sql()).fetchdf()
    want = want.sort_values("event_id").reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(
        got, want[got.columns].astype(got.dtypes.to_dict()))
    assert (got["gap_us"] >= 0).all()
    # latest-eligible: no other click of the same user strictly between
    ev = con.execute("SELECT event_id, user_id, epoch_us(ts) AS ts_us "
                     "FROM events WHERE event_type = 'click'").fetchdf()
    clicks = ev.groupby("user_id")["ts_us"].apply(sorted).to_dict()
    for _, r in got.head(50).iterrows():
        later = [t for t in clicks[r["user_id"]]
                 if r["ts_us"] - r["gap_us"] < t <= r["ts_us"]]
        assert later == [], r["event_id"]


def test_range_join_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd

    from rayse.ops.relational import (range_join_events,
                                      range_join_events_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    keys = ["event_id", "matched_event_id"]
    got = range_join_events(sf).to_pandas().sort_values(keys)
    got = got.reset_index(drop=True)
    want = con.execute(range_join_events_sql()).fetchdf()
    want = want.sort_values(keys).reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(
        got, want[got.columns].astype(got.dtypes.to_dict()))
    assert (got["delta_us"].abs() <= 3_600_000_000).all()


@pytest.fixture(scope="module")
def skew_dir(tmp_path_factory):
    """Synthetic events where ONE user holds ~all rows (the single-user
    firehose) and one event type dominates — the regime the round-3
    per-user / per-type exchanges could not spread."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    n_hot, n_cold = 20_000, 60
    user = np.concatenate([np.full(n_hot, 1, np.int64),
                           rng.integers(2, 8, n_cold)])
    # hot user's events spread over ~14 days -> many 1h/1d buckets
    ts = np.concatenate([
        np.sort(rng.integers(0, 14 * 86_400_000_000, n_hot)),
        rng.integers(0, 14 * 86_400_000_000, n_cold)]).astype(np.int64)
    etype = np.where(rng.random(n_hot + n_cold) < 0.6, "click",
                     np.where(rng.random(n_hot + n_cold) < 0.5,
                              "purchase", "error")).astype(object)
    t = pa.table({
        "event_id": pa.array(np.arange(n_hot + n_cold, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(user, pa.int64()),
        "event_type": pa.array(etype.tolist(), pa.string()),
    })
    d = tmp_path_factory.mktemp("skew")
    pq.write_table(t, str(d / "events.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def skew_con(skew_dir):
    c = duckdb.connect()
    c.execute("CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{skew_dir}/events.parquet')")
    return c


def test_skew_salting_spreads_partitions(skew_dir):
    """The firehose user's rows land in MANY exchange partitions (the
    whole point of the time-bucket salt), for all three salted ops."""
    import numpy as np
    import pyarrow.parquet as pq

    from rayse.ops.exchange import partition_of

    t = pq.read_table(f"{skew_dir}/events.parquet")
    ts = t["ts"].cast("int64").to_numpy()
    hot = t["user_id"].to_numpy() == 1
    for bucket_us in (86_400_000_000, 7_200_000_000):   # asof day, range 2h
        bucket = ts[hot] // bucket_us
        parts = partition_of([np.full(hot.sum(), 1, np.int64), bucket], 64)
        assert len(np.unique(parts)) >= 8, bucket_us
    # trailing: (type, bucket) spread for the dominant type
    click = np.asarray(t["event_type"].to_pylist(), dtype=object) == "click"
    bucket = ts[click] // 3_600_000_000
    parts = partition_of([np.zeros(click.sum(), np.int64), bucket], 64)
    assert len(np.unique(parts)) >= 16


def test_skew_asof_matches_duckdb(ray_session, skew_dir, skew_con):
    import pandas as pd

    from rayse.ops.relational import asof_join_events, asof_join_events_sql

    got = asof_join_events(skew_dir).to_pandas().sort_values("event_id")
    got = got.reset_index(drop=True)
    want = skew_con.execute(asof_join_events_sql()).fetchdf()
    want = want.sort_values("event_id").reset_index(drop=True)
    assert len(got) > 1000
    pd.testing.assert_frame_equal(
        got, want[got.columns].astype(got.dtypes.to_dict()))


def test_skew_range_matches_duckdb(ray_session, skew_dir, skew_con):
    import pandas as pd

    from rayse.ops.relational import (range_join_events,
                                      range_join_events_sql)

    got = range_join_events(skew_dir).to_pandas()
    keys = ["event_id", "matched_event_id"]
    got = got.sort_values(keys).reset_index(drop=True)
    want = skew_con.execute(range_join_events_sql()).fetchdf()
    want = want.sort_values(keys).reset_index(drop=True)
    assert len(got) > 1000
    pd.testing.assert_frame_equal(
        got, want[got.columns].astype(got.dtypes.to_dict()))


def test_skew_trailing_matches_duckdb(ray_session, skew_dir, skew_con):
    from rayse.ops import relational as R

    _cmp(R.trailing_window_counts(skew_dir),
         skew_con.sql(R.TRAILING_WINDOW_SQL).df())


# ---------------------------------------------------------------------------
# Property tests of the salting ALGEBRA: the pure stamp/summary/carry/match
# functions composed through a simulated exchange (all rows of a key in one
# partition — the exchange invariant) must equal a brute-force join, for
# any event set and any bucket width. No Ray involved.
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


def _sim_exchange(tbl, key_cols, proc, n_parts=8, **kw):
    import numpy as np
    import pyarrow as pa

    from rayse.ops.exchange import partition_of

    if tbl.num_rows == 0:
        return proc(tbl, **kw)
    parts = partition_of(
        [tbl[c].to_numpy(zero_copy_only=False) for c in key_cols], n_parts)
    out = [proc(tbl.take(np.flatnonzero(parts == p)), **kw)
           for p in np.unique(parts)]
    return pa.concat_tables(out)


def _events_batch(rows):
    import pyarrow as pa

    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })


# unique (user, ts) pairs: as-of tie-breaking among equal timestamps is
# row-order-dependent on both sides, so ties are excluded by construction
# (real event logs have unique per-user timestamps at us resolution)
_events_strategy = st.lists(
    st.tuples(st.integers(1, 3),                       # user
              st.integers(0, 400),                     # ts
              st.sampled_from(["click", "purchase", "error"])),
    min_size=0, max_size=80,
    unique_by=lambda r: (r[0], r[1]))


@given(_events_strategy, st.sampled_from([7, 50, 160, 1000]))
@settings(max_examples=60, deadline=None)
def test_salted_asof_equals_brute_force(evs, bucket_us):
    from rayse.ops.relational import (_asof_carry_partition,
                                      _asof_match_partition,
                                      _asof_stamp_batch,
                                      _asof_summary_batch)

    rows = [(i, ts, u, ty) for i, (u, ts, ty) in enumerate(evs)]
    batch = _events_batch(rows)
    stamped = _asof_stamp_batch(batch, "purchase", "click", bucket_us)
    summaries = _asof_summary_batch(stamped)
    carries = _sim_exchange(summaries, ["user_id"], _asof_carry_partition)
    import pyarrow as pa
    got = _sim_exchange(pa.concat_tables([stamped, carries]),
                        ["user_id", "bucket"], _asof_match_partition)
    got_map = {e: (m, g) for e, m, g in zip(
        got["event_id"].to_pylist(), got["matched_event_id"].to_pylist(),
        got["gap_us"].to_pylist())}
    want = {}
    for i, ts, u, ty in rows:
        if ty != "purchase":
            continue
        cands = [(ts2, j) for j, ts2, u2, ty2 in rows
                 if u2 == u and ty2 == "click" and ts2 <= ts]
        if cands:
            bts, bj = max(cands)
            want[i] = (bj, ts - bts)
    assert got_map == want


@given(_events_strategy, st.sampled_from([7, 60, 500]),
       st.integers(0, 120), st.integers(0, 120))
@settings(max_examples=60, deadline=None)
def test_salted_range_equals_brute_force(evs, bucket_us, before, after):
    from rayse.ops.relational import (_range_match_partition,
                                      _range_stamp_batch)

    rows = [(i, ts, u, ty) for i, (u, ts, ty) in enumerate(evs)]
    batch = _events_batch(rows)
    stamped = _range_stamp_batch(batch, "purchase", "error",
                                 before, after, bucket_us)
    got = _sim_exchange(stamped, ["user_id", "bucket"],
                        _range_match_partition,
                        before_us=before, after_us=after)
    got_pairs = sorted(zip(got["event_id"].to_pylist(),
                           got["matched_event_id"].to_pylist(),
                           got["delta_us"].to_pylist()))
    want = sorted(
        (i, j, ts2 - ts)
        for i, ts, u, ty in rows if ty == "purchase"
        for j, ts2, u2, ty2 in rows
        if u2 == u and ty2 == "error" and ts - before <= ts2 <= ts + after)
    assert got_pairs == want


@given(st.lists(st.tuples(st.integers(0, 500),
                          st.sampled_from(["a", "b"])),
                min_size=0, max_size=80),
       st.sampled_from([5, 40, 300]))
@settings(max_examples=60, deadline=None)
def test_trailing_halo_equals_brute_force(evs, window_us):
    import pyarrow as pa

    from rayse.ops.relational import (_trailing_partition,
                                      _trailing_rows_batch)

    rows = [(i, ts, ty) for i, (ts, ty) in enumerate(evs)]
    batch = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    stamped = _trailing_rows_batch(batch, window_us)
    got = _sim_exchange(stamped, ["thash", "bucket"], _trailing_partition,
                        window_us=window_us)
    got_map = dict(zip(got["event_id"].to_pylist(),
                       got["trailing_count"].to_pylist()))
    want = {i: sum(1 for j, ts2, ty2 in rows
                   if ty2 == ty and ts - window_us <= ts2 <= ts)
            for i, ts, ty in rows}
    assert got_map == want


def test_hash_join_matches_arrow_join(ray_session):
    """The co-partitioned file-exchange hash join equals a single-table
    Arrow join on the same inputs, across partition counts (including
    keys that appear on only one side)."""
    import pyarrow as pa
    import ray.data as rd

    from rayse.ops.exchange import hash_join

    left = pa.table({"k": pa.array([1, 2, 2, 3, 5, 8], pa.int64()),
                     "lv": pa.array([10, 20, 21, 30, 50, 80], pa.int64())})
    right = pa.table({"k2": pa.array([2, 3, 3, 4, 8], pa.int64()),
                      "rv": pa.array([-2, -3, -31, -4, -8], pa.int64())})
    import pandas as pd

    want = left.join(right, keys=["k"], right_keys=["k2"],
                     join_type="inner").to_pandas()
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    for n_parts in (1, 4, 16):
        got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                        "k", "k2", n_parts=n_parts).to_pandas()
        got = got[want.columns].sort_values(
            list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_hash_join_empty_result(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from rayse.ops.exchange import hash_join

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "lv": pa.array([1, 2], pa.int64())})
    right = pa.table({"k2": pa.array([7, 9], pa.int64()),
                      "rv": pa.array([7, 9], pa.int64())})
    out = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    "k", "k2", n_parts=4)
    # schema survives an empty result (Dataset.to_pandas drops columns
    # for all-empty blocks — a Ray quirk, so assert on the schema)
    assert set(out.schema().names) == {"k", "lv", "rv"}
    assert out.count() == 0


def test_hash_join_outer_semi_anti(ray_session):
    """Non-inner join types route through the exchange correctly,
    including left-only partitions (no right shard present)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rayse.ops.exchange import hash_join

    left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "lv": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"k2": pa.array([2, 9], pa.int64()),
                      "rv": pa.array([20, 90], pa.int64())})
    for jt in ("left outer", "left semi", "left anti"):
        got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                        "k", "k2", join_type=jt, n_parts=4).to_pandas()
        want = left.join(right, keys=["k"], right_keys=["k2"],
                         join_type=jt).to_pandas()
        cols = list(want.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want.sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
