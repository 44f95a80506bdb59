"""Burst detection, hourly autocorrelation and Haar energy: DuckDB
bit-exact match at sf0.001 plus semantic invariants (hysteresis
transitions, correlation bounds, Parseval)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _cmp(got, want, keys):
    a = got.sort_values(keys).reset_index(drop=True)
    b = (want.sort_values(keys).reset_index(drop=True)
         [list(a.columns)].astype(a.dtypes.to_dict()))
    pd.testing.assert_frame_equal(a, b)
    return len(a)


def test_burst_matches_duckdb(ray_session, con):
    from rayse.ops.bursts import BURST_STATS_SQL, burst_stats

    n = _cmp(burst_stats(SF).to_pandas(),
             con.execute(BURST_STATS_SQL).fetchdf(), ["event_type"])
    assert n > 0


def test_hysteresis_labeling():
    """Enter at >= 2x mean, exit below mean, hold in between; initial
    state is base."""
    from rayse.ops.bursts import _label_states

    # mean = 2 (total 12 over 6 hours): enter at c >= 4, exit at c < 2
    c = np.array([1, 4, 3, 2, 1, 1], np.int64)
    st = _label_states(c, int(c.sum()), c.size)
    assert st.tolist() == [0, 1, 1, 1, 0, 0]
    # hold-band start stays base
    c = np.array([3, 3, 3, 3], np.int64)
    st = _label_states(c, int(c.sum()), c.size)
    assert st.tolist() == [0, 0, 0, 0]


def test_burst_run_lengths(ray_session):
    """Open burst at the grid end is counted to the end."""
    from rayse.ops.bursts import burst_stats

    df = burst_stats(SF).to_pandas()
    assert (df["max_burst"] <= df["burst_hours"]).all()
    assert ((df["n_bursts"] == 0) == (df["burst_hours"] == 0)).all()


def test_autocorr_matches_duckdb(ray_session, con):
    from rayse.ops.bursts import hourly_autocorr, hourly_autocorr_sql

    n = _cmp(hourly_autocorr(SF).to_pandas(),
             con.execute(hourly_autocorr_sql()).fetchdf(),
             ["event_type"])
    assert n > 0


def test_autocorr_bounds(ray_session):
    from rayse.ops.bursts import hourly_autocorr

    df = hourly_autocorr(SF).to_pandas()
    assert df["r_q"].between(-10**9, 10**9).all()


def test_haar_matches_duckdb(ray_session, con):
    from rayse.ops.bursts import haar_energy, haar_energy_sql

    n = _cmp(haar_energy(SF).to_pandas(),
             con.execute(haar_energy_sql()).fetchdf(),
             ["event_type", "level"])
    assert n > 0


def test_haar_parseval(ray_session):
    """Unnormalized-Haar identity: sum over levels of energy_l / 2^l
    plus (total^2) / P equals sum of squares of the base series —
    checked exactly with Fractions for one type."""
    from fractions import Fraction

    import duckdb as dd

    from rayse.ops.bursts import HOUR_US, haar_energy

    c = dd.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{SF}/events.parquet')")
    df = haar_energy(SF).to_pandas()
    t = df["event_type"].iloc[0]
    rows = c.execute(
        f"SELECT CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS h,"
        f" count(*) AS n FROM events WHERE event_type = '{t}'"
        f" GROUP BY h").df()
    span = c.execute(
        f"SELECT min(hr), max(hr) FROM (SELECT CAST(floor(epoch_us(ts)"
        f" / {HOUR_US}) AS BIGINT) AS hr FROM events)").fetchone()
    nh = int(span[1] - span[0] + 1)
    p = 1
    while p < nh:
        p *= 2
    ss = int((rows["n"].astype(object) ** 2).sum())
    total = int(rows["n"].sum())
    lhs = sum(Fraction(int(e), 2 ** int(l))
              for l, e in zip(df[df["event_type"] == t]["level"],
                              df[df["event_type"] == t]["energy"]))
    assert lhs + Fraction(total * total, p) == ss
