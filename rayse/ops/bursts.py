"""Burst detection over the event stream (hysteresis two-state labeling).

The streaming burst-episode operator (Kleinberg-style two-state burst
model, deterministic hysteresis variant so the DP stays integer-exact
and SQL-expressible): per event type, build the dense hourly count grid
over the GLOBAL observed hour span (zero hours matter — they end
bursts), then label each hour with a Schmitt trigger

    enter burst  when  c * n_hours >= 2 * total   (c >= 2x mean)
    exit  burst  when  c * n_hours <      total   (c <  mean)
    otherwise hold the previous state (initial state: base)

— all comparisons in cross-multiplied integers, no floats. Bursts are
maximal runs of the burst state; the output is per-type episode
statistics (count, total burst hours, longest burst).

Distributed shape: per-batch (type, hour, cnt) partials via np.unique
(event-cardinality never leaves the task), one vocabulary-sized
``groupby(type, hour).sum``, then the driver folds the aggregated grid —
bounded by types x observed-hour-span, the same vertex-dense documented
bound as `rayse/ops/graph.py` PageRank state — with the forward-fill
label scan fully vectorized (np.maximum.accumulate index fill).

Reference relationship: none (no temporal analytics in the reference);
pins the dense-grid + hysteresis-scan machinery next to the windowed
aggregates of `rayse/ops/windows.py`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

HOUR_US = 3_600_000_000


def _hour_partials(batch: pa.Table) -> pa.Table:
    ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
        "datetime64[us]").view("int64")
    hr = np.floor_divide(ts, HOUR_US)
    et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    key = np.char.add(np.char.add(et.astype(str), "\x00"),
                      hr.astype(str))
    uk, inv, cnt = np.unique(key, return_inverse=True,
                             return_counts=True)
    first = np.full(uk.size, -1, np.int64)
    first[inv[::-1]] = np.arange(len(key) - 1, -1, -1)
    return pa.table({
        "event_type": pa.array(et[first].tolist(), pa.string()),
        "hr": pa.array(hr[first], pa.int64()),
        "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
    })


def _label_states(c: np.ndarray, total: int, nh: int) -> np.ndarray:
    """Hysteresis state per hour of one type's dense count vector."""
    mark = np.full(c.size, -1, np.int64)
    mark[c * nh >= 2 * total] = 1
    mark[c * nh < total] = 0
    has = mark >= 0
    last_idx = np.maximum.accumulate(
        np.where(has, np.arange(c.size), -1))
    return np.where(last_idx >= 0, mark[np.maximum(last_idx, 0)], 0)


def burst_stats(sf_dir: str) -> pa.Table:
    """(event_type, n_bursts, burst_hours, max_burst): burst episodes
    per event type over the dense global hour grid — DuckDB
    hash-matched against the window-function hysteresis oracle."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1

    out_t, out_n, out_h, out_m = [], [], [], []
    for t in sorted(set(et.tolist())):
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        total = int(c.sum())
        st = _label_states(c, total, nh)
        prev = np.r_[0, st[:-1]]
        ups = np.flatnonzero((st == 1) & (prev == 0))
        downs = np.flatnonzero((st == 0) & (prev == 1))
        # run lengths: each up pairs with the next down (or the grid end)
        if downs.size:
            ends = np.searchsorted(downs, ups, side="left")
            end_hr = np.where(ends < downs.size,
                              downs[np.minimum(ends, downs.size - 1)],
                              nh)
        else:
            end_hr = np.full(ups.size, nh, np.int64)
        lens = end_hr - ups
        out_t.append(t)
        out_n.append(int(ups.size))
        out_h.append(int(lens.sum()))
        out_m.append(int(lens.max()) if lens.size else 0)

    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "n_bursts": pa.array(out_n, pa.int64()),
        "burst_hours": pa.array(out_h, pa.int64()),
        "max_burst": pa.array(out_m, pa.int64()),
    })


BURST_STATS_SQL = f"""
WITH h AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events
),
bounds AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM h),
grid AS (
  SELECT t.event_type, g.hr
  FROM (SELECT DISTINCT event_type FROM h) t
  CROSS JOIN (SELECT unnest(range((SELECT h0 FROM bounds),
                                  (SELECT h1 FROM bounds) + 1)) AS hr) g
),
c AS (SELECT event_type, hr, count(*) AS c FROM h GROUP BY event_type, hr),
d AS (
  SELECT grid.event_type, grid.hr, COALESCE(c.c, 0) AS c
  FROM grid LEFT JOIN c USING (event_type, hr)
),
tot AS (
  SELECT event_type, sum(c) AS total, count(*) AS nh
  FROM d GROUP BY event_type
),
m AS (
  SELECT d.event_type, d.hr, d.c,
         CASE WHEN d.c * t.nh >= 2 * t.total THEN 1
              WHEN d.c * t.nh < t.total THEN 0 END AS mark
  FROM d JOIN tot t USING (event_type)
),
s AS (
  SELECT event_type, hr,
         COALESCE(last_value(mark IGNORE NULLS)
                  OVER (PARTITION BY event_type ORDER BY hr
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND CURRENT ROW), 0) AS st
  FROM m
),
runs AS (
  SELECT event_type, hr, st,
         CASE WHEN st = 1 AND COALESCE(
                lag(st) OVER (PARTITION BY event_type ORDER BY hr),
                0) = 0
              THEN 1 ELSE 0 END AS up
  FROM s
),
rid AS (
  SELECT event_type, hr, st,
         sum(up) OVER (PARTITION BY event_type ORDER BY hr
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND CURRENT ROW) AS r
  FROM runs
),
bursts AS (
  SELECT event_type, r, count(*) AS len
  FROM rid WHERE st = 1 GROUP BY event_type, r
),
per_type AS (
  SELECT event_type, count(*) AS n_bursts, sum(len) AS burst_hours,
         max(len) AS max_burst
  FROM bursts GROUP BY event_type
)
SELECT t.event_type,
       CAST(COALESCE(p.n_bursts, 0) AS BIGINT) AS n_bursts,
       CAST(COALESCE(p.burst_hours, 0) AS BIGINT) AS burst_hours,
       CAST(COALESCE(p.max_burst, 0) AS BIGINT) AS max_burst
FROM tot t LEFT JOIN per_type p USING (event_type)
ORDER BY t.event_type
"""


AC_LAG = 24


def hourly_autocorr(sf_dir: str, lag: int = AC_LAG) -> pa.Table:
    """(event_type, n_pairs, r_q): seasonality detection — the Pearson
    autocorrelation of the dense hourly count grid at ``lag`` hours
    (24 = daily rhythm), per event type. The co-moments n·Σxy − Σx·Σy
    and n·Σx² − (Σx)² are exact integers; r_q is then
    floor(float(num) / sqrt(float(d1·d2)) · 1e9), the same three float
    ops the oracle runs, so the result is bit-exact.
    Same grid fold as ``burst_stats`` (types x hour-span driver bound);
    DuckDB hash-matched against the self-join HUGEINT oracle."""
    import math

    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1

    out_t, out_n, out_r = [], [], []
    for t in sorted(set(et.tolist())):
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        if nh <= lag:
            continue
        x, y = c[:-lag], c[lag:]
        n = int(x.size)
        sx, sy = int(x.sum()), int(y.sum())
        sxx = int((x * x).sum())
        syy = int((y * y).sum())
        sxy = int((x * y).sum())
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        if d1 == 0 or d2 == 0:
            continue
        out_t.append(t)
        out_n.append(n)
        out_r.append(math.floor(
            float(num) / math.sqrt(float(d1 * d2)) * 1e9))
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "n_pairs": pa.array(out_n, pa.int64()),
        "r_q": pa.array(out_r, pa.int64()),
    })


def hourly_autocorr_sql(lag: int = AC_LAG) -> str:
    return f"""
WITH h AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events
),
bounds AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM h),
grid AS (
  SELECT t.event_type, g.hr
  FROM (SELECT DISTINCT event_type FROM h) t
  CROSS JOIN (SELECT unnest(range((SELECT h0 FROM bounds),
                                  (SELECT h1 FROM bounds) + 1)) AS hr) g
),
c AS (SELECT event_type, hr, count(*) AS c FROM h GROUP BY event_type, hr),
d AS (
  SELECT grid.event_type, grid.hr, COALESCE(c.c, 0) AS c
  FROM grid LEFT JOIN c USING (event_type, hr)
),
xy AS (
  SELECT a.event_type, CAST(a.c AS HUGEINT) AS x,
         CAST(b.c AS HUGEINT) AS y
  FROM d a JOIN d b
    ON b.event_type = a.event_type AND b.hr = a.hr + {lag}
),
s AS (
  SELECT event_type, CAST(count(*) AS HUGEINT) AS n,
         sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM xy GROUP BY event_type
)
SELECT event_type, CAST(n AS BIGINT) AS n_pairs,
       CAST(floor(CAST(n * sxy - sx * sy AS DOUBLE)
                  / sqrt(CAST((n * sxx - sx * sx)
                              * (n * syy - sy * sy) AS DOUBLE))
                  * 1000000000::DOUBLE) AS BIGINT) AS r_q
FROM s
WHERE n * sxx - sx * sx <> 0 AND n * syy - sy * sy <> 0
ORDER BY event_type
"""


def haar_energy(sf_dir: str) -> pa.Table:
    """(event_type, level, energy): unnormalized Haar wavelet detail
    energy per dyadic level of the dense hourly count series (zero-
    padded to the next power of two) — the multi-resolution activity
    spectrum: level 1 is hour-to-hour detail, higher levels expose
    daily/weekly structure. Unnormalized Haar (pairwise sums carry up,
    pairwise differences squared and summed) keeps every number an
    exact integer.

    Same grid fold and driver bound as ``burst_stats``; per-type
    transform is log2(P) vectorized halvings. DuckDB hash-matched
    against a recursive-CTE sum pyramid (aggregates in the recursive
    term, the pagerank-oracle idiom) with the detail energies derived
    from adjacent-pair differences at each level."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1
    p = 1
    while p < nh:
        p *= 2

    out_t, out_l, out_e = [], [], []
    for t in sorted(set(et.tolist())):
        m = et == t
        a = np.zeros(p, dtype=object)    # python ints: exact squares
        a[(hr[m] - h0)] = [int(x) for x in cnt[m]]
        level = 0
        while a.size > 1:
            level += 1
            d = a[0::2] - a[1::2]
            a = a[0::2] + a[1::2]
            out_t.append(t)
            out_l.append(level)
            out_e.append(int(sum(x * x for x in d)))
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "level": pa.array(out_l, pa.int64()),
        "energy": pa.array(out_e, pa.int64()),
    })


def haar_energy_sql() -> str:
    return f"""
WITH RECURSIVE hh AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events
),
hb AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM hh),
hp AS (
  -- next power of two of the span
  SELECT h0, CAST(power(2, ceil(log2((h1 - h0 + 1)::DOUBLE)))
              AS BIGINT) AS p
  FROM hb
),
hgrid AS (
  SELECT t.event_type, g.i
  FROM (SELECT DISTINCT event_type FROM hh) t
  CROSS JOIN (SELECT unnest(range((SELECT p FROM hp))) AS i) g
),
hc AS (
  SELECT event_type, hr - (SELECT h0 FROM hp) AS i, count(*) AS c
  FROM hh GROUP BY event_type, hr
),
hbase AS (
  SELECT hgrid.event_type, hgrid.i,
         CAST(COALESCE(hc.c, 0) AS HUGEINT) AS val
  FROM hgrid LEFT JOIN hc USING (event_type, i)
),
pyr(lvl, event_type, i, val) AS (
  SELECT 0, event_type, i, val FROM hbase
  UNION ALL
  SELECT lvl + 1, event_type, i // 2, sum(val)
  FROM pyr
  WHERE i IS NOT NULL
  GROUP BY lvl + 1, event_type, i // 2
  HAVING count(*) = 2
),
diffs AS (
  SELECT lvl + 1 AS level, event_type, i // 2 AS j,
         sum(CASE WHEN i % 2 = 0 THEN val ELSE -val END) AS d
  FROM pyr GROUP BY lvl + 1, event_type, i // 2
  HAVING count(*) = 2
)
SELECT event_type, CAST(level AS BIGINT) AS level,
       CAST(sum(d * d) AS BIGINT) AS energy
FROM diffs GROUP BY event_type, level
ORDER BY event_type, level
"""


EWMA_SCALE = 1_000_000
EWMA_DEN = 8          # alpha = 1/8


def ewma_hourly(sf_dir: str) -> pa.Table:
    """(event_type, hr, ewma_fp): exponentially-weighted moving average
    of the dense hourly count series, alpha = 1/8, in integer
    fixed-point — the classic smoother the timeseries family lacked
    (CUSUM detects level shifts, hysteresis finds bursts, Haar gives
    the spectrum; EWMA is the trend line dashboards draw):

        s_0 = c_0 * SCALE
        s_t = (c_t * SCALE + (DEN-1) * s_{t-1}) // DEN

    Floor division makes the recurrence non-associative, so it cannot
    be a distributed prefix scan like `rayse/ops/cusum.py`; it doesn't
    need to be — the recursion runs on the DENSE HOURLY GRID, whose
    length is bounded by the time span (types x hours, the same
    documented driver bound as ``burst_stats``/``haar_energy``), not by
    the row count. The distributed work is the grid fold: per-batch
    (type, hour) partial counts, one bounded groupby. DuckDB
    hash-matched against the recursive-CTE recurrence bit-for-bit
    (all int64 floor arithmetic).
    """
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1

    out_t, out_h, out_s = [], [], []
    for t in sorted(set(et.tolist())):
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        s = int(c[0]) * EWMA_SCALE
        out_t.append(t)
        out_h.append(h0)
        out_s.append(s)
        for i in range(1, nh):
            s = (int(c[i]) * EWMA_SCALE + (EWMA_DEN - 1) * s) // EWMA_DEN
            out_t.append(t)
            out_h.append(h0 + i)
            out_s.append(s)
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "hr": pa.array(out_h, pa.int64()),
        "ewma_fp": pa.array(out_s, pa.int64()),
    })


def ewma_hourly_sql() -> str:
    return f"""
WITH RECURSIVE eh AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events
),
eb AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM eh),
egrid AS (
  SELECT t.event_type, g.i
  FROM (SELECT DISTINCT event_type FROM eh) t
  CROSS JOIN (SELECT unnest(range(0, (SELECT h1 - h0 + 1 FROM eb)))
              AS i) g
),
ec AS (SELECT event_type, hr - (SELECT h0 FROM eb) AS i,
              count(*) AS c
       FROM eh GROUP BY 1, 2),
ed AS (
  SELECT egrid.event_type, egrid.i,
         CAST(COALESCE(ec.c, 0) AS BIGINT) AS c
  FROM egrid LEFT JOIN ec USING (event_type, i)
),
rec(event_type, i, s) AS (
  SELECT event_type, 0::BIGINT, c * {EWMA_SCALE} FROM ed WHERE i = 0
  UNION ALL
  SELECT d.event_type, r.i + 1,
         (d.c * {EWMA_SCALE} + {EWMA_DEN - 1} * r.s) // {EWMA_DEN}
  FROM rec r JOIN ed d
    ON d.event_type = r.event_type AND d.i = r.i + 1)
SELECT event_type, i + (SELECT h0 FROM eb) AS hr,
       CAST(s AS BIGINT) AS ewma_fp
FROM rec ORDER BY event_type, hr"""


def forecast_eval(sf_dir: str, season: int = 24) -> pa.Table:
    """(event_type, n_hours, mae24_q, mae1_q, mase_ppm): seasonal-naive
    forecast evaluation over the dense hourly grid — forecast(t) =
    count(t - 24), scored by integer MAE against the naive-1 baseline
    forecast(t) = count(t - 1); mase_ppm = mae24 * 1e6 // mae1 (< 1e6
    means daily seasonality beats persistence). The forecast-quality
    cell the timeseries family lacked: autocorr DETECTS the rhythm,
    this measures how exploitable it is.

    Same distributed grid fold + bounded driver transform as
    ``hourly_autocorr``; every number is an int64 sum of absolute
    differences, so the DuckDB lag-window oracle matches bit-for-bit.
    Types whose grid is shorter than season+1 hours are dropped (the
    SQL's inner join does the same)."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1

    out = []
    for t in sorted(set(et.tolist())):
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        if nh <= season:
            continue
        mae24 = int(np.abs(c[season:] - c[:-season]).sum())
        mae1 = int(np.abs(c[season:] - c[season - 1:-1]).sum())
        n = nh - season
        out.append((t, n, mae24, mae1,
                    mae24 * 1_000_000 // mae1 if mae1 else 0))
    return pa.table({
        "event_type": pa.array([r[0] for r in out], pa.string()),
        "n_hours": pa.array([r[1] for r in out], pa.int64()),
        "mae24_q": pa.array([r[2] for r in out], pa.int64()),
        "mae1_q": pa.array([r[3] for r in out], pa.int64()),
        "mase_ppm": pa.array([r[4] for r in out], pa.int64()),
    })


def forecast_eval_sql(season: int = 24) -> str:
    return f"""
WITH fh AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events),
fb AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM fh),
fgrid AS (
  SELECT t.event_type, g.hr
  FROM (SELECT DISTINCT event_type FROM fh) t
  CROSS JOIN (SELECT unnest(range((SELECT h0 FROM fb),
                                  (SELECT h1 FROM fb) + 1)) AS hr) g),
fc AS (SELECT event_type, hr, count(*) AS c FROM fh GROUP BY 1, 2),
fd AS (
  SELECT fgrid.event_type, fgrid.hr, COALESCE(fc.c, 0) AS c
  FROM fgrid LEFT JOIN fc USING (event_type, hr)),
pairs AS (
  SELECT a.event_type,
         abs(a.c - s.c) AS e24, abs(a.c - p.c) AS e1
  FROM fd a
  JOIN fd s ON s.event_type = a.event_type AND s.hr = a.hr - {season}
  JOIN fd p ON p.event_type = a.event_type AND p.hr = a.hr - 1)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_hours,
       CAST(sum(e24) AS BIGINT) AS mae24_q,
       CAST(sum(e1) AS BIGINT) AS mae1_q,
       CAST(CASE WHEN sum(e1) > 0
                 THEN sum(e24) * 1000000 // sum(e1) ELSE 0 END
            AS BIGINT) AS mase_ppm
FROM pairs GROUP BY event_type ORDER BY event_type"""


# ---------------------------------------------------------------------------
# Holt linear-trend smoother — the two-state sibling of ``ewma_hourly``
# (EWMA smooths level only; Holt carries level + trend). Same dense
# hourly grid, same integer fixed-point contract, but the trend state
# can go NEGATIVE, so the recurrence divides with TRUNCATION toward
# zero (DuckDB's `//`), emulated exactly on the Python side — floor
# division would diverge on the first negative trend.
# ---------------------------------------------------------------------------

HOLT_SCALE = 1_000_000
HOLT_DEN = 4          # alpha = beta = 1/4


def _trunc_div(a: int, d: int) -> int:
    """DuckDB `//` parity: integer division truncating toward zero."""
    return -((-a) // d) if a < 0 else a // d


def holt_hourly(sf_dir: str) -> pa.Table:
    """(event_type, hr, level_fp, trend_fp): Holt's linear (double
    exponential) smoothing of the dense hourly count series,
    alpha = beta = 1/4, integer fixed-point:

        l_0 = c_0 * SCALE,  b_0 = (c_1 - c_0) * SCALE
        l_t = trunc((c_t * SCALE + 3 * (l_{t-1} + b_{t-1})) / 4)
        b_t = trunc(((l_t - l_{t-1}) + 3 * b_{t-1}) / 4)

    The recursion runs on the types x hours grid (bounded by time
    span, not rows — the ``ewma_hourly`` contract); distributed work is
    the per-batch (type, hour) partial-count fold. DuckDB hash-matched
    bit-for-bit against the recursive-CTE recurrence (`//` truncates
    toward zero in DuckDB; `_trunc_div` mirrors it)."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")

    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1

    out_t, out_h, out_l, out_b = [], [], [], []
    for t in sorted(set(et.tolist())):
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        lv = int(c[0]) * HOLT_SCALE
        bv = (int(c[1]) - int(c[0])) * HOLT_SCALE if nh > 1 else 0
        out_t.append(t)
        out_h.append(h0)
        out_l.append(lv)
        out_b.append(bv)
        for i in range(1, nh):
            lp = lv
            lv = _trunc_div(int(c[i]) * HOLT_SCALE
                            + (HOLT_DEN - 1) * (lp + bv), HOLT_DEN)
            bv = _trunc_div((lv - lp) + (HOLT_DEN - 1) * bv, HOLT_DEN)
            out_t.append(t)
            out_h.append(h0 + i)
            out_l.append(lv)
            out_b.append(bv)
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "hr": pa.array(out_h, pa.int64()),
        "level_fp": pa.array(out_l, pa.int64()),
        "trend_fp": pa.array(out_b, pa.int64()),
    })


def holt_hourly_sql() -> str:
    return f"""
WITH RECURSIVE eh AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events
),
eb AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM eh),
egrid AS (
  SELECT t.event_type, g.i
  FROM (SELECT DISTINCT event_type FROM eh) t
  CROSS JOIN (SELECT unnest(range(0, (SELECT h1 - h0 + 1 FROM eb)))
              AS i) g
),
ec AS (SELECT event_type, hr - (SELECT h0 FROM eb) AS i,
              count(*) AS c
       FROM eh GROUP BY 1, 2),
ed AS (
  SELECT egrid.event_type, egrid.i,
         CAST(COALESCE(ec.c, 0) AS BIGINT) AS c
  FROM egrid LEFT JOIN ec USING (event_type, i)
),
rec(event_type, i, l, b) AS (
  SELECT d0.event_type, 0::BIGINT, d0.c * {HOLT_SCALE},
         CASE WHEN (SELECT h1 > h0 FROM eb)
              THEN (d1.c - d0.c) * {HOLT_SCALE} ELSE 0 END
  FROM ed d0 LEFT JOIN ed d1
    ON d1.event_type = d0.event_type AND d1.i = 1
  WHERE d0.i = 0
  UNION ALL
  SELECT d.event_type, r.i + 1,
         (d.c * {HOLT_SCALE} + {HOLT_DEN - 1} * (r.l + r.b))
           // {HOLT_DEN},
         (((d.c * {HOLT_SCALE} + {HOLT_DEN - 1} * (r.l + r.b))
           // {HOLT_DEN}) - r.l + {HOLT_DEN - 1} * r.b) // {HOLT_DEN}
  FROM rec r JOIN ed d
    ON d.event_type = r.event_type AND d.i = r.i + 1)
SELECT event_type, i + (SELECT h0 FROM eb) AS hr,
       CAST(l AS BIGINT) AS level_fp, CAST(b AS BIGINT) AS trend_fp
FROM rec ORDER BY event_type, hr"""


# ---------------------------------------------------------------------------
# Lead-lag cross-correlation (raw integer lagged dot products) between
# event-type pairs on the dense hourly grid — "does type B's traffic
# follow type A's k hours later?". Exact int64 dot products; the grid
# is time-span-bounded, so pairs x lags run on the driver.
# ---------------------------------------------------------------------------

XCORR_MAX_LAG = 6


def xcorr_hourly(sf_dir: str, max_lag: int = XCORR_MAX_LAG) -> pa.Table:
    """(type_a, type_b, lag, dot, n_terms): lagged dot products
    dot = sum_t a[t] * b[t + lag] over the dense hourly count grid for
    every ordered pair of distinct event types and lag 0..max_lag —
    DuckDB hash-matched against the grid self-join oracle."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    agg = (ds.map_batches(_hour_partials, batch_format="pyarrow")
           .groupby(["event_type", "hr"]).sum("cnt"))
    grid = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    et = np.asarray(grid["event_type"].to_pylist(), dtype=object)
    hr = grid["hr"].to_numpy(zero_copy_only=False)
    cnt = grid["sum(cnt)"].to_numpy(zero_copy_only=False)
    h0, h1 = int(hr.min()), int(hr.max())
    nh = h1 - h0 + 1
    types = sorted(set(et.tolist()))
    series = {}
    for t in types:
        m = et == t
        c = np.zeros(nh, np.int64)
        c[hr[m] - h0] = cnt[m]
        series[t] = c
    out_a, out_b, out_l, out_d, out_n = [], [], [], [], []
    for a in types:
        for b in types:
            if a == b:
                continue
            for lag in range(max_lag + 1):
                va = series[a][:nh - lag]
                vb = series[b][lag:]
                out_a.append(a)
                out_b.append(b)
                out_l.append(lag)
                out_d.append(int(np.dot(va, vb)))
                out_n.append(nh - lag)
    return pa.table({
        "type_a": pa.array(out_a, pa.string()),
        "type_b": pa.array(out_b, pa.string()),
        "lag": pa.array(out_l, pa.int64()),
        "dot": pa.array(out_d, pa.int64()),
        "n_terms": pa.array(out_n, pa.int64()),
    })


def xcorr_hourly_sql(max_lag: int = XCORR_MAX_LAG) -> str:
    return f"""
WITH eh AS (
  SELECT event_type,
         CAST(floor(epoch_us(ts) / {HOUR_US}) AS BIGINT) AS hr
  FROM events),
eb AS (SELECT min(hr) AS h0, max(hr) AS h1 FROM eh),
egrid AS (
  SELECT t.event_type, g.i
  FROM (SELECT DISTINCT event_type FROM eh) t
  CROSS JOIN (SELECT unnest(range(0, (SELECT h1 - h0 + 1 FROM eb)))
              AS i) g),
ec AS (SELECT event_type, hr - (SELECT h0 FROM eb) AS i,
              count(*) AS c
       FROM eh GROUP BY 1, 2),
ed AS (
  SELECT egrid.event_type, egrid.i,
         CAST(COALESCE(ec.c, 0) AS BIGINT) AS c
  FROM egrid LEFT JOIN ec USING (event_type, i)),
lags AS (SELECT CAST(unnest(range(0, {max_lag + 1})) AS BIGINT) AS lag)
SELECT a.event_type AS type_a, b.event_type AS type_b, l.lag,
       CAST(sum(a.c * b.c) AS BIGINT) AS dot,
       CAST((SELECT h1 - h0 + 1 FROM eb) - l.lag AS BIGINT) AS n_terms
FROM lags l
     JOIN ed a ON TRUE
     JOIN ed b ON b.i = a.i + l.lag
                  AND b.event_type <> a.event_type
GROUP BY a.event_type, b.event_type, l.lag
ORDER BY type_a, type_b, lag"""
