"""Relational operators over the sf tables — the engine's non-search
side: a trailing sliding window and the as-of and range joins over the
events log, and key set operations across id domains. All
DuckDB-oracle-matched.

Float policy (``_cents``, shared by the money-handling ops of this
package): money values are converted to integer cents PER ROW (both
sides compute half-away-from-zero rounding on identical double operands ->
identical integers) and summed as int64 — integer sums are
order-independent, so the hash-exact comparison cannot be broken by float
summation order, unlike any "round the float sum" scheme (boundary flips).
Rounding is ``floor(x*100 + 0.5)`` (half-AWAY for non-negative money),
matching DuckDB's ``round()`` on DOUBLE exactly; ``np.round`` would be
half-to-even and disagree on exact .5 cents (e.g. 246.5 -> 246 vs 247).
The money columns it is applied to are non-negative, which the floor
form requires.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _cents(x: np.ndarray, scale: float = 100.0) -> np.ndarray:
    """Half-away-from-zero integer scaling for non-negative doubles
    (identical to DuckDB round(x*scale))."""
    return np.floor(x * scale + 0.5).astype(np.int64)


def _type_hashes(etype: np.ndarray) -> np.ndarray:
    """FNV-1a 64 of each event_type string (int partition key for the
    exchange; local grouping stays on the string, so a hash collision
    merely co-locates two types without merging their counts)."""
    from .textstats import _word_arr_slices, fnv64_slices

    return fnv64_slices(*_word_arr_slices(etype))


def _trailing_rows_batch(batch: pa.Table, window_us: int) -> pa.Table:
    """Owner + halo rows for the (type, time-bucket) exchange: each event
    lands once in its own bucket (owner, counted and emitted) and once in
    the NEXT bucket (halo, context only) — bucket width == window, so an
    owner's trailing window [t - w, t] is fully covered by its bucket's
    owners plus the previous bucket's events (its halo copies)."""
    import pyarrow.compute as pc

    if batch.num_rows == 0:
        return pa.table({"event_id": pa.array([], pa.int64()),
                         "event_type": pa.array([], pa.string()),
                         "thash": pa.array([], pa.uint64()),
                         "bucket": pa.array([], pa.int64()),
                         "ts_us": pa.array([], pa.int64()),
                         "halo": pa.array([], pa.int8())})
    etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    th = _type_hashes(etype)
    ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
    eid = batch["event_id"].to_numpy(zero_copy_only=False)
    bucket = ts // window_us
    n = ts.size
    return pa.table({
        "event_id": pa.array(np.concatenate([eid, eid]), pa.int64()),
        "event_type": pa.array(np.concatenate([etype, etype]).tolist(),
                               pa.string()),
        "thash": pa.array(np.concatenate([th, th]), pa.uint64()),
        "bucket": pa.array(np.concatenate([bucket, bucket + 1]), pa.int64()),
        "ts_us": pa.array(np.concatenate([ts, ts]), pa.int64()),
        "halo": pa.array(np.concatenate([np.zeros(n, np.int8),
                                         np.ones(n, np.int8)]), pa.int8()),
    })


def _trailing_partition(tbl: pa.Table, window_us: int) -> pa.Table:
    """All (type, bucket) groups this partition owns: composite-key
    searchsorted counts trailing-window peers for every owner row at once
    (tnorm = ts - (bucket-1)*w lies in [0, 2w) for owners and halos, so a
    fixed per-group span of 2w+2 keeps probes inside their group block)."""
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "trailing_count": pa.array([], pa.int64())})
    if tbl.num_rows == 0:
        return empty
    etype = np.asarray(tbl["event_type"].to_pylist(), dtype=object)
    bucket = tbl["bucket"].to_numpy(zero_copy_only=False)
    ts = tbl["ts_us"].to_numpy(zero_copy_only=False)
    eid = tbl["event_id"].to_numpy(zero_copy_only=False)
    halo = tbl["halo"].to_numpy(zero_copy_only=False)
    _, t_inv = np.unique(etype, return_inverse=True)
    comp = t_inv.astype(np.int64) * (bucket.max() - bucket.min() + 2) \
        + (bucket - bucket.min())
    _, grank = np.unique(comp, return_inverse=True)
    tnorm = ts - (bucket - 1) * window_us            # in [0, 2w)
    span = 2 * window_us + 2
    key = grank.astype(np.int64) * span + tnorm
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    own = halo[order] == 0
    own_keys = key_s[own]
    lo = np.searchsorted(key_s, own_keys - window_us, side="left")
    hi = np.searchsorted(key_s, own_keys, side="right")
    return pa.table({
        "event_id": pa.array(eid[order][own], pa.int64()),
        "trailing_count": pa.array((hi - lo).astype(np.int64), pa.int64()),
    })


def trailing_window_counts(sf_dir: str, window_s: int = 3600):
    """Per event: number of same-type events in the trailing ``window_s``
    seconds (inclusive of ts peers) — the sliding-window analog of
    ``windows.tumbling_agg``. Exchange by (event_type, time-bucket) with a
    one-window halo: a hot event type splits across its time buckets
    instead of landing whole in one task (the round-3 groupby(event_type)
    shape), so skew is bounded by events-per-window, not events-per-type."""
    from .exchange import exchange_by_key
    import ray.data as rd

    window_us = window_s * 1_000_000
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "event_type"])
    rows = ds.map_batches(_trailing_rows_batch,
                          fn_kwargs={"window_us": window_us},
                          batch_format="pyarrow", zero_copy_batch=True)
    return exchange_by_key(rows, ["thash", "bucket"], _trailing_partition,
                           proc_kwargs={"window_us": window_us})


TRAILING_WINDOW_SQL = """
    SELECT event_id,
           CAST(count(*) OVER (
             PARTITION BY event_type ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
             AS BIGINT) AS trailing_count
    FROM events
"""


# ---------------------------------------------------------------------------
# As-of join — the canonical "operator Ray Data lacks" (task brief §custom
# operators): each left event joined to the same user's most recent
# prior-or-equal right event. Round-3 exchanged by user_id alone, which
# puts a single-user firehose whole into one task; this is the round-4
# time-bucket-salted realization: the exchange key is (user_id, bucket),
# and the unbounded lookback is carried across buckets by a tiny two-pass
# summary — pass 1 reduces the stream to one (latest right, has-left) row
# per (user, bucket); a per-user prefix scan over those summaries emits a
# "carry" candidate into every bucket that contains left events; pass 2
# matches within each (user, bucket) partition with the carry competing as
# an ordinary right candidate. Results are identical to the unsalted join
# (the carry IS the best earlier-bucket candidate). DuckDB's native ASOF
# JOIN is the oracle.
# ---------------------------------------------------------------------------

_ASOF_ROWS_SCHEMA = pa.schema([
    ("user_id", pa.int64()), ("bucket", pa.int64()), ("ts_us", pa.int64()),
    ("event_id", pa.int64()), ("kind", pa.int8())])     # 0 = left, 1 = right


def _asof_stamp_batch(batch: pa.Table, left_type: str, right_type: str,
                      bucket_us: int) -> pa.Table:
    import pyarrow.compute as pc

    if batch.num_rows == 0:
        return pa.table({n: [] for n in _ASOF_ROWS_SCHEMA.names},
                        schema=_ASOF_ROWS_SCHEMA)
    etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    lm, rm = etype == left_type, etype == right_type
    keep = lm | rm
    ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)[keep]
    return pa.table({
        "user_id": pa.array(
            batch["user_id"].to_numpy(zero_copy_only=False)[keep],
            pa.int64()),
        "bucket": pa.array(ts // bucket_us, pa.int64()),
        "ts_us": pa.array(ts, pa.int64()),
        "event_id": pa.array(
            batch["event_id"].to_numpy(zero_copy_only=False)[keep],
            pa.int64()),
        "kind": pa.array(rm[keep].astype(np.int8), pa.int8()),
    })


def _asof_summary_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial: one row per (user, bucket, kind) — rights keep
    their max (ts, event_id), lefts mark presence. Stream-sized input,
    summary-sized output."""
    if batch.num_rows == 0:
        return pa.table({n: [] for n in _ASOF_ROWS_SCHEMA.names},
                        schema=_ASOF_ROWS_SCHEMA)
    user = batch["user_id"].to_numpy(zero_copy_only=False)
    bucket = batch["bucket"].to_numpy(zero_copy_only=False)
    ts = batch["ts_us"].to_numpy(zero_copy_only=False)
    eid = batch["event_id"].to_numpy(zero_copy_only=False)
    kind = batch["kind"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, kind, bucket, user))
    u, b, t, e, k = (user[order], bucket[order], ts[order], eid[order],
                     kind[order])
    last = np.empty(u.size, dtype=bool)
    last[-1] = True
    last[:-1] = (u[1:] != u[:-1]) | (b[1:] != b[:-1]) | (k[1:] != k[:-1])
    return pa.table({
        "user_id": pa.array(u[last], pa.int64()),
        "bucket": pa.array(b[last], pa.int64()),
        "ts_us": pa.array(t[last], pa.int64()),
        "event_id": pa.array(e[last], pa.int64()),
        "kind": pa.array(k[last], pa.int8()),
    })


def _asof_carry_partition(tbl: pa.Table) -> pa.Table:
    """All summary partials of this partition's users -> carry rows
    (user, bucket, ts, event_id, kind=1): for each bucket with left
    events, the latest right event of any STRICTLY EARLIER bucket. The
    Python loop here runs over (user, bucket) summaries — already reduced
    far below stream size — never over events. Right-ts ties break to the
    larger event_id (deterministic)."""
    if tbl.num_rows == 0:
        return pa.table({n: [] for n in _ASOF_ROWS_SCHEMA.names},
                        schema=_ASOF_ROWS_SCHEMA)
    user = tbl["user_id"].to_numpy(zero_copy_only=False)
    bucket = tbl["bucket"].to_numpy(zero_copy_only=False)
    ts = tbl["ts_us"].to_numpy(zero_copy_only=False)
    eid = tbl["event_id"].to_numpy(zero_copy_only=False)
    kind = tbl["kind"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, kind, bucket, user))
    out = {"user_id": [], "bucket": [], "ts_us": [], "event_id": []}
    cur_u = cur_b = None
    best = None                  # (ts, eid) latest right over earlier buckets
    pend = None                  # this bucket's right max, applied on leave
    b_left = False
    def flush():
        nonlocal best, pend, b_left
        if b_left and best is not None:
            out["user_id"].append(cur_u)
            out["bucket"].append(cur_b)
            out["ts_us"].append(best[0])
            out["event_id"].append(best[1])
        if pend is not None and (best is None or pend > best):
            best = pend
        pend, b_left = None, False
    for i in order.tolist():
        u, b = int(user[i]), int(bucket[i])
        if u != cur_u:
            flush()
            cur_u, cur_b, best = u, b, None
        elif b != cur_b:
            flush()
            cur_b = b
        if kind[i] == 1:
            c = (int(ts[i]), int(eid[i]))
            if pend is None or c > pend:
                pend = c
        else:
            b_left = True
    flush()
    n = len(out["user_id"])
    return pa.table({
        "user_id": pa.array(out["user_id"], pa.int64()),
        "bucket": pa.array(out["bucket"], pa.int64()),
        "ts_us": pa.array(out["ts_us"], pa.int64()),
        "event_id": pa.array(out["event_id"], pa.int64()),
        "kind": pa.array(np.ones(n, np.int8), pa.int8()),
    })


def _group_ranks(user: np.ndarray, bucket: np.ndarray) -> np.ndarray:
    """Dense rank of each row's (user, bucket) group (sorted group order)."""
    order = np.lexsort((bucket, user))
    new = np.empty(user.size, dtype=bool)
    new[0] = True
    new[1:] = (user[order][1:] != user[order][:-1]) \
        | (bucket[order][1:] != bucket[order][:-1])
    ranks_sorted = np.cumsum(new) - 1
    grank = np.empty(user.size, dtype=np.int64)
    grank[order] = ranks_sorted
    return grank


def _asof_match_partition(tbl: pa.Table) -> pa.Table:
    """Matched pairs for all (user, bucket) groups this partition owns:
    composite int key (group rank * span + ts offset) makes ONE backward
    searchsorted serve every group at once; carries participate as right
    candidates with their real (earlier-bucket) timestamps."""
    empty = pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts_us": pa.array([], pa.int64()),
        "matched_event_id": pa.array([], pa.int64()),
        "gap_us": pa.array([], pa.int64()),
    })
    if tbl.num_rows == 0:
        return empty
    user = tbl["user_id"].to_numpy(zero_copy_only=False)
    bucket = tbl["bucket"].to_numpy(zero_copy_only=False)
    ts = tbl["ts_us"].to_numpy(zero_copy_only=False)
    eid = tbl["event_id"].to_numpy(zero_copy_only=False)
    kind = tbl["kind"].to_numpy(zero_copy_only=False)
    lm, rm = kind == 0, kind == 1
    if not lm.any() or not rm.any():
        return empty
    grank = _group_ranks(user, bucket)
    t0 = int(ts.min())
    span = int(ts.max()) - t0 + 2            # +2: room for the key shift
    key = grank * span + (ts - t0)
    lk, rk = key[lm], key[rm]
    r_order = np.argsort(rk, kind="stable")
    rk_s = rk[r_order]
    r_eid = eid[rm][r_order]
    r_gr = grank[rm][r_order]
    r_ts = ts[rm][r_order]
    j = np.searchsorted(rk_s, lk, side="right") - 1
    jc = np.maximum(j, 0)
    ok = (j >= 0) & (r_gr[jc] == grank[lm])  # same group, r.ts <= l.ts
    return pa.table({
        "event_id": pa.array(eid[lm][ok], pa.int64()),
        "user_id": pa.array(user[lm][ok], pa.int64()),
        "ts_us": pa.array(ts[lm][ok], pa.int64()),
        "matched_event_id": pa.array(r_eid[jc][ok], pa.int64()),
        "gap_us": pa.array(ts[lm][ok] - r_ts[jc][ok], pa.int64()),
    })


def asof_join_events(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "click",
                     bucket_us: int = 86_400_000_000):
    """Each ``left_type`` event joined to the same user's most recent
    prior-or-equal ``right_type`` event -> (event_id, user_id, ts_us,
    matched_event_id, gap_us); unmatched left events drop (inner as-of).
    Skew-safe: exchange by (user_id, time-bucket) with cross-bucket
    carries (module header), so a single-user firehose spreads over its
    buckets instead of one task."""
    import ray.data as rd

    from .exchange import exchange_by_key

    def rows():
        ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["event_id", "ts", "user_id",
                                      "event_type"])
        return ds.map_batches(
            _asof_stamp_batch, batch_format="pyarrow", zero_copy_batch=True,
            fn_kwargs={"left_type": left_type, "right_type": right_type,
                       "bucket_us": bucket_us})

    summaries = rows().map_batches(_asof_summary_batch,
                                   batch_format="pyarrow")
    carries = exchange_by_key(summaries, "user_id", _asof_carry_partition)
    return exchange_by_key(rows().union(carries), ["user_id", "bucket"],
                           _asof_match_partition)


def asof_join_events_sql(left_type: str = "purchase",
                         right_type: str = "click") -> str:
    """Oracle: DuckDB's native ASOF JOIN (greatest r.ts <= l.ts per key)."""
    return f"""
SELECT l.event_id, l.user_id,
       epoch_us(l.ts) AS ts_us,
       r.event_id AS matched_event_id,
       epoch_us(l.ts) - epoch_us(r.ts) AS gap_us
FROM (SELECT * FROM events WHERE event_type = '{left_type}') l
ASOF JOIN (SELECT * FROM events WHERE event_type = '{right_type}') r
  ON l.user_id = r.user_id AND l.ts >= r.ts"""


def _range_stamp_batch(batch: pa.Table, left_type: str, right_type: str,
                       before_us: int, after_us: int,
                       bucket_us: int) -> pa.Table:
    """Owner rows for lefts (their own bucket) + replicated rows for
    rights: a right at tr is visible to lefts with ts in [tr - after,
    tr + before], i.e. buckets floor((tr-after)/B)..floor((tr+before)/B)
    — with B = before + after that is at most 2-3 copies per right."""
    import pyarrow.compute as pc

    if batch.num_rows == 0:
        return pa.table({n: [] for n in _ASOF_ROWS_SCHEMA.names},
                        schema=_ASOF_ROWS_SCHEMA)
    etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
    user = batch["user_id"].to_numpy(zero_copy_only=False)
    ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
    eid = batch["event_id"].to_numpy(zero_copy_only=False)
    lm, rm = etype == left_type, etype == right_type
    # lefts: one owner row in their bucket
    l_user, l_ts, l_eid = user[lm], ts[lm], eid[lm]
    l_bucket = l_ts // bucket_us
    # rights: one row per covered bucket
    r_user, r_ts, r_eid = user[rm], ts[rm], eid[rm]
    lo_b = (r_ts - after_us) // bucket_us
    hi_b = (r_ts + before_us) // bucket_us
    reps = (hi_b - lo_b + 1).astype(np.int64)
    total = int(reps.sum())
    rr = np.repeat(np.arange(r_ts.size), reps)
    r_bucket = (np.arange(total)
                - np.repeat(np.cumsum(reps) - reps, reps)
                + np.repeat(lo_b, reps))
    return pa.table({
        "user_id": pa.array(np.concatenate([l_user, r_user[rr]]),
                            pa.int64()),
        "bucket": pa.array(np.concatenate([l_bucket, r_bucket]),
                           pa.int64()),
        "ts_us": pa.array(np.concatenate([l_ts, r_ts[rr]]), pa.int64()),
        "event_id": pa.array(np.concatenate([l_eid, r_eid[rr]]),
                             pa.int64()),
        "kind": pa.array(np.concatenate(
            [np.zeros(l_ts.size, np.int8),
             np.ones(total, np.int8)]), pa.int8()),
    })


def _range_match_partition(tbl: pa.Table, before_us: int,
                           after_us: int) -> pa.Table:
    """Interval matches for all (user, bucket) groups this partition owns:
    two searchsorted probes (lower/upper bound) + a repeat/arange expand —
    no per-row loop. Each left lives in exactly one bucket and each right
    appears at most once per bucket, so no pair is produced twice."""
    empty = pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "matched_event_id": pa.array([], pa.int64()),
        "delta_us": pa.array([], pa.int64()),
    })
    if tbl.num_rows == 0:
        return empty
    user = tbl["user_id"].to_numpy(zero_copy_only=False)
    bucket = tbl["bucket"].to_numpy(zero_copy_only=False)
    ts = tbl["ts_us"].to_numpy(zero_copy_only=False)
    eid = tbl["event_id"].to_numpy(zero_copy_only=False)
    kind = tbl["kind"].to_numpy(zero_copy_only=False)
    lm, rm = kind == 0, kind == 1
    if not lm.any() or not rm.any():
        return empty
    grank = _group_ranks(user, bucket)
    t0 = int(ts.min())
    # span covers the widened probe window so composite keys stay disjoint
    span = int(ts.max()) - t0 + before_us + after_us + 2
    key = grank * span + (ts - t0)
    lk, rk = key[lm], key[rm]
    r_order = np.argsort(rk, kind="stable")
    rk_s = rk[r_order]
    r_eid = eid[rm][r_order]
    r_ts = ts[rm][r_order]
    lo = np.searchsorted(rk_s, lk - before_us, side="left")
    hi = np.searchsorted(rk_s, lk + after_us, side="right")
    n = hi - lo
    l_rep = np.repeat(np.arange(lk.size), n)
    r_pos = (np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
             + np.repeat(lo, n))
    l_eid, l_uid, l_ts = eid[lm][l_rep], user[lm][l_rep], ts[lm][l_rep]
    return pa.table({
        "event_id": pa.array(l_eid, pa.int64()),
        "user_id": pa.array(l_uid, pa.int64()),
        "matched_event_id": pa.array(r_eid[r_pos], pa.int64()),
        "delta_us": pa.array(r_ts[r_pos] - l_ts, pa.int64()),
    })


def range_join_events(sf_dir: str, left_type: str = "purchase",
                      right_type: str = "error",
                      before_us: int = 3_600_000_000,
                      after_us: int = 3_600_000_000,
                      bucket_us: int | None = None):
    """Interval join: every (left, right) same-user event pair with
    right.ts within [left.ts - before, left.ts + after] -> (event_id,
    user_id, matched_event_id, delta_us). Skew-safe: exchange by
    (user_id, time-bucket) with rights replicated into every bucket their
    window touches (bucket width defaults to before + after, capping the
    replication factor at ~2-3x), so a single-user firehose spreads over
    its buckets instead of landing whole in one task."""
    import ray.data as rd

    from .exchange import exchange_by_key

    if bucket_us is None:
        bucket_us = max(before_us + after_us, 1)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])
    rows = ds.map_batches(
        _range_stamp_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"left_type": left_type, "right_type": right_type,
                   "before_us": before_us, "after_us": after_us,
                   "bucket_us": bucket_us})
    return exchange_by_key(rows, ["user_id", "bucket"],
                           _range_match_partition,
                           proc_kwargs={"before_us": before_us,
                                        "after_us": after_us})


def range_join_events_sql(left_type: str = "purchase",
                          right_type: str = "error",
                          before_us: int = 3_600_000_000,
                          after_us: int = 3_600_000_000) -> str:
    return f"""
SELECT l.event_id, l.user_id, r.event_id AS matched_event_id,
       epoch_us(r.ts) - epoch_us(l.ts) AS delta_us
FROM (SELECT * FROM events WHERE event_type = '{left_type}') l
JOIN (SELECT * FROM events WHERE event_type = '{right_type}') r
  ON l.user_id = r.user_id
 AND epoch_us(r.ts) BETWEEN epoch_us(l.ts) - {before_us}
                        AND epoch_us(l.ts) + {after_us}"""


def key_set_ops(sf_dir: str) -> pa.Table:
    """(scope, n): INTERSECT / EXCEPT completion of the set-operation
    family over the two id domains that share a key space — event
    user_ids vs customer custkeys: both-sides, users-only, and
    customers-only distinct-key counts.

    Shape: two distinct-key folds (groupby count, key-cardinality
    outputs — the same documented bound as the degree folds in
    `rayse/ops/graph.py`), one sorted searchsorted membership pass.
    DuckDB hash-matched against INTERSECT / EXCEPT."""
    import ray
    import ray.data as rd

    def distinct_keys(table: str, col: str) -> np.ndarray:
        ds = (rd.read_parquet(f"{sf_dir}/{table}.parquet",
                              columns=[col]).groupby(col).count())
        rows = pa.concat_tables(
            [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows],
            promote_options="default")
        return np.sort(rows[col].to_numpy(zero_copy_only=False))

    users = distinct_keys("events", "user_id")
    custs = distinct_keys("customer", "c_custkey")
    j = np.searchsorted(custs, users)
    j_c = np.minimum(j, custs.size - 1)
    in_both = int(((custs.size > 0) & (custs[j_c] == users)).sum())
    return pa.table({
        "scope": pa.array(["both", "customers_only", "users_only"],
                          pa.string()),
        "n": pa.array([in_both, custs.size - in_both,
                       users.size - in_both], pa.int64()),
    })


KEY_SET_OPS_SQL = """
SELECT 'both' AS scope, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT DISTINCT user_id FROM events
  INTERSECT SELECT DISTINCT c_custkey FROM customer)
UNION ALL
SELECT 'customers_only', CAST(count(*) AS BIGINT) FROM (
  SELECT DISTINCT c_custkey FROM customer
  EXCEPT SELECT DISTINCT user_id FROM events)
UNION ALL
SELECT 'users_only', CAST(count(*) AS BIGINT) FROM (
  SELECT DISTINCT user_id FROM events
  EXCEPT SELECT DISTINCT c_custkey FROM customer)
ORDER BY scope
"""
