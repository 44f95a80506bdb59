"""`group_kfold`: the leakage-free cross-validation split (scikit-learn
GroupKFold semantics, deterministic): every USER lands wholly in fold
mix(user_id) % K, so no user straddles train/validation — the
grouped sibling of `split_assign` (which splits by doc and would leak
session-level signal). Output = per-fold user/event counts plus a
straddle count the oracle proves ZERO by construction. Row-local
assignment; one bounded groupby.

Reference relationship: none (statistics / ML-workflow completion).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import _mix

KFOLDS = 5


def group_kfold(sf_dir: str, k: int = KFOLDS) -> pa.Table:
    """(fold, n_users, n_events, n_straddle): deterministic GroupKFold
    by user hash; n_straddle is 0 by construction and proved so by the
    oracle — DuckDB hash-matched."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        fold = (_mix(uid.astype(np.uint64)) % np.uint64(k)).astype(
            np.int64)
        key = uid * k + fold
        uk, inv = np.unique(key, return_inverse=True)
        return pa.table({
            "key": pa.array(uk, pa.int64()),
            "n": pa.array(np.bincount(inv, None, uk.size)
                          .astype(np.int64), pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("key").sum("n"))
    tbl = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    key = tbl["key"].to_numpy(zero_copy_only=False)
    n = tbl["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid, fold = key // k, key % k
    # straddle check: users appearing under >1 fold (zero by
    # construction — the fold is a pure function of the user)
    uu, cnt = np.unique(uid, return_counts=True)
    n_straddle = int((cnt > 1).sum())
    out_f, out_u, out_e, out_s = [], [], [], []
    for f in np.unique(fold).tolist():   # observed folds only (a
        # tiny corpus can leave a fold empty; the SQL emits no row)
        m = fold == f
        out_f.append(int(f))
        out_u.append(int(np.unique(uid[m]).size))
        out_e.append(int(n[m].sum()))
        out_s.append(n_straddle)
    return pa.table({
        "fold": pa.array(out_f, pa.int64()),
        "n_users": pa.array(out_u, pa.int64()),
        "n_events": pa.array(out_e, pa.int64()),
        "n_straddle": pa.array(out_s, pa.int64()),
    })


def group_kfold_sql(k: int = KFOLDS) -> str:
    from .sketch import _mix_sql_wide

    mixed = _mix_sql_wide("user_id::HUGEINT")
    return f"""
WITH a AS (
  SELECT user_id, CAST({mixed} % {k} AS BIGINT) AS fold
  FROM events),
per_user AS (
  SELECT user_id, fold, count(*) AS n FROM a GROUP BY 1, 2),
straddle AS (
  SELECT CAST(count(*) AS BIGINT) AS s FROM (
    SELECT user_id FROM per_user GROUP BY user_id
    HAVING count(DISTINCT fold) > 1))
SELECT fold,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(sum(n) AS BIGINT) AS n_events,
       (SELECT s FROM straddle) AS n_straddle
FROM per_user GROUP BY fold ORDER BY fold"""
