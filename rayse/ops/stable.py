"""Stable matching by Gale–Shapley (1962) — the deferred-acceptance
classic, as the assignment operator (match suppliers to customers
under deterministic pseudo-preferences): supplier s ranks customer c
by (mix(s·1000003 + c), c) ascending, customers rank suppliers by
(mix(c·999983 + s), s). The PARALLEL proposal rounds (every free
supplier proposes at once; every customer keeps her best offer) reach
the same supplier-optimal stable matching as the sequential version —
the classical lattice result, so the SQL replay of the rounds and the
Ray rounds must agree exactly, and pytest asserts NO BLOCKING PAIR
outright (the stability theorem checked, not assumed).

State per round: (supplier, ptr, engaged_to) — ptr counts customers
who have rejected him. Ray side: players are a bounded head (8×8);
the preference evaluations are row-local mix() calls, so at scale the
same rounds run over a broadcast state vector with proposals scored
per batch — the bounded-head pin keeps the oracle exact.

Reference relationship: none (assignment/matching family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import _mix

SM_N = 8
_PA, _PB = 1000003, 999983


def _mix1(x: int) -> int:
    return int(_mix(np.asarray([x], np.uint64))[0])


def stable_matching(sf_dir: str, n: int = SM_N) -> pa.Table:
    """(s_suppkey, c_custkey): the supplier-optimal stable matching of
    the ``n`` smallest suppliers and customers — DuckDB
    hash-matched."""
    import pyarrow.dataset as pads

    sk = np.sort(pads.dataset(f"{sf_dir}/supplier.parquet")
                 .to_table(columns=["s_suppkey"])["s_suppkey"]
                 .to_numpy(zero_copy_only=False))[:n].astype(np.int64)
    ck = np.sort(pads.dataset(f"{sf_dir}/customer.parquet")
                 .to_table(columns=["c_custkey"])["c_custkey"]
                 .to_numpy(zero_copy_only=False))[:n].astype(np.int64)

    def s_pref(s: int) -> list[int]:
        return sorted(ck.tolist(),
                      key=lambda c: (_mix1(s * _PA + c), c))

    def c_rank(c: int, s: int) -> tuple:
        return (_mix1(c * _PB + s), s)

    prefs = {int(s): s_pref(int(s)) for s in sk.tolist()}
    ptr = {int(s): 0 for s in sk.tolist()}
    eng_of_s = {int(s): -1 for s in sk.tolist()}
    eng_of_c: dict[int, int] = {}
    while True:
        proposals: dict[int, list[int]] = {}
        for s in sk.tolist():
            s = int(s)
            if eng_of_s[s] < 0 and ptr[s] < n:
                proposals.setdefault(prefs[s][ptr[s]], []).append(s)
        if not proposals:
            break
        for c, props in proposals.items():
            cands = list(props)
            if c in eng_of_c:
                cands.append(eng_of_c[c])
            best = min(cands, key=lambda s: c_rank(c, s))
            for s in cands:
                if s == best:
                    eng_of_s[s] = c
                    eng_of_c[c] = s
                else:
                    eng_of_s[s] = -1
                    ptr[s] += 1
    out_s = sorted(eng_of_s)
    return pa.table({
        "s_suppkey": pa.array(out_s, pa.int64()),
        "c_custkey": pa.array([eng_of_s[s] for s in out_s],
                              pa.int64()),
    })


def stable_matching_sql(n: int = SM_N) -> str:
    from .sketch import _mix_sql_wide

    sp = _mix_sql_wide(f"(m.s * {_PA} + cc.c)::HUGEINT")
    cr_new = _mix_sql_wide(f"(p.c * {_PB} + p.s)::HUGEINT")
    return f"""
WITH RECURSIVE
sups AS (SELECT s_suppkey AS s FROM supplier ORDER BY s LIMIT {n}),
custs AS (SELECT c_custkey AS c FROM customer ORDER BY c LIMIT {n}),
pref AS (
  SELECT m.s, cc.c,
         row_number() OVER (PARTITION BY m.s
                            ORDER BY {sp}, cc.c) - 1 AS rk
  FROM sups m CROSS JOIN custs cc),
st(s, ptr, eng) AS (
  SELECT s, CAST(0 AS BIGINT), CAST(-1 AS BIGINT) FROM sups
  UNION ALL
  SELECT * FROM (
    WITH prev AS (SELECT * FROM st),
    props AS (
      SELECT p.s, pf.c
      FROM prev p JOIN pref pf ON pf.s = p.s AND pf.rk = p.ptr
      WHERE p.eng < 0 AND p.ptr < {n}),
    cands AS (
      SELECT c, s FROM props p
      UNION ALL
      SELECT p.eng AS c, p.s FROM prev p WHERE p.eng >= 0),
    best AS (
      SELECT c, s FROM (
        SELECT p.c, p.s,
               row_number() OVER (PARTITION BY p.c
                                  ORDER BY {cr_new}, p.s) AS rn
        FROM cands p) WHERE rn = 1)
    SELECT p.s,
           CASE WHEN (p.eng >= 0 OR EXISTS (
                        SELECT 1 FROM props pr WHERE pr.s = p.s))
                     AND NOT EXISTS (SELECT 1 FROM best b
                                     WHERE b.s = p.s)
                THEN p.ptr + 1 ELSE p.ptr END AS ptr,
           coalesce((SELECT b.c FROM best b WHERE b.s = p.s),
                    CAST(-1 AS BIGINT)) AS eng
    FROM prev p
    WHERE EXISTS (SELECT 1 FROM props)))
SELECT s AS s_suppkey, CAST(max(eng) AS BIGINT) AS c_custkey
FROM (
  SELECT s, eng,
         row_number() OVER (PARTITION BY s
                            ORDER BY ptr DESC, eng DESC) AS rn,
         max(ptr) OVER (PARTITION BY s) AS mp
  FROM st)
WHERE rn = 1
GROUP BY s ORDER BY s"""
