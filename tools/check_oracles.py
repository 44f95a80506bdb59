"""Local driver-style correctness harness: run queries() vs oracle_sql()
at sf0.01 (override with ORACLE_SF=/root/testdata/sf0.1 to sweep at a
10x corpus — catches bounds that only bind at scale: broadcast limits,
32-bit packs, count-routing flips), compare rows/schema/values (columns
sorted by name, rows sorted)."""
import os, sys, json, hashlib, time
# check the code of the checkout this script sits in, in this process and
# on the Ray workers (which import rayse from PYTHONPATH)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
import ray, duckdb, pandas as pd, numpy as np, pyarrow as pa

SF = os.environ.get("ORACLE_SF", "/root/testdata/sf0.01")
N_CPUS = int(os.environ.get("ORACLE_CPUS", "16"))
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

def to_pandas(x):
    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x.to_pandas()  # ray Dataset

def norm(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("int64")
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df

def main():
    only = sys.argv[1:] if len(sys.argv) > 1 else None
    ray.init(address="local", num_cpus=N_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import __ray_entry__ as e
    qs, os_ = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    results = {}
    names = [k for k in qs if k in os_]
    if only:
        names = [k for k in names if k in only]
    t_start = time.time()
    for i, k in enumerate(names):
        t0 = time.time()
        try:
            r = norm(to_pandas(qs[k](SF)))
            o = norm(con.execute(os_[k]).df())
            rows = len(r) == len(o)
            schema = list(r.columns) == list(o.columns)
            if rows and schema:
                try:
                    pd.testing.assert_frame_equal(r, o, check_dtype=False,
                                                  check_exact=False, rtol=1e-7, atol=1e-9)
                    hm = True
                except AssertionError as ex:
                    hm = False
            else:
                hm = False
            results[k] = {"rows": rows, "schema": schema, "hash": hm,
                          "n": len(r), "on": len(o), "sec": round(time.time()-t0, 1)}
            tag = "OK " if (rows and schema and hm) else "FAIL"
            print(f"[{i+1}/{len(names)}] {tag} {k} n={len(r)} oracle={len(o)} "
                  f"{results[k]['sec']}s", flush=True)
            if not (rows and schema and hm):
                print(f"   ray cols={list(r.columns)}", flush=True)
                print(f"   ora cols={list(o.columns)}", flush=True)
        except Exception as ex:
            results[k] = {"err": repr(ex)[:300]}
            print(f"[{i+1}/{len(names)}] ERR {k}: {repr(ex)[:300]}", flush=True)
    bad = {k: v for k, v in results.items()
           if v.get("err") or not (v.get("rows") and v.get("schema") and v.get("hash"))}
    print(f"\nTOTAL {len(names)} checked in {time.time()-t_start:.0f}s, "
          f"{len(bad)} bad: {list(bad)}", flush=True)
    json.dump(results, open(os.environ.get("ORACLE_OUT", "/tmp/check_oracles.json"), "w"), indent=1)
    ray.shutdown()

if __name__ == "__main__":
    main()
