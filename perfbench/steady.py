"""Steadiness check: run workloads on distinct seeds and compare spreads.

    python3 perfbench/steady.py --workload query --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --sets 2
    python3 perfbench/steady.py --workload ingest --trace-check

For each end-to-end metric of ``BENCHMARK.json`` it prints the median of
the runs and the spread of each set, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, against the metric's bound. With ``--sets 2`` it runs a second
set of seeds and reports how much worse each median got, and whether the
share of failed operations is identical. ``--trace-check`` runs one seed with
and without tracing, checks that the traced run reports every per-layer
metric and that both answered the first query rounds identically.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result plus the answer digest and
    wall seconds. Raises when the run fails."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {p.returncode}:\n"
                           + p.stderr[-2000:])
    out = json.loads(p.stdout.strip().splitlines()[-1])
    digest = [ln.rsplit(" ", 1)[-1] for ln in p.stderr.splitlines()
              if ln.startswith("query stream:")]
    out["digest"] = digest[-1] if digest else None
    out["wall_s"] = wall
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(spec, workload: str, seeds: list[int]) -> list[dict]:
    runs = []
    for s in seeds:
        r = run_once(workload, s, spec["run_seconds"], 0)
        runs.append(r)
        share = r["failed"] / r["attempted"]
        print(f"  {workload} seed {s}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"({share:.4f}) in {r['wall_s']:.0f} s", flush=True)
    return runs


def report(spec, workload: str, sets: list[list[dict]]) -> bool:
    """Every spread of every set within its bound, except that of
    ``setup_s``: set-up is timed a few times per run, so its spread is
    shown but held only through its median, like every other metric's."""
    ok = True
    print(f"\n{workload}: {len(sets[0])} runs per set")
    print(f"  {'metric':20s} {'median':>12s} {'spreads':>14s} {'bound':>6s}"
          + ("  {:>8s}".format("worse") if len(sets) > 1 else ""))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, sps = [], []
        for runs in sets:
            vals = [r["metrics"][name]["value"] for r in runs]
            meds.append(statistics.median(vals))
            sps.append(spread(vals))
        flag = "" if max(sps) <= bound / 3 else (
            " (above a third of the bound)" if max(sps) <= bound
            else " (above the bound; not held for set-up)"
            if name == "setup_s" else " (ABOVE THE BOUND)")
        if max(sps) > bound and name != "setup_s":
            ok = False
        line = (f"  {name:20s} {meds[0]:12.4f} "
                f"{' '.join(f'{x:.3f}' for x in sps):>14s} {bound:6.2f}")
        if len(sets) > 1:
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds[1] - meds[0]) / meds[0]
            line += f"  {worse:+8.3f}"
            if worse > bound:
                ok = False
                flag += " (SECOND SET WORSE THAN BOUND)"
        print(line + flag)
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    print(f"  failed share per set: {[sorted(s) for s in shares]}")
    if len({frozenset(s) for s in shares}) != 1 or len(shares[0]) != 1:
        ok = False
        print("  FAILED SHARE DIFFERS BETWEEN RUNS")
    if not all(r["correct"] for runs in sets for r in runs):
        ok = False
        print("  A RUN REPORTED WRONG ANSWERS")
    return ok


def trace_check(spec, workload: str, seed: int) -> bool:
    plain = run_once(workload, seed, spec["run_seconds"], 0)
    traced = run_once(workload, seed, spec["run_seconds"], 1)
    want = {m["name"] for m in spec["per_layer"]}
    missing = sorted(want - set(traced["metrics"]))
    extra = sorted(set(traced["metrics"]) - want)
    same = plain["digest"] == traced["digest"] and plain["digest"]
    print(f"{workload} seed {seed}: answers traced == untraced: {bool(same)}"
          f" ({plain['digest']} / {traced['digest']}); per-layer missing "
          f"{missing or 'none'}, unlisted {extra or 'none'}")
    for k, v in sorted(traced["metrics"].items()):
        print(f"  {k:36s} {v['value']:14.4f} {v['unit']}")
    return bool(same) and not missing and not extra and traced["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name or 'all'")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--trace-check", action="store_true")
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if args.runs < 4 and not args.trace_check:
        ap.error("--runs must be at least 4 to give quartiles")
    ok = True
    raw = {}
    for w in todo:
        if w not in names:
            ap.error(f"unknown workload {w!r}; BENCHMARK.json has {names}")
        if args.trace_check:
            ok &= trace_check(spec, w, args.first_seed)
            continue
        sets = []
        for i in range(args.sets):
            first = args.first_seed + i * args.runs
            sets.append(run_set(spec, w, list(range(first,
                                                    first + args.runs))))
        ok &= report(spec, w, sets)
        raw[w] = sets
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
