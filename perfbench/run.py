"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload {query,ingest} --seed N \\
        --seconds S --trace {0,1}

Works from any directory. The run itself happens in a child process
(``worker.py``) in a process group of its own, together with the local Ray
it starts; this process only supervises it. When the child has not ended
by its deadline (``deadline_s``), the whole group is killed and the run fails
naming the layer the child was in. Whatever ends, every process of the
group is killed and reaped and the run's scratch files are removed.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "query")
# The work of a run grows with --seconds by about two seconds per second
# on one CPU; build, ingest and Ray start take about a minute.
DEADLINE_BASE_S = 140
DEADLINE_PER_S = 4
_PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1 to 60")
    if args.seed < 0:
        ap.error("--seed must not be negative")
    return args


def deadline_s(seconds: int) -> int:
    return DEADLINE_BASE_S + DEADLINE_PER_S * seconds


def _become_subreaper() -> None:
    """Orphaned grandchildren (Ray's daemons and workers) are re-parented
    to this process, so it can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_group(pgid: int, wait_s: float = 15.0) -> None:
    """Kill every process of the group and reap this process's children."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        if sig == signal.SIGTERM:
            time.sleep(0.5)
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def _read(path: str, default: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip() or default
    except OSError:
        return default


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "rayse")):
        print(f"no rayse package next to {HERE}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RAY_")}
    env["PYTHONPATH"] = ROOT + os.pathsep + HERE
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    _become_subreaper()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    code = 1
    deadline = deadline_s(args.seconds)
    try:
        out, _ = proc.communicate(timeout=deadline)
        code = proc.returncode
        if code == 0:
            lines = out.decode().strip().splitlines()
            print("\n".join(lines), flush=True)
        else:
            print(f"run failed (exit {code}) in layer "
                  f"{_read(os.path.join(work, 'layer'), 'start-up')}",
                  file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"run stopped after {deadline}s: stuck in layer "
              f"{_read(os.path.join(work, 'layer'), 'start-up')}",
              file=sys.stderr)
        code = 3
    finally:
        _stop_group(proc.pid)
        ray_tmp = _read(os.path.join(work, "ray_tmp"), "")
        if ray_tmp and not ray_tmp.startswith(work):
            shutil.rmtree(ray_tmp, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
    return code if code else 0


if __name__ == "__main__":
    sys.exit(main())
