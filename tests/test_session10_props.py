"""Property-based pins for numeric kernels: truncating division parity
and Hilbert bijectivity, plus the CLI ops registry error paths."""
import subprocess
import sys
from pathlib import Path

import duckdb
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

REPO = Path(__file__).resolve().parent.parent


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 17, 10 ** 17), st.integers(2, 1000))
def test_trunc_div_matches_duckdb(a, d):
    from rayse.ops.bursts import _trunc_div

    con = duckdb.connect()
    want = con.execute(
        f"SELECT CAST({a} AS BIGINT) // CAST({d} AS BIGINT)"
    ).fetchone()[0]
    assert _trunc_div(a, d) == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, (1 << 20) - 1), min_size=2, max_size=40),
       st.lists(st.integers(0, (1 << 20) - 1), min_size=2, max_size=40))
def test_hilbert_injective_on_distinct_points(xs, ys):
    from rayse.ops.hilbert import hilbert_d

    n = min(len(xs), len(ys))
    pts = {(x, y) for x, y in zip(xs[:n], ys[:n])}
    xa = np.array([p[0] for p in pts], np.int64)
    ya = np.array([p[1] for p in pts], np.int64)
    d = hilbert_d(xa, ya)
    assert len(set(d.tolist())) == len(pts)


def test_cli_ops_list_and_unknown():
    out = subprocess.run(
        [sys.executable, "-m", "rayse.cli", "ops", "--list"],
        capture_output=True, text=True, cwd=REPO)
    assert out.returncode == 0
    names = out.stdout.split()
    assert "dedup_exact" in names and "hilbert_rank" in names
    bad = subprocess.run(
        [sys.executable, "-m", "rayse.cli", "ops", "no_such_op"],
        capture_output=True, text=True, cwd=REPO)
    assert bad.returncode == 2
