"""Composition of the driver's correctness window: the first 50
oracle-backed ``queries()`` entries hash-check the relational registry
arms (``_REL_MELT_ARMS`` / ``_REL_SPECIAL_ARMS``) once each, so no arm
costs window time twice."""

import inspect
from collections import Counter

WINDOW = 50


def _arm_of_builder(e) -> dict:
    """Maps each ``_q_`` function an arm is built from to the arm's tag.
    A special arm wraps its ``_q_`` function (the metric arms hold it as
    a closure variable, ``qpp`` calls it by name)."""
    arm = {qfn: tag for tag, (qfn, *_rest) in e._REL_MELT_ARMS.items()}
    for tag, (build, _sql) in e._REL_SPECIAL_ARMS.items():
        cv = inspect.getclosurevars(build)
        for v in (*cv.nonlocals.values(), *cv.globals.values()):
            if callable(v) and getattr(v, "__name__", "").startswith("_q_"):
                arm[v] = tag
    return arm


def _suites_run(e, fn, monkeypatch) -> list:
    """The themed suites a window entry runs, recorded by calling it with
    ``_rel_suite_table`` stubbed out."""
    import pyarrow as pa

    ran = []
    monkeypatch.setattr(e, "_rel_suite_table",
                        lambda sf_dir, suite: ran.append(suite)
                        or pa.table({}))
    fn("unused-sf")
    return ran


def test_window_runs_each_registry_arm_at_most_once(monkeypatch):
    import __ray_entry__ as e

    oracles = e.oracle_sql()
    window = [(name, fn) for name, fn in e.queries().items()
              if name in oracles][:WINDOW]
    assert len(window) == WINDOW
    arm = _arm_of_builder(e)
    runs = Counter()
    for name, fn in window:
        if "_rel_suite_table" in inspect.getsource(fn):
            for suite in _suites_run(e, fn, monkeypatch):
                runs.update(e._REL_SUITE_TAGS[suite])
        elif fn in arm:
            runs[arm[fn]] += 1
    assert runs, "no registry arm in the window"
    twice = {tag: n for tag, n in runs.items() if n > 1}
    assert not twice, twice
