"""Partition-count invariance for the new exchange-based ops: results
must be byte-identical regardless of how the exchange shards keys
(the distributed-correctness contract every exchange op relies on)."""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _frame(t):
    df = t.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_interval_coverage_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.intervals import interval_coverage

    base = _frame(interval_coverage(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(interval_coverage(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_frequent_pairs_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.basket import frequent_pairs

    base = _frame(frequent_pairs(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(frequent_pairs(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_markov_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.seqmine import markov_transitions

    base = _frame(markov_transitions(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(markov_transitions(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_dedup_report_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.dedupreport import dedup_report

    base = _frame(dedup_report(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(dedup_report(SF))
    pd.testing.assert_frame_equal(base, got)


def test_reciprocity_invariant(ray_session, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.graph import edge_reciprocity

    base = _frame(edge_reciprocity(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: 3)
    got = _frame(edge_reciprocity(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_fk_discovery_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.fkdiscover import fk_discovery

    base = _frame(fk_discovery(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(fk_discovery(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_link_predict_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.graph import link_predict

    base = _frame(link_predict(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(link_predict(SF))
    pd.testing.assert_frame_equal(base, got)


@pytest.mark.parametrize("n_parts", [1, 7])
def test_twap_daily_invariant(ray_session, n_parts, monkeypatch):
    import rayse.ops.exchange as ex
    from rayse.ops.windows import twap_daily

    base = _frame(twap_daily(SF))
    monkeypatch.setattr(ex, "default_parts", lambda: n_parts)
    got = _frame(twap_daily(SF))
    pd.testing.assert_frame_equal(base, got)
