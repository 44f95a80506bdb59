"""Multi-format transcript sources + IVF ANN."""

import json

import pyarrow as pa



def _sample_rows():
    return [
        {"conv_id": "c-1", "turn_idx": 0, "role": "user",
         "text": "alpha beta gamma", "tool": "", "ts": 1_700_000_000_000_000},
        {"conv_id": "c-1", "turn_idx": 1, "role": "assistant",
         "text": "delta alpha", "tool": "", "ts": 1_700_000_000_100_000},
    ]


def test_read_jsonl(ray_session, tmp_path):
    from rayse.sources import read_transcripts

    p = tmp_path / "t.jsonl"
    with open(p, "w") as f:
        for r in _sample_rows():
            f.write(json.dumps(r) + "\n")
    ds = read_transcripts(str(p))
    rows = ds.take_all()
    assert len(rows) == 2
    assert rows[0]["conv_id"] == "c-1"
    assert rows[0]["text"] == "alpha beta gamma"


def test_read_csv_with_defaults(ray_session, tmp_path):
    from rayse.sources import read_transcripts

    p = tmp_path / "t.csv"
    with open(p, "w") as f:
        f.write("conv_id,turn_idx,text\n")
        f.write("c-9,0,hello there general\n")
    ds = read_transcripts(str(p))
    rows = ds.take_all()
    assert rows[0]["role"] == "user"       # defaulted
    assert rows[0]["tool"] == ""


def test_jsonl_corpus_builds_and_queries(ray_session, tmp_path):
    """A JSONL corpus goes through the exact same build + query pipeline."""
    from rayse.pipelines.build_index import build_index
    from rayse.query.engine import SearchEngine
    from rayse.sources import read_transcripts

    src = tmp_path / "jsonl"
    src.mkdir()
    with open(src / "t.jsonl", "w") as f:
        for r in _sample_rows():
            f.write(json.dumps(r) + "\n")
    # normalize to parquet first (build_index reads parquet shards — the
    # canonical scale path), exercising the JSONL reader end-to-end
    norm = tmp_path / "norm"
    read_transcripts(str(src / "t.jsonl")).write_parquet(str(norm))
    out = tmp_path / "idx"
    res = build_index(str(norm), str(out), merge_concurrency=2)
    assert res.n_docs == 2
    eng = SearchEngine(str(out))
    d, s = eng.search("alpha")
    assert d.size == 2


def test_ann_ivf_recall(ray_session):
    from rayse.ops.similarity import ann_ivf_topk, ann_topk

    SF = "/root/testdata/sf0.001"
    exact = ann_topk(SF, n_queries=5, k=10).to_pylist()
    approx = ann_ivf_topk(SF, n_queries=5, k=10, n_lists=8,
                          n_probe=4).to_pylist()
    ex_by_q: dict[int, set] = {}
    ap_by_q: dict[int, set] = {}
    for r in exact:
        ex_by_q.setdefault(r["q_id"], set()).add(r["vec_id"])
    for r in approx:
        ap_by_q.setdefault(r["q_id"], set()).add(r["vec_id"])
    for q, want in ex_by_q.items():
        got = ap_by_q.get(q, set())
        assert q in got                      # self-match always found
        assert len(got & want) >= 5          # probing half the lists

    # determinism
    again = ann_ivf_topk(SF, n_queries=5, k=10, n_lists=8,
                         n_probe=4).to_pylist()
    assert approx == again
