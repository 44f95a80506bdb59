"""Edge-case hardening: empty/unicode/null text, empty corpus behaviors,
CLI surface."""

import numpy as np
import pyarrow as pa


from rayse.analyzer import analyze, tokenize
from rayse.corpus.generator import TRANSCRIPTS_SCHEMA
from rayse.stages.tokenize import TokenizeStage


def _turns(rows):
    conv, turn, text = zip(*rows)
    n = len(rows)
    return pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(np.asarray(turn, dtype=np.int32)),
        "role": pa.array(["user"] * n, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array([""] * n, pa.string()),
        "ts": pa.array(np.zeros(n, dtype="int64").view("datetime64[us]")),
    }, schema=TRANSCRIPTS_SCHEMA)


def test_analyzer_edge_inputs():
    assert analyze("") == []
    assert analyze("   \n\t  ") == []
    assert analyze("!!! ??? ***") == []
    # unicode: lowercasing applies, non-ascii letters are not in [a-z0-9_]
    # token classes so they split tokens (the reference regex is ASCII too,
    # `PreIndexer.java:106-112`)
    assert tokenize("café résumé") == ["caf", "r", "sum"]
    assert analyze("CAFÉ tokenization") == ["caf", "token"]


def test_tokenize_stage_null_and_empty_text():
    t = _turns([("c-1", 0, None), ("c-1", 1, ""), ("c-1", 2, "hello world")])
    out = TokenizeStage()(t)
    # only the non-empty turn emits postings ("world" is a stopword)
    assert out.num_rows == 1
    assert out["term"][0].as_py() == "hello"
    assert out["df"][0].as_py() == 1


def test_tokenize_stage_all_empty_batch():
    t = _turns([("c-2", 0, ""), ("c-2", 1, "the of and")])
    out = TokenizeStage()(t)
    assert out.num_rows == 0


def test_build_with_empty_turns(ray_session, tmp_path):
    """Docs with zero tokens still count toward N (the reference counts all
    documents, `IndexerService.java:1014-1020`)."""
    import pyarrow.parquet as pq

    from rayse.pipelines.build_index import build_index
    from rayse.query.engine import SearchEngine

    src = tmp_path / "corpus"
    src.mkdir()
    pq.write_table(_turns([("c-1", 0, "alpha beta"), ("c-1", 1, ""),
                           ("c-2", 0, "alpha gamma")]),
                   str(src / "t.parquet"))
    out = tmp_path / "idx"
    res = build_index(str(src), str(out), merge_concurrency=2)
    assert res.n_docs == 3          # includes the empty turn
    eng = SearchEngine(str(out))
    assert eng.reader.n_docs == 3
    d, s = eng.search("alpha")
    assert d.size == 2


def test_cli_build_query_stats(ray_session, tmp_path, capsys):
    import pyarrow.parquet as pq

    from rayse.cli import main

    src = tmp_path / "c"
    src.mkdir()
    pq.write_table(_turns([("c-1", 0, "alpha beta gamma"),
                           ("c-2", 0, "alpha delta")]),
                   str(src / "t.parquet"))
    idx = tmp_path / "i"
    assert main(["build", "--input", str(src), "--out", str(idx),
                 "--part-bits", "4"]) == 0
    out1 = capsys.readouterr().out
    assert '"n_docs": 2' in out1
    assert main(["query", "--index", str(idx), "--query", "alpha"]) == 0
    out2 = capsys.readouterr().out
    assert out2.count('"doc_id"') == 2
    assert main(["query", "--index", str(idx), "--query", "alpha",
                 "--transcripts", str(src), "--k", "1"]) == 0
    out3 = capsys.readouterr().out
    assert '"snippet"' in out3
    assert main(["stats", "--index", str(idx)]) == 0
    assert '"n_docs"' in capsys.readouterr().out


def test_cli_build_default_part_bits_is_config_default(ray_session, tmp_path,
                                                      capsys):
    """``rayse build`` without ``--part-bits`` builds the same partitioning
    as ``build_index`` with the default config, so the two indexes merge."""
    import pyarrow.parquet as pq

    from rayse.cli import main
    from rayse.config import IndexConfig
    from rayse.index.stats import load_index_meta

    src = tmp_path / "c"
    src.mkdir()
    pq.write_table(_turns([("c-1", 0, "alpha beta gamma")]),
                   str(src / "t.parquet"))
    idx = tmp_path / "i"
    assert main(["build", "--input", str(src), "--out", str(idx)]) == 0
    capsys.readouterr()
    assert load_index_meta(str(idx))["part_bits"] == IndexConfig().part_bits


def test_cli_ops_subcommands(ray_session, tmp_path, capsys):
    """sample / spans / dedup CLI entry points over the sf0.001 tables."""
    import json as _json

    from rayse.cli import main

    sf = "/root/testdata/sf0.001"
    assert main(["sample", "--input", sf,
                 "--out", str(tmp_path / "s"), "--rate", "20"]) == 0
    r = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < r["kept_rows"] < 500
    assert main(["sample", "--input", sf, "--out", str(tmp_path / "ss"),
                 "--stratified", "--rates", "en=50"]) == 0
    r2 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["kept_rows"] > r["kept_rows"]    # en majority at 50% > 20%
    assert main(["spans", "--input", sf,
                 "--out", str(tmp_path / "sp"), "--per-doc"]) == 0
    r3 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r3["rows"] > 0
    assert main(["dedup", "--input", sf,
                 "--out", str(tmp_path / "dd")]) == 0
    r4 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < r4["kept_rows"] <= 500


def test_cli_analyze(capsys):
    """query-analysis subcommand prints the parse as JSON."""
    import json as _json

    from rayse.cli import main

    assert main(["analyze", "--query",
                 '"table scan" AND "hash join"']) == 0
    out = _json.loads(capsys.readouterr().out)
    assert out["kind"] == "boolean" and out["operator"] == "AND"
    assert out["phrases"] == ["tabl scan", "hash join"]

    assert main(["analyze", "--query", "the us table scan"]) == 0
    out = _json.loads(capsys.readouterr().out)
    assert out["kind"] == "regular"
    assert "us" in out["stemmedWords"]
    assert "the" not in out["stemmedWords"]
