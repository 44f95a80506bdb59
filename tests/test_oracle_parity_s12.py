"""Driver-style oracle parity at sf0.001 for round-5 operators — the
same rows/schema/values compare the graft driver runs at sf0.01."""
import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

CASES = [
    "media_wav_frames",
    "lpa_sharded",
    "kcore_sharded",
    "wl_sharded",
    "link_predict_xchg",
    "mis_sharded",
    # correctness-window suites, pinned whole
    "phrase_matches_suite",
    "term_stats_suite",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
    return df.sort_values(by=list(df.columns),
                          kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", CASES)
def test_oracle_parity(ray_session, con, name):
    import __ray_entry__ as e

    got = e.queries()[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    want = con.execute(e.oracle_sql()[name]).df()
    got, want = _norm(got), _norm(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-7,
                                  atol=1e-9)


def test_wav_codec_roundtrip():
    """The stdlib WAV codec seam: encode -> real RIFF container ->
    decode recovers the exact sample bytes; the container is a valid
    WAVE file (magic bytes) and not the raw samples."""
    from rayse.ops.multimodal import wav_decode_pcm8, wav_encode_pcm8

    s = np.arange(256, dtype=np.uint8)
    payload = wav_encode_pcm8(s, sample_rate=8000)
    assert payload[:4] == b"RIFF" and payload[8:12] == b"WAVE"
    assert len(payload) > s.size          # header on top of the data
    back = wav_decode_pcm8(payload)
    assert np.array_equal(back, s)


def test_wav_stage_matches_pcm_stage(ray_session, tmp_path):
    """media_wav_frames (real codec round-trip inside the actor pool)
    is row-identical to media_audio_frames (raw PCM) — the decode seam
    changes the payload format, never the DSP result. Both take the
    text's UTF-8 bytes, so a corpus of non-ASCII documents frames alike
    too."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayse.ops.multimodal import media_audio_frames, media_wav_frames

    texts = ["naïve café " * 40, "日本語のテキスト " * 30,
             "emoji 🙂 and ümlauts " * 20, "plain ascii text " * 20]
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)),
                                                pa.int64()),
                             "text": texts}),
                   tmp_path / "documents.parquet")
    for sf in (SF, str(tmp_path)):
        a = media_audio_frames(sf).to_pandas() \
            .sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
        b = media_wav_frames(sf).to_pandas() \
            .sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0, sf


def test_feature_extract_real_audio_codec(ray_session):
    """FeatureExtractStage(use_real_codecs=True) decodes REAL WAV audio
    payloads through the stdlib codec; features equal the projection of
    the centered samples."""
    import pyarrow as pa

    from rayse.ops.multimodal import (FeatureExtractStage,
                                      wav_encode_pcm8)

    rng = np.random.default_rng(3)
    samples = rng.integers(0, 256, size=300, dtype=np.uint8)
    batch = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "kind": pa.array(["audio"], pa.string()),
        "payload": pa.array([wav_encode_pcm8(samples)], pa.binary()),
    })
    stage = FeatureExtractStage(use_real_codecs=True)
    out = stage(batch)
    sig = samples[:256].astype(np.float64) - 128.0
    want = sig @ stage.proj
    got = np.asarray(out["feature"].to_pylist()[0])
    assert np.allclose(got, want)
    # image kind remains the declared seam
    img = pa.table({
        "media_id": pa.array([2], pa.int64()),
        "kind": pa.array(["image"], pa.string()),
        "payload": pa.array([b"\x00" * 64], pa.binary()),
    })
    with pytest.raises(NotImplementedError):
        stage(img)
