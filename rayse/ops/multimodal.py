"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata.

The container has no image/audio codecs, so the DECODE kernels are stubbed
(deterministic fake or ``NotImplementedError``), but the Ray-side plumbing —
schema, actor-pool stage signature, batch sizing, output layout — is real
and tested (task brief: multimodal columns).

Media table schema::

    media_id: int64, kind: string ('image'|'audio'), payload: binary,
    width: int32, height: int32, sample_rate: int32, n_frames: int32

Large-payload guidance baked into the wrappers: small ``batch_size`` (64)
so batch x concurrency stays within worker heaps, ``batch_format="pyarrow"``
(binary columns round-trip zero-copy through Arrow; pandas would coerce to
object dtype).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),
    ("payload", pa.binary()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),
    ("n_frames", pa.int32()),
])

FEATURE_DIM = 16


def synth_media_table(n: int, seed: int = 7) -> pa.Table:
    """Deterministic fake media rows (payload = seeded bytes)."""
    rng = np.random.default_rng(seed)
    kinds = ["image" if i % 2 == 0 else "audio" for i in range(n)]
    payloads = [rng.integers(0, 256, size=int(rng.integers(256, 2048)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "kind": pa.array(kinds, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array([64 + (i % 4) * 32 if k == "image" else 0
                           for i, k in enumerate(kinds)], pa.int32()),
        "height": pa.array([64 if k == "image" else 0 for k in kinds],
                           pa.int32()),
        "sample_rate": pa.array([16000 if k == "audio" else 0 for k in kinds],
                                pa.int32()),
        "n_frames": pa.array([1 if k == "image" else 16000 for k in kinds],
                             pa.int32()),
    }, schema=MEDIA_SCHEMA)


def wav_encode_pcm8(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """Encode mono 8-bit PCM samples into a REAL RIFF/WAVE container
    (stdlib ``wave`` — a genuine public codec, no external libs)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(sample_rate)
        w.writeframes(np.ascontiguousarray(
            samples, dtype=np.uint8).tobytes())
    return buf.getvalue()


def wav_decode_pcm8(payload: bytes) -> np.ndarray:
    """Decode a mono 8-bit-PCM WAV container back to its uint8 samples —
    the REAL audio half of the decode seam (parses the actual RIFF
    header/chunks via stdlib ``wave``)."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        if w.getsampwidth() != 1 or w.getnchannels() != 1:
            raise ValueError("wav_decode_pcm8 handles mono 8-bit PCM only")
        return np.frombuffer(w.readframes(w.getnframes()), np.uint8)


def _decode_real(payload: bytes, kind: str):
    """The real decode seam. Audio: stdlib WAV/PCM is a real codec and
    IS implemented (``wav_decode_pcm8`` -> centered float signal, padded
    or truncated to the 256-sample encoder input). Images: no codec lib
    in this container -> still a declared NotImplementedError seam."""
    if kind == "audio":
        s = wav_decode_pcm8(payload).astype(np.float64) - 128.0
        if s.size >= 256:
            return s[:256]
        out = np.zeros(256, dtype=np.float64)
        out[:s.size] = s
        return out
    raise NotImplementedError(
        "image codecs are not available in this environment; "
        "FeatureExtractStage uses the deterministic fake decoder")


def _decode_fake(payload: bytes, kind: str) -> np.ndarray:
    """Deterministic stand-in decoder: digest-seeded pseudo-signal, so the
    full pipeline (schema in -> features out) is testable end-to-end."""
    seed = int.from_bytes(hashlib.sha1(payload).digest()[:4], "big")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(256)


class FeatureExtractStage:
    """Actor-pool stage: decode payload -> fixed-dim feature vector.

    __init__ = model load (here: a fixed seeded projection matrix, standing
    in for an image/audio encoder loaded once per actor)."""

    def __init__(self, use_real_codecs: bool = False, seed: int = 11):
        rng = np.random.default_rng(seed)
        self.proj = rng.standard_normal((256, FEATURE_DIM)) / 16.0
        self.decode = _decode_real if use_real_codecs else _decode_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.empty((len(batch), FEATURE_DIM), dtype=np.float64)
        for i, (p, k) in enumerate(zip(batch["payload"].to_pylist(),
                                       batch["kind"].to_pylist())):
            sig = self.decode(p, k)
            feats[i] = sig @ self.proj
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "feature": pa.array([f.tolist() for f in feats],
                                pa.list_(pa.float64())),
        })


class FrameSampleStage:
    """Actor-pool stage: sample K evenly spaced 'frames' (byte windows) per
    payload — the video/audio frame-sampling layout with one output row per
    (media, frame)."""

    def __init__(self, n_samples: int = 4, window: int = 64):
        self.n_samples = n_samples
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, frames = [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            n = max(1, len(p) - self.window)
            offs = np.linspace(0, n, self.n_samples, dtype=np.int64)
            for j, o in enumerate(offs.tolist()):
                ids.append(mid)
                fidx.append(j)
                frames.append(p[o:o + self.window])
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(fidx, pa.int32()),
            "frame": pa.array(frames, pa.binary()),
        })


def media_features(media_ds, concurrency: int | None = None):
    """documents-of-media -> features, with large-payload batch sizing."""
    if concurrency is None:
        import ray
        # scale with cluster CPUs (floor-capped only; a hard min(4, ...) cap
        # starved 32-CPU runs at 4-way)
        concurrency = max(1, int(ray.cluster_resources().get("CPU", 2)) - 1)
    return media_ds.map_batches(
        FeatureExtractStage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=64, concurrency=concurrency)


def media_frames_from_documents(sf_dir: str, n_samples: int = 4,
                                window: int = 64):
    """Frame sampling under a HARD oracle: payloads derived from the ascii
    ``documents.text`` bytes (instead of rng bytes), so the byte-window
    frames the stage emits are exactly expressible as DuckDB ``substr``
    over the text — flipping the multimodal plumbing from rows-only to a
    hash-matched signal. Returns (media_id, frame_idx, frame_text)."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["media_id"]
            if "media_id" in batch.column_names else batch["doc_id"],
            "payload": pc.cast(batch["text"], pa.binary()),
        })

    frames = media_frames(ds.map_batches(to_media, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          n_samples=n_samples)

    def decode(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["media_id"],
            "frame_idx": batch["frame_idx"],
            "frame_text": pc.cast(batch["frame"], pa.string()),
        })

    return frames.map_batches(decode, batch_format="pyarrow",
                              zero_copy_batch=True)


def media_frames_sql(n_samples: int = 4, window: int = 64) -> str:
    """DuckDB oracle for ``media_frames_from_documents``. Mirrors numpy's
    ``linspace(0, n, k).astype(int64)`` offset semantics exactly: step is
    the float64 quotient ``n / (k-1)``, interior offsets are
    ``trunc(j * step)`` (identical IEEE ops both sides), and the endpoint
    is set to ``n`` exactly (numpy pins ``y[-1] = stop``)."""
    div = n_samples - 1
    return f"""
WITH d AS (SELECT doc_id, text,
                  greatest(1, length(text) - {window}) AS n
           FROM documents),
offs AS (
  SELECT doc_id, text, CAST(u.j AS INTEGER) AS frame_idx,
         CASE WHEN u.j = {div} THEN n
              ELSE CAST(trunc(CAST(u.j AS DOUBLE)
                              * (CAST(n AS DOUBLE) / {div}.0)) AS BIGINT)
         END AS o
  FROM d, UNNEST(range({n_samples})) u(j))
SELECT doc_id AS media_id, frame_idx,
       substr(text, CAST(o AS INTEGER) + 1, {window}) AS frame_text
FROM offs"""


class ByteFeatureStage:
    """Actor-pool stage: payload -> integer byte-level features (size,
    byte sum, space count, min/max byte). Same decode-seam shape as
    ``FeatureExtractStage`` (__init__ = once-per-actor setup; here the
    identity codec), but the features are pure byte arithmetic, so the
    path carries a HARD oracle instead of a rows-only check. Vectorized:
    all payloads of a batch concatenate into one uint8 buffer, features
    come from reduceat over the offsets — no per-payload Python."""

    def __init__(self):
        self.codec = bytes   # identity decode (the seam)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        lens = np.fromiter((len(p) for p in payloads), np.int64,
                           len(payloads))
        buf = np.frombuffer(b"".join(self.codec(p) for p in payloads),
                            dtype=np.uint8)
        starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        b64 = buf.astype(np.int64)
        return pa.table({
            "media_id": batch["media_id"],
            "n_bytes": pa.array(lens, pa.int64()),
            "byte_sum": pa.array(np.add.reduceat(b64, starts), pa.int64()),
            "n_space": pa.array(np.add.reduceat(
                (buf == 0x20).astype(np.int64), starts), pa.int64()),
            "min_byte": pa.array(np.minimum.reduceat(b64, starts),
                                 pa.int64()),
            "max_byte": pa.array(np.maximum.reduceat(b64, starts),
                                 pa.int64()),
        })


def media_byte_features_from_documents(sf_dir: str,
                                       concurrency: int | None = None):
    """Byte-feature extraction under a HARD oracle: payloads derived from
    the ascii ``documents.text`` bytes (the ``media_frames`` recipe), so
    every feature is expressible as DuckDB character arithmetic."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    if concurrency is None:
        concurrency = max(1, int(ray.cluster_resources().get("CPU", 2)) - 1)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["doc_id"],
            "payload": pc.cast(batch["text"], pa.binary()),
        })

    media = ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
    return media.map_batches(ByteFeatureStage, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=64,
                             concurrency=concurrency)


def media_byte_features_sql() -> str:
    """Oracle for ``media_byte_features_from_documents`` (ascii corpus:
    one byte per character, pinned by test_vocab_closure)."""
    return """
WITH l AS (
  SELECT doc_id, text,
         [ascii(c)::BIGINT FOR c IN string_split(text, '')] AS bs
  FROM documents)
SELECT doc_id AS media_id,
       CAST(length(text) AS BIGINT) AS n_bytes,
       CAST(list_aggregate(bs, 'sum') AS BIGINT) AS byte_sum,
       CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT)
         AS n_space,
       CAST(list_aggregate(bs, 'min') AS BIGINT) AS min_byte,
       CAST(list_aggregate(bs, 'max') AS BIGINT) AS max_byte
FROM l"""


def media_frames(media_ds, concurrency: int | None = None,
                 n_samples: int = 4):
    if concurrency is None:
        import ray
        # scale with cluster CPUs (floor-capped only; a hard min(4, ...) cap
        # starved 32-CPU runs at 4-way)
        concurrency = max(1, int(ray.cluster_resources().get("CPU", 2)) - 1)
    return media_ds.map_batches(
        FrameSampleStage, fn_constructor_kwargs=dict(n_samples=n_samples),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=64, concurrency=concurrency)


DHASH_GRID = 8          # 8x8 cells -> 8 rows x 7 adjacent pairs = 56 bits
DHASH_MIN_LEN = 64


def dhash_batch(batch: pa.Table) -> pa.Table:
    """Difference-hash perceptual fingerprint per payload — the classic
    near-duplicate image signature (aHash/dHash family), computed on the
    FAKE-DECODED byte grid so the whole path is deterministic and
    SQL-checkable (the real-codec seam stays in ``MediaFeatureExtractor``):

        cell(i)   = pos -> (pos * 64) // L      (equal byte ranges)
        grid[c]   = sum(bytes in cell c) // count   (floor mean)
        bit(r,c)  = grid[r*8+c] > grid[r*8+c+1],  c < 7  -> 56-bit hash

    Payloads shorter than 64 bytes are skipped (every cell must be
    non-empty). Vectorized: one frombuffer + reduceat per batch; the
    comparisons are one array op. Hamming distance on the output column
    is the near-dup predicate (`simhash_pairs` banding applies
    unchanged)."""
    ids, hashes = [], []
    for mid, text in zip(batch["media_id"].to_pylist(),
                         batch["payload"].to_pylist()):
        b = np.frombuffer(text, np.uint8) if isinstance(text, bytes) \
            else np.frombuffer(str(text).encode("utf-8"), np.uint8)
        L = b.size
        if L < DHASH_MIN_LEN:
            continue
        n_cells = DHASH_GRID * DHASH_GRID
        cell = (np.arange(L, dtype=np.int64) * n_cells) // L
        starts = np.searchsorted(cell, np.arange(n_cells))
        sums = np.add.reduceat(b.astype(np.int64), starts)
        cnts = np.diff(np.concatenate([starts, [L]]))
        grid = sums // cnts
        g = grid.reshape(DHASH_GRID, DHASH_GRID)
        bits = (g[:, :-1] > g[:, 1:]).astype(np.int64).reshape(-1)
        h = int((bits << np.arange(bits.size, dtype=np.int64)).sum())
        ids.append(mid)
        hashes.append(h)
    return pa.table({"media_id": pa.array(ids, pa.int64()),
                     "dhash": pa.array(hashes, pa.int64())})


def media_dhash_from_documents(sf_dir: str):
    """(media_id, dhash): dHash over the documents-as-payload media table
    (the SQL-matchable route, like ``media_byte_features``) — row-local
    map, no shuffle; DuckDB hash-matched."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["doc_id"],
            "payload": pc.cast(batch["text"], pa.binary())})

    return (ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(dhash_batch, batch_format="pyarrow",
                         batch_size=64))


def media_dhash_sql() -> str:
    """Oracle: identical cell map / floor means / adjacent comparisons
    in long form (ASCII-valid like ``media_byte_features_sql``)."""
    n = DHASH_GRID * DHASH_GRID
    return f"""
WITH m AS (
  SELECT doc_id AS media_id, text, len(text) AS L FROM documents
  WHERE len(text) >= {DHASH_MIN_LEN}),
b AS (
  SELECT media_id, CAST(u.i AS BIGINT) AS pos,
         CAST(ascii(text[CAST(u.i AS INTEGER) + 1]) AS BIGINT) AS byte,
         L
  FROM m, UNNEST(range(L)) u(i)),
c AS (
  SELECT media_id, (pos * {n}) // L AS cell,
         sum(byte) // count(*) AS v
  FROM b GROUP BY 1, 2),
p AS (
  SELECT a.media_id,
         (a.cell // {DHASH_GRID}) * {DHASH_GRID - 1}
           + (a.cell % {DHASH_GRID}) AS bit,
         CASE WHEN a.v > bb.v THEN 1 ELSE 0 END AS bit_on
  FROM c a JOIN c bb
    ON bb.media_id = a.media_id AND bb.cell = a.cell + 1
  WHERE a.cell % {DHASH_GRID} < {DHASH_GRID - 1})
SELECT media_id,
       CAST(sum(bit_on * power(2, bit)::HUGEINT) AS BIGINT) AS dhash
FROM p GROUP BY media_id ORDER BY media_id"""


class DigestStage:
    """Actor-pool stage: binary payload -> SHA-256 content digest.
    Same once-per-actor seam as the codec stages (__init__ builds the
    hasher factory); per batch the digest loop is per-payload C code
    (hashlib releases the GIL on large buffers)."""

    def __init__(self):
        import hashlib

        self._h = hashlib.sha256

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        digs = [self._h(p if isinstance(p, bytes) else bytes(p))
                .hexdigest() for p in payloads]
        pref = [int(d[:15], 16) for d in digs]
        return pa.table({
            "media_id": batch["media_id"],
            "digest": pa.array(digs, pa.string()),
            "dpref": pa.array(pref, pa.int64()),
        })


def media_payload_dedup(sf_dir: str) -> pa.Table:
    """(digest, keep_id, n_copies): exact binary-payload identity
    groups over the documents-derived media payloads — the multimodal
    sibling of ``dedup_exact`` (content digests travel, payloads never
    leave their stage; groups co-locate by ONE exchange on the 60-bit
    digest prefix). DuckDB hash-matched against the built-in sha256
    oracle."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["doc_id"],
            "payload": pc.cast(batch["text"], pa.binary()),
        })

    digs = (ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(DigestStage, concurrency=(1, 4),
                         batch_size=64, batch_format="pyarrow"))

    def partial(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch["digest"].to_pylist(), dtype=object)
        mid = batch["media_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        uk, inv = np.unique(d.astype(str), return_inverse=True)
        keep = np.full(uk.size, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(keep, inv, mid)
        return pa.table({
            "digest": pa.array(uk.tolist(), pa.string()),
            "keep_id": pa.array(keep, pa.int64()),
            "n": pa.array(np.bincount(inv, None, uk.size)
                          .astype(np.int64), pa.int64()),
        })

    agg = (digs.map_batches(partial, batch_format="pyarrow")
           .groupby("digest").aggregate(rd.aggregate.Min("keep_id"),
                                        rd.aggregate.Sum("n")))
    tbl = pa.concat_tables(
        [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows],
        promote_options="default")
    out = pa.table({
        "digest": tbl["digest"],
        "keep_id": pc.cast(tbl["min(keep_id)"], pa.int64()),
        "n_copies": pc.cast(tbl["sum(n)"], pa.int64()),
    })
    return out.sort_by([("digest", "ascending")])


def media_payload_dedup_sql() -> str:
    return """
SELECT sha256(text) AS digest,
       CAST(min(doc_id) AS BIGINT) AS keep_id,
       CAST(count(*) AS BIGINT) AS n_copies
FROM documents
GROUP BY sha256(text)
ORDER BY digest"""


# ---------------------------------------------------------------------------
# Audio framewise DSP features — the audio member of the hard-oracle
# media family (media_frames pins byte-window sampling; this pins the
# SIGNAL-PROCESSING stage): payload bytes read as centered int8 PCM
# (s = byte − 128), split into non-overlapping 32-sample frames, and
# each frame reduced to integer energy Σs² and zero-crossing count
# (adjacent sign(s≥0) flips) — the two classic voice-activity
# features. The stage is an actor pool (DSP state — here the frame
# geometry — prepared once in __init__); frames are dropped unless
# FULL (the streaming framer's boundary rule). ASCII-corpus caveat as
# the other media oracles.
# ---------------------------------------------------------------------------

AUDIO_FRAME = 32
AUDIO_MAX_FRAMES = 4


class AudioFrameStage:
    """Actor-pool stage: payload -> (media_id, frame_idx, energy, zcr)."""

    def __init__(self, frame: int = AUDIO_FRAME,
                 max_frames: int = AUDIO_MAX_FRAMES):
        self.frame = frame
        self.max_frames = max_frames

    def _samples(self, p) -> np.ndarray:
        """Decode hook: raw payload bytes ARE the uint8 samples here;
        ``WavAudioFrameStage`` overrides with the real WAV codec."""
        return np.frombuffer(p or b"", np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"].to_pylist()
        out_i, out_f, out_e, out_z = [], [], [], []
        for mid, p in zip(ids.tolist(), payloads):
            s = self._samples(p).astype(np.int64) - 128
            nf = min(s.size // self.frame, self.max_frames)
            if nf == 0:
                continue
            fr = s[:nf * self.frame].reshape(nf, self.frame)
            energy = (fr * fr).sum(axis=1)
            sgn = fr >= 0
            zcr = (sgn[:, 1:] != sgn[:, :-1]).sum(axis=1)
            out_i.extend([int(mid)] * nf)
            out_f.extend(range(nf))
            out_e.extend(energy.tolist())
            out_z.extend(zcr.tolist())
        return pa.table({
            "media_id": pa.array(out_i, pa.int64()),
            "frame_idx": pa.array(out_f, pa.int64()),
            "energy": pa.array(out_e, pa.int64()),
            "zcr": pa.array(out_z, pa.int64()),
        })


class WavAudioFrameStage(AudioFrameStage):
    """Actor-pool stage whose payloads are REAL WAV containers: the
    stdlib ``wave`` codec (imported once per actor in __init__) parses
    the RIFF header and hands the PCM samples to the same framewise
    energy/zcr DSP as the raw-PCM stage."""

    def __init__(self, frame: int = AUDIO_FRAME,
                 max_frames: int = AUDIO_MAX_FRAMES):
        super().__init__(frame, max_frames)
        import wave            # codec load: once per actor

        self._codec = wave

    def _samples(self, p) -> np.ndarray:
        if not p:
            return np.asarray([], dtype=np.uint8)
        return wav_decode_pcm8(p if isinstance(p, bytes) else bytes(p))


def media_wav_frames(sf_dir: str):
    """Framewise (media_id, frame_idx, energy, zcr) where each payload
    is a REAL WAV file: documents.text's UTF-8 bytes are encoded into a
    RIFF/WAVE container by the stdlib codec, shipped as the binary
    payload column, and decoded back inside the actor-pool stage by the
    same codec before the DSP. Because encode∘decode is the identity on
    the sample bytes, the raw-PCM oracle (``media_audio_frames_sql``)
    hash-matches — the decode seam is now exercised by a genuine codec
    round-trip, not a fake."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_wav(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["doc_id"],
            "payload": pa.array(
                [wav_encode_pcm8(np.frombuffer(t.encode("utf-8"),
                                               np.uint8))
                 for t in batch["text"].to_pylist()], pa.binary()),
        })

    return (ds.map_batches(to_wav, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(WavAudioFrameStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         zero_copy_batch=True))


def media_audio_frames(sf_dir: str):
    """Dataset of framewise (media_id, frame_idx, energy, zcr) over
    text-derived PCM — DuckDB hash-matched."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["doc_id"],
            "payload": pc.cast(batch["text"], pa.binary()),
        })

    return (ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
            .map_batches(AudioFrameStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         zero_copy_batch=True))


def media_audio_frames_sql(frame: int = AUDIO_FRAME,
                           max_frames: int = AUDIO_MAX_FRAMES) -> str:
    return f"""
WITH pos AS (
  SELECT d.doc_id AS media_id,
         CAST(u.p AS BIGINT) AS p,
         ascii(substr(d.text, CAST(u.p AS INTEGER), 1)) - 128 AS s
  FROM documents d,
       UNNEST(range(1, CAST(least(length(d.text),
                                  {frame * max_frames}) AS BIGINT)
                       + 1)) u(p)),
fr AS (
  SELECT media_id, (p - 1) // {frame} AS frame_idx, p, s FROM pos),
full_fr AS (
  SELECT media_id, frame_idx FROM fr
  GROUP BY 1, 2 HAVING count(*) = {frame}),
energy AS (
  SELECT fr.media_id, fr.frame_idx,
         CAST(sum(fr.s * fr.s) AS BIGINT) AS energy
  FROM fr JOIN full_fr USING (media_id, frame_idx)
  GROUP BY 1, 2),
zc AS (
  SELECT a.media_id, a.frame_idx,
         CAST(count(*) FILTER (
           WHERE (a.s >= 0) <> (b.s >= 0)) AS BIGINT) AS zcr
  FROM fr a JOIN fr b
    ON a.media_id = b.media_id AND a.frame_idx = b.frame_idx
   AND b.p = a.p + 1
       JOIN full_fr ff ON a.media_id = ff.media_id
                      AND a.frame_idx = ff.frame_idx
  GROUP BY 1, 2)
SELECT e.media_id, e.frame_idx, e.energy, zc.zcr
FROM energy e JOIN zc USING (media_id, frame_idx)
ORDER BY media_id, frame_idx"""
