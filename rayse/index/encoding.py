"""Posting-list compression: delta-gap + LEB128 varint, numpy-vectorized.

Replaces the reference's PostgreSQL row storage of postings
(`Indexer/Entities/InvertedIndex.java:9-37`, `WordPosition.java:8-34`) with the
segment layout mandated by the north rule: per-term ``doc_ids`` as
delta-gap varints, ``tfs`` as varints, ``positions`` as per-doc delta varints.

Both encode and decode are vectorized: encode loops over at most 10 byte
positions (not over values); decode reconstructs all varints in one
``np.add.reduceat`` pass. Safe for the full uint64 range.
"""

from __future__ import annotations

import numpy as np

_THRESH = np.array([1 << (7 * i) for i in range(1, 10)], dtype=np.uint64)


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array (vectorized over byte positions)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nb = np.searchsorted(_THRESH, v, side="right").astype(np.int64) + 1
    total = int(nb.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(nb)[:-1]))
    for j in range(int(nb.max())):
        m = nb > j
        byte = ((v[m] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[m] - 1 > j).astype(np.uint8) << 7
        out[starts[m] + j] = byte | cont
    return out.tobytes()


def decode_varints(buf: bytes) -> np.ndarray:
    """Decode a LEB128 byte string back to a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if not (b & 0x80).any():
        # all-1-byte fast path (typical for tf / position-delta streams)
        return b.astype(np.uint64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.concatenate(([0], ends[:-1] + 1))
    within = np.arange(b.size, dtype=np.int64) - np.repeat(starts, np.diff(np.concatenate((starts, [b.size]))))
    contrib = (b.astype(np.uint64) & np.uint64(0x7F)) << (np.uint64(7) * within.astype(np.uint64))
    return np.add.reduceat(contrib, starts)


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """Strictly/weakly increasing uint64 -> first value + gaps."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    return np.cumsum(gaps, dtype=np.uint64)


def encode_doc_ids(doc_ids: np.ndarray) -> bytes:
    """doc_id column of one posting list (must be ascending)."""
    return encode_varints(delta_encode(doc_ids))


def decode_doc_ids(buf: bytes) -> np.ndarray:
    return delta_decode(decode_varints(buf))


def encode_positions(positions_per_doc: list[np.ndarray]) -> bytes:
    """Per-doc position lists -> [count, delta-gapped positions]* varints.

    Positions within one doc are ascending token offsets
    (`IndexerService.java:192-198` semantics)."""
    if not positions_per_doc:
        return b""
    chunks = []
    for p in positions_per_doc:
        p = np.ascontiguousarray(p, dtype=np.uint64)
        chunks.append(np.array([p.size], dtype=np.uint64))
        chunks.append(delta_encode(p))
    return encode_varints(np.concatenate(chunks))


def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (vectorized)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    return np.searchsorted(_THRESH, v, side="right").astype(np.int64) + 1


def encode_varints_segmented(values: np.ndarray,
                             seg_starts: np.ndarray) -> list[bytes]:
    """Encode the whole array ONCE, then slice into per-segment byte strings
    (segment i covers values[seg_starts[i] : seg_starts[i+1]]).

    This is the merge hot path: one vectorized encode for an entire index
    partition instead of one numpy round-trip per term."""
    buf = encode_varints(values)
    if len(seg_starts) == 0:
        return []
    nb = varint_byte_lengths(values)
    byte_off = np.concatenate(([0], np.cumsum(nb)))
    bounds = byte_off[seg_starts]
    bounds = np.concatenate((bounds, [len(buf)]))
    return [buf[int(bounds[i]):int(bounds[i + 1])]
            for i in range(len(seg_starts))]


def encode_varints_offsets(values: np.ndarray,
                           seg_starts: np.ndarray):
    """Like :func:`encode_varints_segmented` but returns ``(buf, offsets)``
    where offsets (int64, len(seg_starts)+1) delimit each segment inside the
    single encoded buffer — ready for zero-copy Arrow BinaryArray assembly
    (no per-segment bytes copies)."""
    buf = encode_varints(values)
    nb = varint_byte_lengths(values)
    byte_off = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(nb, out=byte_off[1:])
    offsets = np.empty(len(seg_starts) + 1, dtype=np.int64)
    offsets[:-1] = byte_off[seg_starts]
    offsets[-1] = len(buf)
    return buf, offsets


def binary_array_from_offsets(buf: bytes, offsets: np.ndarray) -> "pa.Array":
    """Zero-copy pyarrow binary array over one contiguous buffer."""
    import pyarrow as pa

    if len(buf) > 0x7FFFFFFF:
        raise ValueError(
            f"partition blob is {len(buf)} bytes (> int32 offsets); "
            "increase IndexConfig.part_bits so partitions shrink")
    off32 = offsets.astype(np.int32)
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(offsets) - 1,
        [None, pa.py_buffer(off32.tobytes()), pa.py_buffer(buf)])


def decode_varints_concat(blobs: list[bytes]) -> np.ndarray:
    """Decode many varint streams in one pass (concatenation is safe: varint
    boundaries are self-delimiting)."""
    return decode_varints(b"".join(blobs))


def segmented_cumsum_abs(gaps: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Per-segment cumulative sum where each segment's first element is the
    absolute first value (our delta_encode convention): one global cumsum,
    then subtract each segment's prior total."""
    if gaps.size == 0:
        return gaps
    cum = np.cumsum(gaps, dtype=np.uint64)
    base = np.zeros(len(seg_starts), dtype=np.uint64)
    base[1:] = cum[seg_starts[1:] - 1]
    seg_lens = np.diff(np.concatenate((seg_starts, [gaps.size])))
    return cum - np.repeat(base, seg_lens)
