"""String column codecs: plain (lens + data) and dictionary.

Signature (string codecs work on null-free ``pa.Array`` of string/large_string):

    encode(arr: pa.Array) -> (meta: dict, bufs: list[bytes])
    decode(meta: dict, bufs: list[bytes], n: int) -> pa.Array

Plain stores FOR-bit-packed lengths plus the concatenated UTF-8 payload
(transport zstd applies on top). Dictionary mirrors Parquet's dict encoding:
codes are sub-encoded with whichever of bit-pack / RLE is smaller — RLE wins on
sorted or run-heavy columns such as the transcript ``role`` column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .numeric import (
    dec_bitpack,
    dec_codes_rows,
    dec_for,
    dec_rle,
    enc_bitpack,
    enc_for,
    enc_rle,
)
from .util import gather_slices


def str_offsets(arr: pa.Array) -> np.ndarray:
    """A string or binary array's ``len(arr) + 1`` value offsets (no copy)."""
    off_dt = np.int64 if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type) else np.int32
    return np.frombuffer(arr.buffers()[1], dtype=off_dt)[arr.offset : arr.offset + len(arr) + 1]


def str_parts(arr: pa.Array) -> tuple[np.ndarray, bytes]:
    """Null-free string array -> (lengths int64, concatenated utf8 bytes)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    offs = str_offsets(arr)
    if bufs[2] is None or len(arr) == 0:
        data = b""
    else:
        data = bytes(memoryview(bufs[2])[int(offs[0]) : int(offs[-1])])
    lens = np.diff(offs.astype(np.int64))
    return lens, data


def str_build(lens: np.ndarray, data: bytes, binary: bool = False) -> pa.Array:
    """Rebuild a string array from lengths + concatenated payload."""
    n = len(lens)
    total = int(lens.sum()) if n else 0
    if total < 2**31 - 1:
        offs = np.zeros(n + 1, dtype=np.int32)
        offs[1:] = np.cumsum(lens)
        t = pa.binary() if binary else pa.string()
    else:
        offs = np.zeros(n + 1, dtype=np.int64)
        offs[1:] = np.cumsum(lens)
        t = pa.large_binary() if binary else pa.large_string()
    return pa.Array.from_buffers(
        t, n, [None, pa.py_buffer(np.ascontiguousarray(offs).tobytes()), pa.py_buffer(data)]
    )


# --- plain -----------------------------------------------------------------


def enc_plain_s(arr: pa.Array):
    lens, data = str_parts(arr)
    lmeta, lbufs = enc_for(lens)
    return {"lmeta": lmeta}, [lbufs[0], data]


def dec_plain_s(meta, bufs, n):
    lens = dec_for(meta["lmeta"], [bufs[0]], n)
    return str_build(lens, bufs[1])


# --- dictionary ------------------------------------------------------------


def enc_dict_s(arr: pa.Array):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    denc = pc.dictionary_encode(arr)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_vals = denc.dictionary
    bp_meta, bp_bufs = enc_bitpack(codes)
    rl_meta, rl_bufs = enc_rle(codes)
    if sum(map(len, rl_bufs)) < len(bp_bufs[0]):
        cmeta, cbufs = {"sub": "rle", **rl_meta}, rl_bufs
    else:
        cmeta, cbufs = {"sub": "bitpack", **bp_meta}, bp_bufs
    vmeta, vbufs = enc_plain_s(dict_vals)
    meta = {"card": len(dict_vals), "codes": cmeta, "vmeta": vmeta, "ncb": len(cbufs)}
    return meta, [*cbufs, *vbufs]


def dec_dict_s(meta, bufs, n):
    ncb = meta["ncb"]
    cmeta = meta["codes"]
    if cmeta["sub"] == "rle":
        codes = dec_rle(cmeta, bufs[:ncb], n)
    else:
        codes = dec_bitpack(cmeta, bufs[:ncb], n)
    dict_vals = dec_plain_s(meta["vmeta"], bufs[ncb:], meta["card"])
    return pc.take(dict_vals, pa.array(codes.astype(np.int64)))


# --- selective-row decode (late materialization) ----------------------------


def dec_plain_s_rows(meta, bufs, n, idx):
    """Rows ``idx`` of a plain-encoded string column: lengths decode fully
    (cheap bit-packed ints — offsets need the prefix sum anyway), the heavy
    payload is gathered slice-wise for selected rows only."""
    lens = dec_for(meta["lmeta"], [bufs[0]], n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    ls = lens[idx]
    payload = gather_slices(np.frombuffer(bufs[1], dtype=np.uint8), offs[idx], ls)
    return str_build(ls, payload)


def dec_dict_s_rows(meta, bufs, n, idx):
    ncb = meta["ncb"]
    codes = dec_codes_rows(meta["codes"], bufs[:ncb], n, idx)
    dict_vals = dec_plain_s(meta["vmeta"], bufs[ncb:], meta["card"])
    return pc.take(dict_vals, pa.array(codes))
