"""Codec registry + top-level column encode/decode with null handling.

``encode_array`` takes any supported pyarrow array, extracts the validity
bitmap, normalises to a physical representation (int64 for ints/timestamps,
raw floats, uint8 for bool, utf8 for strings), dispatches to a codec by name —
or picks one with the sampled cost model when ``codec="auto"`` — and returns a
``ColumnBlob`` whose buffers are transport-wrapped (optional zstd layer).

``decode_array`` reverses it bit-identically, including the empty-string vs
null distinction (validity bitmap is stored independently of the values), which
the north rule requires for transcript `text`/`tool` columns.

Codec names: plain, bitpack, for, delta, rle, dict, shuffle (numeric);
plain, dict, fsst (strings). The reference engine has no codec layer at all —
it delegates to the Parquet writer codec (reference converter.py:577,
config.py:175); this module is the north-star replacement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import fsst as _fsst
from . import numeric as _num
from . import strings as _str
from .util import pack_validity, unpack_validity, unwrap_buf, wrap_buf

# --- registry ---------------------------------------------------------------

_NUM_CODECS = {
    "plain": (_num.enc_plain, _num.dec_plain),
    "bitpack": (_num.enc_bitpack, _num.dec_bitpack),
    "for": (_num.enc_for, _num.dec_for),
    "delta": (_num.enc_delta, _num.dec_delta),
    "rle": (_num.enc_rle, _num.dec_rle),
    "dict": (_num.enc_dictnum, _num.dec_dictnum),
    "shuffle": (_num.enc_shuffle, _num.dec_shuffle),
}

_STR_CODECS = {
    "plain": (_str.enc_plain_s, _str.dec_plain_s),
    "dict": (_str.enc_dict_s, _str.dec_dict_s),
    "fsst": (_fsst.enc_fsst, _fsst.dec_fsst),
}

# selective-row decoders (late materialization): decode ONLY the rows at a
# sorted index vector, touching as little of the encoded stream as the codec
# structure allows (see numeric.py / strings.py / fsst.py `dec_*_rows`)
_NUM_ROWS = {
    "plain": _num.dec_plain_rows,
    "bitpack": _num.dec_bitpack_rows,
    "for": _num.dec_for_rows,
    "delta": _num.dec_delta_rows,
    "rle": _num.dec_rle_rows,
    "dict": _num.dec_dictnum_rows,
    "shuffle": _num.dec_shuffle_rows,
}

_STR_ROWS = {
    "plain": _str.dec_plain_s_rows,
    "dict": _str.dec_dict_s_rows,
    "fsst": _fsst.dec_fsst_rows,
}


@dataclass
class ColumnBlob:
    codec: str
    n: int
    type_str: str
    null_count: int
    meta: dict
    bufs: list[bytes] = field(default_factory=list)  # transport-wrapped
    validity: bytes | None = None  # transport-wrapped packed bitmap
    # codec-choice seconds of an ``auto`` encode (lineage timings); not stored
    choose_s: float = field(default=0.0, compare=False, repr=False)

    @property
    def nbytes(self) -> int:
        return sum(len(b) for b in self.bufs) + (len(self.validity) if self.validity else 0)


# --- arrow type (de)serialisation -------------------------------------------


def type_to_str(t: pa.DataType) -> str:
    return str(t)


def str_to_type(s: str) -> pa.DataType:
    if s.startswith("timestamp"):
        inner = s[s.index("[") + 1 : -1]
        parts = inner.split(", tz=")
        return pa.timestamp(parts[0], parts[1] if len(parts) > 1 else None)
    if s.startswith("date32"):
        return pa.date32()
    if s.startswith("date64"):
        return pa.date64()
    return pa.type_for_alias(s)


# --- physical normalisation -------------------------------------------------


def _is_str(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _is_bin(t: pa.DataType) -> bool:
    return pa.types.is_binary(t) or pa.types.is_large_binary(t)


def _fill_default(t: pa.DataType):
    if _is_str(t):
        return ""
    if _is_bin(t):
        return b""
    if pa.types.is_boolean(t):
        return False
    return 0


def _to_physical(arr: pa.Array) -> tuple[str, object]:
    """Null-free array -> ("num", np.ndarray) or ("str"/"bin", pa.Array)."""
    t = arr.type
    if _is_str(t):
        return "str", arr
    if _is_bin(t):
        return "bin", arr
    if pa.types.is_boolean(t):
        return "num", arr.to_numpy(zero_copy_only=False).astype(np.uint8)
    if pa.types.is_timestamp(t):
        return "num", arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
    if pa.types.is_date32(t):
        return "num", arr.cast(pa.int32()).to_numpy(zero_copy_only=False)
    if pa.types.is_date64(t):
        return "num", arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return "num", arr.to_numpy(zero_copy_only=False)
    raise TypeError(f"unsupported column type: {t}")


def _from_physical(kind: str, vals, t: pa.DataType) -> pa.Array:
    if kind in ("str", "bin"):
        out = vals
        if out.type != t:
            out = out.cast(t)
        return out
    if pa.types.is_boolean(t):
        return pa.array(vals.astype(bool), type=pa.bool_())
    if pa.types.is_timestamp(t) or pa.types.is_date32(t) or pa.types.is_date64(t):
        width_t = pa.int32() if pa.types.is_date32(t) else pa.int64()
        return pa.array(vals.astype(np.int64 if width_t == pa.int64() else np.int32)).cast(t)
    return pa.array(np.ascontiguousarray(vals), type=t)


# --- cost model -------------------------------------------------------------

_SAMPLE_TARGET = 8192


def _candidates(kind: str, vals) -> list[str]:
    if kind in ("str", "bin"):
        return ["plain", "dict", "fsst"]
    dt = vals.dtype
    if dt.kind == "f":
        cands = ["plain", "shuffle", "rle"]
        if len(vals) == 0 or not np.isnan(vals).any():
            cands.append("dict")
        return cands
    # ints / bool / timestamps
    return ["for", "delta", "rle", "dict", "plain"]


def _sample(kind: str, vals, n: int):
    """The trial sample: 4 contiguous slices (contiguity preserves run/delta
    structure) of ``_SAMPLE_TARGET`` rows in all. A string sample is also
    capped at the payload bytes one FSST table trains on (a quarter per
    slice), so no trial compresses more text than that."""
    if kind == "num":
        if n <= _SAMPLE_TARGET:
            return vals, n
        k = _SAMPLE_TARGET // 4
        stride = (n - k) // 3
        return np.concatenate([vals[i * stride:i * stride + k] for i in range(4)]), 4 * k
    if n <= 4:
        return vals, n
    offs = _str.str_offsets(vals)
    if n <= _SAMPLE_TARGET and offs[-1] - offs[0] <= _fsst._SAMPLE_CAP:
        return vals, n
    k = min(n, _SAMPLE_TARGET) // 4
    starts = np.arange(4) * ((n - k) // 3)
    # each slice ends at k rows or at a quarter of the cap, keeping one row
    cut = offs[starts].astype(np.int64) + _fsst._SAMPLE_CAP // 4
    ends = np.searchsorted(offs, cut, side="right") - 1
    ends = np.maximum(np.minimum(ends, starts + k), starts + 1)
    parts = [vals.slice(a, b - a) for a, b in zip(starts.tolist(), ends.tolist())]
    return pa.concat_arrays(parts), int((ends - starts).sum())


def _trials(kind: str, vals, n: int, fsst_table: "_fsst.FsstTable | None" = None) -> list[dict]:
    """The cost model's trials on a sample of ``vals``, in candidate order:
    one dict per candidate with its ``codec``, its wrapped sample ``bytes``
    (``None`` when the candidate raised or was skipped) and its trial
    seconds ``s``. Every string trial runs on the same sample, capped at
    FSST's training bytes (``_sample``). The FSST trial also carries
    ``skipped``, or its ``table``: ``fsst_table``, the column's table
    trained once per encode and recorded in ``_run.json``, or when there
    is none a table trained on the sample (its seconds in ``train_s``)."""
    table = _NUM_CODECS if kind == "num" else _STR_CODECS
    sample, _ = _sample(kind, vals, n)
    best_size = float("inf")
    out = []
    for name in _candidates(kind, vals):
        enc, _ = table[name]
        trial = {"codec": name, "bytes": None}
        out.append(trial)
        t0 = time.perf_counter()
        try:
            if name == "fsst":
                _, payload = _str.str_parts(sample)
                # one FSST code stands for at most 8 payload bytes: the
                # trial is the priciest, so skip it when a cheaper trial is
                # already at or below that bound
                trial["skipped"] = best_size <= len(payload) / _fsst._MAX_SYMBOL_LEN
                if trial["skipped"]:
                    continue
                trial["table"] = fsst_table
                if fsst_table is None:
                    trial["table"] = _fsst.train(payload)
                    trial["train_s"] = time.perf_counter() - t0
                _, bufs = enc(sample, table=trial["table"])
            else:
                _, bufs = enc(sample)
            trial["bytes"] = sum(len(wrap_buf(b)) for b in bufs)
            best_size = min(best_size, trial["bytes"])
        except (ValueError, OverflowError):
            pass
        finally:
            trial["s"] = time.perf_counter() - t0
    return out


def choose_codec(kind: str, vals, n: int,
                 fsst_table: "_fsst.FsstTable | None" = None) -> tuple[str, dict]:
    """Sampled cost model: encode a sample with each candidate, pick the
    smallest (the first on a tie). Returns (codec_name, encode_params) —
    an FSST choice's params carry the trial's table: ``fsst_table``, the
    column's table trained once per encode and recorded in ``_run.json``,
    or the one trained on the sample when there is none, so the full
    encode never trains.

    One skip rule: the FSST trial is not run when the best wrapped trial so
    far is at most 1/8 of the sample's raw payload bytes, FSST's best
    pre-entropy ratio (one code stands for at most 8 bytes)."""
    if n == 0:
        return "plain", {}
    best, best_size, best_params = "plain", float("inf"), {}
    for trial in _trials(kind, vals, n, fsst_table):
        if trial["bytes"] is not None and trial["bytes"] < best_size:
            best, best_size = trial["codec"], trial["bytes"]
            best_params = {"table": trial["table"]} if best == "fsst" else {}
    return best, best_params


def _filled(arr: pa.Array) -> pa.Array:
    """``arr`` with nulls filled as the encode fills them."""
    if arr.null_count:
        arr = pc.fill_null(arr, pa.scalar(_fill_default(arr.type), type=arr.type))
    return arr


def codec_trials(arr: pa.Array, fsst_table: "_fsst.FsstTable | None" = None) -> list[dict]:
    """The cost model's trials (``_trials``) for one column, on the values
    ``encode_array(arr, fsst_table=fsst_table)`` samples."""
    kind, vals = _to_physical(_filled(arr))
    return _trials(kind, vals, len(arr), fsst_table)


def train_table(arr) -> "_fsst.FsstTable | None":
    """The FSST table of a string or binary column, trained on (a cap of)
    the payload of ``arr``, a sample of it; ``None`` when the sample holds
    no payload bytes."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    _, payload = _str.str_parts(_filled(arr))
    return _fsst.train(payload) if payload else None


# --- top level --------------------------------------------------------------


def encode_array(arr, codec: str = "auto", fsst_table: "_fsst.FsstTable | None" = None) -> ColumnBlob:
    """Encode one column; ``codec="auto"`` runs the sampled cost model.
    ``fsst_table`` is a string column's table trained once per encode
    (``train_table``): the FSST trial and an FSST encode use it instead of
    training one on this column.

    Examples
    --------
    >>> import pyarrow as pa
    >>> blob = encode_array(pa.array(["a", "b", "a", None]), codec="dict")
    >>> decode_array(blob).to_pylist()
    ['a', 'b', 'a', None]
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    n = len(arr)
    null_count = arr.null_count
    validity_buf = None
    if null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
        validity_buf = wrap_buf(pack_validity(valid))
        arr = _filled(arr)
    kind, vals = _to_physical(arr)
    params: dict = {"table": fsst_table} if codec == "fsst" else {}
    choose_s = 0.0
    if codec == "auto":
        t0 = time.perf_counter()
        codec, params = choose_codec(kind, vals, n, fsst_table)
        choose_s = time.perf_counter() - t0
    table = _NUM_CODECS if kind == "num" else _STR_CODECS
    enc, _ = table[codec]
    meta, bufs = enc(vals, **params)
    return ColumnBlob(
        codec=codec,
        n=n,
        type_str=type_to_str(t),
        null_count=null_count,
        meta=meta,
        bufs=[wrap_buf(b) for b in bufs],
        validity=validity_buf,
        choose_s=choose_s,
    )


def decode_array(blob: ColumnBlob) -> pa.Array:
    t = str_to_type(blob.type_str)
    kind = "str" if _is_str(t) else ("bin" if _is_bin(t) else "num")
    table = _NUM_CODECS if kind == "num" else _STR_CODECS
    _, dec = table[blob.codec]
    bufs = [unwrap_buf(b) for b in blob.bufs]
    vals = dec(blob.meta, bufs, blob.n)
    out = _from_physical(kind, vals, t)
    if blob.null_count:
        out = _with_validity(out, unpack_validity(unwrap_buf(blob.validity), blob.n))
    return out


def _with_validity(out: pa.Array, valid: np.ndarray) -> pa.Array:
    """The null-free decode ``out`` with ``valid`` as its validity bitmap.
    Null slots keep the encode's fill value, which Arrow ignores; the values
    are not copied (an ``if_else`` against a null scalar rewrote all of
    them: 12 ms of a 14.7 MB text column's decode)."""
    bits = np.packbits(np.concatenate([np.zeros(out.offset, bool), valid]), bitorder="little")
    return pa.Array.from_buffers(out.type, len(out), [pa.py_buffer(bits), *out.buffers()[1:]],
                                 null_count=len(valid) - int(np.count_nonzero(valid)),
                                 offset=out.offset)


def decode_array_rows(blob: ColumnBlob, sel) -> pa.Array:
    """Decode ONLY the rows at sorted indices ``sel`` — bit-identical to
    ``decode_array(blob).take(sel)``, without materializing the full column.

    This is the payload side of late materialization: a scan decodes its
    predicate columns first, and every other column only at the rows that
    survived the filter. The transport layer still reads/unzstds whole
    buffers (they are container-resident), but the structural decode — bit
    unpacking, prefix sums, payload copies, FSST symbol expansion — runs on
    selected rows only (FSST additionally skips untouched 256 KB slabs).

    Examples
    --------
    >>> import pyarrow as pa
    >>> blob = encode_array(pa.array(["aa", None, "cc", "dd"]), codec="dict")
    >>> decode_array_rows(blob, [1, 3]).to_pylist()
    [None, 'dd']
    """
    sel = np.asarray(sel, dtype=np.int64)
    return make_row_reader(blob)(sel)


def make_row_reader(blob: ColumnBlob):
    """Repeated-selective-decode handle: unwraps (un-zstds) the blob's
    buffers and validity ONCE and returns ``read(sel) -> pa.Array``,
    bit-identical to ``decode_array(blob).take(sel)`` per call.

    The sorted-scan binary search calls this O(log n) times per container
    with single-row selections — per-call transport decompression (which
    ``decode_array_rows`` pays, being one-shot) would dwarf the decode the
    search avoids."""
    t = str_to_type(blob.type_str)
    kind = "str" if _is_str(t) else ("bin" if _is_bin(t) else "num")
    rows_table = _NUM_ROWS if kind == "num" else _STR_ROWS
    fn = rows_table.get(blob.codec)
    if fn is None:  # unknown codec: correctness fallback
        full = decode_array(blob)

        def read_full(sel) -> pa.Array:
            return pc.take(full, pa.array(np.asarray(sel, dtype=np.int64)))

        return read_full
    bufs = [unwrap_buf(b) for b in blob.bufs]
    valid = unpack_validity(unwrap_buf(blob.validity), blob.n) if blob.null_count else None

    def read(sel) -> pa.Array:
        sel = np.asarray(sel, dtype=np.int64)
        vals = fn(blob.meta, bufs, blob.n, sel)
        out = _from_physical(kind, vals, t)
        if valid is not None:
            out = _with_validity(out, valid[sel])
        return out

    return read
