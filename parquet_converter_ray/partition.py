"""Conversation-aware partitioning: stable hash + salted-key splitting.

``part_id = mix(poly_hash(conv_id), turn_idx // salt_rows) % n_parts``

 - The hash is a SELF-CONTAINED vectorized numpy polynomial hash over the
   column's Arrow byte buffers — no dependency on Python's salted ``hash``,
   polars' per-version seed, or any library whose upgrade between an
   interrupted run and its resume would silently re-partition rows. The
   partition assignment is a pure, version-independent function of row
   content — a hard requirement for checkpoint/resume.
 - Null keys map to a fixed sentinel (never crash, never collide with real
   content except adversarially).
 - The salt term splits mega-conversations into chunks of ``salt_rows`` turns
   across different partitions (skew handling per SURVEY.md §7.4/§7.5); within
   a chunk, order is restored by the within-partition sort on
   (conv_id, turn_idx), and across chunks by the global sort key at read time —
   the north rule's invariant is per-turn equality UNDER stable turn ordering,
   which a (conv_id, turn_idx) sort re-establishes regardless of chunking.

``HASH_VERSION`` is recorded in the run manifest (encode.py); a resume under a
different hash scheme fails loudly instead of silently mispartitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
HASH_VERSION = "poly64-v2"

_P = np.uint64(0x100000001B3)  # polynomial base (FNV prime)
_EMPTY = np.uint64(0xCBF29CE484222325)
_NULL_SENT = np.uint64(0x27D4EB2F165667C5)

# power table P^k mod 2^64, grown lazily to the longest row seen
_pows = np.array([1], dtype=np.uint64)


def _pow_table(maxlen: int) -> np.ndarray:
    global _pows
    if len(_pows) <= maxlen:
        n = max(maxlen + 1, 2 * len(_pows))
        t = np.empty(n, dtype=np.uint64)
        t[0] = 1
        np.cumprod(np.full(n - 1, _P, dtype=np.uint64), out=t[1:])  # wraps mod 2^64
        _pows = t
    return _pows


def _mix64(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public domain constant schedule) — avalanche."""
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def hash_byte_rows(flat: np.ndarray, lens: np.ndarray, slab_bytes: int = 4 << 20) -> np.ndarray:
    """Per-row hash of variable-length byte rows stored concatenated in ``flat``.

    h_i = mix( sum_j flat[i][j] * P^(L_i-1-j)  ^  L_i * GOLDEN )   (mod 2^64)

    Fully vectorized (pow-table lookup + add.reduceat); processes rows in
    slabs bounded by ``slab_bytes`` of payload so the int64 temporaries stay
    small regardless of batch size.
    """
    n = len(lens)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    lens = lens.astype(np.int64)
    ends = np.cumsum(lens)
    starts = ends - lens
    _pow_table(int(lens.max()))
    row = 0
    while row < n:
        # grow the row slab until its payload exceeds slab_bytes
        hi = int(np.searchsorted(ends, ends[row] - lens[row] + slab_bytes, side="right"))
        hi = max(hi, row + 1)
        ls, le = starts[row], ends[hi - 1]
        sl_lens = lens[row:hi]
        sl_flat = flat[ls:le].astype(np.uint64)
        # exponent of each byte: (row_end - 1 - flat_pos)
        epos = np.repeat(ends[row:hi] - 1, sl_lens) - np.arange(ls, le)
        terms = sl_flat * _pows[epos]
        # reduceat over NON-EMPTY rows only (empty rows would otherwise
        # corrupt segment boundaries / index past the end), scatter back
        hsum = np.full(hi - row, _EMPTY, dtype=np.uint64)
        nz = sl_lens > 0
        if nz.any():
            hsum[nz] = np.add.reduceat(terms, starts[row:hi][nz] - ls)
        out[row:hi] = _mix64(hsum ^ (sl_lens.astype(np.uint64) * GOLDEN))
        row = hi
    return out


def stable_hash_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row stable uint64 hash of a string/binary column.

    Version-independent (pure numpy over the Arrow buffers); nulls map to a
    fixed sentinel. Works for string / large_string / binary / large_binary.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    null_mask = None
    if arr.null_count:
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
        fill = "" if (pa.types.is_string(t) or pa.types.is_large_string(t)) else b""
        arr = pc.fill_null(arr, fill)
    # low-cardinality fast path (the partition-key case: few conversations per
    # batch): hash each distinct value once, scatter back with index_in
    if len(arr) > 4096:
        uniq = pc.unique(arr)
        if len(uniq) <= len(arr) // 2:
            uh = stable_hash_strings(uniq)
            idx = pc.index_in(arr, value_set=uniq).to_numpy(zero_copy_only=False).astype(np.int64)
            out = uh[idx]
            if null_mask is not None:
                out[null_mask] = _NULL_SENT
            return out
    if pa.types.is_string(t) or pa.types.is_binary(t):
        odt = np.int32
    elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        odt = np.int64
    else:
        raise TypeError(f"stable_hash_strings: unsupported type {t}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=odt)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    lens = np.diff(offsets)
    flat = data[offsets[0] : offsets[-1]]
    out = hash_byte_rows(flat, lens)
    if null_mask is not None:
        out[null_mask] = _NULL_SENT
    return out


def stable_hash_ints(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row stable uint64 hash of an integer column (splitmix64 finalizer).

    Nulls map to a fixed sentinel (an int column with nulls would otherwise
    round-trip through float NaN and hash garbage)."""
    null_mask = None
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
        arr = pc.fill_null(arr, 0)
    v = arr.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint64)
    out = _mix64(v)
    if null_mask is not None:
        out[null_mask] = _NULL_SENT
    return out


def hash_conv_values(vals: list) -> np.ndarray | None:
    """Hash a list of partition-key VALUES exactly as ``assign_part_id``
    hashed the column at encode time: uniformly-int values through the
    integer hash, everything else as an Arrow-inferred array through the
    byte hash (str -> utf8 bytes, bytes -> binary — ``str(b'x')`` would hash
    the repr, not the payload, and silently miss every partition).

    Returns None when the values aren't uniformly hashable (mixed types,
    nulls, non-key types) so ``delete_conversations`` raises instead of
    reporting a clean no-op.
    """
    if not vals:
        return np.empty(0, dtype=np.uint64)
    if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in vals):
        return stable_hash_ints(pa.array([int(v) for v in vals], pa.int64()))
    try:
        arr = pa.array(list(vals))
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        return None
    t = arr.type
    if arr.null_count == 0 and (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        return stable_hash_strings(arr)
    return None


def key_hashes(key: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 partition hashes of a key column as ``assign_part_id`` hashes
    it: an integer type through the integer hash, any other type through
    the byte hash (``TypeError`` when it has no bytes to hash)."""
    return stable_hash_ints(key) if pa.types.is_integer(key.type) else stable_hash_strings(key)


def assign_part_id(
    batch: pa.Table,
    n_parts: int,
    conv_col: str = "conv_id",
    order_col: str = "turn_idx",
    salt_rows: int = 100_000,
) -> pa.Table:
    """Append a ``part_id`` column. Pure function of row content — resume-stable."""
    h = key_hashes(batch[conv_col])
    if salt_rows and order_col in batch.column_names:
        order = batch[order_col]
        if isinstance(order, pa.ChunkedArray):
            order = order.combine_chunks()
        if order.null_count:
            order = pc.fill_null(order, 0)
        chunk = order.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint64) // np.uint64(salt_rows)
    else:
        chunk = 0
    return batch.append_column("part_id", pa.array(salt_chunk_parts(h, chunk, n_parts)))


def salt_chunk_parts(h: np.ndarray, chunk, n_parts: int) -> np.ndarray:
    """int32 partition ids of key hashes ``h`` in salt chunks ``chunk``
    (broadcast against ``h``): ``((h ^ chunk*GOLDEN) + chunk) % n_parts``,
    the one salt-chunk mix, so chunk k of a mega-conversation moves and
    chunk 0 is the bare hash. ``assign_part_id`` places rows with it; the
    scan router (``zonemap._hash_route_parts``) and the dimension join's
    row replication (``storejoin.store_join_dim``) pass a row of chunks
    0..k_max against a column of hashes."""
    k = np.asarray(chunk, dtype=np.uint64)  # array ops: silent mod-2^64 wrap
    return (((h ^ (k * GOLDEN)) + k) % np.uint64(n_parts)).astype(np.int32)


def cluster_key_array(col) -> np.ndarray:
    """Comparable numpy view of a range-cluster column: int64 for
    integer/boolean/temporal columns (timestamps/dates normalized to
    microseconds), float64 for floats. Null slots carry arbitrary values —
    callers mask them with the column's own null bitmap."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_floating(t):
        return col.to_numpy(zero_copy_only=False).astype(np.float64)
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return (
            col.to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        if col.null_count:
            col = pc.fill_null(col, 0)
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    raise ValueError(
        f"cluster_by needs a numeric, temporal, string or binary column, got type {t}"
    )


def is_strlike(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


STR_SAMPLE_BYTES = 32  # sampled prefix width for string cluster-key layout
STR_KEY_BYTES = 6  # key bytes after the recorded skip: 48 bits, float64-exact


def prefix_matrix(col: "pa.Array | pa.ChunkedArray", nbytes: int) -> np.ndarray:
    """(n, nbytes) uint8 matrix of each value's first ``nbytes`` UTF-8/binary
    bytes, zero-padded. Zero-padding is order-preserving up to ties (a string
    that is a prefix of another compares equal on the shared window — they
    merge into one bucket, which range clustering tolerates). Nulls become
    empty (all-zero rows); callers that must exclude them mask separately."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if col.null_count:
        col = pc.fill_null(col, "" if (pa.types.is_string(t) or pa.types.is_large_string(t)) else b"")
    odt = np.int64 if (pa.types.is_large_string(t) or pa.types.is_large_binary(t)) else np.int32
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], dtype=odt)[col.offset : col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    lens = np.minimum(np.diff(offsets), nbytes)
    pos = offsets[:-1, None] + np.arange(nbytes, dtype=np.int64)
    valid = np.arange(nbytes) < lens[:, None]
    if len(data) == 0:
        return np.zeros((len(col), nbytes), dtype=np.uint8)
    return np.where(valid, data[np.minimum(pos, len(data) - 1)], 0).astype(np.uint8)


def matrix_keys(m: np.ndarray) -> np.ndarray:
    """Big-endian int64 key from up to 7 prefix-byte columns (order matches
    the byte order, so key order == truncated lexicographic order)."""
    out = np.zeros(len(m), dtype=np.int64)
    for j in range(m.shape[1]):
        out = (out << np.int64(8)) | m[:, j].astype(np.int64)
    return out


def string_cluster_keys(col, skip: int, nbytes: int = STR_KEY_BYTES) -> np.ndarray:
    """Order-preserving-ish int64 cluster key for a string/binary column: the
    ``nbytes`` bytes after skipping the first ``skip`` (the sample's common
    prefix, recorded in the store layout so assignment replays identically).
    Values that do not share the recorded prefix still key deterministically —
    clustering quality degrades for them, never correctness: partition zone
    maps record the REAL string bounds of whatever landed there."""
    m = prefix_matrix(col, skip + nbytes)
    return matrix_keys(m[:, skip:])


def assign_part_id_range(
    batch: pa.Table, cuts, cluster_by: "str | list[str]", norm: dict | None = None
) -> pa.Table:
    """Range-clustered ``part_id``: the bucket of the cluster key against the
    RECORDED cut points. A pure function of row content + recorded layout
    (cuts, and for multi-column keys the per-column normalization spans), so
    it is resume- and append-stable exactly like the hash assignment.

    One column: the raw comparable value is the key (no quantization — int64
    domains keep exact cut semantics); a string/binary column keys through
    ``string_cluster_keys`` with the skip recorded in ``norm``. Multiple
    columns: the Z-order key of the RECORDED per-column spans (``norm``).
    Rows with a null in any cluster column route to bucket 0."""
    cols = [cluster_by] if isinstance(cluster_by, str) else list(cluster_by)
    arrays = []
    spans = []
    null_mask = None
    for name in cols:
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ent = (norm or {}).get(name)
        if is_strlike(col.type):
            skip = int(ent["skip"]) if isinstance(ent, dict) else 0
            arrays.append((col, string_cluster_keys(col, skip)))
            spans.append(tuple(ent["span"]) if isinstance(ent, dict) and "span" in ent else None)
        else:
            arrays.append((col, cluster_key_array(col)))
            spans.append(tuple(ent) if ent is not None and not isinstance(ent, dict) else None)
        if col.null_count:
            m = pc.is_null(col).to_numpy(zero_copy_only=False)
            null_mask = m if null_mask is None else (null_mask | m)
    if len(cols) == 1:
        v = arrays[0][1]
        key = v
        cut_arr = np.asarray(cuts, dtype=v.dtype)
    else:
        key = zorder_keys([a for _, a in arrays], spans)
        cut_arr = np.asarray(cuts, dtype=np.int64)
    part = np.searchsorted(cut_arr, key, side="left").astype(np.int32)
    if null_mask is not None:
        part[null_mask] = 0
    return batch.append_column("part_id", pa.array(part, type=pa.int32()))


def zorder_keys(cols: list[np.ndarray], norm: list[tuple[float, float]]) -> np.ndarray:
    """Morton (Z-order) keys for k columns: each value quantizes to
    ``63 // k`` bits against the RECORDED [min, max] span (values outside the
    sampled span clip — bucketing stays valid, zone maps stay exact), then
    the bit-planes interleave. Locality on the curve gives every clustered
    column a tight per-partition range, so zone maps prune predicates on ANY
    of them."""
    k = len(cols)
    bits = 63 // k
    z = np.zeros(len(cols[0]), np.int64)
    for c, (v, (lo, hi)) in enumerate(zip(cols, norm)):
        span = float(hi) - float(lo)
        if span <= 0:
            continue
        q = np.clip(
            (v.astype(np.float64) - float(lo)) / span * ((1 << bits) - 1),
            0,
            (1 << bits) - 1,
        ).astype(np.int64)
        for b in range(bits):
            z |= ((q >> b) & np.int64(1)) << np.int64(b * k + c)
    return z
