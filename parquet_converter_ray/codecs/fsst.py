"""FSST-style string compression, from scratch, fully vectorized with numpy.

Fast Static Symbol Table compression (Boncz, Neumann, Leis — "FSST: Fast Random
Access String Compression", VLDB 2020, public paper): replace frequent substrings
(symbols of 1..8 bytes) with 1-byte codes; code 255 is an escape prefix for bytes
not covered by the 255-entry symbol table.

This implementation trains the table with a byte-pair-merge scheme (BPE-like
greedy merging on a bounded sample, which naturally grows 2..8-byte symbols
from frequent pairs), then applies ALL merges to the full payload with
generation-parallel vectorized numpy pair replacement — no per-byte Python
loops anywhere:

  train:   sample bytes -> uint16 working array; repeatedly count adjacent
           pairs, rank the pairs frequent enough to merge (count desc, key
           asc) and merge the top ones, a round at a time, into new codes
           (256+i); cap symbol length at 8, stop at <=128 merges (leaves
           >=127 codes for frequent single bytes).
  encode:  slab-wise (256 KB — cache-resident working set): one uint16-key
           pass applies every first-generation merge simultaneously, then up
           to 8 full-pairmap passes apply deeper generations (any greedy
           segmentation decodes correctly, so replay order is free); map
           working values to output codes; uncovered literals get
           escape(255)+byte. Each pass is one dense greedy-left merge step
           (``_merge_step``): adjacent matches are resolved by iterating
           ``keep = match & ~shift(keep)`` over byte masks to its one fixed
           point, the codes are blended in with uint16 mask ops and the
           array is compacted with one ``np.compress``; the code tables are
           uint16 with 0 for "no merge" (merge codes are >= 256). On 17 MB
           of synth transcript text (one core) that step took the encode
           from ~21 to ~50 MB/s against sparse match positions resolved by
           run parity, with byte-identical output.
  decode:  slab-wise; parse escapes via run-parity over runs of 255-bytes (a
           255 run's even offsets are escape controls) into one id per
           output symbol (code c -> c, escaped byte v -> 255 + v), then
           expand with one Arrow binary ``take`` of those ids from the 511
           expansions; the take's data buffer is the decoded slab.

A table is trained once per encode for each string column, on the driver's
bounded sample of the input, and recorded in the store's ``_run.json``
(``FsstTable.to_record``); every partition, and every later append, upsert,
delete rewrite and resume of the store, compresses with that table. A column
with no recorded table (a lazy input, a store written before tables were
recorded) trains one per partition on its cost-model sample. Each container
still carries its own symbols (``sym_flat``), so decode never reads the run
record.

The column payload is one concatenated byte stream of slab streams (symbols may span string
boundaries); original string lengths are stored FOR-bit-packed so offsets are
reconstructed exactly. Strings round-trip bit-identical, including empty strings
(nulls are handled above the codec layer; see codecs/__init__.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .numeric import dec_for, enc_for
from .strings import str_build, str_parts
from .util import gather_slices

_MAX_SYMBOL_LEN = 8
_MAX_MERGES = 128
_ESCAPE = 255
_ALPHA = 512  # working alphabet: 0..255 literals, 256..511 merge codes


_DENSE_ROUNDS = 16  # rounds of the dense greedy-left step before the sparse rule


def _greedy_left(m: np.ndarray) -> np.ndarray:
    """The matches a left-to-right scan keeps from ``m``, where ``m[i]``
    says the pair at ``i, i+1`` may merge: a match is kept unless the one
    just before it is kept. ``km = m & ~shift(km)`` has exactly that one
    fixed point, and iterating it from ``km = m`` reaches it in as many
    rounds as the longest run of adjacent matches, each round one
    branch-free pass over bytes. A run longer than ``_DENSE_ROUNDS`` (a
    long run of one repeated byte) takes the exact sparse rule instead:
    within each run of adjacent matches, keep offsets 0, 2, 4, ..."""
    bufs = (np.empty_like(m), np.empty_like(m))
    km = m
    for i in range(_DENSE_ROUNDS):
        nxt = bufs[i & 1]
        nxt[:1] = m[:1]
        np.greater(m[1:], km[:-1], out=nxt[1:])  # m & ~shift(km)
        if np.array_equal(nxt, km):
            return km
        km = nxt
    p = np.flatnonzero(m)
    starts = np.empty(len(p), dtype=bool)
    starts[:1] = True
    np.not_equal(np.diff(p), 1, out=starts[1:])
    run_start = p[starts][np.cumsum(starts) - 1]
    km = np.zeros_like(m)
    km[p[((p - run_start) & 1) == 0]] = True
    return km


def _merge_step(seq: np.ndarray, codes, m: np.ndarray) -> np.ndarray:
    """One greedy-left merge step over the uint16 working array ``seq``:
    each kept match of ``m`` (``_greedy_left``) becomes its merge code in
    ``codes`` (uint16, one per pair) and drops its right element. The
    codes are blended in with uint16 mask ops and the array is compacted
    with one ``np.compress``, which beats boolean indexing once a pass
    drops more than a few percent of the elements."""
    km = _greedy_left(m)
    mask = km.view(np.uint8).astype(np.uint16)
    np.negative(mask, out=mask)  # 0xFFFF where kept, else 0
    head = seq[:-1]
    head &= ~mask
    head |= codes & mask
    keep = np.empty(len(seq), dtype=bool)
    keep[0] = True
    np.logical_not(km, out=keep[1:])
    return np.compress(keep, seq)


def _replace_pair(seq: np.ndarray, l: int, r: int, code: int) -> tuple[np.ndarray, int]:
    """Replace non-overlapping occurrences of adjacent pair (l, r) with `code`.
    Matches overlap only when l == r ("aa" in "aaaa"), and then the
    greedy-left rule keeps offsets 0, 2, ... of each run. One pair's matches
    are sparse, so they are scattered in and dropped by boolean indexing,
    which is fastest when almost every element is kept."""
    if len(seq) < 2:
        return seq, 0
    m = seq[:-1] == l
    m &= seq[1:] == r
    p = np.flatnonzero(_greedy_left(m) if l == r else m)
    if len(p) == 0:
        return seq, 0
    keep = np.ones(len(seq), dtype=bool)
    keep[p + 1] = False
    seq[p] = code
    return seq[keep], len(p)


class FsstTable:
    """Trained symbol table: ordered merge list + output-code assignment."""

    __slots__ = ("merges", "code_map", "code_syms")

    def __init__(self, merges: list[tuple[int, int]], code_map: np.ndarray, code_syms: list[bytes]):
        self.merges = merges
        self.code_map = code_map  # int16[512]: working value -> output code, -1 = escape
        self.code_syms = code_syms  # output code -> expansion bytes

    def to_record(self) -> dict:
        """The JSON form a run record keeps, from which ``from_record``
        rebuilds the code map and symbols exactly: the merges as hex of
        little-endian uint16 (left, right) pairs and the literal bytes that
        got output codes as hex. Every query loads the run record, and two
        hex strings parse in microseconds where the same lists of ints took
        ~0.1 ms per load."""
        lits = np.flatnonzero(self.code_map[:256] >= 0).astype(np.uint8)
        return {"merges": np.asarray(self.merges, dtype="<u2").tobytes().hex(),
                "literals": lits.tobytes().hex()}

    @classmethod
    def from_record(cls, rec: dict) -> "FsstTable":
        pairs = np.frombuffer(bytes.fromhex(rec["merges"]), dtype="<u2").reshape(-1, 2)
        return _build_table([(int(l), int(r)) for l, r in pairs],
                            np.frombuffer(bytes.fromhex(rec["literals"]), dtype=np.uint8))


_SAMPLE_CAP = 1 << 17  # payload bytes one table is trained on


def train(
    data: bytes, max_merges: int = _MAX_MERGES, sample_cap: int = _SAMPLE_CAP, round_size: int = 8
) -> FsstTable:
    """Train a symbol table by byte-pair merging on a bounded sample.

    Merges are committed in ROUNDS of up to ``round_size`` pairs per
    pair-count pass: counting the adjacent pairs and ranking the candidates
    is the expensive step, so amortising it over several merges cuts
    training ~3x. A round ranks only the candidate pairs (count >=
    ``min_count``), by count descending then pair key ascending, so it
    costs time in the number of candidates, not the 512x512 pair space,
    and the table is deterministic. Within a round the counts go slightly
    stale (an earlier replace can shrink a later pair's true count),
    costing <1% compression vs strictly-greedy BPE (measured)."""
    sample = _sample_bytes(data, sample_cap)
    seq = np.frombuffer(sample, dtype=np.uint8).astype(np.uint16)
    sym_len = np.ones(_ALPHA, dtype=np.int64)  # working value -> symbol byte length
    merges: list[tuple[int, int]] = []
    min_count = max(4, len(seq) // (1 << 16))
    while len(merges) < max_merges and len(seq) >= 2:
        key = seq[:-1].astype(np.int32) * _ALPHA + seq[1:]
        counts = np.bincount(key)
        # rank only the candidate pairs (count >= min_count), by count
        # descending then pair key ascending: a unique rank, so ties have
        # a defined order and the top 64 are exact
        cand = np.flatnonzero(counts >= min_count)
        rank = cand - counts[cand].astype(np.int64) * (_ALPHA * _ALPHA)
        if len(cand) > 64:
            keep = np.argpartition(rank, 63)[:64]
            cand, rank = cand[keep], rank[keep]
        top = cand[np.argsort(rank)]
        # best pairs whose merged symbols stay within 8 bytes
        round_pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        for k in top:
            if len(round_pairs) >= round_size:
                break
            l, r = divmod(int(k), _ALPHA)
            if l in used or r in used:
                continue  # symbol-disjoint rounds keep the stale counts honest
            if sym_len[l] + sym_len[r] <= _MAX_SYMBOL_LEN:
                round_pairs.append((l, r))
                used.update((l, r))
        if not round_pairs:
            break
        any_rep = False
        for l, r in round_pairs:
            if len(merges) >= max_merges:
                break
            code = 256 + len(merges)
            seq, n_rep = _replace_pair(seq, l, r, code)
            if n_rep == 0:
                continue
            sym_len[code] = sym_len[l] + sym_len[r]
            merges.append((l, r))
            any_rep = True
        if not any_rep:
            break
    # output-code assignment: all merge codes, then most frequent literals
    freqs = np.bincount(seq, minlength=_ALPHA)
    lit_vals = np.nonzero(freqs[:256] > 0)[0]
    slots = 255 - len(merges)
    if len(lit_vals) > slots:
        order = np.argsort(freqs[lit_vals], kind="stable")[::-1]
        lit_vals = np.sort(lit_vals[order[:slots]])
    return _build_table(merges, lit_vals)


def _build_table(merges: list[tuple[int, int]], lit_vals: np.ndarray) -> FsstTable:
    """The table whose codes are the ``merges`` in order, then the sorted
    literal bytes ``lit_vals``."""
    exp: list[bytes] = [bytes([v]) for v in range(256)] + [b""] * 256
    for i, (l, r) in enumerate(merges):
        exp[256 + i] = exp[l] + exp[r]
    m = len(merges)
    code_map = np.full(_ALPHA, -1, dtype=np.int16)
    code_syms: list[bytes] = []
    for i in range(m):
        code_map[256 + i] = i
        code_syms.append(exp[256 + i])
    for j, v in enumerate(lit_vals):
        code_map[v] = m + j
        code_syms.append(exp[v])
    return FsstTable(merges, code_map, code_syms)


def _sample_bytes(data: bytes, cap: int) -> bytes:
    if len(data) <= cap:
        return data
    n_chunks = 8
    chunk = cap // n_chunks
    stride = (len(data) - chunk) // max(1, n_chunks - 1)
    return b"".join(data[i * stride : i * stride + chunk] for i in range(n_chunks))


def _pairmap(merges: list[tuple[int, int]]) -> np.ndarray:
    """Pair key ``l * 512 + r`` -> merge code (uint16; 0 = no merge: every
    merge code is >= 256)."""
    pm = np.zeros(_ALPHA * _ALPHA, dtype=np.uint16)
    for i, (l, r) in enumerate(merges):
        pm[l * _ALPHA + r] = 256 + i
    return pm


def _lit_table(pm: np.ndarray) -> np.ndarray:
    """Literal-literal sub-table of the pairmap: key = l*256+r (128 KB)."""
    return np.ascontiguousarray(pm.reshape(_ALPHA, _ALPHA)[:256, :256]).reshape(-1)


def _replace_pass0(seq: np.ndarray, lit: np.ndarray) -> np.ndarray:
    """First generation fast path: all values are literals (<256), so the pair
    key fits uint16 and the lookup table is cache-resident."""
    if len(seq) < 2:
        return seq
    codes = lit.take((seq[:-1] << np.uint16(8)) | seq[1:])
    m = codes != 0
    if not m.any():
        return seq
    return _merge_step(seq, codes, m)


def _replace_all(seq: np.ndarray, pm: np.ndarray, max_passes: int = 8) -> np.ndarray:
    """Apply ALL pair merges simultaneously, a generation per pass.

    Each pass: one pair-key lookup finds every replaceable adjacent pair at
    once, and one dense greedy-left step (``_merge_step``) resolves the
    conflicts between adjacent matches and merges. Any greedy segmentation
    is decodable, so the replay does not need to replicate the training's
    sequential merge order — this is what makes encode O(passes * n)
    instead of O(merges * n)."""
    for _ in range(max_passes):
        if len(seq) < 2:
            break
        key = seq[:-1].astype(np.uint32)
        key <<= 9
        key |= seq[1:]
        codes = pm.take(key)
        m = codes != 0
        # early stop: late generations replace a vanishing fraction — the
        # memory traffic of another full pass isn't worth <1% extra matches
        if np.count_nonzero(m) < max(64, len(seq) // 100):
            break
        seq = _merge_step(seq, codes, m)
    return seq


_SLAB = 256 << 10  # compress in ~256 KB slabs: intermediates stay cache-resident


def compress(data: bytes, table: FsstTable, slab_size: int = _SLAB) -> bytes:
    """Slab-wise FSST encode.

    Examples
    --------
    >>> data = b"the quick brown fox " * 100
    >>> t = train(data)
    >>> enc = compress(data, t)
    >>> len(enc) < len(data) // 2
    True
    >>> decompress(enc, t.code_syms) == data
    True
    

    The merge passes write several times the input's bytes in
    intermediates per pass (the uint16 working array, uint32 pair keys,
    uint16 codes and masks, byte masks, the compacted copy). Processed
    whole, a 20 MB column streams hundreds of MB through DRAM and concurrent
    encoders saturate the node's memory bandwidth — measured with the
    earlier int32-table kernel as encode running SLOWER at 32 CPUs than at
    8. Slabbing keeps the whole working set in
    cache, so DRAM sees roughly input+output only and the stage scales with
    cores. Cost: pair matches cannot span slab boundaries (<0.2% size).
    Concatenated slab streams decode as one stream (escape pairs never span
    a boundary)."""
    if len(data) == 0:
        return b""
    payload, _ = compress_slabbed(data, table, slab_size)
    return payload


def compress_slabbed(
    data: bytes, table: FsstTable, slab_size: int = _SLAB
) -> tuple[bytes, list[list[int]]]:
    """Slab-wise encode returning (payload, [[enc_len, dec_len], ...]) so
    decode can also work slab-by-slab (cache-resident both ways)."""
    if len(data) == 0:
        return b"", []
    pm = _pairmap(table.merges)
    lit = _lit_table(pm)
    raw = np.frombuffer(data, dtype=np.uint8)
    parts = []
    slabs: list[list[int]] = []
    for off in range(0, len(raw), slab_size):
        chunk = raw[off : off + slab_size]
        seq = chunk.astype(np.uint16)
        seq = _replace_pass0(seq, lit)
        seq = _replace_all(seq, pm)
        codes = table.code_map.take(seq)
        esc = np.flatnonzero(codes < 0)
        # an uncovered literal's code -1 casts to the escape byte 255
        out = np.insert(codes.astype(np.uint8), esc + 1, seq[esc].astype(np.uint8))
        parts.append(out.tobytes())
        slabs.append([len(parts[-1]), len(chunk)])
    return b"".join(parts), slabs


def decompress(payload: bytes, code_syms: list[bytes], slabs: list[list[int]] | None = None) -> bytes:
    """Decode a payload; with ``slabs`` metadata, one ``take`` per slab. The
    per-slab take keeps its output offsets cache-resident: on 13.7 MB of
    synth transcript text (53 slabs, one core) slab-wise takes plus the
    joining copy took 51 ms, one take over the whole payload 74 ms. A legacy
    payload without slabs decodes as one stream of at most 8 output bytes
    per payload byte, so its expansions go 64-bit past 2**31-1 bytes."""
    if not slabs:
        large = _MAX_SYMBOL_LEN * len(payload) > _BINARY_MAX
        return _decompress_one(payload, _expansion_tables(code_syms, large)).to_pybytes()
    tables = _expansion_tables(code_syms, max(d for _, d in slabs) > _BINARY_MAX)
    parts = []
    off = 0
    for enc_len, _dec_len in slabs:
        parts.append(_decompress_one(payload[off : off + enc_len], tables))
        off += enc_len
    return b"".join(parts)


_BINARY_MAX = 2**31 - 1
_LITERALS = [bytes([v]) for v in range(256)]


def _expansion_tables(code_syms: list[bytes], large: bool = False) -> pa.Array:
    """The 511 expansions as one binary array, indexed by decode id: ids
    0..254 are the code symbols (padded with ``b""`` when the table has
    fewer than 255 codes), ids 255..510 are the literal bytes 0..255."""
    syms = list(code_syms) + [b""] * (255 - len(code_syms)) + _LITERALS
    return pa.array(syms, type=pa.large_binary() if large else pa.binary())


def _decode_ids(payload: bytes) -> np.ndarray:
    """Payload bytes -> expansion ids. An escape control (the even offsets
    of each run of 255-bytes) becomes 255 + its literal byte, and the
    literal byte itself is dropped; every other byte is its own id."""
    b = np.frombuffer(payload, dtype=np.uint8)
    pos255 = np.flatnonzero(b == _ESCAPE)
    if len(pos255) == 0:
        return b  # take accepts uint8 indices: no widening copy
    starts_mask = np.empty(len(pos255), dtype=bool)
    starts_mask[0] = True
    np.not_equal(np.diff(pos255), 1, out=starts_mask[1:])
    run_start = pos255[starts_mask][np.cumsum(starts_mask) - 1]
    ctrl = pos255[((pos255 - run_start) & 1) == 0]
    ids = b.astype(np.uint16)
    ids[ctrl] += b[ctrl + 1]
    keep = np.ones(len(b), dtype=bool)
    keep[ctrl + 1] = False
    return ids[keep]


def _decompress_one(payload: bytes, tables: pa.Array) -> pa.Buffer:
    """Decode one slab stream (or any concatenation of them): the data
    buffer of ``tables.take(ids)``, cut at its last offset (zero-copy,
    bytes-like)."""
    out = tables.take(_decode_ids(payload))
    data = out.buffers()[2]
    if len(out) == 0 or data is None:
        return pa.py_buffer(b"")
    off_dt = np.int64 if pa.types.is_large_binary(out.type) else np.int32
    return data.slice(0, int(np.frombuffer(out.buffers()[1], dtype=off_dt)[len(out)]))


# --- column codec interface -------------------------------------------------


def enc_fsst(arr: pa.Array, table: FsstTable | None = None):
    """``table`` is the encode's table, trained once per encode and recorded
    in ``_run.json``, or the one the cost model trained on its sample when
    no table was recorded; ``None`` trains one on ``arr`` itself."""
    lens, data = str_parts(arr)
    if table is None:
        table = train(data)
    payload, slabs = compress_slabbed(data, table)
    lmeta, lbufs = enc_for(lens)
    sym_lens = [len(s) for s in table.code_syms]
    meta = {"lmeta": lmeta, "sym_lens": sym_lens, "slabs": slabs}
    sym_flat = b"".join(table.code_syms)
    return meta, [lbufs[0], sym_flat, payload]


def dec_fsst(meta, bufs, n):
    lens = dec_for(meta["lmeta"], [bufs[0]], n)
    code_syms = _split_syms(meta, bufs[1])
    data = decompress(bufs[2], code_syms, slabs=meta.get("slabs"))
    return str_build(lens, data)


def _split_syms(meta, sym_flat: bytes) -> list[bytes]:
    code_syms: list[bytes] = []
    off = 0
    for sl in meta["sym_lens"]:
        code_syms.append(sym_flat[off : off + sl])
        off += sl
    return code_syms


def dec_fsst_rows(meta, bufs, n, idx):
    """Rows ``idx`` decoded via FSST's random-access property (the paper's
    headline capability): string byte ranges map to 256 KB slabs through the
    recorded per-slab (enc_len, dec_len) pairs, and ONLY the slabs a selected
    string touches are decompressed. A sparse selection over a large container
    decodes a handful of slabs instead of the whole payload."""
    lens = dec_for(meta["lmeta"], [bufs[0]], n)
    if len(idx) == 0:
        return str_build(np.zeros(0, dtype=np.int64), b"")
    slabs = meta.get("slabs")
    if not slabs:
        data = decompress(bufs[2], _split_syms(meta, bufs[1]), slabs=slabs)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        ls = lens[idx]
        return str_build(ls, gather_slices(np.frombuffer(data, dtype=np.uint8), offs[idx], ls))
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    starts, ls = offs[idx], lens[idx]
    enc_lens = np.array([s[0] for s in slabs], dtype=np.int64)
    dec_lens = np.array([s[1] for s in slabs], dtype=np.int64)
    dec_ends = np.cumsum(dec_lens)
    dec_starts = dec_ends - dec_lens
    enc_ends = np.cumsum(enc_lens)
    enc_starts = enc_ends - enc_lens
    n_slabs = len(slabs)
    nz = ls > 0
    s_lo = np.searchsorted(dec_ends, starts[nz], side="right")
    s_hi = np.searchsorted(dec_ends, starts[nz] + ls[nz] - 1, side="right")
    # keep every slab each selected string spans (ranges merge into runs, so a
    # spanning string stays contiguous in the concatenated decode below)
    mark = np.zeros(n_slabs + 1, dtype=np.int64)
    np.add.at(mark, s_lo, 1)
    np.add.at(mark, s_hi + 1, -1)
    kept = np.nonzero(np.cumsum(mark[:n_slabs]) > 0)[0]
    tables = _expansion_tables(_split_syms(meta, bufs[1]))
    parts = []
    shift = np.zeros(n_slabs, dtype=np.int64)  # orig dec offset -> concat offset
    off = 0
    for si in kept:
        parts.append(_decompress_one(bufs[2][enc_starts[si] : enc_ends[si]], tables))
        shift[si] = off - dec_starts[si]
        off += dec_lens[si]
    concat = np.frombuffer(b"".join(parts), dtype=np.uint8)
    tr_starts = np.zeros(len(idx), dtype=np.int64)
    tr_starts[nz] = starts[nz] + shift[s_lo]
    return str_build(ls, gather_slices(concat, tr_starts, ls))
