"""Per-container Bloom filters for point-lookup pruning on HIGH-cardinality
columns.

Zone maps prune range predicates and the dictionary probe prunes ``==`` /
``in`` on LOW-cardinality (dict-encoded) columns — but an equality lookup on
a high-cardinality key (conversation id, document id, order key) over a
store not hash-routed on that key (range-clustered layouts, secondary keys)
has nothing to prune with: the value's bounds span every container. The
classic columnar answer (Parquet's split-block Bloom filters, public format
spec; ORC bloom streams) is a per-container Bloom filter: ~10 bits per
distinct value buys a ~1% false-positive rate, so a point lookup opens ~1%
of containers instead of all of them.

Layout: filter bytes are written as an extra section between the column
buffers and the footer; the footer's ``blooms`` map records per column
``{offset, len, crc32, m, k, nd, algo}``. Readers that predate blooms
ignore both (column offsets are explicit), and stores that predate blooms
simply have no ``blooms`` entry — the probe passes everything through.

Hashing MUST match across encode and probe: values go through the same
version-pinned hashes the partitioner uses (``partition.stable_hash_ints``
/ ``stable_hash_strings`` — pure numpy over Arrow buffers, no interpreter
salt), then k indices derive by double hashing (Kirsch–Mitzenmacher):
``idx_i = (h + i * ((h >> 33) | 1)) mod m`` with m a power of two.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from .partition import stable_hash_ints, stable_hash_strings

BLOOM_BITS_PER_VALUE = 10  # ~0.8% fpr at the optimal k=7
BLOOM_MIN_BITS = 1 << 9  # 64 B floor: tiny containers still round-trip
BLOOM_MAX_BITS = 1 << 24  # 2 MiB cap per column per container
BLOOM_ALGO = "km-poly64-v1"  # bump if hashing or indexing ever changes


def _is_strlike(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


def bloom_supported(t: pa.DataType) -> bool:
    """Equality-lookup types: integers and string/binary. Floats and
    timestamps are range-query material — zone maps already serve them."""
    return pa.types.is_integer(t) or _is_strlike(t)


def _column_hashes(col: "pa.Array | pa.ChunkedArray") -> np.ndarray | None:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = col.drop_null()  # NULL never equals anything; keep it out
    if len(col) == 0:
        return None
    t = col.type
    if pa.types.is_integer(t):
        return stable_hash_ints(col.cast(pa.int64()))
    if _is_strlike(t):
        return stable_hash_strings(col)
    return None


def value_hashes(vals: list) -> np.ndarray | None:
    """Hash probe LITERALS exactly as ``_column_hashes`` hashed the column
    (per-type dispatch — ``str(b'x')`` would hash the repr and miss).
    None = not uniformly hashable; callers must not prune."""
    from .partition import hash_conv_values

    return hash_conv_values([v for v in vals if v is not None]) if vals else None


def typed_value_hashes(vals: list, type_str: str) -> np.ndarray | None:
    """Hash probe literals in the COLUMN's hashing domain (the footer records
    each bloom column's type): ``_column_hashes`` hashed an int column via
    ``stable_hash_ints`` and a string/binary column via ``stable_hash_strings``
    regardless of what Python type the probe literal arrives as. Dispatching
    on the literal's Python type instead (``value_hashes``) would hash an int
    literal probing a string column into the wrong domain and falsely prune.
    Returns None when a literal can't be soundly coerced to the column's
    family — the caller must then skip bloom pruning for that clause."""
    from .codecs import str_to_type

    vals = [v for v in vals if v is not None]
    if not vals:
        return np.empty(0, dtype=np.uint64)
    try:
        t = str_to_type(type_str)
    except Exception:
        return None
    if pa.types.is_integer(t):
        ints: list[int] = []
        for v in vals:
            if isinstance(v, bool):
                return None
            if isinstance(v, (int, np.integer)):
                ints.append(int(v))
                continue
            try:  # the exact filter coerces "5"/5.0 -> 5; mirror it
                iv = pa.scalar(v).cast(pa.int64()).as_py()
            except (pa.ArrowInvalid, pa.ArrowTypeError,
                    pa.ArrowNotImplementedError, OverflowError, ValueError):
                return None
            if iv is None:
                return None
            ints.append(int(iv))
        return stable_hash_ints(pa.array(ints, pa.int64()))
    if _is_strlike(t):
        # str and bytes literals hash identically (same payload buffer);
        # any other family differs from the column — refuse to prune
        if not all(isinstance(v, (str, bytes, bytearray)) for v in vals):
            return None
        enc = [v.encode() if isinstance(v, str) else bytes(v) for v in vals]
        return stable_hash_strings(pa.array(enc, pa.binary()))
    return None


def _indices(h: np.ndarray, k: int, m: int) -> np.ndarray:
    """(len(h), k) bit indices by double hashing; m must be a power of two."""
    h = h.astype(np.uint64, copy=False)
    step = (h >> np.uint64(33)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    return (h[:, None] + i[None, :] * step[:, None]) & np.uint64(m - 1)


def _bloom_from_hashes(hu: np.ndarray) -> "tuple[bytes, dict]":
    """Bloom bytes + footer meta from a DISTINCT hash array (shared by the
    value blooms and the token blooms — same sizing, same double hashing)."""
    nd = int(hu.size)
    m = BLOOM_MIN_BITS
    while m < nd * BLOOM_BITS_PER_VALUE and m < BLOOM_MAX_BITS:
        m <<= 1
    k = max(1, min(8, round(m / nd * 0.693))) if nd else 1
    idx = _indices(hu, k, m).ravel()
    bits = np.zeros(m >> 3, dtype=np.uint8)
    np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                     (np.uint64(1) << (idx & np.uint64(7))).astype(np.uint8))
    return bits.tobytes(), {"m": int(m), "k": int(k), "nd": nd, "algo": BLOOM_ALGO}


def build_bloom(col: "pa.Array | pa.ChunkedArray") -> "tuple[bytes, dict] | None":
    """Bloom bytes + footer meta for one column of one (sorted) partition
    table. None when the type is unsupported or the column is all-null."""
    h = _column_hashes(col)
    if h is None:
        return None
    return _bloom_from_hashes(np.unique(h))  # size by DISTINCT values


def bloom_may_contain(bits: bytes, meta: dict, h: np.ndarray) -> np.ndarray:
    """Per-value may-contain mask (no false negatives). Unknown ``algo``
    versions answer all-True — never unsound, only unpruned."""
    if meta.get("algo") != BLOOM_ALGO:
        return np.ones(len(h), dtype=bool)
    m, k = int(meta["m"]), int(meta["k"])
    arr = np.frombuffer(bits, dtype=np.uint8)
    idx = _indices(h, k, m)
    probes = (arr[(idx >> np.uint64(3)).astype(np.int64)]
              >> (idx & np.uint64(7)).astype(np.uint8)) & 1
    return probes.all(axis=1)


def build_blooms(table: pa.Table, bloom_cols) -> "dict[str, tuple[bytes, dict]]":
    out: dict[str, tuple[bytes, dict]] = {}
    for name in bloom_cols:
        if name not in table.column_names:
            continue
        built = build_bloom(table.column(name))
        if built is not None:
            out[name] = built
    return out


# --- token blooms (full-text containment pruning) ------------------------------
#
# A value bloom answers "may this container hold value V"; a TOKEN bloom
# answers "may any row's TEXT contain word W" — the pruning lever for the
# ``hastok`` predicate (full-text search over an encoded store). Tokens are
# maximal runs of lowercase ASCII alphanumerics after Unicode lowercasing
# (``[a-z0-9]+`` on ``utf8_lower(text)``; ``lower_text`` computes that
# lowercasing with the ~10x cheaper ``ascii_lower`` whenever the text's
# bytes are all ASCII, where the two agree byte for byte, and with
# ``utf8_lower`` otherwise); the filter is built over the
# container's DISTINCT tokens and stored in the same footer ``blooms`` map
# under the reserved key ``"tok:<column>"`` (colons never appear in column
# names this engine writes), so the container format is unchanged and
# pre-token readers skip the extra section for free. The meta entry carries
# ``tok: TOKENIZER_ALGO`` so a probe refuses (answers may-match) across
# tokenizer versions — never unsound, only unpruned.

TOKENIZER_ALGO = "lower-ascii-alnum-v1"  # bump if tokenization ever changes
_TOKEN_SPLIT = "[^a-z0-9]+"
TOKEN_KEY_PREFIX = "tok:"


def lower_text(col: "pa.Array | pa.ChunkedArray") -> "pa.Array | pa.ChunkedArray":
    """``pc.utf8_lower(col)``, byte for byte. When the value bytes of a
    string array are all below 0x80, ``pc.ascii_lower`` gives the same
    output (Unicode lowercasing maps ASCII to ASCII and only non-ASCII to
    non-ASCII) at about a tenth of the cost. The check is one ``max`` over
    the bytes between the array's first and last offsets; bytes a null slot
    hides can only force the Unicode path, never a wrong answer. Chunked
    arrays are folded chunk by chunk; other types go to ``utf8_lower``."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array([lower_text(c) for c in col.chunks], type=col.type)
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        off_dt = np.int64 if pa.types.is_large_string(col.type) else np.int32
        _, offs, data = col.buffers()
        lo, hi = np.frombuffer(offs, dtype=off_dt)[[col.offset, col.offset + len(col)]]
        if hi == lo or np.frombuffer(data, dtype=np.uint8)[lo:hi].max() < 0x80:
            return pc.ascii_lower(col)
    return pc.utf8_lower(col)


def query_tokens(text: str) -> list[str]:
    """Tokenize a probe string exactly as ``column_tokens`` tokenizes column
    values (lowercase, split on non-alphanumerics, drop empties); order kept,
    duplicates removed."""
    import re

    return list(dict.fromkeys(t for t in re.split(_TOKEN_SPLIT, text.lower()) if t))


def column_tokens(col: "pa.Array | pa.ChunkedArray") -> "pa.Array | None":
    """Flat token array (with duplicates) of a string column, vectorized via
    Arrow kernels. None for non-string or all-null columns."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        return None
    if col.null_count:
        col = col.drop_null()
    if len(col) == 0:
        return pa.array([], pa.string())
    parts = pc.split_pattern_regex(lower_text(col), pattern=_TOKEN_SPLIT)
    flat = pc.list_flatten(parts)
    return flat.filter(pc.not_equal(flat, ""))


def hastok_mask(col: "pa.Array | pa.ChunkedArray", query: str):
    """Exact per-row mask for the ``hastok`` predicate: True when the row's
    text contains EVERY query token as a whole token. Vectorized as one RE2
    match per token over the lowercased column — the boundary class
    ``(^|[^a-z0-9])tok([^a-z0-9]|$)`` is exactly the split class the
    tokenizer uses, so the mask agrees with token membership bit-for-bit
    (and with a SQL ``regexp_matches(lower(col), ...)`` oracle, since DuckDB
    and Arrow both run RE2). Nulls come back null (the caller's
    ``fill_null(False)`` applies SQL semantics)."""
    import re

    import pyarrow.compute as pc

    toks = query_tokens(query)
    lower = lower_text(col)
    mask = None
    for t in toks:
        pat = "(^|[^a-z0-9])" + re.escape(t) + "([^a-z0-9]|$)"
        m = pc.match_substring_regex(lower, pattern=pat)
        mask = m if mask is None else pc.and_kleene(mask, m)
    return mask


def hasphrase_mask(col: "pa.Array | pa.ChunkedArray", query: str):
    """Exact per-row mask for the ``hasphrase`` predicate: True when the
    row's text contains the query tokens CONSECUTIVELY (adjacent tokens, any
    separators between them). One RE2 match over the lowercased column:
    ``(^|[^a-z0-9])t1[^a-z0-9]+t2...([^a-z0-9]|$)``. A one-token phrase is
    exactly ``hastok``. Nulls come back null."""
    import re

    import pyarrow.compute as pc

    toks = query_tokens(query)
    if not toks:
        return None
    pat = ("(^|[^a-z0-9])"
           + "[^a-z0-9]+".join(re.escape(t) for t in toks)
           + "([^a-z0-9]|$)")
    return pc.match_substring_regex(lower_text(col), pattern=pat)


def hasany_mask(col: "pa.Array | pa.ChunkedArray", query: str):
    """Exact per-row mask for the ``hasany`` predicate: True when the row's
    text contains AT LEAST ONE query token as a whole token (the disjunctive
    dual of ``hastok``). One RE2 alternation pass per batch regardless of
    token count: ``(^|[^a-z0-9])(t1|t2|...)([^a-z0-9]|$)`` — the boundary
    class is exactly the tokenizer's split class, so the mask agrees with
    token membership bit-for-bit (and with a DuckDB ``regexp_matches``
    oracle over the same pattern). Nulls come back null."""
    import re

    import pyarrow.compute as pc

    toks = query_tokens(query)
    if not toks:
        return None
    pat = ("(^|[^a-z0-9])("
           + "|".join(re.escape(t) for t in toks)
           + ")([^a-z0-9]|$)")
    return pc.match_substring_regex(lower_text(col), pattern=pat)


def build_token_bloom(col: "pa.Array | pa.ChunkedArray") -> "tuple[bytes, dict] | None":
    """Token bloom bytes + footer meta for one string column of one
    partition table. None when the column is non-string or yields no
    tokens (an empty filter would prune every probe — unsound)."""
    toks = column_tokens(col)
    if toks is None or len(toks) == 0:
        return None
    h = stable_hash_strings(toks)
    bits, meta = _bloom_from_hashes(np.unique(h))
    meta["tok"] = TOKENIZER_ALGO
    return bits, meta


def build_token_blooms(table: pa.Table, text_bloom_cols) -> "dict[str, tuple[bytes, dict]]":
    """``{"tok:<col>": (bits, meta)}`` entries ready to merge into the
    container's ``blooms`` map alongside the value blooms."""
    out: dict[str, tuple[bytes, dict]] = {}
    for name in text_bloom_cols:
        if name not in table.column_names:
            continue
        built = build_token_bloom(table.column(name))
        if built is not None:
            out[TOKEN_KEY_PREFIX + name] = built
    return out


def bloom_probe_footer(path: str, footer: dict, clauses, verify_crc: bool = False) -> bool:
    """True when the container may hold matches: for every ``==`` / ``in``
    conjunct whose column has a Bloom filter here, at least one wanted value
    must pass the filter, and for every ``hastok``/``hasphrase`` conjunct
    whose column has a TOKEN bloom, every query token must pass it. Filter bytes are
    RANGED-read (KB on any container size); columns without filters or
    un-hashable literals never prune."""
    blooms = footer.get("blooms") or {}
    if not blooms:
        return True
    eq = [(c, op, v) for c, op, v in clauses if op in ("==", "in") and c in blooms]
    # hasphrase prunes on the SAME token blooms: a row containing the
    # phrase necessarily contains every phrase token, so "some phrase
    # token provably absent" rules the container out. hasany is the
    # disjunctive dual: prune only when EVERY token is provably absent.
    tok = [(c, op, v) for c, op, v in clauses
           if op in ("hastok", "hasphrase", "hasany")
           and TOKEN_KEY_PREFIX + c in blooms]
    if not eq and not tok:
        return True
    col_types = {c["name"]: c["type"] for c in footer.get("columns", [])}
    with open(path, "rb") as f:
        for col, op, val in eq:
            ent = blooms[col]
            wanted = [val] if op == "==" else list(val)
            # hash in the COLUMN's domain (footer type), never the literal's
            # Python type: the exact filter coerces literals to the column
            # type, so an int probing a string bloom must coerce or skip —
            # dispatching on the literal would falsely prune matching rows
            h = typed_value_hashes(wanted, col_types.get(col, ""))
            if h is None or len(h) == 0:
                continue  # un-coercible literals: the exact filter decides
            f.seek(int(ent["offset"]))
            bits = f.read(int(ent["len"]))
            if verify_crc and (zlib.crc32(bits) & 0xFFFFFFFF) != ent.get("crc32"):
                raise ValueError(f"bloom crc mismatch for column {col!r} in {path}")
            if not bool(bloom_may_contain(bits, ent, h).any()):
                return False
        for col, op, val in tok:
            ent = blooms[TOKEN_KEY_PREFIX + col]
            if ent.get("tok") != TOKENIZER_ALGO:
                continue  # other tokenizer version: may-match, never unsound
            toks = query_tokens(val if isinstance(val, str) else str(val))
            if not toks:
                continue
            # hastok/hasphrase are conjunctive over their tokens: EVERY
            # token must pass the filter or no row in this container can
            # match. hasany needs only SOME token to pass.
            h = stable_hash_strings(pa.array(toks, pa.string()))
            f.seek(int(ent["offset"]))
            bits = f.read(int(ent["len"]))
            if verify_crc and (zlib.crc32(bits) & 0xFFFFFFFF) != ent.get("crc32"):
                raise ValueError(f"token bloom crc mismatch for column {col!r} in {path}")
            hits = bloom_may_contain(bits, ent, h)
            if not bool(hits.any() if op == "hasany" else hits.all()):
                return False
    return True
