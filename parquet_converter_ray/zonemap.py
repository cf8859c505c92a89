"""Zone maps: per-column min/max/null statistics captured at encode time.

Every partition's container footer and lineage record gain a ``stats`` map
(``column -> {min, max, nulls, t[, approx]}``), computed once on the sorted
partition table right before packing. They power two at-scale features:

* ``store_profile`` — profile a store from MANIFEST METADATA ONLY: global
  per-column bounds, null counts, codec mix, rows/bytes/ratio. Kilobytes of
  JSON reads regardless of store size (the 100 TB answer to "what is in
  here?" — no container is opened).
* ``scan_store`` — predicate-pushdown reads. Containers whose zone map
  proves no row can match are never opened; for ``==`` / ``in`` predicates
  on dict-encoded columns a second-level probe reads ONLY the dictionary
  buffers (footer tail seek + ranged reads, a few KB) and drops containers
  whose dictionary lacks the value — all before a single data buffer is
  decoded. Survivors stream through the normal pruned decode with the exact
  filter applied batch-wise — and with LATE MATERIALIZATION: predicate
  columns decode first, and when few rows match, the remaining columns are
  decoded at the matching rows only (``codecs.decode_array_rows`` — selective
  bit-field extraction, RLE run probes, dict code gathers, FSST slab
  skipping per the FSST paper's random-access design).

The design follows Parquet's row-group statistics (public format spec) at
container granularity; string bounds use the standard truncate-and-increment
trick so they stay conservative. The reference engine has no analogue — it
always rewrites and rereads whole files (reference converter.py, analyzer.py
read full tables for every question).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import str_to_type, type_to_str
from .codecs.strings import dec_plain_s
from .codecs.util import unwrap_buf

STR_BOUND_LEN = 64  # string zone-map bounds are truncated to this many chars

_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "between", "prefix", "hastok",
        "hasphrase", "hasany")


# --- bound helpers -----------------------------------------------------------


def _trunc_min(s: str) -> tuple[str, bool]:
    """Lower bound for a string: a prefix is always <= the full string."""
    if len(s) <= STR_BOUND_LEN:
        return s, False
    return s[:STR_BOUND_LEN], True


def _trunc_max(s: str) -> tuple[str | None, bool]:
    """Upper bound for a truncated string: increment the last code point of
    the prefix (skipping the surrogate gap). Returns (None, True) in the
    degenerate all-U+10FFFF case — an unbounded maximum."""
    if len(s) <= STR_BOUND_LEN:
        return s, False
    p = s[:STR_BOUND_LEN]
    for i in range(len(p) - 1, -1, -1):
        c = ord(p[i])
        if c < 0x10FFFF:
            nc = c + 1
            if 0xD800 <= nc <= 0xDFFF:
                nc = 0xE000
            return p[:i] + chr(nc), True
    return None, True


def _prefix_upper(p: str) -> "str | None":
    """Exclusive upper bound of the string interval with prefix ``p``:
    increment the last incrementable code point (skipping the surrogate
    gap); None in the degenerate all-U+10FFFF case (unbounded above)."""
    for i in range(len(p) - 1, -1, -1):
        c = ord(p[i])
        if c < 0x10FFFF:
            nc = c + 1
            if 0xD800 <= nc <= 0xDFFF:
                nc = 0xE000
            return p[:i] + chr(nc)
    return None


def _is_strlike(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _int_physical(t: pa.DataType) -> pa.DataType | None:
    """Integer view type for ordered non-float scalars (None = not integral)."""
    if pa.types.is_boolean(t) or pa.types.is_date32(t):
        return pa.int32()
    if pa.types.is_integer(t) or pa.types.is_timestamp(t) or pa.types.is_date64(t):
        return pa.int64()
    return None


def exact_int_sum(col: "pa.Array | pa.ChunkedArray") -> int:
    """Exact (arbitrary-precision) sum of a null-free int64 array.

    ``pc.sum``/``np.sum`` wrap silently past int64; splitting each value into
    its high/low 32-bit halves (two's-complement identity
    ``v == (v >> 32) << 32 | (v & 0xFFFFFFFF)``) keeps every partial sum
    within int64 for up to 2^31 rows per slice, and slicing bounds it for
    any length. Python ints carry the recombination exactly."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    v = col.to_numpy(zero_copy_only=False)
    total = 0
    step = 1 << 30
    for i in range(0, v.size, step):
        s = v[i : i + step]
        hi = int((s >> 32).sum(dtype=np.int64))
        lo = int((s & 0xFFFFFFFF).sum(dtype=np.int64))
        total += (hi << 32) + lo
    return total


def column_stats(
    table: pa.Table,
    codecs: dict[str, str] | None = None,
    bound_cols: "set[str] | frozenset[str] | None" = None,
) -> dict[str, dict]:
    """Per-column zone-map entries for one partition table.

    Numeric / timestamp / date / bool columns always get bounds (SIMD
    ``min_max``, integer domain stored for exact JSON round-trips; floats via
    ``nanmin`` so NaN rows — which never satisfy a comparison — don't poison
    the bounds). String columns get bounds only when dict-encoded: free text
    (fsst/plain) has useless bounds at real scale and ``min_max`` over it
    would rescan the heaviest payload. ``bound_cols`` overrides that gate —
    a range-cluster string column is range-bounded per partition BY LAYOUT,
    so its bounds are the whole point and get recorded whatever its codec.
    Binary columns record nulls only.
    """
    bound_cols = bound_cols or frozenset()
    out: dict[str, dict] = {}
    for name in table.column_names:
        col = table.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        ent: dict = {"nulls": int(col.null_count), "t": type_to_str(t)}
        mn = mx = None
        if len(col) > col.null_count:
            it = _int_physical(t)
            if it is not None:
                mm = pc.min_max(col.cast(it))
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
                if pa.types.is_integer(t):
                    # exact container SUM (hi/lo-split accumulation, never
                    # overflows): metadata-only sum aggregates (storeagg.py)
                    ent["sum"] = exact_int_sum(col.drop_null().cast(pa.int64()))
            elif pa.types.is_floating(t):
                # nulls surface as NaN in the numpy view, so real NaNs are
                # the isnan excess over null_count. NaN is a VALUE, not a
                # null: it fails every comparison predicate and poisons sums
                # — record its presence so the metadata layer (storeagg.py)
                # knows when bounds don't cover all rows
                v = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
                ent["nan"] = int(np.isnan(v).sum()) - int(col.null_count)
                with np.errstate(invalid="ignore"):
                    lo, hi = np.nanmin(v), np.nanmax(v)
                if not np.isnan(lo):
                    mn, mx = float(lo), float(hi)
                if ent["nan"] == 0:
                    s = float(np.nansum(v))  # nansum skips nulls-as-NaN
                    if np.isfinite(s):
                        ent["sum"] = s
            elif _is_strlike(t) and (codecs is None or codecs.get(name) == "dict" or name in bound_cols):
                mm = pc.min_max(col)
                mn, lo_approx = _trunc_min(mm["min"].as_py())
                mx, hi_approx = _trunc_max(mm["max"].as_py())
                if lo_approx or hi_approx:
                    ent["approx"] = True
        ent["min"], ent["max"] = mn, mx
        out[name] = ent
    return out


PAGE_ROWS = 65_536  # page-stat granularity inside one container


def page_stats(table: pa.Table, rows_per_page: int = PAGE_ROWS) -> dict | None:
    """Per-PAGE min/max for numeric / temporal / bool columns of one sorted
    partition table — the container-footer analogue of Parquet's page index
    (public format spec). ``scan_store`` uses them to prune ROW RANGES inside
    a candidate container on predicates over NON-lead columns, where the
    sorted-lead binary search can't help.

    Values live in the same physical domain the partition zone maps use
    (ints for int/bool/timestamp/date via ``_int_physical``, float64 for
    floats) so the same ``_coerce`` applies. Columns with nulls are skipped
    (a page's nulls would poison its bounds; skipping only costs pruning);
    all-NaN float pages record None (= may match anything). Strings/binary
    are skipped — per-page ``min_max`` over the heaviest payload at encode
    time is the wrong trade. Returns None when the table fits in one page."""
    n = table.num_rows
    if n <= rows_per_page:
        return None
    starts = np.arange(0, n, rows_per_page, dtype=np.int64)
    cols: dict[str, dict] = {}
    for name in table.column_names:
        col = table.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            continue
        t = col.type
        it = _int_physical(t)
        if it is not None:
            v = col.cast(it).to_numpy(zero_copy_only=False)
            mins = np.minimum.reduceat(v, starts)
            maxs = np.maximum.reduceat(v, starts)
            cols[name] = {
                "t": type_to_str(t),
                "min": [int(x) for x in mins],
                "max": [int(x) for x in maxs],
            }
        elif pa.types.is_floating(t):
            v = col.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            with np.errstate(invalid="ignore"):
                mins = np.minimum.reduceat(v, starts)
                maxs = np.maximum.reduceat(v, starts)
                # NaN sorts into pages arbitrarily and poisons reduceat; a
                # page containing any NaN degrades to "no info"
                bad = np.isnan(mins) | np.isnan(maxs)
            cols[name] = {
                "t": type_to_str(t),
                "min": [None if b else float(x) for b, x in zip(bad, mins)],
                "max": [None if b else float(x) for b, x in zip(bad, maxs)],
            }
    if not cols:
        return None
    return {"rows_per_page": int(rows_per_page), "cols": cols}


def page_candidate_mask(pages: dict, n: int, clauses) -> "np.ndarray | None":
    """Boolean may-match mask over a container's pages for the conjunction —
    False ONLY for pages provably free of matches. None when no clause column
    has page stats (nothing to prune on)."""
    info = pages.get("cols") or {}
    B = int(pages["rows_per_page"])
    npages = (n + B - 1) // B
    mask = np.ones(npages, dtype=bool)
    used = False
    for col, op, val in clauses:
        st = info.get(col)
        if st is None or len(st["min"]) != npages:
            continue
        isf = "float" in st["t"] or "double" in st["t"] or "halffloat" in st["t"]
        lo_fill, hi_fill = (-np.inf, np.inf) if isf else (-(2**63), 2**63 - 1)
        mins = np.array([lo_fill if m is None else m for m in st["min"]],
                        dtype=np.float64 if isf else np.int64)
        maxs = np.array([hi_fill if m is None else m for m in st["max"]],
                        dtype=np.float64 if isf else np.int64)
        try:
            if op == "in":
                vs = [_coerce(v, st["t"]) for v in val]
            elif op == "between":
                vs = [_coerce(val[0], st["t"]), _coerce(val[1], st["t"])]
            else:
                vs = [_coerce(val, st["t"])]
        except (TypeError, ValueError, pa.ArrowInvalid, pa.ArrowTypeError):
            continue
        if op == "==":
            m = (mins <= vs[0]) & (maxs >= vs[0])
        elif op == "<":
            m = mins < vs[0]
        elif op == "<=":
            m = mins <= vs[0]
        elif op == ">":
            m = maxs > vs[0]
        elif op == ">=":
            m = maxs >= vs[0]
        elif op == "between":
            m = (mins <= vs[1]) & (maxs >= vs[0])
        elif op == "in":
            m = np.zeros(npages, dtype=bool)
            for v in vs:
                m |= (mins <= v) & (maxs >= v)
        else:  # "!=" can't prune a page
            continue
        mask &= m
        used = True
    return mask if used else None


# --- predicates ---------------------------------------------------------------


def _hash_route_parts(out_dir: str, recs: list[dict], clauses) -> "set[int] | None":
    """Pruning level 0, the one partition router: the partitions that the
    rows matching one AND-branch ``clauses`` can live in, from ``==`` /
    ``in`` on the PARTITION column. ``part_id`` is a pure function of (key
    hash, salt chunk) under the parameters in ``_run.json``
    (``partition.salt_chunk_parts``), so every routable clause gives a
    partition set and, the clauses being AND-ed, the branch reaches only
    their intersection. Keys are cast to the column's recorded zone-map type
    before hashing, as the exact filter casts them (``_key_hashes``), and a
    clause whose keys do not cast is skipped. A salted store's salt chunks
    0..k_max are bounded by the ORDER column's zone-map maximum across
    ``recs`` (chunk k exists only if some row has order >= k*salt_rows), so
    sparse appended turn ranges are still reached. Scans (``route_pids``),
    ``lookup_conversation``, both deletes and ``store_join_dim``'s DPP route
    all call it.

    Returns None — route nothing, prune by statistics instead — when the
    branch has no routable clause, when the run record is missing, of
    another hash version or range-clustered (keys have no hash route
    there), and when the records predate zone maps (the key type, and on a
    salted store the chunk bound, are unknowable): never unsound."""
    import numpy as np

    from . import manifest as mf
    from .partition import HASH_VERSION, salt_chunk_parts

    params = mf.load_run_record(out_dir)
    if (not params or params.get("hash_version") != HASH_VERSION
            or (params.get("partition_mode") or "hash") != "hash"):
        return None
    conv_col = params.get("conv_col")
    ent = next((r["stats"][conv_col] for r in recs if conv_col in (r.get("stats") or {})), None)
    if ent is None:
        return None
    t = str_to_type(ent["t"])
    keys = [val if op == "in" else [val] for col, op, val in clauses
            if col == conv_col and op in ("==", "in")]
    hashes = [h for h in (_key_hashes(k, t) for k in keys) if h is not None]
    if not hashes:
        return None
    salt_rows = int(params.get("salt_rows") or 0)
    order_col = params.get("order_col")
    k_max = mf.order_chunk_bound(recs, order_col, salt_rows) if salt_rows and order_col else 0
    if k_max is None:
        return None
    chunks = np.arange(k_max + 1, dtype=np.uint64)
    n_parts = int(params["n_parts"])
    return set.intersection(*(
        set(salt_chunk_parts(h[:, None], chunks, n_parts).ravel().tolist()) for h in hashes
    ))


def _key_hashes(vals: list, t: pa.DataType) -> "np.ndarray | None":
    """Partition hashes of key values ``vals`` cast to the key column's type
    ``t`` the way the exact filter casts them (``_pa_scalar``: str '123' on
    an int key is 123, int 5 on a string key is '5'), hashed like the column
    itself (``partition.key_hashes``) — a value's Python type never picks
    the hash. None when a value is null or does not cast."""
    from .partition import key_hashes

    arr = _cast_values(vals, t)
    return None if arr is None or arr.null_count else key_hashes(arr)


def route_pids(out_dir: str, recs: list[dict], dnf) -> "set[int] | None":
    """Level 0 over a DNF: a partition is reachable if ANY branch routes to
    it (``_hash_route_parts``); one unroutable branch — or no predicate —
    forfeits the level (None)."""
    if not dnf:
        return None
    pids: "set[int]" = set()
    for br in dnf:
        got = _hash_route_parts(out_dir, recs, br)
        if got is None:
            return None
        pids |= got
    return pids


def _normalize_dnf(predicate) -> list[list[tuple[str, str, object]]]:
    """Normalize a predicate into DNF: a list of OR-branches, each branch a
    conjunct list. Accepted forms: a plain conjunct list (one branch — the
    classic AND form every caller uses), or ``("or", [branch, ...])`` /
    ``{"or": [branch, ...]}`` where each branch is a conjunct list. A
    disjunction prunes a container only when EVERY branch proves no-match —
    exactly how Parquet/Iceberg expression pruning treats OR."""
    branches = None
    if isinstance(predicate, dict) and set(predicate) == {"or"}:
        branches = predicate["or"]
    elif (
        isinstance(predicate, tuple)
        and len(predicate) == 2
        and predicate[0] == "or"
    ):
        branches = predicate[1]
    if branches is None:
        return [_normalize(predicate)]
    out = [_normalize(b) for b in branches]
    if not out or any(not b for b in out):
        raise ValueError("'or' predicate needs at least one non-empty branch")
    return out


def _as_dnf(clauses) -> list[list[tuple[str, str, object]]]:
    """Internal: clause input that may already be normalized — either a flat
    conjunct list or a DNF list-of-branches — to the DNF form."""
    if not clauses:
        return []
    return clauses if isinstance(clauses[0], list) else [clauses]


def dnf_mask(table: pa.Table, dnf):
    """Boolean match mask for a DNF clause set (OR of AND-branches)."""
    mask = None
    for branch in _as_dnf(dnf):
        m = predicate_mask(table, branch)
        if m is None:  # a branch with no conjuncts matches everything
            return None
        mask = m if mask is None else pc.or_(mask, m)
    return mask


def _normalize(predicate) -> list[tuple[str, str, object]]:
    """Predicate = iterable of (column, op, value) conjuncts.

    ``in`` takes a list/tuple/set of values, ``between`` an inclusive
    (lo, hi) pair; everything is ANDed. Disjunctions go through
    ``_normalize_dnf``.
    """
    clauses = []
    for cl in predicate:
        col, op, val = cl
        if op not in _OPS:
            raise ValueError(f"unsupported predicate op {op!r}; one of {_OPS}")
        if op == "in":
            val = list(val)
            if not val:
                raise ValueError(f"empty 'in' list for column {col!r}")
        if op == "between":
            lo, hi = val
            val = (lo, hi)
        if op == "prefix" and not isinstance(val, str):
            raise ValueError(f"prefix predicate needs a str value, got {type(val)}")
        if op in ("hastok", "hasphrase", "hasany"):
            from .bloom import query_tokens

            if not isinstance(val, str):
                raise ValueError(f"{op} predicate needs a str value, got {type(val)}")
            if not query_tokens(val):
                raise ValueError(
                    f"{op} value {val!r} tokenizes to nothing "
                    "(tokens are [a-z0-9]+ runs after lowercasing)"
                )
        clauses.append((str(col), op, val))
    return clauses


def _coerce(value, type_str: str):
    """Coerce a predicate value into the zone-map's stored domain for one
    column: int for int/bool/timestamp/date (timestamps accept datetime or
    ISO strings), float for floats, str for strings."""
    t = str_to_type(type_str)
    if _is_strlike(t):
        if not isinstance(value, str):
            raise TypeError(f"string column predicate needs str, got {type(value)}")
        return value
    try:
        s = pa.scalar(value, type=t)
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
        s = pa.scalar(value).cast(t)
    if pa.types.is_floating(t):
        return float(s.as_py())
    it = _int_physical(t)
    if it is not None:
        return s.cast(it).as_py()
    return s.as_py()


def record_may_match(stats: dict, rows: int, clauses) -> bool:
    """Conservative zone-map check: False ONLY when no row in the partition
    can satisfy the conjunction (SQL semantics — NULL matches nothing)."""
    for col, op, val in clauses:
        st = stats.get(col)
        if st is None:
            continue  # column has no recorded stats -> cannot prune on it
        if rows and st.get("nulls", 0) >= rows:
            return False  # all-null column: no comparison predicate matches
        mn, mx = st.get("min"), st.get("max")
        if mn is None and mx is None:
            continue
        try:
            if op == "in":
                vs = [_coerce(v, st["t"]) for v in val]
            elif op == "between":
                vs = [_coerce(val[0], st["t"]), _coerce(val[1], st["t"])]
            else:
                vs = [_coerce(val, st["t"])]
        except (TypeError, ValueError, pa.ArrowInvalid, pa.ArrowTypeError):
            continue  # un-coercible value: don't prune, let the exact filter decide
        lo = mn if mn is not None else None
        hi = mx  # may be None (unbounded truncated max)
        if op == "==" and _outside(vs[0], lo, hi):
            return False
        if op == "!=" and lo is not None and hi is not None and lo == hi == vs[0]:
            if st.get("nulls", 0) == 0 and not st.get("approx"):
                return False
        if op == "<" and lo is not None and lo >= vs[0]:
            return False
        if op == "<=" and lo is not None and lo > vs[0]:
            return False
        if op == ">" and hi is not None and hi <= vs[0]:
            return False
        if op == ">=" and hi is not None and hi < vs[0]:
            return False
        if op == "in" and all(_outside(v, lo, hi) for v in vs):
            return False
        if op == "between":
            blo, bhi = vs
            if (hi is not None and blo > hi) or (lo is not None and bhi < lo):
                return False
        if op == "prefix" and isinstance(vs[0], str):
            # rows with prefix p live in [p, upper); truncated bounds stay
            # sound: recorded min <= true min and recorded max >= true max
            up = _prefix_upper(vs[0])
            if hi is not None and isinstance(hi, str) and hi < vs[0]:
                return False
            if lo is not None and isinstance(lo, str) and up is not None and lo >= up:
                return False
    return True


def record_all_match(stats: dict, rows: int, clauses) -> bool:
    """True ONLY when the zone map PROVES every row satisfies every conjunct
    (the dual of ``record_may_match``'s "no row can"). Conservative: any
    missing stat, null, NaN, un-coercible literal, or unprovable bound
    returns False — the container then simply scans."""
    if rows <= 0:
        return False
    for col, op, val in clauses:
        st = stats.get(col)
        if st is None or int(st.get("nulls", 0)) != 0:
            return False
        if st.get("nan"):  # NaN rows fail every comparison
            return False
        t = st.get("t", "")
        if ("float" in t or "double" in t) and "nan" not in st:
            return False  # pre-NaN-count container: presence unknowable
        mn, mx = st.get("min"), st.get("max")
        try:
            if op == "in":
                vs = [_coerce(v, st["t"]) for v in val]
            elif op == "between":
                vs = [_coerce(val[0], st["t"]), _coerce(val[1], st["t"])]
            else:
                vs = [_coerce(val, st["t"])]
        except (TypeError, ValueError, pa.ArrowInvalid, pa.ArrowTypeError):
            return False
        if op == "==":
            # approximate (truncated) bounds are OUTER bounds — widened
            # equality doesn't prove true equality
            if st.get("approx") or mn is None or mx is None or not (mn == vs[0] == mx):
                return False
        elif op == "!=":
            if not ((mx is not None and mx < vs[0]) or (mn is not None and mn > vs[0])):
                return False
        elif op == "<":
            if mx is None or not mx < vs[0]:
                return False
        elif op == "<=":
            if mx is None or not mx <= vs[0]:
                return False
        elif op == ">":
            if mn is None or not mn > vs[0]:
                return False
        elif op == ">=":
            if mn is None or not mn >= vs[0]:
                return False
        elif op == "between":
            if mn is None or mx is None or not (vs[0] <= mn and mx <= vs[1]):
                return False
        elif op == "in":
            if st.get("approx") or mn is None or not (mn == mx and mn in vs):
                return False
        elif op == "prefix":
            # rows with prefix p live exactly in [p, _prefix_upper(p));
            # containment proofs stay sound under widened (truncated)
            # bounds: widened ⊆ [p, up) ⇒ true ⊆ [p, up)
            if not isinstance(vs[0], str) or mn is None or mx is None:
                return False
            up = _prefix_upper(vs[0])
            if not (mn >= vs[0] and (up is None or mx < up)):
                return False
        else:
            # unknown op: never vacuously prove — force the scan path
            return False
    return True


def _outside(v, lo, hi) -> bool:
    if lo is not None and v < lo:
        return True
    if hi is not None and v > hi:
        return True
    return False


def _pa_scalar(value, t: pa.DataType) -> pa.Scalar:
    try:
        return pa.scalar(value, type=t)
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
        return pa.scalar(value).cast(t)


def _cast_values(vals: list, t: pa.DataType) -> "pa.Array | None":
    """Predicate literals ``vals`` as one Arrow array of type ``t``, cast
    the way ``_pa_scalar`` casts one literal for the exact filter (int 5 on
    a string column is '5'); None when a literal does not cast, so a
    pruning level that needs them keeps its container."""
    bad = (pa.ArrowException, TypeError, ValueError, OverflowError)
    try:
        try:
            return pa.array(vals, type=t)
        except bad:
            return pa.array(vals).cast(t)
    except bad:
        return None


def predicate_mask(table: pa.Table, clauses):
    """Boolean match mask for the clause list over ``table``'s columns (AND of
    conjuncts, null-safe: nulls come back False). None when no clauses."""
    mask = None
    for col, op, val in clauses:
        c = table[col]
        t = c.type if not isinstance(c, pa.ChunkedArray) else c.type
        if op == "prefix":
            m = pc.starts_with(c, pattern=val)
        elif op == "hastok":
            from .bloom import hastok_mask

            m = hastok_mask(c, val)
        elif op == "hasphrase":
            from .bloom import hasphrase_mask

            m = hasphrase_mask(c, val)
        elif op == "hasany":
            from .bloom import hasany_mask

            m = hasany_mask(c, val)
        elif op == "in":
            m = pc.is_in(c, value_set=pa.array([_pa_scalar(v, t).as_py() for v in val], type=t))
        elif op == "between":
            m = pc.and_kleene(
                pc.greater_equal(c, _pa_scalar(val[0], t)),
                pc.less_equal(c, _pa_scalar(val[1], t)),
            )
        else:
            fn = {
                "==": pc.equal,
                "!=": pc.not_equal,
                "<": pc.less,
                "<=": pc.less_equal,
                ">": pc.greater,
                ">=": pc.greater_equal,
            }[op]
            m = fn(c, _pa_scalar(val, t))
        mask = m if mask is None else pc.and_kleene(mask, m)
    if mask is None:
        return None
    return pc.fill_null(mask, False)


def apply_predicate(table: pa.Table, clauses) -> pa.Table:
    """Exact batch-wise filter for the same clause list (AND of conjuncts,
    nulls never match)."""
    mask = predicate_mask(table, clauses)
    return table if mask is None else table.filter(mask)


# --- dictionary probe (ranged reads, no data decode) ---------------------------


def _buf_ranges(col_entry: dict) -> list[tuple[int, int]]:
    """(offset, length) of every buffer of one column inside the container."""
    off = int(col_entry["offset"])
    out = []
    for blen in col_entry["buf_lens"]:
        out.append((off, int(blen)))
        off += int(blen)
    return out


def container_dict_values(path: str, col_entry: dict):
    """Read ONLY the dictionary-values buffers of a dict-encoded column from
    a container file (ranged reads; code/data buffers are never touched).
    Returns a pa.Array (string/binary dicts) or np.ndarray (numeric dicts);
    None when the column isn't dict-encoded."""
    if col_entry["codec"] != "dict":
        return None
    ranges = _buf_ranges(col_entry)
    if col_entry.get("has_validity"):
        ranges = ranges[1:]
    meta = col_entry["meta"]
    t = str_to_type(col_entry["type"])
    with open(path, "rb") as f:
        if _is_strlike(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
            vr = ranges[-2:]  # dict codec layout: [*code_bufs, len_buf, payload_buf]
            bufs = []
            for off, ln in vr:
                f.seek(off)
                bufs.append(unwrap_buf(f.read(ln)))
            vals = dec_plain_s(meta["vmeta"], bufs, meta["card"])
            return vals.cast(t) if vals.type != t else vals
        off, ln = ranges[0]  # numeric dict layout: [uniq_buf, *code_bufs]
        f.seek(off)
        return np.frombuffer(unwrap_buf(f.read(ln)), dtype=np.dtype(meta["dtype"]))


def dict_probe_path(path: str, clauses, footer: dict | None = None) -> bool:
    """True when the container at ``path`` may contain matches: for every
    ==/in conjunct whose column is dict-encoded in this container, at least
    one wanted value must appear in the dictionary."""
    from .container import read_footer_file

    eq = [(c, op, v) for c, op, v in clauses
          if op in ("==", "in", "prefix", "hastok", "hasphrase", "hasany")]
    if not eq:
        return True
    if footer is None:
        footer = read_footer_file(path)
    cols = {c["name"]: c for c in footer["columns"]}
    for col, op, val in eq:
        ent = cols.get(col)
        if ent is None or ent["codec"] != "dict":
            continue
        wanted = [val] if op in ("==", "prefix", "hastok", "hasphrase", "hasany") else list(val)
        dv = container_dict_values(path, ent)
        if dv is None:
            continue
        if op == "prefix":
            if isinstance(dv, np.ndarray):
                continue  # numeric dictionary: prefix can't prune
            if not pc.any(pc.starts_with(dv, pattern=val)).as_py():
                return False
            continue
        if op in ("hastok", "hasphrase", "hasany"):
            if isinstance(dv, np.ndarray) or not (
                pa.types.is_string(dv.type) or pa.types.is_large_string(dv.type)
            ):
                continue  # non-text dictionary: no tokens
            # one value per row, so the container may match iff SOME
            # dictionary value satisfies the text predicate — an EXACT
            # check over distinct values, stronger than the token bloom
            from .bloom import hasany_mask, hasphrase_mask, hastok_mask

            m = {"hastok": hastok_mask, "hasphrase": hasphrase_mask,
                 "hasany": hasany_mask}[op](dv, val)
            if m is not None and not pc.any(pc.fill_null(m, False)).as_py():
                return False
            continue
        if isinstance(dv, np.ndarray):
            if len(dv) == 0:
                return False
            try:
                w = np.array([_coerce(v, ent["type"]) for v in wanted])
            except (TypeError, ValueError, pa.ArrowInvalid, pa.ArrowTypeError):
                continue
            # uniq buffer is sorted (np.unique at encode) -> searchsorted probe;
            # astype to the physical dtype is safe for pruning: a value outside
            # the column's dtype domain matches no row either way
            w = w.astype(dv.dtype, copy=False)
            pos = np.searchsorted(dv, w)
            hit = (pos < len(dv)) & (dv[np.minimum(pos, len(dv) - 1)] == w)
            if not bool(hit.any()):
                return False
        else:
            vs = _cast_values(wanted, dv.type)
            if vs is None:
                continue
            if not pc.any(pc.is_in(dv, value_set=vs)).as_py():
                return False
    return True


# --- store scan (predicate pushdown) -------------------------------------------


_LATE_MAT_FRAC = 0.05  # late-materialize when <= this fraction of rows match


def _late_mat_frac() -> float:
    return float(os.environ.get("PCR_LATE_MAT_FRAC", _LATE_MAT_FRAC))


_SORTED_RANGE_FRAC = 0.5  # binary-search row range engages below this fraction


def _clause_bounds(clauses, lead: str, t: pa.DataType):
    """(lo, hi) comparable bound values implied by the conjuncts on ``lead``
    (inclusive on both sides — strict ops are widened by their ties, which the
    exact mask removes). None per side when unbounded; (None, None) when no
    conjunct constrains ``lead`` at all."""
    los, his = [], []
    for col, op, val in clauses:
        if col != lead:
            continue
        try:
            if op == "==":
                v = _pa_scalar(val, t).as_py()
                los.append(v)
                his.append(v)
            elif op in (">", ">="):
                los.append(_pa_scalar(val, t).as_py())
            elif op in ("<", "<="):
                his.append(_pa_scalar(val, t).as_py())
            elif op == "between":
                los.append(_pa_scalar(val[0], t).as_py())
                his.append(_pa_scalar(val[1], t).as_py())
            elif op == "in":
                vs = [_pa_scalar(v, t).as_py() for v in val]
                if any(v is None for v in vs):
                    continue  # NULL literals match nothing; mask handles them
                los.append(min(vs))
                his.append(max(vs))
            elif op == "prefix" and _is_strlike(t):
                los.append(val)
                up = _prefix_upper(val)
                if up is not None:
                    his.append(up)  # exclusive, but the bisect treats bounds
                    # inclusively -> superset range; the exact mask narrows
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError, TypeError):
            return None, None  # un-coercible literal: no sound range
    lo = max(los) if los else None
    hi = min(his) if his else None
    return lo, hi


def sorted_lead_range(
    footer: dict, blobs: dict, clauses, readers: "dict | None" = None
) -> "tuple[int, int] | None":
    """Matching-row superset range [lo_row, hi_row) for a container whose
    footer records a sort key, via binary search on the LEADING sort column
    with O(log n) single-row decodes (``make_row_reader`` un-zstds the
    column's buffers once; each probe then decodes one row).

    Sound because ``encode_one`` sorts every container by its recorded
    ``sort_key`` ascending with nulls last: all non-null lead values are
    ordered in [0, n - null_count) and comparison predicates never match
    NULL. Returns None when no conjunct bounds the lead column, the lead
    blob wasn't read, or a literal fails to coerce. The exact predicate
    mask still runs on the range — strict/`in`/secondary conjuncts narrow
    it further.

    ``readers`` (optional dict) caches ``make_row_reader`` handles by
    column name across the search AND the caller's subsequent range
    decode: building a handle pays the column's transport unwrap (zstd of
    the whole buffer), which for cheap-structural codecs IS most of a full
    decode — paying it twice would erase the win."""
    sk = footer.get("sort_key") or []
    if not sk:
        return None
    lead = sk[0]
    blob = blobs.get(lead)
    if blob is None:
        return None
    t = str_to_type(blob.type_str)
    lo_val, hi_val = _clause_bounds(clauses, lead, t)
    if lo_val is None and hi_val is None:
        return None
    from .codecs import make_row_reader

    read = readers.get(lead) if readers is not None else None
    if read is None:
        read = make_row_reader(blob)
        if readers is not None:
            readers[lead] = read
    nn = blob.n - blob.null_count  # nulls sort to the tail

    def bisect(target, right: bool) -> int:
        lo, hi = 0, nn
        while lo < hi:
            mid = (lo + hi) // 2
            v = read(np.array([mid], dtype=np.int64))[0].as_py()
            if v < target or (right and v == target):
                lo = mid + 1
            else:
                hi = mid
        return lo

    try:
        lo_row = bisect(lo_val, right=False) if lo_val is not None else 0
        hi_row = bisect(hi_val, right=True) if hi_val is not None else nn
    except TypeError:  # cross-type comparison (e.g. str literal vs bytes col)
        return None
    return lo_row, max(hi_row, lo_row)


class _ScanDecoder:
    """Decode surviving containers with column pruning, exact filter, and
    LATE MATERIALIZATION: the predicate columns decode first; when at most
    ``PCR_LATE_MAT_FRAC`` of a container's rows match, every other column is
    decoded at the matching rows ONLY (``decode_array_rows`` — selective bit
    extraction / RLE run probes / dict code gathers / FSST slab skipping).
    A selective scan over a store with heavy text columns thus never expands
    the text it is about to throw away; above the threshold the classic
    full-decode + filter path is cheaper and is kept.

    SORTED-SCAN PUSHDOWN: when a conjunct bounds the container's leading
    sort column (``==`` / range / ``in`` extremes), a binary search with
    O(log n) single-row decodes finds the matching row range first
    (``sorted_lead_range``); if it covers under ``_SORTED_RANGE_FRAC`` of
    the container, even the PREDICATE columns decode only that range — a
    narrow range scan of a big sorted container never expands any column
    fully. PAGE PRUNING: footer page stats (``page_stats``) additionally
    drop 64k-row pages that provably contain no match — the lever for
    predicates on NON-lead columns — and intersect with the sorted-lead
    range. ``range_hits`` / ``page_hits`` count engagements. Both executors
    ship a copy of the decoder to the worker, so the counts are
    driver-visible only when ``_one`` is called in-process."""

    def __init__(self, read_cols, out_cols, clauses, verify_crc=False):
        self.read_cols = read_cols
        self.out_cols = out_cols
        self.clauses = clauses
        self.dnf = _as_dnf(clauses)  # OR-branches; the common AND case is one branch
        self.verify_crc = verify_crc
        self.frac = _late_mat_frac()
        self.range_hits = 0
        self.page_hits = 0

    def _one(self, data: bytes) -> pa.Table:
        from .codecs import decode_array, decode_array_rows
        from .container import unpack_container

        footer, blobs = unpack_container(data, columns=self.read_cols, verify_crc=self.verify_crc)
        names = [c["name"] for c in footer["columns"] if self.read_cols is None or c["name"] in self.read_cols]
        if not self.dnf:
            t = pa.table({nm: decode_array(blobs[nm]) for nm in names})
            return t.select(self.out_cols) if self.out_cols is not None else t
        pred_cols = list(dict.fromkeys(c for br in self.dnf for c, _, _ in br))
        if not pred_cols:
            # an empty branch matches everything (same convention as
            # ``dnf_mask``): an empty predicate normalizes to [[]], which is
            # a full decode, not an error
            t = pa.table({nm: decode_array(blobs[nm]) for nm in names})
            return t.select(self.out_cols) if self.out_cols is not None else t
        n = blobs[pred_cols[0]].n  # rows in container
        out_names = self.out_cols if self.out_cols is not None else names
        readers: dict = {}
        # per-branch pushdown, OR-combined: the sorted-lead range is the
        # bounding hull of branch ranges (None if any branch is unbounded on
        # the lead column); the page mask is the union of branch masks (None
        # if any branch has no page-stats column)
        rngs: "list[tuple[int, int]] | None" = []
        for br in self.dnf:
            r = sorted_lead_range(footer, blobs, br, readers)
            if r is None:
                rngs = None
                break
            rngs.append(r)
        rng = (min(r[0] for r in rngs), max(r[1] for r in rngs)) if rngs else None
        pages = footer.get("pages")
        pm = None
        if pages:
            pms: "list[np.ndarray] | None" = []
            for br in self.dnf:
                m = page_candidate_mask(pages, n, br)
                if m is None:
                    pms = None
                    break
                pms.append(m)
            if pms:
                pm = np.logical_or.reduce(pms)
        if rng is not None or pm is not None:
            lo, hi = rng if rng is not None else (0, n)
            ranges: list[tuple[int, int]] = []
            if pm is not None:
                B = int(pages["rows_per_page"])
                for p in np.nonzero(pm)[0]:
                    s, e = max(int(p) * B, lo), min((int(p) + 1) * B, hi)
                    if e > s:
                        if ranges and ranges[-1][1] == s:  # merge adjacent pages
                            ranges[-1] = (ranges[-1][0], e)
                        else:
                            ranges.append((s, e))
            elif hi > lo:
                ranges.append((lo, hi))
            total = sum(e - s for s, e in ranges)
            if total <= _SORTED_RANGE_FRAC * n:
                from .codecs import make_row_reader

                if rng is not None:
                    self.range_hits += 1
                if pm is not None:
                    self.page_hits += 1
                types = {c["name"]: str_to_type(c["type"]) for c in footer["columns"]}
                if not ranges:
                    return pa.table({nm: pa.array([], type=types[nm]) for nm in out_names})

                def rd(nm):  # one transport unwrap per column, shared with the search
                    r = readers.get(nm)
                    if r is None:
                        r = readers[nm] = make_row_reader(blobs[nm])
                    return r

                rsel = np.concatenate([np.arange(s, e, dtype=np.int64) for s, e in ranges])
                pred = {nm: rd(nm)(rsel) for nm in pred_cols}
                mask = dnf_mask(pa.table(pred), self.dnf)
                if isinstance(mask, pa.ChunkedArray):
                    mask = mask.combine_chunks()
                local = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
                loc_arr = pa.array(local)
                cols = {
                    nm: (pc.take(pred[nm], loc_arr) if nm in pred else rd(nm)(rsel[local]))
                    for nm in out_names
                }
                return pa.table(cols)
        pred = {nm: decode_array(blobs[nm]) for nm in pred_cols}
        mask = dnf_mask(pa.table(pred), self.dnf)
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        k = int(pc.sum(mask).as_py() or 0)
        if k <= self.frac * n:
            sel = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
            sel_arr = pa.array(sel)
            cols = {
                nm: (pc.take(pred[nm], sel_arr) if nm in pred else decode_array_rows(blobs[nm], sel))
                for nm in out_names
            }
            return pa.table(cols)
        t = pa.table({nm: pred[nm] if nm in pred else decode_array(blobs[nm]) for nm in out_names})
        return t.filter(mask)

    def read(self, path: str) -> pa.Table:
        """``_one`` of the container file at ``path``: a scan's unit
        function in ``decoded_dataset``."""
        with open(path, "rb") as f:
            return self._one(f.read())


def _store_schema(out_dir: str, recs: list[dict]) -> list[tuple[str, pa.DataType]]:
    from .container import read_footer_file
    from .decode import resolve_container_path

    footer = read_footer_file(resolve_container_path(out_dir, recs[0]))
    return [(c["name"], str_to_type(c["type"])) for c in footer["columns"]]


def and_clause(dnf, clause) -> list:
    """AND one conjunct into every branch of a normalized DNF (an empty DNF
    — no predicate — becomes the lone conjunct)."""
    return [br + [clause] for br in dnf] if dnf else [[clause]]


def _probe_applies(dnf) -> bool:
    """The footer probe can only rule a container out on membership-style
    ops; every branch needs one or the probe proves nothing."""
    return all(
        any(op in ("==", "in", "prefix", "hastok", "hasphrase", "hasany") for _, op, _ in br)
        for br in dnf
    )


def _slice_task(fn, paths, args):
    from .encode import pin_arrow_threads

    pin_arrow_threads(1)
    return fn(paths, *args)


@functools.cache
def _remote_slice():
    """One Ray remote function per process: a fresh ``ray.remote`` per call
    would export (and make workers import) a new function every probe."""
    import ray

    return ray.remote(_slice_task)


def _cluster_resources() -> dict:
    """``ray.cluster_resources()``, initialising Ray when it is not up yet,
    as a Ray Data call would do on first use."""
    import ray

    if not ray.is_initialized():
        ray.init()
    return ray.cluster_resources()


def slices(items: list, n: int) -> list:
    """``items`` cut into at most ``n`` contiguous, near-equal, non-empty
    slices, in order (none for no items)."""
    if not items:
        return []
    n = max(1, min(len(items), n))
    k, r = divmod(len(items), n)
    cuts = [i * k + min(i, r) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def map_slices(fn, items: list, *args) -> list:
    """``fn(slice, *args)`` as plain Ray tasks over contiguous slices of a
    non-empty ``items`` (container paths, or a fan-out's units), at most
    one task per cluster CPU. Returns the tasks' object refs, in order."""
    n = int(_cluster_resources().get("CPU", 1))
    return [_remote_slice().remote(fn, part, args) for part in slices(items, n)]


def _each(paths, fn, *args) -> dict:
    return {p: fn(p, *args) for p in paths}


def map_footers(fn, paths: "list[str]", *args) -> dict:
    """``{path: fn(path, *args)}`` computed by plain Ray tasks
    (``map_slices``), never on the driver. For plan-time footer reads (KB
    per path), where a Ray Data job's start-up would cost far more than the
    reads — Ray Data samples Parquet footers for its own planning the same
    way. No task for an empty ``paths``; a task's exception re-raises on
    the driver as its own type."""
    if not paths:
        return {}
    import ray

    return {p: r for res in ray.get(map_slices(_each, paths, fn, *args)) for p, r in res.items()}


def probe_verdict(path: str, dnf) -> str:
    """Footer-probe verdict for one container: ``"keep"``, or the level that
    ruled it out (``"dict"`` / ``"bloom"``). One footer read serves both
    checks — the dictionary probe (low-card dict-encoded columns) and the
    Bloom probe (high-card int/string columns encoded with bloom_cols). A
    container survives if ANY branch passes both probes; a pruned one is
    attributed to the deepest level any branch reached."""
    from .bloom import bloom_probe_footer
    from .container import read_footer_file

    footer = read_footer_file(path)
    v = "dict"
    for br in dnf:
        if not dict_probe_path(path, br, footer):
            continue
        if not bloom_probe_footer(path, footer, br):
            v = "bloom"
            continue
        return "keep"
    return v


def probe_verdicts(paths: "list[str]", dnf) -> "dict[str, str]":
    """Distributed footer probe over container paths: ``probe_verdict`` per
    path as plain Ray tasks (``map_footers``) — tiny ranged reads, never on
    the driver and never a Ray Data job, like the decode + partial that
    follows (``PrunedScan.run``). Per-path and predicate-only, so
    candidates from MANY stores batch into one call (``PrunedScan`` relies
    on this — one probe per family, not per member). Returns
    ``{path: "keep" | "dict" | "bloom"}``."""
    return map_footers(probe_verdict, paths, dnf)


_TEXT_OPS = ("hastok", "hasphrase", "hasany")

# Crossover of ``PrunedScan.dataset`` between its two executors, as a share
# of the cluster's ``object_store_memory``: a plan whose scanned containers'
# recorded bytes (``PrunedScan.sizes``) stay under it decodes in plain Ray
# tasks, a larger one streams as one Ray Data job.
#
# Measured with both executors on the same plans (agg, range agg, top-k,
# token search, narrow scan, text scan) over synth transcript stores of
# 50k / 500k / 2M turns, 16 containers each (15 / 164 / 656 MB recorded),
# Ray at 2 CPUs with a 384 MB object store, on a shared 4-vCPU, 16 GB VM
# (Ray 2.49.2, pyarrow 16.1.0), min of 3 alternated runs. The tasks were
# faster on every plan at every size, 1.6-17x: 25-324 vs 299-675 ms at
# 15 MB, 63-1879 vs 970-3801 ms at 164 MB, 175-8445 vs 2116-14773 ms at
# 656 MB. Run time never crossed over, so memory sets the share: a
# task-built Dataset holds up to its plan's decoded bytes in the object
# store from the call until it is consumed, where the streaming job holds a
# few blocks at a time. A sixth keeps such a plan well inside the store
# (64 MB of the sweep's 384 MB; more on Ray's default store of 30% of RAM).
#
# ``run`` holds no decoded rows, only partials, so it has no crossover and
# always uses the tasks. On the 2M-turn store, same host and Ray settings,
# min of 3, a grouped pushdown with one partial row per input row (2M) took
# 2.8 s on tasks vs 6.2 s as the streaming job at the same driver peak RSS
# (564 vs 570 MB), and refused past ``max_partial_rows=200_000`` in 2.1 vs
# 4.5 s (180 vs 182 MB).
#
# Glob-only stores (no manifest) are sized by file size, which undercounts
# the decode by the codecs' compression ratio (6.7x on the synth
# transcripts), so such a plan can overrun the share; Ray then spills task
# outputs to disk, which slows the scan but does not fail it.
#
# ``encode_dataset`` and every other ``decoded_dataset`` user
# (``decode_dataset``, ``store_join``, ``store_changes``) choose by
# the same share (``fits_tasks``), for the same reason: their task side
# holds the whole input (encode: map pieces until the reduces read them) or
# the whole output (the Dataset's tables) in the object store. On a
# 60k-turn synth input (16 partitions, same Ray settings, a shared 4-vCPU
# VM) the tasks cut the median encode from 3.8 to 2.2 s and the median
# full decode from 369 to 104 ms, with identical containers.
_TASKS_MAX_STORE_SHARE = 1 / 6


def fits_tasks(nbytes: int) -> bool:
    """Whether a plan that holds ``nbytes`` in the object store runs as
    plain Ray tasks: true while they stay under ``_TASKS_MAX_STORE_SHARE``
    of the cluster's ``object_store_memory``. The one crossover test of
    every small-plan executor — ``PrunedScan.executor`` (scanned bytes),
    ``decoded_dataset``'s other users ``decode.decode_dataset``,
    ``storejoin.store_join`` and ``decode.store_changes`` (the
    recorded bytes of the containers they read) and
    ``encode.encode_dataset`` (the input's estimated in-memory size)."""
    store = _cluster_resources().get("object_store_memory", 0)
    return nbytes < store * _TASKS_MAX_STORE_SHARE


def _unit_tables(units, fn, partial, empty):
    """The task body of every container fan-out: ``fn(unit)`` for each unit
    of a slice, in order, skipping 0-row tables (Ray Data never hands a
    0-row block to a ``batch_size=None`` stage either) and applying
    ``partial`` when given. Returns the non-empty tables as a list when
    ``empty`` is None (``PrunedScan.run``), else as one table (``empty``
    when no row survived) for ``decoded_dataset``."""
    out = []
    for u in units:
        t = fn(u)
        if t.num_rows and partial is not None:
            t = partial(t)
        if t.num_rows:
            out.append(t)
    if empty is None:
        return out
    return pa.concat_tables(out) if out else empty


def _unit_batch(batch: pa.Table, units, fn) -> pa.Table:
    """The streaming body of ``decoded_dataset``: one ``fn`` call for the
    one unit index a ``batch_size=1`` batch holds."""
    from .encode import pin_arrow_threads

    pin_arrow_threads(1)
    (i,) = batch["id"].to_pylist()
    return fn(units[i])


def _executed(ds):
    """``ds``, a Dataset built from Arrow tables, with its plan executed in
    place, as ``Dataset.materialize`` ends by doing. A FromArrow plan
    executes without a Ray Data job, and iterating the Dataset then starts
    none, where the unexecuted plan ran one streaming job per iteration.
    ``materialize()`` would first deep-copy the plan. Decoding a
    16-container store in process (2-CPU session), iterating took 201 ms
    unexecuted and 177 ms executed; a ``count()`` took 95.8 ms unexecuted,
    98.3 ms executed in place and 109.2 ms materialized."""
    ds._plan.execute()
    return ds


def decoded_dataset(units: list, fn, empty: pa.Table, nbytes: int):
    """``fn(unit)``'s tables over ``units`` as one Dataset, in unit order:
    the one executor of every container fan-out. A unit is a container
    path for ``PrunedScan.dataset`` (a scan) and ``decode.decode_dataset``
    (every container of a store or family), one bucket's path lists for
    ``storejoin.store_join`` and one partition's old and new paths
    for ``decode.store_changes``. ``nbytes`` is the decoded size the plan
    holds; ``empty`` is the 0-row table of the output schema, and no units
    give a Dataset of it.

    While ``fits_tasks(nbytes)`` holds, ``fn`` runs NOW, in plain Ray tasks
    over contiguous slices of ``units`` (``map_slices``, the task body that
    ``PrunedScan.run`` shares), and the Dataset is built from the tasks'
    tables (``from_arrow_refs``, its plan executed: iterating or counting
    it starts no Ray Data job) — no read or map operator; a corrupt
    container raises its ``ValueError`` from this call. Past it the
    fan-out is one streaming Ray Data job, one ``fn`` call per unit
    (``range`` -> ``map_batches`` with ``batch_size=1``), run when the
    Dataset is consumed, where an error surfaces as Ray Data's
    ``UserCodeException``."""
    import ray.data

    if not units:
        return _executed(ray.data.from_arrow(empty))
    if fits_tasks(nbytes):
        refs = map_slices(_unit_tables, units, fn, None, empty)
        return _executed(ray.data.from_arrow_refs(refs))
    return ray.data.range(len(units)).map_batches(
        _unit_batch, fn_args=(units, fn), batch_format="pyarrow", batch_size=1
    )


def prune_containers(members, dnf, keys, on_full=None, probe=True) -> "tuple[dict, dict]":
    """The pruning levels over the containers of ``members`` — ``(dir,
    records, paths)`` each; a member without records (glob-only) prunes
    nothing — in order: hash route (``route_pids``), manifest zone maps,
    ``on_full`` (``PrunedScan.candidates``), then ONE footer probe
    (``probe_verdicts``) over every member's remainder unless ``probe`` is
    false. Returns ``({dir: plan}, {surviving path: its member's plan})``,
    survivors in record order; each plan counts ``keys`` from
    ``parts_total`` and the ``pruned_*`` levels. ``PrunedScan.candidates``
    and the deletes (``encode._delete_candidates``) share it; a delete
    calls it without ``PrunedScan``'s constructor, whose stray-container
    guard refuses the crashed stores a delete repairs."""
    stores: dict = {}
    owner: dict = {}
    for d, recs, paths in members:
        sp = stores[d] = dict.fromkeys(keys, 0)
        sp["parts_total"] = len(paths)
        if not recs:
            owner.update(dict.fromkeys(paths, sp))
            continue
        pids = route_pids(d, recs, dnf)
        for r, p in zip(recs, paths):
            st = r.get("stats") or {}
            rows = int(r.get("rows", 0))
            if pids is not None and int(r["part_id"]) not in pids:
                sp["pruned_hash"] += 1
            elif dnf and st and not any(record_may_match(st, rows, br) for br in dnf):
                sp["pruned_stats"] += 1
            elif on_full is not None and (not dnf or (st and any(
                record_all_match(st, rows, br) for br in dnf
            ))) and (key := on_full(r, p)):
                sp[key] += 1
            else:
                owner[p] = sp
    if owner and probe and dnf and _probe_applies(dnf):
        verdicts = probe_verdicts(list(owner), dnf)
        for p, v in verdicts.items():
            if v != "keep":
                owner.pop(p)["pruned_" + v] += 1
    return stores, owner


class PrunedScan:
    """The read path every pushdown operator shares, over a store FAMILY (a
    single store is a family of one): ``store`` is one directory or a list
    of them (``manifest.store_dirs``).

    Construction loads each member's lineage records once, runs the
    stray-container guard, reads the schema and refuses loudly — never
    coerces — when a named or predicate column is missing, when members
    disagree on those columns' types (on the whole schema with
    ``all_columns``: the operator emits every column), or when an op does
    not fit its column's type. ``columns`` may map each name to its kind
    ("group", ...) for the missing-column error; ``what`` names the columns
    in the disagreement error.

    ``candidates`` runs the pruning levels in order — hash routing of
    ``==``/``in`` on the partition column, manifest zone maps, the
    operator's ``on_full`` hook, then ONE distributed footer probe over
    every member's remainder (plain Ray tasks, ``probe_verdicts``) — and
    ``run`` is the decode + per-container partial over the survivors, as
    plain Ray tasks over slices of the paths (``map_slices``) — no Ray Data
    job. ``dataset`` (``scan_store``) has two executors, chosen per plan
    from the survivors' recorded bytes (``sizes``) against the measured
    crossover ``_TASKS_MAX_STORE_SHARE`` of the object store: the same
    tasks for a small plan, one streaming Ray Data job for a large one.
    The plan's ``executor`` names the one that runs. An operator keeps only
    its partial, its driver fold and its finalize.

    ``dnf`` is the normalized predicate (``[]`` = none); an operator may
    AND a synthesized clause into it (``and_clause``) before calling
    ``candidates`` — top-k's threshold, a sample's winning keys."""

    def __init__(self, store, predicate, columns=(), *, all_columns=False,
                 what="involved"):
        from . import manifest as mf
        from .container import read_footer_file
        from .decode import container_files, resolve_container_path

        self.dnf = _normalize_dnf(predicate) if predicate else []
        self.members = []  # (dir, records, paths); no records = glob-only store
        self.sizes = {}  # path -> decoded bytes at encode (file size when glob-only)
        schemas = []
        for d in mf.store_dirs(store):
            recs = mf.load_records(d)
            files = container_files(d)  # stray-container guard
            paths = [resolve_container_path(d, r) for r in recs] if recs else files
            if not paths:
                raise FileNotFoundError(f"no container files under {d}")
            self.members.append((d, recs, paths))
            self.sizes.update(zip(paths, [int(r.get("bytes_in", 0)) for r in recs])
                              if recs else ((p, os.path.getsize(p)) for p in paths))
            footer = read_footer_file(paths[0])
            schemas.append([(c["name"], str_to_type(c["type"])) for c in footer["columns"]])
        self.schema = dict(schemas[0])

        clauses = [cl for br in self.dnf for cl in br]
        kinds = {**dict.fromkeys((c for c, _, _ in clauses), "predicate"),
                 **(columns if isinstance(columns, dict) else dict.fromkeys(columns, ""))}
        for s in schemas:
            names = [n for n, _ in s]
            for c, kind in kinds.items():
                if c not in names:
                    raise ValueError(f"{kind} column {c!r} not in store schema {names}".lstrip())
        typed = [s if all_columns else [(c, dict(s)[c]) for c in kinds] for s in schemas]
        if any(t != typed[0] for t in typed[1:]):
            detail = "; ".join(
                f"{d}: {[(n, str(t)) for n, t in tt]}" for (d, _, _), tt in zip(self.members, typed)
            )
            raise ValueError(
                f"store family schemas differ — members disagree on {what} column "
                f"types; conform them via compact_dataset (drop/add columns) first: {detail}"
            )
        for col, op, _ in clauses:
            t = self.schema[col]
            if op == "prefix" and not _is_strlike(t):
                raise ValueError(f"prefix predicate needs a string column; {col!r} is {t}")
            if op in _TEXT_OPS and not (pa.types.is_string(t) or pa.types.is_large_string(t)):
                raise ValueError(f"{op} predicate needs a text column; {col!r} is {t}")

    def candidates(self, on_full=None, answered=(), probe=True):
        """Surviving container paths plus the plan.

        ``on_full(rec, path)`` sees each surviving container whose zone maps
        prove EVERY row matches (``record_all_match`` on some branch; every
        container when there is no predicate) and returns the plan key of
        the class that answered it without a scan — one of ``answered`` —
        or None to leave it to the scan. The plan counts
        ``parts_total, pruned_hash, pruned_stats, pruned_dict, pruned_bloom``,
        the ``answered`` classes and ``scanned``; the classes partition
        ``parts_total`` exactly. ``scanned_bytes`` sums the survivors'
        ``sizes`` and ``executor`` is ``run``'s (``stamp``; a scan
        re-stamps with ``dataset``'s). ``stores`` holds the same keys per
        member. ``probe=False`` skips the footer probe."""
        keys = ("parts_total", "pruned_hash", "pruned_stats", "pruned_dict",
                "pruned_bloom", *answered, "scanned", "scanned_bytes")
        stores, owner = prune_containers(self.members, self.dnf, keys, on_full, probe)
        paths = list(owner)
        for p in paths:
            owner[p]["scanned"] += 1
            owner[p]["scanned_bytes"] += self.sizes[p]
        plan = {k: sum(sp[k] for sp in stores.values()) for k in keys}
        plan["stores"] = stores
        self.stamp(plan, paths)
        return paths, plan

    def executor(self, paths) -> "str | None":
        """``dataset``'s executor for ``paths``: ``"tasks"`` while their
        ``sizes`` stay under ``_TASKS_MAX_STORE_SHARE`` of the cluster's
        object store, else ``"ray_data"``; None when nothing is scanned."""
        if not paths:
            return None
        return "tasks" if fits_tasks(sum(self.sizes[p] for p in paths)) else "ray_data"

    def stamp(self, plan, paths, executor="tasks") -> None:
        """Record in ``plan`` (and each member that scans) the executor that
        decodes ``paths``: ``run``'s tasks unless told otherwise."""
        plan["executor"] = ex = executor if paths else None
        for sp in plan["stores"].values():
            sp["executor"] = ex if sp["scanned"] else None

    def _decoder(self, work_cols, verify_crc) -> _ScanDecoder:
        read_cols = None if work_cols is None else list(
            dict.fromkeys([*work_cols, *(c for br in self.dnf for c, _, _ in br)])
        )
        return _ScanDecoder(read_cols, work_cols, self.dnf, verify_crc)

    def reader(self, work_cols=None, verify_crc=False):
        """``(read, empty)``: the decoder's ``read(path)`` — a container's
        exactly filtered rows, reading ``work_cols`` plus the predicate
        columns and emitting ``work_cols`` (every column when None) — and
        the typed 0-row table of that output."""
        names = list(self.schema) if work_cols is None else work_cols
        empty = pa.table({n: pa.array([], type=self.schema[n]) for n in names})
        return self._decoder(work_cols, verify_crc).read, empty

    def dataset(self, paths, work_cols=None, verify_crc=False):
        """``reader``'s rows of ``paths`` as a Dataset, on ``executor``'s
        side of ``decoded_dataset``. A typed empty Dataset when nothing
        survived."""
        read, empty = self.reader(work_cols, verify_crc)
        return decoded_dataset(paths, read, empty, sum(self.sizes[p] for p in paths))

    def run(self, paths, partial, work_cols, verify_crc=False):
        """Decode + ``partial`` over ``paths`` in plain Ray tasks over
        contiguous slices (``map_slices``), yielding the non-empty partials
        slice by slice in path order — no Ray Data job. ``partial`` runs
        once per non-empty decoded container; None keeps the decoded rows.
        Nothing runs when nothing survived."""
        if not paths:
            return
        import ray

        dec = self._decoder(work_cols, verify_crc)
        for ref in map_slices(_unit_tables, paths, dec.read, partial, None):
            yield from ray.get(ref)


def scan_store(
    store,
    predicate,
    columns: list[str] | None = None,
    *,
    dict_probe: bool = True,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """Predicate-pushdown scan of an encoded store -> streaming Dataset.
    ``store`` is one directory or a list of them, scanned as ONE family
    with one merged plan.

    Four pruning levels before any data buffer is decoded (``PrunedScan``):

    1. **Hash routing** — ``==``/``in`` on the partition column is pure
       arithmetic over ``_run.json``.
    2. **Manifest zone maps** — lineage-record ``stats`` rule out containers
       driver-side from JSON already on hand (no file opens at all).
    3. **Footer probe** (``==``/``in``/``prefix``/text ops) — plain Ray
       tasks over slices of the candidate paths (``probe_verdicts``, not a
       Ray Data job) tail-read each footer and ranged-read only the
       dictionary buffers and Bloom filters (KB per container on any store
       size). ``dict_probe=False`` skips it.
    4. **Column pruning** — survivors decode only predicate + requested
       columns; the exact filter runs batch-wise in the same stage. While
       the survivors' recorded bytes stay under ``PrunedScan``'s measured
       crossover (a share of the object store) the decode runs NOW, as
       plain Ray tasks, and the Dataset holds their tables; a corrupt
       container raises its ``ValueError`` here. Past it the decode is the
       scan's one Ray Data job, run when the returned Dataset is consumed,
       and a decode error surfaces there as Ray Data's
       ``UserCodeException``, whose message names the ``ValueError``.

    Containers written before zone maps existed have no ``stats`` and are
    conservatively scanned. ``return_plan=True`` also returns
    ``{parts_total, pruned_hash, pruned_stats, pruned_dict, pruned_bloom,
    scanned, scanned_bytes, executor}`` summed over the members, with the
    per-member breakdown under ``"stores"``.

    ``predicate`` is a conjunct list (AND), or a disjunction of
    conjunctions — ``("or", [branch, ...])`` / ``{"or": [branch, ...]}`` —
    in which case every pruning level keeps a container when ANY branch may
    match it (Parquet/Iceberg OR-expression pruning semantics) and the
    exact filter is the OR of branch masks.

    A family is the lifecycle of incremental deliveries, each encoded into
    its own store (no rewrite of history) and compacted only when container
    sizing demands it. Pruning state is per manifest, so every level runs
    per member, and every member's survivors decode in one Dataset. Output
    schemas must agree across members on (name, type) for the emitted
    columns — refused loudly, never coerced (``compact_dataset``'s
    drop/add path conforms a family). The footer probe batches every
    member's candidate paths into ONE set of plain Ray tasks (at most one
    per cluster CPU), so planning cost does not grow with family size.
    """
    scan = PrunedScan(store, predicate, columns or (), all_columns=columns is None,
                      what="emitted/predicate")
    paths, plan = scan.candidates(probe=dict_probe)
    scan.stamp(plan, paths, scan.executor(paths))
    ds = scan.dataset(paths, None if columns is None else list(columns), verify_crc)
    return (ds, plan) if return_plan else ds


# --- metadata-only profile ------------------------------------------------------


def _profile(recs: list[dict]) -> dict:
    """Fold lineage records into a profile: per-column codec counts, nulls
    and stats parts sum; bounds combine while the recorded types agree, and
    a type conflict nulls the bounds and flags ``t: "mixed"`` rather than
    comparing across domains."""
    cols: dict[str, dict] = {}
    with_stats = 0
    for r in recs:
        st = r.get("stats") or {}
        codecs = r.get("codecs") or {}
        with_stats += bool(st)
        for name in dict.fromkeys([*codecs, *st]):
            c = cols.setdefault(
                name,
                {"codecs": {}, "nulls": 0, "min": None, "max": None, "t": None,
                 "approx": False, "stats_parts": 0},
            )
            if name in codecs:
                c["codecs"][codecs[name]] = c["codecs"].get(codecs[name], 0) + 1
            if name not in st:
                continue
            ent = st[name]
            c["stats_parts"] += 1
            c["nulls"] += int(ent.get("nulls", 0))
            c["approx"] = c["approx"] or bool(ent.get("approx"))
            t = ent.get("t")
            if t is not None and c["t"] != t:
                c["t"] = t if c["t"] is None else "mixed"
            if c["t"] == "mixed":
                c["min"] = c["max"] = None
                c["approx"] = True
                continue
            mn, mx = ent.get("min"), ent.get("max")
            if mn is not None and (c["min"] is None or mn < c["min"]):
                c["min"] = mn
            if mx is not None and (c["max"] is None or mx > c["max"]):
                c["max"] = mx
    bytes_in = sum(int(r.get("bytes_in", 0)) for r in recs)
    bytes_out = sum(int(r.get("bytes_out", 0)) for r in recs)
    return {
        "partitions": len(recs),
        "generations": len({int(r.get("generation", 0)) for r in recs}),
        "rows": sum(int(r.get("rows", 0)) for r in recs),
        "bytes_in": bytes_in,
        "bytes_out": bytes_out,
        "ratio": bytes_out / max(bytes_in, 1),
        "stats_coverage": with_stats / len(recs),
        "columns": cols,
    }


def store_profile(store) -> dict:
    """Profile an encoded store from manifest metadata alone — per-column
    global bounds / null counts / codec mix plus store totals. Opens ZERO
    container files; cost is the manifest JSON, independent of data size.

    ``store`` is one directory, or a list of them profiled as ONE family:
    the fold runs over every member's records, without ``generations``
    (generation numbers count per member), and ``stores`` holds each
    member's own profile."""
    from . import manifest as mf

    recs = {}
    for d in mf.store_dirs(store):
        recs[d] = mf.load_records(d)
        if not recs[d]:
            raise FileNotFoundError(f"no manifest records under {d}")
    if isinstance(store, str):
        return _profile(recs[store])
    fam = _profile([r for rs in recs.values() for r in rs])
    del fam["generations"]
    return {**fam, "stores": {d: _profile(rs) for d, rs in recs.items()}}
