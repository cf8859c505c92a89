"""Deterministic (hash-ordered) sampling pushdown over encoded stores.

``store_sample`` draws the n rows whose ``md5(str(key) + ':' + seed)`` hex
digest sorts lowest — a content-stable, engine-independent sample: the same
rows come back on every run, machine, and engine, and the SAME selection is
expressible in ANSI SQL (``ORDER BY md5(key::VARCHAR || ':' || seed), key
LIMIT n``), which makes a random-looking sample oracle-checkable. Changing
``seed`` redraws the sample; hash-ordering makes it uniform over keys.

Two passes, both through the ordinary scan stack:

1. **Key pass** — decode ONLY the key column (plus predicate columns) of
   candidate containers; each block keeps its n lowest (digest, key) pairs,
   and the driver fold keeps the global n. Partial volume is ≤ n × blocks,
   guarded by ``MAX_N``.
2. **Row pass** — the n winning keys become a ``key in (...)`` predicate
   over the SAME store(s): the existing pruning levels (hash route on
   key-routed layouts, zone maps, dictionary/Bloom footer probes, page
   masks, late materialization) fetch only the winners' rows; the exact
   (digest, key) order is then re-ranked so boundary ties resolve
   identically to the SQL.

The key must be UNIQUE (duplicate keys share a digest, making the row set
at the LIMIT boundary engine-dependent) and int- or string-typed (so
``str(key)`` and ``CAST(key AS VARCHAR)`` agree). Per-row md5 is the same
C-loop cost this repo already accepts for content-stable assignment
(``export.split_assign``) and fingerprints — and it runs over ONE slim
column here, never the payload.

The reference engine samples by reading whole tables into pandas
(reference analyzer.py sample paths); this answers a 1000-row sample from
a store of any size with one key-column pass plus point lookups.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .storegroup import _capped
from .storetopk import _group_run_starts
from .zonemap import PrunedScan, _is_strlike, and_clause

MAX_N = 100_000


def _digests(keys: pa.Array, seed: str) -> np.ndarray:
    """Hex md5 of ``str(key) + ':' + seed`` per row (null keys refuse)."""
    if keys.null_count:
        raise ValueError("sample key column must not contain nulls")
    suffix = (":" + seed).encode()
    return np.array(
        [hashlib.md5(str(k).encode() + suffix).hexdigest()
         for k in keys.to_pylist()],
        dtype=object,
    )


class _BottomNPartial:
    """Per-block bottom-n (digest, key) pairs over the decoder's output."""

    def __init__(self, key: str, n: int, seed: str, key_type: pa.DataType):
        self.key = key
        self.n = n
        self.seed = seed
        self.key_type = key_type

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        h = _digests(keys, self.seed)
        tbl = pa.table(
            {"h": pa.array(h, type=pa.string()), "k": keys.cast(self.key_type)}
        )
        if tbl.num_rows > self.n:
            idx = pc.sort_indices(
                tbl, sort_keys=[("h", "ascending"), ("k", "ascending")]
            )
            tbl = tbl.take(idx.slice(0, self.n))
        return tbl


def store_sample(
    store,
    key: str,
    n: int,
    *,
    seed: str = "",
    predicate=None,
    columns: "list[str] | None" = None,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """Deterministic n-row sample of a store (see module docstring).
    ``store`` is one directory or a list sampled as ONE logical table (key
    uniqueness must hold across members)."""
    if not (1 <= n <= MAX_N):
        raise ValueError(
            f"n={n} outside [1, {MAX_N}] — larger samples exceed the driver-fold "
            "contract; sample via decode_dataset(...).random_sample() instead"
        )
    scan = PrunedScan(store, predicate, [key, *(columns or [])],
                      all_columns=columns is None, what="sample")
    kt = scan.schema[key]
    if not (pa.types.is_integer(kt) or _is_strlike(kt)):
        raise ValueError(
            f"sample key must be an int or string column (str(key) must match "
            f"SQL CAST AS VARCHAR); {key!r} is {kt}"
        )
    out_cols = list(columns) if columns is not None else list(scan.schema)

    # --- pass 1: key-only bottom-n by digest -------------------------------
    paths, plan = scan.candidates()
    partials = list(scan.run(paths, _BottomNPartial(key, n, seed, kt), [key], verify_crc))
    if not partials:
        empty = pa.table({c: pa.array([], type=scan.schema[c]) for c in out_cols})
        return (empty, plan) if return_plan else empty

    merged = pa.concat_tables(partials).combine_chunks()
    idx = pc.sort_indices(merged, sort_keys=[("h", "ascending"), ("k", "ascending")])
    winners = merged.take(idx.slice(0, n))
    wk = winners["k"].to_pylist()
    if len(set(wk)) != len(wk):
        raise ValueError(
            f"sample key {key!r} is not unique — duplicate keys make the "
            "LIMIT-boundary row set engine-dependent; sample on a unique key"
        )

    # --- pass 2: point-lookup scan for the winners' rows --------------------
    fetch_cols = list(dict.fromkeys(out_cols + [key]))
    tbl, plan["row_pass"] = _fetch_winners(scan, key, wk, fetch_cols, verify_crc)

    # exact re-rank so boundary ties resolve identically to the SQL
    keys2 = tbl[key]
    if isinstance(keys2, pa.ChunkedArray):
        keys2 = keys2.combine_chunks()
    h2 = pa.array(_digests(keys2, seed), type=pa.string())
    tbl = tbl.append_column("__h", h2)
    idx = pc.sort_indices(
        tbl, sort_keys=[("__h", "ascending"), (key, "ascending")]
    )
    tbl = tbl.take(idx.slice(0, n)).drop_columns(["__h"]).select(out_cols)
    return (tbl, plan) if return_plan else tbl


def _fetch_winners(scan: PrunedScan, key: str, winners: list, fetch_cols, verify_crc):
    """Pass 2 of both samplers: the winning keys become a ``key in (...)``
    clause AND-ed into the predicate, and the same scan's full pruning
    stack fetches only their rows. Returns the rows and the pass's plan."""
    scan.dnf = and_clause(scan.dnf, (key, "in", winners))
    paths, plan = scan.candidates()
    rows = list(scan.run(paths, None, fetch_cols, verify_crc))
    tbl = pa.concat_tables(rows).combine_chunks() if rows else pa.table(
        {c: pa.array([], type=scan.schema[c]) for c in fetch_cols}
    )
    plan.pop("stores")
    return tbl, plan


class _GroupBottomNPartial:
    """Per-block per-group bottom-n (digest, key) pairs: one multi-key sort
    (group, digest, key) + the vectorized rank-within-run filter."""

    def __init__(self, key, group_by, n, seed, key_type):
        self.key = key
        self.group_by = list(group_by)
        self.n = n
        self.seed = seed
        self.key_type = key_type

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        h = _digests(keys, self.seed)
        cols = {f"g_{c}": batch[c] for c in self.group_by}
        cols["h"] = pa.array(h, type=pa.string())
        cols["k"] = keys.cast(self.key_type)
        tbl = pa.table(cols)
        sort_keys = [(f"g_{c}", "ascending") for c in self.group_by] + [
            ("h", "ascending"), ("k", "ascending")
        ]
        idx = pc.sort_indices(tbl, sort_keys=sort_keys, null_placement="at_end")
        tbl = tbl.take(idx)
        starts = _group_run_starts(tbl, [f"g_{c}" for c in self.group_by])
        pos = np.arange(tbl.num_rows, dtype=np.int64)
        rank = pos - starts[np.searchsorted(starts, pos, side="right") - 1]
        return tbl.filter(pa.array(rank < self.n))


def store_sample_stratified(
    store,
    key: str,
    group_by,
    n: int,
    *,
    seed: str = "",
    predicate=None,
    columns: "list[str] | None" = None,
    verify_crc: bool = False,
    return_plan: bool = False,
    max_partial_rows: int = 2_000_000,
):
    """STRATIFIED deterministic sample: the n rows per group whose
    ``md5(str(key) + ':' + seed)`` digests sort lowest WITHIN the group —
    ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY md5(...), key) <= n``
    in SQL, so the per-stratum draw is oracle-checkable like the global
    one. The training-data shape: "n documents per language / source /
    quality band", content-stable across runs and engines.

    Pass 1 decodes only the key + group columns with per-block per-group
    bottom-n partials (≤ groups-per-block × n × blocks rows, the
    rollup-grade driver contract, guarded by ``max_partial_rows``); pass 2
    fetches winners through the point-lookup scan stack and re-ranks
    exactly. ``store`` is one directory or a list read as ONE family."""
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n={n} outside [1, {MAX_N}] (per-group sample size)")
    group_by = list(group_by)
    if not group_by:
        raise ValueError("store_sample_stratified needs at least one group column")
    scan = PrunedScan(store, predicate, [key, *group_by, *(columns or [])],
                      what="sample key/group")
    kt = scan.schema[key]
    if not (pa.types.is_integer(kt) or _is_strlike(kt)):
        raise ValueError(
            f"sample key must be an int or string column; {key!r} is {kt}"
        )

    paths, plan = scan.candidates()
    partials = _capped(
        scan.run(paths, _GroupBottomNPartial(key, group_by, n, seed, kt),
                 list(dict.fromkeys([key] + group_by)), verify_crc),
        max_partial_rows, "stratified-sample",
        "lower n or sample per group via decode_dataset(...).groupby",
    )
    out_cols = list(columns) if columns is not None else list(
        dict.fromkeys(group_by + [key])
    )
    if not partials:
        empty = pa.table({c: pa.array([], type=scan.schema[c]) for c in out_cols})
        return (empty, plan) if return_plan else empty

    merged = pa.concat_tables(partials).combine_chunks()
    gnames = [f"g_{c}" for c in group_by]
    sort_keys = [(g, "ascending") for g in gnames] + [("h", "ascending"),
                                                      ("k", "ascending")]
    idx = pc.sort_indices(merged, sort_keys=sort_keys, null_placement="at_end")
    merged = merged.take(idx)
    starts = _group_run_starts(merged, gnames)
    pos = np.arange(merged.num_rows, dtype=np.int64)
    rank = pos - starts[np.searchsorted(starts, pos, side="right") - 1]
    winners = merged.filter(pa.array(rank < n))
    wk = winners["k"].to_pylist()
    if len(set(wk)) != len(wk):
        raise ValueError(
            f"sample key {key!r} is not unique — duplicate keys make the "
            "per-group boundary row set engine-dependent"
        )

    fetch_cols = list(dict.fromkeys(out_cols + [key] + group_by))
    tbl, _ = _fetch_winners(scan, key, wk, fetch_cols, verify_crc)
    keys2 = tbl[key]
    if isinstance(keys2, pa.ChunkedArray):
        keys2 = keys2.combine_chunks()
    tbl = tbl.append_column("__h", pa.array(_digests(keys2, seed), type=pa.string()))
    sort_keys = [(c, "ascending") for c in group_by] + [("__h", "ascending"),
                                                        (key, "ascending")]
    idx = pc.sort_indices(tbl, sort_keys=sort_keys, null_placement="at_end")
    tbl = tbl.take(idx).drop_columns(["__h"]).select(out_cols)
    return (tbl, plan) if return_plan else tbl
