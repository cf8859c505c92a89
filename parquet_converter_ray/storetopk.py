"""ORDER BY ... LIMIT k pushdown over encoded stores.

``store_topk`` answers ``SELECT cols FROM store [WHERE pred] ORDER BY
col DESC|ASC [, tiebreaks] LIMIT k`` without a global sort exchange:

1. **Threshold from zone maps (driver-side, manifest JSON only).** Every
   fully-matching container (``record_all_match``) guarantees
   ``rows - nulls - nans`` values no worse than its recorded min (DESC) /
   max (ASC). Sorting those bounds best-first and accumulating until the
   count reaches ``k`` yields a threshold τ: at least k matching rows are
   provably at-or-better-than τ, so no row strictly worse than τ can be in
   the top k. Truncated string bounds stay sound — they are OUTER bounds,
   which only weaken τ.
2. **τ becomes a predicate.** ``(col >= τ)`` (DESC) / ``(col <= τ)`` (ASC)
   is AND-ed into every DNF branch and handed to the ordinary scan stack —
   zone-map container pruning, the membership footer probe for the user's
   own clauses, per-page min/max masks, sorted-lead ranges and late
   materialization all fire on it with no new machinery. On a store
   range-clustered by the ordering column, a top-k reads only the best-end
   containers — and only their best-end pages.
3. **Per-block top-k partials.** Survivors decode only the requested +
   ordering + predicate columns; each block keeps its k best rows (one
   vectorized ``sort_indices`` + take). The driver fold re-sorts the
   ≤ k × blocks partial rows and keeps k — bounded by construction, and
   guarded loudly (``k`` beyond ``MAX_K`` belongs in a distributed sort).

NULL ordering is SQL's default NULLS LAST (both directions): when τ exists
there are ≥ k non-null matching rows, so the synthesized clause dropping
null rows is exact; when it doesn't, nulls ride through the partials and
sort last. Float NaNs sort as the GREATEST value (DuckDB's total order —
Arrow's raw descending sort instead parks NaN at the end, so float
orderings add an explicit rank-class key, ``_topk_take``); τ synthesis is
skipped whenever any candidate container holds (or predates the counting
of) NaNs, because ``NaN >= τ`` is false under IEEE kernels yet NaN
outranks τ in the sort order.

Ties at rank k resolve by the caller's ``tiebreak`` columns (ascending);
with a unique tiebreak the result SET is deterministic and SQL-comparable.

This is the classic top-k pushdown of columnar engines (Parquet row-group
stats + "top-k dynamic filter" in DataFusion/Velox); the reference engine
sorts whole tables to answer head-style questions (reference analyzer.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .storegroup import _capped
from .zonemap import PrunedScan, and_clause, record_all_match, record_may_match

MAX_K = 100_000


def _topk_take(batch: pa.Table, order_by: str, desc: bool, tiebreak, k: int,
               is_float: bool) -> pa.Table:
    """k best rows of one table under SQL total order: NULLS LAST both ways,
    float NaN the GREATEST value (DuckDB's order — Arrow's own descending
    sort instead parks NaN at the end, so floats get an explicit rank-class
    key: best values, then worse, then NaN positioned by direction, nulls
    always last)."""
    keys = [(order_by, "descending" if desc else "ascending")] + [
        (c, "ascending") for c in tiebreak
    ]
    tbl = batch
    if is_float:
        col = batch[order_by]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        isnan = pc.fill_null(pc.is_nan(col), False)
        isnull = pc.is_null(col)
        # asc: numbers(0) < NaN(1) < NULL(2); desc: NaN(0) < numbers(1) < NULL(2)
        cls = pc.add(
            pc.cast(isnan if not desc else pc.invert(pc.or_(isnan, isnull)),
                    pa.int8()),
            pc.multiply(pc.cast(isnull, pa.int8()), pa.scalar(2, pa.int8())),
        )
        tbl = batch.append_column("__cls", cls)
        keys = [("__cls", "ascending")] + keys
    # always sort: callers rely on RANKED output even when rows <= k (the
    # per-block partial classes early-out before calling this when order
    # doesn't matter yet)
    idx = pc.sort_indices(tbl, sort_keys=keys, null_placement="at_end")
    tbl = tbl.take(idx.slice(0, k))
    return tbl.drop_columns(["__cls"]) if is_float else tbl


class _TopKPartial:
    """Keep each block's k best rows (see ``_topk_take``)."""

    def __init__(self, order_by: str, desc: bool, tiebreak, k: int,
                 is_float: bool):
        self.order_by = order_by
        self.desc = desc
        self.tiebreak = list(tiebreak)
        self.k = k
        self.is_float = is_float

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows <= self.k and not self.is_float:
            return batch
        return _topk_take(batch, self.order_by, self.desc, self.tiebreak,
                          self.k, self.is_float)


def _tau_from_records(member_recs, col, t, dnf, k, desc):
    """The zone-map threshold: best-first accumulation of guaranteed
    matching-row counts until k. Returns (tau, guaranteed_rows_total) —
    tau None when the metadata can't guarantee k rows, or when float NaNs
    (whose IEEE-vs-sort-order mismatch the module docstring explains)
    poison the synthesized clause."""
    is_float = pa.types.is_floating(t)
    pool: list[tuple] = []
    nan_possible = False
    for recs in member_recs:
        for r in recs:
            st = r.get("stats") or {}
            rows = int(r.get("rows", 0))
            if rows == 0:
                continue
            if dnf and st and not any(record_may_match(st, rows, br) for br in dnf):
                continue  # not a candidate at all
            ent = st.get(col)
            if is_float and (not ent or ent.get("nan") or "nan" not in ent):
                nan_possible = True
            if dnf and not (st and any(record_all_match(st, rows, br) for br in dnf)):
                continue  # partial matches guarantee nothing
            if not ent:
                continue
            bound = ent.get("min") if desc else ent.get("max")
            if bound is None:
                continue
            n = rows - int(ent.get("nulls", 0))
            if is_float:
                n -= int(ent.get("nan") or 0)
            if n > 0:
                pool.append((bound, n))
    if nan_possible:
        return None, 0
    pool.sort(key=lambda bn: bn[0], reverse=desc)
    seen = 0
    for bound, n in pool:
        seen += n
        if seen >= k:
            return bound, seen
    return None, seen


def store_topk(
    store,
    order_by: str,
    k: int,
    *,
    desc: bool = True,
    predicate=None,
    columns: "list[str] | None" = None,
    tiebreak=(),
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """Top-k rows of a store by ``order_by`` (see module docstring).
    ``store`` is one directory or a list read as ONE family: the τ
    guarantee pool spans every member (top-k is a global question), then
    one footer probe + one scan batch all members' candidates (plain Ray
    tasks, no Ray Data job)."""
    if not (1 <= k <= MAX_K):
        raise ValueError(
            f"k={k} outside [1, {MAX_K}] — larger top-k exceeds the driver-fold "
            "contract; sort via decode_dataset(...).sort(...) instead"
        )
    tiebreak = list(tiebreak)
    # with an explicit column list only the involved columns must agree; a
    # full-row top-k needs full schema agreement across members
    scan = PrunedScan(store, predicate, [order_by, *tiebreak, *(columns or [])],
                      all_columns=columns is None, what="ordering/predicate")
    t = scan.schema[order_by]

    # 1. threshold from the cross-member guarantee pool, AND-ed into the
    # predicate: zone maps, page masks and sorted ranges all fire on it
    # (footers can't prune on a comparison — the probe still runs for the
    # user's own membership clauses)
    tau, guaranteed = _tau_from_records(
        [recs for _, recs, _ in scan.members], order_by, t, scan.dnf, k, desc
    )
    if tau is not None:
        scan.dnf = and_clause(scan.dnf, (order_by, ">=" if desc else "<=", tau))
    paths, plan = scan.candidates()
    plan.update(tau=tau, guaranteed_rows=guaranteed)

    # 2. one scan + per-block top-k partials
    is_float = pa.types.is_floating(t)
    out_cols = list(columns) if columns is not None else list(scan.schema)
    work_cols = list(dict.fromkeys(out_cols + [order_by] + tiebreak))
    partials = list(scan.run(paths, _TopKPartial(order_by, desc, tiebreak, k, is_float),
                             work_cols, verify_crc))
    if partials:
        merged = pa.concat_tables(partials).combine_chunks()
        out = _topk_take(merged, order_by, desc, tiebreak, k, is_float)
        out = out.select(out_cols)
    else:
        out = pa.table({c: pa.array([], type=scan.schema[c]) for c in out_cols})
    return (out, plan) if return_plan else out


# --- grouped top-k (top-n per group) ----------------------------------------


def _group_run_starts(tbl: pa.Table, group_by) -> "np.ndarray":
    """Row indices where a new group starts, given ``tbl`` already sorted
    with the group columns leading. Column-wise dictionary codes make the
    adjacent-row comparison numeric for strings too; nulls code as -1 (their
    own SQL group)."""
    import numpy as np

    n = tbl.num_rows
    if n == 0:
        return np.zeros(0, dtype=np.int64)  # a block emptied by the filter
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for c in group_by:
        col = tbl[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.dictionary_encode(col).indices
        v = pc.fill_null(codes, -1).to_numpy(zero_copy_only=False)
        change[1:] |= v[1:] != v[:-1]
    return np.flatnonzero(change)


def _group_topk_take(batch: pa.Table, group_by, order_by, desc, tiebreak,
                     k: int, is_float: bool) -> pa.Table:
    """k best rows PER GROUP of one table: one multi-key sort (groups
    leading, then the SQL-total-order rank keys), then a vectorized
    rank-within-run filter — no Python loop over groups."""
    import numpy as np

    if batch.num_rows == 0:
        return batch
    keys = [(c, "ascending") for c in group_by] + [
        (order_by, "descending" if desc else "ascending")
    ] + [(c, "ascending") for c in tiebreak]
    tbl = batch
    if is_float:
        col = batch[order_by]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        isnan = pc.fill_null(pc.is_nan(col), False)
        isnull = pc.is_null(col)
        cls = pc.add(
            pc.cast(isnan if not desc else pc.invert(pc.or_(isnan, isnull)),
                    pa.int8()),
            pc.multiply(pc.cast(isnull, pa.int8()), pa.scalar(2, pa.int8())),
        )
        tbl = batch.append_column("__cls", cls)
        keys = [(c, "ascending") for c in group_by] + [("__cls", "ascending")] + keys[len(group_by):]
    idx = pc.sort_indices(tbl, sort_keys=keys, null_placement="at_end")
    tbl = tbl.take(idx)
    starts = _group_run_starts(tbl, group_by)
    pos = np.arange(tbl.num_rows, dtype=np.int64)
    rank = pos - starts[np.searchsorted(starts, pos, side="right") - 1]
    tbl = tbl.filter(pa.array(rank < k))
    return tbl.drop_columns(["__cls"]) if is_float else tbl


class _GroupTopKPartial:
    """Per-block grouped top-k partial (see ``_group_topk_take``)."""

    def __init__(self, group_by, order_by, desc, tiebreak, k, is_float):
        self.group_by = list(group_by)
        self.order_by = order_by
        self.desc = desc
        self.tiebreak = list(tiebreak)
        self.k = k
        self.is_float = is_float

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _group_topk_take(batch, self.group_by, self.order_by, self.desc,
                                self.tiebreak, self.k, self.is_float)


def store_group_topk(
    store,
    group_by,
    order_by: str,
    k: int,
    *,
    desc: bool = True,
    predicate=None,
    columns: "list[str] | None" = None,
    tiebreak=(),
    verify_crc: bool = False,
    return_plan: bool = False,
    max_partial_rows: int = 2_000_000,
):
    """Top-k rows PER GROUP (``ROW_NUMBER() OVER (PARTITION BY group ORDER
    BY col) <= k``) without a global sort or exchange: zone maps + the
    membership footer probe prune containers on the predicate, survivors
    decode only the involved columns, each block keeps its k best rows per
    group (sound: a row in the global per-group top k is in its block's),
    and the driver fold repeats the same selection over ≤ (groups per
    block) × k × blocks rows — the rollup-grade contract ``storegroup``
    uses, guarded LOUDLY by ``max_partial_rows``. No τ threshold: a global
    value bound can't speak for every group (a per-group τ would need
    single-group containers; range-cluster by the group column and the
    predicate pruning already does that job).

    ``store`` is one directory or a list read as ONE family: one batch of
    footer-probe tasks + one scan across members, both plain Ray tasks;
    involved column types must agree."""
    if not (1 <= k <= MAX_K):
        raise ValueError(
            f"k={k} outside [1, {MAX_K}] — larger per-group top-k exceeds the "
            "driver-fold contract; use a distributed window over "
            "decode_dataset(...) instead"
        )
    group_by = list(group_by)
    if not group_by:
        raise ValueError("store_group_topk needs at least one group column")
    tiebreak = list(tiebreak)
    scan = PrunedScan(store, predicate, [*group_by, order_by, *tiebreak, *(columns or [])],
                      all_columns=columns is None, what="involved")
    is_float = pa.types.is_floating(scan.schema[order_by])
    paths, plan = scan.candidates()

    out_cols = list(columns) if columns is not None else list(scan.schema)
    work_cols = list(dict.fromkeys(out_cols + group_by + [order_by] + tiebreak))
    partials = _capped(
        scan.run(paths, _GroupTopKPartial(group_by, order_by, desc, tiebreak, k, is_float),
                 work_cols, verify_crc),
        max_partial_rows, "grouped top-k",
        "use a distributed window over decode_dataset(...)",
    )
    if partials:
        merged = pa.concat_tables(partials).combine_chunks()
        out = _group_topk_take(merged, group_by, order_by, desc, tiebreak, k,
                               is_float)
        out = out.select(out_cols)
    else:
        out = pa.table({c: pa.array([], type=scan.schema[c]) for c in out_cols})
    return (out, plan) if return_plan else out
