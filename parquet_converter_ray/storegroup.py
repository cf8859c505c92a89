"""GROUP BY aggregate pushdown over encoded stores.

``store_agg_group`` answers ``SELECT group_cols, count/nn/min/max/sum ...
FROM store [WHERE pred] GROUP BY group_cols`` with the same three-class
container plan ``storeagg.store_agg`` uses for scalar aggregates:

* **pruned** — hash routing, zone maps or the footer probe prove no DNF
  branch matches: skipped.
* **metadata-answered** — every row provably matches the predicate AND every
  group column is provably SINGLE-VALUED in the container (zone-map
  ``min == max`` with zero nulls and exact bounds, or all-null → the SQL
  NULL group): the container contributes ONE partial row — built from its
  recorded rows / null counts / min / max / exact sum — without being
  opened. On a store range-clustered by the grouping column (the common
  rollup layout: one tenant / one day / one source per container), a whole
  GROUP BY answers from manifest JSON alone.
* **scanned** — everything else runs ONE distributed job: pruned,
  late-materialized decode of only the group + aggregate + predicate
  columns, then a vectorized Arrow ``group_by`` partial per block.

Partials live in a fixed physical domain so metadata rows and scan rows
combine exactly: group keys and min/max as int64 for int / timestamp /
date / bool columns (the zone maps' own domain), float64 for floats,
utf8 for strings; integer sums as ``decimal128(38, 0)`` — Arrow's grouped
sum is exact there far past int64, matching the encode-time exact sums —
and float sums as float64. The final fold is one driver-side Arrow
``group_by`` over the concatenated partials (no Python loop over groups).

Driver-fold contract (same shape as ``pipelines._util.finish_on_driver``):
the concatenated partials hold at most (distinct groups per block) × blocks
rows. That is the right shape for rollup-grade group cardinalities (flags,
tenants, days, languages — the GROUP BY columns a store is organized by);
``max_partial_rows`` guards the contract LOUDLY (default 2M rows) and the
error names the exchange alternative (``decode_dataset(...).groupby``)
instead of silently collecting an unbounded driver table.

SQL semantics: NULL group keys form their own group; NaN float keys refuse
the metadata path (scan decides; Arrow and DuckDB both group NaNs
together); min/max/sum skip NULLs and an all-NULL group yields NULL, count
counts rows, nn counts non-nulls.

The reference engine re-reads whole tables for every grouped question
(reference analyzer.py value_counts); Parquet engines push scalar
aggregates to row-group stats — extending that to GROUP BY via
single-valued zone maps is the same public idea applied per group.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .storeagg import _check_sums, _expand_avg, _meta_answer, _normalize_aggs
from .zonemap import PrunedScan, _int_physical, _is_strlike

_SUM_DEC = pa.decimal128(38, 0)


def _group_physical(t: pa.DataType) -> pa.DataType:
    """Physical partial-domain type for a group column (the zone maps' own
    domain, so metadata keys and scanned keys compare equal)."""
    if _int_physical(t) is not None:
        return pa.int64()
    if pa.types.is_floating(t):
        return pa.float64()
    if _is_strlike(t):
        return pa.string()
    raise ValueError(f"cannot GROUP BY column of type {t}")


def _minmax_physical(t: pa.DataType) -> pa.DataType:
    if _int_physical(t) is not None:
        return pa.int64()
    if pa.types.is_floating(t):
        return pa.float64()
    return pa.string()


def _partial_schema(group_by, aggs, schema) -> pa.Schema:
    """Fixed schema every partial block (scan or metadata) conforms to."""
    fields = [pa.field(f"g_{c}", _group_physical(schema[c])) for c in group_by]
    fields.append(pa.field("_rows", pa.int64()))
    for fn, col in aggs:
        if fn == "count":
            continue
        if fn == "nn":
            fields.append(pa.field(f"nn_{col}", pa.int64()))
        elif fn in ("min", "max"):
            fields.append(pa.field(f"{fn}_{col}", _minmax_physical(schema[col])))
        else:  # sum
            st = _SUM_DEC if pa.types.is_integer(schema[col]) else pa.float64()
            fields.append(pa.field(f"sum_{col}", st))
    return pa.schema(fields)


def _to_physical(arr: pa.ChunkedArray | pa.Array, t: pa.DataType, target: pa.DataType):
    """Cast a decoded column into its partial physical domain."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.type == target:
        return arr
    it = _int_physical(t)
    if it is not None and target == pa.int64():
        return arr.cast(it).cast(pa.int64())
    return arr.cast(target)


class _GroupPartial:
    """Per-block grouped partials over the decoder's filtered output — one
    row per (block, group), all columns in the fixed partial domain. The
    group_by + aggregate run as ONE vectorized Arrow hash aggregation; input
    columns are staged under collision-free ``__i_*`` names so ``min(x)
    GROUP BY x`` and duplicate (fn, col) pairs never alias."""

    def __init__(self, group_by, aggs, types: dict[str, pa.DataType]):
        self.group_by = list(group_by)
        self.aggs = aggs
        self.types = types
        self.schema = _partial_schema(group_by, aggs, types)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array] = {}
        for c in self.group_by:
            cols[f"g_{c}"] = _to_physical(
                batch[c], self.types[c], _group_physical(self.types[c])
            )
        specs: list[tuple] = [([], "count_all")]
        renames = {"count_all": "_rows"}
        for fn, col in self.aggs:
            if fn == "count":
                continue
            key = f"{fn}_{col}"
            iname = f"__i_{key}"
            arr = batch[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            t = self.types[col]
            if fn == "nn":
                specs.append((iname, "count"))
                renames[f"{iname}_count"] = key
            elif fn in ("min", "max"):
                arr = _to_physical(arr, t, _minmax_physical(t))
                specs.append((iname, fn))
                renames[f"{iname}_{fn}"] = key
            else:  # sum — decimal128(38,0) for ints (exact), float64 for floats
                arr = arr.cast(_SUM_DEC if pa.types.is_integer(t) else pa.float64())
                specs.append((iname, "sum"))
                renames[f"{iname}_sum"] = key
            cols[iname] = arr
        tbl = pa.table(cols)
        res = tbl.group_by([f"g_{c}" for c in self.group_by]).aggregate(specs)
        res = res.rename_columns([renames.get(n, n) for n in res.column_names])
        return res.select(self.schema.names).cast(self.schema)


def _meta_group_row(rec: dict, group_by, aggs, schema) -> dict | None:
    """One partial row from a fully-matching container's recorded stats, or
    None when the metadata can't answer (multi-valued / approximate /
    NaN-bearing group column, or an aggregate ``storeagg._meta_answer``
    would refuse). Values land in the partial physical domain."""
    st = rec.get("stats") or {}
    rows = int(rec.get("rows", 0))
    if rows == 0:
        return None  # nothing to contribute; skip (empty containers are rare)
    row: dict = {}
    for c in group_by:
        ent = st.get(c)
        if ent is None:
            return None
        nulls = int(ent.get("nulls", 0))
        if nulls == rows:
            row[f"g_{c}"] = None  # the SQL NULL group
            continue
        if nulls != 0 or ent.get("approx"):
            return None
        if pa.types.is_floating(schema[c]) and ent.get("nan"):
            return None  # NaN keys: let the scan path group them
        mn, mx = ent.get("min"), ent.get("max")
        if mn is None or mn != mx:
            return None
        row[f"g_{c}"] = mn
    # aggregates: reuse the scalar metadata fold on a fresh accumulator —
    # identical soundness rules (exact bounds, NaN refusal, exact sums)
    acc: dict = {}
    if not _meta_answer(rec, aggs, acc):
        return None
    row["_rows"] = rows
    for fn, col in aggs:
        if fn == "count":
            continue
        row[f"{fn}_{col}"] = acc.get(f"{fn}_{col}")
    return row


def _finalize_group(merged: pa.Table, group_by, aggs, schema) -> pa.Table:
    """Leave the physical partial domain: group keys and min/max cast back
    to their logical column types, counts to int64, exact decimal sums to
    int64 (raising loudly if a sum ever exceeds int64 — at which point the
    caller wants a decimal column, not a silent wrap)."""
    cols: dict[str, pa.Array] = {}
    for c in group_by:
        arr = merged[f"g_{c}"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        t = schema[c]
        it = _int_physical(t)
        if it is not None:
            arr = arr.cast(it).cast(t)
        elif arr.type != t:
            arr = arr.cast(t)
        cols[c] = arr
    for fn, col in aggs:
        key = fn if col is None else f"{fn}_{col}"
        src = "_rows" if fn == "count" else key
        arr = merged[src]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if fn in ("count", "nn"):
            arr = arr.cast(pa.int64())
        elif fn in ("min", "max"):
            t = schema[col]
            it = _int_physical(t)
            if it is not None:
                arr = arr.cast(it).cast(t)
        elif fn == "sum" and pa.types.is_decimal(arr.type):
            arr = arr.cast(pa.int64())  # raises on overflow — never wraps
        cols[key] = arr
    return pa.table(cols)


def _merge_group_partials(partials: list[pa.Table], group_by, aggs) -> pa.Table:
    """Final driver fold: ONE Arrow group_by over the concatenated partials.
    count/nn/sum re-sum (decimal sums stay exact), min/max re-min/max."""
    all_p = pa.concat_tables(partials)
    specs: list[tuple] = [("_rows", "sum")]
    renames = {"_rows_sum": "_rows"}
    for fn, col in aggs:
        if fn == "count":
            continue
        key = f"{fn}_{col}"
        afn = {"nn": "sum", "sum": "sum", "min": "min", "max": "max"}[fn]
        specs.append((key, afn))
        renames[f"{key}_{afn}"] = key
    res = all_p.group_by([f"g_{c}" for c in group_by]).aggregate(specs)
    return res.rename_columns([renames.get(n, n) for n in res.column_names])


def _capped(partials, max_rows: int, what: str, alternative: str) -> list:
    """Collect streamed partials under the driver-fold contract: refuse
    LOUDLY, naming the distributed alternative, once they exceed
    ``max_rows`` rows (shared by the grouped pushdowns)."""
    out, n = [], 0
    for b in partials:
        n += b.num_rows
        if n > max_rows:
            raise ValueError(
                f"{what} partials exceed max_partial_rows={max_rows} — beyond "
                f"the driver-fold contract; {alternative} or raise max_partial_rows"
            )
        out.append(b)
    return out


def _attach_group_avgs(tbl: pa.Table, group_by, requested) -> pa.Table:
    """Output columns in the REQUESTED order with ``avg_{col} = sum/nn``
    (NULL over zero non-null rows); synthetic sum/nn columns the caller did
    not ask for are dropped."""
    cols: dict[str, pa.Array] = {c: tbl[c] for c in group_by}
    for fn, col in requested:
        key = fn if col is None else f"{fn}_{col}"
        if fn == "avg":
            s = tbl[f"sum_{col}"]
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            nn = tbl[f"nn_{col}"]
            if isinstance(nn, pa.ChunkedArray):
                nn = nn.combine_chunks()
            avg = pc.divide(s.cast(pa.float64()), nn.cast(pa.float64()))
            cols[key] = pc.if_else(pc.equal(nn, 0), pa.scalar(None, pa.float64()), avg)
        else:
            cols[key] = tbl[key]
    return pa.table(cols)


def store_agg_group(
    store,
    group_by,
    aggs,
    predicate=None,
    *,
    verify_crc: bool = False,
    return_plan: bool = False,
    max_partial_rows: int = 2_000_000,
) -> pa.Table | tuple[pa.Table, dict]:
    """GROUP BY aggregate over an encoded store (module docstring has the
    plan semantics). Returns a pyarrow Table with the group columns (logical
    types) plus one column per aggregate, named ``count`` / ``{fn}_{col}``;
    group order is unspecified (sort on the result if you need one).

    ``store`` is one directory or a list read as ONE family: grouped
    partials are additive across members exactly like the scalar folds, so
    the family answer is one shared partial pool — metadata rows from every
    member's fully-matching single-valued containers, ONE batch of
    footer-probe tasks, ONE scan over every member's remainder (plain Ray
    tasks, no Ray Data job), one driver fold. Group / aggregate / predicate
    columns must carry the same type in every member (refused loudly with
    per-store detail — ``compact_dataset`` conforms)."""
    group_by = list(group_by)
    if not group_by:
        raise ValueError("store_agg_group needs at least one group column")
    requested = list(dict.fromkeys(_normalize_aggs(aggs)))
    aggs, _ = _expand_avg(requested)
    work_cols = list(dict.fromkeys(group_by + [c for _, c in aggs if c is not None]))
    scan = PrunedScan(store, predicate, {**dict.fromkeys(work_cols, "aggregate"),
                                         **dict.fromkeys(group_by, "group")},
                      what="group/aggregate/predicate")
    schema = scan.schema
    for c in group_by:
        _group_physical(schema[c])  # raises on ungroupable types
    _check_sums(aggs, schema)

    meta_rows: list[dict] = []

    def on_full(rec, _path):
        row = _meta_group_row(rec, group_by, aggs, schema)
        if row is None:
            return None
        meta_rows.append(row)
        return "meta_answered"

    paths, plan = scan.candidates(on_full, answered=("meta_answered",))
    partials = [pa.Table.from_pylist(meta_rows, schema=_partial_schema(group_by, aggs, schema))]
    partials += _capped(
        scan.run(paths, _GroupPartial(group_by, aggs, schema), work_cols, verify_crc),
        max_partial_rows, "grouped",
        "aggregate via decode_dataset(...).groupby(...) (distributed exchange)",
    )
    merged = _merge_group_partials(partials, group_by, aggs)
    result = _attach_group_avgs(
        _finalize_group(merged, group_by, aggs, schema), group_by, requested
    )
    return (result, plan) if return_plan else result
