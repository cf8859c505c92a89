"""Metadata-first aggregate pushdown over an encoded store.

``store_agg`` answers ``count / count(col) / min / max / sum`` — optionally
under a predicate — by splitting the store's containers into three classes
over the shared ``zonemap.PrunedScan`` read path:

* **pruned** — hash routing, ``record_may_match`` or the membership footer
  probe proves no row matches: skipped.
* **metadata-answered** — ``record_all_match`` proves EVERY row matches
  every conjunct, and the lineage record's stats carry what the aggregate
  needs (rows, per-column null counts, exact min/max, the exact per-column
  SUM captured at encode time): the container contributes to the answer
  without being opened.
* **scanned** — everything else streams through the normal pruned decode
  (``zonemap._ScanDecoder``: sorted-lead ranges, page pruning, late
  materialization) and folds per-batch partials; only the predicate and
  aggregated columns are ever decoded.

On a range-clustered store a band aggregate thus opens ONLY the (at most
two) boundary containers — interior containers are proven fully matching
and answered from their recorded stats; a whole-store aggregate opens
nothing at all. This is Parquet's row-group-statistics aggregate pushdown
(public format spec; same idea DuckDB/DataFusion apply to ``count/min/max``
over Parquet metadata), extended with exact encoded sums.

Soundness notes:

* ``record_all_match`` demands ``nulls == 0`` on every clause column (NULL
  matches nothing) and refuses ``==`` / ``in`` proofs on approximate
  (truncated) string bounds; range/containment proofs remain sound under
  widened bounds because widened ⊆ predicate ⇒ true ⊆ predicate.
* Float columns record a ``nan`` count at encode: NaN is a value, fails
  every comparison, poisons sums, and (in SQL engines) participates in
  min/max inconsistently — any container with NaNs (or written before the
  count existed) degrades to the scan path for that column.
* Integer sums are exact at any scale (``zonemap.exact_int_sum``); float
  sums combine in container order, which — like any parallel SQL engine —
  may differ from a serial sum in the last ulp.

The reference engine has no analogue: it re-reads whole tables for every
aggregate question (reference analyzer.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .zonemap import PrunedScan, _int_physical, exact_int_sum

AGG_FNS = ("count", "nn", "min", "max", "sum", "avg")


def _expand_avg(aggs_n):
    """``avg`` is derived, never a partial: it expands to (sum, nn) — both
    already exact and decomposable — and divides at finalize. Returns the
    physical agg list (deduped) plus the avg'd columns."""
    base: list[tuple[str, str | None]] = []
    avgs: list[str] = []
    for fn, col in aggs_n:
        if fn == "avg":
            avgs.append(col)
            base.extend([("sum", col), ("nn", col)])
        else:
            base.append((fn, col))
    return list(dict.fromkeys(base)), avgs


def _attach_avgs(result: dict, requested) -> dict:
    """Finalized result in the REQUESTED key order: avg_{col} = sum/nn
    (SQL: NULL over zero rows); synthetic sum/nn keys the caller did not ask
    for are dropped."""
    out: dict = {}
    for fn, col in requested:
        key = fn if col is None else f"{fn}_{col}"
        if fn == "avg":
            s, nn = result.get(f"sum_{col}"), result.get(f"nn_{col}", 0)
            out[key] = (float(s) / nn) if (s is not None and nn) else None
        else:
            out[key] = result.get(key)
    return out


def _normalize_aggs(aggs) -> list[tuple[str, str | None]]:
    """Aggs = iterable of ``"count"`` / ``(fn, col)`` / ``"fn:col"`` strings.
    ``nn`` is COUNT(col) (non-null count)."""
    out: list[tuple[str, str | None]] = []
    for a in aggs:
        if isinstance(a, str):
            fn, _, col = a.partition(":")
            a = (fn, col or None)
        fn, col = a
        fn = fn.lower()
        if fn not in AGG_FNS:
            raise ValueError(f"unsupported aggregate {fn!r}; one of {AGG_FNS}")
        if fn == "count":
            col = None
        elif col is None:
            raise ValueError(f"aggregate {fn!r} needs a column")
        out.append((fn, col))
    if not out:
        raise ValueError("no aggregates requested")
    return out


def _check_sums(aggs, schema: dict) -> None:
    for fn, col in aggs:
        if fn == "sum" and not (
            pa.types.is_integer(schema[col]) or pa.types.is_floating(schema[col])
        ):
            raise ValueError(f"sum over non-numeric column {col!r} ({schema[col]})")


def _meta_answer(rec: dict, aggs, acc: dict) -> bool:
    """Fold one fully-matching record's stats into ``acc``. Returns False
    (fold nothing) when any requested aggregate isn't answerable from the
    record's metadata — the caller then scans the container instead."""
    st = rec.get("stats") or {}
    rows = int(rec.get("rows", 0))
    upd: dict = {}
    for fn, col in aggs:
        key = fn if col is None else f"{fn}_{col}"
        if fn == "count":
            upd[key] = acc.get(key, 0) + rows
            continue
        ent = st.get(col)
        if ent is None:
            return False
        if fn == "nn":
            upd[key] = acc.get(key, 0) + rows - int(ent.get("nulls", 0))
            continue
        t = ent.get("t", "")
        if ("float" in t or "double" in t) and "nan" not in ent:
            return False  # pre-NaN-count container: presence unknowable
        if ent.get("nan"):
            return False  # NaN participates in min/max/sum engine-dependently
        if fn in ("min", "max"):
            v = ent.get(fn)
            if ent.get("approx"):
                return False  # truncated bound is not an actual value
            if v is None:
                if int(ent.get("nulls", 0)) != rows:
                    return False  # non-null rows exist but no bound recorded
                continue  # all-null: contributes nothing (SQL semantics)
            cur = acc.get(key)
            upd[key] = v if cur is None else (min(cur, v) if fn == "min" else max(cur, v))
        elif fn == "sum":
            if "sum" not in ent:
                return False  # pre-sum container (or non-finite float sum)
            if int(ent.get("nulls", 0)) == rows:
                continue  # all-null: SUM over no rows adds nothing
            upd[key] = acc.get(key, 0) + ent["sum"]
    acc.update(upd)
    return True


class _AggPartial:
    """Per-batch aggregate partials over the decoder's filtered output —
    one tiny row per batch; min/max live in the zone maps' physical domain
    (ints for timestamp/date/bool) so they combine with metadata answers."""

    def __init__(self, aggs, types: dict[str, pa.DataType]):
        self.aggs = aggs
        self.types = types

    def __call__(self, batch: pa.Table) -> pa.Table:
        # every column explicitly typed so partial blocks from different
        # containers always share a schema (a [None] cell must not infer
        # null-type); integer sums travel as decimal strings — exact past
        # int64 — and parse back with int() on the driver
        row: dict[str, pa.Array] = {"_rows": pa.array([batch.num_rows], pa.int64())}
        for fn, col in self.aggs:
            if fn == "count":
                continue
            key = f"{fn}_{col}"
            arr = batch[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if fn == "nn":
                row[key] = pa.array([len(arr) - arr.null_count], pa.int64())
                continue
            t = self.types[col]
            it = _int_physical(t)
            if fn in ("min", "max"):
                pt = pa.int64() if it is not None else (
                    pa.float64() if pa.types.is_floating(t) else pa.string()
                )
                if len(arr) == arr.null_count:
                    row[key] = pa.array([None], pt)
                else:
                    mm = pc.min_max(arr.cast(it) if it is not None else arr)
                    row[key] = pa.array([mm[fn].as_py()], pt)
            elif fn == "sum":
                nn = arr.drop_null()
                if pa.types.is_integer(t):
                    v = str(exact_int_sum(nn.cast(pa.int64()))) if len(nn) else None
                    row[key] = pa.array([v], pa.string())
                else:
                    s = (
                        float(np.sum(nn.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)))
                        if len(nn)
                        else None
                    )
                    row[key] = pa.array([s], pa.float64())
        return pa.table(row)


def _merge_partials(partials, aggs, acc: dict) -> None:
    for p in partials:
        for fn, col in aggs:
            if fn == "count":
                acc["count"] = acc.get("count", 0) + int(p["_rows"])
                continue
            key = f"{fn}_{col}"
            v = p.get(key)
            if v is None:
                continue
            if fn == "sum" and isinstance(v, str):
                v = int(v)  # exact integer sum shipped as decimal string
            cur = acc.get(key)
            if fn == "min":
                acc[key] = v if cur is None else min(cur, v)
            elif fn == "max":
                acc[key] = v if cur is None else max(cur, v)
            else:  # nn / sum
                acc[key] = (cur or 0) + v


def _finalize_agg(aggs, acc: dict, schema: dict) -> dict:
    """Counts default to 0; min/max leave the physical int domain."""
    result: dict = {}
    for fn, col in aggs:
        key = fn if col is None else f"{fn}_{col}"
        v = acc.get(key)
        if fn in ("count", "nn"):
            v = int(v or 0)
        elif v is not None and fn in ("min", "max"):
            t = schema[col]
            if _int_physical(t) is not None and not pa.types.is_integer(t):
                v = pa.scalar(v, type=_int_physical(t)).cast(t).as_py()
        elif v is not None and fn == "sum" and pa.types.is_floating(schema[col]):
            v = float(v)
        result[key] = v
    return result


def store_agg(
    store,
    aggs,
    predicate=None,
    *,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """Aggregate an encoded store (one directory, or a list read as ONE
    family), answering from metadata wherever the zone maps prove it sound
    and scanning (pruned, late-materialized) only the containers they can't
    decide. Returns ``{agg_name: value}`` with min/max in the column's
    logical type; ``return_plan=True`` also returns the ``PrunedScan`` plan
    counters plus ``meta_answered``.

    Every supported aggregate is decomposable — ``count``/``nn``/``sum`` are
    additive, ``min``/``max`` combine by comparison — so the family answer
    folds the per-container answers exactly: fully-matching containers
    answer from their recorded stats (the ``meta_answered`` class of the
    ``PrunedScan`` plan) and the undecidable remainder of EVERY member runs
    in one partials scan (plain Ray tasks, no Ray Data job). Aggregate and
    predicate columns must carry the SAME type in every member (min/max
    comparisons and sums across type families would be silently wrong) —
    refused loudly with per-store detail; columns the aggregate never
    touches may drift freely."""
    requested = _normalize_aggs(aggs)
    aggs, _ = _expand_avg(requested)
    agg_cols = list(dict.fromkeys(c for _, c in aggs if c is not None))
    scan = PrunedScan(store, predicate, dict.fromkeys(agg_cols, "aggregate"),
                      what="aggregate/predicate")
    schema = scan.schema
    _check_sums(aggs, schema)

    acc: dict = {}
    paths, plan = scan.candidates(
        lambda rec, _: "meta_answered" if _meta_answer(rec, aggs, acc) else None,
        answered=("meta_answered",),
    )
    pred_cols = [c for br in scan.dnf for c, _, _ in br]
    work_cols = agg_cols or pred_cols[:1] or [next(iter(schema))]
    for part in scan.run(paths, _AggPartial(aggs, schema), work_cols, verify_crc):
        _merge_partials(part.to_pylist(), aggs, acc)
    result = _attach_avgs(_finalize_agg(aggs, acc, schema), requested)
    return (result, plan) if return_plan else result


def store_quantiles(
    store,
    col: str,
    qs,
    predicate=None,
    *,
    n_bins: int = 2048,
    collect_cap: int = 1_000_000,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """EXACT quantiles over an encoded store (or a family passed as a list)
    WITHOUT a global sort: the zone-map/footer-probe pruned scan feeds
    ``profile.exact_quantiles``' histogram-refinement selection — per-block
    fixed-size histogram partials, then only the rank-bearing bins' values
    collect (re-histogrammed when skewed), O(n_bins + collected) driver
    state. Semantics are DuckDB ``quantile_cont`` (linear interpolation
    between the order statistics at floor/ceil((n-1)q)); NULLs are skipped;
    numeric / timestamp / date columns only.

    On a store range-clustered by ``col`` with a band predicate, the selection
    runs over only the band's containers; every pass is a streaming decode of
    ONE column (plus predicate columns) — 2-3 pruned scans at any store size
    vs the all-to-all exchange ``Dataset.sort`` would pay."""
    from .profile import exact_quantiles
    from .zonemap import scan_store

    ds, plan = scan_store(store, predicate or [], columns=[col],
                          verify_crc=verify_crc, return_plan=True)
    vals = exact_quantiles(ds, col, list(qs), n_bins=n_bins,
                           collect_cap=collect_cap)
    return (vals, plan) if return_plan else vals
