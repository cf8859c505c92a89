"""DISTINCT pushdown over encoded stores.

``store_distinct`` answers ``SELECT DISTINCT col FROM store [WHERE pred]``
with a four-class container plan — the dictionary codec makes most of a
low-cardinality DISTINCT a metadata question:

* **pruned** — hash routing, zone maps or the footer probe prove no DNF
  branch matches: skipped.
* **metadata-answered** — manifest JSON alone: an all-null column
  contributes ``{NULL}``; a provably single-valued column (zone-map
  ``min == max``, exact bounds, no NaN) contributes ``{min}`` (plus NULL
  when nulls > 0). Requires every row to provably match the predicate
  (``record_all_match`` — rows failing the predicate must not donate their
  value).
* **footer-answered** — the column is dict-encoded with zero nulls in a
  fully-matching container: its dictionary values ARE the exact distinct
  set (string dicts via ``pc.dictionary_encode`` hold exactly the observed
  values; numeric dicts are ``np.unique`` over the data). KB-ranged
  footer + dictionary-buffer reads over all such containers run as plain
  Ray tasks at plan time (``zonemap.map_footers``), not as a Ray Data job —
  code/data buffers are never touched. Containers WITH nulls refuse this
  class: encode fills nulls with a type default before building the
  dictionary, so the default's membership in the real data is unknowable
  from the dictionary alone (``codecs.encode_array``).
* **scanned** — everything else (free-text codecs, null-bearing dict
  containers, partially-matching containers) runs ``PrunedScan.run``:
  pruned, late-materialized decode of only the target + predicate columns
  with a per-block ``pc.unique`` partial, as plain Ray tasks (no Ray
  Data job).

Values travel in the zone maps' physical domain (int64 for int/timestamp/
date/bool, float64 for floats, utf8 for strings) so metadata singles,
dictionary buffers and scan partials fold identically; the driver fold is
one ``pc.unique`` over the concatenated partials (floats fold through
numpy with explicit NaN unification — SQL DISTINCT treats all NaNs as one
value). ``max_values`` guards the driver-fold contract LOUDLY (DISTINCT
over a unique key belongs in a distributed exchange, not here).

The reference engine re-reads whole tables for ``n_unique`` / uniqueness
questions (reference analyzer.py); Parquet engines answer DISTINCT from
dictionary pages when row groups are fully dictionary-encoded — this is
that public idea over this container format's footers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .storegroup import _group_physical, _to_physical
from .zonemap import PrunedScan, _int_physical, container_dict_values, map_footers

DEFAULT_MAX_VALUES = 2_000_000


class _DistinctPartial:
    """Per-block distinct partial: one ``pc.unique`` over the decoder's
    filtered output, in the fixed physical domain. Nulls survive as a null
    row (Arrow ``unique`` keeps one); float NaNs are dropped here and
    re-added as ONE row so no partial ever carries more than one NaN."""

    def __init__(self, col: str, t: pa.DataType, physical: pa.DataType):
        self.col = col
        self.t = t
        self.physical = physical

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = _to_physical(batch[self.col], self.t, self.physical)
        u = pc.unique(arr)
        if pa.types.is_floating(self.physical):
            had_null = u.null_count > 0
            v = u.drop_null().to_numpy(zero_copy_only=False)
            vals = v[~np.isnan(v)]
            if len(vals) != len(v):  # one NaN row stands for all NaNs
                vals = np.append(vals, np.nan)
            u = pa.array(vals, type=self.physical)
            if had_null:
                u = pa.concat_arrays([u, pa.array([None], type=self.physical)])
        return pa.table({"v": u.cast(self.physical)})


def _meta_distinct(rec: dict, col: str, t: pa.DataType) -> "list | None":
    """Distinct contribution of one fully-matching container from manifest
    stats alone, or None when the metadata can't prove the exact set.
    Values in the physical domain; Python ``None`` stands for SQL NULL."""
    st = (rec.get("stats") or {}).get(col)
    rows = int(rec.get("rows", 0))
    if rows == 0:
        return []
    if st is None:
        return None
    nulls = int(st.get("nulls", 0))
    if nulls == rows:
        return [None]
    if st.get("approx"):
        return None  # truncated string bounds: min==max proves nothing
    if pa.types.is_floating(t):
        if st.get("nan") or "nan" not in st:
            return None  # NaN rows live beyond the bounds (or unknowably so)
    mn, mx = st.get("min"), st.get("max")
    if mn is None or mn != mx:
        return None
    return [mn, None] if nulls else [mn]


def _footer_distinct(path: str, col: str, physical: pa.DataType) -> "pa.Array | None":
    """Exact distinct values of ``col`` in one footer-class container from
    its dictionary buffers alone (ranged reads; code/data buffers are never
    touched), in the physical domain — or None when the footer
    disagrees with the manifest plan (codec drift, unexpected nulls) and the
    container must scan instead."""
    from .container import read_footer_file

    ent = next((c for c in read_footer_file(path)["columns"] if c["name"] == col), None)
    if ent is None or ent["codec"] != "dict" or ent["null_count"]:
        return None
    dv = container_dict_values(path, ent)
    if dv is None:
        return None
    if isinstance(dv, np.ndarray):
        np_t = np.float64 if pa.types.is_floating(physical) else np.int64
        return pa.array(dv.astype(np_t, copy=False), type=physical)
    return dv.cast(physical) if dv.type != physical else dv


def _fold_distinct(
    chunks: "list[pa.Array]", singles: "list", physical: pa.DataType, max_values: int
) -> "tuple[pa.Array, bool]":
    """Driver fold: ONE unique over every partial source. Returns the
    distinct non-null physical values plus a null-present flag."""
    had_null = any(v is None for v in singles)
    arrs = list(chunks)
    sv = [v for v in singles if v is not None]
    if sv:
        arrs.append(pa.array(sv, type=physical))
    total = sum(len(a) for a in arrs)
    if total > max_values:
        raise ValueError(
            f"distinct partials hold {total} values > max_values={max_values} — "
            "this column's cardinality is beyond the driver-fold contract; "
            "use decode_dataset(...).unique(col) (distributed exchange) or "
            "raise max_values"
        )
    if not arrs:
        return pa.array([], type=physical), had_null
    cat = pa.chunked_array(arrs, type=physical).combine_chunks()
    had_null = had_null or cat.null_count > 0
    u = pc.unique(cat.drop_null())
    if pa.types.is_floating(physical):
        v = u.to_numpy(zero_copy_only=False)
        nan = bool(np.isnan(v).any())
        vals = np.unique(v[~np.isnan(v)])
        if nan:
            vals = np.append(vals, np.nan)
        u = pa.array(vals, type=physical)
    return u, had_null


def _finalize_distinct(
    u: pa.Array, had_null: bool, col: str, t: pa.DataType
) -> pa.Table:
    """Leave the physical domain: cast back to the logical column type,
    sort ascending with NULL (if present) last."""
    it = _int_physical(t)
    if it is not None and u.type == pa.int64():
        u = u.cast(it).cast(t)
    elif u.type != t:
        u = u.cast(t)
    u = u.take(pc.sort_indices(u))
    if had_null:
        u = pa.concat_arrays([u.combine_chunks() if isinstance(u, pa.ChunkedArray) else u,
                              pa.array([None], type=t)])
    return pa.table({col: u})


def store_distinct(
    store,
    col: str,
    predicate=None,
    *,
    verify_crc: bool = False,
    return_plan: bool = False,
    max_values: int = DEFAULT_MAX_VALUES,
):
    """DISTINCT values of one store column, answered from manifest stats and
    dictionary footers wherever sound and scanning only the remainder.
    Returns a one-column ``pa.Table`` (logical type, sorted, NULL last);
    ``return_plan=True`` also returns the container-class counters.

    ``store`` is one directory or a list read as ONE family. Distinct is a
    set union, so per-member partials fold exactly; the column must carry
    the SAME type in every member (refused loudly). Scale shape: the class
    split is driver-side manifest JSON per member; the footer tasks and the
    scan each batch EVERY member's containers into one call of plain Ray
    tasks, so the query starts no Ray Data job."""
    scan = PrunedScan(store, predicate, [col], what=f"{col!r}")
    t = scan.schema[col]
    physical = _group_physical(t)  # raises for unsupported (binary) columns

    singles: list = []
    footer_paths: list[str] = []

    def on_full(rec, path):
        mv = _meta_distinct(rec, col, t)
        if mv is not None:
            singles.extend(mv)
            return "meta_answered"
        ent = (rec.get("stats") or {}).get(col) or {}
        if (rec.get("codecs") or {}).get(col) == "dict" and not int(ent.get("nulls", 1) or 0):
            footer_paths.append(path)  # confirmed by the footer tasks below
            return "footer_answered"
        return None

    paths, plan = scan.candidates(on_full, answered=("meta_answered", "footer_answered"))

    # ONE batch of footer tasks over every member's dict-class containers
    # (KB reads each, never a Ray Data job)
    chunks: list[pa.Array] = []
    fv = map_footers(_footer_distinct, footer_paths, col, physical)
    store_of = {p: d for d, _, ps in scan.members for p in ps}
    for p in footer_paths:
        if fv.get(p) is not None:
            chunks.append(fv[p])
            continue
        paths.append(p)  # codec drift: the container scans after all
        for pl in (plan, plan["stores"][store_of[p]]):
            pl["footer_answered"] -= 1
            pl["scanned"] += 1
            pl["scanned_bytes"] += scan.sizes[p]
    scan.stamp(plan, paths)

    for part in scan.run(paths, _DistinctPartial(col, t, physical), [col], verify_crc):
        arr = part["v"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        chunks.append(arr.cast(physical))

    u, had_null = _fold_distinct(chunks, singles, physical, max_values)
    out = _finalize_distinct(u, had_null, col, t)
    plan["n_values"] = out.num_rows
    return (out, plan) if return_plan else out


def store_approx_distinct(
    store,
    col: str,
    predicate=None,
    *,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """APPROXIMATE distinct count over an encoded store (or a family passed
    as a list) — the at-scale dual of ``store_distinct``'s driver-bounded
    exact fold: the zone-map/footer-probe pruned scan feeds
    ``profile.approx_distinct``'s HyperLogLog partials (one fixed 4 KB
    register array per block, elementwise-max merge — driver state never
    grows with cardinality, so a unique-key column over any store size is
    fine here and loudly refused in the exact path). ~1% typical error
    (accuracy pytest-pinned in tests/test_profile.py for the sketch)."""
    from .profile import approx_distinct
    from .zonemap import scan_store

    ds, plan = scan_store(store, predicate or [], columns=[col],
                          verify_crc=verify_crc, return_plan=True)
    n = approx_distinct(ds, col)
    return (n, plan) if return_plan else n
