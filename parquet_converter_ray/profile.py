"""Dataset profiling (reference analyzer parity, SURVEY.md §2.5 A1-A5 / §3.3).

Reference behavior: eager per-file ``pl.read_parquet`` + full-frame stats
(reference analyzer.py:284-355). Here the stats are computed as mergeable
per-batch partials inside ``map_batches`` (no full materialisation, no shuffle
for the common case) and combined on the driver — the partial+final pattern
that also powers the codec cost-model stats pass.

Per column: null_count, n_unique (exact: batch-level unique sets merged while
small; distributed groupby fallback when a column's cardinality overflows the
track limit), min/max/mean/std for numerics, top-k value frequencies for
low-cardinality columns (reference analyzer.py:265-275 computes top-5 for
columns with <=20 uniques).

Exact median uses a distributed sort + split_at_indices pick — the only
profiling operation that shuffles (reference uses polars' in-memory median,
analyzer.py:191-197).
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .pipelines._util import read_parquet_clean

_UNIQUE_CAP = 100_000  # per-column distinct cap before falling back to groupby


def _batch_partial(batch: pa.Table, columns: list[str]) -> dict:
    out: dict = {}
    for name in columns:
        col = batch[name]
        t = col.type
        p: dict = {"n": len(col), "nulls": col.null_count}
        if pa.types.is_floating(t) or pa.types.is_integer(t):
            nn = col.drop_null()
            if len(nn):
                v = nn.to_numpy(zero_copy_only=False).astype(np.float64)
                p["min"] = float(np.min(v))
                p["max"] = float(np.max(v))
                p["sum"] = float(np.sum(v))
                p["sumsq"] = float(np.sum(v * v))
                p["cnt"] = int(len(v))
        elif pa.types.is_timestamp(t) or pa.types.is_date(t):
            nn = col.drop_null()
            if len(nn):
                p["min_ts"] = pc.min(nn).as_py().isoformat()
                p["max_ts"] = pc.max(nn).as_py().isoformat()
        # value counts, capped — feeds both n_unique and top-k
        try:
            vc = pc.value_counts(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
            if len(vc) <= _UNIQUE_CAP:
                p["vc"] = {
                    (v.as_py() if v.is_valid else None): c.as_py()
                    for v, c in zip(vc.field("values"), vc.field("counts"))
                }
            else:
                p["vc_overflow"] = True
        except pa.ArrowNotImplementedError:
            p["vc_overflow"] = True
        out[name] = p
    return out


def profile_dataset(
    ds: "ray.data.Dataset",
    column_limit: int = 25,
    top_k: int = 5,
    top_k_max_card: int = 20,
    exact_medians: bool = False,
) -> dict:
    """Profile a Dataset; returns {"n_rows", "columns": {name: {...}}}.

    Medians come FREE from the merged value counts for columns under the
    distinct cap; ``exact_medians=True`` additionally pays one distributed
    sort per high-cardinality numeric column (the full-report path)."""
    schema = ds.schema()
    columns = list(schema.names)[:column_limit]
    types = dict(zip(schema.names, schema.types))

    def partials(batch: pa.Table) -> pa.Table:
        blob = pickle.dumps(_batch_partial(batch, columns))
        return pa.table({"partial": pa.array([blob], type=pa.binary())})

    rows = ds.map_batches(partials, batch_format="pyarrow").take_all()
    merged: dict[str, dict] = {c: {"n": 0, "nulls": 0, "vc": {}, "overflow": False} for c in columns}
    for row in rows:
        part = pickle.loads(row["partial"])
        for name, p in part.items():
            m = merged[name]
            m["n"] += p["n"]
            m["nulls"] += p["nulls"]
            for k in ("min", "max"):
                if k in p:
                    m[k] = p[k] if k not in m else (min, max)[k == "max"](m[k], p[k])
            for k in ("min_ts", "max_ts"):
                if k in p:
                    m[k] = p[k] if k not in m else (min, max)[k == "max_ts"](m[k], p[k])
            for k in ("sum", "sumsq", "cnt"):
                if k in p:
                    m[k] = m.get(k, 0) + p[k]
            if p.get("vc_overflow"):
                m["overflow"] = True
            elif not m["overflow"]:
                for v, c in p["vc"].items():
                    m["vc"][v] = m["vc"].get(v, 0) + c
                if len(m["vc"]) > _UNIQUE_CAP:
                    m["overflow"] = True
                    m["vc"] = {}

    result: dict = {"n_rows": merged[columns[0]]["n"] if columns else ds.count()}
    cols_out: dict = {}
    for name in columns:
        m = merged[name]
        c: dict = {"dtype": str(types[name]), "null_count": m["nulls"]}
        if m["overflow"]:
            # distributed exact distinct: groupby(col).count() then count rows
            c["n_unique"] = ds.groupby(name).count().count()
        else:
            c["n_unique"] = len(m["vc"])
        if "cnt" in m and m["cnt"]:
            n = m["cnt"]
            mean = m["sum"] / n
            var = max(m["sumsq"] / n - mean * mean, 0.0)
            c.update(
                min=m["min"],
                max=m["max"],
                mean=mean,
                std=float(np.sqrt(var * n / (n - 1))) if n > 1 else 0.0,  # sample std, ddof=1
            )
        if "min_ts" in m:
            c["min"], c["max"] = m["min_ts"], m["max_ts"]
        if not m["overflow"] and 0 < c["n_unique"] <= top_k_max_card:
            top = sorted(m["vc"].items(), key=lambda kv: (-kv[1], str(kv[0])))[:top_k]
            c["top_values"] = [
                {"value": v, "count": cnt, "pct": round(cnt / max(m["n"], 1) * 100, 2)}
                for v, cnt in top
            ]
        c["null_pct"] = round(m["nulls"] / max(m["n"], 1) * 100, 2)
        if "cnt" in m and m["cnt"]:
            if not m["overflow"]:
                # exact median FREE from the merged value counts (weighted
                # median over sorted distinct values) — no extra pass
                c["median"] = _median_from_counts(m["vc"])
            elif exact_medians:
                # high-cardinality fallback: distributed sort + pick
                c["median"] = exact_median(ds, name)
        cols_out[name] = c
    result["columns"] = cols_out
    return result


def _median_from_counts(vc: dict) -> float:
    """Exact median from a value->count map (polars/DuckDB semantics: mean of
    the two middle values for even counts; nulls excluded)."""
    items = sorted((k, c) for k, c in vc.items() if k is not None)
    n = sum(c for _, c in items)
    if n == 0:
        return float("nan")
    lo_idx, hi_idx = (n - 1) // 2, n // 2
    lo = hi = None
    cum = 0
    for k, c in items:
        if lo is None and cum + c > lo_idx:
            lo = k
        if cum + c > hi_idx:
            hi = k
            break
        cum += c
    return (float(lo) + float(hi)) / 2.0


def exact_median(ds: "ray.data.Dataset", col: str) -> float:
    """Exact distributed median: sort (the shuffle) + positional pick.

    Matches DuckDB/polars semantics: average of the two middle values for even
    row counts (reference analyzer.py:191-197 uses polars ``median``).
    """
    vals = ds.select_columns([col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[col])), batch_format="pyarrow"
    )
    n = vals.count()
    if n == 0:
        return float("nan")
    s = vals.sort(col)
    if n % 2:
        frag = s.split_at_indices([n // 2, n // 2 + 1])[1]
        return float(frag.take_all()[0][col])
    frag = s.split_at_indices([n // 2 - 1, n // 2 + 1])[1]
    rows = frag.take_all()
    return (float(rows[0][col]) + float(rows[1][col])) / 2.0


def exact_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: list[float],
    n_bins: int = 2048,
    collect_cap: int = 1_000_000,
    max_rounds: int = 16,
) -> list[float]:
    """EXACT continuous quantiles (DuckDB ``quantile_cont`` semantics: linear
    interpolation between the order statistics at ``floor/ceil((n-1)*q)``)
    WITHOUT a global sort — distributed selection by histogram refinement.

    Shape (the scale path ``exact_median``'s sort+pick lacks):
      1. one ``map_batches`` pass for per-batch (count, min, max) partials;
      2. one pass building a shared-edge histogram per batch (tiny fixed-size
         partials, vector-added on the driver — no shuffle);
      3. the bins containing the needed ranks are identified from the merged
         CDF and ONLY those bins' values are collected (expected n/n_bins rows
         per bin); a skewed bin larger than ``collect_cap`` is re-histogrammed
         within its own range (each round narrows the range ×n_bins, so
         rounds are O(log_{n_bins} spread); a zero-width bin means all values
         equal and resolves immediately).

    Every pass is a streaming ``map_batches`` over pruned columns; driver
    state is O(n_bins + collected). At 100 TB this is 2-3 scans vs the
    all-to-all exchange a ``Dataset.sort`` would pay.
    """
    arr = ds.select_columns([col])

    def _minmax(t: pa.Table) -> pa.Table:
        v = pc.drop_null(t[col])
        if len(v) == 0:
            return pa.table(
                {
                    "n": pa.array([0], pa.int64()),
                    "lo": pa.array([None], pa.float64()),
                    "hi": pa.array([None], pa.float64()),
                }
            )
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "lo": pa.array([pc.min(v).as_py()], pa.float64()),
                "hi": pa.array([pc.max(v).as_py()], pa.float64()),
            }
        )

    parts = pa.concat_tables(
        list(arr.map_batches(_minmax, batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
    )
    n = int(pc.sum(parts["n"]).as_py() or 0)
    if n == 0:
        return [float("nan")] * len(qs)
    glo = float(pc.min(parts["lo"]).as_py())
    ghi = float(pc.max(parts["hi"]).as_py())

    # order-statistic ranks needed (0-indexed), deduplicated across quantiles
    pos = [(n - 1) * q for q in qs]
    ranks = sorted({int(np.floor(p)) for p in pos} | {int(np.ceil(p)) for p in pos})

    def _rank_values(sub: "ray.data.Dataset", lo: float, hi: float, want: list[int], base: int, rounds: int) -> dict[int, float]:
        """Resolve order statistics ``want`` (global 0-indexed ranks) among the
        values of ``sub`` in [lo, hi]; ``base`` = count of values below lo."""
        if lo == hi:
            return {r: lo for r in want}
        edges = np.linspace(lo, hi, n_bins + 1)

        def _hist(t: pa.Table) -> pa.Table:
            v = pc.drop_null(t[col]).to_numpy(zero_copy_only=False).astype(np.float64)
            counts, _ = np.histogram(v, bins=edges)
            return pa.table({"counts": pa.array([counts], pa.list_(pa.int64()))})

        hp = pa.concat_tables(
            list(sub.map_batches(_hist, batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
        )
        counts = np.sum(np.stack(hp["counts"].to_pylist()), axis=0) if len(hp) else np.zeros(n_bins, np.int64)
        cum = np.concatenate([[0], np.cumsum(counts)])  # cum[i] = rows below edges[i]

        out: dict[int, float] = {}
        # group the wanted ranks by containing bin so one collect serves many
        by_bin: dict[int, list[int]] = {}
        for r in want:
            b = int(np.searchsorted(cum, r - base, side="right") - 1)
            b = min(max(b, 0), n_bins - 1)
            by_bin.setdefault(b, []).append(r)

        small = sorted(b for b in by_bin if counts[b] <= collect_cap or rounds == 0)
        large = sorted(b for b in by_bin if b not in set(small))

        if small:
            # ONE collect pass serves every resolved bin: values in any wanted
            # bin are gathered together with their bin id, then split locally.
            s_lo = edges[np.array(small)]
            s_hi = edges[np.array(small) + 1]
            incl_last = edges[-1]  # histogram's last bin is right-closed

            def _collect(t: pa.Table) -> pa.Table:
                v = pc.drop_null(t[col]).to_numpy(zero_copy_only=False).astype(np.float64)
                idx = np.searchsorted(s_lo, v, side="right") - 1
                ok = idx >= 0
                hi_of = s_hi[np.maximum(idx, 0)]
                ok &= np.where(ok, (v < hi_of) | ((v == incl_last) & (hi_of == incl_last)), False)
                return pa.table(
                    {"bin": pa.array(np.asarray(small)[idx[ok]], pa.int64()),
                     "val": pa.array(v[ok], pa.float64())}
                )

            got = pa.concat_tables(
                list(sub.map_batches(_collect, batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
            )
            bins_np = got["bin"].to_numpy(zero_copy_only=False)
            vals_np = got["val"].to_numpy(zero_copy_only=False)
            for b in small:
                vals = np.sort(vals_np[bins_np == b])
                below = base + int(cum[b])
                for r in by_bin[b]:
                    out[r] = float(vals[r - below])

        for b in large:
            blo, bhi = float(edges[b]), float(edges[b + 1])
            mask_hi = pc.less_equal if b == n_bins - 1 else pc.less

            def _narrow(t: pa.Table, _lo=blo, _hi=bhi, _mh=mask_hi) -> pa.Table:
                v = t[col]
                m = pc.and_(pc.greater_equal(v, _lo), _mh(v, _hi))
                return t.filter(pc.and_kleene(m, pc.is_valid(v)))

            out.update(
                _rank_values(
                    sub.map_batches(_narrow, batch_format="pyarrow"),
                    blo, bhi, by_bin[b], base + int(cum[b]), rounds - 1,
                )
            )
        return out

    stats = _rank_values(arr, glo, ghi, ranks, 0, max_rounds)
    res = []
    for p in pos:
        k0, k1 = int(np.floor(p)), int(np.ceil(p))
        frac = p - k0
        res.append(stats[k0] + (stats[k1] - stats[k0]) * frac)
    return res


def frequent_items(ds: "ray.data.Dataset", col: str, phi: float = 0.01) -> pa.Table:
    """EXACT phi-frequent items (keys with count >= ceil(phi*n)) via a
    Misra-Gries sketch pass + an exact verification pass (Misra & Gries '82;
    mergeable-summaries form per Agarwal et al., PODS'12).

    Pass 1 — per batch, the value counts are summarised to at most
    k = ceil(2/phi) counters by subtracting the (k+1)-th largest count (the
    batched MG decrement): every batch partial is <= k rows REGARDLESS of the
    batch's cardinality, and the total undercount across batches is
    < n/(k+1) <= phi*n/2, so every key with true count >= phi*n keeps a
    positive merged lower bound and survives into the candidate set.

    Pass 2 — exact counts for the <= k*n_batches candidate keys only
    (vectorized ``is_in`` filter + per-batch value counts, summed on the
    driver), then the exact HAVING filter. Both passes stream; driver state
    is the candidate map, bounded by the sketch size.
    """
    import math

    k = max(1, math.ceil(2.0 / phi))

    key_type = ds.schema().base_schema.field(col).type

    def _mg_partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(pc.drop_null(t[col]).combine_chunks())
        keys, cnts = vc.field("values"), vc.field("counts").to_numpy(zero_copy_only=False)
        n_b = int(cnts.sum())
        if len(cnts) > k:
            thresh = np.partition(cnts, len(cnts) - k - 1)[len(cnts) - k - 1]
            keep = cnts > thresh
            keys, cnts = keys.filter(pa.array(keep)), cnts[keep] - thresh
        # one null-key row per batch carries the batch's row count
        keys = pa.concat_arrays([keys.cast(key_type), pa.nulls(1, key_type)])
        cnts = np.concatenate([cnts, [0]])
        n_rows = np.zeros(len(cnts), np.int64)
        n_rows[-1] = n_b
        return pa.table(
            {"key": keys, "cnt": pa.array(cnts, pa.int64()), "n_rows": pa.array(n_rows)}
        )

    part_list = list(
        ds.map_batches(_mg_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    )
    parts = pa.concat_tables(part_list) if part_list else None
    n = int(pc.sum(parts["n_rows"]).as_py() or 0) if parts is not None else 0
    if n == 0:
        return pa.table({"key": pa.array([], key_type), "cnt": pa.array([], pa.int64())})
    thresh_count = math.ceil(phi * n)
    # merged lower bounds: candidates are every surviving sketch key
    cand_keys = pc.drop_null(parts["key"]).combine_chunks().unique()

    def _exact(t: pa.Table) -> pa.Table:
        v = pc.drop_null(t[col]).combine_chunks()
        v = v.filter(pc.is_in(v, value_set=cand_keys))
        vc = pc.value_counts(v)
        return pa.table(
            {"key": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    exact = pa.concat_tables(
        list(ds.map_batches(_exact, batch_format="pyarrow").iter_batches(batch_format="pyarrow")),
        promote_options="default",
    )
    tot = exact.group_by("key").aggregate([("cnt", "sum")])
    mask = pc.greater_equal(tot["cnt_sum"], thresh_count)
    out = tot.filter(mask)
    return pa.table({"key": out["key"], "cnt": out["cnt_sum"].cast(pa.int64())}).sort_by("key")


def humanize_size(n_bytes: int) -> str:
    """Human-readable decimal size (reference get_file_size semantics via
    humanize.naturalsize: '4 Bytes', '1.2 kB', '3.4 MB').

    Examples
    --------
    >>> humanize_size(4)
    '4 Bytes'
    >>> humanize_size(1200)
    '1.2 kB'
    >>> humanize_size(3_400_000)
    '3.4 MB'
    """
    if n_bytes < 1000:
        return f"{int(n_bytes)} Bytes"
    for unit in ("kB", "MB", "GB", "TB", "PB"):
        n_bytes /= 1000.0
        if n_bytes < 1000:
            return f"{n_bytes:.1f} {unit}"
    return f"{n_bytes:.1f} EB"


def file_modification_time(path: str) -> str:
    """Last-modified timestamp, reference format 'YYYY-MM-DD HH:MM:SS'
    (reference get_file_modification_time, analyzer.py:136-161)."""
    import datetime
    import os

    return datetime.datetime.fromtimestamp(os.stat(path).st_mtime).strftime("%Y-%m-%d %H:%M:%S")


def discover_parquet_files(input_path: str, recursive: bool = False) -> list[str]:
    """Parquet discovery (reference find_parquet_files, analyzer.py:72-106):
    a file path passes through; a directory lists '*.parquet', or walks the
    whole tree when ``recursive``."""
    import glob
    import os

    if os.path.isfile(input_path):
        return [input_path]
    if recursive:
        out = []
        for root, _dirs, files in os.walk(input_path):
            out.extend(os.path.join(root, f) for f in files if f.endswith(".parquet"))
        return sorted(out)
    return sorted(glob.glob(os.path.join(input_path, "*.parquet")))


def _file_sample_rows(path: str, n_rows: int, n_sample: int = 10, seed: int = 0) -> dict:
    """head(3) / tail(3) / random-``n_sample`` preview rows of a parquet file
    (reference first_rows/last_rows/sample_rows, analyzer.py:324-344), reading
    only the row groups that contain the picked rows. The random sample is
    seeded (deterministic reports), unlike the reference's random.sample."""
    import numpy as np
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    sizes = [pf.metadata.row_group(i).num_rows for i in range(pf.num_row_groups)]
    starts = np.concatenate([[0], np.cumsum(sizes)])

    def rows_at(indices: "np.ndarray") -> list[tuple]:
        if len(indices) == 0:
            return []
        by_rg: dict[int, list[int]] = {}
        for idx in indices:
            rg = int(np.searchsorted(starts, idx, side="right") - 1)
            by_rg.setdefault(rg, []).append(int(idx))
        out: dict[int, tuple] = {}
        for rg, idxs in by_rg.items():
            tbl = pf.read_row_group(rg)
            for idx in idxs:
                off = idx - int(starts[rg])
                out[idx] = tuple(col[off].as_py() for col in tbl.columns)
        return [out[int(i)] for i in indices]

    head_idx = np.arange(min(3, n_rows))
    tail_idx = np.arange(max(0, n_rows - 3), n_rows)
    if 0 < n_rows <= n_sample:
        samp_idx = np.arange(n_rows)
    elif n_rows > n_sample:
        samp_idx = np.sort(np.random.default_rng(seed).choice(n_rows, n_sample, replace=False))
    else:
        samp_idx = np.arange(0)
    return {
        "first_rows": rows_at(head_idx),
        "last_rows": rows_at(tail_idx),
        "sample_rows": rows_at(samp_idx),
    }


def analyze_files(paths: list[str], column_limit: int = 25) -> list[dict]:
    """Per-file profiles (reference analyze_directory, analyzer.py:516-564).

    One Ray Data pipeline per file keeps reference per-file report semantics;
    pipelines run back-to-back but parallelise internally across blocks.
    """
    import os

    out = []
    for p in paths:
        ds = read_parquet_clean(p)
        prof = profile_dataset(ds, column_limit=column_limit, exact_medians=True)
        st = os.stat(p) if os.path.isfile(p) else None
        samples = _file_sample_rows(p, prof["n_rows"]) if st else {
            "first_rows": [], "last_rows": [], "sample_rows": []
        }
        out.append(
            {
                "file": p,
                "size_bytes": st.st_size if st else None,
                "file_size": humanize_size(st.st_size) if st else None,
                "file_mod_time": file_modification_time(p) if st else None,
                "n_rows": prof["n_rows"],
                "n_cols": len(prof["columns"]),
                "columns": prof["columns"],
                **samples,
            }
        )
    return out


def format_report(results: list[dict]) -> str:
    """Plain-text analysis report (reference analyzer.py:358-513)."""
    lines = ["PARQUET ANALYSIS REPORT", "=" * 60]
    for r in results:
        lines.append(f"\nFile: {r['file']}")
        lines.append(
            f"  rows={r['n_rows']} cols={r['n_cols']} size={r.get('file_size') or r['size_bytes']}"
            + (f" modified={r['file_mod_time']}" if r.get("file_mod_time") else "")
        )
        for name, c in r["columns"].items():
            desc = f"  - {name} [{c['dtype']}] nulls={c['null_count']} ({c.get('null_pct', 0)}%) unique={c['n_unique']}"
            if "mean" in c:
                desc += f" min={c['min']:.4g} max={c['max']:.4g} mean={c['mean']:.4g} median={c.get('median', float('nan')):.4g} std={c['std']:.4g}"
            lines.append(desc)
            for tv in c.get("top_values", []):
                lines.append(f"      {tv['value']!r}: {tv['count']} ({tv['pct']}%)")
        for label, key in (("First rows", "first_rows"), ("Last rows", "last_rows"), ("Sample rows", "sample_rows")):
            rows = r.get(key) or []
            if rows:
                lines.append(f"  {label}:")
                lines.extend(f"    {row!r}" for row in rows)
    return "\n".join(lines)


# --- approximate distinct (HyperLogLog sketch) -------------------------------

_HLL_P = 12  # 4096 registers, ~1.6% standard error


def _hll_partial(hashes: "np.ndarray", p: int = _HLL_P) -> "np.ndarray":
    """HyperLogLog register array (uint8[2^p]) from per-row uint64 hashes.

    Flajolet et al. 2007 (public): bucket = top p bits, rho = position of the
    first 1-bit in the remaining 64-p bits. Vectorized with bincount-style
    scatter-max."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return reg
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    w = hashes & np.uint64((1 << (64 - p)) - 1)
    # exact integer bit length (vectorized binary search over shifts): float64
    # log2 loses integer precision above 2^53, overestimating by 1 at values
    # just below a power of two for p < 11
    bl = np.zeros(len(w), dtype=np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= np.uint64(1 << shift)
        bl[big] += shift
        v[big] >>= np.uint64(shift)
    bl += (v > 0).astype(np.int64)
    rho = (64 - p) - bl + 1  # 1..64-p+1; w==0 -> max rho
    np.maximum.at(reg, idx, rho.astype(np.uint8))
    return reg


def _hll_estimate(reg: "np.ndarray") -> float:
    """HLL estimate with the standard small-range (linear counting) correction."""
    m = len(reg)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -reg.astype(np.float64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds: "ray.data.Dataset", col: str, p: int = _HLL_P) -> int:
    """Approximate distinct count via mergeable HLL partials: one register
    array per batch, merged with elementwise max on the driver — the A3
    at-scale alternative to the exact groupby (SURVEY §2.5): NO shuffle, a
    fixed 4 KB sketch per batch regardless of cardinality."""
    from .partition import stable_hash_ints, stable_hash_strings

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
            h = stable_hash_strings(arr)
        else:
            h = stable_hash_ints(arr)
        reg = _hll_partial(h, p)
        return pa.table({"reg": pa.array([reg.tobytes()], type=pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged = np.maximum(merged, np.frombuffer(row["reg"], dtype=np.uint8))
    return int(round(_hll_estimate(merged)))
