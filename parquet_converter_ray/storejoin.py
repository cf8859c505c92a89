"""Co-partitioned (bucketed) join across N encoded stores — no shuffle.

Stores whose rows were hash-routed at ENCODE time with the same
``(hash_version, n_parts)`` on their respective partition columns co-locate
equal keys in equal ``part_id``s: ``part = stable_hash(key) % n_parts`` is a
pure function of the value, independent of which table it came from. A join
on those columns therefore needs ZERO exchange — each part_id's containers
from every store decode together in one task and join locally, the Hive /
Spark bucketed-join idea (bucket metadata checked at plan time, map-side
join per bucket) applied to this engine's container layout.
``store_join`` chains N >= 2 stores on one shared key (store 0 is the
left/probe side).

Partitioning assumptions enforced on every store (refused loudly,
never silently wrong):

* every store carries a ``_run.json`` with the CURRENT hash version — the
  part routing must be the same arithmetic on every side;
* every store is ``partition_mode="hash"`` (a range-clustered store routes
  by value range, not key hash — its keys don't co-locate);
* equal ``n_parts``;
* ``salt_rows == 0`` everywhere — salting splits one key's rows across salt
  chunks by ORDER ranges, and the tables' order domains differ, so a
  salted layout only co-locates chunk 0;
* the join columns ARE the stores' recorded partition columns (joining on
  anything else has no co-location guarantee).

At 100 TB this is the pattern for repeated fact-to-fact joins: pay the
partition exchange once at ingest (every store routed on the join key),
then every subsequent join is map-only over matched buckets.

``store_join_dim`` covers the OTHER join shape — fact-to-dimension over a
SALTED fact store (the flagship transcript layout): dimension rows are
replicated to their key's reachable salt-chunk partitions and co-grouped
with the containers, so only the small side moves; ``dims=[...]`` chains
several dimensions through one exchange (star schema).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from . import manifest as mf
from .container import read_table
from .decode import container_files, resolve_container_path


def _paths_by_part(out_dir: str) -> dict[int, list[str]]:
    recs = mf.load_records(out_dir)
    container_files(out_dir)  # stray-container guard
    out: dict[int, list[str]] = {}
    for r in recs:
        out.setdefault(int(r["part_id"]), []).append(resolve_container_path(out_dir, r))
    return out


# Dynamic-partition-pruning thresholds: a dim side with at most this many
# rows is collected driver-side (it is about to be replicated through an
# exchange anyway, so holding one copy on the driver is strictly cheaper);
# its distinct keys then prune fact containers BEFORE any decode. Key lists
# up to the stats cap run the per-record zone-map check (a Python loop per
# record, so bounded); up to the probe cap they run the batched dictionary
# + Bloom footer probe (vectorized hashing; plain Ray tasks, no Ray Data
# job — ``zonemap.probe_verdicts``).
_DPP_MAX_DIM_ROWS = 100_000
_DPP_STATS_MAX_KEYS = 1_024
_DPP_PROBE_MAX_KEYS = 65_536


def _collect_dim_table(ds_i, cols_full: list[str], cap: int) -> "pa.Table | None":
    """Materialize a dim-side Dataset driver-side when it is small (<= cap
    rows). Returns None — and stops iterating — the moment the cap is
    exceeded, so a mis-declared huge 'dimension' costs one extra batch, not
    a driver OOM."""
    batches, total = [], 0
    for b in ds_i.iter_batches(batch_format="pyarrow", batch_size=8192):
        total += b.num_rows
        if total > cap:
            return None
        batches.append(b)
    if not batches:
        return None
    return pa.concat_tables(batches).select(cols_full)


def store_join_dim(
    fact_dir: str,
    dim=None,
    *,
    dim_on: str | None = None,
    fact_columns: list[str] | None = None,
    dim_columns: list[str] | None = None,
    dims: "list[tuple] | None" = None,
    how: str = "inner",
    dpp: bool = True,
    return_plan: bool = False,
) -> "ray.data.Dataset":
    """Join a hash-routed fact store — SALTED layouts included — with a
    dimension TABLE (parquet path or Dataset), shuffling only the dim side.

    The fact store's partition for a key is pure arithmetic
    (``partition.salt_chunk_parts`` under the parameters in _run.json),
    so each dim row is REPLICATED to the partitions its key's salt chunks
    0..k_max can occupy (k_max bounded by the order column's zone-map max —
    the bound the partition router uses) and co-grouped with that partition's
    containers. One exchange of dim_rows x (k_max + 1) small rows; the fact
    containers never move. This is how a salted 10^12-turn transcript store
    joins per-conversation metadata: the transcript side is the one that
    cannot afford a shuffle.

    ``how``: "inner" or "left" (left keeps fact rows with null dim columns).
    Output carries the fact store's key column; non-key dim column names
    must not collide with fact columns. ``dims=[(source, on, columns), ...]``
    joins SEVERAL dimensions against the same fact key in ONE co-grouped
    pass (the star-schema shape) — each dim is routed independently, the
    group joins them in order.

    ``dpp=True`` (default) adds dynamic partition pruning for INNER joins —
    the semijoin-pushdown trick Spark applies to star joins: a dim side
    small enough to hold driver-side (<= ``_DPP_MAX_DIM_ROWS``, checked by
    streaming its batches with an early abort) is collected ONCE, reused
    for the routing exchange, and its distinct keys prune fact containers
    before any decode — first by the partition router
    (``zonemap._hash_route_parts`` with one ``in`` clause per collected dim:
    only partitions that some key of EVERY dim can reach survive, since an
    inner-join row must match every dim), then per-container zone maps,
    then the batched dictionary/Bloom footer probe. A dim over the cap streams exactly as
    before (no pruning from that dim). ``return_plan=True`` also returns
    ``{parts_total, pruned_route, pruned_stats, pruned_probe, scanned,
    dpp_dims}``."""
    import numpy as np

    from .partition import key_hashes, salt_chunk_parts
    from .zonemap import _hash_route_parts, _store_schema

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    fp = mf.hash_layout(fact_dir)
    n_parts = int(fp["n_parts"])
    fact_on = fp["conv_col"]
    salt_rows = int(fp.get("salt_rows") or 0)
    recs = mf.load_records(fact_dir)
    container_files(fact_dir)  # stray-container guard
    if salt_rows:
        k_max = mf.order_chunk_bound(recs, fp.get("order_col"), salt_rows)
        if k_max is None:
            raise ValueError(
                f"{fact_dir}: salted store predates zone maps — salt-chunk bound unknowable"
            )
    else:
        k_max = 0

    f_schema = _store_schema(fact_dir, recs)
    f_names = [n for n, _ in f_schema]
    fact_cols = list(dict.fromkeys([fact_on] + (fact_columns if fact_columns is not None else f_names)))
    missing = [c for c in fact_cols if c not in f_names]
    if missing:
        raise ValueError(f"columns {missing} not in fact store schema")

    if dims is None:
        if dim is None or dim_on is None:
            raise ValueError("pass dim + dim_on, or dims=[(source, on, columns), ...]")
        dims = [(dim, dim_on, dim_columns)]
    elif dim is not None:
        raise ValueError("pass either dim or dims, not both")

    dim_specs = []  # (tag, on, cols, fields)
    taken = set(fact_cols) - {fact_on}
    for i, (src_i, on_i, cols_i) in enumerate(dims):
        if isinstance(src_i, str):
            from .pipelines._util import read_parquet_clean

            ds_i = read_parquet_clean(
                src_i,
                columns=None if cols_i is None else list(dict.fromkeys([on_i] + list(cols_i))),
            )
        else:
            ds_i = src_i
        sch = ds_i.schema()
        names_i = list(sch.names)
        if on_i not in names_i:
            raise ValueError(f"dim_on {on_i!r} not in dimension columns {names_i}")
        # the dim key must hash EXACTLY like the fact's partition column —
        # a type-family mismatch would route rows to the wrong partitions
        # and silently drop matches, so refuse it loudly
        fact_t = dict(f_schema)[fact_on]
        dim_t = dict(zip(sch.names, sch.types))[on_i]
        fam = lambda t: "int" if pa.types.is_integer(t) else "str"
        if fam(fact_t) != fam(dim_t):
            raise ValueError(
                f"dim key {on_i!r} ({dim_t}) and fact partition column "
                f"{fact_on!r} ({fact_t}) are different type families — "
                "their hashes cannot co-route"
            )
        cols_full = list(dict.fromkeys([on_i] + (list(cols_i) if cols_i is not None else names_i)))
        overlap = taken & (set(cols_full) - {on_i})
        if overlap:
            raise ValueError(f"non-key columns {sorted(overlap)} appear on multiple sides — prune one")
        taken |= set(cols_full) - {on_i}
        types_i = {n: t for n, t in zip(sch.names, sch.types)}
        dim_specs.append((f"dim{i}", on_i, cols_full, [(c, types_i[c]) for c in cols_full], ds_i))

    plan = {"parts_total": len(recs), "pruned_route": 0, "pruned_stats": 0,
            "pruned_probe": 0, "scanned": 0, "dpp_dims": 0}
    if dpp and how == "inner" and recs:
        key_sets: list[list] = []
        collected_specs = []
        for tag, on_i, cols_full, fields, ds_i in dim_specs:
            t_i = _collect_dim_table(ds_i, cols_full, _DPP_MAX_DIM_ROWS)
            if t_i is None:
                collected_specs.append((tag, on_i, cols_full, fields, ds_i))
                continue
            plan["dpp_dims"] += 1
            keys_i = t_i[on_i].combine_chunks().drop_null().unique().to_pylist()
            key_sets.append(keys_i)
            # reuse the collected copy for the routing exchange: the dim
            # pipeline executes once, not once for keys + once for routing
            collected_specs.append((tag, on_i, cols_full, fields,
                                    ray.data.from_arrow(t_i)))
        dim_specs = collected_specs
        # one ``in`` clause per dim: the router intersects them (an inner-join
        # row must match every dim)
        keep_parts = _hash_route_parts(fact_dir, recs,
                                       [(fact_on, "in", k) for k in key_sets if k])
        if keep_parts is not None:
            before = len(recs)
            recs = [r for r in recs if int(r["part_id"]) in keep_parts]
            plan["pruned_route"] = before - len(recs)
        usable = [k for k in key_sets if k]
        if usable and recs:
            # ANY single dim's key set is a sound semijoin filter for an
            # inner join; the smallest prunes hardest and probes cheapest
            smallest = min(usable, key=len)
            clause = [(fact_on, "in", smallest)]
            if len(smallest) <= _DPP_STATS_MAX_KEYS:
                from .zonemap import record_may_match

                before = len(recs)
                recs = [r for r in recs
                        if record_may_match(r.get("stats") or {},
                                            int(r.get("rows", 0)), clause)]
                plan["pruned_stats"] = before - len(recs)
            if len(smallest) <= _DPP_PROBE_MAX_KEYS and recs:
                from .zonemap import probe_verdicts

                paths = [resolve_container_path(fact_dir, r) for r in recs]
                verdicts = probe_verdicts(paths, [clause])
                before = len(recs)
                recs = [r for r, p in zip(recs, paths)
                        if verdicts.get(p) == "keep"]
                plan["pruned_probe"] = before - len(recs)
    plan["scanned"] = len(recs)

    def _route_for(tag: str, on_col: str, cols_full: list):
        def route(batch: pa.Table) -> pa.Table:
            """Replicate each dim row to its key's k_max+1 possible partitions."""
            # strip pandas metadata: it makes hash(schema) fail inside Ray's
            # schema-dedup fast path (same reason as _util.read_parquet_clean)
            batch = batch.select(cols_full).replace_schema_metadata(None)
            h = key_hashes(batch[on_col])
            parts = salt_chunk_parts(h[:, None], np.arange(k_max + 1, dtype=np.uint64), n_parts)
            idx = np.repeat(np.arange(len(h), dtype=np.int64), k_max + 1)
            out = batch.take(pa.array(idx))
            out = out.append_column("part_id", pa.array(parts.ravel()))
            # distinct (row, part): two chunks of one key may share a partition
            if k_max:
                mask = np.ones(len(idx), dtype=bool)
                flat = parts.reshape(len(h), k_max + 1)
                for j in range(1, k_max + 1):
                    dup = (flat[:, j][:, None] == flat[:, :j]).any(axis=1)
                    mask[j::(k_max + 1)] = ~dup
                out = out.filter(pa.array(mask))
            return out.append_column("side", pa.array([tag] * out.num_rows, pa.string()))

        return route

    routed = [
        ds_i.map_batches(_route_for(tag, on_i, cols_full), batch_format="pyarrow")
        for tag, on_i, cols_full, _, ds_i in dim_specs
    ]

    file_rows = pa.table(
        {
            "part_id": pa.array([int(r["part_id"]) for r in recs], pa.int32()),
            "path": pa.array([resolve_container_path(fact_dir, r) for r in recs], pa.string()),
            "side": pa.array(["file"] * len(recs), pa.string()),
        }
    )

    specs_for_join = [(tag, on_i, fields) for tag, on_i, _, fields, _ in dim_specs]
    # a group that joins to nothing: fact columns, then dim columns in join order
    empty = pa.table({
        **{n: pa.array([], type=t) for n, t in f_schema if n in fact_cols},
        **{c: pa.array([], type=t) for _, on_i, fields in specs_for_join
           for c, t in fields if c != on_i},
    })

    def _join_group(g: pa.Table) -> pa.Table:
        from .encode import pin_arrow_threads

        pin_arrow_threads(1)
        side = g["side"].to_pylist()
        paths = [
            p
            for p, s in zip(
                g.column("path").to_pylist() if "path" in g.column_names else [None] * len(side),
                side,
            )
            if s == "file" and p
        ]
        if not paths:
            return empty
        # inner join: a group missing ANY dim side joins to nothing —
        # decide that before paying for the fact-container decode
        if how == "inner":
            present = set(side)
            if any(tag not in present for tag, _, _ in specs_for_join):
                return empty
        out = pa.concat_tables([read_table(p, columns=fact_cols) for p in paths])
        for tag, on_i, fields in specs_for_join:
            keep = pa.array([s == tag for s in side])
            dim_t = g.filter(keep)
            dim_t = (
                pa.table({c: dim_t[c] for c, _ in fields})
                if dim_t.num_rows
                else pa.table({c: pa.array([], type=t) for c, t in fields})
            )
            if dim_t.num_rows == 0 and how == "inner":
                return empty
            out = out.join(
                dim_t,
                keys=[fact_on],
                right_keys=[on_i],
                join_type="inner" if how == "inner" else "left outer",
            )
        return out

    # union co-groups every side; missing columns null-fill across schemas
    unioned = ray.data.from_arrow(file_rows)
    for r in routed:
        unioned = unioned.union(r)
    ds = unioned.groupby("part_id").map_groups(_join_group, batch_format="pyarrow")
    return (ds, plan) if return_plan else ds


class _MultiBucketJoiner:
    """The unit function of ``store_join``: decode one part_id's
    containers from ALL stores and chain local joins. State is column lists
    and schemas only."""

    def __init__(self, ons, col_lists, how, schemas, empty):
        self.ons = ons            # join column per store
        self.col_lists = col_lists  # pruned columns per store
        self.how = how
        self.schemas = schemas    # [(name, type)] per store, for empty sides
        self.empty = empty        # 0-row output table: a bucket that joins to nothing

    def __call__(self, bucket: "list[list[str]]") -> pa.Table:
        """One bucket: ``bucket[i]`` lists store i's containers of the
        part_id (store 0's is never empty)."""
        acc = None
        for i, (paths, cols) in enumerate(zip(bucket, self.col_lists)):
            side = (
                pa.concat_tables([read_table(p, columns=cols) for p in paths]) if paths
                else pa.table({n: pa.array([], type=t) for n, t in self.schemas[i] if n in cols})
            )
            acc = side if acc is None else acc.join(
                side,
                keys=[self.ons[0]],
                right_keys=[self.ons[i]],
                join_type="inner" if self.how == "inner" else "left outer",
            )
            if self.how == "inner" and acc.num_rows == 0:
                return self.empty
        return acc


def store_join(
    dirs,
    *,
    ons: list[str | None] | None = None,
    columns: list[list[str] | None] | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """N-way co-bucketed join over ONE shared key — zero exchange.

    Every store was hash-routed at encode time on its join column with the
    same ``(hash_version, n_parts)``, so equal keys across ALL N stores live
    in equal ``part_id``s; each part_id's containers from every store decode
    together in ONE task and join locally in chain order (store 0 is the
    left/probe side). The star shape where N fact/dim tables share one
    entity key (user/customer/conversation) pays the partition exchange once
    at ingest, then every N-way join is map-only over matched buckets.

    ``ons`` names each store's join column; a None entry (or ``ons=None``)
    takes that store's recorded partition column. ``columns`` prunes each
    store's output columns (None: all of them). The layout preconditions
    (hash mode, current hash version, equal n_parts, unsalted, join columns
    ARE the partition columns) are checked on every store (n_parts against
    store 0's) and refused loudly. ``how``: "inner", or "left" (left-outer chain anchored
    on store 0). Output carries store 0's key (every other key is folded
    into it) plus the pruned columns in store order; non-key output columns
    must be disjoint across stores. A bucket that joins to nothing yields a
    0-row block of that output schema.

    The buckets run on the executor every container fan-out shares
    (``zonemap.decoded_dataset``, one ``_MultiBucketJoiner`` call per
    bucket): while the stores' recorded bytes fit the small-plan crossover
    the join runs NOW in plain Ray tasks, so a corrupt container raises its
    ``ValueError`` from this call; past it the join streams as one Ray Data
    job when the Dataset is consumed, where the error surfaces as Ray
    Data's ``UserCodeException``."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    dirs = mf.store_dirs(dirs)
    if len(dirs) < 2:
        raise ValueError("store_join needs at least 2 stores")
    layouts = [mf.hash_layout(d, unsalted=True) for d in dirs]
    ons = list(ons) if ons is not None else [None] * len(dirs)
    if len(ons) != len(dirs):
        raise ValueError(f"{len(dirs)} stores but {len(ons)} join columns")
    if columns is not None and len(columns) != len(dirs):
        raise ValueError(f"{len(dirs)} stores but {len(columns)} column lists")
    ons = [on or p.get("conv_col") for on, p in zip(ons, layouts)]
    for d, p, on in zip(dirs, layouts, ons):
        if int(p["n_parts"]) != int(layouts[0]["n_parts"]):
            raise ValueError(f"n_parts mismatch: {layouts[0]['n_parts']} vs {p['n_parts']}")
        if p.get("conv_col") != on:
            raise ValueError(f"{d} is partitioned on {p.get('conv_col')!r}, not the join column {on!r}")

    from .zonemap import _store_schema, decoded_dataset

    recs = [mf.load_records(d) for d in dirs]
    schemas = [_store_schema(d, r) for d, r in zip(dirs, recs)]
    col_lists: list[list[str]] = []
    taken: set[str] = set()
    for i, d in enumerate(dirs):
        names = [n for n, _ in schemas[i]]
        want = columns[i] if columns is not None and columns[i] is not None else names
        cols = list(dict.fromkeys([ons[i]] + list(want)))
        missing = [c for c in cols if c not in names]
        if missing:
            raise ValueError(f"columns {missing} not in store schemas ({d})")
        overlap = taken & (set(cols) - {ons[i]})
        if overlap:
            raise ValueError(f"non-key columns {sorted(overlap)} appear on multiple sides — prune one")
        taken |= set(cols) - {ons[i]}
        col_lists.append(cols)
    empty = pa.table({  # columns in decode (footer) order, as a joined bucket has them
        c: pa.array([], type=t)
        for i, sch in enumerate(schemas) for c, t in sch
        if c in col_lists[i] and (i == 0 or c != ons[i])
    })

    by_part = [_paths_by_part(d) for d in dirs]
    pids = set(by_part[0])
    if how == "inner":
        for m in by_part[1:]:
            pids &= set(m)
    buckets = [[m.get(p, []) for m in by_part] for p in sorted(pids) if by_part[0].get(p)]
    nbytes = sum(int(r.get("bytes_in", 0)) for rs in recs for r in rs)
    return decoded_dataset(buckets, _MultiBucketJoiner(ons, col_lists, how, schemas, empty),
                           empty, nbytes)

