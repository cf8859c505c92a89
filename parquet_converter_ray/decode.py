"""Decode pipeline: container files -> ray.data.Dataset of Arrow batches.

Containers are independently decodable, so the read is embarrassingly
parallel. ``decode_dataset`` is a scan with no predicate: it runs on the
executor every container fan-out shares (``zonemap.decoded_dataset``) — a
store whose recorded bytes fit the small-plan crossover
(``zonemap.fits_tasks``) decodes at once in plain Ray tasks over
contiguous slices of its paths; a larger one streams as one Ray Data job
with one ``_ScanDecoder`` call per container. ``store_changes`` runs on the
same executor, one partition per unit.

Column pruning works at the container level: the footer records per-buffer
offsets, so decoding 2 of 6 columns touches only those buffers.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

from .container import read_table
from .pipelines._util import read_parquet_clean


def resolve_container_path(out_dir: str, rec: dict) -> str:
    """Resolve a lineage record's container file, preferring the LOCAL copy.

    Records carry the absolute path written at encode time; a store that was
    copied/moved (another host, another mount, a snapshot) still has the
    container next to its manifest, so the basename under ``out_dir`` wins
    whenever it exists with the recorded size — otherwise the recorded path.
    This is what makes a relocated store decode/lookup/append cleanly while
    the stray-file guard still fires on files the manifest doesn't know."""
    local = os.path.join(out_dir, os.path.basename(rec["path"]))
    try:
        if os.path.getsize(local) == rec["bytes_out"]:
            return local
    except OSError:
        pass
    if os.path.isfile(rec["path"]):
        return rec["path"]
    if os.path.isfile(local):  # size mismatch but present: surface the real file
        return local
    raise FileNotFoundError(
        f"manifest records partition {rec['part_id']} at {rec['path']} "
        "but the container file is missing"
    )


def container_files(out_dir: str, max_generation: int | None = None) -> list[str]:
    """Container files to decode, in part-id order (``_container_sizes``)."""
    return list(_container_sizes(out_dir, max_generation))


def _container_sizes(out_dir: str, max_generation: int | None = None) -> "dict[str, int]":
    """Container files to decode — manifest-driven when a manifest exists —
    each with its recorded decoded bytes (``bytes_in``; the file size for a
    glob-only store, which undercounts the decode by the compression ratio).

    The per-partition lineage records are the source of truth: a re-encode of
    a smaller dataset into a reused out_dir (or a crashed run) can leave stale
    ``part-*.pcc`` files that a bare glob would silently mix into the result.
    Falls back to the glob only when no manifest was written at all.

    ``max_generation`` selects a SNAPSHOT: only containers with
    generation <= g, i.e. the store as it stood before later appended
    deliveries (generations are monotone per ``append_dataset`` call; 0 =
    base encode only). Snapshots see through appends, NOT through in-place
    rewrites (delete/repair fold generations into a fresh base) — readers
    needing delete-proof history should snapshot-copy the store first. A
    rewrite that folded generations > g stamps ``snapshot_watermark`` in the
    run record; requesting max_generation < watermark would return a MIXED
    state that never existed (rewritten partitions include their folded
    later-generation rows at g=0, untouched partitions exclude theirs), so it
    raises instead."""
    from . import manifest as mf

    recs = mf.load_records(out_dir)
    if recs:
        if max_generation is not None:
            params = mf.load_run_record(out_dir) or {}
            wm = int(params.get("snapshot_watermark") or 0)
            if max_generation < wm:
                raise ValueError(
                    f"snapshot at generation {max_generation} is unavailable: an "
                    f"in-place delete/repair folded generations up to {wm} into "
                    "rewritten base containers, so earlier snapshots would mix "
                    "pre- and post-fold partition states; snapshot-copy the store "
                    "before deleting if point-in-time history is needed"
                )
        all_files = [resolve_container_path(out_dir, r) for r in recs]
        if max_generation is not None:
            recs = [r for r in recs if int(r.get("generation", 0)) <= max_generation]
        files = {}
        for r in sorted(recs, key=lambda r: r["part_id"]):
            files[resolve_container_path(out_dir, r)] = int(r.get("bytes_in", 0))
        stray = set(glob.glob(os.path.join(out_dir, "part-*.pcc"))) - set(all_files)
        if stray:
            raise ValueError(
                f"{len(stray)} container file(s) in {out_dir} are not in the "
                f"manifest (stale leftovers from a previous run?): "
                f"{sorted(stray)[:3]}... — re-encode with resume=False to clean"
            )
        return files
    return {p: os.path.getsize(p) for p in sorted(glob.glob(os.path.join(out_dir, "part-*.pcc")))}


def _decode_plan(out_dir: str, columns, max_generation) -> tuple:
    """A store's containers to decode (``_container_sizes``), the 0-row
    table of the columns they emit (from the first container's footer) and
    their recorded decoded bytes."""
    from .codecs import str_to_type
    from .container import read_footer_file

    sizes = _container_sizes(out_dir, max_generation=max_generation)
    if not sizes:
        raise FileNotFoundError(f"no container files under {out_dir}")
    files = list(sizes)
    empty = pa.table({
        c["name"]: pa.array([], type=str_to_type(c["type"]))
        for c in read_footer_file(files[0])["columns"]
        if columns is None or c["name"] in columns
    })
    return files, empty, sum(sizes.values())


def decode_dataset(
    store,
    *,
    columns: list[str] | None = None,
    verify_crc: bool = False,
    max_generation: int | None = None,
) -> "ray.data.Dataset":
    """The store's rows as a Dataset, container by container in part-id
    order (``container_files``: ``max_generation`` picks a snapshot),
    decoding only ``columns`` (every column when None, in footer order);
    ``verify_crc`` checks each column's checksum.

    ``store`` is one directory, or a list decoded as ONE family (the export
    path: ``decode DIR... OUT`` writes the whole family to parquet), member
    after member. The members' emitted schemas must agree on (name, type)
    — refused loudly before any decode; conform them via
    ``compact_dataset`` first.

    A scan with no predicate: one ``zonemap.decoded_dataset`` over every
    member's containers picks the executor from their recorded decoded
    bytes (plain Ray tasks under the shared crossover, one streaming Ray
    Data job past it) and ``zonemap._ScanDecoder`` decodes each container
    as ``container.decode_table`` does."""
    from . import manifest as mf
    from .zonemap import _ScanDecoder, decoded_dataset

    dirs = mf.store_dirs(store)
    plans = [_decode_plan(d, columns, max_generation) for d in dirs]
    schemas = [list(zip(e.schema.names, e.schema.types)) for _, e, _ in plans]
    if any(s != schemas[0] for s in schemas[1:]):
        detail = "; ".join(
            f"{d}: {[(n, str(t)) for n, t in s]}" for d, s in zip(dirs, schemas)
        )
        raise ValueError(
            "store family schemas differ on the emitted columns — conform "
            f"them via compact_dataset first: {detail}"
        )
    files = [f for fs, _, _ in plans for f in fs]
    return decoded_dataset(files, _ScanDecoder(columns, None, [], verify_crc).read,
                           plans[0][1], sum(n for _, _, n in plans))


def roundtrip_table(
    original: pa.Table,
    out_dir: str,
    sort_key: list[str] | None = None,
) -> tuple[bool, str]:
    """Small-scale (test) verification: decode everything, sort both sides by
    the stable order key, compare column-by-column bit-identically.

    The north-rule invariant: per-turn text equality under stable turn
    ordering (BASELINE.json input_hint). ``sort_key`` defaults to the key
    RECORDED in the store's ``_run.json`` (falling back to the transcript
    key), so verifying a store keyed on other columns — e.g. a lineitem or
    range-clustered store — needs no extra flags. When the recorded key does
    not identify rows uniquely, ALL columns are appended as tie-breakers
    (an order-insensitive whole-row compare — duplicate keys would otherwise
    shuffle payload columns between tied rows on the two sides)."""
    from . import manifest as mf

    if sort_key is None:
        params = mf.load_run_record(out_dir) or {}
        sort_key = list(params.get("sort_key") or ["conv_id", "turn_idx"])
    decoded = decode_dataset(out_dir)
    dec_tbl = pa.concat_tables(list(decoded.iter_batches(batch_format="pyarrow")))
    tie = [c for c in original.column_names if c not in sort_key]
    key = [(c, "ascending") for c in list(sort_key) + tie]
    a = original.sort_by(key).combine_chunks()
    b = dec_tbl.select(original.column_names).sort_by(key).combine_chunks()
    if a.num_rows != b.num_rows:
        return False, f"row count {a.num_rows} != {b.num_rows}"
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        if not _col_equal(ca, cb):
            return False, f"column {name} mismatch"
    return True, "ok"


def _col_equal(ca: pa.ChunkedArray, cb: pa.ChunkedArray) -> bool:
    ca, cb = ca.combine_chunks(), cb.combine_chunks()
    if ca.equals(cb):
        return True
    # NaN-aware fallback for float columns (Arrow equals treats NaN != NaN)
    if pa.types.is_floating(ca.type):
        import numpy as np

        a, b = ca.to_numpy(zero_copy_only=False), cb.to_numpy(zero_copy_only=False)
        return ((a == b) | (np.isnan(a) & np.isnan(b))).all()
    return False


# --- distributed verification (no driver materialization) --------------------


def _row_hashes(batch: pa.Table, columns: list[str]) -> "np.ndarray":
    import numpy as np

    from .partition import stable_hash_ints, stable_hash_strings

    h = np.full(batch.num_rows, 0x243F6A8885A308D3, dtype=np.uint64)
    P = np.uint64(0x100000001B3)
    NULLC = np.uint64(0x9E3779B97F4A7C15)
    for name in columns:
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        nulls = None
        if col.null_count:
            nulls = ~col.is_valid().to_numpy(zero_copy_only=False)
        if (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            ch = stable_hash_strings(col)
        elif pa.types.is_floating(t):
            import pyarrow.compute as pc

            v = pc.fill_null(col, 0.0).to_numpy(zero_copy_only=False)
            ch = v.astype(np.float64).view(np.uint64).copy()
        elif pa.types.is_boolean(t):
            import pyarrow.compute as pc

            ch = pc.fill_null(col, False).to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            import pyarrow.compute as pc

            filled = pc.fill_null(col, pa.scalar(0, type=t)) if col.null_count else col
            ch = stable_hash_ints(filled)
        if nulls is not None:
            ch = np.where(nulls, NULLC, ch)
        h = (h * P) ^ ch
    return h


def dataset_fingerprint(ds: "ray.data.Dataset", columns: list[str] | None = None) -> dict:
    """Order-insensitive content fingerprint: commutative sum/xor fold of
    per-row stable hashes, computed as mergeable per-batch partials — verifies
    a decode against its source WITHOUT a global sort or driver
    materialization (the at-scale counterpart of ``roundtrip_table``)."""
    import numpy as np

    cols = columns or ds.schema().names

    def partial(batch: pa.Table) -> pa.Table:
        h = _row_hashes(batch, cols)
        return pa.table(
            {
                "n": pa.array([len(h)], type=pa.int64()),
                "hsum": pa.array([int(h.sum(dtype=np.uint64) & np.uint64(0x7FFFFFFFFFFFFFFF))], type=pa.int64()),
                "hxor": pa.array([int(np.bitwise_xor.reduce(h) if len(h) else 0) & 0x7FFFFFFFFFFFFFFF], type=pa.int64()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    hsum = 0
    hxor = 0
    for r in rows:
        hsum = (hsum + r["hsum"]) & 0x7FFFFFFFFFFFFFFF
        hxor ^= r["hxor"]
    return {"rows": n, "hsum": hsum, "hxor": hxor, "columns": list(cols)}


def store_diff(
    a_dir: "str | list[str]",
    b_dir: "str | list[str]",
    columns: list[str] | None = None,
) -> dict:
    """Content-compare two encoded stores WITHOUT sorting or materializing
    either: shared-column order-insensitive fingerprints (per-batch hash
    folds, driver merges two scalars). The migration-validation tool —
    after a compact / relocation / schema evolution, ``equal: true`` means
    byte-equivalent content on the compared columns regardless of how rows
    were repartitioned. Columns default to the INTERSECTION of the two
    schemas (reported, so a dropped column is visible, not silent).

    Either side may be a LIST of stores (a delivery family): the
    fingerprint fold is commutative, so a family's fingerprint is the fold
    over all members' batches — which is exactly how ``compact_dataset``
    output is proven equal to the family it conformed, without decoding
    anything twice or moving a row. Each side decodes as one
    ``decode_dataset``, so its members must agree on the shared columns'
    types."""
    from .zonemap import _store_schema

    from . import manifest as mf

    a_dirs, b_dirs = mf.store_dirs(a_dir), mf.store_dirs(b_dir)

    def _side_schema(dirs: list[str]) -> dict:
        # intersection of member schemas by name: a column must exist in
        # every member to be comparable for that side
        per = [dict(_store_schema(d, mf.load_records(d))) for d in dirs]
        names = set(per[0])
        for s in per[1:]:
            names &= set(s)
        return {n: per[0][n] for n in per[0] if n in names}

    sa = _side_schema(a_dirs)
    sb = _side_schema(b_dirs)
    shared = [c for c in sa if c in sb] if columns is None else list(columns)
    missing = [c for c in shared if c not in sa or c not in sb]
    if missing:
        raise ValueError(f"columns {missing} not in both stores")
    if not shared:
        raise ValueError(
            f"stores share no columns (a: {sorted(sa)}, b: {sorted(sb)}) — nothing to compare"
        )

    fa = dataset_fingerprint(decode_dataset(a_dirs, columns=shared), columns=shared)
    fb = dataset_fingerprint(decode_dataset(b_dirs, columns=shared), columns=shared)
    return {
        "equal": fa == fb,
        "columns": shared,
        "only_a": sorted(set(sa) - set(sb)),
        "only_b": sorted(set(sb) - set(sa)),
        "a": {k: fa[k] for k in ("rows", "hsum", "hxor")},
        "b": {k: fb[k] for k in ("rows", "hsum", "hxor")},
    }


class _ChangeScanner:
    """The unit function of ``store_changes``: decode one part_id's
    containers from BOTH stores and emit the row-level change set keyed by
    the store key. State is column lists only."""

    def __init__(self, key_fields: "list[tuple[str, pa.DataType]]", value_cols: list[str]):
        self.key_cols = [n for n, _ in key_fields]
        self.value_cols = value_cols
        self.out_schema = pa.schema(list(key_fields) + [("change", pa.string())])

    def _fold(self, paths: "list[str]"):
        """(pandas frame keyed by key_cols with n + wrapped hash-sum) of the
        containers at ``paths``, or None when they hold no row."""
        import numpy as np

        cols = list(dict.fromkeys(self.key_cols + self.value_cols))
        t = pa.concat_tables([read_table(p, columns=cols) for p in paths]) if paths else None
        if t is None or t.num_rows == 0:
            return None
        if self.value_cols:
            h = _row_hashes(t, self.value_cols).view(np.int64)
        else:
            h = np.zeros(t.num_rows, dtype=np.int64)
        df = t.select(self.key_cols).to_pandas()
        df["_h"] = h
        g = df.groupby(self.key_cols, sort=False, dropna=False)["_h"]
        out = g.agg(n="size", hs="sum")  # int64 sum wraps (numpy), fine for hashing
        return out.reset_index()

    def __call__(self, part: "tuple[list[str], list[str]]") -> pa.Table:
        """One partition: its old and its new container paths."""
        import pandas as pd

        old, new = (self._fold(paths) for paths in part)
        if old is None and new is None:
            return self.out_schema.empty_table()
        if old is None:
            new["change"] = "insert"
            m = new
        elif new is None:
            old["change"] = "delete"
            m = old
        else:
            m = old.merge(new, on=self.key_cols, how="outer",
                          suffixes=("_o", "_n"), indicator=True)
            change = pd.Series("update", index=m.index)
            change[m["_merge"] == "left_only"] = "delete"
            change[m["_merge"] == "right_only"] = "insert"
            same = (m["_merge"] == "both") & (m["n_o"] == m["n_n"]) & (m["hs_o"] == m["hs_n"])
            m = m[~same]
            m["change"] = change[~same]
        out = pa.Table.from_pandas(m[self.key_cols + ["change"]], preserve_index=False)
        # pin key-column types to the store schema (pandas may widen)
        return out.select(self.out_schema.names).cast(self.out_schema)


def store_changes(
    old_dir: str,
    new_dir: str,
    *,
    return_plan: bool = False,
) -> "ray.data.Dataset":
    """Row-level CDC between two states of a store — typically a hard-link
    SNAPSHOT (``snapshot.snapshot_store``; the snapshot dir is itself a
    valid store) and the live store after appends/upserts/deletes. Emits
    one row per changed store key: the key columns plus ``change`` in
    {'insert', 'delete', 'update'}; unchanged keys are never emitted.

    Scale shape: both stores must share the hash-routing layout (same
    ``hash_version`` / ``n_parts`` / key columns / ``salt_rows`` — refused
    loudly otherwise; ``rebucket`` repairs a mismatch), so the diff is
    PARTITION-LOCAL — no exchange. Partitions whose recorded container sets
    are identical (same generation/crc32/rows multiset — and a snapshot
    hard-links the very same inodes for untouched partitions) are skipped
    from metadata alone; only touched partitions decode, and each decodes
    once per side inside one task. Duplicate keys fold per key via
    (count, wrapped hash-sum), so the compare never needs key uniqueness.
    Content equality is judged on the SHARED value columns (schema drift is
    ``store_diff``'s job and is not flagged here).

    Iceberg/Delta expose the same thing as incremental scans / CDF reads;
    here it costs metadata + the touched partitions only.

    The touched partitions run on the executor every container fan-out
    shares (``zonemap.decoded_dataset``, one ``_ChangeScanner`` call per
    partition): while their recorded bytes fit the small-plan crossover the
    diff runs NOW in plain Ray tasks, so a corrupt container raises its
    ``ValueError`` from this call; past it the diff streams as one Ray Data
    job when the Dataset is consumed, where the error surfaces as Ray
    Data's ``UserCodeException``."""
    from . import manifest as mf
    from .zonemap import _store_schema, decoded_dataset

    po, pn = mf.hash_layout(old_dir), mf.hash_layout(new_dir)
    for field in ("n_parts", "conv_col", "order_col", "salt_rows"):
        if po.get(field) != pn.get(field):
            raise ValueError(
                f"layout mismatch on {field!r}: {po.get(field)!r} vs {pn.get(field)!r} "
                "— the same row would route to different partitions; rebucket first"
            )

    key_cols = [po["conv_col"]] + ([po["order_col"]] if po.get("order_col") else [])

    recs_o, recs_n = mf.load_records(old_dir), mf.load_records(new_dir)
    container_files(old_dir)  # stray-container guards
    container_files(new_dir)

    def _by_part(recs):
        out: dict[int, list] = {}
        for r in recs:
            out.setdefault(int(r["part_id"]), []).append(r)
        return out

    bo, bn = _by_part(recs_o), _by_part(recs_n)

    def _sig(recs_p) -> tuple:
        return tuple(sorted(
            (int(r.get("generation", 0)), int(r.get("crc32", -1)), int(r.get("rows", -1)))
            for r in recs_p
        ))

    all_parts = sorted(set(bo) | set(bn))
    plan = {"parts_total": len(all_parts), "parts_skipped": 0, "parts_compared": 0}
    parts, nbytes = [], 0
    for pid in all_parts:
        ro, rn = bo.get(pid, []), bn.get(pid, [])
        if _sig(ro) == _sig(rn):
            plan["parts_skipped"] += 1
            continue
        plan["parts_compared"] += 1
        parts.append(([resolve_container_path(old_dir, r) for r in ro],
                      [resolve_container_path(new_dir, r) for r in rn]))
        nbytes += sum(int(r.get("bytes_in", 0)) for r in ro + rn)

    schema_o = dict(_store_schema(old_dir, recs_o)) if recs_o else {}
    schema_n = dict(_store_schema(new_dir, recs_n)) if recs_n else {}
    value_cols = sorted((set(schema_o) & set(schema_n)) - set(key_cols))
    key_fields = [(c, schema_n.get(c) or schema_o.get(c) or pa.string())
                  for c in key_cols]
    scanner = _ChangeScanner(key_fields, value_cols)
    ds = decoded_dataset(parts, scanner, scanner.out_schema.empty_table(), nbytes)
    return (ds, plan) if return_plan else ds


def verify_distributed(source: "ray.data.Dataset | str", out_dir: str) -> tuple[bool, dict]:
    """Compare source vs decoded containers via order-insensitive
    fingerprints (streaming, fully distributed)."""
    if isinstance(source, (str, list)):
        source = read_parquet_clean(source)
    cols = source.schema().names
    a = dataset_fingerprint(source, cols)
    b = dataset_fingerprint(decode_dataset(out_dir, columns=cols), cols)
    return a == b, {"source": a, "decoded": b}


# --- point lookup: fetch one conversation from an encoded dataset ------------


def lookup_conversation(
    store, conv_value, columns: list[str] | None = None
) -> pa.Table:
    """Fetch ONE conversation by key, decoding only the containers its rows
    can live in, never scanning the store. ``store`` is one directory or a
    list read as ONE family of delivery stores (a conversation's later
    turns may arrive in later stores), with one plan over the family.

    The plan is ``zonemap.PrunedScan.candidates`` of ``conv_col == value``.
    When every member is a hash store with zone maps, the partition router
    (``zonemap._hash_route_parts``) keeps only the partitions the key's
    salt chunks 0..k_max can reach, k_max bounded by the order column's
    zone-map maximum (sparse appended turn ranges are still found); the
    plan skips the footer probe and the few routed containers decode here,
    in the calling process (``zonemap._unit_tables`` over the scan
    decoder: the key column first, the rest at the matching rows only),
    starting no Ray task and no Ray Data job. A key whose partition holds
    no container yields no candidate and a 0-row table. Otherwise (a
    range-clustered store, records that predate zone maps, a glob-only
    store) the key has no route: zone maps and the dictionary/Bloom footer
    probe prune, and the survivors decode as plain Ray tasks
    (``PrunedScan.run``), as a scan would. The rows come back sorted by
    (conv_col, order_col) of the first member's run record, then cut to
    ``columns``. With ``columns=None`` the members must agree on their
    whole schema.

    ``conv_value`` is cast to the key column's type, as a scan's exact
    filter casts it, both to route and to match."""
    from . import manifest as mf
    from .zonemap import PrunedScan, _unit_tables, route_pids

    dirs = mf.store_dirs(store)
    params = [mf.load_run_record(d) for d in dirs]
    if None in params:
        raise ValueError(
            f"no run record in {dirs[params.index(None)]} — lookup needs the "
            "partitioning parameters written by encode_dataset (_run.json)"
        )
    keys = [c for c in (params[0]["conv_col"], params[0].get("order_col")) if c]
    work = None if columns is None else list(dict.fromkeys([*keys, *columns]))
    scan = PrunedScan(dirs, [(keys[0], "==", conv_value)], work or (),
                      all_columns=work is None)
    routed = all(recs and route_pids(d, recs, scan.dnf) is not None
                 for d, recs, _ in scan.members)
    paths, _ = scan.candidates(probe=not routed)
    read, empty = scan.reader(work)
    tabs = _unit_tables(paths, read, None, None) if routed else list(scan.run(paths, None, work))
    out = pa.concat_tables(tabs) if tabs else empty
    if out.num_rows:
        out = out.sort_by([(c, "ascending") for c in keys])
    return (out if columns is None else out.select(columns)).combine_chunks()
