"""Encode pipeline: Dataset -> hash-partition -> per-partition sort -> codec -> containers.

Large-input shape (SURVEY.md §7.2 step 5-7; a small input runs the same
stages as plain Ray tasks — map: read, assign, split by part id; reduce:
encode one partition — see ``encode_dataset``):

    read_parquet(input)
      -> map_batches(assign_part_id)            # vectorized stable hash + salt
      -> [resume filter]                        # broadcast done-set, vectorized is_in
      -> groupby("part_id").map_groups(encode)  # THE one all-to-all shuffle;
                                                #   each partition encoded atomically:
                                                #   sort by (conv_id, turn_idx),
                                                #   per-column sampled cost model,
                                                #   the encode's FSST tables,
                                                #   per-partition dicts,
                                                #   atomic container write + lineage
      -> tiny lineage dataset -> manifest.jsonl

``append_dataset`` and ``upsert_dataset`` run the same exchange (``_Input``)
with the store's recorded layout: the map side conforms the delivery to the
store schema before assigning part ids, and the reducer is a subclass of
``EncodePartition`` (append's duplicate filter, upsert's merge). In-place
rewrites — upsert and both deletes — go through one crash-safe
``_rewrite_partition``.

Before any reducer runs, the driver trains one FSST table per string column
on a bounded sample of the input (``_Input.sample``) and records it in
``_run.json`` — on the task exchange while the map tasks run; every
partition, and every later write into the store, compresses with it. The
group step holds per-partition encoder state
(dictionaries) for exactly one partition at a time, which is the memory-bounded alternative to
fighting batch->actor affinity (SURVEY.md §7.5). Partition size is bounded by
``salt_rows`` chunking of mega-conversations, so the 10^12-turn scale story is:
more partitions, same per-partition working set.
"""

from __future__ import annotations

import functools
import os
import time
import zlib
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from . import manifest as mf
from .container import encode_table, pack_container, write_container_atomic
from .partition import assign_part_id
from .pipelines._util import read_parquet_clean

TARGET_PART_BYTES = 96 << 20  # in-memory arrow bytes per partition (upper bound)

_ARROW_PINNED = False


def _default_n_parts(est_bytes: int, cpus: int) -> int:
    """Partition count: 2 waves per CPU for scheduling slack, but never let a
    partition exceed TARGET_PART_BYTES (the per-encoder working-set bound that
    governs at 100 TB). Measured on the 9.6M-turn bench at 32 CPUs: 64-96
    parts ~13s, 136 parts 17-22s, 320 parts 85s — the push-based sort shuffle
    degrades sharply with reduce-partition count, so use the FEWEST partitions
    that pack the CPUs and bound memory."""
    return max(2 * cpus, -(-est_bytes // TARGET_PART_BYTES))


def _clean_output_dir(out_dir: str) -> None:
    """Remove stale encode outputs (containers, manifests, run record) so a
    fresh run never mixes with a previous one's leftovers."""
    import glob
    import shutil

    for f in glob.glob(os.path.join(out_dir, "part-*.pcc")):
        os.remove(f)
    shutil.rmtree(mf.manifest_dir(out_dir), ignore_errors=True)
    for name in ("manifest.jsonl", "_run.json"):
        p = os.path.join(out_dir, name)
        if os.path.exists(p):
            os.remove(p)


def pin_arrow_threads(n: int = 1) -> None:
    """Pin pyarrow's per-process thread pools inside Ray workers.

    Every worker process otherwise sizes Arrow's pool to ALL machine cores, so
    32 concurrent tasks spawn ~32x32 compute threads and the encode stage runs
    SLOWER at higher parallelism (measured 2x). Ray already provides the
    process-level parallelism; Arrow kernels should stay single-threaded."""
    global _ARROW_PINNED
    if not _ARROW_PINNED:
        pa.set_cpu_count(n)
        pa.set_io_thread_count(max(n, 1))
        _ARROW_PINNED = True


class EncodePartition:
    """Per-partition encoder: sort, pick codecs (sampled cost model), write container.

    The exchange's reducer: ``__call__`` takes one Ray Data group (the full
    partition with its ``part_id`` column), a reduce task calls ``encode_one``
    directly. Returns the partition's one-row result table (lineage).
    """

    def __init__(
        self,
        out_dir: str,
        codec: str | dict = "auto",
        sort_key: Sequence[str] = ("conv_id", "turn_idx"),
        fault_hook: Callable[[int], None] | None = None,
        generation: int = 0,
        bound_cols: "frozenset[str]" = frozenset(),
        bloom_cols: "frozenset[str]" = frozenset(),
        text_bloom_cols: "frozenset[str]" = frozenset(),
        fsst_tables: "dict | None" = None,
    ):
        self.out_dir = out_dir
        self.codec = codec
        self.sort_key = list(sort_key)
        self.fault_hook = fault_hook
        self.generation = int(generation)
        self.bound_cols = frozenset(bound_cols)  # force zone-map bounds (range-cluster string cols)
        self.bloom_cols = frozenset(bloom_cols)  # per-container Bloom filters (point-lookup pruning)
        self.text_bloom_cols = frozenset(text_bloom_cols)  # token blooms (hastok full-text pruning)
        self.fsst_tables = dict(fsst_tables or {})  # column -> the encode's FsstTable

    def __call__(self, group: pa.Table) -> pa.Table:
        pin_arrow_threads(1)
        # the sort-exchange delivers groups as hundreds of tiny chunks; every
        # downstream kernel crawls on chunked input — flatten ONCE up front
        n_chunks = group.column(0).num_chunks
        t0 = time.monotonic()
        group = group.combine_chunks()
        combine_s = time.monotonic() - t0
        part_id = int(group["part_id"][0].as_py())
        return self.encode_one(part_id, group.drop_columns(["part_id"]), n_chunks,
                               combine_s=combine_s)

    def encode_one(
        self, part_id: int, table: pa.Table, n_chunks: int = 1, folded: dict | None = None,
        combine_s: float = 0.0,
    ) -> pa.Table:
        """Sort, encode and write one partition; ``combine_s`` is the time the
        caller spent assembling ``table`` (lineage ``timings`` and ``wall_s``
        count it)."""
        t_comb = time.monotonic()
        if self.fault_hook is not None:
            self.fault_hook(part_id)
        sort_cols = [c for c in self.sort_key if c in table.column_names]
        if sort_cols:
            table = table.sort_by([(c, "ascending") for c in sort_cols])
        t_sort = time.monotonic()
        blobs = encode_table(table, codec=self.codec, fsst_tables=self.fsst_tables)
        t_enc = time.monotonic()
        choose_s = sum(blob.choose_s for blob in blobs.values())
        from .zonemap import column_stats

        stats = column_stats(
            table, {name: blob.codec for name, blob in blobs.items()}, bound_cols=self.bound_cols
        )
        from .zonemap import page_stats

        pages = page_stats(table)
        blooms = None
        if self.bloom_cols:
            from .bloom import build_blooms

            blooms = build_blooms(table, self.bloom_cols)
        if self.text_bloom_cols:
            from .bloom import build_token_blooms

            blooms = {**(blooms or {}), **build_token_blooms(table, self.text_bloom_cols)}
        t_stats = time.monotonic()
        payload = pack_container(
            blobs,
            extra={"part_id": part_id, "rows": table.num_rows, "sort_key": sort_cols,
                   "generation": self.generation, "stats": stats,
                   **({"pages": pages} if pages else {})},
            blooms=blooms,
        )
        gsuf = f"-g{self.generation:04d}" if self.generation else ""
        path = os.path.join(self.out_dir, f"part-{part_id:05d}{gsuf}.pcc")
        write_container_atomic(path, payload)
        timings = {
            "in_chunks": n_chunks,
            "combine": round(combine_s, 2),
            "sort": round(t_sort - t_comb, 2),
            "choose": round(choose_s, 2),  # codec choice (cost-model trials)
            "encode": round(t_enc - t_sort - choose_s, 2),
            "stats": round(t_stats - t_enc, 2),  # zone maps, page stats, blooms
            "write": round(time.monotonic() - t_stats, 2),  # pack + atomic write
        }
        rec = mf.LineageRecord(
            part_id=part_id,
            rows=table.num_rows,
            bytes_in=table.nbytes,
            bytes_out=len(payload),
            codecs={name: blob.codec for name, blob in blobs.items()},
            crc32=zlib.crc32(payload) & 0xFFFFFFFF,
            wall_s=combine_s + time.monotonic() - t_comb,
            path=path,
            timings=timings,
            generation=self.generation,
            stats=stats,
            folded=folded or {},
        )
        mf.write_record(self.out_dir, rec)
        import json

        return pa.table(
            {
                "part_id": pa.array([rec.part_id], type=pa.int32()),
                "rows": pa.array([rec.rows], type=pa.int64()),
                "bytes_in": pa.array([rec.bytes_in], type=pa.int64()),
                "bytes_out": pa.array([rec.bytes_out], type=pa.int64()),
                "codecs": pa.array([json.dumps(rec.codecs)], type=pa.string()),
                "wall_s": pa.array([rec.wall_s], type=pa.float64()),
            }
        )


def _range_cuts(
    ds, cluster_by: list[str], n_parts: int, per_batch: int = 512
) -> tuple[list, dict | None]:
    """Deterministic layout parameters for range clustering: every batch
    contributes an evenly-strided sample of its rows' cluster values (bounded
    at ``per_batch`` rows), the driver merges them and takes the n_parts-1
    evenly-spaced order statistics of the cluster KEY — the raw comparable
    value for one numeric column, the Z-order key for several (per-column
    [min, max] spans come from the same sample and are returned as ``norm`` —
    the recorded layout contract ``assign_part_id_range`` replays). A
    string/binary cluster column samples fixed 32-byte prefixes; the driver
    computes the sample's common-prefix length (``skip``) and keys on the 6
    bytes after it (48 bits — float64-exact through the JSON round trip),
    recording ``{"skip", "span"}`` in ``norm`` so assignment and appends
    replay the identical layout. Driver state is batches x per_batch rows —
    bounded, independent of row count. Ties in a skewed domain collapse to
    fewer distinct cuts (recorded as-is: some buckets simply stay empty)."""
    from .partition import (
        STR_KEY_BYTES,
        STR_SAMPLE_BYTES,
        cluster_key_array,
        is_strlike,
        matrix_keys,
        prefix_matrix,
        zorder_keys,
    )

    def sample(batch: pa.Table) -> pa.Table:
        arrs, mask = [], None
        sort0 = None
        for i, name in enumerate(cluster_by):
            col = batch[name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if is_strlike(col.type):
                m = prefix_matrix(col, STR_SAMPLE_BYTES)
                arrs.append(("str", m))
                if i == 0:
                    sort0 = matrix_keys(m[:, :STR_KEY_BYTES])
            else:
                a = cluster_key_array(col)
                arrs.append(("num", a))
                if i == 0:
                    sort0 = a
            if col.null_count:
                nm = pc.is_null(col).to_numpy(zero_copy_only=False)
                mask = nm if mask is None else (mask | nm)
        keep = ~mask if mask is not None else np.ones(batch.num_rows, bool)
        order = np.argsort(sort0[keep], kind="stable")
        stride = max(1, int(keep.sum()) // per_batch)
        take = order[::stride]
        cols = {}
        for i, (kind, a) in enumerate(arrs):
            picked = a[keep][take]
            if kind == "str":
                cols[f"v{i}"] = pa.Array.from_buffers(
                    pa.binary(STR_SAMPLE_BYTES),
                    len(picked),
                    [None, pa.py_buffer(np.ascontiguousarray(picked).tobytes())],
                )
            else:
                cols[f"v{i}"] = pa.array(picked)
        return pa.table(cols)

    def _fsb_matrix(arr) -> np.ndarray:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        buf = arr.buffers()[1]
        w = STR_SAMPLE_BYTES
        return np.frombuffer(buf, dtype=np.uint8)[arr.offset * w : (arr.offset + len(arr)) * w].reshape(-1, w)

    parts = list(
        ds.select_columns(list(cluster_by))
        .map_batches(sample, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    str_col = [bool(parts) and pa.types.is_fixed_size_binary(parts[0][f"v{i}"].type) for i in range(len(cluster_by))]
    merged: list[np.ndarray] = []
    if parts:
        for i in range(len(cluster_by)):
            if str_col[i]:
                merged.append(np.concatenate([_fsb_matrix(t[f"v{i}"]) for t in parts]))
            else:
                merged.append(np.concatenate([t[f"v{i}"].to_numpy(zero_copy_only=False) for t in parts]))
    if not parts or not len(merged[0]):
        merged = [
            np.zeros((1, STR_SAMPLE_BYTES), np.uint8) if s else np.zeros(1)
            for s in str_col or [False for _ in cluster_by]
        ]

    # string columns: common-prefix skip + 48-bit keys from the sample
    norm: dict = {}
    keyed: list[np.ndarray] = []
    for c, s, v in zip(cluster_by, str_col, merged):
        if s:
            diffs = (v != v[0]).any(axis=0)
            skip = int(np.argmax(diffs)) if diffs.any() else STR_SAMPLE_BYTES
            skip = min(skip, STR_SAMPLE_BYTES - STR_KEY_BYTES)
            k = matrix_keys(v[:, skip : skip + STR_KEY_BYTES])
            norm[c] = {"skip": skip, "span": [float(k.min()), float(k.max())]}
            keyed.append(k)
        else:
            keyed.append(v)

    if len(cluster_by) == 1:
        keys = keyed[0]
    else:
        for c, s, v in zip(cluster_by, str_col, keyed):
            if not s:
                norm[c] = [float(v.min()), float(v.max())]
        keys = zorder_keys(
            keyed,
            [tuple(norm[c]["span"]) if isinstance(norm[c], dict) else tuple(norm[c]) for c in cluster_by],
        )
    keys = np.sort(keys)
    idx = np.clip((len(keys) * np.arange(1, n_parts)) // n_parts, 0, len(keys) - 1)
    return [x.item() for x in np.unique(keys[idx])], (norm or None)


def encode_dataset(
    source: "ray.data.Dataset | str | list[str]",
    out_dir: str,
    *,
    n_parts: int | None = None,
    codec: str | dict = "auto",
    conv_col: str = "conv_id",
    order_col: str = "turn_idx",
    sort_key: Sequence[str] = ("conv_id", "turn_idx"),
    salt_rows: int = 100_000,
    resume: bool = False,
    cluster_by: str | None = None,
    bloom_cols: "Sequence[str] | None" = None,
    text_bloom_cols: "Sequence[str] | None" = None,
    fault_hook: Callable[[int], None] | None = None,
) -> dict:
    """Run the encode pipeline; returns the consolidated manifest summary,
    whose ``executor`` names the exchange that ran.

    The exchange has two executors, chosen by the input's estimated
    in-memory size against the crossover every small-plan executor shares
    (``zonemap.fits_tasks``: a share of the object store). A small input —
    local Parquet files (a file, a flat directory or a list of them) or a
    materialized Dataset such as ``ray.data.from_arrow`` — runs as plain
    Ray tasks (``"tasks"``): map tasks read contiguous slices of the row
    groups or blocks, assign part ids and split the rows by part, then one
    reduce task per non-empty partition concatenates its pieces in input
    order and runs ``EncodePartition``. Past the crossover, and for a lazy
    Dataset or a remote or Hive-partitioned path, it is one streaming Ray
    Data job (``"ray_data"``, ``groupby("part_id").map_groups``) that spills
    instead of holding the input in the object store. Both write identical
    containers. A path source with ``n_parts`` given is planned from its
    Parquet footers (schema and size); ``n_parts=None`` sizes the default
    layout with Ray's estimate. When a task fails, every other task
    finishes before the error re-raises, so no container is written after
    this call has raised. ``append_dataset`` and ``upsert_dataset`` run the
    same exchange (``_Input``).

    ``resume=True`` skips partitions already recorded in ``out_dir/_manifest``
    (partition assignment is a pure function of row content, so a resumed run
    reproduces the remaining partitions byte-for-byte).

    ``cluster_by=COL`` switches partition assignment from conv-hash to RANGE
    clustering on a numeric/temporal column: cut points are sampled once
    (order statistics of a bounded per-batch sample), recorded in
    ``_run.json`` (``partition_mode: "range"``, ``range_cuts``), and every
    partition then covers a disjoint value range — so the zone maps written
    per container actually PRUNE range predicates on that column
    (``scan_store`` level 1), which a hash layout never can (every hash
    partition spans the full domain). The layout trade: conv-key point
    lookup and deletes lose their hash route (the partition router skips
    the level and zone maps prune instead), while append reuses the
    recorded cuts. Resume reuses the recorded cuts — never resamples. The sample is a small Ray Data job on either
    executor, over the same read, so both executors cut identically.

    Each string or binary column the cost model may FSST-encode gets one
    FSST table, trained once per encode on the driver's bounded sample of
    the input (``_Input.sample``) and recorded in ``_run.json``
    (``fsst_tables``): every partition's FSST trial and encode use it, so
    no reducer trains, and append, upsert, the deletes and resume reuse it.
    The task exchange submits its map tasks first and then samples, trains
    and writes the run record while they run; it submits the reducers only
    after that, so the run record is on disk before any container is
    written (the streaming exchange does the same steps before its job
    starts). When training raises, the map tasks finish before the error
    re-raises, and no reducer runs.
    An input with no driver-side read (a lazy Dataset, a remote or
    partitioned path) records no table, and its partitions train their own.
    The summary's ``fsst_shared`` names the columns that got a table; the
    run record keeps the driver's sample and train seconds
    (``fsst_sample_s``, ``fsst_train_s``), which a summary cannot carry:
    summaries of the same write compare equal across executors.
    """
    os.makedirs(out_dir, exist_ok=True)
    from .partition import HASH_VERSION

    prior = mf.load_run_record(out_dir)
    if not resume and (prior is not None or mf.completed_parts(out_dir)):
        # a fresh (non-resume) encode into a previously used out_dir would
        # otherwise leave stale containers that decode silently mixes in
        _clean_output_dir(out_dir)
        prior = None
    if resume and prior is None and mf.completed_parts(out_dir):
        # completed containers exist but no _run.json (a run interrupted
        # before the run record was introduced, or a corrupted out_dir): the
        # completed parts' partitioning is unknowable, so re-deriving n_parts /
        # the row hash here would silently reassign rows while skipping
        # "completed" ones — exactly the duplication/loss the run record guards
        raise ValueError(
            f"resume=True but {out_dir} has completed partitions and no run "
            f"record ({mf.run_record_path(out_dir)}); the original "
            f"partitioning parameters are unknowable. Start fresh with "
            f"resume=False (cleans the output dir)."
        )
    if resume and prior is not None and n_parts is None:
        # the default n_parts is a function of cluster size + size estimate;
        # a resume MUST reuse the original partitioning or rows silently move
        n_parts = int(prior["n_parts"])
    inp = _Input(source, n_parts)
    n_parts, schema = inp.n_parts, inp.schema
    col_type = dict(zip(schema.names, schema.types))

    schema_names = schema.names
    if conv_col not in schema_names:
        raise ValueError(
            f"partition key column {conv_col!r} not in schema {schema_names}; "
            "pass conv_col= (string or integer column)"
        )
    if cluster_by is not None:
        cluster_by = [cluster_by] if isinstance(cluster_by, str) else list(cluster_by)
        missing_cluster = [c for c in cluster_by if c not in schema_names]
        if missing_cluster:
            raise ValueError(
                f"cluster_by column(s) {missing_cluster} not in schema {schema_names}"
            )
        # a range-clustered partition sorts by its cluster column(s) FIRST
        # (caller keys stay as tie-breakers): per-container zone-map bounds
        # tighten from partition-wide to row-range, and scan_store's
        # sorted-lead binary search engages on range predicates instead of
        # full-decoding every candidate container. Recorded in _run.json as
        # the effective sort key, so append/delete rewrites replay it.
        sort_key = list(cluster_by) + [c for c in sort_key if c not in cluster_by]

    range_cuts: list | None = None
    cluster_norm: dict | None = None
    if cluster_by is not None:
        if resume and prior is not None:
            # resampling on resume would silently reassign rows — the cuts
            # (and multi-column spans) recorded by the original run ARE the
            # layout
            range_cuts = list(prior.get("range_cuts") or [])
            cluster_norm = prior.get("cluster_norm")
        else:
            # both executors sample the same streaming read, so they cut
            # (and encode) identically
            range_cuts, cluster_norm = _range_cuts(inp.dataset(), cluster_by, n_parts)

    if bloom_cols:
        bloom_cols = [bloom_cols] if isinstance(bloom_cols, str) else list(bloom_cols)
        missing_bloom = [c for c in bloom_cols if c not in schema_names]
        if missing_bloom:
            raise ValueError(f"bloom_cols {missing_bloom} not in schema {schema_names}")
        from .bloom import bloom_supported

        bad = [c for c in bloom_cols if not bloom_supported(col_type[c])]
        if bad:
            raise ValueError(
                f"bloom_cols {bad} are not integer/string/binary — Bloom filters "
                "serve equality lookups; range predicates already prune via zone maps"
            )
    if text_bloom_cols:
        text_bloom_cols = (
            [text_bloom_cols] if isinstance(text_bloom_cols, str) else list(text_bloom_cols)
        )
        missing_tok = [c for c in text_bloom_cols if c not in schema_names]
        if missing_tok:
            raise ValueError(f"text_bloom_cols {missing_tok} not in schema {schema_names}")
        bad = [
            c for c in text_bloom_cols
            if not (pa.types.is_string(col_type[c]) or pa.types.is_large_string(col_type[c]))
        ]
        if bad:
            raise ValueError(
                f"text_bloom_cols {bad} are not text columns — token blooms "
                "serve the hastok full-text predicate over string columns"
            )
    run_params = {
        "n_parts": int(n_parts),
        "salt_rows": int(salt_rows),
        "conv_col": conv_col,
        "order_col": order_col,
        "sort_key": list(sort_key),
        "hash_version": HASH_VERSION,
        "partition_mode": "range" if cluster_by else "hash",
        "cluster_by": cluster_by,
        "range_cuts": range_cuts,
        "cluster_norm": cluster_norm,
        # not a partitioning parameter (not in RUN_PARAM_KEYS): a resume or
        # append under different bloom_cols yields mixed containers, which
        # the probe handles (absent filter = no pruning) — recorded so
        # append reuses it by default
        "bloom_cols": list(bloom_cols or []),
        "text_bloom_cols": list(text_bloom_cols or []),
    }
    if resume and prior is not None:
        # stores written before range clustering existed have no
        # partition_mode key — they are hash stores
        prior = {
            "partition_mode": "hash",
            "cluster_by": None,
            "range_cuts": None,
            "cluster_norm": None,
            **prior,
        }
        mismatch = {
            k: (prior.get(k), run_params[k])
            for k in mf.RUN_PARAM_KEYS
            if prior.get(k) != run_params[k]
        }
        if mismatch:
            raise ValueError(
                f"resume=True but partitioning parameters differ from the "
                f"original run recorded in {mf.run_record_path(out_dir)}: "
                f"{mismatch} — resuming would reassign rows to different "
                f"partitions while skipping 'completed' ones (silent row "
                f"duplication/loss). Re-run with the recorded parameters or "
                f"start fresh with resume=False."
            )

    def store_encoder() -> EncodePartition:
        # not partitioning parameters either: the FSST table each string
        # column's partitions compress with (absent = per-partition tables);
        # a resume reuses the ones the completed partitions used
        if resume and prior is not None:
            run_params.update({k: prior[k] for k in ("fsst_tables", "fsst_sample_s", "fsst_train_s")
                               if k in prior})
        else:
            run_params.update(_train_tables(inp, codec))
        mf.write_run_record(out_dir, run_params)
        return _store_encoder(out_dir, run_params, codec, fault_hook=fault_hook)

    done = mf.completed_parts(out_dir) if resume else set()
    executor, _ = inp.exchange(_assign_for(run_params), store_encoder, done)
    summary = mf.consolidate(out_dir)
    summary["n_parts"] = n_parts
    summary["executor"] = executor
    summary["fsst_shared"] = sorted(run_params.get("fsst_tables") or {})
    return summary


def _train_tables(inp: "_Input", codec) -> dict:
    """One FSST table per string or binary column whose codec may be FSST,
    trained on the input's driver-side sample, as run-record entries: the
    tables (``fsst_tables``) and the sample and train seconds. A column
    whose sample holds no payload, and every column of an input with no
    driver-side read, gets no table."""
    from .codecs import _is_bin, _is_str, train_table

    cols = [c for c, t in zip(inp.schema.names, inp.schema.types)
            if (_is_str(t) or _is_bin(t))
            and (codec.get(c, "auto") if isinstance(codec, dict) else codec) in ("auto", "fsst")]
    t0 = time.monotonic()
    sample = inp.sample(cols) if cols else None
    t1 = time.monotonic()
    tables = {c: train_table(sample[c]) for c in cols} if sample is not None else {}
    return {"fsst_tables": {c: t.to_record() for c, t in tables.items() if t is not None},
            "fsst_sample_s": round(t1 - t0, 3), "fsst_train_s": round(time.monotonic() - t1, 3)}


def _assign_for(run: dict):
    """The map-side part-id assignment a run record fixes: the recorded cuts
    (and spans) of a range-clustered store, the salted conv hash otherwise."""
    if (run.get("partition_mode") or "hash") == "range":
        from .partition import assign_part_id_range

        return functools.partial(assign_part_id_range, cuts=list(run.get("range_cuts") or []),
                                 cluster_by=run["cluster_by"], norm=run.get("cluster_norm"))
    return functools.partial(assign_part_id, n_parts=int(run["n_parts"]),
                             conv_col=run["conv_col"], order_col=run["order_col"],
                             salt_rows=int(run.get("salt_rows") or 0))


def _store_encoder(out_dir: str, run: dict, codec, cls: type = EncodePartition,
                   **kw) -> EncodePartition:
    """The partition encoder (``cls``) a run record calls for: its sort key,
    range-cluster bounds, Bloom columns and FSST tables."""
    from .codecs.fsst import FsstTable

    conv_col, order_col = run["conv_col"], run.get("order_col")
    return cls(
        out_dir, codec=codec,
        sort_key=tuple(run.get("sort_key") or [c for c in (conv_col, order_col) if c]),
        bound_cols=frozenset(run.get("cluster_by") or ()),
        bloom_cols=frozenset(run.get("bloom_cols") or ()),
        text_bloom_cols=frozenset(run.get("text_bloom_cols") or ()),
        fsst_tables={c: FsstTable.from_record(r) for c, r in (run.get("fsst_tables") or {}).items()},
        **kw,
    )


class _Input:
    """An exchange input, planned once. Local Parquet files are planned from
    their footers (schema, in-memory size, row groups), a materialized
    Dataset from its blocks (schema, exact size), any other Dataset from its
    schema; ``n_parts=None`` takes the default layout, sized with Ray's
    estimate. ``exchange`` then runs the exchange on the executor that
    fits."""

    def __init__(self, source, n_parts: int | None):
        try:
            self.cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            self.cpus = 8
        self.source, self.ds, self.est, self.files, self.blocks = source, None, None, None, None
        if isinstance(source, (str, list)):
            if n_parts is None:  # the default layout keeps Ray's size estimate
                n_parts = _default_n_parts(
                    read_parquet_clean(source).size_bytes() or (64 << 20), self.cpus)
            self.n_parts = n_parts
            self.files = _parquet_files(source)
            if self.files:  # footers answer schema and size without a Ray Data read
                self.schema, self.est, self.row_groups = _parquet_footers(self.files)
            else:
                self.schema = self.dataset().schema()
            return
        self.ds = source
        if isinstance(source, MaterializedDataset):
            self.est = source.size_bytes()
            bundles = list(source.materialize().iter_internal_ref_bundles())
            self.blocks = [b for bundle in bundles for b, _ in bundle.blocks]
            # an empty Dataset knows its schema only from its bundles: asking
            # the Dataset itself would start a Ray Data job
            self.schema = source.schema(fetch_if_missing=False) or bundles[0].schema
        else:
            self.schema = source.schema()
            if n_parts is None:
                self.est = source.size_bytes()
        if n_parts is None:
            n_parts = _default_n_parts(self.est or (64 << 20), self.cpus)
        self.n_parts = n_parts

    def sample(self, columns: list[str]) -> "pa.Table | None":
        """``columns`` of a bounded sample of the input, read on the driver
        without a Ray Data job and a function of the input alone: the heads
        of up to 4 evenly spaced row groups (local Parquet files) or blocks
        (a materialized Dataset), ``codecs._SAMPLE_TARGET`` rows in all.
        None for an input with no driver-side read (a lazy Dataset, a
        remote or partitioned path)."""
        from .codecs import _SAMPLE_TARGET

        units = self.row_groups if self.files else self.blocks
        if not units:
            return None
        picked = [units[i] for i in sorted({i * (len(units) - 1) // 3 for i in range(4)})]
        rows = _SAMPLE_TARGET // len(picked)
        if self.files:
            schema = pa.schema([self.schema.field(c) for c in columns])
            heads = [_read_head(f, rg, rows, schema) for f, rg in picked]
        else:
            from ray.data.block import BlockAccessor

            heads = [BlockAccessor.for_block(b).to_arrow().select(columns).slice(0, rows)
                     for b in ray.get(picked)]
        return pa.concat_tables(heads)

    def dataset(self):
        """The streaming side's Dataset (a path source is read on first use)."""
        if self.ds is None:
            self.ds = _read_source(self.source, self.cpus, self.n_parts)
        return self.ds

    def exchange(self, assign, make_encoder: "Callable[[], EncodePartition]",
                 done=frozenset()) -> "tuple[str, list[dict]]":
        """``assign`` part ids on the map side, then the encoder that
        ``make_encoder()`` builds on each partition not in ``done``; returns
        the executor that ran and the reducers' result rows. Local Parquet
        files or a materialized Dataset under the crossover run as plain Ray
        tasks, and ``make_encoder`` runs on the driver while the map tasks
        do; anything else — one that would have to run to be read (a lazy
        Dataset, a remote or partitioned path) or is past the crossover — is
        one streaming Ray Data job that spills, started once the encoder is
        built."""
        from .zonemap import fits_tasks, slices

        small = bool(self.files) or isinstance(self.source, MaterializedDataset)
        if not (small and fits_tasks(self.est)):
            return "ray_data", _exchange_ray_data(self.dataset(), assign, make_encoder(), done)
        if self.files:
            read = functools.partial(_read_row_groups, schema=self.schema)
            inputs = [[s] for s in slices(self.row_groups, self.cpus)]
        else:
            read, inputs = _concat_blocks, slices(self.blocks, self.cpus)
        return "tasks", _exchange_tasks(inputs, read, assign, self.n_parts, make_encoder, done)


def _read_source(source, cpus: int, n_parts: int):
    """The streaming side's read of a path source. The exchange's map-side
    parallelism follows the upstream block count: coarse input files
    serialize it (measured ~8x slower), so split at the READ (a driver-side
    repartition would cost a second exchange); 3 blocks/CPU measured best
    vs 1.5/2/4."""
    return read_parquet_clean(source, override_num_blocks=max(3 * cpus, n_parts))


def _parquet_files(source) -> "list[str] | None":
    """The local Parquet files a path source reads, in the order given —
    each named file, each flat directory's files sorted (hidden ``.``/``_``
    entries skipped, as Ray's reader does) — or None when the footer route
    does not apply: a path that is not local, a directory with
    subdirectories (Ray would add Hive partition columns) or with a file
    not named ``*.parquet`` (Ray would read it too)."""
    out = []
    for p in [source] if isinstance(source, str) else source:
        if os.path.isfile(p):
            out.append(p)
            continue
        if not os.path.isdir(p):
            return None
        names = sorted(n for n in os.listdir(p) if not n.startswith((".", "_")))
        for n in names:
            if not n.endswith(".parquet") or not os.path.isfile(os.path.join(p, n)):
                return None
            out.append(os.path.join(p, n))
    return out or None


def _parquet_footers(files: list[str]) -> "tuple[pa.Schema, int, list]":
    """From the footers of Parquet ``files`` alone: the schema (the first
    file's, metadata stripped, as ``read_parquet_clean`` reads it), the
    in-memory size estimate (summed uncompressed row-group bytes) and every
    ``(file, row_group)`` in order."""
    import pyarrow.parquet as pq

    schema, est, units = None, 0, []
    for f in files:
        pf = pq.ParquetFile(f)
        if schema is None:
            schema = pa.schema([fld.remove_metadata() for fld in pf.schema_arrow])
        md = pf.metadata
        est += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        units += [(f, i) for i in range(md.num_row_groups)]
    return schema, est, units


def _read_row_groups(units: list, schema: pa.Schema) -> pa.Table:
    """One map task's input from a path source: its ``(file, row_group)``
    units read in order and cast to the recorded ``schema``."""
    import pyarrow.parquet as pq

    tables = []
    for f in dict.fromkeys(f for f, _ in units):
        rgs = [i for g, i in units if g == f]
        tables.append(pq.ParquetFile(f).read_row_groups(rgs).cast(schema))
    return pa.concat_tables(tables)


def _read_head(path: str, row_group: int, rows: int, schema: pa.Schema) -> pa.Table:
    """The first ``rows`` rows of one Parquet row group's ``schema``
    columns, cast to ``schema``: only the pages those rows need decode."""
    import pyarrow.parquet as pq

    batches = pq.ParquetFile(path).iter_batches(batch_size=rows, row_groups=[row_group],
                                                columns=schema.names)
    head = next(batches, None)
    if head is None:
        return schema.empty_table()
    return pa.Table.from_batches([head]).cast(schema)


def _concat_blocks(*blocks) -> pa.Table:
    """One map task's input from a materialized Dataset: its blocks as one
    Arrow table."""
    from ray.data.block import BlockAccessor

    return pa.concat_tables([BlockAccessor.for_block(b).to_arrow() for b in blocks])


def _exchange_map(n_parts: int, assign, read, *src):
    """Map side of the task exchange: read one slice of the input, assign
    part ids, and split its rows by part id — ``n_parts`` tables (a 0-row
    table for a part with no rows here), then the per-part row counts."""
    pin_arrow_threads(1)
    table = assign(read(*src))
    pid = table["part_id"].to_numpy()
    table = table.drop_columns(["part_id"])
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid, minlength=n_parts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return (*(table.take(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:])), counts)


def _exchange_reduce(encoder: "EncodePartition", part_id: int, *pieces) -> pa.Table:
    """Reduce side of the task exchange: one partition's pieces, in map
    order, concatenated and encoded (``encode_one``); returns its result."""
    pin_arrow_threads(1)
    t0 = time.monotonic()
    table = pa.concat_tables(pieces)
    n_chunks = table.column(0).num_chunks
    table = table.combine_chunks()
    return encoder.encode_one(part_id, table, n_chunks, combine_s=time.monotonic() - t0)


@functools.cache
def _remote(fn):
    """One Ray remote function per task body and process."""
    return ray.remote(fn)


def _get_drained(refs: list) -> list:
    """``ray.get(refs)``; when a task fails, first wait for every other one
    to finish (``ray.wait`` — drained, not cancelled: no task is killed
    mid-write, and no write lands after the re-raise), then re-raise."""
    try:
        return ray.get(refs)
    except ray.exceptions.RayError:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        raise


def _exchange_tasks(inputs: list, read, assign, n_parts: int, make_encoder, done) -> list[dict]:
    """The exchange as plain Ray tasks: one map task per input slice
    (``_exchange_map``, ``n_parts + 1`` returns), then one reduce task per
    partition that has rows and that resume has not completed
    (``_exchange_reduce``), fed the map pieces that hold its rows. The
    driver builds the encoder (``make_encoder``: for an encode, the FSST
    training and the run record) while the map tasks run, and submits no
    reducer before it is built. Returns the reducers' result rows. A failed
    task, or a failed ``make_encoder``, re-raises on the driver after every
    other task has finished."""
    mapper = _remote(_exchange_map).options(num_returns=n_parts + 1)
    maps = [mapper.remote(n_parts, assign, read, *src) for src in inputs]
    count_refs = [m[-1] for m in maps]
    try:
        encoder = make_encoder()
    except Exception:  # drained as in _get_drained: no map task outlives the raise
        ray.wait(count_refs, num_returns=len(count_refs), fetch_local=False)
        raise
    counts = _get_drained(count_refs)
    enc = ray.put(encoder)
    reduce = _remote(_exchange_reduce)
    results = _get_drained([
        reduce.remote(enc, pid, *(m[pid] for m, c in zip(maps, counts) if c[pid]))
        for pid in range(n_parts) if pid not in done and any(c[pid] for c in counts)
    ])
    return [row for t in results for row in t.to_pylist()]


def _exchange_ray_data(ds, assign, encoder, done) -> list[dict]:
    """The exchange as one streaming Ray Data job: ``assign`` part ids, drop
    resumed partitions, then ``groupby("part_id").map_groups`` runs
    ``encoder`` on each partition. Returns the reducers' result rows."""
    ds = ds.map_batches(assign, batch_format="pyarrow")
    if done:
        done_arr = pa.array(sorted(done), type=pa.int32())

        def _skip_done(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.invert(pc.is_in(batch["part_id"], value_set=done_arr)))

        ds = ds.map_batches(_skip_done, batch_format="pyarrow")

    def encode_partition(group: pa.Table) -> pa.Table:
        return encoder(group)

    lineage = ds.groupby("part_id").map_groups(encode_partition, batch_format="pyarrow")
    return lineage.take_all()  # one tiny row per partition


def compact_dataset(
    store,
    out_dir: str,
    target_part_bytes: int = TARGET_PART_BYTES,
    drop_columns: Sequence[str] | None = None,
    add_columns: dict | None = None,
    **kw,
) -> dict:
    """Compact an encoded store: decode -> re-encode with a partition count
    sized to the data that is actually THERE.

    The lifecycle op every long-lived store needs: after curation/dedup drops
    a large fraction of rows (or after many small incremental deliveries),
    the original n_parts leaves skewed, undersized containers — per-container
    codec tables stop paying for themselves and the decode fans out over
    mostly-empty files. Compaction re-derives n_parts from the manifest's
    recorded in-memory bytes, reuses the ORIGINAL partitioning parameters
    (conv/order columns, salt) from ``_run.json`` so the output is the same
    logical layout, and re-encodes through the normal partition-atomic path —
    the result decodes bit-identically (tested).

    ``store`` is one directory, or a list of delivery stores compacted into
    ONE conformed store: the other half of the store-family lifecycle (the
    pushdown verbs are the query half). When a family grows unwieldy — too
    many undersized containers, or schema drift to resolve — this rewrites
    it as a single store with n_parts re-derived from the TOTAL recorded
    bytes. Each member decodes as a stream and the members union
    (metadata-only in Ray Data) before one partition-atomic encode, so peak
    memory is one partition's working set regardless of family size.

    Layout parameters must agree across members on (conv_col, order_col) —
    refused loudly otherwise, since rows from differently-keyed stores cannot
    share a hash route. Other parameters (sort key, salt, cluster_by,
    bloom_cols) follow the FIRST member's run record, overridable via
    kwargs.

    Compaction is also the SCHEMA-EVOLUTION point (append deliberately
    conforms deliveries to the store schema, so widening/narrowing must go
    through a rewrite): ``drop_columns`` removes retired columns;
    ``add_columns`` maps new name -> pyarrow type (typed-null fill) or
    -> (type, constant) for a backfill default. Partition/order columns
    cannot be dropped. Both apply uniformly to every member, which is how a
    drifted family conforms: drops of columns absent from a member are
    skipped for that member, and a drop no member carries is refused. Every
    check runs on the members' footer schemas before any decode. After
    evolution the member schemas must agree on (name, type); any residual
    drift is refused with per-store detail. No cross-delivery key dedup
    happens here (deliveries are disjoint by contract; dedup is its own
    operator family)."""
    from . import manifest as mf
    from .decode import decode_dataset
    from .zonemap import _store_schema

    in_dirs = mf.store_dirs(store)
    priors = []
    for d in in_dirs:
        prior = mf.load_run_record(d)
        if prior is None:
            raise ValueError(f"no run record in {d} — not an encoded store?")
        priors.append(prior)
    keys = {(p["conv_col"], p.get("order_col")) for p in priors}
    if len(keys) > 1:
        detail = "; ".join(
            f"{d}: ({p['conv_col']}, {p.get('order_col')})"
            for d, p in zip(in_dirs, priors)
        )
        raise ValueError(
            f"family members disagree on (conv_col, order_col): {detail}"
        )

    recs = [mf.load_records(d) for d in in_dirs]
    bytes_in = sum(r["bytes_in"] for rs in recs for r in rs) or (64 << 20)
    n_parts = kw.pop("n_parts", None) or max(1, -(-bytes_in // target_part_bytes))

    first = priors[0]
    drops = list(drop_columns or ())
    protected = {first["conv_col"], first.get("order_col")} & set(drops)
    if protected:
        raise ValueError(
            f"cannot drop partition/order column(s) {sorted(protected)} — "
            "they define the store layout"
        )
    schemas = [dict(_store_schema(d, rs)) for d, rs in zip(in_dirs, recs)]
    unknown = [c for c in drops if not any(c in s for s in schemas)]
    if unknown:
        raise ValueError(f"drop_columns {unknown} are in no member's schema")
    adds = {n: spec[0] if isinstance(spec, tuple) else spec
            for n, spec in (add_columns or {}).items()}
    evolved = []
    for s in schemas:
        kept = {n: t for n, t in s.items() if n not in drops}
        dup = set(kept) & set(adds)
        if dup:
            raise ValueError(f"add_columns would shadow existing column(s) {sorted(dup)}")
        evolved.append(list({**kept, **adds}.items()))
    if any(s != evolved[0] for s in evolved[1:]):
        detail = "; ".join(
            f"{d}: {[(n, str(t)) for n, t in s]}" for d, s in zip(in_dirs, evolved)
        )
        raise ValueError(
            "family schemas still differ after drop/add evolution — resolve "
            f"the residual drift explicitly: {detail}"
        )

    def _widen(batch: pa.Table) -> pa.Table:
        for name, spec in add_columns.items():
            if isinstance(spec, tuple):
                typ, const = spec
                col = pa.array([const] * batch.num_rows, type=typ)
            else:
                col = pa.nulls(batch.num_rows, spec)
            batch = batch.append_column(name, col)
        return batch

    union_ds = None
    for d, s in zip(in_dirs, schemas):
        ds = decode_dataset(d)
        if member_drops := [c for c in drops if c in s]:
            ds = ds.drop_columns(member_drops)
        if add_columns:
            ds = ds.map_batches(_widen, batch_format="pyarrow")
        union_ds = ds if union_ds is None else union_ds.union(ds)

    return encode_dataset(
        union_ds,
        out_dir,
        n_parts=int(n_parts),
        conv_col=kw.pop("conv_col", first["conv_col"]),
        order_col=kw.pop("order_col", first["order_col"]),
        # carry the recorded within-partition sort through the rewrite — the
        # default key's columns may not even exist in a non-transcript store
        sort_key=kw.pop(
            "sort_key",
            tuple(first.get("sort_key") or (first["conv_col"], first["order_col"])),
        ),
        salt_rows=kw.pop("salt_rows", int(first.get("salt_rows") or 0)),
        # a range-clustered store stays range-clustered (cuts are resampled
        # for the new n_parts); pass cluster_by=None to convert back to hash
        cluster_by=kw.pop("cluster_by", first.get("cluster_by")),
        bloom_cols=kw.pop(
            "bloom_cols", [c for c in (first.get("bloom_cols") or []) if c not in drops]
        ),
        text_bloom_cols=kw.pop(
            "text_bloom_cols", [c for c in (first.get("text_bloom_cols") or []) if c not in drops]
        ),
        **kw,
    )


def rebucket_dataset(
    in_dir: str,
    out_dir: str,
    *,
    on: str | None = None,
    like: str | None = None,
    n_parts: int | None = None,
    **kw,
) -> dict:
    """Re-route an encoded store into a bucketed-JOIN-able layout: hash-
    partitioned on ``on`` (default: the store's current partition column),
    UNSALTED and UN-CLUSTERED, with the target partition count taken from
    ``like``'s run record — so the result provably co-buckets with that
    store for ``storejoin.store_join`` — or given directly as ``n_parts``.

    This is the repair path for the bucketed join's loud refusals: two
    stores encoded at different times with mismatched n_parts (or one
    salted / range-clustered / keyed on another column) cannot co-locate
    keys, and ``store_join`` refuses them. Rebucketing pays the partition
    exchange ONCE — the same price ingest would have paid — after which
    every join against the ``like`` store is map-only over matched buckets.
    All other layout parameters (order column, within-partition sort, codec
    choice, Bloom sidecars) carry through from the source store exactly as
    in ``compact_dataset``, which this routes through.

    When matching ``like``, the TARGET side must itself satisfy the
    bucketed-join layout (current hash version, hash mode, unsalted) —
    matching a non-joinable store's n_parts buys nothing, so that is
    refused with the real reason instead of succeeding uselessly."""
    if (like is None) == (n_parts is None):
        raise ValueError("rebucket needs exactly one of like= / n_parts=")
    prior = mf.load_run_record(in_dir)
    if prior is None:
        raise ValueError(f"no run record in {in_dir} — not an encoded store?")
    if like is not None:
        n_parts = int(mf.hash_layout(like, unsalted=True)["n_parts"])
    return compact_dataset(
        in_dir,
        out_dir,
        n_parts=int(n_parts),
        conv_col=kw.pop("conv_col", on or prior["conv_col"]),
        order_col=kw.pop("order_col", prior.get("order_col")),
        salt_rows=0,
        cluster_by=None,
        **kw,
    )


def _row_keys(conv, order) -> "pa.ChunkedArray":
    """(conv, order) composed into one binary key, vectorized (0x1f separator
    — cannot occur inside the decimal order rendering)."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        pc.cast(conv, pa.string()), pc.cast(order, pa.string()), "\x1f"
    )


def _existing_part_keys(out_dir: str, part_id: int, conv_col: str, order_col: str):
    """All (conv, order) keys already stored in ONE partition (base container
    + every appended generation) — a partition-local pruned decode, never a
    store scan: re-delivered rows hash to the same part_id, so idempotence
    only needs the keys of the partition being written."""
    from .container import read_table
    from .decode import resolve_container_path

    chunks = []
    for r in mf.load_records(out_dir):
        if int(r["part_id"]) != part_id:
            continue
        t = read_table(resolve_container_path(out_dir, r), columns=[conv_col, order_col])
        k = _row_keys(t[conv_col], t[order_col])
        chunks.extend(k.chunks if isinstance(k, pa.ChunkedArray) else [k])
    return pa.chunked_array(chunks) if chunks else None


_LINEAGE_SCHEMA = pa.schema(
    [
        ("part_id", pa.int32()),
        ("rows", pa.int64()),
        ("bytes_in", pa.int64()),
        ("bytes_out", pa.int64()),
        ("codecs", pa.string()),
        ("wall_s", pa.float64()),
    ]
)


def _store_record(out_dir: str, verb: str) -> dict:
    """The run record of the store a delivery goes into, refusing a missing
    one and one partitioned by another hash version."""
    from .partition import HASH_VERSION

    prior = mf.load_run_record(out_dir)
    if prior is None:
        raise ValueError(f"no run record in {out_dir} — {verb} needs an existing store")
    if prior.get("hash_version") != HASH_VERSION:
        raise ValueError(
            f"store {out_dir} was partitioned with hash {prior.get('hash_version')!r}; "
            f"this build uses {HASH_VERSION!r} — {verb}ing would mispartition rows"
        )
    return prior


def _conform_delivery(schema, out_dir: str, prior: dict):
    """Check a delivery's ``schema`` against the STORE schema (footer of any
    recorded container — a tail seek, no column bytes) and return the
    table -> table function that conforms it. Reordered columns are
    harmless; columns the store has but the delivery lacks are filled with
    typed nulls (additive drift over months of ingest); extra or
    type-changed columns would silently corrupt decode, so they raise.
    Shared by ``append_dataset`` and ``upsert_dataset``."""
    from .codecs import str_to_type
    from .container import read_footer_file
    from .decode import resolve_container_path

    footer = read_footer_file(resolve_container_path(out_dir, mf.load_records(out_dir)[0]))
    store_schema = [(c["name"], str_to_type(c["type"])) for c in footer["columns"]]
    store_names = [n for n, _ in store_schema]
    del_types = dict(zip(schema.names, schema.types))
    extra = [n for n in del_types if n not in store_names]
    if extra:
        raise ValueError(
            f"delivery has columns {extra} the store {out_dir} does not; "
            "schema evolution is additive on the STORE side only — compact "
            "into a new store to add columns"
        )
    missing = [n for n in store_names if n not in del_types]
    conv_col, order_col = prior["conv_col"], prior["order_col"]
    if conv_col in missing or order_col in missing:
        raise ValueError(
            f"delivery lacks the partition/order column(s) "
            f"{[c for c in (conv_col, order_col) if c in missing]} — cannot append"
        )
    if (prior.get("partition_mode") or "hash") == "range":
        cl = prior.get("cluster_by") or []
        cl = [cl] if isinstance(cl, str) else list(cl)
        lacking = [c for c in cl if c in missing]
        if lacking:
            raise ValueError(
                f"delivery lacks the range-cluster column(s) {lacking} "
                "— cannot assign partitions"
            )
    for n, t in store_schema:
        if n in del_types and del_types[n] != t:
            raise ValueError(
                f"column {n!r}: delivery type {del_types[n]} != store type {t} — "
                "appending would mix physical encodings"
            )
    return functools.partial(_conform, store_schema)


def _conform(store_schema: list, table: pa.Table) -> pa.Table:
    """``table`` in the store's column order, typed nulls for the store
    columns it lacks."""
    if table.column_names == [n for n, _ in store_schema]:
        return table
    return pa.table(
        {n: table[n] if n in table.column_names else pa.nulls(table.num_rows, t)
         for n, t in store_schema}
    )


def _then(first, second, table: pa.Table) -> pa.Table:
    """``second(first(table))``: one map-side function from two."""
    return second(first(table))


def _delivery_input(source, out_dir: str, prior: dict) -> "tuple[_Input, Callable]":
    """A delivery planned as an exchange input with the store's ``n_parts``,
    and its map side: conform to the store schema, then assign part ids
    with the recorded layout."""
    inp = _Input(source, int(prior["n_parts"]))
    conform = _conform_delivery(inp.schema, out_dir, prior)
    return inp, functools.partial(_then, conform, _assign_for(prior))


class _AppendPartition(EncodePartition):
    """Reducer of ``append_dataset``: encodes one partition's delivery rows
    as a new generation. With ``skip_existing`` it first drops the rows
    whose (conv, order) key the partition already stores, and a partition
    left without rows writes nothing."""

    def __init__(self, out_dir: str, *, skip_existing: bool, key: tuple, **kw):
        super().__init__(out_dir, **kw)
        self.skip_existing, self.key = skip_existing, key

    def encode_one(self, part_id, table, n_chunks=1, folded=None, combine_s=0.0):
        if self.skip_existing:
            conv_col, order_col = self.key
            existing = _existing_part_keys(self.out_dir, part_id, conv_col, order_col)
            if existing is not None:
                keys = _row_keys(table[conv_col], table[order_col])
                table = table.filter(pc.invert(pc.is_in(keys, value_set=existing)))
            if table.num_rows == 0:
                return _LINEAGE_SCHEMA.empty_table()
        return super().encode_one(part_id, table, n_chunks, folded, combine_s)


def append_dataset(
    source,
    out_dir: str,
    codec: str | dict = "auto",
    skip_existing: bool = False,
) -> dict:
    """Append a NEW delivery of rows to an EXISTING encoded store without
    touching its base containers — the continuous-ingestion path.

    The delivery is partitioned with the store's RECORDED parameters
    (``_run.json``: n_parts, salt, conv/order columns, hash version), so each
    partition gains one extra container ``part-{id}-g{gen:04d}.pcc`` and every
    reader (decode, verify, lookup) sees base + deliveries transparently via
    the manifest. Generations are monotone per delivery; run
    ``compact_dataset`` periodically to fold fragmented deliveries back into
    right-sized containers. Base-run resume semantics are untouched
    (``completed_parts`` ignores appended generations). The delivery runs
    through ``encode_dataset``'s exchange, on the same executor choice; the
    summary's ``executor`` names the one that ran.

    ``skip_existing=True`` makes deliveries IDEMPOTENT at row granularity:
    inside each partition group, rows whose (conv, order) key already exists
    in that partition (any generation) are dropped before encoding, and a
    partition whose delivery rows are all duplicates writes no container at
    all. The check is partition-LOCAL by construction — a re-delivered row
    hashes to the same part_id — so a retried or overlapping delivery costs
    one pruned two-column decode per touched partition, never a store scan."""
    from .decode import container_files

    prior = _store_record(out_dir, "append")
    # a crashed rewrite's record-less generation file may carry the new
    # generation's name: container_files refuses such a store until repaired
    container_files(out_dir)
    gen = max((int(r.get("generation", 0)) for r in mf.load_records(out_dir)), default=0) + 1
    inp, assign = _delivery_input(source, out_dir, prior)
    encoder = _store_encoder(
        out_dir, prior, codec, _AppendPartition, generation=gen,
        skip_existing=skip_existing, key=(prior["conv_col"], prior["order_col"]),
    )
    executor, rows = inp.exchange(assign, lambda: encoder)
    summary = mf.consolidate(out_dir)
    summary["n_parts"] = inp.n_parts
    summary["generation"] = gen
    summary["rows_appended"] = int(sum(r["rows"] for r in rows))
    summary["executor"] = executor
    summary["fsst_shared"] = sorted(encoder.fsst_tables)
    return summary


class _UpsertPartition(EncodePartition):
    """Reducer of ``upsert_dataset``: merges one partition's delivery rows
    into the partition by (conv, order) key — a ``_rewrite_partition`` whose
    edit drops the stored rows the delivery replaces and adds the delivery —
    and returns the partition's counts."""

    def __init__(self, out_dir: str, *, by_part: dict, key: tuple, **kw):
        super().__init__(out_dir, **kw)
        self.by_part, self.key = by_part, key

    def encode_one(self, part_id, table, n_chunks=1, folded=None, combine_s=0.0):
        conv_col, order_col = self.key
        keys = _row_keys(table[conv_col], table[order_col]).combine_chunks()
        n_dup = table.num_rows - pc.count_distinct(keys).as_py()
        if n_dup:
            raise ValueError(
                f"delivery carries {n_dup} duplicate ({conv_col}, {order_col}) "
                f"key(s) in partition {part_id} — which row wins is ambiguous; "
                "dedup the delivery first"
            )

        def merge(stored: "pa.Table | None") -> pa.Table:
            if stored is None or not stored.num_rows:
                return table
            old = _row_keys(stored[conv_col], stored[order_col])
            kept = stored.filter(pc.invert(pc.is_in(old, value_set=keys)))
            return pa.concat_tables([kept.select(table.column_names), table])

        before, after, folded_gen = _rewrite_partition(
            self.out_dir, part_id, self.by_part.get(part_id, []), merge, super().encode_one)
        updated = before + table.num_rows - after
        return pa.table({
            "part_id": pa.array([part_id], type=pa.int32()),
            "rows": pa.array([after], type=pa.int64()),
            "updated": pa.array([updated], type=pa.int64()),
            "inserted": pa.array([table.num_rows - updated], type=pa.int64()),
            "folded_gen": pa.array([folded_gen], type=pa.int32()),
        })


def upsert_dataset(source, out_dir: str, codec: str | dict = "auto") -> dict:
    """MERGE a delivery into an existing store by row key ``(conv, order)``:
    delivery rows REPLACE stored rows with the same key, keys the store has
    never seen INSERT — the standard upsert/merge primitive a long-lived
    store needs for late-arriving corrections (re-scored turns, redacted
    text, fixed tool labels) without the delete-list round trip.

    Partition-local by construction, even under mega-conversation salting:
    ``part_id`` is a pure function of (hash(conv), order-chunk), so a
    delivery row and every stored version of its key land in the same
    partition — one fused rewrite per TOUCHED partition, never a store scan,
    untouched partitions keep their exact bytes. The delivery runs through
    ``encode_dataset``'s exchange (the summary's ``executor`` names the
    executor), and each touched partition is rewritten by
    ``_rewrite_partition``, folding its appended generations into a fresh
    base container under the same crash-safety contract as the deletes,
    so a crashed upsert leaves the store untouched, loudly invalid, or
    finished — never silently duplicated.

    Key-level replace is the semantics that stays partition-local; replacing
    a WHOLE conversation (old turns the delivery doesn't re-deliver must
    die) is ``delete_conversations`` + ``append_dataset``, because under
    salting the old turns' chunks live in other partitions. Range-clustered
    stores refuse for the same reason: their partition is a function of
    cluster-column VALUES, so an updated row whose cluster value changed
    would leave its old version alive in another bucket.

    A delivery carrying two rows with the same key is ambiguous (which one
    wins?) and raises rather than picking silently."""
    prior = _store_record(out_dir, "upsert")
    if (prior.get("partition_mode") or "hash") == "range":
        raise ValueError(
            "upsert_dataset requires a hash-partitioned store: a range-"
            "clustered partition is a function of cluster-column VALUES, so "
            "an update that changes them strands the old row in another "
            "bucket — use delete_conversations + append_dataset instead"
        )
    if not prior["order_col"]:
        raise ValueError(
            "upsert_dataset merges by (conv, order) row key; this store has "
            "no order column — use delete_conversations + append_dataset"
        )
    inp, assign = _delivery_input(source, out_dir, prior)
    encoder = _store_encoder(
        out_dir, prior, codec, _UpsertPartition,
        by_part=_by_part(mf.load_records(out_dir)), key=(prior["conv_col"], prior["order_col"]),
    )
    executor, rows = inp.exchange(assign, lambda: encoder)
    _stamp_watermark(out_dir, prior, max((int(r["folded_gen"]) for r in rows), default=0))
    summary = mf.consolidate(out_dir)
    summary["n_parts"] = inp.n_parts
    summary["rows_updated"] = int(sum(r["updated"] for r in rows))
    summary["rows_inserted"] = int(sum(r["inserted"] for r in rows))
    summary["parts_rewritten"] = len(rows)
    summary["executor"] = executor
    summary["fsst_shared"] = sorted(encoder.fsst_tables)
    return summary


def _generation_of(path: str) -> int:
    """part-NNNNN-gKKKK.pcc -> KKKK (0 on anything unexpected)."""
    try:
        return int(os.path.basename(path).rsplit("-g", 1)[1].split(".")[0])
    except (IndexError, ValueError):
        return 0


def _by_part(recs: list[dict]) -> dict[int, list[dict]]:
    """Lineage records grouped by partition."""
    by_part: dict[int, list[dict]] = {}
    for r in recs:
        by_part.setdefault(int(r["part_id"]), []).append(r)
    return by_part


def _stamp_watermark(out_dir: str, prior: dict, folded_gen: int) -> None:
    """Raise the run record's snapshot watermark to ``folded_gen``: a
    snapshot at a generation below the highest one folded into a rewritten
    base would mix rewritten partitions with untouched ones — a state that
    never existed. Only the touched partitions' generations count, so a
    rewrite of never-appended partitions keeps old snapshots."""
    if folded_gen > int(prior.get("snapshot_watermark") or 0):
        prior["snapshot_watermark"] = folded_gen
        mf.write_run_record(out_dir, prior)


def _fold_partition(
    pid: int,
    container_paths: list[str],
    leftover_paths: list[str],
    prior_folded: dict,
    base_crc: int | None,
) -> "tuple[pa.Table | None, dict[str, int]]":
    """Decode ONE partition's recorded containers plus crash leftovers into a
    single table, returning ``(table, folded)`` — the shared step 1 of the
    in-place rewrite crash-safety contract (see ``_rewrite_partition``). A
    leftover generation file is included only if the base record's ``folded``
    map does not already carry its (basename, crc32); a base container whose
    crc differs from its record proves a previous rewrite's rename landed and
    already holds every leftover's surviving rows. Returns ``(None, folded)``
    when the partition has no containers at all (pure-insert upsert)."""
    from .container import decode_table

    tabs = []
    folded: dict[str, int] = {}
    base_name = f"part-{pid:05d}.pcc"
    base_is_newer = False
    for p in container_paths:
        with open(p, "rb") as f:
            raw = f.read()
        tabs.append(decode_table(raw))
        name = os.path.basename(p)
        if name != base_name:
            folded[name] = zlib.crc32(raw) & 0xFFFFFFFF
        elif base_crc is not None:
            base_is_newer = (zlib.crc32(raw) & 0xFFFFFFFF) != base_crc
    for p in leftover_paths:
        with open(p, "rb") as f:
            raw = f.read()
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        name = os.path.basename(p)
        if not base_is_newer and prior_folded.get(name) != crc:
            tabs.append(decode_table(raw))
        folded[name] = crc
    if not tabs:
        return None, folded
    return pa.concat_tables(tabs).combine_chunks(), folded


def _rewrite_partition(out_dir: str, pid: int, recs: list[dict], edit, write) -> tuple[int, int, int]:
    """Rewrite ONE partition in place as a fresh base container holding
    ``edit(rows)`` — the rewrite behind ``upsert_dataset`` (merge a
    delivery), ``delete_conversations`` (drop the victims) and
    ``delete_rows`` (drop the predicate's matches). ``recs`` are the
    partition's lineage records; ``edit`` gets the partition's rows (None
    when it has no container) and ``write(pid, table, folded=...)`` encodes
    and records the base. Returns ``(rows before the edit, rows after,
    highest generation folded)``.

    Inputs are the partition's RECORDED containers (base + appended
    generations) plus any record-less generation files (leftovers) a
    previously crashed rewrite left behind. Step order is the crash-safety
    contract:

      1. decode everything. A leftover file is included only if the base
         record's ``folded`` map does NOT carry its (basename, crc32): a
         match proves the previous rewrite already merged exactly these bytes
         into the base (crash between steps 3 and 4 — drop the file), a miss
         means the rows exist nowhere else (crash between steps 2 and 3 — or
         a newer append whose record a later crash removed — keep every row).
         Content-addressing makes this exact even when generation filenames
         are reused across append/delete cycles or when appends carry
         duplicate (conv, order) keys,
      2. drop the generation RECORDS (from here until step 3 lands, readers
         fail loudly: the generation containers become manifest-strays),
      3. write the new base container atomically + its fresh lineage record,
         whose ``folded`` map names every generation container merged here,
      4. remove the generation container files.

    A crash at any point leaves the store either untouched, loudly invalid
    (stray-container guard), or finished — never silently duplicated or
    silently missing rows; re-running any rewrite of the partition repairs
    the middle states. A partition with no records but a base container is
    refused: the crash split step 3 (the rename landed, the record write did
    not) and the ``folded`` map that tells merged rows from unmerged ones is
    gone. With no base container (a generation-only partition) nothing can
    have folded a leftover, so every leftover row is kept.
    """
    import glob

    from .decode import resolve_container_path

    paths = [resolve_container_path(out_dir, r) for r in recs]
    base = os.path.join(out_dir, f"part-{pid:05d}.pcc")
    if not recs and os.path.exists(base):
        raise ValueError(
            f"partition {pid} in {out_dir} has a base container but no lineage "
            "record — the folded map needed to separate already-merged rows "
            "from unmerged ones is gone; refusing to guess"
        )
    leftovers = sorted(set(glob.glob(os.path.join(out_dir, f"part-{pid:05d}-g*.pcc"))) - set(paths))
    base_rec = next((r for r in recs if not int(r.get("generation", 0))), {})
    t, folded = _fold_partition(pid, paths, leftovers, base_rec.get("folded") or {},
                                base_rec.get("crc32"))
    before = t.num_rows if t is not None else 0
    t = edit(t)
    gens = [int(r.get("generation", 0)) for r in recs]
    for g in gens:
        if g:
            try:
                os.remove(mf.record_path(out_dir, pid, g))
            except OSError:
                pass
    write(pid, t, folded=folded)
    for p in paths + leftovers:
        if os.path.abspath(p) != os.path.abspath(base):
            try:
                os.remove(p)
            except OSError:
                pass
    return before, t.num_rows, max(gens + [_generation_of(p) for p in leftovers] + [0])


def _rewrite_touched(out_dir: str, prior: dict, by_part: dict, touched: set, edit,
                     codec) -> list[tuple[int, int, int]]:
    """The deletes' write side: rewrite every touched partition with
    ``edit`` (``_rewrite_partition``), one Ray task each, and stamp the
    snapshot watermark; returns each rewrite's result.

    Crash leftovers are swept in first: a rewrite that died between writing
    the new base and removing a generation file leaves a record-less
    part-NNNNN-gNNNN.pcc that keeps the store loudly invalid (stray guard)
    — and its partition may no longer hold any row the edit removes, so the
    touched set alone would never revisit it. When a rewrite fails, every
    other one finishes before the error re-raises."""
    import glob

    recorded = {os.path.basename(r["path"]) for rs in by_part.values() for r in rs}
    for f in glob.glob(os.path.join(out_dir, "part-*-g*.pcc")):
        if os.path.basename(f) not in recorded:
            try:
                touched.add(int(os.path.basename(f)[5:10]))
            except ValueError:
                pass
    write = _store_encoder(out_dir, prior, codec).encode_one
    rewrite = _remote(_rewrite_partition)
    results = _get_drained([rewrite.remote(out_dir, pid, by_part.get(pid, []), edit, write)
                            for pid in sorted(touched)])
    _stamp_watermark(out_dir, prior, max((g for _, _, g in results), default=0))
    return results


def _keep_rows(t: pa.Table) -> pa.Table:
    """Repair edit: every row stays; the fold alone finishes the rewrite."""
    return t


def _drop_convs(conv_col: str, victims: list, t: pa.Table) -> pa.Table:
    """Delete edit: ``t`` without the victim conversations' rows."""
    vict = pa.array(victims).cast(t[conv_col].type)
    return t.filter(pc.invert(pc.is_in(t[conv_col], value_set=vict)))


def _drop_matches(dnf, t: pa.Table) -> pa.Table:
    """Retention edit: ``t`` without the rows MATCHING the DNF. SQL
    semantics — a null comparison never matches, so null rows stay, exactly
    like DELETE ... WHERE in the oracle."""
    from .zonemap import dnf_mask

    m = dnf_mask(t, dnf)
    return t if m is None else t.filter(pc.invert(pc.fill_null(m, False)))


def _probe_partition_victims(paths: list[str], conv_col: str, victims: list) -> list:
    """Which victim keys have rows in these containers of one partition?
    One pruned key-column decode over them (delete probe worker — runs as
    a Ray task so a long delete list probes its candidate partitions in
    parallel, never driver-serially)."""
    from .container import read_table

    col = pa.concat_tables([read_table(p, columns=[conv_col]) for p in paths])[conv_col]
    vict = pa.array(victims).cast(col.type)
    mask = pc.is_in(vict, value_set=col.combine_chunks())
    return [v for v, m in zip(victims, mask.to_pylist()) if m]


def _delete_candidates(out_dir: str, recs: list[dict], dnf) -> "tuple[dict[int, list[str]], dict]":
    """The deletes' one candidate loop: the containers of ``recs`` that may
    hold a row matching ``dnf``, as ``{part_id: [path, ...]}``, and the
    plan. The levels are a scan's (``zonemap.prune_containers``): hash route
    (``==``/``in`` on the partition column, ``zonemap._hash_route_parts``),
    then per-container zone maps, then the batched dictionary/Bloom footer
    probe. The plan counts containers: ``parts_total`` and the levels that
    ruled them out, ``pruned_hash``, ``pruned_stats``, ``pruned_dict`` and
    ``pruned_bloom``."""
    from .decode import resolve_container_path
    from .zonemap import prune_containers

    paths = [resolve_container_path(out_dir, r) for r in recs]
    keys = ("parts_total", "pruned_hash", "pruned_stats", "pruned_dict", "pruned_bloom")
    stores, survivors = prune_containers([(out_dir, recs, paths)], dnf, keys)
    pid_of = {p: int(r["part_id"]) for p, r in zip(paths, recs)}
    cand: dict[int, list[str]] = {}
    for p in survivors:
        cand.setdefault(pid_of[p], []).append(p)
    return cand, stores[out_dir]


def delete_conversations(out_dir: str, conv_values: list, codec: str | dict = "auto") -> dict:
    """Delete whole conversations from an encoded store IN PLACE, rewriting
    only the partitions that hold them — the retention / right-to-be-
    forgotten path a long-lived 100 TB store needs.

    Candidates come from the deletes' one loop (``_delete_candidates``) on
    ``conv_col in conv_values``: on a hash store the partition router keeps
    only the partitions the victims' salt chunks 0..k_max can reach (k_max
    bounded by the order column's zone-map max, so sparse appended turn
    ranges are still found), then zone maps and the footer probe prune
    containers; a range-clustered store is pruned by its zone maps alone.
    One pruned key-column decode per candidate partition (parallel Ray
    tasks) then finds which victims are really there — never a store scan.
    Each touched partition is then rewritten in parallel (base + appended
    generations fold into a fresh base container; see ``_rewrite_partition``
    for the crash-safety contract). Untouched partitions keep their exact
    bytes, so resume/fsck/zonemap state stays valid everywhere else. An
    empty ``conv_values`` deletes and rewrites nothing.
    """
    from .partition import HASH_VERSION, hash_conv_values

    prior = mf.load_run_record(out_dir)
    if prior is None:
        raise ValueError(f"no run record in {out_dir} — delete needs an encoded store")
    if prior.get("hash_version") != HASH_VERSION:
        raise ValueError(
            f"store {out_dir} was partitioned with hash {prior.get('hash_version')!r}; "
            f"this build uses {HASH_VERSION!r} — cannot locate conversations"
        )
    conv_col = prior["conv_col"]
    conv_values = list(dict.fromkeys(conv_values))
    if hash_conv_values(conv_values) is None:
        raise TypeError(
            "delete_conversations: conversation keys must be uniformly "
            "int, str, or bytes (matching the encoded key column) — got "
            f"{sorted({type(v).__name__ for v in conv_values})}"
        )
    summary_base = {"convs_requested": len(conv_values)}
    nothing = {**summary_base, "convs_found": 0, "rows_deleted": 0, "parts_rewritten": 0}
    if not conv_values:
        return nothing

    recs = mf.load_records(out_dir)
    cand, _ = _delete_candidates(out_dir, recs, [[(conv_col, "in", conv_values)]])
    probe = _remote(_probe_partition_victims)
    vict_ref = ray.put(conv_values)
    pids = sorted(cand)
    present = ray.get([probe.remote(cand[pid], conv_col, vict_ref) for pid in pids])
    touched = {pid for pid, hit in zip(pids, present) if hit}
    found_vals = {v for hit in present for v in hit}

    results = _rewrite_touched(out_dir, prior, _by_part(recs), touched,
                               functools.partial(_drop_convs, conv_col, conv_values), codec)
    if not results:
        return nothing
    summary = mf.consolidate(out_dir)
    summary.update(summary_base)
    summary["convs_found"] = len(found_vals)
    summary["rows_deleted"] = int(sum(b - a for b, a, _ in results))
    summary["parts_rewritten"] = len(results)
    return summary


def delete_rows(out_dir: str, predicate, codec: str | dict = "auto") -> dict:
    """Delete the ROWS matching a predicate from an encoded store IN PLACE —
    the retention / TTL path (``DELETE FROM store WHERE ...``), rewriting
    only the partitions that can contain matches.

    The touched set is the deletes' one candidate loop
    (``_delete_candidates``): the pruning a scan reads with, inverted into
    a write plan — hash route for ``==``/``in`` on the partition column,
    per-container zone maps (``record_may_match`` per DNF branch), then the
    batched dictionary/Bloom footer probe; a partition is rewritten only if
    some container survives all three. A key delete on a hash store
    therefore rewrites only the key's routed partitions, and a TTL delete
    ("ts < horizon") on a range-clustered store only the horizon's boundary
    and interior containers; the rest of the store keeps its exact bytes
    (resume/fsck/zonemap state stays valid). Each touched partition folds
    base + generations + crash leftovers and rewrites atomically under the
    same crash contract as ``delete_conversations`` (shared
    ``_rewrite_partition``; SQL null semantics — null comparisons never
    match, so null rows survive, same as the oracle's DELETE). The
    summary's ``plan`` is ``_delete_candidates``': ``parts_total``,
    ``pruned_hash``, ``pruned_stats``, ``pruned_dict`` and
    ``pruned_bloom``, counted in containers."""
    from .zonemap import _normalize_dnf

    prior = mf.load_run_record(out_dir)
    if prior is None:
        raise ValueError(f"no run record in {out_dir} — delete needs an encoded store")
    dnf = _normalize_dnf(predicate)
    if not any(br for br in dnf):
        raise ValueError("delete_rows needs a non-empty predicate — an empty "
                         "one would delete the whole store; use a fresh encode instead")

    recs = mf.load_records(out_dir)
    cand, plan = _delete_candidates(out_dir, recs, dnf)
    results = _rewrite_touched(out_dir, prior, _by_part(recs), set(cand),
                               functools.partial(_drop_matches, dnf), codec)
    summary = mf.consolidate(out_dir)
    summary["rows_deleted"] = int(sum(b - a for b, a, _ in results))
    summary["parts_rewritten"] = len(results)
    summary["plan"] = plan
    return summary


def repair_store(out_dir: str) -> dict:
    """Finish any interrupted in-place rewrite: sweep record-less
    generation containers into their partitions' rewrite (the step-1 fold
    decides keep-vs-drop exactly via the base record's content-addressed
    ``folded`` map) and restore manifest/container consistency. A no-op on a
    healthy store. Exposed as ``fsck --repair``."""
    prior = mf.load_run_record(out_dir)
    if prior is None:
        raise ValueError(f"no run record in {out_dir} — repair needs an encoded store")
    results = _rewrite_touched(out_dir, prior, _by_part(mf.load_records(out_dir)), set(),
                               _keep_rows, "auto")
    summary = mf.consolidate(out_dir) if results else {}
    summary.update(convs_requested=0, convs_found=0, rows_deleted=0,
                   parts_rewritten=len(results))
    return summary
