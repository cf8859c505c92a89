"""Layer-by-layer replay for the traced run, and the per-layer metrics.

The traced run times the engine's layers from the benchmark's side: it calls
each module's public functions in-process, one partition at a time, on the
same input the workload's encodes write, and rebuilds the read path of each
traced op (manifest -> zone maps -> footer probe -> container decode ->
predicate). Every number below is derived from the recorded spans and the
counts attached to them.

A layer a workload does not exercise reports 0: ``ingest`` builds no blooms
and runs no aggregate, ``query`` writes nothing in its loop, ``mutate`` runs
no aggregate.
"""

from __future__ import annotations

import os
import statistics

import pyarrow.compute as pc
import pyarrow.parquet as pq

from parquet_converter_ray import manifest
from parquet_converter_ray.bloom import bloom_probe_footer, build_blooms, build_token_blooms
from parquet_converter_ray.codecs import decode_array, encode_array
from parquet_converter_ray.container import (
    decode_table,
    pack_container,
    read_footer_file,
    write_container_atomic,
)
from parquet_converter_ray.decode import resolve_container_path
from parquet_converter_ray.partition import assign_part_id
from parquet_converter_ray.zonemap import (
    column_stats,
    dict_probe_path,
    dnf_mask,
    page_stats,
    record_may_match,
)

from .oracle import STORE_COLUMNS as COLUMNS
from .session import SETTINGS

SORT_KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]
_MEMBERSHIP_OPS = ("==", "in", "prefix", "hastok", "hasphrase", "hasany")

# per-layer metric -> (unit, better, the end-to-end numbers it should move)
LAYER_METRICS = {
    "partition.assign_turns_per_s": ("turns/s", "higher", ["encode_turns_per_s@ingest",
                                                           "append_p50_ms@mutate"]),
    "encode.sort_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "encode.partition_cpu_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "encode.outside_partition_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "encode.rewrite_bytes_per_user_byte": ("ratio", "lower", ["upsert_p50_ms@mutate",
                                                              "delete_p50_ms@mutate"]),
    "encode.partitions_rewritten": ("count", "lower", ["upsert_p50_ms@mutate",
                                                       "delete_p50_ms@mutate"]),
    "codecs.<col>.encode_MBps": ("MB/s", "higher", ["encode_turns_per_s@ingest",
                                                    "upsert_p50_ms@mutate", "no change@query"]),
    "codecs.<col>.decode_MBps": ("MB/s", "higher", ["decode_turns_per_s@ingest",
                                                    "search_p50_ms@query"]),
    "codecs.<col>.bytes_ratio": ("ratio", "lower", ["bytes_vs_parquet@ingest",
                                                    "bytes_vs_parquet@mutate"]),
    "zonemap.column_stats_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "zonemap.page_stats_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "zonemap.stats_keep_frac": ("ratio", "lower", ["pushdown_p50_ms@query",
                                                   "search_p50_ms@query"]),
    "zonemap.probe_keep_frac": ("ratio", "lower", ["pushdown_p50_ms@query",
                                                   "search_p50_ms@query"]),
    "zonemap.probe_ms": ("ms", "lower", ["pushdown_p50_ms@query", "search_p50_ms@query"]),
    "zonemap.rows_examined_per_row_out": ("ratio", "lower", ["pushdown_p50_ms@query",
                                                             "search_p50_ms@query"]),
    "bloom.build_s": ("s", "lower", ["append_p50_ms@mutate", "upsert_p50_ms@mutate",
                                     "setup_s@query"]),
    "bloom.token_build_s": ("s", "lower", ["append_p50_ms@mutate", "upsert_p50_ms@mutate",
                                           "setup_s@query"]),
    "container.pack_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "container.write_s": ("s", "lower", ["encode_turns_per_s@ingest"]),
    "container.decode_MBps": ("MB/s", "higher", ["decode_turns_per_s@ingest"]),
    "manifest.load_records_ms": ("ms", "lower", ["lookup_p50_ms@mutate", "every op@query"]),
    "manifest.records": ("count", "lower", ["lookup_p50_ms@mutate", "every op@query"]),
    "storeagg.meta_answered_frac": ("ratio", "higher", ["pushdown_p50_ms@query"]),
    "ray_data.overhead_ms": ("ms", "lower", ["pushdown_p50_ms@query", "query_ops_per_s@query",
                                             "delete_p50_ms@mutate"]),
    "trace.overhead_frac": ("ratio", "lower", ["none: traced vs untraced rounds"]),
}


def expand() -> dict[str, tuple]:
    """LAYER_METRICS with ``<col>`` expanded to each transcript column."""
    out = {}
    for k, v in LAYER_METRICS.items():
        for c in (COLUMNS if "<col>" in k else [None]):
            out[k.replace("<col>", c) if c else k] = v
    return out


def replay_encode(tr, table, bloom_cols, text_bloom_cols, scratch: str) -> None:
    """Each partition's encode chain in-process, then its decode."""
    os.makedirs(scratch, exist_ok=True)
    table = table.combine_chunks()
    written = []
    with tr.span("replay.encode", rows=table.num_rows):
        with tr.span("partition.assign_part_id", rows=table.num_rows):
            assigned = assign_part_id(table, SETTINGS["n_parts"],
                                      salt_rows=SETTINGS["salt_rows"])
        for pid in range(SETTINGS["n_parts"]):
            part = assigned.filter(pc.equal(assigned["part_id"], pid))
            part = part.drop_columns(["part_id"]).combine_chunks()
            if not part.num_rows:
                continue
            with tr.span("encode.partition", part=pid, rows=part.num_rows):
                with tr.span("encode.sort"):
                    part = part.sort_by(SORT_KEY)
                blobs = {}
                for c in part.column_names:
                    with tr.span("codecs.encode_array", col=c, bytes_in=part[c].nbytes) as s:
                        blobs[c] = encode_array(part[c])
                        s["bytes_out"] = blobs[c].nbytes
                codecs = {c: b.codec for c, b in blobs.items()}
                with tr.span("zonemap.column_stats"):
                    stats = column_stats(part, codecs)
                with tr.span("zonemap.page_stats"):
                    pages = page_stats(part)
                blooms = {}
                if bloom_cols:
                    with tr.span("bloom.build_blooms"):
                        blooms.update(build_blooms(part, bloom_cols))
                if text_bloom_cols:
                    with tr.span("bloom.build_token_blooms"):
                        blooms.update(build_token_blooms(part, text_bloom_cols))
                with tr.span("container.pack_container") as s:
                    payload = pack_container(
                        blobs, extra={"part_id": pid, "rows": part.num_rows,
                                      "sort_key": [k for k, _ in SORT_KEY], "generation": 0,
                                      "stats": stats, **({"pages": pages} if pages else {})},
                        blooms=blooms or None)
                    s["bytes"] = len(payload)
                with tr.span("container.write_container_atomic", bytes=len(payload)):
                    write_container_atomic(os.path.join(scratch, f"part-{pid:05d}.pcc"), payload)
            written.append((payload, blobs))
    with tr.span("replay.decode"):
        for payload, blobs in written:
            for c, b in blobs.items():
                with tr.span("codecs.decode_array", col=c) as s:
                    s["bytes"] = decode_array(b).nbytes
            with tr.span("container.decode_table", bytes_in=len(payload)) as s:
                s["bytes"] = decode_table(payload).nbytes


def _probe_keeps(path: str, dnf) -> bool:
    footer = read_footer_file(path)
    return any(dict_probe_path(path, br, footer) and bloom_probe_footer(path, footer, br)
               for br in dnf)


def replay_chain(tr, store: str, dnf, cols) -> dict:
    """The read path of one op, in-process: manifest records, zone-map
    pruning, the dictionary/Bloom footer probe, container decode and the
    exact predicate. ``dnf == []`` is a full read (no pruning)."""
    need = None
    if cols is not None:
        need = list(dict.fromkeys(list(cols) + [c for br in dnf for c, _, _ in br]))
    out = {"rows_examined": 0, "rows_out": 0}
    with tr.span("chain") as root:
        with tr.span("manifest.load_records") as s:
            recs = manifest.load_records(store)
            s["records"] = len(recs)
        with tr.span("zonemap.record_may_match"):
            kept = [r for r in recs if not dnf or any(
                record_may_match(r.get("stats") or {}, int(r.get("rows", 0)), br)
                for br in dnf)]
        paths = [resolve_container_path(store, r) for r in kept]
        probe = bool(dnf) and all(any(op in _MEMBERSHIP_OPS for _, op, _ in br) for br in dnf)
        with tr.span("zonemap.probe", applies=probe) as sp:
            if probe:
                paths = [p for p in paths if _probe_keeps(p, dnf)]
        for p in paths:
            with tr.span("container.decode_table") as s:
                with open(p, "rb") as f:
                    tbl = decode_table(f.read(), columns=need)
                s["bytes"] = tbl.nbytes
            with tr.span("zonemap.apply_predicate"):
                mask = dnf_mask(tbl, dnf) if dnf else None
                out["rows_examined"] += tbl.num_rows
                out["rows_out"] += tbl.num_rows if mask is None else int(pc.sum(mask).as_py() or 0)
    out.update(records=len(recs), kept_stats=len(kept), kept_probe=len(paths),
               chain_ms=(root["end"] - root["start"]) * 1e3,
               probe_ms=(sp["end"] - sp["start"]) * 1e3)
    return out


def manifest_snapshot(store: str) -> dict:
    return {(int(r["part_id"]), int(r.get("generation", 0))): (r["crc32"], r["bytes_out"])
            for r in manifest.load_records(store)}


def written_since(before: dict, after: dict) -> dict:
    new = [k for k, v in after.items() if before.get(k) != v]
    return {"bytes": sum(after[k][1] for k in new), "parts": len({pid for pid, _ in new})}


def parquet_column_bytes(files: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for f in files:
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for j in range(rg.num_columns):
                c = rg.column(j)
                out[c.path_in_schema] = out.get(c.path_in_schema, 0) + c.total_compressed_size
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def per_layer(tr, wl, loop, parquet_files: list[str]) -> dict[str, float]:
    """Every metric in ``expand()`` from the run's spans and counts."""
    m: dict[str, float] = {}
    assign = tr.named("partition.assign_part_id")
    m["partition.assign_turns_per_s"] = _ratio(sum(s["rows"] for s in assign),
                                               sum(_dur(s) for s in assign))
    cpu = tr.total_s("encode.partition")
    m["encode.sort_s"] = tr.total_s("encode.sort")
    m["encode.partition_cpu_s"] = cpu
    walls = [_dur(s) for s in tr.named(wl.encode_kind)]
    m["encode.outside_partition_s"] = _median(walls) - cpu / SETTINGS["ray_num_cpus"]
    writes = [w for w in loop.writes if w["kind"] in wl.rewrite_kinds]
    m["encode.rewrite_bytes_per_user_byte"] = _ratio(sum(w["bytes"] for w in writes),
                                                     sum(w["user_bytes"] for w in writes))
    m["encode.partitions_rewritten"] = _ratio(sum(w["parts"] for w in writes), len(writes))
    pq_bytes = parquet_column_bytes(parquet_files)
    for c in COLUMNS:
        enc = [s for s in tr.named("codecs.encode_array") if s["col"] == c]
        dec = [s for s in tr.named("codecs.decode_array") if s["col"] == c]
        m[f"codecs.{c}.encode_MBps"] = _ratio(sum(s["bytes_in"] for s in enc),
                                              sum(_dur(s) for s in enc)) / 1e6
        m[f"codecs.{c}.decode_MBps"] = _ratio(sum(s["bytes"] for s in dec),
                                              sum(_dur(s) for s in dec)) / 1e6
        m[f"codecs.{c}.bytes_ratio"] = _ratio(sum(s["bytes_out"] for s in enc),
                                              pq_bytes.get(c, 0))
    m["zonemap.column_stats_s"] = tr.total_s("zonemap.column_stats")
    m["zonemap.page_stats_s"] = tr.total_s("zonemap.page_stats")
    ch = loop.chains
    m["zonemap.stats_keep_frac"] = _ratio(sum(c["kept_stats"] for c in ch),
                                          sum(c["records"] for c in ch))
    m["zonemap.probe_keep_frac"] = _ratio(sum(c["kept_probe"] for c in ch),
                                          sum(c["kept_stats"] for c in ch))
    m["zonemap.probe_ms"] = _median([c["probe_ms"] for c in ch])
    m["zonemap.rows_examined_per_row_out"] = _ratio(sum(c["rows_examined"] for c in ch),
                                                    sum(c["rows_out"] for c in ch))
    m["bloom.build_s"] = tr.total_s("bloom.build_blooms")
    m["bloom.token_build_s"] = tr.total_s("bloom.build_token_blooms")
    m["container.pack_s"] = tr.total_s("container.pack_container")
    m["container.write_s"] = tr.total_s("container.write_container_atomic")
    dec = tr.named("container.decode_table")
    m["container.decode_MBps"] = _ratio(sum(s["bytes"] for s in dec),
                                        sum(_dur(s) for s in dec)) / 1e6
    loads = tr.named("manifest.load_records")
    m["manifest.load_records_ms"] = _median([_dur(s) * 1e3 for s in loads])
    m["manifest.records"] = _median([s["records"] for s in loads])
    plans = loop.agg_plans
    m["storeagg.meta_answered_frac"] = _ratio(sum(p["meta_answered"] for p in plans),
                                              sum(p["parts_total"] for p in plans))
    m["ray_data.overhead_ms"] = _median([c["op_ms"] - c["chain_ms"] for c in ch])
    ratios = [statistics.median(loop.traced[k]) / statistics.median(loop.lat[k]) - 1.0
              for k in wl.op_kinds if loop.traced.get(k) and loop.lat.get(k)]
    m["trace.overhead_frac"] = _median(ratios)
    if set(m) != set(expand()):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(expand()))}")
    return m
