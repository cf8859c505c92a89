"""Per-partition lineage records + checkpoint manifest (resume support).

Each finished partition writes ``_manifest/part-{pid:05d}.json`` AFTER its
container file is atomically renamed into place — so a manifest record implies
a complete container. Resume = scan the manifest dir, skip those partitions.
``consolidate`` folds the per-partition records into one ``manifest.jsonl``
plus summary totals (the new-engine analogue of the reference's
``conversion_report.json``, reference logging.py:172-224).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field


@dataclass
class LineageRecord:
    part_id: int
    rows: int
    bytes_in: int  # arrow in-memory bytes of the partition
    bytes_out: int  # container file bytes
    codecs: dict = field(default_factory=dict)  # column -> codec name
    crc32: int = 0  # crc of the container payload
    wall_s: float = 0.0
    path: str = ""
    timings: dict = field(default_factory=dict)  # phase -> seconds (observability)
    generation: int = 0  # 0 = base encode; >0 = appended delivery (append_dataset)
    stats: dict = field(default_factory=dict)  # column -> zone map (zonemap.column_stats)
    # generation containers folded into this base by delete_conversations:
    # {basename: crc32 of the folded container bytes}. Crash recovery uses it
    # to decide whether a record-less generation file's rows are already in
    # the base (name AND crc match) or must be preserved (see
    # encode._rewrite_partition).
    folded: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


# --- run-level record: the partitioning parameters a resume MUST reuse -------

RUN_PARAM_KEYS = (
    "n_parts",
    "salt_rows",
    "conv_col",
    "order_col",
    "sort_key",
    "hash_version",
    # range-clustered layout (absent on pre-range stores = hash mode)
    "partition_mode",
    "cluster_by",
    "range_cuts",
    "cluster_norm",
)


def run_record_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_run.json")


def write_run_record(out_dir: str, params: dict) -> None:
    """Persist the partitioning parameters on first run (atomic)."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = run_record_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(params, f, indent=2)
    os.replace(tmp, run_record_path(out_dir))


def load_run_record(out_dir: str) -> dict | None:
    try:
        with open(run_record_path(out_dir)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def store_dirs(store) -> list[str]:
    """The member directories of ``store``, the first argument of every
    store verb: one directory, or a list of directories read as ONE family
    (a single store is a family of one). Refuses an empty list."""
    dirs = [store] if isinstance(store, str) else list(store)
    if not dirs:
        raise ValueError("a store verb needs at least one store directory")
    return dirs


def hash_layout(out_dir: str, *, unsalted: bool = False) -> dict:
    """The run record of a store whose keys route to partitions by the
    current hash arithmetic: the precondition of every job that relies on
    that routing (bucketed and dimension joins, CDC, rebucketing against a
    store).
    Refuses a store with no run record, another ``hash_version``, a
    range-clustered layout and, with ``unsalted``, a salted one."""
    from .partition import HASH_VERSION

    params = load_run_record(out_dir)
    if not params:
        raise ValueError(f"{out_dir}: no _run.json — its partition layout is unknown")
    if params.get("hash_version") != HASH_VERSION:
        raise ValueError(
            f"{out_dir}: hash_version {params.get('hash_version')!r} != current "
            f"{HASH_VERSION!r} — its keys route by other arithmetic"
        )
    if (params.get("partition_mode") or "hash") != "hash":
        raise ValueError(
            f"{out_dir}: partition_mode {params.get('partition_mode')!r} — range-clustered "
            "stores route by data-dependent value ranges and don't hash-route keys"
        )
    if unsalted and int(params.get("salt_rows") or 0):
        raise ValueError(
            f"{out_dir}: salt_rows={params.get('salt_rows')} — salted stores split "
            "keys across chunk partitions"
        )
    return params


def record_path(out_dir: str, part_id: int, generation: int = 0) -> str:
    # generation 0 keeps the original name (backward compatible with stores
    # written before append existed); appended deliveries get a -gNNNN suffix
    suffix = f"-g{generation:04d}" if generation else ""
    return os.path.join(manifest_dir(out_dir), f"part-{part_id:05d}{suffix}.json")


def write_record(out_dir: str, rec: LineageRecord) -> None:
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    dst = record_path(out_dir, rec.part_id, getattr(rec, "generation", 0))
    tmp = dst + ".tmp"
    with open(tmp, "w") as f:
        f.write(rec.to_json())
    os.replace(tmp, dst)


def completed_parts(out_dir: str) -> set[int]:
    """Partitions with a manifest record AND a container file of the recorded size."""
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return set()
    done: set[int] = set()
    for fn in os.listdir(mdir):
        if not (fn.startswith("part-") and fn.endswith(".json")):
            continue
        try:
            with open(os.path.join(mdir, fn)) as f:
                rec = json.load(f)
            if rec.get("generation", 0):
                continue  # appended deliveries are not base-run checkpoints
            # same local-first resolution as decode: a relocated store (records
            # carry the encode-time absolute path) must still see its parts as
            # complete, or a resume would re-encode everything into a dir that
            # already holds the full data
            local = os.path.join(out_dir, os.path.basename(rec["path"]))
            for cand in (local, rec["path"]):
                try:
                    if os.path.getsize(cand) == rec["bytes_out"]:
                        done.add(int(rec["part_id"]))
                        break
                except OSError:
                    continue
        except (OSError, ValueError, KeyError):
            continue
    return done


def load_records(out_dir: str) -> list[dict]:
    mdir = manifest_dir(out_dir)
    recs = []
    if os.path.isdir(mdir):
        for fn in sorted(os.listdir(mdir)):
            if fn.startswith("part-") and fn.endswith(".json"):
                with open(os.path.join(mdir, fn)) as f:
                    recs.append(json.load(f))
    # deterministic (part, delivery) order — filename sort would put
    # "part-00003-g0001.json" BEFORE "part-00003.json" ('-' < '.')
    recs.sort(key=lambda r: (int(r["part_id"]), int(r.get("generation", 0))))
    return recs


def order_chunk_bound(recs: list[dict], order_col: str, salt_rows: int) -> int | None:
    """Highest reachable salt chunk across the store, from the ORDER column's
    recorded zone-map maxima: chunk k exists only if some row has
    order >= k * salt_rows, so k_max = max(order) // salt_rows bounds the
    partition router (``zonemap._hash_route_parts``) and ``store_join_dim``'s
    dim-row replication WITHOUT assuming dense turn indices per conversation. Returns None when any record predates zone maps
    (bound unknowable -> callers degrade to their sound fallback), and when
    ``recs`` is empty (glob-only store layout: no lineage records at all)."""
    if not recs:
        return None
    omax = 0
    for r in recs:
        ent = (r.get("stats") or {}).get(order_col)
        if not ent or ent.get("max") is None:
            return None
        omax = max(omax, int(ent["max"]))
    return omax // salt_rows


def consolidate(out_dir: str) -> dict:
    """Write manifest.jsonl + return summary (rows, bytes in/out, ratio)."""
    recs = load_records(out_dir)
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as f:
        for r in recs:
            f.write(json.dumps(r) + "\n")
    bytes_in = sum(r["bytes_in"] for r in recs)
    bytes_out = sum(r["bytes_out"] for r in recs)
    return {
        "partitions": len(recs),
        "rows": sum(r["rows"] for r in recs),
        "bytes_in": bytes_in,
        "bytes_out": bytes_out,
        "ratio": bytes_out / max(bytes_in, 1),
    }
