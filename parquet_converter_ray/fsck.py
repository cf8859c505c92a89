"""Store integrity check (``pcr fsck``): manifest <-> containers <-> bytes.

Two levels, both manifest-driven:

* **meta** (default) — driver-side metadata pass, no data bytes read: run
  record present and sane, every lineage record resolves to a container of
  the recorded size, footers parse (tail seek only) and agree with their
  record (part_id, generation, rows) and with each other (one store schema),
  no stray ``part-*.pcc`` the manifest doesn't know.
* **deep** — plain Ray tasks over slices of the containers
  (``zonemap.map_footers``: at most one task per cluster CPU, never file
  bytes on the driver, no Ray Data job): whole-payload crc32 vs the lineage
  record, per-buffer crc32s vs the footer, full decode, decoded row count vs
  the record.

A clean report means ``decode_dataset``, ``append_dataset`` and the
readers and writers that route keys through the run record
(``zonemap._hash_route_parts``: scans, ``lookup_conversation``, both
deletes, ``store_join_dim``) can trust the store; any error pinpoints the
partition.
The reference has no integrity surface at all (a torn parquet write is
discovered at read time, reference converter.py writes directly to the
final path).
"""

from __future__ import annotations

import glob
import os
import zlib

from . import manifest as mf
from .container import read_footer_file
from .decode import resolve_container_path


def fsck_store(out_dir: str, deep: bool = False) -> dict:
    """Check an encoded store; returns ``{ok, parts, errors, deep_checked}``.

    ``errors`` is a list of human-readable strings, each naming the partition
    or file it concerns; ``ok`` is True only when the list is empty."""
    errors: list[str] = []
    recs = mf.load_records(out_dir)
    if not recs:
        return {
            "ok": False,
            "parts": 0,
            "errors": [f"no manifest records under {out_dir} — not an encoded store?"],
            "deep_checked": 0,
        }
    run = mf.load_run_record(out_dir)
    if run is None:
        errors.append(f"missing run record {mf.run_record_path(out_dir)}")
    else:
        for key in mf.RUN_PARAM_KEYS:
            if key not in run:
                errors.append(f"run record lacks parameter {key!r}")

    resolved: list[tuple[dict, str]] = []
    schema_sig: tuple | None = None
    for r in recs:
        tag = f"part {r.get('part_id')} gen {r.get('generation', 0)}"
        try:
            path = resolve_container_path(out_dir, r)
        except FileNotFoundError:
            errors.append(f"{tag}: container file missing ({r.get('path')})")
            continue
        try:
            size = os.path.getsize(path)
        except OSError as e:
            errors.append(f"{tag}: cannot stat {path}: {e}")
            continue
        if size != r.get("bytes_out"):
            errors.append(f"{tag}: size {size} != recorded bytes_out {r.get('bytes_out')}")
            continue
        try:
            footer = read_footer_file(path)
        except (ValueError, OSError) as e:
            errors.append(f"{tag}: unreadable footer in {path}: {e}")
            continue
        if footer.get("part_id") != r.get("part_id"):
            errors.append(f"{tag}: footer part_id {footer.get('part_id')} != record")
        if footer.get("generation", 0) != r.get("generation", 0):
            errors.append(f"{tag}: footer generation {footer.get('generation', 0)} != record")
        if footer.get("rows") != r.get("rows"):
            errors.append(f"{tag}: footer rows {footer.get('rows')} != recorded {r.get('rows')}")
        sig = tuple((c["name"], c["type"]) for c in footer["columns"])
        if schema_sig is None:
            schema_sig = sig
        elif sig != schema_sig:
            errors.append(f"{tag}: schema {sig} differs from the store schema {schema_sig}")
        resolved.append((r, path))

    stray = set(glob.glob(os.path.join(out_dir, "part-*.pcc"))) - {p for _, p in resolved} - {
        r.get("path") for r in recs
    }
    for s in sorted(stray):
        errors.append(f"stray container not in manifest: {s}")

    deep_checked = 0
    if deep and resolved:
        from .zonemap import map_footers

        expected = {
            p: (f"part {int(r['part_id'])} gen {int(r.get('generation', 0))}",
                int(r["rows"]), int(r.get("crc32", 0)))
            for r, p in resolved
        }
        results = map_footers(_deep_check, list(expected), expected)
        deep_checked = len(results)
        errors.extend(m for m in results.values() if m)

    return {"ok": not errors, "parts": len(recs), "errors": errors, "deep_checked": deep_checked}


def _deep_check(path: str, expected: dict) -> str:
    """The deep check of one container against its ``expected`` (tag, rows,
    crc32): an error message, or "" when it passes."""
    from .container import decode_table

    tag, rows, crc = expected[path]
    try:
        with open(path, "rb") as f:
            data = f.read()
        if crc and (zlib.crc32(data) & 0xFFFFFFFF) != crc:
            return f"{tag}: payload crc32 mismatch (bit rot?)"
        t = decode_table(data, verify_crc=True)
        if t.num_rows != rows:
            return f"{tag}: decoded {t.num_rows} rows != recorded {rows}"
    except (OSError, ValueError, KeyError) as e:
        return f"{tag}: deep check failed: {e}"
    return ""
