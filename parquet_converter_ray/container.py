"""Encoded-partition container format.

One container file per partition (``part-{pid:05d}.pcc``):

    MAGIC | column buffers ... | footer JSON (utf8) | footer_len: uint64 LE | MAGIC

The footer records, per column: name, codec, row count, arrow type, null count,
codec meta, buffer lengths, and a crc32 per buffer — enough to decode any single
column without touching the others (column pruning works on containers too).

This replaces the reference's "one parquet file per input file" output layout
(reference converter.py:222) with a resumable partitioned layout: each container
is written atomically (temp file + rename) and independently decodable.
"""

from __future__ import annotations

import json
import os
import zlib

import pyarrow as pa

from .codecs import ColumnBlob, decode_array, encode_array

MAGIC = b"PCRC1\0"
FOOTER_VERSION = 1


def pack_container(
    blobs: dict[str, ColumnBlob],
    extra: dict | None = None,
    blooms: "dict[str, tuple[bytes, dict]] | None" = None,
) -> bytes:
    parts: list[bytes] = [MAGIC]
    offset = len(MAGIC)
    cols = []
    for name, blob in blobs.items():
        bufs = ([blob.validity] if blob.validity is not None else []) + blob.bufs
        buf_lens = [len(b) for b in bufs]
        crcs = [zlib.crc32(b) & 0xFFFFFFFF for b in bufs]
        cols.append(
            {
                "name": name,
                "codec": blob.codec,
                "n": blob.n,
                "type": blob.type_str,
                "null_count": blob.null_count,
                "meta": blob.meta,
                "has_validity": blob.validity is not None,
                "buf_lens": buf_lens,
                "crc32": crcs,
                "offset": offset,
            }
        )
        parts.extend(bufs)
        offset += sum(buf_lens)
    bloom_entries: dict[str, dict] = {}
    for name, (bits, meta) in (blooms or {}).items():
        # bloom sections sit between the column buffers and the footer —
        # column offsets are explicit, so pre-bloom readers skip them free
        bloom_entries[name] = {
            **meta,
            "offset": offset,
            "len": len(bits),
            "crc32": zlib.crc32(bits) & 0xFFFFFFFF,
        }
        parts.append(bits)
        offset += len(bits)
    footer = {
        "version": FOOTER_VERSION,
        "columns": cols,
        **({"blooms": bloom_entries} if bloom_entries else {}),
        **(extra or {}),
    }
    fb = json.dumps(footer).encode()
    parts.append(fb)
    parts.append(len(fb).to_bytes(8, "little"))
    parts.append(MAGIC)
    return b"".join(parts)


def read_footer(data: bytes) -> dict:
    if data[: len(MAGIC)] != MAGIC or data[-len(MAGIC) :] != MAGIC:
        raise ValueError("bad container magic")
    flen = int.from_bytes(data[-len(MAGIC) - 8 : -len(MAGIC)], "little")
    fstart = len(data) - len(MAGIC) - 8 - flen
    return json.loads(data[fstart : fstart + flen].decode())


def read_footer_file(path: str) -> dict:
    """Read ONLY a container's footer from disk (tail seek — no column bytes).

    Used by append's schema-conform step to learn the store schema without
    decoding anything: footer_len sits in the last 14 bytes, the JSON right
    before it."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
        if head != MAGIC:
            raise ValueError("bad container magic")
        f.seek(-(len(MAGIC) + 8), os.SEEK_END)
        tail = f.read()
        if tail[-len(MAGIC) :] != MAGIC:
            raise ValueError("bad container magic")
        flen = int.from_bytes(tail[: 8], "little")
        f.seek(-(len(MAGIC) + 8 + flen), os.SEEK_END)
        return json.loads(f.read(flen).decode())


def unpack_container(
    data: bytes, columns: list[str] | None = None, verify_crc: bool = False
) -> tuple[dict, dict[str, ColumnBlob]]:
    footer = read_footer(data)
    blobs: dict[str, ColumnBlob] = {}
    for col in footer["columns"]:
        if columns is not None and col["name"] not in columns:
            continue
        off = col["offset"]
        bufs = []
        for blen, crc in zip(col["buf_lens"], col["crc32"]):
            b = data[off : off + blen]
            if verify_crc and (zlib.crc32(b) & 0xFFFFFFFF) != crc:
                raise ValueError(f"crc mismatch in column {col['name']}")
            bufs.append(b)
            off += blen
        validity = None
        if col["has_validity"]:
            validity, bufs = bufs[0], bufs[1:]
        blobs[col["name"]] = ColumnBlob(
            codec=col["codec"],
            n=col["n"],
            type_str=col["type"],
            null_count=col["null_count"],
            meta=col["meta"],
            bufs=bufs,
            validity=validity,
        )
    return footer, blobs


def encode_table(table: pa.Table, codec: str | dict[str, str] = "auto",
                 fsst_tables: "dict | None" = None) -> dict[str, ColumnBlob]:
    """Encode every column of a table. ``codec`` may be a per-column dict;
    ``fsst_tables`` maps a string column to the FSST table its encode was
    given (``encode_array``'s ``fsst_table``)."""
    blobs: dict[str, ColumnBlob] = {}
    for name in table.column_names:
        c = codec.get(name, "auto") if isinstance(codec, dict) else codec
        blobs[name] = encode_array(table.column(name), codec=c,
                                   fsst_table=(fsst_tables or {}).get(name))
    return blobs


def decode_table(data: bytes, columns: list[str] | None = None, verify_crc: bool = False) -> pa.Table:
    footer, blobs = unpack_container(data, columns=columns, verify_crc=verify_crc)
    names = [c["name"] for c in footer["columns"] if columns is None or c["name"] in columns]
    return pa.table({name: decode_array(blobs[name]) for name in names})


def read_table(path: str, columns: list[str] | None = None, verify_crc: bool = False) -> pa.Table:
    """``decode_table`` of the container file at ``path``: the one read of a
    whole container's columns from disk."""
    with open(path, "rb") as f:
        return decode_table(f.read(), columns=columns, verify_crc=verify_crc)


def write_container_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)
