"""End-to-end encode -> container -> decode pipeline tests (Ray).

North-rule gates (BASELINE.json):
 - decode reproduces every column bit-identical under stable turn ordering;
 - total compressed size <= the reference Parquet (snappy) output of the same
   table (the reference writes parquet+snappy, converter.py:577 / config.py:175);
 - exact resume of unfinished partitions from the lineage manifest.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_converter_ray import manifest as mf
from parquet_converter_ray.container import decode_table, encode_table, pack_container
from parquet_converter_ray.decode import container_files, decode_dataset, roundtrip_table
from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.synth import make_transcripts

N_TURNS = 20_000


@pytest.fixture(scope="module")
def transcripts():
    return make_transcripts(N_TURNS, seed=42)


def test_container_roundtrip_no_ray(transcripts):
    t = transcripts.slice(0, 2000)
    payload = pack_container(encode_table(t, codec="auto"))
    out = decode_table(payload, verify_crc=True)
    assert out.equals(t)


def test_container_column_pruning(transcripts):
    t = transcripts.slice(0, 1000)
    payload = pack_container(encode_table(t))
    out = decode_table(payload, columns=["conv_id", "text"])
    assert out.column_names == ["conv_id", "text"]
    assert out.column("text").combine_chunks().equals(t.column("text").combine_chunks())


def test_encode_decode_bit_identical(ray_session, transcripts, tmp_path):
    import ray.data

    ds = ray.data.from_arrow(transcripts)
    out = str(tmp_path / "enc")
    summary = encode_dataset(ds, out, n_parts=8, salt_rows=2000)
    assert summary["partitions"] == len(container_files(out))
    assert summary["rows"] == N_TURNS
    ok, msg = roundtrip_table(transcripts, out)
    assert ok, msg


def test_size_gate_vs_reference_parquet(ray_session, transcripts, tmp_path):
    import ray.data

    ds = ray.data.from_arrow(transcripts)
    out = str(tmp_path / "enc")
    summary = encode_dataset(ds, out, n_parts=4)
    ref = str(tmp_path / "ref.parquet")
    pq.write_table(transcripts, ref, compression="snappy")
    assert summary["bytes_out"] <= os.path.getsize(ref), (
        f"encoded {summary['bytes_out']} > reference parquet {os.path.getsize(ref)}"
    )


def test_decode_column_pruning_dataset(ray_session, transcripts, tmp_path):
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4)
    ds = decode_dataset(out, columns=["role"])
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert got.column_names == ["role"]
    assert got.num_rows == N_TURNS


def test_resume_after_partial_failure(ray_session, transcripts, tmp_path):
    """Kill after k partitions -> resume -> byte-equal full result."""
    import ray.data

    out = str(tmp_path / "enc")

    def bomb(part_id: int):
        if part_id >= 4:
            raise RuntimeError(f"injected failure on partition {part_id}")

    with pytest.raises(Exception):
        encode_dataset(
            ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=2000, fault_hook=bomb
        )
    done_before = mf.completed_parts(out)
    assert 0 < len(done_before) < 8, "some but not all partitions should have finished"

    summary = encode_dataset(
        ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=2000, resume=True
    )
    assert summary["partitions"] == 8
    assert summary["rows"] == N_TURNS
    ok, msg = roundtrip_table(transcripts, out)
    assert ok, msg


def test_resume_is_noop_when_complete(ray_session, transcripts, tmp_path):
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4)
    mtimes = {p: os.path.getmtime(p) for p in container_files(out)}
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4, resume=True)
    assert {p: os.path.getmtime(p) for p in container_files(out)} == mtimes


def test_mega_conversation_salting(ray_session, transcripts, tmp_path):
    """The mega-conversation must span multiple partitions when salted."""
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=500)
    # find the biggest conversation
    import pyarrow.compute as pc

    counts = transcripts.group_by("conv_id").aggregate([("turn_idx", "count")])
    mega = counts.sort_by([("turn_idx_count", "descending")])["conv_id"][0].as_py()
    hits = 0
    for f in container_files(out):
        with open(f, "rb") as fh:
            data = fh.read()
        tbl = decode_table(data, columns=["conv_id"])
        if pc.any(pc.equal(tbl["conv_id"], mega)).as_py():
            hits += 1
    assert hits >= 2, "mega-conversation should be split across partitions"


def test_distributed_fingerprint_verify(ray_session, transcripts, tmp_path):
    import ray.data

    from parquet_converter_ray.decode import dataset_fingerprint, verify_distributed

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4)
    ok, detail = verify_distributed(ray.data.from_arrow(transcripts), out)
    assert ok, detail
    # a corrupted decode must NOT match
    broken = transcripts.set_column(
        transcripts.schema.get_field_index("turn_idx"),
        "turn_idx",
        pa.array([0] * transcripts.num_rows, type=pa.int32()),
    )
    fp_bad = dataset_fingerprint(ray.data.from_arrow(broken))
    fp_good = dataset_fingerprint(ray.data.from_arrow(transcripts))
    assert fp_bad != fp_good


def test_partition_assignment_cross_process_stable(transcripts):
    """Resume depends on part_id being a pure, process-stable function of row
    content — verify in a fresh interpreter."""
    import subprocess
    import sys

    import numpy as np

    from parquet_converter_ray.partition import assign_part_id

    local = assign_part_id(transcripts.slice(0, 500), 16, salt_rows=2000)["part_id"].to_numpy()
    code = (
        "import sys; sys.path.insert(0, '/root/repo');"
        "from parquet_converter_ray.synth import make_transcripts;"
        "from parquet_converter_ray.partition import assign_part_id;"
        f"t = make_transcripts({N_TURNS}, seed=42).slice(0, 500);"
        "print(','.join(map(str, assign_part_id(t, 16, salt_rows=2000)['part_id'].to_pylist())))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    remote = np.array([int(x) for x in out.stdout.strip().split(",")])
    assert (local == remote).all()


def test_edge_cases(ray_session, tmp_path):
    """Empty dataset, single row, missing key column, giant string payloads."""
    import ray.data

    from parquet_converter_ray.codecs import decode_array, encode_array

    empty = make_transcripts(20, 1).slice(0, 0)
    s = encode_dataset(ray.data.from_arrow(empty), str(tmp_path / "e"), n_parts=2)
    assert s["rows"] == 0 and s["partitions"] == 0

    one = make_transcripts(20, 1).slice(0, 1)
    s = encode_dataset(ray.data.from_arrow(one), str(tmp_path / "o"), n_parts=2)
    assert s["rows"] == 1
    ok, msg = roundtrip_table(one, str(tmp_path / "o"))
    assert ok, msg

    with pytest.raises(ValueError, match="partition key column"):
        encode_dataset(
            ray.data.from_arrow(pa.table({"x": [1]})), str(tmp_path / "m"), n_parts=2
        )

    # a single 2.1 MB string spans many FSST slabs
    big = pa.array(["x", "ab " * 700_000, "tail"])
    assert decode_array(encode_array(big, codec="fsst")).equals(big)


def test_corruption_detected(ray_session, transcripts, tmp_path):
    """A flipped byte in a container buffer must fail the crc check."""
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=2)
    f = container_files(out)[0]
    blob = bytearray(open(f, "rb").read())
    blob[len(blob) // 3] ^= 0xFF  # corrupt a data buffer byte
    with pytest.raises(ValueError, match="crc mismatch"):
        decode_table(bytes(blob), verify_crc=True)


def test_resume_param_mismatch_fails_loudly(ray_session, transcripts, tmp_path):
    """A resume under different partitioning parameters must raise, not
    silently reassign rows while skipping 'completed' partitions."""
    import ray.data

    out = str(tmp_path / "enc")

    def bomb(part_id: int):
        if part_id >= 4:
            raise RuntimeError("injected")

    with pytest.raises(Exception):
        encode_dataset(
            ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=2000, fault_hook=bomb
        )
    with pytest.raises(ValueError, match="partitioning parameters differ"):
        encode_dataset(
            ray.data.from_arrow(transcripts), out, n_parts=16, salt_rows=2000, resume=True
        )
    with pytest.raises(ValueError, match="partitioning parameters differ"):
        encode_dataset(
            ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=999, resume=True
        )
    # resume with n_parts=None adopts the recorded value and completes
    summary = encode_dataset(
        ray.data.from_arrow(transcripts), out, salt_rows=2000, resume=True
    )
    assert summary["partitions"] == 8
    ok, msg = roundtrip_table(transcripts, out)
    assert ok, msg


def test_fresh_encode_cleans_stale_outputs(ray_session, transcripts, tmp_path):
    """Re-encoding a smaller dataset into a reused out_dir must not leave
    stale containers that decode would silently mix in."""
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=8, salt_rows=2000)
    assert len(container_files(out)) == 8
    small = transcripts.slice(0, 2000)
    summary = encode_dataset(ray.data.from_arrow(small), out, n_parts=2, salt_rows=2000)
    assert summary["partitions"] == 2
    assert summary["rows"] == 2000
    assert len(container_files(out)) == 2
    assert decode_dataset(out).count() == 2000
    ok, msg = roundtrip_table(small, out)
    assert ok, msg


def test_null_partition_keys(ray_session, tmp_path):
    """Null conv_id / turn_idx rows partition deterministically (sentinel
    hash) and round-trip."""
    import ray.data

    t = pa.table(
        {
            "conv_id": pa.array(["a", None, "b", None, "a", "c"] * 200),
            "turn_idx": pa.array([0, 1, None, 3, 4, 5] * 200, type=pa.int32()),
            "text": pa.array([f"t{i}" for i in range(1200)]),
        }
    )
    out = str(tmp_path / "enc")
    summary = encode_dataset(
        ray.data.from_arrow(t), out, n_parts=4, salt_rows=100
    )
    assert summary["rows"] == 1200
    decoded = pa.concat_tables(
        list(decode_dataset(out).iter_batches(batch_format="pyarrow"))
    )
    assert decoded.num_rows == 1200
    # content equality irrespective of order (nulls break sort_by comparison keys)
    assert sorted(decoded["text"].to_pylist()) == sorted(t["text"].to_pylist())


def test_fingerprint_large_binary(ray_session):
    """dataset_fingerprint over large_binary columns (codec layer supports
    them; the hash path must too)."""
    import ray.data

    from parquet_converter_ray.decode import dataset_fingerprint

    t = pa.table(
        {
            "doc_id": pa.array(range(100), type=pa.int64()),
            "payload": pa.array([b"x" * (i % 7) for i in range(100)], type=pa.large_binary()),
        }
    )
    fp1 = dataset_fingerprint(ray.data.from_arrow(t))
    fp2 = dataset_fingerprint(ray.data.from_arrow(t))
    assert fp1 == fp2
    t2 = t.set_column(1, "payload", pa.array([b"y" * (i % 7) for i in range(100)], type=pa.large_binary()))
    fp3 = dataset_fingerprint(ray.data.from_arrow(t2))
    assert fp3 != fp1


def test_resume_without_run_record_raises(ray_session, transcripts, tmp_path):
    """Completed partitions but no _run.json (pre-run-record or corrupted
    out_dir): the original partitioning is unknowable, resume must refuse."""
    import ray.data

    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4)
    os.remove(mf.run_record_path(out))
    with pytest.raises(ValueError, match="no run record"):
        encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=4, resume=True)


def _lookup_layout(layout: str, tmp_path) -> "tuple[list[str], pa.Table]":
    """Store directories of one lookup layout and the rows they hold. The
    appended and family layouts split the rows so that conversations span
    generations / members; ``salt_rows=200`` splits the big conversations
    (the biggest has ~1600 turns) into several salt chunks."""
    import ray.data

    from parquet_converter_ray.encode import append_dataset

    t = make_transcripts(20000, seed=11)
    kw = {"hash": {"salt_rows": 0}, "range": {"salt_rows": 0, "cluster_by": "ts"}}
    kw = kw.get(layout, {"salt_rows": 200})
    if layout == "family":
        dirs = [str(tmp_path / "d0"), str(tmp_path / "d1")]
        encode_dataset(ray.data.from_arrow(t.slice(0, 10000)), dirs[0], n_parts=5, **kw)
        encode_dataset(ray.data.from_arrow(t.slice(10000)), dirs[1], n_parts=5, **kw)
        return dirs, t
    out = str(tmp_path / "enc")
    if layout == "appended":
        encode_dataset(ray.data.from_arrow(t.slice(0, 15000)), out, n_parts=5, **kw)
        append_dataset(ray.data.from_arrow(t.slice(15000)), out)
        assert any(r.get("generation", 0) for r in mf.load_records(out))
    else:
        encode_dataset(ray.data.from_arrow(t), out, n_parts=5, **kw)
    return [out], t


@pytest.mark.parametrize("layout", ["hash", "salted", "range", "appended", "family"])
def test_lookup_conversation_matches_full_decode(ray_session, tmp_path, layout):
    """Point lookup must return exactly the full-decode filter for every
    conversation — across salt chunks, appended generations and family
    members, on hash and range layouts — sorted by (conv, order), and cut
    to ``columns`` even when they omit the key columns."""
    import collections

    import pyarrow.compute as pc

    from parquet_converter_ray.decode import decode_dataset, lookup_conversation
    from parquet_converter_ray.partition import salt_chunk_parts, stable_hash_strings

    dirs, _ = _lookup_layout(layout, tmp_path)

    def lookup(cv, columns=None):
        return lookup_conversation(dirs, cv, columns=columns)

    full = pa.concat_tables(list(decode_dataset(dirs).iter_batches(batch_format="pyarrow")))
    counts = collections.Counter(full["conv_id"].to_pylist())
    order = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    probe = [max(counts, key=counts.get), min(counts, key=counts.get)]
    if layout == "salted":  # the big conversation's chunks live in several partitions
        ref = full.filter(pc.equal(full["conv_id"], probe[0]))
        chunks = pc.unique(pc.divide(ref["turn_idx"], 200)).cast(pa.uint64()).to_numpy()
        h = stable_hash_strings(pa.array([probe[0]]))
        assert len(set(salt_chunk_parts(h[:, None], chunks, 5).ravel().tolist())) >= 2
    for cv in probe:
        ref = full.filter(pc.equal(full["conv_id"], cv)).sort_by(order).combine_chunks()
        assert lookup(cv).equals(ref), cv
        # column pruning that drops both key columns keeps the (conv, order) sort
        one = lookup(cv, columns=["text", "role"])
        assert one.column_names == ["text", "role"]
        assert one.equals(ref.select(["text", "role"])), cv
    assert lookup("conv-99999999").num_rows == 0


def test_lookup_absent_key_in_empty_partition(ray_session, tmp_path):
    """A key routed to a partition that has no container (empty partitions
    write none) is absent: a typed 0-row table, from one store and from a
    family, never a missing-partition error."""
    import ray.data

    from parquet_converter_ray.decode import lookup_conversation
    from parquet_converter_ray.partition import salt_chunk_parts, stable_hash_strings

    t = pa.table({
        "conv_id": [f"c{i}" for i in range(5) for _ in range(3)],
        "turn_idx": pa.array([j for _ in range(5) for j in range(3)], pa.int32()),
        "text": [f"turn {i}" for i in range(15)],
    })
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        encode_dataset(ray.data.from_arrow(t), d, n_parts=16, salt_rows=0)
    used = {int(r["part_id"]) for r in mf.load_records(dirs[0])}
    assert len(used) < 16
    key = next(k for k in (f"absent-{i}" for i in range(1000))
               if int(salt_chunk_parts(stable_hash_strings(pa.array([k])), 0, 16)[0]) not in used)
    want = lookup_conversation(dirs[0], "c0").schema
    for got in (lookup_conversation(dirs[0], key), lookup_conversation(dirs, key)):
        assert got.num_rows == 0 and got.schema == want


def test_compact_dataset_roundtrip_and_fewer_parts(ray_session, tmp_path):
    """Compacting an over-partitioned store must shrink the container count
    and decode bit-identically to the original table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_converter_ray.decode import container_files, decode_dataset
    from parquet_converter_ray.encode import compact_dataset, encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    t = make_transcripts(8000, seed=3)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "transcripts.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=12, salt_rows=2000)
    assert len(container_files(enc)) == 12
    cmp_dir = str(tmp_path / "compacted")
    summary = compact_dataset(enc, cmp_dir)
    assert summary["rows"] == 8000
    assert len(container_files(cmp_dir)) < 12
    order = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    a = pa.concat_tables(list(decode_dataset(enc).iter_batches(batch_format="pyarrow"))).sort_by(order).combine_chunks()
    b = pa.concat_tables(list(decode_dataset(cmp_dir).iter_batches(batch_format="pyarrow"))).sort_by(order).combine_chunks()
    assert a.equals(b)


def test_append_dataset_lifecycle(ray_session, tmp_path):
    """Base encode + two appended deliveries: decode sees base+deliveries,
    base-run resume checkpoints are untouched, lookup spans generations, and
    compaction folds everything back into right-sized containers."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from parquet_converter_ray import manifest as mf
    from parquet_converter_ray.decode import (
        container_files,
        decode_dataset,
        lookup_conversation,
    )
    from parquet_converter_ray.encode import append_dataset, compact_dataset, encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    base = make_transcripts(6000, seed=21)
    d1 = make_transcripts(2000, seed=22)
    d2 = make_transcripts(1000, seed=23)
    paths = {}
    for name, t in [("base", base), ("d1", d1), ("d2", d2)]:
        p = tmp_path / name
        p.mkdir()
        pq.write_table(t, p / "transcripts.parquet")
        paths[name] = str(p)
    enc = str(tmp_path / "enc")
    encode_dataset(paths["base"], enc, n_parts=4, salt_rows=500)
    s1 = append_dataset(paths["d1"], enc)
    s2 = append_dataset(paths["d2"], enc)
    assert (s1["generation"], s2["generation"]) == (1, 2)
    assert s2["rows"] == 9000
    # base checkpoints unaffected by appended generations
    assert mf.completed_parts(enc) == {0, 1, 2, 3}
    assert len(container_files(enc)) > 4

    order = [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    expect = pa.concat_tables([base, d1, d2]).sort_by(order).combine_chunks()
    got = (
        pa.concat_tables(list(decode_dataset(enc).iter_batches(batch_format="pyarrow")))
        .select(expect.column_names)
        .sort_by(order)
        .combine_chunks()
    )
    assert got.equals(expect)

    # lookup spans base + deliveries (synth reuses low conv ids across seeds)
    cv = "conv-00000000"
    ref = expect.filter(pc.equal(expect["conv_id"], cv)).combine_chunks()
    found = lookup_conversation(enc, cv).select(expect.column_names).sort_by(order).combine_chunks()
    assert found.equals(ref)

    # compaction folds the fragmented deliveries into few containers
    cmp_dir = str(tmp_path / "compacted")
    summary = compact_dataset(enc, cmp_dir)
    assert summary["rows"] == 9000
    assert len(container_files(cmp_dir)) < len(container_files(enc))
    got2 = (
        pa.concat_tables(list(decode_dataset(cmp_dir).iter_batches(batch_format="pyarrow")))
        .select(expect.column_names)
        .sort_by(order)
        .combine_chunks()
    )
    assert got2.equals(expect)


def test_store_relocation(ray_session, tmp_path):
    """A copied/moved store (manifest records carry the ORIGINAL absolute
    paths) must decode and look up cleanly from its new location — and still
    reject files the manifest doesn't know."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_converter_ray.decode import container_files, decode_dataset, lookup_conversation
    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    t = make_transcripts(3000, seed=5)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "transcripts.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=3, salt_rows=1000)
    moved = str(tmp_path / "moved")
    shutil.copytree(enc, moved)
    # decodes from the new location even though records point at `enc`
    assert all(f.startswith(moved) for f in container_files(moved))
    got = pa.concat_tables(list(decode_dataset(moved).iter_batches(batch_format="pyarrow")))
    assert got.num_rows == 3000
    assert lookup_conversation(moved, "conv-00000000").num_rows > 0
    # FULL relocation (original deleted): completed_parts must still see every
    # part via local-first resolution, so a resume is a no-op instead of a
    # full re-encode into a dir that already holds the data
    shutil.rmtree(enc)
    from parquet_converter_ray import manifest as mf

    assert mf.completed_parts(moved) == {0, 1, 2}
    summary = encode_dataset(str(inp), moved, n_parts=3, salt_rows=1000, resume=True)
    assert summary["rows"] == 3000
    got = pa.concat_tables(list(decode_dataset(moved).iter_batches(batch_format="pyarrow")))
    assert got.num_rows == 3000
    # stray guard still fires on unknown container files
    with open(f"{moved}/part-99999.pcc", "wb") as f:
        f.write(b"junk")
    import pytest as _pytest

    with _pytest.raises(ValueError, match="not in the manifest"):
        container_files(moved)


def test_append_schema_conform(ray_session, tmp_path):
    """Deliveries with reordered or additively-missing columns conform to the
    STORE schema (typed null fill); extra columns, type changes, and a
    missing partition column raise before anything is written."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import append_dataset, encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    base = make_transcripts(3000, seed=31)
    d1 = make_transcripts(1000, seed=32)
    inp = tmp_path / "base"
    inp.mkdir()
    pq.write_table(base, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=3, salt_rows=500)

    # reordered columns + dropped 'tool' column: conforms, tool -> nulls
    reordered = d1.select(["ts", "text", "conv_id", "role", "turn_idx"])
    p1 = tmp_path / "d1"
    p1.mkdir()
    pq.write_table(reordered, p1 / "t.parquet")
    s = append_dataset(str(p1), enc)
    assert s["rows"] == 4000

    order = [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    d1_conformed = d1.set_column(
        d1.column_names.index("tool"), "tool", pa.nulls(d1.num_rows, pa.string())
    )
    expect = pa.concat_tables([base, d1_conformed]).sort_by(order).combine_chunks()
    got = (
        pa.concat_tables(list(decode_dataset(enc).iter_batches(batch_format="pyarrow")))
        .select(expect.column_names)
        .sort_by(order)
        .combine_chunks()
    )
    assert got.equals(expect)

    # extra column -> raises
    extra = d1.append_column("new_col", pa.nulls(d1.num_rows, pa.int64()))
    p2 = tmp_path / "d2"
    p2.mkdir()
    pq.write_table(extra, p2 / "t.parquet")
    with pytest.raises(ValueError, match="schema evolution is additive"):
        append_dataset(str(p2), enc)

    # type change -> raises
    retyped = d1.set_column(
        d1.column_names.index("turn_idx"),
        "turn_idx",
        d1["turn_idx"].cast(pa.int64()),
    )
    p3 = tmp_path / "d3"
    p3.mkdir()
    pq.write_table(retyped, p3 / "t.parquet")
    with pytest.raises(ValueError, match="delivery type"):
        append_dataset(str(p3), enc)

    # missing partition column -> raises
    noconv = d1.drop_columns(["conv_id"])
    p4 = tmp_path / "d4"
    p4.mkdir()
    pq.write_table(noconv, p4 / "t.parquet")
    with pytest.raises(ValueError, match="partition/order column"):
        append_dataset(str(p4), enc)


def test_append_skip_existing_idempotent(ray_session, tmp_path):
    """skip_existing=True makes deliveries idempotent at row granularity:
    a full re-delivery appends nothing, an overlapping delivery appends only
    its new rows, and decode equals the deduplicated union."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_converter_ray.decode import container_files, decode_dataset
    from parquet_converter_ray.encode import append_dataset, encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    base = make_transcripts(4000, seed=41)
    # conv_offset: synth reuses low conv ids across seeds; offset makes these
    # conversations genuinely new to the store
    fresh = make_transcripts(1500, seed=43, conv_offset=10_000_000)
    inp = tmp_path / "base"
    inp.mkdir()
    pq.write_table(base, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=4, salt_rows=500)
    n_base_files = len(container_files(enc))

    # exact re-delivery: nothing appended, no container written
    p1 = tmp_path / "retry"
    p1.mkdir()
    pq.write_table(base, p1 / "t.parquet")
    s = append_dataset(str(p1), enc, skip_existing=True)
    assert s["rows_appended"] == 0
    assert s["rows"] == 4000
    assert len(container_files(enc)) == n_base_files

    # overlapping delivery: half retry + genuinely new rows
    overlap = pa.concat_tables([base.slice(0, 2000), fresh])
    p2 = tmp_path / "overlap"
    p2.mkdir()
    pq.write_table(overlap, p2 / "t.parquet")
    s2 = append_dataset(str(p2), enc, skip_existing=True)
    assert s2["rows_appended"] == fresh.num_rows
    assert s2["rows"] == 4000 + fresh.num_rows

    order = [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    expect = pa.concat_tables([base, fresh]).sort_by(order).combine_chunks()
    got = (
        pa.concat_tables(list(decode_dataset(enc).iter_batches(batch_format="pyarrow")))
        .select(expect.column_names)
        .sort_by(order)
        .combine_chunks()
    )
    assert got.equals(expect)

    # a second identical overlapping delivery is a no-op
    s3 = append_dataset(str(p2), enc, skip_existing=True)
    assert s3["rows_appended"] == 0


def test_compact_schema_evolution(ray_session, tmp_path):
    """Compaction is the schema-evolution point: drop a retired column, add a
    typed-null column and a constant-backfill column in one rewrite; the
    evolved store decodes with the new schema, data columns bit-identical,
    and appends now conform to the EVOLVED schema. Partition/order columns
    refuse to be dropped."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import pytest

    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import append_dataset, compact_dataset, encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    t = make_transcripts(3000, seed=41)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=3, salt_rows=1000)

    evolved = str(tmp_path / "evolved")
    compact_dataset(
        enc,
        evolved,
        drop_columns=["tool"],
        add_columns={"lang": pa.string(), "source": (pa.string(), "legacy-v1")},
    )
    got = pa.concat_tables(list(decode_dataset(evolved).iter_batches(batch_format="pyarrow")))
    assert set(got.schema.names) == {"conv_id", "turn_idx", "role", "text", "ts", "lang", "source"}
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    want = t.drop_columns(["tool"]).sort_by(key).combine_chunks()
    assert got.sort_by(key).select(want.column_names).combine_chunks().equals(want)
    assert got["lang"].null_count == got.num_rows
    assert pc.all(pc.equal(got["source"], "legacy-v1")).as_py()

    # appends now conform to the EVOLVED schema (old-shape deliveries gain
    # typed-null lang/source and lose nothing they still carry)
    d = make_transcripts(500, seed=42).drop_columns(["tool"])
    pq.write_table(d, tmp_path / "d.parquet")
    append_dataset(str(tmp_path / "d.parquet"), evolved)
    got2 = pa.concat_tables(list(decode_dataset(evolved).iter_batches(batch_format="pyarrow")))
    assert got2.num_rows == 3500

    with pytest.raises(ValueError, match="partition/order"):
        compact_dataset(enc, str(tmp_path / "bad"), drop_columns=["conv_id"])
    with pytest.raises(ValueError, match="shadow"):
        compact_dataset(enc, str(tmp_path / "bad2"), add_columns={"role": pa.string()})


def test_snapshot_read_by_generation(ray_session, tmp_path):
    """max_generation selects the store as it stood before later appended
    deliveries: g=0 sees only the base encode, g=1 the base plus the first
    delivery; the default sees everything."""
    import pyarrow.compute as pc
    import ray.data

    from parquet_converter_ray.encode import append_dataset

    base = make_transcripts(3000, seed=61)
    d1 = make_transcripts(800, seed=62)
    d2 = make_transcripts(600, seed=63)
    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(base), out, n_parts=3, salt_rows=1000)
    inp = tmp_path / "d"
    inp.mkdir()
    pq.write_table(d1, inp / "d1.parquet")
    append_dataset(str(inp / "d1.parquet"), out)
    pq.write_table(d2, inp / "d2.parquet")
    append_dataset(str(inp / "d2.parquet"), out)

    key = [(c, "ascending") for c in ("conv_id", "turn_idx", "role", "text", "tool", "ts")]

    def snap(g):
        t = pa.concat_tables(
            list(decode_dataset(out, max_generation=g).iter_batches(batch_format="pyarrow"))
        )
        return t.sort_by(key).combine_chunks()

    assert snap(0).equals(base.sort_by(key).combine_chunks())
    assert snap(1).equals(pa.concat_tables([base, d1]).sort_by(key).combine_chunks())
    assert snap(None).num_rows == 4400
    assert snap(99).num_rows == 4400
