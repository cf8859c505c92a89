"""delete_conversations: partition-pruned in-place retention deletes.

Covers the happy path (base + appended generations, salted multi-chunk
conversations), idempotence, and both crash windows of the rewrite contract
(_rewrite_partition docstring) for each of its three callers
(delete_conversations, delete_rows, upsert_dataset): gen records gone / base
not yet rewritten, and base rewritten / gen file not yet removed.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from parquet_converter_ray import manifest as mf
from parquet_converter_ray.decode import (
    container_files,
    decode_dataset,
    lookup_conversation,
)
from parquet_converter_ray.encode import (
    append_dataset,
    delete_conversations,
    delete_rows,
    encode_dataset,
    upsert_dataset,
)
from parquet_converter_ray.fsck import fsck_store
from parquet_converter_ray.synth import make_transcripts

import ray

SF_DIR = "/root/testdata/sf0.001"

SORT = [(c, "ascending") for c in ("conv_id", "turn_idx", "role", "text", "tool", "ts")]


def _decode_all(enc: str) -> pa.Table:
    return pa.concat_tables(
        list(decode_dataset(enc).iter_batches(batch_format="pyarrow"))
    )


def _eq(got: pa.Table, want: pa.Table) -> bool:
    return (
        got.sort_by(SORT).select(want.column_names).combine_chunks()
        .equals(want.sort_by(SORT).combine_chunks())
    )


def _mk_store(tmp_path, n=5000, seed=11, salt_rows=300, append_n=1500, append_seed=12):
    t = make_transcripts(n, seed=seed)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=4, salt_rows=salt_rows)
    d2 = make_transcripts(append_n, seed=append_seed)
    pq.write_table(d2, tmp_path / "d2.parquet")
    append_dataset(str(tmp_path / "d2.parquet"), enc)
    return enc, pa.concat_tables([t, d2])


def _minus(tbl: pa.Table, convs: list[str]) -> pa.Table:
    return tbl.filter(pc.invert(pc.is_in(tbl["conv_id"], value_set=pa.array(convs))))


def test_delete_conversations(ray_session, tmp_path):
    enc, expect_all = _mk_store(tmp_path)
    convs = sorted(set(expect_all["conv_id"].to_pylist()))
    victims = [convs[0], convs[3], "conv-zzzz-missing"]
    n_victim_rows = expect_all.num_rows - _minus(expect_all, victims).num_rows

    s = delete_conversations(enc, victims)
    assert s["convs_requested"] == 3 and s["convs_found"] == 2
    assert s["rows_deleted"] == n_victim_rows
    assert _eq(_decode_all(enc), _minus(expect_all, victims))
    assert lookup_conversation(enc, victims[0]).num_rows == 0
    assert fsck_store(enc)["ok"]
    # untouched partitions keep their appended generation containers
    assert s["parts_rewritten"] < 4

    # idempotent: re-running the same delete finds nothing, rewrites nothing
    s2 = delete_conversations(enc, victims)
    assert s2["convs_found"] == 0 and s2["rows_deleted"] == 0 and s2["parts_rewritten"] == 0
    assert _eq(_decode_all(enc), _minus(expect_all, victims))


def _victim_pid(enc: str, victim: str) -> int:
    """The partition of ``victim``'s salt chunk 0 (its first turns)."""
    from parquet_converter_ray.partition import salt_chunk_parts, stable_hash_strings

    h = stable_hash_strings(pa.array([victim]))[0]
    return int(salt_chunk_parts(h, 0, int(mf.load_run_record(enc)["n_parts"])))


def _rewrite(op: str, enc: str, victim: str, expect_all: pa.Table):
    """Run one of the three in-place rewrites on ``victim``'s partition:
    delete the victim conversation (by key or by predicate), or upsert new
    text into the victim's first turn. Returns the summary and the table
    the store must then hold."""
    if op == "delete_conversations":
        return delete_conversations(enc, [victim]), _minus(expect_all, [victim])
    if op == "delete_rows":
        return delete_rows(enc, [("conv_id", "==", victim)]), _minus(expect_all, [victim])
    rows = expect_all.filter(pc.equal(expect_all["conv_id"], victim)).sort_by("turn_idx")
    row = rows.slice(0, 1)
    row = row.set_column(row.schema.get_field_index("text"), "text",
                         pa.array(["rewritten"], row.schema.field("text").type))
    same = pc.and_(pc.equal(expect_all["conv_id"], victim),
                   pc.equal(expect_all["turn_idx"], row["turn_idx"][0]))
    want = pa.concat_tables([expect_all.filter(pc.invert(same)), row])
    return upsert_dataset(ray.data.from_arrow(row), enc), want


REWRITES = ["delete_conversations", "delete_rows", "upsert_dataset"]


@pytest.mark.parametrize("op", REWRITES)
def test_delete_recovers_crash_before_base_rewrite(ray_session, tmp_path, op):
    """Post-step-2 state: generation record removed, base NOT yet rewritten,
    generation container still on disk. The store is loudly invalid; a re-run
    must keep the generation's rows and finish the rewrite. The deletes
    sweep the orphan wherever it is; an upsert rewrites only the partition
    its row lands in, so there the orphan is in the victim's partition."""
    enc, expect_all = _mk_store(tmp_path)
    victim = sorted(set(expect_all["conv_id"].to_pylist()))[0]

    gen_recs = [r for r in mf.load_records(enc) if r.get("generation", 0)]
    if op == "upsert_dataset":
        pid = _victim_pid(enc, victim)
        gen_recs = [r for r in gen_recs if int(r["part_id"]) == pid]
        if not gen_recs:
            pytest.skip("victim partition has no appended generation")
    os.remove(mf.record_path(enc, int(gen_recs[0]["part_id"]), int(gen_recs[0]["generation"])))
    with pytest.raises(ValueError, match="not in the manifest"):
        container_files(enc)

    s, want = _rewrite(op, enc, victim, expect_all)
    assert _eq(_decode_all(enc), want)
    assert fsck_store(enc)["ok"]
    # the orphaned partition was swept into the rewrite even when no victim
    # row lives there
    assert int(gen_recs[0]["part_id"]) in range(4)
    assert s["parts_rewritten"] >= 1


@pytest.mark.parametrize("op", REWRITES)
def test_delete_recovers_crash_after_base_rewrite(ray_session, tmp_path, op):
    """Post-step-3 state: new base written (victims gone, generation folded
    in), generation container file left behind with no record. A re-run must
    fold the duplicate rows instead of resurrecting them."""
    enc, expect_all = _mk_store(tmp_path)
    victim = sorted(set(expect_all["conv_id"].to_pylist()))[0]

    # snapshot a generation container of a partition the rewrite WILL touch
    pid = _victim_pid(enc, victim)
    gen_paths = [
        r["path"] for r in mf.load_records(enc)
        if int(r["part_id"]) == pid and r.get("generation", 0)
    ]
    if not gen_paths:  # that partition got no appended rows: nothing to test
        pytest.skip("victim partition has no appended generation")
    backup = str(tmp_path / os.path.basename(gen_paths[0]))
    shutil.copy(gen_paths[0], backup)

    _, want = _rewrite(op, enc, victim, expect_all)
    assert _eq(_decode_all(enc), want)

    # resurrect the generation file record-less (= crash between steps 3 and 4)
    shutil.copy(backup, gen_paths[0])
    with pytest.raises(ValueError, match="not in the manifest"):
        container_files(enc)

    # victims already gone (or the row already upserted): the re-run only
    # folds the orphan
    s, _ = _rewrite(op, enc, victim, want)
    assert s.get("convs_found", 0) == 0 and s.get("rows_deleted", 0) == 0
    assert s["parts_rewritten"] >= 1
    assert _eq(_decode_all(enc), want)
    assert fsck_store(enc)["ok"]


def test_failed_delete_drains_before_raising(ray_session, tmp_path):
    """One touched partition's generation container is truncated: the
    delete raises, and only after every other partition's rewrite has
    finished — nothing in the store changes after the raise."""
    import time
    import zlib

    enc, _ = _mk_store(tmp_path)
    gen = next(r for r in mf.load_records(enc) if r.get("generation", 0))
    with open(gen["path"], "r+b") as f:
        f.truncate(os.path.getsize(gen["path"]) // 2)

    def state() -> set:
        return {(p, zlib.crc32(open(p, "rb").read()))
                for p in sorted(os.path.join(enc, n) for n in os.listdir(enc))
                if p.endswith(".pcc")}

    with pytest.raises(ValueError, match="bad container magic"):
        delete_rows(enc, [("turn_idx", ">=", 1)])
    after = state()
    time.sleep(3)
    assert state() == after


def test_delete_unsalted_int_keys(ray_session, tmp_path):
    """Unsalted store with an integer conversation column: hash dispatch and
    single-partition-per-conv escalation."""
    t = make_transcripts(3000, seed=21)
    conv_int = pc.cast(pc.utf8_slice_codeunits(t["conv_id"], 5, 99), pa.int64())
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id", conv_int)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=3, salt_rows=0)

    victims = sorted(set(t["conv_id"].to_pylist()))[:2]
    s = delete_conversations(enc, victims)
    keep = t.filter(pc.invert(pc.is_in(t["conv_id"], value_set=pa.array(victims))))
    assert s["rows_deleted"] == t.num_rows - keep.num_rows
    assert _eq(_decode_all(enc), keep)

def test_delete_recovers_crash_mid_step3(ray_session, tmp_path):
    """Crash between the atomic base-container rename and the record write:
    base container NEW (victims gone, generation folded), base record OLD
    (crc mismatch), generation file record-less. Recovery must recognise the
    container as the newer truth and NOT resurrect the folded rows."""
    import json

    enc, expect_all = _mk_store(tmp_path)
    victims = [sorted(set(expect_all["conv_id"].to_pylist()))[0]]

    from parquet_converter_ray.partition import salt_chunk_parts, stable_hash_strings

    params = mf.load_run_record(enc)
    h = stable_hash_strings(pa.array(victims))[0]
    pid = int(salt_chunk_parts(h, 0, int(params["n_parts"])))
    recs = [r for r in mf.load_records(enc) if int(r["part_id"]) == pid]
    gen_paths = [r["path"] for r in recs if r.get("generation", 0)]
    if not gen_paths:
        pytest.skip("victim partition has no appended generation")
    base_rec_file = mf.record_path(enc, pid, 0)
    old_rec = open(base_rec_file).read()
    gen_backup = str(tmp_path / os.path.basename(gen_paths[0]))
    shutil.copy(gen_paths[0], gen_backup)

    delete_conversations(enc, victims)
    want = _minus(expect_all, victims)
    assert _eq(_decode_all(enc), want)

    # reconstruct the mid-step-3 state
    with open(base_rec_file, "w") as f:
        f.write(old_rec)
    shutil.copy(gen_backup, gen_paths[0])
    with pytest.raises(ValueError, match="not in the manifest"):
        container_files(enc)

    s = delete_conversations(enc, victims)
    assert s["parts_rewritten"] >= 1
    assert _eq(_decode_all(enc), want)
    assert fsck_store(enc)["ok"]


def test_repair_store_finishes_interrupted_delete(ray_session, tmp_path):
    """repair_store (fsck --repair) must finish a crashed delete WITHOUT
    being given the victim list: the orphan sweep + content-addressed folded
    map decide everything; a healthy store is a no-op."""
    from parquet_converter_ray.encode import repair_store

    enc, expect_all = _mk_store(tmp_path)
    victims = [sorted(set(expect_all["conv_id"].to_pylist()))[0]]

    from parquet_converter_ray.partition import salt_chunk_parts, stable_hash_strings

    params = mf.load_run_record(enc)
    h = stable_hash_strings(pa.array(victims))[0]
    pid = int(salt_chunk_parts(h, 0, int(params["n_parts"])))
    gen_paths = [
        r["path"] for r in mf.load_records(enc)
        if int(r["part_id"]) == pid and r.get("generation", 0)
    ]
    if not gen_paths:
        pytest.skip("victim partition has no appended generation")
    backup = str(tmp_path / os.path.basename(gen_paths[0]))
    shutil.copy(gen_paths[0], backup)

    delete_conversations(enc, victims)
    want = _minus(expect_all, victims)

    # healthy store: repair is a no-op
    s0 = repair_store(enc)
    assert s0["parts_rewritten"] == 0

    # crash state between steps 3 and 4: record-less generation file back
    shutil.copy(backup, gen_paths[0])
    assert not fsck_store(enc)["ok"]

    s = repair_store(enc)
    assert s["parts_rewritten"] >= 1 and s["convs_requested"] == 0
    assert fsck_store(enc)["ok"]
    assert _eq(_decode_all(enc), want)


def test_delete_and_lookup_sparse_turn_ranges(ray_session, tmp_path):
    """Non-dense turn indices (an append of turns 300.. after 0..99 with
    salt_rows=300 lands in salt chunk 1): the chunk walk must be bounded by
    the order column's zone-map max, not stop at the first partial chunk —
    a stop-at-partial walk silently under-deletes AND under-returns."""
    t = make_transcripts(5000, seed=11)
    lens = pc.value_counts(t["conv_id"])
    victim = next(
        v["values"] for v in lens.to_pylist() if 5 <= v["counts"] <= 100
    )
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=4, salt_rows=300)

    base_rows = t.filter(pc.equal(t["conv_id"], victim))
    ti = base_rows.schema.get_field_index("turn_idx")
    sparse = base_rows.slice(0, min(20, base_rows.num_rows))
    import numpy as np
    sparse = sparse.set_column(
        ti, "turn_idx",
        pa.array(np.arange(300, 300 + sparse.num_rows, dtype=np.int32)),
    )
    pq.write_table(sparse, tmp_path / "sparse.parquet")
    append_dataset(str(tmp_path / "sparse.parquet"), enc)

    # lookup must see BOTH chunks (chunk 0 is partial but not the last)
    got = lookup_conversation(enc, victim)
    assert got.num_rows == base_rows.num_rows + sparse.num_rows

    s = delete_conversations(enc, [victim])
    assert s["convs_found"] == 1
    assert s["rows_deleted"] == base_rows.num_rows + sparse.num_rows
    dec = _decode_all(enc)
    assert dec.filter(pc.equal(dec["conv_id"], victim)).num_rows == 0
    assert fsck_store(enc)["ok"]


def test_repair_generation_only_partition(ray_session, tmp_path):
    """A partition with NO base rows (base encode emitted nothing for that
    pid) whose sole generation RECORD a crashed delete removed in step 2:
    nothing could have folded the leftover, so repair keeps every row
    instead of refusing."""
    from parquet_converter_ray.encode import repair_store

    t = make_transcripts(400, seed=31)
    one_conv = t.filter(pc.equal(t["conv_id"], t["conv_id"][0]))
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(one_conv, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    # one short conv + many partitions -> most pids have no base container
    encode_dataset(str(inp), enc, n_parts=8, salt_rows=0)

    others = t.filter(pc.invert(pc.equal(t["conv_id"], t["conv_id"][0])))
    pq.write_table(others, tmp_path / "d2.parquet")
    append_dataset(str(tmp_path / "d2.parquet"), enc)

    gen_only = [
        r for r in mf.load_records(enc)
        if int(r.get("generation", 0))
        and not os.path.exists(os.path.join(enc, f"part-{int(r['part_id']):05d}.pcc"))
    ]
    if not gen_only:
        pytest.skip("no generation-only partition in this layout")
    rec = gen_only[0]
    os.remove(mf.record_path(enc, int(rec["part_id"]), int(rec["generation"])))
    assert not fsck_store(enc)["ok"]

    s = repair_store(enc)
    assert s["parts_rewritten"] >= 1
    assert fsck_store(enc)["ok"]
    assert _eq(_decode_all(enc), pa.concat_tables([one_conv, others]))


def test_snapshot_refused_below_rewrite_watermark(ray_session, tmp_path):
    """decode(max_generation=g) below the delete's fold watermark would mix
    partition states that never coexisted -> must raise, not mislead."""
    enc, expect_all = _mk_store(tmp_path)
    # pre-delete: the g=0 snapshot is valid
    snap0 = pa.concat_tables(
        list(decode_dataset(enc, max_generation=0).iter_batches(batch_format="pyarrow"))
    )
    assert snap0.num_rows == 5000

    victims = [sorted(set(expect_all["conv_id"].to_pylist()))[0]]
    delete_conversations(enc, victims)
    wm = int((mf.load_run_record(enc) or {}).get("snapshot_watermark") or 0)
    if wm == 0:
        pytest.skip("delete touched no appended partition in this layout")
    with pytest.raises(ValueError, match="snapshot"):
        decode_dataset(enc, max_generation=0).count()
    # the full (current) read is unaffected
    assert _eq(_decode_all(enc), _minus(expect_all, victims))


def test_delete_binary_conv_keys(ray_session, tmp_path):
    """bytes conversation keys must hash like the encoded binary column —
    str(b'x') hashes the repr and silently finds nothing."""
    t = make_transcripts(3000, seed=41)
    ci = t.schema.get_field_index("conv_id")
    t = t.set_column(ci, "conv_id", t["conv_id"].cast(pa.binary()))
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=4, salt_rows=300)

    victim = t["conv_id"][0].as_py()
    assert isinstance(victim, bytes)
    n_victim = t.filter(pc.equal(t["conv_id"], victim)).num_rows
    s = delete_conversations(enc, [victim])
    assert s["convs_found"] == 1 and s["rows_deleted"] == n_victim
    dec = _decode_all(enc)
    assert dec.filter(pc.equal(dec["conv_id"], victim)).num_rows == 0


def test_delete_mixed_key_types_raises(ray_session, tmp_path):
    enc, _ = _mk_store(tmp_path, n=1000, append_n=200)
    with pytest.raises(TypeError, match="uniformly"):
        delete_conversations(enc, ["conv-a", 7])


def test_delete_rows_routes_key_predicate(ray_session, tmp_path):
    """``delete_rows`` on ``conv_id == v`` over a hash store routes like a
    scan: only v's partition is rewritten, and the plan counts every other
    container as ``pruned_hash`` (zone maps and probes cannot prune a
    high-cardinality key that every hash partition spans)."""
    t = make_transcripts(6000, seed=11)
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=8, salt_rows=0)
    victim = t["conv_id"][0].as_py()
    pid = _victim_pid(enc, victim)
    n_other = sum(int(r["part_id"]) != pid for r in mf.load_records(enc))

    s = delete_rows(enc, [("conv_id", "==", victim)])
    assert s["parts_rewritten"] == 1
    assert s["plan"]["pruned_hash"] == n_other > 0
    assert set(s["plan"]) == {"parts_total", "pruned_hash", "pruned_stats",
                              "pruned_dict", "pruned_bloom"}
    assert s["rows_deleted"] == t.num_rows - _minus(t, [victim]).num_rows
    assert _eq(_decode_all(enc), _minus(t, [victim]))
    assert fsck_store(enc)["ok"]


@pytest.mark.parametrize("key_type", ["int", "str"])
def test_key_predicate_casts_to_key_type(ray_session, tmp_path, key_type):
    """A key value of the other type — str '123' on an int key (what a CLI
    ``--where "conv_id == '123'"`` gives), int 123 on a digit-string key —
    is cast to the key column's type before it is routed, as the exact
    filter casts it: scan, lookup and ``delete_rows`` find the key's rows in
    its own partition instead of routing to another one and matching
    nothing, and the dictionary probe casts it too."""
    from parquet_converter_ray.zonemap import scan_store

    t = make_transcripts(3000, seed=13)
    ids = pc.add(t["conv_id"].combine_chunks().dictionary_encode().indices.cast(pa.int64()), 100)
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     ids if key_type == "int" else ids.cast(pa.string()))
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t, inp / "t.parquet")
    enc = str(tmp_path / "enc")
    encode_dataset(str(inp), enc, n_parts=8, salt_rows=0)
    # short conversations: their partitions hold many keys, so the key
    # column is dict-encoded there and the footer probe sees the cast
    # literals too
    counts = sorted((c["counts"], c["values"]) for c in t["conv_id"].value_counts().to_pylist())
    victims = [v for _, v in counts[:5]]
    values = [str(v) if key_type == "int" else int(v) for v in victims]
    n = {v: n for n, v in counts}

    assert lookup_conversation(enc, values[0]).num_rows == n[victims[0]]
    ds, plan = scan_store(enc, [("conv_id", "in", values)], return_plan=True)
    assert ds.count() == sum(n[v] for v in victims) and plan["pruned_hash"] > 0

    s = delete_rows(enc, [("conv_id", "==", values[0])])
    assert s["rows_deleted"] == n[victims[0]] and s["parts_rewritten"] == 1
    assert s["plan"]["pruned_hash"] > 0
    s = delete_rows(enc, [("conv_id", "in", values[1:])])
    assert s["rows_deleted"] == sum(n[v] for v in victims[1:])
    dec = _decode_all(enc)
    assert dec.num_rows == t.num_rows - sum(n[v] for v in victims)
    assert dec.filter(pc.is_in(dec["conv_id"], value_set=pa.array(victims))).num_rows == 0


# --- predicate row delete (retention / TTL) -------------------------------------------


class TestDeleteRows:
    def _lineitem_range_store(self, tmp_path, n_parts=16):
        out = str(tmp_path / "ttl_store")
        encode_dataset(
            f"{SF_DIR}/lineitem.parquet", out, n_parts=n_parts,
            conv_col="l_orderkey", order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
            cluster_by="l_shipdate",
        )
        return out

    def test_ttl_prunes_and_matches_duckdb(self, ray_session, tmp_path):
        import duckdb

        from parquet_converter_ray.encode import delete_rows
        from parquet_converter_ray.fsck import fsck_store

        out = self._lineitem_range_store(tmp_path)
        res = delete_rows(out, [("l_shipdate", "<", "1996-01-01")])
        exp_deleted = duckdb.sql(
            f"""SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'
                WHERE l_shipdate < TIMESTAMP '1996-01-01'"""
        ).fetchone()[0]
        assert res["rows_deleted"] == exp_deleted > 0
        # zone maps prove most containers hold no pre-1996 row
        assert res["plan"]["pruned_stats"] > 0
        assert res["parts_rewritten"] < res["plan"]["parts_total"]
        got = decode_dataset(out).count()
        exp = duckdb.sql(
            f"""SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'"""
        ).fetchone()[0]
        assert got == exp
        assert fsck_store(out)["ok"]

    def test_delete_rows_null_rows_survive(self, ray_session, tmp_path):
        from parquet_converter_ray.encode import delete_rows

        t = pa.table(
            {
                "conv_id": pa.array([f"c{i}" for i in range(100)]),
                "turn_idx": pa.array(list(range(100)), pa.int64()),
                "score": pa.array(
                    [None if i % 10 == 0 else float(i) for i in range(100)]
                ),
            }
        )
        out = str(tmp_path / "nullstore")
        encode_dataset(ray.data.from_arrow(t), out, n_parts=4,
                       conv_col="conv_id", order_col="turn_idx",
                       sort_key=("conv_id", "turn_idx"), salt_rows=0)
        res = delete_rows(out, [("score", ">=", 0.0)])
        # SQL semantics: NULL >= 0.0 is not TRUE, so the 10 null rows stay
        assert res["rows_deleted"] == 90
        left = pa.concat_tables(
            list(decode_dataset(out).iter_batches(batch_format="pyarrow"))
        )
        assert left.num_rows == 10
        assert left["score"].null_count == 10

    def test_delete_rows_folds_generations(self, ray_session, tmp_path):
        import glob as _glob

        from parquet_converter_ray.encode import append_dataset, delete_rows

        out = self._lineitem_range_store(tmp_path, n_parts=4)
        extra = pa.table(
            {
                "l_orderkey": pa.array([10_000_001], pa.int64()),
                "l_linenumber": pa.array([1], pa.int32()),
            }
        )
        # append rows that land INSIDE the to-be-deleted ship-date band, so
        # the touched partitions hold generation containers to fold
        import pyarrow.parquet as pq

        src = pq.read_table(f"{SF_DIR}/lineitem.parquet")
        early = src.filter(
            pc.less(src["l_shipdate"], pa.scalar("1996-01-01").cast(src["l_shipdate"].type))
        ).slice(0, 5)
        assert early.num_rows == 5
        append_dataset(ray.data.from_arrow(early), out)
        assert _glob.glob(os.path.join(out, "part-*-g*.pcc"))
        before = decode_dataset(out).count()
        res = delete_rows(out, [("l_shipdate", "<", "1996-01-01")])
        assert res["rows_deleted"] > 0
        assert decode_dataset(out).count() == before - res["rows_deleted"]
        # touched partitions folded their generations into fresh bases
        from parquet_converter_ray import manifest as mf

        prior = mf.load_run_record(out)
        assert int(prior.get("snapshot_watermark") or 0) >= 1

    def test_delete_rows_refuses_empty_predicate(self, ray_session, tmp_path):
        from parquet_converter_ray.encode import delete_rows

        out = self._lineitem_range_store(tmp_path, n_parts=4)
        with pytest.raises(ValueError, match="non-empty predicate"):
            delete_rows(out, [])

    def test_cli_delete_where(self, ray_session, tmp_path, capsys):
        import json

        from parquet_converter_ray.cli import main

        out = self._lineitem_range_store(tmp_path, n_parts=4)
        rc = main(["delete", out, "--where", "l_quantity <= 2"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        import duckdb

        exp = duckdb.sql(
            f"SELECT count(*) FROM '{SF_DIR}/lineitem.parquet' WHERE l_quantity <= 2"
        ).fetchone()[0]
        assert rep["rows_deleted"] == exp
        rc = main(["delete", out, "k1", "--where", "l_quantity <= 3"])
        assert rc == 2  # keys and --where together refused
