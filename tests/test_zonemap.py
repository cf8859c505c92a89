"""Zone maps, predicate-pushdown store scans, metadata-only profile, fsck."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray import manifest as mf
from parquet_converter_ray.encode import append_dataset, encode_dataset
from parquet_converter_ray.fsck import fsck_store
from parquet_converter_ray.synth import make_transcripts
from parquet_converter_ray.zonemap import (
    _trunc_max,
    _trunc_min,
    STR_BOUND_LEN,
    apply_predicate,
    column_stats,
    record_may_match,
    scan_store,
    store_profile,
)

N = 12_000


@pytest.fixture(scope="module")
def transcripts():
    return make_transcripts(N, seed=11)


@pytest.fixture(scope="module")
def store(ray_session, transcripts, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("zm") / "store")
    encode_dataset(ray.data.from_arrow(transcripts), out, n_parts=6)
    return out


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({})
    return pa.concat_tables(batches)


# --- unit: bounds -------------------------------------------------------------


def test_string_bound_truncation_conservative():
    long = "x" * 100 + "tail"
    lo, lo_ap = _trunc_min(long)
    hi, hi_ap = _trunc_max(long)
    assert lo_ap and hi_ap and len(lo) == STR_BOUND_LEN
    assert lo <= long <= hi  # bounds bracket the value
    short = "abc"
    assert _trunc_min(short) == ("abc", False) and _trunc_max(short) == ("abc", False)
    # increment skips the surrogate gap
    s = "a" * (STR_BOUND_LEN - 1) + "퟿" + "zzz"
    hi2, _ = _trunc_max(s)
    assert hi2 >= s and "\ud800" not in hi2
    # degenerate all-max prefix -> unbounded max
    assert _trunc_max(chr(0x10FFFF) * (STR_BOUND_LEN + 1)) == (None, True)


def test_column_stats_types_and_nulls():
    tbl = pa.table(
        {
            "i": pa.array([3, None, 7, -2], type=pa.int64()),
            "f": pa.array([1.5, float("nan"), None, -0.5]),
            "b": pa.array([True, False, None, True]),
            "ts": pa.array([1_000, 2_000, 1_500, None], type=pa.timestamp("us")),
            "s": pa.array(["b", "a", None, "c"]),
            "payload": pa.array([b"x", b"y", b"z", None], type=pa.binary()),
        }
    )
    st = column_stats(tbl, {"s": "dict", "payload": "plain"})
    assert st["i"] == {"nulls": 1, "t": "int64", "min": -2, "max": 7, "sum": 8}
    assert st["f"]["min"] == -0.5 and st["f"]["max"] == 1.5  # NaN ignored
    assert st["f"]["nan"] == 1 and "sum" not in st["f"]  # NaN poisons the sum
    assert st["b"]["min"] == 0 and st["b"]["max"] == 1
    assert st["ts"]["min"] == 1_000 and st["ts"]["max"] == 2_000
    assert st["s"]["min"] == "a" and st["s"]["max"] == "c"
    assert st["payload"]["min"] is None and st["payload"]["nulls"] == 1
    # all-null and all-NaN columns -> no bounds
    st2 = column_stats(pa.table({"x": pa.array([None, None], type=pa.float64())}))
    assert st2["x"]["min"] is None and st2["x"]["nulls"] == 2


def test_record_may_match_semantics():
    st = {"v": {"min": 10, "max": 20, "nulls": 0, "t": "int64"}}
    ok = lambda op, val: record_may_match(st, 100, [("v", op, val)])
    assert ok("==", 10) and ok("==", 20) and not ok("==", 9) and not ok("==", 21)
    assert not ok("<", 10) and ok("<", 11)
    assert ok("<=", 10) and not ok("<=", 9)
    assert not ok(">", 20) and ok(">", 19)
    assert ok(">=", 20) and not ok(">=", 21)
    assert ok("in", [1, 15]) and not ok("in", [1, 2])
    assert ok("between", (0, 10)) and not ok("between", (21, 30)) and not ok("between", (5, 9))
    # all-null column never matches a comparison
    st_null = {"v": {"min": None, "max": None, "nulls": 100, "t": "int64"}}
    assert not record_may_match(st_null, 100, [("v", "==", 1)])
    # != prunes only single-valued non-null exact columns
    st_const = {"v": {"min": 5, "max": 5, "nulls": 0, "t": "int64"}}
    assert not record_may_match(st_const, 100, [("v", "!=", 5)])
    assert record_may_match(st_const, 100, [("v", "!=", 6)])
    # unknown column / missing stats -> cannot prune
    assert record_may_match({}, 100, [("w", "==", 1)])
    # truncated string bounds stay conservative (max=None means unbounded)
    st_s = {"s": {"min": "abc", "max": None, "nulls": 0, "t": "string", "approx": True}}
    assert record_may_match(st_s, 100, [("s", "==", "zzz")])
    assert not record_may_match(st_s, 100, [("s", "<", "abc")])


def test_apply_predicate_null_semantics():
    t = pa.table({"v": pa.array([1, None, 5]), "s": pa.array(["a", "b", None])})
    out = apply_predicate(t, [("v", ">", 0)])
    assert out["v"].to_pylist() == [1, 5]  # null never matches
    out2 = apply_predicate(t, [("v", ">", 0), ("s", "==", "a")])
    assert out2["v"].to_pylist() == [1]
    out3 = apply_predicate(t, [("s", "!=", "a")])
    assert out3["s"].to_pylist() == ["b"]


# --- integration: scan correctness + pruning -----------------------------------


def test_scan_equals_full_filter(store, transcripts):
    cid = transcripts["conv_id"][33].as_py()
    expect = transcripts.filter(pc.equal(transcripts["conv_id"], cid))
    got = _collect(scan_store(store, [("conv_id", "==", cid)]))
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert got.select(expect.column_names).sort_by(key).equals(
        expect.sort_by(key).combine_chunks()
    )


def test_scan_range_prunes_and_matches(store, transcripts):
    cut = int(pc.quantile(transcripts["turn_idx"], q=0.95)[0].as_py())
    ds, plan = scan_store(
        store, [("turn_idx", ">", cut)], columns=["conv_id", "turn_idx"], return_plan=True
    )
    got = _collect(ds)
    exp = transcripts.filter(pc.greater(transcripts["turn_idx"], cut))
    assert got.num_rows == exp.num_rows
    assert got.schema.names == ["conv_id", "turn_idx"]
    # high turn indices only exist in the salted mega-conversation partitions
    assert plan["pruned_stats"] > 0
    assert plan["scanned"] + plan["pruned_stats"] + plan["pruned_dict"] == plan["parts_total"]


def test_scan_timestamp_between(store, transcripts):
    ts = transcripts["ts"]
    lo = pc.quantile(ts.cast(pa.int64()), q=0.4)[0].as_py()
    hi = pc.quantile(ts.cast(pa.int64()), q=0.6)[0].as_py()
    got = _collect(scan_store(store, [("ts", "between", (lo, hi))], columns=["ts"]))
    iv = ts.cast(pa.int64())
    exp = pc.sum(
        pc.and_(pc.greater_equal(iv, lo), pc.less_equal(iv, hi)).cast(pa.int64())
    ).as_py()
    assert got.num_rows == exp


def test_scan_impossible_predicate_streams_empty_with_schema(store):
    ds, plan = scan_store(store, [("turn_idx", "<", -1)], return_plan=True)
    assert plan["scanned"] == 0 and plan["pruned_stats"] == plan["parts_total"]
    assert ds.count() == 0
    assert "conv_id" in ds.schema().names  # schema survives full pruning


def test_dict_probe_prunes_planted_value(ray_session, tmp_path):
    # plant a dict value that exists in exactly one conversation -> one partition
    tbl = make_transcripts(4_000, seed=3)
    tool = tbl["tool"].to_pylist()
    cid = tbl["conv_id"][0].as_py()
    planted = [
        ("golden-hammer" if c == cid else t)
        for c, t in zip(tbl["conv_id"].to_pylist(), tool)
    ]
    tbl = tbl.set_column(
        tbl.schema.get_field_index("tool"), "tool", pa.array(planted, type=pa.string())
    )
    out = str(tmp_path / "planted")
    encode_dataset(ray.data.from_arrow(tbl), out, n_parts=6)
    ds, plan = scan_store(out, [("tool", "==", "golden-hammer")], return_plan=True)
    got = _collect(ds)
    exp = tbl.filter(pc.equal(tbl["tool"], "golden-hammer"))
    assert got.num_rows == exp.num_rows > 0
    # the dictionary probe must have dropped every partition but the planted one
    assert plan["pruned_dict"] >= plan["parts_total"] - plan["pruned_stats"] - 1
    assert plan["scanned"] == 1
    # and disabling the probe still returns identical rows
    got2 = _collect(scan_store(out, [("tool", "==", "golden-hammer")], dict_probe=False))
    assert got2.num_rows == exp.num_rows


def test_scan_backcompat_store_without_stats(store, transcripts, tmp_path):
    # simulate a store written before zone maps: strip stats from every record
    import shutil

    old = str(tmp_path / "old")
    shutil.copytree(store, old)
    for fn in glob.glob(os.path.join(mf.manifest_dir(old), "part-*.json")):
        with open(fn) as f:
            rec = json.load(f)
        rec.pop("stats", None)
        with open(fn, "w") as f:
            json.dump(rec, f)
    cut = int(pc.quantile(transcripts["turn_idx"], q=0.95)[0].as_py())
    ds, plan = scan_store(old, [("turn_idx", ">", cut)], return_plan=True)
    assert plan["pruned_stats"] == 0 and plan["scanned"] == plan["parts_total"]
    exp = transcripts.filter(pc.greater(transcripts["turn_idx"], cut))
    assert _collect(ds).num_rows == exp.num_rows


def test_scan_covers_appended_generations(ray_session, store, transcripts, tmp_path):
    import shutil

    out = str(tmp_path / "app")
    shutil.copytree(store, out)
    delivery = make_transcripts(2_000, seed=99, conv_offset=500_000)
    append_dataset(ray.data.from_arrow(delivery), out)
    cut = 5
    got = _collect(scan_store(out, [("turn_idx", "<", cut)], columns=["conv_id", "turn_idx"]))
    exp = sum(
        pc.sum(pc.less(t["turn_idx"], cut).cast(pa.int64())).as_py()
        for t in (transcripts, delivery)
    )
    assert got.num_rows == exp


def test_scan_rejects_unknown_columns(store):
    with pytest.raises(ValueError, match="predicate column"):
        scan_store(store, [("nope", "==", 1)])
    with pytest.raises(ValueError, match="not in store schema"):
        scan_store(store, [("turn_idx", ">", 1)], columns=["nope"])


# --- store profile ---------------------------------------------------------------


def test_store_profile_metadata_only(store, transcripts):
    prof = store_profile(store)
    assert prof["rows"] == transcripts.num_rows
    assert prof["stats_coverage"] == 1.0
    ti = prof["columns"]["turn_idx"]
    mm = pc.min_max(transcripts["turn_idx"])
    assert ti["min"] == mm["min"].as_py() and ti["max"] == mm["max"].as_py()
    assert prof["columns"]["text"]["nulls"] == transcripts["text"].null_count
    role = prof["columns"]["role"]
    assert role["codecs"].get("dict") and role["min"] == "assistant"
    ts = prof["columns"]["ts"]
    assert ts["min"] == pc.min(transcripts["ts"].cast(pa.int64())).as_py()


# --- fsck -------------------------------------------------------------------------


def test_fsck_clean_and_corrupt(ray_session, store, tmp_path):
    import shutil

    rep = fsck_store(store, deep=True)
    assert rep["ok"] and rep["deep_checked"] == rep["parts"] and rep["errors"] == []

    bad = str(tmp_path / "bad")
    shutil.copytree(store, bad)
    f = sorted(glob.glob(os.path.join(bad, "part-*.pcc")))[0]
    with open(f, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0xFF
    with open(f, "wb") as fh:
        fh.write(bytes(data))
    rep2 = fsck_store(bad, deep=True)
    assert not rep2["ok"] and any("crc32" in e for e in rep2["errors"])
    # meta-level check still passes (size unchanged) but deep caught it
    rep_meta = fsck_store(bad, deep=False)
    assert rep_meta["ok"]

    # truncate -> meta level catches the size mismatch. Rewrite record paths
    # to the copy first (a fully relocated store), otherwise resolution would
    # fall back to the ORIGINAL intact file and flag the torn copy as stray.
    trunc = str(tmp_path / "trunc")
    shutil.copytree(store, trunc)
    for rf in glob.glob(os.path.join(mf.manifest_dir(trunc), "part-*.json")):
        with open(rf) as fh:
            rec = json.load(fh)
        rec["path"] = os.path.join(trunc, os.path.basename(rec["path"]))
        with open(rf, "w") as fh:
            json.dump(rec, fh)
    f2 = sorted(glob.glob(os.path.join(trunc, "part-*.pcc")))[1]
    with open(f2, "rb") as fh:
        data2 = fh.read()
    with open(f2, "wb") as fh:
        fh.write(data2[:-10])
    rep3 = fsck_store(trunc, deep=False)
    assert not rep3["ok"] and any("size" in e for e in rep3["errors"])

    # stray container -> flagged
    stray = str(tmp_path / "stray")
    shutil.copytree(store, stray)
    with open(os.path.join(stray, "part-99999.pcc"), "wb") as fh:
        fh.write(b"junk")
    rep4 = fsck_store(stray, deep=False)
    assert not rep4["ok"] and any("stray" in e for e in rep4["errors"])


def test_fsck_deep_check_runs_on_plain_tasks(ray_session, store, tmp_path, monkeypatch):
    """The deep check fans out as plain Ray tasks (``zonemap.map_footers``):
    on a bit-rotted and on a truncated copy it reports exactly the damaged
    partition and checks every intact container, with 0 Ray Data jobs."""
    import shutil

    from test_footer_tasks import _count_jobs

    jobs = _count_jobs(monkeypatch)
    recs = mf.load_records(store)
    by_name = {os.path.basename(r["path"]): r for r in recs}

    rot = str(tmp_path / "rot")
    shutil.copytree(store, rot)
    victim = sorted(glob.glob(os.path.join(rot, "part-*.pcc")))[0]
    with open(victim, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0xFF
    with open(victim, "wb") as fh:
        fh.write(bytes(data))
    r = by_name[os.path.basename(victim)]
    rep = fsck_store(rot, deep=True)
    assert rep["errors"] == [f"part {r['part_id']} gen {r.get('generation', 0)}: "
                             "payload crc32 mismatch (bit rot?)"]
    assert rep["deep_checked"] == rep["parts"] == len(recs)

    trunc = str(tmp_path / "trunc")
    shutil.copytree(store, trunc)
    for rf in glob.glob(os.path.join(mf.manifest_dir(trunc), "part-*.json")):
        with open(rf) as fh:
            rec = json.load(fh)
        rec["path"] = os.path.join(trunc, os.path.basename(rec["path"]))
        with open(rf, "w") as fh:
            json.dump(rec, fh)
    victim = sorted(glob.glob(os.path.join(trunc, "part-*.pcc")))[1]
    size = os.path.getsize(victim)
    with open(victim, "r+b") as fh:
        fh.truncate(size - 10)
    r = by_name[os.path.basename(victim)]
    rep = fsck_store(trunc, deep=True)
    assert rep["errors"] == [f"part {r['part_id']} gen {r.get('generation', 0)}: "
                             f"size {size - 10} != recorded bytes_out {size}"]
    assert rep["deep_checked"] == len(recs) - 1
    assert jobs == []


def test_scan_hash_routes_partition_column(store, transcripts, tmp_path):
    """Level-0 pruning: equality/in on the PARTITION column prunes by hash
    arithmetic alone (plan['pruned_hash']), with the salt-chunk range bounded
    by the order column's zone-map max; results stay equal to the in-memory
    filter, and missing stats degrade to a full scan — never a wrong one."""
    import copy
    import json as _json
    import shutil

    cid = transcripts["conv_id"][5].as_py()
    cid2 = transcripts["conv_id"][4000].as_py()

    ds, plan = scan_store(store, [("conv_id", "==", cid)], return_plan=True)
    got = _collect(ds)
    exp = transcripts.filter(pc.equal(transcripts["conv_id"], cid))
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert got.select(exp.column_names).sort_by(key).equals(exp.sort_by(key).combine_chunks())
    assert plan["pruned_hash"] > 0
    assert plan["scanned"] + plan["pruned_stats"] + plan["pruned_hash"] + plan[
        "pruned_dict"
    ] == plan["parts_total"]

    # 'in' over two conversations
    ds, plan = scan_store(store, [("conv_id", "in", [cid, cid2])], return_plan=True)
    got = _collect(ds)
    exp = transcripts.filter(pc.is_in(transcripts["conv_id"], value_set=pa.array([cid, cid2])))
    assert got.num_rows == exp.num_rows
    assert plan["pruned_hash"] >= 0 and plan["scanned"] >= 1

    # a record without order-column stats makes the chunk bound unknowable:
    # routing must disable itself (pruned_hash == 0), result unchanged
    crippled = str(tmp_path / "crippled")
    shutil.copytree(store, crippled)
    rfs = sorted(glob.glob(os.path.join(mf.manifest_dir(crippled), "part-*.json")))
    rec = _json.load(open(rfs[0]))
    rec["stats"] = {}
    with open(rfs[0], "w") as f:
        f.write(_json.dumps(rec))
    ds, plan = scan_store(crippled, [("conv_id", "==", cid)], return_plan=True)
    assert plan["pruned_hash"] == 0
    assert _collect(ds).num_rows == exp.filter(pc.equal(exp["conv_id"], cid)).num_rows


def test_scan_binary_conv_key_routes_correctly(ray_session, tmp_path):
    """A binary partition column must hash-route by payload bytes, not
    str(b'x') — the repr hash prunes the CORRECT partitions and silently
    returns zero rows."""
    t = make_transcripts(3000, seed=43)
    ci = t.schema.get_field_index("conv_id")
    t = t.set_column(ci, "conv_id", t["conv_id"].cast(pa.binary()))
    out = str(tmp_path / "store")
    encode_dataset(ray.data.from_arrow(t), out, n_parts=4)

    key = t["conv_id"][25].as_py()
    assert isinstance(key, bytes)
    expect = t.filter(pc.equal(t["conv_id"], key))
    ds, plan = scan_store(out, [("conv_id", "==", key)], return_plan=True)
    got = _collect(ds)
    assert got.num_rows == expect.num_rows > 0
    srt = [("turn_idx", "ascending")]
    assert got.select(expect.column_names).sort_by(srt).equals(
        expect.sort_by(srt).combine_chunks()
    )


def test_scan_unexpected_key_type_degrades_to_full_scan(store, transcripts):
    """A predicate value the router can't hash (here: float) must fall back
    to scanning everything — wrong-partition pruning would be unsound."""
    from parquet_converter_ray.partition import hash_conv_values

    assert hash_conv_values([3.5]) is None
    assert hash_conv_values(["a", 7]) is None
    assert hash_conv_values([None]) is None
    cid = transcripts["conv_id"][5].as_py()
    # mixed-type 'in' list: routing degrades, result still exact
    ds = scan_store(store, [("conv_id", "in", [cid, 123])])
    got = _collect(ds)
    expect = transcripts.filter(pc.equal(transcripts["conv_id"], cid))
    assert got.num_rows == expect.num_rows
