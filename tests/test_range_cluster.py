"""Range-clustered store layout: zone maps must actually prune range scans
(a hash layout never can — every partition spans the full domain), while the
store lifecycle (decode fidelity, append with recorded cuts, delete pruned
by zone maps, resume without resampling) stays correct."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _sorted(t: pa.Table) -> pa.Table:
    # (l_orderkey, l_linenumber) is NOT unique in the synth lineitem (1401
    # duplicate pairs), so the order-insensitive compare sorts on ALL columns
    return t.sort_by([(c, "ascending") for c in sorted(t.column_names)])


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    from parquet_converter_ray.encode import encode_dataset

    src = f"{SF_DIR}/lineitem.parquet"
    base = tmp_path_factory.mktemp("range_cluster")
    cols = ["l_orderkey", "l_linenumber", "l_shipdate", "l_quantity", "l_returnflag"]
    tbl = pq.read_table(src, columns=cols)
    inp = str(base / "lineitem.parquet")
    pq.write_table(tbl, inp)

    hash_dir, range_dir = str(base / "hash"), str(base / "range")
    common = dict(
        n_parts=8,
        conv_col="l_orderkey",
        order_col="l_linenumber",
        sort_key=("l_orderkey", "l_linenumber"),
        salt_rows=0,
    )
    encode_dataset(inp, hash_dir, **common)
    encode_dataset(inp, range_dir, cluster_by="l_shipdate", **common)
    return {"input": tbl, "inp": inp, "hash": hash_dir, "range": range_dir}


def test_range_store_decodes_bit_identical(stores):
    from parquet_converter_ray.decode import decode_dataset

    got = _sorted(
        pa.concat_tables(
            list(decode_dataset(stores["range"]).iter_batches(batch_format="pyarrow"))
        )
    )
    want = _sorted(stores["input"])
    assert got.select(want.column_names).equals(want)


def test_range_scan_prunes_hash_scan_cannot(stores):
    """A ship-date band must prune range-store containers via zone maps; the
    hash store scans everything. Both return identical rows, equal to DuckDB."""
    from parquet_converter_ray.zonemap import scan_store

    pred = [("l_shipdate", "between", ("1996-01-01", "1996-03-31"))]
    r_ds, r_plan = scan_store(stores["range"], pred, return_plan=True)
    h_ds, h_plan = scan_store(stores["hash"], pred, return_plan=True)
    r = _sorted(pa.concat_tables(list(r_ds.iter_batches(batch_format="pyarrow"))))
    h = _sorted(pa.concat_tables(list(h_ds.iter_batches(batch_format="pyarrow"))))
    assert r.equals(h)
    assert r_plan["pruned_stats"] > 0, r_plan
    assert h_plan["pruned_stats"] == 0, h_plan
    assert r_plan["scanned"] < r_plan["parts_total"]

    con = duckdb.connect()
    want = con.sql(
        f"SELECT count(*) FROM '{stores['inp']}' WHERE l_shipdate "
        f"BETWEEN DATE '1996-01-01' AND DATE '1996-03-31'"
    ).fetchone()[0]
    assert r.num_rows == want > 0


def test_range_store_lookup_falls_back_to_pruned_scan(stores):
    """Point access on a range-clustered store has no hash route; lookup must
    fall back to the scan's pruning (zone maps, footer probe) and Ray-task
    decode and return the same rows a hash-store lookup returns."""
    from parquet_converter_ray.decode import lookup_conversation

    key = int(stores["input"]["l_orderkey"][0].as_py())
    got = lookup_conversation(stores["range"], key)
    want = lookup_conversation(stores["hash"], key)
    assert got.num_rows == want.num_rows > 0
    assert _sorted(got.select(want.column_names)).equals(_sorted(want))
    missing = lookup_conversation(stores["range"], 987_654_321)
    assert missing.num_rows == 0


def test_range_store_append_uses_recorded_cuts_and_delete_works(
    ray_session, stores, tmp_path
):
    """Appended rows must land in the bucket the recorded cuts dictate (scan
    still prunes and finds them); delete removes a key entirely with no hash
    route (zone maps prune instead) and the store stays fsck-clean."""
    import shutil

    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import append_dataset, delete_conversations
    from parquet_converter_ray.zonemap import scan_store

    store = str(tmp_path / "range_copy")
    shutil.copytree(stores["range"], store)

    extra = pa.table(
        {
            "l_orderkey": pa.array([999_999_001, 999_999_001], pa.int64()),
            "l_linenumber": pa.array([1, 2], pa.int32()),
            "l_shipdate": pa.array(
                np.array(["1996-02-15", "1998-11-01"], dtype="datetime64[us]")
            ),
            "l_quantity": pa.array([1.0, 2.0], pa.float64()),
            "l_returnflag": pa.array(["N", "N"]),
        }
    )
    delivery = str(tmp_path / "delivery.parquet")
    sch = pq.read_schema(stores["inp"])
    pq.write_table(extra.cast(pa.schema([sch.field(c) for c in extra.column_names])), delivery)
    summary = append_dataset(delivery, store)
    assert summary["rows_appended"] == 2

    got, plan = scan_store(
        store, [("l_orderkey", "==", 999_999_001)], return_plan=True
    )
    rows = pa.concat_tables(list(got.iter_batches(batch_format="pyarrow")))
    assert rows.num_rows == 2

    # the two appended rows have ship dates in different cut buckets: a
    # date-band scan for just one of them must not scan the other's bucket
    one, plan1 = scan_store(
        store,
        [("l_shipdate", "between", ("1998-10-01", "1998-12-31")),
         ("l_orderkey", "==", 999_999_001)],
        return_plan=True,
    )
    t1 = pa.concat_tables(list(one.iter_batches(batch_format="pyarrow")))
    assert t1.num_rows == 1 and plan1["pruned_stats"] > 0

    res = delete_conversations(store, [999_999_001])
    assert res["convs_found"] == 1
    after = pa.concat_tables(
        list(decode_dataset(store).iter_batches(batch_format="pyarrow"))
    )
    assert (
        pc.sum(pc.cast(pc.equal(after["l_orderkey"], 999_999_001), pa.int64())).as_py()
        or 0
    ) == 0
    assert after.num_rows == stores["input"].num_rows


def test_range_resume_reuses_cuts_and_mismatch_guard(ray_session, stores, tmp_path):
    """resume=True on a completed range store is a no-op that keeps the
    recorded cuts; re-encoding with different clustering params under
    resume raises the mismatch guard."""
    import json
    import os
    import shutil

    from parquet_converter_ray.encode import encode_dataset

    store = str(tmp_path / "resume_copy")
    shutil.copytree(stores["range"], store)
    with open(os.path.join(store, "_run.json")) as f:
        before = json.load(f)
    assert before["partition_mode"] == "range" and before["range_cuts"]

    encode_dataset(
        stores["inp"], store, resume=True, cluster_by="l_shipdate",
        n_parts=8, conv_col="l_orderkey", order_col="l_linenumber",
        sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
    )
    with open(os.path.join(store, "_run.json")) as f:
        after = json.load(f)
    assert after["range_cuts"] == before["range_cuts"]

    with pytest.raises(ValueError, match="partitioning parameters differ"):
        encode_dataset(
            stores["inp"], store, resume=True, cluster_by="l_quantity",
            n_parts=8, conv_col="l_orderkey", order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
        )


def test_zorder_multi_column_clustering_prunes_both_columns(
    ray_session, stores, tmp_path
):
    """Z-order clustering on (l_shipdate, l_quantity): zone maps must prune
    containers for a band predicate on EITHER column alone (single-column
    range clustering only ever prunes its own column), results identical to
    the hash-store scan."""
    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.zonemap import scan_store

    zdir = str(tmp_path / "zorder")
    encode_dataset(
        stores["inp"], zdir, n_parts=16, conv_col="l_orderkey",
        order_col="l_linenumber", sort_key=("l_orderkey", "l_linenumber"),
        salt_rows=0, cluster_by=["l_shipdate", "l_quantity"],
    )

    for pred in (
        [("l_shipdate", "between", ("1996-01-01", "1996-06-30"))],
        [("l_quantity", "between", (1, 10))],
    ):
        z_ds, z_plan = scan_store(zdir, pred, return_plan=True)
        h_ds, h_plan = scan_store(stores["hash"], pred, return_plan=True)
        z = _sorted(pa.concat_tables(list(z_ds.iter_batches(batch_format="pyarrow"))))
        h = _sorted(pa.concat_tables(list(h_ds.iter_batches(batch_format="pyarrow"))))
        assert z.equals(h), pred
        assert z.num_rows > 0
        assert z_plan["pruned_stats"] > 0, (pred, z_plan)
        assert h_plan["pruned_stats"] == 0, (pred, h_plan)

    # full-table decode still bit-identical
    from parquet_converter_ray.decode import decode_dataset

    got = _sorted(
        pa.concat_tables(
            list(decode_dataset(zdir).iter_batches(batch_format="pyarrow"))
        )
    )
    want = _sorted(stores["input"])
    assert got.select(want.column_names).equals(want)


def test_compact_preserves_range_clustering(ray_session, stores, tmp_path):
    """Compacting a range-clustered store re-encodes with the SAME clustering
    column (cuts resampled for the new n_parts): the result is still
    partition_mode=range and still prunes date-band scans."""
    import json
    import os

    from parquet_converter_ray.encode import compact_dataset
    from parquet_converter_ray.zonemap import scan_store

    out = str(tmp_path / "compacted")
    compact_dataset(stores["range"], out, n_parts=4)
    with open(os.path.join(out, "_run.json")) as f:
        params = json.load(f)
    assert params["partition_mode"] == "range"
    assert params["cluster_by"] == ["l_shipdate"]

    pred = [("l_shipdate", "between", ("1996-01-01", "1996-03-31"))]
    ds, plan = scan_store(out, pred, return_plan=True)
    got = _sorted(pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))))
    ref_ds = scan_store(stores["hash"], pred)
    ref = _sorted(pa.concat_tables(list(ref_ds.iter_batches(batch_format="pyarrow"))))
    assert got.equals(ref)
    assert plan["pruned_stats"] > 0, plan


# --- string cluster keys ---------------------------------------------------------


def test_string_cluster_key_primitives():
    from parquet_converter_ray.partition import (
        matrix_keys,
        prefix_matrix,
        string_cluster_keys,
    )

    vals = ["", "a", "ab", "abc", "ab\x00x", "zz", "ü", "日本語テキスト", "x" * 100, None]
    arr = pa.array(vals, type=pa.string())
    m = prefix_matrix(arr, 6)
    assert m.shape == (len(vals), 6)
    assert bytes(m[1]).rstrip(b"\0") == b"a"
    assert bytes(m[8]) == b"xxxxxx"  # truncated long value
    assert not m[-1].any()  # null -> zero row
    # key order respects truncated lexicographic byte order (ties allowed)
    keys = matrix_keys(m)
    enc = [(v or "").encode()[:6] for v in vals]
    for i in range(len(vals)):
        for j in range(len(vals)):
            if enc[i] < enc[j]:
                assert keys[i] <= keys[j], (vals[i], vals[j])
    # skip: keys come from bytes AFTER the recorded common prefix
    pref = pa.array(["conv-" + s for s in ["aaa", "abc", "zzz"]])
    k0 = string_cluster_keys(pref, 0)
    k5 = string_cluster_keys(pref, 5)
    assert len(np.unique(k0)) <= len(np.unique(k5)) == 3
    assert list(np.argsort(k5)) == [0, 1, 2]
    # binary columns key too
    kb = string_cluster_keys(pa.array([b"\x00\x01", b"\xff\xfe"], type=pa.binary()), 0)
    assert kb[0] < kb[1]


@pytest.fixture(scope="module")
def str_store(ray_session, tmp_path_factory):
    import ray

    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.synth import make_transcripts

    t = make_transcripts(12_000, seed=5)
    out = str(tmp_path_factory.mktemp("strclu") / "range")
    encode_dataset(ray.data.from_arrow(t), out, n_parts=8, cluster_by="conv_id")
    return out, t


def test_string_clustered_store_prunes_and_roundtrips(str_store):
    """Range clustering on a STRING column: the sampled common prefix is
    skipped (recorded in cluster_norm), zone maps carry real string bounds
    even though conv_id is not dict-encoded, and both point and range
    predicates prune containers with exact results."""
    import json
    import os

    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.zonemap import scan_store

    out, t = str_store
    with open(os.path.join(out, "_run.json")) as f:
        run = json.load(f)
    assert run["partition_mode"] == "range"
    ent = run["cluster_norm"]["conv_id"]
    assert ent["skip"] > 0 and len(ent["span"]) == 2

    key = [(c, "ascending") for c in t.column_names]
    cid = t["conv_id"][500].as_py()
    ds, plan = scan_store(out, [("conv_id", "==", cid)], return_plan=True)
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    exp = t.filter(pc.equal(t["conv_id"], cid))
    assert got.sort_by(key).equals(exp.sort_by(key).combine_chunks())
    assert plan["pruned_stats"] > 0, plan

    lo, hi = "conv-00000100", "conv-00000200"
    ds2, plan2 = scan_store(out, [("conv_id", "between", (lo, hi))], return_plan=True)
    got2 = pa.concat_tables(list(ds2.iter_batches(batch_format="pyarrow")))
    exp2 = t.filter(
        pc.and_(pc.greater_equal(t["conv_id"], lo), pc.less_equal(t["conv_id"], hi))
    )
    assert got2.num_rows == exp2.num_rows > 0
    assert got2.sort_by(key).equals(exp2.sort_by(key).combine_chunks())
    assert plan2["pruned_stats"] > 0, plan2

    # full decode stays bit-identical
    dec = pa.concat_tables(list(decode_dataset(out).iter_batches(batch_format="pyarrow")))
    assert dec.sort_by(key).equals(t.sort_by(key).combine_chunks())


def test_string_clustered_append_delete(ray_session, str_store, tmp_path):
    """Appends to a string-clustered store replay the RECORDED skip + cuts
    (the new conversation is findable via the pruned scan), delete removes it."""
    import shutil

    import pyarrow.parquet as pq

    from parquet_converter_ray.encode import append_dataset, delete_conversations
    from parquet_converter_ray.zonemap import scan_store

    out, t = str_store
    store = str(tmp_path / "copy")
    shutil.copytree(out, store)
    newid = "conv-99999999"
    extra = pa.table(
        {
            "conv_id": pa.array([newid, newid]),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"]),
            "text": pa.array(["hi", "hello"]),
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array(
                np.array(["2026-01-01T00:00:00", "2026-01-01T00:00:01"], dtype="datetime64[us]")
            ),
        }
    )
    sch = pa.concat_tables([t]).schema
    delivery = str(tmp_path / "delivery.parquet")
    pq.write_table(extra.cast(pa.schema([sch.field(c) for c in extra.column_names])), delivery)
    assert append_dataset(delivery, store)["rows_appended"] == 2

    ds, plan = scan_store(store, [("conv_id", "==", newid)], return_plan=True)
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert got.num_rows == 2
    assert plan["pruned_stats"] > 0, plan  # bounds still prune post-append

    res = delete_conversations(store, [newid])
    assert res["convs_found"] == 1
    ds2 = scan_store(store, [("conv_id", "==", newid)])
    left = list(ds2.iter_batches(batch_format="pyarrow"))
    assert sum(b.num_rows for b in left) == 0


def test_mixed_zorder_string_numeric(ray_session, stores, tmp_path):
    """Z-order over (string, numeric): the string column keys through the
    recorded skip/span, and band predicates on EITHER column prune."""
    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.zonemap import scan_store

    zdir = str(tmp_path / "zmix")
    encode_dataset(
        stores["inp"], zdir, n_parts=16, conv_col="l_orderkey",
        order_col="l_linenumber", sort_key=("l_orderkey", "l_linenumber"),
        salt_rows=0, cluster_by=["l_returnflag", "l_quantity"],
    )
    for pred in (
        [("l_returnflag", "==", "R")],
        [("l_quantity", "between", (1, 8))],
    ):
        z_ds, z_plan = scan_store(zdir, pred, return_plan=True)
        h_ds, _ = scan_store(stores["hash"], pred, return_plan=True)
        z = _sorted(pa.concat_tables(list(z_ds.iter_batches(batch_format="pyarrow"))))
        h = _sorted(pa.concat_tables(list(h_ds.iter_batches(batch_format="pyarrow"))))
        assert z.equals(h), pred
        assert z.num_rows > 0
        assert z_plan["pruned_stats"] > 0, (pred, z_plan)


def test_cluster_by_leads_sort_key_and_engages_sorted_scan(stores):
    """Range clustering prepends the cluster column to the intra-partition
    sort key: container footers record it as the LEAD, and a range predicate
    on it engages the sorted-scan binary search (not just zone-map pruning)."""
    import json
    import os

    from parquet_converter_ray.container import read_footer_file, unpack_container
    from parquet_converter_ray.zonemap import _ScanDecoder, apply_predicate
    from parquet_converter_ray.container import decode_table

    with open(os.path.join(stores["range"], "_run.json")) as f:
        run = json.load(f)
    assert run["sort_key"][0] == "l_shipdate"

    paths = sorted(
        os.path.join(stores["range"], p)
        for p in os.listdir(stores["range"])
        if p.endswith(".pcc")
    )
    footer = read_footer_file(paths[0])
    assert footer["sort_key"][0] == "l_shipdate"

    # pick a narrow window inside ONE container's own bounds so the range
    # path is applicable and engages
    st = footer["stats"]["l_shipdate"]
    lo = st["min"]
    hi = lo + (st["max"] - st["min"]) // 10
    clauses = [("l_shipdate", "between", (lo, hi))]
    with open(paths[0], "rb") as f:
        data = f.read()
    dec = _ScanDecoder(None, None, clauses)
    got = dec._one(data)
    exp = apply_predicate(decode_table(data), clauses)
    key = [(c, "ascending") for c in sorted(exp.column_names)]
    assert got.sort_by(key).equals(exp.sort_by(key).combine_chunks())
    assert dec.range_hits == 1


def test_zorder_string_columns_prune_independently(ray_session, tmp_path):
    """Multi-column Z-order with STRING cluster columns (the round-4
    documented refusal, now supported): a (source, n_chars) documents store
    — string x numeric — and a (source, lang) store — string x string —
    must prune a predicate on EITHER column alone, results identical to a
    hash-routed store's scan."""
    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.zonemap import scan_store

    sf = "/root/testdata/sf0.001"
    hdir = str(tmp_path / "hash")
    encode_dataset(f"{sf}/documents.parquet", hdir, n_parts=16, conv_col="doc_id",
                   order_col="doc_id", sort_key=("doc_id",), salt_rows=0)

    for tag, cluster in (("sn", ["source", "n_chars"]), ("sl", ["source", "lang"])):
        zdir = str(tmp_path / f"zorder-{tag}")
        encode_dataset(f"{sf}/documents.parquet", zdir, n_parts=16,
                       conv_col="doc_id", order_col="doc_id",
                       sort_key=("doc_id",), salt_rows=0, cluster_by=cluster)
        preds = [
            [("source", "between", ("src1", "src2"))],
            [("source", "prefix", "src1")],
        ]
        preds.append([("n_chars", "between", (100, 200))] if tag == "sn"
                     else [("lang", "==", "en")])
        for pred in preds:
            z_ds, z_plan = scan_store(zdir, pred, return_plan=True)
            h_ds, _ = scan_store(hdir, pred, return_plan=True)
            z = _sorted(pa.concat_tables(list(z_ds.iter_batches(batch_format="pyarrow"))))
            h = _sorted(pa.concat_tables(list(h_ds.iter_batches(batch_format="pyarrow"))))
            assert z.equals(h), (tag, pred)
            assert z.num_rows > 0, (tag, pred)
            # every clustered column's band predicate prunes by layout
            # (lang has 4 values over 16 parts -> equality must drop parts)
            assert z_plan["pruned_stats"] > 0, (tag, pred, z_plan)

        # full decode still bit-identical to the raw table
        from parquet_converter_ray.decode import decode_dataset
        import pyarrow.parquet as pq

        got = _sorted(pa.concat_tables(list(decode_dataset(zdir).iter_batches(batch_format="pyarrow"))))
        want = _sorted(pq.read_table(f"{sf}/documents.parquet"))
        assert got.select(want.column_names).equals(want)
