"""Co-partitioned (bucketed) store join: exactness vs DuckDB, the layout
preconditions it must refuse, and left-join semantics for missing buckets."""

from __future__ import annotations

import pathlib

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storejoin import store_join

SF_DIR = "/root/testdata/sf0.001"


def _collect(ds) -> pa.Table:
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        s = ds.schema()
        return pa.table({n: pa.array([], type=t) for n, t in zip(s.names, s.types)})
    return pa.concat_tables(batches, promote_options="default")


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("storejoin")
    o_dir, l_dir = str(base / "orders"), str(base / "lineitem")
    encode_dataset(f"{SF_DIR}/orders.parquet", o_dir, n_parts=8,
                   conv_col="o_orderkey", order_col="o_custkey",
                   sort_key=("o_orderkey",), salt_rows=0)
    encode_dataset(f"{SF_DIR}/lineitem.parquet", l_dir, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    return o_dir, l_dir


def test_inner_join_matches_duckdb(stores):
    o_dir, l_dir = stores
    t = _collect(store_join([o_dir, l_dir], columns=[
        ["o_orderkey", "o_orderpriority"], ["l_extendedprice", "l_quantity"],
    ]))
    n, s = duckdb.sql(
        f"""SELECT count(*), round(sum(l_extendedprice), 2)
            FROM '{SF_DIR}/orders.parquet' JOIN '{SF_DIR}/lineitem.parquet'
            ON o_orderkey = l_orderkey"""
    ).fetchone()
    assert t.num_rows == n > 0
    assert round(float(pc.sum(t["l_extendedprice"]).as_py()), 2) == float(s)
    assert set(t.column_names) == {"o_orderkey", "o_orderpriority",
                                   "l_extendedprice", "l_quantity"}


def test_left_join_keeps_unmatched(stores):
    o_dir, l_dir = stores
    t = _collect(store_join([o_dir, l_dir], columns=[["o_orderkey"], ["l_quantity"]], how="left"))
    n = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/orders.parquet'
            LEFT JOIN '{SF_DIR}/lineitem.parquet' ON o_orderkey = l_orderkey"""
    ).fetchone()[0]
    assert t.num_rows == n
    # orders with no lineitem must appear with null quantity
    unmatched = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/orders.parquet' o
            WHERE NOT EXISTS (SELECT 1 FROM '{SF_DIR}/lineitem.parquet' l
                              WHERE l.l_orderkey = o.o_orderkey)"""
    ).fetchone()[0]
    assert t["l_quantity"].null_count == unmatched


def test_refuses_wrong_layouts(stores, tmp_path):
    o_dir, l_dir = stores
    # n_parts mismatch
    other = str(tmp_path / "lineitem12")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", other, n_parts=12,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    with pytest.raises(ValueError, match="n_parts mismatch"):
        store_join([o_dir, other])
    # salted store
    salted = str(tmp_path / "lineitem_salted")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", salted, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=500)
    with pytest.raises(ValueError, match="salt_rows"):
        store_join([o_dir, salted])
    # range-clustered store
    ranged = str(tmp_path / "lineitem_range")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", ranged, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
                   cluster_by="l_shipdate")
    with pytest.raises(ValueError, match="range-clustered"):
        store_join([o_dir, ranged])
    # join column that is not the partition column
    with pytest.raises(ValueError, match="partitioned on"):
        store_join([o_dir, l_dir], ons=[None, "l_partkey"])
    # overlapping non-key output columns
    with pytest.raises(ValueError, match="not in store schemas"):
        store_join([o_dir, l_dir], columns=[None, ["nope"]])


def test_store_diff_validates_compaction(stores, tmp_path):
    """diff: compacted store content-equal to its source; a different store
    is unequal; disjoint schemas are refused."""
    from parquet_converter_ray.decode import store_diff
    from parquet_converter_ray.encode import compact_dataset

    o_dir, l_dir = stores
    out = str(tmp_path / "compacted")
    compact_dataset(o_dir, out, target_part_bytes=8 << 20)
    res = store_diff(o_dir, out)
    assert res["equal"] and res["only_a"] == [] and res["only_b"] == []
    res2 = store_diff(o_dir, o_dir, columns=["o_orderkey"])
    assert res2["equal"]
    with pytest.raises(ValueError, match="not in both stores"):
        store_diff(o_dir, l_dir, columns=["o_orderkey", "l_quantity"])
    with pytest.raises(ValueError, match="share no columns"):
        store_diff(o_dir, l_dir)


def test_rebucket_restores_joinability(stores, tmp_path):
    """compact --n-parts as the rebucket tool: a 12-part store refuses to
    join the 8-part orders store; compacting it to 8 parts makes the pair
    joinable with results equal to DuckDB."""
    from parquet_converter_ray.encode import compact_dataset, encode_dataset

    o_dir, _ = stores
    twelve = str(tmp_path / "lineitem12")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", twelve, n_parts=12,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    with pytest.raises(ValueError, match="n_parts mismatch"):
        store_join([o_dir, twelve])
    rebucketed = str(tmp_path / "lineitem8")
    compact_dataset(twelve, rebucketed, n_parts=8)
    t = _collect(store_join([o_dir, rebucketed], columns=[["o_orderkey"], ["l_extendedprice"]]))
    n, s = duckdb.sql(
        f"""SELECT count(*), round(sum(l_extendedprice), 2)
            FROM '{SF_DIR}/orders.parquet' JOIN '{SF_DIR}/lineitem.parquet'
            ON o_orderkey = l_orderkey"""
    ).fetchone()
    assert t.num_rows == n
    assert round(float(pc.sum(t["l_extendedprice"]).as_py()), 2) == float(s)


def test_rebucket_dataset_full_repair(stores, tmp_path):
    """rebucket_dataset repairs EVERY layout mismatch at once: a store
    hash-keyed on the WRONG column with the wrong n_parts re-routes onto
    the join key with n_parts matched from the like= store's run record,
    and then joins shuffle-free with results equal to DuckDB."""
    from parquet_converter_ray.encode import encode_dataset, rebucket_dataset

    o_dir, _ = stores
    wrong = str(tmp_path / "suppkeyed")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", wrong, n_parts=5,
                   conv_col="l_suppkey", order_col="l_orderkey",
                   sort_key=("l_suppkey", "l_orderkey"), salt_rows=0)
    with pytest.raises(ValueError, match="n_parts mismatch|partitioned on"):
        store_join([o_dir, wrong], ons=[None, "l_orderkey"])
    fixed = str(tmp_path / "orderkeyed")
    rebucket_dataset(wrong, fixed, on="l_orderkey", like=o_dir)
    t = _collect(store_join([o_dir, fixed], columns=[["o_orderkey"], ["l_extendedprice"]]))
    n, s = duckdb.sql(
        f"""SELECT count(*), round(sum(l_extendedprice), 2)
            FROM '{SF_DIR}/orders.parquet' JOIN '{SF_DIR}/lineitem.parquet'
            ON o_orderkey = l_orderkey"""
    ).fetchone()
    assert t.num_rows == n
    assert round(float(pc.sum(t["l_extendedprice"]).as_py()), 2) == float(s)
    # the rebucketed store still holds the source rows bit-for-bit; the
    # synth lineitem's (orderkey, linenumber) is NOT unique, so order-
    # insensitive whole-row compare: sort both sides by every column
    from parquet_converter_ray.decode import decode_dataset

    a = _collect(decode_dataset(wrong))
    key = [(c, "ascending") for c in sorted(a.column_names)]
    a = a.select(sorted(a.column_names)).sort_by(key)
    b = _collect(decode_dataset(fixed)).select(sorted(a.column_names)).sort_by(key)
    assert a.equals(b)


def test_rebucket_refusals(stores, tmp_path):
    from parquet_converter_ray.encode import encode_dataset, rebucket_dataset

    o_dir, l_dir = stores
    with pytest.raises(ValueError, match="exactly one of"):
        rebucket_dataset(l_dir, str(tmp_path / "x"))
    with pytest.raises(ValueError, match="exactly one of"):
        rebucket_dataset(l_dir, str(tmp_path / "x"), like=o_dir, n_parts=8)
    # a salted like= target can never bucket-join: refuse with the reason
    salted = str(tmp_path / "salted")
    encode_dataset(f"{SF_DIR}/orders.parquet", salted, n_parts=4,
                   conv_col="o_orderkey", order_col="o_custkey",
                   sort_key=("o_orderkey",), salt_rows=50)
    with pytest.raises(ValueError, match="salt_rows"):
        rebucket_dataset(l_dir, str(tmp_path / "x"), like=salted)
    # a range-clustered like= target routes by value range, not key hash
    clustered = str(tmp_path / "clustered")
    encode_dataset(f"{SF_DIR}/orders.parquet", clustered, n_parts=4,
                   conv_col="o_orderkey", order_col="o_custkey",
                   sort_key=("o_orderkey",), salt_rows=0,
                   cluster_by="o_totalprice")
    with pytest.raises(ValueError, match="range-clustered"):
        rebucket_dataset(l_dir, str(tmp_path / "x"), like=clustered)


def test_cli_rebucket(stores, tmp_path, capsys):
    import json

    from parquet_converter_ray.cli import main

    o_dir, _ = stores
    wrong = str(tmp_path / "wrongparts")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", wrong, n_parts=3,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    fixed = str(tmp_path / "fixedparts")
    rc = main(["rebucket", wrong, fixed, "--like", o_dir])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["rows"] > 0
    t = _collect(store_join([o_dir, fixed], columns=[["o_orderkey"], ["l_quantity"]]))
    n = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/orders.parquet'
            JOIN '{SF_DIR}/lineitem.parquet' ON o_orderkey = l_orderkey"""
    ).fetchone()[0]
    assert t.num_rows == n


def test_store_join_dim_salted_fact(ray_session, tmp_path):
    """Dimension join against a SALTED fact store: dim rows replicate to all
    salt-chunk partitions, fact containers never move; inner and left match
    DuckDB; range-clustered facts are refused."""
    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    # salt_rows=4: multi-line orders genuinely span salt chunks
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=4)
    t = _collect(store_join_dim(
        fact, f"{SF_DIR}/orders.parquet", dim_on="o_orderkey",
        fact_columns=["l_orderkey", "l_extendedprice"],
        dim_columns=["o_orderpriority"],
    ))
    n, s = duckdb.sql(
        f"""SELECT count(*), round(sum(l_extendedprice), 2)
            FROM '{SF_DIR}/lineitem.parquet' JOIN '{SF_DIR}/orders.parquet'
            ON o_orderkey = l_orderkey"""
    ).fetchone()
    assert t.num_rows == n > 0
    assert round(float(pc.sum(t["l_extendedprice"]).as_py()), 2) == float(s)

    # left join: every fact row survives; synth lineitem always has its
    # order, so restrict the dim to half the orders to create misses
    import pyarrow.parquet as pq

    half = str(tmp_path / "orders_half.parquet")
    ot = pq.read_table(f"{SF_DIR}/orders.parquet",
                       columns=["o_orderkey", "o_orderpriority"])
    ot = ot.filter(pc.equal(pc.bit_wise_and(ot["o_orderkey"], 1), 0))
    pq.write_table(ot, half)
    lt = _collect(store_join_dim(
        fact, half, dim_on="o_orderkey", how="left",
        fact_columns=["l_orderkey"], dim_columns=["o_orderpriority"],
    ))
    total = duckdb.sql(f"SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'").fetchone()[0]
    odd = duckdb.sql(
        f"SELECT count(*) FROM '{SF_DIR}/lineitem.parquet' WHERE l_orderkey % 2 = 1"
    ).fetchone()[0]
    assert lt.num_rows == total
    assert lt["o_orderpriority"].null_count == odd

    ranged = str(tmp_path / "fact_range")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", ranged, n_parts=4,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
                   cluster_by="l_shipdate")
    with pytest.raises(ValueError, match="hash-route"):
        store_join_dim(ranged, half, dim_on="o_orderkey")


def test_store_join_multi_dim_star(ray_session, tmp_path):
    """Star-schema single pass: two dimensions joined against the same
    salted fact key in one co-grouped exchange; results match a two-join
    SQL; colliding dim column names are refused."""
    import numpy as np
    import pyarrow.parquet as pq

    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=4)
    ot = pq.read_table(f"{SF_DIR}/orders.parquet", columns=["o_orderkey"])
    k = ot["o_orderkey"].to_numpy()
    dim2 = str(tmp_path / "dim2.parquet")
    pq.write_table(
        pa.table({"key2": k, "parity": pa.array((k % 2).astype("int64"))}), dim2
    )
    t = _collect(store_join_dim(
        fact,
        dims=[(f"{SF_DIR}/orders.parquet", "o_orderkey", ["o_orderpriority"]),
              (dim2, "key2", ["parity"])],
        fact_columns=["l_orderkey", "l_extendedprice"],
    ))
    n, even = duckdb.sql(
        f"""SELECT count(*), sum(CASE WHEN l_orderkey % 2 = 0 THEN 1 ELSE 0 END)
            FROM '{SF_DIR}/lineitem.parquet' JOIN '{SF_DIR}/orders.parquet'
            ON o_orderkey = l_orderkey"""
    ).fetchone()
    assert t.num_rows == n
    assert int(pc.sum(pc.equal(t["parity"], 0)).as_py()) == int(even)
    with pytest.raises(ValueError, match="multiple sides"):
        store_join_dim(fact, dims=[
            (f"{SF_DIR}/orders.parquet", "o_orderkey", ["o_orderpriority"]),
            (f"{SF_DIR}/orders.parquet", "o_orderkey", ["o_orderpriority"]),
        ])
    with pytest.raises(ValueError, match="not both"):
        store_join_dim(fact, f"{SF_DIR}/orders.parquet", dim_on="o_orderkey",
                       dims=[(dim2, "key2", None)])


def test_store_join_dim_refuses_key_type_mismatch(ray_session, tmp_path):
    """A dim key of a different type family than the fact partition column
    would hash-route wrongly and silently drop matches — must refuse."""
    import pyarrow.parquet as pq

    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=4,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    bad = str(tmp_path / "bad.parquet")
    pq.write_table(pa.table({"k": pa.array(["1", "2"]), "v": [1, 2]}), bad)
    with pytest.raises(ValueError, match="type families"):
        store_join_dim(fact, bad, dim_on="k")


@pytest.fixture(scope="module")
def tri_stores(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("storejoin3")
    dirs = []
    for name, conv, order, sort in [
        ("events", "user_id", "event_id", ("user_id", "event_id")),
        ("orders", "o_custkey", "o_orderkey", ("o_custkey", "o_orderkey")),
        ("customer", "c_custkey", "c_nationkey", ("c_custkey",)),
    ]:
        d = str(base / name)
        encode_dataset(f"{SF_DIR}/{name}.parquet", d, n_parts=8,
                       conv_col=conv, order_col=order, sort_key=sort, salt_rows=0)
        dirs.append(d)
    return dirs


def test_three_way_join_matches_duckdb_zero_exchange(tri_stores):

    ds = store_join(
        tri_stores,
        columns=[["value"], ["o_totalprice"], ["c_mktsegment"]],
    )
    t = _collect(ds)
    n, sv, sp = duckdb.sql(
        f"""SELECT count(*), round(sum(value), 2), round(sum(o_totalprice), 2)
            FROM '{SF_DIR}/events.parquet'
            JOIN '{SF_DIR}/orders.parquet' ON user_id = o_custkey
            JOIN '{SF_DIR}/customer.parquet' ON c_custkey = user_id"""
    ).fetchone()
    assert t.num_rows == n > 0
    assert round(float(pc.sum(t["value"]).as_py()), 2) == float(sv)
    assert round(float(pc.sum(t["o_totalprice"]).as_py()), 2) == float(sp)
    assert set(t.column_names) == {"user_id", "value", "o_totalprice", "c_mktsegment"}
    # zero exchange: the buckets join in plain tasks (one map stage when
    # streaming) — no all-to-all (sort/shuffle/aggregate) operator anywhere
    stats = ds.stats()
    assert "AllToAll" not in stats and "Sort" not in stats and "Aggregate" not in stats


def test_three_way_left_join_keeps_unmatched(tri_stores):

    # customers with no events drop in inner; anchor on customer + how=left
    ds = store_join(
        [tri_stores[2], tri_stores[1], tri_stores[0]],
        columns=[["c_mktsegment"], ["o_totalprice"], ["value"]],
        how="left",
    )
    t = _collect(ds)
    (n,) = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/customer.parquet'
            LEFT JOIN '{SF_DIR}/orders.parquet' ON o_custkey = c_custkey
            LEFT JOIN '{SF_DIR}/events.parquet' ON user_id = c_custkey"""
    ).fetchone()
    assert t.num_rows == n


def test_store_join_multi_refusals(tri_stores, tmp_path):

    with pytest.raises(ValueError, match="at least 2"):
        store_join([tri_stores[0]])
    with pytest.raises(ValueError, match="join columns"):
        store_join(tri_stores, ons=["user_id", "o_custkey"])
    # non-key column overlap across sides
    with pytest.raises(ValueError, match="multiple sides"):
        store_join(
            [tri_stores[0], tri_stores[1], tri_stores[1]],
            columns=[["value"], ["o_totalprice"], ["o_totalprice"]],
        )
    # layout mismatch (different n_parts) refused via the pairwise check
    bad = str(tmp_path / "events5")
    encode_dataset(f"{SF_DIR}/events.parquet", bad, n_parts=5,
                   conv_col="user_id", order_col="event_id",
                   sort_key=("user_id", "event_id"), salt_rows=0)
    with pytest.raises(ValueError, match="n_parts"):
        store_join([tri_stores[0], tri_stores[1], bad])


def test_cli_join_three_stores(tri_stores):
    import json
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cp = subprocess.run(
        [sys.executable, "-m", "parquet_converter_ray.cli", "--num-cpus", "4",
         "join", *tri_stores,
         "--columns", "value", "--columns", "o_totalprice", "--columns", "c_mktsegment"],
        capture_output=True, text=True, cwd=repo, timeout=300,
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    out = json.loads(cp.stdout.strip().splitlines()[-1])
    (n,) = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/events.parquet'
            JOIN '{SF_DIR}/orders.parquet' ON user_id = o_custkey
            JOIN '{SF_DIR}/customer.parquet' ON c_custkey = user_id"""
    ).fetchone()
    assert out["rows"] == n
    # two stores go through the same subcommand and flags
    cp2 = subprocess.run(
        [sys.executable, "-m", "parquet_converter_ray.cli", "--num-cpus", "4",
         "join", tri_stores[0], tri_stores[1],
         "--columns", "value", "--columns", "o_totalprice", "--limit", "0"],
        capture_output=True, text=True, cwd=repo, timeout=300,
    )
    assert cp2.returncode == 0, cp2.stderr[-2000:]
    out2 = json.loads(cp2.stdout.strip().splitlines()[-1])
    (n2,) = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/events.parquet'
            JOIN '{SF_DIR}/orders.parquet' ON user_id = o_custkey"""
    ).fetchone()
    assert out2["rows"] == n2


# --- dynamic partition pruning (semijoin pushdown) -----------------------------------


def test_store_join_dim_dpp_prunes_and_matches(ray_session, tmp_path):
    """A dim filtered to a handful of keys decodes ONLY the fact containers
    those keys can hash-route to (plus footer-probe survivors); the result
    is identical to the unpruned path and to DuckDB."""
    import pyarrow.parquet as pq

    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=16,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
                   bloom_cols=["l_orderkey"])
    keys = duckdb.sql(
        f"SELECT DISTINCT l_orderkey FROM '{SF_DIR}/lineitem.parquet' "
        "ORDER BY l_orderkey LIMIT 3"
    ).fetchnumpy()["l_orderkey"]
    dim = str(tmp_path / "dim.parquet")
    pq.write_table(
        pa.table({"o_orderkey": pa.array(keys.astype("int64")),
                  "tag": pa.array([f"t{i}" for i in range(len(keys))])}), dim)

    ds, plan = store_join_dim(
        fact, dim, dim_on="o_orderkey",
        fact_columns=["l_orderkey", "l_extendedprice"], dim_columns=["tag"],
        return_plan=True)
    got = _collect(ds).sort_by([("l_orderkey", "ascending"),
                                ("l_extendedprice", "ascending")])
    ref = _collect(store_join_dim(
        fact, dim, dim_on="o_orderkey",
        fact_columns=["l_orderkey", "l_extendedprice"], dim_columns=["tag"],
        dpp=False)).sort_by([("l_orderkey", "ascending"),
                             ("l_extendedprice", "ascending")])
    assert got.equals(ref)
    n = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'
            WHERE l_orderkey IN ({",".join(str(k) for k in keys)})"""
    ).fetchone()[0]
    assert got.num_rows == n > 0
    # 3 keys reach at most 3 of 16 partitions; probe may prune further
    assert plan["dpp_dims"] == 1
    assert plan["pruned_route"] >= plan["parts_total"] - 3
    assert plan["scanned"] <= 3
    assert plan["scanned"] < plan["parts_total"]


def test_store_join_dim_dpp_salted_and_star(ray_session, tmp_path):
    """DPP over a SALTED fact store uses the same hash+salt arithmetic the
    dim routing uses — pruned containers and replicated dim rows stay in
    lockstep; with two dims, surviving partitions are the intersection."""
    import numpy as np
    import pyarrow.parquet as pq

    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=4)
    keys = duckdb.sql(
        f"SELECT DISTINCT l_orderkey FROM '{SF_DIR}/lineitem.parquet' "
        "ORDER BY l_orderkey LIMIT 2"
    ).fetchnumpy()["l_orderkey"].astype("int64")
    d1 = str(tmp_path / "d1.parquet")
    pq.write_table(pa.table({"k1": pa.array(keys), "a": pa.array(["x", "y"])}), d1)
    d2 = str(tmp_path / "d2.parquet")
    pq.write_table(pa.table({"k2": pa.array(keys[:1]), "b": pa.array(["z"])}), d2)

    ds, plan = store_join_dim(
        fact, dims=[(d1, "k1", ["a"]), (d2, "k2", ["b"])],
        fact_columns=["l_orderkey"], return_plan=True)
    got = _collect(ds)
    n = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'
            WHERE l_orderkey = {int(keys[0])}"""
    ).fetchone()[0]
    assert got.num_rows == n > 0
    assert plan["dpp_dims"] == 2
    # the intersection is ONE key's reachable partitions
    assert plan["scanned"] < plan["parts_total"]
    ref = _collect(store_join_dim(
        fact, dims=[(d1, "k1", ["a"]), (d2, "k2", ["b"])],
        fact_columns=["l_orderkey"], dpp=False))
    assert got.sort_by("l_orderkey").equals(ref.sort_by("l_orderkey"))


def test_store_join_dim_dpp_fallbacks(ray_session, tmp_path, monkeypatch):
    """Over-cap dims stream exactly as before (no pruning, identical rows);
    left joins never prune (every fact row must survive)."""
    import pyarrow.parquet as pq

    from parquet_converter_ray import storejoin
    from parquet_converter_ray.storejoin import store_join_dim

    fact = str(tmp_path / "fact")
    encode_dataset(f"{SF_DIR}/lineitem.parquet", fact, n_parts=8,
                   conv_col="l_orderkey", order_col="l_linenumber",
                   sort_key=("l_orderkey", "l_linenumber"), salt_rows=0)
    half = str(tmp_path / "orders_half.parquet")
    ot = pq.read_table(f"{SF_DIR}/orders.parquet",
                       columns=["o_orderkey", "o_orderpriority"])
    ot = ot.filter(pc.equal(pc.bit_wise_and(ot["o_orderkey"], 1), 0))
    pq.write_table(ot, half)

    monkeypatch.setattr(storejoin, "_DPP_MAX_DIM_ROWS", 5)
    ds, plan = store_join_dim(
        fact, half, dim_on="o_orderkey",
        fact_columns=["l_orderkey"], dim_columns=["o_orderpriority"],
        return_plan=True)
    assert plan["dpp_dims"] == 0
    assert plan["scanned"] == plan["parts_total"]
    n = duckdb.sql(
        f"""SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'
            WHERE l_orderkey % 2 = 0"""
    ).fetchone()[0]
    assert _collect(ds).num_rows == n
    monkeypatch.undo()

    # left join: dpp must not engage even when the dim is collectible
    ds, plan = store_join_dim(
        fact, half, dim_on="o_orderkey", how="left",
        fact_columns=["l_orderkey"], dim_columns=["o_orderpriority"],
        return_plan=True)
    assert plan["scanned"] == plan["parts_total"]
    total = duckdb.sql(
        f"SELECT count(*) FROM '{SF_DIR}/lineitem.parquet'").fetchone()[0]
    assert _collect(ds).num_rows == total


# --- one joiner: empty buckets and the two-store form ---------------------------------


@pytest.fixture(scope="module")
def sparse_stores(ray_session, tmp_path_factory):
    """Three co-bucketed stores (4 parts) that share ONE key, 0: every other
    bucket holds containers on every side whose keys never meet."""
    base = tmp_path_factory.mktemp("storejoin_sparse")
    dirs = []
    for tag, keys, vals in [
        ("a", range(0, 64), pa.array([i / 4 for i in range(64)], pa.float64())),
        ("b", [0, *range(1000, 1063)], pa.array([f"b{i}" for i in range(64)])),
        ("c", [0, *range(2000, 2063)], pa.array(range(64), pa.int32())),
    ]:
        t = pa.table({f"k{tag}": pa.array(keys, pa.int64()),
                      f"{tag}_ord": pa.array(range(64), pa.int64()),
                      f"{tag}_val": vals})
        d = str(base / tag)
        encode_dataset(ray.data.from_arrow(t), d, n_parts=4, conv_col=f"k{tag}",
                       order_col=f"{tag}_ord", sort_key=(f"k{tag}", f"{tag}_ord"),
                       salt_rows=0)
        dirs.append(d)
    return dirs


@pytest.mark.parametrize("n", [2, 3])
def test_bucket_that_joins_to_nothing_keeps_output_schema(sparse_stores, monkeypatch, n):
    """An inner join's bucket with no matching key yields a 0-row block of
    the output schema (never a column-less table), for the two-store form
    and for three stores; the joined Dataset reports that schema too."""
    from parquet_converter_ray import storejoin

    made = []

    class Spy(storejoin._MultiBucketJoiner):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            made.append(self)

    monkeypatch.setattr(storejoin, "_MultiBucketJoiner", Spy)
    dirs = sparse_stores[:n]
    ds = store_join(dirs)
    (joiner,) = made
    by_part = [storejoin._paths_by_part(d) for d in dirs]
    outs = [joiner([m[p] for m in by_part])
            for p in sorted(set.intersection(*(set(m) for m in by_part)))]
    full = [t for t in outs if t.num_rows]
    assert len(full) == 1 and full[0].num_rows == 1 and len(outs) > 1
    schema = full[0].schema
    want = ["ka", "a_ord", "a_val", "b_ord", "b_val", "c_ord", "c_val"][: 1 + 2 * n]
    assert schema.names == want
    for t in outs:
        assert t.schema.equals(schema)
    s = ds.schema()
    assert (list(s.names), list(s.types)) == (schema.names, schema.types)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_store_join_default_ons(stores, how):
    """A None join column (or ``ons=None``) is the store's recorded
    partition column."""
    o_dir, l_dir = stores
    cols = ["l_quantity", "l_shipdate"]
    a = _collect(store_join([o_dir, l_dir], columns=[None, cols], how=how))
    b = _collect(store_join([o_dir, l_dir], ons=["o_orderkey", None], columns=[None, cols],
                            how=how))
    assert a.num_rows > 0 and a.column_names == b.column_names
    key = [(c, "ascending") for c in a.column_names]
    assert a.sort_by(key).equals(b.sort_by(key))


def test_dim_group_that_joins_to_nothing_keeps_output_schema(sparse_stores, monkeypatch):
    """``store_join_dim``'s group joiner returns a 0-row table of the output
    schema (fact columns, then each dimension's columns in join order) for a
    group with no fact container and for an inner-join group missing a
    dimension side — never a column-less table."""
    from ray.data.grouped_data import GroupedData

    from parquet_converter_ray.container import decode_table
    from parquet_converter_ray.storejoin import _paths_by_part, store_join_dim

    made = []
    real = GroupedData.map_groups

    def spy(self, fn, *a, **kw):
        made.append(fn)
        return real(self, fn, *a, **kw)

    monkeypatch.setattr(GroupedData, "map_groups", spy)
    fact = sparse_stores[0]
    dims = [(ray.data.from_arrow(pa.table({"k": pa.array([0], pa.int64()), "d1": ["x"]})),
             "k", ["d1"]),
            (ray.data.from_arrow(pa.table({"k2": pa.array([0], pa.int64()), "d2": [1.5]})),
             "k2", ["d2"])]
    store_join_dim(fact, dims=dims, dpp=False)
    (join_group,) = made
    path = next(p for ps in _paths_by_part(fact).values() for p in ps
                if 0 in decode_table(pathlib.Path(p).read_bytes(), ["ka"])["ka"].to_pylist())

    def group(rows):  # one co-group as the union hands it over, null-filled
        cols = {"part_id": pa.int32(), "path": pa.string(), "side": pa.string(),
                "k": pa.int64(), "d1": pa.string(), "k2": pa.int64(), "d2": pa.float64()}
        return pa.table({c: pa.array([r.get(c) for r in rows], t) for c, t in cols.items()})

    file = {"part_id": 0, "path": path, "side": "file"}
    full = join_group(group([file, {"side": "dim0", "k": 0, "d1": "x"},
                             {"side": "dim1", "k2": 0, "d2": 1.5}]))
    assert full.num_rows == 1
    assert full.column_names == ["ka", "a_ord", "a_val", "d1", "d2"]
    no_fact = join_group(group([{"side": "dim0", "k": 0, "d1": "x"}]))
    no_dim = join_group(group([file, {"side": "dim0", "k": 0, "d1": "x"}]))
    for t in (no_fact, no_dim):
        assert t.num_rows == 0 and t.schema.equals(full.schema)
