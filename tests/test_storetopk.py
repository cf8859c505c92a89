"""ORDER BY ... LIMIT pushdown (storetopk.store_topk) over encoded stores."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storetopk import store_topk

N = 20_000


def _table() -> pa.Table:
    rng = np.random.default_rng(23)
    k = np.arange(N, dtype=np.int64)
    price = np.round(rng.uniform(10, 1000, N), 2)
    pnull = [None if m else float(v)
             for m, v in zip(rng.random(N) < 0.04, price)]
    pnan = price.copy()
    pnan[rng.random(N) < 0.03] = np.nan
    ts = (np.int64(820454400_000_000) + rng.integers(0, 10**9, N) * np.int64(86_400)).astype(
        "datetime64[us]"
    )
    flag = np.array(["A", "N", "R"])[rng.integers(0, 3, N)]
    return pa.table(
        {
            "k": pa.array(k),
            "qty": pa.array(rng.integers(1, 51, N)),
            "price": pa.array(price),
            "pnull": pa.array(pnull, type=pa.float64()),
            "pnan": pa.array(pnan).cast(pa.float64()),
            "ts": pa.array(ts),
            "flag": pa.array(flag),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    """Range-clustered on ``price`` so the τ clause prunes the low end."""
    out = str(tmp_path_factory.mktemp("stopk") / "store")
    encode_dataset(
        ray.data.from_arrow(table),
        out,
        conv_col="k",
        order_col="k",
        sort_key=("price", "k"),
        salt_rows=0,
        cluster_by="price",
        n_parts=8,
    )
    return out


def _duck_topk(table: pa.Table, sql: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    return con.execute(sql).fetch_arrow_table()


def _eq(a: pa.Table, b: pa.Table):
    assert a.num_rows == b.num_rows, (a.num_rows, b.num_rows)
    for c in a.column_names:
        av, bv = a[c].to_pylist(), b[c].to_pylist()
        assert av == bv or all(
            (x == y) or (isinstance(x, float) and isinstance(y, float)
                         and np.isnan(x) and np.isnan(y))
            for x, y in zip(av, bv)
        ), (c, av[:5], bv[:5])


def test_topk_desc_prunes(store, table):
    got, plan = store_topk(
        store, "price", 15, desc=True, columns=["k", "price"],
        tiebreak=["k"], return_plan=True,
    )
    assert plan["tau"] is not None
    assert plan["pruned_stats"] > 0, f"low-price containers should prune: {plan}"
    exp = _duck_topk(
        table, "SELECT k, price FROM t ORDER BY price DESC, k LIMIT 15"
    )
    _eq(got, exp)


def test_topk_asc(store, table):
    got, plan = store_topk(
        store, "price", 10, desc=False, columns=["k", "price"],
        tiebreak=["k"], return_plan=True,
    )
    assert plan["pruned_stats"] > 0, plan
    exp = _duck_topk(table, "SELECT k, price FROM t ORDER BY price ASC, k LIMIT 10")
    _eq(got, exp)


def test_topk_with_predicate(store, table):
    got, plan = store_topk(
        store, "price", 12, predicate=[("flag", "==", "R")],
        columns=["k", "price", "flag"], tiebreak=["k"], return_plan=True,
    )
    exp = _duck_topk(
        table,
        "SELECT k, price, flag FROM t WHERE flag = 'R' "
        "ORDER BY price DESC, k LIMIT 12",
    )
    _eq(got, exp)


def test_topk_nulls_last(store, table):
    got = store_topk(store, "pnull", 2000, desc=True,
                     columns=["k", "pnull"], tiebreak=["k"])
    exp = _duck_topk(
        table, "SELECT k, pnull FROM t ORDER BY pnull DESC NULLS LAST, k LIMIT 2000"
    )
    _eq(got, exp)


def test_topk_float_nan_sorts_greatest(store, table):
    got, plan = store_topk(store, "pnan", 25, desc=True,
                           columns=["k", "pnan"], tiebreak=["k"],
                           return_plan=True)
    assert plan["tau"] is None, "NaN-bearing float column must not synthesize τ"
    exp = _duck_topk(table, "SELECT k, pnan FROM t ORDER BY pnan DESC NULLS LAST, k LIMIT 25")
    _eq(got, exp)


def test_topk_timestamp_order_col(store, table):
    got = store_topk(store, "ts", 8, desc=True, columns=["k", "ts"], tiebreak=["k"])
    exp = _duck_topk(table, "SELECT k, ts FROM t ORDER BY ts DESC, k LIMIT 8")
    _eq(got, exp)


def test_topk_k_larger_than_store(store, table):
    got = store_topk(store, "price", 50_000, columns=["k", "price"], tiebreak=["k"])
    assert got.num_rows == N


def test_topk_k_bounds(store):
    with pytest.raises(ValueError, match="outside"):
        store_topk(store, "price", 0)
    with pytest.raises(ValueError, match="outside"):
        store_topk(store, "price", 10**7)


def test_topk_family(store, table, tmp_path_factory, ray_session):
    out2 = str(tmp_path_factory.mktemp("stopk2") / "store2")
    t2 = pa.table(
        {
            "k": pa.array(np.arange(N, N + 300, dtype=np.int64)),
            "price": pa.array(np.linspace(2000.0, 2300.0, 300)),
        }
    )
    encode_dataset(
        ray.data.from_arrow(t2), out2, conv_col="k", order_col="k",
        salt_rows=0, n_parts=2,
    )
    got, plan = store_topk(
        [store, out2], "price", 5, columns=["k", "price"], tiebreak=["k"],
        return_plan=True,
    )
    # the new store's 300 high rows guarantee τ; the base store prunes fully
    assert got["price"].to_pylist() == sorted(
        np.linspace(2000.0, 2300.0, 300).tolist(), reverse=True
    )[:5]
    assert plan["pruned_stats"] >= 8, plan


def test_topk_unknown_column(store):
    with pytest.raises(ValueError, match="not in store schema"):
        store_topk(store, "nope", 5)


# --- grouped top-k -----------------------------------------------------------


def _duck_group_topk(table, group, order, k, desc=True, tiebreak=("k",), where=""):
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    d = "DESC" if desc else "ASC"
    tb = ", ".join(tiebreak)
    return con.execute(
        f"SELECT * EXCLUDE (rn) FROM (SELECT *, ROW_NUMBER() OVER "
        f"(PARTITION BY {group} ORDER BY {order} {d} NULLS LAST, {tb}) rn "
        f"FROM t {where}) WHERE rn <= {k} ORDER BY {group}, rn"
    ).fetch_arrow_table()


def test_group_topk_matches_rownumber(store, table):
    from parquet_converter_ray.storetopk import store_group_topk

    got = store_group_topk(
        store, ["flag"], "price", 4, columns=["flag", "k", "price"],
        tiebreak=["k"],
    )
    exp = _duck_group_topk(table, "flag", "price", 4).select(["flag", "k", "price"])
    got = got.sort_by([("flag", "ascending"), ("price", "descending"), ("k", "ascending")])
    exp = exp.sort_by([("flag", "ascending"), ("price", "descending"), ("k", "ascending")])
    _eq(got, exp)


def test_group_topk_asc_with_predicate(store, table):
    from parquet_converter_ray.storetopk import store_group_topk

    got, plan = store_group_topk(
        store, ["flag"], "price", 3, desc=False,
        predicate=[("qty", ">=", 40)],
        columns=["flag", "k", "price", "qty"], tiebreak=["k"], return_plan=True,
    )
    exp = _duck_group_topk(
        table, "flag", "price", 3, desc=False, where="WHERE qty >= 40"
    ).select(["flag", "k", "price", "qty"])
    key = [("flag", "ascending"), ("price", "ascending"), ("k", "ascending")]
    _eq(got.sort_by(key), exp.sort_by(key))


def test_group_topk_null_order_values(store, table):
    from parquet_converter_ray.storetopk import store_group_topk

    got = store_group_topk(
        store, ["flag"], "pnull", 2500, columns=["flag", "k", "pnull"],
        tiebreak=["k"],
    )
    exp = _duck_group_topk(table, "flag", "pnull", 2500).select(["flag", "k", "pnull"])
    key = [("flag", "ascending"), ("k", "ascending")]
    _eq(got.sort_by(key), exp.sort_by(key))


def test_group_topk_nan_greatest(store, table):
    from parquet_converter_ray.storetopk import store_group_topk

    got = store_group_topk(
        store, ["flag"], "pnan", 5, columns=["flag", "k", "pnan"], tiebreak=["k"],
    )
    exp = _duck_group_topk(table, "flag", "pnan", 5).select(["flag", "k", "pnan"])
    key = [("flag", "ascending"), ("k", "ascending")]
    _eq(got.sort_by(key), exp.sort_by(key))


def test_group_topk_multi_group_cols(store, table):
    from parquet_converter_ray.storetopk import store_group_topk

    got = store_group_topk(
        store, ["flag", "qty"], "price", 1, columns=["flag", "qty", "k", "price"],
        tiebreak=["k"],
    )
    exp = _duck_group_topk(table, "flag, qty", "price", 1).select(
        ["flag", "qty", "k", "price"]
    )
    key = [("flag", "ascending"), ("qty", "ascending"), ("k", "ascending")]
    _eq(got.sort_by(key), exp.sort_by(key))


def test_group_topk_guard(store):
    from parquet_converter_ray.storetopk import store_group_topk

    with pytest.raises(ValueError, match="max_partial_rows"):
        store_group_topk(store, ["k"], "price", 10, max_partial_rows=100)
