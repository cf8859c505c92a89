"""DISTINCT pushdown (storedistinct.store_distinct) over encoded stores."""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storedistinct import store_distinct

N = 20_000


def _table() -> pa.Table:
    rng = np.random.default_rng(11)
    k = np.arange(N, dtype=np.int64)
    grp = rng.integers(0, 37, N)
    price = np.round(rng.uniform(10, 1000, N), 2)
    null_mask = rng.random(N) < 0.05
    nan_mask = rng.random(N) < 0.03
    fnoisy = np.round(rng.uniform(0, 5, N), 1)
    fnoisy[nan_mask] = np.nan
    ts = (np.int64(820454400_000_000) + rng.integers(0, 10**9, N) * np.int64(86_400)).astype(
        "datetime64[us]"
    )
    flag = np.array(["A", "N", "R"])[rng.integers(0, 3, N)]
    mode = np.array(["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"])[rng.integers(0, 5, N)]
    return pa.table(
        {
            "k": pa.array(k),
            "grp": pa.array(grp),
            "price_null": pa.array(
                [None if m else float(v) for m, v in zip(null_mask, price)],
                type=pa.float64(),
            ),
            "fnoisy": pa.array(fnoisy).cast(pa.float64()),
            "ts": pa.array(ts),
            "flag": pa.array(flag),
            "mode": pa.array(mode),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sdis") / "store")
    encode_dataset(
        ray.data.from_arrow(table),
        out,
        conv_col="k",
        order_col="k",
        sort_key=("ts", "k"),
        salt_rows=0,
        cluster_by="ts",
        n_parts=8,
    )
    return out


def _duck_distinct(table: pa.Table, col: str, where: str = ""):
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    q = f"SELECT DISTINCT {col} AS v FROM t {where}"
    return con.execute(q).fetch_arrow_table()["v"]


def _as_set(arr):
    out = set()
    for v in arr.to_pylist():
        if isinstance(v, float) and math.isnan(v):
            out.add("__nan__")
        else:
            out.add(v)
    return out


def test_distinct_dict_column_footer_only(store, table):
    got, plan = store_distinct(store, "flag", return_plan=True)
    assert _as_set(got["flag"]) == _as_set(_duck_distinct(table, "flag"))
    # low-card string -> dict codec, zero nulls: every container answers
    # from footer dictionaries (or single-valued zone maps); nothing decodes
    assert plan["scanned"] == 0, plan
    assert plan["footer_answered"] + plan["meta_answered"] == plan["parts_total"], plan


def test_distinct_with_predicate_prunes(store, table):
    cut = pa.compute.min_max(table["ts"])["max"].as_py().isoformat(sep=" ")
    lo = "1997-01-01 00:00:00"
    got, plan = store_distinct(
        store, "mode", [("ts", ">=", lo)], return_plan=True
    )
    assert plan["pruned_stats"] > 0, f"range clustering should prune the pre-band: {plan}"
    assert _as_set(got["mode"]) == _as_set(
        _duck_distinct(table, "mode", f"WHERE ts >= TIMESTAMP '{lo}'")
    )
    assert cut  # silence unused


def test_distinct_nulls_last(store, table):
    got = store_distinct(store, "price_null")
    vals = got["price_null"].to_pylist()
    assert vals[-1] is None and None not in vals[:-1]
    assert _as_set(got["price_null"]) == _as_set(_duck_distinct(table, "price_null"))


def test_distinct_float_nan_unified(store, table):
    got = store_distinct(store, "fnoisy")
    s = _as_set(got["fnoisy"])
    assert "__nan__" in s
    assert s == _as_set(_duck_distinct(table, "fnoisy"))
    # exactly one NaN row
    assert sum(1 for v in got["fnoisy"].to_pylist()
               if isinstance(v, float) and math.isnan(v)) == 1


def test_distinct_int_and_timestamp_types(store, table):
    got = store_distinct(store, "grp")
    assert got["grp"].type == table["grp"].type
    assert _as_set(got["grp"]) == _as_set(_duck_distinct(table, "grp"))
    ts = store_distinct(store, "ts")
    assert ts["ts"].type == table["ts"].type
    assert ts.num_rows == len(pa.compute.unique(table["ts"].combine_chunks()))


def test_distinct_max_values_guard(store):
    with pytest.raises(ValueError, match="max_values"):
        store_distinct(store, "k", max_values=100)


def test_distinct_family(store, table, tmp_path_factory, ray_session):
    out2 = str(tmp_path_factory.mktemp("sdis2") / "store2")
    t2 = pa.table(
        {
            "k": pa.array(np.arange(N, N + 500, dtype=np.int64)),
            "grp": pa.array(np.full(500, 99, dtype=np.int64)),
            "price_null": pa.array(np.full(500, 1.5), type=pa.float64()),
            "fnoisy": pa.array(np.full(500, 2.5), type=pa.float64()),
            "ts": pa.array(
                np.full(500, np.datetime64("2001-01-01", "us"))
            ),
            "flag": pa.array(["Z"] * 500),
            "mode": pa.array(["PIPE"] * 500),
        }
    )
    encode_dataset(
        ray.data.from_arrow(t2), out2, conv_col="k", order_col="k",
        salt_rows=0, n_parts=2,
    )
    got = store_distinct([store, out2], "flag")
    assert _as_set(got["flag"]) == _as_set(_duck_distinct(table, "flag")) | {"Z"}


def test_distinct_family_type_mismatch_refused(store, tmp_path_factory, ray_session):
    out3 = str(tmp_path_factory.mktemp("sdis3") / "store3")
    t3 = pa.table(
        {
            "k": pa.array(np.arange(100, dtype=np.int64)),
            "flag": pa.array(np.arange(100, dtype=np.int64)),  # int, not string
        }
    )
    encode_dataset(
        ray.data.from_arrow(t3), out3, conv_col="k", order_col="k",
        salt_rows=0, n_parts=1,
    )
    with pytest.raises(ValueError, match="disagree"):
        store_distinct([store, out3], "flag")


def test_distinct_unknown_column_refused(store):
    with pytest.raises(ValueError, match="not in store schema"):
        store_distinct(store, "nope")


def test_approx_distinct_close_to_exact(store, table):
    from parquet_converter_ray.storedistinct import store_approx_distinct

    n = store_approx_distinct(store, "k")
    assert abs(n - N) / N < 0.05, n
    # predicate path: approx over the band tracks the exact band count
    lo = "1997-01-01 00:00:00"
    n2 = store_approx_distinct(store, "k", [("ts", ">=", lo)])
    import pyarrow.compute as pc

    exact = len(
        pc.unique(
            table.filter(
                pc.greater_equal(table["ts"], pa.scalar(np.datetime64(lo.replace(" ", "T"), "us")))
            )["k"].combine_chunks()
        )
    )
    assert abs(n2 - exact) / max(exact, 1) < 0.05, (n2, exact)
