"""Deterministic hash-sample pushdown (storesample.store_sample)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storesample import store_sample

N = 10_000


def _table() -> pa.Table:
    rng = np.random.default_rng(31)
    k = np.arange(N, dtype=np.int64)
    return pa.table(
        {
            "k": pa.array(k),
            "name": pa.array([f"row-{i:06d}" for i in k]),
            "price": pa.array(np.round(rng.uniform(10, 1000, N), 2)),
            "flag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, N)]),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ssamp") / "store")
    encode_dataset(
        ray.data.from_arrow(table), out, conv_col="k", order_col="k",
        salt_rows=0, n_parts=4,
    )
    return out


def _duck(table: pa.Table, sql: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    return con.execute(sql).fetch_arrow_table()


def test_sample_matches_sql(store, table):
    got = store_sample(store, "k", 50, seed="s1", columns=["k", "price"])
    exp = _duck(
        table,
        "SELECT k, price FROM t "
        "ORDER BY md5(CAST(k AS VARCHAR) || ':s1'), k LIMIT 50",
    )
    assert got.to_pydict() == exp.to_pydict()


def test_sample_string_key(store, table):
    got = store_sample(store, "name", 40, seed="x", columns=["name", "flag"])
    exp = _duck(
        table, "SELECT name, flag FROM t ORDER BY md5(name || ':x'), name LIMIT 40"
    )
    assert got.to_pydict() == exp.to_pydict()


def test_sample_deterministic_and_seed_sensitive(store):
    a = store_sample(store, "k", 30, seed="a")
    b = store_sample(store, "k", 30, seed="a")
    c = store_sample(store, "k", 30, seed="b")
    assert a.to_pydict() == b.to_pydict()
    assert set(a["k"].to_pylist()) != set(c["k"].to_pylist())


def test_sample_with_predicate(store, table):
    got = store_sample(
        store, "k", 25, seed="p", predicate=[("flag", "==", "R")],
        columns=["k", "flag"],
    )
    exp = _duck(
        table,
        "SELECT k, flag FROM t WHERE flag = 'R' "
        "ORDER BY md5(CAST(k AS VARCHAR) || ':p'), k LIMIT 25",
    )
    assert got.to_pydict() == exp.to_pydict()


def test_sample_roughly_uniform(store):
    got = store_sample(store, "k", 2000, seed="u", columns=["k"])
    ks = np.array(got["k"].to_pylist())
    # 2000 of 10000 rows: each quartile of the key space should hold ~500
    counts = np.histogram(ks, bins=4, range=(0, N))[0]
    assert counts.min() > 350 and counts.max() < 650, counts


def test_sample_family(store, table, tmp_path_factory, ray_session):
    out2 = str(tmp_path_factory.mktemp("ssamp2") / "store2")
    t2 = pa.table(
        {
            "k": pa.array(np.arange(N, N + 1000, dtype=np.int64)),
            "name": pa.array([f"row-{i:06d}" for i in range(N, N + 1000)]),
            "price": pa.array(np.full(1000, 5.0)),
            "flag": pa.array(["Z"] * 1000),
        }
    )
    encode_dataset(
        ray.data.from_arrow(t2), out2, conv_col="k", order_col="k",
        salt_rows=0, n_parts=2,
    )
    got = store_sample([store, out2], "k", 60, seed="f", columns=["k"])
    both = pa.concat_tables([table.select(["k"]), t2.select(["k"])])
    exp = _duck(
        both, "SELECT k FROM t ORDER BY md5(CAST(k AS VARCHAR) || ':f'), k LIMIT 60"
    )
    assert got.to_pydict() == exp.to_pydict()


def test_sample_duplicate_key_refused(tmp_path_factory, ray_session):
    out = str(tmp_path_factory.mktemp("ssampd") / "store")
    t = pa.table(
        {
            "k": pa.array([1, 1, 2, 3] * 50, type=pa.int64()),
            "v": pa.array(list(range(200))),
        }
    )
    encode_dataset(ray.data.from_arrow(t), out, conv_col="k", order_col="v",
                   salt_rows=0, n_parts=1)
    with pytest.raises(ValueError, match="not unique"):
        store_sample(out, "k", 200)


def test_sample_bounds_and_bad_key(store):
    with pytest.raises(ValueError, match="outside"):
        store_sample(store, "k", 0)
    with pytest.raises(ValueError, match="int or string"):
        store_sample(store, "price", 5)
    with pytest.raises(ValueError, match="not in store schema"):
        store_sample(store, "nope", 5)


# --- stratified (per-group) sampling ------------------------------------------


def _duck_strat(table, key, group, n, seed, where=""):
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    kexpr = f"CAST({key} AS VARCHAR)" if key == "k" else key
    return con.execute(
        f"SELECT * EXCLUDE (rn) FROM ("
        f"  SELECT {group}, {key}, ROW_NUMBER() OVER ("
        f"    PARTITION BY {group} ORDER BY md5({kexpr} || ':{seed}'), {key}"
        f"  ) rn FROM t {where}"
        f") WHERE rn <= {n} ORDER BY {group}, md5({kexpr} || ':{seed}'), {key}"
    ).fetch_arrow_table()


def test_stratified_matches_sql(store, table):
    from parquet_converter_ray.storesample import store_sample_stratified

    got = store_sample_stratified(store, "k", ["flag"], 7, seed="st")
    exp = _duck_strat(table, "k", "flag", 7, "st").select(["flag", "k"])
    assert got.to_pydict() == exp.to_pydict()
    # exactly 7 per stratum
    import collections

    assert set(collections.Counter(got["flag"].to_pylist()).values()) == {7}


def test_stratified_with_predicate(store, table):
    from parquet_converter_ray.storesample import store_sample_stratified

    got = store_sample_stratified(
        store, "k", ["flag"], 4, seed="p2",
        predicate=[("price", ">=", 500)],
    )
    exp = _duck_strat(
        table, "k", "flag", 4, "p2", where="WHERE price >= 500"
    ).select(["flag", "k"])
    assert got.to_pydict() == exp.to_pydict()


def test_stratified_string_key_and_columns(store, table):
    from parquet_converter_ray.storesample import store_sample_stratified

    got = store_sample_stratified(
        store, "name", ["flag"], 3, seed="s",
        columns=["flag", "name", "price"],
    )
    exp = _duck_strat(table, "name", "flag", 3, "s")
    assert got.num_rows == exp.num_rows == 9
    assert got["name"].to_pylist() == exp["name"].to_pylist()
    assert got.column_names == ["flag", "name", "price"]
