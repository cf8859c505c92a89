"""GROUP BY aggregate pushdown (storegroup.store_agg_group) over encoded
stores: DuckDB ground truth, metadata-only plans on clustered layouts, the
driver-fold cardinality guard, and family folds."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storegroup import store_agg_group

N = 20_000


def _table(seed: int = 11) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = np.arange(N, dtype=np.int64)
    flag = np.where(
        rng.random(N) < 0.02, None, np.array(["A", "B", "C"])[rng.integers(0, 3, N)]
    )
    ts = (
        np.int64(820454400_000_000) + rng.integers(0, 10**9, N) * np.int64(86_400)
    ).astype("datetime64[us]")
    return pa.table(
        {
            "k": pa.array(k),
            "ln": pa.array(np.zeros(N, np.int32)),
            "flag": pa.array(flag, pa.string()),
            "day": pa.array(rng.integers(0, 8, N), pa.int64()),
            "qty": pa.array(rng.integers(-5, 50, N), pa.int64()),
            "price": pa.array(np.round(rng.normal(100, 15, N), 2), pa.float64()),
            "ts": pa.array(ts),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sgrp") / "store")
    encode_dataset(
        ray.data.from_arrow(table),
        out,
        conv_col="k",
        order_col="ln",
        sort_key=("k", "ln"),
        salt_rows=0,
        n_parts=6,
    )
    return out


@pytest.fixture(scope="module")
def day_store(ray_session, table, tmp_path_factory):
    """Range-clustered by the low-cardinality ``day`` column: most containers
    hold a single day, so GROUP BY day answers mostly from metadata."""
    out = str(tmp_path_factory.mktemp("sgrp") / "day_store")
    encode_dataset(
        ray.data.from_arrow(table),
        out,
        conv_col="k",
        order_col="ln",
        sort_key=("k", "ln"),
        salt_rows=0,
        cluster_by="day",
        n_parts=8,
    )
    return out


def _oracle(table: pa.Table, sql: str):
    con = duckdb.connect()
    con.register("t", table)
    return con.sql(sql).df()


def _cmp(got: pa.Table, exp, keys):
    import pandas as pd

    g = got.to_pandas().sort_values(keys, na_position="last").reset_index(drop=True)
    e = exp.sort_values(keys, na_position="last").reset_index(drop=True)
    assert list(g.columns).sort() == list(e.columns).sort()
    assert len(g) == len(e), (len(g), len(e))
    for c in e.columns:
        a, b = g[c], e[c]
        if pd.api.types.is_float_dtype(b):
            assert np.allclose(
                a.astype(float), b.astype(float), rtol=1e-9, equal_nan=True
            ), c
        else:
            av = a.astype(object).where(pd.notna(a), None).tolist()
            bv = b.astype(object).where(pd.notna(b), None).tolist()
            assert av == bv, (c, av[:5], bv[:5])


def test_group_matches_duckdb_with_nulls_and_predicate(store, table):
    got, plan = store_agg_group(
        store,
        ["flag"],
        ["count", "nn:price", "sum:qty", "min:price", "max:ts", "sum:price"],
        [("qty", ">=", 0)],
        return_plan=True,
    )
    exp = _oracle(
        table,
        """SELECT flag, COUNT(*) AS count, COUNT(price) AS nn_price,
           CAST(SUM(qty) AS BIGINT) AS sum_qty, MIN(price) AS min_price,
           MAX(ts) AS max_ts, SUM(price) AS sum_price
           FROM t WHERE qty >= 0 GROUP BY flag""",
    )
    assert plan["parts_total"] == 6
    _cmp(got, exp, ["flag"])


def test_group_by_multiple_columns_incl_timestamp_key(store, table):
    # timestamp-typed group key travels the int64 physical domain and casts
    # back; day x flag exercises a composite key with a NULL component
    got = store_agg_group(store, ["day", "flag"], ["count", "min:qty"])
    exp = _oracle(
        table,
        "SELECT day, flag, COUNT(*) AS count, MIN(qty) AS min_qty FROM t GROUP BY 1,2",
    )
    _cmp(got, exp, ["day", "flag"])


def test_metadata_only_group_on_clustered_store(day_store, table):
    got, plan = store_agg_group(
        day_store, ["day"], ["count", "sum:qty", "min:qty", "max:qty"],
        return_plan=True,
    )
    # single-valued containers answer from manifest stats without opening;
    # only day-boundary containers (if any) scan
    assert plan["meta_answered"] >= plan["parts_total"] - 2, plan
    exp = _oracle(
        table,
        """SELECT day, COUNT(*) AS count, CAST(SUM(qty) AS BIGINT) AS sum_qty,
           MIN(qty) AS min_qty, MAX(qty) AS max_qty FROM t GROUP BY day""",
    )
    _cmp(got, exp, ["day"])


def test_metadata_and_scan_fold_identically(day_store, table):
    """The same query with the metadata path disabled (predicate that proves
    nothing) must fold to identical values — meta rows and scan partials are
    the same physical domain."""
    got_meta, plan_meta = store_agg_group(
        day_store, ["day"], ["count", "sum:qty"], return_plan=True
    )
    got_scan, plan_scan = store_agg_group(
        day_store,
        ["day"],
        ["count", "sum:qty"],
        [("qty", ">=", -1000)],  # matches every row; plan may meta-prove or scan
        return_plan=True,
    )
    # whichever classes the two plans chose, the folded values must agree
    a = got_meta.sort_by([("day", "ascending")]).to_pydict()
    b = got_scan.sort_by([("day", "ascending")]).to_pydict()
    assert a == b


def test_min_of_group_key_itself(store, table):
    got = store_agg_group(store, ["flag"], ["count", "min:flag", "max:flag"])
    exp = _oracle(
        table,
        "SELECT flag, COUNT(*) AS count, MIN(flag) AS min_flag, MAX(flag) AS max_flag FROM t GROUP BY flag",
    )
    _cmp(got, exp, ["flag"])


def test_cardinality_guard_raises(store):
    with pytest.raises(ValueError, match="max_partial_rows"):
        store_agg_group(store, ["k"], ["count"], max_partial_rows=10)


def test_validation_errors(store):
    with pytest.raises(ValueError, match="group column"):
        store_agg_group(store, ["nope"], ["count"])
    with pytest.raises(ValueError, match="sum over non-numeric"):
        store_agg_group(store, ["flag"], ["sum:flag"])
    with pytest.raises(ValueError, match="at least one group column"):
        store_agg_group(store, [], ["count"])


def test_family_fold_matches_single(ray_session, table, store, tmp_path_factory):
    """A family of two halves folds to the same answer as one store over the
    union; type disagreement is refused loudly."""
    half = N // 2
    t1, t2 = table.slice(0, half), table.slice(half)
    d1 = str(tmp_path_factory.mktemp("sgrpf") / "a")
    d2 = str(tmp_path_factory.mktemp("sgrpf") / "b")
    for d, t in ((d1, t1), (d2, t2)):
        encode_dataset(
            ray.data.from_arrow(t), d, conv_col="k", order_col="ln",
            sort_key=("k", "ln"), salt_rows=0, n_parts=3,
        )
    fam = store_agg_group([d1, d2], ["flag"], ["count", "sum:qty", "min:price"])
    single = store_agg_group(store, ["flag"], ["count", "sum:qty", "min:price"])
    a = fam.sort_by([("flag", "ascending")]).to_pydict()
    b = single.sort_by([("flag", "ascending")]).to_pydict()
    assert a == b

    # type disagreement refused
    t3 = t2.set_column(
        t2.schema.get_field_index("qty"), "qty", t2["qty"].cast(pa.float64())
    )
    d3 = str(tmp_path_factory.mktemp("sgrpf") / "c")
    encode_dataset(
        ray.data.from_arrow(t3), d3, conv_col="k", order_col="ln",
        sort_key=("k", "ln"), salt_rows=0, n_parts=3,
    )
    with pytest.raises(ValueError, match="disagree"):
        store_agg_group([d1, d3], ["flag"], ["sum:qty"])


def test_cli_group_by(store, table, capsys):
    import json

    from parquet_converter_ray.cli import main

    rc = main(["agg", store, "--agg", "count", "--agg", "sum:qty",
               "--group-by", "flag", "--where", "qty >= 0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head = json.loads(lines[0])
    assert "plan" in head
    rows = [json.loads(ln) for ln in lines[1:]]
    exp = _oracle(
        table,
        """SELECT flag, COUNT(*) AS count, CAST(SUM(qty) AS BIGINT) AS sum_qty
           FROM t WHERE qty >= 0 GROUP BY flag ORDER BY flag NULLS LAST""",
    ).to_dict("records")
    got_map = {r["flag"]: r for r in rows}
    for e in exp:
        g = got_map[e["flag"]]
        assert g["count"] == e["count"] and g["sum_qty"] == e["sum_qty"]
