"""Metadata-first aggregate pushdown (storeagg.store_agg) over encoded stores."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storeagg import _normalize_aggs, store_agg
from parquet_converter_ray.zonemap import exact_int_sum, record_all_match

N = 20_000


def _table() -> pa.Table:
    """Deterministic mixed-type table: ints, integer-valued floats, a float
    column with nulls, timestamps, a low-cardinality string."""
    rng = np.random.default_rng(7)
    k = np.arange(N, dtype=np.int64)
    qty = rng.integers(1, 51, N).astype(np.float64)
    price = np.round(rng.uniform(10, 1000, N), 2)
    price_null = price.copy()
    null_mask = rng.random(N) < 0.05
    ts = (np.int64(820454400_000_000) + rng.integers(0, 10**9, N) * np.int64(86_400)).astype(
        "datetime64[us]"
    )
    flag = np.array(["A", "N", "R"])[rng.integers(0, 3, N)]
    return pa.table(
        {
            "k": pa.array(k),
            "grp": pa.array(k % 37),
            "qty": pa.array(qty),
            "price": pa.array(np.where(null_mask, np.nan, price_null)).cast(pa.float64()),
            "price_null": pa.array(
                [None if m else float(v) for m, v in zip(null_mask, price_null)],
                type=pa.float64(),
            ),
            "ts": pa.array(ts),
            "flag": pa.array(flag),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    """Range-clustered on ``ts`` so band predicates split containers into
    pruned / fully-matching / boundary classes."""
    out = str(tmp_path_factory.mktemp("sagg") / "store")
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


# --- unit: exact integer sums ---------------------------------------------------


def test_exact_int_sum_past_int64():
    vals = [2**62, 2**62, 2**62, 2**62, -5]
    arr = pa.array(vals, type=pa.int64())
    assert exact_int_sum(arr) == sum(vals)  # 2^64 - 5: wraps under np.sum
    assert exact_int_sum(pa.array([], type=pa.int64())) == 0
    neg = [-(2**62)] * 5
    assert exact_int_sum(pa.array(neg, type=pa.int64())) == sum(neg)


# --- unit: all-match proofs ------------------------------------------------------


def test_record_all_match_proofs():
    st = {"x": {"min": 10, "max": 20, "nulls": 0, "t": "int64"}}
    assert record_all_match(st, 5, [("x", "between", (10, 20))])
    assert record_all_match(st, 5, [("x", ">=", 10)])
    assert record_all_match(st, 5, [("x", "<=", 20)])
    assert record_all_match(st, 5, [("x", "<", 21)])
    assert record_all_match(st, 5, [("x", "!=", 9)])
    assert not record_all_match(st, 5, [("x", "between", (11, 20))])
    assert not record_all_match(st, 5, [("x", ">", 10)])
    assert not record_all_match(st, 5, [("x", "!=", 15)])
    assert not record_all_match(st, 5, [("x", "==", 15)])
    # equality provable only when the bound collapses to the value
    pt = {"x": {"min": 7, "max": 7, "nulls": 0, "t": "int64"}}
    assert record_all_match(pt, 5, [("x", "==", 7)])
    assert record_all_match(pt, 5, [("x", "in", [3, 7])])
    assert not record_all_match(pt, 5, [("x", "in", [3, 8])])
    # NULLs fail every predicate -> no proof
    nu = {"x": {"min": 10, "max": 20, "nulls": 1, "t": "int64"}}
    assert not record_all_match(nu, 5, [("x", ">=", 10)])
    # missing stats / zero rows -> no proof
    assert not record_all_match({}, 5, [("x", ">=", 10)])
    assert not record_all_match(st, 0, [("x", ">=", 10)])


def test_record_all_match_float_nan_and_approx():
    ok = {"f": {"min": 1.0, "max": 2.0, "nulls": 0, "nan": 0, "t": "double"}}
    assert record_all_match(ok, 5, [("f", "between", (0.0, 3.0))])
    bad = {"f": {"min": 1.0, "max": 2.0, "nulls": 0, "nan": 2, "t": "double"}}
    assert not record_all_match(bad, 5, [("f", "between", (0.0, 3.0))])
    old = {"f": {"min": 1.0, "max": 2.0, "nulls": 0, "t": "double"}}  # pre-NaN-count
    assert not record_all_match(old, 5, [("f", "between", (0.0, 3.0))])
    # truncated string bounds: range containment sound, equality not
    ap = {"s": {"min": "aa", "max": "ab", "nulls": 0, "approx": True, "t": "string"}}
    assert record_all_match(ap, 5, [("s", "between", ("a", "b"))])
    assert not record_all_match(ap, 5, [("s", "==", "aa")])


def test_normalize_aggs():
    assert _normalize_aggs(["count", "sum:x", ("min", "y")]) == [
        ("count", None),
        ("sum", "x"),
        ("min", "y"),
    ]
    with pytest.raises(ValueError):
        _normalize_aggs(["median:x"])
    with pytest.raises(ValueError):
        _normalize_aggs(["sum"])
    with pytest.raises(ValueError):
        _normalize_aggs([])


# --- store-level ------------------------------------------------------------------


def _truth(table: pa.Table, mask=None) -> dict:
    t = table.filter(mask) if mask is not None else table
    qty = t["qty"]
    return {
        "count": t.num_rows,
        "nn_price_null": t.num_rows - t["price_null"].null_count,
        "min_qty": pc.min(qty).as_py(),
        "max_qty": pc.max(qty).as_py(),
        "sum_qty": pc.sum(qty).as_py(),
        "min_ts": pc.min(t["ts"]).as_py(),
        "max_ts": pc.max(t["ts"]).as_py(),
        "sum_k": int(pc.sum(t["k"]).as_py()),
    }


AGGS = ["count", "nn:price_null", "min:qty", "max:qty", "sum:qty",
        "min:ts", "max:ts", "sum:k"]


def _rename(res: dict) -> dict:
    return {
        "count": res["count"],
        "nn_price_null": res["nn_price_null"],
        "min_qty": res["min_qty"],
        "max_qty": res["max_qty"],
        "sum_qty": res["sum_qty"],
        "min_ts": res["min_ts"],
        "max_ts": res["max_ts"],
        "sum_k": res["sum_k"],
    }


def test_whole_store_metadata_only(store, table):
    res, plan = store_agg(store, AGGS, return_plan=True)
    assert plan["scanned"] == 0 and plan["meta_answered"] == plan["parts_total"]
    assert _rename(res) == _truth(table)


def test_band_predicate_boundary_scan_only(store, table):
    lo, hi = "1997-01-01", "2000-06-30"
    pred = [("ts", "between", (lo, hi))]
    res, plan = store_agg(store, AGGS, pred, return_plan=True)
    mask = pc.and_(
        pc.greater_equal(table["ts"], pa.scalar(lo).cast(pa.timestamp("us"))),
        pc.less_equal(table["ts"], pa.scalar(hi).cast(pa.timestamp("us"))),
    )
    assert _rename(res) == _truth(table, mask)
    # the range layout makes interior containers provably all-matching:
    # only the (<= 2) boundary containers may scan
    assert plan["meta_answered"] >= 1
    assert plan["scanned"] <= 2
    assert plan["pruned_stats"] >= 1


def test_nan_column_degrades_to_scan_and_stays_correct(store, table):
    # price has real NaNs -> its containers refuse metadata min/max/sum but
    # the scan path still yields exact nn/min/max (NaN never enters: the
    # exact kernels are nan-aware via Arrow min_max over non-NaN... compute
    # truth with numpy to match)
    res, plan = store_agg(store, ["count", "nn:price"], return_plan=True)
    assert res["count"] == table.num_rows
    assert res["nn_price"] == table.num_rows  # NaN is NOT null
    assert plan["scanned"] == 0  # count/nn need no bounds, metadata suffices


def test_predicate_plus_flag_forces_scan(store, table):
    # flag spans all values in every container -> never provable -> full scan
    pred = [("flag", "==", "R")]
    res, plan = store_agg(store, ["count", "sum:k"], pred, return_plan=True)
    mask = pc.equal(table["flag"], "R")
    assert res["count"] == pc.sum(pc.cast(mask, pa.int64())).as_py()
    assert res["sum_k"] == int(pc.sum(pc.filter(table["k"], mask)).as_py())
    assert plan["meta_answered"] == 0 and plan["scanned"] >= 1


def test_all_pruned_returns_zero_and_nulls(store):
    res, plan = store_agg(store, AGGS, [("ts", "<", "1990-01-01")], return_plan=True)
    assert plan["pruned_stats"] == plan["parts_total"]
    assert res["count"] == 0 and res["nn_price_null"] == 0
    assert res["min_qty"] is None and res["sum_qty"] is None


def test_pre_sum_store_falls_back_to_scan(store, table, tmp_path):
    """A store written before sums/NaN counts existed answers by scanning."""
    import shutil

    old = str(tmp_path / "old")
    shutil.copytree(store, old)
    mdir = os.path.join(old, "_manifest")
    for fn in os.listdir(mdir):
        if not (fn.startswith("part-") and fn.endswith(".json")):
            continue
        p = os.path.join(mdir, fn)
        with open(p) as f:
            rec = json.load(f)
        for ent in (rec.get("stats") or {}).values():
            ent.pop("sum", None)
            ent.pop("nan", None)
        with open(p, "w") as f:
            json.dump(rec, f)
    res, plan = store_agg(old, AGGS, return_plan=True)
    assert plan["scanned"] == plan["parts_total"]  # sums unavailable in metadata
    assert _rename(res) == _truth(table)


def test_agg_errors(store):
    with pytest.raises(ValueError):
        store_agg(store, ["sum:flag"])  # non-numeric sum
    with pytest.raises(ValueError):
        store_agg(store, ["min:nope"])  # unknown column
    with pytest.raises(ValueError):
        store_agg(store, ["count"], [("nope", ">", 1)])  # unknown predicate column


def test_cli_agg(store):
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cp = subprocess.run(
        [sys.executable, "-m", "parquet_converter_ray.cli", "--num-cpus", "4",
         "agg", store, "--agg", "count", "--agg", "sum:k",
         "--where", "ts >= 1997-01-01"],
        capture_output=True, text=True, cwd=repo, timeout=300,
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    out = json.loads(cp.stdout.strip().splitlines()[-1])
    assert out["result"]["count"] > 0
    assert set(out["plan"]) == {"parts_total", "pruned_hash", "pruned_stats", "pruned_dict",
                                "pruned_bloom", "meta_answered", "scanned", "stores",
                                "scanned_bytes", "executor"}


def test_record_all_match_prefix_and_unknown_op():
    """ADVICE r4 (high): 'prefix' used to fall through the op chain and be
    vacuously proven, inflating counts. Also: unknown ops must never prove."""
    st = {"name": {"t": "string", "nulls": 0, "min": "aa", "max": "zz"}}
    assert not record_all_match(st, 100, [("name", "prefix", "b")])  # advisory repro
    # provable: bounds strictly inside [p, prefix_upper(p)) = ["b", "c")
    ok = {"name": {"t": "string", "nulls": 0, "min": "ba", "max": "bz"}}
    assert record_all_match(ok, 100, [("name", "prefix", "b")])
    # boundary: max == "c" is outside the half-open interval
    edge = {"name": {"t": "string", "nulls": 0, "min": "b", "max": "c"}}
    assert not record_all_match(edge, 100, [("name", "prefix", "b")])
    # widened (truncated) bounds: containment proofs stay sound
    ap = {"name": {"t": "string", "nulls": 0, "approx": True, "min": "ba", "max": "bz"}}
    assert record_all_match(ap, 100, [("name", "prefix", "b")])
    # approx with unbounded max -> no proof
    nomax = {"name": {"t": "string", "nulls": 0, "approx": True, "min": "ba", "max": None}}
    assert not record_all_match(nomax, 100, [("name", "prefix", "b")])
    # non-string literal -> coercion refuses -> no proof
    assert not record_all_match(st, 100, [("name", "prefix", 5)])
    # UNKNOWN op must force the scan path, never vacuously prove
    assert not record_all_match(st, 100, [("name", "someop", "b")])


def test_store_agg_prefix_predicate(store, table):
    """End-to-end: count with a prefix predicate matches the exact answer
    (mixed-flag containers scan; the proof branch never over-counts)."""
    res, plan = store_agg(store, ["count", "sum:k"], [("flag", "prefix", "A")],
                          return_plan=True)
    mask = pc.equal(table["flag"], "A")
    assert res["count"] == pc.sum(pc.cast(mask, pa.int64())).as_py()
    assert res["sum_k"] == pc.sum(pc.if_else(mask, table["k"], pa.scalar(0, pa.int64()))).as_py()
    assert plan["parts_total"] == (
        plan["pruned_hash"] + plan["pruned_stats"] + plan.get("pruned_dict", 0)
        + plan.get("pruned_bloom", 0)
        + plan["meta_answered"] + plan["scanned"]
    )


# --- avg (derived sum/nn) and quantiles over stores --------------------------


def _duck(table, sql):
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    return con.execute(sql).fetchone()


def test_store_agg_avg(store, table):
    res = store_agg(store, ["avg:qty", "count"])
    exp = _duck(table, "SELECT avg(qty), count(*) FROM t")
    assert abs(res["avg_qty"] - exp[0]) < 1e-9
    assert res["count"] == exp[1]
    assert set(res) == {"avg_qty", "count"}  # synthetic sum/nn dropped


def test_store_agg_avg_with_nulls_and_explicit_sum(store, table):
    res = store_agg(store, ["avg:price_null", "sum:price_null", "nn:price_null"])
    exp = _duck(table, "SELECT avg(price_null), sum(price_null), count(price_null) FROM t")
    assert abs(res["avg_price_null"] - exp[0]) < 1e-6
    assert abs(res["sum_price_null"] - exp[1]) < 1e-6
    assert res["nn_price_null"] == exp[2]


def test_store_agg_avg_empty_result(store):
    res = store_agg(store, ["avg:qty"], [("qty", ">", 10**9)])
    assert res["avg_qty"] is None


def test_store_group_avg(store, table):
    from parquet_converter_ray.storegroup import store_agg_group

    tbl = store_agg_group(store, ["flag"], ["avg:qty", "count"]).sort_by("flag")
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    exp = con.execute(
        "SELECT flag, avg(qty) a, count(*) c FROM t GROUP BY flag ORDER BY flag"
    ).fetch_arrow_table()
    assert tbl.column_names == ["flag", "avg_qty", "count"]
    assert tbl["flag"].to_pylist() == exp["flag"].to_pylist()
    got = tbl["avg_qty"].to_pylist()
    want = exp["a"].to_pylist()
    assert all(abs(g - w) < 1e-9 for g, w in zip(got, want))
    assert tbl["count"].to_pylist() == exp["c"].to_pylist()


def test_store_quantiles(store, table):
    from parquet_converter_ray.storeagg import store_quantiles

    lo = "1997-01-01 00:00:00"
    vals, plan = store_quantiles(
        store, "price_null", [0.25, 0.5, 0.9], [("ts", ">=", lo)], return_plan=True
    )
    assert plan["pruned_stats"] > 0, plan
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    exp = con.execute(
        "SELECT quantile_cont(price_null, 0.25), quantile_cont(price_null, 0.5), "
        f"quantile_cont(price_null, 0.9) FROM t WHERE ts >= TIMESTAMP '{lo}'"
    ).fetchone()
    for g, w in zip(vals, exp):
        assert abs(g - w) < 1e-9, (vals, exp)


def test_store_quantiles_no_predicate(store, table):
    """Empty predicate = full-store quantiles (regression: an empty DNF
    normalizes to one empty branch, which must decode everything, not crash
    the scan decoder on pred_cols[0])."""
    from parquet_converter_ray.storeagg import store_quantiles

    vals = store_quantiles(store, "qty", [0.5])
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    exp = con.execute("SELECT quantile_cont(qty, 0.5) FROM t").fetchone()[0]
    assert abs(vals[0] - exp) < 1e-9
