"""Disjunctive (OR-of-conjunctions) predicate pushdown: every pruning level
keeps a container when ANY branch may match (Parquet/Iceberg OR-expression
pruning semantics); the exact filter is the OR of branch masks. Results are
compared against DuckDB / in-memory Arrow filters on the raw input."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in sorted(t.column_names)])


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if not batches:
        s = ds.schema()
        return pa.table({n: pa.array([], type=t) for n, t in zip(s.names, s.types)})
    return pa.concat_tables(batches)


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    from parquet_converter_ray.encode import encode_dataset

    src = f"{SF_DIR}/lineitem.parquet"
    base = tmp_path_factory.mktemp("or_pred")
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


BANDS = ("or", [
    [("l_shipdate", "between", ("1992-06-01", "1992-12-31"))],
    [("l_shipdate", "between", ("1998-01-01", "1998-12-31"))],
])


def test_disjoint_bands_prune_middle_containers(stores):
    """Two date bands at the domain's edges: on the range-clustered store the
    middle-year containers are refuted by BOTH branches and prune; results
    equal DuckDB's OR filter."""
    from parquet_converter_ray.zonemap import scan_store

    ds, plan = scan_store(stores["range"], BANDS, return_plan=True)
    got = _sorted(_collect(ds))
    assert plan["pruned_stats"] >= 1, plan
    assert plan["scanned"] < plan["parts_total"]
    con = duckdb.connect()
    want = con.sql(
        f"""SELECT * FROM '{stores['inp']}'
            WHERE l_shipdate BETWEEN DATE '1992-06-01' AND DATE '1992-12-31'
               OR l_shipdate BETWEEN DATE '1998-01-01' AND DATE '1998-12-31'"""
    ).arrow()
    assert got.num_rows == want.num_rows > 0
    assert got.equals(_sorted(want.select(got.column_names)))


def test_or_mixing_columns_is_exact(stores):
    """Branches on different columns: nothing can prove no-match on every
    branch, so nothing stats-prunes — the exact OR filter still applies."""
    from parquet_converter_ray.zonemap import scan_store

    pred = ("or", [
        [("l_quantity", ">=", 49), ("l_returnflag", "==", "R")],
        [("l_orderkey", "==", 7)],
    ])
    got = _sorted(_collect(scan_store(stores["range"], pred)))
    t = stores["input"]
    m = pc.or_(
        pc.and_(pc.greater_equal(t["l_quantity"], 49), pc.equal(t["l_returnflag"], "R")),
        pc.equal(t["l_orderkey"], 7),
    )
    want = _sorted(t.filter(m))
    assert got.num_rows == want.num_rows > 0
    assert got.equals(want.select(got.column_names))


def test_or_hash_routes_union_of_keys(stores):
    """== branches on the partition column of a hash store route to the UNION
    of candidate partitions — still pruning, still exact."""
    from parquet_converter_ray.zonemap import scan_store

    pred = ("or", [[("l_orderkey", "==", 5)], [("l_orderkey", "==", 1009)]])
    ds, plan = scan_store(stores["hash"], pred, return_plan=True)
    got = _sorted(_collect(ds))
    assert plan["pruned_hash"] >= 1, plan
    t = stores["input"]
    want = _sorted(t.filter(pc.is_in(t["l_orderkey"], value_set=pa.array([5, 1009]))))
    assert got.num_rows == want.num_rows > 0
    assert got.equals(want.select(got.column_names))


def test_or_store_agg_meta_answers(stores):
    """store_agg under a disjunction: interior containers of either band are
    proven fully matching by SOME branch and answer from metadata; count
    equals DuckDB."""
    from parquet_converter_ray.storeagg import store_agg

    # wider bands than BANDS: at 8 partitions a ~2-year band holds at least
    # one INTERIOR container some branch proves fully matching
    wide = ("or", [
        [("l_shipdate", "between", ("1992-01-01", "1993-12-31"))],
        [("l_shipdate", "between", ("1997-01-01", "1998-12-31"))],
    ])
    res, plan = store_agg(
        stores["range"], ["count", "sum:l_quantity"], wide, return_plan=True
    )
    con = duckdb.connect()
    want_n, want_sum = con.sql(
        f"""SELECT count(*), sum(l_quantity) FROM '{stores['inp']}'
            WHERE l_shipdate BETWEEN DATE '1992-01-01' AND DATE '1993-12-31'
               OR l_shipdate BETWEEN DATE '1997-01-01' AND DATE '1998-12-31'"""
    ).fetchone()
    assert res["count"] == want_n > 0
    assert res["sum_l_quantity"] == pytest.approx(float(want_sum))
    assert plan["pruned_stats"] >= 1, plan
    assert plan["meta_answered"] >= 1, plan


def test_or_single_branch_equals_and(stores):
    """A one-branch disjunction is exactly the AND form — same rows, same plan."""
    from parquet_converter_ray.zonemap import scan_store

    flat = [("l_shipdate", "between", ("1996-01-01", "1996-03-31"))]
    a_ds, a_plan = scan_store(stores["range"], flat, return_plan=True)
    b_ds, b_plan = scan_store(stores["range"], ("or", [flat]), return_plan=True)
    a, b = _sorted(_collect(a_ds)), _sorted(_collect(b_ds))
    assert a.equals(b)
    assert a_plan == b_plan


def test_or_validation():
    from parquet_converter_ray.zonemap import _normalize_dnf

    with pytest.raises(ValueError, match="non-empty branch"):
        _normalize_dnf(("or", []))
    with pytest.raises(ValueError, match="non-empty branch"):
        _normalize_dnf(("or", [[("a", "==", 1)], []]))
    assert _normalize_dnf({"or": [[("a", "==", 1)]]}) == [[("a", "==", 1)]]


def test_cli_where_any(stores, capsys):
    """CLI scan with two OR branches prints a plan showing stats pruning and
    the DuckDB-equal row count."""
    import json

    from parquet_converter_ray.cli import main

    rc = main([
        "scan", stores["range"],
        "--where-any", "l_shipdate between 1992-06-01,1992-12-31",
        "--where-any", "l_shipdate between 1998-01-01,1998-12-31",
        "--columns", "l_orderkey", "--limit", "0",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    con = duckdb.connect()
    want = con.sql(
        f"""SELECT count(*) FROM '{stores['inp']}'
            WHERE l_shipdate BETWEEN DATE '1992-06-01' AND DATE '1992-12-31'
               OR l_shipdate BETWEEN DATE '1998-01-01' AND DATE '1998-12-31'"""
    ).fetchone()[0]
    assert out["rows"] == want
    assert out["plan"]["pruned_stats"] >= 1
