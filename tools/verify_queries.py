"""Local mini-driver: run every queries() entry and compare to oracle_sql()
via DuckDB (row count + order-insensitive value compare, columns sorted by
name) — a pre-flight for the real driver's CORRECTNESS check.

Usage: python tools/verify_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

# the checkout this script lives in, so each copy of the repo checks its own engine
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(type(res))


def normalize(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import duckdb

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for tbl in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(f"CREATE VIEW {tbl} AS SELECT * FROM '{sf_dir}/{tbl}.parquet'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(res)} rows, {list(res.columns)}) [{dt:.1f}s]")
            n_pass += 1
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            n_fail += 1
            continue
        a, b = normalize(res), normalize(exp)
        if len(a) != len(b):
            print(f"FAIL {name}: rows {len(a)} != oracle {len(b)}")
            n_fail += 1
            continue
        if list(a.columns) != list(b.columns):
            print(f"FAIL {name}: cols {list(a.columns)} != {list(b.columns)}")
            n_fail += 1
            continue
        if not a.equals(b):
            diff = (a != b).any(axis=1)
            print(f"FAIL {name}: {diff.sum()} mismatched rows; first:")
            print("  ray:   ", a[diff].head(2).to_dict("records"))
            print("  oracle:", b[diff].head(2).to_dict("records"))
            n_fail += 1
            continue
        print(f"PASS {name} ({len(a)} rows) [{dt:.1f}s]")
        n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
