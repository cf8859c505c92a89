"""Flagship transcript pipelines: encode -> containers -> decode (north star).

The transcript table is synthesized deterministically (BASELINE.json
input_hint schema) — scale follows the sf_dir name so sf0.01 exercises more
data than sf0.001. Results are cached under /tmp/pcr_cache (generation and
encode are deterministic, so cache hits are exact).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa

from ..decode import decode_dataset
from ..encode import encode_dataset
from ..synth import write_transcripts

_CACHE = "/tmp/pcr_cache"


def _scale_rows(sf_dir: str | None) -> int:
    m = re.search(r"sf([0-9.]+)", sf_dir or "")
    sf = float(m.group(1)) if m else 0.001
    return max(20_000, int(sf * 96_000_000))  # sf0.01 -> 960k, sf0.1 -> 9.6M


def _input_dir(n_turns: int) -> str:
    path = os.path.join(_CACHE, f"transcripts-{n_turns}")
    return write_transcripts(path, n_turns, seed=42)


def encode_transcripts(sf_dir: str | None = None, out_dir: str | None = None, **kw) -> dict:
    n = _scale_rows(sf_dir)
    inp = _input_dir(n)
    out = out_dir or os.path.join(_CACHE, f"encoded-{n}")
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    return encode_dataset(inp, out, salt_rows=kw.pop("salt_rows", 50_000), **kw)


def transcript_roundtrip(sf_dir: str | None = None) -> pa.Table:
    """Encode + decode the transcript table; returns the decoded table sorted
    by the stable turn order (the north-rule invariant surface)."""
    n = _scale_rows(sf_dir)
    out = os.path.join(_CACHE, f"encoded-{n}")
    encode_transcripts(sf_dir, out_dir=out)
    decoded = decode_dataset(out)
    tbl = pa.concat_tables(list(decoded.iter_batches(batch_format="pyarrow")))
    return tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def transcript_codec_plan(sf_dir: str | None = None) -> pa.Table:
    """Per-partition lineage: chosen codec per column + bytes in/out."""
    import json

    n = _scale_rows(sf_dir)
    out = os.path.join(_CACHE, f"encoded-{n}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        encode_transcripts(sf_dir, out_dir=out)
    from ..manifest import load_records

    recs = load_records(out)
    return pa.table(
        {
            "part_id": pa.array([r["part_id"] for r in recs], type=pa.int32()),
            "rows": pa.array([r["rows"] for r in recs], type=pa.int64()),
            "bytes_in": pa.array([r["bytes_in"] for r in recs], type=pa.int64()),
            "bytes_out": pa.array([r["bytes_out"] for r in recs], type=pa.int64()),
            "codecs": pa.array([json.dumps(r["codecs"], sort_keys=True) for r in recs]),
        }
    ).sort_by("part_id")


def convert_csv_roundtrip(sf_dir: str | None = None) -> pa.Table:
    """Reference-parity conversion pipeline: synth CSV -> infer schema ->
    streaming convert -> parquet -> read back."""
    import numpy as np
    import pandas as pd

    from ..config import EngineConfig
    from ..convert import convert_file

    os.makedirs(_CACHE, exist_ok=True)
    csv_path = os.path.join(_CACHE, "convert_input.csv")
    if not os.path.exists(csv_path):
        rng = np.random.default_rng(3)
        n = 5000
        df = pd.DataFrame(
            {
                "id": np.arange(n),
                "value": [f"value_{i}" for i in range(n)],
                "amount": rng.normal(100, 15, n).round(2),
                "flag": rng.choice(["true", "false"], n),
                "date": pd.date_range("2023-01-01", periods=n, freq="h").strftime("%Y-%m-%d %H:%M:%S"),
            }
        )
        df.loc[::97, "value"] = "NA"  # null tokens
        df.to_csv(csv_path, index=False)
    out_dir = os.path.join(_CACHE, "convert_out")
    stats = convert_file(csv_path, out_dir, EngineConfig())
    if stats.errors:
        raise RuntimeError(f"conversion failed: {stats.errors}")
    from ._util import read_parquet_clean

    tbl = read_parquet_clean(stats.output_path).sort("id").to_pandas()
    return pa.Table.from_pandas(tbl, preserve_index=False)


def convert_jsonl_roundtrip(sf_dir: str) -> pa.Table:
    """JSONL source coverage, ORACLE-CHECKED: the documents table (plus a
    derived ISO-timestamp string column) is serialised to NDJSON, converted
    through the streaming ``convert_file`` pipeline (sample-then-commit
    inference -> ``ray.data.read_json`` -> cast stage -> parquet), read back
    and compared field-for-field against the original DuckDB view. Fixture
    WRITING is driver-side on purpose (test-harness data generation); the
    conversion under test streams."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ..config import EngineConfig
    from ..convert import convert_file

    tag = os.path.basename(os.path.normpath(sf_dir))
    os.makedirs(_CACHE, exist_ok=True)
    jsonl_path = os.path.join(_CACHE, f"docs_{tag}.jsonl")
    df = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
    df["ts"] = (
        pd.Timestamp("2024-01-01") + pd.to_timedelta(df["doc_id"], unit="s")
    ).dt.strftime("%Y-%m-%d %H:%M:%S")
    df.to_json(jsonl_path, orient="records", lines=True)
    out_dir = os.path.join(_CACHE, f"docs_jsonl_out_{tag}")
    stats = convert_file(jsonl_path, out_dir, EngineConfig())
    if stats.errors:
        raise RuntimeError(f"jsonl conversion failed: {stats.errors}")
    from ._util import read_parquet_clean

    tbl = read_parquet_clean(stats.output_path).sort("doc_id").to_pandas()
    return pa.Table.from_pandas(tbl, preserve_index=False)


def lineitem_codec_roundtrip(sf_dir: str) -> pa.Table:
    """Generic-table codec roundtrip: the container engine is not transcript-
    specific — encode the TPC-H lineitem table (ints, floats, strings,
    timestamps) keyed on l_orderkey and decode it back bit-identically.
    Oracle: SELECT * FROM lineitem (order-insensitive value compare)."""
    import shutil

    out = os.path.join(_CACHE, "encoded-lineitem")
    shutil.rmtree(out, ignore_errors=True)
    encode_dataset(
        f"{sf_dir}/lineitem.parquet",
        out,
        conv_col="l_orderkey",
        order_col="l_linenumber",
        sort_key=("l_orderkey", "l_linenumber"),
        salt_rows=100_000,
    )
    decoded = decode_dataset(out)
    tbl = pa.concat_tables(list(decoded.iter_batches(batch_format="pyarrow")))
    return tbl.sort_by([("l_orderkey", "ascending"), ("l_linenumber", "ascending")])


def _store_dir(sf_dir: str | None) -> str:
    """Encoded-store path for this scale; encode (cached) if absent."""
    n = _scale_rows(sf_dir)
    out = os.path.join(_CACHE, f"encoded-{n}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        encode_transcripts(sf_dir, out_dir=out)
    return out


def store_role_stats(store_dir: str, role_col: str = "role", text_col: str = "text") -> pa.Table:
    """Per-role turn counts and text volume computed DIRECTLY ON THE ENCODED
    STORE: ``decode_dataset(columns=[role, text])`` prunes at the
    container level, so the conv_id/turn_idx/tool/ts buffers are never even
    decompressed. Per-batch partials, bounded driver merge (4 roles)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ._util import finish_on_driver, sql_round

    ds = decode_dataset(store_dir, columns=[role_col, text_col])

    def partial(batch: pa.Table) -> "pd.DataFrame":
        chars = pc.fill_null(pc.utf8_length(batch[text_col]), 0).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"role": batch[role_col].to_pandas(), "n_chars": chars})
        return df.groupby("role", as_index=False).agg(
            n_turns=("n_chars", "size"), n_chars=("n_chars", "sum")
        )

    out = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"), ["role"], ["n_turns", "n_chars"]
    )
    out["n_turns"] = out["n_turns"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    out["avg_chars"] = sql_round(out["n_chars"] / out["n_turns"], 4)
    return pa.Table.from_pandas(out.sort_values("role"), preserve_index=False)


def transcript_role_stats(sf_dir: str | None = None) -> pa.Table:
    """Rows-only driver query (the store is not SQL-visible); pytest oracles
    it against DuckDB over the raw input parquet."""
    return store_role_stats(_store_dir(sf_dir))


def store_length_histogram(store_dir: str, order_col: str = "turn_idx") -> pa.Table:
    """Conversation-length distribution (log2 buckets) WITHOUT any per-
    conversation aggregation: turn indices are dense per conversation, so
    ``count(rows with turn_idx == t)`` IS the number of conversations longer
    than t (a survival function). One pruned decode of turn_idx, per-batch
    bincount partials, driver differencing — no groupby(conv_id) exchange,
    state bounded by the max conversation length, not the conversation count."""
    import numpy as np
    import pandas as pd

    from ._util import finish_on_driver

    ds = decode_dataset(store_dir, columns=[order_col])

    def partial(batch: pa.Table) -> "pd.DataFrame":
        t = batch[order_col].to_numpy()
        c = np.bincount(t)
        nz = np.flatnonzero(c)
        return pd.DataFrame({"t": nz.astype(np.int64), "c": c[nz].astype(np.int64)})

    merged = finish_on_driver(ds.map_batches(partial, batch_format="pyarrow"), ["t"], ["c"])
    surv = np.zeros(int(merged["t"].max()) + 2, dtype=np.int64)
    surv[merged["t"].to_numpy()] = merged["c"].to_numpy()
    # conversations of length exactly L: S(L-1) - S(L)
    lengths = np.arange(1, len(surv), dtype=np.int64)
    exact = surv[:-1] - surv[1:]
    keep = exact > 0
    lengths, exact = lengths[keep], exact[keep]
    bucket_lo = np.left_shift(np.int64(1), np.floor(np.log2(lengths)).astype(np.int64))
    out = (
        pd.DataFrame({"bucket_lo": bucket_lo, "n_convs": exact, "n_turns": lengths * exact})
        .groupby("bucket_lo", as_index=False)
        .agg(n_convs=("n_convs", "sum"), n_turns=("n_turns", "sum"))
    )
    return pa.Table.from_pandas(out.sort_values("bucket_lo"), preserve_index=False)


def transcript_length_histogram(sf_dir: str | None = None) -> pa.Table:
    return store_length_histogram(_store_dir(sf_dir))


def store_tool_usage(store_dir: str, role_col: str = "role", tool_col: str = "tool") -> pa.Table:
    """Tool-call mix per role from the encoded store (role + tool columns
    only); bounded (role x tool) driver merge. Null tool = not a tool call."""
    import pandas as pd

    from ._util import finish_on_driver

    ds = decode_dataset(store_dir, columns=[role_col, tool_col])

    def partial(batch: pa.Table) -> "pd.DataFrame":
        t = batch.filter(batch[tool_col].is_valid())
        df = pd.DataFrame(
            {"role": t[role_col].to_pandas(), "tool": t[tool_col].to_pandas()}
        )
        df["n"] = 1
        return df.groupby(["role", "tool"], as_index=False).agg(n=("n", "sum"))

    out = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"), ["role", "tool"], ["n"]
    )
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out.sort_values(["role", "tool"]), preserve_index=False)


def transcript_tool_usage(sf_dir: str | None = None) -> pa.Table:
    return store_tool_usage(_store_dir(sf_dir))


def transcript_lookup(sf_dir: str | None = None) -> pa.Table:
    """Point-lookup check: fetch one known conversation (the first conv_id of
    the synthetic table) straight from the encoded containers — decoding only
    the container(s) that conversation's salt chunks map to — and return its
    turns in stable order. Rows-only (the codec store isn't SQL-visible);
    equality vs the full-decode filter is asserted in tests."""
    from ..decode import lookup_conversation

    n = _scale_rows(sf_dir)
    out = os.path.join(_CACHE, f"encoded-{n}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        encode_transcripts(sf_dir, out_dir=out)
    # conv ids are synthesized as conv-%08d starting at 0 (synth.py:87), so
    # the first conversation exists at every scale
    got = lookup_conversation(out, "conv-00000000")
    return got.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def transcript_delete(sf_dir: str | None = None) -> pa.Table:
    """Retention-delete lifecycle check: build a fresh small store (base
    encode + one appended delivery), delete two conversations in place
    (partition-pruned rewrite, ``encode.delete_conversations``), and return
    the per-role row counts of what remains plus the delete summary columns.
    Rows-only (the codec store isn't SQL-visible); exact decode-vs-filter
    equality and crash recovery live in tests/test_delete.py."""
    import shutil

    import pyarrow.parquet as pq

    from ..decode import decode_dataset
    from ..encode import append_dataset, delete_conversations, encode_dataset
    from ..synth import make_transcripts

    work = os.path.join(_CACHE, "delete-demo")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    base = make_transcripts(20_000, seed=7)
    pq.write_table(base, os.path.join(work, "base.parquet"))
    enc = os.path.join(work, "enc")
    encode_dataset(os.path.join(work, "base.parquet"), enc, n_parts=4, salt_rows=2000)
    delivery = make_transcripts(5_000, seed=8)
    pq.write_table(delivery, os.path.join(work, "d1.parquet"))
    append_dataset(os.path.join(work, "d1.parquet"), enc, skip_existing=True)

    summary = delete_conversations(enc, ["conv-00000000", "conv-00000002"])
    remaining = (
        decode_dataset(enc)
        .groupby("role")
        .count()
        .to_pandas()
        .rename(columns={"count()": "rows"})
        .sort_values("role")
    )
    remaining["rows_deleted"] = summary["rows_deleted"]
    remaining["parts_rewritten"] = summary["parts_rewritten"]
    return pa.Table.from_pandas(remaining, preserve_index=False)


def _lineitem_store(sf_dir: str) -> str:
    """Encoded lineitem store for this sf (cached; encode once per scale).

    Separate from ``lineitem_codec_roundtrip``'s dir, which is rebuilt from
    scratch on every call."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-lineitem-scan-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            out,
            conv_col="l_orderkey",
            order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"),
            salt_rows=100_000,
        )
    return out


def lineitem_scan_pushdown(sf_dir: str) -> pa.Table:
    """Predicate-pushdown scan of an encoded store, oracle-checked against a
    plain SQL filter over the raw parquet: zone maps prune containers from
    manifest JSON, the dictionary probe ranged-reads only dict buffers for
    the ``l_returnflag == 'R'`` conjunct, survivors decode only the five
    requested columns with the exact filter applied batch-wise.
    Oracle: SELECT ... FROM lineitem WHERE l_returnflag='R' AND l_quantity>=45."""
    from ..zonemap import scan_store

    cols = ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_returnflag"]
    ds = scan_store(
        _lineitem_store(sf_dir),
        [("l_returnflag", "==", "R"), ("l_quantity", ">=", 45)],
        columns=cols,
    )
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if batches:
        tbl = pa.concat_tables(batches)
    else:  # ray.data.Schema has no empty_table — build the typed empty directly
        s = ds.schema()
        tbl = pa.table({n: pa.array([], type=t) for n, t in zip(s.names, s.types)})
    return tbl.sort_by([("l_orderkey", "ascending"), ("l_linenumber", "ascending")])


def _lineitem_range_store(sf_dir: str) -> str:
    """Range-clustered lineitem store (cluster_by=l_shipdate), cached per sf.
    Unlike ``_lineitem_store``'s hash layout, each container covers a
    disjoint ship-date range so zone maps prune date-band scans. Carries a
    Bloom filter on l_orderkey — the key this layout can NOT hash-route, so
    an orderkey point lookup has only the filter to prune with."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-lineitem-range2-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            out,
            conv_col="l_orderkey",
            order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"),
            salt_rows=0,
            cluster_by="l_shipdate",
            bloom_cols=["l_orderkey"],
        )
    return out


def lineitem_range_scan(sf_dir: str) -> pa.Table:
    """Date-band revenue over a RANGE-CLUSTERED store: the 1996 ship-date
    band decodes only the containers whose recorded zone-map range overlaps
    it (a hash layout scans everything — asserted in tests), then per-batch
    revenue partials merge on the driver. Oracle: plain SQL over the raw
    table."""
    from ..zonemap import scan_store

    ds = scan_store(
        _lineitem_range_store(sf_dir),
        [("l_shipdate", "between", ("1996-01-01", "1996-12-31"))],
        columns=["l_extendedprice", "l_discount"],
    )
    n = 0
    rev = 0.0
    for b in ds.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
        if b.num_rows:
            rev += float(
                np.sum(
                    b["l_extendedprice"].to_numpy(zero_copy_only=False)
                    * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
                )
            )
    from ._util import sql_round

    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "revenue": pa.array([float(sql_round(np.array([rev]), 2)[0])], pa.float64()),
        }
    )


def _bucketed_pair(sf_dir: str) -> tuple[str, str]:
    """Orders + lineitem stores hash-routed on the SAME join key with the
    same n_parts — the co-partitioned pair ``storejoin.store_join`` proves
    and exploits (cached per sf; encode is deterministic)."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    o_dir = os.path.join(_CACHE, f"encoded-orders-bucket-{tag}")
    l_dir = os.path.join(_CACHE, f"encoded-lineitem-bucket-{tag}")
    if not os.path.exists(os.path.join(o_dir, "manifest.jsonl")):
        import shutil

        shutil.rmtree(o_dir, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/orders.parquet",
            o_dir,
            n_parts=16,
            conv_col="o_orderkey",
            order_col="o_custkey",
            sort_key=("o_orderkey",),
            salt_rows=0,
        )
    if not os.path.exists(os.path.join(l_dir, "manifest.jsonl")):
        import shutil

        shutil.rmtree(l_dir, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            l_dir,
            n_parts=16,
            conv_col="l_orderkey",
            order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"),
            salt_rows=0,
        )
    return o_dir, l_dir


def store_bucket_join(sf_dir: str) -> pa.Table:
    """Shuffle-free fact-to-fact join of two encoded stores hash-routed on
    the same key at encode time (``storejoin.store_join`` — the Hive/Spark
    bucketed join over this engine's containers): each part_id's containers
    from both stores decode and join in ONE task, zero exchange. The joined
    stream aggregates per order priority with per-batch partials (bounded
    5-key space finishes on the driver). Oracle: plain SQL join + GROUP BY."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..storejoin import store_join
    from ._util import finish_on_driver, sql_round

    o_dir, l_dir = _bucketed_pair(sf_dir)
    ds = store_join(
        [o_dir, l_dir],
        columns=[["o_orderkey", "o_orderpriority"], ["l_extendedprice"]],
    )

    def partial(batch: pa.Table) -> "pd.DataFrame":
        if batch.num_rows == 0:
            return pd.DataFrame({"o_orderpriority": [], "n_lineitems": [], "sum_price": []})
        g = batch.group_by("o_orderpriority").aggregate(
            [("l_extendedprice", "count"), ("l_extendedprice", "sum")]
        )
        return pd.DataFrame(
            {
                "o_orderpriority": g["o_orderpriority"].to_pylist(),
                "n_lineitems": g["l_extendedprice_count"].to_numpy(zero_copy_only=False),
                "sum_price": g["l_extendedprice_sum"].to_numpy(zero_copy_only=False),
            }
        )

    tot = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["o_orderpriority"],
        ["n_lineitems", "sum_price"],
    ).sort_values("o_orderpriority")
    return pa.table(
        {
            "o_orderpriority": pa.array(tot["o_orderpriority"], pa.string()),
            "n_lineitems": pa.array(tot["n_lineitems"].astype("int64"), pa.int64()),
            "sum_price": pa.array(sql_round(tot["sum_price"].to_numpy(), 2), pa.float64()),
        }
    )


def rebucket_join(sf_dir: str) -> pa.Table:
    """Join-layout REPAIR: a lineitem store ingested with the wrong layout
    for an order join (hash-keyed on l_suppkey, 10 partitions) cannot
    bucketed-join the 16-partition orders store — ``store_join`` refuses the
    pair loudly. ``encode.rebucket_dataset(..., on="l_orderkey",
    like=orders_store)`` pays the partition exchange ONCE to re-route it
    (unsalted, n_parts matched from the target's run record), after which
    the join is map-only over matched buckets, zero exchange — the
    Hive/Spark "repair the bucketing, then bucket-join forever" lifecycle.
    Aggregates joined revenue per order status with per-batch partials
    (bounded 3-key space finishes on the driver). Oracle: plain SQL
    join + GROUP BY."""
    import pandas as pd

    from ..encode import rebucket_dataset
    from ..storejoin import store_join
    from ._util import finish_on_driver, sql_round

    o_dir, _ = _bucketed_pair(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir))
    wrong = os.path.join(_CACHE, f"encoded-lineitem-suppkeyed-{tag}")
    fixed = os.path.join(_CACHE, f"encoded-lineitem-rebucketed-{tag}")
    if not os.path.exists(os.path.join(wrong, "manifest.jsonl")):
        import shutil

        shutil.rmtree(wrong, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            wrong,
            n_parts=10,
            conv_col="l_suppkey",
            order_col="l_orderkey",
            sort_key=("l_suppkey", "l_orderkey"),
            salt_rows=0,
        )
    if not os.path.exists(os.path.join(fixed, "manifest.jsonl")):
        import shutil

        shutil.rmtree(fixed, ignore_errors=True)
        rebucket_dataset(wrong, fixed, on="l_orderkey", like=o_dir)

    ds = store_join(
        [o_dir, fixed],
        columns=[["o_orderkey", "o_orderstatus"], ["l_extendedprice", "l_discount"]],
    )

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return pd.DataFrame({"o_orderstatus": [], "n_lineitems": [], "revenue": []})
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        batch = batch.append_column("rev", rev)
        g = batch.group_by("o_orderstatus").aggregate(
            [("rev", "count"), ("rev", "sum")]
        )
        return pd.DataFrame(
            {
                "o_orderstatus": g["o_orderstatus"].to_pylist(),
                "n_lineitems": g["rev_count"].to_numpy(zero_copy_only=False),
                "revenue": g["rev_sum"].to_numpy(zero_copy_only=False),
            }
        )

    tot = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["o_orderstatus"],
        ["n_lineitems", "revenue"],
    ).sort_values("o_orderstatus")
    return pa.table(
        {
            "o_orderstatus": pa.array(tot["o_orderstatus"], pa.string()),
            "n_lineitems": pa.array(tot["n_lineitems"].astype("int64"), pa.int64()),
            "revenue": pa.array(sql_round(tot["revenue"].to_numpy(), 2), pa.float64()),
        }
    )


def salted_dim_join(sf_dir: str) -> pa.Table:
    """Dimension join against a SALTED fact store — the flagship-store
    enrichment pattern: the fact side (hash+salt routed, the layout the
    10^12-turn transcript store uses) never shuffles; each dim row is
    replicated to the partitions its key's salt chunks can occupy
    (``storejoin.store_join_dim``) and joins container-locally. The store
    salts every 4 rows so multi-line orders genuinely span salt chunks at
    test scale. Oracle: plain SQL join + GROUP BY."""
    import pandas as pd

    from ..storejoin import store_join_dim
    from ._util import finish_on_driver, sql_round

    tag = os.path.basename(os.path.normpath(sf_dir))
    fact = os.path.join(_CACHE, f"encoded-lineitem-salted4-{tag}")
    if not os.path.exists(os.path.join(fact, "manifest.jsonl")):
        import shutil

        shutil.rmtree(fact, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            fact,
            n_parts=16,
            conv_col="l_orderkey",
            order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"),
            salt_rows=4,
        )
    ds = store_join_dim(
        fact,
        f"{sf_dir}/orders.parquet",
        dim_on="o_orderkey",
        fact_columns=["l_orderkey", "l_extendedprice"],
        dim_columns=["o_orderpriority"],
    )

    def partial(batch: pa.Table) -> "pd.DataFrame":
        if batch.num_rows == 0:
            return pd.DataFrame({"o_orderpriority": [], "n_lineitems": [], "sum_price": []})
        g = batch.group_by("o_orderpriority").aggregate(
            [("l_extendedprice", "count"), ("l_extendedprice", "sum")]
        )
        return pd.DataFrame(
            {
                "o_orderpriority": g["o_orderpriority"].to_pylist(),
                "n_lineitems": g["l_extendedprice_count"].to_numpy(zero_copy_only=False),
                "sum_price": g["l_extendedprice_sum"].to_numpy(zero_copy_only=False),
            }
        )

    tot = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["o_orderpriority"],
        ["n_lineitems", "sum_price"],
    ).sort_values("o_orderpriority")
    return pa.table(
        {
            "o_orderpriority": pa.array(tot["o_orderpriority"], pa.string()),
            "n_lineitems": pa.array(tot["n_lineitems"].astype("int64"), pa.int64()),
            "sum_price": pa.array(sql_round(tot["sum_price"].to_numpy(), 2), pa.float64()),
        }
    )


def dpp_dim_join(sf_dir: str) -> pa.Table:
    """Dynamic-partition-pruned dimension join (semijoin pushdown): orders
    filtered to '1-URGENT' joins the salted lineitem fact store. The
    filtered dim is collected once driver-side (it is about to be
    replicated through the routing exchange anyway), its distinct keys
    hash-route to the only fact partitions an inner-join row can live in —
    the SAME arithmetic the dim replication uses, so the pruned container
    set and the exchange stay in lockstep — and the remaining containers
    take the zone-map + footer-probe levels. Containers no urgent order
    reaches never decode. Oracle: SQL join with the dim filter in WHERE.

    At 100 TB shape: this is Spark's DPP applied to the container layout —
    a selective dim filter turns a full-fact-scan join into a read of the
    matching buckets only."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..storejoin import store_join_dim
    from ._util import finish_on_driver, read_parquet_clean, sql_round

    tag = os.path.basename(os.path.normpath(sf_dir))
    fact = os.path.join(_CACHE, f"encoded-lineitem-salted4-{tag}")
    if not os.path.exists(os.path.join(fact, "manifest.jsonl")):
        import shutil

        shutil.rmtree(fact, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet",
            fact,
            n_parts=16,
            conv_col="l_orderkey",
            order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"),
            salt_rows=4,
        )

    def urgent(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["o_orderpriority"], "1-URGENT"))

    dim = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_orderpriority"],
    ).map_batches(urgent, batch_format="pyarrow")
    ds = store_join_dim(
        fact,
        dim,
        dim_on="o_orderkey",
        fact_columns=["l_orderkey", "l_extendedprice"],
        dim_columns=["o_orderstatus"],
    )

    def partial(batch: pa.Table) -> "pd.DataFrame":
        if batch.num_rows == 0:
            return pd.DataFrame({"o_orderstatus": [], "n_lineitems": [], "sum_price": []})
        g = batch.group_by("o_orderstatus").aggregate(
            [("l_extendedprice", "count"), ("l_extendedprice", "sum")]
        )
        return pd.DataFrame(
            {
                "o_orderstatus": g["o_orderstatus"].to_pylist(),
                "n_lineitems": g["l_extendedprice_count"].to_numpy(zero_copy_only=False),
                "sum_price": g["l_extendedprice_sum"].to_numpy(zero_copy_only=False),
            }
        )

    tot = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["o_orderstatus"],
        ["n_lineitems", "sum_price"],
    ).sort_values("o_orderstatus")
    return pa.table(
        {
            "o_orderstatus": pa.array(tot["o_orderstatus"], pa.string()),
            "n_lineitems": pa.array(tot["n_lineitems"].astype("int64"), pa.int64()),
            "sum_price": pa.array(sql_round(tot["sum_price"].to_numpy(), 2), pa.float64()),
        }
    )


def lineitem_band_union_revenue(sf_dir: str) -> pa.Table:
    """Disjunctive pushdown over the range-clustered store: revenue in the
    union of two disjoint ship-date bands. Each pruning level keeps a
    container only when SOME branch may match, so the middle years between
    the bands never decode; the exact filter is the OR of the branch masks.
    Oracle: the same OR in SQL over the raw table."""
    from ..zonemap import scan_store

    ds = scan_store(
        _lineitem_range_store(sf_dir),
        ("or", [
            [("l_shipdate", "between", ("1993-01-01", "1993-12-31"))],
            [("l_shipdate", "between", ("1997-01-01", "1997-12-31"))],
        ]),
        columns=["l_extendedprice", "l_discount"],
    )
    n = 0
    rev = 0.0
    for b in ds.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
        if b.num_rows:
            rev += float(
                np.sum(
                    b["l_extendedprice"].to_numpy(zero_copy_only=False)
                    * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
                )
            )
    from ._util import sql_round

    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "revenue": pa.array([float(sql_round(np.array([rev]), 2)[0])], pa.float64()),
        }
    )


def lineitem_bloom_scan(sf_dir: str) -> pa.Table:
    """Point lookup on a HIGH-cardinality key over a range-clustered store:
    the store is clustered by l_shipdate, so l_orderkey is not hash-routable
    and every container spans nearly the full orderkey domain — zone maps
    cannot prune an equality on it. The per-container Bloom filter written
    at encode (``bloom_cols=["l_orderkey"]``) is the only pruning lever, and
    drops the containers the key's ~1-2 ship-date-adjacent lines don't touch.

    The probed key is derived deterministically from the store itself: the
    smallest orderkey >= the domain midpoint, with the midpoint computed
    from manifest zone-map metadata alone (``store_agg`` opens no files for
    an unpredicated min/max). Oracle: the same two-step selection in SQL."""
    from ..storeagg import store_agg
    from ..zonemap import scan_store

    store = _lineitem_range_store(sf_dir)
    bounds = store_agg(store, ["min:l_orderkey", "max:l_orderkey"])
    mid = (int(bounds["min_l_orderkey"]) + int(bounds["max_l_orderkey"])) // 2
    key = int(store_agg(store, ["min:l_orderkey"], [("l_orderkey", ">=", mid)])["min_l_orderkey"])

    cols = ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"]
    ds = scan_store(store, [("l_orderkey", "==", key)], columns=cols)
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if batches:
        tbl = pa.concat_tables(batches)
    else:
        s = ds.schema()
        tbl = pa.table({n: pa.array([], type=t) for n, t in zip(s.names, s.types)})
    # (l_orderkey, l_linenumber) is NOT unique in the synth lineitem — sort
    # by every output column so tied rows cannot shuffle payload values
    return tbl.sort_by([(c, "ascending") for c in cols])


def documents_prefix_scan(sf_dir: str) -> pa.Table:
    """String-prefix pushdown: ``source prefix 'src1'`` (matches src1 and
    src10..src19) over the source-clustered documents store. The prefix
    interval [p, p+eps) prunes via the recorded string zone-map bounds —
    containers whose source range can't intersect it never open — and the
    dictionary probe drops survivors whose dictionary holds no src1* value.
    Oracle: LIKE 'src1%' (the literal has no wildcard characters)."""
    from ..zonemap import scan_store

    ds = scan_store(
        _documents_source_store(sf_dir),
        [("source", "prefix", "src1")],
        columns=["source", "doc_id"],
    )
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return pa.table({"source": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    g = t.group_by("source").aggregate([("doc_id", "count")])
    return pa.table(
        {
            "source": g["source"],
            "n_docs": g["doc_id_count"].cast(pa.int64()),
        }
    ).sort_by("source")


def _documents_token_store(sf_dir: str) -> str:
    """Documents store with a TOKEN bloom sidecar on ``text``
    (``text_bloom_cols``): each container's footer carries a Bloom filter
    over the distinct word tokens of its text rows, so a ``hastok``
    full-text scan prunes containers that provably lack a query token
    before any data buffer decodes. Cached per sf."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-docs-tokens-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/documents.parquet",
            out,
            conv_col="doc_id",
            order_col=None,
            sort_key=("doc_id",),
            salt_rows=0,
            text_bloom_cols=["text"],
        )
    return out


def documents_text_search(sf_dir: str) -> pa.Table:
    """Full-text search pushdown: ``text hastok 'spark dup'`` (rows whose
    text contains BOTH words as whole tokens) over a token-bloomed documents
    store, aggregated per language. Pruning stack: the per-container TOKEN
    bloom drops containers missing either token via a ranged footer read;
    survivors decode (late-materialized) and the exact mask — one RE2
    token-boundary match per query token — agrees bit-for-bit with the
    tokenizer. Oracle: conjunctive ``regexp_matches(lower(text), ...)``
    (DuckDB runs the same RE2 pattern class).

    At 100 TB shape: the probe is one batch of plain Ray tasks doing
    KB-ranged footer reads; a rare term opens only the containers whose token set may hold
    it — grep over a corpus without decoding the corpus."""
    from ..zonemap import scan_store

    ds = scan_store(
        _documents_token_store(sf_dir),
        [("text", "hastok", "spark dup")],
        columns=["lang", "doc_id"],
    )
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return pa.table({"lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    g = t.group_by("lang").aggregate([("doc_id", "count")])
    return pa.table(
        {"lang": g["lang"], "n_docs": g["doc_id_count"].cast(pa.int64())}
    ).sort_by("lang")


def documents_phrase_search(sf_dir: str) -> pa.Table:
    """Phrase-search pushdown: ``text hasphrase 'spark window'`` (rows whose
    text contains the two words CONSECUTIVELY, in order) over the same
    token-bloomed documents store as ``documents_text_search``. Pruning
    reuses the token blooms unchanged — a row holding the phrase holds every
    phrase token, so a container provably missing either token is skipped by
    the same ranged footer probe; survivors decode late-materialized and the
    exact mask is ONE RE2 pattern ``(^|[^a-z0-9])spark[^a-z0-9]+window(...)``
    per row. Oracle: the identical regex class via DuckDB
    ``regexp_matches(lower(text), ...)``.

    At 100 TB shape: same cost profile as ``hastok`` — KB footer probes pick
    the candidate containers; the extra phrase constraint only tightens the
    row mask, never widens the read set."""
    from ..zonemap import scan_store

    ds = scan_store(
        _documents_token_store(sf_dir),
        [("text", "hasphrase", "spark window")],
        columns=["lang", "doc_id"],
    )
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return pa.table({"lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    g = t.group_by("lang").aggregate([("doc_id", "count")])
    return pa.table(
        {"lang": g["lang"], "n_docs": g["doc_id_count"].cast(pa.int64())}
    ).sort_by("lang")


def documents_anytoken_search(sf_dir: str) -> pa.Table:
    """Disjunctive full-text search pushdown: ``text hasany 'dup quantum'``
    (rows whose text contains EITHER word as a whole token) over the same
    token-bloomed documents store as ``documents_text_search``. The footer
    probe prunes a container only when EVERY query token is provably absent
    from its token bloom — the sound dual of ``hastok``'s all-tokens-must-
    pass rule — so with one rare ('dup') and one corpus-absent ('quantum')
    token, only the containers that may hold 'dup' decode. Exact mask: ONE
    RE2 alternation ``(^|[^a-z0-9])(dup|quantum)([^a-z0-9]|$)`` per batch.
    Oracle: the identical pattern via DuckDB ``regexp_matches`` (same RE2
    class).

    At 100 TB shape: OR-of-terms search costs the same KB-ranged footer
    probe as AND-of-terms; the read set is the union of each term's
    candidate containers, still probed in one batch of Ray tasks."""
    from ..zonemap import scan_store

    ds = scan_store(
        _documents_token_store(sf_dir),
        [("text", "hasany", "dup quantum")],
        columns=["lang", "doc_id"],
    )
    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return pa.table({"lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    g = t.group_by("lang").aggregate([("doc_id", "count")])
    return pa.table(
        {"lang": g["lang"], "n_docs": g["doc_id_count"].cast(pa.int64())}
    ).sort_by("lang")


def store_agg_pushdown(sf_dir: str) -> pa.Table:
    """Aggregate pushdown over the RANGE-CLUSTERED lineitem store: for the
    1996-1998 ship-date band, interior containers are PROVEN fully matching
    by their zone maps and contribute rows/min/max/exact-sums from manifest
    metadata without being opened; only the two boundary containers decode
    (predicate + aggregated columns, late-materialized). Oracle: plain SQL
    aggregates over the raw table."""
    from ..storeagg import store_agg

    res = store_agg(
        _lineitem_range_store(sf_dir),
        [
            "count",
            "nn:l_quantity",
            "min:l_quantity",
            "max:l_quantity",
            "sum:l_quantity",
            "min:l_shipdate",
            "max:l_shipdate",
        ],
        [("l_shipdate", "between", ("1996-01-01", "1998-12-31"))],
    )
    return pa.table(
        {
            "cnt": pa.array([res["count"]], pa.int64()),
            "nn_qty": pa.array([res["nn_l_quantity"]], pa.int64()),
            "min_qty": pa.array([res["min_l_quantity"]], pa.float64()),
            "max_qty": pa.array([res["max_l_quantity"]], pa.float64()),
            "sum_qty": pa.array([res["sum_l_quantity"]], pa.float64()),
            "min_ship": pa.array([res["min_l_shipdate"]], pa.timestamp("us")),
            "max_ship": pa.array([res["max_l_shipdate"]], pa.timestamp("us")),
        }
    )


def store_agg_metadata_only(sf_dir: str) -> pa.Table:
    """Whole-store aggregates answered WITHOUT OPENING A SINGLE CONTAINER —
    rows, null counts, exact min/max and the exact per-container sums are
    all in the manifest's zone maps (kilobytes of JSON at any store size;
    the 100 TB answer to "sum this column"). Raises if any container had to
    be scanned. Oracle: plain SQL aggregates over the raw table."""
    from ..storeagg import store_agg

    res, plan = store_agg(
        _lineitem_range_store(sf_dir),
        [
            "count",
            "min:l_orderkey",
            "max:l_orderkey",
            "sum:l_orderkey",
            "sum:l_quantity",
            "min:l_shipdate",
            "max:l_shipdate",
        ],
        return_plan=True,
    )
    if plan["scanned"]:
        raise AssertionError(f"metadata-only aggregate opened containers: {plan}")
    return pa.table(
        {
            "cnt": pa.array([res["count"]], pa.int64()),
            "min_ok": pa.array([res["min_l_orderkey"]], pa.int64()),
            "max_ok": pa.array([res["max_l_orderkey"]], pa.int64()),
            "sum_ok": pa.array([res["sum_l_orderkey"]], pa.int64()),
            "sum_qty": pa.array([res["sum_l_quantity"]], pa.float64()),
            "min_ship": pa.array([res["min_l_shipdate"]], pa.timestamp("us")),
            "max_ship": pa.array([res["max_l_shipdate"]], pa.timestamp("us")),
        }
    )


def _documents_source_store(sf_dir: str) -> str:
    """Documents store range-clustered on the STRING column ``source`` (the
    sampled common prefix 'src' is skipped, recorded in cluster_norm; zone
    maps carry real string bounds even though source is fsst/dict-coded by
    the cost model's choice — forced via bound_cols). Cached per sf."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-docs-source-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/documents.parquet",
            out,
            conv_col="doc_id",
            order_col="doc_id",
            sort_key=("doc_id",),
            salt_rows=0,
            cluster_by="source",
        )
    return out


def documents_source_scan(sf_dir: str) -> pa.Table:
    """Per-language doc counts/chars for two sources over a STRING-range-
    clustered store: the `in` predicate prunes containers via the recorded
    string zone-map bounds (and the dict probe where source dict-encoded),
    surviving rows late-materialize (lang, n_chars) only. The per-batch
    partial keyed on lang (bounded: 5 langs) merges on the driver. Oracle:
    plain SQL over the raw documents table."""
    from ..zonemap import scan_store

    ds = scan_store(
        _documents_source_store(sf_dir),
        [("source", "in", ["src3", "src7"])],
        columns=["lang", "n_chars"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pa.table({"lang": batch["lang"], "n_chars": batch["n_chars"]})
        g = t.group_by("lang").aggregate([("n_chars", "sum"), ("lang", "count")])
        return pa.table(
            {
                "lang": g["lang"],
                "n_docs": g["lang_count"].cast(pa.int64()),
                "sum_chars": g["n_chars_sum"].cast(pa.int64()),
            }
        )

    from ._util import finish_on_driver

    df = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"), ["lang"], ["n_docs", "sum_chars"]
    )
    return pa.Table.from_pandas(df.sort_values("lang").reset_index(drop=True), preserve_index=False)


def lineitem_store_profile(sf_dir: str) -> pa.Table:
    """Metadata-only store profile, oracle-checked: global per-column bounds
    and null counts read from the manifest zone maps ALONE (zero container
    opens) must equal SQL min/max/null aggregates over the raw table.
    Timestamps compare as epoch microseconds (the zone map's stored domain)."""
    from ..zonemap import store_profile

    prof = store_profile(_lineitem_store(sf_dir))
    cols = ["l_discount", "l_extendedprice", "l_orderkey", "l_quantity", "l_shipdate", "l_tax"]
    rows = {"col": [], "min_v": [], "max_v": [], "nulls": []}
    for c in cols:
        ent = prof["columns"][c]
        rows["col"].append(c)
        rows["min_v"].append(float(ent["min"]))
        rows["max_v"].append(float(ent["max"]))
        rows["nulls"].append(int(ent["nulls"]))
    return pa.table(
        {
            "col": pa.array(rows["col"], type=pa.string()),
            "min_v": pa.array(rows["min_v"], type=pa.float64()),
            "max_v": pa.array(rows["max_v"], type=pa.float64()),
            "nulls": pa.array(rows["nulls"], type=pa.int64()),
        }
    )


def _customer_key_stores(sf_dir: str) -> tuple[str, str, str]:
    """Events + orders + customer stores hash-routed on the SHARED customer
    key with the same n_parts — the N-way co-partitioned set
    ``storejoin.store_join`` proves and exploits (cached per sf)."""
    import shutil

    tag = os.path.basename(os.path.normpath(sf_dir))
    specs = [
        ("events", "user_id", "event_id", ("user_id", "event_id")),
        ("orders", "o_custkey", "o_orderkey", ("o_custkey", "o_orderkey")),
        ("customer", "c_custkey", "c_nationkey", ("c_custkey",)),
    ]
    dirs = []
    for name, conv, order, sort in specs:
        d = os.path.join(_CACHE, f"encoded-{name}-custkey-{tag}")
        if not os.path.exists(os.path.join(d, "manifest.jsonl")):
            shutil.rmtree(d, ignore_errors=True)
            encode_dataset(
                f"{sf_dir}/{name}.parquet",
                d,
                n_parts=16,
                conv_col=conv,
                order_col=order,
                sort_key=sort,
                salt_rows=0,
            )
        dirs.append(d)
    return tuple(dirs)


def store_three_way_join(sf_dir: str) -> pa.Table:
    """THREE co-bucketed stores joined over one shared entity key with zero
    exchange (``storejoin.store_join``): events, orders and customer
    are each hash-routed on the customer key at encode time, so every
    part_id decodes all three stores' containers in ONE task and chains the
    joins locally — the N-way star over a shared key (user/customer/
    conversation id) that pays its partition exchange once at ingest. The
    joined stream aggregates per market segment with per-batch partials
    (bounded 5-key space finishes on the driver). Oracle: SQL triple join +
    GROUP BY."""
    import pandas as pd
    import pyarrow.compute as pc  # noqa: F401

    from ..storejoin import store_join
    from ._util import finish_on_driver, sql_round

    e_dir, o_dir, c_dir = _customer_key_stores(sf_dir)
    ds = store_join(
        [e_dir, o_dir, c_dir],
        columns=[["value"], ["o_totalprice"], ["c_mktsegment"]],
    )

    def partial(batch: pa.Table) -> "pd.DataFrame":
        if batch.num_rows == 0:
            return pd.DataFrame({"c_mktsegment": [], "n_rows": [], "sum_value": [], "sum_price": []})
        g = batch.group_by("c_mktsegment").aggregate(
            [([], "count_all"), ("value", "sum"), ("o_totalprice", "sum")]
        )
        return pd.DataFrame(
            {
                "c_mktsegment": g["c_mktsegment"].to_pylist(),
                "n_rows": g["count_all"].to_numpy(zero_copy_only=False),
                "sum_value": g["value_sum"].to_numpy(zero_copy_only=False),
                "sum_price": g["o_totalprice_sum"].to_numpy(zero_copy_only=False),
            }
        )

    tot = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["c_mktsegment"],
        ["n_rows", "sum_value", "sum_price"],
    ).sort_values("c_mktsegment")
    return pa.table(
        {
            "c_mktsegment": pa.array(tot["c_mktsegment"], pa.string()),
            "n_rows": pa.array(tot["n_rows"].astype("int64"), pa.int64()),
            "sum_value": pa.array(sql_round(tot["sum_value"].to_numpy(), 2), pa.float64()),
            "sum_price": pa.array(sql_round(tot["sum_price"].to_numpy(), 2), pa.float64()),
        }
    )


def _documents_zorder_store(sf_dir: str) -> str:
    """Documents store Z-ORDER clustered on (source, n_chars) — a STRING
    column and a numeric column interleaved on one Morton curve (string keys
    are the order-preserving prefix-skip 48-bit keys, the same primitive the
    single-string cluster layout uses). Every clustered column gets a tight
    per-container range, so zone maps prune predicates on EITHER column
    independently. Cached per sf."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-docs-zorder-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/documents.parquet",
            out,
            n_parts=16,
            conv_col="doc_id",
            order_col="doc_id",
            sort_key=("doc_id",),
            salt_rows=0,
            cluster_by=["source", "n_chars"],
        )
    return out


def documents_zorder_scan(sf_dir: str) -> pa.Table:
    """Multi-column Z-order pruning with a STRING cluster column: the
    (source, n_chars) documents store answers one band predicate per
    clustered column, each pruned by that column's zone-map range alone —
    the (tenant, size)-style layout where no single sort order serves both
    access paths. Oracle: two filtered aggregates over the raw table."""
    import pyarrow.compute as pc

    from ..zonemap import scan_store

    store = _documents_zorder_store(sf_dir)
    rows = {"pred": [], "n_rows": [], "sum_chars": []}
    for name, clauses in (
        ("by_chars", [("n_chars", "between", (100, 200))]),
        ("by_source", [("source", "between", ("src1", "src2"))]),
    ):
        ds = scan_store(store, clauses, columns=["n_chars"])
        batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
        t = pa.concat_tables(batches) if batches else pa.table({"n_chars": pa.array([], pa.int64())})
        rows["pred"].append(name)
        rows["n_rows"].append(t.num_rows)
        rows["sum_chars"].append(int(pc.sum(t["n_chars"]).as_py() or 0))
    return pa.table(
        {
            "pred": pa.array(rows["pred"], pa.string()),
            "n_rows": pa.array(rows["n_rows"], pa.int64()),
            "sum_chars": pa.array(rows["sum_chars"], pa.int64()),
        }
    )


def orders_transcript_store_stats(sf_dir: str) -> pa.Table:
    """ORACLE-CHECKED container-format analytics over a TRANSCRIPT-SHAPED
    schema: the orders table is recast deterministically into the flagship
    layout (string conv_id 'conv-<custkey>', int turn order, role/text
    string columns), encoded with a SALTED hash route — the exact codec and
    layout path the 10^12-turn store uses (FSST/dict text columns, salt
    chunks, stable intra-conversation order) — then the per-role stats run
    directly on the encoded store via a pruned two-column decode. The
    aggregate ignores the synthetic layout keys, so plain SQL over orders
    is an exact oracle of the full encode->store->decode->aggregate path."""
    import pyarrow.compute as pc

    from ._util import read_parquet_clean

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE, f"encoded-orders-transcript-{tag}")
    if not os.path.exists(os.path.join(out, "manifest.jsonl")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)

        def recast(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "conv_id": pc.binary_join_element_wise(
                        "conv-", pc.cast(batch["o_custkey"], pa.string()), ""
                    ),
                    "turn_idx": batch["o_orderkey"],
                    "role": batch["o_orderstatus"],
                    "text": batch["o_orderpriority"],
                    "ts": batch["o_orderdate"],
                }
            )

        ds = read_parquet_clean(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_orderstatus", "o_orderpriority", "o_orderdate"],
        ).map_batches(recast, batch_format="pyarrow")
        # salt_rows=8: customers average ~10 orders, so mega-conversation
        # splitting genuinely engages at test scale
        encode_dataset(ds, out, n_parts=8, salt_rows=8)
    stats = store_role_stats(out)
    return stats.rename_columns(["role", "n_turns", "sum_chars", "avg_chars"])


def _recast_orders(sf_dir: str):
    """orders recast deterministically into the flagship transcript layout
    (see ``orders_transcript_store_stats``): conv 'conv-<custkey>', turn =
    orderkey, role = orderstatus, text = orderpriority."""
    import pyarrow.compute as pc

    from ._util import read_parquet_clean

    def recast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": pc.binary_join_element_wise(
                    "conv-", pc.cast(batch["o_custkey"], pa.string()), ""
                ),
                "turn_idx": batch["o_orderkey"],
                "role": batch["o_orderstatus"],
                "text": batch["o_orderpriority"],
            }
        )

    return read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderstatus", "o_orderpriority"],
    ).map_batches(recast, batch_format="pyarrow")


def store_upsert_stats(sf_dir: str) -> pa.Table:
    """ORACLE-CHECKED key-level MERGE over the container format: orders are
    recast into the transcript layout and encoded (salted hash route), a
    deterministic delivery then UPSERTS — rows with o_orderkey % 10 == 0 are
    re-delivered with edited text (updates), plus brand-new conversations
    'ins-<orderkey>' for o_orderkey % 100 == 7 (inserts) — and the per-role
    stats run on the decoded post-merge store. Because both halves of the
    delivery derive from orders itself, plain SQL (CASE for the updates,
    UNION ALL for the inserts) is an exact oracle of the full
    encode -> upsert-rewrite -> decode -> aggregate path. Built in a fresh
    scratch store each call: upsert MUTATES the store, so caching would
    leak one run's merge into the next."""
    import shutil
    import tempfile

    import pyarrow.compute as pc

    from ..encode import encode_dataset, upsert_dataset
    from ._util import finish_on_driver

    out = tempfile.mkdtemp(prefix="pcr-upsert-", dir="/tmp")
    try:
        ds = _recast_orders(sf_dir)
        encode_dataset(ds, out, n_parts=8, salt_rows=8)

        def make_delivery(batch: pa.Table) -> pa.Table:
            import numpy as np

            ks = batch["turn_idx"].combine_chunks().to_numpy(zero_copy_only=False)
            upd = batch.filter(pa.array(ks % 10 == 0))
            upd = upd.set_column(
                upd.column_names.index("text"),
                "text",
                pa.array(["UPSERTED"] * upd.num_rows, type=pa.string()),
            )
            insrc = batch.filter(pa.array(ks % 100 == 7))
            ins = pa.table(
                {
                    "conv_id": pc.binary_join_element_wise(
                        "ins-", pc.cast(insrc["turn_idx"], pa.string()), ""
                    ),
                    "turn_idx": pa.array([0] * insrc.num_rows, type=batch["turn_idx"].type),
                    "role": pa.array(["X"] * insrc.num_rows, type=pa.string()),
                    "text": pa.array(["INSERTED"] * insrc.num_rows, type=pa.string()),
                }
            )
            return pa.concat_tables([upd, ins])

        delivery = _recast_orders(sf_dir).map_batches(make_delivery, batch_format="pyarrow")
        upsert_dataset(delivery, out)
        stats = store_role_stats(out)
        df = stats.to_pandas()[["role", "n_turns", "n_chars"]]
        df.columns = ["role", "n_turns", "sum_chars"]
        return pa.Table.from_pandas(df.sort_values("role"), preserve_index=False)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def store_cdc_changes(sf_dir: str) -> pa.Table:
    """ORACLE-CHECKED row-level CDC: encode recast orders, take a hard-link
    snapshot, mutate the live store with an UPSERT (edited text for
    o_orderkey % 10 == 0, new 'ins-<orderkey>' conversations for
    o_orderkey % 100 == 7) and a DELETE (conversations with
    o_custkey % 25 == 3), then ``store_changes(snapshot, live)`` emits the
    per-key change set — counted per change kind. The whole delta derives
    from orders itself, so SQL (CASE + UNION ALL) is an exact oracle of
    snapshot -> mutate -> partition-local diff. Untouched partitions are
    skipped from manifest metadata (crc multiset equality); only touched
    partitions decode. A row both updated and then deleted reports
    'delete' — the diff sees final states, not the journey. Fresh scratch
    store per call (the mutations would leak across runs)."""
    import shutil
    import tempfile

    import pyarrow.compute as pc

    from ..decode import store_changes
    from ..encode import delete_conversations, encode_dataset, upsert_dataset
    from ..snapshot import snapshot_path, snapshot_store
    from ._util import read_parquet_clean

    out = tempfile.mkdtemp(prefix="pcr-cdc-", dir="/tmp")
    try:
        encode_dataset(_recast_orders(sf_dir), out, n_parts=8, salt_rows=8)
        snapshot_store(out, name="base")

        def make_delivery(batch: pa.Table) -> pa.Table:
            import numpy as np

            ks = batch["turn_idx"].combine_chunks().to_numpy(zero_copy_only=False)
            upd = batch.filter(pa.array(ks % 10 == 0))
            upd = upd.set_column(
                upd.column_names.index("text"),
                "text",
                pa.array(["UPSERTED"] * upd.num_rows, type=pa.string()),
            )
            insrc = batch.filter(pa.array(ks % 100 == 7))
            ins = pa.table(
                {
                    "conv_id": pc.binary_join_element_wise(
                        "ins-", pc.cast(insrc["turn_idx"], pa.string()), ""
                    ),
                    "turn_idx": pa.array([0] * insrc.num_rows, type=batch["turn_idx"].type),
                    "role": pa.array(["X"] * insrc.num_rows, type=pa.string()),
                    "text": pa.array(["INSERTED"] * insrc.num_rows, type=pa.string()),
                }
            )
            return pa.concat_tables([upd, ins])

        delivery = _recast_orders(sf_dir).map_batches(make_delivery, batch_format="pyarrow")
        upsert_dataset(delivery, out)

        keys = read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

        def victims_of(batch: pa.Table) -> pa.Table:
            ck = batch["o_custkey"].combine_chunks()
            m = pa.array(ck.to_numpy(zero_copy_only=False) % 25 == 3)
            return pa.table({"k": pc.unique(ck.filter(m))})

        vic = sorted(
            {
                f"conv-{k}"
                for b in keys.map_batches(victims_of, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
                for k in b["k"].to_pylist()
            }
        )
        if vic:
            delete_conversations(out, vic)

        ds = store_changes(snapshot_path(out, "base"), out)
        batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
        if not batches:
            return pa.table({"change": pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64())})
        t = pa.concat_tables(batches)
        g = t.group_by("change").aggregate([("conv_id", "count")])
        return pa.table(
            {"change": g["change"], "n_rows": g["conv_id_count"].cast(pa.int64())}
        ).sort_by("change")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def store_retention_delete(sf_dir: str) -> pa.Table:
    """ORACLE-CHECKED predicate delete (the retention / TTL path): lineitem
    is encoded RANGE-CLUSTERED on ship date, ``delete_rows`` drops every row
    shipped before 1996 — zone maps prove most containers hold no match, so
    only the horizon's boundary/interior partitions rewrite — and the
    surviving store aggregates per return flag. Oracle: plain SQL over the
    raw table with the delete expressed as ``WHERE l_shipdate >= horizon``.
    Fresh scratch store per call (the delete mutates it).

    At 100 TB shape: TTL enforcement costs the matching containers' rewrite
    plus KB of metadata reads — never a store scan, never a shuffle."""
    import shutil
    import tempfile

    from ..decode import decode_dataset
    from ..encode import delete_rows, encode_dataset
    from ._util import finish_on_driver, sql_round

    out = tempfile.mkdtemp(prefix="pcr-ttl-", dir="/tmp")
    try:
        shutil.rmtree(out, ignore_errors=True)
        encode_dataset(
            f"{sf_dir}/lineitem.parquet", out, n_parts=16,
            conv_col="l_orderkey", order_col="l_linenumber",
            sort_key=("l_orderkey", "l_linenumber"), salt_rows=0,
            cluster_by="l_shipdate",
        )
        delete_rows(out, [("l_shipdate", "<", "1996-01-01")])

        import pandas as pd

        def partial(batch: pa.Table) -> "pd.DataFrame":
            if batch.num_rows == 0:
                return pd.DataFrame({"l_returnflag": [], "n_rows": [], "sum_qty": []})
            g = batch.group_by("l_returnflag").aggregate(
                [("l_quantity", "count"), ("l_quantity", "sum")]
            )
            return pd.DataFrame(
                {
                    "l_returnflag": g["l_returnflag"].to_pylist(),
                    "n_rows": g["l_quantity_count"].to_numpy(zero_copy_only=False),
                    "sum_qty": g["l_quantity_sum"].to_numpy(zero_copy_only=False),
                }
            )

        ds = decode_dataset(out, columns=["l_returnflag", "l_quantity"])
        tot = finish_on_driver(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["l_returnflag"],
            ["n_rows", "sum_qty"],
        ).sort_values("l_returnflag")
        return pa.table(
            {
                "l_returnflag": pa.array(tot["l_returnflag"], pa.string()),
                "n_rows": pa.array(tot["n_rows"].astype("int64"), pa.int64()),
                "sum_qty": pa.array(sql_round(tot["sum_qty"].to_numpy(), 2), pa.float64()),
            }
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def store_snapshot_travel(sf_dir: str) -> pa.Table:
    """ORACLE-CHECKED time travel: encode recast orders, take a hard-link
    snapshot, DELETE every conversation with o_custkey % 50 == 0 from the
    live store, then aggregate BOTH the snapshot (which must still see the
    pre-delete bytes — the links pin the old inodes through the in-place
    rewrite) and the live store. SQL over orders expresses both states
    exactly, so the driver verifies the snapshot read-back independently of
    our own decode. Fresh scratch store per call (the delete mutates it)."""
    import shutil
    import tempfile

    import pandas as pd
    import pyarrow.compute as pc

    from ..encode import delete_conversations, encode_dataset
    from ..snapshot import snapshot_store
    from ._util import read_parquet_clean

    out = tempfile.mkdtemp(prefix="pcr-snap-", dir="/tmp")
    try:
        encode_dataset(_recast_orders(sf_dir), out, n_parts=8, salt_rows=8)
        snap = snapshot_store(out, name="pre-delete")

        keys = read_parquet_clean(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

        def victims_of(batch: pa.Table) -> pa.Table:
            import numpy as np

            ck = batch["o_custkey"].combine_chunks()
            m = pa.array(ck.to_numpy(zero_copy_only=False) % 50 == 0)
            return pa.table({"k": pc.unique(ck.filter(m))})

        vic = sorted(
            {
                f"conv-{k}"
                for b in keys.map_batches(victims_of, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
                for k in b["k"].to_pylist()
            }
        )
        delete_conversations(out, vic)

        rows = []
        for src, path in (("live", out), ("snapshot", snap["path"])):
            st = store_role_stats(path).to_pandas()
            rows.append(
                {"src": src, "n": int(st["n_turns"].sum()), "sum_chars": int(st["n_chars"].sum())}
            )
        return pa.Table.from_pandas(
            pd.DataFrame(rows).sort_values("src"), preserve_index=False
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _orders_family(sf_dir: str) -> list[str]:
    """Two 'delivery' stores of orders split at o_orderdate 1996-01-01 — the
    incremental-ingest lifecycle store families exist for: each
    delivery encoded on arrival into its own store (no rewrite of history),
    queried together as one family until compaction conforms them. Both
    deliveries range-cluster on o_orderdate so zone maps prune date bands
    inside each member too. Cached per sf."""
    import datetime as _dt

    import pyarrow.compute as pc

    from ._util import read_parquet_clean

    tag = os.path.basename(os.path.normpath(sf_dir))
    cut = _dt.datetime(1996, 1, 1)
    dirs = []
    for name, keep in (
        ("hist", lambda t: t.filter(pc.less(t["o_orderdate"], cut))),
        ("new", lambda t: t.filter(pc.greater_equal(t["o_orderdate"], cut))),
    ):
        out = os.path.join(_CACHE, f"encoded-orders-fam-{name}-{tag}")
        if not os.path.exists(os.path.join(out, "manifest.jsonl")):
            import shutil

            shutil.rmtree(out, ignore_errors=True)
            ds = read_parquet_clean(f"{sf_dir}/orders.parquet").map_batches(
                keep, batch_format="pyarrow"
            )
            encode_dataset(
                ds,
                out,
                conv_col="o_orderkey",
                order_col="o_custkey",
                sort_key=("o_orderkey",),
                salt_rows=0,
                cluster_by="o_orderdate",
            )
        dirs.append(out)
    return dirs


def store_family_scan(sf_dir: str) -> pa.Table:
    """Predicate-pushdown scan over a FAMILY of delivery stores as one
    logical table: ``scan_store`` runs the full per-store pruning
    stack and decodes every member's survivors in one Dataset, without
    moving rows. The 1996 date band postdates the delivery split, so the
    historical store must answer entirely from manifest zone maps — zero of
    its containers open (asserted). Oracle: plain SQL over raw orders."""
    from ..zonemap import scan_store
    from ._util import sql_round

    dirs = _orders_family(sf_dir)
    ds, plan = scan_store(
        dirs,
        [
            ("o_orderdate", "between", ("1996-03-01", "1996-09-30")),
            ("o_orderpriority", "==", "1-URGENT"),
        ],
        columns=["o_totalprice"],
        return_plan=True,
    )
    hist = plan["stores"][dirs[0]]
    assert hist["scanned"] == 0, f"hist delivery should prune fully: {hist}"
    n = 0
    s = 0.0
    for b in ds.iter_batches(batch_format="pyarrow"):
        n += b.num_rows
        if b.num_rows:
            s += float(np.sum(b["o_totalprice"].to_numpy(zero_copy_only=False)))
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "sum_totalprice": pa.array(
                [float(sql_round(np.array([s]), 2)[0])], pa.float64()
            ),
        }
    )


def store_family_agg(sf_dir: str) -> pa.Table:
    """Metadata-first aggregates over the delivery FAMILY: each member runs
    its own three-class plan (pruned / metadata-answered / scanned) and the
    family answer folds exactly — count/sum additive, min/max by
    comparison. The date band ends before the delivery split, so the post-
    split store contributes zero opened containers (every one pruned,
    asserted). Oracle: plain SQL over raw orders."""
    from ..storeagg import store_agg
    from ._util import sql_round

    dirs = _orders_family(sf_dir)
    res, plan = store_agg(
        dirs,
        ["count", "min:o_totalprice", "max:o_totalprice", "sum:o_totalprice"],
        [("o_orderdate", "between", ("1994-01-01", "1995-06-30"))],
        return_plan=True,
    )
    new = plan["stores"][dirs[1]]
    assert new["pruned_stats"] == new["parts_total"], f"post-split store should prune fully: {new}"
    r2 = lambda v: float(sql_round(np.array([float(v)]), 2)[0])  # noqa: E731
    return pa.table(
        {
            "n_rows": pa.array([int(res["count"])], pa.int64()),
            "min_price": pa.array([r2(res["min_o_totalprice"])], pa.float64()),
            "max_price": pa.array([r2(res["max_o_totalprice"])], pa.float64()),
            "sum_price": pa.array([r2(res["sum_o_totalprice"])], pa.float64()),
        }
    )


def store_distinct_pushdown(sf_dir: str) -> pa.Table:
    """DISTINCT pushdown over the range-clustered lineitem store
    (``storedistinct.store_distinct``): the ship-date predicate prunes the
    pre-band containers from manifest zone maps (asserted); fully-matching
    survivors answer from their dictionary footers (KB-ranged reads of the
    dict-values buffers — ``l_returnflag`` is low-cardinality, so the dict
    codec wins at encode) without decoding any data pages (asserted); only
    the band-boundary containers decode. Oracle: SELECT DISTINCT over raw
    lineitem."""
    from ..storedistinct import store_distinct

    tbl, plan = store_distinct(
        _lineitem_range_store(sf_dir),
        "l_returnflag",
        [("l_shipdate", ">=", "1997-01-01")],
        return_plan=True,
    )
    assert plan["pruned_stats"] > 0, f"range clustering should prune the pre-band: {plan}"
    assert plan["footer_answered"] > 0, f"dict footers should answer: {plan}"
    return tbl


def store_topk_scan(sf_dir: str) -> pa.Table:
    """ORDER BY ... LIMIT pushdown over the range-clustered lineitem store
    (``storetopk.store_topk``): zone maps prove a ship-date threshold τ from
    fully-matching containers, τ joins the predicate, and only the latest
    date-range containers decode (asserted) — their per-page min/max masks
    and sorted-lead ranges narrow further inside each container. The
    (l_orderkey, l_linenumber) tiebreak makes the row SET deterministic.
    Oracle: plain ORDER BY ... LIMIT over raw lineitem."""
    from ..storetopk import store_topk

    tbl, plan = store_topk(
        _lineitem_range_store(sf_dir),
        "l_shipdate",
        12,
        desc=True,
        columns=["l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice"],
        tiebreak=["l_orderkey", "l_linenumber"],
        return_plan=True,
    )
    assert plan["tau"] is not None, f"zone maps should prove a threshold: {plan}"
    assert plan["pruned_stats"] > 0, f"τ should prune early-date containers: {plan}"
    return tbl


def store_family_topk(sf_dir: str) -> pa.Table:
    """Top-k over the delivery FAMILY as one logical table
    (``storetopk.store_topk``): the τ guarantee pool spans both
    members (top-k is a global question), the date-band predicate prunes
    pre-band containers inside the historical member (asserted), and one
    scan covers every surviving container across members. Oracle:
    WHERE + ORDER BY ... LIMIT over raw orders."""
    from ..storetopk import store_topk

    tbl, plan = store_topk(
        _orders_family(sf_dir),
        "o_totalprice",
        7,
        desc=True,
        predicate=[("o_orderdate", ">=", "1995-07-01")],
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
        tiebreak=["o_orderkey"],
        return_plan=True,
    )
    assert plan["tau"] is not None, f"full containers should prove τ: {plan}"
    assert plan["pruned_stats"] > 0, f"the pre-band should prune: {plan}"
    return tbl


def store_sample_pushdown(sf_dir: str) -> pa.Table:
    """Deterministic hash-sample over the delivery FAMILY
    (``storesample.store_sample``): the 120 rows whose
    ``md5(o_orderkey || ':r5')`` digests sort lowest — a content-stable,
    engine-reproducible draw. Pass 1 decodes ONLY the key column of every
    member; pass 2 re-fetches the winners through the ordinary point-lookup
    scan stack. Oracle: the identical md5 ordering in SQL — randomness made
    hash-checkable."""
    from ..storesample import store_sample

    return store_sample(
        _orders_family(sf_dir),
        "o_orderkey",
        120,
        seed="r5",
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
    )


def documents_bm25_search(sf_dir: str) -> pa.Table:
    """BM25-ranked retrieval over the token-bloomed documents store
    (``storesearch.store_search(mode="bm25")``): two-pass Okapi BM25 —
    exact df/length statistics over the pruned candidate set, then
    tokenizer-exact tf scoring with length normalization and a float top-k
    fold. Rows-only by design (BM25 has no SQL analogue); ranking
    properties are pytest-pinned in tests/test_storesearch.py."""
    from ..storesearch import store_search

    return store_search(
        _documents_token_store(sf_dir),
        "text",
        "spark dup quantum",
        10,
        mode="bm25",
        columns=["doc_id", "lang"],
        tiebreak=["doc_id"],
    )


def store_approx_distinct_orders(sf_dir: str) -> pa.Table:
    """Approximate COUNT(DISTINCT o_custkey) over the orders delivery
    family (``storedistinct.store_approx_distinct``): HyperLogLog partials
    over the pruned scan — fixed 4 KB driver state at any cardinality (the
    at-scale dual of the exact footer-answered DISTINCT). Rows-only by
    design (an approximate count has no exact SQL oracle); the ≤5%-of-exact
    accuracy bound is pytest-pinned (tests/test_storedistinct.py)."""
    from ..storedistinct import store_approx_distinct

    n = store_approx_distinct(_orders_family(sf_dir), "o_custkey")
    return pa.table({"approx_custkeys": pa.array([int(n)], pa.int64())})


def docs_stratified_sample(sf_dir: str) -> pa.Table:
    """Stratified deterministic sample over the documents store
    (``storesample.store_sample_stratified``): 5 documents PER LANGUAGE,
    chosen by the lowest md5(doc_id + seed) digests within each language —
    the "n docs per stratum" curation draw, content-stable across engines
    and oracle-checkable as ROW_NUMBER() OVER (PARTITION BY lang ORDER BY
    md5(...)) <= 5. Pass 1 decodes only (doc_id, lang); pass 2 fetches the
    winners through the point-lookup scan stack."""
    from ..storesample import store_sample_stratified

    return store_sample_stratified(
        _documents_token_store(sf_dir),
        "doc_id",
        ["lang"],
        5,
        seed="r5",
        columns=["lang", "doc_id"],
    )


def documents_ranked_search(sf_dir: str) -> pa.Table:
    """Ranked full-text search over the token-bloomed documents store
    (``storesearch.store_search``): score = number of DISTINCT query tokens
    a document contains (one RE2 token-boundary match per token — the
    hastok mask's own pattern class), ``hasany`` pruning drops containers
    provably holding NO query token via ranged token-bloom footer reads,
    per-block top-k partials fold on the driver. The doc_id tiebreak makes
    the row SET deterministic. Oracle: the identical CASE-regexp score in
    DuckDB (same RE2 class) with the same ORDER BY ... LIMIT."""
    from ..storesearch import store_search

    tbl = store_search(
        _documents_token_store(sf_dir),
        "text",
        "spark dup quantum",
        20,
        columns=["doc_id", "lang"],
        tiebreak=["doc_id"],
    )
    return tbl


def store_quantiles_scan(sf_dir: str) -> pa.Table:
    """EXACT quantiles over the range-clustered lineitem store
    (``storeagg.store_quantiles``): the ship-date band prunes the pre-band
    containers from manifest zone maps (asserted), then the
    histogram-refinement selection (``profile.exact_quantiles`` — per-block
    fixed-size histogram partials, only the rank-bearing bins' values
    collected) runs over the pruned, one-column decode. No sort exchange at
    any store size. Oracle: quantile_cont over raw lineitem under the same
    band."""
    from ..storeagg import store_quantiles
    from ._util import sql_round

    qs = [0.25, 0.5, 0.75, 0.9]
    vals, plan = store_quantiles(
        _lineitem_range_store(sf_dir),
        "l_extendedprice",
        qs,
        [("l_shipdate", ">=", "1997-01-01")],
        return_plan=True,
    )
    assert plan["pruned_stats"] > 0, f"range clustering should prune the pre-band: {plan}"
    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "value": pa.array([sql_round(v, 4) for v in vals], pa.float64()),
        }
    )


def store_group_topk_scan(sf_dir: str) -> pa.Table:
    """Grouped top-k pushdown over the range-clustered lineitem store
    (``storetopk.store_group_topk``): ``ROW_NUMBER() OVER (PARTITION BY
    l_returnflag ORDER BY l_extendedprice DESC, ...) <= 3`` without a global
    sort or exchange — the ship-date predicate prunes the pre-band
    containers from manifest zone maps (asserted), survivors decode only the
    5 involved columns, each block keeps its 3 best rows per flag, and the
    driver fold repeats the selection over ≤ 3 flags × 3 × blocks rows.
    Oracle: the same window query over raw lineitem."""
    from ..storetopk import store_group_topk

    tbl, plan = store_group_topk(
        _lineitem_range_store(sf_dir),
        ["l_returnflag"],
        "l_extendedprice",
        3,
        desc=True,
        predicate=[("l_shipdate", ">=", "1997-01-01")],
        columns=["l_returnflag", "l_orderkey", "l_linenumber", "l_extendedprice"],
        tiebreak=["l_orderkey", "l_linenumber"],
        return_plan=True,
    )
    assert plan["pruned_stats"] > 0, f"range clustering should prune the pre-band: {plan}"
    return tbl.sort_by(
        [("l_returnflag", "ascending"), ("l_extendedprice", "descending"),
         ("l_orderkey", "ascending"), ("l_linenumber", "ascending")]
    )


def store_group_agg(sf_dir: str) -> pa.Table:
    """GROUP BY pushdown over the range-clustered lineitem store
    (``storegroup.store_agg_group``): the ship-date predicate prunes the
    pre-band containers from manifest zone maps (asserted), survivors decode
    only the 5 involved columns and fold vectorized grouped partials; the
    final fold is one driver-side Arrow group_by. ``sum(l_quantity)`` is a
    sum of integral-valued doubles — exact in f64 regardless of fold order,
    so the hash against DuckDB is stable without rounding. Oracle: plain
    SQL GROUP BY over raw lineitem."""
    from ..storegroup import store_agg_group

    tbl, plan = store_agg_group(
        _lineitem_range_store(sf_dir),
        ["l_returnflag", "l_linestatus"],
        ["count", "sum:l_quantity", "min:l_extendedprice", "max:l_shipdate"],
        [("l_shipdate", ">=", "1997-01-01")],
        return_plan=True,
    )
    assert plan["pruned_stats"] > 0, f"range clustering should prune the pre-band: {plan}"
    tbl = tbl.rename_columns(
        ["l_returnflag", "l_linestatus", "n_rows", "sum_l_quantity",
         "min_l_extendedprice", "max_l_shipdate"]
    )
    return tbl.sort_by(
        [("l_returnflag", "ascending"), ("l_linestatus", "ascending")]
    )


def store_family_group_agg(sf_dir: str) -> pa.Table:
    """GROUP BY over the delivery FAMILY as one logical table
    (``storegroup.store_agg_group``): per-member three-class plans
    share one partial pool, one scan covers every member's remainder,
    and the date band ending before the delivery split proves the post-split
    member contributes zero opened containers (asserted). Oracle: plain SQL
    GROUP BY over raw orders."""
    from ..storegroup import store_agg_group
    from ._util import sql_round

    dirs = _orders_family(sf_dir)
    tbl, plan = store_agg_group(
        dirs,
        ["o_orderpriority"],
        ["count", "min:o_totalprice", "max:o_totalprice", "sum:o_totalprice"],
        [("o_orderdate", "between", ("1994-01-01", "1995-06-30"))],
        return_plan=True,
    )
    new = plan["stores"][dirs[1]]
    assert new["pruned_stats"] == new["parts_total"], f"post-split store should prune fully: {new}"
    import pandas as pd

    df = tbl.to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    out = pd.DataFrame(
        {
            "o_orderpriority": df["o_orderpriority"],
            "n_rows": df["count"].astype("int64"),
            "min_price": sql_round(df["min_o_totalprice"].to_numpy(), 2),
            "max_price": sql_round(df["max_o_totalprice"].to_numpy(), 2),
            "sum_price": sql_round(df["sum_o_totalprice"].to_numpy(), 2),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)
