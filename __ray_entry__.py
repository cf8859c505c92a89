"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01 and
compares it against the matching ``oracle_sql()[name]`` via DuckDB (row-count +
schema + order-insensitive value-hash -> CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing here
(or in parquet_converter_ray) calls ``ray.init()`` / ``ray.shutdown()``.

Column names in every Ray result match the oracle SQL aliases exactly; float
aggregates are rounded identically (4 decimals) on both sides.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# this file's own checkout first, so that each copy of the repo imports its
# own engine
_CHECKOUT = os.path.dirname(os.path.abspath(__file__))
if sys.path[:1] != [_CHECKOUT]:
    sys.path.insert(0, _CHECKOUT)

# Ray workers import UDF modules by name: force by-value serialisation of our
# package so worker importability never depends on the driver's cwd.
try:
    import cloudpickle

    import parquet_converter_ray as _pkg

    cloudpickle.register_pickle_by_value(_pkg)
except Exception:
    pass


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: transcript encode ->
    containers -> decode, returning the decoded (stable-ordered) table."""
    from parquet_converter_ray.pipelines.transcripts import transcript_roundtrip

    return transcript_roundtrip("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from parquet_converter_ray.pipelines import (
        analytics,
        behavior,
        dedup,
        export,
        multimodal,
        relational,
        similarity,
        text,
        transcripts,
        windows,
    )

    return {
        # NOTE on ordering: the driver verifies the FIRST 50 entries per round.
        # The window opens with every entry whose plan runs the plan-time
        # footer tasks (zonemap.probe_verdicts, storedistinct's footer
        # class): the ==/in/prefix/text pushdowns, the DPP dimension joins
        # and store_retention_delete (delete_rows probes on membership
        # predicates), then transcript_lookup and transcript_delete, whose
        # lookup and key delete plan through the partition router
        # (zonemap._hash_route_parts). Every entry whose decode runs as
        # plain Ray tasks (zonemap.PrunedScan.run, and scans under its
        # crossover) is inside the window too: the two range scans follow,
        # and the rest sit in the groups below. Then the round-5 new queries, the 3 entries never
        # driver-checked through round 4, the refactor-touched rows and the
        # round-4 window remainder. The three store-join entries
        # (rebucket_join, store_three_way_join, store_bucket_join) sit with the
        # round-5 group. Long-green rows rotate just below slot 50.
        # --- plans that run the footer tasks ---
        "store_distinct_pushdown": transcripts.store_distinct_pushdown,
        "store_sample_pushdown": transcripts.store_sample_pushdown,
        "documents_ranked_search": transcripts.documents_ranked_search,
        "docs_stratified_sample": transcripts.docs_stratified_sample,
        "documents_bm25_search": transcripts.documents_bm25_search,
        "documents_text_search": transcripts.documents_text_search,
        "documents_phrase_search": transcripts.documents_phrase_search,
        "documents_anytoken_search": transcripts.documents_anytoken_search,
        "documents_prefix_scan": transcripts.documents_prefix_scan,
        "documents_source_scan": transcripts.documents_source_scan,
        "lineitem_bloom_scan": transcripts.lineitem_bloom_scan,
        "lineitem_scan_pushdown": transcripts.lineitem_scan_pushdown,
        "store_family_scan": transcripts.store_family_scan,
        "dpp_dim_join": transcripts.dpp_dim_join,
        "salted_dim_join": transcripts.salted_dim_join,
        "store_retention_delete": transcripts.store_retention_delete,
        # --- the point lookup and key delete: the partition router's plans ---
        "transcript_lookup": transcripts.transcript_lookup,
        "transcript_delete": transcripts.transcript_delete,
        # --- small-plan decode as plain Ray tasks, no footer probe ---
        "lineitem_range_scan": transcripts.lineitem_range_scan,
        "lineitem_band_union_revenue": transcripts.lineitem_band_union_revenue,
        # --- round-5 new queries ---
        "store_topk_scan": transcripts.store_topk_scan,
        "store_family_topk": transcripts.store_family_topk,
        "store_group_topk_scan": transcripts.store_group_topk_scan,
        "store_quantiles_scan": transcripts.store_quantiles_scan,
        "store_approx_distinct_orders": transcripts.store_approx_distinct_orders,
        "store_group_agg": transcripts.store_group_agg,
        "store_family_group_agg": transcripts.store_family_group_agg,
        "store_cdc_changes": transcripts.store_cdc_changes,
        "rebucket_join": transcripts.rebucket_join,
        "store_upsert_stats": transcripts.store_upsert_stats,
        "store_snapshot_travel": transcripts.store_snapshot_travel,
        "store_three_way_join": transcripts.store_three_way_join,
        "store_bucket_join": transcripts.store_bucket_join,
        "documents_zorder_scan": transcripts.documents_zorder_scan,
        "image_dedup_phash_store": multimodal.image_dedup_phash_store,
        "orders_transcript_store_stats": transcripts.orders_transcript_store_stats,
        "store_family_agg": transcripts.store_family_agg,
        # --- never driver-checked through round 4 (3) ---
        "knn_ivf_persisted": similarity.knn_ivf_persisted,
        "events_window_unique_users_approx": windows.events_window_unique_users_approx,
        "image_phash_clusters": multimodal.image_phash_clusters,
        # --- touched by round-5 refactors ---
        "dedup_simhash": dedup.dedup_simhash,
        "image_dedup_phash": multimodal.image_dedup_phash,
        "store_agg_pushdown": transcripts.store_agg_pushdown,
        "store_agg_metadata_only": transcripts.store_agg_metadata_only,
        # --- round-4 window remainder ---
        "event_funnel": behavior.event_funnel,
        "events_daily_gapfill": behavior.events_daily_gapfill,
        "purchase_error_window": behavior.purchase_error_window,
        "user_rolling_peak": behavior.user_rolling_peak,
        "user_rolling_peak_salted": behavior.user_rolling_peak_salted,
        "scrub_pii": text.scrub_pii,
        # --- slot 50 from here: the window ends above. chunk_documents and
        # token_dup_stats (long-green, store-free) made room for
        # transcript_lookup and transcript_delete, decontaminate for
        # store_bucket_join, and fuzzy_name_pairs and name_clusters for the
        # two range scans ---
        "chunk_documents": text.chunk_documents,
        "token_dup_stats": text.token_dup_stats,
        "decontaminate": text.decontaminate,
        "fuzzy_name_pairs": dedup.fuzzy_name_pairs,
        "name_clusters": dedup.name_clusters,
        "dedup_substring": dedup.dedup_substring,
        "dedup_incremental": dedup.dedup_incremental,
        "transcript_role_stats": transcripts.transcript_role_stats,
        "transcript_length_histogram": transcripts.transcript_length_histogram,
        "transcript_tool_usage": transcripts.transcript_tool_usage,
        "convert_jsonl_roundtrip": transcripts.convert_jsonl_roundtrip,
        "lineitem_store_profile": transcripts.lineitem_store_profile,
        "mix_sources": export.mix_sources,
        "split_assign": export.split_assign,
        # --- rotated below the window for the two new grouped-aggregate
        # queries; long-green since r4 ---
        "pack_sequences": export.pack_sequences,
        "export_shards": export.export_shards,
        "audio_rms_windows": multimodal.audio_rms_windows,
        "asof_attribution": behavior.asof_attribution,
        "asof_attribution_salted": behavior.asof_attribution_salted,
        "events_window_unique_users": windows.events_window_unique_users,
        "q19_disjunctive_revenue": relational.q19_disjunctive_revenue,
        "range_search": similarity.range_search,
        # --- (slot >50 from here) rotated-out long-green rows ---
        "export_wds": export.export_wds,
        "label_centroids": similarity.label_centroids,
        "customer_year_overlap": analytics.customer_year_overlap,
        "cohort_retention": behavior.cohort_retention,
        "latest_event_per_user": behavior.latest_event_per_user,
        "revenue_mom_growth": behavior.revenue_mom_growth,
        "unpivot_customer": windows.unpivot_customer,
        "q14_promo_revenue": relational.q14_promo_revenue,
        "mode_quantity_by_flag": relational.mode_quantity_by_flag,
        # --- long-green remainder ---
        "tfidf_top_terms": text.tfidf_top_terms,
        "dedup_minhash": dedup.dedup_minhash,
        "dedup_exact": dedup.dedup_exact,
        "dedup_ngram_jaccard": dedup.dedup_ngram_jaccard,
        "dedup_embedding": dedup.dedup_embedding,
        "dedup_embedding_lsh": dedup.dedup_embedding_lsh,
        "dedup_components": dedup.dedup_components,
        "transcript_roundtrip": transcripts.transcript_roundtrip,
        "transcript_codec_plan": transcripts.transcript_codec_plan,
        "lineitem_codec_roundtrip": transcripts.lineitem_codec_roundtrip,
        "curate_documents": text.curate_documents,
        "knn_bruteforce": similarity.knn_bruteforce,
        "knn_lsh": similarity.knn_lsh,
        "knn_ivf": similarity.knn_ivf,
        "convert_csv_roundtrip": transcripts.convert_csv_roundtrip,
        "multimodal_features": multimodal.multimodal_features,
        # --- reference-parity relational / profiling (SURVEY §2.5-2.6) ---
        "count_lineitem": relational.count_lineitem,
        "null_unique_profile": relational.null_unique_profile,
        "distinct_parts": relational.distinct_parts,
        "approx_distinct_parts": relational.approx_distinct_parts,
        "numeric_stats_lineitem": relational.numeric_stats_lineitem,
        "median_totalprice": relational.median_totalprice,
        "top5_orderpriority": relational.top5_orderpriority,
        "value_counts_returnflag": relational.value_counts_returnflag,
        "head_lineitem": relational.head_lineitem,
        "tail_lineitem": relational.tail_lineitem,
        "ts_range_orders": relational.ts_range_orders,
        "pricing_summary": relational.pricing_summary,
        "orders_by_month": relational.orders_by_month,
        "events_hourly_window": relational.events_hourly_window,
        "segment_revenue": relational.segment_revenue,
        "customers_without_orders": relational.customers_without_orders,
        "events_sessionize": relational.events_sessionize,
        "events_json_mean": relational.events_json_mean,
        "user_event_sequence": relational.user_event_sequence,
        "order_lineitem_join": relational.order_lineitem_join,
        "q5_local_supplier_revenue": relational.q5_local_supplier_revenue,
        "q3_top_orders": relational.q3_top_orders,
        "q17_small_quantity_revenue": relational.q17_small_quantity_revenue,
        "session_duration_quantiles": relational.session_duration_quantiles,
        "brand_revenue": relational.brand_revenue,
        # --- ordered / windowed operators (as-of, range join, windows, rank,
        # pivot, exact quantiles) ---
        "asof_join_events_orders": windows.asof_join_events_orders,
        "quantity_band_revenue": windows.quantity_band_revenue,
        "customer_order_running": windows.customer_order_running,
        "top2_orders_per_customer": windows.top2_orders_per_customer,
        "user_event_pivot": windows.user_event_pivot,
        "price_quantiles": windows.price_quantiles,
        "events_hopping_window": windows.events_hopping_window,
        "frequent_quantities": windows.frequent_quantities,
        "top_bigrams": text.top_bigrams,
        "rollup_revenue": relational.rollup_revenue,
        "event_intervals": relational.event_intervals,
        "docs_per_lang_sample": windows.docs_per_lang_sample,
        "term_postings": text.term_postings,
        # --- distributed analytics (grouped distinct, sketches, histogram,
        # streaming moments, Bloom semi-join, deterministic sampling) ---
        "distinct_users_by_type": analytics.distinct_users_by_type,
        "approx_distinct_users_by_type": analytics.approx_distinct_users_by_type,
        "totalprice_histogram": analytics.totalprice_histogram,
        "corr_quantity_price": analytics.corr_quantity_price,
        "bloom_urgent_revenue": analytics.bloom_urgent_revenue,
        "sample_orders_bottomk": analytics.sample_orders_bottomk,
        "events_zscore_outliers": analytics.events_zscore_outliers,
        "median_price_by_priority": analytics.median_price_by_priority,
        "customer_balance_ntile": analytics.customer_balance_ntile,
        "weighted_sample_orders": analytics.weighted_sample_orders,
        "approx_price_quantiles": analytics.approx_price_quantiles,
        # --- behavioral / product analytics over the event stream ---
        # --- text analysis ---
        "token_counts": text.token_counts,
        "token_counts_bpe": text.token_counts_bpe,
        "char_stats": text.char_stats,
        "doc_fingerprint": text.doc_fingerprint,
        "lang_quality": text.lang_quality,
        "winnow_fingerprints": text.winnow_fingerprints,
        # --- dedup ---
        # --- similarity search ---
        # --- north-star transcript codec engine (non-SQL) ---
        # --- training-shard preparation (mixture, split, packing, export) ---
        # --- multimodal plumbing (stubbed decode) ---
        "multimodal_resize": multimodal.multimodal_resize,
        "video_frame_sample": multimodal.video_frame_sample,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "store_distinct_pushdown": """
            SELECT DISTINCT l_returnflag
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
            ORDER BY l_returnflag
        """,
        "store_topk_scan": """
            SELECT l_orderkey, l_linenumber, l_shipdate, l_extendedprice
            FROM lineitem
            ORDER BY l_shipdate DESC, l_orderkey, l_linenumber
            LIMIT 12
        """,
        "store_family_topk": """
            SELECT o_orderkey, o_orderdate, o_totalprice
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1995-07-01'
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 7
        """,
        "docs_stratified_sample": """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id, ROW_NUMBER() OVER (
                    PARTITION BY lang
                    ORDER BY md5(CAST(doc_id AS VARCHAR) || ':r5'), doc_id
                ) AS rn
                FROM documents
            )
            WHERE rn <= 5
            ORDER BY lang, md5(CAST(doc_id AS VARCHAR) || ':r5'), doc_id
        """,
        "documents_ranked_search": """
            SELECT doc_id, lang, score FROM (
                SELECT doc_id, lang,
                       ((CASE WHEN regexp_matches(lower(text), '(^|[^a-z0-9])spark([^a-z0-9]|$)') THEN 1 ELSE 0 END)
                      + (CASE WHEN regexp_matches(lower(text), '(^|[^a-z0-9])dup([^a-z0-9]|$)') THEN 1 ELSE 0 END)
                      + (CASE WHEN regexp_matches(lower(text), '(^|[^a-z0-9])quantum([^a-z0-9]|$)') THEN 1 ELSE 0 END)
                       )::INTEGER AS score
                FROM documents
            )
            WHERE score >= 1
            ORDER BY score DESC, doc_id
            LIMIT 20
        """,
        "store_quantiles_scan": """
            SELECT q, value FROM (
                SELECT CAST(0.25 AS DOUBLE) AS q, round(quantile_cont(l_extendedprice, 0.25), 4) AS value FROM lineitem WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                UNION ALL
                SELECT 0.5, round(quantile_cont(l_extendedprice, 0.5), 4) FROM lineitem WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                UNION ALL
                SELECT 0.75, round(quantile_cont(l_extendedprice, 0.75), 4) FROM lineitem WHERE l_shipdate >= TIMESTAMP '1997-01-01'
                UNION ALL
                SELECT 0.9, round(quantile_cont(l_extendedprice, 0.9), 4) FROM lineitem WHERE l_shipdate >= TIMESTAMP '1997-01-01'
            )
            ORDER BY q
        """,
        "store_sample_pushdown": """
            SELECT o_orderkey, o_orderdate, o_totalprice
            FROM orders
            ORDER BY md5(CAST(o_orderkey AS VARCHAR) || ':r5'), o_orderkey
            LIMIT 120
        """,
        "store_group_topk_scan": """
            SELECT l_returnflag, l_orderkey, l_linenumber, l_extendedprice
            FROM (
                SELECT l_returnflag, l_orderkey, l_linenumber, l_extendedprice,
                       ROW_NUMBER() OVER (
                           PARTITION BY l_returnflag
                           ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber
                       ) AS rn
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1997-01-01'
            )
            WHERE rn <= 3
            ORDER BY l_returnflag, l_extendedprice DESC, l_orderkey, l_linenumber
        """,
        "store_group_agg": """
            SELECT l_returnflag, l_linestatus,
                   count(*)::BIGINT AS n_rows,
                   sum(l_quantity)::DOUBLE AS sum_l_quantity,
                   min(l_extendedprice) AS min_l_extendedprice,
                   max(l_shipdate) AS max_l_shipdate
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "store_family_group_agg": """
            SELECT o_orderpriority,
                   count(*)::BIGINT AS n_rows,
                   round(min(o_totalprice), 2) AS min_price,
                   round(max(o_totalprice), 2) AS max_price,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders
            WHERE o_orderdate BETWEEN TIMESTAMP '1994-01-01' AND TIMESTAMP '1995-06-30'
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "count_lineitem": "SELECT count(*) AS n FROM lineitem",
        "null_unique_profile": """
            SELECT 'o_custkey' AS col, count(*) - count(o_custkey) AS null_count,
                   count(DISTINCT o_custkey) AS n_unique FROM orders
            UNION ALL
            SELECT 'o_orderstatus', count(*) - count(o_orderstatus),
                   count(DISTINCT o_orderstatus) FROM orders
            UNION ALL
            SELECT 'o_orderpriority', count(*) - count(o_orderpriority),
                   count(DISTINCT o_orderpriority) FROM orders
        """,
        "distinct_parts": "SELECT count(DISTINCT l_partkey) AS n_unique FROM lineitem",
        "numeric_stats_lineitem": """
            SELECT 'l_quantity' AS col, round(min(l_quantity),4) AS min_v,
                   round(max(l_quantity),4) AS max_v, round(avg(l_quantity),4) AS mean_v,
                   round(stddev_samp(l_quantity),4) AS std_v FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice', round(min(l_extendedprice),4), round(max(l_extendedprice),4),
                   round(avg(l_extendedprice),4), round(stddev_samp(l_extendedprice),4) FROM lineitem
            UNION ALL
            SELECT 'l_discount', round(min(l_discount),4), round(max(l_discount),4),
                   round(avg(l_discount),4), round(stddev_samp(l_discount),4) FROM lineitem
        """,
        "median_totalprice": "SELECT round(median(o_totalprice),4) AS median_totalprice FROM orders",
        "top5_orderpriority": """
            SELECT o_orderpriority, count(*) AS cnt FROM orders
            GROUP BY o_orderpriority ORDER BY cnt DESC, o_orderpriority LIMIT 5
        """,
        "value_counts_returnflag": """
            SELECT l_returnflag, count(*) AS cnt FROM lineitem GROUP BY l_returnflag
        """,
        "head_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
            ORDER BY l_orderkey, l_linenumber LIMIT 10
        """,
        "tail_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
            ORDER BY l_orderkey DESC, l_linenumber DESC LIMIT 5
        """,
        "ts_range_orders": """
            SELECT min(o_orderdate) AS min_ts, max(o_orderdate) AS max_ts FROM orders
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity),2) AS sum_qty,
                   round(sum(l_extendedprice),2) AS sum_base_price,
                   round(sum(l_extendedprice*(1-l_discount)),2) AS sum_disc_price,
                   count(*) AS count_order,
                   round(sum(l_quantity)/count(*),4) AS avg_qty,
                   round(sum(l_extendedprice)/count(*),4) AS avg_price
            FROM lineitem WHERE l_shipdate <= TIMESTAMP '2000-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_month": """
            SELECT date_trunc('month', o_orderdate) AS month, count(*) AS n
            FROM orders GROUP BY 1
        """,
        "events_hourly_window": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n, round(sum(value),4) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "segment_revenue": """
            SELECT c_mktsegment, round(sum(o_totalprice),2) AS total,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "customers_without_orders": """
            SELECT c_custkey FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_totalprice > 400000)
        """,
        "events_sessionize": """
            WITH e AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                            OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS ns
                FROM events),
            s AS (SELECT user_id, ts,
                         sum(ns) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
                  FROM e)
            SELECT user_id, min(ts) AS session_start, count(*) AS n_events
            FROM s GROUP BY user_id, sid
        """,
        "session_duration_quantiles": """
            WITH e AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                            OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS ns
                FROM events),
            s AS (SELECT user_id, ts,
                         sum(ns) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
                  FROM e),
            d AS (SELECT epoch(max(ts) - min(ts)) AS duration_sec
                  FROM s GROUP BY user_id, sid)
            SELECT 0.5 AS q, round(quantile_cont(duration_sec, 0.5), 4) AS duration_sec FROM d
            UNION ALL
            SELECT 0.9, round(quantile_cont(duration_sec, 0.9), 4) FROM d
            UNION ALL
            SELECT 0.99, round(quantile_cont(duration_sec, 0.99), 4) FROM d
            ORDER BY q
        """,
        "events_json_mean": """
            SELECT event_type,
                   round(avg(CAST(json_extract_string(props, '$.k') AS DOUBLE)),4) AS mean_k,
                   count(*) AS n
            FROM events GROUP BY event_type
        """,
        "order_lineitem_join": """
            SELECT o_orderpriority,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority
        """,
        "asof_join_events_orders": """
            WITH o AS (
                SELECT o_custkey, o_orderdate, max(o_totalprice) AS o_price
                FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_id, e.user_id, o.o_orderdate AS order_date,
                   o.o_price AS order_price
            FROM events e ASOF LEFT JOIN o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "quantity_band_revenue": """
            WITH bands(band, lo, hi) AS (
                VALUES ('low', 1, 10), ('mid', 10, 25), ('high', 25, 40), ('bulk', 40, 51))
            SELECT band, count(*) AS n,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem JOIN bands ON l_quantity >= lo AND l_quantity < hi
            GROUP BY band
        """,
        "customer_order_running": """
            WITH c AS (
                SELECT o_orderkey, o_custkey, o_orderdate,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders)
            SELECT o_orderkey, o_custkey,
                   round(sum(cents) OVER w_all / 100.0, 2) AS running_total,
                   round(sum(cents) OVER w3 / (100.0 * count(*) OVER w3), 4) AS avg3
            FROM c
            WINDOW w_all AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                             ROWS UNBOUNDED PRECEDING),
                   w3 AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "top2_orders_per_customer": """
            SELECT o_custkey, rnk, o_orderkey, o_totalprice FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (PARTITION BY o_custkey
                                          ORDER BY o_totalprice DESC, o_orderkey) AS rnk
                FROM orders)
            WHERE rnk <= 2
        """,
        "user_event_pivot": """
            SELECT user_id,
                   round(coalesce(sum(CASE WHEN event_type = 'click' THEN value END), 0), 4) AS click_value,
                   round(coalesce(sum(CASE WHEN event_type = 'error' THEN value END), 0), 4) AS error_value,
                   round(coalesce(sum(CASE WHEN event_type = 'purchase' THEN value END), 0), 4) AS purchase_value,
                   round(coalesce(sum(CASE WHEN event_type = 'signup' THEN value END), 0), 4) AS signup_value,
                   round(coalesce(sum(CASE WHEN event_type = 'view' THEN value END), 0), 4) AS view_value
            FROM events GROUP BY user_id
        """,
        "price_quantiles": """
            SELECT CAST(0.25 AS DOUBLE) AS q, round(quantile_cont(l_extendedprice, 0.25), 4) AS value FROM lineitem
            UNION ALL
            SELECT 0.5, round(quantile_cont(l_extendedprice, 0.5), 4) FROM lineitem
            UNION ALL
            SELECT 0.75, round(quantile_cont(l_extendedprice, 0.75), 4) FROM lineitem
            UNION ALL
            SELECT 0.9, round(quantile_cont(l_extendedprice, 0.9), 4) FROM lineitem
            UNION ALL
            SELECT 0.99, round(quantile_cont(l_extendedprice, 0.99), 4) FROM lineitem
        """,
        "events_hopping_window": """
            WITH offs(j) AS (VALUES (0), (1), (2), (3)),
            w AS (SELECT event_type,
                         to_timestamp(floor(epoch(ts) / 900) * 900 - j * 900)::TIMESTAMP AS window_start,
                         value
                  FROM events, offs)
            SELECT event_type, window_start, count(*) AS n, round(sum(value), 4) AS sum_value
            FROM w GROUP BY event_type, window_start
        """,
        "lineitem_range_scan": """
            SELECT count(*)::BIGINT AS n_rows,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            WHERE l_shipdate BETWEEN TIMESTAMP '1996-01-01' AND TIMESTAMP '1996-12-31'
        """,
        "documents_prefix_scan": """
            SELECT source, count(*)::BIGINT AS n_docs
            FROM documents WHERE source LIKE 'src1%'
            GROUP BY source ORDER BY source
        """,
        "mode_quantity_by_flag": """
            SELECT l_returnflag, l_quantity AS mode_quantity, cnt FROM (
                SELECT l_returnflag, l_quantity, count(*)::BIGINT AS cnt,
                       row_number() OVER (PARTITION BY l_returnflag
                                          ORDER BY count(*) DESC, l_quantity) AS rn
                FROM lineitem GROUP BY l_returnflag, l_quantity
            ) WHERE rn = 1 ORDER BY l_returnflag
        """,
        "range_search": """
            SELECT a.vec_id AS query_id, b.vec_id,
                   round(list_cosine_similarity(a.embedding, b.embedding), 4) AS cos
            FROM embeddings a JOIN embeddings b
              ON a.vec_id % 97 = 0 AND b.vec_id <> a.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.30
            ORDER BY query_id, b.vec_id
        """,
        "salted_dim_join": """
            SELECT o_orderpriority,
                   count(*)::BIGINT AS n_lineitems,
                   round(sum(l_extendedprice), 2) AS sum_price
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "store_bucket_join": """
            SELECT o_orderpriority,
                   count(*)::BIGINT AS n_lineitems,
                   round(sum(l_extendedprice), 2) AS sum_price
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "q19_disjunctive_revenue": """
            SELECT round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 20
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 25
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "lineitem_band_union_revenue": """
            SELECT count(*)::BIGINT AS n_rows,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            WHERE l_shipdate BETWEEN TIMESTAMP '1993-01-01' AND TIMESTAMP '1993-12-31'
               OR l_shipdate BETWEEN TIMESTAMP '1997-01-01' AND TIMESTAMP '1997-12-31'
        """,
        "lineitem_bloom_scan": """
            SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice
            FROM lineitem
            WHERE l_orderkey = (
                SELECT min(l_orderkey) FROM lineitem
                WHERE l_orderkey >= (
                    SELECT (min(l_orderkey) + max(l_orderkey)) // 2 FROM lineitem
                )
            )
            ORDER BY l_orderkey, l_linenumber, l_quantity, l_extendedprice
        """,
        "documents_source_scan": """
            SELECT lang, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
            FROM documents WHERE source IN ('src3', 'src7')
            GROUP BY lang ORDER BY lang
        """,
        "store_agg_pushdown": """
            SELECT count(*)::BIGINT AS cnt,
                   count(l_quantity)::BIGINT AS nn_qty,
                   min(l_quantity) AS min_qty,
                   max(l_quantity) AS max_qty,
                   sum(l_quantity)::DOUBLE AS sum_qty,
                   min(l_shipdate) AS min_ship,
                   max(l_shipdate) AS max_ship
            FROM lineitem
            WHERE l_shipdate BETWEEN TIMESTAMP '1996-01-01' AND TIMESTAMP '1998-12-31'
        """,
        "store_family_agg": """
            SELECT count(*)::BIGINT AS n_rows,
                   round(min(o_totalprice), 2) AS min_price,
                   round(max(o_totalprice), 2) AS max_price,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders
            WHERE o_orderdate BETWEEN TIMESTAMP '1994-01-01' AND TIMESTAMP '1995-06-30'
        """,
        "store_family_scan": """
            SELECT count(*)::BIGINT AS n_rows,
                   round(sum(o_totalprice), 2) AS sum_totalprice
            FROM orders
            WHERE o_orderdate BETWEEN TIMESTAMP '1996-03-01' AND TIMESTAMP '1996-09-30'
              AND o_orderpriority = '1-URGENT'
        """,
        "documents_text_search": """
            SELECT lang, count(*)::BIGINT AS n_docs
            FROM documents
            WHERE regexp_matches(lower(text), '(^|[^a-z0-9])spark([^a-z0-9]|$)')
              AND regexp_matches(lower(text), '(^|[^a-z0-9])dup([^a-z0-9]|$)')
            GROUP BY lang ORDER BY lang
        """,
        "documents_phrase_search": """
            SELECT lang, count(*)::BIGINT AS n_docs
            FROM documents
            WHERE regexp_matches(lower(text),
                                 '(^|[^a-z0-9])spark[^a-z0-9]+window([^a-z0-9]|$)')
            GROUP BY lang ORDER BY lang
        """,
        "documents_anytoken_search": """
            SELECT lang, count(*)::BIGINT AS n_docs
            FROM documents
            WHERE regexp_matches(lower(text),
                                 '(^|[^a-z0-9])(dup|quantum)([^a-z0-9]|$)')
            GROUP BY lang ORDER BY lang
        """,
        "dpp_dim_join": """
            SELECT o_orderstatus, count(*)::BIGINT AS n_lineitems,
                   round(sum(l_extendedprice), 2) AS sum_price
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderpriority = '1-URGENT'
            GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        "store_cdc_changes": """
            SELECT change, count(*)::BIGINT AS n_rows FROM (
                SELECT CASE WHEN o_custkey % 25 = 3 THEN 'delete'
                            ELSE 'update' END AS change
                FROM orders
                WHERE o_custkey % 25 = 3 OR o_orderkey % 10 = 0
                UNION ALL
                SELECT 'insert' AS change FROM orders WHERE o_orderkey % 100 = 7
            ) GROUP BY change ORDER BY change
        """,
        "store_retention_delete": """
            SELECT l_returnflag, count(*)::BIGINT AS n_rows,
                   round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "rebucket_join": """
            SELECT o_orderstatus, count(*)::BIGINT AS n_lineitems,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        "store_upsert_stats": """
            WITH merged AS (
                SELECT o_orderstatus AS role,
                       CASE WHEN o_orderkey % 10 = 0 THEN 'UPSERTED'
                            ELSE o_orderpriority END AS text
                FROM orders
                UNION ALL
                SELECT 'X', 'INSERTED' FROM orders WHERE o_orderkey % 100 = 7
            )
            SELECT role, count(*)::BIGINT AS n_turns,
                   sum(length(text))::BIGINT AS sum_chars
            FROM merged GROUP BY role ORDER BY role
        """,
        "store_snapshot_travel": """
            SELECT 'live' AS src, count(*)::BIGINT AS n,
                   sum(length(o_orderpriority))::BIGINT AS sum_chars
            FROM orders WHERE o_custkey % 50 <> 0
            UNION ALL
            SELECT 'snapshot', count(*)::BIGINT,
                   sum(length(o_orderpriority))::BIGINT
            FROM orders
            ORDER BY src
        """,
        "orders_transcript_store_stats": """
            SELECT o_orderstatus AS role, count(*)::BIGINT AS n_turns,
                   sum(length(o_orderpriority))::BIGINT AS sum_chars,
                   round(sum(length(o_orderpriority)) / count(*)::DOUBLE, 4) AS avg_chars
            FROM orders GROUP BY role ORDER BY role
        """,
        "documents_zorder_scan": """
            SELECT 'by_chars' AS pred, count(*)::BIGINT AS n_rows,
                   coalesce(sum(n_chars), 0)::BIGINT AS sum_chars
            FROM documents WHERE n_chars BETWEEN 100 AND 200
            UNION ALL
            SELECT 'by_source', count(*)::BIGINT, coalesce(sum(n_chars), 0)::BIGINT
            FROM documents WHERE source BETWEEN 'src1' AND 'src2'
            ORDER BY pred
        """,
        "store_three_way_join": """
            SELECT c_mktsegment, count(*)::BIGINT AS n_rows,
                   round(sum(value), 2) AS sum_value,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM events JOIN orders ON user_id = o_custkey
                        JOIN customer ON c_custkey = user_id
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "store_agg_metadata_only": """
            SELECT count(*)::BIGINT AS cnt,
                   min(l_orderkey)::BIGINT AS min_ok,
                   max(l_orderkey)::BIGINT AS max_ok,
                   sum(l_orderkey)::BIGINT AS sum_ok,
                   sum(l_quantity)::DOUBLE AS sum_qty,
                   min(l_shipdate) AS min_ship,
                   max(l_shipdate) AS max_ship
            FROM lineitem
        """,
        "events_window_unique_users": """
            WITH offs(j) AS (VALUES (0), (1), (2), (3)),
            w AS (SELECT DISTINCT
                         to_timestamp(floor(epoch(ts) / 900) * 900 - j * 900)::TIMESTAMP AS window_start,
                         user_id
                  FROM events, offs)
            SELECT window_start, count(*)::BIGINT AS n_users
            FROM w GROUP BY window_start ORDER BY window_start
        """,
        "frequent_quantities": """
            SELECT l_quantity, count(*) AS cnt FROM lineitem GROUP BY l_quantity
            HAVING count(*) >= ceil(0.019 * (SELECT count(*) FROM lineitem))
        """,
        "top_bigrams": r"""
            WITH t AS (SELECT regexp_split_to_array(trim(lower(text)), '\s+') AS w
                       FROM documents WHERE trim(coalesce(text, '')) <> ''),
            b AS (SELECT unnest([w[i] || ' ' || w[i+1] FOR i IN range(1, len(w))]) AS bigram FROM t)
            SELECT bigram, count(*) AS cnt FROM b GROUP BY bigram
            ORDER BY cnt DESC, bigram LIMIT 20
        """,
        "rollup_revenue": """
            SELECT l_returnflag, l_linestatus, count(*) AS n,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price
            FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        "event_intervals": """
            WITH d AS (
                SELECT user_id,
                       epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)) AS gap
                FROM events)
            SELECT user_id, count(gap) AS n_gaps, round(avg(gap), 4) AS avg_gap_s,
                   round(max(gap), 4) AS max_gap_s
            FROM d WHERE gap IS NOT NULL GROUP BY user_id
        """,
        "docs_per_lang_sample": """
            SELECT lang, doc_id FROM documents
            QUALIFY row_number() OVER (PARTITION BY lang ORDER BY doc_id) <= 3
        """,
        "term_postings": r"""
            WITH tok AS (SELECT doc_id,
                                unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
                         FROM documents WHERE trim(coalesce(text, '')) <> ''),
            d AS (SELECT term, doc_id FROM tok GROUP BY term, doc_id)
            SELECT term, count(*) AS df,
                   string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
            FROM d GROUP BY term ORDER BY df DESC, term LIMIT 30
        """,
        "tfidf_top_terms": r"""
            WITH tok AS (SELECT doc_id,
                                unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS term
                         FROM documents WHERE trim(coalesce(text, '')) <> ''),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
            dfreq AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            n AS (SELECT count(DISTINCT doc_id) AS n_docs FROM tok),
            s AS (SELECT tf.doc_id, tf.term, tf.tf, dfreq.df,
                         tf.tf * ln(n.n_docs / dfreq.df) AS score
                  FROM tf JOIN dfreq USING (term), n)
            SELECT doc_id, term, tf, df, round(score, 4) AS score FROM s
            QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) = 1
        """,
        "user_event_sequence": """
            SELECT user_id, string_agg(event_type, ',' ORDER BY ts, event_id) AS seq
            FROM events GROUP BY user_id
        """,
        "lineitem_codec_roundtrip": "SELECT * FROM lineitem",
        "lineitem_scan_pushdown": """
            SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_returnflag
            FROM lineitem WHERE l_returnflag = 'R' AND l_quantity >= 45
        """,
        "lineitem_store_profile": """
            SELECT col, min_v, max_v, nulls FROM (
              SELECT 'l_discount' AS col, min(l_discount) AS min_v, max(l_discount) AS max_v,
                     count(*) - count(l_discount) AS nulls FROM lineitem
              UNION ALL SELECT 'l_extendedprice', min(l_extendedprice), max(l_extendedprice),
                     count(*) - count(l_extendedprice) FROM lineitem
              UNION ALL SELECT 'l_orderkey', min(l_orderkey), max(l_orderkey),
                     count(*) - count(l_orderkey) FROM lineitem
              UNION ALL SELECT 'l_quantity', min(l_quantity), max(l_quantity),
                     count(*) - count(l_quantity) FROM lineitem
              UNION ALL SELECT 'l_shipdate', epoch_us(min(l_shipdate)), epoch_us(max(l_shipdate)),
                     count(*) - count(l_shipdate) FROM lineitem
              UNION ALL SELECT 'l_tax', min(l_tax), max(l_tax),
                     count(*) - count(l_tax) FROM lineitem
            ) ORDER BY col
        """,
        "token_counts": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens
            FROM documents
        """,
        "token_counts_bpe": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS n_bpe_tokens
            FROM documents
        """,
        "curate_documents": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens
            FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)
              AND n_tokens BETWEEN 5 AND 1000
        """,
        "char_stats": "SELECT doc_id, length(text) AS n_chars_c FROM documents",
        "doc_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents",
        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "fuzzy_name_pairs": """
            SELECT levenshtein(a.p_name, b.p_name)::BIGINT AS distance,
                   count(*)::BIGINT AS n_pairs
            FROM part a JOIN part b ON a.p_partkey < b.p_partkey
            WHERE levenshtein(a.p_name, b.p_name) <= 1
            GROUP BY 1 ORDER BY 1
        """,
        "name_clusters": """
            WITH RECURSIVE names AS (
                SELECT p_name, count(*) AS c FROM part GROUP BY p_name),
            p2 AS (SELECT a.p_name AS na, b.p_name AS nb
                   FROM names a JOIN names b ON a.p_name < b.p_name
                   WHERE levenshtein(a.p_name, b.p_name) = 1),
            edges AS (SELECT na AS a, nb AS b FROM p2
                      UNION SELECT nb, na FROM p2),
            walk(id, reach) AS (
                SELECT p_name, p_name FROM names
                UNION
                SELECT w.id, e.b FROM walk w JOIN edges e ON w.reach = e.a),
            lbl AS (SELECT id AS p_name, min(reach) AS canonical FROM walk GROUP BY id)
            SELECT l.canonical AS canonical_name,
                   count(*)::BIGINT AS n_names,
                   sum(n.c)::BIGINT AS n_rows
            FROM lbl l JOIN names n ON n.p_name = l.p_name
            GROUP BY 1 ORDER BY 1
        """,
        "q14_promo_revenue": """
            SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO'
                                          THEN l_extendedprice * (1 - l_discount)
                                          ELSE 0 END)
                         / sum(l_extendedprice * (1 - l_discount)), 4)
                   AS promo_revenue_pct
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
        """,
        "dedup_embedding": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(a.embedding, b.embedding),4) AS cos
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "dedup_components": """
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS id_a, b.vec_id AS id_b
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45),
            edges AS (SELECT id_a AS a, id_b AS b FROM pairs
                      UNION SELECT id_b, id_a FROM pairs),
            nodes AS (SELECT DISTINCT a AS id FROM edges),
            walk(id, reach) AS (
                SELECT id, id FROM nodes
                UNION
                SELECT w.id, e.b FROM walk w JOIN edges e ON w.reach = e.a)
            SELECT id AS vec_id, min(reach) AS canonical_id FROM walk GROUP BY id
        """,
        "knn_bruteforce": """
            SELECT b.vec_id, round(list_cosine_similarity(a.embedding, b.embedding),4) AS cos
            FROM embeddings a JOIN embeddings b ON b.vec_id <> 0
            WHERE a.vec_id = 0
            ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC, b.vec_id
            LIMIT 10
        """,
        "distinct_users_by_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "totalprice_histogram": """
            WITH b AS (SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) // 5000000 AS bucket
                       FROM orders)
            SELECT bucket, bucket * 50000.0 AS bucket_lo, count(*) AS n
            FROM b GROUP BY bucket ORDER BY bucket
        """,
        "corr_quantity_price": """
            SELECT count(*) AS n,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr_qp,
                   round(covar_samp(l_quantity, l_extendedprice), 4) AS cov_qp
            FROM lineitem
        """,
        "bloom_urgent_revenue": """
            SELECT l_returnflag, count(*) AS n, round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "sample_orders_bottomk": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY md5('42:' || CAST(o_orderkey AS VARCHAR)) LIMIT 20
        """,
        "events_zscore_outliers": """
            WITH s AS (SELECT event_type, avg(value) AS m, stddev_pop(value) AS sd
                       FROM events GROUP BY event_type)
            SELECT e.event_type, count(*) AS n_outliers
            FROM events e JOIN s ON e.event_type = s.event_type
            WHERE abs(e.value - s.m) > 3 * s.sd
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        "q5_local_supplier_revenue": """
            SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
            GROUP BY n_name ORDER BY n_name
        """,
        "q17_small_quantity_revenue": """
            SELECT round(sum(l_extendedprice) / 7.0, 2) AS avg_yearly
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#13'
              AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity)
                                FROM lineitem l2
                                WHERE l2.l_partkey = part.p_partkey)
        """,
        "q3_top_orders": """
            SELECT o_orderkey, o_orderdate,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1998-01-01'
              AND l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY o_orderkey, o_orderdate
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, o_orderkey
            LIMIT 10
        """,
        "brand_revenue": """
            SELECT p_brand, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_brand ORDER BY p_brand
        """,
        "convert_jsonl_roundtrip": """
            SELECT doc_id, text, lang, source, n_chars,
                   TIMESTAMP '2024-01-01 00:00:00' + INTERVAL (doc_id) SECOND AS ts
            FROM documents
        """,
        "median_price_by_priority": """
            SELECT o_orderpriority, round(median(o_totalprice), 4) AS median_price
            FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "label_centroids": """
            SELECT label, i AS dim, round(avg(e), 6) AS mean_v
            FROM (SELECT label, unnest(embedding) AS e,
                         generate_subscripts(embedding, 1) AS i
                  FROM embeddings)
            GROUP BY label, i ORDER BY label, i
        """,
        "customer_balance_ntile": """
            WITH t AS (SELECT c_acctbal,
                              NTILE(4) OVER (ORDER BY c_acctbal, c_custkey) AS tile
                       FROM customer)
            SELECT tile, count(*) AS n, round(avg(c_acctbal), 4) AS avg_bal
            FROM t GROUP BY tile ORDER BY tile
        """,
        "scrub_pii": r"""
            SELECT doc_id,
              regexp_replace(regexp_replace(regexp_replace(text,
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
                '\b(customer|supplier|user)\b', '<ENTITY>', 'g') AS clean_text,
              len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
              + len(regexp_extract_all(text, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))
              + len(regexp_extract_all(text, '\b(customer|supplier|user)\b')) AS n_redactions
            FROM documents
        """,
        "chunk_documents": """
            WITH t AS (SELECT doc_id, string_split(coalesce(text,''), ' ') AS toks
                       FROM documents),
            c AS (SELECT doc_id, (i-1)//56 AS chunk_idx,
                    array_to_string(list_slice(toks, i, i+63), ' ') AS chunk_text,
                    least(64, len(toks)-i+1) AS n_tokens
                  FROM t, unnest(range(1, greatest(len(toks)-8,1)+1, 56)) AS s(i))
            SELECT doc_id, chunk_idx, chunk_text, n_tokens FROM c
        """,
        "token_dup_stats": """
            WITH toks AS (SELECT doc_id, unnest(string_split(coalesce(text,''), ' ')) AS tok
                          FROM documents),
            cnt AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok)
            SELECT doc_id, sum(c)::BIGINT AS n_tokens, count(*)::BIGINT AS n_distinct,
                   round(max(c)::DOUBLE / sum(c), 4) AS top_unigram_frac,
                   round(1.0 - count(*)::DOUBLE / sum(c), 4) AS dup_token_frac
            FROM cnt GROUP BY doc_id
        """,
        "decontaminate": """
            WITH t AS (SELECT doc_id, string_split(coalesce(text,''), ' ') AS toks
                       FROM documents),
            g AS (SELECT doc_id, array_to_string(list_slice(toks, i, i+7), ' ') AS gram
                  FROM t, unnest(range(1, greatest(len(toks)-7, 0)+1)) AS s(i)),
            bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % 101 = 7)
            SELECT g.doc_id, count(DISTINCT g.gram) AS n_hit_grams
            FROM g JOIN bench USING (gram) WHERE g.doc_id % 101 <> 7
            GROUP BY g.doc_id
        """,
        "dedup_substring": """
            WITH t AS (SELECT doc_id, string_split(coalesce(text,''), ' ') AS toks
                       FROM documents),
            g AS (SELECT doc_id, array_to_string(list_slice(toks, i, i+15), ' ') AS gram
                  FROM t, unnest(range(1, greatest(len(toks)-15, 0)+1)) AS s(i)),
            dupg AS (SELECT gram FROM (SELECT gram, count(DISTINCT doc_id) AS nd
                                       FROM g GROUP BY gram) WHERE nd >= 2)
            SELECT g.doc_id, count(DISTINCT g.gram) AS n_dup_spans
            FROM g JOIN dupg USING (gram) GROUP BY g.doc_id
        """,
        "export_shards": """
            SELECT count(*)::BIGINT AS total_rows, sum(doc_id)::BIGINT AS sum_doc_id,
                   sum(doc_id*doc_id)::BIGINT AS sum_doc_id_sq
            FROM documents
        """,
        "mix_sources": r"""
            WITH kept AS (
              SELECT source, CASE WHEN trim(text) = '' THEN 0
                     ELSE array_length(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
              FROM documents
              WHERE doc_id % 100 <
                    (CASE WHEN CAST(substr(source, 4) AS INT) % 2 = 0 THEN 100 ELSE 35 END))
            SELECT source, count(*)::BIGINT AS n_docs, sum(n_tokens)::BIGINT AS n_tokens
            FROM kept GROUP BY source
        """,
        "split_assign": """
            SELECT doc_id,
                   CASE WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'cc' THEN 'train'
                        WHEN substr(md5(doc_id::VARCHAR), 1, 2) < 'e6' THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "dedup_incremental": """
            SELECT DISTINCT n.doc_id FROM documents n
            WHERE n.doc_id >= (SELECT count(*) // 2 FROM documents)
              AND EXISTS (SELECT 1 FROM documents s
                          WHERE s.doc_id < (SELECT count(*) // 2 FROM documents)
                            AND coalesce(s.text, '') = coalesce(n.text, ''))
        """,
        "event_funnel": """
            WITH t1 AS (SELECT user_id, min(ts) AS t FROM events
                        WHERE event_type = 'view' GROUP BY user_id),
            t2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN t1 ON e.user_id = t1.user_id
                   WHERE e.event_type = 'click' AND e.ts >= t1.t GROUP BY e.user_id),
            t3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN t2 ON e.user_id = t2.user_id
                   WHERE e.event_type = 'purchase' AND e.ts >= t2.t GROUP BY e.user_id)
            SELECT 1 AS stage_idx, 'view' AS stage, (SELECT count(*) FROM t1)::BIGINT AS n_users
            UNION ALL SELECT 2, 'click', (SELECT count(*) FROM t2)
            UNION ALL SELECT 3, 'purchase', (SELECT count(*) FROM t3)
        """,
        "asof_attribution": """
            SELECT p.user_id, p.ts AS purchase_ts, v.ts AS view_ts,
                   (epoch_us(p.ts) - epoch_us(v.ts)) / 1000000.0 AS lag_sec
            FROM (SELECT user_id, ts FROM events WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT user_id, ts FROM events WHERE event_type = 'view') v
              ON p.user_id = v.user_id AND v.ts <= p.ts
            ORDER BY p.user_id, purchase_ts
        """,
        "asof_attribution_salted": """
            SELECT p.user_id, p.ts AS purchase_ts, v.ts AS view_ts,
                   (epoch_us(p.ts) - epoch_us(v.ts)) / 1000000.0 AS lag_sec
            FROM (SELECT user_id, ts FROM events WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT user_id, ts FROM events WHERE event_type = 'view') v
              ON p.user_id = v.user_id AND v.ts <= p.ts
            ORDER BY p.user_id, purchase_ts
        """,
        "cohort_retention": """
            WITH f AS (SELECT user_id, date_trunc('month', min(ts)) AS cohort
                       FROM events GROUP BY user_id),
            a AS (SELECT DISTINCT user_id, date_trunc('month', ts) AS m FROM events)
            SELECT f.cohort AS cohort_month,
                   datediff('month', f.cohort, a.m)::BIGINT AS month_offset,
                   count(*)::BIGINT AS n_users
            FROM a JOIN f USING (user_id) GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "latest_event_per_user": """
            SELECT user_id, ts AS last_ts, event_type AS last_event_type FROM events
            QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
        """,
        "events_daily_gapfill": """
            WITH b AS (SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n
                       FROM events GROUP BY 1, 2),
            d AS (SELECT unnest(generate_series((SELECT min(day) FROM b),
                                                (SELECT max(day) FROM b),
                                                INTERVAL 1 DAY)) AS day),
            t AS (SELECT DISTINCT event_type FROM events)
            SELECT t.event_type, d.day, coalesce(b.n, 0)::BIGINT AS n
            FROM t CROSS JOIN d LEFT JOIN b ON b.event_type = t.event_type AND b.day = d.day
            ORDER BY 1, 2
        """,
        "revenue_mom_growth": """
            WITH m AS (SELECT date_trunc('month', o_orderdate) AS month,
                              sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
                       FROM orders GROUP BY 1)
            SELECT month, round(cents / 100.0, 2) AS revenue,
                   round((cents - lag(cents) OVER (ORDER BY month)) * 100.0
                         / lag(cents) OVER (ORDER BY month), 4) AS mom_pct
            FROM m ORDER BY month
        """,
        "purchase_error_window": """
            WITH c AS (
                SELECT p.event_id, count(e.ts) AS n_errors
                FROM (SELECT event_id, user_id, ts FROM events
                      WHERE event_type = 'purchase') p
                LEFT JOIN (SELECT user_id, ts FROM events
                           WHERE event_type = 'error') e
                  ON e.user_id = p.user_id
                 AND e.ts BETWEEN p.ts - INTERVAL 60 MINUTE AND p.ts
                GROUP BY p.event_id)
            SELECT n_errors, count(*)::BIGINT AS n_purchases
            FROM c GROUP BY n_errors ORDER BY n_errors
        """,
        "user_rolling_peak_salted": """
            WITH r AS (
                SELECT user_id,
                       avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS roll
                FROM events)
            SELECT user_id, round(max(roll), 4) AS max_roll
            FROM r GROUP BY user_id ORDER BY user_id
        """,
        "user_rolling_peak": """
            WITH r AS (
                SELECT user_id,
                       avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS roll
                FROM events)
            SELECT user_id, round(max(roll), 4) AS max_roll
            FROM r GROUP BY user_id ORDER BY user_id
        """,
        "unpivot_customer": """
            SELECT c_custkey, 'c_nationkey' AS measure, CAST(c_nationkey AS DOUBLE) AS value
            FROM customer
            UNION ALL
            SELECT c_custkey, 'c_acctbal', c_acctbal FROM customer
        """,
        "customer_year_overlap": """
            WITH y AS (SELECT DISTINCT o_custkey, year(o_orderdate) AS y FROM orders
                       WHERE year(o_orderdate) IN (1996, 1997)),
            f AS (SELECT o_custkey,
                         max(CASE WHEN y = 1996 THEN 1 ELSE 0 END) AS h96,
                         max(CASE WHEN y = 1997 THEN 1 ELSE 0 END) AS h97
                  FROM y GROUP BY o_custkey)
            SELECT CASE WHEN h96 = 1 AND h97 = 1 THEN 'both'
                        WHEN h96 = 1 THEN 'only_1996' ELSE 'only_1997' END AS category,
                   count(*)::BIGINT AS n
            FROM f GROUP BY 1 ORDER BY 1
        """,
        # pack_sequences (order-dependent greedy packing — invariants pytest-checked) /
        # lang_quality / winnow_fingerprints / dedup_minhash / dedup_simhash /
        # dedup_ngram_jaccard / knn_lsh / knn_ivf / transcript_* / multimodal_features /
        # approx_distinct_users_by_type (approximate by design):
        # non-SQL-expressible (custom hashing / codec engine) -> rows-only check.
    }
