"""CLI: encode | decode | verify | analyze | convert | stats | bench.

Reference CLI had modes convert/analyze (reference cli.py:70-76); the new
engine adds the north-star codec commands. Runnable standalone (owns its Ray
session) or under `ray job submit -- python -m parquet_converter_ray.cli ...`.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _parse_where(clause: str) -> tuple[str, str, object]:
    """Parse one ``--where`` conjunct into a (column, op, value) triple.

    Grammar: ``col OP value`` with OP one of ``== != <= >= < >``,
    ``col in v1,v2,...``, or ``col between lo,hi``. Values stay strings
    unless they parse as int/float — the zone-map layer coerces them to the
    column's stored type, so ``ts>=2024-01-01T00:00:00`` also works.
    """
    import re

    def _val(s: str):
        s = s.strip()
        # matching quotes delimit a string literal: "role == 'user'" must
        # compare against user, not 'user' (quoted digits stay strings)
        if len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
            return s[1:-1]
        for conv in (int, float):
            try:
                return conv(s)
            except ValueError:
                pass
        return s

    m = re.match(r"^\s*(\w+)\s+(in|between|prefix|hastok|hasphrase|hasany)\s+(.+)$",
                 clause, re.IGNORECASE)
    if m:
        col, op, rest = m.group(1), m.group(2).lower(), m.group(3)
        if op in ("hastok", "hasphrase", "hasany"):
            # the whole rest of the clause is the query string: hastok is
            # conjunctive over tokens anywhere in the row ("text hastok
            # 'spark window'"); hasphrase requires them CONSECUTIVE;
            # hasany matches rows holding ANY of the tokens
            q = rest.strip()
            if len(q) >= 2 and q[0] == q[-1] and q[0] in ("'", '"'):
                q = q[1:-1]
            return (col, op, q)
        if op == "prefix":
            # unquote like every other op's _val, but stay a string:
            # --where "conv_id prefix 'conv-0'" must match conv-0*, not 'conv-0*
            p = rest.strip()
            if len(p) >= 2 and p[0] == p[-1] and p[0] in ("'", '"'):
                p = p[1:-1]
            return (col, op, p)
        vals = [_val(v) for v in rest.split(",") if v.strip() != ""]
        if op == "between":
            if len(vals) != 2:
                raise ValueError(f"between needs 'lo,hi': {clause!r}")
            return (col, op, (vals[0], vals[1]))
        return (col, op, vals)
    m = re.match(r"^\s*(\w+)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*$", clause)
    if not m:
        raise ValueError(
            f"cannot parse --where clause {clause!r} "
            "(expected 'col OP value', 'col in a,b', or 'col between lo,hi')"
        )
    return (m.group(1), m.group(2), _val(m.group(3)))


def _add_predicate_args(p) -> None:
    """The pushdown verbs' predicate flags, read back by ``_predicate``."""
    p.add_argument(
        "--where", action="append", default=[], metavar="CLAUSE",
        help="conjunct like 'turn_idx>=100', 'role==user', 'tool in search,browser', "
             "'ts between 1000,2000', 'conv_id prefix conv-0001' (repeatable, ANDed)",
    )
    p.add_argument(
        "--where-any", action="append", metavar="BRANCH",
        help="OR-branch of '&'-separated conjuncts, e.g. "
             "--where-any 'ts between 1000,2000 & role==user' --where-any 'turn_idx==0'; "
             "branches are ORed (and ANDed with any --where conjuncts); a container "
             "is pruned only when every branch proves no-match",
    )


def _predicate(args):
    """The predicate of ``--where`` / ``--where-any``: the conjunct list, a
    disjunction of branches each ANDed with the conjuncts, or None."""
    common = [_parse_where(w) for w in args.where]
    if args.where_any:
        return ("or", [common + [_parse_where(c) for c in b.split("&")]
                       for b in args.where_any])
    return common or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="parquet-converter-ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--config", default=None, help="JSON/YAML config file")
    ap.add_argument(
        "--save-config", default=None, metavar="PATH",
        help="write the effective config to PATH and exit (reference cli.py:65-69)",
    )
    ap.add_argument("--log-level", default=None, help="console log level (DEBUG..CRITICAL)")
    ap.add_argument("--log-file", default=None, help="also log to this file")
    ap.add_argument("--verbose", action="store_true", help="console logs at DEBUG")
    sub = ap.add_subparsers(dest="cmd", required=False)

    p = sub.add_parser("encode", help="encode parquet table(s) into codec containers")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--n-parts", type=int, default=None)
    p.add_argument("--codec", default="auto")
    p.add_argument("--conv-col", default="conv_id", help="partition key column")
    p.add_argument("--order-col", default="turn_idx", help="within-conversation order column")
    p.add_argument("--salt-rows", type=int, default=100_000)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--cluster-by", nargs="+", default=None, metavar="COL",
                   help="range-cluster partitions on numeric/temporal column(s) "
                        "— several columns use a Z-order key so zone maps prune "
                        "predicates on ANY of them; conv-key lookup degrades to scan")
    p.add_argument("--bloom-cols", nargs="+", default=None, metavar="COL",
                   help="write a per-container Bloom filter for these int/string "
                        "columns so ==/in point lookups prune containers the "
                        "zone maps can't (high-cardinality keys)")
    p.add_argument("--text-bloom-cols", nargs="+", default=None, metavar="COL",
                   help="write a per-container TOKEN Bloom filter for these text "
                        "columns so 'col hastok words' full-text scans prune "
                        "containers without decoding them")

    p = sub.add_parser(
        "decode",
        help="decode containers back to parquet; several inputs export a "
             "store FAMILY as one table (schemas must agree)",
    )
    p.add_argument("input", nargs="+")
    p.add_argument("output")
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--max-generation", type=int, default=None,
                   help="snapshot read: only containers with generation <= g "
                        "(the store before later appended deliveries)")
    p.add_argument("--partition-by", nargs="*", default=None, metavar="COL",
                   help="write hive-partitioned parquet (one directory per "
                        "value combination) — resumable, prunable output layout")

    p = sub.add_parser("append", help="append a new delivery of rows to an existing encoded store")
    p.add_argument("input", help="parquet file/dir with the new rows")
    p.add_argument("encoded_dir")
    p.add_argument("--skip-existing", action="store_true",
                   help="idempotent delivery: drop rows whose (conv, order) key is already stored")

    p = sub.add_parser(
        "upsert",
        help="MERGE a delivery by (conv, order) row key: matching keys replace, new keys insert",
    )
    p.add_argument("input", help="parquet file/dir with the delivery rows")
    p.add_argument("encoded_dir")

    p = sub.add_parser(
        "delete",
        help="delete whole conversations (keys) or predicate-matching rows "
             "(--where; the retention/TTL path) from a store in place — "
             "rewrites only the partitions that can contain matches",
    )
    p.add_argument("encoded_dir")
    p.add_argument("keys", nargs="*", help="conversation keys; use --int for integer-keyed columns")
    p.add_argument("--int", dest="as_int", action="store_true")
    p.add_argument("--where", action="append", default=None, metavar="CLAUSE",
                   help="delete ROWS matching all clauses instead of whole "
                        "conversations (same grammar as scan --where); "
                        "zone maps + footer probes prune untouched partitions")

    p = sub.add_parser(
        "snapshot", help="hard-link point-in-time snapshot (delete-proof, O(metadata))"
    )
    p.add_argument("encoded_dir")
    p.add_argument("--name", default=None, help="snapshot name (default sNNNN)")
    p.add_argument("--drop", action="store_true", help="drop the named snapshot instead")

    p = sub.add_parser("snapshots", help="list a store's published snapshots")
    p.add_argument("encoded_dir")

    p = sub.add_parser("restore", help="roll the store back to a named snapshot")
    p.add_argument("encoded_dir")
    p.add_argument("name")

    p = sub.add_parser(
        "compact",
        help="re-pack an encoded store into right-sized containers; several "
             "inputs compact a store FAMILY into one conformed store",
    )
    p.add_argument("input", nargs="+")
    p.add_argument("output")
    p.add_argument("--target-mb", type=int, default=96, help="arrow bytes per partition")
    p.add_argument("--n-parts", type=int, default=None,
                   help="exact partition count (overrides --target-mb) — the "
                        "REBUCKET tool: compact a store to another store's "
                        "n_parts so the pair becomes `join`-compatible")
    p.add_argument("--drop-columns", nargs="*", default=None,
                   help="schema evolution: retire columns during the rewrite")
    p.add_argument("--add-column", action="append", default=None, metavar="NAME:TYPE[:DEFAULT]",
                   help="schema evolution: add a column (typed nulls, or a backfill constant)")

    p = sub.add_parser(
        "rebucket",
        help="re-route a store into a bucketed-JOIN-able layout: hash-"
             "partitioned on --on, unsalted, n_parts matched to --like "
             "(or --n-parts) so `join` accepts the pair",
    )
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--on", default=None,
                   help="new partition column = the join key (default: keep "
                        "the store's current partition column)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--like", default=None,
                   help="store directory whose n_parts to match (must itself "
                        "be hash-partitioned and unsalted)")
    g.add_argument("--n-parts", type=int, default=None)

    p = sub.add_parser(
        "lookup",
        help="fetch ONE conversation by key (decodes only its container(s)); "
             "several directories look up across a store FAMILY",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("key", help="conversation key; use --int for integer-keyed columns")
    p.add_argument("--int", dest="as_int", action="store_true")
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--limit", type=int, default=20, help="max rows printed (count is always exact)")

    p = sub.add_parser(
        "storestats",
        help="analytics directly on an encoded store (column-pruned container decodes)",
    )
    p.add_argument("encoded_dir")
    p.add_argument("--role-col", default="role")
    p.add_argument("--text-col", default="text")
    p.add_argument("--tool-col", default="tool")
    p.add_argument("--order-col", default=None,
                   help="dense order column for the length histogram (default: from _run.json)")

    p = sub.add_parser(
        "scan",
        help="predicate-pushdown scan of an encoded store (zone-map + dictionary "
             "pruning); several directories scan as ONE store family (merged "
             "plan, schemas must agree)",
    )
    p.add_argument("encoded_dir", nargs="+")
    _add_predicate_args(p)
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--output", default=None, help="write matches as parquet instead of counting")
    p.add_argument("--limit", type=int, default=5, help="sample rows printed when not writing")
    p.add_argument("--count", action="store_true",
                   help="matching-row count only, metadata-first: containers the "
                        "zone maps prove fully matching are never opened")

    p = sub.add_parser(
        "storeprofile",
        help="profile an encoded store from manifest metadata only (no "
             "container reads); several directories profile as ONE family "
             "(folded totals + per-store breakdown)",
    )
    p.add_argument("encoded_dir", nargs="+")

    p = sub.add_parser(
        "agg",
        help="metadata-first aggregates over an encoded store: zone maps answer "
             "fully-matching containers without opening them; only boundary "
             "containers decode (pruned, late-materialized). Several "
             "directories aggregate as ONE store family (answers fold; "
             "column types must agree)",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument(
        "--agg", action="append", required=True, metavar="FN[:COL]",
        help="count | nn:col (non-null count) | min:col | max:col | sum:col "
             "| avg:col (repeatable)",
    )
    _add_predicate_args(p)
    p.add_argument(
        "--group-by", default=None, metavar="COL[,COL...]",
        help="GROUP BY columns: emits one row per group (JSON lines, sorted "
             "by group key); containers whose zone maps prove a single group "
             "value answer from metadata without opening",
    )

    p = sub.add_parser(
        "distinct",
        help="DISTINCT values of one store column, metadata-first: dictionary "
             "footers answer dict-encoded containers from KB-ranged reads, "
             "zone maps answer single-valued ones from manifest JSON; only "
             "the remainder decodes. Several directories fold as ONE family",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("column", help="one column, or COL1,COL2 for distinct "
                   "TUPLES (delegates to the grouped-aggregate pushdown)")
    _add_predicate_args(p)
    p.add_argument("--limit", type=int, default=20,
                   help="values printed (the count always prints)")
    p.add_argument("--max-values", type=int, default=None,
                   help="driver-fold guard override (default 2M)")
    p.add_argument("--approx", action="store_true",
                   help="HyperLogLog distinct COUNT only (fixed 4 KB driver "
                        "state — the at-scale path for unique-key columns)")

    p = sub.add_parser(
        "topk",
        help="ORDER BY ... LIMIT k pushdown: zone maps prove a value "
             "threshold from fully-matching containers, the threshold joins "
             "the predicate, and only best-end containers/pages decode. "
             "Several directories answer as ONE family",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("--by", required=True, metavar="COL", help="ordering column")
    p.add_argument("-k", type=int, default=10, help="rows to keep (default 10)")
    p.add_argument("--asc", action="store_true",
                   help="smallest first (default: largest first)")
    _add_predicate_args(p)
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--tiebreak", default=None, metavar="COL[,COL...]",
                   help="ascending tie-break columns (deterministic row set)")
    p.add_argument("--group-by", default=None, metavar="COL[,COL...]",
                   help="top-k rows PER GROUP (ROW_NUMBER semantics) instead "
                        "of globally")
    p.add_argument("--output", default=None,
                   help="write the k rows as parquet instead of printing")

    p = sub.add_parser(
        "search",
        help="ranked full-text search: token blooms prune containers via "
             "KB footer reads, survivors score (distinct query tokens per "
             "row) and the k best rows return. Several directories search "
             "as ONE corpus",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("query")
    p.add_argument("--col", default="text", help="text column (default text)")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--mode", choices=["any", "all", "bm25"], default="any",
                   help="any: rank by distinct tokens present; all: only "
                        "rows holding EVERY token (stronger pruning); "
                        "bm25: Okapi BM25 relevance (two-pass: exact df "
                        "stats, then tf/length-normalized scoring)")
    _add_predicate_args(p)
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--tiebreak", default=None, metavar="COL[,COL...]")
    p.add_argument("--snippet", action="store_true",
                   help="append a ±40-char context snippet around each "
                        "hit's first matched token")

    p = sub.add_parser(
        "quantiles",
        help="EXACT quantiles over an encoded store without a sort: pruned "
             "one-column scans feed histogram-refinement selection "
             "(quantile_cont semantics). Several directories answer as ONE "
             "family",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("column")
    p.add_argument("--q", default="0.25,0.5,0.75", metavar="Q1,Q2,...",
                   help="quantiles in [0,1] (default quartiles)")
    _add_predicate_args(p)

    p = sub.add_parser(
        "sample",
        help="deterministic n-row sample (lowest md5(key+seed) digests — "
             "content-stable AND SQL-reproducible): one key-column pass, "
             "then point lookups fetch only the winners' rows. Several "
             "directories sample as ONE family",
    )
    p.add_argument("encoded_dir", nargs="+")
    p.add_argument("--key", required=True, help="unique int/string key column")
    p.add_argument("-n", type=int, default=100, help="sample size (default 100)")
    p.add_argument("--group-by", default=None, metavar="COL[,COL...]",
                   help="STRATIFIED: n rows per group (ROW_NUMBER over the "
                        "digest within each group)")
    p.add_argument("--seed", default="", help="redraws the sample (default '')")
    _add_predicate_args(p)
    p.add_argument("--columns", nargs="*", default=None)
    p.add_argument("--output", default=None,
                   help="write the sample as parquet instead of printing")
    p.add_argument("--limit", type=int, default=5,
                   help="sample rows printed when not writing")

    p = sub.add_parser(
        "join",
        help="co-partitioned (bucketed) join of TWO OR MORE encoded stores "
             "hash-routed on the same key — each part_id joins locally, zero "
             "exchange (N>2 chains local joins anchored on the first store)",
    )
    p.add_argument("dirs", nargs="+", metavar="STORE_DIR",
                   help="two or more co-bucketed store directories")
    p.add_argument("--how", choices=["inner", "left"], default="inner")
    p.add_argument("--columns", action="append", default=None, metavar="C1,C2|-",
                   help="per-store pruned column list (comma-separated, one flag "
                        "per store in order; '-' = all columns)")
    p.add_argument("--output", default=None, help="write joined rows as parquet instead of counting")
    p.add_argument("--limit", type=int, default=5, help="sample rows printed when not writing")

    p = sub.add_parser(
        "diff",
        help="content-compare two encoded stores (order-insensitive distributed "
             "fingerprints over the shared columns) — validates compact / "
             "relocation / schema-evolution migrations. With --against, the "
             "positional stores form a FAMILY compared as one side (proves a "
             "compacted family's output equal to its deliveries)",
    )
    p.add_argument("stores", nargs="+",
                   help="without --against: exactly two stores, A vs B; with "
                        "--against: the left-hand family (one or more stores)")
    p.add_argument("--against", nargs="+", default=None, metavar="STORE",
                   help="right-hand side (may list several stores — a family)")
    p.add_argument("--columns", nargs="*", default=None)

    p = sub.add_parser(
        "changes",
        help="row-level CDC between two states of a store (snapshot dir vs "
             "live store): per changed key, insert / delete / update; "
             "untouched partitions skip from metadata alone",
    )
    p.add_argument("old_dir", help="the earlier state (e.g. <store>/_snapshots/<name>)")
    p.add_argument("new_dir", help="the later state (the live store)")
    p.add_argument("--output", default=None,
                   help="write the change rows to parquet instead of sampling")
    p.add_argument("--limit", type=int, default=5,
                   help="sample change rows printed when not writing")

    p = sub.add_parser(
        "vacuum",
        help="reclaim space: sweep crashed tmp writes, fold crash leftovers "
             "(repair), report/remove manifest-stray containers, apply "
             "snapshot retention",
    )
    p.add_argument("encoded_dir")
    p.add_argument("--keep-snapshots", type=int, default=None, metavar="N",
                   help="drop all but the N most recently published snapshots")
    p.add_argument("--force-strays", action="store_true",
                   help="also delete part-*.pcc files the manifest does not "
                        "reference (data with no lineage — refused by default)")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without removing")

    p = sub.add_parser("fsck", help="check store integrity (manifest <-> containers <-> bytes)")
    p.add_argument("encoded_dir")
    p.add_argument("--deep", action="store_true",
                   help="also CRC-verify and decode every container (distributed)")
    p.add_argument("--repair", action="store_true",
                   help="finish an interrupted delete first (fold/remove record-less "
                        "generation containers), then check")

    p = sub.add_parser("verify", help="decode + compare bit-identical vs original parquet")
    p.add_argument("encoded_dir")
    p.add_argument("original")
    p.add_argument("--distributed", action="store_true",
                   help="streaming order-insensitive fingerprint compare (no driver materialization)")

    p = sub.add_parser("analyze", help="profile parquet files (reference analyzer parity)")
    p.add_argument("inputs", nargs="+", help="parquet files or directories")
    p.add_argument("--recursive", action="store_true", help="walk directories recursively")
    p.add_argument("--report", default=None)
    p.add_argument("--plan", action="store_true", help="also print a codec plan preview")

    p = sub.add_parser("convert", help="csv/txt -> parquet (reference converter parity)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("stats", help="actor-pool codec stats pass over a parquet table")
    p.add_argument("input")

    args = ap.parse_args(argv)
    from .config import EngineConfig

    if args.log_level or args.log_file or args.verbose:
        from .logging_setup import setup_logging

        setup_logging(args.log_level or "INFO", args.log_file, args.verbose)
    cfg = EngineConfig.load(args.config)
    if args.save_config:
        cfg.save(args.save_config)
        print(json.dumps({"saved": args.save_config}))
        if args.cmd is None:
            return 0
    elif args.cmd is None:
        ap.error("a command is required (or --save-config)")
    _init_ray(args.num_cpus)
    import ray
    import ray.data

    try:
        if args.cmd == "encode":
            from .encode import encode_dataset

            summary = encode_dataset(
                args.input,
                args.output,
                n_parts=args.n_parts,
                codec=args.codec,
                conv_col=args.conv_col,
                order_col=args.order_col,
                sort_key=(args.conv_col, args.order_col),
                salt_rows=args.salt_rows,
                resume=args.resume,
                cluster_by=args.cluster_by,
                bloom_cols=args.bloom_cols,
                text_bloom_cols=args.text_bloom_cols,
            )
            print(json.dumps(summary))
        elif args.cmd == "decode":
            from .decode import decode_dataset

            ds = decode_dataset(args.input, columns=args.columns,
                                max_generation=args.max_generation)
            wkw = {"compression": cfg.compression}
            if args.partition_by:
                wkw["partition_cols"] = list(args.partition_by)
            ds.write_parquet(args.output, **wkw)
            print(json.dumps({"rows": ray.data.read_parquet(args.output).count()}))
        elif args.cmd == "append":
            from .encode import append_dataset

            print(json.dumps(append_dataset(args.input, args.encoded_dir, skip_existing=args.skip_existing)))
        elif args.cmd == "upsert":
            from .encode import upsert_dataset

            print(json.dumps(upsert_dataset(args.input, args.encoded_dir)))
        elif args.cmd == "delete":
            if args.where is not None:
                if args.keys:
                    print("delete: pass keys OR --where, not both", file=sys.stderr)
                    return 2
                from .encode import delete_rows

                clauses = [_parse_where(c) for c in args.where]
                print(json.dumps(delete_rows(args.encoded_dir, clauses)))
            else:
                if not args.keys:
                    print("delete: needs conversation keys or --where", file=sys.stderr)
                    return 2
                from .encode import delete_conversations

                keys = [int(k) for k in args.keys] if args.as_int else list(args.keys)
                print(json.dumps(delete_conversations(args.encoded_dir, keys)))
        elif args.cmd == "snapshot":
            from .snapshot import drop_snapshot, snapshot_store

            if args.drop:
                if not args.name:
                    ap.error("snapshot --drop needs --name")
                print(json.dumps(drop_snapshot(args.encoded_dir, args.name)))
            else:
                print(json.dumps(snapshot_store(args.encoded_dir, name=args.name)))
        elif args.cmd == "snapshots":
            from .snapshot import list_snapshots

            print(json.dumps(list_snapshots(args.encoded_dir)))
        elif args.cmd == "restore":
            from .snapshot import restore_snapshot

            print(json.dumps(restore_snapshot(args.encoded_dir, args.name)))
        elif args.cmd == "compact":
            import pyarrow as pa

            from .codecs import str_to_type
            from .encode import compact_dataset

            add = None
            if args.add_column:
                add = {}
                for spec in args.add_column:
                    parts = spec.split(":", 2)
                    if len(parts) < 2:
                        raise SystemExit(f"--add-column needs NAME:TYPE[:DEFAULT], got {spec!r}")
                    typ = str_to_type(parts[1])
                    if len(parts) == 3:
                        add[parts[0]] = (typ, pa.scalar(parts[2]).cast(typ).as_py())
                    else:
                        add[parts[0]] = typ
            kw = {"n_parts": args.n_parts} if args.n_parts else {}
            summary = compact_dataset(
                args.input, args.output,
                target_part_bytes=args.target_mb << 20,
                drop_columns=args.drop_columns, add_columns=add, **kw,
            )
            print(json.dumps(summary))
        elif args.cmd == "rebucket":
            from .encode import rebucket_dataset

            summary = rebucket_dataset(
                args.input, args.output,
                on=args.on, like=args.like, n_parts=args.n_parts,
            )
            print(json.dumps(summary))
        elif args.cmd == "lookup":
            from .decode import lookup_conversation

            key = int(args.key) if args.as_int else args.key
            tbl = lookup_conversation(args.encoded_dir, key, columns=args.columns)
            print(json.dumps({
                "rows": tbl.num_rows,
                "columns": tbl.column_names,
                "sample": tbl.slice(0, max(args.limit, 0)).to_pylist(),
            }, default=str))
        elif args.cmd == "storestats":
            from .manifest import load_records, load_run_record
            from .pipelines.transcripts import (
                store_length_histogram,
                store_role_stats,
                store_tool_usage,
            )

            cols = set(load_records(args.encoded_dir)[0]["codecs"])
            run = load_run_record(args.encoded_dir) or {}
            order_col = args.order_col or run.get("order_col", "turn_idx")
            out: dict = {}
            if {args.role_col, args.text_col} <= cols:
                out["role_stats"] = store_role_stats(
                    args.encoded_dir, args.role_col, args.text_col
                ).to_pylist()
            if order_col in cols:
                out["length_histogram"] = store_length_histogram(
                    args.encoded_dir, order_col
                ).to_pylist()
            if {args.role_col, args.tool_col} <= cols:
                out["tool_usage"] = store_tool_usage(
                    args.encoded_dir, args.role_col, args.tool_col
                ).to_pylist()
            print(json.dumps(out, default=str))
        elif args.cmd == "scan":
            if not args.where and not args.where_any:
                raise ValueError("scan needs --where and/or --where-any")
            predicate = _predicate(args)
            if args.count:
                # metadata-first: fully-matching containers answer from their
                # recorded row counts without opening; only boundary
                # containers decode (storeagg's three-class plan). Counts are
                # additive, so a family folds per-store metadata answers.
                from .storeagg import store_agg

                result, aplan = store_agg(args.encoded_dir, ["count"],
                                                predicate, return_plan=True)
                print(json.dumps({"plan": aplan, "rows": result["count"]}))
                return 0
            from .zonemap import scan_store

            ds, plan = scan_store(
                args.encoded_dir, predicate, columns=args.columns,
                return_plan=True,
            )
            if args.output:
                ds.write_parquet(args.output, compression=cfg.compression)
                rows = ray.data.read_parquet(args.output).count()
                print(json.dumps({"plan": plan, "rows": rows, "output": args.output}))
            else:
                # streaming: never materialize the full match set on the driver
                sample = ds.take(max(args.limit, 0)) if args.limit > 0 else []
                print(json.dumps({
                    "plan": plan,
                    "rows": ds.count(),
                    "sample": sample,
                }, default=str))
        elif args.cmd == "storeprofile":
            from .zonemap import store_profile

            prof = store_profile(args.encoded_dir)
            print(json.dumps(prof, default=str))
        elif args.cmd == "agg":
            predicate = _predicate(args)
            if args.group_by:
                from .storegroup import store_agg_group

                gb = [c.strip() for c in args.group_by.split(",") if c.strip()]
                tbl, plan = store_agg_group(
                    args.encoded_dir, gb, args.agg, predicate, return_plan=True,
                )
                tbl = tbl.sort_by([(c, "ascending") for c in gb])
                print(json.dumps({"plan": plan}, default=str))
                for row in tbl.to_pylist():
                    print(json.dumps(row, default=str))
            else:
                from .storeagg import store_agg

                result, plan = store_agg(
                    args.encoded_dir, args.agg, predicate, return_plan=True
                )
                print(json.dumps({"plan": plan, "result": result}, default=str))
        elif args.cmd == "distinct":
            from .storedistinct import store_distinct

            predicate = _predicate(args)
            cols = [c.strip() for c in args.column.split(",") if c.strip()]
            if args.approx:
                if len(cols) != 1:
                    print("--approx takes exactly one column", file=sys.stderr)
                    return 2
                from .storedistinct import store_approx_distinct

                n, plan = store_approx_distinct(
                    args.encoded_dir, cols[0], predicate, return_plan=True
                )
                print(json.dumps({"plan": plan, "approx_n_values": n},
                                 default=str))
            elif len(cols) > 1:
                # distinct TUPLES = GROUP BY with a count: single-valued
                # containers still answer from manifest JSON; the count
                # column doubles as SELECT COUNT(*) GROUP BY output
                from .storegroup import store_agg_group

                kw = {}
                if args.max_values is not None:
                    kw["max_partial_rows"] = args.max_values
                tbl, plan = store_agg_group(
                    args.encoded_dir, cols, ["count"], predicate,
                    return_plan=True, **kw
                )
                tbl = tbl.sort_by([(c, "ascending") for c in cols])
                print(json.dumps({"plan": plan, "n_values": tbl.num_rows},
                                 default=str))
                for row in tbl.to_pylist()[: args.limit]:
                    print(json.dumps(row, default=str))
            else:
                kw = {}
                if args.max_values is not None:
                    kw["max_values"] = args.max_values
                tbl, plan = store_distinct(
                    args.encoded_dir, cols[0], predicate, return_plan=True, **kw
                )
                print(json.dumps({"plan": plan, "n_values": tbl.num_rows},
                                 default=str))
                for v in tbl[cols[0]].to_pylist()[: args.limit]:
                    print(json.dumps({cols[0]: v}, default=str))
        elif args.cmd == "topk":
            from .storetopk import store_topk

            predicate = _predicate(args)
            tb = [c.strip() for c in (args.tiebreak or "").split(",") if c.strip()]
            if args.group_by:
                from .storetopk import store_group_topk

                gb = [c.strip() for c in args.group_by.split(",") if c.strip()]
                tbl, plan = store_group_topk(
                    args.encoded_dir, gb, args.by, args.k, desc=not args.asc,
                    predicate=predicate, columns=args.columns, tiebreak=tb,
                    return_plan=True,
                )
            else:
                tbl, plan = store_topk(
                    args.encoded_dir, args.by, args.k, desc=not args.asc,
                    predicate=predicate, columns=args.columns, tiebreak=tb,
                    return_plan=True,
                )
            print(json.dumps({"plan": plan, "rows": tbl.num_rows}, default=str))
            if args.output:
                import pyarrow.parquet as pq

                pq.write_table(tbl, args.output, compression=cfg.compression)
            else:
                for row in tbl.to_pylist():
                    print(json.dumps(row, default=str))
        elif args.cmd == "search":
            from .storesearch import store_search

            predicate = _predicate(args)
            tb = [c.strip() for c in (args.tiebreak or "").split(",") if c.strip()]
            tbl, plan = store_search(
                args.encoded_dir, args.col, args.query, args.k,
                mode=args.mode, predicate=predicate, columns=args.columns,
                tiebreak=tb, snippet=args.snippet, return_plan=True,
            )
            print(json.dumps({"plan": plan, "rows": tbl.num_rows}, default=str))
            for row in tbl.to_pylist():
                print(json.dumps(row, default=str))
        elif args.cmd == "quantiles":
            from .storeagg import store_quantiles

            predicate = _predicate(args)
            qs = [float(x) for x in args.q.split(",") if x.strip()]
            vals, plan = store_quantiles(
                args.encoded_dir, args.column, qs, predicate, return_plan=True
            )
            print(json.dumps(
                {"plan": plan, "quantiles": dict(zip(map(str, qs), vals))},
                default=str,
            ))
        elif args.cmd == "sample":
            from .storesample import store_sample

            predicate = _predicate(args)
            if args.group_by:
                from .storesample import store_sample_stratified

                gb = [c.strip() for c in args.group_by.split(",") if c.strip()]
                tbl, plan = store_sample_stratified(
                    args.encoded_dir, args.key, gb, args.n, seed=args.seed,
                    predicate=predicate, columns=args.columns, return_plan=True,
                )
            else:
                tbl, plan = store_sample(
                    args.encoded_dir, args.key, args.n, seed=args.seed,
                    predicate=predicate, columns=args.columns, return_plan=True,
                )
            print(json.dumps({"plan": plan, "rows": tbl.num_rows}, default=str))
            if args.output:
                import pyarrow.parquet as pq

                pq.write_table(tbl, args.output, compression=cfg.compression)
            else:
                for row in tbl.to_pylist()[: args.limit]:
                    print(json.dumps(row, default=str))
        elif args.cmd == "join":
            from .storejoin import store_join

            if len(args.dirs) < 2:
                print("join needs at least 2 store directories", file=sys.stderr)
                return 2
            cols = None
            if args.columns is not None:
                if len(args.columns) != len(args.dirs):
                    print(f"{len(args.dirs)} stores but {len(args.columns)} "
                          "--columns flags", file=sys.stderr)
                    return 2
                cols = [None if c.strip() == "-" else
                        [x.strip() for x in c.split(",") if x.strip()]
                        for c in args.columns]
            ds = store_join(args.dirs, columns=cols, how=args.how)
            if args.output:
                ds.write_parquet(args.output, compression=cfg.compression)
                rows = ray.data.read_parquet(args.output).count()
                print(json.dumps({"rows": rows, "output": args.output}))
            else:
                sample = ds.take(max(args.limit, 0)) if args.limit > 0 else []
                print(json.dumps({"rows": ds.count(), "sample": sample}, default=str))
        elif args.cmd == "diff":
            from .decode import store_diff

            if args.against is not None:
                left, right = args.stores, args.against
            elif len(args.stores) == 2:
                left, right = args.stores[0], args.stores[1]
            else:
                print("diff needs exactly two stores, or --against for a "
                      "family comparison", file=sys.stderr)
                return 2
            res = store_diff(left, right, columns=args.columns)
            print(json.dumps(res))
            return 0 if res["equal"] else 3
        elif args.cmd == "changes":
            from .decode import store_changes

            ds, plan = store_changes(args.old_dir, args.new_dir, return_plan=True)
            if args.output:
                ds.write_parquet(args.output, compression=cfg.compression)
                rows = ray.data.read_parquet(args.output).count()
                print(json.dumps({"rows": rows, "output": args.output, "plan": plan}))
            else:
                import collections

                counts: "collections.Counter[str]" = collections.Counter()
                sample = []
                for b in ds.iter_batches(batch_format="pyarrow"):
                    if b.num_rows == 0:
                        continue
                    counts.update(b["change"].to_pylist())
                    if len(sample) < max(args.limit, 0):
                        sample.extend(b.slice(0, args.limit - len(sample)).to_pylist())
                print(json.dumps({"rows": sum(counts.values()),
                                  "by_change": dict(sorted(counts.items())),
                                  "plan": plan, "sample": sample}, default=str))
        elif args.cmd == "vacuum":
            from .vacuum import vacuum_store

            rep = vacuum_store(
                args.encoded_dir,
                keep_snapshots=args.keep_snapshots,
                force_strays=args.force_strays,
                dry_run=args.dry_run,
            )
            print(json.dumps(rep))
        elif args.cmd == "fsck":
            from .fsck import fsck_store

            # ONE JSON document on stdout even with --repair (consumers parse a
            # single object); a repair failure is reported inline and fsck
            # still runs so the report reflects the store's actual state.
            repair = None
            if args.repair:
                from .encode import repair_store

                try:
                    repair = repair_store(args.encoded_dir)
                except Exception as exc:  # noqa: BLE001 — surfaced in the report
                    repair = {"error": f"{type(exc).__name__}: {exc}"}
            rep = fsck_store(args.encoded_dir, deep=args.deep)
            if repair is not None:
                rep = {"repair": repair, **rep}
                if "error" in repair:
                    rep["ok"] = False
            print(json.dumps(rep))
            return 0 if rep["ok"] else 1
        elif args.cmd == "verify":
            if args.distributed:
                from .decode import verify_distributed

                ok, detail = verify_distributed(args.original, args.encoded_dir)
                print(json.dumps({"bit_identical": ok, "detail": detail}))
            else:
                import pyarrow.parquet as pq

                from .decode import roundtrip_table

                orig = pq.read_table(args.original)
                ok, msg = roundtrip_table(orig, args.encoded_dir)
                print(json.dumps({"bit_identical": ok, "detail": msg}))
            return 0 if ok else 1
        elif args.cmd == "analyze":
            from .profile import analyze_files, discover_parquet_files, format_report

            paths = [
                f for inp in args.inputs for f in discover_parquet_files(inp, recursive=args.recursive)
            ]
            results = analyze_files(paths, column_limit=cfg.profiling_column_limit)
            report = format_report(results)
            if args.report:
                with open(args.report, "w") as f:
                    f.write(report)
            print(report)
            if args.plan:
                from .stats import collect_column_stats, plan_codecs

                for path in args.inputs:
                    ds = ray.data.read_parquet(path)
                    st = collect_column_stats(ds)
                    print(f"\ncodec plan for {path}:")
                    print(json.dumps(plan_codecs(st, ds.schema().base_schema), indent=2))
        elif args.cmd == "convert":
            import os

            from .convert import convert_directory, convert_file, save_conversion_report

            if os.path.isdir(args.input):
                stats = convert_directory(args.input, args.output, cfg)
            else:
                stats = [convert_file(args.input, args.output, cfg)]
            save_conversion_report(stats, args.output, cfg)
            from .logging_setup import format_stats_table

            print(format_stats_table(stats))
            print(json.dumps({"files": len(stats), "failed": sum(1 for s in stats if s.errors)}))
            return 1 if any(s.errors for s in stats) else 0
        elif args.cmd == "stats":
            from .stats import collect_column_stats

            ds = ray.data.read_parquet(args.input)
            print(json.dumps(collect_column_stats(ds), indent=2, default=str))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
