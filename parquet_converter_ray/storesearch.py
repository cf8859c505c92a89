"""Ranked full-text search over encoded stores.

``store_search`` answers "the k most relevant rows for this query" in one
pruned scan — the search-engine composition of three pieces this engine
already proves independently:

1. **Token-bloom pruning** — the query becomes a ``hasany`` (default) or
   ``hastok`` predicate on the text column: the per-container TOKEN Bloom
   filters (``encode --text-bloom-cols``) and exact dictionary probes drop
   containers that provably hold no query token via KB-ranged footer
   reads; zone maps prune any additional comparison predicate.
2. **Vectorized scoring** — survivors decode late-materialized; each row's
   score is the number of DISTINCT query tokens it contains, computed as
   one RE2 token-boundary match per token (the exact same pattern class
   the ``hastok`` mask and the tokenizer use, so a DuckDB
   ``regexp_matches`` oracle reproduces scores bit-for-bit).
3. **Top-k fold** — each block keeps its k best (score DESC, tiebreak ASC)
   rows; the driver re-ranks ≤ k × blocks rows (``storetopk._topk_take``).

Distinct-token-count ranking is the SQL-checkable default;
``mode="bm25"`` ships the real relevance ranking in the same scan shape —
Okapi BM25 (k1=1.2, b=0.75) with exact document frequencies from a first
statistics pass over the SAME pruned candidate set, N from manifest row
counts (no file opens), and avgdl measured over the candidate rows (the
one documented deviation from textbook BM25, which wants the corpus
average — candidates are the only rows a block ever decodes; stores could
record corpus avgdl at encode if exactness mattered). BM25 scores have no
SQL analogue, so that mode is pytest-pinned (ranking properties +
determinism) rather than oracled. ``mode="all"`` restricts to rows
holding EVERY token (scores then tie at len(tokens); the tiebreak orders
them — grep-style retrieval with the stronger conjunctive prune).

The reference engine has no text search at all; this is an inverted-file
-free design — at 100 TB the bloom probe opens footers only, and a rare
term decodes only the containers whose token sets may hold it.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bloom import _TOKEN_SPLIT, lower_text, query_tokens
from .storetopk import MAX_K, _topk_take
from .zonemap import PrunedScan, _normalize_dnf, and_clause


class _DFPartial:
    """Pass-A statistics partial: per-token document frequencies plus
    token-length sums over the decoder's candidate rows — one tiny row per
    block (len(tokens) + 2 int64 cells)."""

    def __init__(self, col: str, tokens):
        self.col = col
        self.tokens = list(tokens)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lower = lower_text(col)
        row = {"_n": pa.array([batch.num_rows], pa.int64())}
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.fill_null(lower, "")), pattern=_TOKEN_SPLIT
        )
        nlen = pc.list_value_length(toks).cast(pa.int64())
        row["_sumlen"] = pa.array([int(pc.sum(nlen).as_py() or 0)], pa.int64())
        for i, t in enumerate(self.tokens):
            pat = "(^|[^a-z0-9])" + re.escape(t) + "([^a-z0-9]|$)"
            m = pc.fill_null(pc.match_substring_regex(lower, pattern=pat), False)
            row[f"df_{i}"] = pa.array([int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)],
                                      pa.int64())
        return pa.table(row)


class _BM25TopK:
    """Per-block BM25 scoring + top-k partial: tf and document length both
    come from the tokenizer's own split (exact, adjacency-safe); idf and
    avgdl broadcast from pass A."""

    K1 = 1.2
    B = 0.75

    def __init__(self, col, tokens, idf, avgdl, k, tiebreak):
        self.col = col
        self.tokens = list(tokens)
        self.idf = list(idf)
        self.avgdl = max(float(avgdl), 1.0)
        self.k = k
        self.tiebreak = list(tiebreak)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        col = batch[self.col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lower = lower_text(col)
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.fill_null(lower, "")), pattern=_TOKEN_SPLIT
        )
        dl = pc.list_value_length(toks).cast(pa.float64()).to_numpy(zero_copy_only=False)
        norm = self.K1 * (1.0 - self.B + self.B * dl / self.avgdl)
        score = np.zeros(len(dl))
        # exact per-row term frequencies straight from the tokenizer's own
        # split (never a regex re-count, which RE2's lack of lookahead makes
        # undercount on adjacent occurrences): flatten once, bincount the
        # parent row indices of matching tokens per query term
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        for t, w in zip(self.tokens, self.idf):
            hit = pc.equal(flat, t)
            sel = parents[pc.fill_null(hit, False).to_numpy(zero_copy_only=False)]
            tf = np.bincount(sel, minlength=len(dl)).astype(np.float64)
            score += w * (tf * (self.K1 + 1.0)) / (tf + norm)
        tbl = batch.append_column("score", pa.array(np.round(score, 6)))
        return _topk_take(tbl, "score", True, self.tiebreak, self.k, True)


class _ScoreTopK:
    """Per-block scoring + top-k partial: score = distinct query tokens
    present (one RE2 boundary match per token, Kleene-safe over nulls)."""

    def __init__(self, col: str, tokens, k: int, tiebreak):
        self.col = col
        self.tokens = list(tokens)
        self.k = k
        self.tiebreak = list(tiebreak)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lower = lower_text(col)
        score = None
        for t in self.tokens:
            pat = "(^|[^a-z0-9])" + re.escape(t) + "([^a-z0-9]|$)"
            m = pc.cast(
                pc.fill_null(pc.match_substring_regex(lower, pattern=pat), False),
                pa.int32(),
            )
            score = m if score is None else pc.add(score, m)
        tbl = batch.append_column("score", score)
        return _topk_take(tbl, "score", True, self.tiebreak, self.k, False)


def _snippets(texts: pa.Array, tokens, width: int = 40) -> pa.Array:
    """±width-char context around the FIRST query-token hit per row —
    driver-side over the final k rows only (k is small by contract), so a
    Python loop here is fine where one in the scan would not be. Matching
    runs case-insensitively on the ORIGINAL string: lowercasing first can
    change a string's length (``'İ'.lower()`` is two code points), which
    would shift every offset sliced back out of it."""
    pat = re.compile("(^|[^a-z0-9])(" + "|".join(re.escape(t) for t in tokens)
                     + ")([^a-z0-9]|$)", re.IGNORECASE)
    out = []
    for v in texts.to_pylist():
        if v is None:
            out.append(None)
            continue
        m = pat.search(v)
        if not m:
            out.append(v[: 2 * width])
            continue
        lo = max(0, m.start(2) - width)
        hi = min(len(v), m.end(2) + width)
        out.append(("…" if lo else "") + v[lo:hi] + ("…" if hi < len(v) else ""))
    return pa.array(out, type=pa.string())


def store_search(
    store,
    col: str,
    query: str,
    k: int = 10,
    *,
    mode: str = "any",
    predicate=None,
    columns: "list[str] | None" = None,
    tiebreak=(),
    snippet: bool = False,
    verify_crc: bool = False,
    return_plan: bool = False,
):
    """k most relevant rows of a store for ``query`` (module docstring).
    ``store`` is one directory or a list searched as ONE corpus: one batch
    of footer-probe tasks + one scan across members, both plain Ray tasks
    (no Ray Data job). ``snippet=True`` appends a ``snippet`` column: ±40
    chars around each hit's first matched token.

    ``mode="bm25"`` mixes populations by design: N counts every manifest
    row (of every family member), while the document frequencies and avgdl
    come from the candidate rows only — the rows that pass ``predicate``
    and hold a query token, the only rows a query decodes. Textbook BM25
    takes all three over the corpus; here, with a selective predicate, idf
    weighs a token by its rarity in the whole store, not in the filtered
    slice."""
    if not (1 <= k <= MAX_K):
        raise ValueError(f"k={k} outside [1, {MAX_K}]")
    if mode not in ("any", "all", "bm25"):
        raise ValueError(f"mode must be 'any', 'all' or 'bm25', got {mode!r}")
    tokens = query_tokens(query)
    if not tokens:
        raise ValueError(f"query {query!r} holds no tokens")
    tiebreak = list(tiebreak)

    # the query itself is a text clause AND-ed into every branch, so the
    # scan's own type check refuses a non-text ``col``
    op = "hastok" if mode == "all" else "hasany"
    user = _normalize_dnf(predicate) if predicate else []
    scan = PrunedScan(store, ("or", and_clause(user, (col, op, query))),
                      [col, *tiebreak, *(columns or [])],
                      all_columns=columns is None, what="search/predicate")
    paths, plan = scan.candidates()

    out_cols = list(columns) if columns is not None else [
        c for c in scan.schema if c != col
    ]
    work_cols = list(dict.fromkeys(out_cols + [col] + tiebreak))

    is_float_score = mode == "bm25"
    if mode == "bm25":
        # pass A — exact per-token document frequencies + candidate length
        # stats in one tiny-partial scan; N from manifest row counts alone
        import math

        dfs = np.zeros(len(tokens), dtype=np.int64)
        n_cand = 0
        sumlen = 0
        for b in scan.run(paths, _DFPartial(col, tokens), [col], verify_crc):
            n_cand += int(pc.sum(b["_n"]).as_py() or 0)
            sumlen += int(pc.sum(b["_sumlen"]).as_py() or 0)
            for i in range(len(tokens)):
                dfs[i] += int(pc.sum(b[f"df_{i}"]).as_py() or 0)
        n_total = sum(int(r.get("rows", 0)) for _, recs, _ in scan.members for r in recs)
        plan["bm25"] = {"n_total": n_total, "candidates": n_cand,
                        "df": {t: int(d) for t, d in zip(tokens, dfs)}}
        idf = [math.log((n_total - int(d) + 0.5) / (int(d) + 0.5) + 1.0)
               for d in dfs]
        avgdl = (sumlen / n_cand) if n_cand else 1.0
        scorer = _BM25TopK(col, tokens, idf, avgdl, k, tiebreak)
    else:
        scorer = _ScoreTopK(col, tokens, k, tiebreak)
    partials = list(scan.run(paths, scorer, work_cols, verify_crc))

    want = out_cols + ["score"]
    if partials:
        merged = pa.concat_tables(partials).combine_chunks()
        top = _topk_take(merged, "score", True, tiebreak, k, is_float_score)
        if snippet:
            texts = top[col]
            if isinstance(texts, pa.ChunkedArray):
                texts = texts.combine_chunks()
            top = top.append_column("snippet", _snippets(texts, tokens))
        out = top.select(want + (["snippet"] if snippet else []))
    else:
        cols = {c: pa.array([], type=scan.schema[c]) for c in out_cols}
        cols["score"] = pa.array(
            [], type=pa.float64() if is_float_score else pa.int32()
        )
        if snippet:
            cols["snippet"] = pa.array([], type=pa.string())
        out = pa.table(cols)
    return (out, plan) if return_plan else out
