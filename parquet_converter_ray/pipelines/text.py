"""Text-analysis stages over the ``documents`` table (training-data pipeline ops).

Vectorized per-batch kernels (pyarrow.compute / pandas) — no per-row Python in
hot paths except the md5 fingerprint (hashlib over a C loop via pandas map).
Language-ID and quality scoring are stateful actor-pool stages (stopword tables
and compiled regexes built once per actor in ``__init__``).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..bloom import lower_text
from ._util import ACTOR_POOL_ARGS, read_parquet_clean


def _docs(sf_dir: str, columns=None) -> "ray.data.Dataset":
    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


# --- token counting (SQL-checkable) -----------------------------------------


def token_counts(sf_dir: str) -> pa.Table:
    """Whitespace token count per doc. Oracle: regexp_split_to_array(trim(text),'\\s+')."""

    def count(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        toks = pc.split_pattern_regex(trimmed, pattern=r"\s+")
        n = pc.list_value_length(toks).cast(pa.int64())
        n = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, type=pa.int64()), n)
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(count, batch_format="pyarrow")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


def token_counts_bpe(sf_dir: str) -> pa.Table:
    """BPE-ish regex token count per doc (the subword-style tokenizer shape a
    training pipeline budgets with, vs whitespace ``token_counts``): counts
    non-overlapping matches of letter-runs | digit-runs | single punctuation.
    One RE2 kernel per batch (pc.count_substring_regex); the oracle uses the
    SAME RE2 pattern via DuckDB regexp_extract_all."""
    pat = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

    def count(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], pattern=pat).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_bpe_tokens": n})

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(count, batch_format="pyarrow")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


def top_bigrams(sf_dir: str, k: int = 20) -> pa.Table:
    """Top-k word bigrams across the corpus by count (ties broken by bigram).

    Per batch everything is Arrow-vectorized: lower+trim, RE2 whitespace
    split, then adjacent-token pairing over the FLAT token buffer (one boolean
    mask drops each document's last token; ``binary_join_element_wise`` glues
    left/right token arrays) and a local ``value_counts`` partial. The shuffle
    carries (bigram, partial count) rows; the final top-k is per-batch local
    top-k partials merged on the driver — no global sort of the count table.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = pc.utf8_trim_whitespace(lower_text(batch["text"].fill_null("")))
        t = t.filter(pc.not_equal(t, ""))
        words = pc.split_pattern_regex(t, pattern=r"\s+").combine_chunks()
        vals = words.flatten()  # respects list-array offset
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        off = np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])
        keep = np.ones(int(off[-1]), bool)
        keep[off[1:] - 1] = False  # each doc's last token starts no bigram
        idx = np.nonzero(keep)[0]
        left = vals.take(pa.array(idx))
        right = vals.take(pa.array(idx + 1))
        bigrams = pc.binary_join_element_wise(left, right, " ")
        vc = pc.value_counts(bigrams)
        return pa.table(
            {"bigram": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    from ray.data.aggregate import Sum

    counts = (
        _docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    order = [("cnt", "descending"), ("bigram", "ascending")]

    def local_topk(b: pa.Table) -> pa.Table:
        return b.sort_by(order).slice(0, k)

    parts = pa.concat_tables(
        list(
            counts.map_batches(local_topk, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
        )
    )
    return parts.sort_by(order).slice(0, k).combine_chunks()


def char_stats(sf_dir: str) -> pa.Table:
    """Character length per doc (scalar string fn family, SURVEY §2.8)."""

    def f(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "n_chars_c": pc.utf8_length(batch["text"]).cast(pa.int64())}
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


def doc_fingerprint(sf_dir: str) -> pa.Table:
    """md5 content fingerprint per doc (exact-dedup key). Oracle: md5(text)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        batch["fp"] = batch["text"].map(lambda s: hashlib.md5(s.encode()).hexdigest())
        return batch[["doc_id", "fp"]]

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


# --- language ID + quality scoring (actor-pool, heuristic — rows-only check) -

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "zu", "mit", "den", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "du", "pour"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "por"},
}


class LangQuality:
    """Actor-pool stage: language heuristic + quality score per document.

    State built once per actor (SURVEY §2.3 pattern): compiled tokenizer
    regex, HASHED stopword tables per language, CJK range regex. Scoring is
    batch-vectorized: tokens flattened across the batch, distinct-token and
    stopword-hit counts via lexsort/np.isin + per-doc reduceat — the only
    per-row work left is the C-loop tokenizer itself.
    """

    _LANGS = list(_STOPWORDS)

    def __init__(self):
        self.word_re = re.compile(r"[\w']+", re.UNICODE)
        self.stop_hashes = {lang: np.sort(hash_tokens(sorted(ws))) for lang, ws in _STOPWORDS.items()}
        self.cjk_re = r"[一-鿿]"

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import itertools

        texts = batch["text"].fillna("")
        toks = texts.str.lower().str.findall(self.word_re)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        n = len(lens)
        flat = list(itertools.chain.from_iterable(toks))
        th = hash_tokens(flat)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        pos_in_doc = np.arange(len(th)) - np.repeat(offsets[:-1], lens)

        # distinct tokens per doc: lexsort (doc, hash), drop adjacent dups
        order = np.lexsort((th, doc_of))
        d_s, h_s = doc_of[order], th[order]
        first = np.empty(len(d_s), dtype=bool)
        if len(d_s):
            first[0] = True
            first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        n_distinct = np.bincount(d_s[first], minlength=n) if len(d_s) else np.zeros(n, dtype=np.int64)
        diversity = n_distinct / np.maximum(1, lens)

        # stopword hits per lang: DISTINCT stopwords among the first 200
        # tokens (set(ws[:200]) & stop semantics)
        head = pos_in_doc < 200
        hits = np.zeros((n, len(self._LANGS)), dtype=np.int64)
        for li, lang in enumerate(self._LANGS):
            member = head & np.isin(th, self.stop_hashes[lang])
            if member.any():
                dd, hh = doc_of[member], th[member]
                o2 = np.lexsort((hh, dd))
                dd, hh = dd[o2], hh[o2]
                f2 = np.empty(len(dd), dtype=bool)
                f2[0] = True
                f2[1:] = (dd[1:] != dd[:-1]) | (hh[1:] != hh[:-1])
                hits[:, li] = np.bincount(dd[f2], minlength=n)
        best_hits = hits.max(axis=1)
        lang_arr = np.where(
            best_hits > 0, np.array(self._LANGS, dtype=object)[hits.argmax(axis=1)], "und"
        )
        is_zh = texts.str.slice(0, 200).str.contains(self.cjk_re, regex=True).to_numpy()
        lang_arr = np.where(is_zh, "zh", lang_arr)

        # mean token length per doc: reduceat over flat token char lengths
        tok_chars = np.fromiter(map(len, flat), dtype=np.int64, count=len(flat))
        nz = lens > 0
        sums = np.zeros(n, dtype=np.int64)
        if nz.any():
            sums[nz] = np.add.reduceat(tok_chars, offsets[:-1][nz])
        mean_tok = np.where(nz, sums / np.maximum(1, lens), 0.0)

        n_chars = texts.str.len().clip(lower=1).to_numpy()
        punct = texts.str.count(r"[^\w\s]").to_numpy() / n_chars
        score = (
            0.3 * np.clip(lens / 100.0, 0, 1)
            + 0.3 * diversity
            + 0.2 * (1.0 - np.clip(punct * 5, 0, 1))
            + 0.2 * np.clip(mean_tok / 8.0, 0, 1)
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "lang_pred": lang_arr,
                "n_tokens": lens,
                "quality": np.round(score, 4),
            }
        )


def lang_quality(sf_dir: str) -> pa.Table:
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LangQuality, batch_format="pandas", batch_size=2048, concurrency=2, **ACTOR_POOL_ARGS
    )
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


# --- rolling-hash document fingerprinting (winnowing-style, rows-only) ------


def winnow_fingerprints(sf_dir: str, k: int = 5, w: int = 4) -> pa.Table:
    """Winnowing fingerprint (Schleimer et al. 2003, public): min rolling hash
    per window over k-gram token hashes; returns a small set per doc."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_fps = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"].fillna("")):
            toks = text.lower().split()
            if len(toks) < k:
                out_ids.append(doc_id)
                out_fps.append([])
                continue
            hs = rolling_gram_hashes(hash_tokens(toks), k)
            if len(hs) >= w:
                win = np.lib.stride_tricks.sliding_window_view(hs, w)
                fps = np.unique(win.min(axis=1))
            else:
                fps = np.array([hs.min()], dtype=np.uint64)
            out_ids.append(doc_id)
            out_fps.append([int(np.int64(np.uint64(x))) for x in fps[:16]])  # wrap to int64
        return pd.DataFrame({"doc_id": out_ids, "fingerprints": out_fps})

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


def hash_tokens(tokens: list[str]) -> np.ndarray:
    """Vectorized stable uint64 hash per token (pandas siphash, fixed key —
    process-independent). C-speed; use instead of per-token md5 in hot paths."""
    if not tokens:
        return np.zeros(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(tokens, dtype=object)).astype(np.uint64)


_G1, _G2, _G3 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F), np.uint64(0x165667B19E3779F9)


def rolling_gram_hashes(tok_hashes: np.ndarray, k: int) -> np.ndarray:
    """k-gram hashes from token hashes via a positional mix — no string joins.

    Vectorized rolling combine: gram_i = mix(h[i], h[i+1], ..., h[i+k-1])."""
    n = len(tok_hashes)
    if n < k:
        if n == 0:
            return np.zeros(0, dtype=np.uint64)
        acc = np.zeros(1, dtype=np.uint64)
        for j in range(n):
            acc = acc * _G1 + tok_hashes[j : j + 1]
        return acc
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        acc = acc * _G1 + tok_hashes[j : n - k + 1 + j] * _G2
    return acc ^ (acc >> np.uint64(29))


# --- batch-vectorized shingle sets (no per-doc Python in the hot loop) -------


def flat_sorted_unique_grams(
    vals: np.ndarray, lens: np.ndarray, k: int, short_mode: str = "nok"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sorted-unique k-gram hashes over per-doc value arrays stored
    concatenated in ``vals`` — ONE vectorized pass across the whole batch.

    Exactly reproduces ``np.unique(rolling_gram_hashes(doc_vals, k))`` per doc
    (sorted-unique == np.unique), with the per-doc short cases:
      - empty doc -> {0} (the shingle-set sentinel used by _shingle_hashes)
      - 0 < len < k, short_mode="nok":     token semantics — single hash via
        the rolling n<k branch (no _G2 weight, no final xor-shift)
      - 0 < len < k, short_mode="fullgram": char-n-gram semantics — k_eff=len,
        single standard-formula gram (matches rolling(cps, min(n, len)))

    Returns (grams_concat, offsets[n_docs+1]).
    """
    n = len(lens)
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    ends = np.cumsum(lens)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    # long docs (len >= k): one rolling pass over the flat array, then keep
    # only gram positions fully inside a single doc
    if total >= k and k >= 1:
        m = total - k + 1
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc = acc * _G1 + vals[j : m + j] * _G2
        acc ^= acc >> np.uint64(29)
        valid = doc_of[:m] == doc_of[k - 1 :]
        grams = acc[valid]
        docs = doc_of[:m][valid]
    else:
        grams = np.zeros(0, dtype=np.uint64)
        docs = np.zeros(0, dtype=np.int64)
    # short docs: rare; tiny per-doc loop with exact branch parity
    short = np.nonzero((lens > 0) & (lens < k))[0]
    if len(short):
        s_grams = np.empty(len(short), dtype=np.uint64)
        for i, d in enumerate(short):
            v = vals[ends[d] - lens[d] : ends[d]]
            a = np.zeros(1, dtype=np.uint64)  # array ops: silent mod-2^64 wrap
            if short_mode == "nok":
                for j in range(len(v)):
                    a = a * _G1 + v[j : j + 1]
            else:  # one full-length gram with the standard formula
                for j in range(len(v)):
                    a = a * _G1 + v[j : j + 1] * _G2
                a ^= a >> np.uint64(29)
            s_grams[i] = a[0]
        grams = np.concatenate([grams, s_grams])
        docs = np.concatenate([docs, short])
    empty = np.nonzero(lens == 0)[0]
    if len(empty):
        grams = np.concatenate([grams, np.zeros(len(empty), dtype=np.uint64)])
        docs = np.concatenate([docs, empty])
    # per-doc sorted unique: lexsort then drop adjacent duplicates
    order = np.lexsort((grams, docs))
    docs, grams = docs[order], grams[order]
    if len(docs):
        keep = np.empty(len(docs), dtype=bool)
        keep[0] = True
        keep[1:] = (docs[1:] != docs[:-1]) | (grams[1:] != grams[:-1])
        docs, grams = docs[keep], grams[keep]
    counts = np.bincount(docs, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return grams, offsets


def batch_token_shingles(texts: "pd.Series", k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique token-k-gram shingle hashes for every doc of a batch —
    identical sets to ``_shingle_hashes`` per doc, computed batch-at-once."""
    import itertools

    toks = texts.fillna("").str.lower().str.split()
    lens = toks.map(len).to_numpy(dtype=np.int64)
    flat = list(itertools.chain.from_iterable(toks))
    th = hash_tokens(flat)
    return flat_sorted_unique_grams(th, lens, k, short_mode="nok")


def batch_char_ngrams(texts: "pd.Series", n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique character-n-gram hashes per doc (identical sets to
    ``_char_ngrams``), batch-at-once over the concatenated code points."""
    t = texts.fillna("").str.lower()
    joined = "".join(t.tolist())
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    lens = t.str.len().to_numpy(dtype=np.int64)
    return flat_sorted_unique_grams(cps, lens, n, short_mode="fullgram")


def grams_to_large_binary(grams: np.ndarray, offsets: np.ndarray) -> "pa.Array":
    """Zero-copy pack of per-doc uint64 gram arrays into an Arrow
    ``large_binary`` column (8 bytes per gram) — the joinable wire format for
    shingle sets (Acero joins reject list columns as payload)."""
    value_offsets = (offsets * 8).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(value_offsets.tobytes()), pa.py_buffer(grams.tobytes())],
    )


# --- end-to-end curation (filter + dedup + resumable partitioned write) ------


def curate_documents(
    sf_dir: str,
    out_dir: str | None = None,
    min_tokens: int = 5,
    max_tokens: int = 1000,
) -> pa.Table:
    """Training-data curation composition: drop exact duplicates (keep the
    smallest doc_id per distinct text) and out-of-range documents by token
    count, optionally writing the survivors as partitioned parquet.

    Scale shape: no corpus-sized driver or broadcast state anywhere. Token
    counting is the vectorized Arrow kernel from ``token_counts`` and filters
    FIRST (duplicates share a text, hence a token count, so the group minimum
    is unchanged by the filter). The dedup keep-set (one id per distinct
    text) is a hash-partitioned groupby-min on a vectorized 128-bit content
    hash, and survivors are selected by a distributed SEMI-JOIN of the
    filtered corpus against the keep-ids on doc_id — at low duplication the
    keep-set is corpus-sized, so it must never be ``ray.put`` broadcast.
    SQL-checkable end-to-end (min(doc_id) GROUP BY text + length filter)."""
    from ._util import join_num_partitions
    from .dedup import text_hash128

    def token_filter(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(batch["text"])
        toks = pc.split_pattern_regex(trimmed, pattern=r"\s+")
        n = pc.list_value_length(toks).cast(pa.int64())
        n = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, type=pa.int64()), n)
        batch = batch.append_column("n_tokens", n)
        mask = pc.and_(
            pc.greater_equal(n, pa.scalar(min_tokens, type=pa.int64())),
            pc.less_equal(n, pa.scalar(max_tokens, type=pa.int64())),
        )
        return batch.filter(mask)

    def filtered() -> "ray.data.Dataset":
        return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
            token_filter, batch_format="pyarrow"
        )

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        h1, h2 = text_hash128(batch["text"])
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(), "h1": h1, "h2": h2})

    keep_ids = (
        filtered()
        .map_batches(add_hash, batch_format="pandas")
        .groupby(["h1", "h2"])
        .min("doc_id")
        .map_batches(
            lambda t: pa.table({"doc_id": t["min(doc_id)"].cast(pa.int64())}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    # semi-join: survivors = filtered corpus ⋈ keep-ids on doc_id (both sides
    # hash-partitioned; the corpus streams through the exchange once). The
    # second filtered() read recomputes the cheap token filter instead of
    # materializing the full filtered corpus mid-pipeline.
    n_keep = keep_ids.count()
    ds = filtered().join(
        keep_ids.map_batches(
            lambda t: t.rename_columns(["keep_id"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=join_num_partitions(n_keep),
        on=("doc_id",),
        right_on=("keep_id",),
    )
    ds = ds.map_batches(
        lambda t: t.select(["doc_id", "text", "lang", "n_tokens"]), batch_format="pyarrow"
    )
    if out_dir is not None:
        # resumable layout: one directory per language partition
        ds.write_parquet(out_dir, partition_cols=["lang"])
        ds = read_parquet_clean(out_dir)
    out = pa.concat_tables(
        list(ds.select_columns(["doc_id", "n_tokens"]).iter_batches(batch_format="pyarrow"))
    )
    return out.sort_by("doc_id").combine_chunks()


# --- inverted index + TF-IDF (vocabulary / index build family) ---------------


def _explode_terms(batch: pa.Table) -> pd.DataFrame:
    """Flat (doc_id, term) rows for non-empty docs — lower/trim + RE2
    whitespace split, doc ids repeated by per-doc token count (np.repeat over
    the list lengths; no per-row Python)."""
    t = pc.utf8_trim_whitespace(lower_text(batch["text"].fill_null("")))
    keep = pc.not_equal(t, "")
    ids = batch["doc_id"].filter(keep).to_numpy(zero_copy_only=False)
    words = pc.split_pattern_regex(t.filter(keep), pattern=r"\s+").combine_chunks()
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    return pd.DataFrame(
        {"doc_id": np.repeat(ids, lens), "term": words.flatten().to_pandas()}
    )


def term_postings(sf_dir: str, k: int = 30) -> pa.Table:
    """Inverted-index build: for the k highest-document-frequency terms, the
    full sorted posting list (doc ids joined by ','). Per-batch partials are
    DISTINCT (term, doc_id) pairs (each doc lives in one batch, so per-batch
    dedup is global dedup); one groupby(term) builds df + the posting string
    inside the group; top-k by (df desc, term) via local-top-k partials
    merged on the driver. At 100 TB an index build writes ALL terms out
    partitioned by term hash (the output is corpus-sized by design) and caps
    or shards stopword postings; the top-k cut here keeps the oracle cheap."""

    def pairs(batch: pa.Table) -> pd.DataFrame:
        return _explode_terms(batch).drop_duplicates()

    def build(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy())
        return pd.DataFrame(
            {
                "term": [g["term"].iloc[0]],
                "df": [len(ids)],
                "postings": [",".join(map(str, ids))],
            }
        )

    posting = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby("term")
        .map_groups(build, batch_format="pandas")
    )

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["df", "term"], ascending=[False, True]).head(k)

    parts = posting.map_batches(local_topk, batch_format="pandas").to_pandas()
    out = parts.sort_values(["df", "term"], ascending=[False, True]).head(k)
    out["df"] = out["df"].astype("int64")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


# Vocab-partial row threshold for tfidf_top_terms: the driver-side df merge
# handles exactly (vocab x batches) partial rows, so that count gates the
# switch to the hash-partitioned tf ⋈ df join (web-scale n-gram vocabularies
# outgrow any broadcast). Both paths asserted identical in tests by forcing
# this to zero.
_DRIVER_VOCAB_ROWS = 20_000_000


def tfidf_top_terms(sf_dir: str) -> pa.Table:
    """Most characteristic term per document by tf-idf (ties by term).
    Score = tf * ln(n_docs / df).

    Two streaming passes. Pass 1: per-batch (term, distinct-doc-count)
    partials (each doc is ONE row of ``documents``, so a doc's term counts
    are batch-local by construction), materialized once. Below
    ``_DRIVER_VOCAB_ROWS`` partial rows the df merge happens on the driver
    and pass 2 broadcasts the vocabulary-sized df table via ``ray.put``
    (bounded state — contrast the corpus-sized keep-set this repo
    deliberately avoids in ``curate_documents``): each batch maps term->df
    with one vectorized ``pd.merge`` and takes the per-doc argmax WITHIN the
    batch — no per-doc shuffle in the whole pipeline. Above the threshold
    (no min_df cut, web-scale n-grams) pass 2 is the hash-partitioned
    tf ⋈ df ``Dataset.join``: df comes from a distributed
    ``groupby(term)``, per-batch argmax candidates (≤1 row per (doc, batch))
    reduce in a ``groupby(doc_id)``, and the driver only ever holds the
    one-row-per-doc result."""
    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def tf_batch(batch: pa.Table) -> pd.DataFrame:
        e = _explode_terms(batch)
        return e.groupby(["doc_id", "term"], as_index=False).agg(tf=("term", "size"))

    # df partials: docs are whole within a batch, so per-batch distinct
    # (doc, term) counts sum to the global document frequency. Each partial
    # is VOCAB-sized regardless of batch size.
    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("term", as_index=False).agg(df=("doc_id", "size"))
        g["nd"] = b["doc_id"].nunique()  # per-batch doc count rides along
        g.loc[1:, "nd"] = 0
        return g

    parts_ds = (
        docs.map_batches(tf_batch, batch_format="pyarrow")
        .map_batches(df_partial, batch_format="pandas")
        .materialize()
    )

    if parts_ds.count() > _DRIVER_VOCAB_ROWS:
        out = _tfidf_join_path(docs, tf_batch, parts_ds)
    else:
        # driver merge: a pandas sum over tiny vocab-sized tables — no
        # all-to-all exchange at all (the same partial-merge shortcut
        # profile.py uses; a Ray groupby here costs a full hash shuffle to
        # aggregate a few-KB table).
        part_list = list(parts_ds.iter_batches(batch_format="pandas"))
        parts = (
            pd.concat(part_list, ignore_index=True)
            if part_list
            else pd.DataFrame({"term": [], "df": [], "nd": []})
        )
        n_docs = int(parts["nd"].sum()) if len(parts) else 0
        agg = parts.groupby("term", as_index=False).agg(df=("df", "sum"))
        df_ref = ray.put(agg[["term", "df"]])

        def best_per_doc(batch: pa.Table) -> pd.DataFrame:
            tf = tf_batch(batch)
            if tf.empty:
                return pd.DataFrame(
                    {"doc_id": pd.array([], dtype="int64"), "term": [],
                     "tf": pd.array([], dtype="int64"),
                     "df": pd.array([], dtype="int64"), "score": []}
                )
            b = tf.merge(ray.get(df_ref), on="term", how="left")
            b["score"] = b["tf"].to_numpy() * np.log(
                float(n_docs) / b["df"].to_numpy(dtype=np.float64)
            )
            b = b.sort_values(["score", "term"], ascending=[False, True], kind="mergesort")
            return b.drop_duplicates("doc_id", keep="first")

        out = docs.map_batches(best_per_doc, batch_format="pyarrow").to_pandas()

    from ._util import sql_round

    out["score"] = sql_round(out["score"], 4)
    for c in ("doc_id", "tf", "df"):
        out[c] = out[c].astype("int64")
    out = out[["doc_id", "term", "tf", "df", "score"]]
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True), preserve_index=False
    )


def _tfidf_join_path(docs, tf_batch, parts_ds) -> pd.DataFrame:
    """The at-scale pass 2: df via distributed ``groupby(term)`` over the
    materialized vocab partials, scores via a hash-partitioned tf ⋈ df
    ``Dataset.join``, per-doc argmax via batch-local candidates reduced in a
    ``groupby(doc_id)``. Driver state: the final one-row-per-doc table only."""
    from ._util import join_num_partitions

    n_docs = int(parts_ds.sum("nd"))
    df_ds = (
        parts_ds.groupby("term")
        .sum("df")
        .map_batches(
            lambda b: b.rename_columns(["term", "df"]), batch_format="pyarrow"
        )
    )
    n_terms = df_ds.count()

    def local_best(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["score"] = b["tf"].to_numpy() * np.log(
            float(n_docs) / b["df"].to_numpy(dtype=np.float64)
        )
        b = b.sort_values(["score", "term"], ascending=[False, True], kind="mergesort")
        return b.drop_duplicates("doc_id", keep="first")

    def group_best(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(
            ["score", "term"], ascending=[False, True], kind="mergesort"
        ).head(1)

    cand = (
        docs.map_batches(tf_batch, batch_format="pyarrow")
        .join(
            df_ds,
            join_type="inner",
            num_partitions=join_num_partitions(n_terms, lo=1),
            on=("term",),
        )
        .map_batches(local_best, batch_format="pandas")
    )
    return cand.groupby("doc_id").map_groups(group_best, batch_format="pandas").to_pandas()


# --- PII / pattern redaction (scrub stage of a training-data pipeline) -------

# Default scrub rules: (RE2 pattern, replacement), applied IN ORDER. Counts
# are taken per-pattern against the ORIGINAL text (so a replacement can never
# create or hide a match for a later pattern's count). Both Arrow and DuckDB
# compile these with RE2, so semantics match the oracle exactly.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b(customer|supplier|user)\b", "<ENTITY>"),
]


def scrub_pii(
    sf_dir: str, patterns: list[tuple[str, str]] | None = None
) -> pa.Table:
    """Redact PII-shaped patterns from every document — one RE2 kernel per
    pattern per batch (``pc.replace_substring_regex`` / ``count_substring_regex``),
    no per-row Python. Returns (doc_id, clean_text, n_redactions) where
    n_redactions sums per-pattern match counts on the original text.

    The default rules carry the real email/IPv4 redactors plus an entity-term
    rule that actually fires on the synthetic corpus, so the oracle comparison
    exercises genuine replacements (null text stays null on both sides)."""
    pats = PII_PATTERNS if patterns is None else patterns

    def f(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        clean = text
        n = pa.nulls(len(text), pa.int64())
        first = True
        for pat, rep in pats:
            c = pc.count_substring_regex(text, pattern=pat).cast(pa.int64())
            n = c if first else pc.add(n, c)
            first = False
            clean = pc.replace_substring_regex(clean, pattern=pat, replacement=rep)
        return pa.table(
            {"doc_id": batch["doc_id"], "clean_text": clean, "n_redactions": n}
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


# --- fixed-size token-window chunking (context-length packing) ---------------


def chunk_documents(sf_dir: str, size: int = 64, overlap: int = 8) -> pa.Table:
    """Split every document into ``size``-token chunks overlapping by
    ``overlap`` tokens (stride = size - overlap) — the context-window packing
    step before tokenized training shards.

    Chunk starts are 0, stride, 2*stride, ... while start < max(ntok-overlap,1),
    so every token is covered and the final chunk may be short. Tokenization is
    a single-space split (matching SQL ``string_split(text, ' ')``; null -> '').

    Fully vectorized per batch: the flat token buffer is re-gathered once via a
    ragged-range index (np.repeat/cumsum), chunks become one ListArray, and the
    chunk text is one ``pc.binary_join`` — no per-doc Python loop even though
    chunks overlap (overlapped tokens are duplicated by the gather)."""
    if not (0 <= overlap < size):
        raise ValueError("require 0 <= overlap < size")
    stride = size - overlap

    def f(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch["text"].fill_null(""), pattern=" ").combine_chunks()
        flat = toks.flatten()  # respects list offsets
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_off = np.concatenate([[0], np.cumsum(lens)])
        grange = np.maximum(lens - overlap, 1)  # starts s: 0 <= s < grange, step stride
        n_chunks = (grange - 1) // stride + 1
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), n_chunks)
        chunk_off = np.concatenate([[0], np.cumsum(n_chunks)])
        rank = np.arange(int(chunk_off[-1]), dtype=np.int64) - np.repeat(
            chunk_off[:-1], n_chunks
        )
        start = rank * stride
        clen = np.minimum(size, lens[doc_idx] - start)
        out_off = np.concatenate([[0], np.cumsum(clen)])
        idx = (
            np.arange(int(out_off[-1]), dtype=np.int64)
            - np.repeat(out_off[:-1], clen)
            + np.repeat(doc_off[doc_idx] + start, clen)
        )
        taken = flat.take(pa.array(idx))
        chunks = pa.ListArray.from_arrays(pa.array(out_off, pa.int32()), taken)
        chunk_text = pc.binary_join(chunks, " ")
        return pa.table(
            {
                "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False)[doc_idx],
                "chunk_idx": rank,
                "chunk_text": chunk_text,
                "n_tokens": clen,
            }
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")
    out = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return out.sort_by([("doc_id", "ascending"), ("chunk_idx", "ascending")]).combine_chunks()


# --- repetition / quality signals (Gopher-style filters) ----------------------


def token_dup_stats(sf_dir: str) -> pa.Table:
    """Per-document repetition signals for quality filtering (the Gopher-rule
    family): token count, distinct-token count, the fraction of tokens taken
    by the single most frequent token (top_unigram_frac) and the duplicate
    token fraction (1 - distinct/total).

    Exact (factorized token codes, not hashes) and batch-vectorized: one
    ``pd.factorize`` over the batch's flat token list, one lexsort per batch,
    per-doc distinct/max-run via run-length boundaries + ``np.maximum.reduceat``.
    Tokenization matches SQL ``string_split(text, ' ')`` (null -> '' -> 1 token)."""
    from ._util import sql_round

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.split(" ")
        lens = toks.map(len).to_numpy(dtype=np.int64)
        import itertools

        flat = list(itertools.chain.from_iterable(toks))
        if not flat:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "n_tokens": pd.array([], dtype="int64"),
                    "n_distinct": pd.array([], dtype="int64"),
                    "top_unigram_frac": pd.array([], dtype="float64"),
                    "dup_token_frac": pd.array([], dtype="float64"),
                }
            )
        codes, _ = pd.factorize(np.asarray(flat, dtype=object), sort=False)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        order = np.lexsort((codes, doc_of))
        d, c = doc_of[order], codes[order]
        # run boundaries over (doc, token-code)
        nb = np.empty(len(d), dtype=bool)
        nb[0] = True
        nb[1:] = (d[1:] != d[:-1]) | (c[1:] != c[:-1])
        run_starts = np.nonzero(nb)[0]
        run_lens = np.diff(np.append(run_starts, len(d)))
        run_doc = d[run_starts]
        n_distinct = np.bincount(run_doc, minlength=len(lens)).astype(np.int64)
        doc_first_run = np.searchsorted(run_doc, np.arange(len(lens)))
        max_run = np.maximum.reduceat(run_lens, doc_first_run)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_tokens": lens,
                "n_distinct": n_distinct,
                "top_unigram_frac": sql_round(max_run / lens, 4),
                "dup_token_frac": sql_round(1.0 - n_distinct / lens, 4),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).sort_by("doc_id")


# --- distinct (k-gram, doc) pairs — the wire format for span-level ops --------


def distinct_gram_doc_pairs(
    texts: "pd.Series", doc_ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (gram_hash, doc_id) pairs over SQL-parity token k-grams.

    Tokenization is a single-space split on the RAW text (no lowercasing —
    matches ``string_split(text, ' ')``); documents with fewer than ``k``
    tokens contribute no grams (matches ``greatest(len - k + 1, 0)``). One
    rolling pass over the batch's flat token-hash buffer, then one lexsort to
    deduplicate per doc. Returns int64 gram hashes (uint64 bit-pattern wrapped)
    so the arrays are directly Arrow/DuckDB-friendly."""
    import itertools

    toks = texts.fillna("").str.split(" ")
    lens = toks.map(len).to_numpy(dtype=np.int64)
    flat = list(itertools.chain.from_iterable(toks))
    th = hash_tokens(flat)
    n, total = len(lens), len(th)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    if total < k:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    m = total - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = acc * _G1 + th[j : m + j] * _G2
    acc ^= acc >> np.uint64(29)
    valid = doc_of[:m] == doc_of[k - 1 :]
    grams, docs = acc[valid], doc_of[:m][valid]
    order = np.lexsort((grams, docs))
    docs, grams = docs[order], grams[order]
    if len(docs):
        keep = np.empty(len(docs), dtype=bool)
        keep[0] = True
        keep[1:] = (docs[1:] != docs[:-1]) | (grams[1:] != grams[:-1])
        docs, grams = docs[keep], grams[keep]
    return grams.view(np.int64), np.asarray(doc_ids, dtype=np.int64)[docs]


# --- benchmark decontamination (test-set n-gram overlap removal) --------------


def decontaminate(
    sf_dir: str, k: int = 8, mod: int = 101, rem: int = 7
) -> pa.Table:
    """Benchmark decontamination: flag every corpus document that shares any
    ``k``-token n-gram with the benchmark set (here: docs with
    ``doc_id % mod == rem`` stand in for a held-out eval set). Returns
    (doc_id, n_hit_grams) for contaminated non-benchmark docs — the rows a
    training pipeline would drop before export.

    Scale shape: the benchmark set is SMALL BY DEFINITION (an eval suite, not
    the corpus), so its distinct gram hashes are reduced per batch, merged
    once on the driver, and broadcast via ``ray.put`` — a bounded small-side
    lookup, not a corpus-sized keep-set. The corpus then streams through one
    ``map_batches`` doing a searchsorted membership probe per batch; no
    shuffle at all."""

    def bench_grams(batch: pd.DataFrame) -> pd.DataFrame:
        sel = batch[(batch["doc_id"] % mod) == rem]
        g, _ = distinct_gram_doc_pairs(sel["text"], sel["doc_id"].to_numpy(), k)
        return pd.DataFrame({"gram": np.unique(g)})

    parts = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(bench_grams, batch_format="pandas")
        .to_pandas()
    )
    bench = np.unique(parts["gram"].to_numpy(dtype=np.int64))
    bench_ref = ray.put(bench)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bench_ref)
        sel = batch[(batch["doc_id"] % mod) != rem]
        g, d = distinct_gram_doc_pairs(sel["text"], sel["doc_id"].to_numpy(), k)
        pos = np.searchsorted(b, g)
        hit = (pos < len(b)) & (b[np.minimum(pos, len(b) - 1)] == g) if len(b) else np.zeros(len(g), bool)
        d = d[hit]
        ids, counts = np.unique(d, return_counts=True)
        return pd.DataFrame({"doc_id": ids, "n_hit_grams": counts.astype(np.int64)})

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(probe, batch_format="pandas")
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if not batches:  # nothing contaminated: iter_batches can yield zero tables
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "n_hit_grams": pa.array([], pa.int64())}
        )
    return pa.concat_tables(batches).sort_by("doc_id").combine_chunks()
