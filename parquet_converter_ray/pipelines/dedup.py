"""Deduplication operators over the ``documents`` table.

 - exact:        content-hash -> hash-partitioned groupby -> keep min doc_id
                 (SQL-checkable: GROUP BY text / min(doc_id))
 - minhash_lsh:  batch-vectorized MinHash signatures -> banded LSH buckets
                 (explode to (band, hash) rows) -> candidate pairs enumerated
                 DISTRIBUTED inside ``groupby(bucket).map_groups`` -> exact
                 Jaccard verification via a hash-partitioned JOIN of the pair
                 dataset against the per-doc shingle dataset (no driver-side
                 document materialization anywhere)
 - simhash:      64-bit SimHash + 16-bit band blocking -> near-dup pairs by
                 Hamming distance
 - ngram_jaccard: character-n-gram Jaccard verification over LSH candidates
                 (same distributed join dataflow)
 - embedding:    exact cosine near-dup pairs over the embeddings table — the
                 all-pairs SQL-checkable baseline (broadcast matrix, O(n^2);
                 small-side only by design)
 - embedding_lsh: the scale path for embedding near-dup: L independent
                 random-hyperplane tables with Hamming<=2 bucket coverage via
                 neighbour-bucket emission; the exchange carries ONLY
                 (bucket, vec_id), candidate pairs are enumerated per bucket
                 group, and exact-cosine verification joins the vectors back
                 by vec_id. Recall vs the exact query is asserted >=90% in
                 tests (multi-table OR-construction; one table alone has
                 near-zero recall at cos ~ 0.5).
 - components:   connected components (min-label propagation) over the
                 LSH candidate pairs — subquadratic end-to-end.

Scale shape: signatures/shingles are computed per batch (one vectorized pass
across all docs of the batch — no per-doc Python), buckets shuffle only small
(key, id) rows — never the text/embedding payload — pair enumeration runs
inside ``map_groups`` on the bucket key (bounded by the per-bucket cap), and
verification attaches payloads by id: broadcast of the candidate-only payload
table below ``_BCAST_VERIFY_DOCS`` candidates (near-dup candidates are a
vanishing fraction of the corpus), two hash-partitioned ``Dataset.join``s
above it. Scoring is one vectorized lexsort/einsum kernel per batch — no
per-pair Python. Only final RESULTS (near-dup pair lists) are collected on
the driver.
MinHash/LSH per Broder 1997 / Leskovec-Rajaraman-Ullman MMDS ch.3; SimHash per
Charikar 2002 (public papers).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ._util import join_num_partitions, popcount64, read_parquet_clean, sql_round
from .text import (
    batch_char_ngrams,
    batch_token_shingles,
    grams_to_large_binary,
    hash_tokens,
)

_MERSENNE = np.uint64((1 << 61) - 1)


def _docs(sf_dir: str, columns=None) -> "ray.data.Dataset":
    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def _npartitions(lo: int = 2, hi: int = 64) -> int:
    """Join/shuffle partition count scaled to the cluster, not hardcoded."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(lo, min(hi, cpus))


_EMPTY_PAIRS = {
    "id_a": pa.array([], type=pa.int64()),
    "id_b": pa.array([], type=pa.int64()),
}


# --- exact dedup ------------------------------------------------------------

# siphash keys for the two independent 64-bit content hashes (128 bits total:
# 64-bit alone collides at billion-doc scale by the birthday bound)
_HK1 = "pcr-text-hash-k1"
_HK2 = "pcr-text-hash-k2"


def text_hash128(texts: "pd.Series") -> tuple[np.ndarray, np.ndarray]:
    """Two independent vectorized 64-bit content hashes per text (pandas
    siphash, fixed keys — process-independent, C-speed; replaces per-row md5).
    Nulls hash as empty strings."""
    vals = texts.fillna("").to_numpy(dtype=object)
    h1 = pd.util.hash_array(vals, hash_key=_HK1).view(np.int64)
    h2 = pd.util.hash_array(vals, hash_key=_HK2).view(np.int64)
    return h1, h2


def _keep_min_per_text(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id) dataset of exact-dedup survivors: hash-partitioned groupby on
    the 128-bit content hash keeps the smallest doc_id per distinct text."""

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        h1, h2 = text_hash128(batch["text"])
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(), "h1": h1, "h2": h2})

    keep = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(add_hash, batch_format="pandas")
        .groupby(["h1", "h2"])
        .min("doc_id")
    )
    return keep.map_batches(
        lambda t: pa.table({"doc_id": t["min(doc_id)"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


def dedup_exact(sf_dir: str) -> pa.Table:
    """Exact dedup: vectorized 128-bit content hash, then hash-partitioned
    groupby keeps the smallest doc_id per distinct text."""
    ds = _keep_min_per_text(sf_dir)
    out = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    return out.sort_by("doc_id").combine_chunks()


# --- MinHash signatures (batch-vectorized) ----------------------------------


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Per-doc token k-gram shingle hashes (reference implementation; the hot
    path uses ``batch_token_shingles`` which reproduces these sets exactly —
    parity is asserted in tests)."""
    from .text import rolling_gram_hashes

    ht = hash_tokens(text.lower().split())
    if len(ht) == 0:
        return np.zeros(1, dtype=np.uint64)
    return np.unique(rolling_gram_hashes(ht, k))


class MinHasher:
    """Batch stage: MinHash signatures for a whole batch in one vectorized
    pass (shingles via ``batch_token_shingles``, per-doc minima via
    ``np.minimum.reduceat`` over the concatenated gram array).

    The permutation coefficients (~1 KB) are built ONCE on the driver from a
    fixed seed and closure-shipped to tasks — the stateful-setup-once pattern
    without actor-pool spin-up (state this small never justifies actors)."""

    def __init__(self, m: int = 64, k: int = 3):
        rng = np.random.default_rng(12345)
        self.a = rng.integers(1, _MERSENNE, m, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, m, dtype=np.uint64)
        self.m = m
        self.k = k

    def signatures(self, texts: pd.Series) -> np.ndarray:
        grams, offsets = batch_token_shingles(texts, self.k)
        n = len(offsets) - 1
        out = np.empty((n, self.m), dtype=np.uint64)
        # slab over docs so the (grams x m) uint64 intermediate stays ~32 MB
        slab_grams = max(1, (4 << 20) // self.m)
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(offsets, offsets[lo] + slab_grams, side="right"))
            hi = min(max(hi, lo + 1), n)
            g = grams[offsets[lo] : offsets[hi]]
            v = (g[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
            out[lo:hi] = np.minimum.reduceat(v, offsets[lo:hi] - offsets[lo], axis=0)
            lo = hi
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = self.signatures(batch["text"])
        batch = batch[["doc_id"]].copy()
        batch["sig"] = list(sigs.astype("int64"))  # arrow list<int64>
        return batch


class MinHashBuckets(MinHasher):
    """MinHasher fused with the band-bucket explode: emits (key, doc_id)
    bucket rows directly as Arrow (no list column crosses a stage boundary,
    and Arrow block schemas keep Ray's schema dedup happy)."""

    def __init__(self, m: int = 64, k: int = 3, bands: int = 16, rows: int = 4):
        super().__init__(m=m, k=k)
        self.bands = bands
        self.rows = rows

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        sigs = self.signatures(batch["text"])
        bands, rows = self.bands, self.rows
        # bucket key = mix of band id and the band's signature rows, fully
        # vectorized over (docs x bands); collisions only add candidate pairs
        # (verified later), never lose true ones within a band
        s3 = sigs.reshape(len(sigs), bands, rows)
        acc = np.full((len(sigs), bands), 0x9E3779B97F4A7C15, dtype=np.uint64)
        for r in range(rows):
            acc = (acc ^ s3[:, :, r]) * np.uint64(0x100000001B3)
        acc = acc * np.uint64(bands) + np.arange(bands, dtype=np.uint64)[None, :]
        return pa.table(
            {
                "key": pa.array(acc.reshape(-1).astype(np.int64)),
                "doc_id": pa.array(np.repeat(batch["doc_id"].to_numpy(), bands)),
            }
        )


class ShingleSet:
    """Map stage: (doc_id, sh) where ``sh`` is the doc's sorted-unique shingle
    hash set packed as large_binary (the joinable wire format)."""

    def __init__(self, kind: str = "token", k: int = 3):
        self.kind = kind
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        if self.kind == "token":
            grams, offsets = batch_token_shingles(texts, self.k)
        else:
            grams, offsets = batch_char_ngrams(texts, self.k)
        return pa.table({"doc_id": batch["doc_id"], "sh": grams_to_large_binary(grams, offsets)})


def minhash_candidate_ds(
    sf_dir: str, bands: int = 16, rows: int = 4, m: int = 64, bucket_cap: int = 50
) -> "ray.data.Dataset":
    """LSH candidate pairs as a DATASET: signatures -> (band, hash) bucket
    keys -> pair enumeration inside ``map_groups`` on the bucket key.

    Pairs may repeat across bands (true near-dups agree on many bands);
    downstream verification is idempotent and the final result dedupes.
    """
    # (key, doc_id) pairs are tiny (16 ints/doc) — materialize so the two
    # consumers below don't re-execute the signature stage.
    # Task pool, not actor pool: the per-stage state (permutation tables,
    # ~1 KB) is built ONCE on the driver and closure-shipped, so tasks get the
    # stateful-setup-once property without paying actor spin-up latency —
    # measured 0.9 s vs 2.2-9.3 s for a (2-8)-actor pool on this stage.
    buckets = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            MinHashBuckets(m=m, bands=bands, rows=rows),
            batch_format="pandas", batch_size=1024,
        )
        .materialize()
    )

    # LSH guarantees hot buckets are rare, but the DISTINCT-key table the
    # hot-count merges is ~bands x n_docs rows — corpus-sized, so merging it
    # on the driver is bounded only by an assumption. Two paths (mirroring
    # _BCAST_VERIFY_DOCS): below _DRIVER_HOTCOUNT_ROWS bucket rows, per-batch
    # (key, count) partials merge on the driver (Ray's fixed groupby-exchange
    # overhead dwarfs this data size — measured 80s vs <1s at 80k rows);
    # above it, a distributed groupby(key).count() finds hot keys and an
    # inner join replaces the driver-broadcast is_in filter. Both paths are
    # asserted identical in tests (threshold forced to 0).
    n_bucket_rows = buckets.count()
    if n_bucket_rows > _DRIVER_HOTCOUNT_ROWS:
        hot_ds = (
            buckets.groupby("key")
            .count()
            .map_batches(
                lambda b: b.filter(pc.greater(b["count()"], 1)).select(["key"]),
                batch_format="pyarrow",
            )
        )
        filtered = buckets.join(
            hot_ds,
            join_type="inner",
            num_partitions=join_num_partitions(n_bucket_rows, rows_per_partition=100_000),
            on=("key",),
        )
    else:
        def key_counts(batch: pa.Table) -> pa.Table:
            k, c = np.unique(batch["key"].to_numpy(zero_copy_only=False), return_counts=True)
            return pa.table({"key": k, "cnt": c.astype(np.int64)})

        parts = pa.concat_tables(
            list(buckets.map_batches(key_counts, batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
        ).to_pandas()
        counts = parts.groupby("key", as_index=False)["cnt"].sum()
        hot = counts[counts["cnt"] > 1]["key"]
        if len(hot) == 0:
            return ray.data.from_arrow(pa.table(_EMPTY_PAIRS))
        hot_arr = pa.array(hot.to_numpy(), type=pa.int64())

        def only_hot(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["key"], value_set=hot_arr))

        filtered = buckets.map_batches(only_hot, batch_format="pyarrow")

    def pairs_of(group: pd.DataFrame) -> pd.DataFrame:
        # per-bucket pair enumeration, capped: LSH bucket sizes are bounded by
        # construction (band hash of `rows` signature values); the cap guards
        # degenerate buckets (e.g. all-empty docs)
        ids = np.sort(group["doc_id"].unique())[:bucket_cap]
        if len(ids) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
        ii, jj = np.triu_indices(len(ids), 1)
        return pd.DataFrame({"id_a": ids[ii].astype("int64"), "id_b": ids[jj].astype("int64")})

    return filtered.groupby("key").map_groups(pairs_of, batch_format="pandas")


# --- packed-payload flat views + vectorized pair scoring ---------------------

# Broadcast-verify doc-count threshold: below it the candidate payload set
# (shingle sets / embeddings of docs that appear in ANY candidate pair — a
# vanishing fraction of the corpus by LSH construction) is collected once and
# broadcast via ray.put; above it verification switches to the hash-partitioned
# Dataset.join dataflow (the at-scale path — same outputs, higher constant).
_BCAST_VERIFY_DOCS = 200_000

# Hot-bucket count threshold for minhash_candidate_ds, in (key, doc) bucket
# rows (= bands x n_docs): below it the distinct-key count merges on the
# driver (fast at sandbox scale); above it a distributed groupby(key).count()
# + inner join keeps driver state flat at 100 TB. Both paths byte-identical
# (tested by forcing this to 0).
_DRIVER_HOTCOUNT_ROWS = 20_000_000


def _flat_packed(col, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-copy element views into a large_binary column: (data, starts,
    lens) where element i is ``data[starts[i] : starts[i] + lens[i]]``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    bufs = col.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64)[col.offset : col.offset + len(col) + 1]
    itemsize = np.dtype(dtype).itemsize
    data = np.frombuffer(bufs[2], dtype=dtype)
    return data, off[:-1] // itemsize, (off[1:] - off[:-1]) // itemsize


def _gather_flat(data: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate the per-element slices into one flat array (one gather)."""
    tot = int(lens.sum())
    if tot == 0:
        return np.zeros(0, dtype=data.dtype)
    out_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    idx = np.repeat(starts - out_starts, lens) + np.arange(tot)
    return data[idx]


def _jaccard_flat(da, sta, la, db, stb, lb) -> np.ndarray:
    """Exact Jaccard per pair over sorted-unique uint64 sets given as flat
    slice views — fully vectorized: both sides tagged with their pair id,
    lexsorted once; because values are unique WITHIN a side, an adjacent
    duplicate after the sort is exactly one cross-side match."""
    n = len(la)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    fa = _gather_flat(da, sta, la)
    fb = _gather_flat(db, stb, lb)
    pid = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la),
                          np.repeat(np.arange(n, dtype=np.int64), lb)])
    vals = np.concatenate([fa, fb])
    order = np.lexsort((vals, pid))
    p, v = pid[order], vals[order]
    if len(p):
        dup = (p[1:] == p[:-1]) & (v[1:] == v[:-1])
        inter = np.bincount(p[1:][dup], minlength=n)
    else:
        inter = np.zeros(n, dtype=np.int64)
    union = la + lb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def _cosine_flat(da, sta, la, db, stb, lb) -> np.ndarray:
    """Cosine per pair over packed float64 vectors given as flat slice views
    (fixed dim per side) — one gather + one row-wise einsum."""
    n = len(la)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    A = _gather_flat(da, sta, la).reshape(n, -1)
    B = _gather_flat(db, stb, lb).reshape(n, -1)
    A = A / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-12)
    B = B / np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-12)
    return np.einsum("ij,ij->i", A, B)


def _candidate_ids(pairs: "ray.data.Dataset") -> "pa.Array":
    """Distinct doc ids appearing in any candidate pair (small by LSH
    construction — only docs sharing a bucket with another doc)."""
    import pyarrow.compute as pc

    id_parts = pairs.map_batches(
        lambda b: pa.table({"doc_id": pa.concat_arrays(
            [b["id_a"].combine_chunks(), b["id_b"].combine_chunks()]
        ).unique()}),
        batch_format="pyarrow",
    )
    cand_ids = pa.concat_tables(list(id_parts.iter_batches(batch_format="pyarrow")))
    return pc.unique(cand_ids["doc_id"].combine_chunks())


def _verify_pairs(
    pairs: "ray.data.Dataset",
    payload: "ray.data.Dataset",
    cand_arr: "pa.Array",
    n_pairs: int,
    score_flat,
    score_col: str,
    threshold: float,
    round_fn,
    filter_raw: bool = False,
) -> pd.DataFrame:
    """Attach each candidate pair's payloads (large_binary column ``pay`` in
    ``payload``, filtered to candidate ids) and score with ``score_flat``.

    ``filter_raw=True`` thresholds the unrounded score (cosine semantics);
    False thresholds the rounded score (Jaccard semantics).

    Small candidate sets broadcast the payload table once (ray.put) and score
    inside ``map_batches``; large ones verify via two hash-partitioned
    ``Dataset.join``s — identical outputs, join constant only paid at scale.
    """

    def to_frame(ia, ib, s) -> pd.DataFrame:
        out = pd.DataFrame({"id_a": ia.astype("int64"), "id_b": ib.astype("int64"),
                            score_col: round_fn(s)})
        keep = s >= threshold if filter_raw else out[score_col] >= threshold
        return out[keep]

    if len(cand_arr) <= _BCAST_VERIFY_DOCS:
        tbl = pa.concat_tables(list(payload.iter_batches(batch_format="pyarrow"))).combine_chunks()
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        data, starts, lens = _flat_packed(tbl["pay"], np.uint8)
        ref = ray.put((ids[order], data, starts[order], lens[order]))

        def score(batch: pa.Table) -> pd.DataFrame:
            ids_s, data_s, starts_s, lens_s = ray.get(ref)
            ia = batch["id_a"].to_numpy(zero_copy_only=False)
            ib = batch["id_b"].to_numpy(zero_copy_only=False)
            pa_pos = np.searchsorted(ids_s, ia)
            pb_pos = np.searchsorted(ids_s, ib)
            s = score_flat(data_s, starts_s[pa_pos], lens_s[pa_pos],
                           data_s, starts_s[pb_pos], lens_s[pb_pos])
            return to_frame(ia, ib, s)

        scored = pairs.map_batches(score, batch_format="pyarrow")
    else:
        n_out = join_num_partitions(n_pairs)
        j = pairs.join(payload, join_type="inner", num_partitions=n_out, on=("id_a",), right_on=("doc_id",))

        def rename_a(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["pay_a" if c == "pay" else c for c in batch.column_names])

        j = j.map_batches(rename_a, batch_format="pyarrow")
        j = j.join(payload, join_type="inner", num_partitions=n_out, on=("id_b",), right_on=("doc_id",))

        def score_join(batch: pa.Table) -> pd.DataFrame:
            ia = batch["id_a"].to_numpy(zero_copy_only=False)
            ib = batch["id_b"].to_numpy(zero_copy_only=False)
            da, sta, la = _flat_packed(batch["pay_a"], np.uint8)
            db, stb, lb = _flat_packed(batch["pay"], np.uint8)
            s = score_flat(da, sta, la, db, stb, lb)
            return to_frame(ia, ib, s)

        scored = j.map_batches(score_join, batch_format="pyarrow")
    return scored.to_pandas()


def _jaccard_u64(da, sta, la, db, stb, lb) -> np.ndarray:
    """uint8 byte views -> uint64 shingle views (8 bytes per gram)."""
    return _jaccard_flat(da.view(np.uint64) if da.dtype == np.uint8 else da,
                         sta // 8, la // 8,
                         db.view(np.uint64) if db.dtype == np.uint8 else db,
                         stb // 8, lb // 8)


def _cosine_f64(da, sta, la, db, stb, lb) -> np.ndarray:
    return _cosine_flat(da.view(np.float64) if da.dtype == np.uint8 else da,
                        sta // 8, la // 8,
                        db.view(np.float64) if db.dtype == np.uint8 else db,
                        stb // 8, lb // 8)


# --- distributed pair verification (no corpus-sized driver state) -------------


def _verified_pairs(
    sf_dir: str, kind: str, k: int, score_col: str, threshold: float
) -> pa.Table:
    """MinHash-LSH candidates -> exact Jaccard verification -> filter.

    The shingle dataset streams from the documents table restricted to
    candidate ids; verification is broadcast below ``_BCAST_VERIFY_DOCS``
    candidate docs and a hash-partitioned join dataflow above it.
    """
    empty = pa.table({**_EMPTY_PAIRS, score_col: pa.array([], type=pa.float64())})
    pairs = minhash_candidate_ds(sf_dir).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return empty
    import pyarrow.compute as pc

    cand_arr = _candidate_ids(pairs)
    cand_ref = ray.put(cand_arr)

    def only_candidates(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["doc_id"], value_set=ray.get(cand_ref)))

    sh = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(only_candidates, batch_format="pyarrow")
        .map_batches(ShingleSet(kind=kind, k=k), batch_format="pyarrow")
        .map_batches(lambda t: t.rename_columns(["doc_id", "pay"]), batch_format="pyarrow")
    )
    if len(cand_arr) > _BCAST_VERIFY_DOCS:
        sh = sh.materialize()  # two join consumers
    out = _verify_pairs(
        pairs, sh, cand_arr, n_pairs, _jaccard_u64, score_col, threshold,
        round_fn=lambda s: np.round(s, 4),
    )
    if len(out) == 0:
        return empty
    out = out.drop_duplicates(subset=["id_a", "id_b"]).sort_values(["id_a", "id_b"])
    return pa.Table.from_pandas(out, preserve_index=False)


def dedup_minhash(sf_dir: str, threshold: float = 0.7) -> pa.Table:
    """MinHash-LSH near-dup pairs with exact-Jaccard verification (distributed
    join dataflow — no full-table driver materialization)."""
    return _verified_pairs(sf_dir, kind="token", k=3, score_col="jaccard", threshold=threshold)


def dedup_ngram_jaccard(sf_dir: str, threshold: float = 0.5) -> pa.Table:
    """Character-4-gram Jaccard over MinHash-LSH candidates (distributed)."""
    return _verified_pairs(sf_dir, kind="char", k=4, score_col="jaccard_char", threshold=threshold)


def _char_ngrams(text: str, n: int = 4) -> np.ndarray:
    """Per-doc char n-gram hashes (reference implementation for parity tests;
    the pipeline uses ``batch_char_ngrams``)."""
    from .text import rolling_gram_hashes

    t = text.lower()
    if not t:
        return np.zeros(1, dtype=np.uint64)
    cps = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    return np.unique(rolling_gram_hashes(cps, min(n, len(cps))))


# --- SimHash ----------------------------------------------------------------


class SimHasher:
    """64-bit SimHash per doc (Charikar 2002, public): sign of the sum of
    ±1 bit-vectors of token hashes — batch-vectorized (flat token hashing +
    per-doc reduceat). Driver-constructed, closure-shipped to tasks."""

    def __init__(self):
        self.shifts = np.arange(64, dtype=np.uint64)

    def simhashes(self, texts: pd.Series) -> np.ndarray:
        import itertools

        toks = texts.fillna("").str.lower().str.split()
        lens = toks.map(len).to_numpy(dtype=np.int64)
        flat = list(itertools.chain.from_iterable(toks))
        hs = hash_tokens(flat)
        n = len(lens)
        out = np.zeros(n, dtype=np.uint64)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        # slab over docs: (tokens x 64) int32 intermediate stays ~32 MB
        slab_tok = 128 << 10
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(offsets, offsets[lo] + slab_tok, side="right"))
            hi = min(max(hi, lo + 1), n)
            h = hs[offsets[lo] : offsets[hi]]
            if len(h):
                bits = ((h[:, None] >> self.shifts[None, :]) & np.uint64(1)).astype(np.int32)
                pm = 2 * bits - 1
                nz = lens[lo:hi] > 0
                starts = (offsets[lo:hi] - offsets[lo])[nz]
                acc = np.add.reduceat(pm, starts, axis=0)
                sums = np.zeros((hi - lo, 64), dtype=np.int64)
                sums[nz] = acc
                out[lo:hi] = ((sums > 0).astype(np.uint64) << self.shifts[None, :]).sum(axis=1)
            lo = hi
        return out

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        """Emit the banded blocking rows directly (Arrow): 4 x 16-bit bands."""
        h = self.simhashes(batch["text"])
        n = len(h)
        bands = np.repeat(np.arange(4, dtype=np.int64), n)
        keys = np.concatenate(
            [((h >> np.uint64(b * 16)) & np.uint64(0xFFFF)).astype(np.int64) for b in range(4)]
        )
        return pa.table(
            {
                "band": pa.array(bands),
                "key": pa.array(keys),
                "doc_id": pa.array(np.tile(batch["doc_id"].to_numpy(), 4)),
                "simhash": pa.array(np.tile(h.astype(np.int64), 4)),
            }
        )


def dedup_simhash(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """SimHash near-dup pairs: block on each of four 16-bit bands (a pair
    within Hamming<=3 of a 64-bit hash must agree on >=1 of 4 bands)."""
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        SimHasher(), batch_format="pandas", batch_size=1024
    )

    def pairs_of(group: pd.DataFrame) -> pd.DataFrame:
        # FULL bucket, chunked: hot buckets (many near-identical docs — the
        # dedup-relevant case) must not drop candidates, so instead of a row
        # cap the pairwise XOR runs in CH-row strips (CH x n uint64 working
        # set, bounded memory at any bucket size). Vectorized LUT popcount.
        g = group.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.uint64)
        n = len(ids)
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
             "hamming": pd.Series(dtype="int64")}
        )
        if n < 2:
            return empty
        CH = 1024
        a, b, d = [], [], []
        for s in range(0, n, CH):
            e = min(s + CH, n)
            ham = popcount64(hs[s:e, None] ^ hs[None, s:])
            ii, jj = np.nonzero((ham <= max_hamming) & (ids[s:e, None] < ids[None, s:]))
            a.append(ids[s:e][ii]); b.append(ids[s:][jj]); d.append(ham[ii, jj])
        a = np.concatenate(a)
        if len(a) == 0:
            return empty
        return pd.DataFrame(
            {"id_a": a.astype("int64"), "id_b": np.concatenate(b).astype("int64"),
             "hamming": np.concatenate(d).astype("int64")}
        )

    out = (
        ds.groupby(["band", "key"])
        .map_groups(pairs_of, batch_format="pandas")
        .to_pandas()
    )
    out = out.drop_duplicates(subset=["id_a", "id_b"]).sort_values(["id_a", "id_b"])
    out["hamming"] = out["hamming"].astype("int64") if len(out) else out.get("hamming", pd.Series(dtype="int64"))
    return pa.Table.from_pandas(out, preserve_index=False)


# --- embedding cosine near-dup ----------------------------------------------


def dedup_embedding(sf_dir: str, threshold: float = 0.45) -> pa.Table:
    """EXACT cosine near-dup pairs — the all-pairs oracle baseline: stream the
    (small-side) embedding matrix into one broadcast object, each batch
    computes its rows x all-rows block of the upper triangle. O(n^2) by
    definition; ``dedup_embedding_lsh`` is the subquadratic scale path (its
    recall vs this query is asserted >=90% in tests)."""
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids_parts, mat_parts = [], []
    for b in emb.iter_batches(batch_format="pandas"):
        ids_parts.append(b["vec_id"].to_numpy())
        mat_parts.append(np.stack(b["embedding"].to_numpy()).astype(np.float64))
    ids = np.concatenate(ids_parts)
    order = np.argsort(ids)
    ids = ids[order]
    mat = np.concatenate(mat_parts)[order]
    matn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, matn))

    def block(batch: pd.DataFrame) -> pd.DataFrame:
        aids, am = ray.get(ref)
        bids = batch["vec_id"].to_numpy()
        bm = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        bm = bm / np.maximum(np.linalg.norm(bm, axis=1, keepdims=True), 1e-12)
        cos = bm @ am.T
        ii, jj = np.nonzero(cos >= threshold)
        mask = bids[ii] < aids[jj]  # upper triangle, no self
        return pd.DataFrame(
            {
                "id_a": bids[ii][mask].astype("int64"),
                "id_b": aids[jj][mask].astype("int64"),
                "cos": sql_round(cos[ii, jj][mask], 4),
            }
        )

    out = emb.map_batches(block, batch_format="pandas").to_pandas()
    if len(out) == 0 or "id_a" not in out.columns:
        return pa.table({**_EMPTY_PAIRS, "cos": pa.array([], type=pa.float64())})
    out = out.sort_values(["id_a", "id_b"])
    return pa.Table.from_pandas(out, preserve_index=False)


class MultiTableLsh:
    """Batch stage (driver-constructed, closure-shipped to tasks):
    random-hyperplane sign buckets under L INDEPENDENT
    plane sets (OR-construction), plus Hamming-1 neighbour-bucket emission.

    Two vectors meet in some group iff their sign patterns under one table
    differ in <=2 planes (each emits its own bucket + all 1-flip neighbours,
    so dH<=2 pairs share an intermediate bucket) — the per-table catch
    probability at cos 0.45 (plane-agreement p = 1 - theta/pi ~ 0.65) is
    ~0.65 vs ~0.08 for the single exact-bucket table that round 1 shipped
    (which found 0/14 known pairs); L=6 tables push recall past 0.998."""

    def __init__(self, dim: int = 64, n_planes: int = 6, n_tables: int = 6, seed: int = 777):
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(0, 1, (n_tables, dim, n_planes))
        self.n_planes = n_planes
        self.n_tables = n_tables

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        """Emit ONLY (bucket, vec_id) — the exchange never carries the
        embedding payload (it would be replicated (n_planes+1) x n_tables =
        42x through the shuffle on the dataset's heaviest column); candidate
        verification joins vectors back by vec_id instead."""
        m = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        ids = batch["vec_id"].to_numpy()
        pow2 = 1 << np.arange(self.n_planes)
        bks, vids = [], []
        for t in range(self.n_tables):
            signs = (m @ self.planes[t]) > 0
            base = signs @ pow2  # (n,)
            # emit own bucket + every Hamming-1 neighbour (dH<=2 coverage)
            buckets = np.concatenate([base[:, None], base[:, None] ^ pow2[None, :]], axis=1)
            nb = buckets.shape[1]
            bks.append((np.int64(t) << np.int64(32)) | buckets.reshape(-1).astype(np.int64))
            vids.append(np.repeat(ids, nb))
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(bks), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(vids), type=pa.int64()),
            }
        )


def dedup_embedding_lsh(
    sf_dir: str,
    threshold: float = 0.45,
    n_planes: int = 6,
    n_tables: int = 6,
    bucket_cap: int = 2000,
) -> pa.Table:
    """LSH-bucketed cosine near-dup — the subquadratic scale path for
    ``dedup_embedding``: multi-table OR-construction with Hamming<=2 bucket
    coverage; the exchange carries ONLY (bucket, vec_id) rows, candidate pairs
    are enumerated inside each bucket group, and exact-cosine verification
    joins the vectors back by vec_id (broadcast below ``_BCAST_VERIFY_DOCS``
    candidates, hash-partitioned Dataset.join above — same dataflow as the
    MinHash verification). Recall >=90% of the exact query's pairs is asserted
    in tests. At scale, raise n_planes (finer buckets) with n_tables to hold
    recall."""
    empty = pa.table({**_EMPTY_PAIRS, "cos": pa.array([], type=pa.float64())})
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    buckets = emb.map_batches(
        MultiTableLsh(n_planes=n_planes, n_tables=n_tables),
        batch_format="pandas", batch_size=4096,
    )

    def pairs_of(group: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(group["vec_id"].unique())[:bucket_cap]
        if len(ids) < 2:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")})
        ii, jj = np.triu_indices(len(ids), 1)
        return pd.DataFrame({"id_a": ids[ii].astype("int64"), "id_b": ids[jj].astype("int64")})

    pairs = buckets.groupby("bucket").map_groups(pairs_of, batch_format="pandas").materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return empty
    import pyarrow.compute as pc

    cand_arr = _candidate_ids(pairs)
    cand_ref = ray.put(cand_arr)

    def pack_vectors(batch: pd.DataFrame) -> pa.Table:
        """(vec_id, pay) with the float64 vector packed as large_binary —
        the joinable wire format (Acero joins reject list payload columns)."""
        keep = np.isin(batch["vec_id"].to_numpy(), ray.get(cand_ref).to_numpy(zero_copy_only=False))
        b = batch[keep]
        if len(b) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "pay": pa.array([], type=pa.large_binary())})
        m = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        flat = np.ascontiguousarray(m).reshape(-1)
        offs = (np.arange(len(b) + 1, dtype=np.int64) * m.shape[1] * 8)
        pay = pa.Array.from_buffers(pa.large_binary(), len(b),
                                    [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(flat.tobytes())])
        return pa.table({"doc_id": pa.array(b["vec_id"].to_numpy(), type=pa.int64()), "pay": pay})

    vecs = emb.map_batches(pack_vectors, batch_format="pandas")
    if len(cand_arr) > _BCAST_VERIFY_DOCS:
        vecs = vecs.materialize()
    out = _verify_pairs(
        pairs, vecs, cand_arr, n_pairs, _cosine_f64, "cos", threshold,
        round_fn=lambda s: sql_round(s, 4), filter_raw=True,
    )
    if len(out) == 0:
        return empty
    out = out.drop_duplicates(subset=["id_a", "id_b"]).sort_values(["id_a", "id_b"])
    return pa.Table.from_pandas(out, preserve_index=False)


# --- near-dup clusters: distributed connected components ---------------------


def dedup_components(sf_dir: str, threshold: float = 0.45, max_rounds: int = 16) -> pa.Table:
    """Connected components over the embedding near-dup graph: every vector in
    a near-dup pair gets the MINIMUM vec_id of its component as canonical_id —
    the "keep one representative per duplicate cluster" step after pair
    generation.

    Distributed iterative min-label propagation (the hash-partitioned BSP
    shape that scales to 10^12-edge graphs): labels start as each node's own
    id; each round joins labels to the (bidirectional) edge list, propagates
    the neighbour minimum, and re-aggregates per node; converges in
    O(graph diameter) rounds, checked with a distributed changed-count, and
    RAISES if ``max_rounds`` is exhausted unconverged (silently returning
    partial labels would diverge from the transitive-closure contract).
    Oracle: recursive CTE transitive closure + min(reach) in DuckDB.

    Pair generation is the subquadratic ``dedup_embedding_lsh`` candidate
    path (NOT the O(n^2) exact query, which stays only as the oracle baseline
    and recall reference).
    """
    pairs = dedup_embedding_lsh(sf_dir, threshold)
    return label_propagation(pairs, max_rounds=max_rounds)


def label_propagation(pairs: pa.Table, max_rounds: int = 16) -> pa.Table:
    """Min-label propagation over an (id_a, id_b) pair table — the distributed
    BSP core of ``dedup_components`` (separated so the convergence contract is
    testable without the LSH front end)."""
    empty = pa.table(
        {"vec_id": pa.array([], type=pa.int64()), "canonical_id": pa.array([], type=pa.int64())}
    )
    if pairs.num_rows == 0:
        return empty
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    a = pairs["id_a"].to_numpy()
    b = pairs["id_b"].to_numpy()
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )
    ).materialize()
    nodes = np.unique(np.concatenate([a, b]))
    labels = ray.data.from_arrow(
        pa.table({"id": pa.array(nodes, type=pa.int64()), "label": pa.array(nodes, type=pa.int64())})
    ).materialize()
    n_out = join_num_partitions(len(nodes))
    for _ in range(max_rounds):
        # neighbour labels: edges ⋈ labels on src -> (dst, label-of-src)
        prop = edges.join(labels, join_type="inner", num_partitions=n_out, on=("src",), right_on=("id",))

        def to_candidate(batch: pa.Table) -> pa.Table:
            return pa.table({"id": batch["dst"], "label": batch["label"]})

        candidates = prop.map_batches(to_candidate, batch_format="pyarrow").union(labels)
        new_labels = candidates.groupby("id").min("label")

        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["id", "label"])

        new_labels = new_labels.map_batches(rename, batch_format="pyarrow")

        # pointer jumping: label <- label(label). Labels are always node ids
        # (min over a set that includes self), so the self-join is total, and
        # label(y) <= y (min-propagation invariant) keeps the shortcut
        # monotone — same fixpoint, but remaining chain depth roughly HALVES
        # every round: convergence in O(log diameter) rounds instead of
        # O(diameter) (ADVICE round 2).
        lmap = new_labels.map_batches(
            lambda t: t.rename_columns(["lid", "llabel"]), batch_format="pyarrow"
        )
        jumped = new_labels.join(
            lmap, join_type="inner", num_partitions=n_out, on=("label",), right_on=("lid",)
        )

        def shortcut(batch: pa.Table) -> pa.Table:
            return pa.table({"id": batch["id"], "label": batch["llabel"]})

        new_labels = jumped.map_batches(shortcut, batch_format="pyarrow").materialize()
        # distributed fixpoint check: any node whose label shrank this round?
        joined = new_labels.join(
            labels.map_batches(
                lambda t: t.rename_columns(["id", "old_label"]), batch_format="pyarrow"
            ),
            join_type="inner", num_partitions=n_out, on=("id",), right_on=("id",),
        )

        def changed(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            n = pc.sum(pc.cast(pc.not_equal(batch["label"], batch["old_label"]), pa.int64())).as_py() or 0
            return pa.table({"n": pa.array([n], type=pa.int64())})

        n_changed = sum(r["n"] for r in joined.map_batches(changed, batch_format="pyarrow").take_all())
        labels = new_labels
        if n_changed == 0:
            break
    else:
        raise RuntimeError(
            f"dedup_components did not converge in {max_rounds} rounds "
            f"({n_changed} labels still changing): the duplicate-cluster graph "
            f"has diameter > {max_rounds}. Re-run with a larger max_rounds."
        )
    out = pa.concat_tables(list(labels.iter_batches(batch_format="pyarrow")))
    out = out.rename_columns(["vec_id", "canonical_id"]).sort_by("vec_id")
    return out.combine_chunks()


# --- cross-document duplicate-span detection (substring-level dedup) ---------


def dedup_substring(sf_dir: str, w: int = 16) -> pa.Table:
    """Duplicate-span detection: for every document, count the distinct
    ``w``-token windows that also occur in at least one OTHER document — the
    hashed-window approximation of suffix-array substring dedup (Lee et al.,
    "Deduplicating Training Data Makes Language Models Better", ACL'22;
    exact suffix arrays don't distribute, rolling-hash windows do).
    Returns (doc_id, n_dup_spans) for docs with at least one duplicated span.

    Scale shape — no corpus-sized driver or broadcast state:
      1. map_batches emits distinct (gram, doc_id) pairs per doc (each doc is
         one row, so per-batch dedup IS global dedup for the pair set);
      2. one hash-partitioned groupby(gram).count() finds window hashes with
         >= 2 docs (pairs are distinct, so count == distinct-doc count);
      3. pairs ⋈ dup-grams on gram (both sides partitioned on gram);
      4. groupby(doc_id).count() gives the per-doc duplicated-span count.
    Window hashes are 64-bit; a cross-window collision would need ~2^32
    windows in one doc to matter (documented approximation)."""
    from .text import distinct_gram_doc_pairs

    def pairs_batch(batch: pa.Table) -> pa.Table:
        # pyarrow in/out: a pandas-format return would stamp pandas metadata
        # on the schema and defeat Ray's schema-dedup in the exchange
        g, d = distinct_gram_doc_pairs(
            batch["text"].to_pandas(), batch["doc_id"].to_numpy(zero_copy_only=False), w
        )
        return pa.table({"gram": g, "doc_id": d})

    pairs = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(pairs_batch, batch_format="pyarrow")
        .materialize()
    )
    n_pairs = pairs.count()
    if n_pairs == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()), "n_dup_spans": pa.array([], pa.int64())})

    dup_grams = (
        pairs.groupby("gram")
        .count()
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["count()"], 2)).select(["gram"]).rename_columns(["dgram"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    # partition count sized to the SMALL side: Ray's hash join crashes when a
    # partition gets no rows of one side (Acero: "No match ... FieldRef")
    n_dup = dup_grams.count()
    if n_dup == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()), "n_dup_spans": pa.array([], pa.int64())})

    bcast_max = int(os.environ.get("PCR_BCAST_DUPGRAMS", "2000000"))
    if n_dup <= bcast_max:
        # fast path: the duplicated-window set is bounded-small (it is the
        # OVERLAP, not the corpus) — broadcast it once and count hits per
        # pairs block (a doc's pairs are contiguous within a block, so block
        # partials only need a cheap driver-side sum to absorb block splits).
        # The join path below is the at-scale dataflow; tests force the
        # threshold to 0 and assert byte-identical output.
        dup_arr = np.sort(
            pa.concat_tables(list(dup_grams.iter_batches(batch_format="pyarrow")))["dgram"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dup_ref = ray.put(dup_arr)

        def count_hits(batch: pa.Table) -> pa.Table:
            dup = ray.get(dup_ref)
            g = batch["gram"].to_numpy(zero_copy_only=False)
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(dup, g)
            hit = (pos < len(dup)) & (dup[np.minimum(pos, len(dup) - 1)] == g)
            ids, counts = np.unique(d[hit], return_counts=True)
            return pa.table(
                {"doc_id": ids.astype(np.int64), "n_dup_spans": counts.astype(np.int64)}
            )

        parts = pa.concat_tables(
            list(
                pairs.map_batches(count_hits, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
            )
        )
        out = (
            parts.to_pandas()
            .groupby("doc_id", as_index=False)["n_dup_spans"]
            .sum()
            .sort_values("doc_id")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    hits = pairs.join(
        dup_grams,
        join_type="inner",
        num_partitions=join_num_partitions(n_dup, lo=1),
        on=("gram",),
        right_on=("dgram",),
    )
    out = (
        hits.groupby("doc_id")
        .count()
        .map_batches(
            lambda t: t.rename_columns(["doc_id", "n_dup_spans"]),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    out["n_dup_spans"] = out["n_dup_spans"].astype("int64")
    return pa.Table.from_pandas(out.sort_values("doc_id"), preserve_index=False)


# --- incremental dedup (new batch vs an existing corpus) ----------------------


def dedup_incremental(sf_dir: str, threshold_id: int | None = None) -> pa.Table:
    """Incremental exact dedup: which documents of a NEW batch already exist
    (by exact text) in the ALREADY-INGESTED corpus — the append-mode shape of
    a continuously-fed training pipeline, where re-deduplicating the whole
    corpus per delivery is not an option. Here the 'existing' corpus is the
    first half by doc_id (``doc_id < total // 2``) and the 'new' batch is the
    rest. Returns the new doc_ids to DROP, sorted.

    Scale shape: both sides reduce to (h1, h2[, doc_id]) rows via the
    vectorized 128-bit content hash; the seen side is collapsed to DISTINCT
    hash keys by a hash-partitioned groupby (so the join emits each new doc at
    most once — no post-join distinct), then one hash-partitioned inner join.
    No corpus-sized broadcast or driver state; nulls hash as empty strings on
    both sides (oracle uses coalesce(text, ''))."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    total = pq.read_metadata(path).num_rows
    t = total // 2 if threshold_id is None else threshold_id

    def hashes(lo: int | None, hi: int | None):
        def f(batch: pd.DataFrame) -> pa.Table:
            ids = batch["doc_id"].to_numpy()
            m = np.ones(len(ids), bool)
            if lo is not None:
                m &= ids >= lo
            if hi is not None:
                m &= ids < hi
            sel = batch[m]
            h1, h2 = text_hash128(sel["text"])
            return pa.table({"doc_id": sel["doc_id"].to_numpy(), "h1": h1, "h2": h2})

        return read_parquet_clean(path, columns=["doc_id", "text"]).map_batches(
            f, batch_format="pandas"
        )

    seen_keys = (
        hashes(None, t)
        .groupby(["h1", "h2"])
        .min("doc_id")
        .map_batches(
            lambda b: b.select(["h1", "h2"]).rename_columns(["s1", "s2"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_seen = seen_keys.count()
    if n_seen == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    dup_new = hashes(t, None).join(
        seen_keys,
        join_type="inner",
        num_partitions=join_num_partitions(n_seen, lo=1),
        on=("h1", "h2"),
        right_on=("s1", "s2"),
    )
    batches = list(dup_new.select_columns(["doc_id"]).iter_batches(batch_format="pyarrow"))
    if not batches:  # no duplicates: iter_batches can yield zero tables
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return pa.concat_tables(batches).sort_by("doc_id").combine_chunks()


def _ld_le1(a: str, b: str) -> int:
    """Exact Levenshtein distance capped at 1 (-1 = more than 1) without the
    DP table: equal -> 0; same length -> at most one substitution; length
    diff 1 -> one-gap alignment; anything else -> -1."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == lb:
        return 1 if sum(x != y for x, y in zip(a, b)) == 1 else -1
    if abs(la - lb) != 1:
        return -1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is shorter by one: skip the single mismatch position in b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else -1


def _name_counts(sf_dir: str) -> "ray.data.Dataset":
    """Distinct (p_name, c) via one hash aggregate — the distinct-value
    collapse that keeps every pairwise stage vocabulary-sized on
    duplicate-heavy key columns."""
    ds = read_parquet_clean(f"{sf_dir}/part.parquet", columns=["p_name"])

    def name_counts(batch: pa.Table) -> pd.DataFrame:
        vc = batch["p_name"].to_pandas().fillna("").value_counts()
        return pd.DataFrame({"p_name": vc.index.to_numpy(dtype=object), "c": vc.to_numpy()})

    return (
        ds.map_batches(name_counts, batch_format="pyarrow").groupby("p_name").sum("c")
    ).map_batches(
        lambda t: pa.table({"p_name": t["p_name"], "c": t["sum(c)"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


def _ld1_pairs(distinct: "ray.data.Dataset") -> "ray.data.Dataset":
    """Verified Levenshtein==1 pairs over a distinct (p_name, c) dataset:
    FastSS deletion-neighborhood blocking (Bocek et al. 2007; replication
    bounded by key LENGTH), per-block candidate enumeration, cross-block
    distinct-pair aggregate, capped-LD verification. Output columns
    (name_a < name_b, c_a, c_b)."""

    def block_keys(batch: pa.Table) -> pa.Table:
        names = batch["p_name"].to_pylist()
        cs = batch["c"].to_numpy(zero_copy_only=False)
        out_key, out_name, out_c = [], [], []
        for nm, c in zip(names, cs):
            for k in [nm] + [nm[:i] + nm[i + 1 :] for i in range(len(nm))]:
                out_key.append(k)
                out_name.append(nm)
                out_c.append(c)
        return pa.table(
            {
                "key": pa.array(out_key, pa.string()),
                "p_name": pa.array(out_name, pa.string()),
                "c": pa.array(out_c, pa.int64()),
            }
        )

    def pairs_in_block(g: pa.Table) -> pa.Table:
        names = g["p_name"].to_pylist()
        cs = g["c"].to_numpy(zero_copy_only=False)
        order = sorted(range(len(names)), key=lambda i: names[i])
        na, nb, ca, cb = [], [], [], []
        for x in range(len(order)):
            for y in range(x + 1, len(order)):
                i, j = order[x], order[y]
                if names[i] != names[j]:
                    na.append(names[i])
                    nb.append(names[j])
                    ca.append(cs[i])
                    cb.append(cs[j])
        return pa.table(
            {
                "name_a": pa.array(na, pa.string()),
                "name_b": pa.array(nb, pa.string()),
                "c_a": pa.array(ca, pa.int64()),
                "c_b": pa.array(cb, pa.int64()),
            }
        )

    def verify(batch: pa.Table) -> pa.Table:
        names_a = batch["name_a"].to_pylist()
        names_b = batch["name_b"].to_pylist()
        dist = np.fromiter(
            (_ld_le1(a, b) for a, b in zip(names_a, names_b)),
            dtype=np.int64,
            count=batch.num_rows,
        )
        out = pa.table(
            {
                "name_a": batch["name_a"],
                "name_b": batch["name_b"],
                "c_a": batch["min(c_a)"],
                "c_b": batch["min(c_b)"],
            }
        )
        return out.filter(pa.array(dist == 1))

    return (
        distinct.map_batches(block_keys, batch_format="pyarrow")
        .groupby("key")
        .map_groups(pairs_in_block, batch_format="pyarrow")
        .groupby(["name_a", "name_b"])
        .min(["c_a", "c_b"])  # native dedup across blocks (counts identical per pair)
        .map_batches(verify, batch_format="pyarrow")
    )


def fuzzy_name_pairs(sf_dir: str) -> pa.Table:
    """Edit-distance join: unordered part pairs with Levenshtein(p_name) <= 1,
    reported as (distance, n_pairs) — fuzzy KEY matching, the complement of
    the long-text near-dup family (MinHash/SimHash); use those for document
    bodies, this for short identifier-like strings.

    Two collapses before anything pairwise: the distinct-value collapse
    (``_name_counts`` — identical-name pairs become C(count, 2) arithmetic,
    cross-name pairs count_a x count_b, never enumerated) and FastSS
    deletion blocking on the distinct names (``_ld1_pairs``)."""
    from ._util import finish_on_driver

    distinct = _name_counts(sf_dir)

    def one_partial(batch: pa.Table) -> pd.DataFrame:
        ca = batch["c_a"].to_numpy(zero_copy_only=False)
        cb = batch["c_b"].to_numpy(zero_copy_only=False)
        return pd.DataFrame({"distance": [1], "n_pairs": [int((ca * cb).sum())]})

    def zero_partial(batch: pa.Table) -> pd.DataFrame:
        c = batch["c"].to_numpy(zero_copy_only=False)
        return pd.DataFrame({"distance": [0], "n_pairs": [int((c * (c - 1) // 2).sum())]})

    parts = _ld1_pairs(distinct).map_batches(one_partial, batch_format="pyarrow").union(
        distinct.map_batches(zero_partial, batch_format="pyarrow")
    )
    out = finish_on_driver(parts, ["distance"], ["n_pairs"])
    out = out[out["n_pairs"] > 0].sort_values("distance")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def name_clusters(sf_dir: str) -> pa.Table:
    """Fuzzy-key canonicalization: connected components over the
    Levenshtein<=1 name graph — compose the edit-distance join with the
    pointer-jumping label propagation, the cluster step a curation pipeline
    runs before treating near-identical keys as one entity.

    The edge list is vocabulary-sized by construction (``_ld1_pairs`` runs on
    distinct names), the component pass is the distributed BSP
    ``label_propagation`` on 64-bit name hashes, and the final cluster
    summary joins labels back to (name, count) on the driver — the distinct
    NAME domain is the bounded state here (the ``tfidf_top_terms`` vocabulary
    contract), never the row count. Canonical representative = lexicographic
    min name in the component (matching the SQL closure oracle); output is
    one row per cluster: (canonical_name, n_names, n_rows)."""
    from ..partition import stable_hash_strings

    distinct = _name_counts(sf_dir)
    names_df = distinct.to_pandas()  # vocabulary-bounded
    pairs_df = _ld1_pairs(distinct).to_pandas()  # << vocab^2, verified edges only

    h = stable_hash_strings(pa.array(names_df["p_name"].to_numpy(dtype=object))).view(np.int64)
    names_df = names_df.assign(node=h)
    by_hash = dict(zip(names_df["node"], names_df["p_name"]))
    if len(by_hash) != len(names_df):
        raise RuntimeError("64-bit name-hash collision in name_clusters")

    canon = {}
    if len(pairs_df):
        ha = stable_hash_strings(pa.array(pairs_df["name_a"].to_numpy(dtype=object))).view(np.int64)
        hb = stable_hash_strings(pa.array(pairs_df["name_b"].to_numpy(dtype=object))).view(np.int64)
        labels = label_propagation(
            pa.table({"id_a": pa.array(ha), "id_b": pa.array(hb)})
        )
        canon = dict(zip(labels["vec_id"].to_pylist(), labels["canonical_id"].to_pylist()))

    comp = names_df["node"].map(lambda n: canon.get(n, n))
    out = names_df.assign(comp=comp)
    agg = out.groupby("comp").agg(
        canonical_name=("p_name", "min"), n_names=("p_name", "size"), n_rows=("c", "sum")
    )
    agg = agg.sort_values("canonical_name").reset_index(drop=True)
    agg["n_names"] = agg["n_names"].astype("int64")
    agg["n_rows"] = agg["n_rows"].astype("int64")
    return pa.Table.from_pandas(agg[["canonical_name", "n_names", "n_rows"]], preserve_index=False)
