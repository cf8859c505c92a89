"""Ranked full-text search (storesearch.store_search) over encoded stores."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.storesearch import store_search

N = 6_000
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "theta"]


def _table() -> pa.Table:
    rng = np.random.default_rng(41)
    doc_id = np.arange(N, dtype=np.int64)
    texts = []
    for i in range(N):
        w = [WORDS[j] for j in rng.integers(0, len(WORDS), 12)]
        if i == 17:
            w.append("xyzzy")  # planted rare token
        texts.append(" ".join(w))
    texts[99] = None
    lang = np.array(["en", "de", "fr"])[rng.integers(0, 3, N)]
    return pa.table(
        {
            "doc_id": pa.array(doc_id),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(lang),
        }
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def store(ray_session, table, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ssearch") / "store")
    encode_dataset(
        ray.data.from_arrow(table), out, conv_col="doc_id", order_col="doc_id",
        salt_rows=0, n_parts=4, text_bloom_cols=frozenset({"text"}),
    )
    return out


def _duck_search(table: pa.Table, tokens, k, where="", mode="any") -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    parts = [
        "(CASE WHEN regexp_matches(lower(text), '(^|[^a-z0-9])"
        + t + "([^a-z0-9]|$)') THEN 1 ELSE 0 END)"
        for t in tokens
    ]
    score = " + ".join(parts)
    floor = len(tokens) if mode == "all" else 1
    return con.execute(
        f"SELECT doc_id, lang, score FROM ("
        f"  SELECT doc_id, lang, ({score})::INTEGER AS score FROM t {where}"
        f") WHERE score >= {floor} ORDER BY score DESC, doc_id LIMIT {k}"
    ).fetch_arrow_table()


def test_search_matches_sql(store, table):
    got = store_search(
        store, "text", "alpha beta gamma", 25,
        columns=["doc_id", "lang"], tiebreak=["doc_id"],
    )
    exp = _duck_search(table, ["alpha", "beta", "gamma"], 25)
    assert got.column_names == ["doc_id", "lang", "score"]
    assert got.to_pydict() == exp.to_pydict()


def test_search_mode_all(store, table):
    got = store_search(
        store, "text", "alpha beta", 10, mode="all",
        columns=["doc_id", "lang"], tiebreak=["doc_id"],
    )
    exp = _duck_search(table, ["alpha", "beta"], 10, mode="all")
    assert got.to_pydict() == exp.to_pydict()
    assert set(got["score"].to_pylist()) == {2}


def test_search_rare_token_prunes(store, table):
    got, plan = store_search(
        store, "text", "xyzzy", 5, columns=["doc_id"], tiebreak=["doc_id"],
        return_plan=True,
    )
    assert got["doc_id"].to_pylist() == [17]
    assert plan["pruned_dict"] + plan["pruned_bloom"] > 0, plan
    assert plan["scanned"] < plan["parts_total"], plan


def test_search_with_predicate(store, table):
    got = store_search(
        store, "text", "omega kappa", 15,
        predicate=[("lang", "==", "en")],
        columns=["doc_id", "lang"], tiebreak=["doc_id"],
    )
    exp = _duck_search(table, ["omega", "kappa"], 15, where="WHERE lang = 'en'")
    assert got.to_pydict() == exp.to_pydict()


def test_search_family(store, table, tmp_path_factory, ray_session):
    out2 = str(tmp_path_factory.mktemp("ssearch2") / "store2")
    t2 = pa.table(
        {
            "doc_id": pa.array(np.arange(N, N + 50, dtype=np.int64)),
            "text": pa.array(["alpha beta gamma delta"] * 50),
            "lang": pa.array(["en"] * 50),
        }
    )
    encode_dataset(
        ray.data.from_arrow(t2), out2, conv_col="doc_id", order_col="doc_id",
        salt_rows=0, n_parts=1, text_bloom_cols=frozenset({"text"}),
    )
    got = store_search(
        [store, out2], "text", "alpha beta gamma delta", 10,
        columns=["doc_id", "lang"], tiebreak=["doc_id"],
    )
    both = pa.concat_tables([table, t2])
    exp = _duck_search(both, ["alpha", "beta", "gamma", "delta"], 10)
    assert got.to_pydict() == exp.to_pydict()
    assert set(got["score"].to_pylist()) == {4}


def test_search_refusals(store):
    with pytest.raises(ValueError, match="no tokens"):
        store_search(store, "text", "...", 5)
    with pytest.raises(ValueError, match="text column"):
        store_search(store, "doc_id", "alpha", 5)
    with pytest.raises(ValueError, match="mode"):
        store_search(store, "text", "alpha", 5, mode="tfidf")


def test_search_snippet(store, table):
    got = store_search(
        store, "text", "xyzzy", 3, columns=["doc_id"], tiebreak=["doc_id"],
        snippet=True,
    )
    assert got.column_names == ["doc_id", "score", "snippet"]
    sn = got["snippet"].to_pylist()[0]
    assert "xyzzy" in sn and len(sn) <= 92  # token ± 40 chars + ellipses


def test_search_bm25_ranking(store, table):
    """BM25 properties: a doc stuffed with the rare term outranks docs with
    common terms; deterministic across calls; idf weights the rare token
    above the common one."""
    got, plan = store_search(
        store, "text", "xyzzy alpha", 10, mode="bm25",
        columns=["doc_id"], tiebreak=["doc_id"], return_plan=True,
    )
    assert got["doc_id"].to_pylist()[0] == 17  # the only xyzzy doc wins
    assert got["score"].to_pylist() == sorted(got["score"].to_pylist(), reverse=True)
    assert plan["bm25"]["df"]["xyzzy"] == 1
    assert plan["bm25"]["df"]["alpha"] > 1000
    again = store_search(
        store, "text", "xyzzy alpha", 10, mode="bm25",
        columns=["doc_id"], tiebreak=["doc_id"],
    )
    assert got.to_pydict() == again.to_pydict()


def test_search_bm25_tf_saturation(tmp_path_factory, ray_session):
    """More occurrences of the query term score higher (monotone tf), and
    shorter docs with equal tf outrank longer ones (length norm)."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "zork filler filler filler",
                    "zork zork filler filler",
                    "zork zork zork filler",
                    "filler filler filler filler",
                ]
            ),
        }
    )
    out = str(tmp_path_factory.mktemp("bm25") / "store")
    encode_dataset(ray.data.from_arrow(t), out, conv_col="doc_id",
                   order_col="doc_id", salt_rows=0, n_parts=1)
    got = store_search(out, "text", "zork", 4, mode="bm25",
                       columns=["doc_id"], tiebreak=["doc_id"])
    assert got["doc_id"].to_pylist() == [2, 1, 0]  # tf 3 > 2 > 1; doc 3 absent
