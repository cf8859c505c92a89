"""The shared pushdown read path (``zonemap.PrunedScan``): plan shape,
validation by construction, empty-block safety of every partial, and the
driver-side snippet offsets."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset

N = 3_000
WORDS = ["alpha", "beta", "gamma", "delta", "omega"]
CLASSES = ("pruned_hash", "pruned_stats", "pruned_dict", "pruned_bloom",
           "meta_answered", "footer_answered", "scanned")
COMMON = ("parts_total", "pruned_hash", "pruned_stats", "pruned_dict",
          "pruned_bloom", "scanned")


def _table(lo: int, n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    texts = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 6)) for _ in range(n)]
    texts[7] += " xyzzy"  # one rare token per member
    return pa.table({
        "conv_id": pa.array(np.arange(lo, lo + n, dtype=np.int64)),
        "flag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)]),
        "price": pa.array(np.round(rng.uniform(10, 1000, n), 2)),
        "text": pa.array(texts, type=pa.string()),
    })


def _encode(tbl: pa.Table, out: str) -> str:
    encode_dataset(ray.data.from_arrow(tbl), out, conv_col="conv_id",
                   order_col="conv_id", salt_rows=0, n_parts=3,
                   text_bloom_cols=frozenset({"text"}))
    return out


@pytest.fixture(scope="module")
def family(ray_session, tmp_path_factory):
    """Two deliveries with disjoint key ranges: the second prunes wholly
    on ``conv_id < N`` while every container of the first fully matches."""
    base = tmp_path_factory.mktemp("pscan")
    a, b = _table(0, N, 1), _table(N, N, 2)
    dirs = [_encode(a, str(base / "a")), _encode(b, str(base / "b"))]
    return {"dirs": dirs, "all": pa.concat_tables([a, b])}


def _ops():
    from parquet_converter_ray.storeagg import store_agg
    from parquet_converter_ray.storedistinct import store_distinct
    from parquet_converter_ray.storegroup import store_agg_group
    from parquet_converter_ray.storesample import store_sample, store_sample_stratified
    from parquet_converter_ray.storesearch import store_search
    from parquet_converter_ray.storetopk import store_group_topk, store_topk
    from parquet_converter_ray.zonemap import scan_store

    return {
        "scan": lambda d, p: scan_store(d, p, ["conv_id"], return_plan=True),
        "agg": lambda d, p: store_agg(d, ["count", "sum:price"], p, return_plan=True),
        "group": lambda d, p: store_agg_group(d, ["flag"], ["count"], p, return_plan=True),
        "topk": lambda d, p: store_topk(d, "price", 5, predicate=p, columns=["conv_id"],
                                        return_plan=True),
        "group_topk": lambda d, p: store_group_topk(d, ["flag"], "price", 2, predicate=p,
                                                    return_plan=True),
        "distinct": lambda d, p: store_distinct(d, "flag", p, return_plan=True),
        "sample": lambda d, p: store_sample(d, "conv_id", 5, predicate=p, return_plan=True),
        "stratified": lambda d, p: store_sample_stratified(d, "conv_id", ["flag"], 2,
                                                           predicate=p, return_plan=True),
        "search": lambda d, p: store_search(d, "text", "xyzzy alpha", 3, predicate=p,
                                            return_plan=True),
    }


@pytest.mark.parametrize("op", list(_ops()))
@pytest.mark.parametrize("pred", ["band", "keys"])
def test_plan_classes_partition_parts_total(family, op, pred):
    """Every pushdown reports the common pruning counters, and its classes
    account for each container exactly once — in the merged plan and in
    each member's breakdown."""
    predicate = {"band": [("conv_id", "<", N)],
                 "keys": [("conv_id", "in", [1, 2, N + 3])]}[pred]
    _, plan = _ops()[op](family["dirs"], predicate)
    assert set(plan["stores"]) == set(family["dirs"])
    for p in [plan, *plan["stores"].values()]:
        assert set(COMMON) <= set(p), p
        assert p["parts_total"] == sum(p.get(c, 0) for c in CLASSES), p
    assert plan["parts_total"] == 6
    if pred == "band":
        assert plan["stores"][family["dirs"][1]]["pruned_stats"] == 3, plan
    else:
        assert plan["pruned_hash"] >= 1, plan


def test_single_store_plans_are_the_member_breakdown(family):
    """A single store is a family of one: its plan's top-level counters
    are its own breakdown under ``stores``."""
    from parquet_converter_ray.storeagg import store_agg
    from parquet_converter_ray.storegroup import store_agg_group

    d = family["dirs"][0]
    pred = [("flag", "==", "A")]
    for _, plan in (store_agg(d, ["count"], pred, return_plan=True),
                    store_agg_group(d, ["flag"], ["count"], pred, return_plan=True)):
        assert set(plan["stores"]) == {d}
        member = plan["stores"][d]
        assert {k: plan[k] for k in member} == member


def _verbs():
    """Every store verb as ``run(store, out) -> (result, plan | None)``:
    ``store`` is one directory or a list, ``out`` a fresh directory for a
    verb that writes a store."""
    from parquet_converter_ray.decode import decode_dataset, lookup_conversation
    from parquet_converter_ray.encode import compact_dataset
    from parquet_converter_ray.storeagg import store_quantiles
    from parquet_converter_ray.storedistinct import store_approx_distinct
    from parquet_converter_ray.storejoin import store_join
    from parquet_converter_ray.zonemap import store_profile

    pred = [("price", "<", 500.0)]
    verbs = {name: (lambda op: lambda s, _out: op(s, pred))(op)
             for name, op in _ops().items()}

    def profile(s, _out):
        prof = store_profile(s)
        return {k: v for k, v in prof.items() if k not in ("generations", "stores")}, None

    def compact(s, out):
        compact_dataset(s, out, n_parts=2)
        return _rows(decode_dataset(out)), None

    return {
        **verbs,
        "quantiles": lambda s, _out: store_quantiles(s, "price", [0.1, 0.5], pred,
                                                     return_plan=True),
        "approx_distinct": lambda s, _out: store_approx_distinct(s, "flag", pred,
                                                                 return_plan=True),
        "profile": profile,
        "lookup": lambda s, _out: (lookup_conversation(s, 7), None),
        "decode": lambda s, _out: (decode_dataset(s, columns=["conv_id", "flag"]), None),
        "join": lambda s, _out: (store_join(s, columns=[["flag"], ["price"]], how="left"),
                                 None),
        "compact": compact,
    }


def _rows(x):
    """A verb's result in a comparable form: a Dataset's or table's rows,
    sorted; anything else as is."""
    if isinstance(x, ray.data.Dataset):
        x = x.take_all()
    elif isinstance(x, pa.Table):
        x = x.to_pylist()
    else:
        return x
    return sorted(x, key=lambda r: [str(v) for v in r.values()])


def _outcome(run, store, out):
    try:
        res, plan = run(store, out)
    except ValueError as e:  # a refusal is an outcome too (a 1-store join)
        return ("refused", str(e)), None
    return _rows(res), plan


@pytest.mark.parametrize("verb", list(_verbs()))
def test_verb_takes_a_store_or_a_family(family, verb, tmp_path):
    """One name per store verb: ``verb(d)`` and ``verb([d])`` give equal
    results and equal plans (``stores`` included), and a 2-member family
    goes through the same name."""
    run = _verbs()[verb]
    d = family["dirs"][0]
    one, one_plan = _outcome(run, d, str(tmp_path / "one"))
    fam, fam_plan = _outcome(run, [d], str(tmp_path / "fam"))
    assert one == fam
    assert one_plan == fam_plan
    if one_plan is not None:
        assert set(one_plan["stores"]) == {d}
    both, both_plan = _outcome(run, family["dirs"], str(tmp_path / "both"))
    assert not (isinstance(both, tuple) and both[0] == "refused"), both
    if both_plan is not None:
        assert set(both_plan["stores"]) == set(family["dirs"])


# --- validation by construction ----------------------------------------------


def test_search_multi_refuses_member_type_drift(family, tmp_path):
    """A member whose conv_id is a string is refused before any scan."""
    from parquet_converter_ray.storesearch import store_search

    drift = _table(2 * N, 500, 3)
    drift = drift.set_column(0, "conv_id", pc.cast(drift["conv_id"], pa.string()))
    other = _encode(drift, str(tmp_path / "drift"))
    with pytest.raises(ValueError, match="conform them via compact_dataset"):
        store_search([family["dirs"][0], other], "text", "alpha", 3)


def test_scan_multi_refuses_text_op_on_int_column(family):
    from parquet_converter_ray.zonemap import scan_store

    pred = [("conv_id", "hastok", "abc")]
    with pytest.raises(ValueError) as one:
        scan_store(family["dirs"][0], pred)
    with pytest.raises(ValueError, match="hastok predicate needs a text column") as fam:
        scan_store(family["dirs"], pred)
    assert str(fam.value) == str(one.value)


# --- empty blocks ---------------------------------------------------------------


def _partials():
    from parquet_converter_ray.storeagg import _AggPartial
    from parquet_converter_ray.storedistinct import _DistinctPartial
    from parquet_converter_ray.storegroup import _GroupPartial
    from parquet_converter_ray.storesample import _BottomNPartial, _GroupBottomNPartial
    from parquet_converter_ray.storesearch import _BM25TopK, _DFPartial, _ScoreTopK
    from parquet_converter_ray.storetopk import _GroupTopKPartial, _TopKPartial

    types = dict(zip(_table(0, 10, 0).column_names, _table(0, 10, 0).schema.types))
    aggs = [("count", None), ("nn", "price"), ("min", "price"), ("max", "conv_id"),
            ("sum", "conv_id"), ("sum", "price")]
    return {
        "agg": _AggPartial(aggs, types),
        "group": _GroupPartial(["flag"], aggs, types),
        "distinct": _DistinctPartial("flag", pa.string(), pa.string()),
        "topk": _TopKPartial("price", True, ["conv_id"], 5, True),
        "group_topk": _GroupTopKPartial(["flag"], "price", True, ["conv_id"], 5, True),
        "bottom_n": _BottomNPartial("conv_id", 5, "s", pa.int64()),
        "group_bottom_n": _GroupBottomNPartial("conv_id", ["flag"], 5, "s", pa.int64()),
        "df": _DFPartial("text", ["alpha"]),
        "score": _ScoreTopK("text", ["alpha"], 5, ["conv_id"]),
        "bm25": _BM25TopK("text", ["alpha"], [1.0], 6.0, 5, ["conv_id"]),
    }


@pytest.mark.parametrize("name", list(_partials()))
def test_partial_accepts_empty_block(name):
    """A container that survives pruning can decode to zero rows (its rows
    all fail the exact filter); every per-block partial must take that
    block without raising and contribute nothing."""
    empty = _table(0, 10, 0).slice(0, 0)
    out = _partials()[name](empty)
    assert isinstance(out, pa.Table)
    for count_col in ("_rows", "_n"):
        if count_col in out.column_names:
            assert (pc.sum(out[count_col]).as_py() or 0) == 0
            break
    else:
        assert out.num_rows == 0


def test_stratified_sample_when_predicate_empties_surviving_containers(family):
    """An exact-price predicate survives every container's zone map (prices
    span the whole range everywhere) but matches rows in only one: the other
    containers decode to empty blocks."""
    from parquet_converter_ray.storesample import store_sample_stratified

    tbl = family["all"]
    price = tbl["price"][11].as_py()
    got, plan = store_sample_stratified(family["dirs"], "conv_id", ["flag"], 3,
                                        predicate=[("price", "==", price)],
                                        return_plan=True)
    want = tbl.filter(pc.equal(tbl["price"], price))
    assert plan["scanned"] > want.num_rows >= 1, plan
    assert sorted(got["conv_id"].to_pylist()) == sorted(want["conv_id"].to_pylist())


# --- snippets -----------------------------------------------------------------------


def test_snippet_offsets_survive_length_changing_case_folds():
    """``'İ'.lower()`` is two code points: offsets found in the lowered
    string used to land short of the hit in the original."""
    from parquet_converter_ray.storesearch import _snippets

    got = _snippets(pa.array(["İİİİİİİİİİ hello world", "Say HELLO", None]),
                    ["hello"], width=3).to_pylist()
    assert got == ["…İİ hello wo…", "…ay HELLO", None]
