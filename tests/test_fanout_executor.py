"""The bucketed join (``storejoin.store_join``) and CDC
(``decode.store_changes``) run on the executor every container fan-out
shares, ``zonemap.decoded_dataset``: plain Ray tasks
under the small-plan crossover, one streaming Ray Data job past it.

These tests pin, on both executors, the same sorted rows (and CDC plan) as
the per-unit Ray Data job the executor replaced (kept here as
``_ray_data_job``, the reference), no Ray Data job under the crossover,
and loud failure on a truncated container: a ``ValueError`` from the call
on the tasks, Ray Data's ``UserCodeException`` on consumption when
streaming.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

import ray

from parquet_converter_ray import manifest as mf
from parquet_converter_ray import zonemap
from parquet_converter_ray.decode import resolve_container_path, store_changes
from parquet_converter_ray.encode import (
    append_dataset,
    delete_conversations,
    encode_dataset,
    upsert_dataset,
)
from parquet_converter_ray.snapshot import snapshot_path, snapshot_store
from parquet_converter_ray.storejoin import store_join
from test_footer_tasks import _count_jobs
from test_task_executor import SHARES


def _ray_data_job(units, fn, empty, nbytes):
    """The Ray Data job the executor replaced for the join and CDC: one row
    per unit (``from_items``), one ``fn`` call per row
    (``map_batches(batch_size=1)``). The reference."""
    if not units:
        return ray.data.from_arrow(empty)
    return ray.data.from_items([{"i": i} for i in range(len(units))]).map_batches(
        lambda b: pa.concat_tables([fn(units[i]) for i in b["i"].to_pylist()]),
        batch_format="pyarrow", batch_size=1,
    )


def _sorted(ds) -> pa.Table:
    t = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
        or [ds.schema().empty_table()]
    )
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _encode(d, keys, tag):
    """A small store hash-routed on ``k{tag}`` (4 parts, unsalted)."""
    n = len(keys)
    t = pa.table({f"k{tag}": pa.array(keys, pa.int64()),
                  f"{tag}_ord": pa.array(range(n), pa.int64()),
                  f"{tag}_v": pa.array([f"{tag}{i}" for i in range(n)])})
    encode_dataset(ray.data.from_arrow(t), d, n_parts=4, conv_col=f"k{tag}",
                   order_col=f"{tag}_ord", sort_key=(f"k{tag}", f"{tag}_ord"), salt_rows=0)
    return d


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory):
    """Three co-bucketed stores whose keys overlap in part (b holds each of
    its keys twice), so inner and left joins differ."""
    base = tmp_path_factory.mktemp("fanout")
    return [_encode(str(base / "a"), list(range(0, 600)), "a"),
            _encode(str(base / "b"), [*range(300, 900), *range(300, 900)], "b"),
            _encode(str(base / "c"), list(range(0, 900, 2)), "c")]


@pytest.fixture(scope="module")
def states(ray_session, tmp_path_factory):
    """A store and its snapshot before an upsert, an append and a delete."""
    d = str(tmp_path_factory.mktemp("fanout_cdc") / "s")
    n = 2_000
    t = pa.table({"conv_id": pa.array([f"c{i // 4}" for i in range(n)]),
                  "turn_idx": pa.array([i % 4 for i in range(n)], pa.int64()),
                  "text": pa.array([f"row {i}" for i in range(n)])})
    encode_dataset(ray.data.from_arrow(t), d, n_parts=8, conv_col="conv_id",
                   order_col="turn_idx", sort_key=("conv_id", "turn_idx"), salt_rows=0)
    snapshot_store(d, name="base")
    upsert_dataset(ray.data.from_arrow(pa.table({
        "conv_id": ["c1", "cNEW"], "turn_idx": pa.array([2, 0], pa.int64()),
        "text": ["EDITED", "NEWROW"]})), d)
    append_dataset(ray.data.from_arrow(pa.table({
        "conv_id": ["cA", "cA"], "turn_idx": pa.array([0, 1], pa.int64()),
        "text": ["x", "y"]})), d)
    delete_conversations(d, ["c5"])
    return snapshot_path(d, "base"), d


def _cases(stores, states):
    a, b, c = stores
    return {
        "join_inner": lambda: store_join([a, b]),
        "join_left": lambda: store_join([a, b], columns=[None, ["b_v"]], how="left"),
        "join_3": lambda: store_join([a, b, c], columns=[["a_v"], ["b_v"], None]),
        "changes": lambda: store_changes(*states, return_plan=True),
    }


@pytest.mark.parametrize("case", ["join_inner", "join_left", "join_3", "changes"])
def test_fanout_matches_ray_data_job(stores, states, monkeypatch, case):
    """Same sorted rows (and CDC plan) on the tasks and streaming as from
    the per-unit Ray Data job; under the crossover neither the call nor
    counting its rows starts a Ray Data job."""
    call = _cases(stores, states)[case]
    got = {}
    for name, share in SHARES.items():
        monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", share)
        jobs = _count_jobs(monkeypatch)
        res = call()
        ds = res[0] if case == "changes" else res
        if name == "tasks":  # built from task outputs: counting runs no job
            assert ds.count() > 0 and not jobs, case
        got[name] = res
    with monkeypatch.context() as m:
        m.setattr(zonemap, "decoded_dataset", _ray_data_job)
        got["reference"] = call()
    if case == "changes":
        plans = {k: plan for k, (_, plan) in got.items()}
        assert plans["tasks"] == plans["ray_data"] == plans["reference"]
        assert plans["tasks"]["parts_compared"] > 0
        got = {k: ds for k, (ds, _) in got.items()}
    want = _sorted(got["reference"])
    assert want.num_rows > 0
    for name in SHARES:
        assert _sorted(got[name]).equals(want), (case, name)


@pytest.fixture
def truncated(ray_session, tmp_path):
    """A join pair and a CDC pair, each with one truncated container that
    only the fan-out reads (never the first container, whose footer the
    plan reads)."""
    a = _encode(str(tmp_path / "a"), list(range(200)), "a")
    b = _encode(str(tmp_path / "b"), list(range(100, 300)), "b")
    victims = [resolve_container_path(b, r) for r in mf.load_records(b)][1:2]
    snapshot_store(a, name="base")
    append_dataset(ray.data.from_arrow(pa.table({
        "ka": pa.array([7], pa.int64()), "a_ord": pa.array([9], pa.int64()),
        "a_v": ["new"]})), a)
    victims += [resolve_container_path(a, r) for r in mf.load_records(a)
                if r.get("generation")]  # the appended container: the snapshot lacks it
    for v in victims:
        with open(v, "r+b") as f:
            f.truncate(os.path.getsize(v) // 2)
    return {"join": lambda: store_join([a, b]),
            "changes": lambda: store_changes(snapshot_path(a, "base"), a)}


@pytest.mark.parametrize("case", ["join", "changes"])
def test_truncated_container_fails_loudly(truncated, monkeypatch, case):
    call = truncated[case]
    with pytest.raises(ValueError, match="bad container magic"):
        call()
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 0)
    ds = call()
    with pytest.raises(ray.exceptions.UserCodeException, match="bad container magic"):
        _sorted(ds)
