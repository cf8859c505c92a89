"""Plan-time footer reads as plain Ray tasks (``zonemap.map_footers``).

The footer probe and the distinct footer class read KB per container at
plan time; they run as Ray tasks, not as a Ray Data job, like the decode +
partial after them, so the one Ray Data job a pushdown can start is a
large scan's streaming decode. These tests pin the verdicts against the
in-process per-path function, the absence of any Dataset at plan time,
the job count per operator, and loud failure on a corrupt container. The lineage-timing test at the end covers the encoder.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray import zonemap
from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.synth import make_transcripts
from parquet_converter_ray.zonemap import (
    PrunedScan,
    map_footers,
    probe_verdict,
    probe_verdicts,
    scan_store,
)

N = 6_000


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    t = make_transcripts(N, seed=31)
    out = str(tmp_path_factory.mktemp("ftasks") / "s")
    encode_dataset(ray.data.from_arrow(t), out, n_parts=4,
                   bloom_cols=["conv_id"], text_bloom_cols=["text"])
    return {"dir": out, "table": t, "paths": PrunedScan([out], None).members[0][2]}


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def test_probe_tasks_match_in_process_verdicts(store):
    paths = store["paths"]
    conv = store["table"]["conv_id"][-1].as_py()
    seen = set()
    for pred in ([("role", "==", "user")],
                 [("role", "==", "nobody")],
                 [("conv_id", "==", conv)],
                 [("text", "hastok", "zzzqqq")],
                 ("or", [[("role", "in", ["nobody"])], [("conv_id", "==", conv)]])):
        dnf = zonemap._normalize_dnf(pred)
        got = probe_verdicts(paths, dnf)
        assert got == {p: probe_verdict(p, dnf) for p in paths}
        seen |= set(got.values())
    assert seen == {"keep", "dict", "bloom"}


def test_no_dataset_at_plan_time(store, monkeypatch):
    from parquet_converter_ray.storedistinct import store_distinct

    def boom(*a, **kw):
        raise AssertionError("plan time built a Dataset")

    monkeypatch.setattr(ray.data, "from_items", boom)
    scan = PrunedScan([store["dir"]], [("role", "==", "user")])
    paths, plan = scan.candidates()
    assert paths and plan["scanned"] == len(paths)

    got, plan = store_distinct(store["dir"], "role", return_plan=True)
    assert plan["footer_answered"] > 0
    assert got["role"].to_pylist() == sorted(pc.unique(store["table"]["role"]).to_pylist())


def test_empty_paths_submit_no_task(monkeypatch):
    class NoTasks:
        def remote(self, *a, **kw):
            raise AssertionError("task submitted for an empty path list")

    monkeypatch.setattr(zonemap, "_remote_slice", NoTasks)
    assert map_footers(probe_verdict, [], [[("role", "==", "user")]]) == {}
    assert probe_verdicts([], [[("role", "==", "user")]]) == {}


def test_corrupt_container_fails_loudly(ray_session, tmp_path):
    bad = str(tmp_path / "bad")
    encode_dataset(ray.data.from_arrow(make_transcripts(3_000, seed=32)), bad, n_parts=3)
    victim = PrunedScan([bad], None).members[0][2][1]  # not the schema footer
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    with pytest.raises(ValueError, match="bad container magic"):
        scan_store(bad, [("tool", "==", "python")])


def _count_jobs(monkeypatch) -> list:
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    jobs = []
    real = StreamingExecutor.execute

    def spy(self, *a, **kw):
        jobs.append(1)
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    return jobs


def test_pushdown_is_one_ray_data_job(store, monkeypatch):
    from parquet_converter_ray.decode import lookup_conversation
    from parquet_converter_ray.storeagg import store_agg
    from parquet_converter_ray.storedistinct import store_distinct
    from parquet_converter_ray.storegroup import store_agg_group
    from parquet_converter_ray.storesearch import store_search
    from parquet_converter_ray.storetopk import store_topk

    d, pred = store["dir"], [("role", "==", "user")]
    t = store["table"]
    users = t.filter(pc.equal(t["role"], "user"))
    ops = {
        "scan": (lambda: _collect(scan_store(d, pred, ["turn_idx"])).num_rows,
                 users.num_rows),
        "agg": (lambda: store_agg(d, ["count"], pred)["count"], users.num_rows),
        "topk": (lambda: store_topk(d, "turn_idx", 3, predicate=pred,
                                    columns=["turn_idx"])["turn_idx"].to_pylist(),
                 sorted(users["turn_idx"].to_pylist(), reverse=True)[:3]),
        "search": (lambda: store_search(d, "text", "result", 5, predicate=pred).num_rows,
                   5),
        "group": (lambda: store_agg_group(d, ["role"], ["count"]).num_rows,
                  len(pc.unique(t["role"]))),
        "distinct": (lambda: store_distinct(d, "tool", pred).num_rows,
                     len(pc.unique(users["tool"]))),
        "lookup": (lambda: lookup_conversation(d, t["conv_id"][0].as_py()).num_rows,
                   pc.sum(pc.equal(t["conv_id"], t["conv_id"][0])).as_py()),
    }
    want_jobs = {"scan": 1}  # the streaming decode; the rest run in tasks
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 0)  # the large-plan scan
    jobs = _count_jobs(monkeypatch)
    for kind, (op, want) in ops.items():
        del jobs[:]
        assert op() == want, kind
        assert len(jobs) == want_jobs.get(kind, 0), kind


def test_small_scan_iteration_starts_no_job(store, monkeypatch):
    """A small scan's Dataset holds its task outputs, its plan executed:
    iterating or counting it starts no Ray Data job."""
    from parquet_converter_ray.decode import decode_dataset

    t = store["table"]
    users = pc.sum(pc.equal(t["role"], "user")).as_py()
    jobs = _count_jobs(monkeypatch)
    ds, plan = scan_store(store["dir"], [("role", "==", "user")], ["turn_idx"], return_plan=True)
    assert plan["executor"] == "tasks"
    assert _collect(ds).num_rows == users and ds.count() == users
    none = scan_store(store["dir"], [("role", "==", "nobody")])
    assert none.count() == 0 and not list(none.iter_batches(batch_format="pyarrow"))
    assert _collect(decode_dataset(store["dir"])).num_rows == N
    assert not jobs


class _SlowGroup:
    """Duck-typed sort-exchange group whose ``combine_chunks`` takes 50 ms."""

    def __init__(self, table: pa.Table):
        self.table = table

    def column(self, i):
        return self.table.column(i)

    def combine_chunks(self) -> pa.Table:
        time.sleep(0.05)
        return self.table.combine_chunks()


def test_lineage_counts_the_combine(tmp_path, monkeypatch):
    from parquet_converter_ray import encode
    from parquet_converter_ray import manifest as mf
    from parquet_converter_ray.encode import EncodePartition

    monkeypatch.setattr(encode, "_ARROW_PINNED", True)  # keep this process's Arrow pool
    t = make_transcripts(200, seed=3)
    group = t.append_column("part_id", pa.array([0] * t.num_rows, type=pa.int32()))
    out = str(tmp_path / "enc")
    os.makedirs(out)
    EncodePartition(out)(_SlowGroup(group))
    (rec,) = mf.load_records(out)
    tm = rec["timings"]
    assert tm["combine"] >= 0.05
    assert set(tm) == {"in_chunks", "combine", "sort", "choose", "encode", "stats", "write"}
    assert rec["wall_s"] >= 0.05
