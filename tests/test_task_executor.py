"""The task executor of ``zonemap.PrunedScan``: ``run`` (every operator's
decode + partial) always runs as plain Ray tasks, and ``dataset``
(``scan_store``) does too while the plan's recorded bytes stay under the
measured crossover (``_TASKS_MAX_STORE_SHARE`` of the object store), past
it streaming as one Ray Data job.

These tests pin that every pushdown returns the same results and plans as
the streaming job it replaced (kept here as ``_streaming_run``, the
reference), that only a large scan starts a Ray Data job (and the plan
says which executor ran), that a corrupt container fails loudly either
way, and that a small scan works before any ``ray.init()``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray import zonemap
from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.synth import make_transcripts
from parquet_converter_ray.zonemap import PrunedScan, scan_store
from test_footer_tasks import _collect, _count_jobs
from test_pruned_scan import N, _ops, family  # noqa: F401 (``family`` is a fixture)

SHARES = {"tasks": 1 << 40, "ray_data": 0}  # forces ``dataset``'s executor


def _streaming_run(self, paths, partial, work_cols, verify_crc=False):
    """``PrunedScan.run`` as one streaming Ray Data job, the executor the
    tasks replaced: the reference they must match. Ray Data reads each
    container's bytes and the decoder's ``_one`` decodes them."""
    if not paths:
        return
    dec = self._decoder(work_cols, verify_crc)
    ds = ray.data.read_binary_files(paths).map_batches(
        lambda b: pa.concat_tables([dec._one(v.as_py()) for v in b["bytes"]]),
        batch_format="pyarrow", batch_size=1,
    )
    if partial is not None:
        ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            yield b


def _canon(res):
    """Results as comparable values: rows of a Dataset in sorted order."""
    if isinstance(res, ray.data.Dataset):
        t = _collect(res)
        return t.sort_by([(c, "ascending") for c in t.column_names])
    return res


def _strip(plan):
    """The plan without its ``executor`` keys (the one key that must differ)."""
    if isinstance(plan, dict):
        return {k: _strip(v) for k, v in plan.items() if k != "executor"}
    return plan


def _executors(plan) -> set:
    got = {plan["executor"]} if "executor" in plan else set()
    for v in plan.values():
        if isinstance(v, dict):
            got |= _executors(v)
    return got


@pytest.mark.parametrize("op", list(_ops()))
@pytest.mark.parametrize("pred", ["none", "band", "empties"])
def test_tasks_match_streaming_job(family, monkeypatch, op, pred):
    """Same results and plans from the tasks as from the streaming job on
    all nine pushdowns. ``empties``: an exact price survives every zone map
    but matches rows in one container only, so the others decode to 0
    rows."""
    price = family["all"]["price"][11].as_py()
    predicate = {"none": None, "band": [("conv_id", "<", N)],
                 "empties": [("price", "==", price)]}[pred]
    got = {}
    for name, share in SHARES.items():
        monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", share)
        if name == "ray_data":
            monkeypatch.setattr(PrunedScan, "run", _streaming_run)
        res, plan = _ops()[op](family["dirs"], predicate)
        if name == "tasks" or op == "scan":  # the reference run stamps "tasks"
            assert _executors(plan) <= {name, None}, plan
            assert plan["executor"] == (name if plan["scanned"] else None), plan
        got[name] = (_canon(res), _strip(plan))
    assert got["tasks"][0] == got["ray_data"][0]
    assert got["tasks"][1] == got["ray_data"][1]


def test_plan_records_executor_and_bytes(family):
    """``scanned_bytes`` sums the recorded bytes of each member's scanned
    containers; a member that scans nothing has no executor."""
    from parquet_converter_ray.zonemap import scan_store

    a, b = family["dirs"]
    _, plan = scan_store(family["dirs"], [("conv_id", "<", N)], return_plan=True)
    scan = PrunedScan(family["dirs"], None)
    a_paths = scan.members[0][2]
    assert plan["stores"][a]["scanned"] == len(a_paths)
    assert plan["stores"][a]["scanned_bytes"] == sum(scan.sizes[p] for p in a_paths) > 0
    assert plan["stores"][b]["scanned"] == plan["stores"][b]["scanned_bytes"] == 0
    assert plan["stores"][b]["executor"] is None
    assert plan["executor"] == plan["stores"][a]["executor"] == "tasks"
    assert plan["scanned_bytes"] == plan["stores"][a]["scanned_bytes"]


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    t = make_transcripts(4_000, seed=41)
    t = t.append_column("row_id", pa.array(range(t.num_rows), type=pa.int64()))  # sample key
    out = str(tmp_path_factory.mktemp("texec_s") / "s")
    encode_dataset(ray.data.from_arrow(t), out, n_parts=4,
                   bloom_cols=["conv_id"], text_bloom_cols=["text"])
    return {"dir": out, "table": t}


@pytest.mark.parametrize("share", list(SHARES.values()))
def test_operators_start_no_ray_data_job(store, monkeypatch, share):
    """Every operator's decode + partial runs in tasks whatever the scan
    crossover, and its plan says so."""
    from parquet_converter_ray.decode import lookup_conversation
    from parquet_converter_ray.storeagg import store_agg
    from parquet_converter_ray.storedistinct import store_distinct
    from parquet_converter_ray.storegroup import store_agg_group
    from parquet_converter_ray.storesample import store_sample, store_sample_stratified
    from parquet_converter_ray.storesearch import store_search
    from parquet_converter_ray.storetopk import store_topk

    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", share)
    d, pred = store["dir"], [("role", "==", "user")]
    conv = store["table"]["conv_id"][0].as_py()
    ops = {
        "agg": lambda: store_agg(d, ["count"], pred, return_plan=True)[1],
        "topk": lambda: store_topk(d, "turn_idx", 3, predicate=pred, return_plan=True)[1],
        "search": lambda: store_search(d, "text", "result", 5, predicate=pred,
                                       return_plan=True)[1],
        "group": lambda: store_agg_group(d, ["role"], ["count"], pred, return_plan=True)[1],
        "distinct": lambda: store_distinct(d, "tool", pred, return_plan=True)[1],
        "sample": lambda: store_sample(d, "row_id", 5, predicate=pred,
                                       return_plan=True)[1],
        "stratified": lambda: store_sample_stratified([d], "row_id", ["tool"], 2,
                                                      predicate=pred, return_plan=True)[1],
    }
    jobs = _count_jobs(monkeypatch)
    for kind, op in ops.items():
        del jobs[:]
        plan = op()
        assert plan["scanned"] > 0 and plan["executor"] == "tasks", (kind, plan)
        assert not jobs, kind
    del jobs[:]
    assert lookup_conversation(d, conv).num_rows > 0
    assert not jobs


def _logical_ops(ds) -> list:
    names, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(type(op).__name__)
        stack.extend(op.input_dependencies)
    return names


def test_small_scan_dataset_is_task_output(store, monkeypatch):
    d, pred = store["dir"], [("turn_idx", "<", 5)]
    t = store["table"]
    want = t.filter(pc.less(t["turn_idx"], 5)).num_rows
    ds, plan = scan_store(d, pred, ["conv_id", "turn_idx"], return_plan=True)
    assert plan["executor"] == "tasks"
    assert _logical_ops(ds) == ["FromArrow"]
    assert _collect(ds).num_rows == want
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 0)
    ds, plan = scan_store(d, pred, ["conv_id", "turn_idx"], return_plan=True)
    assert plan["executor"] == "ray_data"
    assert {"Read", "MapBatches"} <= set(_logical_ops(ds))
    assert _collect(ds).num_rows == want


def test_small_scan_keeps_path_order(store):
    """Contiguous task slices: a task-built Dataset yields rows in path order."""
    scan = PrunedScan([store["dir"]], None)
    paths, _ = scan.candidates()
    assert scan.executor(paths) == "tasks"
    got = _collect(scan.dataset(paths, ["conv_id", "turn_idx"]))
    dec = scan._decoder(["conv_id", "turn_idx"], False)
    one = [dec._one(pathlib.Path(p).read_bytes()) for p in paths]
    assert got.equals(pa.concat_tables(one))


@pytest.fixture
def corrupt(ray_session, tmp_path):
    bad = str(tmp_path / "bad")
    encode_dataset(ray.data.from_arrow(make_transcripts(3_000, seed=42)), bad, n_parts=3)
    victim = PrunedScan([bad], None).members[0][2][1]  # not the schema footer
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    return bad


def test_corrupt_container_fails_loudly(corrupt, monkeypatch):
    """The tasks raise the decoder's own ``ValueError``: an operator from
    ``run``, a small scan when it is called. A large scan raises when it is
    consumed, as Ray Data's ``UserCodeException`` naming the error."""
    from parquet_converter_ray.storeagg import store_agg

    pred = [("turn_idx", "<", 3)]  # no footer probe: the decode finds it
    with pytest.raises(ValueError, match="bad container magic"):
        store_agg(corrupt, ["count"], pred)
    with pytest.raises(ValueError, match="bad container magic"):
        scan_store(corrupt, pred)
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 0)
    ds = scan_store(corrupt, pred)
    with pytest.raises(ray.exceptions.UserCodeException, match="bad container magic"):
        _collect(ds)


@pytest.mark.parametrize("share", list(SHARES.values()))
def test_scan_leaves_chained_udf_errors_to_ray_data(store, monkeypatch, share):
    """A scan's Dataset carries Ray Data's own context: a UDF the caller
    chains onto it fails as on any Dataset."""

    def boom(batch):
        raise KeyError("caller's UDF")

    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", share)
    ds = scan_store(store["dir"], [("turn_idx", "<", 5)], ["turn_idx"])
    with pytest.raises(ray.exceptions.UserCodeException):
        _collect(ds.map_batches(boom, batch_format="pyarrow"))


def test_small_scan_before_ray_init(store):
    """A fresh process that never called ``ray.init()``: the small-plan scan
    starts Ray itself, as a Ray Data call would."""
    code = (
        "import ray\n"
        "from parquet_converter_ray.zonemap import scan_store\n"
        "assert not ray.is_initialized()\n"
        f"ds, plan = scan_store({store['dir']!r}, [('turn_idx', '<', 5)], ['turn_idx'],"
        " return_plan=True)\n"
        "assert plan['executor'] == 'tasks', plan\n"
        "print('ROWS', ds.count())\n"
        "ray.shutdown()\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        cwd=repo, env=env, timeout=300)
    assert cp.returncode == 0, cp.stderr[-2000:]
    t = store["table"]
    assert f"ROWS {t.filter(pc.less(t['turn_idx'], 5)).num_rows}" in cp.stdout
