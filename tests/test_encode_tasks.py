"""Small encodes and decodes as plain Ray tasks.

``encode_dataset``, ``append_dataset`` and ``upsert_dataset`` exchange a
small input (local Parquet files or a materialized Dataset under the
crossover ``zonemap.fits_tasks``) in map and reduce tasks, and
``decode_dataset`` decodes a small store in slice tasks
(``zonemap.map_slices``); past the crossover each streams as one Ray Data
job. Forcing the streaming side with ``_TASKS_MAX_STORE_SHARE = 0``, these
tests pin that both write crc-identical containers and read equal tables,
that the small side starts no Ray Data job, that a failed encode leaves
nothing running that could still write, and that a corrupt container and a
process without ``ray.init()`` behave as on the streaming side.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray

from parquet_converter_ray import manifest as mf
from parquet_converter_ray import zonemap
from parquet_converter_ray.decode import container_files, decode_dataset
from parquet_converter_ray.encode import append_dataset, encode_dataset, upsert_dataset
from parquet_converter_ray.synth import make_transcripts
from test_footer_tasks import _collect, _count_jobs
from test_task_executor import _logical_ops

N = 6_000
LAYOUTS = {
    "hash": {},
    "range": {"cluster_by": "ts"},
    "blooms": {"bloom_cols": ["conv_id"], "text_bloom_cols": ["text"]},
}


@pytest.fixture(scope="module")
def data(ray_session, tmp_path_factory):
    """A shuffled transcript table written as two Parquet files of several
    row groups each, so the map side runs more than one task."""
    t = make_transcripts(N, seed=17)
    t = t.take(pa.array(list(range(0, N, 2)) + list(range(1, N, 2))))
    d = tmp_path_factory.mktemp("etasks_in")
    half = N // 2
    for i in range(2):
        pq.write_table(t.slice(i * half, half), str(d / f"in-{i}.parquet"), row_group_size=700)
    return {"dir": str(d), "table": t}


def _crcs(out: str) -> dict:
    return {os.path.basename(r["path"]): r["crc32"] for r in mf.load_records(out)}


def _encode(source, out, monkeypatch, executor, **kw) -> dict:
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE",
                        1 / 6 if executor == "tasks" else 0)
    summary = encode_dataset(source, out, n_parts=4, salt_rows=500, **kw)
    assert summary["executor"] == executor
    return summary


def _delivery(op: str, t: pa.Table) -> "tuple[pa.Table, pa.Table]":
    """A base table and a delivery into it: for an append the rows the base
    lacks, for an upsert also every third base row with new text."""
    base, new = t.slice(0, 4_000), t.slice(4_000)
    if op == "append":
        return base, new
    old = base.take(pa.array(range(0, 4_000, 3)))
    text = pc.binary_join_element_wise("rev", pc.fill_null(old["text"], ""), " ")
    old = old.set_column(old.schema.get_field_index("text"), "text", text)
    return base, pa.concat_tables([old, new])


@pytest.mark.parametrize("layout", [*LAYOUTS, "append", "upsert"])
@pytest.mark.parametrize("src", ["path", "from_arrow"])
def test_tasks_match_streaming(data, tmp_path, monkeypatch, layout, src):
    """Both executors write the same containers and report the same summary
    for each layout and source, and for an append or an upsert delivered
    from that source into a hash store."""
    t = data["table"]
    if layout in LAYOUTS:
        source = (data["dir"] if src == "path"
                  else lambda: ray.data.from_arrow([t.slice(0, 2_500), t.slice(2_500)]))
    else:
        base, t = _delivery(layout, t)
        source = lambda: ray.data.from_arrow(t)  # noqa: E731
        if src == "path":
            os.makedirs(tmp_path / "d")
            pq.write_table(t, str(tmp_path / "d" / "d.parquet"), row_group_size=700)
            source = str(tmp_path / "d")
    got, summaries = {}, {}
    for ex in ("tasks", "ray_data"):
        out = str(tmp_path / ex)
        inp = source() if callable(source) else source
        if layout in LAYOUTS:
            s = _encode(inp, out, monkeypatch, ex, **LAYOUTS[layout])
            assert s["rows"] == N
        else:
            encode_dataset(ray.data.from_arrow(base), out, n_parts=4, salt_rows=500)
            monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE",
                                1 / 6 if ex == "tasks" else 0)
            s = (append_dataset if layout == "append" else upsert_dataset)(inp, out)
            assert s["executor"] == ex
        got[ex] = _crcs(out)
        summaries[ex] = {k: v for k, v in s.items() if k != "executor"}
    assert len(got["tasks"]) == (8 if layout == "append" else 4)
    assert got["tasks"] == got["ray_data"]
    assert summaries["tasks"] == summaries["ray_data"]
    if layout == "upsert":
        assert summaries["tasks"]["rows_updated"] == len(range(0, 4_000, 3))


def test_failed_encode_drains_then_resumes(data, tmp_path, monkeypatch):
    """A reduce task fails while another is still encoding: the call raises
    only after that one has written its container, nothing is written
    after the raise, and a resume completes to the same containers as a
    streaming encode."""

    def bomb(part_id: int):
        if part_id == 3:
            raise RuntimeError("injected failure on partition 3")
        if part_id == 0:
            time.sleep(2)

    out = str(tmp_path / "enc")
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 1 / 6)
    with pytest.raises(RuntimeError, match="injected failure"):
        encode_dataset(data["dir"], out, n_parts=4, salt_rows=500, fault_hook=bomb)
    written = {p: os.path.getsize(p) for p in container_files(out)}
    assert mf.completed_parts(out) == {0, 1, 2}
    time.sleep(3)
    assert {p: os.path.getsize(p) for p in container_files(out)} == written

    ref = str(tmp_path / "ref")
    _encode(data["dir"], ref, monkeypatch, "ray_data")
    s = _encode(data["dir"], out, monkeypatch, "tasks", resume=True)
    assert s["partitions"] == 4 and s["rows"] == N
    assert _crcs(out) == _crcs(ref)


def test_resume_under_streaming_matches(data, tmp_path, monkeypatch):
    """A task encode interrupted by a failure resumes on the streaming side
    to the same containers."""

    def bomb(part_id: int):
        if part_id >= 2:
            raise RuntimeError("injected")

    out = str(tmp_path / "enc")
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 1 / 6)
    with pytest.raises(RuntimeError):
        encode_dataset(data["dir"], out, n_parts=4, salt_rows=500, fault_hook=bomb)
    assert mf.completed_parts(out) == {0, 1}
    _encode(data["dir"], out, monkeypatch, "ray_data", resume=True)
    ref = str(tmp_path / "ref")
    _encode(data["dir"], ref, monkeypatch, "tasks")
    assert _crcs(out) == _crcs(ref)


@pytest.mark.parametrize("executor", ["tasks", "ray_data"])
def test_run_record_precedes_every_reducer(data, tmp_path, monkeypatch, executor):
    """The task exchange trains the FSST tables while its map tasks run,
    and submits no reducer before the run record holds the tables; the
    streaming exchange trains before its job starts."""
    from parquet_converter_ray import encode

    out = str(tmp_path / "enc")
    run_json = mf.run_record_path(out)

    def check(part_id: int):
        import json

        with open(run_json) as f:
            if not json.load(f).get("fsst_tables"):
                raise RuntimeError("a reducer ran before the FSST tables were recorded")

    events, real_remote, real_train = [], encode._remote, encode._train_tables

    class Spy:
        def __init__(self, fn):
            self.fn, self.name = real_remote(fn), fn.__name__

        def options(self, **kw):
            self.fn = self.fn.options(**kw)
            return self

        def remote(self, *a):
            events.append(self.name)
            return self.fn.remote(*a)

    def train(*a):
        events.append("train")
        return real_train(*a)

    monkeypatch.setattr(encode, "_remote", Spy)
    monkeypatch.setattr(encode, "_train_tables", train)
    s = _encode(data["dir"], out, monkeypatch, executor, fault_hook=check)
    assert s["rows"] == N and s["fsst_shared"] == ["conv_id", "role", "text", "tool"]
    if executor == "tasks":
        n_maps = events.count("_exchange_map")
        assert n_maps > 1
        assert events == ["_exchange_map"] * n_maps + ["train"] + ["_exchange_reduce"] * 4
    else:
        assert events == ["train"]


def test_failed_training_drains_the_map_tasks(data, tmp_path, monkeypatch):
    """Training raises while the map tasks still run: the call re-raises
    only after every map task has finished, and no reducer, container or
    run record is written."""
    from parquet_converter_ray import encode

    done_dir = tmp_path / "mapped"
    done_dir.mkdir()
    real_assign_for = encode._assign_for

    def slow_assign_for(run):
        assign = real_assign_for(run)

        def slow(table):
            import uuid

            time.sleep(1.0)
            open(os.path.join(str(done_dir), uuid.uuid4().hex), "w").close()
            return assign(table)

        return slow

    def fail(*a):
        raise RuntimeError("injected training failure")

    monkeypatch.setattr(encode, "_assign_for", slow_assign_for)
    monkeypatch.setattr(encode, "_train_tables", fail)
    out = str(tmp_path / "enc")
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 1 / 6)
    with pytest.raises(RuntimeError, match="injected training failure"):
        encode_dataset(data["dir"], out, n_parts=4, salt_rows=500)
    finished = len(os.listdir(done_dir))
    assert finished > 1
    time.sleep(1.5)
    assert len(os.listdir(done_dir)) == finished
    assert os.listdir(out) == []  # no container, lineage record or run record


def test_streaming_exchange_plans_the_sort_shuffle(data, tmp_path, monkeypatch):
    """The streaming exchange groups by ``part_id`` through Ray Data's sort
    shuffle. Ray 2.49's hash shuffle asks for 64 aggregator actors (16 CPUs,
    33 GiB) and an encode of this input under it had not finished after
    3 minutes on a 4-CPU session."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    ops, real = [], StreamingExecutor.execute

    def spy(self, dag, *a, **kw):
        stack = [dag]
        while stack:
            op = stack.pop()
            ops.append(op.name)
            stack.extend(op.input_dependencies)
        return real(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    _encode(data["dir"], str(tmp_path / "enc"), monkeypatch, "ray_data")
    assert "Sort" in ops
    assert not [name for name in ops if "Shuffle" in name or "Repartition" in name]


def test_small_encode_and_decode_start_no_ray_data_job(data, tmp_path, monkeypatch):
    out = str(tmp_path / "enc")
    jobs = _count_jobs(monkeypatch)
    s = encode_dataset(data["dir"], out, n_parts=4)
    assert s["executor"] == "tasks" and not jobs
    s = encode_dataset(ray.data.from_arrow(data["table"]), str(tmp_path / "a"), n_parts=4)
    assert s["executor"] == "tasks" and not jobs
    # an empty materialized Dataset is sized as it is: nothing to write
    s = encode_dataset(ray.data.from_arrow(data["table"].slice(0, 0)), str(tmp_path / "e"),
                       n_parts=4)
    assert s["executor"] == "tasks" and s["rows"] == 0 and not jobs
    ds = decode_dataset(out)
    assert ds.count() == N and not jobs
    assert _logical_ops(ds) == ["FromArrow"]
    new = make_transcripts(300, seed=18, conv_offset=1_000_000)
    pq.write_table(new, str(tmp_path / "new.parquet"))
    s = append_dataset(str(tmp_path / "new.parquet"), out)
    assert s["executor"] == "tasks" and s["rows_appended"] == 300 and not jobs
    s = upsert_dataset(ray.data.from_arrow(new.slice(0, 50)), out)
    assert s["executor"] == "tasks" and s["rows_updated"] == 50 and not jobs
    assert s["rows"] == N + 300


@pytest.fixture(scope="module")
def store(data, tmp_path_factory):
    """A two-generation store: a base encode plus one appended delivery."""
    out = str(tmp_path_factory.mktemp("etasks_store") / "s")
    t = data["table"]
    encode_dataset(ray.data.from_arrow(t.slice(0, 4_000)), out, n_parts=3)
    append_dataset(ray.data.from_arrow(t.slice(4_000)), out)
    return out


def _sorted(ds) -> pa.Table:
    t = _collect(ds)
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.parametrize("kw", [
    {},
    {"columns": ["conv_id", "text"]},
    {"verify_crc": True},
    {"max_generation": 0},
    {"max_generation": 1, "columns": ["turn_idx"]},
])
def test_small_decode_matches_streaming(store, monkeypatch, kw):
    small = decode_dataset(store, **kw)
    assert _logical_ops(small) == ["FromArrow"]
    monkeypatch.setattr(zonemap, "_TASKS_MAX_STORE_SHARE", 0)
    big = decode_dataset(store, **kw)
    assert {"Read", "MapBatches"} <= set(_logical_ops(big))
    want = _sorted(big)
    assert want.num_rows == (4_000 if kw.get("max_generation") == 0 else N)
    assert _sorted(small).equals(want)


def test_small_decode_keeps_path_order(store):
    """Contiguous task slices: a task-built Dataset yields rows in path order."""
    from parquet_converter_ray.container import decode_table

    cols = ["conv_id", "turn_idx"]
    got = _collect(decode_dataset(store, columns=cols))
    one = []
    for p in container_files(store):
        with open(p, "rb") as f:
            one.append(decode_table(f.read(), columns=cols))
    assert got.equals(pa.concat_tables(one))


def test_truncated_container_raises_from_decode(ray_session, tmp_path):
    bad = str(tmp_path / "bad")
    encode_dataset(ray.data.from_arrow(make_transcripts(3_000, seed=44)), bad, n_parts=3)
    victim = container_files(bad)[1]
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    with pytest.raises(ValueError, match="bad container magic"):
        decode_dataset(bad)


def test_small_encode_before_ray_init(data, tmp_path):
    """A fresh process that never called ``ray.init()``: the small encode and
    decode start Ray themselves, as a Ray Data call would."""
    out = str(tmp_path / "fresh")
    code = (
        "import ray\n"
        "from parquet_converter_ray.encode import encode_dataset\n"
        "from parquet_converter_ray.decode import decode_dataset\n"
        "assert not ray.is_initialized()\n"
        f"s = encode_dataset({data['dir']!r}, {out!r}, n_parts=3)\n"
        "assert s['executor'] == 'tasks', s\n"
        f"print('ROWS', s['rows'], decode_dataset({out!r}).count())\n"
        "ray.shutdown()\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join([repo] + [p for p in [env.get("PYTHONPATH")] if p])
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        cwd=repo, env=env, timeout=300)
    assert cp.returncode == 0, cp.stderr[-2000:]
    assert f"ROWS {N} {N}" in cp.stdout
