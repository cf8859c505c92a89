"""One FSST table per string column per encode.

``encode_dataset`` trains each string column's table once, on the driver's
bounded sample of the input (``encode._Input.sample``), and records it in
``_run.json``; every partition compresses with it and append, upsert, the
deletes and resume reuse it. A store whose run record has no tables (a
lazy input, or one written before tables were recorded) keeps the
per-partition tables. These tests pin the record form, where training
happens, that every container carries the recorded symbols, and that a
table-less store still takes every write.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray

from parquet_converter_ray import codecs as C
from parquet_converter_ray import manifest as mf
from parquet_converter_ray.codecs import fsst as F
from parquet_converter_ray.codecs.strings import str_parts
from parquet_converter_ray.codecs.util import unwrap_buf
from parquet_converter_ray.container import unpack_container
from parquet_converter_ray.decode import decode_dataset, resolve_container_path
from parquet_converter_ray.encode import (
    _store_encoder,
    append_dataset,
    delete_conversations,
    delete_rows,
    encode_dataset,
    upsert_dataset,
)
from parquet_converter_ray.synth import make_transcripts
from test_footer_tasks import _collect

N = 4_000
STRING_COLS = ["conv_id", "role", "text", "tool"]
KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]


@pytest.fixture(scope="module")
def table() -> pa.Table:
    t = make_transcripts(N, seed=23)
    assert [f.name for f in t.schema if pa.types.is_string(f.type)] == STRING_COLS
    return t.take(pa.array(np.random.default_rng(3).permutation(N)))


@pytest.fixture
def train_calls(monkeypatch) -> list:
    """Every ``fsst.train`` call this process makes."""
    calls, real = [], F.train

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(F, "train", spy)
    return calls


def _tables(out: str) -> dict:
    return {c: F.FsstTable.from_record(r)
            for c, r in (mf.load_run_record(out).get("fsst_tables") or {}).items()}


def _fsst_symbols(out: str) -> "list[tuple[str, list[bytes]]]":
    """(column, symbols) of every FSST column of every container."""
    got = []
    for r in mf.load_records(out):
        with open(resolve_container_path(out, r), "rb") as f:
            _, blobs = unpack_container(f.read())
        for name, blob in blobs.items():
            if blob.codec == "fsst":
                got.append((name, F._split_syms(blob.meta, unwrap_buf(blob.bufs[1]))))
    return got


def _assert_recorded_symbols(out: str) -> None:
    tables = _tables(out)
    got = _fsst_symbols(out)
    assert {c for c, _ in got} >= {"text"}
    for col, syms in got:
        assert syms == tables[col].code_syms, col


def _rows(t: pa.Table) -> pa.Table:
    return t.select(sorted(t.column_names)).sort_by(KEY)


def test_table_record_round_trips(table):
    data = str_parts(table["text"].combine_chunks().fill_null(""))[1]
    t = F.train(data)
    back = F.FsstTable.from_record(json.loads(json.dumps(t.to_record())))
    assert back.merges == t.merges
    assert np.array_equal(back.code_map, t.code_map)
    assert back.code_map.dtype == t.code_map.dtype
    assert back.code_syms == t.code_syms
    assert F.compress(data, back) == F.compress(data, t)


def test_string_trial_sample_is_byte_capped(table):
    text = table["text"].combine_chunks().fill_null("")
    long = pa.concat_arrays([text] * 4)
    sample, n = C._sample("str", long, len(long))
    assert n == len(sample) <= C._SAMPLE_TARGET
    assert len(str_parts(sample)[1]) <= F._SAMPLE_CAP
    short = table["role"].combine_chunks()
    assert C._sample("str", short, len(short))[0] is short


def test_shared_table_encode_trains_nothing(table, train_calls):
    t = C.train_table(table["text"])
    assert len(train_calls) == 1
    blob = C.encode_array(table["text"], fsst_table=t)
    assert len(train_calls) == 1
    assert blob.codec == "fsst"
    assert C.decode_array(blob).equals(table["text"].combine_chunks())
    assert [s for s in C.codec_trials(table["text"].combine_chunks(), t) if "train_s" in s] == []


@pytest.mark.parametrize("src", ["path", "from_arrow"])
def test_encode_trains_once_per_string_column_on_the_driver(
        ray_session, table, tmp_path, train_calls, src):
    """The driver trains one table per string column; the reducers get
    them through ``_store_encoder`` and train none (an in-process reducer
    run counts 0 calls), so every container carries the recorded
    symbols."""
    if src == "path":
        os.makedirs(tmp_path / "in")
        pq.write_table(table, str(tmp_path / "in" / "t.parquet"), row_group_size=900)
        source = str(tmp_path / "in")
    else:
        source = ray.data.from_arrow([table.slice(0, 1_500), table.slice(1_500)])
    out = str(tmp_path / "enc")
    s = encode_dataset(source, out, n_parts=4, salt_rows=500)
    assert len(train_calls) == len(STRING_COLS)
    assert s["fsst_shared"] == STRING_COLS
    run = mf.load_run_record(out)
    assert sorted(run["fsst_tables"]) == STRING_COLS
    assert run["fsst_sample_s"] >= 0 and run["fsst_train_s"] > 0
    assert not set(run["fsst_tables"]) & set(mf.RUN_PARAM_KEYS)
    _assert_recorded_symbols(out)

    reducer = _store_encoder(str(tmp_path / "again"), run, "auto")
    os.makedirs(tmp_path / "again")
    reducer.encode_one(0, table.slice(0, 1_000))
    assert len(train_calls) == len(STRING_COLS)
    assert _rows(_collect(decode_dataset(out))).equals(_rows(table))


def test_resume_reuses_the_recorded_tables(ray_session, table, tmp_path, train_calls):
    """A resume trains nothing and writes the containers an uninterrupted
    encode writes."""
    os.makedirs(tmp_path / "in")
    pq.write_table(table, str(tmp_path / "in" / "t.parquet"), row_group_size=900)
    src, out, ref = str(tmp_path / "in"), str(tmp_path / "enc"), str(tmp_path / "ref")

    def bomb(part_id: int):
        if part_id >= 2:
            raise RuntimeError("injected")

    with pytest.raises(RuntimeError):
        encode_dataset(src, out, n_parts=4, salt_rows=500, fault_hook=bomb)
    recorded = mf.load_run_record(out)["fsst_tables"]
    del train_calls[:]
    s = encode_dataset(src, out, n_parts=4, salt_rows=500, resume=True)
    assert not train_calls and s["fsst_shared"] == STRING_COLS
    assert mf.load_run_record(out)["fsst_tables"] == recorded
    encode_dataset(src, ref, n_parts=4, salt_rows=500)
    crcs = {os.path.basename(r["path"]): r["crc32"] for r in mf.load_records(out)}
    assert crcs == {os.path.basename(r["path"]): r["crc32"] for r in mf.load_records(ref)}


def _writes(out: str, table: pa.Table, tmp_path) -> pa.Table:
    """Append, upsert, delete a conversation and delete rows on the store
    at ``out`` (encoded from the first 3,000 rows of ``table``); returns
    the rows the store must then hold."""
    base, rest = table.slice(0, 3_000), table.slice(3_000)
    pq.write_table(rest, str(tmp_path / "append.parquet"))
    s = append_dataset(str(tmp_path / "append.parquet"), out)
    assert s["rows_appended"] == rest.num_rows
    want = pa.concat_tables([base, rest])

    fix = want.slice(0, 200)
    fix = fix.set_column(fix.schema.get_field_index("text"), "text",
                         pc.binary_join_element_wise("fixed", pc.fill_null(fix["text"], ""), " "))
    pq.write_table(fix, str(tmp_path / "upsert.parquet"))
    s = upsert_dataset(str(tmp_path / "upsert.parquet"), out)
    assert s["rows_updated"] == fix.num_rows
    want = pa.concat_tables([want.slice(200), fix])

    victim = want["conv_id"][0].as_py()
    assert delete_conversations(out, [victim])["convs_found"] == 1
    want = want.filter(pc.not_equal(want["conv_id"], victim))
    s = delete_rows(out, [("role", "==", "tool")])
    assert s["rows_deleted"] > 0
    return want.filter(pc.invert(pc.fill_null(pc.equal(want["role"], "tool"), False)))


def test_writes_use_the_recorded_tables(ray_session, table, tmp_path, train_calls):
    """Append, upsert and both deletes write containers whose FSST columns
    carry the recorded symbols, and train nothing on the driver."""
    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(table.slice(0, 3_000)), out, n_parts=4, salt_rows=500)
    del train_calls[:]
    want = _writes(out, table, tmp_path)
    assert not train_calls
    _assert_recorded_symbols(out)
    assert _rows(_collect(decode_dataset(out))).equals(_rows(want))


def test_store_without_tables_takes_every_write(ray_session, table, tmp_path):
    """A run record without ``fsst_tables`` (a store written before tables
    were recorded) still appends, upserts, deletes and round-trips; its
    partitions train their own tables."""
    out = str(tmp_path / "enc")
    encode_dataset(ray.data.from_arrow(table.slice(0, 3_000)), out, n_parts=4, salt_rows=500)
    run = mf.load_run_record(out)
    for k in ("fsst_tables", "fsst_sample_s", "fsst_train_s"):
        run.pop(k)
    mf.write_run_record(out, run)
    want = _writes(out, table, tmp_path)
    assert "fsst_tables" not in mf.load_run_record(out)
    assert _rows(_collect(decode_dataset(out))).equals(_rows(want))


def test_lazy_input_records_no_table(ray_session, table, tmp_path):
    """A lazy Dataset has no driver-side read: no table is recorded, the
    partitions train their own, and the store round-trips."""
    out = str(tmp_path / "enc")
    s = encode_dataset(ray.data.from_arrow(table).map_batches(lambda b: b, batch_format="pyarrow"),
                       out, n_parts=4, salt_rows=500)
    assert s["fsst_shared"] == [] and mf.load_run_record(out)["fsst_tables"] == {}
    assert _rows(_collect(decode_dataset(out))).equals(_rows(table))
