"""Store FAMILIES: several encoded stores scanned as one logical table.

The lifecycle that produces families: incremental deliveries each encoded
into their own store (no rewrite of history), queried together until a
compaction conforms them. Every store verb takes a directory or a list of
them (a list is one family): ``scan_store`` over a family must run the full
pruning stack per store, decode the survivors without moving rows, and
refuse schema drift loudly.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from parquet_converter_ray.encode import encode_dataset
from parquet_converter_ray.synth import make_transcripts
from parquet_converter_ray.zonemap import scan_store

N = 9_000


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({})
    return pa.concat_tables(batches)


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


@pytest.fixture(scope="module")
def family(ray_session, tmp_path_factory):
    """Two deliveries of the same transcript schema, each its own store."""
    root = tmp_path_factory.mktemp("fam")
    a = make_transcripts(N, seed=21)
    b = make_transcripts(N // 2, seed=22, conv_offset=10_000_000)
    dirs = []
    for name, tbl, parts in (("d0", a, 4), ("d1", b, 3)):
        out = str(root / name)
        encode_dataset(ray.data.from_arrow(tbl), out, n_parts=parts)
        dirs.append(out)
    return {"dirs": dirs, "all": pa.concat_tables([a, b])}


def test_family_scan_equals_filter_over_union(family):
    pred = [("role", "==", "user"), ("turn_idx", "<", 40)]
    ds, plan = scan_store(family["dirs"], pred, return_plan=True)
    got = _sorted(_collect(ds))
    want = _sorted(
        family["all"].filter(
            (pc.field("role") == "user") & (pc.field("turn_idx") < 40)
        )
    )
    assert got.num_rows == want.num_rows > 0
    assert got.select(want.column_names).equals(want)
    # merged plan: totals are the sum of the per-store breakdowns
    stores = plan["stores"]
    assert set(stores) == set(family["dirs"])
    for k in ("parts_total", "pruned_stats", "pruned_hash", "pruned_dict",
              "pruned_bloom", "scanned"):
        assert plan[k] == sum(p[k] for p in stores.values())
    assert plan["parts_total"] == 7  # 4 + 3


def test_family_single_member_matches_scan_store(family):
    d = family["dirs"][0]
    pred = [("turn_idx", ">=", 100)]
    a_ds, a_plan = scan_store(d, pred, return_plan=True)
    m_ds, m_plan = scan_store([d], pred, return_plan=True)
    assert _sorted(_collect(a_ds)).equals(_sorted(_collect(m_ds)))
    assert m_plan["stores"][d] == a_plan["stores"][d]
    assert m_plan == a_plan


def test_family_pruning_still_applies_per_store(family):
    # hash routing on the partition key prunes inside EACH member store
    conv = family["all"]["conv_id"][0].as_py()
    ds, plan = scan_store(family["dirs"], [("conv_id", "==", conv)],
                                return_plan=True)
    got = _collect(ds)
    assert got.num_rows == pc.sum(
        pc.equal(family["all"]["conv_id"], conv)
    ).as_py()
    assert plan["pruned_hash"] >= 1  # at least the other store's buckets dropped
    assert plan["scanned"] < plan["parts_total"]


def test_family_schema_drift_refused(ray_session, family, tmp_path):
    drifted = str(tmp_path / "drifted")
    t = make_transcripts(2_000, seed=23).drop_columns(["tool"])
    encode_dataset(ray.data.from_arrow(t), drifted, n_parts=2)
    with pytest.raises(ValueError, match="family schemas differ"):
        scan_store(family["dirs"] + [drifted], [("role", "==", "user")])
    # restricting to the agreeing column subset makes the family scannable
    ds = scan_store(
        family["dirs"] + [drifted],
        [("role", "==", "user")],
        columns=["conv_id", "turn_idx", "role"],
    )
    got = _collect(ds)
    assert got.column_names == ["conv_id", "turn_idx", "role"]
    want = pc.sum(pc.equal(family["all"]["role"], "user")).as_py() + pc.sum(
        pc.equal(t["role"], "user")
    ).as_py()
    assert got.num_rows == want


def test_family_empty_input_refused():
    with pytest.raises(ValueError, match="at least one store"):
        scan_store([], [("role", "==", "user")])


def test_cli_scan_family_count_and_rows(family, capsys):
    from parquet_converter_ray.cli import main

    # metadata-first count sums per-store answers
    rc = main(["scan", *family["dirs"], "--where", "role==user", "--count"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = pc.sum(pc.equal(family["all"]["role"], "user")).as_py()
    assert out["rows"] == want
    assert set(out["plan"]["stores"]) == set(family["dirs"])  # per-store breakdown

    # row-returning scan over the family
    rc = main([
        "scan", *family["dirs"], "--where", "turn_idx<5",
        "--columns", "conv_id", "--limit", "0",
    ])
    assert rc == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["rows"] == pc.sum(pc.less(family["all"]["turn_idx"], 5)).as_py()
    assert set(out2["plan"]["stores"]) == set(family["dirs"])


# --- compact_dataset over a family: the lifecycle's other half -------------------------------


def test_compact_family_roundtrip(family, tmp_path):
    from parquet_converter_ray import manifest as mf
    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import compact_dataset

    out = str(tmp_path / "conformed")
    summary = compact_dataset(family["dirs"], out, n_parts=3)
    assert summary["rows"] == family["all"].num_rows
    got = _sorted(pa.concat_tables(
        list(decode_dataset(out).iter_batches(batch_format="pyarrow"))
    ))
    want = _sorted(family["all"])
    assert got.select(want.column_names).equals(want)
    # the conformed store is one store: layout recorded, scannable, routable
    run = mf.load_run_record(out)
    assert run["conv_col"] == "conv_id" and run["n_parts"] == 3
    conv = family["all"]["conv_id"][0].as_py()
    ds, plan = scan_store(out, [("conv_id", "==", conv)], return_plan=True)
    assert plan["pruned_hash"] >= 1  # hash route works on the rewritten store
    assert _collect(ds).num_rows > 0


def test_compact_family_conforms_schema_drift(ray_session, family, tmp_path):
    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import compact_dataset, encode_dataset

    drifted = str(tmp_path / "drifted")
    t = make_transcripts(2_000, seed=24, conv_offset=20_000_000).drop_columns(["tool"])
    encode_dataset(ray.data.from_arrow(t), drifted, n_parts=2)
    dirs = family["dirs"] + [drifted]

    # un-evolved drift is refused with per-store detail
    with pytest.raises(ValueError, match="still differ after drop/add"):
        compact_dataset(dirs, str(tmp_path / "never"))

    # dropping the retired column conforms the family (members without it skip)
    out = str(tmp_path / "conformed")
    summary = compact_dataset(dirs, out, drop_columns=["tool"])
    assert summary["rows"] == family["all"].num_rows + t.num_rows
    got = pa.concat_tables(
        list(decode_dataset(out).iter_batches(batch_format="pyarrow"))
    )
    assert "tool" not in got.column_names
    assert got.num_rows == summary["rows"]

    # adding a typed-constant column backfills uniformly across members
    out2 = str(tmp_path / "widened")
    compact_dataset(dirs, out2, drop_columns=["tool"],
                   add_columns={"delivery": (pa.string(), "legacy")})
    got2 = pa.concat_tables(
        list(decode_dataset(out2, columns=["delivery"]).iter_batches(
            batch_format="pyarrow"))
    )
    assert got2["delivery"].to_pylist() == ["legacy"] * summary["rows"]


def test_compact_family_key_mismatch_refused(ray_session, family, tmp_path):
    from parquet_converter_ray.encode import compact_dataset, encode_dataset

    other = str(tmp_path / "otherkey")
    t = make_transcripts(1_000, seed=25, conv_offset=30_000_000)
    encode_dataset(ray.data.from_arrow(t), other, n_parts=2,
                   conv_col="role", order_col="turn_idx",
                   sort_key=("role", "turn_idx"), salt_rows=0)
    with pytest.raises(ValueError, match="disagree on \\(conv_col"):
        compact_dataset([family["dirs"][0], other], str(tmp_path / "never"))


def test_compact_refuses_drop_no_member_carries(ray_session, family, tmp_path):
    """A ``drop_columns`` entry that no member carries (a typo) is refused
    before anything is written, for one store and for a family. A column
    that only some members carry is still skipped where it is absent
    (``test_compact_family_conforms_schema_drift``)."""
    from parquet_converter_ray.encode import compact_dataset

    one, fam = tmp_path / "one", tmp_path / "fam"
    with pytest.raises(ValueError, match=r"drop_columns \['tol'\] are in no member"):
        compact_dataset(family["dirs"][0], str(one), drop_columns=["tol"])
    with pytest.raises(ValueError, match=r"drop_columns \['tol'\] are in no member"):
        compact_dataset(family["dirs"], str(fam), drop_columns=["tool", "tol"])
    assert not one.exists() and not fam.exists()


def test_cli_compact_family(family, tmp_path, capsys):
    from parquet_converter_ray.cli import main
    from parquet_converter_ray.decode import decode_dataset

    out = str(tmp_path / "cli-conformed")
    rc = main(["compact", *family["dirs"], out, "--n-parts", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == family["all"].num_rows
    assert summary["partitions"] == 2
    got = pa.concat_tables(
        list(decode_dataset(out).iter_batches(batch_format="pyarrow"))
    )
    assert got.num_rows == family["all"].num_rows


# --- store_agg: metadata-first aggregates over a family -----------------


def test_agg_family_folds_exactly(family):
    from parquet_converter_ray.storeagg import store_agg

    res, plan = store_agg(
        family["dirs"],
        ["count", "nn:tool", "min:turn_idx", "max:turn_idx", "sum:turn_idx"],
        return_plan=True,
    )
    all_t = family["all"]
    assert res["count"] == all_t.num_rows
    assert res["nn_tool"] == all_t.num_rows - all_t["tool"].null_count
    assert res["min_turn_idx"] == pc.min(all_t["turn_idx"]).as_py()
    assert res["max_turn_idx"] == pc.max(all_t["turn_idx"]).as_py()
    assert res["sum_turn_idx"] == pc.sum(all_t["turn_idx"]).as_py()
    # whole-store aggregates answer from metadata alone in EVERY member
    assert plan["scanned"] == 0
    assert plan["meta_answered"] == plan["parts_total"] == 7
    assert set(plan["stores"]) == set(family["dirs"])


def test_agg_family_predicate_matches_ground_truth(family):
    from parquet_converter_ray.storeagg import store_agg

    res = store_agg(
        family["dirs"], ["count", "sum:turn_idx"], [("role", "==", "user")]
    )
    mask = pc.equal(family["all"]["role"], "user")
    assert res["count"] == pc.sum(mask).as_py()
    assert res["sum_turn_idx"] == pc.sum(
        pc.if_else(mask, family["all"]["turn_idx"], 0)
    ).as_py()


def test_agg_family_type_mismatch_refused(ray_session, family, tmp_path):
    from parquet_converter_ray.encode import encode_dataset
    from parquet_converter_ray.storeagg import store_agg

    # same column name, different type family: turn_idx as float
    t = make_transcripts(1_000, seed=26, conv_offset=40_000_000)
    t = t.set_column(
        t.schema.get_field_index("turn_idx"),
        "turn_idx",
        pc.cast(t["turn_idx"], pa.float64()),
    )
    other = str(tmp_path / "floatidx")
    encode_dataset(ray.data.from_arrow(t), other, n_parts=2)
    with pytest.raises(ValueError, match="disagree on aggregate/predicate column types"):
        store_agg([family["dirs"][0], other], ["sum:turn_idx"])
    # columns the aggregate never touches may drift freely
    res = store_agg([family["dirs"][0], other], ["count"])
    assert res["count"] == N + 1_000


def test_cli_agg_family(family, capsys):
    from parquet_converter_ray.cli import main

    rc = main([
        "agg", *family["dirs"], "--agg", "count", "--agg", "max:turn_idx",
        "--where", "role==assistant",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    mask = pc.equal(family["all"]["role"], "assistant")
    assert out["result"]["count"] == pc.sum(mask).as_py()
    assert out["result"]["max_turn_idx"] == pc.max(
        pc.if_else(mask, family["all"]["turn_idx"], -1)
    ).as_py()


# --- family diff: prove a conformed store equal to its deliveries --------------


def test_diff_family_vs_conformed(family, tmp_path, capsys):
    from parquet_converter_ray.cli import main
    from parquet_converter_ray.decode import store_diff
    from parquet_converter_ray.encode import compact_dataset

    out = str(tmp_path / "conformed")
    compact_dataset(family["dirs"], out, n_parts=2)
    res = store_diff(family["dirs"], out)
    assert res["equal"] and res["a"]["rows"] == family["all"].num_rows

    # a missing delivery is caught (rows + fingerprints disagree)
    res2 = store_diff([family["dirs"][0]], out)
    assert not res2["equal"]
    assert res2["a"]["rows"] < res2["b"]["rows"]

    # CLI: family --against conformed, rc 0 on equal / 3 on mismatch
    assert main(["diff", *family["dirs"], "--against", out]) == 0
    capsys.readouterr()
    assert main(["diff", family["dirs"][0], "--against", out]) == 3
    capsys.readouterr()
    # two-store form still works and a lone positional is refused
    assert main(["diff", family["dirs"][0], family["dirs"][0]]) == 0
    capsys.readouterr()
    assert main(["diff", family["dirs"][0]]) == 2


def test_family_probe_is_one_job(family, monkeypatch):
    """The footer probe batches every member's candidates into ONE job —
    planning cost must not grow a per-member Ray-job latency."""
    from parquet_converter_ray import zonemap

    calls = []
    real = zonemap.probe_verdicts

    def spy(paths, dnf):
        calls.append(list(paths))
        return real(paths, dnf)

    monkeypatch.setattr(zonemap, "probe_verdicts", spy)
    ds, plan = scan_store(
        family["dirs"], [("role", "==", "user")], return_plan=True
    )
    got = _collect(ds).num_rows
    assert got == pc.sum(pc.equal(family["all"]["role"], "user")).as_py()
    assert len(calls) == 1  # one probe job for the whole family
    assert len(calls[0]) == plan["parts_total"] - plan["pruned_stats"] - plan["pruned_hash"]


def test_family_lookup_spans_deliveries(ray_session, tmp_path, capsys):
    """A conversation whose turns arrive across two deliveries reads back
    whole and in turn order from the family lookup."""
    from parquet_converter_ray.cli import main
    from parquet_converter_ray.decode import lookup_conversation

    t = make_transcripts(4_000, seed=27)
    conv = t["conv_id"][0].as_py()  # the mega-conversation: many turns
    idx = pc.equal(t["conv_id"], conv)
    mine = t.filter(idx)
    cut = mine.num_rows // 2
    cut_turn = mine["turn_idx"][cut].as_py()
    early = t.filter(pc.or_(pc.invert(idx), pc.less(t["turn_idx"], cut_turn)))
    late = t.filter(pc.and_(idx, pc.greater_equal(t["turn_idx"], cut_turn)))
    dirs = []
    for name, part in (("d0", early), ("d1", late)):
        out = str(tmp_path / name)
        encode_dataset(ray.data.from_arrow(part), out, n_parts=2, salt_rows=64)
        dirs.append(out)

    got = lookup_conversation(dirs, conv)
    assert got.num_rows == mine.num_rows
    assert got["turn_idx"].to_pylist() == sorted(mine["turn_idx"].to_pylist())

    rc = main(["lookup", *dirs, conv, "--limit", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] == mine.num_rows


def test_family_scan_disjunction(family):
    """OR-of-conjunction predicates prune and filter correctly per member."""
    pred = ("or", [
        [("turn_idx", "<", 3)],
        [("role", "==", "system"), ("turn_idx", ">=", 100)],
    ])
    ds, plan = scan_store(family["dirs"], pred, return_plan=True)
    got = _collect(ds)
    t = family["all"]
    want = pc.sum(pc.or_(
        pc.less(t["turn_idx"], 3),
        pc.and_(pc.equal(t["role"], "system"), pc.greater_equal(t["turn_idx"], 100)),
    )).as_py()
    assert got.num_rows == want > 0
    assert plan["parts_total"] == 7


def test_family_profile_folds_metadata_only(family):
    from parquet_converter_ray.zonemap import store_profile

    prof = store_profile(family["dirs"])
    t = family["all"]
    assert prof["rows"] == t.num_rows
    assert prof["partitions"] == 7
    per = [store_profile(d) for d in family["dirs"]]
    assert prof["bytes_out"] == sum(p["bytes_out"] for p in per)
    c = prof["columns"]["turn_idx"]
    assert c["min"] == pc.min(t["turn_idx"]).as_py()
    assert c["max"] == pc.max(t["turn_idx"]).as_py()
    assert prof["columns"]["tool"]["nulls"] == t["tool"].null_count
    assert prof["stores"] == dict(zip(family["dirs"], per))
    # a family of one folds to the store's own profile
    d = family["dirs"][0]
    one = {k: v for k, v in per[0].items() if k != "generations"}
    assert store_profile([d]) == {**one, "stores": {d: per[0]}}


def test_family_decode_export(family, tmp_path, capsys):
    from parquet_converter_ray.cli import main
    from parquet_converter_ray.decode import decode_dataset

    got = _sorted(_collect(decode_dataset(family["dirs"])))
    want = _sorted(family["all"])
    assert got.select(want.column_names).equals(want)

    # column-pruned family decode
    two = _collect(decode_dataset(family["dirs"], columns=["conv_id", "role"]))
    assert two.column_names == ["conv_id", "role"]
    assert two.num_rows == want.num_rows

    # CLI export of the whole family to parquet
    out = str(tmp_path / "export")
    rc = main(["decode", *family["dirs"], out])
    assert rc == 0
    back = ray.data.read_parquet(out).count()
    assert back == want.num_rows


def test_family_decode_schema_drift_refused(ray_session, family, tmp_path, monkeypatch):
    """Disagreeing member schemas are refused before any container decodes."""
    from parquet_converter_ray import zonemap
    from parquet_converter_ray.decode import decode_dataset
    from parquet_converter_ray.encode import encode_dataset

    drifted = str(tmp_path / "drifted2")
    t = make_transcripts(1_500, seed=28, conv_offset=50_000_000).drop_columns(["tool"])
    encode_dataset(ray.data.from_arrow(t), drifted, n_parts=2)
    real, fanouts = zonemap.decoded_dataset, []
    monkeypatch.setattr(zonemap, "decoded_dataset",
                        lambda *a: fanouts.append(a) or real(*a))
    with pytest.raises(ValueError, match="family schemas differ"):
        decode_dataset(family["dirs"] + [drifted])
    assert not fanouts
    # pruning to the agreeing subset exports fine
    ds = decode_dataset(family["dirs"] + [drifted], columns=["conv_id", "turn_idx"])
    assert _collect(ds).num_rows == family["all"].num_rows + t.num_rows


def test_family_decode_starts_no_job(family, monkeypatch):
    """A family under the crossover decodes as ONE fan-out over every
    member's containers, in plain Ray tasks: no Ray Data job, neither to
    build the Dataset nor to iterate or count it."""
    from test_footer_tasks import _count_jobs

    from parquet_converter_ray import zonemap
    from parquet_converter_ray.decode import decode_dataset

    real, fanouts = zonemap.decoded_dataset, []
    monkeypatch.setattr(zonemap, "decoded_dataset",
                        lambda *a: fanouts.append(a) or real(*a))
    jobs = _count_jobs(monkeypatch)
    ds = decode_dataset(family["dirs"])
    assert _collect(ds).num_rows == ds.count() == family["all"].num_rows
    assert len(fanouts) == 1 and len(fanouts[0][0]) == 7  # 4 + 3 containers
    assert not jobs


def test_agg_family_scan_remainder_is_one_job(family, monkeypatch):
    """Undecidable containers across members fold in ONE partials job."""
    from parquet_converter_ray import storeagg, zonemap

    calls = []
    real = zonemap.PrunedScan.run

    def spy(self, paths, *a, **kw):
        calls.append(list(paths))
        return real(self, paths, *a, **kw)

    monkeypatch.setattr(zonemap.PrunedScan, "run", spy)
    # role== is not provable full-match by zone maps (mixed roles per
    # container), so every unpruned container lands in the scan remainder
    res, plan = storeagg.store_agg(
        family["dirs"], ["count"], [("role", "==", "user")], return_plan=True
    )
    assert res["count"] == pc.sum(pc.equal(family["all"]["role"], "user")).as_py()
    assert plan["scanned"] > 0
    assert len(calls) == 1
    assert len(calls[0]) == plan["scanned"]
