"""The three workloads: ``ingest``, ``query`` and ``mutate``.

Each workload has a timed set-up (the engine work a run needs before its
loop), an untimed ``prepare`` that builds the reference answers, and rounds
of operations. A round is a fixed sequence of op kinds whose parameters are
drawn from the run's seed; the engine only ever sees the generated inputs.
The amount of work an op does (search tokens, upserted conversations,
grouping column) cycles with the round number, so every run sees the same
mix whatever its seed.
Every op result is checked against a reference the engine did not compute:
a fingerprint of the input (``ingest``), DuckDB over the input parquet
(``query``), or an Arrow model of the expected table (``mutate``).

Sizes are chosen so that one run, with its set-up repeated three times,
fits the benchmark's time budget on 2 Ray CPUs.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from parquet_converter_ray import decode, encode, manifest, synth
from parquet_converter_ray.pipelines._util import read_parquet_clean
from parquet_converter_ray.storeagg import store_agg
from parquet_converter_ray.storedistinct import store_distinct
from parquet_converter_ray.storegroup import store_agg_group
from parquet_converter_ray.storesearch import store_search
from parquet_converter_ray.storetopk import store_topk
from parquet_converter_ray.zonemap import scan_store

from .oracle import AGG_KEYS, STORE_COLUMNS, DuckOracle, null_last, table_rows
from .session import SETTINGS

INGEST_TURNS = 60_000
STORE_TURNS = 50_000
DELIVERY_TURNS = 5_000
MAX_CONV_TURNS = 200  # conversations drawn for lookups and upserts stay small
QUERY_POOL_ROUNDS = 6  # distinct query rounds per run (a multiple of 2 and 3)
# The input table's content comes from one fixed synth seed, so set-up work
# and compressed sizes do not move with --seed; the run's seed renames the
# conversations (which moves them between partitions), orders the rows and
# draws every op parameter and delivery.
DATA_SEED = 42
BLOOM_COLS = ["conv_id"]
TEXT_BLOOM_COLS = ["text"]

WHY = {
    "ingest": "bulk encode of a fresh synth table then a full decode: partition, exchange, "
              "sort, codecs, zone maps, container write and read; no query layer runs",
    "query": "closed loop of lookups, pushdown scans/aggregates/top-k/distinct and token "
             "search over a bloomed store: manifest, pruning, probes, decode; encode never runs",
    "mutate": "append, upsert and delete on a store built like query's, with a lookup after "
              "each: small writes, partition rewrites and reads over many generations",
}


@dataclass
class Op:
    """One engine call. ``call`` is timed; ``pre`` (input staging) and
    ``check`` (comparison with the reference) are not."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    pre: Callable[[], None] | None = None
    chain: list | None = None  # DNF the op reads with, replayed in traced rounds
    chain_cols: list | None = None  # columns the read decodes (None = all)
    chain_before: bool = False  # replay before the call (the op removes the rows)
    writes: bool = False
    user_bytes: int = 0
    info: dict = field(default_factory=dict)


def _dnf(clauses: list) -> list:
    return [list(clauses)]


class Workload:
    name = ""
    op_kinds: tuple = ()
    rewrite_kinds: tuple = ()  # ops whose manifest diff feeds encode.rewrite_*
    encode_kind = ""  # traced span whose wall is compared with replayed partition CPU
    setup_dirs: tuple = ()  # what one timed set-up writes
    warmup_rounds = 1  # untimed rounds before the measured ones

    def __init__(self, work: str, seed: int, tracer):
        self.work = work
        self.seed = seed % 2**32  # numpy seed sequences take non-negative ints
        self.tr = tracer
        self.summary: dict = {}

    def _dir(self, name: str) -> str:
        return os.path.join(self.work, name)

    def reset(self) -> None:
        """Remove the previous set-up's output (untimed)."""
        for name in self.setup_dirs:
            shutil.rmtree(self._dir(name), ignore_errors=True)

    def _write_input(self, turns: int) -> str:
        rng = np.random.default_rng([self.seed, 0])
        d = self._dir("input")
        os.makedirs(d)
        with self.tr.span("synth.make_transcripts", rows=turns):
            t = synth.make_transcripts(turns, seed=DATA_SEED,
                                       conv_offset=int(rng.integers(0, 40)) * 1_000_000)
            pq.write_table(t.take(rng.permutation(turns)), os.path.join(d, "input.parquet"),
                           compression="snappy")
        return d

    def _build_store(self, inp: str, out: str) -> dict:
        with self.tr.span("op.setup_encode"):
            return encode.encode_dataset(
                inp, out, n_parts=SETTINGS["n_parts"], salt_rows=SETTINGS["salt_rows"],
                bloom_cols=BLOOM_COLS, text_bloom_cols=TEXT_BLOOM_COLS)

    def generate(self) -> None:
        """Generate the workload's input once, before the timed set-ups."""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> list[tuple[str, bool]]:
        return []

    def store(self) -> str:
        raise NotImplementedError

    def bytes_vs_parquet(self) -> float:
        """Encoded store bytes over parquet-snappy bytes of the same live rows."""
        raise NotImplementedError

    def details(self, lat: dict, e2e: dict) -> dict:
        """End-to-end numbers per op kind (encode_turns_per_s, lookup_p50_ms, ...)."""
        raise NotImplementedError

    # what the traced run replays layer by layer: the table this workload's
    # encodes write, its parquet reference files and the store's bloom columns
    def replay_input(self) -> tuple[pa.Table, list[str], list[str], list[str]]:
        raise NotImplementedError


def _p50(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def _input_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


class Ingest(Workload):
    name = "ingest"
    op_kinds = ("encode", "decode")
    rewrite_kinds = ("encode",)
    encode_kind = "op.encode"
    setup_dirs = ("input",)

    def setup(self) -> None:
        self.inp = self._write_input(INGEST_TURNS)

    def prepare(self) -> None:
        self.files = _input_files(self.inp)
        self.ref_bytes = sum(os.path.getsize(f) for f in self.files)
        self.table = pq.read_table(self.files)
        self.fingerprint = decode.dataset_fingerprint(read_parquet_clean(self.inp))
        self.verified_crcs: list[int] | None = None
        self.out = self._dir("store")

    def store(self) -> str:
        return self.out

    def round(self, i: int) -> list[Op]:
        def run_encode():
            return encode.encode_dataset(self.inp, self.out, n_parts=SETTINGS["n_parts"],
                                         salt_rows=SETTINGS["salt_rows"])

        def check_encode(s: dict) -> bool:
            self.summary = s
            return s["rows"] == INGEST_TURNS

        def check_decode(n: int) -> bool:
            """A store whose containers are byte-identical to one already
            matched against the input fingerprint is correct; any other
            store is fingerprinted itself."""
            crcs = sorted(r["crc32"] for r in manifest.load_records(self.out))
            if crcs != self.verified_crcs:
                fp = decode.dataset_fingerprint(decode.decode_dataset(self.out))
                if fp != self.fingerprint:
                    return False
                self.verified_crcs = crcs
            return n == INGEST_TURNS

        return [
            Op("encode", run_encode, check_encode, writes=True, user_bytes=self.table.nbytes,
               pre=lambda: shutil.rmtree(self.out, ignore_errors=True)),
            Op("decode", lambda: decode.decode_dataset(self.out).count(), check_decode,
               chain=[]),
        ]

    def bytes_vs_parquet(self) -> float:
        return self.summary["bytes_out"] / self.ref_bytes

    def details(self, lat: dict, e2e: dict) -> dict:
        return {
            "encode_turns_per_s": {"value": INGEST_TURNS / (_p50(lat["encode"]) / 1e3),
                                   "unit": "turns/s"},
            "decode_turns_per_s": {"value": INGEST_TURNS / (_p50(lat["decode"]) / 1e3),
                                   "unit": "turns/s"},
            "bytes_vs_parquet": e2e["bytes_vs_parquet"],
        }

    def replay_input(self):
        return self.table, self.files, [], []


class Query(Workload):
    name = "query"
    op_kinds = ("lookup", "scan", "agg", "group", "topk", "distinct", "search")
    encode_kind = "op.setup_encode"
    setup_dirs = ("store",)
    # after a single warm-up round the first measured round was often the
    # slowest of its run
    warmup_rounds = 2

    def generate(self) -> None:
        self.inp = self._write_input(STORE_TURNS)

    def setup(self) -> None:
        self.summary = self._build_store(self.inp, self._dir("store"))

    def store(self) -> str:
        return self._dir("store")

    def prepare(self) -> None:
        self.files = _input_files(self.inp)
        self.ref_bytes = sum(os.path.getsize(f) for f in self.files)
        oracle = DuckOracle(self.inp)
        try:
            rng = np.random.default_rng([self.seed, 1])
            convs = oracle.lookup_pool(MAX_CONV_TURNS)
            tokens = oracle.token_pool(skip=20, size=200)
            self.pool = [self._draw(oracle, rng, convs, tokens, i)
                         for i in range(QUERY_POOL_ROUNDS)]
        finally:
            oracle.close()

    @staticmethod
    def _draw(oracle: DuckOracle, rng, convs, tokens, i: int) -> list[tuple[str, dict, Any]]:
        """Round ``i``'s parameters and their DuckDB answers."""
        cid = str(rng.choice(convs))
        scan = {"min_turn": int(rng.integers(20, 200)), "tool": str(rng.choice(synth.TOOLS))}
        agg = {"role": str(rng.choice(synth.ROLES)), "max_turn": int(rng.integers(5, 100))}
        group = {"col": ("role", "tool")[i % 2], "min_turn": int(rng.integers(1, 50))}
        topk = {"role": str(rng.choice(synth.ROLES[1:])), "desc": i % 2 == 0, "k": 10}
        distinct = {"col": ("tool", "role")[i % 2], "max_turn": int(rng.integers(2, 30))}
        search = {"tokens": [str(t) for t in rng.choice(tokens, 1 + i % 3, replace=False)],
                  "k": 10}
        return [
            ("lookup", {"cid": cid}, oracle.lookup(cid)),
            ("scan", scan, oracle.scan(**scan)),
            ("agg", agg, oracle.agg(**agg)),
            ("group", group, oracle.group(**group)),
            ("topk", topk, oracle.topk(**topk)),
            ("distinct", distinct, oracle.distinct(**distinct)),
            ("search", search, oracle.search(**search)),
        ]

    def round(self, i: int) -> list[Op]:
        return [self._op(kind, p, want) for kind, p, want in self.pool[i % len(self.pool)]]

    def _op(self, kind: str, p: dict, want) -> Op:
        q = self.store()
        if kind == "lookup":
            return Op(kind, lambda: decode.lookup_conversation(q, p["cid"]),
                      lambda t: table_rows(t, STORE_COLUMNS) == want,
                      chain=_dnf([("conv_id", "==", p["cid"])]))
        if kind == "scan":
            pred = [("turn_idx", ">=", p["min_turn"]), ("tool", "==", p["tool"])]
            cols = ["conv_id", "turn_idx", "ts"]

            def run_scan():
                ds = scan_store(q, pred, columns=cols)
                return [table_rows(b, cols) for b in ds.iter_batches(batch_format="pyarrow")]

            return Op(kind, run_scan,
                      lambda parts: sorted((r for b in parts for r in b), key=null_last) == want,
                      chain=_dnf(pred), chain_cols=cols)
        if kind == "agg":
            pred = [("role", "==", p["role"]), ("turn_idx", "<", p["max_turn"])]
            aggs = ["count", ("sum", "turn_idx"), ("min", "ts"), ("max", "ts"), ("nn", "tool")]
            op = Op(kind, lambda: store_agg(q, aggs, pred, return_plan=True), None,
                    chain=_dnf(pred), chain_cols=["ts", "tool"])

            def check_agg(res) -> bool:
                vals, op.info["plan"] = res
                return tuple(vals[k] for k in AGG_KEYS) == want

            op.check = check_agg
            return op
        if kind == "group":
            pred = [("turn_idx", ">=", p["min_turn"])]
            aggs = ["count", ("max", "turn_idx"), ("sum", "turn_idx")]
            cols = [p["col"], "count", "max_turn_idx", "sum_turn_idx"]
            return Op(kind, lambda: store_agg_group(q, [p["col"]], aggs, pred),
                      lambda t: sorted(table_rows(t, cols), key=null_last) == want,
                      chain=_dnf(pred), chain_cols=[p["col"]])
        if kind == "topk":
            pred = [("role", "==", p["role"])]
            cols = ["conv_id", "turn_idx", "ts"]
            return Op(kind, lambda: store_topk(q, "ts", p["k"], desc=p["desc"], predicate=pred,
                                               columns=cols, tiebreak=cols[:2]),
                      lambda t: table_rows(t, cols) == want,
                      chain=_dnf(pred), chain_cols=cols)
        if kind == "distinct":
            pred = [("turn_idx", "<", p["max_turn"])]
            return Op(kind, lambda: store_distinct(q, p["col"], pred),
                      lambda t: t.column(p["col"]).to_pylist() == want,
                      chain=_dnf(pred), chain_cols=[p["col"]])
        query = " ".join(p["tokens"])
        cols = ["conv_id", "turn_idx"]
        return Op(kind, lambda: store_search(q, "text", query, p["k"], columns=cols,
                                             tiebreak=cols),
                  lambda t: table_rows(t, cols + ["score"]) == want,
                  chain=_dnf([("text", "hasany", query)]), chain_cols=cols)

    def bytes_vs_parquet(self) -> float:
        return self.summary["bytes_out"] / self.ref_bytes

    def details(self, lat: dict, e2e: dict) -> dict:
        pushdown = [x for k in ("scan", "agg", "group", "topk", "distinct") for x in lat[k]]
        return {
            "lookup_p50_ms": {"value": _p50(lat["lookup"]), "unit": "ms"},
            "pushdown_p50_ms": {"value": _p50(pushdown), "unit": "ms"},
            "search_p50_ms": {"value": _p50(lat["search"]), "unit": "ms"},
            "query_tail_ms": e2e["op_tail_ms"],
            "query_ops_per_s": {**e2e["ops_per_s"], "unit": "ops/s"},
            "bytes_vs_parquet": e2e["bytes_vs_parquet"],
        }

    def replay_input(self):
        return pq.read_table(self.files), self.files, BLOOM_COLS, TEXT_BLOOM_COLS


class Mutate(Workload):
    """Starts from a store built like ``query``'s and mutates it in rounds:
    append a delivery, upsert 1-3 existing conversations, delete one
    appended conversation, with a lookup after each write."""

    name = "mutate"
    op_kinds = ("append", "upsert", "delete", "lookup")
    rewrite_kinds = ("upsert", "delete")
    encode_kind = "op.append"
    setup_dirs = ("store",)

    def generate(self) -> None:
        self.inp = self._write_input(STORE_TURNS)

    def setup(self) -> None:
        self.summary = self._build_store(self.inp, self._dir("store"))

    def store(self) -> str:
        return self._dir("store")

    def prepare(self) -> None:
        self.model = pq.read_table(_input_files(self.inp)).replace_schema_metadata(None)
        vc = pc.value_counts(self.model["conv_id"])
        n = vc.field("counts").to_numpy()
        self.base_convs = sorted(np.asarray(vc.field("values").to_pylist(), dtype=object)[
            (n >= 2) & (n <= MAX_CONV_TURNS)])
        self.rng = np.random.default_rng([self.seed, 2])
        self.first_delivery: tuple[pa.Table, str] | None = None

    def _conv_rows(self, cid: str) -> list[tuple]:
        t = self.model.filter(pc.equal(self.model["conv_id"], cid)).sort_by("turn_idx")
        return table_rows(t, STORE_COLUMNS)

    def _lookup(self, cid: str) -> Op:
        return Op("lookup", lambda: decode.lookup_conversation(self.store(), cid),
                  lambda t: table_rows(t, STORE_COLUMNS) == self._conv_rows(cid),
                  chain=_dnf([("conv_id", "==", cid)]))

    def round(self, i: int) -> list[Op]:
        m = self.store()
        delivery = synth.make_transcripts(DELIVERY_TURNS, seed=self.seed * 1000 + i,
                                          conv_offset=50_000_000 + i * 100_000)
        vc = pc.value_counts(delivery["conv_id"])
        n = vc.field("counts").to_numpy()
        small = np.asarray(vc.field("values").to_pylist(), dtype=object)[
            (n >= 2) & (n <= MAX_CONV_TURNS)]
        look_cid, del_cid = (str(c) for c in self.rng.choice(sorted(small), 2, replace=False))
        up_convs = [str(c) for c in self.rng.choice(self.base_convs, 1 + i % 3, replace=False)]
        d_path = self._dir(f"delivery-{i}.parquet")
        u_path = self._dir(f"upsert-{i}.parquet")
        staged: dict = {}

        def stage_delivery():
            pq.write_table(delivery, d_path)
            if self.first_delivery is None:
                self.first_delivery = (delivery, d_path)

        def check_append(s: dict) -> bool:
            self.model = pa.concat_tables([self.model, delivery])
            self.summary = s
            return s["rows"] == self.model.num_rows

        def stage_upsert():
            keep = pc.is_in(self.model["conv_id"], pa.array(up_convs))
            upd = self.model.filter(keep)
            text = pc.binary_join_element_wise(f"rev{i}", pc.fill_null(upd["text"], ""), " ")
            staged["upsert"] = upd.set_column(upd.schema.get_field_index("text"), "text", text)
            staged["rest"] = self.model.filter(pc.invert(keep))
            upsert.user_bytes = staged["upsert"].nbytes
            pq.write_table(staged["upsert"], u_path)

        def check_upsert(s: dict) -> bool:
            self.model = pa.concat_tables([staged["rest"], staged["upsert"]])
            self.summary = s
            return (s["rows"] == self.model.num_rows
                    and s["rows_updated"] == staged["upsert"].num_rows)

        def stage_delete():
            gone = pc.equal(self.model["conv_id"], del_cid)
            staged["deleted"] = self.model.filter(gone)
            staged["left"] = self.model.filter(pc.invert(gone))
            delete.user_bytes = staged["deleted"].nbytes

        def check_delete(s: dict) -> bool:
            self.model = staged["left"]
            self.summary = s
            return (s["rows"] == self.model.num_rows
                    and s["rows_deleted"] == staged["deleted"].num_rows)

        pred = [("conv_id", "==", del_cid)]
        append = Op("append", lambda: encode.append_dataset(d_path, m), check_append,
                    pre=stage_delivery, writes=True, user_bytes=delivery.nbytes)
        upsert = Op("upsert", lambda: encode.upsert_dataset(u_path, m), check_upsert,
                    pre=stage_upsert, writes=True)
        delete = Op("delete", lambda: encode.delete_rows(m, pred), check_delete,
                    pre=stage_delete, writes=True, chain=_dnf(pred), chain_before=True)
        return [append, self._lookup(look_cid), upsert, self._lookup(up_convs[0]),
                delete, self._lookup(del_cid)]

    def finish(self) -> list[tuple[str, bool]]:
        """The whole store against the model, order-insensitively."""
        got = decode.dataset_fingerprint(decode.decode_dataset(self.store()))
        want = decode.dataset_fingerprint(ray.data.from_arrow(self.model))
        return [("store_matches_model", got == want)]

    def bytes_vs_parquet(self) -> float:
        buf = pa.BufferOutputStream()
        pq.write_table(self.model, buf, compression="snappy")
        return self.summary["bytes_out"] / buf.getvalue().size

    def details(self, lat: dict, e2e: dict) -> dict:
        return {f"{k}_p50_ms": {"value": _p50(lat[k]), "unit": "ms"} for k in self.op_kinds} | {
            "bytes_vs_parquet": e2e["bytes_vs_parquet"]}

    def replay_input(self):
        table, path = self.first_delivery
        return table, [path], BLOOM_COLS, TEXT_BLOOM_COLS


WORKLOADS = {w.name: w for w in (Ingest, Query, Mutate)}
