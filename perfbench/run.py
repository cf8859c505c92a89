"""Benchmark of the parquet_converter_ray engine: one command, three workloads.

    python3 perfbench/run.py --workload ingest|query|mutate --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; the engine is imported from there, by
this process and by every Ray worker. A run:

1. starts a fresh local Ray cluster (2 CPUs, see ``session.SETTINGS``) with
   its temp dir and all data under ``.pbw/<pid>/`` in the checkout;
2. sets the workload up three times and reports the median as ``setup_s``;
3. runs untimed warm-up rounds, then rounds of operations in a closed loop
   until ``--seconds`` have passed, checking every result;
4. prints a detail line (every sample and the VM steal share during it, the
   per-kind metrics, the tail percentile and its sample counts, host
   provenance) and, last, one JSON object ``{correct, attempted, failed,
   metrics}``.

The gated latency and rate come from each op kind's median latency with the
hypervisor's steal taken out (see ``zero_steal_ms``); the per-kind metrics
and the tail in the detail line are as measured.
``BENCHMARK.json`` lists ``ingest`` and ``query``. ``mutate`` runs the same
way but is not listed: three workloads with runs long enough to be steady
would not fit the time allowed for the whole set of runs.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
measured rounds alternate untraced and traced, the traced rounds record
spans and replay each op's read path, a layer-by-layer replay of the
workload's encode follows, and the metrics are the per-layer ones; the span
file is written to ``.pbw/out/``. End-to-end numbers only ever come from
untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

SETUP_REPS = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
# How much longer an op runs while the hypervisor gives part of the VM's CPU
# time to other tenants: ms grows by exp(STEAL_SLOPE * steal share). Fitted
# by robust least squares to about 1000 samples from 30 runs of both
# workloads on a shared 4-vCPU VM, at 0-35 % steal (query 2.7, ingest 2.2);
# at 20-35 % steal the same query op took 1.5-2.7 times as long.
STEAL_SLOPE = 2.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_geomean_ms": "ms",
    "ops_per_s": "1/s",
    "bytes_vs_parquet": "ratio",
}


class Loop:
    """What the closed loop observed."""

    def __init__(self):
        self.lat = defaultdict(list)  # untraced latencies (ms) per op kind
        self.traced = defaultdict(list)  # traced latencies (ms) per op kind
        self.steal = defaultdict(list)  # VM steal share during each untraced sample
        self.chains: list[dict] = []
        self.writes: list[dict] = []
        self.agg_plans: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.warm_s = 0.0
        self.bytes_vs_parquet = 0.0


def tail(samples: list[float]) -> dict:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above
    it; the maximum when there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    for p in reversed(TAIL_LADDER):
        if n * (1 - p / 100) >= TAIL_MIN_BEYOND:
            i = min(n - 1, math.ceil(n * p / 100) - 1)
            return {"value": xs[i], "percentile": p, "n": n, "beyond": n - 1 - i}
    return {"value": xs[-1], "percentile": "max", "n": n, "beyond": 0}


def run_op(op, wl, tr, loop: Loop, timed: bool, traced: bool) -> None:
    from perfbench import layers, session

    loop.attempted += 1
    chain = None
    before = None
    try:
        if op.pre:
            op.pre()
        if traced and op.chain is not None and op.chain_before:
            chain = layers.replay_chain(tr, wl.store(), op.chain, op.chain_cols)
        if traced and op.writes:
            before = layers.manifest_snapshot(wl.store())
        with tr.span(f"op.{op.kind}") if traced else nullcontext():
            c0 = session.cpu_times()
            t0 = time.perf_counter()
            res = op.call()
            ms = (time.perf_counter() - t0) * 1e3
            steal = session.steal_since(c0)
        ok = op.check(res)
    except Exception:
        traceback.print_exc()
        loop.failures.append(f"{op.kind}: raised")
        return
    if not ok:
        loop.failures.append(f"{op.kind}: wrong result")
        return
    if timed:
        (loop.traced if traced else loop.lat)[op.kind].append(ms)
        if not traced:
            loop.steal[op.kind].append(steal)
    if "plan" in op.info:
        loop.agg_plans.append(op.info["plan"])
    if traced:
        if op.chain is not None and not op.chain_before:
            chain = layers.replay_chain(tr, wl.store(), op.chain, op.chain_cols)
        if chain is not None:
            loop.chains.append({**chain, "op": op.kind, "op_ms": ms})
        if op.writes:
            diff = layers.written_since(before, layers.manifest_snapshot(wl.store()))
            loop.writes.append({"kind": op.kind, "user_bytes": op.user_bytes, **diff})


def run_loop(wl, tr, seconds: float, trace: bool) -> Loop:
    """Warm-up rounds, then measured rounds until ``seconds`` have passed.
    With tracing, the first measured round runs untraced, the next traced and
    so on, and the loop runs until it has at least one of each."""
    loop = Loop()
    t0 = time.perf_counter()
    for r in range(wl.warmup_rounds):
        for op in wl.round(r):
            run_op(op, wl, tr, loop, timed=False, traced=False)
    loop.warm_s = time.perf_counter() - t0
    # taken here so that it does not depend on how many rounds a run completes
    loop.bytes_vs_parquet = wl.bytes_vs_parquet()
    deadline = time.perf_counter() + seconds
    r = wl.warmup_rounds
    while time.perf_counter() < deadline or (trace and loop.rounds < 2):
        traced = trace and loop.rounds % 2 == 1
        for op in wl.round(r):
            run_op(op, wl, tr, loop, timed=True, traced=traced)
        loop.rounds += 1
        r += 1
    return loop


def zero_steal_ms(lat: dict, steal: dict) -> dict:
    """Each op kind's median latency with the hypervisor's steal taken out of
    every sample. ``steal`` is the share of the VM's CPU time given to other
    tenants while the op ran; a plain median would move with their load."""
    return {k: statistics.median(ms * math.exp(-STEAL_SLOPE * (st or 0.0))
                                 for ms, st in zip(lat[k], steal[k]))
            for k in lat if lat[k]}


def end_to_end(wl, loop: Loop, setup_s: list[float]) -> tuple[dict, dict, dict]:
    """The gated metrics: the geometric mean over op kinds of each kind's
    median latency without steal, and the rate of a closed loop of one op
    of each kind at those latencies. Also the tail over all samples as
    measured."""
    pooled = [x for k in wl.op_kinds for x in loop.lat[k]]
    if not pooled:
        raise RuntimeError("no operation completed correctly; nothing to report")
    base = zero_steal_ms(loop.lat, loop.steal)
    values = {
        "setup_s": statistics.median(setup_s),
        "op_geomean_ms": math.exp(statistics.fmean(math.log(v) for v in base.values())),
        "ops_per_s": len(base) / (sum(base.values()) / 1e3),
        "bytes_vs_parquet": loop.bytes_vs_parquet,
    }
    e2e = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return e2e, tail(pooled), base


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "query", "mutate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "parquet_converter_ray", "__init__.py")):
        print("perfbench: no parquet_converter_ray/ here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    from perfbench import layers, session, spans, workloads

    run_dir = os.path.join(root, ".pbw", str(os.getpid()))
    out_dir = os.path.join(root, ".pbw", "out")
    data = os.path.join(run_dir, "data")
    os.makedirs(data)
    os.makedirs(out_dir, exist_ok=True)
    temp, temp_outside = session.ray_temp_dir(run_dir)
    tr = spans.Tracer(enabled=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](data, args.seed, tr)
    phases = {}
    steal0 = session.cpu_times()
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    try:
        workers = session.start_ray(root, temp)
        phase("ray_start")
        engine_dir = os.path.realpath(os.path.join(root, "parquet_converter_ray"))
        if not os.path.realpath(workers["worker_engine_file"]).startswith(engine_dir + os.sep):
            raise RuntimeError(f"Ray workers import the engine from "
                               f"{workers['worker_engine_file']}, not {engine_dir}")
        wl.generate()
        phase("generate")
        setup_s = []
        for _ in range(SETUP_REPS):
            wl.reset()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        phase("setup")
        wl.prepare()
        phase("prepare")
        loop = run_loop(wl, tr, args.seconds, bool(args.trace))
        phase("loop")
        phases["loop_warmup"] = loop.warm_s
        for name, ok in wl.finish():
            loop.attempted += 1
            if not ok:
                loop.failures.append(f"{name}: wrong result")
        phase("finish")
        e2e, t, base = end_to_end(wl, loop, setup_s)
        tail_ms = {"value": t["value"], "unit": "ms",
                   **{k: t[k] for k in ("percentile", "n", "beyond")}}
        detail = {
            "workload": args.workload, "why": workloads.WHY[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "rounds": loop.rounds, "setup_s_reps": setup_s,
            "samples_ms": dict(loop.lat), "traced_samples_ms": dict(loop.traced),
            "samples_steal_frac": dict(loop.steal),
            "zero_steal_p50_ms": base,
            "end_to_end": e2e,
            "per_kind": {**wl.details(loop.lat, {**e2e, "op_tail_ms": tail_ms}), "failed_frac": {
                "value": len(loop.failures) / loop.attempted, "unit": "ratio"}},
            "op_tail_ms": tail_ms, "host_steal_frac": session.steal_since(steal0),
            "failures": loop.failures[:20], "phases_s": phases,
            "provenance": {**session.provenance(root), **workers,
                           "ray_temp_dir_outside_checkout": temp_outside},
        }
        metrics = e2e
        if args.trace:
            table, files, bloom_cols, text_bloom_cols = wl.replay_input()
            layers.replay_encode(tr, table, bloom_cols, text_bloom_cols,
                                 os.path.join(run_dir, "replay"))
            values = layers.per_layer(tr, wl, loop, files)
            units = layers.expand()
            metrics = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
            trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
            tr.dump(trace_file)
            detail.update(trace_file=os.path.relpath(trace_file, root),
                          span_self_ms=tr.self_times_ms(),
                          chains=loop.chains, writes=loop.writes,
                          predicts={k: v[2] for k, v in layers.LAYER_METRICS.items()})
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        session.stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
        if temp_outside:
            shutil.rmtree(temp, ignore_errors=True)
    result = {"correct": not loop.failures, "attempted": loop.attempted,
              "failed": len(loop.failures), "metrics": metrics}
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
