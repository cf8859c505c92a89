"""Behavioral / product-analytics operators over the events stream: funnel
progression, cohort retention, last-event-per-user (argmax), dense gap-filled
daily series, and month-over-month growth on an aggregate.

All five follow the mergeable-partial discipline used across this package:
per-batch vectorized kernels emit bounded partials, finished on the driver
when the final key space is bounded (users, months, days x types). The funnel
and cohort operators additionally exploit that the USER dimension of an
events stream is orders of magnitude smaller than the event count (every
events-table operator here — sessionize, pivot, sequence — already holds a
per-user row); the per-user state carried between funnel passes is one int64
timestamp per user, broadcast once via ``ray.put``, never per batch.

Scale notes (100 TB):
 - The per-user driver state ("users x months is bounded") is an assumption
   about the data, not a law, so the three user-keyed operators are
   two-path: below ``_DRIVER_USER_ROWS`` events the per-batch partials
   merge on the driver (no exchange at all — strictly cheaper at sandbox
   scale); above it each switches to a distributed ``groupby(user_id)``
   that never holds per-user state on one node. The event row count gates
   the switch because it is a free (parquet-metadata) upper bound on user
   cardinality. Both paths are asserted identical in tests by forcing the
   threshold to zero.
 - ``event_funnel`` driver path: k sequential PRUNED scans (user_id,
   event_type, ts only) for a k-stage funnel — no shuffle at all; stage
   timestamps are per-batch min-partials merged on the driver, previous
   stage broadcast once via ``ray.put``. Distributed path: ONE shuffle of
   the stage-filtered slice, the staged min-after-min walk runs inside each
   user's group, and only a bounded per-batch histogram of "stages reached"
   comes back to the driver.
 - ``cohort_retention`` driver path carries distinct (user, month) pairs
   per batch — the same pair-dedup combiner as
   ``analytics.distinct_users_by_type``. Distributed path: the same partials
   feed ``groupby(user_id)``; each group emits its (cohort, offset) rows and
   only the months² count table reaches the driver.
 - ``latest_event_per_user`` is the argmax-by-key shape: one candidate row
   per (user, batch) partial; the driver keeps the lexicographic max below
   the threshold, a ``groupby(user_id)`` max above it (the result itself is
   user-sized — returning it as a Table is contract-inherent).
 - ``events_daily_gapfill`` merges (type, day) count partials, then builds
   the dense spine driver-side — spine size is time-bounded, not data-bounded.
 - ``revenue_mom_growth`` sums integer cents per month (exact, order-free)
   and applies the lag/pct window on the bounded month table driver-side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ._util import finish_on_driver, read_parquet_clean, sql_round


def _t(sf_dir: str, name: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    return read_parquet_clean(f"{sf_dir}/{name}.parquet", columns=columns)


# Event-count threshold below which the user-keyed operators merge their
# per-batch partials on the driver (no exchange — measured strictly cheaper
# at sandbox scale); above it they run the distributed groupby(user_id)
# paths whose driver state is bounded regardless of user cardinality. The
# event count is a parquet-metadata-free upper bound on distinct users.
_DRIVER_USER_ROWS = 50_000_000


def _n_events(sf_dir: str) -> int:
    return _t(sf_dir, "events", columns=["user_id"]).count()


# --- funnel analysis ---------------------------------------------------------


def _stage_min_ts(sf_dir: str, etype: str, prev: "pd.Series | None") -> "pd.Series":
    """min event ts (int64 us) per user for ``etype``, restricted to events at
    or after the user's ``prev``-stage timestamp. ``prev`` (one int64 per
    funnel-qualified user) is broadcast once via ``ray.put``."""
    ds = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    if prev is not None:
        prev_ref = ray.put((pa.array(prev.index.to_numpy()), prev.to_numpy()))
    else:
        prev_ref = None

    def partial(batch: pa.Table) -> pd.DataFrame:
        t = batch.filter(pc.equal(batch["event_type"], etype))
        uid = t["user_id"].to_numpy()
        ts = t["ts"].cast(pa.int64()).to_numpy()
        if prev_ref is not None:
            keys, tmin = ray.get(prev_ref)
            idx = pc.fill_null(pc.index_in(t["user_id"], value_set=keys), -1).to_numpy(
                zero_copy_only=False
            )
            ok = (idx >= 0) & (ts >= tmin[np.maximum(idx, 0)])
            uid, ts = uid[ok], ts[ok]
        return (
            pd.DataFrame({"user_id": uid, "t": ts})
            .groupby("user_id", as_index=False)
            .agg(t=("t", "min"))
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return parts.groupby("user_id")["t"].min()


def _funnel_counts_distributed(sf_dir: str, stages: tuple[str, ...]) -> list[int]:
    """At-scale funnel: ONE shuffle of the stage-filtered (user, type, ts)
    slice; the ordered min-after-min walk runs inside each user's group and
    emits a single "stages reached" int, so only a (k+1)-row histogram of
    per-batch bincount partials ever reaches the driver."""
    ds = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    stage_set = pa.array(list(dict.fromkeys(stages)))

    def only_stages(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["event_type"], value_set=stage_set))
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "t": t["ts"].cast(pa.int64()),
            }
        )

    def reached(g: pa.Table) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        ts = g["t"].to_numpy(zero_copy_only=False)
        prev = np.iinfo(np.int64).min
        r = 0
        for st in stages:
            cand = ts[(et == st) & (ts >= prev)]
            if not len(cand):
                break
            prev = cand.min()
            r += 1
        return pa.table({"reached": pa.array([r], pa.int64())})

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        counts = np.bincount(
            batch["reached"].to_numpy(zero_copy_only=False), minlength=len(stages) + 1
        )
        return pd.DataFrame(
            {"reached": np.arange(len(counts), dtype=np.int64), "n": counts.astype(np.int64)}
        )

    hist = finish_on_driver(
        ds.map_batches(only_stages, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(reached, batch_format="pyarrow")
        .map_batches(hist_partial, batch_format="pyarrow"),
        ["reached"],
        ["n"],
    )
    n_by_reached = np.zeros(len(stages) + 1, dtype=np.int64)
    n_by_reached[hist["reached"].to_numpy()] = hist["n"].to_numpy()
    # a user counts toward stage i if they reached AT LEAST i stages
    return [int(n_by_reached[i:].sum()) for i in range(1, len(stages) + 1)]


def event_funnel(
    sf_dir: str, stages: tuple[str, ...] = ("view", "click", "purchase")
) -> pa.Table:
    """Ordered funnel: a user reaches stage n if they performed stages[n] at
    or after their stage n-1 completion time (min-time semantics). Below
    ``_DRIVER_USER_ROWS`` events: one pruned scan per stage, min-timestamp
    partials merged driver-side, previous-stage times broadcast once — zero
    shuffles. Above it: the single-shuffle per-user walk in
    ``_funnel_counts_distributed`` (no per-user driver state)."""
    if _n_events(sf_dir) > _DRIVER_USER_ROWS:
        counts = _funnel_counts_distributed(sf_dir, stages)
    else:
        counts = []
        prev = None
        for etype in stages:
            prev = _stage_min_ts(sf_dir, etype, prev)
            counts.append(len(prev))
    out = pd.DataFrame(
        {
            "stage_idx": np.arange(1, len(stages) + 1, dtype=np.int64),
            "stage": list(stages),
            "n_users": np.asarray(counts, dtype=np.int64),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


# --- cohort retention --------------------------------------------------------


def cohort_retention(sf_dir: str) -> pa.Table:
    """Users active in month (cohort + offset), cohort = month of first event.
    Two partial families from ONE scan: per-batch per-user min ts, and
    per-batch distinct (user, month) pairs. Below ``_DRIVER_USER_ROWS``
    events both merge on the driver; above it the partials feed a
    distributed ``groupby(user_id)`` so no node ever holds the per-user
    table. The join of activity months to cohorts happens on the (merged or
    grouped) per-user state — never on the event stream."""
    ds = _t(sf_dir, "events", columns=["user_id", "ts"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        uid = batch["user_id"].to_numpy()
        month = pc.floor_temporal(batch["ts"], unit="month").to_pandas().to_numpy()
        pairs = pd.DataFrame({"user_id": uid, "m": month}).drop_duplicates()
        first = (
            pd.DataFrame({"user_id": uid, "t": batch["ts"].to_pandas().to_numpy()})
            .groupby("user_id", as_index=False)
            .agg(t=("t", "min"))
        )
        return pairs.merge(first, on="user_id", how="left")

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")

    if _n_events(sf_dir) > _DRIVER_USER_ROWS:
        # at-scale path: the same (user, month, batch-min-ts) partials feed a
        # distributed groupby(user_id); each group resolves its own cohort and
        # distinct activity months, and only (cohort, offset) rows — whose
        # distinct space is months² — flow to the driver-side count merge.
        def per_user(g: pd.DataFrame) -> pd.DataFrame:
            co = g["t"].min().to_period("M").to_timestamp()
            months = g["m"].drop_duplicates().to_numpy()
            off = months.astype("datetime64[M]").astype(np.int64) - np.int64(
                np.datetime64(co).astype("datetime64[M]").astype(np.int64)
            )
            return pd.DataFrame({"cohort_month": co, "month_offset": off})

        def cnt_partial(b: pd.DataFrame) -> pd.DataFrame:
            return b.groupby(["cohort_month", "month_offset"], as_index=False).agg(
                n_users=("month_offset", "size")
            )

        out = finish_on_driver(
            parts_ds.groupby("user_id")
            .map_groups(per_user, batch_format="pandas")
            .map_batches(cnt_partial, batch_format="pandas"),
            ["cohort_month", "month_offset"],
            ["n_users"],
        )
    else:
        parts = parts_ds.to_pandas()
        first = parts.groupby("user_id")["t"].min()
        cohort = first.dt.to_period("M").dt.to_timestamp()
        active = parts[["user_id", "m"]].drop_duplicates()
        co = cohort.loc[active["user_id"]].to_numpy()
        off = active["m"].to_numpy().astype("datetime64[M]").astype(
            np.int64
        ) - co.astype("datetime64[M]").astype(np.int64)
        out = (
            pd.DataFrame({"cohort_month": co, "month_offset": off})
            .groupby(["cohort_month", "month_offset"], as_index=False)
            .agg(n_users=("month_offset", "size"))
        )
    out["month_offset"] = out["month_offset"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values(["cohort_month", "month_offset"]).reset_index(drop=True),
        preserve_index=False,
    )


# --- argmax-by-key: last event per user --------------------------------------


def latest_event_per_user(sf_dir: str) -> pa.Table:
    """LAST_VALUE per user (argmax by (ts, event_id)): each batch keeps one
    candidate row per user present in it; below ``_DRIVER_USER_ROWS`` events
    the driver keeps the lexicographic max of the candidates (no sort, no
    shuffle), above it a distributed ``groupby(user_id)`` does."""
    ds = _t(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def candidates(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(),
                "event_id": batch["event_id"].to_numpy(),
                "last_ts": batch["ts"].to_pandas().to_numpy(),
                "last_event_type": batch["event_type"].to_pandas().to_numpy(),
            }
        )
        return df.sort_values(["user_id", "last_ts", "event_id"]).drop_duplicates(
            "user_id", keep="last"
        )

    def best(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["user_id", "last_ts", "event_id"]).drop_duplicates(
            "user_id", keep="last"
        )

    cands = ds.map_batches(candidates, batch_format="pyarrow")
    if _n_events(sf_dir) > _DRIVER_USER_ROWS:
        # at-scale path: the final per-user max runs as a distributed
        # groupby(user_id) over the (user, batch) candidate rows; the result
        # itself is user-sized, so materializing it is contract-inherent.
        parts = cands.groupby("user_id").map_groups(best, batch_format="pandas").to_pandas()
    else:
        parts = cands.to_pandas()
    out = best(parts).drop(columns=["event_id"])
    return pa.Table.from_pandas(
        out.sort_values("user_id").reset_index(drop=True), preserve_index=False
    )


# --- dense gap-filled daily series -------------------------------------------


def events_daily_gapfill(sf_dir: str) -> pa.Table:
    """Daily event counts per type on a DENSE day spine (missing days emit 0)
    — the time-series gap-fill shape. Count partials merge driver-side; the
    spine (days x types) is built in numpy from the merged bounds, so the
    fill never touches the event stream."""
    ds = _t(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "day": pc.floor_temporal(batch["ts"], unit="day").to_pandas(),
            }
        )
        return df.groupby(["event_type", "day"], as_index=False).agg(n=("day", "size"))

    counts = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"), ["event_type", "day"], ["n"]
    )
    days = counts["day"].to_numpy().astype("datetime64[D]")
    spine_days = np.arange(days.min(), days.max() + np.timedelta64(1, "D"))
    types = np.sort(counts["event_type"].unique())
    spine = pd.DataFrame(
        {
            "event_type": np.repeat(types, len(spine_days)),
            "day": np.tile(spine_days.astype("datetime64[us]"), len(types)),
        }
    )
    out = spine.merge(counts, on=["event_type", "day"], how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    return pa.Table.from_pandas(
        out.sort_values(["event_type", "day"]), preserve_index=False
    )


# --- window-over-aggregate: month-over-month growth --------------------------


def revenue_mom_growth(sf_dir: str) -> pa.Table:
    """Monthly revenue with month-over-month % change. Per-batch integer-cent
    sums per month (exact under any merge order) finish on the driver; the
    lag window runs on the bounded month table. First month's pct is NULL."""
    ds = _t(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        cents = np.floor(batch["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame(
            {
                "month": pc.floor_temporal(batch["o_orderdate"], unit="month").to_pandas(),
                "cents": cents,
            }
        )
        return df.groupby("month", as_index=False).agg(cents=("cents", "sum"))

    m = finish_on_driver(
        ds.map_batches(partial, batch_format="pyarrow"), ["month"], ["cents"]
    ).sort_values("month")
    cents = m["cents"].to_numpy()
    prev = np.roll(cents, 1).astype(np.float64)
    mom = sql_round((cents - np.roll(cents, 1)) * 100.0 / prev, 4)
    out = pd.DataFrame(
        {
            "month": m["month"].to_numpy(),
            "revenue": sql_round(cents / 100.0, 2),
            "mom_pct": np.where(np.arange(len(cents)) == 0, np.nan, mom),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def purchase_error_window(sf_dir: str, window_minutes: int = 60) -> pa.Table:
    """Interval join: for every purchase event, count error events from the
    SAME user whose ts falls in [purchase_ts - window, purchase_ts]; returns
    the distribution (n_errors, n_purchases).

    The scale shape is a bucketed band join — the generic plan for
    equi-key + bounded-range predicates Ray Data has no native operator for:
    time is cut into buckets exactly one window wide; each BUILD row (error)
    is replicated to its own bucket and the next one (the only two buckets
    whose purchases it can precede within the window), each PROBE row
    (purchase) lands in exactly ONE group, so per-purchase counts are final
    inside the group and need no second shuffle (replicating probes instead
    would force a per-purchase partial-sum exchange). Replication factor is
    fixed at 2x on a 3-column slice, independent of data size; within each
    (user, bucket) group the count is two vectorized ``searchsorted`` calls
    against the sorted error timestamps. The n_errors histogram finishes with
    bounded per-batch partials on the driver.
    """
    W = np.int64(window_minutes) * 60_000_000  # window in microseconds

    ds = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def bucketize(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        batch = batch.filter(pc.is_in(et, value_set=pa.array(["purchase", "error"])))
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        is_p = pc.equal(batch["event_type"], "purchase").to_numpy(zero_copy_only=False)
        bucket = ts // W
        e_uid, e_ts, e_b = uid[~is_p], ts[~is_p], bucket[~is_p]
        return pa.table(
            {
                "user_id": np.concatenate([uid[is_p], e_uid, e_uid]),
                "bucket": np.concatenate([bucket[is_p], e_b, e_b + 1]),
                "kind": np.concatenate(
                    [
                        np.ones(int(is_p.sum()), np.int8),
                        np.zeros(2 * len(e_ts), np.int8),
                    ]
                ),
                "ts_us": np.concatenate([ts[is_p], e_ts, e_ts]),
            }
        )

    def count_in_group(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        ts = g["ts_us"].to_numpy(zero_copy_only=False)
        pts = ts[kind == 1]
        if not len(pts):
            return pa.table({"n_errors": pa.array([], pa.int64())})
        ets = np.sort(ts[kind == 0])
        n = np.searchsorted(ets, pts, side="right") - np.searchsorted(
            ets, pts - W, side="left"
        )
        return pa.table({"n_errors": n.astype(np.int64)})

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        vals, counts = np.unique(
            batch["n_errors"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pd.DataFrame({"n_errors": vals, "n_purchases": counts.astype(np.int64)})

    grouped = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby(["user_id", "bucket"])
        .map_groups(count_in_group, batch_format="pyarrow")
    )
    out = finish_on_driver(
        grouped.map_batches(hist_partial, batch_format="pyarrow"),
        ["n_errors"],
        ["n_purchases"],
    ).sort_values("n_errors")
    return pa.Table.from_pandas(out, preserve_index=False)


def asof_attribution(sf_dir: str) -> pa.Table:
    """AS-OF join (last-touch attribution): every purchase event matched to
    the SAME user's latest view event at-or-before it, with the view→purchase
    lag in seconds (NULL when no view precedes). Ray Data has no native as-of
    operator; the distributed plan is the standard co-partition-and-merge:
    ONE shuffle of the (user, kind, ts) slice keyed on user_id, then inside
    each user's group a sorted ``searchsorted`` resolves every purchase
    against the view timeline — no row loop, no replication, and unlike the
    band join in ``purchase_error_window`` the lookback is unbounded, which
    is exactly why the match must happen key-locally rather than in time
    buckets. Assumes one user's events fit a worker (the ``events_sessionize``
    contract; a salted variant would carry each day-chunk's max view ts
    forward user-sequentially, the ``user_rolling_peak_salted`` stitch shape).

    Oracle: DuckDB ``ASOF LEFT JOIN`` on (user_id, v.ts <= p.ts).
    """
    ds = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def slim(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.is_in(batch["event_type"], value_set=pa.array(["view", "purchase"]))
        )
        return pa.table(
            {
                "user_id": t["user_id"],
                "is_p": pc.equal(t["event_type"], "purchase"),
                "t": t["ts"].cast(pa.int64()),
            }
        )

    def match(g: pa.Table) -> pa.Table:
        is_p = g["is_p"].to_numpy(zero_copy_only=False)
        ts = g["t"].to_numpy(zero_copy_only=False)
        pts = np.sort(ts[is_p])
        if not len(pts):
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "purchase_ts": pa.array([], pa.timestamp("us")),
                    "view_ts": pa.array([], pa.timestamp("us")),
                    "lag_sec": pa.array([], pa.float64()),
                }
            )
        vts = np.sort(ts[~is_p])
        idx = np.searchsorted(vts, pts, side="right") - 1
        matched = idx >= 0
        # a purchases-only user has an EMPTY view timeline: nothing matches,
        # but the gather below still needs a non-empty pool to index into
        pool = vts if len(vts) else np.zeros(1, np.int64)
        view = np.where(matched, pool[np.maximum(idx, 0)], 0)
        lag = np.where(matched, (pts - view) / 1e6, np.nan)
        uid = np.full(len(pts), g["user_id"][0].as_py(), dtype=np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "purchase_ts": pa.array(pts.astype("datetime64[us]")),
                "view_ts": pa.array(
                    view.astype("datetime64[us]"), mask=~matched
                ),
                "lag_sec": pa.array(lag, pa.float64()),
            }
        )

    out = (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(match, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["user_id", "purchase_ts"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def asof_attribution_salted(sf_dir: str) -> pa.Table:
    """Skew-safe variant of ``asof_attribution`` — same result, same SQL
    oracle, but the shuffle key is (user_id, epoch-day) so a mega-user's
    event history never has to fit one worker (the salting contract
    ``events_sessionize`` / ``user_rolling_peak_salted`` established).

    An as-of match crosses chunk boundaries only backwards, so each
    (user, day) group emits a BOUNDED stitch payload instead of its rows:
    its locally-final matches (purchase had an in-chunk preceding view — by
    definition the in-chunk view is the global winner, later days cannot
    beat it and earlier days are older), its UNMATCHED purchases, and the
    chunk's max view timestamp. A second user-keyed pass walks days in
    order carrying the running max view ts; a purchase unmatched in its own
    chunk matches that carry exactly (every earlier-chunk view precedes it,
    so the latest one wins; same-chunk views are all later than it, else it
    would have matched locally). Second-pass state per user is
    O(days + chunk-locally-unmatched purchases) — the attribution minority
    — never O(events)."""
    day_us = 86_400_000_000
    ds = _t(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def slim(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.is_in(batch["event_type"], value_set=pa.array(["view", "purchase"]))
        )
        ts = t["ts"].cast(pa.int64())
        return pa.table(
            {
                "user_id": t["user_id"],
                "is_p": pc.equal(t["event_type"], "purchase"),
                "t": ts,
                "day": pc.divide(ts, day_us),
            }
        )

    def day_match(g: pa.Table) -> pa.Table:
        is_p = g["is_p"].to_numpy(zero_copy_only=False)
        ts = g["t"].to_numpy(zero_copy_only=False)
        pts = np.sort(ts[is_p])
        vts = np.sort(ts[~is_p])
        idx = np.searchsorted(vts, pts, side="right") - 1
        ok = idx >= 0
        uid = np.int64(g["user_id"][0].as_py())
        day = np.int64(g["day"][0].as_py())
        n_final, n_pend = int(ok.sum()), int((~ok).sum())
        n_sum = 1 if len(vts) else 0
        kind = np.concatenate(
            [
                np.zeros(n_final, np.int8),
                np.ones(n_pend, np.int8),
                np.full(n_sum, 2, np.int8),
            ]
        )
        p_ts = np.concatenate([pts[ok], pts[~ok], np.zeros(n_sum, np.int64)])
        v_ts = np.concatenate(
            [vts[np.maximum(idx[ok], 0)], np.zeros(n_pend, np.int64),
             vts[-1:] if n_sum else np.array([], np.int64)]
        )
        return pa.table(
            {
                "user_id": pa.array(np.full(len(kind), uid)),
                "day": pa.array(np.full(len(kind), day)),
                "kind": pa.array(kind),
                "p_ts": pa.array(p_ts, mask=kind == 2),
                "v_ts": pa.array(v_ts, mask=kind == 1),
            }
        )

    def stitch(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        p_ts = g["p_ts"].to_numpy(zero_copy_only=False)
        v_ts = g["v_ts"].to_numpy(zero_copy_only=False)
        out_p, out_v, out_m = [], [], []
        carry, have = np.int64(0), False
        for d in np.unique(day):
            pend = (day == d) & (kind == 1)
            for p in p_ts[pend]:
                out_p.append(np.int64(p))
                out_v.append(carry)
                out_m.append(have)
            summ = (day == d) & (kind == 2)
            if summ.any():
                vmax = np.int64(v_ts[summ].max())
                carry, have = (max(carry, vmax) if have else vmax), True
        uid = np.int64(g["user_id"][0].as_py())
        m = np.asarray(out_m, dtype=bool)
        return pa.table(
            {
                "user_id": pa.array(np.full(len(out_p), uid, np.int64)),
                "p_ts": pa.array(np.asarray(out_p, np.int64)),
                "v_ts": pa.array(np.asarray(out_v, np.int64), mask=~m),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        p = batch["p_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        v_col = batch["v_ts"]
        null = pc.is_null(v_col).to_numpy(zero_copy_only=False)
        v = pc.fill_null(v_col, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        lag = np.where(null, np.nan, (p - v) / 1e6)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "purchase_ts": pa.array(p.astype("datetime64[us]")),
                "view_ts": pa.array(v.astype("datetime64[us]"), mask=null),
                "lag_sec": pa.array(lag, pa.float64()),
            }
        )

    # stage-1 output is consumed TWICE (finals bypass the stitch) — a lazy
    # Dataset would re-execute the whole upstream per consumer, so pin it.
    stage1 = (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .map_groups(day_match, batch_format="pyarrow")
        .materialize()
    )
    finals = stage1.map_batches(
        lambda b: b.filter(pc.equal(b["kind"], 0)).select(["user_id", "p_ts", "v_ts"]),
        batch_format="pyarrow",
    ).map_batches(finalize, batch_format="pyarrow")
    stitched = (
        stage1.map_batches(
            lambda b: b.filter(pc.greater(b["kind"], 0)), batch_format="pyarrow"
        )
        .groupby("user_id")
        .map_groups(stitch, batch_format="pyarrow")
        .map_batches(finalize, batch_format="pyarrow")
    )
    out = (
        finals.union(stitched)
        .to_pandas()
        .sort_values(["user_id", "purchase_ts"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def user_rolling_peak(sf_dir: str, frame: int = 4) -> pa.Table:
    """ROWS-frame rolling aggregate: per user, the PEAK of the rolling mean of
    ``value`` over the last ``frame`` events (ROWS frame-1 PRECEDING..CURRENT,
    ordered by ts then event_id) — the windowed-aggregate family
    (lag/lead live in ``event_intervals``; this is the sliding-frame shape).

    One shuffle: ``groupby(user_id)``; inside each group the rolling mean is
    a cumsum difference (no per-row loop) and only the per-user PEAK leaves
    the group, so the result is user-bounded, not event-bounded. Assumes one
    user's history fits a worker (same contract as ``events_sessionize``,
    which documents the salted-key escape hatch for mega-users; a salted
    variant here would stitch frames across chunk boundaries by shipping each
    chunk's first ``frame-1`` rows to its successor).
    """
    ds = _t(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def peak(g: pa.Table) -> pa.Table:
        order = np.lexsort(
            (
                g["event_id"].to_numpy(zero_copy_only=False),
                g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
            )
        )
        v = g["value"].to_numpy(zero_copy_only=False)[order]
        cs = np.concatenate(([0.0], np.cumsum(v)))
        width = np.minimum(np.arange(1, len(v) + 1), frame)
        roll = (cs[1:] - cs[np.maximum(np.arange(1, len(v) + 1) - frame, 0)]) / width
        return pa.table(
            {
                "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
                "max_roll": pa.array([float(roll.max())], pa.float64()),
            }
        )

    out = ds.groupby("user_id").map_groups(peak, batch_format="pyarrow").to_pandas()
    out = out.sort_values("user_id")
    out["max_roll"] = sql_round(out["max_roll"], 4)
    return pa.Table.from_pandas(out, preserve_index=False)


def user_rolling_peak_salted(sf_dir: str, frame: int = 4) -> pa.Table:
    """Skew-safe variant of ``user_rolling_peak`` — same result, same SQL
    oracle, but the shuffle key is (user_id, epoch-day) so a mega-user's
    history never has to fit one worker (the salting contract
    ``events_sessionize`` established, applied to a ROWS frame).

    A ROWS window crosses chunk boundaries, so each (user, day) group emits a
    BOUNDED stitch payload instead of its rows: the exact rolling peak over
    its full-window rows, plus its first/last ``frame-1`` (ts, id, value)
    boundary rows. A second user-keyed pass walks days in order carrying a
    ``frame-1``-deep value buffer, recomputes the head rows' windows exactly
    (a day with fewer than ``frame-1`` rows simply leaves the buffer spanning
    multiple days), and folds in the chunk-local peaks. State per user is
    O(days x frame), never O(events).
    """
    day_us = 86_400_000_000
    ds = _t(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def add_day(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64())
        return batch.append_column("day", pc.divide(ts, day_us))

    def day_partial(g: pa.Table) -> pa.Table:
        order = np.lexsort(
            (
                g["event_id"].to_numpy(zero_copy_only=False),
                g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
            )
        )
        v = g["value"].to_numpy(zero_copy_only=False)[order]
        n = len(v)
        b = frame - 1
        # full-window rows (index >= frame-1) have all predecessors in-day:
        # their rolling means are final here
        if n >= frame:
            cs = np.concatenate(([0.0], np.cumsum(v)))
            idx = np.arange(frame, n + 1)
            full = ((cs[idx] - cs[idx - frame]) / frame).max()
        else:
            full = -np.inf
        return pa.table(
            {
                "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
                "day": pa.array([int(g["day"][0].as_py())], pa.int64()),
                "peak_full": pa.array([float(full)], pa.float64()),
                "head": pa.array([v[: min(b, n)].tolist()], pa.list_(pa.float64())),
                "tail": pa.array([v[max(n - b, 0) :].tolist()], pa.list_(pa.float64())),
            }
        )

    def stitch(g: pa.Table) -> pa.Table:
        order = np.argsort(g["day"].to_numpy(zero_copy_only=False), kind="stable")
        peaks = g["peak_full"].to_numpy(zero_copy_only=False)[order]
        heads = [g["head"][int(i)].as_py() for i in order]
        tails = [g["tail"][int(i)].as_py() for i in order]
        best = -np.inf
        buf: list[float] = []
        for pk, head, tail in zip(peaks, heads, tails):
            best = max(best, pk)
            seq = buf + head
            for j in range(len(head)):
                pos = len(buf) + j
                lo = max(0, pos - frame + 1)
                best = max(best, float(np.mean(seq[lo : pos + 1])))
            buf = (buf + tail)[-(frame - 1) :]
        return pa.table(
            {
                "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
                "max_roll": pa.array([best], pa.float64()),
            }
        )

    out = (
        ds.map_batches(add_day, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .map_groups(day_partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(stitch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("user_id")
    )
    out["max_roll"] = sql_round(out["max_roll"], 4)
    return pa.Table.from_pandas(out, preserve_index=False)
