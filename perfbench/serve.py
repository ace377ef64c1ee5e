"""The ``serve-mixed`` workload: an open-loop Poisson stream of solves and
mutations against a process-mode shard fleet behind ``AsyncFrontend``,
after a cold-solve ladder of the fleet's graph family.

One asyncio loop in this process plays every client.  Each request is
submitted at its due time whether or not earlier ones were answered
(open loop), and its latency runs from that due time, so a stall is
charged to every request that waited behind it.  Requests go straight to
``AsyncFrontend.submit``; the socket codec is not on the path.

Every metric the benchmark declares is measured on every workload, and
the stream's latencies spread too widely on a shared host to carry a
bound, so the declared figures of this workload come from the ladder
(``solve.run_solve``): LinearTime and NearLinear in this process on G(n, p)
graphs of the fleet's mean degree, the top rung being the fleet's graph
``g0``, which is the full re-solve a shard pays on a cache miss.  The
stream's figures are printed beside them.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import (
    STAT_SERVE_FULL_RESOLVE,
    STAT_SERVE_REPAIR,
    STAT_SERVE_REPAIR_VERTICES,
)
from repro.serve.frontend import AsyncFrontend
from repro.serve.router import ShardRouter
from repro.serve.service import ServiceConfig

from check import EdgeArrays, ServeMirror, check_solve
from gen import FLEET_IDS, RequestStream, fleet_edges, poisson_offsets
from measure import median, percentile, tree_peak_rss_mb
from solve import run_solve
from spans import Tracer

SHARDS = len(os.sched_getaffinity(0))
#: The two fixed absolute rates (requests/s): about a third and two thirds
#: of the 125-140 requests/s capacity the ladder measured on a 2-CPU
#: machine at the commit that introduced this benchmark.  Never derived
#: from a run, so both commits of a comparison offer the same load.
LO_RATE = 45.0
HI_RATE = 90.0
#: The capacity ladder: the lo and hi phases are its first two rungs, then
#: it climbs from 100 requests/s in fixed 12% steps.
LADDER = tuple(round(100.0 * 1.12 ** k, 1) for k in range(10))
#: A rung passes when its p99 latency stays within this limit, no request
#: failed, and the requests still unanswered when it stops sending are
#: fewer than BACKLOG_LIMIT_S of its arrivals (no growing backlog).  The
#: capacity is the highest rung that passes; the climb stops after
#: STOP_AFTER_FAILURES failing rungs in a row, so one burst of host noise
#: does not end it.  The latency limit is the loosest deadline a solve
#: carries (``gen.TIMEOUT_RANGE``).
LATENCY_LIMIT_MS = 250.0
BACKLOG_LIMIT_S = 0.25
#: Stop sending (the rung fails) once this many requests are in flight:
#: a backlog that deep already fails the rung, and stopping early keeps
#: writes away from the front-end's queue-full refusal.
IN_FLIGHT_CAP = 96
STEP_SECONDS = 1.6
STOP_AFTER_FAILURES = 2
#: Traffic at LO_RATE sent after set-up and before timing: the first
#: seconds after boot run far slower (first snapshots of every graph,
#: allocator growth), and no later phase would pay that again.
WARMUP_SECONDS = 3.0
#: Give up filling the tier after this long (a fleet whose tier never
#: fills is measured as it is).
FILL_MAX_SECONDS = 30.0
#: Shares of the stream's time (--seconds less the cold-solve ladder's
#: share): the lo phase, the hi phase; the capacity ladder gets the rest
#: (five rungs, up to 157 requests/s, at --seconds 20).  The lo phase
#: collects about 190 answers.
LO_SHARE = 0.3
HI_SHARE = 0.1
#: Capacity reported when even the lowest rung fails.
BELOW_LADDER_RPS = LO_RATE / 2
SETUP_REPEATS = 3
#: Share of --seconds that times the cold-solve ladder; the stream gets
#: the rest.
LADDER_SHARE = 0.3
#: Why the stream's figures are printed but not declared.
NOISY = "too noisy on a shared host to carry a bound"
ONLY_HERE = "serve-mixed alone has this layer; declared metrics fit every workload"
FILL = "steady-state traffic, not set-up; its time doubled in slow host spells"


class Record:
    __slots__ = ("phase", "request", "due", "sent", "done", "response")

    def __init__(self, phase: str, request: Dict[str, object], due: float) -> None:
        self.phase = phase
        self.request = request
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.response: Dict[str, object] = {}

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class TimedRouter:
    """Forwards to a :class:`ShardRouter`, timing every ``dispatch`` call."""

    def __init__(self, router: ShardRouter) -> None:
        self._router = router
        self.shards = router.shards
        #: (start, end, rids) per dispatch call; list.append is atomic, and
        #: each shard's dispatcher thread appends its own calls.
        self.calls: List[Tuple[float, float, List[str]]] = []

    def shard_for(self, request: Dict[str, object]) -> int:
        return self._router.shard_for(request)

    def dispatch(self, shard: int, batch: List[Dict[str, object]]) -> List[Dict[str, object]]:
        start = time.perf_counter()
        answers = self._router.dispatch(shard, batch)
        self.calls.append((start, time.perf_counter(), [str(r.get("rid")) for r in batch]))
        return answers


class Fleet:
    def __init__(self, router: ShardRouter, frontend: AsyncFrontend) -> None:
        self.router = router
        self.frontend = frontend

    async def close(self) -> None:
        await self.frontend.drain()
        self.router.close()


async def _boot(graphs: Dict[str, Tuple[int, Sequence[Tuple[int, int]]]],
                checks: Dict[str, EdgeArrays], errors: List[str]) -> Fleet:
    """Boot the fleet, register every graph and solve each once."""
    router = ShardRouter(shards=SHARDS, config=ServiceConfig(), mode="process")
    frontend = AsyncFrontend(router)
    await frontend.start()
    registers = [
        {"op": "register", "id": gid, "n": n, "edges": [list(e) for e in edges]}
        for gid, (n, edges) in graphs.items()
    ]
    for response in await asyncio.gather(*(frontend.submit(r) for r in registers)):
        if not response.get("ok"):
            errors.append(f"register {response.get('id')}: {response.get('error')}")
    solves = [{"op": "solve", "id": gid} for gid in graphs]
    for response in await asyncio.gather(*(frontend.submit(r) for r in solves)):
        problem = response.get("error") if not response.get("ok") else check_solve(
            checks[str(response["id"])], response["independent_set"],  # type: ignore[arg-type]
            int(response["upper_bound"]), bool(response["is_exact"]))  # type: ignore[arg-type]
        if problem:
            errors.append(f"first solve of {response.get('id')}: {problem}")
    return Fleet(router, frontend)


async def _submit(frontend: AsyncFrontend, record: Record, inflight: List[int]) -> None:
    try:
        response = await frontend.submit(record.request)
        vertices = response.get("independent_set")
        if isinstance(vertices, list):
            # A tuple of ints drops out of the collector's tracking, so the
            # answers kept for checking do not slow later collections.
            response["independent_set"] = tuple(vertices)
        record.response = response
    except Exception as exc:  # noqa: BLE001 - a raised submit is a failed request
        record.response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        record.done = time.perf_counter()
        inflight[0] -= 1


async def _fill(frontend: AsyncFrontend, router: ShardRouter, stream: RequestStream,
                records: List[Record]) -> None:
    """Closed-loop traffic until the fleet-shared cache tier is full.

    A long-running fleet always has a full tier, and a full tier costs
    every later insert an eviction, so the measured phases start there.
    One client per graph sends a mutation and then a solve: the solve
    repairs the new version and publishes one more tier entry.
    """
    inflight = [0]
    give_up = time.perf_counter() + FILL_MAX_SECONDS

    async def send(request: Dict[str, object]) -> None:
        record = Record("fill", request, time.perf_counter())
        records.append(record)
        inflight[0] += 1
        record.sent = record.due
        await _submit(frontend, record, inflight)

    async def client(graph_id: str) -> None:
        while True:
            if len(router.tier) >= router.tier.capacity or time.perf_counter() > give_up:
                return
            await send(stream.next("mutate", graph_id))
            solve = stream.next("solve", graph_id)
            del solve["timeout"]  # a shed answer would publish nothing
            await send(solve)

    await asyncio.gather(*(client(graph_id) for graph_id in FLEET_IDS))


async def _phase(frontend: AsyncFrontend, stream: RequestStream, records: List[Record],
                 seed: int, label: str, rate: float,
                 seconds: float) -> Tuple[List[Record], int, bool]:
    """Send one open-loop phase; returns its records, the backlog when
    sending stopped, and whether sending stopped early at the cap."""
    gc.collect()
    gc.freeze()
    offsets = poisson_offsets(seed, label, rate, seconds)
    inflight = [0]
    tasks = []
    mine: List[Record] = []
    capped = False
    origin = time.perf_counter() + 0.005
    for offset in offsets:
        due = origin + offset
        delay = due - time.perf_counter()
        await asyncio.sleep(delay if delay > 0 else 0)
        if inflight[0] >= IN_FLIGHT_CAP:
            capped = True
            break
        record = Record(label, stream.next(), due)
        records.append(record)
        mine.append(record)
        inflight[0] += 1
        record.sent = time.perf_counter()
        tasks.append(asyncio.ensure_future(_submit(frontend, record, inflight)))
    backlog = inflight[0]
    await asyncio.gather(*tasks)
    return mine, backlog, capped


def _latencies(records: Sequence[Record]) -> List[float]:
    return [r.latency_ms for r in records if r.response.get("ok")]


def _events(counters: Dict[str, object]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for shard in counters["per_shard"]:  # type: ignore[union-attr]
        for key, value in shard.get("events", {}).items():
            totals[key] = totals.get(key, 0) + int(value)
    for key, value in counters["cache"].items():  # type: ignore[union-attr]
        if key in ("hits", "shared_hits", "misses", "evictions"):
            totals[key] = int(value)
    return totals


#: What the metrics still need of a record once its answer is checked.
_KEPT_REQUEST = ("rid", "op", "id")
_KEPT_RESPONSE = ("ok", "source", "shed", "stale", "coalesced")


def _verify(mirror: ServeMirror, records: Sequence[Record], start: int,
            errors: List[str]) -> int:
    """Check ``records[start:]`` against the mirror, in submission order,
    then strip them to what the metrics need, so memory stays flat however
    many requests a run sends.  Returns the index to start from next time."""
    for record in records[start:]:
        request, response = record.request, record.response
        if not response.get("ok"):
            errors.append(f"{request['rid']} {request['op']}: {response.get('error')}")
            continue
        if request["op"] == "mutate":
            mirror.mutate(str(request["id"]), request["mutations"])  # type: ignore[arg-type]
            continue
        problem = mirror.check_solve_response(response)
        if problem is not None:
            errors.append(f"{request['rid']} solve {request['id']}: {problem}")
    for record in records[start:]:
        record.request = {key: record.request[key] for key in _KEPT_REQUEST}
        record.response = {key: record.response[key]
                           for key in _KEPT_RESPONSE if key in record.response}
    return len(records)


async def _run(seed: int, seconds: float, ladder: Dict[str, object]) -> Dict[str, object]:
    errors: List[str] = []
    setups = []
    fleet: Optional[Fleet] = None
    graphs: Dict[str, Tuple[int, Sequence[Tuple[int, int]]]] = {}
    for _ in range(SETUP_REPEATS):
        if fleet is not None:
            await fleet.close()
        start = time.perf_counter()
        graphs = fleet_edges(seed)
        checks = {gid: EdgeArrays(n, edges) for gid, (n, edges) in graphs.items()}
        fleet = await _boot(graphs, checks, errors)
        setups.append(time.perf_counter() - start)
    assert fleet is not None
    try:
        return await _measure(fleet, graphs, errors, median(setups), seed, seconds, ladder)
    finally:
        await fleet.close()


async def _measure(fleet: Fleet, graphs: Dict[str, Tuple[int, Sequence[Tuple[int, int]]]],
                   errors: List[str], boot_s: float, seed: int, seconds: float,
                   ladder: Dict[str, object]) -> Dict[str, object]:
    """Fill the tier, warm up and send the stream; ``ladder`` is the
    cold-solve ladder's result, whose metrics this one's extend."""
    tracer: Optional[Tracer] = ladder.get("tracer")  # type: ignore[assignment]
    stream = RequestStream(seed, graphs)
    mirror = ServeMirror(graphs)
    records: List[Record] = []
    router, frontend = fleet.router, fleet.frontend
    timed = TimedRouter(router)
    start = time.perf_counter()
    await _fill(frontend, router, stream, records)
    fill_s = time.perf_counter() - start
    checked = _verify(mirror, records, 0, errors)
    fill_note = (f"fill: sent {len(records)}, tier {len(router.tier)}/{router.tier.capacity}"
                 f" in {fill_s:.1f} s")
    await _phase(frontend, stream, records, seed, "warmup", LO_RATE, WARMUP_SECONDS)
    checked = _verify(mirror, records, checked, errors)
    before = _events(router.counters())
    phases: List[Tuple[str, List[Record]]] = []
    notes: List[str] = []
    try:
        if tracer is None:
            rungs = [("lo", LO_RATE, seconds * LO_SHARE), ("hi", HI_RATE, seconds * HI_SHARE)]
            budget = seconds * (1 - LO_SHARE - HI_SHARE)
            rungs += [(f"step{k}", rate, STEP_SECONDS)
                      for k, rate in enumerate(LADDER[:int(budget // STEP_SECONDS)])]
            capacity = BELOW_LADDER_RPS
            failures = 0
            for label, rate, length in rungs:
                if failures >= STOP_AFTER_FAILURES and label.startswith("step"):
                    break
                mine, backlog, capped = await _phase(
                    frontend, stream, records, seed, label, rate, length)
                checked = _verify(mirror, records, checked, errors)
                phases.append((label, mine))
                lat = _latencies(mine)
                p99 = percentile(lat, 99) if lat else float("inf")
                notes.append(f"{label}@{rate:g}/s: sent {len(mine)}, p99 {p99:.1f} ms, "
                             f"backlog {backlog}{', capped' if capped else ''}")
                if (
                    not capped
                    and len(lat) == len(mine) > 0
                    and p99 <= LATENCY_LIMIT_MS
                    and backlog <= rate * BACKLOG_LIMIT_S
                ):
                    capacity = rate
                    failures = 0
                else:
                    failures += 1
            by_label = dict(phases)
            lo = _latencies(by_label["lo"])
            hi = _latencies(by_label["hi"])
            fixed = by_label["lo"] + by_label["hi"]
            solves = [r for r in fixed if r.request["op"] == "solve" and r.response.get("ok")]
            degraded = sum(1 for r in solves if r.response.get("shed") or r.response.get("stale"))
            metrics = dict(ladder["metrics"])  # type: ignore[call-overload]
            ladder_setup_s = metrics["setup_s"][0]
            metrics["setup_s"] = (ladder_setup_s + boot_s, "s")
            metrics["peak_rss_mb"] = (tree_peak_rss_mb(), "MB")
            notes.append(f"setup_s: ladder {ladder_setup_s:.2f} s + boot {boot_s:.2f} s")
            printed = {
                "serve_fill_s": (fill_s, "s", FILL),
                "serve_ms_p50_lo": (percentile(lo, 50), "ms", NOISY),
                "serve_ms_p99_lo": (percentile(lo, 99), "ms", NOISY),
                "serve_ms_p50_hi": (percentile(hi, 50), "ms", NOISY),
                "serve_ms_p99_hi": (percentile(hi, 99), "ms", NOISY),
                "serve_capacity_rps": (capacity, "1/s", NOISY),
                "serve_degraded_ratio": (degraded / max(1, len(solves)), "ratio", NOISY),
            }
        else:
            share = seconds / 4.0
            traced_records: List[Record] = []
            untraced_records: List[Record] = []
            for label, rate in (("lo", LO_RATE), ("hi", HI_RATE)):
                for tracing in (False, True):
                    frontend.router = timed if tracing else router  # type: ignore[assignment]
                    mine, _, _ = await _phase(
                        frontend, stream, records, seed,
                        f"{label}-{'traced' if tracing else 'plain'}", rate, share)
                    checked = _verify(mirror, records, checked, errors)
                    phases.append((f"{label}-{'traced' if tracing else 'plain'}", mine))
                    (traced_records if tracing else untraced_records).extend(mine)
            after = _events(router.counters())
            metrics = dict(ladder["metrics"])  # type: ignore[call-overload]
            printed = {
                name: (value, unit, ONLY_HERE)
                for name, (value, unit) in _layer_metrics(
                    tracer, timed, traced_records, untraced_records, records,
                    before, after).items()
            }
    finally:
        frontend.router = router  # type: ignore[assignment]
    errors = list(ladder["errors"]) + errors  # type: ignore[call-overload]
    return {
        "attempted": int(ladder["attempted"])  # type: ignore[call-overload]
        + len(records) + SETUP_REPEATS * 2 * len(graphs),
        "failed": len(errors),
        "errors": errors,
        "ladder": ladder["ladder"],
        "repeats": ladder["repeats"],
        "raw": ladder["raw"],
        "phases": [fill_note] + (
            notes or [f"{label}: sent {len(mine)}" for label, mine in phases]),
        "metrics": metrics,
        "printed": printed,
        "tracer": tracer,
    }


def _layer_metrics(tracer: Tracer, timed: TimedRouter, traced: List[Record],
                   untraced: List[Record], every: List[Record], before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """The stream's per-layer figures; its spans go into ``tracer``."""
    dispatch_of: Dict[str, Tuple[float, float]] = {}
    for start, end, rids in timed.calls:
        for rid in rids:
            dispatch_of[rid] = (start, end)
    waits = []
    for record in traced:
        rid = str(record.request["rid"])
        parent = tracer.add("serve.request", record.due, record.done, rid=rid)
        if rid in dispatch_of:
            start, end = dispatch_of[rid]
            tracer.add("serve.router.dispatch", start, end, parent, rid)
            waits.append((start - record.due) * 1e3)
    solves = [r for r in traced if r.request["op"] == "solve" and r.response.get("ok")]
    coalesced = sum(1 for r in solves if r.response.get("coalesced"))
    shed = sum(1 for r in solves if r.response.get("shed"))
    durations = [(end - start) * 1e3 for start, end, _ in timed.calls]
    dispatched = sum(len(rids) for _, _, rids in timed.calls)
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    lookups = delta["hits"] + delta["shared_hits"] + delta["misses"]
    repairs = delta.get(STAT_SERVE_REPAIR, 0)
    fulls = delta.get(STAT_SERVE_FULL_RESOLVE, 0)
    metrics: Dict[str, Tuple[float, str]] = {
        "serve.frontend.wait_ms_p50": (percentile(waits, 50), "ms"),
        "serve.frontend.wait_ms_p99": (percentile(waits, 99), "ms"),
        "serve.frontend.coalesced_share": (coalesced / max(1, len(solves)), "ratio"),
        "serve.frontend.shed_share": (shed / max(1, len(solves)), "ratio"),
        "serve.frontend.batch_size_mean": (
            (dispatched + coalesced) / max(1, len(timed.calls)), "count"),
        "serve.router.dispatch_ms_p50": (percentile(durations, 50), "ms"),
        "serve.router.dispatch_ms_p99": (percentile(durations, 99), "ms"),
        "serve.router.dispatch_ms_per_request": (sum(durations) / max(1, dispatched), "ms"),
        "serve.cache.hit_share": (delta["hits"] / max(1, lookups), "ratio"),
        "serve.cache.shared_hit_share": (delta["shared_hits"] / max(1, lookups), "ratio"),
        "serve.cache.evictions": (float(delta["evictions"]), "count"),
    }
    for source, label in (("cache", "cache"), ("repair", "repair"), ("cold", "full")):
        lat = [r.latency_ms for r in solves if r.response.get("source") == source]
        for q in (50, 99):
            metrics[f"serve.latency_ms_p{q}.{label}"] = (
                percentile(lat, q), "ms")
    metrics["serve.repair.repair_share"] = (repairs / max(1, repairs + fulls), "ratio")
    metrics["serve.repair.vertices_per_repair"] = (
        delta.get(STAT_SERVE_REPAIR_VERTICES, 0) / max(1, repairs), "count")
    metrics["bench.generator_late_ms_p99"] = (
        percentile([(r.sent - r.due) * 1e3 for r in every if r.phase != "fill"], 99), "ms")
    plain = percentile(_latencies(untraced), 50)
    metrics["bench.serve_trace_overhead"] = (
        percentile(_latencies(traced), 50) / plain if plain else 0.0, "ratio")
    return metrics


def run_serve(seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    ladder = run_solve("serve-mixed", seed, seconds * LADDER_SHARE, traced)
    return asyncio.run(_run(seed, seconds * (1 - LADDER_SHARE), ladder))
