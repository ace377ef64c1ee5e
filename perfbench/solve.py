"""The solve ladders: the whole of ``solve-powerlaw`` and ``solve-peel``,
and the cold-solve part of ``serve-mixed``.

Untraced mode times LinearTime and NearLinear (the default
``compute_independent_set`` backends) on every rung of the ladder,
interleaving rungs and algorithms within each repeat.  Traced mode pairs
each untraced repeat with a traced one that also calls the layers the
solvers are built from, each inside its own span.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import MISResult, compute_independent_set, kernelize, lp_reduction
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.graphs.static_graph import Graph
from repro.obs.telemetry import telemetry_session

from check import EdgeArrays, check_solve
from gen import answer_pool, ladder
from measure import host_factor, loglog_slope, median, peak_rss_mb
from spans import Tracer

ALGORITHMS = ("LinearTime", "NearLinear")
SHORT = {"LinearTime": "lt", "NearLinear": "nl"}
#: Set-up (generate + build the whole ladder) runs this many times; its
#: median is reported.
SETUP_REPEATS = 3
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 1


class Rung:
    __slots__ = ("name", "graph", "arrays", "size", "upper_bound", "peeled", "surviving")

    def __init__(self, name: str, graph: Graph, arrays: EdgeArrays) -> None:
        self.name = name
        self.graph = graph
        self.arrays = arrays
        self.size: Dict[str, int] = {}
        self.upper_bound: Dict[str, int] = {}
        self.peeled: Dict[str, int] = {}
        self.surviving: Dict[str, int] = {}


class Run:
    """Outcome counters and answer checks shared by every solve."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def solve(self, rung: Rung, algorithm: str) -> Tuple[float, MISResult]:
        """One timed solve; the answer is checked after the clock stops."""
        start = time.perf_counter()
        result = compute_independent_set(rung.graph, algorithm)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = check_solve(rung.arrays, result.independent_set,
                              result.upper_bound, result.is_exact)
        if problem is None and algorithm in rung.size and (
            result.size != rung.size[algorithm]
            or result.upper_bound != rung.upper_bound[algorithm]
        ):
            problem = "answer differs from the first solve of the same graph"
        if problem is not None:
            self.errors.append(f"{algorithm} on {rung.name}: {problem}")
        return elapsed, result


def _first_solves(rung: Rung, run: Run) -> float:
    """Solve ``rung`` once by each algorithm, keeping the answers' figures;
    returns the seconds taken."""
    total = 0.0
    for algorithm in ALGORITHMS:
        elapsed, result = run.solve(rung, algorithm)
        total += elapsed
        rung.size[algorithm] = result.size
        rung.upper_bound[algorithm] = result.upper_bound
        rung.peeled[algorithm] = result.peeled
        rung.surviving[algorithm] = result.surviving_peels
    return total


def _setup(workload: str, seed: int, run: Run,
           tracer: Optional[Tracer]) -> Tuple[List[Rung], List[Rung], float, float]:
    """Build the ladder SETUP_REPEATS times, then warm up every solver and
    solve the answer pool (``gen.answer_pool``) once.

    Returns the rungs, the pool (its graphs dropped, its answers' figures
    kept), the set-up time (median build + warm-up + pool) and the total
    ``Graph.from_edges`` time of the ladder's builds per built edge.
    """
    builds = []
    from_edges_s = 0.0
    built_edges = 0
    graphs: List[Tuple[str, Graph, list]] = []
    factor = host_factor()
    for attempt in range(SETUP_REPEATS):
        graphs = []
        start = time.perf_counter()
        for name, n, edges in ladder(workload, seed):
            t0 = time.perf_counter()
            graph = Graph.from_edges(n, edges, name=name)
            t1 = time.perf_counter()
            from_edges_s += t1 - t0
            built_edges += len(edges)
            if tracer is not None:
                tracer.add("graphs.from_edges", t0, t1, rid=f"setup{attempt}/{name}")
            graphs.append((name, graph, edges))
        elapsed = time.perf_counter() - start
        after = host_factor()
        builds.append(elapsed / ((factor + after) / 2))
        factor = after
    rungs = [Rung(name, graph, EdgeArrays(graph.n, edges)) for name, graph, edges in graphs]
    del graphs
    warmup = sum(_first_solves(rung, run) for rung in rungs)
    pool = []
    for name, n, edges in answer_pool(workload, seed):
        start = time.perf_counter()
        graph = Graph.from_edges(n, edges, name=name)
        warmup += time.perf_counter() - start
        rung = Rung(name, graph, EdgeArrays(n, edges))
        warmup += _first_solves(rung, run)
        rung.graph = rung.arrays = None  # type: ignore[assignment]
        pool.append(rung)
    warmup /= (factor + host_factor()) / 2
    return rungs, pool, median(builds) + warmup, from_edges_s * 1e9 / max(built_edges, 1)


def _order(rungs: List[Rung], repeat: int) -> List[Tuple[Rung, str]]:
    """Rungs ascending on even repeats, descending on odd; the algorithm
    that goes first alternates from rung to rung and repeat to repeat."""
    ordered = rungs if repeat % 2 == 0 else rungs[::-1]
    pairs = []
    for index, rung in enumerate(ordered):
        algos = ALGORITHMS if (index + repeat) % 2 == 0 else ALGORITHMS[::-1]
        pairs.extend((rung, algorithm) for algorithm in algos)
    return pairs


def _untraced_pass(rungs: List[Rung], run: Run, repeat: int,
                   times: Dict[Tuple[str, str], List[float]],
                   raw: Dict[Tuple[str, str], List[float]]) -> None:
    """One solve per rung and algorithm; ``times`` gets each wall time
    divided by the host factor measured around it, ``raw`` the wall time."""
    factor = host_factor()
    for rung, algorithm in _order(rungs, repeat):
        elapsed, _ = run.solve(rung, algorithm)
        after = host_factor()
        times[rung.name, algorithm].append(elapsed / ((factor + after) / 2))
        raw[rung.name, algorithm].append(elapsed)
        factor = after


def _traced_pass(rungs: List[Rung], run: Run, repeat: int, tracer: Tracer,
                 layers: Dict[Tuple[str, str], List[float]],
                 shares: Dict[str, Dict[str, float]]) -> None:
    """Every solve again, plus the layer calls, each in a span."""
    for rung, algorithm in _order(rungs, repeat):
        graph = rung.graph
        rid = f"{rung.name}/{SHORT[algorithm]}/r{repeat}"
        with tracer.span(f"solve.{SHORT[algorithm]}", rid):
            with tracer.span(f"core.compute_independent_set.{SHORT[algorithm]}", rid) as i:
                run.solve(rung, algorithm)
            layers[rung.name, f"solve.{SHORT[algorithm]}"].append(tracer.duration(i))
            method = "linear_time" if algorithm == "LinearTime" else "near_linear"
            with tracer.span(f"core.kernel.kernelize.{SHORT[algorithm]}", rid) as i:
                kernel = kernelize(graph, method)
            layers[rung.name, f"kernelize.{SHORT[algorithm]}"].append(tracer.duration(i))
            if algorithm == "NearLinear":
                shares[rung.name]["kernel_m"] = kernel.kernel.m
                with tracer.span("core.flat_dominance.flat_one_pass_dominance", rid) as i:
                    dominated = flat_one_pass_dominance(graph)
                layers[rung.name, "sweep"].append(tracer.duration(i))
                keep = np.ones(graph.n, dtype=bool)
                keep[dominated] = False
                survivors = np.flatnonzero(keep).tolist()
                with tracer.span("graphs.subgraph", rid) as i:
                    residual, _ = graph.subgraph(survivors)
                layers[rung.name, "subgraph"].append(tracer.duration(i))
                with tracer.span("core.lp_reduction.lp_reduction", rid) as i:
                    lp = lp_reduction(residual)
                layers[rung.name, "lp"].append(tracer.duration(i))
                shares[rung.name]["removed"] = len(dominated)
                shares[rung.name]["lp_input"] = residual.n
                shares[rung.name]["lp_settled"] = len(lp.included) + len(lp.excluded)
            with tracer.span(f"obs.telemetry_session.{SHORT[algorithm]}", rid) as i:
                with telemetry_session(label="perfbench"):
                    run.solve(rung, algorithm)
            layers[rung.name, f"telemetry.{SHORT[algorithm]}"].append(tracer.duration(i))


def run_solve(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """Build, warm up and time the ladder of ``workload`` for ``seconds``.

    The result holds the end-to-end metrics (untraced) or the per-layer
    metrics and the tracer (traced), with the run's answer counts."""
    run = Run()
    tracer = Tracer() if traced else None
    rungs, pool, setup_s, from_edges_ns = _setup(workload, seed, run, tracer)
    gc.collect()
    gc.freeze()
    times: Dict[Tuple[str, str], List[float]] = {
        (rung.name, algorithm): [] for rung in rungs for algorithm in ALGORITHMS
    }
    raw: Dict[Tuple[str, str], List[float]] = {key: [] for key in times}
    layers: Dict[Tuple[str, str], List[float]] = {}
    shares: Dict[str, Dict[str, float]] = {rung.name: {} for rung in rungs}
    if tracer is not None:
        for rung in rungs:
            for key in ("solve.lt", "solve.nl", "kernelize.lt", "kernelize.nl",
                        "sweep", "subgraph", "lp", "telemetry.lt", "telemetry.nl"):
                layers[rung.name, key] = []
    start = time.perf_counter()
    deadline = start + seconds
    repeat = 0
    minimum = MIN_TRACED_REPEATS if traced else MIN_REPEATS
    while True:
        began = time.perf_counter()
        _untraced_pass(rungs, run, repeat, times, raw)
        if tracer is not None:
            _traced_pass(rungs, run, repeat, tracer, layers, shares)
        repeat += 1
        now = time.perf_counter()
        if repeat >= minimum and now + (now - began) > deadline:
            break
    top = rungs[-1]
    m_top = top.graph.m
    m_ladder = sum(rung.graph.m for rung in rungs)
    med = {key: median(values) for key, values in times.items()}
    med_raw = {key: median(values) for key, values in raw.items()}
    result: Dict[str, object] = {
        "attempted": run.attempted,
        "failed": len(run.errors),
        "errors": run.errors,
        "repeats": repeat,
        "ladder": [(rung.name, rung.graph.n, rung.graph.m) for rung in rungs],
        "raw": {f"{SHORT[a]}_medges_per_s (raw wall time)":
                m_ladder / sum(med_raw[r.name, a] for r in rungs) / 1e6
                for a in ALGORITHMS},
    }
    if tracer is None:
        metrics: Dict[str, Tuple[float, str]] = {"setup_s": (setup_s, "s")}
        for algorithm in ALGORITHMS:
            short = SHORT[algorithm]
            # Over the whole ladder, not its top rung alone: how fast
            # NearLinear runs varies by about 6% from one seeded graph to
            # the next at the same size, and pooling the rungs cuts that by about 40%.
            metrics[f"{short}_medges_per_s"] = (
                m_ladder / sum(med[r.name, algorithm] for r in rungs) / 1e6, "Medges/s")
            metrics[f"{short}_loglog_slope"] = (
                loglog_slope([r.graph.m for r in rungs], [med[r.name, algorithm] for r in rungs]),
                "slope",
            )
            metrics[f"{short}_certified_ratio"] = (
                sum(r.size[algorithm] for r in rungs + pool)
                / sum(r.upper_bound[algorithm] for r in rungs + pool),
                "ratio",
            )
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        result["metrics"] = metrics
        return result

    lay = {key: median(values) for key, values in layers.items()}
    n_total = sum(r.graph.n for r in rungs)
    m_total = sum(r.graph.m for r in rungs)
    peeled = sum(r.peeled[a] for r in rungs for a in ALGORITHMS)
    surviving = sum(r.surviving[a] for r in rungs for a in ALGORITHMS)
    t = top.name
    per_layer: Dict[str, Tuple[float, str]] = {
        "graphs.from_edges_ns_per_edge": (from_edges_ns, "ns/edge"),
        "graphs.subgraph_ms": (lay[t, "subgraph"] * 1e3, "ms"),
        "core.flat_dominance.sweep_ns_per_edge": (lay[t, "sweep"] * 1e9 / m_top, "ns/edge"),
        "core.flat_dominance.removed_share": (
            sum(shares[r.name]["removed"] for r in rungs) / n_total, "ratio"),
        "core.lp_reduction.lp_ns_per_edge": (lay[t, "lp"] * 1e9 / m_top, "ns/edge"),
        "core.lp_reduction.settled_share": (
            sum(shares[r.name]["lp_settled"] for r in rungs)
            / max(1, sum(shares[r.name]["lp_input"] for r in rungs)), "ratio"),
        "core.kernel.lt_reduce_ns_per_edge": (lay[t, "kernelize.lt"] * 1e9 / m_top, "ns/edge"),
        "core.kernel.nl_reduce_ns_per_edge": (
            (lay[t, "kernelize.nl"] - lay[t, "sweep"] - lay[t, "lp"]) * 1e9 / m_top, "ns/edge"),
        "core.kernel.kernel_edge_share": (
            sum(shares[r.name]["kernel_m"] for r in rungs) / m_total, "ratio"),
        "core.lt_peel_lift_share": (
            (lay[t, "solve.lt"] - lay[t, "kernelize.lt"]) / lay[t, "solve.lt"], "ratio"),
        "core.nl_peel_lift_share": (
            (lay[t, "solve.nl"] - lay[t, "kernelize.nl"]) / lay[t, "solve.nl"], "ratio"),
        "core.peel_share": (peeled / (len(ALGORITHMS) * n_total), "ratio"),
        "core.surviving_peel_share": (surviving / peeled if peeled else 0.0, "ratio"),
        "obs.telemetry_overhead_lt": (lay[t, "telemetry.lt"] / lay[t, "solve.lt"], "ratio"),
        "obs.telemetry_overhead_nl": (lay[t, "telemetry.nl"] / lay[t, "solve.nl"], "ratio"),
        "bench.trace_overhead": (
            sum(lay[r.name, f"solve.{SHORT[a]}"] for r in rungs for a in ALGORITHMS)
            / sum(med_raw[r.name, a] for r in rungs for a in ALGORITHMS), "ratio"),
    }
    result["metrics"] = per_layer
    result["tracer"] = tracer
    return result
