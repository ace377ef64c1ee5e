"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the library's everyday uses:

* ``solve``     — compute an independent set (or vertex cover) of a graph
  file with any of the paper's algorithms; ``--telemetry trace.jsonl``
  additionally records a phase-span trace (see :mod:`repro.obs`);
* ``kernelize`` — shrink a graph to its kernel and write it back out;
* ``info``      — print structural statistics of a graph file;
* ``generate``  — emit a synthetic graph (power-law, G(n,m), web-like);
* ``obs``       — inspect observability artefacts (``obs report`` pretty-
  prints a JSON-lines telemetry trace);
* ``serve``     — drive the incremental solving service from a JSONL
  request stream (see :mod:`repro.serve.requests` for the protocol);
  ``--async --shards N`` runs the sharded asyncio front-end instead
  (:mod:`repro.serve.frontend`), replaying the file or, with ``--port``,
  listening for JSONL/HTTP connections until SIGTERM/SIGINT;
* ``loadgen``   — seeded load generator comparing the sync loop against
  the async front-end with rid-level answer verification
  (:mod:`repro.serve.loadgen`);
* ``bench``     — run the perf-regression suite with backend selection
  (``--backend {legacy,flat,vectorized,auto,all}``);
* ``snapshot``  — summarize a service snapshot written by ``serve
  --snapshot`` or :meth:`repro.serve.SolverService.save`.

Graph files are auto-detected by extension: ``.metis``/``.graph`` (METIS),
``.col``/``.dimacs`` (DIMACS), anything else as a SNAP edge list.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .analysis import complement_vertex_cover
from .baselines import du, greedy, online_mis, redumis, semi_external
from .core import ALGORITHMS, KERNEL_METHODS, compute_independent_set, kernelize
from .errors import ReproError
from .graphs import (
    Graph,
    gnm_random_graph,
    power_law_graph,
    read_dimacs,
    read_edge_list,
    read_metis,
    web_like_graph,
    write_edge_list,
    write_metis,
)

__all__ = ["main", "build_parser"]

_BASELINES = {
    "Greedy": greedy,
    "DU": du,
    "SemiE": semi_external,
    "OnlineMIS": online_mis,
    "ReduMIS": redumis,
}


def load_graph(path: str) -> Tuple[Graph, Optional[List[int]]]:
    """Read a graph file, dispatching on the extension.

    Returns ``(graph, labels)``; ``labels`` maps compacted ids back to the
    file's original labels for edge lists, and is ``None`` for the
    1-indexed formats.
    """
    lower = path.lower()
    if lower.endswith((".metis", ".graph")):
        return read_metis(path, name=path), None
    if lower.endswith((".col", ".dimacs")):
        return read_dimacs(path, name=path), None
    graph, labels = read_edge_list(path, name=path)
    return graph, labels


def _cmd_solve(args: argparse.Namespace) -> int:
    graph, labels = load_graph(args.graph)
    name = args.algorithm

    def run():
        if name in _BASELINES:
            return _BASELINES[name](graph)
        return compute_independent_set(graph, name)

    if args.telemetry:
        from .obs import (
            MemoryProbe,
            probe_record,
            summarize,
            telemetry_session,
            write_trace,
        )

        with telemetry_session(label=f"solve-{name}") as telemetry:
            if args.telemetry_memory:
                with MemoryProbe() as probe:
                    result = run()
                probe_record(probe, name, graph, telemetry=telemetry)
            else:
                result = run()
        records = telemetry.to_records()
        count = write_trace(args.telemetry, records)
        span_total = summarize(records)["span_total"]
        print(
            f"# telemetry: {count} records to {args.telemetry} "
            f"(span total {span_total:.3f}s; "
            f"view with `python -m repro obs report {args.telemetry}`)"
        )
    else:
        result = run()
    vertices = sorted(result.independent_set)
    if args.vertex_cover:
        vertices = sorted(complement_vertex_cover(graph, result.independent_set))
        print(f"# minimum-vertex-cover heuristic: size {len(vertices)}")
    else:
        print(f"# independent set: size {result.size}")
        print(f"# upper bound on alpha: {result.upper_bound}")
        print(f"# certified maximum: {result.is_exact}")
    print(f"# algorithm: {result.algorithm}, time: {result.elapsed:.3f}s")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for v in vertices:
                handle.write(f"{labels[v] if labels else v}\n")
        print(f"# wrote {len(vertices)} vertex ids to {args.output}")
    elif args.print_vertices:
        for v in vertices:
            print(labels[v] if labels else v)
    return 0


def _cmd_kernelize(args: argparse.Namespace) -> int:
    graph, _ = load_graph(args.graph)
    kernel_result = kernelize(graph, method=args.method)
    kernel = kernel_result.kernel
    print(f"# input : n={graph.n} m={graph.m}")
    print(f"# kernel: n={kernel.n} m={kernel.m} (method={args.method})")
    print(f"# rules fired: {dict(kernel_result.log.stats)}")
    if args.output:
        if args.output.lower().endswith((".metis", ".graph")):
            write_metis(kernel, args.output)
        else:
            write_edge_list(kernel, args.output)
        print(f"# wrote kernel to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .graphs import connected_components, degeneracy, degree_histogram

    graph, _ = load_graph(args.graph)
    histogram = degree_histogram(graph)
    components = connected_components(graph)
    print(f"vertices        : {graph.n}")
    print(f"edges           : {graph.m}")
    print(f"average degree  : {graph.average_degree():.2f}")
    print(f"maximum degree  : {graph.max_degree()}")
    print(f"degree <= 2     : {sum(histogram.get(d, 0) for d in (0, 1, 2))}")
    print(f"components      : {len(components)}")
    print(f"largest comp.   : {len(components[0]) if components else 0}")
    print(f"degeneracy      : {degeneracy(graph)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "powerlaw":
        graph = power_law_graph(
            args.n, beta=args.beta, average_degree=args.avg_degree, seed=args.seed
        )
    elif args.family == "gnm":
        graph = gnm_random_graph(args.n, int(args.n * args.avg_degree / 2), seed=args.seed)
    else:
        graph = web_like_graph(
            args.n, attach=max(1, round(args.avg_degree / 2)), seed=args.seed
        )
    if args.output.lower().endswith((".metis", ".graph")):
        write_metis(graph, args.output)
    else:
        write_edge_list(graph, args.output)
    print(f"# wrote {args.family} graph n={graph.n} m={graph.m} to {args.output}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_report

    print(render_report(load_trace(args.trace), title=f"trace: {args.trace}"))
    return 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    from .obs.watch import main as watch_main

    argv = ["--dir", args.dir, "--tolerance", str(args.tolerance)]
    if args.json:
        argv.append("--json")
    if args.out:
        argv.extend(["--out", args.out])
    if args.strict:
        argv.append("--strict")
    return watch_main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    from contextlib import ExitStack

    from .serve import SolverService, ServiceConfig
    from .serve.requests import serve_stream

    if getattr(args, "use_async", False):
        return _serve_async(args)

    # Graceful shutdown: the first SIGTERM/SIGINT asks the stream pump to
    # stop after the in-flight request (the flush/snapshot epilogue below
    # still runs, and the exit code stays 0); a second signal interrupts a
    # blocked stdin read by raising KeyboardInterrupt, which the pump
    # treats the same way.
    stop_requested = {"flag": False}

    def _on_signal(signum: int, _frame: object) -> None:
        if stop_requested["flag"]:
            raise KeyboardInterrupt
        stop_requested["flag"] = True
        print(
            f"# signal {signum}: draining in-flight request, then flushing",
            file=sys.stderr,
        )

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass

    with ExitStack() as stack:
        telemetry = None
        if args.metrics_out:
            # Enabled before the service is built, so it adopts the global
            # registry and the exposition sees every request.
            from .obs.metrics import metrics_session

            stack.enter_context(metrics_session(label="repro-serve"))
        if args.trace_out:
            from .obs import telemetry_session

            telemetry = stack.enter_context(telemetry_session(label="repro-serve"))
        if args.restore:
            service = SolverService.load(args.restore)
            print(
                f"# restored {len(service.graph_ids())} graph(s) from {args.restore}",
                file=sys.stderr,
            )
        else:
            service = SolverService(
                ServiceConfig(
                    algorithm=args.algorithm,
                    cache_capacity=args.cache_capacity,
                    dirty_threshold=args.dirty_threshold,
                    repair_radius=args.repair_radius,
                    default_timeout=args.timeout,
                )
            )
        if args.requests == "-":
            source = sys.stdin
            close_source = None
        else:
            close_source = open(args.requests, "r", encoding="utf-8")
            source = close_source
        if args.output:
            sink = open(args.output, "w", encoding="utf-8")
        else:
            sink = sys.stdout
        try:
            failed = serve_stream(
                service,
                source,
                sink,
                should_stop=lambda: stop_requested["flag"],
            )
        except KeyboardInterrupt:
            # Second signal while blocked on a read: treat as a completed
            # drain so the epilogue still flushes and the exit code is 0.
            failed = 0
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            if close_source is not None:
                close_source.close()
            if args.output:
                sink.close()
        if args.snapshot:
            service.save(args.snapshot)
            print(f"# snapshot written to {args.snapshot}", file=sys.stderr)
        if args.stats:
            print(
                f"# counters: {json.dumps(service.counters(), sort_keys=True)}",
                file=sys.stderr,
            )
        if args.metrics_out:
            if args.metrics_out.endswith(".jsonl"):
                count = service.metrics.write_jsonl(args.metrics_out)
                print(
                    f"# metrics: {count} records to {args.metrics_out}",
                    file=sys.stderr,
                )
            else:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(service.metrics.to_prometheus())
                print(
                    f"# metrics: Prometheus exposition to {args.metrics_out}",
                    file=sys.stderr,
                )
        if args.trace_out and telemetry is not None:
            from .obs import write_trace

            count = write_trace(args.trace_out, telemetry.to_records())
            print(
                f"# trace: {count} records to {args.trace_out} "
                f"(view with `python -m repro obs report {args.trace_out}`)",
                file=sys.stderr,
            )
    return 1 if failed else 0


def _serve_async(args: argparse.Namespace) -> int:
    """``repro serve --async``: sharded front-end, replay or socket mode.

    With ``--port`` the front-end listens for JSONL/HTTP connections until
    SIGTERM/SIGINT, then drains.  Without it the request file (or stdin)
    is replayed through the same admission/batch/shard path and responses
    stream to ``--output``/stdout — byte-comparable with the sync mode
    modulo provenance fields.
    """
    import asyncio
    import json
    import signal
    from contextlib import ExitStack

    from .serve import AsyncFrontend, ServiceConfig, ShardRouter, serve_forever
    from .serve.requests import error_response, parse_request_line, salvage_rid

    if args.restore or args.snapshot:
        raise ReproError(
            "--restore/--snapshot apply to the single-process mode only; "
            "the async front-end shards state across workers"
        )
    if args.trace_out:
        raise ReproError(
            "--trace-out applies to the single-process mode only; use "
            "--metrics-out for the frontend's repro_frontend_* series"
        )
    config = ServiceConfig(
        algorithm=args.algorithm,
        cache_capacity=args.cache_capacity,
        dirty_threshold=args.dirty_threshold,
        repair_radius=args.repair_radius,
        default_timeout=args.timeout,
    )
    failed = 0
    with ExitStack() as stack:
        if args.metrics_out:
            from .obs.metrics import metrics_session

            stack.enter_context(metrics_session(label="repro-serve"))
        router = ShardRouter(shards=args.shards, config=config, mode=args.mode)
        frontend = AsyncFrontend(
            router,
            max_queue_depth=args.max_queue_depth,
            max_batch=args.max_batch,
            own_router=True,
        )
        final_stats: dict = {}

        if args.port is not None:

            async def _run_server() -> None:
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(signum, stop.set)
                    except (NotImplementedError, RuntimeError):
                        pass  # pragma: no cover - non-main thread / platform

                class _Announce:
                    def put(self, bound: tuple) -> None:
                        print(
                            f"# listening on {bound[0]}:{bound[1]} "
                            f"({args.shards} shard(s), mode={args.mode}); "
                            "SIGTERM/SIGINT drains and exits 0",
                            file=sys.stderr,
                        )

                await serve_forever(
                    frontend, host=args.host, port=args.port,
                    ready=_Announce(), stop=stop,
                )
                final_stats.update(frontend.snapshot())

            asyncio.run(_run_server())
        else:
            stop_requested = {"flag": False}

            def _on_signal(signum: int, _frame: object) -> None:
                stop_requested["flag"] = True

            previous = {}
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous[signum] = signal.signal(signum, _on_signal)
                except ValueError:  # pragma: no cover - non-main thread
                    pass
            if args.requests == "-":
                source = sys.stdin
                close_source = None
            else:
                close_source = open(args.requests, "r", encoding="utf-8")
                source = close_source
            sink = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout

            async def _replay() -> None:
                nonlocal failed
                await frontend.start()
                try:
                    for line in source:
                        if stop_requested["flag"]:
                            break
                        if not line.strip():
                            continue
                        try:
                            request = parse_request_line(line)
                        except ReproError as exc:
                            response = error_response(str(exc), rid=salvage_rid(line))
                            failed += 1
                        else:
                            response = await frontend.submit(request)
                            if response.get("error"):
                                failed += 1
                        sink.write(json.dumps(response, sort_keys=True) + "\n")
                        sink.flush()
                    final_stats.update(frontend.snapshot())
                    final_stats["router"] = router.counters()
                finally:
                    await frontend.drain()

            try:
                asyncio.run(_replay())
            finally:
                for signum, handler in previous.items():
                    signal.signal(signum, handler)
                if close_source is not None:
                    close_source.close()
                if args.output:
                    sink.close()
        if args.stats:
            print(
                f"# frontend: {json.dumps(final_stats, sort_keys=True)}",
                file=sys.stderr,
            )
        if args.metrics_out:
            if args.metrics_out.endswith(".jsonl"):
                count = frontend.metrics.write_jsonl(args.metrics_out)
                print(
                    f"# metrics: {count} records to {args.metrics_out}",
                    file=sys.stderr,
                )
            else:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(frontend.metrics.to_prometheus())
                print(
                    f"# metrics: Prometheus exposition to {args.metrics_out}",
                    file=sys.stderr,
                )
    return 1 if failed else 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .serve.loadgen import LoadgenConfig, run_serve_load_benchmark

    config = LoadgenConfig(
        seed=args.seed,
        graphs=args.graphs,
        vertices=args.vertices,
        edge_probability=args.edge_probability,
        requests=args.requests,
        burst=args.burst,
        mutate_every=args.mutate_every,
    )
    result = run_serve_load_benchmark(
        config=config, shards=args.shards, mode=args.mode
    )
    for label in ("sync", "async"):
        payload = result[label]
        assert isinstance(payload, dict)
        print(
            f"# {label:5s}: {payload['throughput']:8.1f} req/s  "
            f"p50 {payload['p50'] * 1000.0:7.2f}ms  "
            f"p99 {payload['p99'] * 1000.0:7.2f}ms  "
            f"shed {payload['shed']}  coalesced {payload['coalesced']}  "
            f"cache_hit_rate {payload['cache_hit_rate']:.2f}"
        )
    equivalence = result["equivalence"]
    shed_check = result["shed_check"]
    assert isinstance(equivalence, dict) and isinstance(shed_check, dict)
    print(
        f"# speedup {result['speedup']:.2f}x  "
        f"equivalent={equivalence['equivalent']} "
        f"(compared {equivalence['compared']})  "
        f"shed_valid={shed_check['all_valid']} "
        f"({shed_check['shed_valid']}/{shed_check['shed']})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# report written to {args.out}", file=sys.stderr)
    ok = bool(equivalence["equivalent"]) and bool(shed_check["all_valid"])
    return 0 if ok else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import json

    with open(args.snapshot, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    config = payload.get("config", {})
    graphs = payload.get("graphs", {})
    cache = payload.get("cache", [])
    print(f"snapshot version : {payload.get('version')}")
    print(f"algorithm        : {config.get('algorithm')}")
    print(f"kernel method    : {config.get('kernel_method')}")
    print(f"graphs           : {len(graphs)}")
    for graph_id, record in graphs.items():
        dynamic = record.get("dynamic", {})
        alive = dynamic.get("alive", [])
        edges = dynamic.get("edges", [])
        solution = record.get("solution")
        dirty = record.get("dirty", [])
        stale = " stale" if record.get("stale") else ""
        kernel = record.get("kernel", {})
        line = (
            f"  {graph_id}: n={len(alive)} m={len(edges)} "
            f"|I|={'-' if solution is None else len(solution)} "
            f"dirty={len(dirty)}{stale}"
        )
        if kernel:
            line += f" kernel_n={kernel.get('kernel_n')}"
        print(line)
    print(f"cache entries    : {len(cache)}")
    for entry in cache:
        print(
            f"  {entry.get('fingerprint', '')[:12]}… "
            f"algo={entry.get('algorithm')} |I|={len(entry.get('solution', []))} "
            f"certified={entry.get('exact_bound')}"
        )
    if args.verify:
        from .serve import SolverService

        SolverService.restore(payload)
        print("# verify: fingerprints match, snapshot restores cleanly")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench_regression import main as bench_main

    argv = ["--suite", args.suite, "--backend", args.backend, "--out", args.out]
    argv.extend(["--repeats", str(args.repeats)])
    argv.extend(["--max-regression", str(args.max_regression)])
    if args.compare:
        argv.extend(["--compare", args.compare])
    if args.telemetry:
        argv.append("--telemetry")
        argv.extend(["--telemetry-out", args.telemetry_out])
    return bench_main(argv)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run as lint_run

    argv = list(args.paths)
    if args.strict:
        argv.append("--strict")
    if args.format != "human":
        argv.extend(["--format", args.format])
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.list_rules:
        argv.append("--list-rules")
    if args.jobs != 1:
        argv.extend(["--jobs", str(args.jobs)])
    if args.cache:
        argv.extend(["--cache", args.cache])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.sarif_out:
        argv.extend(["--sarif-out", args.sarif_out])
    return lint_run(argv)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reducing-Peeling near-maximum independent sets (SIGMOD'17)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="compute an independent set")
    solve.add_argument("graph", help="graph file (edge list / METIS / DIMACS)")
    solve.add_argument(
        "--algorithm",
        default="NearLinear",
        choices=sorted(ALGORITHMS) + sorted(_BASELINES),
        help="which algorithm to run (default NearLinear)",
    )
    solve.add_argument("--vertex-cover", action="store_true", help="output the complement cover")
    solve.add_argument("--output", help="write the vertex ids to this file")
    solve.add_argument(
        "--print-vertices", action="store_true", help="print the vertex ids to stdout"
    )
    solve.add_argument(
        "--telemetry",
        metavar="TRACE",
        help="record a phase-span telemetry trace to this JSON-lines file",
    )
    solve.add_argument(
        "--telemetry-memory",
        action="store_true",
        help="with --telemetry: add a tracemalloc peak-heap probe (slow)",
    )
    solve.set_defaults(handler=_cmd_solve)

    kernel = commands.add_parser("kernelize", help="reduce a graph to its kernel")
    kernel.add_argument("graph")
    kernel.add_argument(
        "--method",
        default="near_linear",
        choices=sorted(KERNEL_METHODS),
    )
    kernel.add_argument("--output", help="write the kernel graph to this file")
    kernel.set_defaults(handler=_cmd_kernelize)

    info = commands.add_parser("info", help="print graph statistics")
    info.add_argument("graph")
    info.set_defaults(handler=_cmd_info)

    generate = commands.add_parser("generate", help="emit a synthetic graph")
    generate.add_argument("output")
    generate.add_argument("--family", default="powerlaw", choices=["powerlaw", "gnm", "web"])
    generate.add_argument("--n", type=int, default=10_000)
    generate.add_argument("--avg-degree", type=float, default=6.0)
    generate.add_argument("--beta", type=float, default=2.2)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    obs = commands.add_parser("obs", help="inspect observability artefacts")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_commands.add_parser(
        "report", help="pretty-print a JSON-lines telemetry trace"
    )
    obs_report.add_argument("trace", help="trace file written by --telemetry")
    obs_report.set_defaults(handler=_cmd_obs_report)
    obs_watch = obs_commands.add_parser(
        "watch",
        help="flag gated bench tracks that drifted from their trajectory best",
    )
    obs_watch.add_argument(
        "--dir", default=".", help="directory holding BENCH_PR*.json baselines"
    )
    obs_watch.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="flag when latest wall exceeds trajectory best by this ratio",
    )
    obs_watch.add_argument(
        "--json", action="store_true", help="emit the trajectory as JSON"
    )
    obs_watch.add_argument("--out", default=None, help="also write the output here")
    obs_watch.add_argument(
        "--strict", action="store_true", help="exit nonzero on any flagged track"
    )
    obs_watch.set_defaults(handler=_cmd_obs_watch)

    serve = commands.add_parser(
        "serve", help="drive the incremental solving service from JSONL requests"
    )
    serve.add_argument(
        "requests", help="JSONL request file ('-' reads from stdin)"
    )
    serve.add_argument("--output", help="write JSONL responses here (default stdout)")
    serve.add_argument(
        "--algorithm",
        default="linear_time",
        choices=[
            "bdone",
            "linear_time",
            "near_linear",
            "bdone_vec",
            "linear_time_vec",
            "bdone_auto",
            "linear_time_auto",
        ],
        help="solver used for cold solves and repairs (default linear_time; "
        "the _vec variants run the vectorized frontier-sweep backend, the "
        "_auto variants pick flat or vectorized per graph)",
    )
    serve.add_argument("--cache-capacity", type=int, default=64)
    serve.add_argument(
        "--dirty-threshold",
        type=float,
        default=0.25,
        help="dirty fraction beyond which repair falls back to a full solve",
    )
    serve.add_argument("--repair-radius", type=int, default=2)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request budget in seconds (graceful stale fallback)",
    )
    serve.add_argument("--snapshot", help="save the service state here on exit")
    serve.add_argument("--restore", help="start from a saved service snapshot")
    serve.add_argument(
        "--stats", action="store_true", help="print cache/repair counters to stderr"
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a metrics snapshot on exit (.jsonl for JSON lines, "
        "anything else gets the Prometheus text exposition)",
    )
    serve.add_argument(
        "--trace-out",
        metavar="TRACE",
        help="record per-request telemetry spans to this JSON-lines file",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="run the sharded asyncio front-end (admission control, "
        "micro-batching, deadline shedding) instead of the inline loop",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=4,
        help="worker shards for --async (graphs are routed by id; default 4)",
    )
    serve.add_argument(
        "--mode",
        default="thread",
        choices=["thread", "process"],
        help="shard worker isolation for --async (default thread)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for --async --port"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="with --async: listen for JSONL/HTTP connections on this port "
        "(0 picks an ephemeral one) instead of replaying the request file",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch ceiling per shard dispatch for --async (default 32)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=128,
        help="per-shard admission limit for --async; beyond it sheddable "
        "requests degrade to the stale answer (default 128)",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="seeded load generator: sync vs async serve, verified answers",
    )
    loadgen.add_argument("--seed", type=int, default=2017)
    loadgen.add_argument("--graphs", type=int, default=4)
    loadgen.add_argument("--vertices", type=int, default=2500)
    loadgen.add_argument(
        "--edge-probability", type=float, default=0.008, metavar="P"
    )
    loadgen.add_argument(
        "--requests", type=int, default=400, help="timed stream length"
    )
    loadgen.add_argument(
        "--burst", type=int, default=8, help="identical solves per arrival"
    )
    loadgen.add_argument(
        "--mutate-every",
        type=int,
        default=6,
        help="mutate a graph every N arrivals (default 6)",
    )
    loadgen.add_argument("--shards", type=int, default=4)
    loadgen.add_argument("--mode", default="thread", choices=["thread", "process"])
    loadgen.add_argument("--out", default=None, help="write the JSON report here")
    loadgen.set_defaults(handler=_cmd_loadgen)

    snapshot = commands.add_parser(
        "snapshot", help="summarize a saved service snapshot"
    )
    snapshot.add_argument("snapshot", help="snapshot JSON written by `repro serve`")
    snapshot.add_argument(
        "--verify",
        action="store_true",
        help="additionally restore the snapshot and verify its fingerprints",
    )
    snapshot.set_defaults(handler=_cmd_snapshot)

    bench = commands.add_parser(
        "bench", help="run the perf-regression suite (repro.perf.bench_regression)"
    )
    bench.add_argument(
        "--suite",
        default="quick",
        choices=["smoke", "quick", "full"],
        help="graph suite to run (default quick)",
    )
    bench.add_argument(
        "--backend",
        default="all",
        choices=["legacy", "flat", "vectorized", "auto", "all"],
        help="which backend tracks to time: the classic flat-vs-legacy "
        "tracks, the vectorized rounds backend, the auto dispatcher, or "
        "everything (default all)",
    )
    bench.add_argument("--out", default="bench_report.json", help="report path")
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE", help="baseline JSON to gate against"
    )
    bench.add_argument("--max-regression", type=float, default=2.0)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--telemetry", action="store_true", help="collect a phase-span trace"
    )
    bench.add_argument("--telemetry-out", default="bench_telemetry.jsonl")
    bench.set_defaults(handler=_cmd_bench)

    lint = commands.add_parser(
        "lint", help="run reprolint, the repo's contract checker"
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"])
    lint.add_argument("--strict", action="store_true")
    lint.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human"
    )
    lint.add_argument("--rules", default=None, metavar="RLxxx[,RLxxx...]")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument("--jobs", type=int, default=1, metavar="N")
    lint.add_argument("--cache", default=None, metavar="PATH")
    lint.add_argument("--baseline", default=None, metavar="PATH")
    lint.add_argument("--no-baseline", action="store_true")
    lint.add_argument("--update-baseline", action="store_true")
    lint.add_argument("--sarif-out", default=None, metavar="PATH")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover — ``python -m repro.cli``
    sys.exit(main())
