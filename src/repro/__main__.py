"""The single top-level CLI: ``python -m repro <command>``.

Four subcommands drive every execution path of the system from one
declarative :class:`~repro.api.config.ExperimentConfig`:

* ``list`` — every registered component (code families, decoders, policies,
  noise presets) and sweep preset, straight from the registries;
* ``run`` — one offline (or, with ``execution.window_rounds``, sliding-window
  realtime) experiment;
* ``sweep`` — either a named preset (``python -m repro sweep smoke``; the
  presets are printed by ``list``) or a config-driven grid via repeated
  ``--axis``;
* ``realtime`` — N concurrent simulator streams through the decode service;
* ``serve`` — the network decode server (``repro.serve``): sharded workers
  behind a TCP frame protocol (optionally a websocket gateway), e.g.::

    python -m repro serve --port 7571 --shards 4
    python -m repro serve --status --port 7571   # live SLO snapshot

* ``fuzz`` — the registry-driven scenario-matrix fuzzer, e.g.::

    python -m repro fuzz --budget smoke --report fuzz_report.json
    python -m repro fuzz --cells 'toric/*' --cells '*/floods/*' --seed 3

``run``, ``sweep`` and ``realtime`` all accept ``--config file.json`` plus
dotted overrides, e.g.::

    python -m repro run --config experiment.json --set decoder.name=union_find
    python -m repro sweep --config experiment.json --axis code.distance=3,5,7
    python -m repro realtime --config experiment.json --streams 8 --workers 4

Override values parse as JSON (``--set execution.shots=500`` is an int,
``--set execution.window_rounds=null`` clears a field) and fall back to
plain strings, so ``--set policy.name=gladiator+m`` also works.

``sweep`` memoizes finished units under ``REPRO_CACHE_DIR`` (default
``.repro_cache``); ``--no-cache`` forces recomputation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Any

from .api.config import ExperimentConfig
from .api.registry import all_registries

if TYPE_CHECKING:
    from .serve import ServerConfig

__all__ = ["main"]


# --------------------------------------------------------------------- #
# Config loading: --config file plus dotted --set overrides
# --------------------------------------------------------------------- #
def _parse_value(raw: str) -> Any:
    """JSON literal when possible (numbers, bools, null), else the raw string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _split_assignment(raw: str, flag: str) -> tuple[str, str]:
    if "=" not in raw:
        raise ValueError(f"{flag} expects PATH=VALUE, got {raw!r}")
    path, _, value = raw.partition("=")
    return path.strip(), value.strip()


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.load(args.config)
        if getattr(args, "config", None)
        else ExperimentConfig()
    )
    for raw in getattr(args, "overrides", None) or []:
        path, value = _split_assignment(raw, "--set")
        config = config.override(path, _parse_value(value))
    if getattr(args, "trace", None):
        # The CLI flag wins over both the config field and REPRO_TELEMETRY.
        config = config.override("execution.telemetry", args.trace)
    return config.validate()


def _parse_axes(raw_axes: list[str]) -> dict[str, list[Any]]:
    axes: dict[str, list[Any]] = {}
    for raw in raw_axes:
        path, values = _split_assignment(raw, "--axis")
        axes[path] = [_parse_value(v) for v in values.split(",") if v != ""]
        if not axes[path]:
            raise ValueError(f"--axis {path} has no values")
    return axes


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    from .sweeps.registry import SWEEP_GROUPS, sweep_names

    if args.json:
        payload = {
            section: {
                entry.name: {
                    "aliases": list(entry.aliases),
                    "description": entry.description,
                    **entry.metadata,
                }
                for entry in registry
            }
            for section, registry in all_registries().items()
        }
        payload["sweeps"] = {
            group: sorted(names) for group, names in sorted(SWEEP_GROUPS.items())
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0

    for section, registry in all_registries().items():
        print(f"{section} ({registry.plural}):")
        for entry in registry:
            line = f"  {entry.name}"
            if entry.aliases:
                line += f" (aliases: {', '.join(entry.aliases)})"
            if entry.description:
                line += f" — {entry.description}"
            print(line)
    print("sweep presets:")
    grouped: set[str] = set()
    for group in sorted(SWEEP_GROUPS):
        for name in sorted(SWEEP_GROUPS[group]):
            print(f"  {name} [{group}]")
            grouped.add(name)
    for name in sweep_names():
        if name not in grouped:
            print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .api.session import Session
    from .io import ResultRecord, format_table, results_dir, save_records

    config = _load_config(args)
    session = Session.from_config(config)
    started = time.perf_counter()
    result = session.run()
    elapsed = time.perf_counter() - started

    row = result.summary()
    display = {k: v for k, v in row.items() if not hasattr(v, "shape")}
    print(format_table([display], title=config.name))
    print(f"1 run in {elapsed:.2f}s")

    out = args.out
    if out is None and args.results_dir is not None:
        out = results_dir(args.results_dir) / f"run_{config.name}.json"
    if out is not None:
        record = ResultRecord(
            experiment=f"run_{config.name}",
            parameters=config.to_dict(),
            metrics=row,
        )
        path = save_records([record], out)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .io import ResultRecord, format_table, results_dir, save_records
    from .sweeps.cache import SweepCache
    from .sweeps.executor import SweepExecutor

    # The CLI caches to disk by default and --no-cache disables it (the
    # library-level Session.sweep default stays opt-in via REPRO_CACHE).
    cache = None if args.no_cache else SweepCache()
    if args.preset is not None:
        if args.config or args.overrides or args.axes:
            print(
                "error: pass either a named preset or --config/--set/--axis, not both",
                file=sys.stderr,
            )
            return 2
        if args.distributed:
            print(
                "error: --distributed needs the config-driven form "
                "(--config/--set/--axis), not a named preset",
                file=sys.stderr,
            )
            return 2
        from .obs import resolve_telemetry, telemetry_scope
        from .sweeps.registry import build_sweep

        spec = build_sweep(args.preset)
        name = spec.name
        parameters: dict[str, Any] = {
            "sweep": spec.name,
            "shots": spec.shots,
            "seed": spec.seed,
        }
        executor = SweepExecutor(workers=args.workers, cache=cache)
        started = time.perf_counter()
        # Named presets bypass Session, so the scope is opened here.
        with telemetry_scope(
            resolve_telemetry(None, args.trace),
            manifest_extra={"sweep_preset": args.preset},
        ):
            rows = executor.run(spec)
    else:
        from .api.session import Session

        config = _load_config(args)
        if args.workers is not None:
            config = config.override("execution.workers", args.workers)
        if args.distributed:
            config = config.override("execution.durable", True)
        session = Session.from_config(config)
        axes = _parse_axes(args.axes or [])
        name = config.name
        parameters = {"config": config.to_dict(), "axes": axes}
        # Durable sweeps journal every shard under .repro_cache/fabric/:
        # re-running the same command after a crash resumes from the journal
        # and merges bit-identically.
        executor = SweepExecutor(
            workers=config.execution.workers, cache=cache, durable=config.execution.durable
        )
        started = time.perf_counter()
        rows = session.sweep(axes, executor=executor)
    elapsed = time.perf_counter() - started

    display = [
        {k: v for k, v in row.items() if not hasattr(v, "shape")} for row in rows
    ]
    print(format_table(display, title=name))
    summary = (
        f"{len(rows)} rows in {elapsed:.2f}s "
        f"({executor.units_computed} computed, {executor.units_from_cache} cached)"
    )
    if executor.durable:
        summary += (
            f" [durable: {executor.shards_executed} shards run, "
            f"{executor.shards_from_checkpoint} from checkpoints, "
            f"{executor.shards_retried} retried, "
            f"{executor.shards_quarantined} quarantined]"
        )
    print(summary)
    for unit, error in executor.failed_units:
        print(
            f"warning: unit {unit.config.code.name}/{unit.config.policy.name} degraded: "
            f"{error.strip().splitlines()[-1]}",
            file=sys.stderr,
        )

    out = args.out
    if out is None:
        out = results_dir(args.results_dir) / f"sweep_{name}.json"
    records = [
        ResultRecord(experiment=f"sweep_{name}", parameters=parameters, metrics=row)
        for row in rows
    ]
    path = save_records(records, out)
    print(f"wrote {path}")
    return 0


def _cmd_realtime(args: argparse.Namespace) -> int:
    from .api.session import Session
    from .io import ResultRecord, format_table, results_dir, save_records

    if args.streams <= 0 or args.workers <= 0:
        print("error: streams and workers must be positive", file=sys.stderr)
        return 2
    config = _load_config(args)
    if config.execution.window_rounds is None:
        print(
            "error: realtime needs execution.window_rounds "
            "(e.g. --set execution.window_rounds=8)",
            file=sys.stderr,
        )
        return 2
    session = Session.from_config(config)
    started = time.perf_counter()
    reports = session.stream(
        args.streams, workers=args.workers, queue_depth=args.queue_depth
    )
    elapsed = time.perf_counter() - started

    rows = [report.summary() for report in reports]
    print(format_table(rows, title=config.name))
    total_rounds = sum(report.rounds for report in reports)
    print(
        f"{len(reports)} streams ({total_rounds} stream-rounds) in {elapsed:.2f}s "
        f"({len(reports) / max(elapsed, 1e-9):.2f} streams/s, {args.workers} workers)"
    )

    out = args.out
    if out is None and args.results_dir is not None:
        out = results_dir(args.results_dir) / f"realtime_{config.name}.json"
    if out is not None:
        records = [
            ResultRecord(
                experiment=f"realtime_{config.name}",
                parameters={"config": config.to_dict(), "streams": args.streams},
                metrics=row,
            )
            for row in rows
        ]
        path = save_records(records, out)
        print(f"wrote {path}")
    return 0


def _server_config(args: argparse.Namespace, config: ExperimentConfig) -> ServerConfig:
    """The ``serve`` command's :class:`~repro.serve.ServerConfig`: the
    deployment flags plus the experiment config's window and decoder."""
    from .serve import ServerConfig

    return ServerConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        queue_depth=args.queue_depth,
        max_streams=args.max_streams,
        max_streams_per_tenant=args.max_streams_per_tenant,
        tenant_rate=args.tenant_rate,
        window_rounds=config.execution.window_rounds or 4,
        commit_rounds=config.execution.commit_rounds,
        method=config.decoder.name,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.status:
        from .serve.client import ServeClient

        async def fetch() -> dict:
            async with ServeClient() as client:
                await client.connect(args.host, args.port, tenant="status")
                return await client.status()

        try:
            print(json.dumps(asyncio.run(fetch()), indent=2, sort_keys=True))
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 2
        return 0

    from .serve import DecodeServer, WebSocketGateway

    server_config = _server_config(args, _load_config(args))

    async def serve() -> None:
        server = DecodeServer(server_config)
        await server.start()
        gateway = None
        if args.websocket is not None:
            gateway = WebSocketGateway(server, host=args.host, port=args.websocket)
            await gateway.start()
        banner = f"serving on {args.host}:{server.port}"
        if gateway is not None:
            banner += f" (websocket on {gateway.port})"
        banner += (
            f" — {server_config.shards} shards x "
            f"{server_config.workers_per_shard} workers, "
            f"admission cap {server_config.max_streams}"
        )
        print(banner, flush=True)
        try:
            if args.serve_seconds is not None:
                await asyncio.sleep(args.serve_seconds)
            else:
                assert server._server is not None
                await server._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if gateway is not None:
                await gateway.stop()
            await server.shutdown()
            status = server.status()
            status.pop("shards", None)
            print(json.dumps(status, indent=2, sort_keys=True))

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .fuzz import enumerate_cells, run_fuzz
    from .obs import resolve_telemetry, telemetry_scope

    patterns = args.cells or None
    if patterns and not enumerate_cells(patterns=patterns):
        print(f"error: no scenario cells match {patterns}", file=sys.stderr)
        return 2
    # manifest_extra is read when the scope exits, so the fuzz outcome
    # filled in below lands in the manifest.
    manifest_extra: dict[str, Any] = {"fuzz": None}
    with telemetry_scope(
        resolve_telemetry(None, args.trace), manifest_extra=manifest_extra
    ):
        report = run_fuzz(
            seed=args.seed,
            budget=args.budget,
            patterns=patterns,
            progress=lambda line: print(line, file=sys.stderr),
        )
        summary = report.to_dict()
        del summary["results"]
        manifest_extra["fuzz"] = summary
    if args.report is not None:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json())
        print(f"wrote {path}")
    for result in report.crashes + report.violations:
        print(f"  {result.status}: {result.cell}", file=sys.stderr)
        for violation in result.violations:
            print(f"    {violation}", file=sys.stderr)
        if result.error is not None:
            print(f"    {result.error}", file=sys.stderr)
    print(report.describe())
    return 0 if report.ok else 1


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="PATH=VALUE",
        help="dotted config override, e.g. --set decoder.name=union_find",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--results-dir", default=None, help="directory for the default output path"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON (plus .jsonl event log and "
        ".manifest.json provenance) of the run to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Drive the leakage-speculation system from one config.",
    )
    sub = parser.add_subparsers(dest="command")

    list_parser = sub.add_parser(
        "list", help="list registered components and sweep presets"
    )
    list_parser.add_argument("--json", action="store_true", help="machine-readable form")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = sub.add_parser("run", help="run one experiment from a config")
    _add_config_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="run a named sweep preset or a config-driven grid"
    )
    sweep_parser.add_argument(
        "preset", nargs="?", default=None, help="named preset (see `python -m repro list`)"
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        dest="axes",
        default=[],
        metavar="PATH=V1,V2,...",
        help="grid axis over a config field, e.g. --axis code.distance=3,5,7",
    )
    sweep_parser.add_argument("--workers", type=int, default=None, help="process-pool size")
    sweep_parser.add_argument("--no-cache", action="store_true", help="disable memoization")
    sweep_parser.add_argument(
        "--distributed",
        action="store_true",
        help="run through the durable fabric (journaled shards, leases, "
        "crash-safe resume); re-run the same command to resume after a crash",
    )
    _add_config_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    realtime_parser = sub.add_parser(
        "realtime", help="decode concurrent streams through sliding windows"
    )
    realtime_parser.add_argument(
        "--streams", type=int, default=4, help="concurrent streams (default: 4)"
    )
    realtime_parser.add_argument(
        "--workers", type=int, default=4, help="decode worker threads (default: 4)"
    )
    realtime_parser.add_argument(
        "--queue-depth", type=int, default=None, help="pending-window queue bound"
    )
    _add_config_arguments(realtime_parser)
    realtime_parser.set_defaults(handler=_cmd_realtime)

    serve_parser = sub.add_parser(
        "serve", help="serve decode streams over the network (repro.serve)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind/connect host")
    serve_parser.add_argument(
        "--port", type=int, default=7571, help="TCP port (default: 7571; 0 picks free)"
    )
    serve_parser.add_argument(
        "--websocket",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose a websocket gateway on PORT (0 picks free)",
    )
    serve_parser.add_argument("--shards", type=int, default=2, help="decode shards")
    serve_parser.add_argument(
        "--workers-per-shard", type=int, default=2, help="worker threads per shard"
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=None, help="pending-window queue bound per shard"
    )
    serve_parser.add_argument(
        "--max-streams", type=int, default=256, help="server-wide admission cap"
    )
    serve_parser.add_argument(
        "--max-streams-per-tenant", type=int, default=64, help="per-tenant admission cap"
    )
    serve_parser.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="per-tenant token-bucket rate in round chunks/s (default: unmetered)",
    )
    serve_parser.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="serve for this long, then drain and exit (CI smoke mode)",
    )
    serve_parser.add_argument(
        "--status",
        action="store_true",
        help="connect to a running server and print its live SLO snapshot",
    )
    _add_config_arguments(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    fuzz_parser = sub.add_parser(
        "fuzz", help="fuzz every registered scenario combination"
    )
    fuzz_parser.add_argument(
        "--cells",
        action="append",
        default=[],
        metavar="GLOB",
        help="restrict to cells matching code/decoder/policy/noise/mode globs "
        "(repeatable), e.g. --cells 'toric/*' --cells '*/floods/*'",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="matrix-wide instance seed (default: 0)"
    )
    fuzz_parser.add_argument(
        "--budget",
        default="smoke",
        help="'smoke' (all cells, subsampled statistics), 'full' "
        "(all cells, all tiers) or an integer cell count (default: smoke)",
    )
    fuzz_parser.add_argument(
        "--report", default=None, metavar="PATH", help="write the JSON report here"
    )
    fuzz_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON of the fuzz run to PATH",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
