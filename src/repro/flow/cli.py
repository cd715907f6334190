"""Command-line entry point: ``cfdlang-flow``.

    cfdlang-flow examples/helmholtz.cfd -o build/ --ne 50000
    cfdlang-flow --app helmholtz --no-sharing -k 8 -m 8
    cfdlang-flow --app helmholtz --board alveo-u280 --simulate
    cfdlang-flow --app helmholtz --exec-backend numpy --functional-ne 64
    cfdlang-flow --app helmholtz --sweep 1x1,2x2,4x4 --jobs 4 --trace
    cfdlang-flow --app helmholtz --sweep 1x1,8x8 --executor process --jobs 4 \\
        --cache-dir .flowcache
    cfdlang-flow --app helmholtz --cache-dir .flowcache --trace
    cfdlang-flow --app helmholtz --sweep 1x1,8x8 --executor distributed \\
        --jobs 4 --cache-dir .flowcache
    cfdlang-flow --app helmholtz --sweep 1x1,8x8 --executor distributed \\
        --listen 127.0.0.1:8765 --token SECRET --jobs 2 --cache-dir .flowcache
    cfdlang-flow worker --connect broker-host:8765 --token SECRET
    cfdlang-flow broker --listen 0.0.0.0:8765 --token SECRET \\
        --cache-dir /srv/flowcache --tenant alice=S1 --tenant bob=S2
    cfdlang-flow broker --listen broker-host:8765 --token SECRET --status
    cfdlang-flow submit --broker broker-host:8765 --token SECRET \\
        --app helmholtz --sweep 1x1,2x2,4x4
    cfdlang-flow status --broker broker-host:8765 --token SECRET JOB_ID
    cfdlang-flow fetch --broker broker-host:8765 --token SECRET JOB_ID --wait
    cfdlang-flow cancel --broker broker-host:8765 --token SECRET JOB_ID
    cfdlang-flow cache stats --cache-dir .flowcache
    cfdlang-flow cache gc --cache-dir .flowcache --max-bytes 256M --max-age 7d
    cfdlang-flow program --suite fem-cfd -n 8 --trace
    cfdlang-flow program program.cfdp --cache-dir .flowcache
    cfdlang-flow solve --suite smoother -n 8 --steps 4 --exec-backend numpy
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile

from repro.codegen.hlsdirectives import HlsDirectives
from repro.errors import SystemGenerationError
from repro.flow.artifacts import write_artifacts
from repro.flow.executors import DEFAULT_EXECUTOR, executor_names
from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.session import Flow, FlowTrace, compile_many
from repro.flow.stages import (
    FRONT_END_STAGES,
    FUSED_GROUP_STAGES,
    registered_stages,
    stage_names,
)
from repro.flow.store import DiskStageCache, StageCache
from repro.mnemosyne.sharing import SharingMode
from repro.system.board import boards, get_board


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfdlang-flow",
        description="CFDlang-to-FPGA flow (CLUSTER'21 reproduction)",
    )
    p.add_argument("source", nargs="?", help="CFDlang source file (.cfd)")
    p.add_argument("--app", choices=["helmholtz", "interpolation", "gradient"],
                   help="use a built-in operator instead of a source file")
    p.add_argument("-n", "--degree", type=int, default=11,
                   help="tensor extent for built-in operators (default 11)")
    p.add_argument("-o", "--output", default="build",
                   help="artifact output directory")
    p.add_argument("-k", type=int, default=None, help="accelerator replicas")
    p.add_argument("-m", type=int, default=None, help="PLM set replicas")
    p.add_argument("--ne", type=int, default=50_000,
                   help="number of CFD elements to simulate")
    p.add_argument("--board", default=None, metavar="NAME",
                   help="target board (see --list-boards; default ZCU106)")
    p.add_argument("--memory-model", choices=["bram", "hbm"],
                   default="bram",
                   help="off-chip memory architecture: 'bram' is the "
                        "paper's flat single-AXI-port model (default); "
                        "'hbm' runs the bank-assign stage, mapping every "
                        "streamed tensor to HBM pseudo-channels on an "
                        "HBM board (e.g. --board u280) and timing "
                        "transfers against the banked bandwidth")
    p.add_argument("--no-sharing", action="store_true",
                   help="disable memory sharing")
    p.add_argument("--clique-sharing", action="store_true",
                   help="use clique-cover sharing (more aggressive)")
    p.add_argument("--no-factorize", action="store_true",
                   help="disable contraction factorization")
    p.add_argument("--temporaries-internal", action="store_true",
                   help="keep temporaries inside the HLS kernel")
    p.add_argument("--pipeline", choices=["flatten", "inner", "none"],
                   default="flatten")
    p.add_argument("--simulate", action="store_true",
                   help="print the performance simulation for the system")
    p.add_argument("--exec-backend", default=None, metavar="NAME",
                   help="also run a functional batch with this execution "
                        "backend and report its throughput (see "
                        "--list-backends; e.g. loops, numpy, cnative)")
    p.add_argument("--functional-ne", type=int, default=8, metavar="N",
                   help="batch size of the --exec-backend functional run "
                        "(default 8)")
    p.add_argument("--list-backends", action="store_true",
                   help="list the kernel execution backends and exit")
    p.add_argument("--sweep", metavar="K1xM1,K2xM2,...", default=None,
                   help="compile a k x m design-space sweep through the "
                        "staged flow (e.g. 1x1,2x2,4x4,8x8,16x16); the "
                        "front end runs once for the whole grid")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel workers for --sweep (default 1)")
    p.add_argument("--executor", choices=executor_names(),
                   default=DEFAULT_EXECUTOR,
                   help="execution backend for --sweep: 'thread' shares one "
                        "in-process cache (default); 'process' scales "
                        "CPU-bound sweeps across cores through a disk cache; "
                        "'distributed' runs the sweep as one job on a "
                        "loopback broker drained by spawned 'worker "
                        "--connect' processes and scales across hosts; "
                        "'service' submits the sweep as a durable job on a "
                        "standing broker (--broker; see also the 'submit' "
                        "verb); 'serial' is the in-order reference")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="with --executor distributed: bind the sweep's "
                        "broker here instead of an ephemeral loopback port, "
                        "so workers on other hosts can join with "
                        "'cfdlang-flow worker --connect HOST:PORT' "
                        "(requires --token)")
    p.add_argument("--broker", default=None, metavar="HOST:PORT",
                   help="with --executor service: submit the sweep as a "
                        "job to the standing 'cfdlang-flow broker' at this "
                        "address (requires --token)")
    p.add_argument("--token", default=None, metavar="SECRET",
                   help="shared-secret token for --listen/--broker "
                        "(or set CFDLANG_FLOW_TOKEN)")
    p.add_argument("--external-workers", action="store_true",
                   help="with --executor distributed --listen: do not "
                        "spawn local workers; rely entirely on workers that "
                        "attach to the --listen address")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the stage cache to DIR, reusing artifacts "
                        "across runs (content-addressed pickle store)")
    p.add_argument("--expect-front-end-cached", action="store_true",
                   help="exit non-zero unless every front-end stage was "
                        "served from the cache (CI guard for cross-process "
                        "cache reuse)")
    p.add_argument("--stop-after", metavar="STAGE", default=None,
                   help="run the flow only through the named stage and "
                        "report the artifacts produced (see --list-stages)")
    p.add_argument("--trace", action="store_true",
                   help="print per-stage timing and cache behavior")
    p.add_argument("--list-stages", action="store_true",
                   help="list the registered compiler stages and exit")
    p.add_argument("--list-boards", action="store_true",
                   help="list the known target boards and exit")
    return p


def _print_stages() -> None:
    from repro.utils import ascii_table

    rows = [
        (
            s.name,
            "fused group" if s.name in FUSED_GROUP_STAGES else "kernel",
            ", ".join(s.inputs),
            ", ".join(s.outputs),
            s.description,
        )
        for s in registered_stages()
    ]
    print(ascii_table(
        ["stage", "fusion scope", "inputs", "outputs", "description"], rows,
        title="Registered flow stages",
    ))
    print("fusion scope: with --fuse, 'fused group' stages run once per "
          "fused kernel group; 'kernel' stages always run per member "
          "kernel (shared with unfused compiles)")


def _print_backends() -> None:
    from repro.exec import backend_names, get_backend
    from repro.utils import ascii_table

    rows = []
    for name in backend_names():
        b = get_backend(name)
        status = "yes" if b.available() else f"no ({b.unavailable_reason()})"
        doc = (b.__class__.__doc__ or "").strip().splitlines()[0]
        rows.append((name, status, doc))
    print(ascii_table(["backend", "available", "description"], rows,
                      title="Kernel execution backends"))


def _print_boards() -> None:
    from repro.utils import ascii_table

    # memory-system columns are appended after the original logic
    # resources, so scripts slicing the early columns keep working
    rows = [
        (
            b.name, b.part, b.lut, b.ff, b.dsp, b.bram36,
            b.memory.hbm_channels or "-",
            (f"{b.memory.hbm_channel_gbytes_per_sec:g}"
             if b.memory.has_hbm else "-"),
            (f"{b.memory.ddr_gbytes_per_sec:g}"
             if b.memory.ddr_gbytes_per_sec else "-"),
        )
        for b in boards().values()
    ]
    print(ascii_table(
        ["board", "part", "LUT", "FF", "DSP", "BRAM36",
         "HBM ch", "GB/s/ch", "DDR GB/s"],
        rows,
        title="Known target boards",
    ))


def _cache_stats_line(cache) -> str:
    s = cache.stats()
    tiers = f"{s['memory_hits']} memory, {s['disk_hits']} disk"
    if s.get("remote_hits"):
        tiers += f", {s['remote_hits']} remote"
    line = f"cache: {s['hits']} hits ({tiers}), {s['misses']} misses"
    if "disk_entries" in s:
        line += (
            f"; {s['disk_entries']} entries / {s['disk_bytes']} bytes on disk"
        )
    return line


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_size(text: str) -> int:
    """``'256M'`` -> bytes (suffixes K/M/G; bare numbers are bytes)."""
    t = text.strip().lower().rstrip("b")
    factor = 1
    if t and t[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[t[-1]]
        t = t[:-1]
    try:
        return int(float(t) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}: expected e.g. 1048576, 512K, 256M, 2G"
        ) from None


def _parse_age(text: str) -> float:
    """``'7d'`` -> seconds (suffixes s/m/h/d; bare numbers are seconds)."""
    t = text.strip().lower()
    factor = 1.0
    if t and t[-1] in _AGE_SUFFIXES:
        factor = _AGE_SUFFIXES[t[-1]]
        t = t[:-1]
    try:
        return float(t) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad age {text!r}: expected e.g. 3600, 90s, 15m, 12h, 7d"
        ) from None


def build_cache_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfdlang-flow cache",
        description="stage-cache lifecycle: inspect, bound, repair",
    )
    sub = p.add_subparsers(dest="action", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="the cache directory to operate on")
        return sp

    add("stats", "print entry/byte counts for the cache directory")
    gc = add("gc", "evict entries by age and LRU size budget")
    gc.add_argument("--max-bytes", type=_parse_size, default=None,
                    metavar="SIZE", help="keep at most SIZE on disk "
                    "(e.g. 256M; LRU eviction)")
    gc.add_argument("--max-age", type=_parse_age, default=None,
                    metavar="AGE", help="drop entries untouched for AGE "
                    "(e.g. 7d)")
    add("clear", "remove every cache entry")
    verify = add("verify", "detect (and optionally remove) corrupt entries")
    verify.add_argument("--fix", action="store_true",
                        help="delete the corrupt entries found")
    return p


def build_worker_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfdlang-flow worker",
        description="pull and run sweep points from a broker over TCP "
                    "(any host that can reach it)",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="pull jobs from the 'cfdlang-flow broker' (or "
                        "sweep --listen) at this address; needs --token")
    p.add_argument("--token", default=None, metavar="SECRET",
                   help="shared-secret token for --connect "
                        "(or set CFDLANG_FLOW_TOKEN)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="worker-local stage cache tier in front of the "
                        "broker's (default: a temporary directory)")
    p.add_argument("--poll", type=float, default=1.0, metavar="SECONDS",
                   help="longest single blocking claim on an empty queue; "
                        "a queued point is claimed the moment it arrives "
                        "(default 1.0)")
    p.add_argument("--heartbeat", type=float, default=1.0, metavar="SECONDS",
                   help="liveness/lease heartbeat interval (default 1.0)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after the queue has been empty this long "
                        "(default: wait forever)")
    p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                   help="exit after handling N jobs (default: unlimited)")
    p.add_argument("--worker-id", default=None, metavar="NAME",
                   help="override the worker identity used in heartbeats "
                        "and trace tags (default: <host>-pid<pid>)")
    return p


def _worker_main(argv) -> int:
    import signal

    from repro.flow.nettransport import run_tcp_worker

    args = build_worker_parser().parse_args(argv)
    try:
        # a broker reaps idle workers with SIGTERM, which by default
        # skips finally blocks — convert it to a normal exit so the
        # worker unregisters, drops its heartbeat, and removes any
        # temporary local cache tier on the way out
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    except (ValueError, OSError):  # pragma: no cover — exotic hosts
        pass
    try:
        handled = run_tcp_worker(
            args.connect,
            args.token,
            args.cache_dir,
            poll_seconds=args.poll,
            heartbeat_seconds=args.heartbeat,
            idle_timeout=args.idle_timeout,
            max_jobs=args.max_jobs,
            worker_id=args.worker_id,
        )
    except SystemGenerationError as exc:
        # unreachable/rejecting broker, bad address, missing token …
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot use the given directories: {exc}",
              file=sys.stderr)
        return 2
    print(f"worker exiting after {handled} job{'s' if handled != 1 else ''}")
    return 0


def build_broker_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfdlang-flow broker",
        description="serve a standing compile service over TCP: sweeps "
                    "attach with --broker HOST:PORT, workers with 'worker "
                    "--connect HOST:PORT', and the submit/status/fetch/"
                    "cancel verbs drive durable jobs by id",
    )
    p.add_argument("--listen", required=True, metavar="HOST:PORT",
                   help="address to bind (':0' or port 0 picks an ephemeral "
                        "port; the bound address is printed on stdout)")
    p.add_argument("--token", default=None, metavar="SECRET",
                   help="shared-secret token clients must present "
                        "(or set CFDLANG_FLOW_TOKEN)")
    p.add_argument("--cache-dir", required=True, metavar="DIR",
                   help="the broker-side stage cache served to workers")
    p.add_argument("--service-dir", default=None, metavar="DIR",
                   help="where durable job specs/results live (default: "
                        "<cache-dir>/.service); a broker restarted over the "
                        "same directory resumes its unfinished jobs")
    p.add_argument("--tenant", action="append", default=[],
                   metavar="NAME=TOKEN",
                   help="register an extra tenant token (repeatable); each "
                        "tenant's jobs and cache entries live in an "
                        "isolated namespace of the shared store")
    p.add_argument("--max-jobs", type=int, default=16, metavar="N",
                   help="refuse submits beyond N unfinished jobs total "
                        "(BrokerBusyError backpressure; default 16)")
    p.add_argument("--max-tenant-jobs", type=int, default=8, metavar="N",
                   help="refuse submits beyond N unfinished jobs for one "
                        "token (default 8)")
    p.add_argument("--retention-hours", type=float, default=24.0,
                   metavar="H",
                   help="purge a finished job's spec and results H hours "
                        "after it goes terminal (default 24); fetch "
                        "within the window or resubmit")
    p.add_argument("--status", action="store_true",
                   help="query the broker already listening at --listen and "
                        "print queue depth, jobs by state, workers, and "
                        "cache counters instead of serving")
    return p


def _parse_tenants(specs) -> dict:
    tenants = {}
    for spec in specs:
        name, sep, token = str(spec).partition("=")
        if not sep or not name or not token:
            raise SystemGenerationError(
                f"bad --tenant {spec!r}: expected NAME=TOKEN"
            )
        tenants[name] = token
    return tenants


def _print_service_stats(stats) -> None:
    jobs = stats.get("jobs", {})
    if jobs:
        states = ", ".join(f"{jobs[s]} {s}" for s in jobs)
        print(f"jobs: {states}")
        print(f"queue depth: {stats.get('queue_depth', 0)} point(s) "
              "unfinished")
        limits = stats.get("limits", {})
        if limits:
            print(f"limits: {limits.get('max_jobs')} jobs total, "
                  f"{limits.get('max_tenant_jobs')} per token")
        tenants = stats.get("active_tenants", {})
        if tenants:
            active = ", ".join(f"{name}: {n}" for name, n in
                               sorted(tenants.items()))
            print(f"active tenants: {active}")
    workers = stats.get("workers", [])
    print(f"workers: {len(workers)} alive"
          + (f" ({', '.join(workers)})" if workers else ""))
    cache = stats.get("cache")
    if cache:
        print(f"cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache.get('remote_hits', 0)} served remote")


def _listen_security_warning(host, port, tenants) -> "Optional[str]":
    """The transport is plaintext TCP with a shared token; binding beyond
    loopback without per-tenant isolation deserves a nudge (None: fine)."""
    if host in ("127.0.0.1", "localhost", "::1") or tenants:
        return None
    return (
        f"warning: binding {host}:{port} is reachable beyond "
        "loopback with a single shared token and no transport "
        "encryption; add --tenant NAME=TOKEN per user, and front "
        "the broker with an SSH tunnel (ssh -L) or a TLS reverse "
        "proxy on untrusted networks (see README, 'Securing a "
        "broker')"
    )


def _broker_main(argv) -> int:
    import time

    args = build_broker_parser().parse_args(argv)
    if args.status:
        from repro.flow.service import ServiceClient

        try:
            with ServiceClient(args.listen, args.token,
                               connect_retries=1) as client:
                stats = client.stats()
        except SystemGenerationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"broker at {args.listen}:")
        _print_service_stats(stats)
        return 0
    try:
        from repro.flow.nettransport import parse_hostport, resolve_token
        from repro.flow.service import start_service_broker

        host, port = parse_hostport(args.listen, listening=True)
        caution = _listen_security_warning(host, port, args.tenant)
        if caution:
            print(caution, file=sys.stderr)
        server = start_service_broker(
            host, port, resolve_token(args.token) or "",
            DiskStageCache(args.cache_dir),
            args.service_dir,
            tenants=_parse_tenants(args.tenant),
            max_jobs=args.max_jobs,
            max_tenant_jobs=args.max_tenant_jobs,
            terminal_ttl_seconds=args.retention_hours * 3600.0,
        )
    except SystemGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot serve on {args.listen!r}: {exc}",
              file=sys.stderr)
        return 2
    bound_host, bound_port = server.address
    # scripts and tests parse this line to learn the ephemeral port
    print(f"broker listening on {bound_host}:{bound_port} "
          f"(cache: {args.cache_dir}); Ctrl-C to stop", flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("broker shutting down")
        return 0
    finally:
        server.close()


def build_service_parser(verb: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=f"cfdlang-flow {verb}",
        description={
            "submit": "submit a sweep to a standing broker as a durable "
                      "job and print its id; disconnect freely — fetch "
                      "the results later by id, from anywhere",
            "status": "print a submitted job's lifecycle state and "
                      "per-point progress",
            "fetch": "print a terminal job's sweep results by id "
                     "(bit-identical to running the sweep locally)",
            "cancel": "cancel a job: unclaimed points are dropped; a "
                      "second cancel purges the terminal job's state",
        }[verb],
    )
    p.add_argument("--broker", required=True, metavar="HOST:PORT",
                   help="the standing 'cfdlang-flow broker' to talk to")
    p.add_argument("--token", default=None, metavar="SECRET",
                   help="shared-secret token (or set CFDLANG_FLOW_TOKEN); "
                        "tenant tokens see only their own jobs")
    if verb == "submit":
        p.add_argument("source", nargs="?",
                       help="CFDlang source file (.cfd)")
        p.add_argument("--app",
                       choices=["helmholtz", "interpolation", "gradient"],
                       help="use a built-in operator instead of a source "
                            "file")
        p.add_argument("-n", "--degree", type=int, default=11,
                       help="tensor extent for built-in operators "
                            "(default 11)")
        p.add_argument("--sweep", required=True, metavar="K1xM1,K2xM2,...",
                       help="the k x m design points to compile")
        p.add_argument("--ne", type=int, default=50_000,
                       help="number of CFD elements to simulate")
        p.add_argument("--exec-backend", default=None, metavar="NAME",
                       help="run a functional batch on the workers with "
                            "this execution backend (loops, numpy, "
                            "cnative)")
        p.add_argument("--functional-ne", type=int, default=8, metavar="N",
                       help="batch size of that functional run (default 8)")
        p.add_argument("--board", default=None, metavar="NAME",
                       help="target board for the sweep points "
                            "(see --list-boards; default ZCU106)")
        p.add_argument("--memory-model", choices=["bram", "hbm"],
                       default="bram",
                       help="off-chip memory architecture on the workers "
                            "('hbm' needs an HBM board, e.g. --board "
                            "u280; default bram)")
        p.add_argument("--fuse", action="store_true",
                       help="compile submitted multi-kernel program text "
                            "under fusion='auto' on the workers (the plan "
                            "rides the job spec; single kernels ignore it)")
    else:
        p.add_argument("job", metavar="JOB_ID",
                       help="the id 'cfdlang-flow submit' printed")
    if verb == "fetch":
        p.add_argument("--wait", action="store_true",
                       help="wait until the job is terminal instead of "
                            "failing on a still-running job")
        p.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                       help="longest single wait of --wait; it returns the "
                            "moment the job ends (default 0.5)")
        p.add_argument("--trace", action="store_true",
                       help="print the merged per-stage trace the workers "
                            "recorded")
        p.add_argument("--expect-front-end-cached", action="store_true",
                       help="exit non-zero unless every front-end stage "
                            "was served from the cache (CI guard)")
    return p


def build_program_parser() -> argparse.ArgumentParser:
    from repro.apps.workloads import WORKLOAD_SUITES

    p = argparse.ArgumentParser(
        prog="cfdlang-flow program",
        description="compile a multi-kernel program (ordered CFDlang "
                    "kernels sharing tensors) through the staged flow as "
                    "one session; per-kernel cache keys mean kernels "
                    "shared between programs compile once",
    )
    p.add_argument("source", nargs="?",
                   help="program text file (=== cfdlang program ... === "
                        "header; see Program.to_text)")
    p.add_argument("--suite", choices=sorted(WORKLOAD_SUITES),
                   help="use a built-in workload suite instead of a file")
    p.add_argument("-n", "--degree", type=int, default=8,
                   help="tensor extent for --suite programs (default 8)")
    p.add_argument("--exec-backend", default=None, metavar="NAME",
                   help="also run the compiled kernel chain functionally "
                        "over the suite's element batch with this backend "
                        "and report throughput (--suite only)")
    p.add_argument("--functional-ne", type=int, default=8, metavar="N",
                   help="element batch size of that functional run "
                        "(default 8)")
    p.add_argument("--fuse", action="store_true",
                   help="compile under fusion='auto': contiguous "
                        "streamed-compatible kernels merge into one "
                        "composite system with on-device intermediates")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the stage cache to DIR (content-addressed "
                        "pickle store shared with every other verb)")
    p.add_argument("--trace", action="store_true",
                   help="print per-stage timing and cache behavior")
    p.add_argument("--expect-front-end-cached", action="store_true",
                   help="exit non-zero unless every front-end stage was "
                        "served from the cache (CI guard for per-kernel "
                        "reuse across runs and programs)")
    return p


def _program_main(argv) -> int:
    from repro.apps.workloads import make_workload, suite_program
    from repro.flow.program import Program, compile_program

    args = build_program_parser().parse_args(argv)
    if args.exec_backend and not args.suite:
        print("error: --exec-backend needs --suite: a program file "
              "carries no element data to run on", file=sys.stderr)
        return 2
    workload = None
    try:
        if args.exec_backend:
            workload = make_workload(
                args.suite, n=args.degree, n_elements=args.functional_ne
            )
            program = workload.program
        elif args.suite:
            program = suite_program(args.suite, n=args.degree)
        elif args.source:
            with open(args.source) as f:
                program = Program.from_text(f.read())
        else:
            print("error: provide a program text file or --suite",
                  file=sys.stderr)
            return 2
    except (OSError, SystemGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = (
        DiskStageCache(args.cache_dir) if args.cache_dir else StageCache()
    )
    trace = FlowTrace()
    options = FlowOptions(fusion="auto") if args.fuse else None
    try:
        result = compile_program(program, options, cache=cache, trace=trace)
    except SystemGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if workload is not None:
        import time as _time

        from repro.exec.programs import run_chain_batch

        t0 = _time.perf_counter()
        outputs = run_chain_batch(
            result.chain(), workload.elements, workload.static,
            backend=args.exec_backend,
        )
        seconds = _time.perf_counter() - t0
        ne = args.functional_ne
        print(f"functional[{args.exec_backend}]: {len(outputs)} outputs "
              f"({', '.join(sorted(outputs))}) over {ne} elements in "
              f"{seconds * 1e3:.2f} ms "
              f"({ne / max(seconds, 1e-12):,.0f} elements/sec)")
    if args.trace:
        print(trace.summary())
    if args.cache_dir:
        print(_cache_stats_line(cache))
    if args.expect_front_end_cached:
        return _check_front_end_cached(trace)
    return 0


def build_solve_parser() -> argparse.ArgumentParser:
    from repro.apps.workloads import WORKLOAD_SUITES

    p = argparse.ArgumentParser(
        prog="cfdlang-flow solve",
        description="run a time-stepping solver loop over a workload "
                    "suite: every step re-enters the compile flow (fully "
                    "cache-served after step 1) and runs the numeric "
                    "inner loop on an execution backend",
    )
    p.add_argument("--suite", choices=sorted(WORKLOAD_SUITES),
                   default="smoother",
                   help="the workload suite to iterate (default smoother)")
    p.add_argument("-n", "--degree", type=int, default=8,
                   help="tensor extent (default 8)")
    p.add_argument("--steps", type=int, default=4,
                   help="solver time steps (default 4)")
    p.add_argument("--ne", type=int, default=8, metavar="N",
                   help="elements in the batch (default 8)")
    p.add_argument("--exec-backend", default="numpy", metavar="NAME",
                   help="execution backend for the numeric inner loop "
                        "(default numpy)")
    p.add_argument("--seed", type=int, default=2021,
                   help="synthetic element data seed (default 2021)")
    p.add_argument("--fuse", action="store_true",
                   help="compile each step under fusion='auto' (one "
                        "backend call per fused kernel group; carried "
                        "outputs stay on the fused interface)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the stage cache to DIR")
    p.add_argument("--trace", action="store_true",
                   help="print per-stage timing and cache behavior")
    p.add_argument("--expect-front-end-cached", action="store_true",
                   help="exit non-zero unless every warm step (2+) served "
                        "all front-end stages from the cache (CI guard "
                        "for cross-step reuse)")
    return p


def _solve_main(argv) -> int:
    from repro.apps.workloads import make_workload
    from repro.flow.solver import SolverLoop

    args = build_solve_parser().parse_args(argv)
    cache = (
        DiskStageCache(args.cache_dir) if args.cache_dir else StageCache()
    )
    trace = FlowTrace()
    try:
        workload = make_workload(
            args.suite, n=args.degree, n_elements=args.ne, seed=args.seed
        )
        loop = SolverLoop(
            workload.program,
            carry=workload.carry,
            backend=args.exec_backend,
            cache=cache,
            trace=trace,
            fusion="auto" if args.fuse else None,
        )
        result = loop.run(workload.elements, workload.static,
                          steps=args.steps)
    except SystemGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if args.trace:
        print(trace.summary())
    if args.cache_dir:
        print(_cache_stats_line(cache))
    if args.expect_front_end_cached:
        if args.steps < 2:
            print("error: --expect-front-end-cached needs --steps >= 2: "
                  "only warm steps can be cache-served", file=sys.stderr)
            return 2
        if result.cross_step_hit_rate() < 1.0:
            warm = result.warm_steps()
            ran = sum(s.front_end_executed for s in warm)
            print(f"error: --expect-front-end-cached: {ran} front-end "
                  "stage executions in warm solver steps (expected 0)",
                  file=sys.stderr)
            return 1
    return 0


def _load_source(app, source_path, degree: int):
    """One flow input from --app or a source file (shared by the main
    command and the submit verb)."""
    if app:
        from repro.apps import (
            gradient_program,
            interpolation_program,
            inverse_helmholtz_program,
        )

        builders = {
            "helmholtz": lambda: inverse_helmholtz_program(degree),
            "interpolation": lambda: interpolation_program(degree),
            "gradient": lambda: gradient_program(degree),
        }
        return builders[app]()
    if source_path:
        with open(source_path) as f:
            return f.read()
    return None


def _service_main(verb: str, argv) -> int:
    from repro.flow.service import BrokerBusyError, ServiceClient, SweepJob

    args = build_service_parser(verb).parse_args(argv)
    try:
        with ServiceClient(args.broker, args.token) as client:
            if verb == "submit":
                return _submit_main(args, client)
            job = SweepJob(client, args.job)
            if verb == "status":
                status = job.status()
                print(f"job {status['job']}: {status['state']}, "
                      f"{status['done_points']}/{status['total']} points "
                      f"done, {status['failed_points']} failed, "
                      f"{status['retries']} retries")
                return 0
            if verb == "cancel":
                outcome = job.cancel()
                print(f"job {outcome['job']}: "
                      + ("purged" if outcome.get("purged")
                         else outcome["state"]))
                return 0
            return _fetch_main(args, job)
    except BrokerBusyError as exc:
        print(f"busy: {exc}", file=sys.stderr)
        return 3
    except SystemGenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _submit_main(args, client) -> int:
    from repro.flow.stages import source_fingerprint

    source = _load_source(args.app, args.source, args.degree)
    if source is None:
        print("error: provide a source file or --app", file=sys.stderr)
        return 2
    text = source_fingerprint(source)
    board = get_board(args.board) if args.board else None
    options = FlowOptions(
        fusion="auto" if args.fuse else None,
        system=SystemOptions(
            board=board,
            n_elements=args.ne,
            exec_backend=args.exec_backend,
            functional_elements=args.functional_ne,
            memory_model=args.memory_model,
        ),
    )
    points = [
        (
            text,
            dataclasses.replace(
                options,
                system=dataclasses.replace(options.system, k=k, m=m),
            ).to_spec(),
        )
        for k, m in _parse_sweep(args.sweep)
    ]
    job = client.submit(points)
    print(f"submitted job {job.job_id} ({len(points)} points) "
          f"to {args.broker}")
    print(job.job_id)
    return 0


def _fetch_main(args, job) -> int:
    from repro.utils import ascii_table

    if args.wait:
        job.wait(poll_seconds=args.poll)
    payloads = job.fetch_payloads()
    rows = []
    errors = 0
    trace = FlowTrace()
    for index, payload in enumerate(payloads):
        if payload is None:
            rows.append((index, "-", "-", "-", "not run (cancelled)"))
            continue
        for stage, seconds, cached, origin in payload.get("events") or []:
            trace.record(stage, seconds, cached, origin)
        res = payload.get("outcome")
        if isinstance(res, Exception):
            rows.append((index, "-", "-", "-", f"error: {res}"))
            errors += 1
        elif not hasattr(res, "system"):
            # a multi-kernel ProgramResult (program text submitted
            # through the API): no single system/sim to columnize
            rows.append((
                index, "-", "-", "-",
                f"program: {len(res)} kernel(s) compiled",
            ))
        else:
            system = res.system
            rows.append((
                index,
                system.k,
                system.m,
                system.resources.bram,
                f"{res.sim.total_seconds:.3f}s",
            ))
    print(ascii_table(
        ["point", "k", "m", "BRAM", "simulated"],
        rows,
        title=f"job {job.job_id}",
    ))
    if args.trace:
        print(trace.summary())
    if args.expect_front_end_cached:
        rc = _check_front_end_cached(trace)
        if rc:
            return rc
    return 1 if errors else 0


def _cache_main(argv) -> int:
    import os

    args = build_cache_parser().parse_args(argv)
    if not os.path.isdir(args.cache_dir):
        # constructing the cache would silently mkdir a mistyped path and
        # report an empty-but-healthy store
        print(f"error: no cache directory at {args.cache_dir!r}",
              file=sys.stderr)
        return 2
    cache = DiskStageCache(args.cache_dir)
    if args.action == "stats":
        s = cache.stats()
        print(f"cache directory: {cache.cache_dir}")
        print(f"entries: {s['disk_entries']}")
        print(f"bytes:   {s['disk_bytes']}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None and args.max_age is None:
            print("error: cache gc needs --max-bytes and/or --max-age",
                  file=sys.stderr)
            return 2
        locks = cache.sweep_stale_locks()
        removed = cache.gc(args.max_bytes, max_age_seconds=args.max_age)
        s = cache.stats()
        print(f"gc: removed {removed} entries and {locks} stale locks; "
              f"{s['disk_entries']} entries / {s['disk_bytes']} bytes remain")
        return 0
    if args.action == "clear":
        before = cache.stats()["disk_entries"]
        cache.clear()
        print(f"clear: removed {before} entries from {cache.cache_dir}")
        return 0
    # verify
    report = cache.verify(fix=args.fix)
    corrupt = report["corrupt"]
    stale_locks = report["stale_locks"]
    print(f"verify: {report['checked']} entries checked, "
          f"{len(corrupt)} corrupt, {report['removed']} removed; "
          f"{len(stale_locks)} stale locks, "
          f"{report['locks_removed']} removed")
    for key in corrupt:
        print(f"  corrupt: {key}")
    for name in stale_locks:
        print(f"  stale lock: {name}")
    return 1 if (corrupt or stale_locks) and not args.fix else 0


def _check_front_end_cached(trace: FlowTrace) -> int:
    """CI guard: fail loudly if any front-end stage actually ran.

    Replaces grepping the stats line for a hardcoded hit count, which
    silently broke whenever a stage was added or split.
    """
    executed = trace.executed_counts()
    ran = [name for name in FRONT_END_STAGES if executed.get(name, 0)]
    if ran:
        print("error: --expect-front-end-cached: front-end stages ran "
              "instead of hitting the cache: " + ", ".join(ran),
              file=sys.stderr)
        return 1
    return 0


def _parse_sweep(spec: str):
    grid = []
    for point in spec.split(","):
        try:
            k_str, m_str = point.lower().split("x")
            grid.append((int(k_str), int(m_str)))
        except ValueError:
            raise SystemGenerationError(
                f"bad sweep point {point!r}: expected KxM, e.g. 2x4"
            ) from None
    return grid


def _run_sweep(source, options: FlowOptions, args, cache, trace) -> int:
    from repro.utils import ascii_table

    grid = _parse_sweep(args.sweep)
    jobs = [
        (
            source,
            dataclasses.replace(
                options,
                system=dataclasses.replace(options.system, k=k, m=m),
            ),
        )
        for k, m in grid
    ]
    tmp_cache_dir = None
    multi_process = args.executor in ("process", "distributed")
    if (multi_process and args.expect_front_end_cached
            and not isinstance(cache, DiskStageCache)):
        print(f"error: --expect-front-end-cached with --executor "
              f"{args.executor} needs --cache-dir: a temporary cache starts "
              "cold, so the check could never pass", file=sys.stderr)
        return 2
    if multi_process and not isinstance(cache, DiskStageCache):
        # workers share artifacts through disk; without --cache-dir, use a
        # throwaway directory so the stats line still reflects the sweep
        tmp_cache_dir = tempfile.TemporaryDirectory(prefix="cfdlang-flow-cache-")
        cache = DiskStageCache(tmp_cache_dir.name)
        print(f"{args.executor} executor: using a temporary cache directory "
              "(pass --cache-dir to persist artifacts across runs)")
    executor = args.executor
    if args.executor != "distributed" and (args.listen
                                           or args.external_workers):
        print("error: --listen/--external-workers need "
              "--executor distributed", file=sys.stderr)
        return 2
    if args.broker and args.executor == "distributed":
        print("error: --executor distributed runs its own broker; to use "
              "the standing broker at --broker, pass --executor service "
              "--broker HOST:PORT and attach workers with 'cfdlang-flow "
              "worker --connect HOST:PORT'", file=sys.stderr)
        return 2
    if args.broker and args.executor != "service":
        print("error: --broker needs --executor service (submit the "
              "sweep as a durable job)", file=sys.stderr)
        return 2
    if args.executor == "service":
        from repro.flow.nettransport import resolve_token
        from repro.flow.service import ServiceExecutor

        if not args.broker:
            print("error: --executor service needs --broker HOST:PORT: a "
                  "service sweep runs on a standing 'cfdlang-flow broker'",
                  file=sys.stderr)
            return 2
        if not resolve_token(args.token):
            print("error: --broker needs a shared-secret token: pass "
                  "--token or set CFDLANG_FLOW_TOKEN", file=sys.stderr)
            return 2
        executor = ServiceExecutor(broker=args.broker, token=args.token)
    if args.executor == "distributed" and (args.listen
                                           or args.external_workers):
        from repro.flow.distributed import DistributedExecutor
        from repro.flow.nettransport import parse_hostport, resolve_token

        if not args.listen:
            print("error: --external-workers needs --listen: external "
                  "workers must know the broker address to attach to",
                  file=sys.stderr)
            return 2
        if not resolve_token(args.token):
            print("error: --listen needs a shared-secret token: pass "
                  "--token or set CFDLANG_FLOW_TOKEN", file=sys.stderr)
            return 2
        executor = DistributedExecutor(
            listen=parse_hostport(args.listen, listening=True),
            token=args.token,
            spawn_workers=not args.external_workers,
        )
    try:
        results = compile_many(
            jobs, jobs=args.jobs, cache=cache, trace=trace,
            return_exceptions=True, executor=executor,
        )
        rows = []
        for (k, m), res in zip(grid, results):
            if isinstance(res, Exception):
                rows.append((k, m, "-", "-", f"error: {res}"))
            else:
                util = res.system.utilization()
                rows.append(
                    (
                        k,
                        m,
                        res.system.resources.bram,
                        f"{util['bram'] * 100:.0f}%",
                        f"{res.sim.total_seconds:.3f}s",
                    )
                )
        print(
            ascii_table(
                ["k", "m", "BRAM", "BRAM util", f"{args.ne} elements"],
                rows,
                title=f"k x m sweep on the {options.resolved_board().name} "
                      f"({args.jobs} {args.executor} "
                      f"worker{'s' if args.jobs != 1 else ''})",
            )
        )
        if trace is not None:
            print(trace.summary())
        print(_cache_stats_line(cache))
        if args.expect_front_end_cached and trace is not None:
            rc = _check_front_end_cached(trace)
            if rc:
                return rc
        return 1 if any(isinstance(r, Exception) for r in results) else 0
    finally:
        if tmp_cache_dir is not None:
            tmp_cache_dir.cleanup()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "broker":
        return _broker_main(argv[1:])
    if argv and argv[0] == "program":
        return _program_main(argv[1:])
    if argv and argv[0] == "solve":
        return _solve_main(argv[1:])
    if argv and argv[0] in ("submit", "status", "fetch", "cancel"):
        return _service_main(argv[0], argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_stages:
        _print_stages()
        return 0
    if args.list_boards:
        _print_boards()
        return 0
    if args.list_backends:
        _print_backends()
        return 0
    if args.exec_backend is not None:
        from repro.exec import backend_names

        if args.exec_backend not in backend_names():
            print(f"error: unknown execution backend "
                  f"{args.exec_backend!r}; backends are: "
                  f"{', '.join(backend_names())}", file=sys.stderr)
            return 2
    if args.stop_after is not None and args.stop_after not in stage_names():
        print(f"error: unknown stage {args.stop_after!r}; "
              f"stages are: {', '.join(stage_names())}", file=sys.stderr)
        return 2
    board = None
    if args.board is not None:
        try:
            board = get_board(args.board)
        except SystemGenerationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    source = _load_source(args.app, args.source, args.degree)
    if source is None:
        print("error: provide a source file or --app", file=sys.stderr)
        return 2

    sharing = SharingMode.MATCHING
    if args.no_sharing:
        sharing = SharingMode.NONE
    if args.clique_sharing:
        sharing = SharingMode.CLIQUE
    options = FlowOptions(
        factorize=not args.no_factorize,
        directives=HlsDirectives(pipeline=args.pipeline),
        sharing=sharing,
        temporaries_internal=args.temporaries_internal,
        system=SystemOptions(
            k=args.k, m=args.m, board=board, n_elements=args.ne,
            exec_backend=args.exec_backend,
            functional_elements=args.functional_ne,
            memory_model=args.memory_model,
        ),
    )
    cache = (
        DiskStageCache(args.cache_dir) if args.cache_dir else StageCache()
    )
    trace = (
        FlowTrace()
        if (args.trace or args.stop_after or args.sweep
            or args.expect_front_end_cached)
        else None
    )
    if args.sweep:
        try:
            return _run_sweep(source, options, args, cache, trace)
        except SystemGenerationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    flow = Flow(source, options, cache=cache, trace=trace)
    try:
        return _flow_main(flow, args, options, cache, trace)
    except SystemGenerationError as exc:
        # e.g. --memory-model hbm on a board without HBM, an HBM spill,
        # or an explicit k x m that does not fit the board
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _flow_main(flow, args, options, cache, trace) -> int:
    if args.stop_after:
        flow.run_until(args.stop_after)
        print(f"stopped after stage {args.stop_after!r}; "
              f"completed: {', '.join(flow.completed_stages())}")
        print("available artifacts: "
              + ", ".join(k for k in flow.state if k != "source"))
        if trace is not None:
            print(trace.summary())
        if args.cache_dir:
            print(_cache_stats_line(cache))
        return 0
    result = flow.run()
    if result.system is None:
        print("error: no feasible configuration: a single kernel + memory "
              f"exceeds the {options.resolved_board().name}", file=sys.stderr)
        return 1
    paths = write_artifacts(result, args.output, k=args.k, m=args.m, n_elements=args.ne)
    print(result.hls.summary())
    print(result.memory.summary())
    print(result.system.summary())
    if result.banking is not None:
        print(result.banking.summary())
    if args.simulate:
        print(result.sim.summary())
    if result.functional is not None:
        print(str(result.functional))
    if trace is not None:
        print(trace.summary())
    if args.cache_dir or args.trace:
        print(_cache_stats_line(cache))
    print(f"artifacts written to: {args.output}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    if args.expect_front_end_cached:
        return _check_front_end_cached(trace)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
