"""Distributed executor: the worker loop, the one-shot fleet on a
loopback job-service broker (worker death and respawn, retries, stall
detection, fail_fast), and serial-equivalence of fleet-run sweeps."""

import socket
import threading
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL, inverse_helmholtz_program
from repro.errors import SystemGenerationError
from repro.flow import (
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    StageCache,
    SystemOptions,
    compile_many,
)
from repro.flow.distributed import (
    DistributedExecutor,
    WorkerCrashError,
    run_worker,
)
from repro.flow.nettransport import BrokerServer, MemoryTransport, run_tcp_worker
from repro.flow.service import start_service_broker
from repro.mnemosyne import SharingMode

TOKEN = "distributed-secret"


def message(job_id, index=0, source=HELMHOLTZ_DSL, options=None, attempt=0):
    return {
        "id": job_id,
        "index": index,
        "source": source,
        "options": options,
        "attempt": attempt,
    }


class TestWorkerLoop:
    def test_worker_drains_queue_and_posts_results(self, tmp_path):
        t = MemoryTransport()
        opts = FlowOptions(system=SystemOptions(k=2, m=2))
        t.put_job(message("j0", index=0))
        t.put_job(message("j1", index=1, options=opts.to_spec()))
        handled = run_worker(t, DiskStageCache(tmp_path / "cache"),
                             max_jobs=2, worker_id="w-test")
        assert handled == 2
        r0 = t.take_result("j0")
        r1 = t.take_result("j1")
        assert r0["worker"] == "w-test"
        assert r0["outcome"].system.k == 16  # default: maximize k
        assert r1["outcome"].system.k == 2
        assert r0["deltas"]["misses"] > 0
        assert all("@w-test" in e[3] for e in r0["events"])

    def test_worker_idle_timeout_exits_empty(self, tmp_path):
        t0 = time.monotonic()
        handled = run_worker(MemoryTransport(), DiskStageCache(tmp_path),
                             idle_timeout=0.2, poll_seconds=0.02)
        assert handled == 0
        assert time.monotonic() - t0 < 5.0

    def test_worker_ships_job_errors_by_value(self, tmp_path):
        t = MemoryTransport()
        t.put_job(message("j0", source="not CFDlang at all"))
        run_worker(t, DiskStageCache(tmp_path), max_jobs=1)
        assert isinstance(t.take_result("j0")["outcome"], Exception)


#: the DSE example's grid: degree x sharing strategy (the acceptance
#: sweep), trimmed to two degrees to keep the suite fast
DSE_GRID = [
    (inverse_helmholtz_program(n), FlowOptions(sharing=mode))
    for n in (7, 11)
    for mode in (SharingMode.NONE, SharingMode.MATCHING, SharingMode.CLIQUE)
]


def result_signature(results):
    return [
        (
            r.kernel.source,
            r.hls.summary(),
            r.memory.brams,
            (r.system.k, r.system.m),
            r.system.resources,
            r.sim.total_cycles,
        )
        for r in results
    ]


class TestDistributedExecutor:
    def test_matches_serial_bit_identical(self):
        """Acceptance: executor='distributed', jobs=4 equals the serial
        run on the DSE example grid."""
        serial = compile_many(DSE_GRID, executor="serial")
        dist = compile_many(DSE_GRID, jobs=4, executor="distributed")
        assert result_signature(serial) == result_signature(dist)

    def test_trace_is_point_ordered_with_worker_tags(self):
        from repro.flow.session import origin_kind

        jobs = DSE_GRID[:3]
        serial_trace = FlowTrace()
        compile_many(jobs, executor="serial", trace=serial_trace)
        trace = FlowTrace()
        cache = compile_many(jobs, jobs=2, executor="distributed", trace=trace)
        assert [e.stage for e in trace.events] == [
            e.stage for e in serial_trace.events
        ]
        for e in trace.events:
            assert "@" in e.origin
            assert origin_kind(e.origin) in ("", "memory", "disk", "remote")
        # cross-process single flight: the shared front end ran once
        assert trace.executed_counts()["parse"] == 1

    def test_worker_stats_merge_into_parent_cache(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        compile_many(DSE_GRID[:2], jobs=2, executor="distributed", cache=cache)
        stats = cache.stats()
        assert stats["misses"] > 0  # the parent itself ran nothing
        assert stats["disk_entries"] > 0
        # job state lived in the executor's temporary service directory,
        # never where a standing broker over this cache would recover it
        assert not (tmp_path / ".service").exists()

    def test_memory_cache_is_rejected(self):
        with pytest.raises(TypeError, match="DiskStageCache"):
            compile_many(DSE_GRID[:1], jobs=2, executor="distributed",
                         cache=StageCache())

    def test_empty_batch(self):
        assert compile_many([], jobs=2, executor="distributed") == []

    def test_per_point_error_capture(self):
        jobs = [DSE_GRID[0], ("not CFDlang", None), DSE_GRID[1]]
        results = compile_many(jobs, jobs=2, executor="distributed",
                               return_exceptions=True)
        assert isinstance(results[1], Exception)
        assert results[0].system is not None
        assert results[2].system is not None
        with pytest.raises(Exception):
            compile_many(jobs, jobs=2, executor="distributed")

    def test_fail_fast_stops_starting_points(self):
        """Without return_exceptions the first failed point raises, and
        the broker ends the job there: points not yet started on the
        single worker never run."""
        from repro.errors import CFDlangSyntaxError

        trace = FlowTrace()
        with pytest.raises(CFDlangSyntaxError):
            compile_many([("not CFDlang", None)] + DSE_GRID, jobs=1,
                         executor=DistributedExecutor(poll_seconds=0.01),
                         trace=trace)
        ran = len([e for e in trace.events if e.stage == "parse"])
        assert ran <= len(DSE_GRID) // 2


class TestWorkerDeathRecovery:
    def test_killed_worker_job_is_released_and_completes(self, monkeypatch):
        """Acceptance: killing a worker mid-sweep neither aborts the
        batch nor loses a point — its job is re-leased (attempt 1) and
        completes on a surviving/respawned worker."""
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        sweep = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=1, m=1))),
            (crashing, FlowOptions(system=SystemOptions(k=2, m=2))),
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=4, m=4))),
        ]
        executor = DistributedExecutor(lease_seconds=1.0,
                                       worker_grace_seconds=30.0)
        results = compile_many(sweep, jobs=2, executor=executor)
        assert [r.system.k for r in results] == [1, 2, 4]

    def test_retries_exhausted_yields_worker_crash_error(self, monkeypatch):
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        sweep = [
            (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=1, m=1))),
            (crashing, None),
        ]
        # max_attempts=1: the first lease expiry exhausts the budget
        executor = DistributedExecutor(lease_seconds=1.0, max_attempts=1,
                                       worker_grace_seconds=30.0)
        results = compile_many(sweep, jobs=2, executor=executor,
                               return_exceptions=True)
        assert results[0].system.k == 1
        assert isinstance(results[1], WorkerCrashError)

    def test_fail_fast_raises_when_retry_budget_exhausted(self, monkeypatch):
        """Worker death is retried even under fail_fast (it is infra
        churn, not a point failure) — but once the budget is spent it
        becomes the point's failure and the sweep raises."""
        monkeypatch.setenv("CFDLANG_FLOW_TEST_FAULT", "CRASH_MARKER")
        crashing = "// CRASH_MARKER\n" + HELMHOLTZ_DSL
        executor = DistributedExecutor(lease_seconds=1.0, max_attempts=1,
                                       worker_grace_seconds=30.0)
        with pytest.raises(WorkerCrashError):
            compile_many([(crashing, None)], jobs=1, executor=executor)

    def test_stalled_sweep_fails_loudly_without_workers(self, tmp_path):
        executor = DistributedExecutor(
            listen=("127.0.0.1", 0),
            token=TOKEN,
            spawn_workers=False,
            worker_grace_seconds=0.5,
            poll_seconds=0.02,
        )
        cache = DiskStageCache(tmp_path / "cache")
        with pytest.raises(SystemGenerationError, match="no worker"):
            compile_many(DSE_GRID[:1], jobs=1, executor=executor, cache=cache)
        # the abandoned job must not outlive the sweep: a standing broker
        # started later over the same cache has nothing to recover
        server = start_service_broker("127.0.0.1", 0, TOKEN, cache)
        try:
            assert server.service.stats()["queue_depth"] == 0
            assert server.transport.claim_job() is None
        finally:
            server.close()


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestExternalWorkers:
    def test_external_worker_drains_broker_batch(self, tmp_path):
        """A worker attached over TCP (what another host would run)
        serves a --listen sweep that spawns none itself."""
        address = ("127.0.0.1", free_port())
        # the worker retries its connect until the sweep's broker is up
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(address, TOKEN, tmp_path / "worker"),
            kwargs={"max_jobs": 1, "poll_seconds": 0.02},
        )
        worker.start()
        try:
            executor = DistributedExecutor(listen=address, token=TOKEN,
                                           spawn_workers=False)
            results = compile_many(
                [(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=2, m=2)))],
                executor=executor,
                cache=DiskStageCache(tmp_path / "cache"),
            )
            assert results[0].system.k == 2
        finally:
            worker.join(timeout=30.0)
        assert not worker.is_alive()


class TestWorkerCli:
    def test_parser_requires_connect(self):
        from repro.flow.cli import build_worker_parser

        with pytest.raises(SystemExit):
            build_worker_parser().parse_args([])
        args = build_worker_parser().parse_args(
            ["--connect", "h:1", "--cache-dir", "c", "--max-jobs", "3"]
        )
        assert args.connect == "h:1" and args.max_jobs == 3

    def test_worker_subcommand_runs(self, tmp_path, capsys):
        from repro.flow.cli import main

        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            server.transport.put_job(message("j0"))
            host, port = server.address
            rc = main(["worker", "--connect", f"{host}:{port}",
                       "--token", TOKEN, "--cache-dir", str(tmp_path),
                       "--max-jobs", "1"])
            payload = server.transport.take_result("j0")
        assert rc == 0
        assert "1 job" in capsys.readouterr().out
        assert payload["outcome"].memory.brams == 18
