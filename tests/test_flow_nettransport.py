"""TCP transport: transport-conformance contract (memory, TCP), broker
server auth and shutdown, remote cache tiering, TCP worker/executor
end-to-end equivalence, and the worker CLI failure paths."""

import os
import socket
import sys
import threading
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import (
    DiskStageCache,
    FlowOptions,
    FlowTrace,
    SystemOptions,
    compile_many,
)
from repro.flow.distributed import (
    BrokerUnreachableError,
    DistributedExecutor,
    Transport,
    TransportClosedError,
)
from repro.flow.nettransport import (
    BrokerAuthError,
    BrokerServer,
    MemoryTransport,
    RemoteStageCache,
    TcpTransport,
    parse_hostport,
    recv_frame,
    run_tcp_worker,
    send_frame,
)
from repro.flow.service import start_service_broker

TOKEN = "conformance-secret"


def message(job_id, index=0, source=HELMHOLTZ_DSL, options=None, attempt=0):
    return {
        "id": job_id,
        "index": index,
        "source": source,
        "options": options,
        "attempt": attempt,
    }


# -- the Transport contract ---------------------------------------------------
class TransportConformance:
    """The work-queue semantics, pinned once and run against each way a
    worker reaches the broker's queue: exactly-once claiming in
    sorted-id order, lease heartbeat/expiry/requeue, pending-job
    cancellation, batch tombstones, result consumption, and worker
    liveness.  ``rig`` yields ``(worker, queue)``: ``worker`` is the
    :class:`Transport` a worker loop drives, ``queue`` the broker's
    :class:`MemoryTransport`, where the job service enqueues, collects
    results and ages leases.  A new worker transport subclasses this
    with its own ``rig`` and inherits the whole suite.
    """

    @pytest.fixture
    def rig(self, tmp_path):
        raise NotImplementedError  # pragma: no cover

    def test_satisfies_transport_protocol(self, rig):
        worker, _ = rig
        assert isinstance(worker, Transport)

    def test_put_claim_complete_roundtrip(self, rig):
        worker, queue = rig
        queue.put_job(message("b-00000", index=7))
        claimed = worker.claim_job()
        assert claimed["id"] == "b-00000" and claimed["index"] == 7
        assert worker.claim_job() is None  # leased, not re-claimable
        worker.complete("b-00000", {"id": "b-00000", "outcome": 42})
        assert queue.take_result("b-00000")["outcome"] == 42
        assert queue.take_result("b-00000") is None  # consumed
        assert queue.expired_leases(0.0) == []  # lease dropped

    def test_claims_in_sorted_id_order(self, rig):
        worker, queue = rig
        queue.put_job(message("b-00002", index=2))
        queue.put_job(message("b-00000", index=0))
        queue.put_job(message("b-00001", index=1))
        claimed = [worker.claim_job()["id"] for _ in range(3)]
        assert claimed == ["b-00000", "b-00001", "b-00002"]

    def test_lease_expiry_heartbeat_and_requeue(self, rig):
        worker, queue = rig
        queue.put_job(message("b-00000"))
        job = worker.claim_job()
        assert queue.expired_leases(30.0) == []  # fresh lease
        queue._age_lease("b-00000", 3600.0)
        assert queue.expired_leases(30.0) == ["b-00000"]
        worker.heartbeat_job("b-00000")  # a live worker touched it
        assert queue.expired_leases(30.0) == []
        # the broker's requeue path: release, re-put, claim again
        queue._age_lease("b-00000", 3600.0)
        queue.release(job["id"])
        job["attempt"] = 1
        queue.put_job(job)
        reclaimed = worker.claim_job()
        assert reclaimed["id"] == "b-00000" and reclaimed["attempt"] == 1

    def test_heartbeat_of_unclaimed_job_is_harmless(self, rig):
        worker, queue = rig
        worker.heartbeat_job("never-claimed-00000")
        assert queue.expired_leases(0.0) == []

    def test_cancel_pending_skips_claimed_jobs(self, rig):
        worker, queue = rig
        queue.put_job(message("b-00000"))
        queue.put_job(message("b-00001", index=1))
        worker.claim_job()  # b-00000 leased
        cancelled = queue.cancel_pending({"b-00000", "b-00001"})
        assert cancelled == {"b-00001"}
        assert worker.claim_job() is None  # queue scrubbed

    def test_batch_tombstone_blocks_straggler_results(self, rig):
        worker, queue = rig
        queue.put_job(message("batchA-00000"))
        worker.claim_job()
        assert not queue.batch_done("batchA-00000")
        queue.mark_batch_done("batchA")
        assert queue.batch_done("batchA-00000")
        worker.complete("batchA-00000", {"id": "batchA-00000", "outcome": 1})
        assert queue.take_result("batchA-00000") is None  # dropped
        assert queue.expired_leases(0.0) == []  # lease cleaned up
        # other batches are unaffected
        queue.put_job(message("batchB-00000"))
        worker.claim_job()
        worker.complete("batchB-00000", {"id": "batchB-00000", "outcome": 2})
        assert queue.take_result("batchB-00000")["outcome"] == 2

    def test_worker_liveness(self, rig):
        worker, queue = rig
        assert queue.alive_workers(60.0) == []
        worker.heartbeat_worker("w1")
        assert queue.alive_workers(60.0) == ["w1"]
        queue._age_worker("w1", 3600.0)
        assert queue.alive_workers(60.0) == []
        worker.heartbeat_worker("w1")
        worker.unregister_worker("w1")
        assert queue.alive_workers(60.0) == []


class TestMemoryConformance(TransportConformance):
    """The full contract in-process: the worker drives the broker's
    queue object directly."""

    @pytest.fixture
    def rig(self, tmp_path):
        transport = MemoryTransport()
        yield transport, transport


class TestTcpConformance(TransportConformance):
    """The worker surface over the wire: a worker-role TcpTransport
    against a live BrokerServer, whose MemoryTransport is the queue."""

    @pytest.fixture
    def rig(self, tmp_path):
        server = BrokerServer("127.0.0.1", 0, TOKEN)
        client = TcpTransport(server.address, TOKEN, role="worker").connect()
        try:
            yield client, server.transport
        finally:
            client.close()
            server.close()


class TestLongPollClaims:
    def test_blocked_claimers_take_each_point_exactly_once(self):
        """More claimers than cores, each blocked in a long-poll claim
        while points are queued one by one under a short switch
        interval: every point is claimed once, none lost or doubled,
        and close() releases every claimer."""
        queue = MemoryTransport()
        ids = [f"b-{i:05d}" for i in range(300)]
        claimed, claimed_lock = [], threading.Lock()

        def claimer():
            while True:
                try:
                    job = queue.claim_job(wait=0.05)
                except TransportClosedError:
                    return
                if job is not None:
                    with claimed_lock:
                        claimed.append(job["id"])

        threads = [threading.Thread(target=claimer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for job_id in ids:
                queue.put_job(message(job_id))
            deadline = time.monotonic() + 30.0
            while len(claimed) < len(ids) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            queue.close()
            for thread in threads:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(claimed) == ids


# -- broker server specifics --------------------------------------------------
class TestBrokerServer:
    def test_rejects_bad_token(self):
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            with pytest.raises(BrokerAuthError, match="rejected"):
                TcpTransport(
                    server.address, "wrong-token", connect_retries=1
                ).connect()

    def test_requires_a_token(self):
        with pytest.raises(SystemGenerationError, match="token"):
            BrokerServer("127.0.0.1", 0, "")

    def test_rejects_protocol_version_mismatch(self):
        # a future v2 client must get a clear error at hello time, not
        # an authenticated connection that dies on the first frame
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            with socket.create_connection(server.address, timeout=5.0) as s:
                send_frame(s, {"op": "hello", "token": TOKEN,
                               "role": "client", "version": 999})
                reply = recv_frame(s, allow_pickle=False)
        assert not reply["ok"]
        assert "version mismatch" in reply["error"]

    def test_rejects_pickle_frame_before_auth(self):
        # an unauthenticated peer must never reach the unpickler
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            with socket.create_connection(server.address, timeout=5.0) as s:
                send_frame(s, {"evil": True}, pickled=True)
                with pytest.raises(TransportClosedError):
                    recv_frame(s, allow_pickle=False)

    def test_dropped_connection_unregisters_worker(self):
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            worker = TcpTransport(
                server.address, TOKEN, role="worker", worker_id="w1"
            ).connect()
            worker.heartbeat_worker("w1")
            assert server.transport.alive_workers(60.0) == ["w1"]
            worker.close()
            deadline = time.monotonic() + 5.0
            while (server.transport.alive_workers(60.0)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.transport.alive_workers(60.0) == []

    def test_lost_connection_stays_lost(self):
        """Once connected, a dropped broker reads as TransportClosedError
        on every later call — never a reconnect-retry stall ending in
        BrokerUnreachableError.  This is what lets a worker whose pulse
        thread noticed the drop first still exit cleanly."""
        server = BrokerServer("127.0.0.1", 0, TOKEN)
        client = TcpTransport(server.address, TOKEN).connect()
        server.close()
        with pytest.raises(TransportClosedError):
            client.claim_job()
        t0 = time.monotonic()
        with pytest.raises(TransportClosedError):  # and again, instantly
            client.claim_job()
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("kind", ["idle", "service", "live-worker"])
    def test_close_is_prompt_and_leaves_no_threads(self, tmp_path, kind):
        """close() must wake the accept thread (blocked in accept()) and
        every connection thread at once, not wait out a join timeout."""
        if kind == "service":
            server = start_service_broker(
                "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
                tmp_path / "service",
            )
        else:
            server = BrokerServer("127.0.0.1", 0, TOKEN)
        worker = None
        if kind == "live-worker":
            worker = TcpTransport(
                server.address, TOKEN, role="worker", worker_id="w1"
            ).connect()
            assert server.transport.alive_workers(60.0) == ["w1"]
        time.sleep(0.2)  # let the accept thread block in accept()
        t0 = time.monotonic()
        server.close()
        assert time.monotonic() - t0 < 1.0
        assert not server._accept_thread.is_alive()
        assert not any(t.is_alive() for t in server._threads)
        if worker is not None:
            assert len(server._threads) == 1  # the worker's connection
            with pytest.raises(TransportClosedError):
                worker.claim_job()

    def test_listen_on_taken_port_is_a_clean_error(self):
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            with pytest.raises(SystemGenerationError, match="cannot serve"):
                BrokerServer(*server.address, TOKEN)

    def test_unreachable_broker_fails_bounded(self):
        with socket.socket() as s:  # grab a port nobody is serving
            s.bind(("127.0.0.1", 0))
            address = s.getsockname()[:2]
        t0 = time.monotonic()
        with pytest.raises(BrokerUnreachableError, match="cannot reach"):
            TcpTransport(
                address, TOKEN, connect_retries=3, retry_delay=0.05
            ).connect()
        assert time.monotonic() - t0 < 10.0

    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert parse_hostport("[::1]:1") == ("[::1]", 1)
        # an empty host is the every-interface shorthand on the
        # *listening* side only; as a connect destination 0.0.0.0 is
        # platform-dependent, so connect paths demand an explicit host
        assert parse_hostport(":123", listening=True) == ("0.0.0.0", 123)
        assert parse_hostport(":0", listening=True) == ("0.0.0.0", 0)
        for empty in (":123", ":0"):
            with pytest.raises(SystemGenerationError, match="explicit host"):
                parse_hostport(empty)
        for bad in ("nope", "host:", "host:abc"):
            with pytest.raises(SystemGenerationError, match="HOST:PORT"):
                parse_hostport(bad)
            with pytest.raises(SystemGenerationError, match="HOST:PORT"):
                parse_hostport(bad, listening=True)

    def test_cache_rpcs_roundtrip_entries(self, tmp_path):
        cache = DiskStageCache(tmp_path / "broker-cache")
        cache.put("key1", {"artifact": [1, 2, 3]})
        with BrokerServer("127.0.0.1", 0, TOKEN, cache) as server:
            client = TcpTransport(server.address, TOKEN).connect()
            try:
                data = client.cache_fetch("key1")
                assert data is not None
                assert client.cache_fetch("missing") is None
                client.cache_put("key2", data)
            finally:
                client.close()
        assert cache.peek("key2")[0] == {"artifact": [1, 2, 3]}


# -- worker-side remote cache -------------------------------------------------
class _BrokerGoneTransport:
    def cache_fetch(self, key):
        raise TransportClosedError("broker gone")

    def cache_put(self, key, data):
        raise TransportClosedError("broker gone")


class TestRemoteStageCache:
    @pytest.fixture
    def rig(self, tmp_path):
        broker_cache = DiskStageCache(tmp_path / "broker")
        server = BrokerServer("127.0.0.1", 0, TOKEN, broker_cache)
        transport = TcpTransport(server.address, TOKEN).connect()
        cache = RemoteStageCache(
            DiskStageCache(tmp_path / "worker"), transport
        )
        try:
            yield broker_cache, cache
        finally:
            transport.close()
            server.close()

    def test_remote_hit_imports_locally(self, rig):
        broker_cache, cache = rig
        broker_cache.put("k", {"v": 1})
        entry, origin = cache.fetch("k")
        assert entry == {"v": 1} and origin == "remote"
        assert cache.counters()["remote_hits"] == 1
        # imported: the re-fetch is a local memory hit, no wire trip
        entry, origin = cache.fetch("k")
        assert origin == "memory"
        assert cache.counters()["remote_hits"] == 1

    def test_miss_counts_once(self, rig):
        _, cache = rig
        assert cache.fetch("absent") is None
        assert cache.counters()["misses"] == 1
        assert cache.peek("absent") is None  # peek never counts
        assert cache.counters()["misses"] == 1

    def test_put_ships_to_broker(self, rig):
        broker_cache, cache = rig
        cache.put("k", {"v": 2})
        assert broker_cache.peek("k")[0] == {"v": 2}

    def test_degrades_to_local_when_broker_gone(self, tmp_path):
        cache = RemoteStageCache(
            DiskStageCache(tmp_path), _BrokerGoneTransport()
        )
        cache.put("k", {"v": 3})  # the failed ship must not raise
        assert cache.fetch("k")[0] == {"v": 3}
        assert cache.fetch("absent") is None  # fetch degrades to a miss


# -- end-to-end: TCP worker + executor ---------------------------------------
GRID = [
    (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
    for k, m in ((1, 1), (2, 2), (4, 4))
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


class TestTcpWorkerLoop:
    def test_worker_drains_broker_queue(self, tmp_path):
        broker_cache = DiskStageCache(tmp_path / "broker")
        with BrokerServer("127.0.0.1", 0, TOKEN, broker_cache) as server:
            opts = FlowOptions(system=SystemOptions(k=2, m=2))
            server.transport.put_job(message("b-00000", index=0))
            server.transport.put_job(
                message("b-00001", index=1, options=opts.to_spec())
            )
            handled = run_tcp_worker(
                server.address, TOKEN, tmp_path / "local",
                max_jobs=2, worker_id="w-tcp",
            )
            assert handled == 2
            r0 = server.transport.take_result("b-00000")
            r1 = server.transport.take_result("b-00001")
        assert r0["worker"] == "w-tcp"
        assert r0["outcome"].system.k == 16  # default: maximize k
        assert r1["outcome"].system.k == 2
        assert all("@w-tcp" in e[3] for e in r0["events"])
        # the entries the worker computed landed in the broker's cache
        assert broker_cache.stats()["disk_entries"] > 0

    def test_worker_exits_cleanly_when_broker_vanishes(self, tmp_path):
        server = BrokerServer("127.0.0.1", 0, TOKEN)
        threading.Timer(0.5, server.close).start()
        handled = run_tcp_worker(
            server.address, TOKEN, tmp_path / "local",
            poll_seconds=0.02,
        )
        assert handled == 0  # no traceback, no hang: a clean exit


class TestTcpExecutor:
    def test_matches_serial_bit_identical(self, tmp_path):
        """Acceptance: a --listen broker + 2 TCP workers with no shared
        cache dir produce results bit-identical to the serial backend."""
        serial = compile_many(GRID, executor="serial")
        executor = DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN)
        tcp = compile_many(
            GRID, jobs=2, executor=executor,
            cache=DiskStageCache(tmp_path / "cache"),
        )
        assert result_signature(serial) == result_signature(tcp)

    def test_warm_broker_cache_serves_front_end_remotely(self, tmp_path):
        """Second run against the same broker cache dir: fresh workers
        with no shared mount must serve the whole front end as remote
        hits (this is what the CI smoke test asserts via
        --expect-front-end-cached)."""
        from repro.flow.stages import FRONT_END_STAGES

        cache_dir = tmp_path / "cache"
        compile_many(
            GRID[:2], jobs=2, cache=DiskStageCache(cache_dir),
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        trace = FlowTrace()
        compile_many(
            GRID[:2], jobs=2, cache=DiskStageCache(cache_dir), trace=trace,
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        executed = trace.executed_counts()
        assert not any(executed.get(s) for s in FRONT_END_STAGES)
        assert sum(trace.cached_counts_by_origin("remote").values()) > 0

    def test_remote_hits_merge_into_parent_cache_stats(self, tmp_path):
        cache_dir = tmp_path / "cache"
        compile_many(
            GRID[:1], jobs=1, cache=DiskStageCache(cache_dir),
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        cache = DiskStageCache(cache_dir)
        compile_many(
            GRID[:1], jobs=1, cache=cache,
            executor=DistributedExecutor(listen=("127.0.0.1", 0), token=TOKEN),
        )
        assert cache.stats()["remote_hits"] > 0

    def test_spawned_workers_get_an_executor_owned_cache_tier(
        self, monkeypatch
    ):
        """Spawned workers must be handed a --cache-dir under the
        executor's temp root (reaping sends SIGTERM, so a worker-side
        mkdtemp would leak its directory on every sweep), and the broker
        token by environment, never on the command line."""
        import subprocess

        from repro.flow.nettransport import TOKEN_ENV

        spawned = []
        real_popen = subprocess.Popen

        def spy(argv, **kwargs):
            spawned.append((argv, kwargs["env"]))
            return real_popen(argv, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", spy)
        compile_many(GRID[:1], executor=DistributedExecutor())
        ((argv, env),) = spawned
        cache_dir = argv[argv.index("--cache-dir") + 1]
        assert env[TOKEN_ENV] and env[TOKEN_ENV] not in argv
        assert not os.path.exists(os.path.dirname(cache_dir))  # cleaned up

    def test_broker_flag_points_to_the_service_executor(self, capsys):
        """A sweep no longer attaches to a standing broker with
        --executor distributed: that is the service executor's job."""
        from repro.flow.cli import main

        rc = main(["--app", "helmholtz", "--sweep", "1x1",
                   "--executor", "distributed", "--broker", "127.0.0.1:1",
                   "--token", TOKEN])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--executor service" in err and "worker --connect" in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestWorkerCliFailurePaths:
    def test_unreachable_broker_is_a_one_line_error(self, monkeypatch,
                                                    capsys):
        from repro.flow import nettransport
        from repro.flow.cli import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            host, port = s.getsockname()[:2]
        original = nettransport.TcpTransport

        def fast_transport(*args, **kwargs):
            kwargs.update(connect_retries=2, retry_delay=0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(nettransport, "TcpTransport", fast_transport)
        rc = main(["worker", "--connect", f"{host}:{port}",
                   "--token", TOKEN])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot reach broker" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_connect_without_token_is_a_one_line_error(self, monkeypatch,
                                                       capsys):
        from repro.flow.cli import main
        from repro.flow.nettransport import TOKEN_ENV

        monkeypatch.delenv(TOKEN_ENV, raising=False)
        rc = main(["worker", "--connect", "127.0.0.1:1"])
        assert rc == 2
        assert "token" in capsys.readouterr().err


class TestBrokerCli:
    def test_parser_requires_listen_and_cache(self):
        from repro.flow.cli import build_broker_parser

        with pytest.raises(SystemExit):
            build_broker_parser().parse_args([])
        args = build_broker_parser().parse_args(
            ["--listen", "127.0.0.1:0", "--token", "t", "--cache-dir", "c"]
        )
        assert args.listen == "127.0.0.1:0"

    def test_broker_without_token_is_a_one_line_error(self, tmp_path,
                                                      monkeypatch, capsys):
        from repro.flow.cli import main
        from repro.flow.nettransport import TOKEN_ENV

        monkeypatch.delenv(TOKEN_ENV, raising=False)
        rc = main(["broker", "--listen", "127.0.0.1:0",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "token" in capsys.readouterr().err
