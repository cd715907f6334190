"""Compile-as-a-service: the job-lifecycle conformance contract (run
against the in-process JobService and over TCP through a real broker),
restart durability, admission control, tenant cache namespaces, the
service executor, and the submit/status/fetch/cancel CLI verbs."""

import gc
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.apps.helmholtz import HELMHOLTZ_DSL
from repro.errors import SystemGenerationError
from repro.flow import (
    BrokerBusyError,
    DiskStageCache,
    FlowOptions,
    JobService,
    NamespacedStageCache,
    ServiceClient,
    ServiceExecutor,
    SweepJob,
    SystemOptions,
    attach_job,
    compile_many,
    namespaced_key,
)
from repro.flow.distributed import (
    TransportClosedError,
    WorkerCrashError,
    decode_results,
    raw_result,
    run_worker,
)
from repro.flow.nettransport import (
    BrokerAuthError,
    BrokerServer,
    MemoryTransport,
    TcpTransport,
    recv_frame,
    run_tcp_worker,
    send_frame,
)
from repro.flow.service import (
    TERMINAL_STATES,
    mint_job_id,
    start_service_broker,
)
from repro.flow.stages import FRONT_END_STAGES
from repro.flow.store import StageCache

TOKEN = "conformance-secret"

GRID = [
    (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
    for k, m in ((1, 1), (2, 2), (4, 4))
]


def spec_points(pairs):
    """(source, FlowOptions) pairs -> the primitives-only submit shape."""
    return [(source, options.to_spec()) for source, options in pairs]


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


def payload_signature(payloads):
    return result_signature([p["outcome"] for p in payloads])


@pytest.fixture(scope="module")
def serial_results():
    """The reference sweep every service path must match bit-identically."""
    return compile_many(GRID, executor="serial")


def wait_state(rig, job_id, states=TERMINAL_STATES, timeout=120.0):
    deadline = time.monotonic() + timeout
    status = rig.status(job_id)
    while time.monotonic() < deadline:
        if status["state"] in states:
            return status
        time.sleep(0.02)
        status = rig.status(job_id)
    pytest.fail(f"job {job_id} stuck in {status['state']!r}")


# -- the job-lifecycle contract -----------------------------------------------
class _LocalRig:
    """JobService driven directly: MemoryTransport + in-process worker."""

    def __init__(self, root, **limits):
        self.transport = MemoryTransport()
        self.cache = DiskStageCache(root / "cache")
        self.service = JobService(
            root / "service", self.transport, self.cache,
            poll_seconds=0.01, **limits,
        ).start()
        self._drained = 0

    def submit(self, points):
        return self.service.submit(points)

    def status(self, job_id):
        return self.service.status(job_id)

    def fetch(self, job_id):
        return self.service.fetch(job_id)

    def cancel(self, job_id):
        return self.service.cancel(job_id)

    def stats(self):
        return self.service.stats()

    def drain(self, n):
        self._drained += 1
        run_worker(
            transport=self.transport, cache=self.cache,
            max_jobs=n, poll_seconds=0.005,
            worker_id=f"w-local-{self._drained}",
        )

    def close(self):
        self.service.stop()


class _TcpRig:
    """The same contract over the wire: ServiceClient RPCs against a
    live broker, drained by real TCP workers."""

    def __init__(self, root, **limits):
        self.root = root
        self.server = start_service_broker(
            "127.0.0.1", 0, TOKEN,
            DiskStageCache(root / "broker-cache"), root / "service",
            poll_seconds=0.01, **limits,
        )
        self.client = ServiceClient(self.server.address, TOKEN).connect()
        self._drained = 0

    def submit(self, points):
        return self.client.submit(points).job_id

    def status(self, job_id):
        return self.client.status(job_id)

    def fetch(self, job_id):
        return self.client.fetch(job_id)

    def cancel(self, job_id):
        return self.client.cancel(job_id)

    def stats(self):
        return self.client.stats()

    def drain(self, n):
        self._drained += 1
        run_tcp_worker(
            self.server.address, TOKEN,
            self.root / f"worker-{self._drained}",
            max_jobs=n, poll_seconds=0.005,
            worker_id=f"w-tcp-{self._drained}",
        )

    def close(self):
        try:
            self.client.close()
        finally:
            self.server.close()


class ServiceConformance:
    """The semantics every job-service deployment shape must provide,
    pinned once and run against the in-process service and the TCP
    broker: durable ids, lifecycle states, per-point progress, fetch
    gating, cancel, admission backpressure, and bit-identical results.
    """

    rig_class = None

    @pytest.fixture
    def make_rig(self, tmp_path):
        rigs = []

        def factory(**limits):
            root = tmp_path / f"rig{len(rigs)}"
            root.mkdir()
            rig = self.rig_class(root, **limits)
            rigs.append(rig)
            return rig

        yield factory
        for rig in rigs:
            rig.close()

    @pytest.fixture
    def rig(self, make_rig):
        return make_rig()

    def test_job_ids_are_durable_handles(self, rig):
        job_id = rig.submit([])
        assert job_id.startswith("j")
        assert "-" not in job_id  # point ids are <job>-<idx>: no dashes

    def test_empty_job_is_immediately_done(self, rig):
        job_id = rig.submit([])
        assert rig.status(job_id)["state"] == "done"
        assert rig.fetch(job_id) == []

    def test_submit_reports_progress_counters(self, rig):
        job_id = rig.submit(spec_points(GRID[:2]))
        status = rig.status(job_id)
        assert status["state"] in ("queued", "running")
        assert status["total"] == 2
        assert status["done_points"] == 0  # no worker has run yet
        assert rig.stats()["queue_depth"] == 2

    def test_lifecycle_to_done_with_bit_identical_results(
        self, rig, serial_results
    ):
        job_id = rig.submit(spec_points(GRID[:2]))
        rig.drain(2)
        status = wait_state(rig, job_id)
        assert status["state"] == "done"
        assert status["done_points"] == 2
        assert status["failed_points"] == 0
        payloads = rig.fetch(job_id)
        assert payload_signature(payloads) == result_signature(
            serial_results[:2]
        )
        # non-destructive: a fetched job stays fetchable
        assert payload_signature(rig.fetch(job_id)) == payload_signature(
            payloads
        )

    def test_fetch_before_terminal_is_refused(self, rig):
        job_id = rig.submit(spec_points(GRID[:1]))
        with pytest.raises(SystemGenerationError, match="poll status"):
            rig.fetch(job_id)

    def test_cancel_then_purge(self, rig):
        job_id = rig.submit(spec_points(GRID[:2]))
        outcome = rig.cancel(job_id)
        assert outcome["state"] == "cancelled" and not outcome["purged"]
        assert rig.status(job_id)["state"] == "cancelled"
        assert rig.fetch(job_id) == [None, None]  # points never ran
        assert rig.cancel(job_id)["purged"]  # second cancel purges
        with pytest.raises(SystemGenerationError, match="no job"):
            rig.status(job_id)

    def test_unknown_job_is_a_clean_error(self, rig):
        with pytest.raises(SystemGenerationError, match="no job"):
            rig.status("j0000000000000deadbeef")

    def test_over_limit_submit_is_busy_not_a_stall(self, make_rig):
        """Acceptance: the admission path refuses with BrokerBusyError
        instead of growing the backlog, and frees up on cancel."""
        rig = make_rig(max_jobs=1)
        job_id = rig.submit(spec_points(GRID[:1]))
        t0 = time.monotonic()
        with pytest.raises(BrokerBusyError, match="limit"):
            rig.submit(spec_points(GRID[:1]))
        assert time.monotonic() - t0 < 5.0  # refused, never queued
        rig.cancel(job_id)
        assert rig.submit([]) != job_id  # capacity freed

    def test_failing_point_fails_the_job(self, rig):
        job_id = rig.submit(
            spec_points(GRID[:1]) + [("this is not a program", None)]
        )
        rig.drain(2)
        status = wait_state(rig, job_id)
        assert status["state"] == "failed"
        assert status["failed_points"] == 1
        payloads = rig.fetch(job_id)
        assert not isinstance(payloads[0]["outcome"], Exception)
        assert isinstance(payloads[1]["outcome"], Exception)


class TestLocalServiceConformance(ServiceConformance):
    rig_class = _LocalRig


class TestTcpServiceConformance(ServiceConformance):
    rig_class = _TcpRig


# -- service internals (no compiles, no sockets) ------------------------------
class TestJobServiceUnit:
    def test_job_ids_sort_by_submit_time(self):
        first = mint_job_id()
        time.sleep(0.002)  # the id's clock field is millisecond-grained
        assert first < mint_job_id()

    def test_per_tenant_limit_is_independent(self, tmp_path):
        service = JobService(
            tmp_path, MemoryTransport(), max_jobs=16, max_tenant_jobs=1
        )
        service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        with pytest.raises(BrokerBusyError, match="token"):
            service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        service.submit([(HELMHOLTZ_DSL, None)], tenant="bob")  # unaffected

    def test_tenants_cannot_see_each_others_jobs(self, tmp_path):
        service = JobService(tmp_path, MemoryTransport())
        job_id = service.submit([(HELMHOLTZ_DSL, None)], tenant="alice")
        assert service.status(job_id, tenant="alice")["total"] == 1
        for other in ("bob", ""):
            with pytest.raises(SystemGenerationError, match="no job"):
                service.status(job_id, tenant=other)
            with pytest.raises(SystemGenerationError, match="no job"):
                service.cancel(job_id, tenant=other)

    def test_repeatedly_lost_worker_fails_the_point(self, tmp_path):
        """A point whose lease keeps expiring burns its retry budget and
        resolves to WorkerCrashError — the job goes terminal instead of
        requeueing forever."""
        transport = MemoryTransport()
        with JobService(
            tmp_path, transport,
            lease_seconds=0.05, max_attempts=2, poll_seconds=0.01,
        ) as service:
            job_id = service.submit([(HELMHOLTZ_DSL, None)])
            deadline = time.monotonic() + 30.0
            while (service.status(job_id)["state"] not in TERMINAL_STATES
                   and time.monotonic() < deadline):
                message = transport.claim_job()
                if message is None:
                    time.sleep(0.01)
                    continue
                # claim like a worker, then die: age the lease stale
                transport._age_lease(message["id"], 3600.0)
            status = service.status(job_id)
            assert status["state"] == "failed"
            assert status["retries"] >= 2
            (payload,) = service.fetch(job_id)
            assert isinstance(payload["outcome"], WorkerCrashError)

    def test_malformed_submit_is_replied_not_raised(self, tmp_path):
        """handle_rpc's contract: a bad request is an ok:False reply,
        never an exception that would tear the connection down."""
        service = JobService(tmp_path, MemoryTransport())
        for bad in (None, "text", 7, [HELMHOLTZ_DSL],
                    [["source-only"]], [[HELMHOLTZ_DSL, None, "extra"]]):
            reply, pickled = service.handle_rpc(
                "submit", {"points": bad}, ""
            )
            assert reply["ok"] is False and not pickled
            assert "malformed" in reply["error"]
        # right shape, wrong leaf type (an options spec must be a
        # mapping): still an in-band reply, not a torn connection
        reply, _ = service.handle_rpc(
            "submit", {"points": [[HELMHOLTZ_DSL, 5]]}, ""
        )
        assert reply["ok"] is False
        assert not service._jobs  # nothing half-admitted

    def test_terminal_jobs_expire_after_retention(self, tmp_path):
        service = JobService(
            tmp_path / "gc", MemoryTransport(), terminal_ttl_seconds=0.0
        )
        job_id = service.submit([])  # no points: immediately done
        assert service.status(job_id)["state"] == "done"
        service._expire_terminal()
        with pytest.raises(SystemGenerationError, match="no job"):
            service.status(job_id)
        assert not list(service.jobs_dir.glob("*.json"))
        assert not list(service.state_dir.glob("*.json"))
        # inside the retention window nothing is touched
        keeper = JobService(
            tmp_path / "keep", MemoryTransport(),
            terminal_ttl_seconds=3600.0,
        )
        job_id = keeper.submit([])
        keeper._expire_terminal()
        assert keeper.status(job_id)["state"] == "done"

    def test_cancel_blocks_requeue_and_orphan_results(self, tmp_path):
        """A heal/collect racing a cancel must neither put a dead job's
        point back in the queue nor write a result file for it."""
        transport = MemoryTransport()
        service = JobService(tmp_path, transport)
        job_id = service.submit([(HELMHOLTZ_DSL, None)])
        service.cancel(job_id)
        assert transport.claim_job() is None  # cancel drained the queue
        job = service._jobs[job_id]
        service._enqueue_point(job, 0, attempt=1)  # a racing heal
        assert transport.claim_job() is None
        service._resolve(job, 0, {  # a racing straggler collect
            "id": job.point_id(0), "index": 0,
            "outcome": None, "events": [], "deltas": {},
        })
        assert not (service.results_dir / job_id).exists()

    def test_namespaced_key_partitions_without_changing_shape(self):
        key = "a" * 64
        assert namespaced_key("", key) == key  # primary token: identity
        alice, bob = namespaced_key("alice", key), namespaced_key("bob", key)
        assert alice != bob != key
        # still a sha256 hex name: disk fan-out and locks keep working
        assert len(alice) == 64 and int(alice, 16) >= 0

    def test_namespaced_cache_views_one_backend(self):
        backend = StageCache()
        alice = NamespacedStageCache(backend, "alice")
        bob = NamespacedStageCache(backend, "bob")
        alice.put("k", {"v": 1})
        assert alice.get("k") == {"v": 1}
        assert bob.fetch("k") is None  # partitioned
        assert namespaced_key("alice", "k") in backend  # shared store


# -- restart durability (the tentpole's acceptance path) ----------------------
class TestBrokerRestart:
    def test_fetch_by_id_across_restart_is_bit_identical(
        self, tmp_path, serial_results
    ):
        """Acceptance: submit, disconnect, kill the broker before any
        point ran; a new broker over the same dirs recovers the job,
        fresh workers re-register and drain it, and a fetch by nothing
        but the id matches the serial backend bit-for-bit."""
        cache_dir, service_dir = tmp_path / "cache", tmp_path / "service"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        with ServiceClient(server.address, TOKEN) as client:
            job_id = client.submit(spec_points(GRID)).job_id
        server.close()  # no worker ever ran: zero progress persisted

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        try:
            worker = threading.Thread(
                target=run_tcp_worker,
                args=(server.address, TOKEN, tmp_path / "worker"),
                kwargs={"max_jobs": len(GRID), "poll_seconds": 0.005,
                        "worker_id": "w-revived"},
            )
            worker.start()
            deadline = time.monotonic() + 30.0  # the worker re-registered
            while (not server.transport.alive_workers(60.0)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert server.transport.alive_workers(60.0) == ["w-revived"]
            job = attach_job(server.address, TOKEN, job_id)
            job.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(job.fetch()) == result_signature(
                serial_results
            )
            job.client.close()
            worker.join(timeout=30.0)
        finally:
            server.close()

    def test_restart_keeps_resolved_points_and_requeues_the_rest(
        self, tmp_path, serial_results
    ):
        cache_dir, service_dir = tmp_path / "cache", tmp_path / "service"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        with ServiceClient(server.address, TOKEN) as client:
            job = client.submit(spec_points(GRID[:2]))
            run_tcp_worker(  # resolve exactly the first point
                server.address, TOKEN, tmp_path / "w1",
                max_jobs=1, poll_seconds=0.005,
            )
            deadline = time.monotonic() + 30.0
            while (job.status()["done_points"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            job_id = job.job_id
        server.close()

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
            poll_seconds=0.01,
        )
        try:
            status = server.service.status(job_id)
            assert status["done_points"] == 1  # survived the restart
            run_tcp_worker(  # only the unresolved point was re-enqueued
                server.address, TOKEN, tmp_path / "w2",
                max_jobs=1, poll_seconds=0.005,
            )
            job = attach_job(server.address, TOKEN, job_id)
            job.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(job.fetch()) == result_signature(
                serial_results[:2]
            )
            job.client.close()
        finally:
            server.close()


# -- event-driven hops and long-poll lifecycle --------------------------------
#: a poll interval no hop may wait out: every test below that sets it
#: would take at least this long if one did
SLOW_POLL = 30.0


def wait_for_worker(server, worker_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while (worker_id not in server.transport.alive_workers(60.0)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert worker_id in server.transport.alive_workers(60.0)


class TestEventDrivenBroker:
    def test_no_hop_waits_out_its_poll_interval(
        self, tmp_path, serial_results
    ):
        """submit -> claim -> complete -> finalize -> wait -> fetch with
        the scheduler, the worker and the client all at a 30 s poll:
        each hop wakes on its event, so the job runs at compile speed."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=SLOW_POLL,
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, TOKEN, tmp_path / "worker"),
            kwargs={"max_jobs": len(GRID), "poll_seconds": SLOW_POLL,
                    "worker_id": "w-slow-poll"},
        )
        worker.start()
        try:
            wait_for_worker(server, "w-slow-poll")
            with ServiceClient(server.address, TOKEN) as client:
                t0 = time.monotonic()
                job = client.submit(spec_points(GRID))
                status = job.wait(timeout=60.0, poll_seconds=SLOW_POLL)
                results = job.fetch()
                elapsed = time.monotonic() - t0
            assert status["state"] == "done"
            assert elapsed < 2.0
            assert result_signature(results) == result_signature(
                serial_results
            )
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        finally:
            server.close()

    def test_results_are_stored_as_the_posted_bytes(self, tmp_path):
        transport = MemoryTransport()
        with JobService(
            tmp_path, transport, poll_seconds=SLOW_POLL
        ) as service:
            job_id = service.submit([(HELMHOLTZ_DSL, None)])
            message = transport.claim_job(wait=5.0)
            posted = raw_result({
                "id": message["id"], "index": 0, "outcome": 42,
                "events": [], "deltas": {},
            })
            transport.complete(message["id"], posted)
            status = service.wait(job_id, timeout=5.0)
            assert status["state"] == "done"
            assert service.fetch_raw(job_id) == [posted.data]
            assert service.fetch(job_id)[0]["outcome"] == 42

    def test_decoding_results_runs_one_young_gc_pass(self):
        """Every object a result decodes into survives, so a collection
        during the decode would only re-scan it: the collector is paused
        for the batch, one young pass follows, and the collector is left
        as the caller had it."""
        blobs = [
            raw_result({"outcome": [[i, j] for j in range(2000)],
                        "events": [], "deltas": {}}).data
            for i in range(4)
        ] + [None]
        passes = []

        def record(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.callbacks.append(record)
        try:
            payloads = decode_results(blobs)
            assert passes == [0]
            assert gc.isenabled()
            gc.disable()
            try:
                assert decode_results(blobs[:1])[0]["outcome"][5] == [0, 5]
                assert not gc.isenabled()
            finally:
                gc.enable()
            assert passes == [0]
        finally:
            gc.callbacks.remove(record)
        assert [p["outcome"][-1] for p in payloads[:4]] == [
            [i, 1999] for i in range(4)
        ]
        assert payloads[4] is None

    def test_wait_timeout_still_reports_progress(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=SLOW_POLL,
        )
        try:
            with ServiceClient(server.address, TOKEN) as client:
                job = client.submit(spec_points(GRID[:2]))  # no worker
                t0 = time.monotonic()
                with pytest.raises(
                    SystemGenerationError,
                    match=r"still queued \(0/2 points\) after 0\.3s",
                ):
                    job.wait(timeout=0.3, poll_seconds=SLOW_POLL)
                assert time.monotonic() - t0 < 2.0
        finally:
            server.close()

    def test_restart_counts_failed_points_from_stored_bytes(self, tmp_path):
        cache_dir, service_dir = tmp_path / "cache", tmp_path / "service"
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
        )
        try:
            with ServiceClient(server.address, TOKEN) as client:
                job_id = client.submit(
                    [(HELMHOLTZ_DSL, None), ("not CFDlang", None)]
                ).job_id
                run_tcp_worker(server.address, TOKEN, tmp_path / "worker",
                               max_jobs=2, worker_id="w-once")
                status = SweepJob(client, job_id).wait(timeout=60.0)
            assert (status["state"], status["failed_points"]) == ("failed", 1)
        finally:
            server.close()
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(cache_dir), service_dir,
        )
        try:
            with ServiceClient(server.address, TOKEN) as client:
                status = client.status(job_id)
                payloads = client.fetch(job_id)
        finally:
            server.close()
        assert status["state"] == "failed"
        assert (status["done_points"], status["failed_points"]) == (2, 1)
        assert payloads[0]["outcome"].memory.brams == 18
        assert isinstance(payloads[1]["outcome"], Exception)

    def test_v1_hello_gets_the_protocol_mismatch_error(self):
        with BrokerServer("127.0.0.1", 0, TOKEN) as server:
            with socket.create_connection(server.address, timeout=5.0) as s:
                send_frame(s, {"op": "hello", "token": TOKEN,
                               "role": "worker", "worker": "w-v1",
                               "version": 1})
                reply = recv_frame(s, allow_pickle=False)
        assert reply == {
            "ok": False,
            "error": "protocol version mismatch: broker speaks v2, "
                     "client spoke v1",
        }

    def test_close_wakes_a_blocked_claim_and_job_wait(self, tmp_path):
        """close() must not wait out a long poll: a worker blocked in
        claim and a client blocked in job_wait are released at once,
        and the worker returns cleanly."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=SLOW_POLL,
        )
        client = ServiceClient(server.address, TOKEN).connect()
        job = client.submit(spec_points(GRID[:1]))
        # lease the only point here, so the job stays running and the
        # worker below finds an empty queue
        assert server.transport.claim_job()["id"] == f"{job.job_id}-00000"
        outcomes = {}

        def worker():
            return run_tcp_worker(
                server.address, TOKEN, tmp_path / "worker",
                poll_seconds=SLOW_POLL, heartbeat_seconds=SLOW_POLL,
                worker_id="w-blocked",
            )

        def waiter():
            return job.wait(poll_seconds=SLOW_POLL)

        def run(name, body):
            try:
                outcomes[name] = body()
            except Exception as exc:  # noqa: BLE001 — recorded, asserted
                outcomes[name] = exc

        threads = [
            threading.Thread(target=run, args=("worker", worker)),
            threading.Thread(target=run, args=("client", waiter)),
        ]
        for thread in threads:
            thread.start()
        try:
            wait_for_worker(server, "w-blocked")
            time.sleep(0.3)  # both are now inside their long polls
            t0 = time.monotonic()
            server.close()
            assert time.monotonic() - t0 < 1.0
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        finally:
            server.close()
            client.close()
        assert outcomes["worker"] == 0  # a clean exit, no jobs run
        assert isinstance(outcomes["client"], TransportClosedError)


# -- tenant cache namespaces over the wire ------------------------------------
class TestTenantNamespaces:
    def test_tenant_partition_recomputes_anothers_front_end(self, tmp_path):
        """Alice's second run is served from her cache partition; Bob's
        first run of the same program must recompute the front end —
        tenants share the store but never each other's entries."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret", "bob": "bob-secret"},
        )

        def run_as(token, tag):
            with ServiceClient(server.address, token) as client:
                job = client.submit(spec_points(GRID[:1]))
                run_tcp_worker(
                    server.address, TOKEN, tmp_path / tag,
                    max_jobs=1, poll_seconds=0.005,
                )
                job.wait(timeout=300.0, poll_seconds=0.05)
                (payload,) = job.fetch_payloads()
            front_end = [
                cached for stage, _, cached, _ in payload["events"]
                if stage in FRONT_END_STAGES
            ]
            assert front_end
            return all(front_end)

        try:
            assert not run_as("alice-secret", "w1")  # cold: computed
            assert run_as("alice-secret", "w2")  # warm in her namespace
            assert not run_as("bob-secret", "w3")  # his namespace is cold
        finally:
            server.close()

    def test_tenant_token_cannot_drive_the_transport(self, tmp_path):
        """The worker surface is primary-token only: a tenant token must
        not claim another tenant's queued points (leaking its source),
        beat or forge a completion, or unregister a worker.  The old
        remote-supervisor ops are gone for every token."""
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret", "mallory": "mallory-secret"},
        )
        removed_ops = (
            {"op": "put_job", "message": {"id": "x-00000"}},
            {"op": "take_result", "id": "x-00000"},
            {"op": "expired_leases", "lease_seconds": 0.0},
            {"op": "release", "id": "x-00000"},
            {"op": "cancel_pending", "ids": ["x-00000"]},
            {"op": "batch_done", "id": "x-00000"},
            {"op": "mark_batch_done", "batch": "x"},
            {"op": "alive_workers", "stale_seconds": 60.0},
        )
        try:
            with ServiceClient(server.address, "alice-secret") as alice:
                job = alice.submit(spec_points(GRID[:1]))
                pid = f"{job.job_id}-00000"
                mallory = TcpTransport(
                    server.address, "mallory-secret"
                ).connect()
                try:
                    for blocked in (
                        lambda: mallory.claim_job(),
                        lambda: mallory.heartbeat_job(pid),
                        lambda: mallory.complete(pid, {"forged": True}),
                        lambda: mallory.unregister_worker("w1"),
                        *(
                            (lambda r=request: mallory._call(r))
                            for request in removed_ops
                        ),
                    ):
                        with pytest.raises(
                            SystemGenerationError,
                            match="primary broker token",
                        ):
                            blocked()
                finally:
                    mallory.close()
                primary = TcpTransport(server.address, TOKEN).connect()
                try:
                    for request in removed_ops:
                        with pytest.raises(
                            SystemGenerationError, match="unknown op"
                        ):
                            primary._call(request)
                    # alice's point survived every probe, queued for a
                    # real (primary-token) worker, stamped with her
                    # namespace
                    message = primary.claim_job()
                    assert message is not None and message["id"] == pid
                    assert message["namespace"] == "alice"
                finally:
                    primary.close()
                alice.cancel(job.job_id)
        finally:
            server.close()

    def test_worker_hello_with_tenant_token_is_rejected(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
            tenants={"alice": "alice-secret"},
        )
        try:
            with pytest.raises(BrokerAuthError, match="primary"):
                TcpTransport(
                    server.address, "alice-secret",
                    role="worker", worker_id="w-alice",
                ).connect()
        finally:
            server.close()


# -- the executor backend ------------------------------------------------------
class TestServiceExecutor:
    def test_matches_serial_bit_identical(self, tmp_path, serial_results):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, TOKEN, tmp_path / "worker"),
            kwargs={"max_jobs": 2, "poll_seconds": 0.005},
        )
        worker.start()
        try:
            results = compile_many(
                GRID[:2],
                executor=ServiceExecutor(
                    broker=server.address, token=TOKEN, poll_seconds=0.02
                ),
            )
            assert result_signature(results) == result_signature(
                serial_results[:2]
            )
            worker.join(timeout=30.0)
        finally:
            server.close()

    def test_detach_returns_the_durable_handle(self, tmp_path, serial_results):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        try:
            job = compile_many(
                GRID[:1],
                executor=ServiceExecutor(
                    broker=server.address, token=TOKEN, detach=True
                ),
            )
            assert isinstance(job, SweepJob)  # not outcomes: a handle
            run_tcp_worker(
                server.address, TOKEN, tmp_path / "worker",
                max_jobs=1, poll_seconds=0.005,
            )
            # ...and any later connection fetches by id alone
            revived = attach_job(server.address, TOKEN, job.job_id)
            revived.wait(timeout=300.0, poll_seconds=0.05)
            assert result_signature(revived.fetch()) == result_signature(
                serial_results[:1]
            )
            revived.client.close()
        finally:
            server.close()

    def test_fail_fast_stops_starting_points(self, tmp_path):
        """Without return_exceptions the first failed point raises, and
        the broker ends the job there: points not yet started on the
        single worker never run."""
        from repro.errors import CFDlangSyntaxError

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        worker = threading.Thread(
            target=run_tcp_worker,
            args=(server.address, TOKEN, tmp_path / "worker"),
            kwargs={"poll_seconds": 0.005},
        )
        worker.start()
        try:
            points = [("not CFDlang", None)] + [
                (HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(k=k, m=m)))
                for k in (1, 2, 4, 8) for m in (1, 2)
            ]
            with pytest.raises(CFDlangSyntaxError):
                compile_many(points, executor=ServiceExecutor(
                    broker=server.address, token=TOKEN, poll_seconds=0.02
                ))
            (job,) = server.service._jobs.values()
            status = server.service.status(job.job_id)
            assert status["state"] == "failed"
            assert status["done_points"] <= 4 < status["total"]
        finally:
            server.close()
            worker.join(timeout=30.0)
        assert not worker.is_alive()

    def test_bare_service_executor_is_an_actionable_error(self):
        with pytest.raises(SystemGenerationError, match="broker"):
            compile_many(GRID[:1], executor="service")


# -- CLI verbs -----------------------------------------------------------------
class TestServiceCli:
    @pytest.fixture
    def broker(self, tmp_path):
        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", poll_seconds=0.01,
        )
        host, port = server.address
        try:
            yield server, f"{host}:{port}"
        finally:
            server.close()

    def test_submit_status_fetch_cancel_roundtrip(self, broker, tmp_path,
                                                  capsys):
        from repro.flow.cli import main

        server, address = broker
        rc = main(["submit", "--broker", address, "--token", TOKEN,
                   "--app", "helmholtz", "--sweep", "1x1"])
        out = capsys.readouterr().out
        assert rc == 0 and "submitted job" in out
        job_id = out.strip().splitlines()[-1]  # bare id on its own line

        rc = main(["status", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 0
        assert f"job {job_id}: queued, 0/1 points done" in \
            capsys.readouterr().out

        run_tcp_worker(server.address, TOKEN, tmp_path / "worker",
                       max_jobs=1, poll_seconds=0.005)
        rc = main(["fetch", "--broker", address, "--token", TOKEN,
                   job_id, "--wait", "--poll", "0.05", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"job {job_id}" in out and "BRAM" in out

        rc = main(["cancel", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 0
        assert f"job {job_id}: purged" in capsys.readouterr().out
        rc = main(["status", "--broker", address, "--token", TOKEN, job_id])
        assert rc == 2
        assert "no job" in capsys.readouterr().err

    def test_second_submit_is_front_end_cached(self, broker, tmp_path,
                                               capsys):
        """The CI smoke shape: a repeat submit of the same program must
        pass --expect-front-end-cached."""
        from repro.flow.cli import main

        server, address = broker
        for tag in ("w1", "w2"):
            rc = main(["submit", "--broker", address, "--token", TOKEN,
                       "--app", "helmholtz", "--sweep", "1x1"])
            assert rc == 0
            job_id = capsys.readouterr().out.strip().splitlines()[-1]
            run_tcp_worker(server.address, TOKEN, tmp_path / tag,
                           max_jobs=1, poll_seconds=0.005)
            rc = main(["fetch", "--broker", address, "--token", TOKEN,
                       job_id, "--wait", "--poll", "0.05",
                       "--expect-front-end-cached"])
            output = capsys.readouterr()
            assert rc == (1 if tag == "w1" else 0), output.err
        assert "front-end" not in output.err

    def test_busy_submit_exits_3(self, tmp_path, capsys):
        from repro.flow.cli import main

        server = start_service_broker(
            "127.0.0.1", 0, TOKEN, DiskStageCache(tmp_path / "cache"),
            tmp_path / "service", max_jobs=0,  # everything is over-limit
        )
        host, port = server.address
        try:
            rc = main(["submit", "--broker", f"{host}:{port}",
                       "--token", TOKEN, "--app", "helmholtz",
                       "--sweep", "1x1"])
        finally:
            server.close()
        assert rc == 3
        assert "busy:" in capsys.readouterr().err

    def test_broker_status_flag_prints_stats(self, broker, tmp_path, capsys):
        from repro.flow.cli import main

        _, address = broker
        rc = main(["broker", "--listen", address, "--token", TOKEN,
                   "--cache-dir", str(tmp_path / "unused"), "--status"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jobs:" in out and "queue depth:" in out
        assert "workers: 0 alive" in out

    def test_broker_status_without_broker_is_one_line(self, tmp_path,
                                                      capsys):
        import socket

        from repro.flow.cli import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            host, port = s.getsockname()[:2]
        rc = main(["broker", "--listen", f"{host}:{port}", "--token", TOKEN,
                   "--cache-dir", str(tmp_path), "--status"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err and "Traceback" not in err


class TestEphemeralPortBroker:
    def test_listen_zero_prints_the_bound_address(self, tmp_path):
        """`--listen :0` must report the real port on stdout — the line
        scripts (and the CI smoke test) parse to find the broker."""
        import pathlib

        import repro

        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "broker",
             "--listen", "127.0.0.1:0", "--token", TOKEN,
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "broker listening on " in line
            address = line.split("broker listening on ", 1)[1].split()[0]
            host, port = address.split(":")
            assert host == "127.0.0.1" and 0 < int(port) < 65536
            with ServiceClient((host, int(port)), TOKEN) as client:
                assert client.stats()["queue_depth"] == 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestWorkerTempTierCleanup:
    def test_temp_cache_removed_when_broker_vanishes(self, tmp_path,
                                                     monkeypatch):
        """A worker with no --cache-dir mkdtemps its local tier; losing
        the broker (TransportClosedError, not SIGTERM) must still remove
        it — the long-lived fleet would otherwise leak a directory per
        broker restart."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        server = BrokerServer("127.0.0.1", 0, TOKEN)
        threading.Timer(0.5, server.close).start()
        handled = run_tcp_worker(server.address, TOKEN, None,
                                 poll_seconds=0.02)
        assert handled == 0
        assert list(tmp_path.glob("cfdlang-flow-worker-cache-*")) == []
