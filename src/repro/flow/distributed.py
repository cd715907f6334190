"""Distributed sweep execution: the worker loop and the one-shot fleet.

The process-pool backend tops out at one host's cores.  This module
turns ``compile_many`` into a fleet workload on top of the compile
service (:mod:`repro.flow.service`): :class:`DistributedExecutor`
starts an in-process job-service broker over the caller's
:class:`~repro.flow.store.DiskStageCache`, spawns ``cfdlang-flow worker
--connect`` processes, submits the batch as one job, waits for it, and
fetches it.  Workers started by hand on other hosts may join the same
broker over TCP (:mod:`repro.flow.nettransport`).  Results are
bit-identical to the serial backend: workers run the exact same
:class:`~repro.flow.session.Flow` machinery over the exact same specs.

Crash safety is lease-based and belongs to the job service: a claimed
point's lease is kept alive by the worker's :class:`WorkerPulse`, a
point whose lease stops moving is requeued, and a point that keeps
killing its workers ends as a :class:`WorkerCrashError` in its own slot
instead of looping forever.  This module only keeps the fleet alive:
it respawns dead spawned workers within a budget and fails loudly when
points are pending but no worker is.
"""

from __future__ import annotations

import gc
import os
import pathlib
import pickle
import secrets
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Protocol, runtime_checkable

from repro.errors import SystemGenerationError
from repro.flow.store import (
    DEFAULT_LOCK_STALE_SECONDS,
    CacheBackend,
    DiskStageCache,
    FileSingleFlight,
    NamespacedStageCache,
)


class WorkerCrashError(SystemGenerationError):
    """A job's workers died (lease expired) more times than the retry
    budget allows; the job's outcome slot holds this instead of a
    result."""


class TransportClosedError(SystemGenerationError):
    """The transport's far side went away mid-conversation (broker
    connection lost).  Workers treat it as "the sweep is over" and exit
    cleanly."""


class BrokerUnreachableError(SystemGenerationError):
    """No broker answered at the given address within the bounded
    connect-retry budget."""


class RawResult(NamedTuple):
    """A point's result payload as the worker pickled it, once.

    The broker reads only the two fields kept in the clear next to the
    bytes: ``failed`` (the outcome is an exception) for job state, and
    ``deltas`` (cache-counter deltas) for its cache statistics.  It
    stores ``data`` unchanged and serves it unchanged; only the client
    that fetches the job unpickles it.
    """

    data: bytes
    failed: bool
    deltas: Dict[str, int]


def raw_result(payload) -> RawResult:
    """Pickle a result payload dict into a :class:`RawResult`; a
    :class:`RawResult` passes through unchanged."""
    if isinstance(payload, RawResult):
        return payload
    return RawResult(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        isinstance(payload.get("outcome"), BaseException),
        dict(payload.get("deltas") or {}),
    )


def decode_results(blobs) -> List[Optional[Dict[str, object]]]:
    """Unpickle a job's stored result bytes into payload dicts, in order
    (a point that never ran stays None).

    Everything a result unpickles into survives, so a cyclic-GC pass
    that decoding triggers only re-scans it: an 18-point job is about
    30,000 container objects, enough for dozens of young passes and, in
    a client with a sizeable heap, a full collection every two or three
    jobs.  The collector is paused for the batch, and one young pass
    after it scans each new object once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        payloads = [None if data is None else pickle.loads(data)
                    for data in blobs]
    finally:
        if enabled:
            gc.enable()
    if enabled:
        gc.collect(0)
    return payloads


@runtime_checkable
class Transport(Protocol):
    """What the worker loop (:func:`run_worker`) requires of a work queue.

    Messages are primitives-only dicts (JSON-safe); a result is a
    payload dict or the :class:`RawResult` the worker already pickled
    it into.  ``claim_job`` must hand each pending job to exactly one
    concurrent claimer and start its lease, blocking up to ``wait``
    seconds for one to be queued; ``heartbeat_job`` keeps a claimed
    job's lease alive; ``complete`` posts the result and drops the
    lease.
    ``heartbeat_worker`` / ``unregister_worker`` are the fleet-liveness
    side: how a worker proves it exists and says goodbye.  Enqueueing,
    lease expiry and result collection are the broker's business
    (:class:`~repro.flow.nettransport.MemoryTransport`).

    The contract is pinned by the transport-conformance suite in
    ``tests/test_flow_nettransport.py`` — run any new transport against
    it.
    """

    def claim_job(self, wait: float = 0.0) -> Optional[Dict[str, object]]: ...

    def heartbeat_job(self, job_id: str) -> None: ...

    def complete(self, job_id: str, payload) -> None: ...

    def heartbeat_worker(self, worker_id: str) -> None: ...

    def unregister_worker(self, worker_id: str) -> None: ...


# -- worker ------------------------------------------------------------------
def default_worker_id() -> str:
    return f"{socket.gethostname()}-pid{os.getpid()}"


class WorkerPulse:
    """Background thread beating a worker's liveness — and its current
    job's lease — through whatever transport is in use.

    A worker spends its time inside long single-threaded stage
    computations, so the beating has to happen off-thread.  Set
    :attr:`job` when a job starts and clear it when the job ends; every
    interval the pulse calls ``transport.heartbeat_worker`` plus (with a
    job active) ``transport.heartbeat_job``.  Transport hiccups are
    swallowed: a missed beat costs at worst a spurious requeue, which
    the duplicate-result path already tolerates, while an exception here
    would kill liveness for good.
    """

    def __init__(
        self, transport: Transport, worker_id: str,
        interval_seconds: float = 1.0,
    ) -> None:
        self.transport = transport
        self.worker_id = worker_id
        self.interval_seconds = interval_seconds
        self.job: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "WorkerPulse":
        self._beat()
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _beat(self) -> None:
        try:
            self.transport.heartbeat_worker(self.worker_id)
            job = self.job
            if job is not None:
                self.transport.heartbeat_job(job)
        except Exception:  # noqa: BLE001 — see class docstring
            pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._beat()


def run_worker(
    transport: Transport,
    cache,
    *,
    poll_seconds: float = 1.0,
    heartbeat_seconds: float = 1.0,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    worker_id: Optional[str] = None,
) -> int:
    """Pull and run queued jobs until told (or timed) out.

    The body of ``cfdlang-flow worker``, for any transport: claim a job,
    run it through the standard :class:`~repro.flow.session.Flow`
    against ``cache`` (with cross-process :class:`FileSingleFlight`
    dedup on the cache's lock directory, so co-hosted workers never
    duplicate stage work), pickle the result once (:func:`raw_result`),
    post it, repeat.  An idle worker blocks in ``claim_job`` for at
    most ``poll_seconds`` (and at most one heartbeat interval, since
    the claim and the heartbeats share a connection) and is woken the
    moment a point is queued.  A background
    :class:`WorkerPulse` keeps the worker's liveness and the running
    job's lease fresh — if this process dies mid-job, the lease goes
    stale and the broker requeues the job elsewhere.

    :func:`repro.flow.nettransport.run_tcp_worker` builds the TCP
    ``transport`` and the two-tier ``cache`` for a remote worker; tests
    drive a broker-local :class:`~repro.flow.nettransport.
    MemoryTransport` directly.  A transport that reports
    :class:`TransportClosedError` (its broker hung up) ends the loop
    cleanly rather than erroring: a vanished broker means the sweep is
    over.

    ``idle_timeout`` bounds how long the queue may stay empty before the
    worker exits (None = wait forever, the long-lived fleet-member
    mode); ``max_jobs`` exits after that many jobs (handy for tests and
    drain-then-recycle deployments).  Returns the number of jobs
    handled.
    """
    from repro.flow.executors import maybe_crash_for_test, run_job_spec

    worker = worker_id or default_worker_id()
    flight = FileSingleFlight(cache.lock_dir)
    pulse = WorkerPulse(transport, worker, heartbeat_seconds).start()
    handled = 0
    idle_since = time.monotonic()
    try:
        while max_jobs is None or handled < max_jobs:
            wait = min(poll_seconds, heartbeat_seconds)
            if idle_timeout is not None:
                idle_left = idle_timeout - (time.monotonic() - idle_since)
                wait = max(0.0, min(wait, idle_left))
            try:
                message = transport.claim_job(wait=wait)
            except TransportClosedError:
                break  # broker gone: the sweep is over
            if message is None:
                if (idle_timeout is not None
                        and time.monotonic() - idle_since >= idle_timeout):
                    break
                continue
            idle_since = time.monotonic()
            job_id = str(message["id"])
            maybe_crash_for_test(
                str(message["source"]), int(message.get("attempt", 0))
            )
            # a job stamped with a tenant namespace (submitted through
            # the job service by a tenant token) computes into that
            # tenant's partition of the shared cache
            namespace = str(message.get("namespace") or "")
            job_cache = (
                NamespacedStageCache(cache, namespace) if namespace else cache
            )
            pulse.job = job_id
            try:
                outcome, events, deltas = run_job_spec(
                    (message["source"], message["options"]),
                    job_cache,
                    flight,
                    worker,
                )
            finally:
                pulse.job = None
            result = raw_result({
                "id": job_id,
                "index": message.get("index"),
                "attempt": message.get("attempt", 0),
                "worker": worker,
                "outcome": outcome,
                "events": events,
                "deltas": deltas,
            })
            try:
                transport.complete(job_id, result)
            except TransportClosedError:
                break  # broker gone mid-post: its lease machinery mops up
            handled += 1
    finally:
        pulse.stop()
        try:
            transport.unregister_worker(worker)
        except Exception:  # noqa: BLE001 — best-effort on a dying transport
            pass
    return handled


# -- the one-shot fleet --------------------------------------------------------
class DistributedExecutor:
    """Fleet backend: a job-service broker plus spawned workers, per batch.

    ``compile_many(..., executor="distributed", jobs=N)`` starts
    :func:`~repro.flow.service.start_service_broker` over the caller's
    :class:`DiskStageCache`, spawns N ``cfdlang-flow worker --connect``
    processes, and runs the batch as one job through
    :func:`~repro.flow.service.run_batch` — the submit/wait/fetch path
    of :class:`~repro.flow.service.ServiceExecutor`, so outcomes,
    point-ordered traces with ``@worker`` origin tags, cache-counter
    deltas, retries and ``fail_fast`` all behave exactly as they do on a
    standing broker.  The broker is closed when the batch ends.

    By default the broker binds an ephemeral loopback port under a
    freshly minted token that only the spawned workers receive (through
    ``CFDLANG_FLOW_TOKEN``).  ``listen=(host, port)`` binds there
    instead, under ``token`` (or ``CFDLANG_FLOW_TOKEN``), so workers on
    other hosts can join with ``cfdlang-flow worker --connect host:port``;
    with ``spawn_workers=False`` they do all the work.

    Leases and retries (``lease_seconds``, ``max_attempts``) are the job
    service's.  This class keeps the fleet alive: it respawns dead
    spawned workers within a budget, and fails loudly — rather than
    hanging — if points are pending but no worker has been alive for
    ``worker_grace_seconds``.  Job state, the spawned workers' local
    cache tier, and (with ``cache=None``) the broker cache live in a
    temporary directory that ``cleanup()`` removes; a later standing
    broker over the same cache directory never sees this batch's job.

    Externally attached workers choose their own ``--heartbeat``: keep
    it at most a quarter of ``lease_seconds``, or live points get
    requeued spuriously (spawned workers are configured that way).
    """

    name = "distributed"

    def __init__(
        self,
        *,
        spawn_workers: bool = True,
        listen=None,
        token: Optional[str] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.05,
        max_attempts: int = 3,
        worker_grace_seconds: float = DEFAULT_LOCK_STALE_SECONDS,
        worker_idle_timeout: float = 300.0,
    ) -> None:
        self.spawn_workers = spawn_workers
        self.listen = listen
        self.token = token
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.max_attempts = max_attempts
        self.worker_grace_seconds = worker_grace_seconds
        self.worker_idle_timeout = worker_idle_timeout
        self._root: Optional[str] = None
        self._procs: List[subprocess.Popen] = []

    def _scratch(self, name: str) -> pathlib.Path:
        """A path under this executor's temporary root (made on demand)."""
        if self._root is None:
            self._root = tempfile.mkdtemp(prefix="cfdlang-flow-distributed-")
        return pathlib.Path(self._root) / name

    # -- Executor protocol ---------------------------------------------------
    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        if cache is None:
            return DiskStageCache(self._scratch("cache"))
        if not isinstance(cache, DiskStageCache):
            raise TypeError(
                "executor 'distributed' serves artifacts to its workers "
                "from a DiskStageCache; pass cache=DiskStageCache(dir) or "
                f"cache=None for a temporary one, not {type(cache).__name__}"
            )
        return cache

    def run(self, context) -> List[object]:
        from repro.flow.nettransport import resolve_token
        from repro.flow.service import (
            ServiceClient,
            run_batch,
            start_service_broker,
        )

        if not context.jobs:
            return []
        if self.listen:
            host, port = self.listen
            token = resolve_token(self.token)  # None: the broker refuses
        else:
            host, port, token = "127.0.0.1", 0, secrets.token_hex(16)
        server = start_service_broker(
            host, port, token, context.cache, self._scratch("service"),
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            poll_seconds=self.poll_seconds,
        )
        try:
            if self.spawn_workers:
                for _ in range(min(context.workers, len(context.jobs))):
                    self._spawn_worker(server.address, token)
            with ServiceClient(server.address, token) as client:
                return run_batch(
                    client, context, poll_seconds=self.poll_seconds,
                    watch=self._fleet_watch(server, token),
                )
        finally:
            self._reap_workers()
            server.close()

    def cleanup(self) -> None:
        self._reap_workers()
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    # -- fleet ---------------------------------------------------------------
    def _fleet_watch(self, server, token: str):
        """The check :func:`run_batch` runs after each wait that finds
        the job unfinished: respawn dead spawned workers, and raise if no worker
        has been alive for the grace window while points are pending."""
        # tolerate as many worker deaths as the per-point retry budget
        # allows across the whole batch, with a floor so a single flaky
        # worker can't exhaust it instantly
        budget = max(2 * len(self._procs), self.max_attempts) + 2
        progress = (None, time.monotonic())

        def watch(status) -> None:
            nonlocal budget, progress
            for proc in [p for p in self._procs if p.poll() is not None]:
                self._procs.remove(proc)
                if budget > 0:
                    budget -= 1
                    self._spawn_worker(server.address, token)
            now = time.monotonic()
            mark = (status["done_points"], status["retries"])
            if mark != progress[0]:
                progress = (mark, now)
                return
            if (
                now - progress[1] >= self.worker_grace_seconds
                and not any(p.poll() is None for p in self._procs)
                and not server.transport.alive_workers(
                    self.worker_grace_seconds
                )
            ):
                pending = status["total"] - status["done_points"]
                raise SystemGenerationError(
                    f"distributed sweep stalled: {pending} point(s) pending "
                    "but no worker has been alive for "
                    f"{self.worker_grace_seconds:.1f}s — attach workers with "
                    "'cfdlang-flow worker --connect HOST:PORT' or use "
                    "spawn_workers=True"
                )

        return watch

    def _spawn_worker(self, address, token: str) -> None:
        from repro.flow.nettransport import TOKEN_ENV

        # the token travels by environment, never argv; workers must
        # import this package even when it is not installed (tests run
        # from a source tree via PYTHONPATH)
        env = dict(os.environ, **{TOKEN_ENV: token})
        pkg_root = str(pathlib.Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        # a lease only stays alive if it is touched faster than the
        # broker expires it: heartbeat at a quarter of the lease window
        heartbeat = min(1.0, max(0.05, self.lease_seconds / 4.0))
        host, port = address
        self._procs.append(subprocess.Popen(
            [
                sys.executable, "-m", "repro.flow.cli", "worker",
                "--connect", f"{host}:{port}",
                # one local tier shared by this executor's spawns (lock
                # files dedup them) under the root cleanup() removes; a
                # worker-side mkdtemp would leak when reaping SIGTERMs it
                "--cache-dir", str(self._scratch("worker-cache")),
                "--idle-timeout", str(self.worker_idle_timeout),
                "--poll", str(self.poll_seconds),
                "--heartbeat", str(heartbeat),
            ],
            stdout=subprocess.DEVNULL,
            env=env,
        ))

    def _reap_workers(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self._procs = []
