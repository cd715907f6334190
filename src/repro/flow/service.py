"""Compile-as-a-service: durable jobs on a broker.

This module makes the broker a *service*, and it is the only broker
path: a standing ``cfdlang-flow broker`` runs it, and so does the
one-shot broker of ``--executor distributed``.  A client submits an
entire DSE grid in one RPC and gets back a durable job id; the broker
owns the job from there — queued → running → done / failed / cancelled
— persisting the spec and every per-point result under a service
directory, so the client can disconnect immediately and any later
connection (the same host or another) can ``poll``/``fetch``/
``cancel`` by id.  A broker restarted over the same service directory
recovers its jobs and re-enqueues the unfinished points; fetched
results are bit-identical to the serial backend because workers run the
exact same specs through the exact same :class:`~repro.flow.session.
Flow` machinery.

Pieces, broker side:

* :class:`JobService` — the job registry and scheduler.  ``submit``
  persists a spec and enqueues one message per design point on the
  broker's :class:`~repro.flow.nettransport.MemoryTransport`; a background
  scheduler thread, woken by each posted result, stores it, finalizes
  the job when every point is resolved, and heals expired leases with
  bounded retries (a point whose workers keep dying resolves to
  :class:`~repro.flow.distributed.WorkerCrashError`).  Results stay the
  bytes the worker pickled: the broker writes them to disk and serves
  them without decoding them.  Admission control bounds the queue:
  over ``max_jobs`` unfinished jobs (or ``max_tenant_jobs`` for one
  token) a submit is refused with :class:`BrokerBusyError` instead of
  growing the backlog — clients degrade gracefully, they never stall.
  Retention keeps the standing broker bounded too: a terminal job is
  purged ``terminal_ttl_seconds`` after it finishes (CLI
  ``--retention-hours``), so unfetched results cannot accumulate
  disk and recovery time forever.
* Multi-tenancy — the broker's extra ``--tenant NAME=TOKEN`` secrets
  each map to a cache namespace (:func:`~repro.flow.store.
  namespaced_key`): a tenant's jobs are computed into, and served from,
  its own partition of the shared store, and its jobs cannot be fetched
  or cancelled with another tenant's token.  Tenant tokens are confined
  to this service surface (plus their cache namespace): the worker ops
  — claiming queued points, posting completions — require the primary
  token (see :data:`~repro.flow.nettransport.TENANT_OPS`).

Pieces, client side:

* :class:`ServiceClient` — the RPC proxy (submit / status / wait /
  fetch / cancel / stats) over the same authenticated framed-socket
  protocol workers use.  ``wait`` is a long poll: the broker replies the
  moment the job ends.  ``fetch`` unpickles the stored result bytes —
  the only place a result is decoded.
* :class:`SweepJob` — the durable handle: ``status()``, ``wait()``,
  ``fetch()``, ``cancel()``.  Constructable from nothing but an address
  and a job id, which is the whole point.
* :class:`ServiceExecutor` — ``compile_many(..., executor="service")``:
  submits the batch as one job and waits for it to end
  (:func:`run_batch`, shared with the distributed executor), or with
  ``detach=True`` returns the :class:`SweepJob` immediately.

Service directory layout (all writes atomic)::

    service/
      jobs/     <job-id>.json        immutable spec: points, tenant, limits
      results/  <job-id>/<idx>.pkl   per-point payloads, the bytes workers post
      state/    <job-id>.json        terminal state marker

A job id sorts by submit time (``j<hex-ms><nonce>``), so the transport's
sorted-id claim order drains jobs first-come-first-served.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from repro.errors import SystemGenerationError
from repro.flow.distributed import (
    WorkerCrashError,
    decode_results,
    raw_result,
)
from repro.flow.nettransport import (
    BrokerServer,
    MemoryTransport,
    TcpTransport,
    batch_of,
    wait_slice,
)
from repro.flow.stages import source_fingerprint
from repro.flow.store import atomic_write_bytes

#: job lifecycle states; the last three are terminal
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class BrokerBusyError(SystemGenerationError):
    """The broker refused a submit: its queue (or this tenant's
    in-flight allowance) is full.  Back off and resubmit later."""


class UnknownJobError(SystemGenerationError):
    """No job with that id (or not one this tenant may touch)."""


def mint_job_id() -> str:
    """A fresh job id that sorts by submit time.

    Milliseconds since the epoch in fixed-width hex, plus a nonce:
    transports claim pending points in sorted-id order, so time-sortable
    ids make the whole service drain first-come-first-served.  No ``-``
    may appear — point ids are ``<job>-<idx>`` and
    :func:`~repro.flow.nettransport.batch_of` splits on the last dash.
    """
    return f"j{int(time.time() * 1000):012x}{uuid.uuid4().hex[:8]}"


class _JobRecord:
    """Broker-side in-memory state of one job (the durable truth lives
    in the service directory; this is the scheduler's working copy)."""

    __slots__ = (
        "job_id", "tenant", "points", "state", "created", "finished",
        "resolved", "failed_points", "attempts", "fail_fast",
    )

    def __init__(
        self, job_id, tenant, points, state, created, fail_fast=False,
    ) -> None:
        self.job_id = str(job_id)
        self.tenant = str(tenant)
        #: end the job at its first failed point (see JobService.submit)
        self.fail_fast = bool(fail_fast)
        #: [(source text, options spec or None), ...] in point order
        self.points = points
        self.state = state
        self.created = float(created)
        #: wall-clock time the job went terminal (retention clock);
        #: None while unfinished
        self.finished: Optional[float] = None
        #: point indexes whose result payload is persisted
        self.resolved: set = set()
        self.failed_points = 0
        #: point index -> attempts burned (dead workers)
        self.attempts: Dict[int, int] = {}

    def point_id(self, index: int) -> str:
        return f"{self.job_id}-{index:05d}"

    def unresolved(self) -> List[int]:
        return [i for i in range(len(self.points)) if i not in self.resolved]


class JobService:
    """Durable job lifecycle for a standing broker.

    Owns a service directory and the
    :class:`~repro.flow.nettransport.MemoryTransport` the broker's
    workers drain.  ``start()`` launches the
    scheduler thread (result collection, lease healing, finalization)
    and ``stop()`` wakes and joins it, and releases every blocked
    :meth:`wait`.  The scheduler sleeps until a result is posted;
    ``poll_seconds`` only sets how often it heals expired leases and
    purges expired jobs.  :class:`~repro.flow.nettransport.
    BrokerServer` calls ``stop()`` from its own ``close()`` when handed
    a service.  Construction recovers state from the service directory:
    jobs already terminal stay terminal, everything else has its
    unfinished points re-enqueued — the restart-durability contract.

    All public methods are thread-safe (the broker serves each
    connection on its own thread) and keyed by tenant: a job submitted
    with one token is invisible to every other token.  The empty tenant
    is the primary token's namespace.
    """

    def __init__(
        self,
        service_dir,
        transport: MemoryTransport,
        cache=None,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        max_jobs: int = 16,
        max_tenant_jobs: int = 8,
        poll_seconds: float = 0.05,
        terminal_ttl_seconds: float = 86400.0,
    ) -> None:
        self.service_dir = pathlib.Path(service_dir)
        self.jobs_dir = self.service_dir / "jobs"
        self.results_dir = self.service_dir / "results"
        self.state_dir = self.service_dir / "state"
        for sub in (self.jobs_dir, self.results_dir, self.state_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self.transport = transport
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.max_jobs = max_jobs
        self.max_tenant_jobs = max_tenant_jobs
        self.poll_seconds = poll_seconds
        #: a standing broker must not hoard finished jobs forever: a
        #: terminal job older than this is purged (spec, results, and
        #: the in-memory record) by the scheduler, like the transport's
        #: tombstone TTL.  Clients get a full window to fetch.
        self.terminal_ttl_seconds = terminal_ttl_seconds
        self._lock = threading.Lock()
        #: notified whenever a job turns terminal (and on stop)
        self._job_ended = threading.Condition(self._lock)
        self._jobs: Dict[str, _JobRecord] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._recover()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "JobService":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            self._job_ended.notify_all()
        self.transport.wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- durability ----------------------------------------------------------
    def _spec_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / (job_id + ".json")

    def _state_path(self, job_id: str) -> pathlib.Path:
        return self.state_dir / (job_id + ".json")

    def _result_path(self, job_id: str, index: int) -> pathlib.Path:
        return self.results_dir / job_id / f"{index:05d}.pkl"

    def _persist_state(self, job: _JobRecord) -> None:
        atomic_write_bytes(
            self._state_path(job.job_id),
            json.dumps({"state": job.state}).encode(),
        )

    def _recover(self) -> None:
        """Rebuild the job table from the service directory.

        Results already on disk stay resolved; everything else in a
        non-terminal job is re-enqueued from the persisted spec — the
        transport behind a restarted broker starts empty, so the spec
        files are the only queue that survives.
        """
        for spec_path in sorted(self.jobs_dir.glob("*.json")):
            try:
                spec = json.loads(spec_path.read_bytes())
            except (OSError, ValueError):
                continue  # damaged spec: unrecoverable, skip loudly-absent
            job = _JobRecord(
                spec["id"], spec.get("tenant", ""),
                [tuple(p) for p in spec["points"]],
                "queued", spec.get("created", 0.0),
                spec.get("fail_fast", False),
            )
            try:
                state = json.loads(
                    self._state_path(job.job_id).read_bytes()
                )["state"]
            except (OSError, ValueError, KeyError):
                state = None
            for path in sorted(
                self.results_dir.glob(job.job_id + "/*.pkl")
            ):
                try:
                    index = int(path.stem)
                except ValueError:
                    continue
                job.resolved.add(index)
                payload = self._load_result(job.job_id, index)
                if payload is not None and isinstance(
                    payload.get("outcome"), BaseException
                ):
                    job.failed_points += 1
            if state in TERMINAL_STATES:
                job.state = state
                # the original finish time is gone with the old broker;
                # restarting the retention clock keeps an unfetched job
                # available for a full window after the restart
                job.finished = time.time()
            else:
                job.state = "running" if job.resolved else "queued"
                for index in job.unresolved():
                    self._enqueue_point(job, index, attempt=0)
            self._jobs[job.job_id] = job

    def _enqueue_point(self, job: _JobRecord, index: int, attempt: int) -> None:
        if job.state in TERMINAL_STATES:
            # a cancel raced us; its tombstone would drop the result
            # anyway, so don't burn a worker on a dead job's point
            return
        source, options_spec = job.points[index]
        message = {
            "id": job.point_id(index),
            "index": index,
            "source": source,
            "options": options_spec,
            "attempt": attempt,
        }
        if job.tenant:
            # workers compute this point inside the submitting tenant's
            # cache namespace (see run_worker)
            message["namespace"] = job.tenant
        self.transport.put_job(message)

    def _load_result(self, job_id: str, index: int):
        data = self._read_result(job_id, index)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except (pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def _read_result(self, job_id: str, index: int) -> Optional[bytes]:
        try:
            return self._result_path(job_id, index).read_bytes()
        except OSError:
            return None

    # -- client API (also reachable as RPCs via handle_rpc) ------------------
    def submit(self, points, tenant: str = "", fail_fast: bool = False) -> str:
        """Persist and enqueue a job; returns its durable id.

        ``points`` is a list of ``(source text, options spec or None)``
        pairs — the same primitives-only shape worker messages use.
        With ``fail_fast`` (how ``compile_many`` runs without
        ``return_exceptions``) the first failed point ends the job as
        ``failed``: no further point starts, and slots not yet resolved
        stay None.  The scheduler does this in the same step that
        records the failure, so no client poll can race it.  Raises
        :class:`BrokerBusyError` when admission limits are hit.
        """
        tenant = str(tenant)
        points = [
            (str(source), None if spec is None else dict(spec))
            for source, spec in points
        ]
        with self._lock:
            active = [
                j for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            ]
            if len(active) >= self.max_jobs:
                raise BrokerBusyError(
                    f"broker is at its limit of {self.max_jobs} unfinished "
                    "job(s); fetch or cancel completed work, or resubmit "
                    "later"
                )
            if sum(1 for j in active if j.tenant == tenant) >= \
                    self.max_tenant_jobs:
                raise BrokerBusyError(
                    f"this token already has {self.max_tenant_jobs} "
                    "unfinished job(s) in flight; fetch or cancel one, or "
                    "resubmit later"
                )
            job = _JobRecord(
                mint_job_id(), tenant, points, "queued", time.time(),
                fail_fast,
            )
            atomic_write_bytes(
                self._spec_path(job.job_id),
                json.dumps({
                    "id": job.job_id,
                    "tenant": job.tenant,
                    "points": [list(p) for p in job.points],
                    "created": job.created,
                    "fail_fast": job.fail_fast,
                }).encode(),
            )
            self._jobs[job.job_id] = job
            if not points:
                job.state = "done"
                job.finished = time.time()
                self._persist_state(job)
                return job.job_id
            # enqueue before releasing the lock: a cancel racing this
            # submit must either see no job yet or find every point in
            # the queue, never a half-enqueued job whose remaining
            # points it cannot drop (put_job is cheap — the broker's
            # transport is in-memory)
            for index in range(len(points)):
                self._enqueue_point(job, index, attempt=0)
        return job.job_id

    def _get(self, job_id: str, tenant: str) -> _JobRecord:
        job = self._jobs.get(str(job_id))
        if job is None or job.tenant != str(tenant):
            # a wrong-tenant probe reads exactly like a nonexistent job:
            # ids must not leak across tokens
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def status(self, job_id: str, tenant: str = "") -> Dict[str, object]:
        """Per-point progress counters and lifecycle state."""
        with self._lock:
            return self._status(self._get(job_id, tenant))

    @staticmethod
    def _status(job: _JobRecord) -> Dict[str, object]:
        return {
            "job": job.job_id,
            "state": job.state,
            "total": len(job.points),
            "done_points": len(job.resolved),
            "failed_points": job.failed_points,
            "retries": sum(job.attempts.values()),
            "created": job.created,
        }

    def wait(
        self, job_id: str, tenant: str = "", timeout: float = 0.0,
    ) -> Dict[str, object]:
        """Block until the job is terminal, ``timeout`` seconds pass, or
        the service stops; returns the job's status then."""
        deadline = time.monotonic() + timeout
        with self._lock:
            job = self._get(job_id, tenant)
            while job.state not in TERMINAL_STATES and not self._stop.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._job_ended.wait(remaining)
            return self._status(job)

    def fetch_raw(self, job_id: str, tenant: str = "") -> List[Optional[bytes]]:
        """The per-point result bytes of a terminal job, point order,
        exactly as the workers pickled them.

        Slots a cancelled job never ran hold None.  Non-destructive: a
        fetched job stays fetchable until cancelled (which purges it).
        """
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state not in TERMINAL_STATES:
                raise SystemGenerationError(
                    f"job {job.job_id} is {job.state}: poll status until it "
                    "is done/failed/cancelled before fetching"
                )
            return [
                self._read_result(job.job_id, i) if i in job.resolved
                else None
                for i in range(len(job.points))
            ]

    def fetch(self, job_id: str, tenant: str = "") -> List[object]:
        """:meth:`fetch_raw`, decoded to the per-point payload dicts."""
        return decode_results(self.fetch_raw(job_id, tenant))

    def cancel(self, job_id: str, tenant: str = "") -> Dict[str, object]:
        """Cancel a job: unclaimed points are dropped, running ones are
        discarded when they post, and the job becomes terminal.  A
        second cancel purges the (already terminal) job's files."""
        with self._lock:
            job = self._get(job_id, tenant)
            if job.state in TERMINAL_STATES:
                self._purge(job)
                return {"job": job.job_id, "state": job.state,
                        "purged": True}
            unresolved = self._end_early(job, "cancelled")
        self._drop_points(job, unresolved)
        return {"job": job.job_id, "state": "cancelled", "purged": False}

    def _end_early(self, job: _JobRecord, state: str) -> set:
        """Make an unfinished job terminal now (caller holds the lock);
        returns the ids of its unresolved points for
        :meth:`_drop_points`."""
        job.state = state
        job.finished = time.time()
        self._persist_state(job)
        self._job_ended.notify_all()
        return {job.point_id(i) for i in job.unresolved()}

    def _drop_points(self, job: _JobRecord, point_ids: set) -> None:
        # a tombstone drops in-flight straggler results; cancel_pending
        # drops the never-claimed
        self.transport.mark_batch_done(job.job_id)
        self.transport.cancel_pending(point_ids)
        for pid in point_ids:
            self.transport.release(pid)

    def _purge(self, job: _JobRecord) -> None:
        for index in range(len(job.points)):
            try:
                self._result_path(job.job_id, index).unlink()
            except OSError:
                pass
        try:
            (self.results_dir / job.job_id).rmdir()
        except OSError:
            pass
        for path in (self._spec_path(job.job_id),
                     self._state_path(job.job_id)):
            try:
                path.unlink()
            except OSError:
                pass
        self._jobs.pop(job.job_id, None)

    def stats(self) -> Dict[str, object]:
        """Queue depth, jobs by state, per-tenant activity."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            depth = 0
            tenants: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] += 1
                if job.state not in TERMINAL_STATES:
                    depth += len(job.points) - len(job.resolved)
                    name = job.tenant or "(default)"
                    tenants[name] = tenants.get(name, 0) + 1
            return {
                "jobs": by_state,
                "queue_depth": depth,
                "active_tenants": tenants,
                "limits": {
                    "max_jobs": self.max_jobs,
                    "max_tenant_jobs": self.max_tenant_jobs,
                    "terminal_ttl_seconds": self.terminal_ttl_seconds,
                },
            }

    # -- RPC bridge ----------------------------------------------------------
    def handle_rpc(self, op: str, request, tenant: str):
        """One service request from the broker's dispatch loop ->
        ``(reply, pickled?)``.  Errors travel as ``ok: False`` replies —
        a bad request must never tear the connection down — and a
        refused submit is additionally flagged ``busy`` so clients can
        distinguish backpressure from failure."""
        try:
            if op == "submit":
                raw_points = request.get("points")
                if not isinstance(raw_points, (list, tuple)) or not all(
                    isinstance(p, (list, tuple)) and len(p) == 2
                    for p in raw_points
                ):
                    return {
                        "ok": False,
                        "error": "malformed submit: 'points' must be a "
                                 "list of [source, options] pairs",
                    }, False
                points = [(p[0], p[1]) for p in raw_points]
                job_id = self.submit(
                    points, tenant, fail_fast=bool(request.get("fail_fast"))
                )
                return {"ok": True, "job": job_id}, False
            if op == "job_status":
                return {
                    "ok": True,
                    "status": self.status(str(request.get("job")), tenant),
                }, False
            if op == "job_wait":
                return {
                    "ok": True,
                    "status": self.wait(
                        str(request.get("job")), tenant,
                        wait_slice(request.get("timeout")),
                    ),
                }, False
            if op == "job_fetch":
                payloads = self.fetch_raw(str(request.get("job")), tenant)
                return {"ok": True, "payloads": payloads}, True
            if op == "job_cancel":
                return {
                    "ok": True,
                    **self.cancel(str(request.get("job")), tenant),
                }, False
        except BrokerBusyError as exc:
            return {"ok": False, "busy": True, "error": str(exc)}, False
        except SystemGenerationError as exc:
            return {"ok": False, "error": str(exc)}, False
        except (TypeError, ValueError, KeyError) as exc:
            # a structurally-bad request (options spec that is not a
            # mapping, say) is the client's problem, reported in-band
            return {
                "ok": False,
                "error": f"malformed {op} request: {exc!r}",
            }, False
        return {"ok": False, "error": f"unknown service op {op!r}"}, False

    # -- scheduler -----------------------------------------------------------
    def _run(self) -> None:
        housekeeping_due = time.monotonic()
        while not self._stop.is_set():
            results = self.transport.take_results(
                max(0.0, housekeeping_due - time.monotonic()),
                self._stop.is_set,
            )
            housekeeping = time.monotonic() >= housekeeping_due
            if housekeeping:
                housekeeping_due = time.monotonic() + self.poll_seconds
            try:
                self._tick(results, housekeeping)
            except Exception:  # noqa: BLE001 — the scheduler must survive
                # transient transport trouble; jobs heal on the next tick
                pass

    def _tick(self, results, housekeeping: bool = True) -> None:
        """Store posted results and finalize the jobs they finish; with
        ``housekeeping``, also heal expired leases and purge expired
        terminal jobs."""
        with self._lock:
            live = {
                j.job_id: j for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            }
        for pid in sorted(results):
            job = live.get(batch_of(pid))
            if job is None:
                continue  # a finished, cancelled or purged job's straggler
            try:
                index = int(pid.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if 0 <= index < len(job.points):
                self._resolve(job, index, results[pid])
        if housekeeping:
            self._heal_leases(list(live.values()))
        for job in live.values():
            self._maybe_finalize(job)
        if housekeeping:
            self._expire_terminal()

    def _expire_terminal(self) -> None:
        """Retention: purge terminal jobs whose fetch window has passed,
        so a standing broker's disk and recovery time stay bounded."""
        now = time.time()
        with self._lock:
            expired = [
                j for j in self._jobs.values()
                if j.state in TERMINAL_STATES and j.finished is not None
                and now - j.finished >= self.terminal_ttl_seconds
            ]
            for job in expired:
                self._purge(job)

    def _resolve(self, job: _JobRecord, index: int, payload) -> None:
        """Record one point's result (a payload dict or the worker's
        :class:`~repro.flow.distributed.RawResult`), storing its bytes
        unchanged."""
        with self._lock:
            if index in job.resolved or job.state in TERMINAL_STATES:
                return  # duplicate post, or a cancel/purge won the race
        result = raw_result(payload)
        path = self._result_path(job.job_id, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, result.data)
        with self._lock:
            if index in job.resolved:
                return  # duplicate post of a re-leased point
            if job.state in TERMINAL_STATES:
                # cancelled (maybe purged) while the payload was being
                # written: take the file back out rather than leaving an
                # orphan under results/
                try:
                    path.unlink()
                except OSError:
                    pass
                try:
                    path.parent.rmdir()
                except OSError:
                    pass  # other results remain; purge removes them
                return
            job.resolved.add(index)
            dropped = None
            if result.failed:
                job.failed_points += 1
                if job.fail_fast:
                    dropped = self._end_early(job, "failed")
            if job.state == "queued":
                job.state = "running"
        if result.deltas and self.cache is not None:
            self.cache.merge_stats(result.deltas)
        if dropped is not None:
            self._drop_points(job, dropped)

    def _heal_leases(self, live: List[_JobRecord]) -> None:
        by_pid: Dict[str, Tuple[_JobRecord, int]] = {}
        for job in live:
            for index in job.unresolved():
                by_pid[job.point_id(index)] = (job, index)
        if not by_pid:
            return
        for pid in self.transport.expired_leases(self.lease_seconds):
            hit = by_pid.get(pid)
            if hit is None:
                continue  # a finished job's straggler lease
            self._burn_attempt(*hit)

    def _burn_attempt(self, job: _JobRecord, index: int) -> None:
        """A point's worker died: requeue within the retry budget, else
        fail the point."""
        with self._lock:
            if job.state in TERMINAL_STATES:
                return  # a cancel raced the scheduler: never requeue
            attempts = job.attempts.get(index, 0) + 1
            job.attempts[index] = attempts
        self.transport.release(job.point_id(index))
        if attempts >= self.max_attempts:
            self._resolve(job, index, {
                "id": job.point_id(index),
                "index": index,
                "outcome": WorkerCrashError(
                    f"point {index} of job {job.job_id} lost its worker "
                    f"{self.max_attempts} times (lease expired after "
                    f"{self.lease_seconds:.1f}s each); giving up"
                ),
                "events": [],
                "deltas": {},
            })
        else:
            self._enqueue_point(job, index, attempt=attempts)

    def _maybe_finalize(self, job: _JobRecord) -> None:
        with self._lock:
            if job.state in TERMINAL_STATES:
                return
            if len(job.resolved) < len(job.points):
                return
            job.state = "failed" if job.failed_points else "done"
            job.finished = time.time()
            self._persist_state(job)
            self._job_ended.notify_all()
        # close the batch out: a straggler worker double-completing a
        # re-leased point must not strand a result in the queue state
        self.transport.mark_batch_done(job.job_id)


def start_service_broker(
    host: str,
    port: int,
    token: str,
    cache,
    service_dir=None,
    *,
    tenants: Optional[Dict[str, str]] = None,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    max_jobs: int = 16,
    max_tenant_jobs: int = 8,
    poll_seconds: float = 0.05,
    terminal_ttl_seconds: float = 86400.0,
):
    """A listening :class:`~repro.flow.nettransport.BrokerServer` with a
    running :class:`JobService` attached — the body of ``cfdlang-flow
    broker``.

    ``cache`` is the broker's :class:`~repro.flow.store.DiskStageCache`;
    ``service_dir`` defaults to ``<cache-dir>/.service`` (outside the
    ``??/`` entry fan-out, so cache gc/clear/verify never touch job
    state).  Recovery happens here: jobs persisted by a previous broker
    over the same directory are re-enqueued before the first connection
    lands.  ``server.close()`` stops the service too.
    """
    if service_dir is None:
        service_dir = pathlib.Path(cache.cache_dir) / ".service"
    transport = MemoryTransport()
    service = JobService(
        service_dir,
        transport,
        cache,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        max_jobs=max_jobs,
        max_tenant_jobs=max_tenant_jobs,
        poll_seconds=poll_seconds,
        terminal_ttl_seconds=terminal_ttl_seconds,
    )
    server = BrokerServer(
        host, port, token, cache,
        transport=transport, service=service, tenants=tenants,
    )
    service.start()
    return server


# -- client side --------------------------------------------------------------
class ServiceClient:
    """RPC proxy for the broker's job service.

    One authenticated connection, one request/reply round trip per
    call — the same framed protocol workers speak, so a service client
    needs nothing but the broker address and a token.  Refused submits
    raise :class:`BrokerBusyError`; other ``ok: False`` replies raise
    :class:`~repro.errors.SystemGenerationError` with the broker's
    message.
    """

    def __init__(
        self,
        broker,
        token: Optional[str] = None,
        *,
        connect_retries: int = 20,
        retry_delay: float = 0.25,
    ) -> None:
        self.transport = TcpTransport(
            broker,
            token,
            connect_retries=connect_retries,
            retry_delay=retry_delay,
        )

    def connect(self) -> "ServiceClient":
        self.transport.connect()
        return self

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _rpc(self, request: Dict[str, object], *, pickled: bool = False):
        reply = self.transport._call(request, pickled=pickled, raw=True)
        if not isinstance(reply, dict) or not reply.get("ok"):
            error = (reply or {}).get("error", f"{request.get('op')} failed")
            if (reply or {}).get("busy"):
                raise BrokerBusyError(str(error))
            raise SystemGenerationError(str(error))
        return reply

    def submit(self, points, fail_fast: bool = False) -> "SweepJob":
        """Submit ``[(source text, options spec or None), ...]``; returns
        the durable :class:`SweepJob` handle.  ``fail_fast``: see
        :meth:`JobService.submit`."""
        reply = self._rpc({
            "op": "submit",
            "points": [[source, spec] for source, spec in points],
            "fail_fast": bool(fail_fast),
        })
        return SweepJob(self, str(reply["job"]))

    def status(self, job_id: str) -> Dict[str, object]:
        return self._rpc({"op": "job_status", "job": job_id})["status"]

    def wait(self, job_id: str, timeout: float) -> Dict[str, object]:
        """The job's status once it is terminal, or after ``timeout``
        seconds (the broker caps one wait at
        :data:`~repro.flow.nettransport.LONG_POLL_SECONDS`)."""
        return self._rpc(
            {"op": "job_wait", "job": job_id, "timeout": timeout}
        )["status"]

    def fetch(self, job_id: str) -> List[object]:
        """The per-point payload dicts, unpickled from the bytes the
        workers posted (None for a point that never ran)."""
        return decode_results(
            self._rpc({"op": "job_fetch", "job": job_id})["payloads"]
        )

    def cancel(self, job_id: str) -> Dict[str, object]:
        reply = self._rpc({"op": "job_cancel", "job": job_id})
        return {k: v for k, v in reply.items() if k != "ok"}

    def stats(self) -> Dict[str, object]:
        return self._rpc({"op": "service_stats"})["stats"]


class SweepJob:
    """Durable handle on a submitted job.

    Carries nothing but a client and the job id — reconstruct one after
    a disconnect (or on a different host) with
    ``SweepJob(ServiceClient(addr, token).connect(), job_id)``, or via
    :func:`attach_job`.
    """

    def __init__(self, client: ServiceClient, job_id: str) -> None:
        self.client = client
        self.job_id = str(job_id)

    def status(self) -> Dict[str, object]:
        return self.client.status(self.job_id)

    def done(self) -> bool:
        return self.status()["state"] in TERMINAL_STATES

    def wait(
        self,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.2,
    ) -> Dict[str, object]:
        """Block until the job is terminal; returns the final status.

        Each ``job_wait`` long poll lasts at most ``poll_seconds`` and
        returns the moment the job ends.  Raises
        :class:`~repro.errors.SystemGenerationError` if ``timeout``
        (seconds) elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = poll_seconds
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            status = self.client.wait(self.job_id, wait)
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise SystemGenerationError(
                    f"job {self.job_id} still {status['state']} "
                    f"({status['done_points']}/{status['total']} points) "
                    f"after {timeout:.1f}s"
                )

    def fetch_payloads(self) -> List[object]:
        """The raw per-point result payloads (outcome/events/deltas)."""
        return self.client.fetch(self.job_id)

    def fetch(self) -> List[object]:
        """Per-point outcomes in point order: each slot a
        :class:`~repro.flow.session.FlowResult`, the exception the
        point raised, or None for a point a cancel kept from running."""
        return [
            None if payload is None else payload.get("outcome")
            for payload in self.fetch_payloads()
        ]

    def cancel(self) -> Dict[str, object]:
        return self.client.cancel(self.job_id)


def attach_job(broker, token: Optional[str], job_id: str) -> SweepJob:
    """Reconnect to a standing broker and hold an existing job by id."""
    return SweepJob(ServiceClient(broker, token).connect(), job_id)


# -- executor backend ---------------------------------------------------------
def _batch_points(jobs) -> List[Tuple[str, Optional[Dict[str, object]]]]:
    """Parsed ``compile_many`` jobs -> the primitives-only submit shape."""
    return [
        (
            source_fingerprint(source),
            None if options is None else options.to_spec(),
        )
        for source, options in jobs
    ]


def run_batch(client: ServiceClient, context, *, poll_seconds: float,
              watch=None) -> List[object]:
    """Run an executor batch as one job: submit, wait, fetch, unpack.

    The outcome path of both :class:`ServiceExecutor` and
    :class:`~repro.flow.distributed.DistributedExecutor`.  Returns the
    per-point outcomes in point order (None for a point the job never
    ran) and merges the points' trace events into ``context.trace`` in
    point order.  ``context.fail_fast`` travels with the submit, so the
    broker ends the job at its first failed point.  Worker cache-counter
    deltas are merged by the broker into its own cache.  The wait is a
    series of ``job_wait`` long polls of at most ``poll_seconds`` each;
    ``watch``, if given, is called with the status after each one that
    finds the job unfinished, and may raise to abandon the wait.
    """
    job = client.submit(_batch_points(context.jobs),
                        fail_fast=context.fail_fast)
    while True:
        status = client.wait(job.job_id, poll_seconds)
        if status["state"] in TERMINAL_STATES:
            break
        if watch is not None:
            watch(status)
    payloads = job.fetch_payloads()
    if context.trace is not None:
        for payload in payloads:
            for stage, seconds, cached, origin in (
                (payload or {}).get("events") or []
            ):
                context.trace.record(stage, seconds, cached, origin)
    return [None if p is None else p.get("outcome") for p in payloads]


class ServiceExecutor:
    """``compile_many`` backend that rides the job service.

    The whole batch becomes one submitted job; the executor waits for it
    to end and unpacks the payloads (:func:`run_batch`), so results,
    traces, and exceptions read exactly like every other backend.  With
    ``detach=True``, ``run`` returns the :class:`SweepJob` handle
    immediately instead of outcomes — ``compile_many`` passes it
    through, and the caller fetches whenever (and wherever) it likes.
    """

    name = "service"

    def __init__(
        self,
        *,
        broker=None,
        token: Optional[str] = None,
        detach: bool = False,
        poll_seconds: float = 0.2,
        client: Optional[ServiceClient] = None,
    ) -> None:
        self.broker = broker
        self.token = token
        self.detach = detach
        self.poll_seconds = poll_seconds
        self.client = client
        self._owns_client = client is None

    def prepare_cache(self, cache):
        # the broker owns the authoritative cache; a local one only
        # backs any stray direct Flow use, so default in-memory is fine
        from repro.flow.store import StageCache

        return cache if cache is not None else StageCache()

    def run(self, context):
        if self.client is None:
            if self.broker is None:
                raise SystemGenerationError(
                    "executor 'service' submits to a standing broker: use "
                    "ServiceExecutor(broker='HOST:PORT', token=...) — the "
                    "bare name has nowhere to submit to"
                )
            self.client = ServiceClient(self.broker, self.token).connect()
        if self.detach:
            # a detached job is fetched later and never raised from here,
            # so it runs every point (no fail_fast)
            return self.client.submit(_batch_points(context.jobs))
        return run_batch(self.client, context, poll_seconds=self.poll_seconds)

    def cleanup(self) -> None:
        if self._owns_client and self.client is not None:
            self.client.close()
            self.client = None
