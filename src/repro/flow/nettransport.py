"""TCP transport for the broker: queue state, server, client proxy.

The broker owns the job queue and the stage cache in one process and
serves both over a length-prefixed socket protocol, so a worker anywhere
on the network joins the fleet with nothing but an address and a
shared-secret token — no shared filesystem.

Three pieces:

* :class:`MemoryTransport` — the broker-local queue state: a thread-safe
  in-memory work queue whose leases and worker liveness are monotonic
  timestamps.  Workers see its :class:`~repro.flow.distributed.
  Transport` side; the job service (:mod:`repro.flow.service`) drives
  the rest — enqueueing, result collection, lease expiry, cancellation.
  Nothing on it polls: one condition variable wakes a blocked claim
  when a point is queued and the service's scheduler when a result is
  posted.
* :class:`BrokerServer` — a threaded TCP server wrapping a
  :class:`MemoryTransport` plus the broker's
  :class:`~repro.flow.store.DiskStageCache` and, optionally, a job
  service.  Every request is a framed message; the first must be a JSON
  ``hello`` carrying the shared-secret token (compared constant-time),
  and only authenticated connections may send or receive pickle frames.
  A worker's requests double as its heartbeat; a dropped connection
  unregisters the worker immediately, and its leases expire on the
  normal clock.  A ``claim`` (and the service's ``job_wait``) is a long
  poll: it blocks until there is something to return, for at most
  :data:`LONG_POLL_SECONDS`.  Results cross the broker as the bytes the
  worker pickled (:class:`~repro.flow.distributed.RawResult`).
* :class:`TcpTransport` — the client proxy: the worker ``Transport``
  surface and the cache fetch/put, one RPC each, so a worker
  (``cfdlang-flow worker --connect HOST:PORT``) drives a remote broker
  through the same loop it would run locally;
  :class:`~repro.flow.service.ServiceClient` rides the same connection
  type for the job-service RPCs.

Workers without the shared mount still reuse cache artifacts:
:class:`RemoteStageCache` layers a worker-local
:class:`~repro.flow.store.DiskStageCache` over ``cache_fetch`` /
``cache_put`` RPCs against the broker's cache (the serializable
entry export/import added to :mod:`repro.flow.store`), so a warm broker
serves the whole front end to a cold worker as ``"remote"`` hits and
every entry a worker computes lands back in the broker's store.

Security model: the token authenticates, the wire does not encrypt, and
authenticated peers exchange pickles — run brokers and workers on a
trusted network only (an SSH tunnel covers the untrusted case).

Frame layout (all integers big-endian)::

    4 bytes  payload length N
    1 byte   tag: 0 = JSON, 1 = pickle (authenticated connections only)
    N bytes  payload
"""

from __future__ import annotations

import hmac
import json
import os
import pickle
import socket
import struct
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SystemGenerationError
from repro.flow.distributed import (
    BrokerUnreachableError,
    RawResult,
    TransportClosedError,
    default_worker_id,
    raw_result,
    run_worker,
)
from repro.flow.store import DiskStageCache, Entry, namespaced_key

#: bump when the message schema changes incompatibly; hello replies
#: carry it so mismatched peers fail with a clear error, not a hang
PROTOCOL_VERSION = 2

#: the longest a broker blocks one request (a ``claim`` or ``job_wait``
#: long poll) before replying "nothing yet".  A worker's claim loop and
#: its heartbeat pulse share one connection, so this is also the
#: longest a pulse can be held up: keep it at the default heartbeat.
LONG_POLL_SECONDS = 1.0

#: refuse frames bigger than this (a corrupt length prefix must not
#: trigger a multi-gigabyte allocation)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">IB")
_TAG_JSON = 0
_TAG_PICKLE = 1

#: environment fallback for the shared secret, so process listings
#: never show ``--token`` values
TOKEN_ENV = "CFDLANG_FLOW_TOKEN"


class BrokerAuthError(SystemGenerationError):
    """The broker rejected this client's token."""


#: the request surface a tenant-token connection may use: service RPCs
#: (its own namespace-stamped jobs) and its cache partition.  Everything
#: else is the worker surface — claiming queued points, posting results,
#: beating leases — which would let one tenant read or forge another
#: tenant's work, so it is reserved for primary-token connections.
TENANT_OPS = frozenset({
    "submit", "job_status", "job_wait", "job_fetch", "job_cancel",
    "service_stats", "cache_fetch", "cache_put",
})


def wait_slice(requested) -> float:
    """A client-requested blocking wait, clamped to
    ``[0, LONG_POLL_SECONDS]``; anything that is not a number waits 0."""
    try:
        seconds = float(requested or 0.0)
    except (TypeError, ValueError):
        return 0.0
    if not seconds > 0.0:  # negative, zero or NaN
        return 0.0
    return min(seconds, LONG_POLL_SECONDS)


def parse_hostport(text: str, *, listening: bool = False) -> Tuple[str, int]:
    """``'127.0.0.1:8765'`` -> ``('127.0.0.1', 8765)``.

    With ``listening=True`` an empty host (``':8765'``, or just ``':0'``)
    means every interface — the bind-side shorthand for ``0.0.0.0:PORT``.
    Connect paths keep requiring an explicit host: connecting *to*
    0.0.0.0 is platform-dependent, so an empty host there is an error,
    not a guess.
    """
    host, sep, port = str(text).rpartition(":")
    try:
        if not sep:
            raise ValueError
        port_number = int(port)
    except ValueError:
        raise SystemGenerationError(
            f"bad address {text!r}: expected HOST:PORT, e.g. 127.0.0.1:8765"
        ) from None
    if not host:
        if not listening:
            raise SystemGenerationError(
                f"bad address {text!r}: a broker to connect to needs an "
                "explicit host, e.g. 127.0.0.1:8765"
            )
        host = "0.0.0.0"
    return host, port_number


def resolve_token(token: Optional[str]) -> Optional[str]:
    """An explicit token, or the ``CFDLANG_FLOW_TOKEN`` environment
    fallback; None if neither is set."""
    return token if token else os.environ.get(TOKEN_ENV) or None


# -- framing ------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except OSError as exc:
            raise TransportClosedError(f"connection lost: {exc}") from None
        if not chunk:
            if chunks:
                raise TransportClosedError("connection closed mid-frame")
            raise TransportClosedError("connection closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj, *, pickled: bool = False) -> None:
    """Serialize ``obj`` and send it as one framed message."""
    if pickled:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        tag = _TAG_PICKLE
    else:
        body = json.dumps(obj).encode()
        tag = _TAG_JSON
    try:
        sock.sendall(_HEADER.pack(len(body), tag) + body)
    except OSError as exc:
        raise TransportClosedError(f"connection lost: {exc}") from None


def recv_frame(sock: socket.socket, *, allow_pickle: bool):
    """Receive one framed message; refuses pickle frames pre-auth."""
    length, tag = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise TransportClosedError(
            f"oversized frame ({length} bytes); refusing"
        )
    body = _recv_exact(sock, length)
    if tag == _TAG_JSON:
        try:
            return json.loads(body)
        except ValueError:
            raise TransportClosedError("malformed JSON frame") from None
    if tag == _TAG_PICKLE:
        if not allow_pickle:
            # unpickling attacker bytes is arbitrary code execution; an
            # unauthenticated peer never gets that far
            raise TransportClosedError(
                "pickle frame before authentication; refusing"
            )
        return pickle.loads(body)
    raise TransportClosedError(f"unknown frame tag {tag}")


# -- broker-local state -------------------------------------------------------
def batch_of(job_id: str) -> str:
    """The batch a broker-minted job id belongs to (ids are
    ``<batch>-<index>``); ids without the separator are their own
    batch."""
    return job_id.rsplit("-", 1)[0]


class MemoryTransport:
    """The work queue a :class:`BrokerServer` owns: the worker-side
    :class:`~repro.flow.distributed.Transport` plus the broker side the
    job service drives.

    ``time.monotonic`` timestamps clock leases and liveness: claiming
    starts a lease, ``heartbeat_job`` advances it, ``expired_leases``
    compares it against the broker's lease window.  A batch tombstone
    (``mark_batch_done``) drops straggler results of a finished or
    cancelled batch.  All methods are thread-safe (the server handles
    each connection on its own thread).  Jobs claim in sorted-id order,
    so time-sortable job ids drain first-come-first-served.

    Results are held as :class:`~repro.flow.distributed.RawResult`
    bytes: ``take_results`` hands them to the job service undecoded,
    ``take_result`` decodes one for callers that want the payload.
    Every change a waiter may be blocked on (a queued point, a posted
    result, ``close``) notifies one condition; ``close`` makes blocked
    and later claims raise :class:`~repro.flow.distributed.
    TransportClosedError`.
    """

    _TOMBSTONE_TTL_SECONDS = 86400.0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closed = False
        self._queue: Dict[str, Dict[str, object]] = {}
        #: job id -> [message, last heartbeat (monotonic)]
        self._leases: Dict[str, List[object]] = {}
        self._results: Dict[str, RawResult] = {}
        #: worker id -> last heartbeat (monotonic)
        self._workers: Dict[str, float] = {}
        #: batch id -> tombstone time (monotonic)
        self._done: Dict[str, float] = {}

    # -- job side ------------------------------------------------------------
    def put_job(self, message: Dict[str, object]) -> None:
        with self._lock:
            self._queue[str(message["id"])] = dict(message)
            self._changed.notify_all()

    def claim_job(self, wait: float = 0.0) -> Optional[Dict[str, object]]:
        """Lease the first pending job, blocking up to ``wait`` seconds
        for one to be queued; None if none was."""
        deadline = time.monotonic() + wait
        with self._lock:
            while not (self._queue or self._closed):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._changed.wait(remaining)
            if self._closed:
                raise TransportClosedError("the broker closed")
            job_id = min(self._queue)
            message = self._queue.pop(job_id)
            self._leases[job_id] = [message, time.monotonic()]
            return dict(message)

    def heartbeat_job(self, job_id: str) -> None:
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is not None:
                lease[1] = time.monotonic()

    def complete(self, job_id: str, payload) -> None:
        result = raw_result(payload)
        with self._lock:
            self._leases.pop(job_id, None)
            if batch_of(job_id) in self._done:
                # the broker closed this batch: a straggler result would
                # sit unconsumed forever
                return
            self._results[job_id] = result
            self._changed.notify_all()

    def take_result(self, job_id: str) -> Optional[Dict[str, object]]:
        """Consume one posted result, decoded to its payload dict."""
        with self._lock:
            result = self._results.pop(job_id, None)
        return None if result is None else pickle.loads(result.data)

    def take_results(self, wait: float, stop) -> Dict[str, RawResult]:
        """Consume every posted result, undecoded, blocking up to
        ``wait`` seconds for the first; ``stop`` (a no-argument
        predicate, re-checked whenever :meth:`wake` is called) ends the
        wait early."""
        deadline = time.monotonic() + wait
        with self._lock:
            while not (self._results or stop()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            results, self._results = self._results, {}
        return results

    def wake(self) -> None:
        """Make every blocked waiter re-check its condition."""
        with self._lock:
            self._changed.notify_all()

    def close(self) -> None:
        """Release every blocked claim for good: claims raise
        :class:`~repro.flow.distributed.TransportClosedError` from now
        on.  (The job service's result wait ends through its own
        ``stop`` predicate; the broker stops the service first.)"""
        with self._lock:
            self._closed = True
            self._changed.notify_all()

    def expired_leases(self, lease_seconds: float) -> List[str]:
        now = time.monotonic()
        expired = []
        with self._lock:
            for job_id in sorted(self._leases):
                if batch_of(job_id) in self._done or job_id in self._results:
                    # closed batch, or completed with a dangling lease
                    del self._leases[job_id]
                    continue
                if now - self._leases[job_id][1] >= lease_seconds:
                    expired.append(job_id)
        return expired

    def release(self, job_id: str) -> None:
        with self._lock:
            self._leases.pop(job_id, None)

    def cancel_pending(self, job_ids: Set[str]) -> Set[str]:
        with self._lock:
            cancelled = set(job_ids) & set(self._queue)
            for job_id in cancelled:
                del self._queue[job_id]
            self._changed.notify_all()
            return cancelled

    # -- batch tombstones ----------------------------------------------------
    def batch_done(self, job_id: str) -> bool:
        with self._lock:
            return batch_of(job_id) in self._done

    def mark_batch_done(self, batch_id: str) -> None:
        now = time.monotonic()
        with self._lock:
            self._done[batch_id] = now
            for batch in list(self._done):
                if now - self._done[batch] >= self._TOMBSTONE_TTL_SECONDS:
                    del self._done[batch]

    # -- worker liveness -----------------------------------------------------
    def heartbeat_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers[worker_id] = time.monotonic()

    def unregister_worker(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def alive_workers(self, stale_seconds: float) -> List[str]:
        now = time.monotonic()
        with self._lock:
            return sorted(
                w for w, ts in self._workers.items()
                if now - ts < stale_seconds
            )

    # -- test hooks ----------------------------------------------------------
    def _age_lease(self, job_id: str, seconds: float) -> None:
        """Rewind a lease's heartbeat (conformance tests simulate a dead
        worker without waiting out a real lease window)."""
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is not None:
                lease[1] -= seconds

    def _age_worker(self, worker_id: str, seconds: float) -> None:
        with self._lock:
            if worker_id in self._workers:
                self._workers[worker_id] -= seconds


# -- broker server ------------------------------------------------------------
class BrokerServer:
    """Threaded TCP front end over a :class:`MemoryTransport` + cache.

    One accept thread plus one thread per connection — fleets here are
    tens of workers, not thousands.  ``address`` is the bound (host,
    port) pair, so listening on port 0 yields a usable ephemeral port.
    ``close()`` stops the job service, wakes every blocked long poll,
    shuts the listener and every live connection down, and returns once
    their threads have exited.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        cache: Optional[DiskStageCache] = None,
        *,
        transport: Optional[MemoryTransport] = None,
        service=None,
        tenants: Optional[Dict[str, str]] = None,
    ) -> None:
        if not token:
            raise SystemGenerationError(
                "a broker needs a shared-secret token: pass token=... "
                f"(CLI --token) or set {TOKEN_ENV}"
            )
        self.token = token
        self.cache = cache
        #: optional :class:`~repro.flow.service.JobService` (duck-typed:
        #: this module never imports service, which imports it) — routes
        #: submit/status/fetch/cancel RPCs and is stopped by close()
        self.service = service
        #: extra shared secrets: tenant name -> token.  A tenant
        #: connection's cache RPCs and submitted jobs are confined to
        #: that tenant's namespace of the shared store; the primary
        #: token is the "" tenant (identity namespace) and is what
        #: workers authenticate with.
        self.tenants = dict(tenants) if tenants else {}
        if any(not tok for tok in self.tenants.values()):
            raise SystemGenerationError(
                "every tenant needs a non-empty token (NAME=TOKEN)"
            )
        self.transport = transport if transport is not None else MemoryTransport()
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            # port in use, privileged port, bad interface: an operator
            # mistake deserving a one-line error, not a traceback
            raise SystemGenerationError(
                f"cannot serve a broker on {host}:{port}: {exc}"
            ) from None
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closing = threading.Event()
        self._conns: Set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._closing.set()
        if self.service is not None:
            self.service.stop()  # scheduler first: no new puts mid-teardown
        self.transport.close()  # blocked claims raise, their threads exit
        try:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown does, so the join below returns at once
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "BrokerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conns_lock:
                self._conns.add(conn)
            # a standing broker accepts connections for its lifetime:
            # drop finished handler threads or the list grows forever
            self._threads = [t for t in self._threads if t.is_alive()]
            thread = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    # -- per-connection protocol ---------------------------------------------
    def _authenticate(self, presented: str) -> Optional[str]:
        """The tenant a presented token authenticates as: ``""`` for the
        primary token, the tenant name for a tenant token, None for a
        reject.  Every registered secret is compared (constant-time per
        comparison) so response timing never reveals which tenants
        exist."""
        tenant: Optional[str] = None
        if hmac.compare_digest(presented, self.token):
            tenant = ""
        for name in sorted(self.tenants):
            if hmac.compare_digest(presented, self.tenants[name]):
                tenant = name
        return tenant

    def _serve(self, conn: socket.socket) -> None:
        worker_id: Optional[str] = None
        tenant: Optional[str] = None
        try:
            hello = recv_frame(conn, allow_pickle=False)
            if isinstance(hello, dict) and hello.get("op") == "hello":
                tenant = self._authenticate(str(hello.get("token", "")))
            if tenant is None:
                send_frame(conn, {"ok": False, "error": "bad token"})
                return
            if hello.get("version") != PROTOCOL_VERSION:
                send_frame(conn, {
                    "ok": False,
                    "error": (
                        f"protocol version mismatch: broker speaks "
                        f"v{PROTOCOL_VERSION}, client spoke "
                        f"v{hello.get('version')}"
                    ),
                })
                return
            if hello.get("role") == "worker":
                if tenant:
                    # a worker claims and completes *any* tenant's
                    # points, so it must hold the primary secret
                    send_frame(conn, {
                        "ok": False,
                        "error": "workers must authenticate with the "
                                 "primary broker token, not a tenant "
                                 "token",
                    })
                    return
                worker_id = str(hello.get("worker") or "")
                if worker_id:
                    self.transport.heartbeat_worker(worker_id)
            send_frame(conn, {"ok": True, "version": PROTOCOL_VERSION})
            while True:
                request = recv_frame(conn, allow_pickle=True)
                if not isinstance(request, dict):
                    return
                if request.get("op") == "bye":
                    send_frame(conn, {"ok": True})
                    return
                reply, pickled = self._dispatch(request, worker_id, tenant)
                send_frame(conn, reply, pickled=pickled)
        except TransportClosedError:
            pass
        except Exception:  # noqa: BLE001 — one bad peer must not kill the broker
            pass
        finally:
            if worker_id:
                self.transport.unregister_worker(worker_id)
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request, worker_id, tenant: str = ""):
        """One request -> (reply, pickled?).  Requests from workers count
        as liveness: any op refreshes the connection's worker heartbeat.
        ``tenant`` is the connection's authenticated tenant: its cache
        RPCs are confined to that namespace of the shared store, as are
        the jobs it submits to the service."""
        t = self.transport
        op = request.get("op")
        if worker_id:
            t.heartbeat_worker(worker_id)
        if tenant and op not in TENANT_OPS:
            # tenant isolation: the worker surface could pop another
            # tenant's queued point (leaking its source) or post a
            # forged result for it
            return {
                "ok": False,
                "error": f"op {op!r} requires the primary broker token; "
                         "tenant tokens may only submit jobs, poll/fetch/"
                         "cancel their own, and use their cache namespace",
            }, False
        if op in ("submit", "job_status", "job_wait", "job_fetch",
                  "job_cancel"):
            if self.service is None:
                return {
                    "ok": False,
                    "error": "this broker runs no job service; submit to "
                             "a 'cfdlang-flow broker' instead",
                }, False
            return self.service.handle_rpc(op, request, tenant)
        if op == "service_stats":
            stats: Dict[str, object] = {
                "workers": t.alive_workers(
                    float(request.get("stale_seconds", 60.0))
                ),
            }
            if self.cache is not None:
                stats["cache"] = self.cache.counters()
            if self.service is not None:
                stats.update(self.service.stats())
            return {"ok": True, "stats": stats}, False
        if op == "claim":
            return {"job": t.claim_job(wait_slice(request.get("wait")))}, False
        if op == "heartbeat":
            worker = request.get("worker") or worker_id
            if worker:
                t.heartbeat_worker(str(worker))
            if request.get("job"):
                t.heartbeat_job(str(request["job"]))
            return {"ok": True}, False
        if op == "complete":
            if not isinstance(request.get("data"), bytes):
                return {
                    "ok": False,
                    "error": "malformed complete: 'data' must be the "
                             "pickled result bytes",
                }, False
            t.complete(str(request["id"]), RawResult(
                request["data"], bool(request.get("failed")),
                dict(request.get("deltas") or {}),
            ))
            return {"ok": True}, False
        if op == "unregister_worker":
            worker = request.get("worker") or worker_id
            if worker:
                t.unregister_worker(str(worker))
            return {"ok": True}, False
        if op == "cache_fetch":
            key = namespaced_key(tenant, str(request["key"]))
            data = (
                self.cache.export_entry(key)
                if self.cache is not None else None
            )
            return {"data": data}, True
        if op == "cache_put":
            if self.cache is not None:
                self.cache.import_entry(
                    namespaced_key(tenant, str(request["key"])),
                    request["data"],
                )
            return {"ok": True}, False
        return {"ok": False, "error": f"unknown op {op!r}"}, False


# -- client proxy -------------------------------------------------------------
class TcpTransport:
    """Client-side :class:`~repro.flow.distributed.Transport` over a
    broker connection, plus the broker-cache RPCs.

    Every method is one request/reply round trip on a single
    persistent socket, serialized by a lock so the worker's heartbeat
    thread and its job loop share the connection safely (which is why
    the broker caps a blocking ``claim`` at :data:`LONG_POLL_SECONDS`).
    ``complete`` ships the result as the bytes the worker pickled,
    with ``failed`` and ``deltas`` beside them in the clear.  ``connect()``
    retries a refused connection ``connect_retries`` times
    (``retry_delay`` apart) before failing with
    :class:`~repro.flow.distributed.BrokerUnreachableError` — a worker
    started moments before its broker still attaches, and one pointed at
    a dead address fails cleanly instead of spinning forever.  A wrong
    token raises :class:`BrokerAuthError` immediately (no retry: the
    secret will not become right by waiting).
    """

    def __init__(
        self,
        address,
        token: Optional[str],
        *,
        role: str = "client",
        worker_id: Optional[str] = None,
        connect_retries: int = 20,
        retry_delay: float = 0.25,
        call_timeout: float = 120.0,
    ) -> None:
        self.address = (
            parse_hostport(address) if isinstance(address, str)
            else (str(address[0]), int(address[1]))
        )
        self.token = resolve_token(token)
        self.role = role
        self.worker_id = worker_id
        self.connect_retries = connect_retries
        self.retry_delay = retry_delay
        self.call_timeout = call_timeout
        self._sock: Optional[socket.socket] = None
        self._was_connected = False
        self._lock = threading.Lock()

    # -- connection lifecycle ------------------------------------------------
    def connect(self) -> "TcpTransport":
        with self._lock:
            self._ensure_connected()
        return self

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        if self._was_connected:
            # a lost connection stays lost: whichever thread noticed the
            # drop first (the heartbeat pulse, likely) already cleared
            # the socket, and every later caller must see the same
            # "broker gone" outcome — not a connect-retry stall ending
            # in BrokerUnreachableError.  Reconnecting would also need
            # re-registration; the sweep being over is the common case.
            raise TransportClosedError(
                f"broker connection to {self.address[0]}:{self.address[1]} "
                "was lost"
            )
        if not self.token:
            raise BrokerAuthError(
                "a broker connection needs the shared-secret token: pass "
                f"token=... (CLI --token) or set {TOKEN_ENV}"
            )
        host, port = self.address
        last_error: Optional[Exception] = None
        for attempt in range(max(1, self.connect_retries)):
            if attempt:
                time.sleep(self.retry_delay)
            try:
                sock = socket.create_connection((host, port), timeout=10.0)
            except OSError as exc:
                last_error = exc
                continue
            sock.settimeout(self.call_timeout)
            try:
                send_frame(sock, {
                    "op": "hello",
                    "token": self.token,
                    "role": self.role,
                    "worker": self.worker_id,
                    "version": PROTOCOL_VERSION,
                })
                reply = recv_frame(sock, allow_pickle=False)
            except TransportClosedError as exc:
                sock.close()
                last_error = exc
                continue
            if not (isinstance(reply, dict) and reply.get("ok")):
                sock.close()
                raise BrokerAuthError(
                    f"broker at {host}:{port} rejected this client: "
                    f"{(reply or {}).get('error', 'bad token')}"
                )
            if reply.get("version") != PROTOCOL_VERSION:
                sock.close()
                raise SystemGenerationError(
                    f"broker at {host}:{port} speaks protocol "
                    f"v{reply.get('version')}, this client "
                    f"v{PROTOCOL_VERSION}; upgrade the older side"
                )
            self._sock = sock
            self._was_connected = True
            return
        raise BrokerUnreachableError(
            f"cannot reach broker at {host}:{port} after "
            f"{max(1, self.connect_retries)} attempt(s): {last_error}"
        )

    def close(self) -> None:
        with self._lock:
            if self._sock is None:
                return
            try:
                send_frame(self._sock, {"op": "bye"})
                recv_frame(self._sock, allow_pickle=True)
            except TransportClosedError:
                pass
            finally:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _call(
        self,
        request: Dict[str, object],
        *,
        pickled: bool = False,
        raw: bool = False,
    ):
        with self._lock:
            self._ensure_connected()
            assert self._sock is not None
            try:
                send_frame(self._sock, request, pickled=pickled)
                reply = recv_frame(self._sock, allow_pickle=True)
            except (TransportClosedError, OSError) as exc:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
                raise TransportClosedError(
                    f"broker connection lost during {request.get('op')!r}: "
                    f"{exc}"
                ) from None
        if (not raw and isinstance(reply, dict)
                and reply.get("ok") is False):
            # a refusal (unknown op, or a tenant token on the
            # primary-only surface) must surface as the broker's
            # message, not as a KeyError on the missing reply field;
            # service RPCs pass raw=True and interpret ok/busy flags
            # themselves
            raise SystemGenerationError(
                f"broker refused {request.get('op')!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    # -- Transport protocol --------------------------------------------------
    def claim_job(self, wait: float = 0.0) -> Optional[Dict[str, object]]:
        return self._call({"op": "claim", "wait": wait})["job"]

    def heartbeat_job(self, job_id: str) -> None:
        self._call({"op": "heartbeat", "job": job_id})

    def complete(self, job_id: str, payload) -> None:
        result = raw_result(payload)
        self._call(
            {
                "op": "complete", "id": job_id, "data": result.data,
                "failed": result.failed, "deltas": result.deltas,
            },
            pickled=True,
        )

    def heartbeat_worker(self, worker_id: str) -> None:
        self._call({"op": "heartbeat", "worker": worker_id})

    def unregister_worker(self, worker_id: str) -> None:
        try:
            self._call({"op": "unregister_worker", "worker": worker_id})
        except TransportClosedError:
            pass  # the dropped connection already unregistered us

    # -- broker cache access -------------------------------------------------
    def cache_fetch(self, key: str) -> Optional[bytes]:
        """The broker's serialized cache entry for ``key``, or None."""
        return self._call({"op": "cache_fetch", "key": key})["data"]

    def cache_put(self, key: str, data: bytes) -> None:
        """Ship a serialized cache entry into the broker's store."""
        self._call({"op": "cache_put", "key": key, "data": data},
                   pickled=True)


# -- worker-side cache tiering ------------------------------------------------
class RemoteStageCache:
    """Two-tier worker cache: a local store fronting the broker's cache.

    Lookups try the worker-local :class:`DiskStageCache` first (its
    memory layer, then its disk), then fall back to a ``cache_fetch``
    RPC; a broker hit is imported into the local store and reported with
    origin ``"remote"``, so the trace distinguishes all three tiers.
    Writes land locally *and* ship to the broker, which is how a fleet
    with no shared filesystem still warms one authoritative cache.
    Entries the local store cannot pickle never reach the wire (they
    stay in the local memory layer, counted in ``put_errors``).

    Workers on different hosts get no cross-worker single-flight —
    two cold workers may both compute a shared stage.  The remote
    read-before-compute keeps the common case deduplicated, and the
    duplicate write is byte-identical and atomic, so correctness never
    depends on it.
    """

    def __init__(self, local: DiskStageCache, transport: TcpTransport) -> None:
        self.local = local
        self.transport = transport
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.remote_hits = 0

    @property
    def lock_dir(self):
        """Single-flight lock directory of the local tier (per-host
        dedup between workers sharing one ``--cache-dir``)."""
        return self.local.lock_dir

    @property
    def put_errors(self) -> int:
        return self.local.put_errors

    def _load(self, key: str, count: bool):
        hit = self.local.peek(key)
        if hit is not None:
            entry, origin = hit
            if count:
                with self._lock:
                    self.hits += 1
                    if origin == "memory":
                        self.memory_hits += 1
                    else:
                        self.disk_hits += 1
            return hit
        try:
            data = self.transport.cache_fetch(key)
        except TransportClosedError:
            data = None  # broker gone: degrade to a local miss
        entry = (
            self.local.import_entry(key, data) if data is not None else None
        )
        if entry is not None:
            if count:
                with self._lock:
                    self.hits += 1
                    self.remote_hits += 1
            return entry, "remote"
        if count:
            with self._lock:
                self.misses += 1
        return None

    def fetch(self, key: str):
        return self._load(key, count=True)

    def peek(self, key: str):
        return self._load(key, count=False)

    def get(self, key: str) -> Optional[Entry]:
        hit = self.fetch(key)
        return None if hit is None else hit[0]

    def put(self, key: str, outputs: Entry) -> None:
        self.local.put(key, outputs)
        data = self.local.export_entry(key)
        if data is None:
            return  # unpicklable: local-memory-only, never on the wire
        try:
            self.transport.cache_put(key, data)
        except TransportClosedError:
            pass  # broker gone: the local tier still has the entry

    def clear(self) -> None:
        self.local.clear()
        with self._lock:
            self.hits = self.misses = 0
            self.memory_hits = self.disk_hits = self.remote_hits = 0

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "remote_hits": self.remote_hits,
                "misses": self.misses,
                "put_errors": self.local.put_errors,
            }

    def stats(self) -> Dict[str, int]:
        out = self.counters()
        out["entries"] = len(self.local)
        return out

    def __len__(self) -> int:
        return len(self.local)

    def __contains__(self, key: str) -> bool:
        return key in self.local


# -- worker entry point -------------------------------------------------------
def run_tcp_worker(
    address,
    token: Optional[str],
    cache_dir=None,
    *,
    poll_seconds: float = 1.0,
    heartbeat_seconds: float = 1.0,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    worker_id: Optional[str] = None,
    connect_retries: int = 20,
    retry_delay: float = 0.25,
) -> int:
    """The body of ``cfdlang-flow worker --connect HOST:PORT``.

    Connects (with bounded retries), layers a worker-local cache over
    the broker's via :class:`RemoteStageCache`, and hands off to the
    transport-agnostic :func:`~repro.flow.distributed.run_worker` loop.
    With no ``cache_dir`` the local tier is a temporary directory,
    removed on exit — the broker's store is the durable one.
    """
    import shutil

    worker = worker_id or default_worker_id()
    transport = TcpTransport(
        address,
        token,
        role="worker",
        worker_id=worker,
        connect_retries=connect_retries,
        retry_delay=retry_delay,
    ).connect()
    tmp_dir = None
    if cache_dir is None:
        tmp_dir = tempfile.mkdtemp(prefix="cfdlang-flow-worker-cache-")
        cache_dir = tmp_dir
    try:
        cache = RemoteStageCache(DiskStageCache(cache_dir), transport)
        return run_worker(
            transport=transport,
            cache=cache,
            poll_seconds=poll_seconds,
            heartbeat_seconds=heartbeat_seconds,
            idle_timeout=idle_timeout,
            max_jobs=max_jobs,
            worker_id=worker,
        )
    finally:
        # close() can itself raise on a broker that vanished mid-goodbye
        # (TransportClosedError, or a garbage frame from a dying socket);
        # the temporary tier must be removed on *every* exit path, not
        # just SIGTERM, so the rmtree gets its own finally
        try:
            transport.close()
        except Exception:  # noqa: BLE001 — a failed goodbye is still goodbye
            pass
        finally:
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)
