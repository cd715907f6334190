"""Execution backends for ``compile_many``: serial, thread, process,
distributed.

A batch of design points is embarrassingly parallel *between* points but
shares work *across* them (the front end of a k x m sweep is identical
for every point), so the right backend depends on where the time goes:

* ``serial``  — one point after another on the calling thread.  The
  reference semantics; every other backend must produce bit-identical
  results.
* ``thread``  — PR 2's :class:`~concurrent.futures.ThreadPoolExecutor`
  over a shared in-process cache with :class:`SingleFlight` dedup.
  Ideal when most points hit the cache (I/O- or wait-bound sweeps); the
  GIL caps it at ~1 core of actual compilation.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` whose
  workers communicate exclusively through a shared
  :class:`~repro.flow.store.DiskStageCache`.  Job specs cross the
  process boundary as (source text, option spec dicts) — never live
  :class:`~repro.flow.session.Flow` objects — and
  :class:`~repro.flow.store.FileSingleFlight` lock files in the cache
  directory preserve the single-flight "compute each stage once"
  guarantee between address spaces.  This is the backend that makes
  core count, not stage count, the limit on CPU-bound sweep throughput.
* ``distributed`` — :mod:`repro.flow.distributed`: the same job specs,
  run as one job on a loopback job-service broker
  (:mod:`repro.flow.service`) by ``cfdlang-flow worker --connect``
  processes it spawns, plus any workers that join over TCP from other
  hosts.  This is the backend that makes fleet size, not core count,
  the limit.
* ``service`` — :class:`~repro.flow.service.ServiceExecutor`: the same
  job on a standing ``cfdlang-flow broker``, durable across
  disconnects and broker restarts.

Backends implement the :class:`Executor` protocol and register under a
name; ``compile_many(..., executor="process")`` or the CLI's
``--executor`` selects one.  Worker traces and cache statistics merge
back into the parent's :class:`~repro.flow.session.FlowTrace` and cache
counters, so a sweep reads the same regardless of backend.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import SystemGenerationError
from repro.flow.options import FlowOptions
from repro.flow.program import compile_any
from repro.flow.session import FlowTrace
from repro.flow.stages import source_fingerprint
from repro.flow.store import (
    CacheBackend,
    DiskStageCache,
    FileSingleFlight,
    SingleFlight,
    StageCache,
)

#: one parsed design point: (source, options-or-None)
Job = Tuple[object, Optional[FlowOptions]]


@dataclass
class ExecutorContext:
    """Everything a backend needs to run one batch.

    ``outcomes`` slots are :class:`~repro.flow.pipeline.FlowResult`
    (:class:`~repro.flow.program.ProgramResult` for multi-kernel program
    points) or the exception the point raised.  ``fail_fast`` is the shared
    early-exit contract: once any point has failed, a backend stops
    *starting* points — already-running ones finish (and their outcomes
    are recorded; on the broker-backed ``distributed``/``service``
    backends the job ends at once, so they keep ``None`` too),
    never-started ones keep their ``None`` slot.  With
    ``fail_fast=False`` every point runs to completion regardless of
    failures.
    """

    jobs: Sequence[Job]
    workers: int
    cache: CacheBackend
    trace: Optional[FlowTrace]
    fail_fast: bool = False


#: test-only fault injection for the multi-process backends: when this
#: environment variable holds a non-empty marker that occurs in a job's
#: source text, the worker about to run that job hard-exits instead —
#: how the test suite simulates a worker killed mid-task (OOM, SIGKILL)
#: without racing real signals.  Unset in production; never set it
#: outside a test.
FAULT_MARKER_ENV = "CFDLANG_FLOW_TEST_FAULT"


def maybe_crash_for_test(source_text: str, attempt: int = 0) -> None:
    """Hard-exit the current process if the fault marker matches.

    ``attempt`` lets retry paths inject a crash-once fault: the marker
    only fires on a job's first attempt, so a requeued job succeeds and
    the test can assert recovery rather than mere error capture.
    """
    marker = os.environ.get(FAULT_MARKER_ENV)
    if marker and attempt == 0 and marker in source_text:
        os._exit(3)


@runtime_checkable
class Executor(Protocol):
    """What ``compile_many`` requires of an execution backend."""

    name: str

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend: ...

    def run(self, context: ExecutorContext) -> List[object]: ...

    def cleanup(self) -> None: ...


class SerialExecutor:
    """Reference backend: points run one after another, in order."""

    name = "serial"

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        return cache if cache is not None else StageCache()

    def run(self, context: ExecutorContext) -> List[object]:
        outcomes: List[object] = [None] * len(context.jobs)
        for i, (source, options) in enumerate(context.jobs):
            try:
                outcomes[i] = compile_any(
                    source, options, cache=context.cache, trace=context.trace
                )
            except Exception as exc:  # noqa: BLE001 — captured per job
                outcomes[i] = exc
                if context.fail_fast:
                    break
        return outcomes

    def cleanup(self) -> None:
        pass


class ThreadExecutor:
    """Thread-pool backend over a shared in-process cache.

    ``SingleFlight`` keys stage execution so concurrent points never
    duplicate work; with one worker it degrades to :class:`SerialExecutor`.
    """

    name = "thread"

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        return cache if cache is not None else StageCache()

    def run(self, context: ExecutorContext) -> List[object]:
        if context.workers <= 1:
            return SerialExecutor().run(context)
        flight = SingleFlight()
        outcomes: List[object] = [None] * len(context.jobs)
        failed = threading.Event()

        def run_one(i: int) -> None:
            if context.fail_fast and failed.is_set():
                return  # slot stays None: never started after a failure
            source, options = context.jobs[i]
            try:
                outcomes[i] = compile_any(
                    source,
                    options,
                    cache=context.cache,
                    trace=context.trace,
                    flight=flight,
                )
            except Exception as exc:  # noqa: BLE001 — captured per job
                outcomes[i] = exc
                failed.set()

        with ThreadPoolExecutor(max_workers=context.workers) as pool:
            list(pool.map(run_one, range(len(context.jobs))))
        return outcomes

    def cleanup(self) -> None:
        pass


# -- process backend ----------------------------------------------------------
#
# Workers are initialized once per process with the cache directory and
# keep one DiskStageCache + FileSingleFlight for their lifetime, so the
# in-memory layer fronts the disk across the tasks each worker handles.
_WORKER_STATE: Dict[str, object] = {}

#: cache counters whose per-task deltas are merged back into the parent
_COUNTER_KEYS = (
    "hits", "memory_hits", "disk_hits", "remote_hits", "misses", "put_errors"
)


def _process_worker_init(
    cache_dir: str,
    max_bytes: Optional[int],
    max_age_seconds: Optional[float],
) -> None:
    cache = DiskStageCache(
        cache_dir, max_bytes=max_bytes, max_age_seconds=max_age_seconds
    )
    _WORKER_STATE["cache"] = cache
    _WORKER_STATE["flight"] = FileSingleFlight(cache.lock_dir)


def run_job_spec(spec, cache: DiskStageCache, flight, worker_tag: str):
    """Run one design point from its picklable spec against shared state.

    The common worker body of the process-pool and distributed backends:
    returns ``(outcome, trace events, cache counter deltas)`` — outcome
    is the FlowResult (or ProgramResult: program text dispatches through
    :func:`~repro.flow.program.compile_any` like any other source) or
    the exception the point raised, both shipped back by value.  Trace events carry ``worker_tag`` after an ``@`` in
    their origin so a merged sweep trace records which worker served
    each stage (:func:`repro.flow.session.origin_kind` strips the tag
    for aggregation).
    """
    source_text, options_spec = spec
    options = (
        None if options_spec is None else FlowOptions.from_spec(options_spec)
    )
    before = cache.counters()
    trace = FlowTrace()
    try:
        outcome = compile_any(
            source_text,
            options,
            cache=cache,
            trace=trace,
            flight=flight,
        )
    except Exception as exc:  # noqa: BLE001 — captured per job
        outcome = exc
    after = cache.counters()
    deltas = {k: after[k] - before[k] for k in _COUNTER_KEYS}
    events = [
        (e.stage, e.seconds, e.cached, f"{e.origin}@{worker_tag}")
        for e in trace.events
    ]
    return outcome, events, deltas


def _process_worker_run(spec):
    """Pool-worker entry: run the spec against this process's shared state."""
    maybe_crash_for_test(spec[0])
    return run_job_spec(
        spec,
        _WORKER_STATE["cache"],  # type: ignore[arg-type]
        _WORKER_STATE["flight"],
        f"pid{os.getpid()}",
    )


class ProcessExecutor:
    """Process-pool backend for CPU-bound sweeps.

    Requires a :class:`DiskStageCache` — the only medium workers share.
    With ``cache=None`` a temporary cache directory is created (and
    removed on cleanup); passing an in-memory :class:`StageCache` is an
    error, since its artifacts cannot cross the process boundary.

    The ``spawn`` start method keeps workers independent of the parent's
    thread state (fork + threads is unsound, and fork is disappearing as
    a default); workers re-import this module, so everything they need
    travels as picklable data.

    Failure paths: a per-job exception travels back *by value* and lands
    in that point's outcome slot.  A worker that dies outright (OOM
    kill, segfault, signal) breaks the whole stdlib pool — every future
    still pending raises :class:`BrokenProcessPool`, innocent or not —
    so each casualty is then retried once in its *own* single-worker
    pool: the poison job can only break itself, and innocent points
    complete from the warm disk cache.  A job that reproducibly kills
    its worker ends with the pool-breakage exception in its own slot.
    Either way the sweep finishes, and traces/cache counters for every
    completed point merge back in point order, so ``--trace`` output is
    deterministic across identical runs.
    """

    name = "process"

    def __init__(self) -> None:
        self._tmp_dir: Optional[str] = None

    def prepare_cache(self, cache: Optional[CacheBackend]) -> CacheBackend:
        if cache is None:
            self._tmp_dir = tempfile.mkdtemp(prefix="cfdlang-flow-cache-")
            return DiskStageCache(self._tmp_dir)
        if not isinstance(cache, DiskStageCache):
            raise TypeError(
                "executor 'process' shares artifacts between worker "
                "address spaces through a DiskStageCache; pass "
                "cache=DiskStageCache(dir) or cache=None for a temporary "
                f"one, not {type(cache).__name__}"
            )
        return cache

    def run(self, context: ExecutorContext) -> List[object]:
        cache = context.cache
        assert isinstance(cache, DiskStageCache)  # prepare_cache guarantees
        specs = [
            (
                source_fingerprint(source),
                None if options is None else options.to_spec(),
            )
            for source, options in context.jobs
        ]
        outcomes: List[object] = [None] * len(specs)
        if not specs:
            return outcomes
        events_by_point: Dict[int, list] = {}
        broken = self._run_round(
            context, cache, specs, list(range(len(specs))), outcomes,
            events_by_point,
        )
        # only pool-breakage casualties are retried: per-job errors came
        # back by value and are final.  Isolating each casualty in its
        # own pool keeps a reproducible crasher from taking innocents
        # down again on the retry.  fail_fast means the caller wants out
        # at the first failure, so no retry there.
        if broken and not context.fail_fast:
            for i in broken:
                self._run_round(
                    context, cache, specs, [i], outcomes, events_by_point
                )
        # merge in point order (as_completed order varies run to run), so
        # identical sweeps produce identical --trace output
        if context.trace is not None:
            for i in sorted(events_by_point):
                for stage, seconds, cached, origin in events_by_point[i]:
                    context.trace.record(stage, seconds, cached, origin)
        return outcomes

    def _run_round(
        self,
        context: ExecutorContext,
        cache: DiskStageCache,
        specs,
        indices: List[int],
        outcomes: List[object],
        events_by_point: Dict[int, list],
    ) -> List[int]:
        """One pool pass over ``indices``; returns pool-breakage casualties.

        Every future is drained behind a try/except: a worker killed
        mid-task must cost *its* point an exception slot, not abort the
        loop and abandon every other point's outcome.
        """
        broken: List[int] = []
        workers = min(max(1, context.workers), len(indices))
        failed = False
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_process_worker_init,
            initargs=(str(cache.cache_dir), cache.max_bytes, cache.max_age_seconds),
        ) as pool:
            futures = {
                pool.submit(_process_worker_run, specs[i]): i for i in indices
            }
            for future in as_completed(futures):
                i = futures[future]
                try:
                    outcome, events, deltas = future.result()
                except CancelledError:
                    continue  # fail_fast cancelled it: never started
                except Exception as exc:  # noqa: BLE001 — BrokenProcessPool &c.
                    if context.fail_fast and failed:
                        # collateral of the abort (a broken pool fails
                        # every pending future): these points never ran,
                        # so they keep their None slot per the contract
                        continue
                    outcomes[i] = exc
                    broken.append(i)
                else:
                    outcomes[i] = outcome
                    events_by_point[i] = events
                    cache.merge_stats(deltas)
                if (
                    context.fail_fast
                    and not failed
                    and isinstance(outcomes[i], BaseException)
                ):
                    failed = True
                    for other in futures:
                        other.cancel()
        return broken

    def cleanup(self) -> None:
        if self._tmp_dir is not None:
            shutil.rmtree(self._tmp_dir, ignore_errors=True)
            self._tmp_dir = None


def _distributed_factory():
    # imported on demand: repro.flow.distributed uses this module's
    # run_job_spec, so a top-level import here would be circular
    from repro.flow.distributed import DistributedExecutor

    return DistributedExecutor()


def _service_factory():
    # same on-demand pattern: repro.flow.service sits atop the
    # distributed/nettransport stack
    from repro.flow.service import ServiceExecutor

    return ServiceExecutor()


_EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
    "distributed": _distributed_factory,
    "service": _service_factory,
}

DEFAULT_EXECUTOR = ThreadExecutor.name


def executor_names() -> List[str]:
    """The registered backend names, sorted."""
    return sorted(_EXECUTORS)


def get_executor(name: str) -> Executor:
    """A fresh backend instance by name (actionable error on a typo)."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise SystemGenerationError(
            f"unknown executor {name!r}; known executors are: "
            f"{', '.join(executor_names())}"
        ) from None
    return factory()


def resolve_executor(executor) -> Executor:
    """Accept a backend name, a backend instance, or None (the default)."""
    if executor is None:
        return get_executor(DEFAULT_EXECUTOR)
    if isinstance(executor, str):
        return get_executor(executor)
    return executor
