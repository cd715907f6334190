"""The end-to-end CFDlang-to-bitstream flow (Fig. 3).

The flow is a registry of named stages (:mod:`repro.flow.stages`):
frontend -> tensor IR -> canonicalization -> reference schedule -> layout
materialization -> rescheduling -> C99 code generation + Mnemosyne
metadata -> memory subsystem generation -> HLS synthesis (model) ->
k x m system assembly on a board -> end-to-end performance simulation.
The last two stages are parameterized by :class:`SystemOptions`, so k/m/
board/workload sweeps re-run only them.

:func:`compile_any` runs everything in one shot, for a single kernel
(returning a :class:`FlowResult`) or a multi-kernel :class:`Program`
(returning a :class:`ProgramResult`; :func:`compile_program` takes
programs only).  :class:`Flow` is the session API:
``run_until``/``override``/``resume`` for partial runs and
intermediate inspection, with a content-keyed :class:`StageCache` so
design-space sweeps reuse the shared front end, and a :class:`FlowTrace`
recording per-stage timing and cache behavior.  :func:`compile_many`
batches a whole DSE grid against one shared cache, optionally on a
thread pool (``jobs=N``) with single-flight deduplication;
:class:`DiskStageCache` persists the cache across processes.  The
``process`` and ``distributed`` executors (:mod:`repro.flow.executors`,
:mod:`repro.flow.distributed`) scale the same batch across cores and
across hosts: the distributed one runs it as a job on a loopback
compile-service broker (:mod:`repro.flow.service`) that workers reach
over TCP (:mod:`repro.flow.nettransport`) with no shared mount at all,
and ``ServiceExecutor`` runs it on a standing broker.
"""

import importlib

from repro.flow.options import FlowOptions, SystemOptions
from repro.flow.program import (
    FusionPlan,
    Program,
    ProgramKernel,
    ProgramResult,
    compile_any,
    compile_program,
    is_program_text,
)
from repro.flow.session import (
    Flow,
    FlowResult,
    FlowTrace,
    StageEvent,
    compile_many,
)
from repro.flow.stages import Stage, get_stage, registered_stages, stage_names
from repro.flow.store import (
    CacheBackend,
    DiskStageCache,
    FileSingleFlight,
    NamespacedStageCache,
    SingleFlight,
    StageCache,
    namespaced_key,
)
from repro.flow.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_names,
    get_executor,
)
from repro.flow.artifacts import write_artifacts

#: names resolved on first access, so a single compile imports neither
#: NumPy (the solver) nor the broker, transport and service stack
_LAZY = {
    "repro.flow.solver": ("SolverLoop", "SolverResult", "SolverStep"),
    "repro.flow.distributed": (
        "BrokerUnreachableError",
        "DistributedExecutor",
        "Transport",
        "TransportClosedError",
        "WorkerCrashError",
        "run_worker",
    ),
    "repro.flow.nettransport": (
        "BrokerAuthError",
        "BrokerServer",
        "MemoryTransport",
        "RemoteStageCache",
        "TcpTransport",
        "run_tcp_worker",
    ),
    "repro.flow.service": (
        "BrokerBusyError",
        "JobService",
        "ServiceClient",
        "ServiceExecutor",
        "SweepJob",
        "UnknownJobError",
        "attach_job",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "FlowOptions",
    "SystemOptions",
    "FlowResult",
    "Program",
    "ProgramKernel",
    "ProgramResult",
    "compile_program",
    "compile_any",
    "is_program_text",
    "SolverLoop",
    "SolverResult",
    "SolverStep",
    "write_artifacts",
    "Flow",
    "FlowTrace",
    "CacheBackend",
    "StageCache",
    "DiskStageCache",
    "SingleFlight",
    "FileSingleFlight",
    "StageEvent",
    "compile_many",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "DistributedExecutor",
    "Transport",
    "MemoryTransport",
    "TcpTransport",
    "BrokerServer",
    "RemoteStageCache",
    "WorkerCrashError",
    "TransportClosedError",
    "BrokerUnreachableError",
    "BrokerAuthError",
    "BrokerBusyError",
    "UnknownJobError",
    "JobService",
    "ServiceClient",
    "ServiceExecutor",
    "SweepJob",
    "attach_job",
    "NamespacedStageCache",
    "namespaced_key",
    "run_worker",
    "run_tcp_worker",
    "executor_names",
    "get_executor",
    "Stage",
    "get_stage",
    "registered_stages",
    "stage_names",
]
