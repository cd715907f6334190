"""The compiler flow as explicit, composable stages.

Each phase of the CFDlang-to-FPGA flow (Fig. 3) is a :class:`Stage` with
declared inputs/outputs, registered in a linear pipeline registry.  A stage
consumes named entries of the flow state (a plain ``{key: artifact}`` dict)
and produces new entries; the special key ``"source"`` is seeded by the
:class:`~repro.flow.session.Flow` session from the user's DSL text or AST.

Stages also declare which :class:`~repro.flow.options.FlowOptions` fields
they depend on (via ``params``), which is what makes the stage cache sound:
a stage's cache key is derived from its producers' keys plus its own
parameter fingerprint, so a sweep that varies only late parameters (e.g.
``SharingMode`` or the clock) reuses every front-end artifact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.cfdlang import analyze, parse_program
from repro.cfdlang.ast import Program
from repro.codegen import generate_kernel
from repro.errors import ReproError, SystemGenerationError
from repro.flow.options import FlowOptions
from repro.layout import Layout, default_layouts
from repro.memory import CompatibilityGraph, build_compatibility_graph
from repro.mnemosyne import PortClass, build_memory_subsystem
from repro.mnemosyne.config import config_from_compat, port_class_assignment
from repro.poly.reschedule import RescheduleOptions, reschedule
from repro.poly.schedule import reference_schedule
from repro.teil import canonicalize, lower_program
from repro.teil.program import Function

#: bump when a stage's semantics change, to invalidate stale cache entries
#: (5: HBM memory architectures — the ``bank-assign`` stage between
#: build-system and simulate, Board grew a MemorySystem (its repr feeds
#: the build-system key), and simulate consults the banking report;
#: 4: chain fusion — port-class assignment honors streamed-input hints
#: on fused functions, and function-seeded sessions join the same
#: content-keyed namespace; 3: per-kernel cache granularity —
#: canonicalized source keys and content-keyed TeIL rekeying changed
#: every downstream key)
STAGE_API_VERSION = 5

StageFn = Callable[[Mapping[str, object], FlowOptions], Dict[str, object]]
ParamFn = Callable[[FlowOptions], Tuple]


def _no_params(options: FlowOptions) -> Tuple:
    return ()


@dataclass(frozen=True)
class Stage:
    """One named compiler phase with declared dataflow.

    ``inputs`` name the state entries the stage reads; ``outputs`` the
    entries it writes.  ``params`` extracts the (hashable) option values
    the stage's result depends on — anything not listed is assumed not to
    influence the outputs, which is what permits cross-run cache reuse.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    run: StageFn = field(repr=False)
    params: ParamFn = field(default=_no_params, repr=False)
    description: str = ""


_REGISTRY: "Dict[str, Stage]" = {}


def register_stage(stage: Stage) -> Stage:
    if stage.name in _REGISTRY:
        raise ValueError(f"duplicate stage {stage.name!r}")
    for out in stage.outputs:
        if any(out in s.outputs for s in _REGISTRY.values()):
            raise ValueError(f"state key {out!r} produced by two stages")
    _REGISTRY[stage.name] = stage
    return stage


def registered_stages() -> List[Stage]:
    """All stages in pipeline order."""
    return list(_REGISTRY.values())


def stage_names() -> List[str]:
    return list(_REGISTRY)


def get_stage(name: str) -> Stage:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SystemGenerationError(
            f"unknown stage {name!r}; stages are: {', '.join(_REGISTRY)}"
        ) from None


def producer_of(state_key: str) -> str:
    """Name of the stage producing ``state_key`` (or 'source' for the seed)."""
    if state_key == "source":
        return "source"
    for stage in _REGISTRY.values():
        if state_key in stage.outputs:
            return stage.name
    raise SystemGenerationError(f"no stage produces state key {state_key!r}")


def _directives_fingerprint(options: FlowOptions) -> Tuple:
    d = options.directives
    return (
        d.pipeline,
        d.pipeline_ii,
        d.unroll_factor,
        tuple(sorted(d.array_partition.items())),
    )


# ---------------------------------------------------------------------------
# stage bodies
# ---------------------------------------------------------------------------

def _run_parse(state, options):
    source = state["source"]
    program = parse_program(source) if isinstance(source, str) else source
    return {"ast": program}


def _run_analyze(state, options):
    program = state["ast"]
    analyze(program)
    return {"program": program}


def _run_lower(state, options):
    fn = canonicalize(
        lower_program(state["program"], options.kernel_name, analyzed=True),
        factorize=options.factorize,
    )
    return {"function": fn}


def layouts_for(fn: Function, options: FlowOptions) -> Dict[str, Layout]:
    """Materialize layouts, applying (validated) user overrides."""
    layouts = default_layouts(fn.shapes())
    for name, kind in options.layout_overrides.items():
        if name not in fn.decls:
            raise SystemGenerationError(
                f"layout override for undeclared tensor {name!r}; "
                f"declared tensors are: {', '.join(sorted(fn.decls))}"
            )
        decl = fn.decls[name]
        if kind == "row_major":
            layouts[name] = Layout.row_major(name, decl.shape)
        elif kind == "column_major":
            layouts[name] = Layout.column_major(name, decl.shape)
        else:
            raise SystemGenerationError(f"unknown layout {kind!r} for {name!r}")
    return layouts


def _run_layouts(state, options):
    return {"layouts": layouts_for(state["function"], options)}


def _run_schedule(state, options):
    return {"poly_ref": reference_schedule(state["function"], state["layouts"])}


def _run_reschedule(state, options):
    poly = reschedule(
        state["poly_ref"],
        RescheduleOptions(
            reduction_placement=options.effective_reduction_placement()
        ),
    )
    return {"poly": poly}


def _run_codegen(state, options):
    kernel = generate_kernel(
        state["poly"],
        directives=options.directives,
        temporaries_internal=options.temporaries_internal,
        name=options.kernel_name,
    )
    return {"kernel": kernel}


def _run_compat(state, options):
    return {"compat": build_compatibility_graph(state["poly"])}


def _run_port_classes(state, options):
    return {"port_classes": port_class_assignment(state["poly"])}


def _run_mnemosyne_config(state, options):
    fn = state["function"]
    compat = state["compat"]
    port_classes = state["port_classes"]
    if options.temporaries_internal:
        # Only interface arrays are exported; the kernel's internal schedule
        # is invisible to Mnemosyne, so no compatibility metadata applies
        # ("Mnemosyne only as PLM generator").  The accelerator serializes
        # rounds itself, so single-port PLMs suffice, and small static
        # operands stay inside the kernel as LUTRAM.
        from repro.mnemosyne.bram import hls_internal_is_lutram

        iface = [d.name for d in fn.interface()]
        keep = [
            a
            for a in iface
            if not (
                port_classes[a] is PortClass.ACCELERATOR_ONLY
                and hls_internal_is_lutram(compat.sizes[a])
            )
        ]
        compat_ifc = CompatibilityGraph(
            arrays=keep,
            interface_arrays=keep,
            sizes={a: compat.sizes[a] for a in keep},
            liveness={a: compat.liveness[a] for a in keep},
            address_space_edges=set(),
            interface_edges=set(),
        )
        mn_config = config_from_compat(
            compat_ifc, {a: PortClass.ACCELERATOR_ONLY for a in keep}
        )
    else:
        mn_config = config_from_compat(
            compat, port_classes, banks=dict(options.directives.array_partition)
        )
    return {"mnemosyne_config": mn_config}


def _run_memory(state, options):
    compat = state["compat"]
    mn_config = state["mnemosyne_config"]
    if options.partition_merges and not options.temporaries_internal:
        # Explicit address-space sharing via partitioning maps (Sec. IV-D):
        # the user-declared merge map is validated (injective fixpoint +
        # lifetime disjointness) and handed to Mnemosyne as fixed groups.
        from repro.layout.partition import merge_arrays

        declared = set(state["function"].decls)
        for target, group in options.partition_merges.items():
            for a in group:
                if a not in declared:
                    raise SystemGenerationError(
                        f"partition map {target!r} merges undeclared tensor "
                        f"{a!r}; declared tensors are: {', '.join(sorted(declared))}"
                    )
        pm = merge_arrays({k: list(v) for k, v in options.partition_merges.items()})
        pm.check_fixpoint()
        sizes = {a: compat.sizes[a] for a in pm.sources()}
        overlapping = pm.overlapping_pairs(sizes)
        for a, b in overlapping:
            if not compat.address_space_compatible(a, b):
                raise SystemGenerationError(
                    f"partition map merges {a!r} and {b!r}, whose lifetimes overlap"
                )
        merged = {a for group in options.partition_merges.values() for a in group}
        groups = [tuple(v) for v in options.partition_merges.values()]
        groups += [(a,) for a in mn_config.arrays if a not in merged]
        memory = build_memory_subsystem(mn_config, options.sharing, groups=groups)
    else:
        memory = build_memory_subsystem(mn_config, options.sharing)
    return {"memory": memory}


def _run_hls_synth(state, options):
    from repro.hls import synthesize

    hls = synthesize(
        state["kernel"],
        options.directives,
        clock_mhz=options.clock_mhz,
        fuse_init=options.fuse_init,
    )
    return {"hls": hls}


def assemble_system(hls, memory, function, port_classes, options, k=None, m=None):
    """Assemble one kernel's k x m system on the options' board.

    With k and m both None the maximum-parallelism configuration is
    chosen (Eq. 3).  Raises :class:`SystemGenerationError` when only one
    of k/m is given or when the configuration does not fit the board.
    The ``build-system`` stage and
    :meth:`~repro.flow.session.FlowResult.build_system` both assemble
    systems here.
    """
    from repro.system.integration import build_system, transfer_footprint
    from repro.system.replicate import max_parallel_config

    if (k is None) != (m is None):
        raise SystemGenerationError("specify both k and m, or neither")
    board = options.resolved_board()
    if k is None:
        choice = max_parallel_config(
            hls.resources, memory, board, options.platform
        )
        k, m = choice.k, choice.m
    footprint = transfer_footprint(function, port_classes)
    return build_system(
        hls,
        memory,
        k,
        m,
        board=board,
        platform=options.platform,
        bytes_in_per_element=footprint.bytes_in_per_element,
        bytes_out_per_element=footprint.bytes_out_per_element,
        static_bytes=footprint.static_bytes,
    )


def simulate_design(system, n_elements, options, banking):
    """Simulate ``system`` over ``n_elements`` under the options'
    transfer strategy; ``banking`` is the HBM report sized for this
    system's (k, m), or None for the board's DDR model."""
    from repro.sim.simulator import simulate_system

    return simulate_system(
        system,
        n_elements,
        overlap_transfers=options.system.overlap_transfers,
        banking=banking,
    )


def _run_build_system(state, options):
    k, m = options.system.k, options.system.m
    try:
        system = assemble_system(
            state["hls"],
            state["memory"],
            state["function"],
            state["port_classes"],
            options,
            k,
            m,
        )
    except SystemGenerationError:
        if k is not None or m is not None:
            raise
        # auto-sizing on a design whose single kernel already exceeds
        # the board: not an error for the flow as a whole — the system
        # artifact is simply absent (explicit k/m still raise)
        system = None
    return {"system": system}


def _run_functional_batch(state, options):
    """Execute a functional smoke batch with the selected backend.

    Streamed inputs are the interface arrays the system transfers per
    element (the transfer footprint's streamed inputs); everything else
    gets deterministic static data.  Returns the throughput record.
    """
    import time

    import numpy as np

    from repro.exec import FunctionalRecord, require_backend
    from repro.system.integration import transfer_footprint

    prog = state["poly"]
    fn = prog.function
    backend = require_backend(options.system.exec_backend)
    ne = options.system.functional_elements
    footprint = transfer_footprint(fn, state["port_classes"])
    streamed = [d.name for d in fn.inputs() if d.name in footprint.streamed]
    rng = np.random.default_rng(0)
    elements = {n: rng.random((ne,) + fn.decls[n].shape) for n in streamed}
    static = {
        d.name: rng.random(d.shape)
        for d in fn.inputs()
        if d.name not in set(streamed)
    }
    t0 = time.perf_counter()
    backend.run_batch(fn, elements, static, streamed, prog=prog)
    seconds = time.perf_counter() - t0
    return FunctionalRecord(
        backend=backend.name, n_elements=ne, seconds=seconds
    )


def _run_bank_assign(state, options):
    """Assign transfer-footprint tensors to HBM pseudo-channels.

    Under the default ``memory_model="bram"`` the stage is the identity
    (``banking`` is None), which keeps every BRAM-only cache key,
    simulation, and functional result exactly as before the stage
    existed.  Under ``"hbm"`` the demand set is derived from the built
    system's element rate — k accelerators finishing a round every
    (latency + control) cycles — and mapped onto the board's channels.
    """
    system = state["system"]
    if options.system.memory_model != "hbm" or system is None:
        return {"banking": None}
    board = options.resolved_board()
    if not board.memory.has_hbm:
        from repro.system.board import boards

        with_hbm = sorted(
            b.name for b in boards().values() if b.memory.has_hbm
        )
        raise SystemGenerationError(
            f"memory_model='hbm' but board {board.name!r} describes no HBM "
            f"channels; boards with HBM: "
            + (", ".join(with_hbm) or "none registered")
        )
    from repro.mnemosyne.hbm import assign_banks, demands_from_footprint
    from repro.system.integration import transfer_footprint

    p = options.platform
    round_cycles = (
        system.hls.latency_cycles + p.control_cycles_per_round(system.k)
    )
    elements_per_sec = system.k * system.clock_hz / round_cycles
    footprint = transfer_footprint(state["function"], state["port_classes"])
    demands = demands_from_footprint(
        footprint,
        state["function"].decls,
        elements_per_sec=elements_per_sec,
        n_elements=options.system.n_elements,
    )
    mem = board.memory
    return {
        "banking": assign_banks(
            demands,
            board=board.name,
            n_channels=mem.hbm_channels,
            channel_bytes_per_sec=mem.hbm_channel_bytes_per_sec,
            channel_bytes=mem.hbm_channel_bytes,
            demanded_elements_per_sec=elements_per_sec,
        )
    }


def _run_simulate(state, options):
    functional = (
        _run_functional_batch(state, options)
        if options.system.exec_backend is not None
        else None
    )
    system = state["system"]
    sim = (
        None
        if system is None
        else simulate_design(
            system, options.system.n_elements, options, state.get("banking")
        )
    )
    return {"sim": sim, "functional": functional}


# ---------------------------------------------------------------------------
# the registry, in pipeline order
# ---------------------------------------------------------------------------

register_stage(Stage(
    name="parse",
    inputs=("source",),
    outputs=("ast",),
    run=_run_parse,
    description="CFDlang text to AST (built ASTs pass through)",
))
register_stage(Stage(
    name="analyze",
    inputs=("ast",),
    outputs=("program",),
    run=_run_analyze,
    description="semantic analysis: names, shapes, kinds",
))
register_stage(Stage(
    name="lower",
    inputs=("program",),
    outputs=("function",),
    run=_run_lower,
    params=lambda o: (o.kernel_name, o.factorize),
    description="lower to TeIL + canonicalize (contraction factorization)",
))
register_stage(Stage(
    name="layouts",
    inputs=("function",),
    outputs=("layouts",),
    run=_run_layouts,
    params=lambda o: tuple(sorted(o.layout_overrides.items())),
    description="materialize memory layouts (row/column-major overrides)",
))
register_stage(Stage(
    name="schedule",
    inputs=("function", "layouts"),
    outputs=("poly_ref",),
    run=_run_schedule,
    description="reference polyhedral schedule",
))
register_stage(Stage(
    name="reschedule",
    inputs=("poly_ref",),
    outputs=("poly",),
    run=_run_reschedule,
    params=lambda o: (o.effective_reduction_placement(),),
    description="dependence-driven rescheduling (reduction placement)",
))
register_stage(Stage(
    name="codegen",
    inputs=("poly",),
    outputs=("kernel",),
    run=_run_codegen,
    params=lambda o: (
        _directives_fingerprint(o),
        o.temporaries_internal,
        o.kernel_name,
    ),
    description="C99/HLS kernel code generation",
))
register_stage(Stage(
    name="compat",
    inputs=("poly",),
    outputs=("compat",),
    run=_run_compat,
    description="liveness-driven memory compatibility graph",
))
register_stage(Stage(
    name="port-classes",
    inputs=("poly",),
    outputs=("port_classes",),
    run=_run_port_classes,
    description="port class assignment (accelerator/system visibility)",
))
register_stage(Stage(
    name="mnemosyne-config",
    inputs=("function", "compat", "port_classes"),
    outputs=("mnemosyne_config",),
    run=_run_mnemosyne_config,
    params=lambda o: (
        o.temporaries_internal,
        tuple(sorted(o.directives.array_partition.items())),
    ),
    description="Mnemosyne specification from the compatibility graph",
))
register_stage(Stage(
    name="memory",
    inputs=("function", "compat", "mnemosyne_config"),
    outputs=("memory",),
    run=_run_memory,
    params=lambda o: (
        o.sharing.value,
        o.temporaries_internal,
        tuple(sorted((k, tuple(v)) for k, v in o.partition_merges.items())),
    ),
    description="memory subsystem generation (PLM sharing)",
))
register_stage(Stage(
    name="hls-synth",
    inputs=("kernel",),
    outputs=("hls",),
    run=_run_hls_synth,
    params=lambda o: (_directives_fingerprint(o), o.clock_mhz, o.fuse_init),
    description="HLS synthesis model (latency + resources)",
))
register_stage(Stage(
    name="build-system",
    inputs=("function", "port_classes", "memory", "hls"),
    outputs=("system",),
    run=_run_build_system,
    params=lambda o: (
        o.system.k,
        o.system.m,
        repr(o.resolved_board()),
        repr(o.platform),
    ),
    description="k x m system assembly on the target board (Fig. 7)",
))
register_stage(Stage(
    name="bank-assign",
    inputs=("system", "function", "port_classes"),
    outputs=("banking",),
    run=_run_bank_assign,
    params=lambda o: (
        o.system.memory_model,
        o.system.n_elements,
    ),
    description=(
        "tensor -> HBM pseudo-channel assignment under per-channel "
        "bandwidth/capacity constraints (memory_model='hbm'; identity "
        "under 'bram')"
    ),
))
register_stage(Stage(
    name="simulate",
    inputs=("system", "poly", "port_classes", "banking"),
    outputs=("sim", "functional"),
    run=_run_simulate,
    params=lambda o: (
        o.system.n_elements,
        o.system.overlap_transfers,
        o.system.exec_backend,
        o.system.functional_elements,
    ),
    description=(
        "end-to-end performance simulation (Ne elements) + optional "
        "functional batch on the selected execution backend"
    ),
))

FINAL_STAGE = stage_names()[-1]

#: the stages whose outputs feed system assembly — everything before
#: ``build-system``.  A k x m x board sweep re-runs only what follows.
FRONT_END_STAGES = tuple(stage_names()[: stage_names().index("build-system")])
SYSTEM_STAGES = ("build-system", "bank-assign", "simulate")

#: the stages that run per fused *group* when a program compiles under a
#: fusion plan: everything after ``lower``.  The per-kernel front end
#: (parse/analyze/lower) always runs per member kernel — that is what
#: keeps fused and unfused compiles sharing front-end cache entries.
FUSED_GROUP_STAGES = tuple(
    stage_names()[stage_names().index("lower") + 1:]
)


def source_fingerprint(source) -> str:
    """Stable text identity of a flow input.

    Accepts single-kernel inputs (DSL text or a built
    :class:`~repro.cfdlang.ast.Program` AST) and multi-kernel
    :class:`~repro.flow.program.Program` values, which serialize to
    their sectioned text form — the representation job specs ship to
    process pools and broker workers.
    """
    if isinstance(source, str):
        return source
    if isinstance(source, Program):
        from repro.cfdlang.printer import print_program

        return print_program(source)
    # lazy: repro.flow.program imports this module
    from repro.flow.program import Program as KernelProgram

    if isinstance(source, KernelProgram):
        return source.to_text()
    raise SystemGenerationError(
        f"flow input must be CFDlang text, a Program AST, or a "
        f"flow Program, got {type(source).__name__}"
    )


def kernel_fingerprint(source) -> str:
    """Canonical content identity of one kernel's flow input.

    Unlike :func:`source_fingerprint` (which preserves raw text for
    faithful spec shipping), this parses DSL text and reprints it
    through the canonical printer, so whitespace- or comment-different
    sources of the same kernel — and a built AST next to its text form —
    produce identical stage-cache keys.  Text that does not parse keeps
    its raw identity; the ``parse`` stage will raise the real error.
    """
    if isinstance(source, str):
        return _canonical_text(source)
    return source_fingerprint(source)


@functools.lru_cache(maxsize=64)
def _canonical_text(source: str) -> str:
    """Parse and reprint DSL text, memoized: every point of a sweep
    builds its :class:`~repro.flow.session.Flow` from the same few
    kernel texts, and a worker would otherwise parse each one again per
    point.  Bounded, and the results are immutable strings."""
    try:
        from repro.cfdlang.printer import print_program

        return print_program(parse_program(source))
    except ReproError:
        return source


#: state keys whose cache identity is the *content* of the artifact, not
#: the chain of keys that produced it.  The TeIL function is the flow's
#: per-kernel narrow waist: every later stage is a pure function of it
#: plus its own declared option slice, so keying downstream work off its
#: fingerprint lets kernels that lower identically — across programs,
#: solver steps, or textual variants — share everything after ``lower``.
CONTENT_KEYED_OUTPUTS: Dict[str, Callable[[object], str]] = {
    "function": lambda fn: fn.fingerprint(),
}
