"""ARM Cortex-A53 cost model for the software baselines (Fig. 10).

Two software variants run on the ZCU106's A53 @ 1.2 GHz:

* **SW Ref** — the reference implementation of the operator (idiomatic C,
  multi-dimensional arrays, register accumulation);
* **SW HLS code** — the C code generated for HLS executed on the CPU,
  which is slower due to flattened explicit addressing (paper: 0.90x).

The per-operation CPIs live in :class:`~repro.system.platform_data.
PlatformModel` and are calibrated to the paper's measured relations
(HW k=1 = 0.69x SW Ref); the *structure* (MAC/load/store/loop counts) is
derived from the IR, so other kernels scale accordingly.

:func:`measured_sw_seconds_per_element` complements the analytic model
with an actual measurement: the generated C kernel compiled and timed on
the host through the ``cnative`` execution backend (skipping cleanly
when no C compiler is available).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.system.platform_data import DEFAULT_PLATFORM, PlatformModel
from repro.teil.ops import Contraction, Ewise, EwiseKind
from repro.teil.program import Function
from repro.utils import prod


@dataclass(frozen=True)
class CpuModel:
    """A CPU with a clock and the platform's calibrated CPIs."""

    mhz: float = 1_200.0
    platform: PlatformModel = DEFAULT_PLATFORM

    @property
    def hz(self) -> float:
        return self.mhz * 1e6


def _statement_cycles(
    stmt, shapes: Dict[str, Tuple[int, ...]], p: PlatformModel, flat_addressing: bool
) -> float:
    op = stmt.op
    if isinstance(op, Contraction):
        extents = op.index_extents(shapes)
        iters = prod(extents[i] for i in op.all_indices)
        out_elems = prod(op.output_shape(shapes))
        loads = len(op.operands)
        per_iter = p.cpu_fma_cpi + loads * p.cpu_load_cpi + p.cpu_loop_cpi
        if flat_addressing:
            per_iter += (loads + 1) * p.cpu_addr_cpi_per_access
        return iters * per_iter + out_elems * p.cpu_store_cpi
    if isinstance(op, Ewise):
        n = prod(op.output_shape(shapes))
        op_cpi = p.cpu_mul_cpi if op.kind in (EwiseKind.MUL, EwiseKind.DIV) else p.cpu_fma_cpi
        per_iter = op_cpi + 2 * p.cpu_load_cpi + p.cpu_store_cpi + p.cpu_loop_cpi
        if flat_addressing:
            per_iter += 3 * p.cpu_addr_cpi_per_access
        return n * per_iter
    raise SimulationError(f"unknown op {type(op).__name__}")


def sw_ref_cycles_per_element(fn: Function, platform: PlatformModel = DEFAULT_PLATFORM) -> float:
    """CPU cycles per element for the reference software implementation."""
    shapes = fn.shapes()
    return sum(_statement_cycles(s, shapes, platform, False) for s in fn.statements)


def sw_hls_c_cycles_per_element(fn: Function, platform: PlatformModel = DEFAULT_PLATFORM) -> float:
    """CPU cycles per element for the HLS-generated C run on the CPU."""
    shapes = fn.shapes()
    return sum(_statement_cycles(s, shapes, platform, True) for s in fn.statements)


def simulate_software(
    fn: Function,
    n_elements: int,
    cpu: CpuModel = CpuModel(),
    variant: str = "ref",
) -> float:
    """Wall-clock seconds for a full software simulation of Ne elements."""
    if variant == "ref":
        per = sw_ref_cycles_per_element(fn, cpu.platform)
    elif variant == "hls_c":
        per = sw_hls_c_cycles_per_element(fn, cpu.platform)
    else:
        raise SimulationError(f"unknown software variant {variant!r}")
    return n_elements * per / cpu.hz


def measured_sw_seconds_per_element(
    fn: Function,
    prog=None,
    *,
    n_elements: int = 64,
    backend: str = "cnative",
) -> Optional[float]:
    """Measured seconds/element of the compiled software kernel, or None.

    Validates the analytic cost model above with a real number: the same
    generated C the SW-HLS-code baseline models is compiled by the host
    toolchain and timed over an ``n_elements`` batch via the ``cnative``
    execution backend (:mod:`repro.exec`).  The host is of course not
    the A53 the paper measured, so the *absolute* value only anchors the
    model's structural counts — ratios between kernels are what transfer.

    Returns None (a clean skip, no exception) when the backend is
    unavailable — e.g. no C compiler in the environment — so model-only
    callers like the Fig. 10 benchmark degrade gracefully.
    """
    import numpy as np

    from repro.exec import get_backend

    b = get_backend(backend)
    if not b.available():
        return None
    rng = np.random.default_rng(7)
    elements = {}
    static = {}
    for d in fn.inputs():
        # stream the largest-rank state tensor(s), share the operators:
        # mirrors the system model's static/streamed interface split
        if len(d.shape) == max(len(i.shape) for i in fn.inputs()):
            elements[d.name] = rng.standard_normal((n_elements,) + d.shape)
        else:
            static[d.name] = rng.standard_normal(d.shape)
    if not elements:  # all-static kernel: stream everything instead
        elements = {
            d.name: rng.standard_normal((n_elements,) + d.shape)
            for d in fn.inputs()
        }
        static = {}
    warmup = {name: arr[:1] for name, arr in elements.items()}
    b.run_batch(fn, warmup, static, list(warmup), prog=prog)
    # the warmup run pays the one-time C compile; the timed run measures
    # only kernel execution, which is what the cost model predicts
    t0 = time.perf_counter()
    b.run_batch(fn, elements, static, list(elements), prog=prog)
    seconds = time.perf_counter() - t0
    return seconds / n_elements
