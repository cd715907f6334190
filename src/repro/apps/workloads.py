"""Multi-kernel SEM workload suites built from the single-operator apps.

Each suite packages a :class:`~repro.flow.program.Program` (ordered
CFDlang kernels sharing tensors), the solver carry map (which outputs
feed back as inputs on the next time step), and synthetic element data
to drive it — everything the ``program``/``solve`` CLI verbs, the
examples, and the solver-loop benchmark need.

The suites deliberately overlap: every one of them contains the *same*
``helmholtz`` kernel (the paper's Fig. 1 operator), so compiling two
suites against one stage cache demonstrates per-kernel front-end
sharing across programs.

``smoother``
    Damped Richardson-style iteration: apply the inverse-Helmholtz
    operator, then ``w = u + D * v``; ``w`` carries back into ``u``.
``helmholtz-gradient``
    Operator chain: inverse Helmholtz produces ``v``, then the spectral
    gradient differentiates ``v`` — the second kernel consumes the
    first's output inside one batch.
``fem-cfd``
    Per-time-step operator suite on a shared state ``u``: interpolation
    to quadrature points, inverse Helmholtz, and gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict

from repro.apps.gradient import chebyshev_diff_matrix
from repro.apps.helmholtz import inverse_helmholtz_program
from repro.apps.interpolation import lagrange_interpolation_matrix
from repro.cfdlang import Program as CfdlangAst, ProgramBuilder
from repro.errors import SystemGenerationError
from repro.flow.program import Program

if TYPE_CHECKING:
    import numpy as np


def gradient_kernel(n: int, state: str = "u") -> CfdlangAst:
    """Spectral gradient of the named state tensor (``gx``/``gy``/``gz``).

    Parameterizing the differentiated tensor's name lets the same
    operator slot into a chain after another kernel (e.g. differentiate
    the Helmholtz output ``v`` instead of the raw state ``u``).
    """
    b = ProgramBuilder()
    Dm = b.input("Dm", (n, n))
    u = b.input(state, (n, n, n))
    gx = b.output("gx", (n, n, n))
    gy = b.output("gy", (n, n, n))
    gz = b.output("gz", (n, n, n))
    b.assign(gx, b.contract(b.outer(Dm, u), [(1, 2)]))
    b.assign(gy, b.contract(b.outer(Dm, u), [(1, 3)]))
    b.assign(gz, b.contract(b.outer(Dm, u), [(1, 4)]))
    return b.build()


def update_kernel(n: int) -> CfdlangAst:
    """Smoother update ``w = u + D * v`` (damped correction step)."""
    b = ProgramBuilder()
    u = b.input("u", (n, n, n))
    D = b.input("D", (n, n, n))
    v = b.input("v", (n, n, n))
    w = b.output("w", (n, n, n))
    b.assign(w, b.add(u, b.hadamard(D, v)))
    return b.build()


def interpolation_kernel(n: int, q: int) -> CfdlangAst:
    """Interpolate state ``u`` to ``q`` quadrature points (output ``uq``)."""
    b = ProgramBuilder()
    I = b.input("I", (q, n))
    u = b.input("u", (n, n, n))
    uq = b.output("uq", (q, q, q))
    b.assign(uq, b.contract(b.outer(I, I, I, u), [(1, 6), (3, 7), (5, 8)]))
    return b.build()


@dataclass(frozen=True)
class Workload:
    """A ready-to-run multi-kernel workload.

    ``carry`` maps chain outputs back to streamed inputs between solver
    steps (empty = plain repeated application); ``elements`` are the
    streamed ``(Ne, *shape)`` stacks, ``static`` the shared operands.
    """

    program: Program
    carry: Dict[str, str] = field(default_factory=dict)
    elements: Dict[str, np.ndarray] = field(default_factory=dict)
    static: Dict[str, np.ndarray] = field(default_factory=dict)


def _element_state(
    n: int, n_elements: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.standard_normal((n_elements, n, n, n))


def _helmholtz_operands(
    n: int, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    # mirrors apps.helmholtz.make_element_data: a well-conditioned
    # spectral operator and a positive factor field
    import numpy as np

    return {
        "S": rng.standard_normal((n, n)) / np.sqrt(n) + np.eye(n),
        "D": 0.5 + rng.random((n, n, n)),
    }


def smoother_program(n: int = 8) -> Program:
    return (
        Program("smoother")
        .add_kernel("helmholtz", inverse_helmholtz_program(n))
        .add_kernel("update", update_kernel(n))
    )


def helmholtz_gradient_program(n: int = 8) -> Program:
    return (
        Program("helmholtz-gradient")
        .add_kernel("helmholtz", inverse_helmholtz_program(n))
        .add_kernel("gradient", gradient_kernel(n, state="v"))
    )


def fem_cfd_program(n: int = 8, q: int = 0) -> Program:
    return (
        Program("fem-cfd")
        .add_kernel("interpolate", interpolation_kernel(n, q or n + 2))
        .add_kernel("helmholtz", inverse_helmholtz_program(n))
        .add_kernel("gradient", gradient_kernel(n, state="u"))
    )


def smoother_workload(
    n: int = 8, n_elements: int = 4, seed: int = 2021
) -> Workload:
    import numpy as np

    rng = np.random.default_rng(seed)
    return Workload(
        program=smoother_program(n),
        carry={"w": "u"},
        elements={"u": _element_state(n, n_elements, rng)},
        static=_helmholtz_operands(n, rng),
    )


def helmholtz_gradient_workload(
    n: int = 8, n_elements: int = 4, seed: int = 2021
) -> Workload:
    import numpy as np

    rng = np.random.default_rng(seed)
    static = _helmholtz_operands(n, rng)
    static["Dm"] = chebyshev_diff_matrix(n)
    return Workload(
        program=helmholtz_gradient_program(n),
        elements={"u": _element_state(n, n_elements, rng)},
        static=static,
    )


def fem_cfd_workload(
    n: int = 8, n_elements: int = 4, seed: int = 2021, q: int = 0
) -> Workload:
    import numpy as np

    rng = np.random.default_rng(seed)
    q = q or n + 2
    static = _helmholtz_operands(n, rng)
    static["I"] = lagrange_interpolation_matrix(n, q)
    static["Dm"] = chebyshev_diff_matrix(n)
    return Workload(
        program=fem_cfd_program(n, q),
        elements={"u": _element_state(n, n_elements, rng)},
        static=static,
    )


#: suite name -> the builder of its program alone (no element data)
SUITE_PROGRAMS: Dict[str, Callable[[int], Program]] = {
    "smoother": smoother_program,
    "helmholtz-gradient": helmholtz_gradient_program,
    "fem-cfd": fem_cfd_program,
}

WORKLOAD_SUITES: Dict[str, Callable[..., Workload]] = {
    "smoother": smoother_workload,
    "helmholtz-gradient": helmholtz_gradient_workload,
    "fem-cfd": fem_cfd_workload,
}


def _suite_entry(table: Dict[str, Callable], suite: str) -> Callable:
    try:
        return table[suite]
    except KeyError:
        raise SystemGenerationError(
            f"unknown workload suite {suite!r}; suites are: "
            f"{', '.join(WORKLOAD_SUITES)}"
        ) from None


def suite_program(suite: str, n: int = 8) -> Program:
    """The program of a named suite, without generating its element data
    (so compiling a suite never imports NumPy)."""
    return _suite_entry(SUITE_PROGRAMS, suite)(n)


def make_workload(
    suite: str, n: int = 8, n_elements: int = 4, seed: int = 2021
) -> Workload:
    """Build a named workload suite (see :data:`WORKLOAD_SUITES`)."""
    factory = _suite_entry(WORKLOAD_SUITES, suite)
    return factory(n=n, n_elements=n_elements, seed=seed)
