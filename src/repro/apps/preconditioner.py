"""Diagonal (Jacobi) preconditioner application — exercises entry-wise
division and addition, the remaining CFDlang operators.

    z = r / d                      (Jacobi preconditioning)
    w = u + z * s                  (preconditioned update step)

Small but representative of the entry-wise stages appearing between the
contraction-heavy operators in SEM solvers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.cfdlang import Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def preconditioner_program(n: int = 8) -> Program:
    b = ProgramBuilder()
    r = b.input("r", (n, n, n))
    d = b.input("d", (n, n, n))
    u = b.input("u", (n, n, n))
    s = b.input("s", (n, n, n))
    w = b.output("w", (n, n, n))
    z = b.local("z", (n, n, n))
    b.assign(z, b.div(r, d))
    b.assign(w, b.add(u, b.hadamard(z, s)))
    return b.build()


def reference_preconditioner(
    r: np.ndarray, d: np.ndarray, u: np.ndarray, s: np.ndarray
) -> np.ndarray:
    return u + (r / d) * s


def make_preconditioner_data(n: int = 8, seed: int = 0) -> Tuple[dict, np.ndarray]:
    import numpy as np

    rng = np.random.default_rng(seed)
    data = {
        "r": rng.standard_normal((n, n, n)),
        "d": 1.0 + rng.random((n, n, n)),  # bounded away from zero
        "u": rng.standard_normal((n, n, n)),
        "s": rng.standard_normal((n, n, n)),
    }
    return data, reference_preconditioner(**data)
