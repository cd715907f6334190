"""SEM interpolation operator: evaluate an element solution on a finer grid.

Interpolation is the paper's canonical "simpler operator" subsumed by the
Inverse Helmholtz (Sec. II-A).  With an interpolation matrix ``I`` of shape
``(q, n)`` (from ``n`` nodal points to ``q`` quadrature points):

    w_abc = sum_lmn  I_al I_bm I_cn u_lmn
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cfdlang import Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def interpolation_program(n: int = 8, q: int = 12) -> Program:
    """CFDlang program ``w = (I x I x I) u`` with rectangular ``I``."""
    b = ProgramBuilder()
    I = b.input("I", (q, n))
    u = b.input("u", (n, n, n))
    w = b.output("w", (q, q, q))
    b.assign(w, b.contract(b.outer(I, I, I, u), [(1, 6), (3, 7), (5, 8)]))
    return b.build()


def reference_interpolation(I: np.ndarray, u: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.einsum("al,bm,cn,lmn->abc", I, I, I, u)


def lagrange_interpolation_matrix(n: int, q: int) -> np.ndarray:
    """Lagrange basis evaluation from ``n`` Chebyshev nodes to ``q`` uniform
    points — a realistic SEM interpolation operator for the examples."""
    import numpy as np

    nodes = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    targets = np.linspace(-1.0, 1.0, q)
    I = np.empty((q, n))
    for j in range(n):
        others = np.delete(nodes, j)
        denom = np.prod(nodes[j] - others)
        for a in range(q):
            I[a, j] = np.prod(targets[a] - others) / denom
    return I
