"""SEM gradient operator: directional derivatives of an element solution.

With a 1-D differentiation matrix ``Dm`` of shape ``(n, n)``:

    gx_ajk = sum_l Dm_al u_ljk      (derivative along the first axis)
    gy_aik = sum_m Dm_am u_imk      (second axis; result dims [a i k])
    gz_aij = sum_n Dm_an u_ijn      (third axis;  result dims [a i j])

CFDlang contraction fixes the output dimension order (surviving product
dimensions in ascending order), so gy/gz carry the derivative axis first;
the references below use the same layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.cfdlang import Program, ProgramBuilder

if TYPE_CHECKING:
    import numpy as np


def gradient_program(n: int = 8) -> Program:
    b = ProgramBuilder()
    Dm = b.input("Dm", (n, n))
    u = b.input("u", (n, n, n))
    gx = b.output("gx", (n, n, n))
    gy = b.output("gy", (n, n, n))
    gz = b.output("gz", (n, n, n))
    # product dims: Dm -> 0,1 ; u -> 2,3,4
    b.assign(gx, b.contract(b.outer(Dm, u), [(1, 2)]))
    b.assign(gy, b.contract(b.outer(Dm, u), [(1, 3)]))
    b.assign(gz, b.contract(b.outer(Dm, u), [(1, 4)]))
    return b.build()


def reference_gradient(
    Dm: np.ndarray, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    import numpy as np

    gx = np.einsum("al,ljk->ajk", Dm, u)
    gy = np.einsum("am,imk->aik", Dm, u)
    gz = np.einsum("an,ijn->aij", Dm, u)
    return gx, gy, gz


def chebyshev_diff_matrix(n: int) -> np.ndarray:
    """Chebyshev collocation differentiation matrix (Trefethen's formula)."""
    import numpy as np

    if n == 1:
        return np.zeros((1, 1))
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T
    Dm = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    Dm -= np.diag(Dm.sum(axis=1))
    return Dm
