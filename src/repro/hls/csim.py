"""Functional "C simulation" of the generated kernel.

Runs the Python mirror of the generated C code (same loop structure and
flat addressing) and compares against the IR interpreter — the equivalent
of Vivado's csim + cosim functional checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping

from repro.codegen.pyemit import run_python_kernel
from repro.errors import HLSError
from repro.poly.schedule import PolyProgram
from repro.teil.interp import interpret

if TYPE_CHECKING:
    import numpy as np


def csim_kernel(
    prog: PolyProgram,
    inputs: Mapping[str, np.ndarray],
    *,
    rtol: float = 1e-10,
) -> Dict[str, np.ndarray]:
    """Run the generated kernel functionally and verify against the IR.

    Returns the outputs; raises :class:`HLSError` on mismatch.
    """
    import numpy as np

    got = run_python_kernel(prog, inputs)
    ref = interpret(prog.function, inputs)
    for name, arr in ref.items():
        if not np.allclose(got[name], arr, rtol=rtol, atol=1e-12):
            worst = float(np.max(np.abs(got[name] - arr)))
            raise HLSError(
                f"csim mismatch on output {name!r}: max abs err {worst:.3e}"
            )
    return got
