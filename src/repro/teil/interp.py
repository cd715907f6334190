"""Reference interpreter: execute the tensor IR with NumPy.

This is the functional golden model: every later stage (generated C code,
generated Python, the HLS C-simulation) is checked against it, and it in
turn is checked against hand-written einsum formulations of the operators.

Hot-path note: callers like the solver loop's per-element checks and the
static-kernel fallback of :func:`repro.exec.programs.run_chain_batch`
interpret the *same* function thousands of times on small tensors, where
rebuilding einsum subscript strings and re-planning contraction orders
dominates the arithmetic.  Both are pure functions of the (frozen,
hashable) :class:`~repro.teil.ops.Contraction` and the operand shapes,
so they are memoized: subscripts via an unbounded cache, contraction
paths (``np.einsum_path``) per (op, shapes).  Planned paths reassociate
sums relative to naive left-to-right einsum, which is why agreement with
downstream backends is specified as ``allclose``, never bit-exact.
"""

from __future__ import annotations

import string
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

from repro.errors import IRError
from repro.teil.ops import Contraction, Ewise, EwiseKind
from repro.teil.program import Function

if TYPE_CHECKING:
    import numpy as np


@lru_cache(maxsize=None)
def _einsum_spec(op: Contraction) -> str:
    letters: Dict[str, str] = {}
    pool = iter(string.ascii_lowercase + string.ascii_uppercase)

    def letter(idx: str) -> str:
        if idx not in letters:
            try:
                letters[idx] = next(pool)
            except StopIteration:  # pragma: no cover - >52 indices
                raise IRError("too many distinct indices for einsum") from None
        return letters[idx]

    ins = ",".join("".join(letter(i) for i in idx) for idx in op.operand_indices)
    outs = "".join(letter(i) for i in op.output_indices)
    return f"{ins}->{outs}"


def einsum_spec(op: Contraction, batched: bool = False) -> str:
    """The einsum subscript string for a contraction.

    ``batched=True`` prefixes an ellipsis to every operand and the output,
    so operands carrying a leading element axis broadcast against static
    operands — the spec the vectorized :mod:`repro.exec` NumPy backend
    executes once per stage for a whole element batch.
    """
    spec = _einsum_spec(op)
    if not batched:
        return spec
    ins, _, outs = spec.partition("->")
    return ",".join("..." + part for part in ins.split(",")) + "->..." + outs


@lru_cache(maxsize=4096)
def _contraction_path(
    op: Contraction, shapes: Tuple[Tuple[int, ...], ...]
) -> list:
    """The planned (reusable) contraction order for these operand shapes."""
    import numpy as np

    dummies = [np.broadcast_to(np.float64(0.0), s) for s in shapes]
    path, _ = np.einsum_path(_einsum_spec(op), *dummies, optimize="optimal")
    return path


def eval_contraction(op: Contraction, env: Mapping[str, np.ndarray]) -> np.ndarray:
    import numpy as np

    operands = [env[o] for o in op.operands]
    if len(operands) <= 2:
        # nothing to plan for 1-2 operands; skip the path-cache lookup
        return np.einsum(_einsum_spec(op), *operands)
    path = _contraction_path(op, tuple(a.shape for a in operands))
    return np.einsum(_einsum_spec(op), *operands, optimize=path)


def eval_ewise(op: Ewise, env: Mapping[str, np.ndarray]) -> np.ndarray:
    a, b = env[op.lhs], env[op.rhs]
    if op.kind is EwiseKind.MUL:
        return a * b
    if op.kind is EwiseKind.DIV:
        return a / b
    if op.kind is EwiseKind.ADD:
        return a + b
    if op.kind is EwiseKind.SUB:
        return a - b
    raise IRError(f"unknown ewise kind {op.kind}")


def interpret(fn: Function, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Run a function; returns a dict of the output tensors.

    Raises :class:`IRError` on missing/mis-shaped inputs.
    """
    import numpy as np

    env: Dict[str, np.ndarray] = {}
    for d in fn.inputs():
        if d.name not in inputs:
            raise IRError(f"missing input tensor {d.name!r}")
        arr = np.asarray(inputs[d.name], dtype=np.float64)
        if arr.shape != d.shape:
            raise IRError(
                f"input {d.name!r} has shape {arr.shape}, expected {d.shape}"
            )
        env[d.name] = arr
    for s in fn.statements:
        if isinstance(s.op, Contraction):
            env[s.target] = eval_contraction(s.op, env)
        elif isinstance(s.op, Ewise):
            env[s.target] = eval_ewise(s.op, env)
        else:  # pragma: no cover
            raise IRError(f"unknown op {type(s.op).__name__}")
    return {d.name: env[d.name] for d in fn.outputs()}
