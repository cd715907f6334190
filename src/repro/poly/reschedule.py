"""Dependence-driven rescheduling (step iii of Fig. 4; "Pluto-lite").

The paper uses isl's Pluto scheduler with RAW dependence distance as the
cost function "to reduce the dependence distance and thus the live
intervals", plus a RAR term that "attempts to place the statements at
coincident schedule space points" to reduce pressure on temporary storage.

This module implements the same objective over the schedule family our flow
uses (stage ordering + per-statement loop permutation):

* statement order: the legal (topological) order minimizing
  ``sum_over_RAW(bytes(tensor) * stage_distance)`` with a RAR-coincidence
  tie-break;
* loop order: the permutation maximizing layout consecutivity (stride-0/1
  innermost accesses), preferring reduction-innermost so code generation can
  use a register accumulator (HLS-friendly).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from repro.poly.dataflow import (
    statement_rar_pairs,
    statement_raw_deps,
    check_schedule_legal,
)
from repro.poly.schedule import (
    PolyProgram,
    PolyStatement,
    with_loop_permutation,
    with_statement_order,
)
from repro.utils import stable_topo_orders


@dataclass(frozen=True)
class RescheduleOptions:
    """Knobs for the rescheduler (exposed as compiler parameters).

    ``reduction_placement`` controls where reduction loops land:

    * ``"innermost"`` — register-accumulator codegen (natural for
      non-pipelined or inner-pipelined kernels);
    * ``"outside"``   — keep a non-reduction loop innermost so the
      memory-accumulation revisit distance covers the fp64 adder latency
      and flattened pipelining reaches II=1 (the paper's 200 MHz kernels);
    * ``"free"``      — consecutivity alone decides.
    """

    reorder_statements: bool = True
    permute_loops: bool = True
    max_orders: int = 2000          # cap on explored topological orders
    rar_weight: float = 0.1         # RAR coincidence weight vs RAW distance
    reduction_placement: str = "innermost"

    def __post_init__(self) -> None:
        if self.reduction_placement not in ("innermost", "outside", "free"):
            raise ValueError(
                f"unknown reduction_placement {self.reduction_placement!r}"
            )


#: a statement dependence weighed for the cost: (bytes(tensor), producer, consumer)
_WeightedDep = Tuple[int, str, str]


def _weighted(prog: PolyProgram, deps) -> List[_WeightedDep]:
    decls = prog.function.decls
    return [(decls[d.tensor].n_bytes, d.producer, d.consumer) for d in deps]


def _distance_cost(
    deps: Sequence[_WeightedDep], stage: Dict[str, int], spread: bool = False
) -> float:
    """Sum of bytes x stage distance (its absolute value with ``spread``)."""
    total = 0.0
    for nbytes, producer, consumer in deps:
        dist = stage[consumer] - stage[producer]
        total += nbytes * (abs(dist) if spread else dist)
    return total


def _stages(prog: PolyProgram) -> Dict[str, int]:
    return {s.name: prog.stage_of(s) for s in prog.statements}


def raw_cost(prog: PolyProgram) -> float:
    """Live-interval proxy: sum of bytes x stage-distance over RAW edges."""
    return _distance_cost(_weighted(prog, statement_raw_deps(prog)), _stages(prog))


def rar_cost(prog: PolyProgram) -> float:
    """RAR coincidence: smaller stage spread between co-readers is better."""
    deps = _weighted(prog, statement_rar_pairs(prog))
    return _distance_cost(deps, _stages(prog), spread=True)


def schedule_cost(prog: PolyProgram, options: RescheduleOptions) -> float:
    return raw_cost(prog) + options.rar_weight * rar_cost(prog)


def _choose_statement_order(prog: PolyProgram, options: RescheduleOptions) -> PolyProgram:
    names = [s.name for s in prog.statements]
    raw_deps = statement_raw_deps(prog)
    edges: Dict[str, List[str]] = {n: [] for n in names}
    for dep in raw_deps:
        edges[dep.producer].append(dep.consumer)
    # the dependences do not change with the order: weigh them once, then
    # score each candidate (stage = position) exactly as schedule_cost does
    raw = _weighted(prog, raw_deps)
    rar = _weighted(prog, statement_rar_pairs(prog))
    best = None
    for order in stable_topo_orders(names, edges, limit=options.max_orders):
        stage = {name: i for i, name in enumerate(order)}
        cost = _distance_cost(raw, stage) + options.rar_weight * _distance_cost(
            rar, stage, spread=True
        )
        key = (cost, order)
        if best is None or key < best:
            best = key
    assert best is not None, "no legal statement order (dependence cycle?)"
    return with_statement_order(prog, best[1])


def _stride_table(prog: PolyProgram, stmt: PolyStatement) -> List[Tuple[int, ...]]:
    """Address stride of each access (write first, then reads) along each
    loop dim: the coefficients of ``Layout.aff ∘ access``.

    The address map does not depend on the loop order, so one table
    scores every candidate permutation of the statement.
    """
    table: List[Tuple[int, ...]] = []
    for acc in (stmt.write, *stmt.reads):
        layout = prog.layouts[acc.tensor]
        dim_names = tuple(f"x{i}" for i in range(len(layout.shape)))
        addr = layout.aff(dim_names).compose(acc.fn)  # loop dims -> address
        table.append(tuple(addr.exprs[0].coeff(d) for d in stmt.loop_dims))
    return table


def innermost_stride(
    prog: PolyProgram, stmt: PolyStatement, perm: Sequence[int]
) -> List[int]:
    """Stride of each access w.r.t. the innermost loop under ``perm``.

    Stride 0 means loop-invariant (fine: a register); 1 means consecutive.
    """
    return [row[perm[-1]] for row in _stride_table(prog, stmt)]


def _consecutivity_cost(
    stmt: PolyStatement,
    strides: Sequence[Tuple[int, ...]],
    perm: Sequence[int],
    placement: str,
) -> Tuple[int, int]:
    bad = sum(1 for row in strides if row[perm[-1]] not in (0, 1))
    nd = len(stmt.loop_dims)
    if not stmt.is_reduction or placement == "free":
        return (bad, 0)
    red_indices = set(range(stmt.out_rank, nd))
    if placement == "innermost":
        # reduction dims must form the innermost contiguous suffix
        red_positions = [perm.index(i) for i in red_indices]
        ok = all(p >= nd - len(red_positions) for p in red_positions)
    else:  # "outside": the innermost loop must not be a reduction dim
        ok = perm[-1] not in red_indices
    return (bad, 0 if ok else 1)


def _choose_loop_orders(prog: PolyProgram, options: RescheduleOptions) -> PolyProgram:
    out = prog
    for s in prog.statements:
        nd = len(s.loop_dims)
        if nd <= 1 or nd > 6:
            continue
        strides = _stride_table(prog, s)
        best = None
        for perm in permutations(range(nd)):
            bad, red = _consecutivity_cost(
                s, strides, perm, options.reduction_placement
            )
            # Reduction placement dominates: PLMs are BRAMs with single-cycle
            # random access, so stride only breaks ties, but a misplaced
            # reduction limits the achievable II (or forbids the register
            # accumulator, depending on the placement policy).
            key = (red, bad, perm)
            if best is None or key < best:
                best = key
        assert best is not None
        out = with_loop_permutation(out, s.name, best[2])
    return out


def reschedule(prog: PolyProgram, options: RescheduleOptions | None = None) -> PolyProgram:
    """Compute an optimized legal schedule from the reference schedule."""
    options = options or RescheduleOptions()
    out = prog
    if options.reorder_statements:
        out = _choose_statement_order(out, options)
    if options.permute_loops:
        out = _choose_loop_orders(out, options)
    check_schedule_legal(out)
    return out
