"""Lexicographic order relations over schedule spaces, and ``ge_le``.

Schedule-space tuples impose a total order via lexicographic comparison
(Sec. IV-C).  ``ge_le`` is the second-order helper of Sec. IV-F that turns a
mapping from one tuple to another into the set of all tuples between them:

    ge_le : [[...] -> [...]] -> [...]
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.imap import IMap, _canonical_space, _reindex
from repro.poly.iset import BasicSet, Constraint, ISet, rational_empty
from repro.poly.space import anonymous


def _lex_disjunct(
    total: int, off_a: int, off_b: int, n: int, j: int, strict_at_j: bool
) -> List[Constraint]:
    """Constraints for: a_i == b_i for i<j, and a_j < b_j (if strict_at_j)."""
    cons: List[Constraint] = []
    for i in range(j):
        vec = [0] * total
        vec[off_a + i] = 1
        vec[off_b + i] = -1
        cons.append((tuple(vec), 0, True))
    if strict_at_j:
        if j >= n:
            raise PolyhedralError("strict position out of range")
        vec = [0] * total
        vec[off_a + j] = -1
        vec[off_b + j] = 1
        cons.append((tuple(vec), -1, False))  # b_j - a_j - 1 >= 0
    return cons


def lex_le_disjuncts(total: int, off_a: int, off_b: int, n: int) -> List[List[Constraint]]:
    """All disjuncts of ``a lex<= b`` for rank-n tuples at given offsets."""
    out = [_lex_disjunct(total, off_a, off_b, n, j, True) for j in range(n)]
    out.append(_lex_disjunct(total, off_a, off_b, n, n, False))  # all equal
    return out


def lex_lt_disjuncts(total: int, off_a: int, off_b: int, n: int) -> List[List[Constraint]]:
    return [_lex_disjunct(total, off_a, off_b, n, j, True) for j in range(n)]


def lex_lt_map(n: int) -> IMap:
    """The relation ``{ x -> y : x lex< y }`` on rank-n tuples."""
    comb = _canonical_space(n, n)
    parts = [BasicSet(comb, cons) for cons in lex_lt_disjuncts(2 * n, 0, n, n)]
    sp = anonymous(n)
    return IMap(sp, sp, ISet(comb, parts))


def lex_le_map(n: int) -> IMap:
    """The relation ``{ x -> y : x lex<= y }`` on rank-n tuples."""
    comb = _canonical_space(n, n)
    parts = [BasicSet(comb, cons) for cons in lex_le_disjuncts(2 * n, 0, n, n)]
    sp = anonymous(n)
    return IMap(sp, sp, ISet(comb, parts))


def lex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """-1/0/+1 comparison of two equal-rank tuples (reference semantics)."""
    if len(a) != len(b):
        raise PolyhedralError("lex_compare rank mismatch")
    for x, y in zip(a, b):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def ge_le(interval_map: IMap, n_sched: int) -> IMap:
    """Turn ``X -> [w -> r]`` (out rank 2*n_sched) into ``X -> {t : w <= t <= r}``.

    ``interval_map`` must have out rank ``2*n_sched`` where the first half is
    the (lexicographically) earlier tuple and the second half the later one.
    The result maps each X to every schedule tuple in the closed interval;
    the w/r tuples become existential columns, so the result is exact.
    """
    if interval_map.n_out != 2 * n_sched:
        raise PolyhedralError(
            f"ge_le expects out rank {2 * n_sched}, got {interval_map.n_out}"
        )
    nx = interval_map.n_in
    n = n_sched
    # wide layout: visible [x (nx), t (n)]; existential [w (n), r (n), part's]
    comb = _canonical_space(nx, n)
    t_off, w_off, r_off = nx, nx + n, nx + 2 * n
    out_parts: List[BasicSet] = []
    for p in interval_map.rel.parts:
        ep = p.n_exists
        width = nx + 3 * n + ep
        # part columns: x (nx), w (n), r (n), exist (ep)
        cmap = (
            list(range(nx))
            + list(range(w_off, w_off + n))
            + list(range(r_off, r_off + n))
            + list(range(nx + 3 * n, width))
        )
        base = _reindex(p, width, cmap)
        lo_disj = lex_le_disjuncts(width, w_off, t_off, n)  # w <= t
        hi_disj = lex_le_disjuncts(width, t_off, r_off, n)  # t <= r
        for lo in lo_disj:
            for hi in hi_disj:
                cons = base + lo + hi
                if not rational_empty(cons):
                    out_parts.append(BasicSet._from_normalized(comb, cons, 2 * n + ep))
    return IMap(interval_map.in_space, anonymous(n), ISet(comb, out_parts))


def interval_tuples(
    w: Tuple[int, ...], r: Tuple[int, ...], domain: BasicSet
) -> List[Tuple[int, ...]]:
    """Reference implementation: all points of ``domain`` with w <= t <= r."""
    return [
        t
        for t in domain.points()
        if lex_compare(w, t) <= 0 and lex_compare(t, r) <= 0
    ]
