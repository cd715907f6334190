"""Binary integer relations (maps) between named spaces.

An :class:`IMap` is a finite union of basic relations ``{ x -> y : ... }``.
Internally every relation is an :class:`~repro.poly.iset.ISet` over a
canonical concatenated space with visible dims ``i0..i{n-1}, o0..o{m-1}``
(plus trailing existential columns), so composition/inversion are purely
positional; the user-facing in/out spaces keep their original names.

Composition and image are *exact* over the integers: intermediate dims are
kept as existential columns instead of being eliminated rationally.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.aff import AffTuple
from repro.poly.iset import BasicSet, Constraint, ISet
from repro.poly.space import Space


def _canonical_space(n_in: int, n_out: int, name: str = "") -> Space:
    return Space(name, tuple(f"i{k}" for k in range(n_in)) + tuple(f"o{k}" for k in range(n_out)))


def _reindex(
    part: BasicSet,
    new_width: int,
    col_map: Sequence[int],
) -> List[Constraint]:
    """Re-index a part's constraint columns into a wider positional system.

    ``col_map[j]`` gives the destination column of the part's column ``j``
    (visible columns first, then its existential columns).  Moving columns
    keeps the part's rows normalized, so the results are built with
    :meth:`BasicSet._from_normalized`.
    """
    if len(col_map) != part.width:
        raise PolyhedralError("column map arity mismatch")
    out: List[Constraint] = []
    for coeffs, const, eq in part.constraints:
        vec = [0] * new_width
        for j, c in enumerate(coeffs):
            if c:
                vec[col_map[j]] = c
        out.append((tuple(vec), const, eq))
    return out


class IMap:
    """A union of basic relations from ``in_space`` to ``out_space``."""

    __slots__ = ("in_space", "out_space", "rel")

    def __init__(self, in_space: Space, out_space: Space, rel: ISet) -> None:
        if rel.space.rank != in_space.rank + out_space.rank:
            raise PolyhedralError("relation arity mismatch")
        self.in_space = in_space
        self.out_space = out_space
        self.rel = rel

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_aff(fn: AffTuple, domain: Optional[BasicSet | ISet] = None) -> "IMap":
        """The graph ``{ x -> f(x) : x in domain }`` of an affine function."""
        n_in, n_out = fn.domain.rank, fn.n_out
        comb = _canonical_space(n_in, n_out)
        base: List[Constraint] = []
        for j, e in enumerate(fn.exprs):
            vec_in = e.as_vector(fn.domain.dims)
            vec = list(vec_in) + [0] * n_out
            vec[n_in + j] = -1
            base.append((tuple(vec), e.const, True))
        parts: List[BasicSet] = []
        if domain is None:
            parts.append(BasicSet(comb, base))
        else:
            dom_parts = domain.parts if isinstance(domain, ISet) else (domain,)
            for dp in dom_parts:
                if dp.rank != n_in:
                    raise PolyhedralError("domain rank mismatch in from_aff")
                width = n_in + n_out + dp.n_exists
                cmap = list(range(n_in)) + list(range(n_in + n_out, width))
                cons = [(c[0] + (0,) * dp.n_exists, c[1], c[2]) for c in base]
                cons += _reindex(dp, width, cmap)
                parts.append(BasicSet(comb, cons, dp.n_exists))
        tgt = (
            fn.target
            if fn.target.rank == n_out
            else Space(fn.target.name, tuple(f"d{k}" for k in range(n_out)))
        )
        return IMap(fn.domain, tgt, ISet(comb, parts))

    @staticmethod
    def identity(space: Space) -> "IMap":
        return IMap.from_aff(AffTuple.identity(space))

    @staticmethod
    def empty(in_space: Space, out_space: Space) -> "IMap":
        return IMap(
            in_space,
            out_space,
            ISet.empty(_canonical_space(in_space.rank, out_space.rank)),
        )

    @staticmethod
    def from_constraint_parts(
        in_space: Space, out_space: Space, parts: Sequence[BasicSet]
    ) -> "IMap":
        comb = _canonical_space(in_space.rank, out_space.rank)
        fixed = [p.with_space(comb) for p in parts]
        return IMap(in_space, out_space, ISet(comb, fixed))

    # -- shape -----------------------------------------------------------
    @property
    def n_in(self) -> int:
        return self.in_space.rank

    @property
    def n_out(self) -> int:
        return self.out_space.rank

    def is_empty(self, exact: bool = True) -> bool:
        return self.rel.is_empty(exact=exact)

    # -- core algebra -------------------------------------------------------
    def inverse(self) -> "IMap":
        ni, no = self.n_in, self.n_out
        comb = _canonical_space(no, ni)
        parts = []
        for p in self.rel.parts:
            cmap = list(range(no, no + ni)) + list(range(no)) + list(
                range(ni + no, p.width)
            )
            cons = _reindex(p, p.width, cmap)
            parts.append(BasicSet._from_normalized(comb, cons, p.n_exists))
        return IMap(self.out_space, self.in_space, ISet(comb, parts))

    def compose(self, other: "IMap") -> "IMap":
        """``self ∘ other``: apply ``other`` first (other: A->B, self: B->C).

        Exact: the intermediate B dims become existential columns.
        """
        if other.n_out != self.n_in:
            raise PolyhedralError(
                f"compose: {other.out_space} (rank {other.n_out}) does not feed "
                f"{self.in_space} (rank {self.n_in})"
            )
        na, nb, nc = other.n_in, self.n_in, self.n_out
        comb = _canonical_space(na, nc)
        out_parts: List[BasicSet] = []
        for p1 in other.rel.parts:  # (A, B) + e1
            for p2 in self.rel.parts:  # (B, C) + e2
                e1, e2 = p1.n_exists, p2.n_exists
                width = na + nc + nb + e1 + e2
                cmap1 = (
                    list(range(na))
                    + list(range(na + nc, na + nc + nb))
                    + list(range(na + nc + nb, na + nc + nb + e1))
                )
                cmap2 = (
                    list(range(na + nc, na + nc + nb))
                    + list(range(na, na + nc))
                    + list(range(na + nc + nb + e1, width))
                )
                cons = _reindex(p1, width, cmap1) + _reindex(p2, width, cmap2)
                out_parts.append(BasicSet._from_normalized(comb, cons, nb + e1 + e2))
        return IMap(other.in_space, self.out_space, ISet(comb, out_parts))

    def apply(self, s: BasicSet | ISet) -> ISet:
        """Exact image of a set under the relation."""
        parts_in = s.parts if isinstance(s, ISet) else (s,)
        ni, no = self.n_in, self.n_out
        out_space = Space(self.out_space.name, tuple(f"o{k}" for k in range(no)))
        out_parts: List[BasicSet] = []
        for sp in parts_in:
            if sp.rank != ni:
                raise PolyhedralError("apply: set rank mismatch")
            for p in self.rel.parts:
                ep, es = p.n_exists, sp.n_exists
                width = no + ni + ep + es
                cmap_p = (
                    list(range(no, no + ni))
                    + list(range(no))
                    + list(range(no + ni, no + ni + ep))
                )
                cmap_s = list(range(no, no + ni)) + list(range(no + ni + ep, width))
                cons = _reindex(p, width, cmap_p) + _reindex(sp, width, cmap_s)
                out_parts.append(
                    BasicSet._from_normalized(out_space, cons, ni + ep + es)
                )
        return ISet(out_space, out_parts)

    def domain(self) -> ISet:
        ni, no = self.n_in, self.n_out
        space = Space(self.in_space.name, tuple(f"i{k}" for k in range(ni)))
        parts = [
            BasicSet._from_normalized(
                space,
                _reindex(
                    p,
                    p.width,
                    list(range(ni)) + list(range(ni, ni + no)) + list(range(ni + no, p.width)),
                ),
                no + p.n_exists,
            )
            for p in self.rel.parts
        ]
        return ISet(space, parts)

    def range(self) -> ISet:
        ni, no = self.n_in, self.n_out
        space = Space(self.out_space.name, tuple(f"o{k}" for k in range(no)))
        parts = []
        for p in self.rel.parts:
            cmap = (
                list(range(no, no + ni))
                + list(range(no))
                + list(range(no + ni, p.width))
            )
            cons = _reindex(p, p.width, cmap)
            parts.append(BasicSet._from_normalized(space, cons, ni + p.n_exists))
        return ISet(space, parts)

    def intersect_domain(self, s: BasicSet | ISet) -> "IMap":
        parts_in = s.parts if isinstance(s, ISet) else (s,)
        ni, no = self.n_in, self.n_out
        comb = _canonical_space(ni, no)
        out_parts = []
        for p in self.rel.parts:
            for sp in parts_in:
                if sp.rank != ni:
                    raise PolyhedralError("intersect_domain: rank mismatch")
                width = ni + no + p.n_exists + sp.n_exists
                cmap_p = list(range(ni + no + p.n_exists))
                cmap_s = list(range(ni)) + list(range(ni + no + p.n_exists, width))
                cons = _reindex(p, width, cmap_p) + _reindex(sp, width, cmap_s)
                out_parts.append(
                    BasicSet._from_normalized(comb, cons, p.n_exists + sp.n_exists)
                )
        return IMap(self.in_space, self.out_space, ISet(comb, out_parts))

    def intersect_range(self, s: BasicSet | ISet) -> "IMap":
        parts_in = s.parts if isinstance(s, ISet) else (s,)
        ni, no = self.n_in, self.n_out
        comb = _canonical_space(ni, no)
        out_parts = []
        for p in self.rel.parts:
            for sp in parts_in:
                if sp.rank != no:
                    raise PolyhedralError("intersect_range: rank mismatch")
                width = ni + no + p.n_exists + sp.n_exists
                cmap_p = list(range(ni + no + p.n_exists))
                cmap_s = list(range(ni, ni + no)) + list(range(ni + no + p.n_exists, width))
                cons = _reindex(p, width, cmap_p) + _reindex(sp, width, cmap_s)
                out_parts.append(
                    BasicSet._from_normalized(comb, cons, p.n_exists + sp.n_exists)
                )
        return IMap(self.in_space, self.out_space, ISet(comb, out_parts))

    def intersect(self, other: "IMap") -> "IMap":
        if (self.n_in, self.n_out) != (other.n_in, other.n_out):
            raise PolyhedralError("intersect: arity mismatch")
        return IMap(self.in_space, self.out_space, self.rel.intersect(other.rel))

    def union(self, other: "IMap") -> "IMap":
        if (self.n_in, self.n_out) != (other.n_in, other.n_out):
            raise PolyhedralError("union: arity mismatch")
        return IMap(self.in_space, self.out_space, self.rel.union(other.rel))

    def product(self, other: "IMap") -> "IMap":
        """Cross product: (A->B) x (C->D) = (A×C) -> (B×D)."""
        na, nb = self.n_in, self.n_out
        nc, nd = other.n_in, other.n_out
        comb = _canonical_space(na + nc, nb + nd)
        out_parts: List[BasicSet] = []
        for p1 in self.rel.parts:
            for p2 in other.rel.parts:
                e1, e2 = p1.n_exists, p2.n_exists
                width = na + nc + nb + nd + e1 + e2
                cmap1 = (
                    list(range(na))
                    + list(range(na + nc, na + nc + nb))
                    + list(range(na + nc + nb + nd, na + nc + nb + nd + e1))
                )
                cmap2 = (
                    list(range(na, na + nc))
                    + list(range(na + nc + nb, na + nc + nb + nd))
                    + list(range(na + nc + nb + nd + e1, width))
                )
                cons = _reindex(p1, width, cmap1) + _reindex(p2, width, cmap2)
                out_parts.append(BasicSet._from_normalized(comb, cons, e1 + e2))
        in_sp = self.in_space.renamed("a_").concat(other.in_space.renamed("b_"), name="")
        out_sp = self.out_space.renamed("a_").concat(other.out_space.renamed("b_"), name="")
        return IMap(in_sp, out_sp, ISet(comb, out_parts))

    # -- queries -------------------------------------------------------------
    def contains(self, x: Sequence[int], y: Sequence[int]) -> bool:
        return self.rel.contains(tuple(x) + tuple(y))

    def pairs(self, limit: int = 1_000_000) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        for pt in self.rel.points(limit=limit):
            yield pt[: self.n_in], pt[self.n_in :]

    def image_of_point(self, x: Sequence[int], limit: int = 200_000) -> List[Tuple[int, ...]]:
        """All y with (x, y) in the relation (requires bounded out dims)."""
        out = set()
        for p in self.rel.parts:
            sub = p
            for v in x:
                sub = sub.fix_dim(sub.space.dims[0], int(v))
            for pt in sub.points(limit=limit):
                out.add(pt)
        return sorted(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"IMap({self.in_space} -> {self.out_space}, {len(self.rel.parts)} parts)"
