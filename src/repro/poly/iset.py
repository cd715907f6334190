"""Integer sets: conjunctions of affine constraints, and unions thereof.

A :class:`BasicSet` is ``{ x in Z^n : exists e in Z^k, A (x,e) + c >= 0,
E (x,e) + d == 0 }`` over a named :class:`~repro.poly.space.Space` of
*visible* dims ``x``; the trailing ``k`` columns are existential.  An
:class:`ISet` is a finite union of basic sets (lexicographic order relations
are disjunctive).

Design notes
------------
* No symbolic parameters: CFDlang shapes are static, so every set the flow
  manipulates is bounded in its visible dims.
* Projection (``project_out``) *marks dims existential* instead of running
  Fourier–Motzkin, which keeps integer semantics exact (e.g. the image of a
  box under a strided layout ``i -> 11 i + 5`` stays the strided set, not its
  convex hull).  FM elimination is used only for rational bounds and rational
  emptiness pre-checks, where over-approximation is sound.
* One projection core, :func:`_project`, serves both: ``is_empty_rational``
  projects onto no column and ``dim_bounds`` onto one.  Its rows are sparse
  ``{col: coeff}`` dicts, since a relation's wide positional systems touch a
  few columns per row.  It first removes every equality that mentions an
  eliminated column by Gaussian substitution (unit pivots preferred), then
  runs FM on the inequalities, each time eliminating the column with the
  fewest lower x upper pairs.  Parallel inequalities collapse to the tightest
  one, and an opposite pair whose constants sum below 0 ends the projection
  at once as empty.
* Every row a combination produces is divided by the gcd of its
  coefficients, flooring an inequality's constant (integer tightening) and
  rejecting an equality whose constant the gcd does not divide.  Divisions
  are exact integer ``//``; a float would round large constants.  The
  constraints a :class:`BasicSet` stores are tightened the same way once, by
  its constructor; the operations that only permute or pad columns
  (``intersect``, ``project_out``, ``project_onto``, ``rename_dims``,
  ``with_space`` and the relation algebra in :mod:`repro.poly.imap`) reuse
  them through :meth:`BasicSet._from_normalized`.
* :func:`rational_empty` runs the core on a raw constraint list, so
  ``ge_le`` prunes its lexicographic disjuncts before building a set for any.
* ``is_empty()`` is exact: rational pre-check, then bounded integer search.
  ``points()`` and the integer search re-project after each fixed value.
"""

from __future__ import annotations

import math
from itertools import compress, count
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import PolyhedralError
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.space import Space

# A constraint is (coeffs, const, is_eq): sum(coeffs*x) + const >= 0  (or == 0)
Constraint = Tuple[Tuple[int, ...], int, bool]
# A sparse row of the projection core: ({col: coeff}, const), zero coeffs absent
Row = Tuple[Dict[int, int], int]


def _normalize_constraint(coeffs: Tuple[int, ...], const: int, eq: bool) -> Optional[Constraint]:
    """Canonicalize one constraint; None if trivially true; a constant-false
    marker ``(0...0, -1, False)`` if unsatisfiable."""
    g = math.gcd(*coeffs)
    if g == 0:
        if eq:
            return None if const == 0 else (coeffs, -1, False)
        return None if const >= 0 else (coeffs, -1, False)
    if g == 1:
        return (coeffs, const, eq)
    if eq:
        if const % g != 0:
            return (tuple(0 for _ in coeffs), -1, False)  # no integer solution
        return (tuple(c // g for c in coeffs), const // g, True)
    # integer tightening: a.x + c >= 0  <=>  (a/g).x + floor(c/g) >= 0
    return (tuple(c // g for c in coeffs), const // g, False)


class _Empty(Exception):
    """Raised inside the projection core once a row proves the system empty."""


def _reduced(row: Dict[int, int], const: int, eq: bool) -> Optional[Row]:
    """Tighten a freshly combined row; None if it is trivially true."""
    if not row:
        if const < 0 or (eq and const):
            raise _Empty
        return None
    g = math.gcd(*row.values())
    if g > 1:
        if eq and const % g:
            raise _Empty
        row = {c: v // g for c, v in row.items()}
        const //= g
    return row, const


def _combine(r: Row, mr: int, s: Row, ms: int) -> Tuple[Dict[int, int], int]:
    """``mr * r + ms * s`` with the cancelled coefficients dropped."""
    row = {c: mr * v for c, v in r[0].items()}
    for c, v in s[0].items():
        t = row.get(c, 0) + ms * v
        if t:
            row[c] = t
        else:
            del row[c]
    return row, mr * r[1] + ms * s[1]


def _add_ineq(store: Dict[FrozenSet, Row], row: Row) -> None:
    """Insert an inequality, keeping only the tightest of parallel rows."""
    key = frozenset(row[0].items())
    old = store.get(key)
    if old is not None and old[1] <= row[1]:
        return
    opp = store.get(frozenset((c, -v) for c, v in row[0].items()))
    if opp is not None and opp[1] + row[1] < 0:
        raise _Empty  # a.x + c1 >= 0 and -a.x + c2 >= 0 need c1 + c2 >= 0
    store[key] = row


def _eliminate(r: Row, k: int, p: Row, eq: bool) -> Optional[Row]:
    """Remove column k from row ``r`` with the equality ``p``."""
    a, b = p[0][k], r[0][k]
    return _reduced(*_combine(r, abs(a), p, -b if a > 0 else b), eq)


# pivot column -> (age, column, equality row); an equality pivots on a column
# once every older pivot column has been substituted out of it
Pivots = Dict[int, Tuple[int, int, Row]]


def _reduce_by(r: Row, pivots: Pivots, eq: bool) -> Optional[Row]:
    """Substitute every pivot column out of ``r``, oldest pivot first.

    A pivot row mentions only younger pivots' columns, so each pivot is
    applied at most once.
    """
    while True:
        due = [pivots[c] for c in r[0] if c in pivots]
        if not due:
            return r
        _, k, p = min(due)
        r = _eliminate(r, k, p, eq)
        if r is None:
            return None


def _gauss(eqs: Iterable[Row], keep: FrozenSet[int]) -> Tuple[Pivots, List[Row]]:
    """Solve the equalities for eliminable columns.

    Returns the pivots and the equalities left over ``keep`` alone.  A row
    with a unit coefficient on an eliminable column pivots there; the others
    wait until every such row has pivoted, then pivot on their smallest
    eliminable coefficient.
    """
    pivots: Pivots = {}
    kept: List[Row] = []
    hard: List[Row] = []
    for first in (True, False):
        for r in eqs if first else hard:
            r = _reduce_by(r, pivots, True)
            if r is None:
                continue
            cols = [(abs(v), c) for c, v in r[0].items() if c not in keep]
            if not cols:
                kept.append(r)
                continue
            size, k = min(cols)
            if first and size != 1:
                hard.append(r)
            else:
                pivots[k] = (len(pivots), k, r)
    return pivots, kept


def _project(
    eqs: Sequence[Row], ineqs: Iterable[Row], keep: FrozenSet[int]
) -> Optional[Tuple[List[Row], List[Row]]]:
    """Rational projection, with integer tightening, onto the ``keep`` columns.

    Returns the equalities and inequalities left over ``keep`` alone, or None
    if the system is empty.  The input rows must be tightened; they are never
    modified.
    """
    try:
        pivots, eqs = _gauss(eqs, keep)
        store: Dict[FrozenSet, Row] = {}
        for r in ineqs:
            r = _reduce_by(r, pivots, False)
            if r is not None:
                _add_ineq(store, r)
        while True:
            lower: Dict[int, int] = {}
            upper: Dict[int, int] = {}
            for row, _ in store.values():
                for c, v in row.items():
                    if c not in keep:
                        side = lower if v > 0 else upper
                        side[c] = side.get(c, 0) + 1
            cols = lower.keys() | upper.keys()
            if not cols:
                return eqs, list(store.values())
            k = min(cols, key=lambda c: (lower.get(c, 0) * upper.get(c, 0), c))
            lows: List[Row] = []
            ups: List[Row] = []
            rest: Dict[FrozenSet, Row] = {}
            for key, r in store.items():
                v = r[0].get(k)
                if v is None:
                    rest[key] = r
                else:
                    (lows if v > 0 else ups).append(r)
            store = rest
            for lo in lows:
                a = lo[0][k]
                for up in ups:
                    b = -up[0][k]
                    g = math.gcd(a, b)
                    r = _reduced(*_combine(lo, b // g, up, a // g), False)
                    if r is not None:
                        _add_ineq(store, r)
    except _Empty:
        return None


class _RawSystem:
    """Sparse constraint rows over absolute column ids (no spaces)."""

    __slots__ = ("eqs", "ineqs", "false")

    def __init__(self, eqs: List[Row], ineqs: List[Row], false: bool = False) -> None:
        self.eqs = eqs
        self.ineqs = ineqs
        self.false = false

    @staticmethod
    def from_constraints(constraints: Iterable[Constraint]) -> "_RawSystem":
        """Sparse rows of normalized dense constraints."""
        eqs: List[Row] = []
        ineqs: List[Row] = []
        for coeffs, const, eq in constraints:
            row = dict(zip(compress(count(), coeffs), filter(None, coeffs)))
            if row:
                (eqs if eq else ineqs).append((row, const))
            elif const < 0 or (eq and const):
                return _RawSystem([], [], True)
        return _RawSystem(eqs, ineqs)

    def project(self, keep: FrozenSet[int]) -> Optional[Tuple[List[Row], List[Row]]]:
        return None if self.false else _project(self.eqs, self.ineqs, keep)

    def is_empty_rational(self) -> bool:
        return self.project(frozenset()) is None

    def bounds_of(self, k: int) -> Tuple[Optional[int], Optional[int]]:
        """Rational bounds of column k after eliminating all others."""
        proj = self.project(frozenset((k,)))
        if proj is None:
            return (1, 0)
        eqs, ineqs = proj
        lo: Optional[int] = None
        hi: Optional[int] = None
        for row, c in eqs:
            v, r = divmod(-c, row[k])
            if r:
                return (1, 0)
            lo = v if lo is None else max(lo, v)
            hi = v if hi is None else min(hi, v)
        for row, c in ineqs:
            a = row[k]
            if a > 0:  # x >= ceil(-c / a)
                b = -(c // a)
                lo = b if lo is None else max(lo, b)
            else:  # x <= floor(c / -a)
                b = c // -a
                hi = b if hi is None else min(hi, b)
        return (lo, hi)

    def fix(self, k: int, value: int) -> "_RawSystem":
        def fixed(r: Row, eq: bool) -> Optional[Row]:
            a = r[0].get(k)
            if a is None:
                return r
            row = dict(r[0])
            del row[k]
            return _reduced(row, r[1] + a * value, eq)

        try:
            eqs = [r for r in (fixed(r, True) for r in self.eqs) if r is not None]
            ineqs = [r for r in (fixed(r, False) for r in self.ineqs) if r is not None]
        except _Empty:
            return _RawSystem([], [], True)
        return _RawSystem(eqs, ineqs, self.false)

    def enumerate(
        self, visible: Sequence[int], exist: Sequence[int], budget: List[int]
    ) -> Iterator[Tuple[int, ...]]:
        """Yield assignments to the ``visible`` columns, in order, for which
        the ``exist`` columns are satisfiable."""
        if self.false:
            return
        if not visible:
            if self._satisfiable(exist, budget):
                yield ()
            return
        col = visible[0]
        lo, hi = self.bounds_of(col)
        if lo is None or hi is None:
            raise PolyhedralError("cannot enumerate unbounded dim")
        for v in range(lo, hi + 1):
            budget[0] -= 1
            if budget[0] < 0:
                raise PolyhedralError("point enumeration budget exceeded")
            sub = self.fix(col, v)
            for rest in sub.enumerate(visible[1:], exist, budget):
                yield (v,) + rest

    def _satisfiable(self, cols: Sequence[int], budget: List[int]) -> bool:
        """Exact integer satisfiability over the remaining ``cols``."""
        if self.false:
            return False
        if not cols:
            return True
        if self.is_empty_rational():
            return False
        lo, hi = self.bounds_of(cols[0])
        if lo is None or hi is None:
            # Unbounded existential: rational non-empty + unbounded direction
            # means some integer point exists for our (box-derived) systems.
            return True
        for v in range(lo, hi + 1):
            budget[0] -= 1
            if budget[0] < 0:
                raise PolyhedralError("satisfiability budget exceeded")
            if self.fix(cols[0], v)._satisfiable(cols[1:], budget):
                return True
        return False


def rational_empty(constraints: Iterable[Constraint]) -> bool:
    """Rational emptiness, with integer tightening, of normalized constraints
    (lets a caller test a candidate before building a :class:`BasicSet`)."""
    return _RawSystem.from_constraints(constraints).is_empty_rational()


class BasicSet:
    """A conjunction of integer affine constraints over visible + existential dims."""

    __slots__ = ("space", "n_exists", "constraints", "_known_empty")

    def __init__(
        self,
        space: Space,
        constraints: Sequence[Constraint] = (),
        n_exists: int = 0,
    ) -> None:
        width = space.rank + int(n_exists)
        cons: List[Constraint] = []
        for coeffs, const, eq in constraints:
            if len(coeffs) != width:
                raise PolyhedralError(
                    f"constraint arity {len(coeffs)} != width {width} "
                    f"(rank {space.rank} + {int(n_exists)} existentials)"
                )
            norm = _normalize_constraint(tuple(int(c) for c in coeffs), int(const), bool(eq))
            if norm is not None:
                cons.append(norm)
        self._init_normalized(space, cons, n_exists)

    def _init_normalized(
        self, space: Space, constraints: Iterable[Constraint], n_exists: int
    ) -> None:
        self.space = space
        self.n_exists = int(n_exists)
        self.constraints = tuple(dict.fromkeys(constraints))
        # the constant-false marker is the only normalized all-zero row
        self._known_empty = any(not any(c[0]) for c in self.constraints)

    @classmethod
    def _from_normalized(
        cls, space: Space, constraints: Iterable[Constraint], n_exists: int = 0
    ) -> "BasicSet":
        """A set over constraints that are already normalized, such as a column
        permutation or zero-padding of another set's: skips the per-row gcd
        pass of the constructor."""
        bs = cls.__new__(cls)
        bs._init_normalized(space, constraints, n_exists)
        return bs

    # -- constructors ------------------------------------------------------
    @staticmethod
    def universe(space: Space) -> "BasicSet":
        return BasicSet(space, ())

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        return BasicSet(space, ((tuple(0 for _ in range(space.rank)), -1, False),))

    @staticmethod
    def from_box(space: Space, bounds: Sequence[Tuple[int, int]]) -> "BasicSet":
        """Box ``lo_i <= x_i <= hi_i`` (inclusive)."""
        if len(bounds) != space.rank:
            raise PolyhedralError("bounds arity mismatch")
        cons: List[Constraint] = []
        for i, (lo, hi) in enumerate(bounds):
            e = [0] * space.rank
            e[i] = 1
            cons.append((tuple(e), -int(lo), False))
            e2 = [0] * space.rank
            e2[i] = -1
            cons.append((tuple(e2), int(hi), False))
        return BasicSet(space, cons)

    @staticmethod
    def from_shape(space: Space, shape: Sequence[int]) -> "BasicSet":
        """The dense index domain ``0 <= x_i < shape_i`` of a tensor."""
        return BasicSet.from_box(space, [(0, s - 1) for s in shape])

    # -- shape ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def width(self) -> int:
        return self.space.rank + self.n_exists

    def _raw(self) -> _RawSystem:
        return _RawSystem.from_constraints(self.constraints)

    # -- predicates ------------------------------------------------------------
    def contains(self, point: Sequence[int], budget: int = 500_000) -> bool:
        if len(point) != self.rank:
            raise PolyhedralError("point rank mismatch")
        sys = self._raw()
        for k, v in enumerate(point):
            sys = sys.fix(k, int(v))
        return sys._satisfiable(range(self.rank, self.width), [budget])

    def is_empty_rational(self) -> bool:
        if self._known_empty:
            return True
        return rational_empty(self.constraints)

    def is_empty(self, exact: bool = True, budget: int = 500_000) -> bool:
        if self.is_empty_rational():
            return True
        if not exact:
            return False
        try:
            return not self._raw()._satisfiable(range(self.width), [budget])
        except PolyhedralError:
            return False  # budget exhausted: conservatively non-empty

    # -- constraint-level operations -----------------------------------------
    def _lift(self, expr_vec: Tuple[int, ...], const: int, eq: bool) -> Constraint:
        return (expr_vec + tuple(0 for _ in range(self.n_exists)), const, eq)

    def with_constraint(self, expr: AffExpr, *, eq: bool = False, negate: bool = False) -> "BasicSet":
        """Add ``expr >= 0`` (or ``== 0``); ``negate`` adds ``-expr-1 >= 0``."""
        vec = expr.as_vector(self.space.dims)
        const = expr.const
        if negate:
            vec = tuple(-c for c in vec)
            const = -const - 1
        return BasicSet(
            self.space, self.constraints + (self._lift(vec, const, eq),), self.n_exists
        )

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if other.space.dims != self.space.dims:
            raise PolyhedralError(
                f"intersect requires same dims: {self.space.dims} vs {other.space.dims}"
            )
        n = self.rank
        ke, ko = self.n_exists, other.n_exists
        pad_self, pad_other = (0,) * ko, (0,) * ke
        cons = [(c + pad_self, k, eq) for c, k, eq in self.constraints]
        cons += [(c[:n] + pad_other + c[n:], k, eq) for c, k, eq in other.constraints]
        return BasicSet._from_normalized(self.space, cons, ke + ko)

    def fix_dim(self, dim: str, value: int) -> "BasicSet":
        """Substitute a constant for one visible dim."""
        i = self.space.dim_index(dim)
        new_space = Space(self.space.name, self.space.dims[:i] + self.space.dims[i + 1 :])
        cons = [
            (c[0][:i] + c[0][i + 1 :], c[1] + c[0][i] * value, c[2])
            for c in self.constraints
        ]
        return BasicSet(new_space, cons, self.n_exists)

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        new_space = Space(self.space.name, tuple(mapping.get(d, d) for d in self.space.dims))
        return BasicSet._from_normalized(new_space, self.constraints, self.n_exists)

    def with_space(self, space: Space) -> "BasicSet":
        """Reinterpret visible dims over a same-rank space (positional)."""
        if space.rank != self.rank:
            raise PolyhedralError("with_space rank mismatch")
        return BasicSet._from_normalized(space, self.constraints, self.n_exists)

    # -- projection -------------------------------------------------------------
    def project_out(self, dims: Sequence[str]) -> "BasicSet":
        """Existentially project out the named visible dims (exact)."""
        names = list(dims)
        keep = [d for d in self.space.dims if d not in set(names)]
        for d in names:
            self.space.dim_index(d)  # validate
        perm = [self.space.dim_index(d) for d in keep] + [
            self.space.dim_index(d) for d in names
        ]
        full_perm = perm + list(range(self.rank, self.width))
        cons = [
            (tuple(c[0][p] for p in full_perm), c[1], c[2]) for c in self.constraints
        ]
        return BasicSet._from_normalized(
            Space(self.space.name, tuple(keep)), cons, self.n_exists + len(names)
        )

    def project_onto(self, dims: Sequence[str]) -> "BasicSet":
        """Keep only the named visible dims, in the given order."""
        drop = [d for d in self.space.dims if d not in set(dims)]
        out = self.project_out(drop)
        if tuple(dims) != out.space.dims:
            perm = [out.space.dim_index(d) for d in dims]
            full_perm = perm + list(range(out.rank, out.width))
            cons = [
                (tuple(c[0][p] for p in full_perm), c[1], c[2]) for c in out.constraints
            ]
            out = BasicSet._from_normalized(
                Space(out.space.name, tuple(dims)), cons, out.n_exists
            )
        return out

    # -- bounds / enumeration ----------------------------------------------------
    def dim_bounds(self, dim: str) -> Tuple[Optional[int], Optional[int]]:
        """Rational bounds of one visible dim (over-approximate but sound)."""
        return self._raw().bounds_of(self.space.dim_index(dim))

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """Enumerate integer points of the visible dims (exact)."""
        if self._known_empty:
            return iter(())
        visible, exist = range(self.rank), range(self.rank, self.width)
        return self._raw().enumerate(visible, exist, [limit])

    def sample(self, budget: int = 500_000) -> Optional[Tuple[int, ...]]:
        """Find one visible point, or None if empty (within budget)."""
        try:
            for p in self.points(limit=budget):
                return p
        except PolyhedralError:
            return None
        return None

    # -- images --------------------------------------------------------------
    def apply(self, fn: AffTuple) -> "BasicSet":
        """Exact image of the set under an affine function."""
        if fn.domain.rank != self.rank:
            raise PolyhedralError("apply: function domain rank mismatch")
        n_in, n_out = self.rank, fn.n_out
        out_dims = (
            fn.target.dims
            if fn.target.rank == n_out
            else tuple(f"__o{j}" for j in range(n_out))
        )
        width = n_out + n_in + self.n_exists  # visible out, then exist (in, old)
        cons: List[Constraint] = []
        for coeffs, const, eq in self.constraints:
            vec = tuple(0 for _ in range(n_out)) + coeffs
            cons.append((vec, const, eq))
        for j, e in enumerate(fn.exprs):
            vec_in = e.as_vector(fn.domain.dims)
            vec = [0] * width
            vec[j] = -1
            for i, c in enumerate(vec_in):
                vec[n_out + i] = c
            cons.append((tuple(vec), e.const, True))  # f_j(x) - y_j == 0
        return BasicSet(Space(fn.target.name, out_dims), cons, n_in + self.n_exists)

    def preimage(self, fn: AffTuple) -> "BasicSet":
        """``{ x : f(x) in self }`` — exact by substitution."""
        if fn.n_out != self.rank:
            raise PolyhedralError("preimage: function range rank mismatch")
        if self.n_exists:
            # keep existentials: substitute into visible columns only
            width = fn.domain.rank + self.n_exists
            cons: List[Constraint] = []
            for coeffs, const, eq in self.constraints:
                expr = AffExpr.constant(const)
                for c, e in zip(coeffs[: self.rank], fn.exprs):
                    expr = expr + e * c
                vec = list(expr.as_vector(fn.domain.dims)) + list(coeffs[self.rank :])
                cons.append((tuple(vec), expr.const, eq))
            return BasicSet(fn.domain, cons, self.n_exists)
        cons = []
        for coeffs, const, eq in self.constraints:
            expr = AffExpr.constant(const)
            for c, e in zip(coeffs, fn.exprs):
                expr = expr + e * c
            cons.append((expr.as_vector(fn.domain.dims), expr.const, eq))
        return BasicSet(fn.domain, cons)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BasicSet({self.space}, {len(self.constraints)} cons, "
            f"{self.n_exists} exists)"
        )


class ISet:
    """A finite union of :class:`BasicSet` over a common visible space."""

    __slots__ = ("space", "parts")

    def __init__(self, space: Space, parts: Sequence[BasicSet] = ()) -> None:
        self.space = space
        kept = []
        for p in parts:
            if p.space.dims != space.dims:
                raise PolyhedralError("union over mismatched spaces")
            if not p._known_empty:
                kept.append(p)
        self.parts = tuple(kept)

    @staticmethod
    def from_basic(bs: BasicSet) -> "ISet":
        return ISet(bs.space, (bs,))

    @staticmethod
    def empty(space: Space) -> "ISet":
        return ISet(space, ())

    def union(self, other: "ISet | BasicSet") -> "ISet":
        parts = other.parts if isinstance(other, ISet) else (other,)
        return ISet(self.space, self.parts + tuple(parts))

    def intersect(self, other: "ISet | BasicSet") -> "ISet":
        oparts = other.parts if isinstance(other, ISet) else (other,)
        out = [a.intersect(b) for a in self.parts for b in oparts]
        return ISet(self.space, out)

    def is_empty(self, exact: bool = True, budget: int = 500_000) -> bool:
        return all(p.is_empty(exact=exact, budget=budget) for p in self.parts)

    def contains(self, point: Sequence[int]) -> bool:
        return any(p.contains(point) for p in self.parts)

    def points(self, limit: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        seen = set()
        for p in self.parts:
            for pt in p.points(limit=limit):
                if pt not in seen:
                    seen.add(pt)
                    yield pt

    def project_out(self, dims: Sequence[str]) -> "ISet":
        parts = [p.project_out(dims) for p in self.parts]
        space = (
            parts[0].space
            if parts
            else Space(self.space.name, tuple(d for d in self.space.dims if d not in set(dims)))
        )
        return ISet(space, parts)

    def apply(self, fn: AffTuple) -> "ISet":
        parts = [p.apply(fn) for p in self.parts]
        if parts:
            return ISet(parts[0].space, parts)
        out_dims = (
            fn.target.dims
            if fn.target.rank == fn.n_out
            else tuple(f"__o{j}" for j in range(fn.n_out))
        )
        return ISet(Space(fn.target.name, out_dims), ())

    def __repr__(self) -> str:  # pragma: no cover
        return " U ".join(repr(p) for p in self.parts) or "{}"
