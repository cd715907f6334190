"""Unit tests for the integer-set core (spaces, affine exprs, sets)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolyhedralError
from repro.poly.aff import AffExpr, AffTuple
from repro.poly.iset import BasicSet, ISet
from repro.poly.space import Space, anonymous


def space(*dims):
    return Space("t", tuple(dims))


class TestSpace:
    def test_rank_and_index(self):
        s = space("i", "j", "k")
        assert s.rank == 3
        assert s.dim_index("j") == 1

    def test_duplicate_dims_rejected(self):
        with pytest.raises(PolyhedralError):
            Space("t", ("i", "i"))

    def test_unknown_dim(self):
        with pytest.raises(PolyhedralError):
            space("i").dim_index("z")

    def test_concat_and_rename(self):
        s = space("i").concat(space("j").renamed("r_"))
        assert s.dims == ("i", "r_j")

    def test_anonymous(self):
        assert anonymous(3).dims == ("s0", "s1", "s2")


class TestAffExpr:
    def test_arithmetic(self):
        e = AffExpr.var("i") * 3 + AffExpr.var("j") - 2
        assert e.evaluate({"i": 4, "j": 5}) == 15

    def test_substitute(self):
        e = AffExpr.var("i") * 11 + AffExpr.var("j")
        sub = e.substitute({"i": AffExpr.var("a") + 1})
        assert sub.evaluate({"a": 2, "j": 7}) == 11 * 3 + 7

    def test_zero_coeff_dropped(self):
        e = AffExpr.from_dict({"i": 0, "j": 2})
        assert e.used_dims() == ("j",)

    def test_scale_by_non_int_rejected(self):
        with pytest.raises(PolyhedralError):
            AffExpr.var("i") * 1.5  # type: ignore[operator]

    def test_as_vector_unknown_dim(self):
        with pytest.raises(PolyhedralError):
            AffExpr.var("z").as_vector(("i", "j"))


class TestAffTuple:
    def test_layout_composition(self):
        # t[i,j] -> [11i + j]  composed with shift a -> (a+1, a)
        s2 = space("i", "j")
        layout = AffTuple(s2, (AffExpr.var("i") * 11 + AffExpr.var("j"),), Space("arr", ("x",)))
        shift = AffTuple(space("a"), (AffExpr.var("a") + 1, AffExpr.var("a")), s2)
        comp = layout.compose(shift)
        assert comp.evaluate((3,)) == (11 * 4 + 3,)

    def test_identity(self):
        ident = AffTuple.identity(space("i", "j"))
        assert ident.evaluate((5, 6)) == (5, 6)

    def test_concat_outputs(self):
        s = space("i")
        f = AffTuple(s, (AffExpr.var("i"),), Space("a", ("x",)))
        g = AffTuple(s, (AffExpr.var("i") * 2,), Space("b", ("y",)))
        fg = f.concat_outputs(g)
        assert fg.evaluate((3,)) == (3, 6)


class TestBasicSet:
    def test_box_membership(self):
        b = BasicSet.from_shape(space("i", "j"), (3, 4))
        assert b.contains((0, 0)) and b.contains((2, 3))
        assert not b.contains((3, 0)) and not b.contains((0, -1))

    def test_points_count(self):
        b = BasicSet.from_shape(space("i", "j"), (3, 4))
        assert len(list(b.points())) == 12

    def test_empty_detection(self):
        b = BasicSet.from_box(space("i"), [(5, 3)])
        assert b.is_empty()
        assert BasicSet.empty(space("i")).is_empty_rational()

    def test_intersect(self):
        a = BasicSet.from_box(space("i"), [(0, 10)])
        b = BasicSet.from_box(space("i"), [(5, 20)])
        pts = list(a.intersect(b).points())
        assert pts == [(i,) for i in range(5, 11)]

    def test_constraint_gcd_tightening(self):
        # 2i - 1 >= 0 over integers means i >= 1
        b = BasicSet.from_box(space("i"), [(-10, 10)]).with_constraint(
            AffExpr.var("i") * 2 - 1
        )
        lo, hi = b.dim_bounds("i")
        assert lo == 1 and hi == 10

    def test_equality_without_integer_solution(self):
        # 2i == 1 has no integer solution
        b = BasicSet.from_box(space("i"), [(-5, 5)]).with_constraint(
            AffExpr.var("i") * 2 - 1, eq=True
        )
        assert b.is_empty()

    def test_large_constants_are_exact(self):
        big = 2**53 + 3  # float(big) rounds to big + 1
        box = BasicSet.from_box(space("i"), [(big, big)])
        assert list(box.points()) == [(big,)]
        assert box.dim_bounds("i") == (big, big)
        assert box.contains((big,))
        # -2i + 2 big + 1 >= 0 tightens to i <= floor((2 big + 1) / 2) = big
        b = BasicSet.from_box(space("i"), [(big - 1, big + 5)]).with_constraint(
            AffExpr.var("i") * -2 + 2 * big + 1
        )
        assert b.dim_bounds("i") == (big - 1, big)
        assert list(b.points()) == [(big - 1,), (big,)]

    def test_project_out(self):
        b = BasicSet.from_shape(space("i", "j"), (3, 7))
        p = b.project_out(["j"])
        assert sorted(p.points()) == [(i,) for i in range(3)]

    def test_project_with_equality(self):
        # { (i, j) : j == i + 2, 0 <= i < 5 } projected to j is {2..6}
        b = BasicSet.from_box(space("i", "j"), [(0, 4), (-100, 100)]).with_constraint(
            AffExpr.var("j") - AffExpr.var("i") - 2, eq=True
        )
        p = b.project_onto(["j"])
        assert sorted(p.points()) == [(j,) for j in range(2, 7)]

    def test_fix_dim(self):
        b = BasicSet.from_shape(space("i", "j"), (3, 4))
        f = b.fix_dim("i", 2)
        assert f.space.dims == ("j",)
        assert len(list(f.points())) == 4

    def test_apply_affine_image(self):
        # image of {0..3} under i -> 11*i + 5
        b = BasicSet.from_box(space("i"), [(0, 3)])
        fn = AffTuple(space("i"), (AffExpr.var("i") * 11 + 5,), Space("a", ("x",)))
        img = b.apply(fn)
        assert sorted(img.points()) == [(5,), (16,), (27,), (38,)]

    def test_preimage(self):
        # preimage of {10..20} under i -> 2i is {5..10}
        target = BasicSet.from_box(Space("a", ("x",)), [(10, 20)])
        fn = AffTuple(space("i"), (AffExpr.var("i") * 2,), Space("a", ("x",)))
        pre = target.preimage(fn)
        assert sorted(pre.points()) == [(i,) for i in range(5, 11)]

    def test_sample_on_empty(self):
        assert BasicSet.from_box(space("i"), [(3, 2)]).sample() is None

    def test_contains_rank_mismatch(self):
        with pytest.raises(PolyhedralError):
            BasicSet.from_shape(space("i"), (3,)).contains((1, 2))


class TestISet:
    def test_union_and_points(self):
        s = space("i")
        u = ISet.from_basic(BasicSet.from_box(s, [(0, 2)])).union(
            BasicSet.from_box(s, [(5, 6)])
        )
        assert sorted(u.points()) == [(0,), (1,), (2,), (5,), (6,)]

    def test_union_dedupes_points(self):
        s = space("i")
        u = ISet.from_basic(BasicSet.from_box(s, [(0, 4)])).union(
            BasicSet.from_box(s, [(3, 6)])
        )
        assert len(list(u.points())) == 7

    def test_intersect_empty(self):
        s = space("i")
        a = ISet.from_basic(BasicSet.from_box(s, [(0, 2)]))
        b = ISet.from_basic(BasicSet.from_box(s, [(5, 6)]))
        assert a.intersect(b).is_empty()

    def test_apply(self):
        s = space("i")
        u = ISet.from_basic(BasicSet.from_box(s, [(0, 1)]))
        fn = AffTuple(s, (AffExpr.var("i") + 100,), Space("a", ("x",)))
        assert sorted(u.apply(fn).points()) == [(100,), (101,)]


@st.composite
def boxed_systems(draw):
    """A random set over 1-3 visible and 0-2 existential dims, with every
    column boxed inside [-2, 2] (so brute force is finite and the integer
    search is exact) and up to three random equalities or inequalities."""
    n_vis = draw(st.integers(1, 3))
    n_exists = draw(st.integers(0, 2))
    width = n_vis + n_exists
    box = []
    for _ in range(width):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        box.append((min(a, b), max(a, b)))
    cons = []
    for j, (lo, hi) in enumerate(box):
        unit = tuple(int(i == j) for i in range(width))
        cons.append((unit, -lo, False))
        cons.append((tuple(-c for c in unit), hi, False))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = tuple(draw(st.integers(-3, 3)) for _ in range(width))
        cons.append((coeffs, draw(st.integers(-6, 6)), draw(st.booleans())))
    bs = BasicSet(Space("o", tuple(f"x{i}" for i in range(n_vis))), cons, n_exists)
    return bs, box, cons


def satisfies(point, cons):
    for coeffs, const, eq in cons:
        v = sum(a * x for a, x in zip(coeffs, point)) + const
        if v < 0 or (eq and v):
            return False
    return True


def brute_points(rank, box, cons):
    """Visible points of the system, by testing every point of the box."""
    boxed = itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    return {full[:rank] for full in boxed if satisfies(full, cons)}


class TestProjectionOracle:
    """The Fourier-Motzkin core against brute-force enumeration."""

    @given(boxed_systems())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force(self, system):
        bs, box, cons = system
        expected = brute_points(bs.rank, box, cons)
        if bs.is_empty_rational():
            assert not expected
        assert bs.is_empty() == (not expected)
        for k, dim in enumerate(bs.space.dims):
            lo, hi = bs.dim_bounds(dim)
            for p in expected:
                assert lo is None or lo <= p[k]
                assert hi is None or p[k] <= hi
        assert set(bs.points()) == expected
