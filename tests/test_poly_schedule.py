"""Tests for polyhedral statements, reference schedule, dataflow, rescheduling."""

from itertools import permutations

import pytest

from repro.apps import gradient_program, interpolation_program
from repro.apps.helmholtz import inverse_helmholtz_program
from repro.apps.workloads import make_workload
from repro.errors import PolyhedralError
from repro.poly.codegen_ast import build_loop_ast, kernel_trip_counts
from repro.poly.dataflow import (
    access_schedule_points,
    check_schedule_legal,
    raw_element_relation,
    statement_raw_deps,
    statement_rar_pairs,
)
from repro.poly.reschedule import (
    RescheduleOptions,
    innermost_stride,
    raw_cost,
    reschedule,
    schedule_cost,
)
from repro.poly.schedule import (
    reference_schedule,
    with_statement_order,
    with_loop_permutation,
)
from repro.teil import canonicalize, lower_program


def helmholtz_poly(n=4, factorize=True):
    fn = canonicalize(lower_program(inverse_helmholtz_program(n)), factorize=factorize)
    return reference_schedule(fn)


class TestStatements:
    def test_statement_count_and_kinds(self):
        prog = helmholtz_poly()
        assert len(prog.statements) == 7
        kinds = [s.kind for s in prog.statements]
        assert kinds.count("contract") == 6
        assert kinds.count("ewise:*") == 1

    def test_contraction_has_inner_domain(self):
        prog = helmholtz_poly(n=4)
        s0 = prog.statements[0]
        assert s0.is_reduction
        assert len(s0.loop_dims) == 4  # 3 output + 1 reduction
        assert len(list(s0.domain.points())) == 4**4

    def test_ewise_statement_domain(self):
        prog = helmholtz_poly(n=3)
        had = [s for s in prog.statements if s.kind == "ewise:*"][0]
        assert not had.is_reduction
        assert len(list(had.domain.points())) == 27

    def test_reference_schedule_stages(self):
        prog = helmholtz_poly()
        stages = [prog.stage_of(s) for s in prog.statements]
        assert stages == list(range(7))

    def test_schedule_rank_covers_deepest_nest(self):
        prog = helmholtz_poly()
        assert prog.sched_rank == 5  # stage + 3 out + 1 red

    def test_write_access_evaluates(self):
        prog = helmholtz_poly(n=4)
        s0 = prog.statements[0]
        pt = (1, 2, 3, 0)
        assert s0.write.fn.evaluate(pt) == (1, 2, 3)


class TestDataflow:
    def test_raw_dep_chain(self):
        prog = helmholtz_poly()
        deps = statement_raw_deps(prog)
        # factorized Helmholtz: each temp feeds the next stage, u feeds s0
        pairs = {(d.producer, d.consumer) for d in deps}
        assert ("s0", "s1") in pairs
        assert ("s5", "s6") in pairs
        assert len(deps) == 6  # t0..t3, t, r each consumed once

    def test_rar_pairs_for_shared_s(self):
        prog = helmholtz_poly()
        rars = [d for d in statement_rar_pairs(prog) if d.tensor == "S"]
        assert len(rars) == 15  # 6 readers of S -> C(6,2)

    def test_legality_check_rejects_bad_order(self):
        prog = helmholtz_poly()
        names = [s.name for s in prog.statements]
        bad = with_statement_order(prog, list(reversed(names)))
        with pytest.raises(PolyhedralError, match="illegal schedule"):
            check_schedule_legal(bad)

    def test_raw_element_relation_basic(self):
        prog = helmholtz_poly(n=3)
        raw = raw_element_relation(prog, "t")
        assert raw is not None
        # element t[0,0,0] is written at stage of its producer, read at Hadamard
        pairs = raw.image_of_point((0, 0, 0))
        assert pairs, "t[0,0,0] must have write->read schedule pairs"
        rank = prog.sched_rank
        for p in pairs:
            w, r = p[:rank], p[rank:]
            assert w <= r  # lexicographic via tuple comparison on equal rank

    def test_raw_element_relation_none_for_input_only(self):
        prog = helmholtz_poly(n=3)
        assert raw_element_relation(prog, "S") is None  # never written in-kernel

    def test_access_schedule_points(self):
        prog = helmholtz_poly(n=3)
        reads = access_schedule_points(prog, "D", "r")
        writes = access_schedule_points(prog, "D", "w")
        assert reads is not None and not reads.is_empty(exact=False)
        assert writes is None or writes.is_empty(exact=False)

    def test_mode_validation(self):
        prog = helmholtz_poly(n=3)
        with pytest.raises(PolyhedralError):
            access_schedule_points(prog, "D", "x")


class TestReschedule:
    def test_reschedule_is_legal_and_no_worse(self):
        prog = helmholtz_poly()
        opt = reschedule(prog)
        check_schedule_legal(opt)
        assert raw_cost(opt) <= raw_cost(prog)

    def test_reference_order_is_optimal_for_chain(self):
        # the factorized Helmholtz is a pure chain: order must be unchanged
        prog = helmholtz_poly()
        opt = reschedule(prog)
        order = [s.name for s in opt.statements_in_schedule_order()]
        assert order == [f"s{i}" for i in range(7)]

    def test_loop_permutation_prefers_register_accumulator(self):
        prog = helmholtz_poly(n=5)
        opt = reschedule(prog)
        from repro.poly.codegen_ast import scheduled_loop_dims

        for s in opt.statements:
            dims = scheduled_loop_dims(opt, s)
            if s.is_reduction:
                # reduction dims must be the innermost contiguous suffix
                n_red = len(s.reduction_dims)
                assert set(dims[-n_red:]) == set(s.reduction_dims), (s.name, dims)
            perm = [s.loop_dims.index(d) for d in dims]
            strides = innermost_stride(opt, s, perm)
            # the write access is never strided by the innermost loop
            assert strides[0] in (0, 1), (s.name, strides)

    def test_permutation_validation(self):
        prog = helmholtz_poly()
        with pytest.raises(PolyhedralError):
            with_loop_permutation(prog, "s0", [0, 0, 1, 2])

    def test_order_validation(self):
        prog = helmholtz_poly()
        with pytest.raises(PolyhedralError):
            with_statement_order(prog, ["s0"])


def recomposed_innermost_stride(prog, stmt, perm):
    """Innermost strides by composing ``Layout.aff ∘ access`` for this one
    permutation (the reference the hoisted stride table must match)."""
    inner_dim = stmt.loop_dims[perm[-1]]
    strides = []
    for acc in (stmt.write, *stmt.reads):
        layout = prog.layouts[acc.tensor]
        dims = tuple(f"x{i}" for i in range(len(layout.shape)))
        strides.append(layout.aff(dims).compose(acc.fn).exprs[0].coeff(inner_dim))
    return strides


def brute_force_loop_order(prog, stmt, placement):
    """The permutation minimizing (reduction misplaced, strided accesses,
    perm), recomposing the address map for every candidate."""
    nd = len(stmt.loop_dims)
    red = set(range(stmt.out_rank, nd))

    def key(perm):
        bad = sum(
            1 for s in recomposed_innermost_stride(prog, stmt, perm) if s not in (0, 1)
        )
        if not stmt.is_reduction or placement == "free":
            return (0, bad, perm)
        if placement == "innermost":
            ok = all(perm.index(i) >= nd - len(red) for i in red)
        else:
            ok = perm[-1] not in red
        return (0 if ok else 1, bad, perm)

    return min(permutations(range(nd)), key=key)


def oracle_kernels():
    """Scheduled Helmholtz, interpolation, gradient and fused fem-cfd kernels."""
    from repro.flow import FlowOptions, compile_any

    polys = {
        name: reference_schedule(canonicalize(lower_program(build(5))))
        for name, build in (
            ("helmholtz", inverse_helmholtz_program),
            ("interpolation", interpolation_program),
            ("gradient", gradient_program),
        )
    }
    fused = compile_any(
        make_workload("fem-cfd", n=4).program, FlowOptions(fusion="auto")
    )
    for name, result in fused.results.items():
        polys[f"fem-cfd:{name}"] = result.poly
    return polys


class TestRescheduleOracle:
    @pytest.fixture(scope="class")
    def kernels(self):
        return oracle_kernels()

    def test_fused_fem_cfd_is_one_kernel(self, kernels):
        assert len([k for k in kernels if k.startswith("fem-cfd:")]) == 1

    @pytest.mark.parametrize("placement", ["innermost", "outside", "free"])
    def test_loop_order_matches_brute_force(self, kernels, placement):
        from repro.poly.codegen_ast import scheduled_loop_dims

        checked = 0
        for name, prog in kernels.items():
            opt = reschedule(prog, RescheduleOptions(reduction_placement=placement))
            for s in opt.statements:
                if not 1 < len(s.loop_dims) <= 6:
                    continue
                chosen = tuple(
                    s.loop_dims.index(d) for d in scheduled_loop_dims(opt, s)
                )
                assert chosen == brute_force_loop_order(opt, s, placement), (
                    name, s.name,
                )
                checked += 1
        assert checked > 20

    def test_innermost_stride_matches_recomposition(self, kernels):
        for prog in kernels.values():
            for s in prog.statements:
                for perm in permutations(range(len(s.loop_dims))):
                    assert innermost_stride(prog, s, perm) == (
                        recomposed_innermost_stride(prog, s, perm)
                    )

    def test_statement_order_minimizes_schedule_cost(self, kernels):
        from repro.utils import stable_topo_orders

        options = RescheduleOptions(permute_loops=False)
        for name, prog in kernels.items():
            names = [s.name for s in prog.statements]
            edges = {n: [] for n in names}
            for dep in statement_raw_deps(prog):
                edges[dep.producer].append(dep.consumer)
            best = min(
                (schedule_cost(with_statement_order(prog, order), options), order)
                for order in stable_topo_orders(
                    names, edges, limit=options.max_orders
                )
            )
            opt = reschedule(prog, options)
            got = tuple(s.name for s in opt.statements_in_schedule_order())
            assert got == best[1], name


class TestLoopAst:
    def test_trip_counts_factorized(self):
        prog = reschedule(helmholtz_poly(n=11))
        ast = build_loop_ast(prog)
        trips = dict(kernel_trip_counts(ast))
        contract_trips = [v for k, v in trips.items() if k != "s3"]
        assert all(v == 11**4 for v in contract_trips)
        assert trips["s3"] == 11**3  # Hadamard

    def test_accumulator_style_detected(self):
        prog = reschedule(helmholtz_poly(n=4))
        ast = build_loop_ast(prog)
        for node in ast.stages:
            if node.stmt.kind == "contract":
                assert node.accumulator_style
                assert node.n_reduction_loops == 1

    def test_stage_order_matches_schedule(self):
        prog = reschedule(helmholtz_poly(n=4))
        ast = build_loop_ast(prog)
        names = [c.stmt.name for c in ast.stages]
        assert names == [s.name for s in prog.statements_in_schedule_order()]
