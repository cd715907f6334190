"""Multi-kernel programs, per-kernel cache granularity, solver loops."""

import numpy as np
import pytest

from repro.apps.helmholtz import (
    inverse_helmholtz_program,
    inverse_helmholtz_source,
)
from repro.apps.workloads import WORKLOAD_SUITES, make_workload, suite_program
from repro.errors import (
    CFDlangSyntaxError,
    SystemGenerationError,
)
from repro.flow import (
    FlowOptions,
    FlowTrace,
    Program,
    ProgramResult,
    SolverLoop,
    StageCache,
    compile_any,
    compile_many,
    compile_program,
    is_program_text,
)
from repro.flow.cli import main as cli_main
from repro.flow.stages import FRONT_END_STAGES
from repro.teil.interp import interpret

N = 5  # small extent keeps compiles fast; math is extent-independent


def front_end_counts(trace, start=0):
    """(executed, cached) front-end stage lookups since event ``start``."""
    events = trace.events[start:]
    ran = sum(
        1 for e in events if e.stage in FRONT_END_STAGES and not e.cached
    )
    hit = sum(1 for e in events if e.stage in FRONT_END_STAGES and e.cached)
    return ran, hit


class TestProgramConstruction:
    def test_kernels_in_order(self):
        wl = make_workload("fem-cfd", n=N)
        assert wl.program.kernel_names() == [
            "interpolate", "helmholtz", "gradient",
        ]
        assert len(wl.program) == 3

    def test_duplicate_kernel_name_rejected(self):
        p = Program("p").add_kernel("k", inverse_helmholtz_program(N))
        with pytest.raises(SystemGenerationError, match="already has"):
            p.add_kernel("k", inverse_helmholtz_program(N))

    def test_kernel_name_must_be_identifier(self):
        with pytest.raises(SystemGenerationError, match="identifier"):
            Program("p").add_kernel("not a name", inverse_helmholtz_program(N))

    def test_program_name_must_be_clean(self):
        with pytest.raises(SystemGenerationError, match="whitespace"):
            Program("two words")

    def test_bad_kernel_source_type(self):
        with pytest.raises(SystemGenerationError, match="must be CFDlang"):
            Program("p").add_kernel("k", 42)

    def test_syntax_error_surfaces_at_construction(self):
        with pytest.raises(CFDlangSyntaxError):
            Program("p").add_kernel("k", "var input u : [")

    def test_empty_program_invalid(self):
        with pytest.raises(SystemGenerationError, match="no kernels"):
            Program("p").validate()

    def test_shared_tensor_shape_mismatch(self):
        p = Program("p")
        p.add_kernel("a", f"var input u : [{N} {N} {N}]\n"
                          f"var output v : [{N} {N} {N}]\nv = u * u\n")
        p.add_kernel("b", "var input v : [3 3]\nvar output w : [3 3]\n"
                          "w = v + v\n")
        with pytest.raises(SystemGenerationError, match="tensor 'v'"):
            p.validate()

    def test_output_of_one_kernel_can_feed_the_next(self):
        # same name, same shape, different kinds: a legal chain link
        wl = make_workload("helmholtz-gradient", n=N)
        assert "v" in wl.program.shared_tensors()
        wl.program.validate()


class TestProgramText:
    def test_round_trip(self):
        wl = make_workload("smoother", n=N)
        text = wl.program.to_text()
        assert is_program_text(text)
        back = Program.from_text(text)
        assert back.name == wl.program.name
        assert back.kernel_names() == wl.program.kernel_names()
        assert back.to_text() == text

    def test_str_is_to_text(self):
        wl = make_workload("smoother", n=N)
        assert str(wl.program) == wl.program.to_text()

    def test_single_kernel_text_is_not_program_text(self):
        assert not is_program_text(inverse_helmholtz_source(N))

    def test_from_text_rejects_bad_header(self):
        with pytest.raises(SystemGenerationError, match="must start with"):
            Program.from_text("var input u : [3]\n")

    def test_from_text_rejects_content_before_kernels(self):
        with pytest.raises(SystemGenerationError, match="before first"):
            Program.from_text(
                "=== cfdlang program p ===\nvar input u : [3]\n"
            )

    def test_add_kernel_rejects_program_text(self):
        wl = make_workload("smoother", n=N)
        with pytest.raises(SystemGenerationError, match="serialized"):
            Program("p").add_kernel("k", wl.program.to_text())


class TestCompileProgram:
    def test_results_per_kernel(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program)
        assert isinstance(res, ProgramResult)
        assert res.kernel_names() == ["helmholtz", "update"]
        assert res["helmholtz"].function.name == "helmholtz"
        assert res["update"].function.name == "update"
        assert len(res.chain()) == 2

    def test_unknown_kernel_lookup(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program)
        with pytest.raises(SystemGenerationError, match="no kernel"):
            res["nope"]

    def test_accepts_program_text(self):
        wl = make_workload("smoother", n=N)
        res = compile_program(wl.program.to_text())
        assert res.kernel_names() == ["helmholtz", "update"]

    def test_compile_any_matches_one_kernel_program(self):
        single = compile_any(inverse_helmholtz_source(N))
        direct = compile_program(
            Program("kernel_body").add_kernel(
                "kernel_body", inverse_helmholtz_source(N)
            )
        )["kernel_body"]
        assert single.function.fingerprint() == direct.function.fingerprint()
        assert single.sim.total_cycles == direct.sim.total_cycles
        assert single.memory.brams == direct.memory.brams

    def test_single_kernel_and_program_share_cache_keys(self):
        cache, trace = StageCache(), FlowTrace()
        from repro.flow.session import Flow

        Flow(inverse_helmholtz_source(N), cache=cache, trace=trace).run()
        before = len(trace.events)
        program = Program("p").add_kernel(
            "kernel_body", inverse_helmholtz_source(N)
        )
        compile_program(program, cache=cache, trace=trace)
        ran, hit = front_end_counts(trace, before)
        assert ran == 0 and hit == len(FRONT_END_STAGES)

    def test_compile_any_dispatch(self):
        wl = make_workload("smoother", n=N)
        assert isinstance(compile_any(wl.program), ProgramResult)
        assert isinstance(compile_any(wl.program.to_text()), ProgramResult)
        single = compile_any(inverse_helmholtz_source(N))
        assert not isinstance(single, ProgramResult)
        assert single.function.name == "kernel_body"


class TestPerKernelCacheGranularity:
    def test_text_variants_share_all_stage_keys(self):
        cache, trace = StageCache(), FlowTrace()
        source = inverse_helmholtz_source(N)
        compile_any(source, cache=cache, trace=trace)
        before = len(trace.events)
        # whitespace/blank-line variant: canonicalization (parse +
        # reprint) gives it the same source key, so nothing re-runs
        variant = "\n\n" + source.replace("\n", "\n\n")
        compile_any(variant, cache=cache, trace=trace)
        ran, hit = front_end_counts(trace, before)
        assert ran == 0 and hit == len(FRONT_END_STAGES)

    def test_source_key_parses_each_text_once(self, monkeypatch):
        """Every point of a sweep builds its Flow from the same kernel
        text: the canonical source key must not parse it again per
        point."""
        import repro.flow.stages as stages
        from repro.flow import Flow

        parsed = []
        real_parse = stages.parse_program
        monkeypatch.setattr(
            stages, "parse_program",
            lambda text: parsed.append(text) or real_parse(text),
        )
        source = "// keyed once\n" + inverse_helmholtz_source(N)
        keys = {Flow(source)._keys["source"] for _ in range(3)}
        assert parsed == [source] and len(keys) == 1

    def test_ast_and_text_share_all_stage_keys(self):
        cache, trace = StageCache(), FlowTrace()
        compile_any(inverse_helmholtz_program(N), cache=cache, trace=trace)
        before = len(trace.events)
        compile_any(inverse_helmholtz_source(N), cache=cache, trace=trace)
        ran, hit = front_end_counts(trace, before)
        assert ran == 0 and hit == len(FRONT_END_STAGES)

    def test_shared_kernel_cached_across_programs(self):
        cache, trace = StageCache(), FlowTrace()
        first = make_workload("smoother", n=N)
        compile_program(first.program, cache=cache, trace=trace)
        before = len(trace.events)
        second = make_workload("helmholtz-gradient", n=N)
        res = compile_program(second.program, cache=cache, trace=trace)
        events = trace.events[before:]
        # two kernels compiled; the shared helmholtz kernel must be
        # served fully from the front-end cache, so at most one kernel's
        # worth of front-end stages actually ran (the new gradient one)
        ran, hit = front_end_counts(trace, before)
        assert ran == len(FRONT_END_STAGES)
        assert hit >= len(FRONT_END_STAGES)
        assert res.kernel_names() == ["helmholtz", "gradient"]

    def test_same_math_different_name_does_not_collide(self):
        # the function fingerprint includes the kernel name, so two
        # kernels with identical math but different names produce
        # distinct downstream artifacts (the C function name differs)
        cache = StageCache()
        p = (
            Program("p")
            .add_kernel("alpha", inverse_helmholtz_source(N))
            .add_kernel("beta", inverse_helmholtz_source(N))
        )
        res = compile_program(p, cache=cache)
        assert res["alpha"].function.name == "alpha"
        assert res["beta"].function.name == "beta"
        assert (res["alpha"].function.fingerprint()
                != res["beta"].function.fingerprint())


class TestSolverLoop:
    def test_warm_steps_fully_front_end_cached(self):
        wl = make_workload("smoother", n=N)
        loop = SolverLoop(wl.program, carry=wl.carry)
        result = loop.run(wl.elements, wl.static, steps=3)
        assert len(result.steps) == 3
        assert result.steps[0].front_end_executed > 0
        for step in result.warm_steps():
            assert step.front_end_executed == 0
            assert step.front_end_cached > 0
        assert result.cross_step_hit_rate() == 1.0
        assert result.elements_per_sec() > 0
        assert "cross-step" in result.summary()

    def test_numeric_equivalence_with_interpreter(self):
        wl = make_workload("smoother", n=N, n_elements=3)
        loop = SolverLoop(wl.program, carry=wl.carry, backend="numpy")
        result = loop.run(wl.elements, wl.static, steps=3)
        fns = [r.function for r in result.compiled]
        u = wl.elements["u"].copy()
        for _ in range(3):
            nxt = np.empty_like(u)
            for e in range(u.shape[0]):
                env = dict(wl.static)
                env["u"] = u[e]
                env.update(interpret(fns[0], env))
                nxt[e] = interpret(fns[1], env)["w"]
            u = nxt
        np.testing.assert_allclose(
            result.outputs["w"], u, rtol=1e-10, atol=1e-12
        )

    def test_backends_agree(self):
        wl = make_workload("helmholtz-gradient", n=N, n_elements=2)
        out_loops = SolverLoop(wl.program, backend="loops").run(
            wl.elements, wl.static, steps=1
        )
        out_numpy = SolverLoop(wl.program, backend="numpy").run(
            wl.elements, wl.static, steps=1
        )
        for name in out_loops.outputs:
            np.testing.assert_allclose(
                out_numpy.outputs[name], out_loops.outputs[name],
                rtol=1e-12, atol=1e-12,
            )

    def test_carry_validation(self):
        wl = make_workload("smoother", n=N)
        with pytest.raises(SystemGenerationError, match="carry source"):
            SolverLoop(wl.program, carry={"nope": "u"})
        with pytest.raises(SystemGenerationError, match="carry target"):
            SolverLoop(wl.program, carry={"w": "nope"})

    def test_bad_step_count(self):
        wl = make_workload("smoother", n=N)
        with pytest.raises(SystemGenerationError, match="steps"):
            SolverLoop(wl.program).run(wl.elements, wl.static, steps=0)

    def test_chain_input_neither_streamed_nor_static(self):
        from repro.errors import SimulationError

        wl = make_workload("smoother", n=N)
        loop = SolverLoop(wl.program)
        with pytest.raises(SimulationError, match="neither"):
            loop.run(wl.elements, {}, steps=1)  # S and D missing


class TestExecutorsAcceptPrograms:
    def test_compile_many_mixed_points(self):
        wl = make_workload("smoother", n=N)
        results = compile_many(
            [
                wl.program,
                inverse_helmholtz_source(N),
                (wl.program.to_text(), FlowOptions()),
            ],
            jobs=2,
        )
        assert isinstance(results[0], ProgramResult)
        assert not isinstance(results[1], ProgramResult)
        assert isinstance(results[2], ProgramResult)
        assert results[2].kernel_names() == ["helmholtz", "update"]

    def test_run_job_spec_handles_program_text(self, tmp_path):
        from repro.flow.executors import run_job_spec
        from repro.flow.stages import source_fingerprint
        from repro.flow.store import DiskStageCache

        wl = make_workload("smoother", n=N)
        cache = DiskStageCache(str(tmp_path / "cache"))
        spec = (source_fingerprint(wl.program), FlowOptions().to_spec())
        outcome, events, deltas = run_job_spec(spec, cache, None, "w1")
        assert isinstance(outcome, ProgramResult)
        assert outcome.kernel_names() == ["helmholtz", "update"]
        assert events and all(origin.endswith("@w1")
                              for _, _, _, origin in events)

    def test_source_fingerprint_of_program(self):
        from repro.flow.stages import source_fingerprint

        wl = make_workload("smoother", n=N)
        assert source_fingerprint(wl.program) == wl.program.to_text()


class TestCli:
    def test_program_verb_suite(self, capsys):
        assert cli_main(["program", "--suite", "smoother", "-n", str(N)]) == 0
        out = capsys.readouterr().out
        assert "helmholtz" in out and "update" in out

    def test_program_verb_functional_run(self, capsys):
        rc = cli_main([
            "program", "--suite", "helmholtz-gradient", "-n", str(N),
            "--exec-backend", "numpy", "--functional-ne", "3",
        ])
        assert rc == 0
        assert "functional[numpy]" in capsys.readouterr().out

    def test_program_verb_from_file(self, tmp_path, capsys):
        wl = make_workload("smoother", n=N)
        path = tmp_path / "prog.cfdp"
        path.write_text(wl.program.to_text())
        assert cli_main(["program", str(path)]) == 0

    def test_program_verb_no_input(self, capsys):
        assert cli_main(["program"]) == 2

    def test_program_file_exec_backend_rejected_before_compiling(
        self, tmp_path, capsys
    ):
        path = tmp_path / "prog.cfdp"
        path.write_text(make_workload("smoother", n=N).program.to_text())
        rc = cli_main(["program", str(path), "--exec-backend", "numpy"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--exec-backend needs --suite" in captured.err
        # nothing compiled: no program summary reached stdout
        assert captured.out == ""

    def test_suite_program_matches_workload_program(self):
        for suite in WORKLOAD_SUITES:
            built = suite_program(suite, n=N)
            assert built.to_text() == make_workload(suite, n=N).program.to_text()
        with pytest.raises(SystemGenerationError, match="unknown workload suite"):
            suite_program("nope")

    def test_solve_verb_cross_step_guard(self, capsys):
        rc = cli_main([
            "solve", "--suite", "smoother", "-n", str(N), "--steps", "2",
            "--ne", "3", "--trace", "--expect-front-end-cached",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-step front-end cache hit rate: 100.0%" in out

    def test_solve_verb_guard_needs_two_steps(self, capsys):
        rc = cli_main([
            "solve", "--suite", "smoother", "-n", str(N), "--steps", "1",
            "--expect-front-end-cached",
        ])
        assert rc == 2

    def test_program_verb_warm_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["program", "--suite", "smoother", "-n", str(N),
                         "--cache-dir", cache_dir]) == 0
        rc = cli_main(["program", "--suite", "smoother", "-n", str(N),
                       "--cache-dir", cache_dir,
                       "--expect-front-end-cached"])
        assert rc == 0


class TestMeasuredSoftwareBaseline:
    def test_measured_or_clean_skip(self):
        from repro.exec import get_backend
        from repro.sim.cpu import measured_sw_seconds_per_element
        from repro.teil.from_ast import lower_program

        fn = lower_program(inverse_helmholtz_program(N), name="k")
        got = measured_sw_seconds_per_element(fn, n_elements=4)
        if get_backend("cnative").available():
            assert got is not None and got > 0
        else:
            assert got is None
