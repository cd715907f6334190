"""solver-steps: warm ``SolverLoop`` time steps in a seeded order over
``fem-cfd`` (fused and unfused) and ``smoother`` at Ne=1024, on the
``numpy`` and ``cnative`` backends.  One op is one warm step.

Warm steps are served entirely from the stage cache, so the exec
backends do almost all the work and the compile layers almost none:
compile-time fixes are predicted not to move this workload.
"""

from __future__ import annotations

import numpy as np

from bench import median, record_stage_events

DEGREE = 7
N_ELEMENTS = 1024
#: warm steps a run takes at least, so that step_s.p90 has ten beyond it
MIN_STEPS = 100
#: elements of one step re-run on the ``loops`` reference backend
CHECKED_ELEMENTS = 2
TOLERANCE = 1e-12
PROGRAMS = (("fem-cfd", "auto"), ("fem-cfd", None), ("smoother", None))
BACKENDS = ("numpy", "cnative")
KINDS = tuple(
    f"{suite}{'+fused' if fusion else ''}/{backend}"
    for suite, fusion in PROGRAMS for backend in BACKENDS
)


def setup(ctx):
    """Seeded element data, one loop per (program, backend) sharing one
    stage cache per program, and each loop's step 1 (the compile, and
    the C build on cnative)."""
    from repro.apps.workloads import make_workload
    from repro.flow import SolverLoop, StageCache

    configs = {}
    seed = ctx.rng.randrange(2**31)
    for suite, fusion in PROGRAMS:
        workload = make_workload(suite, n=DEGREE, n_elements=N_ELEMENTS,
                                 seed=seed)
        cache = StageCache()
        for backend in BACKENDS:
            kind = f"{suite}{'+fused' if fusion else ''}/{backend}"
            loop = SolverLoop(workload.program, carry=workload.carry,
                              backend=backend, fusion=fusion, cache=cache)
            state = dict(workload.elements)
            result = loop.run(state, workload.static, steps=1)
            configs[kind] = {"loop": loop, "workload": workload,
                             "state": _carry(workload, state, result),
                             "fusion": fusion, "cache": cache}
    return configs


def _carry(workload, state, result):
    state = dict(state)
    for out_name, in_name in workload.carry.items():
        state[in_name] = result.outputs[out_name]
    return state


def check_step(config, before, result) -> list:
    """Re-run a few elements of one step on the ``loops`` backend, a
    per-element interpreter independent of numpy and cnative."""
    from repro.flow import SolverLoop

    workload = config["workload"]
    picks = np.arange(CHECKED_ELEMENTS) * (N_ELEMENTS // CHECKED_ELEMENTS)
    subset = {name: arr[picks] for name, arr in before.items()}
    reference = SolverLoop(
        workload.program, carry=workload.carry, backend="loops",
        fusion=config["fusion"], cache=config["cache"],
    ).run(subset, workload.static, steps=1)
    errors = []
    for name, ref in reference.outputs.items():
        got = result.outputs[name][picks]
        if not np.allclose(got, ref, rtol=TOLERANCE, atol=TOLERANCE):
            errors.append(f"output {name} differs from loops by "
                          f"{float(np.max(np.abs(got - ref))):.3g}")
    return errors


def instrument(ctx):
    """Spans around kernel fusion and every ``run_batch`` call of the two
    backends (traced runs only)."""
    import repro.flow.program
    from repro.exec import get_backend

    repro.flow.program.fuse_functions = ctx.tracer.wrap(
        "teil.fuse", repro.flow.program.fuse_functions)
    for name in BACKENDS:
        backend = get_backend(name)
        inner = backend.run_batch

        def run_batch(fn, elements, *args, _inner=inner, _name=name,
                      **kwargs):
            ctx.tracer.count(f"exec.{_name}.elements",
                             len(next(iter(elements.values()))))
            with ctx.tracer.span(f"exec.{_name}.run_batch"):
                return _inner(fn, elements, *args, **kwargs)

        backend.run_batch = run_batch


def run(ctx, state):
    checked = set()
    compile_seconds = []
    for order in ctx.passes(KINDS, min_ops=MIN_STEPS):
        for kind in order:
            config = state[kind]
            before = config["state"]
            events = config["loop"].trace.events
            seen = len(events)
            with ctx.op(kind, work=N_ELEMENTS) as op:
                result = config["loop"].run(
                    before, config["workload"].static, steps=1)
                if ctx.tracer.enabled:
                    record_stage_events(
                        ctx, [(e.stage, e.seconds, e.cached)
                              for e in events[seen:]], nested=True)
            if not op["ok"]:
                continue
            compile_seconds.append(result.steps[0].compile_seconds)
            config["state"] = _carry(config["workload"], before, result)
            if kind not in checked:
                # the first warm step of every configuration is checked
                checked.add(kind)
                for error in check_step(config, before, result):
                    ctx.fail(op, error)
    ctx.layer["flow.solver.warm_compile_s"] = (median(compile_seconds),
                                               len(compile_seconds))


def teardown(ctx, state):
    pass
