"""elementwise-liveness: ``memory.liveness.arrays_conflict_elementwise``
queries over Helmholtz array pairs (n=2), in a seeded order.

Fourier-Motzkin projection and enumeration in ``poly/iset.py`` do nearly
all the work here and almost none anywhere else (the ``layouts`` stage
reads 0.0 ms), so without this workload a rewrite of the polyhedral
engine would go unmeasured.  The pairs are two of those the liveness
tests use — one that conflicts and one that does not — because each
query takes seconds and a pass must fit in one run.
"""

from __future__ import annotations

DEGREE = 2
PAIRS = (("u", "t0"), ("u", "t1"))
#: queries a run makes at least: one query's time varies by about 12%
#: from run to run, more than the CPU calibration explains, so the
#: medians need six queries of each pair
MIN_QUERIES = 12
KINDS = tuple(f"{a}~{b}" for a, b in PAIRS)


def instrument(ctx):
    """Spans around element liveness and every emptiness check (traced
    runs only)."""
    import repro.memory.liveness as liveness
    from repro.poly.iset import BasicSet

    liveness.element_liveness = ctx.tracer.wrap(
        "memory.element_liveness", liveness.element_liveness)
    BasicSet.is_empty = ctx.tracer.wrap(
        "poly.is_empty", BasicSet.is_empty, counter="poly.is_empty_calls")


def setup(ctx):
    from repro.apps.helmholtz import inverse_helmholtz_program
    from repro.flow import compile_any
    from repro.memory import stage_liveness

    prog = compile_any(inverse_helmholtz_program(DEGREE)).poly
    return {"prog": prog, "stages": stage_liveness(prog)}


def run(ctx, state):
    from repro.memory.liveness import arrays_conflict_elementwise

    prog, stages = state["prog"], state["stages"]
    for order in ctx.passes(KINDS, min_ops=MIN_QUERIES):
        for kind in order:
            a, b = kind.split("~")
            with ctx.op(kind) as op:
                conflict = arrays_conflict_elementwise(prog, a, b)
            # stage-granularity liveness is the independent answer: on
            # these stage-major schedules the two coincide
            expected = stages[a].overlaps(stages[b])
            if op["ok"] and conflict != expected:
                ctx.fail(op, f"conflict({a}, {b}) = {conflict}, stage "
                             f"liveness says {expected}")


def teardown(ctx, state):
    pass
