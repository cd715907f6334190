"""cold-cli: sequential fresh ``cfdlang-flow`` processes, each with an
empty stage cache and its artifacts written to its own temporary
directory.

Process start, ``import repro.flow``, the 15 flow stages and the artifact
write do all the work; the exec backends, the disk store and the broker
do none.  This is the workload where import-time and front-end
(``reschedule``) savings show.
"""

from __future__ import annotations

import pathlib
import re
import sys
import tempfile

from bench import (
    PAPER_HELMHOLTZ_DSP,
    PAPER_HELMHOLTZ_LUT,
    PAPER_PLM_BRAM36,
    record_stage_events,
)

#: op kind -> CLI arguments; every suite is a kind of its own, so the
#: seed sets the order of the invocations but never their mix
ARGS = {
    "helmholtz": ["--app", "helmholtz", "-n", "11", "--simulate"],
    "interpolation": ["--app", "interpolation"],
    "gradient": ["--app", "gradient"],
    "smoother": ["program", "--suite", "smoother"],
    "helmholtz-gradient": ["program", "--suite", "helmholtz-gradient"],
    "fem-cfd": ["program", "--suite", "fem-cfd"],
}
KINDS = tuple(ARGS)
ARTIFACTS = ("kernel.c", "host.c", "system.v", "mnemosyne_config.json",
             "hls_report.txt", "memory_subsystem.txt", "system_report.txt")

_TRACE_ROW = re.compile(
    r"^(?P<stage>[a-z-]+)\s*\|\s*(?P<runs>\d+)\s*\|\s*(?P<mem>\d+)\s*\|"
    r"\s*(?P<disk>\d+)\s*\|\s*(?P<remote>\d+)\s*\|\s*(?P<ms>[\d.]+)\s*$"
)


def setup(ctx):
    """Nothing stands between invocations, so set-up is what each one
    pays before its first stage: a fresh interpreter importing the CLI."""
    import repro.flow.cli  # noqa: F401

    return {}


def _argv(ctx, kind, out_dir):
    args = list(ARGS[kind])
    if args[0] != "program":  # the program verb writes no artifacts
        args += ["-o", out_dir]
    if ctx.tracer.enabled:
        args.append("--trace")
    return [sys.executable, "-m", "repro.flow.cli"] + args


def parse_trace_table(stdout: str):
    """The ``--trace`` table of a CLI run as stage events."""
    events = []
    for line in stdout.splitlines():
        m = _TRACE_ROW.match(line.strip())
        if m and m["stage"] != "total":
            runs = int(m["runs"])
            hits = int(m["mem"]) + int(m["disk"]) + int(m["remote"])
            seconds = float(m["ms"]) / 1e3
            # the table sums a stage's time; split it over its lookups so
            # executed and cached counts stay exact
            lookups = runs + hits
            for i in range(lookups):
                events.append((m["stage"], seconds / lookups, i >= runs))
    return events


def check_output(kind, proc, out_dir) -> list:
    """Failures of one invocation, judged against the exit code, the
    artifact list and the paper's Helmholtz n=11 numbers."""
    errors = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if ARGS[kind][0] == "program":
        if "Program '" not in proc.stdout:
            errors.append("no program summary printed")
        return errors
    for name in ARTIFACTS:
        path = pathlib.Path(out_dir) / name
        if not path.is_file() or path.stat().st_size == 0:
            errors.append(f"artifact {name} missing or empty")
    if kind == "helmholtz":
        res = re.search(r"resources: (\d+) LUT, \d+ FF, (\d+) DSP",
                        proc.stdout)
        mem = re.search(r"memory subsystem: \d+ PLM units, (\d+) BRAM36",
                        proc.stdout)
        got = (res and (int(res[1]), int(res[2])), mem and int(mem[1]))
        want = ((PAPER_HELMHOLTZ_LUT, PAPER_HELMHOLTZ_DSP), PAPER_PLM_BRAM36)
        if got != want:
            errors.append(f"Helmholtz n=11 (LUT, DSP), BRAM36 = {got}, "
                          f"paper {want}")
    return errors


def run(ctx, state):
    for order in ctx.passes(KINDS):
        for kind in order:
            out_dir = tempfile.mkdtemp(prefix=f"cli-{kind}-",
                                       dir=ctx.workdir)
            argv = _argv(ctx, kind, out_dir)
            proc = None
            with ctx.op(kind) as op:
                with ctx.tracer.span("flow.cli.invoke"):
                    proc = ctx.run_child(argv, cwd=out_dir)
                    if ctx.tracer.enabled:
                        record_stage_events(
                            ctx, parse_trace_table(proc.stdout), nested=True
                        )
            if proc is not None:
                for error in check_output(kind, proc, out_dir):
                    ctx.fail(op, error)


def trace_extras(ctx, state):
    """Artifact write time, timed in this process around the public
    ``write_artifacts`` for each ``--app`` kind."""
    from repro.apps import (
        gradient_program,
        interpolation_program,
        inverse_helmholtz_program,
    )
    from repro.flow import compile_any, write_artifacts

    for build in (inverse_helmholtz_program, interpolation_program,
                  gradient_program):
        result = compile_any(build(11))
        out_dir = tempfile.mkdtemp(prefix="artifacts-", dir=ctx.workdir)
        with ctx.tracer.span("flow.cli.artifact_write"):
            write_artifacts(result, out_dir)


def teardown(ctx, state):
    pass
