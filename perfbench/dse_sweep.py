"""dse-sweep: one seeded design-space grid through a local compile
service — an in-process loopback broker and two ``cfdlang-flow worker
--connect`` processes.

Each pass sends the grid into a fresh cache namespace (a tenant no pass
has used: cold), then sends it again (warm).  The grid goes as one job
per (n, sharing) group of 18 points, in a seeded order; one job is one
op.  The front end runs once per group, so the late stages
(``build-system``, ``bank-assign``, ``simulate``) and the service path
(``flow.service``, ``nettransport``, ``store``) carry the load.
Teardown closes the broker the way a ``--listen`` sweep user pays for
it.

The broker, the client and both workers are pinned to one CPU, like
the single-process workloads, so that op times can be normalized to the
speed of that CPU (see ``bench.calibration_seconds``); jobs are kept
short for the same reason, since a calibration at each end of an op
only tracks a CPU whose speed does not change much during it.
"""

from __future__ import annotations

import subprocess
import sys
import time

from bench import record_stage_events

KINDS = ("cold", "warm")
TOKEN = "perfbench"
WORKERS = 2
#: fresh cache namespaces available to one run (one per pass)
TENANTS = 32
DEGREES = (5, 7, 9, 11)
#: feasible (m >= k) on every board and sharing mode at every degree;
#: the last two are the k < m points of bench_k_less_m
KM_PAIRS = ((1, 1), (2, 2), (4, 4), (8, 8), (1, 2), (2, 4))
TARGETS = (("zcu106", "bram"), ("u280", "bram"), ("u280", "hbm"))
POLL_SECONDS = 0.02


def grid(ctx):
    """The grid, n x sharing x six k*m pairs x board/memory model (144
    points), as one job per (n, sharing) group in a seeded order."""
    from repro.apps.helmholtz import inverse_helmholtz_source
    from repro.flow import FlowOptions, SystemOptions
    from repro.mnemosyne.sharing import SharingMode
    from repro.system.board import get_board

    jobs = []
    for n in DEGREES:
        for sharing in (SharingMode.MATCHING, SharingMode.NONE):
            points = []
            for k, m in KM_PAIRS:
                for board, model in TARGETS:
                    options = FlowOptions(sharing=sharing, system=SystemOptions(
                        k=k, m=m, board=get_board(board), memory_model=model))
                    points.append((inverse_helmholtz_source(n), options))
            ctx.rng.shuffle(points)
            jobs.append(points)
    ctx.rng.shuffle(jobs)
    return jobs


def setup(ctx):
    from repro.flow import DiskStageCache
    from repro.flow.service import start_service_broker

    jobs = grid(ctx)
    tenants = {f"t{i}": f"{TOKEN}-{i}" for i in range(TENANTS)}
    server = start_service_broker(
        "127.0.0.1", 0, TOKEN, DiskStageCache(ctx.workdir / "broker-cache"),
        ctx.workdir / "service", tenants=tenants,
    )
    address = "%s:%d" % server.address
    env = dict(ctx.env, CFDLANG_FLOW_TOKEN=TOKEN)
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.flow.cli", "worker", "--connect",
             address, "--cache-dir", str(ctx.workdir / f"worker{i}")],
            env=env, cwd=ctx.workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(WORKERS)
    ]
    deadline = time.monotonic() + 60.0
    while len(server.transport.alive_workers(10.0)) < WORKERS:
        if time.monotonic() > deadline or any(
                w.poll() is not None for w in workers):
            stop_workers(workers)
            server.close()
            raise RuntimeError("service workers did not attach")
        time.sleep(0.005)
    return {"jobs": jobs, "server": server, "address": address,
            "workers": workers, "tenants": sorted(tenants.values()),
            "specs": [[(src, opt.to_spec()) for src, opt in points]
                      for points in jobs]}


def stop_workers(workers) -> None:
    for w in workers:
        if w.poll() is None:
            w.kill()
    for w in workers:
        w.wait()


def abandon(state) -> None:
    """End a set-up probe without the broker close, which ``teardown``
    times on its own."""
    stop_workers(state["workers"])


def _digest(result):
    """The modelled numbers one design point must reproduce exactly."""
    sim = result.sim
    return (
        result.system.k, result.system.m, result.system.board.name,
        result.hls.latency_cycles, tuple(sorted(vars(result.hls.resources)
                                                .items())),
        result.memory.brams, sim.compute_cycles, sim.transfer_cycles,
        sim.control_cycles,
        None if result.banking is None else result.banking.channels_used,
    )


def check_points(ctx, points, outcomes) -> list:
    """Every point of a job succeeded; one seeded point equals an
    in-process serial compile, and on a bram point the closed-form cycles
    equal the event walker's."""
    from repro.flow import compile_many
    from repro.sim.simulator import simulate_system_events

    errors = [f"point {i}: {outcome!r}" for i, outcome in enumerate(outcomes)
              if outcome is None or isinstance(outcome, BaseException)]
    if errors:
        return errors
    i = ctx.rng.randrange(len(points))
    got = outcomes[i]
    (ref,) = compile_many([points[i]], executor="serial")
    if _digest(got) != _digest(ref):
        errors.append(f"point {i}: service {_digest(got)} != serial "
                      f"{_digest(ref)}")
    if points[i][1].system.memory_model == "bram":
        events = simulate_system_events(got.system, got.sim.n_elements)
        closed = (got.sim.compute_cycles, got.sim.transfer_cycles,
                  got.sim.control_cycles)
        walked = (events.compute_cycles, events.transfer_cycles,
                  events.control_cycles)
        if closed != walked:
            errors.append(f"point {i}: closed form {closed} != event walk "
                          f"{walked}")
    return errors


def _submit(ctx, client, kind, points, specs):
    """One job as one op: submit, wait, fetch, then check."""
    from repro.flow.service import BrokerBusyError

    tracer = ctx.tracer
    with ctx.op(kind, work=len(specs)) as op:
        try:
            with tracer.span("flow.service.submit"):
                job = client.submit(specs)
        except BrokerBusyError:
            tracer.count("flow.service.refusals")
            raise
        with tracer.span("flow.service.wait"):
            status = job.wait(timeout=120.0, poll_seconds=POLL_SECONDS)
        with tracer.span("flow.service.fetch"):
            payloads = job.fetch_payloads()
        if tracer.enabled:
            for payload in payloads:
                record_stage_events(ctx, payload.get("events") or [],
                                    nested=False)
    if not op["ok"]:
        return
    tracer.count("flow.service.retries", status["retries"])
    if status["state"] != "done":
        ctx.fail(op, f"job ended {status['state']}")
    outcomes = [p.get("outcome") for p in payloads]
    for error in check_points(ctx, points, outcomes):
        ctx.fail(op, error)
    job.cancel()  # a terminal job's cancel purges it from the broker


def run(ctx, state):
    from repro.flow import ServiceClient

    jobs = list(zip(state["jobs"], state["specs"]))
    # a pass = the whole grid cold, then warm, in one fresh namespace:
    # their order is what they measure, so only the job order is seeded
    passes = ctx.passes(KINDS, shuffle=False)
    for tenant_token, order in zip(state["tenants"], passes):
        with ServiceClient(state["address"], tenant_token) as client:
            for kind in order:
                for points, specs in jobs:
                    _submit(ctx, client, kind, points, specs)
    for kind in KINDS:
        ops = [o for o in ctx.ops if o["kind"] == kind and o["ok"]]
        busy = sum(o["seconds"] for o in ops)
        ctx.layer[f"sweep_{kind}_points_per_s"] = (
            sum(o["work"] for o in ops) / busy if busy else 0.0, len(ops))


def teardown(ctx, state):
    t0 = time.perf_counter()
    with ctx.tracer.span("flow.service.close"):
        state["server"].close()
    for w in state["workers"]:
        w.wait(timeout=60.0)
    ctx.layer["teardown_s"] = (time.perf_counter() - t0, 1)
