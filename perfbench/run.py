"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric,
from a separate run with spans around the calls into each layer.  The
lines above it are a table of the same metrics with their sample counts.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

WORKLOADS = {
    "cold-cli": "cold_cli",
    "dse-sweep": "dse_sweep",
    "solver-steps": "solver_steps",
    "elementwise-liveness": "liveness",
}
#: workload-specific names of the end-to-end metrics, printed as aliases
ALIASES = {
    "cold-cli": {"cli_s.p50": "op_s.p50"},
    "dse-sweep": {},
    "solver-steps": {"step_s.p50": "op_s.p50", "elements_per_s": "work_per_s"},
    "elementwise-liveness": {"query_s.p50": "op_s.p50"},
}
SETUP_PROBES = 3
IMPORT_PROBES = ("repro.flow", "numpy", "networkx")


def load_module(workload: str):
    import importlib

    return importlib.import_module(WORKLOADS[workload])


def setup_probe(ctx: bench.Context, args) -> float:
    """Seconds from starting a fresh interpreter until the workload is
    set up (its broker and workers attached, its data generated, its
    step-1 compile done)."""
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="probe-", dir=ctx.workdir))
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
            "--setup-only", str(workdir)]
    before = bench.calibration_seconds()
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=ctx.env, cwd=bench.ROOT,
                             stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
    finally:
        child.stdout.close()
        child.wait(timeout=60.0)
    if line.strip() != "READY":
        raise RuntimeError(f"set-up probe of {args.workload} failed "
                           f"(exit {child.returncode})")
    return bench.normalized(seconds, before, bench.calibration_seconds())


def setup_only(args) -> int:
    """Body of a set-up probe: set up, report ready, leave at once."""
    workdir = pathlib.Path(args.setup_only)
    tempfile.tempdir = str(workdir)
    ctx = bench.Context(args.workload, args.seed, 0, False, workdir)
    module = load_module(args.workload)
    state = module.setup(ctx)
    print("READY", flush=True)
    if hasattr(module, "abandon"):
        module.abandon(state)
    os._exit(0)


def layer_metrics(ctx: bench.Context, spec, paper) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced run.

    A ``*_s`` layer time is the self time of its spans per op, or per
    call for spans outside ops (set-up, teardown, artifact writes); a
    layer the workload never calls reads 0."""
    tracer = ctx.tracer
    self_s = tracer.self_times()
    n_ops = max(1, len(ctx.ops))
    counts = tracer.counts
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    ok = [o["seconds"] for o in ctx.ops if o["ok"]]
    executed = counts["flow.stages_executed"]
    cached = counts["flow.stages_cached"]
    values = {
        "flow.store.hit_rate": (cached / (executed + cached)
                                if executed + cached else 0.0),
        "flow.stages_executed": executed / n_ops,
        "flow.stages_cached": cached / n_ops,
        "poly.is_empty_calls": counts["poly.is_empty_calls"] / n_ops,
        "error_rate": sum(not o["ok"] for o in ctx.ops) / n_ops,
        "trace.op_s.p50": bench.op_metrics(ctx)["op_s.p50"][0],
        "step_s.p90": (bench.percentile(ok, 90)
                       if ctx.workload == "solver-steps" else 0.0),
        "flow.service.retries": counts["flow.service.retries"],
        "flow.service.refusals": counts["flow.service.refusals"],
        # sweep rates of workloads without a service
        "sweep_cold_points_per_s": 0.0,
        "sweep_warm_points_per_s": 0.0,
    }
    for backend in ("numpy", "cnative"):
        busy = sum(tracer.durations(f"exec.{backend}.run_batch"))
        values[f"exec.{backend}.elements_per_s"] = (
            counts[f"exec.{backend}.elements"] / busy if busy else 0.0)
    values.update(paper)
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        spans = by_name.get(name[:-2], [])
        samples = len(spans) or len(ctx.ops)
        if name in ctx.layer:
            value, samples = ctx.layer[name]
        elif name in values:
            value = values[name]
        elif name.endswith("_s"):
            inside = any(s["op"] is not None for s in spans)
            per = n_ops if inside else max(1, len(spans))
            value = self_s.get(name[:-2], 0.0) / per
        else:
            raise KeyError(f"no source for per-layer metric {name}")
        out[name] = (value, metric["unit"], samples)
    return out


def end_to_end_metrics(ctx, spec, setup_samples, paper) -> dict:
    attempted = max(1, len(ctx.ops))
    failed = sum(not o["ok"] for o in ctx.ops)
    values = dict(bench.op_metrics(ctx))
    values["setup_s"] = (bench.median(setup_samples), "s", len(setup_samples))
    values["peak_rss_mb"] = (bench.peak_rss_mb(), "MB", 1)
    values["ok_rate"] = ((attempted - failed) / attempted, "ratio", attempted)
    values["modeled_speedup_vs_arm"] = (paper["modeled_speedup_vs_arm"],
                                        "x", 1)
    values["plm_bram36"] = (paper["plm_bram36"], "count", 1)
    out = {}
    for metric in spec["end_to_end"]:
        value, unit, samples = values[metric["name"]]
        assert unit == metric["unit"], (metric["name"], unit)
        out[metric["name"]] = (value, unit, samples)
    return out


def print_table(args, metrics, ctx, paper) -> None:
    rows = [(name, f"{value:.6g}", unit, str(samples))
            for name, (value, unit, samples) in metrics.items()]
    for name, (value, unit, samples) in bench.op_metrics(
            ctx, key="seconds").items():
        rows.append((f"{name} (wall clock)", f"{value:.6g}", unit,
                     str(samples)))
    for alias, name in ALIASES[args.workload].items():
        if name in metrics:
            value, unit, samples = metrics[name]
            rows.append((f"{alias} (= {name})", f"{value:.6g}", unit,
                         str(samples)))
    print(f"{args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    print(bench.table(("metric", "value", "unit", "samples"), rows))
    speedup = paper["modeled_speedup_vs_arm"]
    print(f"modelled, not measured on hardware: speedup vs ARM "
          f"{speedup:.3f}x (paper Fig. 10: {bench.PAPER_SPEEDUP_VS_ARM}x, "
          f"{(speedup / bench.PAPER_SPEEDUP_VS_ARM - 1) * 100:+.1f}%), "
          f"PLM {paper['plm_bram36']} BRAM36 (paper Fig. 8: "
          f"{bench.PAPER_PLM_BRAM36}, "
          f"{(paper['plm_bram36'] / bench.PAPER_PLM_BRAM36 - 1) * 100:+.1f}%)")
    for failure in ctx.failures:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=None,
                   help="also write the metrics with sample counts to this "
                        "JSON file")
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (bench.SRC / "repro" / "flow" / "cli.py").is_file():
        print(f"error: no program sources under {bench.SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    if args.setup_only:
        return setup_only(args)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    module = load_module(args.workload)
    # one CPU for this process and every child, so the calibration runs
    # where the op runs (see bench.calibration_seconds)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = bench.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    tempfile.tempdir = str(workdir)
    try:
        ctx = bench.Context(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir)
        setup_samples = []
        if not args.trace:
            setup_samples = [setup_probe(ctx, args)
                             for _ in range(SETUP_PROBES)]
        elif hasattr(module, "instrument"):
            module.instrument(ctx)
        state = module.setup(ctx)
        try:
            module.run(ctx, state)
            ctx.finish()
        finally:
            module.teardown(ctx, state)
        paper = bench.paper_point()
        if args.trace:
            if hasattr(module, "trace_extras"):
                module.trace_extras(ctx, state)
            for name in IMPORT_PROBES:
                key = "import." + name.replace("repro.flow", "repro_flow")
                ctx.layer[key + "_s"] = bench.import_seconds(ctx, name)
            ctx.tracer.dump(workdir.parent / (
                f"trace-{args.workload}-{args.seed}.json"))
            metrics = layer_metrics(ctx, spec, paper)
        else:
            metrics = end_to_end_metrics(ctx, spec, setup_samples, paper)
        print_table(args, metrics, ctx, paper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["ok"] for o in ctx.ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ctx.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    if args.out:
        detail = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, failures=ctx.failures,
                      samples={n: s for n, (_, _, s) in metrics.items()})
        pathlib.Path(args.out).write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
