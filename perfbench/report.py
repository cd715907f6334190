"""Print every benchmark metric by name, with its unit and sample count.

    python3 perfbench/report.py --seed 1                 # all workloads
    python3 perfbench/report.py --seed 1 --workload dse-sweep --seconds 5

For each selected workload this runs ``run.py`` twice — untraced for the
end-to-end metrics, traced for the per-layer ones — with the workload's
correctness checks on, then prints one row per workload of end-to-end
metrics (with the tracing overhead: traced minus untraced ``op_s.p50``)
and a table of per-layer metrics with a column per workload.  Exits 1
if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import table  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace, out_dir) -> dict:
    out = out_dir / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--out", str(out)],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not out.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited "
                         f"{proc.returncode}")
    return json.loads(out.read_text())


def cell(result, name) -> str:
    metric = result["metrics"][name]
    samples = result["samples"][name]
    return f"{metric['value']:.4g} {metric['unit']} (n={samples})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {}
    work_root = HERE.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload in workloads:
            results[workload] = [run_once(workload, args.seed, seconds, trace,
                                          pathlib.Path(tmp))
                                 for trace in (0, 1)]

    e2e = [m["name"] for m in spec["end_to_end"]]
    rows = []
    for workload, (plain, traced) in results.items():
        base = plain["metrics"]["op_s.p50"]["value"]
        over = traced["metrics"]["trace.op_s.p50"]["value"] - base
        rows.append([workload, str(plain["correct"] and traced["correct"]),
                     f"{plain['failed']}/{plain['attempted']}"]
                    + [cell(plain, name) for name in e2e]
                    + [f"{over:+.4g} s ({over / base * 100:+.1f}%)"])
    print(f"End-to-end metrics, seed {args.seed}, {seconds:g} s per run")
    print(table(["workload", "correct", "failed"] + e2e
                + ["tracing overhead"], rows))
    print()
    layer_rows = [[m["name"]] + [cell(results[w][1], m["name"])
                                 for w in results]
                  for m in spec["per_layer"]]
    print("Per-layer metrics (traced run; 0 = layer not called)")
    print(table(["metric"] + list(results), layer_rows))
    for workload, runs in results.items():
        for run in runs:
            for failure in run["failures"]:
                print(f"FAILED {workload}: {failure}")
    return 0 if all(r["correct"] for runs in results.values()
                    for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
