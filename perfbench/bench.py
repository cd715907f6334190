"""Shared machinery of the benchmark: run context, tracer, statistics,
fresh-interpreter probes and the modelled paper point.

Every workload module exposes ``KINDS`` (the op kinds one pass covers),
``setup(ctx)``, ``run(ctx, state)`` and ``teardown(ctx, state)``.
``run.py`` times ``setup`` in fresh interpreters, lets ``run`` record
ops through :meth:`Context.op` and derives the metrics here.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the paper point: Helmholtz n=11 on the ZCU106 with PLM sharing, k=16
PAPER_SPEEDUP_VS_ARM = 8.62  # Fig. 10, HW k=16
PAPER_PLM_BRAM36 = 18  # Fig. 8, sharing on
PAPER_HELMHOLTZ_LUT = 2314  # Table I
PAPER_HELMHOLTZ_DSP = 15

#: flow stage -> the layer span its time is charged to (metric name
#: without the ``_s``)
STAGE_LAYER = {
    "parse": "cfdlang.parse",
    "analyze": "cfdlang.parse",
    "lower": "teil.lower",
    "layouts": "layout.layouts",
    "schedule": "poly.schedule",
    "reschedule": "poly.reschedule",
    "codegen": "codegen.emit",
    "compat": "memory.compat",
    "port-classes": "mnemosyne.config",
    "mnemosyne-config": "mnemosyne.config",
    "memory": "mnemosyne.memory",
    "hls-synth": "hls.synth",
    "build-system": "system.build",
    "bank-assign": "mnemosyne.bank_assign",
    "simulate": "sim.simulate",
}


#: host speed the reported times are scaled to: a CPU on which
#: :func:`calibration_seconds` reads exactly this
NOMINAL_CALIBRATION_S = 0.002


def _calibration_loop() -> int:
    table = {}
    for i in range(8000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3
    return len(table)


def calibration_seconds(repeats: int = 3) -> float:
    """Current speed of this process's CPU: the fastest of a few runs of
    a fixed interpreter-bound loop (about 2 ms).

    Each CPU of the hosts this runs on switches between two speeds, up
    to 1.6x apart, every few seconds and independently of the other CPU:
    far more than any change worth measuring.  A run is therefore pinned
    to one CPU with all its children, each op is timed between two
    calibrations, and the time is scaled by ``NOMINAL_CALIBRATION_S``
    over their mean: a "normalized second" is a second on a CPU where
    the loop takes 2 ms.  The loop is benchmark code, so no change to the
    program can move it."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def normalized(seconds: float, before: float, after: float) -> float:
    return seconds * NOMINAL_CALIBRATION_S / ((before + after) / 2)


def child_env(workdir: pathlib.Path) -> dict:
    """Environment of every child process: the checkout's sources on the
    path and temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(workdir)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def gmean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def table(header, rows) -> str:
    """A plain-text table, one line per row."""
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    return "\n".join(" | ".join(str(c).ljust(w) for c, w in zip(r, widths))
                     for r in [header] + rows)


class Tracer:
    """Spans and counts kept in memory, written out once at the end.

    A span is (id, name, start, end, parent, op id).  ``add`` records a
    span timed elsewhere (a stage event from a flow trace, a worker
    payload or a child process's trace table) under the current span;
    ``nested=False`` marks one that ran concurrently in another process,
    so it is not subtracted from its parent's self time.  With
    ``enabled=False`` every call is a no-op, which is the untraced run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id: int):
        prev, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self._op, "nested": True}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, seconds: float, *, nested: bool = True) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        self.spans.append({
            "id": len(self.spans), "name": name, "start": now - seconds,
            "end": now, "parent": self._stack[-1] if self._stack else None,
            "op": self._op, "nested": nested,
        })

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def wrap(self, name: str, fn, counter: str = None):
        """``fn`` with a span (and optionally a call count) around it."""
        def traced(*args, **kwargs):
            if counter:
                self.count(counter)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict:
        """Span name -> summed self time: each span's duration minus the
        durations of its nested children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["nested"]:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += max(0.0, s["end"] - s["start"] - child[s["id"]])
        return dict(out)

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_seconds": self.self_times(),
        }))


class Context:
    """One benchmark run: seed, work directory, op records and tracer."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, workdir: pathlib.Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.env = child_env(workdir)
        self.tracer = Tracer(traced)
        #: op records: kind, seconds, work units, ok
        self.ops = []
        self.failures = []
        self._last_calibration = None
        #: the op still waiting for its closing calibration
        self._open = None
        #: per-layer values a workload measures directly: (value, samples)
        self.layer = {}

    @contextlib.contextmanager
    def op(self, kind: str, work: float = 1.0):
        """Time one op; the body may call :meth:`fail` for it."""
        record = {"id": len(self.ops), "kind": kind, "seconds": None,
                  "normalized": None, "work": work, "ok": True}
        self.ops.append(record)
        self._calibrate()
        record["calibration"] = self._last_calibration
        with self.tracer.op(record["id"]), self.tracer.span("op"):
            t0 = time.perf_counter()
            try:
                yield record
            except Exception as exc:  # noqa: BLE001 — a raising op failed
                self.fail(record, f"{type(exc).__name__}: {exc}")
            finally:
                record["seconds"] = time.perf_counter() - t0
                self._open = record

    def _calibrate(self) -> None:
        """One calibration serves as the "after" of the previous op and
        the "before" of the next."""
        cal = calibration_seconds()
        if self._open is not None:
            self._open["normalized"] = normalized(
                self._open["seconds"], self._open["calibration"], cal)
            self._open = None
        self._last_calibration = cal

    def finish(self) -> None:
        """Close the calibration of the last op."""
        self._calibrate()

    def fail(self, record, reason: str) -> None:
        if record["ok"]:
            record["ok"] = False
            self.failures.append(f"{record['kind']} op {record['id']}: "
                                 f"{reason}")

    def passes(self, kinds, shuffle: bool = True, min_ops: int = 0):
        """Passes over every op kind (in a seeded order) until the run
        time is used up and at least ``min_ops`` ops ran; a pass is never
        cut short, so each kind gets the same share of the run whatever
        the seed."""
        deadline = time.perf_counter() + self.seconds
        first = True
        while (first or time.perf_counter() < deadline
               or len(self.ops) < min_ops):
            first = False
            order = list(kinds)
            if shuffle:
                self.rng.shuffle(order)
            yield order

    def run_child(self, argv, *, timeout: float = 120.0, cwd=None):
        return subprocess.run(
            argv, env=self.env, cwd=cwd or self.workdir, timeout=timeout,
            capture_output=True, text=True,
        )


def op_metrics(ctx: Context, key: str = "normalized") -> dict:
    """``op_s.p50`` (median per op kind, geometric mean over kinds, so the
    seeded order never changes the mix) and ``work_per_s``, in normalized
    seconds (``key="seconds"`` gives wall-clock ones)."""
    ok = [o for o in ctx.ops if o["ok"]]
    by_kind = defaultdict(list)
    for o in ok:
        by_kind[o["kind"]].append(o[key])
    p50 = gmean([median(v) for v in by_kind.values()]) if by_kind else 0.0
    busy = sum(o[key] for o in ok)
    work = sum(o["work"] for o in ok)
    return {
        "op_s.p50": (p50, "s", len(ok)),
        "work_per_s": (work / busy if busy else 0.0, "1/s", len(ok)),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (kB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def import_seconds(ctx: Context, module: str, repeats: int = 3):
    """Median time of ``import <module>`` in fresh interpreters, and the
    number of interpreters."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        proc = ctx.run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed: {proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(samples), repeats


def paper_point():
    """Compile the paper point in-process and return its modelled
    numbers: deterministic, host-independent and unvalidated against
    hardware."""
    from repro.apps.helmholtz import HELMHOLTZ_DSL
    from repro.flow import FlowOptions, SystemOptions, compile_any
    from repro.sim import simulate_software
    from repro.system.board import get_board

    bram = compile_any(HELMHOLTZ_DSL)
    hbm = compile_any(HELMHOLTZ_DSL, FlowOptions(system=SystemOptions(
        board=get_board("u280"), memory_model="hbm")))
    sim = bram.sim
    arm = simulate_software(bram.function, sim.n_elements, variant="ref")
    return {
        "modeled_speedup_vs_arm": arm / sim.total_seconds,
        "plm_bram36": bram.memory.brams,
        "sim.compute_cycles": sim.compute_cycles,
        "sim.transfer_cycles": sim.transfer_cycles,
        "sim.control_cycles": sim.control_cycles,
        "hls.latency_cycles": bram.hls.latency_cycles,
        "hls.lut": bram.hls.resources.lut,
        "hls.dsp": bram.hls.resources.dsp,
        "mnemosyne.plm_bram36": bram.memory.brams,
        "mnemosyne.hbm_channels_used": hbm.banking.channels_used,
    }


def record_stage_events(ctx: Context, events, *, nested: bool) -> None:
    """Charge flow stage events ``(stage, seconds, cached, ...)`` to their
    layers and count executed and cached stages."""
    for stage, seconds, cached, *_ in events:
        ctx.tracer.add(STAGE_LAYER.get(stage, "flow.stage." + stage),
                       seconds, nested=nested)
        ctx.tracer.count("flow.stages_cached" if cached
                         else "flow.stages_executed")
