"""catql benchmark.

    python3 perfbench/run.py --workload enrich --seed 1 --seconds 25 --trace 0

Runs one workload in this process, single-threaded, as a closed loop: one op
at a time, passes of a fixed size mix drawn from the seed, until ``--seconds``
have passed.  Each op's output is checked outside the timed region.  Times
are scaled to a reference host speed (see ``HostSpeed``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the run's
details (machine, size mix, failures by exception class).

``--workload all`` runs every workload untraced and traced, each in a fresh
process, and prints all metrics as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ["enrich", "migrate", "adjunction", "roundtrip"]
SETUP_REPEATS = 7
MIN_OPS = 100  # so at least ten ops lie beyond the p90
HARD_STOP_S = 120.0  # stop starting passes after this, whatever MIN_OPS says
SEGMENT_S = 0.02  # ops timed between two host-speed samples, at least this long


class HostSpeed:
    """How fast the host runs plain Python at the moment.

    The sample is a fixed loop of dict lookups that calls no catql code and
    allocates no containers, so the program's heap cannot trigger a garbage
    collection inside it.  Its table is small enough to stay in the CPU's
    caches once loaded.  It runs three times and the fastest run counts, so
    what the op before it did to the caches does not count either; that time
    over ``REF_S`` is the host's current slowdown.
    """

    REF_S = 0.001  # about the loop's time on an idle 2-vCPU Xeon host

    def __init__(self):
        self.keys = [(f"n{i}", i % 13) for i in range(2000)]
        self.table = {k: i for i, k in enumerate(self.keys)}
        random.Random(0).shuffle(self.keys)
        self.samples = []

    def sample(self):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            acc = 0
            for _ in range(10):
                for k in self.keys:
                    acc += self.table[k]
            best = min(best, time.perf_counter() - start)
        self.samples.append(best / self.REF_S)
        return self.samples[-1]


def machine():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def run_op(op, failures):
    """Time one op, then check its output outside the timed region; returns
    the op's time in seconds."""
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:
        error = exc
    dt = time.perf_counter() - start
    if error is None:
        try:
            op.check(out)
        except Exception as exc:
            error = exc
    if error is not None:
        failures[f"{type(error).__name__}@{op.label}"] += 1
    return dt


class Measurement:
    """What one run measured."""

    def __init__(self):
        self.setup = []  # (seconds, seconds at reference speed) per set-up repeat
        self.passes = []  # per plain pass: [(op label, seconds, at reference speed)]
        self.traced_passes = []  # the same, for traced passes
        self.failures = Counter()  # "<exception class>@<op label>" -> count
        self.probes_ok = True
        self.layer = Counter()  # traced totals, times at reference speed
        self.slowdown = []  # every host-speed sample of the run

    def add_layer_totals(self, before, after):
        """Add the last traced pass's share of the tracer's totals, its times
        scaled by that pass's host slowdown."""
        last = self.traced_passes[-1]
        scale = sum(op[2] for op in last) / sum(op[1] for op in last)
        for name, total in after.items():
            delta = total - before.get(name, 0.0)
            self.layer[name] += delta * scale if name.endswith("_s") else delta

    def walls(self, traced=False, scaled=True):
        col = 2 if scaled else 1
        return [sum(op[col] for op in p) for p in (self.traced_passes if traced else self.passes)]

    def latencies(self, scaled=True):
        col = 2 if scaled else 1
        return [op[col] for p in self.passes for op in p]


def run_pass(ops, m, speed, tracer=None, tag=""):
    """Run one pass, sampling the host's speed between segments of ops.  A
    segment's slowdown is the median of the two samples around it and their
    outer neighbours, which smooths the samples' own noise."""
    segments, segment = [], []
    speed.sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = f"{tag}.{i}:{op.label}"
        segment.append((op.label, run_op(op, m.failures)))
        if i == len(ops) - 1 or sum(dt for _l, dt in segment) >= SEGMENT_S:
            segments.append((len(speed.samples) - 1, segment))
            speed.sample()
            segment = []
    done = []
    for k, seg in segments:
        slowdown = statistics.median(speed.samples[max(0, k - 1):k + 3])
        done.extend((label, dt, dt / slowdown) for label, dt in seg)
    (m.passes if tracer is None else m.traced_passes).append(done)


def measure(wl, seconds, tracer):
    """Set-up repeats, then passes until ``seconds`` have passed.  With a
    tracer, every pass runs twice, plain and traced, in alternating order."""
    m = Measurement()
    speed = HostSpeed()
    for r in range(SETUP_REPEATS):
        before = speed.sample()
        start = time.perf_counter()
        for op in wl.warm(wl.rng(f"warmup{r}")):
            run_op(op, Counter())
        dt = time.perf_counter() - start
        m.setup.append((dt, dt / ((before + speed.sample()) / 2)))

    begin = time.perf_counter()
    p = 0
    while True:
        ops = wl.build(wl.rng(f"pass{p}"))
        if tracer is None:
            order = [False]
        else:
            order = [False, True] if p % 2 == 0 else [True, False]
        for traced in order:
            if traced:
                before = dict(tracer.totals)
                tracer.install()
                run_pass(ops, m, speed, tracer, str(p))
                tracer.op_id = f"{p}.probe"
            else:
                run_pass(ops, m, speed)
            if wl.after_pass is not None and traced == (tracer is not None):
                m.probes_ok &= wl.after_pass()
            if traced:
                tracer.uninstall()
                m.add_layer_totals(before, tracer.totals)
        p += 1
        elapsed = time.perf_counter() - begin
        ops_done = sum(len(x) for x in m.passes)
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and ops_done >= MIN_OPS):
            m.slowdown = speed.samples
            return m


def end_to_end(m, scaled=True):
    latencies = m.latencies(scaled)
    wall = statistics.median(m.walls(scaled=scaled))
    return {
        "setup_s": statistics.median(s[1 if scaled else 0] for s in m.setup),
        "wall_s": wall,
        "ops_per_s": len(m.passes[0]) / wall,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "ok_ratio": (len(latencies) - sum(m.failures.values())) / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(m):
    """Traced totals per traced pass, and the tracing overhead per pass."""
    traced = m.walls(traced=True)
    out = {name: total / len(traced) for name, total in m.layer.items()}
    out["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, m.walls()))
    return out


def metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args):
    try:
        from tracer import Tracer
        from workloads import Workload

        wl = Workload(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import catql from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    tracer = Tracer() if args.trace else None
    m = measure(wl, args.seconds, tracer)
    values = per_layer(m) if tracer else end_to_end(m)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    details = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "mix": wl.mix,
        "unscaled": None if tracer else end_to_end(m, scaled=False),
        "host_slowdown": {"median": statistics.median(m.slowdown),
                          "min": min(m.slowdown), "max": max(m.slowdown)},
        "pass_walls_s": {"plain": m.walls(), "traced": m.walls(traced=True)},
        "failures": dict(m.failures), "stats": dict(wl.stats),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{wl.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"details": details, "metrics": metrics, "ops": m.passes}, fh)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    failed = sum(m.failures.values())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and m.probes_ok,
        "attempted": sum(len(p) for p in m.passes + m.traced_passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in result["metrics"].items():
                rows.append((name, metric, v["value"], v["unit"]))
            rows.append((name, "correct", result["correct"], ""))
    for (name, metric, value, unit) in rows:
        print(f"{name:<11} {metric:<42} {value!s:>22} {unit}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
