"""Benchmark of horopoly, end to end and per layer.

    python3 bench/run.py --workload {cli,hulls,weights,horo} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program measured is the checkout's
own src/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, and the
full trace goes to bench/out/trace-<workload>-<seed>.json.

A run is made of three processes in turn.  The first two only set up
and exit; the third sets up, runs whole passes over the workload's
operation list until the operations have taken --seconds at the
reference speed (see below), checks each
answer right after its (timed) operation, and reports.  setup_s is the
median of the three set-up times, each from process start to the moment
the first operation could start.  Load comes from one process at a
time, without threads, pinned to one CPU.  The run sets no deadline of
its own; the child processes end with it if it is killed.

Every time metric is scaled to a reference machine speed by calibration
blocks measured next to it on the same CPU (calibrate.py); the wall-clock
figures go to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
SETUP_CAL_REPS = 2
PR_SET_PDEATHSIG = 1
READY = "READY"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli", "hulls", "weights", "horo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest percentile leaving at least ten operations of a one-pass
    run beyond it, capped at p90."""
    return min(90, math.floor(100 * (1 - 10 / ops_per_pass)))


# ---------------------------------------------------------------------------
# worker: set up, measure, check


def worker(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    first = calibrate.block(SETUP_CAL_REPS)
    tracer = None
    import horopoly as hp
    if not Path(hp.__file__).resolve().is_relative_to(SRC):
        print(f"horopoly imported from {hp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    caches = workloads.find_caches()  # before wrapping hides cache_clear
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    import horopoly.cli  # noqa: F401  (after wrapping, so it imports the wrappers)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        extra = {"src": SRC} if args.workload == "cli" else {}
        wl = cls(hp, args.seed, workdir, bool(args.trace), caches, **extra)
        last = calibrate.block(SETUP_CAL_REPS)
        print(f"{READY} {first!r} {last!r}", flush=True)
        if args.role == "probe":
            return 0
        return measure(args, wl, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracer) -> int:
    ref = wl.cal_ref_s
    blocks = []
    marks = []  # for each operation, the index of the last block before it
    latencies = []
    timed = 0.0  # wall clock
    scaled = 0.0  # at the reference speed: it sets the number of passes
    checking = 0.0
    passes = 0
    correct, failed, reasons = True, 0, {}
    ops = wl.ops
    if tracer is not None:
        tracer.reset()
        if args.workload == "cli":
            ops = [type(op)(op.kind, tracer.wrap(op.run, f"cli.{op.kind}"), op.check)
                   for op in ops]
    while passes == 0 or scaled < args.seconds:
        wl.before_pass()
        gc.collect()  # every pass starts from the same heap
        for op in ops:
            if len(latencies) % wl.CAL_EVERY == 0:
                blocks.append(wl.calibration())
            marks.append(len(blocks) - 1)
            t0 = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation, counted and reported
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            latencies.append(latency)
            timed += latency
            scaled += calibrate.scale(latency, blocks[-1:], ref)
            # check at once, untimed, so memory does not grow with the run
            t0 = perf_counter()
            try:
                if error is None:
                    error = op.check(result)
            except Exception as exc:  # a wrong answer: report it, keep going
                correct = False
                print(f"check failed on {op.kind}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
            checking += perf_counter() - t0
            if error is not None:
                failed += 1
                key = f"{op.kind}: {error}"
                reasons[key] = reasons.get(key, 0) + 1
            del result
        passes += 1
    blocks.append(wl.calibration())
    rss_kb = wl.peak_rss_kb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for reason, n in reasons.items():
        print(f"failed x{n}: {reason}", file=sys.stderr)
    print(f"{passes} passes: operations {timed:.2f} s, checks {checking:.2f} s",
          file=sys.stderr)

    tail = tail_percentile(len(wl.ops))
    wall = sorted(latencies)
    speed = ref / statistics.median(blocks)
    print(f"wall clock: {len(wall) / timed:.4g} ops/s, p50 {nearest_rank(wall, 50) * 1e3:.4g} ms, "
          f"p{tail} {nearest_rank(wall, tail) * 1e3:.4g} ms; median speed {speed:.3f} "
          f"of the reference", file=sys.stderr)
    lat = sorted(calibrate.scale_all(latencies, marks, blocks, ref))
    e2e = {"ops_per_s": ("1/s", len(lat) / math.fsum(lat)),
           "op_p50_ms": ("ms", nearest_rank(lat, 50) * 1000.0),
           "op_tail_ms": ("ms", nearest_rank(lat, tail) * 1000.0),
           "peak_rss_mb": ("MB", rss_kb / 1024.0)}
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in e2e.items()}
    else:
        metrics = write_trace(args, wl, tracer, passes, e2e, tail, reasons, speed)
    print(json.dumps({"correct": correct, "attempted": len(latencies), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def write_trace(args, wl, tracer, passes, e2e, tail, reasons, speed) -> dict:
    import layers
    layer = tracer.metrics(passes)
    layer.update(layers.import_costs(dict(os.environ, PYTHONPATH=str(SRC))))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "passes": passes,
           "ops_per_pass": len(wl.ops), "tail_percentile": tail,
           "speed_of_reference": speed,
           "traced_end_to_end": {k: v for k, (_, v) in e2e.items()},
           "absent": tracer.absent, "failures": reasons,
           "metrics": {k: v["value"] for k, v in metrics.items()},
           "spans": tracer.span_table(passes)}
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"trace written to {path}", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# main: set-up samples, then the measuring worker


def die_with_parent() -> None:
    """In the child, before exec: Linux kills it when its parent ends."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(args, role):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            preexec_fn=die_with_parent)
    line = proc.stdout.readline().split()
    ready = perf_counter() - t0
    if line[:1] != [READY]:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} did not finish set-up (got {line!r})")
    # the two calibration blocks ran inside the set-up window: take them
    # out, and scale the rest by their speed
    blocks = [float(x) for x in line[1:]]
    return proc, calibrate.scale(ready - sum(blocks), blocks,
                                 calibrate.REF_S * SETUP_CAL_REPS)


def main(args) -> int:
    if not (SRC / "horopoly" / "__init__.py").is_file():
        print(f"no horopoly sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so that the
    # calibration blocks run where the work they scale runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile bytecode before any timing; CLI users run compiled modules
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, ready = spawn(args, "probe")
        proc.communicate()
        setups.append(ready)
    proc, ready = spawn(args, "worker")
    setups.append(ready)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    ns = parse_args()
    sys.exit(main(ns) if ns.role == "main" else worker(ns))
