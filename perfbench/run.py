"""Benchmark harness for bnexplain.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness imports bnexplain from ``src/`` of the checkout it sits in and
exits with code 2 when that source is missing. One process and one thread
run the ops as a closed loop with a single client: each op starts when the
previous one has returned. Inputs come from ``--seed`` alone.

With ``--trace 0`` it times whole cycles of ops until ``--seconds`` have
passed and at least MIN_OPS ops have run, checks every output, and reports
the end-to-end metrics listed in BENCHMARK.json. Set-up time is measured in
fresh processes, several times, and reported as the median.

With ``--trace 1`` it runs the first TRACE_CYCLES cycles untraced and then
again with every public bnexplain function wrapped in a span (spans.py). It
reports the per-layer metrics listed in BENCHMARK.json and writes the spans
to ``perfbench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
describe the run: commit, versions, seed and the full per-layer table.
"""
from __future__ import annotations

import os

# One thread for numeric libraries; read when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
# p90 needs at least ten samples beyond it, so a timed run goes on past
# --seconds until it has this many ops.
MIN_OPS = 100
# The traced run covers the first cycles: 3 fixture passes or 3 synthetic cases.
TRACE_CYCLES = 3
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_ops(w, ops, tracer=None):
    """Run ops in order; returns (latencies in s, digested outputs, errors)."""
    clock = time.perf_counter
    lat, outs, errs = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = clock()
        try:
            out = w.run(op)
            err = None
        except Exception:  # a failing op is counted, and the run goes on
            out, err = None, traceback.format_exc()
        lat.append(clock() - t0)
        if tracer is not None:
            tracer.current_op = -1
        outs.append(None if err else w.digest(op, out))
        errs.append(err)
    return lat, outs, errs


def _setup_seconds(workload: str, bundle: Path) -> float:
    """Median wall time of fresh processes that import bnexplain and load
    every network of the workload."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(bundle)],
                       check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _check(w, ops, outs, errs):
    problems, run_problems = w.check(
        [op for op, e in zip(ops, errs) if e is None],
        [o for o, e in zip(outs, errs) if e is None])
    found = iter(problems)
    failed = 0
    for op, err in zip(ops, errs):
        problem = err or next(found)
        if problem:
            failed += 1
            print(f"op {op} failed: {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"run check failed: {problem}", file=sys.stderr)
    return failed, not run_problems


def _provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "bnexplain").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _timed(w, seconds):
    ops, lat, outs, errs = [], [], [], []
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_OPS:
        cycle = w.cycle(k)
        cl, co, ce = _run_ops(w, cycle)
        ops += cycle
        lat += cl
        outs += co
        errs += ce
        k += 1
    return ops, lat, outs, errs, time.perf_counter() - start


def _end_to_end(args, w, bundle, spec):
    setup_s = _setup_seconds(args.workload, bundle)
    w.cases = w.load(bundle)
    _run_ops(w, w.warmup_ops())
    ops, lat, outs, errs, wall = _timed(w, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, run_ok = _check(w, ops, outs, errs)

    ms = [x * 1000 for x in lat]
    values = {
        "setup_s": setup_s,
        "queries_per_s": len(ops) / wall,
        "query_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }
    for m in {op[1] for op in ops}:
        values[f"{m}_p50_ms"] = statistics.median(x for op, x in zip(ops, ms) if op[1] == m)
    print(json.dumps({"ops": len(ops), "wall_s": wall, "error_rate": failed / len(ops)}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return len(ops), failed, run_ok, metrics


def _traced(args, w, bundle, spec):
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        w.cases = w.load(bundle)
    _run_ops(w, w.warmup_ops())
    ops = [op for k in range(TRACE_CYCLES) for op in w.cycle(k)]
    t0 = time.perf_counter()
    _run_ops(w, ops)
    untraced = time.perf_counter() - t0
    with tracer.installed():
        t0 = time.perf_counter()
        _, outs, errs = _run_ops(w, ops, tracer=tracer)
        traced = time.perf_counter() - t0
    failed, run_ok = _check(w, ops, outs, errs)

    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced
    setup = tracer.metrics(setup=True)
    print(json.dumps({"layers": {k: v for k, v in values.items() if v},
                      "setup_layers": {k: v for k, v in setup.items() if v}}))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return len(ops), failed, run_ok, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bnexplain" / "__init__.py").is_file():
        print(f"error: no bnexplain source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bnexplain
    import workloads

    if not Path(bnexplain.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bnexplain from {bnexplain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"run": _provenance(args)}))

    w = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    bundle = OUT / f"bundle-{args.workload}-{args.seed}-{os.getpid()}.json"
    w.write_bundle(bundle)
    try:
        measure = _traced if args.trace else _end_to_end
        attempted, failed, run_ok, metrics = measure(args, w, bundle, spec)
    finally:
        bundle.unlink()
    print(json.dumps({"correct": failed == 0 and run_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
