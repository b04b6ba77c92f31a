"""polarmin benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run, and a correctness gate on every op.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest       # each gate rejects a corrupted result
    python3 bench/run.py --baseline       # sheared-square minima, 64-gon polar
    python3 bench/run.py --record-golden  # rewrite bench/golden.json

Run from the root of a checkout: polarmin is imported from ./src and
nowhere else.  One process, no threads.  A run prints a table of every
metric with its unit and sample count, writes it with the per-layer table
and span dump to bench/out/, and prints one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
MODULES = ("core", "body", "minima", "verify", "search", "jsonio", "cli", "errors")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

import layers  # noqa: E402
from workloads import WORKLOADS, check_reference  # noqa: E402

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "exact_hit_ratio": "ratio",
    "setup_s": "s",
}


def load_polarmin():
    """Import polarmin afresh from ./src; earlier imports are dropped so
    each set-up repetition pays the import again."""
    if not (SRC / "polarmin" / "__init__.py").is_file():
        sys.exit(f"polarmin sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "polarmin" or m.startswith("polarmin.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("polarmin")
    if Path(pkg.__file__).resolve().parent != SRC / "polarmin":
        sys.exit(f"polarmin was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"polarmin.{m}") for m in MODULES})


def tail(latencies):
    """(value, percentile, samples beyond): the nearest-rank 90th
    percentile, or the highest percentile with TAIL_BEYOND samples beyond
    it when there are fewer than 10 * TAIL_BEYOND samples.

    A percentile fixed at 90 keeps the parent and a faster or slower
    change comparable; the 11th-largest op of a 30 s corpus run (p98.8)
    moved by 25 % between seeds because per-body cost is heavy-tailed."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1) if n < 10 * TAIL_BEYOND else n - math.ceil(0.9 * n)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


@dataclasses.dataclass
class Phase:
    latencies: list
    busy: float
    failures: list
    next_op: int

    @property
    def ops_per_s(self):
        return len(self.latencies) / self.busy


def timed_phase(wl, seconds, first_block=0, tracer=None) -> Phase:
    """Closed loop, one op at a time, until the ops have taken `seconds`
    and a block is complete.  Only the op itself is timed; input
    generation and the gate run between ops."""
    latencies, failures = [], []
    busy = 0.0
    b = first_block
    op_id = first_block * len(wl.block(first_block))
    while busy < seconds:
        for inp in wl.block(b):
            if tracer:
                tracer.begin(op_id)
            result, error = None, None
            t0 = perf_counter()
            try:
                result = wl.run_op(inp)
            except Exception:  # an op that raises is a failed op, not a crash
                error = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            if tracer:
                tracer.end(wl.op_counts(result) if error is None else None)
            busy += dt
            latencies.append(dt)
            if error is None:
                try:
                    error = wl.check_op(inp, result)
                except Exception:  # a result the gate cannot read is wrong
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"op {op_id}: {error}")
            op_id += 1
        wl.release(b)
        b += 1
    return Phase(latencies, busy, failures, b)


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def run(args):
    golden = load_golden()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pm = load_polarmin()
        wl = WORKLOADS[args.workload](pm, args.seed, OUT / f"{args.workload}-{args.seed}",
                                      golden.get(args.workload))
        wl.setup()
        setups.append(perf_counter() - t0)
    setup_s = statistics.median(setups)

    extra = {}
    if args.trace:
        plain = timed_phase(wl, args.seconds / 2)
        tracer = layers.Tracer(pm)
        tracer.install()
        try:
            traced = timed_phase(wl, args.seconds / 2, plain.next_op, tracer)
        finally:
            tracer.uninstall()
        fraction_ops = layers.count_fraction_ops(wl.run_op, wl.block(0)[:wl.count_ops])
        phases = [plain, traced]
        metrics = tracer.metrics()
        metrics["fraction.ops"] = fraction_ops
        metrics["trace.ops_per_s"] = traced.ops_per_s
        metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
        metrics["trace.overhead"] = plain.ops_per_s / traced.ops_per_s
        units = layers.per_layer_units()
        extra["traced_ops"] = tracer.ops
        extra["fraction_count_ops"] = wl.count_ops
    else:
        phase = timed_phase(wl, args.seconds)
        phases = [phase]
        p50 = statistics.median(phase.latencies)
        tail_s, pct, beyond = tail(phase.latencies)
        metrics = {
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": 1000 * p50,
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "exact_hit_ratio": wl.exact_hit_ratio(),
            "setup_s": setup_s,
        }
        units = END_TO_END
        extra["op_tail_percentile"] = pct
        extra["op_tail_beyond"] = beyond
        extra["latencies_ms"] = [round(1000 * x, 3) for x in phase.latencies]

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures] + wl.finish()
    failed = sum(len(p.failures) for p in phases)
    mismatch = check_reference(wl.reference(), golden.get(args.workload))
    if mismatch:
        failures.append(mismatch)
    correct = not failures
    extra.update(failed_ratio=failed / attempted, setup_runs_s=setups,
                 summary=wl.summary(), failures=failures[:20])
    report(args, metrics, units, attempted, extra)
    if args.trace:
        write_trace(args, tracer)
    for f in failures[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    write_json(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json",
               {**result, "info": environment(args), "extra": extra})
    print(json.dumps(result))


def environment(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def report(args, metrics, units, attempted, extra):
    env = environment(args)
    print("# polarmin benchmark " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {'metric':<44} {'value':>14}  {'unit':<12} samples")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  p{extra['op_tail_percentile']:.2f} ({extra['op_tail_beyond']} beyond)"
        elif name == "setup_s":
            note = f"  median of {SETUP_REPEATS} set-ups"
        elif name == "fraction.ops":
            note = f"  over the first {extra['fraction_count_ops']} ops"
        samples = extra.get("traced_ops", attempted)
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:<46} {shown}  {units[name]:<12} {samples}{note}")
    print(f"{'failed_ratio':<46} {extra['failed_ratio']:>14.6g}  {'ratio':<12} {attempted}")


def write_trace(args, tracer):
    stem = OUT / f"{args.workload}-s{args.seed}"
    rows = [{"name": n, "calls": c, "total_s": t, "self_s": s} for n, c, t, s in tracer.table()]
    write_json(Path(f"{stem}-layers.json"), {"ops": tracer.ops, "layers": rows,
                                              "counts": tracer.counts,
                                              "spans_kept": len(tracer.spans),
                                              "spans_dropped": tracer.spans_dropped})
    with open(f"{stem}-spans.jsonl", "w") as fh:
        for sid, parent, op, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                 "start": start, "end": end}) + "\n")
    print(f"# {'layer':<36} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for r in rows:
        print(f"# {r['name']:<36} {r['calls']:>10} {r['total_s']:>10.4f} {r['self_s']:>10.4f}")


def write_json(path: Path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main(load_polarmin(), load_golden(), OUT / "selftest",
                             ROOT / "BENCHMARK.json")
    if args.baseline:
        import baseline
        return baseline.main(load_polarmin())
    if args.record_golden:
        pm = load_polarmin()
        doc = {name: cls(pm, 0, OUT / "golden").reference() for name, cls in WORKLOADS.items()}
        write_json(GOLDEN, doc)
        print(f"wrote {GOLDEN}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
