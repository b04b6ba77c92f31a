"""Per-layer tracing from outside the program.

Each traced function is wrapped under every module-level name that refers
to it, so `minima.successive_minima` is caught whether `verify`, `search`,
`cli` or `minima` itself makes the call.  A span records its name, start,
end, parent span and op id; self time is the span minus its child spans.
Counters are taken at the same boundaries, so the ratios below are
measured where the work happens.  Nothing inside `src/` is modified.
"""

from __future__ import annotations

import fractions
import sys
from time import perf_counter

TRACED = {
    "core": ("convex_hull", "halfplane_intersect", "clip_halfplane"),
    "body": ("polar", "central_symmetral", "gauge"),
    "minima": ("successive_minima", "normalize_to_At"),
    "verify": ("standard_checks", "check_grunbaum"),
    "search": ("sample_feasible", "make_candidate", "edge_push", "edge_rotate",
               "balance_triangle"),
    "jsonio": ("body_from_json",),
}
CLI_ANALYZE = "cli.analyze"  # a click command: its callback is wrapped
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns) + (CLI_ANALYZE,)
MOVES = frozenset({"search.edge_push", "search.edge_rotate", "search.balance_triangle"})

# Spans beyond this many are aggregated but not kept for the dump, which
# bounds the memory of a traced run.
SPAN_CAP = 50_000

# Derived per-layer metrics: name -> (unit, how it is computed).
RATIO_METRICS = {
    "core.convex_hull.points_in": ("points/call", "mean input points per convex_hull call"),
    "core.clip_halfplane.points_in": ("points/call", "mean polygon vertices per clip"),
    "core.halfplane_intersect.rows_in": ("rows/call", "mean rows per halfplane_intersect"),
    "body.polar.hit_ratio": ("ratio", "1 - halfplane_intersect children / polar calls"),
    "minima.successive_minima.repeat_ratio": ("ratio", "share of calls on a polygon seen before"),
    "minima.successive_minima.gauge_per_call": ("calls/call", "gauge calls from successive_minima per call"),
    "search.sample.accept_ratio": ("ratio", "feasible starts / normalize_to_At calls"),
    "search.move.improving_ratio": ("ratio", "accepted moves / move calls"),
    "search.make_candidate.per_move": ("calls/move", "make_candidate calls inside a move per move call"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.total_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({k: unit for k, (unit, _) in RATIO_METRICS.items()})
    units["fraction.ops"] = "count"
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Wraps the traced functions of one loaded polarmin; spans are only
    recorded while an op is open (`begin`/`end`), so input generation and
    correctness gates between ops stay untraced."""

    def __init__(self, pm):
        self.pm = pm
        self.op = None
        self.ops = 0
        self.stack = []
        self.next_id = 0
        self.origin = perf_counter()
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total, self
        self.counts = dict.fromkeys((
            "core.convex_hull.points_in", "core.clip_halfplane.points_in",
            "core.halfplane_intersect.rows_in", "polar_intersections",
            "minima_repeats", "minima_gauge", "sample_normalize", "sample_starts",
            "move_make_candidate", "accepted_moves"), 0)
        self.seen_polygons = set()
        self.spans = []
        self.spans_dropped = 0
        self._restore = []

    # -- installation ---------------------------------------------------
    def install(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "polarmin" or name.startswith("polarmin."))]
        for modname, fns in TRACED.items():
            home = getattr(self.pm, modname)
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{modname}.{fn}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        command = self.pm.cli.analyze
        self._restore.append((command, "callback", command.callback))
        command.callback = self._wrap(CLI_ANALYZE, command.callback)

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- ops ------------------------------------------------------------
    def begin(self, op_id):
        self.op = op_id

    def end(self, op_counts=None):
        self.op = None
        self.ops += 1
        for key, value in (op_counts or {}).items():
            self.counts[key] += value

    def _wrap(self, name, fn):
        tracer = self
        counts = self.counts
        stats = self.stats[name]

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            parent_name = parent[1] if parent else None
            if name == "core.convex_hull":
                args = (list(args[0]),) + args[1:]
                counts[name + ".points_in"] += len(args[0])
            elif name == "core.clip_halfplane":
                counts[name + ".points_in"] += len(args[0].vertices)
            elif name == "core.halfplane_intersect":
                counts[name + ".rows_in"] += len(args[0].rows)
                if parent_name == "body.polar":
                    counts["polar_intersections"] += 1
            elif name == "minima.successive_minima":
                key = getattr(args[0], "polygon", args[0])
                if key in tracer.seen_polygons:
                    counts["minima_repeats"] += 1
                else:
                    tracer.seen_polygons.add(key)
            elif name == "body.gauge" and parent_name == "minima.successive_minima":
                counts["minima_gauge"] += 1
            elif name == "minima.normalize_to_At" and parent_name == "search.sample_feasible":
                counts["sample_normalize"] += 1
            elif name == "search.make_candidate" and parent_name in MOVES:
                counts["move_make_candidate"] += 1
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent[0] if parent else None, tracer.op,
                                         name, t0 - tracer.origin, t1 - tracer.origin))
                else:
                    tracer.spans_dropped += 1
            if name == "search.sample_feasible" and result is not None:
                counts["sample_starts"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------
    def metrics(self) -> dict:
        """Per-op calls and times for every traced function, plus ratios.
        A ratio whose base is zero on this workload is reported as 0."""
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            calls, total, self_s = self.stats[name]
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.total_s"] = total / ops
            out[f"{name}.self_s"] = self_s / ops

        def ratio(a, b):
            return a / b if b else 0.0

        c, s = self.counts, self.stats
        moves = sum(s[m][0] for m in MOVES)
        out["core.convex_hull.points_in"] = ratio(c["core.convex_hull.points_in"], s["core.convex_hull"][0])
        out["core.clip_halfplane.points_in"] = ratio(c["core.clip_halfplane.points_in"], s["core.clip_halfplane"][0])
        out["core.halfplane_intersect.rows_in"] = ratio(c["core.halfplane_intersect.rows_in"],
                                                        s["core.halfplane_intersect"][0])
        polar_calls = s["body.polar"][0]
        out["body.polar.hit_ratio"] = 1 - ratio(c["polar_intersections"], polar_calls) if polar_calls else 0.0
        sm_calls = s["minima.successive_minima"][0]
        out["minima.successive_minima.repeat_ratio"] = ratio(c["minima_repeats"], sm_calls)
        out["minima.successive_minima.gauge_per_call"] = ratio(c["minima_gauge"], sm_calls)
        out["search.sample.accept_ratio"] = ratio(c["sample_starts"], c["sample_normalize"])
        out["search.move.improving_ratio"] = ratio(c["accepted_moves"], moves)
        out["search.make_candidate.per_move"] = ratio(c["move_make_candidate"], moves)
        return out

    def table(self) -> list:
        """Rows (name, calls, total_s, self_s) over the whole traced phase."""
        return [(name, *self.stats[name]) for name in SPAN_NAMES]


def count_fraction_ops(run_op, inputs) -> int:
    """Calls into `fractions.py` while `run_op` runs over `inputs`, counted
    with the interpreter's profiling hook (a count-only pass, not timed)."""
    target = fractions.__file__
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename == target:
            n += 1

    sys.setprofile(hook)
    try:
        for inp in inputs:
            run_op(inp)
    finally:
        sys.setprofile(None)
    return n
