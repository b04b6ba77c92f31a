"""The three workloads: seeded inputs, one op each, and correctness gates.

Every input is generated here from the workload seed; polarmin receives
only those inputs.  Inputs come in blocks with a fixed mix of op kinds and a
timed phase always ends on a block boundary, so two runs measure the same
mix whatever their speed.  Blocks are generated in order and never repeat,
so no op ever sees a polygon an earlier op of the same run already used
(except the fixed family grid bodies of `corpus`).

A gate returns None for a correct op result and a one-line reason
otherwise.  Gates also compare a fixed reference set, run after the timed
phase, with the digests in golden.json recorded at the commit that defined
the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

GRUNBAUM_NORMALS = 20
SEARCH_ITERS = 200
SEARCH_TS = (Fraction(1), Fraction(3, 2), Fraction(2))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact planar helpers owned by the benchmark, independent of polarmin


def hull(points):
    """Strictly convex CCW hull of (x, y) Fraction pairs (monotone chain)."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    if len(pts) < 3:
        return []
    h = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    return h if len(h) >= 3 else []


def area(vs) -> Fraction:
    n = len(vs)
    return sum((vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1]
                for i in range(n)), Fraction(0)) / 2


def centroid(vs):
    n = len(vs)
    a = cx = cy = Fraction(0)
    for i in range(n):
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % n]
        c = x0 * y1 - x1 * y0
        a += c
        cx += (x0 + x1) * c
        cy += (y0 + y1) * c
    return cx / (3 * a), cy / (3 * a)


def random_polygon(rng: random.Random, span: int = 6):
    """The distribution of `verify.random_bodies`: hull of 3..8 points with
    coordinates in {-span..span}/q, q in 1..4, moved to its centroid."""
    while True:
        k = rng.randint(3, 8)
        den = rng.randint(1, 4)
        vs = hull([(Fraction(rng.randint(-span, span), den),
                    Fraction(rng.randint(-span, span), den)) for _ in range(k)])
        if vs:
            cx, cy = centroid(vs)
            return [(x - cx, y - cy) for x, y in vs]


def rational_ngon(rng: random.Random, n: int, max_den: int = 16):
    """Rational n-gon inscribed in the unit circle, one vertex per jittered
    angular sector, from the parametrization ((1-s²)/(1+s²), 2s/(1+s²))."""
    pts = set()
    for j in range(n):
        theta = 2 * math.pi * (j + rng.uniform(0.2, 0.8)) / n - math.pi
        flip = abs(theta) > math.pi / 2
        if flip:
            theta = math.copysign(math.pi, theta) - theta
        s = Fraction(math.tan(theta / 2)).limit_denominator(max_den)
        d = 1 + s * s
        x, y = (1 - s * s) / d, 2 * s / d
        pts.add((-x if flip else x, y))
    return hull(pts)


def shear(vs, k: int, transpose: bool):
    """Image under [[1,k],[0,1]] or its transpose [[1,0],[k,1]]."""
    if transpose:
        return [(x, k * x + y) for x, y in vs]
    return [(x + k * y, y) for x, y in vs]


def is_symmetric(vs) -> bool:
    return set(vs) == {(-x, -y) for x, y in vs}


def vpoly_json(vs) -> dict:
    return {"type": "vpoly", "vertices": [[str(x), str(y)] for x, y in vs]}


def hpoly_json(vs) -> dict:
    rows = []
    for i in range(len(vs)):
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % len(vs)]
        nx, ny = y1 - y0, x0 - x1
        rows.append({"normal": [str(nx), str(ny)], "offset": str(nx * x0 + ny * y0)})
    return {"type": "hpoly", "dim": 2, "rows": rows}


class Workload:
    """Input blocks, the op, and its gate for one workload and seed."""

    name = ""
    setup_blocks = 1  # blocks generated during set-up, before the first timed op
    count_ops = 1  # ops of block 0 in the fraction-count pass

    def __init__(self, pm, seed: int, workdir):
        self.pm = pm
        self.seed = seed
        self.workdir = workdir
        self.blocks = []

    def block(self, b: int) -> list:
        while len(self.blocks) <= b:
            self.blocks.append(self.make_block(len(self.blocks)))
        return self.blocks[b]

    def release(self, b: int):
        """Drop a consumed block, so that memory does not grow with the
        number of ops a run completes; block 0 stays for the count pass."""
        if b > 0:
            self.blocks[b] = None

    def setup(self):
        self.block(self.setup_blocks - 1)

    def make_block(self, b: int) -> list:
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def check_op(self, inp, result):
        raise NotImplementedError

    def op_counts(self, result) -> dict:
        return {}

    def exact_hit_ratio(self) -> float:
        """Share of ops that end exactly at their target; only a search
        descent has one, so every other workload reports 1."""
        return 1.0

    def finish(self) -> list:
        """Gate failures that only show over the whole run."""
        return []

    def summary(self) -> dict:
        return {}

    def reference(self) -> dict:
        """Digests of a fixed, seed-independent input set."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _standard_ids(symmetric: bool) -> list:
    ids = ["eq_1_1_lower", "eq_1_1_upper", "eq_1_7_main", "eq_1_10", "eq_1_11",
           "prop_2_1_i", "prop_2_1_ii"]
    ids += ["eq_1_2", "eq_1_3", "eq_1_4"] if symmetric else ["eq_1_3"]
    ids += ["eq_1_5", "eq_1_6", "eq_1_8", "eq_1_9", "eq_1_12"]
    return ids


class Corpus(Workload):
    """standard_checks on one body per op: 31 seeded random bodies and one
    body of the family grid per block, 20 seeded Grünbaum normals each."""

    name = "corpus"
    setup_blocks = 24
    count_ops = 8
    BLOCK = 32

    def __init__(self, pm, seed, workdir, golden=None):
        super().__init__(pm, seed, workdir)
        self.rng = random.Random(f"corpus-{seed}")
        self.grid = [(label, [(v.x, v.y) for v in K.polygon.vertices])
                     for label, K in pm.verify.builtin_family_grid()]
        self.grid_digests = (golden or {}).get("grid", {})
        self.checks_run = 0
        self.equality_hits = {}

    def make_block(self, b):
        out = []
        for j in range(self.BLOCK):
            if j == self.BLOCK - 1:
                label, vs = self.grid[b % len(self.grid)]
            else:
                label, vs = None, random_polygon(self.rng)
            normals = []
            while len(normals) < GRUNBAUM_NORMALS:
                a = (self.rng.randint(-5, 5), self.rng.randint(-5, 5))
                if a != (0, 0):
                    normals.append(self.pm.core.vec(*a))
            poly = self.pm.core.VPolygon([self.pm.core.vec(x, y) for x, y in vs])
            out.append((label, vs, poly, normals))
        return out

    def run_op(self, inp):
        _, _, poly, normals = inp
        return self.pm.verify.standard_checks(self.pm.body.Body(poly=poly), normals)

    def check_op(self, inp, reports):
        label, vs, _, normals = inp
        ids = [r.check_id for r in reports]
        if ids != _standard_ids(is_symmetric(vs)) + ["gruenbaum"] * len(normals):
            return f"unexpected check list of {len(ids)} reports"
        bad = [r.check_id for r in reports if not r.holds]
        if bad:
            return f"violated {bad}"
        vol = area(vs)
        by_id = {r.check_id: r for r in reports}
        if by_id["eq_1_7_main"].lhs != vol or by_id["eq_1_1_lower"].lhs != vol:
            return "volume differs from the shoelace area"
        for r, a in zip(reports[-len(normals):], normals):
            if r.meta.get("normal") != f"({a.x}, {a.y})" or r.rhs != Fraction(4, 9) * vol:
                return "Grünbaum report does not match its normal or volume"
        self.checks_run += len(reports)
        for r in reports:
            if r.equality and r.check_id != "gruenbaum":
                self.equality_hits[r.check_id] = self.equality_hits.get(r.check_id, 0) + 1
        if label is not None:
            digest = self.grid_digest(reports)
            if self.grid_digests.get(label) != digest:
                return f"grid body {label} report digest changed"
        return None

    @staticmethod
    def grid_digest(reports) -> str:
        return sha256(json.dumps([r.to_json() for r in reports if r.check_id != "gruenbaum"]))

    def summary(self):
        return {"checks_run": self.checks_run, "equality_hits": self.equality_hits}

    def reference(self):
        """The verify-suite path on a fixed small corpus, plus every grid body."""
        suite = self.pm.verify.verify_suite(7, 16)
        grid = {}
        for label, K in self.pm.verify.builtin_family_grid():
            reps = self.pm.verify.standard_checks(K, self.pm.verify.DEFAULT_GRUNBAUM_NORMALS)
            grid[label] = self.grid_digest(reps)
        return {"checks_run": suite["checks_run"],
                "violations": len(suite["violations"]),
                "equality_hits": sha256(json.dumps(suite["equality_hits"])),
                "grid": grid}


# ---------------------------------------------------------------------------


class Search(Workload):
    """One op is one search seed at one t: sample_feasible, then descend
    with 200 iterations.  A block is one seed at each t in (1, 3/2, 2); at
    workload seed 0, blocks 0..31 are `polarmin search --seeds 32`."""

    name = "search"
    setup_blocks = 400
    count_ops = 3

    def __init__(self, pm, seed, workdir, golden=None):
        super().__init__(pm, seed, workdir)
        self.best = {}
        self.hits = 0
        self.ops = 0

    def make_block(self, b):
        return [(t, self.seed * 1_000_000 + b) for t in SEARCH_TS]

    def run_op(self, inp):
        t, s = inp
        start = self.pm.search.sample_feasible(random.Random(f"at-search-{s}"), t)
        if start is None:
            raise self.pm.errors.NoFeasibleStart(f"seed {s} at t={t}")
        final, trace, _ = self.pm.search.descend(start, SEARCH_ITERS)
        return final, len(trace) - 1

    def op_counts(self, result):
        return {"accepted_moves": result[1]}

    def check_op(self, inp, result):
        t, s = inp
        final = result[0]
        target = self.pm.search.target_volume(t)
        if final.t != t or final.volume < target:
            return f"seed {s} at t={t}: volume {final.volume} below target {target}"
        again = self.pm.search.make_candidate(final.body, t)
        if not (again.feasible and final.feasible and again.volume == final.volume
                and area([(v.x, v.y) for v in final.body.polygon.vertices]) == final.volume):
            return f"seed {s} at t={t}: final candidate does not re-certify"
        self.ops += 1
        self.hits += final.volume == target
        if t not in self.best or final.volume < self.best[t]:
            self.best[t] = final.volume
        return None

    def finish(self):
        return [f"best volume at t={t} is {v}, not the target"
                for t, v in self.best.items() if v != self.pm.search.target_volume(t)]

    def exact_hit_ratio(self):
        return self.hits / self.ops if self.ops else 0.0

    def summary(self):
        return {"exact_hits": self.hits, "ops": self.ops,
                "best": {str(t): str(v) for t, v in self.best.items()}}

    def reference(self):
        rows = []
        for s in range(4):
            for t in SEARCH_TS:
                final, accepted = self.run_op((t, s))
                rows.append([str(t), s, str(final.volume), accepted,
                             [[str(v.x), str(v.y)] for v in final.body.polygon.vertices]])
        return {"digest": sha256(json.dumps(rows))}


# ---------------------------------------------------------------------------

NGON_SIZES = (16, 24, 32, 48)
# Target bounding-box-to-area ratios of the sheared bodies.  The minima
# enumeration box, and with it the op's cost, grows with this ratio, so k
# is chosen per body to reach it: a fixed k would make a thin base body
# (T_st(1/2,5) at k=12: ratio 240, 13 s) cost a hundred times a round one.
SHEAR_RATIOS = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
MAX_SHEAR = 12


def bbox_ratio(vs) -> Fraction:
    xs, ys = [x for x, _ in vs], [y for _, y in vs]
    return (max(xs) - min(xs)) * (max(ys) - min(ys)) / area(vs)


def shear_for_ratio(vs, ratio, sign: int, transpose: bool):
    """The shear with 1 <= |k| <= MAX_SHEAR whose image comes closest to
    the target bounding-box ratio (smallest |k| on ties)."""
    return min((shear(vs, sign * k, transpose) for k in range(1, MAX_SHEAR + 1)),
               key=lambda image: abs(bbox_ratio(image) - ratio))


class Analyze(Workload):
    """One op is `polarmin analyze FILE`, called in-process.  A block has
    two base bodies, one from the corpus and one from the family grid in
    turn, each as given and under ten unimodular shears with |k| <= 12,
    and rational n-gons for n in (16, 24, 32, 48), each in vpoly form and
    then in hpoly form: 30 ops.  With the 48-gons the top 20 % of ops and
    the 32-gons the next 20 %, the 90th latency percentile falls inside
    the 32-gon class for any number of blocks."""

    name = "analyze"
    setup_blocks = 3
    count_ops = 6

    def __init__(self, pm, seed, workdir, golden=None):
        super().__init__(pm, seed, workdir)
        self.rng = random.Random(f"analyze-{seed}")
        self.grid = [K for _, K in pm.verify.builtin_family_grid()]
        self.base = {}
        self.vpoly_out = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def _file(self, name, doc):
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def make_block(self, b):
        out = []
        for j in (0, 1):
            key = f"b{b}-{j}"
            if j == 0:
                vs = random_polygon(self.rng)
                doc = vpoly_json(vs)
            else:
                K = self.grid[b % len(self.grid)]
                vs = [(v.x, v.y) for v in K.polygon.vertices]
                doc = self.pm.jsonio.body_to_json(K)
            out.append(("base", self._file(f"{key}-base", doc), key))
            for i, ratio in enumerate(SHEAR_RATIOS):
                sign = 1 if (b + i) % 2 == 0 else -1
                image = shear_for_ratio(vs, ratio, sign, (i + j) % 2 == 1)
                out.append(("shear", self._file(f"{key}-shear{i}", vpoly_json(image)), key))
            for n in NGON_SIZES[2 * j:2 * j + 2]:
                ngon = rational_ngon(self.rng, n)
                out.append(("vpoly", self._file(f"b{b}-{n}gon-v", vpoly_json(ngon)), f"b{b}-{n}"))
                out.append(("hpoly", self._file(f"b{b}-{n}gon-h", hpoly_json(ngon)), f"b{b}-{n}"))
        return out

    def run_op(self, inp):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                self.pm.cli.main.main(["analyze", inp[1]], standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        return code, stdout.getvalue()

    def check_op(self, inp, result):
        kind, _, key = inp
        code, text = result
        if code != 0:
            return f"{kind} {key}: exit code {code}"
        doc = json.loads(text)
        if not doc["all_theorems_hold"] or not all(r["holds"] for r in doc["reports"]):
            return f"{kind} {key}: a report is violated"
        invariant = ([doc["minima"][m]["lambda"] for m in ("cs", "cs_polar", "polar")],
                     next(r["lhs"] for r in doc["reports"] if r["check"] == "eq_1_7_main"))
        if kind == "base":
            self.base = {key: invariant}
        elif kind == "shear" and self.base.get(key) != invariant:
            return f"shear of {key}: minima or volume differ from the unsheared body"
        elif kind == "vpoly":
            self.vpoly_out[key] = text
        elif kind == "hpoly" and self.vpoly_out.pop(key, None) != text:
            return f"hpoly {key}: output differs from the same polygon in vpoly form"
        return None

    def reference(self):
        """stdout digests of a fixed file set: a family body, two shears,
        and a 16-gon in both forms."""
        rng = random.Random("analyze-reference")
        tst = self.pm.verify.builtin_family_grid()[2][1]
        tvs = [(v.x, v.y) for v in tst.polygon.vertices]
        ngon = rational_ngon(rng, 16)
        docs = {"family": self.pm.jsonio.body_to_json(tst),
                "shear5": vpoly_json(shear(tvs, 5, False)),
                "corpus_t-7": vpoly_json(shear(random_polygon(rng), -7, True)),
                "ngon16_v": vpoly_json(ngon),
                "ngon16_h": hpoly_json(ngon)}
        out = {}
        for name, doc in docs.items():
            code, text = self.run_op(("reference", self._file(f"reference-{name}", doc), name))
            out[name] = sha256(f"{code}\n{text}")
        return out


WORKLOADS = {w.name: w for w in (Corpus, Search, Analyze)}


def check_reference(reference: dict, recorded) -> str | None:
    """Gate on the fixed reference set: its digests must equal golden.json."""
    if reference == recorded:
        return None
    keys = sorted(k for k in set(reference) | set(recorded or {})
                  if reference.get(k) != (recorded or {}).get(k))
    return f"reference set differs from golden.json in {keys}"
