"""Tiny independent reference implementations used as test oracles.

Deliberately written from scratch against the definitions (shoelace sums,
edge-normal gauge, brute-force enumeration for the minima) so they do not
share code paths with the library they check.  The vertex-list checks, the
angle merge of the central symmetral, the gauge rows and the vertex-set
symmetry test keep the Fraction loops that the library ran before it moved
them onto the integer form.  `_tau_limit` is the piecewise-linear kink
walk over Fraction supports that the search moves ran before their stops
took a closed form over integers.
"""

import math
from fractions import Fraction

from polarmin.errors import DegenerateInput, Empty, Unbounded


def shoelace(points) -> Fraction:
    """|area| of a polygon given as (x, y) tuples in boundary order."""
    s = Fraction(0)
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        s += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(s) / 2


def signed_area(ccw_vertices) -> Fraction:
    """Shoelace area of a CCW polygon given as (x, y) tuples, summed one
    Fraction cross product at a time."""
    s = Fraction(0)
    n = len(ccw_vertices)
    for i in range(n):
        (x0, y0), (x1, y1) = ccw_vertices[i], ccw_vertices[(i + 1) % n]
        s += Fraction(x0) * y1 - Fraction(x1) * y0
    return s / 2


def area_centroid(ccw_vertices):
    """(x, y) of the area-weighted centroid: sum (v_i + v_{i+1}) c_i over
    3 sum c_i, with c_i the cross product of consecutive vertices, one
    Fraction step at a time."""
    a = cx = cy = Fraction(0)
    n = len(ccw_vertices)
    for i in range(n):
        (x0, y0), (x1, y1) = ccw_vertices[i], ccw_vertices[(i + 1) % n]
        c = Fraction(x0) * y1 - Fraction(x1) * y0
        a += c
        cx += (x0 + x1) * c
        cy += (y0 + y1) * c
    return cx / (3 * a), cy / (3 * a)


def orient_contains(ccw_vertices, q, mode="closed") -> bool:
    """Whether q is left of, or for mode "closed" on, every directed edge,
    by the Fraction orientation of each edge and q."""
    n = len(ccw_vertices)
    for i in range(n):
        (x0, y0), (x1, y1) = ccw_vertices[i], ccw_vertices[(i + 1) % n]
        s = (Fraction(x1) - x0) * (q[1] - y0) - (Fraction(y1) - y0) * (q[0] - x0)
        if s < 0 or (mode == "open" and s == 0):
            return False
    return True


def polar_directions(ccw_vertices):
    """n/c for each edge row <n, x> <= c of a CCW polygon with interior
    origin, n = (y1 - y0, x0 - x1) the outward normal of the edge from
    (x0, y0) to (x1, y1) and c = <n, (x0, y0)>, in edge order."""
    out = []
    n = len(ccw_vertices)
    for i in range(n):
        (x0, y0), (x1, y1) = ccw_vertices[i], ccw_vertices[(i + 1) % n]
        nx, ny = Fraction(y1) - y0, Fraction(x0) - x1
        c = nx * x0 + ny * y0
        out.append((nx / c, ny / c))
    return out


def fraction_gauge_rows(ccw_vertices):
    """(rows, D): the polar directions of `polar_directions`, in edge order,
    as integer rows over D, the lcm of their denominators, read off each
    Fraction's numerator and denominator."""
    dirs = [(Fraction(x), Fraction(y)) for x, y in polar_directions(ccw_vertices)]
    D = math.lcm(*(c.denominator for w in dirs for c in w))
    return [tuple(c.numerator * (D // c.denominator) for c in w) for w in dirs], D


def vertex_set_symmetric(ccw_vertices) -> bool:
    """Whether the vertex set, as Fraction pairs, is its own negative."""
    vs = {(Fraction(x), Fraction(y)) for x, y in ccw_vertices}
    return vs == {(-x, -y) for x, y in vs}


def edge_gauge(ccw_vertices, z) -> Fraction:
    """Gauge of z from the edge constraints of a CCW polygon with interior
    origin: max over edges of <n_e, z> / c_e."""
    n = len(ccw_vertices)
    best = Fraction(0)
    for i in range(n):
        x0, y0 = ccw_vertices[i]
        x1, y1 = ccw_vertices[(i + 1) % n]
        nx, ny = y1 - y0, -(x1 - x0)
        c = nx * x0 + ny * y0
        assert c > 0, "origin must be interior"
        best = max(best, Fraction(nx * z[0] + ny * z[1], 1) / c)
    return best


def brute_minima(ccw_vertices, box: int):
    """(lambda_1, lambda_2) by full enumeration over |z_i| <= box.

    lambda_2 minimizes max(gauge) over independent pairs.  With points
    sorted by gauge, every point before the first one off the line of the
    cheapest point z1 is collinear with z1, so the minimizing pair is
    (z1, first point independent of z1).  The box must be known large
    enough to contain the witnesses."""
    gauged = sorted(
        (edge_gauge(ccw_vertices, (p, q)), (p, q))
        for p in range(-box, box + 1)
        for q in range(-box, box + 1)
        if p or q)
    lam1, z1 = gauged[0]
    lam2 = min(g for g, z in gauged if z1[0] * z[1] - z1[1] * z[0] != 0)
    return lam1, lam2


def short_vectors(ccw_vertices, bound):
    """Every nonzero lattice point (p, q) with edge_gauge <= bound, as
    ((p, q), gauge) pairs in no particular order.  The full box
    |p| <= bound * X, |q| <= bound * Y is enumerated, where X and Y are the
    largest |x| and |y| over the vertices: a point outside it has gauge
    above the bound."""
    X = max(abs(Fraction(v[0])) for v in ccw_vertices)
    Y = max(abs(Fraction(v[1])) for v in ccw_vertices)
    mx, my = math.floor(bound * X), math.floor(bound * Y)
    out = []
    for p in range(-mx, mx + 1):
        for q in range(-my, my + 1):
            if p or q:
                g = edge_gauge(ccw_vertices, (p, q))
                if g <= bound:
                    out.append(((p, q), g))
    return out


def contact_points(ccw_vertices):
    """(C0, C, by_vertex) of a polygon in A(t) position, from its vertices
    alone through the support function h(z) = max <v, z>.

    C0 is every lattice z with (h(z) + h(-z)) / 2 = 1, i.e. gauge 1 in the
    symmetral's polar, plus +-e1, sorted by (x, y); C is z / h(z) for each.
    by_vertex maps each vertex index i to the points z / h(z) whose support
    is attained at vertex i only.  The box is bounded by the extents of the
    symmetral's polar, read off the edges of the pairwise symmetral."""
    vs = [(Fraction(x), Fraction(y)) for x, y in ccw_vertices]

    def h(z):
        return max(x * z[0] + y * z[1] for x, y in vs)

    sym = pairwise_symmetral(vs)
    X = Y = Fraction(0)
    for i, (x0, y0) in enumerate(sym):
        x1, y1 = sym[(i + 1) % len(sym)]
        nx, ny = y1 - y0, x0 - x1
        c = nx * x0 + ny * y0
        X, Y = max(X, abs(nx / c)), max(Y, abs(ny / c))
    c0 = {(p, q)
          for p in range(-math.floor(X), math.floor(X) + 1)
          for q in range(-math.floor(Y), math.floor(Y) + 1)
          if (p or q) and h((p, q)) + h((-p, -q)) == 2}
    c0 = sorted(c0 | {(1, 0), (-1, 0)})
    c = [(p / h((p, q)), q / h((p, q))) for p, q in c0]
    by_vertex = {i: set() for i in range(len(vs))}
    for z, point in zip(c0, c):
        top = [i for i, (x, y) in enumerate(vs) if x * z[0] + y * z[1] == h(z)]
        if len(top) == 1:
            by_vertex[top[0]].add(point)
    return c0, c, by_vertex


def _turn(o, a, b):
    """Signed double area of the triangle (o, a, b) of (x, y) tuples."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _half(d):
    """0 for a direction (x, y) with angle in [0, pi), 1 for [pi, 2 pi)."""
    return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1


def _hull(points):
    """CCW strictly convex hull of (x, y) tuples by monotone chain, starting
    at the lexicographically smallest point."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def clip_hull(vertices, a, c):
    """Clip of a CCW polygon, given as (x, y) tuples, by <a, x> <= c: the
    kept vertices and the crossings of edges whose ends lie strictly on
    either side, hulled by `_hull`; None when fewer than 3 hull points
    remain (an empty or lower-dimensional clip)."""
    c = Fraction(c)
    n = len(vertices)
    points = []
    for i in range(n):
        u, w = vertices[i], vertices[(i + 1) % n]
        fu = a[0] * u[0] + a[1] * u[1] - c
        fw = a[0] * w[0] + a[1] * w[1] - c
        if fu <= 0:
            points.append(u)
        if fu * fw < 0:
            t = fu / (fu - fw)
            points.append((u[0] + t * (w[0] - u[0]), u[1] + t * (w[1] - u[1])))
    hull = _hull(points)
    return hull if len(hull) >= 3 else None


def validated_ccw(vertices):
    """The checks of a strictly convex CCW vertex list of (x, y) tuples, in
    order, one Fraction turn per vertex: at least 3 vertices, no duplicate,
    every turn strictly left, then one winding (one edge from the upper half
    of angles to the lower); raises DegenerateInput with the library's
    message for the first check that fails, else returns the Fraction list."""
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    n = len(vs)
    if n < 3:
        raise DegenerateInput("a polygon needs at least 3 vertices")
    if len(set(vs)) != n:
        raise DegenerateInput("duplicate vertices")
    for i in range(n):
        if _turn(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
            raise DegenerateInput("vertices not in strictly convex CCW position")
    halves = [_half((vs[(i + 1) % n][0] - vs[i][0], vs[(i + 1) % n][1] - vs[i][1]))
              for i in range(n)]
    if sum(halves[i] > halves[(i + 1) % n] for i in range(n)) != 1:
        raise DegenerateInput("vertex list is not a convex hull ordering")
    return vs


def merge_symmetral(vertices):
    """Central symmetral (K - K)/2 of a CCW polygon of (x, y) tuples by the
    Fraction angle merge of the edges of K and -K, each walked from its
    lowest-then-leftmost vertex; output vertices (v_i - v_j)/2, rotated to
    start at the lexicographically smallest."""
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    n = len(vs)
    edges = [(vs[(k + 1) % n][0] - vs[k][0], vs[(k + 1) % n][1] - vs[k][1])
             for k in range(n)]
    halves = [_half(e) for e in edges]
    i = min(range(n), key=lambda k: (vs[k][1], vs[k][0]))
    j = max(range(n), key=lambda k: (vs[k][1], vs[k][0]))
    out = []
    left_i = left_j = n
    while left_i or left_j:
        if not left_j:
            order = -1
        elif not left_i:
            order = 1
        elif halves[i] == halves[j]:  # e_i and -e_j in different halves
            order = -1 if halves[i] == 0 else 1
        else:
            c = _turn((0, 0), edges[j], edges[i])  # cross(e_i, -e_j)
            order = (c < 0) - (c > 0)
        if order <= 0:
            i = (i + 1) % n
            left_i -= 1
        if order >= 0:
            j = (j + 1) % n
            left_j -= 1
        out.append(((vs[i][0] - vs[j][0]) / 2, (vs[i][1] - vs[j][1]) / 2))
    k = out.index(min(out))
    return out[k:] + out[:k]


def pairwise_symmetral(vertices):
    """Central symmetral (K - K)/2 as the hull of all pairwise
    half-differences of the vertices: O(n^2) points, no edge merging."""
    half = Fraction(1, 2)
    return _hull(((Fraction(a[0]) - b[0]) * half, (Fraction(a[1]) - b[1]) * half)
                 for a in vertices for b in vertices if a != b)


def halfplane_vertices(rows):
    """Vertices, in _hull order, of the intersection of the halfplanes
    <(a, b), x> <= c given as ((a, b), c) tuples, by brute force: every
    pairwise line intersection that satisfies all rows, then the hull.

    Raises Empty for a zero row with c < 0, Unbounded for no nonzero row or
    a nontrivial recession cone (which, when nontrivial, contains a ray
    orthogonal to some normal), then Empty for an empty or lower-dimensional
    intersection, in that order.  O(m^3)."""
    rows = [((Fraction(a), Fraction(b)), Fraction(c)) for (a, b), c in rows]
    if any(a == b == 0 and c < 0 for (a, b), c in rows):
        raise Empty("contradictory trivial row")
    rows = [r for r in rows if r[0] != (0, 0)]
    if not rows:
        raise Unbounded("no constraints")
    for (a, b), _ in rows:
        for d in ((-b, a), (b, -a)):
            if all(p * d[0] + q * d[1] <= 0 for (p, q), _ in rows):
                raise Unbounded(f"recession direction {d}")
    points = set()
    for i, ((a1, b1), c1) in enumerate(rows):
        for (a2, b2), c2 in rows[i + 1:]:
            det = a1 * b2 - b1 * a2
            if det:
                x = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
                if all(p * x[0] + q * x[1] <= c for (p, q), c in rows):
                    points.add(x)
    hull = _hull(points)
    if len(hull) < 3:
        raise Empty("intersection is empty or lower-dimensional")
    return hull


def support_parts(vertices, i, z):
    """(a, M): <v_i, z> at the moving vertex i of (x, y) tuples and the max
    of <v, z> over the other vertices, one Fraction product at a time."""
    def dot(v):
        return Fraction(v[0]) * z[0] + Fraction(v[1]) * z[1]
    return dot(vertices[i]), max(dot(v) for k, v in enumerate(vertices) if k != i)


def move_constraints(t, radius, extents):
    """((z, bound, equality), ...) of the search moves: the witness
    equalities at e1 (bound 1/t) and e2 (bound 1), then the gauge >= 1
    constraint at every (m, n) != e2 with 1 <= n <= floor(radius e_2) + 1
    and |m| <= floor(radius e_1) + 1, n outer, m inner."""
    m1 = math.floor(radius * extents[0]) + 1
    m2 = math.floor(radius * extents[1]) + 1
    return [((1, 0), 1 / Fraction(t), True), ((0, 1), Fraction(1), True)] + \
        [((m, n), Fraction(1), False) for n in range(1, m2 + 1)
         for m in range(-m1, m1 + 1) if (m, n) != (0, 1)]


def push_points(vertices, i, constraints):
    """The points left when vertex f = v_i is pushed: the other vertices,
    then f mu.  mu is 0 or the largest (2 bound - M(-s)) / a(s) over the
    sides s of z and -z with a(s) > 0 whose floors fall short,
    (floor(s) + floor(-s)) / 2 < bound, the floor of a side being max(M, 0)
    when a > 0 and M otherwise."""
    mu = Fraction(0)
    for z, bound, _eq in constraints:
        for s in (z, (-z[0], -z[1])):
            a, M = support_parts(vertices, i, s)
            a_op, M_op = support_parts(vertices, i, (-s[0], -s[1]))
            floor_here = max(M, Fraction(0)) if a > 0 else M
            floor_op = max(M_op, Fraction(0)) if a_op > 0 else M_op
            if a <= 0 or (floor_here + floor_op) / 2 >= bound:
                continue
            mu = max(mu, (2 * bound - M_op) / a)
    x, y = vertices[i]
    return [v for k, v in enumerate(vertices) if k != i] + [(x * mu, y * mu)]


def _tau_limit(a, b, M, a2, b2, M2, bound, equality):
    """Largest tau >= 0 keeping the pair constraint satisfied, or None when
    it holds for every tau >= 0.

    g(tau) = (max(M, a + tau b) + max(M2, a2 + tau b2))/2 is linear between
    its kinks and on the unbounded piece after the last one; the value and
    the right-hand slope at a piece's start describe the whole piece.  For
    ">=" constraints the limit is the first downward crossing of the bound;
    for equality constraints it is the end of the initial flat stretch."""
    parts = ((a, b, M), (a2, b2, M2))
    kinks = sorted(k for k in {(mm - aa) / bb for aa, bb, mm in parts if bb != 0}
                   if k > 0)
    for lo, hi in zip([Fraction(0)] + kinks, kinks + [None]):
        v = s = Fraction(0)  # 2 g(lo) and the slope of 2 g on the piece
        for aa, bb, mm in parts:
            moving = aa + lo * bb
            if moving > mm or (moving == mm and bb > 0):
                v += moving
                s += bb
            else:
                v += mm
        if equality:
            if s != 0:
                return lo
        elif s < 0:
            cross_at = lo + (v - 2 * bound) / -s
            if hi is None or cross_at < hi:
                return max(cross_at, lo)
    return None


def rotate_stop(vertices, i, w, constraints):
    """(tau, reason) of the least stop of the slide v_i + tau w: each
    constraint's limit from the Fraction supports of z and -z, in
    constraint order, then every positive tau at which v_i becomes
    collinear with the chord of its neighbors or with a neighboring edge;
    the first least tau wins.  The limit of one constraint is `_tau_limit`,
    pinned on its own by the move-solve tests."""
    n = len(vertices)
    stops = []
    for z, bound, eq in constraints:
        minus = (-z[0], -z[1])
        a, M = support_parts(vertices, i, z)
        a2, M2 = support_parts(vertices, i, minus)
        b = w[0] * z[0] + w[1] * z[1]
        limit = _tau_limit(a, b, M, a2, -b, M2, bound, eq)
        if limit is not None:
            if eq:
                stops.append((limit, "witness-e1" if z == (1, 0) else "witness-e2"))
            else:
                stops.append((limit, f"lattice-gauge({z[0]},{z[1]})"))
    f = vertices[i]
    for j, k in ((i - 1, i + 1), (i - 2, i - 1), (i + 1, i + 2)):
        p, q = vertices[j % n], vertices[k % n]
        d = (q[0] - p[0], q[1] - p[1])
        denom = d[0] * w[1] - d[1] * w[0]
        if denom != 0:
            tau = -(d[0] * (f[1] - p[1]) - d[1] * (f[0] - p[0])) / denom
            if tau > 0:
                stops.append((tau, "vertex-collision"))
    return min(stops, key=lambda stop: stop[0])
