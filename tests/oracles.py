"""Tiny independent reference implementations used as test oracles.

Deliberately written from scratch against the definitions (shoelace sums,
edge-normal gauge, brute-force enumeration for the minima) so they do not
share code paths with the library they check.
"""

from fractions import Fraction


def shoelace(points) -> Fraction:
    """|area| of a polygon given as (x, y) tuples in boundary order."""
    s = Fraction(0)
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        s += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(s) / 2


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


def _hull(points):
    """CCW strictly convex hull of (x, y) tuples by monotone chain, starting
    at the lexicographically smallest point."""
    pts = sorted(set(points))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def pairwise_symmetral(vertices):
    """Central symmetral (K - K)/2 as the hull of all pairwise
    half-differences of the vertices: O(n^2) points, no edge merging."""
    half = Fraction(1, 2)
    return _hull(((Fraction(a[0]) - b[0]) * half, (Fraction(a[1]) - b[1]) * half)
                 for a in vertices for b in vertices if a != b)
