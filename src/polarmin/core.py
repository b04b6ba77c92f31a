"""Exact rational planar convex geometry kernel.

Every coordinate is a `fractions.Fraction` and every predicate is decided by
exact sign computations, so tangency, collinearity and equality of areas are
detected exactly rather than to within a tolerance.  Polygons are stored as
strictly convex counterclockwise vertex lists.

Each polygon also has one integer form, kept in its slot: the vertices as
integers (X_i, Y_i) over the lcm L of every coordinate denominator, handed
on at birth by every constructor but the polar, which builds it on first
use.  Area and centroid are shoelace sums over its cross terms, membership
is one integer sign per edge, and a clip and a cut area are one integer scan
for the kept vertices and edge crossings, so each builds one Fraction per
coordinate of its result, or none, instead of one per step.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import DegenerateInput, Empty, LimitExceeded, Unbounded

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(value) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to Fraction; a bool
    is not read as 0 or 1 but raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value.strip()):
            raise ValueError(f"not a rational literal: {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1.

    Raises LimitExceeded when p or q has more digits than the interpreter
    converts to a string."""
    try:
        return str(q)
    except ValueError as exc:
        raise LimitExceeded(f"exact value too long to print: {exc}") from None


def dec_str(q: Fraction, digits: int = 6) -> str:
    """Exact fixed-point decimal rendering, rounded toward zero."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**digits) // q.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


@dataclass(frozen=True)
class Vec2:
    """Point or vector of R^2 with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s) -> "Vec2":
        s = rat(s)
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def perp(self) -> "Vec2":
        """Counterclockwise quarter turn."""
        return Vec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def __repr__(self):
        return f"({self.x}, {self.y})"


def vec(x, y) -> Vec2:
    return Vec2(rat(x), rat(y))


ORIGIN = vec(0, 0)
E1 = vec(1, 0)
E2 = vec(0, 1)


class VPolygon:
    """Strictly convex polygon, vertices counterclockwise, no three collinear.

    The vertex tuple is canonicalized (lexicographically smallest vertex
    first), so two polygons describing the same set compare equal.  The
    integer form of `integer_form` is memoized in a slot and freed with the
    polygon; an untrusted vertex list is validated on it.
    """

    __slots__ = ("vertices", "_integer")

    def __init__(self, vertices: Sequence[Vec2], _trusted: bool = False):
        vs = tuple(vertices)
        form = None if _trusted else _validated_ccw(vs)
        keys = form[0] if form else [(v.x, v.y) for v in vs]
        k = min(range(len(vs)), key=keys.__getitem__)
        object.__setattr__(self, "vertices", vs[k:] + vs[:k])
        object.__setattr__(self, "_integer", form and (keys[k:] + keys[:k], form[1]))

    def __eq__(self, other):
        return isinstance(other, VPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"VPolygon[{', '.join(map(repr, self.vertices))}]"

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)


def _from_integer(pts: Sequence, L: int) -> VPolygon:
    """The polygon pts/L (integer points, strictly convex, CCW), keeping its
    form after dividing out gcd(L, coordinates) and rotating to the least point."""
    g = math.gcd(L, *(c for p in pts for c in p))
    pts, L = [(x // g, y // g) for x, y in pts], L // g
    k = min(range(len(pts)), key=pts.__getitem__)
    pts = tuple(pts[k:] + pts[:k])
    poly = object.__new__(VPolygon)
    poly.vertices = tuple(Vec2(Fraction(x, L), Fraction(y, L)) for x, y in pts)
    poly._integer = (pts, L)
    return poly


def _from_rational(out: Sequence, L: int = 1) -> VPolygon:
    """The strictly convex CCW polygon of the points (x, y)/(w L), w != 0."""
    W = math.lcm(*(w for _, _, w in out))
    return _from_integer([(x * (W // w), y * (W // w)) for x, y, w in out], W * L)


def _turn(o: tuple, a: tuple, b: tuple) -> int:
    """Twice the signed area of the triangle (o, a, b) of integer pairs:
    > 0 iff (o, a, b) turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _validated_ccw(vs: tuple) -> tuple:
    """The integer form of vs, in vs's order, once every check passes."""
    if len(vs) < 3:
        raise DegenerateInput("a polygon needs at least 3 vertices")
    ints, L = _over_lcm([c for v in vs for c in (v.x, v.y)])
    pts = tuple(zip(ints[::2], ints[1::2]))
    if len(set(pts)) != len(pts):
        raise DegenerateInput("duplicate vertices")
    nxt = pts[1:] + pts[:1]
    if any(_turn(p, q, r) <= 0 for p, q, r in zip(pts, nxt, nxt[1:] + nxt[:1])):
        raise DegenerateInput("vertices not in strictly convex CCW position")
    # Local convexity admits multiply-wound lists.  With every turn strictly
    # left and below pi, the edge angle passes 0 once per winding, which is
    # exactly where an edge in the upper half [pi, 2 pi) is followed by one
    # in the lower half [0, pi); the list is the hull order iff that happens once.
    halves = [_half((x1 - x0, y1 - y0)) for (x0, y0), (x1, y1) in zip(pts, nxt)]
    if sum(h > g for h, g in zip(halves, halves[1:] + halves[:1])) != 1:
        raise DegenerateInput("vertex list is not a convex hull ordering")
    return pts, L


def _half(u: Sequence) -> bool:
    """Whether the nonzero integer direction u has its angle in [pi, 2 pi)."""
    return (u[1], u[0]) <= (0, 0)


def _angle_cmp(u: Sequence, v: Sequence) -> int:
    """Exact comparison of the angles in [0, 2 pi) of two nonzero integer
    directions: the half first, then the sign of the cross product."""
    h = _half(u) - _half(v)
    if h:
        return h
    c = _turn((0, 0), u, v)
    return (c < 0) - (c > 0)


def convex_hull(points: Iterable[Vec2]) -> VPolygon:
    """Monotone-chain hull with integer orientation tests.

    Collinear middle points are dropped, so the result satisfies the strict
    VPolygon invariant; idempotent on an existing polygon's vertices.
    """
    ints, L = _over_lcm([c for p in points for c in (p.x, p.y)])
    pts = sorted(set(zip(ints[::2], ints[1::2])))
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear")
    return _from_integer(hull, L)


def _over_lcm(qs: Sequence[Fraction]) -> tuple:
    """(ints, M): the rationals qs as integers over their least common
    denominator M, so qs[i] = ints[i] / M."""
    M = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (M // q.denominator) for q in qs], M


def integer_form(p: VPolygon) -> tuple:
    """(pts, L): the vertices as integer pairs (X_i, Y_i) = L * v_i, L the
    least common denominator of every coordinate; memoized on the polygon."""
    if p._integer is None:
        ints, L = _over_lcm([c for v in p.vertices for c in (v.x, v.y)])
        object.__setattr__(p, "_integer", (tuple(zip(ints[::2], ints[1::2])), L))
    return p._integer


def _cross_terms(pts: Sequence) -> list:
    """C_i = X_i Y_{i+1} - X_{i+1} Y_i over consecutive points, cyclically."""
    return [x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])]


def area(p: VPolygon) -> Fraction:
    """Exact area by the integer shoelace sum, sum C_i / (2 L^2) (positive:
    vertices are CCW)."""
    pts, L = integer_form(p)
    return Fraction(sum(_cross_terms(pts)), 2 * L * L)


def centroid(p: VPolygon) -> Vec2:
    """Exact area-weighted centroid, sum (P_i + P_{i+1}) C_i / (3 L sum C_i)
    over the integer points P_i."""
    pts, L = integer_form(p)
    cs = _cross_terms(pts)
    cx = cy = 0
    for (x0, y0), (x1, y1), c in zip(pts, pts[1:] + pts[:1], cs):
        cx += (x0 + x1) * c
        cy += (y0 + y1) * c
    den = 3 * L * sum(cs)
    return Vec2(Fraction(cx, den), Fraction(cy, den))


def contains(p: VPolygon, q: Vec2, mode: str = "closed") -> bool:
    """Exact membership test; mode "open" tests interior membership.

    With q = (P, Q)/M over the integer form of p, the sign of the turn
    (v_i, v_{i+1}, q) is that of
    (X_{i+1} - X_i)(Q L - Y_i M) - (Y_{i+1} - Y_i)(P L - X_i M),
    which is the cross term C_i at the origin."""
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    pts, L = integer_form(p)
    (P, Q), M = _over_lcm((q.x, q.y))
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        s = (x1 - x0) * (Q * L - y0 * M) - (y1 - y0) * (P * L - x0 * M)
        if s < 0 or (mode == "open" and s == 0):
            return False
    return True


def edge_halfplanes(p: VPolygon) -> list:
    """Outward edge constraints [(normal, offset)] with <normal, x> <= offset."""
    vs = p.vertices
    rows = []
    for i in range(len(vs)):
        d = vs[(i + 1) % len(vs)] - vs[i]
        n = Vec2(d.y, -d.x)
        rows.append((n, n.dot(vs[i])))
    return rows


def affine_poly(p: VPolygon, m: Sequence, v: Vec2) -> VPolygon:
    """The image m p + v, m = ((a, b), (c, d)) invertible: with m = m'/N and
    v = (P, Q)/N over their lcm N, X/L maps to (m'X + (P, Q) L)/(N L),
    reversed when det m < 0 to stay counterclockwise."""
    pts, L = integer_form(p)
    (a, b, c, d, P, Q), N = _over_lcm((*m[0], *m[1], v.x, v.y))
    P, Q = P * L, Q * L
    out = [(a * x + b * y + P, c * x + d * y + Q) for x, y in pts]
    return _from_integer(out if a * d > b * c else out[::-1], N * L)


@dataclass(frozen=True)
class HPolytope:
    """H-representation {x : <normal_i, x> <= offset_i}, any dimension.

    Redundant rows are tolerated; they are eliminated when converting to
    vertex form.  Only the planar case is computational; higher dimensions
    serve as exact containers for family constructors.
    """

    rows: tuple  # tuple of (tuple[Fraction, ...], Fraction)
    dim: int

    @staticmethod
    def planar(rows: Iterable) -> "HPolytope":
        """Build from (Vec2 normal, offset) pairs."""
        packed = tuple(((rat(n.x), rat(n.y)), rat(c)) for n, c in rows)
        return HPolytope(packed, 2)

    def planar_rows(self) -> list:
        if self.dim != 2:
            raise ValueError("planar_rows requires dimension 2")
        return [(Vec2(rat(n[0]), rat(n[1])), rat(c)) for n, c in self.rows]


def _line_intersection(r: Sequence, s: Sequence) -> tuple:
    """The crossing (X, Y)/W, as a lowest-terms triple (X, Y, W) with W > 0,
    of the lines A x + B y = C of the integer rows r and s; their normals
    must not be parallel."""
    (A1, B1, C1), (A2, B2, C2) = r, s
    W = A1 * B2 - B1 * A2
    X, Y = C1 * B2 - C2 * B1, A1 * C2 - A2 * C1
    g = math.gcd(X, Y, W) if W > 0 else -math.gcd(X, Y, W)
    return X // g, Y // g, W // g


def _fails(r: Sequence, q: tuple) -> bool:
    """Whether the corner q = (X, Y, W) is not strictly inside row r."""
    return r[0] * q[0] + r[1] * q[1] >= r[2] * q[2]


def halfplane_intersect(h: HPolytope) -> VPolygon:
    """Vertex form of a bounded, full-dimensional planar halfplane intersection.

    Sort and sweep (de Berg et al., Computational Geometry, 3rd ed.,
    sections 4.2 and 8.2), O(m log m) for m rows, on integers: each row is
    scaled by the lcm of its denominators to A x + B y <= C, and each corner
    is a lowest-terms triple (X, Y, W), W > 0.

      * a zero row with a negative offset raises Empty, and no nonzero row
        raises Unbounded;
      * the rows are sorted by normal angle, and of parallel rows with the
        same direction only the most restrictive is kept;
      * Unbounded is raised when two cyclically consecutive normals are at
        least pi apart, which is exactly a nontrivial recession cone
        {d : <n_i, d> <= 0 for all i}, and is decided before emptiness;
      * a deque of rows is swept in angle order: each new row pops rows from
        the back, then from the front, while the vertex at that end is not
        strictly inside it, and the two ends are finally trimmed against
        each other.  A row that turns by pi or more from the back row, fewer
        than 3 surviving rows, or fewer than 3 distinct corners raise Empty.

    Every input row either supports an edge of the result or is redundant.
    The corners, already in CCW order, are the result with no hull.
    """
    planar = [_over_lcm((n.x, n.y, c))[0] for n, c in h.planar_rows()]
    if any(A == B == 0 and C < 0 for A, B, C in planar):
        raise Empty("contradictory trivial row")
    rows = sorted((r for r in planar if r[0] or r[1]), key=cmp_to_key(_angle_cmp))
    if not rows:
        raise Unbounded("no constraints")

    dirs = []  # the most restrictive row per normal direction, by angle
    for n in rows:
        if dirs and _angle_cmp(dirs[-1], n) == 0:
            m = dirs[-1]
            if n[2] * (m[0] * m[0] + m[1] * m[1]) < (n[0] * m[0] + n[1] * m[1]) * m[2]:
                dirs[-1] = n
        else:
            dirs.append(n)
    for m, n in zip(dirs[-1:] + dirs[:-1], dirs):
        if _turn((0, 0), m, n) <= 0:
            raise Unbounded(f"recession direction ({-m[1]}, {m[0]})")

    lines = deque()  # rows of the current boundary chain, by angle
    corners = deque()  # corners[i] is the vertex of lines[i] and lines[i + 1]
    for n in dirs:
        while corners and _fails(n, corners[-1]):
            lines.pop()
            corners.pop()
        while corners and _fails(n, corners[0]):
            lines.popleft()
            corners.popleft()
        if lines:
            if _turn((0, 0), lines[-1], n) <= 0:
                raise Empty("intersection is empty")
            corners.append(_line_intersection(lines[-1], n))
        lines.append(n)
    while len(lines) > 2 and _fails(lines[0], corners[-1]):
        lines.pop()
        corners.pop()
    while len(lines) > 2 and _fails(lines[-1], corners[0]):
        lines.popleft()
        corners.popleft()
    if len(lines) < 3 or _turn((0, 0), lines[-1], lines[0]) <= 0:
        raise Empty("intersection is empty or lower-dimensional")
    corners.append(_line_intersection(lines[-1], lines[0]))
    # corners[i - 1] and corners[i] lie on lines[i], and consecutive rows have
    # distinct directions (cross > 0), so three consecutive corners are
    # collinear only if two coincide: without repeats they are strictly convex.
    kept = [q for q, r in zip(corners, list(corners)[1:] + [corners[0]]) if q != r]
    if len(kept) < 3:
        raise Empty("intersection is lower-dimensional")
    return _from_rational(kept)


def _clip_points(p: VPolygon, A: int, B: int, C: int) -> tuple:
    """(out, L): the boundary points of p ∩ {x : A x + B y <= C}, A, B, C
    integers, in CCW order over p's integer form, each (x, y, d) the point
    (x, y)/(d L): the vertices with s_i = A X_i + B Y_i - C L <= 0 and, per
    strict sign change along an edge (U, W), (s_u W - s_w U)/(s_u - s_w)."""
    pts, L = integer_form(p)
    s = [A * x + B * y - C * L for x, y in pts]
    out = []
    n = len(pts)
    for i in range(n):
        su, sw = s[i], s[(i + 1) % n]
        if su <= 0:
            out.append((*pts[i], 1))
        if (su < 0 < sw) or (sw < 0 < su):
            (xu, yu), (xw, yw) = pts[i], pts[(i + 1) % n]
            out.append((su * xw - sw * xu, su * yw - sw * yu, su - sw))
    return out, L


def clip_halfplane(p: VPolygon, a: Vec2, c) -> VPolygon | None:
    """Exact clip of a polygon by {x : <a, x> <= c}, built without a hull.

    Returns None when the clipped region is empty or lower-dimensional.
    `cut_area` gives its area, or 0 for None, without building it.
    """
    out, L = _clip_points(p, *_over_lcm((a.x, a.y, rat(c)))[0])
    # A line meets a strictly convex boundary in at most two points or one
    # edge, and a crossing lies strictly inside its edge, so 3 or more kept
    # points include one strictly inside the halfplane and are strictly
    # convex, in CCW boundary order.
    if len(out) < 3:
        return None
    return _from_rational(out, L)


def cut_area(p: VPolygon, a: Vec2, c) -> Fraction:
    """Area of p ∩ {x : <a, x> <= c}, equal to area(clip_halfplane(p, a, c))
    and 0 where that clip is None: `_cut_area` of a and c over their lcm."""
    return _cut_area(p, *_over_lcm((a.x, a.y, rat(c)))[0])


def _cut_area(p: VPolygon, A: int, B: int, C: int) -> Fraction:
    """Area of p ∩ {x : A x + B y <= C}, A, B, C integers, with no clip built:
    the cross products of consecutive points of `_clip_points` summed over
    the product D of their denominators d, and one Fraction, over 2 L^2 D."""
    out, L = _clip_points(p, A, B, C)
    if len(out) < 3:
        return Fraction(0)
    D = math.prod(d for _, _, d in out)
    total = 0
    for (x0, y0, d0), (x1, y1, d1) in zip(out, out[1:] + out[:1]):
        total += (x0 * y1 - x1 * y0) * (D // (d0 * d1))
    return Fraction(total, 2 * L * L * D)
