"""Exact rational planar convex geometry kernel.

Every coordinate is a `fractions.Fraction` and every predicate is decided by
exact sign computations, so tangency, collinearity and equality of areas are
detected exactly rather than to within a tolerance.  Polygons are stored as
strictly convex counterclockwise vertex lists.

Each polygon also has one integer form, kept in its slot: the vertices as
integers (X_i, Y_i) over the lcm L of every coordinate denominator, handed
on at birth by the hull, the translate and the validated constructor, else
built on first use.  Area and centroid are shoelace sums over its cross
terms, membership is one integer sign per edge, and a clip and a cut area
are one integer scan for the kept vertices and edge crossings, so each builds
one Fraction per coordinate of its result, or none, instead of one per step.
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


def orient(o: Vec2, a: Vec2, b: Vec2) -> Fraction:
    """Signed double area of the triangle (o, a, b); > 0 iff left turn."""
    return (a - o).cross(b - o)


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


def _turn(o: tuple, a: tuple, b: tuple) -> int:
    """orient(o, a, b) on integer pairs: > 0 iff (o, a, b) turns left."""
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
    # in the lower half [0, pi); the list is the hull order iff that happens
    # once.  An edge (x, y) is in the upper half iff (y, x) <= (0, 0).
    halves = [(y1 - y0, x1 - x0) <= (0, 0) for (x0, y0), (x1, y1) in zip(pts, nxt)]
    if sum(h > g for h, g in zip(halves, halves[1:] + halves[:1])) != 1:
        raise DegenerateInput("vertex list is not a convex hull ordering")
    return pts, L


def angle_half(d: Vec2) -> int:
    """0 for directions with angle in [0, pi), 1 for [pi, 2 pi)."""
    return 0 if d.y > 0 or (d.y == 0 and d.x > 0) else 1


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

    With q = (P, Q)/M over the integer form of p, the sign of
    orient(v_i, v_{i+1}, q) is that of
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


def translate_poly(p: VPolygon, v: Vec2) -> VPolygon:
    """p + v over N, the lcm of L and v's denominators: v = (P, Q)/N, a = N/L."""
    pts, L = integer_form(p)
    (P, Q, a), N = _over_lcm((v.x, v.y, Fraction(1, L)))
    return _from_integer([(x * a + P, y * a + Q) for x, y in pts], N)


def scale_poly(p: VPolygon, r) -> VPolygon:
    r = rat(r)
    if r <= 0:
        raise ValueError("scale factor must be positive")
    return VPolygon(tuple(u * r for u in p.vertices), _trusted=True)


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


def _line_intersection(n1: Vec2, c1, n2: Vec2, c2) -> Vec2:
    """The crossing of <n1, x> = c1 and <n2, x> = c2; the normals must not
    be parallel."""
    det = n1.cross(n2)
    x = (c1 * n2.y - c2 * n1.y) / det
    y = (n1.x * c2 - n2.x * c1) / det
    return Vec2(x, y)


def _angle_cmp(a: Vec2, b: Vec2) -> int:
    """Exact comparison of the polar angles of two nonzero vectors in
    [0, 2 pi): the half first, then the turn from one to the other."""
    h = angle_half(a) - angle_half(b)
    if h:
        return h
    c = a.cross(b)
    return (c < 0) - (c > 0)


def halfplane_intersect(h: HPolytope) -> VPolygon:
    """Vertex form of a bounded, full-dimensional planar halfplane intersection.

    Sort and sweep (de Berg et al., Computational Geometry, 3rd ed.,
    sections 4.2 and 8.2), O(m log m) for m rows, every predicate exact:

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
        than 3 surviving rows, or lower-dimensional surviving vertices
        raise Empty.

    Every input row either supports an edge of the result or is redundant.
    """
    planar = h.planar_rows()
    for n, c in planar:
        if n.is_zero() and c < 0:
            raise Empty("contradictory trivial row")
    rows = sorted(((n, c) for n, c in planar if not n.is_zero()),
                  key=cmp_to_key(lambda r, s: _angle_cmp(r[0], s[0])))
    if not rows:
        raise Unbounded("no constraints")

    dirs = []  # the most restrictive row per normal direction, by angle
    for n, c in rows:
        if dirs and _angle_cmp(dirs[-1][0], n) == 0:
            m, d = dirs[-1]
            if c * m.dot(m) < n.dot(m) * d:
                dirs[-1] = (n, c)
        else:
            dirs.append((n, c))
    for (m, _), (n, _) in zip(dirs[-1:] + dirs[:-1], dirs):
        if m.cross(n) <= 0:
            raise Unbounded(f"recession direction {m.perp()}")

    lines = deque()  # rows of the current boundary chain, by angle
    corners = deque()  # corners[i] is the vertex of lines[i] and lines[i + 1]
    for n, c in dirs:
        while corners and n.dot(corners[-1]) >= c:
            lines.pop()
            corners.pop()
        while corners and n.dot(corners[0]) >= c:
            lines.popleft()
            corners.popleft()
        if lines:
            m, d = lines[-1]
            if m.cross(n) <= 0:
                raise Empty("intersection is empty")
            corners.append(_line_intersection(m, d, n, c))
        lines.append((n, c))
    while len(lines) > 2 and lines[0][0].dot(corners[-1]) >= lines[0][1]:
        lines.pop()
        corners.pop()
    while len(lines) > 2 and lines[-1][0].dot(corners[0]) >= lines[-1][1]:
        lines.popleft()
        corners.popleft()
    (m, d), (n, c) = lines[-1], lines[0]
    if len(lines) < 3 or m.cross(n) <= 0:
        raise Empty("intersection is empty or lower-dimensional")
    corners.append(_line_intersection(m, d, n, c))
    try:
        return convex_hull(corners)
    except DegenerateInput:
        raise Empty("intersection is lower-dimensional") from None


def _clip_points(p: VPolygon, a: Vec2, c) -> tuple:
    """(out, L): the boundary points of p ∩ {x : <a, x> <= c} in CCW order
    over the integer form of p, each as (x, y, d), the point (x, y)/(d L).

    With a and c scaled to integers (A, B) and C, the sign of
    s_i = A X_i + B Y_i - C L is that of <a, v_i> - c.  The vertices with
    s_i <= 0 are kept and each strict sign change along the edge (U, W)
    adds the crossing (s_u W - s_w U)/(s_u - s_w).
    """
    pts, L = integer_form(p)
    (A, B, C), _ = _over_lcm((a.x, a.y, rat(c)))
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
    out, L = _clip_points(p, a, c)
    # A line meets a strictly convex boundary in at most two points or one
    # edge, and a crossing lies strictly inside its edge, so 3 or more kept
    # points include one strictly inside the halfplane and are strictly
    # convex, in CCW boundary order.
    if len(out) < 3:
        return None
    return VPolygon([Vec2(Fraction(x, d * L), Fraction(y, d * L)) for x, y, d in out],
                    _trusted=True)


def cut_area(p: VPolygon, a: Vec2, c) -> Fraction:
    """Area of p ∩ {x : <a, x> <= c}, equal to area(clip_halfplane(p, a, c))
    and 0 where that clip is None, without building the clip.

    The cross products of consecutive points of `_clip_points` are summed
    over the product D of their denominators d, and the one Fraction built
    is that sum over 2 L^2 D.
    """
    out, L = _clip_points(p, a, c)
    if len(out) < 3:
        return Fraction(0)
    D = math.prod(d for _, _, d in out)
    total = 0
    for (x0, y0, d0), (x1, y1, d1) in zip(out, out[1:] + out[:1]):
        total += (x0 * y1 - x1 * y0) * (D // (d0 * d1))
    return Fraction(total, 2 * L * L * D)
