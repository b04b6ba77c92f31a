"""Convex-body functionals: support, gauge, polar duality, central symmetral.

A Body wraps a planar VPolygon or stays symbolic in higher dimensions, where
only closed-form data is available.  Every derived quantity has one
linear-time, hull-free code path and is computed at most once per body:

  * the polar's vertices are read off the edges of K (the edge <n, x> = c
    dualizes to the vertex w = n/c), and K°'s are K's vertices; polar reads
    them as points, gauge as integer rows (a, b) = D * w over their common
    denominator D, built on first use by a gauge or the minima walk, so a
    gauge is integer multiply-adds and a polar alone never pays for D;
  * the area, which the checks ask of the same body several times;
  * whether the origin is interior, which the polar, the search and the
    checks all ask;
  * the central symmetral is the Minkowski sum (K + (-K))/2, built by
    merging the two angle-sorted integer edge sequences of K's integer form;
  * successive minima are stored on the body by `minima.successive_minima`;
  * the centroid translate is built once, on the integer form, and shares
    the body's symmetral, since cs(K + v) = cs(K).

The memos live in the body's slots and are freed with it.  An affine image
is the mapped vertex list, with no hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import HPolytope, Vec2, VPolygon, rat
from .errors import OriginNotInterior, SingularTransform


class Body:
    """Convex body: a planar polygon, an H-polytope, or a family instance.

    `family` keeps provenance as (name, params dict) when the body was built
    by a family constructor.  All values are immutable after construction;
    each memo (area, interior origin, polar directions and their integer
    rows, polar, symmetral, minima certificate, centroid translate) is
    populated at most once, so concurrent readers always observe a single
    consistent value.  No memo refers back to its body, so reference
    counting, not the cycle collector, frees a body and its memos.
    """

    __slots__ = ("dim", "family", "_poly", "_hrep", "_volume", "_origin_open",
                 "_polar_dirs", "_gauge_rows", "_polar", "_symmetral",
                 "_minima", "_centered")

    def __init__(self, poly: VPolygon | None = None, hrep: HPolytope | None = None,
                 family=None, dim: int = 2):
        self._poly = poly
        self._hrep = hrep
        self.family = family
        self.dim = dim
        self._volume = None
        self._origin_open = None
        self._polar_dirs = None
        self._gauge_rows = None
        self._polar = None
        self._symmetral = None
        self._minima = None
        self._centered = None
        if poly is None and hrep is not None and hrep.dim == 2:
            self._poly = core.halfplane_intersect(hrep)

    @staticmethod
    def from_polygon(p: VPolygon) -> "Body":
        return Body(poly=p)

    @staticmethod
    def from_points(points) -> "Body":
        return Body(poly=core.convex_hull(points))

    @staticmethod
    def from_halfplanes(h: HPolytope) -> "Body":
        return Body(hrep=h, dim=h.dim)

    @property
    def polygon(self) -> VPolygon:
        if self._poly is None:
            raise ValueError(f"body of dimension {self.dim} has no planar polygon")
        return self._poly

    @property
    def is_planar(self) -> bool:
        return self._poly is not None

    def volume(self) -> Fraction:
        """The area; memoized."""
        if self._volume is None:
            self._volume = core.area(self.polygon)
        return self._volume

    def contains_origin(self, mode: str = "open") -> bool:
        """Whether the origin lies in the body; the open test is memoized."""
        if mode != "open":
            return core.contains(self.polygon, core.ORIGIN, mode)
        if self._origin_open is None:
            self._origin_open = core.contains(self.polygon, core.ORIGIN, mode)
        return self._origin_open

    def _key(self):
        """The polygon when planar; otherwise (dim, family, H-representation),
        with the family parameters in a hashable, order-free form."""
        if self._poly is not None:
            return self._poly
        family = None
        if self.family is not None:
            name, params = self.family
            family = (name, tuple(sorted(params.items())))
        return (self.dim, family, self._hrep)

    def __eq__(self, other):
        return isinstance(other, Body) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self._poly is not None:
            return f"Body({self._poly!r})"
        return f"Body(dim={self.dim}, family={self.family})"


def as_body(K) -> Body:
    if isinstance(K, Body):
        return K
    if isinstance(K, VPolygon):
        return Body.from_polygon(K)
    if isinstance(K, HPolytope):
        return Body.from_halfplanes(K)
    raise TypeError(f"cannot interpret {type(K).__name__} as a Body")


def support(K, u: Vec2) -> Fraction:
    """h_K(u): exact maximum of <u, x> over K (max over vertices)."""
    K = as_body(K)
    return max(u.dot(v) for v in K.polygon.vertices)


def _polar_dirs(K: Body) -> tuple:
    # Vertices of the polar body, one per edge of K, in edge order but
    # without hull work: the edge {<n,x> = c} of K dualizes to the point n/c.
    # Over the integer form, n = (Y_{i+1} - Y_i, X_i - X_{i+1})/L and
    # c = C_i/L^2, so n/c = L (Y_{i+1} - Y_i, X_i - X_{i+1})/C_i.
    if K._polar_dirs is None:
        if not K.contains_origin("open"):
            raise OriginNotInterior("gauge/polar need the origin strictly inside")
        pts, L = core.integer_form(K.polygon)
        K._polar_dirs = tuple(
            Vec2(Fraction(L * (y1 - y0), c), Fraction(L * (x0 - x1), c))
            for (x0, y0), (x1, y1), c in zip(pts, pts[1:] + pts[:1], core._cross_terms(pts)))
    return K._polar_dirs


def gauge_rows(K) -> tuple:
    """(rows, D): the polar directions w_i of K as integer rows
    (a_i, b_i) = D * w_i, D the least common denominator; built on the
    first call, by a gauge or the minima walk, and memoized."""
    K = as_body(K)
    if K._gauge_rows is None:
        dirs = _polar_dirs(K)
        D = math.lcm(*(c.denominator for w in dirs for c in (w.x, w.y)))
        K._gauge_rows = (tuple((w.x.numerator * (D // w.x.denominator),
                                w.y.numerator * (D // w.y.denominator))
                               for w in dirs), D)
    return K._gauge_rows


_ZERO = Fraction(0)


def gauge(K, x: Vec2) -> Fraction:
    """Minkowski functional ||x||_K = min{t >= 0 : x in tK}.

    Equals the support function of the polar body, max <x, w_i> over the
    memoized polar directions.  Writing x = (P, Q)/L in lowest terms, that
    is max(a_i P + b_i Q)/(D L) over the integer rows of `gauge_rows`, so a
    call does integer multiply-adds and builds one Fraction.
    """
    rows, D = gauge_rows(K)
    px, py = x.x, x.y
    L = math.lcm(px.denominator, py.denominator)
    P = px.numerator * (L // px.denominator)
    Q = py.numerator * (L // py.denominator)
    g = max(a * P + b * Q for a, b in rows)
    return Fraction(g, D * L) if g > 0 else _ZERO


def polar(K) -> Body:
    """K° = {y : <x, y> <= 1 for all x in K}, memoized on K.

    The vertices of K° are the memoized polar directions n/c, one per edge
    {<n, x> = c} of K and already in counterclockwise order, so the polar
    costs O(m) and no hull or halfplane work.  K° is handed K's vertices as
    its own polar directions but no link back to K, so polar(polar(K)) is a
    fresh body equal to K, built in O(m) from those directions.
    """
    K = as_body(K)
    if K._polar is None:
        dual = Body(poly=VPolygon(_polar_dirs(K), _trusted=True))
        dual._polar_dirs = K.polygon.vertices
        K._polar = dual
    return K._polar


def central_symmetral(K) -> Body:
    """cs(K) = (K + (-K))/2, the Minkowski sum of K and its reflection.

    Both edge sequences are walked from their lowest-then-leftmost vertex,
    where the edge angles start in [0, pi) and increase within [0, 2 pi),
    and are merged by angle in O(n) (de Berg et al., Computational
    Geometry, section 13.3), as integer edges of K's integer form; each output
    vertex is (P_i - P_j)/(2 L) for the current vertex P_i of K and -P_j of
    -K.  Edges of equal direction are taken in one step, so it is strictly convex.
    """
    K = as_body(K)
    if K._symmetral is None:
        pts, L = core.integer_form(K.polygon)
        n = len(pts)
        edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])]
        halves = [(y, x) <= (0, 0) for x, y in edges]  # core.angle_half
        # -K starts at the reflection of K's highest-then-rightmost vertex;
        # its edge after -P_j is -e_j, which lies in the other half.
        i = min(range(n), key=lambda k: (pts[k][1], pts[k][0]))
        j = max(range(n), key=lambda k: (pts[k][1], pts[k][0]))
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
                c = core._turn((0, 0), edges[j], edges[i])  # cross(e_i, -e_j)
                order = (c < 0) - (c > 0)
            if order <= 0:
                i = (i + 1) % n
                left_i -= 1
            if order >= 0:
                j = (j + 1) % n
                left_j -= 1
            out.append((pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]))
        K._symmetral = Body(poly=core._from_integer(out, 2 * L))
    return K._symmetral


def is_symmetric(K) -> bool:
    """True iff K = -K exactly."""
    vs = as_body(K).polygon.vertex_set()
    return vs == frozenset(-v for v in vs)


def translate(K, v: Vec2) -> Body:
    return Body(poly=core.translate_poly(as_body(K).polygon, v))


def centered(K) -> Body:
    """K translated by minus its centroid, memoized; K itself when its
    centroid is already 0 (memoized as False, not as a self-reference).  The
    translate is handed K's central symmetral, which is exactly its own since
    cs(K + v) = cs(K), and with it every memo of the symmetral (polar, minima)."""
    K = as_body(K)
    if K._centered is None:
        c = core.centroid(K.polygon)
        if c.is_zero():
            K._centered = False
        else:
            Kc = translate(K, -c)
            Kc._symmetral = central_symmetral(K)
            K._centered = Kc
    return K._centered or K


def scale(K, r) -> Body:
    return Body(poly=core.scale_poly(as_body(K).polygon, r))


@dataclass(frozen=True)
class Transform2:
    """Invertible affine map x -> M x + translation on R^2.

    `unimodular` is true iff M is integral with determinant +-1; such maps
    preserve the integer lattice and hence every lattice-defined quantity.
    """

    m: tuple  # ((a, b), (c, d)) row-major
    translation: Vec2 = core.ORIGIN

    @staticmethod
    def linear(a, b, c, d, translation: Vec2 = core.ORIGIN) -> "Transform2":
        return Transform2(((rat(a), rat(b)), (rat(c), rat(d))), translation)

    @staticmethod
    def identity() -> "Transform2":
        return Transform2.linear(1, 0, 0, 1)

    @property
    def det(self) -> Fraction:
        (a, b), (c, d) = self.m
        return a * d - b * c

    @property
    def unimodular(self) -> bool:
        entries = [e for row in self.m for e in row]
        return all(e.denominator == 1 for e in entries) and abs(self.det) == 1

    def apply_vec(self, v: Vec2) -> Vec2:
        (a, b), (c, d) = self.m
        return Vec2(a * v.x + b * v.y, c * v.x + d * v.y) + self.translation

    def transpose_linear(self, v: Vec2) -> Vec2:
        """M^T v (no translation); what polar quantities transform by."""
        (a, b), (c, d) = self.m
        return Vec2(a * v.x + c * v.y, b * v.x + d * v.y)


def apply_transform(T: Transform2, K) -> Body:
    """Image T(K), the mapped vertex list with no hull, reversed when
    det T < 0 to stay counterclockwise; the area scales by |det T|."""
    if T.det == 0:
        raise SingularTransform("determinant is zero")
    vs = [T.apply_vec(v) for v in as_body(K).polygon.vertices]
    return Body(poly=VPolygon(vs if T.det > 0 else vs[::-1], _trusted=True))


def gauge_cs_identity(K, x: Vec2):
    """Evaluate ||x|| in cs(K)° two ways; the two values are always equal.

    Returns (gauge(cs(K)°, x), (gauge(K°, x) + gauge(K°, -x)) / 2).
    """
    K = as_body(K)
    left = gauge(polar(central_symmetral(K)), x)
    right = (gauge(polar(K), x) + gauge(polar(K), -x)) / 2
    return left, right
