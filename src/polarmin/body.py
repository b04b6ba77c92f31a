"""Convex-body functionals: support, gauge, polar duality, central symmetral.

A Body wraps a planar VPolygon or stays symbolic in higher dimensions, where
only closed-form data is available.  Every derived quantity has one
linear-time, hull-free code path and is computed at most once per body:

  * the polar's vertices are read off the integer edges of K (the edge
    <n, x> = c dualizes to the vertex w = n/c), and its polar is a body on
    K's polygon; `gauge_rows` is the polar's integer form, rows (a, b) = D * w
    over their common denominator D, built on first use, so gauges and the
    minima are integer work;
  * the area, which the checks ask of the same body several times;
  * whether the origin is interior, which the polar, the search and the
    checks all ask;
  * the central symmetral is the Minkowski sum (K + (-K))/2, built by
    merging the two angle-sorted integer edge sequences of K's integer form;
    an origin-symmetric body is its own symmetral, so its polar and minima
    are certified once;
  * successive minima are stored on the body by `minima.successive_minima`;
  * the centroid translate is built once, on the integer form, and shares
    the body's symmetral, since cs(K + v) = cs(K).

The memos live in the body's slots and are freed with it.  A translate, a
scale and an affine image are one integer map of K's integer form,
`core.affine_poly`, with no hull, and are born with their integer form.
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
    each memo (area, interior origin, polar, symmetral, minima certificate,
    centroid translate) is populated at most once, so concurrent readers
    always observe a single consistent value.  No memo refers back to its
    body, so reference counting, not the cycle collector, frees a body and
    its memos: a body that is its own symmetral (K = -K) or its own centroid
    translate (centroid 0) records that as False.
    """

    __slots__ = ("dim", "family", "_poly", "_hrep", "_volume", "_origin_open",
                 "_polar", "_symmetral", "_minima", "_centered")

    def __init__(self, poly: VPolygon | None = None, hrep: HPolytope | None = None,
                 family=None, dim: int = 2):
        self._poly = poly
        self._hrep = hrep
        self.family = family
        self.dim = dim
        self._volume = None
        self._origin_open = None
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


def _dual_edges(K: Body) -> list:
    """(u_i, v_i, C_i) per edge of K over its integer form: the edge dualizes
    to the polar's vertex (u_i, v_i)/C_i = L (Y_{i+1} - Y_i, X_i - X_{i+1})/C_i."""
    pts, L = core.integer_form(K.polygon)
    return [(L * (y1 - y0), L * (x0 - x1), c)
            for (x0, y0), (x1, y1), c in zip(pts, pts[1:] + pts[:1], core._cross_terms(pts))]


def gauge_rows(K) -> tuple:
    """(rows, D): polar(K)'s integer form, its vertices w_i as rows (a_i, b_i)
    = D * w_i over their lcm D, in CCW order, built on first use."""
    return core.integer_form(polar(as_body(K)).polygon)


_ZERO = Fraction(0)


def gauge(K, x: Vec2) -> Fraction:
    """Minkowski functional ||x||_K = min{t >= 0 : x in tK}.

    Equals the support function of the polar body, max <x, w_i> over the
    vertices w_i of K°.  Writing x = (P, Q)/L in lowest terms, that
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

    The vertices of K° are the points n/c, one per edge {<n, x> = c} of K,
    read off K's integer form by `_dual_edges`, already counterclockwise, so the
    polar costs O(m) and no hull or halfplane work.  Its integer form, whose
    denominator can have m times the digits of K's, waits for its first
    reader (`gauge_rows`, an area).  K°'s own polar is a new body around K's
    polygon, with no link back to K."""
    K = as_body(K)
    if K._polar is None:
        if not K.contains_origin("open"):
            raise OriginNotInterior("gauge/polar need the origin strictly inside")
        K._polar = Body(poly=VPolygon([Vec2(Fraction(u, c), Fraction(v, c))
                                       for u, v, c in _dual_edges(K)], _trusted=True))
        K._polar._polar = Body(poly=K.polygon)
        K._polar._polar._origin_open = True
    return K._polar


def central_symmetral(K) -> Body:
    """cs(K) = (K + (-K))/2, the Minkowski sum of K and its reflection.

    Both edge sequences are walked from their lowest-then-leftmost vertex,
    where the edge angles start in [0, pi) and increase within [0, 2 pi),
    and are merged by angle in O(n) (de Berg et al., Computational
    Geometry, section 13.3), as integer edges of K's integer form; each output
    vertex is (P_i - P_j)/(2 L) for the current vertex P_i of K and -P_j of
    -K.  Edges of equal direction are taken in one step, so it is strictly convex.
    An origin-symmetric K is its own symmetral and is returned as is
    (memoized as False, not as a self-reference).
    """
    K = as_body(K)
    if K._symmetral is None and is_symmetric(K):
        K._symmetral = False
    elif K._symmetral is None:
        pts, L = core.integer_form(K.polygon)
        n = len(pts)
        edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])]
        back = [(-x, -y) for x, y in edges]
        # -K starts at the reflection of K's highest-then-rightmost vertex;
        # its edge after -P_j is -e_j.
        i = min(range(n), key=lambda k: (pts[k][1], pts[k][0]))
        j = max(range(n), key=lambda k: (pts[k][1], pts[k][0]))
        out = []
        left_i = left_j = n
        while left_i or left_j:
            # a finished sequence gives way to the other
            order = core._angle_cmp(edges[i], back[j]) if left_i and left_j else left_j - left_i
            if order <= 0:
                i = (i + 1) % n
                left_i -= 1
            if order >= 0:
                j = (j + 1) % n
                left_j -= 1
            out.append((pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]))
        K._symmetral = Body(poly=core._from_integer(out, 2 * L))
    return K._symmetral or K


def is_symmetric(K) -> bool:
    """True iff K = -K exactly.  Reflection keeps the counterclockwise order
    and fixes no vertex, so it maps the i-th point of the integer form to the
    (i + n/2)-th: n is even and each point is the negative of that one."""
    pts, _ = core.integer_form(as_body(K).polygon)
    h = len(pts) // 2
    return 2 * h == len(pts) and all(x == -u and y == -v for (x, y), (u, v) in zip(pts, pts[h:]))


def translate(K, v: Vec2) -> Body:
    return Body(poly=core.affine_poly(as_body(K).polygon, ((1, 0), (0, 1)), v))


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
    r = rat(r)
    if r <= 0:
        raise ValueError("scale factor must be positive")
    return Body(poly=core.affine_poly(as_body(K).polygon, ((r, 0), (0, r)), core.ORIGIN))


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
    """Image T(K), `core.affine_poly` of K's polygon with no hull; the area
    scales by |det T|."""
    if T.det == 0:
        raise SingularTransform("determinant is zero")
    return Body(poly=core.affine_poly(as_body(K).polygon, T.m, T.translation))


def gauge_cs_identity(K, x: Vec2):
    """Evaluate ||x|| in cs(K)° two ways; the two values are always equal.

    Returns (gauge(cs(K)°, x), (gauge(K°, x) + gauge(K°, -x)) / 2).
    """
    K = as_body(K)
    left = gauge(polar(central_symmetral(K)), x)
    right = (gauge(polar(K), x) + gauge(polar(K), -x)) / 2
    return left, right
