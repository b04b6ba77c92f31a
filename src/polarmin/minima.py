"""Certified successive minima of planar bodies with respect to Z².

The enumeration is made complete by the bound gauge(z) >= |z_j| / extent_j,
where extent_j is the body's maximal |x_j|, read off the integer rows of its
polar: every lattice point outside the searched box therefore has gauge
strictly above the certified radius.

The minima are invariant under unimodular maps, so the lattice is walked in
the coordinates y of z = By for a basis B of Z² reduced for the body by the
generalized Gauss algorithm, with the integer polar rows (a, b) of
`gauge_rows` as the norm; there the box, set by the extents of B⁻¹K, stays
within a multiple of lambda_2/lambda_1 on every shear.  The walk compares
integer gauge numerators over the rows mapped by Bᵀ, builds no image body,
and maps back by B only the short vectors it keeps.  The radius and extents
reported are those of the body's own box, whose completeness statement
holds unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .body import Body, as_body, apply_transform, centered, \
    central_symmetral, gauge, gauge_rows, is_symmetric, polar, scale, Transform2
from .core import E1, E2, Vec2, centroid, integer_form, rat_str, vec
from .errors import InternalInvariantViolation, NotNormalized, OriginNotInterior


def witness_key(z: Vec2, g: Fraction):
    """Deterministic ordering of equal-gauge lattice points.

    Axis points sort before skew points and e1 before e2, matching the
    regression-test witness order; positive representatives win ties.
    """
    return (g, abs(z.y), abs(z.x), -z.x, -z.y)


@dataclass(frozen=True)
class MinimaCert:
    """Successive minima with witnesses and an enumeration certificate.

    Every integral z outside the box |z_j| <= search_radius * extents[j]
    satisfies gauge(z) > search_radius >= lambdas[-1], so the enumeration
    that produced the witnesses was complete.  It keeps the walk's integer
    points of gauge <= lambda_2; `short_vectors`, built on first read, lists
    them as (z, gauge(z)) in witness_key order, so later consumers filter
    it instead of walking the lattice again.

    The box is a statement about the body in its own coordinates and holds
    as stated; the enumeration itself walked the coefficients y of z = By,
    where B, kept as `basis` (its columns b1, b2), is a Gauss-reduced basis
    of Z² for the body, or (e1, e2) when the standard basis already is one.
    Every coordinate above is in the original lattice basis; `to_json`
    leaves `basis` out.
    """

    lambdas: tuple  # (lambda_1, lambda_2), nondecreasing
    witnesses: tuple  # integral Vec2, linearly independent
    search_radius: Fraction
    extents: tuple  # per-coordinate max |x_j| over the body
    basis: tuple  # (b1, b2), integral Vec2 columns of B, det = +-1
    _short: tuple = field(repr=False)  # (kept, D), see _certify

    @cached_property
    def short_vectors(self) -> tuple:
        kept, D = self._short
        return tuple((Vec2(Fraction(-x), Fraction(-y)), Fraction(N, D))
                     for N, _, _, x, y in sorted(kept))

    def to_json(self) -> dict:
        return {
            "lambda": [rat_str(l) for l in self.lambdas],
            "witnesses": [[int(w.x), int(w.y)] for w in self.witnesses],
            "radius": rat_str(self.search_radius),
            "extents": [rat_str(e) for e in self.extents],
        }


@dataclass(frozen=True)
class MinimaBasis:
    """Basis of Z² attaining both minima: gauge(z_i) = lambda_i, |det| = 1."""

    z1: Vec2
    z2: Vec2


def successive_minima(K) -> MinimaCert:
    """Exact lambda_1 <= lambda_2 with witnesses, deterministic tie-breaking.

    The search radius is the best candidate bound on lambda_2: among the
    pairwise independent directions e1, e2, (1,1), (1,-1) the second
    smallest sign-minimized gauge dominates lambda_2, and those two points
    lie in the box.  One integer walk visits the box in the coordinates of
    a basis B of Z², Gauss-reduced for the norm max(gauge(z), gauge(-z)),
    in growing square rings pruned by a running bound that never drops
    below lambda_2; every lattice point of gauge <= lambda_2 is visited and
    kept as integers, mapped back by B, and two linear min passes over them
    give both minima with their witnesses, with no sort.

    The certificate is stored on the body and returned by every later call,
    so each body is enumerated at most once.
    """
    K = as_body(K)
    if K._minima is None:
        K._minima = _certify(K)
    return K._minima


_SEED_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1))


def _seeds(rows):
    """(N(u), N(-u)) for each seed direction u, in _SEED_DIRS order, with
    N(z) = max_i (a_i z_1 + b_i z_2) the gauge numerator over the rows."""
    values = ([a * p + b * q for a, b in rows] for p, q in _SEED_DIRS)
    return [(max(v), -min(v)) for v in values]


def _radius(seeds):
    return sorted(min(pair) for pair in seeds)[1]


def _ring(r, P, Q):
    """The lattice points (p, q) with max(|p|, |q|) = r, |p| <= P, |q| <= Q."""
    if r <= Q:
        for p in range(-min(r, P), min(r, P) + 1):
            yield p, r
            yield p, -r
    if r <= P:
        for q in range(-min(r - 1, Q), min(r - 1, Q) + 1):
            yield r, q
            yield -r, q


def _walk(rows, D, ext, radius):
    """(found, l2): the lattice points y of the box |y_j| <= radius/D * ext_j
    as (N, p, q), N = max_i (a_i p + b_i q) the numerator of gauge N/D, and
    the numerator l2 of lambda_2.  The box is walked in square rings of
    growing r, each cut to the box of the running bound: the larger
    numerator of the cheapest point and of the cheapest point off its line.
    The bound never drops below lambda_2, so every point of gauge <=
    lambda_2 is found, and once the walk ends it is lambda_2."""
    (n1, d1), (n2, d2) = ((e.numerator, D * e.denominator) for e in ext)
    bound = radius
    best = (radius + 1, 0, 0)  # the cheapest point found; a sentinel at first
    found = []
    r = 1
    while True:
        P, Q = bound * n1 // d1, bound * n2 // d2
        if r > max(P, Q):
            return found, bound  # every later point has gauge above the bound
        for p, q in _ring(r, P, Q):
            N = max(a * p + b * q for a, b in rows)
            if N > bound:
                continue
            found.append((N, p, q))
            N1, p1, q1 = best
            if p1 * q != q1 * p:  # off the line of the cheapest point
                bound = max(N, N1)
            if N < N1:
                best = (N, p, q)
        r += 1


def _reduce_step(rows, b1, b2):
    """(b2 - mu b1, N(b2 - mu b1)) for the integer mu minimizing the convex
    N(z) = max_i |a_i z_1 + b_i z_2|: the least-squares estimate of mu over
    the rows, then unit steps while N decreases."""
    r1 = [a * b1[0] + b * b1[1] for a, b in rows]
    r2 = [a * b2[0] + b * b2[1] for a, b in rows]
    den = sum(x * x for x in r1)
    mu = (2 * sum(x * y for x, y in zip(r1, r2)) + den) // (2 * den)

    def N(m):
        return max(abs(y - m * x) for x, y in zip(r1, r2))

    here = N(mu)
    step = 1 if N(mu + 1) < here else -1
    while N(mu + step) < here:
        mu += step
        here = N(mu)
    return (b2[0] - mu * b1[0], b2[1] - mu * b1[1]), here


def _gauss_reduce(rows):
    """Generalized Gauss reduction of Z² (Kaib and Schnorr, J. Algorithms
    21, 1996) for the norm N(z) = max_i |a_i z_1 + b_i z_2|, which is D
    times max(gauge(z), gauge(-z)) on the integer rows of `gauge_rows`:
    columns b1, b2 of a unimodular B with N(b1) <= N(b2) <= N(b2 + mu b1)
    for every integer mu."""
    b1, b2 = (1, 0), (0, 1)
    n1 = max(abs(a) for a, _ in rows)
    while True:
        b2, n2 = _reduce_step(rows, b1, b2)
        if n2 >= n1:
            return b1, b2
        b1, b2, n1 = b2, b1, n2


def _extent(rows, D, p, q):
    """max |p x + q y| over the body, off the integer form (rows, D) of its
    polar: the support at w = ±(p, q) is the polar's gauge D <n, w>/C on the
    one edge {<n, y> = C/D}, from R_i to R_{i+1}, whose cone holds w."""
    (s, c), (t, d) = [((y1 - y0) * u + (x0 - x1) * v, x0 * y1 - x1 * y0)
                      for (x0, y0), (x1, y1) in zip(rows, rows[1:] + rows[:1])
                      for u, v in ((p, q), (-p, -q)) if x0 * v - y0 * u >= 0 > x1 * v - y1 * u]
    return Fraction(D * max(s * d, t * c), c * d)


def _certify(K: Body) -> MinimaCert:
    rows, D = gauge_rows(K)
    ext = _extent(rows, D, 1, 0), _extent(rows, D, 0, 1)
    seeds = _seeds(rows)
    radius = _radius(seeds)
    n1, n2, n11, n1m = (max(pair) for pair in seeds)
    if max(n1, n2) <= min(n11, n1m):
        b1, b2 = (1, 0), (0, 1)  # the standard basis is already reduced
        walk_rows, walk_ext, walk_radius = rows, ext, radius
    else:
        b1, b2 = _gauss_reduce(rows)
        # the gauge at By is max over the rows mapped by Bᵀ, and the box of
        # y = B⁻¹x, det B = +-1, is set by the extents of B⁻¹K
        walk_rows = tuple((a * b1[0] + b * b1[1], a * b2[0] + b * b2[1])
                          for a, b in rows)
        walk_ext = _extent(rows, D, b2[1], -b2[0]), _extent(rows, D, -b1[1], b1[0])
        walk_radius = _radius(_seeds(walk_rows))
    found, l2 = _walk(walk_rows, D, walk_ext, walk_radius)
    (a, b), (c, d) = b1, b2
    # z = (x, y) of gauge N/D as (N, |y|, |x|, -x, -y), in witness_key order
    kept = tuple((N, abs(y), abs(x), -x, -y) for N, p, q in found if N <= l2
                 for x, y in [(a * p + c * q, b * p + d * q)])
    k1 = min(kept)
    k2 = min((k for k in kept if k1[3] * k[4] != k1[4] * k[3]), default=None)
    if k2 is None:
        raise InternalInvariantViolation("certificate box holds no independent pair")
    (N1, _, _, x1, y1), (N2, _, _, x2, y2) = k1, k2
    return MinimaCert((Fraction(N1, D), Fraction(N2, D)), (vec(-x1, -y1), vec(-x2, -y2)),
                      Fraction(radius, D), ext, (vec(*b1), vec(*b2)), (kept, D))


def minima_basis(Ksym) -> MinimaBasis:
    """Basis of Z² attaining both minima of an origin-symmetric planar body.

    Scans all (lambda_1-attaining, lambda_2-attaining) pairs of the
    certificate's short vectors in witness_key order; in the plane such a
    unimodular pair always exists, so failure is an internal error rather
    than bad input.
    """
    K = as_body(Ksym)
    if not is_symmetric(K):
        raise ValueError("minima_basis requires an origin-symmetric body")
    cert = successive_minima(K)
    l1, l2 = cert.lambdas
    first = [z for z, g in cert.short_vectors if g == l1]
    second = [z for z, g in cert.short_vectors if g == l2]
    for z1 in first:
        for z2 in second:
            if abs(z1.cross(z2)) == 1:
                return MinimaBasis(z1, z2)
    raise InternalInvariantViolation("no unimodular minima pair found")


@dataclass(frozen=True)
class AtNormalForm:
    """Result of normalize_to_At: body = scale * T(K), plus the parameters."""

    body: Body
    t: Fraction
    transform: Transform2
    scale: Fraction


def normalize_to_At(K) -> AtNormalForm:
    """Unimodular+scaling normal form with the minima attained at e1, e2.

    K is first translated by minus its centroid (the centroid is always
    interior, and the symmetral-based minima are translation invariant), then
    mapped by the unimodular matrix whose rows are a minima basis of the
    symmetral's polar, and finally scaled so the second minimum equals 1.
    The volume bound verdicts of K and of the normal form agree, since both
    sides of the bound scale by scale².
    """
    K = as_body(K)
    K0 = centered(K)
    c = centroid(K.polygon)
    if not K0.contains_origin("open"):
        raise OriginNotInterior("centroid translation did not give interior origin")
    dual = polar(central_symmetral(K0))
    basis = minima_basis(dual)
    l1, l2 = successive_minima(dual).lambdas
    U = Transform2(((basis.z1.x, basis.z1.y), (basis.z2.x, basis.z2.y)))
    # fold the centroid shift into the returned transform: T(x) = U(x - c)
    T = Transform2(U.m, translation=-U.apply_vec(c))
    mu = 1 / l2
    normalized = scale(apply_transform(T, K), mu)
    t = l2 / l1
    check = polar(central_symmetral(normalized))
    if gauge(check, E1) != 1 / t or gauge(check, E2) != 1:
        raise InternalInvariantViolation("normal form does not attain minima at e1, e2")
    return AtNormalForm(normalized, t, T, mu)


def contact_set(K):
    """C0 and C of a body in A(t) position.

    C0 collects the lattice points at symmetral-polar gauge exactly 1, read
    off the minima certificate's short vectors (lambda_2 = 1, so the list
    holds all of them), plus +-e1; C radially projects each onto the
    boundary of K°, i.e. divides by the K°-gauge h_K(z) = S/L, with
    S = max_k (X_k m + Y_k n) over the integer form of K.  Raises
    NotNormalized unless lambda_2 = 1 is attained at e2 and lambda_1 at e1.
    """
    K = as_body(K)
    if not K.contains_origin("open"):
        raise OriginNotInterior("contact_set needs the origin inside K")
    dual = polar(central_symmetral(K))
    cert = successive_minima(dual)
    l1, l2 = cert.lambdas
    if l2 != 1 or gauge(dual, E2) != 1 or gauge(dual, E1) != l1:
        raise NotNormalized("body is not in A(t) position")
    pts = {z for z, g in cert.short_vectors if g == 1}
    pts.update((E1, -E1))
    c0 = tuple(sorted(pts, key=lambda z: (z.x, z.y)))
    ints, L = integer_form(K.polygon)
    return c0, tuple(z * Fraction(L, max(x * z.x.numerator + y * z.y.numerator
                                         for x, y in ints)) for z in c0)
