"""Certified successive minima of planar bodies with respect to Z².

The enumeration is made complete by the bound gauge(z) >= |z_j| / extent_j,
where extent_j is the body's maximal |x_j|: every lattice point outside the
searched box therefore has gauge strictly above the certified radius.

The minima are invariant under unimodular maps, so the box is walked in
coordinates where it is small.  Z² is first reduced for the body by the
generalized Gauss algorithm, with the integer polar rows of `gauge_rows`
as the norm; the reduced basis B keeps the box of B⁻¹K within a
multiple of lambda_2/lambda_1 on every shear, and what that walk finds is
mapped back by B before it is sorted.  The radius and extents reported
are those of the body's own box, whose completeness statement holds
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .body import Body, as_body, apply_transform, centered, \
    central_symmetral, gauge, gauge_rows, is_symmetric, polar, scale, \
    support, Transform2
from .core import E1, E2, Vec2, rat_str, vec
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
    that produced the witnesses was complete.  `short_vectors` keeps what
    that enumeration found: every (z, gauge(z)) with gauge(z) <= lambda_2,
    in witness_key order, so later consumers filter it instead of walking
    the lattice again.

    The box is a statement about the body in its own coordinates and holds
    as stated; the enumeration itself ran over the unimodular image B⁻¹K,
    where B, kept as `basis` (its columns b1, b2), is a Gauss-reduced basis
    of Z² for the body, or (e1, e2) when the standard basis already is one.
    Every coordinate above is in the original lattice basis; `to_json`
    leaves `basis` out.
    """

    lambdas: tuple  # (lambda_1, lambda_2), nondecreasing
    witnesses: tuple  # integral Vec2, linearly independent
    search_radius: Fraction
    extents: tuple  # per-coordinate max |x_j| over the body
    short_vectors: tuple  # ((z, gauge), ...) with gauge <= lambda_2
    basis: tuple  # (b1, b2), integral Vec2 columns of B, det = +-1

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


def _extents(K: Body):
    vs = K.polygon.vertices
    return max(abs(v.x) for v in vs), max(abs(v.y) for v in vs)


def _box_points(radius: Fraction, extents, cap):
    """Lattice points of the certificate box in square rings of increasing
    side, skipping points whose gauge lower bound max(|z_j|/extent_j)
    already exceeds cap()."""
    m1 = math.floor(radius * extents[0])
    m2 = math.floor(radius * extents[1])
    for ring in range(1, max(m1, m2) + 1):
        if ring > cap() * max(extents):
            return  # every later point has gauge above the cap
        for p in range(-min(ring, m1), min(ring, m1) + 1):
            for q in range(-min(ring, m2), min(ring, m2) + 1):
                if max(abs(p), abs(q)) != ring:
                    continue
                if abs(p) > cap() * extents[0] or abs(q) > cap() * extents[1]:
                    continue
                yield vec(p, q)


def _primitive_direction(z: Vec2):
    g = math.gcd(int(z.x), int(z.y))
    p, q = int(z.x) // g, int(z.y) // g
    return (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)


def successive_minima(K) -> MinimaCert:
    """Exact lambda_1 <= lambda_2 with witnesses, deterministic tie-breaking.

    The search radius is the best candidate bound on lambda_2: among the
    pairwise independent directions e1, e2, (1,1), (1,-1) the second
    smallest sign-minimized gauge dominates lambda_2, and those two points
    lie in the box.  The box itself is enumerated in reduced coordinates:
    Z² is Gauss-reduced for the norm max(gauge(z), gauge(-z)) to a basis B,
    and the unimodular image B⁻¹K, whose gauge at y is the gauge of K at By,
    has a certificate box bounded by lambda_2/lambda_1 however K is
    sheared.  One pass enumerates that box in growing square rings and
    prunes with the running lambda_2 upper bound, the larger gauge of the
    two cheapest points on distinct lines.  That bound never drops below
    lambda_2, so every lattice point of gauge <= lambda_2 is visited; mapped
    back by B, they are kept, in witness_key order, as the certificate's
    short vectors.

    The certificate is stored on the body and returned by every later call,
    so each body is enumerated at most once.
    """
    K = as_body(K)
    if K._minima is None:
        K._minima = _certify(K)
    return K._minima


_SEED_DIRS = (E1, E2, vec(1, 1), vec(1, -1))


def _seed_gauges(K: Body):
    """(gauge(u), gauge(-u)) for each seed direction u, in _SEED_DIRS order."""
    return [(gauge(K, u), gauge(K, -u)) for u in _SEED_DIRS]


def _radius(seeds):
    return sorted(min(pair) for pair in seeds)[1]


def _enumerate(K: Body, radius: Fraction, ext):
    """Every lattice z of the certificate box with gauge(z) <= radius, as
    (z, gauge) pairs; points pruned by the running lambda_2 bound have
    gauge above lambda_2."""
    bound = radius
    best = {}  # primitive direction -> smallest gauge on that line
    found = []
    for z in _box_points(radius, ext, lambda: bound):
        g = gauge(K, z)
        if g > radius:
            continue
        found.append((z, g))
        d = _primitive_direction(z)
        if g < best.get(d, g + 1):
            best[d] = g
            if len(best) >= 2:
                bound = min(bound, sorted(best.values())[1])
    return found


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


def _unimodular_image(K: Body, b1, b2) -> Body:
    """B⁻¹K for the unimodular B with columns b1, b2, built by
    `apply_transform`; its gauge at y is the gauge of K at By.  The image's
    integer gauge rows are K's rows (a, b) mapped by Bᵀ, over the same D
    (B is unimodular), and its origin is interior since K's is."""
    det = b1[0] * b2[1] - b2[0] * b1[1]  # +-1, its own inverse
    inverse = Transform2.linear(det * b2[1], -det * b2[0], -det * b1[1], det * b1[0])
    rows, D = gauge_rows(K)
    image = apply_transform(inverse, K)
    image._gauge_rows = (tuple((a * b1[0] + b * b1[1], a * b2[0] + b * b2[1])
                               for a, b in rows), D)
    image._origin_open = True
    return image


def _certify(K: Body) -> MinimaCert:
    ext = _extents(K)
    seeds = _seed_gauges(K)
    radius = _radius(seeds)
    n1, n2, n11, n1m = (max(pair) for pair in seeds)
    if max(n1, n2) <= min(n11, n1m):
        basis = (E1, E2)  # the standard basis is already reduced
        found = _enumerate(K, radius, ext)
    else:
        b1, b2 = _gauss_reduce(gauge_rows(K)[0])
        basis = (vec(*b1), vec(*b2))
        Kr = _unimodular_image(K, b1, b2)
        (a, b), (c, d) = b1, b2
        found = []
        for y, g in _enumerate(Kr, _radius(_seed_gauges(Kr)), _extents(Kr)):
            p, q = y.x.numerator, y.y.numerator
            found.append((vec(a * p + c * q, b * p + d * q), g))
    entries = sorted((witness_key(z, g), z, g) for z, g in found)
    if entries:
        _, w1, l1 = entries[0]
        for _, z, l2 in entries[1:]:
            if w1.cross(z) != 0:
                short = tuple((v, g) for _, v, g in entries if g <= l2)
                return MinimaCert((l1, l2), (w1, z), radius, ext, short, basis)
    raise InternalInvariantViolation("certificate box holds no independent pair")


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
    # the canonical rotation (least vertex first) is translation invariant,
    # so the first vertices differ by exactly the centroid
    c = K.polygon.vertices[0] - K0.polygon.vertices[0]
    if not K0.contains_origin("open"):
        raise OriginNotInterior("centroid translation did not give interior origin")
    dual = polar(central_symmetral(K0))
    basis = minima_basis(dual)
    l1, l2 = successive_minima(dual).lambdas
    U = Transform2(((basis.z1.x, basis.z1.y), (basis.z2.x, basis.z2.y)),
                   translation=vec(0, 0))
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
    boundary of K°, i.e. divides by the K°-gauge.  Raises NotNormalized
    unless lambda_2 = 1 is attained at e2 and lambda_1 at e1.
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
    c = tuple(z * (1 / support(K, z)) for z in c0)
    return c0, c
