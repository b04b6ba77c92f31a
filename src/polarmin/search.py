"""Volume minimization over the normalized class A(t) by exact local moves.

A(t) is the set of planar bodies with interior origin whose symmetral-polar
minima are (1/t, 1), attained at e1 and e2.  The search state is the primal
polygon's vertex list; dual edges come from the memoized polar, and each
candidate reads its contact map off its minima certificate once.
Three moves are used, all solved exactly over a finite constraint set and
re-certified from scratch afterwards:

  * edge_push: a dual edge with no contact point in its relative interior is
    moved outward, i.e. the corresponding primal vertex shrinks toward the
    origin until a new constraint becomes tight.
  * edge_rotate: a dual edge with exactly one interior contact point u is
    rotated about u, i.e. the primal vertex slides along the line <x, u> = 1
    in the volume-decreasing direction until a lattice constraint, a minima
    witness constraint, or a vertex collision stops it.
  * balance: a triangle whose dual edges each carry two interior contacts
    belongs to a one-parameter family with constant contact structure on
    which single-edge moves are fixed points; the move jumps to the family's
    volume minimum (the balanced split t1 = t2 = 1/t) and re-verifies.

All comparisons are exact.  Push and rotate share one stop solver: the
moving vertex slides along an integer direction over the polygon's integer
form (vertices (X_k, Y_k)/L), and each lattice constraint z = (m, n) stops
it at a closed-form point read off the integers X_k m + Y_k n of the other
vertices, one pass per constraint in `_stops`; the contact map computes its
own supports, one pass per contact point.  The 1e-6 figure appears only in
human-readable gap summaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .body import Body, as_body, apply_transform, centered, \
    central_symmetral, gauge, polar, Transform2
from .core import E1, E2, _over_lcm, integer_form, rat, vec
from .errors import BadParams, DegenerateInput, GeometryError, \
    InternalInvariantViolation, NoFeasibleStart, NoSlackEdge, NotRotatable
from .minima import MinimaCert, contact_set, normalize_to_At, \
    successive_minima


def target_volume(t) -> Fraction:
    """Minimal volume over A(t): 2/t - 1/(2 t^2), attained by a triangle."""
    t = rat(t)
    return 2 / t - 1 / (2 * t * t)


@dataclass(frozen=True)
class Candidate:
    """Feasible search state: primal polygon, class parameter, certificate."""

    body: Body
    t: Fraction
    feasible: bool
    cert: MinimaCert
    volume: Fraction

    @cached_property
    def contacts_by_edge(self) -> dict:
        """For each primal vertex index, the contact points of C(K) lying in
        the relative interior of its dual edge.  The contact points come from
        `contact_set`, which reads them off the minima certificate; p lies
        inside the dual edge of vertex i iff i is the only vertex with
        <v_i, p> = 1, i.e. iff i alone attains S = max_k (X_k m + Y_k n), as
        p = z L / S.  Raises NotNormalized for an infeasible candidate."""
        pts, _ = integer_form(self.body.polygon)
        by_edge = {i: set() for i in range(len(pts))}
        for z, p in zip(*contact_set(self.body)):
            values = [x * z.x.numerator + y * z.y.numerator for x, y in pts]
            top = max(values)
            if values.count(top) == 1:
                by_edge[values.index(top)].add(p)
        return {i: frozenset(c) for i, c in by_edge.items()}


@dataclass(frozen=True)
class SearchResult:
    best: Candidate
    target: Fraction
    trace: tuple  # ((iteration, volume), ...) of the best seed
    seed: int
    converged_seeds: int
    failed_seeds: tuple


def feasible(K, t):
    """Exact A(t) membership with the certificate that decides it."""
    t = rat(t)
    if t < 1:
        raise BadParams("t must be >= 1")
    K = as_body(K)
    dual = polar(central_symmetral(K))
    cert = successive_minima(dual)
    ok = (K.contains_origin("open")
          and cert.lambdas == (1 / t, Fraction(1))
          and gauge(dual, E1) == 1 / t
          and gauge(dual, E2) == 1)
    return ok, cert


def make_candidate(K, t) -> Candidate:
    """Re-center at the centroid (harmless: every A(t) constraint is
    translation invariant) and certify."""
    K = centered(K)
    ok, cert = feasible(K, t)
    return Candidate(K, rat(t), ok, cert, K.volume())


# ---------------------------------------------------------------------------
# constraint machinery
#
# A move slides vertex i from (X_i, Y_i)/L to (X_i + sigma d)/L along an
# integer direction d.  For z = (m, n) the vertex's value is a + sigma b,
# a = X_i m + Y_i n and b = d.z, and twice the symmetral gauge of z, scaled
# by L, is max(hi, a + sigma b) - min(lo, a + sigma b) with hi and lo the
# max and min over the other vertices: flat while the value stays in
# [lo, hi], growing by |b| per unit of sigma outside.  So each constraint's
# stop has a closed form in integers, a Fraction only where it divides.


def _constraint_reps(cand: Candidate):
    """Half-lattice representatives (m, n), n >= 1, from the certificate box
    plus a margin of one unit; the pair (z, -z) is handled jointly."""
    r, (e1, e2) = cand.cert.search_radius, cand.cert.extents
    m1 = math.floor(r * e1) + 1
    m2 = math.floor(r * e2) + 1
    return [(m, n) for n in range(1, m2 + 1) for m in range(-m1, m1 + 1)]


def _limit(a, b, hi, lo, B, equality):
    """Least sigma >= 0 at which max(hi, s) - min(lo, s), s = a + sigma b,
    stops being >= B (for an equality: stops being flat), or None when that
    never happens.  A stop is a Fraction, never a float.

    Assumes the constraint holds at sigma = 0.  Every A(t) candidate meets
    this: the witnesses are equalities there, and the representatives have
    n >= 1, so none is a multiple of e1 and each has gauge >= lambda_2 = 1."""
    if b == 0:
        return None
    if equality:
        return Fraction((hi if b > 0 else lo) - a, b) if lo <= a <= hi else Fraction(0)
    if hi - lo >= B:
        return None
    e = hi - B if b > 0 else lo + B
    return Fraction(e - a, b) if (e - a) * b >= 0 else None


def _stops(cand: Candidate, i, d):
    """(sigma, reason) per lattice constraint that stops vertex i on its
    slide (X_i, Y_i) + sigma d, in constraint order: the witness equalities
    at e1 (B = 2L/t) and e2, then gauge >= 1 (B = 2L) at every
    representative but e2."""
    pts, L = integer_form(cand.body.polygon)
    (x, y), rest = pts[i], pts[:i] + pts[i + 1:]
    dx, dy = d
    constraints = [((1, 0), 2 * L / cand.t, True), ((0, 1), 2 * L, True)] + \
        [(z, 2 * L, False) for z in _constraint_reps(cand) if z != (0, 1)]
    for (m, n), B, eq in constraints:
        values = [xk * m + yk * n for xk, yk in rest]
        sigma = _limit(x * m + y * n, dx * m + dy * n, max(values), min(values), B, eq)
        if sigma is not None:
            yield sigma, (("witness-e1" if m else "witness-e2") if eq
                          else f"lattice-gauge({m},{n})")


def _rebuild(cand: Candidate, vertices) -> Candidate:
    return make_candidate(Body.from_points(vertices), cand.t)


def edge_push(cand: Candidate) -> Candidate:
    """Shrink the primal vertex of the first slack dual edge toward the
    origin until a new contact constraint becomes tight: one exact solve,
    then one re-certification, which raises InternalInvariantViolation if
    the rebuilt polygon is not in A(t).

    Raises NoSlackEdge when the relative interior of every dual edge already
    carries a contact point, and NotNormalized (from `contact_set`) for an
    infeasible candidate."""
    vs = cand.body.polygon.vertices
    contacts = cand.contacts_by_edge
    slack = [i for i in range(len(vs)) if not contacts[i]]
    if not slack:
        raise NoSlackEdge("every dual edge carries a contact point")
    i = slack[0]
    x, y = integer_form(cand.body.polygon)[0][i]
    # the vertex moves to (1 - sigma) v_i; at sigma = 1 it reaches the origin
    sigma = min([1] + [stop for stop, _ in _stops(cand, i, (-x, -y))])
    nxt = _rebuild(cand, [v for k, v in enumerate(vs) if k != i] + [vs[i] * (1 - sigma)])
    if not nxt.feasible:
        raise InternalInvariantViolation("push left A(t)")
    return nxt


def rotatable_contact(cand: Candidate, edge_index: int):
    """The single interior contact of the dual edge, or None."""
    contacts = cand.contacts_by_edge.get(edge_index, ())
    return next(iter(contacts)) if len(contacts) == 1 else None


def edge_rotate(cand: Candidate, edge_index: int, direction: int,
                explain: bool = False):
    """Rotate a dual edge about its unique interior contact point u.

    In primal terms the vertex slides along the rational line <x, u> = 1, so
    the stopping constraint is solved exactly; no trigonometry is involved.
    tau is the least stop, with no ceiling, and ties go to a constraint over
    a vertex collision; InternalInvariantViolation is raised when nothing
    stops the slide or when the re-certified result is not in A(t).
    The volume is linear along the slide and must not increase in the
    requested direction.  Returns the input unchanged when the first
    constraint is tight already at tau = 0.  With explain=True the result is
    (candidate, stop_reason), naming the constraint that ended the move.
    An infeasible candidate raises NotNormalized (from `contact_set`)."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    vs = cand.body.polygon.vertices
    u = rotatable_contact(cand, edge_index)
    if u is None:
        raise NotRotatable(
            "dual edge must contain exactly one contact point in its relative interior")
    w = direction * u.perp()
    # the slide v_i + tau w is (X_i, Y_i) + sigma d with d = M w integral
    # and tau = sigma M / L
    (dx, dy), M = _over_lcm([w.x, w.y])
    pts, L = integer_form(cand.body.polygon)
    n = len(pts)
    i = edge_index
    (px, py), (qx, qy) = pts[i - 1], pts[(i + 1) % n]
    if dx * (qy - py) - dy * (qx - px) > 0:
        raise NotRotatable("requested direction increases the volume")
    stops = list(_stops(cand, i, (dx, dy)))
    # collinear with the chord of its neighbors or with a neighboring edge
    x, y = pts[i]
    for j, k in ((i - 1, i + 1), (i - 2, i - 1), (i + 1, i + 2)):
        (px, py), (qx, qy) = pts[j % n], pts[k % n]
        denom = (qx - px) * dy - (qy - py) * dx
        if denom:
            sigma = Fraction((qy - py) * (x - px) - (qx - px) * (y - py), denom)
            if sigma > 0:
                stops.append((sigma, "vertex-collision"))
    if not stops:
        raise InternalInvariantViolation("rotation found no stopping constraint")
    sigma, reason = min(stops, key=lambda stop: stop[0])
    if sigma == 0:
        return (cand, reason) if explain else cand
    others = [v for k, v in enumerate(vs) if k != i]
    try:
        nxt = _rebuild(cand, others + [vs[i] + (sigma * M / L) * w])
    except DegenerateInput:
        raise InternalInvariantViolation("rotation collapsed the polygon")
    if not nxt.feasible:
        raise InternalInvariantViolation("rotation left A(t)")
    return (nxt, reason) if explain else nxt


def balance_triangle(cand: Candidate):
    """Jump to the balanced member of the two-contacts-per-edge triangle
    family (t1 = t2 = 1/t), which is the family's volume minimum; returns
    None unless the candidate is such a triangle and the jump improves."""
    vs = cand.body.polygon.vertices
    if len(vs) != 3:
        return None
    contacts = cand.contacts_by_edge
    if not all(len(contacts[i]) >= 2 for i in range(3)):
        return None
    ti = 1 / cand.t
    nxt = _rebuild(cand, [vec(ti, 1), vec(-ti, 1 - ti), vec(0, -1)])
    if not nxt.feasible:
        raise InternalInvariantViolation("balanced triangle must be feasible")
    return nxt if nxt.volume < cand.volume else None


def _improving_move(cand: Candidate):
    try:
        nxt = edge_push(cand)
        if nxt.volume < cand.volume:
            return nxt
    except NoSlackEdge:
        pass
    vs = cand.body.polygon.vertices
    n = len(vs)
    for i in range(n):
        u = rotatable_contact(cand, i)
        if u is None:
            continue
        base = u.perp().cross(vs[(i + 1) % n] - vs[(i - 1) % n])
        if base == 0:
            continue  # volume-flat rotation: never an improvement
        direction = -1 if base > 0 else 1
        nxt = edge_rotate(cand, i, direction)
        if nxt.volume < cand.volume:
            return nxt
    return balance_triangle(cand)


def descend(cand: Candidate, iters: int):
    """Greedy strict descent; returns (final, trace, converged)."""
    target = target_volume(cand.t)
    trace = [(0, cand.volume)]
    converged = False
    for it in range(1, iters + 1):
        nxt = _improving_move(cand)
        if nxt is None:
            converged = True
            break
        if nxt.volume >= cand.volume or not nxt.feasible:
            raise InternalInvariantViolation("accepted move failed to improve")
        if nxt.volume < target:
            raise InternalInvariantViolation("candidate below the provable minimum")
        cand = nxt
        trace.append((it, cand.volume))
        if cand.volume == target:
            converged = True
            break
    return cand, trace, converged


def sample_feasible(rng: random.Random, t, budget: int = 400):
    """Rejection sampling of a feasible start.

    Random 3..6-gons in the bounding rectangle [-1/t, 1/t] x [-1, 1] with
    denominator-16 coordinates are normalized; when the sampled class
    parameter differs from the requested t, the x-axis is rescaled and the
    candidate re-tested (the rescaling can break minimality, hence the
    re-test)."""
    t = rat(t)
    for _ in range(budget):
        k = rng.randint(3, 6)
        pts = [vec(Fraction(rng.randint(-16, 16), 16) / t,
                   Fraction(rng.randint(-16, 16), 16)) for _ in range(k)]
        try:
            form = normalize_to_At(Body.from_points(pts))
        except GeometryError:
            continue
        K = form.body
        if form.t != t:
            alpha = form.t / t
            K = apply_transform(Transform2.linear(alpha, 0, 0, 1), K)
        cand = make_candidate(K, t)
        if cand.feasible:
            return cand
    return None


def multi_start(t, seeds, iters: int = 200, budget: int = 400) -> SearchResult:
    """Best volume over independent seeded descents.

    Individual seeds may stall at non-minimal fixed points of the strict
    moves, e.g. symmetric triangles of volume 2/t where every admissible
    rotation is volume-flat, or quadrilaterals of volume 4/t - 2/t²; the
    returned best is the minimum across seeds.  Deterministic per seed; the
    per-seed results are merged in seed order.  Raises NoFeasibleStart when
    every seed exhausts its sampling budget."""
    t = rat(t)
    if t < 1:
        raise BadParams("t must be >= 1")
    target = target_volume(t)
    best = None
    best_trace = None
    best_seed = None
    converged_count = 0
    failed = []
    tried = 0
    for seed in seeds:
        tried += 1
        rng = random.Random(f"at-search-{seed}")
        start = sample_feasible(rng, t, budget)
        if start is None:
            failed.append(seed)
            continue
        final, trace, converged = descend(start, iters)
        if final.volume < target:
            raise InternalInvariantViolation("seed descended below the provable minimum")
        converged_count += converged
        if best is None or final.volume < best.volume:
            best, best_trace, best_seed = final, trace, seed
    if best is None:
        raise NoFeasibleStart(f"no feasible start in {tried} seeds")
    return SearchResult(best, target, tuple(best_trace), best_seed,
                        converged_count, tuple(failed))
