"""Differential properties: each fast path against an independent oracle.

The bodies are corpus polygons, rational n-gons with up to 48 vertices
(points on the rational parametrization of the unit circle, stretched and
moved to their centroid) and unimodular shears of corpus polygons; the
minima are also checked on products of shears, swaps and signs of those,
and on thin rectangles and diamonds (lambda_2/lambda_1 up to 900) and
their unimodular images; the minima and witnesses, taken by two min passes
over the kept integers, against the first independent pair of the short
vector list built on first read, also on shears walked in a Gauss-reduced
basis.
The clips and affine images, built without a hull, are checked against
the hull of the same points, and the integer-form cut areas against the
shoelace of that hull.  The integer-form area, centroid, membership test
and polar directions are checked against Fraction loops over the vertices,
also on a polygon with coordinates near 10^300 and on a 256-gon.  The
contact maps are checked on feasible search candidates, and so are the
integer solves of the push and rotate moves, against Fraction supports over
the vertices.  The halfplane intersection is checked on small random row
sets, each row scaled by a positive rational, and on the shuffled edge rows
of the bodies.  The integer hull is checked against a monotone chain over
Fraction tuples, on point sets with duplicates, collinear runs, mixed
denominators and coordinates near 10^6; the integer vertex-list checks and
symmetral merge against their Fraction loops; every integer form that a
hull, symmetral, translate, affine image, scale, halfplane intersection,
clip or validated polygon is born with against a fresh one; and the
closed-form pair limit `search._limit` of the move stops, with its early
exit, against the kink walk `_tau_limit`, on feasible integer inputs up to
10^300.  The polar's integer form that `gauge_rows` reads is checked
against a fresh form and against the retired Fraction rows; the
minima box extents, and the reduced box's on shears that take the
Gauss-reduced path, against Fraction maxima over the vertices;
`is_symmetric` against the vertex set; and each Grünbaum cut
against the shoelace of the clip hull.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polarmin as pm
from polarmin import Body, HPolytope, vec
from polarmin.core import _over_lcm
from polarmin.minima import witness_key
from polarmin.search import _limit, sample_feasible

from oracles import _hull, _tau_limit, area_centroid, clip_hull, contact_points, edge_gauge, \
    fraction_gauge_rows, halfplane_vertices, merge_symmetral, move_constraints, \
    orient_contains, pairwise_symmetral, polar_directions, push_points, rotate_stop, \
    shoelace, short_vectors, signed_area, validated_ccw, vertex_set_symmetric
from test_body import random_unimodular

CORPUS = pm.random_bodies(11, 40)


def _circle_point(s):
    d = 1 + s * s
    return vec((1 - s * s) / d, 2 * s / d)


@st.composite
def ngons(draw):
    n = draw(st.integers(3, 48))
    params = draw(st.sets(st.fractions(-6, 6, max_denominator=9),
                          min_size=n, max_size=n))
    sx = F(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    sy = F(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    pts = [_circle_point(s) for s in params]
    poly = pm.convex_hull(vec(p.x * sx, p.y * sy) for p in pts)
    return pm.translate(Body(poly=poly), -pm.centroid(poly))


@st.composite
def shears(draw):
    K = draw(st.sampled_from(CORPUS))
    k = draw(st.integers(-4, 4))
    T = pm.Transform2.linear(1, 0, k, 1) if draw(st.booleans()) \
        else pm.Transform2.linear(1, k, 0, 1)
    return pm.apply_transform(T, K)


def _centered_hull(points):
    poly = pm.convex_hull(points)
    return pm.translate(Body(poly=poly), -pm.centroid(poly))


# coordinates near 10^300 with mixed denominators, and every point of the
# rational circle parametrization at s = k/64, k = -128..127, stretched
HUGE = _centered_hull([vec(F(10**300, 7), 1), vec(-F(10**300, 3), F(10**299, 11)),
                       vec(2, -10**300), vec(F(10**300 + 1, 13), F(10**300, 17))])
NGON256 = _centered_hull(vec(p.x * F(3, 2), p.y * F(2, 3))
                         for p in map(_circle_point, (F(k, 64) for k in range(-128, 128))))
assert len(HUGE.polygon) == 4 and len(NGON256.polygon) == 256

bodies = st.one_of(st.sampled_from(CORPUS), ngons(), shears())
unimodular = st.integers(0, 2**32).map(lambda seed: random_unimodular(random.Random(seed)))
small = st.integers(-3, 3)


def _tuples(K):
    return [(v.x, v.y) for v in K.polygon.vertices]


@given(bodies)
def test_symmetral_matches_pairwise_hull(K):
    fresh = Body(poly=K.polygon)
    assert _tuples(pm.central_symmetral(fresh)) == pairwise_symmetral(_tuples(fresh))


@given(bodies)
def test_polar_matches_vertex_row_intersection(K):
    fresh = Body(poly=K.polygon)
    rows = HPolytope.planar((v, F(1)) for v in fresh.polygon.vertices)
    assert pm.polar(fresh).polygon == pm.halfplane_intersect(rows)


@given(bodies)
def test_memoized_minima_match_fresh_body(K):
    for D in (pm.polar(pm.central_symmetral(K)), pm.polar(K)):
        first = pm.successive_minima(D)
        assert pm.successive_minima(D) is first
        assert pm.successive_minima(Body(poly=D.polygon)) == first


@given(bodies)
def test_short_vectors_match_full_box_enumeration(K):
    fresh = Body(poly=K.polygon)
    for D in (pm.polar(pm.central_symmetral(fresh)), pm.polar(fresh)):
        cert = pm.successive_minima(D)
        l1, l2 = cert.lambdas
        expected = sorted(short_vectors(_tuples(D), l2),
                          key=lambda e: witness_key(vec(*e[0]), e[1]))
        assert [((z.x, z.y), g) for z, g in cert.short_vectors] == expected
        # the oracle's list alone determines both minima
        (p1, q1), g1 = expected[0]
        assert g1 == l1
        assert min(g for (p, q), g in expected if p1 * q - q1 * p) == l2


@given(bodies, unimodular)
def test_minima_of_unimodular_images_match_full_box_enumeration(K, T):
    base = Body(poly=K.polygon)
    image = pm.apply_transform(T, base)
    for f in (pm.central_symmetral, lambda B: pm.polar(pm.central_symmetral(B)), pm.polar):
        D = f(image)
        cert = pm.successive_minima(D)
        assert cert.lambdas == pm.successive_minima(f(base)).lambdas
        b1, b2 = cert.basis
        assert abs(b1.cross(b2)) == 1 and b1.is_integral() and b2.is_integral()
        expected = sorted(short_vectors(_tuples(D), cert.lambdas[1]),
                          key=lambda e: witness_key(vec(*e[0]), e[1]))
        assert [((z.x, z.y), g) for z, g in cert.short_vectors] == expected
        (p1, q1), _ = expected[0]
        w2 = next(z for z, _ in expected if p1 * z[1] - q1 * z[0])
        assert [(w.x, w.y) for w in cert.witnesses] == [(p1, q1), w2]


@st.composite
def thin_bodies(draw):
    """(a, K): the rectangle R_a = [-a, a] x [-1/a, 1/a] or the diamond
    conv(+-(a, 0), +-(0, 1/a)), 1 <= a <= 30, or a unimodular image of
    either; the minima of K° are (1/a, a) in every case."""
    a = draw(st.fractions(1, 30, max_denominator=4))
    if draw(st.booleans()):
        pts = [vec(a, 1 / a), vec(-a, 1 / a), vec(-a, -1 / a), vec(a, -1 / a)]
    else:
        pts = [vec(a, 0), vec(0, 1 / a), vec(-a, 0), vec(0, -1 / a)]
    K = Body(poly=pm.convex_hull(pts))
    if draw(st.booleans()):
        K = pm.apply_transform(draw(unimodular), K)
    return a, K


@settings(max_examples=20)
@given(thin_bodies())
def test_minima_of_thin_bodies_match_full_box_enumeration(case):
    a, K = case
    dual = pm.polar(K)
    X = max(abs(v.x) for v in dual.polygon.vertices)
    Y = max(abs(v.y) for v in dual.polygon.vertices)
    assume((2 * math.floor(a * X) + 1) * (2 * math.floor(a * Y) + 1) <= 6000)
    expected = sorted(short_vectors(_tuples(dual), a),
                      key=lambda e: witness_key(vec(*e[0]), e[1]))
    (p1, q1), _ = expected[0]
    w2 = next(z for z, _ in expected if p1 * z[1] - q1 * z[0])
    # K is symmetric, so cs(K)° is the polygon of K°, as a separate body
    for D in (pm.polar(pm.central_symmetral(K)), dual):
        assert D.polygon == dual.polygon
        cert = pm.successive_minima(D)
        assert cert.lambdas == (1 / a, a)
        assert [(w.x, w.y) for w in cert.witnesses] == [(p1, q1), w2]
        assert [((z.x, z.y), g) for z, g in cert.short_vectors] == expected


@settings(max_examples=30)
@given(bodies, st.lists(st.tuples(st.fractions(-9, 9, max_denominator=12),
                                  st.fractions(-9, 9, max_denominator=12)),
                        min_size=1, max_size=6))
def test_gauge_matches_edge_oracle(K, points):
    points = points + [(F(p), F(q)) for p in range(-2, 3) for q in range(-2, 3)]
    for D in (K, pm.polar(K), pm.polar(pm.central_symmetral(K))):
        fresh = Body(poly=D.polygon)
        for p in points:
            assert pm.gauge(fresh, vec(*p)) == edge_gauge(_tuples(fresh), p)


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.sampled_from([F(1), F(3, 2), F(2)]))
def test_contact_maps_match_vertex_oracle(seed, t):
    start = sample_feasible(random.Random(seed), t)
    assume(start is not None)
    for cand in (start, pm.descend(start, 3)[0]):
        c0, c, by_vertex = contact_points(_tuples(cand.body))
        got0, got = pm.contact_set(cand.body)
        assert [(z.x, z.y) for z in got0] == c0
        assert [(p.x, p.y) for p in got] == c
        assert {i: {(p.x, p.y) for p in ps}
                for i, ps in cand.contacts_by_edge.items()} == by_vertex


def _centered_tuples(points):
    hull = _hull(points)
    cx, cy = area_centroid(hull)
    return [(x - cx, y - cy) for x, y in hull]


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([F(1), F(3, 2), F(2)]), st.integers(0, 4))
def test_move_solves_match_fraction_oracle(seed, t, steps):
    start = sample_feasible(random.Random(seed), t)
    assume(start is not None)
    cand = pm.descend(start, steps)[0]
    vs = _tuples(cand.body)
    n = len(vs)
    constraints = move_constraints(t, cand.cert.search_radius, cand.cert.extents)
    contacts = cand.contacts_by_edge
    slack = [i for i in range(n) if not contacts[i]]
    if slack:
        pushed = push_points(vs, slack[0], constraints)
        assert _tuples(pm.edge_push(cand).body) == _centered_tuples(pushed)
    for i in range(n):
        if len(contacts[i]) != 1:
            continue
        (u,) = contacts[i]
        (x0, y0), (x1, y1) = vs[(i - 1) % n], vs[(i + 1) % n]
        for direction in (1, -1):
            w = (-direction * u.y, direction * u.x)
            if w[0] * (y1 - y0) - w[1] * (x1 - x0) > 0:
                continue  # the slide would grow the volume
            tau, reason = rotate_stop(vs, i, w, constraints)
            nxt, got = pm.edge_rotate(cand, i, direction, explain=True)
            assert got == reason
            x, y = vs[i]
            moved = vs[:i] + [(x + tau * w[0], y + tau * w[1])] + vs[i + 1:]
            assert _tuples(nxt.body) == (vs if tau == 0 else _centered_tuples(moved))


@settings(max_examples=300)
@given(bodies, st.data())
def test_clip_matches_clip_and_hull_oracle(K, data):
    vs = _tuples(K)
    kind = data.draw(st.sampled_from(["vertex", "edge", "miss", "contain", "between"]))
    if kind == "edge":  # the line along an edge, with K on either side
        i = data.draw(st.integers(0, len(vs) - 1))
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % len(vs)]
        s = data.draw(st.sampled_from([1, -1]))
        a = (s * (y1 - y0), s * (x0 - x1))
        c = a[0] * x0 + a[1] * y0
    else:
        a = data.draw(st.tuples(small, small).filter(lambda n: n != (0, 0)))
        values = sorted(a[0] * x + a[1] * y for x, y in vs)
        gap = data.draw(st.fractions(0, 3, max_denominator=6))
        if kind == "vertex":
            c = data.draw(st.sampled_from(values))
        elif kind == "miss":
            c = values[0] - gap - F(1, 7)
        elif kind == "contain":
            c = values[-1] + gap
        else:
            c = values[0] + (values[-1] - values[0]) * data.draw(
                st.fractions(0, 1, max_denominator=12))
    got = pm.clip_halfplane(K.polygon, vec(*a), c)
    expected = clip_hull(vs, a, c)
    assert (None if got is None else _tuples(Body(poly=got))) == expected
    if kind == "miss":
        assert got is None
    if kind == "contain":
        assert got == K.polygon


ratios = st.fractions(-3, 3, max_denominator=5)


@settings(max_examples=200)
@given(bodies, st.sampled_from(["vertex", "edge", "miss", "contain", "between"]),
       st.integers(0, 10**6), st.tuples(ratios, ratios).filter(lambda a: a != (0, 0)),
       st.fractions(0, 3, max_denominator=6))
@example(HUGE, "between", 0, (F(1, 3), F(-2, 5)), F(1, 2))
@example(HUGE, "edge", 2, (F(-3, 2), 0), 0)
@example(NGON256, "vertex", 40, (1, F(1, 2)), 0)
@example(NGON256, "edge", 9, (F(2, 3), 1), 0)
def test_cut_area_matches_shoelace_of_clip_and_hull_oracle(K, kind, i, a, gap):
    # rational a and c: through a vertex, along an edge with K on either
    # side (a's sign), missing K, containing it, or anywhere in between
    vs = _tuples(K)
    values = sorted(a[0] * x + a[1] * y for x, y in vs)
    if kind == "edge":
        (x0, y0), (x1, y1) = vs[i % len(vs)], vs[(i + 1) % len(vs)]
        r = a[0] or a[1]
        a = (r * (y1 - y0), r * (x0 - x1))
        c = a[0] * x0 + a[1] * y0
    elif kind == "vertex":
        c = values[i % len(vs)]
    elif kind == "miss":
        c = values[0] - gap - F(1, 7)
    elif kind == "contain":
        c = values[-1] + gap
    else:
        c = values[0] + (values[-1] - values[0]) * gap / 3
    got = pm.cut_area(K.polygon, vec(*a), c)
    hull = clip_hull(vs, a, c)
    assert got == (0 if hull is None else shoelace(hull))
    if kind == "miss":
        assert got == 0
    if kind == "contain":
        assert got == pm.area(K.polygon)


points = st.tuples(st.fractions(-3, 3, max_denominator=7), st.fractions(-3, 3, max_denominator=7))


@given(bodies, st.sampled_from(["centered", "vertex", "edge", "outside"]),
       st.integers(0, 10**6), points)
@example(HUGE, "centered", 0, (F(10**300, 9), 0))
@example(HUGE, "vertex", 1, (0, 0))
@example(NGON256, "centered", 0, (F(3, 2), 0))
@example(NGON256, "edge", 7, (F(1, 3), F(1, 7)))
def test_integer_kernel_matches_fraction_loops(K, origin, i, q):
    # the origin moved onto a vertex, onto the middle of an edge, or out
    vs = _tuples(K)
    (x0, y0), (x1, y1) = vs[i % len(vs)], vs[(i + 1) % len(vs)]
    shift = {"centered": (0, 0), "vertex": (-x0, -y0),
             "edge": (-(x0 + x1) / 2, -(y0 + y1) / 2),
             "outside": (-2 * x0, -2 * y0)}[origin]
    fresh = pm.translate(K, vec(*shift))
    vs = _tuples(fresh)
    assert pm.area(fresh.polygon) == signed_area(vs)
    assert pm.centroid(fresh.polygon) == vec(*area_centroid(vs))
    for mode in ("closed", "open"):
        for z in ((0, 0), q, vs[i % len(vs)]):
            assert pm.contains(fresh.polygon, vec(*z), mode) == orient_contains(vs, z, mode)
    inside = fresh.contains_origin("open")
    assert inside == (origin == "centered")
    if inside:
        dirs = polar_directions(vs)
        k = dirs.index(min(dirs))
        assert _tuples(pm.polar(fresh)) == dirs[k:] + dirs[:k]
    else:
        with pytest.raises(pm.OriginNotInterior):
            pm.polar(fresh)


@st.composite
def rational_maps(draw):
    """Invertible affine maps with small rational entries and translation,
    of either determinant sign."""
    entries = st.fractions(-3, 3, max_denominator=5)
    (a, b), (c, d) = (draw(entries), draw(entries)), (draw(entries), draw(entries))
    assume(a * d - b * c != 0)
    if (a * d - b * c < 0) != draw(st.booleans()):
        (a, b), (c, d) = (c, d), (a, b)
    return pm.Transform2.linear(a, b, c, d, vec(draw(entries), draw(entries)))


@given(bodies, st.one_of(unimodular, rational_maps()))
def test_affine_image_matches_hull_of_mapped_vertices(K, T):
    (a, b), (c, d) = T.m
    u, v = T.translation.x, T.translation.y
    mapped = [(a * x + b * y + u, c * x + d * y + v) for x, y in _tuples(K)]
    assert _tuples(pm.apply_transform(T, K)) == _hull(mapped)


def _intersection(rows):
    """Vertex tuples of halfplane_intersect, or the name of its exception."""
    try:
        poly = pm.halfplane_intersect(HPolytope.planar((vec(*n), c) for n, c in rows))
    except (pm.Empty, pm.Unbounded) as exc:
        return type(exc).__name__
    return _tuples(Body(poly=poly))


def _oracle_intersection(rows):
    try:
        return halfplane_vertices(rows)
    except (pm.Empty, pm.Unbounded) as exc:
        return type(exc).__name__


@st.composite
def row_sets(draw):
    """1 to 9 rows ((a, b), c) with small integer entries.  After the first,
    a row may be an earlier one scaled and shifted (parallel), negated and
    shifted (antiparallel), or a line through or just beside the crossing
    of two earlier lines, so redundant, unbounded, empty and
    lower-dimensional sets all occur.  Each row is then scaled by a drawn
    1, 2, 1/3 or 7/5, which keeps its halfplane."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["fresh", "fresh", "parallel", "antiparallel",
                                     "through"])) if len(rows) > 1 else "fresh"
        shift = draw(st.sampled_from([0, 0, 1, -1, 2, F(1, 2), F(-1, 2)]))
        if kind == "fresh":
            rows.append(((draw(small), draw(small)), draw(st.integers(-3, 4))))
            continue
        (a, b), c = draw(st.sampled_from(rows))
        if kind == "parallel":
            t = draw(st.integers(1, 3))
            rows.append(((t * a, t * b), t * c + shift))
        elif kind == "antiparallel":
            rows.append(((-a, -b), -c + shift))
        else:
            (p, q), d = draw(st.sampled_from(rows))
            det = a * q - b * p
            x = ((c * q - d * b) / F(det), (a * d - p * c) / F(det)) if det else (0, 0)
            u, v = draw(small), draw(small)
            rows.append(((u, v), u * x[0] + v * x[1] + shift))
    scales = draw(st.lists(st.sampled_from([1, 1, 2, F(1, 3), F(7, 5)]),
                           min_size=len(rows), max_size=len(rows)))
    return [((t * a, t * b), t * c) for ((a, b), c), t in zip(rows, scales)]


@settings(max_examples=400)
@given(row_sets())
# the last row cuts off the vertex of the first two rows in angle order,
# so the sweep must pop the front of its deque
@example([((2, 1), 3), ((-2, -3), 4), ((0, -1), 3), ((-2, 0), -3), ((-2, 2), 1),
          ((3, 2), 1)])
def test_halfplane_intersection_matches_all_pairs_oracle(rows):
    assert _intersection(rows) == _oracle_intersection(rows)


@settings(max_examples=40)
@given(bodies.filter(lambda K: len(K.polygon) <= 16), st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(0, 47), st.integers(1, 3), st.sampled_from(
           [-1, 0, 0, 1, F(1, 3)])), max_size=4))
@example(HUGE, random.Random(0), [])
def test_halfplane_intersection_of_shuffled_edge_rows(K, rnd, extra):
    edges = [((n.x, n.y), c) for n, c in pm.edge_halfplanes(K.polygon)]
    rows = list(edges)
    for i, t, shift in extra:  # parallel copies, looser or tighter
        (a, b), c = edges[i % len(edges)]
        rows.append(((t * a, t * b), t * c + shift))
    rnd.shuffle(rows)
    got = _intersection(rows)
    assert got == _oracle_intersection(rows)
    if all(shift >= 0 for _, _, shift in extra):
        assert got == _tuples(K)


@st.composite
def point_sets(draw):
    """(x, y) Fraction tuples: up to 12 points with their own denominators,
    points on the segments between drawn points, repeats, all scaled by 1 or
    10^6 and moved by 0 or 10^6, in a drawn order."""
    pts = [(F(x, d), F(y, d)) for x, y, d in draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 12)),
        min_size=1, max_size=12))]
    for _ in range(draw(st.integers(0, 2))):  # a collinear run
        (x0, y0), (x1, y1) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        m = draw(st.integers(1, 6))
        pts += [(x0 + (x1 - x0) * F(k, m), y0 + (y1 - y0) * F(k, m)) for k in range(m + 1)]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))  # repeats
    scale, shift = draw(st.sampled_from([1, 10**6])), draw(st.sampled_from([0, 10**6]))
    return draw(st.permutations([(x * scale + shift, y * scale - shift) for x, y in pts]))


def _fresh_form(poly):
    """The integer form of poly's vertices, built afresh from its Fractions."""
    ints, L = _over_lcm([c for v in poly.vertices for c in (v.x, v.y)])
    return tuple(zip(ints[::2], ints[1::2])), L


@settings(max_examples=200)
@given(point_sets())
@example([(0, 0), (1, 0), (2, 0), (2, 0), (F(1, 2), 1), (1, F(1, 3))])
def test_hull_matches_monotone_chain_oracle(pts):
    expected = _hull(pts)
    if len(expected) < 3:
        with pytest.raises(pm.DegenerateInput):
            pm.convex_hull(vec(*p) for p in pts)
        return
    hull = pm.convex_hull(vec(*p) for p in pts)
    assert [(v.x, v.y) for v in hull.vertices] == expected
    assert hull._integer == _fresh_form(hull)


@given(bodies, points, st.integers(0, 47))
def test_born_integer_forms_match_fresh_forms(K, q, i):
    # the shifts move a vertex onto the origin and by an arbitrary point;
    # the first cancels denominators, so the born form must be reduced
    vs = K.polygon.vertices
    fresh = Body(poly=K.polygon)
    sym = pm.central_symmetral(fresh).polygon
    assert _tuples(pm.central_symmetral(fresh)) == merge_symmetral(_tuples(fresh))
    flip = pm.Transform2.linear(F(1, 2), 3, F(2, 3), -1, vec(*q))  # det -5/2
    clip = pm.clip_halfplane(K.polygon, vec(1, q[1]), 0)
    assert clip is not None  # the origin is interior
    built = [pm.convex_hull(vs + (vec(*q),)), sym,
             pm.translate(K, -vs[i % len(vs)]).polygon,
             pm.translate(K, vec(*q)).polygon,
             pm.VPolygon(vs[i % len(vs):] + vs[:i % len(vs)]),
             pm.halfplane_intersect(HPolytope.planar(pm.edge_halfplanes(K.polygon))),
             pm.apply_transform(flip, K).polygon, pm.scale(K, F(2, 3)).polygon, clip]
    for poly in built:
        assert poly._integer == _fresh_form(poly)


@given(st.lists(points, min_size=3, max_size=8, unique=True), st.randoms(use_true_random=False))
def test_validated_constructor_matches_fraction_checks(pts, rnd):
    hull = _hull(pts)
    k = rnd.randrange(len(hull)) if hull else 0
    rotated = hull[k:] + hull[:k]
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    for cand in (pts, shuffled, rotated, rotated[::-1], rotated[::2] + rotated[1::2],
                 rotated + rotated, rotated + rotated[:1], rotated[:2]):
        try:
            expected = validated_ccw(cand)
        except pm.DegenerateInput as exc:
            with pytest.raises(pm.DegenerateInput, match=f"^{exc}$"):
                pm.VPolygon([vec(*p) for p in cand])
            continue
        poly = pm.VPolygon([vec(*p) for p in cand])
        j = expected.index(min(expected))
        assert [(v.x, v.y) for v in poly.vertices] == expected[j:] + expected[:j]
        assert poly._integer == _fresh_form(poly)


rationals = st.fractions(-50, 50, max_denominator=12)


@given(rationals, rationals, rationals, rationals, st.fractions(0, 20, max_denominator=12))
# a falling piece that meets the bound exactly where it turns flat
@example(F(3), F(-1), F(0), F(1), F(0))
def test_tau_limit_is_none_when_the_fixed_parts_meet_the_bound(a, b, lo, bound, gap):
    # the move stops skip ">=" constraints with hi - lo >= 2 bound
    hi = lo + 2 * bound + gap
    assert _tau_limit(a, b, hi, -a, -b, -lo, bound, False) is None
    assert _limit(a, b, hi, lo, 2 * bound, False) is None


@st.composite
def pair_limits(draw):
    """(a, b, hi, lo, B, equality) of a pair constraint that holds at
    sigma = 0: integer supports at scale 1 or 10^300, the moving value a
    often on hi or lo or outside [lo, hi] and hi often equal to lo, b often 0, and B the
    current width max(hi, a) - min(lo, a) for an equality and often for
    ">=", else a rational fraction of it."""
    scale = draw(st.sampled_from([1, 10**300]))
    lo = draw(st.integers(-20, 20)) * scale
    hi = lo + draw(st.sampled_from([0, draw(st.integers(0, 40))])) * scale
    off = draw(st.integers(1, 30)) * scale
    a = draw(st.sampled_from([lo, hi, lo - off, hi + off, draw(st.integers(-30, 30)) * scale]))
    b = draw(st.sampled_from([0, draw(st.integers(-9, 9)) * draw(st.sampled_from([1, scale]))]))
    equality = draw(st.booleans())
    width = max(hi, a) - min(lo, a)
    B = F(width) if equality else width * draw(
        st.sampled_from([F(1), draw(st.fractions(0, 1, max_denominator=12))]))
    assume(B > 0)
    return a, b, hi, lo, B, equality


@settings(max_examples=400)
@given(pair_limits())
# a stop beyond 10^9: the value falls by 1 per unit from 4 10^10 to lo + B
@example((4 * 10**10, -1, 0, 0, F(2), False))
# tight at sigma = 0 and falling at once: the stop is 0
@example((0, 1, 4, 2, F(4), False))
def test_closed_form_limit_matches_kink_walk(args):
    a, b, hi, lo, B, equality = args
    got = _limit(*args)
    assert got is None or type(got) is F
    assert got == _tau_limit(F(a), F(b), F(hi), F(-a), F(-b), F(-lo), B / 2, equality)


@st.composite
def reduced_shears(draw):
    """A corpus polygon under x -> (x + k y, y) or y -> (y + k x), |k| in
    5..60, whose minima walk runs in a Gauss-reduced basis."""
    K = draw(st.sampled_from(CORPUS))
    k = draw(st.integers(5, 60)) * draw(st.sampled_from([1, -1]))
    T = pm.Transform2.linear(1, k, 0, 1) if draw(st.booleans()) \
        else pm.Transform2.linear(1, 0, k, 1)
    image = pm.apply_transform(T, K)
    assume(pm.successive_minima(image).basis != (pm.E1, pm.E2))
    return image


@given(st.one_of(bodies, reduced_shears()))
@example(HUGE)
def test_minima_are_the_first_independent_pair_of_the_view(K):
    # lambda and the witnesses come from two min passes over the kept
    # integers; read off the view, they are its first entry and its first
    # entry off that one's line
    fresh = Body(poly=K.polygon)
    sym = pm.central_symmetral(fresh)
    for D in (fresh, sym, pm.polar(fresh), pm.polar(sym)):
        cert = pm.successive_minima(D)
        (w1, g1), *rest = cert.short_vectors
        w2, g2 = next((z, g) for z, g in rest if w1.cross(z))
        assert cert.witnesses == (w1, w2)
        assert cert.lambdas == (g1, g2)


@given(bodies)
@example(HUGE)
def test_polar_form_built_by_gauge_rows_matches_fresh_form(K):
    # gauge_rows is the polar's integer form, built once and kept on it
    fresh = Body(poly=K.polygon)
    for B in (fresh, pm.central_symmetral(fresh)):
        rows = pm.body.gauge_rows(B)
        dual = pm.polar(B).polygon
        assert dual._integer is rows
        assert rows == _fresh_form(dual)


@given(bodies)
@example(HUGE)
def test_gauge_rows_match_fraction_rows(K):
    # the same rows over the same D, in the polar's rotation, not edge order
    fresh = Body(poly=K.polygon)
    for B in (fresh, pm.central_symmetral(fresh), pm.polar(fresh)):
        rows, D = pm.body.gauge_rows(B)
        expected, D0 = fraction_gauge_rows(_tuples(B))
        assert D == D0
        assert sorted(rows) == sorted(expected)


def _fraction_extent(B, p, q):
    return max(abs(p * v.x + q * v.y) for v in B.polygon.vertices)


@given(st.one_of(bodies, reduced_shears()))
@example(HUGE)
def test_extents_match_fraction_max_over_vertices(K):
    # the box extents, and the extents of the reduced box, which are the
    # same maxima in the directions (b2y, -b2x) and (-b1y, b1x)
    for B in (K, pm.polar(K), pm.central_symmetral(K), pm.polar(pm.central_symmetral(K))):
        cert = pm.successive_minima(Body(poly=B.polygon))
        assert cert.extents == (_fraction_extent(B, 1, 0), _fraction_extent(B, 0, 1))
        rows, D = pm.body.gauge_rows(B)
        b1, b2 = cert.basis
        for p, q in ((b2.y, -b2.x), (-b1.y, b1.x)):
            assert pm.minima._extent(rows, D, int(p), int(q)) == _fraction_extent(B, p, q)


@given(bodies, points)
@example(HUGE, (F(10**300, 7), 1))
@example(NGON256, (F(1, 3), 0))
def test_is_symmetric_matches_vertex_set_oracle(K, q):
    sym = pm.central_symmetral(K)
    for B in (K, sym, pm.translate(sym, vec(*q)), pm.polar(sym)):
        assert pm.is_symmetric(B) == vertex_set_symmetric(_tuples(B))
    assert pm.is_symmetric(sym)


@given(bodies, points, st.tuples(ratios, ratios).filter(lambda a: a != (0, 0)))
@example(HUGE, (0, 0), (F(1, 3), F(-2, 5)))
@example(NGON256, (F(5, 2), F(-1, 3)), (1, 0))
def test_grunbaum_cut_matches_shoelace_of_clip_hull(K, q, a):
    # K and a translate of it; the cut is of the centered body by <-a, x> <= 0
    for B in (K, pm.translate(K, vec(*q))):
        lhs = pm.check_grunbaum(B, vec(*a)).lhs
        hull = clip_hull(_tuples(pm.centered(B)), (-a[0], -a[1]), 0)
        assert lhs == (0 if hull is None else shoelace(hull))
