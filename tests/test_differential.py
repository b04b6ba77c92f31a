"""Differential properties: each fast path against an independent oracle.

The bodies are corpus polygons, rational n-gons with up to 48 vertices
(points on the rational parametrization of the unit circle, stretched and
moved to their centroid) and unimodular shears of corpus polygons.
"""

from fractions import Fraction as F

from hypothesis import given, strategies as st

import polarmin as pm
from polarmin import Body, HPolytope, vec

from oracles import pairwise_symmetral

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


bodies = st.one_of(st.sampled_from(CORPUS), ngons(), shears())


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
