import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import polarmin as pm
from polarmin import DegenerateInput, Empty, HPolytope, Unbounded, vec

from oracles import _hull, shoelace

SQUARE = pm.convex_hull([vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)])
T11 = pm.convex_hull([vec(-1, 0), vec(1, 1), vec(0, -1)])
T23 = pm.convex_hull([vec(-2, 1), vec(2, 3), vec(0, -3)])
T2 = pm.convex_hull([vec(1, 1), vec(1, -2), vec(-2, 1)])

rational = st.builds(F, st.integers(-8, 8), st.integers(1, 6))
point = st.builds(vec, rational, rational)


def rnd_points(rng, k, span=8, den=4):
    return [vec(F(rng.randint(-span, span), rng.randint(1, den)),
                F(rng.randint(-span, span), rng.randint(1, den)))
            for _ in range(k)]


class TestConvexHull:
    def test_interior_point_dropped(self):
        hull = pm.convex_hull([vec(0, 0), vec(1, 0), vec(0, 1), vec(F(1, 4), F(1, 4))])
        assert hull.vertex_set() == {vec(0, 0), vec(1, 0), vec(0, 1)}

    def test_triangle_vertices(self):
        assert T23.vertex_set() == {vec(-2, 1), vec(2, 3), vec(0, -3)}

    def test_idempotent_on_random_points(self):
        rng = random.Random(123)
        for _ in range(20):
            pts = rnd_points(rng, 100)
            try:
                hull = pm.convex_hull(pts)
            except DegenerateInput:
                continue
            assert pm.convex_hull(hull.vertices) == hull

    def test_collinear_input_rejected(self):
        with pytest.raises(DegenerateInput):
            pm.convex_hull([vec(0, 0), vec(1, 1), vec(2, 2), vec(3, 3)])

    def test_collinear_middle_points_dropped(self):
        hull = pm.convex_hull([vec(0, 0), vec(1, 0), vec(2, 0), vec(0, 2)])
        assert hull.vertex_set() == {vec(0, 0), vec(2, 0), vec(0, 2)}

    def test_monotone_under_subsets(self):
        rng = random.Random(5)
        for _ in range(25):
            pts = rnd_points(rng, 12)
            try:
                big = pm.area(pm.convex_hull(pts))
                small = pm.area(pm.convex_hull(pts[:6]))
            except DegenerateInput:
                continue
            assert big >= small

    def test_vpolygon_rejects_misordered_vertices(self):
        with pytest.raises(DegenerateInput):
            pm.VPolygon([vec(0, 0), vec(0, 1), vec(1, 0)])  # clockwise

    def test_vpolygon_rejects_multiply_wound_lists(self):
        # every turn is strictly left, but the edges turn through 4 pi
        pentagon = [vec(2, 0), vec(1, 2), vec(-2, 1), vec(-2, -1), vec(1, -2)]
        heptagon = [vec(3, 0), vec(2, 2), vec(0, 3), vec(-2, 2), vec(-3, 0),
                    vec(-2, -2), vec(1, -3)]
        for stars in (pentagon[::2] + pentagon[1::2], heptagon[::2] + heptagon[1::2]):
            with pytest.raises(DegenerateInput, match="not a convex hull ordering"):
                pm.VPolygon(stars)
        with pytest.raises(DegenerateInput):
            pm.VPolygon(pentagon + pentagon)  # wound twice through the same vertices

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1,
                    max_size=9), st.randoms(use_true_random=False))
    def test_vpolygon_accepts_exactly_the_hull_orderings(self, pts, rnd):
        hull = _hull(pts)
        k = rnd.randrange(len(hull)) if hull else 0
        rotated = hull[k:] + hull[:k]
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        for cand in (pts, shuffled, rotated, rotated[::-1], rotated + rotated[:1]):
            ok = len(cand) >= 3 and len(set(cand)) == len(cand) \
                and sorted(cand) == sorted(hull) \
                and any(cand == hull[i:] + hull[:i] for i in range(len(hull)))
            try:
                got = pm.VPolygon([vec(x, y) for x, y in cand]).vertices
            except DegenerateInput:
                assert not ok, cand
            else:
                assert ok, cand
                assert [(v.x, v.y) for v in got] == hull


class TestHalfplaneIntersect:
    def test_unit_square(self):
        h = HPolytope.planar([(vec(1, 0), 1), (vec(-1, 0), 1), (vec(0, 1), 1), (vec(0, -1), 1)])
        assert pm.halfplane_intersect(h) == SQUARE

    def test_simplex_rows(self):
        # pairwise line intersections of x<=1, y<=1, -x-y<=1
        h = HPolytope.planar([(vec(1, 0), 1), (vec(0, 1), 1), (vec(-1, -1), 1)])
        assert pm.halfplane_intersect(h) == T2

    def test_redundant_rows_eliminated(self):
        h = HPolytope.planar([(vec(1, 0), 1), (vec(-1, 0), 1), (vec(0, 1), 1),
                              (vec(0, -1), 1), (vec(1, 1), 5)])
        assert pm.halfplane_intersect(h) == SQUARE

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            pm.halfplane_intersect(HPolytope.planar([(vec(1, 0), 1), (vec(0, 1), 1)]))

    def test_empty(self):
        h = HPolytope.planar([(vec(1, 0), -2), (vec(-1, 0), -1),
                              (vec(0, 1), 1), (vec(0, -1), 1)])
        with pytest.raises(Empty):
            pm.halfplane_intersect(h)

    def test_lower_dimensional_is_empty(self):
        # x <= 0 and -x <= 0 pin a segment, not a body
        h = HPolytope.planar([(vec(1, 0), 0), (vec(-1, 0), 0),
                              (vec(0, 1), 1), (vec(0, -1), 1)])
        with pytest.raises(Empty):
            pm.halfplane_intersect(h)

    def test_empty_strip_without_other_rows_is_unbounded(self):
        # 1 <= x <= 0 is empty, but boundedness is decided first
        h = HPolytope.planar([(vec(1, 0), 0), (vec(-1, 0), -1)])
        with pytest.raises(Unbounded):
            pm.halfplane_intersect(h)

    def test_line_intersections_linear_in_rows(self, monkeypatch):
        # 64 edge rows of a rational 64-gon; all pairs would be 2016
        circle = [vec((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))
                  for s in (F(k, 8) for k in range(-32, 32))]
        poly = pm.convex_hull(circle)
        assert len(poly) == 64
        rows = pm.edge_halfplanes(poly)
        random.Random(64).shuffle(rows)
        calls = []
        inner = pm.core._line_intersection
        monkeypatch.setattr(pm.core, "_line_intersection",
                            lambda *a: calls.append(a) or inner(*a))
        assert pm.halfplane_intersect(HPolytope.planar(rows)) == poly
        assert len(calls) <= 2 * len(rows)

    def test_corner_on_the_row_line_fails_the_row(self):
        # the corner test is strict: a corner on the row's line is not inside
        # it, at any scale of the row or the triple; an interior one is
        for s in (1, 10**300):
            for row, corner in (((1, 0, 0), (0, 5, 1)), ((2, 3, 5), (1, 1, 1))):
                scaled = tuple(s * c for c in row), tuple(s * c for c in corner)
                assert pm.core._fails(*scaled)
                assert pm.core._fails(scaled[0], corner)
                assert pm.core._fails(row, scaled[1])
            assert not pm.core._fails((s, 0, s), (1, 7, 3))
            assert not pm.core._fails((1, 0, 1), (s, 7 * s, 3 * s))

    def test_line_intersection_is_a_lowest_terms_triple(self):
        # 2 x = 2 and -4 y = -8 cross at (1, 2), whichever row comes first
        assert pm.core._line_intersection((2, 0, 2), (0, -4, -8)) == (1, 2, 1)
        assert pm.core._line_intersection((0, -4, -8), (2, 0, 2)) == (1, 2, 1)

    def test_roundtrip_with_vertex_form(self):
        rng = random.Random(11)
        done = 0
        while done < 200:
            pts = rnd_points(rng, rng.randint(3, 8))
            try:
                poly = pm.convex_hull(pts)
            except DegenerateInput:
                continue
            h = HPolytope.planar(pm.edge_halfplanes(poly))
            assert pm.halfplane_intersect(h) == poly
            done += 1


class TestArea:
    def test_square(self):
        assert pm.area(SQUARE) == 4

    def test_extremal_triangle(self):
        assert pm.area(T23) == 10  # 2*t*s - s^2/2 at s=2, t=3

    def test_t11_by_hand(self):
        assert pm.area(T11) == F(3, 2)
        assert shoelace([(-1, 0), (0, -1), (1, 1)]) == F(3, 2)

    def test_matches_shoelace_oracle_on_random_polygons(self):
        rng = random.Random(2)
        for _ in range(50):
            try:
                poly = pm.convex_hull(rnd_points(rng, 7))
            except DegenerateInput:
                continue
            assert pm.area(poly) == shoelace([(v.x, v.y) for v in poly.vertices])

    @given(dx=rational, dy=rational, mu=st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    def test_translation_invariant_and_quadratic_scaling(self, dx, dy, mu):
        moved = pm.VPolygon([v + vec(dx, dy) for v in T23.vertices])
        assert pm.area(moved) == pm.area(T23)
        assert pm.area(pm.VPolygon([v * mu for v in T23.vertices])) == mu * mu * pm.area(T23)


class TestCentroid:
    def test_square(self):
        assert pm.centroid(SQUARE) == vec(0, 0)

    def test_triangles_vertex_average(self):
        for tri in (T2, T11):
            vs = tri.vertices
            avg = vec(sum(v.x for v in vs) / 3, sum(v.y for v in vs) / 3)
            assert pm.centroid(tri) == avg == vec(0, 0)

    def test_affine_equivariance(self):
        rng = random.Random(31)
        for _ in range(25):
            try:
                poly = pm.convex_hull(rnd_points(rng, 6))
            except DegenerateInput:
                continue
            a, b, c, d = (F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            if a * d - b * c == 0:
                continue
            shift = vec(rng.randint(-2, 2), rng.randint(-2, 2))
            T = pm.Transform2.linear(a, b, c, d, shift)
            mapped = pm.apply_transform(T, pm.Body.from_polygon(poly))
            assert pm.centroid(mapped.polygon) == T.apply_vec(pm.centroid(poly))


class TestContains:
    def test_boundary_point(self):
        assert pm.contains(SQUARE, vec(1, 0), "closed")
        assert not pm.contains(SQUARE, vec(1, 0), "open")

    def test_interior_centroid(self):
        assert pm.contains(T11, vec(0, 0), "open")

    def test_outside_top_edge(self):
        assert not pm.contains(T23, vec(0, 3), "closed")

    @given(p=point)
    def test_open_implies_closed(self, p):
        if pm.contains(T23, p, "open"):
            assert pm.contains(T23, p, "closed")


class TestClip:
    def test_half_square(self):
        left = pm.clip_halfplane(SQUARE, vec(1, 0), 0)
        assert pm.area(left) == 2

    def test_clip_misses_polygon(self):
        assert pm.clip_halfplane(SQUARE, vec(1, 0), -2) is None


class TestRationalStrings:
    def test_roundtrip(self):
        for s in ("3/4", "-7", "0", "22/7"):
            assert pm.rat_str(pm.rat(s)) == s

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            pm.rat("1.5")

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            pm.rat("1/0")

    def test_decimal_rendering(self):
        assert pm.dec_str(F(1, 3), 6) == "0.333333"
        assert pm.dec_str(F(-3, 2), 3) == "-1.500"
        assert pm.dec_str(F(10, 9) - F(10, 9), 6) == "0.000000"
