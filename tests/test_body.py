import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import polarmin as pm
from polarmin import Body, OriginNotInterior, SingularTransform, vec

from oracles import edge_gauge

SQUARE = Body.from_points([vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)])
CROSS = Body.from_points([vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
T11 = Body.from_points([vec(-1, 0), vec(1, 1), vec(0, -1)])
T23 = Body.from_points([vec(-2, 1), vec(2, 3), vec(0, -3)])

FIG1_HEXAGON = {vec(F(2, 5), F(1, 5)), vec(F(-1, 5), F(2, 5)), vec(F(-3, 5), F(1, 5)),
                vec(F(-2, 5), F(-1, 5)), vec(F(1, 5), F(-2, 5)), vec(F(3, 5), F(-1, 5))}


def random_origin_interior_body(rng, span=6):
    while True:
        pts = [vec(F(rng.randint(-span, span), rng.randint(1, 4)),
                   F(rng.randint(-span, span), rng.randint(1, 4)))
               for _ in range(rng.randint(3, 7))]
        try:
            poly = pm.convex_hull(pts)
        except pm.DegenerateInput:
            continue
        K = pm.translate(Body.from_polygon(poly), -pm.centroid(poly))
        return K


def random_unimodular(rng) -> pm.Transform2:
    # product of elementary shears and signed swaps
    m = ((F(1), F(0)), (F(0), F(1)))

    def mul(m1, m2):
        (a, b), (c, d) = m1
        (e, f), (g, h) = m2
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        which = rng.randint(0, 2)
        if which == 0:
            m = mul(m, ((F(1), F(k)), (F(0), F(1))))
        elif which == 1:
            m = mul(m, ((F(1), F(0)), (F(k), F(1))))
        else:
            m = mul(m, ((F(0), F(-1)), (F(1), F(0))))
    return pm.Transform2(m)


class TestSupport:
    def test_square(self):
        assert pm.support(SQUARE, vec(1, 2)) == 3  # attained at (1, 1)

    def test_t11(self):
        assert pm.support(T11, pm.E1) == 1  # max of {-1, 1, 0}

    def test_t23(self):
        assert pm.support(T23, -pm.E2) == 3  # attained at (0, -3)


class TestPolar:
    def test_cross_square_duality(self):
        assert pm.polar(CROSS) == SQUARE
        assert pm.polar(SQUARE) == CROSS

    def test_t11(self):
        assert pm.polar(T11).polygon.vertex_set() == {vec(-1, -1), vec(-1, 2), vec(2, -1)}

    def test_fig1_hexagon(self):
        hexagon = pm.polar(pm.central_symmetral(T23))
        assert hexagon.polygon.vertex_set() == FIG1_HEXAGON

    def test_bipolar_identity(self):
        rng = random.Random(17)
        for _ in range(40):
            K = random_origin_interior_body(rng)
            assert pm.polar(pm.polar(K)) == K

    def test_bipolar_without_memo(self):
        # rebuild the polar from scratch so the cached back-pointer cannot help
        K = T11
        dual = Body.from_points(pm.polar(K).polygon.vertices)
        assert pm.polar(dual) == K

    def test_origin_must_be_interior(self):
        shifted = pm.translate(SQUARE, vec(5, 0))
        with pytest.raises(OriginNotInterior):
            pm.polar(shifted)

    def test_polar_leaves_gauge_rows_unbuilt(self):
        # the gauge rows of K are no memo of their own: they are the integer
        # form that polar(K) is born with, and the minima of K° take gauges
        # of K° alone
        K = pm.apply_transform(pm.Transform2.linear(1, 0, 7, 1), T23)
        cert = pm.successive_minima(pm.polar(K))
        assert pm.body.gauge_rows(K) is pm.polar(K).polygon._integer
        assert cert.to_json() == {"lambda": ["2", "3"], "witnesses": [[1, 0], [5, -1]],
                                  "radius": "11", "extents": ["15/4", "1/2"]}
        assert cert.basis == (vec(1, 0), vec(-8, 1))


class TestGauge:
    def test_square(self):
        assert pm.gauge(SQUARE, vec(3, 0)) == 3

    def test_fig1_hexagon_axes(self):
        hexagon = pm.polar(pm.central_symmetral(T23))
        assert pm.gauge(hexagon, pm.E1) == 2
        assert pm.gauge(hexagon, pm.E2) == 3

    def test_zero_iff_zero(self):
        assert pm.gauge(T11, vec(0, 0)) == 0
        assert pm.gauge(T11, vec(0, F(1, 7))) > 0

    def test_equals_support_of_polar_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(100):
            K = random_origin_interior_body(rng)
            x = vec(F(rng.randint(-9, 9), rng.randint(1, 5)),
                    F(rng.randint(-9, 9), rng.randint(1, 5)))
            assert pm.gauge(K, x) == pm.support(pm.polar(K), x)

    def test_membership_definition_oracle(self):
        # x / gauge(x) is a boundary point: closed member, not open member
        rng = random.Random(29)
        for _ in range(40):
            K = random_origin_interior_body(rng)
            x = vec(rng.randint(-5, 5), rng.randint(-5, 5))
            if x.is_zero():
                continue
            g = pm.gauge(K, x)
            b = x * (1 / g)
            assert pm.contains(K.polygon, b, "closed")
            assert not pm.contains(K.polygon, b, "open")

    def test_matches_edge_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            K = random_origin_interior_body(rng)
            coords = [(v.x, v.y) for v in K.polygon.vertices]
            x = vec(rng.randint(-6, 6), rng.randint(-6, 6))
            assert pm.gauge(K, x) == edge_gauge(coords, (x.x, x.y))

    @given(lam=st.builds(F, st.integers(0, 12), st.integers(1, 4)))
    def test_positive_homogeneity(self, lam):
        x = vec(F(3, 2), F(-5, 7))
        assert pm.gauge(T11, lam * x) == lam * pm.gauge(T11, x)

    def test_triangle_inequality_random(self):
        rng = random.Random(53)
        for _ in range(60):
            K = random_origin_interior_body(rng)
            x = vec(F(rng.randint(-8, 8), rng.randint(1, 4)), F(rng.randint(-8, 8), rng.randint(1, 4)))
            y = vec(F(rng.randint(-8, 8), rng.randint(1, 4)), F(rng.randint(-8, 8), rng.randint(1, 4)))
            assert pm.gauge(K, x + y) <= pm.gauge(K, x) + pm.gauge(K, y)


class TestPolarSupportBiconditional:
    def test_membership_iff_support_bound(self):
        # y in lam*K° iff support(K, y) <= lam
        rng = random.Random(59)
        for _ in range(80):
            K = random_origin_interior_body(rng)
            y = vec(F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
            lam = F(rng.randint(1, 8), rng.randint(1, 4))
            in_dilate = pm.contains(pm.scale(pm.polar(K), lam).polygon, y, "closed")
            assert in_dilate == (pm.support(K, y) <= lam)


class TestCentralSymmetral:
    def test_fixed_point_on_symmetric_body(self):
        assert pm.central_symmetral(SQUARE) == SQUARE

    def test_t11_hexagon(self):
        expected = set()
        for p in (vec(1, F(1, 2)), vec(F(1, 2), 1), vec(F(-1, 2), F(1, 2))):
            expected.update({p, -p})
        assert pm.central_symmetral(T11).polygon.vertex_set() == expected

    def test_t23_hexagon(self):
        expected = set()
        for p in (vec(2, 1), vec(1, 3), vec(-1, 2)):
            expected.update({p, -p})
        assert pm.central_symmetral(T23).polygon.vertex_set() == expected

    def test_translation_invariance(self):
        rng = random.Random(61)
        for _ in range(30):
            K = random_origin_interior_body(rng)
            v = vec(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
            assert pm.central_symmetral(pm.translate(K, v)) == pm.central_symmetral(K)


class TestApplyTransform:
    def test_identity(self):
        assert pm.apply_transform(pm.Transform2.identity(), SQUARE) == SQUARE

    def test_doubling(self):
        doubled = pm.apply_transform(pm.Transform2.linear(2, 0, 0, 2), SQUARE)
        assert doubled.polygon.vertex_set() == {vec(2, 2), vec(-2, 2), vec(-2, -2), vec(2, -2)}
        assert doubled.volume() == 16

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            pm.apply_transform(pm.Transform2.linear(1, 2, 2, 4), SQUARE)

    def test_gauge_duality_under_unimodular_maps(self):
        # gauge(T(K)°, z) = gauge(K°, T^t z) for linear T
        rng = random.Random(67)
        for _ in range(40):
            K = random_origin_interior_body(rng)
            T = random_unimodular(rng)
            z = vec(rng.randint(-4, 4), rng.randint(-4, 4))
            mapped = pm.apply_transform(T, K)
            assert pm.gauge(pm.polar(mapped), z) == pm.gauge(pm.polar(K), T.transpose_linear(z))


class TestGaugeCsIdentity:
    def test_symmetric_body(self):
        x = vec(F(2, 3), F(-1, 2))
        left, right = pm.gauge_cs_identity(SQUARE, x)
        assert left == right == pm.gauge(pm.polar(SQUARE), x)

    def test_t11_axis(self):
        assert pm.gauge_cs_identity(T11, pm.E1) == (1, 1)

    def test_translation_cancels(self):
        shifted = pm.translate(T23, vec(0, F(1, 4)))
        left, right = pm.gauge_cs_identity(shifted, pm.E2)
        assert left == right == 3

    def test_random_bodies(self):
        rng = random.Random(71)
        for _ in range(60):
            K = random_origin_interior_body(rng)
            x = vec(F(rng.randint(-7, 7), rng.randint(1, 4)), F(rng.randint(-7, 7), rng.randint(1, 4)))
            left, right = pm.gauge_cs_identity(K, x)
            assert left == right


class TestEqualityGaugeBiconditional:
    def test_biconditional_on_random_pairs(self):
        rng = random.Random(73)
        checked_equal = 0
        for i in range(120):
            K = random_origin_interior_body(rng)
            if i % 3 == 0:
                # collinear pair: additivity holds on both sides
                x = vec(rng.randint(1, 4), rng.randint(-3, 3))
                y = x * F(rng.randint(1, 3))
            else:
                x = vec(rng.randint(-4, 4), rng.randint(-4, 4))
                y = vec(rng.randint(-4, 4), rng.randint(-4, 4))
            cs_dual = pm.polar(pm.central_symmetral(K))
            dual = pm.polar(K)
            lhs_additive = pm.gauge(cs_dual, x + y) == pm.gauge(cs_dual, x) + pm.gauge(cs_dual, y)
            rhs_additive = (
                pm.gauge(dual, x + y) == pm.gauge(dual, x) + pm.gauge(dual, y)
                and pm.gauge(dual, -(x + y)) == pm.gauge(dual, -x) + pm.gauge(dual, -y))
            assert lhs_additive == rhs_additive
            checked_equal += lhs_additive
        assert checked_equal > 0  # the equality branch was actually exercised


class TestCentered:
    def test_centroid_zero_body_is_returned_as_is(self):
        K = pm.random_bodies(3, 1)[0]
        assert pm.centered(K) is K

    def test_translate_is_memoized_and_shares_the_symmetral(self):
        K = pm.random_bodies(3, 1)[0]
        moved = pm.translate(K, vec(5, F(-2, 3)))
        Kc = pm.centered(moved)
        assert Kc is pm.centered(moved) and pm.centered(Kc) is Kc
        assert Kc.polygon == K.polygon
        assert pm.central_symmetral(Kc) is pm.central_symmetral(moved)
        assert pm.central_symmetral(Kc).polygon == \
            pm.central_symmetral(pm.Body(poly=Kc.polygon)).polygon


class TestBodyEquality:
    def test_non_planar_bodies_compare_by_dim_family_and_hrep(self):
        cube3 = pm.make(pm.FamilySpec("cube", {}, 3))
        assert cube3 == cube3 == pm.make(pm.FamilySpec("cube", {}, 3))
        assert hash(cube3) == hash(pm.make(pm.FamilySpec("cube", {}, 3)))
        assert cube3 != pm.make(pm.FamilySpec("cube", {}, 4))
        assert cube3 != pm.Body(hrep=cube3._hrep, dim=3)  # no provenance
        t_of_s = pm.make(pm.FamilySpec("T_of_s", {"s": 2}, 3))
        assert t_of_s != pm.make(pm.FamilySpec("T_of_s", {"s": 3}, 3))
        assert len({cube3, pm.make(pm.FamilySpec("cube", {}, 3)), t_of_s}) == 2
        assert cube3 != SQUARE


class TestBodyJson:
    def test_vpoly_roundtrip_bit_exact(self):
        doc = pm.body_to_json(T23)
        assert pm.body_from_json(doc) == T23
        assert pm.body_to_json(pm.body_from_json(doc)) == doc

    def test_family_provenance(self):
        K = pm.make(pm.FamilySpec("T_st", {"s": 2, "t": 3}))
        doc = pm.body_to_json(K)
        assert doc == {"type": "family", "name": "T_st",
                       "params": {"s": "2", "t": "3"}, "dim": 2}
        assert pm.body_from_json(doc) == K

    def test_hpoly_roundtrip(self):
        K = pm.make(pm.FamilySpec("cube", dim=3))
        doc = pm.body_to_json(K)
        K2 = pm.body_from_json(pm.body_to_json(pm.Body(hrep=K._hrep, dim=3)))
        assert K2._hrep == K._hrep

    def test_rejects_interior_vertex(self):
        doc = {"type": "vpoly", "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1/4", "1/4"]]}
        with pytest.raises(pm.DegenerateInput):
            pm.body_from_json(doc)
