import gc
import hashlib
import json
import random
from fractions import Fraction as F

import pytest

import polarmin as pm
from polarmin import FamilySpec, OriginNotInterior, ZeroNormal, minima, vec
from polarmin.verify import PI_LOWER, THEOREM_CHECKS, builtin_family_grid, \
    random_normals, standard_checks

from test_body import random_origin_interior_body, random_unimodular

SQUARE = pm.make(FamilySpec("cube"))
CROSS = pm.make(FamilySpec("cross"))
T11 = pm.make(FamilySpec("T_st", {"s": 1, "t": 1}))
T23 = pm.make(FamilySpec("T_st", {"s": 2, "t": 3}))
S2 = pm.make(FamilySpec("S_n"))
T2 = pm.make(FamilySpec("T_n"))


def by_id(reports, check_id):
    return [r for r in reports if r.check_id == check_id]


class TestMinkowski:
    def test_square_attains_upper(self):
        lower, upper = pm.check_minkowski(SQUARE)
        assert (upper.lhs, upper.rhs, upper.equality) == (4, 4, True)
        assert lower.holds and not lower.equality

    def test_cross_attains_lower(self):
        lower, upper = pm.check_minkowski(CROSS)
        assert (lower.lhs, lower.rhs, lower.equality) == (2, 2, True)
        assert upper.holds

    def test_t11_values(self):
        lower, upper = pm.check_minkowski(T11)
        assert (lower.rhs, lower.lhs, upper.rhs) == (F(9, 8), F(3, 2), F(9, 4))
        assert lower.holds and upper.holds


class TestPlanarMain:
    def test_extremal_triangle_equality(self):
        rep = pm.check_planar_main(T23)
        assert rep.lhs == rep.rhs == 10 and rep.equality

    def test_quadrilateral_strict(self):
        rep = pm.check_planar_main(pm.make(FamilySpec("Q_quad", {"t": 1})))
        assert (rep.lhs, rep.rhs, rep.equality) == (2, F(3, 2), False)
        assert rep.holds

    def test_square_value(self):
        rep = pm.check_planar_main(SQUARE)
        assert (rep.lhs, rep.rhs) == (4, F(3, 2)) and rep.holds


class TestUpperBounds:
    def test_square_attains_symmetric_bound(self):
        rep = pm.check_upper_sym(SQUARE)
        assert rep.lhs == rep.rhs == 4 and rep.equality

    def test_t23_symmetric_bound(self):
        rep = pm.check_upper_sym(T23)
        assert (rep.lhs, rep.rhs) == (10, 24) and rep.holds

    def test_t11_symmetric_bound(self):
        rep = pm.check_upper_sym(T11)
        assert (rep.lhs, rep.rhs) == (F(3, 2), 4) and rep.holds

    def test_t2_attains_centered_bound(self):
        rep = pm.check_upper_centered(T2)
        assert rep.lhs == rep.rhs == F(9, 2) and rep.equality

    def test_t11_centered(self):
        rep = pm.check_upper_centered(T11)
        assert (rep.lhs, rep.rhs) == (F(3, 2), F(9, 2)) and rep.holds

    def test_square_centered(self):
        rep = pm.check_upper_centered(SQUARE)
        assert (rep.lhs, rep.rhs) == (4, F(9, 2)) and rep.holds


class TestConjectureFamily:
    def test_square_mahler_equality(self):
        reps = by_id(pm.conjecture_report(SQUARE), "eq_1_2")
        assert len(reps) == 1 and reps[0].lhs == 8 and reps[0].equality

    def test_simplex_mahler_equality(self):
        reps = by_id(pm.conjecture_report(S2), "eq_1_3")
        assert reps[0].lhs == F(27, 4) and reps[0].equality

    def test_t11_eggleston_equality(self):
        reps = by_id(pm.conjecture_report(T11), "eq_1_8")
        assert reps[0].lhs == 6 and reps[0].equality

    def test_symmetric_only_bounds_gated(self):
        ids = [r.check_id for r in pm.conjecture_report(T11)]
        assert "eq_1_2" not in ids and "eq_1_4" not in ids
        ids_sym = [r.check_id for r in pm.conjecture_report(SQUARE)]
        assert "eq_1_2" in ids_sym and "eq_1_4" in ids_sym

    def test_kuperberg_bound_is_approximate_and_sound(self):
        rep = by_id(pm.conjecture_report(T11), "eq_1_9")[0]
        assert not rep.exact
        assert rep.meta["pi_lower_bound"] == "62831853/20000000"
        assert PI_LOWER < F(3141592653589794, 10**15)
        assert rep.holds

    def test_kuperberg_verdict_is_decided_at_the_upper_pi_bound(self, monkeypatch):
        # holds is certified against PI_UPPER >= pi, while lhs, rhs and slack
        # stay on PI_LOWER: a huge upper bound flips the verdict alone
        assert pm.verify.PI_UPPER > F(3141592653589794, 10**15)
        before = by_id(pm.conjecture_report(T11), "eq_1_9")[0]
        monkeypatch.setattr(pm.verify, "PI_UPPER", F(100))
        after = by_id(pm.conjecture_report(T11), "eq_1_9")[0]
        assert before.holds and not after.holds
        changed = {k for k in before.to_json() if before.to_json()[k] != after.to_json()[k]}
        assert changed == {"holds"}

    def test_simplex_product_bound_equality(self):
        # the balanced simplex attains the product form of Makai's bound
        rep = by_id(pm.conjecture_report(S2), "eq_1_6")[0]
        assert rep.lhs == rep.rhs == F(3, 2) and rep.equality

    def test_all_hold_on_random_bodies(self):
        rng = random.Random(211)
        for _ in range(40):
            K = random_origin_interior_body(rng)
            for rep in pm.conjecture_report(K):
                assert rep.holds, rep


class TestPropSucc:
    def test_symmetric_equality(self):
        r1, r2 = pm.check_prop_succ(SQUARE)
        assert r1.equality and r2.equality

    def test_t11_equality(self):
        r1, r2 = pm.check_prop_succ(T11)
        assert (r1.lhs, r1.rhs) == (1, 1) and (r2.lhs, r2.rhs) == (1, 1)

    def test_translated_t11_strict_first_minimum(self):
        shifted = pm.translate(T11, vec(0, F(1, 4)))
        r1, r2 = pm.check_prop_succ(shifted)
        assert r1.lhs <= F(3, 4) < 1 == r1.rhs
        assert not r1.equality and r1.holds and r2.holds

    def test_requires_interior_origin(self):
        with pytest.raises(OriginNotInterior):
            pm.check_prop_succ(pm.translate(SQUARE, vec(5, 5)))


class TestGrunbaum:
    def test_half_square(self):
        rep = pm.check_grunbaum(SQUARE, pm.E1)
        assert (rep.lhs, rep.rhs) == (2, F(16, 9)) and rep.holds

    def test_t2_vertical_cut(self):
        rep = pm.check_grunbaum(T2, pm.E1)
        assert (rep.lhs, rep.rhs) == (F(5, 2), 2) and rep.holds

    def test_t2_diagonal_cut(self):
        assert pm.check_grunbaum(T2, vec(1, 1)).holds

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroNormal):
            pm.check_grunbaum(SQUARE, vec(0, 0))

    def test_cut_plus_complement_is_whole(self):
        rng = random.Random(223)
        for _ in range(20):
            K = random_origin_interior_body(rng)
            a = vec(rng.randint(-4, 4), rng.randint(-4, 4))
            if a.is_zero():
                continue
            plus = pm.check_grunbaum(K, a).lhs
            minus = pm.check_grunbaum(K, -a).lhs
            assert plus + minus == K.volume()


class TestUnboundedDemo:
    def test_table(self):
        rows = pm.unbounded_demo([1, 2, 10])
        assert [r["vol"] for r in rows] == [8, 18, 242]
        assert all(r["lambda"] == (1, 1) for r in rows)


class TestSuiteInvariants:
    def test_every_check_holds_on_corpus_sample(self, corpus60):
        normals = random_normals("sample", 20)
        for K in corpus60:
            for rep in standard_checks(K, normals):
                assert rep.holds, (rep, pm.body_to_json(K))

    def test_shifted_body_certifies_each_polygon_once(self, monkeypatch, corpus60):
        # cs(K), cs(K)° and (K - centroid)° are the only polygons whose
        # minima the checks need, however often each check re-centers K
        calls = []
        certify = minima._certify
        monkeypatch.setattr(minima, "_certify",
                            lambda K: calls.append(K.polygon) or certify(K))
        shifted = pm.translate(corpus60[0], vec(5, 0))
        assert not shifted.contains_origin("open")
        standard_checks(shifted, random_normals("shift", 20))
        assert len(calls) == len(set(calls)) == 3

    def test_symmetric_body_certifies_each_polygon_once(self, monkeypatch):
        # K = -K is its own symmetral, so cs(K)° is K° and only K and K°
        # are certified
        calls = []
        certify = minima._certify
        monkeypatch.setattr(minima, "_certify",
                            lambda K: calls.append(K.polygon) or certify(K))
        r30 = pm.Body.from_points([vec(30, F(1, 30)), vec(-30, F(1, 30)),
                                   vec(-30, F(-1, 30)), vec(30, F(-1, 30))])
        for K in (pm.make(FamilySpec("cube")), r30):
            calls.clear()
            standard_checks(K, random_normals("symmetric", 4))
            assert len(calls) == len(set(calls)) == 2
            assert pm.central_symmetral(K) is K

    def test_checks_and_descents_leave_no_reference_cycles(self, corpus60):
        # no memo refers back to its body (a polar to the body it is the
        # polar of, a centroid-0 body to itself), so reference counting
        # frees bodies, memos and candidates without the cycle collector
        gc.collect()
        gc.disable()
        try:
            for K in corpus60[:5]:
                for body in (pm.Body(poly=K.polygon), pm.translate(K, vec(5, F(-2, 3)))):
                    standard_checks(body, random_normals("cycles", 4))
            del body
            for seed in range(4):
                cand = pm.search.sample_feasible(random.Random(f"cycles-{seed}"), 1)
                pm.descend(cand, 20)
            del cand
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_each_body_area_computed_once(self, monkeypatch, corpus60):
        # K, K° and cs(K)° each have their area taken once (K is centered),
        # and each Grünbaum cut is one integer cut sum by the negated integer
        # normal, with no clipped polygon
        calls = []
        inner = pm.core.area
        monkeypatch.setattr(pm.core, "area", lambda p: calls.append(p) or inner(p))
        clips = []
        clip = pm.core.clip_halfplane
        monkeypatch.setattr(pm.core, "clip_halfplane",
                            lambda *a: clips.append(a) or clip(*a))
        cuts = []
        cut = pm.verify._cut_area
        monkeypatch.setattr(pm.verify, "_cut_area", lambda *a: cuts.append(a) or cut(*a))
        K = pm.Body(poly=corpus60[0].polygon)
        assert pm.centered(K) is K
        normals = random_normals("areas", 20)
        standard_checks(K, normals)
        assert clips == []
        assert cuts == [(K.polygon, -int(a.x), -int(a.y), 0) for a in normals]
        bodies = [K.polygon, pm.polar(K).polygon,
                  pm.polar(pm.central_symmetral(K)).polygon]
        assert len(calls) == 3 and set(calls) == set(bodies)

    def test_reports_match_recorded_digest(self):
        # every report, Grünbaum cut areas included, of 40 corpus bodies and
        # the family grid with 20 normals each
        bodies = pm.random_bodies(7, 40) + [K for _, K in builtin_family_grid()]
        reports = [[r.to_json() for r in standard_checks(K, random_normals(i, 20))]
                   for i, K in enumerate(bodies)]
        assert sum(r["check"] == "gruenbaum" for rs in reports for r in rs) == 1100
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "a1feadae68685b5bb71140b608670facb4335c0f742ee83eded82a7b3f8fa02c"

    def test_checks_of_a_centered_body_build_no_hull(self, monkeypatch, corpus60):
        # each Grünbaum cut is a sum over the kept vertices and crossings,
        # and every polar and symmetral is read off edges, so no check hulls
        # a point set
        calls = []
        inner = pm.core.convex_hull
        counted = lambda pts: calls.append(pts) or inner(pts)
        monkeypatch.setattr(pm.core, "convex_hull", counted)
        monkeypatch.setattr(pm.verify, "convex_hull", counted)
        K = pm.Body(poly=corpus60[0].polygon)
        assert pm.centered(K) is K
        assert len(standard_checks(K, random_normals("hulls", 20))) > 20
        assert calls == []

    def test_rational_checks_are_exact(self):
        for rep in standard_checks(T23, [pm.E1]):
            assert rep.exact == (rep.check_id != "eq_1_9")

    def test_equality_hits_on_family_grid(self):
        triangles = {"T_st(1,1)", "T_st(1,2)", "T_st(2,3)", "T_st(1/2,5)",
                     "T_st(3,7)", "S2", "T2", "T_of_s(2)", "Tri_case2(1)",
                     "Tri_case2(3/2)"}
        hits = {}
        for label, K in builtin_family_grid():
            for rep in standard_checks(K, [pm.E1]):
                if rep.equality and rep.check_id != "gruenbaum":
                    hits.setdefault(rep.check_id, set()).add(label)
        # the sharp planar bound: exactly the extremal triangles and their
        # unimodular relatives (S2 is one; balanced two-contact triangles too)
        assert hits["eq_1_7_main"] == {
            "T_st(1,1)", "T_st(1,2)", "T_st(2,3)", "T_st(1/2,5)", "T_st(3,7)",
            "S2", "Tri_case2(1)", "Tri_case2(3/2)"}
        assert hits["eq_1_10"] == {"C2"}
        # T_of_s(2) recentered is exactly 2*T2, a homothet of the extremal body
        assert hits["eq_1_11"] == {"T2", "T_of_s(2)"}
        # Eggleston: every triangle in the grid, nothing else
        assert hits["eq_1_8"] == triangles
        assert "C2" in hits["eq_1_1_upper"]
        assert "cross2" in hits["eq_1_1_lower"]
        assert not (hits["eq_1_1_upper"] & triangles)

    # The symmetral-based and internally-centered checks are invariant under
    # unimodular maps AND translations; the polar-of-K checks depend on the
    # origin position by design (the strict-vs-equality witness for
    # prop_2_1 is exactly a translate), so for those only the unimodular
    # part applies.
    TRANSLATION_STABLE = {"eq_1_1_lower", "eq_1_1_upper", "eq_1_5", "eq_1_6",
                          "eq_1_7_main", "eq_1_8", "eq_1_9", "eq_1_10", "eq_1_11"}

    def test_verdicts_invariant_under_unimodular_maps(self):
        rng = random.Random(227)
        for K in (T23, SQUARE, pm.make(FamilySpec("Q_quad", {"t": 2}))):
            base = [(r.check_id, r.holds, r.equality)
                    for r in standard_checks(K, [])]
            for _ in range(3):
                T = random_unimodular(rng)
                moved = pm.apply_transform(T, K)
                got = [(r.check_id, r.holds, r.equality)
                       for r in standard_checks(moved, [])]
                assert got == base

    def test_verdicts_invariant_under_translations(self):
        rng = random.Random(229)
        for K in (T23, SQUARE, pm.make(FamilySpec("Q_quad", {"t": 2}))):
            base = [(r.check_id, r.holds, r.equality)
                    for r in standard_checks(K, [])
                    if r.check_id in self.TRANSLATION_STABLE]
            for _ in range(3):
                shift = vec(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2))
                got = [(r.check_id, r.holds, r.equality)
                       for r in standard_checks(pm.translate(K, shift), [])
                       if r.check_id in self.TRANSLATION_STABLE]
                assert got == base
                # verdicts of the origin-sensitive checks still hold
                for r in standard_checks(pm.translate(K, shift), []):
                    assert r.holds

    def test_report_json_shape(self):
        rep = pm.check_planar_main(T23)
        doc = rep.to_json()
        assert doc == {"check": "eq_1_7_main", "lhs": "10", "rhs": "10",
                       "relation": "ge", "holds": True, "equality": True,
                       "slack": "0", "exact": True}

    def test_verify_suite_summary(self):
        summary = pm.verify_suite(seed=3, count=12)
        assert summary["violations"] == []
        assert summary["bodies"] == 12 + len(builtin_family_grid())
        assert "eq_1_10" in summary["equality_hits"]

    def test_theorem_check_ids_known(self):
        assert "eq_1_7_main" in THEOREM_CHECKS and "eq_1_9" not in THEOREM_CHECKS
