import math
from fractions import Fraction as F

import pytest

import polarmin as pm
from polarmin import BadParams, FamilySpec, NoClosedForm, vec


def body(name, params=None, dim=2):
    return pm.make(FamilySpec(name, params or {}, dim))


PLANAR_GRID = [
    FamilySpec("T_st", {"s": 1, "t": 1}),
    FamilySpec("T_st", {"s": 1, "t": 2}),
    FamilySpec("T_st", {"s": 2, "t": 3}),
    FamilySpec("T_st", {"s": F(1, 2), "t": 5}),
    FamilySpec("cube"),
    FamilySpec("cross"),
    FamilySpec("S_n"),
    FamilySpec("T_n"),
    FamilySpec("T_of_s", {"s": 1}),
    FamilySpec("T_of_s", {"s": 2}),
    FamilySpec("Q_quad", {"t": 1}),
    FamilySpec("Q_quad", {"t": 2, "t1": F(1, 4)}),
    FamilySpec("Tri_case2", {"t": 1}),
    FamilySpec("Tri_case2", {"t": F(3, 2), "t1": F(1, 2), "t2": F(5, 6)}),
]


class TestMake:
    def test_extremal_triangle(self):
        assert body("T_st", {"s": 2, "t": 3}).polygon.vertex_set() == \
            {vec(-2, 1), vec(2, 3), vec(0, -3)}

    def test_quadrilateral(self):
        assert body("Q_quad", {"t": 1, "t1": 1, "t2": 1}).polygon.vertex_set() == \
            {vec(1, 0), vec(-1, 1), vec(-1, 0), vec(1, -1)}

    def test_case2_triangle(self):
        assert body("Tri_case2", {"t": 1, "t1": 1, "t2": 1}).polygon.vertex_set() == \
            {vec(1, 1), vec(-1, 0), vec(0, -1)}

    def test_simplex_with_centroid_zero(self):
        s2 = body("S_n")
        assert s2.polygon.vertex_set() == {vec(1, 0), vec(0, 1), vec(-1, -1)}
        assert pm.centroid(s2.polygon) == vec(0, 0)

    def test_tn_matches_halfplane_form(self):
        assert body("T_n").polygon.vertex_set() == {vec(1, 1), vec(1, -2), vec(-2, 1)}

    def test_t_of_s_vertices(self):
        assert body("T_of_s", {"s": 2}).polygon.vertex_set() == \
            {vec(1, 1), vec(1, -5), vec(-5, 1)}

    def test_polar_of_s2_is_t2(self):
        assert pm.polar(body("S_n")) == body("T_n")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            body("T_st", {"s": 3, "t": 2})  # needs t >= s
        with pytest.raises(BadParams):
            body("T_of_s", {"s": F(1, 2)})
        with pytest.raises(BadParams):
            body("Q_quad", {"t": 2, "t1": 1, "t2": 1})  # t1+t2 != 2/t
        with pytest.raises(BadParams):
            body("nonesuch")

    def test_default_split_is_balanced(self):
        q = body("Q_quad", {"t": 2})
        assert q.family[1]["t1"] == q.family[1]["t2"] == F(1, 2)


class TestFamilyContract:
    PLANAR_PARAMS = {"T_st": {"s": 1, "t": 2}, "Q_quad": {"t": 1}, "Tri_case2": {"t": 1}}

    def test_planar_families_refuse_dimension_three_first(self):
        # "is planar" comes before any parameter check, and only from make
        for name, params in self.PLANAR_PARAMS.items():
            with pytest.raises(BadParams, match=f"^{name} is planar$"):
                body(name, {}, 3)
            spec = FamilySpec(name, params, 3)
            assert pm.closed_form_volume(spec) == pm.closed_form_volume(FamilySpec(name, params))

    def test_other_families_refuse_dimension_one(self):
        for name in set(pm.FAMILY_NAMES) - set(self.PLANAR_PARAMS):
            with pytest.raises(BadParams, match=f"^family {name} needs dimension >= 2$"):
                body(name, {"s": 1}, 1)

    def test_simplex_has_no_stated_minima_at_any_dimension(self):
        for dim in (1, 2, 3, 4):
            with pytest.raises(NoClosedForm):
                pm.closed_form_minima(FamilySpec("S_n", dim=dim))

    def test_renamed_spec_is_unknown_to_every_reader(self):
        # FamilySpec is mutable; a name changed after construction must not
        # fall through to another family's record
        for name, params in [("cube", {}), ("Tri_case2", {"t": 1})]:
            spec = FamilySpec(name, params)
            spec.name = "nonesuch"
            for reader in (pm.make, pm.closed_form_volume, pm.closed_form_minima):
                with pytest.raises(BadParams, match="^unknown family 'nonesuch'$"):
                    reader(spec)

    def test_t_n_is_t_of_s_at_one_half(self):
        for dim in (2, 3, 4):
            t_n = FamilySpec("T_n", dim=dim)
            assert pm.closed_form_volume(t_n) == F(dim + 1) ** dim / math.factorial(dim)
            assert pm.make(t_n)._hrep.rows[-1][1] == 1


class TestClosedFormVolume:
    def test_extremal_triangle_formula(self):
        assert pm.closed_form_volume(FamilySpec("T_st", {"s": 2, "t": 3})) == 10

    def test_tn_dimension_two(self):
        assert pm.closed_form_volume(FamilySpec("T_n")) == F(9, 2)

    def test_quadrilateral(self):
        assert pm.closed_form_volume(FamilySpec("Q_quad", {"t": 1})) == 2

    def test_matches_area_on_planar_grid(self):
        for spec in PLANAR_GRID:
            assert pm.closed_form_volume(spec) == pm.make(spec).volume(), spec

    def test_higher_dimension_values(self):
        assert pm.closed_form_volume(FamilySpec("cube", dim=4)) == 16
        assert pm.closed_form_volume(FamilySpec("cross", dim=3)) == F(8, 6)
        assert pm.closed_form_volume(FamilySpec("S_n", dim=3)) == F(4, 6)
        assert pm.closed_form_volume(FamilySpec("T_n", dim=3)) == F(64, 6)
        assert pm.closed_form_volume(FamilySpec("T_of_s", {"s": 2}, dim=3)) == F(343, 6)


class TestClosedFormMinima:
    def test_extremal_triangle(self):
        assert pm.closed_form_minima(FamilySpec("T_st", {"s": 2, "t": 3})) == (2, 3)

    def test_t_of_s_all_ones(self):
        assert pm.closed_form_minima(FamilySpec("T_of_s", {"s": 10})) == (1, 1)

    def test_cube(self):
        assert pm.closed_form_minima(FamilySpec("cube")) == (1, 1)

    def test_no_closed_form_for_simplex(self):
        with pytest.raises(NoClosedForm):
            pm.closed_form_minima(FamilySpec("S_n"))

    def test_matches_computation_on_planar_grid(self):
        for spec in PLANAR_GRID:
            try:
                stated = pm.closed_form_minima(spec)
            except NoClosedForm:
                continue
            K = pm.make(spec)
            if pm.MINIMA_REFERENCE[spec.name] == "cs_polar":
                ref = pm.polar(pm.central_symmetral(K))
            else:
                ref = pm.polar(K)
            assert pm.successive_minima(ref).lambdas == stated, spec


class TestFamilyRelations:
    def test_t_of_s_minima_fixed_volume_unbounded(self):
        vols = []
        for s in (1, 2, 10):
            spec = FamilySpec("T_of_s", {"s": s})
            K = pm.make(spec)
            assert pm.successive_minima(pm.polar(K)).lambdas == (1, 1)
            vols.append(pm.closed_form_volume(spec))
            assert vols[-1] == 2 * (F(s) + 1) ** 2
        assert vols == sorted(vols) and len(set(vols)) == 3

    def test_balanced_case2_triangle_attains_sharp_volume(self):
        for t in (1, F(3, 2), 2, 3):
            spec = FamilySpec("Tri_case2", {"t": t})
            assert pm.closed_form_volume(spec) == 2 / F(t) - 1 / (2 * F(t) ** 2)
            # and it is a unimodular translate of the extremal family member
            K = pm.make(spec)
            form = pm.normalize_to_At(K)
            assert form.t == t
            assert form.body.volume() == K.volume()

    def test_quadrilateral_volume_independent_of_split(self):
        for t1 in (F(1, 4), F(1, 2), F(3, 4)):
            spec = FamilySpec("Q_quad", {"t": 2, "t1": t1})
            assert pm.make(spec).volume() == F(3, 2)  # 4/t - 2/t^2 at t = 2
