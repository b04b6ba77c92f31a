import math
import random
from fractions import Fraction as F

import pytest

import polarmin as pm
from polarmin import Body, NotNormalized, vec

from oracles import brute_minima
from test_body import random_origin_interior_body, random_unimodular
from test_cli import run, write_body

SQUARE = Body.from_points([vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)])
CROSS = Body.from_points([vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
T11 = Body.from_points([vec(-1, 0), vec(1, 1), vec(0, -1)])
T23 = Body.from_points([vec(-2, 1), vec(2, 3), vec(0, -3)])


def _probe_integer_form(monkeypatch):
    """(reads, builds): the polygons whose integer form is read, and those
    for which it is built rather than taken from the polygon's slot."""
    reads, builds = [], []
    inner = pm.core.integer_form

    def probe(p):
        reads.append(p)
        if p._integer is None:
            builds.append(p)
        return inner(p)

    monkeypatch.setattr(pm.core, "integer_form", probe)
    return reads, builds


def _probe_walk(monkeypatch):
    """The lattice points the minima walk evaluates, in visiting order."""
    visited = []
    inner = pm.minima._ring

    def probe(r, P, Q):
        for y in inner(r, P, Q):
            visited.append(y)
            yield y

    monkeypatch.setattr(pm.minima, "_ring", probe)
    return visited


class TestSuccessiveMinima:
    def test_cross_polytope(self):
        cert = pm.successive_minima(CROSS)
        assert cert.lambdas == (1, 1)
        assert cert.witnesses == (vec(1, 0), vec(0, 1))

    def test_fig1_hexagon(self):
        hexagon = pm.polar(pm.central_symmetral(T23))
        cert = pm.successive_minima(hexagon)
        assert cert.lambdas == (2, 3)
        assert cert.witnesses == (vec(1, 0), vec(0, 1))

    def test_symmetral_of_t11(self):
        # gauge of e1 in the hexagon cs(T11) is 4/3 (brute-force confirmed below)
        cert = pm.successive_minima(pm.central_symmetral(T11))
        assert cert.lambdas == (F(4, 3), F(4, 3))
        cs = pm.central_symmetral(T11).polygon
        assert brute_minima([(v.x, v.y) for v in cs.vertices], 4) == (F(4, 3), F(4, 3))

    def test_witness_gauges_and_independence(self, corpus60):
        for K in corpus60[:30]:
            cert = pm.successive_minima(K)
            l1, l2 = cert.lambdas
            w1, w2 = cert.witnesses
            assert l1 <= l2
            assert pm.gauge(K, w1) == l1 and pm.gauge(K, w2) == l2
            assert w1.cross(w2) != 0
            assert w1.is_integral() and w2.is_integral()

    def test_brute_force_oracle_on_double_box(self, corpus60):
        # a brute-force scan over a box twice the certified one never finds
        # smaller minima
        checked = 0
        for K in corpus60:
            cert = pm.successive_minima(K)
            box = 2 * max(1, math.floor(cert.search_radius * max(cert.extents)))
            if box > 40:
                continue  # keep the exhaustive oracle affordable
            coords = [(v.x, v.y) for v in K.polygon.vertices]
            assert brute_minima(coords, box) == cert.lambdas
            checked += 1
            if checked == 12:
                break
        assert checked == 12

    def test_scaling_laws(self):
        rng = random.Random(97)
        for _ in range(15):
            K = random_origin_interior_body(rng)
            mu = F(rng.randint(1, 9), rng.randint(1, 9))
            l = pm.successive_minima(K).lambdas
            scaled = pm.scale(K, mu)
            assert pm.successive_minima(scaled).lambdas == (l[0] / mu, l[1] / mu)
            lp = pm.successive_minima(pm.polar(K)).lambdas
            assert pm.successive_minima(pm.polar(scaled)).lambdas == (mu * lp[0], mu * lp[1])

    def test_unimodular_invariance_of_symmetral_minima(self):
        rng = random.Random(101)
        for _ in range(20):
            K = random_origin_interior_body(rng)
            T = random_unimodular(rng)
            shift = vec(F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 3))
            moved = pm.translate(pm.apply_transform(T, K), shift)
            a = pm.successive_minima(pm.polar(pm.central_symmetral(K))).lambdas
            b = pm.successive_minima(pm.polar(pm.central_symmetral(moved))).lambdas
            assert a == b

    def test_certificate_soundness_fields(self):
        cert = pm.successive_minima(CROSS)
        assert cert.search_radius >= cert.lambdas[1]
        assert cert.extents == (1, 1)

    def test_deterministic(self):
        a = pm.successive_minima(Body.from_points([vec(-2, 1), vec(2, 3), vec(0, -3)]))
        b = pm.successive_minima(Body.from_points([vec(-2, 1), vec(2, 3), vec(0, -3)]))
        assert a == b

    def test_json_shape(self):
        doc = pm.successive_minima(CROSS).to_json()
        assert doc["lambda"] == ["1", "1"]
        assert doc["witnesses"] == [[1, 0], [0, 1]]
        assert doc["radius"] == "1"


class TestShortVectorsOnDemand:
    def test_report_cards_and_analyze_build_no_short_vectors(self, corpus60, monkeypatch, tmp_path):
        # the report card and `analyze` read lambda and the witnesses only,
        # so no certificate they make builds its short-vector view
        certs = []
        inner = pm.minima._certify
        monkeypatch.setattr(pm.minima, "_certify", lambda K: certs.append(inner(K)) or certs[-1])
        bodies = [Body(poly=K.polygon) for K in corpus60]
        for K in bodies:
            pm.standard_checks(K, pm.verify.DEFAULT_GRUNBAUM_NORMALS)
        doc = {"type": "vpoly",
               "vertices": [["30", "1/30"], ["-30", "1/30"], ["-30", "-1/30"], ["30", "-1/30"]]}
        assert run("analyze", write_body(tmp_path, doc)).exit_code == 0
        for K in bodies:
            cs = pm.central_symmetral(K)
            for D in (cs, pm.polar(K), pm.polar(cs)):
                assert any(D._minima is cert for cert in certs)
        assert len(certs) > 3 * len(bodies)
        assert not [cert for cert in certs if "short_vectors" in vars(cert)]

    def test_view_is_built_once_on_first_read(self):
        cert = pm.successive_minima(pm.polar(T23))
        assert "short_vectors" not in vars(cert)
        first = cert.short_vectors
        assert cert.short_vectors is first and vars(cert)["short_vectors"] is first
        assert "short_vectors" not in repr(cert)


class TestReducedEnumeration:
    def test_sheared_square_and_its_polar(self, monkeypatch):
        visited = _probe_walk(monkeypatch)
        K = pm.apply_transform(pm.Transform2.linear(1, 200, 0, 1), SQUARE)
        cert, dual = pm.successive_minima(K), pm.successive_minima(pm.polar(K))
        assert cert.lambdas == dual.lambdas == (1, 1)
        assert cert.witnesses == (vec(1, 0), vec(199, 1))
        assert dual.witnesses == (vec(0, 1), vec(1, -200))
        # the box of the body's own coordinates still bounds the witnesses
        assert (cert.search_radius, cert.extents) == (199, (201, 1))
        assert (dual.search_radius, dual.extents) == (200, (1, 200))
        assert cert.basis == (vec(1, 0), vec(200, 1))
        assert dual.basis == (vec(0, 1), vec(1, -200))  # determinant -1
        assert len(visited) <= 100

    def test_thin_rectangle_and_its_polar_walk_their_box_once(self, monkeypatch):
        # lambda_2/lambda_1 = 900 on R_30 = [-30, 30] x [-1/30, 1/30] and on
        # its polar, and the standard basis is reduced for both; the walk
        # visits no point of the box |p| <= 900, |q| <= 1 (|p| <= 1,
        # |q| <= 900 for the polar) twice
        visited = _probe_walk(monkeypatch)
        a = F(30)
        R = Body.from_points([vec(a, 1 / a), vec(-a, 1 / a), vec(-a, -1 / a), vec(a, -1 / a)])
        for K, short in ((R, 6 * 900 + 2), (pm.polar(R), 2 * 900 + 2)):
            visited.clear()
            cert = pm.successive_minima(K)
            assert cert.lambdas == (F(1, 30), 30)
            assert cert.basis == (vec(1, 0), vec(0, 1))
            assert len(visited) == len(set(visited)) <= 3 * (2 * 900 + 1) - 1
            assert len(cert.short_vectors) == short

    def test_reduced_image_reuses_the_gauge_rows(self, monkeypatch):
        # the walk in the reduced basis maps the integer rows of K° by Bᵀ and
        # builds no image of K: the image K is born with its integer form, so
        # only the form of K° is built, and no polygon but SQUARE (mapped to
        # K), K and K° is read
        reads, builds = _probe_integer_form(monkeypatch)
        K = pm.apply_transform(pm.Transform2.linear(1, 200, 0, 1), SQUARE)
        cert = pm.successive_minima(K)
        assert cert.basis == (vec(1, 0), vec(200, 1))
        assert cert.witnesses == (vec(1, 0), vec(199, 1))
        assert builds == [pm.polar(K).polygon]
        allowed = (SQUARE.polygon, K.polygon, pm.polar(K).polygon)
        assert all(any(p is q for q in allowed) for p in reads)

    def test_polar_takes_its_directions_from_the_body(self, monkeypatch):
        # the polar directions of K° are the vertices of K, so certifying K°
        # reads the edges of K (to build K°), through the integer form K is
        # born with, builds no form, and never reads K°'s
        reads, builds = _probe_integer_form(monkeypatch)
        for T, body in ((pm.Transform2.linear(1, 0, 7, 1), T23),
                        (pm.Transform2.linear(1, 200, 0, 1), SQUARE)):
            K = pm.apply_transform(T, body)
            expected = pm.successive_minima(pm.polar(body)).lambdas
            reads.clear()
            builds.clear()
            assert pm.successive_minima(pm.polar(K)).lambdas == expected
            assert builds == []
            assert all(p is K.polygon for p in reads)

    def test_standard_basis_kept_when_reduced(self):
        assert pm.successive_minima(CROSS).basis == (vec(1, 0), vec(0, 1))

    def test_basis_left_out_of_json(self):
        K = pm.apply_transform(pm.Transform2.linear(1, 0, 7, 1), T23)
        assert set(pm.successive_minima(K).to_json()) == {"lambda", "witnesses", "radius", "extents"}


class TestMinimaBasis:
    def test_square(self):
        basis = pm.minima_basis(SQUARE)
        assert (basis.z1, basis.z2) == (vec(1, 0), vec(0, 1))

    def test_fig1_hexagon(self):
        basis = pm.minima_basis(pm.polar(pm.central_symmetral(T23)))
        assert (basis.z1, basis.z2) == (vec(1, 0), vec(0, 1))

    def test_scaled_square(self):
        doubled = pm.scale(SQUARE, 2)
        basis = pm.minima_basis(doubled)
        assert (basis.z1, basis.z2) == (vec(1, 0), vec(0, 1))
        assert pm.successive_minima(doubled).lambdas == (F(1, 2), F(1, 2))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            pm.minima_basis(T11)

    def test_basis_on_random_symmetric_bodies(self):
        rng = random.Random(103)
        for _ in range(25):
            K = pm.central_symmetral(random_origin_interior_body(rng))
            basis = pm.minima_basis(K)
            l1, l2 = pm.successive_minima(K).lambdas
            assert abs(basis.z1.cross(basis.z2)) == 1
            assert pm.gauge(K, basis.z1) == l1
            assert pm.gauge(K, basis.z2) == l2


class TestNormalizeToAt:
    def test_t11_is_already_normal(self):
        form = pm.normalize_to_At(T11)
        assert form.t == 1
        assert form.scale == 1
        assert form.body == T11

    def test_t23(self):
        form = pm.normalize_to_At(T23)
        assert form.t == F(3, 2)
        assert form.scale == F(1, 3)
        assert form.body.volume() == F(10, 9)
        # volume of the normal form agrees with the sharp bound at t
        t = form.t
        assert form.body.volume() == 2 / t - 1 / (2 * t * t)

    def test_invariance_under_unimodular_affine_maps(self):
        rng = random.Random(107)
        for _ in range(15):
            T = random_unimodular(rng)
            shift = vec(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
            moved = pm.translate(pm.apply_transform(T, T11), shift)
            form = pm.normalize_to_At(moved)
            assert form.t == 1
            assert form.body.volume() == F(3, 2)

    def test_transform_reproduces_body(self):
        form = pm.normalize_to_At(T23)
        rebuilt = pm.scale(pm.apply_transform(form.transform, T23), form.scale)
        assert rebuilt == form.body
        assert form.transform.unimodular

    def test_minima_attained_at_unit_vectors(self):
        rng = random.Random(109)
        for _ in range(10):
            K = random_origin_interior_body(rng)
            form = pm.normalize_to_At(K)
            dual = pm.polar(pm.central_symmetral(form.body))
            assert pm.gauge(dual, pm.E1) == 1 / form.t
            assert pm.gauge(dual, pm.E2) == 1
            assert pm.successive_minima(dual).lambdas == (1 / form.t, 1)
            assert form.t >= 1


class TestContactSet:
    def test_t11(self):
        c0, c = pm.contact_set(T11)
        assert set(c0) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(-1, 1), vec(1, -1)}
        assert len(set(c)) == 6

    def test_square(self):
        c0, c = pm.contact_set(SQUARE)
        assert {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)} <= set(c0)
        assert len(set(c)) == 4

    def test_c0_symmetric(self):
        c0, _ = pm.contact_set(T11)
        assert set(c0) == {-z for z in c0}

    def test_contact_points_on_polar_boundary(self):
        _, c = pm.contact_set(T11)
        dual = pm.polar(T11).polygon
        for u in c:
            assert pm.contains(dual, u, "closed") and not pm.contains(dual, u, "open")

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            pm.contact_set(pm.scale(SQUARE, 2))
