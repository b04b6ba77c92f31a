"""Acceptance suite: one test per criterion, strictest (exact) tolerances.

Every numeric assertion is exact rational equality unless the criterion
itself states a decimal gap (criterion 11, 1e-6, checked exactly as a
Fraction comparison).  Each test prints one PASS line; a failed assertion
fails the test before the line is printed.
"""

import random
import time
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import polarmin as pm
from polarmin import FamilySpec, vec
from polarmin.cli import main as cli_main
from polarmin.verify import random_normals, standard_checks

MICRO = F(1, 10**6)


def _pass(cid, detail=""):
    print(f"ACCEPTANCE criterion {cid}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def corpus_reports(corpus500):
    """One full check pass over the 500-polygon corpus, shared by the
    corpus-based criteria; 20 seeded halfspace normals per body."""
    normals = random_normals("acceptance-grunbaum", 20 * len(corpus500))
    out = []
    for i, K in enumerate(corpus500):
        reps = standard_checks(K, normals[20 * i:20 * (i + 1)])
        out.append((K, {r.check_id: r for r in reps if r.check_id != "gruenbaum"},
                    [r for r in reps if r.check_id == "gruenbaum"]))
    return out


def test_criterion_01_theorem1_equality_grid():
    for s, t in ((1, 1), (1, 2), (2, 3), (F(1, 2), 5), (3, 7)):
        s, t = F(s), F(t)
        K = pm.make(FamilySpec("T_st", {"s": s, "t": t}))
        assert K.volume() == 2 * t * s - s * s / 2
        cert = pm.successive_minima(pm.polar(pm.central_symmetral(K)))
        assert cert.lambdas == (s, t)
        rep = pm.check_planar_main(K)
        assert rep.holds and rep.slack == 0 and rep.equality
    _pass("01", "(equality grid, slack exactly 0)")


def test_criterion_02_figure_hexagon():
    hexagon = pm.polar(pm.central_symmetral(pm.make(FamilySpec("T_st", {"s": 2, "t": 3}))))
    expected = {vec(F(2, 5), F(1, 5)), vec(F(-1, 5), F(2, 5)), vec(F(-3, 5), F(1, 5)),
                vec(F(-2, 5), F(-1, 5)), vec(F(1, 5), F(-2, 5)), vec(F(3, 5), F(-1, 5))}
    assert hexagon.polygon.vertex_set() == expected
    assert len(hexagon.polygon.vertices) == 6
    _pass("02", "(six exact vertices)")


def test_criterion_03_minkowski(corpus_reports):
    for _, by_id, _ in corpus_reports:
        assert by_id["eq_1_1_lower"].holds and by_id["eq_1_1_upper"].holds
    lo, up = pm.check_minkowski(pm.make(FamilySpec("cube")))
    assert (up.lhs, up.rhs, up.equality) == (4, 4, True)
    lo, up = pm.check_minkowski(pm.make(FamilySpec("cross")))
    assert (lo.lhs, lo.rhs, lo.equality) == (2, 2, True)
    _pass("03", "(500 random polygons + both equality cases)")


def test_criterion_04_upper_bounds(corpus_reports):
    for _, by_id, _ in corpus_reports:
        assert by_id["eq_1_10"].holds and by_id["eq_1_11"].holds
    assert pm.check_upper_sym(pm.make(FamilySpec("cube"))).equality
    rep = pm.check_upper_centered(pm.make(FamilySpec("T_n")))
    assert rep.lhs == rep.rhs == F(9, 2) and rep.equality
    _pass("04", "(equalities 4=4 and 9/2=9/2, corpus holds)")


def test_criterion_05_unbounded_family():
    vols = []
    for s in (1, 2, 10, 100):
        spec = FamilySpec("T_of_s", {"s": s})
        K = pm.make(spec)
        assert pm.successive_minima(pm.polar(K)).lambdas == (1, 1)
        vol = pm.closed_form_volume(spec)
        assert vol == 2 * (F(s) + 1) ** 2
        if s <= 10:
            assert vol == K.volume()  # shoelace cross-check
        vols.append(vol)
    assert vols == [8, 18, 242, 20402] and vols == sorted(vols)
    _pass("05", "(minima stay (1,1); volumes 8, 18, 242, 20402)")


def test_criterion_06_volume_products(corpus_reports):
    cube = pm.make(FamilySpec("cube"))
    assert cube.volume() * pm.polar(cube).volume() == 8
    s2 = pm.make(FamilySpec("S_n"))
    assert s2.volume() * pm.polar(s2).volume() == F(27, 4)
    t11 = pm.make(FamilySpec("T_st", {"s": 1, "t": 1}))
    assert t11.volume() * pm.polar(pm.central_symmetral(t11)).volume() == 6
    rng = random.Random("acceptance-triangles")
    built = 0
    while built < 20:
        pts = [vec(F(rng.randint(-9, 9), rng.randint(1, 4)),
                   F(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
        try:
            tri = pm.Body.from_points(pts)
        except pm.DegenerateInput:
            continue
        assert tri.volume() * pm.polar(pm.central_symmetral(tri)).volume() == 6
        built += 1
    for _, by_id, _ in corpus_reports:
        assert by_id["eq_1_8"].lhs >= 6 and by_id["eq_1_8"].holds
    _pass("06", "(M(C2)=8, M(S2)=27/4, Eggleston =6 on triangles, >=6 on corpus)")


def test_criterion_07_polar_minima_dominated(corpus_reports):
    for _, by_id, _ in corpus_reports:
        assert by_id["prop_2_1_i"].holds and by_id["prop_2_1_ii"].holds
    shifted = pm.translate(pm.make(FamilySpec("T_st", {"s": 1, "t": 1})), vec(0, F(1, 4)))
    r1, _ = pm.check_prop_succ(shifted)
    assert r1.lhs <= F(3, 4) < 1 == r1.rhs
    _pass("07", "(corpus exact; translated witness strictly dominated)")


def test_criterion_08_grunbaum(corpus_reports):
    total = 0
    for _, _, cuts in corpus_reports:
        assert len(cuts) == 20
        for rep in cuts:
            assert rep.holds
        total += len(cuts)
    assert total == 20 * len(corpus_reports)
    rep = pm.check_grunbaum(pm.make(FamilySpec("T_n")), pm.E1)
    assert (rep.lhs, rep.rhs) == (F(5, 2), 2)
    _pass("08", "(4/9 cut bound, 20 normals per body; T2/e1 gives 5/2 >= 2)")


def test_criterion_09_gauge_identities(corpus500):
    rng = random.Random("acceptance-gauge")
    equal_branch = 0
    for i in range(1000):
        K = corpus500[i % len(corpus500)]
        if i % 5 == 0:
            x = vec(rng.randint(1, 4), rng.randint(-3, 3))
            y = x * F(rng.randint(1, 3), 1)
        else:
            x = vec(F(rng.randint(-6, 6), rng.randint(1, 3)),
                    F(rng.randint(-6, 6), rng.randint(1, 3)))
            y = vec(F(rng.randint(-6, 6), rng.randint(1, 3)),
                    F(rng.randint(-6, 6), rng.randint(1, 3)))
        dual = pm.polar(K)
        cs_dual = pm.polar(pm.central_symmetral(K))
        # gauge equals support of the polar
        assert pm.gauge(K, x) == pm.support(dual, x)
        # symmetral gauge identity, both routes
        left, right = pm.gauge_cs_identity(K, x)
        assert left == right
        # membership in a dilated polar iff the support bound holds
        lam = F(rng.randint(1, 9), rng.randint(1, 3))
        assert pm.contains(pm.scale(dual, lam).polygon, y, "closed") == \
            (pm.support(K, y) <= lam)
        # additivity biconditional
        lhs_add = pm.gauge(cs_dual, x + y) == pm.gauge(cs_dual, x) + pm.gauge(cs_dual, y)
        rhs_add = (pm.gauge(dual, x + y) == pm.gauge(dual, x) + pm.gauge(dual, y)
                   and pm.gauge(dual, -(x + y)) == pm.gauge(dual, -x) + pm.gauge(dual, -y))
        assert lhs_add == rhs_add
        equal_branch += lhs_add
    assert equal_branch > 0
    _pass("09", "(1000 exact triples, both branches exercised)")


def test_criterion_10_quadrilateral_exclusion():
    for t in (1, F(3, 2), 2):
        t = F(t)
        Q = pm.make(FamilySpec("Q_quad", {"t": t}))
        ok, _ = pm.feasible(Q, t)
        assert ok
        assert Q.volume() == 4 / t - 2 / t**2
        assert Q.volume() > pm.target_volume(t)
    _pass("10", "(feasible, vol 4/t-2/t^2, strictly above the target)")


@pytest.mark.parametrize("t", [F(1), F(3, 2), F(2)], ids=["t=1", "t=3/2", "t=2"])
def test_criterion_11_search(t):
    start = time.monotonic()
    res = pm.multi_start(t, range(32), 200)
    elapsed = time.monotonic() - start
    assert res.best.volume >= res.target  # exact lower-bound safety
    assert res.best.volume - res.target <= MICRO
    assert res.converged_seeds >= 1
    # the best candidate is a triangle whose dual edges carry two contacts
    assert len(res.best.body.polygon.vertices) == 3
    by_edge = res.best.contacts_by_edge
    assert all(len(v) == 2 for v in by_edge.values())
    assert elapsed <= 120
    _pass("11", f"(t={t}: best={res.best.volume}, gap={res.best.volume - res.target}, "
                f"{elapsed:.1f}s)")


def test_criterion_12_determinism():
    runner = CliRunner()
    suite_args = ["verify-suite", "--count", "25", "--seed", "7"]
    a = runner.invoke(cli_main, suite_args)
    b = runner.invoke(cli_main, suite_args)
    assert a.exit_code == b.exit_code == 0
    assert a.output.encode() == b.output.encode()
    search_args = ["search", "--t", "3/2", "--seeds", "4", "--iters", "60"]
    c = runner.invoke(cli_main, search_args)
    d = runner.invoke(cli_main, search_args)
    assert c.exit_code == d.exit_code == 0
    assert c.output.encode() == d.output.encode()
    _pass("12", "(byte-identical verify-suite and search runs)")
