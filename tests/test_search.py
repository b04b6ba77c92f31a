import dataclasses
import random
from fractions import Fraction as F

import pytest

import polarmin as pm
from polarmin import Body, FamilySpec, InternalInvariantViolation, NoFeasibleStart, \
    NoSlackEdge, NotRotatable, search, vec
from polarmin.search import sample_feasible

from oracles import _tau_limit

T11 = pm.make(FamilySpec("T_st", {"s": 1, "t": 1}))
SQUARE = pm.make(FamilySpec("cube"))


def minimizer_candidate(t):
    ti = 1 / F(t)
    body = Body.from_points([vec(ti, 1), vec(-ti, 1 - ti), vec(0, -1)])
    return pm.make_candidate(body, t)


class TestFeasible:
    def test_extremal_triangle(self):
        ok, cert = pm.feasible(T11, 1)
        assert ok and cert.lambdas == (1, 1)

    def test_quadrilateral(self):
        ok, _ = pm.feasible(pm.make(FamilySpec("Q_quad", {"t": 1})), 1)
        assert ok

    def test_square_wrong_class(self):
        ok, cert = pm.feasible(SQUARE, 2)
        assert not ok and cert.lambdas == (1, 1)  # lambda_1 = 1, not 1/2

    def test_minimizers_feasible_for_each_t(self):
        for t in (1, F(3, 2), 2, 3):
            assert minimizer_candidate(t).feasible

    def test_rejects_t_below_one(self):
        with pytest.raises(pm.BadParams):
            pm.feasible(T11, F(1, 2))


class TestOriginMemo:
    def test_candidate_tests_each_body_for_the_origin_once(self, monkeypatch):
        start = sample_feasible(random.Random(3), F(3, 2))
        fresh = Body.from_points(start.body.polygon.vertices)
        seen = []
        inner = pm.core.contains
        monkeypatch.setattr(pm.core, "contains",
                            lambda p, q, mode="closed": seen.append(p) or inner(p, q, mode))
        cand = pm.make_candidate(fresh, F(3, 2))
        assert cand.feasible and cand.contacts_by_edge
        # K and cs(K) are each tested once; cs(K)° takes its polar directions
        # from the vertices of cs(K), whose own test covers it
        assert len(seen) == len(set(seen)) == 2


class TestEdgePush:
    def test_no_slack_edge_on_minimizer(self):
        for t in (1, 2):
            with pytest.raises(NoSlackEdge):
                pm.edge_push(minimizer_candidate(t))

    def test_push_shrinks_slack_start(self):
        # find a sampled start with a pushable edge and check strict descent
        pushed = 0
        for seed in range(30):
            rng = random.Random(f"push-{seed}")
            cand = sample_feasible(rng, 1)
            if cand is None:
                continue
            try:
                nxt = pm.edge_push(cand)
            except NoSlackEdge:
                continue
            assert nxt.volume < cand.volume
            assert nxt.feasible
            pushed += 1
            if pushed == 8:
                break
        assert pushed == 8

    def test_feasibility_closure_over_random_starts(self):
        # every push/rotate output re-verifies A(t) membership exactly
        count = 0
        for seed in range(60):
            rng = random.Random(f"closure-{seed}")
            cand = sample_feasible(rng, F(3, 2))
            if cand is None:
                continue
            final, trace, converged = pm.descend(cand, 50)
            assert final.feasible
            assert all(v >= pm.target_volume(F(3, 2)) for _, v in trace)
            count += 1
            if count == 10:
                break
        assert count == 10


class TestEdgeRotate:
    def test_minimizer_not_rotatable(self):
        # every dual edge of the optimal triangle carries two contact points
        cand = minimizer_candidate(2)
        by_edge = cand.contacts_by_edge
        assert all(len(v) == 2 for v in by_edge.values())
        for i in range(3):
            with pytest.raises(NotRotatable):
                pm.edge_rotate(cand, i, 1)

    def test_requires_valid_direction(self):
        with pytest.raises(ValueError):
            pm.edge_rotate(minimizer_candidate(1), 0, 3)

    def test_stop_reason_instrumentation(self):
        rng = random.Random("rotate-reason")
        reasons = set()
        for _ in range(120):
            cand = sample_feasible(rng, 1)
            if cand is None:
                continue
            for i in range(len(cand.body.polygon.vertices)):
                contacts = cand.contacts_by_edge[i]
                if len(contacts) != 1:
                    continue
                u = next(iter(contacts))
                vs = cand.body.polygon.vertices
                base = u.perp().cross(vs[(i + 1) % len(vs)] - vs[(i - 1) % len(vs)])
                if base == 0:
                    continue
                nxt, reason = pm.edge_rotate(cand, i, -1 if base > 0 else 1,
                                             explain=True)
                assert reason is not None
                kind = reason.split("(")[0]
                assert kind in ("witness-e1", "witness-e2", "lattice-gauge",
                                "vertex-collision")
                reasons.add(kind)
            if len(reasons) >= 2:
                break
        assert len(reasons) >= 2  # several stop classes actually observed

    def test_rotation_descends_from_unbalanced_triangle(self):
        # an unbalanced two-contact triangle is a family fixed point;
        # a three-contact-edge quadrilateral start exercises rotation instead
        rng = random.Random("rotate-probe")
        done = 0
        for _ in range(80):
            cand = sample_feasible(rng, 1)
            if cand is None:
                continue
            for i in range(len(cand.body.polygon.vertices)):
                contacts = cand.contacts_by_edge[i]
                if len(contacts) != 1:
                    continue
                u = next(iter(contacts))
                vs = cand.body.polygon.vertices
                base = u.perp().cross(vs[(i + 1) % len(vs)] - vs[(i - 1) % len(vs)])
                if base == 0:
                    continue
                nxt = pm.edge_rotate(cand, i, -1 if base > 0 else 1)
                assert nxt.volume <= cand.volume
                assert nxt.feasible
                done += 1
            if done >= 5:
                break
        assert done >= 5


class TestBalance:
    def test_balances_unbalanced_case2_triangle(self):
        t = F(3, 2)
        unbalanced = pm.make_candidate(
            pm.make(FamilySpec("Tri_case2", {"t": t, "t1": F(1, 2), "t2": F(5, 6)})), t)
        assert unbalanced.feasible
        assert unbalanced.volume > pm.target_volume(t)
        with pytest.raises(NoSlackEdge):
            pm.edge_push(unbalanced)
        balanced = pm.balance_triangle(unbalanced)
        assert balanced is not None
        assert balanced.volume == pm.target_volume(t)

    def test_balanced_triangle_is_fixed_point(self):
        assert pm.balance_triangle(minimizer_candidate(2)) is None


class TestMultiStart:
    def test_reaches_target_for_t1(self):
        res = pm.multi_start(1, range(6), 100)
        assert res.best.volume == F(3, 2) == res.target
        assert res.converged_seeds > 0

    def test_reaches_target_for_t2(self):
        res = pm.multi_start(2, range(6), 100)
        assert res.best.volume == F(7, 8) == res.target

    def test_lower_bound_safety(self):
        res = pm.multi_start(F(3, 2), range(4), 100)
        assert all(v >= res.target for _, v in res.trace)
        assert res.best.volume >= res.target

    def test_deterministic_traces(self):
        a = pm.multi_start(F(3, 2), range(4), 60)
        b = pm.multi_start(F(3, 2), range(4), 60)
        assert a.trace == b.trace and a.best.body == b.best.body and a.seed == b.seed

    def test_no_seeds_raises(self):
        with pytest.raises(NoFeasibleStart):
            pm.multi_start(1, [], 10)

    def test_seed_generator_counted_as_consumed(self):
        with pytest.raises(NoFeasibleStart, match="in 2 seeds"):
            pm.multi_start(1, (s for s in range(2)), 10, budget=0)

    def test_contact_structure_at_convergence(self):
        res = pm.multi_start(2, range(6), 100)
        by_edge = res.best.contacts_by_edge
        # converged minimizer: a triangle, two contact points per dual edge
        assert len(res.best.body.polygon.vertices) == 3
        assert all(len(v) == 2 for v in by_edge.values())
        c0, c = pm.contact_set(res.best.body)
        assert len(set(c)) in (4, 6)
        assert all(z.y in (-1, 0, 1) for z in c0)


class TestFlatStall:
    def test_symmetric_triangle_is_a_strict_descent_fixed_point(self):
        # (2/3) * conv{(1,1),(1,-2),(-2,1)} lies in A(1) with volume 2:
        # every dual edge carries one interior contact but the pivot line
        # through it is parallel to the opposite primal edge, so all
        # rotations are volume-flat and strict descent must stop here
        body = Body.from_points([vec(F(2, 3), F(2, 3)), vec(F(2, 3), F(-4, 3)),
                                 vec(F(-4, 3), F(2, 3))])
        cand = pm.make_candidate(body, 1)
        assert cand.feasible and cand.volume == 2
        with pytest.raises(NoSlackEdge):
            pm.edge_push(cand)
        by_edge = cand.contacts_by_edge
        vs = cand.body.polygon.vertices
        for i in range(3):
            assert len(by_edge[i]) == 1
            u = next(iter(by_edge[i]))
            assert u.perp().cross(vs[(i + 1) % 3] - vs[(i - 1) % 3]) == 0
        final, trace, converged = pm.descend(cand, 50)
        assert converged and final.volume == 2 and len(trace) == 1


class TestMoveFuzz:
    def test_random_move_sequences_keep_invariants(self):
        # arbitrary interleavings of the three moves must preserve
        # feasibility, monotone volume, the provable lower bound, and the
        # 3..6 vertex range
        rng = random.Random("fuzz-moves")
        cands = 0
        attempt = 0
        while cands < 10 and attempt < 400:
            attempt += 1
            t = rng.choice([F(1), F(3, 2), F(2)])
            cand = sample_feasible(random.Random(f"fz-{attempt}"), t, budget=40)
            if cand is None:
                continue
            cands += 1
            target = pm.target_volume(t)
            for _ in range(8):
                choice = rng.randint(0, 2)
                prev = cand
                try:
                    if choice == 0:
                        cand = pm.edge_push(cand)
                    elif choice == 1:
                        vs = cand.body.polygon.vertices
                        i = rng.randrange(len(vs))
                        contacts = cand.contacts_by_edge[i]
                        if len(contacts) != 1:
                            continue
                        u = next(iter(contacts))
                        base = u.perp().cross(vs[(i + 1) % len(vs)] - vs[(i - 1) % len(vs)])
                        if base == 0:
                            continue
                        cand = pm.edge_rotate(cand, i, -1 if base > 0 else 1)
                    else:
                        nxt = pm.balance_triangle(cand)
                        if nxt is None:
                            continue
                        cand = nxt
                except (NoSlackEdge, NotRotatable):
                    continue
                assert cand.feasible
                assert target <= cand.volume <= prev.volume
                assert 3 <= len(cand.body.polygon.vertices) <= 6
        assert cands == 10


class TestMoveSolve:
    def test_tau_limit_has_no_ceiling(self):
        # (max(0, 4 - tau/10^10) + 0)/2 falls to 1 at tau = 2 * 10^10
        assert _tau_limit(4, F(-1, 10**10), 0, 0, 0, 0, 1, False) == 2 * 10**10

    def test_constraint_that_never_binds_has_no_limit(self):
        # (max(0, 4 + tau) + 0)/2 only grows, and (max(1, -tau) + 1)/2 stays flat
        assert _tau_limit(4, 1, 0, 0, 0, 0, 1, False) is None
        assert _tau_limit(0, -1, 1, 1, 0, 0, 1, True) is None

    def test_rebuild_outside_At_raises(self, monkeypatch):
        # each move solves once and re-certifies; a rebuilt candidate
        # outside A(t) is an invariant violation, never a returned result
        cand = sample_feasible(random.Random("move-solve"), 1)
        vs = cand.body.polygon.vertices
        n = len(vs)
        rotations = []
        for i in range(n):
            u = search.rotatable_contact(cand, i)
            if u is not None:
                base = u.perp().cross(vs[(i + 1) % n] - vs[(i - 1) % n])
                if base != 0:
                    rotations.append((i, -1 if base > 0 else 1))
        assert pm.edge_push(cand).volume < cand.volume
        assert pm.edge_rotate(cand, *rotations[0]) is not cand
        rebuild = search._rebuild
        monkeypatch.setattr(search, "_rebuild", lambda c, pts: dataclasses.replace(
            rebuild(c, pts), feasible=False))
        with pytest.raises(InternalInvariantViolation):
            pm.edge_push(cand)
        with pytest.raises(InternalInvariantViolation):
            pm.edge_rotate(cand, *rotations[0])


class TestCandidateGeometry:
    def test_bounding_rectangle(self):
        # feasible bodies fit a translate of [-1/t,1/t] x [-1,1]
        for t in (1, 2):
            cand = minimizer_candidate(t)
            xs = [v.x for v in cand.body.polygon.vertices]
            ys = [v.y for v in cand.body.polygon.vertices]
            assert max(xs) - min(xs) == 2 / F(t)
            assert max(ys) - min(ys) == 2

    def test_vertex_count_within_range(self):
        rng = random.Random("counts")
        seen = 0
        while seen < 6:
            cand = sample_feasible(rng, 1)
            if cand is None:
                continue
            assert 3 <= len(cand.body.polygon.vertices) <= 6
            seen += 1
