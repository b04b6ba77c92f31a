"""Structured exact checks, one per numbered inequality of the catalog.

Check identifiers follow the inequality numbering used throughout the
package and its JSON interfaces:

    eq_1_1_lower / eq_1_1_upper   Minkowski's second theorem via cs(K)
    eq_1_2                        Mahler volume product, symmetric bodies
    eq_1_3                        Mahler volume product, general bodies
    eq_1_4                        Mahler's minima bound, symmetric bodies
    eq_1_5                        Makai's first-minimum bound
    eq_1_6                        product form of Makai's bound
    eq_1_7_main                   sharp planar bound 2*l1*l2 - l1^2/2
    eq_1_8                        Eggleston's bound vol(K)*vol(cs(K)°) >= 6
    eq_1_9                        Kuperberg-derived bound (approximate: pi)
    eq_1_10                       symmetric-minima upper bound 2^n * l1*l2
    eq_1_11                       centered upper bound (n+1)^n/n! * l1*l2
    eq_1_12                       first-minimum bound via the body's polar
    prop_2_1_i / prop_2_1_ii      lambda_i(K°) <= lambda_i(cs(K)°)
    gruenbaum                     centered halfspace cut, constant 4/9

Everything is computed in exact rational arithmetic except eq_1_9, whose
constant involves pi: lhs, rhs and slack use 62831853/20000000 <= pi, and
it holds only when lhs also reaches the rhs at 62831854/20000000 >= pi, so
a true verdict is certified; that report carries exact=False.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .body import Body, as_body, centered, central_symmetral, is_symmetric, \
    polar, translate
from .core import E1, E2, Vec2, _cut_area, _over_lcm, centroid, convex_hull, rat, \
    rat_str, vec
from .errors import DegenerateInput, OriginNotInterior, ZeroNormal
from .families import FamilySpec, closed_form_volume, make
from .minima import successive_minima

PI_LOWER = Fraction(62831853, 20000000)
PI_UPPER = Fraction(62831854, 20000000)

THEOREM_CHECKS = frozenset({
    "eq_1_1_lower", "eq_1_1_upper", "eq_1_5", "eq_1_7_main", "eq_1_8",
    "eq_1_10", "eq_1_11", "prop_2_1_i", "prop_2_1_ii", "gruenbaum",
})


@dataclass(frozen=True)
class Report:
    """Verdict for one inequality: lhs RELATION rhs with exact slack."""

    check_id: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "ge" or "le"
    holds: bool
    equality: bool
    slack: Fraction  # lhs - rhs
    exact: bool = True
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "check": self.check_id,
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
            "relation": self.relation,
            "holds": self.holds,
            "equality": self.equality,
            "slack": rat_str(self.slack),
            "exact": self.exact,
        }
        if self.meta:
            out["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        return out


def _report(check_id, lhs, rhs, relation, exact=True, meta=None, certified=True) -> Report:
    lhs, rhs = rat(lhs), rat(rhs)
    holds = certified and (lhs >= rhs if relation == "ge" else lhs <= rhs)
    slack = lhs - rhs
    return Report(check_id, lhs, rhs, relation, holds,
                  exact and slack == 0, slack, exact, meta or {})


def _origin_interior_rep(K: Body) -> Body:
    return K if K.contains_origin("open") else centered(K)


def _lam(K: Body):
    return successive_minima(K).lambdas


def check_minkowski(K):
    """vol bounds 2^n/n! and 2^n times prod 1/lambda_i(cs(K)), n = 2."""
    K = as_body(K)
    l1, l2 = _lam(central_symmetral(K))
    v = K.volume()
    lower = _report("eq_1_1_lower", v, 2 / (l1 * l2), "ge")
    upper = _report("eq_1_1_upper", v, 4 / (l1 * l2), "le")
    return lower, upper


def check_planar_main(K) -> Report:
    """Sharp planar bound vol(K) >= 2*l1*l2 - l1^2/2, l_i of cs(K)°.

    Equality holds exactly for the translates and unimodular images of the
    extremal triangles T_st."""
    K = as_body(K)
    l1, l2 = _lam(polar(central_symmetral(K)))
    return _report("eq_1_7_main", K.volume(), 2 * l1 * l2 - l1 * l1 / 2, "ge")


def check_upper_sym(K) -> Report:
    """vol(K) <= 2^n * prod lambda_i(cs(K)°); the square attains equality."""
    K = as_body(K)
    l1, l2 = _lam(polar(central_symmetral(K)))
    return _report("eq_1_10", K.volume(), 4 * l1 * l2, "le")


def check_upper_centered(K) -> Report:
    """vol(K) <= (n+1)^n/n! * prod lambda_i(K°) for centered K (translated
    internally; the applied shift is recorded in the report)."""
    K = as_body(K)
    c = centroid(K.polygon)
    l1, l2 = _lam(polar(centered(K)))
    meta = {} if c.is_zero() else {"translated_by": f"({rat_str(-c.x)}, {rat_str(-c.y)})"}
    return _report("eq_1_11", K.volume(), Fraction(9, 2) * l1 * l2, "le", meta=meta)


def check_prop_succ(K):
    """lambda_i(K°) <= lambda_i(cs(K)°) for i = 1, 2; needs interior origin."""
    K = as_body(K)
    if not K.contains_origin("open"):
        raise OriginNotInterior("prop_2_1 compares minima of K° at the given origin")
    a1, a2 = _lam(polar(K))
    b1, b2 = _lam(polar(central_symmetral(K)))
    return (_report("prop_2_1_i", a1, b1, "le"),
            _report("prop_2_1_ii", a2, b2, "le"))


def check_grunbaum(K, a: Vec2) -> Report:
    """Centered halfspace cut: vol(K ∩ {<a,x> >= 0}) >= (4/9) vol(K).

    K is translated to its centroid internally; that makes the classical
    constant (n/(n+1))^n = 4/9 valid for every nonzero normal.  The cut area
    is `_cut_area` of the centered polygon by {-A x - B y <= 0}, a = (A, B)/M
    scaled to integers once: one integer shoelace sum, with no clip built."""
    if a.is_zero():
        raise ZeroNormal("halfspace normal must be nonzero")
    Kc = centered(K)
    (A, B), _ = _over_lcm((a.x, a.y))
    lhs = _cut_area(Kc.polygon, -A, -B, 0)
    meta = {"normal": f"({rat_str(a.x)}, {rat_str(a.y)})"}
    return _report("gruenbaum", lhs, Fraction(4, 9) * Kc.volume(), "ge", meta=meta)


def conjecture_report(K) -> list:
    """One report per volume-product or minima lower bound.

    The symmetric-only bounds (eq_1_2, eq_1_4) are emitted only for
    origin-symmetric bodies; polar-based quantities use the body as given
    when the origin is interior and its centroid translate otherwise.
    All bounds are established results in the plane, so no report may come
    back violated."""
    K = as_body(K)
    Ko = _origin_interior_rep(K)
    v = K.volume()
    sym = is_symmetric(K)
    lcs1, lcs2 = _lam(polar(central_symmetral(K)))
    lko1, lko2 = _lam(polar(Ko))
    vol_polar = polar(Ko).volume()
    vol_cs_polar = polar(central_symmetral(K)).volume()
    exponent_meta = {"product_reading": "prod lambda_i, inner exponent dropped"}

    reports = []
    if sym:
        reports.append(_report("eq_1_2", v * vol_polar, Fraction(16, 2), "ge"))
    reports.append(_report("eq_1_3", v * vol_polar, Fraction(27, 4), "ge"))
    if sym:
        reports.append(_report("eq_1_4", v, 2 * lko1 * lko2, "ge"))
    reports.append(_report("eq_1_5", v, Fraction(3, 2) * lcs1 * lcs1, "ge"))
    reports.append(_report("eq_1_6", v, Fraction(3, 2) * lcs1 * lcs2, "ge",
                           meta=exponent_meta))
    reports.append(_report("eq_1_8", v * vol_cs_polar, 6, "ge"))
    reports.append(_report("eq_1_9", v, (PI_LOWER / 4) ** 2 / 2 * lcs1 * lcs2, "ge", exact=False,
                           meta={"pi_lower_bound": rat_str(PI_LOWER), **exponent_meta},
                           certified=v >= (PI_UPPER / 4) ** 2 / 2 * lcs1 * lcs2))
    reports.append(_report("eq_1_12", v, Fraction(3, 2) * lko1 * lko1, "ge"))
    return reports


def unbounded_demo(s_values) -> list:
    """Rows (s, lambda_1(T(s)°), lambda_2(T(s)°), vol) for the family whose
    polar minima stay (1, 1) while the volume grows without bound.

    The minima are certified by enumeration on the planar instance rather
    than taken from the closed form."""
    rows = []
    for s in map(rat, s_values):
        spec = FamilySpec("T_of_s", {"s": s}, dim=2)
        body = make(spec)
        l1, l2 = _lam(polar(body))
        vol = closed_form_volume(spec)
        if (l1, l2) != (1, 1) or vol != body.volume():
            raise AssertionError(f"closed forms disagree with computation at s={s}")
        rows.append({"s": s, "lambda": (l1, l2), "vol": vol})
    return rows


def standard_checks(K, grunbaum_normals) -> list:
    """All checks for one body, in canonical order, sharing minima work."""
    K = as_body(K)
    reports = list(check_minkowski(K))
    reports.append(check_planar_main(K))
    reports.append(check_upper_sym(K))
    reports.append(check_upper_centered(K))
    Ko = _origin_interior_rep(K)
    reports.extend(check_prop_succ(Ko))
    reports.extend(conjecture_report(K))
    for a in grunbaum_normals:
        reports.append(check_grunbaum(K, a))
    return reports


DEFAULT_GRUNBAUM_NORMALS = (E1, E2, vec(1, 1))


def random_bodies(seed: int, count: int, span: int = 6):
    """Seeded corpus of random convex polygons translated to their centroid.

    Hulls of 3..8 points with coordinates in {-span..span}/q for a small
    random denominator q; degenerate samples are rejected.  The centroid
    translation guarantees an interior origin."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(3, 8)
        den = rng.randint(1, 4)
        pts = [vec(Fraction(rng.randint(-span, span), den),
                   Fraction(rng.randint(-span, span), den)) for _ in range(k)]
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            continue
        out.append(translate(hull, -centroid(hull)))
    return out


def random_normals(seed, count: int, span: int = 5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = vec(rng.randint(-span, span), rng.randint(-span, span))
        if not a.is_zero():
            out.append(a)
    return out


def builtin_family_grid():
    """Labelled instances used for equality-case coverage."""
    grid = []
    for s, t in ((1, 1), (1, 2), (2, 3), (Fraction(1, 2), 5), (3, 7)):
        grid.append((f"T_st({s},{t})", make(FamilySpec("T_st", {"s": s, "t": t}))))
    grid.append(("C2", make(FamilySpec("cube"))))
    grid.append(("cross2", make(FamilySpec("cross"))))
    grid.append(("S2", make(FamilySpec("S_n"))))
    grid.append(("T2", make(FamilySpec("T_n"))))
    grid.append(("T_of_s(2)", make(FamilySpec("T_of_s", {"s": 2}))))
    for t in (1, Fraction(3, 2), 2):
        grid.append((f"Q_quad({t})", make(FamilySpec("Q_quad", {"t": t}))))
    for t in (1, Fraction(3, 2)):
        grid.append((f"Tri_case2({t})", make(FamilySpec("Tri_case2", {"t": t}))))
    return grid


def verify_suite(seed: int, count: int) -> dict:
    """Run every check over the seeded corpus plus the built-in family grid.

    Returns a canonical summary; any violated report is embedded together
    with the offending body so the failure is reproducible."""
    from .jsonio import body_to_json  # local import to avoid a cycle

    labelled = [(f"corpus[{i}]", K)
                for i, K in enumerate(random_bodies(seed, count))]
    labelled += builtin_family_grid()
    normal_rng_seed = f"{seed}-normals"
    violations = []
    equality_hits: dict = {}
    checks_run = 0
    rng_normals = random_normals(normal_rng_seed, 20 * len(labelled))
    for idx, (label, K) in enumerate(labelled):
        if label.startswith("corpus["):
            normals = rng_normals[20 * idx:20 * (idx + 1)]
        else:
            normals = DEFAULT_GRUNBAUM_NORMALS
        for rep in standard_checks(K, normals):
            checks_run += 1
            if not rep.holds:
                violations.append({"body": label, "body_json": body_to_json(K),
                                   "report": rep.to_json()})
            if rep.equality and rep.check_id != "gruenbaum":
                equality_hits.setdefault(rep.check_id, []).append(label)
    return {
        "seed": seed,
        "count": count,
        "bodies": len(labelled),
        "checks_run": checks_run,
        "violations": violations,
        "equality_hits": {k: equality_hits[k] for k in sorted(equality_hits)},
    }
