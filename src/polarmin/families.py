"""Constructors for the named body families, with closed-form volumes and
minima where those are known.

Planar instances materialize as exact vertex polygons; for n > 2 only the
closed forms are exposed (cube, T_n and T_of_s also carry an exact
H-representation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .body import Body
from .core import HPolytope, convex_hull, rat, vec
from .errors import BadParams, NoClosedForm

FAMILY_NAMES = ("T_st", "cube", "cross", "S_n", "T_n", "T_of_s", "Q_quad", "Tri_case2")

# Which functional the stated minima refer to: the polar of the central
# symmetral, or the polar of the body itself.
MINIMA_REFERENCE = {
    "T_st": "cs_polar",
    "cube": "polar",
    "cross": "polar",
    "T_n": "polar",
    "T_of_s": "polar",
    "Q_quad": "cs_polar",
    "Tri_case2": "cs_polar",
}


@dataclass
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)
    dim: int = 2

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise BadParams(f"unknown family {self.name!r}")
        self.params = {k: rat(v) for k, v in self.params.items()}

    def param(self, key: str) -> Fraction:
        if key not in self.params:
            raise BadParams(f"family {self.name} needs parameter {key!r}")
        return self.params[key]


def _pair_params(spec: FamilySpec):
    """t plus the split (t1, t2) with t1 + t2 = 2/t; defaults t1 = t2 = 1/t."""
    t = spec.param("t")
    if t < 1:
        raise BadParams("t must be >= 1")
    t1 = spec.params.get("t1")
    t2 = spec.params.get("t2")
    if t1 is None and t2 is None:
        t1 = t2 = 1 / t
    elif t1 is None:
        t1 = 2 / t - t2
    elif t2 is None:
        t2 = 2 / t - t1
    if t1 <= 0 or t2 <= 0 or t1 + t2 != 2 / t:
        raise BadParams("need t1, t2 > 0 with t1 + t2 = 2/t")
    return t, t1, t2


def _st_params(spec: FamilySpec):
    """(s, t) of T_st, with t >= s > 0."""
    s, t = spec.param("s"), spec.param("t")
    if not (t >= s > 0):
        raise BadParams("T_st needs t >= s > 0")
    return s, t


def _of_s_param(spec: FamilySpec):
    """s of T_of_s, with s >= 1."""
    s = spec.param("s")
    if s < 1:
        raise BadParams("T_of_s needs s >= 1")
    return s


def _check_dim(spec: FamilySpec, minimum: int = 2):
    if spec.dim < minimum:
        raise BadParams(f"family {spec.name} needs dimension >= {minimum}")


def make(spec: FamilySpec) -> Body:
    """Exact Body for the family instance; planar instances get vertex form."""
    name, n = spec.name, spec.dim

    if name == "T_st":
        if n != 2:
            raise BadParams("T_st is planar")
        s, t = _st_params(spec)
        poly = convex_hull([vec(-s, t - s), vec(s, t), vec(0, -t)])
        return Body(poly=poly, family=("T_st", {"s": s, "t": t}))

    if name == "cube":
        _check_dim(spec)
        if n == 2:
            poly = convex_hull([vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)])
            return Body(poly=poly, family=("cube", {}), dim=2)
        rows = []
        for i in range(n):
            for sign in (1, -1):
                normal = tuple(rat(sign if j == i else 0) for j in range(n))
                rows.append((normal, rat(1)))
        return Body(hrep=HPolytope(tuple(rows), n), family=("cube", {}), dim=n)

    if name == "cross":
        _check_dim(spec)
        if n == 2:
            poly = convex_hull([vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)])
            return Body(poly=poly, family=("cross", {}), dim=2)
        return Body(family=("cross", {}), dim=n)

    if name == "S_n":
        _check_dim(spec)
        if n == 2:
            poly = convex_hull([vec(1, 0), vec(0, 1), vec(-1, -1)])
            return Body(poly=poly, family=("S_n", {}), dim=2)
        return Body(family=("S_n", {}), dim=n)

    if name in ("T_n", "T_of_s"):
        _check_dim(spec)
        if name == "T_of_s":
            s = _of_s_param(spec)
            lower = 2 * s
            fam = ("T_of_s", {"s": s})
        else:
            lower = rat(1)
            fam = ("T_n", {})
        rows = []
        for i in range(n):
            normal = tuple(rat(1 if j == i else 0) for j in range(n))
            rows.append((normal, rat(1)))
        rows.append((tuple(rat(-1) for _ in range(n)), lower))
        return Body(hrep=HPolytope(tuple(rows), n), family=fam, dim=n)

    if name == "Q_quad":
        if n != 2:
            raise BadParams("Q_quad is planar")
        t, t1, t2 = _pair_params(spec)
        poly = convex_hull([vec(t1, 1 - t1), vec(-t2, 1), vec(-t2, -1 + t2), vec(t1, -1)])
        return Body(poly=poly, family=("Q_quad", {"t": t, "t1": t1, "t2": t2}))

    if name == "Tri_case2":
        if n != 2:
            raise BadParams("Tri_case2 is planar")
        t, t1, t2 = _pair_params(spec)
        poly = convex_hull([vec(t1, 1), vec(-t2, 1 - t2), vec(0, -1)])
        return Body(poly=poly, family=("Tri_case2", {"t": t, "t1": t1, "t2": t2}))

    raise BadParams(f"unknown family {name!r}")


def closed_form_volume(spec: FamilySpec) -> Fraction:
    """Stated exact volume; for planar instances it equals area(make(spec))."""
    name, n = spec.name, spec.dim
    if name == "T_st":
        s, t = _st_params(spec)
        return 2 * t * s - s * s / 2
    if name == "cube":
        _check_dim(spec)
        return Fraction(2) ** n
    if name == "cross":
        _check_dim(spec)
        return Fraction(2**n, math.factorial(n))
    if name == "S_n":
        _check_dim(spec)
        return Fraction(n + 1, math.factorial(n))
    if name == "T_n":
        _check_dim(spec)
        return Fraction((n + 1) ** n, math.factorial(n))
    if name == "T_of_s":
        _check_dim(spec)
        return (n + 2 * _of_s_param(spec)) ** n / Fraction(math.factorial(n))
    if name == "Q_quad":
        t, _, _ = _pair_params(spec)
        return 4 / t - 2 / t**2
    if name == "Tri_case2":
        t, t1, t2 = _pair_params(spec)
        return 2 / t - t1 * t2 / 2
    raise BadParams(f"unknown family {name!r}")


def closed_form_minima(spec: FamilySpec) -> tuple:
    """Stated successive minima (see MINIMA_REFERENCE for the body they
    refer to); raises NoClosedForm where none is stated."""
    name, n = spec.name, spec.dim
    if name == "T_st":
        return _st_params(spec)
    if name in ("cube", "cross", "T_n", "T_of_s"):
        _check_dim(spec)
        if name == "T_of_s":
            _of_s_param(spec)
        return (Fraction(1),) * n
    if name in ("Q_quad", "Tri_case2"):
        t, _, _ = _pair_params(spec)
        return (1 / t, Fraction(1))
    raise NoClosedForm(f"no stated minima for family {name!r}")
