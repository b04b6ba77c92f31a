"""Constructors for the named body families, with closed-form volumes and
minima where those are known.

Planar instances materialize as exact vertex polygons; for n > 2 only the
closed forms are exposed (cube, T_n and T_of_s also carry an exact
H-representation).  Each family is one record of `_record`, which `make`,
`closed_form_volume` and `closed_form_minima` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .body import Body
from .core import HPolytope, convex_hull, rat, vec
from .errors import BadParams, NoClosedForm

FAMILY_NAMES = ("T_st", "cube", "cross", "S_n", "T_n", "T_of_s", "Q_quad", "Tri_case2")
_PLANAR = ("T_st", "Q_quad", "Tri_case2")
# T_n is T_of_s at s = 1/2: offset 1 = 2s and (n + 1)^n/n! = (n + 2s)^n/n!
_T_N_S = Fraction(1, 2)

# Which functional the stated minima refer to: the polar of the central
# symmetral, or the polar of the body itself.  A family with no entry has no
# stated minima.
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


def _record(spec: FamilySpec):
    """(params, vertices, volume, minima) of a valid spec: the provenance
    parameters, the planar polygon's vertices or None, and thunks of the
    stated volume and minima (None where no minima are stated).  The thunks
    keep `make` from computing n!, which takes seconds at n = 10**6.  Raises
    BadParams for a spec outside its family's domain; the planar families
    take their parameters at any dimension."""
    name, n = spec.name, spec.dim
    if name == "T_st":
        s, t = spec.param("s"), spec.param("t")
        if not (t >= s > 0):
            raise BadParams("T_st needs t >= s > 0")
        return ({"s": s, "t": t}, [(-s, t - s), (s, t), (0, -t)],
                lambda: 2 * t * s - s * s / 2, lambda: (s, t))
    if name in ("Q_quad", "Tri_case2"):
        # t plus the split (t1, t2) with t1 + t2 = 2/t; defaults t1 = t2 = 1/t
        t = spec.param("t")
        if t < 1:
            raise BadParams("t must be >= 1")
        t1, t2 = spec.params.get("t1"), spec.params.get("t2")
        if t1 is None:
            t1 = 1 / t if t2 is None else 2 / t - t2
        if t2 is None:
            t2 = 2 / t - t1
        if t1 <= 0 or t2 <= 0 or t1 + t2 != 2 / t:
            raise BadParams("need t1, t2 > 0 with t1 + t2 = 2/t")
        params = {"t": t, "t1": t1, "t2": t2}
        minima = lambda: (1 / t, Fraction(1))
        if name == "Q_quad":
            return (params, [(t1, 1 - t1), (-t2, 1), (-t2, -1 + t2), (t1, -1)],
                    lambda: 4 / t - 2 / t**2, minima)
        return params, [(t1, 1), (-t2, 1 - t2), (0, -1)], lambda: 2 / t - t1 * t2 / 2, minima
    if name not in FAMILY_NAMES:
        raise BadParams(f"unknown family {name!r}")
    if n < 2:
        raise BadParams(f"family {name} needs dimension >= 2")
    ones = lambda: (Fraction(1),) * n
    if name == "cube":
        return ({}, [(1, 1), (-1, 1), (-1, -1), (1, -1)] if n == 2 else None,
                lambda: Fraction(2) ** n, ones)
    if name == "cross":
        return ({}, [(1, 0), (0, 1), (-1, 0), (0, -1)] if n == 2 else None,
                lambda: Fraction(2**n, math.factorial(n)), ones)
    if name == "S_n":
        return ({}, [(1, 0), (0, 1), (-1, -1)] if n == 2 else None,
                lambda: Fraction(n + 1, math.factorial(n)), None)
    params, s = {}, _T_N_S
    if name == "T_of_s":
        s = params["s"] = spec.param("s")
        if s < 1:
            raise BadParams("T_of_s needs s >= 1")
    return params, None, lambda: (n + 2 * s) ** n / Fraction(math.factorial(n)), ones


def make(spec: FamilySpec) -> Body:
    """Exact Body for the family instance; planar instances get vertex form,
    except T_n and T_of_s, which are built from their H-representation."""
    name, n = spec.name, spec.dim
    if name in _PLANAR and n != 2:
        raise BadParams(f"{name} is planar")
    params, vertices, _, _ = _record(spec)
    family = (name, params)
    if vertices is not None:
        return Body(poly=convex_hull([vec(x, y) for x, y in vertices]), family=family)
    if name == "cube":
        rows = [(tuple(rat(sign * (j == i)) for j in range(n)), rat(1))
                for i in range(n) for sign in (1, -1)]
    elif name in ("T_n", "T_of_s"):
        rows = [(tuple(rat(int(j == i)) for j in range(n)), rat(1)) for i in range(n)]
        rows.append(((rat(-1),) * n, 2 * params.get("s", _T_N_S)))
    else:
        return Body(family=family, dim=n)
    return Body(hrep=HPolytope(tuple(rows), n), family=family, dim=n)


def closed_form_volume(spec: FamilySpec) -> Fraction:
    """Stated exact volume; for planar instances it equals area(make(spec))."""
    return _record(spec)[2]()


def closed_form_minima(spec: FamilySpec) -> tuple:
    """Stated successive minima (see MINIMA_REFERENCE for the body they
    refer to); raises NoClosedForm where none is stated."""
    if spec.name in FAMILY_NAMES and spec.name not in MINIMA_REFERENCE:
        raise NoClosedForm(f"no stated minima for family {spec.name!r}")
    return _record(spec)[3]()
