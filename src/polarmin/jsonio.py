"""JSON wire formats.

Rationals are serialized as strings "p/q" (or "p" when q = 1) so every value
round-trips bit exactly; lattice vectors are plain JSON integers.
"""

from __future__ import annotations

from .body import Body
from .core import HPolytope, convex_hull, integer_form, rat, rat_str, vec
from .errors import DegenerateInput, LimitExceeded
from .families import FamilySpec, make

# Most digits of L or a coordinate in a parsed polygon's integer form: the
# 330-row rational_ngon hpoly has 1061, and from 340 rows (1145) printing fails.
FORM_DIGITS = 1100


def body_to_json(K: Body) -> dict:
    """Canonical Body JSON: family provenance wins, then vertex form, then
    H-form."""
    if K.family is not None:
        name, params = K.family
        return {
            "type": "family",
            "name": name,
            "params": {k: rat_str(v) for k, v in sorted(params.items())},
            "dim": K.dim,
        }
    if K.is_planar:
        return vertices_json(K)
    h = K._hrep
    return {
        "type": "hpoly",
        "dim": h.dim,
        "rows": [{"normal": [rat_str(c) for c in n], "offset": rat_str(c0)}
                 for n, c0 in h.rows],
    }


def vertices_json(K: Body) -> dict:
    """Vertex-form Body JSON regardless of provenance (planar only)."""
    return {
        "type": "vpoly",
        "vertices": [[rat_str(v.x), rat_str(v.y)] for v in K.polygon.vertices],
    }


def _dim(value) -> int:
    if type(value) is not int or value < 1:  # bool is a subclass of int
        raise ValueError(f"dim must be an integer >= 1, not {value!r}")
    return value


def body_from_json(doc: dict) -> Body:
    """The Body of a JSON document; a non-object, a `dim` that is not an
    integer >= 1, a normal of another length or a non-rational value raises
    ValueError or TypeError; a polygon past FORM_DIGITS raises LimitExceeded."""
    if not isinstance(doc, dict):
        raise ValueError(f"body JSON must be an object, not {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "vpoly":
        pts = [vec(rat(x), rat(y)) for x, y in doc["vertices"]]
        # Accept any ordering of a strictly convex vertex list, but reject
        # duplicate, collinear and interior points (VPolygon invariant).
        hull = convex_hull(pts)
        if hull.vertex_set() != frozenset(pts):
            raise DegenerateInput("vertex list contains non-extreme points")
        K = Body(poly=hull)
    elif kind == "hpoly":
        dim = _dim(doc["dim"])
        rows = tuple((tuple(rat(c) for c in row["normal"]), rat(row["offset"]))
                     for row in doc["rows"])
        for normal, _ in rows:
            if len(normal) != dim:
                raise ValueError(f"normal with {len(normal)} components in dimension {dim}")
        K = Body(hrep=HPolytope(rows, dim), dim=dim)
    elif kind == "family":
        K = make(FamilySpec(doc["name"], dict(doc.get("params", {})),
                            _dim(doc.get("dim", 2))))
    else:
        raise ValueError(f"unknown body type {kind!r}")
    pts, L = integer_form(K.polygon) if K.is_planar else ((), 0)
    if max([L, *(abs(c) for p in pts for c in p)]) >= 10 ** FORM_DIGITS:
        raise LimitExceeded(f"the body's integer form has over {FORM_DIGITS} digits")
    return K
