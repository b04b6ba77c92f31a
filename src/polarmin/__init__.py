"""polarmin: exact rational toolkit for planar convex bodies and Z² minima.

Computes polar bodies, central symmetrals, support and gauge functions,
certified successive minima, verdicts for the classical volume bounds
(Minkowski, Mahler, Makai, Eggleston, Grünbaum and the sharp planar
triangle bound), and a constrained local search over the normalized class
A(t) whose minimum is attained by a triangle.
"""

from .body import Body, Transform2, apply_transform, as_body, centered, \
    central_symmetral, gauge, gauge_cs_identity, is_symmetric, polar, scale, \
    support, translate
from .core import E1, E2, ORIGIN, HPolytope, Rat, Vec2, VPolygon, area, centroid, \
    clip_halfplane, contains, convex_hull, cut_area, dec_str, edge_halfplanes, \
    halfplane_intersect, rat, rat_str, vec
from .errors import BadParams, DegenerateInput, Empty, GeometryError, \
    InternalInvariantViolation, LimitExceeded, NoClosedForm, NoFeasibleStart, \
    NoSlackEdge, NotNormalized, NotRotatable, OriginNotInterior, \
    SingularTransform, Unbounded, ZeroNormal
from .families import FAMILY_NAMES, FamilySpec, MINIMA_REFERENCE, \
    closed_form_minima, closed_form_volume, make
from .jsonio import body_from_json, body_to_json
from .minima import AtNormalForm, MinimaBasis, MinimaCert, contact_set, \
    minima_basis, normalize_to_At, successive_minima
from .search import Candidate, SearchResult, balance_triangle, descend, \
    edge_push, edge_rotate, feasible, make_candidate, multi_start, target_volume
from .verify import Report, check_grunbaum, check_minkowski, check_planar_main, \
    check_prop_succ, check_upper_centered, check_upper_sym, conjecture_report, \
    random_bodies, standard_checks, unbounded_demo, verify_suite

__version__ = "0.1.0"
