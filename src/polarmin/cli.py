"""Batch command line interface.

All primary output is a single JSON document on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 2 parse/usage error or an exact result too
long to print (LimitExceeded), 3 geometric precondition failure, 4 no
feasible search start, 5 verification violation.
Output is byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import NoReturn

import click

from .body import central_symmetral, polar
from .core import dec_str, rat, rat_str
from .errors import BadParams, GeometryError, LimitExceeded, NoFeasibleStart
from .families import FamilySpec, make
from .jsonio import body_from_json, body_to_json, vertices_json
from .minima import successive_minima
from .search import multi_start
from .verify import DEFAULT_GRUNBAUM_NORMALS, THEOREM_CHECKS, \
    _origin_interior_rep, standard_checks, verify_suite

PARSE_ERROR = 2
GEOMETRY_ERROR = 3
NO_FEASIBLE_START = 4
VIOLATION = 5


def _emit(doc: dict, output: str | None):
    text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(code)


def _with_decimals(doc, digits):
    """Recursively add a k-digit decimal rendering next to each rational
    string, never replacing the exact value."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out[k] = _with_decimals(v, digits)
            if isinstance(v, str) and "/" in v and not v.startswith("("):
                try:
                    out[k + "_dec"] = dec_str(Fraction(v), digits)
                except (ValueError, ZeroDivisionError):
                    pass
        return out
    if isinstance(doc, list):
        return [_with_decimals(v, digits) for v in doc]
    return doc


@click.group()
def main():
    """Exact planar convex-body toolkit: polars, symmetrals, certified
    successive minima, inequality verification, and A(t) volume search."""


@main.command()
@click.argument("body_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--decimal", type=int, default=None, help="add k-digit decimal renderings")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def analyze(body_file, decimal, output):
    """Certified minima and the full report card for one body."""
    try:
        with open(body_file) as fh:
            doc = json.load(fh)
        K = body_from_json(doc)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _fail(PARSE_ERROR, f"parse error: {exc}")
    except LimitExceeded as exc:
        _fail(PARSE_ERROR, f"limit exceeded: {exc}")
    except GeometryError as exc:
        _fail(GEOMETRY_ERROR, f"invalid body: {exc}")
    try:
        if not K.is_planar:
            raise BadParams("analyze handles planar bodies only")
        cs = central_symmetral(K)
        reports = standard_checks(K, DEFAULT_GRUNBAUM_NORMALS)
        out = {
            "body": body_to_json(K),
            "minima": {
                "cs": successive_minima(cs).to_json(),
                "cs_polar": successive_minima(polar(cs)).to_json(),
                "polar": successive_minima(
                    polar(_origin_interior_rep(K))).to_json(),
            },
            "reports": [r.to_json() for r in reports],
        }
        out["all_theorems_hold"] = all(
            r.holds for r in reports if r.check_id in THEOREM_CHECKS)
    except LimitExceeded as exc:
        _fail(PARSE_ERROR, f"limit exceeded: {exc}")
    except GeometryError as exc:
        _fail(GEOMETRY_ERROR, f"geometric precondition failed: {exc}")
    if decimal is not None:
        out = _with_decimals(out, decimal)
    _emit(out, output)
    sys.exit(0 if out["all_theorems_hold"] else 1)


@main.command()
@click.option("--name", required=True, help="family name (T_st, cube, cross, S_n, T_n, T_of_s, Q_quad, Tri_case2)")
@click.option("--s", "s_", default=None, help="parameter s (rational)")
@click.option("--t", "t_", default=None, help="parameter t (rational)")
@click.option("--t1", default=None, help="parameter t1 (rational)")
@click.option("--t2", default=None, help="parameter t2 (rational)")
@click.option("--dim", type=int, default=2, help="ambient dimension")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def family(name, s_, t_, t1, t2, dim, output):
    """Emit a family instance as Body JSON (vertex form when planar)."""
    params = {}
    try:
        for key, value in (("s", s_), ("t", t_), ("t1", t1), ("t2", t2)):
            if value is not None:
                params[key] = rat(value)
        body = make(FamilySpec(name, params, dim))
    except (BadParams, ValueError) as exc:
        _fail(PARSE_ERROR, f"bad family parameters: {exc}")
    try:
        doc = vertices_json(body) if body.is_planar else body_to_json(body)
    except LimitExceeded as exc:
        _fail(PARSE_ERROR, f"limit exceeded: {exc}")
    _emit(doc, output)


@main.command()
@click.option("--t", "t_", required=True, help="class parameter t >= 1 (rational)")
@click.option("--seeds", type=int, default=32, show_default=True)
@click.option("--iters", type=int, default=200, show_default=True)
@click.option("--trace/--no-trace", default=True, show_default=True)
@click.option("--decimal", type=int, default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def search(t_, seeds, iters, trace, decimal, output):
    """Minimize volume over A(t) from random feasible starts."""
    try:
        t = rat(t_)
        if t < 1:
            raise BadParams("t must be >= 1")
        if seeds < 0:
            raise BadParams("seeds must be >= 0")
        if iters < 0:
            raise BadParams("iters must be >= 0")
    except (BadParams, ValueError) as exc:
        _fail(PARSE_ERROR, f"bad parameter: {exc}")
    try:
        result = multi_start(t, list(range(seeds)), iters)
    except NoFeasibleStart as exc:
        _fail(NO_FEASIBLE_START, f"no feasible start: {exc}")
    gap = result.best.volume - result.target
    try:
        out = {
            "t": rat_str(t),
            "seeds": seeds,
            "iters": iters,
            "target": rat_str(result.target),
            "best": {
                "seed": result.seed,
                "volume": rat_str(result.best.volume),
                "body": vertices_json(result.best.body),
                "cert": result.best.cert.to_json(),
            },
            "gap": rat_str(gap),
            "gap_dec": dec_str(gap, 9),
            "converged_seeds": result.converged_seeds,
            "failed_seeds": list(result.failed_seeds),
        }
        if trace:
            out["trace"] = [[i, rat_str(v)] for i, v in result.trace]
    except LimitExceeded as exc:
        _fail(PARSE_ERROR, f"limit exceeded: {exc}")
    if decimal is not None:
        out = _with_decimals(out, decimal)
    _emit(out, output)
    sys.exit(0 if result.best.volume >= result.target and result.converged_seeds > 0 else 1)


@main.command("verify-suite")
@click.option("--count", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def verify_suite_cmd(count, seed, output):
    """Run every check over a seeded random corpus plus the family grid."""
    if count < 1:
        _fail(PARSE_ERROR, "count must be >= 1")
    summary = verify_suite(seed, count)
    _emit(summary, output)
    sys.exit(VIOLATION if summary["violations"] else 0)


if __name__ == "__main__":
    main()
