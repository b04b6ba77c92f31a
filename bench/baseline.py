"""Re-measure the baseline figures of ROADMAP.md through this harness:
`successive_minima` on the sheared square [[1,k],[0,1]]·C2, and `polar`
on a rational 64-gon.  Times are medians of fresh-body repetitions with
tracing off; the lattice-point and halfplane counts come from one traced
repetition.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import layers
from workloads import rational_ngon, shear

SQUARE = [(Fraction(x), Fraction(y)) for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
SHEAR_KS = ((10, 3), (30, 3), (100, 3), (300, 1))  # (k, timed repetitions)


def _body(pm, vs):
    return pm.body.Body(poly=pm.core.VPolygon([pm.core.vec(x, y) for x, y in vs]))


def _measure(pm, fn, vs, reps):
    times = []
    for _ in range(reps):
        K = _body(pm, vs)
        t0 = perf_counter()
        fn(K)
        times.append(perf_counter() - t0)
    tracer = layers.Tracer(pm)
    tracer.install()
    try:
        tracer.begin(0)
        fn(_body(pm, vs))
        tracer.end()
    finally:
        tracer.uninstall()
    return statistics.median(times), tracer.stats


def main(pm):
    print(f"{'figure':<36} {'median_s':>10} {'reps':>5}  counts")
    for k, reps in SHEAR_KS:
        sec, stats = _measure(pm, pm.minima.successive_minima, shear(SQUARE, k, False), reps)
        print(f"{f'successive_minima sheared square k={k}':<36} {sec:>10.3f} {reps:>5}"
              f"  gauge calls {stats['body.gauge'][0]}")
    ngon = rational_ngon(random.Random("baseline-64"), 64)
    sec, stats = _measure(pm, pm.body.polar, ngon, 3)
    print(f"{f'polar on a rational {len(ngon)}-gon':<36} {sec:>10.3f} {3:>5}"
          f"  halfplane_intersect calls {stats['core.halfplane_intersect'][0]}")
    return 0
