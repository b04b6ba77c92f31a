"""Show that every gate rejects a deliberately wrong result.

Each case takes a real op result of this checkout, checks that the gate
accepts it, then corrupts one field and checks that the gate rejects it.
Exit status 0 only if every corruption is rejected.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from workloads import WORKLOADS, check_reference


def _corrupt_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


def cases(pm, golden, workdir):
    """Yield (name, gate result on the real output, gate result on the corrupted one)."""
    corpus = WORKLOADS["corpus"](pm, 0, workdir / "corpus", golden.get("corpus"))
    block = corpus.block(0)
    inp, grid_inp = block[0], block[-1]
    reps, grid_reps = corpus.run_op(inp), corpus.run_op(grid_inp)
    ok = corpus.check_op(inp, reps)
    i = next(k for k, r in enumerate(reps) if r.check_id == "eq_1_7_main")
    yield ("corpus: a report flipped to violated", ok, corpus.check_op(
        inp, reps[:i] + [dataclasses.replace(reps[i], holds=False)] + reps[i + 1:]))
    yield ("corpus: volume off by 1/1000", ok, corpus.check_op(
        inp, reps[:i] + [dataclasses.replace(reps[i], lhs=reps[i].lhs + Fraction(1, 1000))]
        + reps[i + 1:]))
    yield ("corpus: one Grünbaum report missing", ok, corpus.check_op(inp, reps[:-1]))
    yield ("corpus: grid body slack changed", corpus.check_op(grid_inp, grid_reps),
           corpus.check_op(grid_inp, [dataclasses.replace(grid_reps[0], slack=grid_reps[0].slack + 1)]
                           + grid_reps[1:]))
    ref = golden.get("corpus", {})
    yield ("corpus: reference checks_run off by one", check_reference(ref, golden.get("corpus")),
           check_reference({**ref, "checks_run": ref.get("checks_run", 0) + 1}, golden.get("corpus")))

    search = WORKLOADS["search"](pm, 0, workdir / "search")
    t = Fraction(3, 2)
    result = search.run_op((t, 0))
    final, accepted = result
    target = pm.search.target_volume(t)
    ok = search.check_op((t, 0), result)
    yield ("search: final volume below the target", ok, search.check_op(
        (t, 0), (dataclasses.replace(final, volume=target - Fraction(1, 10**6)), accepted)))
    bigger = pm.body.scale(final.body, 2)
    yield ("search: winner does not re-certify", ok, search.check_op(
        (t, 0), (dataclasses.replace(final, body=bigger, volume=bigger.volume()), accepted)))
    search.best = {t: target}
    ok = search.finish() or None
    search.best = {t: target + Fraction(1, 10**9)}
    yield ("search: best volume misses the target", ok, search.finish() or None)

    analyze = WORKLOADS["analyze"](pm, 0, workdir / "analyze")
    block = analyze.block(0)
    base, shear = block[0], block[1]
    vpoly, hpoly = (next(inp for inp in block if inp[0] == kind) for kind in ("vpoly", "hpoly"))
    outs = {k: analyze.run_op(inp) for k, inp in
            (("base", base), ("shear", shear), ("vpoly", vpoly), ("hpoly", hpoly))}
    ok = analyze.check_op(base, outs["base"])
    yield ("analyze: exit code 1", ok, analyze.check_op(base, (1, outs["base"][1])))
    analyze.check_op(base, outs["base"])
    ok = analyze.check_op(shear, outs["shear"])

    def bump_lambda(doc):
        doc["minima"]["cs_polar"]["lambda"][0] = str(Fraction(doc["minima"]["cs_polar"]["lambda"][0]) + 1)

    yield ("analyze: sheared lambda changed", ok, analyze.check_op(
        shear, (0, _corrupt_json(outs["shear"][1], bump_lambda))))

    def violate(doc):
        doc["reports"][0]["holds"] = False

    yield ("analyze: a report flipped to violated", ok, analyze.check_op(
        shear, (0, _corrupt_json(outs["shear"][1], violate))))
    analyze.check_op(vpoly, outs["vpoly"])
    ok = analyze.check_op(hpoly, outs["hpoly"])
    analyze.check_op(vpoly, outs["vpoly"])
    yield ("analyze: hpoly stdout differs by one byte", ok, analyze.check_op(
        hpoly, (0, outs["hpoly"][1].replace("\n", " \n", 1))))
    ref = golden.get("analyze", {})
    yield ("analyze: reference stdout digest changed", check_reference(ref, golden.get("analyze")),
           check_reference({**ref, "family": "0" * 64}, golden.get("analyze")))


def benchmark_json_matches(path) -> str | None:
    """BENCHMARK.json must list exactly the metrics and units the harness prints."""
    from layers import per_layer_units
    from run import END_TO_END
    doc = json.loads(path.read_text())
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != expected:
            return f"{key} in {path.name} differs from the harness"
    return None


def main(pm, golden, workdir, benchmark_json):
    failures = 0
    mismatch = benchmark_json_matches(benchmark_json)
    if mismatch:
        print(mismatch)
        failures += 1
    for name, real, corrupted in cases(pm, golden, workdir):
        good = real is None and corrupted is not None
        failures += not good
        verdict = "rejected" if good else "NOT REJECTED" if real is None else f"real result failed: {real}"
        print(f"{name:<48} {verdict}" + (f"  ({corrupted})" if good else ""))
    print("selftest:", "every corruption rejected" if not failures else f"{failures} cases failed")
    return 1 if failures else 0
