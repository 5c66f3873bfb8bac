"""Self-checks of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. For every workload, a repetition checked against a perturbed
   expectation is counted as failed, and against the recorded one passes;
   a generated input passes its check with the subset walk as well.
2. Two traced runs of the same seed give identical values for every count
   metric, and the counts predicted to be zero on a workload are zero.
3. BENCHMARK.json names exactly the workloads and metrics the benchmark
   reports, with the same units.

Takes about a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run
import tracer
import worker
import workloads

TRACE_SEED = 5

VERMACALC_COUNTS = (
    "vermacalc.self_pct",
    "vermacalc.weight_space_monomials.calls",
    "vermacalc.weight_space_monomials.misses",
    "vermacalc.monomials_found",
    "vermacalc.window_cells",
    "vermacalc.act_basis.calls",
    "vermacalc.act_basis.misses",
    "vermacalc.apply.calls",
    "vermacalc.elements_built",
)
LINALG_COUNTS = (
    "linalg.self_pct",
    "linalg.insert.calls",
    "linalg.insert.grew_ratio",
    "linalg.max_width",
    "linalg.max_entry_bits",
)
# The cells of the prediction table marked "zero" (perfbench/README.md).
PREDICTED_ZERO = {
    "euler": VERMACALC_COUNTS + LINALG_COUNTS,
    "image": ("diagrams.is_g1_generic.calls",),
    "sweep": ("diagrams.is_g1_generic.calls",) + VERMACALC_COUNTS + LINALG_COUNTS,
}


def perturbed(name: str, wl, lib, inp, expected: dict) -> dict:
    """A copy of the expectation with one value changed."""
    bad = copy.deepcopy(expected)
    if name == "euler":
        terms = wl.simple_terms(inp, wl.call(lib, inp))
        terms[0][1] += 1
        bad["simple_digest"] = workloads.terms_digest(terms)
    elif name == "image":
        bad["ranks"][len(bad["ranks"]) // 2][1] += 1
    else:
        bad["pairs_per_trial"] += 1
    return bad


def check_expectations(lib, failures: list[str]) -> None:
    recorded = workloads.load_expected()
    for name, wl in workloads.WORKLOADS.items():
        inp = next(wl.inputs(lib, 0, 0))
        problem = wl.validate(lib, inp, brute=True)
        if problem:
            failures.append(f"{name}: {problem}")
        _, good = worker.run_rep(wl, lib, inp, recorded[name])
        if good:
            failures.append(f"{name}: recorded expectation fails: {good}")
        bad = perturbed(name, wl, lib, inp, recorded[name])
        _, problems = worker.run_rep(wl, lib, inp, bad)
        if not problems:
            failures.append(f"{name}: a perturbed expectation was not counted as a failure")
        print(f"{name}: recorded expectation passes, perturbed one fails: {bool(problems)}")


def traced_counts(name: str) -> dict:
    deadline = time.monotonic() + run.RUN_LIMIT_S
    out = run.run_worker(name, TRACE_SEED, 0, deadline, ["--trace"])
    if out["failed"]:
        raise RuntimeError(f"{name}: traced run failed: {out['errors']}")
    return out["trace"]


def is_count(metric: str) -> bool:
    return run.unit_of(metric) in ("count", "bits") or metric == "linalg.insert.grew_ratio"


def check_determinism(failures: list[str]) -> None:
    for name in workloads.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        differ = [k for k in first if is_count(k) and first[k] != second[k]]
        if differ:
            failures.append(f"{name}: counts differ between two traced runs: {differ}")
        nonzero = [k for k in PREDICTED_ZERO[name] if first[k] != 0]
        if nonzero:
            failures.append(f"{name}: predicted-zero metrics are not zero: {nonzero}")
        print(f"{name}: {sum(map(is_count, first))} counts repeat: {not differ}; "
              f"{len(PREDICTED_ZERO[name])} predicted zeros hold: {not nonzero}")


def check_manifest(failures: list[str]) -> None:
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    if [w["name"] for w in manifest["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        failures.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END_UNITS}")
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    want = {k: run.unit_of(k) for k in tracer.METRIC_NAMES}
    if layer != want:
        failures.append(f"BENCHMARK.json per_layer differs in {sorted(set(layer.items()) ^ set(want.items()))}")
    print(f"BENCHMARK.json: {len(e2e)} end-to-end and {len(layer)} per-layer metrics checked")


def main() -> int:
    failures: list[str] = []
    check_manifest(failures)
    check_expectations(workloads.load_library(), failures)
    check_determinism(failures)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
