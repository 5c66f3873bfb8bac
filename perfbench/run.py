"""superchar benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each workload ends in an exact verdict, and every repetition is checked
against perfbench/expected.json.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 runs worker processes one after another, for --seconds: a new
one starts while the last one's duration still fits, and at least
MIN_WORKERS run.  Each worker times its own set-up (importing the package
and generating the first input), a first call with the process's lazy
caches cold, and REPS_PER_WORKER further repetitions.  Every call, and
the set-up, is also taken as a multiple of a fixed reference task timed
beside it in the same process (see worker.py).  Reported: the median set-up, in seconds at
the speed where the reference takes REFERENCE_S, the median first call
and the median of all later calls in reference units, and the median
peak resident memory of the workers.  The medians in
seconds are printed too, but not gated on: on a shared host they follow
the neighbours.

--trace 1 runs one worker on a fixed schedule (the first call, two
untraced calls, one traced call) and reports the per-layer metrics of the
traced call from perfbench/tracer.py.  The span tree is written to
perfbench/out/.

Both print the median and spread of the reference task's times on the
calibration line, so a noisy host can be told apart from a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
OUT_DIR = HERE / "out"
MIN_WORKERS = 3
REPS_PER_WORKER = 2
# setup_s is reported in seconds at the host speed where the reference task
# takes this long (its median on the baseline host when that was quiet).
REFERENCE_S = 0.125
# Every run ends within this many seconds or fails without a result.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "first_call_ref": "ref", "call_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_worker(name: str, seed: int, index: int, deadline: float, extra: list[str]) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--worker", str(index), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: no time left for worker {index}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker {index} did not finish within the run limit")
    if proc.returncode != 0:
        raise BenchError(
            f"{name}: worker {index} exited with {proc.returncode}:\n{proc.stderr.strip()[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up(deadline: float) -> None:
    """Import the package once, untimed, so every timed set-up finds the same
    bytecode cache and file cache."""
    code = "import workloads; workloads.load_library()"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import superchar:\n{proc.stderr.strip()[-3000:]}")


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    runs = []
    setup_ratios: list[float] = []
    first_ratios: list[float] = []
    ratios: list[float] = []
    end = time.monotonic() + seconds
    last_cost = 0.0
    while len(runs) < MIN_WORKERS or time.monotonic() + last_cost <= end:
        t0 = time.monotonic()
        out = run_worker(name, seed, len(runs), deadline, ["--reps", str(REPS_PER_WORKER)])
        last_cost = time.monotonic() - t0
        runs.append(out)
        # the worker's first reference run follows its set-up and first call
        ref = out["ref_samples"][0]
        setup_ratios.append(out["setup_s"] / ref)
        first_ratios.append(out["first_call_s"] / ref)
        ratios += out["call_ref_samples"]
    walls = [w for r in runs for w in r["wall_samples"]]
    firsts = [r["first_call_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setup_ratios) * REFERENCE_S,
        "first_call_ref": statistics.median(first_ratios),
        "call_ref": statistics.median(ratios),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    notes = {
        "setup_s": f"median of {len(runs)} fresh processes, at reference speed; "
                   f"in seconds {statistics.median(r['setup_s'] for r in runs):.4g}",
        "first_call_ref": f"median of {len(runs)}, caches cold; in seconds {statistics.median(firsts):.4g}",
        "call_ref": f"median of {len(ratios)}, spread {spread(ratios):.1%}; "
                    f"in seconds {statistics.median(walls):.4g}, spread {spread(walls):.1%}",
        "peak_rss_mb": f"median of {len(runs)} processes, set-up and first call",
    }
    return metrics, {"runs": runs, "notes": notes}


def trace(name: str, seed: int, deadline: float) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-seed{seed}.json"
    run = run_worker(name, seed, 0, deadline, ["--trace", "--spans", str(spans)])
    metrics = run["trace"]
    return metrics, {"runs": [run], "notes": {}, "spans": str(spans.relative_to(ROOT))}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    warm_up(deadline)
    if traced:
        metrics, detail = trace(name, seed, deadline)
    else:
        metrics, detail = measure(name, seed, seconds, deadline)
    runs = detail["runs"]
    refs = [t for r in runs for t in r["ref_samples"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]

    print(f"workload {name}, seed {seed}, trace {int(traced)}: {len(runs)} worker process(es)")
    for metric, value in metrics.items():
        note = detail["notes"].get(metric, "")
        print(f"  {metric:42s} {value:>14.6g} {unit_of(metric):6s} {note}")
    print(f"  {'fail_frac':42s} {failed / attempted:>14.6g} {'ratio':6s} {failed} of {attempted} repetitions failed")
    for err in errors[:5]:
        print(f"  failure: {err}", file=sys.stderr)
    print("calibration " + json.dumps({
        "reference_runs": len(refs),
        "median_s": statistics.median(refs),
        "iqr_share": spread(refs),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }))
    if "spans" in detail:
        print(f"spans written to {detail['spans']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "superchar" / "__init__.py").is_file():
        print(f"error: no superchar sources under {workloads.SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
